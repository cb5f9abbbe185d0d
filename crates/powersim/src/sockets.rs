//! Per-socket power coordination under workload imbalance — the paper's
//! §2.2 future work ("We leave the investigation of unbalanced workloads
//! and hybrid computing in our future work").
//!
//! The paper's assumption (b) aggregates all sockets into one component
//! with the budget "evenly distributed to all cores" — exact for balanced
//! SPMD workloads. This module drops that assumption: a node's sockets
//! each get their own RAPL cap, the workload places a *share* of the work
//! on each socket, and the sockets synchronize at barriers (MPI/OpenMP
//! semantics), so node performance is set by the slowest socket.
//!
//! The punchline mirrors the paper's node-level one, a level down: under
//! imbalance, an even per-socket split strands watts on the lightly
//! loaded socket while the loaded one throttles; shifting those watts
//! recovers the barrier time. [`coordinate_sockets`] finds that split.

use crate::cpunode::solve_cpu;
use crate::demand::WorkloadDemand;
use pbc_platform::{CpuSpec, DramSpec};
use pbc_types::{PbcError, PowerAllocation, Result, Watts};

/// Build the spec of a single socket from an aggregated multi-socket spec
/// (power coefficients and core counts divide; tables are shared).
pub fn single_socket_spec(cpu: &CpuSpec) -> CpuSpec {
    let n = cpu.sockets.max(1) as f64;
    CpuSpec {
        name: format!("{} (one socket)", cpu.name),
        sockets: 1,
        cores_per_socket: cpu.cores_per_socket,
        pstates: cpu.pstates.clone(),
        tstate_duties: cpu.tstate_duties.clone(),
        leakage_nominal: cpu.leakage_nominal / n,
        dyn_power_max: cpu.dyn_power_max / n,
        min_active_power: cpu.min_active_power / n,
        core_gflops_nominal: cpu.core_gflops_nominal,
    }
}

/// The outcome of running an imbalanced workload under per-socket caps.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketOperatingPoint {
    /// Per-socket caps applied.
    pub socket_caps: Vec<Watts>,
    /// Work share per socket (normalized).
    pub shares: Vec<f64>,
    /// Relative node performance (barrier-synchronized: the slowest
    /// socket's share sets the pace), normalized to the balanced
    /// unconstrained run.
    pub perf_rel: f64,
    /// Per-socket actual package powers.
    pub socket_powers: Vec<Watts>,
    /// DRAM actual power.
    pub mem_power: Watts,
    /// Index of the pacing (slowest) socket.
    pub critical_socket: usize,
}

impl SocketOperatingPoint {
    /// Total node power.
    pub fn total_power(&self) -> Watts {
        self.socket_powers.iter().copied().sum::<Watts>() + self.mem_power
    }
}

/// Solve a barrier-synchronized run with explicit per-socket caps and
/// work shares. The DRAM cap is shared; each socket's traffic allowance
/// is proportional to its share.
pub fn solve_per_socket(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    socket_caps: &[Watts],
    mem_cap: Watts,
    shares: &[f64],
) -> Result<SocketOperatingPoint> {
    if socket_caps.len() != cpu.sockets as usize {
        return Err(PbcError::InvalidInput(format!(
            "{} caps for {} sockets",
            socket_caps.len(),
            cpu.sockets
        )));
    }
    if shares.len() != socket_caps.len() {
        return Err(PbcError::InvalidInput("one share per socket required".into()));
    }
    let total_share: f64 = shares.iter().sum();
    if !(total_share > 0.0 && shares.iter().all(|s| *s >= 0.0)) {
        return Err(PbcError::InvalidInput("shares must be non-negative, not all zero".into()));
    }
    let shares: Vec<f64> = shares.iter().map(|s| s / total_share).collect();
    let socket = single_socket_spec(cpu);
    let n = socket_caps.len();

    // A socket's DRAM slice scales with its share of the traffic. Scale
    // the spec's bandwidth and background so the per-socket sub-problem
    // sees its slice of the shared memory system.
    let mut times = Vec::with_capacity(n);
    let mut powers = Vec::with_capacity(n);
    let mut mem_power = Watts::ZERO;
    for (&cap, &share) in socket_caps.iter().zip(&shares) {
        if pbc_types::is_zero(share) {
            // Idle socket: draws its floor, does no work.
            times.push(0.0);
            powers.push(socket.min_active_power);
            continue;
        }
        let slice = DramSpec {
            name: dram.name.clone(),
            technology: dram.technology,
            capacity_gb: dram.capacity_gb,
            background_power: dram.background_power * share,
            max_bandwidth: dram.max_bandwidth * share,
            transfer_w_per_gbps: dram.transfer_w_per_gbps,
            throttle_levels: dram.throttle_levels,
        };
        let op = solve_cpu(
            &socket,
            &slice,
            demand,
            PowerAllocation::new(cap, mem_cap * share),
        );
        // Time for this socket to finish its share of one unit of work:
        // share / rate.
        times.push(share / op.work_rate.max(1e-12));
        powers.push(op.proc_power);
        mem_power += op.mem_power;
    }

    // Barrier semantics: the node finishes when the slowest socket does.
    let (critical_socket, &t_max) = times
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .expect("at least one socket");

    // Nominal reference: balanced shares, unconstrained caps.
    let balanced = vec![1.0 / n as f64; n];
    let generous = cpu.max_power(1.0) + Watts::new(50.0);
    let generous_mem = dram.max_power(4.0) + Watts::new(50.0);
    let slice = DramSpec {
        name: dram.name.clone(),
        technology: dram.technology,
        capacity_gb: dram.capacity_gb,
        background_power: dram.background_power * balanced[0],
        max_bandwidth: dram.max_bandwidth * balanced[0],
        transfer_w_per_gbps: dram.transfer_w_per_gbps,
        throttle_levels: dram.throttle_levels,
    };
    let free = solve_cpu(
        &socket,
        &slice,
        demand,
        PowerAllocation::new(generous, generous_mem * balanced[0]),
    );
    let t_nominal = balanced[0] / free.work_rate.max(1e-12);

    Ok(SocketOperatingPoint {
        socket_caps: socket_caps.to_vec(),
        shares,
        perf_rel: (t_nominal / t_max).min(1.0),
        socket_powers: powers,
        mem_power,
        critical_socket,
    })
}

/// Find the best split of a total processor budget across sockets for a
/// given imbalance, by golden-section-style grid refinement on the
/// two-socket case (the common dual-socket node; more sockets fall back
/// to proportional-to-share).
pub fn coordinate_sockets(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    proc_budget: Watts,
    mem_cap: Watts,
    shares: &[f64],
) -> Result<SocketOperatingPoint> {
    let n = cpu.sockets as usize;
    if shares.len() != n {
        return Err(PbcError::InvalidInput("one share per socket required".into()));
    }
    if n != 2 {
        // Proportional fallback: cap_i ∝ share_i, floored at the socket
        // minimum.
        let total: f64 = shares.iter().sum();
        let floor = single_socket_spec(cpu).min_active_power;
        let caps: Vec<Watts> = shares
            .iter()
            .map(|s| (proc_budget * (s / total)).max(floor))
            .collect();
        return solve_per_socket(cpu, dram, demand, &caps, mem_cap, shares);
    }
    // Two sockets: scan the split fraction on a fine grid.
    let floor = single_socket_spec(cpu).min_active_power;
    let mut best: Option<SocketOperatingPoint> = None;
    let steps = 40;
    for k in 0..=steps {
        let f = k as f64 / steps as f64;
        // The two caps sum to `proc_budget` by construction; a budget
        // below twice the socket floor yields caps that
        // `solve_per_socket` rejects, rather than being masked here.
        // pbc-lint: allow(unchecked-budget-arith)
        let c0 = (proc_budget * f).max(floor).min(proc_budget - floor);
        // pbc-lint: allow(unchecked-budget-arith)
        let caps = [c0, proc_budget - c0];
        let op = solve_per_socket(cpu, dram, demand, &caps, mem_cap, shares)?;
        if best.as_ref().map(|b| op.perf_rel > b.perf_rel).unwrap_or(true) {
            best = Some(op);
        }
    }
    Ok(best.expect("grid is non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseDemand;
    use pbc_platform::presets::ivybridge;

    fn node() -> (CpuSpec, DramSpec) {
        let p = ivybridge();
        (p.cpu().unwrap().clone(), p.dram().unwrap().clone())
    }

    #[test]
    fn single_socket_spec_halves_power() {
        let (cpu, _) = node();
        let s = single_socket_spec(&cpu);
        assert_eq!(s.sockets, 1);
        assert!((s.leakage_nominal.value() - cpu.leakage_nominal.value() / 2.0).abs() < 1e-9);
        assert!((s.min_active_power.value() - 24.0).abs() < 1e-9);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn balanced_shares_match_aggregate_model() {
        // With balanced shares and an even split, the per-socket model
        // agrees with the aggregated solver within a few percent.
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let aggregate = solve_cpu(
            &cpu,
            &dram,
            &w,
            PowerAllocation::new(Watts::new(140.0), Watts::new(80.0)),
        );
        let per_socket = solve_per_socket(
            &cpu,
            &dram,
            &w,
            &[Watts::new(70.0), Watts::new(70.0)],
            Watts::new(80.0),
            &[0.5, 0.5],
        )
        .unwrap();
        let rel = (per_socket.perf_rel - aggregate.perf_rel).abs() / aggregate.perf_rel;
        assert!(
            rel < 0.05,
            "per-socket {} vs aggregate {}",
            per_socket.perf_rel,
            aggregate.perf_rel
        );
    }

    #[test]
    fn imbalance_hurts_under_even_caps() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let even_caps = [Watts::new(60.0), Watts::new(60.0)];
        let balanced =
            solve_per_socket(&cpu, &dram, &w, &even_caps, Watts::new(80.0), &[0.5, 0.5])
                .unwrap();
        let skewed =
            solve_per_socket(&cpu, &dram, &w, &even_caps, Watts::new(80.0), &[0.7, 0.3])
                .unwrap();
        assert!(
            skewed.perf_rel < 0.85 * balanced.perf_rel,
            "imbalance must hurt: {} vs {}",
            skewed.perf_rel,
            balanced.perf_rel
        );
        // The loaded socket paces the node.
        assert_eq!(skewed.critical_socket, 0);
    }

    #[test]
    fn coordination_recovers_imbalance_loss() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let shares = [0.7, 0.3];
        let budget = Watts::new(120.0);
        let even = solve_per_socket(
            &cpu,
            &dram,
            &w,
            &[budget / 2.0, budget / 2.0],
            Watts::new(80.0),
            &shares,
        )
        .unwrap();
        let coordinated =
            coordinate_sockets(&cpu, &dram, &w, budget, Watts::new(80.0), &shares).unwrap();
        assert!(
            coordinated.perf_rel > 1.15 * even.perf_rel,
            "coordinated {} vs even {}",
            coordinated.perf_rel,
            even.perf_rel
        );
        // The coordinated split gives the loaded socket the bigger cap.
        assert!(coordinated.socket_caps[0] > coordinated.socket_caps[1]);
        // And never exceeds the budget.
        let total: Watts = coordinated.socket_caps.iter().copied().sum();
        assert!(total.value() <= budget.value() + 1e-6);
    }

    #[test]
    fn coordination_is_neutral_when_balanced() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let budget = Watts::new(120.0);
        let even = solve_per_socket(
            &cpu,
            &dram,
            &w,
            &[budget / 2.0, budget / 2.0],
            Watts::new(90.0),
            &[0.5, 0.5],
        )
        .unwrap();
        let coordinated =
            coordinate_sockets(&cpu, &dram, &w, budget, Watts::new(90.0), &[0.5, 0.5]).unwrap();
        // Nothing to recover: the coordinated result is the even split
        // (within grid resolution).
        assert!((coordinated.perf_rel - even.perf_rel).abs() < 0.02);
    }

    #[test]
    fn idle_socket_draws_only_its_floor() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("cg", PhaseDemand::random_bound());
        let op = solve_per_socket(
            &cpu,
            &dram,
            &w,
            &[Watts::new(100.0), Watts::new(100.0)],
            Watts::new(100.0),
            &[1.0, 0.0],
        )
        .unwrap();
        assert!((op.socket_powers[1].value() - 24.0).abs() < 1e-9);
        assert_eq!(op.critical_socket, 0);
    }

    #[test]
    fn rejects_malformed_inputs() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("x", PhaseDemand::stream_bound());
        assert!(solve_per_socket(&cpu, &dram, &w, &[Watts::new(60.0)], Watts::new(80.0), &[1.0])
            .is_err());
        assert!(solve_per_socket(
            &cpu,
            &dram,
            &w,
            &[Watts::new(60.0), Watts::new(60.0)],
            Watts::new(80.0),
            &[0.0, 0.0],
        )
        .is_err());
    }
}
