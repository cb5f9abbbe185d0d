//! Co-running jobs on one power-bounded node — the paper's "multi-task
//! computing environments" future work (§8).
//!
//! Two jobs partition the cores of one host and share its DRAM. Each job
//! gets its own package-power share (per-cgroup RAPL-style accounting),
//! while the memory system is a common pool: when the jobs' combined
//! traffic demand exceeds what the DRAM cap sustains, bandwidth is
//! apportioned in proportion to demand (the fair behaviour of a memory
//! controller under contention).
//!
//! The coordination question gains a dimension: not just processor-vs-
//! memory, but *whose* processor. [`coordinate_corun`] scans the
//! inter-job split with each job's intra-node split handled by the same
//! bottleneck logic as everywhere else.

use crate::cpunode::{dram_bw_ceiling, solve_cpu};
use crate::demand::WorkloadDemand;
use crate::sockets::single_socket_spec;
use pbc_platform::{CpuSpec, DramSpec};
use pbc_types::{u16_from_f64, u32_from_f64, Bandwidth, PbcError, PowerAllocation, Result, Watts};

/// Scale a single-socket-normalized spec to an arbitrary core fraction of
/// the node.
fn partition_spec(cpu: &CpuSpec, fraction: f64) -> CpuSpec {
    let one = single_socket_spec(cpu);
    let total = cpu.sockets as f64;
    let f = (fraction * total).max(0.05);
    // Fractions arrive from scan loops, so they are finite and in (0, 1);
    // the checked conversions turn any violation of that into a visible
    // degenerate spec (0%, 1 core) instead of a saturated garbage value.
    let percent = u32_from_f64(fraction * 100.0).unwrap_or(0);
    let cores = (cpu.total_cores() as f64 * fraction).max(1.0);
    CpuSpec {
        name: format!("{} ({percent}% of cores)", cpu.name),
        sockets: 1,
        cores_per_socket: u16_from_f64(cores).unwrap_or(1).max(1),
        pstates: one.pstates.clone(),
        tstate_duties: one.tstate_duties.clone(),
        leakage_nominal: one.leakage_nominal * f,
        dyn_power_max: one.dyn_power_max * f,
        min_active_power: one.min_active_power * f,
        core_gflops_nominal: cpu.core_gflops_nominal,
    }
}

/// The co-run outcome for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CorunPoint {
    /// Per-job relative performance, each normalized to its solo
    /// unconstrained run on *half* the node. The fixed reference makes the
    /// throughput objective honest: shrinking a job's core partition
    /// really costs throughput instead of shrinking its yardstick.
    pub perf_rel: [f64; 2],
    /// Per-job package power draw.
    pub proc_powers: [Watts; 2],
    /// Shared DRAM power draw.
    pub mem_power: Watts,
    /// Bandwidth contention factor applied (1.0 = no contention).
    pub contention: f64,
}

impl CorunPoint {
    /// Sum of the two jobs' relative performances — the throughput
    /// objective a co-run scheduler maximizes.
    pub fn total_throughput(&self) -> f64 {
        self.perf_rel[0] + self.perf_rel[1]
    }

    /// Total node power.
    pub fn total_power(&self) -> Watts {
        self.proc_powers[0] + self.proc_powers[1] + self.mem_power
    }
}

/// Solve a co-run: two jobs on core fractions `core_split` / `1 −
/// core_split`, with per-job package caps and a shared DRAM cap.
pub fn solve_corun(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demands: [&WorkloadDemand; 2],
    core_split: f64,
    proc_caps: [Watts; 2],
    mem_cap: Watts,
) -> Result<CorunPoint> {
    if !(0.05..=0.95).contains(&core_split) {
        return Err(PbcError::InvalidInput(format!(
            "core_split {core_split} outside [0.05, 0.95]"
        )));
    }
    let fractions = [core_split, 1.0 - core_split];
    let parts = [partition_spec(cpu, fractions[0]), partition_spec(cpu, fractions[1])];

    // First pass: each job solo against the full DRAM cap measures its
    // bandwidth *demand*; a generous solo run provides the normalization
    // reference (perf_rel must mean "vs my solo unconstrained pace on
    // this core partition", not "vs my own contended slice").
    let mut wants = [0.0f64; 2];
    let mut ref_rates = [0.0f64; 2];
    for i in 0..2 {
        let op = solve_cpu(
            &parts[i],
            dram,
            demands[i],
            PowerAllocation::new(proc_caps[i], mem_cap),
        );
        wants[i] = op.bandwidth.value();
        let half = partition_spec(cpu, 0.5);
        let free = solve_cpu(
            &half,
            dram,
            demands[i],
            PowerAllocation::new(Watts::new(1e4), Watts::new(1e4)),
        );
        ref_rates[i] = free.work_rate.max(1e-12);
    }
    // The cap's sustainable raw bandwidth for the *mix*: use the
    // traffic-weighted pattern cost.
    let total_want = (wants[0] + wants[1]).max(1e-9);
    let mix_cost = demands
        .iter()
        .zip(&wants)
        .map(|(d, &w)| {
            let c = d
                .phases
                .first()
                .map(|(_, p)| p.pattern_cost)
                .unwrap_or(1.0);
            c * w / total_want
        })
        .sum::<f64>()
        .max(1.0);
    let sustainable = dram_bw_ceiling(dram, mem_cap, mix_cost).value();
    let contention = (sustainable / total_want).min(1.0);

    // Second pass: each job re-solved with its contended bandwidth slice.
    // Emulate the slice by handing each job a DRAM spec whose peak is its
    // apportioned share (background split by share so it is counted once
    // in total).
    let mut perf = [0.0f64; 2];
    let mut proc_powers = [Watts::ZERO; 2];
    let mut mem_power = Watts::ZERO;
    for i in 0..2 {
        let share = wants[i] * contention / sustainable.max(1e-9);
        let slice_bw = (wants[i] * contention).max(sustainable * 0.02);
        let slice = DramSpec {
            name: dram.name.clone(),
            technology: dram.technology,
            capacity_gb: dram.capacity_gb,
            background_power: dram.background_power * share.clamp(0.05, 1.0),
            max_bandwidth: Bandwidth::new(slice_bw),
            transfer_w_per_gbps: dram.transfer_w_per_gbps,
            throttle_levels: dram.throttle_levels,
        };
        let op = solve_cpu(
            &parts[i],
            &slice,
            demands[i],
            PowerAllocation::new(proc_caps[i], mem_cap * share.clamp(0.05, 1.0)),
        );
        perf[i] = op.work_rate / ref_rates[i];
        proc_powers[i] = op.proc_power;
        mem_power += op.mem_power;
    }
    // Background is mostly double-counted-proof via the share split; clamp
    // to the physical model regardless.
    mem_power = mem_power.min(dram.max_power(mix_cost));

    Ok(CorunPoint {
        perf_rel: perf,
        proc_powers,
        mem_power,
        contention,
    })
}

/// Find the throughput-maximizing co-run configuration of a node budget:
/// scan core splits and package-power splits jointly (coarse grid — this
/// is a scheduler-time decision, not a per-tick one), with the DRAM cap
/// fixed at what the budget leaves after the package caps.
pub fn coordinate_corun(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demands: [&WorkloadDemand; 2],
    node_budget: Watts,
    mem_cap: Watts,
) -> Result<(f64, [Watts; 2], CorunPoint)> {
    let proc_budget = node_budget - mem_cap;
    if proc_budget.value() <= 0.0 {
        return Err(PbcError::BudgetTooSmall {
            requested: node_budget,
            minimum: mem_cap + cpu.min_active_power,
        });
    }
    let mut best: Option<(f64, [Watts; 2], CorunPoint)> = None;
    for core_pct in [30, 40, 50, 60, 70] {
        let core_split = core_pct as f64 / 100.0;
        for power_pct in [30, 40, 50, 60, 70] {
            let p0 = proc_budget * (power_pct as f64 / 100.0);
            let caps = [p0, proc_budget - p0];
            let pt = solve_corun(cpu, dram, demands, core_split, caps, mem_cap)?;
            if best
                .as_ref()
                .map(|(_, _, b)| pt.total_throughput() > b.total_throughput())
                .unwrap_or(true)
            {
                best = Some((core_split, caps, pt));
            }
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

    fn dgemm() -> WorkloadDemand {
        WorkloadDemand::single("dgemm", PhaseDemand::compute_bound())
    }

    fn stream() -> WorkloadDemand {
        WorkloadDemand::single("stream", PhaseDemand::stream_bound())
    }

    #[test]
    fn identical_jobs_see_symmetric_outcomes() {
        let (cpu, dram) = node();
        let a = dgemm();
        let b = dgemm();
        let pt = solve_corun(
            &cpu,
            &dram,
            [&a, &b],
            0.5,
            [Watts::new(70.0), Watts::new(70.0)],
            Watts::new(80.0),
        )
        .unwrap();
        assert!((pt.perf_rel[0] - pt.perf_rel[1]).abs() < 1e-9);
        assert!((pt.proc_powers[0].value() - pt.proc_powers[1].value()).abs() < 1e-9);
    }

    #[test]
    fn two_streams_contend_for_bandwidth() {
        let (cpu, dram) = node();
        let a = stream();
        let b = stream();
        let pt = solve_corun(
            &cpu,
            &dram,
            [&a, &b],
            0.5,
            [Watts::new(60.0), Watts::new(60.0)],
            Watts::new(110.0),
        )
        .unwrap();
        assert!(
            pt.contention < 0.95,
            "two STREAMs must contend: factor {}",
            pt.contention
        );
        // Each runs notably below its solo pace.
        assert!(pt.perf_rel[0] < 0.8);
    }

    #[test]
    fn compute_plus_stream_barely_contend() {
        let (cpu, dram) = node();
        let a = dgemm();
        let b = stream();
        let pt = solve_corun(
            &cpu,
            &dram,
            [&a, &b],
            0.5,
            [Watts::new(70.0), Watts::new(60.0)],
            Watts::new(110.0),
        )
        .unwrap();
        // The classic co-run pairing result: a compute-bound job is an
        // excellent bandwidth citizen.
        assert!(
            pt.contention > 0.9,
            "DGEMM+STREAM contention {}",
            pt.contention
        );
    }

    #[test]
    fn coordination_gives_the_compute_job_more_package_power() {
        let (cpu, dram) = node();
        let a = dgemm();
        let b = stream();
        let (core_split, caps, pt) =
            coordinate_corun(&cpu, &dram, [&a, &b], Watts::new(240.0), Watts::new(100.0))
                .unwrap();
        assert!(
            caps[0] > caps[1],
            "DGEMM (job 0) should get the bigger package cap: {:?}",
            caps
        );
        assert!(core_split >= 0.5, "and at least half the cores: {core_split}");
        assert!(pt.total_throughput() > 1.0);
    }

    #[test]
    fn coordinated_beats_naive_even_corun() {
        let (cpu, dram) = node();
        let a = dgemm();
        let b = stream();
        let naive = solve_corun(
            &cpu,
            &dram,
            [&a, &b],
            0.5,
            [Watts::new(70.0), Watts::new(70.0)],
            Watts::new(100.0),
        )
        .unwrap();
        let (_, _, best) =
            coordinate_corun(&cpu, &dram, [&a, &b], Watts::new(240.0), Watts::new(100.0))
                .unwrap();
        assert!(
            best.total_throughput() >= naive.total_throughput() - 1e-9,
            "coordinated {} vs naive {}",
            best.total_throughput(),
            naive.total_throughput()
        );
    }

    #[test]
    fn budget_is_respected() {
        let (cpu, dram) = node();
        let a = dgemm();
        let b = stream();
        let (_, caps, pt) =
            coordinate_corun(&cpu, &dram, [&a, &b], Watts::new(220.0), Watts::new(90.0))
                .unwrap();
        assert!((caps[0] + caps[1]).value() <= 130.0 + 1e-9);
        assert!(pt.total_power().value() <= 220.0 + 1e-6, "{}", pt.total_power());
    }

    #[test]
    fn rejects_degenerate_splits() {
        let (cpu, dram) = node();
        let a = dgemm();
        let b = stream();
        assert!(solve_corun(
            &cpu,
            &dram,
            [&a, &b],
            0.01,
            [Watts::new(60.0), Watts::new(60.0)],
            Watts::new(90.0),
        )
        .is_err());
    }
}
