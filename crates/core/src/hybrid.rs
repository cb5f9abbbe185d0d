//! Hybrid CPU+GPU node coordination — the other half of the paper's §2.2
//! future work ("unbalanced workloads and *hybrid computing*").
//!
//! A GPU-accelerated node runs offload-style applications: host phases
//! (I/O, assembly, kernel launch) serialize with device phases, the idle
//! side drawing only its floor. The node's budget must now be split
//! *twice*: host-vs-card first, then each side's internal cross-component
//! split — which this module delegates to the paper's own Algorithms 1
//! and 2. The top-level split is found by scanning the one-dimensional
//! host/card frontier, each point evaluated through the two COORD
//! decisions; the same §3.4 unimodality that makes the node-level search
//! easy holds here too.

use crate::coord::{coord_cpu, coord_gpu, GpuCoordParams};
use crate::critical::CriticalPowers;
use pbc_platform::{CpuSpec, DramSpec, GpuSpec};
use pbc_powersim::{solve_cpu, solve_gpu, WorkloadDemand};
use pbc_types::{PbcError, PowerAllocation, Result, Watts};

/// An offload-style hybrid workload.
#[derive(Debug, Clone)]
pub struct HybridWorkload {
    /// Host-side phases (assembly, halo exchange, launches).
    pub host_demand: WorkloadDemand,
    /// Device-side phases (the offloaded kernels).
    pub gpu_demand: WorkloadDemand,
    /// Fraction of the (serialized) unconstrained execution time spent on
    /// the device, in `(0, 1)`.
    pub gpu_share: f64,
    /// How much of the host work hides under device execution, in
    /// `[0, 1]`: 0 = classic synchronous offload (host and device strictly
    /// alternate), 1 = fully pipelined (CUDA streams + async copies, the
    /// node is as fast as its slower side).
    pub overlap: f64,
}

impl HybridWorkload {
    /// Validate the composition.
    pub fn validate(&self) -> Result<()> {
        self.host_demand.validate().map_err(PbcError::InvalidInput)?;
        self.gpu_demand.validate().map_err(PbcError::InvalidInput)?;
        if !(self.gpu_share > 0.0 && self.gpu_share < 1.0) {
            return Err(PbcError::InvalidInput(format!(
                "gpu_share must be in (0,1), got {}",
                self.gpu_share
            )));
        }
        if !(0.0..=1.0).contains(&self.overlap) {
            return Err(PbcError::InvalidInput(format!(
                "overlap must be in [0,1], got {}",
                self.overlap
            )));
        }
        Ok(())
    }
}

/// The hybrid node's operating point for one host/card budget split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridPoint {
    /// Budget given to the host (CPU + DRAM together).
    pub host_budget: Watts,
    /// Budget given to the card.
    pub gpu_budget: Watts,
    /// Host-internal split chosen by Algorithm 1.
    pub host_alloc: PowerAllocation,
    /// Card-internal split chosen by Algorithm 2.
    pub gpu_alloc: PowerAllocation,
    /// Relative node performance (1.0 = both sides unconstrained).
    pub perf_rel: f64,
    /// Time-averaged node power (active side's draw plus the idle side's
    /// floor).
    pub mean_power: Watts,
}

/// Evaluate one host/card split of the node budget. Returns `None` when a
/// side cannot productively use its share (COORD regime D or a card cap
/// below the driver minimum).
pub fn solve_hybrid_split(
    cpu: &CpuSpec,
    dram: &DramSpec,
    gpu: &GpuSpec,
    workload: &HybridWorkload,
    host_budget: Watts,
    gpu_budget: Watts,
    host_criticals: &CriticalPowers,
    gpu_params: &GpuCoordParams,
) -> Result<Option<HybridPoint>> {
    let Ok(host_decision) = coord_cpu(host_budget, host_criticals) else {
        return Ok(None);
    };
    let Ok(gpu_decision) = coord_gpu(gpu_budget, gpu, gpu_params) else {
        return Ok(None);
    };
    let host_op = solve_cpu(cpu, dram, &workload.host_demand, host_decision.alloc);
    let gpu_op = solve_gpu(gpu, &workload.gpu_demand, gpu_decision.alloc)?;

    // Offload timing with pipelining: the serialized sum and the
    // fully-overlapped max blend through the workload's overlap factor —
    // the same composition rule the node model uses for compute/memory.
    let h = 1.0 - workload.gpu_share;
    let g = workload.gpu_share;
    let t_host = h / host_op.perf_rel.max(1e-9);
    let t_dev = g / gpu_op.perf_rel.max(1e-9);
    let w = workload.overlap;
    let t = w * t_host.max(t_dev) + (1.0 - w) * (t_host + t_dev);
    // The unconstrained reference uses the same composition (with both
    // perf_rel = 1), so normalize against it.
    let t_ref = w * h.max(g) + (1.0 - w) * 1.0;
    let perf_rel = (t_ref / t).min(1.0);

    // Time-averaged power: each side active for its stretched phase,
    // idle at its floor otherwise (overlap shortens the total but both
    // sides' active energy is unchanged, so the serialized accounting
    // below is a faithful energy model divided by the blended time).
    let t_gpu = t_dev;
    let host_floor = cpu.min_active_power + dram.background_power;
    let gpu_floor = gpu.min_power();
    let idle_weight = 1.0 - w; // overlapped stretches pay no idle floor
    let energy = t_host * host_op.total_power().value()
        + t_gpu * gpu_op.total_power().value()
        + idle_weight * (t_host * gpu_floor.value() + t_gpu * host_floor.value());
    Ok(Some(HybridPoint {
        host_budget,
        gpu_budget,
        host_alloc: host_decision.alloc,
        gpu_alloc: gpu_decision.alloc,
        perf_rel,
        mean_power: Watts::new(energy / t.max(1e-12)),
    }))
}

/// Coordinate a node budget across the host and the card: scan the
/// host/card frontier in `step`-watt increments, coordinate each side
/// internally with the paper's algorithms, and keep the best.
pub fn coordinate_hybrid(
    cpu: &CpuSpec,
    dram: &DramSpec,
    gpu: &GpuSpec,
    workload: &HybridWorkload,
    node_budget: Watts,
    step: Watts,
) -> Result<HybridPoint> {
    workload.validate()?;
    let host_criticals = CriticalPowers::probe(cpu, dram, &workload.host_demand);
    let gpu_params = GpuCoordParams::profile(gpu, &workload.gpu_demand)?;

    let mut best: Option<HybridPoint> = None;
    let mut gpu_budget = gpu.min_card_cap;
    while gpu_budget <= node_budget {
        let host_budget = node_budget - gpu_budget;
        if let Some(pt) = solve_hybrid_split(
            cpu,
            dram,
            gpu,
            workload,
            host_budget,
            gpu_budget,
            &host_criticals,
            &gpu_params,
        )? {
            if best.as_ref().map(|b| pt.perf_rel > b.perf_rel).unwrap_or(true) {
                best = Some(pt);
            }
        }
        gpu_budget += step;
    }
    best.ok_or(PbcError::BudgetTooSmall {
        requested: node_budget,
        minimum: gpu.min_card_cap + host_criticals.productive_threshold(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_workloads::by_name;

    fn fixture(gpu_share: f64, gpu_bench: &str) -> (CpuSpec, DramSpec, GpuSpec, HybridWorkload) {
        let host = ivybridge();
        let card = titan_xp();
        let w = HybridWorkload {
            // Host side of an offload app: data management, CG-like glue.
            host_demand: by_name("cg").unwrap().demand,
            gpu_demand: by_name(gpu_bench).unwrap().demand,
            gpu_share,
            overlap: 0.0,
        };
        (
            host.cpu().unwrap().clone(),
            host.dram().unwrap().clone(),
            card.gpu().unwrap().clone(),
            w,
        )
    }

    #[test]
    fn validates_shares() {
        let (_, _, _, mut w) = fixture(0.8, "sgemm");
        assert!(w.validate().is_ok());
        w.gpu_share = 0.0;
        assert!(w.validate().is_err());
        w.gpu_share = 1.0;
        assert!(w.validate().is_err());
        w.gpu_share = 0.5;
        w.overlap = 1.5;
        assert!(w.validate().is_err());
    }

    #[test]
    fn overlap_raises_performance() {
        // The same workload pipelined is never slower than serialized,
        // and strictly faster when both sides do real work.
        let (cpu, dram, gpu, mut w) = fixture(0.6, "minife");
        let host_criticals = CriticalPowers::probe(&cpu, &dram, &w.host_demand);
        let gpu_params = GpuCoordParams::profile(&gpu, &w.gpu_demand).unwrap();
        let budget = Watts::new(440.0);
        let serial = solve_hybrid_split(
            &cpu, &dram, &gpu, &w, budget / 2.0, budget / 2.0, &host_criticals, &gpu_params,
        )
        .unwrap()
        .unwrap();
        w.overlap = 1.0;
        let piped = solve_hybrid_split(
            &cpu, &dram, &gpu, &w, budget / 2.0, budget / 2.0, &host_criticals, &gpu_params,
        )
        .unwrap()
        .unwrap();
        assert!(piped.perf_rel >= serial.perf_rel - 1e-9);
        // Pipelining runs both sides concurrently: the mean power goes
        // *up* (that is the point of overlap — use the whole budget at
        // once) while staying within the combined budget.
        assert!(piped.mean_power >= serial.mean_power - Watts::new(1e-6));
        assert!(piped.mean_power.value() <= 440.0 + 1e-6);
    }

    #[test]
    fn gpu_heavy_workload_steers_budget_to_the_card() {
        let (cpu, dram, gpu, w) = fixture(0.85, "sgemm");
        let pt = coordinate_hybrid(&cpu, &dram, &gpu, &w, Watts::new(500.0), Watts::new(10.0))
            .unwrap();
        assert!(
            pt.gpu_budget > pt.host_budget,
            "85% GPU work: card {} vs host {}",
            pt.gpu_budget,
            pt.host_budget
        );
        assert!(pt.perf_rel > 0.6, "perf {}", pt.perf_rel);
        assert!((pt.gpu_budget + pt.host_budget).value() <= 500.0 + 1e-6);
    }

    #[test]
    fn host_heavy_workload_keeps_budget_on_the_host() {
        let (cpu, dram, gpu, w) = fixture(0.25, "gpu-stream");
        let pt = coordinate_hybrid(&cpu, &dram, &gpu, &w, Watts::new(450.0), Watts::new(10.0))
            .unwrap();
        assert!(
            pt.host_budget.value() > 160.0,
            "25% GPU work should leave the host well fed: host {}",
            pt.host_budget
        );
    }

    #[test]
    fn coordination_beats_the_even_split() {
        let (cpu, dram, gpu, w) = fixture(0.85, "sgemm");
        let host_criticals = CriticalPowers::probe(&cpu, &dram, &w.host_demand);
        let gpu_params = GpuCoordParams::profile(&gpu, &w.gpu_demand).unwrap();
        let budget = Watts::new(440.0);
        let even = solve_hybrid_split(
            &cpu,
            &dram,
            &gpu,
            &w,
            budget / 2.0,
            budget / 2.0,
            &host_criticals,
            &gpu_params,
        )
        .unwrap()
        .expect("even split must be feasible");
        let coordinated =
            coordinate_hybrid(&cpu, &dram, &gpu, &w, budget, Watts::new(10.0)).unwrap();
        assert!(
            coordinated.perf_rel > 1.05 * even.perf_rel,
            "coordinated {} vs even {}",
            coordinated.perf_rel,
            even.perf_rel
        );
    }

    #[test]
    fn tiny_node_budgets_are_rejected() {
        let (cpu, dram, gpu, w) = fixture(0.6, "minife");
        let err = coordinate_hybrid(&cpu, &dram, &gpu, &w, Watts::new(200.0), Watts::new(10.0))
            .unwrap_err();
        assert!(matches!(err, PbcError::BudgetTooSmall { .. }));
    }

    #[test]
    fn mean_power_accounts_for_the_idle_side() {
        let (cpu, dram, gpu, w) = fixture(0.7, "minife");
        let pt = coordinate_hybrid(&cpu, &dram, &gpu, &w, Watts::new(480.0), Watts::new(10.0))
            .unwrap();
        // The time-averaged node power includes the idle side's floor, so
        // it exceeds either side's budget alone being active... and stays
        // under the sum of both budgets.
        let floor = cpu.min_active_power.value() + dram.background_power.value() + gpu.min_power().value();
        assert!(pt.mean_power.value() > floor);
        assert!(pt.mean_power.value() <= (pt.host_budget + pt.gpu_budget).value() + 1e-6);
    }
}
