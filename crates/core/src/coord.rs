//! The COORD heuristic (§5): category-based cross-component power
//! coordination from lightweight profiling.
//!
//! Algorithm 1 (CPU) splits the budget space into four regimes:
//!
//! * **A** — `P_b ≥ L1c + L1m`: both components get their max demand; the
//!   surplus is reported back to the higher-level scheduler.
//! * **B** — `P_b ≥ L2c + L1m`: memory gets its full demand (it is the
//!   more performance-critical component to protect); the CPU takes the
//!   remainder, landing in its P-state range.
//! * **C** — `P_b ≥ L2c + L2m`: neither fits; the slack above
//!   `(L2c + L2m)` is split proportionally to the components' dynamic
//!   ranges `L1 − L2`.
//! * **D** — below the productive threshold: the job is refused.
//!
//! Algorithm 2 (GPU) needs only two per-application parameters
//! (`P_tot_max`, `P_tot_ref`) plus two card constants, because the card's
//! reclaiming capper and minimum-cap guard do the rest.

use crate::critical::CriticalPowers;
use pbc_platform::GpuSpec;
use pbc_powersim::{solve_gpu, uncapped_demand, WorkloadDemand};
use pbc_trace::names;
use pbc_types::{PbcError, PowerAllocation, Result, Watts};

/// Outcome status of a COORD decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoordStatus {
    /// The budget was allocated normally.
    Success,
    /// The budget exceeds the application's maximum demand; the surplus
    /// should be reclaimed by the higher-level scheduler.
    Surplus(Watts),
}

/// A COORD allocation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordResult {
    /// The chosen allocation.
    pub alloc: PowerAllocation,
    /// Success or surplus hint.
    pub status: CoordStatus,
}

/// Algorithm 1: category-based heuristic power coordination for CPU
/// computing. Returns [`PbcError::BudgetTooSmall`] for budgets below the
/// productive threshold `L2c + L2m` (regime D — "the algorithm rejects to
/// allocate power to run the job due to the expected poor performance").
///
/// ```
/// use pbc_core::{coord_cpu, CriticalPowers};
/// use pbc_platform::presets::ivybridge;
/// use pbc_types::Watts;
///
/// let node = ivybridge();
/// let stream = pbc_workloads::by_name("stream").unwrap();
/// let criticals =
///     CriticalPowers::probe(node.cpu().unwrap(), node.dram().unwrap(), &stream.demand);
/// let decision = coord_cpu(Watts::new(208.0), &criticals).unwrap();
/// assert!(decision.alloc.total() <= Watts::new(208.0));
/// ```
#[must_use = "the decision carries either the allocation or the rejection"]
pub fn coord_cpu(budget: Watts, c: &CriticalPowers) -> Result<CoordResult> {
    debug_assert!(c.is_ordered(), "critical powers must be ordered: {c:?}");
    if budget >= c.cpu_l1 + c.mem_l1 {
        // Regime A: adequate power for both.
        let alloc = PowerAllocation::new(c.cpu_l1, c.mem_l1);
        let surplus = budget - alloc.total();
        pbc_trace::cached_counter!(names::COORD_CPU_REGIME_A).incr();
        pbc_trace::cached_gauge!(names::COORD_CPU_SURPLUS_W).set(surplus.value());
        return Ok(CoordResult {
            alloc,
            status: CoordStatus::Surplus(surplus),
        });
    }
    if budget >= c.cpu_l2 + c.mem_l1 {
        // Regime B: memory first (it has the greater performance impact),
        // CPU takes the rest and lands inside its P-state range.
        let mem = c.mem_l1;
        pbc_trace::cached_counter!(names::COORD_CPU_REGIME_B).incr();
        pbc_trace::cached_gauge!(names::COORD_CPU_SURPLUS_W).set(0.0);
        return Ok(CoordResult {
            alloc: PowerAllocation::new(budget - mem, mem),
            status: CoordStatus::Success,
        });
    }
    if budget >= c.cpu_l2 + c.mem_l2 {
        // Regime C: proportional split of the slack by dynamic range.
        let pd_cpu = (c.cpu_l1 - c.cpu_l2).max(Watts::ZERO);
        let pd_mem = (c.mem_l1 - c.mem_l2).max(Watts::ZERO);
        let denom = (pd_cpu + pd_mem).value();
        let percent_cpu = if denom > 0.0 { pd_cpu.value() / denom } else { 0.5 };
        let slack = budget - (c.cpu_l2 + c.mem_l2);
        let cpu = c.cpu_l2 + slack * percent_cpu;
        pbc_trace::cached_counter!(names::COORD_CPU_REGIME_C).incr();
        pbc_trace::cached_gauge!(names::COORD_CPU_SURPLUS_W).set(0.0);
        return Ok(CoordResult {
            alloc: PowerAllocation::new(cpu, budget - cpu),
            status: CoordStatus::Success,
        });
    }
    // Regime D: refuse.
    pbc_trace::cached_counter!(names::COORD_CPU_REJECTED).incr();
    Err(PbcError::BudgetTooSmall {
        requested: budget,
        minimum: c.productive_threshold(),
    })
}

/// The per-application and per-card parameters Algorithm 2 consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCoordParams {
    /// `P_tot_max`: total card power with no cap imposed (the
    /// application's maximum demand). A value close to the hardware
    /// maximum flags the application as compute-intensive.
    pub p_tot_max: Watts,
    /// `P_tot_ref`: total power with memory at the nominal clock and the
    /// SMs at the minimum pairing clock.
    pub p_tot_ref: Watts,
    /// `P_tot_min`: total power with both domains at their lowest clocks.
    pub p_tot_min: Watts,
    /// Card constant: minimum memory-domain power.
    pub p_mem_min: Watts,
    /// Card constant: maximum memory-domain power.
    pub p_mem_max: Watts,
    /// Balance factor for the "in between" case (§5.2 sets γ = 0.5).
    pub gamma: f64,
}

impl GpuCoordParams {
    /// Profile the two application parameters with two solver evaluations
    /// (on real hardware: two short runs), plus the card constants.
    #[must_use = "the profiled parameters carry either the values or the probe failure"]
    pub fn profile(gpu: &GpuSpec, workload: &WorkloadDemand) -> Result<Self> {
        // P_tot_max: the true uncapped demand (the driver clamps any cap
        // to the settable range, so this is computed at top clocks rather
        // than through a capped run).
        let (p_tot_max, _, _) = uncapped_demand(gpu, workload);
        // P_tot_ref: memory nominal, SM at the bottom clock. Emulate by
        // composing directly: lowest SM clock with top memory level.
        let ref_alloc = PowerAllocation::new(gpu.sm.min_power, gpu.mem.max_power());
        let p_tot_ref = match solve_gpu(gpu, workload, ref_alloc) {
            Ok(op) => op.total_power(),
            // A tiny card may reject the probe total; fall back to spec.
            Err(_) => gpu.sm.power_at(0, 0.8) + gpu.mem.max_power(),
        };
        Ok(Self {
            p_tot_max,
            p_tot_ref,
            p_tot_min: gpu.min_power(),
            p_mem_min: gpu.mem.min_power(),
            p_mem_max: gpu.mem.max_power(),
            gamma: 0.5,
        })
    }

    /// §5.2's compute-intensity test: `P_tot_max` close to the hardware
    /// maximum settable cap.
    pub fn is_compute_intensive(&self, gpu: &GpuSpec) -> bool {
        self.p_tot_max >= gpu.max_card_cap * 0.95
    }
}

/// Algorithm 2: category-based heuristic for GPU computing. Returns
/// [`PbcError::BudgetTooSmall`] for budgets the card would reject and
/// [`PbcError::InvalidInput`] for a NaN or infinite budget.
#[must_use = "the decision carries either the allocation or the rejection"]
pub fn coord_gpu(budget: Watts, gpu: &GpuSpec, params: &GpuCoordParams) -> Result<CoordResult> {
    if !budget.value().is_finite() {
        return Err(PbcError::InvalidInput(format!("GPU budget {budget} is not a finite wattage")));
    }
    if budget < gpu.min_card_cap {
        pbc_trace::cached_counter!(names::COORD_GPU_REJECTED).incr();
        return Err(PbcError::BudgetTooSmall {
            requested: budget,
            minimum: gpu.min_card_cap,
        });
    }
    let status = if budget >= params.p_tot_max {
        let surplus = budget - params.p_tot_max;
        pbc_trace::cached_gauge!(names::COORD_GPU_SURPLUS_W).set(surplus.value());
        CoordStatus::Surplus(surplus)
    } else {
        pbc_trace::cached_gauge!(names::COORD_GPU_SURPLUS_W).set(0.0);
        CoordStatus::Success
    };
    let alloc = if params.is_compute_intensive(gpu) {
        // Compute-intensive: minimum memory, everything else to the SMs.
        pbc_trace::cached_counter!(names::COORD_GPU_COMPUTE).incr();
        let mem = params.p_mem_min;
        PowerAllocation::new(budget - mem, mem)
    } else if budget >= params.p_tot_ref {
        // Memory-intensive with enough budget: maximum memory power.
        pbc_trace::cached_counter!(names::COORD_GPU_MEM_FULL).incr();
        let mem = params.p_mem_max;
        PowerAllocation::new(budget - mem, mem)
    } else {
        // In between: balance via γ.
        pbc_trace::cached_counter!(names::COORD_GPU_BALANCED).incr();
        let slack = (budget - params.p_tot_min).max(Watts::ZERO);
        let mem = (params.p_mem_min + slack * params.gamma).min(params.p_mem_max);
        PowerAllocation::new(budget - mem, mem)
    };
    Ok(CoordResult { alloc, status })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::{ivybridge, titan_v, titan_xp};
    use pbc_platform::{CpuSpec, DramSpec};
    use pbc_workloads::by_name;

    fn criticals(bench: &str) -> (CriticalPowers, CpuSpec, DramSpec) {
        let p = ivybridge();
        let cpu = p.cpu().unwrap().clone();
        let dram = p.dram().unwrap().clone();
        let c = CriticalPowers::probe(&cpu, &dram, &by_name(bench).unwrap().demand);
        (c, cpu, dram)
    }

    #[test]
    fn regime_a_reports_surplus() {
        let (c, _, _) = criticals("sra");
        let r = coord_cpu(Watts::new(300.0), &c).unwrap();
        assert_eq!(r.alloc.proc, c.cpu_l1);
        assert_eq!(r.alloc.mem, c.mem_l1);
        match r.status {
            CoordStatus::Surplus(s) => {
                assert!((s.value() - (300.0 - c.max_demand().value())).abs() < 1e-9)
            }
            _ => panic!("expected surplus"),
        }
    }

    #[test]
    fn regime_b_prioritizes_memory() {
        let (c, _, _) = criticals("sra");
        // Between L2c+L1m and L1c+L1m.
        let budget = c.cpu_l2 + c.mem_l1 + Watts::new(10.0);
        assert!(budget < c.max_demand());
        let r = coord_cpu(budget, &c).unwrap();
        assert_eq!(r.alloc.mem, c.mem_l1, "memory gets its full demand");
        assert_eq!(r.status, CoordStatus::Success);
        assert!((r.alloc.total().value() - budget.value()).abs() < 1e-9);
        // CPU lands inside its P-state range.
        assert!(r.alloc.proc >= c.cpu_l2 && r.alloc.proc <= c.cpu_l1);
    }

    #[test]
    fn regime_c_splits_proportionally() {
        let (c, _, _) = criticals("sra");
        let budget = c.cpu_l2 + c.mem_l2 + Watts::new(8.0);
        assert!(budget < c.cpu_l2 + c.mem_l1);
        let r = coord_cpu(budget, &c).unwrap();
        assert!((r.alloc.total().value() - budget.value()).abs() < 1e-9);
        // Both sit between their L2 and L1.
        assert!(r.alloc.proc >= c.cpu_l2 - Watts::new(1e-9));
        assert!(r.alloc.proc <= c.cpu_l1);
        assert!(r.alloc.mem >= c.mem_l2 - Watts::new(1e-9));
        assert!(r.alloc.mem <= c.mem_l1);
    }

    #[test]
    fn regime_d_rejects() {
        let (c, _, _) = criticals("sra");
        let err = coord_cpu(c.productive_threshold() - Watts::new(5.0), &c).unwrap_err();
        assert!(matches!(err, PbcError::BudgetTooSmall { .. }));
    }

    #[test]
    fn regimes_partition_the_budget_axis() {
        // Every budget above the threshold gets exactly one allocation,
        // and allocations never exceed the budget.
        let (c, _, _) = criticals("dgemm");
        let mut b = c.productive_threshold().value() + 0.5;
        while b < 350.0 {
            let r = coord_cpu(Watts::new(b), &c).unwrap();
            assert!(r.alloc.total().value() <= b + 1e-9, "budget {b}");
            assert!(r.alloc.is_valid());
            b += 1.0;
        }
    }

    #[test]
    fn gpu_params_profile_sanity() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let sgemm = GpuCoordParams::profile(&gpu, &by_name("sgemm").unwrap().demand).unwrap();
        let stream =
            GpuCoordParams::profile(&gpu, &by_name("gpu-stream").unwrap().demand).unwrap();
        // SGEMM demands ~the hardware max; STREAM much less.
        assert!(sgemm.is_compute_intensive(&gpu), "{:?}", sgemm.p_tot_max);
        assert!(!stream.is_compute_intensive(&gpu), "{:?}", stream.p_tot_max);
        assert!(sgemm.p_tot_max > stream.p_tot_max);
        // Reference point is below max demand for compute-bound kernels.
        assert!(sgemm.p_tot_ref < sgemm.p_tot_max);
    }

    #[test]
    fn gpu_compute_intensive_gets_lean_memory() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let params = GpuCoordParams::profile(&gpu, &by_name("sgemm").unwrap().demand).unwrap();
        let r = coord_gpu(Watts::new(200.0), &gpu, &params).unwrap();
        assert_eq!(r.alloc.mem, params.p_mem_min);
        assert!((r.alloc.total().value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_memory_intensive_gets_full_memory_when_affordable() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let params =
            GpuCoordParams::profile(&gpu, &by_name("gpu-stream").unwrap().demand).unwrap();
        let budget = params.p_tot_ref + Watts::new(20.0);
        let r = coord_gpu(budget, &gpu, &params).unwrap();
        assert_eq!(r.alloc.mem, params.p_mem_max);
    }

    #[test]
    fn gpu_small_budget_balances() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let params =
            GpuCoordParams::profile(&gpu, &by_name("gpu-stream").unwrap().demand).unwrap();
        let budget = Watts::new(130.0);
        assert!(budget < params.p_tot_ref);
        let r = coord_gpu(budget, &gpu, &params).unwrap();
        assert!(r.alloc.mem > params.p_mem_min);
        assert!(r.alloc.mem < params.p_mem_max);
    }

    #[test]
    fn gpu_rejects_sub_minimum_budgets() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let params = GpuCoordParams::profile(&gpu, &by_name("sgemm").unwrap().demand).unwrap();
        assert!(matches!(
            coord_gpu(Watts::new(100.0), &gpu, &params),
            Err(PbcError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn gpu_refuses_non_finite_budgets() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let params = GpuCoordParams::profile(&gpu, &by_name("sgemm").unwrap().demand).unwrap();
        for b in [f64::NAN, f64::INFINITY] {
            let r = coord_gpu(Watts::new(b), &gpu, &params);
            assert!(matches!(r, Err(PbcError::InvalidInput(_))), "{b}: {r:?}");
        }
    }

    #[test]
    fn gpu_surplus_hint() {
        let gpu = titan_v().gpu().unwrap().clone();
        let params = GpuCoordParams::profile(&gpu, &by_name("minife").unwrap().demand).unwrap();
        let r = coord_gpu(Watts::new(250.0), &gpu, &params).unwrap();
        assert!(matches!(r.status, CoordStatus::Surplus(_)));
    }
}
