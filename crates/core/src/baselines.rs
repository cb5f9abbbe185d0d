//! Allocation policies: COORD and the baselines §6.3 compares against.

use crate::coord::{coord_cpu, coord_gpu, GpuCoordParams};
use crate::critical::CriticalPowers;
use crate::problem::PowerBoundedProblem;
use crate::profile::SweepPoint;
use crate::sweep::sweep_curve;
use pbc_platform::GpuSpec;
use pbc_types::{PbcError, PowerAllocation, Result, Watts};
use std::fmt;

/// The allocation policies evaluated in the paper's Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// The paper's COORD heuristic (Algorithm 1 / 2).
    Coord,
    /// The memory-first strategy of the ICPP'16 paper [19]: warrant the
    /// memory's maximum demand, give the CPU whatever remains.
    MemoryFirst,
    /// The mirror image: warrant the processor first.
    CpuFirst,
    /// A naive 50/50 split.
    EvenSplit,
    /// Split proportionally to the components' maximum demands.
    Proportional,
    /// The Nvidia default capping behaviour (§6.3): memory always at the
    /// nominal clock regardless of budget or application; GPU only.
    NvidiaDefault,
}

impl Baseline {
    /// All CPU-applicable policies.
    pub const CPU_SET: [Baseline; 5] = [
        Baseline::Coord,
        Baseline::MemoryFirst,
        Baseline::CpuFirst,
        Baseline::EvenSplit,
        Baseline::Proportional,
    ];

    /// All GPU-applicable policies.
    pub const GPU_SET: [Baseline; 2] = [Baseline::Coord, Baseline::NvidiaDefault];
}

impl fmt::Display for Baseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Baseline::Coord => "COORD",
            Baseline::MemoryFirst => "memory-first",
            Baseline::CpuFirst => "cpu-first",
            Baseline::EvenSplit => "even-split",
            Baseline::Proportional => "proportional",
            Baseline::NvidiaDefault => "nvidia-default",
        };
        f.write_str(s)
    }
}

/// A policy that turns a budget into an allocation, given whatever
/// profiling inputs it needs.
pub trait AllocationPolicy {
    /// Decide the allocation for a budget.
    fn allocate(&self, budget: Watts) -> Result<PowerAllocation>;
    /// Display name for tables.
    fn name(&self) -> String;
}

/// A [`Baseline`] bound to its CPU profiling inputs.
pub struct CpuPolicy<'a> {
    /// Which policy.
    pub baseline: Baseline,
    /// The workload's critical power values.
    pub criticals: &'a CriticalPowers,
}

impl AllocationPolicy for CpuPolicy<'_> {
    fn allocate(&self, budget: Watts) -> Result<PowerAllocation> {
        let c = self.criticals;
        match self.baseline {
            Baseline::Coord => Ok(coord_cpu(budget, c)?.alloc),
            Baseline::MemoryFirst => {
                // Conservatively warrant memory, CPU takes the rest (but
                // never below its floor).
                let mem = c.mem_l1.min(budget - c.cpu_l4);
                if mem < c.mem_l3 {
                    return Err(PbcError::BudgetTooSmall {
                        requested: budget,
                        minimum: c.cpu_l4 + c.mem_l3,
                    });
                }
                Ok(PowerAllocation::new(budget - mem, mem))
            }
            Baseline::CpuFirst => {
                let cpu = c.cpu_l1.min(budget - c.mem_l3);
                if cpu < c.cpu_l4 {
                    return Err(PbcError::BudgetTooSmall {
                        requested: budget,
                        minimum: c.cpu_l4 + c.mem_l3,
                    });
                }
                Ok(PowerAllocation::new(cpu, budget - cpu))
            }
            Baseline::EvenSplit => Ok(PowerAllocation::split(budget, 0.5)),
            Baseline::Proportional => {
                let denom = c.max_demand().value();
                let f = if denom > 0.0 {
                    c.cpu_l1.value() / denom
                } else {
                    0.5
                };
                Ok(PowerAllocation::split(budget, f))
            }
            Baseline::NvidiaDefault => Err(PbcError::InvalidInput(
                "nvidia-default is a GPU-only policy".into(),
            )),
        }
    }

    fn name(&self) -> String {
        self.baseline.to_string()
    }
}

/// A [`Baseline`] bound to its GPU profiling inputs.
pub struct GpuPolicy<'a> {
    /// Which policy.
    pub baseline: Baseline,
    /// The card.
    pub gpu: &'a GpuSpec,
    /// Algorithm-2 parameters.
    pub params: &'a GpuCoordParams,
}

impl AllocationPolicy for GpuPolicy<'_> {
    fn allocate(&self, budget: Watts) -> Result<PowerAllocation> {
        match self.baseline {
            Baseline::Coord => Ok(coord_gpu(budget, self.gpu, self.params)?.alloc),
            Baseline::NvidiaDefault => {
                // Memory pinned at the nominal clock whatever the budget
                // or application — §6.3: "it always runs memory at the
                // nominal (the highest stable) speed".
                let mem = self.gpu.mem.max_power();
                // Deliberately unfloored: this models the vendor default,
                // which does not coordinate — starving the SMs under a
                // tight budget is exactly the behavior being measured.
                // pbc-lint: allow(unchecked-budget-arith)
                Ok(PowerAllocation::new(budget - mem, mem))
            }
            Baseline::EvenSplit => Ok(PowerAllocation::split(budget, 0.5)),
            _ => Err(PbcError::InvalidInput(format!(
                "{} is not a GPU policy",
                self.baseline
            ))),
        }
    }

    fn name(&self) -> String {
        self.baseline.to_string()
    }
}

/// The oracle: best allocation found by an exhaustive sweep at the given
/// stepping — the "best identified from experiments" of Fig. 9.
///
/// Runs through [`sweep_curve`], which computes the nominal reference
/// time once per call instead of once per point and solves each
/// canonical solver key once. Calls share nothing: each one solves its
/// own budget's grid.
#[must_use = "the oracle result carries either the best point or the solver failure"]
pub fn oracle(problem: &PowerBoundedProblem, step: Watts) -> Result<SweepPoint> {
    let profile = sweep_curve(problem, std::slice::from_ref(&problem.budget), step)?
        .pop()
        .ok_or_else(|| PbcError::BudgetTooSmall {
            requested: problem.budget,
            minimum: problem.platform.min_node_power(),
        })?;
    profile.best().copied().ok_or_else(|| {
        PbcError::BudgetTooSmall {
            requested: problem.budget,
            minimum: problem.platform.min_node_power(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::DEFAULT_STEP;
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_workloads::by_name;

    fn cpu_fixture(bench: &str) -> CriticalPowers {
        let p = ivybridge();
        CriticalPowers::probe(
            p.cpu().unwrap(),
            p.dram().unwrap(),
            &by_name(bench).unwrap().demand,
        )
    }

    #[test]
    fn all_cpu_policies_respect_the_budget() {
        let c = cpu_fixture("stream");
        for b in Baseline::CPU_SET {
            let policy = CpuPolicy {
                baseline: b,
                criticals: &c,
            };
            for budget in [150.0, 180.0, 220.0, 260.0] {
                if let Ok(alloc) = policy.allocate(Watts::new(budget)) {
                    assert!(
                        alloc.total().value() <= budget + 1e-9,
                        "{b} at {budget}: {alloc}"
                    );
                    assert!(alloc.is_valid());
                }
            }
        }
    }

    #[test]
    fn memory_first_warrants_memory() {
        let c = cpu_fixture("sra");
        let policy = CpuPolicy {
            baseline: Baseline::MemoryFirst,
            criticals: &c,
        };
        let alloc = policy.allocate(Watts::new(200.0)).unwrap();
        assert_eq!(alloc.mem, c.mem_l1);
    }

    #[test]
    fn nvidia_default_pins_memory_at_nominal() {
        let p = titan_xp();
        let gpu = p.gpu().unwrap();
        let params = GpuCoordParams::profile(gpu, &by_name("sgemm").unwrap().demand).unwrap();
        let policy = GpuPolicy {
            baseline: Baseline::NvidiaDefault,
            gpu,
            params: &params,
        };
        for budget in [140.0, 200.0, 280.0] {
            let alloc = policy.allocate(Watts::new(budget)).unwrap();
            assert_eq!(alloc.mem, gpu.mem.max_power());
        }
    }

    #[test]
    fn oracle_finds_a_point() {
        let problem = PowerBoundedProblem::new(
            ivybridge(),
            by_name("sra").unwrap().demand,
            Watts::new(240.0),
        )
        .unwrap();
        let best = oracle(&problem, DEFAULT_STEP).unwrap();
        assert!(best.op.perf_rel > 0.9, "oracle perf {}", best.op.perf_rel);
    }

    #[test]
    fn oracle_rejects_unschedulable_gpu_budget() {
        let problem = PowerBoundedProblem::new(
            titan_xp(),
            by_name("sgemm").unwrap().demand,
            Watts::new(80.0),
        )
        .unwrap();
        assert!(oracle(&problem, DEFAULT_STEP).is_err());
    }

    #[test]
    fn cpu_only_policy_errors_on_gpu_only_baseline() {
        let c = cpu_fixture("stream");
        let policy = CpuPolicy {
            baseline: Baseline::NvidiaDefault,
            criticals: &c,
        };
        assert!(policy.allocate(Watts::new(200.0)).is_err());
    }
}
