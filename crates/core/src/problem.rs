//! The power-bounded-computing problem statement (§2.2).

use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::WorkloadDemand;
use pbc_types::{check_budget, PbcError, Result, Watts};

/// A bound instance of the §2.2 problem: one workload on one machine
/// under one total power bound.
///
/// The component structure follows the paper's simplifying assumptions
/// (a)–(c): all processing units are one aggregated component, all memory
/// modules the other, each receiving a single cap.
#[derive(Debug, Clone)]
pub struct PowerBoundedProblem {
    /// The machine `M`.
    pub platform: Platform,
    /// The workload `W`.
    pub workload: WorkloadDemand,
    /// The total bound `P_b`.
    pub budget: Watts,
}

impl PowerBoundedProblem {
    /// Create a problem instance, validating all three ingredients.
    pub fn new(platform: Platform, workload: WorkloadDemand, budget: Watts) -> Result<Self> {
        platform.validate().map_err(PbcError::InvalidInput)?;
        workload.validate().map_err(PbcError::InvalidInput)?;
        check_budget("budget", budget.value())?;
        Ok(Self {
            platform,
            workload,
            budget,
        })
    }

    /// The feasible range of processor caps on this machine: from the
    /// hardware floor to the component's maximum conceivable draw.
    pub fn proc_cap_range(&self) -> (Watts, Watts) {
        match &self.platform.spec {
            NodeSpec::Cpu { cpu, .. } => (
                // Sweeps deliberately start below the enforceable floor so
                // scenario VI (unenforceable caps) is observable, as in
                // the paper's Fig. 3 which allocates down to 40 W.
                cpu.min_active_power - Watts::new(8.0),
                // Extend past the max demand: the paper's sweeps allocate
                // processor power well beyond what the workload can draw
                // (Fig. 3 runs P_cpu up to 212 W), which is what exposes
                // scenarios III and V on the memory side.
                cpu.max_power(1.0) + Watts::new(50.0),
            ),
            // On a card the "processor allocation" is just the non-memory
            // share of the cap; the reclaiming governor spends whatever the
            // memory domain leaves, so the axis runs to the max settable
            // cap (otherwise large budgets with a small-memory card — the
            // Titan V — would have no representable split at all).
            NodeSpec::Gpu(g) => (g.sm.min_power, g.max_card_cap),
        }
    }

    /// The feasible range of memory caps on this machine.
    pub fn mem_cap_range(&self) -> (Watts, Watts) {
        match &self.platform.spec {
            NodeSpec::Cpu { dram, .. } => (
                dram.background_power - Watts::new(12.0),
                // Like the processor axis, allow over-allocation well past
                // any demand (Fig. 3 sweeps P_mem up to 200 W) so the
                // low-P_cpu scenarios IV and VI stay inside the space.
                dram.max_power(2.0) + Watts::new(50.0),
            ),
            NodeSpec::Gpu(g) => (g.mem.min_power(), g.mem.max_power()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::ivybridge;
    use pbc_powersim::{PhaseDemand, WorkloadDemand};

    #[test]
    fn constructs_and_validates() {
        let p = PowerBoundedProblem::new(
            ivybridge(),
            WorkloadDemand::single("w", PhaseDemand::stream_bound()),
            Watts::new(208.0),
        )
        .unwrap();
        let (lo, hi) = p.proc_cap_range();
        assert!(lo < hi);
        let (mlo, mhi) = p.mem_cap_range();
        assert!(mlo < mhi);
    }

    #[test]
    fn rejects_nonpositive_budget() {
        assert!(PowerBoundedProblem::new(
            ivybridge(),
            WorkloadDemand::single("w", PhaseDemand::stream_bound()),
            Watts::new(0.0),
        )
        .is_err());
    }

    #[test]
    fn rejects_empty_workload() {
        assert!(PowerBoundedProblem::new(
            ivybridge(),
            WorkloadDemand::phased("w", vec![]),
            Watts::new(100.0),
        )
        .is_err());
    }
}
