//! The seven critical power values of §5.1.
//!
//! These application-specific values mark the boundaries between the
//! paper's allocation scenarios — "the transition points at which RAPL
//! switches from one power-saving mechanism to another":
//!
//! * `P_cpu,L1` — package power at the highest P-state (max demand).
//! * `P_cpu,L2` — package power at the lowest P-state.
//! * `P_cpu,L3` — package power at the lightest clock-throttle level.
//! * `P_cpu,L4` — hardware minimum while executing (application-independent).
//! * `P_mem,L1` — DRAM power with everything at the highest state.
//! * `P_mem,L2` — DRAM power when the processor sits at `P_cpu,L3`.
//! * `P_mem,L3` — hardware minimum DRAM power (application-independent).
//!
//! [`CriticalPowers::probe`] obtains them with a handful of targeted
//! solver evaluations (on real hardware: a few short capped runs). This
//! is the paper's "lightweight application profiling".

use pbc_platform::{CpuSpec, DramSpec};
use pbc_powersim::{solve_cpu, MechanismState, SolveMemo, WorkloadDemand};
use pbc_types::{PowerAllocation, Watts};

/// The seven §5.1 critical power values for one workload on one host
/// platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPowers {
    /// `P_cpu,L1`: maximum processor power demand.
    pub cpu_l1: Watts,
    /// `P_cpu,L2`: processor power at the lowest P-state.
    pub cpu_l2: Watts,
    /// `P_cpu,L3`: processor power at the lightest T-state.
    pub cpu_l3: Watts,
    /// `P_cpu,L4`: hardware floor while executing.
    pub cpu_l4: Watts,
    /// `P_mem,L1`: maximum DRAM power demand.
    pub mem_l1: Watts,
    /// `P_mem,L2`: DRAM power when the processor is at `P_cpu,L3`.
    pub mem_l2: Watts,
    /// `P_mem,L3`: hardware DRAM floor.
    pub mem_l3: Watts,
}

impl CriticalPowers {
    /// Obtain the values by probing the solver at targeted caps — the
    /// lightweight-profiling path (a handful of evaluations; no sweep).
    ///
    /// ```
    /// use pbc_core::CriticalPowers;
    /// use pbc_platform::presets::ivybridge;
    ///
    /// let node = ivybridge();
    /// let sra = pbc_workloads::by_name("sra").unwrap();
    /// let c = CriticalPowers::probe(node.cpu().unwrap(), node.dram().unwrap(), &sra.demand);
    /// assert!(c.is_ordered());
    /// // The IvyBridge hardware floor from the paper.
    /// assert_eq!(c.cpu_l4.value(), 48.0);
    /// ```
    pub fn probe(cpu: &CpuSpec, dram: &DramSpec, workload: &WorkloadDemand) -> Self {
        let generous_mem = generous_mem(dram);
        let (cpu_l1, mem_l1) = peak_demand(cpu, dram, workload);

        // The L2/L3 searches walk the cap down watt by watt, re-solving
        // the full workload each step. They solve through one memo owned
        // by this probe, which computes the workload's nominal time once
        // for both walks instead of once per step.
        let memo = SolveMemo::for_cpu(cpu, dram, workload);

        // L2: actual power once the solver reports the lowest P-state with
        // full duty. Walk the cap down until the mechanism crosses over.
        let mut cpu_l2 = cpu_l1;
        let mut cap = cpu_l1;
        while cap > cpu.min_active_power {
            let Ok(op) = memo.solve(PowerAllocation::new(cap, generous_mem)) else {
                break;
            };
            if let MechanismState::Cpu(st) = op.mechanism {
                if st.pstate == 0 && st.duty >= 1.0 {
                    cpu_l2 = op.proc_power;
                    break;
                }
                if st.duty < 1.0 {
                    // Stepped over the boundary (coarse grid): the last
                    // P-state power is the better estimate; keep previous.
                    break;
                }
                cpu_l2 = op.proc_power;
            }
            cap -= Watts::new(1.0);
        }

        // L3: highest T-state power (lowest P-state, lightest duty).
        let mut cpu_l3 = cpu_l2;
        let mut mem_l2 = mem_l1;
        let mut cap = cpu_l2;
        while cap > cpu.min_active_power - Watts::new(2.0) {
            let Ok(op) = memo.solve(PowerAllocation::new(cap, generous_mem)) else {
                break;
            };
            if let MechanismState::Cpu(st) = op.mechanism {
                if st.duty < 1.0 {
                    cpu_l3 = op.proc_power;
                    mem_l2 = op.mem_power;
                    break;
                }
            }
            cap -= Watts::new(1.0);
        }

        Self {
            cpu_l1,
            cpu_l2,
            cpu_l3,
            cpu_l4: cpu.min_active_power,
            mem_l1,
            mem_l2,
            mem_l3: dram.background_power,
        }
    }

    /// The §5.1 productive threshold: budgets below
    /// `P_cpu,L2 + P_mem,L2` can only run throttled and should be
    /// rejected.
    pub fn productive_threshold(&self) -> Watts {
        self.cpu_l2 + self.mem_l2
    }

    /// The maximum useful budget: `P_cpu,L1 + P_mem,L1`; anything above is
    /// surplus to reclaim.
    pub fn max_demand(&self) -> Watts {
        self.cpu_l1 + self.mem_l1
    }

    /// Sanity: the ladder must be ordered `L1 ≥ L2 ≥ L3 ≥ L4` (CPU) and
    /// `L1 ≥ L2 ≥ L3` (DRAM).
    pub fn is_ordered(&self) -> bool {
        self.cpu_l1 >= self.cpu_l2
            && self.cpu_l2 >= self.cpu_l3
            && self.cpu_l3 >= self.cpu_l4
            && self.mem_l1 >= self.mem_l2
            && self.mem_l2 >= self.mem_l3
    }
}

/// The DRAM cap that never binds: above the hungriest pattern's draw.
fn generous_mem(dram: &DramSpec) -> Watts {
    dram.max_power(4.0) + Watts::new(20.0)
}

/// `(P_cpu,L1, P_mem,L1)`: the unconstrained *peak* demands. For
/// multi-phase workloads the cap must accommodate the hungriest phase
/// (a cap at the time-averaged draw would throttle that phase), so each
/// phase is solved separately and the maxima are taken.
///
/// The memory value additionally carries one throttle step of margin:
/// DRAM capping quantizes the bandwidth allowance *down*, so a cap
/// exactly at the measured draw clips performance. This is the paper's
/// own §6.2 guidance — "an ideal power budget would be slightly above
/// the upper bound to ensure a robust power coordination" — and it is
/// why the paper's scenario I begins at P_mem = 120 W when RandomAccess
/// actually draws 116 W.
pub(crate) fn peak_demand(
    cpu: &CpuSpec,
    dram: &DramSpec,
    workload: &WorkloadDemand,
) -> (Watts, Watts) {
    let generous = PowerAllocation::new(cpu.max_power(1.0) + Watts::new(20.0), generous_mem(dram));
    let step = dram.max_bandwidth / dram.throttle_levels.max(1) as f64;
    let mut cpu_l1 = Watts::ZERO;
    let mut mem_l1 = Watts::ZERO;
    for (_, phase) in &workload.phases {
        let single = WorkloadDemand::single(workload.name.clone(), *phase);
        let free = solve_cpu(cpu, dram, &single, generous);
        cpu_l1 = cpu_l1.max(free.proc_power);
        let steps_needed = (free.bandwidth.value() / step.value()).ceil() + 1.0;
        mem_l1 = mem_l1.max(dram.power_at(step * steps_needed, phase.pattern_cost));
    }
    (cpu_l1, mem_l1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::ivybridge;
    use pbc_workloads::by_name;

    fn node() -> (CpuSpec, DramSpec) {
        let p = ivybridge();
        (p.cpu().unwrap().clone(), p.dram().unwrap().clone())
    }

    #[test]
    fn probe_is_ordered_for_all_cpu_benchmarks() {
        let (cpu, dram) = node();
        for b in pbc_workloads::cpu_suite() {
            let c = CriticalPowers::probe(&cpu, &dram, &b.demand);
            assert!(c.is_ordered(), "{}: {c:?}", b.id);
            assert_eq!(c.cpu_l4, cpu.min_active_power);
            assert_eq!(c.mem_l3, dram.background_power);
        }
    }

    #[test]
    fn sra_criticals_match_paper_anchors() {
        let (cpu, dram) = node();
        let sra = by_name("sra").unwrap();
        let c = CriticalPowers::probe(&cpu, &dram, &sra.demand);
        // Paper: max SRA demand 112 W CPU / 116 W DRAM; scenario II begins
        // near a 66-68 W CPU cap (our L2); floor 48 W.
        assert!((c.cpu_l1.value() - 112.0).abs() < 8.0, "L1 {}", c.cpu_l1);
        assert!((c.mem_l1.value() - 116.0).abs() < 8.0, "mem L1 {}", c.mem_l1);
        assert!((c.cpu_l2.value() - 67.0).abs() < 8.0, "L2 {}", c.cpu_l2);
        assert_eq!(c.cpu_l4.value(), 48.0);
    }

    #[test]
    fn dgemm_criticals_span_wider_than_sra() {
        // DGEMM's activity is higher, so its whole CPU ladder sits higher.
        let (cpu, dram) = node();
        let sra = CriticalPowers::probe(&cpu, &dram, &by_name("sra").unwrap().demand);
        let dgemm = CriticalPowers::probe(&cpu, &dram, &by_name("dgemm").unwrap().demand);
        assert!(dgemm.cpu_l1 > sra.cpu_l1);
        assert!(dgemm.cpu_l2 > sra.cpu_l2);
        // But DRAM demand is lower for DGEMM.
        assert!(dgemm.mem_l1 < sra.mem_l1);
    }

    #[test]
    fn thresholds() {
        let (cpu, dram) = node();
        let c = CriticalPowers::probe(&cpu, &dram, &by_name("stream").unwrap().demand);
        assert!(c.productive_threshold() < c.max_demand());
        assert!(c.productive_threshold() > c.cpu_l4 + c.mem_l3);
    }
}
