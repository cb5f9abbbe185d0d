//! Cross-component power allocations.
//!
//! The paper's optimization variable is the allocation tuple
//! `α = (P_cpu, P_mem)` (or `(P_SM, P_mem)` on a GPU): how a total node
//! budget `P_b` is split between the processing component and the memory
//! component. [`PowerAllocation`] is that tuple; [`AllocationSpace`]
//! enumerates the discrete space `A` that sweeps and oracles explore.

use crate::units::Watts;
use std::fmt;

/// The cross-component allocation tuple `α = (P_proc, P_mem)`.
///
/// `proc` is the power cap given to the aggregated processing component
/// (CPU packages or GPU SMs); `mem` is the cap given to the aggregated
/// memory component (DRAM modules or GPU global memory). The semantics of
/// a cap — what the component actually *does* when bounded — live in
/// `pbc-powersim`; this type is just the decision variable.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PowerAllocation {
    /// Cap on the processing component (CPU package(s) / GPU SMs).
    pub proc: Watts,
    /// Cap on the memory component (DRAM / GPU global memory).
    pub mem: Watts,
}

impl PowerAllocation {
    /// Create an allocation from processor and memory caps.
    pub fn new(proc: Watts, mem: Watts) -> Self {
        Self { proc, mem }
    }

    /// Split a total budget at a given processor fraction `f ∈ [0, 1]`:
    /// `proc = f·total`, `mem = (1-f)·total`.
    pub fn split(total: Watts, proc_fraction: f64) -> Self {
        let f = proc_fraction.clamp(0.0, 1.0);
        Self {
            proc: total * f,
            mem: total * (1.0 - f),
        }
    }

    /// Sum of both caps.
    pub fn total(&self) -> Watts {
        self.proc + self.mem
    }

    /// Fraction of the total cap assigned to the processor.
    pub fn proc_fraction(&self) -> f64 {
        if self.total().value() <= 0.0 {
            0.5
        } else {
            self.proc / self.total()
        }
    }

    /// Move `delta` watts from the memory cap to the processor cap
    /// (negative `delta` shifts the other way). Caps are floored at zero;
    /// the shifted amount is limited by what the donor component has.
    pub fn shift_to_proc(&self, delta: Watts) -> Self {
        let d = if delta.value() >= 0.0 {
            delta.min(self.mem)
        } else {
            -((-delta).min(self.proc))
        };
        Self {
            proc: self.proc + d,
            mem: self.mem - d,
        }
    }

    /// Are both caps finite and non-negative?
    pub fn is_valid(&self) -> bool {
        self.proc.is_valid() && self.mem.is_valid()
    }
}

impl fmt::Display for PowerAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(P_proc = {:.1}, P_mem = {:.1})",
            self.proc.value(),
            self.mem.value()
        )
    }
}

/// The discrete allocation space `A` for a fixed total budget: all splits
/// `(P_proc, P_mem)` with `P_proc + P_mem = P_b`, `P_proc ∈ [proc_min,
/// proc_max]`, `P_mem ∈ [mem_min, mem_max]`, stepped by `step` watts on the
/// processor axis.
///
/// Mirrors the paper's experimental sweeps, which used a fixed power
/// stepping (§6.3 notes the oracle "uses a certain power stepping").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationSpace {
    /// Total budget being split.
    pub budget: Watts,
    /// Minimum processor cap considered.
    pub proc_min: Watts,
    /// Maximum processor cap considered.
    pub proc_max: Watts,
    /// Minimum memory cap considered.
    pub mem_min: Watts,
    /// Maximum memory cap considered.
    pub mem_max: Watts,
    /// Sweep stepping on the processor axis, in watts.
    pub step: Watts,
}

impl AllocationSpace {
    /// Build a space for budget `P_b` with component bounds and a step.
    pub fn new(
        budget: Watts,
        proc_range: (Watts, Watts),
        mem_range: (Watts, Watts),
        step: Watts,
    ) -> Self {
        Self {
            budget,
            proc_min: proc_range.0,
            proc_max: proc_range.1,
            mem_min: mem_range.0,
            mem_max: mem_range.1,
            step,
        }
    }

    /// Iterate over every feasible allocation in the space. An allocation
    /// is feasible when both caps are inside their component ranges; the
    /// memory cap is derived as `P_b - P_proc` so every point saturates the
    /// budget exactly (the paper's sweeps do the same — capping *under*
    /// budget is never advantageous for the components modeled here).
    pub fn iter(&self) -> impl Iterator<Item = PowerAllocation> + '_ {
        let step = self.step.value().max(1e-3);
        // Feasibility on the proc axis also requires the induced mem cap to
        // lie inside the memory range.
        let lo = self.proc_min.value().max(self.budget.value() - self.mem_max.value());
        let hi = self.proc_max.value().min(self.budget.value() - self.mem_min.value());
        let n = if hi >= lo {
            ((hi - lo) / step).floor() as usize + 1
        } else {
            0
        };
        (0..n).map(move |i| {
            let proc = lo + i as f64 * step;
            // `proc <= hi <= budget - mem_min`, enforced by the `hi >= lo`
            // feasibility gate above, so the remainder stays in range.
            // pbc-lint: allow(unchecked-budget-arith)
            PowerAllocation::new(Watts::new(proc), Watts::new(self.budget.value() - proc))
        })
    }

    /// Number of allocations [`Self::iter`] will yield.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no allocation is feasible (budget too small or too large
    /// for the component ranges).
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_fractions() {
        let a = PowerAllocation::split(Watts::new(200.0), 0.6);
        assert!((a.proc.value() - 120.0).abs() < 1e-9);
        assert!((a.mem.value() - 80.0).abs() < 1e-9);
        assert!((a.proc_fraction() - 0.6).abs() < 1e-12);
        // Out-of-range fractions clamp.
        assert_eq!(PowerAllocation::split(Watts::new(100.0), 1.5).proc.value(), 100.0);
        assert_eq!(PowerAllocation::split(Watts::new(100.0), -0.5).proc.value(), 0.0);
    }

    #[test]
    fn shift_preserves_total() {
        let a = PowerAllocation::new(Watts::new(108.0), Watts::new(116.0));
        let shifted = a.shift_to_proc(Watts::new(24.0));
        assert!((shifted.total().value() - a.total().value()).abs() < 1e-9);
        assert!((shifted.proc.value() - 132.0).abs() < 1e-9);
        let back = shifted.shift_to_proc(Watts::new(-24.0));
        assert!((back.proc.value() - 108.0).abs() < 1e-9);
    }

    #[test]
    fn shift_saturates_at_zero() {
        let a = PowerAllocation::new(Watts::new(10.0), Watts::new(20.0));
        let s = a.shift_to_proc(Watts::new(100.0));
        assert_eq!(s.mem.value(), 0.0);
        assert_eq!(s.proc.value(), 30.0);
        let s2 = a.shift_to_proc(Watts::new(-100.0));
        assert_eq!(s2.proc.value(), 0.0);
        assert_eq!(s2.mem.value(), 30.0);
    }

    #[test]
    fn space_iteration_saturates_budget() {
        let space = AllocationSpace::new(
            Watts::new(240.0),
            (Watts::new(40.0), Watts::new(212.0)),
            (Watts::new(28.0), Watts::new(200.0)),
            Watts::new(4.0),
        );
        let allocs: Vec<_> = space.iter().collect();
        assert!(!allocs.is_empty());
        for a in &allocs {
            assert!((a.total().value() - 240.0).abs() < 1e-9);
            assert!(a.proc.value() >= 40.0 - 1e-9 && a.proc.value() <= 212.0 + 1e-9);
            assert!(a.mem.value() >= 28.0 - 1e-9 && a.mem.value() <= 200.0 + 1e-9);
        }
        assert_eq!(space.len(), allocs.len());
    }

    #[test]
    fn space_respects_mem_bounds_via_proc_axis() {
        // Budget 100, mem range [30, 60] -> proc must lie in [40, 70].
        let space = AllocationSpace::new(
            Watts::new(100.0),
            (Watts::new(0.0), Watts::new(1000.0)),
            (Watts::new(30.0), Watts::new(60.0)),
            Watts::new(10.0),
        );
        let procs: Vec<f64> = space.iter().map(|a| a.proc.value()).collect();
        assert_eq!(procs, vec![40.0, 50.0, 60.0, 70.0]);
    }

    #[test]
    fn infeasible_space_is_empty() {
        // Budget smaller than the two minimums combined.
        let space = AllocationSpace::new(
            Watts::new(50.0),
            (Watts::new(48.0), Watts::new(212.0)),
            (Watts::new(28.0), Watts::new(200.0)),
            Watts::new(4.0),
        );
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
    }

    #[test]
    fn degenerate_single_point() {
        let space = AllocationSpace::new(
            Watts::new(100.0),
            (Watts::new(70.0), Watts::new(70.0)),
            (Watts::new(0.0), Watts::new(200.0)),
            Watts::new(4.0),
        );
        let allocs: Vec<_> = space.iter().collect();
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].proc.value(), 70.0);
        assert_eq!(allocs[0].mem.value(), 30.0);
    }
}
