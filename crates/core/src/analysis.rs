//! Curve and balance analysis: `perf_max ~ P_b` (§3.1), the critical
//! component and Table 1 (§3.4), and the compute/memory balance view of
//! Fig. 5.

use crate::critical::CriticalPowers;
use crate::problem::PowerBoundedProblem;
use crate::scenario::{classify_cpu_point, CpuScenario};
use crate::sweep::{sweep_budget, sweep_curve};
use pbc_powersim::SolveMemo;
use pbc_types::{Domain, PowerAllocation, Result, Watts};

/// One point of a `perf_max ~ P_b` curve (Fig. 2 / Fig. 6).
///
/// This is the *exact* characterization: every point is a full-sweep
/// optimum. For the steady-state serving path that answers the same
/// question by interpolation, see [`crate::fastpath::CurveTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// The total budget.
    pub budget: Watts,
    /// Best achievable relative performance at this budget.
    pub perf_max: f64,
    /// The allocation achieving it.
    pub best_alloc: PowerAllocation,
    /// Actual total power drawn at the optimum.
    pub actual_power: Watts,
}

impl CurvePoint {
    /// The best point of a swept profile as a curve sample, or `None`
    /// when no allocation was feasible at the profile's budget.
    #[must_use]
    pub fn from_profile(profile: &crate::profile::SweepProfile) -> Option<Self> {
        profile.best().map(|best| CurvePoint {
            budget: profile.budget,
            perf_max: best.op.perf_rel,
            best_alloc: best.alloc,
            actual_power: best.op.total_power(),
        })
    }
}

/// Sweep a range of budgets and return the upper performance bound at
/// each — the paper's `perf_max ~ P_b` characterization.
///
/// The budgets are swept together through [`sweep_curve`], so the grids
/// share one pooled job and each canonical solve runs once, instead of
/// N independent fork-join sweeps.
#[must_use = "the curve result carries either the points or the solver failure"]
pub fn perf_max_curve(
    problem_template: &PowerBoundedProblem,
    budgets: impl IntoIterator<Item = Watts>,
    step: Watts,
) -> Result<Vec<CurvePoint>> {
    let budgets: Vec<Watts> = budgets.into_iter().collect();
    let profiles = sweep_curve(problem_template, &budgets, step)?;
    Ok(profiles.iter().filter_map(CurvePoint::from_profile).collect())
}

/// Find the budget beyond which `perf_max` stops improving (within
/// `tolerance`, relative) — the flattening point of Fig. 2/6.
pub fn flattening_budget(curve: &[CurvePoint], tolerance: f64) -> Option<Watts> {
    let max = curve.iter().map(|c| c.perf_max).fold(0.0, f64::max);
    curve
        .iter()
        .find(|c| c.perf_max >= max * (1.0 - tolerance))
        .map(|c| c.budget)
}

/// The §3.4 *critical component* at a budget: shift `delta` watts away
/// from each component at the optimum; the component whose loss hurts
/// performance more is critical. Returns `None` when neither shift
/// matters (scenario I — no critical component).
#[must_use = "the critical-component verdict carries either the domain or the solver failure"]
pub fn critical_component(
    problem: &PowerBoundedProblem,
    step: Watts,
    delta: Watts,
) -> Result<Option<Domain>> {
    let profile = sweep_budget(problem, step)?;
    let Some(peak) = profile.best() else {
        return Ok(None);
    };
    // With surplus budget the optimum is a plateau; evaluating shifts at
    // a plateau *edge* would fabricate a critical component, so take the
    // plateau midpoint.
    let plateau: Vec<_> = profile
        .points
        .iter()
        .filter(|p| p.op.perf_rel >= peak.op.perf_rel * (1.0 - 1e-3))
        .collect();
    let best = plateau[plateau.len() / 2];
    let take_from_proc = best.alloc.shift_to_proc(-delta);
    let take_from_mem = best.alloc.shift_to_proc(delta);
    // The two probe shifts re-solve near the optimum through one memo of
    // their own, which computes the workload's nominal time once.
    let memo = SolveMemo::fresh(&problem.platform, &problem.workload);
    let perf_less_proc = memo
        .solve(take_from_proc)
        .map(|op| op.perf_rel)
        .unwrap_or(0.0);
    let perf_less_mem = memo
        .solve(take_from_mem)
        .map(|op| op.perf_rel)
        .unwrap_or(0.0);
    let base = best.op.perf_rel;
    let drop_proc = (base - perf_less_proc) / base.max(1e-12);
    let drop_mem = (base - perf_less_mem) / base.max(1e-12);
    if drop_proc < 0.02 && drop_mem < 0.02 {
        return Ok(None); // scenario I: nothing is critical
    }
    Ok(Some(if drop_proc >= drop_mem {
        Domain::Processor
    } else {
        Domain::Memory
    }))
}

/// A row of the paper's Table 1: for a budget regime, which scenarios are
/// valid, where the optimum sits, and which component is critical.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The representative budget evaluated.
    pub budget: Watts,
    /// Scenario categories present in the sweep at this budget.
    pub valid_scenarios: Vec<CpuScenario>,
    /// Scenario of the optimal allocation (the "intersection" column: the
    /// optimum sits at this scenario's boundary with its neighbour).
    pub optimal_scenario: CpuScenario,
    /// The critical component, if any.
    pub critical: Option<Domain>,
}

/// Regenerate Table 1 for a workload on a host platform: representative
/// budgets from each §3.4 regime, top to bottom.
#[must_use = "the table result carries either the rows or the solver failure"]
pub fn table1(
    problem_template: &PowerBoundedProblem,
    criticals: &CriticalPowers,
    step: Watts,
) -> Result<Vec<Table1Row>> {
    let dram = problem_template
        .platform
        .dram()
        .ok_or_else(|| {
            pbc_types::PbcError::InvalidInput("table1 is a CPU-platform analysis".into())
        })?
        .clone();
    let pattern_cost = problem_template
        .workload
        .phases
        .first()
        .map(|(_, p)| p.pattern_cost)
        .unwrap_or(1.0);

    // Representative budgets: one per Table-1 regime.
    let budgets = [
        // "large": enough surplus that a ±16 W probe shift cannot push
        // either component under its demand.
        criticals.max_demand() + Watts::new(40.0),
        criticals.cpu_l2 + criticals.mem_l1 + Watts::new(4.0), // II|III regime
        criticals.cpu_l2 + criticals.mem_l2 + Watts::new(4.0), // III|IV regime
        criticals.cpu_l4 + criticals.mem_l2 + Watts::new(2.0), // IV|VI regime
        criticals.cpu_l4 + criticals.mem_l3 + Watts::new(2.0), // "small"
    ];

    let mut rows = Vec::new();
    let profiles = sweep_curve(problem_template, &budgets, step)?;
    for profile in &profiles {
        let budget = profile.budget;
        let problem = PowerBoundedProblem {
            platform: problem_template.platform.clone(),
            workload: problem_template.workload.clone(),
            budget,
        };
        let Some(best) = profile.best() else { continue };
        let mut valid: Vec<CpuScenario> = Vec::new();
        for pt in &profile.points {
            let s = classify_cpu_point(&pt.op, criticals, &dram, pattern_cost);
            if !valid.contains(&s) {
                valid.push(s);
            }
        }
        let optimal_scenario = classify_cpu_point(&best.op, criticals, &dram, pattern_cost);
        let critical = critical_component(&problem, step, Watts::new(16.0))?;
        rows.push(Table1Row {
            budget,
            valid_scenarios: valid,
            optimal_scenario,
            critical,
        });
    }
    Ok(rows)
}

/// One point of the Fig. 5 balance view: component capacities (best rate
/// the cap could buy) and utilizations (achieved over capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancePoint {
    /// The allocation examined.
    pub alloc: PowerAllocation,
    /// Achieved relative performance.
    pub perf_rel: f64,
    /// Compute capacity at this processor cap (work rate with memory
    /// over-provisioned), GFLOP/s.
    pub compute_capacity: f64,
    /// Compute utilization: achieved work rate over capacity.
    pub compute_util: f64,
    /// Memory capacity at this memory cap (bandwidth with the processor
    /// over-provisioned), GB/s.
    pub mem_capacity: f64,
    /// Memory utilization: achieved bandwidth over capacity.
    pub mem_util: f64,
}

/// The Fig. 5 analysis: for every allocation of the budget, the capacity
/// `R_max` of each component (its rate when the *other* component is
/// excessively powered, exactly as §3.4.1 defines it) and the utilization
/// `R / R_max`. At the optimal allocation both utilizations approach 1 —
/// "balanced compute and memory access".
#[must_use = "the balance result carries either the points or the solver failure"]
pub fn balance_analysis(problem: &PowerBoundedProblem, step: Watts) -> Result<Vec<BalancePoint>> {
    let profile = sweep_budget(problem, step)?;
    let generous = Watts::new(1.0e4);
    // Capacity probes fix one cap and over-provision the other, so the
    // same canonical solver input recurs once per step of the other axis;
    // this analysis's own memo collapses those repeats to one solve each.
    let memo = SolveMemo::fresh(&problem.platform, &problem.workload);
    let mut out = Vec::with_capacity(profile.points.len());
    for pt in &profile.points {
        let compute_capacity = memo
            .solve(PowerAllocation::new(pt.alloc.proc, generous))
            .map(|op| op.work_rate)
            .unwrap_or(0.0);
        let mem_capacity = memo
            .solve(PowerAllocation::new(generous, pt.alloc.mem))
            .map(|op| op.bandwidth.value())
            .unwrap_or(0.0);
        out.push(BalancePoint {
            alloc: pt.alloc,
            perf_rel: pt.op.perf_rel,
            compute_capacity,
            compute_util: if compute_capacity > 0.0 {
                (pt.op.work_rate / compute_capacity).min(1.0)
            } else {
                0.0
            },
            mem_capacity,
            mem_util: if mem_capacity > 0.0 {
                (pt.op.bandwidth.value() / mem_capacity).min(1.0)
            } else {
                0.0
            },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::DEFAULT_STEP;
    use pbc_platform::presets::{haswell, ivybridge};
    use pbc_powersim::solve;
    use pbc_workloads::by_name;

    fn problem(bench: &str, budget: f64) -> PowerBoundedProblem {
        let budget = if budget <= 0.0 { 200.0 } else { budget };
        PowerBoundedProblem::new(
            ivybridge(),
            by_name(bench).unwrap().demand,
            Watts::new(budget),
        )
        .unwrap()
    }

    fn budgets(lo: f64, hi: f64, step: f64) -> Vec<Watts> {
        let mut v = vec![];
        let mut b = lo;
        while b <= hi {
            v.push(Watts::new(b));
            b += step;
        }
        v
    }

    #[test]
    fn perf_max_is_monotone_and_flattens() {
        let p = problem("dgemm", -1.0);
        let curve = perf_max_curve(&p, budgets(100.0, 280.0, 12.0), DEFAULT_STEP).unwrap();
        assert!(curve.len() > 10);
        let mut last = 0.0;
        for c in &curve {
            assert!(
                c.perf_max >= last - 1e-6,
                "perf_max must be nondecreasing in budget at {}",
                c.budget
            );
            last = c.perf_max;
        }
        // Flattens by DGEMM's demand (~225 W), not at the end of range.
        let flat = flattening_budget(&curve, 0.01).unwrap();
        assert!(
            (200.0..=250.0).contains(&flat.value()),
            "DGEMM flattens at {flat}"
        );
        // And the actual power at the optimum never exceeds the budget.
        for c in &curve {
            assert!(c.actual_power.value() <= c.budget.value() + 1e-6);
        }
    }

    #[test]
    fn haswell_beats_ivybridge_at_small_budgets() {
        // §3.1: "the Haswell-based delivers better performances at small
        // total power budgets", thanks to DDR4.
        let stream = by_name("stream").unwrap();
        let ivy =
            PowerBoundedProblem::new(ivybridge(), stream.demand.clone(), Watts::new(130.0))
                .unwrap();
        let hsw =
            PowerBoundedProblem::new(haswell(), stream.demand.clone(), Watts::new(130.0))
                .unwrap();
        let small = vec![Watts::new(130.0)];
        let ivy_curve = perf_max_curve(&ivy, small.clone(), DEFAULT_STEP).unwrap();
        let hsw_curve = perf_max_curve(&hsw, small, DEFAULT_STEP).unwrap();
        // Compare absolute bandwidth via best alloc re-solve: relative
        // perf is normalized per platform, so compare achieved GB/s.
        let ivy_bw = solve(&ivy.platform, &ivy.workload, ivy_curve[0].best_alloc)
            .unwrap()
            .bandwidth;
        let hsw_bw = solve(&hsw.platform, &hsw.workload, hsw_curve[0].best_alloc)
            .unwrap()
            .bandwidth;
        assert!(
            hsw_bw > ivy_bw,
            "Haswell {hsw_bw} must beat IvyBridge {ivy_bw} at 130 W"
        );
    }

    #[test]
    fn critical_component_flips_with_budget() {
        // Paper §3.4.2 (RandomAccess on IvyBridge): DRAM is critical at
        // 224 W, the CPU at 176 W.
        let rich = critical_component(&problem("sra", 224.0), DEFAULT_STEP, Watts::new(24.0))
            .unwrap();
        assert_eq!(rich, Some(Domain::Memory), "at 224 W");
        let poor = critical_component(&problem("sra", 176.0), DEFAULT_STEP, Watts::new(24.0))
            .unwrap();
        assert_eq!(poor, Some(Domain::Processor), "at 176 W");
    }

    #[test]
    fn no_critical_component_with_surplus_budget() {
        let none = critical_component(&problem("sra", 300.0), DEFAULT_STEP, Watts::new(16.0))
            .unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn shift_asymmetry_matches_paper_direction() {
        // §3.4.2: from the optimum at 224 W, shifting 24 W from DRAM to
        // processors hurts far more than the reverse.
        let p = problem("sra", 224.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let best = profile.best().unwrap();
        let to_proc = solve(&p.platform, &p.workload, best.alloc.shift_to_proc(Watts::new(24.0)))
            .unwrap()
            .perf_rel;
        let to_mem = solve(&p.platform, &p.workload, best.alloc.shift_to_proc(Watts::new(-24.0)))
            .unwrap()
            .perf_rel;
        let drop_to_proc = 1.0 - to_proc / best.op.perf_rel;
        let drop_to_mem = 1.0 - to_mem / best.op.perf_rel;
        assert!(
            drop_to_proc > 2.0 * drop_to_mem,
            "taking from DRAM (-{:.0}%) must hurt much more than taking from CPU (-{:.0}%)",
            drop_to_proc * 100.0,
            drop_to_mem * 100.0
        );
    }

    #[test]
    fn table1_structure() {
        let p = problem("sra", 240.0);
        let criticals = CriticalPowers::probe(
            p.platform.cpu().unwrap(),
            p.platform.dram().unwrap(),
            &p.workload,
        );
        let rows = table1(&p, &criticals, DEFAULT_STEP).unwrap();
        assert!(rows.len() >= 4, "{} rows", rows.len());
        // Row 0 (large budget): scenario I valid, optimum in I, nothing
        // critical.
        assert!(rows[0].valid_scenarios.contains(&CpuScenario::I));
        assert_eq!(rows[0].optimal_scenario, CpuScenario::I);
        assert_eq!(rows[0].critical, None);
        // Later rows: scenario I disappears and a critical component
        // emerges.
        assert!(!rows[1].valid_scenarios.contains(&CpuScenario::I));
        assert!(rows[1].critical.is_some());
        // The number of valid scenarios shrinks (weakly) down the table.
        for w in rows.windows(2) {
            assert!(w[1].valid_scenarios.len() <= w[0].valid_scenarios.len() + 1);
        }
    }

    #[test]
    fn balance_peaks_at_the_optimum() {
        // Fig. 5: at the optimal allocation both utilizations are high;
        // away from it one component idles.
        let p = problem("stream", 208.0);
        let points = balance_analysis(&p, DEFAULT_STEP).unwrap();
        let best = points
            .iter()
            .max_by(|a, b| a.perf_rel.partial_cmp(&b.perf_rel).unwrap())
            .unwrap();
        assert!(best.compute_util > 0.85, "compute util {}", best.compute_util);
        assert!(best.mem_util > 0.85, "mem util {}", best.mem_util);
        // A memory-starved point under-utilizes compute capacity.
        let starved = points
            .iter()
            .max_by(|a, b| a.alloc.proc.partial_cmp(&b.alloc.proc).unwrap())
            .unwrap();
        assert!(
            starved.compute_util < 0.5,
            "memory-starved compute util {}",
            starved.compute_util
        );
    }
}
