//! Research question 4 of §2.1: *"What ranges of `P_b` are acceptable
//! regarding achievable performance and power efficiency?"*
//!
//! The paper's answer, scattered through §3.1 and §6.2, is operationalized
//! here:
//!
//! * budgets below the productive threshold `L2c + L2m` deliver
//!   unacceptably low performance *and* efficiency — "it should not be
//!   allocated to run new jobs";
//! * budgets above the max demand `L1c + L1m` waste power — "schedulers
//!   should avoid budgeting excessively larger power than what
//!   applications can consume";
//! * in between, performance-per-watt has a sweet spot that
//!   [`efficiency_curve`] locates.

use crate::analysis::perf_max_curve;
use crate::critical::CriticalPowers;
use crate::problem::PowerBoundedProblem;
use pbc_types::{Result, Watts};

/// Efficiency of the *best* allocation at one budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyPoint {
    /// The budget examined.
    pub budget: Watts,
    /// Best achievable relative performance.
    pub perf_max: f64,
    /// Actual power drawn at that optimum.
    pub actual_power: Watts,
    /// Relative performance per actual watt (higher is better).
    pub perf_per_watt: f64,
    /// Watts of the budget the optimum leaves unused.
    pub stranded_power: Watts,
}

/// Sweep budgets and compute the efficiency of the optimum at each: the
/// [`perf_max_curve`] points, each priced per actual watt. Budgets with
/// no feasible allocation are skipped.
#[must_use = "the efficiency points are the computation's entire result"]
pub fn efficiency_curve(
    template: &PowerBoundedProblem,
    budgets: impl IntoIterator<Item = Watts>,
    step: Watts,
) -> Result<Vec<EfficiencyPoint>> {
    let curve = perf_max_curve(template, budgets, step)?;
    Ok(curve
        .iter()
        .map(|p| EfficiencyPoint {
            budget: p.budget,
            perf_max: p.perf_max,
            actual_power: p.actual_power,
            perf_per_watt: if p.actual_power.value() > 0.0 {
                p.perf_max / p.actual_power.value()
            } else {
                0.0
            },
            stranded_power: (p.budget - p.actual_power).max(Watts::ZERO),
        })
        .collect())
}

/// The §2.1-RQ4 acceptable band for a workload, straight from its critical
/// power values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptableRange {
    /// Lower edge: the productive threshold `L2c + L2m`.
    pub min: Watts,
    /// Upper edge: the maximum demand `L1c + L1m`.
    pub max: Watts,
}

impl AcceptableRange {
    /// Derive the band from critical powers.
    pub fn from_criticals(c: &CriticalPowers) -> Self {
        Self {
            min: c.productive_threshold(),
            max: c.max_demand(),
        }
    }

    /// Width of the band.
    pub fn span(&self) -> Watts {
        (self.max - self.min).max(Watts::ZERO)
    }
}

/// The budget with the best performance-per-watt on a curve — the
/// energy-efficiency sweet spot a throughput-oriented scheduler would pick
/// when it has more jobs than power. Above the max demand the ratio is
/// flat (the optimum simply strands the surplus), so ties resolve to the
/// *smallest* such budget: no scheduler should hold watts for nothing.
pub fn most_efficient_budget(curve: &[EfficiencyPoint]) -> Option<EfficiencyPoint> {
    let best = curve
        .iter()
        .map(|p| p.perf_per_watt)
        .fold(f64::NEG_INFINITY, f64::max);
    curve
        .iter()
        .copied()
        .find(|p| p.perf_per_watt >= best * (1.0 - 1e-3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::DEFAULT_STEP;
    use pbc_platform::presets::ivybridge;
    use pbc_workloads::by_name;

    fn template(bench: &str) -> PowerBoundedProblem {
        PowerBoundedProblem::new(
            ivybridge(),
            by_name(bench).unwrap().demand,
            Watts::new(208.0),
        )
        .unwrap()
    }

    fn budgets() -> Vec<Watts> {
        (10..36).map(|i| Watts::new(i as f64 * 10.0)).collect()
    }

    #[test]
    fn acceptable_range_matches_criticals() {
        let p = ivybridge();
        let c = CriticalPowers::probe(
            p.cpu().unwrap(),
            p.dram().unwrap(),
            &by_name("sra").unwrap().demand,
        );
        let band = AcceptableRange::from_criticals(&c);
        assert_eq!((band.min, band.max), (c.productive_threshold(), c.max_demand()));
        assert!(band.span().value() > 30.0, "band {band:?} suspiciously narrow");
    }

    #[test]
    fn stranded_power_grows_past_max_demand() {
        let t = template("stream");
        let curve = efficiency_curve(&t, budgets(), DEFAULT_STEP).unwrap();
        let last = curve.last().unwrap();
        assert!(
            last.stranded_power.value() > 50.0,
            "a 350 W budget must strand watts on STREAM: {last:?}"
        );
        // Stranded power is monotone (weakly) once perf has flattened.
        let flat: Vec<_> = curve.iter().filter(|p| p.perf_max > 0.999).collect();
        for w in flat.windows(2) {
            assert!(w[1].stranded_power >= w[0].stranded_power - Watts::new(1e-6));
        }
    }

    #[test]
    fn sweet_spot_is_interior() {
        // Perf-per-watt peaks somewhere strictly inside the band — not at
        // the starved bottom (fixed floors dominate) nor at the wasteful
        // top.
        let t = template("dgemm");
        let curve = efficiency_curve(&t, budgets(), DEFAULT_STEP).unwrap();
        let best = most_efficient_budget(&curve).unwrap();
        assert!(best.budget > curve.first().unwrap().budget);
        assert!(best.perf_per_watt > curve.first().unwrap().perf_per_watt);
        assert!(best.perf_per_watt >= curve.last().unwrap().perf_per_watt);
    }

    #[test]
    fn efficiency_collapses_below_threshold() {
        let p = ivybridge();
        let c = CriticalPowers::probe(
            p.cpu().unwrap(),
            p.dram().unwrap(),
            &by_name("sra").unwrap().demand,
        );
        let t = template("sra");
        let band = AcceptableRange::from_criticals(&c);
        let curve = efficiency_curve(
            &t,
            vec![band.min - Watts::new(30.0), band.min + Watts::new(20.0)],
            DEFAULT_STEP,
        )
        .unwrap();
        assert_eq!(curve.len(), 2);
        assert!(
            curve[1].perf_per_watt > 1.4 * curve[0].perf_per_watt,
            "below-threshold efficiency must collapse: {curve:?}"
        );
    }
}
