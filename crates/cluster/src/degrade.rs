//! Graceful degradation: the precomputed static partition every node
//! falls back to when global coordination is unavailable.
//!
//! Water-filling needs a coordinator that can hear every node. When it
//! can't — the coordinator is partitioned away, or the live membership
//! makes the fill infeasible — the fleet must still respect the global
//! bound *without* coordinating. The answer is
//! the oldest trick in power management: a static partition computed
//! once, from profile data alone, whose shares sum to at most the
//! global budget **by construction**. Any subset of nodes running their
//! fallback shares is safe, because a sum of non-negative shares only
//! shrinks when nodes drop out.
//!
//! The shares themselves are floors plus headroom split proportionally
//! to each node's profiled dynamic range (`ceiling − floor`): a node
//! that can convert more watts into work gets more of the slack, but
//! nobody is pushed past its ceiling (where extra watts strand) or
//! below its floor (where it cannot run at all).

use crate::fleet::Fleet;
use pbc_types::{PbcError, Result, Watts};

/// Slack below this is not worth spreading.
const SLACK_EPS_W: f64 = 1e-9;

/// A precomputed, known-safe static partition of the global budget.
///
/// Invariant: `shares.iter().sum() ≤ global` (by construction, verified
/// in debug builds and by property tests), and every share is at least
/// its node's floor.
#[derive(Debug, Clone)]
pub struct StaticFallback {
    shares: Vec<Watts>,
}

impl StaticFallback {
    /// Precompute the fallback partition for a fleet under `global`.
    ///
    /// Fails only when the budget cannot cover the fleet's floors —
    /// the same infeasibility that stops the water-fill, surfaced at
    /// construction time so a coordinator is never built without a
    /// safe place to land.
    #[must_use = "the precomputed partition is the constructor's entire result"]
    pub fn compute(fleet: &Fleet, global: Watts) -> Result<Self> {
        let floors: Vec<Watts> = fleet.nodes.iter().map(|&c| fleet.classes[c].floor).collect();
        let ceilings: Vec<Watts> = fleet
            .nodes
            .iter()
            .map(|&c| fleet.classes[c].ceiling)
            .collect();
        Self::from_parts(&floors, &ceilings, global)
    }

    /// Precompute from raw floors/ceilings (the property-test entry
    /// point; [`StaticFallback::compute`] is this over a fleet's
    /// profile data).
    #[must_use = "the precomputed partition is the constructor's entire result"]
    pub fn from_parts(floors: &[Watts], ceilings: &[Watts], global: Watts) -> Result<Self> {
        if floors.len() != ceilings.len() {
            return Err(PbcError::InvalidInput(format!(
                "{} floors but {} ceilings",
                floors.len(),
                ceilings.len()
            )));
        }
        let floor_sum: Watts = floors.iter().copied().sum();
        if floor_sum > global {
            return Err(PbcError::InvalidInput(format!(
                "global budget {global} is below the fleet floor sum {floor_sum}; \
                 no static partition can run every node"
            )));
        }
        // Split the slack proportionally to dynamic range, capping each
        // node at its ceiling. One pass is enough: weights are the
        // ranges themselves, so slack · wᵢ/Σw ≤ rangeᵢ exactly when
        // slack ≤ Σw, and when slack exceeds the total range every node
        // simply lands on its ceiling (the leftover stays unspent —
        // spending it would strand watts, not add work).
        let slack = (global - floor_sum).value();
        let ranges: Vec<f64> = floors
            .iter()
            .zip(ceilings)
            .map(|(f, c)| (c.value() - f.value()).max(0.0))
            .collect();
        let total_range: f64 = ranges.iter().sum();
        let shares: Vec<Watts> = floors
            .iter()
            .zip(&ranges)
            .map(|(floor, range)| {
                let extra = if slack <= SLACK_EPS_W || total_range <= SLACK_EPS_W {
                    0.0
                } else {
                    (slack * range / total_range).min(*range)
                };
                *floor + Watts(extra)
            })
            .collect();
        debug_assert!(
            shares.iter().copied().sum::<Watts>() <= global + Watts(1e-6),
            "fallback shares exceed the global budget"
        );
        Ok(Self { shares })
    }

    /// The fallback share of node `i`.
    #[must_use]
    pub fn share(&self, node: usize) -> Watts {
        self.shares[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: f64) -> Watts {
        Watts(v)
    }

    fn total(fb: &StaticFallback) -> Watts {
        fb.shares.iter().copied().sum()
    }

    #[test]
    fn shares_sum_at_most_global_and_respect_floors_and_ceilings() {
        let floors = [w(30.0), w(50.0), w(40.0)];
        let ceilings = [w(80.0), w(90.0), w(60.0)];
        let fb = StaticFallback::from_parts(&floors, &ceilings, w(200.0)).unwrap();
        assert!(total(&fb) <= w(200.0) + w(1e-9));
        for i in 0..3 {
            assert!(fb.share(i) >= floors[i]);
            assert!(fb.share(i) <= ceilings[i] + w(1e-9));
        }
        // Slack 80 over total range 110 → proportional, nobody capped.
        assert!((total(&fb).value() - 200.0).abs() < 1e-6, "all slack spent");
    }

    #[test]
    fn abundant_budget_caps_everyone_at_ceiling() {
        let floors = [w(30.0), w(40.0)];
        let ceilings = [w(50.0), w(70.0)];
        let fb = StaticFallback::from_parts(&floors, &ceilings, w(1000.0)).unwrap();
        assert_eq!(fb.share(0), w(50.0));
        assert_eq!(fb.share(1), w(70.0));
        assert!(total(&fb) <= w(1000.0));
    }

    #[test]
    fn exact_floor_budget_gives_floors() {
        let floors = [w(30.0), w(40.0)];
        let ceilings = [w(50.0), w(70.0)];
        let fb = StaticFallback::from_parts(&floors, &ceilings, w(70.0)).unwrap();
        assert_eq!(fb.share(0), w(30.0));
        assert_eq!(fb.share(1), w(40.0));
    }

    #[test]
    fn below_floor_sum_is_refused() {
        let floors = [w(30.0), w(40.0)];
        let ceilings = [w(50.0), w(70.0)];
        assert!(StaticFallback::from_parts(&floors, &ceilings, w(69.0)).is_err());
        assert!(StaticFallback::from_parts(&floors, &ceilings[..1], w(100.0)).is_err());
    }

    #[test]
    fn degenerate_ranges_fall_back_to_floors() {
        // Ceiling == floor everywhere: no slack can be spent.
        let floors = [w(30.0), w(40.0)];
        let ceilings = [w(30.0), w(40.0)];
        let fb = StaticFallback::from_parts(&floors, &ceilings, w(500.0)).unwrap();
        assert_eq!(fb.share(0), w(30.0));
        assert_eq!(fb.share(1), w(40.0));
    }
}
