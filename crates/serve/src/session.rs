//! One coordination session: an [`OnlineCoordinator`] for a simulated
//! node, seeded from the shared steady-state fast path.
//!
//! # The construction recipe (the equivalence contract)
//!
//! The daemon must answer *identically* to the offline batch path, so a
//! session is built from public pieces only, in a fixed order any
//! offline replayer can mirror:
//!
//! 1. resolve the platform preset and benchmark by slug;
//! 2. `CurveTable::shared(&platform, &bench.demand)` — the process-wide
//!    oracle table for the node's `(platform, workload-class)`, shared
//!    across every session of the class as an `Arc`;
//! 3. initial split = `table.alloc_at(budget)` (the table optimum),
//!    falling back to an even `PowerAllocation::split(budget, 0.5)`
//!    when the budget sits below the table floor;
//! 4. `OnlineCoordinator::new(budget, initial, platform.min_node_power())
//!    .with_table(table)`.
//!
//! One `provision` request builds one session this way and clones it
//! into at most `pbc_cluster::MAX_NODES` (65,536) sessions, the same cap
//! a fleet spec's node total gets; larger counts are refused before
//! anything is built. A session is a pure function of `(platform,
//! bench, budget)`, so each clone is the session the recipe builds.
//!
//! `crates/serve/tests/replay_equivalence.rs` holds the daemon to this:
//! a request log replayed through a fresh offline coordinator built by
//! the same recipe must produce bit-identical allocations.

use crate::proto::ServeError;
use pbc_core::{node_ceiling, node_floor, CurveTable, OnlineCoordinator};
use pbc_platform::{presets, Platform, PlatformId};
use pbc_types::{check_budget, PowerAllocation, Watts};
use pbc_workloads::{by_name, check_target};

/// One live coordination session.
#[derive(Clone)]
pub struct Session {
    /// The online search for this node.
    pub tuner: OnlineCoordinator,
    /// Smallest schedulable node budget for the session's class.
    pub floor: Watts,
    /// Budget past which extra watts are stranded for the class.
    pub ceiling: Watts,
}

/// Resolve a platform slug to its preset.
#[must_use = "the lookup failure is a typed protocol rejection"]
pub fn resolve_platform(slug: &str) -> Result<Platform, ServeError> {
    PlatformId::from_slug(slug)
        .map(presets::by_id)
        .ok_or_else(|| ServeError::UnknownPlatform(slug.to_string()))
}

impl Session {
    /// Open a session by the recipe in the module docs.
    #[must_use = "the session result carries either the session or the typed rejection"]
    pub fn open(platform_slug: &str, bench_slug: &str, budget: f64) -> Result<Session, ServeError> {
        let platform = resolve_platform(platform_slug)?;
        let bench = by_name(bench_slug)
            .ok_or_else(|| ServeError::UnknownBench(bench_slug.to_string()))?;
        check_target(&bench, &platform).map_err(|e| ServeError::Build(e.to_string()))?;
        let budget = check_budget("budget", budget)
            .map_err(|e| ServeError::RejectedBudget(e.to_string()))?;
        let min = platform.min_node_power();
        if budget < min {
            return Err(ServeError::RejectedBudget(format!(
                "budget {} W is below the {} platform floor of {} W",
                budget.value(),
                platform_slug,
                min.value()
            )));
        }
        let table = CurveTable::shared(&platform, &bench.demand)
            .map_err(|e| ServeError::Build(e.to_string()))?;
        let initial = table
            .alloc_at(budget)
            .unwrap_or_else(|| PowerAllocation::split(budget, 0.5));
        Ok(Session {
            tuner: OnlineCoordinator::new(budget, initial, min).with_table(table),
            floor: node_floor(&platform, &bench.demand),
            ceiling: node_ceiling(&platform, &bench.demand),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_resolves_and_seeds_from_the_table() {
        let s = Session::open("ivybridge", "stream", 208.0).unwrap();
        assert_eq!(s.tuner.budget(), Watts::new(208.0));
        assert!(s.floor < s.ceiling);
        // The initial split is the table optimum, not the even split.
        let table = CurveTable::shared(
            &resolve_platform("ivybridge").unwrap(),
            &by_name("stream").unwrap().demand,
        )
        .unwrap();
        let expect = table.alloc_at(Watts::new(208.0)).unwrap();
        assert_eq!(s.tuner.best(), expect);
    }

    #[test]
    fn open_rejects_with_typed_errors() {
        assert!(matches!(
            Session::open("nope", "stream", 208.0),
            Err(ServeError::UnknownPlatform(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "nope", 208.0),
            Err(ServeError::UnknownBench(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "sgemm", 208.0),
            Err(ServeError::Build(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "stream", f64::NAN),
            Err(ServeError::RejectedBudget(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "stream", 1.0),
            Err(ServeError::RejectedBudget(_))
        ));
    }
}
