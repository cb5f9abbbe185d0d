//! The fleet coordinator's work counts on the perfbench `fleet-1024`
//! class mix: eight node classes of 128 nodes at 1.35 × Σ floors.
//!
//! `cluster.fill_quanta`, `cluster.fill_picks`, `cluster.evaluations`
//! and `pool.jobs` are process-wide, so this file holds one test and
//! runs in a process of its own.

use pbc_cluster::{
    fill_shares, parse_spec, Fleet, FleetCoordinator, NodeCurve, Objective, DEFAULT_GRANT,
};
use pbc_trace::names;

/// Grants the quantum-by-quantum rescan makes on this input under every
/// objective: 8,758 full 4 W quanta and one partial one.
const RESCAN_GRANTS: u64 = 8_759;

/// Distinct (class, share) pairs of the fault-free Throughput partition:
/// the eight classes' nodes sit at ten shares in all.
const PAIRS: u64 = 10;

/// Nodes of the fault-free Throughput partition whose share COORD
/// refuses: host nodes left at their class floor.
const REFUSED: usize = 510;

#[test]
fn replay_keeps_every_grant_and_evaluation_runs_once_per_pair() {
    let spec: String = [
        "ivybridge stream",
        "ivybridge dgemm",
        "haswell cg",
        "haswell ep",
        "titan-xp sgemm",
        "titan-xp hpcg",
        "titan-v minife",
        "titan-v cufft",
    ]
    .iter()
    .map(|class| format!("128 {class}\n"))
    .collect();
    let fleet = Fleet::build(&parse_spec(&spec).unwrap()).unwrap();
    let curves: Vec<NodeCurve<'_>> = (0..fleet.len())
        .map(|i| NodeCurve {
            floor: fleet.class_of(i).floor,
            curve: &fleet.class_of(i).curve,
        })
        .collect();
    let global = fleet.min_total_power() * 1.35;
    let quanta = pbc_trace::counter(names::CLUSTER_FILL_QUANTA);
    let picks = pbc_trace::counter(names::CLUSTER_FILL_PICKS);
    for objective in [
        Objective::Throughput,
        Objective::MaxMin,
        Objective::WeightedShares,
    ] {
        let (q0, p0) = (quanta.get(), picks.get());
        let shares = fill_shares(&curves, &[], global, DEFAULT_GRANT, objective).unwrap();
        assert_eq!(shares.len(), curves.len());
        let (q, p) = (quanta.get() - q0, picks.get() - p0);
        let name = objective.name();
        assert_eq!(
            q, RESCAN_GRANTS,
            "{name}: the fill made {q} grants, the rescan makes {RESCAN_GRANTS}"
        );
        assert!(p <= q, "{name}: {p} picks for {q} grants");
        if objective != Objective::WeightedShares {
            // Equal surpluses tie across kinds under WeightedShares, so
            // its picks are not replayed; the other two replay.
            assert!(
                p <= q / 20,
                "{name}: {p} picks for {q} grants, more than one per 20"
            );
        }
    }

    // One fault-free epoch evaluates each (class, share) pair once, not
    // each of the 1,024 nodes, and on the calling thread: no pool job.
    let coord = FleetCoordinator::new(fleet.clone(), global).unwrap();
    let evaluations = pbc_trace::counter(names::CLUSTER_EVALUATIONS);
    let jobs = pbc_trace::counter(names::POOL_JOBS);
    let (e0, j0) = (evaluations.get(), jobs.get());
    let decision = coord.coordinate().unwrap();
    let (e, j) = (evaluations.get() - e0, jobs.get() - j0);
    assert_eq!(e, PAIRS, "one coordinate made {e} evaluations for {PAIRS} (class, share) pairs");
    assert_eq!(decision.infeasible, REFUSED);
    assert_eq!(j, 0, "one coordinate published {j} pool jobs");
}
