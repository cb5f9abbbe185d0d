//! The fleet coordinator prices each (class, share) pair once and keeps
//! the price across epochs, and across a budget change for the pairs the
//! last epoch used. `cluster.evaluations` counts the pairs an epoch
//! prices; it is process-wide, so this file holds one test and runs in a
//! process of its own.

use pbc_cluster::{parse_spec, Fleet, FleetCoordinator};
use pbc_trace::names;
use pbc_types::Watts;
use std::collections::HashSet;

/// The (class, share bits) pairs of the calm partition under the
/// coordinator's budget: what its next calm epoch evaluates.
fn pairs(coord: &FleetCoordinator) -> HashSet<(usize, u64)> {
    let shares = coord.coordinate().unwrap().shares;
    shares.iter().zip(&coord.fleet().nodes).map(|(s, &c)| (c, s.value().to_bits())).collect()
}

/// The pairs one calm epoch prices.
fn priced(coord: &mut FleetCoordinator) -> u64 {
    let evaluations = pbc_trace::counter(names::CLUSTER_EVALUATIONS);
    let before = evaluations.get();
    let e = coord.step().unwrap();
    assert!(!e.degraded && e.healthy == coord.fleet().len(), "not a calm epoch: {e:?}");
    evaluations.get() - before
}

#[test]
fn an_epoch_prices_only_the_pairs_the_last_epoch_did_not_use() {
    let spec = parse_spec("4 ivybridge stream\n4 haswell dgemm\n2 titan-xp sgemm\n").unwrap();
    let fleet = Fleet::build(&spec).unwrap();
    let floor = fleet.min_total_power();
    let mut coord = FleetCoordinator::new(fleet, floor + Watts::new(250.0)).unwrap();
    coord.provision().unwrap();

    let first = pairs(&coord);
    assert_eq!(priced(&mut coord), first.len() as u64);
    assert_eq!(priced(&mut coord), 0, "a second identical epoch priced its pairs again");

    // 50 W more moves one haswell node up and leaves the other at the
    // class's top share, where its curve has flattened: that pair, like
    // the floors, was priced before the budget changed.
    coord.set_global_budget(floor + Watts::new(300.0)).unwrap();
    let second = pairs(&coord);
    // Positive shares order as their bits.
    let top = *second.iter().max_by_key(|pair| pair.1).unwrap();
    assert!(first.contains(&top), "the top share {top:?} moved with the budget");
    let new = second.difference(&first).count() as u64;
    assert!(new > 0 && new < second.len() as u64, "{new} new of {} pairs", second.len());
    assert_eq!(priced(&mut coord), new, "the epoch after the budget change priced held pairs");
}
