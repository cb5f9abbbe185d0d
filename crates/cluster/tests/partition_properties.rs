//! Property tests for the water-filling partitioner — the contract the
//! cluster layer's correctness rests on:
//!
//! * **conservation** — the shares sum to exactly the global budget;
//! * **feasibility** — every share ≥ that node's floor, which itself is
//!   ≥ the platform's `min_node_power`;
//! * **determinism** — the partition (and everything feeding it: curve
//!   profiling, per-node evaluation) is bit-identical across executor
//!   counts, mirroring `sweep_curve_equivalence.rs`. Thread counts are
//!   pinned with explicit `Pool::new(n)` instances rather than by
//!   mutating `PBC_THREADS`, which is process-global.

use pbc_cluster::{
    fill_shares, parse_spec, water_fill, Fleet, FleetCoordinator, NodeCurve, Objective,
    PerfCurve, DEFAULT_GRANT,
};
use pbc_par::Pool;
use pbc_platform::presets::by_id;
use pbc_platform::PlatformId;
use pbc_types::{Watts, XorShift64Star};
use pbc_workloads::by_name;

const MIXED_SPEC: &str = "6 ivybridge stream\n\
                          4 haswell dgemm\n\
                          3 ivybridge sra\n\
                          2 titan-xp sgemm\n\
                          1 titan-v minife\n";

fn mixed_fleet(pool: &Pool) -> Fleet {
    let spec = parse_spec(MIXED_SPEC).unwrap();
    Fleet::build_with_pool(&spec, pool).unwrap()
}

fn fleet_curves(fleet: &Fleet) -> Vec<NodeCurve<'_>> {
    fleet
        .nodes
        .iter()
        .map(|&c| NodeCurve { floor: fleet.classes[c].floor, curve: &fleet.classes[c].curve })
        .collect()
}

#[test]
fn shares_conserve_the_global_budget() {
    let pool = Pool::new(2);
    let fleet = mixed_fleet(&pool);
    let curves = fleet_curves(&fleet);
    // From barely feasible to far past saturation.
    for slack in [0.0, 25.0, 150.0, 600.0, 5000.0] {
        let global = fleet.min_total_power() + Watts::new(slack);
        let shares = water_fill(&curves, global, DEFAULT_GRANT).unwrap();
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!(
            (total - global.value()).abs() < 1e-6,
            "slack {slack}: shares sum to {total}, budget is {}",
            global.value()
        );
    }
}

#[test]
fn every_share_covers_the_node_floor_and_the_platform_minimum() {
    let pool = Pool::new(2);
    let fleet = mixed_fleet(&pool);
    let curves = fleet_curves(&fleet);
    let global = fleet.min_total_power() + Watts::new(180.0);
    let shares = water_fill(&curves, global, DEFAULT_GRANT).unwrap();
    for (i, share) in shares.iter().enumerate() {
        let class = fleet.class_of(i);
        assert!(
            *share >= class.floor,
            "node {i}: share {share:?} below class floor {:?}",
            class.floor
        );
        assert!(
            *share >= class.platform.min_node_power(),
            "node {i}: share {share:?} below min_node_power {:?}",
            class.platform.min_node_power()
        );
    }
}

#[test]
fn infeasible_global_budget_is_refused_with_the_true_minimum() {
    let pool = Pool::new(1);
    let fleet = mixed_fleet(&pool);
    let curves = fleet_curves(&fleet);
    let short = fleet.min_total_power() - Watts::new(0.5);
    let err = water_fill(&curves, short, DEFAULT_GRANT).unwrap_err();
    assert!(err.is_infeasible(), "expected BudgetTooSmall, got {err}");
}

/// The determinism property: profiling the fleet and partitioning the
/// budget on 1, 2, and 8 executors must produce bit-identical curves
/// and bit-identical shares.
#[test]
fn partition_is_bit_identical_across_thread_counts() {
    let partition_at = |threads: usize| {
        let pool = Pool::new(threads);
        let fleet = mixed_fleet(&pool);
        let curves = fleet_curves(&fleet);
        let global = fleet.min_total_power() + Watts::new(200.0);
        let shares = water_fill(&curves, global, DEFAULT_GRANT).unwrap();
        let perfs: Vec<Vec<u64>> = fleet
            .classes
            .iter()
            .map(|c| c.curve.perf.iter().map(|v| v.to_bits()).collect())
            .collect();
        let bits: Vec<u64> = shares.iter().map(|s| s.value().to_bits()).collect();
        (perfs, bits)
    };
    let one = partition_at(1);
    let two = partition_at(2);
    let eight = partition_at(8);
    assert_eq!(one.0, two.0, "curve samples diverge between 1 and 2 threads");
    assert_eq!(one.0, eight.0, "curve samples diverge between 1 and 8 threads");
    assert_eq!(one.1, two.1, "shares diverge between 1 and 2 threads");
    assert_eq!(one.1, eight.1, "shares diverge between 1 and 8 threads");
}

/// Same property one layer up: the full coordinate() decision (shares,
/// allocations, priced performance) replays bit-identically.
#[test]
fn cluster_decisions_are_bit_identical_across_thread_counts() {
    let decide = |threads: usize| {
        let pool = Pool::new(threads);
        let fleet = mixed_fleet(&pool);
        let global = fleet.min_total_power() + Watts::new(200.0);
        let coord = FleetCoordinator::new(fleet, global).unwrap();
        let d = coord.coordinate_with_pool(&pool).unwrap();
        let shares: Vec<u64> = d.shares.iter().map(|s| s.value().to_bits()).collect();
        let perfs: Vec<u64> = d.perfs.iter().map(|p| p.to_bits()).collect();
        (shares, perfs, d.aggregate_perf.to_bits())
    };
    let one = decide(1);
    let two = decide(2);
    let eight = decide(8);
    assert_eq!(one, two, "decision diverges between 1 and 2 threads");
    assert_eq!(one, eight, "decision diverges between 1 and 8 threads");
}

/// A single-class fleet has no heterogeneity to exploit: water-filling
/// and uniform-split must agree (up to the grant quantum's rounding).
#[test]
fn homogeneous_fleet_degenerates_to_an_even_split() {
    let pool = Pool::new(2);
    let spec = parse_spec("4 ivybridge stream").unwrap();
    let fleet = Fleet::build_with_pool(&spec, &pool).unwrap();
    let curves = fleet_curves(&fleet);
    let global = fleet.min_total_power() + Watts::new(160.0);
    let shares = water_fill(&curves, global, DEFAULT_GRANT).unwrap();
    let even = global.value() / 4.0;
    for share in &shares {
        assert!(
            (share.value() - even).abs() <= DEFAULT_GRANT.value() * 4.0,
            "homogeneous share {share:?} strays from the even split {even}"
        );
    }
}

/// The ceiling contract across every objective: for randomized synthetic
/// fleets whose combined ceilings can absorb the budget, no node is ever
/// pushed past its own ceiling — the regression the even-spread
/// conservation step and the unclamped greedy grant both violated.
#[test]
fn no_objective_ever_breaches_a_ceiling_the_fleet_can_absorb() {
    let mut rng = XorShift64Star::new(0x5AFE_FA11_CE11_0001);
    for case in 0..240 {
        let n = 2 + (rng.next_u64() % 10) as usize;
        let mut curves = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            let floor = 20.0 + 100.0 * rng.next_f64();
            let rungs = 1 + (rng.next_u64() % 12) as usize;
            let rise = 3.0 * rng.next_f64();
            let perf: Vec<f64> = (0..=rungs).map(|k| rise * k as f64).collect();
            let allocs = vec![None; perf.len()];
            curves.push(PerfCurve {
                floor: Watts::new(floor),
                step: Watts::new(8.0),
                perf,
                allocs,
            });
            weights.push(0.5 + 3.5 * rng.next_f64());
        }
        let nodes: Vec<NodeCurve<'_>> = curves
            .iter()
            .map(|c| NodeCurve { floor: c.floor, curve: c })
            .collect();
        let floor_sum: f64 = nodes.iter().map(|c| c.floor.value()).sum();
        let ceiling_sum: f64 = nodes.iter().map(|c| c.curve.ceiling().value()).sum();
        // Anywhere from exactly-the-floors to exactly-the-ceilings.
        let global = Watts::new(floor_sum + (ceiling_sum - floor_sum) * rng.next_f64());
        let grant = Watts::new([2.0, 4.0, 16.0][(rng.next_u64() % 3) as usize]);
        for objective in [Objective::Throughput, Objective::MaxMin, Objective::WeightedShares] {
            let w: &[f64] = if objective == Objective::WeightedShares { &weights } else { &[] };
            let shares = fill_shares(&nodes, w, global, grant, objective)
                .unwrap_or_else(|e| panic!("case {case} {}: refused: {e}", objective.name()));
            let total: f64 = shares.iter().map(|s| s.value()).sum();
            assert!(
                (total - global.value()).abs() < 1e-6,
                "case {case} {}: shares sum to {total}, budget is {}",
                objective.name(),
                global.value()
            );
            for (i, share) in shares.iter().enumerate() {
                assert!(
                    *share >= nodes[i].floor - Watts::new(1e-9),
                    "case {case} {} node {i}: share {share:?} below floor {:?}",
                    objective.name(),
                    nodes[i].floor
                );
                assert!(
                    share.value() <= nodes[i].curve.ceiling().value() + 1e-6,
                    "case {case} {} node {i}: share {share:?} breaches ceiling {:?}",
                    objective.name(),
                    nodes[i].curve.ceiling()
                );
            }
        }
    }
}

#[test]
fn floors_match_the_profiled_platforms() {
    // The curve floor a class reports is the same value `node_floor`
    // computes from the platform and demand — no hidden state.
    let pool = Pool::new(1);
    let fleet = mixed_fleet(&pool);
    for class in &fleet.classes {
        let again = PerfCurve::profile_with_pool(&class.platform, &class.demand, &pool).unwrap();
        assert_eq!(class.curve.floor.value().to_bits(), again.floor.value().to_bits());
        assert_eq!(class.curve.perf.len(), again.perf.len());
    }
    // And every preset the spec names is really the preset registry's.
    for id in [PlatformId::IvyBridge, PlatformId::Haswell] {
        assert!(by_id(id).min_node_power() > Watts::ZERO);
    }
    assert!(by_name("stream").is_some());
}
