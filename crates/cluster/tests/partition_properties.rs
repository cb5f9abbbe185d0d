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
//!   mutating `PBC_THREADS`, which is process-global;
//! * **the winner rule** — the indexed fill grants every quantum to the
//!   node a full rescan of every node picks, bit for bit, checked
//!   against a reference copy of that rescan kept in this file.

use pbc_cluster::{
    fill_shares, parse_spec, Fleet, FleetCoordinator, NodeCurve, Objective, DEFAULT_GRANT,
};
use pbc_core::CurveTable;
use pbc_par::Pool;
use pbc_platform::presets::by_id;
use pbc_platform::PlatformId;
use pbc_types::{Watts, XorShift64Star};
use pbc_workloads::by_name;

/// The `cluster/water-fill-32` bench fleet.
const BENCH_SPEC: &str = "10 ivybridge stream\n\
                          8 haswell dgemm\n\
                          6 ivybridge sra\n\
                          5 titan-xp sgemm\n\
                          3 titan-v minife\n";

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
        let shares =
            fill_shares(&curves, &[], global, DEFAULT_GRANT, Objective::Throughput).unwrap();
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
    let shares = fill_shares(&curves, &[], global, DEFAULT_GRANT, Objective::Throughput).unwrap();
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
    let err = fill_shares(&curves, &[], short, DEFAULT_GRANT, Objective::Throughput).unwrap_err();
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
        let shares =
            fill_shares(&curves, &[], global, DEFAULT_GRANT, Objective::Throughput).unwrap();
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
/// priced aggregate performance, refusals) replays bit-identically.
#[test]
fn cluster_decisions_are_bit_identical_across_thread_counts() {
    let decide = |threads: usize| {
        let pool = Pool::new(threads);
        let fleet = mixed_fleet(&pool);
        let global = fleet.min_total_power() + Watts::new(200.0);
        let coord = FleetCoordinator::new(fleet, global).unwrap();
        let d = coord.coordinate_with_pool(&pool).unwrap();
        let shares: Vec<u64> = d.shares.iter().map(|s| s.value().to_bits()).collect();
        (shares, d.aggregate_perf.to_bits(), d.infeasible)
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
    let shares = fill_shares(&curves, &[], global, DEFAULT_GRANT, Objective::Throughput).unwrap();
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
            curves.push(CurveTable {
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
        let again = CurveTable::profile_with_pool(&class.platform, &class.demand, &pool).unwrap();
        assert_eq!(class.curve.floor.value().to_bits(), again.floor.value().to_bits());
        assert_eq!(class.curve.perf.len(), again.perf.len());
    }
    // And every preset the spec names is really the preset registry's.
    for id in [PlatformId::IvyBridge, PlatformId::Haswell] {
        assert!(by_id(id).min_node_power() > Watts::ZERO);
    }
    assert!(by_name("stream").is_some());
}

/// Reference copy of the quantum-by-quantum fill the indexed
/// partitioner replaced: every quantum rescans every node and grants it
/// to the last record of `key > record + GAIN_EPS`. It lives only here,
/// as the oracle the differential test below checks the library against.
mod reference {
    use pbc_cluster::{NodeCurve, Objective};
    use pbc_types::Watts;

    const GAIN_EPS: f64 = 1e-12;
    const BUDGET_EPS: f64 = 1e-6;

    fn headroom(node: &NodeCurve<'_>, share: Watts) -> f64 {
        (node.curve.ceiling().value() - share.value()).max(0.0)
    }

    fn spread_leftover(nodes: &[NodeCurve<'_>], shares: &mut [Watts], mut remaining: Watts) {
        while remaining.value() > BUDGET_EPS {
            let open: Vec<usize> = (0..nodes.len())
                .filter(|&i| headroom(&nodes[i], shares[i]) > BUDGET_EPS)
                .collect();
            if open.is_empty() {
                break;
            }
            let even = remaining * (1.0 / open.len() as f64);
            let mut granted = Watts::ZERO;
            for &i in &open {
                let take = Watts::new(even.value().min(headroom(&nodes[i], shares[i])));
                shares[i] = shares[i] + take;
                granted = granted + take;
            }
            remaining = remaining - granted;
            if granted.value() <= BUDGET_EPS {
                break;
            }
        }
        if remaining.value() > 0.0 {
            let even = remaining * (1.0 / nodes.len() as f64);
            for share in shares.iter_mut() {
                *share = *share + even;
            }
        }
    }

    /// `fill_shares` for inputs it accepts (no validation).
    pub fn fill_shares(
        nodes: &[NodeCurve<'_>],
        weights: &[f64],
        global: Watts,
        grant: Watts,
        objective: Objective,
    ) -> Vec<Watts> {
        let minimum = nodes.iter().fold(Watts::ZERO, |acc, n| acc + n.floor);
        let mut shares: Vec<Watts> = nodes.iter().map(|n| n.floor).collect();
        let mut remaining = global - minimum;
        while remaining.value() > BUDGET_EPS {
            let q = grant.min(remaining);
            let winner = match objective {
                Objective::Throughput => pick_throughput(nodes, &shares, q),
                Objective::MaxMin => pick_max_min(nodes, &shares),
                Objective::WeightedShares => pick_weighted(nodes, &shares, weights),
            };
            match winner {
                Some(i) => {
                    let qi = Watts::new(q.value().min(headroom(&nodes[i], shares[i])));
                    shares[i] = shares[i] + qi;
                    remaining = remaining - qi;
                }
                None => break,
            }
        }
        if remaining.value() > 0.0 {
            spread_leftover(nodes, &mut shares, remaining);
        }
        shares
    }

    fn pick_throughput(nodes: &[NodeCurve<'_>], shares: &[Watts], q: Watts) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, node) in nodes.iter().enumerate() {
            let room = headroom(node, shares[i]);
            if room <= BUDGET_EPS {
                continue;
            }
            let qi = Watts::new(q.value().min(room));
            let gain = node.curve.marginal_gain(shares[i], qi);
            let beats = match best {
                None => gain > GAIN_EPS,
                Some((_, g)) => gain > g + GAIN_EPS,
            };
            if beats {
                best = Some((i, gain));
            }
        }
        best.map(|(i, _)| i)
    }

    fn pick_max_min(nodes: &[NodeCurve<'_>], shares: &[Watts]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if headroom(node, shares[i]) <= BUDGET_EPS {
                continue;
            }
            let top = node.curve.perf_at(node.curve.ceiling());
            let progress = if top > GAIN_EPS {
                (node.curve.perf_at(shares[i]) / top).min(1.0)
            } else {
                1.0
            };
            if best.is_none_or(|(_, p)| progress < p - GAIN_EPS) {
                best = Some((i, progress));
            }
        }
        best.map(|(i, _)| i)
    }

    fn pick_weighted(nodes: &[NodeCurve<'_>], shares: &[Watts], weights: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if headroom(node, shares[i]) <= BUDGET_EPS {
                continue;
            }
            let w = weights.get(i).copied().unwrap_or(1.0);
            let normalized = (shares[i].value() - node.floor.value()) / w;
            if best.is_none_or(|(_, n)| normalized < n - GAIN_EPS) {
                best = Some((i, normalized));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Grants the differential cases draw from; 3.3 W leaves partial
/// quanta at the end of nearly every fill.
const GRANTS: [f64; 4] = [2.0, 3.3, 4.0, 16.0];

const OBJECTIVES: [Objective; 3] =
    [Objective::Throughput, Objective::MaxMin, Objective::WeightedShares];

/// One differential case: `fill_shares` against the reference rescan,
/// under every objective, bit for bit. The budget is drawn from Σ floors
/// up to 1.2 × Σ ceilings. Returns the number of fills compared.
fn check_against_reference(
    label: &str,
    nodes: &[NodeCurve<'_>],
    weights: &[f64],
    rng: &mut XorShift64Star,
) -> usize {
    let floors: f64 = nodes.iter().map(|n| n.floor.value()).sum();
    let ceilings: f64 = nodes.iter().map(|n| n.curve.ceiling().value()).sum();
    let global = if rng.below(8) == 0 {
        Watts::new(floors)
    } else {
        Watts::new(rng.range_f64(floors, (1.2 * ceilings).max(floors)))
    };
    let grant = Watts::new(GRANTS[rng.below(GRANTS.len())]);
    for objective in OBJECTIVES {
        let got = fill_shares(nodes, weights, global, grant, objective)
            .unwrap_or_else(|e| panic!("{label} {}: refused: {e}", objective.name()));
        let want = reference::fill_shares(nodes, weights, global, grant, objective);
        let bits = |s: &[Watts]| s.iter().map(|w| w.value().to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "{label} {}: {} nodes, global {} W, grant {} W: the fill diverges from the \
             reference rescan",
            objective.name(),
            nodes.len(),
            global.value(),
            grant.value()
        );
    }
    OBJECTIVES.len()
}

/// A synthetic class curve: linear (optionally with a flat tail) or
/// concave, on an 8 W or 5 W rung spacing.
fn synthetic_curve(rng: &mut XorShift64Star) -> CurveTable {
    let floor = Watts::new(20.0 + 100.0 * rng.next_f64());
    let step = Watts::new(if rng.below(2) == 0 { 8.0 } else { 5.0 });
    let rungs = 1 + rng.below(16);
    let top = 3.0 * rng.next_f64();
    let perf: Vec<f64> = match rng.below(3) {
        0 => (0..=rungs).map(|k| top * k as f64 / rungs as f64).collect(),
        1 => {
            let knee = 1 + rng.below(rungs);
            (0..=rungs).map(|k| top * k.min(knee) as f64 / knee as f64).collect()
        }
        _ => (0..=rungs)
            .map(|k| {
                let x = 1.0 - k as f64 / rungs as f64;
                top * (1.0 - x * x)
            })
            .collect(),
    };
    let allocs = vec![None; perf.len()];
    CurveTable { floor, step, perf, allocs }
}

/// The indexed fill reproduces the reference rescan's winner rule bit
/// for bit: synthetic fleets whose nodes repeat a few classes (so keys
/// tie exactly) and whose classes sometimes sit within `GAIN_EPS`
/// chains of each other, the two real mixed fleets, and random live
/// subsets of an 8-class × 128-node fleet.
#[test]
fn indexed_fill_matches_the_reference_rescan() {
    let mut rng = XorShift64Star::new(0xD1FF_E2E7_0000_0015);
    let mut compared = 0;

    for case in 0..700 {
        let class_count = 1 + rng.below(6);
        let classes: Vec<CurveTable> = if case % 3 == 0 {
            // Clones of one curve, each one's slope raised by a fraction
            // of GAIN_EPS over the last, so keys chain within the record
            // threshold.
            let template = synthetic_curve(&mut rng);
            let nudge = rng.range_f64(0.05e-12, 0.5e-12);
            (0..class_count)
                .map(|j| {
                    let mut c = template.clone();
                    for (k, p) in c.perf.iter_mut().enumerate() {
                        *p += nudge * (j * k) as f64;
                    }
                    c
                })
                .collect()
        } else {
            (0..class_count).map(|_| synthetic_curve(&mut rng)).collect()
        };
        let n = 2 + rng.below(39);
        let picks: Vec<usize> = (0..n).map(|_| rng.below(classes.len())).collect();
        let nodes: Vec<NodeCurve<'_>> = picks
            .iter()
            .map(|&c| NodeCurve { floor: classes[c].floor, curve: &classes[c] })
            .collect();
        let weights: Vec<f64> = match rng.below(3) {
            0 => Vec::new(),
            1 => (0..n).map(|_| [1.0, 1.5, 2.0, 3.0][rng.below(4)]).collect(),
            _ => (0..n).map(|_| rng.range_f64(0.5, 4.0)).collect(),
        };
        let label = format!("synthetic case {case}");
        compared += check_against_reference(&label, &nodes, &weights, &mut rng);
    }

    let pool = Pool::new(2);
    for spec in [MIXED_SPEC, BENCH_SPEC] {
        let fleet = Fleet::build_with_pool(&parse_spec(spec).unwrap(), &pool).unwrap();
        let curves = fleet_curves(&fleet);
        for case in 0..24 {
            let weights: Vec<f64> = (0..curves.len()).map(|_| rng.range_f64(0.5, 4.0)).collect();
            let label = format!("{}-node fleet case {case}", curves.len());
            compared += check_against_reference(&label, &curves, &weights, &mut rng);
        }
    }

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
    let fleet = Fleet::build_with_pool(&parse_spec(&spec).unwrap(), &pool).unwrap();
    let curves = fleet_curves(&fleet);
    for case in 0..8 {
        let live_share = rng.range_f64(0.05, 0.4);
        let live: Vec<NodeCurve<'_>> =
            curves.iter().copied().filter(|_| rng.next_f64() < live_share).collect();
        let weights: Vec<f64> = (0..live.len()).map(|_| [1.0, 2.0, 3.0][rng.below(3)]).collect();
        let label = format!("1024-node fleet live subset {case} ({} nodes)", live.len());
        compared += check_against_reference(&label, &live, &weights, &mut rng);
    }
    assert!(compared >= 2000, "only {compared} fills compared");
}

/// A non-concave staircase curve: each rung adds a gain drawn mostly
/// from a three-value palette that holds an exact zero, so rungs repeat
/// and flat steps sit between steep ones, on 2, 4, 5 or 8 W rungs.
fn staircase_curve(rng: &mut XorShift64Star) -> CurveTable {
    let floor = Watts::new(20.0 + 10.0 * rng.below(10) as f64);
    let step = Watts::new([2.0, 4.0, 5.0, 8.0][rng.below(4)]);
    let palette = [rng.range_f64(0.1, 2.0), rng.range_f64(0.1, 2.0), 0.0];
    let mut perf = vec![if rng.below(2) == 0 { 0.0 } else { rng.next_f64() }];
    for _ in 0..1 + rng.below(20) {
        let gain = if rng.below(4) == 0 { rng.range_f64(0.0, 2.0) } else { palette[rng.below(3)] };
        perf.push(perf[perf.len() - 1] + gain);
    }
    let allocs = vec![None; perf.len()];
    CurveTable { floor, step, perf, allocs }
}

/// The fill against the reference rescan on fleets built to exercise
/// trajectory replay and its checks: staircase curves, whose rungs make
/// one node win several grants in a row; value-equal and nudged tables
/// at distinct addresses, which are distinct kinds holding equal keys or
/// keys within `GAIN_EPS`; kind-major and interleaved node orders; and
/// fleets of up to 200 nodes.
#[test]
fn indexed_fill_matches_the_reference_on_staircase_fleets() {
    let mut rng = XorShift64Star::new(0x57A1_C0DE_0000_0028);
    let mut compared = 0;
    for case in 0..160 {
        let mut classes: Vec<CurveTable> =
            (0..1 + rng.below(8)).map(|_| staircase_curve(&mut rng)).collect();
        // Twins at distinct addresses: value-equal, so their keys tie
        // exactly, or nudged up by a fraction of GAIN_EPS per rung, so
        // their keys chain within the record threshold.
        for _ in 0..rng.below(4) {
            let mut twin = classes[rng.below(classes.len())].clone();
            if rng.below(2) == 0 {
                let nudge = rng.range_f64(0.05e-12, 0.5e-12);
                for (k, p) in twin.perf.iter_mut().enumerate() {
                    *p += nudge * k as f64;
                }
            }
            classes.push(twin);
        }
        let n = if case % 16 == 0 { 150 + rng.below(51) } else { 2 + rng.below(48) };
        let mut picks: Vec<usize> = (0..n).map(|_| rng.below(classes.len())).collect();
        let order = if rng.below(2) == 0 {
            picks.sort_unstable();
            "kind-major"
        } else {
            "interleaved"
        };
        let nodes: Vec<NodeCurve<'_>> = picks
            .iter()
            .map(|&c| NodeCurve { floor: classes[c].floor, curve: &classes[c] })
            .collect();
        let class_weights: Vec<f64> =
            (0..classes.len()).map(|_| [1.0, 2.0, 3.0][rng.below(3)]).collect();
        let weights: Vec<f64> = match rng.below(3) {
            0 => Vec::new(),
            1 => picks.iter().map(|&c| class_weights[c]).collect(),
            _ => (0..n).map(|_| [1.0, 2.0][rng.below(2)]).collect(),
        };
        let label = format!("staircase case {case} ({order}, {} classes)", classes.len());
        compared += check_against_reference(&label, &nodes, &weights, &mut rng);
    }
    assert!(compared >= 480, "only {compared} fills compared");
}

/// The chain check on a trail's later picks (`touches_only(from, won)`
/// in `Trail::follow`), on a hand-built fleet of four nodes: `u`, `v` and
/// `w` of one kind `K`, and `m` of another kind, listed `u v m w`. A
/// 4 W grant crosses one 4 W rung, so every key is a rung gain. `K` gains
/// `g1`, `g2`, then 0.5 and `m` gains `h1`, with `g1 > g2 > h1` each
/// within `GAIN_EPS` (1e-12) of the next but `g1 > h1 + GAIN_EPS`.
///
/// `u` takes two grants and `v` follows it: after its first, `v`'s key
/// `g2` sits within `GAIN_EPS` of both its old level's `g1` (now `w`'s)
/// and `m`'s `h1`, which `g1` beats. `v` still wins in node order, but the
/// walk touched `m`, so the trail must be dropped. Kept, it would replay
/// both grants onto `w` when `w` next wins, yet after `w`'s first grant
/// `m` comes before `w` with a key that `g2` does not beat, so `m` takes
/// the last grant.
#[test]
fn a_trail_whose_later_pick_touches_a_third_level_is_not_replayed() {
    let curve = |perf: Vec<f64>| CurveTable {
        floor: Watts::new(50.0),
        step: Watts::new(4.0),
        allocs: vec![None; perf.len()],
        perf,
    };
    let (g1, g2, h1) = (1.0 + 0.6e-12, 1.0, 1.0 - 0.6e-12);
    let kind = curve(vec![0.0, g1, g1 + g2, g1 + g2 + 0.5]);
    let other = curve(vec![0.0, h1, h1 + 0.25]);
    let k = NodeCurve { floor: kind.floor, curve: &kind };
    let m = NodeCurve { floor: other.floor, curve: &other };
    let nodes = [k, k, m, k];
    let global = Watts::new(4.0 * 50.0 + 24.0);
    let grant = Watts::new(4.0);
    let got = fill_shares(&nodes, &[], global, grant, Objective::Throughput).unwrap();
    let want = reference::fill_shares(&nodes, &[], global, grant, Objective::Throughput);
    let bits = |s: &[Watts]| s.iter().map(|w| w.value().to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "the fill diverges from the reference rescan");
    assert_eq!(got, [58.0, 58.0, 54.0, 54.0].map(Watts::new), "m takes the last grant");
}
