//! The oracle sweep under the clock, with its accounting audited.
//!
//! Each case sweeps one (workload, budget) pair and then checks the
//! trace counters' conservation law — `evaluated + infeasible = total`,
//! `lost = 0`, `solver_errors = 0` — so a timing run can never look
//! healthy while the sweep is quietly dropping points. With
//! `PBC_BENCH_JSON=<file>` set, the timings land there as JSON lines
//! (see `scripts/check.sh`, which keeps `BENCH_sweep.json` current).
//!
//! The headline comparison is the shared-grid oracle: one
//! `sweep_curve` over a 10-budget ladder against 10 independent
//! `sweep_budget` calls. The medians' ratio is recorded as a
//! `"type":"bench-ratio"` line and asserted to be at least 2x —
//! `scripts/check.sh` gates on the recorded value too.
//!
//! The cluster partitioner is timed on the same class mix at 32, 1024
//! and 4096 nodes; the 4096-node fill's per-node median over the
//! 32-node fill's is recorded as a second `"type":"bench-ratio"` line,
//! which `scripts/check.sh` gates at 2.5x. The fill's index holds one
//! entry per share level of each class, not one per node, and one
//! node's grants are replayed across its identical class-mates, so the
//! per-node cost must not grow with the fleet.
//!
//! The fleet coordinator's fault-free epoch, `coordinate` (the fill,
//! then COORD and the solver once per (class, share) pair, all on the
//! calling thread, so `PBC_THREADS` does not reach it), is timed on the
//! same mix at the same three sizes. Its records are not gated.
//!
//! Every ratio is recorded before the curve bar is asserted, so a run
//! that misses the bar still leaves the water-fill record for the gate.

use pbc_bench::{Bench, Timing};
use pbc_core::{sweep_budget, sweep_curve, PowerBoundedProblem, DEFAULT_STEP};
use pbc_platform::presets::{ivybridge, titan_xp};
use pbc_powersim::{solve, SolveMemo};
use pbc_trace::names;
use pbc_types::Watts;
use std::hint::black_box;

/// The speedup the shared-grid oracle must deliver over independent
/// per-budget sweeps (acceptance bar for the optimization).
const MIN_CURVE_SPEEDUP: f64 = 2.0;

/// Budgets on the ladder the shared-grid curve is timed over.
const CURVE_BUDGETS: usize = 10;

fn main() {
    let mut bench = Bench::from_env();
    let cases = [
        ("sweep/stream-208w", "stream", 208.0),
        ("sweep/sra-240w", "sra", 240.0),
        ("sweep/gpu-stream-140w", "gpu-stream", 140.0),
    ];
    for (label, workload, budget) in cases {
        let w = pbc_workloads::by_name(workload).expect("workload exists");
        let platform = if matches!(w.target, pbc_workloads::Target::Gpu) {
            titan_xp()
        } else {
            ivybridge()
        };
        let problem = PowerBoundedProblem::new(platform, w.demand, Watts::new(budget))
            .expect("problem is well-formed");
        bench.run(label, || {
            let profile = sweep_budget(black_box(&problem), DEFAULT_STEP).expect("sweep succeeds");
            assert!(!profile.points.is_empty(), "{label}: empty profile");
            profile
        });
    }

    let curve = curve_vs_independent_budgets(&mut bench);
    solve_memo(&mut bench);
    cluster_water_fill(&mut bench);
    cluster_coordinate(&mut bench);
    if let Some((independent, curve)) = curve {
        assert_curve_bar(independent, curve);
    }

    // The conservation law, over everything the timed runs accumulated.
    let counters = pbc_trace::snapshot().counters;
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        read(names::SWEEP_POINTS_EVALUATED) + read(names::SWEEP_POINTS_INFEASIBLE),
        read(names::SWEEP_POINTS_TOTAL),
        "sweep accounting must balance"
    );
    assert_eq!(read(names::SWEEP_POINTS_LOST), 0, "sweep lost points");
    assert_eq!(read(names::SWEEP_SOLVER_ERRORS), 0, "sweep hit solver errors");
    bench.finish();
}

/// One `sweep_curve` over a 10-budget ladder vs 10 independent
/// `sweep_budget` calls over the same ladder — the comparison the
/// shared-grid oracle exists to win. Records the ratio and returns both
/// timings; the caller asserts the bar.
fn curve_vs_independent_budgets(bench: &mut Bench) -> Option<(Timing, Timing)> {
    let w = pbc_workloads::by_name("stream").expect("workload exists");
    let problem = PowerBoundedProblem::new(ivybridge(), w.demand, Watts::new(208.0))
        .expect("problem is well-formed");
    let budgets: Vec<Watts> =
        (0..CURVE_BUDGETS).map(|i| Watts::new(160.0 + 8.0 * i as f64)).collect();

    let independent = bench.run("sweep/10-budgets-independent", || {
        budgets
            .iter()
            .map(|&budget| {
                let p = PowerBoundedProblem {
                    platform: problem.platform.clone(),
                    workload: problem.workload.clone(),
                    budget,
                };
                let profile = sweep_budget(black_box(&p), DEFAULT_STEP).expect("sweep succeeds");
                assert!(!profile.points.is_empty());
                profile
            })
            .collect::<Vec<_>>()
    });
    let curve = bench.run("sweep/10-budgets-curve", || {
        let profiles = sweep_curve(black_box(&problem), black_box(&budgets), DEFAULT_STEP)
            .expect("curve succeeds");
        assert_eq!(profiles.len(), budgets.len());
        profiles
    });

    let (independent, curve) = (independent?, curve?);
    bench.record_ratio("sweep/curve-vs-budgets-speedup", independent.median_ns / curve.median_ns);
    Some((independent, curve))
}

/// Fail the bench when the shared-grid curve misses [`MIN_CURVE_SPEEDUP`].
fn assert_curve_bar(independent: Timing, curve: Timing) {
    let speedup = independent.median_ns / curve.median_ns;
    assert!(
        speedup >= MIN_CURVE_SPEEDUP,
        "shared-grid curve over {CURVE_BUDGETS} budgets must be >= {MIN_CURVE_SPEEDUP}x faster \
         than independent per-budget sweeps, measured {speedup:.2}x \
         (sweep/10-budgets-independent median {:.0} ns, min {:.0} ns; \
         sweep/10-budgets-curve median {:.0} ns, min {:.0} ns)",
        independent.median_ns,
        independent.min_ns,
        curve.median_ns,
        curve.min_ns,
    );
}

/// The memo's hit path against the direct solver it caches — the cost a
/// repeated canonical allocation pays after the first solve.
fn solve_memo(bench: &mut Bench) {
    let w = pbc_workloads::by_name("stream").expect("workload exists");
    let problem = PowerBoundedProblem::new(ivybridge(), w.demand, Watts::new(208.0))
        .expect("problem is well-formed");
    let profile = sweep_budget(&problem, DEFAULT_STEP).expect("sweep succeeds");
    let alloc = profile.best().expect("feasible point").alloc;

    bench.run("solve/cpu-direct", || {
        solve(
            black_box(&problem.platform),
            black_box(&problem.workload),
            black_box(alloc),
        )
        .expect("solve succeeds")
    });

    let memo = SolveMemo::fresh(&problem.platform, &problem.workload);
    bench.run("solve/memo-hit", || {
        memo.solve(black_box(alloc)).expect("solve succeeds")
    });
}

/// The cluster partitioner on a profiled 32-node mixed fleet and on the
/// same mix scaled to 1024 and 4096 nodes — the cost of one
/// water-filling pass at 130 W per node, with class profiling kept
/// outside the timed region (it is a one-time setup cost).
fn cluster_water_fill(bench: &mut Bench) {
    use pbc_cluster::{fill_shares, Fleet, NodeCurve, Objective, DEFAULT_GRANT};
    let fleet = Fleet::build(&cluster_spec(1)).expect("fleet profiles");
    let mut per_node_ns = Vec::new();
    for (label, scale) in [
        ("cluster/water-fill-32", 1),
        ("cluster/water-fill-1024", 32),
        ("cluster/water-fill-4096", 128),
    ] {
        // Every spec line's count times `scale`, in spec order — the
        // node list `Fleet::build` gives the scaled spec.
        let curves: Vec<NodeCurve> = fleet
            .nodes
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, scale))
            .map(|c| NodeCurve {
                floor: fleet.classes[c].floor,
                curve: &fleet.classes[c].curve,
            })
            .collect();
        let global = Watts::new(130.0 * curves.len() as f64);
        let timing = bench.run(label, || {
            let (curves, global) = (black_box(&curves), black_box(global));
            let shares = fill_shares(curves, &[], global, DEFAULT_GRANT, Objective::Throughput)
                .expect("partition succeeds");
            assert_eq!(shares.len(), curves.len());
            shares
        });
        per_node_ns.push(timing.map(|t| t.median_ns / curves.len() as f64));
    }
    if let [Some(small), _, Some(large)] = per_node_ns[..] {
        bench.record_ratio("cluster/water-fill-per-node-4096-vs-32", large / small);
    }
}

/// The 32-node class mix the cluster benches share, every count times
/// `scale`.
fn cluster_spec(scale: usize) -> Vec<pbc_cluster::SpecLine> {
    [
        (10, "ivybridge", "stream"),
        (8, "haswell", "dgemm"),
        (6, "ivybridge", "sra"),
        (5, "titan-xp", "sgemm"),
        (3, "titan-v", "minife"),
    ]
    .into_iter()
    .map(|(count, platform, workload)| pbc_cluster::SpecLine {
        count: count * scale,
        platform: platform.to_string(),
        bench: workload.to_string(),
    })
    .collect()
}

/// One fault-free fleet epoch, `coordinate`, at the water-fill bench's
/// sizes and 130 W per node. Each fleet is built (its classes profiled)
/// from the scaled spec outside the timed region.
fn cluster_coordinate(bench: &mut Bench) {
    use pbc_cluster::{Fleet, FleetCoordinator};
    for (label, scale) in [
        ("cluster/coordinate-32", 1),
        ("cluster/coordinate-1024", 32),
        ("cluster/coordinate-4096", 128),
    ] {
        let fleet = Fleet::build(&cluster_spec(scale)).expect("fleet profiles");
        let global = Watts::new(130.0 * fleet.len() as f64);
        let coord = FleetCoordinator::new(fleet, global).expect("the budget covers the floors");
        bench.run(label, || {
            let decision = black_box(&coord).coordinate().expect("epoch");
            assert!(decision.aggregate_perf > 0.0, "{label}: the partition does no work");
            decision
        });
    }
}
