//! The steady-state fast path's contract, in the same spirit as
//! `sweep_curve_equivalence.rs`: every shortcut must be *provably* the
//! oracle in disguise.
//!
//! * [`pbc_core::WarmOracle`] — the warm-start outward search — must be
//!   bit-identical, field by field, to a cold full-grid
//!   [`pbc_core::sweep_budget`] best point, across budget deltas of any
//!   size and direction, across pool sizes, and while the shared memo
//!   registry churns past its capacity bound.
//! * [`pbc_core::CurveTable`] — the precomputed interpolation table —
//!   must serve allocations that (a) never exceed the queried budget,
//!   (b) re-solve to exactly the stored rung performance, and (c)
//!   interpolate performance within the adjacent-rung gap of the true
//!   solver at off-grid budgets.
//! * `OnlineCoordinator::set_budget` with a table attached must be
//!   served off the table (counted under `fastpath.table_hits`), with
//!   no solver in the loop.

use pbc_core::{
    sweep_budget, sweep_budget_with_pool, CurveTable, OnlineCoordinator, PowerBoundedProblem,
    SweepPoint, WarmOracle, DEFAULT_STEP,
};
use pbc_par::Pool;
use pbc_platform::presets::{ivybridge, titan_xp};
use pbc_powersim::SolveMemo;
use pbc_types::{PowerAllocation, Watts};
use pbc_workloads::by_name;

fn cpu_problem(bench: &str, budget: f64) -> PowerBoundedProblem {
    PowerBoundedProblem::new(ivybridge(), by_name(bench).unwrap().demand, Watts::new(budget))
        .unwrap()
}

fn gpu_problem(bench: &str, budget: f64) -> PowerBoundedProblem {
    PowerBoundedProblem::new(titan_xp(), by_name(bench).unwrap().demand, Watts::new(budget))
        .unwrap()
}

/// Exact comparison of a warm result against the cold sweep's best at
/// the same budget: same feasibility verdict, and on the `Some` side
/// every field bit-equal (`SweepPoint: PartialEq` compares the f64
/// fields exactly).
fn assert_matches_cold(
    warm: Option<SweepPoint>,
    problem: &PowerBoundedProblem,
    pool: Option<&Pool>,
) {
    let cold = match pool {
        Some(p) => sweep_budget_with_pool(problem, DEFAULT_STEP, p).unwrap(),
        None => sweep_budget(problem, DEFAULT_STEP).unwrap(),
    };
    match (warm, cold.best()) {
        (Some(w), Some(c)) => {
            assert_eq!(&w, c, "warm result diverges at budget {}", problem.budget);
        }
        (None, None) => {}
        (w, c) => panic!(
            "feasibility verdicts diverge at budget {}: warm {w:?} vs cold {c:?}",
            problem.budget
        ),
    }
}

/// Budget trajectories the re-solver must track exactly: small steps up,
/// small steps down, off-grid jitter, and cliff jumps.
fn delta_trajectory(base: f64) -> Vec<f64> {
    vec![
        base,
        base + 4.0,
        base + 8.0,
        base + 5.5, // off-grid
        base - 4.0,
        base - 20.0,
        base + 60.0, // cliff up
        base - 70.0, // cliff down
        base + 0.25, // sub-step jitter
        base,
    ]
}

#[test]
fn warm_resolve_is_bit_identical_to_cold_sweeps_cpu() {
    for bench in ["stream", "sra", "dgemm"] {
        let mut oracle = WarmOracle::new(&cpu_problem(bench, 208.0), DEFAULT_STEP);
        for budget in delta_trajectory(208.0) {
            let problem = cpu_problem(bench, budget);
            let warm = oracle.solve(Watts::new(budget)).unwrap();
            assert_matches_cold(warm, &problem, None);
        }
    }
}

#[test]
fn warm_resolve_is_bit_identical_to_cold_sweeps_gpu() {
    let mut oracle = WarmOracle::new(&gpu_problem("sgemm", 200.0), DEFAULT_STEP);
    // Includes budgets below the settable card range: the warm search
    // must agree with the cold sweep's *empty* verdict there, and
    // recover bit-exactly when the budget comes back.
    for budget in [200.0, 192.0, 95.0, 80.0, 200.0, 250.0, 204.5] {
        let problem = gpu_problem("sgemm", budget);
        let warm = oracle.solve(Watts::new(budget)).unwrap();
        assert_matches_cold(warm, &problem, None);
    }
}

#[test]
fn warm_resolve_matches_cold_across_pool_sizes() {
    // The warm path is serial by construction; the *cold* reference runs
    // on pools of several sizes. Equality across all of them pins both
    // determinism claims at once.
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(threads);
        let mut oracle = WarmOracle::new(&cpu_problem("sra", 220.0), DEFAULT_STEP);
        for budget in [220.0, 216.0, 228.0, 180.0, 240.0] {
            let problem = cpu_problem("sra", budget);
            let warm = oracle.solve(Watts::new(budget)).unwrap();
            assert_matches_cold(warm, &problem, Some(&pool));
        }
    }
}

#[test]
fn warm_resolve_survives_memo_registry_churn() {
    let mut oracle = WarmOracle::new(&cpu_problem("stream", 208.0), DEFAULT_STEP);
    assert_matches_cold(
        oracle.solve(Watts::new(208.0)).unwrap(),
        &cpu_problem("stream", 208.0),
        None,
    );
    // Churn the shared memo registry well past its capacity bound so the
    // oracle's fingerprint is evicted. The oracle holds its own Arc, so
    // its cache — and its bit-exactness — must survive.
    let platform = ivybridge();
    for i in 0..70 {
        let mut demand = by_name("dgemm").unwrap().demand;
        for (_, phase) in &mut demand.phases {
            phase.arithmetic_intensity += 0.001 * (i + 1) as f64;
        }
        let _ = SolveMemo::for_problem(&platform, &demand);
    }
    for budget in [204.0, 212.0, 196.0, 208.0] {
        let problem = cpu_problem("stream", budget);
        let warm = oracle.solve(Watts::new(budget)).unwrap();
        assert_matches_cold(warm, &problem, None);
    }
}

#[test]
fn warm_hits_are_counted() {
    let before = pbc_trace::counter(pbc_trace::names::SOLVE_WARM_HITS).get();
    let mut oracle = WarmOracle::new(&cpu_problem("sra", 208.0), DEFAULT_STEP);
    let _ = oracle.solve(Watts::new(208.0)).unwrap(); // cold
    let _ = oracle.solve(Watts::new(212.0)).unwrap(); // warm
    let _ = oracle.solve(Watts::new(204.0)).unwrap(); // warm
    let after = pbc_trace::counter(pbc_trace::names::SOLVE_WARM_HITS).get();
    assert!(
        after >= before + 2,
        "two seeded re-solves must count as warm hits ({before} -> {after})"
    );
}

#[test]
fn table_allocations_respect_budgets_and_resolve_to_rung_perf() {
    let platform = ivybridge();
    let demand = by_name("stream").unwrap().demand;
    let table = CurveTable::profile(&platform, &demand).unwrap();
    let mut checked = 0;
    let mut b = table.floor;
    while b <= table.ceiling() {
        if let Some(alloc) = table.alloc_at(b) {
            // (a) Budget safety: a served allocation never overdraws.
            assert!(
                alloc.total().value() <= b.value() + 1e-9,
                "table served {alloc} for budget {b}"
            );
            // (b) Rung fidelity: re-solving the served allocation gives
            // back the stored rung performance, bit for bit.
            let k = ((b - table.floor).value() / table.step.value()).floor() as usize;
            let k = k.min(table.perf.len() - 1);
            let op = pbc_powersim::solve(&platform, &demand, alloc).unwrap();
            assert_eq!(
                op.perf_rel.to_bits(),
                table.perf[k].to_bits(),
                "rung {k} perf diverges from a direct re-solve"
            );
            checked += 1;
        }
        b = b + table.step;
    }
    assert!(checked > 5, "the table should serve most rungs ({checked})");
}

#[test]
fn table_interpolation_is_within_the_adjacent_rung_gap() {
    let platform = ivybridge();
    let demand = by_name("sra").unwrap().demand;
    let table = CurveTable::profile(&platform, &demand).unwrap();
    // Probe deliberately off-grid budgets strictly inside the sampled
    // range; the interpolated value and the true oracle value both live
    // between the bracketing rungs (§3.1 monotonicity), so they can
    // disagree by at most the rung gap.
    for frac in [0.2, 0.5, 0.8] {
        for k in [1usize, 3, 7] {
            if k + 1 >= table.perf.len() {
                continue;
            }
            let b = table.floor + table.step * (k as f64 + frac);
            let problem =
                PowerBoundedProblem::new(platform.clone(), demand.clone(), b).unwrap();
            let truth = sweep_budget(&problem, DEFAULT_STEP)
                .unwrap()
                .perf_max();
            let gap = (table.perf[k + 1] - table.perf[k]).abs();
            let err = (table.perf_at(b) - truth).abs();
            assert!(
                err <= gap + 1e-6,
                "off-grid budget {b}: interp err {err} exceeds rung gap {gap}"
            );
        }
    }
}

#[test]
fn set_budget_is_served_off_the_table() {
    let platform = ivybridge();
    let demand = by_name("stream").unwrap().demand;
    let table = CurveTable::shared(&platform, &demand).unwrap();
    let budget = Watts::new(208.0);
    let mut coord =
        OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO)
            .with_table(std::sync::Arc::clone(&table));
    let hits_before = pbc_trace::counter(pbc_trace::names::FASTPATH_TABLE_HITS).get();
    let target = Watts::new(180.0);
    let expected = table.alloc_at(target).expect("in-range budget must serve");
    assert_eq!(coord.set_budget(target), pbc_core::BudgetOutcome::Applied);
    let hits_after = pbc_trace::counter(pbc_trace::names::FASTPATH_TABLE_HITS).get();
    assert_eq!(coord.best(), expected, "set_budget must seed from the table");
    assert!(
        hits_after > hits_before,
        "a table-served budget change must count a table hit \
         ({hits_before} -> {hits_after})"
    );
    assert!(coord.best().total() <= target, "served split must respect the new budget");
}
