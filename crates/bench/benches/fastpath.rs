//! The steady-state fast path under the clock: what a budget change
//! costs once a class table exists.
//!
//! The headline is `fastpath/set-budget-table` — an
//! `OnlineCoordinator::set_budget` call served off a precomputed
//! `CurveTable`, alternating between two budgets so every call takes the
//! real `Applied` path. It is compared against `fastpath/cold-solve`
//! (one direct solver call, the *minimum* conceivable cost of answering
//! a budget change with the solver in the loop) and the medians' ratio
//! is recorded as the `fastpath/set-budget-vs-cold-solve`
//! `"type":"bench-ratio"` line. The ratio is asserted ≥ 10× here and
//! gated again in `scripts/check.sh`, next to the sweep-curve gate.

use pbc_bench::Bench;
use pbc_core::{
    sweep_budget, BudgetOutcome, CurveTable, OnlineCoordinator, PowerBoundedProblem, DEFAULT_STEP,
};
use pbc_platform::presets::ivybridge;
use pbc_powersim::solve;
use pbc_types::{PowerAllocation, Watts};
use std::hint::black_box;

/// The speedup a table-served `set_budget` must deliver over a single
/// direct solve (acceptance bar for the steady-state fast path).
const MIN_FASTPATH_SPEEDUP: f64 = 10.0;

fn main() {
    let mut bench = Bench::from_env();
    let w = pbc_workloads::by_name("stream").expect("workload exists");
    let platform = ivybridge();
    let problem = PowerBoundedProblem::new(platform.clone(), w.demand.clone(), Watts::new(208.0))
        .expect("problem is well-formed");

    set_budget_vs_cold_solve(&mut bench, &problem);
    bench.finish();
}

/// A table-served budget change against one direct solver call.
fn set_budget_vs_cold_solve(bench: &mut Bench, problem: &PowerBoundedProblem) {
    // Table construction is the one-time setup cost; it stays outside
    // the timed region (its cost is what `fastpath.table_rebuilds`
    // makes visible in production).
    let table = CurveTable::shared(&problem.platform, &problem.workload)
        .expect("table profiles");
    let budget_a = Watts::new(180.0);
    let budget_b = Watts::new(196.0);
    assert!(table.alloc_at(budget_a).is_some() && table.alloc_at(budget_b).is_some());

    let start = PowerAllocation::split(problem.budget, 0.5);
    let mut coord = OnlineCoordinator::new(problem.budget, start, Watts::ZERO).with_table(table);
    let mut flip = false;
    let table_ns = bench.run("fastpath/set-budget-table", || {
        // Alternate so every call is a real budget *change*, never the
        // `Unchanged` early-out.
        flip = !flip;
        let next = if flip { budget_a } else { budget_b };
        let outcome = coord.set_budget(black_box(next));
        assert!(matches!(outcome, BudgetOutcome::Applied));
        coord.best()
    });

    // The floor of any solver-in-the-loop design: a single solve of one
    // already-known allocation (a full re-optimization sweeps dozens).
    let alloc = sweep_budget(problem, DEFAULT_STEP)
        .expect("sweep succeeds")
        .best()
        .expect("feasible point")
        .alloc;
    let solve_ns = bench.run("fastpath/cold-solve", || {
        solve(
            black_box(&problem.platform),
            black_box(&problem.workload),
            black_box(alloc),
        )
        .expect("solve succeeds")
    });

    if let (Some(table_ns), Some(solve_ns)) = (table_ns, solve_ns) {
        let speedup = solve_ns / table_ns;
        bench.record_ratio("fastpath/set-budget-vs-cold-solve", speedup);
        assert!(
            speedup >= MIN_FASTPATH_SPEEDUP,
            "a table-served set_budget must be >= {MIN_FASTPATH_SPEEDUP}x faster than even \
             one direct solve, measured {speedup:.2}x",
        );
    }
}
