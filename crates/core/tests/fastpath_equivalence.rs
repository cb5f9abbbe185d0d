//! The steady-state fast path's contract, in the same spirit as
//! `sweep_curve_equivalence.rs`: the table must be *provably* the
//! oracle in disguise.
//!
//! * [`pbc_core::CurveTable`] — the precomputed interpolation table —
//!   must serve allocations that (a) never exceed the queried budget,
//!   (b) re-solve to exactly the stored rung performance, and (c)
//!   interpolate performance within the adjacent-rung gap of the true
//!   solver at off-grid budgets.
//! * `OnlineCoordinator::set_budget` with a table attached must be
//!   served off the table (counted under `fastpath.table_hits`), with
//!   no solver in the loop.
//!
//! The exact optimum at an arbitrary budget is `sweep_curve`'s, held
//! bit-identical to per-budget sweeps by `sweep_curve_equivalence.rs`.

use pbc_core::{sweep_budget, CurveTable, OnlineCoordinator, PowerBoundedProblem, DEFAULT_STEP};
use pbc_platform::presets::ivybridge;
use pbc_types::{PowerAllocation, Watts};
use pbc_workloads::by_name;

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
