//! The exhaustive allocation sweep — the oracle of §6.3.
//!
//! For a fixed total budget the sweep evaluates every allocation on a
//! fixed power stepping (the paper notes its experimental sweeps do the
//! same, which is why the heuristic occasionally beats "the best found in
//! the experimental dataset"). Evaluations are independent, so the sweep
//! fans out across the persistent pool in [`pbc_par`], whose executors
//! claim small index chunks from one shared cursor: infeasible points
//! are ~100x cheaper to reject than feasible points are to solve, so
//! static chunking (the previous design) left threads idle while one
//! carried all the expensive points. Results are written to per-index
//! slots, so the profile is deterministic — bit-identical regardless of
//! thread count or of which executor claimed which chunk.
//!
//! Both public entry points run on one engine, which builds each
//! budget's grid, fans the union out as one pooled job, and splits the
//! points back per budget; the only thing that differs between them is
//! how a point is solved:
//!
//! * [`sweep_budget`] solves every point directly. It is the memo-free
//!   *reference*: `tests/sweep_curve_equivalence.rs` and the
//!   `sweep/curve-vs-budgets-speedup` bench both compare against it.
//! * [`sweep_curve`] solves through the class's shared [`SolveMemo`], so
//!   adjacent budgets reuse solver work (observable as
//!   `sweep.curve_reuse_hits`) instead of re-integrating the control
//!   loops per budget. Multi-budget curves should use it.
//!
//! The sweep is the *authority*, not the serving path. Steady-state
//! callers answering repeated budget changes should go through
//! [`crate::fastpath::CurveTable`], which precomputes a per-class ladder
//! through [`sweep_curve`] and serves allocations without any solver in
//! the loop. A caller that needs the exact optimum at several arbitrary
//! budgets runs one [`sweep_curve`] over them.
//!
//! ## Error contract
//!
//! The sweep distinguishes two failure classes, via
//! [`PbcError::is_infeasible`](pbc_types::PbcError::is_infeasible):
//!
//! * **Infeasible allocations** (budget too small, cap out of range) are
//!   an expected part of probing the boundary of the feasible region.
//!   They are counted (`sweep.points_infeasible`) and skipped; a budget
//!   where *every* allocation is infeasible yields an empty profile —
//!   the sweep-level signal that the budget is not schedulable at all.
//! * **Real solver errors** (I/O, malformed input, missing backend) fail
//!   the whole sweep with `Err`. A panicking worker propagates its panic
//!   to the caller. Earlier revisions swallowed both — an error-prone
//!   solver or a dying worker silently produced a *truncated* profile,
//!   which downstream code then treated as the oracle. The trace
//!   counters `sweep.points_lost` and `sweep.solver_errors` exist so
//!   that regression is observable: both must read zero on any run that
//!   returns `Ok`.

use crate::problem::PowerBoundedProblem;
use crate::profile::{SweepPoint, SweepProfile};
use pbc_par::Pool;
use pbc_powersim::{solve, NodeOperatingPoint, SolveMemo};
use pbc_trace::names;
use pbc_types::{AllocationSpace, PbcError, PowerAllocation, Result, Watts};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default sweep stepping, matching the coarse grid of the paper's
/// experiments (4 W on the CPU axis).
pub const DEFAULT_STEP: Watts = Watts::new(4.0);

/// Sweep every allocation of `budget` admissible on the problem's
/// platform, in `step`-watt increments of the processor cap.
///
/// ```
/// use pbc_core::{sweep_budget, PowerBoundedProblem, DEFAULT_STEP};
/// use pbc_platform::presets::ivybridge;
/// use pbc_types::Watts;
///
/// let problem = PowerBoundedProblem::new(
///     ivybridge(),
///     pbc_workloads::by_name("stream").unwrap().demand,
///     Watts::new(208.0),
/// ).unwrap();
/// let profile = sweep_budget(&problem, DEFAULT_STEP).unwrap();
/// // Fig. 1's headline: an order-of-magnitude spread across splits.
/// assert!(profile.spread() > 8.0);
/// ```
///
/// Allocations the platform rejects outright (GPU totals below the
/// minimum settable cap) yield an empty profile rather than an error —
/// an empty profile is the sweep-level signal that the budget is not
/// schedulable at all. Non-infeasibility solver errors fail the sweep
/// (see the module docs for the full error contract).
#[must_use = "the sweep result carries either the profile or the solver failure"]
pub fn sweep_budget(problem: &PowerBoundedProblem, step: Watts) -> Result<SweepProfile> {
    sweep_budget_with_pool(problem, step, Pool::global())
}

/// [`sweep_budget`] on an explicit pool (tests use this to pin the
/// executor count; production code wants [`Pool::global`]).
#[must_use = "the sweep result carries either the profile or the solver failure"]
pub fn sweep_budget_with_pool(
    problem: &PowerBoundedProblem,
    step: Watts,
    pool: &Pool,
) -> Result<SweepProfile> {
    sweep_grids(problem, &[problem.budget], step, pool, |alloc| {
        solve(&problem.platform, &problem.workload, alloc)
    })
    // One budget in, one profile out.
    .map(|mut profiles| profiles.swap_remove(0))
}

/// One evaluated grid point, written into its own slot so assembly is
/// independent of execution order.
enum Slot {
    Point(NodeOperatingPoint),
    Infeasible,
    Failed(PbcError),
}

/// The sweep engine behind both entry points, generic over the
/// per-point evaluator so tests can inject failing or panicking solvers
/// without a special platform. Each budget's grid is built exactly as
/// [`sweep_budget`] defines it; the union runs as one pooled job under a
/// `sweep` root span (one `sweep.worker` span per participating
/// executor), and the points are split back into one profile per
/// budget, in `budgets` order.
fn sweep_grids<F>(
    problem: &PowerBoundedProblem,
    budgets: &[Watts],
    step: Watts,
    pool: &Pool,
    eval: F,
) -> Result<Vec<SweepProfile>>
where
    F: Fn(PowerAllocation) -> Result<NodeOperatingPoint> + Sync,
{
    // The union grid: every budget's allocation space, tagged with the
    // budget it belongs to.
    let mut grid: Vec<(usize, PowerAllocation)> = Vec::new();
    for (bi, &budget) in budgets.iter().enumerate() {
        let space = AllocationSpace::new(
            budget,
            problem.proc_cap_range(),
            problem.mem_cap_range(),
            step,
        );
        grid.extend(space.iter().map(|alloc| (bi, alloc)));
    }

    // Every accounting counter is registered up front, so each one is
    // present in an exported trace even when it reads zero — absence
    // must never be mistaken for emptiness.
    let total = pbc_trace::counter(names::SWEEP_POINTS_TOTAL);
    let evaluated = pbc_trace::counter(names::SWEEP_POINTS_EVALUATED);
    let infeasible = pbc_trace::counter(names::SWEEP_POINTS_INFEASIBLE);
    let lost = pbc_trace::counter(names::SWEEP_POINTS_LOST);
    let errors = pbc_trace::counter(names::SWEEP_SOLVER_ERRORS);
    total.add(grid.len() as u64);

    // A real solver error flips `errored`, which short-circuits the
    // remaining points (their slots stay `None`; the sweep is failing
    // anyway).
    let slots: Vec<Mutex<Option<Slot>>> = (0..grid.len()).map(|_| Mutex::new(None)).collect();
    let errored = AtomicBool::new(false);
    let stats = {
        let sweep_span = pbc_trace::span(names::SPAN_SWEEP);
        let sweep_id = sweep_span.id();
        pool.run_wrapped(
            grid.len(),
            &|inner| {
                let _worker = pbc_trace::span_under(names::SPAN_SWEEP_WORKER, sweep_id);
                inner();
            },
            &|i| {
                if errored.load(Ordering::Relaxed) {
                    return;
                }
                let filled = match eval(grid[i].1) {
                    Ok(op) => {
                        evaluated.incr();
                        Slot::Point(op)
                    }
                    Err(e) if e.is_infeasible() => {
                        infeasible.incr();
                        Slot::Infeasible
                    }
                    Err(e) => {
                        errors.incr();
                        errored.store(true, Ordering::Relaxed);
                        Slot::Failed(e)
                    }
                };
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(filled);
            },
        )
    };
    if let Some(payload) = stats.panic {
        // Account for every point the cancelled job dropped, then
        // re-raise the panic on the calling thread. A dying evaluation
        // must never silently truncate the oracle.
        lost.add((grid.len() - stats.completed) as u64);
        std::panic::resume_unwind(payload);
    }

    // Drain the slots in index order (ascending processor cap within
    // each budget). A real solver error at the lowest failing index
    // fails the whole sweep.
    let mut per_budget: Vec<Vec<SweepPoint>> = budgets.iter().map(|_| Vec::new()).collect();
    for (slot, &(bi, alloc)) in slots.into_iter().zip(&grid) {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Slot::Failed(e)) => return Err(e),
            Some(Slot::Point(op)) => per_budget[bi].push(SweepPoint { alloc, op }),
            Some(Slot::Infeasible) | None => {}
        }
    }

    Ok(budgets
        .iter()
        .zip(per_budget)
        .map(|(&budget, mut points)| {
            points.sort_by(|a, b| a.alloc.proc.0.total_cmp(&b.alloc.proc.0));
            SweepProfile {
                platform: problem.platform.id,
                workload: problem.workload.name.clone(),
                budget,
                points,
            }
        })
        .collect())
}

/// The shared-grid oracle: sweep *every* budget in one pooled job over
/// the union of the budgets' allocation grids, solving through the
/// problem's shared [`SolveMemo`].
///
/// Profiles are bit-identical to calling [`sweep_budget`] once per
/// budget (each budget's grid is constructed exactly as `sweep_budget`
/// constructs it, and the memo's canonical keys are exact — see
/// `pbc_powersim::memo`), but the work is shared three ways: the
/// nominal reference time is computed once instead of per point,
/// allocations whose canonical solver inputs repeat across budgets are
/// served from cache (counted in `sweep.curve_reuse_hits`), and the
/// whole union grid load-balances as one job instead of N fork-joins.
///
/// `problem.budget` is ignored; `budgets` drives the curve. The error
/// contract is the per-budget sweep's: infeasible allocations are
/// skipped (a budget where everything is infeasible yields an empty
/// profile), real solver errors fail the whole curve, and a panicking
/// evaluation is re-raised after `sweep.points_lost` accounting.
#[must_use = "the curve result carries either the profiles or the solver failure"]
pub fn sweep_curve(
    problem: &PowerBoundedProblem,
    budgets: &[Watts],
    step: Watts,
) -> Result<Vec<SweepProfile>> {
    sweep_curve_with_pool(problem, budgets, step, Pool::global())
}

/// [`sweep_curve`] on an explicit pool.
#[must_use = "the curve result carries either the profiles or the solver failure"]
pub fn sweep_curve_with_pool(
    problem: &PowerBoundedProblem,
    budgets: &[Watts],
    step: Watts,
    pool: &Pool,
) -> Result<Vec<SweepProfile>> {
    let reuse_c = pbc_trace::counter(names::SWEEP_CURVE_REUSE_HITS);
    let memo = SolveMemo::for_problem(&problem.platform, &problem.workload);
    let reuse_hits = AtomicU64::new(0);
    let profiles = sweep_grids(problem, budgets, step, pool, |alloc| {
        let (outcome, hit) = memo.solve_traced(alloc);
        if hit {
            reuse_hits.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    });
    reuse_c.add(reuse_hits.load(Ordering::Relaxed));
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_types::PbcError;
    use pbc_workloads::by_name;

    /// Counters are process-global and unit tests share a process, so
    /// tests that assert on counter deltas serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn problem(bench: &str, budget: f64) -> PowerBoundedProblem {
        let b = by_name(bench).unwrap();
        let platform = if matches!(b.target, pbc_workloads::Target::Gpu) {
            titan_xp()
        } else {
            ivybridge()
        };
        PowerBoundedProblem::new(platform, b.demand, Watts::new(budget)).unwrap()
    }

    #[test]
    fn sweep_covers_the_space_in_order() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        assert!(profile.points.len() > 20, "only {} points", profile.points.len());
        for w in profile.points.windows(2) {
            assert!(w[0].alloc.proc < w[1].alloc.proc);
            assert!((w[0].alloc.total().value() - 240.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stream_208w_has_the_papers_headline_spread() {
        let _g = lock();
        // Fig. 1a: at a 208 W budget, optimally vs poorly coordinated
        // allocations differ by ~30x for CPU STREAM.
        let p = problem("stream", 208.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let spread = profile.spread();
        assert!(
            (8.0..=80.0).contains(&spread),
            "expected an order-of-magnitude spread, got {spread:.1}x"
        );
    }

    #[test]
    fn gpu_sweep_at_140w_has_the_papers_spread() {
        let _g = lock();
        // Fig. 1b: >30% best-to-worst at a 140 W card cap, and far milder
        // than the CPU spread because low caps are excluded.
        let p = problem("gpu-stream", 140.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let spread = profile.spread();
        assert!(
            (1.2..=3.0).contains(&spread),
            "expected a mild GPU spread, got {spread:.2}x"
        );
    }

    #[test]
    fn sub_minimum_gpu_budget_yields_empty_profile() {
        let _g = lock();
        let p = problem("sgemm", 80.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        assert!(profile.points.is_empty());
    }

    #[test]
    fn oracle_best_is_interior_for_balanced_budget() {
        let _g = lock();
        // At SRA's 240 W the optimum sits near (112, 116) — in the
        // interior of the sweep, not at an edge.
        let p = problem("sra", 240.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let best = profile.best().unwrap();
        let lo = profile.points.first().unwrap().alloc.proc;
        let hi = profile.points.last().unwrap().alloc.proc;
        assert!(best.alloc.proc > lo + Watts::new(8.0));
        assert!(best.alloc.proc < hi - Watts::new(8.0));
        assert!(
            (best.alloc.proc.value() - 112.0).abs() < 25.0,
            "optimum at {} vs the paper's ~112 W",
            best.alloc.proc
        );
    }

    #[test]
    fn worker_panic_propagates_instead_of_truncating() {
        let _g = lock();
        // The original bug: a panicking worker lost its whole batch and
        // the sweep returned a truncated profile as if nothing happened.
        let p = problem("sra", 240.0);
        let lost_before = pbc_trace::counter(names::SWEEP_POINTS_LOST).get();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep_grids(&p, &[p.budget], DEFAULT_STEP, Pool::global(), |alloc| {
                assert!(
                    alloc.proc.value() < 100.0,
                    "injected worker failure at {alloc:?}"
                );
                Ok(solve(&p.platform, &p.workload, alloc).unwrap())
            })
        }));
        assert!(result.is_err(), "the sweep swallowed a worker panic");
        let lost_after = pbc_trace::counter(names::SWEEP_POINTS_LOST).get();
        assert!(
            lost_after > lost_before,
            "sweep.points_lost did not account for the dropped batch"
        );
    }

    #[test]
    fn real_solver_error_fails_the_sweep() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let err = sweep_grids(&p, &[p.budget], DEFAULT_STEP, Pool::global(), |alloc| {
            if alloc.proc.value() > 100.0 {
                return Err(PbcError::Io("sensor read failed".into()));
            }
            solve(&p.platform, &p.workload, alloc)
        })
        .unwrap_err();
        assert!(matches!(err, PbcError::Io(_)), "got {err}");
        assert!(!err.is_infeasible());
    }

    #[test]
    fn infeasible_allocations_are_skipped_not_fatal() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let full = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let infeasible_before = pbc_trace::counter(names::SWEEP_POINTS_INFEASIBLE).get();
        // Reject the bottom half of the proc axis as out of range: the
        // sweep must skip those points and keep the rest.
        let profile = sweep_grids(&p, &[p.budget], DEFAULT_STEP, Pool::global(), |alloc| {
            if alloc.proc.value() < 112.0 {
                return Err(PbcError::CapOutOfRange {
                    component: "cpu".into(),
                    requested: alloc.proc,
                    min: Watts::new(112.0),
                    max: Watts::new(230.0),
                });
            }
            solve(&p.platform, &p.workload, alloc)
        })
        .unwrap()
        .swap_remove(0);
        let infeasible_after = pbc_trace::counter(names::SWEEP_POINTS_INFEASIBLE).get();
        assert!(!profile.points.is_empty());
        assert!(profile.points.len() < full.points.len());
        assert!(profile.points.iter().all(|pt| pt.alloc.proc.value() >= 112.0));
        assert!(infeasible_after > infeasible_before);
    }

    #[test]
    fn sweep_accounting_adds_up() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let before = pbc_trace::snapshot().counters;
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let after = pbc_trace::snapshot().counters;
        let delta = |name: &str| after[name] - before.get(name).copied().unwrap_or(0);
        assert_eq!(
            delta(names::SWEEP_POINTS_EVALUATED) + delta(names::SWEEP_POINTS_INFEASIBLE),
            delta(names::SWEEP_POINTS_TOTAL),
            "evaluated + infeasible must equal total"
        );
        assert_eq!(delta(names::SWEEP_POINTS_EVALUATED), profile.points.len() as u64);
        assert_eq!(delta(names::SWEEP_POINTS_LOST), 0);
        assert_eq!(delta(names::SWEEP_SOLVER_ERRORS), 0);
    }
}
