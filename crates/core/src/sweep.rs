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
//! carried all the expensive points. Each solve is written once into
//! its own slot, with no lock, so the profile is deterministic —
//! bit-identical regardless of thread count or of which executor claimed
//! which chunk.
//!
//! Both public entry points run on one engine, which builds each
//! budget's grid, fans the union out as one pooled job, and splits the
//! points back per budget; the only thing that differs between them is
//! what the pool solves:
//!
//! * [`sweep_budget`] solves every point directly. It is the memo-free
//!   *reference*: `tests/sweep_curve_equivalence.rs` and the
//!   `sweep/curve-vs-budgets-speedup` bench both compare against it.
//! * [`sweep_curve`] solves each canonical solver key once. Before the
//!   pool runs, the calling thread keys every union-grid point with
//!   [`SolveMemo::key`] and groups equal keys; the pool then solves one
//!   point per key, and every other point with that key reads the
//!   result, patched to its own allocation by [`SolveMemo::reuse`]
//!   (counted in `sweep.curve_reuse_hits`). Adjacent budgets share most
//!   of their keys, so multi-budget curves should use it. Nothing is
//!   shared between calls: each call solves its own keys, so the work a
//!   call does depends only on its input, not on earlier calls or on the
//!   executor count.
//!
//! Grouping must stay cheap next to the solves it saves, in unoptimized
//! builds too, so it neither sorts nor hashes. A CPU key (and a
//! non-reclaiming card's) holds the processor cap, and the rest of it —
//! the DRAM bandwidth ceilings, the card cap, the memory level — only
//! grows with the memory cap. So among the points sharing one processor
//! cap, visited in ascending budget order, equal keys are adjacent, and
//! comparing each point's key with the last unique key of its processor
//! cap finds every duplicate. A reclaiming card's key leaves the
//! processor cap out; its points are grouped by memory level instead,
//! where the card cap only grows with the budget.
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
use pbc_powersim::{solve, NodeOperatingPoint, SolveKey, SolveMemo};
use pbc_trace::names;
use pbc_types::{usize_from_f64, AllocationSpace, PbcError, PowerAllocation, Result, Watts};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

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
    sweep_grids(problem, &[problem.budget], step, pool, None, |alloc| {
        solve(&problem.platform, &problem.workload, alloc)
    })
    // One budget in, one profile out.
    .map(|mut profiles| profiles.swap_remove(0))
}

/// One solve's outcome, written once into its own slot so assembly is
/// independent of execution order.
enum Slot {
    Point(NodeOperatingPoint),
    Infeasible,
    Failed(PbcError),
}

/// The sweep engine behind both entry points, generic over the
/// per-point evaluator so tests can inject failing or panicking solvers
/// without a special platform. Each budget's grid is built exactly as
/// [`sweep_budget`] defines it; the pool solves every point, or with
/// `dedup` one point per canonical key of that memo (see the module
/// docs), as one job under a `sweep` root span (one `sweep.worker` span
/// per participating executor), and the points are split back into one
/// profile per budget, in `budgets` order.
fn sweep_grids<F>(
    problem: &PowerBoundedProblem,
    budgets: &[Watts],
    step: Watts,
    pool: &Pool,
    dedup: Option<&SolveMemo>,
    eval: F,
) -> Result<Vec<SweepProfile>>
where
    F: Fn(PowerAllocation) -> Result<NodeOperatingPoint> + Sync,
{
    // The union grid: every budget's allocation space, tagged with the
    // budget it belongs to, and each budget's range of grid indices.
    let mut grid: Vec<(usize, PowerAllocation)> = Vec::new();
    let mut spans: Vec<Range<usize>> = Vec::with_capacity(budgets.len());
    for (bi, &budget) in budgets.iter().enumerate() {
        let space = AllocationSpace::new(
            budget,
            problem.proc_cap_range(),
            problem.mem_cap_range(),
            step,
        );
        let start = grid.len();
        grid.extend(space.iter().map(|alloc| (bi, alloc)));
        spans.push(start..grid.len());
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

    // `solves[j]` is the grid index the pool's `j`-th solve evaluates;
    // `reads[i]` is the solve grid point `i` takes its outcome from, or
    // `None` where the key already rejected the point as infeasible.
    let (solves, reads) = match dedup {
        Some(memo) => unique_keys(memo, budgets, &grid, &spans, problem.proc_cap_range().0, step),
        None => ((0..grid.len()).collect(), (0..grid.len()).map(Some).collect()),
    };

    // A real solver error flips `errored`, which short-circuits the
    // remaining solves (their slots stay empty; the sweep is failing
    // anyway).
    let slots: Vec<OnceLock<Slot>> = (0..solves.len()).map(|_| OnceLock::new()).collect();
    let errored = AtomicBool::new(false);
    let stats = {
        let sweep_span = pbc_trace::span(names::SPAN_SWEEP);
        let sweep_id = sweep_span.id();
        pool.run_wrapped(
            solves.len(),
            &|inner| {
                let _worker = pbc_trace::span_under(names::SPAN_SWEEP_WORKER, sweep_id);
                inner();
            },
            &|j| {
                if errored.load(Ordering::Relaxed) {
                    return;
                }
                let filled = match eval(grid[solves[j]].1) {
                    Ok(op) => Slot::Point(op),
                    Err(e) if e.is_infeasible() => Slot::Infeasible,
                    Err(e) => {
                        errored.store(true, Ordering::Relaxed);
                        Slot::Failed(e)
                    }
                };
                // Solve `j` is this task's alone: the slot is empty.
                let _ = slots[j].set(filled);
            },
        )
    };

    // Read every grid point's outcome in index order (ascending processor
    // cap within each budget). A duplicate key's point takes its key's
    // one solve, patched to its own allocation.
    let mut per_budget: Vec<Vec<SweepPoint>> = budgets.iter().map(|_| Vec::new()).collect();
    let (mut n_evaluated, mut n_infeasible, mut n_failed, mut n_unfilled, mut reused) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut first_error = None;
    for (i, (&(bi, alloc), &read)) in grid.iter().zip(&reads).enumerate() {
        let Some(j) = read else {
            n_infeasible += 1;
            continue;
        };
        match slots[j].get() {
            Some(Slot::Point(op)) => {
                n_evaluated += 1;
                reused += u64::from(solves[j] != i);
                let op = dedup.map_or(*op, |memo| memo.reuse(op, alloc));
                per_budget[bi].push(SweepPoint { alloc, op });
            }
            Some(Slot::Infeasible) => n_infeasible += 1,
            Some(Slot::Failed(e)) => {
                n_failed += 1;
                first_error.get_or_insert_with(|| e.clone());
            }
            None => n_unfilled += 1,
        }
    }
    evaluated.add(n_evaluated);
    infeasible.add(n_infeasible);
    errors.add(n_failed);
    if let Some(payload) = stats.panic {
        // Account for every point the cancelled job dropped, then
        // re-raise the panic on the calling thread. A dying evaluation
        // must never silently truncate the oracle.
        lost.add(n_unfilled);
        std::panic::resume_unwind(payload);
    }
    // A real solver error at the lowest failing index fails the sweep.
    if let Some(e) = first_error {
        return Err(e);
    }
    if dedup.is_some() {
        pbc_trace::cached_counter!(names::SOLVE_CACHE_MISSES).add(solves.len() as u64);
        pbc_trace::cached_counter!(names::SOLVE_CACHE_HITS).add(reused);
        pbc_trace::cached_counter!(names::SWEEP_CURVE_REUSE_HITS).add(reused);
    }

    Ok(budgets
        .iter()
        .zip(per_budget)
        .map(|(&budget, points)| SweepProfile {
            platform: problem.platform.id,
            workload: problem.workload.name.clone(),
            budget,
            points,
        })
        .collect())
}

/// Key every grid point on the calling thread and give each canonical
/// key one solve: the first of its points in ascending budget order.
/// Returns the grid index of each solve, and the solve each grid point
/// reads (`None` where the key rejected the point as infeasible). Keys
/// are compared only with the last unique key of the point's processor
/// cap rung, or of its memory level when the key leaves the processor
/// cap out (see the module docs for why that finds every duplicate).
fn unique_keys(
    memo: &SolveMemo,
    budgets: &[Watts],
    grid: &[(usize, PowerAllocation)],
    spans: &[Range<usize>],
    proc_min: Watts,
    step: Watts,
) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut order: Vec<usize> = (0..budgets.len()).collect();
    order.sort_by(|&a, &b| budgets[a].value().total_cmp(&budgets[b].value()));
    let step = step.value().max(1e-3);
    let mut solves = Vec::new();
    let mut reads = vec![None; grid.len()];
    // The last unique key per processor-cap rung, and per memory level.
    let mut by_rung: Vec<Option<(SolveKey, usize)>> = Vec::new();
    let mut by_level: Vec<Option<(SolveKey, usize)>> = Vec::new();
    for i in order.into_iter().flat_map(|bi| spans[bi].clone()) {
        let alloc = grid[i].1;
        let key = match memo.key(alloc) {
            Ok(key) => key,
            Err(e) if e.is_infeasible() => continue,
            // Any other rejection is its own solve, which fails the
            // same way in the pool.
            Err(_) => {
                solves.push(i);
                reads[i] = Some(solves.len() - 1);
                continue;
            }
        };
        let lane = match key.level_without_proc() {
            Some(level) => lane(&mut by_level, level),
            None => {
                let rung = usize_from_f64((alloc.proc - proc_min).value() / step).unwrap_or(0);
                lane(&mut by_rung, rung)
            }
        };
        let j = match lane {
            Some((last, j)) if *last == key => *j,
            _ => {
                solves.push(i);
                *lane = Some((key, solves.len() - 1));
                solves.len() - 1
            }
        };
        reads[i] = Some(j);
    }
    (solves, reads)
}

/// Lane `at` of `lanes`, growing the table to reach it.
fn lane<T>(lanes: &mut Vec<Option<T>>, at: usize) -> &mut Option<T> {
    if lanes.len() <= at {
        lanes.resize_with(at + 1, || None);
    }
    &mut lanes[at]
}

/// The shared-grid oracle: sweep *every* budget in one pooled job over
/// the union of the budgets' allocation grids, solving each canonical
/// solver key once.
///
/// Profiles are bit-identical to calling [`sweep_budget`] once per
/// budget (each budget's grid is constructed exactly as `sweep_budget`
/// constructs it, and the canonical keys are exact — see
/// `pbc_powersim::memo`), but the work is shared three ways: the
/// nominal reference time is computed once instead of per point,
/// allocations whose canonical solver inputs repeat across budgets are
/// solved once (the repeats are counted in `sweep.curve_reuse_hits`),
/// and the whole union grid load-balances as one job instead of N
/// fork-joins. The solves go to `solve.cache_misses` and the repeats to
/// `solve.cache_hits` too, so both counts are exact for a given input,
/// whatever the executor count.
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
    let memo = SolveMemo::fresh(&problem.platform, &problem.workload);
    sweep_grids(problem, budgets, step, pool, Some(&memo), |alloc| memo.solve_uncached(alloc))
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
            sweep_grids(&p, &[p.budget], DEFAULT_STEP, Pool::global(), None, |alloc| {
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
        let err = sweep_grids(&p, &[p.budget], DEFAULT_STEP, Pool::global(), None, |alloc| {
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
        let profile = sweep_grids(&p, &[p.budget], DEFAULT_STEP, Pool::global(), None, |alloc| {
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
