//! Online dynamic power coordination — the paper's stated future work
//! ("we will investigate how to adapt this algorithm to support online
//! dynamic power budgeting and distribution").
//!
//! [`OnlineCoordinator`] needs **no offline profiling at all**. It starts
//! from any feasible split and hill-climbs: each epoch it observes the
//! node (performance surrogate plus per-component actual draws), tries a
//! one-step power shift in the more promising direction, keeps it if the
//! observed performance improved, and reverts otherwise. The §3.4
//! structure guarantees this works: for a fixed budget, performance as a
//! function of the split is unimodal (rising through scenario IV/II,
//! peaking at the balance point, falling through III/V), so greedy local
//! search converges to the global optimum without a model.
//!
//! The *direction* heuristic uses the same signal the paper's
//! categorization exposes: a component drawing well under its cap has
//! slack (scenario II's memory, scenario III's CPU) — shift watts away
//! from the slack toward the constrained side first.

use crate::fastpath::CurveTable;
use pbc_powersim::NodeOperatingPoint;
use pbc_trace::names;
use pbc_types::{PowerAllocation, Watts, CAP_QUANTUM};
use std::sync::Arc;

/// How far a reported cap may sit from the cap that was issued before
/// [`check_report`] judges the report stale. The enforcement layer
/// writes RAPL limits as integer microwatts ([`CAP_QUANTUM`]), so a
/// faithfully enforced cap can still read back up to one quantum off
/// the request; anything wider means the node is running on different
/// caps than were asked for.
const STALE_CAP_TOLERANCE: f64 = CAP_QUANTUM;

/// Watts moved per accepted step. The first probes must clear the
/// throttle/duty quantization steps (a ~10 W-wide plateau in deep
/// scenario IV), so the initial stride is wide; [`DECAY`] brings the
/// endgame down to [`MIN_STEP`] granularity.
const STEP: Watts = Watts::new(16.0);
/// The search converges once the step shrinks below this.
const MIN_STEP: Watts = Watts::new(1.0);
/// Multiplicative step decay after a rejected probe in both directions.
const DECAY: f64 = 0.5;
/// Relative performance improvement required to accept a move (guards
/// against measurement noise in real deployments).
const ACCEPT_MARGIN: f64 = 0.002;
/// Performance surrogates above this are rejected as sensor garbage
/// (`perf_rel` is normalized to unbounded performance, so honest
/// readings sit in `(0, 1]` with a little calibration headroom).
const MAX_CREDIBLE_PERF: f64 = 8.0;
/// Consecutive over-budget observations tolerated before the watchdog
/// degrades to the fallback allocation.
const WATCHDOG_PATIENCE: u32 = 3;
/// Fractional overdraw (`total > budget * (1 + tolerance)`) that counts
/// as a budget violation for the watchdog.
const OVERDRAW_TOLERANCE: f64 = 0.05;

/// What [`OnlineCoordinator::set_budget`] did with a requested budget
/// change. Rejections are counted under `online.rejected_budgets` and
/// leave the search state untouched — the satellite bug was that a NaN
/// or negative budget silently vanished (and a below-minimum one
/// poisoned the split the search re-converges from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a rejected budget change means the coordinator is still on the old budget"]
pub enum BudgetOutcome {
    /// The budget changed; the search re-opened from the rescaled split.
    Applied,
    /// The requested budget equals the current one; nothing to do.
    Unchanged,
    /// Rejected: NaN or infinite.
    RejectedNonFinite,
    /// Rejected: zero, negative, or below the coordinator's minimum
    /// budget.
    RejectedBelowMinimum,
}

/// What [`OnlineCoordinator::observe`] did with one reported operating
/// point. Rejections are counted under `online.rejected_observations`;
/// watchdog trips under `online.fallbacks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationOutcome {
    /// The observation passed validation and drove the search.
    Used,
    /// Rejected: non-finite or negative performance surrogate (the NaN
    /// that used to wedge `best` comparisons forever).
    RejectedNonFinite,
    /// Rejected: physically implausible (absurd performance, invalid or
    /// negative component power).
    RejectedOutOfRange,
    /// Rejected: the observation's allocation does not match the probe
    /// we issued — a stale sample, or an enforcement failure left the
    /// node running on old caps. Judging the probe with it would credit
    /// the wrong split.
    RejectedStale,
    /// Admitted, but it extended an over-budget streak past the
    /// watchdog's patience: the search degraded to the known-safe
    /// fallback allocation and restarted.
    TrippedWatchdog,
}

/// The report gate both coordinators share. A report passes when its
/// performance surrogate is finite, non-negative and at most
/// `MAX_CREDIBLE_PERF` (8.0), every reported power is a valid wattage, and
/// every `(reported, issued)` cap pair agrees within one enforcement
/// quantum; a NaN cap on either side never agrees. The first failing
/// check names the rejection. Nothing is allocated: `observe` runs this
/// on every sample.
#[inline]
#[must_use]
pub fn check_report(perf: f64, powers: &[Watts], caps: &[(Watts, Watts)]) -> ObservationOutcome {
    if !perf.is_finite() || perf < 0.0 {
        return ObservationOutcome::RejectedNonFinite;
    }
    if perf > MAX_CREDIBLE_PERF || !powers.iter().all(|p| p.is_valid()) {
        return ObservationOutcome::RejectedOutOfRange;
    }
    if !caps.iter().all(|&(seen, issued)| (seen - issued).abs().value() <= STALE_CAP_TOLERANCE) {
        return ObservationOutcome::RejectedStale;
    }
    ObservationOutcome::Used
}

/// Where the search currently stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Probe shifting toward the processor.
    TryTowardProc,
    /// Probe shifting toward memory.
    TryTowardMem,
    /// Both directions failed at the current step size: shrink.
    Shrink,
    /// Step size below minimum: hold the best-known split.
    Converged,
}

/// A model-free, feedback-driven cross-component coordinator.
///
/// Drive it with [`OnlineCoordinator::next_allocation`] /
/// [`OnlineCoordinator::observe`]: ask for the split to apply for the
/// next epoch, run the epoch, report the observed operating point back.
///
/// ```
/// use pbc_core::OnlineCoordinator;
/// use pbc_platform::presets::ivybridge;
/// use pbc_powersim::solve;
/// use pbc_types::{PowerAllocation, Watts};
///
/// let node = ivybridge();
/// let stream = pbc_workloads::by_name("stream").unwrap();
/// let budget = Watts::new(208.0);
/// let mut tuner =
///     OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
/// while !tuner.converged() && tuner.epochs() < 100 {
///     let alloc = tuner.next_allocation();
///     let op = solve(&node, &stream.demand, alloc).unwrap();
///     tuner.observe(&op);
/// }
/// assert!(tuner.converged());
/// ```
#[derive(Debug, Clone)]
pub struct OnlineCoordinator {
    /// Smallest budget [`Self::set_budget`] accepts.
    min_budget: Watts,
    budget: Watts,
    /// The starting split's proc fraction — the known-safe fallback the
    /// watchdog returns to (rescaled to the live budget).
    initial_fraction: f64,
    best: PowerAllocation,
    /// Measured performance of `best`; `None` until the baseline epoch
    /// has been observed (an explicit state, where a `NEG_INFINITY`
    /// sentinel compared with `==` used to stand in for it).
    best_perf: Option<f64>,
    pending: Option<PowerAllocation>,
    /// Optional steady-state fast path: a precomputed oracle table for
    /// this node's `(platform, workload-class)`. When attached,
    /// [`Self::set_budget`] seeds the re-opened search from the table's
    /// optimum instead of rescaling the old ratio.
    table: Option<Arc<CurveTable>>,
    phase: Phase,
    step: Watts,
    epochs: usize,
    overdraw_streak: u32,
}

impl OnlineCoordinator {
    /// Start a search at `initial` (any feasible split of `budget`; an
    /// even split is a fine cold start). [`Self::set_budget`] rejects
    /// budgets below `min_budget`: callers that know the platform pass
    /// `platform.min_node_power()`, and zero only screens out
    /// non-positive budgets.
    pub fn new(budget: Watts, initial: PowerAllocation, min_budget: Watts) -> Self {
        Self {
            min_budget,
            budget,
            initial_fraction: initial.proc_fraction(),
            best: initial,
            best_perf: None,
            pending: None,
            table: None,
            phase: Phase::TryTowardProc,
            step: STEP,
            epochs: 0,
            overdraw_streak: 0,
        }
    }

    /// Attach the steady-state fast path: a shared oracle table for this
    /// node's class (see [`CurveTable::shared`]). Budget changes then
    /// restart the search from the table's optimum for the new budget —
    /// already at (or within one table rung of) the peak — instead of
    /// the rescaled old ratio, and [`Self::set_budget`] itself never
    /// touches a solver.
    #[must_use]
    pub fn with_table(mut self, table: Arc<CurveTable>) -> Self {
        self.table = Some(table);
        self
    }

    /// Has the search settled?
    pub fn converged(&self) -> bool {
        matches!(self.phase, Phase::Converged)
    }

    /// Epochs consumed so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Best split found so far.
    pub fn best(&self) -> PowerAllocation {
        self.best
    }

    /// The node budget the search is currently splitting.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Re-target the search at a new node budget (mid-run budget steps
    /// are a fact of life on power-bounded clusters — caps get
    /// re-negotiated while jobs run). With a table attached
    /// ([`Self::with_table`]) the search re-opens from the table's
    /// precomputed optimum for the new budget — the steady-state fast
    /// path, no solver in the loop. Otherwise the learned proc/mem
    /// *ratio* is kept, rescaled to the new total. Either way the search
    /// re-opens: performance must be re-measured because the capping
    /// scenario may have changed category entirely. Invalid budgets —
    /// non-finite, non-positive, or below the minimum given to [`Self::new`] —
    /// are rejected with a [`BudgetOutcome`] and counted under
    /// `online.rejected_budgets`, leaving the search state untouched.
    pub fn set_budget(&mut self, new: Watts) -> BudgetOutcome {
        if !new.value().is_finite() {
            pbc_trace::cached_counter!(names::ONLINE_REJECTED_BUDGETS).incr();
            return BudgetOutcome::RejectedNonFinite;
        }
        if new.value() <= 0.0 || new < self.min_budget {
            pbc_trace::cached_counter!(names::ONLINE_REJECTED_BUDGETS).incr();
            return BudgetOutcome::RejectedBelowMinimum;
        }
        if (new - self.budget).is_zero() {
            return BudgetOutcome::Unchanged;
        }
        // Re-seed the search for the new budget: from the attached
        // oracle table when one covers it (the split is then already at
        // or within one rung of the peak, and no solver ran), otherwise
        // by rescaling the learned ratio to the new total.
        let seeded = self
            .table
            .as_ref()
            .and_then(|t| t.alloc_at(new))
            .unwrap_or_else(|| PowerAllocation::split(new, self.best.proc_fraction()));
        self.budget = new;
        self.best = seeded;
        self.best_perf = None;
        self.pending = None;
        self.phase = Phase::TryTowardProc;
        self.step = STEP;
        self.overdraw_streak = 0;
        pbc_trace::cached_counter!(names::ONLINE_BUDGET_RESETS).incr();
        BudgetOutcome::Applied
    }

    /// The watchdog's escape hatch: abandon the learned split, return to
    /// the initial fraction of the live budget, and restart the search.
    fn fall_back(&mut self) {
        self.best = PowerAllocation::split(self.budget, self.initial_fraction);
        self.best_perf = None;
        self.pending = None;
        self.phase = Phase::TryTowardProc;
        self.step = STEP;
        self.overdraw_streak = 0;
        pbc_trace::cached_counter!(names::ONLINE_FALLBACKS).incr();
    }

    /// Does this operating point pass the report gate for the probe it
    /// answers?
    fn validate(&self, op: &NodeOperatingPoint, tried: PowerAllocation) -> ObservationOutcome {
        check_report(
            op.perf_rel,
            &[op.proc_power, op.mem_power],
            &[(op.alloc.proc, tried.proc), (op.alloc.mem, tried.mem)],
        )
    }

    /// The split to apply for the next epoch.
    pub fn next_allocation(&mut self) -> PowerAllocation {
        if self.best_perf.is_none() {
            // First epoch: measure the starting point itself.
            self.pending = Some(self.best);
            return self.best;
        }
        let candidate = loop {
            match self.phase {
                Phase::TryTowardProc => {
                    let c = self.best.shift_to_proc(self.step);
                    if (c.proc - self.best.proc).is_zero() {
                        // Donor exhausted: skip to the other direction.
                        self.phase = Phase::TryTowardMem;
                        continue;
                    }
                    pbc_trace::cached_counter!(names::ONLINE_PROBE_TOWARD_PROC).incr();
                    break c;
                }
                Phase::TryTowardMem => {
                    let c = self.best.shift_to_proc(-self.step);
                    if (c.mem - self.best.mem).is_zero() {
                        self.phase = Phase::Shrink;
                        continue;
                    }
                    pbc_trace::cached_counter!(names::ONLINE_PROBE_TOWARD_MEM).incr();
                    break c;
                }
                Phase::Shrink => {
                    self.step = self.step * DECAY;
                    pbc_trace::cached_counter!(names::ONLINE_STEP_DECAYS).incr();
                    pbc_trace::cached_gauge!(names::ONLINE_STEP_W).set(self.step.value());
                    if self.step < MIN_STEP {
                        self.phase = Phase::Converged;
                    } else {
                        self.phase = Phase::TryTowardProc;
                    }
                    continue;
                }
                Phase::Converged => break self.best,
            }
        };
        self.pending = Some(candidate);
        candidate
    }

    fn accept(&mut self, tried: PowerAllocation, perf: f64) {
        self.best = tried;
        self.best_perf = Some(perf);
        pbc_trace::cached_counter!(names::ONLINE_ACCEPTED).incr();
        pbc_trace::cached_gauge!(names::ONLINE_BEST_PERF).set(perf);
    }

    fn reject(&mut self) {
        pbc_trace::cached_counter!(names::ONLINE_REJECTED).incr();
    }

    /// Report the operating point observed while running the allocation
    /// returned by the last [`Self::next_allocation`].
    ///
    /// The observation is validated before it can steer the search:
    /// non-finite/negative surrogates, physically implausible readings,
    /// and samples whose allocation does not match the issued probe are
    /// rejected (counted under `online.rejected_observations`) and the
    /// probe is voided — [`Self::next_allocation`] will deterministically
    /// re-propose it. Admitted observations also feed the budget
    /// watchdog: a streak of over-budget draws longer than
    /// `WATCHDOG_PATIENCE` (3 epochs) degrades the search to the
    /// known-safe fallback allocation.
    pub fn observe(&mut self, op: &NodeOperatingPoint) -> ObservationOutcome {
        self.epochs += 1;
        pbc_trace::cached_counter!(names::ONLINE_EPOCHS).incr();
        let Some(tried) = self.pending.take() else {
            return ObservationOutcome::Used;
        };
        let verdict = self.validate(op, tried);
        if verdict != ObservationOutcome::Used {
            pbc_trace::cached_counter!(names::ONLINE_REJECTED_OBSERVATIONS).incr();
            // The probe is void, not judged: the phase is untouched and
            // the same candidate will be re-proposed next epoch.
            return verdict;
        }
        // Budget watchdog: an admitted observation drawing persistently
        // over budget means enforcement is not holding (failed writes,
        // stuck caps) — retreat to a split that was known safe rather
        // than keep climbing on a node that is out of contract.
        if op.total_power().value() > self.budget.value() * (1.0 + OVERDRAW_TOLERANCE) {
            self.overdraw_streak += 1;
            if self.overdraw_streak >= WATCHDOG_PATIENCE {
                self.fall_back();
                return ObservationOutcome::TrippedWatchdog;
            }
        } else {
            self.overdraw_streak = 0;
        }
        let perf = op.perf_rel;
        let Some(best_perf) = self.best_perf else {
            // Baseline measurement of the starting point.
            self.best_perf = Some(perf);
            pbc_trace::cached_gauge!(names::ONLINE_BEST_PERF).set(perf);
            return ObservationOutcome::Used;
        };
        let improved = perf > best_perf * (1.0 + ACCEPT_MARGIN);
        match self.phase {
            Phase::TryTowardProc => {
                if improved {
                    self.accept(tried, perf);
                    // Keep pushing the same direction.
                } else {
                    self.reject();
                    self.phase = Phase::TryTowardMem;
                }
            }
            Phase::TryTowardMem => {
                if improved {
                    self.accept(tried, perf);
                    // Keep pushing; stay in this phase.
                } else {
                    self.reject();
                    self.phase = Phase::Shrink;
                }
            }
            Phase::Shrink | Phase::Converged => {}
        }
        debug_assert!(
            self.best.total().value() <= self.budget.value() + 1e-6,
            "online coordinator drifted over budget"
        );
        ObservationOutcome::Used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::oracle;
    use crate::problem::PowerBoundedProblem;
    use crate::sweep::DEFAULT_STEP;
    use pbc_platform::presets::ivybridge;
    use pbc_powersim::solve;
    use pbc_workloads::by_name;
    use pbc_types::Watts;

    /// Run the coordinator against the simulated node until convergence.
    fn run_online(bench: &str, budget: f64, start_frac: f64) -> (PowerAllocation, f64, usize) {
        let platform = ivybridge();
        let demand = by_name(bench).unwrap().demand;
        let budget_w = Watts::new(budget);
        let start = PowerAllocation::split(budget_w, start_frac);
        let mut coord = OnlineCoordinator::new(budget_w, start, Watts::ZERO);
        for _ in 0..200 {
            if coord.converged() {
                break;
            }
            let alloc = coord.next_allocation();
            let op = solve(&platform, &demand, alloc).unwrap();
            coord.observe(&op);
        }
        let best = coord.best();
        let perf = solve(&platform, &demand, best).unwrap().perf_rel;
        (best, perf, coord.epochs())
    }

    #[test]
    fn converges_near_the_oracle_from_cold_start() {
        for bench in ["sra", "stream", "dgemm", "mg"] {
            let (alloc, perf, epochs) = run_online(bench, 208.0, 0.5);
            let problem = PowerBoundedProblem::new(
                ivybridge(),
                by_name(bench).unwrap().demand,
                Watts::new(208.0),
            )
            .unwrap();
            let best = oracle(&problem, DEFAULT_STEP).unwrap();
            assert!(
                perf >= 0.95 * best.op.perf_rel,
                "{bench}: online {perf} at {alloc} vs oracle {}",
                best.op.perf_rel
            );
            assert!(epochs < 120, "{bench}: {epochs} epochs");
        }
    }

    #[test]
    fn converges_from_terrible_starts() {
        // Start deep in scenario III (memory starved) and scenario
        // IV (processor starved): the climb must escape both.
        for start in [0.2, 0.8] {
            let (_, perf, _) = run_online("stream", 208.0, start);
            assert!(perf > 0.85, "start {start}: perf {perf}");
        }
    }

    #[test]
    fn never_exceeds_the_budget() {
        let platform = ivybridge();
        let demand = by_name("cg").unwrap().demand;
        let budget = Watts::new(190.0);
        let mut coord =
            OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
        for _ in 0..100 {
            if coord.converged() {
                break;
            }
            let alloc = coord.next_allocation();
            assert!(alloc.total().value() <= budget.value() + 1e-9);
            let op = solve(&platform, &demand, alloc).unwrap();
            coord.observe(&op);
        }
    }

    #[test]
    fn converged_coordinator_repeats_its_best() {
        let platform = ivybridge();
        let demand = by_name("sra").unwrap().demand;
        let budget = Watts::new(200.0);
        let mut coord =
            OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
        for _ in 0..200 {
            let alloc = coord.next_allocation();
            let op = solve(&platform, &demand, alloc).unwrap();
            coord.observe(&op);
            if coord.converged() {
                break;
            }
        }
        assert!(coord.converged());
        let a = coord.next_allocation();
        let b = coord.next_allocation();
        assert_eq!(a, coord.best());
        assert_eq!(a, b);
    }

    /// The satellite bug: a NaN performance surrogate used to flow into
    /// the `best_perf` comparison and wedge the search permanently. Now
    /// it is rejected, the probe is re-proposed, and the search still
    /// converges.
    #[test]
    fn nan_observations_are_rejected_not_absorbed() {
        let platform = ivybridge();
        let demand = by_name("stream").unwrap().demand;
        let budget = Watts::new(208.0);
        let mut coord =
            OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
        let mut rejected = 0usize;
        for epoch in 0..300 {
            if coord.converged() {
                break;
            }
            let alloc = coord.next_allocation();
            let mut op = solve(&platform, &demand, alloc).unwrap();
            // Poison every third epoch with sensor garbage.
            let outcome = if epoch % 3 == 1 {
                op.perf_rel = f64::NAN;
                coord.observe(&op)
            } else if epoch % 3 == 2 {
                op.perf_rel = 1e9;
                coord.observe(&op)
            } else {
                coord.observe(&op)
            };
            if outcome != ObservationOutcome::Used {
                rejected += 1;
            }
        }
        assert!(coord.converged(), "poisoned search must still converge");
        assert!(rejected > 0);
        assert!(coord.best().total().value() <= 208.0 + 1e-6);
        let perf = solve(&platform, &demand, coord.best()).unwrap().perf_rel;
        assert!(perf > 0.85, "converged perf {perf}");
    }

    #[test]
    fn stale_observations_void_the_probe() {
        let platform = ivybridge();
        let demand = by_name("sra").unwrap().demand;
        let budget = Watts::new(200.0);
        let mut coord =
            OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
        // Baseline first.
        let a0 = coord.next_allocation();
        let op0 = solve(&platform, &demand, a0).unwrap();
        assert_eq!(coord.observe(&op0), ObservationOutcome::Used);
        // Probe, but report an operating point from a *different* split
        // (the node ran on old caps because enforcement failed).
        let probe = coord.next_allocation();
        let stale = solve(&platform, &demand, a0.shift_to_proc(Watts::new(30.0))).unwrap();
        assert_eq!(coord.observe(&stale), ObservationOutcome::RejectedStale);
        // The voided probe is re-proposed, bit-identical.
        assert_eq!(coord.next_allocation(), probe);
    }

    /// A NaN cap, read back or issued, fails the stale check: a NaN
    /// difference is never within the tolerance.
    #[test]
    fn a_nan_cap_is_stale() {
        let w = Watts::new;
        let powers = [w(60.0), w(40.0)];
        let nan = w(f64::NAN);
        let cap = w(104.0);
        for caps in [[(nan, cap), (cap, cap)], [(cap, cap), (cap, nan)]] {
            assert_eq!(check_report(0.9, &powers, &caps), ObservationOutcome::RejectedStale);
        }
        let fresh = [(cap, cap), (cap, cap)];
        assert_eq!(check_report(0.9, &powers, &fresh), ObservationOutcome::Used);
    }

    #[test]
    fn watchdog_falls_back_on_persistent_overdraw() {
        let platform = ivybridge();
        let demand = by_name("stream").unwrap().demand;
        let budget = Watts::new(208.0);
        let start = PowerAllocation::split(budget, 0.5);
        let mut coord = OnlineCoordinator::new(budget, start, Watts::ZERO);
        let mut tripped = false;
        for _ in 0..(WATCHDOG_PATIENCE + 2) {
            let alloc = coord.next_allocation();
            let mut op = solve(&platform, &demand, alloc).unwrap();
            // Fake a node drawing way over budget despite the caps.
            op.proc_power = Watts::new(200.0);
            op.mem_power = Watts::new(100.0);
            if coord.observe(&op) == ObservationOutcome::TrippedWatchdog {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "watchdog must trip within patience+2 epochs");
        // Degraded to the initial fraction of the live budget...
        assert_eq!(coord.best(), start);
        // ...and the search is re-opened, not converged.
        assert!(!coord.converged());
    }

    #[test]
    fn budget_change_reopens_the_search_and_rescales() {
        let platform = ivybridge();
        let demand = by_name("stream").unwrap().demand;
        let budget = Watts::new(208.0);
        let mut coord =
            OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
        for _ in 0..200 {
            if coord.converged() {
                break;
            }
            let alloc = coord.next_allocation();
            let op = solve(&platform, &demand, alloc).unwrap();
            coord.observe(&op);
        }
        assert!(coord.converged());
        let settled_fraction = coord.best().proc_fraction();
        let cut = Watts::new(160.0);
        assert_eq!(coord.set_budget(cut), BudgetOutcome::Applied);
        assert!(!coord.converged(), "budget change must re-open the search");
        assert_eq!(coord.budget(), cut);
        // Rescaled, ratio preserved, within the new budget immediately.
        assert!((coord.best().proc_fraction() - settled_fraction).abs() < 1e-9);
        assert!(coord.best().total().value() <= cut.value() + 1e-9);
        // And it re-converges under the new budget.
        for _ in 0..200 {
            if coord.converged() {
                break;
            }
            let alloc = coord.next_allocation();
            assert!(alloc.total().value() <= cut.value() + 1e-9);
            let op = solve(&platform, &demand, alloc).unwrap();
            coord.observe(&op);
        }
        assert!(coord.converged());
        // No-ops: same budget, invalid budget. Each reports why.
        let best = coord.best();
        assert_eq!(coord.set_budget(cut), BudgetOutcome::Unchanged);
        assert_eq!(coord.set_budget(Watts::new(-5.0)), BudgetOutcome::RejectedBelowMinimum);
        assert_eq!(coord.set_budget(Watts::new(f64::NAN)), BudgetOutcome::RejectedNonFinite);
        assert_eq!(coord.best(), best);
        assert!(coord.converged());
    }

    /// The satellite bug: a poisoned budget used to silently vanish —
    /// or worse, a below-`min_node_power` value rescaled `best` to a
    /// split no allocation can satisfy, wedging the re-opened search.
    /// Every bad budget is now rejected with a reason and the search
    /// state is untouched.
    #[test]
    fn poisoned_budgets_are_rejected_with_reasons() {
        let platform = ivybridge();
        let budget = Watts::new(208.0);
        let mut coord = OnlineCoordinator::new(
            budget,
            PowerAllocation::split(budget, 0.5),
            platform.min_node_power(),
        );
        let before_best = coord.best();
        let before_budget = coord.budget();
        assert_eq!(coord.set_budget(Watts::new(f64::NAN)), BudgetOutcome::RejectedNonFinite);
        assert_eq!(
            coord.set_budget(Watts::new(f64::INFINITY)),
            BudgetOutcome::RejectedNonFinite
        );
        assert_eq!(coord.set_budget(Watts::new(-1.0)), BudgetOutcome::RejectedBelowMinimum);
        assert_eq!(coord.set_budget(Watts::ZERO), BudgetOutcome::RejectedBelowMinimum);
        // Positive but below the platform floor: also rejected.
        let floor = platform.min_node_power();
        assert_eq!(
            coord.set_budget(floor - Watts::new(1.0)),
            BudgetOutcome::RejectedBelowMinimum
        );
        assert_eq!(coord.best(), before_best, "rejections must not touch the split");
        assert_eq!(coord.budget(), before_budget);
        // A budget at the floor is legitimate.
        assert_eq!(coord.set_budget(floor), BudgetOutcome::Applied);
        assert_eq!(coord.budget(), floor);
    }

    /// With a class table attached, a budget change re-seeds the search
    /// from the table's precomputed optimum — not the rescaled ratio —
    /// and stays within the new budget.
    #[test]
    fn budget_change_with_table_seeds_from_the_oracle_optimum() {
        use crate::fastpath::CurveTable;
        let platform = ivybridge();
        let demand = by_name("stream").unwrap().demand;
        let budget = Watts::new(208.0);
        let table = CurveTable::shared(&platform, &demand).unwrap();
        let mut coord =
            OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO)
                .with_table(Arc::clone(&table));
        let cut = Watts::new(176.0);
        let expected = table.alloc_at(cut).unwrap();
        assert_eq!(coord.set_budget(cut), BudgetOutcome::Applied);
        assert_eq!(coord.best(), expected, "search must seed from the table rung");
        assert!(coord.best().total().value() <= cut.value() + 1e-9);
        assert!(!coord.converged(), "the seeded search still re-measures");
        // Below the class floor the table serves nothing: the ratio
        // rescale fallback applies, exactly the table-less behaviour.
        let tiny = Watts::new(40.0);
        let frac = coord.best().proc_fraction();
        assert_eq!(coord.set_budget(tiny), BudgetOutcome::Applied);
        assert!((coord.best().proc_fraction() - frac).abs() < 1e-9);
    }

    #[test]
    fn online_beats_its_own_cold_start() {
        let platform = ivybridge();
        let demand = by_name("dgemm").unwrap().demand;
        let budget = Watts::new(208.0);
        let start = PowerAllocation::split(budget, 0.4);
        let start_perf = solve(&platform, &demand, start).unwrap().perf_rel;
        let mut coord = OnlineCoordinator::new(budget, start, Watts::ZERO);
        for _ in 0..200 {
            if coord.converged() {
                break;
            }
            let alloc = coord.next_allocation();
            let op = solve(&platform, &demand, alloc).unwrap();
            coord.observe(&op);
        }
        let end_perf = solve(&platform, &demand, coord.best()).unwrap().perf_rel;
        assert!(
            end_perf > 1.3 * start_perf,
            "DGEMM at a 40/60 split must improve a lot: {start_perf} -> {end_perf}"
        );
    }
}
