//! The chaos harness: run a [`FaultPlan`] against the full coordination
//! loop and report whether it survived.
//!
//! One run wires together everything the plan can hurt:
//!
//! * a hardened [`pbc_core::OnlineCoordinator`] proposing splits,
//! * the transactional [`pbc_rapl::enforce_with`] path programming them
//!   into a **real mock sysfs tree** (actual files, actual read-back —
//!   the enforcement code under test is the shipping code),
//! * the steady-state solver producing the node's true operating point
//!   under whatever caps are *actually* programmed (rolled-back
//!   transactions leave the node on its old caps, and the solver
//!   honours that),
//! * the [`FaultInjector`] corrupting what the coordinator observes and
//!   which cap writes land.
//!
//! Survival means two things, checked every epoch: the **enforced**
//! allocation (read back from the tree, not trusted from the caller)
//! never ends an epoch above the live budget, and the search converges
//! once the plan goes quiet. An over-budget read-back — possible only
//! when a rollback restore itself fails — triggers an emergency clamp:
//! best-effort, *decrease-only* per-domain writes, which can never make
//! things worse no matter which of them fail.

use crate::inject::{write_key, FaultInjector, InjectionTally, WriteFault};
use crate::plan::FaultPlan;
use pbc_core::{BudgetOutcome, ObservationOutcome, OnlineCoordinator};
use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::solve;
use pbc_rapl::mock::MockTree;
use pbc_rapl::{current_allocation, enforce_with, RaplDomain, RaplSysfs, WRITE_ATTEMPTS};
use pbc_trace::names;
use pbc_types::{check_budget, PbcError, PowerAllocation, Result, Watts};
use pbc_workloads::{check_target, lookup};
use std::collections::HashMap;
use std::fmt;

/// Tolerance on budget comparisons (enforcement quantizes to µW).
const EPS_W: f64 = 1e-6;
/// Emergency-clamp rounds per epoch before conceding a violation.
const CLAMP_ROUNDS: u64 = 3;
/// Key salt separating clamp-round decision streams from each other and
/// from the main transaction's.
const CLAMP_SALT: u64 = 0xC1A3_0000_0000_0001;

/// The survival report for one chaos run. Field-for-field equality is
/// meaningful: two runs of the same plan at the same seed produce
/// identical reports (the replay guarantee).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Plan name.
    pub plan: String,
    /// Plan seed.
    pub seed: u64,
    /// Epochs driven.
    pub epochs: usize,
    /// Budget at the start.
    pub budget_initial: Watts,
    /// Budget at the end (after any steps).
    pub budget_final: Watts,
    /// Per-kind injection counts.
    pub tally: InjectionTally,
    /// Scheduled budget steps applied.
    pub budget_steps: u64,
    /// Scheduled phase shifts applied.
    pub phase_shifts: u64,
    /// Enforcement transactions attempted.
    pub enforce_attempts: u64,
    /// Cap-write retries consumed.
    pub enforce_retries: u64,
    /// Transactions rolled back. Equals `enforce_permanent_failures` by
    /// the transactional contract.
    pub enforce_rollbacks: u64,
    /// Cap writes that exhausted every retry.
    pub enforce_permanent_failures: u64,
    /// Rollback restores that themselves failed.
    pub enforce_rollback_errors: u64,
    /// Observations the coordinator rejected (NaN/out-of-range/stale).
    pub rejected_observations: u64,
    /// Watchdog trips to the fallback allocation.
    pub fallbacks: u64,
    /// Emergency decrease-only clamps after an over-budget read-back.
    pub clamps: u64,
    /// Epochs that *ended* with enforced caps above the live budget.
    pub budget_violations: u64,
    /// Highest enforced total observed at any epoch end.
    pub max_enforced_total: Watts,
    /// Worst overdraw (enforced total minus live budget) at any epoch
    /// end; negative when the node never ended an epoch over budget.
    pub max_overdraw: Watts,
    /// Did the search settle by the end of the run?
    pub converged: bool,
    /// The split the search settled on.
    pub final_alloc: PowerAllocation,
    /// Solver performance of the final split under the final workload.
    pub final_perf: f64,
}

impl ChaosReport {
    /// The run survived: the budget invariant held every epoch and the
    /// search converged once the plan went quiet.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.budget_violations == 0 && self.converged
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos survival report — plan '{}' (seed {}), {} epochs @ {:.1} W",
            self.plan,
            self.seed,
            self.epochs,
            self.budget_initial.value()
        )?;
        writeln!(
            f,
            "  faults injected: {} (noise {}, stale {}, dropout {}, transient writes {}, permanent writes {})",
            self.tally.injected(),
            self.tally.noise,
            self.tally.stale,
            self.tally.dropout,
            self.tally.write_transient,
            self.tally.write_permanent
        )?;
        writeln!(
            f,
            "  scheduled: {} budget step(s), {} phase shift(s); final budget {:.1} W",
            self.budget_steps,
            self.phase_shifts,
            self.budget_final.value()
        )?;
        writeln!(
            f,
            "  enforcement: {} transactions, {} retries, {} rollbacks (= {} permanent failures), {} failed restores",
            self.enforce_attempts,
            self.enforce_retries,
            self.enforce_rollbacks,
            self.enforce_permanent_failures,
            self.enforce_rollback_errors
        )?;
        writeln!(
            f,
            "  coordinator: {} rejected observation(s), {} fallback(s)",
            self.rejected_observations, self.fallbacks
        )?;
        writeln!(
            f,
            "  budget invariant: {} violation(s), {} emergency clamp(s), max enforced {:.1} W (overdraw {:+.1} W)",
            self.budget_violations,
            self.clamps,
            self.max_enforced_total.value(),
            self.max_overdraw.value()
        )?;
        write!(
            f,
            "  outcome: {} at {:.1}/{:.1} W, perf {:.3} — {}",
            if self.converged { "converged" } else { "NOT converged" },
            self.final_alloc.proc.value(),
            self.final_alloc.mem.value(),
            self.final_perf,
            if self.survived() { "SURVIVED" } else { "DIED" }
        )
    }
}

/// Run `plan` against `platform`/`bench` at `budget` for `epochs`
/// coordination epochs, and report survival. Only host (CPU + DRAM)
/// platforms are supported — the harness drives the RAPL enforcement
/// path for real against a mock sysfs tree.
#[must_use = "the survival report is the whole point of a chaos run"]
pub fn run_chaos(
    platform: &Platform,
    bench: &str,
    budget: Watts,
    plan: &FaultPlan,
    epochs: usize,
) -> Result<ChaosReport> {
    plan.validate()?;
    if matches!(platform.spec, NodeSpec::Gpu(_)) {
        return Err(PbcError::InvalidInput(
            "chaos harness drives the host (RAPL) enforcement path; GPU platforms have no \
             sysfs powercap domains to enforce against"
                .into(),
        ));
    }
    check_budget("budget", budget.value())?;
    let base = lookup(bench).map_err(PbcError::NotFound)?;
    check_target(&base, platform)?;
    let mut demand = base.demand;
    // Resolve every scheduled phase shift up front so a typo fails the
    // run loudly at tick 0, not silently mid-storm.
    let mut shifted: HashMap<usize, _> = HashMap::new();
    for shift in &plan.phase_shifts {
        let b = lookup(&shift.bench)
            .map_err(|e| PbcError::NotFound(format!("phase shift at tick {}: {e}", shift.at)))?;
        shifted.insert(shift.at, b.demand);
    }

    // A private mock powercap tree, removed on every exit path: the
    // enforcement path writes real files and trusts only what it reads
    // back.
    let tree = MockTree::new(&format!("chaos-{}", plan.name), 2, 1)?;
    let rapl = tree.discover()?;

    let initial = PowerAllocation::split(budget, 0.5);
    // The node starts compliant: program the initial split cleanly, as a
    // node that was running under its budget before the storm begins.
    enforce_with(&rapl, initial, &mut |d, w| d.set_power_limit(w)).into_result()?;

    // The coordinator knows the platform floor, so a fault plan that
    // steps the budget below it gets a refusal instead of a poisoned
    // search (the shipped plans never go that low, but custom ones can).
    let mut coordinator = OnlineCoordinator::new(budget, initial, platform.min_node_power());
    let mut injector = FaultInjector::new(plan.clone());
    let mut current_budget = budget;

    let mut report = ChaosReport {
        plan: plan.name.clone(),
        seed: plan.seed,
        epochs,
        budget_initial: budget,
        budget_final: budget,
        tally: InjectionTally::default(),
        budget_steps: 0,
        phase_shifts: 0,
        enforce_attempts: 0,
        enforce_retries: 0,
        enforce_rollbacks: 0,
        enforce_permanent_failures: 0,
        enforce_rollback_errors: 0,
        rejected_observations: 0,
        fallbacks: 0,
        clamps: 0,
        budget_violations: 0,
        max_enforced_total: Watts::ZERO,
        max_overdraw: Watts::new(f64::NEG_INFINITY),
        converged: false,
        final_alloc: initial,
        final_perf: 0.0,
    };

    for tick in 0..epochs {
        pbc_trace::counter(names::CHAOS_EPOCHS).incr();
        // Scheduled events first: the budget and workload in force
        // *during* this epoch.
        for step in &plan.budget_steps {
            if step.at == tick {
                let next = budget * step.factor;
                match coordinator.set_budget(next) {
                    BudgetOutcome::Applied | BudgetOutcome::Unchanged => {
                        // Only a budget the coordinator actually took
                        // becomes the one violations are judged against.
                        current_budget = next;
                    }
                    BudgetOutcome::RejectedNonFinite
                    | BudgetOutcome::RejectedBelowMinimum => {}
                }
                report.budget_steps += 1;
                pbc_trace::counter(names::FAULTS_INJECTED).incr();
                pbc_trace::counter(names::FAULTS_BUDGET_STEPS).incr();
            }
        }
        if let Some(d) = shifted.get(&tick) {
            demand = d.clone();
            report.phase_shifts += 1;
            pbc_trace::counter(names::FAULTS_INJECTED).incr();
            pbc_trace::counter(names::FAULTS_PHASE_SHIFTS).incr();
        }

        // Propose and enforce, with the injector deciding which cap
        // writes land. Decisions are memoized per write key so retries
        // of one write see one consistent fate.
        let alloc = coordinator.next_allocation();
        let enf = {
            let mut decisions: HashMap<u64, WriteFault> = HashMap::new();
            let mut attempts: HashMap<u64, u32> = HashMap::new();
            let inj = &mut injector;
            enforce_with(&rapl, alloc, &mut |d, w| {
                let key = write_key(&d.name, w);
                let fault = *decisions
                    .entry(key)
                    .or_insert_with(|| inj.write_fault(tick, key));
                let n = attempts.entry(key).or_insert(0);
                *n += 1;
                match fault {
                    WriteFault::None => d.set_power_limit(w),
                    WriteFault::Transient { failing_attempts } if *n <= failing_attempts => {
                        Err(PbcError::Io(format!("injected transient failure on {}", d.name)))
                    }
                    WriteFault::Transient { .. } => d.set_power_limit(w),
                    WriteFault::Permanent => {
                        Err(PbcError::Io(format!("injected permanent failure on {}", d.name)))
                    }
                }
            })
        };
        report.enforce_attempts += 1;
        report.enforce_retries += u64::from(enf.retries);
        report.enforce_rollback_errors += u64::from(enf.rollback_errors);
        if enf.rolled_back {
            report.enforce_rollbacks += 1;
            report.enforce_permanent_failures += 1;
        }

        // Trust only the tree: the node runs under what is *programmed*,
        // which after a rollback is the previous allocation.
        let mut enforced = current_allocation(&rapl)?;
        if enforced.total().value() > current_budget.value() + EPS_W {
            // Possible only when a rollback restore itself failed and
            // left a mixed allocation standing. Clamp, decrease-only.
            report.clamps += 1;
            pbc_trace::counter(names::CHAOS_CLAMPS).incr();
            for round in 0..CLAMP_ROUNDS {
                clamp_decrease_only(&rapl, current_budget, &mut injector, tick, round);
                enforced = current_allocation(&rapl)?;
                if enforced.total().value() <= current_budget.value() + EPS_W {
                    break;
                }
            }
        }
        let total = enforced.total();
        report.max_enforced_total = report.max_enforced_total.max(total);
        report.max_overdraw = report.max_overdraw.max(total - current_budget);
        if total.value() > current_budget.value() + EPS_W {
            report.budget_violations += 1;
            pbc_trace::counter(names::CHAOS_BUDGET_VIOLATIONS).incr();
        }

        // The node runs the epoch under the enforced caps; the
        // coordinator sees a (possibly corrupted) view of the result.
        let op = solve(platform, &demand, enforced)?;
        let seen = injector.corrupt_observation(tick, &op);
        match coordinator.observe(&seen) {
            ObservationOutcome::Used => {}
            ObservationOutcome::TrippedWatchdog => report.fallbacks += 1,
            ObservationOutcome::RejectedNonFinite
            | ObservationOutcome::RejectedOutOfRange
            | ObservationOutcome::RejectedStale => report.rejected_observations += 1,
        }
    }

    report.tally = injector.tally();
    report.budget_final = current_budget;
    report.converged = coordinator.converged();
    report.final_alloc = coordinator.best();
    report.final_perf = solve(platform, &demand, report.final_alloc)?.perf_rel;
    Ok(report)
}

/// Best-effort emergency clamp: walk every domain down to its share of
/// `budget` (never up), one direct write each, honouring the injector's
/// per-write fault decisions. Because no write ever increases a cap, a
/// failed round cannot make the overdraw worse, and each round draws
/// fresh (salted) decisions so a transiently cursed domain recovers.
fn clamp_decrease_only(
    rapl: &RaplSysfs,
    budget: Watts,
    injector: &mut FaultInjector,
    tick: usize,
    round: u64,
) {
    let packages: Vec<&RaplDomain> = rapl.packages().collect();
    let drams: Vec<&RaplDomain> = rapl.dram().collect();
    if packages.is_empty() || drams.is_empty() {
        return;
    }
    // Halve the budget between the component classes — the fallback
    // shape, chosen for safety rather than performance.
    let per_pkg = budget * 0.5 / packages.len() as f64;
    let per_dram = budget * 0.5 / drams.len() as f64;
    for (list, class_cap) in [(&packages, per_pkg), (&drams, per_dram)] {
        for d in list.iter() {
            let Ok(current) = d.power_limit() else { continue };
            if current.value() <= class_cap.value() + EPS_W {
                continue; // already at or below its class cap: never raise it.
            }
            let key = write_key(&d.name, class_cap) ^ CLAMP_SALT.wrapping_add(round);
            let fault = injector.write_fault(tick, key);
            for attempt in 1..=WRITE_ATTEMPTS {
                let ok = match fault {
                    WriteFault::Permanent => false,
                    WriteFault::Transient { failing_attempts } if attempt <= failing_attempts => {
                        false
                    }
                    _ => d.set_power_limit(class_cap).is_ok(),
                };
                if ok {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::{ivybridge, titan_xp};

    #[test]
    fn calm_plan_survives_and_converges() {
        let report = run_chaos(
            &ivybridge(),
            "stream",
            Watts::new(208.0),
            &FaultPlan::calm(42),
            200,
        )
        .unwrap();
        assert!(report.survived(), "{report}");
        assert_eq!(report.tally.injected(), 0);
        assert_eq!(report.enforce_rollbacks, 0);
        assert_eq!(report.clamps, 0);
        assert!(report.final_perf > 0.8, "{report}");
    }

    #[test]
    fn replay_is_bit_identical() {
        let plan = FaultPlan::everything(1337);
        let a = run_chaos(&ivybridge(), "stream", Watts::new(208.0), &plan, 200).unwrap();
        let b = run_chaos(&ivybridge(), "stream", Watts::new(208.0), &plan, 200).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_named_plan_survives_the_default_scenario() {
        for (name, ..) in crate::plan::PRESETS {
            let plan = FaultPlan::by_name(name, 42).unwrap();
            let report =
                run_chaos(&ivybridge(), "stream", Watts::new(208.0), &plan, 200).unwrap();
            assert!(report.survived(), "{name}: {report}");
            assert_eq!(report.budget_violations, 0, "{name}: {report}");
        }
    }

    #[test]
    fn rollbacks_track_permanent_failures_exactly() {
        let report = run_chaos(
            &ivybridge(),
            "stream",
            Watts::new(208.0),
            &FaultPlan::flaky_writes(7),
            200,
        )
        .unwrap();
        assert!(report.tally.write_permanent > 0, "plan must actually bite: {report}");
        assert_eq!(report.enforce_rollbacks, report.enforce_permanent_failures);
        assert!(report.enforce_retries > 0);
        assert_eq!(report.budget_violations, 0, "{report}");
    }

    #[test]
    fn gpu_platforms_are_rejected() {
        let err = run_chaos(
            &titan_xp(),
            "sgemm",
            Watts::new(250.0),
            &FaultPlan::calm(1),
            10,
        )
        .unwrap_err();
        assert!(matches!(err, PbcError::InvalidInput(_)));
    }

    #[test]
    fn unknown_benchmarks_fail_loudly() {
        let err = run_chaos(
            &ivybridge(),
            "nope",
            Watts::new(208.0),
            &FaultPlan::calm(1),
            10,
        )
        .unwrap_err();
        assert!(matches!(err, PbcError::NotFound(_)));
        let mut plan = FaultPlan::calm(1);
        plan.phase_shifts.push(crate::plan::PhaseShift {
            at: 5,
            bench: "bogus".into(),
        });
        let err = run_chaos(&ivybridge(), "stream", Watts::new(208.0), &plan, 10).unwrap_err();
        assert!(matches!(err, PbcError::NotFound(_)));
    }
}
