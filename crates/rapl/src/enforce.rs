//! Applying a cross-component allocation to real RAPL domains.
//!
//! The bridge from a coordination decision (`PowerAllocation`, produced by
//! COORD / the online coordinator / the oracle) to hardware: the processor
//! share is divided evenly across package domains (the paper's assumption
//! (b)) and the memory share across DRAM subdomains (assumption (c)).
//!
//! [`enforce`] is genuinely **transactional**: prior limits are snapshotted
//! before anything is written, cap *decreases* are applied before cap
//! *increases* (so no intermediate state ever totals more than
//! `max(before, after)`), transient write failures are retried (up to
//! [`WRITE_ATTEMPTS`] tries, no backoff), and a permanent failure rolls every
//! already-programmed domain back to its snapshot — a half-applied
//! allocation can never silently exceed the budget. Progress is observable
//! through the `enforce.*` counters (`pbc_trace::names`):
//! `enforce.rollbacks` must equal `enforce.permanent_failures` on every
//! run, the contract the chaos smoke gate asserts.

use crate::{DomainKind, RaplDomain, RaplSysfs};
use pbc_trace::names;
use pbc_types::{PbcError, PowerAllocation, Result, Watts};

/// Tries each cap write gets before it counts as failed, at the node
/// and the fleet level alike. Retries do not back off, so injected
/// fault storms replay at full speed.
pub const WRITE_ATTEMPTS: u32 = 4;

/// Outcome of one enforcement transaction (see [`enforce_with`]). What
/// each domain ended up programmed to is read back from the domains
/// themselves ([`RaplDomain::power_limit`], [`current_allocation`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EnforceReport {
    /// Individual write retries consumed by transient failures.
    pub retries: u32,
    /// Whether a permanent failure triggered the rollback path.
    pub rolled_back: bool,
    /// Rollback restores that themselves failed (those domains keep the
    /// new cap).
    pub rollback_errors: u32,
    /// The failure that aborted the transaction, if any.
    pub error: Option<PbcError>,
}

impl EnforceReport {
    /// Collapse to the classic `Result` shape: `Ok` on commit, the
    /// aborting error on rollback.
    #[must_use = "discarding the result loses the error"]
    pub fn into_result(self) -> Result<()> {
        match self.error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// A cap write that can be intercepted (fault injection, dry runs).
/// The default writer is [`RaplDomain::set_power_limit`].
pub type CapWriter<'a> = dyn FnMut(&RaplDomain, Watts) -> Result<()> + 'a;

/// Divide an allocation across the discovered domains and program the
/// constraint-0 power limits transactionally. On permanent failure every
/// already-written domain is rolled back and the error is returned.
///
/// Errors with [`PbcError::BackendUnavailable`] when the topology lacks
/// package or DRAM domains, and with [`PbcError::Io`] when a write fails
/// permanently (typically permissions — writing powercap limits needs
/// root).
#[must_use = "unchecked enforcement can leave the node on stale caps"]
pub fn enforce(rapl: &RaplSysfs, alloc: PowerAllocation) -> Result<()> {
    enforce_with(rapl, alloc, &mut |d, w| d.set_power_limit(w)).into_result()
}

/// One planned domain write, ordered decreases-first.
struct Planned<'a> {
    domain: &'a RaplDomain,
    target: Watts,
    prior: Watts,
}

/// The transactional core behind [`enforce`], with an injectable
/// writer so tests and the chaos harness can interpose failures between
/// the decision and the (mock) hardware.
///
/// The write order is **decreases first**: every intermediate state
/// totals at most `max(prior total, target total)`, so a transaction
/// interrupted mid-flight can never push the node *above* both the old
/// and the new budget at once.
pub fn enforce_with(
    rapl: &RaplSysfs,
    alloc: PowerAllocation,
    write: &mut CapWriter<'_>,
) -> EnforceReport {
    pbc_trace::counter(names::ENFORCE_ATTEMPTS).incr();
    let mut report = EnforceReport {
        retries: 0,
        rolled_back: false,
        rollback_errors: 0,
        error: None,
    };
    if !alloc.is_valid() || alloc.proc.value() <= 0.0 || alloc.mem.value() <= 0.0 {
        report.error = Some(PbcError::InvalidInput(format!(
            "allocation must be strictly positive, got {alloc}"
        )));
        return report;
    }
    let packages: Vec<&RaplDomain> = rapl.packages().collect();
    let drams: Vec<&RaplDomain> = rapl.dram().collect();
    if packages.is_empty() || drams.is_empty() {
        report.error = Some(PbcError::BackendUnavailable(
            "topology lacks package or DRAM domains".into(),
        ));
        return report;
    }
    let per_pkg = alloc.proc / packages.len() as f64;
    let per_dram = alloc.mem / drams.len() as f64;

    // Snapshot every prior limit before touching anything: the rollback
    // targets, and the sort key for the decreases-first ordering.
    let mut plan = Vec::with_capacity(packages.len() + drams.len());
    for (list, target) in [(&packages, per_pkg), (&drams, per_dram)] {
        for d in list.iter() {
            match d.power_limit() {
                Ok(prior) => plan.push(Planned {
                    domain: d,
                    target,
                    prior,
                }),
                Err(e) => {
                    report.error = Some(PbcError::Io(format!(
                        "cannot snapshot prior limit of {}: {e}",
                        d.name
                    )));
                    return report;
                }
            }
        }
    }
    plan.sort_by(|a, b| {
        let da = (a.target - a.prior).value();
        let db = (b.target - b.prior).value();
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
    });

    // Register the retry counter at zero: a transaction that never
    // retried still exports it.
    let _ = pbc_trace::counter(names::ENFORCE_RETRIES);
    let mut done: Vec<&Planned<'_>> = Vec::with_capacity(plan.len());
    for p in &plan {
        match write_with_retry(p.domain, p.target, write, &mut report.retries) {
            Ok(()) => done.push(p),
            Err(e) => {
                pbc_trace::counter(names::ENFORCE_PERMANENT_FAILURES).incr();
                pbc_trace::counter(names::ENFORCE_ROLLBACKS).incr();
                report.rolled_back = true;
                // Best-effort restore, newest write first. A domain whose
                // restore fails keeps the new cap and is counted.
                for q in done.iter().rev() {
                    if write_with_retry(q.domain, q.prior, write, &mut report.retries).is_err() {
                        report.rollback_errors += 1;
                        pbc_trace::counter(names::ENFORCE_ROLLBACK_ERRORS).incr();
                    }
                }
                report.error = Some(PbcError::Io(format!(
                    "cap write on {} failed permanently after {} attempts ({e}); \
                     transaction rolled back ({} restore failure(s))",
                    p.domain.name, WRITE_ATTEMPTS, report.rollback_errors
                )));
                return report;
            }
        }
    }
    report
}

/// Attempt one domain write up to [`WRITE_ATTEMPTS`] times, counting
/// retries into both the trace registry and the caller's tally.
fn write_with_retry(
    domain: &RaplDomain,
    limit: Watts,
    write: &mut CapWriter<'_>,
    retries: &mut u32,
) -> Result<()> {
    let mut last = None;
    for attempt in 0..WRITE_ATTEMPTS {
        if attempt > 0 {
            *retries += 1;
            pbc_trace::counter(names::ENFORCE_RETRIES).incr();
        }
        match write(domain, limit) {
            Ok(()) => return Ok(()),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| PbcError::Io("write failed with no error detail".into())))
}

/// Read back the currently programmed limits as an aggregate allocation
/// (the inverse of [`enforce`]): sum of package limits and sum of DRAM
/// limits.
#[must_use = "the read-back allocation is the whole point of calling this"]
pub fn current_allocation(rapl: &RaplSysfs) -> Result<PowerAllocation> {
    let mut proc = Watts::ZERO;
    let mut mem = Watts::ZERO;
    let mut saw_pkg = false;
    let mut saw_dram = false;
    for d in &rapl.domains {
        match d.kind {
            DomainKind::Package => {
                proc += d.power_limit()?;
                saw_pkg = true;
            }
            DomainKind::Dram => {
                mem += d.power_limit()?;
                saw_dram = true;
            }
            _ => {}
        }
    }
    if !saw_pkg || !saw_dram {
        return Err(PbcError::BackendUnavailable(
            "topology lacks package or DRAM domains".into(),
        ));
    }
    Ok(PowerAllocation::new(proc, mem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockTree;

    fn mock_rapl(tag: &str, packages: usize) -> (MockTree, RaplSysfs) {
        let tree = MockTree::new(&format!("enforce-{tag}"), packages, 1).unwrap();
        let rapl = tree.discover().unwrap();
        (tree, rapl)
    }

    /// Every domain's limit as its file reads back, in discovery order:
    /// with one DRAM child per package, package 0, its DRAM, package 1,
    /// its DRAM.
    fn limits(rapl: &RaplSysfs) -> Vec<f64> {
        rapl.domains.iter().map(|d| d.power_limit().unwrap().value()).collect()
    }

    #[test]
    fn enforce_divides_across_domains() {
        let (_tree, rapl) = mock_rapl("divide", 2);
        enforce(&rapl, PowerAllocation::new(Watts::new(110.0), Watts::new(84.0))).unwrap();
        // Two packages at 55 W each, two DRAM domains at 42 W each.
        assert_eq!(limits(&rapl), [55.0, 42.0, 55.0, 42.0]);
        // The aggregate reads back too.
        let back = current_allocation(&rapl).unwrap();
        assert!((back.proc.value() - 110.0).abs() < 1e-6);
        assert!((back.mem.value() - 84.0).abs() < 1e-6);
    }

    #[test]
    fn enforce_requires_both_domain_kinds() {
        let tree = MockTree::new("enforce-nodram", 1, 0).unwrap();
        let rapl = tree.discover().unwrap();
        let err = enforce(
            &rapl,
            PowerAllocation::new(Watts::new(100.0), Watts::new(50.0)),
        )
        .unwrap_err();
        assert!(matches!(err, PbcError::BackendUnavailable(_)));
        assert!(current_allocation(&rapl).is_err());
    }

    #[test]
    fn enforce_rejects_degenerate_allocations() {
        let (_tree, rapl) = mock_rapl("degenerate", 2);
        assert!(enforce(&rapl, PowerAllocation::new(Watts::ZERO, Watts::new(50.0))).is_err());
        assert!(enforce(&rapl, PowerAllocation::new(Watts::new(-5.0), Watts::new(50.0))).is_err());
    }

    /// The regression the transactional rewrite exists for: a write that
    /// fails on a *later* domain must not leave the earlier domains
    /// programmed with the new caps.
    #[test]
    fn permanent_failure_rolls_every_domain_back() {
        let (_tree, rapl) = mock_rapl("rollback", 2);
        let before = limits(&rapl);
        let mut write_log = Vec::new();
        let report = enforce_with(
            &rapl,
            PowerAllocation::new(Watts::new(80.0), Watts::new(30.0)),
            &mut |d, w| {
                write_log.push((d.name.clone(), w));
                if d.name == "package-1" && (w.value() - 40.0).abs() < 1e-9 {
                    Err(PbcError::Io("injected permanent failure".into()))
                } else {
                    d.set_power_limit(w)
                }
            },
        );
        assert!(report.error.is_some());
        assert!(report.rolled_back);
        assert_eq!(report.rollback_errors, 0);
        // Tried WRITE_ATTEMPTS times on the failing domain.
        assert_eq!(report.retries, WRITE_ATTEMPTS - 1);
        // Every domain reads back its prior limit — all-or-nothing.
        assert_eq!(limits(&rapl), before, "a rolled-back cap is still standing");
    }

    #[test]
    fn transient_failures_are_absorbed_by_retries() {
        let (_tree, rapl) = mock_rapl("transient", 2);
        let mut failures_left = 3u32; // < WRITE_ATTEMPTS per domain
        let report = enforce_with(
            &rapl,
            PowerAllocation::new(Watts::new(100.0), Watts::new(60.0)),
            &mut |d, w| {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(PbcError::Io("injected transient failure".into()))
                } else {
                    d.set_power_limit(w)
                }
            },
        );
        assert_eq!(report.error, None);
        assert_eq!(limits(&rapl), [50.0, 30.0, 50.0, 30.0]);
        assert_eq!(report.retries, 3);
        assert!(!report.rolled_back);
        let back = current_allocation(&rapl).unwrap();
        assert!((back.total().value() - 160.0).abs() < 1e-6);
    }

    /// Decreases-first ordering: with the mock tree at 115 W everywhere,
    /// an allocation that cuts DRAM and raises packages must write the
    /// DRAM domains before the packages.
    #[test]
    fn cap_decreases_are_written_before_increases() {
        let (_tree, rapl) = mock_rapl("ordering", 2);
        let mut order = Vec::new();
        let report = enforce_with(
            &rapl,
            // per-pkg 130 (increase from 115), per-dram 40 (decrease).
            PowerAllocation::new(Watts::new(260.0), Watts::new(80.0)),
            &mut |d, w| {
                order.push(d.name.clone());
                d.set_power_limit(w)
            },
        );
        assert_eq!(report.error, None);
        assert_eq!(order.len(), 4);
        assert!(
            order[..2].iter().all(|n| n == "dram"),
            "decreases (dram) must come first: {order:?}"
        );
    }

    /// A restore that itself fails is counted, and that domain alone
    /// keeps the new cap.
    #[test]
    fn failed_restore_is_reported_not_hidden() {
        let (_tree, rapl) = mock_rapl("restorefail", 2);
        let mut dram_writes = 0u32;
        let report = enforce_with(
            &rapl,
            PowerAllocation::new(Watts::new(80.0), Watts::new(30.0)),
            &mut |d, w| {
                if d.name == "dram" {
                    dram_writes += 1;
                    // First dram target write succeeds; everything after
                    // (second dram target, then the restore) fails.
                    if dram_writes == 1 {
                        return d.set_power_limit(w);
                    }
                    return Err(PbcError::Io("injected".into()));
                }
                d.set_power_limit(w)
            },
        );
        assert!(report.error.is_some());
        assert!(report.rolled_back);
        assert_eq!(report.rollback_errors, 1);
        // Decreases first: the DRAM domains (115 → 15 W) come before the
        // packages (115 → 40 W), so package 0's DRAM took its cap, package
        // 1's DRAM failed, and the restore of the first failed too.
        assert_eq!(limits(&rapl), [115.0, 15.0, 115.0, 115.0]);
    }
}
