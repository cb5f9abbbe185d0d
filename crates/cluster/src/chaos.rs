//! The cluster chaos harness: run a [`FleetFaultPlan`] against the full
//! fleet coordination loop and report whether it survived.
//!
//! One run wires together everything the plan can hurt:
//!
//! * a [`FleetCoordinator`] partitioning the global budget by marginal
//!   gain, with its health machine, supervised enforcement, and static
//!   fallback all live;
//! * a **real mock RAPL tree** (one package domain per node, actual
//!   files) as the cap sink — every write the coordinator lands goes
//!   through [`pbc_rapl::RaplDomain::set_power_limit`], and the harness
//!   reads the files back at the end rather than trusting the
//!   coordinator's word;
//! * the plan crashing nodes, slowing stragglers, corrupting reports,
//!   and taking out cap writes and the coordinator itself.
//!
//! Survival means three things: `cluster.budget_violations == 0`,
//! `health.quarantine_leaks == 0` (both carried in the embedded
//! [`ClusterReport`]), and zero **sink divergences** — every up node's
//! file cap equals the cap the coordinator believes it enforced. The
//! report also scores the run against the never-fails oracle (the
//! coordinated aggregate at the initial budget, every epoch), so the
//! throughput cost of the faults is a number, not a feeling.

use crate::coordinator::{CapSink, ClusterReport, FleetCoordinator};
use crate::fleet::Fleet;
use crate::partition::Objective;
use crate::tenant::TenantSet;
use pbc_faults::FleetFaultPlan;
use pbc_rapl::mock::MockTree;
use pbc_rapl::{RaplDomain, RaplSysfs};
use pbc_types::{PbcError, Result, Watts};
use std::fmt;

/// Tolerance on cap read-back comparisons (enforcement quantizes to µW).
const EPS_W: f64 = 1e-6;

/// Epochs appended past the plan's quiet point when the caller asks for
/// the default run length (`epochs == 0`) — long enough for every
/// quarantined node to serve probation and reconverge.
const SETTLE_EPOCHS: usize = 16;

/// A cap sink backed by a mock RAPL tree: node `i` maps to the package
/// domain `intel-rapl:i`. Writes go through the shipping
/// `set_power_limit` path — real files, real validation.
struct MockFleetSink {
    domains: Vec<RaplDomain>,
}

impl MockFleetSink {
    /// Collect the tree's package domains in node order. Discovery
    /// sorts by path *lexically* (`intel-rapl:10` before `intel-rapl:2`),
    /// so order by the numeric suffix instead.
    fn new(rapl: RaplSysfs, nodes: usize) -> Result<Self> {
        let mut domains: Vec<RaplDomain> = rapl
            .packages()
            .cloned()
            .collect();
        domains.sort_by_key(package_index);
        if domains.len() != nodes {
            return Err(PbcError::InvalidInput(format!(
                "mock fleet tree has {} package domains, fleet has {nodes} nodes",
                domains.len()
            )));
        }
        Ok(Self { domains })
    }
}

/// The node index encoded in a package domain's directory name
/// (`intel-rapl:7` → 7). Unparseable names sort last.
fn package_index(d: &RaplDomain) -> usize {
    d.path
        .file_name()
        .and_then(|f| f.to_str())
        .and_then(|s| s.rsplit(':').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

impl CapSink for MockFleetSink {
    fn write_cap(&mut self, node: usize, cap: Watts) -> Result<()> {
        let domain = self.domains.get(node).ok_or_else(|| {
            PbcError::InvalidInput(format!("cap write for node {node} beyond the mock tree"))
        })?;
        domain.set_power_limit(cap)
    }
}

/// The survival report for one cluster chaos run. Two runs of the same
/// fleet, plan, and epoch count produce identical reports — the replay
/// guarantee extends through the mock tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterChaosReport {
    /// Plan name.
    pub plan: String,
    /// Plan seed.
    pub seed: u64,
    /// Fleet size.
    pub nodes: usize,
    /// Epochs driven.
    pub epochs: usize,
    /// Global budget at the start (budget steps may move it).
    pub global: Watts,
    /// The coordinator's own run report (violations, leaks,
    /// availability, reconvergence, work).
    pub report: ClusterReport,
    /// What the never-fails oracle would have produced: the coordinated
    /// aggregate at the initial budget, every epoch.
    pub oracle_work: f64,
    /// Sum of the caps actually programmed into the mock tree at the
    /// end, read back from the files.
    pub sink_total: Watts,
    /// Up nodes whose file cap disagrees with the coordinator's record
    /// of what it enforced. Must be zero: the sink only acks writes
    /// that landed.
    pub sink_divergences: usize,
}

impl ClusterChaosReport {
    /// Did the run survive? Zero budget violations, zero quarantine
    /// leaks, and the mock tree agrees with the coordinator cap for
    /// cap.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.report.survived() && self.sink_divergences == 0
    }

    /// Work retained vs the never-fails oracle, in `[0, 1]`-ish (can
    /// exceed 1 when budget steps raise the budget mid-run).
    #[must_use]
    pub fn work_ratio(&self) -> f64 {
        if self.oracle_work <= 0.0 {
            return 0.0;
        }
        self.report.work_done / self.oracle_work
    }
}

impl fmt::Display for ClusterChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster chaos `{}` seed {}: {} nodes x {} epochs @ {:.0} W global",
            self.plan,
            self.seed,
            self.nodes,
            self.epochs,
            self.global.value()
        )?;
        let r = &self.report;
        writeln!(
            f,
            "  faults: {} dropouts, {} recoveries, {} quarantines, {} rejoins, \
             {} missed + {} rejected reports",
            r.dropouts, r.recoveries, r.quarantines, r.rejoins, r.missed_reports,
            r.rejected_reports
        )?;
        writeln!(
            f,
            "  enforcement: {} write failures, {} retries, {} round timeouts, \
             {} degraded epochs",
            r.write_failures, r.write_retries, r.round_timeouts, r.degraded_epochs
        )?;
        writeln!(
            f,
            "  availability {:.3}, work {:.2} ({:.0}% of oracle {:.2}), reconverged {}",
            r.availability,
            r.work_done,
            100.0 * self.work_ratio(),
            self.oracle_work,
            match r.reconverged_at {
                Some(t) => format!("@ epoch {t}"),
                None => "never".to_string(),
            }
        )?;
        if r.tenant_spikes + r.tenant_noisy + r.tenant_preemptions + r.tenant_floor_violations > 0
        {
            writeln!(
                f,
                "  tenants: {} demand spikes, {} noisy epochs, {} preemptions, \
                 {} floor violations, min Jain {:.3}",
                r.tenant_spikes,
                r.tenant_noisy,
                r.tenant_preemptions,
                r.tenant_floor_violations,
                r.min_tenant_jain
            )?;
        }
        write!(
            f,
            "  invariants: {} budget violations, {} quarantine leaks, \
             {} sink divergences, sink total {:.1} W — {}",
            r.budget_violations,
            r.quarantine_leaks,
            self.sink_divergences,
            self.sink_total.value(),
            if self.survived() { "SURVIVED" } else { "DIED" }
        )
    }
}

/// Run `plan` against `fleet` under `global` for `epochs` epochs
/// (`epochs == 0` → the plan's quiet point plus a settling margin),
/// with a mock RAPL tree as the cap sink. The tree lives in a unique
/// tempdir and is removed on every exit path.
#[must_use = "the survival report is the run's entire result"]
pub fn run_cluster_chaos(
    fleet: Fleet,
    global: Watts,
    plan: &FleetFaultPlan,
    epochs: usize,
) -> Result<ClusterChaosReport> {
    run_cluster_chaos_with(fleet, global, plan, epochs, Objective::default(), None)
}

/// [`run_cluster_chaos`] with an explicit allocation objective and an
/// optional tenant set co-located on every node — the multi-tenant
/// harness entry. With tenants present the plan's demand-spike and
/// noisy-neighbor draws go live, and the report's
/// `tenant_floor_violations` joins the survival criteria.
#[must_use = "the survival report is the run's entire result"]
pub fn run_cluster_chaos_with(
    fleet: Fleet,
    global: Watts,
    plan: &FleetFaultPlan,
    epochs: usize,
    objective: Objective,
    tenants: Option<TenantSet>,
) -> Result<ClusterChaosReport> {
    let epochs = if epochs == 0 {
        plan.quiet_after() + SETTLE_EPOCHS
    } else {
        epochs
    };
    let nodes = fleet.len();
    let tree = MockTree::new(&format!("cluster-chaos-{}", plan.name), nodes, 0)?;
    let sink = MockFleetSink::new(tree.discover()?, nodes)?;

    let mut coord = FleetCoordinator::new(fleet, global)?
        .with_plan(plan.clone())?
        .with_objective(objective)
        .with_cap_sink(Box::new(sink));
    if let Some(set) = tenants {
        coord = coord.with_tenants(set);
    }
    // Nodes boot on the known-safe static partition — the tree and the
    // coordinator's enforced state agree before the first fault draw.
    coord.provision()?;

    // The never-fails oracle: coordinated aggregate at the initial
    // budget, every epoch. Scored before the run so faults can't touch
    // it.
    let oracle_work = coord.coordinate()?.aggregate_perf * epochs as f64;

    let report = coord.run(epochs)?;

    // Read the tree back: the files are the ground truth on what got
    // programmed. A down or released node keeps its last written cap
    // in the file while the coordinator carries zero (the draw is
    // physically gone; there was no write to land), so agreement is
    // only demanded where the coordinator believes a write stuck.
    let survivors = tree.discover()?;
    let mut programmed: Vec<(usize, Watts)> = Vec::with_capacity(nodes);
    for d in survivors.packages() {
        programmed.push((package_index(d), d.power_limit()?));
    }
    programmed.sort_by_key(|&(i, _)| i);

    let enforced = coord.enforced_caps();
    let down = coord.down_mask();
    let mut sink_total = Watts::ZERO;
    let mut sink_divergences = 0usize;
    for &(i, cap) in &programmed {
        sink_total += cap;
        let released = i >= nodes || down[i] || enforced[i].value() <= EPS_W;
        if !released && (cap - enforced[i]).abs().value() > EPS_W {
            sink_divergences += 1;
        }
    }

    Ok(ClusterChaosReport {
        plan: plan.name.to_string(),
        seed: plan.seed,
        nodes,
        epochs,
        global,
        report,
        oracle_work,
        sink_total,
        sink_divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::parse_spec;
    use pbc_types::Watts;

    fn small_fleet() -> Fleet {
        let spec = parse_spec(
            "3 ivybridge stream\n\
             3 titan-xp sgemm\n",
        )
        .unwrap();
        Fleet::build(&spec).unwrap()
    }

    fn budget(fleet: &Fleet, margin: f64) -> Watts {
        fleet.min_total_power() + Watts::new(margin)
    }

    #[test]
    fn calm_chaos_survives_and_matches_oracle() {
        let fleet = small_fleet();
        let global = budget(&fleet, 140.0);
        let report = run_cluster_chaos(fleet, global, &FleetFaultPlan::calm(3), 6).unwrap();
        assert!(report.survived(), "calm run died:\n{report}");
        assert_eq!(report.report.degraded_epochs, 0);
        assert!(
            (report.work_ratio() - 1.0).abs() < 1e-9,
            "calm work should equal the oracle, got ratio {}",
            report.work_ratio()
        );
        assert!(report.sink_total <= global + Watts::new(1e-6));
    }

    #[test]
    fn everything_chaos_survives_with_degradation() {
        let fleet = small_fleet();
        let global = budget(&fleet, 140.0);
        let plan = FleetFaultPlan::everything(17);
        let report = run_cluster_chaos(fleet, global, &plan, 0).unwrap();
        assert!(report.survived(), "everything run died:\n{report}");
        assert!(report.epochs >= plan.quiet_after());
        assert!(report.work_ratio() < 1.0, "faults should cost work");
        assert!(report.report.missed_reports > 0);
    }

    #[test]
    fn chaos_replays_bit_identically() {
        let plan = FleetFaultPlan::by_name("node-crash", 23).unwrap();
        let fleet = small_fleet();
        let global = budget(&fleet, 120.0);
        let a = run_cluster_chaos(small_fleet(), global, &plan, 20).unwrap();
        let b = run_cluster_chaos(fleet, global, &plan, 20).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sink_total_respects_the_global_budget() {
        let plan = FleetFaultPlan::by_name("flaky-writes", 5).unwrap();
        let fleet = small_fleet();
        let global = budget(&fleet, 110.0);
        let report = run_cluster_chaos(fleet, global, &plan, 0).unwrap();
        assert!(report.survived(), "flaky-writes run died:\n{report}");
        assert!(
            report.sink_total <= global + Watts::new(1e-6),
            "programmed caps exceed the global budget: {} > {}",
            report.sink_total.value(),
            global.value()
        );
    }
}
