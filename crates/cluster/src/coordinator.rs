//! The fleet coordinator: one global budget, N nodes, two layers of
//! coordination — and the fault tolerance that keeps the bound honest
//! when nodes crash, lag, or lie.
//!
//! Layer one is the water-filling partition ([`crate::partition`]): the
//! global budget becomes per-node shares ranked by marginal gain. Layer
//! two is the paper's per-node COORD on each share, with the resulting
//! allocation priced by the memo-backed power simulator. Both are pure
//! functions of a node's class and share, so they run once per distinct
//! (class, share) pair, not once per node, on the calling thread.
//!
//! The dynamic mode ([`FleetCoordinator::step`]) runs the full failure
//! pipeline each epoch in two passes over the nodes, one before the fill
//! and one after enforcement:
//!
//! 1. **Faults roll** from the armed [`FleetFaultPlan`]: the first pass
//!    advances each node's crash, straggle and write-outage
//!    [`pbc_faults::Episodes`], then the tenants roll their spikes and
//!    noisy stretches. Every fault draw, these and the report and
//!    cap-write draws below, is one [`pbc_faults::FaultWindow::pick`]
//!    from a fresh `XorShift64Star` keyed `(seed, tick, stream, key)`,
//!    never shared state, so a chaos run is bit-identical under any
//!    `PBC_THREADS`.
//! 2. **Reports arrive** (or don't): in the same pass, each node's
//!    observation of the previous epoch passes the report gate, shared
//!    with `OnlineCoordinator` rather than mirrored ([`check_report`]:
//!    non-finite, out-of-range, and stale-cap rejection), before it may
//!    steer the partition.
//! 3. **Health updates**: verdicts drive the per-node Healthy →
//!    Suspect → Quarantined → Rejoining machine ([`crate::health`]).
//! 4. **Mode decides**: a coordinator outage or an infeasible fill drops
//!    the epoch to the precomputed [`StaticFallback`] partition, whose
//!    shares sum ≤ the global budget by construction ([`crate::degrade`]).
//! 5. **Targets partition**: water-fill over Healthy + Suspect nodes,
//!    with Quarantined/Rejoining nodes reserved at their class floors
//!    and Suspects capped at their standing grant (no raises on
//!    untrusted telemetry).
//! 6. **Enforcement lands**, decreases first, each write given up to
//!    [`pbc_rapl::WRITE_ATTEMPTS`] tries: watts freed by confirmed
//!    lowerings (and by dead nodes) fund the raises; a failed lowering
//!    keeps its watts reserved. The pot for raises only ever shrinks, so
//!    `Σ enforced ≤ global` is an invariant — `cluster.budget_violations`
//!    and `health.quarantine_leaks` stay zero by construction, not by
//!    luck. The second pass then scores the epoch off the enforced caps.
//!
//! Every stage writes what it did straight into the epoch's
//! [`EpochReport`], the one in-process record of the epoch, and
//! [`FleetCoordinator::run`] folds those records into a
//! [`ClusterReport`]; each count in it has a trace counter that
//! `tests/report_agrees_with_trace.rs` holds it to.

use crate::degrade::StaticFallback;
use crate::fleet::Fleet;
use crate::health::{HealthTracker, NodeHealth, ReportVerdict};
use crate::partition::{fill_shares, uniform_split, NodeCurve, Objective, DEFAULT_GRANT};
use crate::tenant::{jain_index, TenantSet};
use pbc_core::{check_report, ObservationOutcome};
use pbc_faults::inject::{write_key, GOLDEN};
use pbc_faults::{Edge, FleetFaultPlan};
use pbc_par::Pool;
use pbc_powersim::SolveMemo;
use pbc_rapl::WRITE_ATTEMPTS;
use pbc_trace::names;
use pbc_types::{check_budget, PbcError, Result, Watts, CAP_QUANTUM};
use std::collections::HashMap;

/// Stream constant for node crash/rejoin decisions.
const STREAM_NODE: u64 = 0x5EED_0011;
/// Stream constant for cap-write fault decisions.
const STREAM_CAP: u64 = 0x5EED_0012;
/// Stream constant for observation-report fault decisions.
const STREAM_REPORT: u64 = 0x5EED_0013;
/// Stream constant for straggler onset decisions.
const STREAM_STRAGGLE: u64 = 0x5EED_0014;
/// Stream constant for per-node write-outage onset decisions.
const STREAM_WRITE_OUTAGE: u64 = 0x5EED_0015;
/// Stream constant for per-tenant demand-spike onset decisions.
const STREAM_TENANT_SPIKE: u64 = 0x5EED_0016;
/// Stream constant for per-tenant noisy-neighbor onset decisions.
const STREAM_TENANT_NOISY: u64 = 0x5EED_0017;

/// Where a node's cap writes land. The simulated chaos runs wire this
/// to a mock RAPL sysfs tree so "enforced" means a real file changed;
/// a daemon would wire it to per-host RPC.
pub trait CapSink {
    /// Persist `cap` as node `node`'s power limit. An `Err` counts as a
    /// failed write attempt, retried up to [`WRITE_ATTEMPTS`] tries.
    fn write_cap(&mut self, node: usize, cap: Watts) -> Result<()>;
}

/// One evaluated partition: the shares and the simulator-priced
/// performance of what COORD made of them.
#[derive(Debug, Clone)]
pub struct ClusterDecision {
    /// Per-node budget shares (the caps to enforce).
    pub shares: Vec<Watts>,
    /// Per-node simulated relative throughput (0.0 for unschedulable
    /// nodes).
    pub perfs: Vec<f64>,
    /// Sum of `perfs` — the cluster's aggregate throughput.
    pub aggregate_perf: f64,
    /// How many nodes could not schedule their share.
    pub infeasible: usize,
}

/// What one dynamic epoch did: the epoch's only in-process record.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochReport {
    /// The completed tick this report covers.
    pub tick: usize,
    /// Nodes live at the end of the epoch.
    pub nodes_up: usize,
    /// Nodes that crashed this epoch.
    pub dropped: usize,
    /// Nodes that came back up this epoch.
    pub recovered: usize,
    /// Cap writes that failed after exhausting their retries.
    pub write_failures: usize,
    /// Retry attempts spent absorbing transient write failures.
    pub write_retries: usize,
    /// Observation reports that never arrived.
    pub missed_reports: usize,
    /// Observation reports rejected by validation.
    pub rejected_reports: usize,
    /// Nodes that entered Quarantined this epoch.
    pub quarantines: usize,
    /// Quarantined → Rejoining transitions this epoch.
    pub rejoins: usize,
    /// Did this epoch run on the static fallback partition?
    pub degraded: bool,
    /// Did the enforced total end the epoch above the global budget?
    pub over_budget: bool,
    /// Did the leak audit catch raises funded past the freed pot?
    pub leaked: bool,
    /// Nodes Healthy at the end of the epoch.
    pub healthy: usize,
    /// Aggregate relative throughput across live nodes.
    pub aggregate_perf: f64,
    /// Sum of enforced caps after the epoch (must stay ≤ global).
    pub enforced_total: Watts,
    /// Watts that changed hands between nodes this epoch.
    pub moved: Watts,
    /// Watts freed for the healthy pool by down/quarantined/rejoining
    /// nodes, relative to the static fallback partition.
    pub reclaimed: Watts,
    /// Tenant demand spikes that started this epoch.
    pub tenant_spikes: usize,
    /// Noisy-neighbor stretches that started this epoch.
    pub tenant_noisy: usize,
    /// Lower-SLA tenants preempted on some node this epoch (summed over
    /// live nodes).
    pub tenant_preemptions: usize,
    /// Tenants allocated below their weighted floor on some node —
    /// structurally zero.
    pub tenant_floor_violations: usize,
    /// Jain fairness index over the weight-normalized per-tenant fleet
    /// allocations (1.0 when the fleet runs single-tenant).
    pub tenant_jain: f64,
}

/// Survival summary of a dynamic run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterReport {
    /// Epochs executed.
    pub epochs: usize,
    /// Total crash events.
    pub dropouts: usize,
    /// Total nodes-came-back events.
    pub recoveries: usize,
    /// Total cap writes that failed after retries.
    pub write_failures: usize,
    /// Total retry attempts spent on transient write failures.
    pub write_retries: usize,
    /// Epochs whose enforced total exceeded the global budget. The
    /// decreases-first discipline makes this zero by construction.
    pub budget_violations: usize,
    /// Epochs where raises were funded by watts not yet confirmed freed
    /// — also structurally zero.
    pub quarantine_leaks: usize,
    /// Epochs served from the static fallback partition.
    pub degraded_epochs: usize,
    /// Observation reports that never arrived.
    pub missed_reports: usize,
    /// Observation reports rejected by validation.
    pub rejected_reports: usize,
    /// Transitions into Quarantined.
    pub quarantines: usize,
    /// Quarantined → Rejoining transitions.
    pub rejoins: usize,
    /// Smallest live-node count seen.
    pub min_nodes_up: usize,
    /// Healthy node-epochs over total node-epochs (1.0 = nobody ever
    /// left full service).
    pub availability: f64,
    /// Σ aggregate throughput across epochs — the run's useful work, in
    /// node-epoch units, for comparison against a never-fails oracle.
    pub work_done: f64,
    /// First tick at or past the plan's quiet point where every node
    /// was Healthy on an undegraded epoch; `None` if the run ended
    /// before reconverging.
    pub reconverged_at: Option<usize>,
    /// Total tenant demand-spike events.
    pub tenant_spikes: usize,
    /// Total noisy-neighbor events.
    pub tenant_noisy: usize,
    /// Total tenant preemption events (lower tiers squeezed out by
    /// higher-SLA demand).
    pub tenant_preemptions: usize,
    /// Node-epoch × tenant allocations below the weighted floor — the
    /// third structural invariant; must be zero.
    pub tenant_floor_violations: usize,
    /// Smallest per-epoch Jain fairness index seen (1.0 for runs with
    /// no tenants attached, or zero epochs).
    pub min_tenant_jain: f64,
}

impl ClusterReport {
    /// Did the run hold the structural invariants — no budget overdraw,
    /// no quarantine leak, no tenant starved below its weighted floor?
    #[must_use]
    pub fn survived(&self) -> bool {
        self.budget_violations == 0
            && self.quarantine_leaks == 0
            && self.tenant_floor_violations == 0
    }
}

/// Hierarchical, fault-tolerant coordinator for a fleet under one
/// global budget.
pub struct FleetCoordinator {
    fleet: Fleet,
    global: Watts,
    /// The budget the coordinator was built with; plan budget steps are
    /// factors of this.
    initial_global: Watts,
    plan: FleetFaultPlan,
    /// The next epoch's tick: fault decisions for epoch `k` key on `k`.
    tick: usize,
    health: HealthTracker,
    fallback: StaticFallback,
    /// One solve memo per class, owned by this coordinator: a class's
    /// nodes share its solves across the epochs of one global budget.
    /// An accepted budget clears them, so they hold at most the pairs
    /// priced since the last one.
    memos: Vec<SolveMemo>,
    /// Cap currently enforced on each node (starts at zero: nothing has
    /// been granted before the first epoch).
    enforced: Vec<Watts>,
    /// Enforced caps as of one epoch earlier — what a delayed or
    /// straggling report describes.
    enforced_hist: Vec<Watts>,
    /// Target shares of the previous epoch, for redistribution stats.
    prev_targets: Vec<Watts>,
    /// Per-node throughput of the previous epoch (what reports carry).
    last_perfs: Vec<f64>,
    /// `Some(t)` when the node is down until tick `t`.
    down_until: Vec<Option<usize>>,
    /// `Some(t)` when the node straggles until tick `t`.
    straggle_until: Vec<Option<usize>>,
    /// `Some(t)` when the node's cap-write path is out until tick `t`.
    write_outage_until: Vec<Option<usize>>,
    sink: Option<Box<dyn CapSink + Send>>,
    /// What the partitioner optimizes (throughput water-fill by
    /// default; max-min or weighted shares for multi-tenant fleets).
    objective: Objective,
    /// Tenants co-located on every node; `None` runs single-tenant.
    tenants: Option<TenantSet>,
    /// `Some(t)` when the tenant's demand spike lasts until tick `t`.
    tenant_spike_until: Vec<Option<usize>>,
    /// `Some(t)` when the tenant hogs as a noisy neighbor until `t`.
    tenant_noisy_until: Vec<Option<usize>>,
}

impl std::fmt::Debug for FleetCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCoordinator")
            .field("nodes", &self.fleet.len())
            .field("global", &self.global)
            .field("plan", &self.plan.name)
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl FleetCoordinator {
    /// Build a coordinator over `fleet` with `global` watts to divide.
    /// Fails fast when the budget cannot cover every node's floor —
    /// which also guarantees a static fallback partition exists.
    #[must_use = "the coordinator result carries either the coordinator or the infeasibility"]
    pub fn new(fleet: Fleet, global: Watts) -> Result<Self> {
        check_budget("global budget", global.value())?;
        let minimum = fleet.min_total_power();
        if global < minimum {
            return Err(PbcError::BudgetTooSmall { requested: global, minimum });
        }
        let fallback = StaticFallback::compute(&fleet, global)?;
        let n = fleet.len();
        let memos =
            fleet.classes.iter().map(|c| SolveMemo::fresh(&c.platform, &c.demand)).collect();
        pbc_trace::gauge(names::CLUSTER_NODES).set(n as f64);
        // Register the invariant counters so every trace exports them
        // even at zero — absence must never read as cleanliness.
        let _ = pbc_trace::counter(names::CLUSTER_BUDGET_VIOLATIONS);
        let _ = pbc_trace::counter(names::CLUSTER_WRITE_FAILURES);
        let _ = pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS);
        Ok(Self {
            global,
            initial_global: global,
            plan: FleetFaultPlan::calm(0),
            tick: 0,
            health: HealthTracker::new(n),
            fallback,
            memos,
            enforced: vec![Watts::ZERO; n],
            enforced_hist: vec![Watts::ZERO; n],
            prev_targets: vec![Watts::ZERO; n],
            last_perfs: vec![0.0; n],
            down_until: vec![None; n],
            straggle_until: vec![None; n],
            write_outage_until: vec![None; n],
            sink: None,
            objective: Objective::Throughput,
            tenants: None,
            tenant_spike_until: Vec::new(),
            tenant_noisy_until: Vec::new(),
            fleet,
        })
    }

    /// Arm a fault plan for the dynamic mode.
    #[must_use = "the armed coordinator is returned by value"]
    pub fn with_plan(mut self, plan: FleetFaultPlan) -> Result<Self> {
        plan.validate()?;
        self.plan = plan;
        Ok(self)
    }

    /// Land every successful cap write in `sink` as well (e.g. a mock
    /// RAPL tree). A sink error counts as a failed attempt.
    #[must_use = "the configured coordinator is returned by value"]
    pub fn with_cap_sink(mut self, sink: Box<dyn CapSink + Send>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Choose the allocation objective (defaults to
    /// [`Objective::Throughput`], the historical water-fill).
    #[must_use = "the configured coordinator is returned by value"]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Attach a tenant set: every node's share is sub-partitioned among
    /// these tenants (weighted floors first, then surplus by SLA tier),
    /// and per-epoch fairness is scored with Jain's index.
    #[must_use = "the configured coordinator is returned by value"]
    pub fn with_tenants(mut self, tenants: TenantSet) -> Self {
        pbc_trace::gauge(names::CLUSTER_TENANTS).set(tenants.len() as f64);
        // Register the invariant counter so every multi-tenant trace
        // exports it even at zero (see the same pattern in `new`).
        let _ = pbc_trace::counter(names::CLUSTER_TENANT_FLOOR_VIOLATIONS);
        self.tenant_spike_until = vec![None; tenants.len()];
        self.tenant_noisy_until = vec![None; tenants.len()];
        self.tenants = Some(tenants);
        self
    }

    /// The allocation objective in force.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The attached tenants, when the fleet runs multi-tenant.
    #[must_use]
    pub fn tenants(&self) -> Option<&TenantSet> {
        self.tenants.as_ref()
    }

    /// The fleet being coordinated.
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The global budget.
    #[must_use]
    pub fn global_budget(&self) -> Watts {
        self.global
    }

    /// The precomputed degraded-mode partition.
    #[must_use]
    pub fn fallback(&self) -> &StaticFallback {
        &self.fallback
    }

    /// Sum of the caps currently enforced.
    #[must_use]
    pub fn enforced_total(&self) -> Watts {
        self.enforced.iter().copied().sum()
    }

    /// The caps currently enforced, node-indexed.
    #[must_use]
    pub fn enforced_caps(&self) -> &[Watts] {
        &self.enforced
    }

    /// Which nodes are currently down.
    #[must_use]
    pub fn down_mask(&self) -> Vec<bool> {
        self.down_until.iter().map(Option::is_some).collect()
    }

    /// Boot-time provisioning: program every node to its static
    /// fallback share — through the sink when one is armed, with no
    /// fault draws, because the experiment clock has not started — and
    /// record the shares as enforced and as the previous targets, so the
    /// first epoch's `moved` counts only what its partition moves off
    /// them. The fallback sums to ≤ the global budget by construction,
    /// so `Σ enforced ≤ global` holds from the first tick instead of
    /// starting vacuously at zero.
    #[must_use = "a failed provisioning write leaves the sink and coordinator disagreeing"]
    pub fn provision(&mut self) -> Result<()> {
        for i in 0..self.fleet.len() {
            let share = self.fallback.share(i);
            if let Some(sink) = self.sink.as_mut() {
                sink.write_cap(i, share)?;
            }
            self.enforced[i] = share;
        }
        self.enforced_hist = self.enforced.clone();
        self.prev_targets = self.enforced.clone();
        Ok(())
    }

    /// Re-negotiate the global budget mid-run. Rejects non-finite,
    /// non-positive, and below-fleet-floor budgets (counted under
    /// `cluster.rejected_budgets`); an accepted budget recomputes the
    /// static fallback so degraded mode stays safe under the new bound,
    /// and clears the solve memos, whose shares the new budget moves.
    #[must_use = "a rejected budget means the old bound is still in force"]
    pub fn set_global_budget(&mut self, budget: Watts) -> Result<()> {
        if let Err(e) = check_budget("global budget", budget.value()) {
            pbc_trace::counter(names::CLUSTER_REJECTED_BUDGETS).incr();
            return Err(e);
        }
        let minimum = self.fleet.min_total_power();
        if budget < minimum {
            pbc_trace::counter(names::CLUSTER_REJECTED_BUDGETS).incr();
            return Err(PbcError::BudgetTooSmall { requested: budget, minimum });
        }
        self.fallback = StaticFallback::compute(&self.fleet, budget)?;
        self.global = budget;
        self.memos.iter().for_each(SolveMemo::clear);
        pbc_trace::counter(names::CLUSTER_BUDGET_RESETS).incr();
        Ok(())
    }

    /// Water-fill the global budget and evaluate every node's share.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn coordinate(&self) -> Result<ClusterDecision> {
        let curves = self.node_curves();
        self.decide(fill_shares(&curves, &[], self.global, DEFAULT_GRANT, self.objective)?)
    }

    /// [`FleetCoordinator::coordinate`], which runs on the calling
    /// thread; `_pool` is unused and kept for existing callers.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn coordinate_with_pool(&self, _pool: &Pool) -> Result<ClusterDecision> {
        self.coordinate()
    }

    /// The baseline: split the global budget evenly, floors and curves
    /// ignored, and evaluate the same way. On a heterogeneous fleet the
    /// even share under-feeds hungry nodes and strands watts on
    /// saturated ones — the gap the experiments measure.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn uniform_decision(&self) -> Result<ClusterDecision> {
        self.decide(uniform_split(self.fleet.len(), self.global))
    }

    /// Evaluate `shares` with every node up, summing `aggregate_perf` in
    /// node order.
    fn decide(&self, shares: Vec<Watts>) -> Result<ClusterDecision> {
        let (perfs, infeasible) =
            evaluate(&self.fleet, &self.memos, &shares, &vec![false; shares.len()])?;
        let aggregate_perf = perfs.iter().sum();
        Ok(ClusterDecision { shares, perfs, aggregate_perf, infeasible })
    }

    /// The oracle aggregate at the water-filled shares: what the
    /// interpolated sweep curves promise, with no COORD heuristic or
    /// enforcement in the way. An upper reference line for `ext7`.
    #[must_use = "the oracle result carries either the aggregate or the infeasibility"]
    pub fn oracle_aggregate(&self) -> Result<f64> {
        let curves = self.node_curves();
        let shares = fill_shares(&curves, &[], self.global, DEFAULT_GRANT, self.objective)?;
        Ok(shares
            .iter()
            .zip(curves.iter())
            .map(|(s, c)| c.curve.perf_at(*s))
            .sum())
    }

    /// One dynamic epoch (see the module docs for the pipeline).
    #[must_use = "the epoch result carries either the report or the failure"]
    pub fn step(&mut self) -> Result<EpochReport> {
        let tick = self.tick;
        self.tick += 1;
        let n = self.fleet.len();
        // No tenants, nothing unfair: an untenanted epoch scores 1.
        let mut e = EpochReport { tick, tenant_jain: 1.0, ..EpochReport::default() };

        // Scheduled budget re-negotiations, factors of the initial
        // budget. A rejection (e.g. a cut below the fleet floor) is
        // counted and ignored — a lying schedule must not crash the
        // fleet.
        for k in 0..self.plan.budget_steps.len() {
            let s = self.plan.budget_steps[k];
            if s.at == tick {
                let _ = self.set_global_budget(self.initial_global * s.factor);
            }
        }

        // The pass before the fill: each node's faults roll, its report
        // of the previous epoch goes into the health machine, and it
        // takes its place — the fallback share when a coordinator outage
        // degrades the epoch, its class floor while Quarantined or
        // Rejoining (a possibly-alive node is never starved below its
        // floor), and otherwise a seat at the fill.
        e.degraded = self.plan.coordinator_outage.active(tick);
        let mut down = vec![false; n];
        let mut targets = vec![Watts::ZERO; n];
        let mut allocatable = Vec::new();
        let mut reserved = Watts::ZERO;
        for i in 0..n {
            self.roll_node(tick, i, &mut e);
            down[i] = self.down_until[i].is_some();
            self.take_report(tick, i, down[i], &mut e);
            if down[i] {
                continue;
            }
            e.nodes_up += 1;
            match self.health.state(i) {
                _ if e.degraded => targets[i] = self.fallback.share(i),
                NodeHealth::Healthy | NodeHealth::Suspect => allocatable.push(i),
                NodeHealth::Quarantined | NodeHealth::Rejoining => {
                    targets[i] = self.fleet.class_of(i).floor;
                    reserved += targets[i];
                }
            }
        }
        self.roll_tenants(tick, &mut e);
        if !e.degraded && !self.water_fill(&allocatable, reserved, &mut targets) {
            e.degraded = true;
            for i in (0..n).filter(|&i| !down[i]) {
                targets[i] = self.fallback.share(i);
            }
        }
        if e.degraded {
            pbc_trace::cached_counter!(names::CLUSTER_DEGRADED_EPOCHS).incr();
        }

        let (mut perfs, _) = evaluate(&self.fleet, &self.memos, &targets, &down)?;
        // What a delayed or straggling report describes next epoch.
        self.enforced_hist.copy_from_slice(&self.enforced);
        self.enforce_supervised(tick, &targets, &down, &mut e);

        // The pass after enforcement scores the epoch. Stragglers run
        // slow: their contribution shrinks by the plan's slowdown factor.
        // Reclaimed watts are what the healthy pool gained from nodes
        // that are down or held at their floors, measured against the
        // known-safe static partition. Every live node's enforced cap is
        // sub-partitioned among the tenants. Float sums run in node order
        // from `-0.0`, the neutral element `Iterator::sum` starts from.
        let demand = self.tenant_demand();
        let mut tenant_watts = vec![0.0f64; demand.len()];
        let (mut aggregate, mut moved) = (-0.0, -0.0);
        let (mut total, mut reclaimed) = (Watts::new(-0.0), Watts::new(-0.0));
        for i in 0..n {
            if self.straggle_until[i].is_some() && !down[i] {
                perfs[i] *= self.plan.nodes.slowdown;
            }
            aggregate += perfs[i];
            moved += (targets[i] - self.prev_targets[i]).abs().value();
            total += self.enforced[i];
            let state = self.health.state(i);
            e.healthy += usize::from(state == NodeHealth::Healthy);
            if down[i] || matches!(state, NodeHealth::Quarantined | NodeHealth::Rejoining) {
                reclaimed += (self.fallback.share(i) - self.enforced[i]).max(Watts::ZERO);
            }
            let Some(tenants) = self.tenants.as_ref() else { continue };
            if down[i] || self.enforced[i].value() <= CAP_QUANTUM {
                continue;
            }
            let floor = self.fleet.class_of(i).floor;
            let split = tenants.split_node(self.enforced[i], floor, &demand);
            e.tenant_preemptions += split.preemptions;
            e.tenant_floor_violations += split.floor_violations;
            for (w, s) in tenant_watts.iter_mut().zip(&split.shares) {
                *w += s.value();
            }
        }
        e.aggregate_perf = aggregate;
        e.moved = Watts::new(moved / 2.0);
        e.enforced_total = total;
        e.reclaimed = reclaimed;
        self.prev_targets = targets;
        self.last_perfs = perfs;

        // The budget invariant. Decreases-first makes a violation
        // structurally impossible; the counter is the proof the trace
        // carries out to the chaos assertions.
        if e.enforced_total.value() > self.global.value() + CAP_QUANTUM {
            e.over_budget = true;
            pbc_trace::cached_counter!(names::CLUSTER_BUDGET_VIOLATIONS).incr();
        }
        if e.moved.value() > CAP_QUANTUM {
            pbc_trace::cached_counter!(names::CLUSTER_REDISTRIBUTIONS).incr();
        }
        // Fleet-level fairness on weight-normalized tenant watts, and the
        // weighted floors' audit — the multi-tenant mirror of the budget
        // invariant (structurally zero).
        if let Some(tenants) = self.tenants.as_ref() {
            let normalized: Vec<f64> =
                tenant_watts.iter().zip(tenants.tenants()).map(|(w, t)| w / t.weight).collect();
            e.tenant_jain = jain_index(&normalized);
            if e.tenant_preemptions > 0 {
                pbc_trace::cached_counter!(names::CLUSTER_TENANT_PREEMPTIONS)
                    .add(e.tenant_preemptions as u64);
            }
            if e.tenant_floor_violations > 0 {
                pbc_trace::cached_counter!(names::CLUSTER_TENANT_FLOOR_VIOLATIONS)
                    .add(e.tenant_floor_violations as u64);
            }
            pbc_trace::cached_gauge!(names::CLUSTER_TENANT_JAIN).set(e.tenant_jain);
        }
        pbc_trace::cached_counter!(names::CLUSTER_EPOCHS).incr();
        pbc_trace::cached_gauge!(names::CLUSTER_NODES_UP).set(e.nodes_up as f64);
        pbc_trace::cached_gauge!(names::CLUSTER_MOVED_W).set(e.moved.value());
        pbc_trace::cached_gauge!(names::CLUSTER_AGGREGATE_PERF).set(e.aggregate_perf);
        pbc_trace::cached_gauge!(names::CLUSTER_RECLAIMED_W).set(e.reclaimed.value());
        pbc_trace::cached_gauge!(names::HEALTH_HEALTHY_NODES).set(e.healthy as f64);
        Ok(e)
    }

    /// [`FleetCoordinator::step`], which runs on the calling thread;
    /// `_pool` is unused and kept for existing callers.
    #[must_use = "the epoch result carries either the report or the failure"]
    pub fn step_with_pool(&mut self, _pool: &Pool) -> Result<EpochReport> {
        self.step()
    }

    /// Run `epochs` dynamic epochs and summarize: a fold of the epochs'
    /// [`EpochReport`]s, over the fleet size and the plan's quiet point.
    #[must_use = "the run result carries either the survival report or the failure"]
    pub fn run(&mut self, epochs: usize) -> Result<ClusterReport> {
        let n = self.fleet.len();
        let quiet = self.plan.quiet_after();
        let mut report = ClusterReport {
            min_nodes_up: n,
            min_tenant_jain: 1.0,
            ..ClusterReport::default()
        };
        let mut healthy_node_epochs = 0usize;
        for _ in 0..epochs {
            let e = self.step()?;
            report.epochs += 1;
            report.dropouts += e.dropped;
            report.recoveries += e.recovered;
            report.write_failures += e.write_failures;
            report.write_retries += e.write_retries;
            report.missed_reports += e.missed_reports;
            report.rejected_reports += e.rejected_reports;
            report.quarantines += e.quarantines;
            report.rejoins += e.rejoins;
            report.degraded_epochs += usize::from(e.degraded);
            report.budget_violations += usize::from(e.over_budget);
            report.quarantine_leaks += usize::from(e.leaked);
            report.tenant_spikes += e.tenant_spikes;
            report.tenant_noisy += e.tenant_noisy;
            report.tenant_preemptions += e.tenant_preemptions;
            report.tenant_floor_violations += e.tenant_floor_violations;
            report.min_tenant_jain = report.min_tenant_jain.min(e.tenant_jain);
            report.min_nodes_up = report.min_nodes_up.min(e.nodes_up);
            report.work_done += e.aggregate_perf;
            healthy_node_epochs += e.healthy;
            if report.reconverged_at.is_none() && e.tick >= quiet && !e.degraded && e.healthy == n {
                report.reconverged_at = Some(e.tick);
            }
        }
        if report.epochs > 0 {
            report.availability = healthy_node_epochs as f64 / (report.epochs * n.max(1)) as f64;
        }
        Ok(report)
    }

    fn node_curve(&self, node: usize) -> NodeCurve<'_> {
        let class = self.fleet.class_of(node);
        NodeCurve { floor: class.floor, curve: &class.curve }
    }

    fn node_curves(&self) -> Vec<NodeCurve<'_>> {
        (0..self.fleet.len()).map(|i| self.node_curve(i)).collect()
    }

    /// Advance node `node`'s crash, straggle and write-outage episodes
    /// to `tick`, counting a crash or recovery into `e`.
    fn roll_node(&mut self, tick: usize, node: usize, e: &mut EpochReport) {
        let (seed, nodes, outage) = (self.plan.seed, self.plan.nodes, self.plan.writes.outage);
        let key = node as u64;
        match nodes.crash.advance(&mut self.down_until[node], seed, tick, STREAM_NODE, key) {
            Edge::Started => {
                e.dropped += 1;
                pbc_trace::cached_counter!(names::CLUSTER_DROPOUTS).incr();
            }
            Edge::Ended => {
                e.recovered += 1;
                pbc_trace::cached_counter!(names::CLUSTER_RECOVERIES).incr();
            }
            Edge::Steady => {}
        }
        // Stragglers start only on nodes that are up; a running straggle
        // still expires while its node is down.
        if self.down_until[node].is_none() || self.straggle_until[node].is_some() {
            let until = &mut self.straggle_until[node];
            let _ = nodes.straggle.advance(until, seed, tick, STREAM_STRAGGLE, key);
        }
        let until = &mut self.write_outage_until[node];
        let _ = outage.advance(until, seed, tick, STREAM_WRITE_OUTAGE, key);
    }

    /// Advance every tenant's demand-spike and noisy-neighbor episode
    /// to `tick`, counting onsets into `e`. Inert without tenants (the
    /// episode vectors are empty): no draws, so untenanted runs replay
    /// exactly.
    fn roll_tenants(&mut self, tick: usize, e: &mut EpochReport) {
        let (seed, faults) = (self.plan.seed, self.plan.tenants);
        for t in 0..self.tenant_spike_until.len() {
            let key = t as u64;
            let spike = &mut self.tenant_spike_until[t];
            if faults.spike.advance(spike, seed, tick, STREAM_TENANT_SPIKE, key) == Edge::Started {
                e.tenant_spikes += 1;
                pbc_trace::cached_counter!(names::CLUSTER_TENANT_SPIKES).incr();
            }
            let hog = &mut self.tenant_noisy_until[t];
            if faults.noisy.advance(hog, seed, tick, STREAM_TENANT_NOISY, key) == Edge::Started {
                e.tenant_noisy += 1;
                pbc_trace::cached_counter!(names::CLUSTER_TENANT_NOISY).incr();
            }
        }
    }

    /// The demand multiplier each tenant currently runs at: 1 when
    /// calm, the plan's spike/noisy factor (whichever is larger) while
    /// an event is active.
    fn tenant_demand(&self) -> Vec<f64> {
        let faults = self.plan.tenants;
        let factor = |until: &Option<usize>, f: f64| if until.is_some() { f } else { 1.0 };
        self.tenant_spike_until
            .iter()
            .zip(&self.tenant_noisy_until)
            .map(|(s, n)| factor(s, faults.spike_factor).max(factor(n, faults.noisy_factor)))
            .collect()
    }

    /// Take node `node`'s report of the previous epoch into the health
    /// machine, counting a missed or rejected report and the health
    /// transition it causes into `e`.
    fn take_report(&mut self, tick: usize, node: usize, down: bool, e: &mut EpochReport) {
        let verdict = self.report_verdict(tick, node, down);
        match verdict {
            ReportVerdict::Missing => {
                e.missed_reports += 1;
                pbc_trace::cached_counter!(names::CLUSTER_MISSED_REPORTS).incr();
            }
            ReportVerdict::Rejected => {
                e.rejected_reports += 1;
                pbc_trace::cached_counter!(names::CLUSTER_REJECTED_REPORTS).incr();
            }
            ReportVerdict::Accepted => {}
        }
        let was_quarantined = self.health.state(node) == NodeHealth::Quarantined;
        self.health.observe(node, verdict);
        let quarantined = self.health.state(node) == NodeHealth::Quarantined;
        e.quarantines += usize::from(!was_quarantined && quarantined);
        e.rejoins += usize::from(was_quarantined && !quarantined);
    }

    /// One node's report for this epoch, faults applied, then passed
    /// through the report gate `OnlineCoordinator` uses.
    fn report_verdict(&self, tick: usize, node: usize, down: bool) -> ReportVerdict {
        if down {
            return ReportVerdict::Missing;
        }
        // The honest report: the cap the node ran on last epoch and the
        // throughput it measured. A straggler lags one epoch further
        // behind, so its cap snapshot is one epoch staler.
        let mut cap = self.enforced[node];
        let mut perf = self.last_perfs[node];
        if self.straggle_until[node].is_some() {
            cap = self.enforced_hist[node];
        }
        let faults = self.plan.reports;
        let probs = [faults.drop_prob, faults.delay_prob, faults.garble_prob];
        match faults.window.pick(&probs, self.plan.seed, tick, STREAM_REPORT, node as u64) {
            Some((0, _)) => return ReportVerdict::Missing,
            Some((1, _)) => cap = self.enforced_hist[node],
            Some((_, mut rng)) => {
                let g = rng.next_f64();
                if g < 1.0 / 3.0 {
                    perf = f64::NAN;
                } else if g < 2.0 / 3.0 {
                    perf = 1.0e9;
                } else {
                    cap = Watts::new(-5.0);
                }
            }
            None => {}
        }
        match check_report(perf, &[cap], &[(cap, self.enforced[node])]) {
            ObservationOutcome::Used => ReportVerdict::Accepted,
            _ => ReportVerdict::Rejected,
        }
    }

    /// Water-fill what the floors `reserved` for Quarantined and
    /// Rejoining nodes leave over the `allocatable` (Healthy and Suspect)
    /// nodes, then cap each Suspect at its standing grant so untrusted
    /// telemetry cannot win raises. Returns `false` when the fill is
    /// infeasible — the caller degrades.
    fn water_fill(&self, allocatable: &[usize], reserved: Watts, targets: &mut [Watts]) -> bool {
        if reserved > self.global {
            return false;
        }
        let curves: Vec<NodeCurve<'_>> = allocatable.iter().map(|&i| self.node_curve(i)).collect();
        let avail = self.global - reserved;
        // Any refusal (the fill only refuses an infeasible budget today)
        // degrades the epoch: the static fallback is the safe floor.
        let Ok(shares) = fill_shares(&curves, &[], avail, DEFAULT_GRANT, self.objective) else {
            return false;
        };
        for (&i, share) in allocatable.iter().zip(shares) {
            targets[i] = share;
            if self.health.state(i) == NodeHealth::Suspect {
                // No raises on untrusted telemetry: hold at the larger
                // of the standing cap and the floor. The clamped watts
                // stay unspent this epoch — the safe direction.
                let hold = self.enforced[i].max(self.fleet.class_of(i).floor);
                targets[i] = share.min(hold);
            }
        }
        true
    }

    /// Move enforced caps toward `targets`, decreases first, each write
    /// given up to `WRITE_ATTEMPTS` tries. A down node's cap releases
    /// unconditionally (its draw is gone whether or not a write lands);
    /// a failed decrease keeps its watts reserved; raises are funded
    /// strictly from the pot the confirmed decreases left, so
    /// `Σ enforced ≤ global` is an invariant, not an aspiration. Writes
    /// the round's failures, retries and leak audit into `e`.
    fn enforce_supervised(
        &mut self,
        tick: usize,
        targets: &[Watts],
        down: &[bool],
        e: &mut EpochReport,
    ) {
        let n = targets.len();
        // Phase 1: releases.
        for i in 0..n {
            if down[i] {
                self.enforced[i] = Watts::ZERO;
            } else if targets[i] < self.enforced[i] && self.try_write(tick, i, targets[i], e) {
                self.enforced[i] = targets[i];
            }
        }

        // Phase 2: raises, funded only by what phase 1 actually freed.
        let spent = self.enforced_total();
        let pot_legit = (self.global - spent).max(Watts::ZERO);
        let mut pot = pot_legit;
        let mut raised = Watts::ZERO;
        for i in 0..n {
            if down[i] || targets[i] <= self.enforced[i] {
                continue;
            }
            let want = targets[i] - self.enforced[i];
            let raise = want.min(pot);
            if raise.value() <= CAP_QUANTUM {
                continue;
            }
            let next = self.enforced[i] + raise;
            if self.try_write(tick, i, next, e) {
                self.enforced[i] = next;
                pot -= raise;
                raised += raise;
            }
        }

        // The leak audit: raises applied must never exceed the pot the
        // confirmed decreases legitimately left. Structurally zero —
        // the counter is the exported proof.
        if raised.value() > pot_legit.value() + CAP_QUANTUM {
            e.leaked = true;
            pbc_trace::cached_counter!(names::HEALTH_QUARANTINE_LEAKS).incr();
        }
    }

    /// One supervised cap write: up to `WRITE_ATTEMPTS` tries against the
    /// plan's fault draw (and the sink, when armed), counting into `e`.
    /// Returns `true` when the write landed.
    fn try_write(&mut self, tick: usize, node: usize, target: Watts, e: &mut EpochReport) -> bool {
        for attempt in 0..WRITE_ATTEMPTS {
            if attempt > 0 {
                e.write_retries += 1;
                pbc_trace::cached_counter!(names::CLUSTER_WRITE_RETRIES).incr();
            }
            if self.write_attempt_fails(tick, node, target, attempt) {
                continue;
            }
            if let Some(sink) = self.sink.as_mut() {
                if sink.write_cap(node, target).is_err() {
                    continue;
                }
            }
            return true;
        }
        e.write_failures += 1;
        pbc_trace::cached_counter!(names::CLUSTER_WRITE_FAILURES).incr();
        false
    }

    /// Does this write attempt fail under the plan? An active per-node
    /// write outage fails every attempt (retries cannot absorb it);
    /// stochastic failures re-draw per attempt, so retries can.
    fn write_attempt_fails(&self, tick: usize, node: usize, target: Watts, attempt: u32) -> bool {
        if self.write_outage_until[node].is_some() {
            return true;
        }
        let faults = self.plan.writes;
        if faults.fail_prob <= 0.0 || !faults.window.active(tick) {
            return false; // no draw can land: skip hashing the write key
        }
        let key = node_write_key(node, target);
        let stream = STREAM_CAP ^ key.wrapping_mul(GOLDEN);
        let probs = [faults.fail_prob];
        faults.window.pick(&probs, self.plan.seed, tick, stream, u64::from(attempt)).is_some()
    }
}

/// The fault key of writing `target` to node `node`: [`write_key`] over
/// the bytes of `cluster.node{node}`, spelled out in a stack buffer so a
/// write attempt allocates nothing.
fn node_write_key(node: usize, target: Watts) -> u64 {
    use std::io::Write;
    // `cluster.node` and at most 20 digits always fit.
    let mut buf = [0u8; 32];
    let mut rest = &mut buf[..];
    let _ = write!(rest, "cluster.node{node}");
    let len = 32 - rest.len();
    // The buffer holds only ASCII, so the conversion cannot fail.
    std::str::from_utf8(&buf[..len]).map_or(0, |name| write_key(name, target))
}

/// Coordinate and price every node's share, once per distinct (class,
/// share) pair, in one pass on the calling thread: the per-node perfs
/// and how many live nodes had their share refused. COORD and the solver
/// are pure functions of the class and the share (compared bit for bit),
/// so one pair's result is each of its nodes', bit for bit. A live node
/// whose pair is the previous live node's reuses that result: fleets
/// list each class contiguously and the fill keeps a class's equal
/// shares adjacent, so most nodes stop there. Any other pair is looked
/// up in a map of the pairs solved so far, so a fleet that interleaves
/// its classes pays one lookup per node, not a scan.
///
/// Down nodes score 0.0 without touching the refused count; a refused
/// share (COORD or the solver finding it infeasible) scores 0.0; a real
/// solver error stops the pass and fails the evaluation with that node's
/// error, the first in index order.
fn evaluate(
    fleet: &Fleet,
    memos: &[SolveMemo],
    shares: &[Watts],
    down: &[bool],
) -> Result<(Vec<f64>, usize)> {
    let n = shares.len();
    let mut perfs = vec![0.0; n];
    let mut infeasible = 0;
    let mut solved = HashMap::new();
    let mut last = None;
    let mut failed = None;
    for i in (0..n).filter(|&i| !down[i]) {
        let key = (fleet.nodes[i], shares[i].value().to_bits());
        let perf = match last {
            Some((k, out)) if k == key => out,
            _ => {
                let out = match solved.get(&key) {
                    Some(&out) => out,
                    None => match eval_node(fleet, memos, i, shares[i]) {
                        Ok(out) => *solved.entry(key).or_insert(out),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    },
                };
                last = Some((key, out));
                out
            }
        };
        match perf {
            Some(perf) => perfs[i] = perf,
            None => infeasible += 1,
        }
    }
    // The pairs solved, and the one whose solve failed.
    let evaluations = solved.len() + usize::from(failed.is_some());
    pbc_trace::cached_counter!(names::CLUSTER_EVALUATIONS).add(evaluations as u64);
    if infeasible > 0 {
        pbc_trace::cached_counter!(names::CLUSTER_INFEASIBLE_NODES).add(infeasible as u64);
    }
    if let Some(e) = failed {
        return Err(e);
    }
    Ok((perfs, infeasible))
}

/// COORD and the class's solve memo on node `node`'s share: the
/// simulated throughput of COORD's allocation, or `None` when either
/// refuses the share as infeasible.
fn eval_node(fleet: &Fleet, memos: &[SolveMemo], node: usize, share: Watts) -> Result<Option<f64>> {
    let class = fleet.class_of(node);
    let coord = match class.coordinate(share) {
        Ok(r) => r,
        Err(e) if e.is_infeasible() => return Ok(None),
        Err(e) => return Err(e),
    };
    match memos[fleet.nodes[node]].solve(coord.alloc) {
        Ok(op) => Ok(Some(op.perf_rel)),
        Err(e) if e.is_infeasible() => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::parse_spec;
    use pbc_faults::FaultWindow;
    use pbc_types::XorShift64Star;
    use std::sync::{Arc, Mutex};

    fn mixed_fleet() -> Fleet {
        let spec = parse_spec(
            "4 ivybridge stream\n\
             4 haswell dgemm\n\
             2 titan-xp sgemm\n",
        )
        .unwrap();
        Fleet::build(&spec).unwrap()
    }

    /// The per-node evaluation `evaluate` replaced, kept as its
    /// reference: COORD and the memo once for every live node.
    fn evaluate_per_node(
        fleet: &Fleet,
        memos: &[SolveMemo],
        shares: &[Watts],
        down: &[bool],
    ) -> Result<(Vec<f64>, usize)> {
        let mut perfs = Vec::with_capacity(shares.len());
        let mut infeasible = 0;
        for i in 0..shares.len() {
            let perf = if down[i] { Some(0.0) } else { eval_node(fleet, memos, i, shares[i])? };
            infeasible += usize::from(perf.is_none());
            perfs.push(perf.unwrap_or(0.0));
        }
        Ok((perfs, infeasible))
    }

    /// Everything an evaluation returns, every perf by its bits, or the
    /// error it failed with.
    fn fingerprint(evaluation: &Result<(Vec<f64>, usize)>) -> String {
        match evaluation {
            Ok((perfs, infeasible)) => {
                let perfs: Vec<u64> = perfs.iter().map(|p| p.to_bits()).collect();
                format!("{perfs:x?} {infeasible}")
            }
            Err(e) => format!("error: {e}"),
        }
    }

    /// A share for a node of `class`, drawn so that neighbours often
    /// repeat one: class-relative rungs (the floor among them, which
    /// COORD refuses on a host), one wattage every class can hold, both
    /// zeros, a one-ulp nudge, and rarely a non-finite share, which
    /// fails a GPU node with a real error.
    fn draw_share(rng: &mut XorShift64Star, class: &crate::fleet::NodeClass) -> Watts {
        let floor = class.floor.value();
        let w = match rng.below(40) {
            0..=9 => floor,
            10..=21 => floor + 4.0 * (1 + rng.below(6)) as f64,
            22..=27 => class.ceiling.value(),
            28..=31 => 150.0,
            32 => 0.0,
            33 => -0.0,
            34..=36 => f64::from_bits((floor + 8.0).to_bits() + 1),
            37 => f64::NAN,
            38 => f64::INFINITY,
            _ => floor + rng.range_f64(0.0, 60.0),
        };
        Watts::new(w)
    }

    #[test]
    fn evaluate_matches_the_per_node_reference() {
        let classes = "ivybridge stream\nhaswell dgemm\ntitan-xp sgemm\ntitan-v minife\n";
        let interleaved = Fleet::build(&parse_spec(&classes.repeat(4)).unwrap()).unwrap();
        assert!(
            interleaved.nodes.windows(2).all(|w| w[0] != w[1]),
            "no two neighbours of the interleaved fleet share a class"
        );
        let mut rng = XorShift64Star::new(0x5EED_0E7A);
        let (mut oks, mut infeasible, mut errors) = (0, 0, 0);
        for fleet in [mixed_fleet(), interleaved] {
            let n = fleet.len();
            let fresh_memos = || -> Vec<SolveMemo> {
                fleet.classes.iter().map(|c| SolveMemo::fresh(&c.platform, &c.demand)).collect()
            };
            let (reference_memos, memos) = (fresh_memos(), fresh_memos());
            for case in 0..160 {
                // Runs of one drawn share, each node down one time in five
                // (or every node, or none).
                let mut shares = Vec::with_capacity(n);
                while shares.len() < n {
                    let class = fleet.class_of(shares.len());
                    let share = draw_share(&mut rng, class);
                    let run = 1 + rng.below(4);
                    for _ in 0..run.min(n - shares.len()) {
                        shares.push(share);
                    }
                }
                let down: Vec<bool> = match case % 16 {
                    0 => vec![true; n],
                    1 => vec![false; n],
                    _ => (0..n).map(|_| rng.below(5) == 0).collect(),
                };
                let want = evaluate_per_node(&fleet, &reference_memos, &shares, &down);
                match &want {
                    Ok((_, refused)) if *refused > 0 => infeasible += 1,
                    Ok(_) => oks += 1,
                    Err(_) => errors += 1,
                }
                let got = evaluate(&fleet, &memos, &shares, &down);
                assert_eq!(
                    fingerprint(&got),
                    fingerprint(&want),
                    "case {case}: shares {shares:?}, down {down:?}"
                );
            }
        }
        assert!(
            oks > 0 && infeasible > 0 && errors > 0,
            "{oks} clean, {infeasible} with refusals, {errors} failing"
        );
    }

    #[test]
    fn node_write_key_hashes_the_formatted_name() {
        for node in [0, 9, 10, 1_023, 65_535] {
            for target in [0.0, 87.25, 150.0, 1.0e-7] {
                let target = Watts::new(target);
                assert_eq!(
                    node_write_key(node, target),
                    write_key(&format!("cluster.node{node}"), target),
                    "node {node} at {target}"
                );
            }
        }
    }

    #[test]
    fn the_first_epoch_after_provisioning_moves_only_what_leaves_the_fallback() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let mut coord = FleetCoordinator::new(fleet, global).unwrap();
        coord.provision().unwrap();
        // A calm first epoch partitions every node, as `coordinate` does.
        let targets = coord.coordinate().unwrap().shares;
        let off: f64 = (0..targets.len())
            .map(|i| (targets[i] - coord.fallback().share(i)).abs().value())
            .sum();
        let e = coord.step().unwrap();
        assert!(!e.degraded && off > 1.0, "the fill must move watts off the fallback");
        assert_eq!(e.moved.value().to_bits(), (off / 2.0).to_bits(), "moved {}", e.moved);
    }

    #[test]
    fn coordinated_beats_uniform_on_a_mixed_fleet() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(220.0);
        let coord = FleetCoordinator::new(fleet, global).unwrap();
        let smart = coord.coordinate().unwrap();
        let naive = coord.uniform_decision().unwrap();
        let total: f64 = smart.shares.iter().map(|s| s.value()).sum();
        assert!((total - global.value()).abs() < 1e-6, "shares must conserve the budget");
        assert!(
            smart.aggregate_perf > naive.aggregate_perf,
            "water-filling {:.3} must beat uniform {:.3}",
            smart.aggregate_perf,
            naive.aggregate_perf
        );
    }

    #[test]
    fn budget_below_the_fleet_floor_is_refused() {
        let fleet = mixed_fleet();
        let too_small = fleet.min_total_power() - Watts::new(1.0);
        assert!(FleetCoordinator::new(fleet, too_small).is_err());
    }

    #[test]
    fn calm_run_never_violates_and_keeps_every_node_up() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let n = fleet.len();
        let mut coord = FleetCoordinator::new(fleet, global).unwrap();
        let report = coord.run(6).unwrap();
        assert!(report.survived());
        assert_eq!(report.min_nodes_up, n);
        assert_eq!(report.dropouts, 0);
        assert_eq!(report.degraded_epochs, 0);
        assert!((report.availability - 1.0).abs() < 1e-12);
        assert!(report.work_done > 0.0);
        assert_eq!(report.reconverged_at, Some(0), "a calm run is converged from tick 0");
    }

    #[test]
    fn crashes_quarantine_reclaim_and_rejoin() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(FleetFaultPlan::by_name("node-crash", 7).unwrap())
            .unwrap();
        let quiet = FleetFaultPlan::by_name("node-crash", 7).unwrap().quiet_after();
        let report = coord.run(quiet + 12).unwrap();
        assert!(report.dropouts > 0, "node-crash at seed 7 should drop nodes");
        assert!(report.recoveries > 0, "crashed nodes should come back");
        assert!(report.quarantines > 0, "silent nodes must be quarantined");
        assert!(report.rejoins > 0, "returning nodes must pass through Rejoining");
        assert!(report.missed_reports > 0, "down nodes send nothing");
        assert_eq!(report.budget_violations, 0);
        assert_eq!(report.quarantine_leaks, 0);
        assert!(report.survived());
        assert!(
            report.reconverged_at.is_some(),
            "the fleet must reconverge to all-Healthy after the plan goes quiet"
        );
        assert!(report.availability < 1.0, "crashes must dent availability");
    }

    #[test]
    fn everything_plan_survives_with_health_and_degraded_epochs() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::by_name("everything", 7).unwrap();
        let quiet = plan.quiet_after();
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap();
        let report = coord.run(quiet + 12).unwrap();
        assert!(report.dropouts > 0);
        assert!(report.degraded_epochs > 0, "the coordinator outage must degrade epochs");
        assert!(report.rejected_reports > 0, "garbled reports must be rejected");
        assert_eq!(report.budget_violations, 0, "decreases-first must hold the cap");
        assert_eq!(report.quarantine_leaks, 0);
        assert!(report.survived());
    }

    #[test]
    fn coordinator_outage_serves_the_fallback_partition() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan {
            coordinator_outage: FaultWindow::new(0, 3),
            ..FleetFaultPlan::calm(1)
        };
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap();
        let fallback_total = coord.fallback().total();
        let e = coord.step().unwrap();
        assert!(e.degraded);
        assert!(e.enforced_total <= global + Watts::new(1e-6));
        assert!((e.enforced_total.value() - fallback_total.value()).abs() < 1e-6);
        let report = coord.run(5).unwrap();
        assert_eq!(report.degraded_epochs, 2, "outage covers ticks 1 and 2 of the run");
        assert!(report.survived());
    }

    #[test]
    fn budget_cut_mid_run_is_applied_and_bad_budgets_are_rejected() {
        let fleet = mixed_fleet();
        let floor = fleet.min_total_power();
        let global = floor + Watts::new(150.0);
        let mut coord = FleetCoordinator::new(fleet, global).unwrap();
        let _ = coord.run(3).unwrap();
        let cut = floor + Watts::new(40.0);
        coord.set_global_budget(cut).unwrap();
        assert_eq!(coord.global_budget(), cut);
        let report = coord.run(4).unwrap();
        assert_eq!(report.budget_violations, 0);
        assert!(coord.enforced_total() <= cut + Watts::new(1e-6));
        // Garbage budgets are typed rejections, not panics.
        assert!(coord.set_global_budget(Watts::new(f64::NAN)).is_err());
        assert!(coord.set_global_budget(Watts::new(-5.0)).is_err());
        assert!(coord.set_global_budget(floor - Watts::new(1.0)).is_err());
        assert_eq!(coord.global_budget(), cut, "rejected budgets must not stick");
    }

    #[test]
    fn solve_memos_stay_bounded_across_budgets() {
        let fleet = mixed_fleet();
        let (floor, n) = (fleet.min_total_power(), fleet.len());
        let mut coord = FleetCoordinator::new(fleet, floor + Watts::new(150.0)).unwrap();
        for k in 0..400 {
            coord.set_global_budget(floor + Watts::new(40.0 + 0.5 * f64::from(k))).unwrap();
            let _ = coord.step().unwrap();
            let cached: usize = coord.memos.iter().map(SolveMemo::len).sum();
            assert!(cached <= n, "budget {k}: {cached} memo entries for {n} nodes");
        }
    }

    #[test]
    fn chaos_replays_are_bit_identical() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let run = || {
            let mut coord = FleetCoordinator::new(fleet.clone(), global)
                .unwrap()
                .with_plan(FleetFaultPlan::by_name("everything", 11).unwrap())
                .unwrap();
            coord.run(30).unwrap()
        };
        assert_eq!(run(), run(), "the same plan must replay identically");
    }

    #[test]
    fn tenant_chaos_never_overdraws_or_starves_a_floor() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let tenants = TenantSet::parse("batch:1:best-effort,web:3:gold,etl:2:silver").unwrap();
        let plan = FleetFaultPlan::by_name("noisy-neighbor", 9).unwrap();
        let quiet = plan.quiet_after();
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap()
            .with_tenants(tenants);
        let report = coord.run(quiet + 8).unwrap();
        assert!(report.tenant_spikes + report.tenant_noisy > 0, "seed 9 must fire tenant events");
        assert_eq!(report.budget_violations, 0, "demand spikes must never overdraw the budget");
        assert_eq!(report.tenant_floor_violations, 0, "no weighted tenant may fall below its floor");
        assert!(report.survived());
        assert!(report.min_tenant_jain > 0.0 && report.min_tenant_jain <= 1.0 + 1e-12);
    }

    #[test]
    fn objective_runs_replay_bit_identically() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        for objective in [Objective::MaxMin, Objective::WeightedShares] {
            let run = || {
                let mut coord = FleetCoordinator::new(fleet.clone(), global)
                    .unwrap()
                    .with_plan(FleetFaultPlan::by_name("demand-spike", 13).unwrap())
                    .unwrap()
                    .with_objective(objective)
                    .with_tenants(TenantSet::parse("a:1:gold,b:2").unwrap());
                coord.run(24).unwrap()
            };
            assert_eq!(run(), run(), "{} runs must replay identically", objective.name());
        }
    }

    #[test]
    fn single_tenant_runs_match_the_untenanted_baseline() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::by_name("everything", 11).unwrap();
        let mut plain = FleetCoordinator::new(fleet.clone(), global)
            .unwrap()
            .with_plan(plan.clone())
            .unwrap();
        let mut tenanted = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap()
            .with_tenants(TenantSet::parse("solo:1").unwrap());
        let a = plain.run(20).unwrap();
        let b = tenanted.run(20).unwrap();
        assert_eq!(a.budget_violations, b.budget_violations);
        assert_eq!(a.dropouts, b.dropouts, "tenant rolls must not perturb the fault streams");
        assert_eq!(a.work_done, b.work_done, "a lone tenant owns every watt the node gets");
        assert_eq!(b.tenant_floor_violations, 0);
        assert!((b.min_tenant_jain - 1.0).abs() < 1e-12, "one tenant is perfectly fair");
    }

    /// Bumps the process-global leak counter on every write, the way
    /// another coordinator's audit in the same process would.
    struct LeakingNeighbor;

    impl CapSink for LeakingNeighbor {
        fn write_cap(&mut self, _node: usize, _cap: Watts) -> Result<()> {
            pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).incr();
            Ok(())
        }
    }

    #[test]
    fn quarantine_leaks_are_counted_per_coordinator() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(FleetFaultPlan::by_name("everything", 7).unwrap())
            .unwrap()
            .with_cap_sink(Box::new(LeakingNeighbor));
        let before = pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).get();
        let report = coord.run(12).unwrap();
        assert!(pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).get() > before);
        assert_eq!(report.quarantine_leaks, 0, "another writer's leaks are not this run's");
        assert!(report.survived());
    }

    /// Fails every write, counting the calls each node gets.
    struct FailingSink(Arc<Mutex<Vec<u32>>>);

    impl CapSink for FailingSink {
        fn write_cap(&mut self, node: usize, _cap: Watts) -> Result<()> {
            self.0.lock().unwrap()[node] += 1;
            Err(PbcError::InvalidInput("the sink refuses every write".into()))
        }
    }

    #[test]
    fn a_write_that_never_lands_costs_its_node_exactly_the_retry_bound() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let calls = Arc::new(Mutex::new(vec![0; fleet.len()]));
        let sink = FailingSink(Arc::clone(&calls));
        let mut coord = FleetCoordinator::new(fleet, global).unwrap().with_cap_sink(Box::new(sink));
        for epoch in 0..4 {
            let e = coord.step().unwrap();
            let mut calls = calls.lock().unwrap();
            assert!(
                calls.iter().all(|&c| c == 0 || c == WRITE_ATTEMPTS),
                "epoch {epoch}: a node got a partial or second round of tries: {calls:?}"
            );
            let failed = calls.iter().filter(|&&c| c > 0).count();
            assert!(failed > 0 && failed == e.write_failures, "epoch {epoch}: {e:?}");
            assert_eq!(e.write_retries, (WRITE_ATTEMPTS as usize - 1) * e.write_failures);
            assert!(!e.degraded, "epoch {epoch}: failed writes must not degrade the epoch");
            assert!(coord.enforced_total() <= global, "epoch {epoch} overdrew");
            calls.fill(0);
        }
    }

    #[test]
    fn stragglers_dent_throughput_and_get_quarantined() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::by_name("stragglers", 5).unwrap();
        let quiet = plan.quiet_after();
        let mut coord = FleetCoordinator::new(fleet.clone(), global)
            .unwrap()
            .with_plan(plan)
            .unwrap();
        let report = coord.run(quiet + 8).unwrap();
        assert!(report.survived());
        let mut calm = FleetCoordinator::new(fleet, global).unwrap();
        let baseline = calm.run(quiet + 8).unwrap();
        assert!(
            report.work_done < baseline.work_done,
            "straggling epochs must do less work than the calm run ({} vs {})",
            report.work_done,
            baseline.work_done
        );
    }
}
