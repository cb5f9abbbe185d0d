//! The fleet coordinator: one global budget, N nodes, two layers of
//! coordination — and the fault tolerance that keeps the bound honest
//! when nodes crash, lag, or lie.
//!
//! Layer one is the water-filling partition ([`crate::partition`]): the
//! global budget becomes per-node shares ranked by marginal gain. Layer
//! two is the paper's per-node COORD on each share, with the resulting
//! allocation priced by the memo-backed power simulator — fanned out
//! across nodes on the `pbc-par` pool, since every node's solve is
//! independent.
//!
//! The dynamic mode ([`FleetCoordinator::step`]) runs the full failure
//! pipeline each epoch:
//!
//! 1. **Faults roll** from the armed [`FleetFaultPlan`]: one pass over
//!    the nodes advances each one's crash, straggle and write-outage
//!    [`pbc_faults::Episodes`], one pass over the tenants their spikes
//!    and noisy stretches. Every fault draw, these and the report and
//!    cap-write draws below, is one [`pbc_faults::FaultWindow::pick`]
//!    from a fresh `XorShift64Star` keyed `(seed, tick, stream, key)`,
//!    never shared state, so a chaos run is bit-identical under any
//!    `PBC_THREADS`.
//! 2. **Reports arrive** (or don't): every node's observation of the
//!    previous epoch passes the report gate, shared with
//!    `OnlineCoordinator` rather than mirrored ([`check_report`]:
//!    non-finite, out-of-range, and stale-cap rejection), before it may
//!    steer the partition.
//! 3. **Health updates**: verdicts drive the per-node Healthy →
//!    Suspect → Quarantined → Rejoining machine ([`crate::health`]).
//! 4. **Mode decides**: a coordinator outage, a timed-out previous
//!    round, or an infeasible fill drops the epoch to the precomputed
//!    [`StaticFallback`] partition, whose shares sum ≤ the global
//!    budget by construction ([`crate::degrade`]).
//! 5. **Targets partition**: water-fill over Healthy + Suspect nodes,
//!    with Quarantined/Rejoining nodes reserved at their class floors
//!    and Suspects capped at their standing grant (no raises on
//!    untrusted telemetry).
//! 6. **Enforcement lands**, decreases first, each write given up to
//!    [`pbc_rapl::WRITE_ATTEMPTS`] tries under a per-round attempt
//!    deadline: watts freed by confirmed lowerings (and by dead nodes)
//!    fund the raises; a failed lowering keeps its watts reserved; a
//!    blown deadline ends the round and degrades the next epoch. The
//!    pot for raises only ever shrinks, so `Σ enforced ≤ global` is an
//!    invariant — `cluster.budget_violations` and
//!    `health.quarantine_leaks` stay zero by construction, not by luck.

use crate::degrade::StaticFallback;
use crate::fleet::Fleet;
use crate::health::{HealthCounts, HealthTracker, NodeHealth, ReportVerdict};
use crate::partition::{fill_shares, uniform_split, NodeCurve, Objective, DEFAULT_GRANT};
use crate::tenant::{jain_index, TenantSet};
use pbc_core::{check_report, ObservationOutcome, OnlineConfig};
use pbc_faults::inject::{write_key, GOLDEN};
use pbc_faults::{Edge, FleetFaultPlan};
use pbc_par::Pool;
use pbc_powersim::SolveMemo;
use pbc_rapl::WRITE_ATTEMPTS;
use pbc_trace::names;
use pbc_types::{PbcError, PowerAllocation, Result, Watts};
use std::sync::Mutex;

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
/// Watt slack below which a cap move is not worth a write.
const EPS_W: f64 = 1e-6;

/// Where a node's cap writes land. The simulated chaos runs wire this
/// to a mock RAPL sysfs tree so "enforced" means a real file changed;
/// a daemon would wire it to per-host RPC.
pub trait CapSink {
    /// Persist `cap` as node `node`'s power limit. An `Err` counts as a
    /// failed write attempt and is retried under the round's policy.
    fn write_cap(&mut self, node: usize, cap: Watts) -> Result<()>;
}

/// One evaluated partition: the shares, what COORD made of them, and
/// the simulator-priced performance.
#[derive(Debug, Clone)]
pub struct ClusterDecision {
    /// Per-node budget shares (the caps to enforce).
    pub shares: Vec<Watts>,
    /// Per-node COORD allocations; `None` when the share was
    /// unschedulable on that node.
    pub allocs: Vec<Option<PowerAllocation>>,
    /// Per-node simulated relative throughput (0.0 for unschedulable or
    /// down nodes).
    pub perfs: Vec<f64>,
    /// Sum of `perfs` — the cluster's aggregate throughput.
    pub aggregate_perf: f64,
    /// How many nodes could not schedule their share.
    pub infeasible: usize,
}

/// What one dynamic epoch did.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Did this epoch run on the static fallback partition?
    pub degraded: bool,
    /// Did enforcement blow its attempt deadline this epoch?
    pub round_timed_out: bool,
    /// Health census at the end of the epoch.
    pub health: HealthCounts,
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
    /// Enforcement rounds that blew their attempt deadline.
    pub round_timeouts: usize,
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
    /// Aggregate throughput at the final epoch.
    pub final_aggregate: f64,
    /// Mean aggregate throughput across epochs.
    pub mean_aggregate: f64,
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

/// What supervised enforcement did in one round.
#[derive(Debug, Clone, Copy, Default)]
struct WriteStats {
    failures: usize,
    retries: usize,
    timed_out: bool,
}

/// What the tenant sub-partition did in one epoch.
#[derive(Debug, Clone, Copy)]
struct TenancyStats {
    jain: f64,
    preemptions: usize,
    floor_violations: usize,
}

impl Default for TenancyStats {
    fn default() -> Self {
        // No tenants, nothing unfair: a perfect score, zero events.
        Self { jain: 1.0, preemptions: 0, floor_violations: 0 }
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
    grant: Watts,
    plan: FleetFaultPlan,
    /// The next epoch's tick: fault decisions for epoch `k` key on `k`.
    tick: usize,
    health: HealthTracker,
    fallback: StaticFallback,
    /// One solve memo per class, owned by this coordinator so its
    /// evaluations neither pay the shared registry's lookup each epoch
    /// nor grow the process-wide caches.
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
    /// The previous enforcement round blew its deadline; this epoch
    /// must run degraded.
    prev_round_timed_out: bool,
    /// Leak-audit failures of this coordinator's rounds (the global
    /// `health.quarantine_leaks` counter sums every coordinator's).
    leaks: usize,
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
            .field("health", &self.health.counts())
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
        if !global.is_valid() || global.value() <= 0.0 {
            return Err(PbcError::InvalidInput(format!(
                "global budget must be a positive finite wattage, got {global:?}"
            )));
        }
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
            grant: DEFAULT_GRANT,
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
            prev_round_timed_out: false,
            leaks: 0,
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
    /// record the shares as enforced. The fallback sums to ≤ the global
    /// budget by construction, so `Σ enforced ≤ global` holds from the
    /// first tick instead of starting vacuously at zero.
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
        Ok(())
    }

    /// Re-negotiate the global budget mid-run. Rejects non-finite,
    /// non-positive, and below-fleet-floor budgets (counted under
    /// `cluster.rejected_budgets`); an accepted budget recomputes the
    /// static fallback so degraded mode stays safe under the new bound.
    #[must_use = "a rejected budget means the old bound is still in force"]
    pub fn set_global_budget(&mut self, budget: Watts) -> Result<()> {
        if !budget.is_valid() || budget.value() <= 0.0 {
            pbc_trace::counter(names::CLUSTER_REJECTED_BUDGETS).incr();
            return Err(PbcError::InvalidInput(format!(
                "global budget must be a positive finite wattage, got {budget:?}"
            )));
        }
        let minimum = self.fleet.min_total_power();
        if budget < minimum {
            pbc_trace::counter(names::CLUSTER_REJECTED_BUDGETS).incr();
            return Err(PbcError::BudgetTooSmall { requested: budget, minimum });
        }
        self.fallback = StaticFallback::compute(&self.fleet, budget)?;
        self.global = budget;
        pbc_trace::counter(names::CLUSTER_BUDGET_RESETS).incr();
        Ok(())
    }

    /// Water-fill the global budget and evaluate every node's share, on
    /// the global pool.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn coordinate(&self) -> Result<ClusterDecision> {
        self.coordinate_with_pool(Pool::global())
    }

    /// [`FleetCoordinator::coordinate`] on an explicit pool.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn coordinate_with_pool(&self, pool: &Pool) -> Result<ClusterDecision> {
        let curves = self.node_curves();
        let shares = fill_shares(&curves, &[], self.global, self.grant, self.objective)?;
        evaluate(&self.fleet, &self.memos, &shares, &vec![false; self.fleet.len()], pool)
    }

    /// The baseline: split the global budget evenly, floors and curves
    /// ignored, and evaluate the same way. On a heterogeneous fleet the
    /// even share under-feeds hungry nodes and strands watts on
    /// saturated ones — the gap the experiments measure.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn uniform_decision(&self) -> Result<ClusterDecision> {
        let shares = uniform_split(self.fleet.len(), self.global);
        evaluate(&self.fleet, &self.memos, &shares, &vec![false; self.fleet.len()], Pool::global())
    }

    /// The oracle aggregate at the water-filled shares: what the
    /// interpolated sweep curves promise, with no COORD heuristic or
    /// enforcement in the way. An upper reference line for `ext7`.
    #[must_use = "the oracle result carries either the aggregate or the infeasibility"]
    pub fn oracle_aggregate(&self) -> Result<f64> {
        let curves = self.node_curves();
        let shares = fill_shares(&curves, &[], self.global, self.grant, self.objective)?;
        Ok(shares
            .iter()
            .zip(curves.iter())
            .map(|(s, c)| c.curve.perf_at(*s))
            .sum())
    }

    /// One dynamic epoch on the global pool (see the module docs for
    /// the pipeline).
    #[must_use = "the epoch result carries either the report or the failure"]
    pub fn step(&mut self) -> Result<EpochReport> {
        self.step_with_pool(Pool::global())
    }

    /// [`FleetCoordinator::step`] on an explicit pool.
    #[must_use = "the epoch result carries either the report or the failure"]
    pub fn step_with_pool(&mut self, pool: &Pool) -> Result<EpochReport> {
        let tick = self.tick;
        self.tick += 1;
        let n = self.fleet.len();

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

        let (dropped, recovered) = self.roll_nodes(tick);
        let (tenant_spikes, tenant_noisy) = self.roll_tenants(tick);
        let down: Vec<bool> = self.down_until.iter().map(Option::is_some).collect();
        let up = down.iter().filter(|d| !**d).count();

        // Reports describe the previous epoch; collect, validate, and
        // fold the verdicts into the health machine.
        let prev_enforced = self.enforced.clone();
        let (missed_reports, rejected_reports) =
            self.observe_reports(tick, &prev_enforced, &down);

        // Decide the mode and the targets.
        let mut degraded =
            self.plan.coordinator_outage.active(tick) || self.prev_round_timed_out;
        let mut targets = vec![Watts::ZERO; n];
        if !degraded && !self.fill_targets(&down, &mut targets) {
            degraded = true;
        }
        if degraded {
            pbc_trace::counter(names::CLUSTER_DEGRADED_EPOCHS).incr();
            for i in 0..n {
                if !down[i] {
                    targets[i] = self.fallback.share(i);
                }
            }
        }

        let mut decision = evaluate(&self.fleet, &self.memos, &targets, &down, pool)?;
        // Stragglers run slow: their contribution shrinks by the plan's
        // slowdown factor.
        let mut dirty = false;
        for i in 0..n {
            if self.straggle_until[i].is_some() && !down[i] {
                decision.perfs[i] *= self.plan.nodes.slowdown;
                dirty = true;
            }
        }
        if dirty {
            decision.aggregate_perf = decision.perfs.iter().sum();
        }

        let stats = self.enforce_supervised(tick, &targets, &down);
        self.prev_round_timed_out = stats.timed_out;
        if stats.timed_out {
            pbc_trace::counter(names::CLUSTER_ROUND_TIMEOUTS).incr();
        }

        // The budget invariant. Decreases-first makes a violation
        // structurally impossible; the counter is the proof the trace
        // carries out to the chaos assertions.
        let enforced_total = self.enforced_total();
        if enforced_total.value() > self.global.value() + EPS_W {
            pbc_trace::counter(names::CLUSTER_BUDGET_VIOLATIONS).incr();
        }

        let moved_raw: f64 = targets
            .iter()
            .zip(self.prev_targets.iter())
            .map(|(now, was)| (*now - *was).abs().value())
            .sum();
        let moved = Watts::new(moved_raw / 2.0);
        if moved.value() > EPS_W {
            pbc_trace::counter(names::CLUSTER_REDISTRIBUTIONS).incr();
        }
        self.prev_targets = targets;
        self.enforced_hist = prev_enforced;
        self.last_perfs = decision.perfs.clone();

        // Watts the healthy pool gained from nodes that are down or
        // held at their floors, measured against the known-safe static
        // partition.
        let reclaimed: Watts = (0..n)
            .filter(|&i| {
                down[i]
                    || matches!(
                        self.health.state(i),
                        NodeHealth::Quarantined | NodeHealth::Rejoining
                    )
            })
            .map(|i| (self.fallback.share(i) - self.enforced[i]).max(Watts::ZERO))
            .sum();

        // Tenant accounting: sub-partition every live node's enforced
        // cap, score fleet-level fairness, and verify the weighted
        // floors held — the multi-tenant mirror of the budget audit.
        let tenancy = self.tenant_epoch(&down);

        let health = self.health.counts();
        pbc_trace::counter(names::CLUSTER_EPOCHS).incr();
        pbc_trace::gauge(names::CLUSTER_NODES_UP).set(up as f64);
        pbc_trace::gauge(names::CLUSTER_MOVED_W).set(moved.value());
        pbc_trace::gauge(names::CLUSTER_AGGREGATE_PERF).set(decision.aggregate_perf);
        pbc_trace::gauge(names::CLUSTER_RECLAIMED_W).set(reclaimed.value());
        pbc_trace::gauge(names::HEALTH_HEALTHY_NODES).set(health.healthy as f64);

        Ok(EpochReport {
            tick,
            nodes_up: up,
            dropped,
            recovered,
            write_failures: stats.failures,
            write_retries: stats.retries,
            missed_reports,
            rejected_reports,
            degraded,
            round_timed_out: stats.timed_out,
            health,
            aggregate_perf: decision.aggregate_perf,
            enforced_total,
            moved,
            reclaimed,
            tenant_spikes,
            tenant_noisy,
            tenant_preemptions: tenancy.preemptions,
            tenant_floor_violations: tenancy.floor_violations,
            tenant_jain: tenancy.jain,
        })
    }

    /// Run `epochs` dynamic epochs and summarize.
    #[must_use = "the run result carries either the survival report or the failure"]
    pub fn run(&mut self, epochs: usize) -> Result<ClusterReport> {
        self.run_with_pool(epochs, Pool::global())
    }

    /// [`FleetCoordinator::run`] on an explicit pool.
    #[must_use = "the run result carries either the survival report or the failure"]
    pub fn run_with_pool(&mut self, epochs: usize, pool: &Pool) -> Result<ClusterReport> {
        let n = self.fleet.len();
        let quiet = self.plan.quiet_after();
        let tally_before = self.health.tally();
        let leaks_before = self.leaks;
        let mut report = ClusterReport {
            min_nodes_up: n,
            min_tenant_jain: 1.0,
            ..ClusterReport::default()
        };
        let mut healthy_node_epochs = 0usize;
        for _ in 0..epochs {
            let e = self.step_with_pool(pool)?;
            report.epochs += 1;
            report.dropouts += e.dropped;
            report.recoveries += e.recovered;
            report.write_failures += e.write_failures;
            report.write_retries += e.write_retries;
            report.missed_reports += e.missed_reports;
            report.rejected_reports += e.rejected_reports;
            report.tenant_spikes += e.tenant_spikes;
            report.tenant_noisy += e.tenant_noisy;
            report.tenant_preemptions += e.tenant_preemptions;
            report.tenant_floor_violations += e.tenant_floor_violations;
            report.min_tenant_jain = report.min_tenant_jain.min(e.tenant_jain);
            if e.degraded {
                report.degraded_epochs += 1;
            }
            if e.round_timed_out {
                report.round_timeouts += 1;
            }
            if e.enforced_total.value() > self.global.value() + EPS_W {
                report.budget_violations += 1;
            }
            report.min_nodes_up = report.min_nodes_up.min(e.nodes_up);
            report.final_aggregate = e.aggregate_perf;
            report.work_done += e.aggregate_perf;
            healthy_node_epochs += e.health.healthy;
            if report.reconverged_at.is_none()
                && e.tick >= quiet
                && !e.degraded
                && e.health.healthy == n
            {
                report.reconverged_at = Some(e.tick);
            }
        }
        let tally = self.health.tally();
        report.quarantines = tally.quarantines - tally_before.quarantines;
        report.rejoins = tally.rejoins - tally_before.rejoins;
        report.quarantine_leaks = self.leaks - leaks_before;
        if report.epochs > 0 {
            report.mean_aggregate = report.work_done / report.epochs as f64;
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

    /// Advance every node's crash, straggle and write-outage episode
    /// to `tick`. Returns `(dropped, recovered)` counts.
    fn roll_nodes(&mut self, tick: usize) -> (usize, usize) {
        let (seed, nodes, outage) = (self.plan.seed, self.plan.nodes, self.plan.writes.outage);
        let mut dropped = 0;
        let mut recovered = 0;
        for i in 0..self.fleet.len() {
            let key = i as u64;
            match nodes.crash.advance(&mut self.down_until[i], seed, tick, STREAM_NODE, key) {
                Edge::Started => {
                    dropped += 1;
                    pbc_trace::counter(names::CLUSTER_DROPOUTS).incr();
                }
                Edge::Ended => {
                    recovered += 1;
                    pbc_trace::counter(names::CLUSTER_RECOVERIES).incr();
                }
                Edge::Steady => {}
            }
            // Stragglers start only on nodes that are up; a running
            // straggle still expires while its node is down.
            if self.down_until[i].is_none() || self.straggle_until[i].is_some() {
                let until = &mut self.straggle_until[i];
                let _ = nodes.straggle.advance(until, seed, tick, STREAM_STRAGGLE, key);
            }
            let until = &mut self.write_outage_until[i];
            let _ = outage.advance(until, seed, tick, STREAM_WRITE_OUTAGE, key);
        }
        (dropped, recovered)
    }

    /// Advance every tenant's demand-spike and noisy-neighbor episode
    /// to `tick`. Inert without tenants: no draws, so untenanted runs
    /// replay exactly. Returns `(spikes, noisy)` onset counts.
    fn roll_tenants(&mut self, tick: usize) -> (usize, usize) {
        if self.tenants.is_none() {
            return (0, 0);
        }
        let (seed, faults) = (self.plan.seed, self.plan.tenants);
        let mut spikes = 0;
        let mut noisy = 0;
        for t in 0..self.tenant_spike_until.len() {
            let key = t as u64;
            let spike = &mut self.tenant_spike_until[t];
            if faults.spike.advance(spike, seed, tick, STREAM_TENANT_SPIKE, key) == Edge::Started {
                spikes += 1;
                pbc_trace::counter(names::CLUSTER_TENANT_SPIKES).incr();
            }
            let hog = &mut self.tenant_noisy_until[t];
            if faults.noisy.advance(hog, seed, tick, STREAM_TENANT_NOISY, key) == Edge::Started {
                noisy += 1;
                pbc_trace::counter(names::CLUSTER_TENANT_NOISY).incr();
            }
        }
        (spikes, noisy)
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

    /// Simulate, validate, and ingest every node's observation report.
    /// Returns `(missed, rejected)` counts for the epoch.
    fn observe_reports(
        &mut self,
        tick: usize,
        prev_enforced: &[Watts],
        down: &[bool],
    ) -> (usize, usize) {
        let mut missed = 0;
        let mut rejected = 0;
        for i in 0..self.fleet.len() {
            let verdict = self.node_report_verdict(tick, i, prev_enforced, down[i]);
            match verdict {
                ReportVerdict::Missing => {
                    missed += 1;
                    pbc_trace::counter(names::CLUSTER_MISSED_REPORTS).incr();
                }
                ReportVerdict::Rejected => {
                    rejected += 1;
                    pbc_trace::counter(names::CLUSTER_REJECTED_REPORTS).incr();
                }
                ReportVerdict::Accepted => {}
            }
            self.health.observe(i, verdict);
        }
        (missed, rejected)
    }

    /// One node's report for this epoch, faults applied, then passed
    /// through the report gate `OnlineCoordinator` uses.
    fn node_report_verdict(
        &self,
        tick: usize,
        node: usize,
        prev_enforced: &[Watts],
        down: bool,
    ) -> ReportVerdict {
        if down {
            return ReportVerdict::Missing;
        }
        // The honest report: the cap the node ran on last epoch and the
        // throughput it measured. A straggler lags one epoch further
        // behind, so its cap snapshot is one epoch staler.
        let mut cap = prev_enforced[node];
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
        let max_perf = OnlineConfig::default().max_credible_perf;
        match check_report(perf, max_perf, &[cap], &[(cap, prev_enforced[node])]) {
            ObservationOutcome::Used => ReportVerdict::Accepted,
            _ => ReportVerdict::Rejected,
        }
    }

    /// Water-fill targets over the trusted membership. Healthy and
    /// Suspect nodes participate; Quarantined and Rejoining nodes are
    /// reserved at their class floors (a possibly-alive node is never
    /// starved below its floor); Suspects are then capped at their
    /// standing grant so untrusted telemetry cannot win raises. Returns
    /// `false` when the fill is infeasible — the caller degrades.
    fn fill_targets(&self, down: &[bool], targets: &mut [Watts]) -> bool {
        let n = self.fleet.len();
        let mut allocatable = Vec::new();
        let mut reserved = Watts::ZERO;
        for i in 0..n {
            if down[i] {
                continue;
            }
            match self.health.state(i) {
                NodeHealth::Healthy | NodeHealth::Suspect => allocatable.push(i),
                NodeHealth::Quarantined | NodeHealth::Rejoining => {
                    let floor = self.fleet.class_of(i).floor;
                    targets[i] = floor;
                    reserved += floor;
                }
            }
        }
        if reserved > self.global {
            return false;
        }
        if allocatable.is_empty() {
            return true;
        }
        let avail = self.global - reserved;
        let live_curves: Vec<NodeCurve<'_>> =
            allocatable.iter().map(|&i| self.node_curve(i)).collect();
        // Any refusal (the fill only refuses an infeasible budget today)
        // degrades the epoch: the static fallback is the safe floor.
        let Ok(shares) = fill_shares(&live_curves, &[], avail, self.grant, self.objective) else {
            return false;
        };
        for (k, &i) in allocatable.iter().enumerate() {
            targets[i] = shares[k];
            if self.health.state(i) == NodeHealth::Suspect {
                // No raises on untrusted telemetry: hold at the larger
                // of the standing cap and the floor. The clamped watts
                // stay unspent this epoch — the safe direction.
                let hold = self.enforced[i].max(self.fleet.class_of(i).floor);
                targets[i] = targets[i].min(hold);
            }
        }
        true
    }

    /// Sub-partition every live node's enforced cap among the tenants
    /// and score the epoch: fleet-level Jain index on weight-normalized
    /// tenant watts, preemption events, and weighted-floor violations
    /// (structurally zero). Single-tenant fleets score a perfect 1.
    fn tenant_epoch(&self, down: &[bool]) -> TenancyStats {
        let Some(tenants) = self.tenants.as_ref() else {
            return TenancyStats::default();
        };
        let demand = self.tenant_demand();
        let mut watts = vec![0.0f64; tenants.len()];
        let mut preemptions = 0;
        let mut floor_violations = 0;
        for i in 0..self.fleet.len() {
            if down[i] || self.enforced[i].value() <= EPS_W {
                continue;
            }
            let floor = self.fleet.class_of(i).floor;
            let split = tenants.split_node(self.enforced[i], floor, &demand);
            preemptions += split.preemptions;
            floor_violations += split.floor_violations;
            for (t, s) in split.shares.iter().enumerate() {
                watts[t] += s.value();
            }
        }
        let normalized: Vec<f64> = watts
            .iter()
            .zip(tenants.tenants().iter())
            .map(|(w, t)| w / t.weight)
            .collect();
        let jain = jain_index(&normalized);
        if preemptions > 0 {
            pbc_trace::counter(names::CLUSTER_TENANT_PREEMPTIONS).add(preemptions as u64);
        }
        if floor_violations > 0 {
            pbc_trace::counter(names::CLUSTER_TENANT_FLOOR_VIOLATIONS)
                .add(floor_violations as u64);
        }
        pbc_trace::gauge(names::CLUSTER_TENANT_JAIN).set(jain);
        TenancyStats { jain, preemptions, floor_violations }
    }

    /// Move enforced caps toward `targets`, decreases first, each write
    /// given up to `WRITE_ATTEMPTS` tries under a per-round attempt
    /// deadline. A down node's cap releases unconditionally (its draw
    /// is gone whether or not a write lands); a failed decrease keeps
    /// its watts reserved; raises are funded strictly from the pot the
    /// confirmed decreases left, so `Σ enforced ≤ global` is an
    /// invariant, not an aspiration.
    fn enforce_supervised(&mut self, tick: usize, targets: &[Watts], down: &[bool]) -> WriteStats {
        let n = targets.len();
        let mut stats = WriteStats::default();
        // The round's write-attempt deadline: every node's full
        // `WRITE_ATTEMPTS`, shared across the round. A fault storm that
        // needs more is a timed-out round, not a wedged fleet.
        let mut attempts_left = n * WRITE_ATTEMPTS as usize;

        // Phase 1: releases.
        for i in 0..n {
            if down[i] {
                self.enforced[i] = Watts::ZERO;
                continue;
            }
            if targets[i] < self.enforced[i] {
                if stats.timed_out {
                    continue; // watts stay reserved — the safe direction
                }
                if self.try_write(tick, i, targets[i], &mut attempts_left, &mut stats) {
                    self.enforced[i] = targets[i];
                }
            }
        }

        // Phase 2: raises, funded only by what phase 1 actually freed.
        let spent = self.enforced_total();
        let pot_legit = (self.global - spent).max(Watts::ZERO);
        let mut pot = pot_legit;
        let mut raised = Watts::ZERO;
        for i in 0..n {
            if stats.timed_out {
                break;
            }
            if down[i] || targets[i] <= self.enforced[i] {
                continue;
            }
            let want = targets[i] - self.enforced[i];
            let raise = want.min(pot);
            if raise.value() <= EPS_W {
                continue;
            }
            let next = self.enforced[i] + raise;
            if self.try_write(tick, i, next, &mut attempts_left, &mut stats) {
                self.enforced[i] = next;
                pot = pot - raise;
                raised += raise;
            }
        }

        // The leak audit: raises applied must never exceed the pot the
        // confirmed decreases legitimately left. Structurally zero —
        // the counter is the exported proof.
        if raised.value() > pot_legit.value() + EPS_W {
            self.leaks += 1;
            pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).incr();
        }
        stats
    }

    /// One supervised cap write: up to `WRITE_ATTEMPTS` tries against the
    /// plan's fault draw (and the sink, when armed), spending from the
    /// round's shared attempt budget. Returns `true` when the write
    /// landed.
    fn try_write(
        &mut self,
        tick: usize,
        node: usize,
        target: Watts,
        attempts_left: &mut usize,
        stats: &mut WriteStats,
    ) -> bool {
        for attempt in 0..WRITE_ATTEMPTS {
            if *attempts_left == 0 {
                stats.timed_out = true;
                return false;
            }
            *attempts_left -= 1;
            if attempt > 0 {
                stats.retries += 1;
                pbc_trace::counter(names::CLUSTER_WRITE_RETRIES).incr();
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
        stats.failures += 1;
        pbc_trace::counter(names::CLUSTER_WRITE_FAILURES).incr();
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
        let key = write_key(&format!("cluster.node{node}"), target);
        let stream = STREAM_CAP ^ key.wrapping_mul(GOLDEN);
        let probs = [faults.fail_prob];
        faults.window.pick(&probs, self.plan.seed, tick, stream, u64::from(attempt)).is_some()
    }
}

/// Coordinate and price every node's share, fanned out on `pool`. Down
/// nodes contribute nothing without touching the infeasibility counter;
/// an infeasible share (COORD or the solver refusing it) scores 0.0;
/// real solver errors fail the whole evaluation; worker panics re-raise
/// on the caller.
fn evaluate(
    fleet: &Fleet,
    memos: &[SolveMemo],
    shares: &[Watts],
    down: &[bool],
    pool: &Pool,
) -> Result<ClusterDecision> {
    let n = shares.len();
    type Slot = Mutex<Option<Result<(Option<PowerAllocation>, f64)>>>;
    let slots: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let out = if down[i] {
            Ok((None, 0.0))
        } else {
            eval_node(fleet, memos, i, shares[i])
        };
        if let Ok(mut slot) = slots[i].lock() {
            *slot = Some(out);
        }
    };
    let stats = pool.run(n, &task);
    if let Some(payload) = stats.panic {
        std::panic::resume_unwind(payload);
    }
    let mut allocs = Vec::with_capacity(n);
    let mut perfs = Vec::with_capacity(n);
    let mut infeasible = 0;
    for (i, slot) in slots.into_iter().enumerate() {
        let taken = slot.into_inner().unwrap_or(None);
        match taken {
            Some(Ok((alloc, perf))) => {
                if alloc.is_none() && !down[i] {
                    infeasible += 1;
                    pbc_trace::counter(names::CLUSTER_INFEASIBLE_NODES).incr();
                }
                allocs.push(alloc);
                perfs.push(perf);
            }
            Some(Err(e)) => return Err(e),
            None => {
                return Err(PbcError::InvalidInput(format!(
                    "cluster evaluation lost node {i} (worker never reported)"
                )))
            }
        }
    }
    let aggregate_perf = perfs.iter().sum();
    Ok(ClusterDecision { shares: shares.to_vec(), allocs, perfs, aggregate_perf, infeasible })
}

fn eval_node(
    fleet: &Fleet,
    memos: &[SolveMemo],
    node: usize,
    share: Watts,
) -> Result<(Option<PowerAllocation>, f64)> {
    let class = fleet.class_of(node);
    let coord = match class.coordinate(share) {
        Ok(r) => r,
        Err(e) if e.is_infeasible() => return Ok((None, 0.0)),
        Err(e) => return Err(e),
    };
    match memos[fleet.nodes[node]].solve(coord.alloc) {
        Ok(op) => Ok((Some(coord.alloc), op.perf_rel)),
        Err(e) if e.is_infeasible() => Ok((None, 0.0)),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::parse_spec;
    use pbc_faults::FaultWindow;

    fn mixed_fleet() -> Fleet {
        let spec = parse_spec(
            "4 ivybridge stream\n\
             4 haswell dgemm\n\
             2 titan-xp sgemm\n",
        )
        .unwrap();
        Fleet::build(&spec).unwrap()
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
        assert!(report.final_aggregate > 0.0);
        assert_eq!(report.reconverged_at, Some(0), "a calm run is converged from tick 0");
    }

    #[test]
    fn crashes_quarantine_reclaim_and_rejoin() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(FleetFaultPlan::node_crash(7))
            .unwrap();
        let quiet = FleetFaultPlan::node_crash(7).quiet_after();
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
        let plan = FleetFaultPlan::everything(7);
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
    fn chaos_replays_are_bit_identical() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let run = |threads: usize| {
            let pool = Pool::new(threads);
            let mut coord = FleetCoordinator::new(fleet.clone(), global)
                .unwrap()
                .with_plan(FleetFaultPlan::everything(11))
                .unwrap();
            coord.run_with_pool(30, &pool).unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "the same plan must replay identically across thread counts");
    }

    #[test]
    fn tenant_chaos_never_overdraws_or_starves_a_floor() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let tenants = TenantSet::parse("batch:1:best-effort,web:3:gold,etl:2:silver").unwrap();
        let plan = FleetFaultPlan::noisy_neighbor(9);
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
            let run = |threads: usize| {
                let pool = Pool::new(threads);
                let mut coord = FleetCoordinator::new(fleet.clone(), global)
                    .unwrap()
                    .with_plan(FleetFaultPlan::demand_spike(13))
                    .unwrap()
                    .with_objective(objective)
                    .with_tenants(TenantSet::parse("a:1:gold,b:2").unwrap());
                coord.run_with_pool(24, &pool).unwrap()
            };
            let a = run(1);
            let b = run(4);
            assert_eq!(a, b, "{} runs must replay identically across thread counts", objective.name());
        }
    }

    #[test]
    fn single_tenant_runs_match_the_untenanted_baseline() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::everything(11);
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
            .with_plan(FleetFaultPlan::everything(7))
            .unwrap()
            .with_cap_sink(Box::new(LeakingNeighbor));
        let before = pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).get();
        let report = coord.run(12).unwrap();
        assert!(pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).get() > before);
        assert_eq!(report.quarantine_leaks, 0, "another writer's leaks are not this run's");
        assert!(report.survived());
    }

    /// Evaluation goes through the coordinator's own memos: a run leaves
    /// every class's process-wide memo as profiling left it.
    #[test]
    fn runs_leave_the_shared_solve_memos_alone() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let shared: Vec<_> =
            fleet.classes.iter().map(|c| SolveMemo::for_problem(&c.platform, &c.demand)).collect();
        let before: Vec<usize> = shared.iter().map(|m| m.len()).collect();
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(FleetFaultPlan::everything(7))
            .unwrap();
        let report = coord.run(12).unwrap();
        assert!(report.work_done > 0.0);
        assert!(coord.coordinate().unwrap().aggregate_perf > 0.0);
        let after: Vec<usize> = shared.iter().map(|m| m.len()).collect();
        assert_eq!(before, after, "a coordinator run grew the shared solve memos");
    }

    #[test]
    fn stragglers_dent_throughput_and_get_quarantined() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::stragglers(5);
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
