//! Canonical span, counter, and gauge names.
//!
//! Instrumented crates name their metrics through these constants so the
//! trace schema has one source of truth (and `docs/OBSERVABILITY.md` has
//! one table to keep in sync). Names form a dotted hierarchy rooted at
//! the subsystem: `sweep.*`, `solve.*`, `coord.*`, `online.*`.

// --- sweep (crates/core/src/sweep.rs) ---------------------------------

/// Root span around one whole sweep.
pub const SPAN_SWEEP: &str = "sweep";
/// One worker batch, parented under [`SPAN_SWEEP`].
pub const SPAN_SWEEP_WORKER: &str = "sweep.worker";

/// Allocations handed to the sweep (the full candidate space).
pub const SWEEP_POINTS_TOTAL: &str = "sweep.points_total";
/// Allocations that solved to an operating point.
pub const SWEEP_POINTS_EVALUATED: &str = "sweep.points_evaluated";
/// Allocations the solver rejected as infeasible (counted, then skipped).
pub const SWEEP_POINTS_INFEASIBLE: &str = "sweep.points_infeasible";
/// Points dropped by a worker failure. **Must read zero on a healthy
/// run** — a nonzero value is the silent-data-loss bug this crate was
/// built to expose.
pub const SWEEP_POINTS_LOST: &str = "sweep.points_lost";
/// Real solver errors (not infeasibility). Also must read zero; nonzero
/// fails the sweep loudly.
pub const SWEEP_SOLVER_ERRORS: &str = "sweep.solver_errors";

/// Points the shared-grid oracle (`sweep_curve`) served from another
/// union-grid point's solve of the same canonical key instead of
/// re-solving.
pub const SWEEP_CURVE_REUSE_HITS: &str = "sweep.curve_reuse_hits";

// --- thread pool (crates/par) -----------------------------------------

/// One-time gauge: executors the process-wide pool was sized with
/// (`PBC_THREADS` override, else available parallelism). A value of 1 in
/// a trace explains a serialized sweep.
pub const POOL_THREADS: &str = "pool.threads";
/// Jobs published to a pool's workers (nested calls run inline and are
/// not counted).
pub const POOL_JOBS: &str = "pool.jobs";
/// Chunks an executor claimed beyond an even split of its job,
/// `ceil(chunks / threads)`: the load imbalance the shared cursor
/// absorbed.
pub const POOL_STEALS: &str = "pool.steals";

// --- solver (crates/powersim) -----------------------------------------

/// Calls into `pbc_powersim::solve`.
pub const SOLVE_EVALUATIONS: &str = "solve.evaluations";
/// Solves rejected as infeasible (budget/cap not schedulable).
pub const SOLVE_INFEASIBLE: &str = "solve.infeasible";
/// Solves that failed with a real error.
pub const SOLVE_ERRORS: &str = "solve.errors";
/// Memoized solves served from a `SolveMemo` cache, plus the union-grid
/// points `sweep_curve` served from another point's solve of the same
/// canonical key. Not counted in [`SOLVE_EVALUATIONS`].
pub const SOLVE_CACHE_HITS: &str = "solve.cache_hits";
/// Memoized solves that missed the cache and ran the real solver, plus
/// `sweep_curve`'s one solve per unique canonical key.
pub const SOLVE_CACHE_MISSES: &str = "solve.cache_misses";
/// CPU phase solves whose RAPL ladder pick still changed after six
/// undamped fixed-point steps, so the solver fell back to the damped
/// iteration. Reads zero across the shipped suite.
pub const SOLVE_FIXED_POINT_FALLBACKS: &str = "solve.fixed_point_fallbacks";

// --- steady-state fast path (crates/core/src/fastpath.rs) --------------

/// Allocations served straight off a precomputed interpolation table
/// (no solver touched).
pub const FASTPATH_TABLE_HITS: &str = "fastpath.table_hits";
/// Interpolation tables built (or rebuilt) by a full `sweep_curve` pass.
pub const FASTPATH_TABLE_REBUILDS: &str = "fastpath.table_rebuilds";

// --- static coordinator (crates/core/src/coord.rs) --------------------

/// CPU coordinations resolved in regime A (surplus left over).
pub const COORD_CPU_REGIME_A: &str = "coord.cpu.regime_a";
/// CPU coordinations resolved in regime B.
pub const COORD_CPU_REGIME_B: &str = "coord.cpu.regime_b";
/// CPU coordinations resolved in regime C.
pub const COORD_CPU_REGIME_C: &str = "coord.cpu.regime_c";
/// CPU coordinations rejected (budget below minimum — regime D).
pub const COORD_CPU_REJECTED: &str = "coord.cpu.rejected";
/// Last CPU surplus returned to the node budget, in watts.
pub const COORD_CPU_SURPLUS_W: &str = "coord.cpu.surplus_w";

/// GPU coordinations resolved compute-intensive.
pub const COORD_GPU_COMPUTE: &str = "coord.gpu.compute_intensive";
/// GPU coordinations resolved memory-full.
pub const COORD_GPU_MEM_FULL: &str = "coord.gpu.mem_full";
/// GPU coordinations resolved balanced.
pub const COORD_GPU_BALANCED: &str = "coord.gpu.balanced";
/// GPU coordinations rejected (cap out of range).
pub const COORD_GPU_REJECTED: &str = "coord.gpu.rejected";
/// Last GPU surplus returned to the node budget, in watts.
pub const COORD_GPU_SURPLUS_W: &str = "coord.gpu.surplus_w";

// --- fault injection (crates/faults) ----------------------------------

/// Total faults injected, all kinds (sum of the `faults.*` kind counters).
pub const FAULTS_INJECTED: &str = "faults.injected";
/// Sensor observations perturbed by multiplicative noise.
pub const FAULTS_SENSOR_NOISE: &str = "faults.sensor_noise";
/// Sensor observations replaced by a stale (previous-epoch) reading.
pub const FAULTS_SENSOR_STALE: &str = "faults.sensor_stale";
/// Sensor observations dropped (non-finite or absurd surrogate emitted).
pub const FAULTS_SENSOR_DROPOUT: &str = "faults.sensor_dropout";
/// Enforcement writes failed transiently (a retry succeeds).
pub const FAULTS_WRITE_TRANSIENT: &str = "faults.write_transient";
/// Enforcement writes failed permanently (every retry fails).
pub const FAULTS_WRITE_PERMANENT: &str = "faults.write_permanent";
/// Mid-run budget steps applied by a fault plan.
pub const FAULTS_BUDGET_STEPS: &str = "faults.budget_steps";
/// Mid-run workload phase shifts applied by a fault plan.
pub const FAULTS_PHASE_SHIFTS: &str = "faults.phase_shifts";

// --- transactional enforcement (crates/rapl/src/enforce.rs) -----------

/// Enforcement transactions attempted.
pub const ENFORCE_ATTEMPTS: &str = "enforce.attempts";
/// Individual cap writes retried after a transient failure.
pub const ENFORCE_RETRIES: &str = "enforce.retries";
/// Transactions rolled back after a permanent write failure. **Must
/// equal [`ENFORCE_PERMANENT_FAILURES`] on every run** — a gap means a
/// half-applied allocation escaped the transactional contract.
pub const ENFORCE_ROLLBACKS: &str = "enforce.rollbacks";
/// Cap writes that exhausted every retry.
pub const ENFORCE_PERMANENT_FAILURES: &str = "enforce.permanent_failures";
/// Best-effort rollback restores that themselves failed (the domain is
/// left at the *new* cap; the enforce error reports it).
pub const ENFORCE_ROLLBACK_ERRORS: &str = "enforce.rollback_errors";

// --- chaos harness (crates/faults/src/chaos.rs) -----------------------

/// Epochs driven by the chaos harness.
pub const CHAOS_EPOCHS: &str = "chaos.epochs";
/// Emergency clamp enforcements after an over-budget read-back.
pub const CHAOS_CLAMPS: &str = "chaos.clamps";
/// Epochs that *ended* with enforced caps above the live budget. **Must
/// read zero for every shipped fault plan** — the budget invariant.
pub const CHAOS_BUDGET_VIOLATIONS: &str = "chaos.budget_violations";

// --- online coordinator (crates/core/src/online.rs) -------------------

/// Epochs observed by the online coordinator.
pub const ONLINE_EPOCHS: &str = "online.epochs";
/// Probes that improved performance and were accepted.
pub const ONLINE_ACCEPTED: &str = "online.accepted";
/// Probes that regressed performance and were rolled back.
pub const ONLINE_REJECTED: &str = "online.rejected";
/// Step-size decays after a failed probe pair.
pub const ONLINE_STEP_DECAYS: &str = "online.step_decays";
/// Probes shifting power toward the processors.
pub const ONLINE_PROBE_TOWARD_PROC: &str = "online.probe_toward_proc";
/// Probes shifting power toward memory.
pub const ONLINE_PROBE_TOWARD_MEM: &str = "online.probe_toward_mem";
/// Current probe step size, in watts.
pub const ONLINE_STEP_W: &str = "online.step_w";
/// Best performance seen so far (solver performance units).
pub const ONLINE_BEST_PERF: &str = "online.best_perf";
/// Observations rejected by validation (non-finite, out of physical
/// range, or stale — not matching the allocation that was probed).
pub const ONLINE_REJECTED_OBSERVATIONS: &str = "online.rejected_observations";
/// Watchdog trips: persistent over-budget draw degraded the search to
/// the known-safe fallback allocation.
pub const ONLINE_FALLBACKS: &str = "online.fallbacks";
/// Budget changes that re-opened a settled (or in-flight) search.
pub const ONLINE_BUDGET_RESETS: &str = "online.budget_resets";
/// Budget changes rejected by validation (non-finite, non-positive, or
/// below the configured minimum) before they could poison the search.
pub const ONLINE_REJECTED_BUDGETS: &str = "online.rejected_budgets";

// --- cluster coordinator (crates/cluster) ------------------------------

/// Dynamic epochs executed by a `FleetCoordinator`.
pub const CLUSTER_EPOCHS: &str = "cluster.epochs";
/// Epochs whose water-filling pass moved watts between nodes.
pub const CLUSTER_REDISTRIBUTIONS: &str = "cluster.redistributions";
/// Grants the water-fill made, one per quantum a node received (the
/// grants it replayed across a level's identical nodes included).
pub const CLUSTER_FILL_QUANTA: &str = "cluster.fill_quanta";
/// Winner walks of the water-fill's level index: the picks it made
/// rather than replayed.
pub const CLUSTER_FILL_PICKS: &str = "cluster.fill_picks";
/// (Class, share) pairs the fleet evaluation priced with COORD and the
/// solver, however many nodes hold each pair; a pair the coordinator
/// still holds a price for is not priced again.
pub const CLUSTER_EVALUATIONS: &str = "cluster.evaluations";
/// Node dropout events injected by the cluster fault plan.
pub const CLUSTER_DROPOUTS: &str = "cluster.dropouts";
/// Dropped nodes that rejoined the fleet.
pub const CLUSTER_RECOVERIES: &str = "cluster.recoveries";
/// Cluster cap writes that failed under the fault plan.
pub const CLUSTER_WRITE_FAILURES: &str = "cluster.write_failures";
/// Nodes whose share could not be scheduled (COORD or the solver
/// refused it); they idle at zero performance for the epoch.
pub const CLUSTER_INFEASIBLE_NODES: &str = "cluster.infeasible_nodes";
/// Epochs that ended with the summed enforced caps above the global
/// budget. **Must read zero on every run** — decreases-first
/// enforcement makes a violation structurally impossible.
pub const CLUSTER_BUDGET_VIOLATIONS: &str = "cluster.budget_violations";
/// Fleet size the coordinator was built with.
pub const CLUSTER_NODES: &str = "cluster.nodes";
/// Live nodes at the end of the last epoch.
pub const CLUSTER_NODES_UP: &str = "cluster.nodes_up";
/// Watts that changed hands between nodes in the last epoch.
pub const CLUSTER_MOVED_W: &str = "cluster.moved_w";
/// Aggregate relative throughput across live nodes, last epoch.
pub const CLUSTER_AGGREGATE_PERF: &str = "cluster.aggregate_perf";
/// Node observation reports rejected by validation (non-finite,
/// out-of-range, or stale) before they could steer the partition.
pub const CLUSTER_REJECTED_REPORTS: &str = "cluster.rejected_reports";
/// Node observation reports that never arrived for an epoch (dropped
/// in flight, or the node is down).
pub const CLUSTER_MISSED_REPORTS: &str = "cluster.missed_reports";
/// Epochs served from the precomputed static fallback partition
/// because global coordination was unavailable (coordinator outage or
/// an infeasible water-fill).
pub const CLUSTER_DEGRADED_EPOCHS: &str = "cluster.degraded_epochs";
/// Cap-write retries spent recovering from transient write failures
/// (attempts beyond the first, across all nodes).
pub const CLUSTER_WRITE_RETRIES: &str = "cluster.write_retries";
/// Global fleet budget re-negotiations accepted mid-run.
pub const CLUSTER_BUDGET_RESETS: &str = "cluster.budget_resets";
/// Global fleet budget changes rejected by validation (non-finite or
/// non-positive) before they could poison the partition.
pub const CLUSTER_REJECTED_BUDGETS: &str = "cluster.rejected_budgets";
/// Watts currently reclaimed for the healthy pool from down,
/// quarantined, and rejoining nodes, measured against the static
/// fallback partition (gauge, end of last epoch).
pub const CLUSTER_RECLAIMED_W: &str = "cluster.reclaimed_w";
/// Tenants attached to the cluster coordinator (gauge; zero when the
/// fleet runs single-tenant).
pub const CLUSTER_TENANTS: &str = "cluster.tenants";
/// Tenant demand-spike events injected by the fleet fault plan.
pub const CLUSTER_TENANT_SPIKES: &str = "cluster.tenant_spikes";
/// Noisy-neighbor events injected by the fleet fault plan (a tenant's
/// demand hogs its nodes for a stretch).
pub const CLUSTER_TENANT_NOISY: &str = "cluster.tenant_noisy";
/// Lower-SLA tenants whose surplus demand was preempted because a
/// node's budget ran out funding higher tiers first (per tenant, per
/// epoch).
pub const CLUSTER_TENANT_PREEMPTIONS: &str = "cluster.tenant_preemptions";
/// Epochs in which some tenant's allocation fell below its weighted
/// floor. **Must read zero on every run** — the sub-partition funds
/// floors before any surplus is handed out.
pub const CLUSTER_TENANT_FLOOR_VIOLATIONS: &str = "cluster.tenant_floor_violations";
/// Jain fairness index of the weight-normalized per-tenant allocations,
/// last epoch (gauge in `(0, 1]`; 1 is perfectly fair).
pub const CLUSTER_TENANT_JAIN: &str = "cluster.tenant_jain";

// --- coordination daemon (crates/serve) --------------------------------

/// Protocol requests accepted for serving (everything except the
/// control-plane verbs `quit` and `shutdown`, which steer the transport
/// rather than the coordination state). **Must equal
/// [`SERVE_SERVED_REQUESTS`] + [`SERVE_REJECTED_REQUESTS`] on every
/// run** — the serving conservation law.
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Requests that were served with an `ok`/`alloc` response.
pub const SERVE_SERVED_REQUESTS: &str = "serve.served_requests";
/// Requests rejected with a typed `err` response (malformed lines,
/// unknown sessions, and validation rejections mirrored from the
/// coordinator). A reject answers the client and keeps the session and
/// connection alive — it never kills either.
pub const SERVE_REJECTED_REQUESTS: &str = "serve.rejected_requests";
/// Coordination sessions opened over the lifetime of the daemon
/// (`node` and `provision` requests).
pub const SERVE_SESSIONS_OPENED: &str = "serve.sessions_opened";
/// TCP connections accepted over the lifetime of the daemon.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Telemetry export ticks completed (one per interval, plus the final
/// drain export); each fed one snapshot to every sink.
pub const SERVE_EXPORTS: &str = "serve.exports";
/// Prometheus `/metrics` scrapes answered.
pub const SERVE_SCRAPES: &str = "serve.scrapes";
/// Live coordination sessions (gauge).
pub const SERVE_SESSIONS: &str = "serve.sessions";
/// Open client TCP connections (gauge).
pub const SERVE_OPEN_CONNECTIONS: &str = "serve.open_connections";

// --- node health state machine (crates/cluster/src/health.rs) ---------

/// Healthy → Suspect transitions (a node's reports started missing or
/// failing validation).
pub const HEALTH_SUSPECTS: &str = "health.suspects";
/// Transitions into Quarantined (miss streak reached the threshold, or
/// a probation epoch missed its report).
pub const HEALTH_QUARANTINES: &str = "health.quarantines";
/// Quarantined → Rejoining transitions (a quarantined node delivered a
/// valid report again).
pub const HEALTH_REJOINS: &str = "health.rejoins";
/// Rejoining → Healthy transitions (probation served cleanly).
pub const HEALTH_RECOVERIES: &str = "health.recoveries";
/// Epochs where raises were funded by watts not yet confirmed freed
/// from a quarantined node. **Must read zero on every run** —
/// decreases-first reclamation makes a leak structurally impossible.
pub const HEALTH_QUARANTINE_LEAKS: &str = "health.quarantine_leaks";
/// Nodes currently Healthy (gauge, end of last epoch).
pub const HEALTH_HEALTHY_NODES: &str = "health.healthy_nodes";
