//! # pbc-cluster
//!
//! Hierarchical cross-component power coordination for a fleet of
//! simulated nodes under one global budget — the layer above the
//! paper's single-node COORD.
//!
//! The paper (§2, §5) coordinates CPU/memory or SM/DRAM power *within*
//! one node; its closing argument is that the same marginal-utility
//! reasoning should span nodes. Medhat et al. show MPI cluster
//! performance under a global cap hinges on moving watts *between*
//! nodes, and FastCap shows the per-entity decision must stay cheap at
//! scale. This crate supplies that layer on top of everything the
//! workspace already has:
//!
//! * [`curve::PerfCurve`] — per-class `perf_max ~ P_b` curves from the
//!   shared-grid sweep oracle, memo-backed and bit-deterministic;
//! * [`partition::water_fill`] — the global budget partitioned by
//!   marginal gain: watts drain from nodes past their flattening point
//!   toward nodes still on the steep part of their curve;
//! * [`fleet::Fleet`] — heterogeneous node specs (`COUNT PLATFORM
//!   BENCH` text lines), deduplicated into profiled classes;
//! * [`coordinator::FleetCoordinator`] — water-fill, then per-node
//!   COORD and memo-priced simulation fanned out on the `pbc-par`
//!   pool; a dynamic mode replays `pbc_faults::FleetFaultPlan`
//!   scenarios (crashes, stragglers, report loss, write outages,
//!   coordinator outages, budget steps) under the determinism
//!   contract, with decreases-first enforcement keeping
//!   `Σ enforced ≤ global` invariant;
//! * [`health::HealthTracker`] — the per-node Healthy → Suspect →
//!   Quarantined → Rejoining machine driven by validated observation
//!   reports;
//! * [`degrade::StaticFallback`] — the precomputed partition every
//!   node falls back to when coordination is unavailable, summing ≤
//!   the global budget by construction;
//! * [`chaos::run_cluster_chaos`] — the end-to-end harness: a fleet, a
//!   plan, a mock RAPL tree as the cap sink, and a survival report.
//!
//! Everything emits `cluster.*`/`health.*` trace counters/gauges (see
//! `docs/OBSERVABILITY.md`); `cluster.budget_violations == 0` and
//! `health.quarantine_leaks == 0` are the survival criteria chaos runs
//! assert from real trace files.

pub mod chaos;
pub mod coordinator;
pub mod curve;
pub mod degrade;
pub mod fleet;
pub mod health;
pub mod partition;
pub mod tenant;

pub use chaos::{run_cluster_chaos, run_cluster_chaos_with, ClusterChaosReport};
pub use coordinator::{CapSink, ClusterDecision, ClusterReport, EpochReport, FleetCoordinator};
pub use curve::{node_ceiling, node_floor, PerfCurve, SAMPLE_STEP};
pub use degrade::StaticFallback;
pub use fleet::{parse_spec, ClassCoord, Fleet, NodeClass, SpecLine};
pub use health::{HealthCounts, HealthTally, HealthTracker, NodeHealth, ReportVerdict};
pub use partition::{fill_shares, uniform_split, water_fill, NodeCurve, Objective, DEFAULT_GRANT};
pub use tenant::{jain_index, NodeSplit, SlaClass, Tenant, TenantSet};

/// The fleet fault-plan preset names, re-exported so CLI callers can
/// list them without depending on `pbc-faults` directly.
pub use pbc_faults::FLEET_PLAN_NAMES as PLAN_NAMES;
