//! # pbc-faults
//!
//! Deterministic fault injection for the coordination loop, and the
//! chaos harness that proves the loop survives it.
//!
//! The paper treats the node budget `P_b` as a hard constraint (§2.2);
//! the rest of this workspace spends its effort finding the best split
//! *under* that constraint. This crate attacks the assumptions the happy
//! path leans on: that every sensor read is fresh and finite, that every
//! powercap write lands, and that the budget never moves mid-run. Real
//! power-bounded deployments violate all three.
//!
//! The injection layer is **deterministic by construction**: a
//! [`FaultPlan`] is pure data (windows, probabilities, scheduled steps)
//! plus a seed, and every probabilistic fault, node or fleet, is one
//! [`FaultWindow::pick`]: a draw from a fresh
//! [`pbc_types::rng::XorShift64Star`] keyed on `(seed, tick, stream,
//! key)` ([`decision_rng`]) — never from a shared generator whose draw
//! order could differ between runs. Replaying a plan at the same seed
//! reproduces every fault bit-identically, which is what makes a chaos
//! failure debuggable.
//!
//! What can be injected:
//!
//! * **sensor faults** on [`pbc_powersim::NodeOperatingPoint`]
//!   observations — multiplicative noise, stale (previous-epoch)
//!   replays, and dropouts that surface as non-finite or absurd
//!   surrogates ([`FaultInjector::corrupt_observation`]);
//! * **enforcement write faults** — transient failures a retry absorbs,
//!   and permanent failures that force the transactional
//!   [`pbc_rapl::enforce_with`] path to roll back
//!   ([`FaultInjector::write_fault`]);
//! * **budget steps** — `P_b` re-negotiated mid-run, exercising
//!   `OnlineCoordinator::set_budget` re-convergence;
//! * **workload phase shifts** — the running application changes
//!   character, invalidating everything the search has learned.
//!
//! The [`chaos`] module wires a plan against the simulator, a mock RAPL
//! sysfs tree, and a hardened [`pbc_core::OnlineCoordinator`], and
//! returns a [`chaos::ChaosReport`] survival report. Everything emits
//! through `pbc-trace` (`faults.*`, `enforce.*`, `online.*`, `chaos.*`)
//! so resilience is observable, not asserted.

pub mod chaos;
pub mod fleet;
pub mod inject;
pub mod plan;

pub use chaos::{run_chaos, ChaosReport};
pub use fleet::{
    Edge, Episodes, FleetFaultPlan, FleetWriteFaults, NodeFaults, ReportFaults, FLEET_PRESETS,
};
pub use inject::{decision_rng, FaultInjector, InjectionTally, WriteFault};
pub use plan::{BudgetStep, FaultPlan, FaultWindow, PhaseShift, SensorFaults, WriteFaults};
