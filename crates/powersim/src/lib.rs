//! # pbc-powersim
//!
//! The hardware substrate of the reproduction: a node power simulator that
//! implements the capping mechanisms the paper's analysis (§3.3) attributes
//! the observed behaviour to.
//!
//! ## What is simulated
//!
//! * **RAPL PKG-domain capping** ([`rapl`]) — the escalation ladder: DVFS
//!   P-states first, then T-state clock modulation, then (conceptually)
//!   sleep states, with the `P_cpu,L4` hardware floor below which a cap is
//!   unenforceable.
//! * **RAPL DRAM-domain capping** ([`memctl`]) — bandwidth throttling with
//!   a background-power floor that is disregarded by lower caps.
//! * **The GPU card-level capper** ([`gpuctl`]) — memory clock level from
//!   the memory allocation, then the boost governor picks the highest SM
//!   clock whose *total* draw fits the card cap, automatically reclaiming
//!   unused memory budget (the §4 mechanism difference vs. the host).
//! * **Workload composition** ([`demand`], [`cpunode`], [`gpunode`]) — a
//!   phase-based roofline-with-overlap model: per phase, compute time and
//!   memory time under the capped component rates combine through an
//!   overlap factor, with the memory request rate itself scaled by
//!   processor speed (the feedback that produces scenario IV's collapse
//!   and the DRAM power drop the paper reports there).
//! * **Dynamics** ([`engine`]) — a discrete-time engine in which the
//!   controllers observe a running-average power and walk their ladders
//!   step by step. The steady-state solvers above are the fast path used
//!   by sweeps; the engine exists to validate them and to study
//!   transients.
//!
//! ## Two solvers, one contract
//!
//! [`cpunode::solve_cpu`] and [`gpunode::solve_gpu`] both map
//! `(platform, workload demand, allocation)` to a [`NodeOperatingPoint`]:
//! relative performance, per-component actual powers, and the mechanism
//! state (P-state index, duty cycle, achieved bandwidth). Everything in
//! `pbc-core` — sweeps, scenario categorization, COORD — is written
//! against this contract.

pub mod corun;
pub mod cpunode;
pub mod demand;
pub mod engine;
pub mod gpuctl;
pub mod gpunode;
pub mod memctl;
pub mod memo;
pub mod operating;
pub mod rapl;
pub mod sockets;

pub use corun::{coordinate_corun, solve_corun, CorunPoint};
pub use cpunode::solve_cpu;
pub use engine::{
    simulate_cpu, simulate_cpu_with_events, simulate_gpu, SimConfig, SimResult, SimSample,
};
pub use demand::{PhaseDemand, WorkloadDemand};
pub use gpuctl::GpuCapper;
pub use gpunode::{solve_gpu, uncapped_demand};
pub use memctl::DramThrottle;
pub use memo::{SolveKey, SolveMemo};
pub use operating::{CpuMechanismState, GpuMechanismState, MechanismState, NodeOperatingPoint};
pub use rapl::RaplController;
pub use sockets::{coordinate_sockets, single_socket_spec, solve_per_socket, SocketOperatingPoint};

use pbc_platform::{NodeSpec, Platform};
use pbc_types::{PowerAllocation, Result};

/// Solve the steady-state operating point for any platform kind. Dispatches
/// to [`solve_cpu`] or [`solve_gpu`].
///
/// Every call increments the `solve.evaluations` trace counter; outcomes
/// split into `solve.infeasible` (the allocation is not schedulable —
/// see [`pbc_types::PbcError::is_infeasible`]) and `solve.errors` (a
/// real failure).
#[must_use = "the operating point or the solver failure must be inspected"]
pub fn solve(
    platform: &Platform,
    demand: &WorkloadDemand,
    alloc: PowerAllocation,
) -> Result<NodeOperatingPoint> {
    // solve() is the sweep's inner loop: cache the counter handles once
    // so the per-call cost is a single relaxed atomic add, not a
    // registry-mutex lookup. Registering all three together also means a
    // trace always carries the error counters, even at zero.
    use std::sync::OnceLock;
    static COUNTERS: OnceLock<(pbc_trace::Counter, pbc_trace::Counter, pbc_trace::Counter)> =
        OnceLock::new();
    let (evals, infeasible, errors) = COUNTERS.get_or_init(|| {
        (
            pbc_trace::counter(pbc_trace::names::SOLVE_EVALUATIONS),
            pbc_trace::counter(pbc_trace::names::SOLVE_INFEASIBLE),
            pbc_trace::counter(pbc_trace::names::SOLVE_ERRORS),
        )
    });
    evals.incr();
    let result = match &platform.spec {
        NodeSpec::Cpu { cpu, dram } => Ok(solve_cpu(cpu, dram, demand, alloc)),
        NodeSpec::Gpu(gpu) => solve_gpu(gpu, demand, alloc),
    };
    if let Err(e) = &result {
        if e.is_infeasible() {
            infeasible.incr();
        } else {
            errors.incr();
        }
    }
    result
}
