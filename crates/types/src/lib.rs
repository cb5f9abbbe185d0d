//! # pbc-types
//!
//! Foundation types for the power-bounded-computing workspace: strongly typed
//! physical units (watts, joules, hertz, bytes/second), cross-component power
//! allocation tuples, the two power domains, performance metrics, and the
//! shared error type.
//!
//! Everything in this crate is `Copy`-friendly plain data with no I/O and no
//! platform assumptions; the higher layers (`pbc-platform`, `pbc-powersim`,
//! `pbc-core`) build on these types.
//!
//! ## Design notes
//!
//! * Units are `f64` newtypes. Arithmetic is implemented only where it is
//!   dimensionally meaningful (`Watts + Watts`, `Watts * Seconds -> Joules`,
//!   `Joules / Seconds -> Watts`, ...). This catches a whole class of unit
//!   mix-ups at compile time, which matters in a codebase whose entire point
//!   is moving watts around.
//! * [`PowerAllocation`] is the paper's `α = (P_cpu, P_mem)` tuple — the
//!   subject of optimization in the power-bounded-computing problem.
//! * [`AllocationSpace`] enumerates the discrete allocation space `A` swept
//!   by the oracle and the experiments.

pub mod allocation;
pub mod component;
pub mod error;
pub mod metrics;
pub mod rng;
pub mod units;

pub use allocation::{AllocationSpace, PowerAllocation};
pub use component::Domain;
pub use error::{check_budget, PbcError, Result};
pub use metrics::{PerfMetric, PerfUnit, Throughput};
pub use rng::XorShift64Star;
pub use units::{
    approx_eq, is_zero, u16_from_f64, u32_from_f64, u64_from_f64, usize_from_f64, Bandwidth,
    Gflops, Hertz, Joules, Seconds, Watts, CAP_QUANTUM, EPSILON,
};
