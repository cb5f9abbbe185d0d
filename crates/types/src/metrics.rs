//! Performance metrics.
//!
//! The paper's `perf` is deliberately abstract ("compute rate,
//! performance-to-power ratio, system throughput", §2.2). We represent a
//! measured performance as a [`PerfMetric`]: a non-negative rate plus the
//! unit it is expressed in, so STREAM's GB/s and DGEMM's GFLOP/s can live in
//! the same profile tables without confusion.

use crate::units::{Joules, Seconds};
use std::fmt;

/// Unit a performance rate is expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfUnit {
    /// Gigabytes per second — bandwidth benchmarks (STREAM).
    GBps,
    /// Giga floating-point operations per second — compute kernels (DGEMM).
    Gflops,
    /// Giga updates per second — RandomAccess / GUPS.
    Gups,
    /// Millions of operations per second — NPB-style Mop/s.
    Mops,
    /// Relative throughput, normalized to the uncapped maximum (1.0 =
    /// unconstrained performance). Used by the analytic workload models.
    Relative,
}

impl fmt::Display for PerfUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfUnit::GBps => write!(f, "GB/s"),
            PerfUnit::Gflops => write!(f, "GFLOP/s"),
            PerfUnit::Gups => write!(f, "GUP/s"),
            PerfUnit::Mops => write!(f, "Mop/s"),
            PerfUnit::Relative => write!(f, "rel"),
        }
    }
}

/// A measured or modeled performance value: a rate and its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfMetric {
    /// The rate (higher is better). Always finite and non-negative for
    /// values produced by this workspace.
    pub rate: f64,
    /// Unit of `rate`.
    pub unit: PerfUnit,
}

impl PerfMetric {
    /// Create a metric; panics in debug builds on NaN/negative rates so
    /// model bugs surface close to their cause.
    pub fn new(rate: f64, unit: PerfUnit) -> Self {
        debug_assert!(rate.is_finite() && rate >= 0.0, "bad perf rate {rate}");
        Self { rate, unit }
    }

    /// Relative throughput helper.
    pub fn relative(rate: f64) -> Self {
        Self::new(rate, PerfUnit::Relative)
    }
}

impl fmt::Display for PerfMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} {}", self.rate, self.unit)
    }
}

/// Aggregate throughput of a run: work completed over wall time, plus the
/// energy consumed. Produced by the discrete-time simulation engine and by
/// native kernel runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Abstract work units completed (workload-defined).
    pub work_done: f64,
    /// Wall-clock (or simulated) time elapsed.
    pub elapsed: Seconds,
    /// Total energy consumed over the run.
    pub energy: Joules,
}
