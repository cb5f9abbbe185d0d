//! Performance metrics.
//!
//! The paper's `perf` is deliberately abstract ("compute rate,
//! performance-to-power ratio, system throughput", §2.2). We represent a
//! measured performance as a [`PerfMetric`]: a non-negative rate plus the
//! unit it is expressed in, so STREAM's GB/s and DGEMM's GFLOP/s can live in
//! the same profile tables without confusion.

use crate::units::{Joules, Seconds, Watts};
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

    /// Ratio of this metric over `other` (must share a unit).
    pub fn ratio(&self, other: &PerfMetric) -> f64 {
        assert_eq!(self.unit, other.unit, "cannot compare {} with {}", self.unit, other.unit);
        if crate::units::is_zero(other.rate) {
            if crate::units::is_zero(self.rate) {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.rate / other.rate
        }
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

impl Throughput {
    /// Work per second.
    pub fn rate(&self) -> f64 {
        if self.elapsed.value() > 0.0 {
            self.work_done / self.elapsed.value()
        } else {
            0.0
        }
    }

    /// Mean power over the run.
    pub fn mean_power(&self) -> Watts {
        if self.elapsed.value() > 0.0 {
            self.energy / self.elapsed
        } else {
            Watts::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_same_unit() {
        let a = PerfMetric::new(30.0, PerfUnit::GBps);
        let b = PerfMetric::new(10.0, PerfUnit::GBps);
        assert!((a.ratio(&b) - 3.0).abs() < 1e-12);
        assert!((b.ratio(&a) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot compare")]
    fn ratio_mixed_units_panics() {
        let a = PerfMetric::new(30.0, PerfUnit::GBps);
        let b = PerfMetric::new(10.0, PerfUnit::Gflops);
        let _ = a.ratio(&b);
    }

    #[test]
    fn ratio_degenerate_cases() {
        let z = PerfMetric::new(0.0, PerfUnit::Gups);
        assert_eq!(z.ratio(&z), 1.0);
        let a = PerfMetric::new(5.0, PerfUnit::Gups);
        assert!(a.ratio(&z).is_infinite());
    }

    #[test]
    fn throughput_derived_quantities() {
        let t = Throughput {
            work_done: 100.0,
            elapsed: Seconds::new(4.0),
            energy: Joules::new(800.0),
        };
        assert!((t.rate() - 25.0).abs() < 1e-12);
        assert!((t.mean_power().value() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_zero_time() {
        let t = Throughput {
            work_done: 0.0,
            elapsed: Seconds::ZERO,
            energy: Joules::ZERO,
        };
        assert_eq!(t.rate(), 0.0);
        assert_eq!(t.mean_power(), Watts::ZERO);
    }
}
