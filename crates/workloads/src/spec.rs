//! Benchmark metadata: Table 3 rows bound to demand models.

use pbc_powersim::{NodeOperatingPoint, WorkloadDemand};
use pbc_types::{PerfMetric, PerfUnit};
use std::fmt;

/// Identifier for every Table-3 benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BenchmarkId {
    // CPU suite (HPCC, NPB, UVA STREAM)
    Sra,
    Stream,
    Dgemm,
    Bt,
    Sp,
    Lu,
    Ep,
    Is,
    Cg,
    Ft,
    Mg,
    // GPU suite (CUDA examples, ECP proxies)
    Sgemm,
    GpuStream,
    Cufft,
    MiniFe,
    Cloverleaf,
    Hpcg,
}

impl BenchmarkId {
    /// Canonical lowercase name (CLI slug).
    pub fn slug(self) -> &'static str {
        match self {
            BenchmarkId::Sra => "sra",
            BenchmarkId::Stream => "stream",
            BenchmarkId::Dgemm => "dgemm",
            BenchmarkId::Bt => "bt",
            BenchmarkId::Sp => "sp",
            BenchmarkId::Lu => "lu",
            BenchmarkId::Ep => "ep",
            BenchmarkId::Is => "is",
            BenchmarkId::Cg => "cg",
            BenchmarkId::Ft => "ft",
            BenchmarkId::Mg => "mg",
            BenchmarkId::Sgemm => "sgemm",
            BenchmarkId::GpuStream => "gpu-stream",
            BenchmarkId::Cufft => "cufft",
            BenchmarkId::MiniFe => "minife",
            BenchmarkId::Cloverleaf => "cloverleaf",
            BenchmarkId::Hpcg => "hpcg",
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Which platform family a benchmark targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Host CPU benchmark (MPI/OpenMP in the paper).
    Cpu,
    /// CUDA benchmark.
    Gpu,
}

/// Workload class, following the paper's three GPU patterns (§4) and the
/// CPU workload distinctions (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// DGEMM-like: performance tracks processor power.
    ComputeIntensive,
    /// STREAM-like: performance tracks memory bandwidth/power.
    MemoryIntensive,
    /// GUPS-like: latency-bound irregular access.
    RandomAccess,
    /// Balanced compute/memory ("in between", Cloverleaf-like).
    Mixed,
}

impl fmt::Display for BenchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchClass::ComputeIntensive => write!(f, "compute-intensive"),
            BenchClass::MemoryIntensive => write!(f, "memory-intensive"),
            BenchClass::RandomAccess => write!(f, "random-access"),
            BenchClass::Mixed => write!(f, "compute/memory"),
        }
    }
}

/// A Table-3 benchmark: metadata plus its calibrated demand model.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Identity.
    pub id: BenchmarkId,
    /// The Table-3 description string.
    pub description: &'static str,
    /// Workload class.
    pub class: BenchClass,
    /// CPU or GPU suite.
    pub target: Target,
    /// Calibrated demand model the solvers consume.
    pub demand: WorkloadDemand,
    /// The natural unit the paper reports this benchmark in.
    pub unit: PerfUnit,
}

impl Benchmark {
    /// Convert a solver operating point into this benchmark's natural
    /// reporting unit:
    ///
    /// * bandwidth benchmarks report achieved GB/s,
    /// * GUPS-style benchmarks report giga-updates/s (8 useful bytes per
    ///   update out of the raw traffic, halved for the read-modify-write),
    /// * compute benchmarks report GFLOP/s,
    /// * NPB-style benchmarks report Mop/s (1 GFLOP = 1000 Mop here).
    pub fn natural_rate(&self, op: &NodeOperatingPoint) -> PerfMetric {
        match self.unit {
            PerfUnit::GBps => PerfMetric::new(op.bandwidth.value(), PerfUnit::GBps),
            PerfUnit::Gups => {
                // Each update reads and writes one 64-byte line to modify 8
                // useful bytes: updates/s = raw bytes/s / 128, so
                // GUP/s = (GB/s) / 128.
                PerfMetric::new(op.bandwidth.value() / 128.0, PerfUnit::Gups)
            }
            PerfUnit::Gflops => PerfMetric::new(op.work_rate, PerfUnit::Gflops),
            PerfUnit::Mops => PerfMetric::new(op.work_rate * 1000.0, PerfUnit::Mops),
            PerfUnit::Relative => PerfMetric::relative(op.perf_rel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_unique() {
        use std::collections::HashSet;
        let ids = [
            BenchmarkId::Sra,
            BenchmarkId::Stream,
            BenchmarkId::Dgemm,
            BenchmarkId::Bt,
            BenchmarkId::Sp,
            BenchmarkId::Lu,
            BenchmarkId::Ep,
            BenchmarkId::Is,
            BenchmarkId::Cg,
            BenchmarkId::Ft,
            BenchmarkId::Mg,
            BenchmarkId::Sgemm,
            BenchmarkId::GpuStream,
            BenchmarkId::Cufft,
            BenchmarkId::MiniFe,
            BenchmarkId::Cloverleaf,
            BenchmarkId::Hpcg,
        ];
        let slugs: HashSet<_> = ids.iter().map(|i| i.slug()).collect();
        assert_eq!(slugs.len(), ids.len());
    }
}
