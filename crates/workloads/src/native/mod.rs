//! Native runnable kernels.
//!
//! Real multi-threaded implementations of the memory/compute patterns the
//! Table-3 suite is built from. Each kernel counts the FLOPs it performs
//! and the bytes of memory traffic it generates, so a run yields both a
//! performance number and a measured *arithmetic intensity* — the
//! lightweight profile the COORD heuristic needs (§5: "Provided offline
//! application profiling, this method does not incur runtime overhead").
//!
//! The kernels are written with the idioms the simulated suite models:
//! streaming triad (STREAM), blocked matrix multiply (DGEMM), random table
//! updates (GUPS/SRA), bucketed integer sort (IS), CSR SpMV and a full
//! conjugate-gradient solver (CG/HPCG), radix-2 FFT (FT), a 7-point 3D
//! stencil (MG), and a Cloverleaf-like compressible-hydro step.

pub mod cg;
pub mod dgemm;
pub mod fft;
pub mod gups;
pub mod hydro;
pub mod isort;
pub mod lu;
pub mod spmv;
pub mod stencil;
pub mod triad;

use pbc_powersim::PhaseDemand;
use pbc_types::{PerfMetric, Seconds};

/// Common kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Problem size (kernel-specific meaning: vector length, matrix
    /// dimension, table entries, grid edge, ...).
    pub size: usize,
    /// Worker threads.
    pub threads: usize,
    /// Timed repetitions (results are averaged over these).
    pub iterations: usize,
}

/// What a kernel run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelResult {
    /// Headline rate in the kernel's natural unit.
    pub rate: PerfMetric,
    /// Total floating-point (or update) operations performed, in giga-ops.
    pub gflops_done: f64,
    /// Estimated memory traffic generated, in GB.
    pub gb_moved: f64,
    /// Wall time of the timed section.
    pub elapsed: Seconds,
    /// A checksum over the output, to keep the optimizer honest and allow
    /// correctness assertions.
    pub checksum: f64,
}

impl KernelResult {
    /// Measured arithmetic intensity (FLOPs per byte).
    pub fn intensity(&self) -> f64 {
        if self.gb_moved > 0.0 {
            self.gflops_done / self.gb_moved
        } else {
            f64::INFINITY
        }
    }
}

/// Estimate a [`PhaseDemand`] from a measured kernel run — the
/// "lightweight profiling" path: the measured intensity feeds the model
/// directly; the remaining parameters are inferred from which side of the
/// machine balance the kernel falls on.
///
/// `machine_balance` is the platform's FLOPs-per-byte equilibrium
/// (peak GFLOP/s divided by peak GB/s).
pub fn characterize(result: &KernelResult, machine_balance: f64, random_access: bool) -> PhaseDemand {
    let ai = result.intensity().min(1000.0).max(0.01);
    let compute_bound = ai >= machine_balance;
    PhaseDemand {
        compute_efficiency: if compute_bound { 0.7 } else { 0.2 },
        arithmetic_intensity: ai,
        bw_saturation: if random_access {
            0.6
        } else if compute_bound {
            0.4
        } else {
            0.95
        },
        pattern_cost: if random_access { 2.0 } else { 1.1 },
        overlap: if random_access { 0.5 } else { 0.9 },
        issue_sensitivity: if random_access { 0.25 } else { 0.35 },
        act_compute: if compute_bound { 0.95 } else { 0.7 },
        act_stall: 0.45,
    }
}

/// Split `n` items into per-thread ranges, remainder spread over the first
/// threads. Every kernel uses this to partition work.
pub(crate) fn chunk_ranges(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let t = threads.max(1).min(n.max(1));
    let base = n / t;
    let extra = n % t;
    let mut ranges = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::PerfUnit;

    #[test]
    fn chunks_cover_everything_without_overlap() {
        for n in [0usize, 1, 7, 100, 101, 1024] {
            for t in [1usize, 2, 3, 8] {
                let ranges = chunk_ranges(n, t);
                let mut covered = 0;
                let mut last_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, last_end, "ranges must be contiguous");
                    covered += r.len();
                    last_end = r.end;
                }
                assert_eq!(covered, n, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn characterize_compute_kernel() {
        let r = KernelResult {
            rate: PerfMetric::new(100.0, PerfUnit::Gflops),
            gflops_done: 100.0,
            gb_moved: 2.0,
            elapsed: Seconds::new(1.0),
            checksum: 0.0,
        };
        let d = characterize(&r, 5.0, false);
        assert!((d.arithmetic_intensity - 50.0).abs() < 1e-9);
        assert!(d.compute_efficiency > 0.5);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn characterize_memory_kernel() {
        let r = KernelResult {
            rate: PerfMetric::new(40.0, PerfUnit::GBps),
            gflops_done: 5.0,
            gb_moved: 40.0,
            elapsed: Seconds::new(1.0),
            checksum: 0.0,
        };
        let d = characterize(&r, 5.0, false);
        assert!(d.arithmetic_intensity < 0.2);
        assert!(d.bw_saturation > 0.9);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn characterize_random_kernel() {
        let r = KernelResult {
            rate: PerfMetric::new(0.05, PerfUnit::Gups),
            gflops_done: 1.0,
            gb_moved: 64.0,
            elapsed: Seconds::new(1.0),
            checksum: 0.0,
        };
        let d = characterize(&r, 5.0, true);
        assert!(d.pattern_cost > 1.5);
        assert!(d.overlap <= 0.5);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn intensity_degenerate() {
        let r = KernelResult {
            rate: PerfMetric::new(1.0, PerfUnit::Gflops),
            gflops_done: 1.0,
            gb_moved: 0.0,
            elapsed: Seconds::new(1.0),
            checksum: 0.0,
        };
        assert!(r.intensity().is_infinite());
    }
}
