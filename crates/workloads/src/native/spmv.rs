//! CG-style sparse matrix-vector products on a CSR 2D Laplacian.
//!
//! The NPB CG pattern: repeated `y = A·x` with an irregular gather on `x`.
//! The matrix is the 5-point finite-difference Laplacian on a √n × √n
//! grid, which is what MiniFE/HPCG-class proxies assemble too.

use super::{chunk_ranges, KernelConfig, KernelResult};
use pbc_types::{PerfMetric, PerfUnit, Seconds};
use std::time::Instant;

/// CSR matrix (the CG solver runs on it too).
pub(super) struct Csr {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    pub(super) values: Vec<f64>,
    pub(super) n: usize,
}

/// Assemble the 5-point Laplacian on a `side x side` grid.
pub(super) fn laplacian(side: usize) -> Csr {
    let n = side * side;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            let mut push = |j: usize, v: f64| {
                col_idx.push(j);
                values.push(v);
            };
            if r > 0 {
                push(i - side, -1.0);
            }
            if c > 0 {
                push(i - 1, -1.0);
            }
            push(i, 4.0);
            if c + 1 < side {
                push(i + 1, -1.0);
            }
            if r + 1 < side {
                push(i + side, -1.0);
            }
            row_ptr.push(col_idx.len());
        }
    }
    Csr {
        row_ptr,
        col_idx,
        values,
        n,
    }
}

pub(super) fn spmv(a: &Csr, x: &[f64], y: &mut [f64], threads: usize) {
    let ranges = chunk_ranges(a.n, threads);
    std::thread::scope(|s| {
        let mut rest = y;
        for r in ranges {
            let (band, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let row0 = r.start;
            s.spawn(move || {
                for (i, out) in band.iter_mut().enumerate() {
                    let row = row0 + i;
                    let mut acc = 0.0;
                    for k in a.row_ptr[row]..a.row_ptr[row + 1] {
                        acc += a.values[k] * x[a.col_idx[k]];
                    }
                    *out = acc;
                }
            });
        }
    });
}

/// Run repeated SpMV; `config.size` is the total unknowns (rounded to a
/// square). Reports GFLOP/s.
pub fn run(config: &KernelConfig) -> KernelResult {
    let side = (config.size.max(64) as f64).sqrt().floor() as usize;
    let a = laplacian(side);
    let mut x: Vec<f64> = (0..a.n).map(|i| 1.0 + (i % 13) as f64 * 0.1).collect();
    let mut y = vec![0.0f64; a.n];

    let sweeps = 4 * config.iterations.max(1);
    let start = Instant::now();
    for _ in 0..sweeps {
        spmv(&a, &x, &mut y, config.threads);
        std::mem::swap(&mut x, &mut y);
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let nnz = a.values.len() as f64;
    let flops = 2.0 * nnz * sweeps as f64;
    // Traffic: values + col indices once, x gathered (estimate 1.5x for
    // irregular reuse), y written.
    let bytes = (nnz * (8.0 + 8.0) + a.n as f64 * 8.0 * 2.5) * sweeps as f64;
    let checksum: f64 = x.iter().step_by((a.n / 97).max(1)).sum();

    KernelResult {
        rate: PerfMetric::new(flops / 1e9 / elapsed, PerfUnit::Gflops),
        gflops_done: flops / 1e9,
        gb_moved: bytes / 1e9,
        elapsed: Seconds::new(elapsed),
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_row_sums() {
        // Interior rows sum to 0; boundary rows are positive.
        let a = laplacian(8);
        for r in 0..a.n {
            let sum: f64 = (a.row_ptr[r]..a.row_ptr[r + 1]).map(|k| a.values[k]).sum();
            assert!(sum >= 0.0);
        }
        // A strictly interior point: row (3,3) has exactly 5 entries
        // summing to zero.
        let i = 3 * 8 + 3;
        assert_eq!(a.row_ptr[i + 1] - a.row_ptr[i], 5);
        let sum: f64 = (a.row_ptr[i]..a.row_ptr[i + 1]).map(|k| a.values[k]).sum();
        assert_eq!(sum, 0.0);
    }

    #[test]
    fn spmv_constant_vector() {
        // A·1 is zero on interior points (row sums), positive on edges.
        let a = laplacian(16);
        let x = vec![1.0; a.n];
        let mut y = vec![0.0; a.n];
        spmv(&a, &x, &mut y, 3);
        let i = 8 * 16 + 8; // interior
        assert_eq!(y[i], 0.0);
        assert!(y[0] > 0.0); // corner
    }

    #[test]
    fn runs_with_metrics() {
        let r = run(&KernelConfig {
            size: 4096,
            threads: 2,
            iterations: 1,
        });
        assert!(r.rate.rate > 0.0);
        assert!(r.intensity() < 0.5, "SpMV is memory-bound: AI {}", r.intensity());
    }

    #[test]
    fn thread_count_invariant() {
        let c1 = run(&KernelConfig { size: 2500, threads: 1, iterations: 1 });
        let c3 = run(&KernelConfig { size: 2500, threads: 3, iterations: 1 });
        assert!((c1.checksum - c3.checksum).abs() < 1e-9);
    }
}
