//! Full conjugate-gradient solver (the NPB CG / HPCG pattern): SpMV plus
//! dot products and AXPYs, iterated to convergence on the 2D Laplacian.
//!
//! Unlike the bare SpMV kernel, the full solver has the real CG data flow:
//! two dot-product reductions and three vector updates per iteration, with
//! the global reductions acting as the synchronization points that make CG
//! latency-sensitive on real clusters.

use super::spmv::{laplacian, spmv, Csr};
use super::{chunk_ranges, KernelConfig, KernelResult};
use pbc_types::{PerfMetric, PerfUnit, Seconds};
use std::time::Instant;

fn dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    let ranges = chunk_ranges(a.len(), threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let (xa, xb) = (&a[r.clone()], &b[r]);
                s.spawn(move || xa.iter().zip(xb).map(|(x, y)| x * y).sum::<f64>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn axpy(alpha: f64, x: &[f64], y: &mut [f64], threads: usize) {
    let ranges = chunk_ranges(y.len(), threads);
    std::thread::scope(|s| {
        let mut rest = y;
        for r in ranges {
            let (band, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let xs = &x[r];
            s.spawn(move || {
                for (yv, xv) in band.iter_mut().zip(xs) {
                    *yv += alpha * xv;
                }
            });
        }
    });
}

/// Solve `A·x = b` (b = A·1) with CG; returns the iteration count and the
/// final residual norm.
fn cg_solve(a: &Csr, threads: usize, max_iters: usize, tol: f64) -> (usize, f64, Vec<f64>, f64, f64) {
    let ones = vec![1.0; a.n];
    let mut b = vec![0.0; a.n];
    spmv(a, &ones, &mut b, threads);

    let mut x = vec![0.0; a.n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut ap = vec![0.0; a.n];
    let mut rr = dot(&r, &r, threads);
    let nnz = a.values.len() as f64;
    let mut flops = 2.0 * nnz; // initial spmv for b
    let mut bytes = nnz * 16.0;
    let mut iters = 0;
    while iters < max_iters && rr.sqrt() > tol {
        spmv(a, &p, &mut ap, threads);
        let pap = dot(&p, &ap, threads);
        let alpha = rr / pap;
        axpy(alpha, &p, &mut x, threads);
        axpy(-alpha, &ap, &mut r, threads);
        let rr_new = dot(&r, &r, threads);
        let beta = rr_new / rr;
        // p = r + beta * p
        let ranges = chunk_ranges(a.n, threads);
        std::thread::scope(|s| {
            let mut rest = p.as_mut_slice();
            for rg in ranges {
                let (band, tail) = rest.split_at_mut(rg.len());
                rest = tail;
                let rs = &r[rg];
                s.spawn(move || {
                    for (pv, rv) in band.iter_mut().zip(rs) {
                        *pv = rv + beta * *pv;
                    }
                });
            }
        });
        rr = rr_new;
        iters += 1;
        // Per-iteration cost: one SpMV (2·nnz) + 2 dots (4n) + 3 updates (6n).
        flops += 2.0 * nnz + 10.0 * a.n as f64;
        bytes += nnz * 16.0 + 10.0 * 8.0 * a.n as f64;
    }
    (iters, rr.sqrt(), x, flops, bytes)
}

/// Run the CG solver; `config.size` is the unknown count (rounded to a
/// square). Reports GFLOP/s.
pub fn run(config: &KernelConfig) -> KernelResult {
    let side = (config.size.max(64) as f64).sqrt().floor() as usize;
    let a = laplacian(side);
    let start = Instant::now();
    let mut total_flops = 0.0;
    let mut total_bytes = 0.0;
    let mut checksum = 0.0;
    for _ in 0..config.iterations.max(1) {
        let (_, _, x, flops, bytes) = cg_solve(&a, config.threads, 200, 1e-8);
        total_flops += flops;
        total_bytes += bytes;
        checksum = x.iter().step_by((a.n / 97).max(1)).sum();
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    KernelResult {
        rate: PerfMetric::new(total_flops / 1e9 / elapsed, PerfUnit::Gflops),
        gflops_done: total_flops / 1e9,
        gb_moved: total_bytes / 1e9,
        elapsed: Seconds::new(elapsed),
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_converges_to_the_known_solution() {
        // b was built as A·1, so the solution is the ones vector.
        let a = laplacian(24);
        let (iters, residual, x, _, _) = cg_solve(&a, 2, 500, 1e-10);
        assert!(residual < 1e-9, "residual {residual} after {iters} iters");
        for (i, &v) in x.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-6, "x[{i}] = {v}");
        }
        // CG on an n-dim SPD system converges in at most n iterations;
        // the Laplacian needs far fewer.
        assert!(iters < a.n, "{iters} iterations");
    }

    #[test]
    fn dot_and_axpy_are_correct() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0, 2.0, 2.0, 2.0];
        assert_eq!(dot(&a, &b, 3), 20.0);
        let mut y = b.clone();
        axpy(0.5, &a, &mut y, 2);
        assert_eq!(y, vec![2.5, 3.0, 3.5, 4.0]);
    }

    #[test]
    fn runs_with_metrics() {
        let r = run(&KernelConfig {
            size: 1024,
            threads: 2,
            iterations: 1,
        });
        assert!(r.rate.rate > 0.0);
        // The full solver is memory-leaning like all sparse iterative
        // methods.
        assert!(r.intensity() < 0.5, "AI {}", r.intensity());
        // Checksum is the sampled sum of a converged all-ones solution.
        assert!(r.checksum > 0.0);
    }

    #[test]
    fn thread_count_invariant_solution() {
        let a = laplacian(16);
        let (_, _, x1, _, _) = cg_solve(&a, 1, 300, 1e-10);
        let (_, _, x3, _, _) = cg_solve(&a, 3, 300, 1e-10);
        for (u, v) in x1.iter().zip(&x3) {
            assert!((u - v).abs() < 1e-6);
        }
    }
}
