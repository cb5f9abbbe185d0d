//! # pbc-workloads
//!
//! The benchmark suite of the paper's Table 3, in two complementary forms:
//!
//! 1. **Calibrated demand models** ([`catalog`]) — every benchmark as a
//!    [`pbc_powersim::WorkloadDemand`] whose parameters are tuned to the
//!    paper's reported anchors (RandomAccess drawing 112 W CPU / 116 W
//!    DRAM unconstrained on IvyBridge, DGEMM's demand flattening near
//!    240 W, MiniFE's GPU demand near 180 W, ...). These drive every
//!    sweep, figure, and heuristic evaluation.
//! 2. **Native runnable kernels** ([`native`]) — real multi-threaded Rust
//!    implementations of the core patterns (STREAM triad, blocked DGEMM,
//!    GUPS random access, integer sort, CSR SpMV/CG, radix-2 FFT, 7-point
//!    stencil). They execute on the host, count their own FLOPs and bytes,
//!    and feed [`native::characterize`], which turns a measured kernel
//!    into an estimated [`pbc_powersim::PhaseDemand`] — the "lightweight
//!    application profiling" the COORD heuristic consumes (§5).
//!
//! | Benchmark | Description (Table 3) |
//! |-----------|------------------------|
//! | SRA       | Embarrassingly parallel, random memory access |
//! | STREAM    | Synthetic, measuring memory bandwidth |
//! | DGEMM     | Matrix multiplication, compute intensive |
//! | BT        | Block tri-diagonal solver, compute intensive |
//! | SP        | Scalar penta-diagonal solver, compute/memory |
//! | LU        | Lower-upper Gauss-Seidel solver, compute/memory |
//! | EP        | Embarrassingly parallel, compute intensive |
//! | IS        | Integer sort, random memory access |
//! | CG        | Conjugate gradient, irregular memory access |
//! | FT        | Discrete 3D FFT, compute/memory |
//! | MG        | Multi-grid, compute/memory |
//! | SGEMM     | Compute intensive, CUBLAS implementation |
//! | GPU-STREAM| Memory intensive, CUDA version of STREAM |
//! | CUFFT     | Memory intensive, CUDA example |
//! | MiniFE    | Memory intensive, ECP proxy |
//! | Cloverleaf| Compute/memory, ECP proxy |
//! | HPCG      | Memory intensive |

pub mod catalog;
pub mod native;
pub mod spec;

pub use catalog::{all_benchmarks, by_name, check_target, cpu_suite, gpu_suite};
pub use spec::{BenchClass, Benchmark, BenchmarkId, Target};
