//! # power-bounded-computing
//!
//! A library for **cross-component power coordination on power-bounded
//! systems** — a from-scratch reproduction of Ge, Feng, Allen, Zou, *"The
//! Case for Cross-Component Power Coordination on Power Bounded Systems"*
//! (ICPP 2016, extended version).
//!
//! Modern nodes must operate under power bounds. This crate answers, for a
//! given workload `W`, machine `M`, and total budget `P_b`:
//!
//! * what is the best achievable performance `perf_max`, and
//! * how should `P_b` be split between the processing component (CPU
//!   packages / GPU SMs) and the memory component (DRAM / GPU global
//!   memory) to achieve it?
//!
//! ## Crate map
//!
//! * [`types`] — units (watts, joules, GB/s), allocations, errors.
//! * [`platform`] — the four reference platforms (2 CPU nodes, 2 GPUs)
//!   and the spec types to describe your own.
//! * [`powersim`] — the capping substrate: RAPL P/T/C-state ladder, DRAM
//!   bandwidth throttling, the GPU boost governor, steady-state solvers,
//!   and a discrete-time engine with thermal feedback.
//! * [`workloads`] — the 17-benchmark suite as calibrated demand models,
//!   plus native runnable kernels (triad, DGEMM, GUPS, sort, SpMV, FFT,
//!   stencil) for profiling real machines.
//! * [`rapl`] — a real sysfs powercap (Intel RAPL) backend.
//! * [`core`] — the contribution: scenario categorization I–VI, critical
//!   power values, the COORD heuristic (Algorithms 1 & 2), baselines, and
//!   the sweep oracle.
//! * [`faults`] — deterministic fault injection (sensor corruption,
//!   enforcement write failures, budget steps, phase shifts) and the
//!   chaos harness proving the online loop survives it (see
//!   `docs/RESILIENCE.md`).
//! * [`experiments`] — regenerates every table and figure of the paper
//!   (also available as the `repro` binary).
//! * [`trace`] — dependency-free structured tracing: spans, counters,
//!   gauges, and a JSON-lines exporter wired through the solver, the
//!   sweep, and both coordinators (see `docs/OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use power_bounded_computing::prelude::*;
//!
//! // A node and a workload.
//! let platform = ivybridge();
//! let stream = by_name("stream").unwrap();
//!
//! // Lightweight profiling: the seven critical power values.
//! let criticals = CriticalPowers::probe(
//!     platform.cpu().unwrap(),
//!     platform.dram().unwrap(),
//!     &stream.demand,
//! );
//!
//! // Coordinate a 208 W budget across CPU and DRAM.
//! let decision = coord_cpu(Watts::new(208.0), &criticals).unwrap();
//!
//! // Evaluate the chosen allocation on the simulated node.
//! let op = solve(&platform, &stream.demand, decision.alloc).unwrap();
//! assert!(op.perf_rel > 0.9);
//! assert!(op.total_power() <= Watts::new(208.0));
//! ```

pub use pbc_core as core;
pub use pbc_experiments as experiments;
pub use pbc_faults as faults;
pub use pbc_platform as platform;
pub use pbc_powersim as powersim;
pub use pbc_rapl as rapl;
pub use pbc_trace as trace;
pub use pbc_types as types;
pub use pbc_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use pbc_core::{
        balance_analysis, classify_cpu_point, classify_gpu_point, coord_cpu, coord_gpu,
        cpu_scenario_spans, critical_component, oracle, perf_max_curve, sweep_budget, table1,
        AllocationPolicy, Baseline, CoordResult, CoordStatus, CpuScenario, CriticalPowers,
        GpuCategory, GpuCoordParams, PowerBoundedProblem, SweepProfile, DEFAULT_STEP,
    };
    pub use pbc_platform::presets::{haswell, ivybridge, titan_v, titan_xp};
    pub use pbc_platform::{CpuSpec, DramSpec, GpuSpec, NodeSpec, Platform, PlatformId};
    pub use pbc_powersim::{
        simulate_cpu, simulate_gpu, solve, solve_cpu, solve_gpu, NodeOperatingPoint, PhaseDemand,
        WorkloadDemand,
    };
    pub use pbc_types::{
        Bandwidth, Domain, PbcError, PerfMetric, PerfUnit, PowerAllocation, Result, Watts,
    };
    pub use pbc_workloads::{all_benchmarks, by_name, cpu_suite, gpu_suite, Benchmark, BenchmarkId};
}
