//! # pbc-core
//!
//! The paper's contribution: cross-component power coordination for
//! power-bounded systems.
//!
//! ## The problem (§2.2)
//!
//! Given a parallel workload `W`, a machine `M` with power-boundable
//! components, and a total power bound `P_b`, find
//!
//! ```text
//! perf_max = max_{α ∈ A} perf(α, W, M)
//! α*       = argmax_{α ∈ A} perf(α, W, M)      s.t.  Σᵢ P*ᵢ ≤ P_b
//! ```
//!
//! where `α = (P_cpu, P_mem)` (or `(P_SM, P_mem)` on a GPU) is the
//! cross-component allocation.
//!
//! ## What this crate provides
//!
//! | Module | Paper section | Content |
//! |--------|---------------|---------|
//! | [`problem`] | §2.2 | Problem statement binding platform + workload + budget |
//! | [`sweep`]   | §2.1, §6.2 | The exhaustive sweep over `A` (the oracle the paper compares against); one engine behind `sweep_budget` and `sweep_curve` |
//! | [`profile`] | §3 | Sweep profiles: performance + actual power per allocation |
//! | [`critical`]| §5.1 | The seven critical power values `P_cpu,L1..L4`, `P_mem,L1..L3` |
//! | [`scenario`]| §3.2, §4 | Categorization of allocations into scenarios I–VI (CPU) / I–III (GPU) |
//! | [`coord`]   | §5 | The COORD heuristic: Algorithm 1 (CPU) and Algorithm 2 (GPU) |
//! | [`baselines`]| §6.3 | Memory-first, CPU-first, even-split, proportional, Nvidia-default, oracle |
//! | [`analysis`]| §3.1, §3.4, Table 1 | `perf_max ~ P_b` curves, inflections, critical component, balance/utilization |
//! | [`efficiency`]| §2.1 RQ4 | acceptable budget bands, perf-per-watt curves, stranded power |
//! | [`online`]   | §5 future work | model-free feedback coordinator (online dynamic budgeting) |
//! | [`fastpath`] | §5 future work | steady-state serving: lock-free curve tables, one per workload class |
//! | [`hybrid`]   | §2.2 future work | host+card budget coordination for offload applications |

pub mod analysis;
pub mod baselines;
pub mod coord;
pub mod critical;
pub mod efficiency;
pub mod fastpath;
pub mod hybrid;
pub mod online;
pub mod problem;
pub mod profile;
pub mod profile_io;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use analysis::{balance_analysis, critical_component, flattening_budget, perf_max_curve, table1, BalancePoint, CurvePoint, Table1Row};
pub use baselines::{oracle, AllocationPolicy, Baseline, CpuPolicy, GpuPolicy};
pub use coord::{coord_cpu, coord_gpu, CoordResult, CoordStatus, GpuCoordParams};
pub use critical::CriticalPowers;
pub use efficiency::{efficiency_curve, most_efficient_budget, AcceptableRange, EfficiencyPoint};
pub use fastpath::{node_ceiling, node_floor, CurveTable, TABLE_STEP};
pub use hybrid::{coordinate_hybrid, solve_hybrid_split, HybridPoint, HybridWorkload};
pub use online::{check_report, BudgetOutcome, ObservationOutcome, OnlineCoordinator};
pub use problem::PowerBoundedProblem;
pub use profile::{SweepPoint, SweepProfile};
pub use profile_io::{from_csv as profile_from_csv, load as load_profile, save as save_profile, to_csv as profile_to_csv};
pub use report::workload_report;
pub use scenario::{classify_cpu_point, classify_gpu_point, cpu_scenario_spans, CpuScenario, GpuCategory};
pub use sweep::{sweep_budget, sweep_budget_with_pool, sweep_curve, sweep_curve_with_pool, DEFAULT_STEP};
