//! # pbc-bench
//!
//! Benchmarks for the reproduction (on the dependency-free [`harness`]
//! module), one target per paper artifact plus the design-choice
//! ablations DESIGN.md calls out:
//!
//! * `figures` — regeneration cost of each table/figure (`fig1`–`fig9`,
//!   `table1`–`table3`), with shape assertions on the results so a bench
//!   run doubles as a smoke-check that every artifact still reproduces.
//! * `coordination_cost` — the paper's pitch quantified: a COORD decision
//!   (a handful of probe evaluations) vs the exhaustive sweep oracle it
//!   replaces, at several sweep granularities.
//! * `solvers` — throughput of the steady-state solvers and the
//!   discrete-time engine (the substrate every experiment stands on).
//! * `native_kernels` — the runnable kernels on the host machine.
//!
//! Run with `cargo bench --workspace`.

pub mod harness;

pub use harness::{Bench, Timing};

/// Shared helper: a standard IvyBridge problem for benches.
pub fn ivy_problem(bench: &str, budget: f64) -> pbc_core::PowerBoundedProblem {
    pbc_core::PowerBoundedProblem::new(
        pbc_platform::presets::ivybridge(),
        pbc_workloads::by_name(bench).expect("benchmark name").demand,
        pbc_types::Watts::new(budget),
    )
    .expect("valid problem")
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_builds() {
        let p = super::ivy_problem("stream", 208.0);
        assert_eq!(p.budget.value(), 208.0);
    }
}
