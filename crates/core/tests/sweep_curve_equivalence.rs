//! The shared-grid oracle's contract: [`pbc_core::sweep_curve`] must be
//! *bit-identical* to running [`pbc_core::sweep_budget`] once per budget,
//! and both must be deterministic regardless of how many executors the
//! pool runs — otherwise the memo and the pool would not be
//! optimizations but silent behaviour changes.

use pbc_core::{
    sweep_budget, sweep_budget_with_pool, sweep_curve, sweep_curve_with_pool, PowerBoundedProblem,
    SweepProfile, DEFAULT_STEP,
};
use pbc_par::Pool;
use pbc_platform::presets::{ivybridge, titan_xp};
use pbc_types::Watts;
use pbc_workloads::by_name;

fn cpu_problem(bench: &str) -> PowerBoundedProblem {
    PowerBoundedProblem::new(ivybridge(), by_name(bench).unwrap().demand, Watts::new(208.0))
        .unwrap()
}

fn gpu_problem(bench: &str) -> PowerBoundedProblem {
    PowerBoundedProblem::new(titan_xp(), by_name(bench).unwrap().demand, Watts::new(200.0))
        .unwrap()
}

fn budget_ladder(lo: f64, step: f64, n: usize) -> Vec<Watts> {
    (0..n).map(|i| Watts::new(lo + step * i as f64)).collect()
}

/// Exact comparison, field by field, with a message that names the first
/// diverging point. `PartialEq` on the operating point compares the f64
/// fields exactly, which is the bit-identity the curve promises.
fn assert_profiles_identical(curve: &[SweepProfile], per_budget: &[SweepProfile]) {
    assert_eq!(curve.len(), per_budget.len());
    for (c, b) in curve.iter().zip(per_budget) {
        assert_eq!(c.platform, b.platform);
        assert_eq!(c.workload, b.workload);
        assert_eq!(c.budget, b.budget);
        assert_eq!(
            c.points.len(),
            b.points.len(),
            "point count differs at {}",
            c.budget
        );
        for (cp, bp) in c.points.iter().zip(&b.points) {
            assert_eq!(cp, bp, "divergence at budget {} alloc {}", c.budget, bp.alloc);
        }
    }
}

#[test]
fn cpu_curve_is_bit_identical_to_per_budget_sweeps() {
    for bench in ["stream", "sra"] {
        let problem = cpu_problem(bench);
        let budgets = budget_ladder(140.0, 16.0, 9);
        let curve = sweep_curve(&problem, &budgets, DEFAULT_STEP).unwrap();
        for (i, &budget) in budgets.iter().enumerate() {
            let single = PowerBoundedProblem {
                platform: problem.platform.clone(),
                workload: problem.workload.clone(),
                budget,
            };
            let profile = sweep_budget(&single, DEFAULT_STEP).unwrap();
            assert_profiles_identical(&curve[i..=i], std::slice::from_ref(&profile));
        }
    }
}

#[test]
fn gpu_curve_is_bit_identical_to_per_budget_sweeps() {
    let problem = gpu_problem("gpu-stream");
    // Includes sub-minimum card caps: those budgets must come back as
    // empty profiles from both paths, not as errors.
    let budgets = budget_ladder(80.0, 24.0, 9);
    let curve = sweep_curve(&problem, &budgets, DEFAULT_STEP).unwrap();
    let mut empties = 0;
    for (i, &budget) in budgets.iter().enumerate() {
        let single = PowerBoundedProblem {
            platform: problem.platform.clone(),
            workload: problem.workload.clone(),
            budget,
        };
        let profile = sweep_budget(&single, DEFAULT_STEP).unwrap();
        if profile.points.is_empty() {
            empties += 1;
        }
        assert_profiles_identical(&curve[i..=i], std::slice::from_ref(&profile));
    }
    assert!(empties > 0, "the ladder should probe below the settable range");
    assert!(empties < budgets.len(), "the ladder should also be schedulable somewhere");
}

#[test]
fn curve_is_deterministic_across_pool_sizes() {
    let problem = cpu_problem("sra");
    let budgets = budget_ladder(150.0, 12.0, 8);
    let reference = sweep_curve_with_pool(&problem, &budgets, DEFAULT_STEP, &Pool::new(1)).unwrap();
    for threads in [2usize, 8] {
        let pool = Pool::new(threads);
        let got = sweep_curve_with_pool(&problem, &budgets, DEFAULT_STEP, &pool).unwrap();
        assert_profiles_identical(&got, &reference);
    }
}

#[test]
fn budget_sweep_is_deterministic_across_pool_sizes() {
    let problem = gpu_problem("sgemm");
    let reference = sweep_budget_with_pool(&problem, DEFAULT_STEP, &Pool::new(1)).unwrap();
    for threads in [2usize, 8] {
        let pool = Pool::new(threads);
        let got = sweep_budget_with_pool(&problem, DEFAULT_STEP, &pool).unwrap();
        assert_profiles_identical(
            std::slice::from_ref(&got),
            std::slice::from_ref(&reference),
        );
    }
}

#[test]
fn curve_reuses_solver_work_across_budgets() {
    let problem = cpu_problem("stream");
    let budgets = budget_ladder(160.0, 8.0, 10);
    let hits_before = pbc_trace::counter(pbc_trace::names::SWEEP_CURVE_REUSE_HITS).get();
    let curve = sweep_curve(&problem, &budgets, DEFAULT_STEP).unwrap();
    let hits_after = pbc_trace::counter(pbc_trace::names::SWEEP_CURVE_REUSE_HITS).get();
    assert!(curve.iter().all(|p| !p.points.is_empty()));
    assert!(
        hits_after > hits_before,
        "a 10-budget CPU curve must reuse canonical solves across budgets \
         (hits {hits_before} -> {hits_after})"
    );
}
