//! Property-style chaos tests: the resilience contracts of the fault
//! layer, checked across every shipped plan and a seeded sweep of
//! scenarios, plus one adversarial plan the shipped set deliberately
//! avoids (a budget cut inside a permanent-write-failure window).
//!
//! Like `tests/properties.rs`, randomness comes from the workspace's own
//! deterministic [`XorShift64Star`], so every failure reproduces exactly.

use power_bounded_computing::faults::plan::PRESETS;
use power_bounded_computing::faults::{
    run_chaos, BudgetStep, FaultPlan, FaultWindow, SensorFaults, WriteFaults,
};
use power_bounded_computing::prelude::*;
use power_bounded_computing::types::XorShift64Star;

const BUDGET: f64 = 208.0;
const EPOCHS: usize = 200;

/// Under every shipped plan, at a seeded sweep of seeds: the enforced
/// allocation never ends an epoch over the live budget, and the search
/// converges once the plan goes quiet.
#[test]
fn every_shipped_plan_survives_a_seed_sweep() {
    let platform = ivybridge();
    let mut rng = XorShift64Star::new(0xC8A0_5EED);
    for (name, ..) in PRESETS {
        for _ in 0..3 {
            let seed = rng.next_u64();
            let plan = FaultPlan::by_name(name, seed).unwrap();
            let report =
                run_chaos(&platform, "stream", Watts::new(BUDGET), &plan, EPOCHS).unwrap();
            assert_eq!(
                report.budget_violations, 0,
                "plan {name} seed {seed} ended an epoch over budget:\n{report}"
            );
            assert!(
                report.converged,
                "plan {name} seed {seed} never re-converged:\n{report}"
            );
        }
    }
}

/// Replaying a plan at the same seed reproduces the entire survival
/// report bit-identically — the debuggability contract.
#[test]
fn chaos_runs_replay_bit_identically() {
    let platform = ivybridge();
    let plan = FaultPlan::by_name("everything", 0xDEAD_BEEF).unwrap();
    let a = run_chaos(&platform, "stream", Watts::new(BUDGET), &plan, EPOCHS).unwrap();
    let b = run_chaos(&platform, "stream", Watts::new(BUDGET), &plan, EPOCHS).unwrap();
    assert_eq!(a, b, "same plan, same seed, different report");
}

/// The adversarial case the shipped plans avoid by construction: the
/// budget is cut *inside* a window where cap writes fail permanently,
/// so the re-enforcement transaction itself can roll back to the old
/// (now too generous) caps. Even then, two invariants must hold: no
/// cap total ever exceeds the *initial* budget (enforcement starts
/// compliant and rollback restores prior state, never inflates it),
/// and the search still converges after the plan goes quiet.
#[test]
fn budget_cut_inside_a_permanent_write_window_cannot_inflate_the_caps() {
    let platform = ivybridge();
    let mut rng = XorShift64Star::new(0x00E4_1A9_0500);
    for _ in 0..4 {
        let seed = rng.next_u64();
        let plan = FaultPlan {
            name: "adversarial-overlap".into(),
            seed,
            sensor: SensorFaults::NONE,
            writes: WriteFaults {
                transient_prob: 0.2,
                permanent_prob: 0.25,
                window: FaultWindow { from: 20, until: 80 },
            },
            budget_steps: vec![
                BudgetStep { at: 40, factor: 0.7 },
                BudgetStep { at: 100, factor: 1.0 },
            ],
            phase_shifts: Vec::new(),
        };
        plan.validate().unwrap();
        let report = run_chaos(&platform, "stream", Watts::new(BUDGET), &plan, EPOCHS).unwrap();
        assert!(
            report.max_enforced_total.value() <= BUDGET + 1e-6,
            "seed {seed}: caps exceeded the initial budget:\n{report}"
        );
        assert!(
            report.converged,
            "seed {seed}: search never recovered after the overlap:\n{report}"
        );
    }
}
