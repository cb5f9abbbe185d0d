//! Golden replay: every single-node fault preset, at two seeds, must
//! produce exactly the `ChaosReport` it produced when these values were
//! captured — integer fields by value, every f64 by its bit pattern.
//! Any change to a fault draw's `(seed, tick, stream, key)`, its gating,
//! or the chaos loop's arithmetic shows up here as a diff.

use pbc_faults::chaos::run_chaos;
use pbc_faults::plan::PRESETS;
use pbc_faults::{ChaosReport, FaultPlan, InjectionTally};
use pbc_platform::presets::ivybridge;
use pbc_types::{PowerAllocation, Watts};

/// `(plan, seed, fingerprint)`: the report's fields in declaration
/// order (the tally and the final split expanded in theirs), f64s as
/// `to_bits` hex.
const GOLDEN: [(&str, u64, &str); 10] = [
    ("calm", 7, "calm 7 200 406a000000000000 406a000000000000 0 0 0 0 0 0 0 200 0 0 0 0 0 0 0 406a000000000000 0 true 405a800000000000 4059800000000000 3feefbd6ae9988dc"),
    ("calm", 11, "calm 11 200 406a000000000000 406a000000000000 0 0 0 0 0 0 0 200 0 0 0 0 0 0 0 406a000000000000 0 true 405a800000000000 4059800000000000 3feefbd6ae9988dc"),
    ("noisy-sensors", 7, "noisy-sensors 7 200 406a000000000000 406a000000000000 46 16 17 0 0 0 0 200 0 0 0 22 1 0 0 406a000000000000 0 true 405a000000000000 405a000000000000 3feec47c0208f5cd"),
    ("noisy-sensors", 11, "noisy-sensors 11 200 406a000000000000 406a000000000000 31 21 14 0 0 0 0 200 0 0 0 15 0 0 0 406a000000000000 0 true 405ac00000000000 4059400000000000 3fedfe8dca37b5e8"),
    ("flaky-writes", 7, "flaky-writes 7 200 406a000000000000 406a000000000000 0 0 0 77 10 0 0 200 134 10 0 0 0 0 0 406a000000000000 0 true 405a800000000000 4059800000000000 3feefbd6ae9988dc"),
    ("flaky-writes", 11, "flaky-writes 11 200 406a000000000000 406a000000000000 0 0 0 81 17 0 0 200 176 17 0 0 0 0 0 406a000000000000 0 true 405a800000000000 4059800000000000 3feefbd6ae9988dc"),
    ("budget-storm", 7, "budget-storm 7 200 406a000000000000 406a000000000000 0 0 0 0 0 3 1 200 0 0 0 0 0 0 0 406a000000000000 3d20000000000000 true 4062592492492492 404e9b6db6db6db8 3fec0bcbaf41b0bd"),
    ("budget-storm", 11, "budget-storm 11 200 406a000000000000 406a000000000000 0 0 0 0 0 3 1 200 0 0 0 0 0 0 0 406a000000000000 3d20000000000000 true 4062592492492492 404e9b6db6db6db8 3fec0bcbaf41b0bd"),
    ("everything", 7, "everything 7 200 406a000000000000 406a000000000000 18 6 5 34 6 2 1 200 64 6 0 6 0 0 0 406a000000000000 0 true 4062800000000000 404e000000000000 3fec0bcbaf41b0bd"),
    ("everything", 11, "everything 11 200 406a000000000000 406a000000000000 20 4 5 39 12 2 1 200 91 12 0 5 0 0 0 406a000000000000 0 true 4062600000000000 404e800000000000 3fec0bcbaf41b0bd"),
];

/// Every field of the report, in declaration order. The destructuring
/// is exhaustive, so a new field cannot slip past the pin.
fn fingerprint(r: &ChaosReport) -> String {
    let ChaosReport {
        plan, seed, epochs, budget_initial, budget_final, tally, budget_steps, phase_shifts,
        enforce_attempts, enforce_retries, enforce_rollbacks, enforce_rollback_errors,
        rejected_observations, fallbacks, clamps, budget_violations,
        max_enforced_total, max_overdraw, converged, final_alloc, final_perf,
    } = r;
    let InjectionTally { noise, stale, dropout, write_transient, write_permanent } = *tally;
    let PowerAllocation { proc, mem } = *final_alloc;
    let w = |x: Watts| format!("{:x}", x.value().to_bits());
    format!(
        "{plan} {seed} {epochs} {} {} {noise} {stale} {dropout} {write_transient} \
         {write_permanent} {budget_steps} {phase_shifts} {enforce_attempts} {enforce_retries} \
         {enforce_rollbacks} {enforce_rollback_errors} \
         {rejected_observations} {fallbacks} {clamps} {budget_violations} {} {} {converged} \
         {} {} {:x}",
        w(*budget_initial),
        w(*budget_final),
        w(*max_enforced_total),
        w(*max_overdraw),
        w(proc),
        w(mem),
        final_perf.to_bits(),
    )
}

#[test]
fn every_preset_replays_its_golden_report() {
    let platform = ivybridge();
    let mut actual = Vec::new();
    for (plan, ..) in PRESETS {
        for seed in [7, 11] {
            let p = FaultPlan::by_name(plan, seed).unwrap();
            let report = run_chaos(&platform, "stream", Watts::new(208.0), &p, 200).unwrap();
            actual.push((plan, seed, fingerprint(&report)));
        }
    }
    let rendered: Vec<String> =
        actual.iter().map(|(p, s, f)| format!("    (\"{p}\", {s}, \"{f}\"),")).collect();
    let expected: Vec<(&str, u64, String)> =
        GOLDEN.iter().map(|&(p, s, f)| (p, s, f.to_string())).collect();
    assert_eq!(actual, expected, "golden replay diverged; actual table:\n{}", rendered.join("\n"));
}
