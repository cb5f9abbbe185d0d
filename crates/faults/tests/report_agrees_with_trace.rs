//! The node chaos report agrees with its exported telemetry: for every
//! single-node fault preset, every `ChaosReport` count that has a trace
//! counter equals that counter's delta over the run, read back from the
//! JSON-lines export. Counters are process-global, so this file is its
//! own test binary with a single test.

use pbc_faults::chaos::run_chaos;
use pbc_faults::plan::PRESETS;
use pbc_faults::FaultPlan;
use pbc_platform::presets::ivybridge;
use pbc_trace::{json, names};
use pbc_types::Watts;
use std::collections::BTreeMap;

fn exported() -> BTreeMap<String, u64> {
    json::counters(&pbc_trace::to_jsonl()).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn every_preset_report_count_equals_its_counter_delta() {
    let platform = ivybridge();
    for (name, ..) in PRESETS {
        let plan = FaultPlan::by_name(name, 7).unwrap();
        let before = exported();
        let r = run_chaos(&platform, "stream", Watts::new(208.0), &plan, 200).unwrap();
        let after = exported();
        let t = r.tally;
        let counts = [
            (names::FAULTS_INJECTED, t.injected() + r.budget_steps + r.phase_shifts),
            (names::FAULTS_SENSOR_NOISE, t.noise),
            (names::FAULTS_SENSOR_STALE, t.stale),
            (names::FAULTS_SENSOR_DROPOUT, t.dropout),
            (names::FAULTS_WRITE_TRANSIENT, t.write_transient),
            (names::FAULTS_WRITE_PERMANENT, t.write_permanent),
            (names::FAULTS_BUDGET_STEPS, r.budget_steps),
            (names::FAULTS_PHASE_SHIFTS, r.phase_shifts),
            // The harness programs the initial split through the same
            // enforcement path before the first epoch: one attempt the
            // report, which counts epochs, does not.
            (names::ENFORCE_ATTEMPTS, r.enforce_attempts + 1),
            (names::ENFORCE_RETRIES, r.enforce_retries),
            (names::ENFORCE_ROLLBACKS, r.enforce_rollbacks),
            (names::ENFORCE_PERMANENT_FAILURES, r.enforce_rollbacks),
            (names::ENFORCE_ROLLBACK_ERRORS, r.enforce_rollback_errors),
            (names::ONLINE_REJECTED_OBSERVATIONS, r.rejected_observations),
            (names::ONLINE_FALLBACKS, r.fallbacks),
            (names::CHAOS_EPOCHS, r.epochs as u64),
            (names::CHAOS_CLAMPS, r.clamps),
            (names::CHAOS_BUDGET_VIOLATIONS, r.budget_violations),
        ];
        for (counter, count) in counts {
            let read = |c: &BTreeMap<String, u64>| c.get(counter).copied().unwrap_or(0);
            let delta = read(&after) - read(&before);
            assert_eq!(delta, count, "{name}: {counter}: the report counts {count}, the trace {delta}");
        }
    }
}
