//! End-to-end chaos smoke test through the real `pbc` binary: run a
//! hostile fault plan with `--trace FILE` and assert the resilience
//! invariants from the trace counters — every permanent enforcement
//! failure was rolled back, and the node never ran over budget.

use pbc_trace::json;
use pbc_trace::names;
use std::collections::BTreeMap;
use std::process::Command;

fn trace_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pbc-cli-chaos-{tag}-{}.jsonl", std::process::id()))
}

fn counters_from(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    std::fs::remove_file(path).ok();
    json::counters(&text).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn chaos_everything_survives_and_the_trace_proves_it() {
    let path = trace_file("everything");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["chaos", "-p", "ivybridge", "-w", "stream", "-b", "208"])
        .args(["--plan", "everything", "--seed", "42", "--epochs", "200"])
        .args(["--trace", path.to_str().unwrap()])
        .output()
        .expect("pbc binary runs");
    assert!(
        output.status.success(),
        "pbc chaos failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("SURVIVED"), "no survival verdict in:\n{stdout}");

    let counters = counters_from(&path);
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);

    assert!(read(names::FAULTS_INJECTED) > 0, "the plan injected nothing");
    assert!(
        read(names::ONLINE_REJECTED_OBSERVATIONS) > 0,
        "sensor faults never reached the validator"
    );
    assert_eq!(
        read(names::ENFORCE_ROLLBACKS),
        read(names::ENFORCE_PERMANENT_FAILURES),
        "every permanent enforcement failure must trigger exactly one rollback"
    );
    assert_eq!(
        read(names::CHAOS_BUDGET_VIOLATIONS),
        0,
        "enforced allocation exceeded the budget"
    );
}

#[test]
fn chaos_rejects_an_unknown_plan_listing_the_real_ones() {
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["chaos", "-p", "ivybridge", "-w", "stream", "-b", "208"])
        .args(["--plan", "no-such-plan"])
        .output()
        .expect("pbc binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("flaky-writes") && stderr.contains("everything"),
        "error should list the known plans: {stderr}"
    );
}
