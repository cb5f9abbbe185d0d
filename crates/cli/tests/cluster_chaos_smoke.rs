//! End-to-end fleet fault-tolerance smoke through the real `pbc`
//! binary: `pbc cluster-chaos` survives a crash plan with the
//! invariants proven from a real `--trace` file, `pbc faults list`
//! catalogues every canned plan, and unknown plans die with a typed
//! error naming the real ones.

use pbc_trace::json;
use pbc_trace::names;
use std::collections::BTreeMap;
use std::process::Command;

/// A small mixed fleet — the harness replays a full fault plan per
/// run, so the smoke stays light.
const FLEET_SPEC: &str = "\
4 ivybridge stream
2 haswell dgemm
2 titan-xp sgemm
";

fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pbc-cli-cluster-chaos-{tag}-{}.{ext}",
        std::process::id()
    ))
}

fn counters_from(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    std::fs::remove_file(path).ok();
    json::counters(&text).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn crash_plan_survives_and_the_trace_proves_the_invariants() {
    let spec = temp_path("crash", "txt");
    std::fs::write(&spec, FLEET_SPEC).expect("spec file writes");
    let trace = temp_path("crash", "jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster-chaos", "-p", spec.to_str().unwrap(), "-b", "1050"])
        .args(["--plan", "node-crash", "--seed", "7"])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(
        output.status.success(),
        "pbc cluster-chaos failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("SURVIVED"), "no survival verdict in:\n{stdout}");

    let counters = counters_from(&trace);
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        read(names::CLUSTER_BUDGET_VIOLATIONS),
        0,
        "an epoch enforced more power than the global budget"
    );
    assert_eq!(
        read(names::HEALTH_QUARANTINE_LEAKS),
        0,
        "raises outran what confirmed decreases freed"
    );
    assert!(read(names::CLUSTER_DROPOUTS) > 0, "the crash plan crashed nothing");
    assert!(
        read(names::HEALTH_QUARANTINES) > 0,
        "crashed nodes must pass through quarantine"
    );
}

#[test]
fn faults_list_catalogues_every_plan() {
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["faults", "list"])
        .output()
        .expect("pbc binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in pbc_faults::plan::NAMES {
        assert!(stdout.contains(name), "single-node plan {name} missing:\n{stdout}");
    }
    for name in pbc_faults::FLEET_PLAN_NAMES {
        assert!(stdout.contains(name), "fleet plan {name} missing:\n{stdout}");
    }
}

#[test]
fn cluster_chaos_rejects_an_unknown_plan_listing_the_real_ones() {
    let spec = temp_path("badplan", "txt");
    std::fs::write(&spec, "2 ivybridge stream\n").expect("spec file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster-chaos", "-p", spec.to_str().unwrap(), "-b", "400"])
        .args(["--plan", "no-such-plan"])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("node-crash") && stderr.contains("stragglers"),
        "error should list the known fleet plans: {stderr}"
    );
}
