//! End-to-end cluster smoke test through the real `pbc` binary: the
//! ISSUE's acceptance criteria, asserted from actual process output.
//!
//! * On a 32-node mixed fleet, hierarchical COORD beats a uniform split
//!   of the same global budget on aggregate performance.
//! * A `pbc cluster-chaos` run with node dropouts finishes with
//!   `cluster.budget_violations == 0`, read from a real `--trace` file.
//! * `pbc cluster` runs the static comparison only and points the
//!   dynamic flags at `pbc cluster-chaos`.
//! * A budget far past every class ceiling (`-b 1e308`) still runs.

use pbc_trace::json;
use pbc_trace::names;
use std::collections::BTreeMap;
use std::process::Command;

/// A 32-node fleet mixing every preset: memory-bound and compute-bound
/// hosts plus two generations of GPU cards.
const FLEET_SPEC: &str = "\
# hosts
10 ivybridge stream
8 haswell dgemm
6 ivybridge sra
# cards
5 titan-xp sgemm
3 titan-v minife
";

fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pbc-cli-cluster-{tag}-{}.{ext}", std::process::id()))
}

fn counters_from(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    std::fs::remove_file(path).ok();
    json::counters(&text).unwrap_or_else(|e| panic!("{e}"))
}

/// Pull `aggregate perf LABEL: X.XXX` out of the rendered comparison.
fn aggregate(stdout: &str, label: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.contains(label))
        .unwrap_or_else(|| panic!("no {label:?} line in:\n{stdout}"));
    let tail = line.split(':').nth(1).unwrap_or_else(|| panic!("malformed line {line:?}"));
    let number = tail
        .split_whitespace()
        .next()
        .unwrap_or_else(|| panic!("no number in {line:?}"));
    number
        .parse()
        .unwrap_or_else(|e| panic!("bad aggregate in {line:?}: {e}"))
}

#[test]
fn coordinated_beats_uniform_on_a_32_node_mixed_fleet() {
    let spec = temp_path("static", "txt");
    std::fs::write(&spec, FLEET_SPEC).expect("spec file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster", "-p", spec.to_str().unwrap(), "-b", "4200"])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(
        output.status.success(),
        "pbc cluster failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("32 nodes in 5 classes"), "{stdout}");

    let coord = aggregate(&stdout, "aggregate perf COORD");
    let uniform = aggregate(&stdout, "aggregate perf uniform-split");
    let oracle = aggregate(&stdout, "aggregate perf oracle");
    assert!(
        coord > uniform,
        "COORD ({coord}) must beat a uniform split ({uniform}) at the same global budget"
    );
    assert!(
        coord <= oracle + 1e-6,
        "COORD ({coord}) cannot beat the oracle ({oracle})"
    );
}

#[test]
fn dropout_chaos_survives_and_the_trace_proves_it() {
    let spec = temp_path("chaos", "txt");
    std::fs::write(&spec, FLEET_SPEC).expect("spec file writes");
    let trace = temp_path("chaos", "jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster-chaos", "-p", spec.to_str().unwrap(), "-b", "4200"])
        .args(["--plan", "node-dropouts", "--seed", "7", "--epochs", "40"])
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
    assert!(read(names::CLUSTER_DROPOUTS) > 0, "the plan dropped no nodes");
    // Provisioning leaves the previous targets on the fallback
    // partition, so the first fill moves watts in a calm run too: more
    // than one redistribution is the dropouts' doing.
    assert!(
        read(names::CLUSTER_REDISTRIBUTIONS) > 1,
        "dropouts must force the partitioner to move watts"
    );
    assert_eq!(
        read(names::CLUSTER_BUDGET_VIOLATIONS),
        0,
        "an epoch enforced more power than the global budget"
    );
}

#[test]
fn cluster_refuses_the_dynamic_flags_and_names_cluster_chaos() {
    let spec = temp_path("dynamic", "txt");
    std::fs::write(&spec, "2 ivybridge stream\n").expect("spec file writes");
    for flags in [&["--plan", "node-crash"][..], &["--seed", "7"], &["--epochs", "5"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
            .args(["cluster", "-p", spec.to_str().unwrap(), "-b", "400"])
            .args(flags)
            .output()
            .expect("pbc binary runs");
        assert!(!output.status.success(), "{flags:?} must be refused");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("pbc cluster-chaos"), "{flags:?}: {stderr}");
    }
    std::fs::remove_file(&spec).ok();
}

#[test]
fn cluster_survives_a_huge_budget() {
    // Past ~1.5e20 W a curve's rung index saturates; the oracle's
    // lookup must read the last sample, not index past the table.
    let spec = temp_path("huge", "txt");
    std::fs::write(&spec, "2 ivybridge stream\ntitan-xp sgemm\n").expect("spec file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster", "-p", spec.to_str().unwrap(), "-b", "1e308"])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(
        output.status.success(),
        "pbc cluster -b 1e308 failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}
