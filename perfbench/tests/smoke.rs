//! Smoke-length runs of the benchmark binary: every workload prints
//! every metric `BENCHMARK.json` names, with its unit; a seed fixes the
//! decision-quality metrics bit for bit; bad input fails the run.

use pbc_trace::json::{parse, Value};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve-agents", "fleet-1024", "oracle-suite"];

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

fn run(workload: &str, seed: &str, trace: &str) -> Value {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.5",
        "--trace",
        trace,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec = parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Value::Arr(items)) = spec.get(list) else {
        panic!("{list} is not a list")
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(result: &Value, name: &str) -> (f64, String) {
    let m = result
        .get("metrics")
        .and_then(|ms| ms.get(name))
        .unwrap_or_else(|| panic!("{name} missing"));
    let value = m
        .get("value")
        .and_then(Value::as_f64)
        .expect("numeric value");
    let unit = m
        .get("unit")
        .and_then(Value::as_str)
        .expect("unit")
        .to_string();
    (value, unit)
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = listed(list);
        for w in WORKLOADS {
            let result = run(w, "11", trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
            let attempted = result
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted");
            assert!(attempted >= 1.0, "{w}");
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{w}"
            );
            let Some(Value::Obj(printed)) = result.get("metrics") else {
                panic!("{w}: no metrics")
            };
            assert_eq!(
                printed.len(),
                wanted.len(),
                "{w} trace={trace}: exactly the listed metrics"
            );
            for (name, unit) in &wanted {
                let (value, got_unit) = metric(&result, name);
                assert_eq!(&got_unit, unit, "{w}: unit of {name}");
                assert!(value.is_finite(), "{w}: {name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{w}: end-to-end {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn one_seed_reproduces_the_decision_quality_metrics_bit_for_bit() {
    for w in ["fleet-1024", "oracle-suite"] {
        let a = run(w, "5", "0");
        let b = run(w, "5", "0");
        for name in ["work_ratio", "oracle_ratio"] {
            assert_eq!(
                metric(&a, name).0.to_bits(),
                metric(&b, name).0.to_bits(),
                "{w}: {name}"
            );
        }
    }
}

#[test]
fn bad_input_fails_without_printing_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "oracle-suite",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "oracle-suite",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "oracle-suite", "--seed", "1"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
