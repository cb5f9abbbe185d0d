//! Golden fixture corpus: every rule ships positive cases (each
//! expected finding marked with a trailing `//~ rule-id` on its line)
//! and negative cases (each labeled `// case:`) that must stay clean.
//!
//! The corpus lives under `tests/fixtures/<rule-id>/{positive,negative}.rs`
//! and is deliberately excluded from the workspace scan (see
//! `source::collect_rs_files`) — the positive halves are findings on
//! purpose.

use pbc_lint::{all_rules, Rule, SourceFile};
use std::path::PathBuf;

/// Fixtures are analyzed as if they were ordinary library code.
const FIXTURE_PATH: &str = "crates/fixture/src/lib.rs";

fn fixture_dir(rule: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rule)
}

fn read(rule: &str, half: &str) -> String {
    let path = fixture_dir(rule).join(half);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("every rule needs {}: {e}", path.display()))
}

/// Lines carrying a `//~ <rule-id>` expectation marker.
fn expected_lines(src: &str, rule: &str) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let marker = l.split("//~").nth(1)?.trim();
            (marker == rule).then_some(i + 1)
        })
        .collect()
}

/// Finding lines for one rule over fixture source, inline allows applied.
/// The fixture is also the whole tree the rule's cross-file half sees.
fn finding_lines(rule: &dyn Rule, src: &str) -> Vec<usize> {
    let file = SourceFile::parse(FIXTURE_PATH, src);
    let tree = rule.check_workspace(&fixture_dir(rule.id()), std::slice::from_ref(&file));
    let mut lines: Vec<usize> = rule
        .check(&file)
        .into_iter()
        .chain(tree)
        .filter(|d| !file.is_allowed(d.rule, d.line))
        .map(|d| d.line)
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[test]
fn positive_fixtures_flag_exactly_the_marked_lines() {
    for rule in all_rules() {
        let src = read(rule.id(), "positive.rs");
        let want = expected_lines(&src, rule.id());
        assert!(
            want.len() >= 3,
            "{}: positive corpus needs >= 3 marked cases, has {}",
            rule.id(),
            want.len()
        );
        let got = finding_lines(rule.as_ref(), &src);
        assert_eq!(
            got,
            want,
            "{}: positive fixture findings (left) diverge from `//~` markers (right)",
            rule.id()
        );
    }
}

#[test]
fn negative_fixtures_stay_clean() {
    for rule in all_rules() {
        let src = read(rule.id(), "negative.rs");
        let cases = src.lines().filter(|l| l.trim_start().starts_with("// case:")).count();
        assert!(
            cases >= 3,
            "{}: negative corpus needs >= 3 `// case:` labels, has {cases}",
            rule.id()
        );
        let got = finding_lines(rule.as_ref(), &src);
        assert!(
            got.is_empty(),
            "{}: negative fixture produced findings at lines {got:?}",
            rule.id()
        );
    }
}

#[test]
fn corpus_has_no_unknown_rule_directories() {
    let ids: Vec<&str> = all_rules().iter().map(|r| r.id()).collect();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for entry in std::fs::read_dir(&root).expect("fixtures dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            ids.contains(&name.as_str()),
            "tests/fixtures/{name} does not match any registered rule id"
        );
    }
}
