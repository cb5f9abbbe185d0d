//! The workspace lint gate.
//!
//! `cargo test` fails if any lint finding regresses past
//! `lint-baseline.toml` — this is what makes the ratchet binding
//! without a CI system. The companion tests prove the gate has teeth:
//! fixtures modeled on the three float-equality bugs this repo actually
//! shipped (metrics.rs, demand.rs, sockets.rs before this change) all
//! produce findings, so reintroducing one fails the build.

use pbc_lint::{all_rules, find_workspace_root, lint_file, lint_workspace, Baseline, SourceFile};

fn workspace() -> (std::path::PathBuf, Baseline) {
    let here = std::env::current_dir().expect("cwd");
    let root = find_workspace_root(&here).expect("workspace root above test cwd");
    let text = std::fs::read_to_string(root.join("lint-baseline.toml"))
        .expect("checked-in lint-baseline.toml");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    (root, baseline)
}

#[test]
fn workspace_is_clean_against_baseline() {
    let (root, baseline) = workspace();
    let report = lint_workspace(&root, &baseline).expect("scan workspace");
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    let mut msg = String::new();
    for r in &report.regressions {
        msg.push_str(&format!(
            "\n  [{}] {}: {} findings, baseline allows {}",
            r.rule, r.file, r.found, r.allowed
        ));
        for d in report.findings.iter().filter(|d| d.rule == r.rule && d.file == r.file) {
            msg.push_str(&format!("\n    {}", d.human().replace('\n', "\n    ")));
        }
    }
    assert!(
        report.is_clean(),
        "lint regressions vs lint-baseline.toml:{msg}\n\
         Fix them, add `// pbc-lint: allow(rule)` with justification, or \
         (only for moves/renames) run `cargo run -p pbc-lint -- --write-baseline`."
    );
}

#[test]
fn baseline_has_no_stale_entries() {
    // Counts may only ratchet down; a stale entry means someone fixed
    // findings without shrinking the budget, leaving headroom for new
    // ones to sneak in.
    let (root, baseline) = workspace();
    let report = lint_workspace(&root, &baseline).expect("scan workspace");
    assert!(
        report.stale.is_empty(),
        "stale baseline entries (run `cargo run -p pbc-lint -- --write-baseline`): {:?}",
        report.stale
    );
}

/// The exact comparison shapes of the three bugs this PR fixed. If the
/// float-cmp rule ever stops seeing them, this test — not a future
/// power-accounting bug — is what fails.
#[test]
fn original_float_bugs_would_be_caught() {
    let fixtures = [
        // crates/types/src/metrics.rs:72 — `if other.rate == 0.0`
        "impl Throughput {\n    pub fn ratio(&self, other: &Throughput) -> f64 {\n        if other.rate == 0.0 { return f64::INFINITY; }\n        self.rate / other.rate\n    }\n}\n",
        // crates/powersim/src/demand.rs:180 — `if *w == 0.0`
        "fn validate(weights: &[f64]) -> bool {\n    weights.iter().all(|w| if *w == 0.0 { false } else { true })\n}\n",
        // crates/powersim/src/sockets.rs:102 — `if share == 0.0`
        "fn split(share: f64, total: f64) -> f64 {\n    if share == 0.0 { 0.0 } else { total / share }\n}\n",
    ];
    for (i, src) in fixtures.iter().enumerate() {
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let diags = lint_file(&file);
        assert!(
            diags.iter().any(|d| d.rule == "float-cmp"),
            "fixture {i} (a shipped float-equality bug) was not flagged: {diags:?}"
        );
    }
}

/// A reintroduced finding in a clean file must regress the report (the
/// bucket has no baseline entry), proving exit-code behavior end to end.
#[test]
fn new_finding_in_clean_file_regresses() {
    let (_, baseline) = workspace();
    let file = SourceFile::parse(
        "crates/types/src/units.rs", // clean file: no baseline budget
        "pub fn bad(w: f64) -> bool { w == 0.0 }\n",
    );
    let findings = lint_file(&file);
    let (regressions, _) = baseline.compare(&findings);
    assert!(
        regressions.iter().any(|r| r.rule == "float-cmp"),
        "float-cmp regression not detected: {regressions:?}"
    );
}

/// docs/LINTING.md's rule catalog is the registry `--list-rules` prints:
/// every listed rule has one row with its severity, and every row names
/// a listed rule.
#[test]
fn linting_doc_catalog_matches_the_registry() {
    let (root, _) = workspace();
    let doc = std::fs::read_to_string(root.join("docs/LINTING.md")).expect("docs/LINTING.md");
    let start = doc.find("## Rule catalog").expect("a `## Rule catalog` section");
    let section = &doc[start..];
    let section = &section[..section[1..].find("\n## ").map_or(section.len(), |i| i + 1)];
    // A catalog row reads "| `id` | severity | what it catches |".
    let mut rows: Vec<(String, String)> = section
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let id = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            Some((id.to_string(), cells.get(2)?.to_string()))
        })
        .collect();
    rows.sort();
    let mut listed: Vec<(String, String)> = all_rules()
        .iter()
        .map(|r| (r.id().to_string(), r.severity().label().to_string()))
        .collect();
    listed.sort();
    assert_eq!(rows, listed, "docs/LINTING.md catalog (left) vs --list-rules (right)");
}
