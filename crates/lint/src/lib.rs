//! `pbc-lint`: a dependency-free static-analysis engine for the
//! power-bounded workspace.
//!
//! The linter lexes Rust source itself (no `syn`, no registry crates)
//! and runs a small set of domain rules that encode bugs this codebase
//! has actually had: exact float comparison on power values, panicking
//! in solver hot paths, lossy casts out of the unit newtypes, printing
//! from library code, glob imports, missing `#[must_use]` on fallible
//! public APIs, and public items that only tests reach.
//!
//! Findings are gated through a checked-in baseline
//! (`lint-baseline.toml`) so existing debt is grandfathered but may
//! only ratchet down. See `docs/LINTING.md` for the workflow.

pub mod ast;
pub mod baseline;
pub mod diagnostics;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod units;

pub use baseline::{Baseline, Regression};
pub use diagnostics::{Diagnostic, Severity};
pub use rules::{all_rules, Rule};
pub use source::{FileKind, SourceFile};

use std::path::{Path, PathBuf};

/// Run every rule over one analyzed file, honoring inline
/// `pbc-lint: allow(...)` directives.
#[must_use]
pub fn lint_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in rules::all_rules() {
        out.extend(rule.check(file).into_iter().filter(|d| !file.is_allowed(d.rule, d.line)));
    }
    out
}

/// Everything a caller needs to render results and pick an exit code.
#[derive(Debug, Default)]
pub struct Report {
    /// Gating (Warning/Error) findings after inline and baseline
    /// allowlists, including baselined ones.
    pub findings: Vec<Diagnostic>,
    /// Note-severity findings; informational only.
    pub notes: Vec<Diagnostic>,
    /// `(rule, file)` buckets that exceed the baseline.
    pub regressions: Vec<Regression>,
    /// Findings the baseline absorbed (counts within budget).
    pub baselined: usize,
    /// Findings beyond any baseline budget — these fail the run.
    pub new: usize,
    /// Baseline entries whose file now has fewer findings.
    pub stale: Vec<(String, String, usize, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Does this report represent a clean (exit 0) run?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Lint every `.rs` file under `root` and compare against `baseline`.
/// Pass `Baseline::default()` to gate with no grandfathered findings.
#[must_use = "the report says whether the tree regressed"]
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> std::io::Result<Report> {
    let mut report = Report::default();
    let paths = source::collect_rs_files(root)?;
    report.files_scanned = paths.len();
    let mut files = Vec::with_capacity(paths.len());
    let mut diags = Vec::new();
    for path in &paths {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue; // non-UTF8 or vanished mid-scan; nothing to lint
        };
        let file = SourceFile::parse(&source::rel_path(root, path), &src);
        diags.extend(lint_file(&file));
        files.push(file);
    }
    // The cross-file halves see the whole tree; inline allows apply to
    // their findings as to per-file ones.
    for rule in rules::all_rules() {
        diags.extend(rule.check_workspace(root, &files).into_iter().filter(|d| {
            !files.iter().any(|f| f.rel_path == d.file && f.is_allowed(d.rule, d.line))
        }));
    }
    for diag in diags {
        if baseline.is_allowed(diag.rule, &diag.file) {
            continue;
        }
        if diag.severity == Severity::Note {
            report.notes.push(diag);
        } else {
            report.findings.push(diag);
        }
    }
    let (regressions, _absorbed) = baseline.compare(&report.findings);
    // A regressed bucket still absorbs its `allowed` budget, so count
    // "new" as the per-bucket overage rather than using `_absorbed`.
    report.new = regressions.iter().map(|r| r.found - r.allowed).sum();
    report.baselined = report.findings.len() - report.new;
    report.stale = baseline.stale_entries(&report.findings);
    report.regressions = regressions;
    Ok(report)
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`. This is how the CLI and the gate test find the repo
/// root regardless of where cargo runs them from.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_file_applies_inline_allows() {
        let src = "\
fn f(x: f64) -> bool {
    let a = r.unwrap(); // pbc-lint: allow(no-unwrap)
    x == 1.0
}
";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let diags = lint_file(&file);
        assert!(diags.iter().all(|d| d.rule != "no-unwrap"), "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == "float-cmp"));
    }

    #[test]
    fn baseline_allowlist_filters_whole_files() {
        let dir = std::env::temp_dir().join("pbc_lint_ws_test");
        let src_dir = dir.join("crates/x/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(src_dir.join("lib.rs"), "fn f() { x.unwrap(); }\n").unwrap();
        let empty = Baseline::default();
        let report = lint_workspace(&dir, &empty).unwrap();
        assert_eq!(report.new, 1);
        assert!(!report.is_clean());

        let allowing =
            Baseline::parse("[allow.no-unwrap]\n\"crates/x/\" = true\n").unwrap();
        let report = lint_workspace(&dir, &allowing).unwrap();
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert_eq!(report.findings.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workspace_root_is_found_from_here() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
    }
}
