//! `counter-drift`: the trace-metric registry, the code that bumps the
//! metrics, and `docs/OBSERVABILITY.md` must agree.
//!
//! Three drift modes, all of which have bitten observability stacks:
//!
//! 1. A name registered in `crates/trace/src/names.rs` but missing from
//!    `docs/OBSERVABILITY.md` — undocumented telemetry.
//! 2. A dotted metric name documented in `docs/OBSERVABILITY.md` that
//!    no registry constant defines — stale docs.
//! 3. A registry constant never referenced outside `names.rs` — dead
//!    telemetry that dashboards may still query.
//!
//! Plus the per-file half: `counter("raw.name")` / `gauge(..)` /
//! `span(..)` with a string literal bypasses the registry entirely, so
//! none of the three checks can see it. Everything outside
//! `crates/trace/` must go through `pbc_trace::names` constants.
//!
//! The three cross-file checks are the rule's
//! [`Rule::check_workspace`] half.

use super::{diag_at, Rule};
use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;
use std::path::Path;

/// Registry path, workspace-relative.
pub const NAMES_RS: &str = "crates/trace/src/names.rs";
/// Documentation path, workspace-relative.
pub const OBSERVABILITY_MD: &str = "docs/OBSERVABILITY.md";

/// See module docs.
pub struct CounterDrift;

impl Rule for CounterDrift {
    fn id(&self) -> &'static str {
        "counter-drift"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "trace metric names drifting between names.rs, code usage, and OBSERVABILITY.md"
    }

    /// Per-file half: raw string literals fed to `counter`/`gauge`/
    /// `span`. The registry crate itself is exempt (it defines the
    /// primitives and exercises them in its docs and tests).
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin)
            || file.rel_path.starts_with("crates/trace/")
        {
            return Vec::new();
        }
        let mut out = Vec::new();
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || !matches!(t.text.as_str(), "counter" | "gauge" | "span")
                || !file.lintable_line(t.line)
            {
                continue;
            }
            let open = toks.get(i + 1);
            let arg = toks.get(i + 2);
            let (Some(open), Some(arg)) = (open, arg) else { continue };
            if open.text == "(" && arg.kind == TokenKind::Str {
                out.push(diag_at(
                    self.id(),
                    self.severity(),
                    file,
                    arg.line,
                    arg.col,
                    format!(
                        "raw metric name {} bypasses the registry; add a constant to \
                         pbc_trace::names",
                        arg.text
                    ),
                ));
            }
        }
        out
    }

    /// The workspace-level consistency check over every scanned file;
    /// the doc is read from `root`.
    fn check_workspace(&self, root: &Path, files: &[SourceFile]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let Some(names) = files.iter().find(|f| f.rel_path == NAMES_RS) else {
            return out; // no registry in this tree (unit-test workspaces)
        };
        let registry = parse_registry(&names.tokens);
        if registry.is_empty() {
            return out;
        }
        let doc = std::fs::read_to_string(root.join(OBSERVABILITY_MD)).unwrap_or_default();

        let mut refs = BTreeSet::new();
        for f in files {
            if f.rel_path != NAMES_RS {
                collect_const_refs(&f.tokens, &mut refs);
            }
        }

        let diag = |file: &str, line: usize, message: String| Diagnostic {
            rule: self.id(),
            severity: self.severity(),
            file: file.to_string(),
            line,
            col: 1,
            message,
        };

        // 1 + 3: every registered metric is documented and referenced.
        for e in &registry {
            if !doc.contains(&format!("`{}`", e.value)) {
                out.push(diag(
                    NAMES_RS,
                    e.line,
                    format!(
                        "metric `{}` ({}) is not documented in {OBSERVABILITY_MD}",
                        e.value, e.ident
                    ),
                ));
            }
            if !refs.contains(e.ident) {
                out.push(diag(
                    NAMES_RS,
                    e.line,
                    format!(
                        "metric constant {} (`{}`) is never referenced outside the registry",
                        e.ident, e.value
                    ),
                ));
            }
        }

        // 2: every documented metric-shaped name is registered.
        let registered: BTreeSet<&str> = registry.iter().map(|e| e.value).collect();
        let mut seen = BTreeSet::new();
        for (name, line) in doc_metric_names(&doc) {
            if !registered.contains(name.as_str()) && seen.insert(name.clone()) {
                out.push(diag(
                    OBSERVABILITY_MD,
                    line,
                    format!("documented metric `{name}` has no constant in {NAMES_RS}"),
                ));
            }
        }
        out
    }
}

/// One registered metric constant.
#[derive(Debug)]
struct RegEntry<'a> {
    ident: &'a str,
    value: &'a str,
    line: usize,
}

/// Parse `pub const IDENT: &str = "value";` entries out of the
/// registry's tokens.
fn parse_registry(toks: &[Token]) -> Vec<RegEntry<'_>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 5 < toks.len() {
        if toks[i].text == "const"
            && toks[i + 1].kind == TokenKind::Ident
            && toks[i + 2].text == ":"
            && toks[i + 3].text == "&"
            && toks[i + 4].text == "str"
            && toks[i + 5].text == "="
            && toks.get(i + 6).map(|t| t.kind) == Some(TokenKind::Str)
        {
            let value = toks[i + 6].text.trim_matches('"');
            out.push(RegEntry { ident: &toks[i + 1].text, value, line: toks[i + 1].line });
            i += 7;
        } else {
            i += 1;
        }
    }
    out
}

/// Extract dotted metric-shaped names from inline backticked spans in
/// the doc: `[a-z][a-z0-9_]*(\.[a-z0-9_]+)+`, excluding paths and file
/// names. Returns `(name, line)` pairs.
fn doc_metric_names(doc: &str) -> Vec<(String, usize)> {
    const FILE_EXTS: &[&str] =
        &[".rs", ".md", ".sh", ".json", ".jsonl", ".toml", ".gz", ".csv", ".txt"];
    let mut out = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(end) = after.find('`') else { break };
            let span = &after[..end];
            rest = &after[end + 1..];
            if is_metric_shape(span) && !FILE_EXTS.iter().any(|e| span.ends_with(e)) {
                out.push((span.to_string(), lineno + 1));
            }
        }
    }
    out
}

fn is_metric_shape(s: &str) -> bool {
    if !s.contains('.') {
        return false;
    }
    let mut first = true;
    for part in s.split('.') {
        if part.is_empty() {
            return false;
        }
        let mut chars = part.chars();
        let Some(c0) = chars.next() else { return false };
        if first && !c0.is_ascii_lowercase() {
            return false;
        }
        if !first && !(c0.is_ascii_lowercase() || c0.is_ascii_digit()) {
            return false;
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        first = false;
    }
    true
}

/// Collect `names::IDENT` references from one file's tokens.
fn collect_const_refs<'a>(toks: &'a [Token], into: &mut BTreeSet<&'a str>) {
    for w in toks.windows(3) {
        if w[0].kind == TokenKind::Ident
            && w[0].text == "names"
            && w[1].text == "::"
            && w[2].kind == TokenKind::Ident
        {
            into.insert(&w[2].text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_rule;
    use super::*;

    #[test]
    fn flags_raw_counter_name() {
        let src = "fn f() { pbc_trace::counter(\"sweep.oops\").incr(); }";
        let d = run_rule(&CounterDrift, "crates/core/src/sweep.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sweep.oops"));
    }

    #[test]
    fn flags_raw_gauge_and_span() {
        let src = "fn f() { gauge(\"x.y\").set(1.0); let _s = span(\"a.b\"); }";
        assert_eq!(run_rule(&CounterDrift, "crates/x/src/lib.rs", src).len(), 2);
    }

    #[test]
    fn const_fed_counter_is_fine() {
        let src = "fn f() { pbc_trace::counter(names::SWEEP_POINTS_TOTAL).incr(); }";
        assert!(run_rule(&CounterDrift, "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn trace_crate_itself_is_exempt() {
        let src = "fn f() { counter(\"work.items\").add(3); }";
        assert!(run_rule(&CounterDrift, "crates/trace/src/lib.rs", src).is_empty());
    }

    #[test]
    fn dynamic_names_are_fine() {
        let src = "fn f(name: &str) { pbc_trace::counter(name).incr(); }";
        assert!(run_rule(&CounterDrift, "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { counter(\"t.c\").incr(); }\n}\n";
        assert!(run_rule(&CounterDrift, "crates/x/src/lib.rs", src).is_empty());
    }

    fn tree(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files.iter().map(|(rel, src)| SourceFile::parse(rel, src)).collect()
    }

    #[test]
    fn registry_parse_and_shapes() {
        let toks = crate::lexer::lex(
            "pub const A: &str = \"x.y\";\npub const B: &str = \"plain\";\n",
        )
        .tokens;
        let entries = parse_registry(&toks);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].value, "x.y");
        assert!(is_metric_shape("sweep.points.total"));
        assert!(is_metric_shape("coord.cpu.regime_a"));
        assert!(!is_metric_shape("plain"));
        assert!(!is_metric_shape("Cargo.toml"));
        assert!(!is_metric_shape("a..b"));
    }

    #[test]
    fn workspace_pass_catches_all_three_drifts() {
        let dir = std::env::temp_dir().join("pbc_lint_drift_test");
        std::fs::create_dir_all(dir.join("docs")).unwrap();
        std::fs::write(
            dir.join("docs/OBSERVABILITY.md"),
            "The `a.used` counter. Also `ghost.metric` is documented.\n",
        )
        .unwrap();
        let files = tree(&[
            (
                NAMES_RS,
                "pub const USED: &str = \"a.used\";\npub const UNDOC: &str = \"a.undoc\";\n\
                 pub const DEAD: &str = \"a.dead\";\n",
            ),
            ("crates/x/src/lib.rs",
             "fn f() { counter(names::USED).incr(); counter(names::UNDOC).incr(); }"),
        ]);
        let diags = CounterDrift.check_workspace(&dir, &files);
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("a.undoc") && m.contains("not documented")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("DEAD") && m.contains("never referenced")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("ghost.metric")), "{msgs:?}");
        // `a.used` is fully consistent: exactly one diag per drift.
        assert_eq!(diags.len(), 4, "{msgs:?}"); // DEAD is also undocumented
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workspace_pass_clean_when_consistent() {
        let dir = std::env::temp_dir().join("pbc_lint_drift_clean");
        std::fs::create_dir_all(dir.join("docs")).unwrap();
        std::fs::write(dir.join("docs/OBSERVABILITY.md"), "Only `a.used` here.\n").unwrap();
        let files = tree(&[
            (NAMES_RS, "pub const USED: &str = \"a.used\";\n"),
            ("crates/x/src/lib.rs", "fn f() { counter(names::USED); }"),
        ]);
        assert!(CounterDrift.check_workspace(&dir, &files).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
