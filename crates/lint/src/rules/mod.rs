//! The rule framework and registry.
//!
//! A rule sees one analyzed [`SourceFile`] at a time and returns
//! [`Diagnostic`]s; a rule with a cross-file half also sees the whole
//! scanned tree once, through [`Rule::check_workspace`]. Rules decide
//! themselves which [`FileKind`]s and regions they apply to (most skip
//! `#[cfg(test)]` code); the engine applies inline `pbc-lint: allow(...)`
//! directives and the baseline's per-rule allowlist afterwards, so rules
//! never need to think about suppression.
//!
//! [`FileKind`]: crate::source::FileKind

mod budget_arith;
mod counter_drift;
mod float_cmp;
mod guard_across_pool;
mod lossy_cast;
mod must_use;
mod no_println;
mod no_unwrap;
mod unit_mix;
mod unreached_pub;
mod wildcard_import;

use crate::ast::ExprKind;
use crate::diagnostics::{Diagnostic, Severity};
use crate::source::SourceFile;
use std::path::Path;

pub use budget_arith::BudgetArith;
pub use counter_drift::CounterDrift;
pub use float_cmp::FloatCmp;
pub use guard_across_pool::GuardAcrossPool;
pub use lossy_cast::LossyCast;
pub use must_use::MissingMustUse;
pub use no_println::NoPrintln;
pub use no_unwrap::NoUnwrap;
pub use unit_mix::UnitMix;
pub use unreached_pub::UnreachedPub;
pub use wildcard_import::WildcardImport;

/// One lint rule.
pub trait Rule {
    /// Stable kebab-case identifier (used in baselines and allows).
    fn id(&self) -> &'static str;
    /// Severity attached to every finding of this rule.
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and docs.
    fn description(&self) -> &'static str;
    /// Produce findings for one file.
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic>;
    /// Produce the findings that need every scanned file at once.
    /// `root` is the directory the tree was read from; the fixture
    /// harness passes each fixture as a one-file tree. Most rules have
    /// no cross-file half.
    fn check_workspace(&self, _root: &Path, _files: &[SourceFile]) -> Vec<Diagnostic> {
        Vec::new()
    }
}

/// The full rule set, in reporting order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatCmp),
        Box::new(NoUnwrap),
        Box::new(LossyCast),
        Box::new(NoPrintln),
        Box::new(WildcardImport),
        Box::new(MissingMustUse),
        Box::new(UnitMix),
        Box::new(BudgetArith),
        Box::new(GuardAcrossPool),
        Box::new(CounterDrift),
        Box::new(UnreachedPub),
    ]
}

/// Which token indices the AST pass actually analyzes: inside a parsed
/// function body but *not* inside a macro invocation (macro interiors
/// are opaque to the parser). AST-ported rules run their token-level
/// fallback only on uncovered indices, so nothing is double-reported
/// and nothing is lost.
pub(crate) struct AstCoverage {
    fn_spans: Vec<(usize, usize)>,
    macro_spans: Vec<(usize, usize)>,
}

impl AstCoverage {
    pub(crate) fn of(file: &SourceFile) -> AstCoverage {
        let mut fn_spans = Vec::new();
        let mut macro_spans = Vec::new();
        for f in &file.ast.fns {
            fn_spans.push((f.body.span.lo, f.body.span.hi));
            f.body.walk_exprs(&mut |e| {
                if matches!(e.kind, ExprKind::MacroCall(_)) {
                    macro_spans.push((e.span.lo, e.span.hi));
                }
            });
        }
        AstCoverage { fn_spans, macro_spans }
    }

    pub(crate) fn ast_covered(&self, tok_idx: usize) -> bool {
        self.fn_spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&tok_idx))
            && !self.macro_spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&tok_idx))
    }
}

/// Helper shared by rules: build a diagnostic at a token position.
pub(crate) fn diag_at(
    rule: &'static str,
    severity: Severity,
    file: &SourceFile,
    line: usize,
    col: usize,
    message: String,
) -> Diagnostic {
    Diagnostic { rule, severity, file: file.rel_path.clone(), line, col, message }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Run one rule over a synthetic file at the given path.
    pub fn run_rule(rule: &dyn Rule, rel_path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(rel_path, src);
        rule.check(&file)
            .into_iter()
            .filter(|d| !file.is_allowed(d.rule, d.line))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_kebab() {
        let rules = all_rules();
        let mut ids: Vec<_> = rules.iter().map(|r| r.id()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate rule id");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {id} not kebab-case"
            );
        }
    }

    #[test]
    fn every_rule_has_a_description() {
        for rule in all_rules() {
            assert!(!rule.description().is_empty(), "{} lacks description", rule.id());
        }
    }
}
