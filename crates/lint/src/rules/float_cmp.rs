//! `float-cmp`: exact `==` / `!=` where a float is clearly involved.
//!
//! Power arithmetic in this workspace chains multiply/accumulates, so
//! exact equality on an `f64` silently misclassifies scenarios (the
//! bugs fixed in powersim's phase-weight validation and the per-socket
//! share split were both of this shape).
//!
//! The rule runs on the AST: a comparison flags when either operand
//! *visibly* carries float material — a float literal, a `.value()`
//! call or `.0` field read off a unit newtype, an `as f64`/`as f32`
//! cast, or arithmetic over any of those — no matter how many lines the
//! expression spans. Macro interiors and code outside parsed functions
//! fall back to the original token-level scan, so `assert!(x == 0.0)`
//! in library code is still caught.

use super::{diag_at, AstCoverage, Rule};
use crate::ast::{Expr, ExprKind, LitKind};
use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// See module docs.
pub struct FloatCmp;

impl Rule for FloatCmp {
    fn id(&self) -> &'static str {
        "float-cmp"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "exact ==/!= on float expressions; use pbc_types::units::{approx_eq, is_zero}"
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // AST pass: every parsed comparison, across any number of lines.
        for f in &file.ast.fns {
            f.body.walk_exprs(&mut |e| {
                let ExprKind::Binary(op, a, b) = &e.kind else { return };
                if op != "==" && op != "!=" {
                    return;
                }
                if !float_material(a) && !float_material(b) {
                    return;
                }
                // Report at the operator token (right before the rhs)
                // so inline allows keep working line-precisely.
                let op_idx = b.span.lo.saturating_sub(1);
                let (line, col) = file
                    .tokens
                    .get(op_idx)
                    .filter(|t| t.text == *op)
                    .map(|t| (t.line, t.col))
                    .unwrap_or_else(|| e.span.position(&file.tokens));
                if !file.lintable_line(line) {
                    return;
                }
                out.push(diag_at(
                    self.id(),
                    self.severity(),
                    file,
                    line,
                    col,
                    format!(
                        "exact `{op}` on a float expression; use approx_eq/is_zero \
                         from pbc_types::units"
                    ),
                ));
            });
        }
        // Token fallback for macro interiors and top-level code.
        let cov = AstCoverage::of(file);
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
                continue;
            }
            if cov.ast_covered(i) || !file.lintable_line(t.line) {
                continue;
            }
            let float_left = i > 0 && toks[i - 1].kind == TokenKind::Float
                || ends_in_unit_access(toks, i);
            let float_right = match toks.get(i + 1) {
                Some(n) if n.kind == TokenKind::Float => true,
                Some(n) if n.text == "-" => {
                    matches!(toks.get(i + 2), Some(nn) if nn.kind == TokenKind::Float)
                }
                _ => false,
            };
            if float_left || float_right {
                out.push(diag_at(
                    self.id(),
                    self.severity(),
                    file,
                    t.line,
                    t.col,
                    format!(
                        "exact `{}` on a float expression; use approx_eq/is_zero \
                         from pbc_types::units",
                        t.text
                    ),
                ));
            }
        }
        out.sort_by_key(|d| (d.line, d.col));
        out.dedup_by_key(|d| (d.line, d.col));
        out
    }
}

/// Does this operand visibly carry float material? Deliberately does
/// not recurse into call arguments (a float argument says nothing about
/// the call's result) or through `.round()`-style methods (comparing
/// integral-valued floats exactly is well-defined).
fn float_material(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Lit(LitKind::Float, _) => true,
        ExprKind::MethodCall(_, name, _) => name == "value",
        ExprKind::Field(_, name) => name == "0",
        // Float-constant paths: `f64::NEG_INFINITY`, `f32::NAN`, ... A
        // sentinel compared with `==` is exactly the pattern that hid
        // the online coordinator's baseline state (and `NAN == NAN` is
        // always false); model the state with `Option` instead.
        ExprKind::Path(segs) => {
            matches!(
                segs.as_slice(),
                [ty, c]
                    if matches!(ty.as_str(), "f64" | "f32")
                        && matches!(
                            c.as_str(),
                            "NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON"
                                | "MAX" | "MIN" | "MIN_POSITIVE"
                        )
            )
        }
        ExprKind::Cast(_, ty) => {
            matches!(ty.split_whitespace().next(), Some("f64" | "f32"))
        }
        ExprKind::Unary(_, inner)
        | ExprKind::Paren(inner)
        | ExprKind::Ref(inner)
        | ExprKind::Try(inner) => float_material(inner),
        ExprKind::Binary(op, a, b)
            if matches!(op.as_str(), "+" | "-" | "*" | "/" | "%") =>
        {
            float_material(a) || float_material(b)
        }
        _ => false,
    }
}

/// Token-level fallback: does the expression ending just before token
/// `i` end in `.value()` or `.0` — the unit-newtype accessors?
fn ends_in_unit_access(toks: &[crate::lexer::Token], i: usize) -> bool {
    if i >= 4
        && toks[i - 1].text == ")"
        && toks[i - 2].text == "("
        && toks[i - 3].text == "value"
        && toks[i - 4].text == "."
    {
        return true;
    }
    i >= 2 && toks[i - 1].kind == TokenKind::Int && toks[i - 1].text == "0" && toks[i - 2].text == "."
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_rule;
    use super::*;

    #[test]
    fn flags_literal_comparison() {
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", "fn f(w: f64) -> bool { w == 0.0 }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("=="));
    }

    #[test]
    fn flags_ne_and_negative_literals() {
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", "fn f(w: f64) -> bool { w != -1.5 }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn flags_value_accessor() {
        let d = run_rule(
            &FloatCmp,
            "crates/x/src/lib.rs",
            "fn f(w: Watts, v: Watts) -> bool { w.value() == v.value() }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn flags_newtype_field_zero() {
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", "fn f(w: Watts) -> bool { w.0 == x }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn flags_multiline_comparison() {
        let src = "fn f(a: Watts, b: f64) -> bool {\n    a.value()\n        == b * 2.0\n}";
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn flags_inside_macros_via_fallback() {
        let src = "fn f(w: f64) { assert!(w == 0.25); }";
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    /// The online coordinator's epsilon bug class: a `NEG_INFINITY`
    /// sentinel held in a plain variable and compared exactly. Neither
    /// operand is a literal or a unit accessor, so the rule used to
    /// miss it.
    #[test]
    fn flags_float_constant_paths() {
        let d = run_rule(
            &FloatCmp,
            "crates/x/src/lib.rs",
            "fn f(best: f64) -> bool { best == f64::NEG_INFINITY }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        let d = run_rule(
            &FloatCmp,
            "crates/x/src/lib.rs",
            "fn f(v: f32) -> bool { f32::NAN != v }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn ignores_non_float_constant_paths() {
        let d = run_rule(
            &FloatCmp,
            "crates/x/src/lib.rs",
            "fn f(n: usize) -> bool { n == usize::MAX }",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run_rule(
            &FloatCmp,
            "crates/x/src/lib.rs",
            "fn f(p: Phase) -> bool { p == Phase::Converged }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ignores_integer_comparison() {
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", "fn f(n: usize) -> bool { n == 0 }");
        assert!(d.is_empty());
    }

    #[test]
    fn ignores_rounded_comparison() {
        let src = "fn f(a: f64, b: f64) -> bool { a.round() == b.round() }";
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ignores_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(w: f64) -> bool { w == 0.5 }\n}\n";
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", src);
        assert!(d.is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "fn f(w: f64) -> bool { w == 0.0 } // pbc-lint: allow(float-cmp)";
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", src);
        assert!(d.is_empty());
    }

    #[test]
    fn string_contents_do_not_trigger() {
        let src = r#"fn f() -> &'static str { "w == 0.0" }"#;
        let d = run_rule(&FloatCmp, "crates/x/src/lib.rs", src);
        assert!(d.is_empty());
    }
}
