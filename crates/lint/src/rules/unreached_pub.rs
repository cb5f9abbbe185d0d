//! `unreached-pub`: a `pub` item that only tests name.
//!
//! A public function, type or constant that no product code reaches is
//! dead weight: it is compiled, documented and kept green by its own
//! tests, but nothing the workspace ships depends on it. This rule
//! lists such items so they are deleted, or kept on purpose with an
//! inline `// pbc-lint: allow(unreached-pub)` marker and the reason.
//!
//! - **Declarations**: an unrestricted `pub` `fn`, `struct`, `enum`,
//!   `trait`, `type`, `const` or `static` in library or binary code,
//!   outside test code. `pub(crate)`/`pub(super)` items, `main`, and
//!   items inside `macro_rules!` templates are not declarations.
//! - **Reach**: non-test code of any scanned file, its own file
//!   included, names the item. A `pub fn` in an inherent `impl T` block
//!   is named by a `.name(` (or `.name::<`) call or a `T::name` or
//!   `Self::name` path, not by a field, a variable or another type's
//!   `U::name`. Any other item is named by its identifier as a token.
//!   Benches, examples and binaries count. The item's own declaration,
//!   an item-level `impl … Name` header up to its `{`, and the body of a
//!   `pub use` do not.
//!
//! A `.name(` call on any receiver, a `Self::name` in any impl, and a
//! path with no plain type before it (`<T as Tr>::name`, `$t::name`)
//! reach every method of that name, and other items match by name, so
//! two items with one name hide each other: that can only miss a
//! finding. Only a method called solely through a renamed import or a
//! type alias (`Alias::name`) is flagged while live.

use super::Rule;
use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// See module docs.
pub struct UnreachedPub;

const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

impl Rule for UnreachedPub {
    fn id(&self) -> &'static str {
        "unreached-pub"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn description(&self) -> &'static str {
        "`pub` items that only tests (or nothing) name; delete them or mark them kept"
    }

    /// The rule is cross-file only.
    fn check(&self, _file: &SourceFile) -> Vec<Diagnostic> {
        Vec::new()
    }

    fn check_workspace(&self, _root: &Path, files: &[SourceFile]) -> Vec<Diagnostic> {
        let mut reach = Reach::default();
        let mut decls = Vec::new();
        for file in files.iter().filter(|f| f.kind != FileKind::Test) {
            scan(file, &mut reach, &mut decls);
        }
        decls
            .into_iter()
            .filter(|d| match d.owner {
                Some(owner) => !reach.method(owner, d.name),
                // The declaration's own token is the one occurrence counted.
                None => reach.idents.get(d.name).copied().unwrap_or(0) <= 1,
            })
            .map(|d| Diagnostic {
                rule: self.id(),
                severity: self.severity(),
                file: d.file.rel_path.clone(),
                line: d.token.line,
                col: d.token.col,
                message: format!(
                    "pub {} `{}` is named by no non-test code; delete it, or keep it with \
                     `// pbc-lint: allow(unreached-pub)` and the reason",
                    d.kind, d.name
                ),
            })
            .collect()
    }
}

/// What the non-test code of the scanned files names.
#[derive(Default)]
struct Reach<'a> {
    /// Identifier tokens, by text.
    idents: BTreeMap<&'a str, usize>,
    /// Names called as `.name(`, or named by a path whose qualifier is
    /// not a plain identifier: each reaches every method of its name.
    calls: BTreeSet<&'a str>,
    /// `(qualifier, name)` of every other `Q::name` path.
    paths: BTreeSet<(&'a str, &'a str)>,
}

impl<'a> Reach<'a> {
    /// Is `owner`'s method `name` called, or named by a path?
    fn method(&self, owner: &'a str, name: &'a str) -> bool {
        self.calls.contains(name)
            || self.paths.contains(&("Self", name))
            || self.paths.contains(&(owner, name))
    }
}

/// One `pub` item declaration.
struct Decl<'a> {
    file: &'a SourceFile,
    kind: &'a str,
    name: &'a str,
    token: &'a Token,
    /// The type of the inherent `impl` block a `pub fn` is declared in.
    owner: Option<&'a str>,
}

/// Count what one non-test file names into `reach`, and collect its
/// declarations.
fn scan<'a>(file: &'a SourceFile, reach: &mut Reach<'a>, decls: &mut Vec<Decl<'a>>) {
    let toks = &file.tokens;
    let declares = matches!(file.kind, FileKind::Lib | FileKind::Bin);
    let text = |i: usize| toks.get(i).map_or("", |t: &Token| t.text.as_str());
    // Token index where the current `macro_rules!` body ends.
    let mut macro_end = 0usize;
    // The inherent impls open here: each one's type and closing brace.
    let mut impls: Vec<(&str, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if file.in_test_region(t.line) {
            i += 1;
            continue;
        }
        let prev = text(i.wrapping_sub(1));
        match t.text.as_str() {
            "macro_rules" if text(i + 1) == "!" => {
                macro_end = macro_end.max(matching_close(toks, i + 3));
            }
            // An item-level `impl` (not `-> impl Trait` or
            // `x: impl Trait`): its header names the type it implements
            // for, which reaches nothing.
            "impl" if matches!(prev, "" | "}" | ";" | "{" | "]" | "unsafe") => {
                let open = skip_to(toks, i, &["{", ";"]);
                if let Some(owner) = inherent_owner(&toks[i + 1..open]) {
                    impls.push((owner, matching_close(toks, open)));
                }
                i = open;
                continue;
            }
            "pub" => {
                let mut j = i + 1;
                let restricted = text(j) == "(";
                if restricted {
                    j = matching_close(toks, j) + 1;
                }
                if text(j) == "use" {
                    i = skip_to(toks, j, &[";"]) + 1;
                    continue;
                }
                // `const` qualifies a fn unless it names a constant
                // (`pub const NAME: T`).
                while matches!(text(j), "unsafe" | "async" | "extern")
                    || toks.get(j).is_some_and(|t| t.kind == TokenKind::Str)
                    || (text(j) == "const" && text(j + 2) != ":")
                {
                    j += 1;
                }
                let kind = text(j);
                let name_at = if kind == "static" && text(j + 1) == "mut" { j + 2 } else { j + 1 };
                let name = toks.get(name_at).filter(|n| n.kind == TokenKind::Ident);
                if let (true, Some(name)) = (ITEM_KINDS.contains(&kind), name) {
                    if declares && !restricted && i >= macro_end && name.text != "main" {
                        while impls.last().is_some_and(|&(_, close)| close < i) {
                            impls.pop();
                        }
                        let owner = impls.last().filter(|_| kind == "fn").map(|&(t, _)| t);
                        decls.push(Decl { file, kind, name: &name.text, token: name, owner });
                    }
                }
            }
            _ => {}
        }
        if t.kind == TokenKind::Ident {
            let name = t.text.as_str();
            *reach.idents.entry(name).or_default() += 1;
            match (prev, toks.get(i.wrapping_sub(2))) {
                (".", _) if matches!(text(i + 1), "(" | "::") => {
                    reach.calls.insert(name);
                }
                // `$t::name` in a macro template names no type.
                ("::", Some(q)) if q.kind == TokenKind::Ident && text(i.wrapping_sub(3)) != "$" => {
                    reach.paths.insert((q.text.as_str(), name));
                }
                ("::", _) => {
                    reach.calls.insert(name);
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// The type an `impl` header (the tokens between `impl` and its `{`)
/// implements inherently: its last identifier outside angle brackets
/// and before any `where`. `None` for a trait impl (a `for` outside
/// angle brackets).
fn inherent_owner(header: &[Token]) -> Option<&str> {
    let mut depth = 0i32;
    let mut owner = None;
    for t in header {
        match t.text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "where" if depth == 0 => break,
            "for" if depth == 0 => return None,
            name if depth == 0 && t.kind == TokenKind::Ident => owner = Some(name),
            _ => {}
        }
    }
    owner
}

/// Index of the first token at or after `from` whose text is in `stops`,
/// or `toks.len()`.
fn skip_to(toks: &[Token], from: usize, stops: &[&str]) -> usize {
    (from..toks.len()).find(|&k| stops.contains(&toks[k].text.as_str())).unwrap_or(toks.len())
}

/// Index of the bracket closing the one at `open` (`(`, `[` or `{`), or
/// `toks.len()` when it never closes.
fn matching_close(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::parse(rel, src)).collect();
        UnreachedPub
            .check_workspace(Path::new("."), &files)
            .into_iter()
            .filter(|d| {
                let f = files.iter().find(|f| f.rel_path == d.file);
                !f.is_some_and(|f| f.is_allowed(d.rule, d.line))
            })
            .map(|d| format!("{}:{}", d.file, d.line))
            .collect()
    }

    const LIB: &str = "crates/a/src/lib.rs";
    const DECL: &str = "pub fn probe() -> u32 { 1 }\n";
    const CALL: &str = "fn f() { a::probe(); }";

    #[test]
    fn test_code_and_a_pub_use_do_not_reach_an_item() {
        for other in [
            ("crates/a/tests/t.rs", CALL),
            ("crates/b/src/lib.rs", "#[cfg(test)]\nmod tests {\n    fn f() { a::probe(); }\n}\n"),
            ("src/lib.rs", "pub use a::{probe, other};\n"),
        ] {
            assert_eq!(findings(&[(LIB, DECL), other]), [format!("{LIB}:1")], "{other:?}");
        }
    }

    #[test]
    fn a_bench_an_example_a_binary_or_another_library_reaches_an_item() {
        for rel in ["crates/b/benches/b.rs", "examples/e.rs", "src/bin/b.rs", "crates/b/src/c.rs"] {
            assert!(findings(&[(LIB, DECL), (rel, CALL)]).is_empty(), "{rel} did not reach");
        }
        assert!(findings(&[(LIB, DECL), ("crates/b/src/lib.rs", "use a::probe;\n")]).is_empty());
    }

    #[test]
    fn declarations_only_in_library_and_binary_code() {
        for rel in ["crates/b/benches/b.rs", "examples/e.rs", "tests/t.rs"] {
            assert!(findings(&[(rel, DECL)]).is_empty(), "{rel} declared");
        }
        assert_eq!(findings(&[("crates/b/src/bin/b.rs", DECL)]).len(), 1);
    }
}
