//! Workspace discovery and per-file context.
//!
//! Rules need to know *what kind* of file they are looking at (library
//! source vs. binary vs. test code), which lines belong to `#[cfg(test)]`
//! / `#[test]` regions, and which lines carry an inline
//! `pbc-lint: allow(rule)` directive. This module computes all of that
//! once per file so every rule gets it for free.

use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// What kind of target a file belongs to. Determines which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/*/src`, root `src/`) — all rules apply.
    Lib,
    /// Binary source (`src/bin/`, `src/main.rs`) — user-facing printing
    /// is fine, panics are still lint-worthy but baselined like libs.
    Bin,
    /// Test code (`tests/` directories).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

impl FileKind {
    /// Classify a workspace-relative path (with `/` separators).
    #[must_use]
    pub fn classify(rel: &str) -> FileKind {
        if rel.split('/').any(|seg| seg == "tests") {
            FileKind::Test
        } else if rel.split('/').any(|seg| seg == "benches") {
            FileKind::Bench
        } else if rel.split('/').any(|seg| seg == "examples") {
            FileKind::Example
        } else if rel.contains("/bin/") || rel.ends_with("src/main.rs") || rel == "build.rs" {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }
}

/// Everything a rule gets to see about one file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Target classification.
    pub kind: FileKind,
    /// Token stream (comments excluded).
    pub tokens: Vec<Token>,
    /// Parsed AST (functions + expressions) built over `tokens`.
    pub ast: crate::ast::File,
    /// Inclusive line ranges covered by `#[cfg(test)]` items and
    /// `#[test]` functions.
    test_regions: Vec<(usize, usize)>,
    /// line -> rules allowed on that line via inline directives.
    allows: BTreeMap<usize, BTreeSet<String>>,
}

impl SourceFile {
    /// Lex and analyze one file's source text.
    #[must_use]
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let kind = FileKind::classify(rel_path);
        let Lexed { tokens, comments } = lex(src);
        let ast = crate::parser::parse(&tokens);
        let test_regions = find_test_regions(&tokens);
        let mut allows: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        for c in &comments {
            if let Some(rules) = parse_allow_directive(&c.text) {
                // A directive covers its own line (trailing comment) and
                // the next line (comment-above style).
                for line in [c.line, c.line + 1] {
                    allows.entry(line).or_default().extend(rules.iter().cloned());
                }
            }
        }
        SourceFile { rel_path: rel_path.to_string(), kind, tokens, ast, test_regions, allows }
    }

    /// Is this line inside `#[cfg(test)]` / `#[test]` code?
    #[must_use]
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Is `rule` suppressed on `line` by an inline allow directive?
    #[must_use]
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .get(&line)
            .map(|set| set.contains(rule) || set.contains("all"))
            .unwrap_or(false)
    }

    /// True for code rules should treat as non-test, lintable source.
    #[must_use]
    pub fn lintable_line(&self, line: usize) -> bool {
        !self.in_test_region(line)
    }
}

/// Parse `pbc-lint: allow(rule-a, rule-b)` out of a comment's text.
fn parse_allow_directive(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("pbc-lint:")?;
    let rest = comment[idx + "pbc-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let end = rest.find(')')?;
    let rules: Vec<String> = rest[..end]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Find the line ranges of test-only code: items annotated with
/// `#[cfg(test)]` (typically `mod tests`) or `#[test]` functions. Works
/// on the token stream with brace matching, so braces inside strings or
/// comments cannot confuse it.
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct && tokens[i].text == "#" {
            let start_line = tokens[i].line;
            // Attribute: `#[...]` (skip inner attributes `#![...]`).
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].text == "!" {
                i += 1;
                continue;
            }
            if j < tokens.len() && tokens[j].text == "[" {
                // Collect the attribute body to the matching `]`.
                let mut depth = 0usize;
                let mut body: Vec<&str> = Vec::new();
                while j < tokens.len() {
                    match tokens[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        t => body.push(t),
                    }
                    j += 1;
                }
                // `cfg(not(test))` and `cfg(any(test, ..))` code also
                // builds outside tests.
                let is_test_attr = matches!(body.as_slice(), ["test"])
                    || (body.contains(&"cfg")
                        && body.contains(&"test")
                        && !body.contains(&"not")
                        && !body.contains(&"any"));
                if is_test_attr {
                    // Find the item's opening `{`; bail at `;` (e.g.
                    // `mod tests;` or a cfg'd `use`).
                    let mut k = j + 1;
                    while k < tokens.len() && tokens[k].text != "{" && tokens[k].text != ";" {
                        k += 1;
                    }
                    if k < tokens.len() && tokens[k].text == "{" {
                        let mut depth = 0usize;
                        let mut end = k;
                        while end < tokens.len() {
                            match tokens[end].text.as_str() {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            end += 1;
                        }
                        let end_line = tokens.get(end).map(|t| t.line).unwrap_or(usize::MAX);
                        regions.push((start_line, end_line));
                        i = end + 1;
                        continue;
                    }
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Recursively collect the workspace's `.rs` files, relative to `root`.
/// Skips `target/`, VCS metadata, hidden directories, and `tests/fixtures`
/// directories (lint-input corpora whose positive cases are findings on
/// purpose).
#[must_use = "a failed walk scanned nothing"]
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                let in_tests = dir.file_name().is_some_and(|d| d == "tests");
                if name == "fixtures" && in_tests {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Turn an absolute path under `root` into the workspace-relative,
/// `/`-separated form used in diagnostics and the baseline.
#[must_use]
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(FileKind::classify("crates/core/src/coord.rs"), FileKind::Lib);
        assert_eq!(FileKind::classify("crates/cli/src/bin/pbc.rs"), FileKind::Bin);
        assert_eq!(FileKind::classify("tests/properties.rs"), FileKind::Test);
        assert_eq!(FileKind::classify("crates/lint/tests/lint_gate.rs"), FileKind::Test);
        assert_eq!(FileKind::classify("crates/bench/benches/solvers.rs"), FileKind::Bench);
        assert_eq!(FileKind::classify("examples/demo.rs"), FileKind::Example);
        assert_eq!(FileKind::classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(FileKind::classify("src/main.rs"), FileKind::Bin);
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "\
pub fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}
pub fn after() {}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(6));
        assert!(!f.in_test_region(8));
    }

    #[test]
    fn test_fn_outside_mod_is_a_region() {
        let src = "\
fn helper() {}
#[test]
fn standalone() {
    helper();
}
fn tail() {}
";
        let f = SourceFile::parse("tests/x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn braces_in_strings_do_not_break_regions() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { let s = \"}}}{{\"; }
}
fn after_region() {}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.in_test_region(3));
        assert!(!f.in_test_region(5));
    }

    #[test]
    fn allow_directive_same_and_next_line() {
        let src = "\
// pbc-lint: allow(no-unwrap)
let x = y.unwrap();
let z = q.unwrap(); // pbc-lint: allow(no-unwrap, float-cmp)
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_allowed("no-unwrap", 2));
        assert!(f.is_allowed("no-unwrap", 3));
        assert!(f.is_allowed("float-cmp", 3));
        assert!(!f.is_allowed("float-cmp", 2));
        assert!(!f.is_allowed("no-unwrap", 5));
    }

    #[test]
    fn allow_all_wildcard() {
        let f = SourceFile::parse("x.rs", "// pbc-lint: allow(all)\nbad.unwrap();\n");
        assert!(f.is_allowed("anything", 2));
    }

    #[test]
    fn directive_parsing_edges() {
        assert_eq!(parse_allow_directive("// pbc-lint: allow()"), None);
        assert_eq!(parse_allow_directive("// nothing here"), None);
        assert_eq!(
            parse_allow_directive("/* pbc-lint: allow( a , b ) */"),
            Some(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn code_that_also_builds_outside_tests_is_not_a_region() {
        for attr in ["#[cfg(not(test))]", "#[cfg(any(test, feature = \"x\"))]"] {
            let f = SourceFile::parse("x.rs", &format!("{attr}\nfn f() {{\n    g();\n}}\n"));
            assert!(!f.in_test_region(3), "{attr}");
        }
    }

    #[test]
    fn mod_tests_semicolon_is_not_a_region() {
        let f = SourceFile::parse("x.rs", "#[cfg(test)]\nmod tests;\nfn f() {}\n");
        assert!(!f.in_test_region(3));
    }
}
