//! The baseline ratchet: grandfathered findings live in
//! `lint-baseline.toml` and may only shrink.
//!
//! The file is plain TOML, restricted to the subset this module parses
//! (so the linter stays dependency-free):
//!
//! ```toml
//! # Per-rule sections: file -> number of grandfathered findings.
//! [no-unwrap]
//! "crates/powersim/src/engine.rs" = 3
//!
//! # Per-rule allowlist: files (or path prefixes) fully exempt.
//! [allow.lossy-cast]
//! "crates/rapl/src/lib.rs" = true
//! ```
//!
//! Counts are compared per `(rule, file)`: a file may never have more
//! findings than its baseline entry, and files without an entry must be
//! clean. `pbc-lint --write-baseline` regenerates the file from the
//! current findings, which is also how entries are ratcheted down.

use crate::diagnostics::Diagnostic;
use std::collections::BTreeMap;

/// Parsed baseline: grandfathered counts and per-rule allow prefixes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// `(rule, file) -> allowed finding count`.
    pub counts: BTreeMap<(String, String), usize>,
    /// `rule -> path prefixes` fully exempt from that rule.
    pub allow: BTreeMap<String, Vec<String>>,
}

/// One `(rule, file)` bucket that exceeded its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Findings now present.
    pub found: usize,
    /// Findings the baseline allows.
    pub allowed: usize,
}

impl Baseline {
    /// Parse the TOML subset described in the module docs. Unknown
    /// syntax is an error — a malformed ratchet must not silently pass.
    #[must_use = "a malformed baseline must fail the run"]
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut baseline = Baseline::default();
        let mut section: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unclosed section header", lineno + 1))?;
                section = Some(name.trim().to_string());
                continue;
            }
            let section = section
                .as_ref()
                .ok_or_else(|| format!("line {}: entry outside any [rule] section", lineno + 1))?;
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `\"file\" = value`", lineno + 1))?;
            let key = key.trim();
            let key = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: file keys must be quoted", lineno + 1))?;
            let value = value.trim();
            if let Some(rule) = section.strip_prefix("allow.") {
                match value {
                    "true" => {
                        baseline.allow.entry(rule.to_string()).or_default().push(key.to_string());
                    }
                    "false" => {}
                    _ => {
                        return Err(format!(
                            "line {}: allow entries must be true/false",
                            lineno + 1
                        ))
                    }
                }
            } else {
                let count: usize = value
                    .parse()
                    .map_err(|_| format!("line {}: count must be an integer", lineno + 1))?;
                baseline.counts.insert((section.clone(), key.to_string()), count);
            }
        }
        Ok(baseline)
    }

    /// Is `file` exempt from `rule` via the allowlist?
    #[must_use]
    pub fn is_allowed(&self, rule: &str, file: &str) -> bool {
        self.allow
            .get(rule)
            .map(|prefixes| prefixes.iter().any(|p| file == p || file.starts_with(p.as_str())))
            .unwrap_or(false)
    }

    /// Compare findings against the baseline. Returns every `(rule,
    /// file)` bucket whose count exceeds its allowance, plus the number
    /// of findings absorbed by the baseline.
    #[must_use]
    pub fn compare(&self, diags: &[Diagnostic]) -> (Vec<Regression>, usize) {
        let mut by_bucket: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diags {
            *by_bucket.entry((d.rule.to_string(), d.file.clone())).or_default() += 1;
        }
        let mut regressions = Vec::new();
        let mut absorbed = 0usize;
        for ((rule, file), found) in by_bucket {
            let allowed = self.counts.get(&(rule.clone(), file.clone())).copied().unwrap_or(0);
            if found > allowed {
                regressions.push(Regression { rule, file, found, allowed });
            } else {
                absorbed += found;
            }
        }
        (regressions, absorbed)
    }

    /// Baseline entries whose file now has fewer findings — candidates
    /// for ratcheting down with `--write-baseline`.
    #[must_use]
    pub fn stale_entries(&self, diags: &[Diagnostic]) -> Vec<(String, String, usize, usize)> {
        let mut by_bucket: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diags {
            *by_bucket.entry((d.rule.to_string(), d.file.clone())).or_default() += 1;
        }
        self.counts
            .iter()
            .filter_map(|((rule, file), &allowed)| {
                let found = by_bucket.get(&(rule.clone(), file.clone())).copied().unwrap_or(0);
                (found < allowed).then(|| (rule.clone(), file.clone(), found, allowed))
            })
            .collect()
    }

    /// Render a baseline that exactly absorbs `diags`, preserving the
    /// allowlist. This is what `--write-baseline` writes.
    #[must_use]
    pub fn regenerate(&self, diags: &[Diagnostic]) -> String {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diags {
            *counts.entry((d.rule.to_string(), d.file.clone())).or_default() += 1;
        }
        Baseline { counts, allow: self.allow.clone() }.render()
    }

    /// A copy with every entry clamped down to the findings actually
    /// present (dropping entries that hit zero). Unlike
    /// [`Self::regenerate`], this never *adds* budget: new findings stay
    /// new. This is what `--prune-baseline` writes.
    #[must_use]
    pub fn pruned(&self, diags: &[Diagnostic]) -> Baseline {
        let mut by_bucket: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diags {
            *by_bucket.entry((d.rule.to_string(), d.file.clone())).or_default() += 1;
        }
        let counts = self
            .counts
            .iter()
            .filter_map(|((rule, file), &allowed)| {
                let found =
                    by_bucket.get(&(rule.clone(), file.clone())).copied().unwrap_or(0);
                let keep = allowed.min(found);
                (keep > 0).then(|| ((rule.clone(), file.clone()), keep))
            })
            .collect();
        Baseline { counts, allow: self.allow.clone() }
    }

    /// Canonical on-disk form: header comment, per-rule count sections,
    /// then the allowlist.
    #[must_use]
    pub fn render(&self) -> String {
        let mut by_rule: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
        for ((rule, file), &count) in &self.counts {
            by_rule.entry(rule).or_default().insert(file, count);
        }
        let mut out = String::new();
        out.push_str(
            "# pbc-lint baseline: grandfathered findings, per rule and file.\n\
             # This file is a ratchet — counts may only go down. Regenerate with\n\
             # `cargo run -p pbc-lint -- --write-baseline` after fixing findings.\n",
        );
        for (rule, files) in &by_rule {
            out.push('\n');
            out.push_str(&format!("[{rule}]\n"));
            for (file, count) in files {
                out.push_str(&format!("\"{file}\" = {count}\n"));
            }
        }
        for (rule, prefixes) in &self.allow {
            out.push('\n');
            out.push_str(&format!("[allow.{rule}]\n"));
            for p in prefixes {
                out.push_str(&format!("\"{p}\" = true\n"));
            }
        }
        out
    }
}

/// Strip a `#` comment, respecting `#` inside quoted keys.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;

    fn diag(rule: &'static str, file: &str) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            file: file.into(),
            line: 1,
            col: 1,
            message: "m".into(),
        }
    }

    #[test]
    fn parse_counts_and_allow() {
        let b = Baseline::parse(
            "# header\n[no-unwrap]\n\"a.rs\" = 2\n\n[allow.lossy-cast]\n\"crates/rapl/\" = true\n",
        )
        .unwrap();
        assert_eq!(b.counts.get(&("no-unwrap".into(), "a.rs".into())), Some(&2));
        assert!(b.is_allowed("lossy-cast", "crates/rapl/src/lib.rs"));
        assert!(!b.is_allowed("lossy-cast", "crates/core/src/lib.rs"));
        assert!(!b.is_allowed("no-unwrap", "crates/rapl/src/lib.rs"));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Baseline::parse("\"a.rs\" = 2\n").is_err()); // outside section
        assert!(Baseline::parse("[r]\na.rs = 2\n").is_err()); // unquoted key
        assert!(Baseline::parse("[r]\n\"a.rs\" = x\n").is_err()); // bad count
        assert!(Baseline::parse("[r\n").is_err()); // unclosed header
    }

    #[test]
    fn compare_flags_exceeding_buckets() {
        let b = Baseline::parse("[no-unwrap]\n\"a.rs\" = 1\n").unwrap();
        let diags =
            vec![diag("no-unwrap", "a.rs"), diag("no-unwrap", "a.rs"), diag("float-cmp", "b.rs")];
        let (regressions, absorbed) = b.compare(&diags);
        assert_eq!(regressions.len(), 2);
        assert_eq!(absorbed, 0);
        assert!(regressions.iter().any(|r| r.rule == "no-unwrap" && r.found == 2 && r.allowed == 1));
        assert!(regressions.iter().any(|r| r.rule == "float-cmp" && r.allowed == 0));
    }

    #[test]
    fn compare_absorbs_within_budget() {
        let b = Baseline::parse("[no-unwrap]\n\"a.rs\" = 3\n").unwrap();
        let diags = vec![diag("no-unwrap", "a.rs")];
        let (regressions, absorbed) = b.compare(&diags);
        assert!(regressions.is_empty());
        assert_eq!(absorbed, 1);
    }

    #[test]
    fn stale_entries_reported() {
        let b = Baseline::parse("[no-unwrap]\n\"a.rs\" = 3\n\"b.rs\" = 1\n").unwrap();
        let stale = b.stale_entries(&[diag("no-unwrap", "b.rs")]);
        assert_eq!(stale, vec![("no-unwrap".into(), "a.rs".into(), 0, 3)]);
    }

    #[test]
    fn regenerate_roundtrips() {
        let mut b = Baseline::default();
        b.allow.entry("lossy-cast".into()).or_default().push("crates/rapl/".into());
        let diags = vec![diag("no-unwrap", "a.rs"), diag("no-unwrap", "a.rs")];
        let text = b.regenerate(&diags);
        let again = Baseline::parse(&text).unwrap();
        assert_eq!(again.counts.get(&("no-unwrap".into(), "a.rs".into())), Some(&2));
        assert!(again.is_allowed("lossy-cast", "crates/rapl/x.rs"));
        let (regressions, _) = again.compare(&diags);
        assert!(regressions.is_empty());
    }

    #[test]
    fn pruned_clamps_without_adding_budget() {
        let b = Baseline::parse(
            "[no-unwrap]\n\"a.rs\" = 3\n\"b.rs\" = 2\n\n[allow.lossy-cast]\n\"crates/rapl/\" = true\n",
        )
        .unwrap();
        // a.rs now has 1 finding (was 3), b.rs has none, c.rs is new.
        let diags = vec![diag("no-unwrap", "a.rs"), diag("no-unwrap", "c.rs")];
        let p = b.pruned(&diags);
        assert_eq!(p.counts.get(&("no-unwrap".into(), "a.rs".into())), Some(&1));
        assert!(!p.counts.contains_key(&("no-unwrap".into(), "b.rs".into())));
        assert!(!p.counts.contains_key(&("no-unwrap".into(), "c.rs".into())), "prune must not absorb new findings");
        assert!(p.is_allowed("lossy-cast", "crates/rapl/x.rs"));
        assert!(p.stale_entries(&diags).is_empty());
    }

    #[test]
    fn render_parse_roundtrips() {
        let b = Baseline::parse("[no-unwrap]\n\"a.rs\" = 3\n\n[allow.x]\n\"crates/y/\" = true\n")
            .unwrap();
        assert_eq!(Baseline::parse(&b.render()).unwrap(), b);
    }

    #[test]
    fn comment_stripping_respects_quotes() {
        let b = Baseline::parse("[r]\n\"weird#name.rs\" = 1 # trailing\n").unwrap();
        assert_eq!(b.counts.get(&("r".into(), "weird#name.rs".into())), Some(&1));
    }
}
