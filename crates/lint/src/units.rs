//! Unit dimensions for the power-accounting dataflow pass.
//!
//! Every quantity that flows through the coordinators is one of a small
//! set of physical dimensions. The lint engine infers a [`Dim`] for each
//! binding from three sources, strongest first:
//!
//! 1. **Newtype names** — `pbc_types` wrappers (`Watts`, `Joules`,
//!    `Seconds`, `Hertz`, `Bandwidth`, `Gflops`) appearing in a declared
//!    type.
//! 2. **Naming conventions** — the workspace consistently names raw
//!    `f64`s (`budget_w`, `share`, `perf`, `freq_hz`, ...).
//! 3. **Propagation** — dimensional algebra over arithmetic
//!    (`Watts × Seconds = Joules`, `X × Fraction = X`, `X / X =
//!    Fraction`).
//!
//! Only *strong* dimensions participate in `unit-mix` findings;
//! [`Dim::Unitless`] and [`Dim::Unknown`] never flag, so plain counters
//! and literals stay quiet.

/// A physical dimension tracked by the unit-flow pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Power: watts (budgets, caps, draws).
    Watts,
    /// Energy: joules.
    Joules,
    /// Time: seconds.
    Seconds,
    /// Frequency: hertz.
    Hertz,
    /// Memory bandwidth (GB/s).
    Bandwidth,
    /// Performance (GFLOPS / normalized throughput).
    Perf,
    /// A dimensionless share in `[0, 1]` (budget fractions, ratios).
    Fraction,
    /// Dimensionless but known (counts, indices, plain literals).
    Unitless,
    /// Nothing inferable; never participates in findings.
    Unknown,
}

impl Dim {
    /// Strong dimensions carry a physical unit (or are an explicit
    /// fraction) and may participate in `unit-mix` findings.
    #[must_use]
    pub fn is_strong(self) -> bool {
        !matches!(self, Dim::Unitless | Dim::Unknown)
    }

    /// Human-readable dimension name for diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dim::Watts => "watts",
            Dim::Joules => "joules",
            Dim::Seconds => "seconds",
            Dim::Hertz => "hertz",
            Dim::Bandwidth => "bandwidth",
            Dim::Perf => "perf",
            Dim::Fraction => "fraction",
            Dim::Unitless => "unitless",
            Dim::Unknown => "unknown",
        }
    }
}

/// Unit newtypes from `pbc_types` mapped to their dimensions.
const UNIT_TYPES: &[(&str, Dim)] = &[
    ("Watts", Dim::Watts),
    ("Joules", Dim::Joules),
    ("Seconds", Dim::Seconds),
    ("Hertz", Dim::Hertz),
    ("Bandwidth", Dim::Bandwidth),
    ("Gflops", Dim::Perf),
];

/// Look up a bare type name (one path segment) as a unit newtype.
#[must_use]
pub fn unit_type(name: &str) -> Option<Dim> {
    UNIT_TYPES.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}

/// Infer a dimension from a declared type (flat token text, as the
/// parser captures it — e.g. `"& Watts"`, `"Vec < Joules >"`, `"f64"`).
///
/// If exactly one distinct unit newtype appears anywhere in the type,
/// that's the dimension (so `&Watts`, `Option<Watts>`, `Vec<Watts>` all
/// infer watts). Pure-integer types are [`Dim::Unitless`]; floats and
/// everything else are [`Dim::Unknown`] (names may refine them).
#[must_use]
pub fn dim_of_type(ty: &str) -> Dim {
    let mut found: Option<Dim> = None;
    let mut ambiguous = false;
    let mut saw_int = false;
    let mut saw_other = false;
    for tok in ty.split_whitespace() {
        if let Some(d) = unit_type(tok) {
            match found {
                None => found = Some(d),
                Some(prev) if prev != d => ambiguous = true,
                Some(_) => {}
            }
        } else if matches!(
            tok,
            "usize" | "u8" | "u16" | "u32" | "u64" | "u128" | "isize" | "i8" | "i16" | "i32"
                | "i64" | "i128" | "bool"
        ) {
            saw_int = true;
        } else if !matches!(tok, "&" | "mut" | "<" | ">" | "(" | ")" | "[" | "]" | "," | "'") {
            saw_other = true;
        }
    }
    match found {
        Some(d) if !ambiguous => d,
        Some(_) => Dim::Unknown,
        None if saw_int && !saw_other => Dim::Unitless,
        None => Dim::Unknown,
    }
}

/// Infer a dimension from a binding / field name, following the
/// workspace naming conventions. Fractions are checked first so
/// `budget_fraction` is a fraction, not watts.
#[must_use]
pub fn dim_of_name(name: &str) -> Dim {
    let n = name.to_ascii_lowercase();
    let has = |pat: &str| n.contains(pat);
    let suffix = |pat: &str| n.ends_with(pat);
    if has("frac") || has("share") || has("ratio") || has("percent") || suffix("_pct") {
        return Dim::Fraction;
    }
    if has("watt")
        || has("budget")
        || has("power")
        || suffix("_w")
        || n == "w"
        || n == "cap"
        || suffix("_cap")
        || n.starts_with("cap_")
    {
        return Dim::Watts;
    }
    if has("joule") || has("energy") {
        return Dim::Joules;
    }
    if has("freq") || has("hertz") || suffix("_hz") || n == "hz" {
        return Dim::Hertz;
    }
    if has("gflops") || has("perf") || has("throughput") {
        return Dim::Perf;
    }
    if has("bandwidth") || suffix("_gbps") || n == "bw" {
        return Dim::Bandwidth;
    }
    if has("duration") || has("elapsed") || has("seconds") || suffix("_secs") || suffix("_sec")
        || suffix("_s")
    {
        return Dim::Seconds;
    }
    Dim::Unknown
}

/// Dimension of `a + b` / `a - b`. Matching strong dims keep their
/// dimension, and a strong operand beside a weak one lends the result
/// its dimension (`watts + 1.0` is watts). Two weak operands, or two
/// different strong ones, give [`Dim::Unknown`] (mismatches are the
/// `unit-mix` rule's business, not the algebra's).
#[must_use]
pub fn add_sub(a: Dim, b: Dim) -> Dim {
    if a.is_strong() && (a == b || !b.is_strong()) {
        a
    } else if b.is_strong() && !a.is_strong() {
        b
    } else {
        Dim::Unknown
    }
}

/// Dimension of `a * b` under the workspace's unit algebra.
#[must_use]
pub fn mul(a: Dim, b: Dim) -> Dim {
    match (a, b) {
        (Dim::Watts, Dim::Seconds) | (Dim::Seconds, Dim::Watts) => Dim::Joules,
        (Dim::Fraction, Dim::Fraction) => Dim::Fraction,
        (x, Dim::Fraction) | (Dim::Fraction, x) if x.is_strong() => x,
        (x, Dim::Unitless) | (Dim::Unitless, x) => x,
        (Dim::Unknown, _) | (_, Dim::Unknown) => Dim::Unknown,
        _ => Dim::Unknown, // e.g. Watts × Watts — not a modeled quantity
    }
}

/// Dimension of `a / b` under the workspace's unit algebra.
#[must_use]
pub fn div(a: Dim, b: Dim) -> Dim {
    match (a, b) {
        (Dim::Joules, Dim::Seconds) => Dim::Watts,
        (Dim::Joules, Dim::Watts) => Dim::Seconds,
        (x, y) if x == y && x.is_strong() => Dim::Fraction,
        (x, Dim::Fraction) if x.is_strong() => x,
        (x, Dim::Unitless) => x,
        (Dim::Unitless, y) if y.is_strong() => Dim::Unknown, // 1/X: uninverted
        (Dim::Unknown, _) | (_, Dim::Unknown) => Dim::Unknown,
        _ => Dim::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_inference() {
        assert_eq!(dim_of_type("Watts"), Dim::Watts);
        assert_eq!(dim_of_type("& Watts"), Dim::Watts);
        assert_eq!(dim_of_type("Vec < Joules >"), Dim::Joules);
        assert_eq!(dim_of_type("f64"), Dim::Unknown);
        assert_eq!(dim_of_type("usize"), Dim::Unitless);
        assert_eq!(dim_of_type("( Watts , Joules )"), Dim::Unknown);
    }

    #[test]
    fn name_inference() {
        assert_eq!(dim_of_name("budget_w"), Dim::Watts);
        assert_eq!(dim_of_name("budget_fraction"), Dim::Fraction);
        assert_eq!(dim_of_name("power_share"), Dim::Fraction);
        assert_eq!(dim_of_name("cap"), Dim::Watts);
        assert_eq!(dim_of_name("escape"), Dim::Unknown);
        assert_eq!(dim_of_name("freq_hz"), Dim::Hertz);
        assert_eq!(dim_of_name("elapsed_s"), Dim::Seconds);
        assert_eq!(dim_of_name("energy"), Dim::Joules);
        assert_eq!(dim_of_name("perf"), Dim::Perf);
        assert_eq!(dim_of_name("count"), Dim::Unknown);
    }

    #[test]
    fn algebra() {
        assert_eq!(mul(Dim::Watts, Dim::Seconds), Dim::Joules);
        assert_eq!(div(Dim::Joules, Dim::Seconds), Dim::Watts);
        assert_eq!(div(Dim::Joules, Dim::Watts), Dim::Seconds);
        assert_eq!(div(Dim::Watts, Dim::Watts), Dim::Fraction);
        assert_eq!(mul(Dim::Watts, Dim::Fraction), Dim::Watts);
        assert_eq!(div(Dim::Watts, Dim::Fraction), Dim::Watts);
        assert_eq!(add_sub(Dim::Watts, Dim::Watts), Dim::Watts);
        assert_eq!(add_sub(Dim::Watts, Dim::Unitless), Dim::Watts);
        assert_eq!(add_sub(Dim::Watts, Dim::Joules), Dim::Unknown);
    }
}
