//! Shared error type for the workspace.

use crate::units::Watts;
use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, PbcError>;

/// Errors surfaced by the power-bounded-computing library.
///
/// The taxonomy deliberately mirrors the situations the paper calls out:
/// budgets too small to run productively (COORD's "Warning: budget too
/// small"), allocations outside a component's cappable range, and hardware
/// backends that are absent on the current machine.
#[derive(Debug, Clone, PartialEq)]
pub enum PbcError {
    /// The total budget is below the productive threshold
    /// `P_cpu,L2 + P_mem,L2` — COORD refuses to schedule the job (§5.1).
    BudgetTooSmall {
        /// The budget that was requested.
        requested: Watts,
        /// The minimum productive budget for this workload/platform.
        minimum: Watts,
    },
    /// A cap was requested outside the component's cappable range.
    CapOutOfRange {
        /// Human-readable component name.
        component: String,
        /// The requested cap.
        requested: Watts,
        /// Lowest cap the component accepts.
        min: Watts,
        /// Highest cap the component accepts.
        max: Watts,
    },
    /// A hardware backend (e.g. sysfs RAPL) is not available on this
    /// machine.
    BackendUnavailable(String),
    /// An I/O error from a hardware backend, flattened to a string so the
    /// error type stays `Clone + PartialEq`.
    Io(String),
    /// Input data was malformed (e.g. an empty profile handed to the
    /// scenario classifier).
    InvalidInput(String),
    /// A named platform, workload, or experiment was not found.
    NotFound(String),
}

impl PbcError {
    /// True for errors that mean "this allocation/budget is not
    /// schedulable" rather than "something actually failed".
    ///
    /// Exhaustive search code (the oracle sweep) skips infeasible
    /// allocations — they are an expected part of probing the boundary
    /// of the feasible region — but must *fail* on any other variant:
    /// treating an I/O error or a malformed input as "infeasible"
    /// silently biases the profile, which is exactly the data-loss bug
    /// the sweep once shipped.
    #[must_use]
    pub fn is_infeasible(&self) -> bool {
        matches!(self, PbcError::BudgetTooSmall { .. } | PbcError::CapOutOfRange { .. })
    }
}

impl fmt::Display for PbcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PbcError::BudgetTooSmall { requested, minimum } => write!(
                f,
                "power budget too small: {requested} requested but at least {minimum} \
                 is needed to operate productively"
            ),
            PbcError::CapOutOfRange {
                component,
                requested,
                min,
                max,
            } => write!(
                f,
                "cap {requested} on {component} is outside the cappable range [{min}, {max}]"
            ),
            PbcError::BackendUnavailable(what) => write!(f, "backend unavailable: {what}"),
            PbcError::Io(msg) => write!(f, "I/O error: {msg}"),
            PbcError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            PbcError::NotFound(what) => write!(f, "not found: {what}"),
        }
    }
}

impl std::error::Error for PbcError {}

impl From<std::io::Error> for PbcError {
    fn from(e: std::io::Error) -> Self {
        PbcError::Io(e.to_string())
    }
}

/// The one budget gate: `w` must be a finite wattage above zero.
/// Anything else is [`PbcError::InvalidInput`] naming `label` and the
/// value, instead of a run that computes with it.
#[must_use = "the checked budget carries either the wattage or the refusal"]
pub fn check_budget(label: &str, w: f64) -> Result<Watts> {
    if !w.is_finite() {
        return Err(PbcError::InvalidInput(format!("{label} {w:?} is not a finite wattage")));
    }
    if w <= 0.0 {
        return Err(PbcError::InvalidInput(format!("{label} {w} W is not positive")));
    }
    Ok(Watts::new(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_quantities() {
        let e = PbcError::BudgetTooSmall {
            requested: Watts::new(60.0),
            minimum: Watts::new(96.0),
        };
        let msg = e.to_string();
        assert!(msg.contains("60.00 W"));
        assert!(msg.contains("96.00 W"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied");
        let e: PbcError = io.into();
        assert!(matches!(e, PbcError::Io(_)));
        assert!(e.to_string().contains("denied"));
    }

    #[test]
    fn infeasibility_partitions_the_taxonomy() {
        let infeasible = [
            PbcError::BudgetTooSmall {
                requested: Watts::new(60.0),
                minimum: Watts::new(96.0),
            },
            PbcError::CapOutOfRange {
                component: "gpu".into(),
                requested: Watts::new(80.0),
                min: Watts::new(100.0),
                max: Watts::new(235.0),
            },
        ];
        for e in &infeasible {
            assert!(e.is_infeasible(), "{e}");
        }
        let real = [
            PbcError::BackendUnavailable("rapl".into()),
            PbcError::Io("read failed".into()),
            PbcError::InvalidInput("empty profile".into()),
            PbcError::NotFound("platform x".into()),
        ];
        for e in &real {
            assert!(!e.is_infeasible(), "{e}");
        }
    }

    #[test]
    fn budget_gate_refuses_non_finite_and_non_positive_wattages() {
        assert_eq!(check_budget("budget", 208.0), Ok(Watts::new(208.0)));
        let refusals = [
            (f64::NAN, "budget NaN is not a finite wattage"),
            (f64::NEG_INFINITY, "budget -inf is not a finite wattage"),
            (0.0, "budget 0 W is not positive"),
            (-0.5, "budget -0.5 W is not positive"),
        ];
        for (w, msg) in refusals {
            assert_eq!(check_budget("budget", w), Err(PbcError::InvalidInput(msg.into())));
        }
    }

    #[test]
    fn errors_are_comparable() {
        let a = PbcError::BackendUnavailable("rapl".into());
        let b = PbcError::BackendUnavailable("rapl".into());
        assert_eq!(a, b);
    }
}
