//! Physical unit newtypes.
//!
//! All units wrap `f64` and implement only dimensionally meaningful
//! arithmetic. Construction is via `Watts::new(..)` or the `From<f64>`
//! conversions; the raw value is read back with `.value()` (or `.0` inside
//! the workspace).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Default tolerance for float comparisons on physical quantities.
///
/// Power arithmetic in this workspace chains many multiply/accumulate
/// steps (phase weighting, per-socket shares, budget subtraction), so
/// exact `==` on the results is a classification hazard: two watt
/// values that are "the same" for every physical purpose can differ in
/// the last few ulps. Everything that needs equality goes through
/// [`approx_eq`] / [`is_zero`] with this tolerance instead.
pub const EPSILON: f64 = 1e-9;

/// True when `a` and `b` are equal within [`EPSILON`], absolutely for
/// small values and relative to the larger magnitude for large ones.
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPSILON || diff <= EPSILON * a.abs().max(b.abs())
}

/// True when `v` is within [`EPSILON`] of zero.
#[inline]
#[must_use]
pub fn is_zero(v: f64) -> bool {
    v.abs() <= EPSILON
}

/// The cap-write quantum of the enforcement layer, in watts.
///
/// RAPL powercap limits are written as *integer microwatts*
/// (`crates/rapl` rounds `watts * 1e6` before writing
/// `constraint_0_power_limit_uw`), so any cap read back from hardware
/// can differ from the cap that was requested by up to half a
/// microwatt. Tolerances that compare a requested cap against an
/// enforced/observed one must be at least this wide, or every rounded
/// cap looks "stale".
pub const CAP_QUANTUM: f64 = 1e-6;

macro_rules! checked_from_f64 {
    ($(#[$meta:meta])* $fn_name:ident, $int:ty) => {
        $(#[$meta])*
        ///
        /// Returns `None` when the value is non-finite, negative, or too
        /// large for the target type; otherwise rounds to nearest. Use
        /// this instead of a bare `as` cast, which silently saturates
        /// (and truncates) on exactly the inputs that indicate a bug.
        #[inline]
        #[must_use]
        pub fn $fn_name(v: f64) -> Option<$int> {
            if !v.is_finite() || v < 0.0 {
                return None;
            }
            let rounded = v.round();
            if rounded > <$int>::MAX as f64 {
                return None;
            }
            let out = rounded as $int;
            Some(out)
        }
    };
}

checked_from_f64!(
    /// Checked `f64` → `usize` conversion (e.g. step counts derived from
    /// `duration / dt`).
    usize_from_f64,
    usize
);
checked_from_f64!(
    /// Checked `f64` → `u64` conversion (e.g. batch sizes derived from
    /// timing ratios).
    u64_from_f64,
    u64
);
checked_from_f64!(
    /// Checked `f64` → `u32` conversion (e.g. percentages for labels).
    u32_from_f64,
    u32
);
checked_from_f64!(
    /// Checked `f64` → `u16` conversion (e.g. core counts from
    /// fractional partitions).
    u16_from_f64,
    u16
);

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wrap a raw `f64` value.
            #[inline]
            pub const fn new(v: f64) -> Self {
                Self(v)
            }

            /// Raw numeric value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamp into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// True when the value is finite and non-negative — the sanity
            /// requirement for every physical quantity in this workspace.
            #[inline]
            pub fn is_valid(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }

            /// Linear interpolation: `self + t * (other - self)`.
            #[inline]
            pub fn lerp(self, other: Self, t: f64) -> Self {
                Self(self.0 + t * (other.0 - self.0))
            }

            /// Equality within [`EPSILON`] (see [`approx_eq`]). Use this
            /// instead of `==` whenever either side was computed.
            #[inline]
            #[must_use]
            pub fn approx_eq(self, other: Self) -> bool {
                approx_eq(self.0, other.0)
            }

            /// True when the value is within [`EPSILON`] of zero.
            #[inline]
            #[must_use]
            pub fn is_zero(self) -> bool {
                is_zero(self.0)
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(v: f64) -> Self {
                Self(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{:.2} {}", self.0, $suffix)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two like quantities.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }
    };
}

unit!(
    /// Electrical power in watts. The currency of this entire workspace.
    Watts,
    "W"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Frequency in hertz. Clock frequencies are typically expressed via
    /// [`Hertz::from_mhz`] / [`Hertz::from_ghz`].
    Hertz,
    "Hz"
);
unit!(
    /// Memory bandwidth in gigabytes per second (GB/s, base-10 giga).
    Bandwidth,
    "GB/s"
);
unit!(
    /// Compute rate in giga floating-point operations per second.
    Gflops,
    "GFLOP/s"
);

impl Hertz {
    /// Construct from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1.0e6)
    }

    /// Construct from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1.0e9)
    }
}

/// `W * s = J`
impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// `s * W = J`
impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// `J / s = W`
impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

/// `J / W = s`
impl Div<Watts> for Joules {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic() {
        let a = Watts::new(100.0);
        let b = Watts::new(40.0);
        assert_eq!((a + b).value(), 140.0);
        assert_eq!((a - b).value(), 60.0);
        assert_eq!((a * 2.0).value(), 200.0);
        assert_eq!((2.0 * a).value(), 200.0);
        assert_eq!((a / 4.0).value(), 25.0);
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn energy_relations() {
        let p = Watts::new(50.0);
        let t = Seconds::new(4.0);
        let e = p * t;
        assert_eq!(e.value(), 200.0);
        assert_eq!((e / t).value(), 50.0);
        assert_eq!((e / p).value(), 4.0);
        assert_eq!((t * p).value(), 200.0);
    }

    #[test]
    fn hertz_conversions() {
        let f = Hertz::from_ghz(2.5);
        assert_eq!(f.value(), 2.5e9);
        assert_eq!(Hertz::from_mhz(1600.0).value(), 1.6e9);
    }

    #[test]
    fn min_max_clamp() {
        let a = Watts::new(10.0);
        let b = Watts::new(20.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Watts::new(25.0).clamp(a, b), b);
        assert_eq!(Watts::new(5.0).clamp(a, b), a);
        assert_eq!(Watts::new(15.0).clamp(a, b).value(), 15.0);
    }

    #[test]
    fn validity() {
        assert!(Watts::new(0.0).is_valid());
        assert!(Watts::new(300.0).is_valid());
        assert!(!Watts::new(-1.0).is_valid());
        assert!(!Watts::new(f64::NAN).is_valid());
        assert!(!Watts::new(f64::INFINITY).is_valid());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Watts::new(48.0);
        let b = Watts::new(112.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5).value(), 80.0);
    }

    #[test]
    fn approx_eq_tolerates_accumulated_error() {
        // 0.1 summed ten times is not exactly 1.0 in binary floating point.
        let sum: f64 = (0..10).map(|_| 0.1).sum();
        assert_ne!(sum, 1.0);
        assert!(approx_eq(sum, 1.0));
        assert!(Watts::new(sum).approx_eq(Watts::new(1.0)));
        // Relative tolerance: large values a few ulps apart compare equal.
        let big = 1.0e12;
        assert!(approx_eq(big, big * (1.0 + 1e-12)));
        // But genuinely different values do not.
        assert!(!approx_eq(1.0, 1.001));
        assert!(!Watts::new(100.0).approx_eq(Watts::new(100.1)));
    }

    #[test]
    fn is_zero_catches_residuals() {
        let residual = (0.1 + 0.2) - 0.3; // ~5.6e-17, not exactly 0.0
        assert_ne!(residual, 0.0);
        assert!(is_zero(residual));
        assert!(Watts::new(residual).is_zero());
        assert!(Watts::ZERO.is_zero());
        assert!(!Watts::new(0.5).is_zero());
        assert!(!is_zero(1e-6));
    }

    #[test]
    fn sum_iterator() {
        let total: Watts = [10.0, 20.0, 30.0].iter().map(|&w| Watts::new(w)).sum();
        assert_eq!(total.value(), 60.0);
    }

    #[test]
    fn checked_conversions_round_to_nearest() {
        assert_eq!(usize_from_f64(2.4), Some(2));
        assert_eq!(usize_from_f64(2.5), Some(3));
        assert_eq!(u64_from_f64(0.0), Some(0));
        assert_eq!(u32_from_f64(99.6), Some(100));
        assert_eq!(u16_from_f64(7.49), Some(7));
    }

    #[test]
    fn checked_conversions_reject_invalid_inputs() {
        assert_eq!(usize_from_f64(-0.6), None);
        assert_eq!(usize_from_f64(f64::NAN), None);
        assert_eq!(usize_from_f64(f64::INFINITY), None);
        assert_eq!(u16_from_f64(70000.0), None);
        assert_eq!(u32_from_f64(5.0e12), None);
        assert_eq!(u64_from_f64(1.0e300), None);
        // Negative-but-rounds-to-zero still rejects: a negative step
        // count or core count is a bug, not a zero.
        assert_eq!(u16_from_f64(-0.4), None);
        // But exact zero and tiny positives are fine.
        assert_eq!(u16_from_f64(0.4), Some(0));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{}", Watts::new(112.5)), "112.50 W");
        assert_eq!(format!("{:.1}", Bandwidth::new(9.95)), "9.9 GB/s".to_string());
        assert_eq!(format!("{:.0}", Seconds::new(3.2)), "3 s");
    }
}
