//! CPU package specification: the knobs RAPL's PKG-domain capping acts on.
//!
//! The power model is the standard decomposition into leakage and dynamic
//! power:
//!
//! ```text
//! P_pkg(state, duty, activity) =
//!     P_leak · leak_scale(state)
//!   + P_dyn_max · dyn_scale(state) · duty · activity
//! ```
//!
//! where `state` is a P-state, `duty ∈ (0, 1]` is the T-state clock
//! modulation duty cycle, and `activity ∈ [0, 1]` is the workload-dependent
//! switching activity (DGEMM ≈ 1, a stalled memory-bound core much less).
//! `P_dyn_max` is calibrated as the package dynamic power at the nominal
//! P-state with full activity. The floor [`CpuSpec::min_active_power`] is
//! the paper's `P_cpu,L4`: the hardware-determined minimum a package draws
//! while executing (48 W on the IvyBridge node), regardless of any lower
//! cap.

use crate::pstate::{PState, PStateTable};
use pbc_types::Watts;

/// Specification of the aggregated CPU component (all sockets together, per
/// the paper's assumption (b): one power budget evenly distributed over all
/// cores).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"2x Xeon E5-2670v2 (IvyBridge)"`.
    pub name: String,
    /// Number of sockets aggregated into this component.
    pub sockets: u16,
    /// Physical cores per socket (hyperthreading disabled, as in §6.1).
    pub cores_per_socket: u16,
    /// DVFS table shared by all sockets.
    pub pstates: PStateTable,
    /// T-state duty cycles available below the lowest P-state, descending
    /// (e.g. 87.5% down to 12.5% in 1/8 steps for Intel clock modulation).
    pub tstate_duties: Vec<f64>,
    /// Aggregate leakage power at the nominal voltage (all sockets).
    pub leakage_nominal: Watts,
    /// Aggregate dynamic power at the nominal P-state with activity 1.0.
    pub dyn_power_max: Watts,
    /// `P_cpu,L4`: minimum power while actively executing; a lower cap is
    /// physically unreachable and the package consumes this much anyway.
    pub min_active_power: Watts,
    /// Per-core peak compute throughput at the nominal frequency, in
    /// GFLOP/s (double precision, FMA+vector). Used to scale workload
    /// compute demands onto this part.
    pub core_gflops_nominal: f64,
}

impl CpuSpec {
    /// Total number of physical cores.
    pub fn total_cores(&self) -> u32 {
        self.sockets as u32 * self.cores_per_socket as u32
    }

    /// Peak aggregate compute rate at nominal frequency (GFLOP/s).
    pub fn peak_gflops(&self) -> f64 {
        self.total_cores() as f64 * self.core_gflops_nominal
    }

    /// Package power at a P-state with full duty cycle.
    pub fn power_at(&self, state: &PState, activity: f64) -> Watts {
        self.power_at_duty(state, 1.0, activity)
    }

    /// Package power at a P-state and T-state duty cycle. The leakage term
    /// does not scale with duty (the package stays powered); dynamic power
    /// scales with the fraction of unthrottled cycles.
    pub fn power_at_duty(&self, state: &PState, duty: f64, activity: f64) -> Watts {
        let nominal = self.pstates.nominal();
        let leak = self.leakage_nominal * state.leak_scale(nominal);
        let dynamic =
            self.dyn_power_max * state.dyn_scale(nominal) * duty.clamp(0.0, 1.0) * activity.clamp(0.0, 1.0);
        (leak + dynamic).max(self.min_active_power)
    }

    /// `P_cpu,L1` for a workload with the given switching activity: the
    /// package power at the nominal P-state (§5.1).
    pub fn max_power(&self, activity: f64) -> Watts {
        self.power_at(self.pstates.nominal(), activity)
    }

    /// The deepest throttle duty available.
    pub fn min_duty(&self) -> f64 {
        self.tstate_duties.last().copied().unwrap_or(1.0)
    }

    /// Validate internal consistency; used by tests and by `Platform`
    /// constructors.
    #[must_use = "validation reports spec inconsistencies via Err"]
    pub fn validate(&self) -> Result<(), String> {
        if self.sockets == 0 || self.cores_per_socket == 0 {
            return Err("CPU must have at least one socket and core".into());
        }
        if !self.leakage_nominal.is_valid() || !self.dyn_power_max.is_valid() {
            return Err("CPU power parameters must be finite and non-negative".into());
        }
        if self.min_active_power.value() <= 0.0 {
            return Err("minimum active power must be positive".into());
        }
        if self.min_active_power > self.leakage_nominal + self.dyn_power_max {
            return Err("minimum active power exceeds the maximum package power".into());
        }
        let mut last = 1.0;
        for &d in &self.tstate_duties {
            if !(0.0 < d && d < 1.0) {
                return Err(format!("T-state duty {d} outside (0, 1)"));
            }
            if d >= last {
                return Err("T-state duties must be strictly descending".into());
            }
            last = d;
        }
        if self.core_gflops_nominal <= 0.0 {
            return Err("core GFLOP/s must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::Hertz;

    fn spec() -> CpuSpec {
        CpuSpec {
            name: "test 2x10c".into(),
            sockets: 2,
            cores_per_socket: 10,
            pstates: PStateTable::linear(14, Hertz::from_ghz(1.2), 0.80, Hertz::from_ghz(2.5), 1.05),
            tstate_duties: vec![0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125],
            leakage_nominal: Watts::new(40.0),
            dyn_power_max: Watts::new(130.0),
            min_active_power: Watts::new(48.0),
            core_gflops_nominal: 20.0,
        }
    }

    #[test]
    fn validates() {
        assert_eq!(spec().validate(), Ok(()));
    }

    #[test]
    fn totals() {
        assert_eq!(spec().total_cores(), 20);
        assert!((spec().peak_gflops() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn max_power_at_full_activity() {
        // leakage 40 + dyn 130 at nominal, activity 1.
        assert!((spec().max_power(1.0).value() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn power_monotone_in_pstate() {
        let s = spec();
        let mut last = Watts::new(f64::INFINITY);
        for st in s.pstates.states().iter().rev() {
            let p = s.power_at(st, 1.0);
            assert!(p <= last);
            last = p;
        }
    }

    #[test]
    fn power_monotone_in_activity() {
        let s = spec();
        let nominal = *s.pstates.nominal();
        let p_low = s.power_at(&nominal, 0.2);
        let p_high = s.power_at(&nominal, 0.9);
        assert!(p_low < p_high);
    }

    #[test]
    fn duty_scales_dynamic_only() {
        let s = spec();
        let lowest = *s.pstates.lowest();
        let full = s.power_at_duty(&lowest, 1.0, 1.0);
        let half = s.power_at_duty(&lowest, 0.5, 1.0);
        // Leakage at the low state persists; dynamic halves.
        let leak = s.leakage_nominal * lowest.leak_scale(s.pstates.nominal());
        let expected = leak + (full - leak) * 0.5;
        assert!((half.value() - expected.value().max(48.0)).abs() < 1e-9);
    }

    #[test]
    fn floor_at_min_active_power() {
        let s = spec();
        let lowest = *s.pstates.lowest();
        // Deep throttle with near-zero activity still draws the floor.
        let p = s.power_at_duty(&lowest, 0.125, 0.01);
        assert_eq!(p, s.min_active_power);
    }

    #[test]
    fn rejects_bad_duties() {
        let mut s = spec();
        s.tstate_duties = vec![0.5, 0.75];
        assert!(s.validate().is_err());
        s.tstate_duties = vec![1.5];
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_zero_cores() {
        let mut s = spec();
        s.cores_per_socket = 0;
        assert!(s.validate().is_err());
    }
}
