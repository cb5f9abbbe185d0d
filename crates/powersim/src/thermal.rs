//! A first-order RC thermal model with leakage feedback.
//!
//! The paper's motivation (§1) includes thermal limits: "cooling devices
//! and facilities ... set the ceiling of permissible power density". For
//! the discrete-time engine we model die temperature as a single thermal
//! RC node driven by dissipated power, and feed temperature back into
//! leakage (leakage current grows roughly linearly with temperature over
//! the operating range — the small positive feedback that makes sustained
//! power capping slightly harder at high ambient).

use pbc_types::{Seconds, Watts};

/// Parameters of the RC node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Ambient temperature in °C.
    pub ambient_c: f64,
    /// Thermal resistance junction→ambient, °C per watt.
    pub resistance_c_per_w: f64,
    /// Thermal time constant, seconds.
    pub time_constant: Seconds,
    /// Leakage increase per °C above the reference temperature
    /// (fractional, e.g. 0.002 = +0.2 %/°C).
    pub leakage_per_c: f64,
    /// Temperature at which the spec's nominal leakage was calibrated.
    pub reference_c: f64,
    /// Thermal throttle trip point, °C (e.g. PROCHOT).
    pub trip_c: f64,
}

impl ThermalParams {
    /// A typical air-cooled server package.
    pub fn server_default() -> Self {
        Self {
            ambient_c: 25.0,
            resistance_c_per_w: 0.25,
            time_constant: Seconds::new(8.0),
            leakage_per_c: 0.004,
            reference_c: 60.0,
            trip_c: 95.0,
        }
    }
}

/// State of the thermal node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    params: ThermalParams,
    temperature_c: f64,
}

impl ThermalModel {
    /// Start at ambient.
    pub fn new(params: ThermalParams) -> Self {
        Self {
            temperature_c: params.ambient_c,
            params,
        }
    }

    /// Current junction temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Steady-state temperature for a sustained power.
    pub fn steady_state_c(&self, power: Watts) -> f64 {
        self.params.ambient_c + self.params.resistance_c_per_w * power.value()
    }

    /// Advance the node by `dt` under dissipation `power` (explicit Euler,
    /// stable for `dt ≪ time_constant`).
    pub fn step(&mut self, power: Watts, dt: Seconds) {
        let target = self.steady_state_c(power);
        let tau = self.params.time_constant.value().max(1e-9);
        let alpha = (dt.value() / tau).min(1.0);
        self.temperature_c += alpha * (target - self.temperature_c);
    }

    /// Multiplier to apply to the spec's nominal leakage at the current
    /// temperature (1.0 at the reference temperature; never below 0.5).
    pub fn leakage_multiplier(&self) -> f64 {
        (1.0 + self.params.leakage_per_c * (self.temperature_c - self.params.reference_c)).max(0.5)
    }

    /// Is the junction at or above the thermal trip point?
    pub fn tripped(&self) -> bool {
        self.temperature_c >= self.params.trip_c
    }

    /// The configured trip point, °C.
    pub fn trip_c(&self) -> f64 {
        self.params.trip_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warms_toward_steady_state() {
        let mut m = ThermalModel::new(ThermalParams::server_default());
        let p = Watts::new(160.0);
        let target = m.steady_state_c(p); // 25 + 0.25*160 = 65 °C
        assert!((target - 65.0).abs() < 1e-9);
        for _ in 0..1000 {
            m.step(p, Seconds::new(0.1));
        }
        assert!((m.temperature_c() - target).abs() < 0.5);
    }

    #[test]
    fn cools_when_power_drops() {
        let mut m = ThermalModel::new(ThermalParams::server_default());
        for _ in 0..1000 {
            m.step(Watts::new(200.0), Seconds::new(0.1));
        }
        let hot = m.temperature_c();
        for _ in 0..1000 {
            m.step(Watts::new(48.0), Seconds::new(0.1));
        }
        assert!(m.temperature_c() < hot);
        assert!((m.temperature_c() - m.steady_state_c(Watts::new(48.0))).abs() < 0.5);
    }

    #[test]
    fn leakage_feedback_sign() {
        let mut m = ThermalModel::new(ThermalParams::server_default());
        // At ambient (25°C, below the 60°C reference) leakage is reduced.
        assert!(m.leakage_multiplier() < 1.0);
        for _ in 0..2000 {
            m.step(Watts::new(220.0), Seconds::new(0.1));
        }
        // Hot die leaks more.
        assert!(m.leakage_multiplier() > 1.0);
    }

    #[test]
    fn trip_point() {
        let mut m = ThermalModel::new(ThermalParams {
            trip_c: 80.0,
            ..ThermalParams::server_default()
        });
        assert!(!m.tripped());
        for _ in 0..2000 {
            m.step(Watts::new(300.0), Seconds::new(0.1));
        }
        // 25 + 0.25*300 = 100 °C > 80 °C trip.
        assert!(m.tripped());
    }

    #[test]
    fn big_dt_is_stable() {
        let mut m = ThermalModel::new(ThermalParams::server_default());
        // dt larger than tau clamps alpha at 1 — jumps straight to target,
        // never overshoots or oscillates.
        m.step(Watts::new(160.0), Seconds::new(100.0));
        assert!((m.temperature_c() - 65.0).abs() < 1e-9);
        m.step(Watts::new(160.0), Seconds::new(100.0));
        assert!((m.temperature_c() - 65.0).abs() < 1e-9);
    }
}
