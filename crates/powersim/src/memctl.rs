//! A dynamic RAPL DRAM-domain controller: bandwidth throttling.
//!
//! RAPL limits DRAM power by inserting idle cycles between memory
//! requests, reducing the sustainable bandwidth in discrete steps (§3.3:
//! "DRAM bandwidth throttling reduces memory power proportionally").
//! [`DramThrottle`] is the windowed controller that walks those steps in
//! the discrete-time engine; the steady-state equivalent is
//! [`pbc_platform::DramSpec::bandwidth_under_cap`].

use crate::rapl::{PowerWindow, UPSTEP_MARGIN};
use pbc_platform::DramSpec;
use pbc_types::{Bandwidth, Watts};

/// Windowed running-average controller for the DRAM domain.
#[derive(Debug, Clone)]
pub struct DramThrottle {
    cap: Watts,
    window: PowerWindow,
    /// Current throttle level: `0..=levels`, where `levels` means
    /// unthrottled and `1` is the deepest usable level (one step of
    /// bandwidth). Level 0 never occurs — the system always progresses.
    level: u32,
}

impl DramThrottle {
    /// Create a controller for `cap`, starting unthrottled.
    pub fn new(dram: &DramSpec, cap: Watts, window: usize) -> Self {
        Self {
            cap,
            window: PowerWindow::new(window),
            level: dram.throttle_levels,
        }
    }

    /// Change the limit at runtime.
    pub fn set_cap(&mut self, cap: Watts) {
        self.cap = cap;
    }

    /// Bandwidth ceiling the current level allows.
    pub fn allowed_bandwidth(&self, dram: &DramSpec) -> Bandwidth {
        dram.max_bandwidth * (self.level as f64 / dram.throttle_levels as f64)
    }

    /// Feed one power sample and take at most one throttle step. Returns
    /// the new bandwidth ceiling.
    pub fn observe_and_step(&mut self, dram: &DramSpec, measured: Watts) -> Bandwidth {
        let avg = self.window.push(measured);
        if avg > self.cap && self.level > 1 {
            self.level -= 1;
        } else if avg < self.cap * UPSTEP_MARGIN && self.level < dram.throttle_levels {
            // Predict the next level's worst-case power before climbing.
            let next_bw = dram.max_bandwidth * ((self.level + 1) as f64 / dram.throttle_levels as f64);
            // Use streaming cost for the prediction; the controller cannot
            // know the pattern, which is exactly why real RAPL is
            // conservative near the cap.
            if dram.power_at(next_bw, 1.0) <= self.cap {
                self.level += 1;
            }
        }
        self.allowed_bandwidth(dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::ivybridge;

    fn dram() -> DramSpec {
        ivybridge().dram().unwrap().clone()
    }

    #[test]
    fn starts_unthrottled() {
        let d = dram();
        let t = DramThrottle::new(&d, Watts::new(80.0), 5);
        assert_eq!(t.level, d.throttle_levels);
        assert_eq!(t.allowed_bandwidth(&d), d.max_bandwidth);
    }

    #[test]
    fn throttles_under_sustained_overdraw() {
        let d = dram();
        let mut t = DramThrottle::new(&d, Watts::new(60.0), 1);
        for _ in 0..10 {
            t.observe_and_step(&d, Watts::new(100.0));
        }
        assert!(t.level < d.throttle_levels);
        assert!(t.allowed_bandwidth(&d) < d.max_bandwidth);
    }

    #[test]
    fn never_throttles_below_one_step() {
        let d = dram();
        let mut t = DramThrottle::new(&d, Watts::new(10.0), 1);
        for _ in 0..(d.throttle_levels + 10) {
            t.observe_and_step(&d, Watts::new(200.0));
        }
        assert_eq!(t.level, 1, "must keep one step of bandwidth");
        assert!(t.allowed_bandwidth(&d).value() > 0.0);
    }

    #[test]
    fn climbs_back_when_capped_traffic_subsides() {
        let d = dram();
        let cap = Watts::new(90.0);
        let mut t = DramThrottle::new(&d, cap, 1);
        for _ in 0..12 {
            t.observe_and_step(&d, Watts::new(120.0));
        }
        let low = t.level;
        assert!(low < d.throttle_levels);
        for _ in 0..64 {
            t.observe_and_step(&d, Watts::new(50.0));
        }
        assert!(t.level > low);
        // The climb stops where the worst-case next level would break the cap.
        let next_bw = d.max_bandwidth * ((t.level + 1).min(d.throttle_levels) as f64 / d.throttle_levels as f64);
        if t.level < d.throttle_levels {
            assert!(d.power_at(next_bw, 1.0) > cap);
        }
    }

    #[test]
    fn closed_loop_power_settles_under_cap() {
        let d = dram();
        let cap = Watts::new(70.0);
        let mut t = DramThrottle::new(&d, cap, 4);
        // Closed loop: the workload always saturates whatever is allowed.
        let mut last_power = Watts::ZERO;
        for _ in 0..200 {
            let bw = t.allowed_bandwidth(&d);
            last_power = d.power_at(bw, 1.0);
            t.observe_and_step(&d, last_power);
        }
        assert!(last_power <= cap + Watts::new(1e-9), "settled at {last_power}");
        // And not absurdly far under: within two steps of the cap.
        let step_w = d.max_bandwidth.value() / d.throttle_levels as f64 * d.transfer_w_per_gbps;
        assert!(last_power.value() >= cap.value() - 2.5 * step_w);
    }
}
