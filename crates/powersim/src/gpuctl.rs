//! A dynamic GPU card-level capper: the boost governor.
//!
//! The memory clock level is pinned by the user's frequency offset (i.e.
//! the memory power allocation); the governor then moves the SM clock one
//! step per control period to keep the windowed *total* card power under
//! the card cap. Surplus left by the memory domain is therefore reclaimed
//! for SM boost automatically — the §4 behaviour the paper contrasts with
//! RAPL's independent domains.

use crate::rapl::{PowerWindow, UPSTEP_MARGIN};
use pbc_platform::GpuSpec;
use pbc_types::{PbcError, Result, Watts};

/// Windowed card-power governor.
#[derive(Debug, Clone)]
pub struct GpuCapper {
    card_cap: Watts,
    mem_level: usize,
    sm_clock: usize,
    window: PowerWindow,
}

impl GpuCapper {
    /// Create a governor for `card_cap` with the memory clock pinned at
    /// `mem_level`. Rejects caps outside the card's settable range
    /// (below the minimum is an error; above the maximum clamps, like
    /// `nvidia-smi`).
    #[must_use = "constructing a governor has no effect until it is driven"]
    pub fn new(gpu: &GpuSpec, card_cap: Watts, mem_level: usize, window: usize) -> Result<Self> {
        if card_cap < gpu.min_card_cap {
            return Err(PbcError::CapOutOfRange {
                component: gpu.name.clone(),
                requested: card_cap,
                min: gpu.min_card_cap,
                max: gpu.max_card_cap,
            });
        }
        Ok(Self {
            card_cap: card_cap.min(gpu.max_card_cap),
            mem_level: mem_level.min(gpu.mem.top()),
            sm_clock: gpu.sm.top(),
            window: PowerWindow::new(window),
        })
    }

    /// Current SM clock index.
    pub fn sm_clock(&self) -> usize {
        self.sm_clock
    }

    /// Feed one total-power sample and take at most one SM clock step.
    /// Returns the new SM clock index.
    pub fn observe_and_step(&mut self, gpu: &GpuSpec, total_power: Watts) -> usize {
        let avg = self.window.push(total_power);
        if avg > self.card_cap {
            // Clock down, but never below the lowest exposed clock — the
            // driver guard that keeps GPUs out of categories IV-VI.
            self.sm_clock = self.sm_clock.saturating_sub(1);
        } else if avg < self.card_cap * UPSTEP_MARGIN && self.sm_clock < gpu.sm.top() {
            // Predict the next clock's draw by scaling the SM share of the
            // measurement with the state power ratio.
            let cur = gpu.sm.power_at(self.sm_clock, 1.0).value();
            let next = gpu.sm.power_at(self.sm_clock + 1, 1.0).value();
            let mem_floor = gpu.mem.power_at(self.mem_level, pbc_types::Bandwidth::ZERO);
            let sm_share = (total_power - mem_floor).max(Watts::ZERO);
            let predicted = mem_floor + Watts::new(sm_share.value() * next / cur.max(1e-9));
            if predicted <= self.card_cap {
                self.sm_clock += 1;
            }
        }
        self.sm_clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::titan_xp;
    use pbc_types::Bandwidth;

    fn gpu() -> GpuSpec {
        titan_xp().gpu().unwrap().clone()
    }

    #[test]
    fn rejects_sub_minimum_caps() {
        let g = gpu();
        assert!(GpuCapper::new(&g, Watts::new(80.0), 5, 4).is_err());
    }

    #[test]
    fn clamps_oversized_caps() {
        let g = gpu();
        let c = GpuCapper::new(&g, Watts::new(500.0), 5, 4).unwrap();
        assert_eq!(c.card_cap, g.max_card_cap);
    }

    #[test]
    fn clocks_down_under_sustained_overdraw() {
        let g = gpu();
        let mut c = GpuCapper::new(&g, Watts::new(150.0), g.mem.top(), 1).unwrap();
        let top = c.sm_clock();
        for _ in 0..4 {
            c.observe_and_step(&g, Watts::new(260.0));
        }
        assert!(c.sm_clock() < top);
    }

    #[test]
    fn never_clocks_below_floor() {
        let g = gpu();
        let mut c = GpuCapper::new(&g, Watts::new(125.0), g.mem.top(), 1).unwrap();
        for _ in 0..(g.sm.len() + 5) {
            c.observe_and_step(&g, Watts::new(400.0));
        }
        assert_eq!(c.sm_clock(), 0);
    }

    #[test]
    fn closed_loop_settles_under_cap() {
        let g = gpu();
        let cap = Watts::new(180.0);
        let mem_level = 4;
        let mut c = GpuCapper::new(&g, cap, mem_level, 3).unwrap();
        // Closed loop: a compute-heavy kernel draws SM power at activity
        // 0.95 plus a modest memory draw.
        let mut total = Watts::ZERO;
        for _ in 0..100 {
            let sm = g.sm.power_at(c.sm_clock(), 0.95);
            let mem = g.mem.power_at(mem_level, Bandwidth::new(100.0));
            total = sm + mem;
            c.observe_and_step(&g, total);
        }
        assert!(total <= cap + Watts::new(1e-9), "settled at {total}");
        // Reclamation sanity: with a lower memory level the governor can
        // afford a higher SM clock under the same cap.
        let mut c_low = GpuCapper::new(&g, cap, 0, 3).unwrap();
        for _ in 0..100 {
            let sm = g.sm.power_at(c_low.sm_clock(), 0.95);
            let mem = g.mem.power_at(0, Bandwidth::new(100.0));
            c_low.observe_and_step(&g, sm + mem);
        }
        assert!(c_low.sm_clock() >= c.sm_clock());
    }
}
