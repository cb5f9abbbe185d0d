//! A dynamic RAPL PKG-domain controller.
//!
//! Real RAPL enforces a *running average* power limit: the PCU samples
//! energy, maintains an average over the configured time window, and walks
//! the P-state/T-state ladder to keep that average under the limit
//! ([Intel SDM Vol. 3B]; §3.3 of the paper). [`RaplController`] reproduces
//! that control loop for the discrete-time engine: one ladder step per
//! control period, downward when the windowed average is over the cap,
//! upward (with hysteresis) when there is headroom.
//!
//! The steady-state solver in [`crate::cpunode`] computes where this loop
//! settles; the engine tests assert they agree.

use pbc_platform::CpuSpec;
use pbc_types::Watts;
use std::collections::VecDeque;

/// Current position on the RAPL escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderPosition {
    /// P-state index (0 = lowest frequency).
    pub pstate: usize,
    /// Index into the T-state duty table, or `None` when unthrottled.
    pub tstate: Option<usize>,
}

impl LadderPosition {
    /// Duty cycle at this position.
    pub fn duty(&self, cpu: &CpuSpec) -> f64 {
        match self.tstate {
            Some(i) => cpu.tstate_duties.get(i).copied().unwrap_or(1.0),
            None => 1.0,
        }
    }
}

/// Fraction of the cap below which every capping controller here (PKG,
/// DRAM and the GPU governor) tries stepping back up: hysteresis to
/// avoid limit cycles.
pub(crate) const UPSTEP_MARGIN: f64 = 0.97;

/// The running average of the last `len` power samples that every
/// capping controller here acts on.
#[derive(Debug, Clone)]
pub(crate) struct PowerWindow {
    len: usize,
    samples: VecDeque<f64>,
}

impl PowerWindow {
    /// An empty window over `len` samples (at least one).
    pub(crate) fn new(len: usize) -> Self {
        let len = len.max(1);
        Self { len, samples: VecDeque::with_capacity(len) }
    }

    /// The average of the samples held (0 before any sample).
    pub(crate) fn average(&self) -> Watts {
        if self.samples.is_empty() {
            Watts::ZERO
        } else {
            Watts::new(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Add one sample, dropping the oldest once the window is full, and
    /// return the new average.
    pub(crate) fn push(&mut self, sample: Watts) -> Watts {
        if self.samples.len() == self.len {
            self.samples.pop_front();
        }
        self.samples.push_back(sample.value());
        self.average()
    }
}

/// Windowed running-average power-limit controller for the PKG domain.
#[derive(Debug, Clone)]
pub struct RaplController {
    cap: Watts,
    window: PowerWindow,
    position: LadderPosition,
}

impl RaplController {
    /// Create a controller for `cap` with a running average over `window`
    /// samples, starting at the nominal P-state.
    pub fn new(cpu: &CpuSpec, cap: Watts, window: usize) -> Self {
        Self {
            cap,
            window: PowerWindow::new(window),
            position: LadderPosition {
                pstate: cpu.pstates.len() - 1,
                tstate: None,
            },
        }
    }

    /// The configured power limit.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Change the limit at runtime (power re-budgeting).
    pub fn set_cap(&mut self, cap: Watts) {
        self.cap = cap;
    }

    /// Current ladder position.
    pub fn position(&self) -> LadderPosition {
        self.position
    }

    /// Feed one power sample and take at most one ladder step. Returns the
    /// new position.
    pub fn observe_and_step(&mut self, cpu: &CpuSpec, measured: Watts) -> LadderPosition {
        let avg = self.window.push(measured);

        if avg > self.cap {
            self.step_down(cpu);
        } else if avg < self.cap * UPSTEP_MARGIN {
            // Only climb if the *instantaneous* draw also has headroom —
            // the PCU predicts the next state's power before committing.
            self.step_up(cpu, measured);
        }
        self.position
    }

    /// One step down the ladder: lower P-state first, then deeper T-state.
    fn step_down(&mut self, cpu: &CpuSpec) {
        if self.position.pstate > 0 {
            self.position.pstate -= 1;
        } else {
            let next = match self.position.tstate {
                None => 0,
                Some(i) => (i + 1).min(cpu.tstate_duties.len().saturating_sub(1)),
            };
            if !cpu.tstate_duties.is_empty() {
                self.position.tstate = Some(next);
            }
        }
    }

    /// One step up the ladder: lighter T-state first, then higher P-state.
    /// Climbing is conservative: it requires the measured draw scaled to
    /// the candidate state to still fit under the cap.
    fn step_up(&mut self, cpu: &CpuSpec, measured: Watts) {
        let candidate = match self.position.tstate {
            Some(0) => LadderPosition {
                pstate: self.position.pstate,
                tstate: None,
            },
            Some(i) => LadderPosition {
                pstate: self.position.pstate,
                tstate: Some(i - 1),
            },
            None => {
                if self.position.pstate + 1 < cpu.pstates.len() {
                    LadderPosition {
                        pstate: self.position.pstate + 1,
                        tstate: None,
                    }
                } else {
                    return; // already at the top
                }
            }
        };
        // Predict the candidate's draw by scaling the measurement with the
        // state power ratio at full activity (a conservative estimate).
        let cur = state_power_scale(cpu, self.position);
        let next = state_power_scale(cpu, candidate);
        let predicted = if cur > 0.0 {
            Watts::new(measured.value() * next / cur)
        } else {
            measured
        };
        if predicted <= self.cap {
            self.position = candidate;
        }
    }
}

/// Relative full-activity power of a ladder position (used for upward
/// prediction).
fn state_power_scale(cpu: &CpuSpec, pos: LadderPosition) -> f64 {
    let st = cpu.pstates.get(pos.pstate).unwrap_or_else(|| cpu.pstates.nominal());
    cpu.power_at_duty(st, pos.duty(cpu), 1.0).value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::ivybridge;

    fn cpu() -> CpuSpec {
        ivybridge().cpu().unwrap().clone()
    }

    #[test]
    fn starts_at_nominal() {
        let c = cpu();
        let r = RaplController::new(&c, Watts::new(120.0), 10);
        assert_eq!(r.position().pstate, c.pstates.len() - 1);
        assert_eq!(r.position().tstate, None);
        assert_eq!(r.window.average(), Watts::ZERO);
    }

    #[test]
    fn steps_down_when_over_cap() {
        let c = cpu();
        let mut r = RaplController::new(&c, Watts::new(100.0), 4);
        let before = r.position().pstate;
        r.observe_and_step(&c, Watts::new(160.0));
        assert_eq!(r.position().pstate, before - 1);
    }

    #[test]
    fn escalates_to_tstates_below_lowest_pstate() {
        let c = cpu();
        let mut r = RaplController::new(&c, Watts::new(50.0), 1);
        // Hammer it with over-cap samples until it bottoms out.
        for _ in 0..(c.pstates.len() + c.tstate_duties.len() + 2) {
            r.observe_and_step(&c, Watts::new(150.0));
        }
        assert_eq!(r.position().pstate, 0);
        assert_eq!(r.position().tstate, Some(c.tstate_duties.len() - 1));
        assert!((r.position().duty(&c) - c.min_duty()).abs() < 1e-12);
    }

    #[test]
    fn climbs_back_with_headroom() {
        let c = cpu();
        let mut r = RaplController::new(&c, Watts::new(160.0), 2);
        // Push down a few steps.
        for _ in 0..4 {
            r.observe_and_step(&c, Watts::new(300.0));
        }
        let low = r.position().pstate;
        assert!(low < c.pstates.len() - 1);
        // Now feed far-under-cap samples; it should climb back up.
        for _ in 0..40 {
            r.observe_and_step(&c, Watts::new(80.0));
        }
        assert!(r.position().pstate > low);
    }

    #[test]
    fn converges_near_cap_without_oscillating_wildly() {
        let c = cpu();
        let cap = Watts::new(100.0);
        let mut r = RaplController::new(&c, cap, 5);
        // Closed loop: the "hardware" draws the power of the current state
        // at activity 0.9.
        let mut positions = vec![];
        for _ in 0..100 {
            let st = c.pstates.get(r.position().pstate).unwrap();
            let p = c.power_at_duty(st, r.position().duty(&c), 0.9);
            r.observe_and_step(&c, p);
            positions.push(r.position().pstate);
        }
        // Settles: the last 20 steps move by at most one P-state.
        let tail = &positions[80..];
        let min = tail.iter().min().unwrap();
        let max = tail.iter().max().unwrap();
        assert!(max - min <= 1, "controller did not settle: {min}..{max}");
        // And the settled power respects the cap.
        let st = c.pstates.get(r.position().pstate).unwrap();
        assert!(c.power_at_duty(st, r.position().duty(&c), 0.9) <= cap);
    }

    #[test]
    fn window_smooths_transients() {
        let c = cpu();
        let mut r = RaplController::new(&c, Watts::new(120.0), 10);
        // One spike within a mostly-idle window must not trigger a step.
        for _ in 0..9 {
            r.observe_and_step(&c, Watts::new(60.0));
        }
        let before = r.position();
        // The spike alone: average stays under the cap.
        r.observe_and_step(&c, Watts::new(200.0));
        assert!(r.window.average() < Watts::new(120.0));
        // Position may have climbed but must not have dropped below where
        // the idle samples put it.
        assert!(r.position().pstate >= before.pstate.saturating_sub(1));
    }

    #[test]
    fn set_cap_rebudgets() {
        let c = cpu();
        let mut r = RaplController::new(&c, Watts::new(160.0), 1);
        r.set_cap(Watts::new(60.0));
        assert_eq!(r.cap(), Watts::new(60.0));
        for _ in 0..c.pstates.len() {
            r.observe_and_step(&c, Watts::new(100.0));
        }
        assert_eq!(r.position().pstate, 0);
    }
}
