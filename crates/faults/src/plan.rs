//! Fault plans: the pure-data description of *what goes wrong when*.
//!
//! A [`FaultPlan`] is a replayable scenario: probabilistic fault kinds
//! are confined to deterministic tick windows, and scheduled events
//! (budget steps, phase shifts) fire at exact ticks. Which individual
//! sample or write gets hit inside a window is decided by seed-derived
//! randomness (see [`crate::inject`]), but the *shape* of the storm is
//! fixed — so properties like "budget steps never coincide with write
//! faults" hold at every seed, not just lucky ones.

use crate::inject::decision_rng;
use pbc_types::rng::XorShift64Star;
use pbc_types::{PbcError, Result};

/// A half-open tick interval `[from, until)` during which a fault kind
/// is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First tick (inclusive) the fault can fire.
    pub from: usize,
    /// First tick (exclusive) after which it no longer fires.
    pub until: usize,
}

impl FaultWindow {
    /// An interval that never fires.
    pub const NEVER: Self = Self { from: 0, until: 0 };

    /// Construct `[from, until)`.
    #[must_use]
    pub const fn new(from: usize, until: usize) -> Self {
        Self { from, until }
    }

    /// Is the window armed at `tick`?
    #[must_use]
    pub fn active(&self, tick: usize) -> bool {
        tick >= self.from && tick < self.until
    }

    /// True when the window can never fire.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.until <= self.from
    }

    /// The one keyed fault draw every probabilistic fault goes through.
    /// While the window is active, draw `u` from
    /// [`decision_rng`]`(seed, tick, stream, key)` and pick the first
    /// kind whose running sum of `probs` (in declaration order) exceeds
    /// `u`. Returns that kind's index and the generator, so the caller
    /// draws the fault's shape from the same stream. Outside the window,
    /// or when every probability is zero, nothing is drawn.
    #[must_use]
    pub fn pick(
        &self,
        probs: &[f64],
        seed: u64,
        tick: usize,
        stream: u64,
        key: u64,
    ) -> Option<(usize, XorShift64Star)> {
        if !self.active(tick) || probs.iter().all(|&p| p <= 0.0) {
            return None;
        }
        let mut rng = decision_rng(seed, tick, stream, key);
        let u = rng.next_f64();
        let mut sum = 0.0;
        for (kind, &p) in probs.iter().enumerate() {
            sum += p;
            if u < sum {
                return Some((kind, rng));
            }
        }
        None
    }
}

/// The one probability check behind every plan's `validate`: each of
/// `probs` (the kinds one [`FaultWindow::pick`] chooses among) lies in
/// `[0, 1]`, and together they sum to at most 1.
#[must_use = "an unchecked probability error lets an invalid plan run"]
pub(crate) fn check_probs(plan: &str, what: &str, probs: &[f64]) -> Result<()> {
    let sum: f64 = probs.iter().sum();
    if probs.iter().all(|p| (0.0..=1.0).contains(p)) && sum <= 1.0 {
        return Ok(());
    }
    Err(PbcError::InvalidInput(format!(
        "{plan}: {what} probabilities {probs:?} must each lie in [0, 1] and sum to at most 1"
    )))
}

/// Sensor corruption on the operating points the coordinator observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFaults {
    /// Probability an in-window observation is perturbed by
    /// multiplicative noise.
    pub noise_prob: f64,
    /// Noise amplitude: each corrupted field is scaled by a factor in
    /// `[1 - noise_frac, 1 + noise_frac]`.
    pub noise_frac: f64,
    /// Probability an in-window observation is replaced by the previous
    /// clean one (a stale sample from a slow telemetry pipe).
    pub stale_prob: f64,
    /// Probability an in-window observation drops out entirely and a
    /// garbage surrogate (NaN, negative, absurd) is reported instead.
    pub dropout_prob: f64,
    /// When sensor faults are armed.
    pub window: FaultWindow,
}

impl SensorFaults {
    /// No sensor faults, ever.
    pub const NONE: Self = Self {
        noise_prob: 0.0,
        noise_frac: 0.0,
        stale_prob: 0.0,
        dropout_prob: 0.0,
        window: FaultWindow::NEVER,
    };
}

/// Failures injected into enforcement cap writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteFaults {
    /// Probability an in-window cap write fails transiently (1–2
    /// attempts fail, then it lands — retries absorb it).
    pub transient_prob: f64,
    /// Probability an in-window cap write fails permanently (every
    /// attempt fails — the transaction must roll back).
    pub permanent_prob: f64,
    /// When write faults are armed.
    pub window: FaultWindow,
}

impl WriteFaults {
    /// No write faults, ever.
    pub const NONE: Self = Self {
        transient_prob: 0.0,
        permanent_prob: 0.0,
        window: FaultWindow::NEVER,
    };
}

/// A scheduled change of the node budget: at tick `at`, `P_b` becomes
/// `factor` times the plan's *initial* budget (factors are absolute
/// w.r.t. the start, not cumulative, so plans read declaratively).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetStep {
    /// Tick at which the new budget takes effect.
    pub at: usize,
    /// Multiplier on the initial budget (e.g. `0.75` = 25 % cut,
    /// `1.0` = restore).
    pub factor: f64,
}

/// A scheduled workload change: at tick `at`, the running application
/// starts behaving like benchmark `bench` (by catalog slug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseShift {
    /// Tick at which the workload changes character.
    pub at: usize,
    /// Catalog slug of the new behaviour (`pbc_workloads::by_name`).
    pub bench: String,
}

/// A complete, replayable fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan name, from its [`PRESETS`] row (the CLI and reports
    /// identify scenarios by it).
    pub name: String,
    /// Seed for every probabilistic decision the plan makes.
    pub seed: u64,
    /// Sensor corruption.
    pub sensor: SensorFaults,
    /// Enforcement write failures.
    pub writes: WriteFaults,
    /// Scheduled budget changes, in tick order.
    pub budget_steps: Vec<BudgetStep>,
    /// Scheduled workload changes, in tick order.
    pub phase_shifts: Vec<PhaseShift>,
}

/// One canned plan: its name, its one-line description for `pbc faults
/// list`, and its constructor from a seed.
pub type Preset<P> = (&'static str, &'static str, fn(u64) -> P);

/// Every canned single-node plan, in escalation order.
pub const PRESETS: [Preset<FaultPlan>; 5] = [
    ("calm", "no faults; the control run", FaultPlan::calm),
    ("noisy-sensors", "perf readings jittered, spiked, dropped, and frozen", FaultPlan::noisy_sensors),
    ("flaky-writes", "cap writes fail stochastically; transactions roll back", FaultPlan::flaky_writes),
    ("budget-storm", "the budget steps up and down mid-run", FaultPlan::budget_storm),
    ("everything", "all of it at once, plus a phase shift", FaultPlan::everything),
];

impl FaultPlan {
    /// The control scenario: nothing goes wrong. A chaos run under
    /// `calm` must look exactly like an ordinary online-tuning run. It is
    /// also the base every other preset and any custom plan builds on,
    /// and it is unnamed: a plan is named by its [`PRESETS`] row,
    /// through [`Self::by_name`].
    #[must_use]
    pub fn calm(seed: u64) -> Self {
        Self {
            name: String::new(),
            seed,
            sensor: SensorFaults::NONE,
            writes: WriteFaults::NONE,
            budget_steps: Vec::new(),
            phase_shifts: Vec::new(),
        }
    }

    /// Telemetry degrades for a long stretch: noise, stale replays, and
    /// hard dropouts on the observations, while enforcement stays
    /// healthy.
    #[must_use]
    pub(crate) fn noisy_sensors(seed: u64) -> Self {
        Self {
            sensor: SensorFaults {
                noise_prob: 0.35,
                noise_frac: 0.2,
                stale_prob: 0.15,
                dropout_prob: 0.15,
                window: FaultWindow::new(10, 120),
            },
            ..Self::calm(seed)
        }
    }

    /// The powercap interface misbehaves: a window where cap writes fail
    /// transiently (retries absorb them) and occasionally permanently
    /// (the transaction rolls back and the node keeps its old caps).
    #[must_use]
    pub(crate) fn flaky_writes(seed: u64) -> Self {
        Self {
            writes: WriteFaults {
                transient_prob: 0.3,
                permanent_prob: 0.08,
                window: FaultWindow::new(10, 100),
            },
            ..Self::calm(seed)
        }
    }

    /// The cluster manager re-negotiates the budget mid-run (cut, deeper
    /// cut, restore) and the application changes character once — no
    /// sensor or write faults, isolating the re-convergence machinery.
    #[must_use]
    pub(crate) fn budget_storm(seed: u64) -> Self {
        Self {
            budget_steps: vec![
                BudgetStep { at: 40, factor: 0.8 },
                BudgetStep { at: 80, factor: 0.7 },
                BudgetStep { at: 120, factor: 1.0 },
            ],
            phase_shifts: vec![PhaseShift {
                at: 60,
                bench: "dgemm".into(),
            }],
            ..Self::calm(seed)
        }
    }

    /// Everything at once. Budget steps are deliberately placed *outside*
    /// the write-fault window: a budget cut that lands in the same tick
    /// as a permanent write failure leaves an irreducible violation
    /// window (the rollback restores caps that were only compliant with
    /// the *old* budget), and shipped plans must hold the budget
    /// invariant at every seed, not most of them. The adversarial
    /// overlap is exercised separately by the property tests.
    #[must_use]
    pub(crate) fn everything(seed: u64) -> Self {
        Self {
            sensor: SensorFaults {
                noise_prob: 0.3,
                noise_frac: 0.15,
                stale_prob: 0.1,
                dropout_prob: 0.1,
                window: FaultWindow::new(10, 60),
            },
            writes: WriteFaults {
                transient_prob: 0.25,
                permanent_prob: 0.08,
                window: FaultWindow::new(20, 70),
            },
            budget_steps: vec![
                BudgetStep { at: 80, factor: 0.75 },
                BudgetStep { at: 120, factor: 1.0 },
            ],
            phase_shifts: vec![PhaseShift {
                at: 60,
                bench: "dgemm".into(),
            }],
            ..Self::calm(seed)
        }
    }

    /// Look up a canned plan by name (see [`PRESETS`]); the plan is
    /// named by its row, the only spelling of a preset's name.
    #[must_use]
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        PRESETS
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(name, _, make)| Self { name: name.into(), ..make(seed) })
    }

    /// The tick after which the plan injects nothing: windows closed,
    /// all scheduled events fired. The harness uses it to check the loop
    /// re-converges once faults clear.
    #[must_use]
    pub fn quiet_after(&self) -> usize {
        let mut t = self.sensor.window.until.max(self.writes.window.until);
        for s in &self.budget_steps {
            t = t.max(s.at + 1);
        }
        for s in &self.phase_shifts {
            t = t.max(s.at + 1);
        }
        t
    }

    /// Validate probabilities, windows, and schedules.
    #[must_use = "an invalid plan must not be run"]
    pub fn validate(&self) -> Result<()> {
        let (s, w) = (self.sensor, self.writes);
        check_probs(
            &self.name,
            "sensor (dropout, stale, noise)",
            &[s.dropout_prob, s.stale_prob, s.noise_prob],
        )?;
        check_probs(
            &self.name,
            "write (permanent, transient)",
            &[w.permanent_prob, w.transient_prob],
        )?;
        if !(0.0..=1.0).contains(&self.sensor.noise_frac) {
            return Err(PbcError::InvalidInput(format!(
                "{}: noise_frac {} out of [0, 1]",
                self.name, self.sensor.noise_frac
            )));
        }
        for s in &self.budget_steps {
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return Err(PbcError::InvalidInput(format!(
                    "{}: budget factor {} at tick {} must be positive",
                    self.name, s.factor, s.at
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::new(10, 20);
        assert!(!w.active(9));
        assert!(w.active(10));
        assert!(w.active(19));
        assert!(!w.active(20));
        assert!(FaultWindow::NEVER.is_empty());
        assert!(!FaultWindow::NEVER.active(0));
    }

    /// `pick` is the `u < a`, `u < a + b`, … comparison chain on the
    /// first draw of `decision_rng`, and hands back the generator just
    /// past that draw.
    #[test]
    fn pick_is_the_running_sum_over_the_first_keyed_draw() {
        let window = FaultWindow::new(3, 9);
        let mut gen = XorShift64Star::new(0xFA17);
        let (mut picked, mut skipped) = (0, 0);
        for key in 0..4000u64 {
            // 1–4 kinds, a third of them zero, rescaled to sum ≤ 1.
            let mut probs: Vec<f64> = (0..1 + gen.below(4))
                .map(|_| if gen.below(3) == 0 { 0.0 } else { gen.next_f64() })
                .collect();
            let total: f64 = probs.iter().sum();
            if total > 1.0 {
                probs.iter_mut().for_each(|p| *p /= total);
            }
            let (seed, stream, tick) = (gen.next_u64(), gen.next_u64(), gen.below(12));
            let got = window.pick(&probs, seed, tick, stream, key);
            if !window.active(tick) {
                assert!(got.is_none(), "tick {tick} is outside the window");
                continue;
            }
            let mut reference = decision_rng(seed, tick, stream, key);
            let u = reference.next_f64();
            let want = (0..probs.len()).find(|&i| u < probs[..=i].iter().sum::<f64>());
            assert_eq!(got.as_ref().map(|(kind, _)| *kind), want, "probs {probs:?}, u {u}");
            let Some((kind, mut rng)) = got else {
                skipped += 1;
                continue;
            };
            assert!(probs[kind] > 0.0, "zero-probability kind {kind} chosen from {probs:?}");
            assert_eq!(rng.next_u64(), reference.next_u64(), "the caller's next draw");
            picked += 1;
        }
        assert!(picked > 500 && skipped > 500, "both outcomes exercised: {picked}/{skipped}");
        assert!(FaultWindow::NEVER.pick(&[1.0], 1, 0, 2, 3).is_none());
    }

    #[test]
    fn every_named_plan_resolves_and_validates() {
        for (name, ..) in PRESETS {
            let plan = FaultPlan::by_name(name, 42).unwrap();
            assert_eq!(plan.name, name);
            assert_eq!(plan.validate(), Ok(()));
        }
        assert!(FaultPlan::by_name("nope", 1).is_none());
    }

    /// The seed-independence of the budget invariant rests on this:
    /// shipped plans never arm write faults at a tick where the budget
    /// steps.
    #[test]
    fn shipped_plans_never_step_budget_inside_a_write_window() {
        for (name, ..) in PRESETS {
            let plan = FaultPlan::by_name(name, 1).unwrap();
            for step in &plan.budget_steps {
                assert!(
                    !plan.writes.window.active(step.at),
                    "{name}: budget step at {} inside write window",
                    step.at
                );
            }
        }
    }

    #[test]
    fn quiet_after_covers_all_activity() {
        let plan = FaultPlan::everything(7);
        let q = plan.quiet_after();
        assert_eq!(q, 121); // last budget step at 120
        assert!(q > plan.sensor.window.until);
        assert!(q > plan.writes.window.until);
        assert_eq!(FaultPlan::calm(7).quiet_after(), 0);
    }

    #[test]
    fn validation_rejects_garbage() {
        let mut plan = FaultPlan::noisy_sensors(1);
        plan.sensor.noise_prob = 1.5;
        assert!(plan.validate().is_err());
        let mut plan = FaultPlan::noisy_sensors(1);
        plan.sensor.noise_prob = 0.6;
        plan.sensor.stale_prob = 0.3;
        plan.sensor.dropout_prob = 0.2;
        assert!(plan.validate().is_err(), "sum > 1 must be rejected");
        let mut plan = FaultPlan::budget_storm(1);
        plan.budget_steps[0].factor = -0.5;
        assert!(plan.validate().is_err());
        let mut plan = FaultPlan::budget_storm(1);
        plan.budget_steps[0].factor = f64::NAN;
        assert!(plan.validate().is_err());
    }
}
