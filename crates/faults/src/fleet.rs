//! Fleet-scale fault plans: what goes wrong *between* nodes, when.
//!
//! [`crate::plan::FaultPlan`] describes a single node's bad day —
//! sensor lies, cap-write failures, budget moves. A [`FleetFaultPlan`]
//! is the layer above it: whole nodes crash and rejoin, observation
//! reports are dropped, delayed, or garbled on their way to the global
//! coordinator, individual nodes lose their cap-write path for a
//! stretch, stragglers run slow, and the coordinator itself can become
//! unavailable. The same determinism contract applies: the plan is pure
//! data (timed faults as [`Episodes`], per-report and per-write
//! probabilities confined to half-open tick windows, scheduled budget
//! steps), and every draw is one [`FaultWindow::pick`] from a fresh
//! generator keyed on `(seed, tick, stream, key)` — see
//! [`crate::inject::decision_rng`] — so a fleet chaos run replays
//! bit-identically at any thread count.
//!
//! Shipped presets keep budget steps *outside* every write-fault window
//! (the same structural discipline as the single-node plans), which is
//! what lets `cluster.budget_violations == 0` hold at every seed. The
//! adversarial overlap — a budget cut landing while a quarantined
//! node's decrease cannot be written — is exercised separately by the
//! property tests with the weaker caps-never-inflate guarantee.

use crate::plan::{check_budget_steps, check_probs, BudgetStep, FaultWindow, Preset};
use pbc_types::{PbcError, Result};

/// A timed fault: in each tick of `window`, each entity (a node, a
/// tenant) idle at that tick starts an episode with probability `prob`,
/// and the episode lasts `epochs` ticks. Crashes, straggles, write
/// outages, demand spikes and noisy neighbors all have this shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episodes {
    /// Per-entity, per-tick probability of an episode starting while
    /// the window is active.
    pub prob: f64,
    /// Ticks `[from, until)` during which episodes can start.
    pub window: FaultWindow,
    /// How many ticks an episode lasts.
    pub epochs: usize,
}

/// What [`Episodes::advance`] did to one entity on one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Nothing changed: still idle, or still mid-episode.
    Steady,
    /// An episode started on this tick.
    Started,
    /// The running episode expired on this tick.
    Ended,
}

impl Episodes {
    /// Never fires.
    pub const NONE: Self = Self { prob: 0.0, window: FaultWindow::NEVER, epochs: 0 };

    /// Advance one entity's episode (`Some(t)`: running until tick `t`)
    /// to `tick`. An expired episode ends and nothing starts on that
    /// tick. An idle entity makes the one keyed draw
    /// ([`FaultWindow::pick`] over `[prob]`); a hit lasts
    /// `max(epochs, 1)` ticks.
    pub fn advance(
        &self,
        until: &mut Option<usize>,
        seed: u64,
        tick: usize,
        stream: u64,
        key: u64,
    ) -> Edge {
        if let Some(end) = *until {
            if tick < end {
                return Edge::Steady;
            }
            *until = None;
            return Edge::Ended;
        }
        if self.window.pick(&[self.prob], seed, tick, stream, key).is_some() {
            *until = Some(tick + self.epochs.max(1));
            return Edge::Started;
        }
        Edge::Steady
    }

    /// The tick by which every episode has run its course: the window's
    /// end plus one episode, or 0 when the window is empty.
    #[must_use]
    pub fn tail(&self) -> usize {
        if self.window.is_empty() {
            0
        } else {
            self.window.until + self.epochs
        }
    }

    /// `prob` is a probability, and an armed episode has a duration.
    fn validate(&self, plan: &str, what: &str) -> Result<()> {
        check_probs(plan, what, &[self.prob])?;
        if self.prob > 0.0 && self.epochs == 0 {
            return Err(PbcError::InvalidInput(format!(
                "{plan}: {what}.epochs must be >= 1 when {what} episodes can start"
            )));
        }
        Ok(())
    }
}

/// Node membership faults: crashes (and the rejoin after), plus
/// straggler slowdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaults {
    /// Crashes: a crashed node stays down for `epochs`, then rejoins.
    pub crash: Episodes,
    /// Straggles: a straggler runs slow for `epochs`.
    pub straggle: Episodes,
    /// Throughput multiplier while straggling (e.g. `0.3` = runs at
    /// 30 % speed and its reports lag an epoch behind).
    pub slowdown: f64,
}

impl NodeFaults {
    /// No membership faults, ever.
    pub const NONE: Self =
        Self { crash: Episodes::NONE, straggle: Episodes::NONE, slowdown: 1.0 };
}

/// Faults on the observation reports nodes send the coordinator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportFaults {
    /// Probability an in-window report never arrives.
    pub drop_prob: f64,
    /// Probability an in-window report arrives one epoch late (stale:
    /// it describes the previous epoch's caps).
    pub delay_prob: f64,
    /// Probability an in-window report arrives garbled (non-finite or
    /// absurd fields that validation must reject).
    pub garble_prob: f64,
    /// When report faults are armed.
    pub window: FaultWindow,
}

impl ReportFaults {
    /// Reports always arrive clean.
    pub const NONE: Self = Self {
        drop_prob: 0.0,
        delay_prob: 0.0,
        garble_prob: 0.0,
        window: FaultWindow::NEVER,
    };
}

/// Faults on the per-node cap-write path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWriteFaults {
    /// Per-attempt probability of a cap write failing while the write
    /// window is active (independent per retry, so retries can absorb
    /// it).
    pub fail_prob: f64,
    /// When stochastic write failures are armed.
    pub window: FaultWindow,
    /// Whole-path outages: every write to the node fails until the
    /// episode ends.
    pub outage: Episodes,
}

impl FleetWriteFaults {
    /// Cap writes always land.
    pub const NONE: Self =
        Self { fail_prob: 0.0, window: FaultWindow::NEVER, outage: Episodes::NONE };
}

/// Tenant demand faults: per-tenant demand spikes and noisy neighbors.
/// Both multiply a tenant's demand signal — a spike is a legitimate
/// burst (deadline crunch), a noisy neighbor is a sustained hog. The
/// tenant sub-partition must absorb either without letting the fleet
/// overdraw the global budget or starve a co-tenant below its weighted
/// floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantFaults {
    /// Demand spikes.
    pub spike: Episodes,
    /// Demand multiplier while spiking (≥ 1).
    pub spike_factor: f64,
    /// Noisy-neighbor stretches.
    pub noisy: Episodes,
    /// Demand multiplier while noisy (≥ 1, typically larger and longer
    /// than a spike).
    pub noisy_factor: f64,
}

impl TenantFaults {
    /// Tenant demand stays flat.
    pub const NONE: Self = Self {
        spike: Episodes::NONE,
        spike_factor: 1.0,
        noisy: Episodes::NONE,
        noisy_factor: 1.0,
    };
}

/// A complete, replayable fleet fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultPlan {
    /// Preset name, from its [`FLEET_PRESETS`] row (for reports and the
    /// CLI).
    pub name: &'static str,
    /// Seed all draws derive from.
    pub seed: u64,
    /// Node crashes, rejoins, and stragglers.
    pub nodes: NodeFaults,
    /// Observation-report corruption.
    pub reports: ReportFaults,
    /// Cap-write failures and outages.
    pub writes: FleetWriteFaults,
    /// Tenant demand spikes and noisy neighbors (inert unless the
    /// coordinator has tenants attached).
    pub tenants: TenantFaults,
    /// Epochs `[from, until)` during which global coordination is
    /// unavailable — every node must fall back to its precomputed
    /// static budget.
    pub coordinator_outage: FaultWindow,
    /// Scheduled changes of the global budget (factors are absolute
    /// w.r.t. the initial budget, as in [`BudgetStep`]).
    pub budget_steps: Vec<BudgetStep>,
}

/// Every canned fleet plan, in escalation order. `node-dropouts` and
/// `flaky-writes` keep the pre-health-machine preset names alive.
pub const FLEET_PRESETS: [Preset<FleetFaultPlan>; 11] = [
    ("calm", "no faults; the control run", FleetFaultPlan::calm),
    ("node-dropouts", "nodes drop out and rejoin a few epochs later", FleetFaultPlan::node_dropouts),
    ("node-crash", "hard crashes with long outages; survivors inherit the watts", FleetFaultPlan::node_crash),
    ("node-rejoin", "crash/rejoin churn; probation path exercised hard", FleetFaultPlan::node_rejoin),
    ("stragglers", "nodes run slow and report an epoch late", FleetFaultPlan::stragglers),
    ("report-loss", "reports dropped, delayed, and garbled", FleetFaultPlan::report_loss),
    ("flaky-writes", "cap writes fail stochastically", FleetFaultPlan::flaky_writes),
    ("write-outage", "whole per-node cap-write paths go down for a stretch", FleetFaultPlan::write_outage),
    ("demand-spike", "tenant demand bursts the sub-partition must absorb", FleetFaultPlan::demand_spike),
    ("noisy-neighbor", "a tenant hogs demand; co-tenant floors must hold", FleetFaultPlan::noisy_neighbor),
    ("everything", "all of it, plus a coordinator outage and a budget cut", FleetFaultPlan::everything),
];

impl FleetFaultPlan {
    /// No faults at all — the control run, and the base every other
    /// preset and any custom plan builds on. It is unnamed: a plan is
    /// named by its [`FLEET_PRESETS`] row, through [`Self::by_name`].
    #[must_use]
    pub fn calm(seed: u64) -> Self {
        Self {
            name: "",
            seed,
            nodes: NodeFaults::NONE,
            reports: ReportFaults::NONE,
            writes: FleetWriteFaults::NONE,
            tenants: TenantFaults::NONE,
            coordinator_outage: FaultWindow::NEVER,
            budget_steps: Vec::new(),
        }
    }

    /// Nodes drop out mid-run and rejoin a few epochs later — the
    /// original cluster preset, kept under its old name.
    #[must_use]
    pub(crate) fn node_dropouts(seed: u64) -> Self {
        Self {
            nodes: NodeFaults {
                crash: Episodes { prob: 0.08, window: FaultWindow::new(2, 30), epochs: 4 },
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Hard crashes with long outages: the fleet must reclaim the dead
    /// nodes' watts and keep the survivors productive.
    #[must_use]
    pub(crate) fn node_crash(seed: u64) -> Self {
        Self {
            nodes: NodeFaults {
                crash: Episodes { prob: 0.05, window: FaultWindow::new(4, 24), epochs: 12 },
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Crash/rejoin churn: short outages, so nodes cycle through
    /// Quarantined → Rejoining → Healthy over and over and the
    /// probation path is exercised hard.
    #[must_use]
    pub(crate) fn node_rejoin(seed: u64) -> Self {
        Self {
            nodes: NodeFaults {
                crash: Episodes { prob: 0.10, window: FaultWindow::new(2, 28), epochs: 3 },
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Stragglers: nodes run slow for a stretch and their reports lag
    /// an epoch behind, tripping the staleness rejection.
    #[must_use]
    pub(crate) fn stragglers(seed: u64) -> Self {
        Self {
            nodes: NodeFaults {
                straggle: Episodes { prob: 0.08, window: FaultWindow::new(3, 30), epochs: 6 },
                slowdown: 0.3,
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Reports are dropped, delayed, and garbled; the health machine
    /// must quarantine on missing/invalid telemetry without ever
    /// overdrawing.
    #[must_use]
    pub(crate) fn report_loss(seed: u64) -> Self {
        Self {
            reports: ReportFaults {
                drop_prob: 0.20,
                delay_prob: 0.10,
                garble_prob: 0.10,
                window: FaultWindow::new(3, 32),
            },
            ..Self::calm(seed)
        }
    }

    /// Cap writes fail stochastically; the pot accounting must hold —
    /// the original cluster preset, kept under its old name.
    #[must_use]
    pub(crate) fn flaky_writes(seed: u64) -> Self {
        Self {
            writes: FleetWriteFaults {
                fail_prob: 0.2,
                window: FaultWindow::new(1, 40),
                ..FleetWriteFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Whole cap-write paths go down per node for a stretch: decreases
    /// cannot land, so the watts they hold must stay reserved.
    #[must_use]
    pub(crate) fn write_outage(seed: u64) -> Self {
        Self {
            writes: FleetWriteFaults {
                fail_prob: 0.1,
                window: FaultWindow::new(2, 30),
                outage: Episodes { prob: 0.04, window: FaultWindow::new(2, 25), epochs: 5 },
            },
            ..Self::calm(seed)
        }
    }

    /// Tenant demand spikes: short legitimate bursts that the tenant
    /// sub-partition must absorb without the fleet overdrawing or any
    /// weighted tenant dropping below its floor.
    #[must_use]
    pub(crate) fn demand_spike(seed: u64) -> Self {
        Self {
            tenants: TenantFaults {
                spike: Episodes { prob: 0.15, window: FaultWindow::new(2, 30), epochs: 3 },
                spike_factor: 3.0,
                ..TenantFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Noisy neighbors: a tenant hogs demand for long stretches — the
    /// co-tenants' weighted floors must hold anyway.
    #[must_use]
    pub(crate) fn noisy_neighbor(seed: u64) -> Self {
        Self {
            tenants: TenantFaults {
                spike: Episodes { prob: 0.05, window: FaultWindow::new(4, 28), epochs: 2 },
                spike_factor: 2.0,
                noisy: Episodes { prob: 0.08, window: FaultWindow::new(2, 32), epochs: 8 },
                noisy_factor: 6.0,
            },
            ..Self::calm(seed)
        }
    }

    /// Everything at once: crashes, stragglers, report loss, write
    /// faults, a coordinator outage, and a budget cut — with the budget
    /// steps placed after every write window closes, so the budget
    /// invariant holds structurally at any seed.
    #[must_use]
    pub(crate) fn everything(seed: u64) -> Self {
        Self {
            nodes: NodeFaults {
                crash: Episodes { prob: 0.06, window: FaultWindow::new(2, 26), epochs: 4 },
                straggle: Episodes { prob: 0.05, window: FaultWindow::new(4, 26), epochs: 4 },
                slowdown: 0.3,
            },
            reports: ReportFaults {
                drop_prob: 0.10,
                delay_prob: 0.06,
                garble_prob: 0.06,
                window: FaultWindow::new(3, 28),
            },
            writes: FleetWriteFaults {
                fail_prob: 0.15,
                window: FaultWindow::new(1, 30),
                outage: Episodes { prob: 0.03, window: FaultWindow::new(2, 24), epochs: 4 },
            },
            tenants: TenantFaults {
                spike: Episodes { prob: 0.10, window: FaultWindow::new(3, 28), epochs: 3 },
                spike_factor: 3.0,
                noisy: Episodes { prob: 0.05, window: FaultWindow::new(4, 26), epochs: 6 },
                noisy_factor: 4.0,
            },
            coordinator_outage: FaultWindow::new(32, 36),
            budget_steps: vec![
                BudgetStep { at: 40, factor: 0.85 },
                BudgetStep { at: 48, factor: 1.0 },
            ],
            ..Self::calm(seed)
        }
    }

    /// Look a preset up by name (see [`FLEET_PRESETS`]); the plan is
    /// named by its row, the only spelling of a preset's name.
    #[must_use]
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        FLEET_PRESETS
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(name, _, make)| Self { name, ..make(seed) })
    }

    /// The tick after which the plan injects nothing and every fault it
    /// started has run its course (outages and straggles included).
    #[must_use]
    pub fn quiet_after(&self) -> usize {
        let mut t = [
            self.nodes.crash.tail(),
            self.nodes.straggle.tail(),
            self.writes.outage.tail(),
            self.tenants.spike.tail(),
            self.tenants.noisy.tail(),
            self.reports.window.until,
            self.writes.window.until,
            self.coordinator_outage.until,
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        for s in &self.budget_steps {
            t = t.max(s.at + 1);
        }
        t
    }

    /// Validate probabilities, windows, and schedules.
    #[must_use = "an invalid plan must not be armed"]
    pub fn validate(&self) -> Result<()> {
        let episodes = [
            ("nodes.crash", self.nodes.crash),
            ("nodes.straggle", self.nodes.straggle),
            ("writes.outage", self.writes.outage),
            ("tenants.spike", self.tenants.spike),
            ("tenants.noisy", self.tenants.noisy),
        ];
        for (what, e) in episodes {
            e.validate(self.name, what)?;
        }
        let r = self.reports;
        check_probs(
            self.name,
            "report (drop, delay, garble)",
            &[r.drop_prob, r.delay_prob, r.garble_prob],
        )?;
        check_probs(self.name, "writes.fail", &[self.writes.fail_prob])?;
        let factors = [("spike", self.tenants.spike_factor), ("noisy", self.tenants.noisy_factor)];
        for (what, factor) in factors {
            if !factor.is_finite() || factor < 1.0 {
                return Err(PbcError::InvalidInput(format!(
                    "{}: tenants.{what}_factor {factor} must be a finite multiplier >= 1",
                    self.name
                )));
            }
        }
        if !(self.nodes.slowdown.is_finite() && 0.0 < self.nodes.slowdown && self.nodes.slowdown <= 1.0)
        {
            return Err(PbcError::InvalidInput(format!(
                "{}: straggler slowdown {} out of (0, 1]",
                self.name, self.nodes.slowdown
            )));
        }
        check_budget_steps(self.name, &self.budget_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fleet_preset_resolves_validates_and_has_a_description() {
        for (name, description, _) in FLEET_PRESETS {
            let plan = FleetFaultPlan::by_name(name, 42).unwrap();
            assert_eq!(plan.name, name);
            plan.validate().unwrap();
            assert!(!description.is_empty(), "{name} lacks a description");
        }
        assert!(FleetFaultPlan::by_name("nope", 1).is_none());
    }

    /// The seed-independence of the fleet budget invariant rests on
    /// this: shipped presets never step the budget while any cap-write
    /// fault (stochastic or outage) can still be in flight.
    #[test]
    fn shipped_fleet_plans_never_step_budget_while_writes_can_fail() {
        for (name, ..) in FLEET_PRESETS {
            let plan = FleetFaultPlan::by_name(name, 1).unwrap();
            let write_tail = plan.writes.window.until.max(plan.writes.outage.tail());
            for step in &plan.budget_steps {
                assert!(
                    step.at >= write_tail,
                    "{name}: budget step at {} inside the write-fault tail [0, {write_tail})",
                    step.at
                );
            }
        }
    }

    #[test]
    fn quiet_after_covers_outage_and_straggle_tails() {
        let plan = FleetFaultPlan::everything(7);
        let q = plan.quiet_after();
        assert_eq!(q, 49); // last budget step at 48
        assert!(q >= plan.nodes.crash.window.until + plan.nodes.crash.epochs);
        assert!(q >= plan.writes.outage.window.until + plan.writes.outage.epochs);
        assert!(q >= plan.coordinator_outage.until);
        assert_eq!(FleetFaultPlan::calm(7).quiet_after(), 0);
        let crash = FleetFaultPlan::node_crash(1);
        assert_eq!(crash.quiet_after(), crash.nodes.crash.window.until + 12);
    }

    #[test]
    fn validation_rejects_garbage() {
        let mut plan = FleetFaultPlan::node_crash(1);
        plan.nodes.crash.prob = 1.5;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::node_crash(1);
        plan.nodes.crash.epochs = 0;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::stragglers(1);
        plan.nodes.slowdown = 0.0;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::report_loss(1);
        plan.reports.drop_prob = 0.6;
        plan.reports.delay_prob = 0.3;
        plan.reports.garble_prob = 0.2;
        assert!(plan.validate().is_err(), "report sum > 1 must be rejected");
        let mut plan = FleetFaultPlan::everything(1);
        plan.budget_steps[0].factor = f64::NAN;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::demand_spike(1);
        plan.tenants.spike.epochs = 0;
        assert!(plan.validate().is_err(), "armed spikes need a duration");
        let mut plan = FleetFaultPlan::noisy_neighbor(1);
        plan.tenants.noisy_factor = 0.5;
        assert!(plan.validate().is_err(), "a demand multiplier below 1 is not a hog");
    }

    #[test]
    fn tenant_presets_cover_their_tails() {
        let spike = FleetFaultPlan::demand_spike(3);
        assert_eq!(spike.quiet_after(), spike.tenants.spike.window.until + spike.tenants.spike.epochs);
        let noisy = FleetFaultPlan::noisy_neighbor(3);
        assert_eq!(noisy.quiet_after(), noisy.tenants.noisy.window.until + noisy.tenants.noisy.epochs);
    }

    /// `prob = 1` makes every draw a hit, so a tick that does not start
    /// an episode is a tick that did not draw.
    const ALWAYS: Episodes = Episodes { prob: 1.0, window: FaultWindow::new(2, 6), epochs: 3 };

    #[test]
    fn an_expiring_episode_ends_before_a_new_one_can_start() {
        let mut until = None;
        assert_eq!(ALWAYS.advance(&mut until, 1, 2, 0, 0), Edge::Started);
        assert_eq!(until, Some(5));
        assert_eq!(ALWAYS.advance(&mut until, 1, 4, 0, 0), Edge::Steady);
        assert_eq!(ALWAYS.advance(&mut until, 1, 5, 0, 0), Edge::Ended, "expiry first");
        assert_eq!(until, None, "nothing starts on the tick an episode ends");
        assert_eq!(ALWAYS.advance(&mut until, 1, 5, 0, 0), Edge::Started);
        let instant = Episodes { epochs: 0, ..ALWAYS };
        let mut until = None;
        assert_eq!(instant.advance(&mut until, 1, 3, 0, 0), Edge::Started);
        assert_eq!(until, Some(4), "a hit lasts at least one tick");
    }

    #[test]
    fn episodes_never_start_outside_the_window_or_at_zero_probability() {
        for tick in [0, 1, 6, 7, 100] {
            let mut until = None;
            assert_eq!(ALWAYS.advance(&mut until, 9, tick, 0, 0), Edge::Steady, "tick {tick}");
            assert_eq!(until, None);
        }
        let never = Episodes { prob: 0.0, ..ALWAYS };
        for tick in 0..10 {
            let mut until = None;
            assert_eq!(never.advance(&mut until, 9, tick, 0, 0), Edge::Steady);
        }
    }

    #[test]
    fn tails_end_one_episode_past_the_window() {
        assert_eq!(ALWAYS.tail(), 9);
        assert_eq!(Episodes::NONE.tail(), 0);
        let empty = Episodes { window: FaultWindow::new(5, 5), ..ALWAYS };
        assert_eq!(empty.tail(), 0, "an empty window never starts an episode");
    }
}
