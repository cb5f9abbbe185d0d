//! The injector: turns a [`FaultPlan`] into concrete corruptions.
//!
//! Determinism contract: every decision is one [`FaultWindow::pick`]
//! draw from a fresh [`XorShift64Star`] keyed on `(plan.seed, tick,
//! stream, key)` (see [`decision_rng`]), where `stream` separates
//! decision kinds (sensor vs write) and, for writes, `key` identifies
//! the individual write. No generator state is carried across
//! decisions, so the outcome at tick `k` does not depend on how many
//! draws happened before it — replays are bit-identical even if the
//! surrounding code changes its draw order.
//!
//! [`FaultWindow::pick`]: crate::plan::FaultWindow::pick

use crate::plan::FaultPlan;
use pbc_powersim::NodeOperatingPoint;
use pbc_trace::names;
use pbc_types::rng::XorShift64Star;
use pbc_types::Watts;

/// Weyl-ish odd constant spreading the tick across the seed space.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Stream constant for sensor decisions.
const STREAM_SENSOR: u64 = 0x5EED_0001;
/// Stream constant for enforcement-write decisions.
const STREAM_WRITE: u64 = 0x5EED_0002;

/// What the injector decided for one enforcement cap write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write goes through untouched.
    None,
    /// The first `failing_attempts` attempts fail, then it lands —
    /// retries absorb it.
    Transient {
        /// How many attempts fail before one succeeds (1 or 2, both
        /// under the `pbc_rapl::WRITE_ATTEMPTS` retry budget).
        failing_attempts: u32,
    },
    /// Every attempt fails; the enforcement transaction must roll back.
    Permanent,
}

/// Per-kind injection counts for one scenario run (local to the
/// injector; the global `faults.*` trace counters aggregate across
/// runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionTally {
    /// Noise-perturbed observations.
    pub noise: u64,
    /// Stale-replay observations.
    pub stale: u64,
    /// Dropped-out observations (garbage surrogate emitted).
    pub dropout: u64,
    /// Transiently failing cap writes.
    pub write_transient: u64,
    /// Permanently failing cap writes.
    pub write_permanent: u64,
}

impl InjectionTally {
    /// Total faults injected, all kinds.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.noise + self.stale + self.dropout + self.write_transient + self.write_permanent
    }
}

/// A fresh generator for one decision, keyed on `(seed, tick, stream)`
/// with an optional per-entity `salt` (node index, write key, retry
/// attempt) folded in. This is the determinism contract in one place:
/// no generator state crosses decisions, so the outcome at tick `k`
/// never depends on how many draws happened before it.
/// [`FaultWindow::pick`](crate::plan::FaultWindow::pick) draws every
/// node and fleet fault through it, so chaos replays bit-identically at
/// any `PBC_THREADS`.
#[must_use]
pub fn decision_rng(seed: u64, tick: usize, stream: u64, salt: u64) -> XorShift64Star {
    XorShift64Star::new(
        seed ^ (tick as u64).wrapping_mul(GOLDEN) ^ stream ^ salt.wrapping_mul(GOLDEN),
    )
}

/// Stable 64-bit key for one enforcement write (domain × target), used
/// to give each write its own decision stream. FNV-1a over the name
/// bytes, folded with the target in microwatts.
#[must_use]
pub fn write_key(domain: &str, target: Watts) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in domain.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Round to the same µW granularity sysfs stores, so a retry of the
    // same logical write maps to the same key.
    let uw = (target.value() * 1e6).round();
    h ^ uw.to_bits()
}

/// Executes a [`FaultPlan`] deterministically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Last clean operating point, replayed by stale faults.
    last_clean: Option<NodeOperatingPoint>,
    tally: InjectionTally,
}

impl FaultInjector {
    /// Arm a plan. (Invalid plans are caught by
    /// [`FaultPlan::validate`] — the harness calls it first.)
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            last_clean: None,
            tally: InjectionTally::default(),
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What has been injected so far in this run.
    #[must_use]
    pub fn tally(&self) -> InjectionTally {
        self.tally
    }

    fn count(&self, name: &'static str) {
        pbc_trace::counter(names::FAULTS_INJECTED).incr();
        pbc_trace::counter(name).incr();
    }

    /// Corrupt (or pass through) the operating point observed at `tick`.
    /// The kinds are drawn in the order dropout, stale, noise. The true
    /// point is remembered only when it is reported clean, so a stale
    /// fault replays what the consumer last *believed*, matching how a
    /// stuck telemetry pipe behaves; a stale fault with nothing to
    /// replay yet passes the point through clean.
    pub fn corrupt_observation(
        &mut self,
        tick: usize,
        op: &NodeOperatingPoint,
    ) -> NodeOperatingPoint {
        let s = self.plan.sensor;
        let probs = [s.dropout_prob, s.stale_prob, s.noise_prob];
        match s.window.pick(&probs, self.plan.seed, tick, STREAM_SENSOR, 0) {
            Some((0, mut rng)) => {
                self.tally.dropout += 1;
                self.count(names::FAULTS_SENSOR_DROPOUT);
                let mut bad = *op;
                match rng.below(3) {
                    0 => bad.perf_rel = f64::NAN,
                    1 => bad.perf_rel = -1.0,
                    _ => bad.perf_rel = 1e9,
                }
                return bad;
            }
            Some((1, _)) => {
                if let Some(prev) = self.last_clean {
                    self.tally.stale += 1;
                    self.count(names::FAULTS_SENSOR_STALE);
                    return prev;
                }
            }
            Some((_, mut rng)) => {
                self.tally.noise += 1;
                self.count(names::FAULTS_SENSOR_NOISE);
                let (lo, hi) = (1.0 - s.noise_frac, 1.0 + s.noise_frac);
                let mut noisy = *op;
                noisy.perf_rel *= rng.range_f64(lo, hi);
                noisy.proc_power = noisy.proc_power * rng.range_f64(lo, hi);
                noisy.mem_power = noisy.mem_power * rng.range_f64(lo, hi);
                return noisy;
            }
            None => {}
        }
        self.last_clean = Some(*op);
        *op
    }

    /// Decide the fate of one enforcement cap write at `tick`, drawing
    /// the kinds in the order permanent, transient. `key` identifies the
    /// write (see [`write_key`]) so each domain write in a transaction
    /// gets an independent decision, and a *retry* of the same write
    /// sees the same decision.
    #[must_use]
    pub fn write_fault(&mut self, tick: usize, key: u64) -> WriteFault {
        let w = self.plan.writes;
        let probs = [w.permanent_prob, w.transient_prob];
        match w.window.pick(&probs, self.plan.seed, tick, STREAM_WRITE, key) {
            Some((0, _)) => {
                self.tally.write_permanent += 1;
                self.count(names::FAULTS_WRITE_PERMANENT);
                WriteFault::Permanent
            }
            Some((_, mut rng)) => {
                self.tally.write_transient += 1;
                self.count(names::FAULTS_WRITE_TRANSIENT);
                let failing = 1 + rng.below(2);
                WriteFault::Transient {
                    failing_attempts: failing as u32,
                }
            }
            None => WriteFault::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultWindow, SensorFaults};
    use pbc_powersim::{CpuMechanismState, MechanismState};
    use pbc_types::{Bandwidth, PowerAllocation};

    fn op(perf: f64) -> NodeOperatingPoint {
        NodeOperatingPoint {
            alloc: PowerAllocation::new(Watts::new(120.0), Watts::new(88.0)),
            perf_rel: perf,
            proc_power: Watts::new(110.0),
            mem_power: Watts::new(80.0),
            work_rate: perf * 100.0,
            bandwidth: Bandwidth::new(30.0),
            proc_busy: 0.7,
            mechanism: MechanismState::Cpu(CpuMechanismState {
                pstate: 3,
                duty: 1.0,
                cap_unenforceable: false,
            }),
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let mut a = FaultInjector::new(FaultPlan::noisy_sensors(42));
        let mut b = FaultInjector::new(FaultPlan::noisy_sensors(42));
        for tick in 0..200 {
            let x = a.corrupt_observation(tick, &op(0.8));
            let y = b.corrupt_observation(tick, &op(0.8));
            // Bit-identical, NaN included.
            assert_eq!(x.perf_rel.to_bits(), y.perf_rel.to_bits(), "tick {tick}");
            assert_eq!(x.proc_power.value().to_bits(), y.proc_power.value().to_bits());
            assert_eq!(a.write_fault(tick, 7), b.write_fault(tick, 7));
        }
        assert_eq!(a.tally(), b.tally());
        assert!(a.tally().injected() > 0);
    }

    #[test]
    fn decisions_are_independent_of_draw_order() {
        // Injector B consumes extra decisions for other ticks/keys in
        // between; tick 33's outcome must not move.
        let mut a = FaultInjector::new(FaultPlan::noisy_sensors(7));
        let mut b = FaultInjector::new(FaultPlan::noisy_sensors(7));
        for t in 0..33 {
            // Keep last_clean state aligned: both see the same stream.
            let _ = a.corrupt_observation(t, &op(0.8));
            let _ = b.corrupt_observation(t, &op(0.8));
        }
        let _ = b.write_fault(50, 123); // extra draw, different stream
        let x = a.corrupt_observation(33, &op(0.8));
        let y = b.corrupt_observation(33, &op(0.8));
        assert_eq!(x.perf_rel.to_bits(), y.perf_rel.to_bits());
    }

    #[test]
    fn outside_the_window_nothing_happens() {
        let mut inj = FaultInjector::new(FaultPlan::everything(42));
        let quiet = inj.plan().quiet_after();
        for tick in quiet..quiet + 50 {
            let clean = inj.corrupt_observation(tick, &op(0.9));
            assert_eq!(clean, op(0.9));
            assert_eq!(inj.write_fault(tick, 1), WriteFault::None);
        }
        assert_eq!(inj.tally().injected(), 0);
        // calm injects nothing anywhere.
        let mut calm = FaultInjector::new(FaultPlan::calm(42));
        for tick in 0..100 {
            assert_eq!(calm.corrupt_observation(tick, &op(0.9)), op(0.9));
        }
        assert_eq!(calm.tally().injected(), 0);
    }

    #[test]
    fn dropouts_are_rejectable_garbage() {
        // A dropout-only plan: every in-window observation is garbage of
        // one of the three shapes, all of which the hardened coordinator
        // rejects (non-finite, negative, absurd).
        let plan = FaultPlan {
            sensor: SensorFaults {
                noise_prob: 0.0,
                noise_frac: 0.0,
                stale_prob: 0.0,
                dropout_prob: 1.0,
                window: FaultWindow::new(0, 100),
            },
            ..FaultPlan::calm(9)
        };
        let mut inj = FaultInjector::new(plan);
        let mut shapes = [false; 3];
        for tick in 0..100 {
            let bad = inj.corrupt_observation(tick, &op(0.9));
            if bad.perf_rel.is_nan() {
                shapes[0] = true;
            } else if bad.perf_rel < 0.0 {
                shapes[1] = true;
            } else if bad.perf_rel > 100.0 {
                shapes[2] = true;
            } else {
                panic!("tick {tick}: dropout produced a plausible perf {}", bad.perf_rel);
            }
        }
        assert!(shapes.iter().all(|&s| s), "all three garbage shapes appear");
        assert_eq!(inj.tally().dropout, 100);
    }

    #[test]
    fn stale_replays_the_last_clean_point() {
        let plan = FaultPlan {
            sensor: SensorFaults {
                noise_prob: 0.0,
                noise_frac: 0.0,
                stale_prob: 1.0,
                dropout_prob: 0.0,
                window: FaultWindow::new(5, 10),
            },
            ..FaultPlan::calm(11)
        };
        let mut inj = FaultInjector::new(plan);
        let fresh = op(0.5);
        for tick in 0..5 {
            let _ = inj.corrupt_observation(tick, &fresh);
        }
        // In the window, a *different* true point comes in; the stale
        // fault replays the pre-window one, alloc and all.
        let newer = op(0.9);
        let got = inj.corrupt_observation(5, &newer);
        assert_eq!(got, fresh);
        assert_eq!(inj.tally().stale, 1);
    }

    /// A stale fault before any clean observation has nothing to
    /// replay: the point passes through clean and is remembered, and no
    /// fault of another kind is counted in its place.
    #[test]
    fn stale_without_clean_history_passes_through_clean() {
        let plan = FaultPlan {
            sensor: SensorFaults {
                noise_prob: 0.0,
                noise_frac: 0.2,
                stale_prob: 1.0,
                dropout_prob: 0.0,
                window: FaultWindow::new(0, 100),
            },
            ..FaultPlan::calm(5)
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.corrupt_observation(0, &op(0.5)), op(0.5));
        assert_eq!(inj.tally(), InjectionTally::default());
        for tick in 1..100 {
            assert_eq!(inj.corrupt_observation(tick, &op(0.9)), op(0.5), "tick {tick}");
        }
        assert_eq!(inj.tally().stale, 99);
        assert_eq!(inj.tally().noise, 0);
    }

    #[test]
    fn write_keys_distinguish_domains_and_targets() {
        let a = write_key("package-0", Watts::new(55.0));
        let b = write_key("package-1", Watts::new(55.0));
        let c = write_key("package-0", Watts::new(56.0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, write_key("package-0", Watts::new(55.0)));
    }
}
