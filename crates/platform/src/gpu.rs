//! GPU card specification: SM and memory clock domains plus the card-level
//! capper limits.
//!
//! The paper caps GPU power by adjusting SM or memory *frequency offsets*
//! through `nvidia-settings` (§2.1, §4) and estimates memory power "using
//! memory frequency setting and empirical power models built from
//! experiment data on the card" (Fig. 7 caption). We model the same two
//! knobs:
//!
//! * **SM domain** — a voltage/frequency table (reusing [`PStateTable`])
//!   with the CMOS `leak + C·V²·f·activity` power model, like the CPU
//!   package but with a single clock domain for all SMs.
//! * **Memory domain** — a discrete set of memory clock levels; available
//!   bandwidth scales with the level, and power has a clock-proportional
//!   term (running GDDR5X/HBM2 at a higher clock costs power even when the
//!   extra bandwidth goes unused — this is why "allocating power to
//!   memory" is meaningful on a card capped only at the total) plus a
//!   transfer term proportional to achieved traffic.
//!
//! Two mechanism differences versus the host, both load-bearing for the
//! paper's §4 observations, are captured as spec fields:
//!
//! 1. The card disallows very low caps ([`GpuSpec::min_card_cap`]), which
//!    is why categories IV–VI never appear on GPUs.
//! 2. The card-level capper *reclaims* unused budget from one domain and
//!    shifts it to the other ([`GpuSpec::reclaims_unused`]), unlike RAPL's
//!    independent PKG/DRAM domains.

use crate::pstate::PStateTable;
use pbc_types::{Bandwidth, Watts};

/// SM clock domain: a DVFS table plus the power-model coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct SmClockTable {
    /// Voltage/frequency points, lowest first; the highest entry is the
    /// stock boost clock.
    pub clocks: PStateTable,
    /// Leakage power of the SM/core domain at nominal voltage.
    pub leakage_nominal: Watts,
    /// Dynamic power of the SM domain at the top clock with activity 1.0.
    pub dyn_power_max: Watts,
    /// Floor: minimum SM-domain power at the lowest clock while executing.
    pub min_power: Watts,
}

impl SmClockTable {
    /// SM-domain power at clock index `i` (0 = lowest) with the given
    /// switching activity.
    pub fn power_at(&self, index: usize, activity: f64) -> Watts {
        let state = self.clocks.get(index).unwrap_or_else(|| self.clocks.nominal());
        let nominal = self.clocks.nominal();
        let p = self.leakage_nominal * state.leak_scale(nominal)
            + self.dyn_power_max * state.dyn_scale(nominal) * activity.clamp(0.0, 1.0);
        p.max(self.min_power)
    }

    /// Relative compute speed at clock index `i` (1.0 at the top clock).
    pub fn speed_at(&self, index: usize) -> f64 {
        let state = self.clocks.get(index).unwrap_or_else(|| self.clocks.nominal());
        state.speed(self.clocks.nominal())
    }

    /// Number of selectable clock levels.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Clock tables are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Highest clock index.
    pub fn top(&self) -> usize {
        self.clocks.len() - 1
    }
}

/// Memory clock domain: discrete levels expressed as fractions of the
/// nominal memory clock. Bandwidth scales linearly with the level.
#[derive(Debug, Clone, PartialEq)]
pub struct MemClockTable {
    /// Clock levels as fractions of nominal, ascending, last = 1.0. The
    /// hardware-exposed offset range is typically narrow (narrower still on
    /// HBM2, per §4's Titan V observations).
    pub levels: Vec<f64>,
    /// Peak bandwidth at the nominal memory clock.
    pub max_bandwidth: Bandwidth,
    /// Clock-independent background power of the memory domain.
    pub background_power: Watts,
    /// Clock-proportional power: the I/O and PHY power added per unit of
    /// clock level (drawn whether or not the bandwidth is used).
    pub clock_w_span: Watts,
    /// Transfer power per GB/s of achieved traffic.
    pub transfer_w_per_gbps: f64,
}

impl MemClockTable {
    /// Bandwidth ceiling at level index `i`.
    pub fn bandwidth_at(&self, index: usize) -> Bandwidth {
        let lvl = self.levels.get(index).copied().unwrap_or(1.0);
        self.max_bandwidth * lvl
    }

    /// Memory-domain power at clock level index `i` when sustaining `bw` of
    /// traffic (clamped to the level's ceiling).
    pub fn power_at(&self, index: usize, bw: Bandwidth) -> Watts {
        let lvl = self.levels.get(index).copied().unwrap_or(1.0);
        let bw = bw.clamp(Bandwidth::ZERO, self.bandwidth_at(index));
        self.background_power
            + self.clock_w_span * lvl
            + Watts::new(self.transfer_w_per_gbps * bw.value())
    }

    /// Worst-case power at a level: full-rate traffic at that clock. This
    /// is what a power *allocation* to the memory domain must cover.
    pub fn worst_case_power(&self, index: usize) -> Watts {
        self.power_at(index, self.bandwidth_at(index))
    }

    /// Minimum memory-domain power: idle at the lowest exposed clock.
    pub fn min_power(&self) -> Watts {
        let lvl = self.levels.first().copied().unwrap_or(1.0);
        self.background_power + self.clock_w_span * lvl
    }

    /// Maximum memory-domain power: full bandwidth at the nominal clock.
    pub fn max_power(&self) -> Watts {
        self.worst_case_power(self.top())
    }

    /// Number of selectable levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when no levels are defined (invalid spec; `validate` rejects).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Highest level index.
    pub fn top(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// The highest level whose worst-case power fits under `cap`; falls
    /// back to the lowest exposed level when even that doesn't fit (the
    /// hardware will not clock memory below its floor).
    pub fn level_under_cap(&self, cap: Watts) -> usize {
        (0..self.levels.len())
            .rev()
            .find(|&i| self.worst_case_power(i) <= cap)
            .unwrap_or(0)
    }
}

/// Specification of a discrete GPU accelerator card.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// e.g. `"Nvidia Titan XP"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// SM clock domain.
    pub sm: SmClockTable,
    /// Memory clock domain.
    pub mem: MemClockTable,
    /// Thermal design power — the default card-level cap (250 W, §6.1).
    pub tdp: Watts,
    /// Maximum user-settable card cap (300 W via `nvidia-smi`, §6.1).
    pub max_card_cap: Watts,
    /// Minimum card cap the driver accepts. Caps below this are rejected —
    /// this is what excludes the paper's categories IV–VI on GPUs.
    pub min_card_cap: Watts,
    /// Whether the card-level capper reclaims unused budget from one
    /// domain for the other (true for the Nvidia boost governor, §4).
    pub reclaims_unused: bool,
    /// Peak single-precision throughput at the top SM clock, GFLOP/s.
    pub peak_gflops: f64,
}

impl GpuSpec {
    /// Maximum card power with both domains fully active.
    pub fn max_power(&self, sm_activity: f64) -> Watts {
        self.sm.power_at(self.sm.top(), sm_activity) + self.mem.max_power()
    }

    /// Minimum card power with both domains at their floors.
    pub fn min_power(&self) -> Watts {
        self.sm.min_power + self.mem.min_power()
    }

    /// Validate internal consistency.
    #[must_use = "validation reports spec inconsistencies via Err"]
    pub fn validate(&self) -> Result<(), String> {
        if self.sm_count == 0 {
            return Err("GPU must have at least one SM".into());
        }
        if self.mem.levels.is_empty() {
            return Err("memory clock table must be non-empty".into());
        }
        let mut last = 0.0;
        for &l in &self.mem.levels {
            if !(0.0 < l && l <= 1.0) {
                return Err(format!("memory clock level {l} outside (0, 1]"));
            }
            if l <= last {
                return Err("memory clock levels must be strictly ascending".into());
            }
            last = l;
        }
        if (last - 1.0).abs() > 1e-9 {
            return Err("top memory clock level must be 1.0 (nominal)".into());
        }
        if self.min_card_cap >= self.max_card_cap {
            return Err("min card cap must be below max card cap".into());
        }
        if self.tdp > self.max_card_cap {
            return Err("TDP above the maximum settable cap".into());
        }
        if self.min_card_cap < self.min_power() {
            return Err("min card cap below the physical floor is meaningless".into());
        }
        if self.peak_gflops <= 0.0 {
            return Err("peak GFLOP/s must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::Hertz;

    fn spec() -> GpuSpec {
        GpuSpec {
            name: "test card".into(),
            sm_count: 30,
            sm: SmClockTable {
                clocks: PStateTable::linear(12, Hertz::from_mhz(800.0), 0.75, Hertz::from_mhz(1600.0), 1.05),
                leakage_nominal: Watts::new(30.0),
                dyn_power_max: Watts::new(230.0),
                min_power: Watts::new(45.0),
            },
            mem: MemClockTable {
                levels: vec![0.6, 0.7, 0.8, 0.9, 1.0],
                max_bandwidth: Bandwidth::new(547.0),
                background_power: Watts::new(8.0),
                clock_w_span: Watts::new(20.0),
                transfer_w_per_gbps: 0.077,
            },
            tdp: Watts::new(250.0),
            max_card_cap: Watts::new(300.0),
            min_card_cap: Watts::new(95.0),
            reclaims_unused: true,
            peak_gflops: 12_000.0,
        }
    }

    #[test]
    fn validates() {
        assert_eq!(spec().validate(), Ok(()));
    }

    #[test]
    fn sm_power_monotone_in_clock() {
        let s = spec();
        let mut last = Watts::ZERO;
        for i in 0..s.sm.len() {
            let p = s.sm.power_at(i, 1.0);
            assert!(p >= last);
            last = p;
        }
        // Top-clock full-activity power = leak + dyn.
        assert!((s.sm.power_at(s.sm.top(), 1.0).value() - 260.0).abs() < 1e-9);
    }

    #[test]
    fn sm_speed_range() {
        let s = spec();
        assert!((s.sm.speed_at(s.sm.top()) - 1.0).abs() < 1e-12);
        assert!((s.sm.speed_at(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mem_bandwidth_scales_with_level() {
        let s = spec();
        assert!((s.mem.bandwidth_at(4).value() - 547.0).abs() < 1e-9);
        assert!((s.mem.bandwidth_at(0).value() - 0.6 * 547.0).abs() < 1e-9);
    }

    #[test]
    fn mem_power_structure() {
        let s = spec();
        // Idle at lowest clock: 8 + 20*0.6 = 20 W.
        assert!((s.mem.min_power().value() - 20.0).abs() < 1e-9);
        // Max: 8 + 20 + 0.077*547 ≈ 70.1 W.
        assert!((s.mem.max_power().value() - (28.0 + 0.077 * 547.0)).abs() < 1e-9);
        // Idle power grows with clock even without traffic.
        assert!(s.mem.power_at(4, Bandwidth::ZERO) > s.mem.power_at(0, Bandwidth::ZERO));
        // Traffic above the level's ceiling clamps.
        assert_eq!(
            s.mem.power_at(0, Bandwidth::new(1000.0)),
            s.mem.power_at(0, s.mem.bandwidth_at(0))
        );
    }

    #[test]
    fn mem_level_under_cap() {
        let s = spec();
        // Generous cap -> top level.
        assert_eq!(s.mem.level_under_cap(Watts::new(100.0)), 4);
        // Tiny cap -> floor level (hardware refuses to go lower).
        assert_eq!(s.mem.level_under_cap(Watts::new(5.0)), 0);
        // Mid cap: selected level's worst case fits.
        let cap = Watts::new(50.0);
        let lvl = s.mem.level_under_cap(cap);
        assert!(s.mem.worst_case_power(lvl) <= cap);
        if lvl < s.mem.top() {
            assert!(s.mem.worst_case_power(lvl + 1) > cap);
        }
    }

    #[test]
    fn card_power_envelope() {
        let s = spec();
        assert!(s.min_power() < s.tdp);
        assert!(s.max_power(1.0) > s.tdp, "a compute-hungry kernel can exceed TDP demand");
    }

    #[test]
    fn rejects_bad_mem_levels() {
        let mut s = spec();
        s.mem.levels = vec![0.5, 0.9]; // top != 1.0
        assert!(s.validate().is_err());
        s.mem.levels = vec![0.9, 0.5, 1.0]; // not ascending
        assert!(s.validate().is_err());
        s.mem.levels = vec![];
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_inverted_caps() {
        let mut s = spec();
        s.min_card_cap = Watts::new(350.0);
        assert!(s.validate().is_err());
    }
}
