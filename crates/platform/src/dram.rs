//! DRAM specification: the knobs RAPL's DRAM-domain capping acts on.
//!
//! The power model splits memory power into a technology- and
//! capacity-dependent *background* term (precharge/standby plus refresh —
//! drawn whenever the system is up, which is why a cap below it is simply
//! disregarded, §3.3) and a *transfer* term proportional to the achieved
//! bandwidth:
//!
//! ```text
//! P_dram(bw) = P_background + e_transfer · bw · pattern_cost
//! ```
//!
//! `pattern_cost ≥ 1` captures how row-buffer-hostile traffic (RandomAccess)
//! costs more energy per byte than streaming traffic (more activates and
//! precharges per useful byte). RAPL enforces a DRAM cap by *bandwidth
//! throttling*: inserting idle cycles between requests, which "reduces
//! memory power proportionally … resulting in a proportional decrease of
//! application performance" (§3.3) — the linear scenario-III region.

use pbc_types::{Bandwidth, Watts};

/// Memory technology generation. Determines background power per GB and
/// transfer energy per byte in the presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTechnology {
    /// DDR3 (CPU Platform I) — higher refresh and transfer energy.
    Ddr3,
    /// DDR4 (CPU Platform II) — "consumes less power, partly due to less
    /// frequent refreshing of its content and technology evolution" (§3.1).
    Ddr4,
    /// GDDR5X (Titan XP).
    Gddr5x,
    /// HBM2 (Titan V) — much lower energy/bit; the paper notes Titan V has
    /// "a smaller total and DRAM power range than Titan XP" (§4).
    Hbm2,
}

impl MemoryTechnology {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MemoryTechnology::Ddr3 => "DDR3",
            MemoryTechnology::Ddr4 => "DDR4",
            MemoryTechnology::Gddr5x => "GDDR5X",
            MemoryTechnology::Hbm2 => "HBM2",
        }
    }
}

/// Specification of the aggregated memory component (all modules together,
/// per the paper's assumption (c)).
#[derive(Debug, Clone, PartialEq)]
pub struct DramSpec {
    /// e.g. `"256 GB DDR3-1600 (16 DIMMs)"`.
    pub name: String,
    /// Technology generation.
    pub technology: MemoryTechnology,
    /// Installed capacity in gigabytes.
    pub capacity_gb: u32,
    /// `P_mem,L3`: background + refresh power, the hardware floor. A cap
    /// below this is disregarded and the modules draw this much anyway.
    pub background_power: Watts,
    /// Peak sustainable bandwidth with unconstrained power.
    pub max_bandwidth: Bandwidth,
    /// Transfer energy in watts per (GB/s) of streaming traffic
    /// (equivalently joules per GB moved).
    pub transfer_w_per_gbps: f64,
    /// Number of discrete bandwidth-throttle levels the capping mechanism
    /// exposes between zero and full bandwidth.
    pub throttle_levels: u32,
}

impl DramSpec {
    /// Power drawn when sustaining `bw` of traffic with the given access
    /// pattern cost multiplier (1.0 = pure streaming).
    pub fn power_at(&self, bw: Bandwidth, pattern_cost: f64) -> Watts {
        let bw = bw.clamp(Bandwidth::ZERO, self.max_bandwidth);
        self.background_power + Watts::new(self.transfer_w_per_gbps * bw.value() * pattern_cost.max(1.0))
    }

    /// Maximum power this component can draw for a given pattern cost
    /// (`P_mem` at full bandwidth).
    pub fn max_power(&self, pattern_cost: f64) -> Watts {
        self.power_at(self.max_bandwidth, pattern_cost)
    }

    /// The bandwidth sustainable under a power cap for traffic with the
    /// given pattern cost: the inverse of [`Self::power_at`], quantized to
    /// the throttle granularity and clamped to `[0, max_bandwidth]`.
    ///
    /// A cap at or below the background floor yields zero usable bandwidth
    /// (the floor is still drawn — callers must account for that).
    pub fn bandwidth_under_cap(&self, cap: Watts, pattern_cost: f64) -> Bandwidth {
        let headroom = cap - self.background_power;
        if headroom.value() <= 0.0 {
            return Bandwidth::ZERO;
        }
        let raw = headroom.value() / (self.transfer_w_per_gbps * pattern_cost.max(1.0));
        let bw = raw.min(self.max_bandwidth.value());
        // Quantize *down* to the throttle grid: the mechanism can only
        // guarantee the cap from below.
        let levels = self.throttle_levels.max(1) as f64;
        let step = self.max_bandwidth.value() / levels;
        let quantized = (bw / step).floor() * step;
        Bandwidth::new(quantized.clamp(0.0, self.max_bandwidth.value()))
    }

    /// Validate internal consistency.
    #[must_use = "validation reports spec inconsistencies via Err"]
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_gb == 0 {
            return Err("memory capacity must be positive".into());
        }
        if self.background_power.value() <= 0.0 {
            return Err("background power must be positive".into());
        }
        if self.max_bandwidth.value() <= 0.0 {
            return Err("max bandwidth must be positive".into());
        }
        if self.transfer_w_per_gbps <= 0.0 {
            return Err("transfer energy must be positive".into());
        }
        if self.throttle_levels < 2 {
            return Err("need at least two throttle levels".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DramSpec {
        DramSpec {
            name: "256 GB DDR3-1600".into(),
            technology: MemoryTechnology::Ddr3,
            capacity_gb: 256,
            background_power: Watts::new(40.0),
            max_bandwidth: Bandwidth::new(80.0),
            transfer_w_per_gbps: 0.8,
            throttle_levels: 160,
        }
    }

    #[test]
    fn validates() {
        assert_eq!(spec().validate(), Ok(()));
    }

    #[test]
    fn power_at_streaming_full_bw() {
        // 40 + 0.8 * 80 = 104 W.
        assert!((spec().max_power(1.0).value() - 104.0).abs() < 1e-9);
    }

    #[test]
    fn pattern_cost_raises_power() {
        let s = spec();
        let stream = s.power_at(Bandwidth::new(40.0), 1.0);
        let random = s.power_at(Bandwidth::new(40.0), 2.0);
        assert!(random > stream);
        // Cost below 1 clamps to 1.
        assert_eq!(s.power_at(Bandwidth::new(40.0), 0.5), stream);
    }

    #[test]
    fn bandwidth_clamped_to_max_in_power_model() {
        let s = spec();
        assert_eq!(s.power_at(Bandwidth::new(500.0), 1.0), s.max_power(1.0));
    }

    #[test]
    fn cap_inversion_roundtrip() {
        let s = spec();
        // Cap for exactly 40 GB/s of streaming: 40 + 0.8*40 = 72 W.
        let bw = s.bandwidth_under_cap(Watts::new(72.0), 1.0);
        assert!((bw.value() - 40.0).abs() < 0.51, "quantization within one step, got {bw}");
        // Achieved bandwidth's power never exceeds the cap.
        assert!(s.power_at(bw, 1.0) <= Watts::new(72.0) + Watts::new(1e-9));
    }

    #[test]
    fn cap_below_floor_gives_zero_bandwidth() {
        let s = spec();
        assert_eq!(s.bandwidth_under_cap(Watts::new(39.0), 1.0), Bandwidth::ZERO);
        assert_eq!(s.bandwidth_under_cap(Watts::new(40.0), 1.0), Bandwidth::ZERO);
    }

    #[test]
    fn generous_cap_gives_full_bandwidth() {
        let s = spec();
        let bw = s.bandwidth_under_cap(Watts::new(500.0), 1.0);
        assert_eq!(bw, s.max_bandwidth);
    }

    #[test]
    fn cap_monotone_in_bandwidth() {
        let s = spec();
        let mut last = Bandwidth::ZERO;
        for cap in (40..=120).step_by(2) {
            let bw = s.bandwidth_under_cap(Watts::new(cap as f64), 1.3);
            assert!(bw >= last, "bandwidth must grow with cap");
            last = bw;
        }
    }

    #[test]
    fn quantization_is_downward() {
        let s = spec();
        // step = 80/160 = 0.5 GB/s; a cap giving 10.3 GB/s raw quantizes to 10.0.
        let cap = Watts::new(40.0 + 0.8 * 10.3);
        let bw = s.bandwidth_under_cap(cap, 1.0);
        assert!((bw.value() - 10.0).abs() < 1e-9, "got {bw}");
    }

    #[test]
    fn rejects_bad_specs() {
        let mut s = spec();
        s.throttle_levels = 1;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.transfer_w_per_gbps = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn technology_names() {
        assert_eq!(MemoryTechnology::Ddr3.name(), "DDR3");
        assert_eq!(MemoryTechnology::Hbm2.name(), "HBM2");
    }
}
