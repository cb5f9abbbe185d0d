//! Calibrated presets for the paper's four platforms (Table 2).
//!
//! Calibration anchors, all taken from the paper's text:
//!
//! * IvyBridge node: per-processor DVFS 1.2–2.5 GHz (§3.1); minimum active
//!   CPU package power 48 W (scenario VI); RandomAccess draws 112 W CPU /
//!   116 W DRAM unconstrained (scenario I); DGEMM's `perf_max` flattens
//!   once `P_b` ≥ 240 W (§3.1).
//! * Haswell node: per-core DVFS 1.2–2.3 GHz, DDR4-2133 with lower power
//!   than DDR3 (§3.1); better performance at small budgets but similar
//!   total power at max performance (§3.1).
//! * Titan XP: 250 W TDP default cap, user-settable up to 300 W (§6.1);
//!   SGEMM demands more than 300 W (§4); driver rejects low caps (§4).
//! * Titan V: smaller total and DRAM power range than the XP thanks to
//!   HBM2 (§4); SGEMM's bound flattens at a 180 W cap (§4).
//!
//! Dynamic/leakage splits and transfer energies are chosen to reproduce
//! those anchors through the `pbc-powersim` models; they are not vendor
//! datasheet values.

use crate::cpu::CpuSpec;
use crate::dram::{DramSpec, MemoryTechnology};
use crate::gpu::{GpuSpec, MemClockTable, SmClockTable};
use crate::platform::{NodeSpec, Platform, PlatformId};
use crate::pstate::PStateTable;
use pbc_types::{Bandwidth, Hertz, Watts};

/// Intel's clock-modulation duty ladder: 87.5% down to 12.5% in 1/8 steps.
fn intel_tstate_duties() -> Vec<f64> {
    vec![0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125]
}

/// CPU Platform I: 2× Xeon 10-core IvyBridge + 256 GB DDR3-1600.
pub fn ivybridge() -> Platform {
    let cpu = CpuSpec {
        name: "2x Xeon E5-2670v2 (IvyBridge, 10c)".into(),
        sockets: 2,
        cores_per_socket: 10,
        pstates: PStateTable::linear(14, Hertz::from_ghz(1.2), 0.92, Hertz::from_ghz(2.5), 1.05),
        tstate_duties: intel_tstate_duties(),
        leakage_nominal: Watts::new(50.0),
        dyn_power_max: Watts::new(120.0),
        min_active_power: Watts::new(48.0),
        core_gflops_nominal: 20.0, // 2.5 GHz x 8 DP FLOP/cycle (AVX)
    };
    let dram = DramSpec {
        name: "256 GB DDR3-1600 (16 DIMMs)".into(),
        technology: MemoryTechnology::Ddr3,
        capacity_gb: 256,
        background_power: Watts::new(40.0),
        max_bandwidth: Bandwidth::new(80.0),
        transfer_w_per_gbps: 0.80,
        throttle_levels: 32,
    };
    Platform {
        id: PlatformId::IvyBridge,
        description: "CPU Platform I: 2x Xeon 10-core IvyBridge, 256 GB DDR3".into(),
        spec: NodeSpec::Cpu { cpu, dram },
    }
}

/// CPU Platform II: 2× Xeon 12-core Haswell + 256 GB DDR4-2133.
pub fn haswell() -> Platform {
    let cpu = CpuSpec {
        name: "2x Xeon E5-2690v3 (Haswell, 12c)".into(),
        sockets: 2,
        cores_per_socket: 12,
        pstates: PStateTable::linear(12, Hertz::from_ghz(1.2), 0.90, Hertz::from_ghz(2.3), 1.00),
        tstate_duties: intel_tstate_duties(),
        leakage_nominal: Watts::new(46.0),
        dyn_power_max: Watts::new(134.0),
        min_active_power: Watts::new(52.0),
        core_gflops_nominal: 36.8, // 2.3 GHz x 16 DP FLOP/cycle (AVX2 FMA)
    };
    let dram = DramSpec {
        name: "256 GB DDR4-2133 (16 DIMMs)".into(),
        technology: MemoryTechnology::Ddr4,
        capacity_gb: 256,
        background_power: Watts::new(26.0),
        max_bandwidth: Bandwidth::new(110.0),
        transfer_w_per_gbps: 0.55,
        throttle_levels: 44,
    };
    Platform {
        id: PlatformId::Haswell,
        description: "CPU Platform II: 2x Xeon 12-core Haswell, 256 GB DDR4".into(),
        spec: NodeSpec::Cpu { cpu, dram },
    }
}

/// GPU Platform I: Nvidia Titan XP (GP102, 30 SMs, 12 GB GDDR5X).
pub fn titan_xp() -> Platform {
    let gpu = GpuSpec {
        name: "Nvidia Titan XP".into(),
        sm_count: 30,
        sm: SmClockTable {
            // Nvidia boost steps are ~13 MHz; 32 table entries keep the
            // governor's granularity realistic without bloating sweeps.
            clocks: PStateTable::linear(
                32,
                Hertz::from_mhz(800.0),
                0.75,
                Hertz::from_mhz(1582.0),
                1.062,
            ),
            leakage_nominal: Watts::new(28.0),
            dyn_power_max: Watts::new(235.0),
            min_power: Watts::new(40.0),
        },
        mem: MemClockTable {
            levels: vec![0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.0],
            max_bandwidth: Bandwidth::new(547.0),
            // GDDR5X I/O at 11 Gbps draws heavily even idle: most of the
            // domain power is clock-proportional, which is what makes the
            // "memory always at nominal" default capper waste real watts.
            background_power: Watts::new(4.0),
            clock_w_span: Watts::new(36.0),
            transfer_w_per_gbps: 0.055,
        },
        tdp: Watts::new(250.0),
        max_card_cap: Watts::new(300.0),
        min_card_cap: Watts::new(125.0),
        reclaims_unused: true,
        peak_gflops: 12_150.0,
    };
    Platform {
        id: PlatformId::TitanXp,
        description: "GPU Platform I: Nvidia Titan XP, 12 GB GDDR5X".into(),
        spec: NodeSpec::Gpu(gpu),
    }
}

/// GPU Platform II: Nvidia Titan V (GV100, 80 SMs, 12 GB HBM2).
pub fn titan_v() -> Platform {
    let gpu = GpuSpec {
        name: "Nvidia Titan V".into(),
        sm_count: 80,
        sm: SmClockTable {
            clocks: PStateTable::linear(
                32,
                Hertz::from_mhz(800.0),
                0.72,
                Hertz::from_mhz(1455.0),
                1.00,
            ),
            leakage_nominal: Watts::new(24.0),
            dyn_power_max: Watts::new(140.0),
            min_power: Watts::new(40.0),
        },
        mem: MemClockTable {
            // HBM2 exposes a much narrower offset range (§4).
            levels: vec![0.80, 0.85, 0.90, 0.95, 1.0],
            max_bandwidth: Bandwidth::new(653.0),
            background_power: Watts::new(8.0),
            clock_w_span: Watts::new(8.0),
            transfer_w_per_gbps: 0.027,
        },
        tdp: Watts::new(250.0),
        max_card_cap: Watts::new(300.0),
        min_card_cap: Watts::new(100.0),
        reclaims_unused: true,
        peak_gflops: 13_800.0,
    };
    Platform {
        id: PlatformId::TitanV,
        description: "GPU Platform II: Nvidia Titan V, 12 GB HBM2".into(),
        spec: NodeSpec::Gpu(gpu),
    }
}

/// Build a platform by id.
pub fn by_id(id: PlatformId) -> Platform {
    match id {
        PlatformId::IvyBridge => ivybridge(),
        PlatformId::Haswell => haswell(),
        PlatformId::TitanXp => titan_xp(),
        PlatformId::TitanV => titan_v(),
    }
}

/// All four platforms of Table 2 in order.
pub fn all_platforms() -> Vec<Platform> {
    PlatformId::ALL.iter().map(|&id| by_id(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for p in all_platforms() {
            assert_eq!(p.validate(), Ok(()), "{} failed validation", p.id);
        }
    }

    #[test]
    fn by_id_matches_ids() {
        for id in PlatformId::ALL {
            assert_eq!(by_id(id).id, id);
        }
    }

    #[test]
    fn ivybridge_anchors() {
        let p = ivybridge();
        let cpu = p.cpu().unwrap();
        // 48 W minimum active power (paper, scenario VI).
        assert_eq!(cpu.min_active_power.value(), 48.0);
        // DVFS range 1.2 - 2.5 GHz.
        assert!((cpu.pstates.lowest().freq.value() / 1e9 - 1.2).abs() < 1e-9);
        assert!((cpu.pstates.nominal().freq.value() / 1e9 - 2.5).abs() < 1e-9);
        assert_eq!(cpu.total_cores(), 20);
        // Full-activity package power: 50 + 120 = 170 W, comfortably above
        // the 112 W the latency-bound RandomAccess draws.
        assert!((cpu.max_power(1.0).value() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn haswell_cheaper_memory_than_ivybridge() {
        let ivy = ivybridge();
        let hsw = haswell();
        let d3 = ivy.dram().unwrap();
        let d4 = hsw.dram().unwrap();
        // DDR4: lower background, lower transfer energy, higher bandwidth.
        assert!(d4.background_power < d3.background_power);
        assert!(d4.transfer_w_per_gbps < d3.transfer_w_per_gbps);
        assert!(d4.max_bandwidth > d3.max_bandwidth);
        // But more cores on Haswell: higher peak compute.
        assert!(hsw.cpu().unwrap().peak_gflops() > ivy.cpu().unwrap().peak_gflops());
    }

    #[test]
    fn titan_xp_anchors() {
        let p = titan_xp();
        let g = p.gpu().unwrap();
        assert_eq!(g.tdp.value(), 250.0);
        assert_eq!(g.max_card_cap.value(), 300.0);
        // A fully active SGEMM-like kernel demands more than the 300 W max
        // cap (paper: SGEMM "demands more than 300 Watts").
        assert!(g.max_power(1.0) > Watts::new(300.0));
    }

    #[test]
    fn titan_v_smaller_power_ranges_than_xp() {
        let xp = titan_xp();
        let v = titan_v();
        let gxp = xp.gpu().unwrap();
        let gv = v.gpu().unwrap();
        // DRAM power range (max - min) is smaller on HBM2.
        let range_xp = gxp.mem.max_power() - gxp.mem.min_power();
        let range_v = gv.mem.max_power() - gv.mem.min_power();
        assert!(range_v < range_xp, "HBM2 must have the narrower DRAM power range");
        // Total demand also smaller on the V.
        assert!(gv.max_power(1.0) < gxp.max_power(1.0));
        // And the V exposes fewer memory clock levels over a narrower span.
        assert!(gv.mem.levels[0] > gxp.mem.levels[0]);
    }

    #[test]
    fn node_power_floors() {
        assert!((ivybridge().min_node_power().value() - 88.0).abs() < 1e-9);
        assert!((haswell().min_node_power().value() - 78.0).abs() < 1e-9);
        assert!(titan_xp().min_node_power() < Watts::new(95.0));
        assert!(titan_v().min_node_power() < Watts::new(100.0));
    }
}
