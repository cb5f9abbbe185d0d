//! Scenario categorization (§3.2 for CPU, §4 for GPU).
//!
//! The paper's central observation: for a fixed total budget, allocations
//! fall into *six* categories on a host, each with a distinct signature in
//! performance and actual power; GPU hardware excludes the catastrophic
//! ones, leaving *three*.

use crate::critical::CriticalPowers;
use crate::profile::SweepProfile;
use pbc_platform::{DramSpec, GpuSpec};
use pbc_powersim::{MechanismState, NodeOperatingPoint};
use pbc_types::Watts;
use std::fmt;

/// The six CPU power-allocation scenarios of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuScenario {
    /// I — adequate power for both CPUs and memory: both at their highest
    /// state, performance at the workload's maximum, actual powers
    /// constant.
    I,
    /// II — adequate memory power, lightly constrained CPU (P-state
    /// capping): performance declines gradually as the CPU cap shrinks.
    II,
    /// III — adequate CPU power, constrained memory (bandwidth
    /// throttling): performance tracks the memory cap, roughly linearly.
    III,
    /// IV — seriously constrained CPU (T-state clock modulation):
    /// performance collapses; DRAM draw drops because requests dry up.
    IV,
    /// V — minimum memory power: the DRAM cap fell at/below its floor and
    /// is disregarded; memory runs at its minimum throttle step.
    V,
    /// VI — minimum CPU power: the package cap fell below `P_cpu,L4`; the
    /// cap is unenforceable and the node may exceed its bound.
    VI,
}

impl fmt::Display for CpuScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CpuScenario::I => "I",
            CpuScenario::II => "II",
            CpuScenario::III => "III",
            CpuScenario::IV => "IV",
            CpuScenario::V => "V",
            CpuScenario::VI => "VI",
        };
        f.write_str(s)
    }
}

/// The three GPU categories of §4 (IV–VI are excluded by the driver's
/// minimum-cap guard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuCategory {
    /// I — both domains effectively unconstrained: flat performance.
    I,
    /// II — SM-power constrained: performance falls as memory allocation
    /// grows (the memory clock's idle draw eats SM headroom).
    II,
    /// III — memory constrained: performance rises with the memory
    /// allocation.
    III,
}

impl fmt::Display for GpuCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GpuCategory::I => "I",
            GpuCategory::II => "II",
            GpuCategory::III => "III",
        };
        f.write_str(s)
    }
}

/// Classify one CPU operating point against the workload's critical power
/// values. The mechanism state carries the ground truth about which
/// capping regime the point sits in; the critical values disambiguate the
/// memory side. `dram` and `pattern_cost` identify the throttle floor for
/// scenario V (a cap that buys at most one throttle step of bandwidth is
/// "minimum memory power" — further reduction is disregarded, §3.3).
pub fn classify_cpu_point(
    op: &NodeOperatingPoint,
    criticals: &CriticalPowers,
    dram: &DramSpec,
    pattern_cost: f64,
) -> CpuScenario {
    let MechanismState::Cpu(st) = op.mechanism else {
        // Type-confusion here is a caller bug, not a runtime condition.
        panic!("classify_cpu_point called with a GPU operating point"); // pbc-lint: allow(no-unwrap)
    };
    if st.cap_unenforceable {
        return CpuScenario::VI;
    }
    let step = dram.max_bandwidth / dram.throttle_levels.max(1) as f64;
    if dram.bandwidth_under_cap(op.alloc.mem, pattern_cost) <= step {
        return CpuScenario::V;
    }
    if st.duty < 1.0 {
        return CpuScenario::IV;
    }
    // The memory side counts as constrained when its cap is below the
    // workload's max demand (with a small tolerance for the throttle
    // quantization).
    let mem_constrained = op.alloc.mem < criticals.mem_l1 - Watts::new(1.0);
    let cpu_constrained = op.alloc.proc < criticals.cpu_l1 - Watts::new(1.0);
    match (cpu_constrained, mem_constrained) {
        (false, false) => CpuScenario::I,
        (true, _) => CpuScenario::II,
        (false, true) => CpuScenario::III,
    }
}

/// Classify one GPU operating point. `phase_bw_demand` is the workload's
/// bandwidth ceiling at full clocks (GB/s) — the discriminator between
/// "memory level limits me" and "SM power limits me".
pub fn classify_gpu_point(
    op: &NodeOperatingPoint,
    gpu: &GpuSpec,
    phase_bw_demand: f64,
) -> GpuCategory {
    let MechanismState::Gpu(st) = op.mechanism else {
        // Type-confusion here is a caller bug, not a runtime condition.
        panic!("classify_gpu_point called with a CPU operating point"); // pbc-lint: allow(no-unwrap)
    };
    let level_bw = gpu.mem.bandwidth_at(st.mem_level).value();
    if level_bw < phase_bw_demand * 0.999 {
        // The selected memory clock can't carry the workload's traffic:
        // more memory allocation would raise performance.
        GpuCategory::III
    } else if st.sm_clock < gpu.sm.top() {
        GpuCategory::II
    } else {
        GpuCategory::I
    }
}

/// The contiguous scenario spans of a sweep profile, in sweep order —
/// the structure Fig. 3/4 visualizes.
pub fn cpu_scenario_spans(
    profile: &SweepProfile,
    criticals: &CriticalPowers,
    dram: &DramSpec,
    pattern_cost: f64,
) -> Vec<(CpuScenario, Watts, Watts)> {
    let mut spans: Vec<(CpuScenario, Watts, Watts)> = Vec::new();
    for pt in &profile.points {
        let s = classify_cpu_point(&pt.op, criticals, dram, pattern_cost);
        match spans.last_mut() {
            Some((last, _, hi)) if *last == s => *hi = pt.alloc.proc,
            _ => spans.push((s, pt.alloc.proc, pt.alloc.proc)),
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PowerBoundedProblem;
    use crate::sweep::{sweep_budget, DEFAULT_STEP};
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_platform::CpuSpec;
    use pbc_platform::DramSpec;
    use pbc_types::PowerAllocation;
    use pbc_workloads::by_name;

    fn node() -> (CpuSpec, DramSpec) {
        let p = ivybridge();
        (p.cpu().unwrap().clone(), p.dram().unwrap().clone())
    }

    const SRA_COST: f64 = 2.0;

    fn sra_fixture() -> (SweepProfile, CriticalPowers, DramSpec) {
        let (cpu, dram) = node();
        let sra = by_name("sra").unwrap();
        let criticals = CriticalPowers::probe(&cpu, &dram, &sra.demand);
        let problem =
            PowerBoundedProblem::new(ivybridge(), sra.demand, Watts::new(240.0)).unwrap();
        let profile = sweep_budget(&problem, DEFAULT_STEP).unwrap();
        (profile, criticals, dram)
    }

    #[test]
    fn sra_240w_exhibits_all_six_scenarios() {
        // The paper's Fig. 3: at 240 W on IvyBridge, the SRA sweep crosses
        // every one of the six categories.
        let (profile, criticals, dram) = sra_fixture();
        use std::collections::HashSet;
        let seen: HashSet<CpuScenario> = profile
            .points
            .iter()
            .map(|p| classify_cpu_point(&p.op, &criticals, &dram, SRA_COST))
            .collect();
        for s in [
            CpuScenario::I,
            CpuScenario::II,
            CpuScenario::III,
            CpuScenario::IV,
            CpuScenario::V,
            CpuScenario::VI,
        ] {
            assert!(seen.contains(&s), "scenario {s} missing; saw {seen:?}");
        }
    }

    #[test]
    fn scenario_ordering_along_the_proc_axis() {
        // Walking the proc cap upward: VI first (unenforceable), then IV
        // (T-states), then II (P-states), then I, then III (memory gets
        // squeezed), then V (memory at floor).
        let (profile, criticals, dram) = sra_fixture();
        let spans = cpu_scenario_spans(&profile, &criticals, &dram, SRA_COST);
        let order: Vec<CpuScenario> = spans.iter().map(|(s, _, _)| *s).collect();
        // The exact span boundaries wobble with stepping, but the coarse
        // order is fixed.
        let expected = [
            CpuScenario::VI,
            CpuScenario::IV,
            CpuScenario::II,
            CpuScenario::I,
            CpuScenario::III,
            CpuScenario::V,
        ];
        let filtered: Vec<CpuScenario> = order
            .iter()
            .copied()
            .filter(|s| expected.contains(s))
            .collect();
        // Deduplicate consecutive repeats for comparison.
        let mut dedup = vec![];
        for s in filtered {
            if dedup.last() != Some(&s) {
                dedup.push(s);
            }
        }
        assert_eq!(dedup, expected, "spans: {spans:?}");
    }

    #[test]
    fn scenario_i_spans_the_papers_region() {
        // Paper: scenario I at P_mem ∈ [120, 132] (P_cpu ∈ [108, 120]) for
        // SRA at 240 W. Our calibrated region must overlap that window.
        let (profile, criticals, dram) = sra_fixture();
        let ones: Vec<f64> = profile
            .points
            .iter()
            .filter(|p| classify_cpu_point(&p.op, &criticals, &dram, SRA_COST) == CpuScenario::I)
            .map(|p| p.alloc.proc.value())
            .collect();
        assert!(!ones.is_empty(), "scenario I must exist at 240 W");
        let lo = ones.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ones.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo <= 120.0 && hi >= 110.0, "scenario I spans [{lo}, {hi}]");
    }

    #[test]
    fn scenario_iv_collapses_performance() {
        let (profile, criticals, dram) = sra_fixture();
        let perf_in = |s: CpuScenario| -> Vec<f64> {
            profile
                .points
                .iter()
                .filter(|p| classify_cpu_point(&p.op, &criticals, &dram, SRA_COST) == s)
                .map(|p| p.op.perf_rel)
                .collect()
        };
        let ii = perf_in(CpuScenario::II);
        let iv = perf_in(CpuScenario::IV);
        assert!(!ii.is_empty() && !iv.is_empty());
        let ii_min = ii.iter().cloned().fold(f64::INFINITY, f64::min);
        let iv_max = iv.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            iv_max < ii_min,
            "scenario IV ({iv_max}) must underperform scenario II ({ii_min})"
        );
    }

    #[test]
    fn scenario_iv_drops_dram_power() {
        // §3.2: "memory consumes much less power than its allocation,
        // mainly due to the fact that CPUs make less frequent memory
        // requests".
        let (profile, criticals, dram) = sra_fixture();
        let mem_power = |s: CpuScenario| -> f64 {
            let v: Vec<f64> = profile
                .points
                .iter()
                .filter(|p| classify_cpu_point(&p.op, &criticals, &dram, SRA_COST) == s)
                .map(|p| p.op.mem_power.value())
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        assert!(mem_power(CpuScenario::IV) < 0.8 * mem_power(CpuScenario::II));
    }

    #[test]
    fn budget_below_max_demand_removes_scenario_i() {
        // §3.2: "if the total power budget is less than the sum of maximum
        // cpu power and memory power demands, scenario I does not appear".
        let (cpu, dram) = node();
        let sra = by_name("sra").unwrap();
        let criticals = CriticalPowers::probe(&cpu, &dram, &sra.demand);
        let problem =
            PowerBoundedProblem::new(ivybridge(), sra.demand, Watts::new(190.0)).unwrap();
        let profile = sweep_budget(&problem, DEFAULT_STEP).unwrap();
        assert!(
            Watts::new(190.0) < criticals.max_demand(),
            "fixture must be under max demand"
        );
        let any_one = profile
            .points
            .iter()
            .any(|p| classify_cpu_point(&p.op, &criticals, &dram, SRA_COST) == CpuScenario::I);
        assert!(!any_one, "scenario I must disappear at 190 W");
    }

    #[test]
    fn gpu_stream_categories() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let stream = by_name("gpu-stream").unwrap();
        let bw_demand = 0.95 * gpu.mem.max_bandwidth.value();
        // Memory-starved allocation at a generous total: category III.
        let op = pbc_powersim::solve_gpu(
            &gpu,
            &stream.demand,
            PowerAllocation::new(Watts::new(230.0), Watts::new(20.0)),
        )
        .unwrap();
        assert_eq!(classify_gpu_point(&op, &gpu, bw_demand), GpuCategory::III);
        // Generous everything: category I.
        let op = pbc_powersim::solve_gpu(
            &gpu,
            &stream.demand,
            PowerAllocation::new(Watts::new(230.0), Watts::new(70.0)),
        )
        .unwrap();
        assert_eq!(classify_gpu_point(&op, &gpu, bw_demand), GpuCategory::I);
    }

    #[test]
    fn gpu_sgemm_small_cap_is_category_ii() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let sgemm = by_name("sgemm").unwrap();
        let bw_demand = 0.5 * gpu.mem.max_bandwidth.value();
        let op = pbc_powersim::solve_gpu(
            &gpu,
            &sgemm.demand,
            PowerAllocation::new(Watts::new(90.0), Watts::new(70.0)),
        )
        .unwrap();
        assert_eq!(classify_gpu_point(&op, &gpu, bw_demand), GpuCategory::II);
    }

    #[test]
    fn spans_partition_the_profile() {
        let (profile, criticals, dram) = sra_fixture();
        let spans = cpu_scenario_spans(&profile, &criticals, &dram, SRA_COST);
        // Spans must be contiguous and cover the whole proc-cap range.
        assert_eq!(
            spans.first().unwrap().1,
            profile.points.first().unwrap().alloc.proc
        );
        assert_eq!(
            spans.last().unwrap().2,
            profile.points.last().unwrap().alloc.proc
        );
        for w in spans.windows(2) {
            assert!(w[0].2 < w[1].1, "spans must not overlap");
        }
    }
}
