//! Steady-state solver for a host node (CPU packages + DRAM) under RAPL
//! caps.
//!
//! ## Model
//!
//! For each workload phase, the solver finds the fixed point between three
//! coupled mechanisms:
//!
//! 1. **RAPL PKG capping** — pick the highest P-state whose package power
//!    (at the workload's *effective* switching activity) fits the cap; if
//!    even the lowest P-state doesn't fit, escalate to T-state clock
//!    modulation; if nothing fits, the cap is below the `P_cpu,L4` floor
//!    and is unenforceable (§3.3).
//! 2. **RAPL DRAM capping** — bandwidth throttling: the cap buys a
//!    bandwidth ceiling through the inverse power model, quantized to the
//!    throttle grid, floored at one throttle step (the system always makes
//!    progress; a cap under the background floor is disregarded).
//! 3. **Workload composition** — per unit of work (1 GFLOP), compute time
//!    `T_c = 1/(peak·eff·s)` and memory time `T_m = bytes/bw` combine as
//!    `T = ω·max(T_c,T_m) + (1−ω)(T_c+T_m)`. The achievable bandwidth
//!    itself degrades with processor speed: weakly under DVFS
//!    (`s_pstate^γ`, outstanding-miss concurrency is mostly
//!    frequency-independent) and proportionally under clock modulation
//!    (gated cycles issue nothing) — the asymmetry that makes scenario II
//!    gradual and scenario IV a collapse, exactly as the paper reports.
//!
//! The fixed point is on the activity factor: stalled cores switch less,
//! so the package power that RAPL must fit under the cap depends on the
//! stall fraction, which depends on the chosen state. For a fixed ladder
//! pick `(P-state, duty)` the composition, and so the activity it implies,
//! is constant: once two consecutive picks agree, the activity the first
//! of them implies *is* the fixed point. The solver therefore takes
//! undamped steps until two picks agree — 2.4 picks per phase on average
//! across the suite's CPU grid — and falls back to a 0.5-damped iteration
//! (counted in `solve.fixed_point_fallbacks`) only when the picks keep
//! changing. The damped loop alone, which [`solve_cpu_damped`] keeps as
//! the reference, took 29.6.

use crate::demand::{PhaseDemand, WorkloadDemand};
use crate::operating::{CpuMechanismState, MechanismState, NodeOperatingPoint};
use pbc_platform::{CpuSpec, DramSpec};
use pbc_types::{Bandwidth, PowerAllocation, Watts};

/// Result of solving one phase.
#[derive(Debug, Clone, Copy)]
struct PhasePoint {
    /// Time per unit work (seconds per GFLOP).
    time: f64,
    /// Actual package power during the phase.
    cpu_power: Watts,
    /// Actual DRAM power during the phase.
    dram_power: Watts,
    /// Achieved raw bandwidth during the phase.
    bandwidth: Bandwidth,
    /// Compute-busy fraction.
    busy: f64,
    /// Mechanism state.
    state: CpuMechanismState,
}

/// The bandwidth ceiling a DRAM cap buys for a phase, floored at one
/// throttle step so execution always progresses (caps below the background
/// floor are disregarded by the hardware, §3.3).
pub(crate) fn dram_bw_ceiling(dram: &DramSpec, cap: Watts, pattern_cost: f64) -> Bandwidth {
    let step = dram.max_bandwidth / dram.throttle_levels.max(1) as f64;
    dram.bandwidth_under_cap(cap, pattern_cost).max(step)
}

/// A RAPL ladder pick: `(P-state index, duty, unenforceable)`.
type Pick = (usize, f64, bool);

/// The ladder's pick for a package cap at a given effective activity:
/// the RAPL escalation ladder.
fn rapl_pick_state(cpu: &CpuSpec, cap: Watts, activity: f64) -> Pick {
    // P-states, highest frequency first.
    for (i, st) in cpu.pstates.states().iter().enumerate().rev() {
        if cpu.power_at(st, activity) <= cap {
            return (i, 1.0, false);
        }
    }
    // T-states at the lowest P-state, lightest throttle first.
    let lowest = cpu.pstates.lowest();
    for &duty in &cpu.tstate_duties {
        if cpu.power_at_duty(lowest, duty, activity) <= cap {
            return (0, duty, false);
        }
    }
    // Even the deepest throttle (whose power floors at P_cpu,L4) exceeds
    // the cap: unenforceable, run at the floor.
    let duty = cpu.min_duty();
    (0, duty, true)
}

/// Execution-time composition for a phase at processor speed factors
/// `(s_pstate, duty)` and a bandwidth ceiling. Returns
/// `(time-per-GFLOP, busy fraction, achieved bandwidth)`.
pub(crate) fn compose(
    phase: &PhaseDemand,
    peak_gflops: f64,
    max_bw: Bandwidth,
    s_pstate: f64,
    duty: f64,
    bw_cap: Bandwidth,
) -> (f64, f64, Bandwidth) {
    let s = s_pstate * duty;
    let t_c = 1.0 / (peak_gflops * phase.compute_efficiency * s);
    // Bytes of raw traffic per GFLOP of work, in GB.
    let bytes_gb = 1.0 / phase.arithmetic_intensity;
    // The phase's own ceiling: concurrency-limited fraction of peak,
    // degraded weakly by DVFS and proportionally by clock gating.
    let phase_bw = max_bw.value()
        * phase.bw_saturation
        * s_pstate.powf(phase.issue_sensitivity)
        * duty;
    let bw = phase_bw.min(bw_cap.value()).max(1e-9);
    let t_m = bytes_gb / bw;
    let w = phase.overlap;
    let t = w * t_c.max(t_m) + (1.0 - w) * (t_c + t_m);
    let busy = (t_c / t).clamp(0.0, 1.0);
    let bw_used = Bandwidth::new(bytes_gb / t);
    (t, busy, bw_used)
}

/// Most undamped steps [`solve_phase`] takes before it falls back to the
/// damped loop.
const MAX_UNDAMPED_STEPS: usize = 6;

/// True when two picks run the same composition: the same P-state and a
/// bit-identical duty.
fn same_pick((a_state, a_duty, _): Pick, (b_state, b_duty, _): Pick) -> bool {
    a_state == b_state && a_duty.to_bits() == b_duty.to_bits()
}

/// A pick's composition: time per GFLOP, busy fraction and achieved
/// bandwidth, plus the activity factor they imply.
struct Composed {
    time: f64,
    busy: f64,
    bandwidth: Bandwidth,
    activity: f64,
}

/// One phase under one allocation: the inputs every step of its fixed
/// point shares.
struct PhaseCtx<'a> {
    cpu: &'a CpuSpec,
    dram: &'a DramSpec,
    phase: &'a PhaseDemand,
    cap: Watts,
    bw_cap: Bandwidth,
}

impl PhaseCtx<'_> {
    fn pick(&self, activity: f64) -> Pick {
        rapl_pick_state(self.cpu, self.cap, activity)
    }

    fn compose(&self, (idx, duty, _): Pick) -> Composed {
        let s_pstate = self.cpu.pstates.states()[idx].speed(self.cpu.pstates.nominal());
        let peak = self.cpu.peak_gflops();
        let (time, busy, bandwidth) =
            compose(self.phase, peak, self.dram.max_bandwidth, s_pstate, duty, self.bw_cap);
        let activity = self.phase.act_compute * busy + self.phase.act_stall * (1.0 - busy);
        Composed { time, busy, bandwidth, activity }
    }

    /// The phase's operating point: pick `picked`, composed as `c`, at
    /// switching activity `activity`.
    fn point(&self, picked: Pick, c: &Composed, activity: f64) -> PhasePoint {
        let (idx, duty, unenforceable) = picked;
        let st = &self.cpu.pstates.states()[idx];
        PhasePoint {
            time: c.time,
            cpu_power: self.cpu.power_at_duty(st, duty, activity),
            dram_power: self.dram.power_at(c.bandwidth, self.phase.pattern_cost),
            bandwidth: c.bandwidth,
            busy: c.busy,
            state: CpuMechanismState { pstate: idx, duty, cap_unenforceable: unenforceable },
        }
    }
}

/// Solve one phase under the caps. For a fixed pick the activity map is
/// constant, so undamped steps stop as soon as two consecutive picks
/// agree: the activity the first one implied is the fixed point. Picks
/// that keep changing fall back to [`solve_phase_damped`].
fn solve_phase(ctx: &PhaseCtx<'_>) -> PhasePoint {
    let mut picked = ctx.pick(ctx.phase.act_compute);
    for _ in 0..MAX_UNDAMPED_STEPS {
        let composed = ctx.compose(picked);
        let next = ctx.pick(composed.activity);
        if same_pick(next, picked) {
            return ctx.point(next, &composed, composed.activity);
        }
        picked = next;
    }
    pbc_trace::cached_counter!(pbc_trace::names::SOLVE_FIXED_POINT_FALLBACKS).incr();
    solve_phase_damped(ctx)
}

/// The 0.5-damped fixed-point iteration on the activity factor, stopped
/// at `|Δ| < 1e-9` or after 32 steps: [`solve_phase`]'s fallback, and the
/// reference behind [`solve_cpu_damped`].
fn solve_phase_damped(ctx: &PhaseCtx<'_>) -> PhasePoint {
    let mut activity = ctx.phase.act_compute;
    for _ in 0..32 {
        let next = ctx.compose(ctx.pick(activity)).activity;
        if (next - activity).abs() < 1e-9 {
            activity = next;
            break;
        }
        activity = 0.5 * activity + 0.5 * next;
    }
    // Recompose at the final activity so the reported state and power
    // are mutually consistent even if the loop hit its bound.
    let picked = ctx.pick(activity);
    ctx.point(picked, &ctx.compose(picked), activity)
}

/// A per-phase solver: [`solve_phase`] or [`solve_phase_damped`].
type PhaseSolver = fn(&PhaseCtx<'_>) -> PhasePoint;

/// An allocation generous enough that nothing is constrained — used to
/// compute the nominal (unconstrained) execution time that `perf_rel`
/// normalizes against.
pub(crate) fn unconstrained_alloc(cpu: &CpuSpec, dram: &DramSpec) -> PowerAllocation {
    PowerAllocation::new(
        cpu.max_power(1.0) + Watts::new(10.0),
        dram.max_power(4.0) + Watts::new(10.0),
    )
}

/// Run every phase at one allocation and time-weight the results.
fn run_phases(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    weights: &[f64],
    alloc: PowerAllocation,
    solve_phase: PhaseSolver,
) -> (f64, Vec<PhasePoint>) {
    let points: Vec<PhasePoint> = demand
        .phases
        .iter()
        .map(|(_, phase)| {
            solve_phase(&PhaseCtx {
                cpu,
                dram,
                phase,
                cap: alloc.proc,
                bw_cap: dram_bw_ceiling(dram, alloc.mem, phase.pattern_cost),
            })
        })
        .collect();
    let total: f64 = weights.iter().zip(&points).map(|(w, pt)| w * pt.time).sum();
    (total, points)
}

/// The nominal (unconstrained) execution time that `perf_rel` normalizes
/// against. Depends only on `(cpu, dram, demand)` — never on the
/// allocation — so callers solving many allocations of the same problem
/// (the memo, the shared-grid oracle) compute it once.
pub(crate) fn nominal_time(cpu: &CpuSpec, dram: &DramSpec, demand: &WorkloadDemand) -> f64 {
    nominal_time_with(cpu, dram, demand, solve_phase)
}

fn nominal_time_with(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    solve_phase: PhaseSolver,
) -> f64 {
    let weights = demand.normalized_weights();
    run_phases(cpu, dram, demand, &weights, unconstrained_alloc(cpu, dram), solve_phase).0
}

/// Solve the steady-state operating point of a host node running
/// `demand` under the allocation `alloc`.
///
/// The returned [`NodeOperatingPoint::perf_rel`] is normalized to the same
/// workload on the same platform with unconstrained power, so 1.0 always
/// means "no slowdown from capping".
pub fn solve_cpu(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    alloc: PowerAllocation,
) -> NodeOperatingPoint {
    solve_cpu_with_nominal(cpu, dram, demand, alloc, nominal_time(cpu, dram, demand))
}

/// [`solve_cpu`] with every phase solved by the damped iteration alone:
/// the reference the converged solve is tested against. `perf_rel` and
/// the mechanism state agree bit for bit, powers to within the damped
/// loop's stopping tolerance.
// pbc-lint: allow(unreached-pub) the reference the solve tests compare against
pub fn solve_cpu_damped(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    alloc: PowerAllocation,
) -> NodeOperatingPoint {
    let t_nominal = nominal_time_with(cpu, dram, demand, solve_phase_damped);
    solve_cpu_with(cpu, dram, demand, alloc, t_nominal, solve_phase_damped)
}

/// [`solve_cpu`] with the nominal time precomputed by [`nominal_time`] —
/// the hot path for memoized multi-allocation solving. Bit-identical to
/// `solve_cpu` when `t_nominal` comes from the same `(cpu, dram, demand)`.
pub(crate) fn solve_cpu_with_nominal(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    alloc: PowerAllocation,
    t_nominal: f64,
) -> NodeOperatingPoint {
    solve_cpu_with(cpu, dram, demand, alloc, t_nominal, solve_phase)
}

fn solve_cpu_with(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    alloc: PowerAllocation,
    t_nominal: f64,
    solve_phase: PhaseSolver,
) -> NodeOperatingPoint {
    let weights = demand.normalized_weights();
    let (t_capped, points) = run_phases(cpu, dram, demand, &weights, alloc, solve_phase);

    // Time-weighted averages over phases.
    let mut cpu_power = 0.0;
    let mut dram_power = 0.0;
    let mut bw = 0.0;
    let mut busy = 0.0;
    for (w, pt) in weights.iter().zip(&points) {
        let frac = if t_capped > 0.0 { w * pt.time / t_capped } else { 0.0 };
        cpu_power += frac * pt.cpu_power.value();
        dram_power += frac * pt.dram_power.value();
        bw += frac * pt.bandwidth.value();
        busy += frac * pt.busy;
    }
    // Report the state of the dominant (longest-running) phase.
    let dominant = weights
        .iter()
        .zip(&points)
        .max_by(|a, b| {
            (a.0 * a.1.time)
                .partial_cmp(&(b.0 * b.1.time))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(_, pt)| pt.state)
        .unwrap_or(CpuMechanismState {
            pstate: cpu.pstates.len() - 1,
            duty: 1.0,
            cap_unenforceable: false,
        });

    NodeOperatingPoint {
        alloc,
        perf_rel: if t_capped > 0.0 { t_nominal / t_capped } else { 0.0 },
        proc_power: Watts::new(cpu_power),
        mem_power: Watts::new(dram_power),
        work_rate: if t_capped > 0.0 { 1.0 / t_capped } else { 0.0 },
        bandwidth: Bandwidth::new(bw),
        proc_busy: busy,
        mechanism: MechanismState::Cpu(dominant),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseDemand;
    use pbc_platform::presets::ivybridge;

    fn node() -> (CpuSpec, DramSpec) {
        let p = ivybridge();
        (p.cpu().unwrap().clone(), p.dram().unwrap().clone())
    }

    fn generous() -> PowerAllocation {
        PowerAllocation::new(Watts::new(250.0), Watts::new(250.0))
    }

    #[test]
    fn unconstrained_perf_is_one() {
        let (cpu, dram) = node();
        for phase in [
            PhaseDemand::compute_bound(),
            PhaseDemand::stream_bound(),
            PhaseDemand::random_bound(),
        ] {
            let w = WorkloadDemand::single("w", phase);
            let op = solve_cpu(&cpu, &dram, &w, generous());
            assert!((op.perf_rel - 1.0).abs() < 1e-9, "{} perf {}", w.name, op.perf_rel);
            assert!(op.respects_bound());
        }
    }

    #[test]
    fn perf_monotone_in_cpu_cap() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let mut last = 0.0;
        for cap in (48..=200).step_by(4) {
            let op = solve_cpu(
                &cpu,
                &dram,
                &w,
                PowerAllocation::new(Watts::new(cap as f64), Watts::new(200.0)),
            );
            assert!(
                op.perf_rel >= last - 1e-6,
                "perf must not fall as the CPU cap rises: cap={cap} perf={} last={last}",
                op.perf_rel
            );
            last = op.perf_rel;
        }
        assert!(last > 0.99, "generous cap must reach full performance");
    }

    #[test]
    fn perf_monotone_in_mem_cap() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let mut last = 0.0;
        for cap in (40..=140).step_by(4) {
            let op = solve_cpu(
                &cpu,
                &dram,
                &w,
                PowerAllocation::new(Watts::new(200.0), Watts::new(cap as f64)),
            );
            assert!(op.perf_rel >= last - 1e-6, "cap={cap}");
            last = op.perf_rel;
        }
        assert!(last > 0.99);
    }

    #[test]
    fn caps_are_respected_when_enforceable() {
        let (cpu, dram) = node();
        for phase in [
            PhaseDemand::compute_bound(),
            PhaseDemand::stream_bound(),
            PhaseDemand::random_bound(),
        ] {
            let w = WorkloadDemand::single("w", phase);
            // The DRAM floor: background plus one throttle step of traffic
            // at this phase's pattern cost. Caps below it are disregarded
            // by the hardware (§3.3), so enforcement is only promised above.
            let step = dram.max_bandwidth / dram.throttle_levels as f64;
            let mem_floor = dram.power_at(step, phase.pattern_cost);
            for pc in (50..=200).step_by(10) {
                for pm in (42..=160).step_by(8) {
                    let alloc =
                        PowerAllocation::new(Watts::new(pc as f64), Watts::new(pm as f64));
                    let op = solve_cpu(&cpu, &dram, &w, alloc);
                    assert!(
                        op.proc_power.value() <= pc as f64 + 1e-6,
                        "CPU cap {pc} violated: {}",
                        op.proc_power
                    );
                    assert!(
                        op.mem_power.value() <= (pm as f64).max(mem_floor.value()) + 1e-6,
                        "DRAM cap {pm} violated: {}",
                        op.mem_power
                    );
                }
            }
        }
    }

    #[test]
    fn cap_below_floor_is_unenforceable() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("sra", PhaseDemand::random_bound());
        let op = solve_cpu(
            &cpu,
            &dram,
            &w,
            PowerAllocation::new(Watts::new(30.0), Watts::new(200.0)),
        );
        // The paper's scenario VI: the package still draws its 48 W floor.
        assert!((op.proc_power.value() - 48.0).abs() < 1e-6);
        match op.mechanism {
            MechanismState::Cpu(st) => assert!(st.cap_unenforceable),
            _ => panic!("expected CPU mechanism"),
        }
        assert!(!op.respects_bound() || op.alloc.total().value() >= op.total_power().value());
    }

    #[test]
    fn mem_cap_below_background_is_disregarded() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let op = solve_cpu(
            &cpu,
            &dram,
            &w,
            PowerAllocation::new(Watts::new(150.0), Watts::new(20.0)),
        );
        // DRAM draws at least its background floor plus one throttle step
        // of traffic, despite the 20 W cap.
        assert!(op.mem_power.value() > 20.0);
        // And performance collapses to the throttle floor.
        assert!(op.perf_rel < 0.1);
    }

    #[test]
    fn random_access_unconstrained_draw_matches_paper_anchor() {
        // The paper reports 112 W CPU / 116 W DRAM for RandomAccess on the
        // IvyBridge node in scenario I. The calibrated SRA parameters live
        // in pbc-workloads; the generic random_bound phase here must land
        // in the same region (±15 W) to keep the categorization shapes.
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("sra", PhaseDemand::random_bound());
        let op = solve_cpu(&cpu, &dram, &w, generous());
        assert!(
            (op.proc_power.value() - 112.0).abs() < 25.0,
            "CPU draw {} too far from the 112 W anchor",
            op.proc_power
        );
        assert!(
            (op.mem_power.value() - 116.0).abs() < 25.0,
            "DRAM draw {} too far from the 116 W anchor",
            op.mem_power
        );
    }

    #[test]
    fn dvfs_region_is_gradual_tstate_region_is_sharp() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("sra", PhaseDemand::random_bound());
        let at = |cap: f64| {
            solve_cpu(
                &cpu,
                &dram,
                &w,
                PowerAllocation::new(Watts::new(cap), Watts::new(200.0)),
            )
            .perf_rel
        };
        let full = at(200.0);
        let lowest_pstate = at(70.0); // P-state region bottom
        let throttled = at(52.0); // T-state territory
        // Gradual: DVFS keeps most of the latency-bound performance.
        assert!(lowest_pstate > 0.7 * full, "DVFS too damaging: {lowest_pstate} vs {full}");
        // Sharp: clock modulation collapses it.
        assert!(throttled < 0.75 * lowest_pstate, "T-state drop too mild: {throttled} vs {lowest_pstate}");
    }

    #[test]
    fn memory_capped_cpu_draws_less_than_max() {
        // Scenario III: CPU uncapped but stalled on throttled memory draws
        // noticeably less than its own maximum demand.
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let free = solve_cpu(&cpu, &dram, &w, generous());
        let starved = solve_cpu(
            &cpu,
            &dram,
            &w,
            PowerAllocation::new(Watts::new(250.0), Watts::new(48.0)),
        );
        assert!(starved.proc_power < free.proc_power);
        assert!(starved.proc_busy < free.proc_busy);
    }

    #[test]
    fn multiphase_time_weighted_composition() {
        let (cpu, dram) = node();
        let mixed = WorkloadDemand::phased(
            "bt-like",
            vec![
                (0.7, PhaseDemand::compute_bound()),
                (0.3, PhaseDemand::stream_bound()),
            ],
        );
        let op = solve_cpu(&cpu, &dram, &mixed, generous());
        assert!((op.perf_rel - 1.0).abs() < 1e-9);
        // Power sits between the two pure phases' draws.
        let c = solve_cpu(
            &cpu,
            &dram,
            &WorkloadDemand::single("c", PhaseDemand::compute_bound()),
            generous(),
        );
        let s = solve_cpu(
            &cpu,
            &dram,
            &WorkloadDemand::single("s", PhaseDemand::stream_bound()),
            generous(),
        );
        let lo = c.proc_power.min(s.proc_power);
        let hi = c.proc_power.max(s.proc_power);
        assert!(op.proc_power >= lo && op.proc_power <= hi);
    }

    #[test]
    fn bandwidth_never_exceeds_hardware_peak() {
        let (cpu, dram) = node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let op = solve_cpu(&cpu, &dram, &w, generous());
        assert!(op.bandwidth <= dram.max_bandwidth);
        assert!(op.bandwidth.value() > 0.5 * dram.max_bandwidth.value());
    }
}
