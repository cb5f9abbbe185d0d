//! Discrete-time simulation engine.
//!
//! The steady-state solvers answer "where does the control system
//! settle?"; this engine answers "how does it get there, and does it stay
//! there?" by stepping the actual control loops:
//!
//! * every tick the workload runs at the rates the *current* mechanism
//!   states allow (P-state/duty and DRAM throttle level on a host; SM
//!   clock and pinned memory level on a GPU),
//! * the controllers observe the resulting powers through their running-
//!   average windows and move one ladder step,
//! * the optional thermal model integrates temperature and feeds leakage
//!   back into package power.
//!
//! The engine is the validation harness for the solvers (tests assert the
//! settled engine agrees with [`crate::solve_cpu`] / [`crate::solve_gpu`])
//! and the vehicle for transient studies: budget re-programming mid-run,
//! phase-change response, thermal soak.

use crate::cpunode;
use crate::demand::WorkloadDemand;
use crate::gpuctl::GpuCapper;
use crate::gpunode;
use crate::memctl::DramThrottle;
use crate::rapl::RaplController;
use crate::thermal::{ThermalModel, ThermalParams};
use pbc_platform::{CpuSpec, DramSpec, GpuSpec};
use pbc_types::{usize_from_f64, Joules, PowerAllocation, Result, Seconds, Throughput, Watts};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Control period (one controller step per tick).
    pub dt: Seconds,
    /// Total simulated time.
    pub duration: Seconds,
    /// Running-average window, in samples, for all controllers.
    pub window: usize,
    /// Optional thermal model parameters.
    pub thermal: Option<ThermalParams>,
    /// Keep every n-th sample in the trace (1 = all).
    pub sample_stride: usize,
}

impl SimConfig {
    /// Number of simulation ticks: `ceil(duration / dt)`, checked. A
    /// non-finite or negative ratio (zero `dt`, negative duration) yields
    /// zero steps — the simulation degenerates to an empty trace instead
    /// of a garbage step count from a saturating cast.
    #[must_use]
    pub fn steps(&self) -> usize {
        let ratio = (self.duration.value() / self.dt.value()).ceil();
        usize_from_f64(ratio).unwrap_or(0)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            dt: Seconds::new(0.001),
            duration: Seconds::new(2.0),
            window: 10,
            thermal: None,
            sample_stride: 1,
        }
    }
}

/// One trace sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSample {
    /// Simulated time of the sample.
    pub t: Seconds,
    /// Processing-component power.
    pub proc_power: Watts,
    /// Memory-component power.
    pub mem_power: Watts,
    /// Instantaneous work rate (GFLOP/s of workload progress).
    pub work_rate: f64,
    /// Die temperature, if the thermal model is on.
    pub temperature_c: Option<f64>,
}

/// Aggregated result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Decimated trace.
    pub samples: Vec<SimSample>,
    /// Work, time, and energy totals.
    pub throughput: Throughput,
    /// Mean processing-component power over the run.
    pub mean_proc_power: Watts,
    /// Mean memory-component power over the run.
    pub mean_mem_power: Watts,
    /// Mean relative performance over the *second half* of the run (after
    /// the controllers settle), normalized like
    /// [`crate::NodeOperatingPoint::perf_rel`].
    pub settled_perf_rel: f64,
    /// Mean total power over the second half of the run.
    pub settled_power: Watts,
}

/// Cycle through phases by work share: returns the phase index active
/// after `done / cycle` iterations of the application, with phases laid
/// out proportionally to their normalized weights within each iteration.
/// `cycle` is the work per application iteration; it is sized to ~0.25 s
/// of nominal execution so that phases last much longer than the
/// controllers' averaging windows (as real application phases do —
/// otherwise the running average would smear adjacent phases together and
/// let a hungry phase borrow headroom its neighbour left unused).
fn phase_at(weights: &[f64], done: f64, cycle: f64) -> usize {
    let pos = (done / cycle.max(1e-12)).fract();
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if pos < acc {
            return i;
        }
    }
    weights.len() - 1
}

/// Simulate a host node (CPU + DRAM under RAPL) for the configured
/// duration: [`simulate_cpu_with_events`] with no events.
pub fn simulate_cpu(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    alloc: PowerAllocation,
    config: &SimConfig,
) -> SimResult {
    simulate_cpu_with_events(cpu, dram, demand, alloc, &[], config)
}

/// Simulate a host node while the allocation is re-programmed at
/// scheduled times — the dynamic re-budgeting the paper leaves as future
/// work ("how to adapt this algorithm to support online dynamic power
/// budgeting"). `events` are `(time, new allocation)` pairs, applied in
/// time order (an event at a NaN time never fires); the controllers are
/// *not* reset, so the trace shows the real transient: the ladder
/// walking down after a cut, climbing after a restore.
pub fn simulate_cpu_with_events(
    cpu: &CpuSpec,
    dram: &DramSpec,
    demand: &WorkloadDemand,
    initial: PowerAllocation,
    events: &[(Seconds, PowerAllocation)],
    config: &SimConfig,
) -> SimResult {
    let weights = demand.normalized_weights();
    let nominal = *cpu.pstates.nominal();
    let peak = cpu.peak_gflops();

    // Nominal (unconstrained) rate for perf_rel normalization.
    let t_nominal: f64 = weights
        .iter()
        .zip(demand.phases.iter().map(|(_, p)| p))
        .map(|(w, p)| {
            let (t, _, _) = cpunode::compose(p, peak, dram.max_bandwidth, 1.0, 1.0, dram.max_bandwidth);
            w * t
        })
        .sum();
    let nominal_rate = 1.0 / t_nominal;
    let cycle_work = 0.25 * nominal_rate;

    let mut rapl = RaplController::new(cpu, initial.proc, config.window);
    let mut throttle = DramThrottle::new(dram, initial.mem, config.window);
    let mut thermal = config.thermal.map(ThermalModel::new);
    // PROCHOT latch: once the junction trips, the hardware forces the
    // deepest throttle regardless of RAPL's ladder position, releasing
    // only after a hysteresis margin below the trip point.
    let mut prochot = false;
    const PROCHOT_HYSTERESIS_C: f64 = 5.0;
    let mut pending: Vec<(Seconds, PowerAllocation)> =
        events.iter().copied().filter(|(t, _)| !t.value().is_nan()).collect();
    pending.sort_by(|a, b| a.0.value().total_cmp(&b.0.value()));
    let mut next_event = 0usize;

    let steps = config.steps();
    let mut samples = Vec::with_capacity(steps.div_ceil(config.sample_stride.max(1)));
    let mut work = 0.0;
    let mut energy = 0.0;
    let mut sum_cpu = 0.0;
    let mut sum_mem = 0.0;
    let mut half_rate = 0.0;
    let mut half_power = 0.0;
    let mut half_n = 0usize;

    for k in 0..steps {
        let now = Seconds::new(k as f64 * config.dt.value());
        while next_event < pending.len() && pending[next_event].0 <= now {
            let (_, alloc) = pending[next_event];
            rapl.set_cap(alloc.proc);
            throttle.set_cap(alloc.mem);
            next_event += 1;
        }
        let phase = &demand.phases[phase_at(&weights, work, cycle_work)].1;
        if let Some(t) = thermal.as_ref() {
            if t.tripped() {
                prochot = true;
            } else if t.temperature_c() < t.trip_c() - PROCHOT_HYSTERESIS_C {
                prochot = false;
            }
        }
        let pos = rapl.position();
        let (st, duty) = if prochot {
            (cpu.pstates.lowest(), cpu.min_duty())
        } else {
            (cpu.pstates.get(pos.pstate).unwrap(), pos.duty(cpu))
        };
        let s_pstate = st.speed(&nominal);
        let bw_cap = throttle.allowed_bandwidth(dram);

        let (t_unit, busy, bw_used) =
            cpunode::compose(phase, peak, dram.max_bandwidth, s_pstate, duty, bw_cap);
        let rate = 1.0 / t_unit;
        let activity = phase.act_compute * busy + phase.act_stall * (1.0 - busy);

        // Package power, with thermal leakage feedback when enabled.
        let leak_mult = thermal.as_ref().map(|t| t.leakage_multiplier()).unwrap_or(1.0);
        let leak = cpu.leakage_nominal * st.leak_scale(&nominal) * leak_mult;
        let dynamic = cpu.dyn_power_max * st.dyn_scale(&nominal) * duty * activity;
        let cpu_power = (leak + dynamic).max(cpu.min_active_power);
        let mem_power = dram.power_at(bw_used, phase.pattern_cost);

        // Integrate.
        let dt = config.dt.value();
        work += rate * dt;
        energy += (cpu_power + mem_power).value() * dt;
        sum_cpu += cpu_power.value();
        sum_mem += mem_power.value();
        if k >= steps / 2 {
            half_rate += rate;
            half_power += (cpu_power + mem_power).value();
            half_n += 1;
        }

        // Controllers and thermal step.
        rapl.observe_and_step(cpu, cpu_power);
        throttle.observe_and_step(dram, mem_power);
        if let Some(t) = thermal.as_mut() {
            t.step(cpu_power, config.dt);
        }

        if k % config.sample_stride.max(1) == 0 {
            samples.push(SimSample {
                t: now,
                proc_power: cpu_power,
                mem_power,
                work_rate: rate,
                temperature_c: thermal.as_ref().map(|t| t.temperature_c()),
            });
        }
    }

    let elapsed = Seconds::new(steps as f64 * config.dt.value());
    SimResult {
        samples,
        throughput: Throughput {
            work_done: work,
            elapsed,
            energy: Joules::new(energy),
        },
        mean_proc_power: Watts::new(sum_cpu / steps.max(1) as f64),
        mean_mem_power: Watts::new(sum_mem / steps.max(1) as f64),
        settled_perf_rel: if half_n > 0 {
            (half_rate / half_n as f64) / nominal_rate
        } else {
            0.0
        },
        settled_power: Watts::new(if half_n > 0 { half_power / half_n as f64 } else { 0.0 }),
    }
}

/// Simulate a GPU card under the boost governor for the configured
/// duration. The memory level is pinned from `alloc.mem` exactly as in
/// [`crate::solve_gpu`].
#[must_use = "the simulation result carries the settled operating point"]
pub fn simulate_gpu(
    gpu: &GpuSpec,
    demand: &WorkloadDemand,
    alloc: PowerAllocation,
    config: &SimConfig,
) -> Result<SimResult> {
    let weights = demand.normalized_weights();
    let mem_level = gpu.mem.level_under_cap(alloc.mem);
    let mut capper = GpuCapper::new(gpu, alloc.total(), mem_level, config.window)?;
    let mut thermal = config.thermal.map(ThermalModel::new);

    let t_nominal: f64 = weights
        .iter()
        .zip(demand.phases.iter().map(|(_, p)| p))
        .map(|(w, p)| w * gpunode::compose_at(gpu, p, gpu.sm.top(), gpu.mem.top()).time)
        .sum();
    let nominal_rate = 1.0 / t_nominal;
    let cycle_work = 0.25 * nominal_rate;

    let steps = config.steps();
    let mut samples = Vec::with_capacity(steps.div_ceil(config.sample_stride.max(1)));
    let mut work = 0.0;
    let mut energy = 0.0;
    let mut sum_sm = 0.0;
    let mut sum_mem = 0.0;
    let mut half_rate = 0.0;
    let mut half_power = 0.0;
    let mut half_n = 0usize;

    for k in 0..steps {
        let phase = &demand.phases[phase_at(&weights, work, cycle_work)].1;
        let pt = gpunode::compose_at(gpu, phase, capper.sm_clock(), mem_level);
        let rate = 1.0 / pt.time;
        // Thermal leakage feedback applies to the SM domain.
        let leak_mult = thermal.as_ref().map(|t| t.leakage_multiplier()).unwrap_or(1.0);
        let sm_power = pt.sm_power + gpu.sm.leakage_nominal * (leak_mult - 1.0);
        let total = sm_power + pt.mem_power;

        let dt = config.dt.value();
        work += rate * dt;
        energy += total.value() * dt;
        sum_sm += sm_power.value();
        sum_mem += pt.mem_power.value();
        if k >= steps / 2 {
            half_rate += rate;
            half_power += total.value();
            half_n += 1;
        }

        capper.observe_and_step(gpu, total);
        if let Some(t) = thermal.as_mut() {
            t.step(total, config.dt);
        }

        if k % config.sample_stride.max(1) == 0 {
            samples.push(SimSample {
                t: Seconds::new(k as f64 * dt),
                proc_power: sm_power,
                mem_power: pt.mem_power,
                work_rate: rate,
                temperature_c: thermal.as_ref().map(|t| t.temperature_c()),
            });
        }
    }

    let elapsed = Seconds::new(steps as f64 * config.dt.value());
    Ok(SimResult {
        samples,
        throughput: Throughput {
            work_done: work,
            elapsed,
            energy: Joules::new(energy),
        },
        mean_proc_power: Watts::new(sum_sm / steps.max(1) as f64),
        mean_mem_power: Watts::new(sum_mem / steps.max(1) as f64),
        settled_perf_rel: if half_n > 0 {
            (half_rate / half_n as f64) / nominal_rate
        } else {
            0.0
        },
        settled_power: Watts::new(if half_n > 0 { half_power / half_n as f64 } else { 0.0 }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseDemand;
    use crate::{solve_cpu, solve_gpu};
    use pbc_platform::presets::{ivybridge, titan_xp};

    fn cpu_node() -> (CpuSpec, DramSpec) {
        let p = ivybridge();
        (p.cpu().unwrap().clone(), p.dram().unwrap().clone())
    }

    fn config() -> SimConfig {
        SimConfig {
            dt: Seconds::new(0.001),
            duration: Seconds::new(1.0),
            window: 8,
            thermal: None,
            sample_stride: 10,
        }
    }

    /// A pathological thermal resistance: the die would soak far past
    /// the trip point at full power.
    fn tripping_config() -> SimConfig {
        SimConfig {
            duration: Seconds::new(2.0),
            thermal: Some(ThermalParams {
                ambient_c: 25.0,
                resistance_c_per_w: 1.0, // 170 W -> 195 C steady state
                time_constant: Seconds::new(0.2),
                leakage_per_c: 0.0,
                reference_c: 25.0,
                trip_c: 95.0,
            }),
            ..config()
        }
    }

    #[test]
    fn engine_agrees_with_steady_solver_cpu() {
        let (cpu, dram) = cpu_node();
        for (name, phase) in [
            ("dgemm", PhaseDemand::compute_bound()),
            ("stream", PhaseDemand::stream_bound()),
            ("sra", PhaseDemand::random_bound()),
        ] {
            let w = WorkloadDemand::single(name, phase);
            for alloc in [
                PowerAllocation::new(Watts::new(120.0), Watts::new(100.0)),
                PowerAllocation::new(Watts::new(80.0), Watts::new(120.0)),
                PowerAllocation::new(Watts::new(160.0), Watts::new(60.0)),
            ] {
                let steady = solve_cpu(&cpu, &dram, &w, alloc);
                let sim = simulate_cpu(&cpu, &dram, &w, alloc, &config());
                let rel_err = (sim.settled_perf_rel - steady.perf_rel).abs()
                    / steady.perf_rel.max(1e-9);
                assert!(
                    rel_err < 0.15,
                    "{name} @ {alloc}: engine {} vs steady {}",
                    sim.settled_perf_rel,
                    steady.perf_rel
                );
            }
        }
    }

    #[test]
    fn engine_respects_budget_after_settling_cpu() {
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let alloc = PowerAllocation::new(Watts::new(100.0), Watts::new(80.0));
        let sim = simulate_cpu(&cpu, &dram, &w, alloc, &config());
        // A small transient margin is allowed (running-average control),
        // but the settled mean must respect the budget.
        assert!(
            sim.settled_power.value() <= alloc.total().value() * 1.02,
            "settled at {}",
            sim.settled_power
        );
    }

    #[test]
    fn engine_agrees_with_steady_solver_gpu() {
        let gpu = titan_xp().gpu().unwrap().clone();
        let w = WorkloadDemand::single(
            "sgemm",
            PhaseDemand {
                compute_efficiency: 0.85,
                arithmetic_intensity: 40.0,
                bw_saturation: 0.5,
                pattern_cost: 1.0,
                overlap: 0.95,
                issue_sensitivity: 0.3,
                act_compute: 1.0,
                act_stall: 0.3,
            },
        );
        for total in [140.0, 200.0, 260.0] {
            let alloc = PowerAllocation::new(Watts::new(total - 30.0), Watts::new(30.0));
            let steady = solve_gpu(&gpu, &w, alloc).unwrap();
            let sim = simulate_gpu(&gpu, &w, alloc, &config()).unwrap();
            let rel_err =
                (sim.settled_perf_rel - steady.perf_rel).abs() / steady.perf_rel.max(1e-9);
            assert!(
                rel_err < 0.15,
                "cap {total}: engine {} vs steady {}",
                sim.settled_perf_rel,
                steady.perf_rel
            );
        }
    }

    #[test]
    fn thermal_soak_raises_power_slightly() {
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let alloc = PowerAllocation::new(Watts::new(250.0), Watts::new(150.0));
        let cold = simulate_cpu(&cpu, &dram, &w, alloc, &config());
        let mut cfg = config();
        // Reference leakage at ambient and a fast thermal constant so the
        // three simulated seconds actually soak the die.
        cfg.thermal = Some(ThermalParams {
            reference_c: 25.0,
            time_constant: Seconds::new(0.5),
            ..ThermalParams::server_default()
        });
        cfg.duration = Seconds::new(3.0);
        let hot = simulate_cpu(&cpu, &dram, &w, alloc, &cfg);
        // A hot, uncapped package leaks more than the athermal model.
        assert!(hot.settled_power > cold.settled_power);
        let last = hot.samples.last().unwrap();
        assert!(last.temperature_c.unwrap() > 50.0);
    }

    #[test]
    fn phase_cycling_visits_all_phases() {
        let weights = vec![0.25, 0.5, 0.25];
        let mut seen = [false; 3];
        for i in 0..100 {
            seen[phase_at(&weights, i as f64 * 0.0999, 1.0)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // A longer cycle stretches phases proportionally.
        assert_eq!(phase_at(&weights, 10.0, 100.0), 0);
        assert_eq!(phase_at(&weights, 40.0, 100.0), 1);
        assert_eq!(phase_at(&weights, 90.0, 100.0), 2);
    }

    #[test]
    fn prochot_engages_under_impossible_cooling() {
        // PROCHOT must latch and hold the settled power near the floor.
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let alloc = PowerAllocation::new(Watts::new(250.0), Watts::new(150.0));
        let hot = simulate_cpu(&cpu, &dram, &w, alloc, &tripping_config());
        // With PROCHOT cycling, the settled package power sits far below
        // the unconstrained ~170 W draw...
        let unconstrained = simulate_cpu(&cpu, &dram, &w, alloc, &config());
        assert!(
            hot.settled_power.value() < 0.75 * unconstrained.settled_power.value(),
            "PROCHOT must shed power: {} vs {}",
            hot.settled_power,
            unconstrained.settled_power
        );
        // ...and the die temperature is regulated near the trip point, not
        // at the 190+ C the open loop would reach.
        let last = hot.samples.last().unwrap().temperature_c.unwrap();
        assert!(last < 110.0, "temperature ran away: {last} C");
    }

    #[test]
    fn reprogramming_events_take_effect() {
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let generous = PowerAllocation::new(Watts::new(150.0), Watts::new(120.0));
        let tight = PowerAllocation::new(Watts::new(70.0), Watts::new(60.0));
        let mut cfg = config();
        cfg.duration = Seconds::new(2.0);
        // Cut the budget at t=1s; the settled window (second half) sees
        // only the tight regime.
        let sim = simulate_cpu_with_events(
            &cpu,
            &dram,
            &w,
            generous,
            &[(Seconds::new(1.0), tight)],
            &cfg,
        );
        let steady_tight = solve_cpu(&cpu, &dram, &w, tight);
        let rel = (sim.settled_perf_rel - steady_tight.perf_rel).abs()
            / steady_tight.perf_rel.max(1e-9);
        assert!(
            rel < 0.2,
            "after the cut the engine must settle at the tight point: {} vs {}",
            sim.settled_perf_rel,
            steady_tight.perf_rel
        );
        // The trace shows the transition: early samples draw much more
        // than late ones.
        let early = sim.samples.iter().find(|s| s.t.value() < 0.5).unwrap();
        let late = sim.samples.iter().rev().find(|s| s.t.value() > 1.5).unwrap();
        assert!(early.proc_power.value() > late.proc_power.value() + 20.0);
    }

    /// The evented loop is the plain loop: on a tripping run, an event
    /// that re-applies the initial allocation keeps the PROCHOT latch.
    #[test]
    fn a_no_op_event_on_a_tripping_run_matches_plain_simulation() {
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let alloc = PowerAllocation::new(Watts::new(250.0), Watts::new(150.0));
        let cfg = tripping_config();
        let plain = simulate_cpu(&cpu, &dram, &w, alloc, &cfg);
        let events = [(Seconds::new(0.5), alloc)];
        let evented = simulate_cpu_with_events(&cpu, &dram, &w, alloc, &events, &cfg);
        assert_eq!(format!("{plain:?}"), format!("{evented:?}"), "bit for bit");
    }

    /// A NaN event time sorts without panicking and never fires.
    #[test]
    fn nan_event_times_never_fire() {
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let alloc = PowerAllocation::new(Watts::new(120.0), Watts::new(90.0));
        let cut = PowerAllocation::new(Watts::new(70.0), Watts::new(60.0));
        let at = |t: f64| Seconds::new(t);
        let events = [(at(f64::NAN), alloc), (at(0.5), cut), (at(-f64::NAN), alloc)];
        let evented = simulate_cpu_with_events(&cpu, &dram, &w, alloc, &events, &config());
        let cut_only = simulate_cpu_with_events(&cpu, &dram, &w, alloc, &events[1..2], &config());
        assert_eq!(format!("{cut_only:?}"), format!("{evented:?}"), "bit for bit");
    }

    #[test]
    fn trace_is_decimated() {
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let alloc = PowerAllocation::new(Watts::new(120.0), Watts::new(90.0));
        let mut cfg = config();
        cfg.sample_stride = 100;
        let sim = simulate_cpu(&cpu, &dram, &w, alloc, &cfg);
        assert!(sim.samples.len() <= 11);
        assert!(!sim.samples.is_empty());
    }

    #[test]
    fn trace_capacity_is_exact() {
        // The sample vector is sized up front with div_ceil(steps,
        // stride); the push loop must fill it exactly — no reallocation
        // (growth) and no slack (over-allocation).
        let (cpu, dram) = cpu_node();
        let w = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        let alloc = PowerAllocation::new(Watts::new(120.0), Watts::new(90.0));
        for stride in [1usize, 3, 7, 10, 100, 1000, 5000] {
            let mut cfg = config();
            cfg.sample_stride = stride;
            let sim = simulate_cpu(&cpu, &dram, &w, alloc, &cfg);
            let steps = cfg.steps();
            assert_eq!(sim.samples.len(), steps.div_ceil(stride), "stride {stride}");
            assert_eq!(
                sim.samples.capacity(),
                sim.samples.len(),
                "stride {stride}: capacity {} for {} samples",
                sim.samples.capacity(),
                sim.samples.len()
            );
        }
    }
}
