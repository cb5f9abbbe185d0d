//! The discrete-time engine and the steady-state solvers must agree: the
//! control loops settle where the closed-form analysis says they do.

use power_bounded_computing::powersim::{simulate_cpu, simulate_gpu, SimConfig};
use power_bounded_computing::prelude::*;
use power_bounded_computing::types::Seconds;

fn config() -> SimConfig {
    SimConfig {
        dt: Seconds::new(0.001),
        duration: Seconds::new(1.0),
        window: 8,
        sample_stride: 50,
    }
}

/// Engine vs solver across the CPU suite at a mid budget.
#[test]
fn engine_matches_solver_across_cpu_suite() {
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for bench in cpu_suite() {
        let alloc = PowerAllocation::new(Watts::new(110.0), Watts::new(90.0));
        let steady = solve_cpu(cpu, dram, &bench.demand, alloc);
        let sim = simulate_cpu(cpu, dram, &bench.demand, alloc, &config());
        let rel = (sim.settled_perf_rel - steady.perf_rel).abs() / steady.perf_rel.max(1e-9);
        assert!(
            rel < 0.2,
            "{}: engine {:.3} vs steady {:.3}",
            bench.id,
            sim.settled_perf_rel,
            steady.perf_rel
        );
        // Power agreement too (the engine is the ground for EXPERIMENTS
        // numbers recorded from the solver).
        let p_rel = (sim.settled_power.value() - steady.total_power().value()).abs()
            / steady.total_power().value();
        assert!(
            p_rel < 0.15,
            "{}: engine {} vs steady {}",
            bench.id,
            sim.settled_power,
            steady.total_power()
        );
    }
}

/// Engine vs solver across the GPU suite on both cards.
#[test]
fn engine_matches_solver_across_gpu_suite() {
    for platform in [titan_xp(), titan_v()] {
        let gpu = platform.gpu().unwrap();
        for bench in gpu_suite() {
            let alloc = PowerAllocation::new(Watts::new(160.0), Watts::new(40.0));
            let steady = solve_gpu(gpu, &bench.demand, alloc).unwrap();
            let sim = simulate_gpu(gpu, &bench.demand, alloc, &config()).unwrap();
            let rel =
                (sim.settled_perf_rel - steady.perf_rel).abs() / steady.perf_rel.max(1e-9);
            assert!(
                rel < 0.2,
                "{} on {}: engine {:.3} vs steady {:.3}",
                bench.id,
                platform.id,
                sim.settled_perf_rel,
                steady.perf_rel
            );
        }
    }
}

/// Multi-phase workloads: the engine cycles through phases and still
/// settles at the solver's time-weighted composition.
#[test]
fn engine_matches_solver_on_multiphase_workloads() {
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for bench_name in ["bt", "mg", "ft"] {
        let bench = by_name(bench_name).unwrap();
        let alloc = PowerAllocation::new(Watts::new(120.0), Watts::new(88.0));
        let steady = solve_cpu(cpu, dram, &bench.demand, alloc);
        let mut cfg = config();
        cfg.duration = Seconds::new(2.0); // enough to cycle the phases
        let sim = simulate_cpu(cpu, dram, &bench.demand, alloc, &cfg);
        let rel = (sim.settled_perf_rel - steady.perf_rel).abs() / steady.perf_rel.max(1e-9);
        assert!(
            rel < 0.25,
            "{bench_name}: engine {:.3} vs steady {:.3}",
            sim.settled_perf_rel,
            steady.perf_rel
        );
    }
}

/// Energy accounting is consistent: mean power x time == energy.
#[test]
fn engine_energy_identity() {
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    let stream = by_name("stream").unwrap();
    let alloc = PowerAllocation::new(Watts::new(100.0), Watts::new(90.0));
    let sim = simulate_cpu(cpu, dram, &stream.demand, alloc, &config());
    let mean = sim.throughput.energy / sim.throughput.elapsed;
    let expect = sim.mean_proc_power + sim.mean_mem_power;
    assert!(
        (mean.value() - expect.value()).abs() < 0.5,
        "mean {} vs components {}",
        mean,
        expect
    );
    assert!(sim.throughput.work_done > 0.0);
    assert!(sim.throughput.energy.value() > 0.0);
}
