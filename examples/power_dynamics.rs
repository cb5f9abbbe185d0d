//! Watch the control loops in action: the discrete-time engine running a
//! workload while the node's power budget is re-programmed mid-run.
//!
//! One continuous 1.5 s simulation of STREAM on the IvyBridge node:
//! a generous budget, then a hard cut at t = 0.5 s (RAPL walks the
//! P-state ladder down, the DRAM throttle steps in), then a partial
//! restore at t = 1.0 s (the controllers climb back). The controllers are
//! never reset — the trace is the genuine transient.
//!
//! ```text
//! cargo run --example power_dynamics
//! ```

use power_bounded_computing::powersim::{simulate_cpu_with_events, SimConfig};
use power_bounded_computing::prelude::*;
use power_bounded_computing::types::Seconds;

fn main() -> Result<()> {
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    let stream = by_name("stream").unwrap();

    let generous = PowerAllocation::new(Watts::new(150.0), Watts::new(120.0));
    let slashed = PowerAllocation::new(Watts::new(70.0), Watts::new(60.0));
    let restored = PowerAllocation::new(Watts::new(110.0), Watts::new(90.0));

    println!("STREAM on {} under a re-programmed power budget", platform.id);
    println!("t=0.0s: caps (150, 120) | t=0.5s: cut to (70, 60) | t=1.0s: restore to (110, 90)\n");

    let cfg = SimConfig {
        dt: Seconds::new(0.001),
        duration: Seconds::new(1.5),
        window: 8,
        sample_stride: 50,
    };
    let sim = simulate_cpu_with_events(
        cpu,
        dram,
        &stream.demand,
        generous,
        &[(Seconds::new(0.5), slashed), (Seconds::new(1.0), restored)],
        &cfg,
    );

    println!("{:>8}  {:>10}  {:>10}  {:>12}", "t (ms)", "CPU (W)", "DRAM (W)", "work rate");
    for s in &sim.samples {
        let marker = match s.t.value() {
            t if (t - 0.5).abs() < 0.026 => "  <- budget cut",
            t if (t - 1.0).abs() < 0.026 => "  <- partial restore",
            _ => "",
        };
        println!(
            "{:>8.0}  {:>10.1}  {:>10.1}  {:>12.1}{marker}",
            s.t.value() * 1000.0,
            s.proc_power.value(),
            s.mem_power.value(),
            s.work_rate
        );
    }

    // Compare the settling points against the steady-state solver.
    for (label, alloc) in [("slashed", slashed), ("restored", restored)] {
        let steady = solve(&platform, &stream.demand, alloc)?;
        println!(
            "\nsteady-state prediction for the {label} regime: perf {:.3}, total {:.1} W",
            steady.perf_rel,
            steady.total_power().value()
        );
    }
    println!("\nTotal energy over the run: {:.1} J", sim.throughput.energy.value());
    println!("The engine's settling points match the steady-state solver — the");
    println!("agreement every sweep-based analysis in this library rests on.");
    Ok(())
}
