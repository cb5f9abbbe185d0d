//! Substrate throughput: the steady-state solvers (one evaluation = one
//! sweep point) and the discrete-time engine (cost per simulated second).

use pbc_bench::Bench;
use pbc_platform::presets::{ivybridge, titan_xp};
use pbc_powersim::{simulate_cpu, solve_cpu, solve_gpu, SimConfig};
use pbc_types::{PowerAllocation, Seconds, Watts};
use pbc_workloads::by_name;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::from_env();
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap().clone();
    let dram = platform.dram().unwrap().clone();

    for name in ["sra", "dgemm", "bt"] {
        let demand = by_name(name).unwrap().demand;
        bench.run(&format!("solve_cpu/{name}"), || {
            solve_cpu(
                &cpu,
                &dram,
                black_box(&demand),
                PowerAllocation::new(Watts::new(110.0), Watts::new(98.0)),
            )
        });
    }

    let gplatform = titan_xp();
    let gpu = gplatform.gpu().unwrap().clone();
    for name in ["sgemm", "minife"] {
        let demand = by_name(name).unwrap().demand;
        bench.run(&format!("solve_gpu/{name}"), || {
            solve_gpu(
                &gpu,
                black_box(&demand),
                PowerAllocation::new(Watts::new(160.0), Watts::new(40.0)),
            )
            .unwrap()
        });
    }

    let stream = by_name("stream").unwrap().demand;
    let cfg = SimConfig {
        dt: Seconds::new(0.001),
        duration: Seconds::new(1.0),
        window: 8,
        sample_stride: 1000,
    };
    bench.run("engine/simulate_cpu_1s", || {
        simulate_cpu(
            &cpu,
            &dram,
            black_box(&stream),
            PowerAllocation::new(Watts::new(100.0), Watts::new(80.0)),
            &cfg,
        )
    });
    bench.finish();
}
