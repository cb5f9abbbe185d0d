//! The calibrated Table-3 benchmark catalog.
//!
//! Each benchmark's [`PhaseDemand`] parameters are chosen so the
//! `pbc-powersim` solvers reproduce the paper's reported behaviour on the
//! preset platforms. The key anchors (all from the paper's text):
//!
//! * **SRA on IvyBridge** draws 112 W CPU / 116 W DRAM unconstrained
//!   (scenario I of Fig. 3), with the scenario II/IV boundary near a 66–68 W
//!   CPU cap.
//! * **DGEMM on IvyBridge** stops gaining performance once the total
//!   budget reaches ≈240 W (Fig. 2) and is strongly compute-intensive.
//! * **STREAM** saturates the DRAM bus and reports GB/s (Fig. 1).
//! * **SGEMM on Titan XP** demands more than the 300 W maximum cap;
//!   **MiniFE on Titan XP** flattens at ≈180 W; on the **Titan V** SGEMM
//!   flattens at ≈180 W and MiniFE is flat over the studied range (§4).
//! * Pseudo-applications (BT, SP, LU, FT, MG) are multi-phase, which is
//!   what makes their profile curves less regular than single-phase
//!   kernels (§6.2).

use crate::spec::{BenchClass, Benchmark, BenchmarkId, Target};
use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::{PhaseDemand, WorkloadDemand};
use pbc_types::{PbcError, PerfUnit, Result};

fn phase(
    compute_efficiency: f64,
    arithmetic_intensity: f64,
    bw_saturation: f64,
    pattern_cost: f64,
    overlap: f64,
    issue_sensitivity: f64,
    act_compute: f64,
    act_stall: f64,
) -> PhaseDemand {
    PhaseDemand {
        compute_efficiency,
        arithmetic_intensity,
        bw_saturation,
        pattern_cost,
        overlap,
        issue_sensitivity,
        act_compute,
        act_stall,
    }
}

/// The 11-benchmark CPU suite (HPCC + NPB + UVA STREAM).
pub fn cpu_suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            id: BenchmarkId::Sra,
            description: "Embarrassingly parallel, random memory access",
            class: BenchClass::RandomAccess,
            target: Target::Cpu,
            //                 eff    AI     sat   cost  ovl   γ     actC  actS
            demand: WorkloadDemand::single(
                "SRA",
                phase(0.10, 0.06, 0.60, 2.0, 0.50, 0.25, 0.70, 0.51),
            ),
            unit: PerfUnit::Gups,
        },
        Benchmark {
            id: BenchmarkId::Stream,
            description: "Synthetic, measuring memory bandwidth",
            class: BenchClass::MemoryIntensive,
            target: Target::Cpu,
            demand: WorkloadDemand::single(
                "STREAM",
                phase(0.25, 0.125, 1.00, 1.0, 0.90, 0.30, 0.75, 0.50),
            ),
            unit: PerfUnit::GBps,
        },
        Benchmark {
            id: BenchmarkId::Dgemm,
            description: "Matrix multiplication, compute intensive",
            class: BenchClass::ComputeIntensive,
            target: Target::Cpu,
            demand: WorkloadDemand::single(
                "DGEMM",
                phase(0.85, 16.0, 0.40, 1.0, 0.95, 0.30, 1.00, 0.35),
            ),
            unit: PerfUnit::Gflops,
        },
        Benchmark {
            id: BenchmarkId::Bt,
            description: "Block Tri-diagonal solver, compute intensive",
            class: BenchClass::ComputeIntensive,
            target: Target::Cpu,
            demand: WorkloadDemand::phased(
                "BT",
                vec![
                    (0.65, phase(0.55, 6.0, 0.55, 1.1, 0.85, 0.40, 0.90, 0.45)),
                    (0.35, phase(0.30, 0.80, 0.80, 1.1, 0.80, 0.35, 0.80, 0.45)),
                ],
            ),
            unit: PerfUnit::Mops,
        },
        Benchmark {
            id: BenchmarkId::Sp,
            description: "Scalar Penta-diagonal solver, compute/memory",
            class: BenchClass::Mixed,
            target: Target::Cpu,
            demand: WorkloadDemand::phased(
                "SP",
                vec![
                    (0.50, phase(0.45, 3.0, 0.60, 1.1, 0.85, 0.40, 0.85, 0.45)),
                    (0.50, phase(0.25, 0.50, 0.85, 1.0, 0.85, 0.35, 0.75, 0.48)),
                ],
            ),
            unit: PerfUnit::Mops,
        },
        Benchmark {
            id: BenchmarkId::Lu,
            description: "Lower-Upper Gauss-Seidel solver, compute/memory",
            class: BenchClass::Mixed,
            target: Target::Cpu,
            demand: WorkloadDemand::phased(
                "LU",
                vec![
                    (0.55, phase(0.50, 4.0, 0.55, 1.2, 0.80, 0.45, 0.88, 0.45)),
                    (0.45, phase(0.22, 0.60, 0.75, 1.2, 0.75, 0.40, 0.75, 0.46)),
                ],
            ),
            unit: PerfUnit::Mops,
        },
        Benchmark {
            id: BenchmarkId::Ep,
            description: "Embarrassingly Parallel, compute intensive",
            class: BenchClass::ComputeIntensive,
            target: Target::Cpu,
            demand: WorkloadDemand::single(
                "EP",
                phase(0.50, 50.0, 0.10, 1.0, 0.95, 0.20, 0.95, 0.30),
            ),
            unit: PerfUnit::Mops,
        },
        Benchmark {
            id: BenchmarkId::Is,
            description: "Integer Sort, random memory access",
            class: BenchClass::RandomAccess,
            target: Target::Cpu,
            demand: WorkloadDemand::single(
                "IS",
                phase(0.15, 0.15, 0.70, 1.6, 0.60, 0.30, 0.65, 0.48),
            ),
            unit: PerfUnit::Mops,
        },
        Benchmark {
            id: BenchmarkId::Cg,
            description: "Conjugate Gradient, irregular memory access",
            class: BenchClass::RandomAccess,
            target: Target::Cpu,
            demand: WorkloadDemand::single(
                "CG",
                phase(0.12, 0.25, 0.65, 1.5, 0.70, 0.30, 0.60, 0.47),
            ),
            unit: PerfUnit::Mops,
        },
        Benchmark {
            id: BenchmarkId::Ft,
            description: "Discrete 3D fast Fourier Transform, compute/memory",
            class: BenchClass::Mixed,
            target: Target::Cpu,
            demand: WorkloadDemand::phased(
                "FT",
                vec![
                    (0.50, phase(0.45, 2.5, 0.70, 1.0, 0.85, 0.35, 0.90, 0.45)),
                    (0.50, phase(0.22, 0.40, 0.90, 1.2, 0.80, 0.35, 0.72, 0.48)),
                ],
            ),
            unit: PerfUnit::Mops,
        },
        Benchmark {
            id: BenchmarkId::Mg,
            description: "Multi-Grid operation, compute/memory",
            class: BenchClass::MemoryIntensive,
            target: Target::Cpu,
            demand: WorkloadDemand::phased(
                "MG",
                vec![
                    (0.30, phase(0.30, 1.2, 0.75, 1.0, 0.85, 0.35, 0.80, 0.47)),
                    (0.70, phase(0.18, 0.35, 0.95, 1.1, 0.85, 0.35, 0.70, 0.49)),
                ],
            ),
            unit: PerfUnit::Mops,
        },
    ]
}

/// The 6-benchmark GPU suite (CUDA examples + ECP proxies).
pub fn gpu_suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            id: BenchmarkId::Sgemm,
            description: "Compute intensive, CUBLAS implementation",
            class: BenchClass::ComputeIntensive,
            target: Target::Gpu,
            demand: WorkloadDemand::single(
                "SGEMM",
                phase(0.85, 40.0, 0.50, 1.0, 0.95, 0.30, 1.00, 0.30),
            ),
            unit: PerfUnit::Gflops,
        },
        Benchmark {
            id: BenchmarkId::GpuStream,
            description: "Memory intensive, CUDA version of STREAM",
            class: BenchClass::MemoryIntensive,
            target: Target::Gpu,
            demand: WorkloadDemand::single(
                "GPU-STREAM",
                phase(0.12, 0.08, 0.95, 1.0, 0.90, 0.50, 0.70, 0.30),
            ),
            unit: PerfUnit::GBps,
        },
        Benchmark {
            id: BenchmarkId::Cufft,
            description: "Memory intensive, CUDA example",
            class: BenchClass::MemoryIntensive,
            target: Target::Gpu,
            demand: WorkloadDemand::single(
                "CUFFT",
                phase(0.30, 1.2, 0.85, 1.0, 0.85, 0.45, 0.80, 0.35),
            ),
            unit: PerfUnit::Gflops,
        },
        Benchmark {
            id: BenchmarkId::MiniFe,
            description: "Memory intensive, ECP proxy",
            class: BenchClass::MemoryIntensive,
            target: Target::Gpu,
            demand: WorkloadDemand::single(
                "MiniFE",
                phase(0.15, 0.25, 0.90, 1.0, 0.85, 0.50, 0.70, 0.35),
            ),
            unit: PerfUnit::Gflops,
        },
        Benchmark {
            id: BenchmarkId::Cloverleaf,
            description: "compute/memory, ECP proxy",
            class: BenchClass::Mixed,
            target: Target::Gpu,
            demand: WorkloadDemand::single(
                "Cloverleaf",
                phase(0.35, 2.0, 0.75, 1.0, 0.85, 0.45, 0.85, 0.35),
            ),
            unit: PerfUnit::Gflops,
        },
        Benchmark {
            id: BenchmarkId::Hpcg,
            description: "Memory intensive, HPL benchmark",
            class: BenchClass::MemoryIntensive,
            target: Target::Gpu,
            demand: WorkloadDemand::single(
                "HPCG",
                phase(0.10, 0.20, 0.85, 1.2, 0.80, 0.50, 0.65, 0.35),
            ),
            unit: PerfUnit::Gflops,
        },
    ]
}

/// All 17 benchmarks, CPU suite first.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = cpu_suite();
    v.extend(gpu_suite());
    v
}

/// Look up a benchmark by its slug (case-insensitive).
pub fn by_name(name: &str) -> Option<Benchmark> {
    let slug = name.to_ascii_lowercase();
    all_benchmarks().into_iter().find(|b| b.id.slug() == slug)
}

/// Refuse to run `bench` on a platform it does not target: a GPU
/// benchmark's demand model on a host, or a CPU one on a card.
#[must_use = "the target check carries the refusal"]
pub fn check_target(bench: &Benchmark, platform: &Platform) -> Result<()> {
    match (&platform.spec, bench.target) {
        (NodeSpec::Cpu { .. }, Target::Cpu) | (NodeSpec::Gpu(_), Target::Gpu) => Ok(()),
        _ => Err(PbcError::InvalidInput(format!(
            "benchmark {:?} does not target platform {:?}",
            bench.id.slug(),
            platform.id.slug()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::{ivybridge, titan_v, titan_xp};
    use pbc_powersim::{solve, solve_cpu};
    use pbc_types::{PowerAllocation, Watts};

    #[test]
    fn all_demands_validate() {
        for b in all_benchmarks() {
            assert_eq!(b.demand.validate(), Ok(()), "{}", b.id);
        }
    }

    #[test]
    fn suites_have_table3_sizes() {
        assert_eq!(cpu_suite().len(), 11);
        assert_eq!(gpu_suite().len(), 6);
        assert_eq!(all_benchmarks().len(), 17);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("SRA").unwrap().id, BenchmarkId::Sra);
        assert_eq!(by_name("gpu-stream").unwrap().id, BenchmarkId::GpuStream);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn sra_ivybridge_scenario_i_anchor() {
        // Paper Fig. 3: unconstrained SRA draws ~112 W CPU and ~116 W DRAM.
        let p = ivybridge();
        let sra = by_name("sra").unwrap();
        let op = solve_cpu(
            p.cpu().unwrap(),
            p.dram().unwrap(),
            &sra.demand,
            PowerAllocation::new(Watts::new(250.0), Watts::new(250.0)),
        );
        assert!(
            (op.proc_power.value() - 112.0).abs() < 8.0,
            "CPU draw {} vs 112 W anchor",
            op.proc_power
        );
        assert!(
            (op.mem_power.value() - 116.0).abs() < 8.0,
            "DRAM draw {} vs 116 W anchor",
            op.mem_power
        );
    }

    #[test]
    fn dgemm_ivybridge_demand_anchor() {
        // Paper Fig. 2: DGEMM stops gaining once P_b ≳ 240 W. Our model's
        // total unconstrained demand must sit in the 210-245 W band.
        let p = ivybridge();
        let dgemm = by_name("dgemm").unwrap();
        let op = solve_cpu(
            p.cpu().unwrap(),
            p.dram().unwrap(),
            &dgemm.demand,
            PowerAllocation::new(Watts::new(300.0), Watts::new(300.0)),
        );
        let total = op.total_power().value();
        assert!((210.0..=245.0).contains(&total), "DGEMM demand {total} W");
    }

    #[test]
    fn class_vs_intensity_consistency() {
        for b in all_benchmarks() {
            let ai = b.demand.mean_intensity();
            match b.class {
                BenchClass::ComputeIntensive => {
                    assert!(ai > 3.0, "{} classed compute-intensive but AI {ai}", b.id)
                }
                BenchClass::MemoryIntensive | BenchClass::RandomAccess => {
                    assert!(ai < 1.5, "{} classed memory-side but AI {ai}", b.id)
                }
                BenchClass::Mixed => {
                    assert!((0.3..=6.0).contains(&ai), "{} classed mixed but AI {ai}", b.id)
                }
            }
        }
    }

    #[test]
    fn minife_titan_xp_demand_anchor() {
        // Paper §4: MiniFE's upper bound stops increasing once the Titan XP
        // cap exceeds ≈180 W.
        let g = titan_xp();
        let minife = by_name("minife").unwrap();
        let op = solve(
            &g,
            &minife.demand,
            PowerAllocation::new(Watts::new(230.0), Watts::new(70.0)),
        )
        .unwrap();
        let total = op.total_power().value();
        assert!((165.0..=195.0).contains(&total), "MiniFE XP demand {total} W");
    }

    #[test]
    fn sgemm_titan_v_demand_anchor() {
        // Paper §4: SGEMM on the Titan V flattens near a 180 W cap.
        let g = titan_v();
        let sgemm = by_name("sgemm").unwrap();
        let op = solve(
            &g,
            &sgemm.demand,
            PowerAllocation::new(Watts::new(270.0), Watts::new(30.0)),
        )
        .unwrap();
        let total = op.total_power().value();
        assert!((165.0..=200.0).contains(&total), "SGEMM V demand {total} W");
    }

    #[test]
    fn natural_units_are_sane() {
        let p = ivybridge();
        let generous = PowerAllocation::new(Watts::new(300.0), Watts::new(300.0));
        // STREAM on 2-socket DDR3 lands in tens of GB/s.
        let stream = by_name("stream").unwrap();
        let op = solve_cpu(p.cpu().unwrap(), p.dram().unwrap(), &stream.demand, generous);
        let rate = stream.natural_rate(&op);
        assert!((50.0..=85.0).contains(&rate.rate), "STREAM {rate}");
        // DGEMM lands in hundreds of GFLOP/s.
        let dgemm = by_name("dgemm").unwrap();
        let op = solve_cpu(p.cpu().unwrap(), p.dram().unwrap(), &dgemm.demand, generous);
        let rate = dgemm.natural_rate(&op);
        assert!((200.0..=400.0).contains(&rate.rate), "DGEMM {rate}");
        // SRA lands well under one GUP/s.
        let sra = by_name("sra").unwrap();
        let op = solve_cpu(p.cpu().unwrap(), p.dram().unwrap(), &sra.demand, generous);
        let rate = sra.natural_rate(&op);
        assert!((0.05..=1.0).contains(&rate.rate), "SRA {rate}");
    }

    #[test]
    fn gpu_patterns_match_figure7() {
        // §4's three GPU patterns on the Titan XP at a mid cap: perf must
        // respond to a memory-power shift in the class-specific direction.
        let g = titan_xp();
        let total = 200.0;
        let respond = |bench: &Benchmark| {
            let lean = solve(
                &g,
                &bench.demand,
                PowerAllocation::new(Watts::new(total - 25.0), Watts::new(25.0)),
            )
            .unwrap();
            let rich = solve(
                &g,
                &bench.demand,
                PowerAllocation::new(Watts::new(total - 70.0), Watts::new(70.0)),
            )
            .unwrap();
            rich.perf_rel / lean.perf_rel
        };
        // Compute intensive: more memory power never helps.
        assert!(respond(&by_name("sgemm").unwrap()) <= 1.0 + 1e-9);
        // Memory intensive: more memory power helps noticeably.
        assert!(respond(&by_name("gpu-stream").unwrap()) > 1.1);
        assert!(respond(&by_name("minife").unwrap()) > 1.05);
    }
}
