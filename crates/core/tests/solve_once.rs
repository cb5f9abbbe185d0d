//! The converged CPU solve and the shared-grid oracle's one solve per
//! canonical key, each held against its reference:
//!
//! * At every CPU grid point of the Table-3 suite (1 W grid, every 4 W
//!   rung from the class floor to its ceiling), the converged solve
//!   agrees with the damped iteration it replaced: `perf_rel` and the
//!   mechanism state bit for bit, both powers to 1e-5 relative, and
//!   every budget's best allocation. The damped fallback never runs.
//! * `sweep_curve` solves exactly the keys a fresh `SolveMemo` fed the
//!   same points caches, on one, two and eight executors, whatever the
//!   budget order, for repeated budgets, and past a card's maximum cap.

use pbc_core::{
    node_ceiling, node_floor, sweep_curve_with_pool, PowerBoundedProblem, SweepPoint,
    SweepProfile,
};
use pbc_par::Pool;
use pbc_platform::presets::{haswell, ivybridge, titan_v, titan_xp};
use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::cpunode::{solve_cpu, solve_cpu_damped};
use pbc_powersim::{SolveMemo, WorkloadDemand};
use pbc_trace::names;
use pbc_types::{AllocationSpace, PowerAllocation, Watts};
use pbc_workloads::{by_name, cpu_suite};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The tests read deltas of process-global counters.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A class's budget rungs: every 4 W from its floor to its ceiling.
fn rungs(platform: &Platform, demand: &WorkloadDemand) -> Vec<Watts> {
    let ceiling = node_ceiling(platform, demand);
    let mut rungs = vec![node_floor(platform, demand)];
    while let Some(next) = rungs.last().map(|&b| b + Watts::new(4.0)).filter(|&b| b <= ceiling) {
        rungs.push(next);
    }
    rungs
}

/// The 1 W allocation grid of one budget.
fn grid(problem: &PowerBoundedProblem, budget: Watts) -> Vec<PowerAllocation> {
    let space = AllocationSpace::new(
        budget,
        problem.proc_cap_range(),
        problem.mem_cap_range(),
        Watts::new(1.0),
    );
    space.iter().collect()
}

#[test]
fn converged_solve_matches_the_damped_reference_across_the_cpu_suite() {
    let _g = lock();
    let fallbacks = pbc_trace::counter(names::SOLVE_FIXED_POINT_FALLBACKS);
    let fallbacks_before = fallbacks.get();
    let mut points = 0;
    for platform in [ivybridge(), haswell()] {
        let (cpu, dram) = (platform.cpu().unwrap(), platform.dram().unwrap());
        for bench in cpu_suite() {
            let demand = &bench.demand;
            let floor = node_floor(&platform, demand);
            let problem = PowerBoundedProblem::new(platform.clone(), demand.clone(), floor).unwrap();
            for budget in rungs(&platform, demand) {
                let (mut converged, mut damped) = (Vec::new(), Vec::new());
                for alloc in grid(&problem, budget) {
                    let a = solve_cpu(cpu, dram, demand, alloc);
                    let b = solve_cpu_damped(cpu, dram, demand, alloc);
                    let at = format!("{} on {} at {alloc:?}", demand.name, platform.id);
                    assert_eq!(a.perf_rel.to_bits(), b.perf_rel.to_bits(), "perf_rel, {at}");
                    assert_eq!(a.mechanism, b.mechanism, "mechanism, {at}");
                    for (x, y) in [(a.proc_power, b.proc_power), (a.mem_power, b.mem_power)] {
                        let rel = (x - y).value().abs() / y.value().abs();
                        assert!(rel <= 1e-5, "power {x} vs {y} ({rel:e} relative), {at}");
                    }
                    converged.push(SweepPoint { alloc, op: a });
                    damped.push(SweepPoint { alloc, op: b });
                }
                points += converged.len();
                let best = |points| {
                    let profile = SweepProfile {
                        platform: platform.id,
                        workload: demand.name.clone(),
                        budget,
                        points,
                    };
                    profile.best().map(|p| p.alloc)
                };
                assert_eq!(best(converged), best(damped), "{} at {budget}", demand.name);
            }
        }
    }
    assert_eq!(points, 68_729, "the suite's CPU grid points");
    assert_eq!(fallbacks.get() - fallbacks_before, 0, "solve.fixed_point_fallbacks");
}

#[test]
fn sweep_curve_solves_each_canonical_key_once_on_any_executor_count() {
    let _g = lock();
    let mut non_reclaiming = titan_xp();
    if let NodeSpec::Gpu(gpu) = &mut non_reclaiming.spec {
        gpu.reclaims_unused = false;
    }
    let cases = [
        (ivybridge(), "stream"),
        (haswell(), "bt"),
        (titan_xp(), "gpu-stream"),
        (titan_v(), "minife"),
        (non_reclaiming, "sgemm"),
    ];
    let counter = |name| pbc_trace::counter(name);
    let (misses, hits, evaluated) = (
        counter(names::SOLVE_CACHE_MISSES),
        counter(names::SOLVE_CACHE_HITS),
        counter(names::SWEEP_POINTS_EVALUATED),
    );
    for (platform, bench) in cases {
        let demand = by_name(bench).unwrap().demand;
        // Descending, with one budget repeated and two past the ceiling
        // (where a card's cap clamps to its maximum).
        let mut budgets = rungs(&platform, &demand);
        let ceiling = node_ceiling(&platform, &demand);
        budgets.extend([budgets[budgets.len() / 2], ceiling + Watts::new(20.0), ceiling + Watts::new(40.0)]);
        budgets.reverse();
        let problem = PowerBoundedProblem::new(platform.clone(), demand.clone(), budgets[0]).unwrap();

        let memo = SolveMemo::fresh(&platform, &demand);
        for &budget in &budgets {
            for alloc in grid(&problem, budget) {
                let _ = memo.solve(alloc);
            }
        }
        let mut solved = Vec::new();
        for threads in [1, 2, 8] {
            let (m0, h0, e0) = (misses.get(), hits.get(), evaluated.get());
            let profiles =
                sweep_curve_with_pool(&problem, &budgets, Watts::new(1.0), &Pool::new(threads))
                    .unwrap();
            assert_eq!(profiles.len(), budgets.len());
            let (m, h, e) = (misses.get() - m0, hits.get() - h0, evaluated.get() - e0);
            assert_eq!(m + h, e, "{bench} on {}: every evaluated point is a solve or a reuse", platform.id);
            solved.push(m);
        }
        let keys = memo.len() as u64;
        assert_eq!(solved, [keys; 3], "{bench} on {}: solves per executor count vs keys", platform.id);
    }
}
