//! Property-based tests over the core invariants.
//!
//! These were originally written with `proptest`; they now draw their
//! random cases from the workspace's own deterministic
//! [`XorShift64Star`] generator so the default test run needs no
//! external crates. Each test runs a fixed number of seeded cases, so
//! failures reproduce exactly.

use power_bounded_computing::core::{OnlineCoordinator, PiecewiseModel};
use power_bounded_computing::powersim::{solve_per_socket, MechanismState, PhaseDemand};
use power_bounded_computing::prelude::*;
use power_bounded_computing::types::XorShift64Star;

const CASES: usize = 64;

/// Arbitrary-but-valid phase demand.
fn arb_phase(rng: &mut XorShift64Star) -> PhaseDemand {
    PhaseDemand {
        compute_efficiency: rng.range_f64(0.05, 1.0),
        arithmetic_intensity: rng.range_f64(0.01, 64.0),
        bw_saturation: rng.range_f64(0.05, 1.0),
        pattern_cost: rng.range_f64(1.0, 3.0),
        overlap: rng.range_f64(0.0, 1.0),
        issue_sensitivity: rng.range_f64(0.0, 1.0),
        act_compute: rng.range_f64(0.1, 1.0),
        act_stall: rng.range_f64(0.0, 1.0),
    }
}

/// For any workload and any enforceable allocation, the CPU node's
/// actual component draws never exceed their caps (the contract RAPL
/// promises above the hardware floors).
#[test]
fn cpu_caps_enforced_above_floors() {
    let mut rng = XorShift64Star::new(0xC0FFEE01);
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for case in 0..CASES {
        let phase = arb_phase(&mut rng);
        let proc_cap = rng.range_f64(50.0, 220.0);
        let mem_cap = rng.range_f64(48.0, 170.0);
        let w = WorkloadDemand::single("prop", phase);
        let op = solve_cpu(
            cpu,
            dram,
            &w,
            PowerAllocation::new(Watts::new(proc_cap), Watts::new(mem_cap)),
        );
        assert!(
            op.proc_power.value() <= proc_cap + 1e-6,
            "case {case}: proc {} over cap {proc_cap}",
            op.proc_power
        );
        let step = dram.max_bandwidth.value() / dram.throttle_levels as f64;
        let mem_floor = dram.background_power.value()
            + dram.transfer_w_per_gbps * step * phase.pattern_cost;
        assert!(
            op.mem_power.value() <= mem_cap.max(mem_floor) + 1e-6,
            "case {case}: mem {} over cap {mem_cap} (floor {mem_floor})",
            op.mem_power
        );
    }
}

/// Performance is monotone non-decreasing in either cap, all else equal.
#[test]
fn perf_monotone_in_caps() {
    let mut rng = XorShift64Star::new(0xC0FFEE02);
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for case in 0..CASES {
        let phase = arb_phase(&mut rng);
        let proc_cap = rng.range_f64(52.0, 200.0);
        let mem_cap = rng.range_f64(45.0, 160.0);
        let bump = rng.range_f64(2.0, 30.0);
        let w = WorkloadDemand::single("prop", phase);
        let base = solve_cpu(
            cpu,
            dram,
            &w,
            PowerAllocation::new(Watts::new(proc_cap), Watts::new(mem_cap)),
        );
        let more_proc = solve_cpu(
            cpu,
            dram,
            &w,
            PowerAllocation::new(Watts::new(proc_cap + bump), Watts::new(mem_cap)),
        );
        let more_mem = solve_cpu(
            cpu,
            dram,
            &w,
            PowerAllocation::new(Watts::new(proc_cap), Watts::new(mem_cap + bump)),
        );
        assert!(more_proc.perf_rel >= base.perf_rel - 1e-9, "case {case}");
        assert!(more_mem.perf_rel >= base.perf_rel - 1e-9, "case {case}");
    }
}

/// perf_rel is always within (0, 1] — normalized to the unconstrained
/// run of the same workload.
#[test]
fn perf_rel_bounded() {
    let mut rng = XorShift64Star::new(0xC0FFEE03);
    let platform = haswell();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for case in 0..CASES {
        let phase = arb_phase(&mut rng);
        let proc_cap = rng.range_f64(45.0, 240.0);
        let mem_cap = rng.range_f64(30.0, 200.0);
        let w = WorkloadDemand::single("prop", phase);
        let op = solve_cpu(
            cpu,
            dram,
            &w,
            PowerAllocation::new(Watts::new(proc_cap), Watts::new(mem_cap)),
        );
        assert!(op.perf_rel > 0.0, "case {case}");
        assert!(op.perf_rel <= 1.0 + 1e-9, "case {case}: perf {}", op.perf_rel);
    }
}

/// GPU: the card governor always keeps the total under the cap, for
/// any workload and any split of any accepted cap.
#[test]
fn gpu_total_never_exceeds_cap() {
    let mut rng = XorShift64Star::new(0xC0FFEE04);
    let platform = titan_xp();
    let gpu = platform.gpu().unwrap();
    for case in 0..CASES {
        let phase = arb_phase(&mut rng);
        let cap = rng.range_f64(130.0, 300.0);
        let mem_frac = rng.range_f64(0.05, 0.5);
        let w = WorkloadDemand::single("prop", phase);
        let alloc = PowerAllocation::split(Watts::new(cap), 1.0 - mem_frac);
        let op = solve_gpu(gpu, &w, alloc).unwrap();
        assert!(
            op.total_power().value() <= cap + 1e-6,
            "case {case}: total {} over cap {cap}",
            op.total_power()
        );
        match op.mechanism {
            MechanismState::Gpu(st) => {
                assert!(st.sm_clock < gpu.sm.len(), "case {case}");
                assert!(st.mem_level < gpu.mem.len(), "case {case}");
            }
            _ => panic!("case {case}: expected GPU mechanism"),
        }
    }
}

/// COORD's allocation is always valid, within budget, and above the
/// component floors when it accepts a budget.
#[test]
fn coord_allocations_always_valid() {
    let mut rng = XorShift64Star::new(0xC0FFEE05);
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for case in 0..CASES {
        let phase = arb_phase(&mut rng);
        let budget = rng.range_f64(120.0, 320.0);
        let w = WorkloadDemand::single("prop", phase);
        let criticals = CriticalPowers::probe(cpu, dram, &w);
        assert!(criticals.is_ordered(), "case {case}: {criticals:?}");
        match coord_cpu(Watts::new(budget), &criticals) {
            Ok(decision) => {
                assert!(decision.alloc.is_valid(), "case {case}");
                assert!(decision.alloc.total().value() <= budget + 1e-6, "case {case}");
                assert!(
                    decision.alloc.proc >= criticals.cpu_l2 - Watts::new(1e-6),
                    "case {case}: proc below L2: {} vs {}",
                    decision.alloc.proc,
                    criticals.cpu_l2
                );
                assert!(
                    decision.alloc.mem >= criticals.mem_l2 - Watts::new(1e-6),
                    "case {case}"
                );
            }
            Err(PbcError::BudgetTooSmall { minimum, .. }) => {
                assert!(Watts::new(budget) < minimum, "case {case}");
            }
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
}

/// Scenario classification is total: every sweep point of any budget
/// gets exactly one category (the function is total by construction —
/// this exercises it over random workloads for panics/invariants).
#[test]
fn classification_is_total() {
    let mut rng = XorShift64Star::new(0xC0FFEE06);
    let platform = ivybridge();
    for _case in 0..CASES / 4 {
        let phase = arb_phase(&mut rng);
        let budget = rng.range_f64(150.0, 280.0);
        let cpu = platform.cpu().unwrap();
        let dram = platform.dram().unwrap().clone();
        let w = WorkloadDemand::single("prop", phase);
        let criticals = CriticalPowers::probe(cpu, &dram, &w);
        let problem =
            PowerBoundedProblem::new(platform.clone(), w.clone(), Watts::new(budget)).unwrap();
        let profile = sweep_budget(&problem, Watts::new(8.0)).unwrap();
        for pt in &profile.points {
            let _ = classify_cpu_point(&pt.op, &criticals, &dram, phase.pattern_cost);
        }
    }
}

/// Allocation-space iteration always saturates the budget exactly and
/// respects the component bounds.
#[test]
fn allocation_space_invariants() {
    use power_bounded_computing::types::AllocationSpace;
    let mut rng = XorShift64Star::new(0xC0FFEE07);
    for case in 0..CASES {
        let budget = rng.range_f64(60.0, 400.0);
        let lo = rng.range_f64(10.0, 60.0);
        let hi_extra = rng.range_f64(1.0, 300.0);
        let step = rng.range_f64(1.0, 16.0);
        let space = AllocationSpace::new(
            Watts::new(budget),
            (Watts::new(lo), Watts::new(lo + hi_extra)),
            (Watts::new(lo * 0.5), Watts::new(lo * 0.5 + hi_extra)),
            Watts::new(step),
        );
        for alloc in space.iter() {
            assert!((alloc.total().value() - budget).abs() < 1e-9, "case {case}");
            assert!(alloc.proc.value() >= lo - 1e-9, "case {case}");
            assert!(alloc.proc.value() <= lo + hi_extra + 1e-9, "case {case}");
        }
    }
}

/// Unit arithmetic: energy bookkeeping is exact over random power/time
/// pairs.
#[test]
fn energy_bookkeeping() {
    use power_bounded_computing::types::{Seconds, Watts};
    let mut rng = XorShift64Star::new(0xC0FFEE08);
    for case in 0..CASES * 4 {
        let p = rng.range_f64(0.0, 1e4);
        let t = rng.range_f64(1e-6, 1e4);
        let e = Watts::new(p) * Seconds::new(t);
        assert!((e.value() - p * t).abs() <= 1e-9 * (1.0 + p * t), "case {case}");
        let back = e / Seconds::new(t);
        assert!((back.value() - p).abs() <= 1e-9 * (1.0 + p), "case {case}");
    }
}

/// The piecewise predictor's factors are monotone in their caps and
/// its prediction is bounded for any valid workload.
#[test]
fn piecewise_model_invariants() {
    let mut rng = XorShift64Star::new(0xC0FFEE09);
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for case in 0..CASES {
        let phase = arb_phase(&mut rng);
        let cap_a = rng.range_f64(30.0, 250.0);
        let cap_b = rng.range_f64(30.0, 250.0);
        let w = WorkloadDemand::single("prop", phase);
        let c = CriticalPowers::probe(cpu, dram, &w);
        let m = PiecewiseModel::from_criticals(&c, 0.48, 0.125);
        let (lo, hi) = if cap_a <= cap_b { (cap_a, cap_b) } else { (cap_b, cap_a) };
        assert!(
            m.proc_factor(Watts::new(lo)) <= m.proc_factor(Watts::new(hi)) + 1e-12,
            "case {case}"
        );
        assert!(
            m.mem_factor(Watts::new(lo)) <= m.mem_factor(Watts::new(hi)) + 1e-12,
            "case {case}"
        );
        let pred = m.predict(PowerAllocation::new(Watts::new(cap_a), Watts::new(cap_b)));
        assert!((0.0..=1.0).contains(&pred), "case {case}: pred {pred}");
    }
}

/// The online coordinator never proposes an allocation over budget and
/// its best-so-far performance is monotone non-decreasing.
#[test]
fn online_coordinator_safety() {
    let mut rng = XorShift64Star::new(0xC0FFEE0A);
    let platform = ivybridge();
    for case in 0..CASES / 2 {
        let phase = arb_phase(&mut rng);
        let budget = rng.range_f64(140.0, 280.0);
        let start_frac = rng.range_f64(0.15, 0.85);
        let w = WorkloadDemand::single("prop", phase);
        let budget_w = Watts::new(budget);
        let start = PowerAllocation::split(budget_w, start_frac);
        let mut coord = OnlineCoordinator::new(budget_w, start, Watts::ZERO);
        let mut best_seen = f64::NEG_INFINITY;
        for _ in 0..60 {
            if coord.converged() {
                break;
            }
            let alloc = coord.next_allocation();
            assert!(alloc.total().value() <= budget + 1e-6, "case {case}");
            let op = solve(&platform, &w, alloc).unwrap();
            coord.observe(&op);
            let now = solve(&platform, &w, coord.best()).unwrap().perf_rel;
            assert!(
                now >= best_seen - 1e-9,
                "case {case}: best regressed: {now} < {best_seen}"
            );
            best_seen = now;
        }
    }
}

/// Per-socket solving: swapping both the caps and the shares swaps the
/// outcome (symmetry), and total power is conserved against the parts.
#[test]
fn per_socket_symmetry() {
    let mut rng = XorShift64Star::new(0xC0FFEE0B);
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    for case in 0..CASES {
        let phase = arb_phase(&mut rng);
        let cap_a = rng.range_f64(30.0, 90.0);
        let cap_b = rng.range_f64(30.0, 90.0);
        let share_a = rng.range_f64(0.2, 0.8);
        let w = WorkloadDemand::single("prop", phase);
        let fwd = solve_per_socket(
            cpu,
            dram,
            &w,
            &[Watts::new(cap_a), Watts::new(cap_b)],
            Watts::new(100.0),
            &[share_a, 1.0 - share_a],
        )
        .unwrap();
        let rev = solve_per_socket(
            cpu,
            dram,
            &w,
            &[Watts::new(cap_b), Watts::new(cap_a)],
            Watts::new(100.0),
            &[1.0 - share_a, share_a],
        )
        .unwrap();
        assert!((fwd.perf_rel - rev.perf_rel).abs() < 1e-9, "case {case}");
        assert!(
            (fwd.socket_powers[0].value() - rev.socket_powers[1].value()).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (fwd.total_power().value() - rev.total_power().value()).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// Profile CSV round-trips preserve every numeric field bit-for-bit
/// close for arbitrary real sweeps.
#[test]
fn profile_roundtrip_for_random_budgets() {
    use power_bounded_computing::core::{profile_from_csv, profile_to_csv};
    let mut rng = XorShift64Star::new(0xC0FFEE0C);
    for case in 0..CASES / 8 {
        let budget = rng.range_f64(150.0, 300.0);
        let problem = PowerBoundedProblem::new(
            ivybridge(),
            by_name("cg").unwrap().demand,
            Watts::new(budget),
        )
        .unwrap();
        let profile = sweep_budget(&problem, Watts::new(8.0)).unwrap();
        let back = profile_from_csv(&profile_to_csv(&profile)).unwrap();
        assert_eq!(profile.points.len(), back.points.len(), "case {case}");
        for (a, b) in profile.points.iter().zip(&back.points) {
            assert!((a.op.perf_rel - b.op.perf_rel).abs() < 1e-12, "case {case}");
        }
    }
}
