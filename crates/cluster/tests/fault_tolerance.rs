//! The ISSUE's fleet fault-tolerance acceptance criteria, asserted
//! end to end:
//!
//! * an adversarial seed sweep (16 seeds × four fault plans × 8- and
//!   32-node fleets) completes with zero budget overdraw, zero
//!   quarantine leaks, and bounded time-to-reconverge — the invariants
//!   read back from a **real exported trace file**, not from in-process
//!   bookkeeping;
//! * a global budget cut landing *during* an in-flight
//!   quarantine/reclaim transition never overdraws the fleet (the
//!   cluster-scale mirror of the single-node budget-cut-inside-
//!   write-fault-window property);
//! * the degraded-mode static partition sums to ≤ the global budget by
//!   construction, under randomized floors and ceilings.

use pbc_cluster::{
    run_cluster_chaos, Fleet, FleetCoordinator, Objective, SpecLine, StaticFallback, TenantSet,
};
use pbc_faults::{
    BudgetStep, Episodes, FaultWindow, FleetFaultPlan, FleetWriteFaults, NodeFaults,
};
use pbc_trace::json;
use pbc_trace::names;
use pbc_types::{Watts, XorShift64Star};
use std::collections::BTreeMap;

/// The class mix both fleets cycle through — the ext7/ext8 mix.
const MIX: [(&str, &str); 5] = [
    ("ivybridge", "stream"),
    ("haswell", "dgemm"),
    ("ivybridge", "sra"),
    ("titan-xp", "sgemm"),
    ("titan-v", "minife"),
];

/// Global budget per node, comfortably above every class floor.
const WATTS_PER_NODE: f64 = 130.0;

/// Seeds the sweep replays per (plan, size) cell.
const SEEDS: [u64; 16] = [0, 1, 2, 3, 5, 7, 11, 13, 17, 23, 29, 42, 97, 512, 9999, 123_456];

/// The survival-relevant plans from the ISSUE's acceptance criteria.
const PLANS: [&str; 4] = ["node-crash", "node-rejoin", "stragglers", "report-loss"];

fn fleet_of(n: usize) -> Fleet {
    let mut spec = Vec::new();
    for (i, (platform, bench)) in MIX.iter().enumerate() {
        let count = n / MIX.len() + usize::from(i < n % MIX.len());
        if count > 0 {
            spec.push(SpecLine {
                count,
                platform: (*platform).to_string(),
                bench: (*bench).to_string(),
            });
        }
    }
    Fleet::build(&spec).unwrap()
}

fn counters_from(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    std::fs::remove_file(path).ok();
    json::counters(&text).unwrap_or_else(|e| panic!("{e}"))
}

/// The acceptance sweep: every (seed, plan, size) cell must survive
/// with a bounded reconvergence time, and the exported trace must agree
/// that no epoch anywhere in the sweep overdrew the budget or leaked
/// quarantined watts.
#[test]
fn seed_sweep_survives_with_bounded_reconvergence_at_8_and_32_nodes() {
    pbc_trace::enable();
    let mut cells = 0usize;
    for n in [8usize, 32] {
        let global = Watts::new(WATTS_PER_NODE * n as f64);
        for plan_name in PLANS {
            for seed in SEEDS {
                let plan = FleetFaultPlan::by_name(plan_name, seed).unwrap();
                let chaos =
                    run_cluster_chaos(fleet_of(n), global, &plan, 0, Objective::Throughput, None)
                        .unwrap();
                cells += 1;
                assert!(
                    chaos.survived(),
                    "plan {plan_name} seed {seed} at {n} nodes died:\n{chaos}"
                );
                let reconverged = chaos
                    .report
                    .reconverged_at
                    .unwrap_or_else(|| panic!(
                        "plan {plan_name} seed {seed} at {n} nodes never reconverged:\n{chaos}"
                    ));
                assert!(
                    reconverged < chaos.report.epochs,
                    "plan {plan_name} seed {seed} at {n} nodes reconverged out of bounds \
                     ({reconverged} >= {})",
                    chaos.report.epochs
                );
            }
        }
    }
    assert_eq!(cells, SEEDS.len() * PLANS.len() * 2);

    pbc_trace::disable();
    let trace = std::env::temp_dir().join(format!("pbc-cluster-sweep-{}.jsonl", std::process::id()));
    pbc_trace::export(&trace, &pbc_trace::snapshot()).expect("trace export writes");
    let counters = counters_from(&trace);
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        read(names::CLUSTER_BUDGET_VIOLATIONS),
        0,
        "an epoch somewhere in the sweep enforced more than its global budget"
    );
    assert_eq!(
        read(names::HEALTH_QUARANTINE_LEAKS),
        0,
        "raises somewhere in the sweep outran what confirmed decreases freed"
    );
    assert!(
        read(names::CLUSTER_DROPOUTS) > 0,
        "the crash plans in the sweep crashed nothing"
    );
    assert!(
        read(names::HEALTH_QUARANTINES) > 0,
        "the sweep exercised no quarantine transitions"
    );
    assert!(
        read(names::HEALTH_RECOVERIES) > 0,
        "no quarantined node ever served out probation"
    );
}

/// A budget cut that lands *while* crashed nodes are being reclaimed —
/// crash window, write-fault window, and budget steps all overlapping —
/// must never overdraw, at any seed. The shipped `everything` plan
/// politely sequences its budget steps after the write windows close;
/// this plan does not.
#[test]
fn budget_cut_during_inflight_quarantine_reclaim_never_overdraws() {
    let n = 8usize;
    let fleet = fleet_of(n);
    // Enough headroom that a 0.8× cut stays above the fleet floor, so
    // the cut is *accepted* (a rejected cut would test nothing).
    let global = fleet.min_total_power() * 1.4;
    for seed in 0..24u64 {
        let plan = FleetFaultPlan {
            name: "cut-under-churn",
            seed,
            nodes: NodeFaults {
                crash: Episodes { prob: 0.15, window: FaultWindow::new(2, 20), epochs: 6 },
                ..NodeFaults::NONE
            },
            writes: FleetWriteFaults {
                fail_prob: 0.2,
                window: FaultWindow::new(1, 24),
                ..FleetWriteFaults::NONE
            },
            budget_steps: vec![
                BudgetStep { at: 6, factor: 0.8 },
                BudgetStep { at: 14, factor: 0.9 },
                BudgetStep { at: 22, factor: 1.0 },
            ],
            ..FleetFaultPlan::calm(seed)
        };
        let mut coord = FleetCoordinator::new(fleet_of(n), global)
            .unwrap()
            .with_plan(plan)
            .unwrap();
        let report = coord.run(40).unwrap();
        assert_eq!(
            report.budget_violations, 0,
            "seed {seed}: a cut mid-reclaim overdrew the fleet"
        );
        assert_eq!(
            report.quarantine_leaks, 0,
            "seed {seed}: quarantined watts leaked during the cut"
        );
        assert!(
            report.dropouts > 0,
            "seed {seed}: the churn plan crashed nothing, the property was not exercised"
        );
    }
}

/// The multi-tenant acceptance sweep: 16 seeds of the noisy-neighbor
/// plan against a weighted three-tenant fleet, under each fairness
/// objective. A mid-epoch demand spike must never overdraw the global
/// budget, and no weighted tenant may ever fall below its floor — both
/// structurally zero, at every seed.
#[test]
fn noisy_neighbor_sweep_never_overdraws_or_starves_a_tenant() {
    let n = 8usize;
    let global = Watts::new(WATTS_PER_NODE * n as f64);
    let mut spikes = 0usize;
    let mut noisy = 0usize;
    for objective in [Objective::MaxMin, Objective::WeightedShares] {
        for seed in SEEDS {
            let plan = FleetFaultPlan::by_name("noisy-neighbor", seed).unwrap();
            let tenants = TenantSet::parse("web:3:gold,etl:2:silver,batch:1:best-effort").unwrap();
            let chaos =
                run_cluster_chaos(fleet_of(n), global, &plan, 0, objective, Some(tenants)).unwrap();
            assert!(
                chaos.survived(),
                "{} seed {seed}: noisy-neighbor run died:\n{chaos}",
                objective.name()
            );
            assert_eq!(
                chaos.report.budget_violations, 0,
                "{} seed {seed}: a tenant demand spike overdrew the global budget",
                objective.name()
            );
            assert_eq!(
                chaos.report.tenant_floor_violations, 0,
                "{} seed {seed}: a weighted tenant fell below its floor",
                objective.name()
            );
            assert!(
                chaos.report.min_tenant_jain > 0.0,
                "{} seed {seed}: degenerate fairness index",
                objective.name()
            );
            spikes += chaos.report.tenant_spikes;
            noisy += chaos.report.tenant_noisy;
        }
    }
    assert!(spikes > 0, "the sweep fired no demand spikes — nothing was exercised");
    assert!(noisy > 0, "the sweep fired no noisy-neighbor events — nothing was exercised");
}

/// The degraded-mode partition is safe by construction: for randomized
/// floors and ceilings and any feasible global budget, the fallback
/// shares respect every node's bounds and sum to ≤ the budget.
#[test]
fn static_fallback_sums_within_budget_under_randomized_fleets() {
    let mut rng = XorShift64Star::new(0x5AFE_FA11_BACC_0001);
    for case in 0..200 {
        let n = 1 + (rng.next_u64() % 48) as usize;
        let mut floors = Vec::with_capacity(n);
        let mut ceilings = Vec::with_capacity(n);
        for _ in 0..n {
            let floor = 20.0 + 180.0 * rng.next_f64();
            let range = 250.0 * rng.next_f64();
            floors.push(Watts::new(floor));
            ceilings.push(Watts::new(floor + range));
        }
        let floor_sum: f64 = floors.iter().map(|w| w.value()).sum();
        let ceiling_sum: f64 = ceilings.iter().map(|w| w.value()).sum();
        // Budgets from exactly-the-floor up to beyond every ceiling.
        let global = Watts::new(floor_sum + (ceiling_sum + 50.0 - floor_sum) * rng.next_f64());
        let fallback = StaticFallback::from_parts(&floors, &ceilings, global)
            .unwrap_or_else(|e| panic!("case {case}: feasible fallback refused: {e}"));
        let total: f64 = (0..n).map(|i| fallback.share(i).value()).sum();
        assert!(
            total <= global.value() + 1e-6,
            "case {case}: fallback sum {total} exceeds global {}",
            global.value()
        );
        for i in 0..n {
            let s = fallback.share(i).value();
            assert!(
                s >= floors[i].value() - 1e-9 && s <= ceilings[i].value() + 1e-9,
                "case {case} node {i}: share {s} outside [{}, {}]",
                floors[i].value(),
                ceilings[i].value()
            );
        }
    }
}
