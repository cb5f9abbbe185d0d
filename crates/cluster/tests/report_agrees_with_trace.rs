//! The fleet's in-process record agrees with its exported telemetry:
//! every `ClusterReport` count that has a trace counter equals that
//! counter's delta over the run, read back from the JSON-lines export.
//! Counters are process-global, so this file is its own test binary
//! with a single test.

use pbc_cluster::{parse_spec, run_cluster_chaos, Fleet, Objective, TenantSet};
use pbc_faults::FleetFaultPlan;
use pbc_trace::{json, names};
use pbc_types::Watts;
use std::collections::BTreeMap;

fn exported() -> BTreeMap<String, u64> {
    json::counters(&pbc_trace::to_jsonl()).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn every_report_count_equals_its_counter_delta() {
    let spec = parse_spec("4 ivybridge stream\n2 haswell dgemm\n2 titan-xp sgemm\n").unwrap();
    let fleet = Fleet::build(&spec).unwrap();
    let tenants = Some(TenantSet::parse("web:3:gold,etl:2:silver,batch:1").unwrap());
    let (global, plan) = (Watts::new(1050.0), FleetFaultPlan::by_name("everything", 7).unwrap());
    let before = exported();
    let chaos = run_cluster_chaos(fleet, global, &plan, 0, Objective::MaxMin, tenants).unwrap();
    let after = exported();
    let r = &chaos.report;
    let counts = [
        (names::CLUSTER_EPOCHS, r.epochs),
        (names::CLUSTER_DROPOUTS, r.dropouts),
        (names::CLUSTER_RECOVERIES, r.recoveries),
        (names::CLUSTER_WRITE_FAILURES, r.write_failures),
        (names::CLUSTER_WRITE_RETRIES, r.write_retries),
        (names::CLUSTER_BUDGET_VIOLATIONS, r.budget_violations),
        (names::CLUSTER_DEGRADED_EPOCHS, r.degraded_epochs),
        (names::CLUSTER_MISSED_REPORTS, r.missed_reports),
        (names::CLUSTER_REJECTED_REPORTS, r.rejected_reports),
        (names::HEALTH_QUARANTINES, r.quarantines),
        (names::HEALTH_REJOINS, r.rejoins),
        (names::HEALTH_QUARANTINE_LEAKS, r.quarantine_leaks),
        (names::CLUSTER_TENANT_SPIKES, r.tenant_spikes),
        (names::CLUSTER_TENANT_NOISY, r.tenant_noisy),
        (names::CLUSTER_TENANT_PREEMPTIONS, r.tenant_preemptions),
        (names::CLUSTER_TENANT_FLOOR_VIOLATIONS, r.tenant_floor_violations),
    ];
    for (name, count) in counts {
        let read = |c: &BTreeMap<String, u64>| c.get(name).copied().unwrap_or(0);
        let delta = read(&after) - read(&before);
        assert_eq!(delta, count as u64, "{name}: the report counts {count}, the trace {delta}");
    }
    // The run must exercise the counts it checks, not agree on zeros.
    let faults = [r.dropouts, r.write_retries, r.degraded_epochs, r.rejected_reports, r.rejoins];
    let tenancy = [r.tenant_spikes + r.tenant_noisy, r.tenant_preemptions];
    assert!(faults.iter().chain(&tenancy).all(|&c| c > 0), "an idle count:\n{chaos}");
}
