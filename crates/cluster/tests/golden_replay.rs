//! Golden replay: every fleet fault preset, at two seeds, must produce
//! exactly the `ClusterReport` it produced when these values were
//! captured — integer fields by value, every f64 by its bit pattern.
//! Any change to a fault draw's `(seed, tick, stream, key)`, its gating,
//! or the epoch pipeline's arithmetic shows up here as a diff.

use pbc_cluster::{parse_spec, ClusterReport, Fleet, FleetCoordinator, TenantSet};
use pbc_faults::{FleetFaultPlan, FLEET_PRESETS};
use pbc_types::Watts;

/// Presets that run with the tenant set attached.
const TENANTED: [&str; 3] = ["demand-spike", "noisy-neighbor", "everything"];

/// `(plan, seed, fingerprint)`: the report's fields in declaration
/// order, f64s as `to_bits` hex and `reconverged_at` as `-` when `None`.
const GOLDEN: [(&str, u64, &str); 22] = [
    ("calm", 7, "8 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd24 3ff0000000000000 4030a7b80890dd24 0 0 0 0 0 3ff0000000000000"),
    ("calm", 11, "8 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd24 3ff0000000000000 4030a7b80890dd24 0 0 0 0 0 3ff0000000000000"),
    ("node-dropouts", 7, "42 19 19 0 0 0 0 0 0 76 0 19 19 4 4000a7b80890dd24 400709f2b3150761 3fe8c30c30c30c31 405e3d0e8b0b99af 34 0 0 0 0 3ff0000000000000"),
    ("node-dropouts", 11, "42 11 11 0 0 0 0 0 0 44 0 11 11 6 4000a7b80890dd24 40057166c3d2cda6 3febcf3cf3cf3cf4 405c24d6e104adea 34 0 0 0 0 3ff0000000000000"),
    ("node-crash", 7, "44 7 7 0 0 0 0 0 0 84 0 7 7 5 4000a7b80890dd24 40082596e72b7f7c 3fe961bed61bed62 406099d7beede7a5 36 0 0 0 0 3ff0000000000000"),
    ("node-crash", 11, "44 3 3 0 0 0 0 0 0 36 0 3 3 7 4000a7b80890dd24 400491e9f81a869f 3fed29e4129e412a 405c48a1b524791a 36 0 0 0 0 3ff0000000000000"),
    ("node-rejoin", 7, "39 22 22 0 0 0 0 0 0 66 0 22 22 5 4000a7b80890dd24 40070f7007199b11 3fe8c78c78c78c79 405c1ad088a734fd 31 0 0 0 0 3ff0000000000000"),
    ("node-rejoin", 11, "39 17 17 0 0 0 0 0 0 51 0 17 17 5 4000a7b80890dd24 4005f2d74c3a5dd6 3fea6ba6ba6ba6ba 405abff664e7225d 31 0 0 0 0 3ff0000000000000"),
    ("stragglers", 7, "44 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 3ffaf378ed4781c4 3ff0000000000000 4052876323212937 36 0 0 0 0 3ff0000000000000"),
    ("stragglers", 11, "44 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 3ffbd571611d1854 3ff0000000000000 405322bdf2c400ba 36 0 0 0 0 3ff0000000000000"),
    ("report-loss", 7, "40 0 0 0 0 0 0 0 0 61 36 11 11 10 4000a7b80890dd24 400054659c1a0f32 3fe75c28f5c28f5c 4054697f032092fe 33 0 0 0 0 3ff0000000000000"),
    ("report-loss", 11, "40 0 0 0 0 0 0 0 0 67 27 5 5 10 4000a7b80890dd24 4000b337a41f2326 3fe8147ae147ae14 4054e0058d26ebf0 32 0 0 0 0 3ff0000000000000"),
    ("flaky-writes", 7, "48 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 4058fb940cd94bb1 40 0 0 0 0 3ff0000000000000"),
    ("flaky-writes", 11, "48 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 4058fb940cd94bb1 40 0 0 0 0 3ff0000000000000"),
    ("write-outage", 7, "38 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 4053c72a8a2c0697 30 0 0 0 0 3ff0000000000000"),
    ("write-outage", 11, "38 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 4053c72a8a2c0697 30 0 0 0 0 3ff0000000000000"),
    ("demand-spike", 7, "41 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 405556e3caf99b52 33 5 0 88 0 3fef63b17fb79947"),
    ("demand-spike", 11, "41 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 405556e3caf99b52 33 10 0 128 0 3fef63b17fb79947"),
    ("noisy-neighbor", 7, "48 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 4058fb940cd94bb1 40 1 5 196 0 3fef63b17fb79947"),
    ("noisy-neighbor", 11, "48 0 0 0 0 0 0 0 0 0 0 0 0 10 4000a7b80890dd24 4000a7b80890dd21 3ff0000000000000 4058fb940cd94bb1 40 4 3 168 0 3fef63b17fb79947"),
    ("everything", 7, "57 13 13 11 44 0 0 0 4 68 13 14 14 7 4000a7b80890dd24 40037440538d9870 3feaaaaaaaaaaaab 406153894a6a1bc4 49 1 3 88 0 3fea8b0e50ff9777"),
    ("everything", 11, "57 10 10 1 13 0 0 0 4 61 14 11 11 6 4000a7b80890dd24 4002efef6788cd42 3feb2c0397cdb2c0 4060ddb13835d6cf 49 5 2 112 0 3feb65cbe2bae5d9"),
];

/// Every field of the report, in declaration order. The destructuring
/// is exhaustive, so a new field cannot slip past the pin.
fn fingerprint(r: &ClusterReport) -> String {
    let ClusterReport {
        epochs, dropouts, recoveries, write_failures, write_retries, budget_violations,
        quarantine_leaks, round_timeouts, degraded_epochs, missed_reports, rejected_reports,
        quarantines, rejoins, min_nodes_up, final_aggregate, mean_aggregate, availability,
        work_done, reconverged_at, tenant_spikes, tenant_noisy, tenant_preemptions,
        tenant_floor_violations, min_tenant_jain,
    } = *r;
    let reconverged = reconverged_at.map_or_else(|| "-".to_string(), |t| t.to_string());
    format!(
        "{epochs} {dropouts} {recoveries} {write_failures} {write_retries} {budget_violations} \
         {quarantine_leaks} {round_timeouts} {degraded_epochs} {missed_reports} \
         {rejected_reports} {quarantines} {rejoins} {min_nodes_up} {:x} {:x} {:x} {:x} \
         {reconverged} {tenant_spikes} {tenant_noisy} {tenant_preemptions} \
         {tenant_floor_violations} {:x}",
        final_aggregate.to_bits(),
        mean_aggregate.to_bits(),
        availability.to_bits(),
        work_done.to_bits(),
        min_tenant_jain.to_bits(),
    )
}

fn run(fleet: &Fleet, name: &str, seed: u64) -> ClusterReport {
    let plan = FleetFaultPlan::by_name(name, seed).unwrap();
    let epochs = plan.quiet_after() + 8;
    let global = fleet.min_total_power() + Watts::new(150.0);
    let mut coord = FleetCoordinator::new(fleet.clone(), global).unwrap().with_plan(plan).unwrap();
    if TENANTED.contains(&name) {
        coord = coord.with_tenants(TenantSet::parse("web:3:gold,etl:2:silver,batch:1").unwrap());
    }
    coord.run(epochs).unwrap()
}

#[test]
fn every_preset_replays_its_golden_report() {
    let spec = parse_spec("4 ivybridge stream\n4 haswell dgemm\n2 titan-xp sgemm\n").unwrap();
    let fleet = Fleet::build(&spec).unwrap();
    let mut actual = Vec::new();
    for (plan, ..) in FLEET_PRESETS {
        for seed in [7, 11] {
            actual.push((plan, seed, fingerprint(&run(&fleet, plan, seed))));
        }
    }
    let rendered: Vec<String> =
        actual.iter().map(|(p, s, f)| format!("    (\"{p}\", {s}, \"{f}\"),")).collect();
    let expected: Vec<(&str, u64, String)> =
        GOLDEN.iter().map(|&(p, s, f)| (p, s, f.to_string())).collect();
    assert_eq!(actual, expected, "golden replay diverged; actual table:\n{}", rendered.join("\n"));
}
