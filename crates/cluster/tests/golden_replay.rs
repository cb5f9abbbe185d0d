//! Golden replay: every fleet fault preset, at two seeds, must produce
//! exactly the `ClusterReport` it produced when these values were
//! captured — integer fields by value, every f64 by its bit pattern —
//! and exactly the same `EpochReport` for every epoch of the run, pinned
//! by a hash. Any change to a fault draw's `(seed, tick, stream, key)`,
//! its gating, or the epoch pipeline's arithmetic shows up here as a
//! diff.

use pbc_cluster::{parse_spec, ClusterReport, EpochReport, Fleet, FleetCoordinator, TenantSet};
use pbc_faults::{FleetFaultPlan, FLEET_PRESETS};
use pbc_types::Watts;

/// Presets that run with the tenant set attached.
const TENANTED: [&str; 3] = ["demand-spike", "noisy-neighbor", "everything"];

/// `(plan, seed, fingerprint, epoch hash)`: the report's fields in
/// declaration order, f64s as `to_bits` hex and `reconverged_at` as `-`
/// when `None`, then [`epoch_hash`] over the run's epochs.
const GOLDEN: [(&str, u64, &str, u64); 22] = [
    ("calm", 7, "8 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4030a7b80890dd24 0 0 0 0 0 3ff0000000000000", 0xdaa2e0819d15e81d),
    ("calm", 11, "8 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4030a7b80890dd24 0 0 0 0 0 3ff0000000000000", 0xdaa2e0819d15e81d),
    ("node-dropouts", 7, "42 19 19 0 0 0 0 0 76 0 19 19 4 3fe8c30c30c30c31 405e3d0e8b0b99af 34 0 0 0 0 3ff0000000000000", 0x10e54b021176a0dc),
    ("node-dropouts", 11, "42 11 11 0 0 0 0 0 44 0 11 11 6 3febcf3cf3cf3cf4 405c24d6e104adea 34 0 0 0 0 3ff0000000000000", 0x711c2e2ebfd50cc0),
    ("node-crash", 7, "44 7 7 0 0 0 0 0 84 0 7 7 5 3fe961bed61bed62 406099d7beede7a5 36 0 0 0 0 3ff0000000000000", 0x8cc59284955ba490),
    ("node-crash", 11, "44 3 3 0 0 0 0 0 36 0 3 3 7 3fed29e4129e412a 405c48a1b524791a 36 0 0 0 0 3ff0000000000000", 0x6d006fdeaea9b3d8),
    ("node-rejoin", 7, "39 22 22 0 0 0 0 0 66 0 22 22 5 3fe8c78c78c78c79 405c1ad088a734fd 31 0 0 0 0 3ff0000000000000", 0x911e5b0785dc2d89),
    ("node-rejoin", 11, "39 17 17 0 0 0 0 0 51 0 17 17 5 3fea6ba6ba6ba6ba 405abff664e7225d 31 0 0 0 0 3ff0000000000000", 0x9196b73a4cef4f34),
    ("stragglers", 7, "44 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4052876323212937 36 0 0 0 0 3ff0000000000000", 0x147cac6f36f96aa5),
    ("stragglers", 11, "44 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 405322bdf2c400ba 36 0 0 0 0 3ff0000000000000", 0xf8ecb83e3971806e),
    ("report-loss", 7, "40 0 0 0 0 0 0 0 61 36 11 11 10 3fe75c28f5c28f5c 4054697f032092fe 33 0 0 0 0 3ff0000000000000", 0x28ee3a4179a09fcf),
    ("report-loss", 11, "40 0 0 0 0 0 0 0 67 27 5 5 10 3fe8147ae147ae14 4054e0058d26ebf0 32 0 0 0 0 3ff0000000000000", 0xa9a42af363309464),
    ("flaky-writes", 7, "48 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4058fb940cd94bb1 40 0 0 0 0 3ff0000000000000", 0xbaa5f36443e38215),
    ("flaky-writes", 11, "48 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4058fb940cd94bb1 40 0 0 0 0 3ff0000000000000", 0xbaa5f36443e38215),
    ("write-outage", 7, "38 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4053c72a8a2c0697 30 0 0 0 0 3ff0000000000000", 0xb0e289c4c4de19dc),
    ("write-outage", 11, "38 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4053c72a8a2c0697 30 0 0 0 0 3ff0000000000000", 0xb0e289c4c4de19dc),
    ("demand-spike", 7, "41 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 405556e3caf99b52 33 5 0 88 0 3fef63b17fb79947", 0xb8e2e288e3d65818),
    ("demand-spike", 11, "41 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 405556e3caf99b52 33 10 0 128 0 3fef63b17fb79947", 0x84d041b5791fbe3f),
    ("noisy-neighbor", 7, "48 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4058fb940cd94bb1 40 1 5 196 0 3fef63b17fb79947", 0xfb592ef0a6306901),
    ("noisy-neighbor", 11, "48 0 0 0 0 0 0 0 0 0 0 0 10 3ff0000000000000 4058fb940cd94bb1 40 4 3 168 0 3fef63b17fb79947", 0x73caaeca3b666c9a),
    ("everything", 7, "57 13 13 11 44 0 0 4 68 13 14 14 7 3feaaaaaaaaaaaab 406153894a6a1bc4 49 1 3 88 0 3fea8b0e50ff9777", 0x645560a8eb5d2882),
    ("everything", 11, "57 10 10 1 13 0 0 4 61 14 11 11 6 3feb2c0397cdb2c0 4060ddb13835d6cf 49 5 2 112 0 3feb65cbe2bae5d9", 0x9453c4645788cef8),
];

/// Every field of the report, in declaration order. The destructuring
/// is exhaustive, so a new field cannot slip past the pin.
fn fingerprint(r: &ClusterReport) -> String {
    let ClusterReport {
        epochs, dropouts, recoveries, write_failures, write_retries, budget_violations,
        quarantine_leaks, degraded_epochs, missed_reports, rejected_reports, quarantines,
        rejoins, min_nodes_up, availability, work_done, reconverged_at, tenant_spikes,
        tenant_noisy, tenant_preemptions, tenant_floor_violations, min_tenant_jain,
    } = *r;
    let reconverged = reconverged_at.map_or_else(|| "-".to_string(), |t| t.to_string());
    format!(
        "{epochs} {dropouts} {recoveries} {write_failures} {write_retries} {budget_violations} \
         {quarantine_leaks} {degraded_epochs} {missed_reports} {rejected_reports} \
         {quarantines} {rejoins} {min_nodes_up} {:x} {:x} \
         {reconverged} {tenant_spikes} {tenant_noisy} {tenant_preemptions} \
         {tenant_floor_violations} {:x}",
        availability.to_bits(),
        work_done.to_bits(),
        min_tenant_jain.to_bits(),
    )
}

/// FNV-1a over every field of every epoch, in declaration order: each
/// field one little-endian `u64` (counts by value, bools as 0/1, floats
/// and watts by their bits). The destructuring is exhaustive, so a new
/// field cannot slip past the pin either.
fn epoch_hash(epochs: &[EpochReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in epochs {
        let EpochReport {
            tick, nodes_up, dropped, recovered, write_failures, write_retries, missed_reports,
            rejected_reports, quarantines, rejoins, degraded, over_budget, leaked, healthy,
            aggregate_perf, enforced_total, moved, reclaimed, tenant_spikes, tenant_noisy,
            tenant_preemptions, tenant_floor_violations, tenant_jain,
        } = *e;
        let words = [
            tick as u64, nodes_up as u64, dropped as u64, recovered as u64,
            write_failures as u64, write_retries as u64, missed_reports as u64,
            rejected_reports as u64, quarantines as u64, rejoins as u64, u64::from(degraded),
            u64::from(over_budget), u64::from(leaked), healthy as u64, aggregate_perf.to_bits(),
            enforced_total.value().to_bits(), moved.value().to_bits(),
            reclaimed.value().to_bits(), tenant_spikes as u64, tenant_noisy as u64,
            tenant_preemptions as u64, tenant_floor_violations as u64, tenant_jain.to_bits(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The preset's run report, and the hash of the same run's epochs as a
/// second coordinator steps them.
fn run(fleet: &Fleet, name: &str, seed: u64) -> (ClusterReport, u64) {
    let plan = FleetFaultPlan::by_name(name, seed).unwrap();
    let epochs = plan.quiet_after() + 8;
    let global = fleet.min_total_power() + Watts::new(150.0);
    let coordinator = || {
        let coord =
            FleetCoordinator::new(fleet.clone(), global).unwrap().with_plan(plan.clone()).unwrap();
        if TENANTED.contains(&name) {
            coord.with_tenants(TenantSet::parse("web:3:gold,etl:2:silver,batch:1").unwrap())
        } else {
            coord
        }
    };
    let report = coordinator().run(epochs).unwrap();
    let mut stepped = coordinator();
    let reports: Vec<EpochReport> = (0..epochs).map(|_| stepped.step().unwrap()).collect();
    (report, epoch_hash(&reports))
}

#[test]
fn every_preset_replays_its_golden_report() {
    let spec = parse_spec("4 ivybridge stream\n4 haswell dgemm\n2 titan-xp sgemm\n").unwrap();
    let fleet = Fleet::build(&spec).unwrap();
    let mut actual = Vec::new();
    for (plan, ..) in FLEET_PRESETS {
        for seed in [7, 11] {
            let (report, hash) = run(&fleet, plan, seed);
            actual.push((plan, seed, fingerprint(&report), hash));
        }
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(p, s, f, h)| format!("    (\"{p}\", {s}, \"{f}\", {h:#018x}),"))
        .collect();
    let expected: Vec<(&str, u64, String, u64)> =
        GOLDEN.iter().map(|&(p, s, f, h)| (p, s, f.to_string(), h)).collect();
    assert_eq!(actual, expected, "golden replay diverged; actual table:\n{}", rendered.join("\n"));
}
