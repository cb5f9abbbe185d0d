//! The daemon answers identically to the batch path.
//!
//! A request log dispatched through the live `ServeEngine` must produce
//! **bit-identical** allocations to the same operations replayed
//! against a fresh offline `OnlineCoordinator` built by the public
//! session recipe (see `crates/serve/src/session.rs` docs). Floats
//! cross the wire through Rust's shortest round-trip `Display`, so the
//! comparison is on exact `f64` bits, not tolerances.

use pbc_core::{BudgetOutcome, CurveTable, ObservationOutcome, OnlineCoordinator};
use pbc_powersim::{CpuMechanismState, MechanismState, NodeOperatingPoint};
use pbc_serve::{parse_alloc_line, Disposition, ServeEngine};
use pbc_types::{Bandwidth, PowerAllocation, Watts};

/// The offline mirror of one serve session, built by the same recipe.
fn offline_coordinator(platform: &str, bench: &str, budget: f64) -> OnlineCoordinator {
    let platform = pbc_platform::PlatformId::from_slug(platform)
        .map(pbc_platform::presets::by_id)
        .expect("known platform");
    let bench = pbc_workloads::by_name(bench).expect("known bench");
    let budget = Watts::new(budget);
    let table = CurveTable::shared(&platform, &bench.demand).expect("table builds");
    let initial = table
        .alloc_at(budget)
        .unwrap_or_else(|| PowerAllocation::split(budget, 0.5));
    OnlineCoordinator::new(budget, initial, platform.min_node_power()).with_table(table)
}

fn offline_observe(tuner: &mut OnlineCoordinator, fields: [f64; 5]) {
    let [perf, proc_w, mem_w, cap_proc, cap_mem] = fields;
    let op = NodeOperatingPoint {
        alloc: PowerAllocation::new(Watts::new(cap_proc), Watts::new(cap_mem)),
        perf_rel: perf,
        proc_power: Watts::new(proc_w),
        mem_power: Watts::new(mem_w),
        work_rate: 0.0,
        bandwidth: Bandwidth::new(0.0),
        proc_busy: 0.0,
        mechanism: MechanismState::Cpu(CpuMechanismState {
            pstate: 0,
            duty: 1.0,
            cap_unenforceable: false,
        }),
    };
    let _ = tuner.observe(&op);
}

fn bits(a: PowerAllocation) -> (u64, u64) {
    (a.proc.value().to_bits(), a.mem.value().to_bits())
}

#[test]
fn replayed_request_log_is_bit_identical_to_offline_calls() {
    let engine = ServeEngine::new();
    let mut out = String::new();

    assert_eq!(
        engine.dispatch_into("node 1 ivybridge stream 208", &mut out),
        Disposition::Respond
    );
    assert!(out.starts_with("alloc 1 "), "{out}");

    // A budget trajectory that walks the table up and down, with a few
    // observation epochs interleaved — enough to move the coordinator
    // through probe / accept / reject states.
    let budgets = [176.0, 208.25, 190.0, 176.0, 240.0, 208.25];
    let observations: [[f64; 5]; 2] = [
        // perf, proc_w, mem_w, cap_proc, cap_mem — the caps are filled
        // in from the daemon's own last response at replay time.
        [0.91, 120.0, 55.0, 0.0, 0.0],
        [0.94, 118.0, 57.0, 0.0, 0.0],
    ];

    // --- live daemon path ------------------------------------------------
    let mut daemon_allocs: Vec<PowerAllocation> = Vec::new();
    let mut last = PowerAllocation::new(Watts::ZERO, Watts::ZERO);
    for (i, b) in budgets.iter().enumerate() {
        engine.dispatch_into(&format!("budget 1 {b}"), &mut out);
        let alloc = parse_alloc_line(&out).unwrap_or_else(|| panic!("not an alloc line: {out}"));
        daemon_allocs.push(alloc);
        last = alloc;
        if let Some(obs) = observations.get(i) {
            // Observe against the exact caps the daemon just issued —
            // rendered and re-parsed through the wire format.
            engine.dispatch_into(
                &format!(
                    "observe 1 {} {} {} {} {}",
                    obs[0],
                    obs[1],
                    obs[2],
                    last.proc.value(),
                    last.mem.value()
                ),
                &mut out,
            );
            let next = parse_alloc_line(&out)
                .unwrap_or_else(|| panic!("observe response not an alloc line: {out}"));
            daemon_allocs.push(next);
            last = next;
        }
        engine.dispatch_into("query 1", &mut out);
        let best = parse_alloc_line(&out).expect("query answers an alloc line");
        daemon_allocs.push(best);
    }
    let _ = last;

    // --- offline batch path ----------------------------------------------
    let mut tuner = offline_coordinator("ivybridge", "stream", 208.0);
    let mut offline_allocs: Vec<PowerAllocation> = Vec::new();
    let mut last = PowerAllocation::new(Watts::ZERO, Watts::ZERO);
    for (i, b) in budgets.iter().enumerate() {
        match tuner.set_budget(Watts::new(*b)) {
            BudgetOutcome::Applied => {
                let next = tuner.next_allocation();
                offline_allocs.push(next);
                last = next;
            }
            BudgetOutcome::Unchanged => {
                offline_allocs.push(tuner.best());
                last = tuner.best();
            }
            other => panic!("offline budget rejected: {other:?}"),
        }
        if let Some(obs) = observations.get(i) {
            offline_observe(
                &mut tuner,
                [obs[0], obs[1], obs[2], last.proc.value(), last.mem.value()],
            );
            let next = tuner.next_allocation();
            offline_allocs.push(next);
            last = next;
        }
        offline_allocs.push(tuner.best());
    }
    let _ = last;

    assert_eq!(daemon_allocs.len(), offline_allocs.len());
    for (i, (d, o)) in daemon_allocs.iter().zip(offline_allocs.iter()).enumerate() {
        assert_eq!(
            bits(*d),
            bits(*o),
            "step {i}: daemon {:?} != offline {:?}",
            d,
            o
        );
    }
}

#[test]
fn observation_validation_mirrors_the_coordinator() {
    let engine = ServeEngine::new();
    let mut out = String::new();
    engine.dispatch_into("node 9 ivybridge stream 208", &mut out);
    engine.dispatch_into("budget 9 190", &mut out);
    let probe = parse_alloc_line(&out).expect("alloc line");

    // NaN perf → rejected-observation, session survives. The rejection
    // voids the pending probe (coordinator semantics: a rejected epoch
    // is void, not judged).
    engine.dispatch_into(
        &format!(
            "observe 9 NaN 100 50 {} {}",
            probe.proc.value(),
            probe.mem.value()
        ),
        &mut out,
    );
    assert!(out.starts_with("err rejected-observation"), "{out}");

    // With the probe voided, the next observation is admitted trivially
    // and the daemon re-proposes the *same* candidate — caps on this
    // line are not validated because there is no probe to compare to.
    engine.dispatch_into("observe 9 0.9 100 50 1.0 1.0", &mut out);
    let reproposed = parse_alloc_line(&out).expect("re-proposal is an alloc line");
    assert_eq!(bits(reproposed), bits(probe), "voided probe re-proposed");
    assert!(out.ends_with("outcome=used"), "{out}");

    // Now the probe is armed again: stale caps → rejected-observation.
    engine.dispatch_into("observe 9 0.9 100 50 1.0 1.0", &mut out);
    assert!(out.starts_with("err rejected-observation"), "{out}");

    // Re-arm, then an absurd surrogate (beyond the credible ceiling) →
    // rejected-observation even with the correct caps.
    engine.dispatch_into("observe 9 0.9 100 50 1.0 1.0", &mut out);
    assert!(out.ends_with("outcome=used"), "{out}");
    engine.dispatch_into(
        &format!(
            "observe 9 999 100 50 {} {}",
            probe.proc.value(),
            probe.mem.value()
        ),
        &mut out,
    );
    assert!(out.starts_with("err rejected-observation"), "{out}");

    // Offline mirror: the same call sequence through the coordinator
    // directly, asserting identical outcomes and identical proposals.
    let mut tuner = {
        let platform = pbc_platform::presets::by_id(
            pbc_platform::PlatformId::from_slug("ivybridge").expect("slug"),
        );
        let bench = pbc_workloads::by_name("stream").expect("bench");
        let table = CurveTable::shared(&platform, &bench.demand).expect("table");
        let initial = table
            .alloc_at(Watts::new(208.0))
            .expect("208 W is on the table");
        OnlineCoordinator::new(Watts::new(208.0), initial, platform.min_node_power())
            .with_table(table)
    };
    assert_eq!(tuner.set_budget(Watts::new(190.0)), BudgetOutcome::Applied);
    let offline_probe = tuner.next_allocation();
    assert_eq!(bits(probe), bits(offline_probe));

    let mk = |caps: PowerAllocation, perf: f64| NodeOperatingPoint {
        alloc: caps,
        perf_rel: perf,
        proc_power: Watts::new(100.0),
        mem_power: Watts::new(50.0),
        work_rate: 0.0,
        bandwidth: Bandwidth::new(0.0),
        proc_busy: 0.0,
        mechanism: MechanismState::Cpu(CpuMechanismState {
            pstate: 0,
            duty: 1.0,
            cap_unenforceable: false,
        }),
    };
    let garbage = PowerAllocation::new(Watts::new(1.0), Watts::new(1.0));
    let nan = f64::from_bits(0x7ff8_0000_0000_0000);

    // Same call sequence as the daemon side above. One daemon `observe`
    // that answers an alloc line equals `observe` + `next_allocation`
    // offline; a rejected one equals `observe` alone.
    assert_eq!(
        tuner.observe(&mk(offline_probe, nan)),
        ObservationOutcome::RejectedNonFinite
    );
    assert_eq!(tuner.observe(&mk(garbage, 0.9)), ObservationOutcome::Used);
    assert_eq!(bits(tuner.next_allocation()), bits(offline_probe));
    assert_eq!(
        tuner.observe(&mk(garbage, 0.9)),
        ObservationOutcome::RejectedStale
    );
    assert_eq!(tuner.observe(&mk(garbage, 0.9)), ObservationOutcome::Used);
    assert_eq!(bits(tuner.next_allocation()), bits(offline_probe));
    assert_eq!(
        tuner.observe(&mk(offline_probe, 999.0)),
        ObservationOutcome::RejectedOutOfRange
    );

    // Re-arm both sides, then a real baseline observation against the
    // issued caps: daemon and offline must agree on the next probe.
    engine.dispatch_into("observe 9 0.9 100 50 1.0 1.0", &mut out);
    assert!(out.ends_with("outcome=used"), "{out}");
    engine.dispatch_into(
        &format!(
            "observe 9 0.9 100 50 {} {}",
            probe.proc.value(),
            probe.mem.value()
        ),
        &mut out,
    );
    let daemon_next = parse_alloc_line(&out).expect("alloc line");

    assert_eq!(tuner.observe(&mk(garbage, 0.9)), ObservationOutcome::Used);
    assert_eq!(bits(tuner.next_allocation()), bits(offline_probe));
    assert_eq!(
        tuner.observe(&mk(offline_probe, 0.9)),
        ObservationOutcome::Used
    );
    let offline_next = tuner.next_allocation();
    assert_eq!(bits(daemon_next), bits(offline_next));
}
