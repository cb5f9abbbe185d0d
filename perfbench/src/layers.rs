//! Per-layer timings shared by every traced run.
//!
//! Each traced run first measures the layers its own workload drives
//! (serve, cluster or sweep), then reads the layer counters as deltas
//! over that workload phase, then times the remaining layers' public
//! calls here. A layer the workload does not drive is timed on a small
//! probe of its own (a 64-session daemon, a 32-node calm fleet, two
//! oracle curves); its counters still read what the workload did.

use crate::hist::Hist;
use crate::{Counters, Outcome, PER_LAYER, TRACED_COUNTERS};
use pbc_core::{BudgetOutcome, CurveTable};
use pbc_par::Pool;
use pbc_powersim::{CpuMechanismState, MechanismState, NodeOperatingPoint, SolveMemo};
use pbc_serve::session::{resolve_platform, Session};
use pbc_trace::names;
use pbc_types::{AllocationSpace, Bandwidth, PowerAllocation, Watts};
use pbc_workloads::by_name;
use std::time::{Duration, Instant};

/// Which layer the workload itself already measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// serve-agents measured the serve layer.
    Serve,
    /// A fleet workload measured the cluster layer.
    Cluster,
    /// oracle-suite measured the sweep layer.
    Sweep,
}

/// How long each stand-in probe measures.
const PROBE_TIME: Duration = Duration::from_millis(400);
/// Calls per timed loop in the core and powersim probes.
const CALLS: usize = 20_000;

/// Set the layer counters that moved since `before` (the workload
/// phase), unless the workload already set them, and the memo hit
/// ratio they give.
pub fn counters(out: &mut Outcome, before: &Counters) {
    for name in TRACED_COUNTERS {
        if PER_LAYER.iter().any(|(n, _)| *n == name) && !out.values.contains_key(name) {
            out.set(name, before.delta(name) as f64);
        }
    }
    let hits = before.delta(names::SOLVE_CACHE_HITS) as f64;
    let misses = before.delta(names::SOLVE_CACHE_MISSES) as f64;
    out.set(
        "powersim.memo_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
}

/// Finish a traced run: time every layer the workload did not drive on
/// its stand-in probe, then the core, powersim and par calls.
/// `par_n` is the workload's node or session count.
#[must_use = "a failed probe must fail the run"]
pub fn common(out: &mut Outcome, skip: Skip, par_n: usize) -> Result<(), String> {
    let mut probe = Outcome::default();
    if skip != Skip::Serve {
        crate::serve_agents::probe(&mut probe, PROBE_TIME)?;
    }
    if skip != Skip::Cluster {
        crate::fleet::probe(&mut probe, PROBE_TIME)?;
    }
    if skip != Skip::Sweep {
        crate::oracle::probe(&mut probe, PROBE_TIME)?;
    }
    // The stand-ins' timings and ratios carry over, with the request
    // counts that are the ratios' bases; their layer counters do not,
    // as they are not this workload's work.
    for (name, unit) in PER_LAYER {
        let carried = unit != "count" || name.starts_with("core.");
        if carried && !name.starts_with("trace.") && !name.starts_with("powersim.") {
            if let Some(v) = probe.values.get(name) {
                out.set(name, *v);
            }
        }
    }
    core_session(out)?;
    table_build(out)?;
    powersim(out)?;
    par(out, par_n)
}

/// `Session::open`, and `set_budget`/`observe` each followed by
/// `next_allocation`, on an `ivybridge/stream` session.
fn core_session(out: &mut Outcome) -> Result<(), String> {
    let mut open = Hist::new();
    for (platform, bench) in crate::serve_agents::CLASSES {
        for _ in 0..64 {
            let t0 = Instant::now();
            let s = Session::open(platform, bench, 208.0).map_err(|e| e.to_string())?;
            open.record_duration(t0.elapsed());
            std::hint::black_box(s);
        }
    }
    out.set("core.session_open_us.p50", open.quantile(0.5) / 1e3);

    let mut s = Session::open("ivybridge", "stream", 208.0).map_err(|e| e.to_string())?;
    let span_w = (s.ceiling - s.floor).max(Watts::ZERO);
    let points = [s.floor + span_w * 0.25, s.floor + span_w * 0.75];
    let mut set = Hist::new();
    for i in 0..CALLS {
        let t0 = Instant::now();
        let outcome = s.tuner.set_budget(points[i % 2]);
        let a = s.tuner.next_allocation();
        set.record_duration(t0.elapsed());
        std::hint::black_box(a);
        if outcome != BudgetOutcome::Applied {
            return Err(format!(
                "set_budget({}) was not applied: {outcome:?}",
                points[i % 2].value()
            ));
        }
    }
    out.set("core.set_budget_ns.p50", set.quantile(0.5));

    let mut observe = Hist::new();
    let mut alloc = s.tuner.next_allocation();
    for i in 0..CALLS {
        if i % 64 == 0 {
            // Re-open the search now and then so it keeps probing.
            let _ = s.tuner.set_budget(points[(i / 64) % 2]);
            alloc = s.tuner.next_allocation();
        }
        let op = observed(alloc, 0.4 + 0.001 * (i % 100) as f64);
        let t0 = Instant::now();
        std::hint::black_box(s.tuner.observe(&op));
        alloc = s.tuner.next_allocation();
        observe.record_duration(t0.elapsed());
    }
    out.set("core.observe_ns.p50", observe.quantile(0.5));
    Ok(())
}

/// The operating point an agent reports after running `alloc`.
fn observed(alloc: PowerAllocation, perf: f64) -> NodeOperatingPoint {
    NodeOperatingPoint {
        alloc,
        perf_rel: perf,
        proc_power: alloc.proc * 0.9,
        mem_power: alloc.mem * 0.9,
        work_rate: 0.0,
        bandwidth: Bandwidth::new(0.0),
        proc_busy: 0.0,
        mechanism: MechanismState::Cpu(CpuMechanismState {
            pstate: 0,
            duty: 1.0,
            cap_unenforceable: false,
        }),
    }
}

/// Cold `CurveTable::profile_with_pool` of the serve classes, summed.
fn table_build(out: &mut Outcome) -> Result<(), String> {
    let mut total = Duration::ZERO;
    for (platform, bench) in crate::serve_agents::CLASSES {
        let p = resolve_platform(platform).map_err(|e| e.to_string())?;
        let demand = by_name(bench).ok_or("unknown benchmark")?.demand;
        SolveMemo::clear_shared();
        let t0 = Instant::now();
        let t = CurveTable::profile_with_pool(&p, &demand, Pool::global())
            .map_err(|e| e.to_string())?;
        total += t0.elapsed();
        std::hint::black_box(t);
    }
    out.set("core.table_build_ms", total.as_secs_f64() * 1e3);
    Ok(())
}

/// A solve that misses a fresh memo, and one that hits it.
fn powersim(out: &mut Outcome) -> Result<(), String> {
    let p = resolve_platform("ivybridge").map_err(|e| e.to_string())?;
    let demand = by_name("stream").ok_or("unknown benchmark")?.demand;
    let memo = SolveMemo::fresh(&p, &demand);
    let problem = pbc_core::PowerBoundedProblem::new(p.clone(), demand.clone(), Watts::new(208.0))
        .map_err(|e| e.to_string())?;
    let mut allocs = Vec::with_capacity(CALLS / 4);
    let mut budget = 150.0;
    while allocs.len() < CALLS / 4 && budget < 260.0 {
        let space = AllocationSpace::new(
            Watts::new(budget),
            problem.proc_cap_range(),
            problem.mem_cap_range(),
            Watts::new(1.0),
        );
        allocs.extend(space.iter());
        budget += 1.0;
    }
    let (mut miss, mut hit) = (Hist::new(), Hist::new());
    for a in &allocs {
        let t0 = Instant::now();
        let (r, was_hit) = memo.solve_traced(*a);
        let dt = t0.elapsed();
        // Distinct allocations can share a canonical key; only true
        // misses count here.
        if !was_hit {
            miss.record_duration(dt);
        }
        std::hint::black_box(r.is_ok());
    }
    for a in &allocs {
        let t0 = Instant::now();
        let r = memo.solve(*a);
        hit.record_duration(t0.elapsed());
        std::hint::black_box(r.is_ok());
    }
    out.set("powersim.solve_ns.p50", miss.quantile(0.5));
    out.set("powersim.memo_hit_ns.p50", hit.quantile(0.5));
    Ok(())
}

/// `Pool::run` of an empty task over `n` indices: the fork-join floor.
fn par(out: &mut Outcome, n: usize) -> Result<(), String> {
    let pool = Pool::global();
    let mut h = Hist::new();
    for _ in 0..500 {
        let t0 = Instant::now();
        let stats = pool.run(n, &|i| {
            std::hint::black_box(i);
        });
        h.record_duration(t0.elapsed());
        if stats.panic.is_some() {
            return Err("an empty pool task panicked".into());
        }
    }
    out.set("par.run_us.p50", h.quantile(0.5) / 1e3);
    Ok(())
}
