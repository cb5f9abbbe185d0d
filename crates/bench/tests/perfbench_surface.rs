//! perfbench's call surface, held by the workspace's own tests.
//!
//! `perfbench/` is the repository's end-to-end benchmark. It is a
//! package of its own, outside this workspace, so `cargo test` never
//! builds it: a refactor that renames, retypes or deletes an item it
//! calls would only show when the benchmark is built. Each function
//! below mirrors one perfbench module and names every `pbc_*` item that
//! module names, called with the argument types perfbench passes and
//! bound to the types it reads back, so such a refactor fails here
//! first. The tests run every function on small inputs: one fleet
//! class, two oracle curves at two rungs, a daemon nobody connects to.

use pbc_cluster::{
    fill_shares, CapSink, ClusterDecision, EpochReport, Fleet, FleetCoordinator, NodeCurve,
    Objective, SpecLine, TenantSet, DEFAULT_GRANT,
};
use pbc_core::{
    coord_cpu, coord_gpu, node_ceiling, node_floor, sweep_budget, sweep_curve_with_pool,
    BudgetOutcome, CoordResult, CriticalPowers, CurveTable, GpuCoordParams, PowerBoundedProblem,
    SweepProfile, DEFAULT_STEP,
};
use pbc_faults::FleetFaultPlan;
use pbc_par::Pool;
use pbc_platform::presets::{haswell, ivybridge, titan_v, titan_xp};
use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::{
    CpuMechanismState, MechanismState, NodeOperatingPoint, SolveMemo, WorkloadDemand,
};
use pbc_serve::session::{resolve_platform, Session};
use pbc_serve::{proto, ServeEngine, Server, ServerConfig};
use pbc_trace::names;
use pbc_types::{AllocationSpace, Bandwidth, PbcError, PowerAllocation, Watts, XorShift64Star};
use pbc_workloads::{by_name, cpu_suite, gpu_suite};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Every counter perfbench reads through `pbc_trace::counter(name).get()`.
const COUNTERS: [&str; 24] = [
    names::SERVE_REQUESTS,
    names::SERVE_SERVED_REQUESTS,
    names::SERVE_REJECTED_REQUESTS,
    names::FASTPATH_TABLE_HITS,
    names::SWEEP_POINTS_TOTAL,
    names::SWEEP_POINTS_EVALUATED,
    names::SWEEP_POINTS_INFEASIBLE,
    names::SWEEP_POINTS_LOST,
    names::SWEEP_CURVE_REUSE_HITS,
    names::SOLVE_CACHE_HITS,
    names::SOLVE_CACHE_MISSES,
    names::CLUSTER_EPOCHS,
    names::CLUSTER_DEGRADED_EPOCHS,
    names::CLUSTER_WRITE_RETRIES,
    names::CLUSTER_WRITE_FAILURES,
    names::CLUSTER_REJECTED_REPORTS,
    names::CLUSTER_MISSED_REPORTS,
    names::CLUSTER_TENANT_PREEMPTIONS,
    names::POOL_JOBS,
    names::POOL_STEALS,
    names::ONLINE_REJECTED_OBSERVATIONS,
    names::CLUSTER_BUDGET_VIOLATIONS,
    names::HEALTH_QUARANTINE_LEAKS,
    names::CLUSTER_TENANT_FLOOR_VIOLATIONS,
];

/// perfbench's cap sink: the last cap written per node.
struct MemSink(Arc<Mutex<Vec<Watts>>>);

impl CapSink for MemSink {
    fn write_cap(&mut self, node: usize, cap: Watts) -> pbc_types::Result<()> {
        let mut caps = self.0.lock().map_err(|_| PbcError::Io("cap sink lock poisoned".into()))?;
        let slot = caps
            .get_mut(node)
            .ok_or_else(|| PbcError::InvalidInput(format!("cap write for node {node}")))?;
        *slot = cap;
        Ok(())
    }
}

/// perfbench/src/fleet.rs: set-up with cold registries, the fault-free
/// reference, one tenanted episode onto the sink, and one epoch's
/// layers. Returns the reference's aggregate over the curve oracle's.
fn fleet_surface(per_class: usize, pool: &Pool) -> Result<f64, String> {
    CurveTable::clear_shared();
    SolveMemo::clear_shared();
    let spec: Vec<SpecLine> = [("ivybridge", "stream")]
        .iter()
        .map(|&(p, b)| SpecLine { count: per_class, platform: p.into(), bench: b.into() })
        .collect();
    let fleet: Fleet = Fleet::build_with_pool(&spec, pool).map_err(|e| e.to_string())?;
    // Past stream's productive threshold, where COORD runs every node.
    let global: Watts = fleet.min_total_power() * 2.0;

    let reference = FleetCoordinator::new(fleet.clone(), global).map_err(|e| e.to_string())?;
    let decision: ClusterDecision =
        reference.coordinate_with_pool(pool).map_err(|e| e.to_string())?;
    let oracle: f64 = decision
        .shares
        .iter()
        .enumerate()
        .map(|(i, share)| fleet.class_of(i).curve.perf_at(*share))
        .sum();

    let plan: FleetFaultPlan = FleetFaultPlan::by_name("everything", 1).ok_or("unknown plan")?;
    let _: usize = plan.quiet_after();
    let caps = Arc::new(Mutex::new(vec![Watts::ZERO; fleet.len()]));
    let tenants: TenantSet =
        TenantSet::parse("web:3:gold,etl:2:silver,batch:1").map_err(|e| e.to_string())?;
    let mut coord: FleetCoordinator = FleetCoordinator::new(fleet, global)
        .and_then(|c| c.with_plan(plan))
        .map_err(|e| e.to_string())?
        .with_cap_sink(Box::new(MemSink(Arc::clone(&caps))))
        .with_tenants(tenants);
    coord.provision().map_err(|e| e.to_string())?;
    let report: EpochReport = coord.step_with_pool(pool).map_err(|e| e.to_string())?;
    let _: (usize, usize, f64) =
        (report.tick, report.tenant_floor_violations, report.aggregate_perf);
    let _: (&[Watts], Vec<bool>, Watts) =
        (coord.enforced_caps(), coord.down_mask(), coord.global_budget());

    let fleet: &Fleet = coord.fleet();
    let curves: Vec<NodeCurve<'_>> = (0..fleet.len())
        .map(|i| NodeCurve { floor: fleet.class_of(i).floor, curve: &fleet.class_of(i).curve })
        .collect();
    let objective: Objective = coord.objective();
    let shares: Vec<Watts> =
        fill_shares(&curves, &[], coord.global_budget(), DEFAULT_GRANT, objective)
            .map_err(|e| e.to_string())?;
    let class = fleet.class_of(0);
    let share = coord.enforced_caps()[0].max(class.floor);
    let _: bool = class.coordinate(share).is_ok();
    let tenants = coord.tenants().ok_or("tenants were set")?;
    let _ = tenants.split_node(share, class.floor, &vec![1.0; tenants.len()]);
    std::hint::black_box(shares);
    Ok(decision.aggregate_perf / oracle)
}

/// The operating point an agent reports, built field by field as
/// perfbench/src/layers.rs builds it.
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

/// perfbench/src/layers.rs: `Session::open` and its tuner, a cold table
/// build, a fresh memo's misses and hits, and the pool's fork-join.
fn layers_surface(pool: &Pool) -> Result<(), String> {
    let mut s: Session = Session::open("ivybridge", "stream", 208.0).map_err(|e| e.to_string())?;
    let span_w: Watts = (s.ceiling - s.floor).max(Watts::ZERO);
    let outcome: BudgetOutcome = s.tuner.set_budget(s.floor + span_w * 0.25);
    if outcome != BudgetOutcome::Applied {
        return Err(format!("set_budget was not applied: {outcome:?}"));
    }
    let alloc: PowerAllocation = s.tuner.next_allocation();
    std::hint::black_box(s.tuner.observe(&observed(alloc, 0.5)));

    let p: Platform = resolve_platform("ivybridge").map_err(|e| e.to_string())?;
    let demand: WorkloadDemand = by_name("stream").ok_or("unknown benchmark")?.demand;
    SolveMemo::clear_shared();
    let table: CurveTable =
        CurveTable::profile_with_pool(&p, &demand, pool).map_err(|e| e.to_string())?;
    std::hint::black_box(table);

    let memo: SolveMemo = SolveMemo::fresh(&p, &demand);
    let problem = PowerBoundedProblem::new(p.clone(), demand.clone(), Watts::new(208.0))
        .map_err(|e| e.to_string())?;
    let space = AllocationSpace::new(
        Watts::new(150.0),
        problem.proc_cap_range(),
        problem.mem_cap_range(),
        Watts::new(1.0),
    );
    for a in space.iter() {
        let (r, _hit): (pbc_types::Result<NodeOperatingPoint>, bool) = memo.solve_traced(a);
        let again: pbc_types::Result<NodeOperatingPoint> = memo.solve(a);
        std::hint::black_box((r.is_ok(), again.is_ok()));
    }

    let stats = pool.run(4, &|i| {
        std::hint::black_box(i);
    });
    if stats.panic.is_some() {
        return Err("an empty pool task panicked".into());
    }
    Ok(())
}

/// Every `(platform, benchmark)` pair of the suite, as
/// perfbench/src/oracle.rs lists them.
fn catalog() -> Vec<(Platform, String, WorkloadDemand)> {
    let mut out = Vec::new();
    for p in [ivybridge(), haswell()] {
        for b in cpu_suite() {
            out.push((p.clone(), b.id.slug().to_string(), b.demand));
        }
    }
    for p in [titan_xp(), titan_v()] {
        for b in gpu_suite() {
            out.push((p.clone(), b.id.slug().to_string(), b.demand));
        }
    }
    out
}

/// perfbench/src/oracle.rs: shuffle the curves, take each class's floor
/// and ceiling, probe COORD's inputs, price COORD at every rung and run
/// one cold oracle pass. Returns the points swept.
fn oracle_surface(
    mut list: Vec<(Platform, String, WorkloadDemand)>,
    pool: &Pool,
) -> Result<u64, String> {
    CurveTable::clear_shared();
    SolveMemo::clear_shared();
    let mut rng = XorShift64Star::new(0x0AC1E);
    for i in (1..list.len()).rev() {
        list.swap(i, rng.below(i + 1));
    }
    let mut points = 0;
    for (platform, name, demand) in list {
        let floor: Watts = node_floor(&platform, &demand);
        let ceiling: Watts = node_ceiling(&platform, &demand);
        let rungs = [floor, ceiling.max(floor)];
        let problem = PowerBoundedProblem::new(platform.clone(), demand.clone(), floor)
            .map_err(|e| e.to_string())?;
        let (cpu, gpu): (Option<CriticalPowers>, Option<GpuCoordParams>) = match &platform.spec {
            NodeSpec::Cpu { cpu, dram } => (Some(CriticalPowers::probe(cpu, dram, &demand)), None),
            NodeSpec::Gpu(g) => {
                (None, Some(GpuCoordParams::profile(g, &demand).map_err(|e| e.to_string())?))
            }
        };
        for &b in &rungs {
            let inputs = (&platform.spec, cpu.as_ref(), gpu.as_ref());
            let r: pbc_types::Result<CoordResult> = match inputs {
                (NodeSpec::Cpu { .. }, Some(c), _) => coord_cpu(b, c),
                (NodeSpec::Gpu(g), _, Some(p)) => coord_gpu(b, g, p),
                _ => return Err(format!("{}: no COORD inputs", platform.id)),
            };
            match r {
                Ok(d) => {
                    let op = pbc_powersim::solve(&platform, &demand, d.alloc)
                        .map_err(|e| e.to_string())?;
                    std::hint::black_box(op.perf_rel);
                }
                Err(e) if e.is_infeasible() || matches!(e, PbcError::BudgetTooSmall { .. }) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        let profiles: Vec<SweepProfile> =
            sweep_curve_with_pool(&problem, &rungs, Watts::new(1.0), pool)
                .map_err(|e| format!("{name} on {}: {e}", platform.id))?;
        for p in &profiles {
            let _: f64 = p.perf_max();
            points += p.points.len() as u64;
            if let Some(best) = p.best() {
                let bits = [best.op.perf_rel, best.alloc.proc.value(), best.alloc.mem.value()];
                std::hint::black_box(bits.map(f64::to_bits));
            }
        }
    }
    Ok(points)
}

/// perfbench/src/serve_agents.rs: boot and drain the daemon, read a
/// class's shared table, score it against the oracle, and replay lines
/// through an in-process engine with the protocol helpers.
fn serve_surface() -> Result<(), String> {
    CurveTable::clear_shared();
    SolveMemo::clear_shared();
    let engine = Arc::new(ServeEngine::new());
    let server: Server = Server::start(engine, ServerConfig::default()).map_err(|e| e.to_string())?;
    let _: SocketAddr = server.local_addr();

    let plat: Platform =
        pbc_serve::session::resolve_platform("ivybridge").map_err(|e| e.to_string())?;
    let demand = by_name("stream").ok_or("unknown benchmark")?.demand;
    let table: Arc<CurveTable> = CurveTable::shared(&plat, &demand).map_err(|e| e.to_string())?;
    let alloc: PowerAllocation = table.alloc_at(Watts::new(208.0)).ok_or("no table allocation")?;
    let problem = PowerBoundedProblem::new(plat.clone(), demand.clone(), Watts::new(208.0))
        .map_err(|e| e.to_string())?;
    let best: f64 = sweep_budget(&problem, DEFAULT_STEP).map_err(|e| e.to_string())?.perf_max();
    let served: f64 =
        pbc_powersim::solve(&plat, &demand, alloc).map_err(|e| e.to_string())?.perf_rel;
    std::hint::black_box(served / best);

    let replay = ServeEngine::new();
    let mut resp = String::with_capacity(128);
    replay.dispatch_into("provision 4 ivybridge stream 208", &mut resp);
    replay.dispatch_into("ping", &mut resp);
    if proto::parse("ping").is_err() {
        return Err("ping does not parse".into());
    }
    let mut rendered = String::new();
    let parsed: Option<PowerAllocation> = proto::parse_alloc_line("proc=120 mem=88");
    if let Some(alloc) = parsed {
        proto::render_alloc(&mut rendered, 0, alloc, Watts::new(208.0), "applied");
    }
    server.drain().map_err(|e| e.to_string())
}

#[test]
fn perfbench_fleet_and_layer_calls_run() {
    let pool = Pool::new(1);
    let ratio = fleet_surface(2, &pool).unwrap();
    assert!(ratio > 0.0, "the fault-free partition does no work: {ratio}");
    layers_surface(Pool::global()).unwrap();
}

#[test]
fn perfbench_oracle_and_serve_calls_run() {
    let two: Vec<_> = catalog()
        .into_iter()
        .filter(|(p, name, _)| {
            (p.id.slug() == "ivybridge" && name == "stream")
                || (p.id.slug() == "titan-v" && name == "minife")
        })
        .collect();
    assert_eq!(two.len(), 2);
    assert!(oracle_surface(two, Pool::global()).unwrap() > 0);
    serve_surface().unwrap();
    for name in COUNTERS {
        let _: u64 = pbc_trace::counter(name).get();
    }
}
