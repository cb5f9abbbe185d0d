//! # pbc-cli
//!
//! Implementation of the `pbc` command-line tool. Every subcommand is a
//! plain function returning the rendered output, so the whole surface is
//! unit-testable without spawning processes; the `pbc` binary is a thin
//! argument-parsing shell around these.
//!
//! ```text
//! pbc platforms                 # the built-in platform models
//! pbc benchmarks                # the Table-3 workload suite
//! pbc probe      -p ivybridge -w sra
//! pbc coord      -p ivybridge -w sra -b 208
//! pbc sweep      -p ivybridge -w sra -b 240 [--save profile.csv]
//! pbc scenarios  -p ivybridge -w sra -b 240
//! pbc online     -p ivybridge -w stream -b 208
//! pbc fastpath   -p ivybridge -w stream -b 180,196,208
//! pbc rapl-status               # real hardware (Intel powercap)
//! ```

use pbc_core::{
    classify_cpu_point, coord_cpu, coord_gpu, coordinate_hybrid, sweep_budget, sweep_curve,
    workload_report, CoordStatus, CriticalPowers, CurveTable, GpuCoordParams, HybridWorkload,
    OnlineCoordinator, PowerBoundedProblem, DEFAULT_STEP,
};
use pbc_powersim::coordinate_corun;
use pbc_platform::{presets, NodeSpec, Platform, PlatformId};
use pbc_powersim::solve;
use pbc_types::{check_budget, PbcError, PowerAllocation, Result, Watts};
use pbc_workloads::{all_benchmarks, check_target, lookup, Benchmark};
use std::fmt::Write as _;

/// Resolve a platform slug.
#[must_use = "the resolved platform carries either the preset or the lookup failure"]
pub fn platform(slug: &str) -> Result<Platform> {
    PlatformId::lookup(slug).map(presets::by_id).map_err(PbcError::NotFound)
}

/// Resolve a benchmark slug to a benchmark that targets `p`.
fn benchmark_on(p: &Platform, slug: &str) -> Result<Benchmark> {
    let b = lookup(slug).map_err(PbcError::NotFound)?;
    check_target(&b, p)?;
    Ok(b)
}

/// Resolve a `-p`/`-w` pair: the platform, and a benchmark that targets it.
fn resolve(platform_slug: &str, bench_slug: &str) -> Result<(Platform, Benchmark)> {
    let p = platform(platform_slug)?;
    let b = benchmark_on(&p, bench_slug)?;
    Ok((p, b))
}

/// `pbc platforms`
pub fn cmd_platforms() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:<40} {:>12} {:>12}", "platform", "description", "floor (W)", "max cap (W)");
    for p in presets::all_platforms() {
        let max = match &p.spec {
            NodeSpec::Cpu { cpu, dram } => cpu.max_power(1.0) + dram.max_power(2.0),
            NodeSpec::Gpu(g) => g.max_card_cap,
        };
        let _ = writeln!(
            out,
            "{:<12} {:<40} {:>12.1} {:>12.1}",
            p.id.to_string(),
            p.description,
            p.min_node_power().value(),
            max.value()
        );
    }
    out
}

/// `pbc benchmarks`
pub fn cmd_benchmarks() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:<6} {:<18} {:>12}  description", "benchmark", "suite", "class", "FLOP/byte");
    for b in all_benchmarks() {
        let _ = writeln!(
            out,
            "{:<12} {:<6} {:<18} {:>12.3}  {}",
            b.id.to_string(),
            match b.target {
                pbc_workloads::Target::Cpu => "CPU",
                pbc_workloads::Target::Gpu => "GPU",
            },
            b.class.to_string(),
            b.demand.mean_intensity(),
            b.description
        );
    }
    out
}

/// `pbc probe -p <platform> -w <bench>`
#[must_use = "the rendered probe table is the command's entire output"]
pub fn cmd_probe(platform_slug: &str, bench_slug: &str) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    let mut out = String::new();
    match &p.spec {
        NodeSpec::Cpu { cpu, dram } => {
            let c = CriticalPowers::probe(cpu, dram, &b.demand);
            let _ = writeln!(out, "critical power values for {} on {}:", b.id, p.id);
            let _ = writeln!(out, "  P_cpu,L1 (max demand)        = {:.1} W", c.cpu_l1.value());
            let _ = writeln!(out, "  P_cpu,L2 (lowest P-state)    = {:.1} W", c.cpu_l2.value());
            let _ = writeln!(out, "  P_cpu,L3 (lightest T-state)  = {:.1} W", c.cpu_l3.value());
            let _ = writeln!(out, "  P_cpu,L4 (hardware floor)    = {:.1} W", c.cpu_l4.value());
            let _ = writeln!(out, "  P_mem,L1 (max demand)        = {:.1} W", c.mem_l1.value());
            let _ = writeln!(out, "  P_mem,L2 (at P_cpu,L3)       = {:.1} W", c.mem_l2.value());
            let _ = writeln!(out, "  P_mem,L3 (hardware floor)    = {:.1} W", c.mem_l3.value());
            let _ = writeln!(out, "  productive threshold         = {:.1} W", c.productive_threshold().value());
            let _ = writeln!(out, "  max useful budget            = {:.1} W", c.max_demand().value());
        }
        NodeSpec::Gpu(gpu) => {
            let params = GpuCoordParams::profile(gpu, &b.demand)?;
            let _ = writeln!(out, "Algorithm-2 parameters for {} on {}:", b.id, p.id);
            let _ = writeln!(out, "  P_tot_max (uncapped demand)  = {:.1} W", params.p_tot_max.value());
            let _ = writeln!(out, "  P_tot_ref (mem nominal, SM min) = {:.1} W", params.p_tot_ref.value());
            let _ = writeln!(out, "  P_tot_min                    = {:.1} W", params.p_tot_min.value());
            let _ = writeln!(out, "  P_mem,min / P_mem,max        = {:.1} / {:.1} W", params.p_mem_min.value(), params.p_mem_max.value());
            let _ = writeln!(out, "  compute-intensive            = {}", params.is_compute_intensive(gpu));
        }
    }
    Ok(out)
}

/// `pbc coord -p <platform> -w <bench> -b <watts>`
#[must_use = "the rendered decision is the command's entire output"]
pub fn cmd_coord(platform_slug: &str, bench_slug: &str, watts: f64) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    let budget = check_budget("budget", watts)?;
    let decision = match &p.spec {
        NodeSpec::Cpu { cpu, dram } => {
            let c = CriticalPowers::probe(cpu, dram, &b.demand);
            coord_cpu(budget, &c)?
        }
        NodeSpec::Gpu(gpu) => {
            let params = GpuCoordParams::profile(gpu, &b.demand)?;
            coord_gpu(budget, gpu, &params)?
        }
    };
    let op = solve(&p, &b.demand, decision.alloc)?;
    let mut out = String::new();
    let _ = writeln!(out, "COORD decision for {} on {} at {budget}:", b.id, p.id);
    let _ = writeln!(
        out,
        "  allocation: proc {:.1} W, mem {:.1} W",
        decision.alloc.proc.value(),
        decision.alloc.mem.value()
    );
    if let CoordStatus::Surplus(s) = decision.status {
        let _ = writeln!(out, "  surplus to reclaim: {:.1} W", s.value());
    }
    let _ = writeln!(
        out,
        "  predicted: perf {:.3} of unconstrained, {} = {:.1} W actual draw",
        op.perf_rel,
        b.natural_rate(&op),
        op.total_power().value()
    );
    Ok(out)
}

/// `pbc sweep -p <platform> -w <bench> -b <watts> [--save <path>]`
#[must_use = "the rendered sweep table is the command's entire output"]
pub fn cmd_sweep(
    platform_slug: &str,
    bench_slug: &str,
    watts: f64,
    save: Option<&str>,
) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    let budget = check_budget("budget", watts)?;
    let problem = PowerBoundedProblem::new(p, b.demand.clone(), budget)?;
    let profile = sweep_budget(&problem, DEFAULT_STEP)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>12} {:>12}",
        "P_proc (W)", "P_mem (W)", "perf", "proc actual", "mem actual"
    );
    for pt in &profile.points {
        let _ = writeln!(
            out,
            "{:>10.1} {:>10.1} {:>10.3} {:>12.1} {:>12.1}",
            pt.alloc.proc.value(),
            pt.alloc.mem.value(),
            pt.op.perf_rel,
            pt.op.proc_power.value(),
            pt.op.mem_power.value()
        );
    }
    if let (Some(best), Some(worst)) = (profile.best(), profile.worst()) {
        let _ = writeln!(
            out,
            "best {} (perf {:.3}); worst {} (perf {:.3}); spread {:.1}x",
            best.alloc,
            best.op.perf_rel,
            worst.alloc,
            worst.op.perf_rel,
            profile.spread()
        );
    }
    if let Some(path) = save {
        pbc_core::save_profile(&profile, std::path::Path::new(path))?;
        let _ = writeln!(out, "profile saved to {path}");
    }
    Ok(out)
}

/// Validate `command`'s `-b W1,W2,...` budget list before handing it to
/// the shared-grid oracle: an empty list, a value [`check_budget`]
/// refuses, or a duplicated budget each get a typed error naming the
/// offender, instead of surfacing later as a confusing sweep failure.
fn validate_budget_list(command: &str, budgets: &[f64]) -> Result<()> {
    if budgets.is_empty() {
        return Err(PbcError::InvalidInput(format!(
            "{command} needs at least one budget, e.g. -b 176,208,240"
        )));
    }
    for &w in budgets {
        check_budget("budget", w)?;
    }
    // Duplicates would silently sweep the same budget twice and render
    // two identical rows; detect them by exact bit pattern.
    let mut sorted = budgets.to_vec();
    sorted.sort_by(f64::total_cmp);
    for pair in sorted.windows(2) {
        if pair[0].to_bits() == pair[1].to_bits() {
            return Err(PbcError::InvalidInput(format!(
                "{command} budget {} W appears more than once",
                pair[0]
            )));
        }
    }
    Ok(())
}

/// `pbc curve -p <platform> -w <bench> -b <w1,w2,...>` — the shared-grid
/// multi-budget oracle: every budget's sweep in one pooled job over the
/// union grid, solver work shared through the workload's solve memo.
#[must_use = "the rendered curve summary is the command's entire output"]
pub fn cmd_curve(platform_slug: &str, bench_slug: &str, budgets: &[f64]) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    validate_budget_list("curve", budgets)?;
    let problem = PowerBoundedProblem::new(p, b.demand.clone(), Watts::new(budgets[0]))?;
    let watts: Vec<Watts> = budgets.iter().map(|&w| Watts::new(w)).collect();
    let profiles = sweep_curve(&problem, &watts, DEFAULT_STEP)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>12} {:>11} {:>10} {:>10}",
        "P_b (W)", "points", "best proc", "best mem", "perf_max", "spread"
    );
    for profile in &profiles {
        match (profile.best(), profile.worst()) {
            (Some(best), Some(_)) => {
                let _ = writeln!(
                    out,
                    "{:>10.1} {:>8} {:>12.1} {:>11.1} {:>10.3} {:>9.1}x",
                    profile.budget.value(),
                    profile.points.len(),
                    best.alloc.proc.value(),
                    best.alloc.mem.value(),
                    best.op.perf_rel,
                    profile.spread()
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "{:>10.1} {:>8} (budget not schedulable on this platform)",
                    profile.budget.value(),
                    0
                );
            }
        }
    }
    Ok(out)
}

/// `pbc fastpath -p <platform> -w <bench> -b <w1,w2,...>` — the
/// steady-state serving path: build (or fetch) the class's shared
/// interpolation table and answer every requested budget off it, next to
/// the exact oracle optimum from one `sweep_curve` over the same budgets,
/// so the table-served split and the oracle's are visible side by side.
#[must_use = "the rendered fast-path summary is the command's entire output"]
pub fn cmd_fastpath(platform_slug: &str, bench_slug: &str, budgets: &[f64]) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    validate_budget_list("fastpath", budgets)?;
    let table = CurveTable::shared(&p, &b.demand)?;
    let problem = PowerBoundedProblem::new(p, b.demand.clone(), Watts::new(budgets[0]))?;
    let watts: Vec<Watts> = budgets.iter().map(|&w| Watts::new(w)).collect();
    let profiles = sweep_curve(&problem, &watts, DEFAULT_STEP)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "class table: floor {:.1} W, ceiling {:.1} W, {} rungs of {:.1} W",
        table.floor.value(),
        table.ceiling().value(),
        table.perf.len(),
        table.step.value()
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>11} {:>10} {:>12} {:>11} {:>10}",
        "P_b (W)", "table proc", "table mem", "tbl perf", "oracle proc", "oracle mem", "orcl perf"
    );
    for (&budget, profile) in watts.iter().zip(&profiles) {
        let served = table.alloc_at(budget);
        let best = profile.best();
        let fmt_alloc = |a: Option<(f64, f64, f64)>| match a {
            Some((proc, mem, perf)) => format!("{proc:>12.1} {mem:>11.1} {perf:>10.3}"),
            None => format!("{:>12} {:>11} {:>10}", "-", "-", "-"),
        };
        let _ = writeln!(
            out,
            "{:>10.1} {} {}",
            budget.value(),
            fmt_alloc(served.map(|a| (a.proc.value(), a.mem.value(), table.perf_at(budget)))),
            fmt_alloc(best.map(|pt| (pt.alloc.proc.value(), pt.alloc.mem.value(), pt.op.perf_rel))),
        );
    }
    let counters = pbc_trace::snapshot().counters;
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "served: {} table hits, {} table builds this process",
        read(pbc_trace::names::FASTPATH_TABLE_HITS),
        read(pbc_trace::names::FASTPATH_TABLE_REBUILDS)
    );
    Ok(out)
}

/// `pbc scenarios -p <platform> -w <bench> -b <watts>` (CPU platforms).
#[must_use = "the rendered scenario table is the command's entire output"]
pub fn cmd_scenarios(platform_slug: &str, bench_slug: &str, watts: f64) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    let budget = check_budget("budget", watts)?;
    let NodeSpec::Cpu { cpu, dram } = &p.spec else {
        return Err(PbcError::InvalidInput(
            "scenario categorization I-VI applies to CPU platforms (GPUs expose only I-III)"
                .into(),
        ));
    };
    let criticals = CriticalPowers::probe(cpu, dram, &b.demand);
    let cost = b.demand.phases.first().map(|(_, ph)| ph.pattern_cost).unwrap_or(1.0);
    let dram = dram.clone();
    let problem = PowerBoundedProblem::new(p, b.demand.clone(), budget)?;
    let profile = sweep_budget(&problem, DEFAULT_STEP)?;
    let mut out = String::new();
    let _ = writeln!(out, "{:>10} {:>10} {:>10}  scenario", "P_proc (W)", "P_mem (W)", "perf");
    for pt in &profile.points {
        let s = classify_cpu_point(&pt.op, &criticals, &dram, cost);
        let _ = writeln!(
            out,
            "{:>10.1} {:>10.1} {:>10.3}  {}",
            pt.alloc.proc.value(),
            pt.alloc.mem.value(),
            pt.op.perf_rel,
            s
        );
    }
    Ok(out)
}

/// `pbc online -p <platform> -w <bench> -b <watts>`
#[must_use = "the rendered convergence log is the command's entire output"]
pub fn cmd_online(platform_slug: &str, bench_slug: &str, watts: f64) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    let budget = check_budget("budget", watts)?;
    let mut coord = OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
    let mut out = String::new();
    while !coord.converged() && coord.epochs() < 200 {
        let alloc = coord.next_allocation();
        let op = solve(&p, &b.demand, alloc)?;
        coord.observe(&op);
        let _ = writeln!(
            out,
            "epoch {:>3}: tried ({:>5.1}, {:>5.1}) perf {:.3}",
            coord.epochs(),
            alloc.proc.value(),
            alloc.mem.value(),
            op.perf_rel
        );
    }
    let final_op = solve(&p, &b.demand, coord.best())?;
    let _ = writeln!(
        out,
        "converged in {} epochs at ({:.1}, {:.1}) with perf {:.3}",
        coord.epochs(),
        coord.best().proc.value(),
        coord.best().mem.value(),
        final_op.perf_rel
    );
    Ok(out)
}

/// The error for a `--plan` name no preset in `presets` has, naming
/// every one that is.
fn unknown<P>(kind: &str, name: &str, presets: &[pbc_faults::plan::Preset<P>]) -> PbcError {
    let known = presets.iter().map(|(n, ..)| *n).collect::<Vec<_>>().join(", ");
    PbcError::NotFound(format!("{kind} {name:?}; known: {known}"))
}

/// `pbc chaos -p <platform> -w <bench> -b WATTS [--plan NAME] [--seed N] [--epochs N]`
#[must_use = "the survival report is the command's entire output"]
pub fn cmd_chaos(
    platform_slug: &str,
    bench_slug: &str,
    watts: f64,
    plan_name: &str,
    seed: u64,
    epochs: usize,
) -> Result<String> {
    let p = platform(platform_slug)?;
    let budget = check_budget("budget", watts)?;
    let plan = pbc_faults::FaultPlan::by_name(plan_name, seed)
        .ok_or_else(|| unknown("fault plan", plan_name, &pbc_faults::plan::PRESETS))?;
    let report = pbc_faults::run_chaos(&p, bench_slug, budget, &plan, epochs)?;
    Ok(report.to_string())
}

/// `pbc cluster -p SPEC-FILE -b WATTS [--objective NAME] [--tenants SPEC]`
///
/// Hierarchical coordination for a fleet of simulated nodes under one
/// global budget: the static three-way comparison of COORD, a uniform
/// split and the oracle. The spec file lists `[COUNT] PLATFORM BENCH`
/// lines (see `docs/CLUSTER.md`). `--objective` picks the partition
/// objective (`throughput`, `max-min`, `weighted`); `--tenants
/// name:weight[:sla],…` co-locates a weighted tenant set on every node.
/// Fault-plan replays run through [`cmd_cluster_chaos`].
#[must_use = "the rendered fleet comparison is the command's entire output"]
pub fn cmd_cluster(
    spec_path: &str,
    watts: f64,
    objective_name: &str,
    tenant_spec: Option<&str>,
) -> Result<String> {
    let global = check_budget("budget", watts)?;
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| PbcError::Io(format!("could not read fleet spec {spec_path:?}: {e}")))?;
    let spec = pbc_cluster::parse_spec(&text)?;
    let fleet = pbc_cluster::Fleet::build(&spec)?;
    let objective = pbc_cluster::Objective::parse(objective_name)?;
    let tenants = tenant_spec.map(pbc_cluster::TenantSet::parse).transpose()?;
    let mut coordinator =
        pbc_cluster::FleetCoordinator::new(fleet, global)?.with_objective(objective);
    if let Some(set) = tenants {
        coordinator = coordinator.with_tenants(set);
    }

    let mut out = String::new();
    let fleet = coordinator.fleet();
    let _ = writeln!(
        out,
        "fleet: {} nodes in {} classes, global budget {:.1} W (floor {:.1} W), \
         objective {}",
        fleet.len(),
        fleet.classes.len(),
        global.value(),
        fleet.min_total_power().value(),
        objective.name()
    );
    if let Some(set) = coordinator.tenants() {
        let _ = writeln!(
            out,
            "tenants ({} per node): {}",
            set.len(),
            set.tenants()
                .iter()
                .map(|t| format!("{}:{}:{}", t.name, t.weight, t.sla.name()))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    for (idx, class) in fleet.classes.iter().enumerate() {
        let count = fleet.nodes.iter().filter(|&&c| c == idx).count();
        let _ = writeln!(
            out,
            "  {:>4} x {:<10} {:<10} floor {:>6.1} W  ceiling {:>6.1} W",
            count,
            class.platform.id.to_string(),
            class.bench,
            class.floor.value(),
            class.ceiling.value()
        );
    }

    let smart = coordinator.coordinate()?;
    let naive = coordinator.uniform_decision()?;
    let oracle = coordinator.oracle_aggregate()?;
    let _ = writeln!(
        out,
        "aggregate perf COORD:         {:>8.3}  ({} infeasible nodes)",
        smart.aggregate_perf, smart.infeasible
    );
    let _ = writeln!(
        out,
        "aggregate perf uniform-split: {:>8.3}  ({} infeasible nodes)",
        naive.aggregate_perf, naive.infeasible
    );
    let _ = writeln!(out, "aggregate perf oracle:        {oracle:>8.3}");
    Ok(out)
}

/// `pbc cluster-chaos -p SPEC-FILE -b WATTS [--plan NAME] [--seed N] [--epochs N]
/// [--objective NAME] [--tenants SPEC]`
///
/// The full fleet fault-tolerance harness: replay a
/// `pbc_faults::FleetFaultPlan` against the hierarchical coordinator
/// with a mock RAPL tree as the cap sink, and print the survival
/// report (`--epochs 0` runs to the plan's quiet point plus a settling
/// margin). With `--tenants`, the plan's demand-spike and
/// noisy-neighbor draws go live and zero tenant floor violations joins
/// the survival criteria.
#[must_use = "the rendered survival report is the command's entire output"]
pub fn cmd_cluster_chaos(
    spec_path: &str,
    watts: f64,
    plan_name: &str,
    seed: u64,
    epochs: usize,
    objective_name: &str,
    tenant_spec: Option<&str>,
) -> Result<String> {
    let global = check_budget("budget", watts)?;
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| PbcError::Io(format!("could not read fleet spec {spec_path:?}: {e}")))?;
    let spec = pbc_cluster::parse_spec(&text)?;
    let fleet = pbc_cluster::Fleet::build(&spec)?;
    let plan = pbc_faults::FleetFaultPlan::by_name(plan_name, seed)
        .ok_or_else(|| unknown("fleet fault plan", plan_name, &pbc_faults::FLEET_PRESETS))?;
    let objective = pbc_cluster::Objective::parse(objective_name)?;
    let tenants = tenant_spec.map(pbc_cluster::TenantSet::parse).transpose()?;
    let report = pbc_cluster::run_cluster_chaos(
        fleet,
        global,
        &plan,
        epochs,
        objective,
        tenants,
    )?;
    Ok(report.to_string())
}

/// `pbc faults list`
///
/// Every canned fault plan the workspace ships — the single-node plans
/// `pbc chaos` replays and the fleet plans `pbc cluster-chaos` replays
/// — with one-line descriptions.
#[must_use = "the rendered plan catalogue is the command's entire output"]
pub fn cmd_faults_list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "single-node fault plans (pbc chaos --plan NAME):");
    for (name, what, _) in pbc_faults::plan::PRESETS {
        let _ = writeln!(out, "  {name:<14} {what}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "fleet fault plans (pbc cluster-chaos --plan NAME):");
    for (name, what, _) in pbc_faults::FLEET_PRESETS {
        let _ = writeln!(out, "  {name:<14} {what}");
    }
    out
}

/// `pbc hybrid --host <cpu-platform> --card <gpu-platform> --host-bench X --gpu-bench Y --gpu-share F -b WATTS`
#[must_use = "the rendered hybrid split is the command's entire output"]
pub fn cmd_hybrid(
    host_slug: &str,
    card_slug: &str,
    host_bench: &str,
    gpu_bench: &str,
    gpu_share: f64,
    watts: f64,
) -> Result<String> {
    let host = platform(host_slug)?;
    let card = platform(card_slug)?;
    let (NodeSpec::Cpu { cpu, dram }, NodeSpec::Gpu(gpu)) = (&host.spec, &card.spec) else {
        return Err(PbcError::InvalidInput(
            "--host must be a CPU platform and --card a GPU platform".into(),
        ));
    };
    let w = HybridWorkload {
        host_demand: benchmark_on(&host, host_bench)?.demand,
        gpu_demand: benchmark_on(&card, gpu_bench)?.demand,
        gpu_share,
        overlap: 0.0,
    };
    let budget = check_budget("budget", watts)?;
    let pt = coordinate_hybrid(cpu, dram, gpu, &w, budget, Watts::new(10.0))?;
    let mut out = String::new();
    let _ = writeln!(out, "hybrid coordination for {host_bench}+{gpu_bench} ({:.0}% device) at {watts} W:", gpu_share * 100.0);
    let _ = writeln!(out, "  host budget {:.1} W -> alloc ({:.1}, {:.1})", pt.host_budget.value(), pt.host_alloc.proc.value(), pt.host_alloc.mem.value());
    let _ = writeln!(out, "  card budget {:.1} W -> alloc ({:.1}, {:.1})", pt.gpu_budget.value(), pt.gpu_alloc.proc.value(), pt.gpu_alloc.mem.value());
    let _ = writeln!(out, "  predicted perf {:.3}, mean node power {:.1} W", pt.perf_rel, pt.mean_power.value());
    Ok(out)
}

/// `pbc corun -p <cpu-platform> -w <benchA,benchB> -b WATTS`
#[must_use = "the rendered co-run split is the command's entire output"]
pub fn cmd_corun(platform_slug: &str, pair: &str, watts: f64) -> Result<String> {
    let p = platform(platform_slug)?;
    let budget = check_budget("budget", watts)?;
    let NodeSpec::Cpu { cpu, dram } = &p.spec else {
        return Err(PbcError::InvalidInput("corun targets CPU platforms".into()));
    };
    let Some((a, b)) = pair.split_once(',') else {
        return Err(PbcError::InvalidInput(
            "corun takes two comma-separated benchmarks, e.g. -w dgemm,stream".into(),
        ));
    };
    let da = benchmark_on(&p, a.trim())?.demand;
    let db = benchmark_on(&p, b.trim())?.demand;
    let mem_cap = Watts::new((watts * 0.4).min(dram.max_power(2.0).value()));
    let (core_split, caps, pt) = coordinate_corun(cpu, dram, [&da, &db], budget, mem_cap)?;
    let mut out = String::new();
    let _ = writeln!(out, "co-run coordination for {a}+{b} at {watts} W (mem cap {:.0} W):", mem_cap.value());
    let _ = writeln!(out, "  core split: {:.0}% / {:.0}%", core_split * 100.0, (1.0 - core_split) * 100.0);
    let _ = writeln!(out, "  package caps: {:.1} / {:.1} W", caps[0].value(), caps[1].value());
    let _ = writeln!(out, "  per-job perf: {:.3} / {:.3} (contention {:.2})", pt.perf_rel[0], pt.perf_rel[1], pt.contention);
    let _ = writeln!(out, "  aggregate throughput: {:.3}", pt.total_throughput());
    Ok(out)
}

/// `pbc report -p <platform> -w <bench> -b <watts>` — a markdown
/// coordination report for one workload.
#[must_use = "the rendered markdown report is the command's entire output"]
pub fn cmd_report(platform_slug: &str, bench_slug: &str, watts: f64) -> Result<String> {
    let (p, b) = resolve(platform_slug, bench_slug)?;
    let budget = check_budget("budget", watts)?;
    let problem = PowerBoundedProblem::new(p, b.demand.clone(), budget)?;
    let ladder: Vec<Watts> = [0.7, 0.85, 1.0, 1.15, 1.3]
        .iter()
        .map(|f| Watts::new(watts * f))
        .collect();
    workload_report(&problem, &ladder, DEFAULT_STEP)
}

/// `pbc repro EXPERIMENT|all|list [--out DIR]` — regenerate the paper's
/// evaluation (§6) from [`pbc_experiments::EXPERIMENTS`]: run each
/// experiment under one `experiment.<name>` span, write its CSV series
/// under `out`, and return the rendered tables of every experiment run,
/// one blank line apart. `list` returns the experiment names.
#[must_use = "the rendered tables are the command's entire output"]
pub fn cmd_repro(target: Option<&str>, out: Option<&str>) -> Result<String> {
    let names = pbc_experiments::EXPERIMENTS.map(|(name, _)| name);
    let chosen = match target {
        Some("list") => return Ok(names.join("\n")),
        Some("all") => names.to_vec(),
        Some(name) => vec![name],
        None => return Err(PbcError::InvalidInput(format!("missing EXPERIMENT; known: {}, all, list", names.join(", ")))),
    };
    let mut rendered = Vec::new();
    for name in chosen {
        let _span = pbc_trace::span(&format!("experiment.{name}"));
        let output = pbc_experiments::run(name)?;
        if let Some(dir) = out {
            std::fs::create_dir_all(dir)
                .map_err(|e| PbcError::Io(format!("cannot create {dir}: {e}")))?;
            for (file, contents) in output.csv_files() {
                let path = std::path::Path::new(dir).join(file);
                std::fs::write(&path, contents)
                    .map_err(|e| PbcError::Io(format!("cannot write {}: {e}", path.display())))?;
            }
        }
        rendered.push(output.render());
    }
    Ok(rendered.join("\n"))
}

/// `pbc serve-bench` — load-test the coordination daemon with
/// [`pbc_serve::BenchConfig::default`]'s load and write one
/// `BENCH_serve.json` record. The daemon is booted in-process on an
/// ephemeral port; throughput is measured over live pipelined TCP,
/// dispatch latency over the identical in-process dispatch path (see
/// `docs/SERVING.md` for the methodology).
#[must_use = "the rendered bench summary is the command's entire output"]
pub fn cmd_serve_bench(platform_slug: &str, bench_slug: &str, save: Option<&str>) -> Result<String> {
    // Fail fast on bad slugs before booting a daemon.
    let _ = resolve(platform_slug, bench_slug)?;
    let cfg = pbc_serve::BenchConfig {
        platform: platform_slug.to_string(),
        bench: bench_slug.to_string(),
        ..pbc_serve::BenchConfig::default()
    };
    let report = pbc_serve::run_serve_bench(&cfg)?;
    if let Some(path) = save {
        std::fs::write(path, format!("{}\n", report.json_line()))
            .map_err(|e| PbcError::Io(format!("writing {path}: {e}")))?;
    }
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench: {} sessions on {}/{} ({} workers, pipeline {})",
        report.nodes, platform_slug, bench_slug, report.workers, report.pipeline
    );
    let _ = writeln!(
        out,
        "  throughput: {} responses in {:.0} ms over TCP = {:.0} queries/sec",
        report.responses,
        report.elapsed.as_secs_f64() * 1000.0,
        report.qps
    );
    let _ = writeln!(
        out,
        "  dispatch latency ({} samples): p50 {:.2} us, p99 {:.2} us, p99.9 {:.2} us",
        report.dispatches,
        us(report.p50_ns),
        us(report.p99_ns),
        us(report.p999_ns)
    );
    let _ = writeln!(
        out,
        "  counters: requests={} served={} rejected={}",
        report.requests, report.served, report.rejected
    );
    if let Some(path) = save {
        let _ = writeln!(out, "  record saved to {path}");
    }
    Ok(out)
}

/// `pbc rapl-status` — real hardware readout.
pub fn cmd_rapl_status() -> String {
    match pbc_rapl::RaplSysfs::discover() {
        Ok(rapl) => {
            let mut out = String::new();
            let _ = writeln!(out, "{:<14} {:<10} {:>14} {:>16}", "domain", "kind", "limit (W)", "energy (J)");
            for d in &rapl.domains {
                let limit = d
                    .power_limit()
                    .map(|w| format!("{:.1}", w.value()))
                    .unwrap_or_else(|_| "?".into());
                let energy = d
                    .energy()
                    .map(|e| format!("{:.1}", e.value()))
                    .unwrap_or_else(|_| "?".into());
                let _ = writeln!(out, "{:<14} {:<10?} {:>14} {:>16}", d.name, d.kind, limit, energy);
            }
            out
        }
        Err(e) => format!("RAPL unavailable on this machine: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_and_benchmark_resolution() {
        assert!(platform("ivybridge").is_ok());
        assert!(platform("xp").is_ok());
        assert!(platform("nope").is_err());
        let ivybridge = platform("ivybridge").unwrap();
        assert!(benchmark_on(&ivybridge, "sra").is_ok());
        assert!(benchmark_on(&ivybridge, "nope").is_err());
    }

    #[test]
    fn listing_commands_render() {
        let p = cmd_platforms();
        assert!(p.contains("ivybridge"));
        assert!(p.contains("titan-v"));
        let b = cmd_benchmarks();
        assert!(b.contains("sgemm"));
        assert_eq!(b.lines().count(), 18); // header + 17 benchmarks
    }

    #[test]
    fn probe_renders_criticals() {
        let out = cmd_probe("ivybridge", "sra").unwrap();
        assert!(out.contains("P_cpu,L1"));
        assert!(out.contains("productive threshold"));
        let gout = cmd_probe("titan-xp", "sgemm").unwrap();
        assert!(gout.contains("P_tot_max"));
        assert!(gout.contains("compute-intensive            = true"));
    }

    #[test]
    fn coord_renders_decision() {
        let out = cmd_coord("ivybridge", "stream", 208.0).unwrap();
        assert!(out.contains("allocation: proc"));
        assert!(out.contains("perf"));
        // A GPU target works too.
        let gout = cmd_coord("titan-xp", "minife", 200.0).unwrap();
        assert!(gout.contains("allocation: proc"));
        // Tiny budgets produce the typed error.
        assert!(matches!(
            cmd_coord("ivybridge", "dgemm", 60.0),
            Err(PbcError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn sweep_renders_and_saves() {
        let path = std::env::temp_dir().join(format!("pbc-cli-sweep-{}.csv", std::process::id()));
        let out = cmd_sweep("ivybridge", "sra", 240.0, Some(path.to_str().unwrap())).unwrap();
        assert!(out.contains("spread"));
        assert!(out.contains("profile saved"));
        let loaded = pbc_core::load_profile(&path).unwrap();
        assert!(!loaded.points.is_empty());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn curve_renders_one_row_per_budget() {
        let out = cmd_curve("ivybridge", "sra", &[176.0, 208.0, 240.0]).unwrap();
        assert_eq!(out.lines().count(), 4, "{out}"); // header + 3 budgets
        assert!(out.contains("spread"));
        // Budgets below a card's settable range render as unschedulable
        // rows rather than failing the whole curve.
        let gout = cmd_curve("titan-xp", "sgemm", &[80.0, 200.0]).unwrap();
        assert!(gout.contains("not schedulable"), "{gout}");
        // And an empty budget list is a typed error.
        assert!(cmd_curve("ivybridge", "sra", &[]).is_err());
    }

    #[test]
    fn fastpath_renders_table_and_oracle_columns() {
        let budgets = [180.0, 208.0, 40.0];
        let out = cmd_fastpath("ivybridge", "stream", &budgets).unwrap();
        assert!(out.contains("class table: floor"), "{out}");
        // Header + 3 budget rows + table line + counter line.
        assert_eq!(out.lines().count(), 6, "{out}");
        // Each row's oracle columns render the per-budget sweep's best
        // point at that budget.
        let (p, b) = resolve("ivybridge", "stream").unwrap();
        for (&w, row) in budgets.iter().zip(out.lines().skip(2)) {
            let problem = PowerBoundedProblem::new(p.clone(), b.demand.clone(), Watts::new(w)).unwrap();
            let oracle = match sweep_budget(&problem, DEFAULT_STEP).unwrap().best() {
                Some(pt) => format!(
                    "{:>12.1} {:>11.1} {:>10.3}",
                    pt.alloc.proc.value(),
                    pt.alloc.mem.value(),
                    pt.op.perf_rel
                ),
                None => format!("{:>12} {:>11} {:>10}", "-", "-", "-"),
            };
            assert!(row.starts_with(&format!("{w:>10.1} ")), "{row}");
            assert!(row.ends_with(&format!(" {oracle}")), "{row} != ... {oracle}");
        }
        // A budget below the class floor renders as unserved, not an error.
        let dash_row = out.lines().find(|l| l.trim_start().starts_with("40.0")).unwrap();
        assert!(dash_row.contains('-'), "{out}");
        assert!(out.contains("table hits"), "{out}");
        // Empty and non-finite budget lists are typed errors.
        assert!(cmd_fastpath("ivybridge", "stream", &[]).is_err());
        assert!(cmd_fastpath("ivybridge", "stream", &[f64::NAN]).is_err());
    }

    #[test]
    fn curve_rejects_poisoned_budget_lists() {
        // Each malformed list is refused with a typed error naming the
        // offending value, before any sweeping starts; the list-level
        // messages name the command that took the list.
        let cases: &[(&[f64], &str)] = &[
            (&[], "{cmd} needs at least one budget"),
            (&[208.0, f64::NAN], "not a finite"),
            (&[f64::INFINITY], "not a finite"),
            (&[208.0, -5.0], "not positive"),
            (&[0.0], "not positive"),
            (&[176.0, 208.0, 176.0], "{cmd} budget 176 W appears more than once"),
        ];
        for (budgets, needle) in cases {
            let curve = cmd_curve("ivybridge", "sra", budgets);
            let fastpath = cmd_fastpath("ivybridge", "sra", budgets);
            for (cmd, out) in [("curve", curve), ("fastpath", fastpath)] {
                let needle = needle.replace("{cmd}", cmd);
                match out {
                    Err(PbcError::InvalidInput(msg)) if msg.contains(&needle) => {}
                    other => panic!("{cmd} {budgets:?}: {other:?} lacks {needle:?}"),
                }
            }
        }
    }

    #[test]
    fn single_budget_commands_refuse_what_the_gate_refuses() {
        const GPU_ON_HOST: &str = r#"benchmark "sgemm" does not target platform "ivybridge""#;
        let refusals = [
            (cmd_online("ivybridge", "stream", -5.0), "budget -5 W is not positive"),
            (cmd_online("ivybridge", "stream", 0.0), "budget 0 W is not positive"),
            (cmd_online("ivybridge", "stream", f64::NAN), "budget NaN is not a finite"),
            (cmd_corun("ivybridge", "stream,dgemm", f64::NAN), "budget NaN is not a finite"),
            (cmd_coord("titan-xp", "sgemm", f64::NAN), "budget NaN is not a finite"),
            (cmd_coord("titan-xp", "sgemm", f64::INFINITY), "budget inf is not a finite"),
            (cmd_sweep("ivybridge", "sra", f64::INFINITY, None), "budget inf is not a finite"),
            (cmd_cluster("/no/such/fleet.txt", f64::NAN, "throughput", None), "budget NaN is not a finite"),
            (cmd_hybrid("ivybridge", "titan-xp", "cg", "sgemm", 0.7, f64::NAN), "budget NaN is not a finite"),
            (cmd_chaos("ivybridge", "stream", f64::NAN, "everything", 42, 10), "budget NaN is not a finite"),
            // The target check refuses a GPU benchmark on a host.
            (cmd_coord("ivybridge", "sgemm", 200.0), GPU_ON_HOST),
            (cmd_chaos("ivybridge", "sgemm", 200.0, "everything", 42, 10), GPU_ON_HOST),
        ];
        for (result, needle) in refusals {
            match result {
                Err(PbcError::InvalidInput(msg)) => assert!(msg.contains(needle), "{msg:?} lacks {needle:?}"),
                other => panic!("{needle:?}: expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn scenarios_renders_all_six() {
        let out = cmd_scenarios("ivybridge", "sra", 240.0).unwrap();
        for s in ["VI", "IV", "II", "III", "V"] {
            assert!(out.lines().any(|l| l.trim().ends_with(s)), "missing {s}");
        }
        // GPU platforms are redirected.
        assert!(cmd_scenarios("titan-xp", "sgemm", 200.0).is_err());
    }

    #[test]
    fn online_converges_in_the_cli() {
        let out = cmd_online("ivybridge", "stream", 208.0).unwrap();
        assert!(out.contains("converged in"));
    }

    #[test]
    fn report_renders_markdown() {
        let out = cmd_report("ivybridge", "mg", 208.0).unwrap();
        assert!(out.starts_with("# Power coordination report"));
        assert!(out.contains("## COORD decisions"));
    }

    #[test]
    fn hybrid_renders() {
        let out = cmd_hybrid("ivybridge", "titan-xp", "cg", "sgemm", 0.85, 480.0).unwrap();
        assert!(out.contains("host budget"));
        assert!(out.contains("card budget"));
        // Wrong platform kinds are rejected.
        assert!(cmd_hybrid("titan-xp", "ivybridge", "cg", "sgemm", 0.5, 480.0).is_err());
    }

    #[test]
    fn corun_renders() {
        let out = cmd_corun("ivybridge", "dgemm,stream", 240.0).unwrap();
        assert!(out.contains("core split"));
        assert!(out.contains("aggregate throughput"));
        assert!(cmd_corun("ivybridge", "dgemm", 240.0).is_err());
        assert!(cmd_corun("titan-xp", "dgemm,stream", 240.0).is_err());
    }

    #[test]
    fn cluster_renders_the_three_way_comparison() {
        let path = std::env::temp_dir().join(format!("pbc-cli-fleet-{}.txt", std::process::id()));
        std::fs::write(&path, "2 ivybridge stream\nhaswell dgemm\n").unwrap();
        let out = cmd_cluster(path.to_str().unwrap(), 800.0, "throughput", None).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("3 nodes in 2 classes"), "{out}");
        assert!(out.contains("objective throughput"), "{out}");
        assert!(out.contains("aggregate perf COORD"), "{out}");
        assert!(out.contains("aggregate perf uniform-split"), "{out}");
        assert!(out.contains("aggregate perf oracle"), "{out}");
    }

    #[test]
    fn cluster_renders_tenants_and_rejects_bad_objectives() {
        let path =
            std::env::temp_dir().join(format!("pbc-cli-tenants-{}.txt", std::process::id()));
        std::fs::write(&path, "2 ivybridge stream\n").unwrap();
        let spec = path.to_str().unwrap().to_string();
        let tenants = Some("web:3:gold,batch:1");
        let out = cmd_cluster(&spec, 500.0, "max-min", tenants).unwrap();
        assert!(out.contains("objective max-min"), "{out}");
        assert!(out.contains("tenants (2 per node)"), "{out}");
        let out =
            cmd_cluster_chaos(&spec, 500.0, "demand-spike", 3, 40, "max-min", tenants).unwrap();
        assert!(out.contains("min Jain"), "{out}");
        assert!(cmd_cluster(&spec, 500.0, "round-robin", None).is_err());
        assert!(cmd_cluster(&spec, 500.0, "throughput", Some("web:-1")).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cluster_rejects_a_missing_spec_file() {
        assert!(matches!(
            cmd_cluster("/no/such/fleet.txt", 800.0, "throughput", None),
            Err(PbcError::Io(_))
        ));
    }

    #[test]
    fn rapl_status_degrades_gracefully() {
        // In this container there is no powercap; the command must still
        // return a friendly message, not an error.
        let out = cmd_rapl_status();
        assert!(!out.is_empty());
    }
}
