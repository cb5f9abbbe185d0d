//! `oracle-suite`: the research path, and the source of every curve
//! table.
//!
//! The suite is every Table-3 benchmark on each platform it targets (34
//! curves). Each curve's budget rungs run every 4 W from the class floor
//! to its ceiling, swept on a 1 W allocation grid. Set-up builds the
//! curves and makes COORD's decision at every rung, priced by the
//! solver. One timed operation is a cold pass: both shared registries
//! cleared, then `sweep_curve_with_pool` over every curve in the
//! seeded order. The first pass scores COORD against the oracle; every
//! later pass must reproduce it bit for bit.

use crate::hist::{Hist, SpanRing};
use crate::{derive_seed, median_seconds, Args, Counters, Outcome};
use pbc_core::{
    coord_cpu, coord_gpu, node_ceiling, node_floor, sweep_curve_with_pool, CriticalPowers,
    CurveTable, GpuCoordParams, PowerBoundedProblem,
};
use pbc_par::Pool;
use pbc_platform::presets::{haswell, ivybridge, titan_v, titan_xp};
use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::SolveMemo;
use pbc_powersim::WorkloadDemand;
use pbc_trace::names;
use pbc_types::{Watts, XorShift64Star};
use pbc_workloads::{cpu_suite, gpu_suite};
use std::time::{Duration, Instant};

/// Spacing of the budget rungs on each curve.
const RUNG_W: f64 = 4.0;
/// The allocation grid the oracle sweeps.
const GRID_W: f64 = 1.0;
/// Fresh set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One curve of the suite.
pub struct Curve {
    name: String,
    platform: Platform,
    demand: WorkloadDemand,
    problem: PowerBoundedProblem,
    rungs: Vec<Watts>,
    /// COORD's performance at each rung; `None` where COORD refuses the
    /// budget (below the productive threshold).
    coord: Vec<Option<f64>>,
}

/// Every `(platform, benchmark)` pair of the suite, in catalog order.
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

/// COORD's allocation at `budget`, or `None` when it refuses.
fn coord_alloc(
    platform: &Platform,
    budget: Watts,
    cpu: Option<&CriticalPowers>,
    gpu: Option<&GpuCoordParams>,
) -> Result<Option<pbc_types::PowerAllocation>, String> {
    let r = match (&platform.spec, cpu, gpu) {
        (NodeSpec::Cpu { .. }, Some(c), _) => coord_cpu(budget, c),
        (NodeSpec::Gpu(g), _, Some(p)) => coord_gpu(budget, g, p),
        _ => return Err(format!("{}: no COORD inputs", platform.id)),
    };
    match r {
        Ok(d) => Ok(Some(d.alloc)),
        Err(e) if e.is_infeasible() || matches!(e, pbc_types::PbcError::BudgetTooSmall { .. }) => {
            Ok(None)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Probe a curve's COORD inputs.
fn probe_inputs(
    platform: &Platform,
    demand: &WorkloadDemand,
) -> Result<(Option<CriticalPowers>, Option<GpuCoordParams>), String> {
    Ok(match &platform.spec {
        NodeSpec::Cpu { cpu, dram } => (Some(CriticalPowers::probe(cpu, dram, demand)), None),
        NodeSpec::Gpu(g) => (
            None,
            Some(GpuCoordParams::profile(g, demand).map_err(|e| e.to_string())?),
        ),
    })
}

/// Build the curves of `list` in an order fixed by `seed`, with cold
/// registries, and price COORD's decision at every rung.
fn build(
    mut list: Vec<(Platform, String, WorkloadDemand)>,
    seed: u64,
) -> Result<Vec<Curve>, String> {
    CurveTable::clear_shared();
    SolveMemo::clear_shared();
    let mut rng = XorShift64Star::new(derive_seed(seed, 0x0AC1E));
    for i in (1..list.len()).rev() {
        list.swap(i, rng.below(i + 1));
    }
    let mut curves = Vec::with_capacity(list.len());
    for (platform, name, demand) in list {
        let floor = node_floor(&platform, &demand);
        let ceiling = node_ceiling(&platform, &demand);
        let mut rungs = vec![floor];
        while let Some(&last) = rungs.last() {
            let next = last + Watts::new(RUNG_W);
            if next > ceiling {
                break;
            }
            rungs.push(next);
        }
        let problem = PowerBoundedProblem::new(platform.clone(), demand.clone(), floor)
            .map_err(|e| e.to_string())?;
        let (cpu, gpu) = probe_inputs(&platform, &demand)?;
        let mut coord = Vec::with_capacity(rungs.len());
        for &b in &rungs {
            coord.push(
                match coord_alloc(&platform, b, cpu.as_ref(), gpu.as_ref())? {
                    Some(alloc) => Some(
                        pbc_powersim::solve(&platform, &demand, alloc)
                            .map_err(|e| {
                                format!("{name} on {}: COORD at {} W: {e}", platform.id, b.value())
                            })?
                            .perf_rel,
                    ),
                    None => None,
                },
            );
        }
        curves.push(Curve {
            name,
            platform,
            demand,
            problem,
            rungs,
            coord,
        });
    }
    Ok(curves)
}

/// What one cold pass produced.
struct Pass {
    /// Oracle `perf_max` per curve and rung.
    perf: Vec<Vec<f64>>,
    /// Bit fingerprint of every profile's best point.
    fingerprint: u64,
    /// Points the pass swept.
    points: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01B3)
}

/// One cold pass over `curves`. Per-curve times go to `per_curve` when
/// given. Checks the sweep's conservation law.
fn pass(
    curves: &[Curve],
    pool: &Pool,
    mut per_curve: Option<(&mut Hist, &mut SpanRing, u64)>,
) -> Result<Pass, String> {
    SolveMemo::clear_shared();
    CurveTable::clear_shared();
    let before = Counters::now();
    let mut perf = Vec::with_capacity(curves.len());
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    for c in curves {
        let t0 = Instant::now();
        let profiles = sweep_curve_with_pool(&c.problem, &c.rungs, Watts::new(GRID_W), pool)
            .map_err(|e| format!("{} on {}: {e}", c.name, c.platform.id))?;
        let dt = t0.elapsed();
        if let Some((hist, ring, id)) = per_curve.as_mut() {
            hist.record_duration(dt);
            ring.record(*id, "core.sweep_curve", dt);
        }
        let mut row = Vec::with_capacity(profiles.len());
        for p in &profiles {
            row.push(p.perf_max());
            fingerprint = mix(fingerprint, p.points.len() as u64);
            if let Some(best) = p.best() {
                fingerprint = mix(fingerprint, best.op.perf_rel.to_bits());
                fingerprint = mix(fingerprint, best.alloc.proc.value().to_bits());
                fingerprint = mix(fingerprint, best.alloc.mem.value().to_bits());
            }
        }
        perf.push(row);
    }
    let total = before.delta(names::SWEEP_POINTS_TOTAL);
    let evaluated = before.delta(names::SWEEP_POINTS_EVALUATED);
    let infeasible = before.delta(names::SWEEP_POINTS_INFEASIBLE);
    let lost = before.delta(names::SWEEP_POINTS_LOST);
    if evaluated + infeasible != total || lost != 0 {
        return Err(format!(
            "sweep conservation broken: evaluated {evaluated} + infeasible {infeasible} vs total {total}, lost {lost}"
        ));
    }
    Ok(Pass {
        perf,
        fingerprint,
        points: total,
    })
}

/// Mean of COORD over the oracle across every rung where COORD decides
/// and the oracle finds a schedulable point.
fn oracle_ratio(curves: &[Curve], first: &Pass) -> Result<f64, String> {
    let mut sum = 0.0;
    let mut n = 0u64;
    for (c, row) in curves.iter().zip(first.perf.iter()) {
        for (coord, best) in c.coord.iter().zip(row.iter()) {
            if let (Some(got), true) = (coord, *best > 0.0) {
                sum += got / best;
                n += 1;
            }
        }
    }
    if n == 0 {
        return Err("COORD made no scorable decision".into());
    }
    Ok(sum / n as f64)
}

/// Passes until `until` (at least one), each checked against the first
/// pass of the run.
fn drive(
    curves: &[Curve],
    pool: &Pool,
    until: Instant,
    hist: &mut Hist,
    reference: &mut Option<Pass>,
    mut per_curve: Option<(&mut Hist, &mut SpanRing)>,
) -> Result<u64, String> {
    let mut points = 0;
    let mut id = 0u64;
    loop {
        let t0 = Instant::now();
        let p = pass(
            curves,
            pool,
            per_curve.as_mut().map(|(h, r)| (&mut **h, &mut **r, id)),
        )?;
        hist.record_duration(t0.elapsed());
        points += p.points;
        id += 1;
        match reference {
            Some(r) if r.fingerprint != p.fingerprint => {
                return Err("a repeated cold pass is not bit-identical to the first".into());
            }
            Some(_) => {}
            None => *reference = Some(p),
        }
        if Instant::now() >= until {
            return Ok(points);
        }
    }
}

/// Run the workload.
#[must_use = "the outcome or the failed check"]
pub fn run(args: &Args) -> Result<Outcome, String> {
    let pool = Pool::global();
    let mut out = Outcome::default();
    if args.trace {
        let curves = build(catalog(), args.seed)?;
        let before = Counters::now();
        out.attempted = traced(&curves, args.measure, &mut out)?;
        crate::layers::counters(&mut out, &before);
        crate::layers::common(
            &mut out,
            crate::layers::Skip::Sweep,
            crate::serve_agents::PER_CLASS * 4,
        )?;
        return Ok(out);
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut curves = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        curves = build(catalog(), args.seed)?;
        setups.push(t0.elapsed());
    }
    let mut hist = Hist::new();
    let mut reference = None;
    out.attempted = drive(
        &curves,
        pool,
        Instant::now() + args.measure,
        &mut hist,
        &mut reference,
        None,
    )?;
    let first = reference.ok_or("no pass ran")?;
    out.set("setup_s", median_seconds(&setups));
    out.set("latency_p90_us", hist.quantile(0.9) / 1e3);
    out.set("work_ratio", 1.0);
    out.set("oracle_ratio", oracle_ratio(&curves, &first)?);
    crate::finish_common(&mut out);
    Ok(out)
}

/// The sweep layers of a traced run over `curves`: half of `measure` of
/// plain passes, then half with every curve's sweep timed. Also times
/// COORD's probes and decisions over the curves. Sets the `core.*`
/// sweep metrics and the `trace.*` metrics; returns the points swept.
#[must_use = "the points swept or the failed check"]
pub fn traced(curves: &[Curve], measure: Duration, out: &mut Outcome) -> Result<u64, String> {
    let pool = Pool::global();
    let mut reference = None;
    let mut hist_u = Hist::new();
    let mut points = drive(
        curves,
        pool,
        Instant::now() + measure / 2,
        &mut hist_u,
        &mut reference,
        None,
    )?;
    let mut hist_t = Hist::new();
    let mut per_curve = Hist::new();
    let mut ring = SpanRing::with_capacity(1 << 14);
    points += drive(
        curves,
        pool,
        Instant::now() + measure / 2,
        &mut hist_t,
        &mut reference,
        Some((&mut per_curve, &mut ring)),
    )?;
    out.set("core.sweep_curve_ms.p50", per_curve.quantile(0.5) / 1e6);
    let untraced_p90 = hist_u.quantile(0.9) / 1e3;
    let traced_p90 = hist_t.quantile(0.9) / 1e3;
    out.set("trace.untraced_p90_us", untraced_p90);
    out.set("trace.traced_p90_us", traced_p90);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_p90 - untraced_p90) / untraced_p90.max(1e-9),
    );
    out.set("trace.spans_recorded", ring.recorded() as f64);
    out.set("trace.spans_dropped", ring.dropped() as f64);

    let t0 = Instant::now();
    let mut inputs = Vec::with_capacity(curves.len());
    for c in curves {
        inputs.push(probe_inputs(&c.platform, &c.demand)?);
    }
    out.set("core.probe_ms", t0.elapsed().as_secs_f64() * 1e3);
    let mut coord = Hist::new();
    for (c, (cpu, gpu)) in curves.iter().zip(inputs.iter()) {
        for &b in &c.rungs {
            let t0 = Instant::now();
            let r = coord_alloc(&c.platform, b, cpu.as_ref(), gpu.as_ref());
            coord.record_duration(t0.elapsed());
            std::hint::black_box(r?);
        }
    }
    out.set("core.coord_us.p50", coord.quantile(0.5) / 1e3);
    Ok(points)
}

/// Time the sweep layer on two curves for a traced run of a workload
/// that does not exercise it.
#[must_use = "the probe's failure must fail the run"]
pub fn probe(out: &mut Outcome, measure: Duration) -> Result<(), String> {
    let list = catalog()
        .into_iter()
        .filter(|(p, name, _)| {
            (p.id.slug() == "ivybridge" && name == "stream")
                || (p.id.slug() == "titan-v" && name == "minife")
        })
        .collect();
    let curves = build(list, 1)?;
    traced(&curves, measure, out).map(|_| ())
}
