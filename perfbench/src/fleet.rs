//! `fleet-1024`: the fleet coordinator at scale.
//!
//! Set-up profiles a fleet of eight node classes across the four
//! platforms and sets the global budget to 1.35 × the sum of node
//! floors. The fault-free partition (`coordinate_with_pool`), the
//! reference for `work_ratio`, is scored after the measured window, so
//! it is not part of set-up. The load replays the fault
//! plan in back-to-back episodes; each episode is a fresh coordinator
//! whose plan seed derives from the workload seed and the episode
//! number, so faults cover the whole run. Cap writes land in an
//! in-memory sink owned by the benchmark, checked after every epoch.
//!
//! The first `quality_episodes` episodes always run to completion, so
//! `work_ratio` is exact for a seed whatever the host's speed; later
//! episodes run until the measured time is up. Epoch timings are taken
//! over complete episodes only: an epoch's cost
//! depends on where it sits in the plan (a coordinator outage is nearly
//! free, a budget cut shrinks the fill), so every run weighs each tick
//! of the plan equally.

use crate::hist::{Hist, SpanRing};
use crate::{counter_now, derive_seed, median_seconds, Args, Counters, Outcome};
use pbc_cluster::{
    fill_shares, CapSink, Fleet, FleetCoordinator, NodeCurve, SpecLine, TenantSet, DEFAULT_GRANT,
};
use pbc_core::CurveTable;
use pbc_faults::FleetFaultPlan;
use pbc_par::Pool;
use pbc_powersim::SolveMemo;
use pbc_trace::names;
use pbc_types::{PbcError, Watts};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The eight node classes, two per platform.
pub const CLASSES: [(&str, &str); 8] = [
    ("ivybridge", "stream"),
    ("ivybridge", "dgemm"),
    ("haswell", "cg"),
    ("haswell", "ep"),
    ("titan-xp", "sgemm"),
    ("titan-xp", "hpcg"),
    ("titan-v", "minife"),
    ("titan-v", "cufft"),
];
/// Global budget as a multiple of the sum of node floors.
const BUDGET_FACTOR: f64 = 1.35;
/// Epochs an episode runs past its plan's quiet point.
const SETTLE_EPOCHS: usize = 16;
/// Fresh set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Traced runs time the layers on one epoch in this many.
const SAMPLE_EVERY: u64 = 4;
/// Nodes whose COORD decision and tenant split a sampled epoch times.
const NODE_SAMPLES: usize = 64;
/// A node whose enforced cap is at most this is released (watts).
const RELEASED_W: f64 = 1e-6;

/// One fleet workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct FleetWorkload {
    /// Nodes per class.
    pub per_class: usize,
    /// Tenants co-located on every node, if any.
    pub tenants: Option<&'static str>,
    /// The fault plan replayed in every episode.
    pub plan: &'static str,
    /// Leading episodes that always complete and define the
    /// decision-quality metrics.
    pub quality_episodes: u64,
}

/// `fleet-1024`.
pub const FLEET_1024: FleetWorkload = FleetWorkload {
    per_class: 128,
    tenants: None,
    plan: "everything",
    quality_episodes: 2,
};

/// The fleet the other workloads' traced runs time the cluster layer
/// on: the same classes, four nodes each, calm, with tenants.
pub const FLEET_PROBE: FleetWorkload = FleetWorkload {
    per_class: 4,
    tenants: Some("web:3:gold,etl:2:silver,batch:1"),
    plan: "calm",
    quality_episodes: 1,
};

/// The benchmark's cap sink: the last cap written per node.
#[derive(Clone)]
pub struct MemSink(pub Arc<Mutex<Vec<Watts>>>);

impl CapSink for MemSink {
    fn write_cap(&mut self, node: usize, cap: Watts) -> pbc_types::Result<()> {
        let mut caps = self
            .0
            .lock()
            .map_err(|_| PbcError::Io("cap sink lock poisoned".into()))?;
        let slot = caps.get_mut(node).ok_or_else(|| {
            PbcError::InvalidInput(format!("cap write for node {node} beyond the fleet"))
        })?;
        *slot = cap;
        Ok(())
    }
}

/// Check the sink against the coordinator after an epoch: every node
/// the coordinator holds a cap on carries exactly that cap in the sink,
/// and the sink's total equals the enforced total and stays within the
/// global budget. Down or released nodes draw nothing, whatever their
/// last written cap.
#[must_use = "a failed check must fail the run"]
pub fn check_sink(
    caps: &[Watts],
    enforced: &[Watts],
    down: &[bool],
    global: Watts,
) -> Result<(), String> {
    if caps.len() != enforced.len() || down.len() != enforced.len() {
        return Err("sink and coordinator disagree on the fleet size".into());
    }
    let mut sink_total = 0.0;
    let mut enforced_total = 0.0;
    for i in 0..caps.len() {
        enforced_total += enforced[i].value();
        if down[i] || enforced[i].value() <= RELEASED_W {
            continue;
        }
        if caps[i].value().to_bits() != enforced[i].value().to_bits() {
            return Err(format!(
                "node {i}: the sink holds {} W but the coordinator enforces {} W",
                caps[i].value(),
                enforced[i].value()
            ));
        }
        sink_total += caps[i].value();
    }
    if (sink_total - enforced_total).abs() > RELEASED_W * caps.len() as f64 {
        return Err(format!(
            "sink total {sink_total} W differs from enforced total {enforced_total} W"
        ));
    }
    if sink_total > global.value() + RELEASED_W {
        return Err(format!(
            "sink total {sink_total} W is above the global budget {} W",
            global.value()
        ));
    }
    Ok(())
}

/// A profiled fleet and its fault-free reference.
pub struct Setup {
    fleet: Fleet,
    global: Watts,
    /// Time spent in `Fleet::build_with_pool`.
    pub build: Duration,
}

/// Profile the fleet with cold registries.
#[must_use = "the set-up or its failure"]
pub fn setup(w: &FleetWorkload, pool: &Pool) -> Result<Setup, String> {
    CurveTable::clear_shared();
    SolveMemo::clear_shared();
    let spec: Vec<SpecLine> = CLASSES
        .iter()
        .map(|&(p, b)| SpecLine {
            count: w.per_class,
            platform: p.into(),
            bench: b.into(),
        })
        .collect();
    let t0 = Instant::now();
    let fleet = Fleet::build_with_pool(&spec, pool).map_err(|e| e.to_string())?;
    let build = t0.elapsed();
    let global = fleet.min_total_power() * BUDGET_FACTOR;
    Ok(Setup {
        fleet,
        global,
        build,
    })
}

/// The fault-free partition at the initial budget: its aggregate
/// throughput, and that over the curve oracle's at the same shares.
fn reference(s: &Setup, pool: &Pool) -> Result<(f64, f64), String> {
    let coord = FleetCoordinator::new(s.fleet.clone(), s.global).map_err(|e| e.to_string())?;
    let decision = coord
        .coordinate_with_pool(pool)
        .map_err(|e| e.to_string())?;
    let oracle: f64 = decision
        .shares
        .iter()
        .enumerate()
        .map(|(i, share)| s.fleet.class_of(i).curve.perf_at(*share))
        .sum();
    if decision.aggregate_perf <= 0.0 || oracle <= 0.0 {
        return Err("the fault-free partition does no work".into());
    }
    Ok((decision.aggregate_perf, decision.aggregate_perf / oracle))
}

/// A fresh coordinator for episode `episode`, provisioned onto the
/// sink.
fn episode(
    s: &Setup,
    w: &FleetWorkload,
    seed: u64,
    episode: u64,
    caps: &Arc<Mutex<Vec<Watts>>>,
) -> Result<(FleetCoordinator, usize), String> {
    let plan = FleetFaultPlan::by_name(w.plan, derive_seed(seed, episode))
        .ok_or_else(|| format!("unknown fault plan {}", w.plan))?;
    let len = plan.quiet_after() + SETTLE_EPOCHS;
    {
        let mut c = caps.lock().map_err(|_| "cap sink lock poisoned")?;
        c.clear();
        c.resize(s.fleet.len(), Watts::ZERO);
    }
    let mut coord = FleetCoordinator::new(s.fleet.clone(), s.global)
        .and_then(|c| c.with_plan(plan))
        .map_err(|e| e.to_string())?
        .with_cap_sink(Box::new(MemSink(Arc::clone(caps))));
    if let Some(spec) = w.tenants {
        coord = coord.with_tenants(TenantSet::parse(spec).map_err(|e| e.to_string())?);
    }
    coord.provision().map_err(|e| e.to_string())?;
    Ok((coord, len))
}

/// The per-epoch layer timings of a traced run.
struct Layers {
    ring: SpanRing,
    coordinate: Hist,
    fill: Hist,
    rest: Hist,
    node_coord: Hist,
    split: Hist,
}

impl Layers {
    fn new() -> Self {
        Self {
            ring: SpanRing::with_capacity(1 << 12),
            coordinate: Hist::new(),
            fill: Hist::new(),
            rest: Hist::new(),
            node_coord: Hist::new(),
            split: Hist::new(),
        }
    }

    /// Time the layers under one epoch that took `step`.
    fn sample(
        &mut self,
        id: u64,
        coord: &FleetCoordinator,
        step: Duration,
        pool: &Pool,
    ) -> Result<(), String> {
        let fleet = coord.fleet();
        self.ring.record(id, "cluster.step", step);
        let t0 = Instant::now();
        let decision = coord
            .coordinate_with_pool(pool)
            .map_err(|e| e.to_string())?;
        let dt = t0.elapsed();
        std::hint::black_box(&decision);
        self.ring.record(id, "cluster.coordinate", dt);
        self.coordinate.record_duration(dt);
        self.rest.record_duration(step.saturating_sub(dt));
        let curves: Vec<NodeCurve<'_>> = (0..fleet.len())
            .map(|i| NodeCurve {
                floor: fleet.class_of(i).floor,
                curve: &fleet.class_of(i).curve,
            })
            .collect();
        let t0 = Instant::now();
        let shares = fill_shares(
            &curves,
            &[],
            coord.global_budget(),
            DEFAULT_GRANT,
            coord.objective(),
        )
        .map_err(|e| e.to_string())?;
        let dt = t0.elapsed();
        std::hint::black_box(&shares);
        self.ring.record(id, "cluster.fill", dt);
        self.fill.record_duration(dt);
        let stride = (fleet.len() / NODE_SAMPLES).max(1);
        let enforced = coord.enforced_caps();
        for i in (0..fleet.len()).step_by(stride) {
            let class = fleet.class_of(i);
            let share = enforced[i].max(class.floor);
            // A refusal (a share below the productive threshold) is a
            // decision too; the epoch scores it as zero work.
            let t0 = Instant::now();
            std::hint::black_box(class.coordinate(share).is_ok());
            self.node_coord.record_duration(t0.elapsed());
            if let Some(tenants) = coord.tenants() {
                let demand = vec![1.0; tenants.len()];
                let t0 = Instant::now();
                std::hint::black_box(tenants.split_node(share, class.floor, &demand));
                self.split.record_duration(t0.elapsed());
            }
        }
        Ok(())
    }

    fn report(&self, out: &mut Outcome) {
        out.set(
            "cluster.coordinate_ms.p50",
            self.coordinate.quantile(0.5) / 1e6,
        );
        out.set("cluster.fill_ms.p50", self.fill.quantile(0.5) / 1e6);
        out.set("cluster.rest_ms.p50", self.rest.quantile(0.5) / 1e6);
        out.set("cluster.rest_ms.p90", self.rest.quantile(0.9) / 1e6);
        out.set(
            "cluster.node_coord_us.p50",
            self.node_coord.quantile(0.5) / 1e3,
        );
        out.set(
            "cluster.tenant_split_us.p50",
            self.split.quantile(0.5) / 1e3,
        );
    }
}

/// What a stretch of episodes did.
#[derive(Default)]
struct Tally {
    epochs: u64,
    quality_epochs: u64,
    work: f64,
}

/// Run episodes from `first` until `until` (but at least through the
/// quality episodes), recording each epoch's time in `hist`: the epochs
/// of complete episodes, and also those of the last, cut-short one when
/// `partial` is set. Returns the next episode number.
#[allow(clippy::too_many_arguments)]
fn drive(
    s: &Setup,
    w: &FleetWorkload,
    seed: u64,
    first: u64,
    until: Instant,
    pool: &Pool,
    hist: &mut Hist,
    partial: bool,
    tally: &mut Tally,
    mut layers: Option<&mut Layers>,
) -> Result<u64, String> {
    let caps = Arc::new(Mutex::new(Vec::new()));
    let mut steps: Vec<Duration> = Vec::new();
    let mut e = first;
    loop {
        let (mut coord, len) = episode(s, w, seed, e, &caps)?;
        steps.clear();
        steps.reserve(len);
        for _ in 0..len {
            if e >= w.quality_episodes && Instant::now() >= until {
                if partial {
                    steps.iter().for_each(|d| hist.record_duration(*d));
                }
                return Ok(e);
            }
            let t0 = Instant::now();
            let report = coord.step_with_pool(pool);
            let step = t0.elapsed();
            let report = report.map_err(|err| format!("episode {e}: epoch failed: {err}"))?;
            steps.push(step);
            tally.epochs += 1;
            {
                let c = caps.lock().map_err(|_| "cap sink lock poisoned")?;
                check_sink(
                    &c,
                    coord.enforced_caps(),
                    &coord.down_mask(),
                    coord.global_budget(),
                )
                .map_err(|err| format!("episode {e} tick {}: {err}", report.tick))?;
            }
            if report.tenant_floor_violations != 0 {
                return Err(format!("episode {e}: a tenant fell below its floor"));
            }
            if e < w.quality_episodes {
                tally.quality_epochs += 1;
                tally.work += report.aggregate_perf;
            }
            if let Some(l) = layers.as_deref_mut() {
                if tally.epochs.is_multiple_of(SAMPLE_EVERY) {
                    l.sample(tally.epochs, &coord, step, pool)?;
                }
            }
        }
        steps.iter().for_each(|d| hist.record_duration(*d));
        e += 1;
    }
}

const LAW_COUNTERS: [&str; 3] = [
    names::CLUSTER_BUDGET_VIOLATIONS,
    names::HEALTH_QUARANTINE_LEAKS,
    names::CLUSTER_TENANT_FLOOR_VIOLATIONS,
];

fn check_laws(before: &[u64; 3]) -> Result<(), String> {
    for (name, was) in LAW_COUNTERS.iter().zip(before.iter()) {
        let now = counter_now(name);
        if now != *was {
            return Err(format!(
                "{name} moved by {} during the run",
                now.saturating_sub(*was)
            ));
        }
    }
    Ok(())
}

/// Run a fleet workload.
#[must_use = "the outcome or the failed check"]
pub fn run(args: &Args, w: &FleetWorkload) -> Result<Outcome, String> {
    let pool = Pool::global();
    let mut out = Outcome::default();
    let laws = LAW_COUNTERS.map(counter_now);
    if args.trace {
        let s = setup(w, pool)?;
        let before = Counters::now();
        out.attempted = traced(&s, w, args.seed, args.measure, &mut out)?;
        check_laws(&laws)?;
        crate::layers::counters(&mut out, &before);
        crate::layers::common(&mut out, crate::layers::Skip::Cluster, s.fleet.len())?;
        return Ok(out);
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take());
        let t0 = Instant::now();
        s = Some(setup(w, pool)?);
        setups.push(t0.elapsed());
    }
    let s = s.ok_or("no set-up ran")?;
    let mut hist = Hist::new();
    let mut tally = Tally::default();
    drive(
        &s,
        w,
        args.seed,
        0,
        Instant::now() + args.measure,
        pool,
        &mut hist,
        false,
        &mut tally,
        None,
    )?;
    check_laws(&laws)?;
    let (fault_free, oracle_ratio) = reference(&s, pool)?;
    out.attempted = tally.epochs;
    out.set("setup_s", median_seconds(&setups));
    out.set("latency_p90_us", hist.quantile(0.9) / 1e3);
    out.set(
        "work_ratio",
        tally.work / (fault_free * tally.quality_epochs.max(1) as f64),
    );
    out.set("oracle_ratio", oracle_ratio);
    crate::finish_common(&mut out);
    Ok(out)
}

/// The cluster layers of a traced run over `s`: half of `measure`
/// untraced, then half with the layers under one epoch in
/// [`SAMPLE_EVERY`] timed. Sets the `cluster.*` timings and the
/// `trace.*` metrics. Returns the epochs run.
#[must_use = "the epochs run or the failed check"]
pub fn traced(
    s: &Setup,
    w: &FleetWorkload,
    seed: u64,
    measure: Duration,
    out: &mut Outcome,
) -> Result<u64, String> {
    let pool = Pool::global();
    let quick = FleetWorkload {
        quality_episodes: 0,
        ..*w
    };
    let mut tally = Tally::default();
    let mut hist_u = Hist::new();
    let next = drive(
        s,
        &quick,
        seed,
        0,
        Instant::now() + measure / 2,
        pool,
        &mut hist_u,
        true,
        &mut tally,
        None,
    )?;
    let mut hist_t = Hist::new();
    let mut layers = Layers::new();
    let until = Instant::now() + measure / 2;
    drive(
        s,
        &quick,
        seed,
        next,
        until,
        pool,
        &mut hist_t,
        true,
        &mut tally,
        Some(&mut layers),
    )?;
    if layers.coordinate.count() == 0 {
        // Too few epochs for the sampling rate: time the layers once.
        let caps = Arc::new(Mutex::new(Vec::new()));
        let (coord, _) = episode(s, w, seed, next, &caps)?;
        let step = Duration::from_nanos(hist_t.quantile(0.5).round() as u64);
        layers.sample(0, &coord, step, pool)?;
    }
    layers.report(out);
    out.set("cluster.fleet_build_ms", s.build.as_secs_f64() * 1e3);
    let untraced_p90 = hist_u.quantile(0.9) / 1e3;
    let traced_p90 = hist_t.quantile(0.9) / 1e3;
    out.set("trace.untraced_p90_us", untraced_p90);
    out.set("trace.traced_p90_us", traced_p90);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_p90 - untraced_p90) / untraced_p90.max(1e-9),
    );
    out.set("trace.spans_recorded", layers.ring.recorded() as f64);
    out.set("trace.spans_dropped", layers.ring.dropped() as f64);
    Ok(tally.epochs)
}

/// Time the cluster layer on [`FLEET_PROBE`] for a traced run of a
/// workload that does not exercise it.
#[must_use = "the probe's failure must fail the run"]
pub fn probe(out: &mut Outcome, measure: Duration) -> Result<(), String> {
    let s = setup(&FLEET_PROBE, Pool::global())?;
    traced(&s, &FLEET_PROBE, 1, measure, out).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: f64) -> Watts {
        Watts::new(v)
    }

    #[test]
    fn a_sink_matching_the_coordinator_passes() {
        let caps = [w(100.0), w(50.0), w(80.0)];
        let enforced = [w(100.0), w(0.0), w(80.0)];
        // Node 1 is released: its stale 50 W in the sink draws nothing.
        assert!(check_sink(&caps, &enforced, &[false, false, false], w(200.0)).is_ok());
    }

    #[test]
    fn a_sink_total_above_global_fails() {
        let caps = [w(120.0), w(90.0)];
        let enforced = [w(120.0), w(90.0)];
        let err = check_sink(&caps, &enforced, &[false, false], w(200.0)).unwrap_err();
        assert!(err.contains("above the global budget"), "{err}");
    }

    #[test]
    fn a_sink_diverging_from_the_coordinator_fails() {
        let caps = [w(120.0), w(60.0)];
        let enforced = [w(100.0), w(60.0)];
        assert!(check_sink(&caps, &enforced, &[false, false], w(200.0)).is_err());
        // A down node draws nothing: its stale cap in the sink is not compared.
        assert!(check_sink(&caps, &[w(0.0), w(60.0)], &[true, false], w(200.0)).is_ok());
    }
}
