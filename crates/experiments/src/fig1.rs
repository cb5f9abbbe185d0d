//! Figure 1 — the motivating STREAM experiments.
//!
//! (a) CPU STREAM on the IvyBridge node: per-core bandwidth vs total
//! budget (left) and vs the cross-component split at `P_b` = 208 W
//! (right); the paper reports up to a 30× gap between the best and worst
//! split.
//!
//! (b) GPU STREAM on the Titan XP: total bandwidth vs card cap, and vs the
//! split at 140 W, where the gap is >30 %.

use crate::output::{fmt, sparkline, ExperimentOutput, TextTable};
use pbc_core::{perf_max_curve, sweep_curve, PowerBoundedProblem, DEFAULT_STEP};
use pbc_types::{Result, Watts};
use pbc_platform::presets::{ivybridge, titan_xp};
use pbc_workloads::by_name;

/// Budget grid helper.
pub(crate) fn budget_grid(lo: f64, hi: f64, step: f64) -> Vec<Watts> {
    let mut v = Vec::new();
    let mut b = lo;
    while b <= hi + 1e-9 {
        v.push(Watts::new(b));
        b += step;
    }
    v
}

/// Sweep one budget through [`sweep_curve`], which solves each canonical
/// solver key once with one nominal reference time for the whole grid,
/// where [`pbc_core::sweep_budget`] pays a full solve per point.
#[must_use = "the profile or the sweep failure must be inspected"]
pub(crate) fn one_budget_profile(
    problem: &PowerBoundedProblem,
    budget: Watts,
) -> Result<pbc_core::SweepProfile> {
    sweep_curve(problem, &[budget], DEFAULT_STEP)?
        .pop()
        .ok_or_else(|| pbc_types::PbcError::InvalidInput("empty sweep curve".into()))
}

/// Run the Fig. 1 reproduction.
#[must_use = "the experiment outcome carries I/O and solver failures"]
pub fn run() -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "fig1",
        "STREAM under power bounds: perf vs total budget, and vs cross-component split",
    );

    // ---- (a) CPU: per-core GB/s vs budget ----
    let stream = by_name("stream").expect("stream benchmark");
    let cores = ivybridge().cpu().unwrap().total_cores() as f64;
    let tmpl = PowerBoundedProblem::new(ivybridge(), stream.demand.clone(), Watts::new(208.0))?;
    let curve = perf_max_curve(&tmpl, budget_grid(100.0, 300.0, 8.0), DEFAULT_STEP)?;
    let mut t = TextTable::new(
        "CPU STREAM perf_max vs total budget (IvyBridge, GB/s per core)",
        &["P_b (W)", "perf_max (rel)", "GB/s per core", "actual power (W)"],
    );
    let mut series = Vec::new();
    for c in &curve {
        let op = pbc_powersim::solve(&tmpl.platform, &tmpl.workload, c.best_alloc)?;
        let gbps = stream.natural_rate(&op).rate;
        series.push(gbps / cores);
        t.push(vec![
            fmt(c.budget.value()),
            fmt(c.perf_max),
            fmt(gbps / cores),
            fmt(c.actual_power.value()),
        ]);
    }
    out.tables.push(t);
    let mut shape = TextTable::new("CPU perf_max curve shape", &["sparkline"]);
    shape.push(vec![sparkline(&series)]);
    out.tables.push(shape);

    // ---- (a right) CPU: split sweep at 208 W. ----
    let profile = one_budget_profile(&tmpl, Watts::new(208.0))?;
    let mut t = TextTable::new(
        "CPU STREAM splits at P_b = 208 W (IvyBridge)",
        &["P_cpu (W)", "P_mem (W)", "GB/s per core", "CPU actual (W)", "DRAM actual (W)"],
    );
    for pt in &profile.points {
        let gbps = stream.natural_rate(&pt.op).rate;
        t.push(vec![
            fmt(pt.alloc.proc.value()),
            fmt(pt.alloc.mem.value()),
            fmt(gbps / cores),
            fmt(pt.op.proc_power.value()),
            fmt(pt.op.mem_power.value()),
        ]);
    }
    out.tables.push(t);
    let mut summary = TextTable::new(
        "CPU STREAM 208 W summary",
        &["best GB/s/core", "worst GB/s/core", "spread (x)", "paper"],
    );
    let best = profile.best().unwrap();
    let worst = profile.worst().unwrap();
    summary.push(vec![
        fmt(stream.natural_rate(&best.op).rate / cores),
        fmt(stream.natural_rate(&worst.op).rate / cores),
        fmt(profile.spread()),
        "~30x".into(),
    ]);
    out.tables.push(summary);

    // ---- (b) GPU: bandwidth vs card cap ----
    let gstream = by_name("gpu-stream").expect("gpu-stream benchmark");
    let gtmpl = PowerBoundedProblem::new(titan_xp(), gstream.demand.clone(), Watts::new(140.0))?;
    let curve = perf_max_curve(&gtmpl, budget_grid(125.0, 300.0, 7.0), DEFAULT_STEP)?;
    let mut t = TextTable::new(
        "GPU STREAM perf_max vs card cap (Titan XP, total GB/s)",
        &["cap (W)", "perf_max (rel)", "GB/s", "actual power (W)"],
    );
    let mut series = Vec::new();
    for c in &curve {
        let op = pbc_powersim::solve(&gtmpl.platform, &gtmpl.workload, c.best_alloc)?;
        let gbps = gstream.natural_rate(&op).rate;
        series.push(gbps);
        t.push(vec![
            fmt(c.budget.value()),
            fmt(c.perf_max),
            fmt(gbps),
            fmt(c.actual_power.value()),
        ]);
    }
    out.tables.push(t);
    let mut shape = TextTable::new("GPU perf_max curve shape", &["sparkline"]);
    shape.push(vec![sparkline(&series)]);
    out.tables.push(shape);

    // ---- (b right) GPU: split sweep at 140 W ----
    let profile = one_budget_profile(&gtmpl, Watts::new(140.0))?;
    let mut t = TextTable::new(
        "GPU STREAM splits at cap = 140 W (Titan XP)",
        &["P_sm (W)", "P_mem (W)", "GB/s", "SM actual (W)", "mem actual (W)"],
    );
    for pt in &profile.points {
        t.push(vec![
            fmt(pt.alloc.proc.value()),
            fmt(pt.alloc.mem.value()),
            fmt(gstream.natural_rate(&pt.op).rate),
            fmt(pt.op.proc_power.value()),
            fmt(pt.op.mem_power.value()),
        ]);
    }
    out.tables.push(t);
    let mut summary = TextTable::new(
        "GPU STREAM 140 W summary",
        &["best GB/s", "worst GB/s", "spread (x)", "paper"],
    );
    let best = profile.best().unwrap();
    let worst = profile.worst().unwrap();
    summary.push(vec![
        fmt(gstream.natural_rate(&best.op).rate),
        fmt(gstream.natural_rate(&worst.op).rate),
        fmt(profile.spread()),
        ">1.3x".into(),
    ]);
    out.tables.push(summary);

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_headline_shapes() {
        let out = run().unwrap();
        assert!(out.tables.len() >= 6);
        // The CPU summary row confirms an order-of-magnitude spread.
        let cpu_summary = out
            .tables
            .iter()
            .find(|t| t.title.contains("CPU STREAM 208 W"))
            .unwrap();
        let spread: f64 = cpu_summary.rows[0][2].parse().unwrap();
        assert!(spread > 8.0, "CPU spread {spread}");
        // The GPU spread is far milder (low caps excluded by hardware).
        let gpu_summary = out
            .tables
            .iter()
            .find(|t| t.title.contains("GPU STREAM 140 W"))
            .unwrap();
        let spread: f64 = gpu_summary.rows[0][2].parse().unwrap();
        assert!((1.2..4.0).contains(&spread), "GPU spread {spread}");
    }
}
