//! Extension 1 — online dynamic coordination (the paper's future work).
//!
//! The model-free [`pbc_core::OnlineCoordinator`] against the statically
//! profiled COORD and the sweep oracle, across the CPU suite: how close
//! does pure runtime feedback get, and how many epochs does it burn to
//! get there?

use crate::output::{fmt, ExperimentOutput, TextTable};
use pbc_core::{
    coord_cpu, oracle, CriticalPowers, OnlineCoordinator, PowerBoundedProblem, DEFAULT_STEP,
};
use pbc_platform::presets::ivybridge;
use pbc_powersim::solve;
use pbc_types::{PowerAllocation, Result, Watts};
use pbc_workloads::cpu_suite;

/// Run the extension-1 evaluation.
#[must_use = "the experiment outcome carries I/O and solver failures"]
pub fn run() -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ext1",
        "Online (model-free) coordination vs static COORD vs oracle — IvyBridge, 208 W",
    );
    let platform = ivybridge();
    let cpu = platform.cpu().unwrap();
    let dram = platform.dram().unwrap();
    let budget = Watts::new(208.0);

    let mut t = TextTable::new(
        "Online coordinator vs COORD vs oracle",
        &[
            "benchmark",
            "oracle perf",
            "COORD perf",
            "online perf",
            "online epochs",
            "online alloc",
        ],
    );
    let mut online_gaps = Vec::new();
    for bench in cpu_suite() {
        let problem =
            PowerBoundedProblem::new(platform.clone(), bench.demand.clone(), budget)?;
        let best = oracle(&problem, DEFAULT_STEP)?;

        let criticals = CriticalPowers::probe(cpu, dram, &bench.demand);
        let coord_perf = coord_cpu(budget, &criticals)
            .ok()
            .and_then(|d| solve(&platform, &bench.demand, d.alloc).ok())
            .map(|op| op.perf_rel)
            .unwrap_or(0.0);

        let mut online =
            OnlineCoordinator::new(budget, PowerAllocation::split(budget, 0.5), Watts::ZERO);
        while !online.converged() && online.epochs() < 200 {
            let alloc = online.next_allocation();
            let op = solve(&platform, &bench.demand, alloc)?;
            online.observe(&op);
        }
        let online_perf = solve(&platform, &bench.demand, online.best())?.perf_rel;
        online_gaps.push((1.0 - online_perf / best.op.perf_rel).max(0.0));

        t.push(vec![
            bench.id.to_string(),
            fmt(best.op.perf_rel),
            fmt(coord_perf),
            fmt(online_perf),
            online.epochs().to_string(),
            format!(
                "({:.0}, {:.0})",
                online.best().proc.value(),
                online.best().mem.value()
            ),
        ]);
    }
    out.tables.push(t);

    let mut s = TextTable::new(
        "Online coordination summary",
        &["mean gap to oracle (%)", "max gap (%)", "requires profiling?"],
    );
    let mean = online_gaps.iter().sum::<f64>() / online_gaps.len().max(1) as f64;
    s.push(vec![
        fmt(mean * 100.0),
        fmt(online_gaps.iter().cloned().fold(0.0, f64::max) * 100.0),
        "no — pure runtime feedback".into(),
    ]);
    out.tables.push(s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_coordination_is_competitive() {
        let out = run().unwrap();
        let summary = out
            .tables
            .iter()
            .find(|t| t.title.contains("summary"))
            .unwrap();
        let mean: f64 = summary.rows[0][0].parse().unwrap();
        assert!(mean < 5.0, "online mean gap {mean}%");
        // Epoch counts stay practical (a few dozen short epochs).
        let detail = &out.tables[0];
        for r in &detail.rows {
            let epochs: usize = r[4].parse().unwrap();
            assert!(epochs <= 200, "{} epochs for {}", epochs, r[0]);
        }
    }
}
