//! Extension 7 — cluster-scale coordination under one global budget.
//!
//! The paper coordinates components inside a single node and closes by
//! calling for an "upper level" above it. This extension measures that
//! level at fleet scale: mixed fleets of 8, 32, and 128 nodes share one
//! global budget, and the hierarchical coordinator (marginal-gain
//! water-filling over per-class `perf_max ~ P_b` curves, then per-node
//! COORD on each share) is compared against a uniform split of the same
//! budget and against the per-node oracle ceiling.

use crate::output::{fmt, ExperimentOutput, TextTable};
use pbc_cluster::{Fleet, FleetCoordinator, SpecLine};
use pbc_types::{Result, Watts};

/// The class mix every fleet cycles through: memory-bound and
/// compute-bound hosts plus two generations of GPU cards.
const MIX: [(&str, &str); 5] = [
    ("ivybridge", "stream"),
    ("haswell", "dgemm"),
    ("ivybridge", "sra"),
    ("titan-xp", "sgemm"),
    ("titan-v", "minife"),
];

/// Fleet sizes the table sweeps.
const SIZES: [usize; 3] = [8, 32, 128];

/// Global budget per node — comfortably above every class floor but
/// well below the fleet's aggregate demand, so the partitioner has real
/// choices to make.
const WATTS_PER_NODE: f64 = 130.0;

/// Build an `n`-node fleet cycling through the class mix (ext8 reuses
/// the same fleets for its survival table).
#[must_use = "building a fleet profiles its classes; the result is the point"]
pub(crate) fn fleet_of(n: usize) -> Result<Fleet> {
    let mut spec = Vec::new();
    for (i, (platform, bench)) in MIX.iter().enumerate() {
        let count = n / MIX.len() + usize::from(i < n % MIX.len());
        if count > 0 {
            spec.push(SpecLine {
                count,
                platform: (*platform).to_string(),
                bench: (*bench).to_string(),
            });
        }
    }
    Fleet::build(&spec)
}

/// Run the extension-7 evaluation.
#[must_use = "the experiment output is the whole point of the run"]
pub fn run() -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ext7",
        "Cluster coordination: hierarchical COORD vs uniform split vs oracle at 8/32/128 nodes",
    );
    let mut t = TextTable::new(
        "Aggregate relative throughput under one global budget (130 W/node)",
        &[
            "nodes",
            "budget (W)",
            "COORD",
            "uniform",
            "oracle",
            "COORD/uniform",
            "COORD/oracle",
        ],
    );
    for n in SIZES {
        let fleet = fleet_of(n)?;
        let global = Watts::new(WATTS_PER_NODE * n as f64);
        let coordinator = FleetCoordinator::new(fleet, global)?;
        let smart = coordinator.coordinate()?;
        let naive = coordinator.uniform_decision()?;
        let oracle = coordinator.oracle_aggregate()?;
        t.push(vec![
            n.to_string(),
            fmt(global.value()),
            fmt(smart.aggregate_perf),
            fmt(naive.aggregate_perf),
            fmt(oracle),
            fmt(smart.aggregate_perf / naive.aggregate_perf.max(1e-9)),
            fmt(smart.aggregate_perf / oracle.max(1e-9)),
        ]);
    }
    out.tables.push(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordination_beats_uniform_at_every_scale() {
        for n in SIZES {
            let fleet = fleet_of(n).unwrap();
            assert_eq!(fleet.len(), n);
            let global = Watts::new(WATTS_PER_NODE * n as f64);
            let coordinator = FleetCoordinator::new(fleet, global).unwrap();
            let smart = coordinator.coordinate().unwrap();
            let naive = coordinator.uniform_decision().unwrap();
            let oracle = coordinator.oracle_aggregate().unwrap();
            assert!(
                smart.aggregate_perf > naive.aggregate_perf,
                "{n} nodes: COORD {} <= uniform {}",
                smart.aggregate_perf,
                naive.aggregate_perf
            );
            assert!(
                smart.aggregate_perf <= oracle + 1e-6,
                "{n} nodes: COORD {} beat the oracle {}",
                smart.aggregate_perf,
                oracle
            );
        }
    }

    #[test]
    fn table_renders_every_scale() {
        let out = run().unwrap();
        let text = out.render();
        for n in SIZES {
            assert!(text.contains(&n.to_string()), "missing {n} in:\n{text}");
        }
        assert!(text.contains("COORD/uniform"));
    }
}
