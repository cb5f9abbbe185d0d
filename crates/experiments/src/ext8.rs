//! Extension 8 — fleet survival under injected faults.
//!
//! Extension 7 asked how much a hierarchical coordinator wins when
//! nothing goes wrong; this one asks what it costs to keep the global
//! bound when things do. Each row replays one deterministic
//! [`pbc_faults::FleetFaultPlan`] through the full chaos harness —
//! health machine, supervised enforcement, static-fallback degraded
//! mode, mock RAPL tree as the cap sink — and reports availability,
//! time-to-reconverge, and work retained against the never-fails
//! oracle (the coordinated aggregate at the initial budget, every
//! epoch). The two invariants every row must hold are the point of the
//! table: zero budget violations and zero quarantine leaks, at every
//! fleet size, under every plan.

use crate::ext7::fleet_of;
use crate::output::{fmt, ExperimentOutput, TextTable};
use pbc_cluster::{run_cluster_chaos, Objective};
use pbc_faults::FleetFaultPlan;
use pbc_types::{PbcError, Result, Watts};

/// The plans the table sweeps — the survival-relevant presets, calm
/// first as the control row.
const PLANS: [&str; 6] = ["calm", "node-crash", "node-rejoin", "stragglers", "report-loss", "everything"];

/// Fleet sizes the table sweeps (128 is ext7's headline scale; chaos
/// replays every epoch, so the survival table stops at 32).
const SIZES: [usize; 2] = [8, 32];

/// Global budget per node, matching ext7.
const WATTS_PER_NODE: f64 = 130.0;

/// The one seed the table prints. The test suite sweeps many more;
/// determinism makes any single seed representative rather than lucky.
const SEED: u64 = 42;

/// Run the extension-8 evaluation.
#[must_use = "the experiment output is the whole point of the run"]
pub fn run() -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ext8",
        "Fleet fault tolerance: availability, reconvergence, and work retained under chaos plans",
    );
    let mut t = TextTable::new(
        "Survival under injected faults (130 W/node, seed 42; work is relative to the \
         never-fails oracle)",
        &[
            "plan",
            "nodes",
            "epochs",
            "avail",
            "reconv@",
            "work/oracle",
            "drops",
            "quar",
            "rejoin",
            "degr",
            "verdict",
        ],
    );
    for n in SIZES {
        for name in PLANS {
            let plan = FleetFaultPlan::by_name(name, SEED)
                .ok_or_else(|| PbcError::NotFound(format!("fleet fault plan {name}")))?;
            let fleet = fleet_of(n)?;
            let global = Watts::new(WATTS_PER_NODE * n as f64);
            let chaos = run_cluster_chaos(fleet, global, &plan, 0, Objective::Throughput, None)?;
            let r = &chaos.report;
            t.push(vec![
                plan.name.to_string(),
                n.to_string(),
                chaos.report.epochs.to_string(),
                fmt(r.availability),
                match r.reconverged_at {
                    Some(tick) => tick.to_string(),
                    None => "never".to_string(),
                },
                fmt(chaos.work_ratio()),
                r.dropouts.to_string(),
                r.quarantines.to_string(),
                r.rejoins.to_string(),
                r.degraded_epochs.to_string(),
                if chaos.survived() { "SURVIVED" } else { "DIED" }.to_string(),
            ]);
        }
    }
    out.tables.push(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_survives_and_reconverges() {
        let out = run().unwrap();
        let t = &out.tables[0];
        assert_eq!(t.rows.len(), PLANS.len() * SIZES.len());
        for row in &t.rows {
            assert_eq!(
                row.last().unwrap(),
                "SURVIVED",
                "plan {} at {} nodes died",
                row[0],
                row[1]
            );
            assert_ne!(
                row[4], "never",
                "plan {} at {} nodes never reconverged",
                row[0], row[1]
            );
        }
    }

    #[test]
    fn calm_rows_are_the_control() {
        let out = run().unwrap();
        for row in &out.tables[0].rows {
            if row[0] == "calm" {
                assert_eq!(row[6], "0", "calm run dropped nodes");
                assert_eq!(row[9], "0", "calm run degraded");
            }
        }
    }
}
