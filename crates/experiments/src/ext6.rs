//! Extension 6 — chaos survival across the shipped fault plans.
//!
//! The paper assumes clean sensors, reliable cap writes, and a fixed
//! `P_b`. This extension drives the hardened online loop through every
//! named [`pbc_faults::FaultPlan`] and tabulates what it took to keep
//! the budget invariant intact: retries burned, rollbacks forced,
//! observations rejected, watchdog fallbacks — and whether the search
//! still converged once the plan went quiet.

use crate::output::{fmt, ExperimentOutput, TextTable};
use pbc_faults::{plan::PRESETS, run_chaos};
use pbc_platform::presets::ivybridge;
use pbc_types::{Result, Watts};

/// Seed every plan is run at (arbitrary, fixed for reproducibility).
const SEED: u64 = 42;
/// Epochs per plan: long enough for every shipped plan to go quiet and
/// the search to re-converge afterwards.
const EPOCHS: usize = 200;

/// Run the extension-6 evaluation.
#[must_use = "the experiment output is the whole point of the run"]
pub fn run() -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ext6",
        "Chaos survival: the online loop under every shipped fault plan — IvyBridge STREAM, 208 W",
    );
    let platform = ivybridge();
    let budget = Watts::new(208.0);

    let mut t = TextTable::new(
        "Survival under fault injection (seed 42, 200 epochs)",
        &[
            "plan",
            "injected",
            "retries",
            "rollbacks",
            "rejected obs",
            "fallbacks",
            "clamps",
            "max total (W)",
            "violations",
            "final perf",
            "verdict",
        ],
    );
    for (name, _, make) in PRESETS {
        let plan = make(SEED);
        let report = run_chaos(&platform, "stream", budget, &plan, EPOCHS)?;
        t.push(vec![
            name.to_string(),
            report.tally.injected().to_string(),
            report.enforce_retries.to_string(),
            report.enforce_rollbacks.to_string(),
            report.rejected_observations.to_string(),
            report.fallbacks.to_string(),
            report.clamps.to_string(),
            fmt(report.max_enforced_total.value()),
            report.budget_violations.to_string(),
            fmt(report.final_perf),
            if report.survived() { "SURVIVED" } else { "DIED" }.to_string(),
        ]);
    }
    out.tables.push(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plan_survives_and_renders() {
        let out = run().unwrap();
        let text = out.render();
        for (name, ..) in PRESETS {
            assert!(text.contains(name), "missing plan {name} in:\n{text}");
        }
        assert!(text.contains("SURVIVED"));
        assert!(!text.contains("DIED"));
    }
}
