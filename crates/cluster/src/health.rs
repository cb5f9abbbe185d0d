//! Per-node health: the state machine that turns report verdicts into
//! membership decisions.
//!
//! The fleet coordinator cannot see a node directly — it sees the
//! node's observation reports, or their absence. This module folds the
//! per-epoch verdict stream into four states:
//!
//! ```text
//!            missed/rejected ≥ SUSPECT_AFTER     ≥ QUARANTINE_AFTER
//!  Healthy ───────────────────────────► Suspect ───────────────► Quarantined
//!     ▲                                   │ valid report              │
//!     │                                   ▼                           │ valid report
//!     │   PROBATION_EPOCHS clean        Healthy                       ▼
//!     └──────────────────────────────────────────────────────── Rejoining
//! ```
//!
//! * **Healthy** — reporting cleanly; full water-fill share.
//! * **Suspect** — a short miss streak; keeps its current cap but wins
//!   no raises until it reports again (the streak may be a blip).
//! * **Quarantined** — silent or lying long enough that its telemetry
//!   cannot be trusted. Its cap is reclaimed down to the class floor,
//!   decreases-first: the watts stay reserved until the decrease is
//!   *confirmed written*, never freed on hope — that is the invariant
//!   `health.quarantine_leaks == 0` certifies.
//! * **Rejoining** — reporting again after quarantine; held at its
//!   floor for a probation period so one good report cannot yo-yo the
//!   partition.
//!
//! A crashed node sends nothing, so it walks Healthy → Suspect →
//! Quarantined on the miss streak alone, and on rejoin walks
//! Rejoining → Healthy — the machine needs no separate crash signal.

use pbc_trace::names;

/// The four health states (see the module docs for the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Reporting cleanly; fully allocatable.
    Healthy,
    /// Missing/invalid reports, below the quarantine threshold.
    Suspect,
    /// Telemetry untrusted; cap reclaimed to the floor.
    Quarantined,
    /// Back from quarantine, on probation at its floor.
    Rejoining,
}

/// What the coordinator concluded about one node's report this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportVerdict {
    /// Arrived and passed validation.
    Accepted,
    /// Never arrived (dropped, or the node is down).
    Missing,
    /// Arrived but failed validation (non-finite, out of range, stale).
    Rejected,
}

/// Consecutive missed/rejected reports before Healthy → Suspect.
const SUSPECT_AFTER: u32 = 1;
/// Consecutive missed/rejected reports before → Quarantined.
const QUARANTINE_AFTER: u32 = 3;
/// Consecutive accepted reports a Rejoining node must deliver before it
/// is Healthy again.
const PROBATION_EPOCHS: u32 = 2;

/// The fleet's health tracker: one state machine per node.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    states: Vec<NodeHealth>,
    /// Consecutive missed/rejected reports (reset by an accepted one).
    miss_streak: Vec<u32>,
    /// Consecutive accepted reports while Rejoining.
    clean_streak: Vec<u32>,
}

impl HealthTracker {
    /// A tracker for `n` nodes, all Healthy.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            states: vec![NodeHealth::Healthy; n],
            miss_streak: vec![0; n],
            clean_streak: vec![0; n],
        }
    }

    /// Fold one epoch's verdict for `node` into its state.
    pub fn observe(&mut self, node: usize, verdict: ReportVerdict) {
        let state = self.states[node];
        match verdict {
            ReportVerdict::Accepted => {
                self.miss_streak[node] = 0;
                match state {
                    NodeHealth::Healthy => {}
                    NodeHealth::Suspect => {
                        // A blip, not a failure: back to full service.
                        self.states[node] = NodeHealth::Healthy;
                    }
                    NodeHealth::Quarantined => {
                        self.states[node] = NodeHealth::Rejoining;
                        self.clean_streak[node] = 1;
                        pbc_trace::cached_counter!(names::HEALTH_REJOINS).incr();
                        self.settle(node);
                    }
                    NodeHealth::Rejoining => {
                        self.clean_streak[node] += 1;
                        self.settle(node);
                    }
                }
            }
            ReportVerdict::Missing | ReportVerdict::Rejected => {
                self.miss_streak[node] += 1;
                self.clean_streak[node] = 0;
                let streak = self.miss_streak[node];
                match state {
                    NodeHealth::Healthy if streak >= SUSPECT_AFTER => {
                        self.states[node] = NodeHealth::Suspect;
                        pbc_trace::cached_counter!(names::HEALTH_SUSPECTS).incr();
                        self.escalate(node, streak);
                    }
                    NodeHealth::Suspect => self.escalate(node, streak),
                    // A miss during probation sends the node straight
                    // back: its telemetry is still not trustworthy.
                    NodeHealth::Rejoining => {
                        self.states[node] = NodeHealth::Quarantined;
                        pbc_trace::cached_counter!(names::HEALTH_QUARANTINES).incr();
                    }
                    NodeHealth::Healthy | NodeHealth::Quarantined => {}
                }
            }
        }
    }

    fn escalate(&mut self, node: usize, streak: u32) {
        if streak >= QUARANTINE_AFTER {
            self.states[node] = NodeHealth::Quarantined;
            pbc_trace::cached_counter!(names::HEALTH_QUARANTINES).incr();
        }
    }

    fn settle(&mut self, node: usize) {
        if self.clean_streak[node] >= PROBATION_EPOCHS {
            self.states[node] = NodeHealth::Healthy;
            pbc_trace::cached_counter!(names::HEALTH_RECOVERIES).incr();
        }
    }

    /// The current state of `node`.
    #[must_use]
    pub fn state(&self, node: usize) -> NodeHealth {
        self.states[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> HealthTracker {
        HealthTracker::new(2)
    }

    #[test]
    fn a_silent_node_walks_to_quarantine_and_back_through_probation() {
        let mut t = tracker();
        // 1 miss → Suspect, 3 misses → Quarantined.
        t.observe(0, ReportVerdict::Missing);
        assert_eq!(t.state(0), NodeHealth::Suspect);
        t.observe(0, ReportVerdict::Missing);
        assert_eq!(t.state(0), NodeHealth::Suspect);
        t.observe(0, ReportVerdict::Missing);
        assert_eq!(t.state(0), NodeHealth::Quarantined);
        // Silence while quarantined changes nothing.
        t.observe(0, ReportVerdict::Missing);
        assert_eq!(t.state(0), NodeHealth::Quarantined);
        // First valid report: probation, not instant trust.
        t.observe(0, ReportVerdict::Accepted);
        assert_eq!(t.state(0), NodeHealth::Rejoining);
        // Second clean report completes the 2-epoch probation.
        t.observe(0, ReportVerdict::Accepted);
        assert_eq!(t.state(0), NodeHealth::Healthy);
        // The untouched node never moved.
        assert_eq!(t.state(1), NodeHealth::Healthy);
    }

    #[test]
    fn one_clean_report_clears_a_suspect() {
        let mut t = tracker();
        t.observe(0, ReportVerdict::Rejected);
        assert_eq!(t.state(0), NodeHealth::Suspect);
        t.observe(0, ReportVerdict::Accepted);
        assert_eq!(t.state(0), NodeHealth::Healthy);
    }

    #[test]
    fn a_miss_during_probation_re_quarantines() {
        let mut t = tracker();
        for _ in 0..3 {
            t.observe(0, ReportVerdict::Missing);
        }
        t.observe(0, ReportVerdict::Accepted);
        assert_eq!(t.state(0), NodeHealth::Rejoining);
        t.observe(0, ReportVerdict::Rejected);
        assert_eq!(t.state(0), NodeHealth::Quarantined);
        // And the clean streak restarts from scratch.
        t.observe(0, ReportVerdict::Accepted);
        assert_eq!(t.state(0), NodeHealth::Rejoining);
        t.observe(0, ReportVerdict::Accepted);
        assert_eq!(t.state(0), NodeHealth::Healthy);
    }

    #[test]
    fn rejected_and_missing_count_toward_the_same_streak() {
        let mut t = tracker();
        t.observe(0, ReportVerdict::Rejected);
        t.observe(0, ReportVerdict::Missing);
        t.observe(0, ReportVerdict::Rejected);
        assert_eq!(t.state(0), NodeHealth::Quarantined);
    }
}
