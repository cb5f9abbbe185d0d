//! Workload demand parameters: how a workload loads the two components.
//!
//! A workload is a weighted sequence of *phases*; each phase is described
//! by platform-independent characteristics (arithmetic intensity, access
//! pattern cost, overlap, activity factors). The solvers instantiate these
//! onto a concrete platform: peak compute comes from the platform's
//! GFLOP/s, peak bandwidth from the memory spec.
//!
//! The parameters deliberately match the workload distinctions the paper
//! draws: compute intensity ("the ratio of computation rate to memory
//! bandwidth", §3.4.1), access-pattern power cost (RandomAccess draws more
//! DRAM watts per useful byte than STREAM), multi-phase structure ("kernel
//! benchmarks like EP-dgemm consist of a single phase, while
//! pseudo-applications like BT and MG may comprise multiple memory access
//! patterns", §6.2), and the memory-request feedback that slows DRAM
//! traffic when the processor is throttled (§3.2, scenario IV).


/// Demand characteristics of one execution phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseDemand {
    /// Fraction of the platform's peak compute rate the phase sustains at
    /// nominal clocks when not memory-stalled (vectorization/ILP/occupancy
    /// efficiency), in `(0, 1]`.
    pub compute_efficiency: f64,
    /// Arithmetic intensity: useful FLOPs per byte of memory traffic.
    /// High (≫ machine balance) for DGEMM, low for STREAM/RandomAccess.
    pub arithmetic_intensity: f64,
    /// The highest fraction of the platform's peak bandwidth this phase
    /// can generate at nominal processor speed, in `(0, 1]`. Below 1 for
    /// latency-/concurrency-limited patterns (RandomAccess).
    pub bw_saturation: f64,
    /// Memory energy cost multiplier relative to streaming traffic
    /// (row-buffer-hostile access costs more activates per byte); ≥ 1.
    pub pattern_cost: f64,
    /// Fraction of memory time that hides under compute, in `[0, 1]`.
    /// 1 = perfectly overlapped (software pipelined streaming), 0 = fully
    /// serialized (dependent pointer chasing).
    pub overlap: f64,
    /// How strongly the phase's achievable bandwidth degrades with
    /// processor speed `s`: the ceiling scales as `s^γ`. Latency-bound
    /// patterns (γ≈1) lose request concurrency when cores slow down;
    /// prefetched streaming (γ≈0.3) barely does.
    pub issue_sensitivity: f64,
    /// Switching activity of the processor while executing compute.
    pub act_compute: f64,
    /// Switching activity while stalled waiting on memory.
    pub act_stall: f64,
}

impl PhaseDemand {
    /// A pure-compute phase (DGEMM-like): high intensity, negligible
    /// bandwidth needs. Useful as a building block in tests.
    pub fn compute_bound() -> Self {
        Self {
            compute_efficiency: 0.9,
            arithmetic_intensity: 30.0,
            bw_saturation: 0.35,
            pattern_cost: 1.0,
            overlap: 0.95,
            issue_sensitivity: 0.3,
            act_compute: 1.0,
            act_stall: 0.35,
        }
    }

    /// A streaming memory-bound phase (STREAM-like).
    // pbc-lint: allow(unreached-pub) a fixture the powersim unit tests build on
    pub fn stream_bound() -> Self {
        Self {
            compute_efficiency: 0.25,
            arithmetic_intensity: 0.125,
            bw_saturation: 1.0,
            pattern_cost: 1.0,
            overlap: 0.9,
            issue_sensitivity: 0.3,
            act_compute: 0.75,
            act_stall: 0.35,
        }
    }

    /// A latency-bound random-access phase (GUPS-like).
    // pbc-lint: allow(unreached-pub) a fixture the powersim unit tests build on
    pub fn random_bound() -> Self {
        Self {
            compute_efficiency: 0.1,
            arithmetic_intensity: 0.06,
            bw_saturation: 0.6,
            pattern_cost: 2.0,
            overlap: 0.5,
            issue_sensitivity: 0.25,
            act_compute: 0.7,
            act_stall: 0.4,
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        fn in_unit(name: &str, v: f64, lo_open: bool) -> Result<(), String> {
            let ok = if lo_open { v > 0.0 } else { v >= 0.0 };
            if ok && v <= 1.0 && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} = {v} outside the unit range"))
            }
        }
        in_unit("compute_efficiency", self.compute_efficiency, true)?;
        in_unit("bw_saturation", self.bw_saturation, true)?;
        in_unit("overlap", self.overlap, false)?;
        in_unit("issue_sensitivity", self.issue_sensitivity, false)?;
        in_unit("act_compute", self.act_compute, true)?;
        in_unit("act_stall", self.act_stall, false)?;
        if !(self.arithmetic_intensity > 0.0 && self.arithmetic_intensity.is_finite()) {
            return Err("arithmetic_intensity must be positive".into());
        }
        if !(self.pattern_cost >= 1.0 && self.pattern_cost.is_finite()) {
            return Err("pattern_cost must be >= 1".into());
        }
        Ok(())
    }
}

/// A workload: named, weighted phases.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDemand {
    /// Short name (e.g. `"SRA"`, `"DGEMM"`).
    pub name: String,
    /// `(weight, phase)` pairs; weights are relative amounts of *work* (not
    /// time) and need not sum to 1 — they are normalized internally.
    pub phases: Vec<(f64, PhaseDemand)>,
}

impl WorkloadDemand {
    /// Single-phase workload.
    pub fn single(name: impl Into<String>, phase: PhaseDemand) -> Self {
        Self {
            name: name.into(),
            phases: vec![(1.0, phase)],
        }
    }

    /// Multi-phase workload from `(weight, phase)` pairs.
    pub fn phased(name: impl Into<String>, phases: Vec<(f64, PhaseDemand)>) -> Self {
        Self {
            name: name.into(),
            phases,
        }
    }

    /// Normalized phase weights (sum to 1).
    pub fn normalized_weights(&self) -> Vec<f64> {
        let total: f64 = self.phases.iter().map(|(w, _)| *w).sum();
        if total <= 0.0 {
            vec![1.0 / self.phases.len().max(1) as f64; self.phases.len()]
        } else {
            self.phases.iter().map(|(w, _)| w / total).collect()
        }
    }

    /// Work-weighted mean arithmetic intensity — a scalar summary of
    /// compute- vs memory-boundedness used by heuristics.
    pub fn mean_intensity(&self) -> f64 {
        self.normalized_weights()
            .iter()
            .zip(&self.phases)
            .map(|(w, (_, p))| w * p.arithmetic_intensity)
            .sum()
    }

    /// Validate all phases.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("workload {} has no phases", self.name));
        }
        for (i, (w, p)) in self.phases.iter().enumerate() {
            if !(w.is_finite() && *w >= 0.0) {
                return Err(format!("phase {i} weight {w} invalid"));
            }
            p.validate().map_err(|e| format!("phase {i}: {e}"))?;
        }
        if self.phases.iter().all(|(w, _)| pbc_types::is_zero(*w)) {
            return Err("all phase weights are zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_phases_validate() {
        assert_eq!(PhaseDemand::compute_bound().validate(), Ok(()));
        assert_eq!(PhaseDemand::stream_bound().validate(), Ok(()));
        assert_eq!(PhaseDemand::random_bound().validate(), Ok(()));
    }

    #[test]
    fn weights_normalize() {
        let w = WorkloadDemand::phased(
            "mixed",
            vec![(3.0, PhaseDemand::compute_bound()), (1.0, PhaseDemand::stream_bound())],
        );
        let nw = w.normalized_weights();
        assert!((nw[0] - 0.75).abs() < 1e-12);
        assert!((nw[1] - 0.25).abs() < 1e-12);
        assert_eq!(w.validate(), Ok(()));
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let w = WorkloadDemand::phased(
            "degenerate",
            vec![(0.0, PhaseDemand::compute_bound()), (0.0, PhaseDemand::stream_bound())],
        );
        let nw = w.normalized_weights();
        assert!((nw[0] - 0.5).abs() < 1e-12);
        // but validation rejects an all-zero workload
        assert!(w.validate().is_err());
    }

    #[test]
    fn mean_intensity_ordering() {
        let dgemm = WorkloadDemand::single("dgemm", PhaseDemand::compute_bound());
        let stream = WorkloadDemand::single("stream", PhaseDemand::stream_bound());
        assert!(dgemm.mean_intensity() > stream.mean_intensity());
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut p = PhaseDemand::compute_bound();
        p.overlap = 1.5;
        assert!(p.validate().is_err());
        let mut p = PhaseDemand::compute_bound();
        p.pattern_cost = 0.5;
        assert!(p.validate().is_err());
        let mut p = PhaseDemand::compute_bound();
        p.arithmetic_intensity = 0.0;
        assert!(p.validate().is_err());
        let w = WorkloadDemand::phased("empty", vec![]);
        assert!(w.validate().is_err());
    }
}
