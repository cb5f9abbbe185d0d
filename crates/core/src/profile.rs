//! Sweep profiles: what the paper's characterization experiments produce.
//!
//! A [`SweepProfile`] is the data behind one curve of Fig. 3/4/7: for a
//! fixed total budget, the solver's operating point at every allocation in
//! the discretized space `A`.

use pbc_platform::PlatformId;
use pbc_powersim::NodeOperatingPoint;
use pbc_types::{PowerAllocation, Watts};

/// One allocation's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The allocation applied.
    pub alloc: PowerAllocation,
    /// The resulting operating point.
    pub op: NodeOperatingPoint,
}

/// A full sweep over the allocation space at one total budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProfile {
    /// Platform swept on.
    pub platform: PlatformId,
    /// Workload name.
    pub workload: String,
    /// Total budget `P_b`.
    pub budget: Watts,
    /// Points ordered by ascending processor cap.
    pub points: Vec<SweepPoint>,
}

impl SweepProfile {
    /// The best-performing point, if any.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.op.perf_rel.total_cmp(&b.op.perf_rel))
    }

    /// The worst-performing point, if any.
    pub fn worst(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.op.perf_rel.total_cmp(&b.op.perf_rel))
    }

    /// Best-to-worst performance ratio — the paper's headline spread
    /// (30× for CPU STREAM at 208 W, >30% for GPU STREAM at 140 W).
    pub fn spread(&self) -> f64 {
        match (self.best(), self.worst()) {
            (Some(b), Some(w)) if w.op.perf_rel > 0.0 => b.op.perf_rel / w.op.perf_rel,
            _ => 1.0,
        }
    }

    /// `perf_max` for this budget (0 if the profile is empty).
    pub fn perf_max(&self) -> f64 {
        self.best().map(|p| p.op.perf_rel).unwrap_or(0.0)
    }

    /// The point whose allocation is closest (in processor watts) to the
    /// given allocation — used to evaluate a heuristic's choice against
    /// sweep data.
    pub fn nearest(&self, alloc: PowerAllocation) -> Option<&SweepPoint> {
        self.points.iter().min_by(|a, b| {
            let da = (a.alloc.proc - alloc.proc).abs().value();
            let db = (b.alloc.proc - alloc.proc).abs().value();
            da.total_cmp(&db)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_powersim::{CpuMechanismState, MechanismState};
    use pbc_types::Bandwidth;

    fn mk_point(proc: f64, perf: f64) -> SweepPoint {
        let alloc = PowerAllocation::new(Watts::new(proc), Watts::new(240.0 - proc));
        SweepPoint {
            alloc,
            op: NodeOperatingPoint {
                alloc,
                perf_rel: perf,
                proc_power: Watts::new(proc.min(110.0)),
                mem_power: Watts::new(80.0),
                work_rate: perf * 100.0,
                bandwidth: Bandwidth::new(perf * 50.0),
                proc_busy: 0.5,
                mechanism: MechanismState::Cpu(CpuMechanismState {
                    pstate: 5,
                    duty: 1.0,
                    cap_unenforceable: false,
                }),
            },
        }
    }

    fn profile() -> SweepProfile {
        SweepProfile {
            platform: PlatformId::IvyBridge,
            workload: "test".into(),
            budget: Watts::new(240.0),
            points: vec![
                mk_point(60.0, 0.2),
                mk_point(90.0, 0.7),
                mk_point(110.0, 1.0),
                mk_point(140.0, 0.6),
                mk_point(180.0, 0.1),
            ],
        }
    }

    #[test]
    fn best_worst_spread() {
        let p = profile();
        assert_eq!(p.best().unwrap().alloc.proc.value(), 110.0);
        assert_eq!(p.worst().unwrap().alloc.proc.value(), 180.0);
        assert!((p.spread() - 10.0).abs() < 1e-9);
        assert_eq!(p.perf_max(), 1.0);
    }

    #[test]
    fn nearest_matches_on_proc_axis() {
        let p = profile();
        let near = p
            .nearest(PowerAllocation::new(Watts::new(95.0), Watts::new(145.0)))
            .unwrap();
        assert_eq!(near.alloc.proc.value(), 90.0);
    }

    #[test]
    fn empty_profile_degenerates() {
        let p = SweepProfile {
            platform: PlatformId::Haswell,
            workload: "none".into(),
            budget: Watts::new(100.0),
            points: vec![],
        };
        assert!(p.best().is_none());
        assert_eq!(p.spread(), 1.0);
        assert_eq!(p.perf_max(), 0.0);
    }
}
