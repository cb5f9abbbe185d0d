//! A closed-form performance predictor from critical power values.
//!
//! The related work the paper positions against (Tiwari et al. [34])
//! builds regression models of performance under caps from instrumented
//! profiling. This module shows the categorization gives an almost-free
//! alternative: once the seven critical values are known, the §3.2
//! scenario structure *implies* a piecewise performance model —
//!
//! * processor side: performance scales with the P-state speed the cap
//!   buys between `L2` and `L1` (gradual, scenario II), collapses with the
//!   duty cycle between `L4` and `L2` (scenario IV), and floors below;
//! * memory side: performance scales linearly with the bandwidth the cap
//!   buys above the floor (scenario III);
//! * the two compose like the workload composes: through a min-like
//!   bottleneck rule.
//!
//! It is a *shape* model — good enough to rank allocations and locate the
//! optimum without any solver/hardware evaluation, which is exactly what a
//! batch scheduler needs at enqueue time. The tests quantify its fidelity
//! against the full solver.

use crate::critical::CriticalPowers;
use pbc_types::{PowerAllocation, Watts};

/// How strongly the workload's throughput follows each component —
/// derived from where its critical values sit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewiseModel {
    criticals: CriticalPowers,
    /// Fraction of performance governed by the processor side (0 = pure
    /// memory-bound, 1 = pure compute-bound).
    proc_weight: f64,
    /// Relative speed at the bottom of the P-state range (f_min/f_nom,
    /// platform property; 0.48 on the reference parts).
    min_pstate_speed: f64,
    /// Deepest duty cycle (platform property; 0.125 on Intel parts).
    min_duty: f64,
}

impl PiecewiseModel {
    /// Build a model from critical values.
    ///
    /// `proc_weight` can be estimated without extra runs: the wider a
    /// component's dynamic range `L1 − L2` relative to the other's, the
    /// more of the budget the workload wants there (the same signal COORD's
    /// regime C uses).
    pub fn from_criticals(c: &CriticalPowers, min_pstate_speed: f64, min_duty: f64) -> Self {
        let pd_cpu = (c.cpu_l1 - c.cpu_l2).value().max(0.0);
        let pd_mem = (c.mem_l1 - c.mem_l2).value().max(0.0);
        let denom = pd_cpu + pd_mem;
        Self {
            criticals: *c,
            proc_weight: if denom > 0.0 { pd_cpu / denom } else { 0.5 },
            min_pstate_speed: min_pstate_speed.clamp(0.05, 1.0),
            min_duty: min_duty.clamp(0.01, 1.0),
        }
    }

    /// Predicted relative throughput of the processor side under its cap.
    pub fn proc_factor(&self, cap: Watts) -> f64 {
        let c = &self.criticals;
        if cap >= c.cpu_l1 {
            1.0
        } else if cap >= c.cpu_l2 {
            // Scenario II: P-state interpolation between min and full speed.
            let t = (cap - c.cpu_l2) / (c.cpu_l1 - c.cpu_l2).max(Watts::new(1e-9));
            self.min_pstate_speed + t * (1.0 - self.min_pstate_speed)
        } else if cap >= c.cpu_l4 {
            // Scenario IV: duty-cycle collapse below the P-state range.
            let t = (cap - c.cpu_l4) / (c.cpu_l2 - c.cpu_l4).max(Watts::new(1e-9));
            let duty = self.min_duty + t * (1.0 - self.min_duty);
            self.min_pstate_speed * duty
        } else {
            // Scenario VI: pinned at the floor.
            self.min_pstate_speed * self.min_duty
        }
    }

    /// Predicted relative throughput of the memory side under its cap.
    pub fn mem_factor(&self, cap: Watts) -> f64 {
        let c = &self.criticals;
        if cap >= c.mem_l1 {
            1.0
        } else if cap > c.mem_l3 {
            // Scenario III: bandwidth (and hence throughput) linear in the
            // cap's headroom above the background floor.
            ((cap - c.mem_l3) / (c.mem_l1 - c.mem_l3).max(Watts::new(1e-9))).clamp(0.02, 1.0)
        } else {
            0.02 // scenario V: one throttle step of progress
        }
    }

    /// Predicted relative performance of an allocation: the bottleneck
    /// (min) composition of the two sides.
    ///
    /// The min rule needs no boundedness weight because the critical
    /// values already encode it: a compute-bound workload has a small
    /// `P_mem,L1`, so its memory factor saturates at 1.0 under almost any
    /// cap and the processor factor is what binds — and vice versa.
    pub fn predict(&self, alloc: PowerAllocation) -> f64 {
        self.proc_factor(alloc.proc).min(self.mem_factor(alloc.mem))
    }

    /// The model's argmax over splits of a budget (closed-form scan; no
    /// solver calls) — what a scheduler can compute at enqueue time.
    pub fn best_split(&self, budget: Watts, step: Watts) -> PowerAllocation {
        let mut best = PowerAllocation::split(budget, 0.5);
        let mut best_perf = f64::NEG_INFINITY;
        let mut proc = self.criticals.cpu_l4;
        while proc <= budget {
            let alloc = PowerAllocation::new(proc, budget - proc);
            let perf = self.predict(alloc);
            if perf > best_perf {
                best_perf = perf;
                best = alloc;
            }
            proc += step;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::oracle;
    use crate::problem::PowerBoundedProblem;
    use crate::sweep::{sweep_budget, DEFAULT_STEP};
    use pbc_platform::presets::ivybridge;
    use pbc_workloads::by_name;

    fn model(bench: &str) -> (PiecewiseModel, pbc_platform::Platform) {
        let platform = ivybridge();
        let c = CriticalPowers::probe(
            platform.cpu().unwrap(),
            platform.dram().unwrap(),
            &by_name(bench).unwrap().demand,
        );
        (PiecewiseModel::from_criticals(&c, 0.48, 0.125), platform)
    }

    #[test]
    fn factors_are_monotone_and_bounded() {
        let (m, _) = model("sra");
        let mut last_p = 0.0;
        let mut last_m = 0.0;
        for w in (30..250).step_by(5) {
            let p = m.proc_factor(Watts::new(w as f64));
            let mm = m.mem_factor(Watts::new(w as f64));
            assert!((0.0..=1.0).contains(&p));
            assert!((0.0..=1.0).contains(&mm));
            assert!(p >= last_p - 1e-12);
            assert!(mm >= last_m - 1e-12);
            last_p = p;
            last_m = mm;
        }
        assert_eq!(last_p, 1.0);
        assert_eq!(last_m, 1.0);
    }

    #[test]
    fn proc_weight_orders_by_intensity() {
        let (dgemm, _) = model("dgemm");
        let (stream, _) = model("stream");
        assert!(
            dgemm.proc_weight > stream.proc_weight,
            "{} vs {}",
            dgemm.proc_weight,
            stream.proc_weight
        );
    }

    #[test]
    fn predictions_rank_allocations_like_the_solver() {
        // The model is a shape model: its *ranking* of allocations along a
        // sweep must correlate strongly with the solver's. Spearman-like
        // check: count pairwise order inversions.
        for bench in ["sra", "stream", "dgemm"] {
            let (m, platform) = model(bench);
            let problem = PowerBoundedProblem::new(
                platform,
                by_name(bench).unwrap().demand,
                Watts::new(208.0),
            )
            .unwrap();
            let profile = sweep_budget(&problem, DEFAULT_STEP).unwrap();
            let pairs: Vec<(f64, f64)> = profile
                .points
                .iter()
                .map(|pt| (m.predict(pt.alloc), pt.op.perf_rel))
                .collect();
            let mut concordant = 0usize;
            let mut discordant = 0usize;
            for i in 0..pairs.len() {
                for j in i + 1..pairs.len() {
                    let d_model = pairs[i].0 - pairs[j].0;
                    let d_real = pairs[i].1 - pairs[j].1;
                    if d_model * d_real > 0.0 {
                        concordant += 1;
                    } else if d_model * d_real < 0.0 {
                        discordant += 1;
                    }
                }
            }
            let tau = (concordant as f64 - discordant as f64)
                / (concordant + discordant).max(1) as f64;
            assert!(tau > 0.75, "{bench}: rank correlation {tau}");
        }
    }

    #[test]
    fn model_argmax_is_near_the_oracle() {
        for bench in ["sra", "stream", "dgemm", "mg"] {
            let (m, platform) = model(bench);
            let best = m.best_split(Watts::new(208.0), Watts::new(2.0));
            let problem = PowerBoundedProblem::new(
                platform.clone(),
                by_name(bench).unwrap().demand,
                Watts::new(208.0),
            )
            .unwrap();
            let oracle_pt = oracle(&problem, DEFAULT_STEP).unwrap();
            let model_perf = pbc_powersim::solve(
                &problem.platform,
                &problem.workload,
                best,
            )
            .unwrap()
            .perf_rel;
            assert!(
                model_perf >= 0.85 * oracle_pt.op.perf_rel,
                "{bench}: model pick {} ({best}) vs oracle {} ({})",
                model_perf,
                oracle_pt.op.perf_rel,
                oracle_pt.alloc
            );
        }
    }

    #[test]
    fn prediction_never_needs_a_solver() {
        // Smoke: predict is pure arithmetic (this is the enqueue-time
        // use case). 10k predictions should be effectively instant.
        let (m, _) = model("cg");
        let mut acc = 0.0;
        for i in 0..10_000 {
            let f = (i % 100) as f64 / 100.0;
            acc += m.predict(PowerAllocation::split(Watts::new(208.0), f));
        }
        assert!(acc > 0.0);
    }
}
