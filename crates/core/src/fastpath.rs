//! The steady-state fast path: serving allocations in well under a
//! microsecond once a `(hardware, workload-class)` pair has been
//! profiled.
//!
//! The paper's COORD reacts to budget changes (§5, and its stated
//! future work on online dynamic budgeting), but a full oracle re-solve
//! costs microseconds per budget — three orders of magnitude more than
//! a memo hit. [`CurveTable`] closes that gap: a precomputed
//! `perf_max ~ P_b` interpolation table per `(platform, demand)`, built
//! once via the shared-grid oracle and served *lock-free*: holders keep
//! an immutable `Arc<CurveTable>` and never touch a mutex on the read
//! path. The table also stores the oracle's best *allocation* per rung,
//! so `OnlineCoordinator::set_budget`, serve sessions and the cluster
//! water-filler all answer "what do I apply at budget `b`?" without a
//! solver in the loop. Served allocations are counted under
//! `fastpath.table_hits`, builds under `fastpath.table_rebuilds`.
//!
//! The table is the one serving path. The exact optimum at an arbitrary
//! budget is the oracle's: [`sweep_curve`](crate::sweep_curve) over the
//! budgets in question, as `pbc fastpath` does for its oracle column.
//!
//! Measured on a CI-class container (see `docs/PERFORMANCE.md`), the
//! table path serves an allocation in tens of nanoseconds against a
//! ~2.5 µs cold solve — the `scripts/check.sh` gate holds the ratio at
//! ≥ 10×.

use crate::critical::peak_demand;
use crate::problem::PowerBoundedProblem;
use crate::sweep::{sweep_curve_with_pool, DEFAULT_STEP};
use pbc_par::Pool;
use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::WorkloadDemand;
use pbc_trace::names;
use pbc_types::{PbcError, PowerAllocation, Result, Watts};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Budget spacing of the interpolation-table samples. Coarser than the
/// 4 W sweep grid — the table ranks marginal gains and serves per-rung
/// optima, it does not have to resolve every sweep step.
pub const TABLE_STEP: Watts = Watts::new(8.0);

/// The smallest node budget this class can run on: the platform's
/// hardware minimum ([`Platform::min_node_power`]). On hosts that is
/// COORD's regime-D boundary `P_cpu,L4 + P_mem,L3`, whose two terms are
/// application-independent; on GPUs it is raised to the minimum
/// settable card cap. The workload does not move it, so `_demand` is
/// unused. A share at or above this floor is guaranteed to coordinate
/// and solve.
#[must_use]
pub fn node_floor(platform: &Platform, _demand: &WorkloadDemand) -> Watts {
    let floor = platform.min_node_power();
    match &platform.spec {
        NodeSpec::Cpu { .. } => floor,
        NodeSpec::Gpu(g) => floor.max(g.min_card_cap),
    }
}

/// The budget past which this class stops gaining: full component demand
/// on hosts (`P_cpu,L1 + P_mem,L1`, the sum
/// [`CriticalPowers::max_demand`](crate::CriticalPowers::max_demand)
/// reports, without the probe's L2/L3 walks), the maximum settable card
/// cap on GPUs. Watts granted past the ceiling are stranded (§2.1 RQ4's
/// "acceptable band" upper edge).
#[must_use]
pub fn node_ceiling(platform: &Platform, demand: &WorkloadDemand) -> Watts {
    match &platform.spec {
        NodeSpec::Cpu { cpu, dram } => {
            let (cpu_l1, mem_l1) = peak_demand(cpu, dram, demand);
            cpu_l1 + mem_l1
        }
        NodeSpec::Gpu(g) => g.max_card_cap,
    }
}

/// A precomputed, immutable `perf_max ~ P_b` table for one
/// `(platform, workload-class)` pair: oracle performance *and* the
/// oracle's best allocation, sampled on a regular budget ladder from
/// the class floor to its saturation ceiling, linearly interpolated
/// between rungs.
///
/// The samples come from one shared-grid oracle pass
/// ([`sweep_curve_with_pool`](crate::sweep_curve_with_pool)), which
/// solves each canonical solver key once, so they are
/// bit-identical regardless of thread count — which is what makes
/// table-served decisions replayable. §3.1 shows `perf_max ~ P_b` is
/// monotone non-decreasing and concave-ish, so linear interpolation
/// preserves exactly the marginal-gain structure water-filling needs,
/// and the interpolation error at any off-grid budget is bounded by the
/// adjacent rungs' gap (asserted by the fast-path equivalence tests).
#[derive(Debug, Clone, PartialEq)]
pub struct CurveTable {
    /// Budget of the first sample (the class floor).
    pub floor: Watts,
    /// Spacing between samples.
    pub step: Watts,
    /// `perf[k]` = oracle `perf_max` at `floor + k * step`.
    pub perf: Vec<f64>,
    /// `allocs[k]` = the oracle's best allocation at rung `k` (`None`
    /// when that rung's budget is not schedulable at all).
    pub allocs: Vec<Option<PowerAllocation>>,
}

/// The process-wide shared tables, keyed by an exact fingerprint of the
/// class (the debug rendering of the full platform and demand — verbose,
/// but collision-free). Every caller names a class by a preset platform
/// and a catalog benchmark it targets, so the map holds at most the 34
/// Table-3 classes. No holder panics mid-update, so a poisoned lock
/// still guards a consistent map.
fn tables() -> MutexGuard<'static, HashMap<String, Arc<CurveTable>>> {
    static TABLES: OnceLock<Mutex<HashMap<String, Arc<CurveTable>>>> = OnceLock::new();
    TABLES.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

impl CurveTable {
    /// Profile a class on the global pool.
    #[must_use = "the table result carries either the samples or the solver failure"]
    pub fn profile(platform: &Platform, demand: &WorkloadDemand) -> Result<CurveTable> {
        Self::profile_with_pool(platform, demand, Pool::global())
    }

    /// Profile a class on an explicit pool (the determinism property
    /// tests pin the executor count; production code wants
    /// [`CurveTable::profile`]).
    #[must_use = "the table result carries either the samples or the solver failure"]
    pub fn profile_with_pool(
        platform: &Platform,
        demand: &WorkloadDemand,
        pool: &Pool,
    ) -> Result<CurveTable> {
        pbc_trace::counter(names::FASTPATH_TABLE_REBUILDS).incr();
        let floor = node_floor(platform, demand);
        let ceiling = node_ceiling(platform, demand).max(floor + TABLE_STEP);
        let mut ladder = Vec::new();
        let mut b = floor;
        while b < ceiling {
            ladder.push(b);
            b = b + TABLE_STEP;
        }
        ladder.push(ceiling);
        let problem = PowerBoundedProblem::new(platform.clone(), demand.clone(), ladder[0])?;
        let profiles = sweep_curve_with_pool(&problem, &ladder, DEFAULT_STEP, pool)?;
        // An empty profile means the budget is not schedulable (GPU
        // budgets below the settable cap range); `perf_max()` reports it
        // as 0.0, which is exactly the marginal signal water-filling
        // wants, and the rung carries no servable allocation.
        let perf: Vec<f64> = profiles.iter().map(|p| p.perf_max()).collect();
        let allocs: Vec<Option<PowerAllocation>> =
            profiles.iter().map(|p| p.best().map(|pt| pt.alloc)).collect();
        if perf.iter().any(|v| !v.is_finite()) {
            return Err(PbcError::InvalidInput(format!(
                "non-finite perf sample while profiling {}",
                platform.id
            )));
        }
        Ok(CurveTable { floor, step: TABLE_STEP, perf, allocs })
    }

    /// The shared table for a class, built on first use and then served
    /// from the process-wide map. The build runs outside the lock (it is
    /// a pooled sweep); when two callers build one class at once, the
    /// first insert wins and both get its handle. A failed build is not
    /// kept. The returned `Arc` is immutable and lock-free to read; hold
    /// it for the steady state and the map is never touched again.
    #[must_use = "the table result carries either the shared handle or the build failure"]
    pub fn shared(platform: &Platform, demand: &WorkloadDemand) -> Result<Arc<CurveTable>> {
        let key = format!("table|{platform:?}|{demand:?}");
        if let Some(table) = tables().get(&key) {
            return Ok(Arc::clone(table));
        }
        let built = Arc::new(Self::profile(platform, demand)?);
        Ok(Arc::clone(tables().entry(key).or_insert(built)))
    }

    /// Drop every shared table (benches use this to measure cold
    /// builds; live `Arc` holders are unaffected).
    pub fn clear_shared() {
        tables().clear();
    }

    /// The last sampled budget; grants past it gain nothing.
    #[must_use]
    pub fn ceiling(&self) -> Watts {
        // The final rung is pinned to the class ceiling, which is not in
        // general a whole number of steps past the floor; the index
        // arithmetic below saturates there, so reporting the regular
        // grid position keeps `perf_at` and `ceiling` consistent.
        self.floor + self.step * (self.perf.len().saturating_sub(1) as f64)
    }

    /// Interpolated oracle performance at budget `b`: 0 below the floor
    /// (the class cannot run), clamped flat past the ceiling (stranded
    /// watts gain nothing).
    #[must_use]
    pub fn perf_at(&self, b: Watts) -> f64 {
        if self.perf.is_empty() || b < self.floor {
            return 0.0;
        }
        let offset = (b - self.floor).value() / self.step.value();
        let k = offset.floor() as usize;
        // Saturating: past ~1.5e20 W the cast pins `k` at `usize::MAX`.
        if k.saturating_add(1) >= self.perf.len() {
            return *self.perf.last().unwrap_or(&0.0);
        }
        let frac = offset - k as f64;
        self.perf[k] + (self.perf[k + 1] - self.perf[k]) * frac
    }

    /// The allocation to apply at budget `b`, served straight off the
    /// table: the oracle optimum of the highest rung whose budget does
    /// not exceed `b` (so the served allocation always respects `b`).
    /// `None` below the floor or on unschedulable rungs. This is the
    /// sub-microsecond path `set_budget` rides in steady state; each
    /// served allocation counts under `fastpath.table_hits`.
    #[must_use]
    pub fn alloc_at(&self, b: Watts) -> Option<PowerAllocation> {
        if self.allocs.is_empty() || b < self.floor {
            return None;
        }
        let offset = (b - self.floor).value() / self.step.value();
        // Rung k's budget is `floor + k*step <= b` by construction; the
        // clamped top rung only serves when `b` is at or past the class
        // ceiling, whose optimum draws no more than the ceiling itself.
        let k = (offset.floor() as usize).min(self.allocs.len() - 1);
        let served = self.allocs[k];
        if served.is_some() {
            pbc_trace::cached_counter!(names::FASTPATH_TABLE_HITS).incr();
        }
        served
    }

    /// The marginal performance of granting `grant` more watts to a node
    /// currently holding `share` — the quantity the water-filling pass
    /// maximizes per quantum.
    #[must_use]
    pub fn marginal_gain(&self, share: Watts, grant: Watts) -> f64 {
        self.perf_at(share + grant) - self.perf_at(share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_budget;
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_workloads::by_name;

    #[test]
    fn table_serves_budget_respecting_allocations() {
        let p = ivybridge();
        let d = by_name("stream").unwrap().demand;
        let table = CurveTable::profile(&p, &d).unwrap();
        let mut served = 0;
        let mut b = table.floor;
        while b <= table.ceiling() + Watts::new(16.0) {
            if let Some(alloc) = table.alloc_at(b) {
                served += 1;
                assert!(
                    alloc.total().value() <= b.value() + 1e-9,
                    "served {alloc} exceeds budget {b}"
                );
            }
            b = b + Watts::new(3.0); // deliberately off-grid
        }
        assert!(served > 10, "the table should serve most of its range");
        assert_eq!(table.alloc_at(table.floor - Watts::new(1.0)), None);
    }

    #[test]
    fn table_rung_allocations_are_the_oracle_optima() {
        let p = ivybridge();
        let d = by_name("sra").unwrap().demand;
        let table = CurveTable::profile(&p, &d).unwrap();
        // Spot-check an interior rung: the stored allocation must be the
        // cold sweep's best for that rung budget, bit for bit.
        let k = table.allocs.len() / 2;
        let rung_budget = table.floor + table.step * (k as f64);
        let problem = PowerBoundedProblem::new(p, d, rung_budget).unwrap();
        let cold = sweep_budget(&problem, DEFAULT_STEP).unwrap();
        let cold_best = cold.best().unwrap();
        let stored = table.allocs[k].unwrap();
        assert_eq!(stored.proc.value().to_bits(), cold_best.alloc.proc.value().to_bits());
        assert_eq!(stored.mem.value().to_bits(), cold_best.alloc.mem.value().to_bits());
        assert_eq!(table.perf[k].to_bits(), cold_best.op.perf_rel.to_bits());
    }

    #[test]
    fn shared_tables_are_one_handle_and_clearable() {
        let p = ivybridge();
        let (dgemm, stream) = (by_name("dgemm").unwrap().demand, by_name("stream").unwrap().demand);
        let a = CurveTable::shared(&p, &dgemm).unwrap();
        let b = CurveTable::shared(&p, &dgemm).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one class, one handle");
        let other = CurveTable::shared(&p, &stream).unwrap();
        assert!(!Arc::ptr_eq(&a, &other), "each class its own handle");
        CurveTable::clear_shared();
        assert_eq!(Arc::strong_count(&a), 2, "the clear drops the map's handle, not the holders'");
        let c = CurveTable::shared(&p, &dgemm).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "a cleared map must rebuild");
        assert_eq!(*a, *c, "a rebuilt table must be identical");
    }

    #[test]
    fn cpu_curve_is_monotone_and_saturates() {
        let p = ivybridge();
        let d = by_name("stream").unwrap().demand;
        let curve = CurveTable::profile(&p, &d).unwrap();
        assert!(curve.floor >= p.min_node_power());
        for w in curve.perf.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "perf_max must be non-decreasing");
        }
        // Past the ceiling the curve is flat, however far past: a budget
        // whose rung index saturates `usize` still reads the last sample.
        let top = curve.perf_at(curve.ceiling());
        assert!((curve.perf_at(curve.ceiling() + Watts::new(100.0)) - top).abs() < 1e-12);
        let last = curve.perf.last().unwrap().to_bits();
        for b in [2e20, 1e308, f64::INFINITY] {
            assert_eq!(curve.perf_at(Watts::new(b)).to_bits(), last, "{b} W");
        }
        // Below the floor the class cannot run.
        assert_eq!(curve.perf_at(curve.floor - Watts::new(1.0)).to_bits(), 0f64.to_bits());
    }

    #[test]
    fn interpolation_brackets_the_samples() {
        let p = ivybridge();
        let d = by_name("dgemm").unwrap().demand;
        let curve = CurveTable::profile(&p, &d).unwrap();
        let mid = curve.floor + curve.step * 0.5;
        let lo = curve.perf[0];
        let hi = curve.perf[1];
        let v = curve.perf_at(mid);
        assert!(v >= lo.min(hi) - 1e-12 && v <= lo.max(hi) + 1e-12);
    }

    #[test]
    fn gpu_floor_respects_the_card_minimum() {
        let p = titan_xp();
        let d = by_name("sgemm").unwrap().demand;
        let floor = node_floor(&p, &d);
        assert!(floor >= p.gpu().unwrap().min_card_cap);
        let curve = CurveTable::profile(&p, &d).unwrap();
        assert!(curve.perf_at(curve.ceiling()) > 0.0);
    }

    /// The floor and ceiling skip the probe but read what it would: on
    /// every Table-3 curve, bit for bit, the host floor is the platform
    /// minimum raised to the probe's `P_cpu,L4 + P_mem,L3` and the host
    /// ceiling is the probe's `max_demand`; the card floor is the card
    /// minimum raised to its lowest settable cap. Probing a class twice
    /// returns the same values.
    #[test]
    fn floor_and_ceiling_agree_with_the_probe_on_every_table3_curve() {
        use crate::critical::CriticalPowers;
        use pbc_platform::presets::{haswell, titan_v};
        let bits = |c: &CriticalPowers| {
            [c.cpu_l1, c.cpu_l2, c.cpu_l3, c.cpu_l4, c.mem_l1, c.mem_l2, c.mem_l3]
                .map(|w| w.value().to_bits())
        };
        let mut curves = 0;
        for p in [ivybridge(), haswell(), titan_xp(), titan_v()] {
            let suite =
                if p.is_gpu() { pbc_workloads::gpu_suite() } else { pbc_workloads::cpu_suite() };
            for bench in suite {
                let d = &bench.demand;
                let at = format!("{} on {}", bench.id, p.id);
                let floor = node_floor(&p, d).value().to_bits();
                match &p.spec {
                    NodeSpec::Cpu { cpu, dram } => {
                        let c = CriticalPowers::probe(cpu, dram, d);
                        let probed = p.min_node_power().max(c.cpu_l4 + c.mem_l3);
                        assert_eq!(floor, probed.value().to_bits(), "floor, {at}");
                        let ceiling = node_ceiling(&p, d).value().to_bits();
                        assert_eq!(ceiling, c.max_demand().value().to_bits(), "ceiling, {at}");
                        let again = CriticalPowers::probe(cpu, dram, d);
                        assert_eq!(bits(&again), bits(&c), "second probe, {at}");
                    }
                    NodeSpec::Gpu(g) => {
                        let card = g.min_power().max(g.min_card_cap);
                        assert_eq!(floor, card.value().to_bits(), "floor, {at}");
                    }
                }
                curves += 1;
            }
        }
        assert_eq!(curves, 34, "the Table-3 curves");
    }

    #[test]
    fn marginal_gain_shrinks_toward_the_ceiling() {
        let p = ivybridge();
        let d = by_name("stream").unwrap().demand;
        let curve = CurveTable::profile(&p, &d).unwrap();
        // Wide enough to step over stream's flat first rung at the floor.
        let grant = Watts::new(24.0);
        let steep = curve.marginal_gain(curve.floor, grant);
        let flat = curve.marginal_gain(curve.ceiling(), grant);
        assert!(steep > flat, "gain at the floor {steep} must beat gain at the ceiling {flat}");
        assert!(flat.abs() < 1e-9);
    }

    /// The fleet water-filler partitions on this same table, so a share
    /// it grants can be served as component caps straight off the
    /// profile the partitioner already holds.
    #[test]
    fn water_fill_shares_are_servable_as_allocations() {
        let p = ivybridge();
        let d = by_name("sra").unwrap().demand;
        let curve = CurveTable::profile(&p, &d).unwrap();
        let share = curve.floor + Watts::new(30.0);
        let alloc = curve.alloc_at(share).expect("in-range share must serve");
        assert!(alloc.total().value() <= share.value() + 1e-9);
    }
}
