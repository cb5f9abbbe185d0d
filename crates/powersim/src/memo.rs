//! Memoized solving: a canonical-key cache over [`solve_cpu`] /
//! [`solve_gpu`] for callers that solve many allocations of the same
//! `(platform, demand)` problem — critical-power boundary walks and the
//! analysis tables. A memo is an owned value: its caller builds one
//! ([`SolveMemo::fresh`], [`SolveMemo::for_cpu`], [`SolveMemo::for_gpu`])
//! for the solves it makes and drops it with them. Nothing is cached per
//! process, so no caller pays to find a memo, and no cache outlives the
//! work that filled it. The shared-grid oracle
//! (`pbc_core::sweep_curve`) uses the same canonical keys without the
//! cache: it keys every grid point itself ([`SolveMemo::key`]), solves
//! each key once ([`SolveMemo::solve_uncached`]) and patches the result
//! onto the other points ([`SolveMemo::reuse`]). The fleet coordinator
//! keeps its own price per (class, share) pair and reaches a memo only
//! for its precomputed nominal time, through
//! [`SolveMemo::solve_uncached`].
//!
//! ## Why the keys are exact, not approximate
//!
//! A naive memo would quantize the allocation to a fixed grid and accept
//! near-miss lookups; that trades accuracy for hits and would break the
//! repo's bit-identical equivalence tests. Instead the key is the tuple
//! of values the solver *actually* depends on, exploiting the hardware
//! models' own quantization:
//!
//! * **CPU** — `alloc.mem` enters the solver only through
//!   [`dram_bw_ceiling`], which quantizes the cap down to the DRAM
//!   throttle grid (and floors/saturates it); `alloc.proc` enters only
//!   as the RAPL comparison cap. The key is therefore
//!   `(proc-cap bits, per-phase bandwidth-ceiling bits)`: two
//!   allocations with equal keys are *provably* solved to the same
//!   operating point, and distinct solver inputs always get distinct
//!   keys. On a hit only `alloc` itself is patched onto the cached
//!   point.
//! * **GPU** — the solver depends on `(effective card cap, memory clock
//!   level, and — only on non-reclaiming cards — the SM share)`. Within
//!   one budget's sweep every allocation shares the card cap, so a
//!   reclaiming card collapses to roughly one solve per exposed memory
//!   level. On a hit `alloc` and the derived `reclaimed` watts are
//!   recomputed exactly as the solver would.
//!
//! The nominal (unconstrained) reference time depends only on the
//! problem, never the allocation, so each memo computes it once — this
//! alone halves the CPU solver's cost even at a 0% hit rate.
//!
//! Hits and misses are observable as `solve.cache_hits` /
//! `solve.cache_misses`. Memoized misses call the split solver entry
//! points directly and are *not* counted in `solve.evaluations`, which
//! keeps that counter an honest measure of full-price solver work.

use crate::cpunode::{self, dram_bw_ceiling, solve_cpu_with_nominal};
use crate::demand::WorkloadDemand;
use crate::gpunode::{self, check_card_cap, solve_gpu_with_nominal};
use crate::operating::{MechanismState, NodeOperatingPoint};
use pbc_platform::{CpuSpec, DramSpec, GpuSpec, NodeSpec, Platform};
use pbc_types::{PowerAllocation, Result, Watts};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Poison-tolerant lock: a panicking holder must not wedge every later
/// caller (the sweep's panic contract re-raises on the calling thread,
/// and a cache insert leaves the map consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A canonical solve key: exactly the solver's effective inputs for one
/// allocation of a memo's problem (see the module docs). Two allocations
/// with equal keys solve to the same operating point, up to the fields
/// [`SolveMemo::reuse`] patches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolveKey(Key);

impl SolveKey {
    /// The memory clock level, for a key that leaves the processor cap
    /// out (a reclaiming card's); `None` when the processor cap is part
    /// of the key. The shared-grid oracle groups keys by processor cap,
    /// or by this level where the cap is absent.
    #[must_use]
    pub fn level_without_proc(&self) -> Option<usize> {
        match self.0 {
            Key::Gpu { mem_level, sm_bits: None, .. } => Some(mem_level),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Cpu {
        proc_bits: u64,
        /// Per-phase quantized bandwidth ceilings (f64 bit patterns).
        bw_bits: Vec<u64>,
    },
    Gpu {
        card_cap_bits: u64,
        mem_level: usize,
        /// SM-share bit pattern on non-reclaiming cards; `None` on
        /// reclaiming cards, where the SM share never enters the solve.
        sm_bits: Option<u64>,
    },
}

enum Bound {
    Cpu { cpu: CpuSpec, dram: DramSpec },
    Gpu(GpuSpec),
}

/// A memoized solver for one `(platform, demand)` problem. Thread-safe:
/// one memo may serve every pool executor.
pub struct SolveMemo {
    bound: Bound,
    demand: WorkloadDemand,
    nominal: OnceLock<f64>,
    cache: Mutex<HashMap<SolveKey, NodeOperatingPoint>>,
}

impl SolveMemo {
    /// A new, empty memo for a host-node problem.
    #[must_use]
    pub fn for_cpu(cpu: &CpuSpec, dram: &DramSpec, demand: &WorkloadDemand) -> SolveMemo {
        Self::new(Bound::Cpu { cpu: cpu.clone(), dram: dram.clone() }, demand)
    }

    /// A new, empty memo for a GPU-card problem.
    #[must_use]
    pub fn for_gpu(gpu: &GpuSpec, demand: &WorkloadDemand) -> SolveMemo {
        Self::new(Bound::Gpu(gpu.clone()), demand)
    }

    /// A new, empty memo for any platform kind (dispatches like
    /// [`crate::solve`]).
    #[must_use]
    pub fn fresh(platform: &Platform, demand: &WorkloadDemand) -> SolveMemo {
        match &platform.spec {
            NodeSpec::Cpu { cpu, dram } => Self::for_cpu(cpu, dram, demand),
            NodeSpec::Gpu(gpu) => Self::for_gpu(gpu, demand),
        }
    }

    fn new(bound: Bound, demand: &WorkloadDemand) -> SolveMemo {
        SolveMemo {
            bound,
            demand: demand.clone(),
            nominal: OnceLock::new(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Does nothing: every memo is owned by its caller, so there is no
    /// process-wide cache to drop. Kept for callers written when memos
    /// were shared per process.
    pub fn clear_shared() {}

    /// Cached entries in this memo.
    pub fn len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Solve `alloc`, through the cache. Results are bit-identical to
    /// the un-memoized solver (see the module docs for why).
    #[must_use = "the operating point or the solver failure must be inspected"]
    pub fn solve(&self, alloc: PowerAllocation) -> Result<NodeOperatingPoint> {
        self.solve_traced(alloc).0
    }

    /// [`SolveMemo::solve`], also reporting whether the cache served the
    /// result (`true` = hit).
    #[must_use = "the operating point or the solver failure must be inspected"]
    pub fn solve_traced(&self, alloc: PowerAllocation) -> (Result<NodeOperatingPoint>, bool) {
        static COUNTERS: OnceLock<(pbc_trace::Counter, pbc_trace::Counter)> = OnceLock::new();
        let (hits_c, misses_c) = COUNTERS.get_or_init(|| {
            (
                pbc_trace::counter(pbc_trace::names::SOLVE_CACHE_HITS),
                pbc_trace::counter(pbc_trace::names::SOLVE_CACHE_MISSES),
            )
        });
        // Infeasible caps are rejected per call, not cached: rejection is
        // already cheaper than a cache probe.
        let key = match self.key(alloc) {
            Ok(key) => key,
            Err(e) => return (Err(e), false),
        };
        if let Some(cached) = lock(&self.cache).get(&key) {
            hits_c.incr();
            return (Ok(self.reuse(cached, alloc)), true);
        }
        misses_c.incr();
        let result = self.solve_uncached(alloc);
        if let Ok(op) = &result {
            lock(&self.cache).insert(key, *op);
        }
        (result, false)
    }

    /// The canonical key of `alloc`, or the rejection the solver would
    /// return for it before solving anything (a card cap below the
    /// card's minimum).
    #[must_use = "the key or the rejection must be inspected"]
    pub fn key(&self, alloc: PowerAllocation) -> Result<SolveKey> {
        Ok(SolveKey(match &self.bound {
            Bound::Cpu { dram, .. } => {
                // A plain loop: keying runs on the sweep's calling thread
                // for every grid point, unoptimized builds included.
                let mut bw_bits = Vec::with_capacity(self.demand.phases.len());
                for (_, p) in &self.demand.phases {
                    bw_bits.push(dram_bw_ceiling(dram, alloc.mem, p.pattern_cost).value().to_bits());
                }
                Key::Cpu { proc_bits: alloc.proc.value().to_bits(), bw_bits }
            }
            Bound::Gpu(gpu) => Key::Gpu {
                card_cap_bits: check_card_cap(gpu, alloc)?.value().to_bits(),
                mem_level: gpu.mem.level_under_cap(alloc.mem),
                sm_bits: if gpu.reclaims_unused {
                    None
                } else {
                    Some(alloc.proc.value().to_bits())
                },
            },
        }))
    }

    /// Solve `alloc` at full price, bypassing the cache: what a miss
    /// runs. The nominal reference time is computed once per memo.
    #[must_use = "the operating point or the solver failure must be inspected"]
    pub fn solve_uncached(&self, alloc: PowerAllocation) -> Result<NodeOperatingPoint> {
        match &self.bound {
            Bound::Cpu { cpu, dram } => {
                let t_nominal =
                    *self.nominal.get_or_init(|| cpunode::nominal_time(cpu, dram, &self.demand));
                Ok(solve_cpu_with_nominal(cpu, dram, &self.demand, alloc, t_nominal))
            }
            Bound::Gpu(gpu) => {
                let t_nom =
                    *self.nominal.get_or_init(|| gpunode::nominal_time_gpu(gpu, &self.demand));
                solve_gpu_with_nominal(gpu, &self.demand, alloc, t_nom)
            }
        }
    }

    /// The operating point of `alloc`, from `solved`, the point of an
    /// allocation with the same key: what a hit returns. Only `alloc`
    /// and, on a GPU, the derived `reclaimed` watts differ, and both are
    /// recomputed exactly as the solver computes them.
    #[must_use]
    pub fn reuse(&self, solved: &NodeOperatingPoint, alloc: PowerAllocation) -> NodeOperatingPoint {
        let mut op = *solved;
        op.alloc = alloc;
        if let (Bound::Gpu(gpu), MechanismState::Gpu(st)) = (&self.bound, &mut op.mechanism) {
            st.reclaimed = if gpu.reclaims_unused {
                (op.proc_power - alloc.proc).max(Watts::ZERO)
            } else {
                Watts::ZERO
            };
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseDemand;
    use crate::solve;
    use pbc_platform::presets::{haswell, ivybridge, titan_xp};
    use pbc_types::Watts;

    fn cpu_demands() -> Vec<WorkloadDemand> {
        vec![
            WorkloadDemand::single("sra-like", PhaseDemand::random_bound()),
            WorkloadDemand::single("stream-like", PhaseDemand::stream_bound()),
            WorkloadDemand::single("dgemm-like", PhaseDemand::compute_bound()),
            WorkloadDemand::phased(
                "mixed",
                vec![
                    (0.7, PhaseDemand::compute_bound()),
                    (0.3, PhaseDemand::stream_bound()),
                ],
            ),
        ]
    }

    fn sgemm_like() -> WorkloadDemand {
        WorkloadDemand::single(
            "sgemm-like",
            PhaseDemand {
                compute_efficiency: 0.85,
                arithmetic_intensity: 40.0,
                bw_saturation: 0.5,
                pattern_cost: 1.0,
                overlap: 0.95,
                issue_sensitivity: 0.3,
                act_compute: 1.0,
                act_stall: 0.3,
            },
        )
    }

    fn gpu_stream_like() -> WorkloadDemand {
        WorkloadDemand::single(
            "gpu-stream-like",
            PhaseDemand {
                compute_efficiency: 0.12,
                arithmetic_intensity: 0.08,
                bw_saturation: 0.95,
                pattern_cost: 1.0,
                overlap: 0.9,
                issue_sensitivity: 0.5,
                act_compute: 0.7,
                act_stall: 0.3,
            },
        )
    }

    fn op_bits(op: &NodeOperatingPoint) -> Vec<u64> {
        vec![
            op.alloc.proc.value().to_bits(),
            op.alloc.mem.value().to_bits(),
            op.perf_rel.to_bits(),
            op.proc_power.value().to_bits(),
            op.mem_power.value().to_bits(),
            op.work_rate.to_bits(),
            op.bandwidth.value().to_bits(),
            op.proc_busy.to_bits(),
        ]
    }

    #[test]
    fn cpu_memo_matches_direct_solver_bit_for_bit() {
        for platform in [ivybridge(), haswell()] {
            for demand in cpu_demands() {
                let memo = SolveMemo::fresh(&platform, &demand);
                for proc in (60..=200).step_by(7) {
                    for mem in (40..=160).step_by(11) {
                        let alloc = PowerAllocation::new(
                            Watts::new(proc as f64),
                            Watts::new(mem as f64),
                        );
                        let direct = solve(&platform, &demand, alloc).unwrap();
                        let memoed = memo.solve(alloc).unwrap();
                        assert_eq!(
                            op_bits(&direct),
                            op_bits(&memoed),
                            "{} {alloc:?}",
                            demand.name
                        );
                        assert_eq!(direct.mechanism, memoed.mechanism);
                    }
                }
                // The throttle grid decides how much the mem axis
                // collapses; the hard guarantee is only that the cache
                // never exceeds the distinct solver inputs.
                assert!(memo.len() <= 21 * 11, "{} cached", memo.len());
            }
        }
    }

    #[test]
    fn gpu_memo_matches_direct_solver_bit_for_bit() {
        let platform = titan_xp();
        for demand in [sgemm_like(), gpu_stream_like()] {
            let memo = SolveMemo::fresh(&platform, &demand);
            for total in [130.0, 140.0, 200.0, 250.0, 300.0] {
                for mem_frac in [0.1, 0.25, 0.4, 0.6] {
                    let mem = total * mem_frac;
                    let alloc = PowerAllocation::new(Watts::new(total - mem), Watts::new(mem));
                    let direct = solve(&platform, &demand, alloc).unwrap();
                    let memoed = memo.solve(alloc).unwrap();
                    assert_eq!(op_bits(&direct), op_bits(&memoed), "{} {alloc:?}", demand.name);
                    assert_eq!(direct.mechanism, memoed.mechanism);
                }
            }
        }
    }

    #[test]
    fn gpu_memo_rejects_infeasible_like_the_solver() {
        let platform = titan_xp();
        let demand = sgemm_like();
        let memo = SolveMemo::fresh(&platform, &demand);
        let alloc = PowerAllocation::new(Watts::new(40.0), Watts::new(30.0));
        let direct = solve(&platform, &demand, alloc).unwrap_err();
        let memoed = memo.solve(alloc).unwrap_err();
        assert_eq!(direct, memoed);
        assert!(memo.is_empty(), "errors must not be cached");
    }

    #[test]
    fn second_solve_is_a_hit() {
        let platform = ivybridge();
        let demand = WorkloadDemand::single("sra-like", PhaseDemand::random_bound());
        let memo = SolveMemo::fresh(&platform, &demand);
        let alloc = PowerAllocation::new(Watts::new(112.0), Watts::new(116.0));
        let (first, hit1) = memo.solve_traced(alloc);
        let (second, hit2) = memo.solve_traced(alloc);
        assert!(!hit1 && hit2);
        assert_eq!(
            op_bits(&first.unwrap()),
            op_bits(&second.unwrap()),
            "hit must be bit-identical to the miss"
        );
    }
}
