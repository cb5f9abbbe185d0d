//! Fleet specs: which nodes exist, what they run, and their profiled
//! coordination state.
//!
//! A fleet is described by a plain text spec, one node group per line:
//!
//! ```text
//! # count  platform   benchmark
//! 16 ivybridge stream
//! 8  haswell   dgemm
//! 4  titan-xp  sgemm
//! ```
//!
//! Nodes of the same `(platform, benchmark)` pair form one *class*:
//! they share a demand model, a floor, a COORD profile, and a
//! [`CurveTable`], so a 128-node fleet with six classes profiles six
//! curves, not 128. Per-class profiling goes through the shared-grid
//! oracle (one pooled sweep per class); per-node coordination later runs
//! once per distinct (class, share) pair, on the calling thread.

use pbc_core::{node_ceiling, node_floor, CriticalPowers, CurveTable, GpuCoordParams};
use pbc_par::Pool;
use pbc_platform::{presets, NodeSpec, Platform, PlatformId};
use pbc_powersim::WorkloadDemand;
use pbc_types::{PbcError, Result, Watts};
use pbc_workloads::{check_target, lookup};

/// One line of a fleet spec: `count` nodes of `platform` running
/// `bench`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecLine {
    /// How many identical nodes this line declares.
    pub count: usize,
    /// Platform slug (`pbc_platform::PlatformId::from_slug`).
    pub platform: String,
    /// Benchmark slug (`pbc_workloads::lookup`).
    pub bench: String,
}

/// Most nodes one fleet spec may declare (and most sessions one serve
/// `provision` may open): 64x the 1,024 nodes the serve and fleet
/// benchmarks run. A count past it is refused up front instead of
/// overflowing the node list.
pub const MAX_NODES: usize = 65_536;

/// Parse a fleet spec. Blank lines and `#` comments are skipped; each
/// remaining line is `[COUNT] PLATFORM BENCH` (COUNT defaults to 1).
/// The whole spec may declare at most [`MAX_NODES`] nodes.
#[must_use = "the parsed spec lines are the function's entire output"]
pub fn parse_spec(text: &str) -> Result<Vec<SpecLine>> {
    let mut lines = Vec::new();
    let mut total = 0usize;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (count, platform, bench) = match fields.as_slice() {
            [p, b] => (1usize, *p, *b),
            [c, p, b] => {
                let count = c.parse::<usize>().map_err(|e| {
                    PbcError::InvalidInput(format!("spec line {}: bad count {c:?}: {e}", ln + 1))
                })?;
                (count, *p, *b)
            }
            _ => {
                return Err(PbcError::InvalidInput(format!(
                    "spec line {}: expected `[COUNT] PLATFORM BENCH`, got {raw:?}",
                    ln + 1
                )))
            }
        };
        if count == 0 {
            return Err(PbcError::InvalidInput(format!(
                "spec line {}: a node group needs at least one node",
                ln + 1
            )));
        }
        total = total.saturating_add(count);
        if total > MAX_NODES {
            return Err(PbcError::InvalidInput(format!(
                "spec line {}: the fleet would exceed {MAX_NODES} nodes",
                ln + 1
            )));
        }
        lines.push(SpecLine {
            count,
            platform: platform.to_string(),
            bench: bench.to_string(),
        });
    }
    if lines.is_empty() {
        return Err(PbcError::InvalidInput(
            "fleet spec declares no nodes (every line blank or a comment)".into(),
        ));
    }
    Ok(lines)
}

/// The class's profiled COORD inputs, by platform kind.
#[derive(Debug, Clone)]
pub enum ClassCoord {
    /// Host nodes coordinate from the seven critical power values.
    Cpu(CriticalPowers),
    /// GPU nodes coordinate from the Algorithm-2 parameters.
    Gpu(GpuCoordParams),
}

/// One node class: a `(platform, benchmark)` pair with its profiled
/// coordination state, shared by every node of the class.
#[derive(Debug, Clone)]
pub struct NodeClass {
    /// The platform preset.
    pub platform: Platform,
    /// Benchmark slug (for display).
    pub bench: String,
    /// The workload's demand model.
    pub demand: WorkloadDemand,
    /// Minimum budget a node of this class can run on.
    pub floor: Watts,
    /// Budget past which extra watts are stranded.
    pub ceiling: Watts,
    /// COORD inputs (critical powers / Algorithm-2 parameters).
    pub coord: ClassCoord,
    /// Oracle `perf_max ~ P_b` curve.
    pub curve: CurveTable,
}

impl NodeClass {
    /// Run the paper's per-node COORD on a budget share, dispatching to
    /// Algorithm 1 (hosts) or Algorithm 2 (GPU cards) with the class's
    /// precomputed profile.
    #[must_use = "the coordination result carries either the allocation or the refusal"]
    pub fn coordinate(&self, budget: Watts) -> Result<pbc_core::CoordResult> {
        match (&self.coord, &self.platform.spec) {
            (ClassCoord::Cpu(c), _) => pbc_core::coord_cpu(budget, c),
            (ClassCoord::Gpu(p), NodeSpec::Gpu(g)) => pbc_core::coord_gpu(budget, g, p),
            (ClassCoord::Gpu(_), NodeSpec::Cpu { .. }) => Err(PbcError::InvalidInput(format!(
                "class {}/{} carries GPU coordination state on a CPU platform",
                self.platform.id, self.bench
            ))),
        }
    }
}

/// A profiled fleet: deduplicated classes plus the per-node class map.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The distinct `(platform, benchmark)` classes.
    pub classes: Vec<NodeClass>,
    /// `nodes[i]` is the class index of node `i`.
    pub nodes: Vec<usize>,
}

impl Fleet {
    /// Build a fleet on the global pool.
    #[must_use = "the fleet result carries either the profiled fleet or the failure"]
    pub fn build(spec: &[SpecLine]) -> Result<Fleet> {
        Self::build_with_pool(spec, Pool::global())
    }

    /// Build a fleet, profiling every class's curve on an explicit pool.
    /// Classes profile sequentially; each class's shared-grid sweep is
    /// internally pooled, so the curves are bit-identical across thread
    /// counts.
    #[must_use = "the fleet result carries either the profiled fleet or the failure"]
    pub fn build_with_pool(spec: &[SpecLine], pool: &Pool) -> Result<Fleet> {
        let mut classes: Vec<NodeClass> = Vec::new();
        let mut keys: Vec<(PlatformId, String)> = Vec::new();
        let mut nodes = Vec::new();
        for line in spec {
            let id = PlatformId::lookup(&line.platform).map_err(PbcError::NotFound)?;
            let bench = lookup(&line.bench).map_err(PbcError::NotFound)?;
            let platform = presets::by_id(id);
            check_target(&bench, &platform)?;
            let key = (id, line.bench.clone());
            let class = match keys.iter().position(|k| *k == key) {
                Some(ci) => ci,
                None => {
                    let demand = bench.demand.clone();
                    let coord = match &platform.spec {
                        NodeSpec::Cpu { cpu, dram } => {
                            ClassCoord::Cpu(CriticalPowers::probe(cpu, dram, &demand))
                        }
                        NodeSpec::Gpu(gpu) => ClassCoord::Gpu(GpuCoordParams::profile(gpu, &demand)?),
                    };
                    let curve = CurveTable::profile_with_pool(&platform, &demand, pool)?;
                    classes.push(NodeClass {
                        floor: node_floor(&platform, &demand),
                        ceiling: node_ceiling(&platform, &demand),
                        platform,
                        bench: line.bench.clone(),
                        demand,
                        coord,
                        curve,
                    });
                    keys.push(key);
                    classes.len() - 1
                }
            };
            nodes.extend(std::iter::repeat(class).take(line.count));
        }
        Ok(Fleet { classes, nodes })
    }

    /// Number of nodes in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the fleet has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The class of node `i`.
    #[must_use]
    pub fn class_of(&self, node: usize) -> &NodeClass {
        &self.classes[self.nodes[node]]
    }

    /// Sum of every node's floor — the smallest global budget the whole
    /// fleet can run on.
    #[must_use]
    pub fn min_total_power(&self) -> Watts {
        self.nodes
            .iter()
            .fold(Watts::ZERO, |acc, &c| acc + self.classes[c].floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counts_comments_and_defaults() {
        let spec = parse_spec(
            "# my fleet\n\
             16 ivybridge stream\n\
             \n\
             haswell dgemm   # one node, no count\n\
             2 titan-xp sgemm\n",
        )
        .unwrap();
        assert_eq!(spec.len(), 3);
        assert_eq!(spec[0].count, 16);
        assert_eq!(spec[1].count, 1);
        assert_eq!(spec[2].platform, "titan-xp");
    }

    #[test]
    fn rejects_garbage_specs() {
        assert!(parse_spec("").is_err());
        assert!(parse_spec("# only comments\n").is_err());
        assert!(parse_spec("nope ivybridge stream extra").is_err());
        assert!(parse_spec("0 ivybridge stream").is_err());
        assert!(parse_spec("x ivybridge stream").is_err());
        assert!(parse_spec("18446744073709551615 ivybridge stream").is_err());
        assert!(parse_spec("65536 ivybridge stream\n1 haswell dgemm").is_err());
        assert!(parse_spec("65536 ivybridge stream").is_ok());
    }

    #[test]
    fn build_dedupes_classes_and_validates_targets() {
        let spec = parse_spec("4 ivybridge stream\n2 ivybridge stream\n1 haswell dgemm\n").unwrap();
        let fleet = Fleet::build(&spec).unwrap();
        assert_eq!(fleet.len(), 7);
        assert_eq!(fleet.classes.len(), 2, "identical lines share one class");
        assert!(fleet.min_total_power() > Watts::ZERO);
        // A GPU benchmark on a CPU platform is refused.
        let bad = parse_spec("1 ivybridge sgemm").unwrap();
        assert!(Fleet::build(&bad).is_err());
        // Unknown slugs are typed errors.
        assert!(Fleet::build(&parse_spec("1 nope stream").unwrap()).is_err());
        assert!(Fleet::build(&parse_spec("1 ivybridge nope").unwrap()).is_err());
    }
}
