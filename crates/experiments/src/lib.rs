//! # pbc-experiments
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation, each regenerating the corresponding data series through the
//! public APIs of `pbc-core`, `pbc-powersim`, and `pbc-workloads`.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig1`] | Fig. 1 — STREAM under power bounds, CPU & GPU (motivation) |
//! | [`fig2`] | Fig. 2 — `perf_max ~ P_b` for DGEMM & RandomAccess on both CPU platforms |
//! | [`fig3`] | Fig. 3 — the six scenario categories (SRA on IvyBridge, 240 W) |
//! | [`fig4`] | Fig. 4 — category patterns across budgets (SRA, EP-DGEMM) |
//! | [`fig5`] | Fig. 5 — balanced compute/memory utilization at 208 W |
//! | [`fig6`] | Fig. 6 — GPU `perf_max` vs power cap (SGEMM & MiniFE, XP & V) |
//! | [`fig7`] | Fig. 7 — GPU perf vs memory allocation under various caps |
//! | [`fig8`] | Fig. 8 — profiles of all Table-3 benchmarks on all platforms |
//! | [`fig9`] | Fig. 9 — COORD vs oracle vs memory-first / Nvidia default |
//! | [`tables`] | Tables 1–3 |
//! | [`ext1`] | *extension*: online (model-free) coordination, the paper's future work |
//! | [`ext2`] | *extension*: per-socket coordination under workload imbalance |
//! | [`ext3`] | *extension*: hybrid host+card coordination for offload applications |
//! | [`ext4`] | *extension*: co-run coordination for multi-tenant nodes |
//! | [`ext5`] | *extension*: RQ4 quantified — acceptable budget bands and efficiency curves |
//! | [`ext6`] | *extension*: chaos survival — the online loop under every shipped fault plan |
//! | [`ext7`] | *extension*: cluster-scale coordination — COORD vs uniform split vs oracle at 8/32/128 nodes |
//! | [`ext8`] | *extension*: fleet fault tolerance — availability, reconvergence, and work retained under chaos plans |
//! | [`ext9`] | *extension*: multi-tenant fairness frontier — throughput vs max-min vs weighted shares under a noisy neighbor |
//!
//! Every experiment returns an [`output::ExperimentOutput`]: rendered text
//! tables for the terminal plus CSV series for downstream plotting. `pbc
//! repro` runs them by name from [`EXPERIMENTS`] and writes the CSVs under
//! `results/`.

pub mod ext1;
pub mod ext2;
pub mod ext3;
pub mod ext4;
pub mod ext5;
pub mod ext6;
pub mod ext7;
pub mod ext8;
pub mod ext9;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod output;
pub mod tables;

pub use output::{ExperimentOutput, TextTable};

use pbc_types::Result;

/// The function that runs one experiment.
pub type Experiment = fn() -> Result<ExperimentOutput>;

/// Every experiment in paper order: its name and the function that runs it.
pub const EXPERIMENTS: [(&str, Experiment); 21] = [
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("table1", tables::table1_experiment),
    ("table2", tables::table2_experiment),
    ("table3", tables::table3_experiment),
    ("ext1", ext1::run),
    ("ext2", ext2::run),
    ("ext3", ext3::run),
    ("ext4", ext4::run),
    ("ext5", ext5::run),
    ("ext6", ext6::run),
    ("ext7", ext7::run),
    ("ext8", ext8::run),
    ("ext9", ext9::run),
];

/// Run one experiment by name.
#[must_use = "the experiment outcome carries I/O and solver failures"]
pub fn run(name: &str) -> Result<ExperimentOutput> {
    let Some((_, experiment)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        let known = EXPERIMENTS.map(|(n, _)| n).join(", ");
        return Err(pbc_types::PbcError::NotFound(format!("experiment {name}; known: {known}")));
    };
    experiment()
}
