//! End-to-end and per-layer benchmark of the power-bounded coordination
//! stack.
//!
//! One run executes one named workload from a seed, checks its outputs,
//! and returns every end-to-end metric (untraced run) or every per-layer
//! metric (traced run). See `README.md` in this directory for the
//! workloads, the metrics, and how each metric maps onto the others.

pub mod fleet;
pub mod hist;
pub mod layers;
pub mod oracle;
pub mod serve_agents;

use std::collections::BTreeMap;
use std::time::Duration;

/// Executors of the one `pbc-par` pool every workload runs on. Fixed so
/// that results do not depend on the host's `PBC_THREADS`.
pub const EXECUTORS: usize = 2;

/// The end-to-end metrics, printed by every untraced run. Each workload
/// defines every one of them (see `README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
    ("latency_p90_us", "us"),
    ("work_ratio", "fraction"),
    ("oracle_ratio", "fraction"),
];

/// The per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("serve.dispatch_ns.p50", "ns"),
    ("serve.dispatch_ns.p99", "ns"),
    ("serve.parse_ns.p50", "ns"),
    ("serve.render_ns.p50", "ns"),
    ("serve.transport_us.p50", "us"),
    ("serve.transport_us.p99", "us"),
    ("serve.rtt_us.p999", "us"),
    ("serve.requests", "count"),
    ("serve.served_requests", "count"),
    ("serve.rejected_requests", "count"),
    ("serve.client_busy_pct", "%"),
    ("serve.handler_busy_pct", "%"),
    ("core.set_budget_ns.p50", "ns"),
    ("core.observe_ns.p50", "ns"),
    ("core.budgets_sent", "count"),
    ("core.budget_applied_ratio", "fraction"),
    ("core.observations_sent", "count"),
    ("core.observation_used_ratio", "fraction"),
    ("fastpath.table_hits", "count"),
    ("core.session_open_us.p50", "us"),
    ("core.table_build_ms", "ms"),
    ("core.sweep_curve_ms.p50", "ms"),
    ("sweep.points_total", "count"),
    ("sweep.points_evaluated", "count"),
    ("sweep.points_infeasible", "count"),
    ("sweep.points_lost", "count"),
    ("sweep.curve_reuse_hits", "count"),
    ("core.probe_ms", "ms"),
    ("core.coord_us.p50", "us"),
    ("powersim.solve_ns.p50", "ns"),
    ("powersim.memo_hit_ns.p50", "ns"),
    ("solve.cache_hits", "count"),
    ("solve.cache_misses", "count"),
    ("powersim.memo_hit_ratio", "fraction"),
    ("cluster.fill_ms.p50", "ms"),
    ("cluster.coordinate_ms.p50", "ms"),
    ("cluster.node_coord_us.p50", "us"),
    ("cluster.rest_ms.p50", "ms"),
    ("cluster.rest_ms.p90", "ms"),
    ("cluster.tenant_split_us.p50", "us"),
    ("cluster.fleet_build_ms", "ms"),
    ("cluster.epochs", "count"),
    ("cluster.degraded_epochs", "count"),
    ("cluster.write_retries", "count"),
    ("cluster.write_failures", "count"),
    ("cluster.rejected_reports", "count"),
    ("cluster.missed_reports", "count"),
    ("cluster.tenant_preemptions", "count"),
    ("par.run_us.p50", "us"),
    ("pool.jobs", "count"),
    ("pool.steals", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_p90_us", "us"),
    ("trace.traced_p90_us", "us"),
    ("trace.spans_recorded", "count"),
    ("trace.spans_dropped", "count"),
];

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Node agents waiting on allocations from the `pbc-serve` daemon.
    ServeAgents,
    /// The fleet coordinator over 1024 nodes under the `everything` plan.
    Fleet1024,
    /// The cold shared-grid oracle over every Table-3 curve.
    OracleSuite,
}

impl Workload {
    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-agents" => Some(Self::ServeAgents),
            "fleet-1024" => Some(Self::Fleet1024),
            "oracle-suite" => Some(Self::OracleSuite),
            _ => None,
        }
    }
}

/// One run's command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Measured time.
    pub measure: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    #[must_use = "the parsed arguments or the usage error"]
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let measure = seconds.ok_or("--seconds is required")?;
        if !(measure.is_finite() && measure > 0.0 && measure <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {measure}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            measure: Duration::from_secs_f64(measure),
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one run measured. Any failed operation fails the whole run, so
/// a run that produces an outcome failed none of its operations.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests, epochs or swept points).
    pub attempted: u64,
    /// Metrics by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The metrics of `table`, in its order. A name the run did not set
    /// is an error: every run prints every metric it promises.
    #[must_use = "the metric list or the name of a metric the run did not measure"]
    pub fn metrics(&self, table: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, String> {
        table
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(v) if v.is_finite() => Ok(Metric {
                    name,
                    unit,
                    value: *v,
                }),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Values print with Rust's shortest
/// round-trip formatting, so every measured digit survives.
#[must_use]
pub fn result_line(attempted: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run one workload and return its checked result line. Any failed
/// check is an `Err`, and no numbers are produced.
#[must_use = "the result line or the failed check"]
pub fn run(args: &Args) -> Result<String, String> {
    let outcome = match args.workload {
        Workload::ServeAgents => serve_agents::run(args)?,
        Workload::Fleet1024 => fleet::run(args, &fleet::FLEET_1024)?,
        Workload::OracleSuite => oracle::run(args)?,
    };
    if outcome.attempted == 0 {
        return Err("the run attempted no operations".into());
    }
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = outcome.metrics(table)?;
    Ok(result_line(outcome.attempted, &metrics))
}

/// Set the metrics every workload derives the same way: `success_rate`
/// (every attempted operation succeeded, or the run would have failed)
/// and `peak_rss_mb` from the kernel.
pub fn finish_common(out: &mut Outcome) {
    out.set("success_rate", 1.0);
    out.set("peak_rss_mb", peak_rss_mb());
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 when the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time (user + system) a thread has used, read from a `/proc`
/// `stat` file, in seconds. Assumes the usual 100 Hz clock tick.
#[must_use]
pub fn thread_cpu_seconds(stat_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(stat_path).ok()?;
    // The command name may hold spaces; the fields after it are fixed.
    let after = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Median of a non-empty list of durations, in seconds.
#[must_use]
pub fn median_seconds(samples: &[Duration]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A well-mixed 64-bit seed for sub-stream `k` of `seed` (splitmix64).
#[must_use]
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The counters whose deltas the traced run reports, by name.
pub const TRACED_COUNTERS: [&str; 21] = [
    pbc_trace::names::SERVE_REQUESTS,
    pbc_trace::names::SERVE_SERVED_REQUESTS,
    pbc_trace::names::SERVE_REJECTED_REQUESTS,
    pbc_trace::names::FASTPATH_TABLE_HITS,
    pbc_trace::names::SWEEP_POINTS_TOTAL,
    pbc_trace::names::SWEEP_POINTS_EVALUATED,
    pbc_trace::names::SWEEP_POINTS_INFEASIBLE,
    pbc_trace::names::SWEEP_POINTS_LOST,
    pbc_trace::names::SWEEP_CURVE_REUSE_HITS,
    pbc_trace::names::SOLVE_CACHE_HITS,
    pbc_trace::names::SOLVE_CACHE_MISSES,
    pbc_trace::names::CLUSTER_EPOCHS,
    pbc_trace::names::CLUSTER_DEGRADED_EPOCHS,
    pbc_trace::names::CLUSTER_WRITE_RETRIES,
    pbc_trace::names::CLUSTER_WRITE_FAILURES,
    pbc_trace::names::CLUSTER_REJECTED_REPORTS,
    pbc_trace::names::CLUSTER_MISSED_REPORTS,
    pbc_trace::names::CLUSTER_TENANT_PREEMPTIONS,
    pbc_trace::names::POOL_JOBS,
    pbc_trace::names::POOL_STEALS,
    pbc_trace::names::ONLINE_REJECTED_OBSERVATIONS,
];

/// A snapshot of [`TRACED_COUNTERS`], for deltas.
#[derive(Debug, Clone)]
pub struct Counters(Vec<u64>);

impl Counters {
    /// Read every traced counter now.
    #[must_use]
    pub fn now() -> Self {
        Self(
            TRACED_COUNTERS
                .iter()
                .map(|n| pbc_trace::counter(n).get())
                .collect(),
        )
    }

    /// How far counter `name` moved since `self`.
    #[must_use]
    pub fn delta(&self, name: &str) -> u64 {
        TRACED_COUNTERS
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| {
                pbc_trace::counter(TRACED_COUNTERS[i])
                    .get()
                    .saturating_sub(self.0[i])
            })
    }
}

/// Read one counter's current value.
#[must_use]
pub fn counter_now(name: &str) -> u64 {
    pbc_trace::counter(name).get()
}
