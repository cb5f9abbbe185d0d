//! A minimal, dependency-free micro-benchmark harness.
//!
//! Criterion cannot be vendored into an offline workspace, so the bench
//! targets use this harness instead: warm up, run timed batches for a
//! fixed measurement window, and report min / median / mean ns per
//! iteration. It understands a name filter, and `--test` or `--quick`,
//! which switch to a one-iteration smoke run. Cargo does not pass
//! `--test` to these `harness = false` targets, so `cargo test
//! --benches` runs them timed and asserts their ratios; smoke mode needs
//! an explicit `-- --test` or `-- --quick`.
//!
//! When the `PBC_BENCH_JSON` environment variable names a file, every
//! measured benchmark also appends one machine-readable JSON line there
//! (the `pbc-trace` `"type":"bench"` schema), so CI can keep a timing
//! trajectory across commits.
//!
//! Wall time on a shared virtual host includes time the hypervisor gave
//! to other guests (steal), so each sample also records the process's
//! CPU time over the same batch (`cpu_min_ns`, `cpu_median_ns`: every
//! thread of the process, steal excluded), and the record carries the
//! host's steal share over the measurement window (`steal_pct`, from
//! the first line of `/proc/stat`). Both are Linux-only and omitted
//! elsewhere. The ratios the gates read stay on wall time.

use pbc_types::u64_from_f64;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// How long to measure each benchmark for (after warmup).
const MEASURE_WINDOW: Duration = Duration::from_millis(200);
/// Warmup budget before measurement starts.
const WARMUP_WINDOW: Duration = Duration::from_millis(50);
/// Upper bound on recorded samples per benchmark.
const MAX_SAMPLES: usize = 512;

/// One measured benchmark's per-iteration times, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The fastest sample.
    pub min_ns: f64,
    /// The median sample.
    pub median_ns: f64,
}

/// The bench runner. Construct once per bench binary with
/// [`Bench::from_env`], then call [`Bench::run`] per benchmark.
pub struct Bench {
    filter: Option<String>,
    smoke: bool,
    ran: usize,
}

impl Bench {
    /// Build a runner from the process arguments.
    ///
    /// Every non-flag argument is a substring filter on benchmark names;
    /// `--test` or `--quick` selects smoke mode. Unknown `--flags` are
    /// ignored so `cargo bench -- --flag` combinations don't error.
    #[must_use]
    pub fn from_env() -> Self {
        let mut filter = None;
        let mut smoke = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" | "--quick" => smoke = true,
                a if a.starts_with("--") => {}
                a => filter = Some(a.to_string()),
            }
        }
        Self { filter, smoke, ran: 0 }
    }

    /// Run one benchmark: `f` is invoked repeatedly and its return value
    /// passed through `black_box` so the optimizer cannot elide the work.
    ///
    /// Returns the min and median ns per iteration when the benchmark was
    /// actually measured, and `None` when it was filtered out or ran in
    /// smoke mode — so derived metrics (see [`Bench::record_ratio`]) are
    /// only computed from real timings.
    pub fn run<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) -> Option<Timing> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        self.ran += 1;
        if self.smoke {
            black_box(f());
            println!("bench {name:<40} ok (smoke)");
            return None;
        }

        // Warmup, and size the batch so one batch is ~1% of the window.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_WINDOW || warm_iters < 3 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
        let target = MEASURE_WINDOW.as_nanos() as f64 / 100.0 / per_iter.max(1.0);
        let batch = u64_from_f64(target).unwrap_or(1).max(1);

        let mut samples: Vec<f64> = Vec::new();
        let mut cpu_samples: Vec<f64> = Vec::new();
        let jiffies_start = cpu_jiffies();
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE_WINDOW && samples.len() < MAX_SAMPLES {
            let (t0, cpu0) = (Instant::now(), process_cpu_ns());
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
            if let (Some(cpu0), Some(cpu1)) = (cpu0, process_cpu_ns()) {
                cpu_samples.push(cpu1.saturating_sub(cpu0) as f64 / batch as f64);
            }
        }
        let steal = steal_pct(jiffies_start, cpu_jiffies());
        samples.sort_by(f64::total_cmp);
        cpu_samples.sort_by(f64::total_cmp);
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut fields = vec![
            ("min_ns", min),
            ("median_ns", median),
            ("mean_ns", mean),
            ("samples", samples.len() as f64),
            ("iters_per_sample", batch as f64),
        ];
        let mut cpu_note = String::new();
        let cpu_median = cpu_samples.get(cpu_samples.len() / 2);
        if let (Some(&cpu_min), Some(&cpu_median)) = (cpu_samples.first(), cpu_median) {
            fields.extend([("cpu_min_ns", cpu_min), ("cpu_median_ns", cpu_median)]);
            cpu_note = format!(" cpu median {:>12}", fmt_ns(cpu_median));
        }
        if let Some(steal) = steal {
            fields.push(("steal_pct", steal));
            cpu_note.push_str(&format!(" steal {steal:.0}%"));
        }
        println!(
            "bench {name:<40} min {:>12} median {:>12} mean {:>12}{cpu_note} ({} samples x {batch} iters)",
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean),
            samples.len(),
        );
        append_json_line(&pbc_trace::bench_record_line(name, &fields));
        Some(Timing { min_ns: min, median_ns: median })
    }

    /// Record a ratio derived from two measured medians (e.g. a baseline
    /// over an optimization) and append it as a `"type":"bench-ratio"`
    /// JSON line when `PBC_BENCH_JSON` is set, so CI can gate on relative
    /// speedups instead of machine-dependent absolute timings.
    pub fn record_ratio(&self, name: &str, ratio: f64) {
        println!("bench {name:<40} ratio {ratio:>11.2}x");
        append_json_line(&pbc_trace::bench_ratio_record_line(name, ratio));
    }

    /// Print a footer; call last so a filter matching nothing is visible.
    pub fn finish(&self) {
        if self.ran == 0 {
            if let Some(filter) = &self.filter {
                println!("bench: no benchmark matched filter {filter:?}");
            }
        }
    }
}

/// This process's CPU time, every thread, in nanoseconds: one
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. On Linux it leaves out
/// steal, the time the hypervisor ran other guests.
#[cfg(target_os = "linux")]
fn process_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, the only memory
    // the call writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| secs * 1_000_000_000 + nanos)
}

#[cfg(not(target_os = "linux"))]
fn process_cpu_ns() -> Option<u64> {
    None
}

/// `(steal, total)` jiffies of the whole host, from the first line of
/// `/proc/stat` (`cpu user nice system idle iowait irq softirq steal
/// …`; guest time is already inside user). `None` off Linux.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The host's steal share, in percent, between two [`cpu_jiffies`]
/// readings.
fn steal_pct(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<f64> {
    let ((steal0, total0), (steal1, total1)) = (start?, end?);
    let total = total1.checked_sub(total0).filter(|&t| t > 0)?;
    Some(100.0 * steal1.saturating_sub(steal0) as f64 / total as f64)
}

/// Append one pre-rendered JSON line to the file named by `PBC_BENCH_JSON`,
/// when set. Failures print a warning instead of killing the bench run.
fn append_json_line(line: &str) {
    let Ok(path) = std::env::var("PBC_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        println!("bench: could not append to PBC_BENCH_JSON={path}: {e}");
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.500 ms");
        assert_eq!(fmt_ns(3_200_000_000.0), "3.200 s");
    }

    #[test]
    fn steal_share_spans_the_window() {
        assert_eq!(steal_pct(Some((10, 1000)), Some((30, 1400))), Some(5.0));
        assert_eq!(steal_pct(Some((10, 1000)), Some((10, 1000))), None);
        assert_eq!(steal_pct(None, Some((10, 1000))), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_ns().unwrap();
        let mut x = 0u64;
        while process_cpu_ns().unwrap() < t0 + 1_000_000 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
        assert!(cpu_jiffies().is_some());
    }

    #[test]
    fn smoke_mode_runs_once_and_yields_no_median() {
        let mut b = Bench { filter: None, smoke: true, ran: 0 };
        let mut calls = 0;
        let timing = b.run("unit", || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(b.ran, 1);
        assert_eq!(timing, None);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut b = Bench { filter: Some("xyz".into()), smoke: true, ran: 0 };
        let mut calls = 0;
        let timing = b.run("abc", || calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(timing, None);
        b.finish();
    }
}
