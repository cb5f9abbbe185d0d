//! # pbc-trace
//!
//! Dependency-free structured tracing and metrics for the power-bounded
//! workspace: scoped [`span`]s with wall-clock timing, monotonic
//! [`counter`]s and last-write-wins [`gauge`]s aggregated in a global
//! thread-safe registry, and a JSON-lines exporter whose output the
//! crate can parse back ([`json::parse`]) — so round-trip tests and the
//! bench harness share one schema.
//!
//! The crate exists because the oracle sweep once lost data silently: a
//! panicking worker dropped its whole batch of sweep points and solver
//! errors were conflated with infeasible allocations. Counters make that
//! class of bug *observable* — `sweep.points_lost` and
//! `sweep.solver_errors` must read zero on every healthy run, and the
//! exporter writes them even when zero so their absence is never
//! mistaken for their emptiness.
//!
//! ## Semantics
//!
//! * **Counters and gauges always aggregate.** They are a couple of
//!   atomic operations; keeping them unconditional means a decision path
//!   cannot forget to opt in.
//! * **Spans record only while [`enable`]d.** Spans allocate (a name, a
//!   record in the registry), so the hot paths stay allocation-free
//!   unless somebody asked for a trace.
//! * **Everything is `std`.** `Mutex`, atomics, `Instant` — no registry
//!   dependencies, per the workspace's offline-build rule.
//!
//! ## Example
//!
//! ```
//! pbc_trace::reset();
//! pbc_trace::enable();
//! {
//!     let _outer = pbc_trace::span("work");
//!     let _inner = pbc_trace::span("work.step");
//!     pbc_trace::counter("work.items").add(3);
//!     pbc_trace::gauge("work.progress").set(0.5);
//! }
//! pbc_trace::disable();
//! let text = pbc_trace::to_jsonl();
//! for line in text.lines() {
//!     assert!(pbc_trace::json::parse(line).is_ok());
//! }
//! let snap = pbc_trace::snapshot();
//! assert_eq!(snap.counters["work.items"], 3);
//! assert_eq!(snap.spans.len(), 2);
//! ```

pub mod json;
pub mod names;
mod registry;
mod span;

pub use registry::{Counter, Gauge, Snapshot, SpanRecord};
pub use span::SpanGuard;

use json::Value;
use std::path::Path;

/// Turn span recording on. Counters and gauges aggregate regardless.
pub fn enable() {
    registry::registry().set_enabled(true);
}

/// Turn span recording off.
pub fn disable() {
    registry::registry().set_enabled(false);
}

/// Clear every counter, gauge, and recorded span. Tests call this to
/// get exact accounting; production code never needs it.
pub fn reset() {
    registry::registry().reset();
}

/// Look up (or register) the monotonic counter `name`. The returned
/// handle is a clone-able `Arc<AtomicU64>`; hot loops should call this
/// once and reuse the handle.
#[must_use]
pub fn counter(name: &str) -> Counter {
    registry::registry().counter(name)
}

/// Look up (or register) the gauge `name` (last write wins).
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    registry::registry().gauge(name)
}

/// The [`counter`] `name`, looked up once per call site and kept in a
/// `static`: later calls cost one atomic load instead of a registry lock
/// and a hash of the name. Use it where a counter is bumped on a hot
/// path; the counter is still registered only when the call site first
/// runs.
#[macro_export]
macro_rules! cached_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// [`cached_counter!`] for a [`gauge`].
#[macro_export]
macro_rules! cached_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Open a scoped span. The span closes (and records its duration) when
/// the guard drops. Nesting on one thread is tracked automatically; for
/// cross-thread nesting pass the parent id via [`span_under`].
#[must_use = "the span closes when this guard drops; binding it to _ closes it immediately"]
pub fn span(name: &str) -> SpanGuard {
    span::begin(name, None)
}

/// Open a scoped span under an explicit parent — the cross-thread
/// variant of [`span`] (e.g. sweep workers parented to the sweep span).
#[must_use = "the span closes when this guard drops; binding it to _ closes it immediately"]
pub fn span_under(name: &str, parent: Option<u64>) -> SpanGuard {
    span::begin(name, parent)
}

/// A consistent copy of the registry: counter totals, gauge values, and
/// every recorded span.
#[must_use]
pub fn snapshot() -> Snapshot {
    registry::registry().snapshot()
}

/// Render the registry as JSON lines: one `meta` line, then one line
/// per span, counter, and gauge. Every line parses with [`json::parse`].
#[must_use]
pub fn to_jsonl() -> String {
    render_jsonl(&snapshot())
}

/// [`to_jsonl`]'s lines for one snapshot.
fn render_jsonl(snap: &Snapshot) -> String {
    let meta = Value::Obj(vec![
        ("type".into(), Value::Str("meta".into())),
        ("format".into(), Value::Str("pbc-trace".into())),
        ("version".into(), Value::Num(1.0)),
        ("spans".into(), Value::Num(snap.spans.len() as f64)),
        ("counters".into(), Value::Num(snap.counters.len() as f64)),
        ("gauges".into(), Value::Num(snap.gauges.len() as f64)),
    ]);
    let spans = snap.spans.iter().map(|s| {
        Value::Obj(vec![
            ("type".into(), Value::Str("span".into())),
            ("id".into(), Value::Num(s.id as f64)),
            ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
            ("name".into(), Value::Str(s.name.clone())),
            ("thread".into(), Value::Str(s.thread.clone())),
            ("start_ns".into(), Value::Num(s.start_ns as f64)),
            ("dur_ns".into(), Value::Num(s.dur_ns as f64)),
        ])
    });
    let metric = |kind: &str, name: &String, value: f64| {
        Value::Obj(vec![
            ("type".into(), Value::Str(kind.into())),
            ("name".into(), Value::Str(name.clone())),
            ("value".into(), Value::Num(value)),
        ])
    };
    let counters = snap.counters.iter().map(|(name, v)| metric("counter", name, *v as f64));
    let gauges = snap.gauges.iter().map(|(name, v)| metric("gauge", name, *v));
    let mut out = String::new();
    for line in std::iter::once(meta).chain(spans).chain(counters).chain(gauges) {
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

/// Write `snap` to `path` as JSON lines (see [`to_jsonl`]). The
/// lines go to `<path>.tmp` first, which then replaces `path` by a
/// rename, so a reader never sees a half-written file: it sees the
/// previous complete trace or this one. A `path` that exists and is not
/// a regular file (a symlink, a pipe, `/dev/stdout`) is written in
/// place, since a rename would replace it.
#[must_use = "an unexported trace is invisible; handle the I/O error"]
pub fn export(path: &Path, snap: &Snapshot) -> std::io::Result<()> {
    if std::fs::symlink_metadata(path).is_ok_and(|m| !m.is_file()) {
        return std::fs::write(path, render_jsonl(snap));
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, render_jsonl(snap))?;
    std::fs::rename(&tmp, path)
}

/// Render one benchmark timing record as a JSON line in the same schema
/// the exporter uses (`"type":"bench"`): the name, then `fields` in
/// order. The bench harness appends these to the file named by
/// `PBC_BENCH_JSON`, seeding the perf trajectory.
#[must_use]
pub fn bench_record_line(name: &str, fields: &[(&str, f64)]) -> String {
    let head = [
        ("type".to_string(), Value::Str("bench".into())),
        ("name".to_string(), Value::Str(name.into())),
    ];
    let fields = fields.iter().map(|&(k, v)| (k.to_string(), Value::Num(v)));
    Value::Obj(head.into_iter().chain(fields).collect()).render()
}

/// Render one derived-ratio record as a JSON line (`"type":"bench-ratio"`).
/// Ratios relate two measured benchmarks (e.g. a baseline median over an
/// optimized median) so CI can gate on a speedup rather than on absolute
/// nanoseconds, which vary across machines.
#[must_use]
pub fn bench_ratio_record_line(name: &str, ratio: f64) -> String {
    Value::Obj(vec![
        ("type".into(), Value::Str("bench-ratio".into())),
        ("name".into(), Value::Str(name.into())),
        ("ratio".into(), Value::Num(ratio)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry state is process-global; tests that need exact counts
    /// serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_aggregate_even_when_disabled() {
        let _g = lock();
        reset();
        disable();
        counter("test.disabled").add(2);
        assert_eq!(snapshot().counters["test.disabled"], 2);
    }

    #[test]
    fn spans_record_only_when_enabled() {
        let _g = lock();
        reset();
        disable();
        {
            let off = span("test.off");
            assert!(off.id().is_none());
        }
        enable();
        {
            let on = span("test.on");
            assert!(on.id().is_some());
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "test.on");
    }

    #[test]
    fn nesting_is_tracked_per_thread() {
        let _g = lock();
        reset();
        enable();
        {
            let outer = span("outer");
            let outer_id = outer.id();
            let inner = span("inner");
            assert!(inner.id().is_some());
            drop(inner);
            drop(outer);
            let snap = snapshot();
            let inner_rec = snap.spans.iter().find(|s| s.name == "inner").map(|s| s.parent);
            assert_eq!(inner_rec, Some(outer_id));
        }
        disable();
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _g = lock();
        reset();
        enable();
        let root = span("root");
        let root_id = root.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _child = span_under("child", root_id);
            });
        });
        drop(root);
        disable();
        let snap = snapshot();
        let child = snap.spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root_id);
    }

    #[test]
    fn jsonl_round_trips() {
        let _g = lock();
        reset();
        enable();
        {
            let _s = span("rt.outer");
            counter("rt.count").add(41);
            counter("rt.count").incr();
            gauge("rt.gauge").set(2.5);
        }
        disable();
        let text = to_jsonl();
        let mut counters = 0;
        let mut spans = 0;
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            // Names registered by other tests persist across reset()
            // (values zeroed in place), so only inspect our own names.
            let name = v.get("name").and_then(Value::as_str);
            match v.get("type").and_then(Value::as_str) {
                Some("counter") if name == Some("rt.count") => {
                    counters += 1;
                    assert_eq!(v.get("value").and_then(Value::as_u64), Some(42));
                }
                Some("span") => {
                    spans += 1;
                    assert_eq!(name, Some("rt.outer"));
                }
                Some("gauge") if name == Some("rt.gauge") => {
                    let g = v.get("value").and_then(Value::as_f64).unwrap();
                    assert!((g - 2.5).abs() < 1e-12);
                }
                Some("meta") => {
                    assert_eq!(v.get("version").and_then(Value::as_u64), Some(1));
                }
                Some("counter" | "gauge") => {}
                other => panic!("unexpected line type {other:?}"),
            }
        }
        assert_eq!((counters, spans), (1, 1));
    }

    #[test]
    fn bench_record_is_parseable() {
        let line = bench_record_line("sweep/sra", &[("median_ns", 120.5), ("samples", 64.0)]);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("bench"));
        assert_eq!(v.get("samples").and_then(Value::as_u64), Some(64));
        let med = v.get("median_ns").and_then(Value::as_f64).unwrap();
        assert!((med - 120.5).abs() < 1e-12);
    }

    #[test]
    fn bench_ratio_record_is_parseable() {
        let line = bench_ratio_record_line("sweep/curve-vs-budgets-speedup", 3.5);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("bench-ratio"));
        let ratio = v.get("ratio").and_then(Value::as_f64).unwrap();
        assert!((ratio - 3.5).abs() < 1e-12);
    }

    #[test]
    fn export_replaces_the_file_through_a_staging_file() {
        let _g = lock();
        reset();
        let path = std::env::temp_dir().join(format!("pbc-trace-test-{}.jsonl", std::process::id()));
        let tmp = path.with_extension("jsonl.tmp");
        for n in 1..=2 {
            counter("file.count").incr();
            export(&path, &snapshot()).unwrap();
            assert!(!tmp.exists(), "export {n} left its staging file behind");
            // `json::counters` parses every line.
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(json::counters(&text).unwrap()["file.count"], n);
        }
        // A symlink is written through, not replaced by a regular file.
        #[cfg(unix)]
        {
            let link = path.with_extension("link");
            std::os::unix::fs::symlink(&path, &link).unwrap();
            export(&link, &snapshot()).unwrap();
            assert!(std::fs::symlink_metadata(&link).unwrap().file_type().is_symlink());
            std::fs::remove_file(&link).ok();
        }
        std::fs::remove_file(&path).ok();
    }
}
