//! Streaming telemetry exporters.
//!
//! The daemon does not wait for process exit to publish its telemetry
//! (the batch CLI's `--trace FILE` model): an export ticker thread
//! snapshots the `pbc_trace` registry every interval and hands the
//! snapshot to each configured [`Exporter`]. One metrics model, several
//! transports — the architecture scaphandre uses for its exporter
//! family:
//!
//! * [`JsonLinesExporter`] — appends each snapshot as one JSON object
//!   per line to any `io::Write` (stdout, a file, a pipe);
//! * [`TraceSnapshotExporter`] — atomically rewrites a trace file in
//!   the standard `pbc-trace` JSONL schema (the file parses with
//!   `pbc_trace::json::parse` at *every* instant, even mid-drain,
//!   because updates go through a tmp-file + rename);
//! * [`crate::prom::PrometheusExporter`] — renders the snapshot in
//!   Prometheus text format for an HTTP scrape endpoint.

use pbc_trace::json::Value;
use pbc_trace::Snapshot;
use std::io::{self, Write};
use std::path::PathBuf;

/// One telemetry sink fed by the export ticker.
pub trait Exporter: Send {
    /// Short name for logs and errors.
    fn name(&self) -> &'static str;
    /// Publish one registry snapshot.
    #[must_use = "a failed export means the sink and the registry have diverged"]
    fn export(&mut self, snap: &Snapshot) -> io::Result<()>;
    /// Flush buffered output (called once at drain).
    #[must_use = "a failed flush can leave a torn final snapshot"]
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Renders each snapshot as a single JSON-lines record:
/// `{"type":"serve-snapshot","seq":N,"counters":{...},"gauges":{...}}`.
pub struct JsonLinesExporter<W: Write + Send> {
    sink: W,
    seq: u64,
}

impl<W: Write + Send> JsonLinesExporter<W> {
    /// Stream snapshots to `sink`.
    pub fn new(sink: W) -> Self {
        Self { sink, seq: 0 }
    }
}

/// Render one snapshot as a single-line JSON object (shared by the
/// JSON-lines exporter and its tests).
#[must_use]
pub fn snapshot_record(snap: &Snapshot, seq: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let counters = Value::Obj(
        snap.counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
            .collect(),
    );
    let gauges = Value::Obj(
        snap.gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect(),
    );
    #[allow(clippy::cast_precision_loss)]
    let seq = seq as f64;
    Value::Obj(vec![
        ("type".into(), Value::Str("serve-snapshot".into())),
        ("seq".into(), Value::Num(seq)),
        ("counters".into(), counters),
        ("gauges".into(), gauges),
    ])
    .render()
}

impl<W: Write + Send> Exporter for JsonLinesExporter<W> {
    fn name(&self) -> &'static str {
        "json-lines"
    }

    fn export(&mut self, snap: &Snapshot) -> io::Result<()> {
        let line = snapshot_record(snap, self.seq);
        self.seq += 1;
        writeln!(self.sink, "{line}")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.sink.flush()
    }
}

/// Periodically rewrites a full `pbc-trace` JSONL file, atomically.
///
/// A daemon killed (or drained) between ticks leaves the *previous*
/// complete snapshot on disk, never a torn half-write: the new contents
/// go to `<path>.tmp` first and replace the target with a rename, which
/// is atomic on POSIX filesystems.
pub struct TraceSnapshotExporter {
    path: PathBuf,
    tmp: PathBuf,
}

impl TraceSnapshotExporter {
    /// Snapshot into `path` (a sibling `<name>.tmp` is used as staging).
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        Self { path, tmp: PathBuf::from(tmp) }
    }
}

impl Exporter for TraceSnapshotExporter {
    fn name(&self) -> &'static str {
        "trace-snapshot"
    }

    fn export(&mut self, _snap: &Snapshot) -> io::Result<()> {
        // `pbc_trace::to_jsonl` renders from a registry snapshot taken
        // under the registry lock; writing its output through the
        // tmp+rename pair makes the published file transactional.
        std::fs::write(&self.tmp, pbc_trace::to_jsonl())?;
        std::fs::rename(&self.tmp, &self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_exporter_emits_parseable_records() {
        let mut snap = Snapshot {
            counters: std::collections::BTreeMap::new(),
            gauges: std::collections::BTreeMap::new(),
            spans: Vec::new(),
        };
        snap.counters.insert("serve.requests".into(), 7);
        snap.gauges.insert("serve.sessions".into(), 3.0);
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut exp = JsonLinesExporter::new(&mut buf);
            exp.export(&snap).unwrap();
            exp.export(&snap).unwrap();
            exp.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = pbc_trace::json::parse(line).unwrap();
            assert_eq!(
                v.get("type").and_then(pbc_trace::json::Value::as_str),
                Some("serve-snapshot")
            );
            assert_eq!(
                v.get("seq").and_then(pbc_trace::json::Value::as_f64),
                Some(i as f64)
            );
            let counters = v.get("counters").unwrap();
            assert_eq!(
                counters.get("serve.requests").and_then(pbc_trace::json::Value::as_f64),
                Some(7.0)
            );
        }
    }

    #[test]
    fn trace_snapshot_exporter_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!(
            "pbc-serve-exporter-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let tmp = dir.join("trace.jsonl.tmp");
        let snap = pbc_trace::snapshot();
        let mut exp = TraceSnapshotExporter::new(path.clone());
        exp.export(&snap).unwrap();
        assert!(!tmp.exists(), "export left its staging file behind");
        let first = std::fs::read_to_string(&path).unwrap();
        for line in first.lines() {
            pbc_trace::json::parse(line).unwrap();
        }
        exp.export(&snap).unwrap();
        assert!(path.exists());
        assert!(!tmp.exists(), "export left its staging file behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
