//! Graceful shutdown: drained daemons leave no torn telemetry behind.
//!
//! Both tests boot a real TCP server, drive live client traffic, drain,
//! and then hold the trace-snapshot file to the two serving invariants:
//!
//! 1. every line parses as JSON (atomic tmp+rename — a reader can never
//!    observe a half-written snapshot), and
//! 2. the serving counter law `serve.requests == serve.served_requests
//!    + serve.rejected_requests` holds in the final exported state.
//!
//! The trace registry is process-global, so the two tests serialize on
//! a mutex and assert the law only on post-drain totals (mid-flight
//! there is a legal window between the `requests` increment and the
//! served/rejected increment).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use pbc_serve::{ServeEngine, Server, ServerConfig, TraceSnapshotExporter};
use pbc_trace::json;

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pbc-serve-drain-{tag}-{}.jsonl",
        std::process::id()
    ))
}

/// Parse a trace snapshot file: every line must be valid JSON; counters
/// are returned by name.
fn counters_from(path: &std::path::Path) -> std::collections::BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("snapshot file readable");
    assert!(!text.is_empty(), "snapshot file is empty");
    json::counters(&text).unwrap_or_else(|e| panic!("snapshot is torn: {e}"))
}

fn assert_law(counters: &std::collections::BTreeMap<String, u64>) {
    let requests = counters.get("serve.requests").copied().unwrap_or(0);
    let served = counters.get("serve.served_requests").copied().unwrap_or(0);
    let rejected = counters.get("serve.rejected_requests").copied().unwrap_or(0);
    assert!(requests > 0, "no requests counted");
    assert_eq!(
        requests,
        served + rejected,
        "counter law broken: {requests} != {served} + {rejected}"
    );
}

fn client(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").expect("write");
    writer.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read");
    resp.trim_end().to_string()
}

#[test]
fn graceful_shutdown_flushes_consistent_snapshots() {
    let _guard = registry_lock();
    pbc_trace::enable();
    let path = snapshot_path("graceful");
    let _ = std::fs::remove_file(&path);

    let engine = Arc::new(ServeEngine::new());
    let config = ServerConfig {
        export_interval: Duration::from_millis(25),
        exporters: vec![Box::new(TraceSnapshotExporter::new(path.clone()))],
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), config).expect("server boots");
    let addr = server.local_addr();

    let (mut reader, mut writer) = client(addr);
    let opened = roundtrip(&mut reader, &mut writer, "node 1 ivybridge stream 208");
    assert!(opened.starts_with("alloc 1 "), "{opened}");
    for i in 0..20 {
        let w = if i % 2 == 0 { 190.0 } else { 208.25 };
        let resp = roundtrip(&mut reader, &mut writer, &format!("budget 1 {w}"));
        assert!(resp.starts_with("alloc 1 "), "{resp}");
    }
    // A malformed line and an unknown node: rejected, connection lives.
    let bad = roundtrip(&mut reader, &mut writer, "budget 1 not-a-number");
    assert!(bad.starts_with("err bad-request"), "{bad}");
    let gone = roundtrip(&mut reader, &mut writer, "query 404");
    assert!(gone.starts_with("err unknown-node"), "{gone}");

    // `shutdown` answers, then the server drains: in-flight work
    // finishes, exporters flush one final consistent snapshot.
    let ack = roundtrip(&mut reader, &mut writer, "shutdown");
    assert!(ack.starts_with("ok draining"), "{ack}");
    server.drain().expect("drain");

    let counters = counters_from(&path);
    assert_law(&counters);
    assert!(counters.get("serve.sessions_opened").copied().unwrap_or(0) >= 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn abrupt_drain_leaves_no_torn_trace() {
    let _guard = registry_lock();
    pbc_trace::enable();
    let path = snapshot_path("abrupt");
    let _ = std::fs::remove_file(&path);

    let engine = Arc::new(ServeEngine::new());
    let config = ServerConfig {
        export_interval: Duration::from_millis(5),
        exporters: vec![Box::new(TraceSnapshotExporter::new(path.clone()))],
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), config).expect("server boots");
    let addr = server.local_addr();

    // Hammer the daemon from two client threads, then drain mid-stream
    // without any quiesce or shutdown handshake.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..2u64 {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let (mut reader, mut writer) = client(addr);
            let id = t + 1;
            let opened = roundtrip(
                &mut reader,
                &mut writer,
                &format!("node {id} ivybridge stream 208"),
            );
            assert!(opened.starts_with("alloc "), "{opened}");
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let w = 176.0 + (i % 5) as f64;
                let resp = roundtrip(&mut reader, &mut writer, &format!("budget {id} {w}"));
                assert!(
                    resp.starts_with("alloc ") || resp.starts_with("err shutting-down"),
                    "{resp}"
                );
                i += 1;
            }
        }));
    }

    // Let traffic and a few export ticks overlap, then pull the plug.
    std::thread::sleep(Duration::from_millis(120));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    server.drain().expect("drain");
    for c in clients {
        c.join().expect("client thread");
    }

    // Every line of the snapshot parses (rename is atomic — even a
    // drain racing an export tick cannot tear the file) and the law
    // holds on the final flushed state.
    let counters = counters_from(&path);
    assert_law(&counters);
    let _ = std::fs::remove_file(&path);
}
