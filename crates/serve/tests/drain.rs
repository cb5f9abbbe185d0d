//! Graceful shutdown: drained daemons leave no torn telemetry behind.
//!
//! The first two tests boot a real TCP server, drive live client
//! traffic, drain, and then hold the trace-snapshot file to the two
//! serving invariants:
//!
//! 1. every line parses as JSON (atomic tmp+rename — a reader can never
//!    observe a half-written snapshot), and
//! 2. the serving counter law `serve.requests == serve.served_requests
//!    + serve.rejected_requests` holds in the final exported state.
//!
//! The third holds each export tick to one snapshot: a scrape and a
//! trace file with the same `serve.exports` agree on every counter.
//!
//! The trace registry is process-global, so the tests serialize on a
//! mutex and assert the law only on post-drain totals (mid-flight there
//! is a legal window between the `requests` increment and the
//! served/rejected increment).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use pbc_serve::{prom::mangle, ServeEngine, Server, ServerConfig};
use pbc_trace::{json, names};

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
        snapshot: Some(path.clone()),
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
        snapshot: Some(path.clone()),
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

/// One Prometheus scrape's samples: value text by metric name.
fn scrape(addr: std::net::SocketAddr) -> BTreeMap<String, String> {
    let mut stream = TcpStream::connect(addr).expect("connect to the scrape endpoint");
    stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").expect("write scrape request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read scrape response");
    let samples = text.lines().filter_map(|l| l.split_once(' '));
    samples.map(|(name, value)| (name.to_string(), value.to_string())).collect()
}

#[test]
fn one_snapshot_per_tick_feeds_the_scrape_and_the_trace_file() {
    let _guard = registry_lock();
    pbc_trace::enable();
    let path = snapshot_path("one-snapshot");
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        prom_addr: Some("127.0.0.1:0".into()),
        export_interval: Duration::from_millis(5),
        snapshot: Some(path.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(ServeEngine::new()), config).expect("server boots");
    let (addr, prom) = (server.local_addr(), server.prom_addr().expect("prometheus enabled"));

    // Two clients pipeline batches of requests, so the counters keep
    // moving while a tick publishes; meanwhile the scrape endpoint and
    // the trace file are read back to back.
    let exports = mangle(names::SERVE_EXPORTS);
    let mut pairs = 0;
    let deadline = Instant::now() + Duration::from_millis(400);
    std::thread::scope(|s| {
        for id in 1..=2u64 {
            s.spawn(move || {
                let (mut reader, mut writer) = client(addr);
                roundtrip(&mut reader, &mut writer, &format!("node {id} ivybridge stream 208"));
                let batch = format!("budget {id} 176\nbudget {id} 190\n").repeat(16);
                while Instant::now() < deadline {
                    writer.write_all(batch.as_bytes()).expect("write batch");
                    (&mut reader).lines().take(32).for_each(|r| drop(r.expect("read reply")));
                }
            });
        }
        while Instant::now() < deadline {
            let scrape = scrape(prom);
            let trace = if path.exists() { counters_from(&path) } else { BTreeMap::new() };
            // Only a scrape and a trace file of the same tick are a pair.
            let Some(tick) = trace.get(names::SERVE_EXPORTS) else { continue };
            if scrape.get(&exports) != Some(&tick.to_string()) {
                continue;
            }
            pairs += 1;
            for (name, value) in &trace {
                let scraped = scrape.get(&mangle(name));
                let agree = scraped.is_none_or(|s| *s == value.to_string());
                assert!(agree, "tick {tick}: scrape {name} = {scraped:?}, trace file {value}");
            }
        }
    });
    server.drain().expect("drain");
    assert!(pairs > 0, "no export tick was read from both sinks");
    let _ = std::fs::remove_file(&path);
}
