//! End-to-end smoke of `pbc serve`: boot the real binary on ephemeral
//! ports, run client round trips over live TCP, scrape the Prometheus
//! endpoint, shut down gracefully, and hold the emitted trace to the
//! serving counter law.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn trace_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pbc-cli-serve-{tag}-{}.jsonl", std::process::id()))
}

/// Counter name → value from a trace JSONL file.
fn counters_from(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    pbc_trace::json::counters(&text).unwrap_or_else(|e| panic!("{e}"))
}

struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: std::net::SocketAddr,
    prom: Option<std::net::SocketAddr>,
}

fn boot(trace: &std::path::Path, prom: bool) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pbc"));
    cmd.arg("serve").arg("--port").arg("0");
    if prom {
        cmd.arg("--prom-port").arg("0");
    }
    cmd.arg("--trace").arg(trace);
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pbc serve spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut addr = None;
    let mut prom_addr = None;
    let mut line = String::new();
    // The daemon announces its bound ports first; read until we have
    // them all.
    while addr.is_none() || (prom && prom_addr.is_none()) {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read announce line");
        assert!(n > 0, "daemon exited before announcing its ports");
        if let Some(a) = line.trim().strip_prefix("listening ") {
            addr = Some(a.parse().expect("listen addr parses"));
        } else if let Some(a) = line.trim().strip_prefix("prometheus ") {
            prom_addr = Some(a.parse().expect("prom addr parses"));
        }
    }
    Daemon {
        child,
        stdout,
        addr: addr.expect("listen addr"),
        prom: prom_addr,
    }
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").expect("write request");
    writer.flush().expect("flush request");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    resp.trim_end().to_string()
}

/// `key=<f64>` from a response line.
fn field(line: &str, key: &str) -> f64 {
    line.split_ascii_whitespace()
        .find_map(|f| f.strip_prefix(key))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} field in {line}"))
}

/// Scrape the Prometheus endpoint and return `pbc_*` sample values.
fn scrape(addr: std::net::SocketAddr) -> BTreeMap<String, f64> {
    let mut stream = TcpStream::connect(addr).expect("connect to prometheus endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("scrape timeout");
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: pbc\r\nConnection: close\r\n\r\n"
    )
    .expect("write scrape request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read scrape response");
    assert!(text.starts_with("HTTP/1.1 200"), "scrape failed: {text}");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .expect("scrape response has a body");
    let mut samples = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(' ').expect("sample line");
        samples.insert(name.to_string(), value.parse().expect("sample value"));
    }
    samples
}

#[test]
fn serve_round_trips_scrapes_and_drains_cleanly() {
    let trace = trace_file("graceful");
    let _ = std::fs::remove_file(&trace);
    let mut daemon = boot(&trace, true);
    // The endpoint serves a start-up snapshot before the first tick.
    let first = scrape(daemon.prom.expect("prometheus enabled"));
    assert_eq!(first.get("pbc_serve_requests"), Some(&0.0), "{first:?}");

    // Client round trips over live TCP.
    let stream = TcpStream::connect(daemon.addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone client stream"));
    let mut writer = stream;

    let opened = roundtrip(&mut reader, &mut writer, "node 1 ivybridge stream 208");
    assert!(opened.starts_with("alloc 1 "), "{opened}");
    let applied = roundtrip(&mut reader, &mut writer, "budget 1 190");
    assert!(applied.ends_with("outcome=applied"), "{applied}");
    let (proc_w, mem_w) = (field(&applied, "proc="), field(&applied, "mem="));
    let observed = roundtrip(
        &mut reader,
        &mut writer,
        &format!("observe 1 0.92 110 60 {proc_w} {mem_w}"),
    );
    assert!(observed.starts_with("alloc 1 "), "{observed}");
    let best = roundtrip(&mut reader, &mut writer, "query 1");
    assert!(best.ends_with("outcome=best"), "{best}");
    // One malformed request: typed rejection, connection survives.
    let rejected = roundtrip(&mut reader, &mut writer, "budget 1 lots-of-watts");
    assert!(rejected.starts_with("err bad-request"), "{rejected}");
    let pong = roundtrip(&mut reader, &mut writer, "ping");
    assert_eq!(pong, "ok pong");
    // `quit` is control plane: closes this connection, uncounted.
    writeln!(writer, "quit").expect("send quit");
    writer.flush().expect("flush quit");

    // Quiesce past at least one export tick (default interval 200 ms)
    // so the cached Prometheus body reflects the final counters.
    std::thread::sleep(Duration::from_millis(700));
    let samples = scrape(daemon.prom.expect("prometheus enabled"));
    let requests = samples["pbc_serve_requests"];
    let served = samples["pbc_serve_served_requests"];
    let rejected = samples.get("pbc_serve_rejected_requests").copied().unwrap_or(0.0);
    assert!(requests >= 6.0, "scrape saw {requests} requests");
    assert!((requests - (served + rejected)).abs() < 0.5, "law broken in scrape: {requests} != {served} + {rejected}");

    // Graceful shutdown over stdin.
    let mut stdin = daemon.child.stdin.take().expect("stdin piped");
    writeln!(stdin, "shutdown").expect("send shutdown");
    drop(stdin);
    let mut rest = String::new();
    daemon.stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("ok draining"), "{rest}");
    assert!(rest.contains("drained cleanly"), "{rest}");
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status}");

    // The exported trace parses, the law holds, and the Prometheus
    // scrape agrees with the trace on every serving counter.
    let counters = counters_from(&trace);
    let t_requests = counters["serve.requests"];
    let t_served = counters["serve.served_requests"];
    let t_rejected = counters.get("serve.rejected_requests").copied().unwrap_or(0);
    assert_eq!(t_requests, t_served + t_rejected, "law broken in trace");
    assert!(t_rejected >= 1, "the malformed request was not counted");
    #[allow(clippy::cast_precision_loss)]
    let close = |a: u64, b: f64| (a as f64 - b).abs() < 0.5;
    assert!(close(t_requests, requests), "scrape/trace disagree on requests");
    assert!(close(t_served, served), "scrape/trace disagree on served");
    assert!(close(t_rejected, rejected), "scrape/trace disagree on rejected");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn serve_drains_on_stdin_eof() {
    let trace = trace_file("eof");
    let _ = std::fs::remove_file(&trace);
    let mut daemon = boot(&trace, false);

    let stream = TcpStream::connect(daemon.addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone client stream"));
    let mut writer = stream;
    let opened = roundtrip(&mut reader, &mut writer, "node 7 haswell dgemm 260");
    assert!(opened.starts_with("alloc 7 "), "{opened}");

    // Abrupt: close stdin with a TCP client still connected. The
    // daemon must drain and exit 0 anyway.
    drop(daemon.child.stdin.take());
    let mut rest = String::new();
    daemon.stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("drained cleanly"), "{rest}");
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status}");

    let counters = counters_from(&trace);
    let requests = counters["serve.requests"];
    let served = counters["serve.served_requests"];
    let rejected = counters.get("serve.rejected_requests").copied().unwrap_or(0);
    assert_eq!(requests, served + rejected, "law broken after EOF drain");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn a_closed_stdout_or_unreadable_stdin_ends_the_stdin_session_with_a_drain() {
    // Stdout closed before the daemon writes anything; a line that is not UTF-8.
    let cases: [(&str, &[u8], bool); 2] =
        [("closed-stdout", b"ping\n", true), ("bad-utf8", b"ping\n\xff\nping\n", false)];
    for (tag, input, close_stdout) in cases {
        let snapshot = trace_file(tag);
        let _ = std::fs::remove_file(&snapshot);
        let mut child = Command::new(env!("CARGO_BIN_EXE_pbc"))
            .args(["serve", "--snapshot"])
            .arg(&snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("pbc serve spawns");
        if close_stdout {
            drop(child.stdout.take());
        }
        let mut stdin = child.stdin.take().expect("stdin piped");
        stdin.write_all(input).expect("write stdin");
        drop(stdin);
        let out = child.wait_with_output().expect("daemon exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{tag}: exit status {}; stderr {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        let counters = counters_from(&snapshot);
        assert_eq!(counters.get("serve.requests"), Some(&1), "{tag}: {counters:?}");
        let _ = std::fs::remove_file(&snapshot);
    }
}

#[test]
fn the_stdin_session_prints_nothing_but_protocol() {
    let snapshot = trace_file("stdout-protocol");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["serve", "--prom-port", "0", "--snapshot"])
        .arg(&snapshot)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("pbc serve spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    // Each line waits out more than one 200 ms export interval, so a
    // tick that printed anything would land between the replies.
    for line in ["ping", "node 1 ivybridge stream 208", "budget 1 190", "shutdown"] {
        std::thread::sleep(Duration::from_millis(250));
        writeln!(stdin, "{line}").expect("write stdin");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "exit status {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let allowed = ["listening ", "prometheus ", "ok ", "err ", "alloc ", "serve: drained cleanly"];
    for line in stdout.lines() {
        assert!(allowed.iter().any(|p| line.starts_with(p)), "not protocol: {line:?} in\n{stdout}");
    }
    assert_eq!(counters_from(&snapshot).get("serve.requests"), Some(&3), "{stdout}");
    let _ = std::fs::remove_file(&snapshot);
}
