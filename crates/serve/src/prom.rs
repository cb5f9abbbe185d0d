//! A hand-rolled Prometheus text-format scrape endpoint.
//!
//! [`render_prometheus`] maps the `pbc_trace` registry onto the
//! Prometheus exposition format (text version 0.0.4): dotted metric
//! names become underscore-mangled names under a `pbc_` prefix
//! (`serve.requests` → `pbc_serve_requests`), counters get a
//! `# TYPE … counter` header, gauges `# TYPE … gauge`. No client
//! library, no HTTP framework — the endpoint speaks just enough
//! HTTP/1.1 for a Prometheus scraper (or `curl`): it reads a request
//! head, answers `GET /metrics` with `200 text/plain`, anything else
//! with `404`, and closes the connection (`Connection: close`).
//!
//! The endpoint serves the body the last export tick published, so a
//! scrape is two syscalls, never a registry walk on the scrape path;
//! after the daemon quiesces (one tick with no traffic), scrape totals
//! are exactly the final trace counters — an equality the e2e smoke
//! test asserts.

use pbc_trace::{names, Snapshot};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Mangle a dotted trace name into a Prometheus metric name.
#[must_use]
pub fn mangle(name: &str) -> String {
    format!("pbc_{}", name.replace(|ch: char| !ch.is_ascii_alphanumeric(), "_"))
}

/// Render a snapshot in the Prometheus text exposition format.
#[must_use]
pub fn render_prometheus(snap: &Snapshot) -> String {
    let counters = snap.counters.iter().map(|(name, v)| (name, "counter", v.to_string()));
    let gauges = snap.gauges.iter().map(|(name, v)| (name, "gauge", v.to_string()));
    let mut out = String::new();
    for (name, kind, value) in counters.chain(gauges) {
        let m = mangle(name);
        let _ = writeln!(out, "# TYPE {m} {kind}\n{m} {value}");
    }
    out
}

/// The shared body cell: export ticks write, scrape threads read.
type Body = Arc<Mutex<String>>;

/// A running scrape endpoint.
pub struct PromEndpoint {
    addr: SocketAddr,
    body: Body,
    thread: std::thread::JoinHandle<()>,
}

impl PromEndpoint {
    /// The address the endpoint is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Render `snap` as the body every later scrape is answered with.
    pub fn publish(&self, snap: &Snapshot) {
        let rendered = render_prometheus(snap);
        *self.body.lock().unwrap_or_else(PoisonError::into_inner) = rendered;
    }

    /// Join the listener thread (after the shutdown flag is set).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Bind the scrape endpoint on `addr`; it answers with an empty body
/// until the first [`PromEndpoint::publish`]. The listener polls
/// `shutdown` between accepts and exits once it flips.
#[must_use = "a failed bind leaves the daemon without its scrape endpoint"]
pub fn start_endpoint(addr: &str, shutdown: Arc<AtomicBool>) -> io::Result<PromEndpoint> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let body: Body = Arc::new(Mutex::new(String::new()));
    let serve_body = Arc::clone(&body);
    let thread = std::thread::Builder::new()
        .name("pbc-serve-prom".into())
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = answer_scrape(stream, &serve_body);
                    }
                    // Nothing pending (or a failed accept): poll again.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })?;
    Ok(PromEndpoint { addr: local, body, thread })
}

/// Speak one HTTP/1.1 exchange on an accepted connection.
fn answer_scrape(mut stream: std::net::TcpStream, body: &Body) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_nonblocking(false)?;
    // Read until the end of the request head (CRLFCRLF) or the buffer
    // cap; a Prometheus GET has no body.
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() <= 8192 {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let request = String::from_utf8_lossy(&head);
    let target = request
        .lines()
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .unwrap_or("");
    let ok = request.starts_with("GET ") && (target == "/metrics" || target == "/");
    let (status, kind, text) = if ok {
        pbc_trace::counter(names::SERVE_SCRAPES).incr();
        let text = body.lock().unwrap_or_else(PoisonError::into_inner).clone();
        ("200 OK", "text/plain; version=0.0.4", text)
    } else {
        ("404 Not Found", "text/plain", "only GET /metrics lives here\n".to_string())
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {kind}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        text.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snap() -> Snapshot {
        let mut counters = BTreeMap::new();
        counters.insert("serve.requests".into(), 42u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("serve.sessions".into(), 3.0);
        Snapshot { counters, gauges, spans: Vec::new() }
    }

    #[test]
    fn mangles_dots_and_dashes() {
        assert_eq!(mangle("serve.requests"), "pbc_serve_requests");
        assert_eq!(mangle("coord.cpu.regime_a"), "pbc_coord_cpu_regime_a");
    }

    #[test]
    fn endpoint_answers_a_real_scrape() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let endpoint = start_endpoint("127.0.0.1:0", Arc::clone(&shutdown)).unwrap();
        endpoint.publish(&snap());
        let mut stream = std::net::TcpStream::connect(endpoint.addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let body = "# TYPE pbc_serve_requests counter\npbc_serve_requests 42\n\
                    # TYPE pbc_serve_sessions gauge\npbc_serve_sessions 3\n";
        assert!(response.ends_with(body), "{response}");
        // Unknown paths 404 without killing the listener.
        let mut stream = std::net::TcpStream::connect(endpoint.addr()).unwrap();
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        shutdown.store(true, Ordering::SeqCst);
        endpoint.join();
    }
}
