//! The daemon shell: TCP transport, export ticker, and graceful drain.
//!
//! [`Server::start`] binds the protocol listener (and optionally the
//! Prometheus endpoint), spawns the accept loop and the export ticker,
//! and returns a handle. The caller-facing lifecycle is:
//!
//! ```text
//! engine ─┬─ accept thread ── one handler thread per connection
//!         ├─ prometheus listener (optional)
//!         └─ export ticker (snapshot → every exporter, each interval)
//! ```
//!
//! [`Server::drain`] is the graceful shutdown contract the satellite
//! task demands: flip the shutdown flag, let every handler finish the
//! request it is reading (handlers poll the flag on a read timeout),
//! join accept + handlers + ticker, then run one final export pass and
//! flush every exporter. The trace-snapshot exporter writes through a
//! tmp-file + rename, so there is no instant at which a scraping reader
//! or a crashed drain can observe a torn trace file.

use crate::engine::{Disposition, ServeEngine};
use crate::exporter::Exporter;
use crate::prom::{self, PromEndpoint};
use crate::proto::ServeError;
use pbc_trace::names;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
pub struct ServerConfig {
    /// Protocol listener address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Prometheus scrape endpoint address; `None` disables it.
    pub prom_addr: Option<String>,
    /// How often the export ticker publishes a snapshot.
    pub export_interval: Duration,
    /// The exporter fleet (the Prometheus exporter is added internally
    /// when `prom_addr` is set).
    pub exporters: Vec<Box<dyn Exporter>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            prom_addr: None,
            export_interval: Duration::from_millis(200),
            exporters: Vec::new(),
        }
    }
}

/// A running daemon.
pub struct Server {
    engine: Arc<ServeEngine>,
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
    prom: Option<PromEndpoint>,
    accept_thread: Option<JoinHandle<()>>,
    export_thread: Option<JoinHandle<()>>,
    exporters: Arc<Mutex<Vec<Box<dyn Exporter>>>>,
}

/// How long a handler blocks in one read before re-checking the
/// shutdown flag. Partial lines survive the timeout: `serve_lines`
/// appends, so a line split across timeouts is still read whole.
const READ_POLL: Duration = Duration::from_millis(50);

impl Server {
    /// Bind, spawn the threads, and return the handle.
    #[must_use = "dropping the handle leaks the daemon threads; call drain()"]
    pub fn start(engine: Arc<ServeEngine>, mut config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let prom = match &config.prom_addr {
            Some(addr) => {
                let (exporter, endpoint) = prom::start_endpoint(addr, Arc::clone(&shutdown))?;
                config.exporters.push(Box::new(exporter));
                Some(endpoint)
            }
            None => None,
        };
        let exporters = Arc::new(Mutex::new(config.exporters));

        // Export ticker: publish a snapshot every interval, polling the
        // shutdown flag at a finer grain so drain is prompt.
        let export_thread = {
            let exporters = Arc::clone(&exporters);
            let flag = Arc::clone(&shutdown);
            let interval = config.export_interval;
            std::thread::Builder::new()
                .name("pbc-serve-export".into())
                .spawn(move || {
                    let mut elapsed = Duration::ZERO;
                    let tick = Duration::from_millis(20).min(interval);
                    while !flag.load(Ordering::SeqCst) {
                        std::thread::sleep(tick);
                        elapsed += tick;
                        if elapsed >= interval {
                            elapsed = Duration::ZERO;
                            export_once(&exporters);
                        }
                    }
                })?
        };

        // Accept loop: hand each connection its own handler thread and
        // join them all on the way out, so drain waits for in-flight
        // requests.
        let accept_thread = {
            let engine = Arc::clone(&engine);
            let flag = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("pbc-serve-accept".into())
                .spawn(move || {
                    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                    let open = Arc::new(AtomicI64::new(0));
                    while !flag.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                pbc_trace::counter(names::SERVE_CONNECTIONS).incr();
                                let engine = Arc::clone(&engine);
                                let flag = Arc::clone(&flag);
                                let open = Arc::clone(&open);
                                let gauge = |n: i64| {
                                    #[allow(clippy::cast_precision_loss)]
                                    pbc_trace::gauge(names::SERVE_OPEN_CONNECTIONS)
                                        .set(n as f64);
                                };
                                gauge(open.fetch_add(1, Ordering::SeqCst) + 1);
                                let spawned = std::thread::Builder::new()
                                    .name("pbc-serve-conn".into())
                                    .spawn(move || {
                                        let outcome = handle_connection(&engine, stream, &flag);
                                        gauge(open.fetch_sub(1, Ordering::SeqCst) - 1);
                                        if outcome == Disposition::Shutdown {
                                            flag.store(true, Ordering::SeqCst);
                                        }
                                    });
                                if let Ok(t) = spawned {
                                    handlers.push(t);
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(2)),
                        }
                    }
                    for t in handlers {
                        let _ = t.join();
                    }
                })?
        };

        Ok(Server {
            engine,
            shutdown,
            local_addr,
            prom,
            accept_thread: Some(accept_thread),
            export_thread: Some(export_thread),
            exporters,
        })
    }

    /// The protocol listener's bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The Prometheus endpoint's bound address, when enabled.
    #[must_use]
    pub fn prom_addr(&self) -> Option<SocketAddr> {
        self.prom.as_ref().map(PromEndpoint::addr)
    }

    /// Graceful shutdown: stop accepting, reject new work, wait for
    /// in-flight requests, then publish and flush one final snapshot.
    #[must_use = "a failed drain means exporters were not flushed"]
    pub fn drain(mut self) -> io::Result<()> {
        self.engine.begin_drain();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.export_thread.take() {
            let _ = t.join();
        }
        if let Some(p) = self.prom.take() {
            p.join();
        }
        // Final export after every handler has finished: the published
        // telemetry includes the last request served.
        export_once(&self.exporters);
        let mut exporters = self.exporters.lock().unwrap_or_else(PoisonError::into_inner);
        for e in exporters.iter_mut() {
            e.flush()?;
        }
        Ok(())
    }
}

/// One export pass over the exporter fleet.
fn export_once(exporters: &Arc<Mutex<Vec<Box<dyn Exporter>>>>) {
    let snap = pbc_trace::snapshot();
    let mut fleet = exporters.lock().unwrap_or_else(PoisonError::into_inner);
    for e in fleet.iter_mut() {
        // An exporter whose sink fails (closed pipe, full disk) must
        // not take the serving loop down with it; the tick is retried
        // at the next interval.
        let _ = e.export(&snap);
    }
    drop(fleet);
    pbc_trace::counter(names::SERVE_EXPORTS).incr();
}

/// Serve one protocol connection until quit/EOF/shutdown.
fn handle_connection(
    engine: &ServeEngine,
    stream: TcpStream,
    shutdown: &AtomicBool,
) -> Disposition {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else {
        return Disposition::Quit;
    };
    serve_lines(engine, BufReader::new(stream), BufWriter::new(write_half), shutdown)
}

/// Longest request line the daemon reads, newline included. The bytes
/// of a longer line past the cap are dropped as they arrive instead of
/// buffered, so one connection cannot make the daemon hold more than
/// this much of a request; the line is answered `err bad-request` once
/// it ends and the connection keeps serving.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The one request loop, for TCP connections and `pbc serve`'s stdin
/// session: answer each non-blank line of `reader` on `writer`. Returns
/// `Shutdown` after the `shutdown` verb; `Quit` at EOF, `quit`, a line
/// that is not UTF-8, a failed read or write, or a read timeout that
/// finds `shutdown` set.
pub fn serve_lines<R: Read, W: Write>(
    engine: &ServeEngine,
    mut reader: BufReader<R>,
    mut writer: W,
    shutdown: &AtomicBool,
) -> Disposition {
    let mut line = Vec::new();
    let mut response = String::new();
    // Set when `line` fills to the cap with no newline: the rest of the
    // line is then skipped, not read into `line`.
    let mut overlong = false;
    loop {
        // `line` is cleared only after a complete dispatch: `read_until`
        // appends, so a line split across read timeouts accumulates
        // until its newline arrives.
        let read = if overlong {
            reader.skip_until(b'\n')
        } else {
            let room = MAX_LINE_BYTES - line.len();
            (&mut reader).take(room as u64).read_until(b'\n', &mut line)
        };
        let disposition = match read {
            Ok(0) if !overlong => break Disposition::Quit, // client closed
            Ok(_) if overlong => {
                let err = format!("request line longer than {MAX_LINE_BYTES} bytes");
                engine.reject_into(&ServeError::Malformed(err), &mut response);
                Disposition::Respond
            }
            Ok(_) if line.len() == MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                overlong = true;
                continue;
            }
            Ok(_) => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    break Disposition::Quit;
                };
                if text.trim().is_empty() {
                    line.clear();
                    continue;
                }
                engine.dispatch_into(text, &mut response)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle (or mid-line) read timeout: flush anything
                // buffered and re-check the shutdown flag. Any partial
                // line stays in `line` for the next read to extend.
                let _ = writer.flush();
                if shutdown.load(Ordering::SeqCst) {
                    break Disposition::Quit;
                }
                continue;
            }
            Err(_) => break Disposition::Quit,
        };
        line.clear();
        overlong = false;
        if writeln!(writer, "{response}").is_err() {
            break Disposition::Quit;
        }
        // Flush only when no further request is already buffered — this
        // is what lets a pipelining client amortize syscalls over a
        // whole batch.
        if reader.buffer().is_empty() && writer.flush().is_err() {
            break Disposition::Quit;
        }
        if disposition != Disposition::Respond {
            let _ = writer.flush();
            break disposition;
        }
    }
}
