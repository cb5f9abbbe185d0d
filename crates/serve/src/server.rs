//! The daemon shell: TCP transport, export ticker, and graceful drain.
//!
//! [`Server::start`] binds the protocol listener (and optionally the
//! Prometheus endpoint), publishes a first snapshot, spawns the accept
//! loop and the export ticker, and returns a handle. The caller-facing
//! lifecycle is:
//!
//! ```text
//! engine ─┬─ accept thread ── one scoped handler thread per connection
//!         ├─ prometheus listener (optional)
//!         └─ export ticker (one snapshot → scrape body + trace file)
//! ```
//!
//! A handler thread is reclaimed as soon as its connection ends; the
//! accept thread's scope only waits for the ones still running.
//! [`Server::drain`] is the graceful shutdown: flip the shutdown flag,
//! let every handler finish the request it is reading (handlers poll
//! the flag on a read timeout), join accept (which leaves its handler
//! scope only once every handler has returned) and ticker, then
//! publish one final snapshot. The trace file is written through a
//! tmp-file + rename, so there is no instant at which a reader or a
//! crashed drain can observe a torn trace file.

use crate::engine::{Disposition, ServeEngine};
use crate::prom::{self, PromEndpoint};
use crate::proto::ServeError;
use pbc_trace::names;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server tuning knobs.
pub struct ServerConfig {
    /// Protocol listener address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Prometheus scrape endpoint address; `None` disables it.
    pub prom_addr: Option<String>,
    /// How often the export ticker publishes a snapshot.
    pub export_interval: Duration,
    /// Trace file every export tick rewrites; `None` writes none.
    pub snapshot: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            prom_addr: None,
            export_interval: Duration::from_millis(200),
            snapshot: None,
        }
    }
}

/// The daemon's telemetry sinks. Each export tick hands both the same
/// snapshot, so a scrape and a trace file that carry the same
/// `serve.exports` agree on every counter.
struct Sinks {
    prom: Option<PromEndpoint>,
    snapshot: Option<PathBuf>,
}

impl Sinks {
    /// Take one registry snapshot, hand it to every sink, and count the
    /// tick. Returns the trace file's write error, if any.
    fn publish(&self) -> io::Result<()> {
        let snap = pbc_trace::snapshot();
        if let Some(prom) = &self.prom {
            prom.publish(&snap);
        }
        let written =
            self.snapshot.as_deref().map_or(Ok(()), |path| pbc_trace::export(path, &snap));
        pbc_trace::counter(names::SERVE_EXPORTS).incr();
        written
    }
}

/// A running daemon.
pub struct Server {
    engine: Arc<ServeEngine>,
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
    sinks: Arc<Sinks>,
    accept_thread: JoinHandle<()>,
    export_thread: JoinHandle<()>,
}

/// How long a handler blocks in one read before re-checking the
/// shutdown flag. Partial lines survive the timeout: `serve_lines`
/// appends, so a line split across timeouts is still read whole.
const READ_POLL: Duration = Duration::from_millis(50);

impl Server {
    /// Bind, spawn the threads, and return the handle.
    #[must_use = "dropping the handle leaks the daemon threads; call drain()"]
    pub fn start(engine: Arc<ServeEngine>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let prom =
            config.prom_addr.as_deref().map(|a| prom::start_endpoint(a, Arc::clone(&shutdown)));
        let sinks = Arc::new(Sinks { prom: prom.transpose()?, snapshot: config.snapshot });
        // A scrape sent as soon as `start` returns reads the registry as
        // it stood at start-up, not an empty body. A failed trace write
        // is retried by every tick, and drain reports the last one.
        let _ = sinks.publish();

        // Export ticker: publish a snapshot every interval, polling the
        // shutdown flag at a finer grain so drain is prompt.
        let export_thread = {
            let sinks = Arc::clone(&sinks);
            let flag = Arc::clone(&shutdown);
            let interval = config.export_interval;
            thread::Builder::new()
                .name("pbc-serve-export".into())
                .spawn(move || {
                    let mut elapsed = Duration::ZERO;
                    let tick = Duration::from_millis(20).min(interval);
                    while !flag.load(Ordering::SeqCst) {
                        thread::sleep(tick);
                        elapsed += tick;
                        if elapsed >= interval {
                            elapsed = Duration::ZERO;
                            // A tick whose trace write fails (full disk)
                            // must not take the serving loop down with
                            // it; the next tick rewrites the whole file.
                            let _ = sinks.publish();
                        }
                    }
                })?
        };

        // Accept loop: each connection gets a handler thread in a scope
        // the accept thread owns. A handler's thread is released when its
        // connection ends, and leaving the scope waits for the handlers
        // still running, so drain waits for in-flight requests.
        let accept_thread = {
            let engine = Arc::clone(&engine);
            let flag = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("pbc-serve-accept".into())
                .spawn(move || {
                    let (engine, flag) = (&*engine, &*flag);
                    let open = &AtomicI64::new(0);
                    let gauge = |n: i64| {
                        #[allow(clippy::cast_precision_loss)]
                        pbc_trace::gauge(names::SERVE_OPEN_CONNECTIONS).set(n as f64);
                    };
                    thread::scope(|scope| {
                        while !flag.load(Ordering::SeqCst) {
                            let Ok((stream, _)) = listener.accept() else {
                                // Nothing pending (or a failed accept).
                                thread::sleep(Duration::from_millis(2));
                                continue;
                            };
                            pbc_trace::counter(names::SERVE_CONNECTIONS).incr();
                            gauge(open.fetch_add(1, Ordering::SeqCst) + 1);
                            let _ = thread::Builder::new()
                                .name("pbc-serve-conn".into())
                                .spawn_scoped(scope, move || {
                                    let outcome = handle_connection(engine, stream, flag);
                                    gauge(open.fetch_sub(1, Ordering::SeqCst) - 1);
                                    if outcome == Disposition::Shutdown {
                                        flag.store(true, Ordering::SeqCst);
                                    }
                                });
                        }
                    });
                })?
        };

        Ok(Server {
            engine,
            shutdown,
            local_addr,
            sinks,
            accept_thread,
            export_thread,
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
        self.sinks.prom.as_ref().map(PromEndpoint::addr)
    }

    /// Graceful shutdown: stop accepting, reject new work, wait for
    /// in-flight requests, then publish one final snapshot. Returns the
    /// final trace-file write's error, if any.
    #[must_use = "a failed drain means the final snapshot was not written"]
    pub fn drain(self) -> io::Result<()> {
        self.engine.begin_drain();
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.accept_thread.join();
        let _ = self.export_thread.join();
        // Final export after every handler has finished: the published
        // telemetry includes the last request served.
        let written = self.sinks.publish();
        if let Some(prom) = Arc::into_inner(self.sinks).and_then(|sinks| sinks.prom) {
            prom.join();
        }
        written
    }
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
