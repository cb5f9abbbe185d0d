//! `serve-agents`: node agents waiting on allocations from the daemon.
//!
//! Set-up boots `pbc-serve` (`Server::start` on loopback) and
//! provisions 1024 sessions over the wire, 256 each of four classes.
//! The load is one client thread on one connection in a closed loop:
//! it writes a batch of 64 requests, then reads and checks the 64
//! replies. The seeded mix is about half `budget` (alternating per
//! session between two in-band watt points, so every one takes the
//! `Applied` path), about 40% `observe` (echoing the allocation the
//! daemon last returned to that session) and about 10% `query`. A
//! batch never names one session twice, so every echo is current.
//!
//! The daemon is deterministic in its request stream, so the traced
//! run replays the very same stream through an in-process
//! [`ServeEngine`] to time dispatch, parse and render per request, and
//! subtracts the sampled batches' summed dispatch times from their
//! round trips to get the transport time.

use crate::hist::{Hist, SpanRing};
use crate::{derive_seed, median_seconds, thread_cpu_seconds, Args, Counters, Outcome};
use pbc_core::{sweep_budget, CurveTable, PowerBoundedProblem, DEFAULT_STEP};
use pbc_powersim::SolveMemo;
use pbc_serve::{proto, ServeEngine, Server, ServerConfig};
use pbc_trace::names;
use pbc_types::{PowerAllocation, Watts, XorShift64Star};
use pbc_workloads::by_name;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four session classes, `(platform, benchmark)`.
pub const CLASSES: [(&str, &str); 4] = [
    ("ivybridge", "stream"),
    ("haswell", "dgemm"),
    ("titan-xp", "sgemm"),
    ("titan-v", "minife"),
];
/// Sessions per class in the workload.
pub const PER_CLASS: usize = 256;
/// Requests outstanding per batch.
pub const OUTSTANDING: usize = 64;
/// Budget every session is provisioned at.
const PROVISION_W: f64 = 208.0;
/// Fresh set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Traced runs time one batch in this many.
pub const SAMPLE_EVERY: u64 = 64;
/// Spans the traced run can hold.
const SPAN_CAPACITY: usize = 1 << 14;
/// How long a reply may take before it counts as dropped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Allocation totals may exceed the budget by at most this (watts).
const BUDGET_EPS: f64 = 1e-9;

/// One provisioned class, as the client sees it.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    platform: &'static str,
    bench: &'static str,
    base: u64,
    count: u64,
    /// The two in-band budget points, low and high.
    points: [f64; 2],
    /// The allocation each budget point must be answered with: the
    /// shared curve table's optimum for that budget.
    expect: [PowerAllocation; 2],
    /// The budget points as request text.
    point_text: [String; 2],
    /// The exact reply text after `alloc <id> ` for each budget point.
    /// Floats cross the wire in shortest round-trip form, so equal text
    /// means bit-identical watts.
    expect_reply: [String; 2],
    /// `<proc> <mem>` of each expected allocation, for observe echoes.
    expect_caps: [String; 2],
}

fn io_err(what: &str, e: &std::io::Error) -> String {
    format!("{what}: {e}")
}

fn field(line: &str, key: &str) -> Option<f64> {
    line.split_ascii_whitespace()
        .find_map(|f| f.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

/// Work out a class's budget points and expected allocations from its
/// provision reply.
fn class_info(
    platform: &'static str,
    bench: &'static str,
    reply: &str,
    count: u64,
) -> Result<ClassInfo, String> {
    let (Some(base), Some(floor_w), Some(ceiling_w)) = (
        field(reply, "base="),
        field(reply, "floor="),
        field(reply, "ceiling="),
    ) else {
        return Err(format!("provision of {platform}/{bench} failed: {reply}"));
    };
    let span_w = (ceiling_w - floor_w).max(0.0);
    let points = [floor_w + span_w * 0.25, floor_w + span_w * 0.75];
    let plat = pbc_serve::session::resolve_platform(platform).map_err(|e| e.to_string())?;
    let demand = by_name(bench)
        .ok_or_else(|| format!("unknown benchmark {bench}"))?
        .demand;
    let table = CurveTable::shared(&plat, &demand).map_err(|e| e.to_string())?;
    let pick = |b: f64| {
        table
            .alloc_at(Watts::new(b))
            .ok_or_else(|| format!("{platform}/{bench}: no table allocation at {b} W"))
    };
    let expect = [pick(points[0])?, pick(points[1])?];
    for (a, b) in expect.iter().zip(points.iter()) {
        if a.proc.value() + a.mem.value() > b + BUDGET_EPS {
            return Err(format!(
                "{platform}/{bench}: table optimum {a:?} exceeds {b} W"
            ));
        }
    }
    let reply = |i: usize| {
        let (a, b) = (expect[i], points[i]);
        format!(
            "proc={} mem={} budget={b} outcome=applied",
            a.proc.value(),
            a.mem.value()
        )
    };
    let caps = |i: usize| format!("{} {}", expect[i].proc.value(), expect[i].mem.value());
    Ok(ClassInfo {
        platform,
        bench,
        base: base.round() as u64,
        count,
        points,
        expect,
        point_text: [points[0].to_string(), points[1].to_string()],
        expect_reply: [reply(0), reply(1)],
        expect_caps: [caps(0), caps(1)],
    })
}

/// A running daemon with its provisioned classes.
pub struct Daemon {
    server: Server,
    addr: SocketAddr,
    /// The provisioned classes.
    pub classes: Vec<ClassInfo>,
}

impl Daemon {
    /// Boot the daemon and provision `per_class` sessions of every
    /// class over the wire, with cold registries.
    #[must_use = "the daemon or the set-up failure"]
    pub fn start(per_class: usize) -> Result<Daemon, String> {
        CurveTable::clear_shared();
        SolveMemo::clear_shared();
        let engine = Arc::new(ServeEngine::new());
        let server = Server::start(engine, ServerConfig::default())
            .map_err(|e| io_err("starting the daemon", &e))?;
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connecting", &e))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| io_err("timeout", &e))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| io_err("cloning a stream", &e))?,
        );
        let mut writer = stream;
        let mut classes = Vec::with_capacity(CLASSES.len());
        let mut reply = String::new();
        for (platform, bench) in CLASSES {
            writeln!(
                writer,
                "provision {per_class} {platform} {bench} {PROVISION_W}"
            )
            .map_err(|e| io_err("sending provision", &e))?;
            reply.clear();
            reader
                .read_line(&mut reply)
                .map_err(|e| io_err("reading provision", &e))?;
            classes.push(class_info(
                platform,
                bench,
                reply.trim_end(),
                per_class as u64,
            )?);
        }
        writeln!(writer, "quit").map_err(|e| io_err("sending quit", &e))?;
        reply.clear();
        let _ = reader.read_line(&mut reply);
        Ok(Daemon {
            server,
            addr,
            classes,
        })
    }

    /// Drain the daemon and wait for all of its threads.
    #[must_use = "a failed drain means the daemon did not stop cleanly"]
    pub fn stop(self) -> Result<(), String> {
        self.server
            .drain()
            .map_err(|e| io_err("draining the daemon", &e))
    }
}

/// What a request asked for, so its reply can be checked.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Budget(usize),
    Observe,
    Query,
}

#[derive(Debug, Clone)]
struct Agent {
    class: usize,
    id: u64,
    next_high: bool,
    /// `<proc> <mem>` of the allocation last returned to this session
    /// by a `budget` or `observe` reply, as the daemon wrote it; empty
    /// before the first.
    last: String,
}

/// Performance surrogates an agent reports, as request text.
const PERF_TEXT: [&str; 8] = [
    "0.35", "0.42", "0.5", "0.57", "0.63", "0.71", "0.78", "0.86",
];

/// The seeded request generator and reply checker. Transport-free, so
/// the TCP loop and the in-process replay drive the same stream.
pub struct Client {
    rng: XorShift64Star,
    classes: Vec<ClassInfo>,
    agents: Vec<Agent>,
    stamp: Vec<u64>,
    batch: u64,
    slots: Vec<(usize, Kind)>,
    /// `budget` requests sent.
    pub budgets_sent: u64,
    /// `budget` replies with outcome `applied`.
    pub budgets_applied: u64,
    /// `observe` requests sent.
    pub observes_sent: u64,
    /// Replies read and checked.
    pub replies: u64,
}

impl Client {
    /// A client over `classes`, its stream fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64, classes: &[ClassInfo]) -> Self {
        let mut agents = Vec::new();
        for (ci, c) in classes.iter().enumerate() {
            for k in 0..c.count {
                agents.push(Agent {
                    class: ci,
                    id: c.base + k,
                    next_high: false,
                    last: String::with_capacity(64),
                });
            }
        }
        let n = agents.len();
        Self {
            rng: XorShift64Star::new(derive_seed(seed, 0x5E4E)),
            classes: classes.to_vec(),
            agents,
            stamp: vec![u64::MAX; n],
            batch: 0,
            slots: Vec::with_capacity(OUTSTANDING),
            budgets_sent: 0,
            budgets_applied: 0,
            observes_sent: 0,
            replies: 0,
        }
    }

    /// Batches generated so far.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batch
    }

    /// Write the next batch of request lines into `out` (cleared
    /// first). No session appears twice in a batch.
    pub fn next_batch(&mut self, out: &mut String) {
        out.clear();
        self.slots.clear();
        let n = self.agents.len();
        let want = OUTSTANDING.min(n);
        while self.slots.len() < want {
            let a = self.rng.below(n);
            if self.stamp[a] == self.batch {
                continue;
            }
            self.stamp[a] = self.batch;
            let u = self.rng.next_f64();
            let agent = &mut self.agents[a];
            let class = &self.classes[agent.class];
            let kind = if u < 0.5 {
                let which = usize::from(agent.next_high);
                agent.next_high = !agent.next_high;
                let _ = writeln!(out, "budget {} {}", agent.id, class.point_text[which]);
                self.budgets_sent += 1;
                Kind::Budget(which)
            } else if u < 0.9 {
                // The agent ran the allocation it was last given and
                // drew exactly its caps.
                let caps = if agent.last.is_empty() {
                    &class.expect_caps[0]
                } else {
                    &agent.last
                };
                let perf = PERF_TEXT[self.rng.below(PERF_TEXT.len())];
                let _ = writeln!(out, "observe {} {perf} {caps} {caps}", agent.id);
                self.observes_sent += 1;
                Kind::Observe
            } else {
                let _ = writeln!(out, "query {}", agent.id);
                Kind::Query
            };
            self.slots.push((a, kind));
        }
        self.batch += 1;
    }

    /// Requests in the current batch.
    #[must_use]
    pub fn batch_len(&self) -> usize {
        self.slots.len()
    }

    /// Check the reply to slot `slot` of the current batch.
    #[must_use = "a failed check must fail the run"]
    pub fn check(&mut self, slot: usize, line: &str) -> Result<(), String> {
        let &(a, kind) = self.slots.get(slot).ok_or("reply beyond the batch")?;
        let agent = &mut self.agents[a];
        let class = &self.classes[agent.class];
        let bad = || {
            format!(
                "session {}: unexpected reply {line:?} to {kind:?}",
                agent.id
            )
        };
        let (id, rest) = line
            .strip_prefix("alloc ")
            .and_then(|r| r.split_once(' '))
            .ok_or_else(bad)?;
        if id.parse::<u64>() != Ok(agent.id) {
            return Err(bad());
        }
        if let Kind::Budget(which) = kind {
            if rest != class.expect_reply[which] {
                return Err(format!(
                    "{}: expected the table optimum {}",
                    bad(),
                    class.expect_reply[which]
                ));
            }
            agent.last.clear();
            agent.last.push_str(&class.expect_caps[which]);
            self.budgets_applied += 1;
            self.replies += 1;
            return Ok(());
        }
        let mut it = rest.split(' ');
        let mut next = |key: &str| it.next().and_then(|f| f.strip_prefix(key));
        let (Some(p), Some(m), Some(b), Some(tag)) = (
            next("proc="),
            next("mem="),
            next("budget="),
            next("outcome="),
        ) else {
            return Err(bad());
        };
        let watts = |t: &str| t.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= 0.0);
        let (Some(proc_w), Some(mem_w), Some(budget_w)) = (watts(p), watts(m), watts(b)) else {
            return Err(bad());
        };
        if proc_w + mem_w > budget_w + BUDGET_EPS {
            return Err(format!("{}: allocation over budget", bad()));
        }
        match kind {
            Kind::Observe if tag == "used" => {
                agent.last.clear();
                agent.last.push_str(p);
                agent.last.push(' ');
                agent.last.push_str(m);
            }
            Kind::Query if tag == "best" => {}
            _ => return Err(bad()),
        }
        self.replies += 1;
        Ok(())
    }
}

/// Read and check one batch's replies from `reader`, recording each
/// reply's latency from `sent`. A missing reply fails the run.
#[must_use = "a failed check must fail the run"]
pub fn read_batch<R: BufRead>(
    reader: &mut R,
    client: &mut Client,
    line: &mut String,
    sent: Instant,
    lat: &mut Hist,
) -> Result<(), String> {
    for k in 0..client.batch_len() {
        line.clear();
        let n = reader
            .read_line(line)
            .map_err(|e| format!("reply {k} of batch {} missing: {e}", client.batches()))?;
        if n == 0 {
            return Err(format!(
                "reply {k} of batch {} missing: connection closed",
                client.batches()
            ));
        }
        lat.record_duration(sent.elapsed());
        client.check(k, line.trim_end())?;
    }
    Ok(())
}

/// What one TCP phase measured beyond the latency histogram.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// CPU share of the client thread over the phase, in percent.
    pub client_busy_pct: f64,
    /// CPU share of the daemon's connection handler, in percent.
    pub handler_busy_pct: f64,
}

/// The `/proc/self/task` entries of the daemon's connection handlers.
fn handler_tasks() -> Vec<std::path::PathBuf> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            std::fs::read_to_string(p.join("comm")).is_ok_and(|c| c.trim() == "pbc-serve-conn")
        })
        .collect()
}

fn handler_cpu_seconds() -> f64 {
    handler_tasks()
        .iter()
        .filter_map(|p| thread_cpu_seconds(&p.join("stat").to_string_lossy()))
        .sum()
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict thread `tid` (0: the calling thread) to the CPUs in `mask`.
/// A thread that has already exited is not an error.
fn set_affinity(tid: i32, mask: u64) -> Result<(), String> {
    // glibc's `cpu_set_t`: 1024 bits.
    let mut set = [0u64; 16];
    set[0] = mask;
    // SAFETY: `set` is a live, initialized buffer of exactly the size
    // passed, which the kernel only reads; the call has no other
    // memory effects.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&set), set.as_ptr()) };
    let err = std::io::Error::last_os_error();
    // ESRCH: the handler of an earlier, closed connection finished
    // between listing the threads and pinning them.
    if rc == 0 || err.raw_os_error() == Some(3) {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({tid}): {err}"))
    }
}

/// Put the client thread and the daemon's connection handler on one
/// CPU. They take turns in the closed loop, so this costs no
/// parallelism, and it keeps the scheduler from sometimes splitting
/// them across CPUs, where every hand-off is a cross-CPU wake-up: on
/// the virtual host these bounds were set on, that placement alone
/// moved throughput by up to 2.5× between runs.
fn pin_to_one_cpu() -> Result<(), String> {
    set_affinity(0, 1)?;
    for task in handler_tasks() {
        let tid = task
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse().ok());
        set_affinity(tid.ok_or("unreadable task id")?, 1)?;
    }
    Ok(())
}

/// Drive the daemon over one connection until `until`. When `spans` is
/// given, one batch in [`SAMPLE_EVERY`] records its round trip there,
/// under the batch number as its id.
#[must_use = "the phase statistics or the failed check"]
pub fn tcp_phase(
    addr: SocketAddr,
    client: &mut Client,
    until: Instant,
    lat: &mut Hist,
    mut spans: Option<&mut SpanRing>,
) -> Result<PhaseStats, String> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connecting", &e))?;
    stream
        .set_nodelay(true)
        .map_err(|e| io_err("nodelay", &e))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| io_err("timeout", &e))?;
    let mut reader = BufReader::with_capacity(
        1 << 16,
        stream
            .try_clone()
            .map_err(|e| io_err("cloning a stream", &e))?,
    );
    let mut writer = stream;
    let mut line = String::with_capacity(128);
    // One round trip first, so the handler thread exists before it is
    // pinned and its CPU time is read.
    writer
        .write_all(b"ping\n")
        .map_err(|e| io_err("sending ping", &e))?;
    reader
        .read_line(&mut line)
        .map_err(|e| io_err("reading ping", &e))?;
    pin_to_one_cpu()?;
    let mut batch = String::with_capacity(OUTSTANDING * 80);
    let started = Instant::now();
    let client_cpu0 = thread_cpu_seconds("/proc/thread-self/stat").unwrap_or(0.0);
    let handler_cpu0 = handler_cpu_seconds();
    while Instant::now() < until {
        client.next_batch(&mut batch);
        let id = client.batches() - 1;
        let sent = Instant::now();
        writer
            .write_all(batch.as_bytes())
            .map_err(|e| io_err("sending a batch", &e))?;
        read_batch(&mut reader, client, &mut line, sent, lat)?;
        if let Some(ring) = spans.as_deref_mut() {
            if id.is_multiple_of(SAMPLE_EVERY) {
                ring.record(id, "serve.batch", sent.elapsed());
            }
        }
    }
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let client_cpu = thread_cpu_seconds("/proc/thread-self/stat").unwrap_or(0.0) - client_cpu0;
    let handler_cpu = handler_cpu_seconds() - handler_cpu0;
    let stats = PhaseStats {
        client_busy_pct: 100.0 * client_cpu / wall,
        handler_busy_pct: 100.0 * handler_cpu / wall,
    };
    set_affinity(0, u64::MAX)?;
    writer
        .write_all(b"quit\n")
        .map_err(|e| io_err("sending quit", &e))?;
    line.clear();
    let _ = reader.read_line(&mut line);
    Ok(stats)
}

/// Sessions per class of the stand-in daemon other workloads' traced
/// runs time the serve layer on.
const PROBE_PER_CLASS: usize = 16;

/// Time the serve layer on a small daemon for a traced run of a
/// workload that does not exercise it.
#[must_use = "the probe's failure must fail the run"]
pub fn probe(out: &mut Outcome, measure: Duration) -> Result<(), String> {
    let daemon = Daemon::start(PROBE_PER_CLASS)?;
    let r = traced(&daemon, 1, Duration::ZERO, measure, out);
    daemon.stop()?;
    r.map(|_| ())
}

/// Mean, over the classes' budget points, of the served allocation's
/// performance over the exhaustive oracle's at the same budget.
fn oracle_ratio(classes: &[ClassInfo]) -> Result<f64, String> {
    let mut sum = 0.0;
    let mut n = 0.0;
    for c in classes {
        let plat = pbc_serve::session::resolve_platform(c.platform).map_err(|e| e.to_string())?;
        let demand = by_name(c.bench).ok_or("unknown benchmark")?.demand;
        for (b, alloc) in c.points.iter().zip(c.expect.iter()) {
            let problem = PowerBoundedProblem::new(plat.clone(), demand.clone(), Watts::new(*b))
                .map_err(|e| e.to_string())?;
            let best = sweep_budget(&problem, DEFAULT_STEP)
                .map_err(|e| e.to_string())?
                .perf_max();
            let served = pbc_powersim::solve(&plat, &demand, *alloc)
                .map_err(|e| e.to_string())?
                .perf_rel;
            if best <= 0.0 {
                return Err(format!(
                    "{}/{}: oracle finds nothing at {b} W",
                    c.platform, c.bench
                ));
            }
            sum += served / best;
            n += 1.0;
        }
    }
    Ok(sum / n)
}

/// Check the serving law over a run: every request was answered, none
/// rejected.
fn check_serving_law(before: &Counters, sent: u64) -> Result<(), String> {
    let requests = before.delta(names::SERVE_REQUESTS);
    let served = before.delta(names::SERVE_SERVED_REQUESTS);
    let rejected = before.delta(names::SERVE_REJECTED_REQUESTS);
    if served + rejected != requests {
        return Err(format!(
            "served {served} + rejected {rejected} != requests {requests}"
        ));
    }
    if rejected != 0 || requests < sent {
        return Err(format!(
            "{rejected} requests rejected, {requests} counted for {sent} sent"
        ));
    }
    Ok(())
}

/// Run the workload.
#[must_use = "the outcome or the failed check"]
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        let daemon = Daemon::start(PER_CLASS)?;
        let half = args.measure / 2;
        let served = traced(&daemon, args.seed, half, half, &mut out)?;
        daemon.stop()?;
        out.attempted = served;
        crate::layers::common(
            &mut out,
            crate::layers::Skip::Serve,
            PER_CLASS * CLASSES.len(),
        )?;
        return Ok(out);
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t0 = Instant::now();
        let d = Daemon::start(PER_CLASS)?;
        setups.push(t0.elapsed());
        daemon = Some(d);
    }
    let daemon = daemon.ok_or("no set-up ran")?;
    let mut client = Client::new(args.seed, &daemon.classes);
    let mut lat = Hist::new();
    let before = Counters::now();
    tcp_phase(
        daemon.addr,
        &mut client,
        Instant::now() + args.measure,
        &mut lat,
        None,
    )?;
    check_serving_law(&before, client.replies)?;
    daemon.stop()?;
    out.attempted = client.replies;
    out.set("setup_s", median_seconds(&setups));
    out.set("latency_p90_us", lat.quantile(0.9) / 1e3);
    out.set("work_ratio", 1.0);
    out.set("oracle_ratio", oracle_ratio(&client.classes)?);
    crate::finish_common(&mut out);
    Ok(out)
}

/// The serve layers of a traced run: `untraced` of plain load, then
/// `traced` of load with one batch in [`SAMPLE_EVERY`] recorded, then
/// an in-process replay of the same stream timing dispatch, parse and
/// render. Sets the `serve.*`, serve-side `core.*` and `trace.*`
/// metrics and returns the replies checked over TCP.
#[must_use = "the replies checked or the failed check"]
pub fn traced(
    daemon: &Daemon,
    seed: u64,
    untraced: Duration,
    traced: Duration,
    out: &mut Outcome,
) -> Result<u64, String> {
    let mut client = Client::new(seed, &daemon.classes);
    let before = Counters::now();
    let mut lat_u = Hist::new();
    if !untraced.is_zero() {
        tcp_phase(
            daemon.addr,
            &mut client,
            Instant::now() + untraced,
            &mut lat_u,
            None,
        )?;
    }
    let first_traced = client.batches();
    let mut lat_t = Hist::new();
    let mut ring = SpanRing::with_capacity(SPAN_CAPACITY);
    let stats = tcp_phase(
        daemon.addr,
        &mut client,
        Instant::now() + traced,
        &mut lat_t,
        Some(&mut ring),
    )?;
    check_serving_law(&before, client.replies)?;
    crate::layers::counters(out, &before);
    let rejected_obs = before.delta(names::ONLINE_REJECTED_OBSERVATIONS);
    out.set("core.budgets_sent", client.budgets_sent as f64);
    out.set(
        "core.budget_applied_ratio",
        client.budgets_applied as f64 / client.budgets_sent.max(1) as f64,
    );
    out.set("core.observations_sent", client.observes_sent as f64);
    out.set(
        "core.observation_used_ratio",
        client.observes_sent.saturating_sub(rejected_obs) as f64
            / client.observes_sent.max(1) as f64,
    );
    out.set("serve.client_busy_pct", stats.client_busy_pct);
    out.set("serve.handler_busy_pct", stats.handler_busy_pct);
    out.set("serve.rtt_us.p999", lat_t.quantile(0.999) / 1e3);
    let traced_p90 = lat_t.quantile(0.9) / 1e3;
    let untraced_p90 = if untraced.is_zero() {
        traced_p90
    } else {
        lat_u.quantile(0.9) / 1e3
    };
    out.set("trace.untraced_p90_us", untraced_p90);
    out.set("trace.traced_p90_us", traced_p90);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_p90 - untraced_p90) / untraced_p90.max(1e-9),
    );
    replay(daemon, seed, first_traced, client.batches(), &mut ring, out)?;
    out.set("trace.spans_recorded", ring.recorded() as f64);
    out.set("trace.spans_dropped", ring.dropped() as f64);
    Ok(client.replies)
}

/// Replay batches `0..end` of the stream through a fresh in-process
/// engine provisioned like the daemon, timing every request of the
/// sampled batches at or after `first`.
fn replay(
    daemon: &Daemon,
    seed: u64,
    first: u64,
    end: u64,
    ring: &mut SpanRing,
    out: &mut Outcome,
) -> Result<(), String> {
    let engine = ServeEngine::new();
    let mut resp = String::with_capacity(128);
    for c in &daemon.classes {
        let line = format!(
            "provision {} {} {} {PROVISION_W}",
            c.count, c.platform, c.bench
        );
        engine.dispatch_into(&line, &mut resp);
        let base = field(&resp, "base=").map(|b| b.round() as u64);
        if base != Some(c.base) {
            return Err(format!("replay provision differs: {resp}"));
        }
    }
    let mut client = Client::new(seed, &daemon.classes);
    let (mut dispatch, mut parse, mut render) = (Hist::new(), Hist::new(), Hist::new());
    // Round trips and replayed dispatch sums of the same sampled
    // batches; transport is the difference of their quantiles, which
    // may read negative when the two are within noise of each other.
    let (mut rtts, mut sums) = (Hist::new(), Hist::new());
    let mut batch = String::with_capacity(OUTSTANDING * 80);
    let mut rendered = String::with_capacity(128);
    for id in 0..end {
        client.next_batch(&mut batch);
        let sampled = id >= first && id.is_multiple_of(SAMPLE_EVERY);
        let mut sum = Duration::ZERO;
        for (k, line) in batch.lines().enumerate() {
            if sampled {
                let t0 = Instant::now();
                engine.dispatch_into(line, &mut resp);
                let dt = t0.elapsed();
                dispatch.record_duration(dt);
                sum += dt;
                let t0 = Instant::now();
                let parsed = std::hint::black_box(proto::parse(std::hint::black_box(line)));
                parse.record_duration(t0.elapsed());
                if parsed.is_err() {
                    return Err(format!("replayed line does not parse: {line}"));
                }
                if let Some(alloc) = proto::parse_alloc_line(&resp) {
                    rendered.clear();
                    let t0 = Instant::now();
                    proto::render_alloc(
                        &mut rendered,
                        id,
                        alloc,
                        Watts::new(PROVISION_W),
                        "applied",
                    );
                    render.record_duration(t0.elapsed());
                    std::hint::black_box(&rendered);
                }
            } else {
                engine.dispatch_into(line, &mut resp);
            }
            client
                .check(k, &resp)
                .map_err(|e| format!("replay diverged: {e}"))?;
        }
        if sampled {
            ring.record(id, "serve.dispatch_sum", sum);
            if let (Some(rtt), Some(d)) = (
                ring.sum_for(id, "serve.batch"),
                ring.sum_for(id, "serve.dispatch_sum"),
            ) {
                rtts.record(rtt);
                sums.record(d);
            }
        }
    }
    out.set("serve.dispatch_ns.p50", dispatch.quantile(0.5));
    out.set("serve.dispatch_ns.p99", dispatch.quantile(0.99));
    out.set("serve.parse_ns.p50", parse.quantile(0.5));
    out.set("serve.render_ns.p50", render.quantile(0.5));
    for (name, q) in [
        ("serve.transport_us.p50", 0.5),
        ("serve.transport_us.p99", 0.99),
    ] {
        out.set(name, (rtts.quantile(q) - sums.quantile(q)) / 1e3);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<ClassInfo> {
        let engine = ServeEngine::new();
        let mut reply = String::new();
        engine.dispatch_into("provision 4 ivybridge stream 208", &mut reply);
        vec![class_info("ivybridge", "stream", &reply, 4).unwrap()]
    }

    #[test]
    fn a_seed_fixes_the_stream_and_another_seed_changes_it() {
        let c = classes();
        let batch = |seed| {
            let mut client = Client::new(seed, &c);
            let mut s = String::new();
            client.next_batch(&mut s);
            s
        };
        assert_eq!(batch(7), batch(7));
        assert_ne!(batch(7), batch(8));
    }

    #[test]
    fn a_dropped_reply_fails_the_batch() {
        let c = classes();
        let mut client = Client::new(1, &c);
        let mut s = String::new();
        client.next_batch(&mut s);
        // Answer every request but the last one, then hang up.
        let engine = ServeEngine::new();
        let mut resp = String::new();
        engine.dispatch_into("provision 4 ivybridge stream 208", &mut resp);
        let mut replies = String::new();
        let n = s.lines().count();
        for line in s.lines().take(n - 1) {
            engine.dispatch_into(line, &mut resp);
            replies.push_str(&resp);
            replies.push('\n');
        }
        let mut lat = Hist::new();
        let mut line = String::new();
        let mut reader = std::io::Cursor::new(replies.into_bytes());
        let err = read_batch(
            &mut reader,
            &mut client,
            &mut line,
            Instant::now(),
            &mut lat,
        );
        assert!(err.unwrap_err().contains("missing"));
    }

    #[test]
    fn a_wrong_reply_fails_the_check() {
        let c = classes();
        let mut client = Client::new(3, &c);
        let mut s = String::new();
        client.next_batch(&mut s);
        assert!(client
            .check(0, "err unknown-node no session with id 0")
            .is_err());
        let id = client.agents[client.slots[0].0].id;
        let over = format!("alloc {id} proc=150 mem=150 budget=200 outcome=best");
        assert!(client.check(0, &over).is_err());
    }
}
