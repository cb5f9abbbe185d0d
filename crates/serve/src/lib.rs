//! # pbc-serve
//!
//! The coordination daemon: the paper's COORD policy, served
//! continuously instead of run as a batch CLI.
//!
//! Every other path in the workspace answers one question and exits;
//! `pbc serve` keeps thousands of [`OnlineCoordinator`]-backed sessions
//! live behind a dependency-free line protocol (TCP and stdin), turns
//! PR 7's sub-microsecond fast paths into sustained queries/sec, and
//! publishes telemetry every export tick instead of waiting for process
//! exit: one registry snapshot per tick feeds both a hand-rolled
//! Prometheus scrape endpoint and an atomically rewritten trace file.
//!
//! The layering, transport-independent core first:
//!
//! * [`proto`] — the wire grammar: parse request lines, render
//!   response lines, typed [`ServeError`] rejections. Floats cross the
//!   wire via Rust's shortest round-trip `Display`, making replayed
//!   responses bit-identical to offline coordinator calls.
//! * [`session`] — one coordination session: an `OnlineCoordinator`
//!   seeded from the shared [`CurveTable`] fast path, built by a fixed
//!   public recipe any offline replayer can mirror.
//! * [`engine`] — protocol dispatch over the live session map; the
//!   serving counter law `serve.requests == serve.served_requests +
//!   serve.rejected_requests` is enforced here.
//! * [`prom`] — the Prometheus scrape endpoint, one of the two
//!   telemetry sinks (the trace file is `pbc_trace::export`).
//! * [`server`] — the daemon shell: TCP accept loop, export ticker,
//!   graceful drain (stop accepting → finish in-flight → final
//!   snapshot, no torn trace files).
//! * [`hist`] / [`bench`] — the dependency-free log-bucketed latency
//!   histogram and the `pbc serve-bench` load generator behind
//!   `BENCH_serve.json`.
//!
//! Protocol grammar, telemetry, and bench methodology are documented
//! in `docs/SERVING.md`.
//!
//! [`OnlineCoordinator`]: pbc_core::OnlineCoordinator
//! [`CurveTable`]: pbc_core::CurveTable
//! [`ServeError`]: proto::ServeError

pub mod bench;
pub mod engine;
pub mod hist;
pub mod prom;
pub mod proto;
pub mod server;
pub mod session;

pub use bench::{run_serve_bench, BenchConfig, BenchReport};
pub use engine::{Disposition, ServeEngine};
pub use hist::LatencyHistogram;
pub use prom::render_prometheus;
pub use proto::{parse, parse_alloc_line, Request, ServeError};
pub use server::{serve_lines, Server, ServerConfig, MAX_LINE_BYTES};
pub use session::Session;
