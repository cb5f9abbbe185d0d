//! The wire protocol: newline-delimited text requests, one response line
//! per request.
//!
//! The grammar is deliberately hand-rolled and dependency-free (see
//! `docs/SERVING.md` for the full grammar): a request is one line of
//! space-separated fields, the first field names the verb. Responses are
//! single lines too — `ok …` / `alloc …` for served requests, `err
//! <code> <detail>` for rejected ones. Floats cross the wire through
//! Rust's shortest round-trip `Display`/`FromStr` pair, so an allocation
//! parsed back from a response line is **bit-identical** to the one the
//! coordinator produced — the property the replay-equivalence test
//! holds the daemon to.
//!
//! Malformed input is a first-class citizen: every way a line can be
//! wrong maps to a typed [`ServeError`] (mirroring the observation /
//! budget validation the `OnlineCoordinator` already does), is counted
//! under `serve.rejected_requests`, and answers with an `err` line —
//! never by killing the session or the connection.

use pbc_cluster::MAX_NODES;
use pbc_types::{PowerAllocation, Watts};
use std::fmt;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `node <id> <platform> <bench> <budget-watts>` — open one
    /// coordination session.
    Node { id: u64, platform: String, bench: String, budget: f64 },
    /// `provision <count> <platform> <bench> <budget-watts>` — open
    /// `count` sessions in one pooled job; ids are assigned
    /// consecutively and reported in the response.
    Provision { count: usize, platform: String, bench: String, budget: f64 },
    /// `budget <id> <watts>` — re-target the session's budget; responds
    /// with the allocation to apply next.
    Budget { id: u64, watts: f64 },
    /// `observe <id> <perf> <proc-w> <mem-w> <cap-proc> <cap-mem>` —
    /// report the operating point observed while running the last
    /// allocation; responds with the verdict and the next allocation.
    Observe { id: u64, perf: f64, proc_w: f64, mem_w: f64, cap_proc: f64, cap_mem: f64 },
    /// `query <id>` — read-only: the session's best-known allocation.
    Query { id: u64 },
    /// `free <id>` — close one session.
    Free { id: u64 },
    /// `fleet init <global-watts> <count>:<platform>:<bench>[,…]
    /// [obj=<objective>] [tenants=<name>:<weight>[:<sla>][,…]]` — boot
    /// the fleet coordinator under one global budget, optionally with a
    /// fairness objective and a co-located tenant set.
    FleetInit { global: f64, spec: String, objective: Option<String>, tenants: Option<String> },
    /// `fleet budget <watts>` — re-negotiate the global fleet budget.
    FleetBudget { watts: f64 },
    /// `fleet query` — enforced per-node caps of the fleet.
    FleetQuery,
    /// `stats` — one-line serving counters snapshot.
    Stats,
    /// `ping` — liveness probe.
    Ping,
    /// `quit` — close this connection (control plane; not counted as a
    /// serving request).
    Quit,
    /// `shutdown` — drain the whole daemon (control plane).
    Shutdown,
}

/// Typed rejection reasons, mirrored onto `err <code> <detail>` wire
/// lines. Every variant is counted under `serve.rejected_requests`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The line did not parse: unknown verb, wrong arity, or a field
    /// that is not a number where one was required.
    Malformed(String),
    /// No session with this id.
    UnknownNode(u64),
    /// A session with this id already exists.
    NodeExists(u64),
    /// The platform slug is not a known preset.
    UnknownPlatform(String),
    /// The benchmark slug is not in the workload suite.
    UnknownBench(String),
    /// `set_budget` refused the value (non-finite, non-positive, or
    /// below the platform floor) — the session keeps its old budget.
    RejectedBudget(String),
    /// Observation validation refused the reported operating point
    /// (non-finite, out of physical range, or stale caps) — the probe
    /// is voided and will be re-proposed.
    RejectedObservation(String),
    /// Building a session or fleet failed in the solver/profiler layer.
    Build(String),
    /// The fleet coordinator is not initialized (or already is).
    FleetState(String),
    /// The daemon is draining; no new work is accepted.
    ShuttingDown,
}

impl ServeError {
    /// Stable machine-readable code, the second wire field of an `err`
    /// line.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Malformed(_) => "bad-request",
            ServeError::UnknownNode(_) => "unknown-node",
            ServeError::NodeExists(_) => "node-exists",
            ServeError::UnknownPlatform(_) => "unknown-platform",
            ServeError::UnknownBench(_) => "unknown-bench",
            ServeError::RejectedBudget(_) => "rejected-budget",
            ServeError::RejectedObservation(_) => "rejected-observation",
            ServeError::Build(_) => "build-failed",
            ServeError::FleetState(_) => "fleet-state",
            ServeError::ShuttingDown => "shutting-down",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Malformed(d) => write!(f, "{d}"),
            ServeError::UnknownNode(id) => write!(f, "no session with id {id}"),
            ServeError::NodeExists(id) => write!(f, "session {id} already exists"),
            ServeError::UnknownPlatform(s) => {
                write!(f, "platform {s:?}; known: ivybridge, haswell, titan-xp, titan-v")
            }
            ServeError::UnknownBench(s) => write!(f, "benchmark {s:?}; see `pbc benchmarks`"),
            ServeError::RejectedBudget(d) => write!(f, "{d}"),
            ServeError::RejectedObservation(d) => write!(f, "{d}"),
            ServeError::Build(d) => write!(f, "{d}"),
            ServeError::FleetState(d) => write!(f, "{d}"),
            ServeError::ShuttingDown => write!(f, "daemon is draining"),
        }
    }
}

fn parse_f64(field: &str, what: &str) -> Result<f64, ServeError> {
    field
        .parse::<f64>()
        .map_err(|_| ServeError::Malformed(format!("{what} {field:?} is not a number")))
}

fn parse_u64(field: &str, what: &str) -> Result<u64, ServeError> {
    field
        .parse::<u64>()
        .map_err(|_| ServeError::Malformed(format!("{what} {field:?} is not an unsigned integer")))
}

/// Parse one request line. Leading/trailing whitespace is ignored;
/// empty lines are malformed (callers usually skip them before parsing).
#[must_use = "an Err is a typed protocol rejection that must be answered, not dropped"]
pub fn parse(line: &str) -> Result<Request, ServeError> {
    let mut it = line.split_ascii_whitespace();
    let Some(verb) = it.next() else {
        return Err(ServeError::Malformed("empty request line".into()));
    };
    let fields: Vec<&str> = it.collect();
    let arity = |n: usize| -> Result<(), ServeError> {
        if fields.len() == n {
            Ok(())
        } else {
            Err(ServeError::Malformed(format!(
                "{verb} takes {n} field(s), got {}",
                fields.len()
            )))
        }
    };
    match verb {
        "node" => {
            arity(4)?;
            Ok(Request::Node {
                id: parse_u64(fields[0], "node id")?,
                platform: fields[1].to_string(),
                bench: fields[2].to_string(),
                budget: parse_f64(fields[3], "budget")?,
            })
        }
        "provision" => {
            arity(4)?;
            let count = parse_u64(fields[0], "count")?;
            if !(1..=MAX_NODES as u64).contains(&count) {
                return Err(ServeError::Malformed(format!(
                    "provision count must be 1..={MAX_NODES}, got {count}"
                )));
            }
            Ok(Request::Provision {
                count: count as usize,
                platform: fields[1].to_string(),
                bench: fields[2].to_string(),
                budget: parse_f64(fields[3], "budget")?,
            })
        }
        "budget" => {
            arity(2)?;
            Ok(Request::Budget {
                id: parse_u64(fields[0], "node id")?,
                watts: parse_f64(fields[1], "budget")?,
            })
        }
        "observe" => {
            arity(6)?;
            Ok(Request::Observe {
                id: parse_u64(fields[0], "node id")?,
                perf: parse_f64(fields[1], "perf")?,
                proc_w: parse_f64(fields[2], "proc power")?,
                mem_w: parse_f64(fields[3], "mem power")?,
                cap_proc: parse_f64(fields[4], "proc cap")?,
                cap_mem: parse_f64(fields[5], "mem cap")?,
            })
        }
        "query" => {
            arity(1)?;
            Ok(Request::Query { id: parse_u64(fields[0], "node id")? })
        }
        "free" => {
            arity(1)?;
            Ok(Request::Free { id: parse_u64(fields[0], "node id")? })
        }
        "fleet" => match fields.first().copied() {
            Some("init") => {
                if !(3..=5).contains(&fields.len()) {
                    return Err(ServeError::Malformed(
                        "fleet init takes <global-watts> <spec> [obj=<objective>] \
                         [tenants=<spec>]"
                            .into(),
                    ));
                }
                let mut objective = None;
                let mut tenants = None;
                for extra in &fields[3..] {
                    if let Some(name) = extra.strip_prefix("obj=") {
                        if objective.replace(name.to_string()).is_some() {
                            return Err(ServeError::Malformed("duplicate obj= field".into()));
                        }
                    } else if let Some(spec) = extra.strip_prefix("tenants=") {
                        if tenants.replace(spec.to_string()).is_some() {
                            return Err(ServeError::Malformed("duplicate tenants= field".into()));
                        }
                    } else {
                        return Err(ServeError::Malformed(format!(
                            "unknown fleet init field {extra:?}; known: obj=, tenants="
                        )));
                    }
                }
                Ok(Request::FleetInit {
                    global: parse_f64(fields[1], "global budget")?,
                    spec: fields[2].to_string(),
                    objective,
                    tenants,
                })
            }
            Some("budget") => {
                if fields.len() != 2 {
                    return Err(ServeError::Malformed("fleet budget takes <watts>".into()));
                }
                Ok(Request::FleetBudget { watts: parse_f64(fields[1], "global budget")? })
            }
            Some("query") => {
                if fields.len() != 1 {
                    return Err(ServeError::Malformed("fleet query takes no fields".into()));
                }
                Ok(Request::FleetQuery)
            }
            other => Err(ServeError::Malformed(format!(
                "unknown fleet subcommand {other:?}; known: init, budget, query"
            ))),
        },
        "stats" => {
            arity(0)?;
            Ok(Request::Stats)
        }
        "ping" => {
            arity(0)?;
            Ok(Request::Ping)
        }
        "quit" => {
            arity(0)?;
            Ok(Request::Quit)
        }
        "shutdown" => {
            arity(0)?;
            Ok(Request::Shutdown)
        }
        other => Err(ServeError::Malformed(format!("unknown verb {other:?}"))),
    }
}

/// Render an allocation response line. `f64::Display` is Rust's
/// shortest round-trip rendering, so parsing the fields back yields
/// bit-identical watts.
pub fn render_alloc(out: &mut String, id: u64, alloc: PowerAllocation, budget: Watts, tag: &str) {
    use fmt::Write as _;
    let _ = write!(
        out,
        "alloc {id} proc={} mem={} budget={} outcome={tag}",
        alloc.proc.value(),
        alloc.mem.value(),
        budget.value()
    );
}

/// Render an `err` line for a typed rejection.
pub fn render_err(out: &mut String, err: &ServeError) {
    use fmt::Write as _;
    let _ = write!(out, "err {} {}", err.code(), err);
}

/// Parse `proc=… mem=…` fields back out of an `alloc` response line —
/// the client half of the wire contract (used by the load generator and
/// the equivalence tests).
#[must_use]
pub fn parse_alloc_line(line: &str) -> Option<PowerAllocation> {
    let mut proc = None;
    let mut mem = None;
    for field in line.split_ascii_whitespace() {
        if let Some(v) = field.strip_prefix("proc=") {
            proc = v.parse::<f64>().ok();
        } else if let Some(v) = field.strip_prefix("mem=") {
            mem = v.parse::<f64>().ok();
        }
    }
    Some(PowerAllocation::new(Watts::new(proc?), Watts::new(mem?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_verb() {
        let cases = [
            ("node 7 ivybridge stream 208", true),
            ("provision 100 haswell dgemm 190.5", true),
            ("budget 7 176.25", true),
            ("observe 7 0.93 120.5 61.2 140 68", true),
            ("query 7", true),
            ("free 7", true),
            ("fleet init 1050 4:ivybridge:stream,2:haswell:dgemm", true),
            ("fleet init 1050 4:ivybridge:stream obj=max-min", true),
            ("fleet init 1050 4:ivybridge:stream obj=weighted tenants=web:3:gold,batch:1", true),
            ("fleet init 1050 4:ivybridge:stream tenants=web:3 obj=throughput", true),
            ("fleet budget 900", true),
            ("fleet query", true),
            ("stats", true),
            ("ping", true),
            ("quit", true),
            ("shutdown", true),
        ];
        for (line, ok) in cases {
            assert_eq!(parse(line).is_ok(), ok, "{line}");
        }
    }

    #[test]
    fn malformed_lines_get_typed_errors() {
        for line in [
            "",
            "frobnicate",
            "node 7 ivybridge stream",        // arity
            "node x ivybridge stream 208",    // bad id
            "budget 7 many",                  // bad number
            "observe 7 1.0 2.0",              // arity
            "fleet",                          // missing subcommand
            "fleet resize 3",                 // unknown subcommand
            "fleet init 1050 4:ivybridge:stream color=red", // unknown extra field
            "fleet init 1050 4:ivybridge:stream obj=a obj=b", // duplicate obj=
            "provision 0 ivybridge stream 208", // zero count
            "provision 65537 ivybridge stream 208", // past the node cap
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.code(), "bad-request", "{line} -> {err:?}");
        }
    }

    #[test]
    fn nan_parses_and_is_left_to_validation() {
        // `NaN` *is* a number to the f64 grammar; the coordinator's
        // validation rejects it with `rejected-budget`, not the parser.
        let req = parse("budget 7 NaN").unwrap();
        match req {
            Request::Budget { watts, .. } => assert!(watts.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alloc_lines_round_trip_bit_exactly() {
        let alloc = PowerAllocation::new(Watts::new(146.62500000000003), Watts::new(61.375));
        let mut line = String::new();
        render_alloc(&mut line, 9, alloc, Watts::new(208.0), "applied");
        let back = parse_alloc_line(&line).unwrap();
        assert_eq!(back.proc.value().to_bits(), alloc.proc.value().to_bits());
        assert_eq!(back.mem.value().to_bits(), alloc.mem.value().to_bits());
    }

    #[test]
    fn err_lines_carry_code_and_detail() {
        let mut line = String::new();
        render_err(&mut line, &ServeError::UnknownNode(12));
        assert!(line.starts_with("err unknown-node "), "{line}");
        assert!(line.contains("12"));
    }
}
