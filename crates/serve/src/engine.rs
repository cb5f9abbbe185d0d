//! The serving engine: protocol dispatch over the live session map.
//!
//! [`ServeEngine`] is the transport-independent core of the daemon —
//! the TCP handler threads, the stdin loop, and the in-process bench
//! all feed request lines into [`ServeEngine::dispatch_into`] and get
//! one response line back. Everything the daemon knows lives here:
//!
//! * a session map (`id → Arc<Mutex<Session>>`) behind an `RwLock`, so
//!   requests for *different* nodes proceed concurrently and only
//!   same-node requests serialize;
//! * the optional fleet coordinator (one per daemon) behind its own
//!   mutex;
//! * the serving counters, with cached handles so the hot path pays one
//!   relaxed atomic add, not a registry lookup.
//!
//! The counter law enforced by the e2e tests: every dispatched line
//! except the control-plane verbs (`quit`, `shutdown`) increments
//! `serve.requests` and then exactly one of `serve.served_requests` or
//! `serve.rejected_requests`.

use crate::proto::{self, Request, ServeError};
use crate::session::Session;
use pbc_cluster::{parse_spec, Fleet, FleetCoordinator, Objective, TenantSet};
use pbc_core::{BudgetOutcome, ObservationOutcome};
use pbc_powersim::{CpuMechanismState, MechanismState, NodeOperatingPoint};
use pbc_trace::names;
use pbc_types::{Bandwidth, PowerAllocation, Watts};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// What the transport should do after a dispatched line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Send the response line and keep reading.
    Respond,
    /// Send the response line, then close this connection.
    Quit,
    /// Send the response line, then drain the whole daemon.
    Shutdown,
}

/// The request counters: `serve.requests` and its two outcomes.
struct Requests {
    all: pbc_trace::Counter,
    served: pbc_trace::Counter,
    rejected: pbc_trace::Counter,
}

/// The request counters, registered together on first use.
fn requests() -> &'static Requests {
    static C: OnceLock<Requests> = OnceLock::new();
    C.get_or_init(|| Requests {
        all: pbc_trace::counter(names::SERVE_REQUESTS),
        served: pbc_trace::counter(names::SERVE_SERVED_REQUESTS),
        rejected: pbc_trace::counter(names::SERVE_REJECTED_REQUESTS),
    })
}

/// Render `err` into `out` and count the rejection.
fn reject(err: &ServeError, out: &mut String) {
    out.clear();
    proto::render_err(out, err);
    requests().rejected.incr();
}

/// The transport-independent daemon core.
pub struct ServeEngine {
    sessions: RwLock<HashMap<u64, Arc<Mutex<Session>>>>,
    fleet: Mutex<Option<FleetCoordinator>>,
    draining: AtomicBool,
}

impl Default for ServeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeEngine {
    /// An engine with no sessions and no fleet. Registers the request
    /// counters, so a snapshot taken before the first request already
    /// carries them at 0.
    #[must_use]
    pub fn new() -> Self {
        let _ = requests();
        Self {
            sessions: RwLock::new(HashMap::new()),
            fleet: Mutex::new(None),
            draining: AtomicBool::new(false),
        }
    }

    /// Live sessions right now.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Flip the engine into drain mode: every subsequent non-control
    /// request is rejected with `shutting-down`. In-flight dispatches
    /// finish normally.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Is the engine draining?
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Dispatch one request line, writing the response line (without a
    /// trailing newline) into `out`. `out` is cleared first, so callers
    /// can reuse one buffer across a connection's lifetime.
    pub fn dispatch_into(&self, line: &str, out: &mut String) -> Disposition {
        out.clear();
        let parsed = proto::parse(line);
        // Control-plane verbs steer the transport, not the coordination
        // state; they bypass the request counters so a quiesced scrape
        // equals the final trace exactly.
        match parsed {
            Ok(Request::Quit) => {
                out.push_str("ok bye");
                return Disposition::Quit;
            }
            Ok(Request::Shutdown) => {
                out.push_str("ok draining");
                return Disposition::Shutdown;
            }
            _ => {}
        }
        requests().all.incr();
        let outcome = if self.draining() {
            Err(ServeError::ShuttingDown)
        } else {
            parsed.and_then(|req| self.handle(&req, out))
        };
        match outcome {
            Ok(()) => requests().served.incr(),
            Err(err) => reject(&err, out),
        }
        Disposition::Respond
    }

    /// Answer a request line the transport refused before dispatch (one
    /// past [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES)) with
    /// `err`, counted like any other rejected request.
    pub(crate) fn reject_into(&self, err: &ServeError, out: &mut String) {
        requests().all.incr();
        reject(err, out);
    }

    fn session(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServeError> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownNode(id))
    }

    fn set_sessions_gauge(&self) {
        #[allow(clippy::cast_precision_loss)]
        pbc_trace::gauge(names::SERVE_SESSIONS).set(self.session_count() as f64);
    }

    fn handle(&self, req: &Request, out: &mut String) -> Result<(), ServeError> {
        match req {
            Request::Node { id, platform, bench, budget } => {
                self.open_one(*id, platform, bench, *budget, out)
            }
            Request::Provision { count, platform, bench, budget } => {
                self.provision(*count, platform, bench, *budget, out)
            }
            Request::Budget { id, watts } => self.set_budget(*id, *watts, out),
            Request::Observe { id, perf, proc_w, mem_w, cap_proc, cap_mem } => {
                self.observe(*id, *perf, *proc_w, *mem_w, *cap_proc, *cap_mem, out)
            }
            Request::Query { id } => {
                let session = self.session(*id)?;
                let s = session.lock().unwrap_or_else(PoisonError::into_inner);
                proto::render_alloc(out, *id, s.tuner.best(), s.tuner.budget(), "best");
                Ok(())
            }
            Request::Free { id } => {
                let removed = self
                    .sessions
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(id);
                if removed.is_none() {
                    return Err(ServeError::UnknownNode(*id));
                }
                self.set_sessions_gauge();
                let _ = write!(out, "ok free {id}");
                Ok(())
            }
            Request::FleetInit { global, spec, objective, tenants } => {
                self.fleet_init(*global, spec, objective.as_deref(), tenants.as_deref(), out)
            }
            Request::FleetBudget { watts } => self.fleet_budget(*watts, out),
            Request::FleetQuery => self.fleet_query(out),
            Request::Stats => {
                let _ = write!(
                    out,
                    "ok stats requests={} served={} rejected={} sessions={}",
                    requests().all.get(),
                    // The request being answered is already counted but
                    // not yet resolved; report it as served so the line
                    // itself satisfies the law it states.
                    requests().served.get() + 1,
                    requests().rejected.get(),
                    self.session_count()
                );
                Ok(())
            }
            Request::Ping => {
                out.push_str("ok pong");
                Ok(())
            }
            // Handled in dispatch_into before counting.
            Request::Quit | Request::Shutdown => Ok(()),
        }
    }

    fn open_one(
        &self,
        id: u64,
        platform: &str,
        bench: &str,
        budget: f64,
        out: &mut String,
    ) -> Result<(), ServeError> {
        if self
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&id)
        {
            return Err(ServeError::NodeExists(id));
        }
        let session = Session::open(platform, bench, budget)?;
        let best = session.tuner.best();
        let total = session.tuner.budget();
        let mut map = self.sessions.write().unwrap_or_else(PoisonError::into_inner);
        if map.contains_key(&id) {
            return Err(ServeError::NodeExists(id));
        }
        map.insert(id, Arc::new(Mutex::new(session)));
        drop(map);
        pbc_trace::counter(names::SERVE_SESSIONS_OPENED).incr();
        self.set_sessions_gauge();
        proto::render_alloc(out, id, best, total, "opened");
        Ok(())
    }

    /// Open `count` identical sessions: one built by the session recipe,
    /// cloned `count` times. A session is a pure function of `(platform,
    /// bench, budget)`, so every clone is the session the recipe would
    /// build. Ids are assigned consecutively from one past the current
    /// maximum; a range that would pass `u64::MAX` is refused.
    fn provision(
        &self,
        count: usize,
        platform: &str,
        bench: &str,
        budget: f64,
        out: &mut String,
    ) -> Result<(), ServeError> {
        let session = Session::open(platform, bench, budget)?;
        let (floor, ceiling) = (session.floor, session.ceiling);
        let mut map = self.sessions.write().unwrap_or_else(PoisonError::into_inner);
        let base = map.keys().max().map_or(Some(0), |m| m.checked_add(1));
        let Some(base) = base.filter(|b| b.checked_add(count as u64 - 1).is_some()) else {
            return Err(ServeError::Build(format!("{count} new ids would pass u64::MAX")));
        };
        for id in base..=base + (count as u64 - 1) {
            map.insert(id, Arc::new(Mutex::new(session.clone())));
        }
        drop(map);
        pbc_trace::counter(names::SERVE_SESSIONS_OPENED).add(count as u64);
        self.set_sessions_gauge();
        let _ = write!(
            out,
            "ok provision base={base} count={count} floor={} ceiling={}",
            floor.value(),
            ceiling.value()
        );
        Ok(())
    }

    fn set_budget(&self, id: u64, watts: f64, out: &mut String) -> Result<(), ServeError> {
        let session = self.session(id)?;
        let mut s = session.lock().unwrap_or_else(PoisonError::into_inner);
        match s.tuner.set_budget(Watts::new(watts)) {
            BudgetOutcome::Applied => {
                let next = s.tuner.next_allocation();
                proto::render_alloc(out, id, next, s.tuner.budget(), "applied");
                Ok(())
            }
            BudgetOutcome::Unchanged => {
                proto::render_alloc(out, id, s.tuner.best(), s.tuner.budget(), "unchanged");
                Ok(())
            }
            BudgetOutcome::RejectedNonFinite => Err(ServeError::RejectedBudget(format!(
                "budget {watts} is not finite"
            ))),
            BudgetOutcome::RejectedBelowMinimum => Err(ServeError::RejectedBudget(format!(
                "budget {watts} W is zero, negative, or below the platform floor"
            ))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn observe(
        &self,
        id: u64,
        perf: f64,
        proc_w: f64,
        mem_w: f64,
        cap_proc: f64,
        cap_mem: f64,
        out: &mut String,
    ) -> Result<(), ServeError> {
        let session = self.session(id)?;
        let mut s = session.lock().unwrap_or_else(PoisonError::into_inner);
        // Only `alloc`, `perf_rel`, and the component powers steer the
        // online search (and its validation); the remaining fields are
        // solver outputs a remote client has no business reporting, so
        // they are synthesized neutral.
        let op = NodeOperatingPoint {
            alloc: PowerAllocation::new(Watts::new(cap_proc), Watts::new(cap_mem)),
            perf_rel: perf,
            proc_power: Watts::new(proc_w),
            mem_power: Watts::new(mem_w),
            work_rate: 0.0,
            bandwidth: Bandwidth::new(0.0),
            proc_busy: 0.0,
            mechanism: MechanismState::Cpu(CpuMechanismState {
                pstate: 0,
                duty: 1.0,
                cap_unenforceable: false,
            }),
        };
        let verdict = match s.tuner.observe(&op) {
            ObservationOutcome::Used => "used",
            ObservationOutcome::TrippedWatchdog => "watchdog",
            ObservationOutcome::RejectedNonFinite => {
                return Err(ServeError::RejectedObservation(format!(
                    "non-finite or negative perf surrogate {perf}"
                )))
            }
            ObservationOutcome::RejectedOutOfRange => {
                return Err(ServeError::RejectedObservation(format!(
                    "implausible operating point: perf={perf} proc={proc_w} mem={mem_w}"
                )))
            }
            ObservationOutcome::RejectedStale => {
                return Err(ServeError::RejectedObservation(format!(
                    "caps ({cap_proc}, {cap_mem}) do not match the issued probe — stale sample"
                )))
            }
        };
        let next = s.tuner.next_allocation();
        proto::render_alloc(out, id, next, s.tuner.budget(), verdict);
        Ok(())
    }

    fn fleet_init(
        &self,
        global: f64,
        spec: &str,
        objective: Option<&str>,
        tenants: Option<&str>,
        out: &mut String,
    ) -> Result<(), ServeError> {
        let mut fleet = self.fleet.lock().unwrap_or_else(PoisonError::into_inner);
        if fleet.is_some() {
            return Err(ServeError::FleetState("fleet already initialized".into()));
        }
        let objective = match objective {
            Some(name) => Objective::parse(name).map_err(|e| ServeError::Build(e.to_string()))?,
            None => Objective::default(),
        };
        let tenant_set = tenants
            .map(TenantSet::parse)
            .transpose()
            .map_err(|e| ServeError::Build(e.to_string()))?;
        // The wire spec is one token: `count:platform:bench` groups
        // joined by commas. Translate to the spec-file grammar.
        let text: String = spec
            .split(',')
            .map(|group| group.replace(':', " "))
            .collect::<Vec<_>>()
            .join("\n");
        let lines = parse_spec(&text).map_err(|e| ServeError::Build(e.to_string()))?;
        let built = Fleet::build(&lines).map_err(|e| ServeError::Build(e.to_string()))?;
        let nodes = built.len();
        let mut coord = FleetCoordinator::new(built, Watts::new(global))
            .map_err(|e| ServeError::Build(e.to_string()))?
            .with_objective(objective);
        let tenant_count = tenant_set.as_ref().map_or(0, TenantSet::len);
        if let Some(set) = tenant_set {
            coord = coord.with_tenants(set);
        }
        coord.provision().map_err(|e| ServeError::Build(e.to_string()))?;
        let enforced = coord.enforced_total();
        *fleet = Some(coord);
        let _ = write!(
            out,
            "ok fleet nodes={nodes} enforced={} objective={} tenants={tenant_count}",
            enforced.value(),
            objective.name()
        );
        Ok(())
    }

    fn fleet_budget(&self, watts: f64, out: &mut String) -> Result<(), ServeError> {
        let mut fleet = self.fleet.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(coord) = fleet.as_mut() else {
            return Err(ServeError::FleetState("fleet not initialized".into()));
        };
        coord
            .set_global_budget(Watts::new(watts))
            .map_err(|e| ServeError::RejectedBudget(e.to_string()))?;
        coord.step().map_err(|e| ServeError::Build(e.to_string()))?;
        let _ = write!(
            out,
            "ok fleet budget={watts} enforced={}",
            coord.enforced_total().value()
        );
        Ok(())
    }

    fn fleet_query(&self, out: &mut String) -> Result<(), ServeError> {
        let fleet = self.fleet.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(coord) = fleet.as_ref() else {
            return Err(ServeError::FleetState("fleet not initialized".into()));
        };
        let caps = coord.enforced_caps();
        let first = caps.first().copied().unwrap_or(Watts::ZERO);
        let (min, max) = caps
            .iter()
            .fold((first, first), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let _ = write!(
            out,
            "ok fleet nodes={} enforced={} min_cap={} max_cap={} objective={} tenants={}",
            caps.len(),
            coord.enforced_total().value(),
            min.value(),
            max.value(),
            coord.objective().name(),
            coord.tenants().map_or(0, TenantSet::len)
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_init_carries_objective_and_tenants_onto_the_coordinator() {
        let engine = ServeEngine::new();
        let mut out = String::new();
        let d = engine.dispatch_into(
            "fleet init 800 2:ivybridge:stream,2:haswell:dgemm obj=max-min \
             tenants=web:3:gold,batch:1",
            &mut out,
        );
        assert_eq!(d, Disposition::Respond);
        assert!(
            out.contains("objective=max-min") && out.contains("tenants=2"),
            "unexpected init response: {out}"
        );
        out.clear();
        engine.dispatch_into("fleet query", &mut out);
        assert!(
            out.contains("objective=max-min") && out.contains("tenants=2"),
            "unexpected query response: {out}"
        );
    }

    /// A NaN cap read-back cannot match the issued probe: the wire line
    /// is rejected as stale and the probe is not judged with it.
    #[test]
    fn a_nan_cap_observation_is_rejected_and_leaves_best_alone() {
        let engine = ServeEngine::new();
        let mut out = String::new();
        let mut send = |line: &str| {
            out.clear();
            engine.dispatch_into(line, &mut out);
            out.clone()
        };
        send("node 1 ivybridge stream 208");
        assert!(send("observe 1 0.5 100 60 104 104").ends_with("outcome=used"));
        let best = send("query 1");
        let answer = send("observe 1 0.99 100 60 NaN NaN");
        assert!(answer.starts_with("err rejected-observation"), "{answer}");
        assert_eq!(send("query 1"), best);
    }

    #[test]
    fn fleet_init_rejects_garbage_objectives_and_tenants() {
        for line in [
            "fleet init 800 2:ivybridge:stream obj=round-robin",
            "fleet init 800 2:ivybridge:stream tenants=web:0",
            "fleet init 800 2:ivybridge:stream tenants=web:3,web:1",
        ] {
            let engine = ServeEngine::new();
            let mut out = String::new();
            engine.dispatch_into(line, &mut out);
            assert!(out.starts_with("err "), "{line} -> {out}");
        }
    }
}
