//! # pbc-par
//!
//! A dependency-free, persistent thread pool for the sweep hot path.
//!
//! The oracle sweep used to spawn scoped threads per call with static
//! chunking. That load-imbalances badly: infeasible allocations are
//! ~100x cheaper to reject than feasible ones are to solve, so one
//! static chunk can hold all the expensive points while the other
//! workers idle. This pool keeps its threads alive across calls and
//! splits each job into many small index chunks that the executors
//! claim from one shared atomic cursor, so an executor held up by an
//! expensive chunk leaves the rest of the job to the others.
//!
//! ## Execution model
//!
//! [`Pool::run`] executes `task(i)` for every `i in 0..n`, on the
//! calling thread *and* the pool's persistent workers. The call blocks
//! until every chunk is claimed and every executor has left the job,
//! so `task` may borrow from the caller's stack.
//!
//! * **Sizing** — [`configured_threads`] honors the `PBC_THREADS`
//!   environment variable and falls back to
//!   `std::thread::available_parallelism()`. [`Pool::global`] is a
//!   process-wide pool of that size; it records the one-time
//!   `pool.threads` trace gauge so restricted environments that
//!   silently serialize are observable.
//! * **Panic contract** — a panicking task cancels the remaining
//!   indices (their chunks are claimed but not *completed*) and the
//!   first panic payload is handed back in [`JobStats::panic`]. The
//!   caller decides how to account the loss (the sweep adds
//!   `n - completed` to `sweep.points_lost`) and then re-raises with
//!   `std::panic::resume_unwind`. Panics are never swallowed.
//! * **Re-entrancy** — a task that calls back into the pool runs the
//!   nested job on its own thread, as that job's only executor. Nested
//!   jobs never deadlock on the submission lock and never
//!   oversubscribe.
//! * **Tracing** — each published job increments `pool.jobs`; the
//!   chunks an executor claims beyond an even split add to
//!   `pool.steals`.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Number of executors a pool should use: the `PBC_THREADS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism, floored at 1. Every thread-sizing decision in
/// the workspace goes through this so one knob controls them all.
///
/// `PBC_THREADS=0` clamps to 1 (serial) with a one-time warning on
/// stderr. It used to fall back to the machine's full parallelism —
/// the opposite of what a `0` plausibly meant to whoever exported it
/// ("as little as possible"), and a silent way for a misconfigured
/// deployment to oversubscribe a host it was told to go easy on.
/// Unparseable values still fall back to available parallelism.
pub fn configured_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("PBC_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) => {
                warn_zero_threads_once();
                1
            }
            Ok(n) => n,
            Err(_) => fallback(),
        },
        Err(_) => fallback(),
    }
}

/// One warning per process, not one per pool construction.
fn warn_zero_threads_once() {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "pbc-par: PBC_THREADS=0 is not a valid executor count; clamping to 1 (serial)"
        );
    }
}

/// What happened to a job: how many indices ran to completion, how many
/// chunks were claimed beyond an even split, and the first panic payload
/// if any task panicked.
#[must_use = "a job's panic payload must be re-raised or explicitly dropped"]
pub struct JobStats {
    /// Indices whose task ran to completion.
    pub completed: usize,
    /// Chunks executors claimed beyond an even split of the job,
    /// `ceil(chunks / threads)` each: the imbalance the shared cursor
    /// absorbed.
    pub steals: u64,
    /// First panic payload, if a task or a `wrap` call panicked. When
    /// this is `Some`, `n - completed` is the loss to account.
    pub panic: Option<Box<dyn Any + Send>>,
}

/// Lock a mutex, treating poisoning as benign: the pool's own state is
/// only mutated under panic-free code paths (task panics are caught per
/// chunk), so a poisoned lock still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One job: the caller's closures, the shared chunk cursor and the
/// tallies. Pooled and nested calls both run it. A nested job lives on
/// its caller's stack. A pooled job is shared with the workers as a
/// `Job<'static>`, its closure lifetimes erased. Soundness: `run_pooled`
/// does not return until its own drain has found the cursor past `n`,
/// every worker has left the job (`active == 0`) and the job is
/// unpublished, so no executor can touch `task`/`wrap` after the
/// borrowed closures go out of scope.
struct Job<'a> {
    n: usize,
    chunk: usize,
    /// An even split, `ceil(chunks / threads)`: each chunk an executor
    /// claims beyond it counts as a steal.
    fair_share: usize,
    task: &'a (dyn Fn(usize) + Sync),
    wrap: &'a (dyn Fn(&mut dyn FnMut()) + Sync),
    /// Start of the next unclaimed chunk. It and the tallies below are
    /// `Relaxed`: they publish no other data, and the submitter reads the
    /// tallies only after `active`'s release/acquire pairing.
    cursor: AtomicUsize,
    completed: AtomicUsize,
    steals: AtomicU64,
    cancelled: AtomicBool,
    /// Workers currently executing this job. `run_pooled` waits for
    /// zero so the borrowed closures outlive every dereference.
    active: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<'a> Job<'a> {
    fn new(
        n: usize,
        threads: usize,
        wrap: &'a (dyn Fn(&mut dyn FnMut()) + Sync),
        task: &'a (dyn Fn(usize) + Sync),
    ) -> Self {
        // Chunk the index space finely enough that the cursor can
        // balance wildly uneven point costs, but coarsely enough that
        // claiming chunks stays in the noise.
        let chunk = (n / (threads * 8)).clamp(1, 64);
        Job {
            n,
            chunk,
            fair_share: n.div_ceil(chunk).div_ceil(threads),
            task,
            wrap,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    /// One executor's part of the job: one `wrap` call around a drain of
    /// the cursor. A panicking `wrap` cancels the job like a panicking
    /// task, and the drain after it claims whatever the wrap left, so
    /// the cursor always ends past `n`.
    fn execute(&self) {
        let mut claimed = 0;
        let wrapped = catch_unwind(AssertUnwindSafe(|| {
            (self.wrap)(&mut || self.drain(&mut claimed));
        }));
        if let Err(payload) = wrapped {
            self.note_panic(payload);
        }
        self.drain(&mut claimed);
        let beyond_share = claimed.saturating_sub(self.fair_share);
        self.steals.fetch_add(beyond_share as u64, Ordering::Relaxed);
    }

    /// Claim chunks until the cursor passes `n`, running each chunk's
    /// tasks until the job is cancelled.
    fn drain(&self, claimed: &mut usize) {
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            *claimed += 1;
            let mut done = 0;
            let ran = catch_unwind(AssertUnwindSafe(|| {
                for i in start..(start + self.chunk).min(self.n) {
                    if self.cancelled.load(Ordering::Acquire) {
                        break;
                    }
                    (self.task)(i);
                    done += 1;
                }
            }));
            self.completed.fetch_add(done, Ordering::Relaxed);
            if let Err(payload) = ran {
                self.note_panic(payload);
            }
        }
    }

    /// Record the first panic payload and cancel the remaining work.
    fn note_panic(&self, payload: Box<dyn Any + Send>) {
        self.cancelled.store(true, Ordering::Release);
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn stats(&self) -> JobStats {
        JobStats {
            completed: self.completed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            panic: lock(&self.panic).take(),
        }
    }
}

struct Signal {
    job: Option<Arc<Job<'static>>>,
    /// Bumped on every publish, so a worker joins each job once.
    seq: u64,
    shutdown: bool,
}

struct Shared {
    signal: Mutex<Signal>,
    /// Workers park here between jobs.
    to_workers: Condvar,
    /// The submitting thread parks here while workers finish.
    to_caller: Condvar,
}

thread_local! {
    /// True while this thread is executing pool work (worker threads
    /// always; the submitting thread during its participation). Nested
    /// [`Pool::run`] calls detect this and execute inline.
    static IN_POOL: std::cell::Cell<bool> = std::cell::Cell::new(false);
}

/// A persistent thread pool whose executors claim index chunks from one
/// shared cursor. See the crate docs for the execution model. Dropping
/// the pool shuts its workers down.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes job submission: one job in flight at a time.
    submission: Mutex<()>,
}

impl Pool {
    /// Build a pool with `threads` total executors: the calling thread
    /// plus `threads - 1` persistent workers. `threads` is floored at 1
    /// (a one-thread pool runs everything inline on the caller).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            signal: Mutex::new(Signal { job: None, seq: 0, shutdown: false }),
            to_workers: Condvar::new(),
            to_caller: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads - 1);
        for slot in 1..threads {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("pbc-par-{slot}"));
            // A failed spawn degrades capacity instead of failing the
            // pool: the executors that did start claim every chunk.
            if let Ok(handle) = builder.spawn(move || worker_loop(&shared)) {
                workers.push(handle);
            }
        }
        Pool { shared, workers, threads, submission: Mutex::new(()) }
    }

    /// The process-wide pool, sized by [`configured_threads`]. First use
    /// records the `pool.threads` trace gauge so a silently serialized
    /// environment shows up in any exported trace.
    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = configured_threads();
            pbc_trace::gauge(pbc_trace::names::POOL_THREADS).set(threads as f64);
            Pool::new(threads)
        })
    }

    /// Run `task(i)` for every `i in 0..n` across the pool. Blocks until
    /// every chunk is claimed and every executor has left the job. See
    /// the crate docs for the panic contract.
    pub fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) -> JobStats {
        self.run_wrapped(n, &|inner: &mut dyn FnMut()| inner(), task)
    }

    /// Like [`Pool::run`], but each participating executor invokes
    /// `wrap` once around its whole share of the job. The sweep uses
    /// this to open one `sweep.worker` trace span per executor instead
    /// of one per point.
    pub fn run_wrapped(
        &self,
        n: usize,
        wrap: &(dyn Fn(&mut dyn FnMut()) + Sync),
        task: &(dyn Fn(usize) + Sync),
    ) -> JobStats {
        if n == 0 {
            return JobStats { completed: 0, steals: 0, panic: None };
        }
        if IN_POOL.with(|f| f.get()) {
            // Nested call from inside pool work: run the job on this
            // thread as its only executor, so it can neither deadlock on
            // the submission lock nor oversubscribe.
            let job = Job::new(n, 1, wrap, task);
            job.execute();
            return job.stats();
        }
        self.run_pooled(n, wrap, task)
    }

    fn run_pooled(
        &self,
        n: usize,
        wrap: &(dyn Fn(&mut dyn FnMut()) + Sync),
        task: &(dyn Fn(usize) + Sync),
    ) -> JobStats {
        let _one_job_at_a_time = lock(&self.submission);

        static COUNTERS: OnceLock<(pbc_trace::Counter, pbc_trace::Counter)> = OnceLock::new();
        let (jobs_c, steals_c) = COUNTERS.get_or_init(|| {
            (
                pbc_trace::counter(pbc_trace::names::POOL_JOBS),
                pbc_trace::counter(pbc_trace::names::POOL_STEALS),
            )
        });
        jobs_c.incr();

        // SAFETY: lifetime erasure only, sound for the reason given on
        // `Job`: this function does not return before every executor is
        // done with the erased closures.
        let job = Arc::new(unsafe {
            std::mem::transmute::<Job<'_>, Job<'static>>(Job::new(n, self.threads, wrap, task))
        });
        {
            let mut sig = lock(&self.shared.signal);
            sig.seq += 1;
            sig.job = Some(Arc::clone(&job));
        }
        self.shared.to_workers.notify_all();

        // The submitting thread is an executor too. Its drain returns
        // once every chunk is claimed; the workers may still be running
        // theirs.
        IN_POOL.with(|f| f.set(true));
        job.execute();
        IN_POOL.with(|f| f.set(false));

        // Wait until every worker has left the job's closures, then
        // unpublish it.
        {
            let mut sig = lock(&self.shared.signal);
            while job.active.load(Ordering::Acquire) != 0 {
                sig = self
                    .shared
                    .to_caller
                    .wait(sig)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            sig.job = None;
        }

        let stats = job.stats();
        steals_c.add(stats.steals);
        stats
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut sig = lock(&self.shared.signal);
            sig.shutdown = true;
        }
        self.shared.to_workers.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL.with(|f| f.set(true));
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut sig = lock(&shared.signal);
            loop {
                if sig.shutdown {
                    return;
                }
                if let Some(job) = sig.job.as_ref().filter(|_| sig.seq != last_seq) {
                    // Register while holding the signal lock: the
                    // submitter checks `active == 0` under the same
                    // lock, so it cannot unpublish the job between
                    // our clone and this increment.
                    job.active.fetch_add(1, Ordering::AcqRel);
                    last_seq = sig.seq;
                    break Arc::clone(job);
                }
                sig = shared
                    .to_workers
                    .wait(sig)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        job.execute();
        job.active.fetch_sub(1, Ordering::AcqRel);
        let _sig = lock(&shared.signal);
        shared.to_caller.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_every_index_exactly_once() {
        let pool = Pool::new(4);
        let n = 1003;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let stats = pool.run(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.completed, n);
        assert!(stats.panic.is_none());
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn reusable_across_jobs() {
        let pool = Pool::new(3);
        for round in 1..=5usize {
            let n = round * 37;
            let sum = AtomicUsize::new(0);
            let stats = pool.run(n, &|i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(stats.completed, n);
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let compute = |pool: &Pool| -> Vec<f64> {
            let n = 257;
            let out: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
            let stats = pool.run(n, &|i| {
                *lock(&out[i]) = (i as f64 + 0.5).sqrt().sin();
            });
            assert_eq!(stats.completed, n);
            out.iter().map(|m| *lock(m)).collect()
        };
        let one = compute(&Pool::new(1));
        let two = compute(&Pool::new(2));
        let eight = compute(&Pool::new(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn imbalanced_work_gets_stolen() {
        // 16 chunks of 4, an even split of 8 each. Whichever executor
        // claims the slow first chunk is held up, so the other claims
        // the remaining 15, 7 beyond its share.
        let pool = Pool::new(2);
        let n = 64;
        let stats = pool.run(n, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
        });
        assert_eq!(stats.completed, n);
        assert!(stats.steals > 0, "expected the idle executor to steal");
    }

    #[test]
    fn panic_is_reported_not_swallowed() {
        let pool = Pool::new(2);
        let n = 100;
        let stats = pool.run(n, &|i| {
            assert!(i != 17, "injected failure");
        });
        assert!(stats.panic.is_some(), "panic payload lost");
        assert!(stats.completed < n, "the panicked index must not count as completed");
    }

    #[test]
    fn nested_run_executes_inline() {
        let pool = Pool::new(2);
        let inner_total = AtomicUsize::new(0);
        let stats = pool.run(4, &|_| {
            let inner = Pool::global().run(10, &|_| {
                inner_total.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(inner.completed, 10);
        });
        assert_eq!(stats.completed, 4);
        assert_eq!(inner_total.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn zero_items_is_a_noop() {
        let pool = Pool::new(2);
        let stats = pool.run(0, &|_| unreachable!("no items to run"));
        assert_eq!(stats.completed, 0);
        assert!(stats.panic.is_none());
    }

    #[test]
    fn wrap_runs_once_per_participating_executor() {
        let pool = Pool::new(2);
        let wraps = AtomicUsize::new(0);
        let stats = pool.run_wrapped(
            200,
            &|inner| {
                wraps.fetch_add(1, Ordering::Relaxed);
                inner();
            },
            &|_| std::thread::sleep(std::time::Duration::from_micros(50)),
        );
        assert_eq!(stats.completed, 200);
        let w = wraps.load(Ordering::Relaxed);
        assert!((1..=2).contains(&w), "wrap ran {w} times for 2 executors");
    }

    #[test]
    fn concurrent_submitters_each_get_every_index_once() {
        // Four threads submit to one pool at once: submissions queue up,
        // and no job may lose, repeat or miscount an index.
        let pool = Pool::new(3);
        std::thread::scope(|s| {
            for submitter in 0..4usize {
                let pool = &pool;
                s.spawn(move || {
                    for job in 0..20usize {
                        let n = 1 + (submitter * 20 + job) * 37 % 301;
                        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        let stats = pool.run(n, &|i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        let at = format!("submitter {submitter}, job {job}");
                        assert_eq!(stats.completed, n, "{at}");
                        assert!(stats.panic.is_none(), "{at}");
                        for (i, h) in hits.iter().enumerate() {
                            assert_eq!(h.load(Ordering::Relaxed), 1, "{at}, index {i}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_wrap_returns_its_payload() {
        // The first executor's wrap dies before running anything; the
        // job must still finish, hand the payload back, and count only
        // the task calls that really ran.
        let pool = Pool::new(2);
        let wraps = AtomicUsize::new(0);
        let calls = AtomicUsize::new(0);
        let stats = pool.run_wrapped(
            500,
            &|inner| {
                if wraps.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("wrap failed");
                }
                inner();
            },
            &|_| {
                calls.fetch_add(1, Ordering::Relaxed);
            },
        );
        let payload = stats.panic.expect("the wrap's panic payload was lost");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"wrap failed"));
        assert_eq!(stats.completed, calls.load(Ordering::Relaxed));
    }

    #[test]
    fn configured_threads_honors_env() {
        // Process-global env var: this is the only test that writes it.
        std::env::set_var("PBC_THREADS", "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var("PBC_THREADS", "not-a-number");
        assert!(configured_threads() >= 1);
        // Zero clamps to serial — it must NOT fall back to the machine's
        // full parallelism like an unset or unparseable value does.
        std::env::set_var("PBC_THREADS", "0");
        assert_eq!(configured_threads(), 1);
        std::env::set_var("PBC_THREADS", " 0 ");
        assert_eq!(configured_threads(), 1, "whitespace-padded zero also clamps");
        std::env::remove_var("PBC_THREADS");
        assert!(configured_threads() >= 1);
    }
}
