//! The work-sharing executor behind the `par_*` primitives.
//!
//! A [`Pool`] owns `threads − 1` detached worker threads plus the
//! calling thread, all draining one shared FIFO of jobs. Work enters
//! only through [`Pool::scope`], which blocks until every submitted
//! task has finished — that barrier is what makes the lifetime
//! erasure of borrowed closures sound, and it means a pool never
//! holds work for a caller that has already returned.
//!
//! Parallelism is flat: a scope opened by a thread that is already
//! running a pool job runs its tasks inline, in index order, on that
//! thread. Only a scope opened outside every job enqueues work, so the
//! queue only ever holds top-level tasks and a waiting thread never
//! starts a second heavy task (a whole GCN training, say) on top of
//! the one it is inside.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
// lint:allow(no-nondeterministic-time): pool busy/idle telemetry below is metrics-gated wall-clock only
use std::time::Instant;

use gopim_obs::metrics::{LazyCounter, LazyGauge};
use gopim_obs::{DepCondvar, DepMutex};

// Pool-internal telemetry is metrics-only (no spans): task placement
// and queue dynamics are inherently thread-count-dependent, and the
// trace contract is that the span set does not vary with GOPIM_THREADS.
static SCOPE_TASKS: LazyCounter = LazyCounter::new("par.scope.tasks");
static SCOPES: LazyCounter = LazyCounter::new("par.scope.calls");
static INLINE_TASKS: LazyCounter = LazyCounter::new("par.scope.inline_tasks");
static QUEUE_HIWATER: LazyGauge = LazyGauge::new("par.queue_depth.hiwater");
static WORKER_BUSY_NS: LazyCounter = LazyCounter::new("par.worker.busy_ns");
static WORKER_IDLE_NS: LazyCounter = LazyCounter::new("par.worker.idle_ns");

/// A type-erased unit of work. Jobs are `'static` only after the
/// lifetime erasure in [`Pool::scope`]; the scope barrier restores the
/// borrow discipline the type system can no longer see.
type Job = Box<dyn FnOnce() + Send>;

// Every lock in this module sits on `gopim_obs::DepMutex`, which
// recovers from poisoning (state here stays structurally valid
// mid-update, and `scope` already forwards the first task panic) and
// feeds the `GOPIM_LOCKDEP=1` order witness.
struct Shared {
    queue: DepMutex<VecDeque<Job>>,
    work_ready: DepCondvar,
    shutdown: AtomicBool,
}

struct Inner {
    shared: Arc<Shared>,
    threads: usize,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
    }
}

/// A fixed-size thread pool executing scoped, borrow-friendly tasks.
///
/// `threads` counts the calling thread: `Pool::new(1)` spawns no
/// workers and runs everything inline, which is also the serial
/// reference the determinism tests compare against.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
}

/// Tracks one scope's outstanding tasks and its first panic.
struct ScopeState {
    remaining: DepMutex<usize>,
    all_done: DepCondvar,
    panic: DepMutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Pool {
    /// Creates a pool with `threads` total execution contexts
    /// (`threads − 1` spawned workers; 0 or 1 means fully inline).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: DepMutex::new("par::queue", VecDeque::new()),
            work_ready: DepCondvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut contexts = 1;
        for i in 1..threads {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("gopim-par-{i}"))
                .spawn(move || worker(worker_shared))
            {
                Ok(_) => contexts += 1,
                // Resource exhaustion: degrade to however many workers
                // exist. The calling thread always participates, so a
                // pool with zero workers still completes every scope —
                // just serially.
                Err(_) => break,
            }
        }
        Pool {
            inner: Arc::new(Inner {
                shared,
                threads: contexts,
            }),
        }
    }

    /// Total execution contexts (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Runs every task to completion, using the pool's workers plus
    /// the calling thread, and returns only once all have finished.
    /// Tasks may borrow from the caller's stack. If any task panics,
    /// the scope still waits for the rest, then resumes the first
    /// panic on the caller.
    ///
    /// A scope opened while the calling thread runs a pool job (of
    /// any pool) is nested: its tasks run inline, in index order, on
    /// that thread, and a panic propagates directly, as in a
    /// one-thread pool. Enqueued, the nested tasks would wait behind
    /// the outer scope's queued siblings, and the thread waiting on
    /// them would pop a whole sibling instead, until every outer task
    /// could be open at once. Block sizes come from the pool width
    /// either way, so nesting decides who runs a chunk, never what it
    /// computes.
    pub fn scope<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        SCOPES.add(1);
        SCOPE_TASKS.add(tasks.len() as u64);
        let nested = IN_JOB.with(Cell::get);
        // Added at every scope, zero or not, so the metrics report
        // lists the counter whenever it lists `par.scope.tasks`.
        INLINE_TASKS.add(if nested { tasks.len() as u64 } else { 0 });
        if nested || self.inner.threads <= 1 || tasks.len() <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        let state = Arc::new(ScopeState {
            remaining: DepMutex::new("par::remaining", tasks.len()),
            all_done: DepCondvar::new(),
            panic: DepMutex::new("par::panic", None),
        });
        {
            let mut queue = self.inner.shared.queue.lock();
            for task in tasks {
                let state = Arc::clone(&state);
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        let mut slot = state.panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    let mut remaining = state.remaining.lock();
                    *remaining -= 1;
                    if *remaining == 0 {
                        state.all_done.notify_all();
                    }
                });
                // SAFETY: the job only differs from `Job` in its
                // borrow lifetime. This function does not return until
                // `remaining == 0`, i.e. until every job has run to
                // completion, so no borrow outlives its referent.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
                queue.push_back(job);
            }
            QUEUE_HIWATER.record_max(queue.len() as u64);
            self.inner.shared.work_ready.notify_all();
        }
        // The caller participates: drain jobs (possibly from scopes
        // other threads opened — work conservation) until this scope's
        // tasks are done and the queue offers nothing else to help
        // with.
        loop {
            let job = self.inner.shared.queue.lock().pop_front();
            match job {
                Some(job) => run_job(job),
                None => {
                    let mut remaining = state.remaining.lock();
                    while *remaining != 0 {
                        remaining = state.all_done.wait(remaining);
                    }
                    break;
                }
            }
        }
        let payload = state.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Makes this pool the one the `par_*` free functions use on the
    /// current thread for the duration of `f` (nested installs stack).
    /// This is how tests compare thread counts in-process: run the
    /// same kernel under `Pool::new(1)` and `Pool::new(8)` installs
    /// and assert bit equality. Inside a pool job the installed pool
    /// still sets the block sizes, but its scopes run inline.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        OVERRIDE.with(|stack| stack.borrow_mut().push(self.clone()));
        let _guard = InstallGuard;
        f()
    }
}

fn worker(shared: Arc<Shared>) {
    loop {
        // Clock reads happen only when metrics collection is on; the
        // default path stays free of Instant syscalls.
        // lint:allow(no-nondeterministic-time): metrics-gated wall-clock telemetry, never feeds simulation state
        let idle_from = gopim_obs::metrics_enabled().then(Instant::now);
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.work_ready.wait(queue);
            }
        };
        if let Some(t) = idle_from {
            WORKER_IDLE_NS.add(t.elapsed().as_nanos() as u64);
        }
        match job {
            Some(job) => {
                // lint:allow(no-nondeterministic-time): metrics-gated wall-clock telemetry, never feeds simulation state
                let busy_from = gopim_obs::metrics_enabled().then(Instant::now);
                run_job(job);
                if let Some(t) = busy_from {
                    WORKER_BUSY_NS.add(t.elapsed().as_nanos() as u64);
                }
            }
            None => return,
        }
    }
}

/// Runs one queued job with this thread marked as inside a job, so
/// every scope the job opens runs inline (see [`Pool::scope`]).
fn run_job(job: Job) {
    let _guard = JobGuard(IN_JOB.with(|flag| flag.replace(true)));
    job();
}

/// Restores the thread's previous "running a pool job" state on drop.
struct JobGuard(bool);

impl Drop for JobGuard {
    fn drop(&mut self) {
        IN_JOB.with(|flag| flag.set(self.0));
    }
}

thread_local! {
    static OVERRIDE: RefCell<Vec<Pool>> = const { RefCell::new(Vec::new()) };
    // Per thread, not per pool: a job of any pool makes every scope
    // its thread opens nested, whichever pool that scope targets.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

struct InstallGuard;

impl Drop for InstallGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The pool the `par_*` primitives dispatch to: the innermost
/// [`Pool::install`] on this thread, else the lazily-created global
/// pool (sized by `GOPIM_THREADS`, default the available cores).
pub fn current() -> Pool {
    if let Some(pool) = OVERRIDE.with(|stack| stack.borrow().last().cloned()) {
        return pool;
    }
    GLOBAL
        .get_or_init(|| {
            let n = gopim_obs::env::get()
                .threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            // One-time fact for the run manifest (no-op unless
            // GOPIM_MANIFEST is set).
            gopim_obs::manifest::record_u64("par.threads", n as u64);
            Pool::new(n)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..64)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scope_tasks_may_borrow_the_stack() {
        let pool = Pool::new(3);
        let mut slots = vec![0u64; 8];
        let tasks: Vec<Box<dyn FnOnce() + Send>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = i as u64 * 10;
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(slots, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(vec![
                Box::new(|| panic!("task boom")) as Box<dyn FnOnce() + Send>,
                Box::new(|| {}) as Box<dyn FnOnce() + Send>,
            ]);
        }));
        assert!(result.is_err());
        // The pool stays usable after a propagated panic.
        let ok = AtomicUsize::new(0);
        pool.scope(vec![Box::new(|| {
            ok.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send>]);
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn install_overrides_the_current_pool() {
        let one = Pool::new(1);
        let four = Pool::new(4);
        assert_eq!(one.install(|| current().threads()), 1);
        assert_eq!(four.install(|| current().threads()), 4);
        // Installs nest innermost-wins.
        let nested = four.install(|| one.install(|| current().threads()));
        assert_eq!(nested, 1);
    }
}
