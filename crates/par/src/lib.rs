//! Deterministic work-sharding runtime for the seqlearn workspace.
//!
//! The learning and ATPG pipelines are embarrassingly parallel across stems,
//! learning targets and faults, but the project's contract is stronger than
//! "parallel and correct": an `SLA_THREADS=N` run must be **bit-identical** to
//! the `SLA_THREADS=1` run — same relations in the same database order, same
//! ties, same per-fault verdicts and backtrack counts. This crate provides the
//! two primitives that make that contract easy to keep:
//!
//! * [`run_indexed`] / [`run_indexed_with`] — a parallel map over a slice
//!   whose result vector is always in item order, regardless of which worker
//!   processed which item. Work is distributed dynamically (an atomic cursor),
//!   so the *assignment* of items to workers is timing-dependent, but as long
//!   as the per-item function is a pure function of the item, the returned
//!   vector is deterministic. Callers then perform an *ordered merge*, which
//!   keeps any order-sensitive reduction identical to the serial loop.
//! * [`with_pool`] — a scoped worker pool with per-worker state and a
//!   submit/collect handle, for pipelines that interleave parallel jobs with
//!   serial merge steps (the ATPG engine's in-order speculation window).
//!   Workers live for the whole pool scope, so per-worker setup is paid once
//!   per scope, not per job; the ATPG engine opens one scope per `advance`
//!   call, so a streamed request builds each worker's test generator once.
//!
//! Everything is built on `std::thread::scope`: no extra dependencies, and
//! borrowed data (netlists, simulators, fault lists) crosses into workers
//! without `Arc` gymnastics.
//!
//! The thread count itself comes from [`thread_count`]: the `SLA_THREADS`
//! environment variable when set to a positive integer, otherwise the
//! machine's available parallelism. `SLA_THREADS=1` is the exact legacy
//! single-thread path everywhere in the workspace — sharded entry points
//! delegate to the serial implementation without spawning anything.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Condvar, Mutex};

/// Name of the environment variable controlling the worker count.
pub const THREADS_ENV: &str = "SLA_THREADS";

/// Resolves the worker count: [`env_threads`] when `SLA_THREADS` parses to a
/// positive integer, otherwise [`std::thread::available_parallelism`] (1 when
/// even that is unavailable). `SLA_THREADS=0`, empty or garbage falls back to
/// the default rather than erroring: a misconfigured environment should never
/// change results (they are thread-count independent), only the schedule.
pub fn thread_count() -> usize {
    env_threads().unwrap_or_else(default_parallelism)
}

/// The workspace's single sanctioned environment read: `SLA_THREADS` as a
/// positive integer, or `None` when unset or unparsable.
///
/// The determinism contract allows the environment to pick a *schedule*
/// (worker count), never a *result* — and `sla-lint`'s `env-read` rule
/// allow-lists exactly this file (plus the `sla-bench` harness crate) so no
/// other pipeline code can grow an ambient-configuration dependency. Any new
/// scheduling knob must be read here, documented like this one.
pub fn env_threads() -> Option<usize> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => None,
        },
        Err(_) => None,
    }
}

/// The machine's available parallelism (1 when undeterminable).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parallel map over `items` with dynamic work stealing; the result vector is
/// in item order. With `threads <= 1` (or at most one item) the map runs
/// inline on the caller's thread — the exact serial path, no spawn.
///
/// `f` receives `(index, &item)` and must be a pure function of them for the
/// whole call to be deterministic.
pub fn run_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed_with(items, threads, |_| (), |(), i, t| f(i, t))
}

/// [`run_indexed`] with per-worker state: `init(worker_id)` runs once on each
/// worker thread, and `f(&mut state, index, &item)` may reuse that state
/// across all items the worker happens to claim.
///
/// Worker state must not make `f`'s *result* depend on the claim schedule —
/// per-worker caches and scratch buffers are fine exactly when they are
/// semantically transparent.
pub fn run_indexed_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        let mut state = init(0);
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut state = init(w);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&mut state, i, &items[i]);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item produced a result"))
            .collect()
    })
}

/// The outcome of a quarantined job: its value, or the panic that killed it.
///
/// Pipelines that must survive a failing speculative job (rather than abort
/// the whole run) wrap the per-job work in [`quarantine`], making panics an
/// ordinary data value that flows through the usual ordered merge. The merge
/// then records the failure against exactly the job that caused it — fault
/// order, and therefore the determinism contract, is preserved.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job completed normally.
    Done(T),
    /// The job panicked; the payload is the panic message (a fallback string
    /// when the payload was not a `String`/`&str`).
    Panicked(String),
}

impl<T> JobOutcome<T> {
    /// Returns `true` for [`JobOutcome::Panicked`].
    pub fn is_panicked(&self) -> bool {
        matches!(self, JobOutcome::Panicked(_))
    }
}

/// Runs `f`, catching any panic and turning it into data.
///
/// This is the quarantine primitive of the resilience layer: a panicking
/// speculative job poisons only its own result, not the worker thread or the
/// run. The panic payload is downcast to a message; non-string payloads get a
/// fixed fallback so the outcome stays deterministic.
///
/// The `AssertUnwindSafe` is sound for the workspace's use because quarantined
/// jobs own their working state (per-job generators are reset per fault) and
/// the merged result of a panicked job is discarded wholesale.
pub fn quarantine<T>(f: impl FnOnce() -> T) -> JobOutcome<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => JobOutcome::Done(v),
        // `&*payload`, not `&payload`: the Box itself is `Any`, and coercing
        // it instead of its contents would make every downcast miss.
        Err(payload) => JobOutcome::Panicked(panic_message(&*payload)),
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared job queue of a [`with_pool`] scope.
struct JobQueue<Job> {
    queue: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl<Job> JobQueue<Job> {
    fn new() -> Self {
        JobQueue {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut q = self.queue.lock().expect("queue poisoned");
        q.0.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut q = self.queue.lock().expect("queue poisoned");
        q.1 = true;
        self.ready.notify_all();
    }

    /// Blocks for the next job; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            if let Some(job) = q.0.pop_front() {
                return Some(job);
            }
            if q.1 {
                return None;
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
    }
}

/// Closes a [`JobQueue`] when dropped, so blocked workers wake up and exit
/// even when the pool body unwinds with a panic — otherwise the implicit
/// join of `std::thread::scope` would wait on them forever and turn the
/// panic into a deadlock.
struct CloseOnDrop<'q, Job>(&'q JobQueue<Job>);

impl<Job> Drop for CloseOnDrop<'_, Job> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Submit/collect handle of a [`with_pool`] scope (used by the body closure).
pub struct PoolHandle<'p, Job, Out> {
    jobs: &'p JobQueue<Job>,
    results: Receiver<std::thread::Result<Out>>,
    /// Single-thread mode: jobs run here, at submission, on the caller's
    /// thread (no worker is spawned), and results wait in `buffered`.
    inline: Option<Box<dyn FnMut(Job) -> Out + 'p>>,
    buffered: VecDeque<Out>,
}

impl<Job, Out> PoolHandle<'_, Job, Out> {
    /// Enqueues one job for the next free worker.
    ///
    /// In inline mode (`threads <= 1`) the job runs immediately on the
    /// caller's thread and its result is buffered for [`PoolHandle::recv`] —
    /// submission order then equals completion order, matching the serial
    /// loop exactly.
    pub fn submit(&mut self, job: Job) {
        match &mut self.inline {
            Some(run) => {
                let out = run(job);
                self.buffered.push_back(out);
            }
            None => self.jobs.push(job),
        }
    }

    /// Blocks until one result is available. Results arrive in completion
    /// order, not submission order — pair each job with an index and reorder
    /// at the merge. Panics if called with no outstanding job (a bug in the
    /// caller's bookkeeping), and re-raises a panic that occurred inside
    /// `work` on a worker thread (so a failing job fails the run instead of
    /// deadlocking it).
    pub fn recv(&mut self) -> Out {
        if self.inline.is_some() {
            return self
                .buffered
                .pop_front()
                .expect("recv without an outstanding inline job");
        }
        match self
            .results
            .recv()
            .expect("worker pool hung up with outstanding jobs")
        {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl<'p, Job, Out> PoolHandle<'p, Job, Out> {
    fn threaded(jobs: &'p JobQueue<Job>, results: Receiver<std::thread::Result<Out>>) -> Self {
        PoolHandle {
            jobs,
            results,
            inline: None,
            buffered: VecDeque::new(),
        }
    }
}

/// Runs `body` with a pool of `threads` workers, each holding private state
/// from `init(worker_id)` and executing jobs with `work`. The pool is torn
/// down when `body` returns; its return value is passed through.
///
/// With `threads <= 1` no thread is spawned: jobs run inline at submission
/// (serial-exact path: a body that receives each result before its next
/// submission runs its jobs exactly as a serial loop would). The pool makes
/// **no ordering guarantee** between results of concurrently executing jobs
/// — determinism comes from the caller's ordered merge, exactly as with
/// [`run_indexed`].
pub fn with_pool<Job, Out, S, I, W, F, R>(threads: usize, init: I, work: W, body: F) -> R
where
    Job: Send,
    Out: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, Job) -> Out + Sync,
    F: FnOnce(&mut PoolHandle<'_, Job, Out>) -> R,
{
    if threads <= 1 {
        let mut state = init(0);
        let queue = JobQueue::new(); // unused, but keeps the handle uniform
        let (_tx, rx) = channel::<std::thread::Result<Out>>();
        let mut handle = PoolHandle {
            jobs: &queue,
            results: rx,
            inline: Some(Box::new(move |job| work(&mut state, job))),
            buffered: VecDeque::new(),
        };
        return body(&mut handle);
    }
    let queue = JobQueue::new();
    let (tx, rx) = channel::<std::thread::Result<Out>>();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            let init = &init;
            let work = &work;
            scope.spawn(move || {
                let mut state = init(w);
                while let Some(job) = queue.pop() {
                    // A panicking job is shipped back as a result so the body
                    // thread re-raises it from `recv` — never lost, and the
                    // other workers (and the body's recv loop) cannot end up
                    // waiting on a job that silently died. `AssertUnwindSafe`
                    // is sound here: the panic is resumed immediately on the
                    // receiving side, so no one observes broken state.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        work(&mut state, job)
                    }));
                    let poisoned = result.is_err();
                    if tx.send(result).is_err() || poisoned {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Wake and drain the workers even when `body` unwinds: without the
        // guard a panic inside `body` would leave them blocked in `pop` and
        // the scope's implicit join would deadlock instead of propagating.
        let closer = CloseOnDrop(&queue);
        let mut handle = PoolHandle::threaded(&queue, rx);
        let r = body(&mut handle);
        drop(closer);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_with_reuses_worker_state() {
        let items: Vec<usize> = (0..64).collect();
        // The per-worker counter must not leak into results, only into state.
        let out = run_indexed_with(
            &items,
            4,
            |_| 0usize,
            |seen, _, &x| {
                *seen += 1;
                x + 1
            },
        );
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn with_pool_runs_all_jobs_any_thread_count() {
        for threads in [1, 2, 5] {
            let total: usize = with_pool(
                threads,
                |_| (),
                |(), job: usize| job * job,
                |pool| {
                    for j in 0..20 {
                        pool.submit(j);
                    }
                    (0..20).map(|_| pool.recv()).sum()
                },
            );
            assert_eq!(total, (0..20).map(|j| j * j).sum::<usize>());
        }
    }

    #[test]
    fn with_pool_interleaves_waves() {
        // Two waves where the second depends on the merged first: the pattern
        // of a pipeline whose next submission depends on an ordered merge.
        let result = with_pool(
            3,
            |_| (),
            |(), job: usize| job + 100,
            |pool| {
                for j in 0..5 {
                    pool.submit(j);
                }
                let mut first: Vec<usize> = (0..5).map(|_| pool.recv()).collect();
                first.sort_unstable();
                let offset = first.iter().sum::<usize>();
                pool.submit(offset);
                pool.recv()
            },
        );
        assert_eq!(result, (100..105).sum::<usize>() + 100);
    }

    #[test]
    fn with_pool_propagates_worker_panics() {
        // A panicking job must fail the run (re-raised from recv), not
        // deadlock it with workers blocked on the queue.
        let result = std::panic::catch_unwind(|| {
            with_pool(
                3,
                |_| (),
                |(), job: usize| {
                    assert!(job != 2, "boom on job {job}");
                    job
                },
                |pool| {
                    for j in 0..5 {
                        pool.submit(j);
                    }
                    (0..5).map(|_| pool.recv()).sum::<usize>()
                },
            )
        });
        assert!(result.is_err(), "worker panic must propagate");
    }

    #[test]
    fn with_pool_unwinds_cleanly_on_body_panic() {
        // A panic in the body must not leave workers blocked forever (the
        // close-on-drop guard wakes them); the panic itself propagates.
        let result = std::panic::catch_unwind(|| {
            with_pool(
                2,
                |_| (),
                |(), job: usize| job,
                |pool| {
                    pool.submit(1);
                    panic!("body failed before collecting");
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn quarantine_returns_the_value_on_success() {
        match quarantine(|| 41 + 1) {
            JobOutcome::Done(v) => assert_eq!(v, 42),
            JobOutcome::Panicked(msg) => panic!("unexpected quarantine failure: {msg}"),
        }
    }

    #[test]
    fn quarantine_captures_panic_messages() {
        // Silence the default hook for the intentional panics.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let literal = quarantine::<()>(|| panic!("plain literal"));
        let formatted = quarantine::<()>(|| panic!("job {} failed", 7));
        let nonstring = quarantine::<()>(|| std::panic::panic_any(13u32));
        std::panic::set_hook(hook);
        assert!(literal.is_panicked());
        match literal {
            JobOutcome::Panicked(msg) => assert_eq!(msg, "plain literal"),
            JobOutcome::Done(()) => panic!("panic not captured"),
        }
        match formatted {
            JobOutcome::Panicked(msg) => assert_eq!(msg, "job 7 failed"),
            JobOutcome::Done(()) => panic!("panic not captured"),
        }
        match nonstring {
            JobOutcome::Panicked(msg) => assert_eq!(msg, "non-string panic payload"),
            JobOutcome::Done(()) => panic!("panic not captured"),
        }
    }

    #[test]
    fn quarantined_pool_jobs_keep_workers_alive() {
        // With quarantine inside `work`, a failing job becomes data and the
        // pool completes every other job — the engine's panic-quarantine path.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcomes: Vec<(usize, JobOutcome<usize>)> = with_pool(
            3,
            |_| (),
            |(), job: usize| {
                (
                    job,
                    quarantine(move || {
                        assert!(job != 2, "boom on job {job}");
                        job * 10
                    }),
                )
            },
            |pool| {
                for j in 0..6 {
                    pool.submit(j);
                }
                let mut got: Vec<_> = (0..6).map(|_| pool.recv()).collect();
                got.sort_by_key(|(i, _)| *i);
                got
            },
        );
        std::panic::set_hook(hook);
        assert_eq!(outcomes.len(), 6);
        for (i, outcome) in &outcomes {
            match outcome {
                JobOutcome::Done(v) => {
                    assert_ne!(*i, 2);
                    assert_eq!(*v, i * 10);
                }
                JobOutcome::Panicked(msg) => {
                    assert_eq!(*i, 2);
                    assert!(msg.contains("boom on job 2"), "message was {msg:?}");
                }
            }
        }
    }

    #[test]
    fn thread_count_ignores_garbage() {
        // Cannot mutate the process environment safely in tests; just check
        // the default path is sane.
        assert!(default_parallelism() >= 1);
        assert!(thread_count() >= 1);
    }
}
