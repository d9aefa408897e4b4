//! A dependency-free scoped worker pool with work-stealing deques.
//!
//! The workspace builds offline (no registry access), so instead of rayon
//! this crate provides the minimal executor the evaluators need, over
//! `std::thread` only:
//!
//! * **Scoped**: [`Executor::scope`] spawns its workers inside
//!   `std::thread::scope`, so jobs may borrow from the caller's stack
//!   (the evaluator, the indexes, the interner) without `'static` bounds.
//! * **Work-stealing**: every worker owns a deque; jobs produced by a
//!   running job (nested [`Scope::map`] calls) are pushed to the worker's
//!   own deque and popped LIFO, while idle workers steal FIFO from the
//!   others. The thread that submits a batch *helps*: it executes queued
//!   jobs while waiting, so nested maps can never deadlock the pool.
//! * **Metrics merge-on-join**: the `approxql-metrics` registry is
//!   thread-local by design (exact, race-free counts). Each job's counter
//!   and timer deltas are captured on the executing worker, retracted from
//!   the worker's registry, and handed back with the result. [`Scope::map`]
//!   absorbs every delta into the joining thread — totals are *identical*
//!   to a sequential run at any thread count — while
//!   [`Scope::map_deferred`] returns the deltas so a speculative caller
//!   can absorb exactly the work a sequential run would have done and
//!   discard the rest.
//! * **Sequential degenerate case**: a 1-thread executor spawns nothing
//!   and runs every map inline, in item order, on the caller — bit-for-bit
//!   the sequential code path.

use approxql_metrics::MetricsSnapshot;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Number of hardware threads (1 if it cannot be determined).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `APPROXQL_THREADS` override, parsed once per process. `Some(n)` for
/// a positive integer value, `None` when unset or unparsable.
pub fn threads_from_env() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("APPROXQL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The thread count user-facing binaries default to: `APPROXQL_THREADS`
/// if set, otherwise the available parallelism.
pub fn default_threads() -> usize {
    threads_from_env()
        .unwrap_or_else(available_parallelism)
        .max(1)
}

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Condvar shared between the pool and its batches (batches are `Arc`ed
/// into jobs, which may not borrow the pool's stack frame).
struct Notifier {
    lock: Mutex<()>,
    cv: Condvar,
}

impl Notifier {
    fn new() -> Arc<Notifier> {
        Arc::new(Notifier {
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    /// Wakes every waiter. Taking the lock first orders this signal after
    /// any state change the caller just made, closing the missed-wakeup
    /// window for waiters that re-check state under the lock.
    fn signal(&self) {
        let _guard = self.lock.lock().unwrap();
        self.cv.notify_all();
    }
}

thread_local! {
    /// `(pool identity, worker index)` of the pool this thread serves.
    static SLOT: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
}

struct Shared<'env> {
    deques: Vec<Mutex<VecDeque<Job<'env>>>>,
    notifier: Arc<Notifier>,
    shutdown: AtomicBool,
}

impl<'env> Shared<'env> {
    fn new(threads: usize) -> Shared<'env> {
        Shared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            notifier: Notifier::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Stable identity for the thread-local slot registration.
    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as *const () as usize
    }

    /// The current thread's worker index in *this* pool, if registered.
    fn own_index(&self) -> Option<usize> {
        let (pool, idx) = SLOT.with(|s| s.get());
        (pool == self.addr() && idx < self.deques.len()).then_some(idx)
    }

    /// Pushes a job to the current thread's own deque (slot 0 when the
    /// pushing thread is not a worker of this pool).
    fn push(&self, job: Job<'env>) {
        let idx = self.own_index().unwrap_or(0);
        self.deques[idx].lock().unwrap().push_back(job);
    }

    /// Pops from the own deque (LIFO), then steals from the others (FIFO).
    fn find_job(&self, own: Option<usize>) -> Option<Job<'env>> {
        if let Some(i) = own {
            if let Some(job) = self.deques[i].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        let n = self.deques.len();
        let start = own.map_or(0, |i| i + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        None
    }

    fn has_jobs(&self) -> bool {
        self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }

    fn worker_loop(&self, idx: usize) {
        let prev = SLOT.with(|s| s.replace((self.addr(), idx)));
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            if let Some(job) = self.find_job(Some(idx)) {
                job();
                continue;
            }
            let guard = self.notifier.lock.lock().unwrap();
            if self.shutdown.load(Ordering::Acquire) || self.has_jobs() {
                continue;
            }
            // The timeout is a safety net only: pushes and completions
            // signal the condvar under the same lock.
            let _ = self
                .notifier
                .cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
        SLOT.with(|s| s.set(prev));
    }
}

/// Sets the shutdown flag when dropped, so workers exit even if the
/// scope's main closure unwinds.
struct ShutdownGuard<'a, 'env>(&'a Shared<'env>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown.store(true, Ordering::Release);
        self.0.notifier.signal();
    }
}

/// One submitted batch: items in, `(result, metrics delta)` out.
struct Batch<T, R, F> {
    f: F,
    items: Vec<Mutex<Option<T>>>,
    results: Vec<Mutex<Option<(R, MetricsSnapshot)>>>,
    remaining: AtomicUsize,
    notifier: Arc<Notifier>,
}

impl<T, R, F: Fn(T) -> R> Batch<T, R, F> {
    fn run(&self, i: usize) {
        // Completion is signalled by the guard even if `f` panics, so the
        // submitting thread never waits forever (it observes the missing
        // result and propagates the failure).
        let _done = Completion { batch: self };
        let item = self.items[i].lock().unwrap().take().expect("job ran twice");
        let before = approxql_metrics::snapshot();
        let result = (self.f)(item);
        let delta = approxql_metrics::snapshot().diff(&before);
        approxql_metrics::retract(&delta);
        *self.results[i].lock().unwrap() = Some((result, delta));
    }
}

struct Completion<'a, T, R, F> {
    batch: &'a Batch<T, R, F>,
}

impl<T, R, F> Drop for Completion<'_, T, R, F> {
    fn drop(&mut self) {
        self.batch.remaining.fetch_sub(1, Ordering::Release);
        self.batch.notifier.signal();
    }
}

/// A handle into a running pool; created by [`Executor::scope`].
///
/// `'env` is the lifetime of the environment jobs may borrow. The handle
/// is `Clone`, so recursive code can move a copy into a job closure and
/// submit *nested* maps from inside running jobs.
#[derive(Clone)]
pub struct Scope<'env> {
    shared: Option<Arc<Shared<'env>>>,
}

impl<'env> Scope<'env> {
    /// Worker count (including the submitting thread); 1 means inline.
    pub fn threads(&self) -> usize {
        self.shared.as_ref().map_or(1, |s| s.deques.len())
    }

    /// Applies `f` to every item, in parallel, returning results in item
    /// order. Every job's metrics delta is absorbed into the calling
    /// thread, so counter totals equal a sequential run's exactly. On a
    /// 1-thread scope this *is* the sequential loop.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Send + Sync + 'env,
    {
        match self.shared.as_deref() {
            Some(shared) if items.len() > 1 => self
                .run_batch(shared, items, f)
                .into_iter()
                .map(|(r, delta)| {
                    approxql_metrics::absorb(&delta);
                    r
                })
                .collect(),
            _ => items.into_iter().map(f).collect(),
        }
    }

    /// Like [`Scope::map`], but metrics deltas are *not* absorbed: each
    /// result is returned with the delta its job recorded, and the caller
    /// decides which to absorb and which to discard. This is what makes
    /// speculative parallel execution counter-exact: absorb a delta only
    /// when the sequential algorithm would have done that work.
    pub fn map_deferred<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<(R, MetricsSnapshot)>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Send + Sync + 'env,
    {
        match self.shared.as_deref() {
            Some(shared) if items.len() > 1 => self.run_batch(shared, items, f),
            _ => items
                .into_iter()
                .map(|item| {
                    let before = approxql_metrics::snapshot();
                    let result = f(item);
                    let delta = approxql_metrics::snapshot().diff(&before);
                    approxql_metrics::retract(&delta);
                    (result, delta)
                })
                .collect(),
        }
    }

    fn run_batch<T, R, F>(
        &self,
        shared: &'_ Shared<'env>,
        items: Vec<T>,
        f: F,
    ) -> Vec<(R, MetricsSnapshot)>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Send + Sync + 'env,
    {
        let n = items.len();
        let batch = Arc::new(Batch {
            f,
            items: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            notifier: Arc::clone(&shared.notifier),
        });
        for i in 0..n {
            let b = Arc::clone(&batch);
            shared.push(Box::new(move || b.run(i)));
        }
        shared.notifier.signal();

        // Help while waiting: execute queued jobs (this batch's or any
        // nested batch's) so a submitting worker never starves the pool.
        let own = shared.own_index();
        loop {
            if batch.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            if let Some(job) = shared.find_job(own) {
                job();
                continue;
            }
            let guard = shared.notifier.lock.lock().unwrap();
            if batch.remaining.load(Ordering::Acquire) == 0 || shared.has_jobs() {
                continue;
            }
            let _ = shared
                .notifier
                .cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }

        batch
            .results
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap()
                    .take()
                    .expect("a parallel job panicked")
            })
            .collect()
    }
}

/// A worker-pool factory: holds the thread count, spawns per scope.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The worker count this executor runs scopes with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a live pool of `threads - 1` spawned workers plus the
    /// calling thread. Jobs submitted through the [`Scope`] may borrow
    /// anything that outlives the call (`'env`). With 1 thread, nothing is
    /// spawned and every map runs inline on the caller.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        if self.threads == 1 {
            return f(&Scope { shared: None });
        }
        let shared: Arc<Shared<'env>> = Arc::new(Shared::new(self.threads));
        std::thread::scope(|ts| {
            let _shutdown = ShutdownGuard(&shared);
            for i in 1..self.threads {
                let sh = Arc::clone(&shared);
                ts.spawn(move || sh.worker_loop(i));
            }
            let prev = SLOT.with(|s| s.replace((shared.addr(), 0)));
            let result = f(&Scope {
                shared: Some(Arc::clone(&shared)),
            });
            SLOT.with(|s| s.set(prev));
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_metrics::Metric;

    #[test]
    fn map_preserves_item_order() {
        let exec = Executor::new(4);
        let out = exec.scope(|s| s.map((0..100).collect(), |i: i32| i * i));
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let exec = Executor::new(1);
        let caller = std::thread::current().id();
        let out = exec.scope(|s| {
            assert_eq!(s.threads(), 1);
            s.map(vec![1, 2, 3], move |i| {
                assert_eq!(std::thread::current().id(), caller);
                i + 1
            })
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_uses_other_threads() {
        let exec = Executor::new(4);
        let caller = format!("{:?}", std::thread::current().id());
        let ids = exec.scope(|s| {
            s.map((0..64).collect(), |_: i32| {
                std::thread::sleep(Duration::from_micros(200));
                format!("{:?}", std::thread::current().id())
            })
        });
        let distinct: std::collections::HashSet<&String> = ids.iter().collect();
        // With 64 sleeping jobs and 3 extra workers, someone else helps.
        assert!(
            distinct.len() > 1 || ids.iter().all(|id| *id != caller),
            "expected work on more than one thread: {distinct:?}"
        );
    }

    #[test]
    fn jobs_may_borrow_the_environment() {
        let data: Vec<u64> = (0..1000).collect();
        let exec = Executor::new(3);
        let chunks: Vec<&[u64]> = data.chunks(100).collect();
        let sums = exec.scope(|s| s.map(chunks, |c: &[u64]| c.iter().sum::<u64>()));
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_maps_on_the_same_pool() {
        let exec = Executor::new(3);
        let out = exec.scope(|s| {
            let sc = s.clone();
            s.map((0u64..8).collect(), move |i| {
                // A nested batch from inside a job: the worker pushes to
                // its own deque and helps drain the pool while waiting.
                let parts = sc.map((0u64..4).collect(), move |j| i * 10 + j);
                parts.iter().sum::<u64>()
            })
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[1], 10 + 11 + 12 + 13);
    }

    #[test]
    fn metrics_totals_match_sequential() {
        let work = |i: u64| {
            Metric::ListJoinOps.add(i + 1);
            i
        };
        let before = approxql_metrics::snapshot();
        let seq: Vec<u64> = Executor::new(1).scope(|s| s.map((0..32).collect(), work));
        let seq_delta = approxql_metrics::snapshot().diff(&before);
        let before = approxql_metrics::snapshot();
        let par: Vec<u64> = Executor::new(4).scope(|s| s.map((0..32).collect(), work));
        let par_delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(seq, par);
        assert_eq!(
            seq_delta.get(Metric::ListJoinOps),
            par_delta.get(Metric::ListJoinOps)
        );
        assert_eq!(seq_delta.get(Metric::ListJoinOps), (1..=32).sum::<u64>());
    }

    #[test]
    fn map_deferred_leaves_absorption_to_the_caller() {
        let before = approxql_metrics::snapshot();
        let out = Executor::new(4).scope(|s| {
            s.map_deferred((0..8u64).collect(), |i| {
                Metric::TopkOps.add(10);
                i
            })
        });
        // Nothing absorbed yet: the caller's registry is untouched.
        assert_eq!(
            approxql_metrics::snapshot()
                .diff(&before)
                .get(Metric::TopkOps),
            0
        );
        for (_, delta) in out.iter().take(3) {
            assert_eq!(delta.get(Metric::TopkOps), 10);
            approxql_metrics::absorb(delta);
        }
        assert_eq!(
            approxql_metrics::snapshot()
                .diff(&before)
                .get(Metric::TopkOps),
            30
        );
    }

    #[test]
    fn env_and_default_threads_are_sane() {
        assert!(available_parallelism() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn scope_propagates_job_panics() {
        let result = std::panic::catch_unwind(|| {
            Executor::new(2).scope(|s| {
                s.map((0..4).collect(), |i: i32| {
                    if i == 2 {
                        panic!("job failure");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
