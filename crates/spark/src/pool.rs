//! A persistent worker pool for bulk-synchronous kernels.
//!
//! The spawn-per-call kernels in [`crate::kernels`] pay thread creation and
//! teardown on every SMVP — acceptable for one product, ruinous for the
//! paper's 6000-step time loop where the same parallel shape repeats every
//! step. [`WorkerPool`] keeps a fixed set of OS threads alive, each with
//! its **own** command queue (no shared `Mutex<Receiver>` on the dispatch
//! path), and feeds them through [`WorkerPool::broadcast`]: one *shared*
//! closure invoked once per worker with that worker's index. Nothing is
//! boxed and nothing is allocated per call (the per-worker queues and the
//! completion latch are reused), so a 6000-step time loop can dispatch
//! 6000 × phases batches without touching the allocator. Full barrier.
//!
//! # Safety model
//!
//! The broadcast closure may borrow from the caller's stack (`'scope`
//! lifetime). The pool erases that lifetime to hand the closure to
//! long-lived worker threads, which is sound because `broadcast` blocks on
//! a completion latch until every worker's call has finished (or
//! panicked) — no call can outlive the borrowed data. Worker panics are
//! caught, counted, and re-raised on the calling thread after the batch
//! drains.
//!
//! # Crash reporting
//!
//! [`WorkerPool::try_broadcast`] reports which workers panicked (as a
//! [`BatchFailure`]) rather than re-raising. A worker thread survives its
//! closure's panic (`worker_loop` catches it), so the pool stays whole and
//! the caller decides what to do: the fault-injected BSP executor re-runs
//! each crashed worker's shard on the calling thread before its next
//! dispatch, so a crashed shard is never silently lost.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A shared batch closure, called once per worker with the worker index.
pub type BatchFn<'scope> = dyn Fn(usize) + Sync + 'scope;

/// A batch in which one or more workers panicked.
///
/// Returned by [`WorkerPool::try_broadcast`]; the batch itself has fully
/// drained (barrier semantics hold), so the caller may recover — re-run the
/// failed shards — or [`BatchFailure::resume`] the panic.
pub struct BatchFailure {
    /// Indices of the workers whose shard panicked, ascending.
    pub panicked: Vec<usize>,
    /// The first panic payload observed in the batch.
    payload: Box<dyn std::any::Any + Send>,
}

impl BatchFailure {
    /// Re-raises the first panic payload on the current thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }

    /// The panic message, if the payload was a string (the common case).
    pub fn message(&self) -> Option<&str> {
        self.payload
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| self.payload.downcast_ref::<String>().map(String::as_str))
    }
}

impl std::fmt::Debug for BatchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchFailure")
            .field("panicked", &self.panicked)
            .field("message", &self.message())
            .finish()
    }
}

/// Completion latch for one `broadcast` batch.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    /// First panic payload observed in the batch, re-raised by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Worker indices whose command panicked, in completion order.
    panicked_workers: Vec<usize>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
                panicked_workers: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Re-arms a drained latch for the next batch (the zero-allocation
    /// `broadcast` path reuses one latch for the pool's whole lifetime).
    fn reset(&self, count: usize) {
        let mut state = self.state.lock().expect("latch lock");
        debug_assert_eq!(state.remaining, 0, "latch reset while a batch is live");
        state.remaining = count;
        state.panic = None;
        state.panicked_workers.clear();
    }

    fn complete(&self, worker: usize, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("latch lock");
        state.remaining -= 1;
        if panic.is_some() {
            state.panicked_workers.push(worker);
        }
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until the batch drains; reports a panicked batch instead of
    /// re-raising.
    fn wait_outcome(&self) -> Result<(), BatchFailure> {
        let mut state = self.state.lock().expect("latch lock");
        while state.remaining > 0 {
            state = self.cv.wait(state).expect("latch wait");
        }
        match state.panic.take() {
            None => Ok(()),
            Some(payload) => {
                let mut panicked = std::mem::take(&mut state.panicked_workers);
                panicked.sort_unstable();
                Err(BatchFailure { panicked, payload })
            }
        }
    }
}

/// One queued command for a specific worker: a lifetime-erased shared
/// closure from `broadcast`, which the worker calls with its own index.
struct Cmd(&'static BatchFn<'static>, Arc<Latch>);

struct QueueState {
    cmds: VecDeque<Cmd>,
    shutdown: bool,
}

/// A single worker's private command queue.
struct WorkerQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl WorkerQueue {
    fn new() -> Self {
        WorkerQueue {
            state: Mutex::new(QueueState {
                cmds: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn push(&self, cmd: Cmd) {
        let mut state = self.state.lock().expect("queue lock");
        state.cmds.push_back(cmd);
        self.cv.notify_one();
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.shutdown = true;
        self.cv.notify_all();
    }

    /// Blocks for the next command; `None` once the queue is closed *and*
    /// drained (so no queued work is ever abandoned on shutdown).
    fn pop(&self) -> Option<Cmd> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(cmd) = state.cmds.pop_front() {
                return Some(cmd);
            }
            if state.shutdown {
                return None;
            }
            state = self.cv.wait(state).expect("queue wait");
        }
    }
}

/// A fixed-size pool of persistent worker threads executing borrowed task
/// batches with barrier semantics.
pub struct WorkerPool {
    queues: Arc<Vec<WorkerQueue>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Reusable latch for `broadcast` batches (serialized by `submit`).
    batch_latch: Arc<Latch>,
    /// Serializes `broadcast` callers so the reusable latch is never shared
    /// between two live batches.
    submit: Mutex<()>,
    /// Lifetime dispatch counters (relaxed; noise next to the batch
    /// barrier itself) for the observability layer.
    stats: PoolCounters,
}

#[derive(Debug, Default)]
struct PoolCounters {
    broadcasts: AtomicU64,
}

/// A snapshot of the pool's lifetime dispatch counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Full-pool batches dispatched (`broadcast`, `try_broadcast`).
    pub broadcasts: u64,
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        let queues: Arc<Vec<WorkerQueue>> =
            Arc::new((0..threads).map(|_| WorkerQueue::new()).collect());
        let workers = (0..threads)
            .map(|i| {
                let queues = Arc::clone(&queues);
                std::thread::Builder::new()
                    .name(format!("smvp-worker-{i}"))
                    .spawn(move || worker_loop(&queues[i], i))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            queues,
            workers,
            threads,
            batch_latch: Arc::new(Latch::new(0)),
            submit: Mutex::new(()),
            stats: PoolCounters::default(),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime dispatch counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            broadcasts: self.stats.broadcasts.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(w)` once on every worker `w ∈ 0..threads()` and returns once
    /// all calls have completed — a full barrier. If any call panicked, the
    /// first payload is re-raised here after the whole batch has drained
    /// (so borrowed data is never abandoned mid-use).
    ///
    /// Nothing is boxed and nothing is heap-allocated on this path: the
    /// closure is passed by reference, the per-worker queues reuse their
    /// capacity, and the completion latch is owned by the pool. Concurrent
    /// `broadcast` calls are serialized internally (each is a barrier
    /// anyway).
    ///
    /// `f` is shared by all workers, so per-worker mutable state must be
    /// reached through the worker index (disjoint slices, per-worker
    /// buffers), not through `&mut` captures.
    pub fn broadcast(&self, f: &BatchFn<'_>) {
        if let Err(failure) = self.try_broadcast(f) {
            failure.resume();
        }
    }

    /// Like [`WorkerPool::broadcast`], but a panicking worker is reported
    /// rather than re-raised: the returned [`BatchFailure`] names every
    /// worker whose `f(w)` call panicked. The batch has fully drained
    /// either way, so the pool (and any data `f` borrowed) is safe to
    /// touch — this is the primitive crash recovery builds on.
    ///
    /// # Errors
    ///
    /// Returns the [`BatchFailure`] if any worker panicked.
    pub fn try_broadcast(&self, f: &BatchFn<'_>) -> Result<(), BatchFailure> {
        // A previous broadcast may have poisoned the guard by re-raising a
        // worker panic while holding it; the guard carries no data, so
        // poisoning is harmless — recover and keep serializing.
        let _guard = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.stats.broadcasts.fetch_add(1, Ordering::Relaxed);
        self.batch_latch.reset(self.threads);
        // SAFETY: the latch wait below blocks until every worker has
        // finished its `f(w)` call (or panicked), so the erased `'scope`
        // borrow never outlives this stack frame.
        let f: &'static BatchFn<'static> =
            unsafe { std::mem::transmute::<&BatchFn<'_>, &'static BatchFn<'static>>(f) };
        for queue in self.queues.iter() {
            queue.push(Cmd(f, Arc::clone(&self.batch_latch)));
        }
        self.batch_latch.wait_outcome()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for queue in self.queues.iter() {
            queue.close();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &WorkerQueue, index: usize) {
    while let Some(Cmd(f, latch)) = queue.pop() {
        let outcome = catch_unwind(AssertUnwindSafe(|| f(index)));
        latch.complete(index, outcome.err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn worker_panic_propagates_after_batch_drains() {
        let pool = WorkerPool::new(4);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 0 {
                    panic!("worker 0 failed");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            3,
            "non-panicking workers still complete before the panic is re-raised"
        );
    }

    #[test]
    fn broadcast_runs_once_per_worker_with_distinct_indices() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(&|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "worker {w}");
        }
    }

    #[test]
    fn broadcast_is_a_barrier_and_reusable() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for round in 1..=50 {
            pool.broadcast(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 3 * round, "round {round}");
        }
    }

    #[test]
    fn broadcast_may_borrow_stack_data() {
        let pool = WorkerPool::new(4);
        let input = [10u64, 20, 30, 40];
        let squares: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(&|w| {
            squares[w].store((input[w] * input[w]) as usize, Ordering::Relaxed);
        });
        let got: Vec<usize> = squares.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        assert_eq!(got, vec![100, 400, 900, 1600]);
    }

    #[test]
    fn broadcast_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 0 {
                    panic!("worker 0 failed");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        let counter = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn try_broadcast_reports_exactly_the_panicked_workers() {
        let pool = WorkerPool::new(4);
        let failure = pool
            .try_broadcast(&|w| {
                if w == 1 || w == 3 {
                    panic!("injected crash on worker {w}");
                }
            })
            .expect_err("two workers panicked");
        assert_eq!(failure.panicked, vec![1, 3]);
        assert!(failure.message().unwrap().contains("injected crash"));
        // Clean batches return Ok and the pool stays usable.
        let counter = AtomicUsize::new(0);
        pool.try_broadcast(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean batch");
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn stats_count_broadcasts() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.broadcast(&|_| {});
        pool.broadcast(&|_| {});
        assert_eq!(pool.stats().broadcasts, 2);
    }
}
