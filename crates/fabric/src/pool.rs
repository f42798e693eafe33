//! Persistent validation worker pool.
//!
//! PR 4's parallel pipeline spawned fresh `std::thread::scope` workers
//! for every block, and `BENCH_commit_path.json` showed the spawn cost
//! eating the gains at small document sizes (0.80–0.85x at
//! `doc_readings: 4`). [`WorkerPool`] amortizes thread creation across
//! the whole run: threads are spawned once when a parallel pipeline is
//! constructed and parked on a condvar between batches.
//!
//! # Shape
//!
//! A batch is a closure run once per index `0..len`; workers pull
//! indices from a shared atomic cursor (same work-stealing-by-cursor
//! scheme the scoped version used). There is one way to run a batch:
//! [`WorkerPool::submit`] installs it and returns a [`BatchTicket`],
//! [`WorkerPool::wait`] redeems the ticket. A synchronous batch is the
//! same two calls back to back — sync is async joined at once. The
//! *submitting* thread joins the pull loop inside `wait`, so a pool
//! built for `workers` parallelism spawns only `workers - 1` threads and
//! total concurrency matches the old scoped behaviour exactly.
//!
//! Everything is safely `'static`: the job is an
//! `Arc<dyn Fn(usize) + Send + Sync>` whose captures (transactions,
//! result slots, validator) are `Arc`ed by the caller — no lifetime
//! erasure, and the crate-level `forbid(unsafe_code)` stands.
//!
//! # Panic policy
//!
//! A panic in the job on any thread is caught, the batch is drained,
//! and the submitter re-raises — its own payload if it panicked itself,
//! otherwise `"validation worker panicked"`, matching the scoped
//! pipeline's message. The pool stays usable afterwards.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of batch work: called once per index, concurrently.
pub type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// One installed batch, cloned out by each worker.
#[derive(Clone)]
struct Batch {
    /// Monotone batch number; workers run each epoch exactly once.
    epoch: u64,
    job: Job,
    cursor: Arc<AtomicUsize>,
    len: usize,
}

#[derive(Default)]
struct PoolState {
    batch: Option<Batch>,
    epoch: u64,
    /// Spawned workers still running the current batch.
    active: usize,
    /// Whether any worker's job invocation panicked this batch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a batch is installed or shutdown is requested.
    work_ready: Condvar,
    /// Signalled when the last active worker finishes a batch.
    work_done: Condvar,
}

/// A fixed-size pool of parked validation workers (see module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

/// Receipt for a batch installed with [`WorkerPool::submit`]. The
/// spawned workers are already chewing on it; redeem the ticket with
/// [`WorkerPool::wait`] to contribute the submitting thread and block
/// until the batch drains. Dropping the ticket without waiting is a
/// bug (the pool's batch slot stays occupied), so the type is
/// `#[must_use]`.
#[must_use = "a submitted batch must be waited on"]
pub struct BatchTicket {
    job: Job,
    cursor: Arc<AtomicUsize>,
    len: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

/// Pulls indices from the cursor until the batch is exhausted.
fn run_indices(job: &Job, cursor: &AtomicUsize, len: usize) {
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            return;
        }
        job(i);
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut last_epoch = 0u64;
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("worker pool poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                match &state.batch {
                    Some(batch) if batch.epoch != last_epoch => {
                        last_epoch = batch.epoch;
                        break batch.clone();
                    }
                    _ => state = shared.work_ready.wait(state).expect("worker pool poisoned"),
                }
            }
        };
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            run_indices(&batch.job, &batch.cursor, batch.len);
        }))
        .is_err();
        // Drop our job clone *before* signalling completion so the
        // submitter's `Arc::try_unwrap` on the job captures succeeds.
        drop(batch);
        let mut state = shared.state.lock().expect("worker pool poisoned");
        if panicked {
            state.panicked = true;
        }
        state.active -= 1;
        if state.active == 0 {
            shared.work_done.notify_all();
        }
    }
}

impl WorkerPool {
    /// Spawns a pool providing `workers` total parallelism: `workers-1`
    /// parked threads plus the submitting thread itself.
    pub fn new(workers: usize) -> Self {
        let threads = workers.saturating_sub(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|n| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("validate-{n}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn validation worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Total parallelism (spawned threads + the submitter).
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Installs a batch and returns immediately: the spawned workers
    /// start pulling indices while the submitting thread is free to do
    /// other work (the pipelined commit path runs the previous block's
    /// finalize here). Redeem the ticket with [`WorkerPool::wait`].
    ///
    /// At most one batch may be in flight; the runner serializes
    /// submissions (see [`crate::pipeline::PipelineRunner`]).
    pub fn submit(&self, len: usize, job: Job) -> BatchTicket {
        let cursor = Arc::new(AtomicUsize::new(0));
        if len > 0 {
            let mut state = self.shared.state.lock().expect("worker pool poisoned");
            debug_assert!(
                state.batch.is_none() && state.active == 0,
                "one batch in flight at a time"
            );
            state.epoch += 1;
            state.batch = Some(Batch {
                epoch: state.epoch,
                job: job.clone(),
                cursor: cursor.clone(),
                len,
            });
            state.active = self.handles.len();
            state.panicked = false;
            self.shared.work_ready.notify_all();
        }
        BatchTicket { job, cursor, len }
    }

    /// Joins a batch installed by [`WorkerPool::submit`]: the calling
    /// thread pulls remaining indices, then blocks until every worker
    /// has drained.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `job` ("validation worker panicked" if it
    /// happened on a pool thread).
    pub fn wait(&self, ticket: BatchTicket) {
        let BatchTicket { job, cursor, len } = ticket;
        if len == 0 {
            return;
        }
        let own_panic = catch_unwind(AssertUnwindSafe(|| run_indices(&job, &cursor, len))).err();
        let worker_panicked = {
            let mut state = self.shared.state.lock().expect("worker pool poisoned");
            while state.active > 0 {
                state = self
                    .shared
                    .work_done
                    .wait(state)
                    .expect("worker pool poisoned");
            }
            state.batch = None;
            state.panicked
        };
        drop(job);
        if let Some(payload) = own_panic {
            std::panic::resume_unwind(payload);
        }
        assert!(!worker_panicked, "validation worker panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("worker pool poisoned");
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// The synchronous form: a batch joined as soon as it is submitted
    /// (the spawned workers may already be pulling, or done, by then).
    fn submit_and_wait(pool: &WorkerPool, len: usize, job: Job) {
        pool.wait(pool.submit(len, job));
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for len in [0usize, 1, 2, 7, 100] {
            let counts: Arc<Vec<AtomicU64>> =
                Arc::new((0..len).map(|_| AtomicU64::new(0)).collect());
            let captured = counts.clone();
            submit_and_wait(
                &pool,
                len,
                Arc::new(move |i| {
                    captured[i].fetch_add(1, Ordering::Relaxed);
                }),
            );
            for (i, count) in counts.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "len={len}, index {i}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(3);
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let captured = total.clone();
            submit_and_wait(
                &pool,
                10,
                Arc::new(move |_| {
                    captured.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        assert_eq!(total.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn single_worker_pool_runs_on_the_caller() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let caller = std::thread::current().id();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let captured = seen.clone();
        submit_and_wait(
            &pool,
            5,
            Arc::new(move |i| {
                captured
                    .lock()
                    .unwrap()
                    .push((i, std::thread::current().id()));
            }),
        );
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|(_, id)| *id == caller));
    }

    #[test]
    fn job_captures_are_released_after_wait() {
        let pool = WorkerPool::new(4);
        let payload = Arc::new(vec![1u8, 2, 3]);
        let captured = payload.clone();
        submit_and_wait(
            &pool,
            8,
            Arc::new(move |_| {
                let _ = captured.len();
            }),
        );
        // Both the pool's batch slot and the workers' clones are gone.
        assert_eq!(Arc::strong_count(&payload), 1);
        Arc::try_unwrap(payload).expect("sole owner after wait");
    }

    #[test]
    fn panic_in_job_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            submit_and_wait(
                &pool,
                4,
                Arc::new(|i| {
                    if i == 2 {
                        panic!("boom at {i}");
                    }
                }),
            );
        }));
        assert!(result.is_err());
        // The pool keeps working after a panicked batch.
        let total = Arc::new(AtomicU64::new(0));
        let captured = total.clone();
        submit_and_wait(
            &pool,
            3,
            Arc::new(move |_| {
                captured.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(total.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn drop_joins_idle_workers() {
        let pool = WorkerPool::new(8);
        submit_and_wait(&pool, 2, Arc::new(|_| {}));
        drop(pool); // must not hang
    }

    /// The asynchronous half of the contract: spawned workers start on
    /// a submitted batch without the submitter, which is free to do
    /// other work (here: block on the first result) before it waits.
    #[test]
    fn submitted_batch_starts_before_the_submitter_waits() {
        let pool = WorkerPool::new(2);
        let (done, first_done) = std::sync::mpsc::channel();
        let done = Mutex::new(done);
        let ticket = pool.submit(
            8,
            Arc::new(move |i| {
                done.lock().unwrap().send(i).unwrap();
            }),
        );
        // Only a pool thread can have produced this: the submitter has
        // not pulled an index yet.
        first_done.recv().expect("a worker ran an index");
        pool.wait(ticket);
        assert_eq!(first_done.try_iter().count(), 7, "the other indices");
    }
}
