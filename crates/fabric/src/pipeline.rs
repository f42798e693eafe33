//! Pluggable commit-path validation pipeline.
//!
//! The committing peer's pre-validation stage — endorsement-policy
//! evaluation, signature verification, CRDT payload decoding — is
//! per-transaction independent: no step reads the world state or any
//! other transaction's outcome (duplicate-id detection, the one
//! cross-transaction check, runs *before* this stage). That makes the
//! stage embarrassingly parallel, and both Javaid et al. (*Optimizing
//! Validation Phase of Hyperledger Fabric*) and Wang & Chu's bottleneck
//! study identify it as a dominant commit-path cost. The finalize stage
//! (MVCC + CRDT merge) is Algorithm 1's one sequential pass in block
//! order on every pipeline, as in Fabric v1.4, which parallelizes only
//! the per-transaction step.
//!
//! [`ValidationPipeline`] is the configuration seam, mirroring the
//! [`DeliveryLayer`](crate::simulation::DeliveryLayer) /
//! [`OrderingBackend`](crate::simulation::OrderingBackend) pattern:
//! the default [`ValidationPipeline::Sequential`] reproduces the seed
//! commit path instruction-for-instruction, while
//! [`ValidationPipeline::Pipelined`] fans the same per-item closure out
//! over a persistent [`WorkerPool`] (threads spawned once per peer, not
//! once per block — the per-block `std::thread::scope` of the first
//! parallel pipeline cost 15–20% at small document sizes).
//! [`PipelineRunner`] binds the configuration to its pool.
//!
//! # One primitive: submit, then join
//!
//! There is one way to run a batch on the pool:
//! [`PipelineRunner::map_ordered_bg`] starts it and
//! [`PipelineRunner::join`] collects it. The overlapped commit path
//! does other work between the two calls (block N's finalize while
//! block N+1 pre-validates — the lockless overlapped validation of
//! Meir et al., arXiv 1911.12711); a synchronous batch is the same two
//! calls back to back. A `Pipelined` peer driven only through
//! [`Peer::process_block`](crate::peer::Peer::process_block) therefore
//! fans out each block's signature checks, joins them at once, and
//! overlaps no block with another.
//!
//! # Determinism argument
//!
//! Parallelism must not perturb the simulation's bit-for-bit
//! reproducibility. Two properties guarantee it:
//!
//! 1. **Purity** — the mapped closure is a pure function of the
//!    item (plus shared read-only context); it never observes
//!    scheduling order, so each per-index result is identical no matter
//!    which worker computes it or when.
//! 2. **Ordered join** — every result lands in its index's slot and
//!    [`PipelineRunner::join`] reassembles the output vector in index
//!    order, so downstream consumers (the finalize stage, the work
//!    counters that drive the cost model) see exactly the sequence a
//!    sequential map would have produced.
//!
//! Hence `Pipelined { workers }` is value-identical to `Sequential` for
//! every `workers >= 1` and under either driver — asserted by the seed
//! sweeps in `crates/fabric/tests/parallel_validation.rs` — and only
//! the *wall-clock* time of the commit path changes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::pool::{BatchTicket, WorkerPool};

/// Strategy for the parallelizable stages of
/// [`Peer::process_block`](crate::peer::Peer::process_block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ValidationPipeline {
    /// Validate transactions one after another on the calling thread —
    /// byte-for-byte the seed behaviour.
    #[default]
    Sequential,
    /// Fan pre-validation out over a persistent pool of `workers`
    /// threads; results are joined in item order (see the module-level
    /// determinism argument). `workers == 1` still runs on the calling
    /// thread. Under the chained drivers
    /// ([`Peer::finish_block_with_next`](crate::peer::Peer::finish_block_with_next))
    /// the pure pre-validation stage of block N+1 rides the pool
    /// ([`PipelineRunner::map_ordered_bg`]) while block N's finalize
    /// runs on the calling thread; a caller of
    /// [`Peer::process_block`](crate::peer::Peer::process_block) gets
    /// the intra-block fan-out only. Finalize is the same sequential
    /// pass as `Sequential`'s. Value-identical to `Sequential` — only
    /// wall-clock changes.
    Pipelined {
        /// Total worker parallelism (clamped to at least 1).
        workers: usize,
    },
}

impl ValidationPipeline {
    /// A pooled, cross-block pipelined pipeline with `workers` threads
    /// (at least 1).
    pub fn pipelined(workers: usize) -> Self {
        ValidationPipeline::Pipelined {
            workers: workers.max(1),
        }
    }

    /// Whether this mode overlaps pre-validation of the next block
    /// with finalize of the current one.
    pub fn is_pipelined(&self) -> bool {
        matches!(self, ValidationPipeline::Pipelined { .. })
    }

    /// Short name for reports ("sequential", "pipelined(4)").
    pub fn label(&self) -> String {
        match *self {
            ValidationPipeline::Sequential => "sequential".to_string(),
            ValidationPipeline::Pipelined { workers } => format!("pipelined({workers})"),
        }
    }
}

/// A [`ValidationPipeline`] bound to its (lazily spawned) persistent
/// [`WorkerPool`]. One runner lives per [`Peer`](crate::peer::Peer);
/// `Sequential` and single-worker runners never spawn threads.
#[derive(Debug)]
pub struct PipelineRunner {
    mode: ValidationPipeline,
    pool: Option<WorkerPool>,
    /// Whether an unjoined batch ([`PipelineRunner::map_ordered_bg`])
    /// currently owns the pool. While set, further maps are deferred
    /// to their join on the calling thread (value-identical by purity
    /// and ordered join) instead of contending for the pool.
    busy: AtomicBool,
}

/// An ordered map started by [`PipelineRunner::map_ordered_bg`]. Redeem
/// with [`PipelineRunner::join`] to get the results in item order.
///
/// Two shapes, indistinguishable by value:
///
/// - `Pool`: the batch was submitted to the worker pool and is being
///   computed concurrently with whatever the caller does next.
/// - `Deferred`: the pool was unavailable (no pool spawned on this
///   hardware, a background batch already in flight, or ≤1 item); the
///   map is captured as a closure and evaluated at join time on the
///   calling thread. This keeps single-threaded machines and deep
///   pipelines on exactly the same code path, just without wall-clock
///   overlap.
#[must_use = "a background map must be joined"]
pub struct PendingMap<U> {
    inner: PendingInner<U>,
}

enum PendingInner<U> {
    Pool {
        slots: Arc<Vec<OnceLock<U>>>,
        ticket: BatchTicket,
    },
    Deferred(Box<dyn FnOnce() -> Vec<U> + Send>),
}

impl<U> PendingMap<U> {
    /// Whether the batch was submitted to the pool — the only case in
    /// which it runs while the caller does something else.
    pub(crate) fn is_pooled(&self) -> bool {
        matches!(self.inner, PendingInner::Pool { .. })
    }
}

impl<U> std::fmt::Debug for PendingMap<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_pooled() { "Pool" } else { "Deferred" };
        f.debug_struct("PendingMap").field("kind", &kind).finish()
    }
}

impl PipelineRunner {
    /// Builds a runner for `mode`, spawning the worker pool up front
    /// when `mode` asks for real parallelism. Spawned threads are
    /// clamped to the machine's `available_parallelism`: threads beyond
    /// the hardware can only add context-switch overhead, never
    /// speedup, and results are thread-count-independent by the
    /// determinism argument above — so on a single-core machine
    /// `Pipelined {{ workers: N }}` defers every map to its join on the
    /// calling thread.
    pub fn new(mode: ValidationPipeline) -> Self {
        let pool = match mode {
            ValidationPipeline::Pipelined { workers } if workers >= 2 => {
                let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
                let spawn = workers.min(hardware);
                (spawn >= 2).then(|| WorkerPool::new(spawn))
            }
            _ => None,
        };
        PipelineRunner {
            mode,
            pool,
            busy: AtomicBool::new(false),
        }
    }

    /// The configuration this runner executes.
    pub fn mode(&self) -> ValidationPipeline {
        self.mode
    }

    /// Starts mapping `f` over `items` and returns a [`PendingMap`] to
    /// redeem with [`PipelineRunner::join`] — at once for a synchronous
    /// map, or after the caller has done other work for an overlapped
    /// one.
    ///
    /// `f(i, &items[i])` must be pure per item — it may read shared
    /// context but must not depend on evaluation order. With a free
    /// pool the batch is submitted to it: workers pull indices from a
    /// shared cursor and each result lands in its index's slot, so the
    /// joined vector is independent of thread scheduling. Otherwise (no
    /// pool on this hardware or in this mode, an unjoined batch already
    /// owns the pool, or ≤1 item) the map is deferred and evaluated
    /// left to right on the calling thread at join time, exactly like
    /// `iter().map()` — byte-identical either way.
    ///
    /// `items` is taken by `Arc` because pool workers are `'static`;
    /// the caller keeps its reference and no item is ever cloned.
    pub fn map_ordered_bg<T, U, F>(&self, items: &Arc<Vec<T>>, f: F) -> PendingMap<U>
    where
        T: Send + Sync + 'static,
        U: Send + Sync + 'static,
        F: Fn(usize, &T) -> U + Send + Sync + 'static,
    {
        let can_pool = self.pool.is_some()
            && items.len() > 1
            && self
                .busy
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        if !can_pool {
            let items = items.clone();
            return PendingMap {
                inner: PendingInner::Deferred(Box::new(move || {
                    items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
                })),
            };
        }
        let pool = self.pool.as_ref().expect("checked above");
        let slots: Arc<Vec<OnceLock<U>>> =
            Arc::new((0..items.len()).map(|_| OnceLock::new()).collect());
        let job_items = items.clone();
        let job_slots = slots.clone();
        let ticket = pool.submit(
            items.len(),
            Arc::new(move |i| {
                let result = f(i, &job_items[i]);
                if job_slots[i].set(result).is_err() {
                    unreachable!("index {i} mapped twice");
                }
            }),
        );
        PendingMap {
            inner: PendingInner::Pool { slots, ticket },
        }
    }

    /// Joins a [`PendingMap`], returning results in item order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the mapped closure (the batch drains
    /// first and the pool is released, so the runner survives).
    pub fn join<U>(&self, pending: PendingMap<U>) -> Vec<U>
    where
        U: Send + Sync + 'static,
    {
        match pending.inner {
            PendingInner::Deferred(eval) => eval(),
            PendingInner::Pool { slots, ticket } => {
                let pool = self.pool.as_ref().expect("pool batches need a pool");
                // Release the pool even if the batch panicked, so the
                // runner survives (matching the pool's panic policy).
                let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.wait(ticket);
                }));
                self.busy.store(false, Ordering::Release);
                if let Err(payload) = waited {
                    std::panic::resume_unwind(payload);
                }
                Arc::try_unwrap(slots)
                    .unwrap_or_else(|_| unreachable!("pool released its job clones"))
                    .into_iter()
                    .map(|slot| slot.into_inner().expect("every index mapped exactly once"))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The synchronous form: a map joined as soon as it is started.
    fn map_now<T, U, F>(runner: &PipelineRunner, items: &Arc<Vec<T>>, f: F) -> Vec<U>
    where
        T: Send + Sync + 'static,
        U: Send + Sync + 'static,
        F: Fn(usize, &T) -> U + Send + Sync + 'static,
    {
        runner.join(runner.map_ordered_bg(items, f))
    }

    fn run<T, U, F>(mode: ValidationPipeline, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + Sync + 'static,
        U: Send + Sync + 'static,
        F: Fn(usize, &T) -> U + Send + Sync + 'static,
    {
        map_now(&PipelineRunner::new(mode), &Arc::new(items), f)
    }

    #[test]
    fn sequential_matches_plain_map() {
        let items: Vec<u64> = (0..17).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        let got = run(ValidationPipeline::Sequential, items, |_, x| x * x);
        assert_eq!(got, expect);
    }

    #[test]
    fn pooled_map_preserves_order_for_every_worker_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in 1..=8 {
            let got = run(
                ValidationPipeline::pipelined(workers),
                items.clone(),
                |_, x| x * 3 + 1,
            );
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn pooled_map_handles_empty_and_single_item() {
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(4));
        assert!(map_now(&runner, &Arc::new(Vec::<u64>::new()), |_, x| *x).is_empty());
        assert_eq!(map_now(&runner, &Arc::new(vec![7u64]), |_, x| *x), vec![7]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let got = run(ValidationPipeline::pipelined(3), items, |i, s| {
            format!("{i}{s}")
        });
        assert_eq!(got, vec!["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(
            ValidationPipeline::pipelined(0),
            ValidationPipeline::Pipelined { workers: 1 }
        );
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(0));
        assert!(runner.pool.is_none());
        assert_eq!(
            map_now(&runner, &Arc::new(vec![1u8, 2]), |_, x| *x),
            vec![1, 2]
        );
    }

    #[test]
    fn pool_threads_are_clamped_to_hardware() {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(8));
        assert_eq!(
            runner.pool.is_some(),
            hardware >= 2,
            "a pool is spawned exactly when the machine can run it"
        );
        assert!(PipelineRunner::new(ValidationPipeline::pipelined(1))
            .pool
            .is_none());
        assert!(PipelineRunner::new(ValidationPipeline::Sequential)
            .pool
            .is_none());
    }

    #[test]
    fn runner_reuses_one_pool_across_batches() {
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(4));
        for round in 0..20u64 {
            let items: Vec<u64> = (0..50).collect();
            let got = map_now(&runner, &Arc::new(items), move |_, x| x + round);
            assert_eq!(got.len(), 50);
            assert_eq!(got[49], 49 + round);
        }
    }

    #[test]
    fn caller_keeps_its_items_reference() {
        let items = Arc::new(vec![1u32, 2, 3]);
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(2));
        let got = map_now(&runner, &items, |_, x| x * 2);
        assert_eq!(got, vec![2, 4, 6]);
        assert_eq!(Arc::strong_count(&items), 1, "job clone released");
    }

    #[test]
    fn map_started_while_a_batch_is_unjoined_evaluates_locally() {
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(4));
        let ahead: Vec<u64> = (0..64).collect();
        let pending = runner.map_ordered_bg(&Arc::new(ahead.clone()), |_, x| x + 1);
        // While the unjoined batch owns the pool, a synchronous map
        // must still produce ordered results.
        let now: Vec<u64> = (100..140).collect();
        let got = map_now(&runner, &Arc::new(now.clone()), |_, x| x * 2);
        assert_eq!(got, now.iter().map(|x| x * 2).collect::<Vec<_>>());
        let joined = runner.join(pending);
        assert_eq!(joined, ahead.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn second_unjoined_batch_is_deferred_not_lost() {
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(4));
        let a = runner.map_ordered_bg(&Arc::new((0..32u64).collect::<Vec<_>>()), |_, x| x + 1);
        let b = runner.map_ordered_bg(&Arc::new((0..16u64).collect::<Vec<_>>()), |_, x| x + 2);
        assert!(!b.is_pooled(), "the pool admits one batch at a time");
        assert_eq!(runner.join(a), (1..33u64).collect::<Vec<_>>());
        assert_eq!(runner.join(b), (2..18u64).collect::<Vec<_>>());
        // With the pool released, batches pool again (when the
        // hardware spawned one at all).
        let c = runner.map_ordered_bg(&Arc::new((0..8u64).collect::<Vec<_>>()), |_, x| *x);
        assert_eq!(c.is_pooled(), runner.pool.is_some());
        assert_eq!(runner.join(c), (0..8u64).collect::<Vec<_>>());
    }

    /// The pool's panic policy on the one remaining path: a job that
    /// panics inside `join(map_ordered_bg(..))` re-raises at the join,
    /// the runner releases `busy`, and the next batch runs on the pool
    /// again instead of being deferred forever.
    #[test]
    fn panic_in_a_joined_map_propagates_and_releases_the_pool() {
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(4));
        let items = Arc::new((0..32u64).collect::<Vec<_>>());
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_now(&runner, &items, |i, x| {
                assert_ne!(i, 17, "boom at {i}");
                *x
            })
        }));
        assert!(raised.is_err(), "the job's panic reaches the joiner");
        assert!(!runner.busy.load(Ordering::Acquire), "pool released");

        let next = runner.map_ordered_bg(&items, |_, x| x + 1);
        assert_eq!(next.is_pooled(), runner.pool.is_some());
        assert_eq!(runner.join(next), (1..33u64).collect::<Vec<_>>());
        assert_eq!(Arc::strong_count(&items), 1, "job clones released");
    }

    #[test]
    fn pipelined_mode_flags() {
        let runner = PipelineRunner::new(ValidationPipeline::pipelined(4));
        assert!(runner.mode().is_pipelined());
        assert!(!ValidationPipeline::Sequential.is_pipelined());
    }

    #[test]
    fn labels() {
        assert_eq!(ValidationPipeline::Sequential.label(), "sequential");
        assert_eq!(ValidationPipeline::pipelined(4).label(), "pipelined(4)");
        assert_eq!(
            ValidationPipeline::default(),
            ValidationPipeline::Sequential
        );
        assert_eq!(
            PipelineRunner::new(ValidationPipeline::Sequential).mode(),
            ValidationPipeline::Sequential
        );
    }
}
