//! In-memory spans recorded by the benchmark's own decorators around the
//! calls into each layer, and the self-time arithmetic over them.
//!
//! Nothing here runs during an untraced repetition: the decorators are
//! only installed for traced ones.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeStub};
use fabriccrdt_fabric::conflict::BlockFeedback;
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::latency::LatencyConfig;
use fabriccrdt_fabric::metrics::{
    AdversaryMetrics, ConflictPolicyMetrics, DecodeCacheMetrics, DisseminationMetrics,
    OrderingMetrics,
};
use fabriccrdt_fabric::orderer::TimeoutRequest;
use fabriccrdt_fabric::simulation::{DeliveryLayer, OrderingBackend, OrderingOutcome};
use fabriccrdt_fabric::state::ShardedState;
use fabriccrdt_fabric::validator::{BlockValidator, ChainOutcome};
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

/// Span names. The layer of a span is the prefix before the dot.
pub const ROOT: &str = "driver.repetition";
pub const EXECUTE: &str = "fabric.execute";
pub const PREPARE: &str = "fabric.prepare";
pub const VALIDATE: &str = "fabric.validate";
pub const VALIDATE_REPLICA: &str = "fabric.validate_replica";
pub const DELIVER: &str = "gossip.deliver";
pub const ORDER: &str = "ordering.order";

/// One recorded interval. Times are nanoseconds since the tracer was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open on the same thread when this one started;
    /// for spans on the program's pool threads, the repetition's root.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub block: Option<u64>,
    /// First eight bytes of the transaction id.
    pub tx: Option<u64>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU32,
    /// Id of the open root span plus one; zero when none is open.
    root: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Shared handle the decorators record into.
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer(Arc::new(Inner {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            root: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a repetition; spans recorded on other
    /// threads while it is open become its children.
    pub fn root(&self) -> SpanGuard<'_> {
        let guard = self.span(ROOT, None, None);
        self.0.root.store(guard.id + 1, Ordering::SeqCst);
        guard
    }

    pub fn span(&self, name: &'static str, block: Option<u64>, tx: Option<u64>) -> SpanGuard<'_> {
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let parent = parent.or_else(|| self.0.root.load(Ordering::SeqCst).checked_sub(1));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            block,
            tx,
            start_ns: self.now_ns(),
        }
    }

    /// Hands over every span recorded since the last call.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.spans.lock().expect("no decorator panics mid-span"))
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    block: Option<u64>,
    tx: Option<u64>,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        if self.name == ROOT {
            self.tracer.0.root.store(0, Ordering::SeqCst);
        }
        // A poisoned lock means another decorator already panicked; the
        // repetition is lost either way and `Drop` must not panic.
        if let Ok(mut spans) = self.tracer.0.spans.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                block: self.block,
                tx: self.tx,
            });
        }
    }
}

fn tx_tag(id: &TxId) -> u64 {
    u64::from_be_bytes(id.0[..8].try_into().expect("a digest has 32 bytes"))
}

/// Nanoseconds of `[start, end)` covered by at least one of
/// `intervals`: overlapping intervals (two pool workers busy at once)
/// count once.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Totals per span name over one repetition's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += selfs[&span.id];
    }
    totals
}

// --------------------------------------------------------- decorators

/// Times [`Chaincode::invoke`].
pub struct TracedChaincode {
    pub inner: Arc<dyn Chaincode>,
    pub tracer: Tracer,
}

impl Chaincode for TracedChaincode {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        let _span = self.tracer.span(EXECUTE, None, None);
        self.inner.invoke(stub, args)
    }
}

/// Which peer a validator instance belongs to.
#[derive(Clone)]
pub enum Role {
    /// The committing peer of the pipeline. With a sink, every block is
    /// copied into it as `(channel, block)` before validation rewrites
    /// it, so probes can replay what the orderer cut.
    Pipeline {
        channel: usize,
        sink: Option<BlockSink>,
    },
    /// A gossip replica.
    Replica,
}

/// Orderer-cut blocks seen by pipeline validators, as `(channel, block)`.
#[derive(Clone, Default)]
pub struct BlockSink(Arc<Mutex<Vec<(usize, Block)>>>);

impl BlockSink {
    pub fn take(&self) -> Vec<(usize, Block)> {
        std::mem::take(&mut *self.0.lock().expect("sink writers do not panic"))
    }
}

/// Times every entry point of a [`BlockValidator`].
pub struct TracedValidator<V> {
    pub inner: V,
    pub tracer: Tracer,
    pub role: Role,
}

impl<V> TracedValidator<V> {
    fn validate_name(&self) -> &'static str {
        match self.role {
            Role::Pipeline { .. } => VALIDATE,
            Role::Replica => VALIDATE_REPLICA,
        }
    }
}

impl<V: BlockValidator> BlockValidator for TracedValidator<V> {
    fn validate_and_commit(
        &self,
        block: &mut Block,
        state: &mut WorldState,
        pre_decided: &[Option<ValidationCode>],
    ) -> ValidationWork {
        if let Role::Pipeline {
            channel,
            sink: Some(sink),
        } = &self.role
        {
            sink.0
                .lock()
                .expect("sink writers do not panic")
                .push((*channel, block.clone()));
        }
        let _span = self
            .tracer
            .span(self.validate_name(), Some(block.header.number), None);
        self.inner.validate_and_commit(block, state, pre_decided)
    }

    fn prepare(&self, tx: &Transaction) {
        let _span = self.tracer.span(PREPARE, None, Some(tx_tag(&tx.id)));
        self.inner.prepare(tx);
    }

    fn finalize_chain(
        &self,
        block_number: u64,
        transactions: &[Transaction],
        chain: &[usize],
        state: &ShardedState,
    ) -> ChainOutcome {
        let _span = self
            .tracer
            .span(self.validate_name(), Some(block_number), None);
        self.inner
            .finalize_chain(block_number, transactions, chain, state)
    }

    fn speculative_read_check(&self, tx: &Transaction, state: &WorldState) -> bool {
        self.inner.speculative_read_check(tx, state)
    }

    fn decode_cache_stats(&self) -> Option<DecodeCacheMetrics> {
        self.inner.decode_cache_stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times [`DeliveryLayer::deliver`].
pub struct TracedDelivery<D> {
    pub inner: D,
    pub tracer: Tracer,
}

impl<D: DeliveryLayer> DeliveryLayer for TracedDelivery<D> {
    fn deliver(
        &mut self,
        now: SimTime,
        block: &Block,
        latency: &LatencyConfig,
        rng: &mut SimRng,
    ) -> SimTime {
        let _span = self.tracer.span(DELIVER, Some(block.header.number), None);
        self.inner.deliver(now, block, latency, rng)
    }

    fn seed_state(&mut self, key: &str, value: &[u8]) {
        self.inner.seed_state(key, value);
    }

    fn take_dissemination(&mut self) -> Option<DisseminationMetrics> {
        self.inner.take_dissemination()
    }

    fn take_adversary(&mut self) -> Option<AdversaryMetrics> {
        self.inner.take_adversary()
    }
}

/// Times the three calls that make an [`OrderingBackend`] do work.
pub struct TracedOrdering<O> {
    pub inner: O,
    pub tracer: Tracer,
}

impl<O: OrderingBackend> OrderingBackend for TracedOrdering<O> {
    fn submit(&mut self, tx: Transaction, now: SimTime) -> OrderingOutcome {
        let _span = self.tracer.span(ORDER, None, Some(tx_tag(&tx.id)));
        self.inner.submit(tx, now)
    }

    fn timeout_fired(&mut self, timeout: TimeoutRequest, now: SimTime) -> OrderingOutcome {
        let _span = self.tracer.span(ORDER, None, None);
        self.inner.timeout_fired(timeout, now)
    }

    fn wakeup(&mut self, now: SimTime) -> OrderingOutcome {
        let _span = self.tracer.span(ORDER, None, None);
        self.inner.wakeup(now)
    }

    fn take_early_aborted(&mut self) -> Vec<Transaction> {
        self.inner.take_early_aborted()
    }

    fn take_ordering_metrics(&mut self) -> Option<OrderingMetrics> {
        self.inner.take_ordering_metrics()
    }

    fn observe_finalized(&mut self, feedback: &BlockFeedback) {
        self.inner.observe_finalized(feedback);
    }

    fn take_policy_metrics(&mut self) -> Option<ConflictPolicyMetrics> {
        self.inner.take_policy_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            block: None,
            tx: None,
        }
    }

    #[test]
    fn overlapping_pool_spans_are_not_counted_twice() {
        // Two workers validate at once under the root: [10,60) and
        // [30,80) cover 70 ns of the root's 100, not 100.
        let spans = [
            span(0, None, ROOT, 0, 100),
            span(1, Some(0), VALIDATE, 10, 60),
            span(2, Some(0), VALIDATE, 30, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 30);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 50);
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span(0, None, ROOT, 0, 1_000),
            span(1, Some(0), DELIVER, 100, 600),
            span(2, Some(1), VALIDATE_REPLICA, 150, 250),
            span(3, Some(1), VALIDATE_REPLICA, 300, 500),
            span(4, Some(0), EXECUTE, 700, 750),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 500 - 100 - 200);
        assert_eq!(selfs[&0], 1_000 - 500 - 50);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals[VALIDATE_REPLICA],
            NameTotal {
                count: 2,
                total_ns: 300,
                self_ns: 300
            }
        );
        assert_eq!(totals[DELIVER].self_ns, 200);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = [
            span(0, None, ROOT, 100, 200),
            span(1, Some(0), PREPARE, 50, 150),
        ];
        assert_eq!(self_times(&spans)[&0], 50);
    }

    #[test]
    fn guards_nest_on_one_thread_and_attach_to_the_root_from_others() {
        let tracer = Tracer::new();
        {
            let _root = tracer.root();
            {
                let _outer = tracer.span(DELIVER, Some(7), None);
                let _inner = tracer.span(VALIDATE_REPLICA, Some(7), None);
            }
            let worker = tracer.clone();
            std::thread::spawn(move || drop(worker.span(PREPARE, None, Some(9))))
                .join()
                .expect("worker thread finishes");
        }
        let spans = tracer.take();
        let by_name = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .expect("span recorded")
        };
        let root = by_name(ROOT);
        assert_eq!(root.parent, None);
        assert_eq!(by_name(DELIVER).parent, Some(root.id));
        assert_eq!(by_name(VALIDATE_REPLICA).parent, Some(by_name(DELIVER).id));
        assert_eq!(by_name(PREPARE).parent, Some(root.id));
        assert_eq!(by_name(PREPARE).tx, Some(9));
        assert_eq!(by_name(DELIVER).layer(), "gossip");
        assert!(tracer.take().is_empty());
    }
}
