//! The event-driven transaction pipeline.
//!
//! Ties the pieces together into the paper's Figure 1/2 flow:
//!
//! 1. **Execution & endorsement** — the client sends the proposal to one
//!    peer per organization named in the policy; the chaincode executes
//!    against the committed world state (isolated simulation), each
//!    endorser signs the response payload.
//! 2. **Ordering** — the client submits the endorsed transaction; the
//!    orderer totally orders transactions and cuts blocks by
//!    count/bytes/timeout.
//! 3. **Validation & commit** — the committing peer verifies
//!    endorsements, runs the pluggable validator (MVCC or CRDT merge) and
//!    installs the result. Peers process blocks sequentially; commit
//!    compute time is charged from the work actually performed.
//!
//! Modelling notes (see DESIGN.md §1): all endorsing peers hold identical
//! replicas, so the chaincode executes once per transaction (each
//! endorser is charged its latency, and all sign the same read-write
//! set); block delivery is FIFO per channel, as in Fabric's delivery
//! service; endorser CPU is assumed to scale out (the paper's bottleneck
//! is the commit path).

use std::any::Any;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use fabriccrdt_crypto::{sha256, Identity, KeyPair};
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId, TxIdMap};
use fabriccrdt_sim::queue::EventQueue;
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

use crate::chaincode::{ChaincodeEvent, ChaincodeRegistry, ChaincodeStub};
use crate::config::PipelineConfig;
use crate::conflict::BlockFeedback;
use crate::latency::{
    LatencyConfig, CLIENT_TO_ORDERER, CLIENT_TO_PEER, ORDERER_TO_PEER, PEER_TO_CLIENT,
};
use crate::metrics::{
    AdversaryMetrics, CommittedEvent, ConflictPolicyMetrics, DisseminationMetrics, OrderingMetrics,
    RetryMetrics, RunMetrics, TxRecord,
};
use crate::orderer::{Orderer, TimeoutRequest};
use crate::peer::{Peer, StagedBlock};
use crate::validator::BlockValidator;

/// The pluggable block-dissemination layer between the orderer and the
/// committing peer.
///
/// The default, [`IdealFifoDelivery`], reproduces the original pipeline
/// exactly: one sampled orderer→peer hop per block, which the pipeline
/// delivers in FIFO order. The `fabriccrdt-gossip` crate provides an
/// alternative that routes every block through a simulated gossip
/// network (leader pull, push gossip, anti-entropy) with fault
/// injection, and reports dissemination metrics.
///
/// `Send`, because a multi-channel deployment runs each channel's
/// pipeline on a thread of its own; `Any`, so the deployment that built
/// a layer can read it back by type ([`Simulation::delivery`]).
pub trait DeliveryLayer: Any + Send {
    /// Returns the time at which `block`, cut by the orderer at `now`,
    /// becomes available to the committing peer. The pipeline keeps
    /// delivery FIFO per channel, as Fabric's deliver service does: a
    /// block that the layer returns earlier than the one cut before it
    /// arrives with that one, so a layer keeps no delivery clock.
    /// No layer reads `latency`: the hops are the constants of
    /// [`crate::latency`]; the parameter is pinned for `perf/`
    /// (DESIGN.md §4.10).
    fn deliver(
        &mut self,
        now: SimTime,
        block: &Block,
        latency: &LatencyConfig,
        rng: &mut SimRng,
    ) -> SimTime;

    /// Mirrors [`Simulation::seed_state`] into any replicas the layer
    /// maintains, so their world state matches the committing peer's.
    fn seed_state(&mut self, _key: &str, _value: &[u8]) {}

    /// Hands over dissemination metrics accumulated since the last
    /// call, if this layer collects any.
    fn take_dissemination(&mut self) -> Option<DisseminationMetrics> {
        None
    }

    /// Hands over byzantine-screen detection counters accumulated
    /// since the last call, if this layer runs an adversary schedule.
    fn take_adversary(&mut self) -> Option<AdversaryMetrics> {
        None
    }
}

/// The original ideal dissemination model: each block takes one sampled
/// orderer→peer hop. Draws exactly one [`ORDERER_TO_PEER`] sample per
/// block from the pipeline rng, so runs with this layer are
/// bit-identical to the pre-gossip pipeline.
#[derive(Debug, Default)]
pub struct IdealFifoDelivery;

impl IdealFifoDelivery {
    /// Creates the layer.
    pub fn new() -> Self {
        IdealFifoDelivery
    }
}

impl DeliveryLayer for IdealFifoDelivery {
    fn deliver(
        &mut self,
        now: SimTime,
        _block: &Block,
        _latency: &LatencyConfig,
        rng: &mut SimRng,
    ) -> SimTime {
        now + ORDERER_TO_PEER.sample(rng)
    }
}

/// What one interaction with an [`OrderingBackend`] produced.
#[derive(Debug, Default)]
pub struct OrderingOutcome {
    /// Blocks the ordering service committed, with their commit times,
    /// in commit order. Commit times never exceed the interaction's
    /// `now` (a backend cannot report the future — it asks to be woken
    /// instead).
    pub blocks: Vec<(SimTime, Block)>,
    /// A batch timeout the pipeline must arm (the single orderer's
    /// cutting timer). Replicated backends run their timers internally
    /// and use `wakeup` instead.
    pub timeout: Option<TimeoutRequest>,
    /// The backend's next internal event time, if it has outstanding
    /// work (replication in flight, armed timers, scheduled faults).
    /// The pipeline schedules a wakeup so the backend's internal clock
    /// keeps pace with simulated time; `None` means the backend is
    /// quiescent until the next submission.
    pub wakeup: Option<SimTime>,
}

impl OrderingOutcome {
    /// Nothing happened: no blocks, no timers.
    pub fn empty() -> Self {
        OrderingOutcome::default()
    }
}

/// The pluggable ordering service behind the pipeline.
///
/// The default, [`SingleOrderer`], wraps the original in-process
/// [`Orderer`] and reproduces the pre-seam pipeline bit for bit. The
/// `fabriccrdt-ordering` crate provides a Raft-replicated cluster
/// (leader election, log replication, crash/partition fault injection)
/// behind the same seam, reporting [`OrderingMetrics`].
///
/// `Send` for the same reason as [`DeliveryLayer`].
pub trait OrderingBackend: Send {
    /// An endorsed transaction reaches the ordering service at `now`.
    fn submit(&mut self, tx: Transaction, now: SimTime) -> OrderingOutcome;

    /// A batch timeout previously returned in
    /// [`OrderingOutcome::timeout`] fires at `now`.
    fn timeout_fired(&mut self, timeout: TimeoutRequest, now: SimTime) -> OrderingOutcome;

    /// A wakeup previously requested via [`OrderingOutcome::wakeup`]
    /// fires at `now` — advance internal timers/replication up to `now`.
    fn wakeup(&mut self, _now: SimTime) -> OrderingOutcome {
        OrderingOutcome::empty()
    }

    /// Drains transactions the ordering service early-aborted at block
    /// cut (Fabric++ reordering) since the last call.
    fn take_early_aborted(&mut self) -> Vec<Transaction> {
        Vec::new()
    }

    /// Hands over ordering-cluster metrics accumulated since the last
    /// call, if this backend collects any.
    fn take_ordering_metrics(&mut self) -> Option<OrderingMetrics> {
        None
    }

    /// Feeds a committed block's validation outcome back to the
    /// ordering service's conflict tracker. Only called when the run's
    /// policy is [`crate::config::OrderingPolicy::Adaptive`];
    /// backends without a tracker ignore it.
    fn observe_finalized(&mut self, _feedback: &BlockFeedback) {}

    /// Hands over ordering-policy decision counters, if this backend
    /// runs a non-FIFO cut policy.
    fn take_policy_metrics(&mut self) -> Option<ConflictPolicyMetrics> {
        None
    }
}

/// The original single in-process ordering service behind the
/// [`OrderingBackend`] seam. Emits every cut block at the interaction
/// time, arms the pipeline-level batch timeout, never requests wakeups
/// — runs with this backend are bit-identical to the pre-seam pipeline.
#[derive(Debug)]
pub struct SingleOrderer {
    orderer: Orderer,
}

impl SingleOrderer {
    /// Wraps a block-cutting orderer.
    pub fn new(orderer: Orderer) -> Self {
        SingleOrderer { orderer }
    }

    /// Builds the backend a pipeline configuration asks for (honoring
    /// [`PipelineConfig::ordering_policy`]).
    pub fn from_config(config: &PipelineConfig) -> Self {
        SingleOrderer::new(Orderer::with_policy(
            config.block_cut,
            config.ordering_policy,
        ))
    }
}

impl OrderingBackend for SingleOrderer {
    fn submit(&mut self, tx: Transaction, now: SimTime) -> OrderingOutcome {
        let (block, timeout) = self.orderer.receive(tx, now);
        OrderingOutcome {
            blocks: block.map(|b| (now, b)).into_iter().collect(),
            timeout,
            wakeup: None,
        }
    }

    fn timeout_fired(&mut self, timeout: TimeoutRequest, now: SimTime) -> OrderingOutcome {
        OrderingOutcome {
            blocks: self
                .orderer
                .timeout_fired(timeout)
                .map(|b| (now, b))
                .into_iter()
                .collect(),
            timeout: None,
            wakeup: None,
        }
    }

    fn take_early_aborted(&mut self) -> Vec<Transaction> {
        self.orderer.take_early_aborted()
    }

    fn observe_finalized(&mut self, feedback: &BlockFeedback) {
        self.orderer.observe_finalized(feedback);
    }

    fn take_policy_metrics(&mut self) -> Option<ConflictPolicyMetrics> {
        match self.orderer.policy() {
            crate::config::OrderingPolicy::Fifo => None,
            _ => Some(self.orderer.take_policy_stats()),
        }
    }
}

/// One transaction to submit: which chaincode to invoke with which
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRequest {
    /// Target chaincode name.
    pub chaincode: String,
    /// Invocation arguments.
    pub args: Vec<String>,
    /// Failure injection: corrupt one endorsement signature so the
    /// transaction fails endorsement-policy validation at commit time
    /// (exercises the rejection path end to end).
    pub corrupt_endorsement: bool,
}

impl TxRequest {
    /// Creates a request.
    pub fn new(chaincode: impl Into<String>, args: Vec<String>) -> Self {
        TxRequest {
            chaincode: chaincode.into(),
            args,
            corrupt_endorsement: false,
        }
    }

    /// Marks the request for endorsement corruption (failure injection).
    pub fn with_corrupt_endorsement(mut self) -> Self {
        self.corrupt_endorsement = true;
        self
    }
}

/// A pipeline event. Each carries what it acts on: a request index, or
/// the transaction or block itself.
#[derive(Debug)]
enum Event {
    /// Client submits request `i` (records `submitted_at`).
    Submit(usize),
    /// Request `i`'s proposal arrived at the endorsers; execute and
    /// endorse.
    Endorse(usize),
    /// An endorsed transaction arrives at the orderer. Boxed, like the
    /// block events, so the other events, most of a queue, stay small.
    OrdererReceive(Box<Transaction>),
    /// Batch timeout fired.
    OrdererTimeout(TimeoutRequest),
    /// A block arrives at the committing peer.
    DeliverBlock(Box<Block>),
    /// The peer finished processing this block; commit it.
    CommitDone(Box<StagedBlock>),
    /// The ordering backend asked to be woken (internal Raft timers,
    /// in-flight replication). Never scheduled by [`SingleOrderer`].
    OrderingWakeup,
}

/// One scheduled request and what the run knows about it.
struct Request {
    request: TxRequest,
    record: TxRecord,
    /// Resubmissions performed (client retries).
    attempts: usize,
    /// Chaincode event emitted at endorsement, pending commit.
    event: Option<ChaincodeEvent>,
}

/// The state of one [`Simulation::run`]: built fresh from its schedule,
/// turned into [`RunMetrics`] once the queue drains.
#[derive(Default)]
struct Run {
    requests: Vec<Request>,
    /// Every transaction id the run endorsed, to its request.
    index_by_id: TxIdMap<usize>,
    /// Events of successfully committed transactions.
    committed_events: Vec<CommittedEvent>,
    retry: RetryMetrics,
    blocks_committed: u64,
    end_time: SimTime,
    /// Ordering-backend wakeups already scheduled (dedup so each
    /// internal event time gets exactly one pipeline event).
    armed_wakeups: BTreeSet<SimTime>,
    /// Delivered blocks waiting for the peer, in arrival order.
    delivered: VecDeque<Block>,
    /// Whether the peer is processing a block (its `CommitDone` is
    /// queued).
    committing: bool,
}

/// The simulated network: peers, orderer, clients, wiring.
///
/// Generic over the block-validation strategy `V` — plug in
/// [`crate::validator::FabricValidator`] for vanilla Fabric or the
/// `fabriccrdt` crate's merging validator for FabricCRDT.
pub struct Simulation<V: BlockValidator> {
    config: PipelineConfig,
    registry: ChaincodeRegistry,
    peer: Peer<V>,
    ordering: Box<dyn OrderingBackend>,
    delivery: Box<dyn DeliveryLayer>,
    rng: SimRng,
    queue: EventQueue<Event>,
    /// Signing keys of the endorsing peers by (position of the org in the
    /// policy, peer index within the org), each derived the first time
    /// that peer endorses — during the run, not at construction.
    endorser_keys: HashMap<(usize, usize), KeyPair>,
    /// Each submitting client's identity, by client index: built once,
    /// so a transaction's is a clone.
    clients: Vec<Identity>,
    /// When the last broadcast block reaches the peer; no later block
    /// arrives before it.
    last_delivery: SimTime,
    /// Orderer-cut blocks in cut order, recorded when enabled via
    /// [`Simulation::enable_block_log`].
    block_log: Option<Vec<(SimTime, Block)>>,
    /// Monotone nonce so transaction ids stay unique across retries and
    /// across multiple `run` calls on the same network.
    next_nonce: u64,
}

impl<V: BlockValidator> Simulation<V> {
    /// Builds a simulation from a configuration, a validator and the
    /// deployed chaincodes.
    pub fn new(config: PipelineConfig, validator: V, registry: ChaincodeRegistry) -> Self {
        let delivery = Box::new(IdealFifoDelivery::new());
        let ordering = Box::new(SingleOrderer::from_config(&config));
        Simulation::with_layers(config, validator, registry, delivery, ordering)
    }

    /// Builds a simulation with explicit dissemination and ordering
    /// layers (see [`DeliveryLayer`], [`OrderingBackend`]).
    /// [`Simulation::new`] uses [`IdealFifoDelivery`] and
    /// [`SingleOrderer`]; `fabriccrdt_channel::assemble` picks both from
    /// the configuration.
    pub fn with_layers(
        config: PipelineConfig,
        validator: V,
        registry: ChaincodeRegistry,
        delivery: Box<dyn DeliveryLayer>,
        ordering: Box<dyn OrderingBackend>,
    ) -> Self {
        let rng = SimRng::seed_from(config.seed);
        let peer = Peer::new(validator, config.policy.clone()).with_channel(config.channel);
        let org: Arc<str> = Arc::from("org1");
        let clients = (0..config.topology.clients)
            .map(|client| Identity::new(format!("client{client}"), Arc::clone(&org)))
            .collect();
        Simulation {
            config,
            registry,
            peer,
            ordering,
            delivery,
            rng,
            queue: EventQueue::new(),
            endorser_keys: HashMap::new(),
            clients,
            last_delivery: SimTime::ZERO,
            block_log: None,
            next_nonce: 0,
        }
    }

    /// Seeds a key into every peer's world state before the run (§7.2).
    pub fn seed_state(&mut self, key: impl Into<String>, value: Vec<u8>) {
        let key = key.into();
        self.delivery.seed_state(&key, &value);
        self.peer.seed_state(key, value);
    }

    /// Read access to the committing peer (state, chain) — useful after
    /// the run and in examples.
    pub fn peer(&self) -> &Peer<V> {
        &self.peer
    }

    /// The delivery layer, when it is a `D`: how the deployment that
    /// built the layer reaches the replicas it holds.
    pub fn delivery<D: DeliveryLayer>(&self) -> Option<&D> {
        let layer: &dyn Any = self.delivery.as_ref();
        layer.downcast_ref()
    }

    /// [`Simulation::delivery`], mutably.
    pub fn delivery_mut<D: DeliveryLayer>(&mut self) -> Option<&mut D> {
        let layer: &mut dyn Any = self.delivery.as_mut();
        layer.downcast_mut()
    }

    /// Starts recording every orderer-cut block with its cut time.
    /// Retrieve the log with [`Simulation::take_block_log`] after a run
    /// — e.g. to replay the same block stream through a standalone
    /// gossip network.
    pub fn enable_block_log(&mut self) {
        self.block_log = Some(Vec::new());
    }

    /// Takes the recorded `(cut time, block)` log (empty if logging was
    /// never enabled).
    pub fn take_block_log(&mut self) -> Vec<(SimTime, Block)> {
        self.block_log.take().unwrap_or_default()
    }

    /// Runs the pipeline over the given `(submission time, request)`
    /// schedule until every event drains, returning the run metrics.
    ///
    /// Takes `&mut self` so the peer (world state, blockchain) can be
    /// inspected afterwards. Each call is an independent run: records
    /// and counters start empty, but committed ledger state persists,
    /// so a second call models a later workload phase on the same
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if a request names an unknown chaincode — deploy it first
    /// via the registry.
    pub fn run(&mut self, schedule: Vec<(SimTime, TxRequest)>) -> RunMetrics {
        let mut run = Run::default();
        for (i, (at, request)) in schedule.into_iter().enumerate() {
            run.requests.push(Request {
                request,
                record: TxRecord::default(),
                attempts: 0,
                event: None,
            });
            self.queue.schedule(at, Event::Submit(i));
        }

        while let Some((now, event)) = self.queue.pop() {
            self.handle(&mut run, now, event);
        }

        RunMetrics {
            channel: self.config.channel,
            records: run.requests.into_iter().map(|r| r.record).collect(),
            end_time: run.end_time,
            blocks_committed: run.blocks_committed,
            events: run.committed_events,
            dissemination: self.delivery.take_dissemination(),
            ordering: self.ordering.take_ordering_metrics(),
            // Pinned for `perf/` (DESIGN.md §4.10): nothing is cached.
            decode_cache: None,
            adversary: self.delivery.take_adversary(),
            // Pinned for `perf/` (DESIGN.md §4.10): no block overlaps another.
            pipelined: None,
            retry: run.retry,
            conflict_policy: self.ordering.take_policy_metrics(),
        }
    }

    fn handle(&mut self, run: &mut Run, now: SimTime, event: Event) {
        match event {
            Event::Submit(i) => {
                run.requests[i].record.submitted_at = now;
                let hop = CLIENT_TO_PEER.sample(&mut self.rng);
                self.queue.schedule(now + hop, Event::Endorse(i));
            }
            Event::Endorse(i) => self.endorse(run, now, i),
            Event::OrdererReceive(tx) => {
                let outcome = self.ordering.submit(*tx, now);
                self.apply_ordering(run, now, outcome);
            }
            Event::OrdererTimeout(request) => {
                let outcome = self.ordering.timeout_fired(request, now);
                self.apply_ordering(run, now, outcome);
            }
            Event::OrderingWakeup => {
                run.armed_wakeups.remove(&now);
                let outcome = self.ordering.wakeup(now);
                self.apply_ordering(run, now, outcome);
            }
            Event::DeliverBlock(block) => {
                run.delivered.push_back(*block);
                self.maybe_start_processing(run, now);
            }
            Event::CommitDone(staged) => {
                let tip = self
                    .peer
                    .commit(*staged)
                    .expect("orderer blocks extend the chain in order");
                if self.config.ordering_policy.is_adaptive() {
                    self.ordering
                        .observe_finalized(&BlockFeedback::from_block(tip));
                }
                // Map validation codes back to requests.
                let verdicts: Vec<(usize, ValidationCode, u64)> = tip
                    .transactions
                    .iter()
                    .zip(&tip.validation_codes)
                    .filter_map(|(tx, &code)| {
                        // Validation work the peer spent on this
                        // transaction: one unit per endorsement
                        // signature plus one per read-version check.
                        let work = (tx.endorsements.len() + tx.rwset.reads.len()) as u64;
                        run.index_by_id.get(&tx.id).map(|&idx| (idx, code, work))
                    })
                    .collect();
                for (idx, code, work) in verdicts {
                    self.settle(run, now, idx, code, work);
                }
                run.blocks_committed += 1;
                run.end_time = run.end_time.max(now);
                run.committing = false;
                self.maybe_start_processing(run, now);
            }
        }
    }

    /// Executes the chaincode once against the committed state, collects
    /// one endorsement per organization, and forwards to the orderer.
    fn endorse(&mut self, run: &mut Run, now: SimTime, i: usize) {
        let slot = &mut run.requests[i];
        let request = &slot.request;
        let chaincode = self
            .registry
            .get(&request.chaincode)
            .unwrap_or_else(|| panic!("chaincode {:?} not deployed", request.chaincode))
            .clone();

        let mut stub = ChaincodeStub::with_history(self.peer.state(), self.peer.chain());
        if chaincode.invoke(&mut stub, &request.args).is_err() {
            // Proposal failed at execution: the client never submits a
            // transaction; the record keeps code = None (a failure).
            return;
        }
        let (rwset, exec_work, event) = stub.into_parts();
        let exec_cost = crate::cost::exec_cost(&exec_work);

        let client = self.clients[i % self.clients.len()].clone();
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let id = TxId::derive(&client, nonce, &request.chaincode);
        let mut tx = Transaction {
            id,
            client,
            chaincode: request.chaincode.clone(),
            rwset,
            endorsements: Vec::new(),
        };

        // One endorsing peer per organization in the policy; the client
        // waits for the slowest response. Every endorser signs the same
        // payload, so it is hashed once for all of them.
        let payload_digest = sha256::digest(&tx.response_payload());
        let mut slowest_return = SimTime::ZERO;
        let peer_index = (i / self.config.topology.clients) % self.config.topology.peers_per_org;
        for (org_index, org) in self.config.policy.orgs().iter().enumerate() {
            let keypair = self
                .endorser_keys
                .entry((org_index, peer_index))
                .or_insert_with(|| {
                    KeyPair::derive(Identity::new(format!("peer{peer_index}"), org.clone()))
                });
            tx.endorsements.push(Endorsement {
                endorser: keypair.identity().clone(),
                signature: keypair.sign_digest(&payload_digest),
            });
            let ret = PEER_TO_CLIENT.sample(&mut self.rng);
            slowest_return = slowest_return.max(ret);
        }

        if request.corrupt_endorsement {
            // Failure injection: a flipped signature bit fails
            // verification on every peer.
            if let Some(endorsement) = tx.endorsements.first_mut() {
                endorsement.signature.0[0] ^= 0xff;
            }
        }

        slot.event = event;
        run.index_by_id.insert(tx.id, i);
        let to_orderer = CLIENT_TO_ORDERER.sample(&mut self.rng);
        let arrival = now + exec_cost + slowest_return + to_orderer;
        self.queue
            .schedule(arrival, Event::OrdererReceive(Box::new(tx)));
    }

    /// Applies an [`OrderingOutcome`]: schedules the batch timeout,
    /// settles early aborts and broadcasts cut blocks (in the exact
    /// order the single-orderer path always used), then arms the
    /// backend's next internal wakeup (deduplicated per instant).
    fn apply_ordering(&mut self, run: &mut Run, now: SimTime, outcome: OrderingOutcome) {
        if let Some(timeout) = outcome.timeout {
            self.queue
                .schedule(timeout.at, Event::OrdererTimeout(timeout));
        }
        if !outcome.blocks.is_empty() {
            // Transactions the reordering orderer dropped before block
            // formation (Fabric++ early abort) were never validated.
            for tx in self.ordering.take_early_aborted() {
                if let Some(&idx) = run.index_by_id.get(&tx.id) {
                    self.settle(run, now, idx, ValidationCode::EarlyAborted, 0);
                }
            }
            for (at, block) in outcome.blocks {
                debug_assert!(at <= now, "ordering backends cannot emit into the future");
                self.broadcast(at, block);
            }
        }
        if let Some(at) = outcome.wakeup {
            if run.armed_wakeups.insert(at) {
                self.queue.schedule(at, Event::OrderingWakeup);
            }
        }
    }

    /// Settles request `idx`'s transaction at `now` with `code`, after
    /// the peer spent `work` validation units on it (0 for an early
    /// abort). A retryable failure within the retry budget is
    /// resubmitted and leaves the request pending; any other code is
    /// the request's verdict.
    fn settle(&mut self, run: &mut Run, now: SimTime, idx: usize, code: ValidationCode, work: u64) {
        let slot = &mut run.requests[idx];
        if code.is_success() {
            if slot.attempts > 0 {
                run.retry.retry_success += 1;
                run.retry.retry_latency.push(now - slot.record.submitted_at);
            }
            // Fabric's event service: chaincode events fire only for
            // successfully committed transactions.
            if let Some(event) = slot.event.take() {
                run.committed_events.push(CommittedEvent {
                    request: idx,
                    name: event.name,
                    payload: event.payload,
                    at: now,
                });
            }
        } else {
            run.retry.wasted_validation_work += work;
        }
        let retryable = matches!(
            code,
            ValidationCode::MvccConflict | ValidationCode::EarlyAborted
        );
        let resubmit = retryable && slot.attempts < self.config.retry.budget;
        slot.record.committed_at = (!resubmit).then_some(now);
        slot.record.code = (!resubmit).then_some(code);
        if !resubmit {
            return;
        }
        // Client-side resubmission (§1): the transaction is re-executed,
        // re-endorsed and re-ordered as a *new* transaction, keeping the
        // original submission time so the final latency reflects the
        // full retry cost. The retry fires after the client learns of
        // the failure (peer → client notification hop).
        slot.attempts += 1;
        run.retry.retries += 1;
        let notify = PEER_TO_CLIENT.sample(&mut self.rng);
        let to_peer = CLIENT_TO_PEER.sample(&mut self.rng);
        let backoff = self
            .config
            .retry
            .backoff_delay(slot.attempts, &mut self.rng);
        self.queue
            .schedule(now + notify + backoff + to_peer, Event::Endorse(idx));
    }

    /// Broadcasts a cut block to the committing peer through the
    /// dissemination layer, FIFO: a block arrives no earlier than the
    /// one broadcast before it.
    fn broadcast(&mut self, now: SimTime, block: Block) {
        if let Some(log) = &mut self.block_log {
            log.push((now, block.clone()));
        }
        let at = self
            .delivery
            .deliver(now, &block, &self.config.latency, &mut self.rng)
            .max(self.last_delivery);
        self.last_delivery = at;
        self.queue
            .schedule(at, Event::DeliverBlock(Box::new(block)));
    }

    /// Processes the next delivered block if the peer is idle. The
    /// simulated cost derives from the work counters.
    fn maybe_start_processing(&mut self, run: &mut Run, now: SimTime) {
        if run.committing {
            return;
        }
        let Some(block) = run.delivered.pop_front() else {
            return;
        };
        let staged = self.peer.process_block(block);
        let cost = self.config.latency.cost.block_cost(&staged.work);
        run.committing = true;
        self.queue
            .schedule(now + cost, Event::CommitDone(Box::new(staged)));
    }
}
