//! The deterministic Raft cluster replicating the ordering service.
//!
//! Every consenter node keeps Raft's durable state — term, voted
//! ballot, replicated log, commit index — and is in one [`State`]:
//! down, follower, candidate, or leader, which alone holds the
//! block-cutting [`Orderer`] from `fabriccrdt-fabric`. Clients submit
//! endorsed transactions to the highest-term reachable leader; the
//! leader's orderer applies Fabric's cutting rules (max count, max
//! bytes, batch timeout) and every cut block becomes one Raft log
//! entry. A block is released to the delivery layer only once its
//! entry is committed (replicated on a majority), so a deposed leader's
//! uncommitted cuts are simply truncated away and their transactions
//! re-delivered to the next leader — re-elections neither lose nor
//! duplicate ordered transactions.
//!
//! Determinism: all randomness (election timeouts, link latencies,
//! drop/duplicate coin flips) comes from per-node forks of a PRNG
//! forked off the run seed, and event ties break in scheduling order,
//! so a `(config, workload)` pair replays bit-identically.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use fabriccrdt_fabric::config::{BlockCutConfig, OrderingPolicy, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::conflict::{BlockFeedback, ConflictTracker};
use fabriccrdt_fabric::metrics::{ConflictPolicyMetrics, OrderingMetrics};
use fabriccrdt_fabric::orderer::{Orderer, TimeoutRequest};
use fabriccrdt_fabric::simulation::{OrderingBackend, OrderingOutcome};
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::transaction::{Transaction, TxIdSet};
use fabriccrdt_sim::queue::EventQueue;
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

/// Lower bound `T` of a node's randomized election timeout. The window
/// is `[T, 2T]` as etcd/raft randomizes it, and 150–300 ms is the range
/// the Raft paper recommends (§9.3): three heartbeats and far above a
/// ~1 ms link round trip, so a live leader is not suspected and split
/// votes are rare.
const ELECTION_TIMEOUT_MIN: SimTime = SimTime::from_millis(150);

/// Upper bound (inclusive) of a node's randomized election timeout.
const ELECTION_TIMEOUT_MAX: SimTime = SimTime::from_millis(300);

/// Leader heartbeat (empty `AppendEntries`) period.
const HEARTBEAT_INTERVAL: SimTime = SimTime::from_millis(50);

/// How often clients re-attempt delivery of transactions that are not
/// yet held by a reachable leader (leaderless windows, batches lost to
/// a deposed leader).
const RETRY_INTERVAL: SimTime = SimTime::from_millis(100);

// The election window is positive and open, and a heartbeat lands
// well inside it, or followers would keep starting elections.
const _: () = assert!(
    0 < ELECTION_TIMEOUT_MIN.as_micros()
        && ELECTION_TIMEOUT_MIN.as_micros() < ELECTION_TIMEOUT_MAX.as_micros()
        && HEARTBEAT_INTERVAL.as_micros() < ELECTION_TIMEOUT_MIN.as_micros()
);

/// One replicated log entry: a cut block, or a `None` "barrier" no-op
/// a fresh leader appends to force commitment of prior-term entries
/// (Raft §5.4.2: a leader may only count replicas for entries of its
/// own term).
/// Immutable once appended; a clone copies two pointers, so every
/// log, every message in flight and [`RaftOrderingBackend::emitted`]
/// hold the one block the leader sealed.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Term of the leader that appended the entry.
    pub term: u64,
    /// When the leader sealed (cut) it — commit latency is measured
    /// from here.
    pub sealed_at: SimTime,
    /// The block, or `None` for a barrier no-op.
    pub block: Option<Arc<Block>>,
    /// Transactions the cut policy early-aborted while sealing this
    /// block. They ride in the entry and surface only when the entry
    /// *commits*: a deposed leader's uncommitted cuts are truncated
    /// away, and truncating the entry drops its aborts with it — the
    /// transactions stay pending and get a fresh verdict from the next
    /// leader, never a duplicate or lost one.
    pub aborted: Arc<[Transaction]>,
}

/// A leadership transition, for the at-most-one-leader-per-term safety
/// check and failover diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeadershipEvent {
    /// Term the node won.
    pub term: u64,
    /// The winning node.
    pub node: usize,
    /// When it assumed leadership.
    pub at: SimTime,
}

/// Raft wire messages.
#[derive(Debug, Clone)]
enum Payload {
    AppendEntries {
        term: u64,
        /// Entries preceding this batch on the leader (the follower's
        /// log must be at least this long, with a matching term at the
        /// tail, for the batch to apply).
        prev_len: usize,
        prev_term: u64,
        entries: Vec<LogEntry>,
        leader_commit: u64,
    },
    AppendResponse {
        term: u64,
        success: bool,
        /// On success: entries now known replicated on the follower.
        /// On failure: a retry hint (upper bound for `next_index`).
        match_len: usize,
    },
    RequestVote {
        term: u64,
        last_len: usize,
        last_term: u64,
    },
    VoteResponse {
        term: u64,
        granted: bool,
    },
}

/// A node's timers. Each belongs to one state and fires only while the
/// node is still in it, under the epoch it was armed with.
#[derive(Debug)]
enum Timer {
    /// A follower's or candidate's randomized election timeout.
    Election,
    /// A leader's heartbeat period.
    Heartbeat,
    /// A leader's orderer batch timeout.
    Batch(TimeoutRequest),
}

/// Cluster events.
#[derive(Debug)]
enum RaftEvent {
    /// An endorsed transaction reaches the ordering tier.
    Submission(Transaction),
    /// The client sweep re-attempting undelivered transactions.
    ClientRetry,
    /// A Raft message arrives.
    Message {
        from: usize,
        to: usize,
        payload: Payload,
    },
    /// A node's timer, armed under `epoch`, elapses.
    Timer {
        node: usize,
        epoch: u64,
        timer: Timer,
    },
    /// Scheduled fault: the node crashes.
    Crash { node: usize },
    /// Scheduled recovery: the node rejoins.
    Restart { node: usize },
}

/// One consenter node: Raft's durable state, which survives crashes,
/// beside the one [`State`] a crash resets.
struct Node {
    term: u64,
    voted_for: Option<usize>,
    log: Vec<LogEntry>,
    /// Count of committed entries (commit index as a length).
    commit_index: u64,
    /// Bumped whenever outstanding timers must be invalidated (timer
    /// re-arm, a change of state); a timer carries the epoch it was
    /// armed under. The counter survives crashes, so a timer armed
    /// before one never matches after the restart.
    epoch: u64,
    /// Per-node PRNG (election timeout jitter).
    rng: SimRng,
    state: State,
}

impl Node {
    fn last_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    /// Raft's voting rule: is a candidate log described by
    /// `(last_term, last_len)` at least as up to date as ours?
    fn candidate_up_to_date(&self, last_term: u64, last_len: usize) -> bool {
        (last_term, last_len) >= (self.last_term(), self.log.len())
    }
}

/// A node's volatile state, lost on a crash.
enum State {
    /// Crashed: receives nothing until the schedule restarts it.
    Down,
    /// Passive replica: appends what the leader sends.
    Follower,
    /// Election in progress: the votes received this candidacy
    /// (its own included).
    Candidate { votes: HashSet<usize> },
    /// Sole block cutter of its term.
    Leader(Box<Leader>),
}

/// What a leader alone holds, built from its log when it is elected
/// and dropped when it steps down or crashes.
struct Leader {
    /// The block cutter.
    orderer: Orderer,
    /// Next entry position to send to each peer.
    next_index: Vec<usize>,
    /// Entries known replicated on each peer.
    match_index: Vec<usize>,
    /// Transactions this leader already holds (in its batch or log),
    /// so the client sweep does not re-deliver them.
    held: TxIdSet,
}

/// The Raft-replicated ordering service: a deterministic, event-driven
/// cluster wrapping the block cutter, behind the pipeline's
/// [`OrderingBackend`] seam. See the crate docs for the protocol
/// summary.
///
/// As a backend, submissions enter the cluster immediately (the
/// pipeline already charged the client→orderer hop) and the cluster's
/// own timers (heartbeats, elections, batch timeouts, retries) surface
/// as wakeup requests, so the pipeline's event queue stays the single
/// clock. Standalone, drive it with [`RaftOrderingBackend::enqueue`]
/// and [`RaftOrderingBackend::advance`] or
/// [`RaftOrderingBackend::drain`].
pub struct RaftOrderingBackend {
    raft: RaftConfig,
    block_cut: BlockCutConfig,
    /// The cut policy every leader's orderer runs (resolved once from
    /// the pipeline config, so re-elections cannot change it).
    policy: OrderingPolicy,
    /// Cluster-maintained conflict tracker. The live copy lives inside
    /// the current leader's orderer; this master copy is synced from an
    /// orderer whenever one is dropped (step-down, crash) and installed
    /// into each new leader, so adaptive decisions survive failover
    /// instead of restarting cold.
    tracker: ConflictTracker,
    /// Policy counters harvested from dropped orderers (the live
    /// leader's counters are added on top when metrics are taken).
    policy_stats: ConflictPolicyMetrics,
    /// Cluster-level PRNG: link latencies and fault coin flips.
    rng: SimRng,
    queue: EventQueue<RaftEvent>,
    nodes: Vec<Node>,
    /// Transactions submitted but not yet committed, in arrival order.
    pending: VecDeque<Transaction>,
    pending_ids: TxIdSet,
    /// Submissions scheduled via [`RaftOrderingBackend::enqueue`] whose
    /// arrival event has not fired yet (they block quiescence).
    outstanding_submissions: usize,
    retry_armed: bool,
    /// Every committed block with its commit time, in commit order.
    emitted: Vec<(SimTime, Arc<Block>)>,
    /// Start of the not-yet-drained suffix of `emitted`.
    outbox_cursor: usize,
    /// Log entries (blocks and no-ops) already surfaced from the
    /// committed prefix.
    emitted_entries: u64,
    early_aborted: Vec<Transaction>,
    metrics: OrderingMetrics,
    leadership: Vec<LeadershipEvent>,
    clock: SimTime,
}

impl RaftOrderingBackend {
    /// Builds the cluster for a pipeline configuration. Uses
    /// `config.ordering` (or [`RaftConfig::calibrated`] with 5 nodes
    /// when unset) and forks its PRNG from `config.seed` so identical
    /// configs replay identical runs.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration: zero nodes, an
    /// out-of-range pre-elected leader, or an inconsistent fault
    /// schedule
    /// ([`FaultConfig::validate`](fabriccrdt_fabric::config::FaultConfig::validate)).
    pub fn new(config: &PipelineConfig) -> Self {
        let raft = config
            .ordering
            .clone()
            .unwrap_or_else(|| RaftConfig::calibrated(5));
        let n = raft.nodes;
        assert!(n > 0, "cluster has no nodes");
        let preelected = raft.preelected_leader;
        if let Some(leader) = preelected {
            assert!(leader < n, "pre-elected leader {leader} out of range");
        }
        raft.faults.validate(n, "node");

        let mut rng = SimRng::seed_from(config.seed).fork(0x7261_6674); // "raft"
        let nodes = (0..n)
            .map(|i| Node {
                term: 0,
                voted_for: None,
                log: Vec::new(),
                commit_index: 0,
                epoch: 0,
                rng: rng.fork(i as u64),
                state: State::Follower,
            })
            .collect();
        let mut queue = EventQueue::new();
        for crash in &raft.faults.crashes {
            queue.schedule(crash.at, RaftEvent::Crash { node: crash.peer });
            queue.schedule(crash.restart_at, RaftEvent::Restart { node: crash.peer });
        }

        let mut cluster = RaftOrderingBackend {
            raft,
            block_cut: config.block_cut,
            policy: config.ordering_policy,
            tracker: ConflictTracker::new(),
            policy_stats: ConflictPolicyMetrics::default(),
            rng,
            queue,
            nodes,
            pending: VecDeque::new(),
            pending_ids: TxIdSet::default(),
            outstanding_submissions: 0,
            retry_armed: false,
            emitted: Vec::new(),
            outbox_cursor: 0,
            emitted_entries: 0,
            early_aborted: Vec::new(),
            metrics: OrderingMetrics::default(),
            leadership: Vec::new(),
            clock: SimTime::ZERO,
        };
        if let Some(leader) = preelected {
            // A Fabric channel elects its leader at channel creation,
            // long before traffic: boot straight into term 1.
            for node in &mut cluster.nodes {
                node.term = 1;
                node.voted_for = Some(leader);
            }
            cluster.become_leader(leader, SimTime::ZERO);
        }
        for i in 0..n {
            if Some(i) != preelected {
                cluster.arm_election(i, SimTime::ZERO);
            }
        }
        cluster
    }

    // ------------------------------------------------------------------
    // Standalone driving API
    // ------------------------------------------------------------------

    /// Schedules an endorsed transaction to arrive at the ordering tier
    /// at time `at` (must not be in the cluster's past).
    pub fn enqueue(&mut self, at: SimTime, tx: Transaction) {
        assert!(at >= self.clock, "submission in the cluster's past");
        self.outstanding_submissions += 1;
        self.queue.schedule(at, RaftEvent::Submission(tx));
    }

    /// Processes every event up to and including time `now`, then
    /// returns the blocks committed since the previous call, each with
    /// its commit time.
    pub fn advance(&mut self, now: SimTime) -> Vec<(SimTime, Block)> {
        while let Some((at, event)) = self.queue.pop_due(now) {
            self.handle(at, event);
        }
        self.clock = self.clock.max(now);
        // `OrderingOutcome::blocks` is owned: a clone shares the
        // transactions and copies the header.
        let fresh = self.emitted[self.outbox_cursor..]
            .iter()
            .map(|(at, block)| (*at, Block::clone(block)))
            .collect();
        self.outbox_cursor = self.emitted.len();
        fresh
    }

    /// Runs until the cluster is quiescent: every scheduled fault has
    /// played out, every node is up, no transaction is waiting, a
    /// leader exists whose log is fully committed with an empty batch,
    /// and every replica agrees on the commit index. Returns the final
    /// clock.
    ///
    /// # Panics
    ///
    /// Panics if the event queue empties while work is still
    /// outstanding — a liveness bug, since heartbeats and client
    /// retries re-arm themselves until quiescence.
    pub fn drain(&mut self) -> SimTime {
        while !self.is_quiescent() {
            let Some((at, event)) = self.queue.pop() else {
                panic!("event queue drained before the cluster settled");
            };
            self.handle(at, event);
        }
        self.clock
    }

    /// The next scheduled event time, or `None` once the cluster is
    /// quiescent (heartbeats run forever, so without the quiescence cut
    /// the queue never empties).
    pub fn next_event_time(&self) -> Option<SimTime> {
        if self.is_quiescent() {
            None
        } else {
            self.queue.peek_time()
        }
    }

    /// Current simulated time (max event time processed so far).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Number of consenter nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every committed block with its commit time, in commit order.
    pub fn emitted(&self) -> &[(SimTime, Arc<Block>)] {
        &self.emitted
    }

    /// Every leadership transition so far (for the
    /// at-most-one-leader-per-term safety check).
    pub fn leadership(&self) -> &[LeadershipEvent] {
        &self.leadership
    }

    /// Node `i`'s committed blocks — the non-barrier entries of its
    /// committed log prefix, the allocations [`Self::emitted`] shares.
    /// Replica convergence means these agree across nodes (uncommitted
    /// log tails may differ; Raft only truncates them on conflict).
    pub fn committed_blocks(&self, i: usize) -> Vec<&Arc<Block>> {
        let node = &self.nodes[i];
        node.log[..node.commit_index as usize]
            .iter()
            .filter_map(|e| e.block.as_ref())
            .collect()
    }

    /// Read access to the ordering metrics accumulated so far.
    pub fn metrics(&self) -> &OrderingMetrics {
        &self.metrics
    }

    fn is_quiescent(&self) -> bool {
        // No run is quiescent before the last scheduled fault.
        if self.clock < self.raft.faults.settled_at()
            || self.outstanding_submissions > 0
            || !self.pending.is_empty()
            || self.nodes.iter().any(|n| matches!(n.state, State::Down))
        {
            return false;
        }
        let Some((i, leader)) = self.leader() else {
            return false;
        };
        let l = &self.nodes[i];
        l.commit_index == l.log.len() as u64
            && leader.orderer.pending_len() == 0
            && self.nodes.iter().all(|n| n.commit_index == l.commit_index)
    }

    /// The up leader with the highest term, and its state: where
    /// clients deliver (they follow redirects, so a deposed minority
    /// leader does not hold traffic hostage).
    fn leader(&self) -> Option<(usize, &Leader)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.state {
                State::Leader(leader) => Some((i, n.term, &**leader)),
                _ => None,
            })
            .max_by_key(|&(_, term, _)| term)
            .map(|(i, _, leader)| (i, leader))
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, event: RaftEvent) {
        self.clock = self.clock.max(now);
        match event {
            RaftEvent::Submission(tx) => {
                self.outstanding_submissions -= 1;
                if self.pending_ids.insert(tx.id) {
                    self.pending.push_back(tx.clone());
                }
                if let Some((leader, _)) = self.leader() {
                    self.leader_receive(leader, tx, now);
                }
                self.ensure_retry(now);
            }
            RaftEvent::ClientRetry => {
                self.retry_armed = false;
                self.client_sweep(now);
                self.ensure_retry(now);
            }
            RaftEvent::Message { from, to, payload } => {
                if !matches!(self.nodes[to].state, State::Down) {
                    self.receive(to, from, payload, now);
                }
            }
            RaftEvent::Timer { node, epoch, timer } => self.fire(node, epoch, timer, now),
            RaftEvent::Crash { node } => self.leave_state(node, State::Down),
            RaftEvent::Restart { node } => {
                if matches!(self.nodes[node].state, State::Down) {
                    self.become_follower(node, now);
                }
            }
        }
    }

    /// Fires node `i`'s timer if it is current: armed under the node's
    /// present epoch, for the state the node is in.
    fn fire(&mut self, i: usize, epoch: u64, timer: Timer, now: SimTime) {
        let node = &mut self.nodes[i];
        if node.epoch != epoch {
            return;
        }
        match (timer, &mut node.state) {
            (Timer::Election, State::Follower | State::Candidate { .. }) => {
                self.start_election(i, now);
            }
            (Timer::Heartbeat, State::Leader(_)) => {
                self.replicate(i, now);
                self.arm(i, now + HEARTBEAT_INTERVAL, Timer::Heartbeat);
            }
            (Timer::Batch(request), State::Leader(leader)) => {
                let cut = leader.orderer.timeout_fired(request);
                self.append_cut(i, cut, now);
            }
            // Armed for a state the node has since left.
            _ => {}
        }
    }

    /// Hands a transaction to leader `i`'s orderer unless the leader
    /// already holds it, arming the batch timeout and appending any
    /// block the orderer cuts.
    fn leader_receive(&mut self, i: usize, tx: Transaction, now: SimTime) {
        let node = &mut self.nodes[i];
        let State::Leader(leader) = &mut node.state else {
            return;
        };
        if !leader.held.insert(tx.id) {
            return;
        }
        let (cut, timeout) = leader.orderer.receive(tx, now);
        if let Some(request) = timeout {
            self.arm(i, request.at, Timer::Batch(request));
        }
        self.append_cut(i, cut, now);
    }

    /// Appends the block leader `i`'s orderer just cut, if it cut one,
    /// together with the transactions its cut policy early-aborted while
    /// sealing it, and fans out replication. The aborts stay *pending*
    /// (and in the leader's `held` set, so the client sweep does not
    /// re-deliver them) until the entry commits; see
    /// [`LogEntry::aborted`] for the failover semantics.
    fn append_cut(&mut self, i: usize, cut: Option<Block>, now: SimTime) {
        let node = &mut self.nodes[i];
        let (Some(block), State::Leader(leader)) = (cut, &mut node.state) else {
            return;
        };
        let aborted = leader.orderer.take_early_aborted();
        node.log.push(LogEntry {
            term: node.term,
            sealed_at: now,
            block: Some(Arc::new(block)),
            aborted: aborted.into(),
        });
        self.replicate(i, now);
        self.advance_commit(i, now);
    }

    /// Re-attempts delivery of every waiting transaction, in submission
    /// order, copying only those it re-delivers. Counted as a retry
    /// only when the sweep actually has to act (no reachable leader, or
    /// the leader does not hold the transaction).
    fn client_sweep(&mut self, now: SimTime) {
        let Some((i, leader)) = self.leader() else {
            self.metrics.submission_retries += self.pending.len() as u64;
            return;
        };
        // A delivery adds only its own id to the leader's `held`, so the
        // misses can be read up front.
        let missing: Vec<Transaction> = self
            .pending
            .iter()
            .filter(|tx| !leader.held.contains(&tx.id))
            .cloned()
            .collect();
        for tx in missing {
            // Committed or early-aborted mid-sweep.
            if self.pending_ids.contains(&tx.id) {
                self.metrics.submission_retries += 1;
                self.leader_receive(i, tx, now);
            }
        }
    }

    fn ensure_retry(&mut self, now: SimTime) {
        if !self.retry_armed && !self.pending.is_empty() {
            self.retry_armed = true;
            self.queue
                .schedule(now + RETRY_INTERVAL, RaftEvent::ClientRetry);
        }
    }

    // ------------------------------------------------------------------
    // Raft protocol
    // ------------------------------------------------------------------

    /// (Re-)arms a node's randomized election timer, invalidating any
    /// previously armed timer via the epoch bump.
    fn arm_election(&mut self, i: usize, now: SimTime) {
        let node = &mut self.nodes[i];
        node.epoch += 1;
        let jitter = node.rng.gen_range(
            ELECTION_TIMEOUT_MIN.as_micros(),
            ELECTION_TIMEOUT_MAX.as_micros() + 1,
        );
        self.arm(i, now + SimTime::from_micros(jitter), Timer::Election);
    }

    /// Schedules node `i`'s `timer` at `at`, under the node's present
    /// epoch.
    fn arm(&mut self, i: usize, at: SimTime, timer: Timer) {
        let epoch = self.nodes[i].epoch;
        self.queue.schedule(
            at,
            RaftEvent::Timer {
                node: i,
                epoch,
                timer,
            },
        );
    }

    fn start_election(&mut self, i: usize, now: SimTime) {
        self.metrics.elections_started += 1;
        let node = &mut self.nodes[i];
        node.term += 1;
        node.voted_for = Some(i);
        node.state = State::Candidate {
            votes: HashSet::from([i]),
        };
        let term = node.term;
        let last_len = node.log.len();
        let last_term = node.last_term();
        self.arm_election(i, now); // candidacy itself times out and retries
        if self.quorum() == 1 {
            self.become_leader(i, now);
            return;
        }
        for peer in 0..self.nodes.len() {
            if peer != i {
                self.send(
                    i,
                    peer,
                    Payload::RequestVote {
                        term,
                        last_len,
                        last_term,
                    },
                    now,
                );
            }
        }
    }

    /// Takes leadership of the node's current term — after winning an
    /// election, or pre-elected at boot.
    fn become_leader(&mut self, i: usize, now: SimTime) {
        let n = self.nodes.len();
        let node = &mut self.nodes[i];
        // A new epoch retires the candidacy timer.
        node.epoch += 1;
        // Everything in inherited log entries is spoken for: block
        // transactions get their verdict when the entry commits, and so
        // do the entry's early-aborts — re-accepting either into a
        // fresh batch would hand it a second verdict.
        let held = node
            .log
            .iter()
            .flat_map(|e| {
                e.block
                    .iter()
                    .flat_map(|b| b.transactions.iter().map(|tx| tx.id))
                    .chain(e.aborted.iter().map(|tx| tx.id))
            })
            .collect();
        let mut orderer = make_orderer(self.block_cut, self.policy, &node.log);
        orderer.install_tracker(self.tracker.clone());
        let next_index = vec![node.log.len(); n];
        let term = node.term;
        if (node.log.len() as u64) > node.commit_index {
            // Barrier no-op (§5.4.2): commit inherited entries by
            // committing one entry of our own term on top of them.
            node.log.push(LogEntry {
                term,
                sealed_at: now,
                block: None,
                aborted: Arc::from([]),
            });
        }
        let mut match_index = vec![0; n];
        match_index[i] = node.log.len();
        node.state = State::Leader(Box::new(Leader {
            orderer,
            next_index,
            match_index,
            held,
        }));
        if !self.leadership.is_empty() {
            self.metrics.leader_changes += 1;
        }
        self.leadership.push(LeadershipEvent {
            term,
            node: i,
            at: now,
        });
        self.arm(i, now, Timer::Heartbeat);
        self.advance_commit(i, now); // single-node clusters commit inline
    }

    /// Steps down into follower state (term change, a current-term
    /// leader observed, or a restart).
    fn become_follower(&mut self, i: usize, now: SimTime) {
        self.leave_state(i, State::Follower);
        self.arm_election(i, now);
    }

    /// Moves node `i` into `next` (follower or down), retiring the old
    /// state's timers. A leader's batch dies with its leadership — its
    /// transactions are still pending and will be re-delivered — but its
    /// orderer's tracker and policy counters are salvaged so the next
    /// leader inherits both. The tracker copy is deterministic cluster
    /// metadata, *not* replicated state: it only ever influences cut
    /// decisions on the current leader, never the committed log's
    /// interpretation.
    fn leave_state(&mut self, i: usize, next: State) {
        let node = &mut self.nodes[i];
        node.epoch += 1;
        if let State::Leader(mut leader) = std::mem::replace(&mut node.state, next) {
            if self.policy.is_adaptive() {
                self.tracker = leader.orderer.tracker().clone();
            }
            self.policy_stats.absorb(leader.orderer.take_policy_stats());
        }
    }

    /// Adopts a higher term seen on any message (Raft: all servers).
    fn observe_term(&mut self, i: usize, term: u64, now: SimTime) {
        if term > self.nodes[i].term {
            self.nodes[i].term = term;
            self.nodes[i].voted_for = None;
            self.become_follower(i, now);
        }
    }

    fn quorum(&self) -> usize {
        self.nodes.len() / 2 + 1
    }

    /// Sends an `AppendEntries` from leader `i` to every other node.
    fn replicate(&mut self, i: usize, now: SimTime) {
        for peer in 0..self.nodes.len() {
            if peer != i {
                self.send_append(i, peer, now);
            }
        }
    }

    /// Sends one `AppendEntries` to `peer` with everything from the
    /// leader's `next_index` onward (empty = heartbeat).
    fn send_append(&mut self, i: usize, peer: usize, now: SimTime) {
        let node = &self.nodes[i];
        let State::Leader(leader) = &node.state else {
            return;
        };
        let ni = leader.next_index[peer].min(node.log.len());
        let prev_term = if ni > 0 { node.log[ni - 1].term } else { 0 };
        let payload = Payload::AppendEntries {
            term: node.term,
            prev_len: ni,
            prev_term,
            entries: node.log[ni..].to_vec(),
            leader_commit: node.commit_index,
        };
        self.send(i, peer, payload, now);
    }

    /// Applies link faults and latency, then schedules delivery.
    fn send(&mut self, from: usize, to: usize, payload: Payload, now: SimTime) {
        self.metrics.messages_sent += 1;
        if self.raft.faults.partitioned(now, from, to) {
            self.metrics.messages_dropped += 1;
            return;
        }
        let link = &self.raft.faults.link;
        if link.drop > 0.0 && self.rng.gen_bool(link.drop) {
            self.metrics.messages_dropped += 1;
            return;
        }
        let delay = self.raft.link.sample(&mut self.rng) + link.extra_delay.sample(&mut self.rng);
        let duplicate = link.duplicate > 0.0 && self.rng.gen_bool(link.duplicate);
        if duplicate {
            let delay2 =
                self.raft.link.sample(&mut self.rng) + link.extra_delay.sample(&mut self.rng);
            self.queue.schedule(
                now + delay2,
                RaftEvent::Message {
                    from,
                    to,
                    payload: payload.clone(),
                },
            );
        }
        self.queue
            .schedule(now + delay, RaftEvent::Message { from, to, payload });
    }

    fn receive(&mut self, to: usize, from: usize, payload: Payload, now: SimTime) {
        match payload {
            Payload::AppendEntries {
                term,
                prev_len,
                prev_term,
                entries,
                leader_commit,
            } => {
                self.observe_term(to, term, now);
                let node = &mut self.nodes[to];
                if term < node.term {
                    let mine = node.term;
                    self.send(
                        to,
                        from,
                        Payload::AppendResponse {
                            term: mine,
                            success: false,
                            match_len: 0,
                        },
                        now,
                    );
                    return;
                }
                // A current-term AppendEntries is authoritative: any
                // candidacy of ours lost.
                if matches!(node.state, State::Follower) {
                    self.arm_election(to, now);
                } else {
                    self.become_follower(to, now);
                }
                let node = &mut self.nodes[to];
                let consistent = node.log.len() >= prev_len
                    && (prev_len == 0 || node.log[prev_len - 1].term == prev_term);
                if !consistent {
                    let hint = node.log.len().min(prev_len.saturating_sub(1));
                    let mine = node.term;
                    self.send(
                        to,
                        from,
                        Payload::AppendResponse {
                            term: mine,
                            success: false,
                            match_len: hint,
                        },
                        now,
                    );
                    return;
                }
                let matched = prev_len + entries.len();
                for (offset, entry) in entries.into_iter().enumerate() {
                    let pos = prev_len + offset;
                    if pos < node.log.len() {
                        if node.log[pos].term != entry.term {
                            node.log.truncate(pos);
                            node.log.push(entry);
                        }
                        // Same term at same position: already have it.
                    } else {
                        node.log.push(entry);
                    }
                }
                node.commit_index = node.commit_index.max(leader_commit.min(matched as u64));
                let mine = node.term;
                self.note_commit_progress(now);
                self.send(
                    to,
                    from,
                    Payload::AppendResponse {
                        term: mine,
                        success: true,
                        match_len: matched,
                    },
                    now,
                );
            }
            Payload::AppendResponse {
                term,
                success,
                match_len,
            } => {
                self.observe_term(to, term, now);
                let node = &mut self.nodes[to];
                let State::Leader(leader) = &mut node.state else {
                    return;
                };
                if term < node.term {
                    return;
                }
                if success {
                    leader.match_index[from] = leader.match_index[from].max(match_len);
                    leader.next_index[from] = leader.next_index[from].max(match_len);
                    let behind = leader.next_index[from] < node.log.len();
                    self.advance_commit(to, now);
                    if behind {
                        self.send_append(to, from, now);
                    }
                } else {
                    let next = &mut leader.next_index[from];
                    *next = match_len.min(next.saturating_sub(1));
                    self.send_append(to, from, now);
                }
            }
            Payload::RequestVote {
                term,
                last_len,
                last_term,
            } => {
                self.observe_term(to, term, now);
                let node = &mut self.nodes[to];
                let grant = term == node.term
                    && node.voted_for.is_none_or(|v| v == from)
                    && node.candidate_up_to_date(last_term, last_len);
                if grant {
                    node.voted_for = Some(from);
                }
                let mine = node.term;
                if grant {
                    // Granting a vote concedes the election window.
                    self.arm_election(to, now);
                }
                self.send(
                    to,
                    from,
                    Payload::VoteResponse {
                        term: mine,
                        granted: grant,
                    },
                    now,
                );
            }
            Payload::VoteResponse { term, granted } => {
                self.observe_term(to, term, now);
                let quorum = self.quorum();
                let node = &mut self.nodes[to];
                let won = match &mut node.state {
                    State::Candidate { votes } if granted && term == node.term => {
                        votes.insert(from);
                        votes.len() >= quorum
                    }
                    _ => false,
                };
                if won {
                    self.become_leader(to, now);
                }
            }
        }
    }

    /// Leader-side commit advancement (§5.3/§5.4.2): an entry commits
    /// once a majority holds it *and* it belongs to the leader's
    /// current term.
    fn advance_commit(&mut self, i: usize, now: SimTime) {
        let quorum = self.quorum();
        let node = &mut self.nodes[i];
        let State::Leader(leader) = &node.state else {
            return;
        };
        let mut best = node.commit_index;
        for n in (node.commit_index as usize + 1)..=node.log.len() {
            if node.log[n - 1].term != node.term {
                continue;
            }
            let replicas = leader.match_index.iter().filter(|&&m| m >= n).count();
            if replicas >= quorum {
                best = n as u64;
            }
        }
        if best > node.commit_index {
            node.commit_index = best;
            self.note_commit_progress(now);
        }
    }

    /// Surfaces newly committed entries exactly once, cluster-wide.
    /// Committed log prefixes are immutable and identical across
    /// replicas (Raft's state-machine safety), so reading them from the
    /// most-advanced node is sound.
    fn note_commit_progress(&mut self, now: SimTime) {
        let source = match self
            .nodes
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| n.commit_index)
        {
            Some((i, _)) => i,
            None => return,
        };
        let committed = self.nodes[source].commit_index;
        while self.emitted_entries < committed {
            let idx = self.emitted_entries as usize;
            let entry = &self.nodes[source].log[idx];
            let sealed_at = entry.sealed_at;
            let block = entry.block.clone();
            let aborted = entry.aborted.clone();
            self.emitted_entries += 1;
            // The entry's early-aborts surface exactly here — once per
            // entry, and only for entries that actually committed. A
            // leader crashing between cut and commit truncates the
            // entry, so its aborts never reach this point and the
            // transactions get re-delivered instead.
            if !aborted.is_empty() {
                for tx in aborted.iter() {
                    self.pending_ids.remove(&tx.id);
                }
                self.pending.retain(|tx| self.pending_ids.contains(&tx.id));
                self.early_aborted.extend(aborted.iter().cloned());
            }
            if let Some(block) = block {
                self.metrics
                    .commit_latency
                    .push(now.saturating_sub(sealed_at));
                for tx in &block.transactions {
                    self.pending_ids.remove(&tx.id);
                }
                self.pending.retain(|tx| self.pending_ids.contains(&tx.id));
                self.emitted.push((now, block));
            }
        }
    }
}

impl OrderingBackend for RaftOrderingBackend {
    fn submit(&mut self, tx: Transaction, now: SimTime) -> OrderingOutcome {
        self.enqueue(now, tx);
        self.wakeup(now)
    }

    fn timeout_fired(&mut self, _timeout: TimeoutRequest, now: SimTime) -> OrderingOutcome {
        // Batch timeouts are armed inside the cluster (per leader); the
        // pipeline-level hook only ever fires for timeouts this backend
        // requested — and it requests none.
        self.wakeup(now)
    }

    fn wakeup(&mut self, now: SimTime) -> OrderingOutcome {
        OrderingOutcome {
            blocks: self.advance(now),
            timeout: None,
            wakeup: self.next_event_time(),
        }
    }

    /// Drains transactions early-aborted by the cut policy (always
    /// empty under [`OrderingPolicy::Fifo`]). An abort only appears
    /// here once its log entry committed — exactly once, regardless of
    /// leader crashes in between.
    fn take_early_aborted(&mut self) -> Vec<Transaction> {
        std::mem::take(&mut self.early_aborted)
    }

    /// Takes the ordering metrics, stamping the final term.
    fn take_ordering_metrics(&mut self) -> Option<OrderingMetrics> {
        self.metrics.final_term = self.nodes.iter().map(|n| n.term).max().unwrap_or(0);
        Some(std::mem::take(&mut self.metrics))
    }

    /// Feeds a committed block's validation outcome back into the
    /// conflict tracker: the cluster master copy and, when a leader is
    /// live, its orderer's working copy (kept identical so failover
    /// hands over exactly the state the deposed leader was using).
    /// No-op unless the policy is [`OrderingPolicy::Adaptive`].
    fn observe_finalized(&mut self, feedback: &BlockFeedback) {
        if !self.policy.is_adaptive() {
            return;
        }
        self.tracker.observe(feedback);
        if let Some((i, _)) = self.leader() {
            if let State::Leader(leader) = &mut self.nodes[i].state {
                leader.orderer.observe_finalized(feedback);
            }
        }
    }

    /// Takes the accumulated ordering-policy counters: everything
    /// harvested from deposed leaders plus every live leader's counters.
    fn take_policy_metrics(&mut self) -> Option<ConflictPolicyMetrics> {
        if self.policy == OrderingPolicy::Fifo {
            return None;
        }
        let mut stats = std::mem::take(&mut self.policy_stats);
        for node in &mut self.nodes {
            if let State::Leader(leader) = &mut node.state {
                stats.absorb(leader.orderer.take_policy_stats());
            }
        }
        Some(stats)
    }
}

/// Builds the block cutter for a (possibly mid-chain) leader: block
/// numbering and hash chaining resume from the last block in `log`, so
/// Algorithm 1's deterministic re-sealing keeps replica ledgers
/// byte-identical across leadership changes.
fn make_orderer(block_cut: BlockCutConfig, policy: OrderingPolicy, log: &[LogEntry]) -> Orderer {
    let mut number = 1;
    let mut previous_hash = Block::genesis().hash();
    for entry in log {
        if let Some(block) = &entry.block {
            number = block.header.number + 1;
            previous_hash = block.hash();
        }
    }
    Orderer::resuming(block_cut, policy, number, previous_hash)
}

#[cfg(test)]
mod tests;
