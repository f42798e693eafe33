//! The event-driven gossip network: leader pull, push forwarding,
//! anti-entropy catch-up, fault injection, and multi-channel
//! multiplexing.
//!
//! Peers are flattened to indices `0..orgs * peers_per_org`; peer
//! `o * peers_per_org + p` is peer `p` of org `o`, and the
//! lowest-indexed member of each org on a channel is its leader there.
//! Every member peer hosts a full [`Peer`] replica per channel; a block
//! a replica sees for the first time is buffered (blocks can arrive out
//! of order), forwarded to `fanout` random peers, and committed as soon
//! as all its predecessors are in. Lagging replicas recover through the
//! periodic anti-entropy tick: pull from a random better-off reachable
//! peer, or — when no peer can help — re-request the raw blocks from
//! the ordering service (Fabric's deliver-service reconnect).
//!
//! # Channels
//!
//! One [`GossipNetwork`] hosts every channel of a deployment
//! ([`MultiChannelConfig`]) over one topology and one fault schedule:
//! each channel is a *lane* with its own replica set, ordering log,
//! acknowledgement frontier, metrics and deterministic PRNG stream
//! (forked per channel from the base seed, channel 0 first so a
//! 1-channel network is draw-for-draw identical to the historical
//! single-channel one). Each lane owns its event queue, and the
//! configured per-peer crash/restart times and partition windows are
//! applied on every lane a peer is a member of — the same peer goes
//! down at the same simulated time on all its channels. The API is
//! lane-indexed (`foo_on(ch, ..)`); a single-channel network
//! ([`GossipNetwork::new`]) is lane 0.
//!
//! # Storage, faults and catch-up
//!
//! Every replica mirrors its commits into a [`DurableLedger`]: the one
//! [`PipelineConfig::storage`] configures (in memory or in append-only
//! files, one run per channel × peer), or else [`StorageConfig::memory`]
//! — no snapshots, no GC, no files.
//!
//! A member is up, holding its [`Peer`], gap buffer and catch-up
//! episode, or down, with only its store left. It goes down one way: a
//! scheduled crash, or a failed call to its own store (an append, a
//! snapshot, a compaction, or the recovery itself), which also counts
//! one [`DisseminationMetrics::store_faults`]. It stays down until the
//! schedule's next restart, which recovers the peer from its store.
//!
//! Anti-entropy ships one pull: the cheaper in bytes of the missing
//! block suffix — from the helper's chain, or from its store for a
//! prefix the chain has moved past — and the helper's latest
//! [`LedgerSnapshot`] (charged with the acknowledgement table) plus
//! the suffix above it. Ties go to replay, which keeps the recovered
//! ledger byte-identical to one that never fell behind.
//!
//! Acknowledgements are an instantly convergent [`AckFrontier`] per
//! channel: a few bytes whose latency is irrelevant next to block
//! dissemination. With GC on, each replica compacts its store up to
//! the frontier's minimum, a height every replica of the channel has
//! committed. That is the whole of GC: in-memory chains are kept.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabriccrdt_fabric::channel::{ChannelId, ChannelSpec, MultiChannelConfig};
use fabriccrdt_fabric::config::{FaultConfig, GossipConfig, PipelineConfig, Topology};
use fabriccrdt_fabric::latency::CALIBRATED_HOP;
use fabriccrdt_fabric::metrics::{
    AdversaryMetrics, CatchUpEpisode, CatchUpOutcome, DisseminationMetrics,
};
use fabriccrdt_fabric::peer::{Peer, PeerSnapshot};
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::storage::{AckFrontier, DurableLedger, StorageConfig};
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::chain::Blockchain;
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::store::LedgerSnapshot;
use fabriccrdt_sim::latency::LatencyModel;
use fabriccrdt_sim::queue::EventQueue;
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

use crate::adversary::LaneAdversary;

/// How many randomly chosen member replicas a peer forwards a freshly
/// seen block to: Fabric's `PropagatePeerNum`, whose default is 3.
const FANOUT: usize = 3;

/// Peer-to-peer gossip hop latency: the calibrated ~1 ms LAN hop.
const LINK: LatencyModel = CALIBRATED_HOP;

/// Period of the pull-based anti-entropy (state-transfer) loop that
/// lets a lagging peer request blocks it missed.
const ANTI_ENTROPY_INTERVAL: SimTime = SimTime::from_millis(500);

/// A block as the ordering service sealed it: immutable, allocated once
/// at publish and shared by the `published` log, every delivery in
/// flight and every gap buffer (DESIGN.md §4.7, *Block ownership*).
type Sealed = Arc<Block>;

/// One queued network event of the lane whose queue holds it. Peer
/// fields are member *positions* within that lane.
#[derive(Debug)]
enum EventKind {
    /// A raw (orderer-sealed) block arrives at a peer; `from` is the
    /// forwarding peer, `None` for the ordering service.
    RawBlock {
        to: usize,
        from: Option<usize>,
        block: Sealed,
    },
    /// An anti-entropy pull arrives at a lagging peer (boxed: a pull
    /// is rare, and every queued event is as large as the largest).
    Pull { to: usize, pull: Box<Pull> },
    /// Per-peer anti-entropy timer.
    Tick { peer: usize },
    /// Scheduled fault: the peer goes down.
    Crash { peer: usize },
    /// Scheduled recovery: the peer restores its ledger and rejoins.
    Restart { peer: usize },
    /// A partition heals; its minority starts catching up.
    Heal { partition: usize },
}

/// What one anti-entropy pull ships: a contiguous block run, after a
/// helper's snapshot when the pull installs one.
#[derive(Debug)]
struct Pull {
    /// The helper's snapshot and its wire bytes, the acknowledgement
    /// table's included.
    snapshot: Option<(LedgerSnapshot, u64)>,
    /// The blocks to replay, from the one above the snapshot, or above
    /// the puller's tip when there is no snapshot.
    blocks: Vec<Arc<Block>>,
    /// Wire bytes of the whole pull.
    bytes: u64,
}

impl Pull {
    /// A replay of `blocks`; `None` for an empty run.
    fn replay(blocks: Vec<Arc<Block>>) -> Option<Self> {
        (!blocks.is_empty()).then(|| Pull {
            snapshot: None,
            bytes: wire_bytes(&blocks),
            blocks,
        })
    }

    /// The cheaper pull in wire bytes. Ties go to `replay`, which keeps
    /// the puller's ledger byte-identical to one that never fell behind.
    /// Pure byte cost: no PRNG draw.
    fn cheaper(replay: Option<Pull>, snapshot: Option<Pull>) -> Option<Pull> {
        replay
            .into_iter()
            .chain(snapshot)
            .min_by_key(|pull| pull.bytes)
    }
}

/// Encoded bytes of a block run — its wire cost — counted without
/// encoding a block.
fn wire_bytes(blocks: &[Arc<Block>]) -> u64 {
    blocks.iter().map(|b| codec::block_len(b) as u64).sum()
}

/// A catch-up episode in progress: when the peer rejoined, the height
/// it must reach, and the bytes shipped to it so far.
struct ActiveCatchUp {
    from: SimTime,
    target: u64,
    bytes: u64,
    /// Bytes of installed snapshots (plus frontier deltas), `None`
    /// while the episode has only used block replay.
    snapshot_bytes: Option<u64>,
}

/// A replica that is up: the peer and what a crash loses with it.
struct Live<V> {
    peer: Peer<V>,
    /// Raw blocks received but not yet committable (gaps below them).
    buffer: BTreeMap<u64, Sealed>,
    /// Active catch-up episode, if any.
    catch_up: Option<ActiveCatchUp>,
}

impl<V: BlockValidator> Live<V> {
    fn new(peer: Peer<V>) -> Self {
        Live {
            peer,
            buffer: BTreeMap::new(),
            catch_up: None,
        }
    }

    /// Committed (post-genesis) block count.
    fn committed(&self) -> u64 {
        self.peer.chain().height() - 1
    }
}

/// Per-replica bookkeeping around the replica itself.
struct Slot<V> {
    /// The replica while it is up; `None` from a crash until the
    /// restart that recovers it.
    live: Option<Live<V>>,
    /// Outstanding `Tick` events for this replica.
    ticks_pending: u32,
    /// The replica's durable store: what survives a crash.
    store: DurableLedger,
    /// Highest frontier floor this replica has GC'd up to.
    gc_floor: u64,
}

/// A call to the store of the member at this position failed. The
/// event stops there, and the member crashes ([`ChannelLane::handle`]).
struct StoreFault(usize);

/// Takes block `number` out of a gap buffer as the replica's own
/// `Block` — the one deep copy a replica makes of a sealed block.
/// Algorithm 1 writes only the commit record beside the orderer's
/// bytes, so the copy is not for the data: `Peer::process_block` takes
/// an owned `Block` and `BlockValidator::validate_and_commit` a
/// `&mut Block`, and the benchmark package pins both (DESIGN.md §4.16).
fn take_buffered(buffer: &mut BTreeMap<u64, Sealed>, number: u64) -> Option<Block> {
    buffer.remove(&number).map(Arc::unwrap_or_clone)
}

/// Configuration shared by every channel lane: the topology, fault
/// schedule and latency calibration are one network-wide reality.
struct Shared {
    topology: Topology,
    policy: EndorsementPolicy,
    faults: FaultConfig,
    /// Orderer → leader delivery latency (from the pipeline calibration).
    orderer_hop: LatencyModel,
}

/// One channel's state: its member replicas, ordering log, event
/// timeline, PRNG stream and metrics.
struct ChannelLane<V> {
    id: ChannelId,
    /// The configured observed peer ([`GossipConfig::observed_peer`]).
    observed_peer: usize,
    /// Global peer indices that are members, sorted ascending; slot
    /// `k` is the replica of global peer `members[k]`.
    members: Vec<usize>,
    rng: SimRng,
    queue: EventQueue<EventKind>,
    slots: Vec<Slot<V>>,
    /// The channel's ordering-service log: `(cut time, block)`,
    /// numbers `1..`.
    published: Vec<(SimTime, Sealed)>,
    /// Seeded genesis-height state, replayed on durable recovery (it
    /// lives in no block).
    seeds: Vec<(String, Vec<u8>)>,
    /// The channel's acknowledgement frontier (see the module docs),
    /// keyed by member position.
    acked: AckFrontier,
    metrics: DisseminationMetrics,
    /// Byzantine injection + ingress screening, when the run
    /// configures an adversary schedule. `None` (the default) keeps
    /// the lane byte-for-byte identical to an honest one.
    adversary: Option<LaneAdversary>,
    /// Time of the last processed event on this lane.
    clock: SimTime,
}

/// A deterministic, event-driven model of Fabric's gossip
/// block-dissemination layer over the full topology, with fault
/// injection and multi-channel multiplexing. See the module docs for
/// the protocol summary.
pub struct GossipNetwork<V> {
    shared: Shared,
    make_validator: Box<dyn Fn() -> V>,
    lanes: Vec<ChannelLane<V>>,
}

impl<V: BlockValidator> GossipNetwork<V> {
    /// Builds a single-channel network for a pipeline configuration —
    /// a one-lane [`GossipNetwork::new_multi`]. Uses `config.gossip`
    /// (or [`GossipConfig::calibrated`] when unset), applies
    /// `config.faults`, opens one durable store per replica
    /// (`config.storage`, or [`StorageConfig::memory`] when unset), and
    /// forks its PRNG from `config.seed`, so identical configs replay
    /// identical runs. `make_validator` constructs one validator per
    /// replica (and per restart).
    ///
    /// # Panics
    ///
    /// See [`GossipNetwork::new_multi`].
    pub fn new(config: &PipelineConfig, make_validator: impl Fn() -> V + 'static) -> Self {
        let spec = ChannelSpec::full(ChannelId::DEFAULT, config.topology.total_peers());
        let multi = MultiChannelConfig {
            base: config.clone(),
            channels: vec![spec],
        };
        Self::new_multi(&multi, make_validator)
    }

    /// Builds one network hosting every channel of `multi` over the
    /// shared topology and fault schedule. Channel `c`'s PRNG stream
    /// is fork `c` of the base seed's gossip lane (channel 0 first, so
    /// a 1-channel network is draw-for-draw identical to
    /// [`GossipNetwork::new`] on the base config), and each crash /
    /// restart / heal from the fault schedule is applied on every lane
    /// the affected peer is a member of, at the same simulated time.
    ///
    /// # Panics
    ///
    /// Panics on an invalid deployment ([`MultiChannelConfig::validate`])
    /// or an inconsistent fault schedule ([`FaultConfig::validate`]).
    /// Also panics if a configured storage backend cannot be opened.
    pub fn new_multi(multi: &MultiChannelConfig, make_validator: impl Fn() -> V + 'static) -> Self {
        multi.validate();
        let config = &multi.base;
        let topology = config.topology.clone();
        let n_peers = topology.total_peers();
        assert!(n_peers > 0, "topology has no peers");
        let faults = config.faults.clone();
        faults.validate(n_peers, "peer");
        if let Some(adversary) = &config.adversary {
            for attack in &adversary.attacks {
                assert!(attack.height >= 1, "blocks are numbered from 1");
                assert!(
                    attack.victims.iter().all(|v| *v < n_peers),
                    "attack victim out of range"
                );
                assert!(
                    attack.via.is_none_or(|v| v < n_peers),
                    "attack relay out of range"
                );
            }
        }

        let observed_peer = match &config.gossip {
            Some(gossip) => gossip.observed_peer,
            None => GossipConfig::calibrated(&topology).observed_peer,
        };
        assert!(
            observed_peer < n_peers,
            "observed peer {observed_peer} out of range (peers: {n_peers})"
        );

        let mut root = SimRng::seed_from(config.seed);
        let storage = config.storage.clone().unwrap_or_else(StorageConfig::memory);
        let lanes = multi
            .channels
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                // Channel 0 must be the first fork with the historical
                // "gossip" label: that reproduces the single-channel
                // PRNG stream bit-for-bit.
                let rng = root.fork(0x676f_7373_6970u64.wrapping_add(c as u64));
                let slots = spec
                    .members
                    .iter()
                    .map(|&global| Slot {
                        live: Some(Live::new(
                            Peer::new(make_validator(), config.policy.clone())
                                .with_channel(spec.id),
                        )),
                        ticks_pending: 0,
                        store: DurableLedger::open_channel(&storage, spec.id, global)
                            .expect("peer storage opens"),
                        gc_floor: 0,
                    })
                    .collect();
                let mut queue = EventQueue::new();
                for crash in &faults.crashes {
                    let Ok(pos) = spec.members.binary_search(&crash.peer) else {
                        continue; // not a member of this channel
                    };
                    queue.schedule(crash.at, EventKind::Crash { peer: pos });
                    queue.schedule(crash.restart_at, EventKind::Restart { peer: pos });
                }
                for (index, partition) in faults.partitions.iter().enumerate() {
                    queue.schedule(partition.heal_at, EventKind::Heal { partition: index });
                }
                ChannelLane {
                    id: spec.id,
                    observed_peer,
                    members: spec.members.clone(),
                    rng,
                    queue,
                    slots,
                    published: Vec::new(),
                    seeds: Vec::new(),
                    acked: AckFrontier::new(),
                    metrics: DisseminationMetrics::default(),
                    adversary: config
                        .adversary
                        .as_ref()
                        .map(|a| LaneAdversary::new(a, &spec.members)),
                    clock: SimTime::ZERO,
                }
            })
            .collect();
        GossipNetwork {
            shared: Shared {
                topology,
                policy: config.policy.clone(),
                faults,
                orderer_hop: config.latency.orderer_to_peer,
            },
            make_validator: Box::new(make_validator),
            lanes,
        }
    }

    /// Number of channel lanes this network hosts.
    pub fn channel_count(&self) -> usize {
        self.lanes.len()
    }

    /// The member set (global peer indices) of channel `ch`.
    pub fn members(&self, ch: usize) -> &[usize] {
        &self.lanes[ch].members
    }

    /// [`GossipNetwork::seed_state_on`] lane 0; kept for `perf/`.
    pub fn seed_state(&mut self, key: &str, value: &[u8]) {
        self.seed_state_on(0, key, value);
    }

    /// Seeds a key into the world state of every replica of channel
    /// `ch` (mirror of `Simulation::seed_state`). Call before any event
    /// is processed.
    pub fn seed_state_on(&mut self, ch: usize, key: &str, value: &[u8]) {
        let lane = &mut self.lanes[ch];
        lane.seeds.push((key.to_string(), value.to_vec()));
        for live in lane.slots.iter_mut().filter_map(|s| s.live.as_mut()) {
            live.peer.seed_state(key.to_string(), value.to_vec());
        }
    }

    /// Number of peers in the network's topology.
    pub fn peer_count(&self) -> usize {
        self.shared.topology.total_peers()
    }

    /// The channel-`ch` replica of global peer `index`, or `None`
    /// while it is crashed.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not a member of the channel.
    pub fn peer_on(&self, ch: usize, index: usize) -> Option<&Peer<V>> {
        let lane = &self.lanes[ch];
        lane.slots[lane.pos(index)].live.as_ref().map(|l| &l.peer)
    }

    /// Committed (post-genesis) block count of each channel-`ch`
    /// member, in member order; crashed replicas report 0.
    pub fn committed_heights_on(&self, ch: usize) -> Vec<u64> {
        let lane = &self.lanes[ch];
        (0..lane.slots.len()).map(|i| lane.committed(i)).collect()
    }

    /// Blocks published by channel `ch`'s ordering service so far.
    pub fn published_count_on(&self, ch: usize) -> u64 {
        self.lanes[ch].published.len() as u64
    }

    /// [`GossipNetwork::fully_converged_on`] lane 0; kept for `perf/`.
    pub fn fully_converged(&self) -> bool {
        self.fully_converged_on(0)
    }

    /// Whether every channel-`ch` replica is up and has committed
    /// every block the channel published.
    pub fn fully_converged_on(&self, ch: usize) -> bool {
        let lane = &self.lanes[ch];
        let expected = lane.published.len() as u64;
        (0..lane.slots.len()).all(|i| lane.slots[i].live.is_some() && lane.committed(i) == expected)
    }

    /// Time of the last processed event on channel `ch`.
    pub fn clock_on(&self, ch: usize) -> SimTime {
        self.lanes[ch].clock
    }

    /// Channel `ch`'s dissemination metrics accumulated so far.
    pub fn metrics_on(&self, ch: usize) -> &DisseminationMetrics {
        &self.lanes[ch].metrics
    }

    /// Takes (and resets) channel `ch`'s accumulated dissemination
    /// metrics.
    pub fn take_metrics_on(&mut self, ch: usize) -> DisseminationMetrics {
        std::mem::take(&mut self.lanes[ch].metrics)
    }

    /// Takes (and resets) channel `ch`'s byzantine-screen detection
    /// counters; `None` when the run configured no adversary. The
    /// canonical-digest registry, equivocation evidence and quarantine
    /// set persist across takes.
    pub fn take_adversary_on(&mut self, ch: usize) -> Option<AdversaryMetrics> {
        self.lanes[ch]
            .adversary
            .as_mut()
            .map(LaneAdversary::take_metrics)
    }

    /// Channel `ch`'s GC floor: the minimum block height every member
    /// has acknowledged committing (0 before every member has
    /// acknowledged anything).
    pub fn acked_floor_on(&self, ch: usize) -> u64 {
        let lane = &self.lanes[ch];
        lane.acked.min_acked(lane.slots.len())
    }

    /// The latest snapshot in the channel-`ch` replica's durable
    /// store, or `None` before the first snapshot (always, for a store
    /// with no snapshot cadence).
    pub fn durable_snapshot_on(&self, ch: usize, index: usize) -> Option<&LedgerSnapshot> {
        let lane = &self.lanes[ch];
        lane.slots[lane.pos(index)].store.latest_snapshot()
    }

    /// Serialized ledger of the channel-`ch` replica at `index` (state
    /// and chain bytes), or `None` while it is crashed. Byte-equal
    /// snapshots mean byte-equal ledgers — the reconvergence check.
    pub fn snapshot_on(&self, ch: usize, index: usize) -> Option<PeerSnapshot> {
        self.peer_on(ch, index).map(Peer::snapshot)
    }

    /// [`GossipNetwork::publish_on`] lane 0; kept for `perf/`.
    pub fn publish(&mut self, cut_at: SimTime, block: Block) {
        self.publish_on(0, cut_at, block);
    }

    /// Publishes an orderer-cut block into channel `ch`, sampling the
    /// orderer→leader hop from the lane's own PRNG. Blocks must be
    /// published in order, numbered from 1.
    pub fn publish_on(&mut self, ch: usize, cut_at: SimTime, block: Block) {
        let lane = &mut self.lanes[ch];
        let hop = self.shared.orderer_hop.sample(&mut lane.rng);
        lane.publish_with_hop(&self.shared, cut_at, hop, block);
    }

    /// Publishes into channel `ch` with an explicit orderer→leader hop
    /// (used by [`crate::GossipDelivery`], which samples the hop from
    /// the pipeline's PRNG to stay draw-for-draw compatible with ideal
    /// FIFO delivery).
    pub fn publish_with_hop_on(&mut self, ch: usize, cut_at: SimTime, hop: SimTime, block: Block) {
        self.lanes[ch].publish_with_hop(&self.shared, cut_at, hop, block);
    }

    /// [`GossipNetwork::run_until_committed_on`] lane 0; kept for
    /// `perf/`.
    pub fn run_until_committed(&mut self, peer: usize, number: u64) -> SimTime {
        self.run_until_committed_on(0, peer, number)
    }

    /// Processes channel-`ch` events until the replica of global peer
    /// `peer` has committed block `number`, returning the time that
    /// happened. Events already past that point stay queued for later
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if the lane's event queue drains first — a fault
    /// schedule that never lets the peer recover (e.g. a partition
    /// without heal).
    pub fn run_until_committed_on(&mut self, ch: usize, peer: usize, number: u64) -> SimTime {
        let lane = &mut self.lanes[ch];
        let pos = lane.pos(peer);
        while lane.slots[pos].live.is_none() || lane.committed(pos) < number {
            let Some((now, event)) = lane.queue.pop() else {
                panic!(
                    "gossip network deadlocked: {} peer {peer} never commits block {number}",
                    lane.id
                );
            };
            lane.clock = now;
            lane.handle(&self.shared, self.make_validator.as_ref(), now, event);
        }
        lane.clock
    }

    /// [`GossipNetwork::drain_on`] for every lane (fault windows
    /// close, stragglers catch up, timers expire), returning the latest
    /// lane clock; kept for `perf/`.
    pub fn drain(&mut self) -> SimTime {
        (0..self.lanes.len())
            .map(|ch| self.drain_on(ch))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Processes every remaining event on channel `ch` only, leaving
    /// other lanes' queues untouched — so one channel's simulation can
    /// finish (fault windows close, stragglers catch up) while its
    /// siblings are still publishing.
    pub fn drain_on(&mut self, ch: usize) -> SimTime {
        let lane = &mut self.lanes[ch];
        while let Some((now, event)) = lane.queue.pop() {
            lane.clock = now;
            lane.handle(&self.shared, self.make_validator.as_ref(), now, event);
        }
        lane.clock
    }

    /// The global index of channel `ch`'s *observed* replica — the one
    /// whose commit time defines block delivery for the channel's
    /// pipeline: the configured observed peer when it is a member,
    /// otherwise the channel's last member (the farthest from the
    /// orderer).
    pub fn observed_on(&self, ch: usize) -> usize {
        let lane = &self.lanes[ch];
        if lane.members.binary_search(&lane.observed_peer).is_ok() {
            lane.observed_peer
        } else {
            *lane.members.last().expect("channel has members")
        }
    }
}

impl<V: BlockValidator> ChannelLane<V> {
    /// Member position of global peer `global`.
    ///
    /// # Panics
    ///
    /// Panics when the peer is not a member of this channel.
    fn pos(&self, global: usize) -> usize {
        self.members
            .binary_search(&global)
            .unwrap_or_else(|_| panic!("peer {global} is not a member of {}", self.id))
    }

    /// Committed (post-genesis) block count of slot `i`; 0 while
    /// crashed.
    fn committed(&self, i: usize) -> u64 {
        self.slots[i].live.as_ref().map_or(0, Live::committed)
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        self.queue.schedule(at, kind);
    }

    fn publish_with_hop(&mut self, shared: &Shared, cut_at: SimTime, hop: SimTime, block: Block) {
        let number = block.header.number;
        assert_eq!(
            number,
            self.published.len() as u64 + 1,
            "blocks must be published in order, numbered from 1"
        );
        let block = Arc::new(block);
        self.published.push((cut_at, Arc::clone(&block)));
        let ppo = shared.topology.peers_per_org;
        for org in 0..shared.topology.orgs {
            // The channel leader of an org is its lowest-indexed
            // member (the org's peer 0 under full membership).
            let Some(leader) = (0..self.slots.len()).find(|&k| self.members[k] / ppo == org) else {
                continue;
            };
            if self.slots[leader].live.is_some()
                && !shared.faults.cut_off(cut_at, self.members[leader])
            {
                self.schedule(
                    cut_at + hop,
                    EventKind::RawBlock {
                        to: leader,
                        from: None,
                        block: Arc::clone(&block),
                    },
                );
            }
        }
        // Byzantine injection: register the canonical digest (the
        // ground truth the ingress screen checks against) and put the
        // scheduled forgeries on the wire. Entirely PRNG-free, so the
        // lane's honest draw sequence is untouched.
        let injections = match self.adversary.as_mut() {
            Some(adversary) => {
                // Each published block closes one dissemination round:
                // quarantined relays that drew no fresh detection all
                // round advance toward probation release (counter
                // arithmetic only — no PRNG draws, so the honest draw
                // sequence is still untouched).
                adversary.end_round();
                adversary.injections_for(&block)
            }
            None => Vec::new(),
        };
        for (delay, victim, via, forged) in injections {
            self.schedule(
                cut_at + hop + delay,
                EventKind::RawBlock {
                    to: victim,
                    from: via,
                    block: Arc::new(forged),
                },
            );
        }
        // Arm the anti-entropy timers: any replica still behind once
        // the pushes settle recovers through its tick.
        for i in 0..self.slots.len() {
            self.ensure_tick(cut_at, i);
        }
    }

    /// Runs one event. If it hits a [`StoreFault`], the member whose
    /// store failed crashes, as at a scheduled crash, and stays down
    /// until the schedule restarts it.
    fn handle(&mut self, shared: &Shared, mk: &dyn Fn() -> V, now: SimTime, event: EventKind) {
        let outcome = match event {
            EventKind::RawBlock { to, from, block } => self.raw_block(shared, now, to, from, block),
            EventKind::Pull { to, pull } => self.pull(shared, mk, now, to, *pull),
            EventKind::Restart { peer } => self.restart(shared, mk, now, peer),
            EventKind::Tick { peer } => return self.tick(shared, now, peer),
            EventKind::Crash { peer } => return self.crash(now, peer),
            EventKind::Heal { partition } => return self.heal(shared, now, partition),
        };
        if let Err(StoreFault(p)) = outcome {
            self.metrics.store_faults += 1;
            self.crash(now, p);
        }
    }

    fn raw_block(
        &mut self,
        shared: &Shared,
        now: SimTime,
        to: usize,
        from: Option<usize>,
        block: Sealed,
    ) -> Result<(), StoreFault> {
        let Some(live) = self.slots[to].live.as_mut() else {
            return Ok(()); // down: the message is lost
        };
        // The ingress screen: tampered or forged blocks are rejected
        // before they can be buffered, forwarded, or counted as
        // redundant — honest replicas never see adversarial bytes.
        if let Some(adversary) = self.adversary.as_mut() {
            if !adversary.admit(from, &block) {
                return Ok(());
            }
        }
        let number = block.header.number;
        if live.buffer.contains_key(&number) || live.committed() >= number {
            if from.is_some() {
                self.metrics.redundant_messages += 1;
            }
            return Ok(());
        }
        live.buffer.insert(number, Arc::clone(&block));
        self.record_arrival(now, number);
        self.forward(shared, now, to, from, &block);
        self.advance(to, None)?;
        self.check_catch_up(now, to);
        Ok(())
    }

    /// Push-forwards a freshly seen block to `fanout` random member
    /// replicas (excluding self and the sender), applying link faults.
    fn forward(
        &mut self,
        shared: &Shared,
        now: SimTime,
        i: usize,
        sender: Option<usize>,
        block: &Sealed,
    ) {
        let mut candidates: Vec<usize> = (0..self.slots.len())
            .filter(|&j| j != i && Some(j) != sender)
            .collect();
        for _ in 0..FANOUT.min(candidates.len()) {
            let pick = self.rng.gen_range(0, candidates.len() as u64) as usize;
            let target = candidates.swap_remove(pick);
            self.send_raw(shared, now, i, target, block);
        }
    }

    fn send_raw(&mut self, shared: &Shared, now: SimTime, from: usize, to: usize, block: &Sealed) {
        if shared
            .faults
            .partitioned(now, self.members[from], self.members[to])
        {
            return;
        }
        self.metrics.messages_sent += 1;
        if self.rng.gen_bool(shared.faults.link.drop) {
            self.metrics.messages_dropped += 1;
            return;
        }
        let delay = self.link_delay(shared);
        self.schedule(
            now + delay,
            EventKind::RawBlock {
                to,
                from: Some(from),
                block: Arc::clone(block),
            },
        );
        if self.rng.gen_bool(shared.faults.link.duplicate) {
            self.metrics.messages_duplicated += 1;
            let delay = self.link_delay(shared);
            self.schedule(
                now + delay,
                EventKind::RawBlock {
                    to,
                    from: Some(from),
                    block: Arc::clone(block),
                },
            );
        }
    }

    fn link_delay(&mut self, shared: &Shared) -> SimTime {
        LINK.sample(&mut self.rng) + shared.faults.link.extra_delay.sample(&mut self.rng)
    }

    /// The contiguous block run starting at `above + 1` that a helper
    /// with this chain and store can ship. Its in-memory chain is
    /// contiguous from base to tip and its store only ever holds blocks
    /// that chain committed, so a chain that holds `above + 1` is the
    /// whole answer; only a helper whose chain base moved past
    /// `above + 1` reads its durable store back, for the prefix (chain
    /// copies win above it; both re-seal identically). Empty when the
    /// helper holds neither source for `above + 1`.
    fn replay_suffix(chain: &Blockchain, store: &DurableLedger, above: u64) -> Vec<Arc<Block>> {
        let mut merged: BTreeMap<u64, Arc<Block>> = BTreeMap::new();
        if chain.block(above + 1).is_none() {
            merged.extend(
                store
                    .retained_blocks()
                    .into_iter()
                    .filter(|b| b.header.number > above)
                    .map(|b| (b.header.number, b)),
            );
        }
        // Committed blocks are never written again, so the puller's
        // chain shares the helper's (DESIGN.md §4.7).
        for number in above + 1..chain.height() {
            merged.extend(chain.shared(number).map(|b| (number, Arc::clone(b))));
        }
        let mut suffix = Vec::with_capacity(merged.len());
        let mut next = above + 1;
        while let Some(block) = merged.remove(&next) {
            suffix.push(block);
            next += 1;
        }
        suffix
    }

    /// The pull helper `j` ships to a peer whose committed height is
    /// `above`: the cheaper ([`Pull::cheaper`]) of replaying the
    /// missing block run and installing its latest snapshot — costed
    /// as the encoded snapshot, the acknowledgement table and the
    /// block run above the snapshot. `None` only when the helper is
    /// down or not ahead: a chain's base moves only to a snapshot its
    /// store keeps, so a helper ahead holds block `above + 1` in its
    /// chain or store, or a snapshot past `above`.
    fn pull_from(&self, j: usize, above: u64) -> Option<Pull> {
        let slot = &self.slots[j];
        let chain = slot.live.as_ref()?.peer.chain();
        let replay = Pull::replay(Self::replay_suffix(chain, &slot.store, above));
        let offer = slot
            .store
            .latest_snapshot()
            .filter(|s| s.last_block > above);
        let snapshot = offer.map(|snapshot| {
            let snapshot_bytes = snapshot.encoded_len() as u64 + self.acked.encoded_len() as u64;
            let blocks = Self::replay_suffix(chain, &slot.store, snapshot.last_block);
            Pull {
                bytes: snapshot_bytes + wire_bytes(&blocks),
                snapshot: Some((snapshot.clone(), snapshot_bytes)),
                blocks,
            }
        });
        Pull::cheaper(replay, snapshot)
    }

    /// Anti-entropy tick: pull missing state from a random better-off
    /// reachable peer ([`Self::pull_from`]), falling back to
    /// re-requesting raw blocks from the ordering service; re-arms
    /// while still behind.
    fn tick(&mut self, shared: &Shared, now: SimTime, i: usize) {
        self.slots[i].ticks_pending -= 1;
        let Some(live) = self.slots[i].live.as_ref() else {
            return; // restart re-arms
        };
        let mine = live.committed();
        let published = self.published.len() as u64;
        let candidates: Vec<usize> = (0..self.slots.len())
            .filter(|&j| {
                j != i
                    && !shared
                        .faults
                        .partitioned(now, self.members[i], self.members[j])
                    && self.committed(j) > mine
            })
            .collect();
        if !candidates.is_empty() {
            let j = candidates[self.rng.gen_range(0, candidates.len() as u64) as usize];
            if let Some(pull) = self.pull_from(j, mine) {
                let delay = LINK.sample(&mut self.rng);
                let snapshot_bytes = pull.snapshot.as_ref().map(|(_, bytes)| *bytes);
                self.metrics.anti_entropy_transfers += 1;
                self.metrics.anti_entropy_blocks += pull.blocks.len() as u64;
                self.metrics.anti_entropy_bytes += pull.bytes;
                if let Some(bytes) = snapshot_bytes {
                    self.metrics.snapshot_transfers += 1;
                    self.metrics.snapshot_bytes += bytes;
                }
                let live = self.slots[i].live.as_mut();
                if let Some(active) = live.and_then(|live| live.catch_up.as_mut()) {
                    active.bytes += pull.bytes;
                    if let Some(bytes) = snapshot_bytes {
                        *active.snapshot_bytes.get_or_insert(0) += bytes;
                    }
                }
                let pull = Box::new(pull);
                self.schedule(now + delay, EventKind::Pull { to: i, pull });
            }
        } else if mine < published && !shared.faults.cut_off(now, self.members[i]) {
            // No peer can help (all behind or unreachable): reconnect to
            // the deliver service and re-request what's missing.
            let missing: Vec<Sealed> = (mine + 1..=published)
                .filter(|n| !live.buffer.contains_key(n))
                .map(|n| Arc::clone(&self.published[n as usize - 1].1))
                .collect();
            for block in missing {
                let hop = shared.orderer_hop.sample(&mut self.rng);
                self.schedule(
                    now + hop,
                    EventKind::RawBlock {
                        to: i,
                        from: None,
                        block,
                    },
                );
            }
        }
        if self.committed(i) < published {
            self.ensure_tick(now, i);
        }
    }

    /// Applies a pull at peer `to`: installs its snapshot, unless the
    /// peer raced past it on its own, then replays each block that
    /// still fills the peer's next hole (pushes may have raced ahead
    /// of the pull), committing locally buffered blocks around them.
    fn pull(
        &mut self,
        shared: &Shared,
        mk: &dyn Fn() -> V,
        now: SimTime,
        to: usize,
        pull: Pull,
    ) -> Result<(), StoreFault> {
        let slot = &mut self.slots[to];
        let Some(live) = slot.live.as_mut() else {
            return Ok(()); // down: the pull is lost
        };
        let behind = live.committed();
        if let Some((snapshot, _)) = pull.snapshot.filter(|(s, _)| behind < s.last_block) {
            let last_block = snapshot.last_block;
            live.peer = Peer::restore_from_snapshot(mk(), shared.policy.clone(), &snapshot)
                .with_channel(self.id);
            live.buffer.retain(|number, _| *number > last_block);
            // Adopt the snapshot locally so this peer's own crash
            // recovery starts from it. The stale block prefix it covers
            // is compacted away only under GC: without GC the prefix
            // stays serveable to other lagging peers (see
            // `replay_suffix`).
            let fault = |_| StoreFault(to);
            slot.store.put_snapshot(snapshot).map_err(fault)?;
            if slot.store.gc_enabled() {
                slot.store.compact_up_to(last_block).map_err(fault)?;
            }
        }
        self.advance(to, None)?;
        for block in pull.blocks {
            let number = block.header.number;
            let fills = self.committed(to) + 1 == number;
            if fills {
                self.record_arrival(now, number);
            }
            self.advance(to, fills.then_some(block))?;
        }
        self.check_catch_up(now, to);
        Ok(())
    }

    /// Commits what replica `i` can — `pulled`, a helper's block that
    /// fills its next hole, then buffered raw blocks as long as the
    /// next one is present — and persists it: mirrors the new blocks
    /// into its store, writes a snapshot when one is due, acknowledges
    /// its height on the channel frontier and, with GC enabled,
    /// compacts its store up to the frontier's minimum. The first store
    /// call that fails stops it.
    fn advance(&mut self, i: usize, pulled: Option<Arc<Block>>) -> Result<(), StoreFault> {
        let n_members = self.slots.len();
        let slot = &mut self.slots[i];
        let Some(live) = slot.live.as_mut() else {
            return Ok(());
        };
        if let Some(block) = pulled {
            live.peer
                .replay_block(block)
                .expect("anti-entropy blocks extend the chain: all replicas re-seal identically");
        }
        let mut next = live.committed() + 1;
        while let Some(block) = take_buffered(&mut live.buffer, next) {
            let staged = live.peer.process_block(block);
            live.peer
                .commit(staged)
                .expect("buffered blocks extend the chain in order");
            next += 1;
        }
        let fault = |_| StoreFault(i);
        let height = live.committed();
        for number in slot.store.finalized_tip() + 1..=height {
            let block = live
                .peer
                .chain()
                .shared(number)
                .expect("committed blocks above the store's tip are in the chain");
            slot.store.append_block(Arc::clone(block)).map_err(fault)?;
        }
        if slot.store.snapshot_due(height) {
            slot.store
                .put_snapshot(live.peer.ledger_snapshot())
                .map_err(fault)?;
        }
        self.acked.ack(i, height);
        let floor = self.acked.min_acked(n_members);
        if floor > slot.gc_floor && slot.store.gc_enabled() {
            slot.store.compact_up_to(floor).map_err(fault)?;
            slot.gc_floor = floor;
        }
        Ok(())
    }

    fn crash(&mut self, now: SimTime, p: usize) {
        // The replica, its buffer and its catch-up are lost; its store
        // survives. A crash of a replica that is already down changes
        // nothing.
        let Some(live) = self.slots[p].live.take() else {
            return;
        };
        // A crash mid-catch-up ends the episode without reaching the
        // target; record it as abandoned rather than dropping it, so
        // catch-up statistics stay honest under repeated crashes.
        if let Some(active) = live.catch_up {
            self.metrics.catch_up.push(CatchUpEpisode {
                peer: self.members[p],
                from: active.from,
                bytes_shipped: active.bytes,
                outcome: CatchUpOutcome::Abandoned { at: now },
            });
        }
    }

    /// Recovers a crashed replica from its store and starts its
    /// catch-up. A restart of a replica that is up changes nothing; a
    /// store that cannot recover it leaves it down.
    fn restart(
        &mut self,
        shared: &Shared,
        mk: &dyn Fn() -> V,
        now: SimTime,
        p: usize,
    ) -> Result<(), StoreFault> {
        let slot = &mut self.slots[p];
        if slot.live.is_some() {
            return Ok(());
        }
        let seeds = &self.seeds;
        let recovery = slot
            .store
            .recover_seeded(mk(), shared.policy.clone(), |peer| {
                for (key, value) in seeds {
                    peer.seed_state(key.clone(), value.clone());
                }
            })
            .map_err(|_| StoreFault(p))?;
        slot.live = Some(Live::new(recovery.peer.with_channel(self.id)));
        self.begin_catch_up(now, p);
        Ok(())
    }

    fn heal(&mut self, shared: &Shared, now: SimTime, partition: usize) {
        let minority = shared.faults.partitions[partition].minority.clone();
        for global in minority {
            let Ok(p) = self.members.binary_search(&global) else {
                continue; // not a member of this channel
            };
            self.begin_catch_up(now, p);
        }
    }

    /// Registers a catch-up episode for a rejoining peer that is up
    /// (target: what the rest of the channel has committed right now)
    /// and pulls immediately.
    fn begin_catch_up(&mut self, now: SimTime, p: usize) {
        let target = (0..self.slots.len())
            .filter(|&j| j != p)
            .map(|j| self.committed(j))
            .max()
            .unwrap_or(0);
        let Some(live) = self.slots[p].live.as_mut() else {
            return;
        };
        if target > live.committed() && live.catch_up.is_none() {
            live.catch_up = Some(ActiveCatchUp {
                from: now,
                target,
                bytes: 0,
                snapshot_bytes: None,
            });
        }
        self.slots[p].ticks_pending += 1;
        self.schedule(now, EventKind::Tick { peer: p });
    }

    fn check_catch_up(&mut self, now: SimTime, i: usize) {
        let Some(live) = self.slots[i].live.as_mut() else {
            return;
        };
        let committed = live.committed();
        let Some(active) = live.catch_up.take_if(|active| committed >= active.target) else {
            return;
        };
        let outcome = match active.snapshot_bytes {
            Some(snapshot_bytes) => CatchUpOutcome::Snapshot {
                caught_up_at: now,
                snapshot_bytes,
            },
            None => CatchUpOutcome::Replay { caught_up_at: now },
        };
        self.metrics.catch_up.push(CatchUpEpisode {
            peer: self.members[i],
            from: active.from,
            bytes_shipped: active.bytes,
            outcome,
        });
    }

    /// Schedules an anti-entropy tick if none is outstanding.
    fn ensure_tick(&mut self, now: SimTime, i: usize) {
        if self.slots[i].ticks_pending > 0 {
            return;
        }
        self.slots[i].ticks_pending += 1;
        self.schedule(now + ANTI_ENTROPY_INTERVAL, EventKind::Tick { peer: i });
    }

    /// First time this block's content reaches any given peer: one
    /// propagation-latency sample (relative to the orderer cut).
    /// Snapshot-covered blocks never arrive individually and record no
    /// sample.
    fn record_arrival(&mut self, now: SimTime, number: u64) {
        let cut_at = self.published[number as usize - 1].0;
        self.metrics.propagation.push(now.saturating_sub(cut_at));
    }
}

#[cfg(test)]
mod tests;
