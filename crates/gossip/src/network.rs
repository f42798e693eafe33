//! The event-driven gossip network: leader pull, push forwarding,
//! anti-entropy catch-up, fault injection, and multi-channel
//! multiplexing.
//!
//! Peers are flattened to indices `0..orgs * peers_per_org`; peer
//! `o * peers_per_org + p` is peer `p` of org `o`, and the
//! lowest-indexed member of each org on a channel is its leader there.
//! Every member peer hosts a full
//! [`Peer`] replica per channel; a
//! block a replica sees for the first time is buffered (blocks can
//! arrive out of order), forwarded to `fanout` random peers, and
//! committed as soon as all its predecessors are in. Lagging replicas
//! recover through the periodic anti-entropy tick: pull committed
//! blocks from a random better-off reachable peer, or — when no peer
//! can help — re-request the raw blocks from the ordering service
//! (Fabric's deliver-service reconnect).
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
//! # Durable storage and snapshot catch-up
//!
//! With [`PipelineConfig::storage`] set, every replica mirrors its
//! commits into a [`DurableLedger`] (in-memory or append-only file,
//! one file per channel × peer), writes a [`LedgerSnapshot`] every
//! `snapshot_interval` blocks, and restarts by recovering from that
//! store; without one a crashed replica is parked untouched until its
//! restart. Anti-entropy then negotiates by byte cost: when a helper's
//! latest snapshot plus the post-snapshot block suffix is cheaper to
//! ship than replaying the full missing suffix, the lagging peer
//! installs the snapshot (charged with the bytes of an
//! acknowledgement-frontier delta) and replays only the suffix —
//! recorded as a [`CatchUpOutcome::Snapshot`] episode with bytes
//! accounted. Ties go to replay, which keeps the recovered ledger
//! byte-identical to one that never fell behind.
//!
//! Replay serving reads from the helper's in-memory chain *and* its
//! durable store: a helper whose chain base moved up (snapshot-path
//! recovery, or snapshot adoption with GC off) can still serve the
//! prefix blocks its store retains, so a GC'd helper remains useful
//! for replay instead of forcing every requester onto the snapshot
//! path.
//!
//! Acknowledgements (`peer i has contiguously committed through block
//! h`) are modelled as an instantly convergent [`AckFrontier`] per
//! channel: ack payloads are a few bytes and their propagation latency
//! is irrelevant next to block dissemination, so each lane keeps one
//! shared frontier rather than simulating its gossip. When GC is
//! enabled, each replica compacts its store up to the frontier's
//! minimum — a height every replica of the channel has already
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
use fabriccrdt_fabric::storage::{AckFrontier, DurableLedger};
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_ledger::block::Block;
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
    /// Committed blocks arrive at a pulling peer (anti-entropy).
    Transfer { to: usize, blocks: Vec<Block> },
    /// A snapshot and the post-snapshot block suffix arrive at a
    /// catching-up peer.
    SnapshotTransfer {
        to: usize,
        snapshot: LedgerSnapshot,
        suffix: Vec<Block>,
    },
    /// Per-peer anti-entropy timer.
    Tick { peer: usize },
    /// Scheduled fault: the peer goes down.
    Crash { peer: usize },
    /// Scheduled recovery: the peer restores its ledger and rejoins.
    Restart { peer: usize },
    /// A partition heals; its minority starts catching up.
    Heal { partition: usize },
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

/// Per-replica bookkeeping around the replica itself.
struct Slot<V> {
    /// The live replica; `None` while crashed.
    peer: Option<Peer<V>>,
    /// The replica while it is crashed *without* a durable store: its
    /// ledger survives by being set aside untouched until restart. With
    /// a store, restarts recover from the store instead.
    parked: Option<Peer<V>>,
    /// Raw blocks received but not yet committable (gaps below them).
    buffer: BTreeMap<u64, Sealed>,
    /// Outstanding `Tick` events for this replica.
    ticks_pending: u32,
    /// Active catch-up episode, if any.
    catch_up: Option<ActiveCatchUp>,
    /// The replica's durable store, when storage is configured.
    store: Option<DurableLedger>,
    /// Highest frontier floor this replica has GC'd up to.
    gc_floor: u64,
}

/// Takes block `number` out of a gap buffer as the replica's own
/// `Block` — the one deep copy a replica makes of a sealed block.
/// Algorithm 1 line 22 rewrites merged write values in place and the
/// peer re-seals, so it cannot commit the shared allocation.
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

impl Shared {
    /// Whether an active partition separates global peers `a` and `b`
    /// at `now`.
    fn partitioned(&self, now: SimTime, a: usize, b: usize) -> bool {
        self.faults.partitions.iter().any(|p| {
            now >= p.at && now < p.heal_at && (p.minority.contains(&a) != p.minority.contains(&b))
        })
    }

    /// The ordering service sits on the majority side of every
    /// partition.
    fn orderer_reachable(&self, now: SimTime, peer: usize) -> bool {
        !self
            .faults
            .partitions
            .iter()
            .any(|p| now >= p.at && now < p.heal_at && p.minority.contains(&peer))
    }
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
    /// `config.faults`, opens per-peer durable stores when
    /// `config.storage` is set, and forks its PRNG from `config.seed`,
    /// so identical configs replay identical runs. `make_validator`
    /// constructs one validator per replica (and per restart).
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
        let storage = config.storage.clone();
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
                        peer: Some(
                            Peer::new(make_validator(), config.policy.clone())
                                .with_channel(spec.id),
                        ),
                        parked: None,
                        buffer: BTreeMap::new(),
                        ticks_pending: 0,
                        catch_up: None,
                        store: storage.as_ref().map(|cfg| {
                            DurableLedger::open_channel(cfg, spec.id, global)
                                .expect("peer storage opens")
                        }),
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
        for slot in &mut lane.slots {
            if let Some(peer) = slot.peer.as_mut() {
                peer.seed_state(key.to_string(), value.to_vec());
            }
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
        lane.slots[lane.pos(index)].peer.as_ref()
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
        (0..lane.slots.len()).all(|i| lane.slots[i].peer.is_some() && lane.committed(i) == expected)
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
    /// has acknowledged committing (0 without durable storage, or
    /// before every member has acknowledged anything).
    pub fn acked_floor_on(&self, ch: usize) -> u64 {
        let lane = &self.lanes[ch];
        lane.acked.min_acked(lane.slots.len())
    }

    /// The latest snapshot in the channel-`ch` replica's durable
    /// store, or `None` while crashed / without storage / before the
    /// first snapshot.
    pub fn durable_snapshot_on(&self, ch: usize, index: usize) -> Option<&LedgerSnapshot> {
        let lane = &self.lanes[ch];
        lane.slots[lane.pos(index)]
            .store
            .as_ref()
            .and_then(DurableLedger::latest_snapshot)
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
        while lane.slots[pos].peer.is_none() || lane.committed(pos) < number {
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
        self.slots[i]
            .peer
            .as_ref()
            .map(|p| p.chain().height() - 1)
            .unwrap_or(0)
    }

    fn has_block(&self, i: usize, number: u64) -> bool {
        self.slots[i].buffer.contains_key(&number) || self.committed(i) >= number
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
            if self.slots[leader].peer.is_some()
                && shared.orderer_reachable(cut_at, self.members[leader])
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

    fn handle(&mut self, shared: &Shared, mk: &dyn Fn() -> V, now: SimTime, event: EventKind) {
        match event {
            EventKind::RawBlock { to, from, block } => self.raw_block(shared, now, to, from, block),
            EventKind::Transfer { to, blocks } => self.transfer(now, to, blocks),
            EventKind::SnapshotTransfer {
                to,
                snapshot,
                suffix,
            } => self.snapshot_transfer(shared, mk, now, to, snapshot, suffix),
            EventKind::Tick { peer } => self.tick(shared, now, peer),
            EventKind::Crash { peer } => self.crash(now, peer),
            EventKind::Restart { peer } => self.restart(shared, mk, now, peer),
            EventKind::Heal { partition } => self.heal(shared, now, partition),
        }
    }

    fn raw_block(
        &mut self,
        shared: &Shared,
        now: SimTime,
        to: usize,
        from: Option<usize>,
        block: Sealed,
    ) {
        if self.slots[to].peer.is_none() {
            return; // down: the message is lost
        }
        // The ingress screen: tampered or forged blocks are rejected
        // before they can be buffered, forwarded, or counted as
        // redundant — honest replicas never see adversarial bytes.
        if let Some(adversary) = self.adversary.as_mut() {
            if !adversary.admit(from, &block) {
                return;
            }
        }
        let number = block.header.number;
        if self.has_block(to, number) {
            if from.is_some() {
                self.metrics.redundant_messages += 1;
            }
            return;
        }
        self.record_arrival(now, number);
        self.forward(shared, now, to, from, &block);
        self.slots[to].buffer.insert(number, block);
        self.commit_buffered(to);
        self.check_catch_up(now, to);
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
        if shared.partitioned(now, self.members[from], self.members[to]) {
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

    /// Whether helper `j` can replay-serve a peer whose committed
    /// height is `above`: block `above + 1` must be in its in-memory
    /// chain *or* retained in its durable store (a snapshot-installed
    /// helper's chain may have moved past it, but its store can still
    /// serve the prefix).
    fn can_replay_from(&self, j: usize, above: u64) -> bool {
        let slot = &self.slots[j];
        slot.peer
            .as_ref()
            .is_some_and(|p| p.chain().block(above + 1).is_some())
            || slot.store.as_ref().is_some_and(|s| s.has_block(above + 1))
    }

    /// The contiguous block run starting at `above + 1` that helper
    /// `j` can ship. Its in-memory chain is contiguous from base to tip
    /// and its store only ever holds blocks that chain committed, so a
    /// chain that holds `above + 1` is the whole answer; only a helper
    /// whose chain base moved past `above + 1` reads its durable store
    /// back, for the prefix (chain copies win above it; both re-seal
    /// identically). Empty when the helper holds neither source for
    /// `above + 1`.
    fn replay_suffix(&self, j: usize, above: u64) -> Vec<Block> {
        let slot = &self.slots[j];
        let chain = slot.peer.as_ref().expect("helper is up").chain();
        let mut merged: BTreeMap<u64, Block> = BTreeMap::new();
        if chain.block(above + 1).is_none() {
            if let Some(store) = slot.store.as_ref() {
                let retained = store.retained_blocks().expect("helper store reads back");
                merged.extend(
                    retained
                        .into_iter()
                        .filter(|b| b.header.number > above)
                        .map(|b| (b.header.number, b)),
                );
            }
        }
        for block in chain.iter().filter(|b| b.header.number > above) {
            // Committed blocks: the chain owns plain `Block`s (DESIGN.md §4.7).
            merged.insert(block.header.number, block.clone());
        }
        let mut suffix = Vec::with_capacity(merged.len());
        let mut next = above + 1;
        while let Some(block) = merged.remove(&next) {
            suffix.push(block);
            next += 1;
        }
        suffix
    }

    /// Encoded bytes of a block run — the wire cost of a replay
    /// transfer — counted without encoding a block.
    fn suffix_bytes(suffix: &[Block]) -> u64 {
        suffix.iter().map(|b| codec::block_len(b) as u64).sum()
    }

    /// Helper `j`'s latest durable snapshot, if it would advance a
    /// peer whose committed height is `above`.
    fn snapshot_offer(&self, j: usize, above: u64) -> Option<&LedgerSnapshot> {
        let snapshot = self.slots[j].store.as_ref()?.latest_snapshot()?;
        (snapshot.last_block > above).then_some(snapshot)
    }

    /// Anti-entropy tick: pull missing state from a random better-off
    /// reachable peer — as a block-suffix replay or, when cheaper in
    /// bytes, a snapshot install plus suffix — falling back to
    /// re-requesting raw blocks from the ordering service; re-arms
    /// while still behind.
    fn tick(&mut self, shared: &Shared, now: SimTime, i: usize) {
        self.slots[i].ticks_pending -= 1;
        if self.slots[i].peer.is_none() {
            return; // restart re-arms
        }
        let mine = self.committed(i);
        let published = self.published.len() as u64;
        let candidates: Vec<usize> = (0..self.slots.len())
            .filter(|&j| {
                j != i
                    && !shared.partitioned(now, self.members[i], self.members[j])
                    && self.committed(j) > mine
                    && (self.can_replay_from(j, mine) || self.snapshot_offer(j, mine).is_some())
            })
            .collect();
        if !candidates.is_empty() {
            let j = candidates[self.rng.gen_range(0, candidates.len() as u64) as usize];
            let replay_suffix = self.replay_suffix(j, mine);
            let replay_bytes =
                (!replay_suffix.is_empty()).then(|| Self::suffix_bytes(&replay_suffix));
            // Snapshot cost: the encoded snapshot, the acknowledgement
            // table, and the post-snapshot block suffix.
            let snapshot_plan = self.snapshot_offer(j, mine).map(|snapshot| {
                let snapshot_bytes =
                    snapshot.encoded_len() as u64 + self.acked.encoded_len() as u64;
                let last_block = snapshot.last_block;
                (last_block, snapshot_bytes)
            });
            let snapshot_plan = snapshot_plan.map(|(last_block, snapshot_bytes)| {
                let suffix = self.replay_suffix(j, last_block);
                let total = snapshot_bytes + Self::suffix_bytes(&suffix);
                (snapshot_bytes, total, suffix)
            });
            // Pure byte-cost negotiation, no PRNG draws: ties go to
            // replay, which preserves full-chain byte identity.
            let use_snapshot = match (replay_bytes, &snapshot_plan) {
                (Some(replay), Some((_, total, _))) => *total < replay,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => unreachable!("candidate filter guarantees one option"),
            };
            let delay = LINK.sample(&mut self.rng);
            if use_snapshot {
                let (snapshot_bytes, total, suffix) =
                    snapshot_plan.expect("use_snapshot implies a plan");
                let snapshot = self
                    .snapshot_offer(j, mine)
                    .expect("plan came from this offer")
                    .clone();
                self.metrics.anti_entropy_transfers += 1;
                self.metrics.anti_entropy_blocks += suffix.len() as u64;
                self.metrics.anti_entropy_bytes += total;
                self.metrics.snapshot_transfers += 1;
                self.metrics.snapshot_bytes += snapshot_bytes;
                if let Some(active) = self.slots[i].catch_up.as_mut() {
                    active.bytes += total;
                    active.snapshot_bytes =
                        Some(active.snapshot_bytes.unwrap_or(0) + snapshot_bytes);
                }
                self.schedule(
                    now + delay,
                    EventKind::SnapshotTransfer {
                        to: i,
                        snapshot,
                        suffix,
                    },
                );
            } else {
                let bytes = replay_bytes.expect("replay branch implies replay is possible");
                self.metrics.anti_entropy_transfers += 1;
                self.metrics.anti_entropy_blocks += replay_suffix.len() as u64;
                self.metrics.anti_entropy_bytes += bytes;
                if let Some(active) = self.slots[i].catch_up.as_mut() {
                    active.bytes += bytes;
                }
                self.schedule(
                    now + delay,
                    EventKind::Transfer {
                        to: i,
                        blocks: replay_suffix,
                    },
                );
            }
        } else if mine < published && shared.orderer_reachable(now, self.members[i]) {
            // No peer can help (all behind or unreachable): reconnect to
            // the deliver service and re-request what's missing.
            let missing: Vec<Sealed> = (mine + 1..=published)
                .filter(|n| !self.has_block(i, *n))
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

    fn transfer(&mut self, now: SimTime, to: usize, blocks: Vec<Block>) {
        if self.slots[to].peer.is_none() {
            return;
        }
        for block in blocks {
            // Locally buffered predecessors commit first; then the
            // transferred block fills the next hole, if still a hole
            // (pushes may have raced ahead of the pull).
            self.commit_buffered(to);
            let number = block.header.number;
            if self.committed(to) + 1 != number {
                continue;
            }
            self.record_arrival(now, number);
            self.slots[to]
                .peer
                .as_mut()
                .expect("checked above")
                .replay_block(block)
                .expect("anti-entropy blocks extend the chain: all replicas re-seal identically");
        }
        self.commit_buffered(to);
        self.check_catch_up(now, to);
    }

    /// Installs a donor snapshot on a catching-up peer (unless it
    /// raced ahead on its own) and replays the post-snapshot suffix.
    fn snapshot_transfer(
        &mut self,
        shared: &Shared,
        mk: &dyn Fn() -> V,
        now: SimTime,
        to: usize,
        snapshot: LedgerSnapshot,
        suffix: Vec<Block>,
    ) {
        if self.slots[to].peer.is_none() {
            return;
        }
        if self.committed(to) < snapshot.last_block {
            let peer = Peer::restore_from_snapshot(mk(), shared.policy.clone(), &snapshot)
                .expect("a donor snapshot restores cleanly")
                .with_channel(self.id);
            let slot = &mut self.slots[to];
            slot.peer = Some(peer);
            slot.buffer
                .retain(|number, _| *number > snapshot.last_block);
            if let Some(store) = slot.store.as_mut() {
                // Adopt the snapshot locally so this peer's own crash
                // recovery starts from it. The stale block prefix it
                // covers is compacted away only under GC: without GC
                // the prefix stays serveable to other lagging peers
                // (see `replay_suffix`).
                store
                    .put_snapshot(snapshot.clone())
                    .expect("local store accepts the snapshot");
                if store.gc_enabled() {
                    store
                        .compact_up_to(snapshot.last_block)
                        .expect("local store compacts");
                }
            }
        }
        self.transfer(now, to, suffix);
    }

    /// Commits buffered raw blocks as long as the next one is present,
    /// then persists, acknowledges, and GCs (see [`Self::note_commit`]).
    fn commit_buffered(&mut self, i: usize) {
        let mut next = self.committed(i) + 1;
        let slot = &mut self.slots[i];
        let peer = slot.peer.as_mut().expect("caller checked");
        while let Some(block) = take_buffered(&mut slot.buffer, next) {
            let staged = peer.process_block(block);
            peer.commit(staged)
                .expect("buffered blocks extend the chain in order");
            next += 1;
        }
        self.note_commit(i);
    }

    /// Post-commit bookkeeping for slot `i`: mirror newly committed
    /// blocks into its durable store, write a snapshot when one is
    /// due, acknowledge the committed height on the channel frontier,
    /// and — with GC enabled — compact the store up to the frontier's
    /// minimum.
    fn note_commit(&mut self, i: usize) {
        let n_members = self.slots.len();
        let slot = &mut self.slots[i];
        let Some(peer) = slot.peer.as_ref() else {
            return;
        };
        let height = peer.chain().height() - 1;
        if let Some(store) = slot.store.as_mut() {
            for number in store.finalized_tip() + 1..=height {
                let block = peer
                    .chain()
                    .block(number)
                    .expect("committed blocks above the store's tip are in the chain");
                store.append_block(block).expect("store append succeeds");
            }
            if store.snapshot_due(height) {
                store
                    .put_snapshot(peer.ledger_snapshot())
                    .expect("store snapshot succeeds");
            }
        }
        self.acked.ack(i, height);
        let floor = self.acked.min_acked(n_members);
        let slot = &mut self.slots[i];
        if floor > slot.gc_floor {
            if let Some(store) = slot.store.as_mut().filter(|s| s.gc_enabled()) {
                store
                    .compact_up_to(floor)
                    .expect("store compaction succeeds");
                slot.gc_floor = floor;
            }
        }
    }

    fn crash(&mut self, now: SimTime, p: usize) {
        let global = self.members[p];
        let slot = &mut self.slots[p];
        let Some(peer) = slot.peer.take() else {
            return;
        };
        // Without a durable store the ledger "persists" by parking the
        // replica; with one, the store itself survives the crash.
        if slot.store.is_none() {
            slot.parked = Some(peer);
        }
        slot.buffer.clear();
        // A crash mid-catch-up ends the episode without reaching the
        // target; record it as abandoned rather than dropping it, so
        // catch-up statistics stay honest under repeated crashes.
        if let Some(active) = slot.catch_up.take() {
            self.metrics.catch_up.push(CatchUpEpisode {
                peer: global,
                from: active.from,
                bytes_shipped: active.bytes,
                outcome: CatchUpOutcome::Abandoned { at: now },
            });
        }
    }

    fn restart(&mut self, shared: &Shared, mk: &dyn Fn() -> V, now: SimTime, p: usize) {
        let peer = match self.slots[p].store.as_ref() {
            Some(store) => {
                let seeds = self.seeds.clone();
                store
                    .recover_seeded(mk(), shared.policy.clone(), move |peer| {
                        for (key, value) in seeds {
                            peer.seed_state(key, value);
                        }
                    })
                    .expect("a peer's own durable store recovers cleanly")
                    .peer
                    .with_channel(self.id)
            }
            None => self.slots[p]
                .parked
                .take()
                .expect("restart follows a crash that parked the replica"),
        };
        self.slots[p].peer = Some(peer);
        self.begin_catch_up(now, p);
    }

    fn heal(&mut self, shared: &Shared, now: SimTime, partition: usize) {
        let minority = shared.faults.partitions[partition].minority.clone();
        for global in minority {
            let Ok(p) = self.members.binary_search(&global) else {
                continue; // not a member of this channel
            };
            if self.slots[p].peer.is_some() {
                self.begin_catch_up(now, p);
            }
        }
    }

    /// Registers a catch-up episode for a rejoining peer (target: what
    /// the rest of the channel has committed right now) and pulls
    /// immediately.
    fn begin_catch_up(&mut self, now: SimTime, p: usize) {
        let target = (0..self.slots.len())
            .filter(|&j| j != p && self.slots[j].peer.is_some())
            .map(|j| self.committed(j))
            .max()
            .unwrap_or(0);
        if target > self.committed(p) && self.slots[p].catch_up.is_none() {
            self.slots[p].catch_up = Some(ActiveCatchUp {
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
        let done = self.slots[i]
            .catch_up
            .as_ref()
            .is_some_and(|active| self.committed(i) >= active.target);
        if done {
            let active = self.slots[i].catch_up.take().expect("checked above");
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
