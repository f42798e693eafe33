//! Network topology and pipeline configuration.

use fabriccrdt_sim::latency::LatencyModel;
use fabriccrdt_sim::time::SimTime;

use crate::channel::ChannelId;
use crate::latency::{LatencyConfig, CALIBRATED_HOP};
use crate::policy::EndorsementPolicy;

/// The logical network topology. The paper's evaluation (§7.2) uses
/// three organizations with two peers each, one orderer, one channel and
/// four Caliper clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of organizations.
    pub orgs: usize,
    /// Peers per organization.
    pub peers_per_org: usize,
    /// Number of submitting clients.
    pub clients: usize,
}

impl Topology {
    /// The paper's topology: 3 orgs × 2 peers, 4 clients.
    pub fn paper() -> Self {
        Topology {
            orgs: 3,
            peers_per_org: 2,
            clients: 4,
        }
    }

    /// Organization names: `org1`, `org2`, …
    pub fn org_names(&self) -> Vec<String> {
        (1..=self.orgs).map(|i| format!("org{i}")).collect()
    }

    /// Total peers across all organizations — the range of the global
    /// peer numbering (`org * peers_per_org + peer`).
    pub fn total_peers(&self) -> usize {
        self.orgs * self.peers_per_org
    }

    /// The default endorsement policy: one endorsement from every
    /// organization.
    pub fn default_policy(&self) -> EndorsementPolicy {
        EndorsementPolicy::all_of(self.org_names())
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::paper()
    }
}

/// Block-cutting parameters of the ordering service (§3: "the maximum
/// number of transactions, the maximum total size of transactions in a
/// block and a timeout period"). The timeout is the orderer's constant
/// [`BATCH_TIMEOUT`](crate::orderer::BATCH_TIMEOUT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCutConfig {
    /// Maximum transactions per block (the x-axis of Figure 3).
    pub max_tx_count: usize,
    /// Maximum bytes per block (128 MB in all the paper's experiments —
    /// effectively never binding).
    pub max_bytes: usize,
}

impl BlockCutConfig {
    /// The paper's configuration with the given block size.
    pub fn with_max_tx(max_tx_count: usize) -> Self {
        BlockCutConfig {
            max_tx_count,
            max_bytes: 128 * 1024 * 1024,
        }
    }
}

impl Default for BlockCutConfig {
    fn default() -> Self {
        // 25 tx/block: FabricCRDT's best configuration (§7.3).
        BlockCutConfig::with_max_tx(25)
    }
}

/// Parameters of the gossip block-dissemination layer (Fabric §4.4:
/// per-org leader peers pull blocks from the ordering service and
/// forward them; followers receive them via push gossip with periodic
/// pull-based anti-entropy for state transfer).
///
/// The fanout, the peer-to-peer link and the anti-entropy period are
/// constants of the `fabriccrdt-gossip` crate, which interprets this;
/// the one value a run chooses is which replica it observes.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// Flattened index of the peer whose block arrivals drive the
    /// committing-peer pipeline when gossip is plugged into
    /// [`crate::simulation::Simulation`] (peer `o * peers_per_org + p`
    /// is peer `p` of org `o`; peer 0 of each org is its leader). A
    /// channel this peer is not a member of observes its last member
    /// instead (`GossipNetwork::observed` in `fabriccrdt-gossip`).
    pub observed_peer: usize,
}

impl GossipConfig {
    /// Observes the last follower peer: the farthest from the orderer,
    /// so commit latency includes full dissemination.
    pub fn calibrated(topology: &Topology) -> Self {
        GossipConfig {
            observed_peer: topology.orgs * topology.peers_per_org - 1,
        }
    }
}

/// Parameters of the Raft-replicated ordering service (Fabric's
/// consensus became a pluggable module and migrated to Raft; the
/// paper's Kafka/ZooKeeper deployment is the same "crash-fault-tolerant
/// total order" role). Interpreted by the `fabriccrdt-ordering` crate,
/// which holds the election, heartbeat and client-retry timers as
/// constants.
///
/// This is plain data: the whole cluster — link delays, every fault
/// coin-flip — is reproducible from the run seed in [`PipelineConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct RaftConfig {
    /// Number of ordering nodes (consenters). Tolerates
    /// `(nodes - 1) / 2` simultaneous crashes.
    pub nodes: usize,
    /// Orderer-to-orderer link latency for Raft messages.
    pub link: LatencyModel,
    /// `Some(i)`: the cluster boots with node `i` already leader of
    /// term 1 — a Fabric channel elects its leader at channel creation,
    /// long before traffic. `None` models a cold start (first election
    /// races from term 0).
    pub preelected_leader: Option<usize>,
    /// Fault schedule over *ordering-node* indices (`CrashSpec::peer`
    /// and `PartitionSpec::minority` name Raft nodes here); link faults
    /// apply to Raft messages. Independent of the gossip-layer
    /// [`PipelineConfig::faults`].
    pub faults: FaultConfig,
}

impl RaftConfig {
    /// Calibrated defaults: ~1 ms links ([`CALIBRATED_HOP`]), node 0
    /// pre-elected, no faults.
    pub fn calibrated(nodes: usize) -> Self {
        RaftConfig {
            nodes,
            link: CALIBRATED_HOP,
            preelected_leader: Some(0),
            faults: FaultConfig::none(),
        }
    }
}

/// How the ordering service treats each pending batch at block cut.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OrderingPolicy {
    /// Arrival order, untouched — the seed pipeline.
    #[default]
    Fifo,
    /// Fabric++-style dependency-graph reordering with cycle early
    /// aborts on every batch (see [`crate::reorder`]) — the baseline of
    /// the paper's §8.
    Reorder,
    /// Conflict-aware routing: reorder only batches whose measured
    /// conflict density crosses
    /// [`DENSITY_THRESHOLD`](crate::conflict::DENSITY_THRESHOLD); cut
    /// cold batches FIFO without paying the graph cost. Driven by
    /// finalize feedback through the
    /// [`crate::conflict::ConflictTracker`].
    Adaptive,
}

impl OrderingPolicy {
    /// Whether this policy ever consults finalize feedback.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, OrderingPolicy::Adaptive)
    }
}

/// Client-side abort-and-retry tuning: how failed (MVCC-conflicted or
/// early-aborted) transactions are re-submitted (§1: "the only option
/// for clients is to create a new transaction and resubmit"). Each
/// retry re-executes, re-endorses and re-orders — the
/// development-complexity and load cost FabricCRDT eliminates.
///
/// [`RetryPolicy::immediate`] retries right after the failure
/// notification; [`RetryPolicy::calibrated`] adds the deterministic
/// seeded exponential backoff real deployments use, so retry storms on
/// a hot key spread out instead of re-colliding in the next block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum resubmissions per transaction (the retry budget). 0 = no
    /// retries (the paper's experiments).
    pub budget: usize,
    /// Base backoff before the first retry; doubles per attempt
    /// (capped at `base << 6`).
    backoff_base: SimTime,
    /// Uniform jitter fraction: each backoff is scaled by a factor
    /// drawn deterministically from `[1, 1 + jitter)` off the run
    /// seed's PRNG stream.
    jitter: f64,
}

impl RetryPolicy {
    /// Up to `budget` resubmissions with no backoff: zero delay and —
    /// because [`RetryPolicy::backoff_delay`] only samples when
    /// `jitter > 0` — zero PRNG draws. `immediate(0)` is the default:
    /// no retries.
    pub fn immediate(budget: usize) -> Self {
        RetryPolicy {
            budget,
            backoff_base: SimTime::ZERO,
            jitter: 0.0,
        }
    }

    /// Calibrated defaults for a given budget: 50 ms base, 50% jitter.
    pub fn calibrated(budget: usize) -> Self {
        RetryPolicy {
            budget,
            backoff_base: SimTime::from_millis(50),
            jitter: 0.5,
        }
    }

    /// The deterministic backoff before retry attempt `attempt`
    /// (1-based), drawing the jitter factor from `rng`.
    pub fn backoff_delay(&self, attempt: usize, rng: &mut fabriccrdt_sim::rng::SimRng) -> SimTime {
        let exp = (attempt.saturating_sub(1)).min(6) as u32;
        let base = self.backoff_base.as_micros().saturating_mul(1u64 << exp);
        let factor = if self.jitter > 0.0 {
            rng.gen_range_f64(1.0, 1.0 + self.jitter)
        } else {
            1.0
        };
        SimTime::from_micros((base as f64 * factor) as u64)
    }
}

/// Per-link message faults applied to every gossip hop.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is dropped in transit.
    pub drop: f64,
    /// Probability a message is duplicated (the copy arrives after an
    /// independently sampled delay — gossip must dedup it).
    pub duplicate: f64,
    /// Extra per-message delay added on top of the link latency.
    pub extra_delay: LatencyModel,
}

impl LinkFaults {
    /// A loss-free, duplication-free, no-extra-delay link.
    pub fn none() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            extra_delay: LatencyModel::zero(),
        }
    }
}

/// A scheduled peer crash and restart. While down the peer loses its
/// in-flight messages and receive buffer; its committed ledger persists
/// (Fabric peers keep the ledger on disk) and is restored on restart,
/// after which anti-entropy catches the peer up. A member is down from
/// a crash until the next restart, so windows may overlap: a crash of
/// a member that is down, and a restart of one that is up, are no-ops.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// Flattened peer index.
    pub peer: usize,
    /// Crash time.
    pub at: SimTime,
    /// Restart time (must be ≥ `at`).
    pub restart_at: SimTime,
}

/// A network partition: during `[at, heal_at)` the `minority` peers can
/// talk only among themselves; everyone else — including the ordering
/// service — is unreachable from them.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Partition start.
    pub at: SimTime,
    /// Heal time.
    pub heal_at: SimTime,
    /// Flattened indices of the isolated peers.
    pub minority: Vec<usize>,
}

/// How a byzantine relay mangles the block it forwards. The first
/// three modes leave the original Merkle data hash in place, so the
/// forged copy is *internally* inconsistent and detected by the data
/// hash alone; the last two re-seal the forged payload, so the copy is
/// internally consistent and only detectable against the canonical
/// block digest at the same height (equivocation evidence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperMode {
    /// Flip one byte of the first transaction's payload without
    /// recomputing the data hash.
    FlipPayloadByte,
    /// Append a duplicate copy of the first transaction without
    /// recomputing the data hash.
    DuplicateTx,
    /// Reverse the transaction order without recomputing the data
    /// hash.
    ReorderTxs,
    /// Re-seal the block over a forged previous-block hash — an
    /// attempt to splice the victim onto a fork.
    ForgeTipHash,
    /// Re-seal the block over an altered transaction set — the
    /// equivocating orderer emitting divergent-but-well-formed blocks
    /// at one height to different victims.
    EquivocateValue,
}

/// One scheduled byzantine injection: when the canonical block at
/// `height` is published, a forged variant is also delivered to each
/// victim. Plain data, like [`FaultConfig`] — the whole attack is
/// reproducible from the run configuration alone and draws nothing
/// from the run's PRNG streams.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSpec {
    /// Block height (1-based block number) the attack targets. Heights
    /// never published are silently inert.
    pub height: u64,
    /// How the forged variant differs from the canonical block.
    pub mode: TamperMode,
    /// Flattened peer indices the forged variant is delivered to.
    pub victims: Vec<usize>,
    /// The compromised relay the forgery claims to come from; `None`
    /// means it masquerades as an ordering-service delivery. A named
    /// relay gets quarantined on detection.
    pub via: Option<usize>,
    /// Extra delay past the canonical orderer→leader hop before the
    /// forged copies land.
    pub delay: SimTime,
}

/// A run's byzantine-adversary schedule, interpreted by the gossip
/// layer's ingress screen. Like [`FaultConfig`], this is plain data so
/// an adversarial run is reproducible from its configuration; enabling
/// it changes nothing about honest message flow (the screen only drops
/// blocks that fail integrity or digest checks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversaryConfig {
    /// Scheduled injections.
    pub attacks: Vec<AttackSpec>,
}

impl AdversaryConfig {
    /// No adversary at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the schedule injects anything.
    pub fn is_quiescent(&self) -> bool {
        self.attacks.is_empty()
    }
}

/// The full fault-injection surface of one run. All faults are sampled
/// or scheduled deterministically from the run's seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Message-level faults on every gossip link.
    pub link: LinkFaults,
    /// Scheduled crashes/restarts.
    pub crashes: Vec<CrashSpec>,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionSpec>,
}

impl FaultConfig {
    /// No faults at all.
    pub fn none() -> Self {
        FaultConfig {
            link: LinkFaults::none(),
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Whether this configuration injects any fault.
    pub fn is_quiescent(&self) -> bool {
        self.link.drop == 0.0
            && self.link.duplicate == 0.0
            && self.link.extra_delay == LatencyModel::zero()
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    /// Whether an active partition separates members `a` and `b` at
    /// `now`: one is in its minority and the other is not.
    pub fn partitioned(&self, now: SimTime, a: usize, b: usize) -> bool {
        self.active_partitions(now)
            .any(|p| p.minority.contains(&a) != p.minority.contains(&b))
    }

    /// Whether member `p` sits in the minority of an active partition
    /// at `now`, cut off from everything on the majority side — the
    /// ordering service included.
    pub fn cut_off(&self, now: SimTime, p: usize) -> bool {
        self.active_partitions(now)
            .any(|partition| partition.minority.contains(&p))
    }

    /// When the last scheduled fault has played out: the latest restart
    /// and heal time, or zero for a schedule with neither.
    pub fn settled_at(&self) -> SimTime {
        let restarts = self.crashes.iter().map(|c| c.restart_at);
        let heals = self.partitions.iter().map(|p| p.heal_at);
        restarts.chain(heals).max().unwrap_or(SimTime::ZERO)
    }

    /// The partitions in force at `now`: those with `at ≤ now < heal_at`.
    fn active_partitions(&self, now: SimTime) -> impl Iterator<Item = &PartitionSpec> {
        self.partitions
            .iter()
            .filter(move |p| now >= p.at && now < p.heal_at)
    }

    /// Checks the schedule against a cluster of `n` members; `what`
    /// names a member in the messages (`"peer"` for gossip, `"node"`
    /// for Raft).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range member index, a restart before its
    /// crash, a heal before its partition, a partition isolating every
    /// member, or a link drop probability of 1.0 (which would
    /// disconnect the cluster for good).
    pub fn validate(&self, n: usize, what: &str) {
        for crash in &self.crashes {
            assert!(crash.peer < n, "crash {what} out of range");
            assert!(crash.restart_at >= crash.at, "restart before crash");
        }
        for partition in &self.partitions {
            assert!(partition.heal_at >= partition.at, "heal before partition");
            assert!(
                partition.minority.iter().all(|p| *p < n),
                "partition {what} out of range"
            );
            assert!(
                partition.minority.len() < n,
                "partition must leave a majority side"
            );
        }
        assert!(
            self.link.drop < 1.0,
            "drop probability 1.0 disconnects every {what}"
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Full pipeline configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Network topology.
    pub topology: Topology,
    /// Endorsement policy applied to every transaction.
    pub policy: EndorsementPolicy,
    /// Orderer block cutting.
    pub block_cut: BlockCutConfig,
    /// Latency and cost calibration.
    pub latency: LatencyConfig,
    /// Root PRNG seed; every run with the same seed and inputs is
    /// bit-identical.
    pub seed: u64,
    /// How the orderer treats each batch at block cut. The default,
    /// [`OrderingPolicy::Fifo`], is byte-for-byte the seed pipeline.
    pub ordering_policy: OrderingPolicy,
    /// Client-side abort-and-retry policy. The default,
    /// [`RetryPolicy::immediate`]`(0)`, never resubmits (the paper's
    /// experiments).
    pub retry: RetryPolicy,
    /// Gossip dissemination parameters. `None` (the default everywhere)
    /// keeps the ideal FIFO block delivery all the paper figures use;
    /// `Some` makes `fabriccrdt_channel::assemble` route blocks
    /// through the `fabriccrdt-gossip` layer instead.
    pub gossip: Option<GossipConfig>,
    /// Fault injection applied by the gossip layer. Ignored under ideal
    /// FIFO delivery.
    pub faults: FaultConfig,
    /// Raft ordering-service parameters. `None` (the default
    /// everywhere) keeps the single in-process orderer all the paper
    /// figures use; `Some` makes `fabriccrdt_channel::assemble`
    /// replicate the orderer across a `fabriccrdt-ordering` consensus
    /// cluster instead.
    pub ordering: Option<RaftConfig>,
    /// Durable-storage configuration for gossip-layer peers. `None`
    /// (the default everywhere) keeps ledgers purely in memory with no
    /// snapshots — byte-for-byte the seed behaviour; `Some` attaches a
    /// [`crate::storage::DurableLedger`] per peer (in-memory or
    /// append-only-file backend), takes periodic snapshots, optionally
    /// compacts each store below the cluster-acknowledged frontier, and
    /// lets anti-entropy ship snapshots to far-behind peers.
    pub storage: Option<crate::storage::StorageConfig>,
    /// Byzantine-adversary schedule, applied by the gossip layer's
    /// ingress screen. `None` (the default everywhere) disables both
    /// injection and screening — honest runs are byte-for-byte
    /// unaffected. Ignored under ideal FIFO delivery, like
    /// [`PipelineConfig::faults`].
    pub adversary: Option<AdversaryConfig>,
    /// Which channel this pipeline runs on. [`ChannelId::DEFAULT`] for
    /// every single-channel run; multi-channel deployments
    /// ([`crate::channel::MultiChannelConfig`]) derive one config per
    /// channel with this set to the channel's id, which flows into the
    /// peer, the run metrics and the per-channel ledger file names.
    pub channel: ChannelId,
}

impl PipelineConfig {
    /// The paper's fixed setup with a given block size and seed.
    pub fn paper(max_tx_per_block: usize, seed: u64) -> Self {
        let topology = Topology::paper();
        let policy = topology.default_policy();
        PipelineConfig {
            topology,
            policy,
            block_cut: BlockCutConfig::with_max_tx(max_tx_per_block),
            latency: LatencyConfig::calibrated(),
            seed,
            ordering_policy: OrderingPolicy::Fifo,
            retry: RetryPolicy::immediate(0),
            gossip: None,
            faults: FaultConfig::none(),
            ordering: None,
            storage: None,
            adversary: None,
            channel: ChannelId::DEFAULT,
        }
    }

    /// Assigns this pipeline to a channel (builder style); see
    /// [`PipelineConfig::channel`].
    pub fn with_channel(mut self, channel: ChannelId) -> Self {
        self.channel = channel;
        self
    }

    /// Attaches durable peer storage (takes effect only with gossip
    /// delivery, i.e. when `fabriccrdt_channel::assemble` sees
    /// [`PipelineConfig::gossip`] set; see [`PipelineConfig::storage`]).
    pub fn with_storage(mut self, storage: crate::storage::StorageConfig) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Returns the configuration unchanged: a peer has one commit path.
    /// Pinned for `perf/` (DESIGN.md §4.10).
    pub fn with_pipelined_validation(self, _workers: usize) -> Self {
        self
    }

    /// Routes block dissemination through the gossip layer with the
    /// calibrated defaults for this topology (honoured by
    /// `fabriccrdt_channel::assemble`).
    pub fn with_gossip(mut self) -> Self {
        self.gossip = Some(GossipConfig::calibrated(&self.topology));
        self
    }

    /// Sets the fault-injection schedule (takes effect only with
    /// gossip delivery, i.e. when `fabriccrdt_channel::assemble` sees
    /// [`PipelineConfig::gossip`] set).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replicates the ordering service across a Raft cluster with
    /// explicit parameters (honoured by `fabriccrdt_channel::assemble`).
    pub fn with_raft_config(mut self, raft: RaftConfig) -> Self {
        self.ordering = Some(raft);
        self
    }

    /// Installs a byzantine-adversary schedule (takes effect only with
    /// gossip delivery, i.e. when `fabriccrdt_channel::assemble` sees
    /// [`PipelineConfig::gossip`] set; see [`PipelineConfig::adversary`]).
    pub fn with_adversary(mut self, adversary: AdversaryConfig) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Selects an explicit ordering policy (see [`OrderingPolicy`]).
    pub fn with_ordering_policy(mut self, policy: OrderingPolicy) -> Self {
        self.ordering_policy = policy;
        self
    }

    /// Enables client-side abort-and-retry (see [`RetryPolicy`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Plain getter of [`PipelineConfig::ordering_policy`]. It has
    /// nothing left to reconcile since the `reorder` flag it used to
    /// fold in is gone; the name survives because the benchmark
    /// package `perf/` calls it.
    pub fn effective_ordering_policy(&self) -> OrderingPolicy {
        self.ordering_policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology() {
        let t = Topology::paper();
        assert_eq!(t.orgs, 3);
        assert_eq!(t.peers_per_org, 2);
        assert_eq!(t.clients, 4);
        assert_eq!(t.org_names(), ["org1", "org2", "org3"]);
    }

    #[test]
    fn default_policy_requires_all_orgs() {
        let t = Topology::paper();
        let p = t.default_policy();
        assert!(p.is_satisfied_by(["org1", "org2", "org3"]));
        assert!(!p.is_satisfied_by(["org1", "org2"]));
    }

    #[test]
    fn block_cut_paper_defaults() {
        let b = BlockCutConfig::with_max_tx(400);
        assert_eq!(b.max_tx_count, 400);
        assert_eq!(b.max_bytes, 128 * 1024 * 1024);
    }

    #[test]
    fn pipeline_config_paper() {
        let cfg = PipelineConfig::paper(25, 42);
        assert_eq!(cfg.block_cut.max_tx_count, 25);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.policy.required(), 3);
        assert!(cfg.gossip.is_none());
        assert!(cfg.faults.is_quiescent());
    }

    #[test]
    fn gossip_defaults_observe_last_peer() {
        let cfg = PipelineConfig::paper(25, 1).with_gossip();
        let gossip = cfg.gossip.as_ref().unwrap();
        assert_eq!(gossip.observed_peer, 5); // 3 orgs × 2 peers − 1
    }

    #[test]
    fn raft_config_defaults() {
        let cfg = PipelineConfig::paper(25, 1);
        assert!(cfg.ordering.is_none());
        let cfg = cfg.with_raft_config(RaftConfig::calibrated(5));
        let raft = cfg.ordering.as_ref().unwrap();
        assert_eq!(raft.nodes, 5);
        assert_eq!(raft.preelected_leader, Some(0));
        assert!(raft.faults.is_quiescent());
    }

    #[test]
    fn raft_config_explicit_override() {
        let raft = RaftConfig {
            nodes: 3,
            preelected_leader: None,
            ..RaftConfig::calibrated(5)
        };
        let cfg = PipelineConfig::paper(25, 1).with_raft_config(raft.clone());
        assert_eq!(cfg.ordering, Some(raft));
    }

    #[test]
    fn adversary_schedule_is_plain_data() {
        assert!(AdversaryConfig::none().is_quiescent());
        assert!(PipelineConfig::paper(25, 1).adversary.is_none());
        let cfg = PipelineConfig::paper(25, 1).with_adversary(AdversaryConfig {
            attacks: vec![AttackSpec {
                height: 2,
                mode: TamperMode::EquivocateValue,
                victims: vec![4, 5],
                via: Some(3),
                delay: SimTime::from_millis(5),
            }],
        });
        let adversary = cfg.adversary.as_ref().unwrap();
        assert!(!adversary.is_quiescent());
        assert_eq!(adversary.attacks[0].victims, [4, 5]);
    }

    #[test]
    fn ordering_and_retry_defaults_and_builders() {
        let cfg = PipelineConfig::paper(25, 1);
        assert_eq!(cfg.effective_ordering_policy(), OrderingPolicy::Fifo);
        assert_eq!(cfg.retry, RetryPolicy::immediate(0));
        let cfg = cfg
            .with_ordering_policy(OrderingPolicy::Reorder)
            .with_retry_policy(RetryPolicy::calibrated(5));
        assert_eq!(cfg.effective_ordering_policy(), OrderingPolicy::Reorder);
        assert_eq!(cfg.retry.budget, 5);
        assert!(cfg
            .with_ordering_policy(OrderingPolicy::Adaptive)
            .effective_ordering_policy()
            .is_adaptive());
    }

    #[test]
    fn immediate_retry_draws_nothing_and_adds_no_delay() {
        use fabriccrdt_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(7);
        let mut untouched = SimRng::seed_from(7);
        for attempt in 1..=10 {
            let delay = RetryPolicy::immediate(50).backoff_delay(attempt, &mut rng);
            assert_eq!(delay, SimTime::ZERO);
        }
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn retry_backoff_is_exponential_and_deterministic() {
        use fabriccrdt_sim::rng::SimRng;
        let policy = RetryPolicy {
            budget: 8,
            backoff_base: SimTime::from_millis(10),
            jitter: 0.0,
        };
        let mut rng = SimRng::seed_from(7);
        assert_eq!(policy.backoff_delay(1, &mut rng), SimTime::from_millis(10));
        assert_eq!(policy.backoff_delay(2, &mut rng), SimTime::from_millis(20));
        assert_eq!(policy.backoff_delay(3, &mut rng), SimTime::from_millis(40));
        // The exponent caps at 6 doublings.
        assert_eq!(
            policy.backoff_delay(50, &mut rng),
            SimTime::from_millis(640)
        );
        // With jitter, two identically seeded streams agree.
        let jittered = RetryPolicy::calibrated(2);
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        let da = jittered.backoff_delay(1, &mut a);
        assert_eq!(da, jittered.backoff_delay(1, &mut b));
        assert!(da >= jittered.backoff_base);
    }

    #[test]
    fn fault_quiescence_detects_each_knob() {
        assert!(FaultConfig::none().is_quiescent());
        let drops = FaultConfig {
            link: LinkFaults {
                drop: 0.1,
                ..LinkFaults::none()
            },
            ..FaultConfig::none()
        };
        assert!(!drops.is_quiescent());
        let crashes = FaultConfig {
            crashes: vec![CrashSpec {
                peer: 1,
                at: SimTime::from_secs(1),
                restart_at: SimTime::from_secs(2),
            }],
            ..FaultConfig::none()
        };
        assert!(!crashes.is_quiescent());
        let split = FaultConfig {
            partitions: vec![PartitionSpec {
                at: SimTime::from_secs(1),
                heal_at: SimTime::from_secs(2),
                minority: vec![4, 5],
            }],
            ..FaultConfig::none()
        };
        assert!(!split.is_quiescent());
    }
}
