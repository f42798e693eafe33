//! Per-transaction lifecycle records and run-level metrics.
//!
//! Mirrors the quantities Hyperledger Caliper reports and the paper
//! plots: number of successful transactions (panel c of every figure),
//! throughput of successful transactions (panel a), and average latency
//! of successful transactions (panel b).

use fabriccrdt_ledger::block::ValidationCode;
use fabriccrdt_sim::stats::{Summary, TimeBuckets};
use fabriccrdt_sim::time::SimTime;

use crate::channel::ChannelId;

/// A chaincode event from a successfully committed transaction
/// (Fabric's event service delivers events only on commit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedEvent {
    /// Index of the originating request in the submission schedule.
    pub request: usize,
    /// Event name (chaincode's `set_event`).
    pub name: String,
    /// Opaque payload.
    pub payload: Vec<u8>,
    /// Commit time.
    pub at: SimTime,
}

/// Lifecycle timestamps of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxRecord {
    /// Client submission time.
    pub submitted_at: SimTime,
    /// Time the transaction's block finished committing, if it got that
    /// far (endorsement failures before ordering never do).
    pub committed_at: Option<SimTime>,
    /// Final validation code.
    pub code: Option<ValidationCode>,
}

impl TxRecord {
    /// Whether the transaction committed successfully.
    pub fn is_success(&self) -> bool {
        self.code.is_some_and(ValidationCode::is_success)
    }

    /// Submit-to-commit latency for successful transactions.
    pub fn latency(&self) -> Option<SimTime> {
        if !self.is_success() {
            return None;
        }
        self.committed_at
            .map(|c| c.saturating_sub(self.submitted_at))
    }
}

/// How a catch-up episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUpOutcome {
    /// The peer replayed the missing block suffix block by block
    /// (classic anti-entropy state transfer).
    Replay {
        /// When it reached the height the rest of the network had when
        /// it fell behind (or later, if blocks kept arriving).
        caught_up_at: SimTime,
    },
    /// The peer installed a donor snapshot, then replayed only the
    /// post-snapshot suffix.
    Snapshot {
        /// When it reached the target height.
        caught_up_at: SimTime,
        /// Bytes of the installed snapshot (also included in the
        /// episode's [`CatchUpEpisode::bytes_shipped`]).
        snapshot_bytes: u64,
    },
    /// The peer crashed again before reaching the target height; the
    /// episode ends at the crash without catching up. Counting these
    /// keeps catch-up statistics honest under repeated crashes.
    Abandoned {
        /// When the peer crashed mid-catch-up.
        at: SimTime,
    },
}

/// One catch-up episode: a peer that fell behind (crash restart or
/// healed partition) and what it took gossip anti-entropy to bring it
/// back to the network's committed height — or the crash that cut the
/// attempt short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpEpisode {
    /// Flattened peer index.
    pub peer: usize,
    /// When the peer rejoined (restart or heal time).
    pub from: SimTime,
    /// Total bytes shipped to the peer during the episode (snapshot +
    /// block transfer payloads).
    pub bytes_shipped: u64,
    /// How the episode ended.
    pub outcome: CatchUpOutcome,
}

impl CatchUpEpisode {
    /// When the peer reached the target height, or `None` for an
    /// abandoned episode.
    pub fn completed_at(&self) -> Option<SimTime> {
        match self.outcome {
            CatchUpOutcome::Replay { caught_up_at }
            | CatchUpOutcome::Snapshot { caught_up_at, .. } => Some(caught_up_at),
            CatchUpOutcome::Abandoned { .. } => None,
        }
    }

    /// When the episode ended, whether by catching up or by crashing.
    pub fn ended_at(&self) -> SimTime {
        match self.outcome {
            CatchUpOutcome::Replay { caught_up_at }
            | CatchUpOutcome::Snapshot { caught_up_at, .. } => caught_up_at,
            CatchUpOutcome::Abandoned { at } => at,
        }
    }

    /// Rejoin-to-end duration (for abandoned episodes, rejoin-to-crash).
    pub fn duration(&self) -> SimTime {
        self.ended_at().saturating_sub(self.from)
    }

    /// Whether the episode was cut short by another crash.
    pub fn is_abandoned(&self) -> bool {
        matches!(self.outcome, CatchUpOutcome::Abandoned { .. })
    }

    /// Whether the episode installed a snapshot.
    pub fn used_snapshot(&self) -> bool {
        matches!(self.outcome, CatchUpOutcome::Snapshot { .. })
    }
}

/// Metrics of the block-dissemination (gossip) layer. Only populated
/// when a run uses gossip delivery; ideal FIFO delivery reports `None`
/// in [`RunMetrics::dissemination`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisseminationMetrics {
    /// Orderer-cut to per-peer block arrival latency, one sample per
    /// `(block, peer)` first delivery.
    pub propagation: Vec<SimTime>,
    /// Gossip push messages put on the wire (including ones later
    /// dropped by fault injection).
    pub messages_sent: u64,
    /// Pushes that arrived at a peer which already had the block — the
    /// inherent redundancy of epidemic dissemination.
    pub redundant_messages: u64,
    /// Messages dropped by link fault injection.
    pub messages_dropped: u64,
    /// Extra copies injected by link duplication faults.
    pub messages_duplicated: u64,
    /// Anti-entropy rounds that actually transferred at least one block.
    pub anti_entropy_transfers: u64,
    /// Blocks shipped by anti-entropy state transfer.
    pub anti_entropy_blocks: u64,
    /// Encoded bytes shipped by anti-entropy block transfers.
    pub anti_entropy_bytes: u64,
    /// Anti-entropy rounds that shipped a snapshot instead of (or in
    /// addition to) a block suffix.
    pub snapshot_transfers: u64,
    /// Encoded bytes of shipped snapshots, each charged the
    /// acknowledgement table's bytes too.
    pub snapshot_bytes: u64,
    /// Failed calls of a replica's own store (an append, a snapshot, a
    /// compaction or a recovery), each of which crashed that replica.
    pub store_faults: u64,
    /// Catch-up episodes after crashes/partitions, in rejoin order
    /// (abandoned ones included; see [`CatchUpOutcome::Abandoned`]).
    pub catch_up: Vec<CatchUpEpisode>,
}

impl DisseminationMetrics {
    /// Distribution of block propagation latencies (for percentile
    /// reporting).
    pub fn propagation_summary(&self) -> Summary {
        Summary::from_times(&self.propagation)
    }

    /// Redundant-message ratio: fraction of received pushes that the
    /// receiver already had. 0 when nothing was received.
    ///
    /// Drops are subtracted saturating: under heavy loss-fault
    /// schedules a link can drop duplicated copies it never counted as
    /// sent, so `dropped` may exceed `sent + duplicated` — that means
    /// "nothing received", not a u64 underflow.
    pub fn redundancy_ratio(&self) -> f64 {
        let received =
            (self.messages_sent + self.messages_duplicated).saturating_sub(self.messages_dropped);
        if received == 0 {
            return 0.0;
        }
        self.redundant_messages as f64 / received as f64
    }

    /// The longest *completed* catch-up episode, if any peer caught up.
    /// Abandoned episodes are excluded: their duration measures time to
    /// the next crash, not time to catch up.
    pub fn worst_catch_up(&self) -> Option<CatchUpEpisode> {
        self.catch_up
            .iter()
            .filter(|e| !e.is_abandoned())
            .copied()
            .max_by_key(CatchUpEpisode::duration)
    }
}

/// The type of [`RunMetrics::decode_cache`] and of
/// [`BlockValidator::decode_cache_stats`](crate::validator::BlockValidator::decode_cache_stats),
/// both always `None`: there is no payload cache. Kept only because
/// `perf/` names them (DESIGN.md §4.16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheMetrics {
    /// Lookups served from the cache during the run.
    pub hits: u64,
    /// Lookups that had to parse during the run.
    pub misses: u64,
    /// Capacity flushes (epoch evictions) during the run.
    pub evictions: u64,
}

/// Detection counters of the byzantine-adversary screen. Only
/// populated when a run configures an adversary schedule
/// ([`crate::config::AdversaryConfig`]) on a gossip delivery; honest
/// runs report `None` in [`RunMetrics::adversary`].
///
/// Unlike [`RunMetrics::pipelined`], these counters are part of
/// [`RunMetrics`] equality: detection is deterministic, so equivalent
/// runs must detect identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryMetrics {
    /// Forged block variants the adversary put on the wire (divergent
    /// equivocation payloads, tampered copies, forged tip hashes).
    pub forged_blocks_injected: u64,
    /// Blocks rejected at ingress because their Merkle data hash did
    /// not cover their transactions (in-flight tampering: flipped
    /// bytes, reordered or duplicated transactions).
    pub tampered_rejected: u64,
    /// Well-formed blocks rejected because their header digest
    /// diverged from the canonical block at the same height (forged
    /// tip hashes, equivocating orderer payloads).
    pub forged_rejected: u64,
    /// Distinct divergent digests observed per height — the
    /// equivocation evidence count. Two conflicting variants at one
    /// height count twice; re-deliveries of a known variant do not.
    pub equivocations_detected: u64,
    /// Peers quarantined for relaying at least one bad block
    /// (currently serving quarantine when the counters were taken;
    /// relays released on probation no longer count).
    pub quarantined_peers: u64,
    /// Messages dropped because their relay was already quarantined.
    pub quarantine_drops: u64,
    /// Relays released from quarantine after serving a full clean
    /// probation window (see `crates/gossip`'s ingress screen) — an
    /// honest-but-once-spoofed relay's pushes count again afterwards.
    pub quarantine_releases: u64,
}

impl AdversaryMetrics {
    /// Total blocks rejected at the adversary screen.
    pub fn rejected_blocks(&self) -> u64 {
        self.tampered_rejected + self.forged_rejected
    }
}

/// A name only: what [`RunMetrics::pipelined`] would hold. No run
/// fills it, because no block overlaps another; kept, with its two
/// fields, because `perf/` reads them (DESIGN.md §4.16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Blocks processed during a predecessor's finalize.
    pub blocks_overlapped: u64,
    /// Blocks that arrived with nothing in flight.
    pub blocks_stalled: u64,
}

/// Metrics of the replicated (Raft) ordering service. Only populated
/// when a run uses the Raft backend; the default single orderer
/// reports `None` in [`RunMetrics::ordering`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OrderingMetrics {
    /// Elections started (follower→candidate conversions), including
    /// split votes that never won.
    pub elections_started: u64,
    /// Leadership handovers after the first leader was established.
    pub leader_changes: u64,
    /// Highest Raft term any node reached.
    pub final_term: u64,
    /// Per committed block: leader seal → commit-index advancement
    /// covering it (the replication/commit latency).
    pub commit_latency: Vec<SimTime>,
    /// Client submission re-attempts: retry ticks where a pending
    /// transaction was not held by any reachable leader (leaderless
    /// windows, or a batch lost with a deposed/crashed leader).
    pub submission_retries: u64,
    /// Raft messages put on the wire (AppendEntries, votes, responses —
    /// including ones later dropped by fault injection).
    pub messages_sent: u64,
    /// Messages dropped by link fault injection.
    pub messages_dropped: u64,
}

impl OrderingMetrics {
    /// Distribution of block replication/commit latencies (for
    /// percentile reporting).
    pub fn commit_latency_summary(&self) -> Summary {
        Summary::from_times(&self.commit_latency)
    }
}

/// Counters of the conflict-aware ordering policy
/// ([`crate::config::OrderingPolicy`]). Populated whenever the run's
/// effective policy is not FIFO; FIFO runs report `None` in
/// [`RunMetrics::conflict_policy`].
///
/// Deterministic (the policy decisions read only tracker state derived
/// from finalize feedback), so these counters participate in
/// [`RunMetrics`] equality like the adversary counters do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictPolicyMetrics {
    /// Batches that went through the dependency-graph reordering pass.
    pub batches_reordered: u64,
    /// Batches cut FIFO because their measured conflict density stayed
    /// below the adaptive threshold (the skipped Tarjan/Kahn cost).
    pub batches_fifo: u64,
    /// Transactions early-aborted as conflict-cycle members by the
    /// reordering pass.
    pub cycle_aborts: u64,
    /// Keys the conflict tracker held when the run ended.
    pub tracked_keys: u64,
}

impl ConflictPolicyMetrics {
    /// Accumulates another counter set (used by the Raft cluster to
    /// carry counters across leader hand-offs).
    pub fn absorb(&mut self, other: ConflictPolicyMetrics) {
        self.batches_reordered += other.batches_reordered;
        self.batches_fifo += other.batches_fifo;
        self.cycle_aborts += other.cycle_aborts;
        self.tracked_keys = self.tracked_keys.max(other.tracked_keys);
    }

    /// Total early aborts the ordering policy performed.
    pub fn early_aborts(&self) -> u64 {
        self.cycle_aborts
    }
}

/// Client-side abort-and-retry accounting (tentpole of the
/// conflict-aware ordering work): what the retry loop cost and what it
/// recovered. Always populated — a run with no retries reports zeros —
/// and part of [`RunMetrics`] equality (fully deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryMetrics {
    /// Resubmissions performed (every retry is a full extra
    /// execute/endorse/order round trip).
    pub retries: u64,
    /// Transactions that eventually committed successfully after at
    /// least one retry.
    pub retry_success: u64,
    /// Submit-to-final-commit latency of each retry success (measured
    /// from the *original* submission, so it includes every backoff).
    pub retry_latency: Vec<SimTime>,
    /// Validation work units the committing peer spent on transactions
    /// whose final verdict was a failure: one unit per endorsement
    /// signature verified plus one per read-set version checked.
    /// Early-aborted transactions contribute nothing — they never
    /// reach validation, which is exactly the point of early abort.
    pub wasted_validation_work: u64,
}

/// Metrics for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// The channel the run executed on ([`ChannelId::DEFAULT`] for
    /// single-channel runs). Multi-channel rollups
    /// ([`crate::channel::MultiChannelMetrics`]) group per-channel
    /// metrics by this.
    pub channel: ChannelId,
    /// One record per submitted transaction, in submission order.
    pub records: Vec<TxRecord>,
    /// Simulated time when the last block committed.
    pub end_time: SimTime,
    /// Total blocks committed.
    pub blocks_committed: u64,
    /// Chaincode events of successfully committed transactions, in
    /// commit order.
    pub events: Vec<CommittedEvent>,
    /// Gossip-layer metrics when the run used gossip delivery; `None`
    /// under the default ideal FIFO delivery.
    pub dissemination: Option<DisseminationMetrics>,
    /// Ordering-cluster metrics when the run used the Raft backend;
    /// `None` under the default single orderer.
    pub ordering: Option<OrderingMetrics>,
    /// Always `None`; pinned for `perf/` (DESIGN.md §4.16).
    pub decode_cache: Option<DecodeCacheMetrics>,
    /// Byzantine-screen detection counters when the run configured an
    /// adversary schedule; `None` for honest runs.
    pub adversary: Option<AdversaryMetrics>,
    /// Always `None`; pinned for `perf/` (DESIGN.md §4.16).
    pub pipelined: Option<PipelineMetrics>,
    /// Abort-and-retry loop accounting. All-zero when the run
    /// configured no retry policy and nothing failed.
    pub retry: RetryMetrics,
    /// Ordering-policy counters when the run's effective
    /// [`crate::config::OrderingPolicy`] was not FIFO; `None` for FIFO
    /// runs.
    pub conflict_policy: Option<ConflictPolicyMetrics>,
}

/// Equality ignores the two pinned shells, [`RunMetrics::pipelined`]
/// and [`RunMetrics::decode_cache`]: no run fills either.
impl PartialEq for RunMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.channel == other.channel
            && self.records == other.records
            && self.end_time == other.end_time
            && self.blocks_committed == other.blocks_committed
            && self.events == other.events
            && self.dissemination == other.dissemination
            && self.ordering == other.ordering
            && self.adversary == other.adversary
            && self.retry == other.retry
            && self.conflict_policy == other.conflict_policy
    }
}

impl RunMetrics {
    /// Total submitted transactions.
    pub fn submitted(&self) -> usize {
        self.records.len()
    }

    /// Number of successful transactions (figure panel c).
    pub fn successful(&self) -> usize {
        self.records.iter().filter(|r| r.is_success()).count()
    }

    /// Number of failed transactions (any non-success code, plus
    /// transactions that never committed).
    pub fn failed(&self) -> usize {
        self.submitted() - self.successful()
    }

    /// Failures broken down by validation code.
    pub fn failures_with(&self, code: ValidationCode) -> usize {
        self.records.iter().filter(|r| r.code == Some(code)).count()
    }

    /// Throughput of successful transactions over the whole run
    /// (figure panel a), in transactions per second.
    pub fn successful_throughput_tps(&self) -> f64 {
        let span = self.end_time.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.successful() as f64 / span
    }

    /// Average submit-to-commit latency of successful transactions in
    /// seconds (figure panel b), or `None` when no transaction
    /// succeeded — a run where everything failed has *no* latency, and
    /// reporting it as a perfect 0.0 s corrupted aggregate tables.
    pub fn avg_latency_secs(&self) -> Option<f64> {
        self.latency_summary().mean()
    }

    /// Successful commits per time bucket — the throughput-over-time
    /// series (e.g. one bucket per simulated second).
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn throughput_series(&self, bucket: SimTime) -> TimeBuckets {
        let mut buckets = TimeBuckets::new(bucket);
        for record in &self.records {
            if record.is_success() {
                if let Some(at) = record.committed_at {
                    buckets.record(at);
                }
            }
        }
        buckets
    }

    /// Full latency distribution of successful transactions.
    pub fn latency_summary(&self) -> Summary {
        Summary::from_times(
            &self
                .records
                .iter()
                .filter_map(TxRecord::latency)
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(submit_ms: u64, commit_ms: Option<u64>, code: Option<ValidationCode>) -> TxRecord {
        TxRecord {
            submitted_at: SimTime::from_millis(submit_ms),
            committed_at: commit_ms.map(SimTime::from_millis),
            code,
        }
    }

    #[test]
    fn latency_only_for_successes() {
        let ok = record(100, Some(350), Some(ValidationCode::Valid));
        assert_eq!(ok.latency(), Some(SimTime::from_millis(250)));
        let failed = record(100, Some(350), Some(ValidationCode::MvccConflict));
        assert_eq!(failed.latency(), None);
        let pending = record(100, None, None);
        assert_eq!(pending.latency(), None);
    }

    #[test]
    fn run_metrics_aggregation() {
        let metrics = RunMetrics {
            channel: ChannelId::DEFAULT,
            records: vec![
                record(0, Some(100), Some(ValidationCode::Valid)),
                record(10, Some(100), Some(ValidationCode::MvccConflict)),
                record(20, Some(200), Some(ValidationCode::ValidMerged)),
                record(30, None, None),
            ],
            end_time: SimTime::from_secs(2),
            blocks_committed: 2,
            events: Vec::new(),
            dissemination: None,
            ordering: None,
            decode_cache: None,
            adversary: None,
            pipelined: None,
            retry: RetryMetrics::default(),
            conflict_policy: None,
        };
        assert_eq!(metrics.submitted(), 4);
        assert_eq!(metrics.successful(), 2);
        assert_eq!(metrics.failed(), 2);
        assert_eq!(metrics.failures_with(ValidationCode::MvccConflict), 1);
        assert!((metrics.successful_throughput_tps() - 1.0).abs() < 1e-9);
        // Latencies: 100ms and 180ms → mean 140ms.
        assert!((metrics.avg_latency_secs().unwrap() - 0.14).abs() < 1e-9);
    }

    #[test]
    fn throughput_series_buckets_successes() {
        let metrics = RunMetrics {
            channel: ChannelId::DEFAULT,
            records: vec![
                record(0, Some(500), Some(ValidationCode::Valid)),
                record(0, Some(800), Some(ValidationCode::ValidMerged)),
                record(0, Some(800), Some(ValidationCode::MvccConflict)), // not counted
                record(0, Some(1500), Some(ValidationCode::Valid)),
            ],
            end_time: SimTime::from_secs(2),
            blocks_committed: 2,
            events: Vec::new(),
            dissemination: None,
            ordering: None,
            decode_cache: None,
            adversary: None,
            pipelined: None,
            retry: RetryMetrics::default(),
            conflict_policy: None,
        };
        let series = metrics.throughput_series(SimTime::from_secs(1));
        assert_eq!(series.counts(), &[2, 1]);
    }

    #[test]
    fn dissemination_ratios_and_catch_up() {
        let d = DisseminationMetrics {
            propagation: vec![SimTime::from_millis(2), SimTime::from_millis(4)],
            messages_sent: 10,
            redundant_messages: 3,
            messages_dropped: 2,
            messages_duplicated: 1,
            anti_entropy_transfers: 1,
            anti_entropy_blocks: 4,
            catch_up: vec![
                CatchUpEpisode {
                    peer: 1,
                    from: SimTime::from_secs(1),
                    bytes_shipped: 4096,
                    outcome: CatchUpOutcome::Replay {
                        caught_up_at: SimTime::from_secs(3),
                    },
                },
                CatchUpEpisode {
                    peer: 2,
                    from: SimTime::from_secs(1),
                    bytes_shipped: 1024,
                    outcome: CatchUpOutcome::Snapshot {
                        caught_up_at: SimTime::from_secs(2),
                        snapshot_bytes: 900,
                    },
                },
                // Abandoned long after the others started: must not win
                // worst_catch_up even though its span is the longest.
                CatchUpEpisode {
                    peer: 3,
                    from: SimTime::from_secs(1),
                    bytes_shipped: 0,
                    outcome: CatchUpOutcome::Abandoned {
                        at: SimTime::from_secs(9),
                    },
                },
            ],
            ..DisseminationMetrics::default()
        };
        // 10 sent − 2 dropped + 1 duplicate = 9 received, 3 redundant.
        assert!((d.redundancy_ratio() - 3.0 / 9.0).abs() < 1e-9);
        let worst = d.worst_catch_up().unwrap();
        assert_eq!(worst.peer, 1);
        assert_eq!(worst.duration(), SimTime::from_secs(2));
        assert_eq!(worst.completed_at(), Some(SimTime::from_secs(3)));
        assert!(!worst.used_snapshot());
        assert!(d.catch_up[1].used_snapshot());
        assert!(d.catch_up[2].is_abandoned());
        assert_eq!(d.catch_up[2].completed_at(), None);
        assert_eq!(d.catch_up[2].duration(), SimTime::from_secs(8));
        assert!((d.propagation_summary().mean().unwrap() - 0.003).abs() < 1e-9);
        assert_eq!(DisseminationMetrics::default().redundancy_ratio(), 0.0);
        assert!(DisseminationMetrics::default().worst_catch_up().is_none());
    }

    #[test]
    fn redundancy_ratio_survives_excess_drops() {
        // Regression: a lossy-link schedule can report more drops than
        // `sent + duplicated` (e.g. duplicated copies dropped without
        // being re-counted as sent). The old unchecked subtraction
        // underflowed u64 and produced a ratio of ~0 over 2^64.
        let d = DisseminationMetrics {
            messages_sent: 3,
            messages_duplicated: 1,
            messages_dropped: 7,
            redundant_messages: 2,
            ..DisseminationMetrics::default()
        };
        assert_eq!(d.redundancy_ratio(), 0.0);
    }

    #[test]
    fn ordering_metrics_percentiles() {
        let o = OrderingMetrics {
            elections_started: 3,
            leader_changes: 1,
            final_term: 2,
            commit_latency: vec![SimTime::from_millis(2), SimTime::from_millis(6)],
            submission_retries: 4,
            messages_sent: 100,
            messages_dropped: 5,
        };
        let summary = o.commit_latency_summary();
        assert_eq!(summary.count(), 2);
        assert!((summary.mean().unwrap() - 0.004).abs() < 1e-9);
        assert_eq!(
            OrderingMetrics::default().commit_latency_summary().count(),
            0
        );
    }

    #[test]
    fn run_metrics_equality_ignores_decode_cache() {
        let mut a = RunMetrics::default();
        let b = RunMetrics::default();
        a.decode_cache = Some(DecodeCacheMetrics {
            hits: 10,
            misses: 2,
            evictions: 1,
        });
        assert_eq!(
            a, b,
            "scheduling-dependent cache counters must not break equality"
        );
        a.pipelined = Some(PipelineMetrics {
            blocks_overlapped: 7,
            ..PipelineMetrics::default()
        });
        assert_eq!(
            a, b,
            "the pinned pipelined shell must not break equality either"
        );
        a.blocks_committed = 1;
        assert_ne!(a, b);
    }

    #[test]
    fn adversary_metrics_participate_in_equality() {
        // Detection is deterministic, so unlike the decode cache the
        // adversary counters must break equality when they differ.
        let mut a = RunMetrics::default();
        let b = RunMetrics::default();
        a.adversary = Some(AdversaryMetrics {
            tampered_rejected: 2,
            forged_rejected: 1,
            ..AdversaryMetrics::default()
        });
        assert_ne!(a, b);
        assert_eq!(a.adversary.unwrap().rejected_blocks(), 3);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let metrics = RunMetrics::default();
        assert_eq!(metrics.successful(), 0);
        assert_eq!(metrics.successful_throughput_tps(), 0.0);
        // A run with no successes has no latency at all — not 0.0 s.
        assert_eq!(metrics.avg_latency_secs(), None);
    }
}
