//! Multi-channel sharding: channel identities, per-channel pipeline
//! configuration, cross-channel transfer records, and per-channel
//! metric rollups.
//!
//! Hyperledger Fabric's stated path to horizontal scale is running
//! many independent *channels*, each with its own ordering service,
//! world state and ledger (Androulaki et al. §3.3); peers join the
//! channels whose chaincodes they host and gossip within each channel
//! separately over one shared network. This module is the
//! configuration layer of the repository's channel subsystem:
//!
//! - [`ChannelId`] names a channel and is threaded through
//!   [`PipelineConfig`], [`RunMetrics`],
//!   [`Peer`](crate::peer::Peer) and durable-storage file naming, so
//!   every artifact a run produces is attributable to its channel.
//! - [`ChannelSpec`] + [`MultiChannelConfig`] describe an N-channel
//!   deployment over one base [`PipelineConfig`]: per-channel peer
//!   membership, an optional per-channel Raft-ordering override, and a
//!   deterministic per-channel seed derivation under which channel 0
//!   reproduces the single-channel seed pipeline bit-for-bit.
//! - [`TransferSpec`] / [`TransferReport`] describe the two-phase
//!   cross-channel key handoff (prepare on the source channel, commit
//!   or abort on the destination, reconciled at finalize) that the
//!   `fabriccrdt-channel` driver crate orchestrates.
//! - [`ChannelRunMetrics`] / [`MultiChannelMetrics`] roll up one
//!   [`RunMetrics`] per channel into
//!   aggregate throughput over the whole sharded deployment.

use std::fmt;

use fabriccrdt_sim::time::SimTime;

use crate::config::{PipelineConfig, RaftConfig};
use crate::metrics::RunMetrics;

/// Identifies one channel of a multi-channel deployment.
///
/// Channel ids are dense small integers (the index into
/// [`MultiChannelConfig::channels`]); [`ChannelId::DEFAULT`] is the
/// channel every single-channel run lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The channel single-channel runs (and channel 0 of multi-channel
    /// runs) live on.
    pub const DEFAULT: ChannelId = ChannelId(0);
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Golden-ratio multiplier used to derive per-channel seeds; the same
/// constant `SimRng` mixes fork labels with.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// One channel of a [`MultiChannelConfig`]: its membership and the
/// ordering override applied on top of the base pipeline config. Its
/// [`ChannelId`] is also its name (`ch0`, `ch1`, …).
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// The channel's identity (its index in the deployment).
    pub id: ChannelId,
    /// Global peer indices (into the flattened `org * peers_per_org +
    /// peer` numbering) that are members of this channel, sorted
    /// ascending. Every org must keep at least one member so
    /// endorsement policies remain satisfiable.
    pub members: Vec<usize>,
    /// Raft-ordering override for this channel; `None` inherits the
    /// base config's ordering backend (single orderer unless the base
    /// itself configures Raft).
    pub ordering: Option<RaftConfig>,
}

impl ChannelSpec {
    /// A channel with full peer membership and no ordering override.
    pub fn full(id: ChannelId, topology_peers: usize) -> Self {
        ChannelSpec {
            id,
            members: (0..topology_peers).collect(),
            ordering: None,
        }
    }
}

/// An N-channel deployment: one base [`PipelineConfig`] plus one
/// [`ChannelSpec`] per channel. All channels share the base topology,
/// latency models and fault schedule; each gets its own orderer, world
/// state, ledger and deterministic seed lane.
#[derive(Debug, Clone)]
pub struct MultiChannelConfig {
    /// Shared topology, latency, fault and storage configuration.
    /// `base.seed` is channel 0's seed and the root of every derived
    /// channel seed.
    pub base: PipelineConfig,
    /// The channels, in [`ChannelId`] order.
    pub channels: Vec<ChannelSpec>,
}

impl MultiChannelConfig {
    /// `n` channels over `base`, each with full peer membership and no
    /// ordering override.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn uniform(base: PipelineConfig, n: usize) -> Self {
        assert!(n > 0, "a deployment needs at least one channel");
        let peers = base.topology.total_peers();
        let channels = (0..n)
            .map(|c| ChannelSpec::full(ChannelId(c as u32), peers))
            .collect();
        let config = MultiChannelConfig { base, channels };
        config.validate();
        config
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The seed channel `index` runs under. Channel 0 uses the base
    /// seed unchanged — that identity is what makes a 1-channel run
    /// reproduce the single-channel pipeline bit-for-bit — and later
    /// channels mix in their index with the golden-ratio constant.
    pub fn channel_seed(&self, index: usize) -> u64 {
        self.base.seed ^ SEED_MIX.wrapping_mul(index as u64)
    }

    /// The effective [`PipelineConfig`] for channel `index`: the base
    /// with the channel's seed, id and ordering override applied.
    pub fn pipeline_for(&self, index: usize) -> PipelineConfig {
        let spec = &self.channels[index];
        let mut config = self.base.clone();
        config.seed = self.channel_seed(index);
        config.channel = spec.id;
        if let Some(raft) = &spec.ordering {
            config.ordering = Some(raft.clone());
        }
        config
    }

    /// Checks the deployment is well-formed.
    ///
    /// # Panics
    ///
    /// Panics when a channel's id does not match its position, its
    /// membership is empty, unsorted, duplicated or out of range, or an
    /// org has no member.
    pub fn validate(&self) {
        assert!(!self.channels.is_empty(), "at least one channel");
        let peers = self.base.topology.total_peers();
        let ppo = self.base.topology.peers_per_org;
        for (index, spec) in self.channels.iter().enumerate() {
            assert_eq!(
                spec.id,
                ChannelId(index as u32),
                "channel ids are positional"
            );
            assert!(!spec.members.is_empty(), "{}: empty membership", spec.id);
            assert!(
                spec.members.windows(2).all(|w| w[0] < w[1]),
                "{}: membership must be sorted and unique",
                spec.id
            );
            assert!(
                spec.members.iter().all(|&m| m < peers),
                "{}: member out of range",
                spec.id
            );
            for org in 0..self.base.topology.orgs {
                assert!(
                    spec.members.iter().any(|&m| m / ppo == org),
                    "{}: org {org} has no member",
                    spec.id
                );
            }
        }
    }
}

// --------------------------------------------------------- transfers

/// Identifies one cross-channel transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(pub u64);

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xfer-{}", self.0)
    }
}

/// Namespace prefix of every transfer-protocol record key.
pub const TRANSFER_NS: &str = "__xfer";

impl TransferId {
    /// Key of the prepare record escrowing the value on the source
    /// channel.
    pub fn prepare_key(&self) -> String {
        format!("{TRANSFER_NS}/{}/prepare", self.0)
    }

    /// Key of the commit record on the destination channel.
    pub fn commit_key(&self) -> String {
        format!("{TRANSFER_NS}/{}/commit", self.0)
    }

    /// Key of the abort record written back on the source channel when
    /// the destination commit fails.
    pub fn abort_key(&self) -> String {
        format!("{TRANSFER_NS}/{}/abort", self.0)
    }
}

/// A requested cross-channel key handoff.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    /// The key to move. Its committed value on the source channel is
    /// escrowed by the prepare phase and re-created on the destination
    /// by the commit phase.
    pub key: String,
    /// Source channel (must currently hold the key).
    pub from: ChannelId,
    /// Destination channel.
    pub to: ChannelId,
    /// When set, the destination commit transaction is submitted with
    /// a corrupted endorsement so it fails validation — exercising the
    /// abort path (the key must come back on the source channel).
    pub inject_failure: bool,
    /// When set, the destination channel's endorsers are modeled as
    /// crashed between prepare and commit: the commit transaction is
    /// never submitted at all, so finalize finds no commit record and
    /// aborts the transfer — the escrow is released back on the source
    /// with no duplicate value anywhere.
    pub destination_down: bool,
}

/// How a transfer ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The destination commit validated; the key now lives on the
    /// destination channel.
    Committed,
    /// The prepare or destination commit failed; the key lives on the
    /// source channel (restored by the abort record if it was
    /// escrowed).
    Aborted,
}

/// The reconciled result of one transfer, produced at finalize.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// The transfer's identity.
    pub id: TransferId,
    /// The key that moved (or stayed).
    pub key: String,
    /// Source channel.
    pub from: ChannelId,
    /// Destination channel.
    pub to: ChannelId,
    /// How the handoff ended.
    pub outcome: TransferOutcome,
}

// ----------------------------------------------------------- rollups

/// One channel's metrics within a multi-channel run.
#[derive(Debug, Clone)]
pub struct ChannelRunMetrics {
    /// Which channel these metrics belong to.
    pub channel: ChannelId,
    /// The channel pipeline's run metrics.
    pub metrics: RunMetrics,
}

/// Per-channel [`RunMetrics`] rolled up across a sharded deployment.
///
/// Channels progress concurrently in simulated time (each is an
/// independent pipeline over the shared network), so the deployment's
/// aggregate throughput is total successful transactions over the
/// *slowest* channel's makespan — the same wall-clock convention a
/// multi-channel Fabric benchmark uses.
#[derive(Debug, Clone, Default)]
pub struct MultiChannelMetrics {
    /// One entry per channel, in [`ChannelId`] order.
    pub channels: Vec<ChannelRunMetrics>,
}

impl MultiChannelMetrics {
    /// Total transactions submitted across all channels.
    pub fn total_submitted(&self) -> usize {
        self.channels.iter().map(|c| c.metrics.submitted()).sum()
    }

    /// Total successful transactions across all channels.
    pub fn total_successful(&self) -> usize {
        self.channels.iter().map(|c| c.metrics.successful()).sum()
    }

    /// The deployment makespan: the latest per-channel end time.
    pub fn end_time(&self) -> SimTime {
        self.channels
            .iter()
            .map(|c| c.metrics.end_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Aggregate successful throughput: total successes over the
    /// slowest channel's makespan (0.0 for an empty or zero-length
    /// run).
    pub fn aggregate_tps(&self) -> f64 {
        let span = self.end_time().as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.total_successful() as f64 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_zero_seed_is_the_base_seed() {
        let config = MultiChannelConfig::uniform(PipelineConfig::paper(25, 42), 3);
        assert_eq!(config.channel_seed(0), 42);
        assert_ne!(config.channel_seed(1), 42);
        assert_ne!(config.channel_seed(1), config.channel_seed(2));
        let p0 = config.pipeline_for(0);
        assert_eq!(p0.seed, 42);
        assert_eq!(p0.channel, ChannelId::DEFAULT);
        let p2 = config.pipeline_for(2);
        assert_eq!(p2.channel, ChannelId(2));
        assert_eq!(p2.seed, config.channel_seed(2));
    }

    #[test]
    fn transfer_keys_are_namespaced_per_transfer() {
        let id = TransferId(7);
        assert_eq!(id.prepare_key(), "__xfer/7/prepare");
        assert_eq!(id.commit_key(), "__xfer/7/commit");
        assert_eq!(id.abort_key(), "__xfer/7/abort");
        assert_eq!(id.to_string(), "xfer-7");
    }

    #[test]
    #[should_panic(expected = "org 2 has no member")]
    fn membership_must_cover_every_org() {
        let base = PipelineConfig::paper(25, 1);
        let mut config = MultiChannelConfig::uniform(base, 1);
        // Drop org 2's peers (global indices 4 and 5 in the 3x2 paper
        // topology) from the only channel.
        config.channels[0].members.retain(|&m| m < 4);
        config.validate();
    }

    #[test]
    fn aggregate_tps_uses_slowest_channel_makespan() {
        use crate::metrics::TxRecord;
        let success = |at_ms: u64| TxRecord {
            submitted_at: SimTime::ZERO,
            committed_at: Some(SimTime::from_millis(at_ms)),
            code: Some(fabriccrdt_ledger::block::ValidationCode::Valid),
        };
        let mk = |channel: u32, end_secs: u64, successes: usize| ChannelRunMetrics {
            channel: ChannelId(channel),
            metrics: RunMetrics {
                records: (0..successes).map(|_| success(10)).collect(),
                end_time: SimTime::from_secs(end_secs),
                ..RunMetrics::default()
            },
        };
        let rollup = MultiChannelMetrics {
            channels: vec![mk(0, 2, 10), mk(1, 4, 30)],
        };
        assert_eq!(rollup.total_submitted(), 40);
        assert_eq!(rollup.total_successful(), 40);
        assert_eq!(rollup.end_time(), SimTime::from_secs(4));
        assert!((rollup.aggregate_tps() - 10.0).abs() < 1e-9);
        assert_eq!(MultiChannelMetrics::default().aggregate_tps(), 0.0);
    }
}
