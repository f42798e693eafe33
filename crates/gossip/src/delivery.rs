//! Plugging the gossip network into the transaction pipeline.
//!
//! [`GossipDelivery`] implements the pipeline's
//! [`DeliveryLayer`]:
//! every block the orderer cuts is published into an internal
//! [`GossipNetwork`] and becomes available to the pipeline's committing
//! peer once the *observed* replica (default: the last follower, the
//! farthest from the orderer) has committed it. Commit latency measured
//! by the pipeline then includes real dissemination time — and, under
//! fault injection, the cost of drops, crashes, and partitions.
//!
//! To stay comparable with the default
//! [`IdealFifoDelivery`](fabriccrdt_fabric::simulation::IdealFifoDelivery),
//! `deliver` draws exactly one `orderer_to_peer` sample from the
//! pipeline PRNG per block (used as the orderer→leader hop), keeping
//! the pipeline's draw sequence — and therefore its block stream —
//! identical between the two layers; all gossip-internal randomness
//! comes from a seed fork inside the network.

use std::cell::RefCell;
use std::rc::Rc;

use fabriccrdt_fabric::config::{GossipConfig, PipelineConfig};
use fabriccrdt_fabric::latency::LatencyConfig;
use fabriccrdt_fabric::metrics::{AdversaryMetrics, DisseminationMetrics};
use fabriccrdt_fabric::simulation::DeliveryLayer;
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

use crate::network::GossipNetwork;

/// A [`DeliveryLayer`] that routes every orderer-cut block through a
/// simulated gossip network before the committing peer sees it.
pub struct GossipDelivery<V> {
    network: GossipNetwork<V>,
    observed: usize,
    last: SimTime,
}

impl<V: BlockValidator> GossipDelivery<V> {
    /// Builds the layer from the pipeline configuration (gossip
    /// parameters, fault schedule, seed). `make_validator` constructs
    /// the validator for each gossip replica — use the same strategy as
    /// the pipeline's committing peer so all replicas agree.
    pub fn new(config: &PipelineConfig, make_validator: impl Fn() -> V + 'static) -> Self {
        let observed = config
            .gossip
            .clone()
            .unwrap_or_else(|| GossipConfig::calibrated(&config.topology))
            .observed_peer;
        GossipDelivery {
            network: GossipNetwork::new(config, make_validator),
            observed,
            last: SimTime::ZERO,
        }
    }

    /// The underlying gossip network (peer replicas, metrics, clock).
    pub fn network(&self) -> &GossipNetwork<V> {
        &self.network
    }
}

impl<V: BlockValidator> DeliveryLayer for GossipDelivery<V> {
    fn deliver(
        &mut self,
        now: SimTime,
        block: &Block,
        latency: &LatencyConfig,
        rng: &mut SimRng,
    ) -> SimTime {
        // One draw, exactly like IdealFifoDelivery, so the pipeline's
        // PRNG sequence (and with it every later endorsement/ordering
        // sample) is unchanged by switching delivery layers.
        let hop = latency.orderer_to_peer.sample(rng);
        self.network.publish_with_hop(now, hop, block.clone());
        let committed_at = self
            .network
            .run_until_committed(self.observed, block.header.number);
        let at = committed_at.max(self.last);
        self.last = at;
        at
    }

    fn seed_state(&mut self, key: &str, value: &[u8]) {
        self.network.seed_state(key, value);
    }

    fn take_dissemination(&mut self) -> Option<DisseminationMetrics> {
        // Let fault windows close and stragglers catch up so the
        // metrics include complete catch-up episodes.
        self.network.drain();
        Some(self.network.take_metrics())
    }

    fn take_adversary(&mut self) -> Option<AdversaryMetrics> {
        self.network.drain();
        self.network.take_adversary()
    }
}

/// A [`DeliveryLayer`] giving one channel's pipeline a view onto a
/// *shared* multi-channel [`GossipNetwork`]: every channel's
/// simulation holds its own `ChannelDelivery` over the same network
/// (via `Rc<RefCell<..>>`), so per-peer fault schedules apply across
/// channels deterministically while each lane keeps its own event
/// queue, clock, and PRNG stream.
///
/// `deliver` draws one `orderer_to_peer` sample from the *pipeline's*
/// PRNG per block, exactly like [`GossipDelivery`] — so a 1-channel
/// deployment is draw-for-draw identical to the single-channel layer.
/// `take_dissemination` drains only this channel's lane: sibling
/// channels may still be publishing.
pub struct ChannelDelivery<V> {
    network: Rc<RefCell<GossipNetwork<V>>>,
    /// Lane index of this channel in the shared network.
    channel: usize,
    /// Global index of the channel's observed replica.
    observed: usize,
    last: SimTime,
}

impl<V: BlockValidator> ChannelDelivery<V> {
    /// Builds the layer for lane `channel` of a shared network (as
    /// built by [`GossipNetwork::new_multi`]; lane order follows the
    /// deployment's channel order).
    pub fn new(network: Rc<RefCell<GossipNetwork<V>>>, channel: usize) -> Self {
        let observed = network.borrow().observed_on(channel);
        ChannelDelivery {
            network,
            channel,
            observed,
            last: SimTime::ZERO,
        }
    }

    /// Overrides the observed replica (a global peer index that must
    /// be a member of the channel) — e.g. a
    /// [`ChannelSpec`](fabriccrdt_fabric::channel::ChannelSpec)'s
    /// per-channel `observed_peer` override.
    pub fn with_observed(mut self, observed: usize) -> Self {
        self.observed = observed;
        self
    }
}

impl<V: BlockValidator> DeliveryLayer for ChannelDelivery<V> {
    fn deliver(
        &mut self,
        now: SimTime,
        block: &Block,
        latency: &LatencyConfig,
        rng: &mut SimRng,
    ) -> SimTime {
        let hop = latency.orderer_to_peer.sample(rng);
        let mut network = self.network.borrow_mut();
        network.publish_with_hop_on(self.channel, now, hop, block.clone());
        let committed_at =
            network.run_until_committed_on(self.channel, self.observed, block.header.number);
        let at = committed_at.max(self.last);
        self.last = at;
        at
    }

    fn seed_state(&mut self, key: &str, value: &[u8]) {
        self.network
            .borrow_mut()
            .seed_state_on(self.channel, key, value);
    }

    fn take_dissemination(&mut self) -> Option<DisseminationMetrics> {
        let mut network = self.network.borrow_mut();
        network.drain_on(self.channel);
        Some(network.take_metrics_on(self.channel))
    }

    fn take_adversary(&mut self) -> Option<AdversaryMetrics> {
        let mut network = self.network.borrow_mut();
        network.drain_on(self.channel);
        network.take_adversary_on(self.channel)
    }
}
