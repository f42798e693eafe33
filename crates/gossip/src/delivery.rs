//! Plugging the gossip network into the transaction pipeline.
//!
//! [`GossipDelivery`] implements the pipeline's [`DeliveryLayer`] over
//! a [`GossipNetwork`] it owns: every block the orderer cuts is
//! published into the network and becomes available to the pipeline's
//! committing peer once the network's *observed* replica
//! ([`GossipNetwork::observed`]) has committed it.
//! Commit latency measured by the pipeline then includes real
//! dissemination time — and, under fault injection, the cost of drops,
//! crashes, and partitions. A single-channel pipeline owns a
//! [`GossipNetwork::new`] network; a multi-channel deployment hands
//! each channel's pipeline its own network of
//! [`GossipNetwork::new_multi`].
//!
//! To stay comparable with the default
//! [`IdealFifoDelivery`](fabriccrdt_fabric::simulation::IdealFifoDelivery),
//! `deliver` draws exactly one [`ORDERER_TO_PEER`] sample from the
//! pipeline PRNG per block (used as the orderer→leader hop), keeping
//! the pipeline's draw sequence — and therefore its block stream —
//! identical between the two layers; all gossip-internal randomness
//! comes from a seed fork inside the network.

use fabriccrdt_fabric::latency::{LatencyConfig, ORDERER_TO_PEER};
use fabriccrdt_fabric::metrics::{AdversaryMetrics, DisseminationMetrics};
use fabriccrdt_fabric::simulation::DeliveryLayer;
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

use crate::network::GossipNetwork;

/// A [`DeliveryLayer`] that routes every orderer-cut block through a
/// simulated gossip network before the committing peer sees it. The
/// layer owns its network, so a pipeline and its replicas move between
/// threads together; the deployment that built the pipeline reads the
/// replicas back through [`GossipDelivery::network`].
pub struct GossipDelivery<V> {
    network: GossipNetwork<V>,
}

impl<V: BlockValidator> GossipDelivery<V> {
    /// Builds the layer over `network`. Build the network's replicas
    /// with the same validator strategy as the pipeline's committing
    /// peer so all replicas agree.
    pub fn new(network: GossipNetwork<V>) -> Self {
        GossipDelivery { network }
    }

    /// The network: replicas, metrics and clock.
    pub fn network(&self) -> &GossipNetwork<V> {
        &self.network
    }
}

impl<V: BlockValidator> DeliveryLayer for GossipDelivery<V> {
    fn deliver(
        &mut self,
        now: SimTime,
        block: &Block,
        _latency: &LatencyConfig,
        rng: &mut SimRng,
    ) -> SimTime {
        // One draw, exactly like IdealFifoDelivery, so the pipeline's
        // PRNG sequence (and with it every later endorsement/ordering
        // sample) is unchanged by switching delivery layers.
        let hop = ORDERER_TO_PEER.sample(rng);
        // `DeliveryLayer::deliver` lends `&Block`: this clone, which
        // shares the transactions, becomes the network's one allocation.
        self.network.publish_with_hop(now, hop, block.clone());
        let observed = self.network.observed();
        self.network
            .run_until_committed(observed, block.header.number)
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
