//! Plugging the gossip network into the transaction pipeline.
//!
//! [`GossipDelivery`] implements the pipeline's [`DeliveryLayer`] over
//! one lane of a shared [`GossipNetwork`]: every block the orderer cuts
//! is published into the lane and becomes available to the pipeline's
//! committing peer once the lane's *observed* replica
//! ([`GossipNetwork::observed_on`]) has committed it.
//! Commit latency measured by the pipeline then includes real
//! dissemination time — and, under fault injection, the cost of drops,
//! crashes, and partitions. A single-channel pipeline is lane 0 of a
//! [`GossipNetwork::new`] network; a multi-channel deployment hands
//! each channel's pipeline its own lane of one
//! [`GossipNetwork::new_multi`] network.
//!
//! To stay comparable with the default
//! [`IdealFifoDelivery`](fabriccrdt_fabric::simulation::IdealFifoDelivery),
//! `deliver` draws exactly one [`ORDERER_TO_PEER`] sample from the
//! pipeline PRNG per block (used as the orderer→leader hop), keeping
//! the pipeline's draw sequence — and therefore its block stream —
//! identical between the two layers; all gossip-internal randomness
//! comes from a seed fork inside the network.

use std::cell::RefCell;
use std::rc::Rc;

use fabriccrdt_fabric::latency::{LatencyConfig, ORDERER_TO_PEER};
use fabriccrdt_fabric::metrics::{AdversaryMetrics, DisseminationMetrics};
use fabriccrdt_fabric::simulation::DeliveryLayer;
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

use crate::network::GossipNetwork;

/// A [`DeliveryLayer`] that routes every orderer-cut block through one
/// lane of a simulated gossip network before the committing peer sees
/// it. The network is shared (`Rc<RefCell<..>>`): every channel's
/// simulation holds its own `GossipDelivery` over the same network, so
/// per-peer fault schedules apply across channels deterministically
/// while each lane keeps its own event queue, clock, and PRNG stream —
/// and the caller keeps a handle to inspect replicas after the run.
///
/// `take_dissemination` drains only this lane: sibling channels may
/// still be publishing.
pub struct GossipDelivery<V> {
    network: Rc<RefCell<GossipNetwork<V>>>,
    /// Lane index of this channel in the shared network.
    channel: usize,
    /// Global index of the channel's observed replica.
    observed: usize,
}

impl<V: BlockValidator> GossipDelivery<V> {
    /// Builds the layer for lane `channel` of a shared network (lane 0
    /// of a [`GossipNetwork::new`] network for a single-channel
    /// pipeline; for [`GossipNetwork::new_multi`], lane order follows
    /// the deployment's channel order). Build the network's replicas
    /// with the same validator strategy as the pipeline's committing
    /// peer so all replicas agree.
    pub fn new(network: Rc<RefCell<GossipNetwork<V>>>, channel: usize) -> Self {
        let observed = network.borrow().observed_on(channel);
        GossipDelivery {
            network,
            channel,
            observed,
        }
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
        let mut network = self.network.borrow_mut();
        // `DeliveryLayer::deliver` lends `&Block`: this clone, which
        // shares the transactions, becomes the lane's one allocation.
        network.publish_with_hop_on(self.channel, now, hop, block.clone());
        network.run_until_committed_on(self.channel, self.observed, block.header.number)
    }

    fn seed_state(&mut self, key: &str, value: &[u8]) {
        self.network
            .borrow_mut()
            .seed_state_on(self.channel, key, value);
    }

    fn take_dissemination(&mut self) -> Option<DisseminationMetrics> {
        // Let fault windows close and stragglers catch up so the
        // metrics include complete catch-up episodes.
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
