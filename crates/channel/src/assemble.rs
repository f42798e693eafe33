//! The one front door: a [`Simulation`] over exactly the layers its
//! [`PipelineConfig`] names.
//!
//! The delivery and ordering seams live in crates that cannot see each
//! other (`fabriccrdt-gossip`, `fabriccrdt-ordering`); this crate is the
//! first that sees both, so the selection is written here once and
//! shared with [`MultiChannelNetwork`](crate::MultiChannelNetwork).

use std::cell::RefCell;
use std::rc::Rc;

use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::PipelineConfig;
use fabriccrdt_fabric::simulation::{
    DeliveryLayer, IdealFifoDelivery, OrderingBackend, Simulation, SingleOrderer,
};
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_gossip::{GossipDelivery, GossipNetwork};
use fabriccrdt_ordering::RaftOrderingBackend;

/// The ordering backend `config` asks for: the Raft cluster iff
/// [`PipelineConfig::ordering`] is set, else the single in-process
/// orderer.
pub(crate) fn ordering_backend(config: &PipelineConfig) -> Box<dyn OrderingBackend> {
    if config.ordering.is_some() {
        Box::new(RaftOrderingBackend::new(config))
    } else {
        Box::new(SingleOrderer::from_config(config))
    }
}

/// Builds the pipeline `config` describes, honouring every field of it:
/// gossip dissemination (with the configured faults, storage and
/// adversary) iff [`PipelineConfig::gossip`] is set, else ideal FIFO
/// delivery; Raft ordering iff [`PipelineConfig::ordering`] is set,
/// else the single orderer. `make_validator` picks the system —
/// `CrdtValidator::new` for FabricCRDT, `FabricValidator::new` for
/// Fabric — and also builds the gossip replicas' validators, so every
/// replica agrees with the committing peer.
///
/// # Examples
///
/// ```
/// use fabriccrdt::CrdtValidator;
/// use fabriccrdt_channel::assemble;
/// use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
/// use fabriccrdt_fabric::config::PipelineConfig;
///
/// let config = PipelineConfig::paper(25, 42)
///     .with_gossip()
///     .with_raft_ordering();
/// let mut sim = assemble(config, ChaincodeRegistry::new(), CrdtValidator::new);
/// let metrics = sim.run(vec![]);
/// assert!(metrics.dissemination.is_some() && metrics.ordering.is_some());
/// ```
pub fn assemble<V: BlockValidator>(
    config: PipelineConfig,
    registry: ChaincodeRegistry,
    make_validator: impl Fn() -> V + 'static,
) -> Simulation<V> {
    let validator = make_validator();
    let ordering = ordering_backend(&config);
    let delivery: Box<dyn DeliveryLayer> = if config.gossip.is_some() {
        let network = GossipNetwork::new(&config, make_validator);
        Box::new(GossipDelivery::new(Rc::new(RefCell::new(network)), 0))
    } else {
        Box::new(IdealFifoDelivery::new())
    };
    Simulation::with_layers(config, validator, registry, delivery, ordering)
}
