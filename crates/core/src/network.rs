//! Constructors for the paper's two systems.
//!
//! The paper's experiments run the *same* workload against a FabricCRDT
//! network and a vanilla Fabric network (§7.2: identical topology, only
//! the commit path differs). These helpers build both from one
//! configuration over the ideal FIFO delivery and single orderer the
//! paper figures use; `fabriccrdt_channel::assemble` builds either
//! system over whatever gossip / Raft layers the configuration names.

use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::PipelineConfig;
use fabriccrdt_fabric::simulation::Simulation;
use fabriccrdt_fabric::validator::FabricValidator;

use crate::validator::CrdtValidator;

/// Builds a FabricCRDT network: the full EOV pipeline with the merging
/// validator of Algorithm 1.
///
/// # Examples
///
/// ```
/// use fabriccrdt::fabriccrdt_simulation;
/// use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
/// use fabriccrdt_fabric::config::PipelineConfig;
///
/// let mut sim = fabriccrdt_simulation(
///     PipelineConfig::paper(25, 42),
///     ChaincodeRegistry::new(),
/// );
/// let metrics = sim.run(vec![]);
/// assert_eq!(metrics.submitted(), 0);
/// ```
pub fn fabriccrdt_simulation(
    config: PipelineConfig,
    registry: ChaincodeRegistry,
) -> Simulation<CrdtValidator> {
    Simulation::new(config, CrdtValidator::new(), registry)
}

/// Builds a vanilla Fabric network: the same pipeline with plain MVCC
/// validation — the paper's baseline.
pub fn fabric_simulation(
    config: PipelineConfig,
    registry: ChaincodeRegistry,
) -> Simulation<FabricValidator> {
    Simulation::new(config, FabricValidator::new(), registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeStub};
    use fabriccrdt_fabric::simulation::TxRequest;
    use fabriccrdt_sim::time::SimTime;
    use std::sync::Arc;

    /// CRDT read-modify-write chaincode used by both networks.
    struct CrdtRmw;

    impl Chaincode for CrdtRmw {
        fn name(&self) -> &str {
            "crdt-rmw"
        }

        fn invoke(
            &self,
            stub: &mut ChaincodeStub<'_>,
            args: &[String],
        ) -> Result<(), ChaincodeError> {
            stub.get_state(&args[0]);
            stub.put_crdt(&args[0], args[1].clone().into_bytes());
            Ok(())
        }
    }

    fn registry() -> ChaincodeRegistry {
        let mut reg = ChaincodeRegistry::new();
        reg.deploy(Arc::new(CrdtRmw));
        reg
    }

    fn schedule(n: usize) -> Vec<(SimTime, TxRequest)> {
        (0..n)
            .map(|i| {
                (
                    SimTime::from_secs_f64(i as f64 / 300.0),
                    TxRequest::new(
                        "crdt-rmw",
                        vec!["hot".into(), format!(r#"{{"readings":["r{i}"]}}"#)],
                    ),
                )
            })
            .collect()
    }

    /// The paper's headline comparison: under an all-conflicting CRDT
    /// workload, FabricCRDT commits everything, Fabric rejects most.
    #[test]
    fn fabriccrdt_commits_all_fabric_rejects_most() {
        let seed_doc = br#"{"readings":[]}"#.to_vec();

        let mut crdt_sim = fabriccrdt_simulation(PipelineConfig::paper(25, 42), registry());
        crdt_sim.seed_state("hot", seed_doc.clone());
        let crdt_metrics = crdt_sim.run(schedule(300));

        let mut fabric_sim = fabric_simulation(PipelineConfig::paper(400, 42), registry());
        fabric_sim.seed_state("hot", seed_doc);
        let fabric_metrics = fabric_sim.run(schedule(300));

        assert_eq!(crdt_metrics.successful(), 300, "FabricCRDT: no failures");
        assert!(
            fabric_metrics.successful() < 60,
            "Fabric commits only a few: {}",
            fabric_metrics.successful()
        );
        assert!(
            crdt_metrics.successful_throughput_tps()
                > fabric_metrics.successful_throughput_tps() * 3.0
        );
    }
}
