//! Calibrated latency models for the pipeline hops.
//!
//! The paper's testbed (§7.2) is a Kubernetes cluster on 10 GbE with
//! CouchDB state databases and a Kafka ordering service. The reproduction
//! replaces wall-clock behaviour with sampled network latencies plus a
//! deterministic compute-cost model ([`crate::cost::CostModel`]). The
//! constants below are calibrated so that the simulated systems land in
//! the paper's operating regime:
//!
//! - FabricCRDT saturates at ≈250–280 successful tx/s with 25-tx blocks
//!   (paper: 267 tx/s, §7.3),
//! - vanilla Fabric's validation capacity favours larger blocks (the
//!   paper fixes 400 tx/block as Fabric's best configuration),
//! - end-to-end commit latency is "on the order of hundreds of
//!   milliseconds to seconds" (§1) before queueing sets in.
//!
//! Absolute numbers are not expected to match the authors' testbed; the
//! shapes of Figures 3–7 are (see DESIGN.md §1 and EXPERIMENTS.md).

use fabriccrdt_sim::latency::LatencyModel;
use fabriccrdt_sim::time::SimTime;

use crate::cost::CostModel;

/// The calibrated ~1 ms hop between two machines on the testbed's LAN:
/// client ↔ endorsing peer, gossip peer ↔ peer and Raft orderer ↔
/// orderer all sample it.
pub const CALIBRATED_HOP: LatencyModel = LatencyModel::Normal {
    mean_secs: 0.0010,
    std_secs: 0.0002,
    min: SimTime::from_micros(200),
};

/// Latency models for every network hop plus the compute-cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyConfig {
    /// Client → endorsing peer (proposal submission).
    pub client_to_peer: LatencyModel,
    /// Endorsing peer → client (proposal response).
    pub peer_to_client: LatencyModel,
    /// Client → ordering service (transaction submission).
    pub client_to_orderer: LatencyModel,
    /// Ordering service → committing peer (block broadcast).
    pub orderer_to_peer: LatencyModel,
    /// Compute-cost model for endorsement execution and block
    /// validation/commit.
    pub cost: CostModel,
}

impl LatencyConfig {
    /// The calibrated configuration used by every experiment.
    pub fn calibrated() -> Self {
        LatencyConfig {
            client_to_peer: CALIBRATED_HOP,
            peer_to_client: CALIBRATED_HOP,
            client_to_orderer: LatencyModel::Normal {
                mean_secs: 0.0012,
                std_secs: 0.0002,
                min: SimTime::from_micros(200),
            },
            orderer_to_peer: LatencyModel::Normal {
                mean_secs: 0.0020,
                std_secs: 0.0004,
                min: SimTime::from_micros(500),
            },
            cost: CostModel::calibrated(),
        }
    }

    /// A zero-latency configuration for unit tests that assert logical
    /// behaviour rather than timing.
    pub fn zero() -> Self {
        LatencyConfig {
            client_to_peer: LatencyModel::zero(),
            peer_to_client: LatencyModel::zero(),
            client_to_orderer: LatencyModel::zero(),
            orderer_to_peer: LatencyModel::zero(),
            cost: CostModel::zero(),
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_sim::rng::SimRng;

    #[test]
    fn calibrated_hops_are_sub_10ms() {
        let cfg = LatencyConfig::calibrated();
        let mut rng = SimRng::seed_from(1);
        for model in [
            &cfg.client_to_peer,
            &cfg.peer_to_client,
            &cfg.client_to_orderer,
            &cfg.orderer_to_peer,
        ] {
            for _ in 0..100 {
                let t = model.sample(&mut rng);
                assert!(t < SimTime::from_millis(10), "{t}");
                assert!(t > SimTime::ZERO);
            }
        }
    }

    #[test]
    fn zero_config_is_zero() {
        let cfg = LatencyConfig::zero();
        let mut rng = SimRng::seed_from(1);
        assert_eq!(cfg.client_to_peer.sample(&mut rng), SimTime::ZERO);
        assert_eq!(cfg.orderer_to_peer.sample(&mut rng), SimTime::ZERO);
    }
}
