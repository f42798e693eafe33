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

/// Client → endorsing peer (proposal submission).
pub const CLIENT_TO_PEER: LatencyModel = CALIBRATED_HOP;

/// Endorsing peer → client (proposal response).
pub const PEER_TO_CLIENT: LatencyModel = CALIBRATED_HOP;

/// Client → ordering service (transaction submission).
pub const CLIENT_TO_ORDERER: LatencyModel = LatencyModel::Normal {
    mean_secs: 0.0012,
    std_secs: 0.0002,
    min: SimTime::from_micros(200),
};

/// Ordering service → committing peer (block broadcast).
pub const ORDERER_TO_PEER: LatencyModel = LatencyModel::Normal {
    mean_secs: 0.0020,
    std_secs: 0.0004,
    min: SimTime::from_micros(500),
};

/// The compute-cost model of a run. The network hops are the constants
/// above.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyConfig {
    /// Compute-cost model for endorsement execution and block
    /// validation/commit.
    pub cost: CostModel,
}

impl LatencyConfig {
    /// The calibrated configuration used by every experiment.
    pub fn calibrated() -> Self {
        LatencyConfig {
            cost: CostModel::calibrated(),
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
        let mut rng = SimRng::seed_from(1);
        for model in [
            CLIENT_TO_PEER,
            PEER_TO_CLIENT,
            CLIENT_TO_ORDERER,
            ORDERER_TO_PEER,
        ] {
            for _ in 0..100 {
                let t = model.sample(&mut rng);
                assert!(t < SimTime::from_millis(10), "{t}");
                assert!(t > SimTime::ZERO);
            }
        }
    }
}
