//! Zipf-skewed contention workloads.
//!
//! The paper's Figure 7 controls contention with a fixed percentage of
//! transactions on one shared key; real workloads skew smoothly — key
//! popularity follows a Zipf law. This module generates the
//! read-modify-write IoT schedules the `bench zipf` three-way
//! comparison (CRDT merge-commit vs abort-and-retry vs
//! reorder+early-abort) runs: every transaction reads its device
//! document and writes new readings back, so two transactions on the
//! same key in one block are an MVCC conflict under vanilla Fabric.

use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_sim::rng::{SimRng, ZipfSampler};
use fabriccrdt_sim::time::SimTime;

use crate::iot::IotChaincode;

/// Parameters of one Zipf-skewed IoT schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfWorkload {
    /// Target chaincode name (an [`IotChaincode`] deployment).
    pub chaincode: String,
    /// Transactions to generate.
    pub total_txs: usize,
    /// Key-space size (device documents `device-0 … device-{keys-1}`).
    pub keys: usize,
    /// Zipf skew `s`: 0.0 is uniform; 1.2 concentrates most traffic on
    /// a handful of keys.
    pub skew: f64,
    /// Open-loop arrival rate in transactions per second.
    pub rate_tps: f64,
    /// PRNG seed for the key-popularity draws.
    pub seed: u64,
}

impl ZipfWorkload {
    /// The seed document every device key starts from.
    pub fn seed_doc() -> Vec<u8> {
        br#"{"readings":[]}"#.to_vec()
    }

    /// The device key for index `k`.
    pub fn key(k: usize) -> String {
        format!("device-{k}")
    }

    /// Generates the `(submission time, request)` schedule: `total_txs`
    /// read-modify-writes at a fixed `rate_tps` arrival rate, each on a
    /// Zipf-sampled device key. Deterministic in `(seed, keys, skew)`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero or `rate_tps` is not positive.
    pub fn schedule(&self) -> Vec<(SimTime, TxRequest)> {
        assert!(self.rate_tps > 0.0, "arrival rate must be positive");
        let zipf = ZipfSampler::new(self.keys, self.skew);
        let mut rng = SimRng::seed_from(self.seed ^ 0xabcd);
        (0..self.total_txs)
            .map(|i| {
                let key = Self::key(zipf.sample(&mut rng));
                let json = format!(r#"{{"deviceID":"{key}","readings":["r{i}"]}}"#);
                (
                    SimTime::from_secs_f64(i as f64 / self.rate_tps),
                    TxRequest::new(
                        &self.chaincode,
                        IotChaincode::args(
                            std::slice::from_ref(&key),
                            std::slice::from_ref(&key),
                            &json,
                        ),
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(skew: f64) -> ZipfWorkload {
        ZipfWorkload {
            chaincode: "iot".into(),
            total_txs: 200,
            keys: 50,
            skew,
            rate_tps: 300.0,
            seed: 7,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_paced() {
        let a = workload(0.9).schedule();
        let b = workload(0.9).schedule();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert_eq!(a[0].0, SimTime::ZERO);
        // Open loop at 300 tps: tx 150 arrives at 0.5 s.
        assert_eq!(a[150].0, SimTime::from_secs_f64(0.5));
    }

    #[test]
    fn skew_concentrates_keys() {
        let spread = |schedule: &[(SimTime, TxRequest)]| {
            let keys: std::collections::HashSet<_> =
                schedule.iter().map(|(_, r)| r.args[0].clone()).collect();
            keys.len()
        };
        let uniform = workload(0.0).schedule();
        let skewed = workload(1.2).schedule();
        assert!(spread(&uniform) > spread(&skewed));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let mut w = workload(0.0);
        w.rate_tps = 0.0;
        w.schedule();
    }
}
