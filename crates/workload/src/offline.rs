//! Offline-first client workloads.
//!
//! An offline-first client (a disconnected field device, a mobile
//! editor) keeps appending readings to its local CRDT replica, then
//! rejoins and submits the backlog in one burst — the merge-storm
//! shape the `adversarial` experiment (`crates/bench`) measures.
//! This module generates those deterministic edit sequences, both as
//! raw JSON payloads for document-level probes and as a pipeline
//! schedule for the rejoin burst.

use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_sim::time::SimTime;

use crate::iot::IotChaincode;

/// The accumulated offline edits of one client on one device document:
/// `count` read-modify-write payloads, each appending one new reading.
/// Deterministic in `(device, count)`.
pub fn offline_payloads(device: &str, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| format!(r#"{{"device":"{device}","readings":["off-{device}-{i}"]}}"#))
        .collect()
}

/// The rejoin burst as a pipeline schedule: every offline payload
/// submitted against `key` through the CRDT IoT chaincode, starting at
/// `start` with `gap` between submissions (a reconnected client drains
/// its queue as fast as its uplink allows — pass a small `gap`).
pub fn rejoin_schedule(
    key: &str,
    payloads: &[String],
    start: SimTime,
    gap: SimTime,
) -> Vec<(SimTime, TxRequest)> {
    let key = key.to_owned();
    payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| {
            let at = start + gap.scale(i as u64);
            (
                at,
                TxRequest::new(
                    "iot-crdt",
                    IotChaincode::args(
                        std::slice::from_ref(&key),
                        std::slice::from_ref(&key),
                        payload,
                    ),
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_and_distinct() {
        let a = offline_payloads("d7", 5);
        assert_eq!(a, offline_payloads("d7", 5));
        assert_eq!(a.len(), 5);
        for (i, p) in a.iter().enumerate() {
            assert!(p.contains(&format!("off-d7-{i}")));
        }
    }

    #[test]
    fn rejoin_schedule_spaces_submissions() {
        let payloads = offline_payloads("d1", 3);
        let schedule = rejoin_schedule(
            "dev-d1",
            &payloads,
            SimTime::from_millis(100),
            SimTime::from_millis(5),
        );
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule[0].0, SimTime::from_millis(100));
        assert_eq!(schedule[2].0, SimTime::from_millis(110));
        assert_eq!(schedule[1].1.chaincode, "iot-crdt");
    }
}
