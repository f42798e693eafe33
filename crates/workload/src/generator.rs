//! JSON payload generation, and the paper's conflict workload built
//! from it (`ConflictWorkload`).
//!
//! Two shapes from the paper:
//!
//! - The default IoT object (§7.1 Listing 3): a device id plus a list of
//!   temperature readings — "the JSON object that is written to the
//!   ledger has two keys, containing a string constant and a list"
//!   (§7.3).
//! - The "k-d complexity" object (§7.5 Listing 4): `k` top-level keys,
//!   each value nested `d` levels deep.

use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_sim::arrivals::{ArrivalKind, ArrivalProcess};
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;

use crate::iot::IotChaincode;

/// Shape parameters for generated JSON payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonShape {
    /// Top-level keys ("Number of keys per JSON object" in the paper's
    /// config tables).
    pub keys: usize,
    /// Nesting depth of each value; depth 1 is a flat object. The paper's
    /// "3-3 complexity" is `keys = 3, depth = 3`.
    pub depth: usize,
}

impl JsonShape {
    /// The default experiment shape: 2 keys (device id + readings list).
    pub fn paper_default() -> Self {
        JsonShape { keys: 2, depth: 1 }
    }

    /// A "k-d" complexity shape (§7.5).
    pub fn complexity(keys: usize, depth: usize) -> Self {
        JsonShape { keys, depth }
    }
}

/// Builds the IoT payload of Listing 3 for transaction `tx_index` on
/// device `device_id`: `{"deviceID": ..., "readings": [unique readings]}`.
///
/// `readings` controls the list length; every reading is unique to the
/// transaction so that merges must preserve it (no-update-loss is
/// observable).
pub fn iot_payload(device_id: &str, tx_index: usize, readings: usize) -> Value {
    let mut map = Value::empty_map();
    map.insert("deviceID", Value::string(device_id));
    map.insert(
        "readings",
        Value::list((0..readings).map(|r| {
            // Wrapping arithmetic: seeded payloads use usize::MAX as the
            // index sentinel, which would overflow checked multiplication.
            let raw = tx_index.wrapping_mul(7).wrapping_add(r.wrapping_mul(13)) % 200;
            Value::string(format!("{:.1}", 40.0 + raw as f64 / 10.0))
        })),
    );
    map
}

/// Builds a "k-d complexity" payload (§7.5, Listing 4): `keys` top-level
/// entries, each a chain of nested maps `depth` deep ending in a reading
/// string unique to `tx_index`.
///
/// For `shape.keys == 2 && shape.depth == 1` this is the default IoT
/// object instead (the paper's base configuration).
pub fn shaped_payload(shape: JsonShape, device_id: &str, tx_index: usize) -> Value {
    if shape == JsonShape::paper_default() {
        return iot_payload(device_id, tx_index, 1);
    }
    let mut map = Value::empty_map();
    for k in 0..shape.keys {
        let leaf = Value::string(format!("r-{tx_index}-{k}"));
        let mut node = leaf;
        for level in (1..shape.depth).rev() {
            let mut wrapper = Value::empty_map();
            wrapper.insert(format!("n{level}"), node);
            node = wrapper;
        }
        map.insert(format!("k{k}"), node);
    }
    map
}

/// The paper's Caliper conflict workload (§7.2) on one channel: a
/// fixed-rate open loop in which `conflict_pct` of every 100
/// transactions read-modify-write the channel's shared hot keys and the
/// rest touch private keys of their own.
pub(crate) struct ConflictWorkload<'a> {
    /// Prefix of every key: `""` for a single-channel run, `"ch{c}-"`
    /// for channel `c` of a sharded one.
    pub key_prefix: &'a str,
    /// The chaincode every transaction invokes.
    pub chaincode: &'a str,
    /// Aggregate submission rate, tx/s.
    pub rate_tps: f64,
    /// Transactions submitted.
    pub total_txs: usize,
    /// Keys read per transaction.
    pub read_keys: usize,
    /// Keys written per transaction.
    pub write_keys: usize,
    /// Shape of the JSON object written.
    pub shape: JsonShape,
    /// Percentage (0–100) of transactions touching the hot keys.
    pub conflict_pct: u8,
    /// The run's base seed.
    pub seed: u64,
    /// The channel index mixed into the arrival seed; channel 0 leaves
    /// it untouched, so a sharded channel 0 replays a single-channel
    /// run's arrivals.
    pub channel: usize,
}

impl ConflictWorkload<'_> {
    /// The submission schedule, and the keys to pre-seed (§7.2: the
    /// ledger holds every key read): every hot key, then each private
    /// read key in submission order.
    ///
    /// # Panics
    ///
    /// Panics if `conflict_pct > 100` or a key count is zero.
    pub(crate) fn generate(&self) -> (Vec<(SimTime, TxRequest)>, Vec<String>) {
        assert!(self.conflict_pct <= 100, "conflict_pct is a percentage");
        assert!(self.write_keys >= 1, "at least one write key");
        let prefix = self.key_prefix;
        let width = self.read_keys.max(self.write_keys);
        let hot: Vec<String> = (0..width).map(|j| format!("{prefix}shared-{j}")).collect();
        let mut rng = SimRng::seed_from(
            (self.seed ^ 0x9e37_79b9)
                .wrapping_add(0xc2b2_ae35_u64.wrapping_mul(self.channel as u64)),
        );
        let arrivals = ArrivalProcess::new(self.rate_tps, self.total_txs, ArrivalKind::Uniform)
            .generate(&mut rng);

        let mut schedule = Vec::with_capacity(self.total_txs);
        let mut seed_keys = hot.clone();
        for (i, at) in arrivals.into_iter().enumerate() {
            // Deterministic, exactly-proportional conflict assignment.
            let conflicting = (i % 100) < self.conflict_pct as usize;
            let private: Vec<String>;
            let (reads, writes) = if conflicting {
                (&hot[..self.read_keys], &hot[..self.write_keys])
            } else {
                private = (0..width)
                    .map(|j| format!("{prefix}priv-{i}-{j}"))
                    .collect();
                seed_keys.extend_from_slice(&private[..self.read_keys]);
                (&private[..self.read_keys], &private[..self.write_keys])
            };
            let device = writes.first().cloned().unwrap_or_default();
            let payload = shaped_payload(self.shape, &device, i).to_compact_string();
            schedule.push((
                at,
                TxRequest::new(self.chaincode, IotChaincode::args(reads, writes, &payload)),
            ));
        }
        (schedule, seed_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iot_payload_matches_listing_3_shape() {
        let v = iot_payload("Device1", 0, 3);
        assert_eq!(v.get("deviceID").unwrap().as_str(), Some("Device1"));
        assert_eq!(v.get("readings").unwrap().as_list().unwrap().len(), 3);
        assert_eq!(v.as_map().unwrap().len(), 2);
    }

    #[test]
    fn iot_payload_unique_per_tx() {
        let a = iot_payload("d", 1, 1);
        let b = iot_payload("d", 2, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn shaped_payload_has_requested_keys_and_depth() {
        let v = shaped_payload(JsonShape::complexity(3, 3), "d", 5);
        assert_eq!(v.as_map().unwrap().len(), 3);
        // Root map + 2 nested maps + leaf = depth 4 in node terms; the
        // value chain below each key is 3 levels (maps + leaf).
        assert_eq!(v.depth(), 4);
    }

    #[test]
    fn depth_one_is_flat() {
        let v = shaped_payload(JsonShape::complexity(4, 1), "d", 0);
        assert_eq!(v.as_map().unwrap().len(), 4);
        assert_eq!(v.depth(), 2); // map + string leaves
    }

    #[test]
    fn default_shape_is_iot_listing() {
        let v = shaped_payload(JsonShape::paper_default(), "Device9", 3);
        assert_eq!(v.get("deviceID").unwrap().as_str(), Some("Device9"));
        assert!(v.get("readings").is_some());
    }

    #[test]
    fn complexity_increases_node_count() {
        let small = shaped_payload(JsonShape::complexity(1, 1), "d", 0).node_count();
        let large = shaped_payload(JsonShape::complexity(5, 5), "d", 0).node_count();
        assert!(large > small * 5);
    }
}
