//! Channel-sharded workload generation for multi-channel deployments.
//!
//! Fabric scales horizontally by splitting an application across
//! channels, each with its own ledger and client population. This
//! module produces the per-channel submission schedules such a
//! deployment sees: every channel gets its own Caliper-style open-loop
//! arrival process (aggregate rate = clients × per-client rate, like
//! the paper's 4 × 75 tx/s = 300 tx/s setup of §7.2) over a
//! channel-prefixed key space, so channels contend internally (the
//! paper's hot-key conflict workload) but never with each other.
//!
//! The generator is deliberately decoupled from the driver: it returns
//! plain `(SimTime, TxRequest)` schedules plus the keys to pre-seed,
//! which `fabriccrdt-channel`'s `MultiChannelNetwork::run` (or any
//! single `Simulation`) accepts directly.

use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_sim::time::SimTime;

use crate::generator::{ConflictWorkload, JsonShape};

/// Configuration of a channel-sharded IoT workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelWorkload {
    /// Number of channels (schedules produced).
    pub channels: usize,
    /// Clients submitting per channel; an open-loop rate multiplier,
    /// exactly like Caliper's fixed-rate worker pool.
    pub clients_per_channel: usize,
    /// Per-client submission rate, tx/s (the paper's 4-client 300 tx/s
    /// setup is 75 tx/s per client).
    pub rate_tps_per_client: f64,
    /// Transactions each client submits.
    pub txs_per_client: usize,
    /// Keys read per transaction.
    pub read_keys: usize,
    /// Keys written per transaction.
    pub write_keys: usize,
    /// Shape of the JSON document written.
    pub shape: JsonShape,
    /// Percentage (0–100) of transactions touching the channel's shared
    /// hot keys; the rest use per-transaction private keys.
    pub conflict_pct: u8,
    /// Base PRNG seed; each channel's arrival process forks its own
    /// stream from it.
    pub seed: u64,
}

impl ChannelWorkload {
    /// The paper's workload (§7.2) sharded: per-channel 4 clients at
    /// 75 tx/s each, 1 read + 1 write key, 2-key JSON, 100 %
    /// conflicting inside the channel.
    pub fn paper_defaults(channels: usize) -> Self {
        ChannelWorkload {
            channels,
            clients_per_channel: 4,
            rate_tps_per_client: 75.0,
            txs_per_client: 2_500,
            read_keys: 1,
            write_keys: 1,
            shape: JsonShape::paper_default(),
            conflict_pct: 100,
            seed: 42,
        }
    }

    /// Transactions submitted per channel.
    pub fn txs_per_channel(&self) -> usize {
        self.clients_per_channel * self.txs_per_client
    }

    /// Transactions submitted across all channels.
    pub fn total_txs(&self) -> usize {
        self.channels * self.txs_per_channel()
    }

    /// Generates every channel's schedule and seed-key set.
    ///
    /// # Panics
    ///
    /// Panics if `conflict_pct > 100`, a key count is zero, or
    /// `channels` is zero.
    pub fn generate(&self) -> Vec<ChannelSchedule> {
        assert!(self.channels >= 1, "at least one channel");
        (0..self.channels)
            .map(|channel| {
                let (schedule, seed_keys) = ConflictWorkload {
                    key_prefix: &format!("ch{channel}-"),
                    chaincode: "iot-crdt",
                    rate_tps: self.rate_tps_per_client * self.clients_per_channel as f64,
                    total_txs: self.txs_per_channel(),
                    read_keys: self.read_keys,
                    write_keys: self.write_keys,
                    shape: self.shape,
                    conflict_pct: self.conflict_pct,
                    seed: self.seed,
                    channel,
                }
                .generate();
                ChannelSchedule {
                    channel,
                    schedule,
                    seed_keys,
                }
            })
            .collect()
    }
}

/// One channel's generated workload.
#[derive(Debug, Clone)]
pub struct ChannelSchedule {
    /// The channel this schedule targets (its index in the deployment).
    pub channel: usize,
    /// The submission schedule, ready for `Simulation::run` or one slot
    /// of `MultiChannelNetwork::run`.
    pub schedule: Vec<(SimTime, TxRequest)>,
    /// Keys to pre-seed on the channel before the run (§7.2: the ledger
    /// is populated with every key read).
    pub seed_keys: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(channels: usize) -> ChannelWorkload {
        ChannelWorkload {
            clients_per_channel: 2,
            txs_per_client: 30,
            ..ChannelWorkload::paper_defaults(channels)
        }
    }

    #[test]
    fn generates_one_schedule_per_channel_with_the_right_size() {
        let workload = small(3);
        let schedules = workload.generate();
        assert_eq!(schedules.len(), 3);
        for (c, s) in schedules.iter().enumerate() {
            assert_eq!(s.channel, c);
            assert_eq!(s.schedule.len(), workload.txs_per_channel());
        }
        assert_eq!(workload.total_txs(), 180);
    }

    #[test]
    fn key_spaces_are_channel_disjoint() {
        let schedules = ChannelWorkload {
            conflict_pct: 50,
            ..small(2)
        }
        .generate();
        for s in &schedules {
            let prefix = format!("ch{}-", s.channel);
            assert!(s.seed_keys.iter().all(|k| k.starts_with(&prefix)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        // Uniform arrivals are fixed-rate (Caliper's fixed-rate
        // controller), so every channel shares the same spacing; the
        // per-channel PRNG fork matters for stochastic arrival kinds.
        let a = small(2).generate();
        let b = small(2).generate();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.schedule.len(), y.schedule.len());
            for ((ta, _), (tb, _)) in x.schedule.iter().zip(&y.schedule) {
                assert_eq!(ta, tb);
            }
        }
    }

    #[test]
    fn channel_zero_matches_the_unsharded_stream() {
        // The c = 0 mix leaves the base seed untouched, so channel 0's
        // arrival times equal a single-channel generator's.
        let sharded = &small(2).generate()[0];
        let single = &small(1).generate()[0];
        for ((a, _), (b, _)) in sharded.schedule.iter().zip(&single.schedule) {
            assert_eq!(a, b);
        }
    }
}
