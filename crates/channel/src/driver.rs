//! The multi-channel driver: N pipelines, each over its own gossip
//! network, with the cross-channel transfer protocol on top.
//!
//! Each channel is a full [`Simulation`] — its own ordering service
//! (single orderer or the Raft cluster, as the base config says),
//! committing peer, world state and durable ledger — whose block
//! dissemination runs through a [`GossipDelivery`] that owns the
//! channel's [`GossipNetwork`]. [`GossipNetwork::new_multi`] installs
//! the base config's crash / restart / partition schedule in every
//! channel a faulted peer is a member of, at the same simulated times,
//! so cross-channel runs see correlated failures the way one physical
//! peer hosting many channels would.
//!
//! Channels share no mutable state, so they run concurrently in host
//! time as well as in simulated time: every channel with work runs on a
//! thread of its own (the last on the calling thread), and results are
//! folded in channel order after the joins, so a run is as
//! deterministic as a sequential one. Each channel keeps its own
//! simulated clock, and the rollup's aggregate throughput uses the
//! slowest channel's makespan ([`MultiChannelMetrics::aggregate_tps`]).
//! Validators are built only by [`MultiChannelNetwork::new`], on the
//! calling thread.

use std::panic;
use std::sync::Arc;
use std::thread;

use fabriccrdt::CrdtValidator;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::channel::{
    ChannelId, ChannelRunMetrics, MultiChannelConfig, MultiChannelMetrics, TransferId,
    TransferOutcome, TransferReport, TransferSpec,
};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::peer::{Peer, PeerSnapshot};
use fabriccrdt_fabric::simulation::{Simulation, TxRequest};
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_gossip::network::GossipNetwork;
use fabriccrdt_gossip::GossipDelivery;
use fabriccrdt_sim::time::SimTime;

use crate::assemble::ordering_backend;
use crate::xfer::{XferChaincode, XFER_CHAINCODE};

/// One channel's workload: requests with their submission times.
type Schedule = Vec<(SimTime, TxRequest)>;

/// Gap between consecutive transfer-phase submissions on a channel.
const PHASE_STEP: SimTime = SimTime::from_millis(10);

/// Margin between a finished run and the next phase's first
/// submission, generous enough to outlast any straggling internal
/// timer (Raft election timeouts are hundreds of milliseconds).
const PHASE_MARGIN: SimTime = SimTime::from_secs(10);

/// An N-channel deployment under one fault schedule. See the module
/// docs for the architecture.
pub struct MultiChannelNetwork<V: BlockValidator> {
    config: MultiChannelConfig,
    sims: Vec<Simulation<V>>,
    /// Next transfer id (monotone across the network's lifetime).
    next_transfer: u64,
    /// Latest simulated time any channel has reached; phase
    /// submissions are scheduled past it so per-channel clocks stay
    /// monotone.
    horizon: SimTime,
}

impl<V: BlockValidator> MultiChannelNetwork<V> {
    /// Builds the deployment: one gossip network per channel over
    /// `config.base`'s topology and fault schedule, each inside its
    /// channel's pipeline (channel seed and id per
    /// [`MultiChannelConfig::pipeline_for`]). The transfer chaincode is
    /// deployed into every channel's registry automatically.
    ///
    /// `make_validator` runs here only, on this thread, and in the
    /// order [`GossipNetwork::new_multi`] gives: every gossip replica,
    /// then each channel's committing peer, then one per scheduled
    /// restart. Runs and transfers build none.
    ///
    /// # Panics
    ///
    /// Panics on an invalid deployment
    /// ([`MultiChannelConfig::validate`]) or fault schedule.
    pub fn new(
        config: MultiChannelConfig,
        registry: ChaincodeRegistry,
        make_validator: impl Fn() -> V,
    ) -> Self {
        config.validate();
        let mut registry = registry;
        registry.deploy(Arc::new(XferChaincode));
        let sims = GossipNetwork::new_multi(&config, make_validator)
            .into_iter()
            .enumerate()
            .map(|(c, (network, validator))| {
                let pipeline = config.pipeline_for(c);
                let ordering = ordering_backend(&pipeline);
                Simulation::with_layers(
                    pipeline,
                    validator,
                    registry.clone(),
                    Box::new(GossipDelivery::new(network)),
                    ordering,
                )
            })
            .collect();
        MultiChannelNetwork {
            config,
            sims,
            next_transfer: 0,
            horizon: SimTime::ZERO,
        }
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &MultiChannelConfig {
        &self.config
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.sims.len()
    }

    /// Channel `c`'s pipeline simulation (committing peer, chain,
    /// world state).
    pub fn simulation(&self, c: usize) -> &Simulation<V> {
        &self.sims[c]
    }

    /// Seeds a key into channel `c`'s world state — the pipeline peer
    /// and every gossip replica — before any run.
    pub fn seed_state(&mut self, c: usize, key: impl Into<String>, value: Vec<u8>) {
        self.sims[c].seed_state(key, value);
    }

    /// Returns `self`: the replicas are read through
    /// [`MultiChannelNetwork::peer_on`] and its siblings. Pinned for
    /// `perf/` (DESIGN.md §4.10).
    pub fn network(&self) -> &Self {
        self
    }

    /// Number of peers in the deployment's topology.
    pub fn peer_count(&self) -> usize {
        self.config.base.topology.total_peers()
    }

    /// The member set (global peer indices) of channel `c`'s gossip
    /// network.
    pub fn members(&self, c: usize) -> &[usize] {
        self.lane(c).map_or(&[], GossipNetwork::members)
    }

    /// The channel-`c` replica of global peer `index`, or `None` while
    /// it is crashed.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not a member of the channel.
    pub fn peer_on(&self, c: usize, index: usize) -> Option<&Peer<V>> {
        self.lane(c)?.peer(index)
    }

    /// Serialized ledger of the channel-`c` replica of global peer
    /// `index` (state and chain bytes), or `None` while it is crashed.
    pub fn snapshot_on(&self, c: usize, index: usize) -> Option<PeerSnapshot> {
        self.peer_on(c, index).map(Peer::snapshot)
    }

    /// Runs one workload schedule per channel (indexed by channel) and
    /// rolls the per-channel metrics up. Channels run concurrently,
    /// each on a thread of its own; their simulated timelines are
    /// independent.
    ///
    /// # Panics
    ///
    /// Panics when `schedules.len()` differs from the channel count,
    /// and with a channel's own panic message when its run panics.
    pub fn run(&mut self, schedules: Vec<Schedule>) -> MultiChannelMetrics {
        assert_eq!(schedules.len(), self.sims.len(), "one schedule per channel");
        let channels = self
            .run_channels(schedules.into_iter().map(Some).collect())
            .into_iter()
            .flatten()
            .map(|metrics| ChannelRunMetrics { metrics })
            .collect();
        MultiChannelMetrics { channels }
    }

    /// Executes a batch of cross-channel transfers through the
    /// two-phase protocol and reconciles their outcomes:
    ///
    /// 1. *Prepare* transactions escrow each key on its source channel.
    /// 2. The driver relays each escrowed value to its destination
    ///    channel's *commit* transaction
    ///    ([`TransferSpec::inject_failure`] corrupts the commit's
    ///    endorsement so it fails validation).
    /// 3. *Finalize*: transfers whose commit record is absent from the
    ///    destination's committed state get an *abort* transaction on
    ///    the source channel restoring the escrowed value; every
    ///    transfer reconciles to exactly one of
    ///    [`TransferOutcome::Committed`] / [`TransferOutcome::Aborted`].
    ///
    /// Reports are returned in `specs` order.
    ///
    /// # Panics
    ///
    /// Panics when a spec names an out-of-range channel or transfers
    /// within one channel (`from == to`).
    pub fn execute_transfers(&mut self, specs: &[TransferSpec]) -> Vec<TransferReport> {
        let n = self.sims.len();
        for spec in specs {
            assert!((spec.from.0 as usize) < n, "source channel out of range");
            assert!((spec.to.0 as usize) < n, "destination channel out of range");
            assert_ne!(spec.from, spec.to, "transfer must cross channels");
        }
        let ids: Vec<TransferId> = specs
            .iter()
            .map(|_| {
                let id = TransferId(self.next_transfer);
                self.next_transfer += 1;
                id
            })
            .collect();

        // Phase 1: escrow on the source channels.
        self.run_phase(specs.iter().zip(&ids).map(|(spec, id)| {
            let args = XferChaincode::prepare_args(*id, &spec.key);
            Some((spec.from, TxRequest::new(XFER_CHAINCODE, args)))
        }));

        // Relay: the escrowed bytes, read from each source channel's
        // committed prepare record (absent when the prepare failed —
        // e.g. the key does not exist on the source).
        let escrows: Vec<Option<String>> = specs
            .iter()
            .zip(&ids)
            .map(|(spec, id)| {
                self.committed(spec.from, &id.prepare_key())
                    .map(|bytes| String::from_utf8_lossy(bytes).into_owned())
            })
            .collect();

        // Phase 2: commit on the destination channels. A transfer whose
        // destination's endorsers crashed between prepare and commit
        // submits nothing; finalize finds no commit record and releases
        // the escrow via abort.
        self.run_phase(specs.iter().zip(&ids).enumerate().map(|(i, (spec, id))| {
            let hex = escrows[i].as_ref()?;
            if spec.destination_down {
                return None;
            }
            let args = XferChaincode::commit_args(*id, &spec.key, hex);
            let mut request = TxRequest::new(XFER_CHAINCODE, args);
            if spec.inject_failure {
                request = request.with_corrupt_endorsement();
            }
            Some((spec.to, request))
        }));

        // Finalize: reconcile by the committed records, aborting the
        // escrowed transfers whose commit never validated.
        let committed: Vec<bool> = specs
            .iter()
            .zip(&ids)
            .map(|(spec, id)| self.committed(spec.to, &id.commit_key()).is_some())
            .collect();
        self.run_phase(specs.iter().zip(&ids).enumerate().map(|(i, (spec, id))| {
            if committed[i] {
                return None;
            }
            let hex = escrows[i].as_ref()?;
            let args = XferChaincode::abort_args(*id, &spec.key, hex);
            Some((spec.from, TxRequest::new(XFER_CHAINCODE, args)))
        }));

        specs
            .iter()
            .zip(&ids)
            .enumerate()
            .map(|(i, (spec, id))| TransferReport {
                id: *id,
                key: spec.key.clone(),
                from: spec.from,
                to: spec.to,
                outcome: if committed[i] {
                    TransferOutcome::Committed
                } else {
                    TransferOutcome::Aborted
                },
            })
            .collect()
    }

    /// Asserts every channel's gossip replicas converged on the
    /// channel's pipeline peer: same world state, same chain height,
    /// same tip hash — the multi-channel reconvergence check.
    /// Chain *bytes* are not compared: a replica that caught up by
    /// snapshot install legitimately resumes its chain at the snapshot
    /// tip, and the tip hash already commits to every block below it.
    /// Call after runs and transfers have drained (every
    /// [`MultiChannelNetwork::run`] / phase drains its channels' lanes).
    ///
    /// # Panics
    ///
    /// Panics naming the first diverged or crashed replica.
    pub fn verify_converged(&self) {
        for (c, spec) in self.config.channels.iter().enumerate() {
            let reference = self.sims[c].peer();
            for &member in &spec.members {
                let replica = self
                    .peer_on(c, member)
                    .unwrap_or_else(|| panic!("{}: replica {member} is down", spec.id));
                assert!(
                    replica.chain().height() == reference.chain().height()
                        && replica.chain().tip_hash() == reference.chain().tip_hash()
                        && replica.state() == reference.state(),
                    "{}: replica {member}'s ledger diverged from the pipeline peer",
                    spec.id
                );
            }
        }
    }

    /// Runs one transfer phase. The `i`-th request, if any, is submitted
    /// on its channel at `PHASE_STEP × (i + 1)` past the horizon and its
    /// margin; channels with nothing to submit stay idle. Advances the
    /// horizon.
    fn run_phase(&mut self, requests: impl IntoIterator<Item = Option<(ChannelId, TxRequest)>>) {
        let base = self.horizon + PHASE_MARGIN;
        let mut schedules: Vec<Option<Schedule>> = vec![None; self.sims.len()];
        for (i, request) in requests.into_iter().enumerate() {
            if let Some((channel, request)) = request {
                let at = base + PHASE_STEP.scale(i as u64 + 1);
                schedules[channel.0 as usize]
                    .get_or_insert_default()
                    .push((at, request));
            }
        }
        self.run_channels(schedules);
    }

    /// Runs each channel's schedule (`None`: the channel has no work
    /// and stays idle), every channel with work on a thread of its own
    /// except the last, which runs on this thread. After the joins it
    /// folds each channel's progress into the horizon in channel order.
    /// A channel whose run panics re-raises its panic here, payload
    /// and all.
    fn run_channels(&mut self, schedules: Vec<Option<Schedule>>) -> Vec<Option<RunMetrics>> {
        let mut jobs: Vec<_> = self
            .sims
            .iter_mut()
            .zip(schedules)
            .map(|(sim, schedule)| Some((sim, schedule?)))
            .collect();
        let last = jobs.iter().rposition(Option::is_some);
        let local = last.and_then(|c| jobs[c].take());
        let outcomes: Vec<Option<RunMetrics>> = thread::scope(|scope| {
            let spawned: Vec<_> = jobs
                .into_iter()
                .map(|job| job.map(|(sim, schedule)| scope.spawn(move || sim.run(schedule))))
                .collect();
            let mut local = local.map(|(sim, schedule)| sim.run(schedule));
            spawned
                .into_iter()
                .enumerate()
                .map(|(c, handle)| match handle {
                    Some(handle) => Some(handle.join().unwrap_or_else(|p| panic::resume_unwind(p))),
                    None if Some(c) == last => local.take(),
                    None => None,
                })
                .collect()
        });
        for (c, metrics) in outcomes.iter().enumerate() {
            if let Some(metrics) = metrics {
                self.note_progress(c, metrics.end_time);
            }
        }
        outcomes
    }

    /// The value `key` holds in `channel`'s committed world state.
    fn committed(&self, channel: ChannelId, key: &str) -> Option<&[u8]> {
        self.sims[channel.0 as usize].peer().state().value(key)
    }

    /// Channel `c`'s gossip network, which its pipeline's delivery
    /// layer owns.
    fn lane(&self, c: usize) -> Option<&GossipNetwork<V>> {
        let delivery = self.sims[c].delivery::<GossipDelivery<V>>()?;
        Some(delivery.network())
    }

    /// Folds a finished run's end time and the channel's network clock
    /// into the horizon.
    fn note_progress(&mut self, c: usize, end_time: SimTime) {
        let lane_clock = self.lane(c).map_or(SimTime::ZERO, GossipNetwork::clock);
        self.horizon = self.horizon.max(end_time).max(lane_clock);
    }
}

/// Builds a FabricCRDT multi-channel deployment — every channel
/// validates with the paper's merging [`CrdtValidator`].
pub fn fabriccrdt_multi_channel(
    config: MultiChannelConfig,
    registry: ChaincodeRegistry,
) -> MultiChannelNetwork<CrdtValidator> {
    MultiChannelNetwork::new(config, registry, CrdtValidator::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_fabric::config::PipelineConfig;
    use fabriccrdt_fabric::simulation::DeliveryLayer;

    /// The other half of the convergence contract (the healthy
    /// snapshot-recovered case lives in `tests/multi_channel.rs`): a
    /// replica whose world state really differs from the pipeline
    /// peer's still fails the check.
    #[test]
    fn verify_converged_rejects_a_replica_whose_state_differs() {
        let base = PipelineConfig::paper(25, 1).with_gossip();
        let config = MultiChannelConfig::uniform(base, 2);
        let mut net = fabriccrdt_multi_channel(config, ChaincodeRegistry::new());
        net.verify_converged();

        // A key only channel 1's replicas hold.
        net.sims[1]
            .delivery_mut::<GossipDelivery<CrdtValidator>>()
            .expect("channel 1 delivers over gossip")
            .seed_state("rogue", b"x");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.verify_converged();
        }))
        .expect_err("diverged replicas must fail the check");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(
            message.contains("ch1: replica") && message.contains("diverged"),
            "{message}"
        );
    }
}
