//! The multi-channel driver: N pipelines over one shared gossip
//! network, with the cross-channel transfer protocol on top.
//!
//! Each channel is a full [`Simulation`] — its own ordering service
//! (single orderer or the Raft cluster, per the channel's
//! `ChannelSpec` override), committing peer, world state and durable
//! ledger — whose block dissemination runs through a
//! [`GossipDelivery`] lane of one shared [`GossipNetwork`]. The
//! shared network applies the base config's crash / restart /
//! partition schedule to every channel a faulted peer is a member of,
//! at the same simulated times, so cross-channel runs see correlated
//! failures the way one physical peer hosting many channels would.
//!
//! Channels execute sequentially in host time but concurrently in
//! simulated time: each lane keeps its own clock, and the rollup's
//! aggregate throughput uses the slowest channel's makespan
//! ([`MultiChannelMetrics::aggregate_tps`]).

use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::channel::{
    ChannelRunMetrics, MultiChannelConfig, MultiChannelMetrics, TransferId, TransferOutcome,
    TransferReport, TransferSpec,
};
use fabriccrdt_fabric::simulation::{Simulation, TxRequest};
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_gossip::network::GossipNetwork;
use fabriccrdt_gossip::GossipDelivery;
use fabriccrdt_sim::time::SimTime;

use crate::assemble::ordering_backend;
use crate::xfer::{XferChaincode, XFER_CHAINCODE};

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
    network: Rc<RefCell<GossipNetwork<V>>>,
    sims: Vec<Simulation<V>>,
    /// Next transfer id (monotone across the network's lifetime).
    next_transfer: u64,
    /// Latest simulated time any channel has reached; phase
    /// submissions are scheduled past it so per-lane clocks stay
    /// monotone.
    horizon: SimTime,
}

impl<V: BlockValidator> MultiChannelNetwork<V> {
    /// Builds the deployment: one shared gossip network over
    /// `config.base`'s topology and fault schedule, plus one pipeline
    /// per channel (channel seeds, block-cutting and ordering
    /// overrides per [`MultiChannelConfig::pipeline_for`]). The
    /// transfer chaincode is deployed into every channel's registry
    /// automatically.
    ///
    /// # Panics
    ///
    /// Panics on an invalid deployment
    /// ([`MultiChannelConfig::validate`]) or fault schedule.
    pub fn new(
        config: MultiChannelConfig,
        registry: ChaincodeRegistry,
        make_validator: impl Fn() -> V + Clone + 'static,
    ) -> Self {
        config.validate();
        let mut registry = registry;
        registry.deploy(Arc::new(XferChaincode));
        let network = Rc::new(RefCell::new(GossipNetwork::new_multi(
            &config,
            make_validator.clone(),
        )));
        let sims = (0..config.channel_count())
            .map(|c| {
                let pipeline = config.pipeline_for(c);
                let delivery = Box::new(GossipDelivery::new(network.clone(), c));
                let ordering = ordering_backend(&pipeline);
                Simulation::with_layers(
                    pipeline,
                    make_validator(),
                    registry.clone(),
                    delivery,
                    ordering,
                )
            })
            .collect();
        MultiChannelNetwork {
            config,
            network,
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

    /// The shared gossip network (per-channel replicas, metrics,
    /// clocks).
    pub fn network(&self) -> Ref<'_, GossipNetwork<V>> {
        self.network.borrow()
    }

    /// Runs one workload schedule per channel (indexed by channel) and
    /// rolls the per-channel metrics up. Channels run sequentially in
    /// host time; their simulated timelines are independent.
    ///
    /// # Panics
    ///
    /// Panics when `schedules.len()` differs from the channel count.
    pub fn run(&mut self, schedules: Vec<Vec<(SimTime, TxRequest)>>) -> MultiChannelMetrics {
        assert_eq!(schedules.len(), self.sims.len(), "one schedule per channel");
        let channels = schedules
            .into_iter()
            .enumerate()
            .map(|(c, schedule)| {
                let metrics = self.sims[c].run(schedule);
                self.note_progress(c, metrics.end_time);
                ChannelRunMetrics {
                    channel: self.config.channels[c].id,
                    metrics,
                }
            })
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
        let mut prepares: Vec<Vec<(SimTime, TxRequest)>> = vec![Vec::new(); n];
        let base = self.horizon + PHASE_MARGIN;
        for (i, (spec, id)) in specs.iter().zip(&ids).enumerate() {
            prepares[spec.from.0 as usize].push((
                base + PHASE_STEP.scale(i as u64 + 1),
                TxRequest::new(XFER_CHAINCODE, XferChaincode::prepare_args(*id, &spec.key)),
            ));
        }
        self.run_phase(prepares);

        // Relay: the escrowed bytes, read from each source channel's
        // committed prepare record (absent when the prepare failed —
        // e.g. the key does not exist on the source).
        let escrows: Vec<Option<String>> = specs
            .iter()
            .zip(&ids)
            .map(|(spec, id)| {
                self.sims[spec.from.0 as usize]
                    .peer()
                    .state()
                    .value(&id.prepare_key())
                    .map(|bytes| String::from_utf8_lossy(bytes).into_owned())
            })
            .collect();

        // Phase 2: commit on the destination channels.
        let mut commits: Vec<Vec<(SimTime, TxRequest)>> = vec![Vec::new(); n];
        let base = self.horizon + PHASE_MARGIN;
        for (i, (spec, id)) in specs.iter().zip(&ids).enumerate() {
            let Some(hex) = &escrows[i] else { continue };
            if spec.destination_down {
                // The destination's endorsers crashed between prepare
                // and commit: nothing to submit. Finalize will find no
                // commit record and release the escrow via abort.
                continue;
            }
            let mut request = TxRequest::new(
                XFER_CHAINCODE,
                XferChaincode::commit_args(*id, &spec.key, hex),
            );
            if spec.inject_failure {
                request = request.with_corrupt_endorsement();
            }
            commits[spec.to.0 as usize].push((base + PHASE_STEP.scale(i as u64 + 1), request));
        }
        self.run_phase(commits);

        // Finalize: reconcile by the committed records, aborting the
        // transfers whose commit never validated.
        let committed: Vec<bool> = specs
            .iter()
            .zip(&ids)
            .map(|(spec, id)| {
                self.sims[spec.to.0 as usize]
                    .peer()
                    .state()
                    .value(&id.commit_key())
                    .is_some()
            })
            .collect();
        let mut aborts: Vec<Vec<(SimTime, TxRequest)>> = vec![Vec::new(); n];
        let base = self.horizon + PHASE_MARGIN;
        for (i, (spec, id)) in specs.iter().zip(&ids).enumerate() {
            if committed[i] {
                continue;
            }
            let Some(hex) = &escrows[i] else { continue };
            aborts[spec.from.0 as usize].push((
                base + PHASE_STEP.scale(i as u64 + 1),
                TxRequest::new(
                    XFER_CHAINCODE,
                    XferChaincode::abort_args(*id, &spec.key, hex),
                ),
            ));
        }
        self.run_phase(aborts);

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
        let network = self.network.borrow();
        for (c, spec) in self.config.channels.iter().enumerate() {
            let reference = self.sims[c].peer();
            for &member in &spec.members {
                let replica = network
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

    /// Runs one transfer-phase schedule per channel, skipping channels
    /// with nothing to do, and advances the horizon.
    fn run_phase(&mut self, schedules: Vec<Vec<(SimTime, TxRequest)>>) {
        for (c, schedule) in schedules.into_iter().enumerate() {
            if schedule.is_empty() {
                continue;
            }
            let metrics = self.sims[c].run(schedule);
            self.note_progress(c, metrics.end_time);
        }
    }

    /// Folds a finished run's end time and the channel's lane clock
    /// into the horizon.
    fn note_progress(&mut self, c: usize, end_time: SimTime) {
        let lane_clock = self.network.borrow().clock_on(c);
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

    /// The other half of the convergence contract (the healthy
    /// snapshot-recovered case lives in `tests/multi_channel.rs`): a
    /// replica whose world state really differs from the pipeline
    /// peer's still fails the check.
    #[test]
    fn verify_converged_rejects_a_replica_whose_state_differs() {
        let base = PipelineConfig::paper(25, 1).with_gossip();
        let config = MultiChannelConfig::uniform(base, 2);
        let net = fabriccrdt_multi_channel(config, ChaincodeRegistry::new());
        net.verify_converged();

        // A key only channel 1's replicas hold.
        net.network.borrow_mut().seed_state_on(1, "rogue", b"x");
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
