//! Driving the pipeline under a byzantine attack schedule.
//!
//! [`run_adversarial_pipeline`] is the single entry point: it builds
//! the same FabricCRDT gossip pipeline as the honest benches — the
//! orderer cuts blocks, a gossip network disseminates them, every
//! replica validates and commits — but keeps a handle on the gossip
//! network so that, after the run drains, it can read back *every*
//! replica's ledger bytes. An attack schedule
//! ([`AdversaryConfig`] on
//! the pipeline config) makes the network's adversary seam inject
//! forged block variants at chosen heights; the honest ingress screen
//! rejects them and the run's
//! [`AdversaryMetrics`]
//! count what was caught.
//!
//! The delivery layer is the same [`GossipDelivery`] on lane 0 the
//! honest pipelines use — so an empty attack schedule reproduces the
//! honest gossip run bit-for-bit, and any divergence under attack is
//! the adversary's doing alone.

use std::cell::RefCell;
use std::rc::Rc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::{AdversaryConfig, AttackSpec, PipelineConfig, TamperMode};
use fabriccrdt_fabric::metrics::{AdversaryMetrics, RunMetrics};
use fabriccrdt_fabric::peer::PeerSnapshot;
use fabriccrdt_fabric::simulation::{Simulation, SingleOrderer, TxRequest};
use fabriccrdt_gossip::{GossipDelivery, GossipNetwork};
use fabriccrdt_sim::gen::Gen;
use fabriccrdt_sim::time::SimTime;

/// Everything a byzantine run yields: the pipeline's metrics (with the
/// adversary counters) plus every gossip replica's post-drain ledger
/// snapshot, in global peer order. A `None` snapshot is a replica that
/// was still down when the run drained (only possible when the fault
/// schedule never restarts it).
#[derive(Debug)]
pub struct AdversarialRun {
    /// The pipeline's run metrics; `metrics.adversary` carries the
    /// injection/detection counters.
    pub metrics: RunMetrics,
    /// Post-drain ledger snapshot of every replica.
    pub snapshots: Vec<Option<PeerSnapshot>>,
}

impl AdversarialRun {
    /// The adversary counters (zeroed when the run had no adversary
    /// seam at all).
    pub fn adversary(&self) -> AdversaryMetrics {
        self.metrics.adversary.unwrap_or_default()
    }

    /// Whether every replica finished the run with byte-identical
    /// ledgers — the honest network's safety property under attack.
    /// False if any replica was down at drain time or diverged.
    pub fn honest_replicas_identical(&self) -> bool {
        let Some(Some(first)) = self.snapshots.first() else {
            return false;
        };
        self.snapshots.iter().all(|s| s.as_ref() == Some(first))
    }
}

/// Runs the FabricCRDT gossip pipeline — honoring `config.adversary`,
/// `config.faults`, `config.gossip` — over `schedule`, then drains the
/// network and snapshots every replica.
///
/// `seeds` are `(key, value)` pairs installed into every replica's
/// world state before the run (the usual CRDT base documents).
pub fn run_adversarial_pipeline(
    config: PipelineConfig,
    registry: ChaincodeRegistry,
    seeds: &[(String, Vec<u8>)],
    schedule: Vec<(SimTime, TxRequest)>,
) -> AdversarialRun {
    let network = Rc::new(RefCell::new(GossipNetwork::new(
        &config,
        CrdtValidator::new,
    )));
    let delivery = Box::new(GossipDelivery::new(network.clone(), 0));
    let ordering = Box::new(SingleOrderer::from_config(&config));
    let mut sim =
        Simulation::with_layers(config, CrdtValidator::new(), registry, delivery, ordering);
    for (key, value) in seeds {
        sim.seed_state(key.clone(), value.clone());
    }
    let metrics = sim.run(schedule);
    let snapshots = {
        let mut network = network.borrow_mut();
        network.drain();
        (0..network.peer_count())
            .map(|peer| network.snapshot_on(0, peer))
            .collect()
    };
    AdversarialRun { metrics, snapshots }
}

/// Every tamper mode the adversary seam knows.
pub const ALL_MODES: [TamperMode; 5] = [
    TamperMode::FlipPayloadByte,
    TamperMode::DuplicateTx,
    TamperMode::ReorderTxs,
    TamperMode::ForgeTipHash,
    TamperMode::EquivocateValue,
];

/// Draws a random attack schedule: one to four attacks, each with a
/// random tamper mode, target height in `1..=max_height`, a random
/// non-empty victim set, an optional spoofed relay, and a small
/// injection delay. Used by the seeded property sweep; every schedule
/// is valid for any topology with `n_peers` peers.
pub fn gen_attack_schedule(g: &mut Gen, n_peers: usize, max_height: u64) -> AdversaryConfig {
    let attacks = g.vec(1, 4, |g| {
        let mode = *g.pick(&ALL_MODES);
        let height = g.range(1, max_height + 1);
        let mut victims: Vec<usize> = (0..n_peers).filter(|_| g.prob(0.4)).collect();
        if victims.is_empty() {
            victims.push(g.range(0, n_peers as u64) as usize);
        }
        let via = g.flip().then(|| g.range(0, n_peers as u64) as usize);
        AttackSpec {
            height,
            mode,
            victims,
            via,
            delay: SimTime::from_millis(g.range(0, 50)),
        }
    });
    AdversaryConfig {
        attacks,
        ..AdversaryConfig::none()
    }
}
