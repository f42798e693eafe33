//! The four workloads: input generation from the seed, network
//! construction, one repetition of the timed call, and the output checks.
//!
//! Everything the program under test sees is generated here from
//! `--seed`; every call into it goes through a public constructor or
//! method of the crates under `../crates`.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use fabriccrdt::CrdtValidator;
use fabriccrdt_channel::MultiChannelNetwork;
use fabriccrdt_crypto::hex;
use fabriccrdt_crypto::sha256::Sha256;
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeRegistry};
use fabriccrdt_fabric::channel::{ChannelId, MultiChannelConfig, TransferOutcome, TransferSpec};
use fabriccrdt_fabric::config::{
    CrashSpec, FaultConfig, OrderingPolicy, PipelineConfig, RaftConfig, RetryPolicy,
};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::simulation::{IdealFifoDelivery, Simulation, SingleOrderer, TxRequest};
use fabriccrdt_fabric::storage::{DurableLedger, StorageConfig};
use fabriccrdt_fabric::validator::{BlockValidator, FabricValidator};
use fabriccrdt_jsoncrdt::cache;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::arrivals::{ArrivalKind, ArrivalProcess};
use fabriccrdt_sim::rng::{SimRng, ZipfSampler};
use fabriccrdt_sim::stats::Summary;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::generator::shaped_payload;
use fabriccrdt_workload::{ChannelWorkload, IotChaincode, JsonShape, ZipfWorkload};

use crate::stats::highest_supported_percentile;
use crate::trace::{
    BlockSink, Role, TracedChaincode, TracedDelivery, TracedOrdering, TracedValidator, Tracer,
};

/// Every workload is an open loop at this rate in simulated time
/// (Caliper's fixed-rate schedule, 4 clients × 75 tx/s, §7.2).
const RATE_TPS: f64 = 300.0;

/// Cross-channel transfers run after `replicated-durable`'s main
/// schedule; the last one carries an injected endorsement failure.
const TRANSFERS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotkeyMerge,
    BigstatePipelined,
    MvccReorderRetry,
    ReplicatedDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotkeyMerge,
        Workload::BigstatePipelined,
        Workload::MvccReorderRetry,
        Workload::ReplicatedDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotkeyMerge => "hotkey-merge",
            Workload::BigstatePipelined => "bigstate-pipelined",
            Workload::MvccReorderRetry => "mvcc-reorder-retry",
            Workload::ReplicatedDurable => "replicated-durable",
        }
    }

    /// Why the workload exists: which layers it loads and which it
    /// bypasses (`BENCHMARK.json` carries these lines).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotkeyMerge => {
                "400 CRDT documents merge into one hot key per block: loads jsoncrdt merge and \
                 rewritten-block hashing; state handling, gossip, Raft and channels do nothing"
            }
            Workload::BigstatePipelined => {
                "1.3 KB documents over 20 000 seeded keys, pipelined commit path on one thread: \
                 loads state clone, MAC/hash by payload, decode cache; merges are 1-2 documents"
            }
            Workload::MvccReorderRetry => {
                "vanilla Fabric, Zipf 0.9, reordering orderer and client retries: loads cut/reorder \
                 and re-endorsement, never decodes or merges, about 36 % abort by design"
            }
            Workload::ReplicatedDurable => {
                "2 channels of 6-peer gossip, 3-node Raft and append-only files under a peer \
                 crash and a leader kill, then transfers: loads gossip, ordering, ledger, channel"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Workloads whose design commits every submitted transaction.
    fn commits_everything(self) -> bool {
        self != Workload::MvccReorderRetry
    }

    /// Whether the deployment validates with FabricCRDT's merging
    /// validator (and deploys the CRDT-flagging chaincode).
    pub fn is_crdt(self) -> bool {
        self != Workload::MvccReorderRetry
    }
}

/// One channel's generated inputs.
pub struct ChannelInput {
    pub schedule: Vec<(SimTime, TxRequest)>,
    pub seeds: Vec<(String, Vec<u8>)>,
}

#[derive(Clone, Copy, Default)]
pub struct Options<'a> {
    /// Same shapes at a smaller size, three repetitions.
    pub smoke: bool,
    /// Also run the checks too slow for every repetition.
    pub deep_checks: bool,
    /// `bigstate-pipelined` only: run the same schedule under
    /// `Sequential`, as the reference its ledger must equal.
    pub sequential_twin: bool,
    /// Install the decorators and record spans into this tracer.
    pub tracer: Option<&'a Tracer>,
    /// Keep the run's blocks and final state for the layer probes.
    /// `replicated-durable` can only do so through the decorators.
    pub capture: bool,
}

/// What a repetition must reproduce bit for bit, whatever the host did.
#[derive(Debug, Clone, PartialEq)]
pub struct Fidelity {
    pub submitted: u64,
    pub committed: u64,
    pub sim_tx_per_s: f64,
    pub sim_latency_ms_mean: f64,
    pub sim_latency_ms_p95: f64,
    pub latency_samples: u64,
    /// SHA-256 over every pipeline peer's encoded state and blocks.
    pub ledger_digest: String,
}

/// Deterministic per-layer counts of one repetition, summed over
/// channels.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub blocks: u64,
    pub retries: u64,
    pub early_aborts: u64,
    pub wasted_validation_work: u64,
    pub blocks_overlapped: u64,
    pub blocks_stalled: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub gossip_messages: u64,
    pub gossip_received: u64,
    pub gossip_redundant: u64,
    pub catchup_bytes: u64,
    pub snapshot_transfers: u64,
    pub raft_messages: u64,
    pub elections: u64,
    pub leader_changes: u64,
    pub submission_retries: u64,
    /// Longest simulated time between two consecutive block commits on
    /// one channel: the service gap a leader kill leaves.
    pub longest_commit_gap_ms: f64,
    pub transfers_committed: u64,
    pub transfers_aborted: u64,
}

impl Counters {
    fn absorb(&mut self, m: &RunMetrics) {
        self.blocks += m.blocks_committed;
        self.retries += m.retry.retries;
        self.wasted_validation_work += m.retry.wasted_validation_work;
        if let Some(policy) = &m.conflict_policy {
            self.early_aborts += policy.early_aborts();
        }
        if let Some(p) = &m.pipelined {
            self.blocks_overlapped += p.blocks_overlapped;
            self.blocks_stalled += p.blocks_stalled;
        }
        if let Some(c) = &m.decode_cache {
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
            self.cache_evictions += c.evictions;
        }
        if let Some(d) = &m.dissemination {
            self.gossip_messages += d.messages_sent;
            self.gossip_received +=
                (d.messages_sent + d.messages_duplicated).saturating_sub(d.messages_dropped);
            self.gossip_redundant += d.redundant_messages;
            self.catchup_bytes += d.anti_entropy_bytes + d.snapshot_bytes;
            self.snapshot_transfers += d.snapshot_transfers;
        }
        if let Some(o) = &m.ordering {
            self.raft_messages += o.messages_sent;
            self.elections += o.elections_started;
            self.leader_changes += o.leader_changes;
            self.submission_retries += o.submission_retries;
        }
        let mut commits: Vec<SimTime> = m.records.iter().filter_map(|r| r.committed_at).collect();
        commits.sort_unstable();
        commits.dedup();
        let gap = commits
            .windows(2)
            .map(|w| (w[1] - w[0]).as_millis_f64())
            .fold(0.0, f64::max);
        self.longest_commit_gap_ms = self.longest_commit_gap_ms.max(gap);
    }
}

/// What the layer probes replay: one channel's share of a run.
pub struct ChannelArtifacts {
    pub config: PipelineConfig,
    pub seeds: Vec<(String, Vec<u8>)>,
    /// The transactions as endorsed, in the order the orderer cut them.
    pub raw_blocks: Vec<(SimTime, Block)>,
    /// The pipeline peer's chain after genesis: validated, merged,
    /// re-sealed.
    pub committed: Vec<Block>,
    pub final_state: WorldState,
}

/// Host time spent in `MultiChannelNetwork` calls (`replicated-durable`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelTimes {
    pub run_s: f64,
    pub transfers_s: f64,
    pub verify_s: f64,
}

pub struct Repetition {
    pub schedule_gen_s: f64,
    /// Schedule generation + network/store construction + state seeding.
    pub setup_s: f64,
    /// The timed call: `run`, plus `execute_transfers` where there are
    /// transfers.
    pub wall_s: f64,
    pub channel_times: ChannelTimes,
    pub fidelity: Fidelity,
    pub counters: Counters,
    pub artifacts: Vec<ChannelArtifacts>,
}

// ------------------------------------------------------------- inputs

fn paper_seed_value() -> Vec<u8> {
    shaped_payload(JsonShape::paper_default(), "seed", usize::MAX)
        .to_compact_string()
        .into_bytes()
}

/// The paper's all-conflicting workload (§7.2) on `channels` channels.
fn hot_key_inputs(channels: usize, txs_per_client: usize, seed: u64) -> Vec<ChannelInput> {
    let seed_value = paper_seed_value();
    ChannelWorkload {
        txs_per_client,
        seed,
        ..ChannelWorkload::paper_defaults(channels)
    }
    .generate()
    .into_iter()
    .map(|generated| ChannelInput {
        schedule: generated.schedule,
        seeds: generated
            .seed_keys
            .into_iter()
            .map(|key| (key, seed_value.clone()))
            .collect(),
    })
    .collect()
}

/// `txs` transactions, each read-modify-writing a 32-reading (~1.3 KB)
/// CRDT document on a Zipf(0.6) key out of `keys` pre-seeded ones.
fn bigstate_input(txs: usize, keys: usize, seed: u64) -> ChannelInput {
    const READINGS: usize = 32;
    const PAD: &str = "0123456789abcdef0123456789abcdef";
    let mut rng = SimRng::seed_from(seed ^ 0xb165_7a7e);
    let arrivals = ArrivalProcess::new(RATE_TPS, txs, ArrivalKind::Uniform).generate(&mut rng);
    let zipf = ZipfSampler::new(keys, 0.6);
    let schedule = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let key = ZipfWorkload::key(zipf.sample(&mut rng));
            let readings: Vec<String> = (0..READINGS)
                .map(|j| format!(r#""r{i}-{j}-{PAD}""#))
                .collect();
            let doc = format!(
                r#"{{"deviceID":"{key}","readings":[{}]}}"#,
                readings.join(",")
            );
            let keys = std::slice::from_ref(&key);
            (
                at,
                TxRequest::new("iot-crdt", IotChaincode::args(keys, keys, &doc)),
            )
        })
        .collect();
    ChannelInput {
        schedule,
        seeds: zipf_seeds(keys),
    }
}

fn zipf_seeds(keys: usize) -> Vec<(String, Vec<u8>)> {
    (0..keys)
        .map(|k| (ZipfWorkload::key(k), ZipfWorkload::seed_doc()))
        .collect()
}

fn mvcc_input(txs: usize, keys: usize, seed: u64) -> ChannelInput {
    let workload = ZipfWorkload {
        chaincode: "iot".into(),
        total_txs: txs,
        keys,
        skew: 0.9,
        rate_tps: RATE_TPS,
        seed,
    };
    ChannelInput {
        schedule: workload.schedule(),
        seeds: zipf_seeds(keys),
    }
}

fn asset_key(i: usize) -> String {
    format!("asset-{i}")
}

/// Transfer `i` moves `asset-i` from channel `i % 2` to the other one.
fn transfer_specs() -> Vec<TransferSpec> {
    (0..TRANSFERS)
        .map(|i| TransferSpec {
            key: asset_key(i),
            from: ChannelId((i % 2) as u32),
            to: ChannelId(((i + 1) % 2) as u32),
            inject_failure: i == TRANSFERS - 1,
            destination_down: false,
        })
        .collect()
}

// ------------------------------------------------------------ configs

fn single_config(workload: Workload, seed: u64, sequential_twin: bool) -> PipelineConfig {
    match workload {
        Workload::HotkeyMerge => PipelineConfig::paper(400, seed),
        Workload::BigstatePipelined if sequential_twin => PipelineConfig::paper(25, seed),
        // One worker: the staged cross-block commit path with its
        // pre-validation on the driver thread. A second busy thread on a
        // shared 2-thread host more than doubled the run-to-run spread
        // (README "Noise protocol"); `fabric.pipelined_speedup` reports
        // what the pool adds.
        Workload::BigstatePipelined => PipelineConfig::paper(25, seed).with_pipelined_validation(1),
        Workload::MvccReorderRetry => PipelineConfig::paper(400, seed)
            .with_ordering_policy(OrderingPolicy::Reorder)
            .with_retry_policy(RetryPolicy::calibrated(2)),
        Workload::ReplicatedDurable => unreachable!("built by replicated_config"),
    }
}

/// Two channels over 6-peer gossip, 3-node Raft and append-only files
/// under `dir`. Gossip peer 3 is down from 20 % to 60 % of the nominal
/// span of the schedule, the Raft leader from 40 % to 70 %.
fn replicated_config(seed: u64, txs_per_channel: usize, dir: &Path) -> MultiChannelConfig {
    let span = txs_per_channel as f64 / RATE_TPS;
    let crash = |peer, from: f64, to: f64| CrashSpec {
        peer,
        at: SimTime::from_secs_f64(span * from),
        restart_at: SimTime::from_secs_f64(span * to),
    };
    let mut raft = RaftConfig::calibrated(3);
    raft.faults.crashes.push(crash(0, 0.4, 0.7));
    let mut faults = FaultConfig::none();
    faults.crashes.push(crash(3, 0.2, 0.6));
    let base = PipelineConfig::paper(25, seed)
        .with_gossip()
        .with_faults(faults)
        .with_raft_config(raft)
        .with_storage(
            StorageConfig::append_only(dir)
                .with_snapshot_interval(10)
                .with_gc(true),
        );
    MultiChannelConfig::uniform(base, 2)
}

fn registry(workload: Workload, tracer: Option<&Tracer>) -> ChaincodeRegistry {
    let chaincode: Arc<dyn Chaincode> = if workload.is_crdt() {
        Arc::new(IotChaincode::crdt())
    } else {
        Arc::new(IotChaincode::plain())
    };
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(match tracer {
        Some(tracer) => Arc::new(TracedChaincode {
            inner: chaincode,
            tracer: tracer.clone(),
        }),
        None => chaincode,
    });
    registry
}

// -------------------------------------------------------- repetitions

/// Runs one repetition of `workload` on a freshly built network.
/// `scratch` is a directory of this repetition's own for files the
/// deployment writes; the caller removes it.
///
/// # Errors
///
/// Returns what was wrong when an output check fails.
pub fn repetition(
    workload: Workload,
    seed: u64,
    options: Options<'_>,
    scratch: &Path,
) -> Result<Repetition, String> {
    match workload {
        Workload::ReplicatedDurable => replicated(seed, options, scratch),
        Workload::MvccReorderRetry => single(workload, seed, options, FabricValidator::new),
        _ => single(workload, seed, options, CrdtValidator::new),
    }
}

fn single<V: BlockValidator>(
    workload: Workload,
    seed: u64,
    options: Options<'_>,
    make_validator: fn() -> V,
) -> Result<Repetition, String> {
    let started = Instant::now();
    let smoke = options.smoke;
    let input = match workload {
        Workload::HotkeyMerge => hot_key_inputs(1, if smoke { 200 } else { 500 }, seed).remove(0),
        Workload::BigstatePipelined if smoke => bigstate_input(250, 1_000, seed),
        Workload::BigstatePipelined => bigstate_input(400, 20_000, seed),
        Workload::MvccReorderRetry if smoke => mvcc_input(1_500, 100, seed),
        Workload::MvccReorderRetry => mvcc_input(8_000, 2_000, seed),
        Workload::ReplicatedDurable => unreachable!("built by replicated"),
    };
    let schedule_gen_s = started.elapsed().as_secs_f64();
    let config = single_config(workload, seed, options.sequential_twin);
    let registry = registry(workload, options.tracer);
    match options.tracer {
        None => {
            let sim = Simulation::new(config.clone(), make_validator(), registry);
            run_single(
                workload,
                sim,
                config,
                input,
                started,
                schedule_gen_s,
                options,
            )
        }
        Some(tracer) => {
            let sim = Simulation::with_layers(
                config.clone(),
                TracedValidator {
                    inner: make_validator(),
                    tracer: tracer.clone(),
                    role: Role::Pipeline {
                        channel: 0,
                        sink: None,
                    },
                },
                registry,
                Box::new(TracedDelivery {
                    inner: IdealFifoDelivery::new(),
                    tracer: tracer.clone(),
                }),
                Box::new(TracedOrdering {
                    inner: SingleOrderer::from_config(&config),
                    tracer: tracer.clone(),
                }),
            );
            run_single(
                workload,
                sim,
                config,
                input,
                started,
                schedule_gen_s,
                options,
            )
        }
    }
}

fn run_single<V: BlockValidator>(
    workload: Workload,
    mut sim: Simulation<V>,
    config: PipelineConfig,
    input: ChannelInput,
    started: Instant,
    schedule_gen_s: f64,
    options: Options<'_>,
) -> Result<Repetition, String> {
    for (key, value) in &input.seeds {
        sim.seed_state(key.clone(), value.clone());
    }
    if options.capture {
        sim.enable_block_log();
    }
    let setup_s = started.elapsed().as_secs_f64();

    cache::clear();
    let root = options.tracer.map(Tracer::root);
    let timed = Instant::now();
    let metrics = sim.run(input.schedule);
    let wall_s = timed.elapsed().as_secs_f64();
    drop(root);

    let mut digest = Sha256::new();
    absorb_ledger(&mut digest, sim.peer());
    let fidelity = fidelity(
        workload,
        std::slice::from_ref(&metrics),
        metrics.successful_throughput_tps(),
        digest,
    )?;
    let mut counters = Counters::default();
    counters.absorb(&metrics);
    let artifacts = if options.capture {
        vec![ChannelArtifacts {
            config,
            seeds: input.seeds,
            raw_blocks: sim.take_block_log(),
            committed: committed_blocks(sim.peer()),
            final_state: sim.peer().state().clone(),
        }]
    } else {
        Vec::new()
    };
    Ok(Repetition {
        schedule_gen_s,
        setup_s,
        wall_s,
        channel_times: ChannelTimes::default(),
        fidelity,
        counters,
        artifacts,
    })
}

fn replicated(seed: u64, options: Options<'_>, scratch: &Path) -> Result<Repetition, String> {
    let workload = Workload::ReplicatedDurable;
    let started = Instant::now();
    let txs_per_client = if options.smoke { 30 } else { 160 };
    let mut inputs = hot_key_inputs(2, txs_per_client, seed);
    for i in 0..TRANSFERS {
        inputs[i % 2]
            .seeds
            .push((asset_key(i), br#"{"owner":"orig"}"#.to_vec()));
    }
    let schedule_gen_s = started.elapsed().as_secs_f64();
    let config = replicated_config(seed, inputs[0].schedule.len(), scratch);
    let registry = registry(workload, options.tracer);
    match options.tracer {
        None => {
            let net = MultiChannelNetwork::new(config, registry, CrdtValidator::new);
            run_replicated(net, inputs, started, schedule_gen_s, options, None)
        }
        Some(tracer) => {
            // `MultiChannelNetwork::new` builds every gossip replica's
            // validator first, then one per channel for the pipeline
            // peers; validators built later belong to restarted replicas.
            let replicas: usize = config.channels.iter().map(|c| c.members.len()).sum();
            let channels = config.channel_count();
            let sink = options.capture.then(BlockSink::default);
            let built = Rc::new(Cell::new(0usize));
            let tracer = tracer.clone();
            let role_sink = sink.clone();
            let make = move || {
                let n = built.get();
                built.set(n + 1);
                let role = if (replicas..replicas + channels).contains(&n) {
                    Role::Pipeline {
                        channel: n - replicas,
                        sink: role_sink.clone(),
                    }
                } else {
                    Role::Replica
                };
                TracedValidator {
                    inner: CrdtValidator::new(),
                    tracer: tracer.clone(),
                    role,
                }
            };
            let net = MultiChannelNetwork::new(config, registry, make);
            run_replicated(net, inputs, started, schedule_gen_s, options, sink)
        }
    }
}

fn run_replicated<V: BlockValidator>(
    mut net: MultiChannelNetwork<V>,
    inputs: Vec<ChannelInput>,
    started: Instant,
    schedule_gen_s: f64,
    options: Options<'_>,
    sink: Option<BlockSink>,
) -> Result<Repetition, String> {
    let workload = Workload::ReplicatedDurable;
    let specs = transfer_specs();
    let mut schedules = Vec::new();
    let mut seeds = Vec::new();
    for (c, input) in inputs.into_iter().enumerate() {
        for (key, value) in &input.seeds {
            net.seed_state(c, key.clone(), value.clone());
        }
        schedules.push(input.schedule);
        seeds.push(input.seeds);
    }
    let setup_s = started.elapsed().as_secs_f64();

    cache::clear();
    let root = options.tracer.map(Tracer::root);
    let timed = Instant::now();
    let rollup = net.run(schedules);
    let run_s = timed.elapsed().as_secs_f64();
    let reports = net.execute_transfers(&specs);
    let wall_s = timed.elapsed().as_secs_f64();
    drop(root);

    let verifying = Instant::now();
    let mut counters = Counters::default();
    for report in &reports {
        match report.outcome {
            TransferOutcome::Committed => counters.transfers_committed += 1,
            TransferOutcome::Aborted => counters.transfers_aborted += 1,
        }
    }
    if (counters.transfers_committed, counters.transfers_aborted) != (TRANSFERS as u64 - 1, 1) {
        return Err(format!(
            "transfers: {} committed and {} aborted, expected {} and 1",
            counters.transfers_committed,
            counters.transfers_aborted,
            TRANSFERS - 1
        ));
    }
    check_transferred_keys(&net, &specs)?;
    check_replicas_converged(&net)?;
    if options.deep_checks {
        check_recovery(&net, &seeds[0])?;
    }
    let verify_s = verifying.elapsed().as_secs_f64();

    let mut digest = Sha256::new();
    for c in 0..net.channel_count() {
        absorb_ledger(&mut digest, net.simulation(c).peer());
    }
    let per_channel: Vec<RunMetrics> = rollup.channels.iter().map(|c| c.metrics.clone()).collect();
    let fidelity = fidelity(workload, &per_channel, rollup.aggregate_tps(), digest)?;
    for metrics in &per_channel {
        counters.absorb(metrics);
    }

    let artifacts = match sink {
        None => Vec::new(),
        Some(sink) => {
            let mut raw: Vec<Vec<(SimTime, Block)>> = vec![Vec::new(); net.channel_count()];
            for (c, block) in sink.take() {
                // The cut time is not observable from outside; the
                // probes only need times that grow at the block rate.
                let block_size = net.config().base.block_cut.max_tx_count as f64;
                let at = SimTime::from_secs_f64(block.header.number as f64 * block_size / RATE_TPS);
                raw[c].push((at, block));
            }
            raw.into_iter()
                .zip(seeds)
                .enumerate()
                .map(|(c, (raw_blocks, seeds))| {
                    let peer = net.simulation(c).peer();
                    ChannelArtifacts {
                        config: net.config().pipeline_for(c),
                        seeds,
                        raw_blocks,
                        committed: committed_blocks(peer),
                        final_state: peer.state().clone(),
                    }
                })
                .collect()
        }
    };
    Ok(Repetition {
        schedule_gen_s,
        setup_s,
        wall_s,
        channel_times: ChannelTimes {
            run_s,
            transfers_s: wall_s - run_s,
            verify_s,
        },
        fidelity,
        counters,
        artifacts,
    })
}

// ------------------------------------------------------------- checks

fn absorb_ledger<V: BlockValidator>(digest: &mut Sha256, peer: &Peer<V>) {
    digest.update(&codec::encode_state(peer.state()));
    for block in peer.chain().iter() {
        digest.update(&codec::encode_block(block));
    }
}

fn committed_blocks<V: BlockValidator>(peer: &Peer<V>) -> Vec<Block> {
    peer.chain()
        .iter()
        .filter(|b| b.header.number > 0)
        .cloned()
        .collect()
}

fn fidelity(
    workload: Workload,
    channels: &[RunMetrics],
    sim_tx_per_s: f64,
    ledger: Sha256,
) -> Result<Fidelity, String> {
    let submitted: usize = channels.iter().map(RunMetrics::submitted).sum();
    let committed: usize = channels.iter().map(RunMetrics::successful).sum();
    let unresolved = channels
        .iter()
        .flat_map(|m| &m.records)
        .filter(|r| r.code.is_none())
        .count();
    if unresolved > 0 {
        return Err(format!(
            "{unresolved} of {submitted} transactions ended without a verdict"
        ));
    }
    if workload.commits_everything() && committed != submitted {
        return Err(format!(
            "{committed} of {submitted} transactions committed, expected all"
        ));
    }
    let latencies = Summary::from_times(
        &channels
            .iter()
            .flat_map(|m| &m.records)
            .filter_map(|r| r.latency())
            .collect::<Vec<_>>(),
    );
    if highest_supported_percentile(latencies.count()).is_none_or(|p| p < 95.0) {
        return Err(format!(
            "{} latency samples leave fewer than ten beyond the 95th percentile",
            latencies.count()
        ));
    }
    let ms = |secs: Option<f64>| secs.expect("the percentile rule saw samples") * 1e3;
    Ok(Fidelity {
        submitted: submitted as u64,
        committed: committed as u64,
        sim_tx_per_s,
        sim_latency_ms_mean: ms(latencies.mean()),
        sim_latency_ms_p95: ms(latencies.percentile(95.0)),
        latency_samples: latencies.count() as u64,
        ledger_digest: hex::encode(&ledger.finalize()),
    })
}

/// A committed transfer leaves the key live on the destination only
/// (the source keeps an escrow marker); an aborted one restores it on
/// the source only.
fn check_transferred_keys<V: BlockValidator>(
    net: &MultiChannelNetwork<V>,
    specs: &[TransferSpec],
) -> Result<(), String> {
    for spec in specs {
        let live: Vec<usize> = (0..net.channel_count())
            .filter(|&c| {
                net.simulation(c)
                    .peer()
                    .state()
                    .value(&spec.key)
                    .is_some_and(|v| !v.starts_with(b"__escrowed/"))
            })
            .collect();
        let expected = if spec.inject_failure {
            spec.from
        } else {
            spec.to
        };
        if live != [expected.0 as usize] {
            return Err(format!(
                "{} is live on channels {live:?}, expected only {expected}",
                spec.key
            ));
        }
    }
    Ok(())
}

/// Every replica is up, at the pipeline peer's height, and holds its
/// world-state bytes and tip hash. Chain bytes are not compared: a
/// replica recovered from a snapshot legitimately holds a shorter chain.
fn check_replicas_converged<V: BlockValidator>(net: &MultiChannelNetwork<V>) -> Result<(), String> {
    let network = net.network();
    for (c, spec) in net.config().channels.iter().enumerate() {
        let reference = net.simulation(c).peer();
        let state = codec::encode_state(reference.state());
        for &member in &spec.members {
            let Some(replica) = network.peer_on(c, member) else {
                return Err(format!("{}: replica {member} is down", spec.id));
            };
            if replica.chain().height() != reference.chain().height()
                || replica.chain().tip_hash() != reference.chain().tip_hash()
                || codec::encode_state(replica.state()) != state
            {
                return Err(format!(
                    "{}: replica {member} diverged from the pipeline peer",
                    spec.id
                ));
            }
        }
    }
    Ok(())
}

/// `DurableLedger::recover` from the file of channel 0's crashed-and-
/// restarted replica reproduces that replica's live state.
fn check_recovery<V: BlockValidator>(
    net: &MultiChannelNetwork<V>,
    seeds: &[(String, Vec<u8>)],
) -> Result<(), String> {
    let config = &net.config().base;
    let peer = config.faults.crashes[0].peer;
    let storage = config
        .storage
        .as_ref()
        .expect("replicated_config sets storage");
    let recovered = DurableLedger::open_channel(storage, ChannelId(0), peer)
        .map_err(|e| format!("reopening replica {peer}'s file: {e}"))?
        .recover_seeded(CrdtValidator::new(), config.policy.clone(), |fresh| {
            for (key, value) in seeds {
                fresh.seed_state(key.clone(), value.clone());
            }
        })
        .map_err(|e| format!("recovering replica {peer}: {e}"))?
        .peer;
    let network = net.network();
    let live = network
        .peer_on(0, peer)
        .ok_or_else(|| format!("replica {peer} is down"))?;
    if recovered.chain().tip_hash() != live.chain().tip_hash()
        || codec::encode_state(recovered.state()) != codec::encode_state(live.state())
    {
        return Err(format!(
            "replica {peer} recovered from its file differs from its live ledger"
        ));
    }
    Ok(())
}
