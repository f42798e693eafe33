//! Layer probes: the run's own blocks and transactions replayed through
//! one layer at a time, timed from outside.
//!
//! A probe reports what its layer costs on this workload's data whether
//! or not the deployment calls the layer; README.md's interaction table
//! says where each one bears on the end-to-end numbers. Probes that can
//! check themselves (replay, recovery) fail the run on a mismatch.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fabriccrdt_crypto::{sha256, Digest, KeyPair};
use fabriccrdt_fabric::orderer::Orderer;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::pipeline::ValidationPipeline;
use fabriccrdt_fabric::reorder::reorder_batch;
use fabriccrdt_fabric::simulation::OrderingBackend;
use fabriccrdt_fabric::storage::{DurableLedger, StorageBackend, StorageConfig};
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_gossip::network::GossipNetwork;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{cache, JsonCrdt, ReplicaId};
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::store::LedgerSnapshot;
use fabriccrdt_ledger::transaction::Transaction;
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_ledger::{codec, mvcc};
use fabriccrdt_ordering::RaftOrderingBackend;
use fabriccrdt_sim::time::SimTime;

use crate::metrics::Values;
use crate::stats::{quantile, Spread};
use crate::trace::{self, Role, TracedOrdering, TracedValidator, Tracer};
use crate::workload::ChannelArtifacts;

const MIB: f64 = 1024.0 * 1024.0;

/// Replays are timed twice and the faster one kept.
const REPLAYS: usize = 2;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn raw_txs(artifacts: &[ChannelArtifacts]) -> impl Iterator<Item = &Transaction> {
    artifacts
        .iter()
        .flat_map(|a| &a.raw_blocks)
        .flat_map(|(_, b)| &b.transactions)
}

/// What the probes replay, and where they may write.
pub struct Probes<'a> {
    pub artifacts: &'a [ChannelArtifacts],
    /// Whether the deployment's MVCC stage skips CRDT-flagged pairs.
    pub crdt_aware: bool,
    /// The fastest untraced repetition, the base of
    /// `crypto.endorse_verify_share`.
    pub best_wall_s: f64,
    pub scratch: &'a Path,
}

impl Probes<'_> {
    /// Runs every probe and records its metrics in `values`;
    /// `make_validator` builds the deployment's validator.
    ///
    /// # Errors
    ///
    /// Returns what was wrong when a probe's self-check fails.
    pub fn run<V: BlockValidator>(
        &self,
        make_validator: fn() -> V,
        values: &mut Values,
    ) -> Result<(), String> {
        let Probes {
            artifacts,
            crdt_aware,
            best_wall_s,
            scratch,
        } = *self;
        let txs = raw_txs(artifacts).count() as f64;
        let blocks = artifacts.iter().map(|a| a.raw_blocks.len()).sum::<usize>() as f64;
        if txs == 0.0 {
            return Err("the run left no blocks to probe".into());
        }
        values.insert("fabric.txs_per_block_mean", txs / blocks);

        crypto(artifacts, best_wall_s, values);
        jsoncrdt(artifacts, values);
        ledger_codec(artifacts, values);
        ledger_mvcc(artifacts, crdt_aware, values);
        ledger_state(artifacts, values);
        ordering_cut(artifacts, values);

        let mut block_us = Vec::new();
        let (mut wall_s, mut pipelined_s, mut pre_s, mut finalize_s) = (0.0, 0.0, 0.0, 0.0);
        let mut storage = Storage::default();
        for (c, art) in artifacts.iter().enumerate() {
            let mut replay = replay_sequential(art, make_validator)?;
            for _ in 1..REPLAYS {
                let again = replay_sequential(art, make_validator)?;
                if again.wall_s < replay.wall_s {
                    replay = again;
                }
            }
            pipelined_s += (0..REPLAYS)
                .map(|_| replay_pipelined(art, make_validator))
                .fold(f64::INFINITY, f64::min);
            storage.probe(
                art,
                &replay,
                make_validator,
                &scratch.join(format!("aof-probe-{c}")),
            )?;
            wall_s += replay.wall_s;
            pre_s += replay.pre_validate_s;
            finalize_s += replay.finalize_s;
            block_us.extend(replay.block_us);
        }
        block_us.sort_by(f64::total_cmp);
        values.insert("fabric.peer_block_us_p50", quantile(&block_us, 0.5));
        values.insert("fabric.peer_block_us_p95", quantile(&block_us, 0.95));
        values.insert("fabric.prevalidate_share", pre_s / wall_s);
        values.insert("fabric.finalize_share", finalize_s / wall_s);
        values.insert("fabric.pipelined_speedup", wall_s / pipelined_s);
        storage.record(txs, blocks, values);

        if artifacts.iter().any(|a| a.config.gossip.is_some()) {
            gossip(artifacts, make_validator, scratch, values)?;
        }
        if artifacts.iter().any(|a| a.config.ordering.is_some()) {
            raft(artifacts, values)?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------- crypto

fn crypto(artifacts: &[ChannelArtifacts], best_wall_s: f64, values: &mut Values) {
    let encoded: Vec<Vec<u8>> = artifacts
        .iter()
        .flat_map(|a| &a.committed)
        .map(codec::encode_block)
        .collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let ((), hash_s) = timed(|| {
        for block in &encoded {
            black_box(sha256::digest(black_box(block)));
        }
    });
    values.insert("crypto.sha256_mib_per_s", bytes as f64 / MIB / hash_s);

    let (mut sign_s, mut verify_s) = (0.0, 0.0);
    let (mut endorsements, mut verifies, mut txs) = (0.0, 0.0, 0.0);
    for art in artifacts {
        // The pipeline peer verifies every endorsement, and so does
        // every gossip replica of the channel.
        let validating_peers = match art.config.gossip {
            Some(_) => 1 + art.config.topology.total_peers(),
            None => 1,
        } as f64;
        for tx in art.raw_blocks.iter().flat_map(|(_, b)| &b.transactions) {
            let payload = tx.response_payload();
            txs += 1.0;
            for endorsement in &tx.endorsements {
                endorsements += 1.0;
                verifies += validating_peers;
                let endorser = || endorsement.endorser.clone();
                sign_s += timed(|| black_box(KeyPair::derive(endorser()).sign(&payload))).1;
                verify_s += timed(|| {
                    black_box(KeyPair::derive(endorser()).verify(&payload, &endorsement.signature))
                        .is_ok()
                })
                .1;
            }
        }
    }
    let verify_ns = verify_s * 1e9 / endorsements;
    values.insert("crypto.sign_ns", sign_s * 1e9 / endorsements);
    values.insert("crypto.verify_ns", verify_ns);
    values.insert("crypto.verifies_per_tx", verifies / txs);
    values.insert(
        "crypto.endorse_verify_share",
        verifies * verify_ns / (best_wall_s * 1e9),
    );
}

// ----------------------------------------------------------- jsoncrdt

fn jsoncrdt(artifacts: &[ChannelArtifacts], values: &mut Values) {
    let (mut payloads, mut bytes, mut parse_s, mut merge_s) = (0.0f64, 0.0, 0.0, 0.0);
    for (_, block) in artifacts.iter().flat_map(|a| &a.raw_blocks) {
        // Written documents of this block by key, in block order: the
        // groups Algorithm 1 merges.
        let mut groups: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
        for tx in &block.transactions {
            for (key, entry) in tx.rwset.writes.iter().filter(|(_, e)| !e.is_delete) {
                let (parsed, secs) = timed(|| Value::from_bytes(black_box(&entry.value)));
                let Ok(value) = parsed else { continue };
                payloads += 1.0;
                bytes += entry.value.len() as f64;
                parse_s += secs;
                if value.as_map().is_some() {
                    groups.entry(key).or_default().push(value);
                }
            }
        }
        merge_s += timed(|| {
            for documents in groups.values() {
                let mut merged = JsonCrdt::new(ReplicaId(1));
                for document in documents {
                    // A document the CRDT rejects stays unmerged, as in
                    // the validator.
                    let _ = merged.merge_value(document);
                }
                black_box(merged.to_value().to_bytes());
            }
        })
        .1;
    }
    let txs = raw_txs(artifacts).count() as f64;
    values.insert(
        "jsoncrdt.parse_ns_per_payload",
        parse_s * 1e9 / payloads.max(1.0),
    );
    values.insert("jsoncrdt.payload_bytes_mean", bytes / payloads.max(1.0));
    values.insert("jsoncrdt.merge_ns_per_tx", merge_s * 1e9 / txs);
}

// ------------------------------------------------------------- ledger

fn ledger_codec(artifacts: &[ChannelArtifacts], values: &mut Values) {
    let committed: Vec<&Block> = artifacts.iter().flat_map(|a| &a.committed).collect();
    let txs = committed.iter().map(|b| b.len()).sum::<usize>() as f64;
    let (encoded, encode_s) = timed(|| {
        committed
            .iter()
            .map(|b| codec::encode_block(b))
            .collect::<Vec<_>>()
    });
    let (decoded, decode_s) = timed(|| {
        encoded
            .iter()
            .filter(|bytes| codec::decode_block(bytes).is_ok())
            .count()
    });
    assert_eq!(decoded, encoded.len(), "encode_block output decodes");
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    values.insert("ledger.encode_ns_per_tx", encode_s * 1e9 / txs);
    values.insert("ledger.decode_ns_per_tx", decode_s * 1e9 / txs);
    values.insert("ledger.block_bytes_per_tx", bytes as f64 / txs);
}

fn seeded_state(art: &ChannelArtifacts) -> WorldState {
    let mut state = WorldState::new();
    for (key, value) in &art.seeds {
        state.put(key.clone(), value.clone(), Height::genesis());
    }
    state
}

fn ledger_mvcc(artifacts: &[ChannelArtifacts], crdt_aware: bool, values: &mut Values) {
    let mut secs = 0.0;
    for art in artifacts {
        let mut state = seeded_state(art);
        let mut blocks = raw_block_copies(art);
        secs += timed(|| {
            for block in &mut blocks {
                black_box(mvcc::validate_and_commit(
                    block,
                    &mut state,
                    &[],
                    crdt_aware,
                ));
            }
        })
        .1;
    }
    let txs = raw_txs(artifacts).count() as f64;
    values.insert("ledger.mvcc_ns_per_tx", secs * 1e9 / txs);
}

fn ledger_state(artifacts: &[ChannelArtifacts], values: &mut Values) {
    let keys: usize = artifacts.iter().map(|a| a.final_state.len()).sum();
    let clones: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                for art in artifacts {
                    black_box(art.final_state.clone());
                }
            })
            .1
        })
        .collect();
    values.insert("ledger.state_keys", keys as f64);
    values.insert("ledger.state_clone_us", Spread::of(&clones).fastest * 1e6);
}

/// The append-only-file store fed this run's committed blocks, with a
/// snapshot and a compaction at mid-chain, then recovered from the file
/// alone. Sums over channels.
#[derive(Default)]
struct Storage {
    append_s: f64,
    file_bytes: f64,
    snapshot_s: f64,
    snapshot_bytes: f64,
    compact_s: f64,
    recover_s: f64,
}

impl Storage {
    fn probe<V: BlockValidator>(
        &mut self,
        art: &ChannelArtifacts,
        replay: &Replay,
        make_validator: fn() -> V,
        dir: &Path,
    ) -> Result<(), String> {
        let config = StorageConfig::append_only(dir);
        let io = |e| format!("append-only-file probe: {e}");
        let mut ledger = DurableLedger::open(&config, 0).map_err(io)?;
        for block in &art.committed {
            self.append_s += timed(|| ledger.append_block(block)).1;
        }
        self.file_bytes += std::fs::metadata(dir.join("peer-0.aof"))
            .map_err(|e| format!("append-only-file probe: {e}"))?
            .len() as f64;
        self.snapshot_s += replay.snapshot_s;
        self.snapshot_bytes += replay.snapshot.encoded_len() as f64;
        let mid = replay.snapshot.last_block;
        ledger.put_snapshot(replay.snapshot.clone()).map_err(io)?;
        self.compact_s += timed(|| ledger.compact_up_to(mid)).1;
        drop(ledger);

        let (recovered, secs) = timed(|| {
            DurableLedger::open(&config, 0)
                .map_err(io)?
                .recover(make_validator(), art.config.policy.clone())
                .map_err(|e| format!("append-only-file probe: {e}"))
        });
        self.recover_s += secs;
        let recovered = recovered?;
        if !recovered.used_snapshot
            || recovered.peer.chain().tip_hash() != replay.tip_hash
            || codec::encode_state(recovered.peer.state()) != replay.state
        {
            return Err("append-only-file probe: the recovered ledger differs".into());
        }
        Ok(())
    }

    fn record(&self, txs: f64, blocks: f64, values: &mut Values) {
        values.insert(
            "ledger.aof_append_us_per_block",
            self.append_s * 1e6 / blocks,
        );
        values.insert("ledger.aof_bytes_per_tx", self.file_bytes / txs);
        values.insert("ledger.snapshot_encode_ms", self.snapshot_s * 1e3);
        values.insert("ledger.snapshot_bytes", self.snapshot_bytes);
        values.insert("ledger.compact_ms", self.compact_s * 1e3);
        values.insert("ledger.recover_ms", self.recover_s * 1e3);
    }
}

// ------------------------------------------------------------- fabric

/// `Orderer::receive` under the workload's policy over the run's
/// transactions, and `reorder_batch` over each of its blocks.
fn ordering_cut(artifacts: &[ChannelArtifacts], values: &mut Values) {
    let (mut cut_s, mut reorder_s) = (0.0, 0.0);
    for art in artifacts {
        let mut orderer =
            Orderer::with_policy(art.config.block_cut, art.config.effective_ordering_policy());
        for (at, block) in &art.raw_blocks {
            let batch = block.transactions.clone();
            reorder_s += timed(|| black_box(reorder_batch(batch))).1;
            for tx in block.transactions.iter().cloned() {
                cut_s += timed(|| black_box(orderer.receive(tx, *at))).1;
            }
        }
    }
    let txs = raw_txs(artifacts).count() as f64;
    let blocks = artifacts.iter().map(|a| a.raw_blocks.len()).sum::<usize>() as f64;
    values.insert("fabric.cut_ns_per_tx", cut_s * 1e9 / txs);
    values.insert("fabric.reorder_us_per_batch", reorder_s * 1e6 / blocks);
}

struct Replay {
    wall_s: f64,
    block_us: Vec<f64>,
    pre_validate_s: f64,
    finalize_s: f64,
    /// The ledger at mid-chain, and how long exporting and encoding it
    /// took (outside `wall_s`).
    snapshot: LedgerSnapshot,
    snapshot_s: f64,
    tip_hash: Digest,
    state: Vec<u8>,
}

fn fresh_peer<V: BlockValidator>(
    art: &ChannelArtifacts,
    make_validator: fn() -> V,
    pipeline: ValidationPipeline,
) -> Peer<V> {
    let mut peer = Peer::new(make_validator(), art.config.policy.clone())
        .with_pipeline(pipeline)
        .with_channel(art.config.channel);
    for (key, value) in &art.seeds {
        peer.seed_state(key.clone(), value.clone());
    }
    peer
}

fn raw_block_copies(art: &ChannelArtifacts) -> Vec<Block> {
    art.raw_blocks.iter().map(|(_, b)| b.clone()).collect()
}

/// The run's blocks through a fresh `Sequential` peer, `process_block` +
/// `commit` each. Must end in the run's own final state.
fn replay_sequential<V: BlockValidator>(
    art: &ChannelArtifacts,
    make_validator: fn() -> V,
) -> Result<Replay, String> {
    let mut peer = fresh_peer(art, make_validator, ValidationPipeline::Sequential);
    let blocks = raw_block_copies(art);
    let mid = blocks.len().div_ceil(2);
    let mut block_us = Vec::with_capacity(blocks.len());
    let (mut pre_validate_s, mut finalize_s, mut wall_s) = (0.0, 0.0, 0.0);
    let mut snapshot = None;
    cache::clear();
    for (i, block) in blocks.into_iter().enumerate() {
        let started = Instant::now();
        let staged = peer.process_block(block);
        pre_validate_s += staged.timings.pre_validate_secs;
        finalize_s += staged.timings.finalize_secs;
        peer.commit(staged)
            .map_err(|e| format!("replay: block {} does not extend the chain: {e:?}", i + 1))?;
        let secs = started.elapsed().as_secs_f64();
        wall_s += secs;
        block_us.push(secs * 1e6);
        if i + 1 == mid {
            snapshot = Some(timed(|| {
                let snapshot = peer.ledger_snapshot();
                black_box(snapshot.to_bytes());
                snapshot
            }));
        }
    }
    let state = codec::encode_state(peer.state());
    if state != codec::encode_state(&art.final_state) {
        return Err("replay: a fresh peer fed the run's blocks ends in another state".into());
    }
    let (snapshot, snapshot_s) = snapshot.expect("the run left at least one block");
    Ok(Replay {
        wall_s,
        block_us,
        pre_validate_s,
        finalize_s,
        snapshot,
        snapshot_s,
        tip_hash: peer.chain().tip_hash(),
        state,
    })
}

/// The same blocks through a fresh `Pipelined {2}` peer with the chained
/// driver: block N+1 pre-validates on the pool while block N finalizes.
fn replay_pipelined<V: BlockValidator>(art: &ChannelArtifacts, make_validator: fn() -> V) -> f64 {
    let mut peer = fresh_peer(art, make_validator, ValidationPipeline::pipelined(2));
    let mut blocks = raw_block_copies(art).into_iter();
    cache::clear();
    timed(|| {
        let first = blocks.next().expect("the run left at least one block");
        let mut prepared = peer.prevalidate(first);
        for block in blocks {
            let (staged, next) = peer.finish_block_with_next(prepared, block);
            peer.commit(staged).expect("sequential replay accepted it");
            prepared = next;
        }
        let staged = peer.finish_block(prepared);
        peer.commit(staged).expect("sequential replay accepted it");
    })
    .1
}

// -------------------------------------------------- gossip and ordering

/// Each channel's blocks published into a standalone gossip network
/// built from the channel's own configuration (fault schedule and
/// storage included), one `deliver` span per block.
fn gossip<V: BlockValidator>(
    artifacts: &[ChannelArtifacts],
    make_validator: fn() -> V,
    scratch: &Path,
    values: &mut Values,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let root = tracer.root();
    for (c, art) in artifacts.iter().enumerate() {
        let mut config = art.config.clone();
        let Some(gossip) = &config.gossip else {
            continue;
        };
        let observed = gossip.observed_peer;
        if let Some(storage) = &mut config.storage {
            storage.backend = StorageBackend::AppendOnlyFile {
                dir: scratch.join(format!("gossip-probe-{c}")),
            };
        }
        let replica_tracer = tracer.clone();
        let mut network = GossipNetwork::new(&config, move || TracedValidator {
            inner: make_validator(),
            tracer: replica_tracer.clone(),
            role: Role::Replica,
        });
        for (key, value) in &art.seeds {
            network.seed_state(key, value);
        }
        for (at, block) in &art.raw_blocks {
            let number = block.header.number;
            let block = block.clone();
            let _span = tracer.span(trace::DELIVER, Some(number), None);
            network.publish(*at, block);
            network.run_until_committed(observed, number);
        }
        network.drain();
        if !network.fully_converged() {
            return Err(format!(
                "gossip probe: channel {c}'s replicas did not converge"
            ));
        }
    }
    drop(root);
    let totals = trace::totals_by_name(&tracer.take());
    let deliver = totals[trace::DELIVER];
    values.insert(
        "gossip.deliver_us_per_block",
        deliver.total_ns as f64 / 1e3 / deliver.count as f64,
    );
    values.insert(
        "gossip.self_us_per_block",
        deliver.self_ns as f64 / 1e3 / deliver.count as f64,
    );
    Ok(())
}

/// Each channel's transactions submitted at the workload's rate to a
/// standalone Raft ordering backend built from the channel's own
/// configuration (leader kill included), woken whenever it asks.
fn raft(artifacts: &[ChannelArtifacts], values: &mut Values) -> Result<(), String> {
    let tracer = Tracer::new();
    let mut txs = 0.0;
    for art in artifacts.iter().filter(|a| a.config.ordering.is_some()) {
        let mut backend = TracedOrdering {
            inner: RaftOrderingBackend::new(&art.config),
            tracer: tracer.clone(),
        };
        let spacing = art
            .raw_blocks
            .last()
            .map_or(0.0, |(at, _)| at.as_secs_f64())
            / art.raw_blocks.iter().map(|(_, b)| b.len()).sum::<usize>() as f64;
        let (mut submitted, mut ordered) = (0usize, 0usize);
        let mut wakeup: Option<SimTime> = None;
        let mut count = |blocks: &[(SimTime, Block)]| {
            ordered += blocks.iter().map(|(_, b)| b.len()).sum::<usize>();
        };
        for tx in art.raw_blocks.iter().flat_map(|(_, b)| &b.transactions) {
            let at = SimTime::from_secs_f64(submitted as f64 * spacing);
            while let Some(due) = wakeup.filter(|due| *due <= at) {
                let outcome = backend.wakeup(due);
                count(&outcome.blocks);
                wakeup = outcome.wakeup;
            }
            let outcome = backend.submit(tx.clone(), at);
            count(&outcome.blocks);
            wakeup = outcome.wakeup;
            submitted += 1;
        }
        while let Some(due) = wakeup {
            let outcome = backend.wakeup(due);
            count(&outcome.blocks);
            wakeup = outcome.wakeup;
        }
        if ordered != submitted {
            return Err(format!(
                "raft probe: {ordered} of {submitted} transactions came back in blocks"
            ));
        }
        txs += submitted as f64;
    }
    let order = trace::totals_by_name(&tracer.take())[trace::ORDER];
    values.insert("ordering.submit_ns_per_tx", order.total_ns as f64 / txs);
    Ok(())
}
