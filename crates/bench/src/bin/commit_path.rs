//! Wall-clock benchmark of the committer validation pipeline.
//!
//! Every other experiment in this crate reports *simulated* time
//! derived from work counters; this one measures real elapsed time
//! (`std::time::Instant`) of the commit path itself — the
//! [`Peer::process_block`] + [`Peer::commit`] loop — because the
//! pooled commit path is value-neutral by construction and therefore
//! invisible to simulated time. Protocol:
//!
//! 1. Build an endorsed CRDT block stream once per document size
//!    (readings per MergeTx payload scale the signature, decode and
//!    merge costs together).
//! 2. Replay it through a fresh `Peer<CrdtValidator>` under
//!    `Sequential` and under `Pipelined {{ 1, 2, 4, 8 }}` workers
//!    (cross-block: block N+1 pre-validates on the pool while block N
//!    finalizes, reading the lockless state snapshot),
//!    best-of-`REPEATS` timing, decode cache cleared before every
//!    timed run so each variant pays the same parse bill.
//! 3. Assert every pipelined replay's ledger snapshot is
//!    byte-identical to the sequential baseline (the correctness half
//!    runs on every machine, every time).
//! 4. Emit `BENCH_commit_path.json` — sequential baseline, per-cell
//!    wall seconds/throughput/speedup plus per-stage timings
//!    (pre-validate vs finalize vs their measured overlap window, from
//!    `StagedBlock::timings` stage spans), the
//!    `finalize_speedup_at_4_workers` and
//!    `pipelined_speedup_at_4_workers` headlines, the pipelined run's
//!    overlap counters (`blocks_overlapped`, speculative read-check
//!    tallies), the machine's available parallelism and the SHA-256
//!    kernel the run hashed with (`sha256_kernel`) — through
//!    [`fabriccrdt_bench::report`], which re-parses what it wrote.
//!
//! Host time is measured and recorded, never asserted on:
//! `hardware_limited` marks artifacts from machines with fewer than 4
//! hardware threads (which cannot exhibit wall-clock parallel speedup,
//! only equivalence), and whether a timing moved is decided by `perf/`
//! and its paired runs.
//!
//! Run with: `cargo run --release --bin commit_path -- [--txs N] [--seed S]`

use std::time::Instant;

use fabriccrdt::CrdtValidator;
use fabriccrdt_bench::{obj, report, HarnessOptions};
use fabriccrdt_crypto::{sha256, Identity, KeyPair};
use fabriccrdt_fabric::metrics::PipelineMetrics;
use fabriccrdt_fabric::peer::{Peer, PeerSnapshot, StageTimings};
use fabriccrdt_fabric::pipeline::ValidationPipeline;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_jsoncrdt::cache;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_workload::report::render_table;

const BLOCK_SIZE: usize = 25;
const ENDORSING_ORGS: [&str; 4] = ["org1", "org2", "org3", "org4"];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPEATS: usize = 3;
/// Padding appended to every reading so payload bytes scale linearly
/// with the reading count (≈40 B per reading).
const READING_PAD: &str = "0123456789abcdef0123456789abcdef";

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(ENDORSING_ORGS)
}

/// A fully endorsed CRDT merge transaction whose payload carries
/// `readings` list entries (the document-size knob).
fn endorsed_tx(nonce: u64, readings: usize) -> Transaction {
    let client = Identity::new("client", "org1");
    let readings = (0..readings).map(|j| Value::string(format!("r{nonce}-{j}-{READING_PAD}")));
    let doc = obj([("readings", Value::list(readings))]);
    let mut rwset = ReadWriteSet::new();
    rwset.writes.put_crdt(format!("k{nonce}"), doc.to_bytes());
    let mut tx = Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    };
    let payload = tx.response_payload();
    for org in ENDORSING_ORGS {
        let kp = KeyPair::derive(Identity::new("peer0", org));
        tx.endorsements.push(Endorsement {
            endorser: kp.identity().clone(),
            signature: kp.sign(&payload),
        });
    }
    tx
}

fn block_stream(blocks: usize, per_block: usize, readings: usize) -> Vec<Block> {
    let mut nonce = 0u64;
    (1..=blocks as u64)
        .map(|number| {
            let txs = (0..per_block)
                .map(|_| {
                    nonce += 1;
                    endorsed_tx(nonce, readings)
                })
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect()
}

/// Per-stage wall-clock totals accumulated over one replay.
#[derive(Clone, Copy, Default)]
struct StageTotals {
    pre_validate_secs: f64,
    finalize_secs: f64,
    /// Wall seconds where a block's pre-validation span intersected
    /// the previous block's finalize span — nonzero only under
    /// `Pipelined`, where busy time is
    /// `pre_validate + finalize - overlap`.
    overlap_secs: f64,
}

impl StageTotals {
    fn accumulate(&mut self, timings: &StageTimings) {
        self.pre_validate_secs += timings.pre_validate_secs;
        self.finalize_secs += timings.finalize_secs;
        self.overlap_secs += timings.overlap_secs;
    }
}

/// One timed replay of the whole stream through a fresh peer. Under a
/// pipelined pipeline the driver chains [`Peer::prevalidate`] /
/// [`Peer::finish_block_with_next`] so block N+1's signature checking
/// runs on the pool while block N finalizes; otherwise it is the plain
/// [`Peer::process_block`] loop.
fn replay_once(
    pipeline: ValidationPipeline,
    blocks: &[Block],
) -> (PeerSnapshot, f64, StageTotals, PipelineMetrics) {
    cache::clear();
    let mut peer = Peer::new(CrdtValidator::new(), policy()).with_pipeline(pipeline);
    let mut stages = StageTotals::default();
    let start = Instant::now();
    if pipeline.is_pipelined() {
        let mut stream = blocks.iter();
        let first = stream.next().expect("stream has at least one block");
        let mut prep = peer.prevalidate(first.clone());
        for block in stream {
            let (staged, next) = peer.finish_block_with_next(prep, block.clone());
            stages.accumulate(&staged.timings);
            peer.commit(staged).expect("blocks arrive in chain order");
            prep = next;
        }
        let staged = peer.finish_block(prep);
        stages.accumulate(&staged.timings);
        peer.commit(staged).expect("blocks arrive in chain order");
    } else {
        for block in blocks {
            let staged = peer.process_block(block.clone());
            stages.accumulate(&staged.timings);
            peer.commit(staged).expect("blocks arrive in chain order");
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let counters = peer.take_pipeline_metrics();
    (peer.snapshot(), wall, stages, counters)
}

/// Best-of-`REPEATS` replay; snapshots of every repeat must agree.
/// Stage timings are taken from the best run so the per-stage split is
/// consistent with the reported wall time. Overlap counters are
/// deterministic across repeats, so any run's copy serves.
fn replay(
    pipeline: ValidationPipeline,
    blocks: &[Block],
) -> (PeerSnapshot, f64, StageTotals, PipelineMetrics) {
    let (snapshot, mut best, mut stages, counters) = replay_once(pipeline, blocks);
    for _ in 1..REPEATS {
        let (again, wall, repeat_stages, _) = replay_once(pipeline, blocks);
        assert_eq!(
            again,
            snapshot,
            "{}: replay not deterministic",
            pipeline.label()
        );
        if wall < best {
            best = wall;
            stages = repeat_stages;
        }
    }
    (snapshot, best, stages, counters)
}

struct Cell {
    doc_readings: usize,
    label: String,
    workers: usize,
    wall_secs: f64,
    pre_validate_secs: f64,
    finalize_secs: f64,
    overlap_secs: f64,
    tps: f64,
    speedup: f64,
    finalize_speedup: f64,
}

fn main() {
    let options = HarnessOptions::from_args();
    let txs = options.total_txs.clamp(BLOCK_SIZE, 2_000);
    let blocks = txs / BLOCK_SIZE;
    let txs = blocks * BLOCK_SIZE;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc_sizes: &[usize] = if txs < 500 { &[4, 32] } else { &[4, 32, 128] };
    let default_doc = doc_sizes[doc_sizes.len() - 1];

    println!("Commit-path wall-clock: sequential vs pipelined validation");
    println!(
        "workload: {txs} CRDT txs in {blocks} blocks of {BLOCK_SIZE}, \
         {} endorsements/tx, doc sizes {doc_sizes:?} readings, \
         best of {REPEATS} runs, {cores} hardware threads",
        ENDORSING_ORGS.len()
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut baseline_at_default = 0.0f64;
    let mut counters_at_4 = PipelineMetrics::default();
    for &readings in doc_sizes {
        let stream = block_stream(blocks, BLOCK_SIZE, readings);
        let (seq_snapshot, seq_wall, seq_stages, _) =
            replay(ValidationPipeline::Sequential, &stream);
        if readings == default_doc {
            baseline_at_default = seq_wall;
        }
        cells.push(Cell {
            doc_readings: readings,
            label: ValidationPipeline::Sequential.label(),
            workers: 1,
            wall_secs: seq_wall,
            pre_validate_secs: seq_stages.pre_validate_secs,
            finalize_secs: seq_stages.finalize_secs,
            overlap_secs: seq_stages.overlap_secs,
            tps: txs as f64 / seq_wall,
            speedup: 1.0,
            finalize_speedup: 1.0,
        });
        for workers in WORKER_COUNTS {
            let pipeline = ValidationPipeline::pipelined(workers);
            let (snapshot, wall, stages, counters) = replay(pipeline, &stream);
            assert_eq!(
                snapshot.state,
                seq_snapshot.state,
                "{readings} readings, {}: world state diverged",
                pipeline.label()
            );
            assert_eq!(
                snapshot.chain,
                seq_snapshot.chain,
                "{readings} readings, {}: chain diverged",
                pipeline.label()
            );
            if readings == default_doc && workers == 4 {
                counters_at_4 = counters;
            }
            cells.push(Cell {
                doc_readings: readings,
                label: pipeline.label(),
                workers,
                wall_secs: wall,
                pre_validate_secs: stages.pre_validate_secs,
                finalize_secs: stages.finalize_secs,
                overlap_secs: stages.overlap_secs,
                tps: txs as f64 / wall,
                speedup: seq_wall / wall,
                finalize_speedup: if stages.finalize_secs > 0.0 {
                    seq_stages.finalize_secs / stages.finalize_secs
                } else {
                    1.0
                },
            });
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.doc_readings.to_string(),
                c.label.clone(),
                format!("{:.1}", c.wall_secs * 1e3),
                format!("{:.1}", c.pre_validate_secs * 1e3),
                format!("{:.1}", c.finalize_secs * 1e3),
                format!("{:.1}", c.overlap_secs * 1e3),
                format!("{:.0}", c.tps),
                format!("{:.2}x", c.speedup),
                format!("{:.2}x", c.finalize_speedup),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            &[
                "readings/doc",
                "pipeline",
                "wall(ms)",
                "pre-val(ms)",
                "finalize(ms)",
                "overlap(ms)",
                "tps",
                "speedup",
                "fin-speedup",
            ],
            &rows
        )
    );

    let pipelined_at_4 = cells
        .iter()
        .find(|c| c.doc_readings == default_doc && c.workers == 4);
    let finalize_speedup_at_4 = pipelined_at_4.map_or(0.0, |c| c.finalize_speedup);
    let pipelined_speedup_at_4 = pipelined_at_4.map_or(0.0, |c| c.speedup);
    let overlap_at_4 = pipelined_at_4.map_or(0.0, |c| c.overlap_secs);
    let hardware_limited = cores < 4;
    println!(
        "default workload ({default_doc} readings/doc): sequential baseline {:.1} ms, \
         pipelined at 4 workers {pipelined_speedup_at_4:.2}x \
         (finalize stage {finalize_speedup_at_4:.2}x, {:.1} ms overlapped){}",
        baseline_at_default * 1e3,
        overlap_at_4 * 1e3,
        if hardware_limited {
            " (hardware-limited: <4 threads, equivalence only)"
        } else {
            ""
        }
    );

    // ---- BENCH_commit_path.json -----------------------------------
    let cells_json = cells.iter().map(|c| {
        obj([
            ("doc_readings", (c.doc_readings as f64).into()),
            ("pipeline", c.label.as_str().into()),
            ("workers", (c.workers as f64).into()),
            ("wall_secs", c.wall_secs.into()),
            ("pre_validate_secs", c.pre_validate_secs.into()),
            ("finalize_secs", c.finalize_secs.into()),
            ("overlap_secs", c.overlap_secs.into()),
            ("tps", c.tps.into()),
            ("speedup", c.speedup.into()),
            ("finalize_speedup", c.finalize_speedup.into()),
        ])
    });
    let json = obj([
        ("bench", "commit_path".into()),
        ("seed", (options.seed as f64).into()),
        ("txs", (txs as f64).into()),
        ("blocks", (blocks as f64).into()),
        ("block_size", (BLOCK_SIZE as f64).into()),
        ("endorsements_per_tx", (ENDORSING_ORGS.len() as f64).into()),
        ("repeats", (REPEATS as f64).into()),
        ("available_parallelism", (cores as f64).into()),
        ("hardware_limited", hardware_limited.into()),
        // Every wall time below ran on this SHA-256 kernel; an artifact
        // from the other one is a different measurement.
        ("sha256_kernel", sha256::kernel().into()),
        ("default_doc_readings", (default_doc as f64).into()),
        ("sequential_baseline_wall_secs", baseline_at_default.into()),
        (
            "sequential_baseline_tps",
            (txs as f64 / baseline_at_default).into(),
        ),
        (
            "finalize_speedup_at_4_workers",
            finalize_speedup_at_4.into(),
        ),
        (
            "pipelined_speedup_at_4_workers",
            pipelined_speedup_at_4.into(),
        ),
        (
            "blocks_overlapped",
            (counters_at_4.blocks_overlapped as f64).into(),
        ),
        (
            "speculative_reads_checked",
            (counters_at_4.speculative_reads_checked as f64).into(),
        ),
        (
            "speculation_confirmed",
            (counters_at_4.speculation_confirmed as f64).into(),
        ),
        (
            "speculation_overturned",
            (counters_at_4.speculation_overturned as f64).into(),
        ),
        ("cells", Value::list(cells_json)),
    ]);
    let last_cell = cells.len() - 1;
    report(
        "BENCH_commit_path.json",
        &json,
        &[
            "sha256_kernel",
            "sequential_baseline_tps",
            "finalize_speedup_at_4_workers",
            "pipelined_speedup_at_4_workers",
            "blocks_overlapped",
            "speculative_reads_checked",
            "cells.0.pipeline",
            "cells.0.pre_validate_secs",
            "cells.0.finalize_secs",
            "cells.0.overlap_secs",
            &format!("cells.{last_cell}.tps"),
        ],
    );
    println!("wrote BENCH_commit_path.json ({} cells)", cells.len());

    // The pipelined driver overlapped every block after the first with
    // its predecessor's finalize — the counter proves the overlap
    // machinery actually engaged, on every machine.
    assert_eq!(
        counters_at_4.blocks_overlapped,
        blocks as u64 - 1,
        "pipelined(4) replay did not overlap every chained block"
    );
}
