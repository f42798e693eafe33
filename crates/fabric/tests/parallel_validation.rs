//! Equivalence sweep for the [`ValidationPipeline`] seam.
//!
//! The pooled commit path may only change wall-clock time, never
//! outcomes: for every workload, every fault/corruption mix and every
//! worker count, `Pipelined { workers }` must produce byte-identical
//! ledgers (serialized world state *and* chain) and identical
//! [`RunMetrics`] — including the work-derived simulated timestamps —
//! as the seed's `Sequential` path, under both drivers: the
//! simulation's cross-block overlapped one and the peer-level
//! `process_block` loop that joins every batch at once. The sweep
//! reuses the
//! deterministic in-repo generator (`fabriccrdt_sim::gen`), the same
//! harness style as the `raft_safety` sweep.
//!
//! The last four tests replay directed key-sharing shapes — one hot
//! key, disjoint keys, a mix with a policy failure, and a key deleted
//! and re-written within a block — through `pipelined(2..=8)` peers
//! against `Sequential`. Finalize is one sequential pass on every
//! pipeline; these hold it there. The randomized complement across
//! fault schedules lives in `crates/gossip/tests/dissemination.rs` and
//! `crates/ordering/tests/pipeline_equivalence.rs`.

use std::sync::Arc;

use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub};
use fabriccrdt_fabric::config::PipelineConfig;
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::peer::{Peer, PeerSnapshot};
use fabriccrdt_fabric::pipeline::ValidationPipeline;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::simulation::{Simulation, TxRequest};
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::rwset::{ReadWriteSet, WriteSet};
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen::{self, Gen};
use fabriccrdt_sim::time::SimTime;

/// Read-modify-write chaincode: args = [key, value]. Conflicting
/// reads make MVCC outcomes sensitive to block formation, which in
/// turn makes the metrics sensitive to any accounting drift.
struct Rmw;

impl Chaincode for Rmw {
    fn name(&self) -> &str {
        "rmw"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        stub.get_state(&args[0]);
        stub.put_state(&args[0], args[1].clone().into_bytes());
        Ok(())
    }
}

/// Write-only chaincode: args = [key, value].
struct WriteOnly;

impl Chaincode for WriteOnly {
    fn name(&self) -> &str {
        "writeonly"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        stub.put_state(&args[0], args[1].clone().into_bytes());
        Ok(())
    }
}

fn registry() -> ChaincodeRegistry {
    let mut reg = ChaincodeRegistry::new();
    reg.deploy(Arc::new(Rmw));
    reg.deploy(Arc::new(WriteOnly));
    reg
}

/// A randomized workload: disjoint writes, hot-key conflicts and a
/// sprinkle of corrupted endorsements (policy failures).
fn arb_schedule(g: &mut Gen) -> Vec<(SimTime, TxRequest)> {
    let n = g.size(20, 60);
    let rate = g.f64_in(100.0, 400.0);
    (0..n)
        .map(|i| {
            let request = if g.prob(0.4) {
                TxRequest::new("rmw", vec!["hot".into(), format!("v{i}")])
            } else {
                TxRequest::new("writeonly", vec![format!("k{i}"), format!("v{i}")])
            };
            let request = if g.prob(0.1) {
                request.with_corrupt_endorsement()
            } else {
                request
            };
            (SimTime::from_secs_f64(i as f64 / rate), request)
        })
        .collect()
}

fn run_with(
    pipeline: ValidationPipeline,
    block_size: usize,
    seed: u64,
    schedule: &[(SimTime, TxRequest)],
) -> (RunMetrics, PeerSnapshot) {
    let mut config = PipelineConfig::paper(block_size, seed);
    config.validation = pipeline;
    let mut sim = Simulation::new(config, FabricValidator::new(), registry());
    sim.seed_state("hot", b"0".to_vec());
    let metrics = sim.run(schedule.to_vec());
    let snapshot = sim.peer().snapshot();
    (metrics, snapshot)
}

/// The tentpole property: across 50 random workload/seed cases, every
/// worker count 1..=8 yields a byte-identical ledger and identical
/// run metrics vs the sequential seed path.
#[test]
fn parallel_validation_matches_sequential_over_seeded_sweep() {
    gen::cases(50, |g| {
        let seed = g.u64();
        let block_size = g.size(5, 25);
        let schedule = arb_schedule(g);
        let (seq_metrics, seq_snapshot) =
            run_with(ValidationPipeline::Sequential, block_size, seed, &schedule);
        // The simulation drives a pipelined peer through the
        // cross-block overlapped driver (pre-validate block N+1 while
        // block N finalizes).
        for workers in 1..=8 {
            let (pip_metrics, pip_snapshot) = run_with(
                ValidationPipeline::pipelined(workers),
                block_size,
                seed,
                &schedule,
            );
            assert_eq!(
                seq_snapshot.state, pip_snapshot.state,
                "seed {seed}: world state diverged at {workers} workers"
            );
            assert_eq!(
                seq_snapshot.chain, pip_snapshot.chain,
                "seed {seed}: chain diverged at {workers} workers"
            );
            assert_eq!(
                seq_metrics, pip_metrics,
                "seed {seed}: metrics diverged at {workers} workers"
            );
        }
    });
}

// ---- direct block replay: duplicate ids and tampered blocks --------

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(vec!["org1".to_string()])
}

fn endorsed_tx(nonce: u64) -> Transaction {
    let mut rwset = ReadWriteSet::new();
    rwset
        .writes
        .put(format!("k{nonce}"), nonce.to_le_bytes().to_vec());
    endorsed(nonce, rwset)
}

/// `rwset` as a transaction endorsed by the one organization the policy
/// names.
fn endorsed(nonce: u64, rwset: ReadWriteSet) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut tx = Transaction {
        id: TxId::derive(&client, nonce, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    };
    let peer = KeyPair::derive(Identity::new("peer0", "org1"));
    tx.endorsements.push(Endorsement {
        endorser: peer.identity().clone(),
        signature: peer.sign(&tx.response_payload()),
    });
    tx
}

fn badly_endorsed_tx(nonce: u64) -> Transaction {
    let mut tx = endorsed_tx(nonce);
    tx.endorsements[0].signature.0[0] ^= 0xFF;
    tx
}

/// Replays a hand-built block stream through a peer with the given
/// pipeline and the key `hot` seeded, returning snapshot plus per-block
/// codes and work counters.
fn replay(
    pipeline: ValidationPipeline,
    blocks: &[Block],
) -> (PeerSnapshot, Vec<Vec<ValidationCode>>, Vec<ValidationWork>) {
    let mut peer = Peer::new(FabricValidator::new(), policy()).with_pipeline(pipeline);
    peer.seed_state("hot", b"0".to_vec());
    let mut codes = Vec::new();
    let mut work = Vec::new();
    for block in blocks {
        let staged = peer.process_block(block.clone());
        codes.push(staged.block.validation_codes.clone());
        work.push(staged.work);
        peer.commit(staged).expect("blocks arrive in chain order");
    }
    (peer.snapshot(), codes, work)
}

/// Duplicate-id short-circuiting must not drift between pipelines:
/// the seed skips signature verification for duplicates, and the
/// work counters drive simulated time, so a pooled path that
/// verified them anyway would silently change every timestamp.
#[test]
fn duplicates_and_policy_failures_identical_across_worker_counts() {
    let dup = endorsed_tx(1);
    let blocks = vec![
        // Block 1: one good tx, one in-block duplicate pair.
        Block::assemble(1, [0; 32], vec![endorsed_tx(2), dup.clone(), dup.clone()]),
        // Block 2: cross-block duplicate, a policy failure, a good tx.
        Block::assemble(2, [0; 32], vec![dup, badly_endorsed_tx(3), endorsed_tx(4)]),
    ];
    let (seq_snap, seq_codes, seq_work) = replay(ValidationPipeline::Sequential, &blocks);
    assert_eq!(
        seq_codes[0],
        vec![
            ValidationCode::Valid,
            ValidationCode::Valid,
            ValidationCode::DuplicateTxId
        ]
    );
    assert_eq!(
        seq_codes[1],
        vec![
            ValidationCode::DuplicateTxId,
            ValidationCode::EndorsementPolicyFailure,
            ValidationCode::Valid
        ]
    );
    // Duplicates skip signature verification entirely.
    let seq_sigs: Vec<u64> = seq_work.iter().map(|w| w.sigs_verified).collect();
    assert_eq!(seq_sigs, vec![2, 2]);
    for workers in 1..=8 {
        let (snap, codes, work) = replay(ValidationPipeline::pipelined(workers), &blocks);
        assert_eq!(snap, seq_snap, "{workers} workers: snapshot diverged");
        assert_eq!(codes, seq_codes, "{workers} workers: codes diverged");
        assert_eq!(work, seq_work, "{workers} workers: work diverged");
    }
}

/// A tampered block (data hash mismatch) invalidates every transaction
/// before any signature is verified — under every pipeline.
#[test]
fn tampered_blocks_identical_across_worker_counts() {
    let mut block = Block::assemble(1, [0; 32], vec![endorsed_tx(1), endorsed_tx(2)]);
    block.header.data_hash = [0xAA; 32];
    let run = |pipeline: ValidationPipeline| {
        let mut peer = Peer::new(FabricValidator::new(), policy()).with_pipeline(pipeline);
        let staged = peer.process_block(block.clone());
        assert_eq!(staged.work.sigs_verified, 0);
        staged.block.validation_codes.clone()
    };
    let seq = run(ValidationPipeline::Sequential);
    assert_eq!(seq, vec![ValidationCode::TamperedBlock; 2]);
    for workers in 1..=8 {
        assert_eq!(run(ValidationPipeline::pipelined(workers)), seq);
    }
}

// ---- finalize: the same sequential pass under every worker count ----

/// Replays `blocks` sequentially and through `pipelined(2..=8)` peers,
/// asserting identical ledgers, codes and work counters.
fn assert_pipelined_matches_sequential(blocks: &[Block]) {
    let (seq_snapshot, seq_codes, seq_work) = replay(ValidationPipeline::Sequential, blocks);
    for workers in 2..=8 {
        let (snapshot, codes, work) = replay(ValidationPipeline::pipelined(workers), blocks);
        assert_eq!(
            snapshot.state, seq_snapshot.state,
            "{workers} workers: world state diverged"
        );
        assert_eq!(
            snapshot.chain, seq_snapshot.chain,
            "{workers} workers: chain diverged"
        );
        assert_eq!(codes, seq_codes, "{workers} workers: codes diverged");
        assert_eq!(work, seq_work, "{workers} workers: work diverged");
    }
}

/// A fully endorsed read-modify-write on `key` that read `read_version`,
/// so its MVCC verdict depends on what committed before it.
fn rmw_tx(nonce: u64, key: &str, read_version: Option<Height>) -> Transaction {
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record(key, read_version);
    rwset
        .writes
        .put(key.to_string(), format!("v{nonce}").into_bytes());
    endorsed(nonce, rwset)
}

/// Every transaction reads and writes the one hot key, so each verdict
/// depends on every earlier one in block order.
#[test]
fn hot_key_blocks_match_sequential() {
    let blocks: Vec<Block> = (1..=4u64)
        .map(|number| {
            let txs: Vec<Transaction> = (0..6)
                .map(|i| rmw_tx(number * 10 + i, "hot", Some(Height::genesis())))
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();
    assert_pipelined_matches_sequential(&blocks);
}

/// No two transactions share a key.
#[test]
fn disjoint_key_blocks_match_sequential() {
    let mut nonce = 0u64;
    let blocks: Vec<Block> = (1..=4u64)
        .map(|number| {
            let txs: Vec<Transaction> = (0..8)
                .map(|_| {
                    nonce += 1;
                    rmw_tx(nonce, &format!("k{nonce}"), None)
                })
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();
    assert_pipelined_matches_sequential(&blocks);
}

/// Hot-key readers interleaved with disjoint writers, and a policy
/// failure on the hot key that must not touch the state.
#[test]
fn mixed_block_with_policy_failure_matches_sequential() {
    let mut txs: Vec<Transaction> = Vec::new();
    for i in 0..3 {
        txs.push(rmw_tx(100 + i, "hot", Some(Height::genesis())));
        txs.push(rmw_tx(200 + i, &format!("solo{i}"), None));
    }
    let mut bad = rmw_tx(300, "hot", Some(Height::genesis()));
    bad.endorsements[0].signature.0[0] ^= 0xFF;
    txs.push(bad);

    let blocks = vec![Block::assemble(1, [0; 32], txs)];
    let (_, codes, _) = replay(ValidationPipeline::Sequential, &blocks);
    assert_eq!(codes[0][6], ValidationCode::EndorsementPolicyFailure);
    assert_pipelined_matches_sequential(&blocks);
}

/// A reader of the hot key at `read` that then writes.
fn hot_reader(read: Option<Height>, write: impl FnOnce(&mut WriteSet)) -> ReadWriteSet {
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record("hot", read);
    write(&mut rwset.writes);
    rwset
}

/// Transactions delete the seeded key, read it as absent, read its old
/// version (a conflict) and write it again, at seeded positions among
/// disjoint writers; the next block does the same to the re-written key.
/// Every verdict depends on a later transaction seeing an earlier one's
/// write in the same block — a delete masking the committed entry, a
/// re-write unmasking it.
#[test]
fn delete_and_rewrite_matches_sequential() {
    use ValidationCode::{MvccConflict, Valid};
    gen::cases(24, |g| {
        let mut nonce = 0u64;
        let mut committed = Some(Height::genesis());
        let mut blocks = Vec::new();
        let mut expected = Vec::new();
        for number in 1..=2u64 {
            let steps = [
                (hot_reader(committed, |w| w.delete("hot")), Valid),
                (
                    hot_reader(None, |w| w.put("saw-absent", b"1".to_vec())),
                    Valid,
                ),
                (
                    hot_reader(committed, |w| w.put("hot", b"stale".to_vec())),
                    MvccConflict,
                ),
                (hot_reader(None, |w| w.put("hot", b"back".to_vec())), Valid),
            ];
            let mut txs = Vec::new();
            let mut codes = Vec::new();
            for (rwset, code) in steps {
                for _ in 0..g.size(0, 3) {
                    nonce += 1;
                    txs.push(rmw_tx(nonce, &format!("solo{nonce}"), None));
                    codes.push(Valid);
                }
                nonce += 1;
                txs.push(endorsed(nonce, rwset));
                codes.push(code);
            }
            // One more reader sees the re-write at its in-block height.
            committed = Some(Height::new(number, txs.len() as u64 - 1));
            nonce += 1;
            let saw = hot_reader(committed, |w| w.put("saw-rewrite", b"1".to_vec()));
            txs.push(endorsed(nonce, saw));
            codes.push(Valid);

            blocks.push(Block::assemble(number, [0; 32], txs));
            expected.push(codes);
        }

        let (snapshot, codes, _) = replay(ValidationPipeline::Sequential, &blocks);
        assert_eq!(codes, expected, "the sequential reference");
        let state = codec::decode_state(&snapshot.state).expect("own encoding");
        assert_eq!(state.get("hot").map(|e| e.version), committed);
        assert_eq!(state.value("hot"), Some(&b"back"[..]));
        assert_pipelined_matches_sequential(&blocks);
    });
}
