//! Micro-benchmarks for the hot paths behind the figures: SHA-256 and
//! Merkle hashing (block sealing), JSON parse/serialize (chaincode
//! payloads), JSON-CRDT merging at several block sizes (the mechanism
//! behind Figure 3's block-size penalty), MVCC validation, the
//! FabricCRDT merge-validate path, orderer block cutting, and the
//! world state across three decades of size (every `worldstate/*`
//! operation beside a `BTreeMap` baseline where one exists, and a whole
//! block processed and committed by a peer seeded with that many keys),
//! and the two replication layers per 25-transaction block (6-peer
//! gossip dissemination, 3-node Raft replication).
//!
//! The harness is self-contained (no criterion) so the workspace builds
//! offline: each benchmark is warmed up, then timed over enough
//! iterations to fill a fixed measurement window, reporting ns/iter and
//! derived throughput.
//!
//! Run with: `cargo bench` (or `cargo bench -- <filter>`), and
//! `BENCH_QUICK=1 cargo bench` for a fast smoke pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::{merkle, sha256, Identity, KeyPair};
use fabriccrdt_fabric::config::{BlockCutConfig, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::orderer::Orderer;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::{BlockValidator, FabricValidator};
use fabriccrdt_gossip::GossipNetwork;
use fabriccrdt_jsoncrdt::doc::{alone_as_is, write_alone};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
use fabriccrdt_ledger::block::{Block, SealedBlock, Transactions, ValidationCode};
use fabriccrdt_ledger::chain::Blockchain;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::{VersionedValue, WorldState};
use fabriccrdt_ordering::RaftOrderingBackend;
use fabriccrdt_sim::rng::{SimRng, ZipfSampler};
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::generator::iot_payload;
use fabriccrdt_workload::zipf::ZipfWorkload;

/// Times `f` and prints one report line. `elements`/`bytes` drive the
/// optional throughput columns.
struct Bench {
    filter: Option<String>,
    warmup: Duration,
    window: Duration,
}

impl Bench {
    fn from_env() -> Self {
        let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
        // `cargo bench -- <filter>` passes the filter as an argument;
        // ignore harness flags like `--bench`.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Bench {
            filter,
            warmup: if quick {
                Duration::from_millis(5)
            } else {
                Duration::from_millis(150)
            },
            window: if quick {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(500)
            },
        }
    }

    /// Whether the command-line filter (if any) selects `name`.
    fn wants(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    }

    fn run<T>(
        &self,
        name: &str,
        elements: Option<u64>,
        bytes: Option<u64>,
        mut f: impl FnMut() -> T,
    ) {
        if !self.wants(name) {
            return;
        }
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed() / warm_iters.max(1) as u32;
        let iters =
            (self.window.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 5_000_000) as u64;

        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        report(name, start.elapsed(), iters, elements, bytes);
    }

    /// Like [`Bench::run`] for a body with untimed set-up: `f` times
    /// the part that counts itself and returns that span (one clock
    /// read pair per iteration, so not for nanosecond bodies; a body
    /// far shorter than its set-up stops at 5 000 iterations instead of
    /// filling the window).
    fn run_timed(&self, name: &str, elements: Option<u64>, mut f: impl FnMut() -> Duration) {
        if !self.wants(name) {
            return;
        }
        let mut spend = |budget: Duration| {
            let (mut spent, mut iters) = (Duration::ZERO, 0u64);
            while (spent < budget && iters < 5_000) || iters == 0 {
                spent += f();
                iters += 1;
            }
            (spent, iters)
        };
        spend(self.warmup);
        let (spent, iters) = spend(self.window);
        report(name, spent, iters, elements, None);
    }
}

fn report(name: &str, elapsed: Duration, iters: u64, elements: Option<u64>, bytes: Option<u64>) {
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    let mut line = format!("{name:<40} {ns:>14.1} ns/iter  ({iters} iters)");
    let secs = ns / 1e9;
    if let Some(n) = elements {
        line.push_str(&format!("  {:>10.0} elem/s", n as f64 / secs));
    }
    if let Some(b) = bytes {
        line.push_str(&format!(
            "  {:>8.1} MiB/s",
            b as f64 / secs / (1024.0 * 1024.0)
        ));
    }
    println!("{line}");
}

fn payload(i: usize) -> String {
    format!(
        r#"{{"deviceID":"Device1","readings":["{}.0"]}}"#,
        40 + i % 30
    )
}

fn crdt_tx(n: u64, stale: bool) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    let version = if stale {
        Some(Height::new(0, 0))
    } else {
        Some(Height::new(1, 0))
    };
    rwset.reads.record("hot", version);
    rwset
        .writes
        .put_crdt("hot", payload(n as usize).into_bytes());
    Transaction {
        id: TxId::derive(&client, n, "iot"),
        client,
        chaincode: "iot".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

fn plain_tx(n: u64) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.reads.record("hot", Some(Height::new(1, 0)));
    rwset.writes.put("hot", payload(n as usize).into_bytes());
    Transaction {
        id: TxId::derive(&client, n, "iot"),
        client,
        chaincode: "iot".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

fn seeded_state() -> WorldState {
    let mut state = WorldState::new();
    state.put("hot".into(), payload(0).into_bytes(), Height::new(1, 0));
    state
}

/// 400 CRDT transactions on one hot key with the paper's three
/// endorsements, each write padded so the transaction is `size`
/// canonical bytes.
fn padded_txs(size: usize) -> Vec<Transaction> {
    let endorsers =
        ["org1", "org2", "org3"].map(|org| KeyPair::derive(Identity::new("peer0", org)));
    let pad = |mut tx: Transaction| {
        let padding = size - endorse(tx.clone(), &endorsers).to_bytes().len();
        let mut value = tx.rwset.writes.get("hot").expect("written").value.clone();
        value.resize(value.len() + padding, b' ');
        tx.rwset.writes.update_value("hot", value);
        let tx = endorse(tx, &endorsers);
        assert_eq!(tx.to_bytes().len(), size);
        tx
    };
    (0..400).map(|i| pad(crdt_tx(i, true))).collect()
}

/// Signs `tx`'s response payload with every endorser's key.
fn endorse(mut tx: Transaction, endorsers: &[KeyPair]) -> Transaction {
    let payload = tx.response_payload();
    tx.endorsements = endorsers
        .iter()
        .map(|endorser| Endorsement {
            endorser: endorser.identity().clone(),
            signature: endorser.sign(&payload),
        })
        .collect();
    tx
}

/// A 1 400-byte CRDT document for `key`: `bigstate-pipelined`'s size.
fn document(key: &str) -> Vec<u8> {
    let mut doc = format!(r#"{{"deviceID":"{key}","readings":[""#);
    doc.push_str(&"7".repeat(1400 - doc.len() - 3));
    doc.push_str(r#""]}"#);
    doc.into_bytes()
}

/// A 1 400-byte CRDT document written to `key`, endorsed by `endorser`.
fn document_tx(nonce: u64, key: &str, endorser: &KeyPair) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.writes.put_crdt(key, document(key));
    let tx = Transaction {
        id: TxId::derive(&client, nonce, "iot"),
        client,
        chaincode: "iot".into(),
        rwset,
        endorsements: Vec::new(),
    };
    endorse(tx, std::slice::from_ref(endorser))
}

/// The state-size sweep: every world-state operation, and one whole
/// block through a peer, at 1k / 10k / 100k / 1M seeded keys. Keys and
/// seed documents are `perf/`'s (`device-N`, inserted in numeric
/// order); probes are 1 024 uniformly drawn live keys. A flat `clone`,
/// `put-shared` and `peer/block` column is the point; `seed` and `get`
/// sit beside the `BTreeMap` they replaced.
fn state_size_sweep(bench: &Bench) {
    if !bench.wants("worldstate/") && !bench.wants("peer/block") {
        return;
    }
    let endorser = KeyPair::derive(Identity::new("peer0", "org1"));
    for (label, keys) in [
        ("1k", 1_000usize),
        ("10k", 10_000),
        ("100k", 100_000),
        ("1M", 1_000_000),
    ] {
        let seeds: Vec<(String, Vec<u8>)> = (0..keys)
            .map(|k| (ZipfWorkload::key(k), ZipfWorkload::seed_doc()))
            .collect();
        let mut rng = SimRng::seed_from(keys as u64);
        let probes: Vec<&String> = (0..1024)
            .map(|_| &seeds[rng.gen_range(0, keys as u64) as usize].0)
            .collect();
        let seed_state = || {
            let mut state = WorldState::new();
            for (key, value) in &seeds {
                state.put(key.clone(), value.clone(), Height::genesis());
            }
            state
        };
        let seed_btreemap = || {
            let mut map = BTreeMap::new();
            for (key, value) in &seeds {
                let entry = VersionedValue {
                    value: value.clone(),
                    version: Height::genesis(),
                };
                map.insert(key.clone(), entry);
            }
            map
        };
        let n = Some(keys as u64);
        bench.run(&format!("worldstate/seed/{label}"), n, None, seed_state);
        bench.run(
            &format!("worldstate/seed/{label}/btreemap"),
            n,
            None,
            seed_btreemap,
        );

        let mut state = seed_state();
        let (height, nodes) = state.audit();
        println!("worldstate/{label}: height {height}, {} nodes", nodes.len());
        {
            let map = seed_btreemap();
            bench.run(&format!("worldstate/get/{label}"), Some(1024), None, || {
                probes.iter().filter_map(|key| state.get(key)).count()
            });
            bench.run(
                &format!("worldstate/get/{label}/btreemap"),
                Some(1024),
                None,
                || {
                    probes
                        .iter()
                        .filter_map(|key| map.get(key.as_str()))
                        .count()
                },
            );
        }
        let value = ZipfWorkload::seed_doc();
        bench.run(
            &format!("worldstate/put-unique/{label}"),
            Some(1024),
            None,
            || {
                for key in &probes {
                    state.put((*key).clone(), value.clone(), Height::new(1, 0));
                }
            },
        );
        // Clone, one write through the shared root, drop: the path copy
        // and its release. Then the same where the written key's leaf
        // holds `bigstate-pipelined`'s documents: every key within 32 of
        // a probe holds one (at most 65 536 of them, so about 90 MB).
        let documents = {
            let doc = document("device");
            let sorted: Vec<&String> = state.iter().map(|(key, _)| key).collect();
            let mut documents = state.clone();
            for probe in &probes {
                let at = sorted.binary_search(probe).expect("a probe is live");
                for key in &sorted[at.saturating_sub(32)..(at + 33).min(keys)] {
                    documents.put((*key).clone(), doc.clone(), Height::genesis());
                }
            }
            documents
        };
        for (row, state, value) in [
            ("put-shared", &state, value),
            ("put-shared-1400B", &documents, document("device")),
        ] {
            let mut turn = 0;
            bench.run(&format!("worldstate/{row}/{label}"), None, None, || {
                turn += 1;
                let mut next = state.clone();
                next.put(
                    probes[turn % 1024].clone(),
                    value.clone(),
                    Height::new(1, 0),
                );
                next
            });
        }
        drop(documents);
        bench.run(&format!("worldstate/clone/{label}"), None, None, || {
            state.clone()
        });
        bench.run(&format!("worldstate/iter/{label}"), n, None, || {
            state
                .iter()
                .map(|(key, entry)| key.len() + entry.value.len())
                .sum::<usize>()
        });
        drop(state);

        let name = format!("peer/block-25tx-1400B@{label}-keys");
        if bench.wants(&name) {
            let mut peer = Peer::new(CrdtValidator::new(), EndorsementPolicy::any_of(["org1"]));
            for (key, value) in &seeds {
                peer.seed_state(key.clone(), value.clone());
            }
            let mut nonce = 0;
            bench.run_timed(&name, Some(25), || {
                let txs = (0..25)
                    .map(|_| {
                        nonce += 1;
                        document_tx(nonce, probes[nonce as usize % 1024], &endorser)
                    })
                    .collect();
                let block = Block::assemble(peer.chain().height(), peer.chain().tip_hash(), txs);
                let start = Instant::now();
                let staged = peer.process_block(block);
                peer.commit(staged).expect("the block extends the chain");
                start.elapsed()
            });
        }
    }
}

/// The two replication layers on the benchmark's block shape: an
/// eight-block stream of 25 blind writes, each endorsed by the paper's
/// three organizations, through a fresh 6-peer gossip lane and a fresh
/// 3-node Raft cluster per iteration (so neither log grows with the
/// iteration count). `FabricValidator` replicas keep merge cost out of
/// the gossip row; what is left is moving the block and one MVCC commit
/// per replica.
fn replication_layers(bench: &Bench) {
    const STREAM: u64 = 8;
    let gossip = "gossip/disseminate-25tx-block/6-peers";
    let raft = "raft/replicate-25tx-block/3-nodes";
    if !bench.wants(gossip) && !bench.wants(raft) {
        return;
    }
    let client = Identity::new("client", "org1");
    let endorsers =
        ["org1", "org2", "org3"].map(|org| KeyPair::derive(Identity::new("peer0", org)));
    let stream: Vec<Block> = (1..=STREAM)
        .map(|number| {
            let txs = (0..25)
                .map(|i| {
                    let nonce = number * 25 + i;
                    let mut rwset = ReadWriteSet::new();
                    rwset
                        .writes
                        .put(format!("k{nonce}"), payload(nonce as usize).into_bytes());
                    let tx = Transaction {
                        id: TxId::derive(&client, nonce, "iot"),
                        client: client.clone(),
                        chaincode: "iot".into(),
                        rwset,
                        endorsements: Vec::new(),
                    };
                    endorse(tx, &endorsers)
                })
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();

    let config = PipelineConfig::paper(25, 42).with_gossip();
    bench.run_timed(gossip, Some(STREAM), || {
        let mut network = GossipNetwork::new(&config, FabricValidator::new);
        let observed = network.observed();
        let blocks = stream.clone();
        let start = Instant::now();
        for block in blocks {
            let number = block.header.number;
            network.publish(SimTime::from_millis(100 * number), block);
            network.run_until_committed(observed, number);
        }
        // The pushes still in flight to the other replicas belong to
        // these blocks too.
        network.drain();
        start.elapsed()
    });

    let config = PipelineConfig::paper(25, 42).with_raft_config(RaftConfig::calibrated(3));
    bench.run_timed(raft, Some(STREAM), || {
        let mut cluster = RaftOrderingBackend::new(&config);
        let batches: Vec<Vec<Transaction>> =
            stream.iter().map(|b| b.transactions.to_vec()).collect();
        let start = Instant::now();
        for batch in batches {
            // 25 submissions fill the leader's batch; the cut block is
            // released once a follower has acknowledged it.
            let now = cluster.clock();
            for tx in batch {
                cluster.enqueue(now, tx);
            }
            let mut committed = cluster.advance(now);
            while committed.is_empty() {
                let next = cluster.next_event_time().expect("a block is in flight");
                committed = cluster.advance(next);
            }
            black_box(committed);
        }
        start.elapsed()
    });
}

fn main() {
    let bench = Bench::from_env();

    // Both compression kernels side by side; on a CPU without the SHA
    // extensions the two rows of a size measure the same code.
    println!("sha256 kernel: {}", sha256::kernel());
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        bench.run(
            &format!("sha256/{size}/{}", sha256::kernel()),
            None,
            Some(size as u64),
            || sha256::digest(&data),
        );
        bench.run(
            &format!("sha256/{size}/portable-forced"),
            None,
            Some(size as u64),
            || sha256::digest_portable(&data),
        );
    }

    let leaves: Vec<Vec<u8>> = (0..256).map(|i| format!("tx-{i}").into_bytes()).collect();
    bench.run("merkle/root-256-leaves", Some(256), None, || {
        merkle::root(leaves.iter().map(|l| merkle::leaf(l)).collect())
    });

    {
        // The hashing passes a peer makes per block, each at the size it
        // runs at on `hotkey-merge`: the ingress tamper check on a list
        // hashed from scratch (one encode that also serves the endorsement
        // MACs) and on the list the orderer's cut already hashed, which is
        // what a replica sharing it pays; the re-seal of the block as
        // Algorithm 1 left it — the 400 transactions as cut, their list
        // hashed, and a commit record of 400 codes and one 1 400-byte
        // converged value with 400 members, hashed (ledger format v3) —
        // and the append, by type, beside the recomputing append
        // untrusted routes keep. A list keeps its hashes, so each cold
        // row gives every iteration a fresh copy, made and (for the
        // re-seals) hashed before the timer starts.
        let genesis_hash = Block::genesis().hash();
        let delivered = Block::assemble(1, genesis_hash, padded_txs(370));
        let verify_fresh = |name: &str, block: &Block| {
            bench.run_timed(name, Some(block.len() as u64), || {
                let fresh = Transactions::from(block.transactions.to_vec());
                let start = Instant::now();
                let intact = fresh.data_hash() == block.header.data_hash;
                let spent = start.elapsed();
                assert!(intact, "as assembled");
                black_box(fresh);
                spent
            });
        };
        verify_fresh("block/verify-400x370B", &delivered);
        bench.run("block/verify-400x370B-shared", Some(400), None, || {
            delivered.data_hash_is_valid()
        });
        let reseal = |name: &str, block: &Block| {
            bench.run_timed(name, Some(block.len() as u64), || {
                let mut fresh = block.clone();
                fresh.transactions = block.transactions.to_vec().into();
                fresh.transactions.data_hash();
                let start = Instant::now();
                let sealed = SealedBlock::seal(fresh, genesis_hash);
                let spent = start.elapsed();
                black_box(sealed);
                spent
            });
        };
        let mut block = delivered.clone();
        let members: Vec<usize> = (0..block.len()).collect();
        block.set_converged("hot".into(), vec![b'x'; 1400], members);
        block.validation_codes = vec![ValidationCode::ValidMerged; block.len()];
        reseal("block/reseal-400x-merged", &block);
        // `bigstate-pipelined`'s ingress check and re-seal. Where
        // Algorithm 1 converged nothing (a key written once commits its
        // own bytes) the record is 25 codes, and the re-seal hashes
        // those.
        let small = Block::assemble(1, genesis_hash, padded_txs(1400)[..25].to_vec());
        verify_fresh("block/verify-25x1400B", &small);
        // One transaction's three endorsements at that size: signed the
        // way an endorsing client pays (hash the payload once, one MAC
        // per endorser), verified the way a peer pays (one MAC per
        // endorsement from the digest hashed into the leaf).
        let endorsers =
            ["org1", "org2", "org3"].map(|org| KeyPair::derive(Identity::new("peer0", org)));
        let tx = &small.transactions[0];
        let payload = tx.response_payload();
        bench.run("crypto/endorse-3x1400B", Some(3), None, || {
            let digest = sha256::digest(&payload);
            endorsers.each_ref().map(|k| k.sign_digest(&digest))
        });
        let verify_all = || {
            let digest = small.transactions.payload_digest(0);
            let mut keys = tx.endorsements.iter().zip(&endorsers);
            keys.all(|(e, k)| k.verify_digest(digest, &e.signature).is_ok())
        };
        assert!(verify_all(), "every endorsement verifies");
        bench.run("crypto/verify-3x1400B", Some(3), None, verify_all);
        let mut small = small;
        small.validation_codes = vec![ValidationCode::Valid; small.len()];
        reseal("block/reseal-25x1400B-unchanged", &small);
        let sealed = SealedBlock::seal(block, genesis_hash);
        let block = sealed.clone().into_block();
        let fresh_chain = || {
            let mut chain = Blockchain::new();
            chain.append(Block::genesis()).expect("genesis");
            chain
        };
        bench.run_timed("chain/append-sealed-400x-merged", Some(400), || {
            let (mut chain, sealed) = (fresh_chain(), sealed.clone());
            let start = Instant::now();
            chain.append_sealed(sealed).expect("extends genesis");
            let spent = start.elapsed();
            black_box(chain);
            spent
        });
        bench.run_timed("chain/append-verify-400x-merged", Some(400), || {
            let (mut chain, block) = (fresh_chain(), block.clone());
            let start = Instant::now();
            chain.append(block).expect("extends genesis");
            let spent = start.elapsed();
            black_box(chain);
            spent
        });
    }

    let text = payload(7);
    bench.run(
        "json/parse-iot-payload",
        None,
        Some(text.len() as u64),
        || Value::parse(&text).unwrap(),
    );
    let value = Value::parse(&text).unwrap();
    bench.run("json/serialize-iot-payload", None, None, || {
        value.to_compact_string()
    });

    for n in [10usize, 25, 100, 400] {
        let values: Vec<Value> = (0..n).map(|i| Value::parse(&payload(i)).unwrap()).collect();
        bench.run(
            &format!("jsoncrdt/merge-n-transactions/{n}"),
            Some(n as u64),
            None,
            || {
                let mut doc = JsonCrdt::new(ReplicaId(1));
                for v in &values {
                    doc.merge_value(v).unwrap();
                }
                doc.to_value()
            },
        );
    }

    {
        // The two merges `perf/` times, at its sizes: `bigstate-pipelined`
        // folds one document (`deviceID` + 32 readings of 40 B) into an
        // empty CRDT per key, `hotkey-merge` folds 400 documents of 47 B
        // into one; then each converged document back to the bytes
        // Algorithm 1 line 20 writes into the block.
        let readings: Vec<String> = (0..32)
            .map(|j| format!(r#""r7-{j}-0123456789abcdef0123456789abcdef""#))
            .collect();
        let text = format!(
            r#"{{"deviceID":"device-123","readings":[{}]}}"#,
            readings.join(",")
        );
        let big = [Value::parse(&text).unwrap()];
        let bytes = Some(text.len() as u64);
        bench.run("json/parse-1400B", None, bytes, || {
            Value::parse(&text).unwrap()
        });
        bench.run("json/serialize-1400B", None, bytes, || big[0].to_bytes());
        let hot: Vec<Value> = (0..400)
            .map(|i| iot_payload("ch0-hot-key0", i, 1))
            .collect();
        let merged = |documents: &[Value]| {
            let mut doc = JsonCrdt::new(ReplicaId(1));
            for document in documents {
                doc.merge_value(document).unwrap();
            }
            doc
        };
        bench.run("jsoncrdt/merge-1x1400B", Some(1), None, || merged(&big));
        // What Algorithm 1 does instead for a key written once: the merge
        // and the conversion below, without the CRDT.
        bench.run("jsoncrdt/alone-1x1400B", Some(1), None, || {
            let mut bytes = Vec::new();
            write_alone(&big[0], &mut bytes).unwrap();
            bytes
        });
        // And what it does when the chaincode wrote the document in that
        // form already: one pass over the bytes, nothing parsed.
        bench.run("jsoncrdt/alone-as-is-1x1400B", Some(1), bytes, || {
            alone_as_is(black_box(text.as_bytes())).unwrap()
        });
        bench.run("jsoncrdt/merge-400x47B-one-key", Some(400), None, || {
            merged(&hot)
        });
        // The same documents as Algorithm 1 merges them: as the
        // chaincode wrote them, in the normal form, walked unparsed.
        let hot_bytes: Vec<Vec<u8>> = hot.iter().map(Value::to_bytes).collect();
        bench.run(
            "jsoncrdt/merge-bytes-400x47B-one-key",
            Some(400),
            None,
            || {
                let mut doc = JsonCrdt::new(ReplicaId(1));
                for document in &hot_bytes {
                    doc.merge_bytes(document).unwrap();
                }
                doc
            },
        );
        let converged = |doc: &JsonCrdt| {
            let mut bytes = Vec::new();
            doc.write_bytes(&mut bytes);
            bytes
        };
        let (big, hot) = (merged(&big), merged(&hot));
        bench.run("jsoncrdt/convert-1400B", None, None, || converged(&big));
        bench.run("jsoncrdt/convert-400x47B", None, None, || converged(&hot));
    }

    for n in [25usize, 400] {
        let txs: Vec<Transaction> = (0..n as u64).map(plain_tx).collect();
        bench.run(
            &format!("validator/fabric-mvcc/{n}"),
            Some(n as u64),
            None,
            || {
                let mut state = seeded_state();
                let mut block = Block::assemble(2, [0; 32], txs.clone());
                FabricValidator::new().validate_and_commit(&mut block, &mut state, &[])
            },
        );
    }

    for n in [25usize, 100, 400] {
        let txs: Vec<Transaction> = (0..n as u64).map(|i| crdt_tx(i, true)).collect();
        bench.run(
            &format!("validator/fabriccrdt-merge/{n}"),
            Some(n as u64),
            None,
            || {
                let mut state = seeded_state();
                let mut block = Block::assemble(2, [0; 32], txs.clone());
                CrdtValidator::new().validate_and_commit(&mut block, &mut state, &[])
            },
        );
    }

    {
        /// A batch of `n` from each transaction's (reads, writes).
        fn batch_of(
            n: u64,
            mut access: impl FnMut(u64) -> (Vec<String>, Vec<String>),
        ) -> Vec<Transaction> {
            let client = Identity::new("client", "org1");
            (0..n)
                .map(|i| {
                    let (reads, writes) = access(i);
                    let mut rwset = ReadWriteSet::new();
                    for key in reads {
                        rwset.reads.record(key, Some(Height::new(1, 0)));
                    }
                    for key in writes {
                        rwset.writes.put(key, vec![i as u8]);
                    }
                    Transaction {
                        id: TxId::derive(&client, i, "cc"),
                        client: client.clone(),
                        chaincode: "cc".into(),
                        rwset,
                        endorsements: Vec::new(),
                    }
                })
                .collect()
        }
        // A mixed batch: writers on a hot key plus readers of it — the
        // workload the Fabric++ baseline reorders profitably.
        let mixed = |i: u64| match i % 2 {
            0 => (vec![], vec!["hot".to_string()]),
            _ => (vec!["hot".to_string()], vec![format!("priv-{i}")]),
        };
        // `mvcc-reorder-retry`'s batch: each transaction reads and
        // writes one Zipf(0.9) key out of 2 000.
        let zipf = ZipfSampler::new(2_000, 0.9);
        let mut rng = SimRng::seed_from(42);
        let zipf_rmw = |_| {
            let key = ZipfWorkload::key(zipf.sample(&mut rng));
            (vec![key.clone()], vec![key])
        };
        // The paper's all-conflicting batch (Ablation A): one clique.
        let one_key_rmw = |_| (vec!["hot".to_string()], vec!["hot".to_string()]);
        for (name, n, batch) in [
            ("batch", 25, batch_of(25, mixed)),
            ("batch", 400, batch_of(400, mixed)),
            ("zipf0.9-rmw", 400, batch_of(400, zipf_rmw)),
            ("one-key-rmw", 400, batch_of(400, one_key_rmw)),
        ] {
            bench.run(&format!("reorder/{name}/{n}"), Some(n), None, || {
                fabriccrdt_fabric::reorder::reorder_batch(batch.clone())
            });
        }
    }

    {
        let txs: Vec<Transaction> = (0..400).map(plain_tx).collect();
        // Cloning the batch is most of an iteration and swings with
        // the allocator's state, so only `receive` and the cut are timed.
        bench.run_timed("orderer/cut-400-tx-blocks", Some(400), || {
            let mut orderer = Orderer::new(BlockCutConfig::with_max_tx(400));
            let batch = txs.clone();
            let start = Instant::now();
            let blocks: Vec<Block> = batch
                .into_iter()
                .filter_map(|tx| orderer.receive(tx, SimTime::ZERO).0)
                .collect();
            let spent = start.elapsed();
            assert_eq!(blocks.len(), 1);
            spent
        });
    }

    replication_layers(&bench);
    state_size_sweep(&bench);
}
