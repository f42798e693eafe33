//! Micro-benchmarks for the hot paths behind the figures: SHA-256 and
//! Merkle hashing (block sealing), JSON parse/serialize (chaincode
//! payloads), JSON-CRDT merging at several block sizes (the mechanism
//! behind Figure 3's block-size penalty), MVCC validation, the
//! FabricCRDT merge-validate path, and orderer block cutting.
//!
//! The harness is self-contained (no criterion) so the workspace builds
//! offline: each benchmark is warmed up, then timed over enough
//! iterations to fill a fixed measurement window, reporting ns/iter and
//! derived throughput.
//!
//! Run with: `cargo bench` (or `cargo bench -- <filter>`), and
//! `BENCH_QUICK=1 cargo bench` for a fast smoke pass.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::{merkle, sha256, Identity};
use fabriccrdt_fabric::config::BlockCutConfig;
use fabriccrdt_fabric::orderer::Orderer;
use fabriccrdt_fabric::validator::{BlockValidator, FabricValidator};
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_sim::time::SimTime;

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

    fn run<T>(
        &self,
        name: &str,
        elements: Option<u64>,
        bytes: Option<u64>,
        mut f: impl FnMut() -> T,
    ) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
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
        let elapsed = start.elapsed();
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

    // The block FabricCRDT re-seals on `hotkey-merge`: 400 transactions
    // whose merged write brings each to 1 777 canonical bytes.
    {
        let mut txs: Vec<Transaction> = (0..400).map(|i| crdt_tx(i, true)).collect();
        for tx in &mut txs {
            let padding = 1777 - tx.to_bytes().len();
            let mut value = tx.rwset.writes.get("hot").expect("written").value.clone();
            value.resize(value.len() + padding, b' ');
            tx.rwset.writes.update_value("hot", value);
        }
        let bytes: usize = txs.iter().map(|tx| tx.to_bytes().len()).sum();
        assert_eq!(bytes, 400 * 1777);
        bench.run(
            "merkle/data-hash-400x1777B",
            Some(400),
            Some(bytes as u64),
            || Block::compute_data_hash(&txs),
        );
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

    for n in [25usize, 400] {
        // A mixed batch: writers on a hot key plus readers of it — the
        // workload the Fabric++ baseline reorders profitably.
        let client = Identity::new("client", "org1");
        let batch: Vec<Transaction> = (0..n as u64)
            .map(|i| {
                let mut rwset = ReadWriteSet::new();
                if i % 2 == 0 {
                    rwset.writes.put("hot", vec![i as u8]);
                } else {
                    rwset.reads.record("hot", Some(Height::new(1, 0)));
                    rwset.writes.put(format!("priv-{i}"), vec![i as u8]);
                }
                Transaction {
                    id: TxId::derive(&client, i, "cc"),
                    client: client.clone(),
                    chaincode: "cc".into(),
                    rwset,
                    endorsements: Vec::new(),
                }
            })
            .collect();
        bench.run(&format!("reorder/batch/{n}"), Some(n as u64), None, || {
            fabriccrdt_fabric::reorder::reorder_batch(batch.clone())
        });
    }

    {
        let txs: Vec<Transaction> = (0..400).map(plain_tx).collect();
        bench.run("orderer/cut-400-tx-blocks", Some(400), None, || {
            let mut orderer = Orderer::new(BlockCutConfig::with_max_tx(400));
            let mut cut = 0;
            for tx in txs.clone() {
                if orderer.receive(tx, SimTime::ZERO).0.is_some() {
                    cut += 1;
                }
            }
            cut
        });
    }
}
