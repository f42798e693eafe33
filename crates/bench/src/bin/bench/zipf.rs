//! Extension experiment: conflict-resolution strategies under Zipf skew.
//!
//! The paper's Figure 7 controls contention with a fixed percentage of
//! transactions on one shared key; real workloads skew smoothly — key
//! popularity follows a Zipf law. This bench sweeps the Zipf skew `s`
//! over a configurable key space and compares four ways of surviving
//! the resulting MVCC conflicts:
//!
//! 1. **fabriccrdt** — merge-commit (the paper's contribution): every
//!    CRDT-flagged conflict merges and commits; nothing fails.
//! 2. **fabric-retry** — vanilla Fabric with the client-side
//!    abort-and-retry loop ([`fabriccrdt_fabric::config::RetryPolicy`]):
//!    failed transactions re-submit with seeded exponential backoff.
//! 3. **fabric-reorder** — Fabric++-style dependency-graph reordering
//!    with early abort at the orderer.
//! 4. **fabric-adaptive** — the conflict-aware adaptive policy: the
//!    orderer's decayed per-key heat tracker gates reordering on batch
//!    conflict density, so cold traffic skips the Tarjan/Kahn cost.
//!
//! Each Fabric arm runs at every retry budget in [`RETRY_BUDGETS`], so
//! the artifact separates what ordering wins from what retrying wins.
//! Results land in `BENCH_zipf_conflict.json` (goodput, wasted
//! validation work, retry counters, latency percentiles per cell) and
//! the table below; EXPERIMENTS.md discusses the crossover.
//!
//! Options beyond the standard harness flags: `--rate TPS` (arrival
//! rate, default 300), `--block-size N` (overrides both the CRDT 25-tx
//! and Fabric 400-tx paper cuts), `--keys N` (key-space size, default
//! 100).
//!
//! Not a paper figure — clearly an extension; reported separately in
//! EXPERIMENTS.md.

use std::sync::Arc;

use fabriccrdt::{fabric_simulation, fabriccrdt_simulation};
use fabriccrdt_bench::{obj, report, HarnessOptions};
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeRegistry};
use fabriccrdt_fabric::config::{OrderingPolicy, PipelineConfig, RetryPolicy};
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::simulation::Simulation;
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_workload::iot::IotChaincode;
use fabriccrdt_workload::report::render_table;
use fabriccrdt_workload::zipf::ZipfWorkload;

/// Default key-space size (`--keys` overrides).
const KEYS: usize = 100;
/// The swept Zipf skews: uniform through heavily concentrated.
const SKEWS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];
/// Retry budgets each Fabric arm runs at (0 = no client retries).
const RETRY_BUDGETS: [usize; 2] = [0, 2];

/// One conflict-resolution strategy under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    MergeCommit,
    AbortRetry,
    ReorderAbort,
    Adaptive,
}

impl Strategy {
    const ALL: [Strategy; 4] = [
        Strategy::MergeCommit,
        Strategy::AbortRetry,
        Strategy::ReorderAbort,
        Strategy::Adaptive,
    ];

    fn label(self) -> &'static str {
        match self {
            Strategy::MergeCommit => "fabriccrdt",
            Strategy::AbortRetry => "fabric-retry",
            Strategy::ReorderAbort => "fabric-reorder",
            Strategy::Adaptive => "fabric-adaptive",
        }
    }

    /// CRDT merge-commit never fails, so retry budgets are moot there.
    fn budgets(self) -> &'static [usize] {
        match self {
            Strategy::MergeCommit => &[0],
            _ => &RETRY_BUDGETS,
        }
    }

    /// The paper block cut for this arm: 25 for FabricCRDT, 400 for
    /// vanilla Fabric (§7.2 calibration).
    fn default_block_cut(self) -> usize {
        match self {
            Strategy::MergeCommit => 25,
            _ => 400,
        }
    }
}

/// One measured cell of the sweep.
struct Cell {
    strategy: Strategy,
    skew: f64,
    retry_budget: usize,
    metrics: RunMetrics,
}

fn run_cell(strategy: Strategy, skew: f64, budget: usize, options: &HarnessOptions) -> RunMetrics {
    let keys = options.keys.unwrap_or(KEYS);
    let block_cut = options.block_size_or(strategy.default_block_cut());

    let mut registry = ChaincodeRegistry::new();
    let chaincode: Arc<dyn Chaincode> = match strategy {
        Strategy::MergeCommit => Arc::new(IotChaincode::crdt()),
        _ => Arc::new(IotChaincode::plain()),
    };
    let name = chaincode.name().to_owned();
    registry.deploy(chaincode);

    let config = PipelineConfig::paper(block_cut, options.config.seed)
        .with_retry_policy(RetryPolicy::calibrated(budget));
    let config = match strategy {
        Strategy::ReorderAbort => config.with_ordering_policy(OrderingPolicy::Reorder),
        Strategy::Adaptive => config.with_ordering_policy(OrderingPolicy::Adaptive),
        Strategy::MergeCommit | Strategy::AbortRetry => config,
    };
    let workload = ZipfWorkload {
        chaincode: name,
        total_txs: options.config.total_txs,
        keys,
        skew,
        rate_tps: options.config.rate_tps,
        seed: options.config.seed,
    };
    // The two validator types give the arms different `Simulation`
    // types; the generic driver reunifies them.
    fn drive<V: BlockValidator>(
        mut sim: Simulation<V>,
        keys: usize,
        workload: &ZipfWorkload,
    ) -> RunMetrics {
        for k in 0..keys {
            sim.seed_state(ZipfWorkload::key(k), ZipfWorkload::seed_doc());
        }
        sim.run(workload.schedule())
    }
    if strategy == Strategy::MergeCommit {
        drive(fabriccrdt_simulation(config, registry), keys, &workload)
    } else {
        drive(fabric_simulation(config, registry), keys, &workload)
    }
}

pub fn run(options: &HarnessOptions) -> Result<(), String> {
    let keys = options.keys.unwrap_or(KEYS);
    let rate_tps = options.config.rate_tps;
    println!(
        "=== Extension: conflict strategies under Zipf skew \
         ({keys} keys, {rate_tps:.0} tps; not a paper figure) ===\n"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for strategy in Strategy::ALL {
        for &budget in strategy.budgets() {
            for &skew in &SKEWS {
                let metrics = run_cell(strategy, skew, budget, options);
                eprintln!(
                    "  done: {} s={skew} budget={budget} -> {:.1} tps goodput, \
                     {} ok, {} retries",
                    strategy.label(),
                    metrics.successful_throughput_tps(),
                    metrics.successful(),
                    metrics.retry.retries
                );
                cells.push(Cell {
                    strategy,
                    skew,
                    retry_budget: budget,
                    metrics,
                });
            }
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let m = &c.metrics;
            let policy = m.conflict_policy.as_ref();
            vec![
                c.strategy.label().to_owned(),
                format!("{:.1}", c.skew),
                c.retry_budget.to_string(),
                format!("{:.1}", m.successful_throughput_tps()),
                m.successful().to_string(),
                m.failed().to_string(),
                m.retry.retries.to_string(),
                m.retry.retry_success.to_string(),
                m.retry.wasted_validation_work.to_string(),
                policy.map_or_else(|| "-".to_owned(), |p| p.early_aborts().to_string()),
                policy.map_or_else(|| "-".to_owned(), |p| p.batches_reordered.to_string()),
                m.latency_summary()
                    .percentile(95.0)
                    .map_or_else(|| "n/a".to_owned(), |s| format!("{s:.3}")),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "strategy",
                "zipf-s",
                "budget",
                "goodput(tps)",
                "ok",
                "failed",
                "retries",
                "retry-ok",
                "wasted-work",
                "early-aborts",
                "reordered",
                "p95-lat(s)",
            ],
            &rows,
        )
    );

    // ---- BENCH_zipf_conflict.json ---------------------------------
    let seconds = |s: Option<f64>| s.map_or(Value::Null, Value::from);
    let cells_json = cells.iter().map(|c| {
        let m = &c.metrics;
        let latency = m.latency_summary();
        let policy = m.conflict_policy.as_ref();
        obj([
            ("strategy", c.strategy.label().into()),
            ("skew", c.skew.into()),
            ("retry_budget", (c.retry_budget as f64).into()),
            ("goodput_tps", m.successful_throughput_tps().into()),
            ("committed", (m.successful() as f64).into()),
            ("failed", (m.failed() as f64).into()),
            ("retries", (m.retry.retries as f64).into()),
            ("retry_success", (m.retry.retry_success as f64).into()),
            (
                "wasted_validation_work",
                (m.retry.wasted_validation_work as f64).into(),
            ),
            (
                "early_aborts",
                (policy.map_or(0, |p| p.early_aborts()) as f64).into(),
            ),
            (
                "batches_reordered",
                (policy.map_or(0, |p| p.batches_reordered) as f64).into(),
            ),
            ("latency_p50_secs", seconds(latency.percentile(50.0))),
            ("latency_p95_secs", seconds(latency.percentile(95.0))),
            ("latency_max_secs", seconds(latency.max())),
        ])
    });
    let block_cut_of =
        |strategy: Strategy| options.block_size_or(strategy.default_block_cut()) as f64;
    let json = obj([
        ("bench", "zipf_conflict".into()),
        ("txs", (options.config.total_txs as f64).into()),
        ("seed", (options.config.seed as f64).into()),
        ("keys", (keys as f64).into()),
        ("rate_tps", rate_tps.into()),
        ("skews", SKEWS.iter().map(|&s| Value::from(s)).collect()),
        (
            "retry_budgets",
            RETRY_BUDGETS
                .iter()
                .map(|&b| Value::from(b as f64))
                .collect(),
        ),
        ("crdt_block_cut", block_cut_of(Strategy::MergeCommit).into()),
        (
            "fabric_block_cut",
            block_cut_of(Strategy::AbortRetry).into(),
        ),
        ("cells", Value::list(cells_json)),
    ]);
    let last_cell = cells.len() - 1;
    report(
        "BENCH_zipf_conflict.json",
        &json,
        &[
            "cells.0.strategy",
            "cells.0.skew",
            "cells.0.goodput_tps",
            "cells.0.retries",
            "cells.0.wasted_validation_work",
            &format!("cells.{last_cell}.goodput_tps"),
        ],
    )?;
    println!("wrote BENCH_zipf_conflict.json ({} cells)", cells.len());

    // ---- Acceptance self-checks -----------------------------------
    // Both are claims about the default sweep that other flags can make
    // false, so a miss ends the run as an error after the table and the
    // artifact are written.
    let goodput = |strategy: Strategy, skew: f64, budget: usize| {
        cells
            .iter()
            .find(|c| {
                c.strategy == strategy && (c.skew - skew).abs() < 1e-9 && c.retry_budget == budget
            })
            .map(|c| c.metrics.successful_throughput_tps())
            .expect("cell present")
    };
    // Merge-commit dominates every conflict-avoidance arm at heavy skew.
    let crdt_hot = goodput(Strategy::MergeCommit, 1.2, 0);
    for strategy in [
        Strategy::AbortRetry,
        Strategy::ReorderAbort,
        Strategy::Adaptive,
    ] {
        for &budget in strategy.budgets() {
            let other = goodput(strategy, 1.2, budget);
            if crdt_hot < other {
                return Err(format!(
                    "FabricCRDT goodput {crdt_hot:.1} tps fell below {} (budget {budget}) \
                     {other:.1} tps at s=1.2",
                    strategy.label()
                ));
            }
        }
    }
    // Adaptive's density gate must never cost goodput on uniform traffic
    // relative to always-reordering.
    for &budget in &RETRY_BUDGETS {
        let adaptive = goodput(Strategy::Adaptive, 0.0, budget);
        let reorder = goodput(Strategy::ReorderAbort, 0.0, budget);
        if adaptive < reorder {
            return Err(format!(
                "adaptive goodput {adaptive:.1} tps below always-reorder \
                 {reorder:.1} tps at s=0.0 (budget {budget})"
            ));
        }
    }
    println!("acceptance self-checks passed (crdt>=all at s=1.2; adaptive>=reorder at s=0.0)");
    Ok(())
}
