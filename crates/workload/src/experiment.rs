//! The experiment runner — one call per (system, configuration) cell of
//! the paper's evaluation.
//!
//! Fixed setup (§7.2): 3 organizations × 2 peers, 1 orderer, 1 channel,
//! 4 clients submitting a total of 10 000 transactions, ledger
//! pre-populated with every key read during the run. Per-experiment
//! knobs: block size, submission rate, read/write key counts, JSON
//! shape, and the percentage of conflicting transactions.

use fabriccrdt::{fabric_simulation, fabriccrdt_simulation};
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeRegistry};
use fabriccrdt_fabric::config::{OrderingPolicy, PipelineConfig};
use fabriccrdt_fabric::metrics::RunMetrics;
use std::sync::Arc;

use crate::generator::{shaped_payload, ConflictWorkload, JsonShape};
use crate::iot::IotChaincode;

/// Which system a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Vanilla Fabric: MVCC validation, conflicts fail.
    Fabric,
    /// FabricCRDT: Algorithm 1, conflicts merge.
    FabricCrdt,
    /// Fabric with Fabric++-style orderer reordering + early abort —
    /// the transaction-reordering baseline of the paper's §8.
    FabricReordering,
}

impl SystemKind {
    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Fabric => "Fabric",
            SystemKind::FabricCrdt => "FabricCRDT",
            SystemKind::FabricReordering => "Fabric++",
        }
    }

    /// The paper's best block size for this system (§7.3): 25 for
    /// FabricCRDT, 400 for Fabric (reordering inherits Fabric's).
    pub fn best_block_size(self) -> usize {
        match self {
            SystemKind::Fabric | SystemKind::FabricReordering => 400,
            SystemKind::FabricCrdt => 25,
        }
    }
}

/// Full configuration of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// System under test.
    pub system: SystemKind,
    /// Maximum transactions per block.
    pub block_size: usize,
    /// Aggregate submission rate over all clients, tx/s.
    pub rate_tps: f64,
    /// Total transactions submitted (10 000 in the paper).
    pub total_txs: usize,
    /// Keys read per transaction.
    pub read_keys: usize,
    /// Keys written per transaction.
    pub write_keys: usize,
    /// Shape of the JSON object written.
    pub shape: JsonShape,
    /// Percentage (0–100) of transactions touching the shared (hot) key
    /// set; the rest use per-transaction private keys.
    pub conflict_pct: u8,
    /// PRNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The base configuration shared by the paper's experiments
    /// (Tables 1–5): rate 300 tx/s, 1 read and 1 write key, 2-key JSON,
    /// 100 % conflicting, 10 000 transactions, FabricCRDT at its best
    /// block size.
    pub fn paper_defaults() -> Self {
        ExperimentConfig {
            system: SystemKind::FabricCrdt,
            block_size: SystemKind::FabricCrdt.best_block_size(),
            rate_tps: 300.0,
            total_txs: 10_000,
            read_keys: 1,
            write_keys: 1,
            shape: JsonShape::paper_default(),
            conflict_pct: 100,
            seed: 42,
        }
    }

    /// Same configuration switched to the other system at its own best
    /// block size — how the paper compares the two (§7.3).
    pub fn for_system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self.block_size = system.best_block_size();
        self
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `conflict_pct > 100` or a key count is zero.
    pub fn run(self) -> ExperimentResult {
        let chaincode = match self.system {
            SystemKind::Fabric | SystemKind::FabricReordering => IotChaincode::plain(),
            SystemKind::FabricCrdt => IotChaincode::crdt(),
        };
        let (schedule, seed_keys) = ConflictWorkload {
            key_prefix: "",
            chaincode: chaincode.name(),
            rate_tps: self.rate_tps,
            total_txs: self.total_txs,
            read_keys: self.read_keys,
            write_keys: self.write_keys,
            shape: self.shape,
            conflict_pct: self.conflict_pct,
            seed: self.seed,
            channel: 0,
        }
        .generate();
        let mut registry = ChaincodeRegistry::new();
        registry.deploy(Arc::new(chaincode));

        let mut pipeline = PipelineConfig::paper(self.block_size, self.seed);
        if self.system == SystemKind::FabricReordering {
            pipeline = pipeline.with_ordering_policy(OrderingPolicy::Reorder);
        }

        // §7.2: populate the ledger with the keys read during the run.
        let seed_value = shaped_payload(self.shape, "seed", usize::MAX).to_compact_string();
        let metrics = match self.system {
            SystemKind::Fabric | SystemKind::FabricReordering => {
                let mut sim = fabric_simulation(pipeline, registry);
                for key in &seed_keys {
                    sim.seed_state(key.clone(), seed_value.clone().into_bytes());
                }
                sim.run(schedule)
            }
            SystemKind::FabricCrdt => {
                let mut sim = fabriccrdt_simulation(pipeline, registry);
                for key in &seed_keys {
                    sim.seed_state(key.clone(), seed_value.clone().into_bytes());
                }
                sim.run(schedule)
            }
        };

        ExperimentResult::from_metrics(self, &metrics)
    }
}

/// The three quantities every figure plots, plus context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Successful transactions (panel c).
    pub successful: usize,
    /// Failed transactions.
    pub failed: usize,
    /// Successful-transaction throughput, tx/s (panel a).
    pub throughput_tps: f64,
    /// Average latency of successful transactions, seconds (panel b);
    /// `None` when the run committed nothing.
    pub avg_latency_secs: Option<f64>,
    /// 95th-percentile latency of successful transactions, seconds;
    /// `None` when the run committed nothing.
    pub p95_latency_secs: Option<f64>,
    /// Blocks committed.
    pub blocks: u64,
    /// Total simulated duration, seconds.
    pub duration_secs: f64,
}

impl ExperimentResult {
    fn from_metrics(config: ExperimentConfig, metrics: &RunMetrics) -> Self {
        let latency = metrics.latency_summary();
        ExperimentResult {
            config,
            successful: metrics.successful(),
            failed: metrics.failed(),
            throughput_tps: metrics.successful_throughput_tps(),
            avg_latency_secs: metrics.avg_latency_secs(),
            p95_latency_secs: latency.percentile(95.0),
            blocks: metrics.blocks_committed,
            duration_secs: metrics.end_time.as_secs_f64(),
        }
    }
}

/// One cell of a sweep: the x label a figure prints and the
/// configuration that runs there.
pub type Cell = (String, ExperimentConfig);

/// The one [`ExperimentConfig`] field a sweep varies, with its x values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Axis {
    /// Nothing varies: the base cell alone.
    Base,
    /// Maximum transactions per block.
    BlockSize(&'static [usize]),
    /// (keys read, keys written) per transaction.
    Keys(&'static [(usize, usize)]),
    /// "k-k complexity" of the written JSON object (§7.5).
    Complexity(&'static [usize]),
    /// Aggregate submission rate, tx/s.
    Rate(&'static [f64]),
    /// Percentage of conflicting transactions.
    Conflicts(&'static [u8]),
}

impl Axis {
    /// The cells along this axis, in x order: the label a figure prints
    /// and `base` with that x set.
    pub fn cells(self, base: ExperimentConfig) -> Vec<Cell> {
        fn along<X: Copy>(xs: &[X], cell: impl Fn(X) -> Cell) -> Vec<Cell> {
            xs.iter().map(|&x| cell(x)).collect()
        }
        let with = |set: &dyn Fn(&mut ExperimentConfig)| {
            let mut config = base;
            set(&mut config);
            config
        };
        match self {
            Axis::Base => vec![("base".to_owned(), base)],
            Axis::BlockSize(xs) => along(xs, |x| (x.to_string(), with(&|c| c.block_size = x))),
            Axis::Keys(xs) => along(xs, |(r, w)| {
                let config = with(&|c| (c.read_keys, c.write_keys) = (r, w));
                (format!("{r}r-{w}w"), config)
            }),
            Axis::Complexity(xs) => along(xs, |k| {
                let shape = JsonShape::complexity(k, k);
                (format!("{k}-{k}"), with(&|c| c.shape = shape))
            }),
            Axis::Rate(xs) => along(xs, |x| (format!("{x:.0}"), with(&|c| c.rate_tps = x))),
            Axis::Conflicts(xs) => along(xs, |x| (format!("{x}%"), with(&|c| c.conflict_pct = x))),
        }
    }
}

/// One experiment of the paper's evaluation (§7.3–7.7): a configuration
/// table, the figure plotted from it, and the axis it sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// Name of the regenerating experiment (`bench fig3`).
    pub figure: &'static str,
    /// Heading of the regenerated figure.
    pub title: &'static str,
    /// The paper's configuration table for this experiment.
    pub table: &'static str,
    /// Parameters the table holds fixed.
    pub fixed: &'static str,
    /// The swept parameter and its range, as the table states it.
    pub range: &'static str,
    /// The swept parameter and its values.
    pub axis: Axis,
}

/// The two systems every paper figure compares, in print order.
pub const PAPER_SYSTEMS: [SystemKind; 2] = [SystemKind::FabricCrdt, SystemKind::Fabric];

/// Tables 1–5 / Figures 3–7. Each system runs at its best block size
/// (§7.3) except where block size is the swept value.
pub const PAPER_SWEEPS: [Sweep; 5] = [
    Sweep {
        figure: "fig3",
        title: "Figure 3 / Table 1: effect of block size (all transactions conflicting)",
        table: "Table 1 (block size, Fig 3)",
        fixed: "rate=300/s, reads=1, writes=1, JSON keys=2, conflicts=100%",
        range: "block size in {25..1000}",
        axis: Axis::BlockSize(&[25, 50, 100, 200, 400, 1000]),
    },
    Sweep {
        figure: "fig4",
        title: "Figure 4 / Table 2: effect of read/write key counts",
        table: "Table 2 (read/write keys, Fig 4)",
        fixed: "rate=300/s, JSON keys=2, conflicts=100%",
        range: "reads, writes in {1,3,5}",
        axis: Axis::Keys(&[
            (1, 1),
            (1, 3),
            (1, 5),
            (3, 1),
            (3, 3),
            (3, 5),
            (5, 1),
            (5, 3),
            (5, 5),
        ]),
    },
    Sweep {
        figure: "fig5",
        title: "Figure 5 / Table 3: impact of JSON complexity (k-d objects)",
        table: "Table 3 (JSON complexity, Fig 5)",
        fixed: "rate=300/s, reads=1, writes=1, conflicts=100%",
        range: "k-d in {1-1..5-5}",
        axis: Axis::Complexity(&[1, 2, 3, 4, 5]),
    },
    Sweep {
        figure: "fig6",
        title: "Figure 6 / Table 4: impact of transaction arrival rate",
        table: "Table 4 (arrival rate, Fig 6)",
        fixed: "reads=1, writes=1, JSON keys=2, conflicts=100%",
        range: "rate in {100..500}/s",
        axis: Axis::Rate(&[100.0, 200.0, 300.0, 400.0, 500.0]),
    },
    Sweep {
        figure: "fig7",
        title: "Figure 7 / Table 5: impact of conflicting-transaction percentage",
        table: "Table 5 (conflict %, Fig 7)",
        fixed: "rate=300/s, reads=1, writes=1, JSON keys=2",
        range: "conflicts in {0..100}%",
        axis: Axis::Conflicts(&[0, 25, 50, 75, 100]),
    },
];

/// Runs `axis` on every system, system-major (the order the figures
/// print), yielding each cell's x label and result as it completes.
/// `base` supplies everything the axis does not set; each system runs
/// at its own best block size ([`ExperimentConfig::for_system`]).
pub fn run_sweep(
    systems: &[SystemKind],
    axis: Axis,
    base: ExperimentConfig,
) -> impl Iterator<Item = (String, ExperimentResult)> + '_ {
    systems
        .iter()
        .flat_map(move |&system| axis.cells(base.for_system(system)))
        .map(|(label, config)| (label, config.run()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(system: SystemKind) -> ExperimentConfig {
        ExperimentConfig {
            total_txs: 300,
            ..ExperimentConfig::paper_defaults().for_system(system)
        }
    }

    #[test]
    fn fabriccrdt_commits_everything_under_full_conflict() {
        let result = small(SystemKind::FabricCrdt).run();
        assert_eq!(result.successful, 300);
        assert_eq!(result.failed, 0);
        assert!(result.throughput_tps > 100.0);
    }

    #[test]
    fn fabric_fails_most_under_full_conflict() {
        let result = small(SystemKind::Fabric).run();
        assert!(result.successful < 60, "successes {}", result.successful);
        assert_eq!(result.successful + result.failed, 300);
    }

    #[test]
    fn zero_conflict_both_commit_everything() {
        for system in [SystemKind::Fabric, SystemKind::FabricCrdt] {
            let result = ExperimentConfig {
                conflict_pct: 0,
                ..small(system)
            }
            .run();
            assert_eq!(result.successful, 300, "{}", system.label());
        }
    }

    #[test]
    fn half_conflict_fabric_fails_only_conflicting_share() {
        let result = ExperimentConfig {
            conflict_pct: 50,
            ..small(SystemKind::Fabric)
        }
        .run();
        // Non-conflicting half always commits; some of the conflicting
        // half commits too (first per epoch).
        assert!(result.successful >= 150);
        assert!(result.failed > 50);
    }

    #[test]
    fn a_run_that_commits_nothing_has_no_latencies() {
        let result = ExperimentConfig {
            total_txs: 0,
            ..small(SystemKind::Fabric)
        }
        .run();
        assert_eq!(result.successful, 0);
        assert_eq!(result.avg_latency_secs, None);
        assert_eq!(result.p95_latency_secs, None, "not a perfect 0.0 s");
    }

    #[test]
    fn results_are_deterministic() {
        let a = small(SystemKind::FabricCrdt).run();
        let b = small(SystemKind::FabricCrdt).run();
        assert_eq!(a, b);
    }

    #[test]
    fn larger_blocks_slow_fabriccrdt() {
        let small_blocks = ExperimentConfig {
            block_size: 25,
            total_txs: 500,
            ..ExperimentConfig::paper_defaults()
        }
        .run();
        let large_blocks = ExperimentConfig {
            block_size: 500,
            total_txs: 500,
            ..ExperimentConfig::paper_defaults()
        }
        .run();
        assert!(
            small_blocks.throughput_tps > large_blocks.throughput_tps,
            "small {} vs large {}",
            small_blocks.throughput_tps,
            large_blocks.throughput_tps
        );
        assert_eq!(large_blocks.successful, 500); // still no failures
    }

    #[test]
    fn fabric_reordering_runs_and_early_aborts() {
        let result = small(SystemKind::FabricReordering).run();
        // Under the all-conflicting RMW workload, reordering can only
        // early-abort the conflict cliques; everything still resolves.
        assert_eq!(result.successful + result.failed, 300);
        assert!(result.failed > 0);
    }

    /// DESIGN.md §3's "Workload & sweep" column, row by row.
    #[test]
    fn paper_sweeps_match_the_experiment_index() {
        let expected: [(&str, &[&str]); 5] = [
            ("fig3", &["25", "50", "100", "200", "400", "1000"]),
            (
                "fig4",
                &[
                    "1r-1w", "1r-3w", "1r-5w", "3r-1w", "3r-3w", "3r-5w", "5r-1w", "5r-3w", "5r-5w",
                ],
            ),
            ("fig5", &["1-1", "2-2", "3-3", "4-4", "5-5"]),
            ("fig6", &["100", "200", "300", "400", "500"]),
            ("fig7", &["0%", "25%", "50%", "75%", "100%"]),
        ];
        let base = ExperimentConfig::paper_defaults();
        for (sweep, (figure, labels)) in PAPER_SWEEPS.iter().zip(expected) {
            assert_eq!(sweep.figure, figure);
            let cells = sweep.axis.cells(base);
            let got: Vec<&str> = cells.iter().map(|(label, _)| label.as_str()).collect();
            assert_eq!(got, labels, "{figure}");
        }
        assert_eq!(Axis::Base.cells(base), [("base".to_owned(), base)]);
    }

    #[test]
    fn run_sweep_is_system_major_at_each_best_block_size() {
        let base = ExperimentConfig {
            total_txs: 60,
            ..ExperimentConfig::paper_defaults()
        };
        let seen: Vec<String> = run_sweep(&PAPER_SYSTEMS, Axis::Conflicts(&[0, 100]), base)
            .map(|(x, r)| format!("{x} {} {}", r.config.system.label(), r.config.block_size))
            .collect();
        let expected = [
            "0% FabricCRDT 25",
            "100% FabricCRDT 25",
            "0% Fabric 400",
            "100% Fabric 400",
        ];
        assert_eq!(seen, expected);
    }

    #[test]
    fn best_block_sizes_match_paper() {
        assert_eq!(SystemKind::FabricCrdt.best_block_size(), 25);
        assert_eq!(SystemKind::Fabric.best_block_size(), 400);
    }

    #[test]
    fn for_system_switches_block_size() {
        let cfg = ExperimentConfig::paper_defaults().for_system(SystemKind::Fabric);
        assert_eq!(cfg.system, SystemKind::Fabric);
        assert_eq!(cfg.block_size, 400);
    }
}
