//! A Caliper-like multi-round benchmark runner.
//!
//! Hyperledger Caliper (§7.2, v0.1.0 in the paper) drives a benchmark as
//! a sequence of *rounds*, each with its own workload parameters, and
//! emits a per-round report of throughput, latency and success counts.
//! [`Benchmark`] is that runner over [`ExperimentConfig`] cells: label
//! the rounds, run them (optionally after a warm-up pass), and render
//! the final report.
//!
//! # Examples
//!
//! ```
//! use fabriccrdt_workload::caliper::Benchmark;
//! use fabriccrdt_workload::experiment::{ExperimentConfig, SystemKind};
//!
//! let base = ExperimentConfig {
//!     total_txs: 150,
//!     ..ExperimentConfig::paper_defaults()
//! };
//! let report = Benchmark::new("quick-comparison")
//!     .round("fabriccrdt", base)
//!     .round("fabric", base.for_system(SystemKind::Fabric))
//!     .run();
//! assert_eq!(report.rounds().len(), 2);
//! println!("{}", report.render());
//! ```

use crate::experiment::{ExperimentConfig, ExperimentResult};
use crate::report::{cache_cell, latency_cell, render_table};

/// One configured round.
#[derive(Debug, Clone)]
struct Round {
    label: String,
    config: ExperimentConfig,
}

/// A multi-round benchmark definition (builder).
#[derive(Debug, Clone)]
pub struct Benchmark {
    name: String,
    rounds: Vec<Round>,
    warmup_txs: usize,
}

impl Benchmark {
    /// Creates an empty benchmark.
    pub fn new(name: impl Into<String>) -> Self {
        Benchmark {
            name: name.into(),
            rounds: Vec::new(),
            warmup_txs: 0,
        }
    }

    /// Adds a round.
    pub fn round(mut self, label: impl Into<String>, config: ExperimentConfig) -> Self {
        self.rounds.push(Round {
            label: label.into(),
            config,
        });
        self
    }

    /// Runs a short warm-up pass of `txs` transactions before each
    /// measured round (discarded from the report). Caliper uses warm-up
    /// rounds to populate caches; in this deterministic simulator it
    /// only affects nothing but is supported for protocol parity.
    pub fn warmup(mut self, txs: usize) -> Self {
        self.warmup_txs = txs;
        self
    }

    /// Executes every round in order.
    pub fn run(self) -> BenchmarkReport {
        let mut results = Vec::with_capacity(self.rounds.len());
        for round in self.rounds {
            if self.warmup_txs > 0 {
                let warmup = ExperimentConfig {
                    total_txs: self.warmup_txs,
                    ..round.config
                };
                let _ = warmup.run();
            }
            let result = round.config.run();
            results.push((round.label, result));
        }
        BenchmarkReport {
            name: self.name,
            results,
        }
    }
}

/// The per-round results of a completed benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    name: String,
    results: Vec<(String, ExperimentResult)>,
}

impl BenchmarkReport {
    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `(label, result)` pairs in execution order.
    pub fn rounds(&self) -> &[(String, ExperimentResult)] {
        &self.results
    }

    /// Looks up a round by label.
    pub fn round(&self, label: &str) -> Option<&ExperimentResult> {
        self.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| r)
    }

    /// Renders the Caliper-style report table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            .map(|(label, r)| {
                vec![
                    label.clone(),
                    r.config.system.label().to_owned(),
                    format!("{}", r.config.rate_tps as u64),
                    format!("{:.1}", r.throughput_tps),
                    latency_cell(r.avg_latency_secs),
                    latency_cell(r.p95_latency_secs),
                    r.successful.to_string(),
                    r.failed.to_string(),
                    cache_cell(r.decode_cache),
                ]
            })
            .collect();
        format!(
            "benchmark: {}\n{}",
            self.name,
            render_table(
                &[
                    "round",
                    "system",
                    "rate",
                    "tput(tps)",
                    "avg-lat(s)",
                    "p95-lat(s)",
                    "ok",
                    "failed",
                    "cache-hit%",
                ],
                &rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SystemKind;

    fn base(txs: usize) -> ExperimentConfig {
        ExperimentConfig {
            total_txs: txs,
            ..ExperimentConfig::paper_defaults()
        }
    }

    #[test]
    fn runs_rounds_in_order() {
        let report = Benchmark::new("test")
            .round("crdt", base(120))
            .round("fabric", base(120).for_system(SystemKind::Fabric))
            .run();
        assert_eq!(report.rounds().len(), 2);
        assert_eq!(report.rounds()[0].0, "crdt");
        assert_eq!(report.round("crdt").unwrap().successful, 120);
        assert!(report.round("fabric").unwrap().failed > 0);
        assert!(report.round("nope").is_none());
    }

    #[test]
    fn render_contains_labels_and_metrics() {
        let report = Benchmark::new("render-check").round("only", base(60)).run();
        let text = report.render();
        assert!(text.contains("render-check"));
        assert!(text.contains("only"));
        assert!(text.contains("FabricCRDT"));
        assert!(text.contains("60"));
    }

    #[test]
    fn warmup_does_not_change_results() {
        let without = Benchmark::new("a").round("r", base(100)).run();
        let with = Benchmark::new("b").round("r", base(100)).warmup(20).run();
        assert_eq!(
            without.round("r").unwrap().successful,
            with.round("r").unwrap().successful
        );
    }
}
