//! Shared harness for the figure-regeneration binaries.
//!
//! One binary per figure of the paper's evaluation (`fig3` … `fig7`,
//! plus `tables`); each prints the same series the corresponding figure
//! plots — throughput of successful transactions (panel a), average
//! latency of successful transactions (panel b), and number of
//! successful transactions (panel c) — for both FabricCRDT and Fabric.
//!
//! Every binary accepts:
//!
//! - `--txs N` — transactions per cell (default 10 000, the paper's
//!   count; lower for a quick look),
//! - `--seed S` — PRNG seed (default 42).

use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_workload::experiment::{ExperimentConfig, SystemKind};
use fabriccrdt_workload::report::{figure_headers, figure_row, render_table};

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Transactions per experiment cell.
    pub total_txs: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Optional CSV output path for plotting pipelines.
    pub csv: Option<String>,
    /// Arrival rate override in transactions per second (binaries that
    /// hardcode a rate use this instead when set).
    pub rate_tps: Option<f64>,
    /// Block-cut size override (max transactions per block).
    pub block_cut: Option<usize>,
    /// Key-space size override for contention sweeps.
    pub keys: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            total_txs: 10_000,
            seed: 42,
            csv: None,
            rate_tps: None,
            block_cut: None,
            keys: None,
        }
    }
}

impl HarnessOptions {
    /// Parses `--txs N`, `--seed S`, `--csv PATH`, `--rate TPS`,
    /// `--block-cut N` and `--keys N` from the process arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut options = HarnessOptions::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--txs" => {
                    options.total_txs = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .expect("--txs requires a positive integer");
                    i += 2;
                }
                "--seed" => {
                    options.seed = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--seed requires an integer");
                    i += 2;
                }
                "--csv" => {
                    options.csv =
                        Some(args.get(i + 1).expect("--csv requires a file path").clone());
                    i += 2;
                }
                "--rate" => {
                    let rate = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .filter(|&r: &f64| r.is_finite() && r > 0.0)
                        .expect("--rate requires a positive number (tps)");
                    options.rate_tps = Some(rate);
                    i += 2;
                }
                "--block-cut" => {
                    options.block_cut = Some(
                        args.get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .expect("--block-cut requires a positive integer"),
                    );
                    i += 2;
                }
                "--keys" => {
                    options.keys = Some(
                        args.get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .expect("--keys requires a positive integer"),
                    );
                    i += 2;
                }
                other => {
                    panic!(
                        "unknown argument {other:?}; supported: --txs N, --seed S, --csv PATH, \
                         --rate TPS, --block-cut N, --keys N"
                    )
                }
            }
        }
        options
    }

    /// The base experiment configuration under these options.
    pub fn base_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            total_txs: self.total_txs,
            seed: self.seed,
            ..ExperimentConfig::paper_defaults()
        }
    }
}

/// Runs a sweep for both systems and prints the standard figure table.
///
/// `cells` yields `(x-label, config-for-that-x)` given a base config for
/// the system; rows print incrementally so long sweeps show progress.
pub fn run_figure<F>(title: &str, options: &HarnessOptions, systems: &[SystemKind], cells: F)
where
    F: Fn(SystemKind) -> Vec<(String, ExperimentConfig)>,
{
    println!("=== {title} ===");
    println!(
        "(10k-tx paper setup; running {} txs/cell, seed {})\n",
        options.total_txs, options.seed
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &system in systems {
        for (label, config) in cells(system) {
            let result = config.run();
            let row = figure_row(&label, &result);
            eprintln!(
                "  done: {} x={} -> {:.1} tps, {} ok",
                system.label(),
                label,
                result.throughput_tps,
                result.successful
            );
            rows.push(row);
        }
    }
    println!("{}", render_table(&figure_headers(), &rows));

    if let Some(path) = &options.csv {
        let mut csv = figure_headers().join(",");
        csv.push('\n');
        for row in &rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        match std::fs::write(path, csv) {
            Ok(()) => eprintln!("wrote CSV to {path}"),
            Err(e) => eprintln!("could not write CSV to {path}: {e}"),
        }
    }
}

/// A JSON object from `(field, value)` pairs — the building block of
/// the `BENCH_*.json` artifacts handed to [`report`].
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    fields
        .into_iter()
        .map(|(key, value)| (key.to_owned(), value))
        .collect()
}

/// Writes a bench artifact: serializes `value` to `path` with the repo's
/// own JSON serializer, re-parses the text with the repo's own parser,
/// and checks that every `required` path resolves in what came back.
/// Paths are dot-separated; a numeric segment indexes a list
/// (`cells.0.tps`).
///
/// # Panics
///
/// Panics if the file cannot be written, the text does not re-parse,
/// or a required path is missing — a malformed artifact fails the run
/// that produced it.
pub fn report(path: &str, value: &Value, required: &[&str]) {
    let text = value.to_pretty_string() + "\n";
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let parsed = Value::parse(&text).unwrap_or_else(|e| panic!("{path} is malformed: {e}"));
    for field in required {
        let found = field
            .split('.')
            .try_fold(&parsed, |node, segment| match node {
                Value::List(items) => items.get(segment.parse::<usize>().ok()?),
                _ => node.get(segment),
            });
        assert!(found.is_some(), "{path}: required field {field} is missing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_match_paper() {
        let o = HarnessOptions::default();
        assert_eq!(o.total_txs, 10_000);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn report_writes_reparses_and_checks_paths() {
        let path = std::env::temp_dir().join(format!("bench-report-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let value = obj([
            ("bench", "demo".into()),
            ("cells", Value::list([obj([("tps", 1.5.into())])])),
        ]);
        report(path, &value, &["bench", "cells.0.tps"]);
        let on_disk = std::fs::read_to_string(path).expect("artifact written");
        assert_eq!(on_disk.parse::<Value>().expect("parses"), value);
        let missing = std::panic::catch_unwind(|| report(path, &value, &["cells.1.tps"]));
        assert!(missing.is_err(), "a missing required path must panic");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn base_config_threads_options() {
        let o = HarnessOptions {
            total_txs: 123,
            seed: 9,
            ..HarnessOptions::default()
        };
        let cfg = o.base_config();
        assert_eq!(cfg.total_txs, 123);
        assert_eq!(cfg.seed, 9);
    }
}
