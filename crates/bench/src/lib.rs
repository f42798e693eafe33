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
use fabriccrdt_workload::flags::Flags;
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
    /// `--block-cut N` and `--keys N` from the process arguments. On an
    /// unknown flag or an unusable value it prints `error: …` and exits
    /// with status 1, like the `fabriccrdt-repro` CLI.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(1)
        })
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        let flags = Flags::parse(args, &["txs", "seed", "csv", "rate", "block-cut", "keys"])?;
        if let Some(stray) = flags.positional.first() {
            return Err(format!("unexpected argument {stray:?}"));
        }
        let positive = |key: &str| match flags.opt::<usize>(key)? {
            Some(0) => Err(format!("--{key} must be at least 1")),
            count => Ok(count),
        };
        let defaults = HarnessOptions::default();
        let rate_tps = flags.opt::<f64>("rate")?;
        if rate_tps.is_some_and(|r| !(r.is_finite() && r > 0.0)) {
            return Err("--rate must be a finite number above 0".into());
        }
        Ok(HarnessOptions {
            total_txs: positive("txs")?.unwrap_or(defaults.total_txs),
            seed: flags.num("seed", defaults.seed)?,
            csv: flags.get("csv").map(str::to_owned),
            rate_tps,
            block_cut: positive("block-cut")?,
            keys: positive("keys")?,
        })
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
