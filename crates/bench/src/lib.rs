//! What the experiments of the one `bench` binary share: the parsed
//! command line ([`HarnessOptions`]) and the two artifact writers
//! ([`report`] for `BENCH_*.json`, [`write_csv`] for `--csv`).

use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_workload::experiment::ExperimentConfig;
use fabriccrdt_workload::flags::Flags;

/// Command-line options of an experiment. Each experiment names the
/// flags it reads; a field whose flag it does not accept stays at its
/// default.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// `--txs N`: transactions per cell (default 10 000, the paper's).
    pub total_txs: usize,
    /// `--seed S`: PRNG seed (default 42).
    pub seed: u64,
    /// `--csv PATH`: optional CSV output for plotting pipelines.
    pub csv: Option<String>,
    /// `--rate TPS`: arrival rate override in transactions per second.
    pub rate_tps: Option<f64>,
    /// `--block-cut N`: max transactions per block, overriding each arm's.
    pub block_cut: Option<usize>,
    /// `--keys N`: key-space size override for contention sweeps.
    pub keys: Option<usize>,
}

impl HarnessOptions {
    /// Parses an experiment's arguments, accepting only the flags it
    /// reads (`accepted`, without their `--`).
    ///
    /// # Errors
    ///
    /// Returns the message the binary prints as `error: …` (exit 1, like
    /// the `fabriccrdt-repro` CLI) on a flag outside `accepted`, a stray
    /// argument or an unusable value.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Self, String> {
        let flags = Flags::parse(args, accepted)?;
        if let Some(stray) = flags.positional.first() {
            return Err(format!("unexpected argument {stray:?}"));
        }
        let positive = |key: &str| match flags.opt::<usize>(key)? {
            Some(0) => Err(format!("--{key} must be at least 1")),
            count => Ok(count),
        };
        let rate_tps = flags.opt::<f64>("rate")?;
        if rate_tps.is_some_and(|r| !(r.is_finite() && r > 0.0)) {
            return Err("--rate must be a finite number above 0".into());
        }
        Ok(HarnessOptions {
            total_txs: positive("txs")?.unwrap_or(10_000),
            seed: flags.num("seed", 42)?,
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

/// Writes `headers` and `rows` to `path` as CSV. An artifact that was
/// asked for and cannot be written fails the run: `error: …`, exit 1.
pub fn write_csv(path: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut csv = headers.join(",") + "\n";
    for row in rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    if let Err(e) = std::fs::write(path, csv) {
        eprintln!("error: could not write CSV to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote CSV to {path}");
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
/// # Errors
///
/// Returns the message the binary prints as `error: …` (exit 1) if the
/// file cannot be written, the text does not re-parse, or a required
/// path is missing — a malformed artifact fails the run that produced it.
pub fn report(path: &str, value: &Value, required: &[&str]) -> Result<(), String> {
    let text = value.to_pretty_string() + "\n";
    std::fs::write(path, &text).map_err(|e| format!("could not write {path}: {e}"))?;
    let parsed = Value::parse(&text).map_err(|e| format!("{path} is malformed: {e}"))?;
    for field in required {
        field
            .split('.')
            .try_fold(&parsed, |node, segment| match node {
                Value::List(items) => items.get(segment.parse::<usize>().ok()?),
                _ => node.get(segment),
            })
            .ok_or_else(|| format!("{path}: required field {field} is missing"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_match_paper() {
        let o = HarnessOptions::parse(&[], &[]).expect("no arguments parse");
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
        report(path, &value, &["bench", "cells.0.tps"]).expect("written and complete");
        let on_disk = std::fs::read_to_string(path).expect("artifact written");
        assert_eq!(on_disk.parse::<Value>().expect("parses"), value);
        let missing = report(path, &value, &["cells.1.tps"]).expect_err("no second cell");
        assert!(missing.ends_with("required field cells.1.tps is missing"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn base_config_threads_options() {
        let args = ["--txs", "123", "--seed", "9"].map(str::to_owned);
        let o = HarnessOptions::parse(&args, &["txs", "seed"]).expect("both accepted");
        let cfg = o.base_config();
        assert_eq!(cfg.total_txs, 123);
        assert_eq!(cfg.seed, 9);
        let refused = HarnessOptions::parse(&args, &["seed"]).expect_err("--txs not accepted");
        assert!(refused.contains("unknown flag --txs; accepted: --seed"));
    }
}
