//! What the commands of the one `bench` binary share: the parsed
//! command line ([`HarnessOptions`]) and the two artifact writers
//! ([`report`] for `BENCH_*.json`, [`HarnessOptions::write_csv`] for
//! `--csv`).

use std::str::FromStr;

use fabriccrdt_jsoncrdt::json::{Value, MAX_DEPTH};
use fabriccrdt_workload::experiment::{ExperimentConfig, SystemKind};
use fabriccrdt_workload::generator::JsonShape;

/// The entry of an accepted-flags list that admits one positional
/// argument, a file path (`export-chain <path>`, `verify-chain <path>`).
pub const PATH: &str = "<path>";

/// The latest arrival a `--rate` may put into a schedule, in seconds: a
/// thousandth of what `SimTime`'s `u64` microseconds hold, leaving the
/// pipeline's own latency room to add to it without overflowing.
const MAX_LAST_ARRIVAL_SECS: f64 = u64::MAX as f64 / 1e6 / 1e3;

/// The parsed command line of one command. Each command names the flags
/// it reads; a value whose flag it does not accept stays at its default.
/// Every value is checked once, here, so a command never sees one the
/// library would reject with a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// The experiment cell the flags describe. An absent flag leaves its
    /// field at [`ExperimentConfig::paper_defaults`], but the block size
    /// at the system's best and `--txs` at the command's default.
    pub config: ExperimentConfig,
    /// `--keys N`: key-space size for contention sweeps.
    pub keys: Option<usize>,
    /// The positional file argument of a command that accepts [`PATH`].
    pub path: Option<String>,
    block_size_given: bool,
    /// `--csv PATH`: optional CSV output for plotting pipelines.
    csv: Option<String>,
}

impl HarnessOptions {
    /// Parses a command's arguments, accepting only the flags it reads
    /// (`accepted`, without their `--`; [`PATH`] admits one positional
    /// argument). `default_txs` is the command's `--txs` default.
    ///
    /// # Errors
    ///
    /// Returns the message the binary prints as `error: …` (exit 1) on a
    /// flag outside `accepted`, a flag without a value, a stray argument
    /// or an unusable value.
    pub fn parse(args: &[String], accepted: &[&str], default_txs: usize) -> Result<Self, String> {
        let (mut pairs, mut positional) = (Vec::new(), Vec::new());
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) if accepted.contains(&key) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{key} requires a value"))?;
                    pairs.push((key, value.as_str()));
                }
                Some(key) => {
                    let flags: Vec<&str> =
                        accepted.iter().copied().filter(|&f| f != PATH).collect();
                    let accepted = match flags[..] {
                        [] => "none".to_owned(),
                        _ => format!("--{}", flags.join(", --")),
                    };
                    return Err(format!("unknown flag --{key}; accepted: {accepted}"));
                }
                None => positional.push(arg.clone()),
            }
        }
        let mut positional = positional.into_iter();
        let path = accepted
            .contains(&PATH)
            .then(|| positional.next())
            .flatten();
        if let Some(stray) = positional.next() {
            return Err(format!("unexpected argument {stray:?}"));
        }

        // The last occurrence of a flag wins.
        let get = |key: &str| pairs.iter().rev().find(|(k, _)| *k == key).map(|&(_, v)| v);
        let system = get("system").map_or(Ok(SystemKind::FabricCrdt), parse_system)?;
        let block_size = number(get, "block-size")?;
        let paper = ExperimentConfig::paper_defaults();
        let shape = JsonShape::complexity(
            number(get, "json-keys")?.unwrap_or(paper.shape.keys),
            number(get, "json-depth")?.unwrap_or(paper.shape.depth),
        );
        let config = ExperimentConfig {
            system,
            block_size: block_size.unwrap_or(system.best_block_size()),
            rate_tps: number(get, "rate")?.unwrap_or(paper.rate_tps),
            total_txs: number(get, "txs")?.unwrap_or(default_txs),
            read_keys: number(get, "reads")?.unwrap_or(paper.read_keys),
            write_keys: number(get, "writes")?.unwrap_or(paper.write_keys),
            shape,
            conflict_pct: number(get, "conflicts")?.unwrap_or(paper.conflict_pct),
            seed: number(get, "seed")?.unwrap_or(paper.seed),
        };
        let keys = number(get, "keys")?;
        check(&config, keys)?;
        Ok(HarnessOptions {
            config,
            keys,
            csv: get("csv").map(str::to_owned),
            path,
            block_size_given: block_size.is_some(),
        })
    }

    /// Writes `headers` and `rows` as CSV to the `--csv` path, if one
    /// was given.
    ///
    /// # Errors
    ///
    /// Returns the message the binary prints as `error: …` (exit 1) if the
    /// file cannot be written: an artifact that was asked for and cannot be
    /// written fails the run.
    pub fn write_csv(&self, headers: &[&str], rows: &[Vec<String>]) -> Result<(), String> {
        if let Some(path) = &self.csv {
            let mut csv = headers.join(",") + "\n";
            for row in rows {
                csv.push_str(&row.join(","));
                csv.push('\n');
            }
            std::fs::write(path, csv).map_err(|e| format!("could not write CSV to {path}: {e}"))?;
            eprintln!("wrote CSV to {path}");
        }
        Ok(())
    }

    /// `--block-size` when given, else `default`: how a command whose
    /// arms each cut blocks at their own system's size reads the flag.
    pub fn block_size_or(&self, default: usize) -> usize {
        if self.block_size_given {
            self.config.block_size
        } else {
            default
        }
    }
}

/// The value of `--key` as a number, `None` when absent.
fn number<'a, T: FromStr>(
    get: impl Fn(&str) -> Option<&'a str>,
    key: &str,
) -> Result<Option<T>, String> {
    let parse = |v: &str| {
        v.parse()
            .map_err(|_| format!("--{key} expects a number, got {v:?}"))
    };
    get(key).map(parse).transpose()
}

fn parse_system(name: &str) -> Result<SystemKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "fabric" => Ok(SystemKind::Fabric),
        "fabriccrdt" | "crdt" => Ok(SystemKind::FabricCrdt),
        "fabric++" | "reordering" => Ok(SystemKind::FabricReordering),
        other => Err(format!(
            "unknown system {other:?}; expected fabric, fabriccrdt or fabric++"
        )),
    }
}

/// The library asserts most of these; input from outside gets an error
/// instead of a panic, or instead of a run whose clock overflowed.
fn check(config: &ExperimentConfig, keys: Option<usize>) -> Result<(), String> {
    let counts = [
        ("txs", config.total_txs),
        ("block-size", config.block_size),
        ("writes", config.write_keys),
        ("keys", keys.unwrap_or(1)),
    ];
    if let Some((flag, _)) = counts.iter().find(|&&(_, count)| count < 1) {
        return Err(format!("--{flag} must be at least 1"));
    }
    let rate = config.rate_tps;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!(
            "--rate must be a finite number above 0, got {rate}"
        ));
    }
    let last_arrival = config.total_txs as f64 / rate;
    if last_arrival > MAX_LAST_ARRIVAL_SECS {
        return Err(format!(
            "--rate {rate:e} spreads {} transactions over {last_arrival:.1e} s, \
             more than the {MAX_LAST_ARRIVAL_SECS:.1e} s a simulated run can hold",
            config.total_txs
        ));
    }
    // A deeper payload is one no peer can parse.
    if config.shape.depth > MAX_DEPTH {
        return Err(format!(
            "--json-depth is at most {MAX_DEPTH}, the JSON parser's nesting bound, got {}",
            config.shape.depth
        ));
    }
    if config.conflict_pct > 100 {
        return Err(format!(
            "--conflicts is a percentage (0-100), got {}",
            config.conflict_pct
        ));
    }
    Ok(())
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
        let o = HarnessOptions::parse(&[], &[], 10_000).expect("no arguments parse");
        assert_eq!(o.config, ExperimentConfig::paper_defaults());
        assert_eq!(o.block_size_or(400), 400);
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
    fn config_threads_options() {
        let args = ["--txs", "123", "--seed", "9"].map(str::to_owned);
        let o = HarnessOptions::parse(&args, &["txs", "seed"], 10_000).expect("both accepted");
        assert_eq!(o.config.total_txs, 123);
        assert_eq!(o.config.seed, 9);
        let refused =
            HarnessOptions::parse(&args, &["seed"], 10_000).expect_err("--txs not accepted");
        assert!(refused.contains("unknown flag --txs; accepted: --seed"));
    }
}
