//! `bench <command> [flags]` — the one command-line front end.
//!
//! `fig3` … `fig7` print the series the paper's figures plot —
//! successful-transaction throughput, average latency and count, for
//! FabricCRDT and Fabric — from [`PAPER_SWEEPS`]; `tables` prints
//! Tables 1–5 and the base cell; `experiment` runs one cell and
//! `compare` the base cell on all three systems; `export-chain` and
//! `verify-chain` write and check a blockchain file; the rest are
//! extensions, one module each. Every command names the flags it reads
//! and anything else is `error: …`, exit 1, as is a failed self-check.
//! Stdout is simulated time only, a pure function of the arguments,
//! held to `tests/golden/bin_stdout.sha256` by `ci.sh`.

mod ablation;
mod adversarial;
mod catchup_storage;
mod cell;
mod chain;
mod multi_channel;
mod orderer_failover;
mod partition_heal;
mod zipf;

use fabriccrdt_bench::{HarnessOptions, PATH};
use fabriccrdt_workload::experiment::{run_sweep, Axis, Sweep, PAPER_SWEEPS, PAPER_SYSTEMS};
use fabriccrdt_workload::report::{figure_headers, figure_row, latency_cell, render_table};

/// The flags a figure reads.
const FIGURE_FLAGS: &[&str] = &["txs", "seed", "csv"];

/// A command: name, the flags it reads, entry point.
type Experiment = (
    &'static str,
    &'static [&'static str],
    fn(&HarnessOptions) -> Result<(), String>,
);

/// Every command but the figures.
const EXPERIMENTS: [Experiment; 12] = [
    ("tables", &["txs", "seed"], tables),
    ("ablation", &["txs", "seed"], ablation::run),
    (
        "zipf",
        &["txs", "seed", "rate", "block-size", "keys"],
        zipf::run,
    ),
    ("partition_heal", &[], partition_heal::run),
    (
        "orderer_failover",
        &["txs", "seed", "csv"],
        orderer_failover::run,
    ),
    ("catchup_storage", &["txs", "seed"], catchup_storage::run),
    ("multi_channel", &["txs", "seed"], multi_channel::run),
    ("adversarial", &["txs", "seed"], adversarial::run),
    (
        "experiment",
        &[
            "system",
            "block-size",
            "rate",
            "txs",
            "reads",
            "writes",
            "json-keys",
            "json-depth",
            "conflicts",
            "seed",
        ],
        cell::experiment,
    ),
    ("compare", &["txs", "seed"], cell::compare),
    ("export-chain", &[PATH, "txs", "seed"], chain::export),
    ("verify-chain", &[PATH], chain::verify),
];

/// A command's `--txs` default: the paper's 10 000 transactions per
/// cell, but for the two commands that run small.
fn default_txs(command: &str) -> usize {
    match command {
        "compare" => 2_000,
        "export-chain" => 500,
        _ => 10_000,
    }
}

/// The one place a run ends in failure: a bad flag, an artifact that
/// could not be written or a self-check the flags made false is
/// `error: …`, exit 1.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = dispatch(&args) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (name, args) = args
        .split_first()
        .ok_or("usage: bench <experiment> [flags]; see bench --help")?;
    let options = |flags| HarnessOptions::parse(args, flags, default_txs(name));
    if let Some(sweep) = PAPER_SWEEPS.iter().find(|sweep| sweep.figure == name) {
        figure(sweep, &options(FIGURE_FLAGS)?)
    } else if let Some((_, flags, run)) = EXPERIMENTS.iter().find(|(n, ..)| n == name) {
        run(&options(flags)?)
    } else if matches!(name.as_str(), "--help" | "-h" | "help") {
        help();
        Ok(())
    } else {
        let figures = PAPER_SWEEPS.iter().map(|sweep| sweep.figure);
        let known: Vec<&str> = figures.chain(EXPERIMENTS.map(|(n, ..)| n)).collect();
        Err(format!(
            "unknown experiment {name:?}; expected one of: {}",
            known.join(", ")
        ))
    }
}

/// Prints every command with the flags it reads, from the tables above.
fn help() {
    println!("usage: bench <experiment> [flags]\n\ncommands:");
    let figures = PAPER_SWEEPS.iter().map(|s| (s.figure, FIGURE_FLAGS));
    for (name, flags) in figures.chain(EXPERIMENTS.iter().map(|&(name, flags, ..)| (name, flags))) {
        let flags: String = flags
            .iter()
            .map(|&f| match f {
                PATH => format!(" {f}"),
                _ => format!(" [--{f}]"),
            })
            .collect();
        println!("  {}", format!("{name:<17}{flags}").trim_end());
    }
}

/// Runs one paper sweep for both systems and prints the figure's table;
/// progress goes to stderr cell by cell.
fn figure(sweep: &Sweep, options: &HarnessOptions) -> Result<(), String> {
    println!("=== {} ===", sweep.title);
    println!(
        "(10k-tx paper setup; running {} txs/cell, seed {})\n",
        options.config.total_txs, options.config.seed
    );
    let rows: Vec<Vec<String>> = run_sweep(&PAPER_SYSTEMS, sweep.axis, options.config)
        .map(|(label, result)| {
            eprintln!(
                "  done: {} x={} -> {:.1} tps, {} ok",
                result.config.system.label(),
                label,
                result.throughput_tps,
                result.successful
            );
            figure_row(&label, &result)
        })
        .collect();
    println!("{}", render_table(&figure_headers(), &rows));
    options.write_csv(&figure_headers(), &rows)
}

/// Tables 1–5 as the paper states them, then the base cell every one of
/// them shares, once per system.
fn tables(options: &HarnessOptions) -> Result<(), String> {
    println!("=== Configuration tables (paper §7) ===\n");
    let config_rows: Vec<Vec<String>> = PAPER_SWEEPS
        .iter()
        .map(|s| vec![s.table.to_owned(), s.fixed.to_owned(), s.range.to_owned()])
        .collect();
    println!(
        "{}",
        render_table(&["experiment", "fixed parameters", "sweep"], &config_rows)
    );

    println!("=== Base-cell results (both systems at their best block size) ===\n");
    let rows: Vec<Vec<String>> = run_sweep(&PAPER_SYSTEMS, Axis::Base, options.config)
        .map(|(_, result)| {
            vec![
                result.config.system.label().to_owned(),
                result.config.block_size.to_string(),
                format!("{:.1}", result.throughput_tps),
                latency_cell(result.avg_latency_secs),
                result.successful.to_string(),
                result.failed.to_string(),
                result.blocks.to_string(),
            ]
        })
        .collect();
    let headers = [
        "system",
        "block size",
        "throughput(tps)",
        "avg-latency(s)",
        "successful",
        "failed",
        "blocks",
    ];
    println!("{}", render_table(&headers, &rows));
    Ok(())
}
