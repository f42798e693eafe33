//! `bench <experiment> [flags]` — the one harness binary.
//!
//! `fig3` … `fig7` print the series the paper's figures plot —
//! successful-transaction throughput, average latency and count, for
//! FabricCRDT and Fabric — from [`PAPER_SWEEPS`]; `tables` prints
//! Tables 1–5 and the base cell; the rest are extensions, one module
//! each. Every experiment names the flags it reads and anything else is
//! `error: …`, exit 1. Stdout is simulated time only, a pure function
//! of the arguments, held to `tests/golden/bin_stdout.sha256` by `ci.sh`.

mod ablation;
mod adversarial;
mod catchup_storage;
mod multi_channel;
mod orderer_failover;
mod partition_heal;
mod zipf;

use fabriccrdt_bench::{write_csv, HarnessOptions};
use fabriccrdt_workload::experiment::{run_sweep, Axis, Sweep, PAPER_SWEEPS, PAPER_SYSTEMS};
use fabriccrdt_workload::report::{figure_headers, figure_row, latency_cell, render_table};

/// An experiment: name, the flags it reads, entry point.
type Experiment = (&'static str, &'static [&'static str], fn(&HarnessOptions));

/// Every experiment but the figures.
const EXPERIMENTS: [Experiment; 8] = [
    ("tables", &["txs", "seed"], tables),
    ("ablation", &["txs", "seed"], ablation::run),
    (
        "zipf",
        &["txs", "seed", "rate", "block-cut", "keys"],
        zipf::run,
    ),
    ("partition_heal", &[], |_| partition_heal::run()),
    (
        "orderer_failover",
        &["txs", "seed", "csv"],
        orderer_failover::run,
    ),
    ("catchup_storage", &["txs", "seed"], catchup_storage::run),
    ("multi_channel", &["txs", "seed"], multi_channel::run),
    ("adversarial", &["txs", "seed"], adversarial::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| fail(message));
}

/// How every failed run ends, a bad flag or an artifact that could not
/// be written: `error: …`, exit 1.
fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (name, args) = args
        .split_first()
        .ok_or("usage: bench <experiment> [flags]")?;
    if let Some(sweep) = PAPER_SWEEPS.iter().find(|sweep| sweep.figure == name) {
        figure(
            sweep,
            &HarnessOptions::parse(args, &["txs", "seed", "csv"])?,
        );
    } else if let Some((_, flags, run)) = EXPERIMENTS.iter().find(|(n, ..)| n == name) {
        run(&HarnessOptions::parse(args, flags)?);
    } else {
        let figures = PAPER_SWEEPS.iter().map(|sweep| sweep.figure);
        let known: Vec<&str> = figures.chain(EXPERIMENTS.map(|(n, ..)| n)).collect();
        return Err(format!(
            "unknown experiment {name:?}; expected one of: {}",
            known.join(", ")
        ));
    }
    Ok(())
}

/// Runs one paper sweep for both systems and prints the figure's table;
/// progress goes to stderr cell by cell.
fn figure(sweep: &Sweep, options: &HarnessOptions) {
    println!("=== {} ===", sweep.title);
    println!(
        "(10k-tx paper setup; running {} txs/cell, seed {})\n",
        options.total_txs, options.seed
    );
    let rows: Vec<Vec<String>> = run_sweep(&PAPER_SYSTEMS, sweep.axis, options.base_config())
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
    if let Some(path) = &options.csv {
        write_csv(path, &figure_headers(), &rows);
    }
}

/// Tables 1–5 as the paper states them, then the base cell every one of
/// them shares, once per system.
fn tables(options: &HarnessOptions) {
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
    let rows: Vec<Vec<String>> = run_sweep(&PAPER_SYSTEMS, Axis::Base, options.base_config())
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
}
