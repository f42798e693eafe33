//! `fabriccrdt-repro` — command-line front end for the reproduction.
//!
//! ```text
//! fabriccrdt-repro experiment [--system fabric|fabriccrdt|fabric++]
//!                             [--block-size N] [--rate TPS] [--txs N]
//!                             [--reads N] [--writes N]
//!                             [--json-keys K --json-depth D]
//!                             [--conflicts PCT] [--seed S]
//!     Run one experiment cell and print its metrics.
//!
//! fabriccrdt-repro compare [--txs N] [--seed S]
//!     Run the paper's base workload on all three systems and print a
//!     Caliper-style report, one round per system.
//!
//! fabriccrdt-repro export-chain <path> [--txs N] [--seed S]
//!     Run a small FabricCRDT workload and write the resulting
//!     blockchain to <path> in the binary block format.
//!
//! fabriccrdt-repro verify-chain <path>
//!     Decode a chain file, verify hash-chain integrity and print a
//!     summary.
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use fabriccrdt_repro::fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_repro::fabric::config::PipelineConfig;
use fabriccrdt_repro::fabriccrdt::fabriccrdt_simulation;
use fabriccrdt_repro::jsoncrdt::json::MAX_DEPTH;
use fabriccrdt_repro::ledger::codec;
use fabriccrdt_repro::workload::experiment::{run_sweep, Axis, ExperimentConfig, SystemKind};
use fabriccrdt_repro::workload::flags::Flags;
use fabriccrdt_repro::workload::generator::JsonShape;
use fabriccrdt_repro::workload::iot::IotChaincode;
use fabriccrdt_repro::workload::report::{latency_cell, render_table};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("export-chain") => cmd_export_chain(&args[1..]),
        Some("verify-chain") => cmd_verify_chain(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; see --help")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
fabriccrdt-repro — FabricCRDT (Middleware 2019) reproduction CLI

commands:
  experiment    run one experiment cell (see --help text in source)
  compare       run the base workload on Fabric, Fabric++ and FabricCRDT
  export-chain  run a workload and write the blockchain to a file
  verify-chain  decode a chain file and verify its integrity
";

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

/// `0.123 s`, or `n/a` with the reason when nothing committed.
fn latency_text(latency: Option<f64>) -> String {
    match latency {
        Some(_) => format!("{} s", latency_cell(latency)),
        None => "n/a (no successful transactions)".to_owned(),
    }
}

fn cmd_experiment(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
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
    )?;
    let system = parse_system(flags.get("system").unwrap_or("fabriccrdt"))?;
    let config = ExperimentConfig {
        system,
        block_size: flags.num("block-size", system.best_block_size())?,
        rate_tps: flags.num("rate", 300.0)?,
        total_txs: flags.num("txs", 10_000)?,
        read_keys: flags.num("reads", 1)?,
        write_keys: flags.num("writes", 1)?,
        shape: JsonShape::complexity(flags.num("json-keys", 2)?, flags.num("json-depth", 1)?),
        conflict_pct: flags.num("conflicts", 100)?,
        seed: flags.num("seed", 42)?,
    };
    // The library asserts these; input from outside gets an error
    // instead of a panic.
    if config.block_size < 1 {
        return Err("--block-size must be at least 1".into());
    }
    if !(config.rate_tps.is_finite() && config.rate_tps > 0.0) {
        return Err(format!(
            "--rate must be a finite number above 0, got {}",
            config.rate_tps
        ));
    }
    if config.write_keys < 1 {
        return Err("--writes must be at least 1".into());
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
    let result = config.run();
    println!("system      : {}", config.system.label());
    println!("block size  : {}", config.block_size);
    println!(
        "rate        : {} tx/s over {} txs",
        config.rate_tps, config.total_txs
    );
    println!("successful  : {}", result.successful);
    println!("failed      : {}", result.failed);
    println!("throughput  : {:.1} tx/s", result.throughput_tps);
    println!("avg latency : {}", latency_text(result.avg_latency_secs));
    println!("p95 latency : {}", latency_text(result.p95_latency_secs));
    println!("blocks      : {}", result.blocks);
    println!("duration    : {:.1} s (simulated)", result.duration_secs);
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["txs", "seed"])?;
    let base = ExperimentConfig {
        total_txs: flags.num("txs", 2_000)?,
        seed: flags.num("seed", 42)?,
        ..ExperimentConfig::paper_defaults()
    };
    let systems = [
        SystemKind::Fabric,
        SystemKind::FabricReordering,
        SystemKind::FabricCrdt,
    ];
    let rows: Vec<Vec<String>> = run_sweep(&systems, Axis::Base, base)
        .map(|(_, r)| {
            vec![
                r.config.system.label().to_lowercase(),
                r.config.system.label().to_owned(),
                format!("{}", r.config.rate_tps as u64),
                format!("{:.1}", r.throughput_tps),
                latency_cell(r.avg_latency_secs),
                latency_cell(r.p95_latency_secs),
                r.successful.to_string(),
                r.failed.to_string(),
            ]
        })
        .collect();
    println!("benchmark: paper base workload (all transactions conflicting)");
    let headers = [
        "round",
        "system",
        "rate",
        "tput(tps)",
        "avg-lat(s)",
        "p95-lat(s)",
        "ok",
        "failed",
    ];
    println!("{}", render_table(&headers, &rows));
    Ok(())
}

fn run_small_crdt_workload(txs: usize, seed: u64) -> fabriccrdt_repro::ledger::Blockchain {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, seed), registry);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());
    let schedule = IotChaincode::hot_key_schedule("device1", txs, 300.0);
    sim.run(schedule);
    sim.peer().chain().clone()
}

fn cmd_export_chain(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["txs", "seed"])?;
    let path = flags
        .positional
        .first()
        .ok_or("export-chain requires a file path")?;
    let txs = flags.num("txs", 500)?;
    let seed = flags.num("seed", 42)?;
    let chain = run_small_crdt_workload(txs, seed);
    let bytes = codec::encode_chain(&chain);
    std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} blocks ({} transactions, {} bytes) to {path}",
        chain.height(),
        chain.total_transactions(),
        bytes.len()
    );
    Ok(())
}

fn cmd_verify_chain(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let path = flags
        .positional
        .first()
        .ok_or("verify-chain requires a file path")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let chain = codec::decode_chain(&bytes).map_err(|e| format!("decoding: {e}"))?;
    chain
        .verify_integrity()
        .map_err(|e| format!("integrity: {e}"))?;
    let successful: usize = chain.iter().map(|b| b.successful_count()).sum();
    println!(
        "chain OK: {} blocks, {} transactions ({} successful), tip hash {}",
        chain.height(),
        chain.total_transactions(),
        successful,
        fabriccrdt_repro::crypto::hex::encode(&chain.tip_hash())[..16].to_owned() + "…",
    );
    Ok(())
}
