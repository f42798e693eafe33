//! One experiment cell (`experiment`), and the paper's base cell on
//! all three systems as a Caliper-style report (`compare`).

use fabriccrdt_bench::HarnessOptions;
use fabriccrdt_workload::experiment::{run_sweep, Axis, SystemKind};
use fabriccrdt_workload::report::{latency_cell, render_table};

/// `0.123 s`, or `n/a` with the reason when nothing committed.
fn latency_text(latency: Option<f64>) -> String {
    match latency {
        Some(_) => format!("{} s", latency_cell(latency)),
        None => "n/a (no successful transactions)".to_owned(),
    }
}

/// Runs the cell the flags describe and prints its metrics.
pub fn experiment(options: &HarnessOptions) -> Result<(), String> {
    let config = options.config;
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

/// Runs the paper's base workload on Fabric, Fabric++ and FabricCRDT,
/// one round per system.
pub fn compare(options: &HarnessOptions) -> Result<(), String> {
    let systems = [
        SystemKind::Fabric,
        SystemKind::FabricReordering,
        SystemKind::FabricCrdt,
    ];
    let rows: Vec<Vec<String>> = run_sweep(&systems, Axis::Base, options.config)
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
