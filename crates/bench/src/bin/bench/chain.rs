//! A blockchain file: `export-chain <path>` runs a small FabricCRDT
//! workload and writes its chain in the binary block format;
//! `verify-chain <path>` decodes a chain file, verifies its hash-chain
//! integrity and prints a summary. The file comes from outside the
//! program, so every decode and integrity failure is an `Err`.

use std::sync::Arc;

use fabriccrdt::fabriccrdt_simulation;
use fabriccrdt_bench::HarnessOptions;
use fabriccrdt_crypto::hex;
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::config::PipelineConfig;
use fabriccrdt_ledger::codec;
use fabriccrdt_workload::iot::IotChaincode;

pub fn export(options: &HarnessOptions) -> Result<(), String> {
    let path = options
        .path
        .as_deref()
        .ok_or("export-chain requires a file path")?;
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    let config = PipelineConfig::paper(25, options.config.seed);
    let mut sim = fabriccrdt_simulation(config, registry);
    sim.seed_state("device1", br#"{"readings":[]}"#.to_vec());
    let txs = options.config.total_txs;
    sim.run(IotChaincode::hot_key_schedule("device1", txs, 300.0));
    let chain = sim.peer().chain();
    let bytes = codec::encode_chain(chain);
    std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} blocks ({} transactions, {} bytes) to {path}",
        chain.height(),
        chain.total_transactions(),
        bytes.len()
    );
    Ok(())
}

pub fn verify(options: &HarnessOptions) -> Result<(), String> {
    let path = options
        .path
        .as_deref()
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
        hex::encode(&chain.tip_hash())[..16].to_owned() + "…",
    );
    Ok(())
}
