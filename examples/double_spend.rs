//! The double-spending limitation (paper §6).
//!
//! "Use cases that require transactional isolation of repeatable reads
//! are not a good fit ... an attacker creates several transactions to
//! transfer a single asset to multiple owners. On Fabric, only one of
//! the attacker's transactions is successfully committed ... However,
//! FabricCRDT skips the MVCC validation, merges the transactions'
//! values, and successfully commits all of the attacker's transactions."
//!
//! This example demonstrates the documented vulnerability: asset
//! transfers modelled as CRDT transactions let both concurrent spends
//! commit, while vanilla Fabric correctly rejects the second. It is the
//! reason FabricCRDT targets merge-friendly workloads (sensor logs,
//! collaborative documents) and not asset transfers.
//!
//! Run with: `cargo run --release --example double_spend`

use std::sync::Arc;

use fabriccrdt_repro::fabric::chaincode::{
    Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub,
};
use fabriccrdt_repro::fabric::config::PipelineConfig;
use fabriccrdt_repro::fabric::simulation::TxRequest;
use fabriccrdt_repro::fabriccrdt::{fabric_simulation, fabriccrdt_simulation};
use fabriccrdt_repro::jsoncrdt::json::Value;
use fabriccrdt_repro::sim::time::SimTime;

/// Asset-transfer chaincode. Args: [asset key, new owner].
/// `crdt = true` models the (misguided) CRDT port of the asset app.
struct AssetTransfer {
    crdt: bool,
}

impl Chaincode for AssetTransfer {
    fn name(&self) -> &str {
        if self.crdt {
            "asset-crdt"
        } else {
            "asset"
        }
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        let [key, new_owner] = args else {
            return Err(ChaincodeError::new("expected [asset, new owner]"));
        };
        let stored = stub
            .get_state(key)
            .ok_or_else(|| ChaincodeError::new("asset does not exist"))?;
        let mut asset = Value::from_bytes(stored)
            .map_err(|e| ChaincodeError::new(format!("corrupt asset: {e}")))?;
        let owner = asset.get("owner").and_then(Value::as_str).unwrap_or("");
        if owner != "attacker" {
            return Err(ChaincodeError::new("only the owner can transfer"));
        }
        asset.insert("owner", Value::string(new_owner.clone()));
        asset
            .as_map_mut()
            .unwrap()
            .entry("transfer-log".to_owned())
            .or_insert_with(|| Value::list([]))
            .as_list_mut()
            .unwrap()
            .push(Value::string(format!("-> {new_owner}")));
        if self.crdt {
            stub.put_crdt(key, asset.to_bytes());
        } else {
            stub.put_state(key, asset.to_bytes());
        }
        Ok(())
    }
}

fn schedule(chaincode: &str) -> Vec<(SimTime, TxRequest)> {
    // The attacker "sells" the same asset to two victims concurrently.
    vec![
        (
            SimTime::ZERO,
            TxRequest::new(chaincode, vec!["asset-42".into(), "victim-A".into()]),
        ),
        (
            SimTime::from_millis(2),
            TxRequest::new(chaincode, vec!["asset-42".into(), "victim-B".into()]),
        ),
    ]
}

fn seed() -> Vec<u8> {
    br#"{"owner":"attacker","transfer-log":[]}"#.to_vec()
}

fn main() {
    // --- Vanilla Fabric: MVCC catches the double spend.
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(AssetTransfer { crdt: false }));
    let mut fabric = fabric_simulation(PipelineConfig::paper(25, 5), registry);
    fabric.seed_state("asset-42", seed());
    let metrics = fabric.run(schedule("asset"));
    println!("== Fabric ==");
    println!(
        "double-spend attempts: 2, committed: {}, rejected: {}",
        metrics.successful(),
        metrics.failed()
    );
    let final_owner = Value::from_bytes(fabric.peer().state().value("asset-42").unwrap()).unwrap();
    println!("final owner: {}", final_owner.get("owner").unwrap());
    assert_eq!(metrics.successful(), 1, "exactly one transfer wins");

    // --- FabricCRDT: both spends commit — the documented vulnerability.
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(AssetTransfer { crdt: true }));
    let mut crdt = fabriccrdt_simulation(PipelineConfig::paper(25, 5), registry);
    crdt.seed_state("asset-42", seed());
    let metrics = crdt.run(schedule("asset-crdt"));
    println!("\n== FabricCRDT ==");
    println!(
        "double-spend attempts: 2, committed: {}, rejected: {}",
        metrics.successful(),
        metrics.failed()
    );
    let merged = Value::from_bytes(crdt.peer().state().value("asset-42").unwrap()).unwrap();
    println!("merged asset state:\n{}", merged.to_pretty_string());
    assert_eq!(metrics.successful(), 2, "both attacker transactions commit");
    assert_eq!(
        merged.get("transfer-log").unwrap().as_list().unwrap().len(),
        2,
        "both transfers recorded — the asset was 'sold' twice"
    );

    println!("\nConclusion (§6): asset transfers need repeatable-read isolation;");
    println!("model them as plain Fabric transactions, not CRDTs.");
}
