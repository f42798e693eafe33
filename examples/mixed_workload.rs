//! CRDT and non-CRDT transactions coexisting (paper Figure 2, §4.3).
//!
//! "Figure 2 displays the transaction flow in FabricCRDT, where CRDT and
//! non-CRDT transactions coexist ... Non-CRDT transactions go through
//! the same validation steps as on Fabric, but CRDT transactions only go
//! through the endorsement validation check."
//!
//! An inventory application runs two chaincodes on one FabricCRDT
//! network: sensor readings as CRDT transactions (all merge, none fail)
//! and stock transfers as classic transactions (MVCC-protected, losers
//! rejected) — backward compatibility in action.
//!
//! Run with: `cargo run --release --example mixed_workload`

use std::sync::Arc;

use fabriccrdt_repro::fabric::chaincode::{
    Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub,
};
use fabriccrdt_repro::fabric::config::PipelineConfig;
use fabriccrdt_repro::fabric::simulation::TxRequest;
use fabriccrdt_repro::fabriccrdt::fabriccrdt_simulation;
use fabriccrdt_repro::jsoncrdt::json::Value;
use fabriccrdt_repro::ledger::block::ValidationCode;
use fabriccrdt_repro::sim::time::SimTime;
use fabriccrdt_repro::workload::iot::IotChaincode;

/// Classic (non-CRDT) stock counter. Args: [item key, delta].
struct StockChaincode;

impl Chaincode for StockChaincode {
    fn name(&self) -> &str {
        "stock"
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        let [key, delta] = args else {
            return Err(ChaincodeError::new("expected [item, delta]"));
        };
        let current: i64 = stub
            .get_state(key)
            .and_then(|b| std::str::from_utf8(b).ok())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let delta: i64 = delta
            .parse()
            .map_err(|_| ChaincodeError::new("delta must be an integer"))?;
        stub.put_state(key, (current + delta).to_string().into_bytes());
        Ok(())
    }
}

fn main() {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    registry.deploy(Arc::new(StockChaincode));

    let mut sim = fabriccrdt_simulation(PipelineConfig::paper(25, 13), registry);
    sim.seed_state("warehouse-temp", br#"{"readings":[]}"#.to_vec());
    sim.seed_state("item-100", b"500".to_vec());

    // Interleave 60 CRDT sensor readings (all on one hot key) with 60
    // classic stock updates (all on one hot key) at 250 tx/s total.
    let mut schedule = Vec::new();
    for i in 0u64..120 {
        let at = SimTime::from_millis(i * 4);
        let request = if i % 2 == 0 {
            let json = format!(r#"{{"readings":["{}.5C"]}}"#, 3 + i % 4);
            TxRequest::new(
                "iot-crdt",
                IotChaincode::args(
                    &["warehouse-temp".into()],
                    &["warehouse-temp".into()],
                    &json,
                ),
            )
        } else {
            TxRequest::new("stock", vec!["item-100".into(), "-5".into()])
        };
        schedule.push((at, request));
    }

    let metrics = sim.run(schedule);
    let merged = metrics
        .records
        .iter()
        .filter(|r| r.code == Some(ValidationCode::ValidMerged))
        .count();
    let classic_ok = metrics
        .records
        .iter()
        .filter(|r| r.code == Some(ValidationCode::Valid))
        .count();
    let conflicts = metrics.failures_with(ValidationCode::MvccConflict);

    println!("120 transactions: 60 CRDT sensor readings + 60 classic stock updates\n");
    println!("CRDT sensor readings merged & committed : {merged:3}");
    println!("classic stock updates committed (MVCC)  : {classic_ok:3}");
    println!("classic stock updates rejected (MVCC)   : {conflicts:3}");

    assert_eq!(merged, 60, "every CRDT transaction commits");
    assert!(conflicts > 0, "classic hot-key updates still MVCC-fail");
    assert_eq!(merged + classic_ok + conflicts, 120);

    let temp = Value::from_bytes(sim.peer().state().value("warehouse-temp").unwrap()).unwrap();
    println!(
        "\nmerged sensor document holds {} readings (none lost)",
        temp.get("readings").unwrap().as_list().unwrap().len()
    );
    let stock = String::from_utf8(sim.peer().state().value("item-100").unwrap().to_vec()).unwrap();
    println!(
        "stock level: {} (500 - 5 x {} committed transfers; rejected ones had no effect)",
        stock, classic_ok
    );
    assert_eq!(stock.parse::<i64>().unwrap(), 500 - 5 * classic_ok as i64);
}
