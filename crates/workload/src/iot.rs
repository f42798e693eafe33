//! The IoT temperature chaincode (§7.1).
//!
//! "We implemented a chaincode that receives and stores temperature
//! readings and device identification numbers of IoT devices. When
//! executing a transaction, the chaincode first reads a key-value pair
//! from the ledger ... Then, the chaincode adds the new temperature
//! reading to the JSON object and submits it to be written to the
//! ledger."
//!
//! Argument layout (the Caliper side builds these):
//!
//! - `args[0]`: comma-separated read keys,
//! - `args[1]`: comma-separated write keys,
//! - `args[2]`: the JSON object (text) to write to every write key.
//!
//! One implementation serves both systems: constructed with
//! [`IotChaincode::crdt`] it submits via the shim's `put_crdt`
//! (FabricCRDT), with [`IotChaincode::plain`] via plain `put_state`
//! (the Fabric baseline, where conflicting writes MVCC-fail).

use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeStub};
use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_sim::time::SimTime;

/// The IoT readings chaincode.
#[derive(Debug, Clone, Copy)]
pub struct IotChaincode {
    crdt: bool,
}

impl IotChaincode {
    /// CRDT-enabled variant: writes via `put_crdt` (§5.2).
    pub fn crdt() -> Self {
        IotChaincode { crdt: true }
    }

    /// Plain variant for the Fabric baseline: writes via `put_state`.
    pub fn plain() -> Self {
        IotChaincode { crdt: false }
    }

    /// Whether this instance writes CRDT-flagged values.
    pub fn is_crdt(&self) -> bool {
        self.crdt
    }

    /// Builds the argument vector for an invocation.
    pub fn args(read_keys: &[String], write_keys: &[String], json: &str) -> Vec<String> {
        vec![read_keys.join(","), write_keys.join(","), json.to_owned()]
    }

    /// The all-conflicting demo schedule the CLI, the fault benches and
    /// the examples share: `txs` invocations of the CRDT variant at a
    /// fixed `rate_tps`, transaction `i` read-modify-writing the one
    /// hot key `device` with reading `r{i}`.
    pub fn hot_key_schedule(device: &str, txs: usize, rate_tps: f64) -> Vec<(SimTime, TxRequest)> {
        let keys = [device.to_owned()];
        (0..txs)
            .map(|i| {
                let json = format!(r#"{{"deviceID":"{device}","readings":["r{i}"]}}"#);
                (
                    SimTime::from_secs_f64(i as f64 / rate_tps),
                    TxRequest::new("iot-crdt", IotChaincode::args(&keys, &keys, &json)),
                )
            })
            .collect()
    }
}

fn split_keys(spec: &str) -> impl Iterator<Item = &str> {
    spec.split(',').filter(|k| !k.is_empty())
}

impl Chaincode for IotChaincode {
    fn name(&self) -> &str {
        if self.crdt {
            "iot-crdt"
        } else {
            "iot"
        }
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        if args.len() != 3 {
            return Err(ChaincodeError::new(
                "expected [read keys, write keys, json payload]",
            ));
        }
        // Read phase: every read key lands in the read set with the
        // version observed — the MVCC dependency (§3).
        for key in split_keys(&args[0]) {
            stub.get_state(key);
        }
        // Write phase: the JSON payload goes to every write key.
        let payload = args[2].clone().into_bytes();
        let mut wrote = false;
        for key in split_keys(&args[1]) {
            wrote = true;
            if self.crdt {
                stub.put_crdt(key, payload.clone());
            } else {
                stub.put_state(key, payload.clone());
            }
        }
        if !wrote {
            return Err(ChaincodeError::new("no write keys supplied"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_ledger::version::Height;
    use fabriccrdt_ledger::worldstate::WorldState;

    fn invoke(
        cc: IotChaincode,
        state: &WorldState,
        args: Vec<String>,
    ) -> Result<fabriccrdt_ledger::rwset::ReadWriteSet, ChaincodeError> {
        let mut stub = ChaincodeStub::new(state);
        cc.invoke(&mut stub, &args)?;
        Ok(stub.into_result().0)
    }

    #[test]
    fn reads_and_writes_requested_keys() {
        let mut state = WorldState::new();
        state.put("d1".into(), b"{}".to_vec(), Height::new(1, 0));
        let args = IotChaincode::args(
            &["d1".into(), "d2".into()],
            &["d1".into()],
            r#"{"deviceID":"d1","readings":["50.0"]}"#,
        );
        let rwset = invoke(IotChaincode::crdt(), &state, args).unwrap();
        assert_eq!(rwset.reads.len(), 2);
        assert_eq!(
            rwset.reads.get("d1").unwrap().version,
            Some(Height::new(1, 0))
        );
        assert_eq!(rwset.reads.get("d2").unwrap().version, None);
        assert!(rwset.writes.get("d1").unwrap().is_crdt);
    }

    #[test]
    fn plain_variant_writes_unflagged() {
        let state = WorldState::new();
        let args = IotChaincode::args(&["k".into()], &["k".into()], "{}");
        let rwset = invoke(IotChaincode::plain(), &state, args).unwrap();
        assert!(!rwset.writes.get("k").unwrap().is_crdt);
        assert!(!rwset.writes.has_crdt_writes());
    }

    #[test]
    fn names_differ_per_variant() {
        assert_eq!(IotChaincode::crdt().name(), "iot-crdt");
        assert_eq!(IotChaincode::plain().name(), "iot");
    }

    #[test]
    fn empty_read_spec_reads_nothing() {
        let state = WorldState::new();
        let args = vec!["".into(), "k".into(), "{}".into()];
        let rwset = invoke(IotChaincode::crdt(), &state, args).unwrap();
        assert!(rwset.reads.is_empty()); // a pure write transaction (§3)
    }

    #[test]
    fn missing_args_error() {
        let state = WorldState::new();
        assert!(invoke(IotChaincode::crdt(), &state, vec!["only-one".into()]).is_err());
    }

    #[test]
    fn no_write_keys_error() {
        let state = WorldState::new();
        let args = vec!["k".into(), "".into(), "{}".into()];
        assert!(invoke(IotChaincode::crdt(), &state, args).is_err());
    }

    #[test]
    fn multiple_write_keys_fan_out() {
        let state = WorldState::new();
        let args = IotChaincode::args(&[], &["a".into(), "b".into(), "c".into()], r#"{"x":"1"}"#);
        let rwset = invoke(IotChaincode::crdt(), &state, args).unwrap();
        assert_eq!(rwset.writes.len(), 3);
    }
}
