//! The cross-channel transfer chaincode: the on-ledger half of the
//! two-phase key handoff.
//!
//! A transfer moves one key's committed value from a source channel to
//! a destination channel through three invocations, each an ordinary
//! endorsed transaction on its own channel:
//!
//! 1. **`prepare`** (source): reads the key, escrows its bytes into the
//!    transfer's prepare record (`__xfer/<id>/prepare`) and replaces
//!    the live value with an escrow marker — the key is now locked on
//!    the source.
//! 2. **`commit`** (destination): re-creates the escrowed value under
//!    the key on the destination channel — via `put_crdt` when the
//!    value is a JSON CRDT document (so it merges with any concurrent
//!    destination writes), plain `put_state` otherwise — and writes the
//!    commit record (`__xfer/<id>/commit`).
//! 3. **`abort`** (source, only when the commit failed validation):
//!    restores the escrowed bytes under the key and writes the abort
//!    record (`__xfer/<id>/abort`).
//!
//! The driver ([`crate::MultiChannelNetwork`]) acts as the
//! transferring client: it relays the escrowed bytes between channels
//! and reconciles outcomes at finalize by checking which records
//! committed. Exactly-once follows from the records' MVCC reads: each
//! phase reads its own record key before writing it, so a duplicate
//! submission of the same phase conflicts with the first and fails
//! validation instead of double-applying.
//!
//! Values are hex-encoded inside records so arbitrary bytes survive
//! the trip through the JSON-text argument layout.

use fabriccrdt_crypto::hex;
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeError, ChaincodeStub};
use fabriccrdt_fabric::channel::TransferId;
use fabriccrdt_jsoncrdt::json::Value;

/// Chaincode name the transfer protocol runs under.
pub const XFER_CHAINCODE: &str = "xfer";

/// The transfer chaincode. Deploy once per channel registry; the
/// driver deploys it automatically.
#[derive(Debug, Clone, Copy, Default)]
pub struct XferChaincode;

impl XferChaincode {
    /// Arguments for the prepare phase on the source channel.
    pub fn prepare_args(id: TransferId, key: &str) -> Vec<String> {
        vec!["prepare".into(), id.0.to_string(), key.to_owned()]
    }

    /// Arguments for the commit phase on the destination channel;
    /// `escrow_hex` is the prepare record's payload, relayed by the
    /// driver.
    pub fn commit_args(id: TransferId, key: &str, escrow_hex: &str) -> Vec<String> {
        vec![
            "commit".into(),
            id.0.to_string(),
            key.to_owned(),
            escrow_hex.to_owned(),
        ]
    }

    /// Arguments for the abort phase back on the source channel.
    pub fn abort_args(id: TransferId, key: &str, escrow_hex: &str) -> Vec<String> {
        vec![
            "abort".into(),
            id.0.to_string(),
            key.to_owned(),
            escrow_hex.to_owned(),
        ]
    }

    /// The marker a prepared (escrowed) key holds on the source channel
    /// while the transfer is in flight — and forever, once it commits.
    pub fn escrow_marker(id: TransferId) -> Vec<u8> {
        format!("__escrowed/{id}").into_bytes()
    }
}

fn parse_id(arg: &str) -> Result<TransferId, ChaincodeError> {
    arg.parse::<u64>()
        .map(TransferId)
        .map_err(|_| ChaincodeError::new("malformed transfer id"))
}

impl Chaincode for XferChaincode {
    fn name(&self) -> &str {
        XFER_CHAINCODE
    }

    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError> {
        let phase = args.first().map(String::as_str).unwrap_or("");
        match phase {
            "prepare" => {
                let [_, id, key] = args else {
                    return Err(ChaincodeError::new("expected [prepare, id, key]"));
                };
                let id = parse_id(id)?;
                let Some(value) = stub.get_state(key) else {
                    return Err(ChaincodeError::new(format!(
                        "{id}: key {key:?} not present on the source channel"
                    )));
                };
                // Reading the record key makes a duplicate prepare an
                // MVCC conflict with the first instead of a second
                // escrow.
                stub.get_state(&id.prepare_key());
                stub.put_state(&id.prepare_key(), hex::encode(value).into_bytes());
                stub.put_state(key, XferChaincode::escrow_marker(id));
                Ok(())
            }
            "commit" => {
                let [_, id, key, escrow_hex] = args else {
                    return Err(ChaincodeError::new("expected [commit, id, key, hex]"));
                };
                let id = parse_id(id)?;
                let value =
                    hex::decode(escrow_hex).map_err(|_| ChaincodeError::new("malformed hex"))?;
                stub.get_state(&id.commit_key());
                stub.get_state(key);
                if Value::from_bytes(&value).is_ok() {
                    // A JSON CRDT document merges with whatever the
                    // destination channel already holds under the key.
                    stub.put_crdt(key, value);
                } else {
                    stub.put_state(key, value);
                }
                stub.put_state(&id.commit_key(), escrow_hex.clone().into_bytes());
                Ok(())
            }
            "abort" => {
                let [_, id, key, escrow_hex] = args else {
                    return Err(ChaincodeError::new("expected [abort, id, key, hex]"));
                };
                let id = parse_id(id)?;
                let value =
                    hex::decode(escrow_hex).map_err(|_| ChaincodeError::new("malformed hex"))?;
                stub.get_state(&id.abort_key());
                stub.get_state(key);
                stub.put_state(key, value);
                stub.put_state(&id.abort_key(), escrow_hex.clone().into_bytes());
                Ok(())
            }
            other => Err(ChaincodeError::new(format!(
                "unknown transfer phase {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_ledger::worldstate::WorldState;

    #[test]
    fn malformed_hex_in_transfer_args_is_a_chaincode_error() {
        let state = WorldState::new();
        for escrow in ["zz", "abc"] {
            for args in [
                XferChaincode::commit_args(TransferId(1), "k", escrow),
                XferChaincode::abort_args(TransferId(1), "k", escrow),
            ] {
                let err = XferChaincode
                    .invoke(&mut ChaincodeStub::new(&state), &args)
                    .expect_err("malformed escrow payload");
                assert!(err.to_string().contains("malformed hex"), "{err}");
            }
        }
    }

    #[test]
    fn phase_args_are_positional() {
        let id = TransferId(3);
        assert_eq!(
            XferChaincode::prepare_args(id, "k"),
            vec!["prepare", "3", "k"]
        );
        assert_eq!(
            XferChaincode::commit_args(id, "k", "ff"),
            vec!["commit", "3", "k", "ff"]
        );
        assert_eq!(XferChaincode::abort_args(id, "k", "ff")[0], "abort");
        assert_eq!(XferChaincode::escrow_marker(id), b"__escrowed/xfer-3");
    }
}
