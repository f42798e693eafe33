//! Chaincodes and the chaincode shim.
//!
//! Chaincodes are the smart contracts of Fabric; developers interact with
//! ledger data through the *chaincode shim* (§2.1). During endorsement a
//! peer executes the chaincode against its local world state *without*
//! modifying it ("peers simulate the transaction proposal"); the result is
//! a read-write set.
//!
//! FabricCRDT adds one shim call: `putCRDT`, which "only informs the peer
//! that this value is a CRDT and does not interact with the CRDT in any
//! way" (§5.2) — here [`ChaincodeStub::put_crdt`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use fabriccrdt_ledger::chain::{Blockchain, HistoryEntry};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::worldstate::WorldState;

/// A chaincode event: emitted during execution, delivered to listeners
/// only if the transaction commits successfully (Fabric's event
/// service semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaincodeEvent {
    /// Event name.
    pub name: String,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// Error returned by a chaincode invocation. A failing invocation aborts
/// the proposal; no transaction is submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaincodeError {
    message: String,
}

impl ChaincodeError {
    /// Creates an error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        ChaincodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ChaincodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaincode error: {}", self.message)
    }
}

impl Error for ChaincodeError {}

/// Work performed by one chaincode execution, consumed by the cost model
/// to charge endorsement latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecWork {
    /// `get_state` calls.
    pub reads: u64,
    /// `put_state`/`put_crdt`/`delete_state` calls.
    pub writes: u64,
    /// Bytes read from the world state.
    pub bytes_read: u64,
    /// Bytes staged for writing.
    pub bytes_written: u64,
}

/// The shim handed to a chaincode during simulation.
///
/// Reads are answered from a read-only world-state snapshot and recorded
/// in the read set with the observed version; writes are buffered in the
/// write set and never touch the state (§2.1: execution is isolated).
#[derive(Debug)]
pub struct ChaincodeStub<'a> {
    state: &'a WorldState,
    chain: Option<&'a Blockchain>,
    rwset: ReadWriteSet,
    work: ExecWork,
    event: Option<ChaincodeEvent>,
}

impl<'a> ChaincodeStub<'a> {
    /// Creates a stub simulating against `state`.
    pub fn new(state: &'a WorldState) -> Self {
        ChaincodeStub {
            state,
            chain: None,
            rwset: ReadWriteSet::new(),
            work: ExecWork::default(),
            event: None,
        }
    }

    /// Creates a stub that can also answer `get_history_for_key`, from
    /// the blocks of `chain`.
    pub fn with_history(state: &'a WorldState, chain: &'a Blockchain) -> Self {
        let mut stub = ChaincodeStub::new(state);
        stub.chain = Some(chain);
        stub
    }

    /// Reads a key from the ledger, recording it (and the version
    /// observed) in the read set. Returns `None` for missing keys —
    /// which is also recorded, so that MVCC catches concurrent creation.
    /// The bytes are the committed state's own, borrowed, not a copy.
    pub fn get_state(&mut self, key: &str) -> Option<&'a [u8]> {
        self.work.reads += 1;
        let entry = self.state.get(key);
        self.rwset.reads.record(key, entry.map(|e| e.version));
        let value = entry.map(|e| e.value.as_slice());
        self.work.bytes_read += value.map_or(0, |v| v.len() as u64);
        value
    }

    /// Buffers a plain write.
    pub fn put_state(&mut self, key: &str, value: Vec<u8>) {
        self.work.writes += 1;
        self.work.bytes_written += value.len() as u64;
        self.rwset.writes.put(key, value);
    }

    /// Buffers a CRDT-flagged write — FabricCRDT's `putCRDT` (§5.2). The
    /// value must be canonical JSON bytes; the peer merges it with other
    /// CRDT writes of the same key at commit time (Algorithm 1).
    pub fn put_crdt(&mut self, key: &str, value: Vec<u8>) {
        self.work.writes += 1;
        self.work.bytes_written += value.len() as u64;
        self.rwset.writes.put_crdt(key, value);
    }

    /// Buffers a delete.
    pub fn delete_state(&mut self, key: &str) {
        self.work.writes += 1;
        self.rwset.writes.delete(key);
    }

    /// Range scan over keys in `[start, end)` — Fabric's
    /// `GetStateByRange`. Every returned key is recorded in the read set
    /// with its observed version. (Like Fabric ≤ v1.4, phantom reads —
    /// keys *appearing* in the range after simulation — are not
    /// detected.)
    pub fn get_state_by_range(&mut self, start: &str, end: &str) -> Vec<(&'a str, &'a [u8])> {
        let mut results = Vec::new();
        for (key, entry) in self.state.range(start, end) {
            self.work.reads += 1;
            self.work.bytes_read += entry.value.len() as u64;
            self.rwset.reads.record(key.as_str(), Some(entry.version));
            results.push((key.as_str(), entry.value.as_slice()));
        }
        results
    }

    /// The full modification history of a key — Fabric's
    /// `GetHistoryForKey`, read from the peer's chain
    /// ([`Blockchain::history`]). Empty when the peer exposes no chain
    /// to this execution. Reading history does not create MVCC
    /// dependencies (it is derived from immutable blocks).
    pub fn get_history_for_key(&mut self, key: &str) -> Vec<HistoryEntry> {
        self.work.reads += 1;
        self.chain.map(|c| c.history(key)).unwrap_or_default()
    }

    /// Sets the chaincode event for this invocation (Fabric's
    /// `SetEvent`): delivered to listeners only if the transaction
    /// commits successfully. A later call replaces an earlier one.
    pub fn set_event(&mut self, name: impl Into<String>, payload: Vec<u8>) {
        self.event = Some(ChaincodeEvent {
            name: name.into(),
            payload,
        });
    }

    /// Finishes the simulation, yielding the read-write set and the work
    /// counters.
    pub fn into_result(self) -> (ReadWriteSet, ExecWork) {
        (self.rwset, self.work)
    }

    /// Finishes the simulation, yielding read-write set, work counters
    /// and the chaincode event (if any).
    pub fn into_parts(self) -> (ReadWriteSet, ExecWork, Option<ChaincodeEvent>) {
        (self.rwset, self.work, self.event)
    }
}

/// A chaincode: named business logic invoked with string arguments.
///
/// Implementations must be deterministic — all endorsing peers must
/// produce identical read-write sets.
pub trait Chaincode: Send + Sync {
    /// The chaincode name clients address it by.
    fn name(&self) -> &str;

    /// Executes one invocation against the stub.
    ///
    /// # Errors
    ///
    /// Returns a [`ChaincodeError`] to abort the proposal.
    fn invoke(&self, stub: &mut ChaincodeStub<'_>, args: &[String]) -> Result<(), ChaincodeError>;
}

/// A registry of deployed chaincodes, shared by all peers.
#[derive(Clone, Default)]
pub struct ChaincodeRegistry {
    chaincodes: HashMap<String, Arc<dyn Chaincode>>,
}

impl ChaincodeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys a chaincode under its own name.
    pub fn deploy(&mut self, chaincode: Arc<dyn Chaincode>) {
        self.chaincodes
            .insert(chaincode.name().to_owned(), chaincode);
    }

    /// Looks up a chaincode.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Chaincode>> {
        self.chaincodes.get(name)
    }

    /// Number of deployed chaincodes.
    pub fn len(&self) -> usize {
        self.chaincodes.len()
    }

    /// Whether no chaincode is deployed.
    pub fn is_empty(&self) -> bool {
        self.chaincodes.is_empty()
    }
}

impl fmt::Debug for ChaincodeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaincodeRegistry")
            .field("chaincodes", &self.chaincodes.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_ledger::version::Height;

    /// Minimal chaincode: reads `args[0]`, writes `args[0] -> args[1]`.
    struct KvChaincode;

    impl Chaincode for KvChaincode {
        fn name(&self) -> &str {
            "kv"
        }

        fn invoke(
            &self,
            stub: &mut ChaincodeStub<'_>,
            args: &[String],
        ) -> Result<(), ChaincodeError> {
            if args.len() != 2 {
                return Err(ChaincodeError::new("expected key and value"));
            }
            stub.get_state(&args[0]);
            stub.put_state(&args[0], args[1].clone().into_bytes());
            Ok(())
        }
    }

    #[test]
    fn stub_records_reads_with_versions() {
        let mut state = WorldState::new();
        state.put("k".into(), b"v".to_vec(), Height::new(3, 1));
        let mut stub = ChaincodeStub::new(&state);
        assert_eq!(stub.get_state("k"), Some(&b"v"[..]));
        assert_eq!(stub.get_state("missing"), None);
        let (rwset, work) = stub.into_result();
        assert_eq!(
            rwset.reads.get("k").unwrap().version,
            Some(Height::new(3, 1))
        );
        assert_eq!(rwset.reads.get("missing").unwrap().version, None);
        assert_eq!(work.reads, 2);
        assert_eq!(work.bytes_read, 1);
    }

    #[test]
    fn stub_buffers_writes_without_touching_state() {
        let state = WorldState::new();
        let mut stub = ChaincodeStub::new(&state);
        stub.put_state("a", b"1".to_vec());
        stub.put_crdt("b", b"{}".to_vec());
        stub.delete_state("c");
        let (rwset, work) = stub.into_result();
        assert!(!rwset.writes.get("a").unwrap().is_crdt);
        assert!(rwset.writes.get("b").unwrap().is_crdt);
        assert!(rwset.writes.get("c").unwrap().is_delete);
        assert_eq!(work.writes, 3);
        assert!(state.is_empty());
    }

    #[test]
    fn chaincode_invocation_produces_rwset() {
        let state = WorldState::new();
        let mut stub = ChaincodeStub::new(&state);
        KvChaincode
            .invoke(&mut stub, &["k".into(), "v".into()])
            .unwrap();
        let (rwset, _) = stub.into_result();
        assert_eq!(rwset.reads.len(), 1);
        assert_eq!(rwset.writes.get("k").unwrap().value, b"v");
    }

    #[test]
    fn chaincode_error_propagates() {
        let state = WorldState::new();
        let mut stub = ChaincodeStub::new(&state);
        let err = KvChaincode.invoke(&mut stub, &[]).unwrap_err();
        assert!(err.to_string().contains("expected key and value"));
    }

    #[test]
    fn range_scan_records_reads() {
        let mut state = WorldState::new();
        for key in ["sensor-1", "sensor-2", "sensor-9", "zzz"] {
            state.put(key.into(), b"v".to_vec(), Height::new(1, 0));
        }
        let mut stub = ChaincodeStub::new(&state);
        let results = stub.get_state_by_range("sensor-", "sensor-5");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "sensor-1");
        let (rwset, work) = stub.into_result();
        assert_eq!(rwset.reads.len(), 2);
        assert_eq!(
            rwset.reads.get("sensor-2").unwrap().version,
            Some(Height::new(1, 0))
        );
        assert!(rwset.reads.get("zzz").is_none());
        assert_eq!(work.reads, 2);
    }

    #[test]
    fn history_queries_answer_from_index() {
        use fabriccrdt_crypto::Identity;
        use fabriccrdt_ledger::block::{Block, SealedBlock, ValidationCode};
        use fabriccrdt_ledger::transaction::{Transaction, TxId};

        let client = Identity::new("client", "org1");
        let mut rwset = crate::chaincode::ReadWriteSet::new();
        rwset.writes.put("k", b"v1".to_vec());
        let tx = Transaction {
            id: TxId::derive(&client, 1, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        };
        let mut block = Block::assemble(0, Blockchain::GENESIS_PREVIOUS_HASH, vec![tx]);
        block.validation_codes = vec![ValidationCode::Valid];
        let mut chain = Blockchain::new();
        let sealed = SealedBlock::seal(block, Blockchain::GENESIS_PREVIOUS_HASH);
        chain.append_sealed(sealed).unwrap();

        let state = WorldState::new();
        let mut stub = ChaincodeStub::with_history(&state, &chain);
        let entries = stub.get_history_for_key("k");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].height, Height::new(0, 0));
        assert_eq!(entries[0].value.as_deref(), Some(&b"v1"[..]));

        // Without a chain the query is empty, not an error.
        let mut bare = ChaincodeStub::new(&state);
        assert!(bare.get_history_for_key("k").is_empty());
    }

    #[test]
    fn events_are_captured() {
        let state = WorldState::new();
        let mut stub = ChaincodeStub::new(&state);
        stub.set_event("first", b"a".to_vec());
        stub.set_event("second", b"b".to_vec()); // replaces
        let (_, _, event) = stub.into_parts();
        let event = event.unwrap();
        assert_eq!(event.name, "second");
        assert_eq!(event.payload, b"b");
    }

    #[test]
    fn registry_deploy_and_lookup() {
        let mut reg = ChaincodeRegistry::new();
        assert!(reg.is_empty());
        reg.deploy(Arc::new(KvChaincode));
        assert_eq!(reg.len(), 1);
        assert!(reg.get("kv").is_some());
        assert!(reg.get("nope").is_none());
        assert!(format!("{reg:?}").contains("kv"));
    }
}
