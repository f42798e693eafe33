//! The committing peer.
//!
//! Peers perform two validations on incoming blocks (§2.1, step 3):
//! endorsement-policy validation (signatures verified, policy satisfied)
//! and the validator-specific stage (MVCC for Fabric, merge for
//! FabricCRDT), then append the block — valid and invalid transactions
//! alike — and update the world state with the valid write sets.
//!
//! Processing is split into [`Peer::process_block`] (pure computation
//! against the current state, producing a [`StagedBlock`]) and
//! [`Peer::commit`] (atomically installing the staged state). The
//! simulator computes at processing *start*, schedules the commit at
//! `start + cost`, and endorsements arriving in between correctly observe
//! the pre-block state.
//!
//! # One commit path
//!
//! A block starts only after its predecessor committed, so the
//! duplicate screen reads the committed id set and the MVCC check reads
//! the committed state: every verdict is a pure function of the block
//! and the ledger before it. Finalize is Algorithm 1's sequential pass
//! ([`BlockValidator::validate_and_commit`]), as in Fabric v1.4
//! (DESIGN.md §4.9). [`Peer::prevalidate`], [`Peer::finish_block`] and
//! [`Peer::finish_block_with_next`] are names `perf/` drives this path
//! through (DESIGN.md §4.16).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_ledger::block::{Block, EncodedTransactions, SealedBlock, ValidationCode};
use fabriccrdt_ledger::chain::{Blockchain, ChainError};
use fabriccrdt_ledger::store::LedgerSnapshot;
use fabriccrdt_ledger::transaction::{TxId, TxIdSet};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_ledger::{codec, mvcc};

/// A serialized peer ledger: world-state snapshot plus the full block
/// chain, as written by [`Peer::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSnapshot {
    /// Encoded world state (`fabriccrdt_ledger::codec::encode_state`).
    pub state: Vec<u8>,
    /// Encoded blockchain (`fabriccrdt_ledger::codec::encode_chain`).
    pub chain: Vec<u8>,
}

use crate::channel::ChannelId;
use crate::cost::ValidationWork;
use crate::pipeline::ValidationPipeline;
use crate::policy::EndorsementPolicy;
use crate::validator::BlockValidator;

/// Host wall-clock durations of the two `process_block` stages, read by
/// the benchmark package (`perf/`) to attribute block time per stage.
/// Timings never feed the cost model or any validation outcome, so they
/// cannot perturb simulation determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Duplicate detection + endorsement verification, after the
    /// ingress hash check.
    pub pre_validate_secs: f64,
    /// MVCC/merge validation, state commit and re-seal (Algorithm 1's
    /// sequential stage).
    pub finalize_secs: f64,
}

/// A fully validated block plus the world state it produces, awaiting
/// [`Peer::commit`].
#[derive(Debug)]
pub struct StagedBlock {
    /// The block with validation codes filled in, re-sealed.
    pub block: SealedBlock,
    /// World state after applying the valid write sets.
    pub new_state: WorldState,
    /// Work performed (drives the cost model).
    pub work: ValidationWork,
    /// Host wall-clock spent per processing stage.
    pub timings: StageTimings,
}

/// A delivered block not yet processed; [`Peer::finish_block`] runs
/// [`Peer::process_block`] on it. Pinned for `perf/` (DESIGN.md §4.16).
#[derive(Debug)]
pub struct PreparedBlock {
    block: Block,
}

/// A committing peer.
///
/// The pipeline's committing peer is one `Peer`. Under ideal FIFO
/// delivery it stands in for every replica, since all run the same
/// deterministic logic over the same block stream. Under gossip
/// delivery every channel member hosts a `Peer` replica of its own
/// beside it, and those replicas are what dissemination, faults and
/// catch-up act on (DESIGN.md §1).
#[derive(Debug)]
pub struct Peer<V> {
    /// The committed world state, published as an immutable epoch:
    /// [`Peer::commit`] replaces it with the staged successor, which
    /// shares every node the block did not write. A clone costs one
    /// reference-count bump and stays valid (and byte-stable) for as
    /// long as a reader holds it.
    state: WorldState,
    chain: Blockchain,
    committed_ids: TxIdSet,
    validator: V,
    policy: EndorsementPolicy,
    /// The verification key and policy org bit
    /// ([`EndorsementPolicy::org_bit`]) of every endorser a delivered
    /// block has named, derived on first sight — never per endorsement.
    /// Keyed by SipHash: identities are a client's to name. It holds no
    /// identity the chain does not also store, so it grows no faster
    /// than the ledger.
    endorser_keys: HashMap<Identity, (KeyPair, u64)>,
    /// Which channel this replica serves; [`ChannelId::DEFAULT`] for
    /// single-channel runs. Purely a label — validation logic is
    /// channel-agnostic — but it keeps multi-channel replicas
    /// attributable in debug output and assertions.
    channel: ChannelId,
}

impl<V: BlockValidator> Peer<V> {
    /// Creates a peer with the given validation strategy and endorsement
    /// policy.
    pub fn new(validator: V, policy: EndorsementPolicy) -> Self {
        // Every peer's chain starts with the genesis block (block 0);
        // ordered transaction blocks arrive numbered from 1.
        let mut chain = Blockchain::new();
        chain
            .append(Block::genesis())
            .expect("genesis extends the empty chain");
        Peer::from_parts(
            validator,
            policy,
            WorldState::new(),
            chain,
            TxIdSet::default(),
        )
    }

    /// A default-channel peer over the given ledger parts
    /// ([`Peer::new`] and [`Peer::restore_from_snapshot`] differ in them).
    fn from_parts(
        validator: V,
        policy: EndorsementPolicy,
        state: WorldState,
        chain: Blockchain,
        committed_ids: TxIdSet,
    ) -> Self {
        Peer {
            state,
            chain,
            committed_ids,
            validator,
            policy,
            endorser_keys: HashMap::new(),
            channel: ChannelId::DEFAULT,
        }
    }

    /// The channel this replica serves.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Labels this replica with its channel (builder style).
    pub fn with_channel(mut self, channel: ChannelId) -> Self {
        self.channel = channel;
        self
    }

    /// Returns the peer unchanged: there is one commit path. Pinned for
    /// `perf/` (DESIGN.md §4.16).
    pub fn with_pipeline(self, _pipeline: ValidationPipeline) -> Self {
        self
    }

    /// The current world state (committed blocks only). This is the
    /// published read epoch: [`Peer::commit`] replaces it wholesale and
    /// never writes through it, so a clone taken here is a stable
    /// snapshot for one reference-count bump.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// The peer's copy of the blockchain, which also answers key history
    /// ([`Blockchain::history`]).
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The validation strategy.
    pub fn validator(&self) -> &V {
        &self.validator
    }

    /// Seeds a key directly into the world state at genesis height —
    /// §7.2: "we start with an empty ledger and populate the ledger with
    /// keys that are read during the experiment".
    pub fn seed_state(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.state.put(key.into(), value, Height::genesis());
    }

    /// Serializes the peer's ledger (state + chain) for persistence or
    /// bootstrapping another replica.
    pub fn snapshot(&self) -> PeerSnapshot {
        PeerSnapshot {
            state: codec::encode_state(&self.state),
            chain: codec::encode_chain(&self.chain),
        }
    }

    /// Exports a [`LedgerSnapshot`] at the current tip: the world state's
    /// root (one reference-count bump) and the committed transaction
    /// ids, sorted, anchored at the tip block's number and hash. Nothing
    /// is encoded. Key history is not part of it: it lives in the
    /// chain's blocks.
    pub fn ledger_snapshot(&self) -> LedgerSnapshot {
        let mut ids: Vec<TxId> = self.committed_ids.iter().copied().collect();
        ids.sort();
        LedgerSnapshot {
            last_block: self.chain.height().saturating_sub(1),
            tip_hash: self.chain.tip_hash(),
            state: self.state.clone(),
            committed_ids: ids.into(),
        }
    }

    /// Rebuilds a peer from a [`LedgerSnapshot`] alone: world state and
    /// duplicate-id set are installed directly, and the chain *resumes*
    /// at the snapshot tip — blocks at or below `last_block` are not
    /// held, so key history starts above it. Blocks committed after the
    /// snapshot are applied by [`Peer::replay_block`] as usual.
    pub fn restore_from_snapshot(
        validator: V,
        policy: EndorsementPolicy,
        snapshot: &LedgerSnapshot,
    ) -> Self {
        Peer::from_parts(
            validator,
            policy,
            snapshot.state.clone(),
            Blockchain::resume(snapshot.last_block + 1, snapshot.tip_hash),
            snapshot.committed_ids.iter().copied().collect(),
        )
    }

    /// Replays an already-validated block during catch-up: checks the
    /// link to this peer's tip, the record hash over the block's commit
    /// record and the data hash over its transactions, then applies the
    /// write sets of the transactions whose *recorded* validation codes
    /// are successful, each merged write resolved to the record's
    /// converged value — exactly §2.1's "executing all valid transactions
    /// included in the blockchain starting from the genesis block results
    /// in the current state". Endorsements are not re-verified: the
    /// verdicts are the source peer's, and the hash chain, whose block
    /// hash binds the record, is the integrity anchor (DESIGN.md §4.17).
    ///
    /// The successor state is built on a clone that shares the committed
    /// tree and installed by [`Peer::commit`], like any staged block. A
    /// shared block (one an in-memory store kept) enters the chain
    /// without a copy.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the block does not extend this peer's
    /// chain or its validation codes are missing; the peer is unchanged.
    pub fn replay_block(&mut self, block: impl Into<Arc<Block>>) -> Result<(), ChainError> {
        let block = block.into();
        if block.validation_codes.len() != block.transactions.len() {
            return Err(ChainError::MissingValidationCodes);
        }
        let block = self.chain.verify_next(block)?;
        let mut state = self.state.clone();
        for (tx_num, code) in block.validation_codes.iter().enumerate() {
            if code.is_success() {
                mvcc::apply_writes(&block, tx_num, &mut state);
            }
        }
        let staged = StagedBlock {
            block,
            new_state: state,
            work: ValidationWork::default(),
            timings: StageTimings::default(),
        };
        self.commit(staged).map(drop)
    }

    /// Validates a block against the current state without committing.
    ///
    /// Verifies the ingress hash, screens duplicate ids against the
    /// committed set and the block itself, checks every endorsement
    /// (signatures really are checked), then runs the validator stage
    /// against a copy of the state and seals the commit record; the result is
    /// installed later by [`Peer::commit`]. Blocks must be processed in
    /// arrival order, each after its predecessor committed (the
    /// finalize validates against — and the re-seal links to — the
    /// committed tip).
    pub fn process_block(&mut self, mut block: Block) -> StagedBlock {
        // The commit record is this peer's own: whatever a delivered
        // block carries beside its transactions is dropped unread.
        block.clear_record();
        // Integrity pre-check: the data hash of a block fresh from the
        // orderer must cover its transactions. A mismatch means
        // tampering in transit; the whole block is rejected and nothing
        // commits. This is the one pass that hashes a transaction: the
        // endorsement MACs below verify against the payload digests
        // hashed into the leaves here, and the re-seal keeps the data
        // hash for the list hashed here.
        let Some(ingress) = EncodedTransactions::verify(&block) else {
            block.validation_codes = vec![ValidationCode::TamperedBlock; block.transactions.len()];
            return StagedBlock {
                block: SealedBlock::seal(block, self.chain.tip_hash()),
                new_state: self.state.clone(),
                work: ValidationWork::default(),
                timings: StageTimings::default(),
            };
        };
        let pre_start = Instant::now();
        let (pre, sigs_verified) = self.endorsement_verdicts(&block, &ingress);
        let pre_validate_secs = pre_start.elapsed().as_secs_f64();

        let finalize_start = Instant::now();
        let mut new_state = self.state.clone();
        let mut work = self
            .validator
            .validate_and_commit(&mut block, &mut new_state, &pre);
        work.sigs_verified = sigs_verified;

        // Re-seal: the validator wrote the commit record (the codes and
        // Algorithm 1's converged values, line 22), whose hash goes into
        // the header, and the header re-links to the peer's tip. All
        // peers merge deterministically in block order, so every replica
        // seals the same record. The transactions keep the orderer's data
        // hash unless the validator put a list of its own in the block.
        // This is the last pass over the block: `commit` appends it
        // sealed.
        let block = SealedBlock::reseal(block, self.chain.tip_hash(), &ingress);

        StagedBlock {
            block,
            new_state,
            work,
            timings: StageTimings {
                pre_validate_secs,
                finalize_secs: finalize_start.elapsed().as_secs_f64(),
            },
        }
    }

    /// Per transaction of `block`, the code decided before Algorithm 1
    /// (a duplicate id or a failed endorsement policy), and the number
    /// of signatures checked.
    ///
    /// A transaction is a duplicate of anything committed or earlier in
    /// the block. Duplicates short-circuit *before* any signature is
    /// checked, so they add nothing to `sigs_verified`, which drives
    /// the simulated block cost. Each endorsement costs one lookup of
    /// its endorser, which yields the key to verify with and the org
    /// bit a valid signature adds to the transaction's org mask.
    fn endorsement_verdicts(
        &mut self,
        block: &Block,
        ingress: &EncodedTransactions,
    ) -> (Vec<Option<ValidationCode>>, u64) {
        let mut seen_in_block = TxIdSet::default();
        let mut sigs_verified = 0u64;
        let pre = block
            .transactions
            .iter()
            .enumerate()
            .map(|(i, tx)| {
                if self.committed_ids.contains(&tx.id) || !seen_in_block.insert(tx.id) {
                    return Some(ValidationCode::DuplicateTxId);
                }
                // A no-op on every workspace validator (DESIGN.md §4.16).
                self.validator.prepare(tx);
                // Hashed into the leaf at ingress: no second payload pass.
                let digest = ingress.payload_digest(i);
                let mut orgs = 0u64;
                for endorsement in &tx.endorsements {
                    sigs_verified += 1;
                    let endorser = &endorsement.endorser;
                    let (keypair, org_bit) = match self.endorser_keys.get(endorser) {
                        Some(known) => known,
                        None => {
                            let known = (
                                KeyPair::derive(endorser.clone()),
                                self.policy.org_bit(&endorser.org),
                            );
                            &*self.endorser_keys.entry(endorser.clone()).or_insert(known)
                        }
                    };
                    if keypair
                        .verify_digest(digest, &endorsement.signature)
                        .is_ok()
                    {
                        orgs |= org_bit;
                    }
                }
                (!self.policy.is_satisfied_by_mask(orgs))
                    .then_some(ValidationCode::EndorsementPolicyFailure)
            })
            .collect();
        (pre, sigs_verified)
    }

    /// Wraps a delivered block for [`Peer::finish_block`]; nothing runs
    /// yet. Pinned for `perf/` (DESIGN.md §4.16).
    pub fn prevalidate(&mut self, block: Block) -> PreparedBlock {
        PreparedBlock { block }
    }

    /// [`Peer::process_block`] on a wrapped block. Pinned for `perf/`
    /// (DESIGN.md §4.16).
    pub fn finish_block(&mut self, prep: PreparedBlock) -> StagedBlock {
        self.process_block(prep.block)
    }

    /// Finishes `prep`, then wraps `next`; `next` runs in its own
    /// [`Peer::finish_block`], after `prep` commits. Pinned for `perf/`
    /// (DESIGN.md §4.16).
    pub fn finish_block_with_next(
        &mut self,
        prep: PreparedBlock,
        next: Block,
    ) -> (StagedBlock, PreparedBlock) {
        let staged = self.finish_block(prep);
        (staged, self.prevalidate(next))
    }

    /// Installs a staged block: world state, blockchain, duplicate set.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the block does not extend this peer's
    /// chain (wrong number or broken hash chain); the peer is unchanged.
    pub fn commit(&mut self, staged: StagedBlock) -> Result<&Block, ChainError> {
        let StagedBlock {
            block, new_state, ..
        } = staged;
        let tip = self.chain.append_sealed(block)?;
        // Epoch swap: readers holding a clone of the old state keep a
        // consistent pre-block snapshot; new reads see the committed one.
        self.state = new_state;
        self.committed_ids
            .extend(tip.transactions.iter().map(|t| t.id));
        Ok(tip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::FabricValidator;
    use fabriccrdt_crypto::Identity;
    use fabriccrdt_ledger::rwset::ReadWriteSet;
    use fabriccrdt_ledger::transaction::{Endorsement, Transaction};

    fn endorse(tx: &mut Transaction, orgs: &[&str]) {
        let payload = tx.response_payload();
        for (i, org) in orgs.iter().enumerate() {
            let kp = KeyPair::derive(Identity::new(format!("peer{i}"), *org));
            tx.endorsements.push(Endorsement {
                endorser: kp.identity().clone(),
                signature: kp.sign(&payload),
            });
        }
    }

    fn tx(nonce: u64, key: &str, orgs: &[&str]) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.writes.put(key, vec![nonce as u8]);
        let mut tx = Transaction {
            id: TxId::derive(&client, nonce, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        };
        endorse(&mut tx, orgs);
        tx
    }

    fn peer() -> Peer<FabricValidator> {
        Peer::new(
            FabricValidator::new(),
            EndorsementPolicy::all_of(["org1", "org2"]),
        )
    }

    fn next_block(peer: &Peer<FabricValidator>, txs: Vec<Transaction>) -> Block {
        Block::assemble(peer.chain().height(), peer.chain().tip_hash(), txs)
    }

    #[test]
    fn well_endorsed_transaction_commits() {
        let mut p = peer();
        let block = next_block(&p, vec![tx(1, "k", &["org1", "org2"])]);
        let staged = p.process_block(block);
        assert_eq!(staged.block.validation_codes, vec![ValidationCode::Valid]);
        assert_eq!(staged.work.sigs_verified, 2);
        p.commit(staged).unwrap();
        assert_eq!(p.state().value("k"), Some(&[1u8][..]));
        assert_eq!(p.chain().height(), 2); // genesis + this block
    }

    #[test]
    fn missing_org_fails_endorsement_policy() {
        let mut p = peer();
        let block = next_block(&p, vec![tx(1, "k", &["org1"])]);
        let staged = p.process_block(block);
        assert_eq!(
            staged.block.validation_codes,
            vec![ValidationCode::EndorsementPolicyFailure]
        );
        p.commit(staged).unwrap();
        assert!(p.state().value("k").is_none());
    }

    #[test]
    fn forged_signature_fails_endorsement() {
        let mut p = peer();
        let mut t = tx(1, "k", &["org1", "org2"]);
        // Corrupt the second endorsement's signature.
        t.endorsements[1].signature.0[0] ^= 0xff;
        let block = next_block(&p, vec![t]);
        let staged = p.process_block(block);
        assert_eq!(
            staged.block.validation_codes,
            vec![ValidationCode::EndorsementPolicyFailure]
        );
        p.commit(staged).unwrap();
    }

    #[test]
    fn duplicate_within_block_rejected() {
        let mut p = peer();
        let t = tx(1, "k", &["org1", "org2"]);
        let block = next_block(&p, vec![t.clone(), t]);
        let staged = p.process_block(block);
        assert_eq!(
            staged.block.validation_codes,
            vec![ValidationCode::Valid, ValidationCode::DuplicateTxId]
        );
        p.commit(staged).unwrap();
    }

    #[test]
    fn duplicate_across_blocks_rejected() {
        let mut p = peer();
        let t = tx(1, "k", &["org1", "org2"]);
        let b0 = next_block(&p, vec![t.clone()]);
        let staged = p.process_block(b0);
        p.commit(staged).unwrap();
        let b1 = next_block(&p, vec![t]);
        let staged = p.process_block(b1);
        assert_eq!(
            staged.block.validation_codes,
            vec![ValidationCode::DuplicateTxId]
        );
    }

    #[test]
    fn state_unchanged_until_commit() {
        let mut p = peer();
        let block = next_block(&p, vec![tx(1, "k", &["org1", "org2"])]);
        let staged = p.process_block(block);
        assert!(p.state().value("k").is_none());
        assert_eq!(staged.new_state.value("k"), Some(&[1u8][..]));
    }

    #[test]
    fn seeded_state_is_at_genesis_height() {
        let mut p = peer();
        p.seed_state("device1", b"{}".to_vec());
        assert_eq!(p.state().version("device1"), Some(Height::genesis()));
    }

    #[test]
    fn replayed_chain_roundtrip_and_continue() {
        let mut original = peer();
        original.seed_state("seeded", b"s".to_vec());
        for n in 1..4 {
            let block = next_block(&original, vec![tx(n, &format!("k{n}"), &["org1", "org2"])]);
            let staged = original.process_block(block);
            original.commit(staged).unwrap();
        }

        // A second peer rebuilt from the serialized chain alone.
        let chain = codec::decode_chain(&original.snapshot().chain).unwrap();
        let mut restored = peer();
        restored.seed_state("seeded", b"s".to_vec());
        for block in chain.iter().skip(1) {
            restored.replay_block(block.clone()).unwrap();
        }

        assert_eq!(restored.state(), original.state());
        assert_eq!(restored.chain().tip_hash(), original.chain().tip_hash());
        assert_eq!(
            restored.chain().history("k1"),
            original.chain().history("k1")
        );

        // Both peers process the next block identically — including
        // duplicate detection derived from the replayed chain.
        let dup = original.chain().block(1).unwrap().transactions[0].clone();
        let next_txs = vec![tx(9, "k9", &["org1", "org2"]), dup];
        let block_a = next_block(&original, next_txs.clone());
        let staged_a = original.process_block(block_a.clone());
        let staged_b = restored.process_block(block_a);
        assert_eq!(
            staged_a.block.validation_codes,
            staged_b.block.validation_codes
        );
        assert_eq!(
            staged_a.block.validation_codes,
            vec![ValidationCode::Valid, ValidationCode::DuplicateTxId]
        );
        original.commit(staged_a).unwrap();
        restored.commit(staged_b).unwrap();
        assert_eq!(restored.snapshot(), original.snapshot());
    }

    /// A peer restored from a snapshot holds no block at or below the
    /// snapshot's `last_block`, so its history starts above it.
    #[test]
    fn snapshot_restored_peer_answers_history_above_its_base() {
        let mut original = peer();
        let mut snapshot = None;
        for n in 1..=4 {
            let block = next_block(&original, vec![tx(n, "k", &["org1", "org2"])]);
            let staged = original.process_block(block);
            original.commit(staged).unwrap();
            if n == 2 {
                snapshot = Some(original.ledger_snapshot());
            }
        }
        let snapshot = snapshot.unwrap();
        let mut restored =
            Peer::restore_from_snapshot(FabricValidator::new(), original.policy.clone(), &snapshot);
        assert!(restored.chain().history("k").is_empty());
        for number in 3..=4 {
            let block = original.chain().block(number).unwrap().clone();
            restored.replay_block(block).unwrap();
        }

        let full = original.chain().history("k");
        assert_eq!(full.len(), 4);
        let above_base: Vec<_> = full
            .into_iter()
            .filter(|e| e.height.block_num > snapshot.last_block)
            .collect();
        assert_eq!(above_base.len(), 2);
        assert_eq!(restored.chain().history("k"), above_base);
    }

    #[test]
    fn replay_applies_only_successful_writes() {
        // Build a committed block on one peer, replay it on another.
        let mut source = peer();
        let good = tx(1, "good", &["org1", "org2"]);
        let bad = tx(2, "bad", &["org1"]); // policy failure
        let block = next_block(&source, vec![good, bad]);
        let staged = source.process_block(block);
        source.commit(staged).unwrap();

        let mut replica = peer();
        let committed = source.chain().block(1).unwrap().clone();
        replica.replay_block(committed).unwrap();
        assert_eq!(replica.state().value("good"), Some(&[1u8][..]));
        assert!(replica.state().value("bad").is_none());
        assert_eq!(replica.chain().tip_hash(), source.chain().tip_hash());
        assert_eq!(replica.chain().history("good").len(), 1);
    }

    #[test]
    fn replay_rejects_unvalidated_blocks() {
        let mut p = peer();
        let block = next_block(&p, vec![tx(1, "k", &["org1", "org2"])]);
        // No validation codes: this block never went through a commit.
        assert_eq!(
            p.replay_block(block).unwrap_err(),
            fabriccrdt_ledger::chain::ChainError::MissingValidationCodes
        );
    }

    #[test]
    fn tampered_block_rejected_wholesale() {
        let mut p = peer();
        let mut block = next_block(&p, vec![tx(1, "k", &["org1", "org2"])]);
        // Tamper with the transaction after the orderer sealed the block.
        let mut transactions = block.transactions.to_vec();
        transactions[0].rwset.writes.put("k", b"evil".to_vec());
        block.transactions = transactions.into();
        let staged = p.process_block(block);
        assert_eq!(
            staged.block.validation_codes,
            vec![ValidationCode::TamperedBlock]
        );
        assert_eq!(staged.work.sigs_verified, 0, "no further validation runs");
        p.commit(staged).unwrap();
        // Nothing committed; the tampering is on the record.
        assert!(p.state().value("k").is_none());
    }

    fn reading_tx(
        nonce: u64,
        key: &str,
        read_key: &str,
        version: Option<Height>,
        orgs: &[&str],
    ) -> Transaction {
        let client = Identity::new("client", "org1");
        let mut rwset = ReadWriteSet::new();
        rwset.reads.record(read_key, version);
        rwset.writes.put(key, vec![nonce as u8]);
        let mut tx = Transaction {
            id: TxId::derive(&client, nonce, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        };
        endorse(&mut tx, orgs);
        tx
    }

    /// Block 1 writes "k"; block 2 reads "k" at the seeded version. The
    /// read was fresh when block 2 was cut, and the MVCC check at
    /// finalize — against the state block 1 committed — flags it.
    #[test]
    fn a_predecessors_write_is_caught_by_mvcc_at_finalize() {
        let mut p = peer();
        p.seed_state("k", b"seed".to_vec());
        let write = tx(1, "k", &["org1", "org2"]);
        let read = reading_tx(2, "other", "k", Some(Height::genesis()), &["org1", "org2"]);
        let blind = tx(3, "z", &["org1", "org2"]);
        let b1 = next_block(&p, vec![write]);
        let b2 = Block::assemble(2, [0; 32], vec![read, blind]);

        let staged1 = p.process_block(b1);
        p.commit(staged1).unwrap();
        let staged2 = p.process_block(b2);
        assert_eq!(
            staged2.block.validation_codes,
            vec![ValidationCode::MvccConflict, ValidationCode::Valid]
        );
        p.commit(staged2).unwrap();
        assert!(p.state().value("other").is_none());
        assert_eq!(p.state().value("z"), Some(&[3u8][..]));
    }

    #[test]
    fn commit_rejects_wrong_block_number() {
        let mut p = peer();
        let block = Block::assemble(7, p.chain().tip_hash(), vec![]);
        let staged = p.process_block(block);
        assert!(p.commit(staged).is_err());
        assert_eq!(p.chain().height(), 1); // still only genesis
    }
}
