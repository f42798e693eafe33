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
//! # Chained blocks
//!
//! [`Peer::process_block`] is [`Peer::prevalidate`] joined at once by
//! [`Peer::finish_block`]. The drivers (`Simulation`, the gossip lanes)
//! chain instead: [`Peer::finish_block_with_next`] joins block N's
//! pre-validation, starts block N+1's pure per-transaction stage, then
//! runs N's finalize. Under [`ValidationPipeline::Pipelined`] N+1's
//! signature checking runs on pool threads *while* N finalizes on the
//! calling thread; under `Sequential` it is deferred to N+1's own join.
//! The started stage reads no world state, so the MVCC check at
//! finalize — against the committed state, after block N's commit — is
//! the only read verdict there is, and every stage is a pure function
//! of (transaction, committed-id context). Finalize is one body on
//! every pipeline, Algorithm 1's sequential pass
//! ([`BlockValidator::validate_and_commit`]), so the two pipelines are
//! value-identical and only wall-clock differs (DESIGN.md §4.9).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_ledger::block::{Block, EncodedTransactions, SealedBlock, ValidationCode};
use fabriccrdt_ledger::chain::{Blockchain, ChainError};
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::store::LedgerSnapshot;
use fabriccrdt_ledger::transaction::{Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;

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
use crate::metrics::PipelineMetrics;
use crate::pipeline::{PendingMap, PipelineRunner, ValidationPipeline};
use crate::policy::EndorsementPolicy;
use crate::validator::BlockValidator;

/// Host wall-clock durations of the two `process_block` stages, read by
/// the benchmark package (`perf/`) to attribute block time per stage.
/// Timings never feed the cost model or any validation outcome, so they
/// cannot perturb simulation determinism.
///
/// Under [`ValidationPipeline::Pipelined`] the stages of consecutive
/// blocks are **not disjoint** — block N+1's pre-validation runs
/// concurrently with block N's finalize — so the two durations do not
/// sum to wall time there.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Duplicate detection + endorsement verification (pipeline
    /// fan-out stage), from the start of the prepare to the end of the
    /// join.
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

/// Block N+1 mid-flight: its pure pre-validation stage has been
/// started (possibly on the worker pool, concurrently with block N's
/// finalize) but not yet joined. Redeem with [`Peer::finish_block`] —
/// in arrival order, after every earlier block has been committed.
#[derive(Debug)]
pub struct PreparedBlock {
    /// The block, transactions taken out (left in place for tampered
    /// blocks, which skip pre-validation wholesale).
    block: Block,
    /// The transactions, shared with the in-flight pool job.
    transactions: Arc<Vec<Transaction>>,
    /// The in-flight endorsement map and the ingress encoding it reads;
    /// `None` marks a tampered block.
    pending: Option<(Endorsing, Arc<EncodedTransactions>)>,
    /// When pre-validation started.
    pre_start: Instant,
}

/// Per transaction: a failed endorsement verdict, signatures checked.
type Endorsing = PendingMap<(Option<ValidationCode>, u64)>;

/// A [`PreparedBlock`] whose pre-validation has been joined; input to
/// the finalize half of [`Peer::finish_block`].
struct JoinedBlock {
    block: Block,
    transactions: Arc<Vec<Transaction>>,
    pre: Vec<Option<ValidationCode>>,
    sigs_verified: u64,
    /// The bytes hashed at ingress; `None` marks a tampered block.
    ingress: Option<Arc<EncodedTransactions>>,
    pre_validate_secs: f64,
}

/// A committing peer.
///
/// All peers of the simulated network execute identical deterministic
/// logic over an identical block stream, so one `Peer` instance stands in
/// for every replica; per-peer network latencies are modelled separately
/// by the simulation (DESIGN.md §1).
#[derive(Debug)]
pub struct Peer<V> {
    /// The committed world state, published as an immutable epoch:
    /// [`Peer::commit`] replaces it with the staged successor, which
    /// shares every node the block did not write. A clone costs one
    /// reference-count bump and stays valid (and byte-stable) for as
    /// long as a reader holds it.
    state: WorldState,
    chain: Blockchain,
    committed_ids: HashSet<TxId>,
    // Arc because pre-validation hands the validator to 'static pool
    // workers.
    validator: Arc<V>,
    policy: EndorsementPolicy,
    /// The verification key of every endorser a delivered block has
    /// named, derived on first sight in the sequential stage of
    /// `prepare_block` — never per endorsement. Pre-validation workers
    /// read it through the `Arc` without a lock. It holds no identity
    /// the chain does not also store, so it grows no faster than the
    /// ledger.
    endorser_keys: Arc<HashMap<Identity, KeyPair>>,
    runner: PipelineRunner,
    /// Which channel this replica serves; [`ChannelId::DEFAULT`] for
    /// single-channel runs. Purely a label — validation logic is
    /// channel-agnostic — but it keeps multi-channel replicas
    /// attributable in debug output and assertions.
    channel: ChannelId,
    /// Overlap counters, drained by [`Peer::take_pipeline_metrics`].
    /// Scheduling-descriptive only — never feeds a validation outcome.
    stats: PipelineMetrics,
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
        Peer::from_parts(validator, policy, WorldState::new(), chain, HashSet::new())
    }

    /// A sequential, default-channel peer over the given ledger parts
    /// ([`Peer::new`] and [`Peer::restore_from_snapshot`] differ in them).
    fn from_parts(
        validator: V,
        policy: EndorsementPolicy,
        state: WorldState,
        chain: Blockchain,
        committed_ids: HashSet<TxId>,
    ) -> Self {
        Peer {
            state,
            chain,
            committed_ids,
            validator: Arc::new(validator),
            policy,
            endorser_keys: Arc::new(HashMap::new()),
            runner: PipelineRunner::new(ValidationPipeline::Sequential),
            channel: ChannelId::DEFAULT,
            stats: PipelineMetrics::default(),
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

    /// Selects the validation pipeline (builder style), re-binding the
    /// worker pool (a replaced pool's threads join on drop). The
    /// default, [`ValidationPipeline::Sequential`], is byte-for-byte the
    /// seed commit path; `Pipelined` is value-identical (see
    /// `crates/fabric/src/pipeline.rs` for the determinism argument) and
    /// only changes wall-clock time. Pooled runners spawn their
    /// persistent worker pool here, once per peer.
    pub fn with_pipeline(mut self, pipeline: ValidationPipeline) -> Self {
        self.runner = PipelineRunner::new(pipeline);
        self
    }

    /// The active validation pipeline.
    pub fn pipeline(&self) -> ValidationPipeline {
        self.runner.mode()
    }

    /// The current world state (committed blocks only). This is the
    /// published read epoch: [`Peer::commit`] replaces it wholesale and
    /// never writes through it, so a clone taken here is a stable
    /// snapshot for one reference-count bump.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// Drains the overlap counters accumulated since the last call (or
    /// construction). Scheduling-descriptive only;
    /// excluded from [`crate::metrics::RunMetrics`] equality.
    pub fn take_pipeline_metrics(&mut self) -> PipelineMetrics {
        std::mem::take(&mut self.stats)
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

    /// Exports a [`LedgerSnapshot`] at the current tip: encoded world
    /// state and committed transaction ids (sorted), anchored at the tip
    /// block's number and hash. Key history is not part of it: it lives
    /// in the chain's blocks.
    pub fn ledger_snapshot(&self) -> LedgerSnapshot {
        let mut ids: Vec<TxId> = self.committed_ids.iter().copied().collect();
        ids.sort();
        LedgerSnapshot {
            last_block: self.chain.height().saturating_sub(1),
            tip_hash: self.chain.tip_hash(),
            state: codec::encode_state(&self.state),
            committed_ids: codec::encode_txids(&ids),
        }
    }

    /// Rebuilds a peer from a [`LedgerSnapshot`] alone: world state and
    /// duplicate-id set are installed directly, and the chain *resumes*
    /// at the snapshot tip — blocks at or below `last_block` are not
    /// held, so key history starts above it. Blocks committed after the
    /// snapshot are applied by [`Peer::replay_block`] as usual.
    ///
    /// # Errors
    ///
    /// Returns a [`codec::DecodeError`] for malformed snapshot
    /// components.
    pub fn restore_from_snapshot(
        validator: V,
        policy: EndorsementPolicy,
        snapshot: &LedgerSnapshot,
    ) -> Result<Self, codec::DecodeError> {
        let state = codec::decode_state(&snapshot.state)?;
        let ids = codec::decode_txids(&snapshot.committed_ids)?;
        Ok(Peer::from_parts(
            validator,
            policy,
            state,
            Blockchain::resume(snapshot.last_block + 1, snapshot.tip_hash),
            ids.into_iter().collect(),
        ))
    }

    /// Replays an already-validated block during catch-up: verifies the
    /// hash chain and data hash first, then applies the write sets of the
    /// transactions whose *recorded* validation codes are successful —
    /// exactly §2.1's "executing all valid transactions included in the
    /// blockchain starting from the genesis block results in the current
    /// state". Endorsements are not re-verified: FabricCRDT's Algorithm 1
    /// rewrites CRDT write values after endorsement, so replayed payloads
    /// no longer match the original signatures; the hash chain (re-sealed
    /// deterministically by every committing peer) is the integrity
    /// anchor instead.
    ///
    /// The successor state is built on a clone that shares the committed
    /// tree and installed by [`Peer::commit`], like any staged block.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the block does not extend this peer's
    /// chain or its validation codes are missing; the peer is unchanged.
    pub fn replay_block(&mut self, block: Block) -> Result<(), ChainError> {
        if block.validation_codes.len() != block.transactions.len() {
            return Err(ChainError::MissingValidationCodes);
        }
        let block = self.chain.verify_next(block)?;
        let mut state = self.state.clone();
        for (tx_num, (tx, code)) in block
            .transactions
            .iter()
            .zip(&block.validation_codes)
            .enumerate()
        {
            if !code.is_success() {
                continue;
            }
            let height = Height::new(block.header.number, tx_num as u64);
            for (key, entry) in tx.rwset.writes.iter() {
                if entry.is_delete {
                    state.delete(key);
                } else {
                    state.put(key.clone(), entry.value.clone(), height);
                }
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
    /// Performs duplicate-id detection, endorsement verification
    /// (signatures really are checked) and the validator stage, all
    /// against a copy of the state; the result is installed later by
    /// [`Peer::commit`]. Equivalent to [`Peer::prevalidate`]
    /// immediately followed by [`Peer::finish_block`].
    pub fn process_block(&mut self, block: Block) -> StagedBlock {
        let prep = self.prepare_block(block, &HashSet::new(), false);
        self.finish_block(prep)
    }

    /// Starts the pure pre-validation stage of a block whose
    /// predecessors have all committed (no extra duplicate context).
    pub fn prevalidate(&mut self, block: Block) -> PreparedBlock {
        self.prepare_block(block, &HashSet::new(), false)
    }

    /// Starts the pure pre-validation stage of a block *ahead of* its
    /// predecessors' finalize — the overlap window of
    /// [`ValidationPipeline::Pipelined`]. With a free pool the
    /// per-transaction work is submitted to it and runs concurrently
    /// with whatever the caller does next (block N's finalize);
    /// otherwise it is deferred to the join inside
    /// [`Peer::finish_block`] — value-identical either way.
    ///
    /// `extra_ids` must hold the ids of **every** transaction of every
    /// in-flight block (staged or prepared, valid and failed alike):
    /// [`Peer::commit`] extends the duplicate set with all of them, so
    /// this is exactly the context `committed_ids` would have carried
    /// had the predecessors already committed. With that, duplicate
    /// verdicts — and therefore `sigs_verified` and the simulated
    /// block cost — are identical to the sequential schedule.
    pub(crate) fn prevalidate_ahead(
        &mut self,
        block: Block,
        extra_ids: &HashSet<TxId>,
    ) -> PreparedBlock {
        self.prepare_block(block, extra_ids, true)
    }

    /// Joins a block's pre-validation and runs its finalize. Blocks
    /// must be finished in arrival order, each after its predecessors
    /// committed (the finalize validates against — and the re-seal
    /// links to — the committed tip).
    pub fn finish_block(&mut self, prep: PreparedBlock) -> StagedBlock {
        let joined = self.join_prevalidation(prep);
        self.finalize_joined(joined)
    }

    /// The pipelined chaining step: joins `prep`'s pre-validation
    /// (freeing the worker pool), submits `next`'s pre-validation to
    /// the pool, then runs `prep`'s finalize on the calling thread —
    /// so `next`'s signature checking proceeds concurrently with the
    /// finalize. The duplicate context for `next` (the ids of `prep`'s
    /// transactions) is threaded automatically.
    pub fn finish_block_with_next(
        &mut self,
        prep: PreparedBlock,
        next: Block,
    ) -> (StagedBlock, PreparedBlock) {
        let joined = self.join_prevalidation(prep);
        let extra: HashSet<TxId> = joined
            .block
            .transactions
            .iter()
            .chain(joined.transactions.iter())
            .map(|t| t.id)
            .collect();
        let next_prep = self.prevalidate_ahead(next, &extra);
        let staged = self.finalize_joined(joined);
        (staged, next_prep)
    }

    /// The shared prepare half: duplicate detection, then the pure
    /// per-transaction endorsement stage, started via
    /// [`PipelineRunner::map_ordered_bg`].
    fn prepare_block(
        &mut self,
        mut block: Block,
        extra_ids: &HashSet<TxId>,
        overlapped: bool,
    ) -> PreparedBlock {
        // Integrity pre-check: the data hash of a block fresh from the
        // orderer must cover its transactions. A mismatch here — before
        // any validator-driven rewrite — means tampering in transit;
        // the whole block is rejected and nothing commits. (The later
        // re-seal only legitimizes the peer's *own* deterministic
        // merge rewrites, and keeps the leaves hashed here for every
        // transaction they left alone.) The endorsement MACs below
        // verify against the payload digests hashed into the leaves here.
        let Some(encoded) = EncodedTransactions::verify(&block).map(Arc::new) else {
            return PreparedBlock {
                block,
                transactions: Arc::new(Vec::new()),
                pending: None,
                // Never read: a tampered block reports default timings.
                pre_start: Instant::now(),
            };
        };
        let pre_start = Instant::now();

        // Stage 1 (sequential, cheap): duplicate-id detection. This is
        // the one cross-transaction dependency in pre-validation — a
        // transaction is a duplicate relative to everything committed
        // (including in-flight predecessors, via `extra_ids`) *and*
        // everything earlier in this block — so it runs before the
        // fan-out, keeping the per-transaction stage below pure.
        let mut seen_in_block: HashSet<TxId> = HashSet::new();
        let duplicate: Vec<bool> = block
            .transactions
            .iter()
            .map(|tx| {
                self.committed_ids.contains(&tx.id)
                    || extra_ids.contains(&tx.id)
                    || !seen_in_block.insert(tx.id)
            })
            .collect();
        for endorsement in block.transactions.iter().flat_map(|tx| &tx.endorsements) {
            if !self.endorser_keys.contains_key(&endorsement.endorser) {
                let keypair = KeyPair::derive(endorsement.endorser.clone());
                Arc::make_mut(&mut self.endorser_keys)
                    .insert(endorsement.endorser.clone(), keypair);
            }
        }

        // Stage 2 (pipeline fan-out): endorsement validation — every
        // signature must verify and the endorsing organizations must
        // satisfy the policy. Each transaction's outcome is a pure
        // function of the transaction itself, so the pipeline may
        // evaluate them on worker threads; the join reassembles results
        // in block order. Duplicates short-circuit *before* any
        // signature is checked (exactly as the seed's early return did),
        // so `sigs_verified` — and with it the simulated block cost — is
        // identical under every pipeline. Pool workers are 'static, so
        // shared context travels by `Arc`/clone rather than borrow.
        let transactions = Arc::new(std::mem::take(&mut block.transactions));
        let validator = Arc::clone(&self.validator);
        let policy = self.policy.clone();
        let endorser_keys = Arc::clone(&self.endorser_keys);
        let ingress = Arc::clone(&encoded);
        let pending = self.runner.map_ordered_bg(&transactions, move |i, tx| {
            if duplicate[i] {
                return (Some(ValidationCode::DuplicateTxId), 0);
            }
            // A no-op on every workspace validator (DESIGN.md §4.16).
            validator.prepare(tx);
            // Hashed into the leaf at ingress: no second payload pass.
            let digest = encoded.payload_digest(i);
            let mut sigs = 0u64;
            let mut valid_orgs: Vec<&str> = Vec::new();
            for endorsement in &tx.endorsements {
                sigs += 1;
                let keypair = endorser_keys
                    .get(&endorsement.endorser)
                    .expect("stage 1 derived the key of every endorser in this block");
                if keypair
                    .verify_digest(digest, &endorsement.signature)
                    .is_ok()
                {
                    valid_orgs.push(&endorsement.endorser.org);
                }
            }
            if !policy.is_satisfied_by(&valid_orgs) {
                return (Some(ValidationCode::EndorsementPolicyFailure), sigs);
            }
            (None, sigs)
        });

        // Only a batch on the pool runs during the predecessor's
        // finalize; a deferred one runs at its own join.
        if overlapped && pending.is_pooled() {
            self.stats.blocks_overlapped += 1;
        }

        PreparedBlock {
            block,
            transactions,
            pending: Some((pending, ingress)),
            pre_start,
        }
    }

    /// Joins the in-flight pre-validation of a prepared block.
    fn join_prevalidation(&mut self, prep: PreparedBlock) -> JoinedBlock {
        let PreparedBlock {
            block,
            transactions,
            pending,
            pre_start,
        } = prep;
        let Some((pending, ingress)) = pending else {
            return JoinedBlock {
                block,
                transactions,
                pre: Vec::new(),
                sigs_verified: 0,
                ingress: None,
                pre_validate_secs: 0.0,
            };
        };
        let endorsed = self.runner.join(pending);
        let mut sigs_verified = 0u64;
        let pre: Vec<Option<ValidationCode>> = endorsed
            .into_iter()
            .map(|(code, sigs)| {
                sigs_verified += sigs;
                code
            })
            .collect();
        JoinedBlock {
            block,
            transactions,
            pre,
            sigs_verified,
            ingress: Some(ingress),
            pre_validate_secs: pre_start.elapsed().as_secs_f64(),
        }
    }

    /// The finalize half, one body for every pipeline: the seed
    /// [`BlockValidator::validate_and_commit`] over a clone of the
    /// committed `WorldState` (which shares its tree), then the re-seal.
    fn finalize_joined(&self, joined: JoinedBlock) -> StagedBlock {
        let JoinedBlock {
            mut block,
            transactions,
            pre,
            sigs_verified,
            ingress,
            pre_validate_secs,
        } = joined;
        let Some(ingress) = ingress else {
            block.validation_codes = vec![ValidationCode::TamperedBlock; block.transactions.len()];
            return StagedBlock {
                block: SealedBlock::seal(block, self.chain.tip_hash()),
                new_state: self.state.clone(),
                work: ValidationWork::default(),
                timings: StageTimings::default(),
            };
        };
        let finalize_start = Instant::now();
        block.transactions =
            Arc::try_unwrap(transactions).expect("pre-validation released its clones");
        let mut new_state = self.state.clone();
        let mut work = self
            .validator
            .validate_and_commit(&mut block, &mut new_state, &pre);
        work.sigs_verified = sigs_verified;

        // Re-seal: Algorithm 1 (line 22) rewrote CRDT write values with
        // the merged result, and once one block is re-sealed every later
        // block must re-link to the peer's tip. All peers merge
        // deterministically in block order, so every replica re-seals
        // identically, hashing only what changed since ingress. This is
        // the last pass over the block: `commit` appends it sealed.
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
            Peer::restore_from_snapshot(FabricValidator::new(), original.policy.clone(), &snapshot)
                .unwrap();
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
    fn restore_rejects_corrupt_snapshot() {
        let p = peer();
        let restore = |snapshot: &LedgerSnapshot| {
            Peer::restore_from_snapshot(FabricValidator::new(), p.policy.clone(), snapshot)
        };
        let intact = p.ledger_snapshot();
        assert!(restore(&intact).is_ok());
        let mut corrupt = intact;
        corrupt.state[0] ^= 0xff;
        assert!(restore(&corrupt).is_err());
    }

    #[test]
    fn tampered_block_rejected_wholesale() {
        let mut p = peer();
        let mut block = next_block(&p, vec![tx(1, "k", &["org1", "org2"])]);
        // Tamper with the transaction after the orderer sealed the block.
        block.transactions[0]
            .rwset
            .writes
            .put("k", b"evil".to_vec());
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

    /// The contract that replaces a separate intra-block-parallel
    /// mode: a `Pipelined` peer driven only by `process_block` joins
    /// every batch at once, so it ends byte-identical to `Sequential`
    /// and overlaps nothing.
    #[test]
    fn pipelined_peer_driven_by_process_block_matches_sequential_without_overlap() {
        // Mixed blocks: a hot key, disjoint keys, an in-block and a
        // cross-block duplicate and a policy failure — pre-decided codes
        // from the fan-out meeting Algorithm 1's pass.
        let dup = tx(1, "a", &["org1", "org2"]);
        let streams = vec![
            vec![
                dup.clone(),
                tx(2, "hot", &["org1", "org2"]),
                tx(3, "hot", &["org1", "org2"]),
                dup.clone(),
                tx(4, "b", &["org1"]),
                tx(5, "c", &["org1", "org2"]),
            ],
            vec![
                tx(6, "hot", &["org1", "org2"]),
                dup,
                tx(7, "d", &["org1", "org2"]),
            ],
        ];
        let mut seq = peer();
        let mut pip = peer().with_pipeline(ValidationPipeline::pipelined(4));
        assert_eq!(pip.pipeline(), ValidationPipeline::pipelined(4));
        for p in [&mut seq, &mut pip] {
            p.seed_state("hot", b"seed".to_vec());
        }
        for txs in streams {
            let block = next_block(&seq, txs);
            let staged_seq = seq.process_block(block.clone());
            let staged_pip = pip.process_block(block);
            assert_eq!(
                staged_pip.block.validation_codes,
                staged_seq.block.validation_codes
            );
            assert_eq!(
                staged_pip.block.header.data_hash,
                staged_seq.block.header.data_hash
            );
            assert_eq!(staged_pip.new_state, staged_seq.new_state);
            assert_eq!(staged_pip.work, staged_seq.work);
            seq.commit(staged_seq).unwrap();
            pip.commit(staged_pip).unwrap();
        }
        assert_eq!(seq.snapshot(), pip.snapshot(), "byte-identical ledgers");
        assert_eq!(
            pip.take_pipeline_metrics(),
            PipelineMetrics::default(),
            "process_block never overlaps blocks"
        );
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

    #[test]
    fn pipelined_chaining_matches_sequential() {
        // Drive the prevalidate / finish_block_with_next chain over a
        // stream with duplicates, policy failures and a hot-key chain;
        // the sequential replica processes the same stream one block at
        // a time. Ledgers must come out byte-identical.
        let dup = tx(1, "a", &["org1", "org2"]);
        let blocks: Vec<Vec<Transaction>> = vec![
            vec![dup.clone(), tx(2, "hot", &["org1", "org2"])],
            vec![tx(3, "hot", &["org1", "org2"]), tx(4, "b", &["org1"])],
            vec![dup, tx(5, "c", &["org1", "org2"])],
        ];
        let mut seq = peer();
        let mut pip = peer().with_pipeline(ValidationPipeline::pipelined(4));
        for p in [&mut seq, &mut pip] {
            p.seed_state("hot", b"seed".to_vec());
        }

        // Sequential reference.
        for txs in &blocks {
            let block = next_block(&seq, txs.clone());
            let staged = seq.process_block(block);
            seq.commit(staged).unwrap();
        }

        // Pipelined: block N+1 is prepared while block N finalizes.
        // Blocks are numbered up front (as an orderer would emit them);
        // the finish-time re-seal links each to the committed tip.
        let mut prep = pip.prevalidate(next_block(&pip, blocks[0].clone()));
        for (n, txs) in blocks.iter().enumerate().skip(1) {
            let block = Block::assemble((n + 1) as u64, [0; 32], txs.clone());
            let (staged, next_prep) = pip.finish_block_with_next(prep, block);
            pip.commit(staged).unwrap();
            prep = next_prep;
        }
        let staged = pip.finish_block(prep);
        pip.commit(staged).unwrap();

        assert_eq!(seq.snapshot(), pip.snapshot(), "byte-identical ledgers");
        let stats = pip.take_pipeline_metrics();
        assert_eq!(stats.blocks_overlapped, 2 * u64::from(has_pool()));
    }

    /// Whether a `pipelined(2..)` runner spawns its pool on this host;
    /// without one, no pre-validation runs ahead of its own join.
    fn has_pool() -> bool {
        std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
    }

    #[test]
    fn overlapped_prevalidation_sees_in_flight_duplicates() {
        // A transaction repeated in the very next block must be flagged
        // DuplicateTxId even though its first copy has not committed
        // when the second block's pre-validation starts.
        let dup = tx(1, "a", &["org1", "org2"]);
        let mut p = peer().with_pipeline(ValidationPipeline::pipelined(2));
        let prep = p.prevalidate(next_block(&p, vec![dup.clone()]));
        let b2 = Block::assemble(2, [0; 32], vec![dup, tx(2, "b", &["org1", "org2"])]);
        let (staged1, prep2) = p.finish_block_with_next(prep, b2);
        p.commit(staged1).unwrap();
        let staged2 = p.finish_block(prep2);
        assert_eq!(
            staged2.block.validation_codes,
            vec![ValidationCode::DuplicateTxId, ValidationCode::Valid]
        );
        p.commit(staged2).unwrap();
    }

    #[test]
    fn overlapped_read_racing_a_commit_is_caught_at_finalize() {
        // Directed race: block 1 writes "k"; block 2 reads "k" at the
        // seeded version. Block 2's pre-validation starts before
        // block 1 commits (when the read still looks fresh); the MVCC
        // check at finalize — after block 1 committed — must flag the
        // conflict, exactly as the sequential path does. Block 2 holds
        // two transactions, so its batch goes to the pool (a one-item
        // batch runs at its own join).
        let write = tx(1, "k", &["org1", "org2"]);
        let read = reading_tx(2, "other", "k", Some(Height::genesis()), &["org1", "org2"]);
        let blind = tx(3, "z", &["org1", "org2"]);
        let codes = vec![ValidationCode::MvccConflict, ValidationCode::Valid];

        let mut seq = peer();
        let mut pip = peer().with_pipeline(ValidationPipeline::pipelined(4));
        for p in [&mut seq, &mut pip] {
            p.seed_state("k", b"seed".to_vec());
        }

        let s1 = seq.process_block(next_block(&seq, vec![write.clone()]));
        seq.commit(s1).unwrap();
        let s2 = seq.process_block(next_block(&seq, vec![read.clone(), blind.clone()]));
        assert_eq!(s2.block.validation_codes, codes);
        seq.commit(s2).unwrap();

        let prep1 = pip.prevalidate(next_block(&pip, vec![write]));
        let b2 = Block::assemble(2, [0; 32], vec![read, blind]);
        let (staged1, prep2) = pip.finish_block_with_next(prep1, b2);
        pip.commit(staged1).unwrap();
        let staged2 = pip.finish_block(prep2);
        assert_eq!(staged2.block.validation_codes, codes);
        pip.commit(staged2).unwrap();

        assert_eq!(seq.snapshot(), pip.snapshot(), "byte-identical ledgers");
        let stats = pip.take_pipeline_metrics();
        assert_eq!(stats.blocks_overlapped, u64::from(has_pool()));
    }

    /// A `pipelined(1)` peer has no pool: the chained driver defers
    /// every pre-validation to its own join, and counts no overlap.
    #[test]
    fn single_worker_chaining_overlaps_nothing() {
        let blocks = [
            vec![tx(1, "a", &["org1", "org2"]), tx(2, "b", &["org1", "org2"])],
            vec![tx(3, "a", &["org1", "org2"]), tx(4, "c", &["org1", "org2"])],
        ];
        let mut p = peer().with_pipeline(ValidationPipeline::pipelined(1));
        let prep = p.prevalidate(next_block(&p, blocks[0].clone()));
        let b2 = Block::assemble(2, [0; 32], blocks[1].clone());
        let (staged1, prep2) = p.finish_block_with_next(prep, b2);
        p.commit(staged1).unwrap();
        let staged2 = p.finish_block(prep2);
        p.commit(staged2).unwrap();
        assert_eq!(p.take_pipeline_metrics(), PipelineMetrics::default());
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
