//! Byzantine block forgery and the gossip ingress screen that detects
//! it.
//!
//! A [`LaneAdversary`] lives inside one channel lane (see
//! [`crate::network`]) and plays both sides of the threat model:
//!
//! - **Injection**: when the lane publishes the canonical block at an
//!   attacked height, the adversary forges divergent variants
//!   ([`TamperMode`]) and schedules their delivery to the configured
//!   victims — spoofing either a compromised relay peer or the
//!   ordering service itself. Forgeries are pure functions of the
//!   canonical block and the victim index, so an adversarial run stays
//!   reproducible and draws nothing from the lane's PRNG stream.
//! - **Screening**: every raw-block ingress first passes the screen.
//!   A block whose Merkle data hash does not cover its transactions is
//!   rejected as tampered; a well-formed block whose header digest
//!   diverges from the canonical digest registered at publish time is
//!   rejected as forged, and each distinct divergent digest per height
//!   is recorded as equivocation evidence. Either way the named relay
//!   is quarantined: its future pushes are dropped at ingress.
//!   Liveness survives quarantine because anti-entropy transfers and
//!   orderer re-requests (which ship committed or canonical blocks)
//!   bypass the push path.
//! - **Probation release**: quarantine is not a life sentence. A
//!   quarantined relay that serves [`PROBATION_ROUNDS`] consecutive
//!   gossip rounds (one per block the lane publishes) without a fresh
//!   detection is released and its pushes count again — an honest peer
//!   that was spoofed *once* (the attacker named it as `via`) recovers
//!   instead of being cut out of dissemination for the rest of the run,
//!   while a genuinely hostile relay re-offends on its next forged push
//!   and restarts its sentence from zero. The release decision reads
//!   only the per-relay clean-round counter advanced by
//!   [`LaneAdversary::end_round`]; it never touches the lane's PRNG
//!   stream, so probation changes zero random draws.
//!
//! With no adversary configured the screen does not exist and the lane
//! behaves byte-for-byte as before.

use std::collections::{BTreeMap, BTreeSet};

use fabriccrdt_crypto::Digest;
use fabriccrdt_fabric::config::{AdversaryConfig, TamperMode};
use fabriccrdt_fabric::metrics::AdversaryMetrics;
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::transaction::Transaction;
use fabriccrdt_sim::time::SimTime;

/// Clean gossip rounds (published blocks) a quarantined relay serves
/// before it is released on probation.
pub(crate) const PROBATION_ROUNDS: u64 = 4;

/// One attack resolved to a lane's member positions (victims outside
/// the member set are dropped at construction).
struct LaneAttack {
    height: u64,
    mode: TamperMode,
    /// Victim member positions.
    victims: Vec<usize>,
    /// Spoofed relay member position; `None` masquerades as the
    /// ordering service.
    via: Option<usize>,
    delay: SimTime,
}

/// A forged delivery to schedule: `(delay past the orderer hop, victim
/// member position, spoofed sender, forged block)`.
pub(crate) type Injection = (SimTime, usize, Option<usize>, Block);

/// Per-lane adversary state: the resolved attack schedule, the
/// canonical digest registry, equivocation evidence, the quarantine
/// set and detection counters.
pub(crate) struct LaneAdversary {
    attacks: Vec<LaneAttack>,
    /// Canonical header digest per published height.
    canonical: BTreeMap<u64, Digest>,
    /// Distinct divergent digests observed per height.
    evidence: BTreeSet<(u64, Digest)>,
    /// Quarantined member positions, each mapped to the number of
    /// consecutive clean gossip rounds served so far.
    quarantined: BTreeMap<usize, u64>,
    metrics: AdversaryMetrics,
}

impl LaneAdversary {
    /// Resolves a schedule against one lane's sorted member set.
    /// Victims and relays that are not members are dropped (the attack
    /// cannot reach them on this channel).
    pub(crate) fn new(config: &AdversaryConfig, members: &[usize]) -> Self {
        let attacks = config
            .attacks
            .iter()
            .map(|attack| LaneAttack {
                height: attack.height,
                mode: attack.mode,
                victims: attack
                    .victims
                    .iter()
                    .filter_map(|v| members.binary_search(v).ok())
                    .collect(),
                via: attack.via.and_then(|v| members.binary_search(&v).ok()),
                delay: attack.delay,
            })
            .collect();
        LaneAdversary {
            attacks,
            canonical: BTreeMap::new(),
            evidence: BTreeSet::new(),
            quarantined: BTreeMap::new(),
            metrics: AdversaryMetrics::default(),
        }
    }

    /// Registers the canonical digest of a freshly published block and
    /// returns the forged deliveries to schedule for it. No-op
    /// forgeries (a mode that cannot alter this particular block, e.g.
    /// reordering a 1-transaction block) are skipped, so every counted
    /// injection is genuinely divergent.
    pub(crate) fn injections_for(&mut self, block: &Block) -> Vec<Injection> {
        let number = block.header.number;
        self.canonical.insert(number, block.hash());
        let mut injections = Vec::new();
        for attack in self.attacks.iter().filter(|a| a.height == number) {
            for &victim in &attack.victims {
                let forged = forge(attack.mode, block, victim as u64);
                if forged == *block {
                    continue;
                }
                self.metrics.forged_blocks_injected += 1;
                injections.push((attack.delay, victim, attack.via, forged));
            }
        }
        injections
    }

    /// The ingress screen: whether a raw block pushed by `from` may
    /// enter the replica. Rejections count, collect equivocation
    /// evidence, and quarantine the relay.
    pub(crate) fn admit(&mut self, from: Option<usize>, block: &Block) -> bool {
        if let Some(relay) = from {
            if self.quarantined.contains_key(&relay) {
                self.metrics.quarantine_drops += 1;
                return false;
            }
        }
        if !block.data_hash_is_valid() {
            self.metrics.tampered_rejected += 1;
            self.quarantine(from);
            return false;
        }
        if let Some(&canonical) = self.canonical.get(&block.header.number) {
            let digest = block.hash();
            if digest != canonical {
                self.metrics.forged_rejected += 1;
                if self.evidence.insert((block.header.number, digest)) {
                    self.metrics.equivocations_detected += 1;
                }
                self.quarantine(from);
                return false;
            }
        }
        true
    }

    fn quarantine(&mut self, from: Option<usize>) {
        if let Some(relay) = from {
            // (Re-)insertion zeroes the clean-round counter, so a
            // repeat offender restarts its probation from scratch.
            self.quarantined.insert(relay, 0);
        }
    }

    /// Advances every quarantined relay's probation clock by one clean
    /// gossip round and releases those that have served
    /// [`PROBATION_ROUNDS`] of them. Called once per lane round (at
    /// each block publish, before new forgeries are registered); reads
    /// only counters — no PRNG draws — so probation leaves the lane's
    /// random stream untouched.
    pub(crate) fn end_round(&mut self) {
        let released: Vec<usize> = self
            .quarantined
            .iter_mut()
            .filter_map(|(&relay, clean_rounds)| {
                *clean_rounds += 1;
                (*clean_rounds >= PROBATION_ROUNDS).then_some(relay)
            })
            .collect();
        for relay in released {
            self.quarantined.remove(&relay);
            self.metrics.quarantine_releases += 1;
        }
    }

    /// Takes (and resets) the detection counters; the digest registry,
    /// evidence and quarantine set persist across takes.
    pub(crate) fn take_metrics(&mut self) -> AdversaryMetrics {
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.quarantined_peers = self.quarantined.len() as u64;
        metrics
    }
}

/// Forges a divergent variant of the canonical block. `salt` (the
/// victim position) varies the forged content, so one equivocating
/// publish yields *different* well-formed blocks at the same height
/// for different victims. Deterministic: no PRNG involved.
fn forge(mode: TamperMode, block: &Block, salt: u64) -> Block {
    // Odd and injective in the victim index (mod 256), so distinct
    // victims get distinct forgeries and the flip is never a no-op.
    let poison = (salt as u8).wrapping_mul(2) | 1;
    match mode {
        TamperMode::FlipPayloadByte => tampered(block, |txs| {
            if let Some(tx) = txs.first_mut() {
                tx.id.0[0] ^= poison;
            }
        }),
        TamperMode::DuplicateTx => tampered(block, |txs| {
            if let Some(tx) = txs.first().cloned() {
                txs.push(tx);
            }
        }),
        TamperMode::ReorderTxs => tampered(block, |txs| txs.reverse()),
        TamperMode::ForgeTipHash => forge_previous_hash(block, poison),
        TamperMode::EquivocateValue => {
            if block.transactions.is_empty() {
                // An empty block has no value to equivocate on; the
                // orderer diverges on the chain linkage instead.
                return forge_previous_hash(block, poison);
            }
            let mut transactions = block.transactions.to_vec();
            transactions[0].id.0[0] ^= poison;
            // Re-sealed: the forged payload carries a *valid* data
            // hash, detectable only against the canonical digest.
            Block::assemble(
                block.header.number,
                block.header.previous_hash,
                transactions,
            )
        }
    }
}

/// `block` under its own header with its transactions copied out and
/// edited, so the data hash no longer covers them: the orderer's list is
/// shared by every honest copy and is never written.
fn tampered(block: &Block, edit: impl FnOnce(&mut Vec<Transaction>)) -> Block {
    let mut transactions = block.transactions.to_vec();
    edit(&mut transactions);
    let mut forged = block.clone();
    forged.transactions = transactions.into();
    forged
}

/// Re-links the block to a salted previous-block hash — a splice onto
/// a fork that never existed. Its data and record hashes still cover
/// what it holds: the orderer's list, shared.
fn forge_previous_hash(block: &Block, poison: u8) -> Block {
    let mut forged = block.clone();
    forged.header.previous_hash[0] ^= poison;
    forged
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_fabric::config::AttackSpec;
    use fabriccrdt_ledger::transaction::{Transaction, TxId};

    fn tx(n: u8) -> Transaction {
        Transaction {
            id: TxId([n; 32]),
            client: fabriccrdt_crypto::Identity::new("client", "org1"),
            chaincode: "cc".into(),
            rwset: Default::default(),
            endorsements: Vec::new(),
        }
    }

    fn block(number: u64, txs: Vec<Transaction>) -> Block {
        Block::assemble(number, [7; 32], txs)
    }

    fn schedule(mode: TamperMode) -> AdversaryConfig {
        AdversaryConfig {
            attacks: vec![AttackSpec {
                height: 1,
                mode,
                victims: vec![3, 5],
                via: Some(1),
                delay: SimTime::from_millis(2),
            }],
        }
    }

    #[test]
    fn unsealed_tampering_breaks_the_data_hash() {
        let canonical = block(1, vec![tx(1), tx(2)]);
        for mode in [
            TamperMode::FlipPayloadByte,
            TamperMode::DuplicateTx,
            TamperMode::ReorderTxs,
        ] {
            let forged = forge(mode, &canonical, 3);
            assert!(
                !forged.data_hash_is_valid(),
                "{mode:?} must leave the stale data hash exposed"
            );
        }
    }

    #[test]
    fn resealed_forgeries_are_internally_consistent_but_divergent() {
        let canonical = block(1, vec![tx(1)]);
        for mode in [TamperMode::ForgeTipHash, TamperMode::EquivocateValue] {
            let forged = forge(mode, &canonical, 3);
            assert!(forged.data_hash_is_valid(), "{mode:?} re-seals");
            assert_ne!(forged.hash(), canonical.hash(), "{mode:?} diverges");
        }
        // Different victims receive *different* equivocation payloads.
        let a = forge(TamperMode::EquivocateValue, &canonical, 3);
        let b = forge(TamperMode::EquivocateValue, &canonical, 5);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn screen_rejects_counts_and_quarantines() {
        let members = [0, 1, 3, 5];
        let mut adv = LaneAdversary::new(&schedule(TamperMode::EquivocateValue), &members);
        let canonical = block(1, vec![tx(1)]);
        let injections = adv.injections_for(&canonical);
        // Victims 3 and 5 are member positions 2 and 3.
        assert_eq!(injections.len(), 2);
        assert_eq!(injections[0].1, 2);
        assert_eq!(injections[1].1, 3);
        assert_eq!(injections[0].2, Some(1), "spoofed relay resolved");

        // The canonical block passes everywhere.
        assert!(adv.admit(None, &canonical));
        assert!(adv.admit(Some(0), &canonical));
        // Both forged variants are rejected; each distinct digest is
        // one piece of equivocation evidence, a re-delivery is not.
        assert!(!adv.admit(None, &injections[0].3));
        assert!(!adv.admit(None, &injections[1].3));
        assert!(!adv.admit(None, &injections[1].3));
        // A tampered block is caught by the data hash alone.
        let tampered = forge(TamperMode::FlipPayloadByte, &canonical, 1);
        assert!(!adv.admit(Some(1), &tampered));
        // The quarantined relay's later honest push is dropped too.
        assert!(!adv.admit(Some(1), &canonical));

        let metrics = adv.take_metrics();
        assert_eq!(metrics.forged_blocks_injected, 2);
        assert_eq!(metrics.forged_rejected, 3);
        assert_eq!(metrics.equivocations_detected, 2);
        assert_eq!(metrics.tampered_rejected, 1);
        assert_eq!(metrics.quarantined_peers, 1);
        assert_eq!(metrics.quarantine_drops, 1);
        assert_eq!(metrics.rejected_blocks(), 4);
        // Counters reset on take; the quarantine set persists.
        let again = adv.take_metrics();
        assert_eq!(again.forged_rejected, 0);
        assert_eq!(again.quarantined_peers, 1);
    }

    #[test]
    fn probation_releases_a_spoofed_relay_after_clean_rounds() {
        let members = [0, 1, 3, 5];
        let config = schedule(TamperMode::FlipPayloadByte);
        let mut adv = LaneAdversary::new(&config, &members);
        let canonical = block(1, vec![tx(1), tx(2)]);
        adv.injections_for(&canonical);

        // Relay 1 is honest but spoofed once: a tampered block arrives
        // "from" it and it lands in quarantine.
        let tampered = forge(TamperMode::FlipPayloadByte, &canonical, 1);
        assert!(!adv.admit(Some(1), &tampered));
        assert!(!adv.admit(Some(1), &canonical), "quarantined push drops");
        assert_eq!(adv.take_metrics().quarantine_drops, 1);

        // Fewer clean rounds than the probation term: still quarantined.
        for _ in 1..PROBATION_ROUNDS {
            adv.end_round();
        }
        assert!(!adv.admit(Some(1), &canonical));
        let mid = adv.take_metrics();
        assert_eq!(mid.quarantine_drops, 1);
        assert_eq!(mid.quarantine_releases, 0);
        assert_eq!(mid.quarantined_peers, 1);

        // The final clean round releases it; its pushes count again
        // and quarantine_drops stops growing.
        adv.end_round();
        assert!(adv.admit(Some(1), &canonical), "released relay readmitted");
        let released = adv.take_metrics();
        assert_eq!(released.quarantine_drops, 0);
        assert_eq!(released.quarantine_releases, 1);
        assert_eq!(released.quarantined_peers, 0);

        // A repeat offense restarts the sentence from zero.
        assert!(!adv.admit(Some(1), &tampered));
        adv.end_round();
        assert!(!adv.admit(Some(1), &canonical), "one round is not enough");
        assert_eq!(adv.take_metrics().quarantined_peers, 1);
    }

    #[test]
    fn noop_forgeries_are_not_injected() {
        // An empty block cannot be tampered by flipping or reordering.
        let mut adv = LaneAdversary::new(&schedule(TamperMode::ReorderTxs), &[0, 1, 3, 5]);
        assert!(adv.injections_for(&block(1, Vec::new())).is_empty());
        // But an equivocating orderer always finds a divergent header.
        let mut adv = LaneAdversary::new(&schedule(TamperMode::EquivocateValue), &[0, 1, 3, 5]);
        assert_eq!(adv.injections_for(&block(1, Vec::new())).len(), 2);
    }

    #[test]
    fn off_channel_victims_are_unreachable() {
        // Victims 3 and 5 are not members here; the attack fizzles.
        let mut adv = LaneAdversary::new(&schedule(TamperMode::EquivocateValue), &[0, 1]);
        assert!(adv.injections_for(&block(1, vec![tx(1)])).is_empty());
        assert_eq!(adv.take_metrics().forged_blocks_injected, 0);
    }
}
