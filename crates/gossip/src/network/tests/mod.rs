//! Who holds a sealed block, observed through its reference count.

use super::*;

mod store_faults;

use fabriccrdt::CrdtValidator;
use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::config::{AdversaryConfig, AttackSpec, TamperMode};
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_ledger::block::ValidationCode;
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use std::sync::atomic::{AtomicU64, Ordering};

const TXS: usize = 25;

/// An orderer-sealed block of 25 fully endorsed CRDT transactions
/// on one hot key: every replica merges it and seals a record of its own.
fn sealed_block(number: u64) -> Block {
    hot_block(number, TXS)
}

/// An orderer-sealed block of `count` fully endorsed CRDT
/// transactions on the hot key, each with a nonce of its own for a
/// fixed `count`.
fn hot_block(number: u64, count: usize) -> Block {
    let client = Identity::new("client", "org1");
    let txs = (0..count as u64)
        .map(|i| {
            let nonce = number * count as u64 + i;
            let mut rwset = ReadWriteSet::new();
            rwset.reads.record("hot", Some(Height::new(0, 0)));
            rwset.writes.put_crdt(
                "hot",
                format!(r#"{{"readings":["r{nonce}"]}}"#).into_bytes(),
            );
            let mut tx = Transaction {
                id: TxId::derive(&client, nonce, "cc"),
                client: client.clone(),
                chaincode: "cc".into(),
                rwset,
                endorsements: Vec::new(),
            };
            let payload = tx.response_payload();
            for org in ["org1", "org2", "org3"] {
                let endorser = KeyPair::derive(Identity::new("peer0", org));
                tx.endorsements.push(Endorsement {
                    endorser: endorser.identity().clone(),
                    signature: endorser.sign(&payload),
                });
            }
            tx
        })
        .collect();
    Block::assemble(number, [0; 32], txs)
}

/// The hot key's document before any block.
const SEED_DOC: &[u8] = br#"{"readings":[]}"#;

fn network(config: &PipelineConfig) -> GossipNetwork<CrdtValidator> {
    let mut network = GossipNetwork::new(config, CrdtValidator::new);
    network.seed_state("hot", SEED_DOC);
    network
}

fn pop(network: &mut GossipNetwork<CrdtValidator>) -> Option<(SimTime, EventKind)> {
    network.lane.queue.pop()
}

fn handle(network: &mut GossipNetwork<CrdtValidator>, now: SimTime, event: EventKind) {
    let lane = &mut network.lane;
    lane.clock = now;
    lane.handle(&network.shared, now, event);
}

/// The gap buffer of the replica at member position `i`, which is up.
fn buffer<V: BlockValidator>(network: &GossipNetwork<V>, i: usize) -> &BTreeMap<u64, Sealed> {
    &network.lane.slots[i]
        .live
        .as_ref()
        .expect("replica is up")
        .buffer
}

/// References to published block `number`'s allocation.
fn holders(network: &GossipNetwork<CrdtValidator>, number: u64) -> usize {
    Arc::strong_count(&network.lane.published[number as usize - 1].1)
}

/// Who the lane's own bookkeeping says holds block 1 when it is the
/// only block published and no fault is scheduled: the `published`
/// log, every queued event that is not an anti-entropy tick (a
/// raw-block delivery in flight), and every replica buffering it.
fn accounted_holders(network: &GossipNetwork<CrdtValidator>) -> usize {
    let lane = &network.lane;
    let ticks: usize = lane.slots.iter().map(|s| s.ticks_pending as usize).sum();
    let buffering = lane
        .slots
        .iter()
        .filter(|s| s.live.as_ref().is_some_and(|l| l.buffer.contains_key(&1)))
        .count();
    1 + (lane.queue.len() - ticks) + buffering
}

/// Every replica committed its own block 1 — the orderer's transaction
/// list itself under the orderer's data hash, and a sealed commit
/// record of its own — and the published block still carries an empty
/// record: no replica's record leaked into the allocation its peers
/// receive.
fn assert_replicas_own_their_records(network: &GossipNetwork<CrdtValidator>) {
    let lane = &network.lane;
    let sealed = &lane.published[0].1;
    assert!(sealed.data_hash_is_valid());
    assert!(sealed.validation_codes.is_empty());
    assert_eq!(sealed.converged_values().count(), 0);
    for (i, slot) in lane.slots.iter().enumerate() {
        let chain = slot.live.as_ref().expect("replica is up").peer.chain();
        let committed = chain.block(1).expect("block 1 committed");
        assert_eq!(committed.validation_codes.len(), TXS, "replica {i}");
        assert!(
            committed.transactions.shares(&sealed.transactions),
            "replica {i}"
        );
        assert_eq!(committed.header.data_hash, sealed.header.data_hash);
        assert_eq!(committed.converged_values().count(), 1, "replica {i}");
        assert_ne!(
            committed.header.record_hash, sealed.header.record_hash,
            "replica {i} sealed its record"
        );
    }
}

#[test]
fn a_sealed_block_is_one_allocation_every_replica_clones_once() {
    let config = PipelineConfig::paper(TXS, 7).with_gossip();
    let leaders = config.topology.orgs;
    let mut network = network(&config);
    network.publish(SimTime::from_millis(100), sealed_block(1));
    assert_eq!(network.lane.slots.len(), 6);

    // Before any event runs: the log and one delivery per org leader.
    assert_eq!(holders(&network, 1), 1 + leaders);
    assert_eq!(accounted_holders(&network), 1 + leaders);

    // One delivery. Its reference moves into the leader's buffer and
    // is released when the leader commits its own clone; `FANOUT`
    // pushes of the same pointer are scheduled.
    let (now, event) = pop(&mut network).expect("a leader delivery");
    assert!(matches!(event, EventKind::RawBlock { from: None, .. }));
    handle(&mut network, now, event);
    assert_eq!(network.lane.committed(0), 1);
    assert_eq!(holders(&network, 1), 1 + (leaders - 1) + FANOUT);

    // Through the rest of the run the count is exactly what the
    // lane can account for — a deep copy on any hop would leave it
    // short, a leaked reference long.
    assert_eq!(holders(&network, 1), accounted_holders(&network));
    while let Some((now, event)) = pop(&mut network) {
        handle(&mut network, now, event);
        assert_eq!(holders(&network, 1), accounted_holders(&network));
    }
    assert_eq!(holders(&network, 1), 1, "nobody kept a reference");
    assert!(network.fully_converged());
    assert_replicas_own_their_records(&network);
}

#[test]
fn a_gap_buffered_block_holds_one_reference_until_it_commits() {
    let config = PipelineConfig::paper(TXS, 7).with_gossip();
    let mut network = network(&config);
    network.publish(SimTime::from_millis(100), sealed_block(1));
    network.publish(SimTime::from_millis(101), sealed_block(2));

    // Block 2 reaches replica 5 before block 1 does (an orderer
    // re-request would deliver exactly this): it can only be
    // buffered and pushed on.
    let before = holders(&network, 2);
    let block = Arc::clone(&network.lane.published[1].1);
    let lane = &mut network.lane;
    assert!(lane
        .raw_block(&network.shared, SimTime::from_millis(101), 5, None, block)
        .is_ok());
    assert!(buffer(&network, 5).contains_key(&2));
    assert_eq!(network.lane.committed(5), 0);
    assert_eq!(holders(&network, 2), before + 1 + FANOUT);

    network.drain();
    assert!(network.fully_converged());
    assert_eq!(network.lane.committed(5), 2);
    assert_eq!((holders(&network, 1), holders(&network, 2)), (1, 1));
}

#[test]
fn a_forged_injection_never_aliases_the_sealed_allocation() {
    let attack = |mode, victims: &[usize], via| AttackSpec {
        height: 1,
        mode,
        victims: victims.to_vec(),
        via,
        delay: SimTime::from_micros(100),
    };
    let config = PipelineConfig::paper(TXS, 7)
        .with_gossip()
        .with_adversary(AdversaryConfig {
            attacks: vec![
                attack(TamperMode::FlipPayloadByte, &[3], Some(1)),
                attack(TamperMode::EquivocateValue, &[2, 5], None),
            ],
        });
    let mut network = network(&config);
    let canonical = sealed_block(1);
    network.publish(SimTime::from_millis(100), canonical.clone());

    let mut forged_seen = 0;
    while let Some((now, event)) = pop(&mut network) {
        if let EventKind::RawBlock { to, block, .. } = &event {
            let sealed = &network.lane.published[0].1;
            if **block != canonical {
                // Forged from the sealed block, but its own allocation;
                // the replica never buffers it.
                assert!(!Arc::ptr_eq(block, sealed));
                forged_seen += 1;
                let (to, before) = (*to, network.lane.committed(*to));
                handle(&mut network, now, event);
                assert!(buffer(&network, to).is_empty());
                assert_eq!(network.lane.committed(to), before);
                continue;
            }
            assert!(Arc::ptr_eq(block, sealed), "honest hops share");
        }
        handle(&mut network, now, event);
    }
    assert_eq!(forged_seen, 3);
    let screen = network.take_adversary().expect("adversary configured");
    assert_eq!(screen.forged_blocks_injected, 3);
    assert_eq!(screen.rejected_blocks(), 3);

    // Forging read the sealed block and left it as the orderer cut it.
    assert_eq!(*network.lane.published[0].1, canonical);
    assert_eq!(holders(&network, 1), 1);
    assert!(network.fully_converged());
    assert_replicas_own_their_records(&network);
}

/// FabricCRDT's validator, counting across every replica it is cloned
/// into the blocks Algorithm 1 runs on and the signatures the peer
/// checks: `prepare` runs once per transaction that is not a duplicate,
/// right before each of its endorsements is verified.
/// The counts are statistics that publish no other data, hence
/// `Relaxed`.
#[derive(Clone, Default)]
struct Counting {
    blocks: Arc<AtomicU64>,
    signatures: Arc<AtomicU64>,
}

impl BlockValidator for Counting {
    fn validate_and_commit(
        &self,
        block: &mut Block,
        state: &mut WorldState,
        pre_decided: &[Option<ValidationCode>],
    ) -> ValidationWork {
        self.blocks.fetch_add(1, Ordering::Relaxed);
        CrdtValidator.validate_and_commit(block, state, pre_decided)
    }

    fn prepare(&self, tx: &Transaction) {
        let endorsements = tx.endorsements.len() as u64;
        self.signatures.fetch_add(endorsements, Ordering::Relaxed);
    }

    fn name(&self) -> &str {
        "counting"
    }
}

#[test]
fn a_redundant_delivery_is_counted_and_dropped_before_any_validation() {
    let config = PipelineConfig::paper(TXS, 7).with_gossip();
    let counting = Counting::default();
    let make = {
        let counting = counting.clone();
        move || counting.clone()
    };
    let mut network = GossipNetwork::new(&config, make);
    network.seed_state("hot", SEED_DOC);
    network.publish(SimTime::from_millis(100), sealed_block(1));
    network.drain();
    assert!(network.fully_converged());
    let replicas = network.lane.slots.len() as u64;
    let work = || {
        (
            counting.blocks.load(Ordering::Relaxed),
            counting.signatures.load(Ordering::Relaxed),
        )
    };
    assert_eq!(work(), (replicas, replicas * TXS as u64 * 3));
    let metrics = network.metrics().clone();

    // Replica 0 pushes block 1 to replica 5 once more.
    let block = Arc::clone(&network.lane.published[0].1);
    let lane = &mut network.lane;
    let now = lane.clock;
    assert!(lane
        .raw_block(&network.shared, now, 5, Some(0), block)
        .is_ok());

    let after = network.metrics();
    assert_eq!(after.redundant_messages, metrics.redundant_messages + 1);
    assert_eq!(after.messages_sent, metrics.messages_sent, "not forwarded");
    assert_eq!(
        work(),
        (replicas, replicas * TXS as u64 * 3),
        "not validated"
    );
    assert_eq!(network.lane.committed(5), 1);
    assert!(buffer(&network, 5).is_empty());
    assert!(network.lane.queue.is_empty(), "nothing scheduled");
}
