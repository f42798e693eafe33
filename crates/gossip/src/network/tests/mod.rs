//! Who holds a sealed block, observed through its reference count.

use super::*;
use fabriccrdt::CrdtValidator;
use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::config::{AdversaryConfig, AttackSpec, TamperMode};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;

const TXS: usize = 25;

/// An orderer-sealed block of 25 fully endorsed CRDT transactions
/// on one hot key: every replica merges, rewrites and re-seals it.
fn sealed_block(number: u64) -> Block {
    let client = Identity::new("client", "org1");
    let txs = (0..TXS as u64)
        .map(|i| {
            let nonce = number * TXS as u64 + i;
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

fn network(config: &PipelineConfig) -> GossipNetwork<CrdtValidator> {
    let mut network = GossipNetwork::new(config, CrdtValidator::new);
    network.seed_state_on(0, "hot", br#"{"readings":[]}"#);
    network
}

fn pop(network: &mut GossipNetwork<CrdtValidator>) -> Option<(SimTime, EventKind)> {
    network.lanes[0].queue.pop()
}

fn handle(network: &mut GossipNetwork<CrdtValidator>, now: SimTime, event: EventKind) {
    let lane = &mut network.lanes[0];
    lane.clock = now;
    lane.handle(&network.shared, network.make_validator.as_ref(), now, event);
}

/// References to published block `number`'s allocation.
fn holders(network: &GossipNetwork<CrdtValidator>, number: u64) -> usize {
    Arc::strong_count(&network.lanes[0].published[number as usize - 1].1)
}

/// Who the lane's own bookkeeping says holds block 1 when it is the
/// only block published and no fault is scheduled: the `published`
/// log, every queued event that is not an anti-entropy tick (a
/// raw-block delivery in flight), and every replica buffering it.
fn accounted_holders(network: &GossipNetwork<CrdtValidator>) -> usize {
    let lane = &network.lanes[0];
    let ticks: usize = lane.slots.iter().map(|s| s.ticks_pending as usize).sum();
    let buffering = lane
        .slots
        .iter()
        .filter(|s| s.buffer.contains_key(&1))
        .count();
    1 + (lane.queue.len() - ticks) + buffering
}

/// Every replica committed its own re-sealed copy of block 1, and
/// the published block still carries the orderer's seal: no
/// replica's rewrite leaked into the allocation its peers receive.
fn assert_replicas_own_their_rewrites(network: &GossipNetwork<CrdtValidator>) {
    let lane = &network.lanes[0];
    let sealed = &lane.published[0].1;
    assert!(sealed.data_hash_is_valid());
    assert!(sealed.validation_codes.is_empty());
    for (i, slot) in lane.slots.iter().enumerate() {
        let chain = slot.peer.as_ref().expect("replica is up").chain();
        let committed = chain.block(1).expect("block 1 committed");
        assert_eq!(committed.validation_codes.len(), TXS, "replica {i}");
        assert_ne!(
            committed.header.data_hash, sealed.header.data_hash,
            "replica {i} re-sealed over its merged writes"
        );
    }
}

#[test]
fn a_sealed_block_is_one_allocation_every_replica_copies_out_of_once() {
    let config = PipelineConfig::paper(TXS, 7).with_gossip();
    let leaders = config.topology.orgs;
    let mut network = network(&config);
    network.publish_on(0, SimTime::from_millis(100), sealed_block(1));
    assert_eq!(network.lanes[0].slots.len(), 6);

    // Before any event runs: the log and one delivery per org leader.
    assert_eq!(holders(&network, 1), 1 + leaders);
    assert_eq!(accounted_holders(&network), 1 + leaders);

    // One delivery. Its reference moves into the leader's buffer and
    // is released when the leader commits its own copy; `FANOUT`
    // pushes of the same pointer are scheduled.
    let (now, event) = pop(&mut network).expect("a leader delivery");
    assert!(matches!(event, EventKind::RawBlock { from: None, .. }));
    handle(&mut network, now, event);
    assert_eq!(network.lanes[0].committed(0), 1);
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
    assert!(network.fully_converged_on(0));
    assert_replicas_own_their_rewrites(&network);
}

#[test]
fn a_gap_buffered_block_holds_one_reference_until_it_commits() {
    let config = PipelineConfig::paper(TXS, 7).with_gossip();
    let mut network = network(&config);
    network.publish_on(0, SimTime::from_millis(100), sealed_block(1));
    network.publish_on(0, SimTime::from_millis(101), sealed_block(2));

    // Block 2 reaches replica 5 before block 1 does (an orderer
    // re-request would deliver exactly this): it can only be
    // buffered and pushed on.
    let before = holders(&network, 2);
    let block = Arc::clone(&network.lanes[0].published[1].1);
    let lane = &mut network.lanes[0];
    lane.raw_block(&network.shared, SimTime::from_millis(101), 5, None, block);
    assert!(network.lanes[0].slots[5].buffer.contains_key(&2));
    assert_eq!(network.lanes[0].committed(5), 0);
    assert_eq!(holders(&network, 2), before + 1 + FANOUT);

    network.drain_on(0);
    assert!(network.fully_converged_on(0));
    assert_eq!(network.lanes[0].committed(5), 2);
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
    network.publish_on(0, SimTime::from_millis(100), canonical.clone());

    let mut forged_seen = 0;
    while let Some((now, event)) = pop(&mut network) {
        if let EventKind::RawBlock { to, block, .. } = &event {
            let sealed = &network.lanes[0].published[0].1;
            if **block != canonical {
                // Forged from the sealed block, but its own allocation;
                // the replica never buffers it.
                assert!(!Arc::ptr_eq(block, sealed));
                forged_seen += 1;
                let (to, before) = (*to, network.lanes[0].committed(*to));
                handle(&mut network, now, event);
                assert!(network.lanes[0].slots[to].buffer.is_empty());
                assert_eq!(network.lanes[0].committed(to), before);
                continue;
            }
            assert!(Arc::ptr_eq(block, sealed), "honest hops share");
        }
        handle(&mut network, now, event);
    }
    assert_eq!(forged_seen, 3);
    let screen = network.take_adversary_on(0).expect("adversary configured");
    assert_eq!(screen.forged_blocks_injected, 3);
    assert_eq!(screen.rejected_blocks(), 3);

    // Forging read the sealed block and left it as the orderer cut it.
    assert_eq!(*network.lanes[0].published[0].1, canonical);
    assert_eq!(holders(&network, 1), 1);
    assert!(network.fully_converged_on(0));
    assert_replicas_own_their_rewrites(&network);
}
