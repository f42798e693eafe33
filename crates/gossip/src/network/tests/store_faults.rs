//! One way down: a replica whose own store fails a call crashes, and the
//! schedule's restart recovers it from that store. And the one pull's
//! tie rule, and the snapshot cadence across one commit batch.

use super::*;
use fabriccrdt_fabric::config::CrashSpec;
use fabriccrdt_ledger::store::{AofStore, LedgerStore, MemoryStore, StoreError, StoredLedger};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Blocks in the stream, and transactions in each.
const BLOCKS: u64 = 10;
const PER_BLOCK: usize = 2;

/// The three fallible [`LedgerStore`] calls, as indices into
/// [`FailingStore::calls`].
const APPEND: usize = 0;
const SNAPSHOT: usize = 1;
const COMPACT: usize = 2;

/// A store that fails its `fail_at`-th fallible call (counting from 1;
/// 0 never fails) without touching `inner`, and passes every other call
/// through. `calls` counts the fallible calls by kind.
struct FailingStore {
    inner: Box<dyn LedgerStore>,
    fail_at: u64,
    calls: Arc<[AtomicU64; 3]>,
}

impl FailingStore {
    fn call(&self, kind: usize) -> Result<(), StoreError> {
        self.calls[kind].fetch_add(1, Ordering::Relaxed);
        let made: u64 = self.calls.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if made == self.fail_at {
            return Err(StoreError::Io {
                op: "injected",
                message: format!("call {made} fails"),
            });
        }
        Ok(())
    }
}

impl LedgerStore for FailingStore {
    fn append_block(&mut self, block: Arc<Block>) -> Result<(), StoreError> {
        self.call(APPEND)?;
        self.inner.append_block(block)
    }

    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError> {
        self.call(SNAPSHOT)?;
        self.inner.put_snapshot(snapshot)
    }

    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        self.call(COMPACT)?;
        self.inner.compact_up_to(block_num)
    }

    fn load(&self) -> StoredLedger {
        self.inner.load()
    }

    fn head(&self) -> (u64, Option<LedgerSnapshot>) {
        self.inner.head()
    }
}

/// What a ledger is compared by: the encoded world state and the tip
/// hash. A replica recovered through a snapshot resumes its chain
/// above genesis, so whole-chain bytes are not compared.
type Ledger = (Vec<u8>, [u8; 32]);

fn ledger(peer: &Peer<CrdtValidator>) -> Ledger {
    (peer.snapshot().state, peer.chain().tip_hash())
}

/// The stream's ledger at every height `0..=BLOCKS`, from one peer
/// committing it in order.
fn reference(policy: &EndorsementPolicy) -> Vec<Ledger> {
    let mut peer = Peer::new(CrdtValidator::new(), policy.clone());
    peer.seed_state("hot".to_string(), SEED_DOC.to_vec());
    let mut ledgers = vec![ledger(&peer)];
    for number in 1..=BLOCKS {
        let staged = peer.process_block(hot_block(number, PER_BLOCK));
        peer.commit(staged).expect("the stream extends the chain");
        ledgers.push(ledger(&peer));
    }
    ledgers
}

/// Three one-peer orgs.
fn topology() -> Topology {
    Topology {
        orgs: 3,
        peers_per_org: 1,
        clients: 4,
    }
}

fn crash(peer: usize, at_ms: u64, restart_ms: u64) -> CrashSpec {
    CrashSpec {
        peer,
        at: SimTime::from_millis(at_ms),
        restart_at: SimTime::from_millis(restart_ms),
    }
}

/// A snapshot every 3 blocks with GC. Replica `faulted` is down from
/// 0.45 s to 1.5 s, so it catches up after the stream, by snapshot;
/// then every replica crashes at 3 s, once all have settled, and
/// restarts at 3.1 s.
fn config(storage: StorageConfig, faulted: usize) -> PipelineConfig {
    let topology = topology();
    let mut crashes = vec![crash(faulted, 450, 1_500)];
    crashes.extend((0..topology.total_peers()).map(|peer| crash(peer, 3_000, 3_100)));
    let mut config = PipelineConfig::paper(PER_BLOCK, 11)
        .with_storage(storage.with_snapshot_interval(3).with_gc(true))
        .with_faults(FaultConfig {
            crashes,
            ..FaultConfig::none()
        });
    config.policy = topology.default_policy();
    config.topology = topology;
    config
}

/// A fresh directory for one run's append-only files.
fn temp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fabriccrdt-store-faults-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs the stream with replica `faulted` on a [`FailingStore`] that
/// fails call `fail_at`, over memory or over an append-only file in
/// `dir`, and drains it. At the fault, the failed store must recover a
/// prefix of `reference`. Returns the drained network and the calls
/// the failing store saw, by kind.
fn run(
    dir: Option<&Path>,
    faulted: usize,
    fail_at: u64,
    reference: &[Ledger],
) -> (GossipNetwork<CrdtValidator>, [u64; 3]) {
    let storage = match dir {
        Some(dir) => StorageConfig::append_only(dir),
        None => StorageConfig::memory(),
    };
    let config = config(storage, faulted);
    let mut network = network(&config);
    let inner: Box<dyn LedgerStore> = match dir {
        Some(dir) => Box::new(AofStore::open(dir.join("failing.aof")).expect("store opens")),
        None => Box::new(MemoryStore::new()),
    };
    let calls = Arc::new([const { AtomicU64::new(0) }; 3]);
    let failing = FailingStore {
        inner,
        fail_at,
        calls: Arc::clone(&calls),
    };
    let storage = config.storage.as_ref().expect("configured");
    network.lane.slots[faulted].store = DurableLedger::with_store(Box::new(failing), storage);
    for number in 1..=BLOCKS {
        let at = SimTime::from_millis(100 * number);
        network.publish(at, hot_block(number, PER_BLOCK));
    }
    let mut checked = false;
    while let Some((now, event)) = pop(&mut network) {
        handle(&mut network, now, event);
        let lane = &network.lane;
        if lane.metrics.store_faults > 0 && !checked {
            checked = true;
            assert!(lane.slots[faulted].live.is_none(), "a store fault crashes");
            let recovery = lane.slots[faulted]
                .store
                .recover_seeded(CrdtValidator::new(), config.policy.clone(), |peer| {
                    peer.seed_state("hot".to_string(), SEED_DOC.to_vec());
                })
                .expect("a failed call leaves a store that recovers");
            let height = recovery.peer.chain().height() - 1;
            assert_eq!(
                ledger(&recovery.peer),
                reference[height as usize],
                "the store holds a prefix"
            );
        }
    }
    let calls = calls.each_ref().map(|c| c.load(Ordering::Relaxed));
    (network, calls)
}

fn assert_converged(network: &GossipNetwork<CrdtValidator>, reference: &[Ledger]) {
    assert!(
        network.fully_converged(),
        "heights {:?}",
        network.committed_heights()
    );
    for p in 0..network.peer_count() {
        let peer = network.peer(p).expect("up after the restart");
        assert_eq!(
            &ledger(peer),
            reference.last().expect("a stream"),
            "peer {p}"
        );
    }
}

/// Every call a replica makes to its store, failed in turn on either
/// backend: the replica goes down, the run drains, its store recovers
/// a prefix of the ledger at the fault, and after the scheduled restart
/// every replica holds the ledger of the run with no fault.
#[test]
fn a_failed_store_call_crashes_only_its_replica_and_the_restart_recovers_it() {
    let reference = reference(&topology().default_policy());
    for aof in [false, true] {
        for faulted in 0..3 {
            let dir = aof.then(temp_dir);
            let (network, calls) = run(dir.as_deref(), faulted, 0, &reference);
            assert_converged(&network, &reference);
            let metrics = network.metrics();
            assert_eq!(metrics.store_faults, 0);
            assert!(
                metrics.snapshot_transfers > 0,
                "a catch-up installs a snapshot"
            );
            assert!(
                calls.iter().all(|&c| c > 0),
                "every kind of call: {calls:?}"
            );
            if let Some(dir) = dir {
                std::fs::remove_dir_all(dir).expect("scratch removed");
            }
            for fail_at in 1..=calls.iter().sum() {
                let dir = aof.then(temp_dir);
                let (network, _) = run(dir.as_deref(), faulted, fail_at, &reference);
                let at = format!("aof {aof}, replica {faulted}, call {fail_at}");
                assert_eq!(network.metrics().store_faults, 1, "{at}");
                assert_converged(&network, &reference);
                if let Some(dir) = dir {
                    std::fs::remove_dir_all(dir).expect("scratch removed");
                }
            }
        }
    }
}

/// Every replica commits the published transaction list itself: after
/// a crash that ends in a catch-up and a crash and restart of every
/// replica, on either backend, with snapshots and GC or without, each
/// block a replica's chain holds shares its transactions with the
/// published block of its number.
#[test]
fn every_replica_commits_the_published_transaction_list() {
    for (aof, snapshots) in [(false, false), (false, true), (true, false), (true, true)] {
        let dir = aof.then(temp_dir);
        let storage = match &dir {
            Some(dir) => StorageConfig::append_only(dir),
            None => StorageConfig::memory(),
        };
        let mut config = config(storage.clone(), 1);
        if !snapshots {
            config.storage = Some(storage);
        }
        let mut network = network(&config);
        for number in 1..=BLOCKS {
            let at = SimTime::from_millis(100 * number);
            network.publish(at, hot_block(number, PER_BLOCK));
        }
        network.drain();
        assert!(
            network.fully_converged(),
            "aof {aof}, snapshots {snapshots}"
        );
        let lane = &network.lane;
        for (i, slot) in lane.slots.iter().enumerate() {
            let chain = slot
                .live
                .as_ref()
                .expect("up after the restart")
                .peer
                .chain();
            let mut held = 0;
            for (published, number) in lane.published.iter().zip(1..) {
                let Some(block) = chain.block(number) else {
                    continue;
                };
                let at = format!("aof {aof}, snapshots {snapshots}, replica {i}, block {number}");
                assert!(block.transactions.shares(&published.1.transactions), "{at}");
                held += 1;
            }
            let full = if snapshots { 1 } else { BLOCKS };
            assert!(held >= full, "aof {aof}: replica {i} holds {held} blocks");
        }
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).expect("scratch removed");
        }
    }
}

/// A store whose first `load` hides its first block record, so the
/// recovery that reads it finds a gap.
struct GappedOnce {
    inner: MemoryStore,
    loaded: AtomicBool,
}

impl LedgerStore for GappedOnce {
    fn append_block(&mut self, block: Arc<Block>) -> Result<(), StoreError> {
        self.inner.append_block(block)
    }

    fn put_snapshot(&mut self, snapshot: &LedgerSnapshot) -> Result<(), StoreError> {
        self.inner.put_snapshot(snapshot)
    }

    fn compact_up_to(&mut self, block_num: u64) -> Result<u64, StoreError> {
        self.inner.compact_up_to(block_num)
    }

    fn load(&self) -> StoredLedger {
        let mut stored = self.inner.load();
        if !self.loaded.swap(true, Ordering::Relaxed) {
            stored.blocks.remove(0);
        }
        stored
    }

    fn head(&self) -> (u64, Option<LedgerSnapshot>) {
        self.inner.head()
    }
}

/// A restart whose recovery fails leaves the replica down, counted as
/// a store fault, and the schedule's next restart recovers it.
#[test]
fn a_recovery_that_fails_leaves_the_replica_down_until_the_next_restart() {
    let mut config = PipelineConfig::paper(PER_BLOCK, 11)
        .with_storage(StorageConfig::memory())
        .with_faults(FaultConfig {
            crashes: vec![crash(1, 250, 600), crash(1, 800, 900)],
            ..FaultConfig::none()
        });
    config.policy = topology().default_policy();
    config.topology = topology();
    let mut network = network(&config);
    let gapped = GappedOnce {
        inner: MemoryStore::new(),
        loaded: AtomicBool::new(false),
    };
    let storage = config.storage.as_ref().expect("configured");
    network.lane.slots[1].store = DurableLedger::with_store(Box::new(gapped), storage);
    for number in 1..=BLOCKS {
        let at = SimTime::from_millis(100 * number);
        network.publish(at, hot_block(number, PER_BLOCK));
    }
    let mut seen_down = 0;
    while let Some((now, event)) = pop(&mut network) {
        if now >= SimTime::from_millis(700) && now < SimTime::from_millis(900) {
            let lane = &network.lane;
            assert_eq!(lane.metrics.store_faults, 1, "the first restart failed");
            assert!(lane.slots[1].live.is_none(), "and left the replica down");
            seen_down += 1;
        }
        handle(&mut network, now, event);
    }
    assert!(seen_down > 0, "events ran while the replica was down");
    assert_eq!(network.metrics().store_faults, 1);
    assert_converged(&network, &reference(&config.policy));
}

/// A snapshot pull whose total — the snapshot's bytes plus the blocks
/// above it — equals the replay's bytes is a replay; one byte cheaper,
/// it is the snapshot.
#[test]
fn a_snapshot_pull_that_costs_what_the_replay_costs_is_a_replay() {
    let mut peer = Peer::new(CrdtValidator::new(), topology().default_policy());
    peer.seed_state("hot".to_string(), SEED_DOC.to_vec());
    for number in 1..=2 {
        let staged = peer.process_block(hot_block(number, PER_BLOCK));
        peer.commit(staged).expect("extends");
    }
    let chain = peer.chain();
    let run: Vec<Arc<Block>> = (1..=2)
        .map(|n| Arc::clone(chain.shared(n).expect("held")))
        .collect();
    let replay = || Pull::replay(run.clone());
    let replay_bytes = replay().expect("a block run").bytes;
    let above = vec![Arc::clone(&run[1])];
    let snapshot = |snapshot_bytes: u64| {
        Some(Pull {
            snapshot: Some((peer.ledger_snapshot(), snapshot_bytes)),
            bytes: snapshot_bytes + wire_bytes(&above),
            blocks: above.clone(),
        })
    };
    let tie = replay_bytes - wire_bytes(&above);
    let chosen = |replay, snapshot| Pull::cheaper(replay, snapshot).expect("a pull");
    assert!(chosen(replay(), snapshot(tie)).snapshot.is_none());
    assert!(chosen(replay(), snapshot(tie - 1)).snapshot.is_some());
    assert!(chosen(replay(), snapshot(tie + 1)).snapshot.is_none());
    assert!(chosen(None, snapshot(tie)).snapshot.is_some());
    assert!(Pull::replay(Vec::new()).is_none());
    assert!(Pull::cheaper(None, None).is_none());
}

/// A replica persists each block as it commits: when buffered blocks
/// 9–15 commit in one call, the snapshot due at 10 is written, though
/// the call ends at 15.
#[test]
fn a_commit_batch_that_crosses_a_due_height_snapshots_there() {
    let config = PipelineConfig::paper(PER_BLOCK, 7)
        .with_gossip()
        .with_storage(StorageConfig::memory().with_snapshot_interval(10));
    let mut network = network(&config);
    for number in 1..=15 {
        network.publish(
            SimTime::from_millis(100 * number),
            hot_block(number, PER_BLOCK),
        );
    }
    let lane = &mut network.lane;
    let replica = 5;
    for batch in [1..=8, 9..=15] {
        let live = lane.slots[replica].live.as_mut().expect("replica is up");
        for number in batch {
            let block = Arc::clone(&lane.published[number as usize - 1].1);
            live.buffer.insert(number, block);
        }
        assert!(lane.advance(replica, None).is_ok());
    }
    assert_eq!(lane.committed(replica), 15);
    let store = &lane.slots[replica].store;
    assert_eq!(store.finalized_tip(), 15);
    let snapshot = store.latest_snapshot().expect("a snapshot at 10");
    assert_eq!(snapshot.last_block, 10);
}
