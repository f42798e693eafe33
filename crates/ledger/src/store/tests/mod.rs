use super::*;
use crate::chain::Blockchain;
use crate::rwset::ReadWriteSet;
use crate::transaction::{Transaction, TxId};
use fabriccrdt_crypto::Identity;
use std::sync::atomic::{AtomicU64, Ordering};

/// A store path in a directory of its own: a store is a run of
/// segment files beside it.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "fabriccrdt-store-{}-{tag}-{unique}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir.join("store.aof")
}

/// Removes the directory [`temp_path`] made.
fn cleanup(path: &Path) {
    fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// The run's segment files in order, checking that nothing else (a
/// temp file, say) sits beside them.
fn segment_files(path: &Path) -> Vec<PathBuf> {
    let mut numbered: Vec<(u64, PathBuf)> = fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            let number = match name.strip_prefix("store.aof") {
                Some("") => 0,
                Some(rest) => rest.strip_prefix('.').unwrap().parse().unwrap(),
                None => panic!("stray file {name}"),
            };
            (number, entry.path())
        })
        .collect();
    numbered.sort();
    numbered.into_iter().map(|(_, path)| path).collect()
}

/// Every record framed as the store frames it, footer included: a
/// block's is its hash prefix, a snapshot's its SHA-256 prefix.
fn framed(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for record in records {
        let (kind, payload) = record.encode();
        let footer = match record {
            Record::Block(block) => block.hash(),
            Record::Snapshot(_) => digest(&payload),
        };
        frame_record(&mut out, kind, &payload, &footer[..FOOTER_LEN]);
    }
    out
}

fn tx(n: u64) -> Transaction {
    let client = Identity::new("client", "org1");
    let mut rwset = ReadWriteSet::new();
    rwset.writes.put(format!("k{n}"), vec![n as u8; 4]);
    Transaction {
        id: TxId::derive(&client, n, "cc"),
        client,
        chaincode: "cc".into(),
        rwset,
        endorsements: Vec::new(),
    }
}

/// A small, properly chained block sequence (numbers 0..count), each
/// block shared as the chain holds it.
fn chained_blocks(count: u64) -> Vec<Arc<Block>> {
    let mut chain = Blockchain::new();
    for n in 0..count {
        let block = Block::assemble(n, chain.tip_hash(), vec![tx(n + 1)]);
        chain.append(block).unwrap();
    }
    (0..count)
        .map(|n| Arc::clone(chain.shared(n).unwrap()))
        .collect()
}

fn sample_snapshot(last_block: u64) -> LedgerSnapshot {
    let mut state = WorldState::new();
    state.put("k".into(), vec![1, 2, 3], crate::Height::new(last_block, 0));
    LedgerSnapshot {
        last_block,
        tip_hash: [last_block as u8; 32],
        state,
        committed_ids: vec![tx(6).id].into(),
    }
}

#[test]
fn snapshot_byte_roundtrip() {
    let snapshot = sample_snapshot(42);
    let bytes = snapshot.to_bytes();
    assert_eq!(bytes.len(), snapshot.encoded_len());
    assert_eq!(LedgerSnapshot::from_bytes(&bytes).unwrap(), snapshot);
    for cut in 0..bytes.len() {
        assert!(LedgerSnapshot::from_bytes(&bytes[..cut]).is_err());
    }
    let mut wrong_version = bytes.clone();
    wrong_version[0] = 99;
    assert!(LedgerSnapshot::from_bytes(&wrong_version).is_err());
}

/// Version 1 carried a fifth length-prefixed component and version 2 a
/// fourth (the key history), both since dropped. There is no decoder
/// for either: each is an error, and relabelling it as the current
/// version does not make it parse as something else.
#[test]
fn version_one_snapshot_is_rejected() {
    let snapshot = sample_snapshot(42);
    let history: &[u8] = &[4, 5];
    let state = codec::encode_state(&snapshot.state);
    let ids = codec::encode_txids(&snapshot.committed_ids);
    let old_layouts: [(u8, Vec<&[u8]>); 2] = [
        (1, vec![&state, history, &ids, &[7, 8, 9, 10]]),
        (2, vec![&state, history, &ids]),
    ];
    for (version, components) in old_layouts {
        let mut old = Vec::new();
        old.u8(version);
        old.u64(snapshot.last_block);
        old.digest(&snapshot.tip_hash);
        for component in components {
            old.bytes(component);
        }
        assert!(LedgerSnapshot::from_bytes(&old).is_err(), "v{version}");
        old[0] = SNAPSHOT_FORMAT_VERSION;
        assert!(
            LedgerSnapshot::from_bytes(&old).is_err(),
            "v{version} relabelled as current"
        );
    }
}

#[test]
fn memory_store_roundtrip_and_compaction() {
    let mut store = MemoryStore::new();
    assert_eq!(store.head(), (0, None));
    let blocks = chained_blocks(6);
    for block in &blocks {
        store.append_block(Arc::clone(block)).unwrap();
    }
    // No snapshot yet: compaction refuses to drop anything.
    assert_eq!(store.compact_up_to(100).unwrap(), 0);
    assert_eq!(store.load().blocks, blocks);

    store.put_snapshot(&sample_snapshot(3)).unwrap();
    // Clamped to the snapshot even when asked for more.
    assert_eq!(store.compact_up_to(100).unwrap(), 4);
    let loaded = store.load();
    assert_eq!(loaded.snapshot.unwrap().last_block, 3);
    assert_eq!(loaded.blocks, blocks[4..].to_vec());
    // The head comes from the index: highest number any record names.
    assert_eq!(store.head(), (5, Some(sample_snapshot(3))));
}

#[test]
fn latest_snapshot_wins() {
    let mut store = MemoryStore::new();
    store.put_snapshot(&sample_snapshot(2)).unwrap();
    store.put_snapshot(&sample_snapshot(5)).unwrap();
    store.put_snapshot(&sample_snapshot(4)).unwrap();
    assert_eq!(store.load().snapshot.unwrap().last_block, 5);
    // A store of snapshots alone still has a head: the covered height.
    assert_eq!(store.head(), (5, Some(sample_snapshot(5))));
}

#[test]
fn aof_roundtrip_across_reopen() {
    let path = temp_path("roundtrip");
    let blocks = chained_blocks(4);
    {
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks {
            store.append_block(Arc::clone(block)).unwrap();
        }
        store.put_snapshot(&sample_snapshot(1)).unwrap();
    }
    let store = AofStore::open(&path).unwrap();
    let loaded = store.load();
    assert_eq!(loaded.blocks, blocks);
    assert_eq!(loaded.snapshot.unwrap(), sample_snapshot(1));
    cleanup(&path);
}

#[test]
fn aof_truncates_torn_tail_and_stays_appendable() {
    let path = temp_path("torn");
    let blocks = chained_blocks(3);
    {
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks {
            store.append_block(Arc::clone(block)).unwrap();
        }
    }
    // Simulate a crash mid-append: chop bytes off the last record.
    let full = fs::read(&path).unwrap();
    fs::write(&path, &full[..full.len() - 5]).unwrap();
    {
        let mut store = AofStore::open(&path).unwrap();
        let loaded = store.load();
        assert_eq!(loaded.blocks, blocks[..2].to_vec());
        // The torn bytes are gone from disk, and appends resume
        // cleanly at the truncation point.
        store.append_block(Arc::clone(&blocks[2])).unwrap();
    }
    let store = AofStore::open(&path).unwrap();
    assert_eq!(store.load().blocks, blocks);
    cleanup(&path);
}

#[test]
fn aof_rejects_flipped_footer_bytes() {
    let path = temp_path("footer");
    let blocks = chained_blocks(2);
    {
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks {
            store.append_block(Arc::clone(block)).unwrap();
        }
    }
    let mut bytes = fs::read(&path).unwrap();
    // Flip a payload byte of the *last* record: its footer no
    // longer matches, so recovery truncates that record away.
    let len = bytes.len();
    bytes[len - FOOTER_LEN - 1] ^= 0xff;
    fs::write(&path, &bytes).unwrap();
    let store = AofStore::open(&path).unwrap();
    assert_eq!(store.load().blocks, blocks[..1].to_vec());
    assert_eq!(
        fs::metadata(&path).unwrap().len() as usize,
        bytes.len() - (HEADER_LEN + codec::encode_block(&blocks[1]).len() + FOOTER_LEN)
    );
    cleanup(&path);
}

#[test]
fn aof_mid_file_corruption_is_a_typed_error_not_truncation() {
    let path = temp_path("midfile");
    let blocks = chained_blocks(3);
    {
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks {
            store.append_block(Arc::clone(block)).unwrap();
        }
    }
    let pristine = fs::read(&path).unwrap();
    let first_frame = HEADER_LEN + codec::encode_block(&blocks[0]).len() + FOOTER_LEN;

    // Flip a payload byte of the *first* record: two intact
    // records still follow, so this is in-place corruption and
    // open must refuse rather than truncate the whole file away.
    let mut bytes = pristine.clone();
    bytes[HEADER_LEN] ^= 0xff;
    fs::write(&path, &bytes).unwrap();
    assert_eq!(
        AofStore::open(&path).unwrap_err(),
        StoreError::CorruptRecord { offset: 0 }
    );
    // The failed open left the file untouched for forensics.
    assert_eq!(fs::read(&path).unwrap(), bytes);

    // Same for a corrupt *middle* record — the error names its
    // byte offset.
    let mut bytes = pristine.clone();
    bytes[first_frame + HEADER_LEN] ^= 0xff;
    fs::write(&path, &bytes).unwrap();
    assert_eq!(
        AofStore::open(&path).unwrap_err(),
        StoreError::CorruptRecord {
            offset: first_frame as u64
        }
    );

    // The pristine file still opens to all three blocks.
    fs::write(&path, &pristine).unwrap();
    assert_eq!(AofStore::open(&path).unwrap().load().blocks, blocks);
    cleanup(&path);
}

#[test]
fn aof_garbage_file_recovers_to_empty() {
    let path = temp_path("garbage");
    fs::write(&path, b"this was never an aof").unwrap();
    let mut store = AofStore::open(&path).unwrap();
    assert_eq!(store.load().blocks, Vec::<Arc<Block>>::new());
    assert_eq!(fs::metadata(&path).unwrap().len(), 0);
    // Still usable after recovery.
    let blocks = chained_blocks(1);
    store.append_block(Arc::clone(&blocks[0])).unwrap();
    assert_eq!(store.load().blocks, blocks);
    cleanup(&path);
}

#[test]
fn aof_compaction_drops_covered_blocks() {
    let path = temp_path("compact");
    let blocks = chained_blocks(6);
    let mut store = AofStore::open(&path).unwrap();
    for block in &blocks {
        store.append_block(Arc::clone(block)).unwrap();
    }
    assert_eq!(store.compact_up_to(100).unwrap(), 0, "no snapshot yet");
    store.put_snapshot(&sample_snapshot(2)).unwrap();
    store.put_snapshot(&sample_snapshot(4)).unwrap();
    let before = fs::metadata(&path).unwrap().len();
    assert_eq!(store.compact_up_to(4).unwrap(), 5);
    assert!(fs::metadata(&path).unwrap().len() < before);
    let loaded = store.load();
    assert_eq!(loaded.snapshot.unwrap().last_block, 4);
    assert_eq!(loaded.blocks, blocks[5..].to_vec());
    drop(store);
    // The compacted file reopens to the same contents.
    let reopened = AofStore::open(&path).unwrap();
    let loaded = reopened.load();
    assert_eq!(loaded.snapshot.unwrap().last_block, 4);
    assert_eq!(loaded.blocks, blocks[5..].to_vec());
    cleanup(&path);
}

#[test]
fn aof_failed_compaction_leaves_the_store_on_the_old_file() {
    let path = temp_path("compact-fails");
    let blocks = chained_blocks(5);
    let mut store = AofStore::open(&path).unwrap();
    for block in &blocks[..4] {
        store.append_block(Arc::clone(block)).unwrap();
    }
    store.put_snapshot(&sample_snapshot(2)).unwrap();
    let before = store.load();
    // A directory squatting on the temp path fails the rewrite.
    let squatter = suffixed(&path, TEMP_SUFFIX);
    fs::create_dir(&squatter).unwrap();
    assert!(store.compact_up_to(2).is_err());
    assert_eq!(store.load(), before);
    // ... and the handle still appends after its last record.
    store.append_block(Arc::clone(&blocks[4])).unwrap();
    let reopened = AofStore::open(&path).unwrap().load();
    assert_eq!(reopened.blocks, blocks);
    cleanup(&path);
}

#[test]
fn aof_fsync_mode_survives_simulated_crash_reopen() {
    let path = temp_path("fsync");
    let blocks = chained_blocks(5);
    {
        let mut store = AofStore::open_with_fsync(&path, true).unwrap();
        assert!(store.fsync_enabled());
        for block in &blocks {
            store.append_block(Arc::clone(block)).unwrap();
        }
        store.put_snapshot(&sample_snapshot(2)).unwrap();
        assert_eq!(store.compact_up_to(2).unwrap(), 3);
        // Simulated crash: drop the handle with no clean shutdown.
    }
    let store = AofStore::open(&path).unwrap();
    let loaded = store.load();
    assert_eq!(loaded.snapshot.unwrap().last_block, 2);
    assert_eq!(loaded.blocks, blocks[3..].to_vec());
    // The fsynced file is byte-for-byte what the non-fsync mode
    // writes — the flag changes durability, not the format.
    let other = temp_path("fsync-mirror");
    {
        let mut store = AofStore::open(&other).unwrap();
        for block in &blocks {
            store.append_block(Arc::clone(block)).unwrap();
        }
        store.put_snapshot(&sample_snapshot(2)).unwrap();
        store.compact_up_to(2).unwrap();
    }
    assert_eq!(fs::read(&path).unwrap(), fs::read(&other).unwrap());
    cleanup(&path);
    cleanup(&other);
}

/// The block numbers a store retains, in load order.
fn retained(store: &impl LedgerStore) -> Vec<u64> {
    store
        .load()
        .blocks
        .iter()
        .map(|b| b.header.number)
        .collect()
}

#[test]
fn compaction_retains_the_blocks_above_the_snapshot() {
    let path = temp_path("retained");
    let blocks = chained_blocks(4);
    let mut aof = AofStore::open(&path).unwrap();
    let mut memory = MemoryStore::new();
    for block in &blocks {
        aof.append_block(Arc::clone(block)).unwrap();
        memory.append_block(Arc::clone(block)).unwrap();
    }
    aof.put_snapshot(&sample_snapshot(1)).unwrap();
    memory.put_snapshot(&sample_snapshot(1)).unwrap();
    aof.compact_up_to(1).unwrap();
    memory.compact_up_to(1).unwrap();
    assert_eq!(retained(&aof), [2, 3]);
    assert_eq!(retained(&memory), [2, 3]);
    cleanup(&path);
}

/// One step of a store's life, applied to both backends alike.
#[derive(Debug)]
enum Step {
    Append(usize),
    Snapshot(u64),
    Compact(u64),
    Reopen,
}

/// Applies `steps` to an [`AofStore`] and a [`MemoryStore`] side by
/// side; after every step the two must answer every query alike.
fn assert_backends_agree(tag: &str, blocks: &[Arc<Block>], steps: &[Step]) {
    let path = temp_path(tag);
    let mut aof = AofStore::open(&path).unwrap();
    let mut memory = MemoryStore::new();
    for (n, step) in steps.iter().enumerate() {
        match step {
            Step::Append(i) => {
                aof.append_block(Arc::clone(&blocks[*i])).unwrap();
                memory.append_block(Arc::clone(&blocks[*i])).unwrap();
            }
            Step::Snapshot(at) => {
                aof.put_snapshot(&sample_snapshot(*at)).unwrap();
                memory.put_snapshot(&sample_snapshot(*at)).unwrap();
            }
            Step::Compact(up_to) => assert_eq!(
                aof.compact_up_to(*up_to).unwrap(),
                memory.compact_up_to(*up_to).unwrap(),
                "step {n} {step:?}: dropped-block counts"
            ),
            Step::Reopen => {
                drop(aof);
                aof = AofStore::open(&path).unwrap();
            }
        }
        assert_eq!(aof.load(), memory.load(), "step {n} {step:?}");
        assert_eq!(aof.head(), memory.head(), "step {n} {step:?}");
        // The segments, end to end, are every record framed afresh,
        // whether it was appended, reopened or rewritten with its kept
        // footer.
        let on_disk: Vec<u8> = segment_files(&path)
            .iter()
            .flat_map(|segment| fs::read(segment).unwrap())
            .collect();
        assert!(
            on_disk == framed(&memory.records),
            "step {n} {step:?}: segment bytes"
        );
    }
    cleanup(&path);
}

#[test]
fn aof_and_memory_agree() {
    let blocks = chained_blocks(12);
    let mut fixed: Vec<Step> = (0..5).map(Step::Append).collect();
    fixed.extend([Step::Snapshot(2), Step::Compact(2), Step::Reopen]);
    assert_backends_agree("agree", &blocks, &fixed);

    // Seeded streams: appends in order (a block may repeat, as a
    // re-persisted suffix would), snapshots at or below the appended
    // height (so superseded and tied ones occur), compactions anywhere,
    // reopens anywhere.
    fabriccrdt_sim::gen::cases(24, |g| {
        let mut appended = 0usize;
        let steps: Vec<Step> = (0..g.size(4, 40))
            .map(|_| match g.range(0, 8) {
                0..=3 if appended < blocks.len() => {
                    appended += 1;
                    Step::Append(appended - 1)
                }
                0..=3 => Step::Append(g.range(0, blocks.len() as u64) as usize),
                4..=5 => Step::Snapshot(g.range(0, appended as u64 + 1)),
                6 => Step::Compact(g.range(0, blocks.len() as u64 + 2)),
                _ => Step::Reopen,
            })
            .collect();
        assert_backends_agree("agree-seeded", &blocks, &steps);
    });
}

#[test]
fn blocks_by_number_dedups_last_wins() {
    let blocks = chained_blocks(3);
    let mut doubled = blocks.clone();
    doubled.extend(blocks.iter().cloned());
    let by_number = blocks_by_number(doubled);
    assert_eq!(by_number.len(), 3);
    assert_eq!(by_number.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
}

/// Each snapshot starts a segment; compaction unlinks the segments it
/// leaves empty — but the first, which it empties in place — rewrites
/// the one it leaves partly alive, and leaves the rest byte for byte
/// alone.
#[test]
fn snapshots_start_segments_and_compaction_unlinks_them() {
    let path = temp_path("segments");
    let blocks = chained_blocks(8);
    let mut store = AofStore::open(&path).unwrap();
    for block in &blocks[..4] {
        store.append_block(Arc::clone(block)).unwrap();
    }
    store.put_snapshot(&sample_snapshot(3)).unwrap();
    for block in &blocks[4..6] {
        store.append_block(Arc::clone(block)).unwrap();
    }
    store.put_snapshot(&sample_snapshot(5)).unwrap();
    for block in &blocks[6..] {
        store.append_block(Arc::clone(block)).unwrap();
    }
    let names = |path: &Path| -> Vec<String> {
        segment_files(path)
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(names(&path), ["store.aof", "store.aof.1", "store.aof.2"]);
    let newest = fs::read(suffixed(&path, ".2")).unwrap();

    // Floor 4: the first segment is dead whole, the second keeps the
    // block above the floor but not its superseded snapshot.
    assert_eq!(store.compact_up_to(4).unwrap(), 5);
    assert_eq!(names(&path), ["store.aof", "store.aof.1", "store.aof.2"]);
    assert_eq!(fs::read(&path).unwrap(), b"");
    let mut kept = Vec::new();
    frame_record(
        &mut kept,
        KIND_BLOCK,
        &codec::encode_block(&blocks[5]),
        &blocks[5].hash()[..FOOTER_LEN],
    );
    assert_eq!(fs::read(suffixed(&path, ".1")).unwrap(), kept);
    assert_eq!(fs::read(suffixed(&path, ".2")).unwrap(), newest);

    // Floor 5: the second segment goes; appends still land last.
    assert_eq!(store.compact_up_to(9).unwrap(), 1);
    assert_eq!(names(&path), ["store.aof", "store.aof.2"]);
    let extra = Block::assemble(8, blocks[7].hash(), vec![tx(9)]);
    store.append_block((&extra).into()).unwrap();
    let expected = store.load();
    assert_eq!(expected.blocks, [&blocks[6..], &[Arc::new(extra)]].concat());
    drop(store);

    // The run reopens past its empty first segment, and a snapshot
    // after the reopen numbers its segment after the last one.
    let mut reopened = AofStore::open(&path).unwrap();
    assert_eq!(reopened.load(), expected);
    reopened.put_snapshot(&sample_snapshot(8)).unwrap();
    assert_eq!(names(&path), ["store.aof", "store.aof.2", "store.aof.3"]);
    cleanup(&path);
}

/// A temp file a crash left between a rewrite's write and its rename is
/// removed at open; the segment it would have replaced is read as is.
#[test]
fn open_removes_a_crashed_rewrites_temp_file() {
    let path = temp_path("stale-temp");
    let blocks = chained_blocks(3);
    {
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks {
            store.append_block(Arc::clone(block)).unwrap();
        }
    }
    let temp = suffixed(&path, TEMP_SUFFIX);
    fs::write(&temp, b"half a rewrite").unwrap();
    let store = AofStore::open(&path).unwrap();
    assert!(!temp.exists());
    assert_eq!(store.load().blocks, blocks);
    cleanup(&path);
}

/// A failed unlink is an error, and the store then answers exactly as a
/// reopen of the files as they stand does: the segments compacted before
/// the failure are empty or gone, the one that failed and those after it
/// are not.
#[test]
fn a_failed_unlink_leaves_the_store_answering_like_a_reopen() {
    for failing in [1, 2] {
        let path = temp_path("unlink-fails");
        let blocks = chained_blocks(5);
        let mut store = AofStore::open(&path).unwrap();
        for (n, block) in blocks.iter().enumerate() {
            store.append_block(Arc::clone(block)).unwrap();
            if n < 3 {
                store.put_snapshot(&sample_snapshot(n as u64)).unwrap();
            }
        }
        // At floor 2 segments 0-2 are dead: the first is emptied in
        // place, the others unlinked. A non-empty directory in the way
        // of one makes its unlink fail.
        let victim = segment_path(&path, failing);
        let pristine = fs::read(&victim).unwrap();
        fs::remove_file(&victim).unwrap();
        fs::create_dir(&victim).unwrap();
        fs::write(victim.join("pin"), b"").unwrap();
        assert!(matches!(
            store.compact_up_to(2),
            Err(StoreError::Io {
                op: "compact-unlink",
                ..
            })
        ));
        fs::remove_dir_all(&victim).unwrap();
        fs::write(&victim, &pristine).unwrap();
        let reopened = AofStore::open(&path).unwrap();
        assert_eq!(store.load(), reopened.load(), "{failing}");
        assert_eq!(store.head(), reopened.head(), "{failing}");
        let kept_from = if failing == 1 { 1 } else { 2 };
        assert_eq!(retained(&store), (kept_from..5).collect::<Vec<_>>());
        // The next compaction finishes the job.
        drop(reopened);
        assert_eq!(store.compact_up_to(2).unwrap(), 3 - failing);
        assert_eq!(store.load().blocks, blocks[3..].to_vec());
        cleanup(&path);
    }
}

/// Hostile bytes over the block records of a two-segment store: every
/// byte flipped and every segment cut short at every offset. Open
/// truncates a torn tail or refuses with `CorruptRecord`; it never
/// panics, and every block it loads is byte for byte one that was
/// written — and when only the last segment was hit, they are a prefix.
#[test]
fn hostile_bytes_in_any_segment_never_load_a_foreign_block() {
    let path = temp_path("hostile");
    let blocks = chained_blocks(5);
    {
        let mut store = AofStore::open(&path).unwrap();
        for block in &blocks[..3] {
            store.append_block(Arc::clone(block)).unwrap();
        }
        store.put_snapshot(&sample_snapshot(2)).unwrap();
        for block in &blocks[3..] {
            store.append_block(Arc::clone(block)).unwrap();
        }
    }
    let segments = segment_files(&path);
    assert_eq!(segments.len(), 2);
    let pristine: Vec<Vec<u8>> = segments.iter().map(|s| fs::read(s).unwrap()).collect();
    let written: Vec<Vec<u8>> = blocks.iter().map(|b| codec::encode_block(b)).collect();
    let (mut truncated, mut refused) = (0, 0);
    let mut check = |hit: usize, bytes: &[u8]| {
        for (segment, data) in segments.iter().zip(&pristine) {
            fs::write(segment, data).unwrap();
        }
        fs::write(&segments[hit], bytes).unwrap();
        match AofStore::open(&path) {
            Ok(store) => {
                let loaded: Vec<Vec<u8>> = store
                    .load()
                    .blocks
                    .iter()
                    .map(|b| codec::encode_block(b))
                    .collect();
                if hit + 1 == segments.len() {
                    assert_eq!(loaded, written[..loaded.len()], "a prefix");
                } else {
                    assert!(loaded.iter().all(|b| written.contains(b)));
                }
                truncated += usize::from(loaded.len() < written.len());
            }
            Err(StoreError::CorruptRecord { .. }) => refused += 1,
            Err(other) => panic!("segment {hit}: {other}"),
        }
    };
    for (hit, data) in pristine.iter().enumerate() {
        for at in 0..data.len() {
            let mut flipped = data.clone();
            flipped[at] ^= 0xff;
            check(hit, &flipped);
            check(hit, &data[..at]);
        }
    }
    // Both outcomes occur: the sweep reaches the tail and the middle.
    assert!(truncated > 0 && refused > 0, "{truncated} / {refused}");
    cleanup(&path);
}
