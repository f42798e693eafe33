//! Integration tests for the multi-channel driver: seed-pipeline
//! byte-identity, per-channel isolation and reconvergence, and the
//! two-phase cross-channel transfer protocol (including the seeded
//! crash/partition sweep asserting exactly-once handoffs).

use std::sync::Arc;

use fabriccrdt::CrdtValidator;
use fabriccrdt_channel::{assemble, fabriccrdt_multi_channel, XferChaincode};
use fabriccrdt_fabric::chaincode::ChaincodeRegistry;
use fabriccrdt_fabric::channel::{ChannelId, MultiChannelConfig, TransferOutcome, TransferSpec};
use fabriccrdt_fabric::config::{CrashSpec, FaultConfig, PartitionSpec, PipelineConfig};
use fabriccrdt_fabric::simulation::TxRequest;
use fabriccrdt_fabric::storage::StorageConfig;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::iot::IotChaincode;

fn iot_registry() -> ChaincodeRegistry {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy(Arc::new(IotChaincode::crdt()));
    registry
}

/// A small channel-keyed IoT workload: `txs` transactions at 20 ms
/// intervals, read-modify-writing the channel's hot keys.
fn channel_schedule(channel: usize, txs: usize) -> Vec<(SimTime, TxRequest)> {
    (0..txs)
        .map(|i| {
            let key = format!("ch{channel}-k{}", i % 4);
            let payload = format!(r#"{{"readings":["c{channel}-r{i}"]}}"#);
            (
                SimTime::from_millis(20 * (i as u64 + 1)),
                TxRequest::new(
                    "iot-crdt",
                    IotChaincode::args(
                        std::slice::from_ref(&key),
                        std::slice::from_ref(&key),
                        &payload,
                    ),
                ),
            )
        })
        .collect()
}

fn seed_channel_keys(
    net: &mut fabriccrdt_channel::MultiChannelNetwork<CrdtValidator>,
    channel: usize,
) {
    for k in 0..4 {
        net.seed_state(
            channel,
            format!("ch{channel}-k{k}"),
            br#"{"readings":[]}"#.to_vec(),
        );
    }
}

#[test]
fn one_channel_run_matches_the_seed_gossip_pipeline() {
    let base = PipelineConfig::paper(25, 42).with_gossip();
    let schedule = channel_schedule(0, 60);

    // The seed pipeline: the single-channel gossip delivery layer.
    let mut single = assemble(base.clone(), iot_registry(), CrdtValidator::new);
    for k in 0..4 {
        single.seed_state(format!("ch0-k{k}"), br#"{"readings":[]}"#.to_vec());
    }
    let expected = single.run(schedule.clone());

    // The same run as a 1-channel deployment of the new subsystem.
    let config = MultiChannelConfig::uniform(base, 1);
    let mut multi = fabriccrdt_multi_channel(config, iot_registry());
    seed_channel_keys(&mut multi, 0);
    let rollup = multi.run(vec![schedule]);

    assert_eq!(rollup.channels.len(), 1);
    assert_eq!(
        rollup.channels[0].metrics, expected,
        "1-channel run must reproduce the seed pipeline's metrics bit-for-bit"
    );
    assert_eq!(
        multi.simulation(0).peer().snapshot(),
        single.peer().snapshot(),
        "1-channel ledger must be byte-identical to the seed pipeline's"
    );
    multi.verify_converged();
}

#[test]
fn channels_keep_isolated_worlds_and_reconverge() {
    let base = PipelineConfig::paper(25, 7).with_gossip();
    let config = MultiChannelConfig::uniform(base, 3);
    let mut net = fabriccrdt_multi_channel(config, iot_registry());
    for c in 0..3 {
        seed_channel_keys(&mut net, c);
    }
    let rollup = net.run((0..3).map(|c| channel_schedule(c, 40)).collect());

    assert_eq!(rollup.total_submitted(), 120);
    assert_eq!(
        rollup.total_successful(),
        120,
        "CRDT merge commits every conflicting RMW"
    );
    assert!(rollup.aggregate_tps() > 0.0);
    for c in 0..3 {
        let state = net.simulation(c).peer().state();
        assert!(state.value(&format!("ch{c}-k0")).is_some());
        let other = (c + 1) % 3;
        assert!(
            state.value(&format!("ch{other}-k0")).is_none(),
            "channel {c} must not see channel {other}'s world state"
        );
        assert_eq!(
            rollup.channels[c].metrics.channel,
            ChannelId(c as u32),
            "metrics carry their channel id"
        );
    }
    net.verify_converged();
}

#[test]
fn partial_membership_channels_converge_on_their_members() {
    let base = PipelineConfig::paper(25, 11).with_gossip();
    let mut config = MultiChannelConfig::uniform(base, 2);
    // Channel 1 runs on a 4-peer subset that still covers every org
    // (peers 0,1 of org 0; peer 2 of org 1; peer 4 of org 2).
    config.channels[1].members = vec![0, 1, 2, 4];
    config.validate();
    let mut net = fabriccrdt_multi_channel(config, iot_registry());
    for c in 0..2 {
        seed_channel_keys(&mut net, c);
    }
    net.run((0..2).map(|c| channel_schedule(c, 30)).collect());
    assert_eq!(net.network().members(1), &[0, 1, 2, 4]);
    net.verify_converged();
}

/// Regression: a replica that caught up by snapshot install resumes its
/// chain at the snapshot tip, so its chain *bytes* legitimately differ
/// from the pipeline peer's full chain. `verify_converged` used to
/// compare those bytes and panic "ledger diverged" on this healthy
/// deployment; convergence is world state, height and tip hash.
#[test]
fn verify_converged_accepts_a_snapshot_recovered_replica() {
    // Blocks of 4 every 80 ms; peer 3 is down for ~40 of them, so the
    // helper's snapshot plus suffix is far cheaper than a full replay.
    let faults = FaultConfig {
        crashes: vec![CrashSpec {
            peer: 3,
            at: SimTime::from_millis(150),
            restart_at: SimTime::from_millis(3500),
        }],
        ..FaultConfig::none()
    };
    let base = PipelineConfig::paper(4, 31)
        .with_gossip()
        .with_faults(faults)
        .with_storage(StorageConfig::memory().with_snapshot_interval(5));
    let mut net = fabriccrdt_multi_channel(MultiChannelConfig::uniform(base, 2), iot_registry());
    for c in 0..2 {
        seed_channel_keys(&mut net, c);
    }
    let rollup = net.run((0..2).map(|c| channel_schedule(c, 200)).collect());
    assert_eq!(rollup.total_successful(), 400);

    for (c, channel) in rollup.channels.iter().enumerate() {
        let dissemination = channel.metrics.dissemination.as_ref().expect("gossip ran");
        assert!(
            dissemination.snapshot_transfers >= 1,
            "channel {c}: anti-entropy never picked the snapshot"
        );
        let network = net.network();
        let recovered = network.peer_on(c, 3).expect("peer 3 is back up");
        assert!(
            recovered.chain().base_number() > 0,
            "channel {c}: the recovered chain resumes at the snapshot tip, \
             so its bytes differ from the pipeline peer's full chain"
        );
    }
    net.verify_converged();
}

// ------------------------------------------------------- transfers

fn json(bytes: &[u8]) -> Value {
    Value::from_bytes(bytes).expect("committed value parses")
}

#[test]
fn transfer_commits_key_to_the_destination_channel() {
    let base = PipelineConfig::paper(25, 21).with_gossip();
    let config = MultiChannelConfig::uniform(base, 2);
    let mut net = fabriccrdt_multi_channel(config, iot_registry());
    // String scalars: the destination's put_crdt renormalizes the
    // document through the JSON CRDT, which stores scalars as strings.
    let original = br#"{"asset":{"owner":"org1","qty":"7"}}"#.to_vec();
    net.seed_state(0, "asset-1", original.clone());

    let reports = net.execute_transfers(&[TransferSpec {
        key: "asset-1".into(),
        from: ChannelId(0),
        to: ChannelId(1),
        inject_failure: false,
        destination_down: false,
    }]);

    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(report.outcome, TransferOutcome::Committed);
    let id = report.id;
    let dest = net.simulation(1).peer().state();
    assert_eq!(
        json(dest.value("asset-1").expect("key lives on the destination")),
        json(&original),
        "destination holds the escrowed document"
    );
    assert!(dest.value(&id.commit_key()).is_some());
    let source = net.simulation(0).peer().state();
    assert_eq!(
        source.value("asset-1").unwrap(),
        XferChaincode::escrow_marker(id).as_slice(),
        "source keeps the escrow marker once the key moved"
    );
    assert!(source.value(&id.prepare_key()).is_some());
    assert!(source.value(&id.abort_key()).is_none());
    net.verify_converged();
}

#[test]
fn failed_transfer_aborts_back_to_the_source_channel() {
    let base = PipelineConfig::paper(25, 22).with_gossip();
    let config = MultiChannelConfig::uniform(base, 2);
    let mut net = fabriccrdt_multi_channel(config, iot_registry());
    let original = br#"{"asset":{"owner":"org2","qty":3}}"#.to_vec();
    net.seed_state(0, "asset-2", original.clone());

    let reports = net.execute_transfers(&[TransferSpec {
        key: "asset-2".into(),
        from: ChannelId(0),
        to: ChannelId(1),
        inject_failure: true,
        destination_down: false,
    }]);

    let report = &reports[0];
    assert_eq!(report.outcome, TransferOutcome::Aborted);
    let id = report.id;
    let dest = net.simulation(1).peer().state();
    assert!(
        dest.value(&id.commit_key()).is_none(),
        "the corrupted commit must fail validation"
    );
    assert!(dest.value("asset-2").is_none(), "key never lands on dest");
    let source = net.simulation(0).peer().state();
    assert_eq!(
        source.value("asset-2").unwrap(),
        original.as_slice(),
        "abort restores the escrowed bytes on the source"
    );
    assert!(source.value(&id.abort_key()).is_some());
    net.verify_converged();
}

#[test]
fn destination_crash_between_prepare_and_commit_releases_the_escrow() {
    let base = PipelineConfig::paper(25, 24).with_gossip();
    let config = MultiChannelConfig::uniform(base, 2);
    let mut net = fabriccrdt_multi_channel(config, iot_registry());
    let original = br#"{"asset":{"owner":"org3","qty":9}}"#.to_vec();
    net.seed_state(0, "asset-3", original.clone());

    let reports = net.execute_transfers(&[TransferSpec {
        key: "asset-3".into(),
        from: ChannelId(0),
        to: ChannelId(1),
        inject_failure: false,
        destination_down: true,
    }]);

    let report = &reports[0];
    assert_eq!(
        report.outcome,
        TransferOutcome::Aborted,
        "a commit that never reached the destination must reconcile to abort"
    );
    let id = report.id;
    let dest = net.simulation(1).peer().state();
    assert!(
        dest.value(&id.commit_key()).is_none(),
        "no commit record: the destination never saw the transaction"
    );
    assert!(
        dest.value("asset-3").is_none(),
        "no duplicate value on the destination"
    );
    let source = net.simulation(0).peer().state();
    assert_eq!(
        source.value("asset-3").unwrap(),
        original.as_slice(),
        "abort releases the escrow back on the source"
    );
    assert!(source.value(&id.prepare_key()).is_some());
    assert!(source.value(&id.abort_key()).is_some());
    net.verify_converged();
}

#[test]
fn transfer_of_a_missing_key_aborts_without_records() {
    let base = PipelineConfig::paper(25, 23).with_gossip();
    let config = MultiChannelConfig::uniform(base, 2);
    let mut net = fabriccrdt_multi_channel(config, iot_registry());
    let reports = net.execute_transfers(&[TransferSpec {
        key: "no-such-key".into(),
        from: ChannelId(1),
        to: ChannelId(0),
        inject_failure: false,
        destination_down: false,
    }]);
    let report = &reports[0];
    assert_eq!(report.outcome, TransferOutcome::Aborted);
    let id = report.id;
    for c in 0..2 {
        let state = net.simulation(c).peer().state();
        assert!(state.value("no-such-key").is_none());
        assert!(state.value(&id.prepare_key()).is_none());
        assert!(state.value(&id.commit_key()).is_none());
        assert!(state.value(&id.abort_key()).is_none());
    }
    net.verify_converged();
}

// ---------------------------------------- exactly-once fault sweep

/// The sweep's crash/partition schedules: every crash restarts and
/// every partition heals, all within the drained timeline.
fn sweep_faults(case: usize) -> FaultConfig {
    let crash = |peer: usize, at: u64, restart: u64| CrashSpec {
        peer,
        at: SimTime::from_millis(at),
        restart_at: SimTime::from_millis(restart),
    };
    match case {
        0 => FaultConfig {
            crashes: vec![crash(1, 300, 900), crash(4, 500, 1500)],
            ..FaultConfig::none()
        },
        1 => FaultConfig {
            partitions: vec![PartitionSpec {
                at: SimTime::from_millis(200),
                heal_at: SimTime::from_millis(1800),
                minority: vec![3, 5],
            }],
            ..FaultConfig::none()
        },
        _ => FaultConfig {
            crashes: vec![crash(5, 100, 2000)],
            partitions: vec![PartitionSpec {
                at: SimTime::from_millis(400),
                heal_at: SimTime::from_millis(2200),
                minority: vec![1, 2],
            }],
            ..FaultConfig::none()
        },
    }
}

/// Satellite regression: cross-channel handoff is exactly-once under
/// crash/partition schedules. For every transfer, the key's value must
/// end up on exactly one channel — the destination (commit record
/// present, source escrowed) or the source (restored, no commit
/// record) — with no duplicated or lost value, and every channel's
/// replicas must reconverge byte-identically.
#[test]
fn transfers_are_exactly_once_under_crash_and_partition_sweeps() {
    for case in 0..3 {
        let seed = 100 + case as u64;
        let base = PipelineConfig::paper(25, seed)
            .with_gossip()
            .with_faults(sweep_faults(case))
            .with_storage(StorageConfig::memory().with_snapshot_interval(4));
        let config = MultiChannelConfig::uniform(base, 2);
        let mut net = fabriccrdt_multi_channel(config, iot_registry());
        for c in 0..2 {
            seed_channel_keys(&mut net, c);
        }
        let originals: Vec<(usize, String, Vec<u8>)> = vec![
            (0, "sweep-a".into(), br#"{"doc":{"n":"1"}}"#.to_vec()),
            (1, "sweep-b".into(), br#"{"doc":{"n":"2"}}"#.to_vec()),
            (0, "sweep-c".into(), br#"{"doc":{"n":"3"}}"#.to_vec()),
        ];
        for (c, key, value) in &originals {
            net.seed_state(*c, key.clone(), value.clone());
        }
        // A workload runs concurrently with the fault windows, so the
        // transfer phases land on channels that just survived them.
        net.run((0..2).map(|c| channel_schedule(c, 40)).collect());

        let specs = vec![
            TransferSpec {
                key: "sweep-a".into(),
                from: ChannelId(0),
                to: ChannelId(1),
                inject_failure: false,
                destination_down: false,
            },
            TransferSpec {
                key: "sweep-b".into(),
                from: ChannelId(1),
                to: ChannelId(0),
                inject_failure: false,
                destination_down: false,
            },
            TransferSpec {
                key: "sweep-c".into(),
                from: ChannelId(0),
                to: ChannelId(1),
                inject_failure: true,
                destination_down: false,
            },
        ];
        let reports = net.execute_transfers(&specs);
        assert_eq!(reports.len(), 3);

        for (report, (_, key, original)) in reports.iter().zip(&originals) {
            let source = net.simulation(report.from.0 as usize).peer().state();
            let dest = net.simulation(report.to.0 as usize).peer().state();
            let on_dest = dest.value(key.as_str()).is_some();
            let committed = dest.value(&report.id.commit_key()).is_some();
            match report.outcome {
                TransferOutcome::Committed => {
                    assert!(committed, "case {case} {key}: commit record missing");
                    assert!(on_dest, "case {case} {key}: value lost in transit");
                    assert_eq!(
                        json(dest.value(key.as_str()).unwrap()),
                        json(original),
                        "case {case} {key}: destination value mutated"
                    );
                    assert_eq!(
                        source.value(key.as_str()).unwrap(),
                        XferChaincode::escrow_marker(report.id).as_slice(),
                        "case {case} {key}: source must stay escrowed (no duplicate)"
                    );
                    assert!(
                        source.value(&report.id.abort_key()).is_none(),
                        "case {case} {key}: committed transfer must not abort"
                    );
                }
                TransferOutcome::Aborted => {
                    assert!(!committed, "case {case} {key}: aborted but committed");
                    assert!(!on_dest, "case {case} {key}: duplicated onto dest");
                    assert_eq!(
                        source.value(key.as_str()).unwrap(),
                        original.as_slice(),
                        "case {case} {key}: abort must restore the source value"
                    );
                }
            }
        }
        // The injected failure must abort; the clean handoffs commit.
        assert_eq!(reports[0].outcome, TransferOutcome::Committed);
        assert_eq!(reports[1].outcome, TransferOutcome::Committed);
        assert_eq!(reports[2].outcome, TransferOutcome::Aborted);
        net.verify_converged();
    }
}
