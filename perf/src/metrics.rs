//! The metric catalogue — the one place every metric's name, unit and
//! direction is written down — and the report built from it.
//! `BENCHMARK.json` at the repository root is [`benchmark_json`]'s
//! output; a test keeps the two equal.

use std::collections::BTreeMap;

use fabriccrdt_jsoncrdt::json::{Number, Value};

use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What a user of the system would see; each may worsen by `bound` (a
/// share of the parent's median) before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// How long one driver run measures, and the seed used without `--seed`.
pub const RUN_SECONDS: u64 = 30;
pub const DEFAULT_SEED: u64 = 42;

/// The simulated-time metrics are bit-identical for one seed (the
/// benchmark fails a run in which a repetition disagrees); their bounds
/// only have to clear the spread between different seeds.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_tx_per_s", "tx/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("committed_tx_share", "ratio", Higher, 0.03),
    e2e("sim_tx_per_s", "tx/s", Higher, 0.03),
    e2e("sim_latency_ms_mean", "ms", Lower, 0.05),
    e2e("sim_latency_ms_p95", "ms", Lower, 0.05),
    e2e("sim_committed_tx", "count", Higher, 0.03),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Prefix = crate. README.md has the definition of each.
pub const PER_LAYER: [PerLayer; 63] = [
    layer("crypto.sha256_mib_per_s", "MiB/s", Higher),
    layer("crypto.sign_ns", "ns", Lower),
    layer("crypto.verify_ns", "ns", Lower),
    layer("crypto.verifies_per_tx", "count", Lower),
    layer("crypto.endorse_verify_share", "ratio", Lower),
    layer("jsoncrdt.parse_ns_per_payload", "ns", Lower),
    layer("jsoncrdt.payload_bytes_mean", "B", Lower),
    layer("jsoncrdt.merge_ns_per_tx", "ns", Lower),
    layer("jsoncrdt.cache_hit_ratio", "ratio", Higher),
    layer("jsoncrdt.cache_evictions", "count", Lower),
    layer("ledger.encode_ns_per_tx", "ns", Lower),
    layer("ledger.decode_ns_per_tx", "ns", Lower),
    layer("ledger.block_bytes_per_tx", "B", Lower),
    layer("ledger.mvcc_ns_per_tx", "ns", Lower),
    layer("ledger.state_keys", "count", Lower),
    layer("ledger.state_clone_us", "us", Lower),
    layer("ledger.aof_append_us_per_block", "us", Lower),
    layer("ledger.aof_bytes_per_tx", "B", Lower),
    layer("ledger.snapshot_encode_ms", "ms", Lower),
    layer("ledger.snapshot_bytes", "B", Lower),
    layer("ledger.compact_ms", "ms", Lower),
    layer("ledger.recover_ms", "ms", Lower),
    layer("fabric.execute_ns_per_tx", "ns", Lower),
    layer("fabric.prepare_ns_per_tx", "ns", Lower),
    layer("fabric.validate_us_per_block", "us", Lower),
    layer("fabric.replica_validate_us_per_block", "us", Lower),
    layer("fabric.cut_ns_per_tx", "ns", Lower),
    layer("fabric.reorder_us_per_batch", "us", Lower),
    layer("fabric.peer_block_us_p50", "us", Lower),
    layer("fabric.peer_block_us_p95", "us", Lower),
    layer("fabric.prevalidate_share", "ratio", Lower),
    layer("fabric.finalize_share", "ratio", Lower),
    layer("fabric.pipelined_speedup", "ratio", Higher),
    layer("fabric.blocks", "count", Lower),
    layer("fabric.txs_per_block_mean", "count", Higher),
    layer("fabric.retries", "count", Lower),
    layer("fabric.early_aborts", "count", Lower),
    layer("fabric.wasted_validation_work", "count", Lower),
    layer("fabric.blocks_overlapped", "count", Higher),
    layer("fabric.blocks_stalled", "count", Lower),
    layer("fabric.driver_self_share", "ratio", Lower),
    layer("gossip.deliver_us_per_block", "us", Lower),
    layer("gossip.self_us_per_block", "us", Lower),
    layer("gossip.messages_per_block", "count", Lower),
    layer("gossip.redundant_ratio", "ratio", Lower),
    layer("gossip.catchup_bytes", "B", Lower),
    layer("gossip.snapshot_transfers", "count", Lower),
    layer("ordering.submit_ns_per_tx", "ns", Lower),
    layer("ordering.messages_per_block", "count", Lower),
    layer("ordering.elections", "count", Lower),
    layer("ordering.leader_changes", "count", Lower),
    layer("ordering.submission_retries", "count", Lower),
    layer("ordering.failover_stall_sim_ms", "ms", Lower),
    layer("channel.run_ms", "ms", Lower),
    layer("channel.transfer_ms_mean", "ms", Lower),
    layer("channel.verify_ms", "ms", Lower),
    layer("channel.transfers_committed", "count", Higher),
    layer("channel.transfers_aborted", "count", Lower),
    layer("workload.schedule_gen_ms", "ms", Lower),
    layer("host.wall_s_median", "s", Lower),
    layer("host.wall_s_iqr", "s", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Name and unit of every metric a run in the given mode reports.
pub fn catalogue(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    let mut map = Value::empty_map();
    for (key, value) in fields {
        map.insert(key, value);
    }
    map
}

pub fn number(value: f64) -> Value {
    Value::Number(Number::new(value))
}

/// The result object a run prints as its last line: every metric of the
/// requested kind, by name, with its unit.
///
/// # Errors
///
/// Names the first catalogue metric `values` lacks, or the first value
/// that is not finite.
pub fn result_line(
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
) -> Result<Value, String> {
    let mut metrics = Value::empty_map();
    for (name, unit) in catalogue(traced) {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.insert(
            name,
            object([("value", number(value)), ("unit", Value::string(unit))]),
        );
    }
    Ok(object([
        ("correct", Value::Bool(correct)),
        ("attempted", number(attempted as f64)),
        ("failed", number(failed as f64)),
        ("metrics", metrics),
    ]))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::list(items.iter().map(|s| Value::string(*s)));
    object([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["perf"])),
        ("run_seconds", number(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::list(Workload::ALL.iter().map(|w| {
                object([
                    ("name", Value::string(w.name())),
                    ("why", Value::string(w.why())),
                ])
            })),
        ),
        (
            "end_to_end",
            Value::list(END_TO_END.iter().map(|m| {
                object([
                    ("name", Value::string(m.name)),
                    ("unit", Value::string(m.unit)),
                    ("better", Value::string(m.better.as_str())),
                    ("bound", number(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Value::list(PER_LAYER.iter().map(|m| {
                object([
                    ("name", Value::string(m.name)),
                    ("unit", Value::string(m.unit)),
                    ("better", Value::string(m.better.as_str())),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, limit: usize) -> bool {
        !name.is_empty()
            && name.len() <= limit
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name, 64), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// The committed `BENCHMARK.json` lists exactly the workloads and
    /// metrics this binary emits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read(path).expect("BENCHMARK.json at the repository root");
        assert!(committed.len() <= 64 * 1024);
        let committed = Value::from_bytes(&committed).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn result_line_round_trips_and_carries_every_metric() {
        for traced in [false, true] {
            let names: Vec<&'static str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let values: Values = names
                .iter()
                .enumerate()
                .map(|(i, name)| (*name, 0.1 + i as f64 * 1.37e-3))
                .collect();
            let line = result_line(traced, true, 1_000, 0, &values).expect("every metric given");
            let text = line.to_compact_string();
            assert!(!text.contains('\n'));
            let parsed = Value::parse(&text).expect("the result line is JSON");
            assert_eq!(parsed, line);
            let keys: Vec<&String> = parsed.as_map().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = parsed
                .get("metrics")
                .and_then(Value::as_map)
                .expect("metrics");
            assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), {
                let mut sorted = names.clone();
                sorted.sort_unstable();
                sorted
            });
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Value::as_number)
                    .expect("value");
                assert_eq!(value, values[name.as_str()], "{name} keeps all its digits");
            }
        }
    }

    #[test]
    fn result_line_refuses_missing_and_non_finite_values() {
        let mut values: Values = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values.insert("setup_s", f64::NAN);
        assert!(result_line(false, true, 1, 0, &values).is_err());
        values.remove("setup_s");
        assert!(result_line(false, true, 1, 0, &values).is_err());
    }
}
