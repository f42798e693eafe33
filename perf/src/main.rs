//! The host-clock benchmark of the FabricCRDT reproduction. README.md in
//! this directory is the manual; `BENCHMARK.json` at the repository root
//! is the contract this binary is run under.
//!
//! One process measures one workload in one mode (`--trace 0`: the
//! end-to-end metrics, tracing off; `--trace 1`: the per-layer metrics
//! from traced repetitions and layer probes) and prints the result
//! object as its last line. Asked for more than that, it re-executes
//! itself once per workload and mode, so that one workload's peak
//! memory never leaks into the next.

mod metrics;
mod probes;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use fabriccrdt::CrdtValidator;
use fabriccrdt_fabric::validator::FabricValidator;
use fabriccrdt_jsoncrdt::json::Value;

use metrics::{object, Values, DEFAULT_SEED, RUN_SECONDS};
use probes::Probes;
use stats::Spread;
use trace::{NameTotal, Span, Tracer};
use workload::{repetition, Fidelity, Options, Repetition, Workload};

/// Timed repetitions a full run never goes below, however slow the host.
const MIN_TIMED: usize = 15;
/// Untraced/traced repetition pairs a full traced run never goes below.
const MIN_TRACED_PAIRS: usize = 5;
/// Repetitions (or pairs) of a `--smoke` run.
const SMOKE_REPS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    /// `None`: both modes.
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: fabriccrdt-perf [--workload <name>]... [--seed <n>] [--seconds <n>] \
         [--trace <0|1>] [--smoke] [--out <dir>] | --benchmark-json\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
                if !args.workloads.contains(&workload) {
                    args.workloads.push(workload);
                }
            }
            "--seed" => {
                let seed = value()?;
                // A negative seed is as good a seed as its bit pattern.
                args.seed = seed
                    .parse()
                    .or_else(|_| seed.parse::<i64>().map(|s| s as u64))
                    .map_err(|_| format!("--seed needs a whole number\n{}", usage()))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| format!("--seconds needs a whole number\n{}", usage()))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1\n{}", usage())),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--benchmark-json" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", metrics::benchmark_json().to_pretty_string());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match (args.workloads.as_slice(), args.trace) {
        ([workload], Some(traced)) => measure(*workload, traced, &args),
        _ => fan_out(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Re-executes this binary once per workload and mode, passing its
/// output through.
fn fan_out(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    for workload in &args.workloads {
        for &traced in modes {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.smoke {
                command.arg("--smoke");
            }
            let status = command
                .status()
                .map_err(|e| format!("cannot re-execute {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {}) {status}",
                    workload.name(),
                    traced as u8
                ));
            }
        }
    }
    Ok(())
}

/// A directory removed when the run ends, however it ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(out: &Path) -> Result<ScratchDir, String> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs repetitions one after another, each with a fresh sub-directory
/// of the scratch directory, and holds every later one to the first
/// one's simulated-time results and ledger bytes.
struct Runner<'a> {
    workload: Workload,
    args: &'a Args,
    scratch: &'a ScratchDir,
    reference: Option<Fidelity>,
    repetitions: u64,
}

impl Runner<'_> {
    fn run(&mut self, options: Options<'_>) -> Result<Repetition, String> {
        let dir = self.scratch.0.join(format!("rep-{}", self.repetitions));
        self.repetitions += 1;
        let rep = repetition(
            self.workload,
            self.args.seed,
            Options {
                smoke: self.args.smoke,
                ..options
            },
            &dir,
        );
        let _ = std::fs::remove_dir_all(&dir);
        let rep = rep?;
        match &self.reference {
            None => self.reference = Some(rep.fidelity.clone()),
            Some(reference) if *reference != rep.fidelity => {
                return Err(format!(
                    "repetition {} is not bit-identical to the first:\n  first {reference:?}\n  now   {:?}",
                    self.repetitions, rep.fidelity
                ));
            }
            Some(_) => {}
        }
        Ok(rep)
    }
}

fn measure(workload: Workload, traced: bool, args: &Args) -> Result<(), String> {
    let scratch = ScratchDir::create(&args.out)?;
    let mut runner = Runner {
        workload,
        args,
        scratch: &scratch,
        reference: None,
        repetitions: 0,
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{} seed {} trace {}{} ({threads} hardware threads)",
        workload.name(),
        args.seed,
        traced as u8,
        if args.smoke { " smoke" } else { "" },
    );
    let values = if traced {
        measure_layers(&mut runner)?
    } else {
        measure_end_to_end(&mut runner)?
    };
    let reference = runner.reference.as_ref().expect("the warm-up ran");
    println!(
        "  {} repetitions bit-identical: {} of {} committed, {} latency samples, ledger sha256 {}",
        runner.repetitions,
        reference.committed,
        reference.submitted,
        reference.latency_samples,
        reference.ledger_digest
    );
    for (name, unit) in metrics::catalogue(traced) {
        if let Some(value) = values.get(name) {
            println!("  {name:<38} {value:>16.4} {unit}");
        }
    }
    // Transactions whose outcome differs from the one the workload's
    // design dictates fail the run above, so none is left to count here;
    // by-design MVCC aborts are reported as `committed_tx_share`.
    let attempted = reference.submitted * runner.repetitions;
    let line = metrics::result_line(traced, true, attempted, 0, &values)?;
    println!("{}", line.to_compact_string());
    Ok(())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Whether another repetition is due: `done` are behind us, at least
/// `floor` are wanted, and beyond that the time budget decides.
fn another(args: &Args, started: Instant, budget: Duration, done: usize, floor: usize) -> bool {
    if args.smoke {
        done < SMOKE_REPS
    } else {
        done < floor || started.elapsed() < budget
    }
}

fn measure_end_to_end(runner: &mut Runner<'_>) -> Result<Values, String> {
    let workload = runner.workload;
    let started = Instant::now();
    let budget = Duration::from_secs(runner.args.seconds);
    let warm_up = runner.run(Options {
        deep_checks: true,
        ..Options::default()
    })?;
    if workload == Workload::BigstatePipelined {
        // The runner holds the twin to the warm-up's ledger digest.
        runner
            .run(Options {
                sequential_twin: true,
                ..Options::default()
            })
            .map_err(|e| format!("Sequential run of the same schedule: {e}"))?;
    }
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    while another(runner.args, started, budget, walls.len(), MIN_TIMED) {
        let rep = runner.run(Options::default())?;
        setups.push(rep.setup_s);
        walls.push(rep.wall_s);
    }
    let fidelity = warm_up.fidelity;
    let wall = Spread::of(&walls);
    println!(
        "  {} timed repetitions: wall fastest {:.4} s, median {:.4} s, quartiles {:.4}-{:.4} s",
        walls.len(),
        wall.fastest,
        wall.median,
        wall.q1,
        wall.q3
    );
    let in_order: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  walls in order, s: {}", in_order.join(" "));
    Ok(Values::from([
        ("setup_s", Spread::of(&setups).fastest),
        ("host_tx_per_s", fidelity.committed as f64 / wall.fastest),
        ("peak_rss_mib", peak_rss_mib()?),
        (
            "committed_tx_share",
            fidelity.committed as f64 / fidelity.submitted as f64,
        ),
        ("sim_tx_per_s", fidelity.sim_tx_per_s),
        ("sim_latency_ms_mean", fidelity.sim_latency_ms_mean),
        ("sim_latency_ms_p95", fidelity.sim_latency_ms_p95),
        ("sim_committed_tx", fidelity.committed as f64),
    ]))
}

fn measure_layers(runner: &mut Runner<'_>) -> Result<Values, String> {
    let workload = runner.workload;
    let started = Instant::now();
    // The probes get the other half.
    let budget = Duration::from_secs(runner.args.seconds) / 2;
    let tracer = Tracer::new();
    // The warm-up also keeps the run's blocks and final state for the
    // probes; its own timings and spans are not used.
    let warm_up = runner.run(Options {
        deep_checks: true,
        tracer: Some(&tracer),
        capture: true,
        ..Options::default()
    })?;
    tracer.take();

    let (mut walls, mut gens) = (Vec::new(), Vec::new());
    let mut best: Option<(Repetition, Vec<Span>)> = None;
    while another(runner.args, started, budget, walls.len(), MIN_TRACED_PAIRS) {
        let plain = runner.run(Options::default())?;
        walls.push(plain.wall_s);
        gens.push(plain.schedule_gen_s);
        let rep = runner.run(Options {
            tracer: Some(&tracer),
            ..Options::default()
        })?;
        let spans = tracer.take();
        if best.as_ref().is_none_or(|(b, _)| rep.wall_s < b.wall_s) {
            best = Some((rep, spans));
        }
    }
    let (rep, spans) = best.expect("at least one traced repetition ran");
    let wall = Spread::of(&walls);
    let totals = trace::totals_by_name(&spans);
    let mut values = span_and_counter_values(&rep, &totals);
    values.extend([
        ("workload.schedule_gen_ms", Spread::of(&gens).fastest * 1e3),
        ("host.wall_s_median", wall.median),
        ("host.wall_s_iqr", wall.iqr()),
        ("trace.spans", spans.len() as f64),
        (
            "trace.overhead_share",
            (rep.wall_s - wall.fastest) / wall.fastest,
        ),
    ]);

    let probes = Probes {
        artifacts: &warm_up.artifacts,
        crdt_aware: workload.is_crdt(),
        best_wall_s: wall.fastest,
        scratch: &runner.scratch.0.join("probes"),
    };
    if workload.is_crdt() {
        probes.run(CrdtValidator::new, &mut values)?;
    } else {
        probes.run(FabricValidator::new, &mut values)?;
    }
    println!(
        "  {} untraced and traced repetitions: wall fastest {:.4} s untraced, {:.4} s traced",
        walls.len(),
        wall.fastest,
        rep.wall_s
    );
    write_trace(runner, &rep, &spans, &totals)?;
    Ok(values)
}

/// `a / b`, or 0 when there is nothing to divide by: a layer the
/// deployment does not have did no work.
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics read off one traced repetition: its spans'
/// totals by name and its `RunMetrics` counters.
fn span_and_counter_values(rep: &Repetition, totals: &BTreeMap<&'static str, NameTotal>) -> Values {
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_ns = |name: &str| per(total(name).total_ns as f64, total(name).count as f64);
    let c = &rep.counters;
    let blocks = c.blocks as f64;
    let root = total(trace::ROOT);
    let deliver = total(trace::DELIVER);
    Values::from([
        ("fabric.execute_ns_per_tx", mean_ns(trace::EXECUTE)),
        ("fabric.prepare_ns_per_tx", mean_ns(trace::PREPARE)),
        (
            "fabric.validate_us_per_block",
            per(total(trace::VALIDATE).total_ns as f64 / 1e3, blocks),
        ),
        (
            "fabric.replica_validate_us_per_block",
            mean_ns(trace::VALIDATE_REPLICA) / 1e3,
        ),
        (
            "fabric.driver_self_share",
            per(root.self_ns as f64, root.total_ns as f64),
        ),
        ("gossip.deliver_us_per_block", mean_ns(trace::DELIVER) / 1e3),
        (
            "gossip.self_us_per_block",
            per(deliver.self_ns as f64 / 1e3, deliver.count as f64),
        ),
        (
            "ordering.submit_ns_per_tx",
            per(
                total(trace::ORDER).total_ns as f64,
                rep.fidelity.submitted as f64,
            ),
        ),
        ("fabric.blocks", blocks),
        ("fabric.retries", c.retries as f64),
        ("fabric.early_aborts", c.early_aborts as f64),
        (
            "fabric.wasted_validation_work",
            c.wasted_validation_work as f64,
        ),
        ("fabric.blocks_overlapped", c.blocks_overlapped as f64),
        ("fabric.blocks_stalled", c.blocks_stalled as f64),
        (
            "jsoncrdt.cache_hit_ratio",
            per(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        ("jsoncrdt.cache_evictions", c.cache_evictions as f64),
        (
            "gossip.messages_per_block",
            per(c.gossip_messages as f64, blocks),
        ),
        (
            "gossip.redundant_ratio",
            per(c.gossip_redundant as f64, c.gossip_received as f64),
        ),
        ("gossip.catchup_bytes", c.catchup_bytes as f64),
        ("gossip.snapshot_transfers", c.snapshot_transfers as f64),
        (
            "ordering.messages_per_block",
            per(c.raft_messages as f64, blocks),
        ),
        ("ordering.elections", c.elections as f64),
        ("ordering.leader_changes", c.leader_changes as f64),
        ("ordering.submission_retries", c.submission_retries as f64),
        ("ordering.failover_stall_sim_ms", c.longest_commit_gap_ms),
        ("channel.run_ms", rep.channel_times.run_s * 1e3),
        (
            "channel.transfer_ms_mean",
            per(
                rep.channel_times.transfers_s * 1e3,
                (c.transfers_committed + c.transfers_aborted) as f64,
            ),
        ),
        ("channel.verify_ms", rep.channel_times.verify_s * 1e3),
        ("channel.transfers_committed", c.transfers_committed as f64),
        ("channel.transfers_aborted", c.transfers_aborted as f64),
    ])
}

/// Writes the fastest traced repetition's spans, and each span name's
/// totals, to `<out>/trace-<workload>.json`.
fn write_trace(
    runner: &Runner<'_>,
    rep: &Repetition,
    spans: &[Span],
    totals: &BTreeMap<&'static str, NameTotal>,
) -> Result<(), String> {
    let number = |n: u64| metrics::number(n as f64);
    let optional = |n: Option<u64>| n.map_or(Value::Null, number);
    let document = object([
        ("workload", Value::string(runner.workload.name())),
        ("seed", number(runner.args.seed)),
        ("wall_ns", number((rep.wall_s * 1e9) as u64)),
        (
            "totals",
            object(totals.iter().map(|(name, t)| {
                (
                    *name,
                    object([
                        ("count", number(t.count)),
                        ("total_ns", number(t.total_ns)),
                        ("self_ns", number(t.self_ns)),
                    ]),
                )
            })),
        ),
        (
            "spans",
            Value::list(spans.iter().map(|s| {
                object([
                    ("id", number(s.id.into())),
                    ("parent", optional(s.parent.map(u64::from))),
                    ("name", Value::string(s.name)),
                    ("layer", Value::string(s.layer())),
                    ("start_ns", number(s.start_ns)),
                    ("end_ns", number(s.end_ns)),
                    ("block", optional(s.block)),
                    // Eight id bytes do not fit a JSON number.
                    (
                        "tx",
                        s.tx.map_or(Value::Null, |t| Value::string(format!("{t:016x}"))),
                    ),
                ])
            })),
        ),
    ]);
    let path = runner
        .args
        .out
        .join(format!("trace-{}.json", runner.workload.name()));
    std::fs::write(&path, document.to_compact_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_every_workload_both_modes_seed_42() {
        let args = parse(&[]).expect("no arguments is valid").expect("a run");
        assert_eq!(args.workloads, Workload::ALL);
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (42, RUN_SECONDS, None)
        );
        assert!(!args.smoke);
        assert!(args.out.ends_with("out"));
    }

    #[test]
    fn the_driver_form_selects_one_workload_and_mode() {
        let args = parse(&[
            "--workload",
            "mvcc-reorder-retry",
            "--seed",
            "-7",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--workload",
            "mvcc-reorder-retry",
        ])
        .expect("valid")
        .expect("a run");
        assert_eq!(args.workloads, [Workload::MvccReorderRetry]);
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (-7i64 as u64, 3, Some(true))
        );
    }

    #[test]
    fn unknown_flags_and_workloads_are_refused_with_the_valid_names() {
        for bad in [
            &["--workload", "hotkey"][..],
            &["--frobnicate"],
            &["--trace", "2"],
            &["--seed"],
            &["--seconds", "soon"],
        ] {
            let message = parse(bad).err().expect("refused");
            for workload in Workload::ALL {
                assert!(message.contains(workload.name()), "{message}");
            }
        }
    }
}
