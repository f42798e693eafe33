//! The `bench` binary from outside: every command it lists, and bad
//! input rejected as an `error:` line with exit status 1, never a panic
//! (status 101). A command accepts only the flags it reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    text(bench().args(args).output().expect("binary runs"))
}

fn text(output: Output) -> (bool, String, String) {
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A fresh directory for a run that writes files into its working
/// directory; the caller removes it.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Bad input from outside the program is an `error:` line and exit
/// status 1, never a panic from a library precondition.
fn assert_clean_error(args: &[&str], expected: &str) {
    assert_clean_error_in(&std::env::temp_dir(), args, expected);
}

fn assert_clean_error_in(dir: &Path, args: &[&str], expected: &str) {
    let output = bench()
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    let code = output.status.code();
    let (_, stdout, stderr) = text(output);
    assert_eq!(
        code,
        Some(1),
        "{args:?} must fail, printed {stdout}{stderr}"
    );
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with("error: "), "{args:?}: {stderr}");
    assert!(last.contains(expected), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn help_lists_commands() {
    for flag in ["--help", "-h", "help"] {
        let (ok, stdout, _) = run(&[flag]);
        assert!(ok, "{flag}");
        let listed: Vec<&str> = stdout
            .lines()
            .filter_map(|line| line.strip_prefix("  "))
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        assert_eq!(
            listed,
            [
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "tables",
                "ablation",
                "zipf",
                "partition_heal",
                "orderer_failover",
                "catchup_storage",
                "multi_channel",
                "adversarial",
                "experiment",
                "compare",
                "export-chain",
                "verify-chain",
            ],
            "{flag}: {stdout}"
        );
    }
}

#[test]
fn no_args_prints_usage() {
    assert_clean_error(&[], "usage: bench <experiment> [flags]");
}

#[test]
fn unknown_command_fails() {
    assert_clean_error(&["frobnicate"], "unknown experiment");
}

#[test]
fn experiment_runs_and_reports() {
    let (ok, stdout, _) = run(&[
        "experiment",
        "--system",
        "fabriccrdt",
        "--txs",
        "200",
        "--conflicts",
        "100",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("system      : FabricCRDT"));
    assert!(stdout.contains("successful  : 200"));
    assert!(stdout.contains("failed      : 0"));
}

#[test]
fn experiment_rejects_bad_system() {
    assert_clean_error(&["experiment", "--system", "bitcoin"], "unknown system");
}

#[test]
fn experiment_rejects_bad_number() {
    assert_clean_error(&["experiment", "--txs", "many"], "expects a number");
}

#[test]
fn typoed_flag_is_rejected_with_the_accepted_list() {
    assert_clean_error(&["experiment", "--blok-size", "10"], "--block-size");
    assert_clean_error(&["compare", "--tsx", "10"], "accepted: --txs, --seed");
    assert_clean_error(&["verify-chain", "x", "--txs", "1"], "accepted: none");
}

#[test]
fn experiment_rejects_out_of_range_values() {
    for (flag, value) in [
        ("--block-size", "0"),
        ("--rate", "0"),
        ("--rate", "-5"),
        ("--rate", "nan"),
        ("--rate", "inf"),
        // The last arrival would lie past what simulated time can hold.
        ("--rate", "1e-15"),
        ("--conflicts", "101"),
        ("--writes", "0"),
        ("--json-depth", "257"),
    ] {
        assert_clean_error(&["experiment", "--txs", "10", flag, value], flag);
    }
}

#[test]
fn compare_rejects_zero_transactions() {
    assert_clean_error(&["compare", "--txs", "0"], "--txs must be at least 1");
    assert_clean_error(&["experiment", "--txs", "0"], "--txs must be at least 1");
}

#[test]
fn compare_prints_all_three_systems() {
    let (ok, stdout, _) = run(&["compare", "--txs", "300"]);
    assert!(ok, "{stdout}");
    for system in ["Fabric", "Fabric++", "FabricCRDT"] {
        assert!(stdout.contains(system), "missing {system}");
    }
}

#[test]
fn export_then_verify_chain() {
    let dir = scratch_dir("chain");
    let path = dir.join("chain.bin");
    let path_str = path.to_str().unwrap();

    let (ok, stdout, stderr) = run(&["export-chain", path_str, "--txs", "120"]);
    assert!(ok, "export failed: {stderr}");
    assert!(stdout.contains("wrote"));

    let (ok, stdout, stderr) = run(&["verify-chain", path_str]);
    assert!(ok, "verify failed: {stderr}");
    assert!(stdout.contains("chain OK"));
    assert!(stdout.contains("120 transactions"));

    // Corrupt the file; verification must fail.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let (ok, _, stderr) = run(&["verify-chain", path_str]);
    assert!(!ok);
    assert!(
        stderr.contains("decoding") || stderr.contains("integrity"),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_chain_missing_file_fails_cleanly() {
    assert_clean_error(&["verify-chain", "/nonexistent/chain.bin"], "reading");
}

#[test]
fn bad_value_and_unknown_flag_exit_1_with_an_error_line() {
    let cases: [(&[&str], &str); 10] = [
        (&[], "usage: bench <experiment> [flags]"),
        (
            &["fig8"],
            "unknown experiment \"fig8\"; expected one of: fig3",
        ),
        (&["fig3", "--txs", "abc"], "--txs expects a number"),
        (&["fig3", "--txs", "0"], "--txs must be at least 1"),
        (
            &["fig3", "--tsx", "10"],
            "unknown flag --tsx; accepted: --txs, --seed",
        ),
        (&["fig3", "--keys", "5"], "unknown flag --keys"),
        (
            &["tables", "--csv", "x"],
            "unknown flag --csv; accepted: --txs, --seed",
        ),
        (
            &["partition_heal", "--txs", "5"],
            "unknown flag --txs; accepted: none",
        ),
        (
            &["zipf", "--rate", "-3"],
            "--rate must be a finite number above 0",
        ),
        // `--block-size` is the one name for the maximum transactions
        // per block.
        (&["zipf", "--block-cut", "5"], "unknown flag --block-cut"),
    ];
    for (args, needle) in cases {
        let out = bench().args(args).output().expect("bench spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the experiment anyway");
    }
}

#[test]
fn an_unwritable_csv_path_fails_the_run() {
    assert_clean_error(
        &["fig7", "--txs", "20", "--csv", "/nonexistent-dir/fig7.csv"],
        "error: could not write CSV",
    );
}

/// A directory where the artifact should go: a path no user can write,
/// root included.
#[test]
fn an_unwritable_artifact_path_fails_the_run() {
    let dir = scratch_dir("artifact");
    std::fs::create_dir_all(dir.join("BENCH_catchup_storage.json")).expect("temp dir");
    assert_clean_error_in(
        &dir,
        &["catchup_storage", "--txs", "100"],
        "error: could not write BENCH_catchup_storage.json",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An experiment's self-check tests a claim about its default run that
/// these flags make false: the run ends as an error, not a panic.
#[test]
fn self_checks_the_flags_make_false_exit_1() {
    let dir = scratch_dir("self-checks");
    for (args, expected) in [
        (
            &["orderer_failover", "--txs", "20"][..],
            "the run commits on both sides of the kill",
        ),
        (&["adversarial", "--txs", "130"], "every attack fires"),
        (&["zipf", "--txs", "100"], "below always-reorder"),
        (
            &["zipf", "--keys", "10000", "--txs", "600"],
            "below always-reorder",
        ),
        (
            &["zipf", "--txs", "20", "--rate", "1"],
            "FabricCRDT goodput",
        ),
    ] {
        assert_clean_error_in(&dir, args, expected);
    }
    // zipf writes its table and artifact before it checks them.
    assert!(dir.join("BENCH_zipf_conflict.json").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

/// `--block-size` is the one flag for the maximum transactions per
/// block: without it a cell runs at its system's best size and each
/// zipf arm at its own; with it every arm cuts there.
#[test]
fn block_size_sets_every_block_cut() {
    let (ok, stdout, _) = run(&["experiment", "--system", "fabric", "--txs", "10"]);
    assert!(ok && stdout.contains("block size  : 400"), "{stdout}");
    let dir = scratch_dir("block-size");
    let artifact = dir.join("BENCH_zipf_conflict.json");
    for (flags, cuts) in [(&[][..], (25, 400)), (&["--block-size", "5"], (5, 5))] {
        let out = bench()
            .args(["zipf", "--txs", "20"])
            .args(flags)
            .current_dir(&dir)
            .output()
            .expect("bench spawns");
        assert!(out.status.success(), "{flags:?}");
        let json = std::fs::read_to_string(&artifact).expect("artifact written");
        assert!(
            json.contains(&format!("\"crdt_block_cut\": {},", cuts.0)),
            "{json}"
        );
        assert!(
            json.contains(&format!("\"fabric_block_cut\": {},", cuts.1)),
            "{json}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
