//! Integration tests for the `fabriccrdt-repro` CLI binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fabriccrdt-repro"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let output = cli().args(args).output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = run(&["--help"]);
    assert!(ok);
    for command in ["experiment", "compare", "export-chain", "verify-chain"] {
        assert!(stdout.contains(command), "missing {command} in {stdout}");
    }
}

#[test]
fn no_args_prints_usage() {
    let (ok, stdout, _) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("reproduction CLI"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
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
    let (ok, _, stderr) = run(&["experiment", "--system", "bitcoin"]);
    assert!(!ok);
    assert!(stderr.contains("unknown system"));
}

#[test]
fn experiment_rejects_bad_number() {
    let (ok, _, stderr) = run(&["experiment", "--txs", "many"]);
    assert!(!ok);
    assert!(stderr.contains("expects a number"));
}

/// Bad input from outside the program is an `error:` line and a
/// non-zero exit, never a panic from a library precondition.
fn assert_clean_error(args: &[&str], expected: &str) {
    let (ok, stdout, stderr) = run(args);
    assert!(!ok, "{args:?} must fail, printed {stdout}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
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
        ("--conflicts", "101"),
        ("--writes", "0"),
    ] {
        assert_clean_error(&["experiment", "--txs", "10", flag, value], flag);
    }
}

#[test]
fn compare_with_no_transactions_prints_na_latencies() {
    let (ok, stdout, stderr) = run(&["compare", "--txs", "0"]);
    assert!(ok, "{stderr}");
    // One row per system: round, system, rate, tput, avg-lat, p95-lat, …
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains(" 300 ")).collect();
    assert_eq!(rows.len(), 3, "{stdout}");
    for row in rows {
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(
            &cells[4..6],
            ["n/a", "n/a"],
            "avg and p95 of nothing: {row}"
        );
    }
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
    let dir = std::env::temp_dir().join(format!("fabriccrdt-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
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
    let (ok, _, stderr) = run(&["verify-chain", "/nonexistent/chain.bin"]);
    assert!(!ok);
    assert!(stderr.contains("reading"));
}
