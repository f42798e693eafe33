//! The `bench` binary rejects bad arguments the way the CLI does: an
//! `error:` line and exit status 1, not a panic (status 101) — and an
//! experiment accepts only the flags it reads.

use std::process::Command;

#[test]
fn bad_value_and_unknown_flag_exit_1_with_an_error_line() {
    let cases: [(&[&str], &str); 9] = [
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
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("bench spawns");
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
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["fig7", "--txs", "20", "--csv", "/nonexistent-dir/fig7.csv"])
        .output()
        .expect("bench spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with("error: could not write CSV"), "{stderr}");
}

/// A directory where the artifact should go: a path no user can write,
/// root included.
#[test]
fn an_unwritable_artifact_path_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("bench-artifact-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("BENCH_catchup_storage.json")).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["catchup_storage", "--txs", "100"])
        .current_dir(&dir)
        .output()
        .expect("bench spawns");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("error: could not write BENCH_catchup_storage.json"),
        "{stderr}"
    );
}
