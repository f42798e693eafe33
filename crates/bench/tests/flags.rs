//! The bench binaries reject bad arguments the way the CLI does: an
//! `error:` line and exit status 1, not a panic (status 101).

use std::process::Command;

#[test]
fn bad_value_and_unknown_flag_exit_1_with_an_error_line() {
    for (args, needle) in [
        (["--txs", "abc"], "--txs expects a number"),
        (["--txs", "0"], "--txs must be at least 1"),
        (["--rate", "-3"], "--rate must be a finite number above 0"),
        (
            ["--tsx", "10"],
            "unknown flag --tsx; accepted: --txs, --seed",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
            .args(args)
            .output()
            .expect("fig3 spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the figure anyway");
    }
}
