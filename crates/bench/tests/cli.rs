//! The binary's strict-flag path: an unknown `--flag` is a usage error
//! (exit 2) that names the flags the subcommand does accept. `--exec-mode`
//! existed until PR 12 and must now be rejected like any other.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_with_the_valid_flag_list() {
    for args in [
        &["run", "--exec-mode", "vectorized"][..],
        &["run", "--bogus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dipbench"))
            .args(args)
            .output()
            .expect("spawn dipbench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {}", args[1]))
                && stderr.contains("--engine")
                && stderr.contains("--workers"),
            "{args:?}: {stderr}"
        );
    }
}
