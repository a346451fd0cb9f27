//! The experiment binaries refuse an argument that is neither a mode nor
//! a scale at argument parsing, before they run anything.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `bin` with `args` in a fresh temporary directory, returned so
/// the caller can check what the run left behind.
fn run_in_tempdir(bin: &str, name: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("hhh-experiments-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(bin).args(args).current_dir(&dir).output().expect("binary runs");
    (out, dir)
}

#[test]
fn scale_rejects_a_mode_typo_instead_of_running_the_default_sweep() {
    let (out, dir) = run_in_tempdir(env!("CARGO_BIN_EXE_scale"), "scale", &["fairnes", "smoke"]);
    assert_eq!(out.status.code(), Some(2), "a mode typo must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`fairnes`"), "the error names the argument: {stderr}");
    assert!(!dir.join("smoke").exists(), "no JSON output is written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig2_rejects_a_scale_typo() {
    let (out, dir) = run_in_tempdir(env!("CARGO_BIN_EXE_fig2"), "fig2", &["smok"]);
    assert_eq!(out.status.code(), Some(2), "a scale typo must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`smok`"), "the error names the argument: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
