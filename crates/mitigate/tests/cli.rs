//! The `hhh-mitigate` binary refuses a `--kind` that names no detector
//! kind at argument parsing, before it polls any daemon.

use std::process::Command;

#[test]
fn unknown_kind_fails_at_argument_parsing() {
    let out = Command::new(env!("CARGO_BIN_EXE_hhh-mitigate"))
        .args(["watch", "--daemon-http", "127.0.0.1:9", "--cycles", "1", "--kind", "exact/0of2"])
        .output()
        .expect("hhh-mitigate runs");
    assert!(!out.status.success(), "an unknown --kind must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`exact/0of2`"), "the error names the label: {stderr}");
}
