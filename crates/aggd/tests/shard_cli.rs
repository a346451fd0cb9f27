//! The one scenario shard writer: spawn the real `aggd-shard` and pin
//! what it writes and what it refuses.
//!
//! Without `--connect` a shard's stream goes to stdout, and it must be
//! the very bytes `scenario::shard_stream_on` returns for every kind in
//! both wire formats: that identity is what lets the file smoke, the
//! socket smoke and the daemon fold share their goldens. A command line
//! that cannot do what it says exits 2 and names the problem before
//! any trace is generated.

use hhh_aggd::scenario::{self, Kind};
use hhh_core::WireFormat;
use hhh_nettypes::TimeSpan;
use std::process::{Command, Output};

fn aggd_shard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aggd-shard")).args(args).output().expect("aggd-shard runs")
}

#[test]
fn stdout_is_the_library_stream_for_every_kind_in_both_formats() {
    let horizon = TimeSpan::from_secs(10);
    let trace = scenario::scenario_trace(horizon);
    for kind in Kind::ALL {
        for format in [WireFormat::Json, WireFormat::Binary] {
            // JSON is the default; binary is asked for.
            let flag: &[&str] = match format {
                WireFormat::Json => &[],
                WireFormat::Binary => &["--format", "binary"],
            };
            let out = aggd_shard(&[&[kind.label(), "2", "1", "10"], flag].concat());
            let what = format!("{} {}", kind.label(), format.label());
            assert!(out.status.success(), "{what}: {}", String::from_utf8_lossy(&out.stderr));
            let expected = scenario::shard_stream_on(kind, &trace, horizon, 2, 1, format);
            assert!(!expected.is_empty(), "{what}: the reference stream is empty");
            assert!(
                out.stdout == expected,
                "{what}: stdout ({} bytes) is not the library stream ({} bytes)",
                out.stdout.len(),
                expected.len()
            );
        }
    }
}

#[test]
fn contradictory_or_empty_runs_exit_2_and_name_the_problem() {
    let cases: [(&[&str], &str); 6] = [
        (&["exact", "2", "0", "10", "--format", "binary", "--connect", "127.0.0.1:1"], "--format"),
        (&["exact", "2", "0", "10", "--spool", "shard0.spool"], "--spool"),
        (&["exact", "2", "0", "10", "--id", "7"], "--id"),
        (&["exact", "2", "0", "10", "--die-after", "3"], "--die-after"),
        // Under one 5 s window no frame is ever written, so a socket
        // writer would never even connect.
        (&["exact", "3", "0", "4", "--connect", "127.0.0.1:1"], "one report window (5s)"),
        (&["exact", "3", "0", "4"], "one report window (5s)"),
    ];
    for (args, names) in cases {
        let out = aggd_shard(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
        assert!(stderr.contains(names), "{args:?} must name `{names}`: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote a stream");
    }
}
