//! The one scenario shard writer: spawn the real `aggd-shard` and pin
//! what it writes and what it refuses.
//!
//! Without `--connect` a shard's stream goes to stdout, and it must be
//! the very bytes `scenario::shard_stream_on` returns for every kind in
//! both wire formats: that identity is what lets the file smoke, the
//! socket smoke and the daemon fold share their goldens. The TDBF
//! streams at the deployed geometry are pinned by digest. A command line
//! that cannot do what it says exits 2 and names the problem before
//! any trace is generated.

use hhh_aggd::scenario::{self, Kind};
use hhh_core::snapshot::binary::fnv1a;
use hhh_core::WireFormat;
use hhh_nettypes::TimeSpan;
use std::process::{Command, Output, Stdio};

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

/// FNV-1a-64 digests of `aggd-shard tdbf-hhh 2 <shard> 30` stdout, as
/// `(shard, format, bytes, digest)`. A TDBF stream at the deployed
/// geometry (5 levels × 4096 × 4 cells, 512 candidates per level):
/// shard 0's host-level candidate table fills up at about 27 s, so the
/// eviction scan shapes the last frame. Any change to observe, merge,
/// eviction or the cell encoder that moves a byte moves a digest.
const TDBF_DEPLOYED_DIGESTS: [(&str, WireFormat, usize, u64); 4] = [
    ("0", WireFormat::Json, 4_932_739, 0x6ADE_F992_9E59_DF98),
    ("0", WireFormat::Binary, 612_712, 0xDA19_F785_B895_1F4E),
    ("1", WireFormat::Json, 4_861_140, 0x9ECD_8940_341D_0945),
    ("1", WireFormat::Binary, 567_325, 0x6250_FD03_210C_9BCA),
];

#[test]
fn deployed_geometry_tdbf_streams_are_pinned() {
    let runs: Vec<_> = TDBF_DEPLOYED_DIGESTS
        .iter()
        .map(|&(shard, format, ..)| {
            Command::new(env!("CARGO_BIN_EXE_aggd-shard"))
                .args([Kind::Tdbf.label(), "2", shard, "30", "--format", format.label()])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("aggd-shard starts")
        })
        .collect();
    for (run, &(shard, format, len, digest)) in runs.into_iter().zip(&TDBF_DEPLOYED_DIGESTS) {
        let out = run.wait_with_output().expect("aggd-shard runs");
        let what = format!("tdbf-hhh shard {shard} {}", format.label());
        assert!(out.status.success(), "{what}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout.len(), len, "{what}: stream length");
        assert_eq!(fnv1a(&out.stdout), digest, "{what}: stream digest");
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
