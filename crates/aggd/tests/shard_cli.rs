//! The one scenario shard writer: spawn the real `aggd-shard` and pin
//! what it writes and what it refuses.
//!
//! Without `--connect` a shard's stream goes to stdout, and it must be
//! the very bytes `scenario::shard_stream_on` returns for every kind in
//! both wire formats: that identity is what lets the file smoke, the
//! socket smoke and the daemon fold share their goldens. Every kind's
//! stream is pinned by digest. A command line that cannot do what it
//! says exits 2 and names the problem before any trace is generated.

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

/// FNV-1a-64 digests of `aggd-shard <kind> 2 <shard> 30` stdout, as
/// `(kind, shard, format, bytes, digest)`. Every kind is pinned in v1,
/// the format that carries each report line next to the state, so any
/// change that moves a reported HHH, estimate or discounted count moves
/// a digest. TDBF runs at the deployed geometry (5 levels × 4096 × 4
/// cells, 512 candidates per level) and is pinned in v2 too: shard 0's
/// host-level candidate table fills up at about 27 s, so the eviction
/// scan shapes the last frame, and any change to observe, merge,
/// eviction or the cell encoder that moves a byte moves a digest.
const DEPLOYED_DIGESTS: [(Kind, &str, WireFormat, usize, u64); 12] = [
    (Kind::Exact, "0", WireFormat::Json, 65_432, 0xE3BE_CDEC_AF0A_CB6D),
    (Kind::Exact, "1", WireFormat::Json, 60_259, 0xF0DB_C9D0_E786_EA03),
    (Kind::SsHhh, "0", WireFormat::Json, 164_349, 0xC156_3773_B9DA_9691),
    (Kind::SsHhh, "1", WireFormat::Json, 155_659, 0xD64D_AB57_0BFD_DDA4),
    (Kind::Rhhh, "0", WireFormat::Json, 138_584, 0x721B_5E43_977A_CC91),
    (Kind::Rhhh, "1", WireFormat::Json, 131_233, 0xD52B_4368_E536_15AD),
    (Kind::Tdbf, "0", WireFormat::Json, 4_597_730, 0x06F2_A211_0B87_606A),
    (Kind::Tdbf, "0", WireFormat::Binary, 459_181, 0x3065_8A9E_E0BF_7864),
    (Kind::Tdbf, "1", WireFormat::Json, 4_540_437, 0x1225_00AB_8D39_E01B),
    (Kind::Tdbf, "1", WireFormat::Binary, 420_367, 0x8EF7_BE4B_8FBE_F231),
    (Kind::MvPipe, "0", WireFormat::Json, 85_825, 0xFD59_D63C_9678_FF66),
    (Kind::MvPipe, "1", WireFormat::Json, 79_403, 0x1668_4353_0B5A_EB4E),
];

#[test]
fn deployed_streams_are_pinned() {
    let runs: Vec<_> = DEPLOYED_DIGESTS
        .iter()
        .map(|&(kind, shard, format, ..)| {
            Command::new(env!("CARGO_BIN_EXE_aggd-shard"))
                .args([kind.label(), "2", shard, "30", "--format", format.label()])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("aggd-shard starts")
        })
        .collect();
    for (run, &(kind, shard, format, len, digest)) in runs.into_iter().zip(&DEPLOYED_DIGESTS) {
        let out = run.wait_with_output().expect("aggd-shard runs");
        let what = format!("{} shard {shard} {}", kind.label(), format.label());
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
