//! Cross-process smoke: spawn the real `hhh-agg` binary on real shard
//! stream files and check its stdout against the library fold — the
//! in-repo twin of the CI job that pipes K `distagg shard` processes
//! into `hhh-agg` and diffs a committed golden.

use hhh_agg::{fold_streams, read_stream, render_merged};
use hhh_core::Threshold;
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::{PacketRecord, TimeSpan};
use hhh_trace::{scenarios, TraceGenerator};
use hhh_window::{shard_of, Pipeline, ShardedDisjoint, SnapshotSink};
use std::io::Write;
use std::process::{Command, Stdio};

/// One shard's snapshot JSONL over a key-partitioned slice of a small
/// day trace.
fn shard_stream(trace: &[PacketRecord], horizon: TimeSpan, k: usize, shard: usize) -> Vec<u8> {
    let packets: Vec<PacketRecord> =
        trace.iter().copied().filter(|p| shard_of(&p.src, k) == shard).collect();
    let (bytes, err) = Pipeline::new(packets.iter().copied())
        .engine(ShardedDisjoint::new(
            vec![hhh_core::ExactHhh::new(Ipv4Hierarchy::bytes())],
            horizon,
            TimeSpan::from_secs(5),
            &[Threshold::percent(1.0)],
            |p| p.src,
        ))
        .sink(SnapshotSink::new(Vec::new()))
        .run();
    assert!(err.is_none());
    bytes
}

fn trace(horizon: TimeSpan) -> Vec<PacketRecord> {
    TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect()
}

#[test]
fn binary_output_matches_library_fold() {
    let horizon = TimeSpan::from_secs(10);
    let pkts = trace(horizon);
    let k = 3;
    let streams: Vec<Vec<u8>> = (0..k).map(|i| shard_stream(&pkts, horizon, k, i)).collect();

    // What the library says the merged reports are.
    let parsed: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, b)| read_stream(i, b.as_slice()).expect("stream parses"))
        .collect();
    let points = fold_streams(&Ipv4Hierarchy::bytes(), parsed).expect("folds");
    let expected = render_merged(&points, &[Threshold::percent(1.0)], true);

    // What the binary says, over real files and a real process.
    let dir = std::env::temp_dir().join(format!("hhh-agg-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut paths = Vec::new();
    for (i, bytes) in streams.iter().enumerate() {
        let path = dir.join(format!("shard{i}.jsonl"));
        std::fs::write(&path, bytes).expect("write shard stream");
        paths.push(path);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_hhh-agg"))
        .arg("--threshold")
        .arg("1")
        .arg("--emit-state")
        .args(&paths)
        .output()
        .expect("spawn hhh-agg");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let got: Vec<&str> = std::str::from_utf8(&out.stdout).expect("utf8").lines().collect();
    assert_eq!(got, expected.iter().map(String::as_str).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_reads_stdin_as_a_single_stream() {
    let horizon = TimeSpan::from_secs(10);
    let pkts = trace(horizon);
    let stream = shard_stream(&pkts, horizon, 1, 0);

    let parsed = vec![read_stream(0, stream.as_slice()).expect("parses")];
    let points = fold_streams(&Ipv4Hierarchy::bytes(), parsed).expect("folds");
    let expected = render_merged(&points, &[Threshold::percent(1.0)], false);

    let mut child = Command::new(env!("CARGO_BIN_EXE_hhh-agg"))
        .arg("--threshold")
        .arg("1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hhh-agg");
    child.stdin.take().expect("stdin").write_all(&stream).expect("feed stdin");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let got: Vec<&str> = std::str::from_utf8(&out.stdout).expect("utf8").lines().collect();
    assert_eq!(got, expected.iter().map(String::as_str).collect::<Vec<_>>());
}

#[test]
fn binary_rejects_garbage_with_nonzero_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hhh-agg"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hhh-agg");
    child.stdin.take().expect("stdin").write_all(b"not json\n").expect("feed stdin");
    let out = child.wait_with_output().expect("wait");
    assert!(!out.status.success(), "garbage must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("record 1"), "error names the record: {stderr}");
}

#[test]
fn binary_format_shards_fold_to_the_same_merged_output() {
    // The wire-format v2 contract, through the real binary: K shard
    // streams written as binary frames must aggregate to byte-identical
    // JSON output — and a --transcode round trip must reproduce the
    // original stream.
    use hhh_window::SnapshotSink;

    let horizon = TimeSpan::from_secs(10);
    let pkts = trace(horizon);
    let k = 3;
    let shard_bin = |shard: usize| -> Vec<u8> {
        let packets: Vec<PacketRecord> =
            pkts.iter().copied().filter(|p| shard_of(&p.src, k) == shard).collect();
        let (bytes, err) = Pipeline::new(packets.iter().copied())
            .engine(ShardedDisjoint::new(
                vec![hhh_core::ExactHhh::new(Ipv4Hierarchy::bytes())],
                horizon,
                TimeSpan::from_secs(5),
                &[Threshold::percent(1.0)],
                |p| p.src,
            ))
            .sink(SnapshotSink::binary(Vec::new()))
            .run();
        assert!(err.is_none());
        bytes
    };
    let json_streams: Vec<Vec<u8>> = (0..k).map(|i| shard_stream(&pkts, horizon, k, i)).collect();
    let bin_streams: Vec<Vec<u8>> = (0..k).map(shard_bin).collect();

    let dir = std::env::temp_dir().join(format!("hhh-agg-bin-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run_agg = |paths: &[std::path::PathBuf]| -> Vec<u8> {
        let out = Command::new(env!("CARGO_BIN_EXE_hhh-agg"))
            .args(["--threshold", "1", "--emit-state"])
            .args(paths)
            .output()
            .expect("spawn hhh-agg");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let write_all = |name: &str, streams: &[Vec<u8>]| -> Vec<std::path::PathBuf> {
        streams
            .iter()
            .enumerate()
            .map(|(i, bytes)| {
                let path = dir.join(format!("{name}{i}"));
                std::fs::write(&path, bytes).expect("write shard stream");
                path
            })
            .collect()
    };
    let from_json = run_agg(&write_all("shard-json", &json_streams));
    let from_bin = run_agg(&write_all("shard-bin", &bin_streams));
    assert_eq!(
        String::from_utf8_lossy(&from_json),
        String::from_utf8_lossy(&from_bin),
        "binary shard streams must aggregate byte-identically to JSON ones"
    );

    // Transcode round trip through the real binary: v1 -> v2 -> v1.
    let json_path = dir.join("shard-json0");
    let t2 = Command::new(env!("CARGO_BIN_EXE_hhh-agg"))
        .args(["--transcode", "--format", "binary"])
        .arg(&json_path)
        .output()
        .expect("spawn hhh-agg");
    assert!(t2.status.success());
    assert_eq!(t2.stdout, bin_streams[0], "v1 -> v2 transcode equals the native binary stream");
    let bin_path = dir.join("transcoded.bin");
    std::fs::write(&bin_path, &t2.stdout).expect("write transcoded");
    let t1 = Command::new(env!("CARGO_BIN_EXE_hhh-agg"))
        .args(["--transcode", "--format", "json"])
        .arg(&bin_path)
        .output()
        .expect("spawn hhh-agg");
    assert!(t1.status.success());
    assert_eq!(t1.stdout, json_streams[0], "v2 -> v1 transcode restores the original bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_rejects_unknown_flags_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_hhh-agg"))
        .arg("--frobnicate")
        .output()
        .expect("spawn hhh-agg");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
