//! The daemon's acceptance test: spawn the **real** `hhh-aggd` binary,
//! stream the full scenario into it from 12 real `aggd-shard`
//! processes (4 kinds × K=3 shards), kill one shard mid-stream on a
//! deterministic fuse, restart it from its spool, and assert the
//! daemon's `GET /hhh` answer is **byte-identical** to an
//! uninterrupted single-process fold of the same shard streams.
//!
//! That byte-identity is the whole point of the resume machinery: a
//! crash-restart cycle must leave no trace in the merged output — not
//! a duplicated window, not a reordered line, not a digit.

use hhh_agg::{read_stream, write_merged, FoldState, MergedPoint};
use hhh_aggd::scenario::{self, Kind};
use hhh_core::WireFormat;
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::TimeSpan;
use hhh_window::http_get;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Shards per kind.
const K: usize = 3;

/// Trace horizon in seconds (3 report windows at the scenario's 5 s
/// cadence — enough for a mid-stream death between windows).
const SECONDS: u64 = 15;

/// `aggd-shard --die-after`'s "died on cue" exit code.
const DIE_CODE: i32 = 9;

/// A running daemon process, killed on drop so a failing assertion
/// never leaks it.
struct Daemon {
    child: Child,
    frames: String,
    http: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon() -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hhh-aggd"))
        .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0", "--retain", "none", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("hhh-aggd spawns");
    // The daemon announces its resolved addresses on stdout:
    // `listening frames=ADDR http=ADDR`.
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("daemon announces its addresses");
    let mut frames = None;
    let mut http = None;
    for word in line.split_whitespace() {
        if let Some(a) = word.strip_prefix("frames=") {
            frames = Some(a.to_string());
        }
        if let Some(a) = word.strip_prefix("http=") {
            http = Some(a.to_string());
        }
    }
    Daemon {
        child,
        frames: frames.unwrap_or_else(|| panic!("no frames= in {line:?}")),
        http: http.unwrap_or_else(|| panic!("no http= in {line:?}")),
    }
}

fn shard_cmd(kind: Kind, shard: usize, frames: &str, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_aggd-shard"));
    cmd.args([
        kind.label(),
        &K.to_string(),
        &shard.to_string(),
        &SECONDS.to_string(),
        "--connect",
        frames,
        "--id",
        &scenario::stream_id(kind, K, shard).to_string(),
    ])
    .args(extra)
    .stderr(Stdio::null());
    cmd
}

/// One GET against the daemon; a refused or torn connection fails the
/// test.
fn get(addr: &str, path: &str) -> (u16, Vec<u8>) {
    http_get(addr, path).unwrap_or_else(|e| panic!("{e}"))
}

/// Poll `path` until its body equals `expected` (the fold loop applies
/// bursts asynchronously; convergence, not raciness, is the contract).
fn poll_until_equal(http: &str, path: &str, expected: &[u8]) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = get(http, path);
        if status == 200 && body == expected {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never converged on {path}: status {status}, got {} bytes, want {} bytes\n\
             --- got ---\n{}\n--- want ---\n{}",
            body.len(),
            expected.len(),
            String::from_utf8_lossy(&body),
            String::from_utf8_lossy(expected),
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// The uninterrupted reference: fold every shard's stream in one
/// process, exactly as the daemon folds what arrives over TCP.
fn reference_fold() -> FoldState<Ipv4Hierarchy> {
    let horizon = TimeSpan::from_secs(SECONDS);
    let trace = scenario::scenario_trace(horizon);
    let mut fold = FoldState::new();
    for kind in Kind::ALL {
        for shard in 0..K {
            let stream =
                scenario::shard_stream_on(kind, &trace, horizon, K, shard, WireFormat::Binary);
            for snap in read_stream(shard, stream.as_slice()).expect("shard stream parses") {
                fold.push(scenario::stream_id(kind, K, shard), snap);
            }
        }
    }
    fold.refold(&scenario::hierarchy()).expect("reference fold");
    fold
}

fn render<'a>(points: impl IntoIterator<Item = &'a MergedPoint<Ipv4Hierarchy>>) -> Vec<u8> {
    let mut out = Vec::new();
    write_merged(&mut out, points, &[scenario::distagg_threshold()], true, WireFormat::Json)
        .expect("merged points render");
    out
}

#[test]
fn killed_shard_resumes_byte_exactly() {
    let daemon = spawn_daemon();
    let tmp = std::env::temp_dir().join(format!("aggd-resume-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("tmp dir");
    let spool = tmp.join("exact-1.spool");
    let spool = spool.to_str().expect("utf-8 tmp path");

    // The doomed shard: exact kind, shard 1, spooled, fused to die
    // after 3 frames — mid-stream, between report windows.
    let died = shard_cmd(Kind::Exact, 1, &daemon.frames, &["--spool", spool, "--die-after", "3"])
        .status()
        .expect("doomed shard runs");
    assert_eq!(died.code(), Some(DIE_CODE), "shard must die on its fuse, not finish");

    // Every other shard of every kind, as 11 concurrent processes.
    let mut children: Vec<(Kind, usize, Child)> = Vec::new();
    for kind in Kind::ALL {
        for shard in 0..K {
            if kind == Kind::Exact && shard == 1 {
                continue;
            }
            let child = shard_cmd(kind, shard, &daemon.frames, &[]).spawn().expect("shard spawns");
            children.push((kind, shard, child));
        }
    }
    for (kind, shard, mut child) in children {
        let status = child.wait().expect("shard exits");
        assert!(status.success(), "{} shard {shard} failed: {status}", kind.label());
    }

    // Liveness while the fold is mid-flight.
    let (status, body) = get(&daemon.http, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    // Restart the dead shard from its spool: it claims the spooled
    // frames, replays only past the daemon's ack, and regenerates the
    // rest of its deterministic stream.
    let resumed = shard_cmd(Kind::Exact, 1, &daemon.frames, &["--spool", spool])
        .status()
        .expect("resumed shard runs");
    assert!(resumed.success(), "resumed shard must finish cleanly: {resumed}");

    // The acceptance bar: the daemon's full answer is byte-identical
    // to the uninterrupted single-process fold.
    let fold = reference_fold();
    let expected = render(fold.points());
    assert!(!expected.is_empty(), "reference fold must produce report points");
    poll_until_equal(&daemon.http, "/hhh?all=1&state=1", &expected);

    // Per-kind filtering matches a filtered render of the same fold.
    let expected_exact = render(fold.points().filter(|p| p.kind == Kind::Exact.label()));
    let (status, body) = get(&daemon.http, "/hhh?kind=exact&all=1&state=1");
    assert_eq!(status, 200);
    assert_eq!(body, expected_exact, "kind filter must render the same bytes per kind");

    // /metrics tells the story: every stream has lag/delivered series,
    // the restarted stream shows two connects, and no resume was
    // refused.
    let (status, body) = get(&daemon.http, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("metrics are utf-8");
    for needle in [
        "aggd_frames_per_second ",
        "aggd_fold_duration_seconds{quantile=\"0.5\"}",
        "aggd_fold_duration_seconds{quantile=\"0.99\"}",
        "aggd_connected_shards ",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in /metrics:\n{text}");
    }
    for kind in Kind::ALL {
        for shard in 0..K {
            let series = format!(
                "aggd_stream_lag_seconds{{stream=\"{}\",label=\"{}\"}}",
                scenario::stream_id(kind, K, shard),
                scenario::shard_label(kind, K, shard),
            );
            assert!(text.contains(&series), "missing {series:?} in /metrics:\n{text}");
        }
    }
    let restarted = format!(
        "aggd_stream_connects_total{{stream=\"{}\",label=\"exact/1of3\"}} 2",
        scenario::stream_id(Kind::Exact, K, 1),
    );
    assert!(text.contains(&restarted), "restarted stream must show 2 connects:\n{text}");
    assert!(text.contains("aggd_gaps_total 0"), "no resume may be refused:\n{text}");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn http_surface_rejects_what_it_should() {
    let daemon = spawn_daemon();
    let (status, _) = get(&daemon.http, "/nope");
    assert_eq!(status, 404);
    let (status, body) = get(&daemon.http, "/hhh?bogus=1");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("bogus"));
    let (status, _) = get(&daemon.http, "/hhh?threshold=0");
    assert_eq!(status, 400);
    // An empty daemon answers /hhh with an empty body, not an error.
    let (status, body) = get(&daemon.http, "/hhh");
    assert_eq!((status, body.len()), (200, 0));
}
