//! F-scale — the **daemon end-to-end** benchmark: an in-process
//! `hhh-aggd` fed the full scenario (5 kinds × K shards) over real
//! localhost sockets, measured on three axes:
//!
//! * **ingest**: frames/s from first connect until every writer has
//!   drained its pre-encoded stream — pure hub delivery + fold rate,
//!   with no polling on the clock;
//! * **convergence**: seconds from the last writer finishing until the
//!   daemon's `GET /hhh?all=1&state=1` answer is byte-identical to the
//!   single-process reference fold;
//! * **query**: p50/p99 latency of `GET /hhh?kind=exact` (the latest
//!   merged point) against the daemon's steady-state fold.
//!
//! The writers replay **pre-encoded** shard streams, so the clock
//! measures the daemon (hub delivery + fold + serve), not detector
//! compute. The convergence check doubles as a correctness gate: a
//! bench run that never reaches byte-identity panics rather than
//! reporting a number for a wrong fold.

use crate::distagg::distagg_trace;
use crate::Scale;
use hhh_agg::{read_stream, write_merged, FoldState};
use hhh_aggd::scenario::{self, Kind};
use hhh_aggd::{spawn_daemon, DaemonConfig};
use hhh_analysis::{fmt_f, Table};
use hhh_core::WireFormat;
use hhh_window::{hello_frame, http_get, read_frame_from};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One daemon e2e measurement.
#[derive(Clone, Debug)]
pub struct AggdRow {
    /// Scale label the run used.
    pub scale: &'static str,
    /// Shards per kind.
    pub shards: usize,
    /// Concurrent streams (kinds × shards).
    pub streams: usize,
    /// Frames the daemon delivered to its fold.
    pub frames: u64,
    /// Seconds from first connect until every writer drained its
    /// stream (the poll-for-convergence tail is *not* on this clock).
    pub ingest_seconds: f64,
    /// Seconds from the last writer finishing to byte-identical
    /// convergence of the daemon's fold.
    pub converge_seconds: f64,
    /// Frames per second over the ingest phase alone.
    pub ingest_frames_per_sec: f64,
    /// Median `GET /hhh?kind=exact` latency, milliseconds.
    pub query_p50_ms: f64,
    /// 99th-percentile `GET /hhh?kind=exact` latency, milliseconds.
    pub query_p99_ms: f64,
}

/// Query samples taken for the latency quantiles.
const QUERY_SAMPLES: usize = 200;

/// Run the daemon e2e benchmark: K shards of every kind at `scale`.
pub fn run_aggd(scale: Scale, k: usize) -> AggdRow {
    run_aggd_on(distagg_trace(scale), scale.compare_duration(), k, scale.label())
}

/// [`run_aggd`] over an explicit trace and horizon (tests use a short
/// ad-hoc horizon so the pre-encode phase stays cheap in debug builds).
pub fn run_aggd_on(
    trace: &[hhh_nettypes::PacketRecord],
    horizon: hhh_nettypes::TimeSpan,
    k: usize,
    scale_label: &'static str,
) -> AggdRow {
    // Pre-encode every stream and build the byte-exact expectation.
    let mut streams: Vec<(u64, String, Vec<u8>)> = Vec::new();
    let mut fold = FoldState::new();
    for kind in Kind::ALL {
        for shard in 0..k {
            let id = scenario::stream_id(kind, k, shard);
            let bytes =
                scenario::shard_stream_on(kind, trace, horizon, k, shard, WireFormat::Binary);
            for snap in read_stream(shard, bytes.as_slice()).expect("shard stream parses") {
                fold.push(id, snap);
            }
            streams.push((id, scenario::shard_label(kind, k, shard), bytes));
        }
    }
    fold.refold(&scenario::hierarchy()).expect("reference fold");
    let expected = {
        let mut out = Vec::new();
        write_merged(
            &mut out,
            fold.points(),
            &[scenario::distagg_threshold()],
            true,
            WireFormat::Json,
        )
        .expect("reference renders");
        out
    };

    let handle = spawn_daemon(DaemonConfig {
        thresholds: vec![scenario::distagg_threshold()],
        retain: None,
        ..DaemonConfig::default()
    })
    .expect("daemon spawns");
    let frame_addr = handle.frame_addr.to_string();
    let http_addr = handle.http_addr.to_string();

    // Ingest phase: every stream on its own connection, replayed as
    // fast as the daemon accepts bytes.
    let start = Instant::now();
    std::thread::scope(|s| {
        for (id, label, bytes) in &streams {
            let frame_addr = frame_addr.clone();
            s.spawn(move || {
                let mut conn = TcpStream::connect(&frame_addr).expect("connect to daemon hub");
                conn.set_nodelay(true).expect("nodelay");
                conn.write_all(&hello_frame(*id, label, 0).encode()).expect("hello writes");
                // Read the hub's ack before streaming: closing a
                // socket with the unread ack still buffered raises an
                // RST that can discard the stream's own tail in
                // flight (a real transport always consumes its ack).
                let mut reader = BufReader::new(conn.try_clone().expect("socket clones"));
                let _ack = read_frame_from(&mut reader).expect("hub ack reads");
                conn.write_all(bytes).expect("stream writes");
                conn.flush().expect("stream flushes");
            });
        }
    });
    // All writers have drained: ingest proper ends here. The tail —
    // waiting for the daemon's fold to answer byte-identically — is
    // timed separately, so `ingest_frames_per_sec` no longer folds
    // polling sleeps into the daemon's delivery rate.
    let ingest_seconds = start.elapsed().as_secs_f64();
    let converge_start = Instant::now();
    let deadline = converge_start + Duration::from_secs(600);
    loop {
        let (status, body) = http_get(&http_addr, "/hhh?all=1&state=1").expect("GET /hhh");
        if status == 200 && body == expected {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never converged on the reference fold");
        std::thread::sleep(Duration::from_millis(10));
    }
    let converge_seconds = converge_start.elapsed().as_secs_f64();
    let frames = handle.metrics.frames_total();

    // Query phase: steady-state latest-point queries.
    let mut samples: Vec<f64> = (0..QUERY_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let (status, body) = http_get(&http_addr, "/hhh?kind=exact").expect("GET /hhh");
            assert_eq!(status, 200);
            assert!(!body.is_empty(), "steady-state query must see the fold");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    let row = AggdRow {
        scale: scale_label,
        shards: k,
        streams: streams.len(),
        frames,
        ingest_seconds,
        converge_seconds,
        ingest_frames_per_sec: frames as f64 / ingest_seconds,
        query_p50_ms: at(0.5),
        query_p99_ms: at(0.99),
    };
    handle.shutdown();
    row
}

/// Render rows as JSON lines (the `BENCH_pr7.json` format).
pub fn aggd_json(rows: &[AggdRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{{\"experiment\": \"aggd\", \"scale\": \"{}\", \"shards\": {}, \"streams\": {}, \
             \"frames\": {}, \"ingest_seconds\": {:.6}, \"converge_seconds\": {:.6}, \
             \"ingest_frames_per_sec\": {:.1}, \
             \"query_p50_ms\": {:.3}, \"query_p99_ms\": {:.3}}}\n",
            r.scale,
            r.shards,
            r.streams,
            r.frames,
            r.ingest_seconds,
            r.converge_seconds,
            r.ingest_frames_per_sec,
            r.query_p50_ms,
            r.query_p99_ms,
        ));
    }
    out
}

/// Render rows as an aligned text table.
pub fn aggd_table(rows: &[AggdRow]) -> String {
    let mut t = Table::new(vec![
        "scale",
        "shards",
        "streams",
        "frames",
        "ingest-s",
        "converge-s",
        "ingest-frames/s",
        "query-p50-ms",
        "query-p99-ms",
    ]);
    for r in rows {
        t.row(vec![
            r.scale.to_string(),
            r.shards.to_string(),
            r.streams.to_string(),
            r.frames.to_string(),
            fmt_f(r.ingest_seconds, 3),
            fmt_f(r.converge_seconds, 3),
            format!("{:.0}", r.ingest_frames_per_sec),
            fmt_f(r.query_p50_ms, 3),
            fmt_f(r.query_p99_ms, 3),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full e2e at a tiny ad-hoc horizon: daemon up, 10 streams
    /// in, byte-identity reached (run_aggd_on panics otherwise), sane
    /// row with ingest and convergence on separate clocks.
    #[test]
    fn daemon_e2e_converges_and_reports() {
        let horizon = hhh_nettypes::TimeSpan::from_secs(10);
        let trace = scenario::scenario_trace(horizon);
        let row = run_aggd_on(&trace, horizon, 2, "test");
        assert_eq!(row.streams, 10);
        assert!(row.frames > 0);
        assert!(row.ingest_frames_per_sec > 0.0);
        assert!(row.ingest_seconds > 0.0);
        assert!(row.converge_seconds >= 0.0);
        assert!(row.query_p50_ms > 0.0 && row.query_p50_ms <= row.query_p99_ms);
        let json = aggd_json(std::slice::from_ref(&row));
        assert!(json.contains("\"experiment\": \"aggd\""));
        assert!(json.contains("\"converge_seconds\""));
        assert!(json.contains("\"ingest_frames_per_sec\""));
        assert!(aggd_table(&[row]).contains("ingest-frames/s"));
    }
}
