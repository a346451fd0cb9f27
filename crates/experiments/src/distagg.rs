//! D-scale — the **distributed aggregation** scenario: prove that the
//! snapshot wire format round-trips whole detector states across
//! process boundaries.
//!
//! The scenario splits one generated day trace K ways by the sharded
//! pipeline's own key partition ([`shard_of`](hhh_window::shard_of)),
//! runs K *independent* pipelines (one per shard, as separate
//! processes would) that each write their per-report-point detector
//! snapshots as JSONL, folds the K streams with `hhh-agg`, and checks
//! the merged result two ways:
//!
//! * **byte-identity against the in-process sharded run** — a single
//!   `ShardedDisjoint`/`ShardedContinuous` pipeline over the whole
//!   trace with K shard detectors emits one *merged* state line per
//!   report point; the cross-process fold must re-serialize to the
//!   same bytes. This holds for **all five detector kinds**, because
//!   every shard detector's state is a deterministic function of its
//!   sub-stream (RHHH's batched sampling replays the per-packet RNG
//!   sequence) and the fold applies the same merges in the same order.
//! * **report agreement against the unsharded single-process run** —
//!   exact identity of the HHH sets for `exact` (merging is lossless),
//!   bounded Jaccard agreement for the approximate detectors (the
//!   merge-error growth the sharding tests already quantify).
//!
//! One shard's run as a real process is `aggd-shard <kind> <k> <i>
//! <seconds>` (in `hhh-aggd`): it writes the same bytes as
//! [`shard_stream_on`] to stdout, so CI can spawn K real processes and
//! pipe their streams into the `hhh-agg` binary — the cross-process
//! smoke test. `aggd-shard <kind> 4 <i> 60` is shard `i` of the
//! `Smoke` scenario.
//!
//! The scenario **core** (kinds, constants, per-shard pipelines,
//! reference runs) lives in [`hhh_aggd::scenario`] so the shard writer
//! (`aggd-shard`) and the daemon's restart-resume tests share the
//! exact definitions; this module re-exports every name and adds the
//! [`Scale`]-aware runs, verdict tables, and the codec bench.

use crate::Scale;
use hhh_agg::{read_stream, write_merged};
use hhh_aggd::scenario::shard_source_into;
use hhh_aggd::{spawn_daemon, DaemonConfig};
use hhh_analysis::{fmt_f, jaccard, Table};
use hhh_core::WireFormat;
use hhh_nettypes::{Nanos, PacketRecord, TimeSpan};
use hhh_window::{http_get, read_frame_from, TcpTransport, TransportSink};
use std::time::{Duration, Instant};

pub use hhh_aggd::scenario::{
    distagg_threshold, fold_shard_streams, hierarchy, inprocess_sharded_jsonl_on, probes,
    rhhh_seed, scenario_trace, shard_label, shard_packets, shard_stream_on,
    single_process_reports_on, stream_id, tdbf_config, Kind, DISTAGG_CAPACITY,
    DISTAGG_MVPIPE_BUCKETS, DISTAGG_WINDOW,
};

/// The scenario trace: the acceptance day trace at this scale (day 0;
/// ≈ 1.36M packets at `Smoke`'s 60 s — the same trace the pipeline
/// parity and sharded-merge contracts pin). Generated once per scale
/// and cached: the scenario replays it dozens of times.
pub fn distagg_trace(scale: Scale) -> &'static [PacketRecord] {
    use std::sync::OnceLock;
    static TRACES: [OnceLock<Vec<PacketRecord>>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = match scale {
        Scale::Smoke => 0,
        Scale::Quick => 1,
        Scale::Paper => 2,
    };
    TRACES[slot].get_or_init(|| scenario_trace(scale.compare_duration()))
}

/// One `(kind, K)` verdict of the scenario.
#[derive(Clone, Debug)]
pub struct DistAggRow {
    /// Detector kind.
    pub detector: Kind,
    /// Shard/process count.
    pub shards: usize,
    /// Packets in the trace.
    pub packets: u64,
    /// Report points folded.
    pub points: usize,
    /// Snapshots folded across all points and streams.
    pub folded: usize,
    /// Does every folded state re-serialize byte-identically to the
    /// in-process K-shard run's merged state line?
    pub state_identical: bool,
    /// Same check with the shard streams written as **v2 binary
    /// frames**: folding binary streams must land on the identical
    /// merged state (compared after transcoding to JSON).
    pub state_identical_v2: bool,
    /// Mean per-point Jaccard similarity of the merged HHH sets
    /// against the unsharded single-process run.
    pub jaccard_vs_single: f64,
    /// For `exact`: are the merged HHH reports (prefixes, estimates,
    /// discounts) identical to the single-process run's? Approximate
    /// kinds report `false` only when `jaccard_vs_single` is also
    /// degraded, so the table prints `-` for them.
    pub reports_identical: bool,
}

/// Run the full scenario at `scale` for every kind at each shard count
/// in `ks`.
pub fn run_distagg(scale: Scale, ks: &[usize]) -> Vec<DistAggRow> {
    run_distagg_on(distagg_trace(scale), scale.compare_duration(), ks, &Kind::ALL)
}

/// [`run_distagg`] over an explicit trace and kind subset.
pub fn run_distagg_on(
    trace: &[PacketRecord],
    horizon: TimeSpan,
    ks: &[usize],
    kinds: &[Kind],
) -> Vec<DistAggRow> {
    let packets = trace.len() as u64;
    let mut rows = Vec::new();
    for &kind in kinds {
        let single = single_process_reports_on(kind, trace, horizon);
        for &k in ks {
            let streams: Vec<Vec<u8>> = (0..k)
                .map(|i| shard_stream_on(kind, trace, horizon, k, i, WireFormat::Json))
                .collect();
            let points = fold_shard_streams(&streams).expect("shard streams fold");
            let folded = points.iter().map(|p| p.folded).sum();

            // Byte-identity vs the in-process sharded run.
            let reference =
                read_stream(0, inprocess_sharded_jsonl_on(kind, trace, horizon, k).as_slice())
                    .expect("in-process stream parses");
            let state_of = |r: &hhh_core::WireSnapshot| {
                r.to_stamped().expect("reference state decodes").snapshot.to_json()
            };
            let state_identical = reference.len() == points.len()
                && points
                    .iter()
                    .zip(&reference)
                    .all(|(p, r)| p.at == r.at() && p.detector.snapshot().to_json() == state_of(r));

            // The same fold over v2 binary shard streams must land on
            // the identical merged state (the wire-format v2 parity
            // contract).
            let bin_streams: Vec<Vec<u8>> = (0..k)
                .map(|i| shard_stream_on(kind, trace, horizon, k, i, WireFormat::Binary))
                .collect();
            let bin_points = fold_shard_streams(&bin_streams).expect("binary shard streams fold");
            let state_identical_v2 = reference.len() == bin_points.len()
                && bin_points.iter().zip(&reference).all(|(p, r)| {
                    p.at == r.at()
                        && p.start == r.start()
                        && p.detector.snapshot().to_json() == state_of(r)
                });

            // Report agreement vs the unsharded run — including the
            // window bounds, which state records now carry.
            assert_eq!(points.len(), single.len(), "report point counts differ");
            let mut jac_sum = 0.0;
            let mut identical = true;
            for (i, (p, s)) in points.iter().zip(&single).enumerate() {
                let merged = p.report(i as u64, distagg_threshold());
                jac_sum += jaccard(&merged.prefix_set(), &s.prefix_set());
                identical &= merged.hhhs == s.hhhs
                    && merged.total == s.total
                    && merged.start == s.start
                    && merged.end == s.end;
            }
            rows.push(DistAggRow {
                detector: kind,
                shards: k,
                packets,
                points: points.len(),
                folded,
                state_identical,
                state_identical_v2,
                jaccard_vs_single: jac_sum / points.len().max(1) as f64,
                reports_identical: identical,
            });
        }
    }
    rows
}

/// Render scenario rows as an aligned text table.
pub fn distagg_table(rows: &[DistAggRow]) -> String {
    let mut t = Table::new(vec![
        "detector",
        "shards",
        "points",
        "folded",
        "state==inproc",
        "state==inproc(v2)",
        "jaccard-vs-1proc",
        "reports==1proc",
    ]);
    for r in rows {
        t.row(vec![
            r.detector.label().to_string(),
            r.shards.to_string(),
            r.points.to_string(),
            r.folded.to_string(),
            r.state_identical.to_string(),
            r.state_identical_v2.to_string(),
            fmt_f(r.jaccard_vs_single, 4),
            if r.detector == Kind::Exact {
                r.reports_identical.to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Socket scenario
// ---------------------------------------------------------------------

/// One `(kind, K)` verdict of the **socket** scenario (`distagg
/// socket`): the K-shard parity check run end-to-end over localhost
/// TCP into an in-process `hhh-aggd`.
#[derive(Clone, Debug)]
pub struct SocketRow {
    /// Detector kind.
    pub detector: Kind,
    /// Shard (connection) count.
    pub shards: usize,
    /// Report points the daemon folded from the socket streams.
    pub points: usize,
    /// Snapshots folded across all connections.
    pub folded: usize,
    /// Is the daemon's `GET /hhh?all=1&state=1` answer (merged reports
    /// and re-emitted states) **byte-identical** to folding the same
    /// shards' stream files?
    pub socket_eq_file: bool,
    /// Does every socket-folded state re-serialize byte-identically to
    /// the in-process K-shard run's merged state line?
    pub state_identical: bool,
}

/// Run the socket scenario at `scale` for every kind at each shard
/// count in `ks`: K shard pipelines stream natively encoded v2 frames
/// over localhost TCP into one in-process `hhh-aggd`, whose fold is
/// compared byte-for-byte against the file-based fold and the
/// in-process sharded run.
pub fn run_socket(scale: Scale, ks: &[usize]) -> Vec<SocketRow> {
    run_socket_on(distagg_trace(scale), scale.compare_duration(), ks, &Kind::ALL)
}

/// [`run_socket`] over an explicit trace and kind subset.
///
/// Once the shard writers finish, the runner waits until the daemon's
/// registry shows each stream delivered as many frames as its file
/// stream holds and the fold has no dirty point, then compares once:
/// a wrong fold shows as a mismatch, never as a timeout.
pub fn run_socket_on(
    trace: &[PacketRecord],
    horizon: TimeSpan,
    ks: &[usize],
    kinds: &[Kind],
) -> Vec<SocketRow> {
    let mut rows = Vec::new();
    for &kind in kinds {
        for &k in ks {
            let daemon = spawn_daemon(DaemonConfig {
                thresholds: vec![distagg_threshold()],
                retain: None,
                ..DaemonConfig::default()
            })
            .expect("daemon spawns on localhost");
            let addr = daemon.frame_addr.to_string();

            // K concurrent shard pipelines, each its own connection —
            // exactly what K `aggd-shard --connect` processes do.
            std::thread::scope(|s| {
                let shards: Vec<_> = (0..k)
                    .map(|i| {
                        let addr = &addr;
                        s.spawn(move || {
                            let transport = TcpTransport::connect(addr)
                                .with_hello(i as u64, shard_label(kind, k, i));
                            let packets = shard_packets(trace, k, i);
                            let sink = TransportSink::new(transport);
                            shard_source_into(kind, packets.into_iter(), horizon, i, sink).1
                        })
                    })
                    .collect();
                for shard in shards {
                    if let Some(e) = shard.join().expect("shard thread") {
                        panic!("shard transport: {e}");
                    }
                }
            });

            // Wait until every stream has left and the fold holds every
            // frame it delivered, then compare once. A stream that
            // delivered more frames than its file stream holds is a
            // mismatch, not a longer wait.
            let file_streams: Vec<Vec<u8>> = (0..k)
                .map(|i| shard_stream_on(kind, trace, horizon, k, i, WireFormat::Binary))
                .collect();
            let want: Vec<(u64, u64)> =
                file_streams.iter().enumerate().map(|(i, b)| (i as u64, frame_count(b))).collect();
            let deadline = Instant::now() + Duration::from_secs(600);
            while !daemon.registry.settled(&want) {
                let late = Instant::now() >= deadline;
                assert!(!late, "frames never arrived: {:?}", daemon.registry.streams());
                std::thread::sleep(Duration::from_millis(5));
            }

            // Byte-identity of the daemon's answer vs the file-based
            // fold of the same shards.
            let file_points = fold_shard_streams(&file_streams).expect("file streams fold");
            let (mut file_fold, thresholds) = (Vec::new(), [distagg_threshold()]);
            write_merged(&mut file_fold, &file_points, &thresholds, true, WireFormat::Json)
                .expect("merged points render");
            let answer =
                http_get(&daemon.http_addr.to_string(), "/hhh?all=1&state=1").expect("GET /hhh");
            let streams = daemon.registry.streams();
            let delivered_as_filed = want.iter().all(|(id, n)| streams[id].delivered == *n);
            let socket_eq_file = delivered_as_filed && answer == (200, file_fold);

            // Byte-identity vs the in-process K-shard run.
            let reference =
                read_stream(0, inprocess_sharded_jsonl_on(kind, trace, horizon, k).as_slice())
                    .expect("in-process stream parses");
            let state_of = |r: &hhh_core::WireSnapshot| {
                r.to_stamped().expect("reference state decodes").snapshot.to_json()
            };
            let fold = daemon.registry.fold.lock().expect("fold lock");
            let socket_points: Vec<_> = fold.points().collect();
            let state_identical = reference.len() == socket_points.len()
                && socket_points.iter().zip(&reference).all(|(p, r)| {
                    p.at == r.at()
                        && p.start == r.start()
                        && p.detector.snapshot().to_json() == state_of(r)
                });

            rows.push(SocketRow {
                detector: kind,
                shards: k,
                points: socket_points.len(),
                folded: socket_points.iter().map(|p| p.folded).sum(),
                socket_eq_file,
                state_identical,
            });
        }
    }
    rows
}

/// Frames in an encoded v2 stream.
fn frame_count(mut stream: &[u8]) -> u64 {
    let mut frames = 0;
    while read_frame_from(&mut stream).expect("own stream frames decode").is_some() {
        frames += 1;
    }
    frames
}

/// Render socket scenario rows as an aligned text table.
pub fn socket_table(rows: &[SocketRow]) -> String {
    let mut t =
        Table::new(vec!["detector", "shards", "points", "folded", "socket==file", "state==inproc"]);
    for r in rows {
        t.row(vec![
            r.detector.label().to_string(),
            r.shards.to_string(),
            r.points.to_string(),
            r.folded.to_string(),
            r.socket_eq_file.to_string(),
            r.state_identical.to_string(),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Codec bench
// ---------------------------------------------------------------------

/// One measured codec operation.
#[derive(Clone, Debug)]
pub struct CodecBenchRow {
    /// Detector kind.
    pub detector: Kind,
    /// `encode` (state → wire), `decode` (wire → restored detector),
    /// or `fold/K` (parse + fold K shard streams).
    pub op: String,
    /// Wire format the operation ran in (`json` = v1, `binary` = v2).
    pub format: &'static str,
    /// Streams folded (1 for encode/decode).
    pub shards: usize,
    /// Operations (snapshots encoded/decoded, or state records folded).
    pub items: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Items per second.
    pub per_sec: f64,
    /// Wire bytes of one encoded snapshot (encode/decode rows), or of
    /// all folded input streams (fold rows).
    pub bytes: u64,
}

fn timed<T>(mut f: impl FnMut() -> T) -> (f64, u64) {
    // Repeat until the measurement dwarfs timer noise.
    let mut iters: u64 = 0;
    let start = std::time::Instant::now();
    loop {
        std::hint::black_box(f());
        iters += 1;
        let s = start.elapsed().as_secs_f64();
        if s >= 0.2 || iters >= 10_000 {
            return (s, iters);
        }
    }
}

/// One single-snapshot encode or decode row from a [`timed`]
/// `(seconds, items)` measurement over `bytes` of wire.
fn codec_row(
    detector: Kind,
    op: &str,
    format: &'static str,
    (seconds, items): (f64, u64),
    bytes: usize,
) -> CodecBenchRow {
    let per_sec = items as f64 / seconds;
    CodecBenchRow {
        detector,
        op: op.into(),
        format,
        shards: 1,
        items,
        seconds,
        per_sec,
        bytes: bytes as u64,
    }
}

/// A representative per-report-point snapshot for a kind: the first
/// state record the scenario's one-shard pipeline writes, i.e. the
/// state a detector holds after one report window of the trace.
fn sample_snapshot(kind: Kind, packets: &[PacketRecord]) -> hhh_core::DetectorSnapshot {
    let window: Vec<PacketRecord> =
        packets.iter().take_while(|p| p.ts < Nanos::ZERO + DISTAGG_WINDOW).copied().collect();
    let stream = shard_stream_on(kind, &window, DISTAGG_WINDOW, 1, 0, WireFormat::Json);
    let first = read_stream(0, stream.as_slice()).expect("own stream parses").swap_remove(0);
    first.to_stamped().expect("a v1 state record").snapshot
}

/// Time snapshot encode/decode per detector **in both wire
/// formats** and aggregator fold throughput (state records per second)
/// at each shard count in `ks` — the numbers `BENCH_pr5.json` commits.
/// The PR-4 acceptance line was the `decode` pair for `tdbf-hhh` (v2
/// ≥ 10× over v1); the PR-5 line is `encode-native` vs
/// `encode-transcode` per kind — the v2 encode side no longer paying
/// the JSON render + parse.
pub fn codec_bench(scale: Scale, ks: &[usize]) -> Vec<CodecBenchRow> {
    let h = hierarchy();
    let packets = distagg_trace(scale);
    let mut rows = Vec::new();
    let window_start = Nanos::ZERO;
    let window_end = Nanos::ZERO + DISTAGG_WINDOW;
    for kind in Kind::ALL {
        let snap = sample_snapshot(kind, packets);
        let line = snap.to_json();
        let frame_bytes = snap.to_frame(window_start, window_end).expect("transcodes").encode();
        // A live detector holding the same state, for the direct
        // (detector body -> frame) encode path.
        let restored = hhh_core::RestoredDetector::from_snapshot(&h, &snap).expect("restores");
        assert_eq!(
            restored.to_frame(window_start, window_end).expect("native-encodes").encode(),
            frame_bytes,
            "native and transcode encodes must write identical bytes"
        );

        // encode: detector state -> wire bytes. v1 renders JSON;
        // `encode-transcode` is the PR-4 v2 path (render the JSON
        // body, parse it back, pack a frame); `encode-native` encodes
        // the detector's wire body as a frame directly.
        let (json_len, frame_len) = (line.len() + 1, frame_bytes.len());
        rows.push(codec_row(kind, "encode", "json", timed(|| snap.to_json()), json_len));
        let transcode = || snap.to_frame(window_start, window_end).expect("transcodes").encode();
        rows.push(codec_row(kind, "encode-transcode", "binary", timed(transcode), frame_len));
        let native =
            || restored.to_frame(window_start, window_end).expect("native-encodes").encode();
        rows.push(codec_row(kind, "encode-native", "binary", timed(native), frame_len));

        // decode: wire bytes -> restored live detector.
        let from_json = || {
            let parsed = hhh_core::DetectorSnapshot::from_json(&line).expect("parses");
            hhh_core::RestoredDetector::from_snapshot(&h, &parsed).expect("restores")
        };
        rows.push(codec_row(kind, "decode", "json", timed(from_json), json_len));
        let from_frame = || {
            let (frame, _) = hhh_core::SnapshotFrame::decode(&frame_bytes).expect("frame decodes");
            hhh_core::RestoredDetector::from_frame(&h, &frame).expect("restores")
        };
        rows.push(codec_row(kind, "decode", "binary", timed(from_frame), frame_len));

        // fold/K: parse + fold K whole shard streams, per format.
        for &k in ks {
            for format in [WireFormat::Json, WireFormat::Binary] {
                let streams: Vec<Vec<u8>> = (0..k)
                    .map(|i| shard_stream_on(kind, packets, scale.compare_duration(), k, i, format))
                    .collect();
                let records: u64 = streams
                    .iter()
                    .map(|b| read_stream(0, b.as_slice()).expect("stream parses").len() as u64)
                    .sum();
                let wire_bytes: u64 = streams.iter().map(|b| b.len() as u64).sum();
                let start = std::time::Instant::now();
                let mut reps: u64 = 0;
                loop {
                    std::hint::black_box(fold_shard_streams(&streams).expect("folds"));
                    reps += 1;
                    if start.elapsed().as_secs_f64() >= 0.2 || reps >= 100 {
                        break;
                    }
                }
                let s = start.elapsed().as_secs_f64();
                rows.push(CodecBenchRow {
                    detector: kind,
                    op: format!("fold/{k}"),
                    format: format.label(),
                    shards: k,
                    items: records * reps,
                    seconds: s,
                    per_sec: (records * reps) as f64 / s,
                    bytes: wire_bytes,
                });
            }
        }
    }
    rows
}

/// Render bench rows as JSON lines for `BENCH_pr4.json`.
pub fn codec_bench_json(rows: &[CodecBenchRow], scale: Scale) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{{\"experiment\": \"snapshot_codec\", \"scale\": \"{}\", \"detector\": \"{}\", \
             \"op\": \"{}\", \"format\": \"{}\", \"shards\": {}, \"items\": {}, \
             \"seconds\": {:.6}, \"per_sec\": {:.1}, \"bytes\": {}}}\n",
            scale.label(),
            r.detector.label(),
            r.op,
            r.format,
            r.shards,
            r.items,
            r.seconds,
            r.per_sec,
            r.bytes,
        ));
    }
    out
}

/// Render bench rows as an aligned text table.
pub fn codec_bench_table(rows: &[CodecBenchRow]) -> String {
    let mut t = Table::new(vec![
        "detector", "op", "format", "shards", "items", "seconds", "items/s", "bytes",
    ]);
    for r in rows {
        t.row(vec![
            r.detector.label().to_string(),
            r.op.clone(),
            r.format.to_string(),
            r.shards.to_string(),
            r.items.to_string(),
            fmt_f(r.seconds, 3),
            format!("{:.0}", r.per_sec),
            r.bytes.to_string(),
        ]);
    }
    t.render()
}
