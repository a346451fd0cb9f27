//! The daemon side shared by the two serving workloads: a sink tee
//! that keeps what the shards sent, the `/hhh` poll loop, the
//! byte-identity gate against an in-process fold replay, and the
//! end-of-pass `/metrics` accounting.

use crate::sys::{http_get, median, metric, metric_samples, quantile};
use crate::trace::{span, span_n, Tracer};
use hhh_agg::{write_merged, FoldState};
use hhh_aggd::scenario::{distagg_threshold, hierarchy};
use hhh_core::snapshot::{DetectorSnapshot, SnapshotFrame};
use hhh_core::{WireFormat, WireSnapshot};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::Nanos;
use hhh_window::{render_report_line, ReportSink, WindowReport};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fixed pause between two `/hhh` polls.
pub const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// How long a pass waits for the daemon to serve a point before the
/// point counts as failed.
pub const SERVE_DEADLINE: Duration = Duration::from_secs(30);

/// Keeps a copy of every report and state frame a shard pipeline hands
/// its sink, so the daemon's answer can be checked against an
/// in-process fold of exactly those frames.
pub struct Tee<K, P> {
    inner: K,
    reports: Vec<(usize, WindowReport<P>)>,
    frames: Vec<SnapshotFrame>,
}

/// What a [`Tee`] kept, next to the wrapped sink's own output.
pub struct Teed<O, P> {
    pub output: O,
    pub reports: Vec<(usize, WindowReport<P>)>,
    pub frames: Vec<SnapshotFrame>,
}

impl<K, P> Tee<K, P> {
    pub fn new(inner: K) -> Self {
        Tee { inner, reports: Vec::new(), frames: Vec::new() }
    }
}

impl<P: Clone, K: ReportSink<P>> ReportSink<P> for Tee<K, P> {
    type Output = Teed<K::Output, P>;

    fn begin(&mut self, series: usize) {
        self.inner.begin(series);
    }

    fn accept(&mut self, series: usize, report: WindowReport<P>) {
        self.reports.push((series, report.clone()));
        self.inner.accept(series, report);
    }

    fn state(&mut self, start: Nanos, at: Nanos, snapshot: &DetectorSnapshot) {
        self.inner.state(start, at, snapshot);
    }

    fn wants_frames(&self) -> bool {
        self.inner.wants_frames()
    }

    fn state_frame(&mut self, frame: &SnapshotFrame) {
        self.frames.push(frame.clone());
        self.inner.state_frame(frame);
    }

    fn finish(self) -> Self::Output {
        Teed { output: self.inner.finish(), reports: self.reports, frames: self.frames }
    }
}

/// Bytes the frames of one shard stream took on the wire: report
/// frames plus state frames.
pub fn stream_bytes<P: Display>(
    reports: &[(usize, WindowReport<P>)],
    frames: &[SnapshotFrame],
) -> u64 {
    let report_bytes: usize = reports
        .iter()
        .map(|(series, r)| {
            let line = render_report_line(*series, r);
            SnapshotFrame::report(&line, r.start, r.end, r.total).encode().len()
        })
        .sum();
    let state_bytes: usize = frames.iter().map(|f| f.encode().len()).sum();
    (report_bytes + state_bytes) as u64
}

/// One `/hhh` poll as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Poll {
    pub done: Instant,
    pub ms: f64,
    pub ok: bool,
    /// `end_ns` of the newest point in the answer (0 when none).
    pub latest_end: u64,
}

/// `end_ns` of the last report line in a `/hhh` body.
pub fn latest_end(body: &[u8]) -> u64 {
    const KEY: &[u8] = b"\"end_ns\":";
    let Some(at) = body.windows(KEY.len()).rposition(|w| w == KEY) else { return 0 };
    body[at + KEY.len()..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
}

/// Send one poll, timing it (and tracing it as `http.get`).
pub fn poll_once(http: &str, path: &str, tracer: Option<&Tracer>) -> (Poll, Vec<u8>) {
    let start = Instant::now();
    let answer = span(tracer, "http.get", || http_get(http, path));
    let done = Instant::now();
    let ms = (done - start).as_secs_f64() * 1e3;
    match answer {
        Ok((200, body)) => (Poll { done, ms, ok: true, latest_end: latest_end(&body) }, body),
        _ => (Poll { done, ms, ok: false, latest_end: 0 }, Vec::new()),
    }
}

/// A sequential `/hhh` poller on its own thread: one request at a
/// time, [`POLL_INTERVAL`] apart.
pub struct Poller {
    stop: Arc<AtomicBool>,
    served_end: Arc<AtomicU64>,
    handle: JoinHandle<Vec<Poll>>,
}

impl Poller {
    pub fn start(http: String, path: String, tracer: Option<Tracer>) -> Poller {
        let stop = Arc::new(AtomicBool::new(false));
        let served_end = Arc::new(AtomicU64::new(0));
        let (stop_flag, served) = (Arc::clone(&stop), Arc::clone(&served_end));
        let handle = std::thread::spawn(move || {
            let mut polls = Vec::new();
            while !stop_flag.load(Ordering::Relaxed) {
                let (poll, _) = poll_once(&http, &path, tracer.as_ref());
                served.fetch_max(poll.latest_end, Ordering::Relaxed);
                polls.push(poll);
                std::thread::sleep(POLL_INTERVAL);
            }
            polls
        });
        Poller { stop, served_end, handle }
    }

    /// Block until some poll has served a point at or after `end`.
    pub fn wait_served(&self, end: Nanos) -> Result<(), String> {
        let deadline = Instant::now() + SERVE_DEADLINE;
        while self.served_end.load(Ordering::Relaxed) < end.as_nanos() {
            if Instant::now() > deadline {
                return Err(format!("daemon never served the point at {end}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    pub fn stop(self) -> Vec<Poll> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("poller thread panicked")
    }
}

/// For each point (`ends`, stamped when its closing packet or tick was
/// handed over), the first poll that served it: `(latency ms, poll)`.
pub fn served_latencies(
    ends: &[Nanos],
    stamps: &[Instant],
    polls: &[Poll],
) -> Vec<Option<(f64, Poll)>> {
    ends.iter()
        .zip(stamps)
        .map(|(end, stamp)| {
            polls
                .iter()
                .find(|p| p.ok && p.latest_end >= end.as_nanos())
                .map(|p| (p.done.saturating_duration_since(*stamp).as_secs_f64() * 1e3, *p))
        })
        .collect()
}

/// Replay the frames the shards sent through an in-process
/// [`FoldState`] and render it the way `/hhh?all=1&state=1` does.
/// Returns the rendered bytes and the points folded.
pub fn replay(streams: &[(u64, &[SnapshotFrame])], tracer: Option<&Tracer>) -> (Vec<u8>, u64) {
    let h: Ipv4Hierarchy = hierarchy();
    let mut fold: FoldState<Ipv4Hierarchy> = FoldState::new();
    let points = span_n(tracer, "agg.refold", Some(0), || {
        for (id, frames) in streams {
            for frame in *frames {
                fold.push(*id, WireSnapshot::Binary(frame.clone()));
            }
        }
        let points = fold.refold(&h).expect("the shards' own frames fold");
        (points as u64, points as u64)
    });
    let body = span_n(tracer, "agg.render", Some(0), || {
        let mut out = Vec::new();
        write_merged(&mut out, fold.points(), &[distagg_threshold()], true, WireFormat::Json)
            .expect("rendering into memory cannot fail");
        (out, points)
    });
    (body, points)
}

/// The daemon's own view at the end of a pass, from `/metrics`.
#[derive(Clone, Copy, Debug)]
pub struct DaemonStats {
    pub fold_p50_s: f64,
    pub refolded_points: f64,
    /// Operations that went wrong: reconnects, refused resumes, failed
    /// refolds.
    pub trouble: u64,
}

pub fn daemon_stats(http: &str) -> Result<DaemonStats, String> {
    let (status, body) = http_get(http, "/metrics")?;
    if status != 200 {
        return Err(format!("GET /metrics -> {status}"));
    }
    let body = String::from_utf8_lossy(&body);
    let get = |name: &str| metric(&body, name).ok_or(format!("{name} missing from /metrics"));
    let reconnects: f64 = metric_samples(&body, "aggd_stream_connects_total")
        .iter()
        .map(|c| (c - 1.0).max(0.0))
        .sum();
    let trouble = reconnects + get("aggd_gaps_total")? + get("aggd_fold_errors_total")?;
    Ok(DaemonStats {
        fold_p50_s: get("aggd_fold_duration_seconds")?,
        refolded_points: get("aggd_refolded_points_total")?,
        trouble: trouble as u64,
    })
}

/// Per report point, when the last shard's sink finished writing the
/// point's state frame (traced passes only).
fn write_ends(tracer: Option<&Tracer>) -> Vec<Option<Instant>> {
    let Some(t) = tracer else { return Vec::new() };
    let mut ends: Vec<Option<Instant>> = Vec::new();
    for s in t.spans().iter().filter(|s| s.name == "window.sink" && s.count > 0) {
        let i = s.point as usize;
        if ends.len() <= i {
            ends.resize(i + 1, None);
        }
        let at = t.instant(s.end);
        ends[i] = Some(ends[i].map_or(at, |prev| prev.max(at)));
    }
    ends
}

/// The `aggd.*` layer values a serving pass measures outside its spans:
/// `served` is when each point was first served, `child_cpu_s` the
/// daemon's CPU over the pass.
pub fn aggd_layers(
    tracer: Option<&Tracer>,
    served: &[Option<Instant>],
    points: u64,
    child_cpu_s: f64,
    child_rss_kb: u64,
    stats: DaemonStats,
    queries: &[f64],
) -> BTreeMap<&'static str, f64> {
    let lags: Vec<f64> = write_ends(tracer)
        .iter()
        .zip(served)
        .filter_map(|(written, served)| {
            Some(served.as_ref()?.saturating_duration_since((*written)?).as_secs_f64() * 1e3)
        })
        .collect();
    let points = points as f64;
    BTreeMap::from([
        ("aggd.visible_lag_ms_p50", median(&lags)),
        ("aggd.cpu_ms_per_point", child_cpu_s * 1e3 / points),
        ("aggd.rss_mb", child_rss_kb as f64 / 1024.0),
        ("aggd.fold_ms_p50", stats.fold_p50_s * 1e3),
        ("aggd.refolds_per_point", stats.refolded_points / points),
        ("aggd.query_ms_p50", quantile(queries, 0.5)),
        ("aggd.query_ms_p99", quantile(queries, 0.99)),
    ])
}
