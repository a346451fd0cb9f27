//! The closed loop: drive a scenario's packets through real shard
//! pipelines over the socket transport into a live `hhh-aggd`, while
//! polling `/hhh` and `/metrics` over HTTP, then score what the
//! daemon *served* against the scenario's planted ground truth.
//!
//! Per detector kind the driver runs the real distributed topology:
//! one producer thread per shard pushes that shard's packets through a
//! [`bounded`] channel (the back-pressure seam — stall time is
//! reported), a pipeline thread runs the shard's windowed detector and
//! streams native snapshot frames to the daemon's frame port, and a
//! poller thread watches `/hhh?kind=…` for the planted prefixes to
//! measure time-to-detect. A scrape thread hammers `/metrics` for the
//! whole run; a single failed scrape fails the run — the PR 9
//! front-door hardening promises the metrics plane stays up under
//! load.
//!
//! Kinds run sequentially (shards within a kind in parallel) so the
//! sustained pkts/s figure per kind is not cross-kind contention.

use crate::scenario::Scenario;
use crate::score::{
    detect_time, metric_value, parse_report_windows, score_windows, KindScore, ReportWindow,
};
use hhh_aggd::scenario::{
    distagg_threshold, hierarchy, shard_label, shard_packets, single_process_reports_on, stream_id,
    Kind,
};
use hhh_aggd::{spawn_daemon, DaemonConfig, DaemonHandle};
use hhh_nettypes::Ipv4Prefix;
use hhh_window::source::bounded;
use hhh_window::{http_get, TcpTransport, TransportSink};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a scenario is driven.
pub struct DriveOptions {
    /// Shards per detector kind (the distributed fan-in width).
    pub shards: usize,
    /// Detector kinds to drive. The default skips `tdbf-hhh`: its
    /// continuous probe schedule has no disjoint-window counterpart to
    /// score against the oracle.
    pub kinds: Vec<Kind>,
    /// `/hhh` + `/metrics` poll cadence.
    pub poll_interval: Duration,
    /// Drive an already-running daemon at `(frame_addr, http_addr)`
    /// instead of spawning one in-process.
    pub external: Option<(String, String)>,
    /// How long to wait for the fold to catch up after the last frame.
    pub converge_timeout: Duration,
}

impl Default for DriveOptions {
    fn default() -> Self {
        DriveOptions {
            shards: 2,
            kinds: vec![Kind::Exact, Kind::SsHhh, Kind::Rhhh, Kind::MvPipe],
            poll_interval: Duration::from_millis(100),
            external: None,
            converge_timeout: Duration::from_secs(60),
        }
    }
}

/// Health of the HTTP plane over one scenario run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScrapeStats {
    /// Successful `/metrics` scrapes.
    pub scrapes: u64,
    /// Scrapes that failed (transport error or non-200) — the
    /// acceptance bar is zero.
    pub failures: u64,
    /// Final `aggd_http_accept_errors_total` sample.
    pub accept_errors_total: f64,
    /// Final `aggd_http_busy_total` sample.
    pub busy_total: f64,
    /// Final `aggd_frames_total` sample.
    pub frames_total: f64,
    /// Wall seconds the whole scenario run took.
    pub wall_seconds: f64,
}

/// One scenario's closed-loop result.
pub struct ScenarioRun {
    /// Per-kind scores, in `opts.kinds` order.
    pub kinds: Vec<KindScore>,
    /// HTTP-plane health over the run.
    pub scrapes: ScrapeStats,
}

/// Timestamped samples of the prefixes `/hhh` served — the
/// [`detect_time`] input.
type PollLog = Vec<(f64, BTreeSet<Ipv4Prefix>)>;

/// The daemon to drive: in-process (owned) or external (addresses).
pub(crate) enum Target {
    Spawned(DaemonHandle),
    External { frames: String, http: String },
}

impl Target {
    /// The external daemon `opts` names, or a fresh in-process one.
    pub(crate) fn acquire(opts: &DriveOptions) -> Result<Target, String> {
        Ok(match &opts.external {
            Some((frames, http)) => Target::External { frames: frames.clone(), http: http.clone() },
            None => Target::Spawned(
                spawn_daemon(DaemonConfig {
                    frame_addr: "127.0.0.1:0".into(),
                    http_addr: "127.0.0.1:0".into(),
                    hierarchy: hierarchy(),
                    thresholds: vec![distagg_threshold()],
                    retain: None,
                    log: false,
                    ..DaemonConfig::default()
                })
                .map_err(|e| format!("spawn daemon: {e}"))?,
            ),
        })
    }
    pub(crate) fn frame_addr(&self) -> String {
        match self {
            Target::Spawned(h) => h.frame_addr.to_string(),
            Target::External { frames, .. } => frames.clone(),
        }
    }
    pub(crate) fn http_addr(&self) -> String {
        match self {
            Target::Spawned(h) => h.http_addr.to_string(),
            Target::External { http, .. } => http.clone(),
        }
    }
}

/// Drive one scenario end to end and score it. Errors are plumbing
/// failures (daemon spawn, dropped scrapes, missing metric families,
/// fold never converging) — accuracy shortfalls are *results*, not
/// errors.
pub fn run_scenario(scenario: &Scenario, opts: &DriveOptions) -> Result<ScenarioRun, String> {
    let k = opts.shards.max(1);
    let target = Target::acquire(opts)?;
    let frame_addr = target.frame_addr();
    let http_addr = target.http_addr();

    let run_start = Instant::now();
    let stop_scrapes = Arc::new(AtomicBool::new(false));
    let scrape_ok = Arc::new(AtomicU64::new(0));
    let scrape_fail = Arc::new(AtomicU64::new(0));
    let scraper = {
        let (stop, ok, fail) = (stop_scrapes.clone(), scrape_ok.clone(), scrape_fail.clone());
        let (addr, every) = (http_addr.clone(), opts.poll_interval);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match http_get(&addr, "/metrics") {
                    Ok((200, _)) => ok.fetch_add(1, Ordering::Relaxed),
                    _ => fail.fetch_add(1, Ordering::Relaxed),
                };
                std::thread::sleep(every);
            }
        })
    };

    // The oracle schedule every kind is scored against: the unsharded
    // exact detector over the same disjoint windows.
    let reference: Vec<ReportWindow> =
        single_process_reports_on(Kind::Exact, &scenario.packets, scenario.horizon)
            .into_iter()
            .map(|w| ReportWindow {
                start: w.start,
                end: w.end,
                total: w.total,
                prefixes: w.prefix_set(),
            })
            .collect();
    let planted: BTreeSet<Ipv4Prefix> = scenario.truth.planted.iter().map(|p| p.prefix).collect();

    let mut kind_scores = Vec::new();
    for &kind in &opts.kinds {
        kind_scores.push(drive_kind(
            kind,
            scenario,
            k,
            &frame_addr,
            &http_addr,
            &reference,
            &planted,
            opts,
        )?);
    }

    stop_scrapes.store(true, Ordering::Relaxed);
    let _ = scraper.join();

    let (status, body) =
        http_get(&http_addr, "/metrics").map_err(|e| format!("final metrics scrape: {e}"))?;
    if status != 200 {
        return Err(format!("final metrics scrape: HTTP {status}"));
    }
    let body = String::from_utf8_lossy(&body);
    let accept_errors_total = metric_value(&body, "aggd_http_accept_errors_total")
        .ok_or("aggd_http_accept_errors_total missing from /metrics")?;
    let scrapes = ScrapeStats {
        scrapes: scrape_ok.load(Ordering::Relaxed) + 1,
        failures: scrape_fail.load(Ordering::Relaxed),
        accept_errors_total,
        busy_total: metric_value(&body, "aggd_http_busy_total").unwrap_or(0.0),
        frames_total: metric_value(&body, "aggd_frames_total").unwrap_or(0.0),
        wall_seconds: run_start.elapsed().as_secs_f64(),
    };
    if scrapes.failures > 0 {
        return Err(format!(
            "{} of {} /metrics scrapes failed during the run — the metrics plane \
             must stay up under load",
            scrapes.failures,
            scrapes.failures + scrapes.scrapes
        ));
    }

    if let Target::Spawned(handle) = target {
        handle.shutdown();
    }
    Ok(ScenarioRun { kinds: kind_scores, scrapes })
}

/// Drive one detector kind's shard topology and score it.
#[allow(clippy::too_many_arguments)]
fn drive_kind(
    kind: Kind,
    scenario: &Scenario,
    k: usize,
    frame_addr: &str,
    http_addr: &str,
    reference: &[ReportWindow],
    planted: &BTreeSet<Ipv4Prefix>,
    opts: &DriveOptions,
) -> Result<KindScore, String> {
    let label = kind.label();
    let all_query = format!("/hhh?kind={label}&all=1&threshold={}", scenario.threshold_pct);
    let t0 = Instant::now();

    // Detect poller: sample the union of every window the daemon has
    // served for this kind so far — time-to-detect is the wall-clock
    // delay from drive start until the planted prefixes were live in
    // `/hhh`, regardless of which window carried them.
    let stop_polls = Arc::new(AtomicBool::new(false));
    let polls: Arc<Mutex<PollLog>> = Arc::new(Mutex::new(Vec::new()));
    let poller = {
        let (stop, polls) = (stop_polls.clone(), polls.clone());
        let (addr, path, every) = (http_addr.to_string(), all_query.clone(), opts.poll_interval);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Ok((200, body)) = http_get(&addr, &path) {
                    if let Ok(windows) = parse_report_windows(&String::from_utf8_lossy(&body)) {
                        let at = t0.elapsed().as_secs_f64();
                        let served: BTreeSet<Ipv4Prefix> =
                            windows.iter().flat_map(|w| w.prefixes.iter().copied()).collect();
                        polls.lock().expect("polls lock").push((at, served));
                    }
                }
                std::thread::sleep(every);
            }
        })
    };

    // One producer + pipeline pair per shard, all shards in parallel.
    let shard_results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|shard| {
                let packets = shard_packets(&scenario.packets, k, shard);
                scope.spawn(move || {
                    let (mut feeder, source) = bounded(4, 1024);
                    let n = packets.len() as u64;
                    let producer = std::thread::spawn(move || {
                        feeder.send_batch(&packets);
                        feeder.flush();
                        feeder.stats()
                    });
                    let start = Instant::now();
                    let transport = TcpTransport::connect(frame_addr)
                        .with_hello(stream_id(kind, k, shard), shard_label(kind, k, shard));
                    let (_t, err) = hhh_aggd::scenario::shard_source_into(
                        kind,
                        source,
                        scenario.horizon,
                        shard,
                        TransportSink::new(transport),
                    );
                    let elapsed = start.elapsed().as_secs_f64();
                    let stats = producer.join().expect("producer thread");
                    match err {
                        Some(e) => Err(format!("{label} shard {shard}: transport: {e}")),
                        None => Ok((n, elapsed, stats.stall_seconds)),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard thread")).collect()
    });

    let mut packets = 0u64;
    let mut drive_seconds = 0f64;
    let mut stall_seconds = 0f64;
    for r in shard_results {
        let (n, elapsed, stall) = r?;
        packets += n;
        drive_seconds = drive_seconds.max(elapsed);
        stall_seconds += stall;
    }

    // Convergence: the fold must surface every oracle window, then go
    // clean (no dirty points awaiting a refold).
    let deadline = Instant::now() + opts.converge_timeout;
    let observed = loop {
        if let Ok((200, body)) = http_get(http_addr, &all_query) {
            if let Ok(windows) = parse_report_windows(&String::from_utf8_lossy(&body)) {
                if windows.len() >= reference.len() {
                    break windows;
                }
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "{label}: fold never reached {} windows within {:?}",
                reference.len(),
                opts.converge_timeout
            ));
        }
        std::thread::sleep(opts.poll_interval);
    };
    while metric_value(
        &String::from_utf8_lossy(
            &http_get(http_addr, "/metrics").map_err(|e| format!("{label}: {e}"))?.1,
        ),
        "aggd_points_dirty",
    )
    .is_none_or(|v| v > 0.0)
    {
        if Instant::now() > deadline {
            return Err(format!("{label}: fold stayed dirty past {:?}", opts.converge_timeout));
        }
        std::thread::sleep(opts.poll_interval);
    }

    // One guaranteed post-convergence sample: if the fold beat the
    // poll cadence, the converged answer itself is the detection
    // moment.
    let final_set: BTreeSet<Ipv4Prefix> =
        observed.iter().flat_map(|w| w.prefixes.iter().copied()).collect();
    polls.lock().expect("polls lock").push((t0.elapsed().as_secs_f64(), final_set.clone()));
    stop_polls.store(true, Ordering::Relaxed);
    let _ = poller.join();

    let accuracy = score_windows(reference, &observed);
    let polls = polls.lock().expect("polls lock");
    let time_to_detect = detect_time(&polls, planted, 1.0);
    let detected = !planted.is_empty() && planted.iter().all(|p| final_set.contains(p));

    Ok(KindScore {
        kind: label,
        shards: k,
        accuracy,
        windows_observed: observed.len(),
        windows_expected: reference.len(),
        time_to_detect,
        detected,
        packets,
        drive_seconds,
        pkts_per_sec: if drive_seconds > 0.0 { packets as f64 / drive_seconds } else { 0.0 },
        stall_seconds,
    })
}
