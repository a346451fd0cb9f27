//! `ddos-flood-mitigate`: the detect → decide → drop loop. Each
//! window of the `ddos-flood` trace passes the rule-table gate, its
//! survivors go to two single-detector MVPipe shard pipelines (the
//! `aggd-shard` topology) streaming to the `hhh-aggd` child, and the
//! control loop polls `/hhh` until the window is served fully folded, then
//! feeds it to the policy engine whose rules gate the next window.

use crate::pass::Pass;
use crate::serve::{
    aggd_layers, daemon_stats, poll_once, replay, stream_bytes, Tee, SERVE_DEADLINE,
};
use crate::sys::{cpu_seconds, http_get, peak_rss_kb, steal_seconds, Daemon};
use crate::trace::{span, span_n, Timed, TimedSink, TimedSource, Tracer};
use crate::{Quality, Workload};
use hhh_aggd::scenario::{
    distagg_threshold, hierarchy, shard_label, stream_id, Kind, DISTAGG_MVPIPE_BUCKETS,
    DISTAGG_WINDOW,
};
use hhh_analysis::SetAccuracy;
use hhh_core::snapshot::SnapshotFrame;
use hhh_core::{ExactHhh, HhhDetector, MvPipeHhh};
use hhh_loadgen::parse_report_windows;
use hhh_loadgen::scenario::ddos_flood;
use hhh_mitigate::{parse_policy_windows, GateTotals, PolicyConfig, PolicyEngine, TableGate};
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::source::bounded;
use hhh_window::{
    shard_of, Pipeline, RuleFilter, ShardedDisjoint, Source, TcpTransport, TransportSink,
};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Trace length of one pass: twelve report windows.
const HORIZON: TimeSpan = TimeSpan::from_secs(60);
/// Packets per batch handed to a shard pipeline.
const BATCH: usize = 1024;
/// Pause between two `/hhh` polls of one window. Polling starts once
/// the window is handed over, since no earlier poll can serve it.
pub const POLL_PAUSE: Duration = Duration::from_micros(200);
const QUERY: &str = "/hhh?kind=mvpipe";
const ALL_QUERY: &str = "/hhh?kind=mvpipe&all=1";
const STATE_QUERY: &str = "/hhh?kind=mvpipe&all=1&state=1";

/// What scoring needs from the first pass.
struct FirstPass {
    survivors: Vec<Vec<PacketRecord>>,
    totals: Vec<GateTotals>,
    /// `(window, trace time)` of the first rule covering a planted prefix.
    planted_fire: Option<(usize, Nanos)>,
    onset: Nanos,
    frames: Vec<SnapshotFrame>,
    body: Vec<u8>,
}

pub struct Mitigate {
    aggd: String,
    seed: u64,
    first: Option<FirstPass>,
}

impl Mitigate {
    pub fn new(aggd: &str, seed: u64) -> Self {
        Mitigate { aggd: aggd.to_string(), seed, first: None }
    }
}

fn covers_planted(truth: &[Ipv4Prefix], prefix: Ipv4Prefix) -> bool {
    truth.iter().any(|t| t.contains(prefix) || prefix.contains(*t))
}

impl Workload for Mitigate {
    fn pass(&mut self, tracer: Option<Tracer>) -> Result<Pass, String> {
        let tr = tracer.as_ref();
        let setup = Instant::now();
        let scenario = span(tr, "trace.synth", || ddos_flood(HORIZON, self.seed));
        let synth_s = setup.elapsed().as_secs_f64();
        let n_windows = (HORIZON / DISTAGG_WINDOW) as usize;
        let mut by_window: Vec<Vec<PacketRecord>> = vec![Vec::new(); n_windows];
        for p in &scenario.packets {
            if let Some(bin) = by_window.get_mut(p.ts.bin_index(DISTAGG_WINDOW) as usize) {
                bin.push(*p);
            }
        }
        let offered_bytes: u64 = by_window.iter().flatten().map(|p| u64::from(p.wire_len)).sum();
        let offered_packets = by_window.iter().map(Vec::len).sum::<usize>() as u64;
        let truth: Vec<Ipv4Prefix> = scenario.truth.planted.iter().map(|p| p.prefix).collect();
        let onset = scenario.truth.planted.iter().map(|p| p.onset).min().unwrap_or(Nanos::ZERO);
        drop(scenario);

        let daemon = Daemon::spawn(&self.aggd)?;
        let mut engine = PolicyEngine::new(PolicyConfig::default());
        let mut gate = Some(TableGate::new(engine.table()).with_truth(truth.clone()));
        let mut feeders = Vec::with_capacity(crate::SHARDS);
        let mut pipes = Vec::with_capacity(crate::SHARDS);
        for shard in 0..crate::SHARDS {
            let (feeder, source) = bounded(4, 1024);
            feeders.push(feeder);
            let (frames_addr, tracer) = (daemon.frames.clone(), tracer.clone());
            pipes.push(std::thread::spawn(move || {
                let detector =
                    Timed::new(MvPipeHhh::new(hierarchy(), DISTAGG_MVPIPE_BUCKETS), tracer.clone());
                let transport = TcpTransport::connect(frames_addr).with_hello(
                    stream_id(Kind::MvPipe, crate::SHARDS, shard),
                    shard_label(Kind::MvPipe, crate::SHARDS, shard),
                );
                let sink = Tee::new(TimedSink::new(TransportSink::new(transport), tracer.clone()));
                let source = TimedSource::new(source, tracer.clone(), "window.source");
                let engine = ShardedDisjoint::new(
                    vec![detector],
                    HORIZON,
                    DISTAGG_WINDOW,
                    &[distagg_threshold()],
                    |p| p.src,
                );
                span_n(tracer.as_ref(), "window.engine", Some(0), || {
                    (Pipeline::new(source).engine(engine).sink(sink).run(), 0)
                })
            }));
        }
        let child_cpu0 = cpu_seconds(Some(daemon.pid()))?;
        let cpu0 = cpu_seconds(None)? + child_cpu0;
        let steal0 = steal_seconds()?;
        let first_packet = Instant::now();
        let setup_s = (first_packet - setup).as_secs_f64();

        let mut latencies = Vec::with_capacity(n_windows);
        let mut queries = Vec::new();
        let (mut polls_sent, mut polls_failed) = (0u64, 0u64);
        let mut served_at: Vec<Option<Instant>> = Vec::with_capacity(n_windows);
        let mut window_totals = Vec::with_capacity(n_windows);
        let mut survivors_kept = Vec::new();
        let mut planted_fire = None;
        let (mut rules_active_max, mut last_end) = (0u64, first_packet);
        for (w, window) in by_window.iter().enumerate() {
            // 1. Gate the window with the rules fired so far.
            let mut filter = RuleFilter::new(
                TimedSource::new(window.iter().copied(), tracer.clone(), "gate.input"),
                gate.take().expect("gate is returned every window"),
            );
            let mut survivors: Vec<PacketRecord> = Vec::with_capacity(window.len());
            while span_n(tr, "window.gate", Some(w as u64), || {
                (filter.pull_chunk(&mut survivors), 0)
            }) {}
            let (_, mut g) = filter.into_parts();
            window_totals.push(g.take_totals());
            gate = Some(g);

            // 2. Feed the survivors to the shard pipelines, interleaved by
            // batch, close the window with a zero-weight tick per shard
            // and stamp the hand-over.
            let expected_total: u64 = survivors.iter().map(|p| u64::from(p.wire_len)).sum();
            let mut parts: Vec<Vec<PacketRecord>> = (0..crate::SHARDS)
                .map(|_| Vec::with_capacity(survivors.len() / crate::SHARDS + 1))
                .collect();
            for p in &survivors {
                parts[shard_of(&p.src, crate::SHARDS)].push(*p);
            }
            let window_end = Nanos::ZERO + DISTAGG_WINDOW * (w as u64 + 1);
            let longest = parts.iter().map(Vec::len).max().unwrap_or(0);
            for at in (0..longest).step_by(BATCH) {
                for (feeder, part) in feeders.iter_mut().zip(&parts) {
                    let chunk = &part[at.min(part.len())..(at + BATCH).min(part.len())];
                    if !feeder.send_batch(chunk) {
                        return Err("mvpipe shard pipeline hung up".into());
                    }
                }
            }
            for feeder in &mut feeders {
                let tick = PacketRecord::new(window_end, 0, 0, 0);
                // The last tick lies past the horizon: the pipeline ends
                // on it and may hang up before the flush.
                if !(feeder.send(tick) && feeder.flush()) && window_end < Nanos::ZERO + HORIZON {
                    return Err("mvpipe shard pipeline hung up".into());
                }
            }
            let stamp = Instant::now();
            if self.first.is_none() {
                survivors_kept.push(survivors);
            }

            // 3. Poll until the window is served with every shard folded.
            let deadline = Instant::now() + SERVE_DEADLINE;
            let report = loop {
                let (poll, body) = poll_once(&daemon.http, QUERY, tr);
                polls_sent += 1;
                queries.push(poll.ms);
                if !poll.ok {
                    polls_failed += 1;
                } else if poll.latest_end == window_end.as_nanos() {
                    let mut reports = parse_policy_windows(&String::from_utf8_lossy(&body))?;
                    if reports.last().is_some_and(|r| r.total == expected_total) {
                        break reports.pop().expect("checked non-empty");
                    }
                }
                if Instant::now() > deadline {
                    return Err(format!("window {w} never served fully folded"));
                }
                std::thread::sleep(POLL_PAUSE);
            };
            last_end = Instant::now();
            latencies.push(last_end.saturating_duration_since(stamp).as_secs_f64() * 1e3);
            served_at.push(Some(last_end));

            // 4. Decide: rules fired now gate the next window.
            let fired_before = engine.fired_log().len();
            span_n(tr, "mitigate.ingest", Some(w as u64), || (engine.ingest(&report), 0));
            for fired in &engine.fired_log()[fired_before..] {
                if planted_fire.is_none() && covers_planted(&truth, fired.prefix) {
                    planted_fire = Some((w, fired.at));
                }
            }
            let active = engine.table().lock().expect("rule table lock").len() as u64;
            rules_active_max = rules_active_max.max(active);
        }
        let child_cpu1 = cpu_seconds(Some(daemon.pid()))?;
        let cpu1 = cpu_seconds(None)? + child_cpu1;
        let steal_s = steal_seconds()? - steal0;
        let (self_rss_kb, child_rss_kb) = (peak_rss_kb(None)?, peak_rss_kb(Some(daemon.pid()))?);

        // The clock has stopped: everything below is checking.
        let stall_s: f64 = feeders.iter().map(|f| f.stats().stall_seconds).sum();
        drop(feeders);
        let mut teed = Vec::with_capacity(crate::SHARDS);
        for (shard, pipe) in pipes.into_iter().enumerate() {
            let t = pipe.join().map_err(|_| format!("mvpipe shard {shard} panicked"))?;
            if let (_, Some(e)) = &t.output {
                return Err(format!("mvpipe shard {shard} transport: {e}"));
            }
            teed.push(t);
        }
        let mut sum = GateTotals::default();
        for t in &window_totals {
            sum.absorb(*t);
        }
        if sum.attack_offered_bytes + sum.legit_offered_bytes != offered_bytes
            || sum.packets_offered != offered_packets
            || sum.attack_dropped_bytes > sum.attack_offered_bytes
            || sum.legit_dropped_bytes > sum.legit_offered_bytes
        {
            return Err(format!(
                "gate totals {sum:?} do not add up to the {offered_bytes} bytes offered"
            ));
        }
        let (status, body) = http_get(&daemon.http, ALL_QUERY)?;
        if status != 200 {
            return Err(format!("GET {ALL_QUERY} -> {status}"));
        }
        // The byte-identity gate runs on the first pass; later passes
        // must send identical frames and serve identical reports.
        let streams: Vec<(u64, &[SnapshotFrame])> = teed
            .iter()
            .enumerate()
            .map(|(shard, t)| (stream_id(Kind::MvPipe, crate::SHARDS, shard), t.frames.as_slice()))
            .collect();
        let points = n_windows as u64;
        if self.first.is_none() || tr.is_some() {
            let (expected, _) = replay(&streams, tr);
            if self.first.is_none() {
                let (status, state) = http_get(&daemon.http, STATE_QUERY)?;
                if status != 200 || state != expected {
                    return Err(format!(
                        "GET {STATE_QUERY} differs from the in-process fold of the shards' frames"
                    ));
                }
            }
        }
        let frames: Vec<SnapshotFrame> =
            teed.iter().flat_map(|t| t.frames.iter().cloned()).collect();
        let stats = daemon_stats(&daemon.http)?;
        drop(daemon);

        let table = engine.table();
        let churn = table.lock().expect("rule table lock").churn();
        let mut pass = Pass {
            setup_s,
            synth_s,
            packets: offered_packets,
            wall_s: (last_end - first_packet).as_secs_f64(),
            cpu_s: cpu1 - cpu0,
            steal_s,
            self_rss_kb,
            child_rss_kb,
            points: n_windows as u64,
            attempted: n_windows as u64 + polls_sent + 1,
            failed: polls_failed + stats.trouble,
            ..Pass::default()
        };
        pass.counts.insert("packets", offered_packets);
        pass.counts.insert("points", points);
        pass.counts.insert(
            "survivor_bytes",
            offered_bytes - sum.attack_dropped_bytes - sum.legit_dropped_bytes,
        );
        pass.counts.insert("frames", teed.iter().map(|t| t.frames.len() as u64).sum());
        pass.counts.insert("served_bytes", body.len() as u64);
        pass.counts.insert("rules_fired", engine.stats().fired);
        pass.latencies_ms = latencies;
        if let Some(t) = tr {
            let frame_bytes: u64 = teed.iter().map(|t| stream_bytes(&t.reports, &t.frames)).sum();
            let child_cpu_s = child_cpu1 - child_cpu0;
            pass.layer =
                aggd_layers(tr, &served_at, points, child_cpu_s, child_rss_kb, stats, &queries);
            pass.layer.insert("window.feeder_stall_s", stall_s);
            pass.layer.insert("window.frame_bytes_per_point", frame_bytes as f64 / points as f64);
            pass.layer.insert("mitigate.rules_active_max", rules_active_max as f64);
            pass.layer.insert("mitigate.rule_churn", churn as f64);
            pass.spans = t.spans();
        }
        pass.queries_ms = queries;

        match &self.first {
            None => {
                self.first = Some(FirstPass {
                    survivors: survivors_kept,
                    totals: window_totals,
                    planted_fire,
                    onset,
                    frames,
                    body,
                });
            }
            Some(first)
                if first.body != body
                    || first.frames != frames
                    || first.totals != window_totals =>
            {
                return Err("two passes at one seed served different answers".into());
            }
            Some(_) => {}
        }
        Ok(pass)
    }

    fn quality(&self) -> Result<Quality, String> {
        let first = self.first.as_ref().ok_or("no pass ran")?;
        let served = parse_report_windows(&String::from_utf8_lossy(&first.body))?;
        let mut acc = SetAccuracy::default();
        for (w, survivors) in first.survivors.iter().enumerate() {
            let mut oracle = ExactHhh::new(hierarchy());
            for p in survivors {
                oracle.observe(p.src, u64::from(p.wire_len));
            }
            let truth: BTreeSet<Ipv4Prefix> =
                oracle.report(distagg_threshold()).into_iter().map(|r| r.prefix).collect();
            let end = Nanos::ZERO + DISTAGG_WINDOW * (w as u64 + 1);
            match served.iter().find(|s| s.end == end) {
                Some(got) => acc.merge(SetAccuracy::compare(&truth, &got.prefixes)),
                None => acc.fn_ += truth.len(),
            }
        }
        let mut sum = GateTotals::default();
        for t in &first.totals {
            sum.absorb(*t);
        }
        let (fire_w, fire_at) =
            first.planted_fire.ok_or("no rule ever covered the planted flood")?;
        let (mut post_offered, mut post_dropped) = (0u64, 0u64);
        for t in &first.totals[fire_w + 1..] {
            post_offered += t.attack_offered_bytes;
            post_dropped += t.attack_dropped_bytes;
        }
        if post_offered == 0 {
            return Err("the flood ended before its rule could act".into());
        }
        Ok(vec![
            ("f1", "ratio", acc.f1()),
            ("post_rule_drop_ratio", "ratio", post_dropped as f64 / post_offered as f64),
            (
                "collateral_ratio",
                "ratio",
                sum.legit_dropped_bytes as f64 / sum.legit_offered_bytes as f64,
            ),
            ("time_to_mitigate_s", "s", (fire_at - first.onset).as_secs_f64()),
        ])
    }
}
