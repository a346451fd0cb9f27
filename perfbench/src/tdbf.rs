//! `hidden-burst-tdbf`: the paper's own windowless detector on the
//! paper's own mechanism. One feeder pushes the `hidden-burst` trace as
//! fast as back-pressure allows into a two-shard `ShardedContinuous`
//! TDBF pipeline probed every second; its frames go over TCP to the
//! `hhh-aggd` child while one poller reads `/hhh?kind=tdbf-hhh`.

use crate::pass::Pass;
use crate::serve::{
    aggd_layers, daemon_stats, replay, served_latencies, stream_bytes, Poller, Tee,
};
use crate::sys::{cpu_seconds, http_get, peak_rss_kb, steal_seconds, Daemon};
use crate::trace::{span, span_n, Timed, TimedSink, TimedSource, Tracer};
use crate::{Quality, Workload};
use hhh_aggd::scenario::{
    distagg_threshold, hierarchy, shard_label, tdbf_config, Kind, DISTAGG_WINDOW,
};
use hhh_analysis::hidden::hidden_hhh;
use hhh_analysis::SetAccuracy;
use hhh_core::snapshot::SnapshotFrame;
use hhh_core::{ExactHhh, TdbfHhh};
use hhh_loadgen::parse_report_windows;
use hhh_loadgen::scenario::hidden_burst;
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::source::bounded;
use hhh_window::{
    Disjoint, Pipeline, ShardedContinuous, SlidingExact, TcpTransport, TransportSink,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Trace length of one pass: sixty one-second probes.
const HORIZON: TimeSpan = TimeSpan::from_secs(60);
/// The paper's sliding step, used as the probe cadence.
const PROBE_EVERY: TimeSpan = TimeSpan::from_secs(1);
const QUERY: &str = "/hhh?kind=tdbf-hhh";
const ALL_QUERY: &str = "/hhh?kind=tdbf-hhh&all=1";
const STATE_QUERY: &str = "/hhh?kind=tdbf-hhh&all=1&state=1";

pub struct Tdbf {
    aggd: String,
    seed: u64,
    /// The first pass's trace, frames and served reports, scored after
    /// the clock stops; later passes must match them.
    first: Option<(Vec<PacketRecord>, Vec<SnapshotFrame>, Vec<u8>)>,
}

impl Tdbf {
    pub fn new(aggd: &str, seed: u64) -> Self {
        Tdbf { aggd: aggd.to_string(), seed, first: None }
    }
}

fn probes() -> Vec<Nanos> {
    (1..=HORIZON / PROBE_EVERY).map(|i| Nanos::ZERO + PROBE_EVERY * i).collect()
}

impl Workload for Tdbf {
    fn pass(&mut self, tracer: Option<Tracer>) -> Result<Pass, String> {
        let tr = tracer.as_ref();
        let setup = Instant::now();
        let scenario = span(tr, "trace.synth", || hidden_burst(HORIZON, self.seed));
        let synth_s = setup.elapsed().as_secs_f64();
        let packets = scenario.packets;
        let daemon = Daemon::spawn(&self.aggd)?;
        let probes = probes();

        let (mut feeder, source) = bounded(4, 1024);
        let pipeline = {
            let (frames_addr, tracer, probes) =
                (daemon.frames.clone(), tracer.clone(), probes.clone());
            let n = packets.len() as u64;
            std::thread::spawn(move || {
                let detectors: Vec<_> = (0..crate::SHARDS)
                    .map(|_| Timed::new(TdbfHhh::new(hierarchy(), tdbf_config()), tracer.clone()))
                    .collect();
                let transport =
                    TcpTransport::connect(frames_addr).with_hello(0, shard_label(Kind::Tdbf, 1, 0));
                let sink = Tee::new(TimedSink::new(TransportSink::new(transport), tracer.clone()));
                let source = TimedSource::new(source, tracer.clone(), "window.source");
                let engine =
                    ShardedContinuous::new(detectors, &probes, distagg_threshold(), |p| p.src);
                span_n(tracer.as_ref(), "window.engine", Some(0), || {
                    (Pipeline::new(source).engine(engine).sink(sink).run(), n)
                })
            })
        };
        let poller = Poller::start(daemon.http.clone(), QUERY.to_string(), tracer.clone());

        let child_cpu0 = cpu_seconds(Some(daemon.pid()))?;
        let cpu0 = cpu_seconds(None)? + child_cpu0;
        let steal0 = steal_seconds()?;
        let first_packet = Instant::now();
        let setup_s = (first_packet - setup).as_secs_f64();

        // Feed: every probe's closing packet (the first at or after it)
        // is flushed on its own, and the hand-over stamped.
        let mut stamps: Vec<Instant> = Vec::with_capacity(probes.len());
        let mut from = 0usize;
        for probe in &probes {
            if let Some(&prev) = stamps.last().filter(|_| packets[from - 1].ts >= *probe) {
                stamps.push(prev); // closed by the previous probe's closing packet
                continue;
            }
            let close = from + packets[from..].partition_point(|p| p.ts < *probe);
            if close == packets.len() {
                break; // closed by the end of the stream
            }
            if !(feeder.send_batch(&packets[from..=close]) && feeder.flush()) {
                return Err("tdbf pipeline hung up mid-stream".into());
            }
            from = close + 1;
            stamps.push(Instant::now());
        }
        let sent_tail = from == packets.len() || feeder.send_batch(&packets[from..]);
        let stall_s = feeder.stats().stall_seconds;
        drop(feeder);
        if !sent_tail {
            return Err("tdbf pipeline hung up mid-stream".into());
        }
        let end_of_stream = Instant::now();
        stamps.resize(probes.len(), end_of_stream);

        let last = *probes.last().expect("at least one probe");
        let served = poller.wait_served(last);
        let child_cpu1 = cpu_seconds(Some(daemon.pid()))?;
        let cpu1 = cpu_seconds(None)? + child_cpu1;
        let steal_s = steal_seconds()? - steal0;
        let (self_rss_kb, child_rss_kb) = (peak_rss_kb(None)?, peak_rss_kb(Some(daemon.pid()))?);
        let polls = poller.stop();
        served?;
        let teed = pipeline.join().map_err(|_| "tdbf pipeline panicked".to_string())?;
        if let (_, Some(e)) = teed.output {
            return Err(format!("tdbf transport: {e}"));
        }

        // The clock has stopped: everything below is checking.
        let latencies = served_latencies(&probes, &stamps, &polls);
        let last_served = latencies.last().copied().flatten().map(|(_, p)| p.done);
        let end = last_served.ok_or("last probe never served")?;
        let queries: Vec<f64> = polls
            .iter()
            .filter(|p| p.done >= first_packet && p.done <= end)
            .map(|p| p.ms)
            .collect();
        let (status, body) = http_get(&daemon.http, ALL_QUERY)?;
        if status != 200 {
            return Err(format!("GET {ALL_QUERY} -> {status}"));
        }
        // The byte-identity gate runs on the first pass; later passes
        // must send identical frames and serve identical reports.
        let points = teed.frames.len() as u64;
        if self.first.is_none() || tracer.is_some() {
            let (expected, _) = replay(&[(0, teed.frames.as_slice())], tr);
            if self.first.is_none() {
                let (status, state) = http_get(&daemon.http, STATE_QUERY)?;
                if status != 200 || state != expected {
                    return Err(format!(
                        "GET {STATE_QUERY} differs from the in-process fold of the shard's frames"
                    ));
                }
            }
        }
        let stats = daemon_stats(&daemon.http)?;
        drop(daemon);

        let unserved = latencies.iter().filter(|l| l.is_none()).count() as u64;
        let failed_polls = polls.iter().filter(|p| !p.ok).count() as u64;
        let mut pass = Pass {
            setup_s,
            synth_s,
            packets: packets.len() as u64,
            wall_s: (end - first_packet).as_secs_f64(),
            cpu_s: cpu1 - cpu0,
            steal_s,
            self_rss_kb,
            child_rss_kb,
            latencies_ms: latencies.iter().flatten().map(|(ms, _)| *ms).collect(),
            points: probes.len() as u64,
            attempted: probes.len() as u64 + polls.len() as u64 + 1,
            failed: unserved + failed_polls + stats.trouble,
            ..Pass::default()
        };
        pass.counts.insert("packets", pass.packets);
        pass.counts.insert("points", points);
        pass.counts.insert("frames", teed.frames.len() as u64);
        pass.counts.insert("served_bytes", body.len() as u64);
        if let Some(t) = tr {
            let served: Vec<Option<Instant>> =
                latencies.iter().map(|l| l.map(|(_, p)| p.done)).collect();
            let child_cpu_s = child_cpu1 - child_cpu0;
            pass.layer =
                aggd_layers(tr, &served, points, child_cpu_s, child_rss_kb, stats, &queries);
            pass.layer.insert("window.feeder_stall_s", stall_s);
            let frame_bytes = stream_bytes(&teed.reports, &teed.frames);
            pass.layer.insert("window.frame_bytes_per_point", frame_bytes as f64 / points as f64);
            pass.spans = t.spans();
        }
        pass.queries_ms = queries;

        match &self.first {
            None => self.first = Some((packets, teed.frames, body)),
            Some((_, frames, first)) if *first != body || *frames != teed.frames => {
                return Err("two passes at one seed served different answers".into());
            }
            Some(_) => {}
        }
        Ok(pass)
    }

    fn quality(&self) -> Result<Quality, String> {
        let (packets, _, body) = self.first.as_ref().ok_or("no pass ran")?;
        let served = parse_report_windows(&String::from_utf8_lossy(body))?;
        let h = hierarchy();
        let t = [distagg_threshold()];
        let sliding = Pipeline::new(packets.iter().copied())
            .engine(SlidingExact::new(&h, HORIZON, DISTAGG_WINDOW, PROBE_EVERY, &t, |p| p.src))
            .collect()
            .run()
            .remove(0);
        let disjoint = Pipeline::new(packets.iter().copied())
            .engine(Disjoint::new(ExactHhh::new(h), HORIZON, DISTAGG_WINDOW, &t, |p| p.src))
            .collect()
            .run()
            .remove(0);

        // Oracle at a probe: the exact 5 s window ending there.
        let served_at: BTreeMap<u64, &BTreeSet<Ipv4Prefix>> =
            served.iter().map(|w| (w.end.as_nanos(), &w.prefixes)).collect();
        let mut acc = SetAccuracy::default();
        for window in &sliding {
            let truth = window.prefix_set();
            match served_at.get(&window.end.as_nanos()) {
                Some(got) => acc.merge(SetAccuracy::compare(&truth, got)),
                None => acc.fn_ += truth.len(),
            }
        }
        let hidden = hidden_hhh(&sliding, &disjoint).hidden_prefixes;
        if hidden.is_empty() {
            return Err("the trace has no hidden HHH to recall".into());
        }
        let ever: BTreeSet<Ipv4Prefix> =
            served.iter().flat_map(|w| w.prefixes.iter().copied()).collect();
        let recalled = hidden.intersection(&ever).count();
        Ok(vec![
            ("f1", "ratio", acc.f1()),
            ("hidden_recall", "ratio", recalled as f64 / hidden.len() as f64),
            ("hidden_prefixes", "count", hidden.len() as f64),
        ])
    }
}
