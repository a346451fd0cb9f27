//! `capture-sliding-exact`: the paper's offline analysis. The
//! 10 000-source Zipf trace of the sliding scoreboard is written once
//! into an in-memory pcap image, then read back through `PcapSource`
//! into a two-shard `ShardedSliding` of exact detectors (5 s window,
//! 100 ms step); the disjoint 5 s windows are the positions aligned to
//! the window length, and the two schedules give the hidden-HHH
//! fraction. No daemon is involved.

use crate::pass::Pass;
use crate::sys::{cpu_seconds, peak_rss_kb, steal_seconds};
use crate::trace::{span, span_n, Timed, TimedSink, TimedSource, Tracer};
use crate::{Quality, Workload};
use hhh_aggd::scenario::{distagg_threshold, hierarchy, DISTAGG_WINDOW};
use hhh_analysis::hidden::hidden_hhh;
use hhh_analysis::SetAccuracy;
use hhh_core::ExactHhh;
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_pcap::{PcapSource, PcapWriter};
use hhh_trace::{TraceGenerator, TrafficModel};
use hhh_window::{
    Disjoint, Pipeline, ReportSink, ShardedSliding, SlidingExact, Source, WindowReport,
};
use std::time::Instant;

/// Trace length of one pass.
const HORIZON: TimeSpan = TimeSpan::from_secs(30);
const STEP: TimeSpan = TimeSpan::from_millis(100);
/// Capture only the headers: the pcap image stays small and every
/// record still parses to the same packet.
const SNAPLEN: u32 = 64;

/// The sliding scoreboard's high-cardinality trace, at this seed.
fn trace(seed: u64) -> Vec<PacketRecord> {
    let model = TrafficModel {
        duration: HORIZON,
        sources: 10_000,
        zipf_alpha: 1.0,
        total_pps: 25_000.0,
        networks: 256,
        ..TrafficModel::default()
    };
    TraceGenerator::new(model, seed).collect()
}

/// Report points are the sliding positions; position `i` closes at
/// `window + i·step`.
fn position_ends() -> Vec<Nanos> {
    let positions = (HORIZON - DISTAGG_WINDOW) / STEP + 1;
    (0..positions).map(|i| Nanos::ZERO + DISTAGG_WINDOW + STEP * i).collect()
}

/// Stamps the instant each chunk that closes a report point is handed
/// to the engine (end of stream closes the rest).
struct StampSource<'a, S> {
    inner: S,
    ends: &'a [Nanos],
    stamps: &'a mut Vec<Instant>,
}

impl<S: Source<Item = PacketRecord>> Source for StampSource<'_, S> {
    type Item = PacketRecord;

    fn pull_chunk(&mut self, buf: &mut Vec<PacketRecord>) -> bool {
        let more = self.inner.pull_chunk(buf);
        let now = Instant::now();
        let reached = match (more, buf.last()) {
            (true, Some(last)) => self.ends.partition_point(|e| *e <= last.ts),
            _ => self.ends.len(),
        };
        while self.stamps.len() < reached {
            self.stamps.push(now);
        }
        more
    }
}

/// Collects the sliding reports with the instant each arrived.
#[derive(Default)]
struct PointSink {
    reports: Vec<WindowReport<Ipv4Prefix>>,
    arrived: Vec<Instant>,
}

impl ReportSink<Ipv4Prefix> for PointSink {
    type Output = Self;

    fn accept(&mut self, _series: usize, report: WindowReport<Ipv4Prefix>) {
        self.arrived.push(Instant::now());
        self.reports.push(report);
    }

    fn finish(self) -> Self {
        self
    }
}

/// The disjoint schedule inside the sliding one: positions whose start
/// is a multiple of the window length.
fn disjoint_of(sliding: &[WindowReport<Ipv4Prefix>]) -> Vec<WindowReport<Ipv4Prefix>> {
    sliding
        .iter()
        .filter(|r| r.start.as_nanos() % DISTAGG_WINDOW.as_nanos() == 0)
        .cloned()
        .collect()
}

pub struct Capture {
    seed: u64,
    /// The first pass's trace and sliding reports, checked after the
    /// clock stops; later passes must report identically.
    first: Option<(Vec<PacketRecord>, Vec<WindowReport<Ipv4Prefix>>)>,
}

impl Capture {
    pub fn new(seed: u64) -> Self {
        Capture { seed, first: None }
    }
}

impl Workload for Capture {
    fn pass(&mut self, tracer: Option<Tracer>) -> Result<Pass, String> {
        let tr = tracer.as_ref();
        let setup = Instant::now();
        let packets = span(tr, "trace.synth", || trace(self.seed));
        let mut image = Vec::new();
        let mut writer =
            PcapWriter::with_snaplen(&mut image, SNAPLEN).map_err(|e| e.to_string())?;
        writer.write_all_records(&packets).map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        drop(writer);
        let synth_s = setup.elapsed().as_secs_f64();

        let ends = position_ends();
        let h = hierarchy();
        let engine = ShardedSliding::new(
            crate::SHARDS,
            |_| Timed::new(ExactHhh::new(h), tracer.clone()),
            HORIZON,
            DISTAGG_WINDOW,
            STEP,
            &[distagg_threshold()],
            |p: &PacketRecord| p.src,
        );
        let mut pcap = PcapSource::open(image.as_slice()).map_err(|e| e.to_string())?;
        let cpu0 = cpu_seconds(None)?;
        let steal0 = steal_seconds()?;
        let first_packet = Instant::now();
        let setup_s = (first_packet - setup).as_secs_f64();

        let mut stamps = Vec::with_capacity(ends.len());
        let source = StampSource {
            inner: TimedSource::new(&mut pcap, tracer.clone(), "pcap.source"),
            ends: &ends,
            stamps: &mut stamps,
        };
        let sink = span_n(tr, "window.engine", Some(0), || {
            let sink = TimedSink::new(PointSink::default(), tracer.clone());
            (Pipeline::new(source).engine(engine).sink(sink).run(), packets.len() as u64)
        });
        let end = *sink.arrived.last().ok_or("the sliding engine reported nothing")?;
        let cpu1 = cpu_seconds(None)?;
        let steal_s = steal_seconds()? - steal0;
        let self_rss = peak_rss_kb(None)?;

        // The clock has stopped: everything below is checking.
        if let Some(e) = pcap.error() {
            return Err(format!("pcap read back failed: {e}"));
        }
        if pcap.reader().frames_read() != packets.len() as u64 || sink.reports.len() != ends.len() {
            return Err("pcap read-back lost packets or report points".into());
        }
        let latencies_ms: Vec<f64> = sink
            .arrived
            .iter()
            .zip(&stamps)
            .map(|(arrived, stamp)| arrived.saturating_duration_since(*stamp).as_secs_f64() * 1e3)
            .collect();
        let mut pass = Pass {
            setup_s,
            synth_s,
            packets: packets.len() as u64,
            wall_s: (end - first_packet).as_secs_f64(),
            cpu_s: cpu1 - cpu0,
            steal_s,
            self_rss_kb: self_rss,
            latencies_ms,
            points: ends.len() as u64,
            attempted: ends.len() as u64,
            failed: 0,
            ..Pass::default()
        };
        pass.counts.insert("packets", pass.packets);
        pass.counts.insert("points", pass.points);
        pass.counts.insert("pcap_bytes", image.len() as u64);
        pass.counts.insert(
            "hidden",
            hidden_hhh(&sink.reports, &disjoint_of(&sink.reports)).hidden_prefixes.len() as u64,
        );
        if let Some(t) = tr {
            pass.spans = t.spans();
        }

        match &self.first {
            None => self.first = Some((packets, sink.reports)),
            Some((_, first)) if *first != sink.reports => {
                return Err("two passes at one seed reported differently".into());
            }
            Some(_) => {}
        }
        Ok(pass)
    }

    fn quality(&self) -> Result<Quality, String> {
        let (packets, sharded) = self.first.as_ref().ok_or("no pass ran")?;
        let h = hierarchy();
        let t = [distagg_threshold()];
        let sliding = Pipeline::new(packets.iter().copied())
            .engine(SlidingExact::new(&h, HORIZON, DISTAGG_WINDOW, STEP, &t, |p| p.src))
            .collect()
            .run()
            .remove(0);
        let disjoint = Pipeline::new(packets.iter().copied())
            .engine(Disjoint::new(ExactHhh::new(h), HORIZON, DISTAGG_WINDOW, &t, |p| p.src))
            .collect()
            .run()
            .remove(0);
        if *sharded != sliding {
            return Err("sharded sliding reports differ from single-threaded SlidingExact".into());
        }
        let aligned = disjoint_of(sharded);
        let same_disjoint = aligned.len() == disjoint.len()
            && aligned.iter().zip(&disjoint).all(|(a, d)| {
                (a.start, a.end, a.total, &a.hhhs) == (d.start, d.end, d.total, &d.hhhs)
            });
        if !same_disjoint {
            return Err("aligned sliding positions differ from the Disjoint reference".into());
        }
        let got = hidden_hhh(sharded, &aligned);
        let want = hidden_hhh(&sliding, &disjoint);
        if got != want {
            return Err("hidden-HHH fraction differs from the reference".into());
        }
        let mut acc = SetAccuracy::default();
        for (s, r) in sharded.iter().zip(&sliding) {
            acc.merge(SetAccuracy::compare(&r.prefix_set(), &s.prefix_set()));
        }
        Ok(vec![
            ("f1", "ratio", acc.f1()),
            ("hidden_fraction", "ratio", got.hidden_fraction),
            ("hidden_prefixes", "count", got.hidden_prefixes.len() as f64),
        ])
    }
}
