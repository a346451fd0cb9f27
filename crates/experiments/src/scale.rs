//! Experiment scales: the same experiments at three sizes — plus the
//! scaling experiment itself, a shard-count sweep over the batched,
//! mergeable ingestion pipeline (`hhh-window::sharded`).

use hhh_analysis::{fmt_f, jaccard, Table};
use hhh_core::{
    ExactHhh, HhhDetector, MementoHhh, MergeableDetector, Rhhh, SpaceSavingHhh, Threshold,
};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::{Ipv4Prefix, PacketRecord, TimeSpan};
use hhh_trace::{scenarios, TraceGenerator};
use hhh_window::{
    source, Disjoint, Pipeline, ShardedDisjoint, ShardedSliding, SlidingExact, WindowReport,
    DEFAULT_BATCH,
};
use std::time::Instant;

/// How big to run an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long traces: CI and unit-test sized. Shapes visible,
    /// percentages noisy.
    Smoke,
    /// Minutes-long traces: the default for interactive runs.
    Quick,
    /// The paper's durations: 1 h day traces, 20 min micro-variation
    /// trace. Expect tens of minutes of compute.
    Paper,
}

impl Scale {
    /// Parse from a CLI argument (`smoke` / `quick` / `paper`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Read from argv, for a binary whose only positional argument is
    /// the scale: the first argument that is not one of `flags` names
    /// it, default `Quick`. Any other argument — a scale typo, a second
    /// positional, an unknown flag — prints `usage` naming it and exits
    /// 2.
    pub fn from_args(usage: &str, flags: &[&str]) -> Scale {
        let mut scale = None;
        for arg in std::env::args().skip(1) {
            if flags.contains(&arg.as_str()) {
                continue;
            }
            match Scale::parse(&arg) {
                Some(s) if scale.is_none() => scale = Some(s),
                _ => {
                    eprintln!("unrecognized argument `{arg}`\nusage: {usage}");
                    std::process::exit(2);
                }
            }
        }
        scale.unwrap_or(Scale::Quick)
    }

    /// Duration of each of the four "day" traces (paper: 1 hour).
    pub fn day_duration(&self) -> TimeSpan {
        match self {
            Scale::Smoke => TimeSpan::from_secs(90),
            Scale::Quick => TimeSpan::from_secs(420),
            Scale::Paper => TimeSpan::from_secs(3600),
        }
    }

    /// Duration of the micro-variation trace (paper: 20 minutes).
    pub fn microvar_duration(&self) -> TimeSpan {
        match self {
            Scale::Smoke => TimeSpan::from_secs(120),
            Scale::Quick => TimeSpan::from_secs(400),
            Scale::Paper => TimeSpan::from_secs(1200),
        }
    }

    /// Duration of the detector-comparison trace.
    pub fn compare_duration(&self) -> TimeSpan {
        match self {
            Scale::Smoke => TimeSpan::from_secs(60),
            Scale::Quick => TimeSpan::from_secs(180),
            Scale::Paper => TimeSpan::from_secs(900),
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// Shard counts the sweep visits.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured configuration of the shard sweep.
#[derive(Clone, Debug)]
pub struct ShardSweepRow {
    /// Detector under test (`exact`, `ss-hhh`, `rhhh`).
    pub detector: &'static str,
    /// Ingestion mode: `observe` (per-packet), `batch` (single
    /// detector fed through `observe_batch`), `shard/K` (sharded
    /// pipeline, iterator source), or `chan/K` (sharded pipeline fed
    /// through the bounded channel source from a producer thread).
    pub mode: String,
    /// Shards used (1 for the single-detector modes).
    pub shards: usize,
    /// Packets processed.
    pub packets: u64,
    /// Wall-clock seconds for the whole run.
    pub seconds: f64,
    /// Throughput in packets per second.
    pub pkts_per_sec: f64,
    /// Mean per-window Jaccard similarity of the HHH sets against the
    /// exact oracle over the same trace, windows and threshold (1.0 =
    /// identical): [`ExactHhh`] on the per-packet disjoint path in the
    /// shard sweep, [`SlidingExact`] per position in the sliding
    /// scoreboard.
    pub jaccard_vs_reference: f64,
}

/// Results of [`shard_sweep`] or [`sliding_scoreboard`]: the same row
/// shape, told apart by the `"experiment"` label of their JSON lines.
#[derive(Clone, Debug)]
pub struct SweepResults {
    /// The JSON lines' `"experiment"` label (`shard_sweep` or
    /// `sliding_scoreboard`).
    pub experiment: &'static str,
    /// One row per (detector, mode).
    pub rows: Vec<ShardSweepRow>,
    /// Scale the sweep ran at.
    pub scale: Scale,
}

impl SweepResults {
    /// The row for a detector and mode label, if measured.
    pub fn row(&self, detector: &str, mode: &str) -> Option<&ShardSweepRow> {
        self.rows.iter().find(|r| r.detector == detector && r.mode == mode)
    }

    /// Render as an aligned text table.
    pub fn table(&self) -> String {
        let mut t = Table::new(vec![
            "detector", "mode", "shards", "packets", "seconds", "pkts/s", "jaccard",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.detector.to_string(),
                r.mode.clone(),
                r.shards.to_string(),
                r.packets.to_string(),
                fmt_f(r.seconds, 3),
                format!("{:.0}", r.pkts_per_sec),
                fmt_f(r.jaccard_vs_reference, 4),
            ]);
        }
        t.render()
    }

    /// Render as JSON lines (one object per row), the formats committed
    /// as `BENCH_pr1.json` (shard sweep) and `BENCH_pr6.json` (sliding
    /// scoreboard).
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{{\"experiment\": \"{}\", \"scale\": \"{}\", \"detector\": \"{}\", \
                 \"mode\": \"{}\", \"shards\": {}, \"packets\": {}, \"seconds\": {:.6}, \
                 \"pkts_per_sec\": {:.1}, \"jaccard_vs_reference\": {:.6}}}\n",
                self.experiment,
                self.scale.label(),
                r.detector,
                r.mode,
                r.shards,
                r.packets,
                r.seconds,
                r.pkts_per_sec,
                r.jaccard_vs_reference,
            ));
        }
        out
    }
}

/// Mean per-window Jaccard similarity between two disjoint-window
/// report series (1.0 when every window's HHH set matches).
fn mean_jaccard<P: Ord + Copy>(a: &[WindowReport<P>], b: &[WindowReport<P>]) -> f64 {
    assert_eq!(a.len(), b.len(), "window counts differ");
    if a.is_empty() {
        return 1.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(x, y)| jaccard(&x.prefix_set(), &y.prefix_set())).sum();
    sum / a.len() as f64
}

/// E-scale — the shard-count sweep behind this workspace's scaling
/// claims. For each detector (`exact`, `ss-hhh`, `rhhh`) it measures,
/// on one generated day trace:
///
/// * `observe` — the per-packet path (the [`Disjoint`] engine over a
///   single detector);
/// * `batch` — the same single detector fed via `observe_batch`
///   (K = 1 sharded pipeline, which batches but cannot parallelize);
/// * `shard/K` for K ∈ {1, 2, 4, 8} — the full [`ShardedDisjoint`]
///   pipeline: hash-partitioned worker threads merged at window
///   boundaries, iterator source;
/// * `chan/K` for K ∈ {1, 2, 4, 8} — the same sharded pipeline fed
///   through the bounded channel source
///   ([`source::bounded`]) from a producer thread, measuring the
///   channel hand-off overhead against the iterator source.
///
/// Alongside throughput it reports HHH-set fidelity versus one exact
/// oracle: the `exact` family's own `observe` run, an [`ExactHhh`] over
/// the same trace, windows and threshold. Every row is scored against
/// it, so `exact` reads 1.0 at any K (merge is lossless), and an
/// approximate row's score is its own error plus any merge error —
/// never agreement with another approximate run.
pub fn shard_sweep(scale: Scale) -> SweepResults {
    let horizon = scale.compare_duration();
    let window = TimeSpan::from_secs(5);
    let thresholds = [Threshold::percent(1.0)];
    let h = Ipv4Hierarchy::bytes();
    let model = scenarios::day_trace(0, horizon);
    let packets: Vec<PacketRecord> = TraceGenerator::new(model, scenarios::day_seed(0)).collect();
    let n = packets.len() as u64;
    let mut rows = Vec::new();

    // One closure per detector family, so each family controls its own
    // construction (seeds per shard for RHHH) without dynamic dispatch
    // in the hot loop. The exact family runs first: its `observe` run
    // is the oracle every family is scored against.
    let oracle =
        run_family("exact", &packets, horizon, window, &thresholds, n, None, &mut rows, |_shard| {
            ExactHhh::new(h)
        });
    let oracle = Some(oracle.as_slice());
    run_family("ss-hhh", &packets, horizon, window, &thresholds, n, oracle, &mut rows, |_shard| {
        SpaceSavingHhh::new(h, 512)
    });
    run_family("rhhh", &packets, horizon, window, &thresholds, n, oracle, &mut rows, |shard| {
        Rhhh::new(h, 512, 0x5EED_0000 + shard as u64)
    });

    SweepResults { experiment: "shard_sweep", rows, scale }
}

/// One family's rows of [`shard_sweep`], each scored against `oracle`;
/// `None` makes this family's own `observe` run the oracle (only the
/// exact family may pass it). Returns the `observe` run's reports.
#[allow(clippy::too_many_arguments)] // internal helper; the arguments are the sweep's fixed context
fn run_family<D>(
    name: &'static str,
    packets: &[PacketRecord],
    horizon: TimeSpan,
    window: TimeSpan,
    thresholds: &[Threshold],
    n: u64,
    oracle: Option<&[WindowReport<Ipv4Prefix>]>,
    rows: &mut Vec<ShardSweepRow>,
    make: impl Fn(usize) -> D,
) -> Vec<WindowReport<Ipv4Prefix>>
where
    D: HhhDetector<Ipv4Hierarchy> + MergeableDetector + Clone + Send,
{
    // The per-packet path through the Disjoint engine.
    let mut observe_det = make(0);
    let start = Instant::now();
    let observed = Pipeline::new(packets.iter().copied())
        .engine(Disjoint::new(&mut observe_det, horizon, window, thresholds, |p| p.src))
        .collect()
        .run()
        .swap_remove(0);
    let secs = start.elapsed().as_secs_f64();
    let oracle = oracle.unwrap_or(&observed);
    rows.push(ShardSweepRow {
        detector: name,
        mode: "observe".into(),
        shards: 1,
        packets: n,
        seconds: secs,
        pkts_per_sec: n as f64 / secs,
        jaccard_vs_reference: mean_jaccard(oracle, &observed),
    });

    // Batched single detector, then the sharded pipeline.
    for &k in &SHARD_COUNTS {
        let detectors: Vec<D> = (0..k).map(&make).collect();
        let start = Instant::now();
        let sharded = Pipeline::new(packets.iter().copied())
            .engine(ShardedDisjoint::new(detectors, horizon, window, thresholds, |p| p.src))
            .collect()
            .run();
        let secs = start.elapsed().as_secs_f64();
        let mode = if k == 1 { "batch".to_string() } else { format!("shard/{k}") };
        rows.push(ShardSweepRow {
            detector: name,
            mode,
            shards: k,
            packets: n,
            seconds: secs,
            pkts_per_sec: n as f64 / secs,
            jaccard_vs_reference: mean_jaccard(oracle, &sharded[0]),
        });
    }

    // The sharded pipeline again, now fed through the bounded channel
    // source from a producer thread — the async-ingest hand-off
    // measured against the iterator source above.
    for &k in &SHARD_COUNTS {
        let detectors: Vec<D> = (0..k).map(&make).collect();
        let start = Instant::now();
        let (mut feeder, channel_source) = source::bounded(8, DEFAULT_BATCH);
        let sharded = std::thread::scope(|scope| {
            scope.spawn(move || {
                feeder.send_batch(packets);
            });
            Pipeline::new(channel_source)
                .engine(ShardedDisjoint::new(detectors, horizon, window, thresholds, |p| p.src))
                .collect()
                .run()
        });
        let secs = start.elapsed().as_secs_f64();
        rows.push(ShardSweepRow {
            detector: name,
            mode: format!("chan/{k}"),
            shards: k,
            packets: n,
            seconds: secs,
            pkts_per_sec: n as f64 / secs,
            jaccard_vs_reference: mean_jaccard(oracle, &sharded[0]),
        });
    }
    observed
}

/// Per-detector-kind pkts/s scoreboard on the **sliding-window path**:
/// window 5 s, step 100 ms (50 epochs per window), on a
/// high-cardinality trace (10 000 sources — so per-epoch state is a
/// small fraction of per-window state and per-position merge costs are
/// visible, unlike the 2 500-source day trace where every epoch
/// saturates the key population). It measures:
///
/// * `sliding-exact` — the single-threaded rolling-count engine
///   ([`SlidingExact`]), also the fidelity reference;
/// * `shard/1` and `incr/4` for the exact kind — [`ShardedSliding`] at
///   one and four shards. The engine takes each cross-shard epoch
///   (`shards` *epoch*-sized clones, `shards − 1` merges), merges it
///   into its rolling window state and retracts the epoch leaving:
///   per-position cost independent of the window/step ratio;
/// * `ring/1` for `ss-hhh` — a non-retractable kind, which merges the
///   engine's epoch ring in slot order (`window/step` summary merges
///   per position);
/// * `native` for `memento` — the window-native [`MementoHhh`], whose
///   per-position cost is a query: the detector maintains its own
///   window, no merges at all. `native` vs ss-hhh `ring/1` is the
///   headline — both are bounded-memory approximate sliding HHH, one
///   pays the per-position ring merge and one doesn't.
///
/// Jaccard is against the [`SlidingExact`] reference per position; the
/// exact rows must score 1.0.
pub fn sliding_scoreboard(scale: Scale) -> SweepResults {
    let horizon = scale.compare_duration();
    let window = TimeSpan::from_secs(5);
    let step = TimeSpan::from_millis(100);
    let epw = (window / step) as usize;
    let thresholds = [Threshold::percent(1.0)];
    let h = Ipv4Hierarchy::bytes();
    let model = hhh_trace::TrafficModel {
        duration: horizon,
        sources: 10_000,
        zipf_alpha: 1.0,
        total_pps: 25_000.0,
        networks: 256,
        ..hhh_trace::TrafficModel::default()
    };
    let packets: Vec<PacketRecord> = TraceGenerator::new(model, scenarios::day_seed(0)).collect();
    let n = packets.len() as u64;
    let mut rows = Vec::new();

    // Reference: the rolling-count sliding engine.
    let start = Instant::now();
    let reference = Pipeline::new(packets.iter().copied())
        .engine(SlidingExact::new(&h, horizon, window, step, &thresholds, |p| p.src))
        .collect()
        .run();
    let secs = start.elapsed().as_secs_f64();
    rows.push(ShardSweepRow {
        detector: "exact",
        mode: "sliding-exact".into(),
        shards: 1,
        packets: n,
        seconds: secs,
        pkts_per_sec: n as f64 / secs,
        jaccard_vs_reference: 1.0,
    });

    // Exact kind through the sharded sliding engine at one and four
    // shards.
    for (mode, k) in [("shard/1", 1usize), ("incr/4", 4)] {
        let engine = ShardedSliding::new(
            k,
            |_shard| ExactHhh::new(h),
            horizon,
            window,
            step,
            &thresholds,
            |p: &PacketRecord| p.src,
        );
        let start = Instant::now();
        let sharded = Pipeline::new(packets.iter().copied()).engine(engine).collect().run();
        let secs = start.elapsed().as_secs_f64();
        rows.push(ShardSweepRow {
            detector: "exact",
            mode: mode.into(),
            shards: k,
            packets: n,
            seconds: secs,
            pkts_per_sec: n as f64 / secs,
            jaccard_vs_reference: mean_jaccard(&reference[0], &sharded[0]),
        });
    }

    // A non-retractable kind: the slot-order ring merge.
    {
        let start = Instant::now();
        let sharded = Pipeline::new(packets.iter().copied())
            .engine(ShardedSliding::new(
                1,
                |_shard| SpaceSavingHhh::new(h, 512),
                horizon,
                window,
                step,
                &thresholds,
                |p: &PacketRecord| p.src,
            ))
            .collect()
            .run();
        let secs = start.elapsed().as_secs_f64();
        rows.push(ShardSweepRow {
            detector: "ss-hhh",
            mode: "ring/1".into(),
            shards: 1,
            packets: n,
            seconds: secs,
            pkts_per_sec: n as f64 / secs,
            jaccard_vs_reference: mean_jaccard(&reference[0], &sharded[0]),
        });
    }

    // Window-native: MementoHhh holds a packet-count window sized to
    // the mean packets per time window, queried at every position the
    // reference reports.
    {
        let window_pkts = ((n as u128 * window.as_nanos() as u128 / horizon.as_nanos() as u128)
            as usize)
            .max(epw);
        // Ten frames per window: frame granularity bounds the expiry
        // slack (window/10 here), and a short frame ring keeps the
        // summary's decrement passes cheap — it need not match the
        // engine's epoch count.
        let mut det = MementoHhh::new(h, window_pkts, 10, 512);
        let n_epochs = horizon / step;
        let epw_u64 = epw as u64;
        let mut sets = Vec::with_capacity(reference[0].len());
        let mut pending: Vec<(u32, u64)> = Vec::with_capacity(DEFAULT_BATCH);
        let mut cur_epoch = 0u64;
        let start = Instant::now();
        let boundary = |det: &mut MementoHhh<Ipv4Hierarchy>,
                        pending: &mut Vec<(u32, u64)>,
                        cur_epoch: u64,
                        sets: &mut Vec<_>| {
            if !pending.is_empty() {
                det.observe_batch(pending);
                pending.clear();
            }
            if cur_epoch + 1 >= epw_u64 {
                sets.push(WindowReport {
                    index: cur_epoch + 1 - epw_u64,
                    start: hhh_nettypes::Nanos::ZERO,
                    end: hhh_nettypes::Nanos::ZERO,
                    total: det.windowed_total(),
                    hhhs: det.report(thresholds[0]),
                });
            }
        };
        for p in packets.iter() {
            let e = p.ts.bin_index(step);
            if e >= n_epochs {
                break;
            }
            while cur_epoch < e {
                boundary(&mut det, &mut pending, cur_epoch, &mut sets);
                cur_epoch += 1;
            }
            pending.push((p.src, p.wire_len as u64));
            if pending.len() >= DEFAULT_BATCH {
                det.observe_batch(&pending);
                pending.clear();
            }
        }
        while cur_epoch < n_epochs {
            boundary(&mut det, &mut pending, cur_epoch, &mut sets);
            cur_epoch += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        rows.push(ShardSweepRow {
            detector: "memento",
            mode: "native".into(),
            shards: 1,
            packets: n,
            seconds: secs,
            pkts_per_sec: n as f64 / secs,
            jaccard_vs_reference: mean_jaccard(&reference[0], &sets),
        });
    }

    SweepResults { experiment: "sliding_scoreboard", rows, scale }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nonsense"), None);
    }

    #[test]
    fn durations_grow_with_scale() {
        assert!(Scale::Smoke.day_duration() < Scale::Quick.day_duration());
        assert!(Scale::Quick.day_duration() < Scale::Paper.day_duration());
        assert_eq!(Scale::Paper.day_duration(), TimeSpan::from_secs(3600));
        assert_eq!(Scale::Paper.microvar_duration(), TimeSpan::from_secs(1200));
    }
}
