//! Pipeline parity: the acceptance contract of the sharded engines.
//!
//! * **Sharded engines vs their unsharded counterparts** — sharded
//!   sliding with exact detectors equals the rolling-count sliding
//!   engine report-for-report; sharded continuous equals the unsharded
//!   windowless detector (bit-exactly at one shard, set-identically at
//!   several).
//! * **Source equivalence** — the bounded channel source feeds the
//!   same reports as the iterator source.
//! * **Snapshot plumbing** — sharded engines hand serialized merged
//!   state to sinks whose totals match the reports.

use hidden_hhh::core::snapshot::DetectorSnapshot;
use hidden_hhh::core::{TdbfHhh, TdbfHhhConfig};
use hidden_hhh::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The acceptance trace: day 0, 60 s, ≥ 1.36M packets (same trace the
/// sharded-merge contract tests use).
fn big_trace() -> &'static [PacketRecord] {
    static TRACE: OnceLock<Vec<PacketRecord>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let pkts: Vec<PacketRecord> = TraceGenerator::new(
            scenarios::day_trace(0, TimeSpan::from_secs(60)),
            scenarios::day_seed(0),
        )
        .collect();
        assert!(pkts.len() >= 1_000_000, "trace too small: {} packets", pkts.len());
        pkts
    })
}

fn small_trace(secs: u64, seed: u64) -> Vec<PacketRecord> {
    TraceGenerator::new(scenarios::day_trace(0, TimeSpan::from_secs(secs)), seed).collect()
}

const HORIZON: TimeSpan = TimeSpan::from_secs(60);
const WINDOW: TimeSpan = TimeSpan::from_secs(5);
const STEP: TimeSpan = TimeSpan::from_secs(1);

/// The headline new capability: the sharded sliding engine with exact
/// shard detectors is report-for-report identical to the rolling-count
/// sliding engine — on the full acceptance trace, at several shard
/// counts.
#[test]
fn sharded_sliding_equals_sliding_exact_on_big_trace() {
    let pkts = big_trace();
    let h = Ipv4Hierarchy::bytes();
    let thresholds = [Threshold::percent(1.0), Threshold::percent(5.0)];
    let reference = Pipeline::new(pkts.iter().copied())
        .engine(SlidingExact::new(&h, HORIZON, WINDOW, STEP, &thresholds, |p| p.src))
        .collect()
        .run();
    for k in [1usize, 4] {
        let sharded = Pipeline::new(pkts.iter().copied())
            .engine(ShardedSliding::new(
                k,
                |_shard| ExactHhh::new(h),
                HORIZON,
                WINDOW,
                STEP,
                &thresholds,
                |p| p.src,
            ))
            .collect()
            .run();
        assert_eq!(reference, sharded, "sharded sliding must be lossless at K={k}");
    }
}

/// The non-retractable fallback path of the sharded sliding engine,
/// pinned on the full acceptance trace: [`SpaceSavingHhh`] does not
/// implement `retract`, so the engine must take the slot-order ring
/// merge per position instead of the incremental rolling state — and
/// with per-level capacity (4096) above the trace's distinct-key count
/// (2500 sources) the summary never evicts, so its windowed totals and
/// HHH sets must equal [`SlidingExact`]'s exactly.
#[test]
fn sharded_sliding_fallback_matches_sliding_exact_on_big_trace() {
    let pkts = big_trace();
    let h = Ipv4Hierarchy::bytes();
    let thresholds = [Threshold::percent(1.0), Threshold::percent(5.0)];
    let reference = Pipeline::new(pkts.iter().copied())
        .engine(SlidingExact::new(&h, HORIZON, WINDOW, STEP, &thresholds, |p| p.src))
        .collect()
        .run();
    for k in [1usize, 4] {
        let sharded = Pipeline::new(pkts.iter().copied())
            .engine(ShardedSliding::new(
                k,
                |_shard| SpaceSavingHhh::new(h, 4096),
                HORIZON,
                WINDOW,
                STEP,
                &thresholds,
                |p| p.src,
            ))
            .collect()
            .run();
        assert_eq!(reference.len(), sharded.len());
        for (ti, (r_series, s_series)) in reference.iter().zip(&sharded).enumerate() {
            assert_eq!(r_series.len(), s_series.len(), "threshold {ti} K={k}");
            for (r, s) in r_series.iter().zip(s_series) {
                assert_eq!(r.index, s.index);
                assert_eq!(r.total, s.total, "position {} threshold {ti} K={k}", r.index);
                assert_eq!(
                    r.prefix_set(),
                    s.prefix_set(),
                    "position {} threshold {ti} K={k}",
                    r.index
                );
            }
        }
    }
}

/// Sharded continuous vs the unsharded windowless detector on the full
/// acceptance trace: identical totals (decay algebra is exact under
/// merge) and identical reported prefix sets at every probe.
#[test]
fn sharded_continuous_matches_continuous_on_big_trace() {
    let pkts = big_trace();
    let h = Ipv4Hierarchy::bytes();
    let probes: Vec<Nanos> = (1..12).map(|k| Nanos::from_secs(k * 5)).collect();
    let t = Threshold::percent(5.0);
    let cfg = TdbfHhhConfig { half_life: WINDOW, ..TdbfHhhConfig::default() };
    let mut det = TdbfHhh::new(h, cfg.clone());
    let reference = Pipeline::new(pkts.iter().copied())
        .engine(Continuous::new(&mut det, &probes, t, |p| p.src))
        .collect()
        .run()
        .remove(0);
    for k in [1usize, 4] {
        let detectors: Vec<_> = (0..k).map(|_| TdbfHhh::new(h, cfg.clone())).collect();
        let sharded = Pipeline::new(pkts.iter().copied())
            .engine(ShardedContinuous::new(detectors, &probes, t, |p| p.src))
            .collect()
            .run()
            .remove(0);
        assert_eq!(reference.len(), sharded.len());
        for (r, s) in reference.iter().zip(&sharded) {
            assert_eq!(r.prefix_set(), s.prefix_set(), "probe {} K={k}", r.index);
            let rel = (r.total as f64 - s.total as f64).abs() / (r.total.max(1) as f64);
            assert!(
                rel < 1e-6,
                "probe {} K={k}: totals diverged {} vs {}",
                r.index,
                r.total,
                s.total
            );
        }
        if k == 1 {
            // One shard sees the identical observation order: bit-exact.
            assert_eq!(reference, sharded, "K=1 sharded continuous must be bit-exact");
        }
    }
}

/// The bounded channel source delivers exactly what the iterator
/// source does — same reports through the same sharded engine.
#[test]
fn channel_source_equals_iterator_source() {
    let pkts = big_trace();
    let h = Ipv4Hierarchy::bytes();
    let thresholds = [Threshold::percent(1.0)];
    let reference = Pipeline::new(pkts.iter().copied())
        .engine(ShardedDisjoint::new(
            (0..2).map(|_| ExactHhh::new(h)).collect(),
            HORIZON,
            WINDOW,
            &thresholds,
            |p| p.src,
        ))
        .collect()
        .run();
    let (mut feeder, source) = bounded(4, 4096);
    let fed = std::thread::scope(|scope| {
        scope.spawn(move || {
            feeder.send_batch(pkts);
        });
        Pipeline::new(source)
            .engine(ShardedDisjoint::new(
                (0..2).map(|_| ExactHhh::new(h)).collect(),
                HORIZON,
                WINDOW,
                &thresholds,
                |p| p.src,
            ))
            .collect()
            .run()
    });
    assert_eq!(reference, fed, "channel-fed pipeline must reproduce the iterator-fed one");
}

/// Snapshot plumbing: the sharded engines hand the sink one serialized
/// merged state per report point, and its totals agree with the
/// reports (the state a remote aggregator would fold).
#[test]
fn sharded_engine_forwards_merged_snapshots() {
    struct Capture {
        reports: Vec<WindowReport<Ipv4Prefix>>,
        states: Vec<(Nanos, Nanos, DetectorSnapshot)>,
    }
    impl ReportSink<Ipv4Prefix> for Capture {
        type Output = Self;
        fn accept(&mut self, _series: usize, report: WindowReport<Ipv4Prefix>) {
            self.reports.push(report);
        }
        fn state(&mut self, start: Nanos, at: Nanos, snapshot: &DetectorSnapshot) {
            self.states.push((start, at, snapshot.clone()));
        }
        fn finish(self) -> Self {
            self
        }
    }

    let pkts = small_trace(6, 77);
    let h = Ipv4Hierarchy::bytes();
    let horizon = TimeSpan::from_secs(6);
    let window = TimeSpan::from_secs(2);
    let out = Pipeline::new(pkts.iter().copied())
        .engine(ShardedDisjoint::new(
            (0..3).map(|_| ExactHhh::new(h)).collect(),
            horizon,
            window,
            &[Threshold::percent(5.0)],
            |p| p.src,
        ))
        .sink(Capture { reports: Vec::new(), states: Vec::new() })
        .run();
    assert_eq!(out.reports.len(), 3);
    assert_eq!(out.states.len(), 3, "one merged snapshot per report point");
    for (report, (start, at, snap)) in out.reports.iter().zip(&out.states) {
        assert_eq!(*at, report.end);
        assert_eq!(*start, report.start, "state records carry the window start");
        assert_eq!(snap.kind, "exact");
        assert_eq!(snap.total, report.total, "snapshot covers exactly the window's traffic");
        assert!(snap.state_json.starts_with("{\"counts\":["));
    }

    // And the JSON sink renders both line types.
    let (bytes, err) = Pipeline::new(pkts.iter().copied())
        .engine(ShardedDisjoint::new(
            (0..2).map(|_| ExactHhh::new(h)).collect(),
            horizon,
            window,
            &[Threshold::percent(5.0)],
            |p| p.src,
        ))
        .sink(JsonSnapshotSink::new(Vec::new()))
        .run();
    assert!(err.is_none());
    let text = String::from_utf8(bytes).unwrap();
    assert_eq!(text.lines().filter(|l| l.starts_with("{\"type\":\"report\"")).count(), 3);
    assert_eq!(text.lines().filter(|l| l.starts_with("{\"type\":\"state\"")).count(), 3);
    assert!(text.contains("\"kind\":\"exact\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: for any trace, shard count, batch size and sliding
    /// geometry, the sharded sliding engine with exact detectors is
    /// indistinguishable from the rolling-count sliding engine.
    #[test]
    fn sharded_sliding_equals_sliding_exact_on_any_trace(
        seed in 0u64..1_000_000,
        shards in 1usize..6,
        batch in prop::sample::select(vec![64usize, 1021, 8192]),
        epw in 2u64..5,
    ) {
        let pkts = small_trace(6, seed);
        let h = Ipv4Hierarchy::bytes();
        let horizon = TimeSpan::from_secs(6);
        let step = TimeSpan::from_secs(1);
        let window = step * epw;
        let thresholds = [Threshold::percent(5.0)];
        let reference = Pipeline::new(pkts.iter().copied())
            .engine(SlidingExact::new(&h, horizon, window, step, &thresholds, |p| p.src))
            .collect().run();
        let sharded = Pipeline::new(pkts.iter().copied())
            .engine(ShardedSliding::new(
                shards, |_| ExactHhh::new(h), horizon, window, step, &thresholds, |p| p.src,
            ).batch(batch))
            .collect().run();
        prop_assert_eq!(&reference, &sharded);
    }

    /// Property: the non-retractable fallback (slot-order ring merge)
    /// stays window-isolated and lossless for any trace, shard count
    /// and geometry, as long as the summary never evicts: sharded
    /// sliding with eviction-free [`SpaceSavingHhh`] reproduces
    /// [`SlidingExact`]'s totals and prefix sets at every position.
    #[test]
    fn sharded_sliding_fallback_matches_sliding_exact_on_any_trace(
        seed in 0u64..1_000_000,
        shards in 1usize..6,
        epw in 2u64..5,
    ) {
        let pkts = small_trace(6, seed);
        let h = Ipv4Hierarchy::bytes();
        let horizon = TimeSpan::from_secs(6);
        let step = TimeSpan::from_secs(1);
        let window = step * epw;
        let thresholds = [Threshold::percent(5.0)];
        let reference = Pipeline::new(pkts.iter().copied())
            .engine(SlidingExact::new(&h, horizon, window, step, &thresholds, |p| p.src))
            .collect().run();
        let sharded = Pipeline::new(pkts.iter().copied())
            .engine(ShardedSliding::new(
                shards, |_| SpaceSavingHhh::new(h, 4096), horizon, window, step, &thresholds,
                |p| p.src,
            ))
            .collect().run();
        prop_assert_eq!(reference[0].len(), sharded[0].len());
        for (r, s) in reference[0].iter().zip(&sharded[0]) {
            prop_assert_eq!(r.total, s.total, "position {}", r.index);
            prop_assert_eq!(r.prefix_set(), s.prefix_set(), "position {}", r.index);
        }
    }

    /// Property: the windowless TDBF detector through the sharded
    /// continuous engine reports the same prefix sets as the unsharded
    /// detector, for any seed and shard count (and bit-exactly at one
    /// shard). This is the TdbfHhh leg of the sliding/continuous
    /// scale-out gap — TdbfHhh is windowless, so "sharded sliding" for
    /// it *is* the sharded continuous engine with half_life ≈ window/2.
    #[test]
    fn sharded_continuous_tdbf_matches_unsharded_on_any_trace(
        seed in 0u64..1_000_000,
        shards in 1usize..5,
    ) {
        let pkts = small_trace(6, seed);
        let h = Ipv4Hierarchy::bytes();
        let probes: Vec<Nanos> = (1..6).map(Nanos::from_secs).collect();
        let t = Threshold::percent(10.0);
        let cfg = TdbfHhhConfig { half_life: TimeSpan::from_secs(2), ..TdbfHhhConfig::default() };
        let mut det = TdbfHhh::new(h, cfg.clone());
        let reference = Pipeline::new(pkts.iter().copied())
            .engine(Continuous::new(&mut det, &probes, t, |p| p.src))
            .collect().run().remove(0);
        let detectors: Vec<_> = (0..shards).map(|_| TdbfHhh::new(h, cfg.clone())).collect();
        let sharded = Pipeline::new(pkts.iter().copied())
            .engine(ShardedContinuous::new(detectors, &probes, t, |p| p.src))
            .collect().run().remove(0);
        prop_assert_eq!(reference.len(), sharded.len());
        for (r, s) in reference.iter().zip(&sharded) {
            prop_assert_eq!(r.prefix_set(), s.prefix_set(), "probe {}", r.index);
        }
        if shards == 1 {
            prop_assert_eq!(reference, sharded);
        }
    }
}
