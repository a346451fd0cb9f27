//! Distributed-aggregation acceptance: folding K per-shard snapshot
//! streams with `hhh-agg` reproduces the single-process run — the
//! PR's closing contract, driven through the same library entry points
//! the `distagg` binary and the CI cross-process smoke job use.
//!
//! Two layers of checks per `(kind, K)`:
//!
//! * the folded state re-serializes **byte-identically** to the merged
//!   state an in-process K-shard pipeline emits at every report point
//!   (all five kinds — shard states are deterministic functions of
//!   their sub-streams and folds replay the same merges);
//! * the merged reports agree with the **unsharded** single-process
//!   run: identically for `exact` (lossless merges), within the
//!   documented merge-error bounds for the approximate kinds.
//!
//! The full 1.36M-packet acceptance trace runs here for `exact` at
//! K = 4 (the golden the CI smoke job also diffs); all five kinds run
//! on a shorter trace in debug-friendly time, and the release-mode CI
//! job (`distagg run smoke`) re-checks all five on the full trace.

use hhh_core::WireFormat;
use hhh_experiments::distagg::{
    distagg_trace, fold_shard_streams, run_distagg_on, shard_stream_on, Kind,
};
use hhh_experiments::Scale;
use hhh_trace::{scenarios, TraceGenerator};
use hidden_hhh::prelude::*;

#[test]
fn exact_full_trace_k4_reproduces_single_process() {
    let trace = distagg_trace(Scale::Smoke); // day 0, 60 s, ≥ 1.36M packets
    assert!(trace.len() >= 1_000_000, "trace too small: {}", trace.len());
    let horizon = Scale::Smoke.compare_duration();
    let rows = run_distagg_on(trace, horizon, &[4], &[Kind::Exact]);
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    assert_eq!(r.points, (horizon / TimeSpan::from_secs(5)) as usize);
    assert_eq!(r.folded, r.points * 4, "one snapshot per shard per report point");
    assert!(r.state_identical, "folded state must equal the in-process merged state");
    assert!(r.reports_identical, "exact merged reports must equal the single-process run");
    assert_eq!(r.jaccard_vs_single, 1.0);
}

#[test]
fn all_kinds_fold_to_the_inprocess_state_at_k3() {
    // A shorter day trace keeps all five kinds debug-affordable; the
    // CI smoke job re-runs the full trace in release.
    let horizon = TimeSpan::from_secs(15);
    let trace: Vec<PacketRecord> =
        TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect();
    let rows = run_distagg_on(&trace, horizon, &[1, 3], &Kind::ALL);
    assert_eq!(rows.len(), Kind::ALL.len() * 2);
    for r in &rows {
        assert!(
            r.state_identical,
            "{} at K={} folded state diverged from the in-process merge",
            r.detector.label(),
            r.shards
        );
        if r.shards == 1 {
            // One shard: the "distributed" run *is* the single-process
            // run behind a wire round-trip.
            assert_eq!(
                r.jaccard_vs_single,
                1.0,
                "{} at K=1 must reproduce the single process exactly",
                r.detector.label()
            );
        }
        match r.detector {
            Kind::Exact => {
                assert!(r.reports_identical, "exact reports diverged at K={}", r.shards);
            }
            Kind::SsHhh => assert!(
                r.jaccard_vs_single >= 0.9,
                "ss-hhh K={} jaccard {}",
                r.shards,
                r.jaccard_vs_single
            ),
            Kind::Rhhh => assert!(
                r.jaccard_vs_single >= 0.5,
                "rhhh K={} jaccard {}",
                r.shards,
                r.jaccard_vs_single
            ),
            Kind::MvPipe => assert!(
                r.jaccard_vs_single >= 0.5,
                "mvpipe K={} jaccard {}",
                r.shards,
                r.jaccard_vs_single
            ),
            Kind::Tdbf => assert!(
                r.jaccard_vs_single >= 0.9,
                "tdbf-hhh K={} jaccard {}",
                r.shards,
                r.jaccard_vs_single
            ),
        }
    }
}

#[test]
fn mvpipe_folds_bitexactly_at_k1_and_k4_in_both_wire_formats() {
    // PR-8 acceptance: the MVPipe cross-process fold must be
    // byte-identical to the in-process sharded run at K ∈ {1, 4}, over
    // the v1 JSONL fold *and* the daemon's native v2 socket fold. (The CI
    // distagg smoke re-checks the full 1.36M-packet trace in release.)
    use hhh_experiments::distagg::run_socket_on;
    let horizon = TimeSpan::from_secs(15);
    let trace: Vec<PacketRecord> =
        TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect();

    let rows = run_distagg_on(&trace, horizon, &[1, 4], &[Kind::MvPipe]);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert!(
            r.state_identical,
            "mvpipe v1 fold diverged from the in-process merge at K={}",
            r.shards
        );
    }

    for k in [1usize, 4] {
        let rows = run_socket_on(&trace, horizon, &[k], &[Kind::MvPipe]);
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].state_identical,
            "mvpipe v2 socket fold diverged from the in-process merge at K={k}"
        );
        assert!(rows[0].socket_eq_file, "mvpipe socket fold output diverged from the file fold");
    }
}

#[test]
fn socket_fold_is_byte_identical_to_the_file_fold_for_all_kinds() {
    // The PR-5 transport contract on a debug-affordable trace: K
    // concurrent shard pipelines streaming natively encoded v2 frames
    // over localhost TCP into an in-process hhh-aggd must fold to an
    // answer byte-identical to the file-based fold and state-identical
    // to the in-process sharded run. (`distagg socket smoke` and the
    // CI socket smoke re-check the full 1.36M-packet trace in release.)
    use hhh_experiments::distagg::run_socket_on;
    let horizon = TimeSpan::from_secs(15);
    let trace: Vec<PacketRecord> =
        TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect();
    let rows = run_socket_on(&trace, horizon, &[3], &Kind::ALL);
    assert_eq!(rows.len(), Kind::ALL.len());
    for r in &rows {
        assert!(
            r.socket_eq_file,
            "{} at K={}: socket fold output diverged from the file fold",
            r.detector.label(),
            r.shards
        );
        assert!(
            r.state_identical,
            "{} at K={}: socket-folded state diverged from the in-process merge",
            r.detector.label(),
            r.shards
        );
        assert_eq!(r.folded, r.points * r.shards, "one snapshot per connection per point");
    }
}

#[test]
fn folded_reports_reconstruct_exact_window_bounds() {
    // The v1 gap this PR closes: state records used to carry only
    // `at_ns`, so a folded report could not know its window start.
    // With `start_ns` in both formats, the aggregator's report lines
    // must carry exactly the window bounds the in-process run printed.
    use hhh_agg::fold_streams;
    use hhh_experiments::distagg::{distagg_threshold, single_process_reports_on};

    let horizon = TimeSpan::from_secs(15);
    let trace: Vec<PacketRecord> =
        TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect();
    let inproc = single_process_reports_on(Kind::Exact, &trace, horizon);

    for format in [WireFormat::Json, WireFormat::Binary] {
        let streams: Vec<Vec<u8>> =
            (0..2).map(|i| shard_stream_on(Kind::Exact, &trace, horizon, 2, i, format)).collect();
        let parsed: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, b)| hhh_agg::read_stream(i, b.as_slice()).expect("stream parses"))
            .collect();
        let points = fold_streams(&Ipv4Hierarchy::bytes(), parsed).expect("folds");
        assert_eq!(points.len(), inproc.len());
        for (i, (p, reference)) in points.iter().zip(&inproc).enumerate() {
            let merged = p.report(i as u64, distagg_threshold());
            assert_eq!(
                (merged.start, merged.end),
                (reference.start, reference.end),
                "{format:?}: folded window bounds diverged at point {i}"
            );
        }
    }
}

#[test]
fn shard_streams_are_deterministic() {
    // The cross-process smoke diffs against a committed golden, so a
    // shard's bytes must never depend on run order or environment.
    let horizon = TimeSpan::from_secs(10);
    let trace: Vec<PacketRecord> =
        TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect();
    let a = shard_stream_on(Kind::Rhhh, &trace, horizon, 2, 0, WireFormat::Json);
    let b = shard_stream_on(Kind::Rhhh, &trace, horizon, 2, 0, WireFormat::Json);
    assert_eq!(a, b);
}

#[test]
fn aggregator_output_feeds_another_tier() {
    // Two-level aggregation: fold shards 0+1 and 2+3 separately with
    // --emit-state semantics, then fold the two tier-1 outputs — the
    // result must equal the flat 4-way fold.
    let horizon = TimeSpan::from_secs(10);
    let trace: Vec<PacketRecord> =
        TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect();
    let streams: Vec<Vec<u8>> = (0..4)
        .map(|i| shard_stream_on(Kind::Exact, &trace, horizon, 4, i, WireFormat::Json))
        .collect();

    let flat = fold_shard_streams(&streams).expect("flat fold");

    let tier = |subset: &[Vec<u8>]| -> Vec<u8> {
        let points = fold_shard_streams(subset).expect("tier fold");
        let mut out = Vec::new();
        for p in &points {
            let stamped = hidden_hhh::core::StampedSnapshot {
                at: p.at,
                start: p.start,
                snapshot: p.detector.snapshot(),
            };
            out.extend_from_slice(stamped.to_json().as_bytes());
            out.push(b'\n');
        }
        out
    };
    let left = tier(&streams[..2]);
    let right = tier(&streams[2..]);
    let tiered = fold_shard_streams(&[left, right]).expect("tier-2 fold");

    assert_eq!(flat.len(), tiered.len());
    for (f, t) in flat.iter().zip(&tiered) {
        assert_eq!(f.at, t.at);
        assert_eq!(
            f.detector.snapshot().to_json(),
            t.detector.snapshot().to_json(),
            "tiered aggregation diverged at {}",
            f.at
        );
    }
}
