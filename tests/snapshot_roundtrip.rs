//! Round-trip codec contract: for every snapshot-capable detector,
//! `snapshot → to_json → from_json → fold` reproduces the in-process
//! `merge` — the property that makes cross-process aggregation the
//! same algebra as sharded in-process ingestion.
//!
//! * `ExactHhh` / `SpaceSavingHhh` / `Rhhh` / `MvPipeHhh`:
//!   **bit-exact** — the folded state re-serializes byte-identically
//!   to the in-process merge's snapshot (Space-Saving prune ties and
//!   MVPipe majority-vote ties break by a fixed key hash, so heap
//!   layout never leaks into the wire bytes).
//! * `TdbfHhh`: byte-identical state too (floats ride the wire in
//!   shortest round-trip form), plus prefix-set agreement of the
//!   reports at the probe instant.
//! * Error paths: mismatched configurations are typed
//!   [`SnapshotError`]s, never silent corruption.

use hidden_hhh::core::snapshot::DetectorSnapshot;
use hidden_hhh::core::{
    ContinuousDetector, RestoredDetector, SnapshotError, TdbfHhh, TdbfHhhConfig,
};
use hidden_hhh::prelude::*;
use hidden_hhh::window::shard_of;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn h() -> Ipv4Hierarchy {
    Ipv4Hierarchy::bytes()
}

/// A skewed synthetic item stream: a few heavies over a long tail.
fn stream(n: usize, seed: u64) -> Vec<(u32, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let item: u32 = if rng.gen::<f64>() < 0.3 {
                0x0A01_0100 + rng.gen_range(0..4)
            } else {
                (rng.gen_range(10u32..60) << 24) | rng.gen_range(0..4096)
            };
            (item, 1 + rng.gen_range(0..1500))
        })
        .collect()
}

type Obs = Vec<(u32, u64)>;

/// Split a stream into two disjoint key-partitioned halves (the
/// precondition every merge contract demands).
fn split2(items: &[(u32, u64)]) -> (Obs, Obs) {
    items.iter().partition(|(item, _)| shard_of(item, 2) == 0)
}

/// The wire round trip itself: encode, decode, compare.
fn roundtrip(snap: &DetectorSnapshot) -> DetectorSnapshot {
    let line = snap.to_json();
    let back = DetectorSnapshot::from_json(&line).expect("own wire lines must parse");
    assert_eq!(&back, snap, "from_json(to_json(s)) == s");
    assert_eq!(back.to_json(), line, "re-render is canonical");
    back
}

/// Fold `b` into `a` over the wire and return the merged state's
/// serialized form.
fn fold_over_wire(a: &DetectorSnapshot, b: &DetectorSnapshot) -> RestoredDetector<Ipv4Hierarchy> {
    let hier = h();
    let mut restored =
        RestoredDetector::from_snapshot(&hier, &roundtrip(a)).expect("snapshot restores");
    restored.fold(&hier, &roundtrip(b)).expect("snapshots fold");
    restored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn exact_fold_is_bitexact_to_merge(seed in 0u64..1_000_000, n in 500usize..3000) {
        let (sa, sb) = split2(&stream(n, seed));
        let mut a = ExactHhh::new(h());
        let mut b = ExactHhh::new(h());
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut a, &sa);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut b, &sb);
        let mut merged = a.clone();
        merged.merge(&b);
        let folded = fold_over_wire(&a.snapshot().unwrap(), &b.snapshot().unwrap());
        prop_assert_eq!(folded.snapshot().to_json(), merged.snapshot().unwrap().to_json());
    }

    #[test]
    fn ss_hhh_fold_is_bitexact_to_merge(seed in 0u64..1_000_000, n in 500usize..3000) {
        let (sa, sb) = split2(&stream(n, seed));
        let mut a = SpaceSavingHhh::new(h(), 64);
        let mut b = SpaceSavingHhh::new(h(), 64);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut a, &sa);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut b, &sb);
        let mut merged = a.clone();
        merged.merge(&b);
        let folded = fold_over_wire(&a.snapshot().unwrap(), &b.snapshot().unwrap());
        prop_assert_eq!(folded.snapshot().to_json(), merged.snapshot().unwrap().to_json());
    }

    #[test]
    fn mvpipe_fold_is_bitexact_to_merge(seed in 0u64..1_000_000, n in 500usize..3000) {
        let (sa, sb) = split2(&stream(n, seed));
        let mut a = MvPipeHhh::new(h(), 64);
        let mut b = MvPipeHhh::new(h(), 64);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut a, &sa);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut b, &sb);
        let mut merged = a.clone();
        merged.merge(&b);
        let folded = fold_over_wire(&a.snapshot().unwrap(), &b.snapshot().unwrap());
        prop_assert_eq!(folded.snapshot().to_json(), merged.snapshot().unwrap().to_json());
    }

    #[test]
    fn rhhh_fold_agrees_with_merge(seed in 0u64..1_000_000, n in 500usize..3000) {
        let (sa, sb) = split2(&stream(n, seed));
        let mut a = Rhhh::new(h(), 64, seed ^ 0xA);
        let mut b = Rhhh::new(h(), 64, seed ^ 0xB);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut a, &sa);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut b, &sb);
        let mut merged = a.clone();
        merged.merge(&b);
        let folded = fold_over_wire(&a.snapshot().unwrap(), &b.snapshot().unwrap());
        // Level summaries, totals and update counts restore exactly, so
        // the fold is byte-identical too (the RNG is not state)…
        prop_assert_eq!(folded.snapshot().to_json(), merged.snapshot().unwrap().to_json());
        // …and the contract the aggregator relies on: same prefix sets.
        let t = Threshold::percent(2.0);
        let wire: Vec<_> = folded.report(Nanos::ZERO, t);
        prop_assert_eq!(wire, merged.report(t));
    }

    #[test]
    fn tdbf_fold_agrees_with_merge(seed in 0u64..1_000_000, n in 500usize..2000) {
        let (sa, sb) = split2(&stream(n, seed));
        let cfg = TdbfHhhConfig {
            half_life: TimeSpan::from_secs(2),
            ..TdbfHhhConfig::default()
        };
        let mut a = TdbfHhh::new(h(), cfg.clone());
        let mut b = TdbfHhh::new(h(), cfg);
        let feed = |d: &mut TdbfHhh<Ipv4Hierarchy>, items: &[(u32, u64)]| {
            for (i, &(item, w)) in items.iter().enumerate() {
                ContinuousDetector::<Ipv4Hierarchy>::observe(
                    d,
                    Nanos::from_micros(10 * i as u64),
                    item,
                    w,
                );
            }
        };
        feed(&mut a, &sa);
        feed(&mut b, &sb);
        let mut merged = a.clone();
        merged.merge(&b);
        let folded = fold_over_wire(
            &MergeableDetector::snapshot(&a).unwrap(),
            &MergeableDetector::snapshot(&b).unwrap(),
        );
        // Floats ride the wire in shortest round-trip form, so even the
        // decayed counter cells re-serialize bit-identically.
        prop_assert_eq!(
            folded.snapshot().to_json(),
            MergeableDetector::snapshot(&merged).unwrap().to_json()
        );
        // Prefix-set agreement at a probe instant past the stream.
        let at = Nanos::from_secs(1);
        let t = Threshold::percent(2.0);
        let wire: std::collections::BTreeSet<_> =
            folded.report(at, t).into_iter().map(|r| r.prefix).collect();
        let inproc: std::collections::BTreeSet<_> =
            merged.report_at(at, t).into_iter().map(|r| r.prefix).collect();
        prop_assert_eq!(wire, inproc);
    }
}

/// One live detector of each kind, built from the same seeded stream —
/// the differential-test corpus generator.
struct ArbitraryDetectors {
    exact: ExactHhh<Ipv4Hierarchy>,
    ss: SpaceSavingHhh<Ipv4Hierarchy>,
    rhhh: Rhhh<Ipv4Hierarchy>,
    mvpipe: MvPipeHhh<Ipv4Hierarchy>,
    tdbf: TdbfHhh<Ipv4Hierarchy>,
}

fn arbitrary_detectors(seed: u64, n: usize) -> ArbitraryDetectors {
    let items = stream(n, seed);
    let mut exact = ExactHhh::new(h());
    let mut ss = SpaceSavingHhh::new(h(), 64);
    let mut rhhh = Rhhh::new(h(), 64, seed ^ 0x5EED);
    let mut mvpipe = MvPipeHhh::new(h(), 64);
    let mut tdbf = TdbfHhh::new(
        h(),
        TdbfHhhConfig {
            cells_per_level: 512,
            hashes: 2,
            candidates_per_level: 32,
            half_life: TimeSpan::from_secs(2),
            ..TdbfHhhConfig::default()
        },
    );
    HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut exact, &items);
    HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut ss, &items);
    HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut rhhh, &items);
    HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut mvpipe, &items);
    for (i, &(item, w)) in items.iter().enumerate() {
        ContinuousDetector::<Ipv4Hierarchy>::observe(
            &mut tdbf,
            Nanos::from_micros(10 * i as u64),
            item,
            w,
        );
    }
    ArbitraryDetectors { exact, ss, rhhh, mvpipe, tdbf }
}

/// Build one detector of each kind from a seeded stream and return its
/// (JSON-bodied) snapshot.
fn arbitrary_snapshots(seed: u64, n: usize) -> Vec<DetectorSnapshot> {
    let d = arbitrary_detectors(seed, n);
    vec![
        d.exact.snapshot().unwrap(),
        d.ss.snapshot().unwrap(),
        d.rhhh.snapshot().unwrap(),
        d.mvpipe.snapshot().unwrap(),
        MergeableDetector::snapshot(&d.tdbf).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Differential contract #1: for arbitrary detector states of
    /// every kind, `from_frame(to_frame(s)) == s` — the binary body is
    /// a lossless re-encoding of the canonical JSON body.
    #[test]
    fn frame_transcode_roundtrips_every_kind(seed in 0u64..1_000_000, n in 200usize..1500) {
        use hidden_hhh::core::snapshot::binary::SnapshotFrame;
        let (start, at) = (Nanos::from_secs(1), Nanos::from_secs(6));
        for snap in arbitrary_snapshots(seed, n) {
            let frame = snap.to_frame(start, at).expect("own snapshots transcode");
            prop_assert_eq!(frame.start, start);
            prop_assert_eq!(frame.at, at);
            let back = DetectorSnapshot::from_frame(&frame).expect("own frames decode");
            prop_assert_eq!(&back, &snap, "from_frame(to_frame(s)) == s for kind {}", snap.kind);
            // And the serialized frame itself round-trips bytewise.
            let bytes = frame.encode();
            let (again, used) = SnapshotFrame::decode(&bytes).expect("own frames re-decode");
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(again, frame);
        }
    }

    /// Differential contract #2: a v2-restored fold is bit-identical
    /// to the v1-restored fold — the binary decode path lands on
    /// exactly the detector the JSON path builds, merge included.
    #[test]
    fn binary_restored_folds_match_json_restored_folds(
        seed in 0u64..1_000_000,
        n in 200usize..1500,
    ) {
        use hidden_hhh::core::WireSnapshot;
        let hier = h();
        let (start, at) = (Nanos::ZERO, Nanos::from_secs(5));
        let a_snaps = arbitrary_snapshots(seed, n);
        let b_snaps = arbitrary_snapshots(seed ^ 0xB0B, n / 2);
        for (a, b) in a_snaps.iter().zip(&b_snaps) {
            let mut via_json =
                RestoredDetector::from_snapshot(&hier, a).expect("v1 restores");
            via_json.fold(&hier, b).expect("v1 folds");

            let wire_a = WireSnapshot::Binary(a.to_frame(start, at).unwrap());
            let wire_b = WireSnapshot::Binary(b.to_frame(start, at).unwrap());
            let mut via_frame =
                RestoredDetector::from_wire(&hier, &wire_a).expect("v2 restores");
            via_frame.fold_wire(&hier, &wire_b).expect("v2 folds");

            prop_assert_eq!(
                via_frame.snapshot().to_json(),
                via_json.snapshot().to_json(),
                "kind {}: v2-restored fold must be bit-identical to the v1-restored fold",
                a.kind
            );
        }
    }

    /// Differential contract #4: for arbitrary detector states of
    /// every kind, the JSON rendering of the detector's wire body loses
    /// nothing its v2 encoding keeps — `MergeableDetector::to_frame`
    /// (the body encoded directly, no JSON rendered or parsed) is
    /// byte-identical to `snapshot()` transcoded to a frame, header
    /// included.
    #[test]
    fn native_frame_encode_matches_the_transcode_reference(
        seed in 0u64..1_000_000,
        n in 200usize..1500,
    ) {
        let (start, at) = (Nanos::from_secs(2), Nanos::from_secs(7));
        let d = arbitrary_detectors(seed, n);
        let reference = |snap: &DetectorSnapshot| {
            snap.to_frame(start, at).expect("own snapshots transcode").encode()
        };
        let cases: [(&str, Vec<u8>, Vec<u8>); 5] = [
            (
                "exact",
                d.exact.to_frame(start, at).expect("native-encodes").encode(),
                reference(&d.exact.snapshot().unwrap()),
            ),
            (
                "ss-hhh",
                d.ss.to_frame(start, at).expect("native-encodes").encode(),
                reference(&d.ss.snapshot().unwrap()),
            ),
            (
                "rhhh",
                d.rhhh.to_frame(start, at).expect("native-encodes").encode(),
                reference(&d.rhhh.snapshot().unwrap()),
            ),
            (
                "mvpipe",
                d.mvpipe.to_frame(start, at).expect("native-encodes").encode(),
                reference(&d.mvpipe.snapshot().unwrap()),
            ),
            (
                "tdbf-hhh",
                MergeableDetector::to_frame(&d.tdbf, start, at).expect("native-encodes").encode(),
                reference(&MergeableDetector::snapshot(&d.tdbf).unwrap()),
            ),
        ];
        for (kind, native, transcoded) in cases {
            prop_assert_eq!(
                native,
                transcoded,
                "kind {}: the direct frame encode must write the transcode path's exact bytes",
                kind
            );
        }
    }

    /// Differential contract #3: transcoding a whole state line
    /// JSON → binary → JSON is byte-identical to the original line
    /// (geometry included), for every kind.
    #[test]
    fn state_line_transcode_is_byte_identical(seed in 0u64..1_000_000, n in 200usize..1000) {
        use hidden_hhh::agg::transcode;
        use hidden_hhh::core::{StampedSnapshot, WireFormat};
        for (i, snap) in arbitrary_snapshots(seed, n).into_iter().enumerate() {
            let line = StampedSnapshot {
                at: Nanos::from_secs(5 + i as u64),
                start: Nanos::from_secs(i as u64),
                snapshot: snap,
            }
            .to_json()
                + "\n";
            let mut v2 = Vec::new();
            transcode(0, line.as_bytes(), &mut v2, WireFormat::Binary).expect("v1 -> v2");
            let mut back = Vec::new();
            transcode(0, v2.as_slice(), &mut back, WireFormat::Json).expect("v2 -> v1");
            prop_assert_eq!(String::from_utf8(back).unwrap(), line);
        }
    }
}

#[test]
fn exact_retract_inverts_merge_structurally() {
    let (sa, sb) = split2(&stream(4000, 99));
    let mut a = ExactHhh::new(h());
    let mut b = ExactHhh::new(h());
    HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut a, &sa);
    HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut b, &sb);
    let before = a.snapshot().unwrap().to_json();
    let mut m = a.clone();
    m.merge(&b);
    assert_ne!(m.snapshot().unwrap().to_json(), before);
    assert!(m.retract(&b), "exact detectors support retraction");
    // Structural identity, not just observational: zeroed items left
    // the map, so the wire bytes match a never-merged detector.
    assert_eq!(m.snapshot().unwrap().to_json(), before);
}

#[test]
fn retract_defaults_to_unsupported_for_lossy_summaries() {
    let mut a = SpaceSavingHhh::new(h(), 16);
    let b = a.clone();
    assert!(!a.retract(&b), "lossy summaries cannot invert merges");
}

#[test]
fn fold_rejects_mismatched_capacities() {
    let mut a = SpaceSavingHhh::new(h(), 32);
    let mut b = SpaceSavingHhh::new(h(), 64);
    HhhDetector::<Ipv4Hierarchy>::observe(&mut a, 7, 10);
    HhhDetector::<Ipv4Hierarchy>::observe(&mut b, 7, 10);
    let hier = h();
    let mut restored =
        RestoredDetector::from_snapshot(&hier, &a.snapshot().unwrap()).expect("restores");
    let err = restored.fold(&hier, &b.snapshot().unwrap()).unwrap_err();
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");
}

#[test]
fn fold_rejects_mismatched_bucket_counts() {
    let mut a = MvPipeHhh::new(h(), 32);
    let mut b = MvPipeHhh::new(h(), 64);
    HhhDetector::<Ipv4Hierarchy>::observe(&mut a, 7, 10);
    HhhDetector::<Ipv4Hierarchy>::observe(&mut b, 7, 10);
    let hier = h();
    let mut restored =
        RestoredDetector::from_snapshot(&hier, &a.snapshot().unwrap()).expect("restores");
    let err = restored.fold(&hier, &b.snapshot().unwrap()).unwrap_err();
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");
}

#[test]
fn fold_rejects_mismatched_kinds() {
    let mut a = ExactHhh::new(h());
    let mut b = SpaceSavingHhh::new(h(), 64);
    HhhDetector::<Ipv4Hierarchy>::observe(&mut a, 7, 10);
    HhhDetector::<Ipv4Hierarchy>::observe(&mut b, 7, 10);
    let hier = h();
    let mut restored =
        RestoredDetector::from_snapshot(&hier, &a.snapshot().unwrap()).expect("restores");
    let err = restored.fold(&hier, &b.snapshot().unwrap()).unwrap_err();
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");
}

#[test]
fn unknown_kind_is_a_typed_error() {
    let hier = h();
    let snap = DetectorSnapshot { kind: "hashpipe".into(), total: 1, state_json: "{}".into() };
    let err = RestoredDetector::from_snapshot(&hier, &snap).unwrap_err();
    assert_eq!(err, SnapshotError::Kind("hashpipe".into()));
}

#[test]
fn hostile_wire_capacity_is_a_typed_error_not_an_abort() {
    // A corrupt line must never drive a pathological allocation.
    let hier = h();
    let line =
        "{\"v\":1,\"kind\":\"ss-hhh\",\"total\":0,\"state\":{\"capacity\":4611686018427387904,\
                \"levels\":[]}}";
    let snap = DetectorSnapshot::from_json(line).expect("envelope parses");
    let err = RestoredDetector::from_snapshot(&hier, &snap).unwrap_err();
    assert!(matches!(err, SnapshotError::Invalid { field: "capacity", .. }), "got {err:?}");

    let line = "{\"v\":1,\"kind\":\"tdbf-hhh\",\"total\":0,\"state\":{\"cells_per_level\":\
                1152921504606846976,\"hashes\":4,\"half_life_ns\":1000000000,\
                \"candidates_per_level\":8,\"admit_fraction\":0.001,\"seed\":1,\"observed\":0,\
                \"total\":[0.0,0],\"filters\":[],\"candidates\":[]}}";
    let snap = DetectorSnapshot::from_json(line).expect("envelope parses");
    let err = RestoredDetector::from_snapshot(&hier, &snap).unwrap_err();
    assert!(matches!(err, SnapshotError::Invalid { .. }), "got {err:?}");
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    use hidden_hhh::core::snapshot::json::Json;
    let bomb = "[".repeat(100_000);
    let err = Json::parse(&bomb).unwrap_err();
    assert!(matches!(err, SnapshotError::Parse { .. }), "got {err:?}");
}

#[test]
fn fold_snapshots_handles_two_kinds_side_by_side() {
    use hidden_hhh::agg::{fold_streams, render_merged};
    use hidden_hhh::core::snapshot::json::Json;
    use hidden_hhh::core::{StampedSnapshot, WireSnapshot};
    // One operator process running two detector kinds writes both
    // state lines per report point — each kind folds and reports
    // separately, the same grouping hhh-agg applies.
    let exact_snap = |at_secs: u64, items: &[(u32, u64)]| {
        let mut d = ExactHhh::new(h());
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut d, items);
        WireSnapshot::Json(StampedSnapshot {
            at: Nanos::from_secs(at_secs),
            start: Nanos::from_secs(at_secs),
            snapshot: d.snapshot().unwrap(),
        })
    };
    let ss_snap = |at_secs: u64, items: &[(u32, u64)]| {
        let mut d = SpaceSavingHhh::new(h(), 64);
        HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut d, items);
        WireSnapshot::Json(StampedSnapshot {
            at: Nanos::from_secs(at_secs),
            start: Nanos::from_secs(at_secs),
            snapshot: d.snapshot().unwrap(),
        })
    };
    let snaps = vec![
        exact_snap(1, &[(7, 10)]),
        ss_snap(1, &[(7, 10)]),
        exact_snap(2, &[(9, 4)]),
        ss_snap(2, &[(9, 4)]),
    ];
    let points = fold_streams(&h(), vec![snaps]).unwrap();
    let kinds: Vec<_> = points.iter().map(|p| p.kind.as_str()).collect();
    assert_eq!(kinds, ["exact", "ss-hhh", "exact", "ss-hhh"], "sorted by (at, kind)");
    // One series (one threshold), two kinds × two report points, with
    // per-kind report-point ordinals (the numbering hhh-agg renders).
    let lines = render_merged(&points, &[Threshold::percent(1.0)], false);
    assert_eq!(lines.len(), 4);
    let field = |i: usize, name: &str| {
        Json::parse(&lines[i]).unwrap().get(name).and_then(Json::as_u64).unwrap()
    };
    assert_eq!((field(0, "total"), field(0, "index")), (10, 0), "exact at t=1");
    assert_eq!((field(1, "total"), field(1, "index")), (10, 0), "ss-hhh at t=1");
    assert_eq!((field(2, "total"), field(2, "index")), (4, 1), "exact at t=2");
    assert_eq!((field(3, "total"), field(3, "index")), (4, 1), "ss-hhh at t=2");
}
