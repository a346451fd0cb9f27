//! The committed codec corpus, locked down: every good file decodes
//! (in both wire formats, to the same detector state), every malformed
//! v2 file fails with its **exact** typed [`SnapshotError`] variant,
//! transcoding maps the committed v1 files onto the committed v2 files
//! byte-for-byte (and back), and re-running the generator reproduces
//! the committed bytes — the corpus-freshness contract CI also checks
//! at the file level.
//!
//! A structure-aware fuzz smoke rides along: random byte mutations and
//! truncations of valid frames must never panic the decoder or drive
//! it past its wire-size caps, and its v1 twin holds the committed
//! JSON lines to the same hostile-input guarantee.

use hidden_hhh::agg::transcode;
use hidden_hhh::core::snapshot::binary::{SnapshotFrame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use hidden_hhh::core::{Kind, RestoredDetector, SnapshotError, WireFormat, WireSnapshot};
use hidden_hhh::experiments::corpus::{corpus_stream, write_corpus, MALFORMED_CASES};
use hidden_hhh::prelude::*;
use hidden_hhh::window::SnapshotSource;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshots")
}

fn read(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_good_corpus_file_decodes_and_the_formats_agree() {
    let h = Ipv4Hierarchy::bytes();
    for kind in Kind::ALL.map(Kind::label) {
        let decode_one = |bytes: &[u8], what: &str| {
            let mut src = SnapshotSource::new(bytes);
            let states: Vec<_> = (&mut src).collect();
            assert!(src.error().is_none(), "{what}: {:?}", src.error());
            assert_eq!(states.len(), 1, "{what}: one state record per corpus file");
            assert_eq!(states[0].kind(), kind, "{what}");
            states.into_iter().next().expect("one state")
        };
        let v1 = decode_one(&read(&format!("{kind}.v1.jsonl")), &format!("{kind}.v1"));
        let v2 = decode_one(&read(&format!("{kind}.v2.bin")), &format!("{kind}.v2"));

        // Same geometry, same total, and — restored through either
        // path — the identical detector state.
        assert_eq!(v1.at(), v2.at(), "{kind}");
        assert_eq!(v1.start(), v2.start(), "{kind}");
        assert_eq!(v1.total(), v2.total(), "{kind}");
        let from_v1 = RestoredDetector::from_wire(&h, &v1).expect("v1 restores");
        let from_v2 = RestoredDetector::from_wire(&h, &v2).expect("v2 restores");
        assert_eq!(
            from_v1.snapshot().to_json(),
            from_v2.snapshot().to_json(),
            "{kind}: v1- and v2-restored states must re-serialize identically"
        );
    }
}

/// The `tdbf-hhh` corpus as the lazy-decay writer wrote it, kept
/// outside the regenerated corpus directory: every cell a `(value, last
/// touch)` pair.
fn legacy(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/legacy").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn the_lazy_decay_corpus_restores_and_reports_like_the_forward_one() {
    // Restore turns each lazy pair into a forward value against the
    // body's latest time stamp, so the old files report what the
    // regenerated corpus state reports, at its instant and later.
    let h = Ipv4Hierarchy::bytes();
    let state = |bytes: &[u8]| {
        let mut src = SnapshotSource::new(bytes);
        let state = src.next().expect("one state record");
        assert!(src.error().is_none(), "{:?}", src.error());
        state
    };
    let fresh = state(&read("tdbf-hhh.v2.bin"));
    let want = RestoredDetector::from_wire(&h, &fresh).expect("the corpus restores");
    for name in ["tdbf-hhh.v1.jsonl", "tdbf-hhh.v2.bin"] {
        let old = state(&legacy(name));
        assert_eq!(
            (old.at(), old.start(), old.total()),
            (fresh.at(), fresh.start(), fresh.total())
        );
        let got = RestoredDetector::from_wire(&h, &old).expect("the legacy state restores");
        for at in [fresh.at(), fresh.at() + TimeSpan::from_secs(3)] {
            for pct in [1.0, 5.0, 20.0] {
                let t = Threshold::percent(pct);
                assert_eq!(got.report(at, t), want.report(at, t), "{name}: {pct}% at {at:?}");
            }
        }
    }
}

#[test]
fn transcoding_maps_the_committed_files_onto_each_other() {
    for kind in Kind::ALL.map(Kind::label) {
        let v1 = read(&format!("{kind}.v1.jsonl"));
        let v2 = read(&format!("{kind}.v2.bin"));

        let mut to_v2 = Vec::new();
        transcode(0, v1.as_slice(), &mut to_v2, WireFormat::Binary).expect("v1 -> v2");
        assert_eq!(to_v2, v2, "{kind}: v1 transcodes onto the committed v2 bytes");

        let mut to_v1 = Vec::new();
        transcode(0, v2.as_slice(), &mut to_v1, WireFormat::Json).expect("v2 -> v1");
        assert_eq!(to_v1, v1, "{kind}: v2 transcodes back onto the committed v1 bytes");
    }
}

#[test]
fn malformed_cases_fail_with_their_exact_error_variants() {
    let h = Ipv4Hierarchy::bytes();
    // Decode a stream expecting the decoder (not the restorer) to
    // reject it.
    let stream_error = |name: &str| -> SnapshotError {
        let bytes = read(&format!("malformed/{name}"));
        let mut src = SnapshotSource::new(bytes.as_slice());
        assert_eq!((&mut src).count(), 0, "{name}: no state may decode");
        src.error().unwrap_or_else(|| panic!("{name}: must report an error")).1.clone()
    };

    assert!(
        matches!(
            stream_error("truncated.v2.bin"),
            SnapshotError::Parse { what: "truncated frame", .. }
        ),
        "truncated"
    );
    assert_eq!(
        stream_error("bad_magic.v2.bin"),
        SnapshotError::Parse { offset: 0, what: "bad frame magic" }
    );
    assert_eq!(stream_error("version_skew.v2.bin"), SnapshotError::Version(3));
    assert_eq!(
        stream_error("oversize_len.v2.bin"),
        SnapshotError::Invalid { field: "frame_len", what: "length prefix exceeds MAX_FRAME_LEN" }
    );

    // The config mismatch decodes as a frame (the header is fine) but
    // must be refused when the body is interpreted.
    let bytes = read("malformed/config_mismatch.v2.bin");
    let (frame, _) = SnapshotFrame::decode(&bytes).expect("frame header is well-formed");
    let err = RestoredDetector::from_frame(&h, &frame).expect_err("digest mismatch must fail");
    assert_eq!(
        err,
        SnapshotError::Invalid { field: "config_digest", what: "digest does not match the body" }
    );
    let err = hidden_hhh::core::DetectorSnapshot::from_frame(&frame)
        .expect_err("transcode must check the digest too");
    assert!(matches!(err, SnapshotError::Invalid { field: "config_digest", .. }));

    // The mvpipe cases decode as frames (header and digest are fine)
    // but must be refused when the detector is rebuilt.
    let restore_error = |name: &str| -> SnapshotError {
        let bytes = read(&format!("malformed/{name}"));
        let (frame, _) = SnapshotFrame::decode(&bytes).expect("frame header is well-formed");
        RestoredDetector::from_frame(&h, &frame)
            .expect_err("rebuilding a corrupt mvpipe state must fail")
    };
    assert_eq!(
        restore_error("mvpipe_total_skew.v2.bin"),
        SnapshotError::Invalid {
            field: "total",
            what: "bucket counts do not sum to the envelope total"
        }
    );
    assert_eq!(
        restore_error("mvpipe_vote_overflow.v2.bin"),
        SnapshotError::Invalid { field: "entries", what: "vote exceeds count" }
    );
}

#[test]
fn regenerating_the_corpus_reproduces_the_committed_bytes() {
    // The in-test twin of the CI freshness diff: the generator is a
    // pure function of the shipping encoders, so any codec drift shows
    // up as a byte difference right here.
    let dir = std::env::temp_dir().join(format!("hhh-corpus-fresh-{}", std::process::id()));
    write_corpus(&dir).expect("regenerate corpus");
    let diff = |rel: String| {
        let fresh = std::fs::read(dir.join(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert_eq!(fresh, read(&rel), "{rel}: regenerated corpus diverged from the committed one");
    };
    for kind in Kind::ALL.map(Kind::label) {
        diff(format!("{kind}.v1.jsonl"));
        diff(format!("{kind}.v2.bin"));
    }
    for case in MALFORMED_CASES {
        diff(format!("malformed/{case}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Structure-aware fuzz smoke
// ---------------------------------------------------------------------

/// Valid frames of all five kinds, decoded from the corpus streams —
/// the fuzz seeds.
fn seed_frames() -> Vec<Vec<u8>> {
    Kind::ALL
        .into_iter()
        .flat_map(|kind| {
            let stream = corpus_stream(kind, WireFormat::Binary);
            let mut frames = Vec::new();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let (frame, used) = SnapshotFrame::decode(rest).expect("corpus stream decodes");
                frames.push(frame.encode());
                rest = &rest[used..];
            }
            frames
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Mutating any bytes of a valid frame (or truncating it anywhere)
    /// must never panic the decoder, the restorer, or the transcoder —
    /// only `Ok` or a typed error — and a hostile length prefix can
    /// never claim more than [`MAX_FRAME_LEN`].
    #[test]
    fn mutated_frames_never_panic_the_decoder(
        seed in 0usize..1_000_000,
        cut in 0u32..=1,
        mutations in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8),
    ) {
        let seeds = seed_frames();
        let mut bytes = seeds[seed % seeds.len()].clone();
        for (pos, val) in mutations {
            let at = (pos as usize) % bytes.len();
            bytes[at] ^= val | 1; // always flips at least one bit
        }
        if cut == 1 {
            let keep = (seed * 31) % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        let h = Ipv4Hierarchy::bytes();
        if let Ok((frame, used)) = SnapshotFrame::decode(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert!(frame.body.len() <= MAX_FRAME_LEN);
            // Interpreting the (possibly corrupt) body must be a typed
            // result, never a panic or runaway allocation.
            let _ = RestoredDetector::from_frame(&h, &frame);
            let _ = hidden_hhh::core::DetectorSnapshot::from_frame(&frame);
            let _ = frame.report_line();
        }
        // The streaming reader must land on the same judgement without
        // hanging or panicking.
        let mut src = SnapshotSource::new(bytes.as_slice());
        let decoded = (&mut src).count();
        prop_assert!(decoded <= 2, "a single mutated frame cannot multiply");
    }

    /// Pure truncation of a valid frame is always a typed error (or a
    /// clean empty stream), pinned separately because it is the wire's
    /// most common real-world failure (a torn connection).
    #[test]
    fn truncated_frames_are_typed_errors(seed in 0usize..1_000_000) {
        let seeds = seed_frames();
        let full = &seeds[seed % seeds.len()];
        let keep = (seed / seeds.len()) % full.len(); // strictly shorter
        let bytes = &full[..keep];
        match SnapshotFrame::decode(bytes) {
            Err(SnapshotError::Parse { what: "truncated frame", .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            Ok(_) => prop_assert!(false, "a strict prefix cannot decode"),
        }
        if keep >= FRAME_HEADER_LEN {
            // The header survived, so the streaming reader must report
            // the truncation too (not end cleanly).
            let mut src = SnapshotSource::new(bytes);
            prop_assert_eq!((&mut src).count(), 0);
            prop_assert!(src.error().is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The v1 twin of `mutated_frames_never_panic_the_decoder`:
    /// flipping bytes of a committed `*.v1.jsonl` file (or truncating
    /// it anywhere) must never panic the line decoder, the restorer or
    /// the transcoder — only `Ok` or a typed error.
    #[test]
    fn mutated_v1_lines_never_panic_the_decoder(
        seed in 0usize..1_000_000,
        cut in 0u32..=1,
        mutations in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8),
    ) {
        let kind = Kind::ALL[seed % Kind::ALL.len()].label();
        let mut bytes = read(&format!("{kind}.v1.jsonl"));
        for (pos, val) in mutations {
            let at = (pos as usize) % bytes.len();
            bytes[at] ^= val | 1; // always flips at least one bit
        }
        if cut == 1 {
            let keep = (seed * 31) % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        let h = Ipv4Hierarchy::bytes();
        let mut src = SnapshotSource::new(bytes.as_slice());
        let mut decoded = 0;
        for state in &mut src {
            decoded += 1;
            let _ = RestoredDetector::from_wire(&h, &state);
            if let WireSnapshot::Json(stamped) = &state {
                let _ = stamped.to_frame();
            }
        }
        prop_assert!(decoded <= 1, "a file with one state line cannot multiply");
    }
}
