//! # hhh-agg
//!
//! The **cross-process aggregation** half of the snapshot wire format:
//! where `hhh-window`'s `SnapshotSink` writes one merged detector state
//! per report point per process — the v2 frame the engine encoded, or
//! its v1 JSON line — this crate
//! reads N such streams back (sniffing the format per stream), groups
//! the snapshots by report point and detector `kind`, folds each group
//! with the round-trip codec (`hhh-core::RestoredDetector`), and emits
//! the merged HHH reports — closing the distributed-aggregation loop:
//!
//! ```text
//!   shard process 0 ─┐
//!   shard process 1 ─┼─ snapshot stream ──► hhh-agg ──► merged reports
//!   shard process K ─┘   (files, pipes, or      │
//!                         TCP via --listen)     └──► merged state stream
//!                                                    (feeds another tier)
//! ```
//!
//! Folding is the in-process merge algebra lifted onto the wire —
//! Space-Saving union-then-prune per level, RHHH per-level sampled
//! summaries, TDBF cell-wise decayed sums, exact counts added
//! losslessly — so aggregating K per-shard streams reproduces the
//! single-process sharded run: bit-exactly for the exact detector,
//! within the documented merge error bounds for the approximate ones.
//! Binary snapshots decode **straight into detectors** (no JSON
//! detour), which is what lets the aggregation tier keep up with
//! RHHH-speed shards. Because the merged state re-serializes
//! byte-identically, the aggregator's `--emit-state` output is itself
//! a valid input stream: aggregation tiers compose — in either format.
//!
//! The library API is a handful of calls: [`read_stream`] (file/pipe
//! stream → [`WireSnapshot`]s), [`collect_socket_streams`] (N TCP
//! shard connections → streams in shard order, via the `FrameHub`
//! barrier in `hhh-window`), [`fold_streams`] (group + fold, through
//! [`FoldState`]), [`render_merged`] / [`write_merged`] (merged
//! points → output in a chosen format; binary states re-encode
//! **natively**, no JSON), and [`transcode`] (re-encode a whole
//! stream v1 ⇄ v2, byte-identically round-trippable). The `hhh-agg`
//! binary wraps them for files, pipes, and `--listen ADDR` sockets —
//! a socket fold is byte-identical to the file fold of the same
//! shards, and a single stream folds the same way. Failures are typed
//! end to end: [`AggError`] `source()`-chains to [`SnapshotError`] or
//! [`TransportError`] (and through it to the underlying
//! [`std::io::Error`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hhh_core::snapshot::binary::SnapshotFrame;
use hhh_core::snapshot::binary::REPORT_KIND;
use hhh_core::{
    RestoredDetector, SnapshotError, StampedSnapshot, Threshold, WireFormat, WireSnapshot,
};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use hhh_window::{
    render_report_line, CollectLimits, FrameHub, SnapshotSource, StreamRecord, TransportError,
    WindowReport, HELLO_KIND,
};
use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::io::{BufRead, Write};
use std::str::FromStr;

/// Why an aggregation run failed.
#[derive(Debug)]
pub enum AggError {
    /// A stream could not be read or decoded.
    Decode {
        /// Index of the offending stream (argument order).
        stream: usize,
        /// 1-based record number within the stream (line number for
        /// JSONL, frame ordinal for binary).
        line: usize,
        /// The decode failure.
        error: SnapshotError,
    },
    /// Two snapshots at one report point could not be folded, or a
    /// snapshot could not be restored into a live detector.
    Fold {
        /// The report point the fold failed at.
        at: Nanos,
        /// The fold failure.
        error: SnapshotError,
    },
    /// An input file could not be opened, read, or written.
    Io(String),
    /// The socket read side (`FrameHub`) failed.
    Transport(TransportError),
}

impl Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::Decode { stream, line, error } => {
                write!(f, "stream {stream}, record {line}: {error}")
            }
            AggError::Fold { at, error } => write!(f, "fold at {at}: {error}"),
            AggError::Io(what) => write!(f, "I/O: {what}"),
            AggError::Transport(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AggError {
    /// Chain to the typed cause: decode and fold failures source the
    /// [`SnapshotError`], transport failures the [`TransportError`]
    /// (which itself sources the underlying [`std::io::Error`]) — so
    /// `hhh-agg: transport accept failed: …` callers can walk all the
    /// way down to the I/O kind.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AggError::Decode { error, .. } | AggError::Fold { error, .. } => Some(error),
            AggError::Transport(e) => Some(e),
            AggError::Io(_) => None,
        }
    }
}

impl From<TransportError> for AggError {
    fn from(e: TransportError) -> Self {
        AggError::Transport(e)
    }
}

/// Read one snapshot stream (either wire format, sniffed) to the end:
/// state records decode to [`WireSnapshot`]s, report records are
/// skipped, garbage is an error. `stream` tags errors with the
/// stream's index.
pub fn read_stream<R: BufRead>(stream: usize, input: R) -> Result<Vec<WireSnapshot>, AggError> {
    let mut source = SnapshotSource::new(input);
    let snapshots: Vec<WireSnapshot> = source.by_ref().collect();
    if let Some((line, error)) = source.error() {
        return Err(AggError::Decode { stream, line: *line, error: error.clone() });
    }
    Ok(snapshots)
}

/// Receive N shard streams **over TCP** and hand them back in fold
/// order — the socket counterpart of calling [`read_stream`] on N
/// files.
///
/// Runs `hub` to its [`collect_streams`](FrameHub::collect_streams)
/// barrier: blocks until `expect` distinct shard streams (identified
/// by their hello frames) have delivered their whole stream, under
/// `limits`, then returns the streams **sorted by shard id** — the
/// same deterministic order a file-based invocation lists its
/// arguments in, which is what makes `hhh-agg --listen` output
/// byte-identical to the file-based fold of the same shards. Report
/// and hello frames are dropped (folding never needs them); state
/// frames stay undecoded until the fold.
pub fn collect_socket_streams(
    hub: FrameHub,
    expect: usize,
    limits: CollectLimits,
) -> Result<Vec<Vec<WireSnapshot>>, AggError> {
    let streams = hub.collect_streams(expect, limits)?;
    Ok(streams
        .into_iter()
        .map(|s| {
            s.frames
                .into_iter()
                .filter(|f| f.kind != REPORT_KIND && f.kind != HELLO_KIND)
                .map(WireSnapshot::Binary)
                .collect()
        })
        .collect())
}

/// One report point after aggregation: every snapshot taken at `at`
/// with this `kind`, folded across all input streams.
pub struct MergedPoint<H: Hierarchy> {
    /// The report point the snapshots were taken at.
    pub at: Nanos,
    /// Start of the report window the snapshots cover (`== at` for
    /// windowless probes and pre-geometry v1 streams).
    pub start: Nanos,
    /// The detector kind (`exact`, `ss-hhh`, `rhhh`, `tdbf-hhh`).
    pub kind: String,
    /// How many snapshots were folded into this point.
    pub folded: usize,
    /// The merged state, ready to report or re-serialize.
    pub detector: RestoredDetector<H>,
}

impl<H: Hierarchy> MergedPoint<H>
where
    H::Item: FromStr,
    H::Prefix: FromStr,
{
    /// The merged [`WindowReport`] at a threshold. `index` is the
    /// caller's report-point ordinal; the window bounds are the ones
    /// the snapshots carried, so a folded report's geometry matches
    /// the in-process run's.
    pub fn report(&self, index: u64, threshold: Threshold) -> WindowReport<H::Prefix> {
        WindowReport {
            index,
            start: self.start,
            end: self.at,
            total: self.detector.total(),
            hhhs: self.detector.report(self.at, threshold),
        }
    }
}

/// Group the snapshots of N streams by `(at, kind)` and fold each
/// group into one restored detector: every stream's snapshots go into
/// one [`FoldState`] under the stream's index, and one refold folds
/// them all.
///
/// Within a group, folding follows stream order (stream 0's snapshot
/// restores, stream 1..'s fold in) and then within-stream order — the
/// same deterministic order the in-process shard pools merge in, which
/// is what makes the distributed result reproduce the in-process one.
/// The returned points are sorted by `(at, kind)`. Streams may mix
/// wire formats freely (a v1 shard folds with a v2 shard).
///
/// Streams typically hold one snapshot per `(at, kind)` (one per
/// process per report point); extra snapshots fold in like any other,
/// matching their arrival order.
pub fn fold_streams<H>(
    hierarchy: &H,
    streams: Vec<Vec<WireSnapshot>>,
) -> Result<Vec<MergedPoint<H>>, AggError>
where
    H: Hierarchy,
    H::Item: FromStr,
    H::Prefix: FromStr,
{
    let mut state = FoldState::new();
    for (index, stream) in streams.into_iter().enumerate() {
        for snapshot in stream {
            state.push(index as u64, snapshot);
        }
    }
    state.refold(hierarchy)?;
    Ok(state.into_points())
}

/// The one fold: [`fold_streams`] runs it once over whole streams, and
/// a long-running aggregator (`hhh-aggd`) runs it **incrementally** —
/// push snapshots one at a time, tagged with their stream id, as they
/// arrive off the wire in any interleaving, then
/// [`refold`](Self::refold) recomputes exactly the report points new
/// snapshots touched.
///
/// The refold of a `(at, kind)` group always folds its snapshots in
/// **stream-id order** (stream 0 restores, 1.. fold in), then
/// within-stream arrival order, so a `FoldState` fed the identical
/// snapshots produces byte-identical merged points no matter when
/// shards connected, restarted, or which frame interleaving the
/// sockets happened to deliver. (This is why pushing refolds the
/// group from scratch instead of folding into the existing merged
/// state: the approximate detectors' merges are order-sensitive, and
/// a late-arriving shard 0 must still end up first.)
///
/// With a [`retain`](Self::with_retention) bound, only the most recent
/// N report points per kind are kept — the rolling state a daemon
/// serves queries from, with memory bounded no matter how long it
/// runs.
pub struct FoldState<H: Hierarchy> {
    /// Raw snapshots per report point, keyed by stream id — the
    /// refold's input, in canonical fold order.
    groups: BTreeMap<(Nanos, String), BTreeMap<u64, Vec<WireSnapshot>>>,
    merged: BTreeMap<(Nanos, String), MergedPoint<H>>,
    dirty: std::collections::BTreeSet<(Nanos, String)>,
    retain: Option<usize>,
}

impl<H: Hierarchy> Default for FoldState<H> {
    fn default() -> Self {
        Self::new()
    }
}

impl<H: Hierarchy> FoldState<H> {
    /// An empty fold with unbounded retention.
    pub fn new() -> Self {
        FoldState {
            groups: BTreeMap::new(),
            merged: BTreeMap::new(),
            dirty: std::collections::BTreeSet::new(),
            retain: None,
        }
    }

    /// Keep only the most recent `points` report points (distinct
    /// `at`s) **per kind**; older ones are dropped at the next
    /// [`refold`](Self::refold).
    pub fn with_retention(mut self, points: usize) -> Self {
        assert!(points > 0, "retention must keep at least one point");
        self.retain = Some(points);
        self
    }

    /// Buffer one snapshot from `stream`. Cheap (no folding happens
    /// here); the point it lands on refolds at the next
    /// [`refold`](Self::refold).
    pub fn push(&mut self, stream: u64, snapshot: WireSnapshot) {
        let key = (snapshot.at(), snapshot.kind().to_owned());
        self.groups.entry(key.clone()).or_default().entry(stream).or_default().push(snapshot);
        self.dirty.insert(key);
    }

    /// Report points currently held, sorted by `(at, kind)` — the
    /// order [`fold_streams`] returns. Points pushed since the last
    /// [`refold`](Self::refold) are not yet visible.
    pub fn points(&self) -> impl Iterator<Item = &MergedPoint<H>> {
        self.merged.values()
    }

    /// The consuming form of [`points`](Self::points): the report
    /// points as of the last refold, sorted by `(at, kind)`.
    pub fn into_points(self) -> Vec<MergedPoint<H>> {
        self.merged.into_values().collect()
    }

    /// The most recent merged point of `kind`, if any.
    pub fn latest(&self, kind: &str) -> Option<&MergedPoint<H>> {
        self.merged.iter().rev().find(|((_, k), _)| k == kind).map(|(_, p)| p)
    }

    /// Report points buffered (refolded or not).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Points whose snapshots changed since the last refold.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }
}

impl<H> FoldState<H>
where
    H: Hierarchy,
    H::Item: FromStr,
    H::Prefix: FromStr,
{
    /// Refold every dirty report point (in canonical stream order) and
    /// apply the retention bound. Returns how many points refolded.
    pub fn refold(&mut self, hierarchy: &H) -> Result<usize, AggError> {
        let refolded = self.dirty.len();
        for key in std::mem::take(&mut self.dirty) {
            let group = self.groups.get(&key).expect("dirty key has a group");
            let mut detector: Option<(RestoredDetector<H>, Nanos, usize)> = None;
            for snaps in group.values() {
                for s in snaps {
                    match &mut detector {
                        Some((d, _, folded)) => {
                            d.fold_wire(hierarchy, s)
                                .map_err(|error| AggError::Fold { at: s.at(), error })?;
                            *folded += 1;
                        }
                        None => {
                            let d = RestoredDetector::from_wire(hierarchy, s)
                                .map_err(|error| AggError::Fold { at: s.at(), error })?;
                            detector = Some((d, s.start(), 1));
                        }
                    }
                }
            }
            let (detector, start, folded) = detector.expect("dirty group is non-empty");
            let (at, kind) = key.clone();
            self.merged.insert(key, MergedPoint { at, start, kind, folded, detector });
        }
        if let Some(retain) = self.retain {
            // Count points per kind newest-first; everything past the
            // bound is dropped from both the merged view and the raw
            // snapshot buffer.
            let mut seen: BTreeMap<String, usize> = BTreeMap::new();
            let mut drop_keys = Vec::new();
            for (at, kind) in self.merged.keys().rev() {
                let n = seen.entry(kind.clone()).or_insert(0);
                *n += 1;
                if *n > retain {
                    drop_keys.push((*at, kind.clone()));
                }
            }
            for key in drop_keys {
                self.merged.remove(&key);
                self.groups.remove(&key);
            }
        }
        Ok(refolded)
    }
}

/// Render merged points as v1 JSON lines: per point, one `report` line
/// per threshold (series = threshold index, index = the point's
/// ordinal within its kind) and — when `emit_state` — one `state` line
/// with the folded snapshot (byte-identical to what the same merged
/// state would emit in-process, so the output can feed another
/// aggregation tier). For binary output use [`write_merged`].
///
/// Accepts any iterator of points — a [`fold_streams`] `Vec`, a
/// [`FoldState::points`] view, or a filtered subset — rendered in the
/// order given (ordinals count per kind from the iterator's start).
pub fn render_merged<'a, H, I>(points: I, thresholds: &[Threshold], emit_state: bool) -> Vec<String>
where
    H: Hierarchy + 'a,
    H::Item: FromStr,
    H::Prefix: FromStr,
    H::Prefix: Display,
    I: IntoIterator<Item = &'a MergedPoint<H>>,
{
    let mut lines = Vec::new();
    let mut ordinal: BTreeMap<String, u64> = BTreeMap::new();
    for point in points {
        let index = ordinal.entry(point.kind.clone()).or_insert(0);
        for (ti, t) in thresholds.iter().enumerate() {
            lines.push(render_report_line(ti, &point.report(*index, *t)));
        }
        if emit_state {
            let stamped = StampedSnapshot {
                at: point.at,
                start: point.start,
                snapshot: point.detector.snapshot(),
            };
            lines.push(stamped.to_json());
        }
        *index += 1;
    }
    lines
}

/// Write merged points to `out` in the chosen wire format — the
/// format-parameterized face of [`render_merged`]. JSON writes the
/// exact same lines; binary writes report frames and state frames, so
/// a binary aggregation tier feeds the next binary tier without ever
/// materializing JSON bodies on disk.
pub fn write_merged<'a, H, I, W: Write>(
    out: &mut W,
    points: I,
    thresholds: &[Threshold],
    emit_state: bool,
    format: WireFormat,
) -> Result<(), AggError>
where
    H: Hierarchy + 'a,
    H::Item: FromStr,
    H::Prefix: FromStr,
    H::Prefix: Display,
    I: IntoIterator<Item = &'a MergedPoint<H>>,
{
    let io = |e: std::io::Error| AggError::Io(e.to_string());
    if format == WireFormat::Json {
        // One definition of the JSON output: write exactly the lines
        // `render_merged` renders.
        for line in render_merged(points, thresholds, emit_state) {
            writeln!(out, "{line}").map_err(io)?;
        }
        return Ok(());
    }
    let mut ordinal: BTreeMap<String, u64> = BTreeMap::new();
    for point in points {
        let index = ordinal.entry(point.kind.clone()).or_insert(0);
        for (ti, t) in thresholds.iter().enumerate() {
            let report = point.report(*index, *t);
            let line = render_report_line(ti, &report);
            let frame = SnapshotFrame::report(&line, report.start, report.end, report.total);
            out.write_all(&frame.encode()).map_err(io)?;
        }
        if emit_state {
            // Re-encode straight from the folded detector's wire body —
            // same bytes as the snapshot()-then-transcode path, none of
            // its JSON cost.
            let frame = point
                .detector
                .to_frame(point.start, point.at)
                .map_err(|error| AggError::Fold { at: point.at, error })?;
            out.write_all(&frame.encode()).map_err(io)?;
        }
        *index += 1;
    }
    Ok(())
}

/// Re-encode one whole snapshot stream into `to` — every record,
/// reports included — without folding anything. Transcoding v1 → v2 →
/// v1 (or v2 → v1 → v2) reproduces the original stream byte-for-byte
/// for any stream this workspace wrote, which the codec corpus pins.
///
/// `stream` tags decode errors with the stream's index.
pub fn transcode<R: BufRead, W: Write>(
    stream: usize,
    input: R,
    out: &mut W,
    to: WireFormat,
) -> Result<(), AggError> {
    let io = |e: std::io::Error| AggError::Io(e.to_string());
    let mut source = SnapshotSource::new(input);
    while let Some(record) = source.next_record() {
        match (record, to) {
            (StreamRecord::Report(line), WireFormat::Json) => {
                writeln!(out, "{line}").map_err(io)?;
            }
            (StreamRecord::Report(line), WireFormat::Binary) => {
                // Recover the frame header's geometry from the line
                // itself (reports are small; this is not the hot path).
                let (start, end, total) = report_line_geometry(&line).map_err(|error| {
                    AggError::Decode { stream, line: source.record_no(), error }
                })?;
                let frame = SnapshotFrame::report(&line, start, end, total);
                out.write_all(&frame.encode()).map_err(io)?;
            }
            (StreamRecord::State(s), WireFormat::Json) => {
                let stamped =
                    s.to_stamped().map_err(|error| AggError::Fold { at: s.at(), error })?;
                writeln!(out, "{}", stamped.to_json()).map_err(io)?;
            }
            (StreamRecord::State(s), WireFormat::Binary) => {
                let frame = match s {
                    WireSnapshot::Binary(frame) => frame,
                    WireSnapshot::Json(stamped) => stamped
                        .to_frame()
                        .map_err(|error| AggError::Fold { at: stamped.at, error })?,
                };
                out.write_all(&frame.encode()).map_err(io)?;
            }
        }
    }
    if let Some((line, error)) = source.error() {
        return Err(AggError::Decode { stream, line: *line, error: error.clone() });
    }
    Ok(())
}

/// Pull `(start, end, total)` out of a rendered report line, for
/// rebuilding a report frame's header during transcode.
fn report_line_geometry(line: &str) -> Result<(Nanos, Nanos, u64), SnapshotError> {
    use hhh_core::snapshot::json::Json;
    let v = Json::parse(line)?;
    let field = |name: &'static str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or(SnapshotError::Invalid { field: "report", what: "missing geometry field" })
    };
    Ok((
        Nanos::from_nanos(field("start_ns")?),
        Nanos::from_nanos(field("end_ns")?),
        field("total")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::{ExactHhh, HhhDetector, MergeableDetector};
    use hhh_hierarchy::Ipv4Hierarchy;

    fn snap_line(at_secs: u64, items: &[(u32, u64)]) -> String {
        let mut d = ExactHhh::new(Ipv4Hierarchy::bytes());
        for &(item, w) in items {
            HhhDetector::<Ipv4Hierarchy>::observe(&mut d, item, w);
        }
        StampedSnapshot {
            at: Nanos::from_secs(at_secs),
            start: Nanos::from_secs(at_secs.saturating_sub(1)),
            snapshot: d.snapshot().expect("exact serializes"),
        }
        .to_json()
    }

    #[test]
    fn two_streams_fold_to_the_union() {
        let h = Ipv4Hierarchy::bytes();
        let a = format!(
            "{}\n{}\n",
            snap_line(1, &[(0x0A010101, 60)]),
            snap_line(2, &[(0x0A010101, 10)])
        );
        let b = format!(
            "{}\n{}\n",
            snap_line(1, &[(0x14000001, 40)]),
            snap_line(2, &[(0x14000001, 30)])
        );
        let streams =
            vec![read_stream(0, a.as_bytes()).unwrap(), read_stream(1, b.as_bytes()).unwrap()];
        let points = fold_streams(&h, streams).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].at, Nanos::from_secs(1));
        assert_eq!(points[0].start, Nanos::ZERO, "window geometry survives the fold");
        assert_eq!(points[0].folded, 2);
        assert_eq!(points[0].detector.total(), 100);
        assert_eq!(points[1].detector.total(), 40);

        // The merged report sees both shards' traffic.
        let report = points[0].report(0, Threshold::percent(30.0));
        assert_eq!(report.total, 100);
        assert_eq!(report.start, Nanos::ZERO);
        assert_eq!(report.end, Nanos::from_secs(1));
        assert!(!report.hhhs.is_empty());
    }

    #[test]
    fn report_lines_and_state_lines_render() {
        let h = Ipv4Hierarchy::bytes();
        let a = snap_line(1, &[(0x0A010101, 100)]);
        let streams = vec![read_stream(0, a.as_bytes()).unwrap()];
        let points = fold_streams(&h, streams).unwrap();
        let lines = render_merged(&points, &[Threshold::percent(10.0)], true);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"report\",\"series\":0,\"index\":0,"));
        assert!(lines[1].starts_with("{\"type\":\"state\",\"at_ns\":1000000000,\"start_ns\":0,"));
        // Tiering: the state line reads back as a valid input stream.
        let again = read_stream(0, lines.join("\n").as_bytes()).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].total(), 100);
    }

    #[test]
    fn binary_output_feeds_and_folds_like_json() {
        let h = Ipv4Hierarchy::bytes();
        let a = snap_line(1, &[(0x0A010101, 100)]);
        let streams = vec![read_stream(0, a.as_bytes()).unwrap()];
        let points = fold_streams(&h, streams).unwrap();

        let mut bin = Vec::new();
        write_merged(&mut bin, &points, &[Threshold::percent(10.0)], true, WireFormat::Binary)
            .unwrap();
        // The binary tier output reads back as a valid input stream…
        let again = read_stream(0, bin.as_slice()).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].kind(), "exact");
        // …and folds to the same state the JSON tier would emit.
        let tier2 = fold_streams(&h, vec![again]).unwrap();
        assert_eq!(tier2[0].detector.snapshot().to_json(), points[0].detector.snapshot().to_json());
    }

    #[test]
    fn transcode_roundtrips_byte_identically() {
        let json_stream = format!(
            "{}\n{}\n",
            "{\"type\":\"report\",\"series\":0,\"index\":0,\"start_ns\":0,\"end_ns\":1000000000,\
             \"total\":100,\"hhhs\":[]}",
            snap_line(1, &[(0x0A010101, 100)])
        );
        let mut v2 = Vec::new();
        transcode(0, json_stream.as_bytes(), &mut v2, WireFormat::Binary).unwrap();
        assert_ne!(v2, json_stream.as_bytes());
        let mut back = Vec::new();
        transcode(0, v2.as_slice(), &mut back, WireFormat::Json).unwrap();
        assert_eq!(String::from_utf8(back).unwrap(), json_stream, "v1 → v2 → v1 is lossless");

        // And the other direction: v2 → v1 → v2.
        let mut v2_again = Vec::new();
        transcode(0, v2.as_slice(), &mut v2_again, WireFormat::Binary).unwrap();
        assert_eq!(v2_again, v2, "v2 re-encode is stable");
    }

    #[test]
    fn garbage_is_a_decode_error_with_position() {
        let err = read_stream(3, "{\"type\":\"report\"}\nnope\n".as_bytes()).unwrap_err();
        match err {
            AggError::Decode { stream, line, .. } => {
                assert_eq!(stream, 3);
                assert_eq!(line, 2);
            }
            other => panic!("expected Decode, got {other:?}"),
        }
    }

    #[test]
    fn fold_state_matches_fold_streams_under_any_interleaving() {
        let h = Ipv4Hierarchy::bytes();
        // Three shards × two report points.
        let shard = |base: u32| {
            format!(
                "{}\n{}\n",
                snap_line(1, &[(base, 10), (base + 1, 5)]),
                snap_line(2, &[(base, 20)])
            )
        };
        let streams: Vec<Vec<WireSnapshot>> = (0..3)
            .map(|i| read_stream(i, shard(0x0A010000 + i as u32).as_bytes()).unwrap())
            .collect();
        let batch = fold_streams(&h, streams.clone()).unwrap();
        let batch_lines = render_merged(&batch, &[Threshold::percent(10.0)], true);

        // Feed the same snapshots incrementally, deliberately out of
        // stream order (shard 2 first) and with shard 0's stream
        // replayed twice up to its first snapshot — as a restarted
        // shard would after the hub deduped… here we push only what
        // the hub would deliver (each position once).
        let mut state: FoldState<Ipv4Hierarchy> = FoldState::new();
        for (stream, si) in [(2u64, 0usize), (0, 0), (1, 0), (1, 1), (0, 1), (2, 1)] {
            state.push(stream, streams[stream as usize][si].clone());
        }
        assert_eq!(state.dirty_count(), 2);
        assert_eq!(state.refold(&h).unwrap(), 2);
        assert_eq!(state.dirty_count(), 0);
        let inc_lines = render_merged(state.points(), &[Threshold::percent(10.0)], true).join("\n");
        assert_eq!(inc_lines, batch_lines.join("\n"), "incremental fold is byte-identical");

        // latest() sees the newest point; a later push re-dirties only
        // its own point.
        assert_eq!(state.latest("exact").unwrap().at, Nanos::from_secs(2));
        state.push(0, read_stream(0, snap_line(3, &[(9, 1)]).as_bytes()).unwrap()[0].clone());
        assert_eq!(state.dirty_count(), 1);
        state.refold(&h).unwrap();
        assert_eq!(state.group_count(), 3);
    }

    #[test]
    fn fold_state_retention_drops_the_oldest_points_per_kind() {
        let h = Ipv4Hierarchy::bytes();
        let mut state: FoldState<Ipv4Hierarchy> = FoldState::new().with_retention(2);
        for at in 1..=5u64 {
            let snaps = read_stream(0, snap_line(at, &[(7, at)]).as_bytes()).unwrap();
            state.push(0, snaps[0].clone());
            state.refold(&h).unwrap();
        }
        let ats: Vec<Nanos> = state.points().map(|p| p.at).collect();
        assert_eq!(ats, vec![Nanos::from_secs(4), Nanos::from_secs(5)]);
        assert_eq!(state.group_count(), 2, "raw snapshot buffer is bounded too");
    }

    #[test]
    fn kind_mismatch_at_one_point_is_a_fold_error() {
        let h = Ipv4Hierarchy::bytes();
        let exact = snap_line(1, &[(1, 10)]);
        // Same report point, different kind.
        let ss = "{\"type\":\"state\",\"at_ns\":1000000000,\"snapshot\":{\"v\":1,\"kind\":\
                  \"ss-hhh\",\"total\":10,\"state\":{\"capacity\":8,\"levels\":[{\"total\":10,\
                  \"entries\":[[\"0.0.0.1/32\",10,0]]},{\"total\":10,\"entries\":\
                  [[\"0.0.0.0/24\",10,0]]},{\"total\":10,\"entries\":[[\"0.0.0.0/16\",10,0]]},\
                  {\"total\":10,\"entries\":[[\"0.0.0.0/8\",10,0]]},{\"total\":10,\"entries\":\
                  [[\"0.0.0.0/0\",10,0]]}]}}}";
        let streams =
            vec![read_stream(0, exact.as_bytes()).unwrap(), read_stream(1, ss.as_bytes()).unwrap()];
        // Different kinds at one point are *separate groups*, not an
        // error: an operator may legitimately run two detector kinds
        // side by side.
        let points = fold_streams(&h, streams).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].kind, "exact");
        assert_eq!(points[1].kind, "ss-hhh");
    }
}
