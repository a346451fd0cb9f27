//! Detector state snapshots: the **round-trip wire codec** for
//! distributed aggregation.
//!
//! [`MergeableDetector::merge`] makes
//! sharded ingestion work *inside* one process. To merge across
//! processes or hosts, shard states must cross a wire — this module
//! defines the serialized form **and** the decode + fold path back:
//!
//! * **encode** — [`DetectorSnapshot`] is a small self-describing
//!   envelope (`v`, `kind`, `total`, JSON state body) rendered by
//!   [`DetectorSnapshot::to_json`]; the JSON sinks in `hhh-window`
//!   emit one per report point.
//! * **decode** — [`DetectorSnapshot::from_json`] parses a line back
//!   (hand-rolled [`json`] layer; this workspace is fully offline, no
//!   serde), with typed [`SnapshotError`]s instead of silent `None`s.
//! * **fold** — [`RestoredDetector`] rebuilds a live detector from a
//!   snapshot (`ExactHhh`, `SpaceSavingHhh`, `Rhhh`, `MvPipeHhh`,
//!   `TdbfHhh` all support it) and folds further snapshots in with the
//!   *same* in-process merge recipes — Space-Saving union-then-prune
//!   per level, RHHH sampled levels, MVPipe bucket-wise majority
//!   votes, TDBF cell-wise decayed sums — so
//!   cross-process aggregation is the in-process algebra, lifted onto
//!   the wire. The `hhh-agg` crate drives this over JSONL streams.
//!
//! State bodies are *self-contained*: they carry the detector
//! configuration (capacities, seeds, decay rates) alongside the state,
//! so an aggregator needs nothing but the hierarchy to restore and
//! merge. Rendering is deterministic (rows sorted, canonical JSON), so
//! equal states serialize identically and goldens can diff snapshots.
//!
//! ## Wire format (version 1)
//!
//! ```json
//! {"v":1,"kind":"exact","total":1234,"state":{…}}
//! ```
//!
//! | `kind` | state body |
//! |--------|------------|
//! | `exact` | `{"counts":[[item,count],…]}`, rows sorted by item rendering |
//! | `ss-hhh` | `{"capacity":C,"levels":[{"total":N,"entries":[[prefix,count,error],…]},…]}` |
//! | `rhhh` | the `ss-hhh` body plus `"updates":[u₀,…]` |
//! | `mvpipe` | `{"buckets":B,"entries":[[prefix,count,vote],…]}`, rows sorted by prefix rendering (bucket indexes re-derived from the keys) |
//! | `tdbf-hhh` | config fields plus `"total":[v,last_ns]`, `"filters"` (per-level `[v,last_ns]` cell arrays) and `"candidates"` (per-level `[prefix,ts_ns]` rows) |
//!
//! A missing `"v"` is read as version 1; unknown versions are
//! rejected, never guessed at. State lines also carry the report
//! window's geometry (`"start_ns"`, alongside `"at_ns"`); a missing
//! `start_ns` reads as `at_ns` (pre-geometry lines), so v1 streams
//! from older writers still decode.
//!
//! ## Wire format (version 2)
//!
//! The [`binary`] module defines the binary **frame** format for the
//! hot aggregation path — same envelope semantics (versioned,
//! self-describing, typed errors), bodies in varint/zigzag-packed
//! binary with delta-encoded TDBF cells. [`DetectorSnapshot::to_frame`]
//! / [`DetectorSnapshot::from_frame`] transcode between the two;
//! [`RestoredDetector::from_frame`] decodes a frame straight into a
//! live detector without touching JSON.
//!
//! ## One model, two renderings
//!
//! Each kind's wire state has one model, its crate-private *body*: the
//! rows both formats carry, in the order they carry them. A detector
//! builds its body once per snapshot and renders it as a v1 JSON state
//! ([`MergeableDetector::snapshot`]) or encodes it as a v2 frame
//! ([`MergeableDetector::to_frame`]) — never one format through the
//! other. Both decoders parse into the same body, and one body →
//! detector match rebuilds the detector from either.

use core::fmt::Write as _;
use core::fmt::{self, Display};
use core::str::FromStr;
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use std::borrow::Cow;

pub mod binary;
mod body;
pub mod json;

pub use binary::{SnapshotFrame, WireFormat};
pub(crate) use body::{Body, ExactBody, MvPipeBody, RhhhBody, SsBody, SsLevelBody, TdbfBody};

use crate::report::{HhhReport, Threshold};
use crate::{
    ContinuousDetector, ExactHhh, HhhDetector, Kind, MergeableDetector, MvPipeHhh, Rhhh,
    SpaceSavingHhh, TdbfHhh,
};
use json::Json;

/// The wire-format version this crate reads and writes.
pub const WIRE_VERSION: u64 = 1;

/// Upper bound on any wire-supplied capacity or geometry count.
///
/// Wire input is untrusted: a corrupt or hostile line must come back
/// as a typed [`SnapshotError`], never drive a pathological
/// allocation that aborts the aggregator. Real configurations sit
/// orders of magnitude below this (hundreds to tens of thousands of
/// counters).
pub const MAX_WIRE_CAPACITY: usize = 1 << 20;

/// A serialized snapshot of a detector's mergeable state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectorSnapshot {
    /// Stable wire-format discriminator (the detector's `name()`).
    /// Borrowed for snapshots a detector emits, owned for parsed ones.
    pub kind: Cow<'static, str>,
    /// Total weight covered by the state (undecayed, since reset).
    pub total: u64,
    /// The state body: a JSON object string, format per `kind`.
    pub state_json: String,
}

impl DetectorSnapshot {
    /// Render the whole envelope as one JSON object (one line, no
    /// trailing newline) — the unit the snapshot sinks write.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"v\":{WIRE_VERSION},\"kind\":{},\"total\":{},\"state\":{}}}",
            json_string(&self.kind),
            self.total,
            self.state_json
        )
    }

    /// Parse an envelope previously rendered by
    /// [`to_json`](Self::to_json). The state body is re-rendered
    /// canonically, so for any line this crate wrote,
    /// `from_json(to_json(s)) == s`.
    pub fn from_json(line: &str) -> Result<Self, SnapshotError> {
        let v = Json::parse(line)?;
        Self::from_value(&v)
    }

    /// Decode an envelope from an already-parsed JSON value (the form
    /// aggregators meet inside `{"type":"state",…}` lines).
    pub fn from_value(v: &Json) -> Result<Self, SnapshotError> {
        if v.as_obj().is_none() {
            return Err(SnapshotError::Invalid { field: "snapshot", what: "not a JSON object" });
        }
        let version = match v.get("v") {
            None => WIRE_VERSION, // pre-versioning lines are version 1
            Some(j) => j
                .as_u64()
                .ok_or(SnapshotError::Invalid { field: "v", what: "not an unsigned integer" })?,
        };
        if version != WIRE_VERSION {
            return Err(SnapshotError::Version(version));
        }
        let kind = req_str(v, "kind")?.to_owned();
        let total = req_u64(v, "total")?;
        let state = req(v, "state")?;
        if state.as_obj().is_none() {
            return Err(SnapshotError::Invalid { field: "state", what: "not a JSON object" });
        }
        Ok(DetectorSnapshot { kind: Cow::Owned(kind), total, state_json: state.render() })
    }

    /// Parse the state body.
    pub fn state(&self) -> Result<Json, SnapshotError> {
        Json::parse(&self.state_json)
    }

    /// Transcode this (JSON-bodied) snapshot into a v2 frame carrying
    /// the report-window geometry `start..=at`. Unknown kinds are
    /// [`SnapshotError::Kind`].
    pub fn to_frame(&self, start: Nanos, at: Nanos) -> Result<SnapshotFrame, SnapshotError> {
        Body::from_snapshot(self)?.to_frame(self.total, start, at)
    }

    /// Transcode a v2 frame back into the canonical JSON-bodied
    /// snapshot — for any frame [`to_frame`](Self::to_frame) wrote,
    /// `from_frame(to_frame(s)) == s` byte-for-byte.
    pub fn from_frame(frame: &SnapshotFrame) -> Result<DetectorSnapshot, SnapshotError> {
        Ok(Body::from_frame(frame)?.into_snapshot(frame.total))
    }
}

/// Why a snapshot could not be decoded, restored, or folded.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// The text is not well-formed JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected.
        what: &'static str,
    },
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but has the wrong type or an invalid value.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// What is wrong with it.
        what: &'static str,
    },
    /// The envelope declares a wire-format version this build cannot
    /// read.
    Version(u64),
    /// The `kind` names a detector this build cannot restore.
    Kind(String),
    /// Two snapshots that cannot be folded together (different kinds
    /// or incompatible configurations).
    Mismatch(String),
    /// A transport-level I/O failure (socket, pipe, file) surfaced
    /// through a decode path. Carries the [`std::io::ErrorKind`] and a
    /// rendered detail (`std::io::Error` itself is neither `Clone` nor
    /// `PartialEq`); the full error object with its `source()` chain
    /// lives in `hhh_window::transport::TransportError`.
    Transport {
        /// What the transport was doing (`read`, `write`, `connect`,
        /// `accept`).
        op: &'static str,
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// The rendered I/O error.
        detail: String,
    },
}

impl Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Parse { offset, what } => {
                write!(f, "malformed input at byte {offset}: {what}")
            }
            SnapshotError::Missing(field) => write!(f, "missing field `{field}`"),
            SnapshotError::Invalid { field, what } => write!(f, "invalid field `{field}`: {what}"),
            SnapshotError::Version(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {WIRE_VERSION})")
            }
            SnapshotError::Kind(k) => write!(f, "unknown detector kind `{k}`"),
            SnapshotError::Mismatch(what) => write!(f, "snapshots cannot be folded: {what}"),
            SnapshotError::Transport { op, kind, detail } => {
                write!(f, "transport {op} failed ({kind:?}): {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// Build a [`SnapshotError::Transport`] from an I/O error (the
    /// lossy-but-`Clone` form decode paths can carry).
    pub fn transport(op: &'static str, e: &std::io::Error) -> Self {
        SnapshotError::Transport { op, kind: e.kind(), detail: e.to_string() }
    }
}

/// Fetch a required field of a JSON object.
pub fn req<'a>(v: &'a Json, field: &'static str) -> Result<&'a Json, SnapshotError> {
    v.get(field).ok_or(SnapshotError::Missing(field))
}

/// Fetch a required unsigned-integer field.
pub fn req_u64(v: &Json, field: &'static str) -> Result<u64, SnapshotError> {
    req(v, field)?.as_u64().ok_or(SnapshotError::Invalid { field, what: "not an unsigned integer" })
}

/// Fetch a required float field (any numeric lexeme).
pub fn req_f64(v: &Json, field: &'static str) -> Result<f64, SnapshotError> {
    req(v, field)?.as_f64().ok_or(SnapshotError::Invalid { field, what: "not a number" })
}

/// Fetch a required string field.
pub fn req_str<'a>(v: &'a Json, field: &'static str) -> Result<&'a str, SnapshotError> {
    req(v, field)?.as_str().ok_or(SnapshotError::Invalid { field, what: "not a string" })
}

/// Fetch a required array field.
pub fn req_arr<'a>(v: &'a Json, field: &'static str) -> Result<&'a [Json], SnapshotError> {
    req(v, field)?.as_arr().ok_or(SnapshotError::Invalid { field, what: "not an array" })
}

/// Escape a string as a JSON string literal (with quotes).
pub fn json_string(s: impl Display) -> String {
    let raw = s.to_string();
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A snapshot tagged with its report point and window geometry, as
/// read back from the JSON-lines stream a snapshot sink (in
/// `hhh-window`) wrote.
#[derive(Clone, Debug, PartialEq)]
pub struct StampedSnapshot {
    /// The report point the snapshot was taken at.
    pub at: Nanos,
    /// Start of the report window the state covers. Windowless probes
    /// (and pre-geometry v1 lines, which did not carry `start_ns`) use
    /// `start == at`.
    pub start: Nanos,
    /// The serialized detector state.
    pub snapshot: DetectorSnapshot,
}

impl StampedSnapshot {
    /// Render as the `{"type":"state",…}` JSON line shape.
    pub fn to_json(&self) -> String {
        Self::render(self.start, self.at, &self.snapshot)
    }

    /// Render a state line from borrowed parts — the one definition of
    /// the line shape, shared with the `hhh-window` sink so writer and
    /// aggregator output can never diverge byte-wise (and the hot sink
    /// path never clones the state body).
    pub fn render(start: Nanos, at: Nanos, snapshot: &DetectorSnapshot) -> String {
        format!(
            "{{\"type\":\"state\",\"at_ns\":{},\"start_ns\":{},\"snapshot\":{}}}",
            at.as_nanos(),
            start.as_nanos(),
            snapshot.to_json()
        )
    }

    /// Transcode into a v2 frame carrying the same geometry.
    pub fn to_frame(&self) -> Result<SnapshotFrame, SnapshotError> {
        self.snapshot.to_frame(self.start, self.at)
    }
}

/// Parse one line of a snapshot JSONL stream. Returns `Ok(Some(_))`
/// for a `state` line, `Ok(None)` for any other well-formed line
/// (`report` lines ride in the same stream), and an error for garbage.
pub fn parse_state_line(line: &str) -> Result<Option<StampedSnapshot>, SnapshotError> {
    let v = Json::parse(line)?;
    match v.get("type").and_then(Json::as_str) {
        Some("state") => {
            let at = Nanos::from_nanos(req_u64(&v, "at_ns")?);
            // Pre-geometry writers did not emit start_ns; default to
            // the report point (backward compatible).
            let start = match v.get("start_ns") {
                None => at,
                Some(j) => Nanos::from_nanos(j.as_u64().ok_or(SnapshotError::Invalid {
                    field: "start_ns",
                    what: "not an unsigned integer",
                })?),
            };
            let snapshot = DetectorSnapshot::from_value(req(&v, "snapshot")?)?;
            Ok(Some(StampedSnapshot { at, start, snapshot }))
        }
        Some(_) => Ok(None),
        None => Err(SnapshotError::Missing("type")),
    }
}

/// A state record off either wire: a v1 JSON line or a v2 binary
/// frame. The fold path ([`RestoredDetector::from_wire`] /
/// [`RestoredDetector::fold_wire`]) dispatches on the variant, so
/// aggregators accept both formats without transcoding — the binary
/// body decodes straight into a detector.
#[derive(Clone, Debug, PartialEq)]
pub enum WireSnapshot {
    /// A v1 `{"type":"state",…}` line.
    Json(StampedSnapshot),
    /// A v2 binary frame (body undecoded until folded).
    Binary(SnapshotFrame),
}

impl WireSnapshot {
    /// The report point the snapshot was taken at.
    pub fn at(&self) -> Nanos {
        match self {
            WireSnapshot::Json(s) => s.at,
            WireSnapshot::Binary(f) => f.at,
        }
    }

    /// Start of the report window the state covers.
    pub fn start(&self) -> Nanos {
        match self {
            WireSnapshot::Json(s) => s.start,
            WireSnapshot::Binary(f) => f.start,
        }
    }

    /// The detector kind label.
    pub fn kind(&self) -> &str {
        match self {
            WireSnapshot::Json(s) => &s.snapshot.kind,
            WireSnapshot::Binary(f) => &f.kind,
        }
    }

    /// Total (undecayed) weight covered by the state.
    pub fn total(&self) -> u64 {
        match self {
            WireSnapshot::Json(s) => s.snapshot.total,
            WireSnapshot::Binary(f) => f.total,
        }
    }

    /// The JSON-envelope view: pass-through for v1, a body transcode
    /// for v2 (used off the hot path — folding never needs it).
    pub fn to_stamped(&self) -> Result<StampedSnapshot, SnapshotError> {
        match self {
            WireSnapshot::Json(s) => Ok(s.clone()),
            WireSnapshot::Binary(f) => Ok(StampedSnapshot {
                at: f.at,
                start: f.start,
                snapshot: DetectorSnapshot::from_frame(f)?,
            }),
        }
    }
}

/// A detector rebuilt from a [`DetectorSnapshot`] — the **fold**
/// target of cross-process aggregation.
///
/// One variant per snapshot-capable detector; the dispatcher hides
/// which one a stream contains. Folding decodes the incoming snapshot
/// into a second restored detector and applies the in-process
/// [`MergeableDetector::merge`] — so the distributed result is, by
/// construction, the same algebra the sharded pipelines run, with
/// configuration mismatches reported as [`SnapshotError::Mismatch`]
/// instead of the panics the in-process path reserves for programmer
/// error.
#[derive(Clone, Debug)]
pub enum RestoredDetector<H: Hierarchy> {
    /// An [`ExactHhh`] (kind `exact`).
    Exact(ExactHhh<H>),
    /// A [`SpaceSavingHhh`] (kind `ss-hhh`).
    SpaceSaving(SpaceSavingHhh<H>),
    /// An [`Rhhh`] (kind `rhhh`).
    Rhhh(Rhhh<H>),
    /// An [`MvPipeHhh`] (kind `mvpipe`).
    MvPipe(MvPipeHhh<H>),
    /// A [`TdbfHhh`] (kind `tdbf-hhh`).
    Tdbf(TdbfHhh<H>),
}

impl<H> RestoredDetector<H>
where
    H: Hierarchy,
    H::Item: FromStr,
    H::Prefix: FromStr,
{
    /// Rebuild a live detector from a snapshot, dispatching on `kind`.
    pub fn from_snapshot(h: &H, snap: &DetectorSnapshot) -> Result<Self, SnapshotError> {
        Self::from_body(h, Body::from_snapshot(snap)?, snap.total)
    }

    /// Rebuild a live detector straight from a v2 frame — no JSON
    /// anywhere on the path, which is what buys the aggregation tier
    /// its decode speedup. Shares every validation with
    /// [`from_snapshot`](Self::from_snapshot), plus the frame's
    /// config-digest check.
    pub fn from_frame(h: &H, frame: &SnapshotFrame) -> Result<Self, SnapshotError> {
        Self::from_body(h, Body::from_frame(frame)?, frame.total)
    }

    /// Rebuild a live detector from either wire encoding.
    pub fn from_wire(h: &H, snap: &WireSnapshot) -> Result<Self, SnapshotError> {
        match snap {
            WireSnapshot::Json(s) => Self::from_snapshot(h, &s.snapshot),
            WireSnapshot::Binary(f) => Self::from_frame(h, f),
        }
    }

    /// Decode `snap` and merge it into this detector (the in-process
    /// merge recipe, behind the wire). Errors on kind or configuration
    /// mismatch; `self` is unchanged on error.
    pub fn fold(&mut self, h: &H, snap: &DetectorSnapshot) -> Result<(), SnapshotError> {
        let other = Self::from_snapshot(h, snap)?;
        self.fold_restored(other)
    }

    /// [`fold`](Self::fold) over either wire encoding — the v2 path
    /// decodes the binary body straight into a detector, which is what
    /// makes the aggregation tier fast.
    pub fn fold_wire(&mut self, h: &H, snap: &WireSnapshot) -> Result<(), SnapshotError> {
        let other = Self::from_wire(h, snap)?;
        self.fold_restored(other)
    }

    /// Merge an already-restored detector in (shared by every fold
    /// flavor). Errors on kind or configuration mismatch; `self` is
    /// unchanged on error.
    pub fn fold_restored(&mut self, other: Self) -> Result<(), SnapshotError> {
        match (self, other) {
            (RestoredDetector::Exact(a), RestoredDetector::Exact(b)) => {
                a.merge(&b);
                Ok(())
            }
            (RestoredDetector::SpaceSaving(a), RestoredDetector::SpaceSaving(b)) => {
                if a.capacity() != b.capacity() {
                    return Err(SnapshotError::Mismatch(format!(
                        "ss-hhh capacities differ: {} vs {}",
                        a.capacity(),
                        b.capacity()
                    )));
                }
                a.merge(&b);
                Ok(())
            }
            (RestoredDetector::Rhhh(a), RestoredDetector::Rhhh(b)) => {
                if a.capacity() != b.capacity() {
                    return Err(SnapshotError::Mismatch(format!(
                        "rhhh capacities differ: {} vs {}",
                        a.capacity(),
                        b.capacity()
                    )));
                }
                a.merge(&b);
                Ok(())
            }
            (RestoredDetector::MvPipe(a), RestoredDetector::MvPipe(b)) => {
                if a.buckets() != b.buckets() {
                    return Err(SnapshotError::Mismatch(format!(
                        "mvpipe bucket counts differ: {} vs {}",
                        a.buckets(),
                        b.buckets()
                    )));
                }
                a.merge(&b);
                Ok(())
            }
            (RestoredDetector::Tdbf(a), RestoredDetector::Tdbf(b)) => {
                if a.config_fingerprint() != b.config_fingerprint() {
                    return Err(SnapshotError::Mismatch(
                        "tdbf-hhh configurations differ".to_owned(),
                    ));
                }
                a.merge(&b);
                Ok(())
            }
            (a, b) => Err(SnapshotError::Mismatch(format!(
                "kinds differ: `{}` vs `{}`",
                a.kind(),
                b.kind()
            ))),
        }
    }

    /// The wire `kind` of the restored detector.
    pub fn kind(&self) -> &'static str {
        match self {
            RestoredDetector::Exact(_) => Kind::Exact,
            RestoredDetector::SpaceSaving(_) => Kind::SsHhh,
            RestoredDetector::Rhhh(_) => Kind::Rhhh,
            RestoredDetector::MvPipe(_) => Kind::MvPipe,
            RestoredDetector::Tdbf(_) => Kind::Tdbf,
        }
        .label()
    }

    /// Total (undecayed) weight covered by the state.
    pub fn total(&self) -> u64 {
        match self {
            RestoredDetector::Exact(d) => d.total(),
            RestoredDetector::SpaceSaving(d) => d.total(),
            RestoredDetector::Rhhh(d) => d.total(),
            RestoredDetector::MvPipe(d) => d.total(),
            RestoredDetector::Tdbf(d) => d.observed_weight(),
        }
    }

    /// Re-serialize the (merged) state — byte-identical to what the
    /// same state would emit in-process, so aggregator output can feed
    /// another aggregation tier.
    pub fn snapshot(&self) -> DetectorSnapshot {
        self.body().into_snapshot(self.total())
    }

    /// Encode the (merged) state as a v2 frame carrying the window
    /// geometry `start..=at`, straight from its body — byte-identical
    /// to `snapshot().to_frame(start, at)` without rendering or parsing
    /// JSON. This is what lets a binary aggregation tier re-emit states
    /// as cheaply as it decodes them.
    pub fn to_frame(&self, start: Nanos, at: Nanos) -> Result<SnapshotFrame, SnapshotError> {
        self.body().to_frame(self.total(), start, at)
    }

    /// The HHH report of the merged state. Windowed detectors report
    /// their whole (since-reset) window; the continuous TDBF detector
    /// reports as of `at` — pass the report point the snapshots were
    /// taken at.
    pub fn report(&self, at: Nanos, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        match self {
            RestoredDetector::Exact(d) => d.report(threshold),
            RestoredDetector::SpaceSaving(d) => d.report(threshold),
            RestoredDetector::Rhhh(d) => d.report(threshold),
            RestoredDetector::MvPipe(d) => d.report(threshold),
            RestoredDetector::Tdbf(d) => d.report_at(at, threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_renders_stably() {
        let s = DetectorSnapshot {
            kind: Cow::Borrowed("exact"),
            total: 42,
            state_json: "{\"counts\":[]}".to_string(),
        };
        assert_eq!(
            s.to_json(),
            "{\"v\":1,\"kind\":\"exact\",\"total\":42,\"state\":{\"counts\":[]}}"
        );
    }

    #[test]
    fn envelope_roundtrips() {
        let s = DetectorSnapshot {
            kind: Cow::Borrowed("exact"),
            total: 42,
            state_json: "{\"counts\":[[\"7\",42]]}".to_string(),
        };
        let back = DetectorSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn missing_version_reads_as_v1() {
        let back = DetectorSnapshot::from_json(
            "{\"kind\":\"exact\",\"total\":7,\"state\":{\"counts\":[]}}",
        )
        .unwrap();
        assert_eq!(back.total, 7);
        assert_eq!(back.kind, "exact");
    }

    #[test]
    fn unknown_version_rejected() {
        let e =
            DetectorSnapshot::from_json("{\"v\":99,\"kind\":\"exact\",\"total\":7,\"state\":{}}");
        assert_eq!(e, Err(SnapshotError::Version(99)));
    }

    #[test]
    fn missing_fields_are_typed_errors() {
        assert_eq!(
            DetectorSnapshot::from_json("{\"v\":1,\"total\":7,\"state\":{}}"),
            Err(SnapshotError::Missing("kind"))
        );
        assert_eq!(
            DetectorSnapshot::from_json("{\"v\":1,\"kind\":\"exact\",\"state\":{}}"),
            Err(SnapshotError::Missing("total"))
        );
        assert!(matches!(
            DetectorSnapshot::from_json("{\"v\":1,\"kind\":\"exact\",\"total\":7,\"state\":3}"),
            Err(SnapshotError::Invalid { field: "state", .. })
        ));
    }

    #[test]
    fn state_line_roundtrip_and_skip() {
        let s = StampedSnapshot {
            at: Nanos::from_secs(3),
            start: Nanos::from_secs(1),
            snapshot: DetectorSnapshot {
                kind: Cow::Borrowed("exact"),
                total: 300,
                state_json: "{\"counts\":[[\"7\",300]]}".into(),
            },
        };
        let parsed = parse_state_line(&s.to_json()).unwrap();
        assert_eq!(parsed, Some(s));
        // Report lines in the same stream are skipped, not errors.
        assert_eq!(parse_state_line("{\"type\":\"report\",\"series\":0}"), Ok(None));
        assert!(parse_state_line("{\"series\":0}").is_err());
        assert!(parse_state_line("not json").is_err());
    }

    #[test]
    fn state_line_without_start_ns_defaults_to_at() {
        // Pre-geometry v1 writers did not emit start_ns.
        let line = "{\"type\":\"state\",\"at_ns\":5000000000,\"snapshot\":{\"v\":1,\
                    \"kind\":\"exact\",\"total\":7,\"state\":{\"counts\":[[\"7\",7]]}}}";
        let parsed = parse_state_line(line).unwrap().unwrap();
        assert_eq!(parsed.at, Nanos::from_secs(5));
        assert_eq!(parsed.start, Nanos::from_secs(5), "missing start_ns reads as at");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("10.0.0.0/8"), "\"10.0.0.0/8\"");
    }
}
