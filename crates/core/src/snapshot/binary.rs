//! Snapshot wire format **version 2**: binary framing for the hot
//! aggregation path.
//!
//! Version 1 (the JSON lines in [`super`]) is self-describing and
//! diff-able, but `BENCH_pr3.json` shows it is the aggregation-tier
//! bottleneck: a `tdbf-hhh` state carries 5 × 4096 × 4 decayed cells
//! as shortest-form float text, and decoding them caps the tier at
//! ~32 snapshots/s while the shards ingest millions of packets/s.
//! Version 2 keeps the envelope self-describing but moves the bodies
//! to a compact binary form the aggregator can decode at memory speed:
//!
//! ```text
//! frame   := magic(4 = "HHF2") version(u8 = 2) len(u32 LE)  payload
//! payload := kind(varint length + UTF-8 bytes)
//!            config_digest(u64 LE)
//!            start_ns(varint) at_ns(varint) total(varint)
//!            body(remaining bytes, layout per kind)
//! ```
//!
//! * **length prefix** — `len` counts the payload bytes, so frames
//!   concatenate into streams and a reader can skip a frame without
//!   understanding its body. `len` is capped by [`MAX_FRAME_LEN`]: an
//!   oversize prefix is a typed error, never a pathological
//!   allocation.
//! * **self-describing** — the magic and version make format sniffing
//!   trivial (a JSON stream starts with `{`, a v2 stream with the
//!   magic); `kind` rides in the header; `config_digest` is an
//!   FNV-1a-64 digest of the body's configuration fields, verified on
//!   decode so a corrupt body fails loudly *before* two incompatible
//!   states fold.
//! * **window geometry** — `start_ns`/`at_ns` carry the report
//!   window's bounds (equal for windowless probes), so folded reports
//!   reconstruct exact window bounds; v1 carries the same pair as
//!   `"start_ns"`/`"at_ns"` on its state lines.
//! * **integer packing** — counts, capacities and timestamps are
//!   LEB128 varints; signed deltas are zigzag-coded. `f64` state
//!   (decayed cells, admission fractions) travels as raw little-endian
//!   IEEE-754 bits, so restored floats are **bit-identical** — the
//!   same guarantee v1's shortest-form rendering makes.
//! * **delta-encoded TDBF cells** — each filter level stores a
//!   *baseline* cell (the most common `(value, last_ns)` pair, usually
//!   the never-touched `(0.0, 0)`) and only the cells that differ, as
//!   `(index-gap varint, f64 bits, zigzag Δns)` triples. A
//!   mostly-decayed or sparsely touched filter shrinks by orders of
//!   magnitude; a saturated one pays ≤ 2 bytes/cell over the dense
//!   form.
//!
//! Report records ride in v2 streams as frames of kind `report` whose
//! body is the verbatim UTF-8 of the v1 report line — reports are
//! small, human-facing, and not worth a second schema — which makes
//! whole-stream transcoding (v1 → v2 → v1) byte-identical.
//!
//! The encoding is **medium-independent**: a frame on a socket is the
//! same bytes as a frame in a file. Frames self-delimit via the length
//! prefix and self-describe via the header, so the snapshot sinks,
//! sources and TCP transport in `hhh-window` just move them —
//! and a capture of a TCP shard stream diffs clean against the same
//! shard's stream file.
//!
//! This module holds the framing and the packing primitives. Each
//! kind's body layout is written once, next to its v1 JSON rendering,
//! in the crate-private `body` module, which builds on the helpers
//! here.
//!
//! Decoding shares the typed [`SnapshotError`] surface with v1:
//! truncation, bad magic, version skew, digest mismatches and hostile
//! capacities all come back as errors, never panics or unbounded
//! allocations (the structure-aware fuzz tests pin this).

use super::SnapshotError;
use hhh_nettypes::Nanos;
use std::borrow::Cow;
use std::collections::HashMap;

/// First bytes of every v2 frame.
pub const FRAME_MAGIC: [u8; 4] = *b"HHF2";

/// The frame-format version this build reads and writes.
pub const FRAME_VERSION: u8 = 2;

/// Bytes before the payload: magic, version, payload length.
pub const FRAME_HEADER_LEN: usize = 9;

/// Upper bound on one frame's payload. Wire input is untrusted: the
/// length prefix drives an allocation, so it is capped far above any
/// real snapshot (a maximal TDBF state is a few MiB) but low enough
/// that a hostile prefix cannot exhaust memory.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// The kind header of the report-record frames (body = the verbatim
/// v1 report line).
pub const REPORT_KIND: &str = "report";

/// The two snapshot stream encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFormat {
    /// Version 1: JSON lines (`report` / `state` objects).
    Json,
    /// Version 2: binary frames (this module).
    Binary,
}

impl WireFormat {
    /// Stable CLI label (`json` / `binary`).
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<WireFormat> {
        match s {
            "json" | "v1" => Some(WireFormat::Json),
            "binary" | "v2" => Some(WireFormat::Binary),
            _ => None,
        }
    }
}

/// One decoded v2 frame: the binary counterpart of a v1 `state` line
/// (or, for [`REPORT_KIND`], a `report` line).
///
/// The body stays as raw bytes until something interprets it — the
/// hot fold path goes body → detector directly
/// ([`RestoredDetector::from_frame`](super::RestoredDetector::from_frame)),
/// bypassing JSON entirely; the transcode path goes body → canonical
/// JSON ([`DetectorSnapshot::from_frame`](super::DetectorSnapshot::from_frame)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotFrame {
    /// Start of the report window the state covers (== `at` for
    /// windowless probes).
    pub start: Nanos,
    /// The report point the snapshot was taken at.
    pub at: Nanos,
    /// Detector kind (`exact`, `ss-hhh`, `rhhh`, `mvpipe`,
    /// `tdbf-hhh`), or [`REPORT_KIND`].
    pub kind: Cow<'static, str>,
    /// Total weight covered by the state (report records: the window
    /// total).
    pub total: u64,
    /// FNV-1a-64 digest of the body's configuration fields (report
    /// records: of the whole body). Verified when the body is
    /// interpreted.
    pub digest: u64,
    /// The binary body, layout per `kind`.
    pub body: Vec<u8>,
}

impl SnapshotFrame {
    /// Serialize the frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.body.len() + 64);
        put_uv(&mut payload, self.kind.len() as u64);
        payload.extend_from_slice(self.kind.as_bytes());
        payload.extend_from_slice(&self.digest.to_le_bytes());
        put_uv(&mut payload, self.start.as_nanos());
        put_uv(&mut payload, self.at.as_nanos());
        put_uv(&mut payload, self.total);
        payload.extend_from_slice(&self.body);

        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(FRAME_VERSION);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode one frame from the front of `buf`; returns the frame and
    /// the bytes consumed (frames concatenate into streams).
    pub fn decode(buf: &[u8]) -> Result<(SnapshotFrame, usize), SnapshotError> {
        if buf.len() < FRAME_HEADER_LEN {
            return Err(truncated(buf.len()));
        }
        let len = payload_len(&buf[..FRAME_HEADER_LEN])?;
        let end = FRAME_HEADER_LEN + len;
        if buf.len() < end {
            return Err(truncated(buf.len()));
        }
        let frame = Self::decode_payload(&buf[FRAME_HEADER_LEN..end])?;
        Ok((frame, end))
    }

    /// Decode the payload of a frame whose header
    /// ([`payload_len`]) was already read — the streaming entry point.
    pub fn decode_payload(payload: &[u8]) -> Result<SnapshotFrame, SnapshotError> {
        let mut r = ByteReader::new(payload);
        let kind = r.str_("kind")?;
        let digest = r.u64_le("config_digest")?;
        let start = Nanos::from_nanos(r.uv("start_ns")?);
        let at = Nanos::from_nanos(r.uv("at_ns")?);
        let total = r.uv("total")?;
        let body = r.rest().to_vec();
        Ok(SnapshotFrame { start, at, kind: Cow::Owned(kind), total, digest, body })
    }

    /// Build a report-record frame from a rendered v1 report line.
    pub fn report(line: &str, start: Nanos, at: Nanos, total: u64) -> SnapshotFrame {
        SnapshotFrame {
            start,
            at,
            kind: Cow::Borrowed(REPORT_KIND),
            total,
            digest: fnv1a(line.as_bytes()),
            body: line.as_bytes().to_vec(),
        }
    }

    /// The verbatim v1 report line of a [`REPORT_KIND`] frame, with
    /// its digest verified.
    pub fn report_line(&self) -> Result<&str, SnapshotError> {
        if self.kind != REPORT_KIND {
            return Err(SnapshotError::Kind(self.kind.clone().into_owned()));
        }
        if fnv1a(&self.body) != self.digest {
            return Err(digest_mismatch());
        }
        core::str::from_utf8(&self.body)
            .map_err(|_| SnapshotError::Invalid { field: "report", what: "body is not UTF-8" })
    }
}

/// Validate a frame header (magic, version, length cap) and return the
/// payload length that follows it.
pub fn payload_len(header: &[u8]) -> Result<usize, SnapshotError> {
    if header.len() < FRAME_HEADER_LEN {
        return Err(truncated(header.len()));
    }
    if header[..4] != FRAME_MAGIC {
        return Err(SnapshotError::Parse { offset: 0, what: "bad frame magic" });
    }
    let version = header[4];
    if version != FRAME_VERSION {
        return Err(SnapshotError::Version(version as u64));
    }
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(SnapshotError::Invalid {
            field: "frame_len",
            what: "length prefix exceeds MAX_FRAME_LEN",
        });
    }
    Ok(len)
}

fn truncated(offset: usize) -> SnapshotError {
    SnapshotError::Parse { offset, what: "truncated frame" }
}

pub(super) fn digest_mismatch() -> SnapshotError {
    SnapshotError::Invalid { field: "config_digest", what: "digest does not match the body" }
}

// ---------------------------------------------------------------------
// Integer packing
// ---------------------------------------------------------------------

/// Append a LEB128 varint.
#[inline]
pub fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encode a signed value (small magnitudes → small varints).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a-64 — the config-digest hash (stable, dependency-free).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Cursor over untrusted frame bytes: every read is bounds-checked and
/// fails as a typed [`SnapshotError`] carrying the byte offset.
pub(super) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(super) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Invalid { field, what: "truncated body" });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(super) fn uv(&mut self, field: &'static str) -> Result<u64, SnapshotError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or(SnapshotError::Invalid { field, what: "truncated varint" })?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(SnapshotError::Invalid { field, what: "varint overflows u64" });
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(SnapshotError::Invalid { field, what: "varint overflows u64" });
            }
        }
    }

    /// A claimed element count: rejected up front when the claim
    /// exceeds the bytes left (each element costs ≥ `min_bytes`), so a
    /// hostile count can never drive an allocation past the input
    /// size.
    pub(super) fn count(
        &mut self,
        field: &'static str,
        min_bytes: usize,
    ) -> Result<usize, SnapshotError> {
        let n = self.uv(field)?;
        let cap = (self.remaining() / min_bytes.max(1)) as u64;
        if n > cap {
            return Err(SnapshotError::Invalid { field, what: "count exceeds the body size" });
        }
        Ok(n as usize)
    }

    pub(super) fn f64_(&mut self, field: &'static str) -> Result<f64, SnapshotError> {
        let b = self.take(8, field)?;
        Ok(f64::from_le_bytes(b.try_into().expect("take(8) returns 8 bytes")))
    }

    pub(super) fn u64_le(&mut self, field: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("take(8) returns 8 bytes")))
    }

    pub(super) fn str_(&mut self, field: &'static str) -> Result<String, SnapshotError> {
        let n = self.count(field, 1)?;
        let bytes = self.take(n, field)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Invalid { field, what: "string is not UTF-8" })
    }
}

/// Append a length-prefixed UTF-8 string.
pub(super) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uv(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Delta-encode one filter level's cells against a baseline: the most
/// common `(value bits, last_ns)` pair is stored once, then only the
/// cells that differ, as `(index gap, f64 bits, zigzag Δns)` triples.
pub(super) fn encode_cells(out: &mut Vec<u8>, cells: &[(f64, u64)]) -> Result<(), SnapshotError> {
    put_uv(out, cells.len() as u64);
    // First-encountered most-common pair: deterministic regardless of
    // hash-map iteration order.
    let mut counts: HashMap<(u64, u64), u32> = HashMap::with_capacity(cells.len().min(1024));
    for &(v, ns) in cells {
        *counts.entry((v.to_bits(), ns)).or_insert(0) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    let baseline = cells
        .iter()
        .copied()
        .find(|&(v, ns)| counts[&(v.to_bits(), ns)] == max)
        .unwrap_or((0.0, 0));
    out.extend_from_slice(&baseline.0.to_le_bytes());
    put_uv(out, baseline.1);

    let explicit: Vec<(usize, f64, u64)> = cells
        .iter()
        .enumerate()
        .filter(|&(_, &(v, ns))| v.to_bits() != baseline.0.to_bits() || ns != baseline.1)
        .map(|(i, &(v, ns))| (i, v, ns))
        .collect();
    put_uv(out, explicit.len() as u64);
    let mut prev = 0usize;
    for (rank, &(i, v, ns)) in explicit.iter().enumerate() {
        let gap = if rank == 0 { i } else { i - prev };
        prev = i;
        put_uv(out, gap as u64);
        out.extend_from_slice(&v.to_le_bytes());
        let delta = i64::try_from(ns as i128 - baseline.1 as i128).map_err(|_| {
            SnapshotError::Invalid { field: "filters", what: "timestamp delta overflows" }
        })?;
        put_uv(out, zigzag(delta));
    }
    Ok(())
}

/// Invert [`encode_cells`]: rebuild the full cell array. `expected` is
/// the cell count the frame's own configuration implies — the caller
/// has already bounded it, so a hostile claimed count can never drive
/// an allocation past the configured geometry.
pub(super) fn decode_cells(
    r: &mut ByteReader<'_>,
    expected: usize,
) -> Result<Vec<(f64, u64)>, SnapshotError> {
    let n_cells = r.uv("filters")? as usize;
    if n_cells != expected {
        return Err(SnapshotError::Invalid {
            field: "filters",
            what: "cell count does not match the geometry",
        });
    }
    let base_v = r.f64_("filters")?;
    let base_ns = r.uv("filters")?;
    let mut cells = vec![(base_v, base_ns); n_cells];
    let n_explicit = r.count("filters", 10)?;
    if n_explicit > n_cells {
        return Err(SnapshotError::Invalid {
            field: "filters",
            what: "more explicit cells than cells",
        });
    }
    let mut idx = 0usize;
    for rank in 0..n_explicit {
        let gap = r.uv("filters")? as usize;
        idx = if rank == 0 { gap } else { idx.saturating_add(gap) };
        if rank > 0 && gap == 0 {
            return Err(SnapshotError::Invalid {
                field: "filters",
                what: "explicit cell indexes must be strictly increasing",
            });
        }
        if idx >= n_cells {
            return Err(SnapshotError::Invalid {
                field: "filters",
                what: "explicit cell index out of range",
            });
        }
        let v = r.f64_("filters")?;
        let delta = unzigzag(r.uv("filters")?);
        let ns = u64::try_from(base_ns as i128 + delta as i128).map_err(|_| {
            SnapshotError::Invalid { field: "filters", what: "cell timestamp out of range" }
        })?;
        cells[idx] = (v, ns);
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_uv(&mut buf, v);
        }
        let mut r = ByteReader::new(&buf);
        for &v in &vals {
            assert_eq!(r.uv("x").unwrap(), v);
        }
        assert!(r.rest().is_empty());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn hostile_varint_rejected() {
        // 11 continuation bytes overflow u64.
        let buf = [0xFFu8; 11];
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.uv("x"), Err(SnapshotError::Invalid { .. })));
    }

    #[test]
    fn frame_roundtrips() {
        let f = SnapshotFrame {
            start: Nanos::from_secs(5),
            at: Nanos::from_secs(10),
            kind: Cow::Borrowed("exact"),
            total: 1234,
            digest: 99,
            body: vec![1, 2, 3],
        };
        let bytes = f.encode();
        let (back, used) = SnapshotFrame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn header_errors_are_typed() {
        let f = SnapshotFrame {
            start: Nanos::ZERO,
            at: Nanos::ZERO,
            kind: Cow::Borrowed("exact"),
            total: 0,
            digest: 0,
            body: Vec::new(),
        };
        let good = f.encode();

        let mut bad_magic = good.clone();
        bad_magic[..4].copy_from_slice(b"NOPE");
        assert_eq!(
            SnapshotFrame::decode(&bad_magic).unwrap_err(),
            SnapshotError::Parse { offset: 0, what: "bad frame magic" }
        );

        let mut skew = good.clone();
        skew[4] = 3;
        assert_eq!(SnapshotFrame::decode(&skew).unwrap_err(), SnapshotError::Version(3));

        assert!(matches!(
            SnapshotFrame::decode(&good[..good.len() - 1]).unwrap_err(),
            SnapshotError::Parse { what: "truncated frame", .. }
        ));

        let mut oversize = good.clone();
        oversize[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotFrame::decode(&oversize).unwrap_err(),
            SnapshotError::Invalid { field: "frame_len", .. }
        ));
    }

    #[test]
    fn cells_delta_encoding_shrinks_sparse_levels() {
        // 4096 cells, 3 touched: the encoded form is tiny.
        let mut cells = vec![(0.0f64, 0u64); 4096];
        cells[7] = (1.5, 1_000_000);
        cells[8] = (2.5, 2_000_000);
        cells[4000] = (0.25, 3_000_000);
        let mut out = Vec::new();
        encode_cells(&mut out, &cells).unwrap();
        assert!(out.len() < 100, "sparse level must shrink, got {} bytes", out.len());
        let mut r = ByteReader::new(&out);
        let back = decode_cells(&mut r, cells.len()).unwrap();
        assert_eq!(back, cells);
    }

    #[test]
    fn cells_baseline_is_the_most_common_pair() {
        // A mostly-saturated level whose dominant pair is NOT (0, 0).
        let mut cells = vec![(9.75f64, 5_000u64); 64];
        cells[0] = (0.0, 0);
        cells[63] = (1.0, 9_000);
        let mut out = Vec::new();
        encode_cells(&mut out, &cells).unwrap();
        // 2 explicit cells only.
        let mut r = ByteReader::new(&out);
        let back = decode_cells(&mut r, cells.len()).unwrap();
        assert_eq!(back, cells);
        assert!(out.len() < 64, "baseline must absorb the common pair, got {}", out.len());
    }

    #[test]
    fn report_frames_carry_the_line_verbatim() {
        let line = "{\"type\":\"report\",\"series\":0}";
        let f = SnapshotFrame::report(line, Nanos::ZERO, Nanos::from_secs(5), 42);
        let bytes = f.encode();
        let (back, _) = SnapshotFrame::decode(&bytes).unwrap();
        assert_eq!(back.report_line().unwrap(), line);
        let mut tampered = back.clone();
        tampered.body[2] ^= 1;
        assert!(matches!(
            tampered.report_line().unwrap_err(),
            SnapshotError::Invalid { field: "config_digest", .. }
        ));
    }
}
