//! The **one model** of each detector kind's wire state.
//!
//! A [`Body`] holds one kind's mergeable state as plain wire rows —
//! keys as their wire strings, counts and timestamps as integers,
//! decayed counters as they are (a live detector's cell arrays are
//! borrowed, not copied) — in the order both wire formats carry them.
//! It has exactly one renderer and one parser per format:
//!
//! | format | render | parse |
//! |--------|--------|-------|
//! | v1 (JSON lines) | [`Body::into_snapshot`] | [`Body::from_snapshot`] |
//! | v2 (binary frames) | [`Body::to_frame`] | [`Body::from_frame`] |
//!
//! Each snapshot-capable detector builds its body (a crate-private
//! `body()`), so `MergeableDetector::snapshot` and
//! `MergeableDetector::to_frame` are the same rows rendered two ways
//! and the formats cannot drift apart. Going back,
//! [`RestoredDetector::from_body`] is the one body → detector match:
//! `RestoredDetector::from_snapshot` and `RestoredDetector::from_frame`
//! both reach it, and the detectors' validated decode cores
//! (`from_wire_rows`, `from_wire_levels`, `from_wire`) do the checking.
//! Transcoding (`DetectorSnapshot::{to_frame, from_frame}`) parses one
//! format into a body and renders the other, with no hierarchy needed.
//!
//! Keys parse into hierarchy items and prefixes only in
//! [`RestoredDetector::from_body`].

use super::binary::{
    decode_cells, digest_mismatch, encode_cells, fnv1a, put_str, put_uv, ByteReader, SnapshotFrame,
    Stamps, WireCells,
};
use super::json::Json;
use super::{
    req, req_arr, req_f64, req_u64, DetectorSnapshot, RestoredDetector, SnapshotError,
    MAX_WIRE_CAPACITY,
};
use crate::Kind;
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use std::borrow::Cow;

/// A kind's wire state, one variant per snapshot-capable detector.
/// `'a` is the live detector a body borrows from (only the TDBF cell
/// arrays are borrowed); bodies parsed off the wire are `'static`.
pub(crate) enum Body<'a> {
    Exact(ExactBody),
    Ss(SsBody),
    Rhhh(RhhhBody),
    MvPipe(MvPipeBody),
    Tdbf(TdbfBody<'a>),
}

impl Body<'_> {
    /// The kind whose state this is.
    fn kind(&self) -> Kind {
        match self {
            Body::Exact(_) => Kind::Exact,
            Body::Ss(_) => Kind::SsHhh,
            Body::Rhhh(_) => Kind::Rhhh,
            Body::MvPipe(_) => Kind::MvPipe,
            Body::Tdbf(_) => Kind::Tdbf,
        }
    }

    /// The FNV-1a-64 config digest a v2 frame header carries: the kind
    /// label, then (after a NUL) the body's configuration fields.
    /// `exact` has no configuration and digests its bare label.
    fn digest(&self) -> u64 {
        let mut cfg = self.kind().label().as_bytes().to_vec();
        match self {
            Body::Exact(_) => {}
            Body::Ss(SsBody { capacity, .. })
            | Body::Rhhh(RhhhBody { ss: SsBody { capacity, .. }, .. }) => {
                cfg.push(0);
                put_uv(&mut cfg, *capacity);
            }
            Body::MvPipe(b) => {
                cfg.push(0);
                put_uv(&mut cfg, b.buckets);
            }
            Body::Tdbf(b) => {
                cfg.push(0);
                for v in [b.cells_per_level, b.hashes, b.half_life_ns, b.candidates_per_level] {
                    put_uv(&mut cfg, v);
                }
                cfg.extend_from_slice(&b.admit_fraction.to_le_bytes());
                cfg.extend_from_slice(&b.seed.to_le_bytes());
            }
        }
        fnv1a(&cfg)
    }

    /// v1: render as a JSON-bodied snapshot covering `total`.
    pub(crate) fn into_snapshot(self, total: u64) -> DetectorSnapshot {
        let kind = Cow::Borrowed(self.kind().label());
        let state_json = match self {
            Body::Exact(b) => b.into_json().render(),
            Body::Ss(b) => Json::Obj(b.into_fields()).render(),
            Body::Rhhh(b) => b.into_json().render(),
            Body::MvPipe(b) => b.into_json().render(),
            // By reference, unlike the keyed kinds: decoded cell arrays
            // (megabytes at the deployed geometry) are freed only after
            // the render. Freed mid-render, glibc's allocator hands
            // their pages back and faults new ones in: about 20 %
            // slower for 5 × 4096 × 4 cells on a 2-core x86-64 VM.
            Body::Tdbf(b) => b.to_json().render(),
        };
        DetectorSnapshot { kind, total, state_json }
    }

    /// v2: encode as a frame covering `total` over the report window
    /// `start..=at`.
    pub(crate) fn to_frame(
        &self,
        total: u64,
        start: Nanos,
        at: Nanos,
    ) -> Result<SnapshotFrame, SnapshotError> {
        let mut body = Vec::with_capacity(256);
        match self {
            Body::Exact(b) => b.encode(&mut body),
            Body::Ss(b) => b.encode(&mut body),
            Body::Rhhh(b) => b.encode(&mut body),
            Body::MvPipe(b) => b.encode(&mut body),
            Body::Tdbf(b) => b.encode(&mut body)?,
        }
        let kind = Cow::Borrowed(self.kind().label());
        Ok(SnapshotFrame { start, at, kind, total, digest: self.digest(), body })
    }

    /// v1: parse a snapshot's JSON state body per its `kind`. Unknown
    /// kinds are [`SnapshotError::Kind`].
    pub(crate) fn from_snapshot(snap: &DetectorSnapshot) -> Result<Body<'static>, SnapshotError> {
        let parse: fn(&Json) -> Result<Body<'static>, SnapshotError> = match kind_of(&snap.kind)? {
            Kind::Exact => |s| ExactBody::from_json(s).map(Body::Exact),
            Kind::SsHhh => |s| SsBody::from_json(s).map(Body::Ss),
            Kind::Rhhh => |s| RhhhBody::from_json(s).map(Body::Rhhh),
            Kind::MvPipe => |s| MvPipeBody::from_json(s).map(Body::MvPipe),
            Kind::Tdbf => |s| TdbfBody::from_json(s).map(Body::Tdbf),
        };
        parse(&snap.state()?)
    }

    /// v2: decode a frame's binary body per its `kind`, rejecting
    /// trailing bytes and a config digest that does not match the body.
    pub(crate) fn from_frame(frame: &SnapshotFrame) -> Result<Body<'static>, SnapshotError> {
        let mut r = ByteReader::new(&frame.body);
        let body = match kind_of(&frame.kind)? {
            Kind::Exact => Body::Exact(ExactBody::decode(&mut r)?),
            Kind::SsHhh => Body::Ss(SsBody::decode(&mut r)?),
            Kind::Rhhh => Body::Rhhh(RhhhBody::decode(&mut r)?),
            Kind::MvPipe => Body::MvPipe(MvPipeBody::decode(&mut r)?),
            Kind::Tdbf => Body::Tdbf(TdbfBody::decode(&mut r)?),
        };
        if !r.rest().is_empty() {
            return Err(SnapshotError::Invalid {
                field: "body",
                what: "trailing bytes after the state body",
            });
        }
        if body.digest() != frame.digest {
            return Err(digest_mismatch());
        }
        Ok(body)
    }
}

/// The kind a wire `kind` string names; an unknown one is
/// [`SnapshotError::Kind`].
fn kind_of(label: &str) -> Result<Kind, SnapshotError> {
    Kind::parse(label).ok_or_else(|| SnapshotError::Kind(label.to_owned()))
}

pub(crate) struct ExactBody {
    /// `(item, count)` rows, in wire order.
    pub rows: Vec<(String, u64)>,
}

impl ExactBody {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uv(out, self.rows.len() as u64);
        for (key, count) in &self.rows {
            put_str(out, key);
            put_uv(out, *count);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count("counts", 2)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.str_("counts")?;
            let count = r.uv("counts")?;
            rows.push((key, count));
        }
        Ok(ExactBody { rows })
    }

    fn from_json(state: &Json) -> Result<Self, SnapshotError> {
        let rows = req_arr(state, "counts")?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let row = row
                .as_arr()
                .filter(|r| r.len() == 2)
                .ok_or(SnapshotError::Invalid { field: "counts", what: "row is not a pair" })?;
            let key = row[0]
                .as_str()
                .ok_or(SnapshotError::Invalid { field: "counts", what: "key is not a string" })?;
            let count = row[1].as_u64().ok_or(SnapshotError::Invalid {
                field: "counts",
                what: "count is not an unsigned integer",
            })?;
            out.push((key.to_owned(), count));
        }
        Ok(ExactBody { rows: out })
    }

    fn into_json(self) -> Json {
        Json::Obj(vec![(
            "counts".into(),
            Json::Arr(
                self.rows
                    .into_iter()
                    .map(|(k, c)| Json::Arr(vec![Json::Str(k), Json::u64(c)]))
                    .collect(),
            ),
        )])
    }
}

pub(crate) struct SsLevelBody {
    pub total: u64,
    /// `(prefix, count, error)` rows, in wire order.
    pub entries: Vec<(String, u64, u64)>,
}

pub(crate) struct SsBody {
    pub capacity: u64,
    pub levels: Vec<SsLevelBody>,
}

impl SsBody {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uv(out, self.capacity);
        put_uv(out, self.levels.len() as u64);
        for level in &self.levels {
            put_uv(out, level.total);
            put_uv(out, level.entries.len() as u64);
            for (prefix, count, error) in &level.entries {
                put_str(out, prefix);
                put_uv(out, *count);
                put_uv(out, *error);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let capacity = r.uv("capacity")?;
        let n_levels = r.count("levels", 2)?;
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let total = r.uv("levels")?;
            let n = r.count("entries", 3)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let prefix = r.str_("entries")?;
                let count = r.uv("entries")?;
                let error = r.uv("entries")?;
                entries.push((prefix, count, error));
            }
            levels.push(SsLevelBody { total, entries });
        }
        Ok(SsBody { capacity, levels })
    }

    fn from_json(state: &Json) -> Result<Self, SnapshotError> {
        let capacity = req_u64(state, "capacity")?;
        let level_objs = req_arr(state, "levels")?;
        let mut levels = Vec::with_capacity(level_objs.len());
        for lv in level_objs {
            let total = req_u64(lv, "total")?;
            let rows = req_arr(lv, "entries")?;
            let mut entries = Vec::with_capacity(rows.len());
            for row in rows {
                let row = row.as_arr().filter(|r| r.len() == 3).ok_or(SnapshotError::Invalid {
                    field: "entries",
                    what: "row is not a triple",
                })?;
                let prefix = row[0].as_str().ok_or(SnapshotError::Invalid {
                    field: "entries",
                    what: "prefix is not a string",
                })?;
                let count = row[1].as_u64().ok_or(SnapshotError::Invalid {
                    field: "entries",
                    what: "count is not an unsigned integer",
                })?;
                let error = row[2].as_u64().ok_or(SnapshotError::Invalid {
                    field: "entries",
                    what: "error is not an unsigned integer",
                })?;
                entries.push((prefix.to_owned(), count, error));
            }
            levels.push(SsLevelBody { total, entries });
        }
        Ok(SsBody { capacity, levels })
    }

    /// The object fields (shared with the `rhhh` body, which appends
    /// its update counts).
    fn into_fields(self) -> Vec<(String, Json)> {
        vec![
            ("capacity".into(), Json::u64(self.capacity)),
            (
                "levels".into(),
                Json::Arr(
                    self.levels
                        .into_iter()
                        .map(|lv| {
                            Json::Obj(vec![
                                ("total".into(), Json::u64(lv.total)),
                                (
                                    "entries".into(),
                                    Json::Arr(
                                        lv.entries
                                            .into_iter()
                                            .map(|(p, c, e)| {
                                                Json::Arr(vec![
                                                    Json::Str(p),
                                                    Json::u64(c),
                                                    Json::u64(e),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]
    }
}

pub(crate) struct RhhhBody {
    pub ss: SsBody,
    pub updates: Vec<u64>,
}

impl RhhhBody {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ss.encode(out);
        put_uv(out, self.updates.len() as u64);
        for u in &self.updates {
            put_uv(out, *u);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let ss = SsBody::decode(r)?;
        let n = r.count("updates", 1)?;
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            updates.push(r.uv("updates")?);
        }
        Ok(RhhhBody { ss, updates })
    }

    fn from_json(state: &Json) -> Result<Self, SnapshotError> {
        let ss = SsBody::from_json(state)?;
        let updates_json = req_arr(state, "updates")?;
        let updates = updates_json
            .iter()
            .map(|u| {
                u.as_u64().ok_or(SnapshotError::Invalid {
                    field: "updates",
                    what: "not an unsigned integer",
                })
            })
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(RhhhBody { ss, updates })
    }

    fn into_json(self) -> Json {
        let mut fields = self.ss.into_fields();
        fields
            .push(("updates".into(), Json::Arr(self.updates.into_iter().map(Json::u64).collect())));
        Json::Obj(fields)
    }
}

pub(crate) struct MvPipeBody {
    pub buckets: u64,
    /// `(prefix, count, vote)` rows, in wire order.
    pub rows: Vec<(String, u64, u64)>,
}

impl MvPipeBody {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uv(out, self.buckets);
        put_uv(out, self.rows.len() as u64);
        for (prefix, count, vote) in &self.rows {
            put_str(out, prefix);
            put_uv(out, *count);
            put_uv(out, *vote);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let buckets = r.uv("buckets")?;
        let n = r.count("entries", 3)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let prefix = r.str_("entries")?;
            let count = r.uv("entries")?;
            let vote = r.uv("entries")?;
            rows.push((prefix, count, vote));
        }
        Ok(MvPipeBody { buckets, rows })
    }

    fn from_json(state: &Json) -> Result<Self, SnapshotError> {
        let buckets = req_u64(state, "buckets")?;
        let rows_json = req_arr(state, "entries")?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for row in rows_json {
            let row = row
                .as_arr()
                .filter(|r| r.len() == 3)
                .ok_or(SnapshotError::Invalid { field: "entries", what: "row is not a triple" })?;
            let prefix = row[0].as_str().ok_or(SnapshotError::Invalid {
                field: "entries",
                what: "prefix is not a string",
            })?;
            let count = row[1].as_u64().ok_or(SnapshotError::Invalid {
                field: "entries",
                what: "count is not an unsigned integer",
            })?;
            let vote = row[2].as_u64().ok_or(SnapshotError::Invalid {
                field: "entries",
                what: "vote is not an unsigned integer",
            })?;
            rows.push((prefix.to_owned(), count, vote));
        }
        Ok(MvPipeBody { buckets, rows })
    }

    fn into_json(self) -> Json {
        Json::Obj(vec![
            ("buckets".into(), Json::u64(self.buckets)),
            (
                "entries".into(),
                Json::Arr(
                    self.rows
                        .into_iter()
                        .map(|(p, c, v)| Json::Arr(vec![Json::Str(p), Json::u64(c), Json::u64(v)]))
                        .collect(),
                ),
            ),
        ])
    }
}

pub(crate) struct TdbfBody<'a> {
    pub cells_per_level: u64,
    pub hashes: u64,
    pub half_life_ns: u64,
    pub candidates_per_level: u64,
    pub admit_fraction: f64,
    pub seed: u64,
    pub observed: u64,
    /// The decayed total as a `(value, ns)` pair.
    pub total: (f64, u64),
    /// Per level, the full cell array: a live detector's values are
    /// borrowed (they are megabytes at the deployed geometry), parsed
    /// ones owned.
    pub filters: Vec<WireCells<'a>>,
    /// Per level, `(prefix, last-touch ns)` candidate rows.
    pub candidates: Vec<Vec<(String, u64)>>,
}

impl TdbfBody<'_> {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        put_uv(out, self.cells_per_level);
        put_uv(out, self.hashes);
        put_uv(out, self.half_life_ns);
        put_uv(out, self.candidates_per_level);
        out.extend_from_slice(&self.admit_fraction.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        put_uv(out, self.observed);
        out.extend_from_slice(&self.total.0.to_le_bytes());
        put_uv(out, self.total.1);

        put_uv(out, self.filters.len() as u64);
        for cells in &self.filters {
            encode_cells(out, cells)?;
        }
        put_uv(out, self.candidates.len() as u64);
        for table in &self.candidates {
            put_uv(out, table.len() as u64);
            for (prefix, ts) in table {
                put_str(out, prefix);
                put_uv(out, *ts);
            }
        }
        Ok(())
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let cells_per_level = r.uv("cells_per_level")?;
        let hashes = r.uv("hashes")?;
        let half_life_ns = r.uv("half_life_ns")?;
        let candidates_per_level = r.uv("candidates_per_level")?;
        let admit_fraction = r.f64_("admit_fraction")?;
        let seed = r.u64_le("seed")?;
        let observed = r.uv("observed")?;
        let total = (r.f64_("total")?, r.uv("total")?);

        // The per-level cell arrays are the one place a tiny frame can
        // legitimately expand into a large allocation (delta-encoded
        // cells reconstruct a full array), so the expansion is bounded
        // *here*, before any level allocates: the claimed geometry must
        // fit MAX_WIRE_CAPACITY — per level and summed across levels —
        // and every level must claim exactly the configured cell count.
        let expected_cells = cells_per_level.saturating_mul(hashes);
        if expected_cells > MAX_WIRE_CAPACITY as u64 {
            return Err(SnapshotError::Invalid {
                field: "cells_per_level",
                what: "geometry exceeds MAX_WIRE_CAPACITY",
            });
        }
        let n_levels = r.count("filters", 3)?;
        if (n_levels as u64).saturating_mul(expected_cells) > MAX_WIRE_CAPACITY as u64 {
            return Err(SnapshotError::Invalid {
                field: "filters",
                what: "total cell count exceeds MAX_WIRE_CAPACITY",
            });
        }
        let mut filters = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            filters.push(decode_cells(r, expected_cells as usize)?);
        }
        let n_cand = r.count("candidates", 1)?;
        let mut candidates = Vec::with_capacity(n_cand);
        for _ in 0..n_cand {
            let n = r.count("candidates", 2)?;
            let mut table = Vec::with_capacity(n);
            for _ in 0..n {
                let prefix = r.str_("candidates")?;
                let ts = r.uv("candidates")?;
                table.push((prefix, ts));
            }
            candidates.push(table);
        }
        Ok(TdbfBody {
            cells_per_level,
            hashes,
            half_life_ns,
            candidates_per_level,
            admit_fraction,
            seed,
            observed,
            total,
            filters,
            candidates,
        })
    }

    fn from_json(state: &Json) -> Result<Self, SnapshotError> {
        let cell_pair = |v: &Json, field: &'static str| -> Result<(f64, u64), SnapshotError> {
            let pair = v
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or(SnapshotError::Invalid { field, what: "cell is not a pair" })?;
            let value = pair[0]
                .as_f64()
                .ok_or(SnapshotError::Invalid { field, what: "cell value is not a number" })?;
            let last = pair[1].as_u64().ok_or(SnapshotError::Invalid {
                field,
                what: "cell timestamp is not an integer",
            })?;
            Ok((value, last))
        };
        let filters_json = req_arr(state, "filters")?;
        let mut filters = Vec::with_capacity(filters_json.len());
        for level in filters_json {
            let cells_json = level.as_arr().ok_or(SnapshotError::Invalid {
                field: "filters",
                what: "level is not an array",
            })?;
            let n = cells_json.len();
            let mut values = Vec::with_capacity(n);
            let mut stamps = Stamps::All(0);
            for (i, cell) in cells_json.iter().enumerate() {
                let (v, ns) = cell_pair(cell, "filters")?;
                if i == 0 {
                    stamps = Stamps::All(ns);
                }
                values.push(v);
                stamps.set(i, n, ns);
            }
            filters.push(WireCells { values: Cow::Owned(values), stamps });
        }
        let candidates_json = req_arr(state, "candidates")?;
        let mut candidates = Vec::with_capacity(candidates_json.len());
        for level in candidates_json {
            let rows = level.as_arr().ok_or(SnapshotError::Invalid {
                field: "candidates",
                what: "level is not an array",
            })?;
            let mut table = Vec::with_capacity(rows.len());
            for row in rows {
                let row = row.as_arr().filter(|r| r.len() == 2).ok_or(SnapshotError::Invalid {
                    field: "candidates",
                    what: "row is not a pair",
                })?;
                let prefix = row[0].as_str().ok_or(SnapshotError::Invalid {
                    field: "candidates",
                    what: "prefix is not a string",
                })?;
                let ts = row[1].as_u64().ok_or(SnapshotError::Invalid {
                    field: "candidates",
                    what: "timestamp is not an integer",
                })?;
                table.push((prefix.to_owned(), ts));
            }
            candidates.push(table);
        }
        Ok(TdbfBody {
            cells_per_level: req_u64(state, "cells_per_level")?,
            hashes: req_u64(state, "hashes")?,
            half_life_ns: req_u64(state, "half_life_ns")?,
            candidates_per_level: req_u64(state, "candidates_per_level")?,
            admit_fraction: req_f64(state, "admit_fraction")?,
            seed: req_u64(state, "seed")?,
            observed: req_u64(state, "observed")?,
            total: cell_pair(req(state, "total")?, "total")?,
            filters,
            candidates,
        })
    }

    fn to_json(&self) -> Json {
        let cell = |(v, ns): (f64, u64)| Json::Arr(vec![Json::f64(v), Json::u64(ns)]);
        Json::Obj(vec![
            ("cells_per_level".into(), Json::u64(self.cells_per_level)),
            ("hashes".into(), Json::u64(self.hashes)),
            ("half_life_ns".into(), Json::u64(self.half_life_ns)),
            ("candidates_per_level".into(), Json::u64(self.candidates_per_level)),
            ("admit_fraction".into(), Json::f64(self.admit_fraction)),
            ("seed".into(), Json::u64(self.seed)),
            ("observed".into(), Json::u64(self.observed)),
            ("total".into(), cell(self.total)),
            (
                "filters".into(),
                Json::Arr(
                    self.filters
                        .iter()
                        .map(|cells| Json::Arr(cells.pairs().map(cell).collect()))
                        .collect(),
                ),
            ),
            (
                "candidates".into(),
                Json::Arr(
                    self.candidates
                        .iter()
                        .map(|table| {
                            Json::Arr(
                                table
                                    .iter()
                                    .map(|(p, ts)| Json::Arr(vec![Json::str(p), Json::u64(*ts)]))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Body <-> live detector
// ---------------------------------------------------------------------

impl<H> RestoredDetector<H>
where
    H: Hierarchy,
    H::Item: core::str::FromStr,
    H::Prefix: core::str::FromStr,
{
    /// Rebuild a live detector from a decoded body covering `total`:
    /// parse the wire keys, then hand the rows to the kind's validated
    /// decode core.
    pub(crate) fn from_body(h: &H, body: Body<'_>, total: u64) -> Result<Self, SnapshotError> {
        let parse_item = |s: &str| {
            s.parse::<H::Item>().map_err(|_| SnapshotError::Invalid {
                field: "counts",
                what: "row key does not parse",
            })
        };
        let parse_prefix = |s: &str, field: &'static str| {
            s.parse::<H::Prefix>()
                .map_err(|_| SnapshotError::Invalid { field, what: "row key does not parse" })
        };
        let parse_levels = |levels: Vec<SsLevelBody>| {
            levels
                .into_iter()
                .map(|lv| {
                    let entries = lv
                        .entries
                        .iter()
                        .map(|(p, c, e)| Ok((parse_prefix(p, "entries")?, *c, *e)))
                        .collect::<Result<Vec<_>, SnapshotError>>()?;
                    Ok((lv.total, entries))
                })
                .collect::<Result<Vec<_>, SnapshotError>>()
        };
        match body {
            Body::Exact(b) => {
                let rows = b.rows.iter().map(|(k, c)| Ok((parse_item(k)?, *c))).collect::<Result<
                    Vec<_>,
                    SnapshotError,
                >>(
                )?;
                crate::ExactHhh::from_wire_rows(h.clone(), rows, total).map(RestoredDetector::Exact)
            }
            Body::Ss(b) => crate::SpaceSavingHhh::from_wire_levels(
                h.clone(),
                b.capacity,
                parse_levels(b.levels)?,
                total,
            )
            .map(RestoredDetector::SpaceSaving),
            Body::Rhhh(b) => crate::Rhhh::from_wire_levels(
                h.clone(),
                b.ss.capacity,
                parse_levels(b.ss.levels)?,
                b.updates,
                total,
            )
            .map(RestoredDetector::Rhhh),
            Body::MvPipe(b) => {
                let rows = b
                    .rows
                    .iter()
                    .map(|(p, c, v)| Ok((parse_prefix(p, "entries")?, *c, *v)))
                    .collect::<Result<Vec<_>, SnapshotError>>()?;
                crate::MvPipeHhh::from_wire_rows(h.clone(), b.buckets, rows, total)
                    .map(RestoredDetector::MvPipe)
            }
            Body::Tdbf(b) => {
                let cfg = crate::TdbfHhhConfig {
                    cells_per_level: b.cells_per_level as usize,
                    hashes: b.hashes as usize,
                    half_life: hhh_nettypes::TimeSpan::from_nanos(b.half_life_ns),
                    candidates_per_level: b.candidates_per_level as usize,
                    admit_fraction: b.admit_fraction,
                    seed: b.seed,
                };
                let candidates = b
                    .candidates
                    .iter()
                    .map(|table| {
                        table
                            .iter()
                            .map(|(p, ts)| {
                                Ok((parse_prefix(p, "candidates")?, Nanos::from_nanos(*ts)))
                            })
                            .collect::<Result<Vec<_>, SnapshotError>>()
                    })
                    .collect::<Result<Vec<_>, SnapshotError>>()?;
                crate::TdbfHhh::from_wire(
                    h.clone(),
                    cfg,
                    b.observed,
                    b.total,
                    b.filters,
                    candidates,
                    total,
                )
                .map(RestoredDetector::Tdbf)
            }
        }
    }
}

impl<H: Hierarchy> RestoredDetector<H> {
    /// The restored detector's wire body.
    pub(crate) fn body(&self) -> Body<'_> {
        match self {
            RestoredDetector::Exact(d) => d.body(),
            RestoredDetector::SpaceSaving(d) => d.body(),
            RestoredDetector::Rhhh(d) => d.body(),
            RestoredDetector::MvPipe(d) => d.body(),
            RestoredDetector::Tdbf(d) => d.body(),
        }
    }
}
