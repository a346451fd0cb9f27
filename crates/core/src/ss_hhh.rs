//! Space-Saving-based streaming HHH ("full ancestry"): one
//! [`SpaceSaving`] summary per hierarchy level, every packet updates
//! every level.
//!
//! This is the classic deterministic streaming HHH construction
//! (Mitzenmacher, Steinke, Thaler 2012 variant of Cormode et al.): per
//! level, any prefix with true traffic above `N/capacity` is guaranteed
//! monitored, so with `capacity ≥ levels/θ` no true HHH can be missed.
//! Its weakness — and RHHH's motivation — is the O(levels) work per
//! packet.

use crate::detector::{HhhDetector, MergeableDetector};
use crate::kind::Kind;
use crate::report::{closed_report, HhhReport, Threshold};
use crate::snapshot::{
    Body, DetectorSnapshot, SnapshotError, SnapshotFrame, SsBody, SsLevelBody, MAX_WIRE_CAPACITY,
};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use hhh_sketches::SpaceSaving;

/// Per-level Space-Saving HHH detector.
#[derive(Clone, Debug)]
pub struct SpaceSavingHhh<H: Hierarchy> {
    hierarchy: H,
    /// One summary per level; `levels[0]` monitors exact items.
    levels: Vec<SpaceSaving<H::Prefix>>,
    total: u64,
    /// Reusable per-batch staging buffer for generalized prefixes —
    /// grown once, never reallocated on the steady-state hot path.
    scratch: Vec<(H::Prefix, u64)>,
}

impl<H: Hierarchy> SpaceSavingHhh<H> {
    /// A detector with `counters_per_level` Space-Saving counters at
    /// each level. For a threshold θ, `counters_per_level ≥ 2/θ` keeps
    /// both error sides comfortable.
    pub fn new(hierarchy: H, counters_per_level: usize) -> Self {
        let levels =
            (0..hierarchy.levels()).map(|_| SpaceSaving::new(counters_per_level)).collect();
        SpaceSavingHhh { hierarchy, levels, total: 0, scratch: Vec::new() }
    }

    /// The per-level summaries (read-only, for diagnostics).
    pub fn level_summaries(&self) -> &[SpaceSaving<H::Prefix>] {
        &self.levels
    }

    /// Space-Saving counters per level (the construction parameter).
    pub fn capacity(&self) -> usize {
        self.levels[0].capacity()
    }
}

impl<H: Hierarchy> HhhDetector<H> for SpaceSavingHhh<H> {
    /// The single-packet path is the batched path on a one-element
    /// batch — one level-major code path to maintain, identical state
    /// either way (per level, updates arrive in the same order).
    #[inline]
    fn observe(&mut self, item: H::Item, weight: u64) {
        self.observe_batch(&[(item, weight)]);
    }

    /// Level-major batching: the per-packet loop touches all `levels`
    /// summaries per packet (cache-hostile once summaries outgrow L1);
    /// per batch we instead sweep one level's summary over the whole
    /// batch before moving to the next. Each level first stages its
    /// generalized prefixes in the reusable scratch buffer — that loop
    /// is a pure mask-and-copy with a loop-invariant mask (see
    /// `Ipv4Hierarchy::generalize`), so it vectorizes — and then sweeps
    /// the summary over the staged prefixes.
    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        for &(_, weight) in batch {
            self.total += weight;
        }
        let SpaceSavingHhh { hierarchy, levels, scratch, .. } = self;
        for (level, summary) in levels.iter_mut().enumerate() {
            scratch.clear();
            scratch.extend(batch.iter().map(|&(item, w)| (hierarchy.generalize(item, level), w)));
            for &(p, w) in scratch.iter() {
                summary.update(p, w);
            }
        }
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        let rows = self.levels.iter().map(|ss| ss.entries().map(|e| (e.key, e.count)).collect());
        let mut reports =
            closed_report(&self.hierarchy, rows.collect(), threshold.absolute(self.total));
        // Lower bounds: subtract the per-level Space-Saving error.
        for r in &mut reports {
            if let Some(e) = self.levels[r.level].estimate(&r.prefix) {
                r.lower_bound = r.discounted.saturating_sub(e.error);
            } else {
                r.lower_bound = 0;
            }
        }
        reports
    }

    fn reset(&mut self) {
        for ss in &mut self.levels {
            ss.clear();
        }
        self.total = 0;
    }

    fn state_bytes(&self) -> usize {
        self.levels.iter().map(|ss| ss.state_bytes()).sum()
    }

    fn name(&self) -> &'static str {
        Kind::SsHhh.label()
    }
}

impl<H: Hierarchy> MergeableDetector for SpaceSavingHhh<H> {
    /// Per-level [`SpaceSaving::merge`]: each level's summary merges
    /// under the mergeable-summaries recipe, so per-level estimates
    /// stay upper bounds with additively-combined error — recall of
    /// true HHHs of the combined stream is preserved.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.levels.len(), other.levels.len(), "hierarchy depth mismatch");
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b);
        }
        self.total += other.total;
    }

    /// Wire format:
    /// `{"capacity":C,"levels":[{"total":N,"entries":[[prefix, count,
    /// error], …]}, …]}`, one object per hierarchy level (level 0
    /// first), rows sorted by the prefix's display form. The body is
    /// self-contained — capacity and per-level totals ride along — so
    /// an aggregator can rebuild the summaries and fold them with the
    /// mergeable-summaries union-then-prune per level, the same recipe
    /// as [`merge`](Self::merge).
    fn snapshot(&self) -> Option<DetectorSnapshot> {
        Some(self.body().into_snapshot(self.total))
    }

    /// The same body as [`snapshot`](MergeableDetector::snapshot),
    /// encoded as a v2 frame with no JSON on the path.
    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        self.body().to_frame(self.total, start, at).ok()
    }
}

impl<H: Hierarchy> SpaceSavingHhh<H> {
    /// The wire body: capacity plus the per-level rows.
    pub(crate) fn body(&self) -> Body<'_> {
        Body::Ss(levels_body(&self.levels))
    }

    /// The validated decode core both wire formats share.
    pub(crate) fn from_wire_levels(
        hierarchy: H,
        capacity: u64,
        rows: WireLevelRows<H::Prefix>,
        envelope_total: u64,
    ) -> Result<Self, SnapshotError> {
        let capacity = wire_capacity(capacity)?;
        let levels = levels_from_rows(&hierarchy, rows, capacity)?;
        Ok(SpaceSavingHhh { hierarchy, levels, total: envelope_total, scratch: Vec::new() })
    }
}

/// Per-level summaries as wire rows (shared with the RHHH body): the
/// capacity, then each level's total and `(prefix, count, error)`
/// entries in [`SpaceSaving::export_entries`] order (sorted by the
/// prefix's display form).
pub(crate) fn levels_body<P: std::fmt::Display + Copy + Eq + std::hash::Hash>(
    levels: &[SpaceSaving<P>],
) -> SsBody {
    SsBody {
        capacity: levels[0].capacity() as u64,
        levels: levels
            .iter()
            .map(|ss| SsLevelBody {
                total: ss.total(),
                entries: ss
                    .export_entries(|p| p.to_string())
                    .into_iter()
                    .map(|(key, e)| (key, e.count, e.error))
                    .collect(),
            })
            .collect(),
    }
}

/// Wire-decoded per-level summary rows: one `(level total, [(prefix,
/// count, error)])` entry per hierarchy level.
pub(crate) type WireLevelRows<P> = Vec<(u64, Vec<(P, u64, u64)>)>;

/// The validated decode core both wire formats share: rebuild
/// per-level summaries from already-parsed `(total, [(prefix, count,
/// error)])` rows, rejecting level-count mismatches, over-capacity
/// levels, prefixes at another level than their row's, `error >
/// count`, and duplicate prefixes.
pub(crate) fn levels_from_rows<H: Hierarchy>(
    hierarchy: &H,
    rows: WireLevelRows<H::Prefix>,
    capacity: usize,
) -> Result<Vec<SpaceSaving<H::Prefix>>, SnapshotError> {
    use hhh_sketches::SsEntry;
    let expected_levels = hierarchy.levels();
    if rows.len() != expected_levels {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot has {} levels, hierarchy has {expected_levels}",
            rows.len()
        )));
    }
    let mut levels = Vec::with_capacity(rows.len());
    for (level, (total, row)) in rows.into_iter().enumerate() {
        if row.len() > capacity {
            return Err(SnapshotError::Invalid {
                field: "entries",
                what: "more entries than capacity",
            });
        }
        let mut entries = Vec::with_capacity(row.len());
        let mut seen = std::collections::HashSet::with_capacity(row.len());
        for (key, count, error) in row {
            if hierarchy.level_of(key) != Some(level) {
                return Err(SnapshotError::Invalid {
                    field: "entries",
                    what: "prefix is not at its row's level",
                });
            }
            if error > count {
                return Err(SnapshotError::Invalid {
                    field: "entries",
                    what: "error exceeds count",
                });
            }
            if !seen.insert(key) {
                return Err(SnapshotError::Invalid { field: "entries", what: "duplicate prefix" });
            }
            entries.push(SsEntry { key, count, error });
        }
        levels.push(SpaceSaving::from_parts(capacity, total, entries));
    }
    Ok(levels)
}

/// Validate a wire-supplied Space-Saving capacity (shared by the
/// `ss-hhh` and `rhhh` decoders of both formats).
pub(crate) fn wire_capacity(capacity: u64) -> Result<usize, SnapshotError> {
    if capacity == 0 || capacity > MAX_WIRE_CAPACITY as u64 {
        return Err(SnapshotError::Invalid {
            field: "capacity",
            what: "must be non-zero and within MAX_WIRE_CAPACITY",
        });
    }
    Ok(capacity as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactHhh;
    use hhh_hierarchy::Ipv4Hierarchy;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Zipf-ish deterministic stream for comparisons.
    fn stream(n: usize, seed: u64) -> Vec<(u32, u64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let rank = (rng.gen::<f64>().powi(3) * 200.0) as u32; // skewed
                let net = rank % 12;
                let item = (10 << 24) | (net << 16) | rank;
                (item, 40 + (rank as u64 * 7) % 1400)
            })
            .collect()
    }

    #[test]
    fn recall_is_perfect_with_enough_counters() {
        let h = Ipv4Hierarchy::bytes();
        let mut exact = ExactHhh::new(h);
        let mut ss = SpaceSavingHhh::new(h, 256);
        for (item, w) in stream(20_000, 5) {
            exact.observe(item, w);
            ss.observe(item, w);
        }
        assert_eq!(exact.total(), ss.total());
        for pct in [1.0, 5.0, 10.0] {
            let t = Threshold::percent(pct);
            let truth: std::collections::HashSet<_> =
                exact.report(t).into_iter().map(|r| r.prefix).collect();
            let found: std::collections::HashSet<_> =
                ss.report(t).into_iter().map(|r| r.prefix).collect();
            let missed: Vec<_> = truth.difference(&found).collect();
            assert!(missed.is_empty(), "at {pct}%: missed true HHHs {missed:?}");
        }
    }

    #[test]
    fn precision_reasonable() {
        let h = Ipv4Hierarchy::bytes();
        let mut exact = ExactHhh::new(h);
        let mut ss = SpaceSavingHhh::new(h, 512);
        for (item, w) in stream(30_000, 9) {
            exact.observe(item, w);
            ss.observe(item, w);
        }
        let t = Threshold::percent(5.0);
        let truth: std::collections::HashSet<_> =
            exact.report(t).into_iter().map(|r| r.prefix).collect();
        let found = ss.report(t);
        let false_pos = found.iter().filter(|r| !truth.contains(&r.prefix)).count();
        assert!(false_pos <= found.len() / 2, "{false_pos} false positives of {}", found.len());
        // Guaranteed (lower-bound) reports are all true.
        let t_abs = t.absolute(ss.total());
        for r in &found {
            if r.lower_bound >= t_abs {
                assert!(
                    truth.contains(&r.prefix),
                    "guaranteed report {} is not a true HHH",
                    r.prefix
                );
            }
        }
    }

    #[test]
    fn estimates_upper_bound_truth() {
        let h = Ipv4Hierarchy::bytes();
        let mut exact = ExactHhh::new(h);
        let mut ss = SpaceSavingHhh::new(h, 64);
        for (item, w) in stream(5_000, 2) {
            exact.observe(item, w);
            ss.observe(item, w);
        }
        for r in ss.report(Threshold::percent(5.0)) {
            let true_count = exact.prefix_count(r.prefix);
            assert!(
                r.estimate >= true_count,
                "estimate {} below truth {true_count} for {}",
                r.estimate,
                r.prefix
            );
        }
    }

    #[test]
    fn reset_and_state() {
        let h = Ipv4Hierarchy::bytes();
        let mut ss = SpaceSavingHhh::new(h, 16);
        ss.observe(1, 10);
        assert!(ss.state_bytes() > 0);
        assert_eq!(ss.name(), "ss-hhh");
        ss.reset();
        assert_eq!(ss.total(), 0);
        assert!(ss.report(Threshold::percent(1.0)).is_empty());
    }

    #[test]
    fn per_packet_work_is_levels() {
        // Structural: all 5 level summaries see each update.
        let h = Ipv4Hierarchy::bytes();
        let mut ss = SpaceSavingHhh::new(h, 8);
        ss.observe(0x0A010101, 7);
        for l in ss.level_summaries() {
            assert_eq!(l.total(), 7);
        }
    }
}
