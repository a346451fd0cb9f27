//! Exact windowed HHH: the ground truth.
//!
//! Keeps every distinct item's count in a hash map (memory ∝ distinct
//! items — affordable offline, which is exactly how the paper ran its
//! own analysis) and computes the HHH set bottom-up at report time:
//! the item counts become level-0 rows of the one report routine the
//! approximate detectors share, fed with their per-level *estimates*.

use crate::detector::{HhhDetector, MergeableDetector};
use crate::kind::Kind;
use crate::report::{closed_report, HhhReport, Threshold};
use crate::snapshot::{Body, DetectorSnapshot, ExactBody, SnapshotError, SnapshotFrame};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use std::collections::HashMap;

/// Exact windowed HHH detector (and plain heavy-hitter oracle).
#[derive(Clone, Debug)]
pub struct ExactHhh<H: Hierarchy> {
    hierarchy: H,
    counts: HashMap<H::Item, u64>,
    total: u64,
}

impl<H: Hierarchy> ExactHhh<H> {
    /// An empty detector over a hierarchy.
    pub fn new(hierarchy: H) -> Self {
        ExactHhh { hierarchy, counts: HashMap::new(), total: 0 }
    }

    /// The hierarchy in use.
    pub fn hierarchy(&self) -> &H {
        &self.hierarchy
    }

    /// Number of distinct items seen.
    pub fn distinct_items(&self) -> usize {
        self.counts.len()
    }

    /// Exact count of one item.
    pub fn count_of(&self, item: &H::Item) -> u64 {
        self.counts.get(item).copied().unwrap_or(0)
    }

    /// Plain (level-0) heavy hitters at a relative threshold,
    /// descending by count.
    pub fn heavy_hitters(&self, threshold: Threshold) -> Vec<(H::Item, u64)> {
        let t = threshold.absolute(self.total);
        let mut out: Vec<_> =
            self.counts.iter().filter(|(_, &c)| c >= t).map(|(k, &c)| (*k, c)).collect();
        out.sort_by_key(|e| core::cmp::Reverse(e.1));
        out
    }

    /// Exact total count of an arbitrary prefix (sums matching items);
    /// 0 for a prefix at no level of the hierarchy, which no item
    /// generalizes to.
    pub fn prefix_count(&self, prefix: H::Prefix) -> u64 {
        let Some(level) = self.hierarchy.level_of(prefix) else {
            return 0;
        };
        self.counts
            .iter()
            .filter(|(item, _)| self.hierarchy.generalize(**item, level) == prefix)
            .map(|(_, &c)| c)
            .sum()
    }

    /// The exact HHH set of item counts summing to `total`, in (level,
    /// prefix) order: the items become level-0 rows, each level above
    /// sums the one below, and the bottom-up discount runs over the
    /// result. [`report`](HhhDetector::report) is this over the
    /// detector's own counts; engines that keep rolling counts of their
    /// own report through it too.
    pub fn report_counts(
        hierarchy: &H,
        counts: &HashMap<H::Item, u64>,
        total: u64,
        threshold: Threshold,
    ) -> Vec<HhhReport<H::Prefix>> {
        let rows = counts.iter().map(|(&item, &c)| (hierarchy.item_prefix(item), c)).collect();
        closed_report(hierarchy, vec![rows], threshold.absolute(total))
    }
}

impl<H: Hierarchy> HhhDetector<H> for ExactHhh<H> {
    fn observe(&mut self, item: H::Item, weight: u64) {
        *self.counts.entry(item).or_default() += weight;
        self.total += weight;
    }

    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        self.counts.reserve(batch.len() / 4);
        for &(item, weight) in batch {
            *self.counts.entry(item).or_default() += weight;
            self.total += weight;
        }
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        Self::report_counts(&self.hierarchy, &self.counts, self.total, threshold)
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    fn state_bytes(&self) -> usize {
        // Hash map entry ≈ key + value + bucket overhead.
        self.counts.len() * (core::mem::size_of::<H::Item>() + 8 + 16)
    }

    fn name(&self) -> &'static str {
        Kind::Exact.label()
    }
}

impl<H: Hierarchy> MergeableDetector for ExactHhh<H> {
    /// Lossless: merging shard states of any partition of a stream
    /// reproduces the unpartitioned state exactly (count maps add).
    fn merge(&mut self, other: &Self) {
        self.counts.reserve(other.counts.len());
        for (&item, &c) in &other.counts {
            *self.counts.entry(item).or_default() += c;
        }
        self.total += other.total;
    }

    /// Wire format: `{"counts":[[item, count], …]}` with items rendered
    /// via `Debug` and rows sorted by that rendering (the detector's
    /// wire body). Aggregators fold snapshots by summing counts per
    /// item — the same algebra as [`merge`](Self::merge).
    fn snapshot(&self) -> Option<DetectorSnapshot> {
        Some(self.body().into_snapshot(self.total))
    }

    /// The same body as [`snapshot`](MergeableDetector::snapshot),
    /// encoded as a v2 frame with no JSON on the path.
    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        self.body().to_frame(self.total, start, at).ok()
    }

    /// Exact counts subtract as losslessly as they add: removing a
    /// previously merged state restores the pre-merge state verbatim
    /// (zeroed items leave the map, so equality with a never-merged
    /// detector is structural, not just observational).
    fn retract(&mut self, other: &Self) -> bool {
        for (&item, &c) in &other.counts {
            match self.counts.get_mut(&item) {
                Some(e) => {
                    *e = e.saturating_sub(c);
                    if *e == 0 {
                        self.counts.remove(&item);
                    }
                }
                None => debug_assert!(false, "retracting a state that was never merged"),
            }
        }
        self.total = self.total.saturating_sub(other.total);
        true
    }
}

impl<H: Hierarchy> ExactHhh<H> {
    /// The wire body: `(item, count)` rows sorted by the item's
    /// `Debug` rendering, so equal states serialize identically.
    ///
    /// Items render via `Debug` (the only rendering bound
    /// `Hierarchy::Item` carries). The decode half parses them back
    /// with `FromStr`, so snapshot round-tripping requires the two
    /// forms to agree — true for the primitive integer items every
    /// in-tree hierarchy uses; a custom hierarchy whose `Debug` form
    /// is not its `FromStr` form must not rely on `exact` snapshots
    /// (decode returns a typed error rather than corrupting counts,
    /// since keys that fail to parse reject the row).
    pub(crate) fn body(&self) -> Body<'_> {
        let mut rows: Vec<(String, u64)> =
            self.counts.iter().map(|(item, &c)| (format!("{item:?}"), c)).collect();
        rows.sort();
        Body::Exact(ExactBody { rows })
    }

    /// The validated decode core both wire formats share: build a
    /// detector from already-parsed `(item, count)` rows, rejecting
    /// duplicates, count overflow, and an envelope total that does not
    /// equal the sum of counts.
    pub(crate) fn from_wire_rows(
        hierarchy: H,
        rows: impl IntoIterator<Item = (H::Item, u64)>,
        envelope_total: u64,
    ) -> Result<Self, SnapshotError> {
        let rows = rows.into_iter();
        let mut counts: HashMap<H::Item, u64> = HashMap::with_capacity(rows.size_hint().0);
        let mut total: u64 = 0;
        for (item, count) in rows {
            if counts.insert(item, count).is_some() {
                return Err(SnapshotError::Invalid { field: "counts", what: "duplicate item" });
            }
            total = total
                .checked_add(count)
                .ok_or(SnapshotError::Invalid { field: "counts", what: "counts overflow u64" })?;
        }
        if total != envelope_total {
            return Err(SnapshotError::Invalid {
                field: "total",
                what: "envelope total does not equal the sum of counts",
            });
        }
        Ok(ExactHhh { hierarchy, counts, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_hierarchy::{Ipv4Hierarchy, Ipv6Hierarchy};
    use hhh_nettypes::Ipv4Prefix;
    use proptest::prelude::*;

    fn ip(s: &str) -> u32 {
        s.parse::<Ipv4Prefix>().unwrap().addr()
    }

    fn px(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn detector_with(items: &[(&str, u64)]) -> ExactHhh<Ipv4Hierarchy> {
        let mut d = ExactHhh::new(Ipv4Hierarchy::bytes());
        for (a, w) in items {
            d.observe(ip(a), *w);
        }
        d
    }

    #[test]
    fn single_dominant_host() {
        let d = detector_with(&[("10.1.1.1", 90), ("20.2.2.2", 10)]);
        let r = d.report(Threshold::percent(50.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].prefix, px("10.1.1.1/32"));
        assert_eq!(r[0].discounted, 90);
        assert_eq!(r[0].level, 0);
    }

    #[test]
    fn discount_hides_covered_ancestors() {
        // A worked example: covered ancestors are discounted away.
        let d = detector_with(&[
            ("10.1.1.1", 40),
            ("10.1.1.2", 30),
            ("10.1.2.1", 60),
            ("20.0.0.1", 70),
        ]);
        // total 200, T = 50 at 25%.
        let r = d.report(Threshold::percent(25.0));
        let prefixes: Vec<String> = r.iter().map(|x| x.prefix.to_string()).collect();
        assert_eq!(prefixes, vec!["10.1.2.1/32", "20.0.0.1/32", "10.1.1.0/24"], "got {prefixes:?}");
        // The /24 aggregates two sub-threshold hosts.
        let p24 = r.iter().find(|x| x.prefix == px("10.1.1.0/24")).unwrap();
        assert_eq!(p24.estimate, 70);
        assert_eq!(p24.discounted, 70);
        // No /16, /8 or root: everything above is fully discounted.
        assert!(r.iter().all(|x| x.level <= 1));
    }

    #[test]
    fn root_reports_residual_tail() {
        // Many small scattered sources, no single HHH below the root:
        // the root's discounted count is the whole total.
        let mut d = ExactHhh::new(Ipv4Hierarchy::bytes());
        for i in 0..100u32 {
            // Spread across distinct /8s.
            d.observe((i % 200) << 24 | i, 1);
        }
        let r = d.report(Threshold::percent(50.0));
        assert_eq!(r.len(), 1);
        assert!(r[0].prefix.is_root());
        assert_eq!(r[0].discounted, 100);
    }

    #[test]
    fn nested_hhhs_each_discounted() {
        // A /32 HHH inside a /24 that also has enough *other* traffic
        // to be an HHH itself.
        let mut items = vec![("10.1.1.1", 100)];
        let small: Vec<String> = (2..100).map(|i| format!("10.1.1.{i}")).collect();
        for s in &small {
            items.push((s.as_str(), 2));
        }
        let d = detector_with(&items.iter().map(|(a, w)| (*a, *w)).collect::<Vec<_>>());
        // total = 100 + 98*2 = 296; T at 25% = 74.
        let r = d.report(Threshold::percent(25.0));
        let host = r.iter().find(|x| x.level == 0).unwrap();
        assert_eq!(host.prefix, px("10.1.1.1/32"));
        let p24 = r.iter().find(|x| x.level == 1).unwrap();
        assert_eq!(p24.prefix, px("10.1.1.0/24"));
        assert_eq!(p24.estimate, 296);
        assert_eq!(p24.discounted, 196, "residual excludes the /32 HHH");
        // /16 and above: fully discounted by the /24 (max desc).
        assert!(r.iter().all(|x| x.level <= 1));
    }

    #[test]
    fn threshold_monotonicity() {
        let d = detector_with(&[
            ("10.1.1.1", 40),
            ("10.1.1.2", 30),
            ("10.1.2.1", 60),
            ("20.0.0.1", 70),
            ("30.0.0.1", 5),
        ]);
        let mut last_len = usize::MAX;
        for pct in [1.0, 5.0, 10.0, 25.0, 50.0] {
            let len = d.report(Threshold::percent(pct)).len();
            assert!(len <= last_len, "HHH count must not grow with threshold");
            last_len = len;
        }
    }

    #[test]
    fn hhh_count_is_bounded() {
        // Theory: at threshold θ the number of HHHs is at most
        // levels/θ (each level's discounted counts sum to ≤ total).
        let mut d = ExactHhh::new(Ipv4Hierarchy::bytes());
        for i in 0..10_000u32 {
            d.observe(i.wrapping_mul(2_654_435_761), 1 + (i % 7) as u64);
        }
        for pct in [1.0, 5.0, 10.0] {
            let r = d.report(Threshold::percent(pct));
            let bound = (d.hierarchy().levels() as f64 / (pct / 100.0)) as usize;
            assert!(r.len() <= bound, "{} HHHs exceeds bound {bound} at {pct}%", r.len());
        }
    }

    #[test]
    fn reset_clears() {
        let mut d = detector_with(&[("1.2.3.4", 10)]);
        assert_eq!(d.total(), 10);
        d.reset();
        assert_eq!(d.total(), 0);
        assert_eq!(d.distinct_items(), 0);
        assert!(d.report(Threshold::percent(1.0)).is_empty());
    }

    #[test]
    fn heavy_hitters_plain() {
        let d = detector_with(&[("1.1.1.1", 50), ("2.2.2.2", 30), ("3.3.3.3", 20)]);
        let hh = d.heavy_hitters(Threshold::percent(25.0));
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0].1, 50);
    }

    #[test]
    fn prefix_count_sums_members() {
        let d = detector_with(&[("10.1.1.1", 5), ("10.1.1.2", 7), ("10.2.0.0", 100)]);
        assert_eq!(d.prefix_count(px("10.1.1.0/24")), 12);
        assert_eq!(d.prefix_count(px("10.0.0.0/8")), 112);
        assert_eq!(d.prefix_count(px("99.0.0.0/8")), 0);
    }

    #[test]
    fn reports_sorted_by_level_then_prefix() {
        let d = detector_with(&[("10.1.1.1", 100), ("9.1.1.1", 100), ("10.1.1.0", 1)]);
        let r = d.report(Threshold::percent(10.0));
        for w in r.windows(2) {
            assert!((w[0].level, w[0].prefix) < (w[1].level, w[1].prefix), "unsorted report");
        }
    }

    #[test]
    fn bit_hierarchy_also_works() {
        let mut d = ExactHhh::new(Ipv4Hierarchy::bits());
        d.observe(ip("10.1.1.1"), 60);
        d.observe(ip("10.1.1.0"), 50);
        // total 110, T=55 at 50%: the /32 (60) and their common /31
        // would hold 110−60=50 < 55 discounted... so only one HHH.
        let r = d.report(Threshold::percent(50.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].prefix, px("10.1.1.1/32"));
    }

    /// The HHH definition read directly, with no level maps and no
    /// charges: bottom up, a prefix's discounted count is the sum of
    /// the counts of items under it that no HHH already found strictly
    /// below it contains, and the prefix is an HHH when that sum
    /// reaches the absolute threshold.
    fn by_definition<H: Hierarchy>(
        h: &H,
        items: &[(H::Item, u64)],
        threshold: Threshold,
    ) -> Vec<HhhReport<H::Prefix>> {
        let t = threshold.absolute(items.iter().map(|e| e.1).sum());
        let mut found: Vec<HhhReport<H::Prefix>> = Vec::new();
        for level in 0..h.levels() {
            let mut prefixes: Vec<_> = items.iter().map(|&(i, _)| h.generalize(i, level)).collect();
            prefixes.sort();
            prefixes.dedup();
            let below = found.len();
            for p in prefixes {
                let under = items.iter().filter(|&&(i, _)| h.contains(p, h.item_prefix(i)));
                let estimate = under.clone().map(|e| e.1).sum();
                let discounted = under
                    .filter(|&&(i, _)| {
                        !found[..below].iter().any(|r| h.contains(r.prefix, h.item_prefix(i)))
                    })
                    .map(|e| e.1)
                    .sum();
                if discounted >= t {
                    let lower_bound = discounted;
                    found.push(HhhReport { prefix: p, level, estimate, discounted, lower_bound });
                }
            }
        }
        found
    }

    fn report_matches_definition<H: Hierarchy>(h: H, items: &[(H::Item, u64)], t: Threshold) {
        let mut d = ExactHhh::new(h.clone());
        for &(item, w) in items {
            d.observe(item, w);
        }
        assert_eq!(d.report(t), by_definition(&h, items, t), "at {t} over {items:?}");
    }

    /// Items packed from four small fields, so that they share
    /// prefixes at every granularity and HHHs nest; weights are skewed.
    type Draw = ((u32, u32, u32, u32), u64);

    fn draws() -> impl Strategy<Value = Vec<Draw>> {
        prop::collection::vec(((0u32..4, 0u32..4, 0u32..4, 0u32..8), 0u64..40), 1..80)
    }

    fn v4((a, b, c, d): (u32, u32, u32, u32)) -> u32 {
        a << 30 | b << 20 | c << 9 | d
    }

    proptest! {
        #[test]
        fn report_is_the_definition_on_ipv4(draws in draws(), t in 0.001f64..0.6) {
            let items: Vec<(u32, u64)> = draws.iter().map(|&(f, w)| (v4(f), 1 + w * w)).collect();
            let t = Threshold::fraction(t);
            report_matches_definition(Ipv4Hierarchy::bytes(), &items, t);
            report_matches_definition(Ipv4Hierarchy::bits(), &items, t);
            report_matches_definition(Ipv4Hierarchy::new(12), &items, t);
        }

        #[test]
        fn report_is_the_definition_on_ipv6(draws in draws(), t in 0.001f64..0.6) {
            let items: Vec<(u128, u64)> = draws
                .iter()
                .map(|&(f, w)| ((v4(f) as u128) << 96 | (f.3 as u128) << 40 | f.2 as u128, 1 + w * w))
                .collect();
            report_matches_definition(Ipv6Hierarchy::hextets(), &items, Threshold::fraction(t));
        }
    }
}
