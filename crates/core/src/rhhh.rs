//! RHHH — Randomized HHH with constant-time updates (Ben Basat,
//! Einziger, Friedman, Luizelli, Waisbard, SIGCOMM 2017).
//!
//! The full-ancestry detector pays O(levels) per packet; at 100 Gb/s
//! line rate that is the difference between feasible and not. RHHH's
//! observation: *sample* the level instead. Each packet updates exactly
//! one uniformly-chosen level's Space-Saving summary, so a level sees a
//! `1/V` Bernoulli sample of the stream (V = number of levels) and
//! per-level estimates are unbiased after multiplying by `V`.
//!
//! The price is sampling error: estimates carry an additional
//! `O(√(V·N))` additive uncertainty, reflected in this implementation's
//! `lower_bound` via a two-sigma binomial bound — heavy prefixes well
//! above threshold are still found with high probability, borderline
//! ones may flicker. That trade-off (and its win on update speed) is
//! exactly what the detector-comparison experiment (E3) measures.

use crate::detector::{HhhDetector, MergeableDetector};
use crate::exact::discount_bottom_up;
use crate::kind::Kind;
use crate::report::{HhhReport, Threshold};
use crate::snapshot::{Body, DetectorSnapshot, RhhhBody, SnapshotError, SnapshotFrame};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use hhh_sketches::SpaceSaving;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The randomized constant-time HHH detector.
#[derive(Clone, Debug)]
pub struct Rhhh<H: Hierarchy> {
    hierarchy: H,
    levels: Vec<SpaceSaving<H::Prefix>>,
    rng: SmallRng,
    total: u64,
    updates_per_level: Vec<u64>,
    /// Reusable per-batch grouping buffers (one per level), emptied
    /// after every batch but keeping their capacity — the steady-state
    /// batched path allocates nothing.
    grouped: Vec<Vec<(H::Prefix, u64)>>,
}

impl<H: Hierarchy> Rhhh<H> {
    /// A detector with `counters_per_level` Space-Saving counters per
    /// level and a deterministic sampling seed.
    pub fn new(hierarchy: H, counters_per_level: usize, seed: u64) -> Self {
        let v = hierarchy.levels();
        Rhhh {
            hierarchy,
            levels: (0..v).map(|_| SpaceSaving::new(counters_per_level)).collect(),
            rng: SmallRng::seed_from_u64(seed),
            total: 0,
            updates_per_level: vec![0; v],
            grouped: vec![Vec::new(); v],
        }
    }

    /// Number of levels V (the scaling factor).
    pub fn v(&self) -> u64 {
        self.levels.len() as u64
    }

    /// Space-Saving counters per level (the construction parameter).
    pub fn capacity(&self) -> usize {
        self.levels[0].capacity()
    }

    /// How many updates each level has absorbed (diagnostics: should be
    /// ≈ packets/V each).
    pub fn updates_per_level(&self) -> &[u64] {
        &self.updates_per_level
    }

    fn level_maps(&self) -> Vec<HashMap<H::Prefix, u64>> {
        let v = self.v();
        let n = self.levels.len();
        let mut maps: Vec<HashMap<H::Prefix, u64>> = self
            .levels
            .iter()
            .map(|ss| ss.entries().map(|e| (e.key, e.count * v)).collect())
            .collect();
        // Close upward so charges never land on a missing parent (same
        // algebraic safety as SpaceSavingHhh).
        for level in 0..n - 1 {
            let mut child_sums: HashMap<H::Prefix, u64> = HashMap::new();
            for (&p, &c) in &maps[level] {
                let parent = self.hierarchy.parent(p).expect("non-root");
                *child_sums.entry(parent).or_default() += c;
            }
            for (parent, sum) in child_sums {
                let e = maps[level + 1].entry(parent).or_insert(0);
                *e = (*e).max(sum);
            }
        }
        maps
    }

    /// Two-sigma additive sampling uncertainty on a scaled estimate.
    fn sampling_error(&self) -> u64 {
        // Var of V·Binomial(N, 1/V) ≈ V·N for the per-level sample
        // mass; 2σ ≈ 2√(V·N).
        (2.0 * ((self.v() * self.total.max(1)) as f64).sqrt()) as u64
    }
}

impl<H: Hierarchy> HhhDetector<H> for Rhhh<H> {
    /// The single-packet path is the batched path on a one-element
    /// batch — one code path, and the RNG draws exactly one level
    /// either way, so the state sequence is identical.
    #[inline]
    fn observe(&mut self, item: H::Item, weight: u64) {
        self.observe_batch(&[(item, weight)]);
    }

    /// Batched sampling: draw every packet's level first, then apply
    /// updates level-major so each summary is swept once per batch.
    /// The level draws use the same RNG sequence as the per-packet
    /// path, and per-level update order is preserved, so the resulting
    /// state is identical to observing packet-by-packet. The grouping
    /// buffers persist across batches (cleared, capacity kept): the
    /// steady-state path is allocation-free.
    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        let v = self.levels.len();
        for &(item, weight) in batch {
            self.total += weight;
            let level = self.rng.gen_range(0..v);
            self.grouped[level].push((self.hierarchy.generalize(item, level), weight));
            self.updates_per_level[level] += 1;
        }
        let Rhhh { levels, grouped, .. } = self;
        for (summary, updates) in levels.iter_mut().zip(grouped.iter_mut()) {
            for &(p, weight) in updates.iter() {
                summary.update(p, weight);
            }
            updates.clear();
        }
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        let t = threshold.absolute(self.total);
        let mut reports = discount_bottom_up(&self.hierarchy, &self.level_maps(), t);
        let sampling = self.sampling_error();
        let v = self.v();
        for r in &mut reports {
            let ss_err =
                self.levels[r.level].estimate(&r.prefix).map(|e| e.error * v).unwrap_or(r.estimate);
            r.lower_bound = r.discounted.saturating_sub(ss_err + sampling);
        }
        reports
    }

    fn reset(&mut self) {
        for ss in &mut self.levels {
            ss.clear();
        }
        self.total = 0;
        self.updates_per_level.fill(0);
    }

    fn state_bytes(&self) -> usize {
        self.levels.iter().map(|ss| ss.state_bytes()).sum()
    }

    fn name(&self) -> &'static str {
        Kind::Rhhh.label()
    }
}

impl<H: Hierarchy> MergeableDetector for Rhhh<H> {
    /// Per-level [`SpaceSaving::merge`]. Each shard's level summaries
    /// hold independent `1/V` Bernoulli samples of disjoint
    /// sub-streams, so their union is a `1/V` sample of the combined
    /// stream and the scaled estimates stay unbiased; sampling
    /// variance adds across shards exactly as it would for one
    /// detector seeing the whole stream.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.levels.len(), other.levels.len(), "hierarchy depth mismatch");
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b);
        }
        self.total += other.total;
        for (a, b) in self.updates_per_level.iter_mut().zip(&other.updates_per_level) {
            *a += *b;
        }
    }

    /// Wire format: the `ss-hhh` body (capacity + per-level summary
    /// objects) plus `"updates":[u₀, …]`, the per-level update counts
    /// a merged detector carries for its sampling diagnostics. The
    /// sampling RNG state is deliberately *not* serialized: a restored
    /// detector merges and reports exactly, and redraws fresh levels
    /// if it is ever fed further observations.
    fn snapshot(&self) -> Option<DetectorSnapshot> {
        Some(self.body().into_snapshot(self.total))
    }

    /// The same body as [`snapshot`](MergeableDetector::snapshot),
    /// encoded as a v2 frame with no JSON on the path.
    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        self.body().to_frame(self.total, start, at).ok()
    }
}

impl<H: Hierarchy> Rhhh<H> {
    /// The wire body: the `ss-hhh` rows plus the per-level update
    /// counts.
    pub(crate) fn body(&self) -> Body<'_> {
        Body::Rhhh(RhhhBody {
            ss: crate::ss_hhh::levels_body(&self.levels),
            updates: self.updates_per_level.clone(),
        })
    }

    /// The validated decode core both wire formats share. Level
    /// summaries, totals and update counts restore exactly; the
    /// sampling RNG restarts from a fixed seed (see
    /// [`snapshot`](MergeableDetector::snapshot)), which only matters
    /// if the restored detector observes *new* packets.
    pub(crate) fn from_wire_levels(
        hierarchy: H,
        capacity: u64,
        rows: crate::ss_hhh::WireLevelRows<H::Prefix>,
        updates_per_level: Vec<u64>,
        total: u64,
    ) -> Result<Self, SnapshotError> {
        let capacity = crate::ss_hhh::wire_capacity(capacity)?;
        let levels = crate::ss_hhh::levels_from_rows(rows, capacity, hierarchy.levels())?;
        if updates_per_level.len() != levels.len() {
            return Err(SnapshotError::Invalid {
                field: "updates",
                what: "one entry per level required",
            });
        }
        let v = levels.len();
        Ok(Rhhh {
            hierarchy,
            levels,
            rng: SmallRng::seed_from_u64(RESTORED_SEED),
            total,
            updates_per_level,
            grouped: vec![Vec::new(); v],
        })
    }
}

/// Sampling seed of detectors rebuilt from snapshots (restored
/// detectors merge and report; fresh observations redraw from here).
const RESTORED_SEED: u64 = 0x4E57_04ED;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactHhh;
    use hhh_hierarchy::Ipv4Hierarchy;

    /// A stream with unambiguous heavies: 4 hosts with 10% of packets
    /// each, the rest spread thin across many /16s.
    fn stream(n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let x = match i % 10 {
                0 => 0x0A010101,
                1 => 0x0A010102,
                2 => 0x14020202,
                3 => 0x1E030303,
                _ => {
                    let j = (i as u32).wrapping_mul(2_654_435_761);
                    0x28000000 | (j & 0x00FF_FFFF)
                }
            };
            out.push(x);
        }
        out
    }

    #[test]
    fn updates_spread_across_levels() {
        let h = Ipv4Hierarchy::bytes();
        let mut r = Rhhh::new(h, 64, 1);
        for item in stream(50_000) {
            r.observe(item, 1);
        }
        let per = r.updates_per_level();
        let expect = 50_000.0 / 5.0;
        for (l, &u) in per.iter().enumerate() {
            let rel = (u as f64 - expect).abs() / expect;
            assert!(rel < 0.1, "level {l} got {u} updates, expected ~{expect}");
        }
    }

    #[test]
    fn clear_heavies_are_found() {
        let h = Ipv4Hierarchy::bytes();
        let mut exact = ExactHhh::new(h);
        let mut r = Rhhh::new(h, 128, 7);
        for item in stream(200_000) {
            exact.observe(item, 1);
            r.observe(item, 1);
        }
        let t = Threshold::percent(5.0);
        let found: std::collections::HashSet<_> =
            r.report(t).into_iter().map(|x| x.prefix).collect();
        // Every exact HHH whose discounted count clears the threshold
        // with a 2× margin must be present despite sampling noise.
        let t_abs = t.absolute(exact.total());
        for truth in exact.report(t) {
            if truth.discounted >= 2 * t_abs {
                assert!(
                    found.contains(&truth.prefix),
                    "RHHH missed comfortable HHH {}",
                    truth.prefix
                );
            }
        }
    }

    #[test]
    fn estimates_are_unbiased_ballpark() {
        let h = Ipv4Hierarchy::bytes();
        let mut r = Rhhh::new(h, 128, 3);
        let n = 100_000;
        for item in stream(n) {
            r.observe(item, 1);
        }
        // Host 0x0A010101 has ~10% of the stream.
        let rep = r.report(Threshold::percent(5.0));
        let host = rep.iter().find(|x| x.prefix.to_string() == "10.1.1.1/32");
        if let Some(hst) = host {
            let truth = n as f64 / 10.0;
            let rel = (hst.estimate as f64 - truth).abs() / truth;
            assert!(rel < 0.35, "estimate {} vs truth {truth}", hst.estimate);
        } else {
            panic!("10% host not reported at 5% threshold");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let h = Ipv4Hierarchy::bytes();
        let run = |seed| {
            let mut r = Rhhh::new(h, 64, seed);
            for item in stream(20_000) {
                r.observe(item, 1);
            }
            let mut v: Vec<String> =
                r.report(Threshold::percent(5.0)).iter().map(|x| x.prefix.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn reset_clears() {
        let h = Ipv4Hierarchy::bytes();
        let mut r = Rhhh::new(h, 16, 1);
        r.observe(42, 9);
        r.reset();
        assert_eq!(r.total(), 0);
        assert!(r.updates_per_level().iter().all(|&u| u == 0));
        assert_eq!(r.name(), "rhhh");
    }
}
