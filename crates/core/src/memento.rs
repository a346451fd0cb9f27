//! Window-native HHH: per-level Memento-style sliding summaries.
//!
//! Every windowed detector in this crate forgets via the engine —
//! `reset()` at boundaries, or a ring of per-epoch states merged per
//! position (`SlidingExact`). This detector forgets *by itself*: each
//! hierarchy level holds a [`SlidingSummary`] over the last `window`
//! packets, so window maintenance is O(1) per packet (a global frame
//! bump, lazy expiry at query time) instead of O(window/step) detector
//! merges per report position. Reports always reflect the most recent
//! `window` packets, no matter how often they are requested — the
//! window-native schedule the Memento line of work (Ben-Basat et al.,
//! CoNEXT 2018) argues for.

use crate::detector::{HhhDetector, MergeableDetector};
use crate::report::{closed_report, HhhReport, Threshold};
use hhh_hierarchy::Hierarchy;
use hhh_sketches::SlidingSummary;

/// Per-level sliding-summary HHH detector over the last `window`
/// packets.
#[derive(Clone, Debug)]
pub struct MementoHhh<H: Hierarchy> {
    hierarchy: H,
    /// One sliding summary per level; `levels[0]` tracks exact items.
    /// All levels see the same item sequence, so their frame clocks
    /// advance in lockstep.
    levels: Vec<SlidingSummary<H::Prefix>>,
    total: u64,
    /// Reusable per-batch staging buffer for one level's prefixes —
    /// grown once, never reallocated on the steady-state hot path
    /// (the same zero-alloc pattern as
    /// [`crate::SpaceSavingHhh::observe_batch`]).
    scratch: Vec<(H::Prefix, u64)>,
}

impl<H: Hierarchy> MementoHhh<H> {
    /// A detector whose reports cover the last `window` packets, with
    /// `frames` sub-frames per window and `counters_per_level` tracked
    /// prefixes at each level. For a threshold θ,
    /// `counters_per_level ≥ 2/θ` keeps both error sides comfortable
    /// (as for [`crate::SpaceSavingHhh`]).
    pub fn new(hierarchy: H, window: usize, frames: usize, counters_per_level: usize) -> Self {
        let levels = (0..hierarchy.levels())
            .map(|_| SlidingSummary::new(window, frames, counters_per_level))
            .collect();
        MementoHhh { hierarchy, levels, total: 0, scratch: Vec::new() }
    }

    /// The window length in packets.
    pub fn window(&self) -> usize {
        self.levels[0].window()
    }

    /// Tracked prefixes per level (the construction parameter).
    pub fn capacity(&self) -> usize {
        self.levels[0].capacity()
    }

    /// The per-level summaries (read-only, for diagnostics).
    pub fn level_summaries(&self) -> &[SlidingSummary<H::Prefix>] {
        &self.levels
    }

    /// Traffic mass currently inside the window — the root level tracks
    /// a single key (the root prefix), is never under eviction
    /// pressure, and therefore carries the exact frame-aligned windowed
    /// total.
    pub fn windowed_total(&self) -> u64 {
        self.levels.last().expect("at least one level").estimate(&self.hierarchy.root())
    }
}

impl<H: Hierarchy> HhhDetector<H> for MementoHhh<H> {
    fn observe(&mut self, item: H::Item, weight: u64) {
        self.total += weight;
        for level in 0..self.levels.len() {
            let p = self.hierarchy.generalize(item, level);
            self.levels[level].insert_weighted(p, weight);
        }
    }

    /// Level-major batching, same rationale as
    /// [`crate::SpaceSavingHhh::observe_batch`]: stage the level's
    /// prefixes in the reusable scratch buffer (a pure mask-and-copy
    /// with a loop-invariant mask, so it vectorizes), then sweep the
    /// level's summary over the staged batch before moving to the
    /// next level.
    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        for &(_, weight) in batch {
            self.total += weight;
        }
        let MementoHhh { hierarchy, levels, scratch, .. } = self;
        for (level, summary) in levels.iter_mut().enumerate() {
            scratch.clear();
            scratch.extend(batch.iter().map(|&(item, w)| (hierarchy.generalize(item, level), w)));
            for &(p, w) in scratch.iter() {
                summary.insert_weighted(p, w);
            }
        }
    }

    fn total(&self) -> u64 {
        self.total
    }

    /// The HHH set over the last `window` packets. The relative
    /// threshold applies to the *windowed* total, not the lifetime
    /// total — this detector's reports are always about the window.
    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        // Estimates are under-estimates (Misra-Gries side of the
        // mirror), so each discounted mass, which the routine also
        // reports as the lower bound, is one on the frame-aligned truth.
        let rows = self.levels.iter().map(|s| s.live_entries().collect());
        closed_report(&self.hierarchy, rows.collect(), threshold.absolute(self.windowed_total()))
    }

    fn reset(&mut self) {
        for s in &mut self.levels {
            s.clear();
        }
        self.total = 0;
    }

    fn state_bytes(&self) -> usize {
        self.levels.iter().map(|s| s.state_bytes()).sum()
    }

    fn name(&self) -> &'static str {
        "memento-hhh"
    }
}

impl<H: Hierarchy> MergeableDetector for MementoHhh<H> {
    /// Per-level [`SlidingSummary::merge`]: the other detector's live
    /// window mass folds into this detector's current frame and then
    /// expires on this detector's clock. Approximate (the shards'
    /// frame clocks are independent), estimates stay under-estimates
    /// of the combined stream. No snapshot wire format (the default
    /// `snapshot() = None`) and no retraction — sliding shard pools
    /// fall back to the ring merge for this kind.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.levels.len(), other.levels.len(), "hierarchy depth mismatch");
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b);
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactHhh;
    use hhh_hierarchy::Ipv4Hierarchy;

    /// A stream whose heavy set changes halfway: host A dominates the
    /// first phase, host B the second.
    fn two_phase(n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| {
                let heavy = if i < n / 2 { 0x0A010101 } else { 0x14020202 };
                if i % 2 == 0 {
                    heavy
                } else {
                    let j = (i as u32).wrapping_mul(2_654_435_761);
                    0x28000000 | (j & 0x00FF_FFFF)
                }
            })
            .collect()
    }

    #[test]
    fn reports_reflect_only_the_window() {
        let h = Ipv4Hierarchy::bytes();
        let n = 40_000;
        let mut m = MementoHhh::new(h, 4_000, 10, 256);
        for item in two_phase(n) {
            m.observe(item, 1);
        }
        let found: Vec<String> =
            m.report(Threshold::percent(10.0)).iter().map(|r| r.prefix.to_string()).collect();
        assert!(
            found.iter().any(|p| p == "20.2.2.2/32"),
            "current heavy host missing from {found:?}"
        );
        assert!(
            !found.iter().any(|p| p.starts_with("10.1.1.1")),
            "phase-one host should have slid out of the window: {found:?}"
        );
        // Lifetime total keeps counting; the windowed total doesn't.
        assert_eq!(m.total(), n as u64);
        let wt = m.windowed_total();
        assert!(wt <= 4_000 + 400, "windowed total {wt} exceeds window + frame slack");
    }

    /// With capacity above the distinct-key count the windowed report
    /// matches an exact detector fed only the window's packets
    /// (frame-aligned, so feed exactly the retained span).
    #[test]
    fn matches_exact_on_frame_aligned_window() {
        let h = Ipv4Hierarchy::bytes();
        let window = 1_000;
        let frames = 10;
        let mut m = MementoHhh::new(h, window, frames, 512);
        let stream = two_phase(10_000);
        for &item in &stream {
            m.observe(item, 1);
        }
        // 10_000 is a frame boundary, so the current (retained but
        // empty) frame holds nothing and the live mass is exactly the
        // last `window` packets.
        let span = window;
        let mut exact = ExactHhh::new(h);
        for &item in &stream[stream.len() - span..] {
            exact.observe(item, 1);
        }
        for pct in [5.0, 10.0] {
            let t = Threshold::percent(pct);
            let truth: std::collections::HashSet<_> =
                exact.report(t).into_iter().map(|r| r.prefix).collect();
            let found: std::collections::HashSet<_> =
                m.report(t).into_iter().map(|r| r.prefix).collect();
            assert_eq!(found, truth, "at {pct}%");
        }
        assert_eq!(m.windowed_total(), span as u64);
    }

    #[test]
    fn merge_folds_windows() {
        let h = Ipv4Hierarchy::bytes();
        let mut a = MementoHhh::new(h, 1_000, 10, 128);
        let mut b = MementoHhh::new(h, 1_000, 10, 128);
        for i in 0..500u32 {
            a.observe(0x0A010101, 1);
            b.observe(0x14020202, 1);
            let _ = i;
        }
        a.merge(&b);
        assert_eq!(a.total(), 1_000);
        let found: Vec<String> =
            a.report(Threshold::percent(20.0)).iter().map(|r| r.prefix.to_string()).collect();
        assert!(found.iter().any(|p| p == "10.1.1.1/32"), "{found:?}");
        assert!(found.iter().any(|p| p == "20.2.2.2/32"), "{found:?}");
    }

    #[test]
    fn batch_equals_scalar() {
        let h = Ipv4Hierarchy::bytes();
        let stream: Vec<(u32, u64)> = two_phase(5_000).into_iter().map(|i| (i, 1)).collect();
        let mut scalar = MementoHhh::new(h, 800, 8, 64);
        let mut batched = MementoHhh::new(h, 800, 8, 64);
        for &(item, w) in &stream {
            scalar.observe(item, w);
        }
        for chunk in stream.chunks(333) {
            batched.observe_batch(chunk);
        }
        assert_eq!(scalar.total(), batched.total());
        let t = Threshold::percent(5.0);
        assert_eq!(scalar.report(t), batched.report(t));
    }

    #[test]
    fn reset_clears_and_names() {
        let h = Ipv4Hierarchy::bytes();
        let mut m = MementoHhh::new(h, 100, 5, 16);
        m.observe(42, 9);
        assert!(m.state_bytes() > 0);
        assert_eq!(m.name(), "memento-hhh");
        assert!(m.snapshot().is_none(), "window-native kind has no wire format yet");
        m.reset();
        assert_eq!(m.total(), 0);
        assert_eq!(m.windowed_total(), 0);
        assert!(m.report(Threshold::percent(1.0)).is_empty());
    }
}
