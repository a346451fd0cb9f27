//! Sliding-window frequent items over the last `W` *items*:
//! [`SlidingSummary`], in the spirit of Memento (Ben Basat, Einziger,
//! Friedman, Luizelli, Waisbard, CoNEXT 2018) and of the frame-based
//! WCSS it builds on (Ben-Basat, Einziger, Friedman, Kassner, "Heavy
//! hitters in streams and sliding windows", INFOCOM 2016 — the paper's
//! reference [1]).
//!
//! As in WCSS, the stream is cut into frames of `⌈W/frames⌉` items, and
//! a query sums a key's per-frame counts over the frames that overlap
//! the window. Two error sources, both bounded and both reported by
//! [`SlidingSummary::error_bound`]:
//!
//! * Misra-Gries undercount, from the decrement passes a full table
//!   runs;
//! * window granularity: the oldest frame may straddle the window edge,
//!   contributing up to `frame_len` items that are older than `W`.
//!
//! As in Memento, there is one shared counter table, where each counter
//! carries per-frame sub-counts stamped with their frame number and
//! window expiry happens *lazily* — a frame boundary is a single global
//! counter bump, never a scan, and stale sub-counts are skipped at
//! query time and reclaimed the next time their counter is touched.

use core::hash::Hash;
use std::collections::HashMap;

/// One per-frame sub-count of a tracked key, stamped with the frame it
/// belongs to. A sub-count is *live* when its frame is within the
/// retained span; anything older is ignored at query time and
/// overwritten the next time its ring slot is reused.
#[derive(Clone, Copy, Debug, Default)]
struct FrameCount {
    frame: u64,
    count: u64,
}

#[derive(Clone, Debug)]
struct SlidingEntry<K> {
    key: K,
    /// Sub-count for frame `f` lives at slot `f % ring.len()`.
    ring: Box<[FrameCount]>,
}

/// Memento-style sliding-window frequent-items summary: O(1) updates,
/// query-time expiry.
///
/// The window is the last `window` items, cut into frames of
/// `⌈window/frames⌉` items; the oldest retained frame may straddle the
/// window edge. The execution strategy:
///
/// * **One shared table** of `capacity` keys instead of WCSS's
///   per-frame summaries; each tracked key carries a ring of per-frame sub-counts
///   stamped with their frame number.
/// * **O(1) update**: a hit increments one ring slot; a frame boundary
///   bumps one global counter (no scan, no allocation, no frame
///   rotation). Only a miss against a full table pays more — the
///   Misra-Gries global decrement, O(capacity × frames) but amortized
///   O(1) because each decrement pass consumes at least `capacity + 1`
///   units of retained mass.
/// * **Query-time expiry**: nothing is evicted when the window slides;
///   estimates simply skip sub-counts whose frame has left the retained
///   span, and a stale slot is reclaimed when its ring position is next
///   written.
///
/// Estimates are under-estimates, like Misra-Gries: each per-frame
/// sub-count never exceeds the key's true count in that frame, so any
/// window sum never exceeds the frame-aligned truth. With `capacity` at
/// least the number of distinct keys in the retained span the summary
/// is exact per frame: every estimate equals the frame-aligned truth
/// (pinned by tests).
#[derive(Clone, Debug)]
pub struct SlidingSummary<K> {
    window: usize,
    frame_len: usize,
    capacity: usize,
    /// Retained frames: `(cur_frame - ring_len, cur_frame]`, the
    /// `⌈window/frame_len⌉` frames that cover the window plus one.
    ring_len: usize,
    cur_frame: u64,
    in_current: usize,
    items_seen: u64,
    /// Total mass removed by decrement passes (error accounting).
    decremented: u64,
    slots: HashMap<K, usize>,
    entries: Vec<SlidingEntry<K>>,
}

impl<K: Hash + Eq + Copy> SlidingSummary<K> {
    /// A summary over a window of `window` items, split into `frames`
    /// frames, tracking at most `capacity` keys. Panics if any
    /// parameter is zero or `frames > window`.
    pub fn new(window: usize, frames: usize, capacity: usize) -> Self {
        assert!(window > 0 && frames > 0 && capacity > 0, "parameters must be non-zero");
        assert!(frames <= window, "cannot have more frames than window items");
        let frame_len = window.div_ceil(frames);
        SlidingSummary {
            window,
            frame_len,
            capacity,
            ring_len: window.div_ceil(frame_len) + 1,
            cur_frame: 0,
            in_current: 0,
            items_seen: 0,
            decremented: 0,
            slots: HashMap::with_capacity(capacity + 1),
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The window length in items.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Items per frame.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Maximum number of tracked keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total items observed (not just those in the window).
    pub fn items_seen(&self) -> u64 {
        self.items_seen
    }

    /// Currently tracked keys (live or awaiting lazy reclamation).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Observe one item. The window is item-counted (as in WCSS), so
    /// the plain insert is unweighted.
    #[inline]
    pub fn insert(&mut self, key: K) {
        self.insert_weighted(key, 1);
    }

    /// Observe one item carrying `weight` units of mass (e.g. bytes).
    /// The window still slides by *items*: one insert advances the
    /// window by one position regardless of weight.
    #[inline]
    pub fn insert_weighted(&mut self, key: K, weight: u64) {
        self.items_seen += 1;
        self.add_mass(key, weight);
        self.in_current += 1;
        // Frame boundary: one global bump, no scan — the frame sliding
        // out of the retained span expires lazily at query time. The
        // bump happens as the frame *fills* (not on the next insert), so
        // the oldest frame leaves the retained span at that instant: a
        // query between the fill and the next insert no longer sees it.
        if self.in_current == self.frame_len {
            self.cur_frame += 1;
            self.in_current = 0;
        }
    }

    /// Account `weight` to `key` in the current frame without advancing
    /// the window (the merge path drops foreign mass in here).
    fn add_mass(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        if let Some(&i) = self.slots.get(&key) {
            let cur = self.cur_frame;
            let slot = &mut self.entries[i].ring[(cur % self.ring_len as u64) as usize];
            if slot.frame == cur {
                slot.count += weight;
            } else {
                // Reclaim the stale sub-count that lived here.
                *slot = FrameCount { frame: cur, count: weight };
            }
            return;
        }
        if self.entries.len() < self.capacity {
            let mut ring = vec![FrameCount::default(); self.ring_len].into_boxed_slice();
            ring[(self.cur_frame % self.ring_len as u64) as usize] =
                FrameCount { frame: self.cur_frame, count: weight };
            self.slots.insert(key, self.entries.len());
            self.entries.push(SlidingEntry { key, ring });
            return;
        }
        self.decrement_pass(key, weight);
    }

    /// Miss against a full table: the Misra-Gries move, windowed.
    /// First reclaim entries whose retained mass has fully expired; if
    /// that freed a slot the new key simply takes it. Otherwise
    /// decrement every live entry (and the incoming weight) by the
    /// minimum live mass, evicting entries that reach zero.
    fn decrement_pass(&mut self, key: K, weight: u64) {
        let mut min_live = u64::MAX;
        let mut i = 0;
        while i < self.entries.len() {
            let live = self.live_count(&self.entries[i]);
            if live == 0 {
                self.evict(i);
            } else {
                min_live = min_live.min(live);
                i += 1;
            }
        }
        if self.entries.len() < self.capacity {
            // Expired entries made room; no decrement needed.
            self.add_mass(key, weight);
            return;
        }
        let d = min_live.min(weight);
        let mut i = 0;
        while i < self.entries.len() {
            self.subtract(i, d);
            if self.live_count(&self.entries[i]) == 0 {
                self.evict(i);
            } else {
                i += 1;
            }
        }
        self.decremented += d * (self.capacity as u64 + 1);
        let rest = weight - d;
        if rest > 0 {
            self.add_mass(key, rest);
        }
    }

    /// Remove `d` units from an entry's live mass, newest frames first
    /// (each sub-count stays ≥ 0, so per-frame counts remain
    /// under-estimates of the per-frame truth).
    fn subtract(&mut self, i: usize, d: u64) {
        let rl = self.ring_len as u64;
        let mut rem = d;
        for back in 0..rl {
            if rem == 0 {
                break;
            }
            let Some(f) = self.cur_frame.checked_sub(back) else {
                break;
            };
            let slot = &mut self.entries[i].ring[(f % rl) as usize];
            if slot.frame == f && slot.count > 0 {
                let take = rem.min(slot.count);
                slot.count -= take;
                rem -= take;
            }
        }
    }

    fn evict(&mut self, i: usize) {
        let e = self.entries.swap_remove(i);
        self.slots.remove(&e.key);
        if let Some(moved) = self.entries.get(i) {
            *self.slots.get_mut(&moved.key).expect("moved key is tracked") = i;
        }
    }

    /// An entry's mass within the retained frame span.
    fn live_count(&self, e: &SlidingEntry<K>) -> u64 {
        let rl = self.ring_len as u64;
        e.ring
            .iter()
            .filter(|s| s.count > 0 && s.frame + rl > self.cur_frame)
            .map(|s| s.count)
            .sum()
    }

    /// Estimated mass of `key` over the retained span (an
    /// under-estimate; see [`Self::error_bound`]). Expiry happens here,
    /// read-only: stale sub-counts are skipped, not removed.
    pub fn estimate(&self, key: &K) -> u64 {
        match self.slots.get(key) {
            Some(&i) => self.live_count(&self.entries[i]),
            None => 0,
        }
    }

    /// Live `(key, windowed estimate)` pairs, unordered, zero estimates
    /// skipped.
    pub fn live_entries(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.entries.iter().filter_map(|e| {
            let c = self.live_count(e);
            (c > 0).then_some((e.key, c))
        })
    }

    /// The maximum by which [`Self::estimate`] can deviate from the
    /// true windowed count, in either direction: undercount from
    /// decrement passes (each consumes `capacity + 1` units of retained
    /// mass, which regenerates at one unit per item, so passes touching
    /// the current window are bounded by the retained span over
    /// `capacity + 1`) plus the frame-granularity slack: the oldest
    /// retained frame may hold up to `frame_len` items older than the
    /// window.
    pub fn error_bound(&self) -> u64 {
        let span = (self.ring_len * self.frame_len) as u64;
        2 * span / (self.capacity as u64 + 1) + self.frame_len as u64
    }

    /// Keys whose windowed estimate meets `threshold`, descending by
    /// count (ties broken by key for reproducible output).
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        let mut out: Vec<_> = self.live_entries().filter(|(_, c)| *c >= threshold).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0).reverse()));
        out
    }

    /// Fold another summary's live mass into this one. The two
    /// summaries' frame clocks are independent (each counts its own
    /// items), so the foreign mass lands in *this* summary's current
    /// frame — it is treated as recent, and expires on this summary's
    /// clock. Approximate by construction; estimates remain
    /// under-estimates of the combined frame-aligned truth. Requires
    /// `K: Ord` so the fold order (and therefore any decrement passes)
    /// is deterministic. Panics on configuration mismatch.
    pub fn merge(&mut self, other: &Self)
    where
        K: Ord,
    {
        assert_eq!(self.window, other.window, "window mismatch");
        assert_eq!(self.frame_len, other.frame_len, "frame length mismatch");
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut live: Vec<(K, u64)> = other.live_entries().collect();
        live.sort_unstable();
        for (k, c) in live {
            self.add_mass(k, c);
        }
        self.items_seen += other.items_seen;
        self.decremented += other.decremented;
    }

    /// Approximate memory footprint in bytes.
    pub fn state_bytes(&self) -> usize {
        use core::mem::size_of;
        self.entries.len()
            * (size_of::<SlidingEntry<K>>() + self.ring_len * size_of::<FrameCount>())
            + self.slots.len() * (size_of::<K>() + size_of::<usize>())
    }

    /// Drop all state.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.entries.clear();
        self.cur_frame = 0;
        self.in_current = 0;
        self.items_seen = 0;
        self.decremented = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque as Dq;

    /// Exact sliding-window counter for cross-checking.
    struct ExactWindow {
        window: usize,
        items: Dq<u64>,
    }

    impl ExactWindow {
        fn new(window: usize) -> Self {
            ExactWindow { window, items: Dq::new() }
        }
        fn insert(&mut self, k: u64) {
            self.items.push_back(k);
            if self.items.len() > self.window {
                self.items.pop_front();
            }
        }
        fn count(&self, k: u64) -> u64 {
            self.items.iter().filter(|&&x| x == k).count() as u64
        }
    }

    /// With capacity for every key the summary is exact per frame, so
    /// every estimate equals the frame-aligned truth: the key's count
    /// over the retained frames, the oldest of which may straddle the
    /// window edge.
    #[test]
    fn exact_when_capacity_covers_every_key() {
        let (window, frames) = (100, 5);
        let mut s = SlidingSummary::<u64>::new(window, frames, 64);
        // One count map per retained frame, newest at the back, rotated
        // as each frame fills — the instant `insert` bumps the frame.
        let frame_len = s.frame_len() as u64;
        let retained = window.div_ceil(s.frame_len()) + 1;
        let mut truth: Dq<HashMap<u64, u64>> = Dq::from([HashMap::new()]);
        for i in 0..1000u64 {
            let k = (i * i + i / 7) % 23; // 23 distinct keys < capacity
            s.insert(k);
            *truth.back_mut().unwrap().entry(k).or_default() += 1;
            if (i + 1) % frame_len == 0 {
                truth.push_back(HashMap::new());
                if truth.len() > retained {
                    truth.pop_front();
                }
            }
            if i % 37 == 0 {
                let count = |k: u64| truth.iter().filter_map(|f| f.get(&k)).sum::<u64>();
                for k in 0..23u64 {
                    assert_eq!(s.estimate(&k), count(k), "key {k} at item {i}");
                }
                let mut hh: Vec<(u64, u64)> =
                    (0..23).map(|k| (k, count(k))).filter(|&(_, c)| c >= 5).collect();
                hh.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| b.0.cmp(&a.0)));
                assert_eq!(s.heavy_hitters(5), hh, "item {i}");
            }
        }
    }

    #[test]
    fn lazy_tracks_windowed_counts_within_bound() {
        let window = 1000;
        let mut s = SlidingSummary::<u64>::new(window, 10, 50);
        let mut exact = ExactWindow::new(window);
        for i in 0..3000u64 {
            let k = if i < 1500 {
                if i % 2 == 0 {
                    1
                } else {
                    i
                }
            } else if i % 2 == 0 {
                2
            } else {
                i
            };
            s.insert(k);
            exact.insert(k);
        }
        let bound = s.error_bound() + s.frame_len() as u64;
        for k in [1u64, 2] {
            let est = s.estimate(&k);
            let t = exact.count(k);
            assert!(est.abs_diff(t) <= bound, "key {k}: est {est} truth {t} bound {bound}");
        }
        assert!(s.estimate(&1) <= bound);
        let hh = s.heavy_hitters(window as u64 / 4);
        assert_eq!(hh.first().map(|e| e.0), Some(2));
    }

    /// Expiry is lazy: nothing is scanned when the window slides, but
    /// queries must not see aged-out traffic.
    #[test]
    fn lazy_old_traffic_expires_at_query_time() {
        let mut s = SlidingSummary::<u64>::new(100, 5, 10);
        for _ in 0..100 {
            s.insert(7);
        }
        assert!(s.estimate(&7) >= 80);
        for i in 0..200u64 {
            s.insert(1000 + i % 7);
        }
        assert_eq!(s.estimate(&7), 0, "key 7 should have aged out completely");
        // Key 7's entry may still be resident awaiting reclamation —
        // that is the point of lazy expiry.
    }

    /// The table never exceeds capacity and heavy keys survive
    /// decrement pressure (the windowed Misra-Gries guarantee).
    #[test]
    fn lazy_capacity_bounded_and_heavy_survives() {
        let mut s = SlidingSummary::<u64>::new(200, 4, 8);
        for i in 0..4000u64 {
            // Key 42 gets half the stream, the rest is a churn of fresh keys.
            s.insert(if i % 2 == 0 { 42 } else { i });
            assert!(s.len() <= 8, "table grew past capacity");
        }
        assert!(s.estimate(&42) > 0, "majority key evicted");
    }

    #[test]
    fn lazy_weighted_inserts_and_state() {
        let mut s = SlidingSummary::<u64>::new(10, 2, 4);
        s.insert_weighted(1, 500);
        s.insert_weighted(2, 300);
        assert_eq!(s.estimate(&1), 500);
        assert_eq!(s.estimate(&2), 300);
        assert_eq!(s.items_seen(), 2);
        assert!(s.state_bytes() > 0);
        s.clear();
        assert_eq!(s.estimate(&1), 0);
        assert!(s.is_empty());
        assert_eq!(s.items_seen(), 0);
    }

    /// Merged mass lands in the receiver's current frame and expires on
    /// the receiver's clock.
    #[test]
    fn lazy_merge_folds_live_mass() {
        let mut a = SlidingSummary::<u64>::new(100, 5, 16);
        let mut b = SlidingSummary::<u64>::new(100, 5, 16);
        for _ in 0..50 {
            a.insert(1);
            b.insert(2);
        }
        a.merge(&b);
        assert_eq!(a.estimate(&1), 50);
        assert_eq!(a.estimate(&2), 50);
        // Slide a's window past the merged mass.
        for i in 0..250u64 {
            a.insert(1000 + i % 3);
        }
        assert_eq!(a.estimate(&2), 0, "merged mass should expire");
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn lazy_merge_rejects_mismatch() {
        let mut a = SlidingSummary::<u64>::new(100, 5, 16);
        let b = SlidingSummary::<u64>::new(100, 5, 8);
        a.merge(&b);
    }

    /// Estimates never overestimate the frame-aligned truth, under
    /// heavy eviction pressure and across many window positions.
    #[test]
    fn lazy_never_overestimates_frame_truth() {
        let mut s = SlidingSummary::<u64>::new(60, 3, 5);
        // Frame-aligned truth over the retained span (ring_len frames).
        let mut per_frame: Dq<std::collections::HashMap<u64, u64>> = Dq::new();
        per_frame.push_back(Default::default());
        let frame_len = s.frame_len();
        let retained = 60usize.div_ceil(frame_len) + 1;
        let mut in_cur = 0usize;
        for i in 0..5000u64 {
            let k = (i * 7 + i % 13) % 40;
            if in_cur == frame_len {
                per_frame.push_back(Default::default());
                if per_frame.len() > retained {
                    per_frame.pop_front();
                }
                in_cur = 0;
            }
            in_cur += 1;
            *per_frame.back_mut().unwrap().entry(k).or_default() += 1;
            s.insert(k);
            if i % 97 == 0 {
                for k in 0..40u64 {
                    let truth: u64 =
                        per_frame.iter().map(|f| f.get(&k).copied().unwrap_or(0)).sum();
                    assert!(
                        s.estimate(&k) <= truth,
                        "overestimate for {k} at item {i}: {} > {truth}",
                        s.estimate(&k)
                    );
                }
            }
        }
    }
}
