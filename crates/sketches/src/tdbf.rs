//! Time-decaying Bloom filters — the proof-of-concept streaming
//! structure the paper's §3 proposes (Bianchi, d'Heureuse, Niccolini,
//! "On-demand Time-decaying Bloom Filters for Telemarketer Detection",
//! CCR 2011).
//!
//! [`OnDemandTdbf`] keeps an array of `m` *cells* addressed by `k`
//! hashes, like a Bloom filter, but each cell holds an exponentially
//! decayed count instead of a bit. A key's estimate is the **minimum**
//! over its `k` cells (CMS-style), so collisions only ever *inflate* the
//! estimate: the filter never under-reports a flow's decayed rate.
//!
//! The base design decays plain cells by a periodic multiplicative sweep
//! over the whole array, an O(m) hiccup that over-weights old traffic
//! between sweeps; the paper's on-demand refinement, the one here, gives
//! each cell its own last-touch timestamp and decays it *lazily* exactly
//! when read or written. No sweeps, no hiccups, exact exponential decay
//! at any query time — the property that makes the structure
//! "windowless".
//!
//! The estimate of a flow with steady rate `r` converges to `r/λ`
//! (see [`DecayRate::steady_state`]); thresholding decayed counts is
//! thresholding rates, with no window boundary to hide bursts behind.

use crate::decay::{DecayRate, DecayedCounter};
use crate::hash::{hash_of, reduce, seed_sequence};
use core::hash::Hash;
use core::marker::PhantomData;
use hhh_nettypes::Nanos;

/// On-demand (lazily decayed) time-decaying Bloom filter.
///
/// The cell array is *partitioned*: each of the `k` hash functions
/// owns a private bank of `m` cells (`k·m` cells total). This is the
/// layout a feed-forward match-action pipeline requires (one register
/// array per stage), and keeping the software filter identical makes
/// `hhh-dataplane`'s integer program bit-comparable to this one. At
/// equal total size the partitioned layout's accuracy is within a
/// whisker of the classic shared-array Bloom layout.
#[derive(Clone, Debug)]
pub struct OnDemandTdbf<K> {
    /// `k` banks of `m` cells, bank `i` at `i*m..(i+1)*m`.
    cells: Vec<DecayedCounter>,
    m: usize,
    seeds: Vec<u64>,
    rate: DecayRate,
    _key: PhantomData<K>,
}

impl<K: Hash + Eq> OnDemandTdbf<K> {
    /// A filter with `k` hash functions, `m` cells *per hash bank*,
    /// and a decay rate. Panics if `m` or `k` is zero.
    pub fn new(m: usize, k: usize, rate: DecayRate, seed: u64) -> Self {
        assert!(m > 0 && k > 0, "TDBF parameters must be non-zero");
        OnDemandTdbf {
            cells: vec![DecayedCounter::new(); m * k],
            m,
            seeds: seed_sequence(seed, k),
            rate,
            _key: PhantomData,
        }
    }

    /// The decay rate.
    pub fn rate(&self) -> DecayRate {
        self.rate
    }

    /// Total number of cells (`k` banks × `m` cells).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of hash functions.
    pub fn hashes(&self) -> usize {
        self.seeds.len()
    }

    /// Heap footprint of the cell array in bytes.
    pub fn state_bytes(&self) -> usize {
        self.cells.len() * core::mem::size_of::<DecayedCounter>()
    }

    #[inline]
    fn cell_index(&self, key: &K, i: usize) -> usize {
        i * self.m + reduce(hash_of(key, self.seeds[i]), self.m)
    }

    /// Record `weight` for `key` at trace time `now`.
    ///
    /// Each of the key's `k` cells is decayed to `now` and incremented;
    /// the cell's timestamp advances. O(k), no allocation.
    #[inline]
    pub fn insert(&mut self, key: &K, weight: f64, now: Nanos) {
        for i in 0..self.seeds.len() {
            let c = self.cell_index(key, i);
            self.cells[c].add(self.rate, now, weight);
        }
    }

    /// The decayed-count estimate for `key` as of `now`: minimum over
    /// its cells, an upper bound on the key's true decayed count.
    #[inline]
    pub fn estimate(&self, key: &K, now: Nanos) -> f64 {
        let mut est = f64::INFINITY;
        for i in 0..self.seeds.len() {
            let c = self.cell_index(key, i);
            est = est.min(self.cells[c].peek(self.rate, now));
        }
        est
    }

    /// Estimate divided by the steady-state factor: the implied *rate*
    /// (weight per second) of the key, the quantity thresholds are
    /// naturally expressed in.
    pub fn rate_estimate(&self, key: &K, now: Nanos) -> f64 {
        self.estimate(key, now) * self.rate.lambda()
    }

    /// Reset every cell.
    pub fn clear(&mut self) {
        self.cells.iter_mut().for_each(|c| c.clear());
    }

    /// The raw cell array (`k` banks of `m` cells, bank `i` at
    /// `i*m..(i+1)*m`) — the serialization surface of the filter.
    /// Together with the constructor parameters (`m`, `k`, rate, seed)
    /// this is the filter's entire state.
    pub fn cells(&self) -> &[DecayedCounter] {
        &self.cells
    }

    /// Replace the whole cell array (the deserialization surface,
    /// inverse of [`cells`](Self::cells)). The filter must have been
    /// constructed with the same geometry, hash seed and decay rate as
    /// the one the cells came from; only the length is checkable here
    /// and it panics on mismatch.
    pub fn restore_cells(&mut self, cells: Vec<DecayedCounter>) {
        assert_eq!(cells.len(), self.cells.len(), "TDBF cell-count mismatch");
        self.cells = cells;
    }

    /// Merge another filter over a *disjoint* sub-stream into this one.
    /// Panics unless geometry, seeds and decay rate match.
    ///
    /// Cell-wise: each pair of cells is decayed to the later of the two
    /// last-touch timestamps and summed ([`DecayedCounter::merge`]).
    /// Decay is linear over arrivals, so per-cell sums — and therefore
    /// the min-over-banks estimates built from them — behave exactly as
    /// if the two packet streams had been interleaved into one filter:
    /// estimates never under-report a key's decayed count.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.m, other.m, "TDBF geometry mismatch");
        assert_eq!(self.seeds, other.seeds, "TDBF seed mismatch");
        assert_eq!(self.rate, other.rate, "TDBF decay-rate mismatch");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.merge(self.rate, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_nettypes::TimeSpan;

    fn hl(secs: u64) -> DecayRate {
        DecayRate::from_half_life(TimeSpan::from_secs(secs))
    }

    #[test]
    fn on_demand_single_key_decays_exactly() {
        let mut f = OnDemandTdbf::<u64>::new(1024, 3, hl(10), 1);
        f.insert(&7, 100.0, Nanos::ZERO);
        let v = f.estimate(&7, Nanos::from_secs(10));
        assert!((v - 50.0).abs() < 1e-9, "one half-life: {v}");
        let v = f.estimate(&7, Nanos::from_secs(30));
        assert!((v - 12.5).abs() < 1e-9, "three half-lives: {v}");
    }

    #[test]
    fn on_demand_never_underestimates() {
        // Compare against per-key exact decayed counters.
        let rate = hl(5);
        let mut f = OnDemandTdbf::<u64>::new(256, 4, rate, 2);
        let mut exact: std::collections::HashMap<u64, DecayedCounter> = Default::default();
        let mut t = Nanos::ZERO;
        for i in 0..5_000u64 {
            let key = i % 100;
            f.insert(&key, 1.0, t);
            exact.entry(key).or_default().add(rate, t, 1.0);
            t += TimeSpan::from_millis(3);
        }
        for (k, c) in &exact {
            let est = f.estimate(k, t);
            let truth = c.peek(rate, t);
            assert!(est >= truth - 1e-6, "TDBF underestimated key {k}: est {est} < truth {truth}");
        }
    }

    #[test]
    fn on_demand_burst_visible_immediately() {
        // The windowless property: a burst is visible at any query time,
        // no boundary alignment required.
        let mut f = OnDemandTdbf::<u64>::new(512, 3, hl(10), 3);
        let burst_start = Nanos::from_millis(7_300); // deliberately unaligned
        for i in 0..100 {
            f.insert(&99, 10.0, burst_start + TimeSpan::from_millis(i));
        }
        let just_after = burst_start + TimeSpan::from_millis(150);
        assert!(f.estimate(&99, just_after) > 900.0);
        // And it fades: after 5 half-lives, under 1/32 + ε of peak (the
        // burst itself spans ~0.1 s, negligible vs the 50 s horizon).
        assert!(f.estimate(&99, just_after + TimeSpan::from_secs(50)) < 1000.0 / 30.0);
    }

    #[test]
    fn on_demand_rate_estimate_tracks_flow_rate() {
        let rate = hl(20);
        let mut f = OnDemandTdbf::<u64>::new(4096, 4, rate, 4);
        // 200 weight/sec for 120 s (several half-lives to converge).
        let mut t = Nanos::ZERO;
        for _ in 0..24_000 {
            f.insert(&1, 1.0, t);
            t += TimeSpan::from_millis(5);
        }
        let r = f.rate_estimate(&1, t);
        assert!((r - 200.0).abs() / 200.0 < 0.05, "rate estimate {r} vs 200");
    }

    #[test]
    fn clear_resets_every_cell() {
        let mut od = OnDemandTdbf::<u64>::new(64, 2, hl(1), 7);
        od.insert(&1, 5.0, Nanos::from_secs(1));
        od.clear();
        assert_eq!(od.estimate(&1, Nanos::from_secs(1)), 0.0);
    }

    #[test]
    fn state_accounting() {
        let od = OnDemandTdbf::<u64>::new(100, 4, hl(1), 0);
        assert_eq!(od.cell_count(), 400); // 4 banks × 100 cells
        assert_eq!(od.hashes(), 4);
        assert_eq!(od.state_bytes(), 400 * 16); // f64 + Nanos per cell
    }
}
