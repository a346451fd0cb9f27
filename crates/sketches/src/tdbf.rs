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
//! between sweeps; the paper's on-demand refinement decays exactly, at
//! any query time, with no sweep. Here every cell is a plain `f64` in
//! *forward-decayed* units against one landmark `L` that the filter's
//! owner keeps (the [`decay`](crate::decay) module derives it): an
//! arrival of weight `w` at `t` adds `w·e^(λ·(t − L))`, and a decayed
//! count at `now` is a cell times `e^(−λ·(now − L))`. Cells never decay
//! in place, so an update is one add per cell, the minimum over cells is
//! the minimum at every instant, and merging is addition — the property
//! that makes the structure "windowless" and cheap.
//!
//! The estimate of a flow with steady rate `r` converges to `r/λ`
//! (see [`DecayRate::steady_state`](crate::DecayRate::steady_state));
//! thresholding decayed counts is thresholding rates, with no window
//! boundary to hide bursts behind.

use crate::hash::{hash_of, reduce, seed_sequence};
use crate::Shrink;
use core::hash::Hash;

/// On-demand time-decaying Bloom filter over forward-decayed cells.
///
/// The cell array is *partitioned*: each of the `k` hash functions
/// owns a private bank of `m` cells (`k·m` cells total). This is the
/// layout a feed-forward match-action pipeline requires (one register
/// array per stage), and keeping the software filter identical makes
/// `hhh-dataplane`'s integer program bit-comparable to this one. At
/// equal total size the partitioned layout's accuracy is within a
/// whisker of the classic shared-array Bloom layout.
///
/// Weights, estimates and cells are all forward values against the
/// owner's landmark: the filter itself never reads a clock.
#[derive(Clone, Debug)]
pub struct OnDemandTdbf<K> {
    /// `k` banks of `m` cells, bank `i` at `i*m..(i+1)*m`.
    cells: Vec<f64>,
    m: usize,
    seeds: Vec<u64>,
    /// The key last inserted, whose `k` cell indexes `last_cells`
    /// holds. Streams often repeat their previous key — every packet at
    /// a hierarchy's root level, a packet train at every level — and a
    /// repeated key skips its `k` hashes.
    last_key: Option<K>,
    last_cells: Vec<usize>,
}

impl<K: Hash + Eq + Copy> OnDemandTdbf<K> {
    /// A filter with `k` hash functions and `m` cells *per hash bank*.
    /// Panics if `m` or `k` is zero.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        Self::from_cells(vec![0.0; m * k], m, k, seed)
    }

    /// A filter over an existing cell array — the deserialization
    /// surface, inverse of [`cells`](Self::cells). The array is used as
    /// it is, not copied. The geometry and hash seed must be the ones
    /// the cells were built under; only the length is checkable here.
    /// Panics if `m` or `k` is zero or `cells` is not `k·m` long.
    pub fn from_cells(cells: Vec<f64>, m: usize, k: usize, seed: u64) -> Self {
        assert!(m > 0 && k > 0, "TDBF parameters must be non-zero");
        assert_eq!(Some(cells.len()), m.checked_mul(k), "TDBF cell-count mismatch");
        OnDemandTdbf {
            cells,
            m,
            seeds: seed_sequence(seed, k),
            last_key: None,
            last_cells: vec![0; k],
        }
    }

    /// Heap footprint of the cell array in bytes.
    pub fn state_bytes(&self) -> usize {
        self.cells.len() * core::mem::size_of::<f64>()
    }

    #[inline]
    fn cell_index(&self, key: &K, i: usize) -> usize {
        i * self.m + reduce(hash_of(key, self.seeds[i]), self.m)
    }

    /// The indexes in [`cells`](Self::cells) of `key`'s `k` cells, one
    /// per bank.
    pub fn cell_indexes<'a>(&'a self, key: &'a K) -> impl Iterator<Item = usize> + 'a {
        (0..self.seeds.len()).map(move |i| self.cell_index(key, i))
    }

    /// Add the forward weight `weight` to `key`'s `k` cells and return
    /// the key's forward estimate: the minimum of the cells just
    /// written, the very bits a following [`estimate`](Self::estimate)
    /// returns. The key is hashed only when it is not the key inserted
    /// last. O(k), no allocation, no `exp`.
    #[inline]
    pub fn insert(&mut self, key: &K, weight: f64) -> f64 {
        if self.last_key.as_ref() != Some(key) {
            for i in 0..self.seeds.len() {
                self.last_cells[i] = self.cell_index(key, i);
            }
            self.last_key = Some(*key);
        }
        let mut est = f64::INFINITY;
        for &c in &self.last_cells {
            let cell = &mut self.cells[c];
            *cell += weight;
            est = est.min(*cell);
        }
        est
    }

    /// The forward estimate for `key`: the minimum over its cells, an
    /// upper bound on the key's own forward value. Times the owner's
    /// decay factor it is the key's decayed count.
    #[inline]
    pub fn estimate(&self, key: &K) -> f64 {
        let mut est = f64::INFINITY;
        for i in 0..self.seeds.len() {
            est = est.min(self.cells[self.cell_index(key, i)]);
        }
        est
    }

    /// Multiply every cell by `by`: how the owner moves its landmark.
    pub fn scale(&mut self, by: Shrink) {
        self.cells.iter_mut().for_each(|c| *c = by.apply(*c));
    }

    /// The forward cell array (`k` banks of `m` cells, bank `i` at
    /// `i*m..(i+1)*m`) — the serialization surface of the filter.
    /// Together with the constructor parameters (`m`, `k`, seed) and
    /// the owner's landmark this is the filter's entire state.
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Merge another filter over a *disjoint* sub-stream into this one:
    /// each cell gains the other's times `by` — [`Shrink::ONE`] when
    /// both filters share a landmark, which makes the merge plain
    /// addition, and `e^(−λ·Δ)` when the other's landmark is `Δ` older.
    /// Panics unless geometry and seeds match.
    ///
    /// Decay is linear over arrivals, so per-cell sums — and therefore
    /// the min-over-banks estimates built from them — behave exactly as
    /// if the two packet streams had been interleaved into one filter:
    /// estimates never under-report a key's decayed count.
    pub fn merge(&mut self, other: &Self, by: Shrink) {
        assert_eq!(self.m, other.m, "TDBF geometry mismatch");
        assert_eq!(self.seeds, other.seeds, "TDBF seed mismatch");
        let pairs = self.cells.iter_mut().zip(&other.cells);
        if by == Shrink::ONE {
            pairs.for_each(|(a, b)| *a += b);
        } else {
            pairs.for_each(|(a, b)| *a += by.apply(*b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecayRate, Landmark};
    use hhh_nettypes::{Nanos, TimeSpan};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn at_zero(secs: u64) -> Landmark {
        Landmark::new(DecayRate::from_half_life(TimeSpan::from_secs(secs)), Nanos::ZERO)
    }

    #[test]
    fn on_demand_single_key_decays_exactly() {
        let l = at_zero(10);
        let mut f = OnDemandTdbf::<u64>::new(1024, 3, 1);
        f.insert(&7, 100.0 * l.growth(Nanos::ZERO));
        let v = f.estimate(&7) * l.decay(Nanos::from_secs(10));
        assert!((v - 50.0).abs() < 1e-9, "one half-life: {v}");
        let v = f.estimate(&7) * l.decay(Nanos::from_secs(30));
        assert!((v - 12.5).abs() < 1e-9, "three half-lives: {v}");
    }

    #[test]
    fn on_demand_never_underestimates() {
        // Against each key's closed form Σ w·e^(−λ(t − tᵢ)).
        let l = at_zero(5);
        let mut f = OnDemandTdbf::<u64>::new(256, 4, 2);
        let mut arrivals: HashMap<u64, Vec<Nanos>> = HashMap::new();
        let mut t = Nanos::ZERO;
        for i in 0..5_000u64 {
            let key = i % 100;
            f.insert(&key, l.growth(t));
            arrivals.entry(key).or_default().push(t);
            t += TimeSpan::from_millis(3);
        }
        for (k, times) in &arrivals {
            let est = f.estimate(k) * l.decay(t);
            let truth: f64 = times.iter().map(|&ti| l.rate().factor(t - ti)).sum();
            assert!(est >= truth - 1e-6, "TDBF underestimated key {k}: est {est} < truth {truth}");
        }
    }

    #[test]
    fn on_demand_burst_visible_immediately() {
        // The windowless property: a burst is visible at any query time,
        // no boundary alignment required.
        let l = at_zero(10);
        let mut f = OnDemandTdbf::<u64>::new(512, 3, 3);
        let burst_start = Nanos::from_millis(7_300); // deliberately unaligned
        for i in 0..100 {
            f.insert(&99, 10.0 * l.growth(burst_start + TimeSpan::from_millis(i)));
        }
        let just_after = burst_start + TimeSpan::from_millis(150);
        assert!(f.estimate(&99) * l.decay(just_after) > 900.0);
        // And it fades: after 5 half-lives, under 1/32 + ε of peak (the
        // burst itself spans ~0.1 s, negligible vs the 50 s horizon).
        let later = just_after + TimeSpan::from_secs(50);
        assert!(f.estimate(&99) * l.decay(later) < 1000.0 / 30.0);
    }

    #[test]
    fn on_demand_estimate_tracks_flow_rate() {
        let l = at_zero(20);
        let mut f = OnDemandTdbf::<u64>::new(4096, 4, 4);
        // 200 weight/sec for 120 s (several half-lives to converge).
        let mut t = Nanos::ZERO;
        for _ in 0..24_000 {
            f.insert(&1, l.growth(t));
            t += TimeSpan::from_millis(5);
        }
        let r = f.estimate(&1) * l.decay(t) * l.rate().lambda();
        assert!((r - 200.0).abs() / 200.0 < 0.05, "rate estimate {r} vs 200");
    }

    #[test]
    fn state_accounting() {
        let od = OnDemandTdbf::<u64>::new(100, 4, 0);
        assert_eq!(od.state_bytes(), 400 * 8); // 4 banks × 100 cells, one f64 each
    }

    #[test]
    fn from_cells_takes_the_array_as_it_is() {
        let mut f = OnDemandTdbf::<u64>::new(32, 3, 9);
        for key in 0..40u64 {
            f.insert(&key, key as f64);
        }
        let g = OnDemandTdbf::<u64>::from_cells(f.cells().to_vec(), 32, 3, 9);
        assert_eq!(g.cells(), f.cells());
        for key in 0..50u64 {
            assert_eq!(g.estimate(&key).to_bits(), f.estimate(&key).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "cell-count mismatch")]
    fn from_cells_rejects_a_short_array() {
        let _ = OnDemandTdbf::<u64>::from_cells(vec![0.0; 95], 32, 3, 0);
    }

    #[test]
    fn merge_adds_and_scales_the_other_side() {
        let (mut a, mut b) =
            (OnDemandTdbf::<u64>::new(16, 2, 5), OnDemandTdbf::<u64>::new(16, 2, 5));
        a.insert(&1, 3.0);
        b.insert(&1, 4.0);
        b.insert(&2, 8.0);
        let mut c = a.clone();
        a.merge(&b, Shrink::ONE);
        assert_eq!(a.estimate(&1), 7.0);
        c.merge(&b, Shrink::of(2f64.ln()));
        assert!((c.estimate(&1) - 5.0).abs() < 1e-12);
        assert!(c.estimate(&2) >= 4.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fused insert: after each insert, its return value is a
        /// following `estimate` bit for bit, and every cell is the sum
        /// of the weights hashed to it — on streams with zero weights
        /// and a filter small enough for keys to share cells.
        #[test]
        fn insert_returns_the_estimate_and_adds_to_every_cell(
            ops in prop::collection::vec((0u64..24, 0.0f64..500.0, 0u64..4), 1..400),
            m in 1usize..40,
            k in 1usize..6,
            seed in 0u64..1_000,
        ) {
            let mut f = OnDemandTdbf::<u64>::new(m, k, seed);
            let mut reference = vec![0.0f64; m * k];
            for (key, w, zero) in ops {
                let weight = if zero == 0 { 0.0 } else { w };
                let est = f.insert(&key, weight);
                prop_assert_eq!(est.to_bits(), f.estimate(&key).to_bits());
                for c in f.cell_indexes(&key) {
                    reference[c] += weight;
                }
                for (c, (got, want)) in f.cells().iter().zip(&reference).enumerate() {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "cell {} after key {}", c, key);
                }
            }
        }
    }
}
