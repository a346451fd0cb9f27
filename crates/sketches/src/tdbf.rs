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

use crate::decay::{DecayFactors, DecayRate, DecayedCounter};
use crate::hash::{hash_of, reduce, seed_sequence};
use core::hash::Hash;
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
    /// The key last inserted, whose `k` cell indexes `last_cells`
    /// holds. Streams often repeat their previous key — every packet at
    /// a hierarchy's root level, a packet train at every level — and a
    /// repeated key skips its `k` hashes.
    last_key: Option<K>,
    last_cells: Vec<usize>,
}

impl<K: Hash + Eq + Copy> OnDemandTdbf<K> {
    /// A filter with `k` hash functions, `m` cells *per hash bank*,
    /// and a decay rate. Panics if `m` or `k` is zero.
    pub fn new(m: usize, k: usize, rate: DecayRate, seed: u64) -> Self {
        Self::from_cells(vec![DecayedCounter::new(); m * k], m, k, rate, seed)
    }

    /// A filter over an existing cell array — the deserialization
    /// surface, inverse of [`cells`](Self::cells). The array is used as
    /// it is, not copied. The geometry, hash seed and decay rate must be
    /// the ones the cells were built under; only the length is
    /// checkable here. Panics if `m` or `k` is zero or `cells` is not
    /// `k·m` long.
    pub fn from_cells(
        cells: Vec<DecayedCounter>,
        m: usize,
        k: usize,
        rate: DecayRate,
        seed: u64,
    ) -> Self {
        assert!(m > 0 && k > 0, "TDBF parameters must be non-zero");
        assert_eq!(Some(cells.len()), m.checked_mul(k), "TDBF cell-count mismatch");
        OnDemandTdbf {
            cells,
            m,
            seeds: seed_sequence(seed, k),
            rate,
            last_key: None,
            last_cells: vec![0; k],
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

    /// Record `weight` for `key` at trace time `now`, and return the
    /// key's estimate as of `now`: the minimum of the cells just
    /// written, the very bits a following [`estimate`](Self::estimate)
    /// would return.
    ///
    /// Each of the key's `k` cells is decayed to `now` and incremented
    /// ([`DecayedCounter::add`]); the cell's timestamp advances. The
    /// decay factors come from `factors` (at this filter's rate), so
    /// `exp` runs once per distinct elapsed span: a key's cells were
    /// mostly last written together, by the key itself, and a caller
    /// that hands one `factors` to every update of a packet shares the
    /// spans across them too. The key is hashed only when it is not
    /// the key inserted last. O(k), no allocation. Panics if `factors`
    /// are at another rate.
    #[inline]
    pub fn insert(&mut self, key: &K, weight: f64, now: Nanos, factors: &mut DecayFactors) -> f64 {
        assert!(factors.rate() == self.rate, "TDBF decay-rate mismatch");
        if self.last_key.as_ref() != Some(key) {
            for i in 0..self.seeds.len() {
                self.last_cells[i] = self.cell_index(key, i);
            }
            self.last_key = Some(*key);
        }
        let mut est = f64::INFINITY;
        for &c in &self.last_cells {
            let cell = &mut self.cells[c];
            cell.add_with(now, weight, factors);
            est = est.min(cell.peek(self.rate, now));
        }
        est
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
    use proptest::prelude::*;

    fn hl(secs: u64) -> DecayRate {
        DecayRate::from_half_life(TimeSpan::from_secs(secs))
    }

    #[test]
    fn on_demand_single_key_decays_exactly() {
        let mut f = OnDemandTdbf::<u64>::new(1024, 3, hl(10), 1);
        f.insert(&7, 100.0, Nanos::ZERO, &mut DecayFactors::new(f.rate()));
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
            f.insert(&key, 1.0, t, &mut DecayFactors::new(rate));
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
            f.insert(
                &99,
                10.0,
                burst_start + TimeSpan::from_millis(i),
                &mut DecayFactors::new(f.rate()),
            );
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
            f.insert(&1, 1.0, t, &mut DecayFactors::new(rate));
            t += TimeSpan::from_millis(5);
        }
        let r = f.rate_estimate(&1, t);
        assert!((r - 200.0).abs() / 200.0 < 0.05, "rate estimate {r} vs 200");
    }

    #[test]
    fn clear_resets_every_cell() {
        let mut od = OnDemandTdbf::<u64>::new(64, 2, hl(1), 7);
        od.insert(&1, 5.0, Nanos::from_secs(1), &mut DecayFactors::new(od.rate()));
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

    #[test]
    fn from_cells_takes_the_array_as_it_is() {
        let rate = hl(3);
        let mut f = OnDemandTdbf::<u64>::new(32, 3, rate, 9);
        for key in 0..40u64 {
            f.insert(&key, key as f64, Nanos::from_millis(key * 7), &mut DecayFactors::new(rate));
        }
        let g = OnDemandTdbf::<u64>::from_cells(f.cells().to_vec(), 32, 3, rate, 9);
        assert_eq!(g.cells(), f.cells());
        let now = Nanos::from_secs(1);
        for key in 0..50u64 {
            assert_eq!(g.estimate(&key, now).to_bits(), f.estimate(&key, now).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "cell-count mismatch")]
    fn from_cells_rejects_a_short_array() {
        let _ = OnDemandTdbf::<u64>::from_cells(vec![DecayedCounter::new(); 95], 32, 3, hl(1), 0);
    }

    #[test]
    #[should_panic(expected = "decay-rate mismatch")]
    fn insert_rejects_factors_at_another_rate() {
        let mut f = OnDemandTdbf::<u64>::new(8, 2, hl(1), 0);
        f.insert(&1, 1.0, Nanos::ZERO, &mut DecayFactors::new(hl(2)));
    }

    /// The bits of a cell: `0.0` and `-0.0` differ.
    fn bits(c: &DecayedCounter) -> (u64, Nanos) {
        let (v, last) = c.raw();
        (v.to_bits(), last)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fused insert is the unfused pair: after each insert, its
        /// return value is a following `estimate` bit for bit, and every
        /// cell is what `DecayedCounter::add` makes of it one cell at a
        /// time — on streams with repeated and late timestamps, zero
        /// weights, and a filter small enough for keys to share cells.
        #[test]
        fn insert_returns_the_estimate_and_writes_what_add_writes(
            ops in prop::collection::vec((0u64..24, 0u64..5, 0.0f64..500.0, 0u64..4_000_000_000), 1..400),
            m in 1usize..40,
            k in 1usize..6,
            half_life_ms in 1u64..20_000,
            share in 0u64..2,
        ) {
            let rate = DecayRate::from_half_life(TimeSpan::from_millis(half_life_ms));
            let mut f = OnDemandTdbf::<u64>::new(m, k, rate, half_life_ms);
            // One memo over the whole stream (spans from many instants),
            // or a fresh one per insert.
            let mut shared = DecayFactors::new(rate);
            let mut reference = vec![DecayedCounter::new(); m * k];
            let (mut clock, mut last) = (Nanos::from_secs(100), Nanos::from_secs(100));
            for (key, step, w, span) in ops {
                let span = TimeSpan::from_nanos(span);
                let (ts, weight) = match step {
                    0 => (last, w),                            // repeated timestamp
                    1 => (clock.saturating_sub_span(span), w), // late packet
                    2 => (clock + span, 0.0),                  // zero weight
                    _ => (clock + span, w),
                };
                clock = clock.max(ts);
                last = ts;
                let mut fresh = DecayFactors::new(rate);
                let factors = if share == 1 { &mut shared } else { &mut fresh };
                let est = f.insert(&key, weight, ts, factors);
                prop_assert_eq!(est.to_bits(), f.estimate(&key, ts).to_bits());
                for i in 0..k {
                    reference[f.cell_index(&key, i)].add(rate, ts, weight);
                }
                for (c, (got, want)) in f.cells().iter().zip(&reference).enumerate() {
                    prop_assert_eq!(bits(got), bits(want), "cell {} after key {} at {:?}", c, key, ts);
                }
            }
        }
    }
}
