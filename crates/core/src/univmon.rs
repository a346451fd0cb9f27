//! UnivMon-style universal monitoring (Liu, Manousis, Vorsanger, Sekar,
//! Braverman, SIGCOMM 2016): the paper's reference [4], the other
//! disjoint-window system it measures against.
//!
//! Universal sketching maintains `L` nested substreams — level `i`
//! contains the keys whose hash has `i` trailing zero bits, i.e. a
//! `2^-i` sample — each summarized by a Count Sketch plus a top-k
//! candidate table. From those one structure answers many G-sum
//! queries (L2, entropy, counts) via the recursive unbiased estimator,
//! and heavy hitters fall out of level 0's candidate table.
//!
//! This is a faithful but *lite* rendition: candidate tables are exact
//! top-k by current estimate (the paper uses a heap; same content), and
//! the G-sum recursion is implemented exactly as in the paper. Left
//! out: sketch merging across switches and per-5-tuple app-level
//! metrics.

use hhh_sketches::hash::{hash_of, mix64};
use hhh_sketches::CountSketch;
use std::collections::HashMap;
use std::hash::Hash;

/// One sampling level: a Count Sketch plus its candidate table.
#[derive(Clone, Debug)]
struct Level<K> {
    sketch: CountSketch<K>,
    /// Current top candidates with their latest estimates.
    candidates: HashMap<K, u64>,
    top_k: usize,
}

impl<K: Hash + Eq + Copy> Level<K> {
    fn update(&mut self, key: K, weight: u64) {
        self.sketch.update(&key, weight);
        let est = self.sketch.estimate(&key);
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.candidates.entry(key) {
            e.insert(est);
            return;
        }
        if self.candidates.len() < self.top_k {
            self.candidates.insert(key, est);
            return;
        }
        // Replace the weakest candidate if this key now beats it.
        if let Some((&weak_k, &weak_e)) =
            self.candidates.iter().min_by_key(|(k, e)| (**e, hash_of(*k, 0)))
        {
            if est > weak_e {
                self.candidates.remove(&weak_k);
                self.candidates.insert(key, est);
            }
        }
    }
}

/// The universal sketch.
#[derive(Clone, Debug)]
pub struct UnivMonLite<K> {
    levels: Vec<Level<K>>,
    sample_seed: u64,
    total: u64,
}

impl<K: Hash + Eq + Copy> UnivMonLite<K> {
    /// Build with `levels` nested substreams, Count Sketches of
    /// `width × depth`, and `top_k` candidates per level.
    pub fn new(levels: usize, width: usize, depth: usize, top_k: usize, seed: u64) -> Self {
        assert!(levels > 0 && top_k > 0, "levels and top_k must be non-zero");
        UnivMonLite {
            levels: (0..levels)
                .map(|i| Level {
                    sketch: CountSketch::new(width, depth, seed.wrapping_add(i as u64 * 7919)),
                    candidates: HashMap::with_capacity(top_k * 2),
                    top_k,
                })
                .collect(),
            sample_seed: mix64(seed ^ 0x00AB_CDEF),
            total: 0,
        }
    }

    /// Number of sampling levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Total weight observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate memory footprint in bytes.
    pub fn state_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.sketch.state_bytes() + l.top_k * (core::mem::size_of::<K>() + 24))
            .sum()
    }

    /// The deepest sampling level a key belongs to (trailing-zeros
    /// nesting: level `i` requires `i` trailing zero bits).
    fn depth_of(&self, key: &K) -> usize {
        let h = hash_of(key, self.sample_seed);
        (h.trailing_zeros() as usize).min(self.levels.len() - 1)
    }

    /// Observe `weight` for `key`.
    pub fn observe(&mut self, key: K, weight: u64) {
        self.total += weight;
        let depth = self.depth_of(&key);
        for level in &mut self.levels[..=depth] {
            level.update(key, weight);
        }
    }

    /// Level-0 point estimate (unbiased, Count Sketch median).
    pub fn estimate(&self, key: &K) -> u64 {
        self.levels[0].sketch.estimate(key)
    }

    /// Heavy hitters: level-0 candidates at or above `threshold`,
    /// descending by estimate.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut out: Vec<(K, u64)> = self.levels[0]
            .candidates
            .keys()
            .map(|&k| (k, self.levels[0].sketch.estimate(&k)))
            .filter(|(_, e)| *e >= threshold)
            .collect();
        out.sort_by_key(|e| core::cmp::Reverse(e.1));
        out
    }

    /// The recursive G-sum estimator: `Y_L = Σ g(f̂)` over the deepest
    /// level's candidates; `Y_i = 2·Y_{i+1} + Σ_{x ∈ Q_i} (1 −
    /// 2·sampled_{i+1}(x))·g(f̂_i(x))`. Returns `Y_0`, the estimate of
    /// `Σ_x g(f_x)` over the whole stream.
    pub fn gsum<G: Fn(u64) -> f64>(&self, g: G) -> f64 {
        let last = self.levels.len() - 1;
        let mut y: f64 = self.levels[last]
            .candidates
            .keys()
            .map(|k| g(self.levels[last].sketch.estimate(k)))
            .sum();
        for i in (0..last).rev() {
            let level = &self.levels[i];
            let correction: f64 = level
                .candidates
                .keys()
                .map(|k| {
                    let sampled_deeper = self.depth_of(k) > i;
                    let sign = if sampled_deeper { -1.0 } else { 1.0 };
                    sign * g(level.sketch.estimate(k))
                })
                .sum();
            y = 2.0 * y + correction;
        }
        y
    }

    /// Estimated number of distinct keys (G-sum with g = 1).
    pub fn distinct_estimate(&self) -> f64 {
        self.gsum(|f| if f > 0 { 1.0 } else { 0.0 })
    }

    /// Estimated second frequency moment `Σ f²` (G-sum with g = f²).
    pub fn l2_moment(&self) -> f64 {
        self.gsum(|f| (f as f64) * (f as f64))
    }

    /// Reset all levels.
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.sketch.clear();
            l.candidates.clear();
        }
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn skewed_stream(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if i % 5 < 2 {
                    (i % 5) as u64 // two keys with 20% each
                } else {
                    100 + rng.gen_range(0..5_000)
                }
            })
            .collect()
    }

    #[test]
    fn heavy_hitters_found() {
        let mut um = UnivMonLite::<u64>::new(12, 512, 5, 32, 1);
        let stream = skewed_stream(100_000, 2);
        for &k in &stream {
            um.observe(k, 1);
        }
        let hh = um.heavy_hitters(10_000);
        let keys: std::collections::HashSet<u64> = hh.iter().map(|e| e.0).collect();
        assert!(keys.contains(&0), "20% key 0 missing: {hh:?}");
        assert!(keys.contains(&1), "20% key 1 missing: {hh:?}");
        // Estimates in the right ballpark.
        for (k, e) in &hh {
            if *k < 2 {
                assert!((*e as f64 - 20_000.0).abs() / 20_000.0 < 0.2, "key {k} est {e}");
            }
        }
    }

    #[test]
    fn sampling_is_nested_and_halving() {
        let um = UnivMonLite::<u64>::new(16, 64, 3, 8, 9);
        let mut per_level = [0u64; 16];
        for k in 0..100_000u64 {
            let d = um.depth_of(&k);
            for lvl in per_level.iter_mut().take(d + 1) {
                *lvl += 1;
            }
        }
        // Level i should hold about 2^-i of keys.
        for i in 1..8 {
            let ratio = per_level[i] as f64 / per_level[i - 1] as f64;
            assert!(
                (ratio - 0.5).abs() < 0.1,
                "level {i} ratio {ratio} not ~0.5 ({} vs {})",
                per_level[i],
                per_level[i - 1]
            );
        }
    }

    #[test]
    fn distinct_estimate_ballpark() {
        let mut um = UnivMonLite::<u64>::new(14, 512, 5, 64, 3);
        let distinct = 20_000u64;
        for k in 0..distinct {
            um.observe(k, 1);
        }
        let est = um.distinct_estimate();
        let rel = (est - distinct as f64).abs() / distinct as f64;
        assert!(rel < 0.5, "distinct estimate {est} vs {distinct} (rel {rel})");
    }

    #[test]
    fn l2_moment_ballpark() {
        let mut um = UnivMonLite::<u64>::new(12, 1024, 7, 64, 5);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &skewed_stream(50_000, 7) {
            um.observe(k, 1);
            *truth.entry(k).or_default() += 1;
        }
        let true_l2: f64 = truth.values().map(|&v| (v * v) as f64).sum();
        let est = um.l2_moment();
        let rel = (est - true_l2).abs() / true_l2;
        // The skew means L2 is dominated by the two 20% keys, which the
        // candidate tables capture well.
        assert!(rel < 0.3, "L2 estimate {est} vs {true_l2} (rel {rel})");
    }

    #[test]
    fn reset_clears() {
        let mut um = UnivMonLite::<u64>::new(4, 32, 3, 4, 0);
        um.observe(1, 10);
        assert_eq!(um.total(), 10);
        um.reset();
        assert_eq!(um.total(), 0);
        assert!(um.heavy_hitters(1).is_empty());
        assert!(um.state_bytes() > 0);
        assert_eq!(um.levels(), 4);
    }
}
