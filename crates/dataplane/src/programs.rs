//! Data-plane programs: HashPipe and the on-demand TDBF, expressed
//! against the [`crate::Pipeline`] discipline.
//!
//! Both programs are functionally cross-checked (in this module's tests
//! and in the workspace integration tests) against their unconstrained
//! reference implementations: `hhh_core::HashPipe` must match
//! *exactly* (same hashes, same slots, same counts), and the TDBF
//! program must track [`hhh_sketches::OnDemandTdbf`] within the
//! quantization error of its integer arithmetic.

use crate::model::{Pipeline, PipelineError, StageSpec};
use crate::resources::ResourceReport;
use hhh_nettypes::{Nanos, TimeSpan};
use hhh_sketches::hash::{hash_of, reduce, seed_sequence};
use hhh_sketches::DecayRate;

/// HashPipe on the pipeline model: `d` stages, each holding one
/// 64-bit register array packing `(key: u32, count: u32)` per cell so
/// the whole per-stage step is a single read-modify-write — the
/// paired-register layout of the SOSR'17 paper.
///
/// Key `0` is reserved as "empty slot" (the model's one concession;
/// 0.0.0.0 does not occur as a source address in any workload here).
#[derive(Debug)]
pub struct DpHashPipe {
    pipeline: Pipeline,
    seeds: Vec<u64>,
    slots: usize,
}

const KEY_SHIFT: u32 = 32;
const COUNT_MASK: u64 = 0xFFFF_FFFF;

impl DpHashPipe {
    /// A `stages × slots` HashPipe. Seeds match
    /// `hhh_core::HashPipe::new` given the same master seed.
    pub fn new(stages: usize, slots: usize, seed: u64) -> Self {
        assert!(stages > 0 && slots > 0, "dimensions must be non-zero");
        let specs: Vec<StageSpec> = (0..stages)
            .map(|i| StageSpec { arrays: vec![(format!("hp_stage{i}"), slots, 64)] })
            .collect();
        DpHashPipe { pipeline: Pipeline::new(&specs), seeds: seed_sequence(seed, stages), slots }
    }

    /// Process one packet. Returns a pipeline error only if the
    /// program itself violates the discipline (a bug, not a data
    /// condition) — surfaced as `Result` so the tests can prove it
    /// never happens.
    pub fn observe(&mut self, key: u32, weight: u64) -> Result<(), PipelineError> {
        assert_ne!(key, 0, "key 0 is the reserved empty marker");
        let weight = weight.min(COUNT_MASK);
        self.pipeline.begin_packet();

        // Stage 0: always insert.
        let idx = reduce(hash_of(&key, self.seeds[0]), self.slots);
        let packed_new = ((key as u64) << KEY_SHIFT) | weight;
        let old = self.pipeline.rmw(0, 0, idx, |cell| {
            let okey = (cell >> KEY_SHIFT) as u32;
            if okey == key {
                let count = (cell & COUNT_MASK).saturating_add(weight).min(COUNT_MASK);
                ((key as u64) << KEY_SHIFT) | count
            } else {
                packed_new
            }
        })?;
        let okey = (old >> KEY_SHIFT) as u32;
        if okey == key || okey == 0 {
            return Ok(());
        }
        let mut carry_key = okey;
        let mut carry_count = old & COUNT_MASK;

        for s in 1..self.seeds.len() {
            let idx = reduce(hash_of(&carry_key, self.seeds[s]), self.slots);
            let (ck, cc) = (carry_key, carry_count);
            let old = self.pipeline.rmw(s, 0, idx, |cell| {
                let okey = (cell >> KEY_SHIFT) as u32;
                let ocount = cell & COUNT_MASK;
                if okey == ck {
                    ((ck as u64) << KEY_SHIFT) | ocount.saturating_add(cc).min(COUNT_MASK)
                } else if okey == 0 || ocount < cc {
                    ((ck as u64) << KEY_SHIFT) | cc
                } else {
                    cell
                }
            })?;
            let okey = (old >> KEY_SHIFT) as u32;
            let ocount = old & COUNT_MASK;
            if okey == ck || okey == 0 {
                return Ok(()); // merged or placed
            }
            if ocount < cc {
                carry_key = okey;
                carry_count = ocount;
            }
            // else: carry unchanged, try next stage
        }
        Ok(()) // remnant dropped off the pipe end
    }

    /// Control-plane estimate: sum of this key's counts across stages.
    pub fn estimate(&self, key: u32) -> u64 {
        let mut est = 0u64;
        for s in 0..self.seeds.len() {
            let idx = reduce(hash_of(&key, self.seeds[s]), self.slots);
            let cell = self.pipeline.control_read(s, 0, idx).expect("in range");
            if (cell >> KEY_SHIFT) as u32 == key {
                est += cell & COUNT_MASK;
            }
        }
        est
    }

    /// Control-plane heavy hitters: all keys whose aggregated count
    /// meets `threshold`, descending.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(u32, u64)> {
        let mut agg: std::collections::HashMap<u32, u64> = Default::default();
        for s in 0..self.seeds.len() {
            for &cell in self.pipeline.control_dump(s, 0).expect("exists") {
                let key = (cell >> KEY_SHIFT) as u32;
                if key != 0 {
                    *agg.entry(key).or_default() += cell & COUNT_MASK;
                }
            }
        }
        let mut out: Vec<_> = agg.into_iter().filter(|(_, c)| *c >= threshold).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Resource usage (one hash per stage).
    pub fn resources(&self) -> ResourceReport {
        ResourceReport::from_pipeline("hashpipe", &self.pipeline, self.seeds.len())
    }

    /// Control-plane reset.
    pub fn reset(&mut self) {
        self.pipeline.control_clear();
    }
}

/// The on-demand TDBF on the pipeline model: `k` stages (one hash
/// each), each a register array of 64-bit cells packing
/// `(last_touch_ticks: u24, value: 32.8 fixed point u40)`.
///
/// All arithmetic is integer. Decay `2^(−elapsed/half_life)` is
/// computed as a per-tick 0.32 fixed-point factor raised by
/// square-and-multiply (≤ 48 wide multiplies — the model idealization
/// of the lookup-table cascade a real target would use).
/// Time is quantized to ticks (default 1 ms); the 24-bit tick counter
/// covers ~4.6 h of trace at that tick, plenty for any workload here
/// (wraparound is unhandled, documented).
#[derive(Debug)]
pub struct DpTdbf {
    pipeline: Pipeline,
    seeds: Vec<u64>,
    cells: usize,
    tick: TimeSpan,
    /// Per-tick decay multiplier in 2^-32 units.
    factor_per_tick: u64,
}

const TS_SHIFT: u32 = 40;
const VALUE_MASK: u64 = (1 << TS_SHIFT) - 1;
const FRAC_BITS: u32 = 8;

impl DpTdbf {
    /// A `k`-hash filter of `cells` cells per stage with the given
    /// decay rate, quantized to `tick`.
    pub fn new(cells: usize, k: usize, rate: DecayRate, tick: TimeSpan, seed: u64) -> Self {
        assert!(cells > 0 && k > 0, "dimensions must be non-zero");
        assert!(!tick.is_zero(), "tick must be non-zero");
        let specs: Vec<StageSpec> =
            (0..k).map(|i| StageSpec { arrays: vec![(format!("tdbf_h{i}"), cells, 64)] }).collect();
        let per_tick = rate.factor(tick);
        let factor_per_tick = (per_tick * (1u64 << 32) as f64).round() as u64;
        DpTdbf {
            pipeline: Pipeline::new(&specs),
            seeds: seed_sequence(seed, k),
            cells,
            tick,
            factor_per_tick: factor_per_tick.min((1u64 << 32) - 1),
        }
    }

    fn ticks(&self, t: Nanos) -> u64 {
        (t - Nanos::ZERO) / self.tick
    }

    /// Integer decay of a 32.8 fixed-point value over `elapsed` ticks
    /// (`factor^e` via square-and-multiply in 0.32 fixed point).
    fn decay_value(&self, value: u64, elapsed_ticks: u64) -> u64 {
        decay_fixed(value, elapsed_ticks, self.factor_per_tick)
    }

    /// Record `weight` (integer, e.g. bytes) for `key` at `now`.
    pub fn insert(&mut self, key: u32, weight: u64, now: Nanos) -> Result<(), PipelineError> {
        let now_ticks = self.ticks(now);
        let add = (weight << FRAC_BITS).min(VALUE_MASK);
        self.pipeline.begin_packet();
        let fpt = self.factor_per_tick;
        for s in 0..self.seeds.len() {
            let idx = reduce(hash_of(&key, self.seeds[s]), self.cells);
            self.pipeline.rmw(s, 0, idx, |cell| {
                let ts = cell >> TS_SHIFT;
                let value = cell & VALUE_MASK;
                let elapsed = now_ticks.saturating_sub(ts);
                let decayed = decay_fixed(value, elapsed, fpt);
                let new_value = decayed.saturating_add(add).min(VALUE_MASK);
                ((now_ticks & 0xFF_FFFF) << TS_SHIFT) | new_value
            })?;
        }
        Ok(())
    }

    /// Control-plane estimate at `now`: min over the key's cells, in
    /// weight units (fixed point resolved to f64 only at the very edge
    /// for reporting).
    pub fn estimate(&self, key: u32, now: Nanos) -> f64 {
        let now_ticks = self.ticks(now);
        let mut min_v = u64::MAX;
        for s in 0..self.seeds.len() {
            let idx = reduce(hash_of(&key, self.seeds[s]), self.cells);
            let cell = self.pipeline.control_read(s, 0, idx).expect("in range");
            let ts = cell >> TS_SHIFT;
            let value = cell & VALUE_MASK;
            let decayed = self.decay_value(value, now_ticks.saturating_sub(ts));
            min_v = min_v.min(decayed);
        }
        min_v as f64 / (1u64 << FRAC_BITS) as f64
    }

    /// Resource usage (one hash per stage).
    pub fn resources(&self) -> ResourceReport {
        ResourceReport::from_pipeline("tdbf", &self.pipeline, self.seeds.len())
    }

    /// Control-plane reset.
    pub fn reset(&mut self) {
        self.pipeline.control_clear();
    }
}

/// Integer decay of a fixed-point value over `elapsed` ticks:
/// `value × factor^elapsed`, with the factor in 2^-32 units.
fn decay_fixed(value: u64, elapsed_ticks: u64, factor_per_tick: u64) -> u64 {
    if value == 0 || elapsed_ticks == 0 {
        return value;
    }
    let mut result: u128 = 1u128 << 32;
    let mut base: u128 = factor_per_tick as u128;
    let mut e = elapsed_ticks;
    let mut steps = 0;
    while e > 0 && steps < 64 {
        if e & 1 == 1 {
            result = (result * base) >> 32;
            if result == 0 {
                return 0;
            }
        }
        base = (base * base) >> 32;
        e >>= 1;
        steps += 1;
    }
    ((value as u128 * result) >> 32) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::HashPipe;
    use hhh_sketches::{Landmark, OnDemandTdbf};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dp_hashpipe_matches_reference_exactly() {
        let mut dp = DpHashPipe::new(4, 64, 42);
        let mut reference = HashPipe::<u32>::new(4, 64, 42);
        let mut rng = SmallRng::seed_from_u64(1);
        let keys: Vec<u32> = (0..20_000)
            .map(|i| if i % 4 == 0 { 1 + (i as u32 % 7) } else { 1000 + rng.gen_range(0..5000) })
            .collect();
        for &k in &keys {
            dp.observe(k, 3).unwrap();
            reference.observe(k, 3);
        }
        // Same hashes, same algorithm, same state: estimates must be
        // identical for every key that appeared.
        for &k in keys.iter().take(2000) {
            assert_eq!(dp.estimate(k), reference.estimate(&k), "divergence for key {k}");
        }
        let dp_hh = dp.heavy_hitters(1000);
        let ref_hh = reference.heavy_hitters(1000);
        assert_eq!(dp_hh, ref_hh);
    }

    #[test]
    fn dp_hashpipe_respects_discipline_by_construction() {
        // 4 stages → at most 4 register accesses per packet, ever.
        let mut dp = DpHashPipe::new(4, 16, 7);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..5_000 {
            dp.observe(1 + rng.gen_range(0..500u32), 1).unwrap();
        }
        let r = dp.resources();
        assert!(r.max_register_accesses <= 4);
        assert_eq!(r.stages, 4);
        assert_eq!(r.hash_units_per_packet, 4);
        assert_eq!(r.sram_bits, 4 * 16 * 64);
    }

    #[test]
    fn dp_tdbf_tracks_float_reference() {
        let rate = DecayRate::from_half_life(TimeSpan::from_secs(5));
        let mut dp = DpTdbf::new(1024, 3, rate, TimeSpan::from_millis(1), 9);
        let mut reference = OnDemandTdbf::<u32>::new(1024, 3, 9);
        let landmark = Landmark::new(rate, Nanos::ZERO);
        let mut t = Nanos::ZERO;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..30_000 {
            let key = 1 + rng.gen_range(0..50u32);
            dp.insert(key, 100, t).unwrap();
            reference.insert(&key, 100.0 * landmark.growth(t));
            t += TimeSpan::from_micros(300);
        }
        for key in 1..=50u32 {
            let a = dp.estimate(key, t);
            let b = reference.estimate(&key) * landmark.decay(t);
            if b > 100.0 {
                let rel = (a - b).abs() / b;
                assert!(
                    rel < 0.05,
                    "quantized estimate diverged for {key}: dp {a}, float {b} (rel {rel})"
                );
            }
        }
    }

    #[test]
    fn dp_tdbf_decays_to_zero() {
        let rate = DecayRate::from_half_life(TimeSpan::from_secs(1));
        let mut dp = DpTdbf::new(64, 2, rate, TimeSpan::from_millis(1), 0);
        dp.insert(7, 1_000_000, Nanos::ZERO).unwrap();
        let v0 = dp.estimate(7, Nanos::ZERO);
        assert!(v0 >= 999_999.0);
        let v1 = dp.estimate(7, Nanos::from_secs(1));
        assert!((v1 - 500_000.0).abs() / 500_000.0 < 0.01, "one half-life: {v1}");
        let v50 = dp.estimate(7, Nanos::from_secs(50));
        assert_eq!(v50, 0.0, "fifty half-lives: {v50}");
    }

    #[test]
    fn dp_tdbf_never_negative_or_overflowing() {
        let rate = DecayRate::from_half_life(TimeSpan::from_millis(100));
        let mut dp = DpTdbf::new(8, 2, rate, TimeSpan::from_millis(1), 1);
        // Hammer one key with huge weights: value saturates at the
        // 32.8 cap instead of wrapping.
        for i in 0..100u64 {
            dp.insert(3, u64::MAX / 2, Nanos::from_millis(i)).unwrap();
        }
        let v = dp.estimate(3, Nanos::from_millis(100));
        assert!(v <= (VALUE_MASK >> FRAC_BITS) as f64);
        assert!(v > 0.0);
    }

    #[test]
    fn reset_clears_programs() {
        let mut hp = DpHashPipe::new(2, 8, 0);
        hp.observe(5, 10).unwrap();
        hp.reset();
        assert_eq!(hp.estimate(5), 0);

        let rate = DecayRate::from_half_life(TimeSpan::from_secs(1));
        let mut bf = DpTdbf::new(8, 2, rate, TimeSpan::from_millis(1), 0);
        bf.insert(5, 10, Nanos::ZERO).unwrap();
        bf.reset();
        assert_eq!(bf.estimate(5, Nanos::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn key_zero_rejected() {
        let mut hp = DpHashPipe::new(1, 4, 0);
        let _ = hp.observe(0, 1);
    }
}
