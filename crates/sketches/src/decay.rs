//! Exponential time decay: the continuous-time alternative to windows.
//!
//! The paper's §3 argues that disjoint windows hide HHHs and proposes
//! *time-decaying* analysis instead. The primitive is the exponentially
//! decayed count
//!
//! ```text
//! C(t) = Σᵢ wᵢ · exp(−λ·(t − tᵢ))        over arrivals (tᵢ, wᵢ) ≤ t
//! ```
//!
//! which weighs recent traffic fully and old traffic not at all, with no
//! window boundary anywhere. A flow sending at a steady rate `r` (weight
//! per second) converges to `C = r/λ`, so thresholds on decayed counts
//! are thresholds on *rates* — [`DecayRate::steady_state`] does that
//! conversion. The half-life `t½ = ln2/λ` plays the role the window
//! length played: [`DecayRate::from_half_life`] is how experiments pick
//! λ comparable to a window size.

use hhh_nettypes::{Nanos, TimeSpan};

/// An exponential decay rate λ (per second), shared by every decaying
/// structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecayRate {
    lambda_per_sec: f64,
}

impl DecayRate {
    /// From λ directly (per second). Panics unless positive and finite.
    pub fn per_second(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "decay rate must be positive, got {lambda}");
        DecayRate { lambda_per_sec: lambda }
    }

    /// The rate whose half-life is `t½`: λ = ln2 / t½.
    ///
    /// A decayed counter with half-life `w/2` forgets traffic on roughly
    /// the same time scale as a `w`-long window; this is how the
    /// experiments make TDBF detectors comparable to window detectors.
    pub fn from_half_life(half_life: TimeSpan) -> Self {
        assert!(!half_life.is_zero(), "half-life must be non-zero");
        Self::per_second(core::f64::consts::LN_2 / half_life.as_secs_f64())
    }

    /// λ in 1/seconds.
    pub fn lambda(&self) -> f64 {
        self.lambda_per_sec
    }

    /// The half-life ln2/λ.
    pub fn half_life(&self) -> TimeSpan {
        TimeSpan::from_secs_f64(core::f64::consts::LN_2 / self.lambda_per_sec)
    }

    /// The multiplicative decay over an elapsed span: `exp(−λ·Δt)`.
    #[inline]
    pub fn factor(&self, elapsed: TimeSpan) -> f64 {
        (-self.lambda_per_sec * elapsed.as_secs_f64()).exp()
    }

    /// The steady-state decayed count of a flow with constant rate
    /// `rate` (weight per second): `rate / λ`.
    pub fn steady_state(&self, rate: f64) -> f64 {
        rate / self.lambda_per_sec
    }
}

/// One exponentially decayed scalar with *lazy* (on-demand) decay:
/// instead of a background sweep, the value is brought forward to `now`
/// whenever it is touched. This is precisely the "on-demand" mechanism
/// of Bianchi et al. 2011 that the paper adopts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecayedCounter {
    value: f64,
    last: Nanos,
}

impl DecayedCounter {
    /// A zero counter.
    pub const fn new() -> Self {
        DecayedCounter { value: 0.0, last: Nanos::ZERO }
    }

    /// Add `weight` at time `now` (decaying the stored value first).
    ///
    /// A late arrival (`now` before the last update, as a capture file
    /// can hold) is exact too: its weight is decayed forward to the
    /// last update, `weight · e^(−λ·(last − now))`, and `last` stays.
    #[inline]
    pub fn add(&mut self, rate: DecayRate, now: Nanos, weight: f64) {
        if now < self.last {
            self.value += weight * rate.factor(self.last - now);
            return;
        }
        self.value = self.peek(rate, now) + weight;
        self.last = now;
    }

    /// The decayed value as of `now`, without mutating.
    #[inline]
    pub fn peek(&self, rate: DecayRate, now: Nanos) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        let elapsed = if now >= self.last { now - self.last } else { TimeSpan::ZERO };
        self.value * rate.factor(elapsed)
    }

    /// The raw stored (un-decayed) value and its timestamp.
    pub fn raw(&self) -> (f64, Nanos) {
        (self.value, self.last)
    }

    /// Rebuild from a raw `(value, last)` pair — the deserialization
    /// surface, inverse of [`raw`](Self::raw). Both halves round-trip
    /// bit-exactly over the snapshot wire (shortest-form float
    /// rendering), so a restored counter decays, merges and peeks
    /// identically to the original.
    pub const fn from_raw(value: f64, last: Nanos) -> Self {
        DecayedCounter { value, last }
    }

    /// Fold another counter (same decay rate, disjoint arrivals) into
    /// this one: both values are decayed to the *later* of the two
    /// timestamps and summed. Exact — `C(t)` is a sum over arrivals, so
    /// partitioning the arrivals and merging commutes with decay.
    #[inline]
    pub fn merge(&mut self, rate: DecayRate, other: &Self) {
        let now = self.last.max(other.last);
        self.value = self.peek(rate, now) + other.peek(rate, now);
        self.last = now;
    }

    /// Reset to zero.
    pub fn clear(&mut self) {
        self.value = 0.0;
        self.last = Nanos::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_life_halves() {
        let rate = DecayRate::from_half_life(TimeSpan::from_secs(10));
        let mut c = DecayedCounter::new();
        c.add(rate, Nanos::ZERO, 100.0);
        let v = c.peek(rate, Nanos::from_secs(10));
        assert!((v - 50.0).abs() < 1e-9, "after one half-life: {v}");
        let v = c.peek(rate, Nanos::from_secs(20));
        assert!((v - 25.0).abs() < 1e-9, "after two half-lives: {v}");
    }

    #[test]
    fn rate_roundtrip() {
        let r = DecayRate::per_second(0.1);
        let hl = r.half_life();
        let r2 = DecayRate::from_half_life(hl);
        assert!((r.lambda() - r2.lambda()).abs() < 1e-9);
    }

    #[test]
    fn factor_limits() {
        let r = DecayRate::per_second(1.0);
        assert!((r.factor(TimeSpan::ZERO) - 1.0).abs() < 1e-12);
        assert!(r.factor(TimeSpan::from_secs(100)) < 1e-40);
    }

    #[test]
    fn steady_state_convergence() {
        // A flow adding 1.0 every 10 ms (rate 100/s) under λ = 2/s
        // should converge to ~50.
        let r = DecayRate::per_second(2.0);
        let mut c = DecayedCounter::new();
        let mut t = Nanos::ZERO;
        for _ in 0..10_000 {
            c.add(r, t, 1.0);
            t += TimeSpan::from_millis(10);
        }
        let v = c.peek(r, t);
        let expect = r.steady_state(100.0);
        assert!((v - expect).abs() / expect < 0.02, "steady state {v} should be near {expect}");
    }

    #[test]
    fn add_accumulates_at_same_instant() {
        let r = DecayRate::per_second(1.0);
        let mut c = DecayedCounter::new();
        c.add(r, Nanos::from_secs(1), 3.0);
        c.add(r, Nanos::from_secs(1), 4.0);
        assert!((c.peek(r, Nanos::from_secs(1)) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn late_arrivals_decay_from_their_own_time() {
        // The closed form C(t) = Σ wᵢ·e^(−λ·(t − tᵢ)) does not depend on
        // the order of the arrivals, so every order must read it.
        let r = DecayRate::from_half_life(TimeSpan::from_secs(5));
        let arrivals = [(10u64, 100.0), (5, 1.0), (7, 3.0), (12, 2.0), (0, 8.0)];
        let at = Nanos::from_secs(20);
        let exact: f64 =
            arrivals.iter().map(|&(t, w)| w * r.factor(at - Nanos::from_secs(t))).sum();
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        for _ in 0..arrivals.len() {
            order.rotate_left(1);
            for seq in [order.clone(), order.iter().rev().copied().collect()] {
                let mut c = DecayedCounter::new();
                for &i in &seq {
                    let (t, w) = arrivals[i];
                    c.add(r, Nanos::from_secs(t), w);
                }
                let v = c.peek(r, at);
                assert!((v - exact).abs() < 1e-9, "order {seq:?}: {v} vs {exact}");
            }
        }
        // The documented case: 100 at 10 s, then 1 that is 5 s late.
        let mut c = DecayedCounter::new();
        c.add(r, Nanos::from_secs(10), 100.0);
        c.add(r, Nanos::from_secs(5), 1.0);
        assert!((c.peek(r, at) - 25.125).abs() < 1e-9, "{}", c.peek(r, at));
        assert_eq!(c.raw().1, Nanos::from_secs(10), "a late arrival does not move `last`");
    }

    #[test]
    fn zero_counter_stays_zero() {
        let r = DecayRate::per_second(5.0);
        let c = DecayedCounter::new();
        assert_eq!(c.peek(r, Nanos::from_secs(1_000_000)), 0.0);
    }

    #[test]
    fn clear_resets() {
        let r = DecayRate::per_second(1.0);
        let mut c = DecayedCounter::new();
        c.add(r, Nanos::from_secs(1), 10.0);
        c.clear();
        assert_eq!(c.peek(r, Nanos::from_secs(2)), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lambda_rejected() {
        let _ = DecayRate::per_second(0.0);
    }
}
