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
        self.add_with(now, weight, &mut DecayFactors::new(rate));
    }

    /// [`add`](Self::add) at the rate of `factors`, taking the decay
    /// factor from them: how the counters one packet updates share
    /// their `exp` calls. No factor is needed for a zero counter or a
    /// zero span.
    #[inline]
    pub fn add_with(&mut self, now: Nanos, weight: f64, factors: &mut DecayFactors) {
        if now < self.last {
            self.value += weight * factors.factor(self.last - now);
            return;
        }
        self.value = self.decayed(now, |span| factors.factor(span)) + weight;
        self.last = now;
    }

    /// The decayed value as of `now`, without mutating.
    ///
    /// A zero counter reads zero, and a read at or before the last
    /// update reads the stored value: neither calls `exp`, and both are
    /// the bits a multiply by `e^0 = 1` would give.
    #[inline]
    pub fn peek(&self, rate: DecayRate, now: Nanos) -> f64 {
        self.decayed(now, |span| rate.factor(span))
    }

    /// [`peek`](Self::peek) with the decay factor taken from `factor`.
    #[inline]
    fn decayed(&self, now: Nanos, factor: impl FnOnce(TimeSpan) -> f64) -> f64 {
        if self.value == 0.0 {
            0.0
        } else if now <= self.last {
            self.value
        } else {
            self.value * factor(now - self.last)
        }
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

/// Decay factors `e^(−λ·span)` at one rate, each distinct span
/// computed once: a memo for the counters one packet updates.
///
/// Those counters were mostly last touched together, by the same
/// earlier packet — a key's `k` filter cells by the key's previous
/// packet, the decayed total and the root level's cells by the
/// previous packet of all — so their spans repeat, and one `exp` serves
/// each span. The memo holds the first four distinct spans; any later
/// one is computed every time it is asked for.
#[derive(Clone, Debug)]
pub struct DecayFactors {
    rate: DecayRate,
    seen: [(TimeSpan, f64); 4],
    len: usize,
}

impl DecayFactors {
    /// An empty memo at `rate`.
    #[inline]
    pub fn new(rate: DecayRate) -> Self {
        DecayFactors { rate, seen: [(TimeSpan::ZERO, 1.0); 4], len: 0 }
    }

    /// The rate the factors are computed at.
    pub(crate) fn rate(&self) -> DecayRate {
        self.rate
    }

    /// [`DecayRate::factor`] of `span`, bit for bit; `exp` runs only
    /// for a span not seen before.
    #[inline]
    pub fn factor(&mut self, span: TimeSpan) -> f64 {
        if let Some(&(_, f)) = self.seen[..self.len].iter().find(|&&(s, _)| s == span) {
            return f;
        }
        let f = self.rate.factor(span);
        if let Some(slot) = self.seen.get_mut(self.len) {
            *slot = (span, f);
            self.len += 1;
        }
        f
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
    fn decay_factors_are_the_rate_s_bits_for_any_span() {
        let r = DecayRate::from_half_life(TimeSpan::from_millis(700));
        let mut factors = DecayFactors::new(r);
        // More distinct spans than the memo holds, each asked for twice.
        for round in 0..2 {
            for ms in [0u64, 3, 3, 9, 1, 250, 9, 4_000, 17, 3] {
                let span = TimeSpan::from_millis(ms);
                assert_eq!(
                    factors.factor(span).to_bits(),
                    r.factor(span).to_bits(),
                    "{round}/{ms}"
                );
            }
        }
        // A shared memo updates counters exactly as `add` does.
        let (mut a, mut b) = (DecayedCounter::new(), DecayedCounter::new());
        for (t, w) in [(5u64, 2.0), (9, 1.0), (7, 4.0), (9, 0.5), (30, 8.0)] {
            a.add(r, Nanos::from_secs(t), w);
            b.add_with(Nanos::from_secs(t), w, &mut factors);
            assert_eq!(a.raw().0.to_bits(), b.raw().0.to_bits());
            assert_eq!(a.raw().1, b.raw().1);
        }
    }

    #[test]
    fn peek_at_the_last_update_is_the_stored_value() {
        let r = DecayRate::per_second(3.0);
        let mut c = DecayedCounter::new();
        c.add(r, Nanos::from_secs(2), 0.1);
        let (v, last) = c.raw();
        assert_eq!(c.peek(r, last).to_bits(), v.to_bits());
        assert_eq!(c.peek(r, Nanos::from_secs(1)).to_bits(), v.to_bits(), "reads before `last`");
        assert_eq!(
            c.peek(r, Nanos::from_secs(3)).to_bits(),
            (v * r.factor(TimeSpan::from_secs(1))).to_bits()
        );
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
