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
//!
//! ## Forward decay
//!
//! The counters here keep `C` by *forward decay* (Cormode, Shkapenyuk,
//! Srivastava, Xu, "Forward Decay", ICDE 2009). For any fixed instant
//! `L`, the *landmark*,
//!
//! ```text
//! C(t) = e^(−λ·(t − L)) · c,        c = Σᵢ wᵢ · e^(λ·(tᵢ − L))
//! ```
//!
//! and the forward value `c` does not depend on `t`. So:
//!
//! * an arrival adds `w · e^(λ·(t − L))` to `c` — one `exp` that every
//!   counter the arrival touches shares ([`Landmark::growth`]), and the
//!   same formula either side of `L`, so a late arrival needs no branch;
//! * the decayed count at any `now` is `c` times one factor,
//!   `e^(−λ·(now − L))` ([`Landmark::decay`]), shared by every counter
//!   read at that instant;
//! * comparisons between counters need no factor at all: `C` is `c`
//!   times the same positive number for all of them;
//! * two counters against one landmark over disjoint arrivals merge by
//!   adding their forward values, since `c` is a plain sum.
//!
//! **The pair `(c, L)` is the lazy counter.** The on-demand counter of
//! Bianchi et al. stores `(v, last)` and reads `v·e^(−λ·(t − last))` at
//! any `t ≥ last`; read the same way, `(c, L)` gives
//! `c·e^(−λ·(t − L)) = C(t)`. So a forward value travels on the wire as
//! the pair `(c, L)`, in the lazy counter's format, and a lazy pair
//! `(v, last)` becomes the forward value `v·e^(−λ·(L − last))` against any
//! landmark `L ≥ last`.
//!
//! **The landmark moves.** `e^(λ·(t − L))` grows without bound, so
//! before an arrival would raise `λ·(t − L)` above
//! [`Landmark::EXPONENT_CAP`] (512, well inside `f64`'s `e^709`), the
//! owner moves `L` to `t` rounded down to a fixed grid of trace time
//! (multiples of the span whose exponent is half the cap, from trace
//! time zero: [`Landmark::grid_point`]) and multiplies every forward
//! value by `e^(−λ·Δ)` ([`Landmark::move_to`], a [`Shrink`]). That is
//! one move per ≈ 256/λ of trace (≈ 30 min at a 2.5 s half-life), and
//! detectors fed one clock that move within one grid step land on the
//! same landmark, so they still merge by addition.

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

/// A factor `e^(−x)`, `x ≥ 0`, that forward values are multiplied by
/// when they move to a later landmark.
///
/// It is applied as two multiplies by `e^(−x/2)`, so every product
/// that is a normal float comes out right even where `e^(−x)` alone
/// would underflow (`x` past 708): after a long gap in the trace a
/// value keeps its precision for as long as it is representable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shrink {
    half: f64,
}

impl Shrink {
    /// The identity: both sides of a move share their landmark.
    pub const ONE: Shrink = Shrink { half: 1.0 };

    /// The factor `e^(−x)`.
    pub fn of(x: f64) -> Self {
        Shrink { half: (-0.5 * x).exp() }
    }

    /// `v·e^(−x)`.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        v * self.half * self.half
    }
}

/// The landmark `L` forward-decayed values are measured against, at a
/// decay rate: it turns arrival times into growth factors and query
/// times into decay factors (the [module docs](self) derive it).
///
/// A landmark holds no counters. Its owner keeps the forward values and,
/// when [`is_due`](Self::is_due) says an arrival would pass the
/// exponent cap, moves it with [`move_to`](Self::move_to) and rescales
/// every value by the factor that returns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Landmark {
    rate: DecayRate,
    at: Nanos,
}

impl Landmark {
    /// The largest exponent `λ·(t − L)` an arrival may be weighted with:
    /// `e^512 ≈ 2·10^222` leaves `f64` room for weights and sums up to
    /// `10^86`.
    pub const EXPONENT_CAP: f64 = 512.0;

    /// The landmark `at`, at `rate`.
    pub const fn new(rate: DecayRate, at: Nanos) -> Self {
        Landmark { rate, at }
    }

    /// The decay rate.
    pub fn rate(&self) -> DecayRate {
        self.rate
    }

    /// The landmark instant `L`.
    pub fn at(&self) -> Nanos {
        self.at
    }

    /// `λ·(t − L)`, negative for `t` before the landmark.
    #[inline]
    fn exponent(&self, t: Nanos) -> f64 {
        let ns = t.as_nanos().wrapping_sub(self.at.as_nanos()) as i64;
        self.rate.lambda_per_sec * (ns as f64 / 1e9)
    }

    /// The forward weight of an arrival at `t`: `e^(λ·(t − L))`, exact on
    /// either side of the landmark.
    #[inline]
    pub fn growth(&self, t: Nanos) -> f64 {
        self.exponent(t).exp()
    }

    /// The factor that turns forward values into decayed counts as of
    /// `now`: `e^(−λ·(now − L))`.
    #[inline]
    pub fn decay(&self, now: Nanos) -> f64 {
        (-self.exponent(now)).exp()
    }

    /// Whether an arrival at `t` would be weighted past
    /// [`EXPONENT_CAP`](Self::EXPONENT_CAP): the landmark must move to
    /// [`grid_point`](Self::grid_point)`(t)` first.
    #[inline]
    pub fn is_due(&self, t: Nanos) -> bool {
        self.exponent(t) > Self::EXPONENT_CAP
    }

    /// `t` rounded down to the landmark grid: multiples, from trace time
    /// zero, of the span whose exponent is half the cap. An arrival at
    /// `t` is weighted below `e^256` against it.
    pub fn grid_point(&self, t: Nanos) -> Nanos {
        let span = Self::EXPONENT_CAP / 2.0 / self.rate.lambda_per_sec * 1e9;
        let step = (span as u64).max(1);
        Nanos::from_nanos(t.as_nanos() / step * step)
    }

    /// The factor `e^(−λ·(to − L))`, for `to` at or after the landmark,
    /// that turns a forward value against this landmark into one
    /// against `to`.
    pub fn shrink_to(&self, to: Nanos) -> Shrink {
        Shrink::of(self.exponent(to))
    }

    /// Move the landmark to `to`, at or after it, and return
    /// [`shrink_to`](Self::shrink_to)`(to)`.
    pub fn move_to(&mut self, to: Nanos) -> Shrink {
        let shrink = self.shrink_to(to);
        self.at = to;
        shrink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `C(at)` from its definition: every arrival decayed on its own.
    fn closed_form(rate: DecayRate, arrivals: &[(Nanos, f64)], at: Nanos) -> f64 {
        arrivals
            .iter()
            .map(|&(t, w)| {
                let age = at.as_nanos() as f64 - t.as_nanos() as f64;
                w * (-rate.lambda() * age / 1e9).exp()
            })
            .sum()
    }

    /// A forward counter: the value, against `landmark`, moved as an
    /// owner moves it.
    fn forward(landmark: &mut Landmark, arrivals: &[(Nanos, f64)]) -> f64 {
        let mut c = 0.0;
        for &(t, w) in arrivals {
            if landmark.is_due(t) {
                c = landmark.move_to(landmark.grid_point(t)).apply(c);
            }
            c += w * landmark.growth(t);
        }
        c
    }

    #[test]
    fn half_life_halves() {
        let rate = DecayRate::from_half_life(TimeSpan::from_secs(10));
        let mut l = Landmark::new(rate, Nanos::ZERO);
        let c = forward(&mut l, &[(Nanos::ZERO, 100.0)]);
        let v = c * l.decay(Nanos::from_secs(10));
        assert!((v - 50.0).abs() < 1e-9, "after one half-life: {v}");
        let v = c * l.decay(Nanos::from_secs(20));
        assert!((v - 25.0).abs() < 1e-9, "after two half-lives: {v}");
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
        let mut l = Landmark::new(r, Nanos::ZERO);
        let arrivals: Vec<_> = (0..10_000u64).map(|i| (Nanos::from_millis(i * 10), 1.0)).collect();
        let v = forward(&mut l, &arrivals) * l.decay(Nanos::from_secs(100));
        let expect = r.steady_state(100.0);
        assert!((v - expect).abs() / expect < 0.02, "steady state {v} should be near {expect}");
    }

    #[test]
    fn late_arrivals_decay_from_their_own_time() {
        // The closed form does not depend on the order of the arrivals,
        // so every order must read it.
        let r = DecayRate::from_half_life(TimeSpan::from_secs(5));
        let arrivals = [(10u64, 100.0), (5, 1.0), (7, 3.0), (12, 2.0), (0, 8.0)]
            .map(|(t, w)| (Nanos::from_secs(t), w));
        let at = Nanos::from_secs(20);
        let exact = closed_form(r, &arrivals, at);
        let mut order = arrivals.to_vec();
        for _ in 0..arrivals.len() {
            order.rotate_left(1);
            for seq in [order.clone(), order.iter().rev().copied().collect()] {
                let mut l = Landmark::new(r, Nanos::ZERO);
                let v = forward(&mut l, &seq) * l.decay(at);
                assert!((v - exact).abs() < 1e-9, "order {seq:?}: {v} vs {exact}");
            }
        }
        // 100 at 10 s, then 1 that is 5 s late.
        let mut l = Landmark::new(r, Nanos::ZERO);
        let c = forward(&mut l, &arrivals[..2]);
        assert!((c * l.decay(at) - 25.125).abs() < 1e-9);
    }

    #[test]
    fn the_landmark_moves_on_the_grid_before_the_cap() {
        // λ = 1/s: the cap is 512 s past the landmark, the grid 256 s.
        let r = DecayRate::per_second(1.0);
        let mut l = Landmark::new(r, Nanos::ZERO);
        assert!(!l.is_due(Nanos::from_secs(512)));
        assert!(l.is_due(Nanos::from_secs(513)));
        assert_eq!(l.grid_point(Nanos::from_secs(513)), Nanos::from_secs(512));
        assert_eq!(l.grid_point(Nanos::from_secs(767)), Nanos::from_secs(512));
        let f = l.move_to(Nanos::from_secs(512));
        assert!((f.apply(1.0) - (-512.0f64).exp()).abs() < 1e-230);
        assert!(!l.is_due(Nanos::from_secs(1000)));
        // Two owners fed one clock land on the same landmark.
        let mut a = Landmark::new(r, Nanos::ZERO);
        let mut b = Landmark::new(r, Nanos::ZERO);
        a.move_to(a.grid_point(Nanos::from_millis(700_001)));
        b.move_to(b.grid_point(Nanos::from_millis(767_999)));
        assert_eq!(a.at(), b.at());
    }

    #[test]
    fn a_shrink_past_the_float_range_keeps_normal_products() {
        // e^(−800) underflows; 1e300·e^(−800) ≈ 1.8e−48 does not.
        let v = Shrink::of(800.0).apply(1e300);
        let want = (300.0 * 10f64.ln() - 800.0).exp();
        assert!((v - want).abs() <= 1e-12 * want, "{v} vs {want}");
        assert!(Shrink::of(0.0) == Shrink::ONE && Shrink::ONE.apply(3.5) == 3.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lambda_rejected() {
        let _ = DecayRate::per_second(0.0);
    }
}
