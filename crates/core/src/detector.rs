//! Detector traits: the contract between algorithms and the window
//! engine.

use crate::report::{HhhReport, Threshold};
use crate::snapshot::{DetectorSnapshot, SnapshotFrame};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;

/// A windowed streaming HHH detector.
///
/// The window engine (in `hhh-window`) feeds items via
/// [`observe`](Self::observe), asks for HHHs at window boundaries via
/// [`report`](Self::report), and calls [`reset`](Self::reset) between
/// disjoint windows — exactly the "reset the data structure at the end
/// of each time window" practice whose blind spots the paper
/// quantifies.
pub trait HhhDetector<H: Hierarchy> {
    /// Account `weight` (bytes or packets) to `item`.
    fn observe(&mut self, item: H::Item, weight: u64);

    /// Account a whole batch of `(item, weight)` observations.
    ///
    /// Semantically identical to calling [`observe`](Self::observe) in
    /// order; detectors override it when amortizing per-call work over
    /// the batch pays (level-major iteration, grouped sampling, fewer
    /// RNG draws). The sharded pipeline in `hhh-window` feeds shards
    /// exclusively through this entry point.
    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        for &(item, weight) in batch {
            self.observe(item, weight);
        }
    }

    /// Total weight observed since the last reset.
    fn total(&self) -> u64;

    /// The HHH set at a relative threshold, sorted by (level, prefix).
    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>>;

    /// Forget everything (window boundary).
    fn reset(&mut self);

    /// Approximate memory footprint in bytes, for the resource
    /// comparisons the paper's §3 calls for.
    fn state_bytes(&self) -> usize;

    /// Short algorithm name for tables and logs.
    fn name(&self) -> &'static str;
}

/// A windowless (continuous-time) detector: the kind of algorithm the
/// paper argues the community should build.
///
/// Instead of reset + report at boundaries, observations carry
/// timestamps and a report can be requested *at any instant* — there is
/// no window to align with, so there is nothing for a burst to
/// straddle.
pub trait ContinuousDetector<H: Hierarchy> {
    /// Account `weight` to `item` at trace time `ts` (non-decreasing).
    fn observe(&mut self, ts: Nanos, item: H::Item, weight: u64);

    /// Account a whole batch of timestamped observations (timestamps
    /// non-decreasing within the batch, as on the wire).
    fn observe_batch(&mut self, batch: &[(Nanos, H::Item, u64)]) {
        for &(ts, item, weight) in batch {
            self.observe(ts, item, weight);
        }
    }

    /// Decayed total traffic as of `now`.
    fn decayed_total(&self, now: Nanos) -> f64;

    /// The HHH set at `now`: prefixes whose decayed discounted count
    /// exceeds θ × decayed total.
    fn report_at(&self, now: Nanos, threshold: Threshold) -> Vec<HhhReport<H::Prefix>>;

    /// Approximate memory footprint in bytes.
    fn state_bytes(&self) -> usize;

    /// Short algorithm name for tables and logs.
    fn name(&self) -> &'static str;
}

/// A detector whose state from two disjoint sub-streams can be
/// combined into the state of the union stream.
///
/// This is the property that makes sharded (multi-core, and later
/// distributed) ingestion possible: hash-partition the packet stream by
/// key, run one detector per shard, and [`merge`](Self::merge) at
/// report points. The contract, following the mergeable-summaries
/// framework (Agarwal et al., PODS 2012):
///
/// * **Exact detectors** must be lossless: merging the shard states of
///   any partition of a stream yields *exactly* the state of the
///   unpartitioned stream (same totals, same reports).
/// * **Approximate detectors** must preserve their error guarantees
///   under merge: for the summaries here, estimates remain upper (or
///   lower, for Misra-Gries-style) bounds on the truth of the combined
///   stream, and the per-key error grows at most additively in the
///   merged parts' errors — never faster.
///
/// Both detectors must be configured identically (same capacities,
/// seeds, decay rates); implementations panic on mismatch rather than
/// silently producing garbage.
pub trait MergeableDetector {
    /// Fold `other`'s state into `self`. `other` is unchanged.
    fn merge(&mut self, other: &Self);

    /// Serialize the mergeable state as a v1 [`DetectorSnapshot`] (a
    /// JSON state): the same wire body as [`to_frame`](Self::to_frame),
    /// rendered the other way. Ship it to an aggregator, rebuild a
    /// detector there, and [`merge`](Self::merge) it.
    ///
    /// The default says "not supported" (`None`); detectors opt in.
    /// The pipeline engines in `hhh-window` never call it: they hand
    /// sinks frames, and a JSON sink transcodes each frame to its v1
    /// state line.
    fn snapshot(&self) -> Option<DetectorSnapshot> {
        None
    }

    /// Serialize the mergeable state as a wire-format v2
    /// [`SnapshotFrame`] carrying the report-window geometry
    /// `start..=at` — what the sharded engines in `hhh-window` hand a
    /// sink that keeps state, once per report point.
    ///
    /// The default goes through [`snapshot`](Self::snapshot) and the
    /// JSON → frame transcode, which is correct for any detector. The
    /// snapshot-capable detectors override both methods to render one
    /// wire body each way, so this frame carries the same state as
    /// `snapshot()` without rendering or parsing JSON. Returns `None`
    /// when the detector has no wire format; the sink then gets no
    /// state for that point.
    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        self.snapshot().and_then(|s| s.to_frame(start, at).ok())
    }

    /// Remove a previously [`merge`](Self::merge)d state from `self`
    /// again — the inverse merge that only *lossless* (exact)
    /// detectors can offer. Returns `true` when the retraction was
    /// applied; the default returns `false` and leaves `self`
    /// unchanged, signalling the caller to fall back to re-merging
    /// from scratch.
    ///
    /// Callers must only retract a state that is still contained in
    /// `self` (merged earlier and not retracted since). The sliding
    /// shard pools in `hhh-window` use this to keep a rolling window
    /// state and merge only the epoch entering/leaving per step,
    /// instead of re-merging `window/step` detectors per position.
    fn retract(&mut self, other: &Self) -> bool {
        let _ = other;
        false
    }
}

/// Forwarding impl: a mutable borrow of a windowed detector is itself a
/// windowed detector. This is what lets the `hhh-window` pipeline
/// engines own their detector *or* borrow one from the caller through
/// the same generic parameter.
impl<H: Hierarchy, D: HhhDetector<H>> HhhDetector<H> for &mut D {
    fn observe(&mut self, item: H::Item, weight: u64) {
        (**self).observe(item, weight);
    }

    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        (**self).observe_batch(batch);
    }

    fn total(&self) -> u64 {
        (**self).total()
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        (**self).report(threshold)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn state_bytes(&self) -> usize {
        (**self).state_bytes()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Forwarding impl for continuous detectors; see the [`HhhDetector`]
/// forwarding impl above.
impl<H: Hierarchy, C: ContinuousDetector<H>> ContinuousDetector<H> for &mut C {
    fn observe(&mut self, ts: Nanos, item: H::Item, weight: u64) {
        (**self).observe(ts, item, weight);
    }

    fn observe_batch(&mut self, batch: &[(Nanos, H::Item, u64)]) {
        (**self).observe_batch(batch);
    }

    fn decayed_total(&self, now: Nanos) -> f64 {
        (**self).decayed_total(now)
    }

    fn report_at(&self, now: Nanos, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        (**self).report_at(now, threshold)
    }

    fn state_bytes(&self) -> usize {
        (**self).state_bytes()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}
