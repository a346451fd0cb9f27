//! # hhh-sketches
//!
//! Frequency-estimation sketches: the approximate-counting substrate the
//! HHH detectors in `hhh-core` are assembled from.
//!
//! | Type | Answers | Paper it implements |
//! |------|---------|---------------------|
//! | [`CountSketch`] | point frequency, unbiased | Charikar, Chen, Farach-Colton 2002 |
//! | [`SpaceSaving`] | top-k + frequency with deterministic bounds | Metwally, Agrawal, El Abbadi 2005 |
//! | [`OnDemandTdbf`] | *time-decayed* frequency | Bianchi, d'Heureuse, Niccolini 2011 — the proof-of-concept the paper's §3 proposes |
//! | [`Landmark`] | the landmark forward-decayed values are measured against | Cormode et al., "Forward Decay", ICDE 2009 (see [`decay`]) |
//! | [`SlidingSummary`] | frequent items over the last `W` packets, O(1) updates | lazy-expiry summary in the spirit of Memento (Ben-Basat et al., CoNEXT 2018), built on the frames of WCSS (Ben-Basat et al. 2016, the paper's ref. \[1\]) |
//!
//! ## Design rules
//!
//! * **No allocation on the update path.** Every `update`/`insert`
//!   touches pre-allocated flat arrays only (the single exception is a
//!   hash-map rehash inside [`SpaceSaving`], amortized O(1) and bounded
//!   by its fixed capacity).
//! * **Keys are anything `Hash + Eq + Copy`.** Hashing is seeded and
//!   deterministic (see [`hash`]), so sketches are reproducible across
//!   runs and platforms — a requirement for the experiment harness.
//! * **Time is explicit.** Nothing reads a clock: trace time is passed
//!   in as `Nanos`, and a [`Landmark`] turns it into the decay factors
//!   of forward-decayed values; trace time drives everything.
//!
//! * **Summaries are mergeable.** Every frequency summary here
//!   supports `merge` over identically-configured
//!   instances fed *disjoint* sub-streams, following the
//!   mergeable-summaries framework (Agarwal et al., PODS 2012):
//!   [`CountSketch`] merges by counter-wise addition (exact, by
//!   linearity), [`SpaceSaving`] by the union-then-prune recipe that
//!   keeps its deterministic bound additive, [`OnDemandTdbf`] by
//!   cell-wise addition of forward-decayed values, and
//!   [`SlidingSummary`] by folding the other side's live mass into its
//!   current frame. This is the substrate of `hhh-window`'s sharded
//!   pipeline: partition a stream by key, sketch each shard on its own
//!   core, merge at report points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decay;
pub mod hash;

mod count_sketch;
mod space_saving;
mod tdbf;
mod window_summary;

pub use count_sketch::CountSketch;
pub use decay::{DecayRate, Landmark, Shrink};
pub use space_saving::{SpaceSaving, SsEntry};
pub use tdbf::OnDemandTdbf;
pub use window_summary::SlidingSummary;
