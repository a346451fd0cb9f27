//! # hhh-dataplane
//!
//! A match-action pipeline *model* — the substrate for the paper's
//! programmable-data-plane angle.
//!
//! The paper motivates its analysis with P4-capable switches and closes
//! by calling for "match-action friendly" windowless algorithms,
//! promising a comparison of "performance, resource utilization and
//! result's accuracy". Real hardware is not available here (and was
//! future work in the paper too), so this crate provides the next best
//! thing: a software model of an RMT-style feed-forward pipeline that
//! **enforces** the structural constraints that make an algorithm
//! implementable in match-action hardware:
//!
//! * a packet traverses stages strictly in order (no going back);
//! * each register array is accessed **at most once per packet**
//!   (single read-modify-write — the atom hardware gives you);
//! * register cells have a fixed bit width; values saturate;
//! * no floating point — the TDBF decay is integer shifts plus an
//!   8-entry lookup table, exactly the kind of trick a P4 target
//!   permits.
//!
//! [`programs::DpHashPipe`] and [`programs::DpTdbf`] are HashPipe and
//! the on-demand time-decaying Bloom filter mapped onto this model;
//! both are tested for functional equivalence against their
//! unconstrained `hhh-core`/`hhh-sketches` counterparts, and both
//! report a [`ResourceReport`] — the §3 resource-utilization numbers.
//!
//! Emitting actual P4 source from the model is out of scope, as it was
//! for the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
pub mod programs;
mod resources;

pub use model::{Pipeline, PipelineError, RegisterArray, StageSpec};
pub use resources::ResourceReport;
