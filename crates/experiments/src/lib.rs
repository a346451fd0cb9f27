//! # hhh-experiments
//!
//! The experiment harness: one module per paper artifact, each with a
//! library entry point (used by the integration tests) and a binary
//! (`fig2`, `fig3`, `tdbf_compare`, `workloads`) that prints the
//! table/series the paper reports.
//!
//! | Artifact | Module | Binary |
//! |----------|--------|--------|
//! | Figure 2 (hidden HHHs) | [`fig2`] | `cargo run --release -p hhh-experiments --bin fig2` |
//! | Figure 3 (Jaccard ECDFs) | [`fig3`] | `cargo run --release -p hhh-experiments --bin fig3` |
//! | §3 comparison (accuracy/performance/resources) | [`compare`] | `cargo run --release -p hhh-experiments --bin tdbf_compare` |
//! | Workload characterization (the "four days") | [`workloads`] | `cargo run --release -p hhh-experiments --bin workloads` |
//!
//! Every entry point takes a [`Scale`]: `Smoke` for CI-sized runs,
//! `Quick` (the default) for minutes-scale laptop runs, `Paper` for
//! the paper's full durations (hour-long days). Shapes — who wins, how
//! fractions order across thresholds — are stable across scales;
//! absolute percentages tighten as the scale grows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod compare;
pub mod corpus;
pub mod distagg;
pub mod fairness;
pub mod fig2;
pub mod fig3;
mod scale;
pub mod workloads;

pub use scale::{
    shard_sweep, sliding_scoreboard, Scale, ShardSweepRow, SweepResults, SHARD_COUNTS,
};
