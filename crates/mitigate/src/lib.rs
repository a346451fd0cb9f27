//! # hhh-mitigate
//!
//! The closed-loop mitigation control plane: from detected HHH
//! prefixes to filter rules, scored for collateral damage.
//!
//! Detection alone doesn't defend anything. This crate turns the
//! repo's HHH reports — polled from `hhh-aggd`'s `/hhh` endpoint or
//! handed to [`PolicyEngine::ingest`] in-process — into a live table
//! of per-prefix actions, and applies that table to packets
//! *upstream* of the detectors through `hhh_window::RuleFilter`:
//!
//! ```text
//!            reports (/hhh or in-process)
//!                      |
//!                      v
//!   packets --> [PolicyEngine] --edits--> [RuleTable] <--LPM-- [TableGate]
//!      |                                                           |
//!      +----------------------> RuleFilter(gate) ------------------+--> shards
//!                                     |
//!                              dropped bytes, classed
//!                              attack/legit vs ground truth
//! ```
//!
//! The moving parts, each with its own module and property tests:
//!
//! * [`Action`] / [`Rule`] ([`rule`]) — block, rate-limit-to-N-bps,
//!   or watch, with TTL, renewal count, and data-plane drop counters.
//! * [`RuleTable`] ([`table`]) — capped, longest-prefix-match over one
//!   sorted rule list per prefix length, with deterministic eviction
//!   (severity, then EWMA weight).
//! * [`PolicyEngine`] ([`policy`]) — onset hysteresis (M consecutive
//!   over-threshold windows), surge-vs-baseline discrimination so
//!   steady heavy legitimate prefixes never fire, EWMA damping, TTL +
//!   renewal (detector re-assertion *or* data-plane hits).
//! * [`TableGate`] ([`gate`]) — the data plane: one table lock per
//!   chunk of packets, a verdict per packet, token buckets in trace
//!   time kept with their rules, drops credited in place, ground-truth
//!   byte classification for collateral scoring.
//! * [`ingest`] / [`render`] — the `/hhh` wire format in, the CLI
//!   table out.
//!
//! An engine that enforces lives beside the gate that reads its table,
//! as in `hhh-loadgen --mitigate`, which drives the whole loop against
//! the planted scenario suite and scores attack bytes dropped vs
//! legitimate collateral per detector kind. `hhh-mitigate watch`
//! follows a live `hhh-aggd`'s `/hhh` answers with one engine and
//! prints its table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod ingest;
pub mod policy;
pub mod render;
pub mod rule;
pub mod table;

pub use gate::{GateTotals, TableGate};
pub use ingest::parse_policy_windows;
pub use policy::{FiredRule, PolicyConfig, PolicyEngine, PolicyStats};
pub use render::rules_text;
pub use rule::{Action, Rule};
pub use table::RuleTable;
