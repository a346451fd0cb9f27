//! # hhh-hierarchy
//!
//! Prefix hierarchies: the generalization structure that turns heavy
//! hitter detection into *hierarchical* heavy hitter detection.
//!
//! A one-dimensional hierarchy (this crate's [`Hierarchy`] trait) is a
//! chain: every item (e.g. an IPv4 source address) generalizes to exactly
//! one prefix per level, and each level's prefix is contained in the next
//! level's. The paper's experiments use the one-dimensional source-IP
//! hierarchy; the classic instantiations are *bit-granularity* (33 levels
//! for IPv4: /32, /31, …, /0) and *byte-granularity* (5 levels: /32, /24,
//! /16, /8, /0), both provided by [`Ipv4Hierarchy`].
//!
//! ## Level numbering convention
//!
//! Level `0` is the most specific (the item itself); higher levels are
//! more general; the last level (`levels() - 1`) is the root. This is the
//! convention of the RHHH paper and makes "walk up `k` levels" a simple
//! addition. All algorithms in `hhh-core` assume it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod ipv4;
mod ipv6;

pub use chain::Hierarchy;
pub use ipv4::Ipv4Hierarchy;
pub use ipv6::Ipv6Hierarchy;
