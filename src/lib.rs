//! # hidden-hhh
//!
//! A comprehensive Rust implementation of the systems and experiments
//! behind **"Revealing Hidden Hierarchical Heavy Hitters in network
//! traffic"** (Galea, Moore, Antichi, Bianchi, Bifulco — SIGCOMM
//! Posters and Demos 2018).
//!
//! The paper shows that the near-universal practice of detecting
//! (hierarchical) heavy hitters in *disjoint time windows* hides a
//! substantial fraction of them — up to 34% in the paper's Tier-1
//! traces — and proposes continuous-time (time-decaying) analysis,
//! concretely time-decaying Bloom filters, as the way out. This
//! workspace rebuilds that whole world:
//!
//! * [`nettypes`] — prefixes, packet records, trace time;
//! * [`pcap`] — capture I/O (classic pcap + a native compact format);
//! * [`trace`] — synthetic CAIDA-like traffic (the paper's traces are
//!   proprietary);
//! * [`hierarchy`] — 1-D bit/byte prefix hierarchies over IPv4 and
//!   IPv6;
//! * [`sketches`] — Count Sketch, Space-Saving, **time-decaying Bloom
//!   filters** and a Memento-style sliding-window summary;
//! * [`core`] — HHH detectors: exact, Space-Saving full-ancestry,
//!   RHHH, the windowless **TDBF-HHH**, plus HashPipe and
//!   UnivMon-lite baselines;
//! * [`window`] — the unified `Pipeline` (source → engine → sink):
//!   disjoint / sliding / micro-varied / continuous engines plus their
//!   sharded multi-core variants (batch-fed, merge-at-report), channel
//!   sources with back-pressure, snapshot sinks in both wire formats,
//!   and the TCP snapshot **transport** that streams natively encoded
//!   v2 frames between processes;
//! * [`dataplane`] — a match-action pipeline model with resource
//!   accounting;
//! * [`analysis`] — Jaccard, hidden-HHH, ECDF, precision/recall,
//!   tables, CSV;
//! * [`experiments`] — the binaries that regenerate every figure.
//!
//! ## Quickstart
//!
//! ```
//! use hidden_hhh::prelude::*;
//!
//! // Generate ten seconds of ISP-like traffic…
//! let model = scenarios::day_trace(0, TimeSpan::from_secs(10));
//! let packets: Vec<PacketRecord> = TraceGenerator::new(model, 42).collect();
//!
//! // …and find the hierarchical heavy hitters above 5% of bytes in
//! // each 5 s window, through the unified pipeline.
//! let horizon = TimeSpan::from_secs(10);
//! let mut det = ExactHhh::new(Ipv4Hierarchy::bytes());
//! let reports = Pipeline::new(packets.iter().copied())
//!     .engine(Disjoint::new(
//!         &mut det,
//!         horizon,
//!         TimeSpan::from_secs(5),
//!         &[Threshold::percent(5.0)],
//!         |p| p.src,
//!     ))
//!     .collect()
//!     .run();
//! for window in &reports[0] {
//!     for hhh in &window.hhhs {
//!         println!("[{}..{}] {hhh}", window.start, window.end);
//!     }
//! }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the README
//! for the experiment binaries that regenerate every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hhh_agg as agg;
pub use hhh_aggd as aggd;
pub use hhh_analysis as analysis;
pub use hhh_core as core;
pub use hhh_dataplane as dataplane;
pub use hhh_experiments as experiments;
pub use hhh_hierarchy as hierarchy;
pub use hhh_nettypes as nettypes;
pub use hhh_pcap as pcap;
pub use hhh_sketches as sketches;
pub use hhh_trace as trace;
pub use hhh_window as window;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use hhh_analysis::{jaccard, Ecdf, SetAccuracy, Table};
    pub use hhh_core::{
        ContinuousDetector, ExactHhh, HashPipe, HhhDetector, HhhReport, MergeableDetector,
        MvPipeHhh, Rhhh, SpaceSavingHhh, TdbfHhh, TdbfHhhConfig, Threshold, UnivMonLite,
    };
    pub use hhh_hierarchy::{Hierarchy, Ipv4Hierarchy, Ipv6Hierarchy};
    pub use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, Proto, TimeSpan};
    pub use hhh_sketches::{DecayRate, Landmark, OnDemandTdbf, SpaceSaving};
    pub use hhh_trace::{scenarios, TraceGenerator, TraceStats, TrafficModel};
    pub use hhh_window::{
        bounded, with_shards, CollectSink, Continuous, Disjoint, Engine, FnSink, FrameHub,
        MicroVaried, PacketSource, Pipeline, ReportSink, ShardedContinuous, ShardedDisjoint,
        ShardedSliding, SlidingExact, SnapshotSink, TcpTransport, TransportSink, WindowReport,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let h = Ipv4Hierarchy::bytes();
        let mut det = ExactHhh::new(h);
        HhhDetector::<Ipv4Hierarchy>::observe(&mut det, 0x0A000001, 100);
        assert_eq!(HhhDetector::<Ipv4Hierarchy>::total(&det), 100);
    }
}
