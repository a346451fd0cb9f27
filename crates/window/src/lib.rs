//! # hhh-window
//!
//! The window execution engine: everything Figure 1 of the paper
//! sketches, as one composable **pipeline**.
//!
//! ```text
//! Pipeline::new(source).engine(engine).sink(sink).run()
//! ```
//!
//! * **Sources** ([`source`]) — any `Iterator` of packets ([`Source`]
//!   is generic over its item type; engines take `PacketRecord`s):
//!   generated traces, slices, a bounded channel with back-pressure
//!   fed from other threads ([`source::bounded`]), or the chunked
//!   pcap source in `hhh-pcap`. [`SnapshotSource`] reads a
//!   snapshot stream back (either wire format) for `hhh-agg`'s fold.
//! * **Engines** ([`pipeline`]) — the window model × execution
//!   strategy:
//!   [`Disjoint`] resets the detector at every boundary (the practice
//!   the paper critiques); [`SlidingExact`] evaluates every sliding
//!   position exactly via rolling per-epoch counts; [`MicroVaried`]
//!   evaluates a baseline window length against slightly-shorter
//!   variants in one pass (Fig. 3's setup); [`Continuous`] probes a
//!   windowless detector at arbitrary instants; and the multi-core
//!   [`ShardedDisjoint`], [`ShardedSliding`] and [`ShardedContinuous`]
//!   hash-partition the stream by key across worker threads and merge
//!   shard states at report points ([`sharded`] holds the one worker
//!   pool all three share: one detector per worker). Folding the
//!   snapshot streams those engines write — cross-process aggregation
//!   — is the `hhh-agg` crate's `FoldState`.
//! * **Sinks** ([`sink`]) — collect to `Vec`s ([`CollectSink`]),
//!   stream into a closure ([`FnSink`]), or write the snapshot wire
//!   stream — serialized merged-detector state for cross-process
//!   aggregation — in either format ([`SnapshotSink`]): v1 JSON lines
//!   or v2 binary frames (the hot aggregation path). A state reaches a
//!   sink only as a v2 frame, and only a sink that keeps state
//!   ([`ReportSink::wants_frames`]) makes an engine encode one.
//! * **Transport** ([`transport`]) — the snapshot stream over TCP:
//!   [`TcpTransport`] writes frames with reconnect-with-backoff behind
//!   [`FrameWrite`], [`TransportSink`] is its pipeline face, and
//!   [`FrameHub`] reads them with multi-client accept and hello/ack
//!   admission, for `hhh-aggd`'s fold. Frames are encoded straight
//!   from each detector's wire body — no JSON between a shard's state
//!   and the aggregator's fold.
//!
//! ## Exactness of the sliding engines
//!
//! When the step divides the window length, a sliding window is a union
//! of whole *epochs* (step-sized bins), so per-epoch exact counts give
//! *exact* per-position HHH sets with one pass over the trace and
//! O(window/step) rolling state — no approximation anywhere. The
//! paper's 5/10/20 s windows with a 1 s step satisfy this; the engines
//! assert it. [`ShardedSliding`] runs the same epoch decomposition
//! over one ring of cross-shard epoch states kept in the engine, which
//! makes the sliding schedule multi-core for *any* mergeable detector —
//! and report-for-report identical to [`SlidingExact`] when the
//! detectors are exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod pipeline;
mod report;
pub mod sharded;
pub mod sink;
pub mod source;
pub mod transport;

pub use filter::{PacketGate, RuleFilter};
pub use pipeline::{
    Continuous, Disjoint, Engine, MicroVaried, Pipeline, ShardedContinuous, ShardedDisjoint,
    ShardedSliding, SlidingExact,
};
pub use report::{PrefixSet, WindowReport};
pub use sharded::{shard_of, with_shards, Observation, ShardPool, DEFAULT_BATCH};
pub use sink::{render_report_line, CollectSink, FnSink, ReportSink, SnapshotSink};
pub use source::{
    bounded, ChannelSource, FeederStats, PacketFeeder, PacketSource, SnapshotSource, Source,
    StreamRecord, DEFAULT_CHUNK,
};
pub use transport::{
    ack_frame, hello_frame, http_get, parse_ack, read_frame_from, resume_hello_frame, FrameHub,
    FrameSpool, FrameWrite, HubEvent, HubHandle, TcpTransport, TransportError, TransportSink,
    ACK_KIND, HELLO_KIND,
};
