//! # hhh-trace
//!
//! Synthetic traffic generation: the workspace's stand-in for the CAIDA
//! equinix-chicago traces the paper analysed (proprietary).
//!
//! The generator reproduces the traffic *properties* the paper's
//! experiments actually measure:
//!
//! * **Heavy-tailed source popularity** — source rates follow a Zipf
//!   rank distribution, so a handful of sources carry a large share of
//!   bytes (what makes HHH detection meaningful at 1–10% thresholds).
//! * **Prefix structure** — sources are clustered into networks, so
//!   aggregates exist at /24, /16 and /8 levels, not just at hosts.
//! * **Burstiness at window time scales** — sources alternate ON/OFF
//!   with sojourn times comparable to the paper's 5–20 s windows. A
//!   burst that straddles a disjoint-window boundary gets diluted below
//!   threshold in *both* adjacent windows while a sliding window sees it
//!   whole: this is precisely the mechanism behind "hidden HHHs", and
//!   the [`TrafficModel`] knobs (`burst_on`, `burst_off`,
//!   `bursty_fraction`) control how much of it the trace contains.
//! * **Heterogeneous packet sizes** — an IMIX-style mixture, since the
//!   paper thresholds on *bytes*, not packets.
//!
//! Everything is deterministic given a seed: generation is
//! reproducible, which the experiment harness and the tests rely on.
//!
//! ```
//! use hhh_trace::{scenarios, TraceGenerator};
//! use hhh_nettypes::TimeSpan;
//!
//! let model = scenarios::day_trace(0, TimeSpan::from_secs(10));
//! let packets: Vec<_> = TraceGenerator::new(model, 42).collect();
//! assert!(!packets.is_empty());
//! // Timestamps are sorted: a generator is a valid trace stream.
//! assert!(packets.windows(2).all(|w| w[0].ts <= w[1].ts));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod io;
mod model;
mod rng;
pub mod scenarios;
mod stats;

pub use gen::{merge_streams, shift_stream, MergeStreams, TraceGenerator};
pub use io::{load_pcap, save_pcap};
pub use model::{BurstProfile, PacketSizeMix, TrafficModel};
pub use rng::{DiscreteMix, Exponential, Geometric, Pareto, ZipfTable};
pub use stats::TraceStats;
