//! # hhh-aggd
//!
//! The **long-running aggregation daemon** — the one program that
//! folds shard streams arriving over TCP (`hhh-agg` folds files and
//! pipes). It keeps an [`hhh_window::FrameHub`] up indefinitely:
//!
//! * shards join and leave at runtime over the [`hhh_window::FrameHub`]
//!   hello/ack protocol — no fixed shard count;
//! * a killed shard **resumes exactly**: a spooled transport
//!   ([`hhh_window::TcpTransport::with_spool`]) replays from the hub's
//!   ack, a plain deterministic shard replays from zero and the hub's
//!   position dedupe drops the prefix — either way the fold is
//!   byte-identical to an uninterrupted run;
//! * the merged HHH sets are served live over hand-rolled HTTP/1.1
//!   (`GET /hhh`, `GET /healthz`) next to Prometheus-style text
//!   metrics (`GET /metrics`: frames/s, fold latency quantiles,
//!   per-stream lag/delivered, connected shards).
//!
//! The fold itself is [`hhh_agg::FoldState`] — the one fold
//! `fold_streams` also runs, here incrementally: dirty report points
//! refold in canonical stream order, so the daemon's answers stay
//! byte-identical to the batch fold no matter the interleaving,
//! restarts included. `GET /hhh?all=1&state=1` is the daemon's whole
//! fold, byte-identical to `hhh-agg --emit-state` over the same shard
//! files. A run that streams known shards in-process
//! ([`spawn_daemon`]) knows when they have all arrived:
//! [`Registry::settled`] holds once every stream delivered its frames
//! and left, and the fold refolded them.
//!
//! Two binaries ship with the crate: `hhh-aggd` (the daemon) and
//! `aggd-shard`, the one scenario shard writer. It writes a
//! deterministic shard stream to stdout (the CI file smokes pipe it
//! into `hhh-agg`) or streams it over TCP with `--spool` and
//! `--die-after` (the restart-resume integration test, the CI smoke
//! topologies, `docker-compose.yml` and `deploy/k8s.yaml`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod http;
pub mod metrics;
pub mod registry;
pub mod scenario;

pub use daemon::{spawn_daemon, DaemonConfig, DaemonHandle};
pub use metrics::Metrics;
pub use registry::{Registry, StreamInfo};
