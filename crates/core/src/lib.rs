//! # hhh-core
//!
//! Hierarchical heavy hitter (HHH) detection: the algorithms the paper
//! studies, the baselines it cites, and the windowless detector its §3
//! proposes.
//!
//! ## The problem
//!
//! A *heavy hitter* (HH) is a flow key whose traffic exceeds a fraction
//! θ of the total in some measurement interval. A *hierarchical* heavy
//! hitter generalizes keys along a prefix hierarchy (e.g. IPv4
//! /32→/24→/16→/8→/0) and asks for prefixes whose traffic exceeds θ·N
//! **after excluding the contribution of their HHH descendants** — the
//! discount is what makes the problem non-trivial: without it every
//! ancestor of a heavy host would trivially be "heavy" too.
//!
//! ## What's here
//!
//! | Type | Kind | Role in the paper |
//! |------|------|-------------------|
//! | [`ExactHhh`] | exact, windowed | ground truth for every experiment (the paper's own analysis is offline/exact) |
//! | [`SpaceSavingHhh`] | approximate, windowed | the classic per-level streaming HHH (full ancestry) |
//! | [`Rhhh`] | approximate, windowed | randomized constant-time HHH (Ben Basat et al., SIGCOMM 2017) — the state of the art the calibration note positions this poster against |
//! | [`MementoHhh`] | approximate, **window-native** | per-level Memento-style sliding summaries (Ben-Basat et al., CoNEXT 2018): the detector maintains its own packet window with O(1) slide, so reports always cover the last `W` packets without engine resets or per-position merges |
//! | [`MvPipeHhh`] | approximate, windowed | single bottom-level pipe of majority-vote buckets (MVPipe, Tang et al., 2021): deterministic O(1) per packet regardless of hierarchy depth, ancestors aggregated lazily at report time |
//! | [`TdbfHhh`] | approximate, **windowless** | the paper's §3 proposal: per-level on-demand time-decaying Bloom filters + decayed candidate tables |
//! | [`HashPipe`] | HH baseline | "Heavy-Hitter Detection Entirely in the Data Plane" (SOSR 2017), the paper's ref. \[5\] |
//! | [`UnivMonLite`] | HH baseline | UnivMon-style universal sketch (SIGCOMM 2016), the paper's ref. \[4\] |
//! | [`TwoDimExactHhh`] | exact, 2-D | (src, dst) lattice HHH with full descendant exclusion |
//!
//! Windowed detectors implement [`HhhDetector`]; the windowless one
//! implements [`ContinuousDetector`]. The window engine in `hhh-window`
//! drives either. The five that snapshot (exact, Space-Saving, RHHH,
//! TDBF, MVPipe) are the rows of the kind table, [`Kind`], which names
//! each one's wire label once.
//!
//! ## Semantics (normative)
//!
//! All detectors in this crate use the *exclude-all-HHH-descendants*
//! discount (the definition quoted in the paper's introduction):
//! bottom-up over levels, a prefix is an HHH iff its count minus the
//! counts of its maximal HHH descendants reaches the threshold. The
//! exact reference implementation is [`ExactHhh::report`]; every
//! approximate detector is tested against it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod exact;
mod hashpipe;
mod kind;
mod memento;
mod mvpipe;
mod report;
mod rhhh;
pub mod snapshot;
mod ss_hhh;
mod tdbf_hhh;
mod twodim;
mod univmon;

pub use detector::{ContinuousDetector, HhhDetector, MergeableDetector};
pub use exact::{discount_bottom_up, ExactHhh};
pub use hashpipe::HashPipe;
pub use kind::Kind;
pub use memento::MementoHhh;
pub use mvpipe::{MvBucket, MvPipeHhh};
pub use report::{HhhReport, Threshold};
pub use rhhh::Rhhh;
pub use snapshot::{
    parse_state_line, DetectorSnapshot, RestoredDetector, SnapshotError, SnapshotFrame,
    StampedSnapshot, WireFormat, WireSnapshot,
};
pub use ss_hhh::SpaceSavingHhh;
pub use tdbf_hhh::{TdbfHhh, TdbfHhhConfig};
pub use twodim::TwoDimExactHhh;
pub use univmon::UnivMonLite;
