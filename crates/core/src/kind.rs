//! The **kind table**: every snapshot-capable detector kind, named
//! once.
//!
//! A kind's wire label (the `kind` of its snapshots and frames, its
//! detector's `name()`, the `/hhh?kind=` filter, the CLIs' `<kind>`
//! argument) is spelled only in [`Kind::label`]; everything else reads
//! it from there, and [`Kind::parse`] is the one reverse lookup.
//! Wire types keep the kind as a string, so a frame of a kind this
//! build does not know still decodes; restoring it is
//! [`SnapshotError::Kind`](crate::SnapshotError::Kind).

/// A snapshot-capable detector kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// [`ExactHhh`](crate::ExactHhh): exact counts, lossless merges.
    Exact,
    /// [`SpaceSavingHhh`](crate::SpaceSavingHhh): per-level Space-Saving.
    SsHhh,
    /// [`Rhhh`](crate::Rhhh): randomized constant-time HHH.
    Rhhh,
    /// [`TdbfHhh`](crate::TdbfHhh): the paper's windowless detector.
    Tdbf,
    /// [`MvPipeHhh`](crate::MvPipeHhh): one bottom-level majority-vote
    /// pipe.
    MvPipe,
}

impl Kind {
    /// Every kind, in stream-id order: a kind's position here is its
    /// index in the multi-kind stream-id convention
    /// (`index × k + shard`), so new kinds go at the end.
    pub const ALL: [Kind; 5] = [Kind::Exact, Kind::SsHhh, Kind::Rhhh, Kind::Tdbf, Kind::MvPipe];

    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::SsHhh => "ss-hhh",
            Kind::Rhhh => "rhhh",
            Kind::Tdbf => "tdbf-hhh",
            Kind::MvPipe => "mvpipe",
        }
    }

    /// The kind whose wire label is `label`, if any.
    pub fn parse(label: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.label() == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ContinuousDetector, DetectorSnapshot, ExactHhh, HhhDetector, MergeableDetector, MvPipeHhh,
        RestoredDetector, Rhhh, SnapshotError, SpaceSavingHhh, TdbfHhh, TdbfHhhConfig,
    };
    use hhh_hierarchy::Ipv4Hierarchy;
    use hhh_nettypes::Nanos;

    #[test]
    fn labels_are_distinct_and_parse_back() {
        let labels: Vec<_> = Kind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["exact", "ss-hhh", "rhhh", "tdbf-hhh", "mvpipe"], "stream-id order");
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.label()), Some(kind));
        }
        assert_eq!(Kind::parse("tdbf"), None);
        assert_eq!(Kind::parse("exact/0of2"), None);
    }

    /// A fresh detector of `kind`: its `name()` and its snapshot.
    fn detector(kind: Kind) -> (&'static str, DetectorSnapshot) {
        type Named = (&'static str, Option<DetectorSnapshot>);
        fn windowed(d: impl HhhDetector<Ipv4Hierarchy> + MergeableDetector) -> Named {
            (d.name(), d.snapshot())
        }
        let h = Ipv4Hierarchy::bytes();
        let (name, snap) = match kind {
            Kind::Exact => windowed(ExactHhh::new(h)),
            Kind::SsHhh => windowed(SpaceSavingHhh::new(h, 8)),
            Kind::Rhhh => windowed(Rhhh::new(h, 8, 1)),
            Kind::Tdbf => {
                let d = TdbfHhh::new(h, TdbfHhhConfig::default());
                (d.name(), d.snapshot())
            }
            Kind::MvPipe => windowed(MvPipeHhh::new(h, 8)),
        };
        (name, snap.expect("every kind snapshots"))
    }

    #[test]
    fn detectors_and_snapshots_carry_their_row_label() {
        let h = Ipv4Hierarchy::bytes();
        for kind in Kind::ALL {
            let (name, snap) = detector(kind);
            assert_eq!(name, kind.label());
            assert_eq!(snap.kind, kind.label());
            let restored = RestoredDetector::from_snapshot(&h, &snap).expect("restores");
            assert_eq!(restored.kind(), kind.label());
        }
    }

    #[test]
    fn a_kind_that_is_not_a_label_restores_to_a_kind_error() {
        let h = Ipv4Hierarchy::bytes();
        let (_, mut snap) = detector(Kind::Exact);
        let mut frame = snap.to_frame(Nanos::ZERO, Nanos::ZERO).expect("transcodes");
        snap.kind = "tdbf".into();
        frame.kind = "tdbf".into();
        let unknown = Err(SnapshotError::Kind("tdbf".into()));
        assert_eq!(RestoredDetector::from_snapshot(&h, &snap).map(|d| d.kind()), unknown);
        assert_eq!(RestoredDetector::from_frame(&h, &frame).map(|d| d.kind()), unknown);
    }
}
