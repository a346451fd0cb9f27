//! Ablations: the design choices behind the TDBF-HHH detector and
//! RHHH, swept one knob at a time.
//!
//! * **Half-life** — the windowless detector's one time constant. Too
//!   short and borderline traffic decays below threshold before it can
//!   be reported; too long and stale traffic pollutes the present.
//!   Expect a broad optimum around *half the reference window* (the
//!   equivalence argument in `hhh-sketches::decay`).
//! * **Candidate table capacity** — the "who" memory that complements
//!   the TDBF's "how much". Too small and heavy prefixes get evicted
//!   between bursts; beyond a few hundred entries per level the F1
//!   curve flattens while state grows linearly.
//! * **RHHH counters per level** — the space/recall trade of the
//!   randomized detector; its sampling noise needs headroom over the
//!   exact bound `levels/θ`.

use crate::compare::{score_with_staleness, trace, PROBE_EVERY, THRESHOLD_PCT, WINDOW};
use crate::Scale;
use hhh_analysis::{fmt_f, SetAccuracy, Table};
use hhh_core::{ContinuousDetector, HhhDetector, Rhhh, TdbfHhh, TdbfHhhConfig, Threshold};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord};
use hhh_window::WindowReport;
use hhh_window::{Continuous, Disjoint, Pipeline, SlidingExact};
use std::collections::BTreeSet;

/// One ablation data point.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Knob value, as a display string.
    pub setting: String,
    /// Accuracy at that setting.
    pub accuracy: SetAccuracy,
    /// Detector state bytes at that setting.
    pub state_bytes: usize,
}

/// All three sweeps.
#[derive(Clone, Debug)]
pub struct AblationResults {
    /// TDBF half-life sweep (window is 10 s).
    pub half_life: Vec<AblationRow>,
    /// TDBF candidate-capacity sweep.
    pub candidates: Vec<AblationRow>,
    /// RHHH counters-per-level sweep.
    pub rhhh_counters: Vec<AblationRow>,
    /// Scale used.
    pub scale: Scale,
}

fn oracle_and_probes(
    pkts: &[PacketRecord],
    scale: Scale,
) -> (Vec<WindowReport<Ipv4Prefix>>, Vec<Nanos>) {
    let hierarchy = Ipv4Hierarchy::bytes();
    let threshold = Threshold::percent(THRESHOLD_PCT);
    let oracle = Pipeline::new(pkts.iter().copied())
        .engine(SlidingExact::new(
            &hierarchy,
            scale.compare_duration(),
            WINDOW,
            PROBE_EVERY,
            &[threshold],
            |p| p.src,
        ))
        .collect()
        .run()
        .remove(0);
    let probes: Vec<Nanos> = oracle.iter().map(|r| r.end).collect();
    (oracle, probes)
}

fn tdbf_accuracy(
    pkts: &[PacketRecord],
    oracle: &[WindowReport<Ipv4Prefix>],
    probes: &[Nanos],
    cfg: TdbfHhhConfig,
) -> (SetAccuracy, usize) {
    let hierarchy = Ipv4Hierarchy::bytes();
    let threshold = Threshold::percent(THRESHOLD_PCT);
    let mut det = TdbfHhh::new(hierarchy, cfg);
    let reports = Pipeline::new(pkts.iter().copied())
        .engine(Continuous::new(&mut det, probes, threshold, |p| p.src))
        .collect()
        .run()
        .remove(0);
    let sets: Vec<(Nanos, BTreeSet<Ipv4Prefix>)> =
        reports.iter().map(|r| (r.start, r.prefix_set())).collect();
    let row = score_with_staleness(oracle, probes, &sets, WINDOW, false);
    (row.overall, ContinuousDetector::<Ipv4Hierarchy>::state_bytes(&det))
}

/// Run all three sweeps.
pub fn run(scale: Scale) -> AblationResults {
    let pkts = trace(scale);
    let (oracle, probes) = oracle_and_probes(&pkts, scale);
    let base_cfg = TdbfHhhConfig {
        half_life: WINDOW / 2,
        admit_fraction: THRESHOLD_PCT / 100.0 / 10.0,
        ..TdbfHhhConfig::default()
    };

    // --- Half-life sweep. ---
    let mut half_life = Vec::new();
    for (label, hl) in [
        ("w/8 = 1.25s", WINDOW / 8),
        ("w/4 = 2.5s", WINDOW / 4),
        ("w/2 = 5s", WINDOW / 2),
        ("w = 10s", WINDOW),
        ("2w = 20s", WINDOW * 2),
    ] {
        let cfg = TdbfHhhConfig { half_life: hl, ..base_cfg.clone() };
        let (accuracy, state_bytes) = tdbf_accuracy(&pkts, &oracle, &probes, cfg);
        half_life.push(AblationRow { setting: label.to_string(), accuracy, state_bytes });
    }

    // --- Candidate capacity sweep. ---
    let mut candidates = Vec::new();
    for cap in [16usize, 64, 256, 1024] {
        let cfg = TdbfHhhConfig { candidates_per_level: cap, ..base_cfg.clone() };
        let (accuracy, state_bytes) = tdbf_accuracy(&pkts, &oracle, &probes, cfg);
        candidates.push(AblationRow { setting: format!("{cap}/level"), accuracy, state_bytes });
    }

    // --- RHHH counters sweep (windowed detector, scored with
    // staleness like in E3 so numbers are comparable). ---
    let hierarchy = Ipv4Hierarchy::bytes();
    let threshold = Threshold::percent(THRESHOLD_PCT);
    let mut rhhh_counters = Vec::new();
    for counters in [32usize, 128, 512] {
        let mut det = Rhhh::new(hierarchy, counters, 0xAB);
        let reports = Pipeline::new(pkts.iter().copied())
            .engine(Disjoint::new(&mut det, scale.compare_duration(), WINDOW, &[threshold], |p| {
                p.src
            }))
            .collect()
            .run()
            .remove(0);
        let sets: Vec<(Nanos, BTreeSet<Ipv4Prefix>)> =
            reports.iter().map(|r| (r.end, r.prefix_set())).collect();
        let row = score_with_staleness(&oracle, &probes, &sets, WINDOW, false);
        rhhh_counters.push(AblationRow {
            setting: format!("{counters} counters"),
            accuracy: row.overall,
            state_bytes: det.state_bytes(),
        });
    }

    AblationResults { half_life, candidates, rhhh_counters, scale }
}

fn render(rows: &[AblationRow], knob: &str) -> String {
    let mut t = Table::new(vec![knob, "precision", "recall", "F1", "state KiB"]);
    for r in rows {
        t.row(vec![
            r.setting.clone(),
            fmt_f(r.accuracy.precision(), 3),
            fmt_f(r.accuracy.recall(), 3),
            fmt_f(r.accuracy.f1(), 3),
            fmt_f(r.state_bytes as f64 / 1024.0, 1),
        ]);
    }
    t.render()
}

impl AblationResults {
    /// Render the half-life table.
    pub fn half_life_table(&self) -> String {
        render(&self.half_life, "half-life")
    }

    /// Render the candidate-capacity table.
    pub fn candidates_table(&self) -> String {
        render(&self.candidates, "candidates")
    }

    /// Render the RHHH counters table.
    pub fn rhhh_table(&self) -> String {
        render(&self.rhhh_counters, "rhhh")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_have_expected_structure() {
        let res = run(Scale::Smoke);
        assert_eq!(res.half_life.len(), 5);
        assert_eq!(res.candidates.len(), 4);
        assert_eq!(res.rhhh_counters.len(), 3);

        // The w/2 half-life should not be dominated by the extremes on
        // F1 (the design-choice argument).
        let f1 = |rows: &[AblationRow], i: usize| rows[i].accuracy.f1();
        let mid = f1(&res.half_life, 2);
        let shortest = f1(&res.half_life, 0);
        assert!(mid >= shortest - 0.05, "w/2 ({mid}) unexpectedly dominated by w/8 ({shortest})");

        // State grows monotonically with candidate capacity; F1 does
        // not decrease drastically with more memory.
        for w in res.candidates.windows(2) {
            assert!(w[1].state_bytes > w[0].state_bytes);
            assert!(w[1].accuracy.f1() >= w[0].accuracy.f1() - 0.1);
        }

        // RHHH: more counters never hurt much.
        for w in res.rhhh_counters.windows(2) {
            assert!(w[1].accuracy.f1() >= w[0].accuracy.f1() - 0.05);
        }

        assert!(res.half_life_table().contains("half-life"));
        assert!(res.candidates_table().contains("candidates"));
        assert!(res.rhhh_table().contains("rhhh"));
    }
}
