//! Hidden HHH analysis — the computation behind the paper's Figure 2.
//!
//! Definitions (normative; the poster's count of hidden HHHs admits
//! two readings, and both are computed):
//!
//! * **Distinct-prefix hidden fraction** (primary, what we attribute to
//!   the paper's "% of the total number of the HHH"): let `U_slide` be
//!   the set of distinct prefixes reported at *any* sliding position
//!   and `U_disj` at any disjoint window; the hidden fraction is
//!   `|U_slide ∖ U_disj| / |U_slide|`.
//! * **Occurrence-weighted hidden fraction** (also reported): each
//!   (position, prefix) detection counts once; hidden occurrences are
//!   those whose prefix is in no disjoint window's report.
//!
//! When the step divides the window length every disjoint window is
//! also a sliding position, so `U_disj ⊆ U_slide` and both fractions
//! are in `[0, 1]` by construction.

use hhh_window::WindowReport;
use std::collections::BTreeSet;

/// The outcome of a hidden-HHH comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct HiddenHhh<P> {
    /// Distinct prefixes the sliding schedule reported.
    pub sliding_distinct: usize,
    /// Distinct prefixes the disjoint schedule reported.
    pub disjoint_distinct: usize,
    /// The hidden prefixes themselves (sliding-only).
    pub hidden_prefixes: BTreeSet<P>,
    /// `|hidden| / |sliding_distinct|` (0 when nothing was reported).
    pub hidden_fraction: f64,
    /// Total (position, prefix) detections in the sliding schedule.
    pub sliding_occurrences: usize,
    /// Detections whose prefix no disjoint window ever reported.
    pub hidden_occurrences: usize,
    /// `hidden_occurrences / sliding_occurrences` (0 when empty).
    pub occurrence_fraction: f64,
}

/// Union of reported prefixes across a window schedule.
pub fn union_prefixes<P: Ord + Copy>(reports: &[WindowReport<P>]) -> BTreeSet<P> {
    let mut out = BTreeSet::new();
    for r in reports {
        out.extend(r.hhhs.iter().map(|x| x.prefix));
    }
    out
}

/// Compare sliding-window reports against disjoint-window reports taken
/// over the same trace, window length and threshold.
pub fn hidden_hhh<P: Ord + Copy>(
    sliding: &[WindowReport<P>],
    disjoint: &[WindowReport<P>],
) -> HiddenHhh<P> {
    let u_slide = union_prefixes(sliding);
    let u_disj = union_prefixes(disjoint);
    let hidden_prefixes: BTreeSet<P> = u_slide.difference(&u_disj).copied().collect();
    let hidden_fraction =
        if u_slide.is_empty() { 0.0 } else { hidden_prefixes.len() as f64 / u_slide.len() as f64 };
    let mut sliding_occurrences = 0usize;
    let mut hidden_occurrences = 0usize;
    for r in sliding {
        for x in &r.hhhs {
            sliding_occurrences += 1;
            if !u_disj.contains(&x.prefix) {
                hidden_occurrences += 1;
            }
        }
    }
    let occurrence_fraction = if sliding_occurrences == 0 {
        0.0
    } else {
        hidden_occurrences as f64 / sliding_occurrences as f64
    };
    HiddenHhh {
        sliding_distinct: u_slide.len(),
        disjoint_distinct: u_disj.len(),
        hidden_prefixes,
        hidden_fraction,
        sliding_occurrences,
        hidden_occurrences,
        occurrence_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::HhhReport;
    use hhh_nettypes::Nanos;

    fn report(index: u64, prefixes: &[u32]) -> WindowReport<u32> {
        WindowReport {
            index,
            start: Nanos::from_secs(index),
            end: Nanos::from_secs(index + 1),
            total: 100,
            hhhs: prefixes
                .iter()
                .map(|&p| HhhReport {
                    prefix: p,
                    level: 0,
                    estimate: 10,
                    discounted: 10,
                    lower_bound: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn no_hidden_when_sets_agree() {
        let sliding = vec![report(0, &[1, 2]), report(1, &[2])];
        let disjoint = vec![report(0, &[1, 2])];
        let h = hidden_hhh(&sliding, &disjoint);
        assert_eq!(h.hidden_prefixes.len(), 0);
        assert_eq!(h.hidden_fraction, 0.0);
        assert_eq!(h.occurrence_fraction, 0.0);
        assert_eq!(h.sliding_distinct, 2);
        assert_eq!(h.disjoint_distinct, 2);
    }

    #[test]
    fn counts_sliding_only_prefixes() {
        // Prefix 9 appears in two sliding positions, never disjoint.
        let sliding = vec![report(0, &[1, 9]), report(1, &[9, 2]), report(2, &[2])];
        let disjoint = vec![report(0, &[1, 2])];
        let h = hidden_hhh(&sliding, &disjoint);
        assert_eq!(h.hidden_prefixes.iter().copied().collect::<Vec<_>>(), vec![9]);
        assert!((h.hidden_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.sliding_occurrences, 5);
        assert_eq!(h.hidden_occurrences, 2);
        assert!((h.occurrence_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_schedules() {
        let h = hidden_hhh::<u32>(&[], &[]);
        assert_eq!(h.hidden_fraction, 0.0);
        assert_eq!(h.occurrence_fraction, 0.0);
    }

    #[test]
    fn union_prefixes_collects() {
        let u = union_prefixes(&[report(0, &[3, 1]), report(1, &[2, 3])]);
        assert_eq!(u.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }
}
