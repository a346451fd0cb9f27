//! Report types: what a detector says when asked for HHHs, and the one
//! routine every kind computes it with.
//!
//! A kind hands the routine its per-level `(prefix, count)` rows, level
//! 0 (most specific) first, with no prefix twice in a level.
//! [`close_upward`] sorts each level by prefix and gives every parent of
//! a row a row of its own; [`discount`] walks the levels bottom-up. Both
//! are merge-joins of
//! one level against the parents of the level below, which arrive in
//! prefix order because `parent` keeps prefix order within a level
//! (clause 5 of the [`Hierarchy`] contract): no hashing, and no final
//! sort, since reports come out in (level, prefix) order.

use core::fmt;
use hhh_hierarchy::Hierarchy;

/// A relative threshold: the fraction θ of total traffic a prefix must
/// exceed (after discounting) to be a hierarchical heavy hitter. The
/// paper uses θ ∈ {1%, 5%, 10%}.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Threshold(f64);

impl Threshold {
    /// From a fraction in `(0, 1]`. Panics outside that range.
    pub fn fraction(f: f64) -> Self {
        assert!(
            f.is_finite() && f > 0.0 && f <= 1.0,
            "threshold fraction must be in (0,1], got {f}"
        );
        Threshold(f)
    }

    /// From percent, e.g. `Threshold::percent(5.0)` for the paper's 5%.
    pub fn percent(p: f64) -> Self {
        Self::fraction(p / 100.0)
    }

    /// The fraction θ.
    pub fn as_fraction(&self) -> f64 {
        self.0
    }

    /// The absolute threshold `⌈θ·total⌉` for a given total. The
    /// ceiling keeps the comparison strict in integer arithmetic and
    /// never lets a threshold round down to zero.
    pub fn absolute(&self, total: u64) -> u64 {
        ((self.0 * total as f64).ceil() as u64).max(1)
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.0 * 100.0)
    }
}

/// One reported hierarchical heavy hitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HhhReport<P> {
    /// The reported prefix.
    pub prefix: P,
    /// Hierarchy level of the prefix (0 = most specific).
    pub level: usize,
    /// Estimated *total* traffic of the prefix (before discounting).
    pub estimate: u64,
    /// Estimated *discounted* traffic (total minus maximal HHH
    /// descendants) — the quantity compared against the threshold.
    pub discounted: u64,
    /// Lower bound on the true discounted traffic, when the detector
    /// can provide one (equal to `discounted` for exact detectors).
    pub lower_bound: u64,
}

impl<P: fmt::Display> fmt::Display for HhhReport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (level {}): {} total, {} discounted",
            self.prefix, self.level, self.estimate, self.discounted
        )
    }
}

/// Add `count` to `rows` under `p`, where `p` is never below the last
/// prefix pushed: equal prefixes arrive adjacent, so they sum in place.
/// Counts saturate rather than wrap on hostile wire input.
fn push_summed<P: Ord + Copy>(rows: &mut Vec<(P, u64)>, p: P, count: u64) {
    match rows.last_mut() {
        Some((last, sum)) if *last == p => *sum = sum.saturating_add(count),
        last => {
            debug_assert!(last.is_none_or(|(q, _)| *q < p), "parent broke prefix order");
            rows.push((p, count));
        }
    }
}

/// Sort per-level rows by prefix and close them upward, level 0 first:
/// level `l` gains a row for every parent of a level `l − 1` row,
/// valued `value(l, parent, children, own)`, where `children` sums the
/// parent's rows one level down and `own` is its count at level `l`,
/// if it had one. After this no charge of the discount lands on a
/// missing parent.
pub(crate) fn close_upward<H: Hierarchy>(
    h: &H,
    levels: &mut [Vec<(H::Prefix, u64)>],
    mut value: impl FnMut(usize, H::Prefix, u64, Option<u64>) -> u64,
) {
    for rows in levels.iter_mut() {
        rows.sort_unstable_by_key(|row| row.0);
    }
    let mut parents = Vec::new();
    for l in 1..levels.len() {
        parents.clear();
        for &(p, count) in &levels[l - 1] {
            if let Some(parent) = h.parent(p) {
                push_summed(&mut parents, parent, count);
            }
        }
        let own = core::mem::take(&mut levels[l]);
        let mut closed = Vec::with_capacity(own.len() + parents.len());
        let mut o = 0;
        for &(parent, children) in &parents {
            while own.get(o).is_some_and(|&(q, _)| q < parent) {
                closed.push(own[o]);
                o += 1;
            }
            let mine = match own.get(o) {
                Some(&(q, count)) if q == parent => {
                    o += 1;
                    Some(count)
                }
                _ => None,
            };
            closed.push((parent, value(l, parent, children, mine)));
        }
        closed.extend_from_slice(&own[o..]);
        levels[l] = closed;
    }
}

/// The report of rows closed so that each ancestor is at least the sum
/// of its tracked children. Levels past the end of `levels` start
/// empty, so a bottom-level kind passes its level-0 rows alone.
pub(crate) fn closed_report<H: Hierarchy>(
    h: &H,
    mut levels: Vec<Vec<(H::Prefix, u64)>>,
    threshold_abs: u64,
) -> Vec<HhhReport<H::Prefix>> {
    levels.resize_with(h.levels(), Vec::new);
    close_upward(h, &mut levels, |_, _, children, own| own.map_or(children, |c| c.max(children)));
    discount(h, &levels, threshold_abs)
}

/// Bottom-up exclude-all-HHH-descendants discounting over closed
/// per-level rows (level 0 = most specific). Returns reports in
/// (level, prefix) order:
///
/// * level 0: `discounted(p) = count(p)`;
/// * level l+1: `discounted(p) = count(p) − Σ counts of p's maximal
///   HHH descendants`, where an HHH found at a lower level charges its
///   *full* count to every ancestor, and charges of non-HHH prefixes
///   pass upward unchanged.
pub(crate) fn discount<H: Hierarchy>(
    h: &H,
    levels: &[Vec<(H::Prefix, u64)>],
    threshold_abs: u64,
) -> Vec<HhhReport<H::Prefix>> {
    let mut reports = Vec::new();
    // Sorted charges on the current level's prefixes: the summed
    // counts of each one's maximal HHH descendants found so far.
    let mut charges: Vec<(H::Prefix, u64)> = Vec::new();
    let mut next = Vec::new();
    for (level, rows) in levels.iter().enumerate() {
        debug_assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "level {level} rows do not strictly increase"
        );
        let mut c = 0;
        for &(p, count) in rows {
            while charges.get(c).is_some_and(|&(q, _)| q < p) {
                c += 1;
            }
            let charged = match charges.get(c) {
                Some(&(q, charge)) if q == p => charge,
                _ => 0,
            };
            // Estimated counts from sketches are not guaranteed to be
            // superadditive; saturate rather than wrap.
            let discounted = count.saturating_sub(charged);
            let up = if discounted >= threshold_abs {
                reports.push(HhhReport {
                    prefix: p,
                    level,
                    estimate: count,
                    discounted,
                    lower_bound: discounted,
                });
                count
            } else {
                charged
            };
            if up > 0 {
                if let Some(parent) = h.parent(p) {
                    push_summed(&mut next, parent, up);
                }
            }
        }
        core::mem::swap(&mut charges, &mut next);
        next.clear();
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_constructors_agree() {
        assert_eq!(Threshold::percent(5.0).as_fraction(), 0.05);
        assert_eq!(Threshold::fraction(0.1).as_fraction(), 0.1);
    }

    #[test]
    fn absolute_rounds_up_and_never_zero() {
        let t = Threshold::percent(1.0);
        assert_eq!(t.absolute(1000), 10);
        assert_eq!(t.absolute(1001), 11); // ceil(10.01)
        assert_eq!(t.absolute(0), 1);
        assert_eq!(t.absolute(10), 1); // ceil(0.1) = 1
    }

    #[test]
    fn display_formats() {
        assert_eq!(Threshold::percent(5.0).to_string(), "5%");
        let r = HhhReport {
            prefix: "10.0.0.0/8",
            level: 3,
            estimate: 100,
            discounted: 60,
            lower_bound: 55,
        };
        assert_eq!(r.to_string(), "10.0.0.0/8 (level 3): 100 total, 60 discounted");
    }

    #[test]
    #[should_panic(expected = "must be in (0,1]")]
    fn zero_threshold_rejected() {
        let _ = Threshold::fraction(0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1]")]
    fn over_one_threshold_rejected() {
        let _ = Threshold::fraction(1.5);
    }
}
