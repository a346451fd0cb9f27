//! TDBF-HHH: the windowless detector the paper's §3 proposes.
//!
//! One [`OnDemandTdbf`] per hierarchy level holds exponentially decayed
//! per-prefix counts; a scalar [`DecayedCounter`] holds the decayed
//! total. Because Bloom-style filters cannot enumerate keys, each level
//! also keeps a small *candidate table* of prefixes whose decayed
//! estimate has ever crossed an admission fraction of the decayed total
//! — the "on-demand" companion structure from Bianchi et al. 2011,
//! where the filter answers "how much?" and the table remembers "who".
//!
//! A report can be requested at **any instant**: the decayed counts are
//! exact functions of time, so there is no window boundary for a burst
//! to straddle — the property the paper's Fig. 2 shows disjoint windows
//! lack. Comparability with an `w`-long window comes from choosing
//! `half_life ≈ w/2` (see [`DecayRate::from_half_life`]): both forget
//! traffic on the same time scale.
//!
//! ## Error model
//!
//! Estimates inherit CMS-style one-sided error from the filter
//! (collisions only inflate), plus an admission lag: a prefix's traffic
//! before it entered the candidate table is invisible to the *report*
//! (though still in the filter). With the default admission fraction of
//! one tenth of the smallest threshold of interest, the lag bias is
//! bounded by that fraction of the total.

use crate::detector::{ContinuousDetector, MergeableDetector};
use crate::kind::Kind;
use crate::report::{close_upward, discount, HhhReport, Threshold};
use crate::snapshot::{
    Body, DetectorSnapshot, SnapshotError, SnapshotFrame, TdbfBody, MAX_WIRE_CAPACITY,
};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::{Nanos, TimeSpan};
use hhh_sketches::{DecayFactors, DecayRate, DecayedCounter, OnDemandTdbf};
use std::borrow::Cow;
use std::collections::HashMap;

/// Configuration for [`TdbfHhh`].
#[derive(Clone, Debug)]
pub struct TdbfHhhConfig {
    /// Cells per level filter.
    pub cells_per_level: usize,
    /// Hash functions per filter.
    pub hashes: usize,
    /// Decay half-life (choose ≈ half the window length you are
    /// replacing).
    pub half_life: TimeSpan,
    /// Candidate table capacity per level.
    pub candidates_per_level: usize,
    /// A prefix is admitted to the candidate table when its decayed
    /// estimate reaches this fraction of the decayed total. Set it
    /// below the smallest threshold you intend to query (a tenth is
    /// comfortable).
    pub admit_fraction: f64,
    /// Hash seed.
    pub seed: u64,
}

impl Default for TdbfHhhConfig {
    fn default() -> Self {
        TdbfHhhConfig {
            cells_per_level: 4096,
            hashes: 4,
            half_life: TimeSpan::from_secs(5),
            candidates_per_level: 512,
            admit_fraction: 0.001,
            seed: 0x7DBF,
        }
    }
}

/// The windowless TDBF-based HHH detector.
#[derive(Clone, Debug)]
pub struct TdbfHhh<H: Hierarchy> {
    hierarchy: H,
    cfg: TdbfHhhConfig,
    rate: DecayRate,
    filters: Vec<OnDemandTdbf<H::Prefix>>,
    /// Per level: prefixes worth reporting on, with their last-touch
    /// time (for eviction tie-breaks).
    candidates: Vec<HashMap<H::Prefix, Nanos>>,
    total: DecayedCounter,
    observed: u64,
}

impl<H: Hierarchy> TdbfHhh<H> {
    /// Build from a hierarchy and configuration.
    pub fn new(hierarchy: H, cfg: TdbfHhhConfig) -> Self {
        assert!(cfg.admit_fraction > 0.0 && cfg.admit_fraction < 1.0, "admit_fraction in (0,1)");
        let cells = vec![DecayedCounter::new(); cfg.cells_per_level * cfg.hashes];
        let filters = vec![cells; hierarchy.levels()];
        Self::with_cells(hierarchy, cfg, filters)
    }

    /// An empty detector (no candidates, zero total) whose level `l`
    /// filter is `filters[l]`, used as it is.
    fn with_cells(hierarchy: H, cfg: TdbfHhhConfig, filters: Vec<Vec<DecayedCounter>>) -> Self {
        let rate = DecayRate::from_half_life(cfg.half_life);
        let filters: Vec<_> = filters
            .into_iter()
            .enumerate()
            .map(|(l, cells)| {
                let seed = cfg.seed.wrapping_add(l as u64);
                OnDemandTdbf::from_cells(cells, cfg.cells_per_level, cfg.hashes, rate, seed)
            })
            .collect();
        TdbfHhh {
            hierarchy,
            rate,
            candidates: vec![HashMap::new(); filters.len()],
            filters,
            total: DecayedCounter::new(),
            observed: 0,
            cfg,
        }
    }

    /// The decay rate in use.
    pub fn rate(&self) -> DecayRate {
        self.rate
    }

    /// Raw (undecayed) weight observed over the detector's lifetime.
    pub fn observed_weight(&self) -> u64 {
        self.observed
    }

    /// Candidate count per level (diagnostics).
    pub fn candidate_counts(&self) -> Vec<usize> {
        self.candidates.iter().map(|c| c.len()).collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &TdbfHhhConfig {
        &self.cfg
    }

    /// A comparable digest of every behavior-relevant configuration
    /// field — what the fold path checks before merging two restored
    /// detectors (the in-process merge asserts instead).
    pub fn config_fingerprint(&self) -> (usize, usize, u64, usize, u64, u64) {
        (
            self.cfg.cells_per_level,
            self.cfg.hashes,
            self.cfg.half_life.as_nanos(),
            self.cfg.candidates_per_level,
            self.cfg.admit_fraction.to_bits(),
            self.cfg.seed,
        )
    }

    fn admit(&mut self, level: usize, p: H::Prefix, ts: Nanos, est: f64, total_now: f64) {
        let table = &mut self.candidates[level];
        if let Some(last) = table.get_mut(&p) {
            // A late packet (a capture file can hold them) does not
            // move the last touch back, as `merge` keeps the later too.
            *last = (*last).max(ts);
            return;
        }
        if est < self.cfg.admit_fraction * total_now {
            return;
        }
        if table.len() >= self.cfg.candidates_per_level {
            // Evict the candidate with the smallest current estimate,
            // and opportunistically drop everything that has decayed
            // below half the admission bar. O(capacity), runs only when
            // the table is full and a new key qualifies.
            let bar = self.cfg.admit_fraction * total_now * 0.5;
            let filter = &self.filters[level];
            let mut weakest: Option<(H::Prefix, f64)> = None;
            let mut stale: Vec<H::Prefix> = Vec::new();
            for (&q, _) in table.iter() {
                let e = filter.estimate(&q, ts);
                if e < bar {
                    stale.push(q);
                }
                if weakest.as_ref().is_none_or(|(_, we)| e < *we) {
                    weakest = Some((q, e));
                }
            }
            for q in stale {
                table.remove(&q);
            }
            if table.len() >= self.cfg.candidates_per_level {
                let (weak_key, weak_est) = weakest.expect("table non-empty");
                if weak_est >= est {
                    return; // newcomer is weaker than everything present
                }
                table.remove(&weak_key);
            }
        }
        table.insert(p, ts);
    }
}

impl<H: Hierarchy> ContinuousDetector<H> for TdbfHhh<H> {
    /// One packet: the decayed total takes `weight`, and at each level
    /// the item's prefix is inserted into that level's filter, whose
    /// [`insert`](OnDemandTdbf::insert) also returns the prefix's
    /// estimate — one pass over its `k` cells — for the candidate
    /// table's admission test. The total and every level share one
    /// [`DecayFactors`]: their counters were mostly last touched by the
    /// same earlier packets, so a packet pays one `exp` per distinct
    /// decay span (under two on the scenario traces), not one per
    /// counter.
    fn observe(&mut self, ts: Nanos, item: H::Item, weight: u64) {
        self.observed += weight;
        let mut factors = DecayFactors::new(self.rate);
        self.total.add_with(ts, weight as f64, &mut factors);
        let total_now = self.total.peek(self.rate, ts);
        for level in 0..self.filters.len() {
            let p = self.hierarchy.generalize(item, level);
            let est = self.filters[level].insert(&p, weight as f64, ts, &mut factors);
            self.admit(level, p, ts, est, total_now);
        }
    }

    fn decayed_total(&self, now: Nanos) -> f64 {
        self.total.peek(self.rate, now)
    }

    fn report_at(&self, now: Nanos, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        let total = self.decayed_total(now);
        if total <= 0.0 {
            return Vec::new();
        }
        let t_abs = ((threshold.as_fraction() * total).ceil() as u64).max(1);
        let mut levels: Vec<_> = self
            .candidates
            .iter()
            .zip(&self.filters)
            .map(|(table, filter)| {
                table.keys().map(|&p| (p, filter.estimate(&p, now).round() as u64)).collect()
            })
            .collect();
        // Close upward (same algebraic safety as the windowed
        // detectors): a parent of a candidate that is not a candidate
        // itself gets its own filter estimate.
        close_upward(&self.hierarchy, &mut levels, |level, parent, _, own| {
            own.unwrap_or_else(|| {
                let est = self.filters[level].estimate(&parent, now);
                if est.is_finite() {
                    est.round() as u64
                } else {
                    0
                }
            })
        });
        discount(&self.hierarchy, &levels, t_abs)
    }

    fn state_bytes(&self) -> usize {
        let filters: usize = self.filters.iter().map(|f| f.state_bytes()).sum();
        // Provisioned (not incidental) candidate capacity: the tables
        // are sized for cfg.candidates_per_level entries each.
        let per_entry = core::mem::size_of::<H::Prefix>() + 8 + 16;
        let candidates = self.candidates.len() * self.cfg.candidates_per_level * per_entry;
        filters + candidates + core::mem::size_of::<DecayedCounter>()
    }

    fn name(&self) -> &'static str {
        Kind::Tdbf.label()
    }
}

impl<H: Hierarchy> MergeableDetector for TdbfHhh<H> {
    /// Windowless merge: per-level filters merge cell-wise
    /// ([`OnDemandTdbf::merge`]), the decayed totals merge exactly, and
    /// candidate tables take the union (later last-touch wins), pruned
    /// back to capacity by keeping the prefixes with the largest merged
    /// decayed estimates.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.filters.len(), other.filters.len(), "hierarchy depth mismatch");
        for (a, b) in self.filters.iter_mut().zip(&other.filters) {
            a.merge(b);
        }
        self.total.merge(self.rate, &other.total);
        self.observed += other.observed;
        let (_, now) = self.total.raw();
        for (level, table) in self.candidates.iter_mut().enumerate() {
            for (&p, &ts) in &other.candidates[level] {
                let e = table.entry(p).or_insert(ts);
                *e = (*e).max(ts);
            }
            if table.len() > self.cfg.candidates_per_level {
                let filter = &self.filters[level];
                let mut ranked: Vec<(H::Prefix, f64)> =
                    table.iter().map(|(&p, _)| (p, filter.estimate(&p, now))).collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                ranked.truncate(self.cfg.candidates_per_level);
                let keep: std::collections::HashSet<H::Prefix> =
                    ranked.into_iter().map(|(p, _)| p).collect();
                table.retain(|p, _| keep.contains(p));
            }
        }
    }

    /// Wire format: the full configuration (cell geometry, hash count,
    /// half-life, candidate capacity, admission fraction, hash seed)
    /// plus the complete decayed state — `"total"` as a raw
    /// `[value, last_ns]` counter, `"filters"` as per-level arrays of
    /// raw cells, `"candidates"` as per-level `[prefix, ts_ns]` rows
    /// sorted by prefix. Floats render in shortest round-trip form, so
    /// a restored detector is *bit-identical*: it decays, reports and
    /// merges exactly like the original.
    fn snapshot(&self) -> Option<DetectorSnapshot> {
        Some(self.body().into_snapshot(self.observed))
    }

    /// The same body as [`snapshot`](MergeableDetector::snapshot),
    /// encoded as a v2 frame with no JSON on the path. This is the kind
    /// that path pays off most for: a JSON detour would render and
    /// re-parse 5 × cells_per_level × hashes float cells per report
    /// point.
    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        self.body().to_frame(self.observed, start, at).ok()
    }
}

impl<H: Hierarchy> TdbfHhh<H> {
    /// The wire body: configuration, the raw decayed total, every
    /// level's raw cells, and candidate rows sorted by the prefix's
    /// display form.
    pub(crate) fn body(&self) -> Body<'_> {
        Body::Tdbf(TdbfBody {
            cells_per_level: self.cfg.cells_per_level as u64,
            hashes: self.cfg.hashes as u64,
            half_life_ns: self.cfg.half_life.as_nanos(),
            candidates_per_level: self.cfg.candidates_per_level as u64,
            admit_fraction: self.cfg.admit_fraction,
            seed: self.cfg.seed,
            observed: self.observed,
            total: self.total,
            filters: self.filters.iter().map(|f| Cow::Borrowed(f.cells())).collect(),
            candidates: self
                .candidates
                .iter()
                .map(|table| {
                    let mut rows: Vec<(String, u64)> =
                        table.iter().map(|(p, &ts)| (p.to_string(), ts.as_nanos())).collect();
                    rows.sort_by(|a, b| a.0.cmp(&b.0));
                    rows
                })
                .collect(),
        })
    }

    /// The validated decode core both wire formats share: build a
    /// detector from already-parsed configuration and state, its level
    /// filters over the decoded cell arrays themselves. Wire input is
    /// untrusted — geometry is bounded, and the state checked against
    /// it (one cell array of the configured size and one candidate
    /// table per hierarchy level), *before* it drives any allocation;
    /// candidate tables must fit their capacity and carry no
    /// duplicates, every float must be finite, and the envelope total
    /// must equal the observed weight.
    pub(crate) fn from_wire(
        hierarchy: H,
        cfg: TdbfHhhConfig,
        observed: u64,
        total: DecayedCounter,
        filters: Vec<Vec<DecayedCounter>>,
        candidates: Vec<Vec<(H::Prefix, Nanos)>>,
        envelope_total: u64,
    ) -> Result<Self, SnapshotError> {
        if !(cfg.admit_fraction > 0.0 && cfg.admit_fraction < 1.0) {
            return Err(SnapshotError::Invalid {
                field: "admit_fraction",
                what: "must be in (0, 1)",
            });
        }
        if cfg.cells_per_level == 0 || cfg.hashes == 0 || cfg.half_life.is_zero() {
            return Err(SnapshotError::Invalid {
                field: "cells_per_level",
                what: "geometry and half-life must be non-zero",
            });
        }
        if cfg.cells_per_level.saturating_mul(cfg.hashes) > MAX_WIRE_CAPACITY
            || cfg.hashes > 64
            || cfg.candidates_per_level > MAX_WIRE_CAPACITY
        {
            return Err(SnapshotError::Invalid {
                field: "cells_per_level",
                what: "geometry exceeds MAX_WIRE_CAPACITY",
            });
        }
        let finite = |c: &DecayedCounter, field: &'static str| {
            if c.raw().0.is_finite() {
                Ok(())
            } else {
                Err(SnapshotError::Invalid { field, what: "cell value is not finite" })
            }
        };
        finite(&total, "total")?;

        // The detector's filters are the decoded cell arrays
        // themselves, so each must be exactly the configured geometry,
        // one per level: nothing is allocated to fill a short one.
        let levels = hierarchy.levels();
        if filters.len() != levels {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} levels, hierarchy has {levels}",
                filters.len()
            )));
        }
        for cells in &filters {
            if cells.len() != cfg.cells_per_level * cfg.hashes {
                return Err(SnapshotError::Invalid {
                    field: "filters",
                    what: "cell count does not match the geometry",
                });
            }
            for c in cells {
                finite(c, "filters")?;
            }
        }
        if candidates.len() != levels {
            return Err(SnapshotError::Invalid {
                field: "candidates",
                what: "one table per level required",
            });
        }

        let mut detector = TdbfHhh::with_cells(hierarchy, cfg, filters);
        for (table, rows) in detector.candidates.iter_mut().zip(candidates) {
            if rows.len() > detector.cfg.candidates_per_level {
                return Err(SnapshotError::Invalid {
                    field: "candidates",
                    what: "more candidates than capacity",
                });
            }
            for (prefix, ts) in rows {
                if table.insert(prefix, ts).is_some() {
                    return Err(SnapshotError::Invalid {
                        field: "candidates",
                        what: "duplicate prefix",
                    });
                }
            }
        }

        detector.total = total;
        detector.observed = observed;
        if detector.observed != envelope_total {
            return Err(SnapshotError::Invalid {
                field: "total",
                what: "envelope total does not equal the observed weight",
            });
        }
        Ok(detector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_hierarchy::Ipv4Hierarchy;
    use hhh_nettypes::Ipv4Prefix;

    fn cfg() -> TdbfHhhConfig {
        TdbfHhhConfig {
            cells_per_level: 2048,
            hashes: 4,
            half_life: TimeSpan::from_secs(5),
            candidates_per_level: 128,
            admit_fraction: 0.001,
            seed: 99,
        }
    }

    fn ip(s: &str) -> u32 {
        s.parse::<Ipv4Prefix>().unwrap().addr()
    }

    /// Background: 50 sources, 100 B every 10 ms each, spread across
    /// distinct /8s.
    fn feed_background(d: &mut TdbfHhh<Ipv4Hierarchy>, from: Nanos, until: Nanos) {
        let mut t = from;
        while t < until {
            for s in 0..50u32 {
                d.observe(t, ((s % 100) << 24) | (0xAA00 + s), 100);
            }
            t += TimeSpan::from_millis(10);
        }
    }

    #[test]
    fn steady_heavy_source_reported_any_time() {
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let heavy = ip("10.1.1.1");
        let mut t = Nanos::ZERO;
        // Heavy source: 2000 B/ms = 40% of combined traffic.
        while t < Nanos::from_secs(30) {
            for s in 0..30u32 {
                d.observe(t, ((s % 100) << 24) | (0xAA00 + s), 100);
            }
            d.observe(t, heavy, 2000);
            t += TimeSpan::from_millis(10);
        }
        // Query at several unaligned instants.
        for probe_ms in [12_345u64, 20_001, 29_876] {
            let now = Nanos::from_millis(probe_ms);
            let r = d.report_at(now, Threshold::percent(10.0));
            assert!(
                r.iter().any(|x| x.prefix == Ipv4Prefix::host(heavy)),
                "heavy host missing at t={probe_ms}ms: {r:?}"
            );
        }
    }

    #[test]
    fn boundary_straddling_burst_is_visible() {
        // The paper's core scenario. Disjoint 5 s windows cut at t=5 s;
        // a burst on [4.5 s, 5.5 s) puts half its bytes in each window
        // and can stay below a per-window threshold in both. The
        // windowless detector, probed right after the burst, sees it
        // whole (modulo decay).
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let burster = ip("77.7.7.7");
        let mut t = Nanos::ZERO;
        while t < Nanos::from_secs(10) {
            for s in 0..50u32 {
                d.observe(t, ((s % 100) << 24) | (0xAA00 + s), 100);
            }
            if t >= Nanos::from_millis(4_500) && t < Nanos::from_millis(5_500) {
                d.observe(t, burster, 4000);
            }
            t += TimeSpan::from_millis(10);
        }
        // Background rate: 50×100 B / 10 ms = 500 kB/s. Burst adds
        // 400 kB/s for 1 s. Within its second, the burster is ~44% of
        // traffic; within either 5 s window, ~7.4%.
        let window_threshold = Threshold::percent(10.0);
        // A disjoint-window exact detector would miss it at 10%:
        // (verified in the hhh-window integration tests; here we check
        // the windowless side.)
        let probe = Nanos::from_millis(5_600);
        let r = d.report_at(probe, window_threshold);
        assert!(
            r.iter().any(|x| x.prefix == Ipv4Prefix::host(burster)),
            "burst invisible to the windowless detector: {r:?}"
        );
    }

    #[test]
    fn old_traffic_fades() {
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let noisy = ip("200.1.2.3");
        let mut t = Nanos::ZERO;
        while t < Nanos::from_secs(5) {
            d.observe(t, noisy, 1000);
            t += TimeSpan::from_millis(5);
        }
        feed_background(&mut d, Nanos::from_secs(5), Nanos::from_secs(60));
        // Ten half-lives after its last packet, the old source must be
        // gone even at a 1% threshold.
        let r = d.report_at(Nanos::from_secs(60), Threshold::percent(1.0));
        assert!(
            !r.iter().any(|x| x.prefix == Ipv4Prefix::host(noisy)),
            "stale source still reported: {r:?}"
        );
    }

    #[test]
    fn discounting_suppresses_covered_ancestors() {
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let heavy = ip("10.1.1.1");
        let mut t = Nanos::ZERO;
        while t < Nanos::from_secs(20) {
            for s in 0..20u32 {
                d.observe(t, ((s % 100) << 24) | (0xAA00 + s), 100);
            }
            d.observe(t, heavy, 3000);
            t += TimeSpan::from_millis(10);
        }
        let r = d.report_at(Nanos::from_secs(20), Threshold::percent(20.0));
        // The host is an HHH; its /24, /16, /8 carry (almost) nothing
        // beyond it and must be discounted away.
        assert!(r.iter().any(|x| x.prefix == Ipv4Prefix::host(heavy)));
        for level in 1..4 {
            assert!(
                !r.iter().any(|x| x.level == level && x.prefix.contains_addr(heavy)),
                "covered ancestor at level {level} leaked into the report: {r:?}"
            );
        }
    }

    #[test]
    fn decayed_total_tracks_rate() {
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let mut t = Nanos::ZERO;
        // 100 kB/s for 60 s (≫ half-life, converged).
        while t < Nanos::from_secs(60) {
            d.observe(t, 0x01020304, 1000);
            t += TimeSpan::from_millis(10);
        }
        let total = d.decayed_total(t);
        let expect = d.rate().steady_state(100_000.0);
        let rel = (total - expect).abs() / expect;
        assert!(rel < 0.05, "decayed total {total} vs steady state {expect}");
    }

    #[test]
    fn candidate_tables_stay_bounded() {
        let mut c = cfg();
        c.candidates_per_level = 32;
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), c);
        let mut t = Nanos::ZERO;
        // Many distinct sources churning.
        for i in 0..200_000u32 {
            d.observe(t, i.wrapping_mul(2_654_435_761), 100);
            t += TimeSpan::from_micros(50);
        }
        for (l, n) in d.candidate_counts().iter().enumerate() {
            assert!(*n <= 32, "level {l} candidate table overflowed: {n}");
        }
        assert_eq!(d.observed_weight(), 200_000 * 100);
    }

    #[test]
    fn observe_batch_equals_sequential_observe() {
        // The ContinuousDetector batch entry point (default impl) must
        // be indistinguishable from the per-packet path.
        let mut seq = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let mut bat = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let batch: Vec<(Nanos, u32, u64)> = (0..5_000u64)
            .map(|i| {
                let src = if i % 5 == 0 { ip("10.1.1.1") } else { (i as u32 % 80) << 24 | 0xBB00 };
                (Nanos::from_millis(i), src, 200 + i % 700)
            })
            .collect();
        for &(ts, item, w) in &batch {
            seq.observe(ts, item, w);
        }
        bat.observe_batch(&batch);
        let now = Nanos::from_secs(5);
        assert_eq!(seq.decayed_total(now), bat.decayed_total(now));
        assert_eq!(
            seq.report_at(now, Threshold::percent(5.0)),
            bat.report_at(now, Threshold::percent(5.0))
        );
        assert_eq!(seq.observed_weight(), bat.observed_weight());
    }

    #[test]
    fn merged_shards_agree_with_single_detector() {
        // Partition a stream by key across 3 detectors, merge, and
        // compare against one detector that saw everything.
        let mut single = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let mut shards: Vec<TdbfHhh<Ipv4Hierarchy>> =
            (0..3).map(|_| TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg())).collect();
        let mut t = Nanos::ZERO;
        while t < Nanos::from_secs(20) {
            for s in 0..30u32 {
                let src = ((s % 100) << 24) | (0xAA00 + s);
                single.observe(t, src, 100);
                shards[s as usize % 3].observe(t, src, 100);
            }
            single.observe(t, ip("10.1.1.1"), 2000);
            shards[0].observe(t, ip("10.1.1.1"), 2000);
            t += TimeSpan::from_millis(10);
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge(s);
        }
        let now = Nanos::from_secs(20);
        assert_eq!(single.observed_weight(), merged.observed_weight());
        let rel = (single.decayed_total(now) - merged.decayed_total(now)).abs()
            / single.decayed_total(now);
        assert!(rel < 1e-9, "decayed totals diverged: rel {rel}");
        // Key-partitioned filters share no cells' keys, so estimates —
        // and the reported HHH set — must coincide.
        let a = single.report_at(now, Threshold::percent(10.0));
        let b = merged.report_at(now, Threshold::percent(10.0));
        let pa: Vec<_> = a.iter().map(|r| r.prefix).collect();
        let pb: Vec<_> = b.iter().map(|r| r.prefix).collect();
        assert_eq!(pa, pb, "sharded TDBF-HHH report diverged");
    }

    #[test]
    fn a_late_packet_keeps_the_later_last_touch() {
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        let src = ip("10.1.2.3");
        let late = Nanos::from_secs(2);
        let latest = Nanos::from_secs(3);
        d.observe(Nanos::from_secs(1), src, 500);
        d.observe(latest, src, 500);
        d.observe(late, src, 500);
        for level in 0..d.filters.len() {
            let p = d.hierarchy.generalize(src, level);
            assert_eq!(d.candidates[level].get(&p), Some(&latest), "level {level}: {p}");
        }
        // The decayed total keeps the later time too.
        let (_, last) = d.total.raw();
        assert_eq!(last, latest);
        assert_eq!(d.observed_weight(), 1500);
    }

    #[test]
    fn empty_detector_reports_nothing() {
        let d = TdbfHhh::new(Ipv4Hierarchy::bytes(), cfg());
        assert!(d.report_at(Nanos::from_secs(1), Threshold::percent(1.0)).is_empty());
        assert_eq!(d.decayed_total(Nanos::from_secs(1)), 0.0);
        assert_eq!(d.name(), "tdbf-hhh");
        assert!(d.state_bytes() > 0);
    }
}
