//! TDBF-HHH: the windowless detector the paper's §3 proposes.
//!
//! One [`OnDemandTdbf`] per hierarchy level holds exponentially decayed
//! per-prefix counts, and one more `f64` the decayed total, all in
//! forward-decayed units against one [`Landmark`] the detector keeps
//! (see [`hhh_sketches::decay`]). Because Bloom-style filters cannot
//! enumerate keys, each level also keeps a small *candidate table* of
//! prefixes whose decayed estimate has ever crossed an admission
//! fraction of the decayed total — the "on-demand" companion structure
//! from Bianchi et al. 2011, where the filter answers "how much?" and
//! the table remembers "who".
//!
//! A report can be requested at **any instant**: the decayed counts are
//! exact functions of time, so there is no window boundary for a burst
//! to straddle — the property the paper's Fig. 2 shows disjoint windows
//! lack. Comparability with an `w`-long window comes from choosing
//! `half_life ≈ w/2` (see [`DecayRate::from_half_life`]): both forget
//! traffic on the same time scale.
//!
//! ## Cost
//!
//! A packet pays one `exp` — its growth factor `e^(λ·(t − L))` — and at
//! each level `k` cell adds and a candidate-table lookup. Admission
//! compares forward values, which needs no factor; a report multiplies
//! every estimate by one decay factor; a merge adds cells.
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
use crate::snapshot::binary::{Stamps, WireCells};
use crate::snapshot::{
    Body, DetectorSnapshot, SnapshotError, SnapshotFrame, TdbfBody, MAX_WIRE_CAPACITY,
};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::{Nanos, TimeSpan};
use hhh_sketches::hash::SeededState;
use hhh_sketches::{DecayRate, Landmark, OnDemandTdbf};
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

/// One level's candidate table.
///
/// The rows hash with [`SeededState`], seeded as the level's filter is,
/// so every verdict is the same on every run. A prefix enters only
/// above the admission fraction of the decayed total, and the table
/// never holds more than its capacity, so a key set crafted to collide
/// costs at most one probe over that bound per lookup.
#[derive(Clone, Debug)]
struct Candidates<P> {
    /// Prefixes worth reporting on, with their last-touch time.
    rows: HashMap<P, Nanos, SeededState>,
    /// At most every row's forward estimate. Between landmark moves
    /// cells only grow, so it stays a bound until a merge, a restore or
    /// a move resets it to 0.
    floor: f64,
}

impl<P: Copy + Ord + core::hash::Hash> Candidates<P> {
    /// Every row's estimate: the weakest row (the larger prefix on a
    /// tie) and the rows under `stale_bar`.
    fn scan(&self, filter: &OnDemandTdbf<P>, stale_bar: f64) -> (Option<(P, f64)>, Vec<P>) {
        let mut weakest: Option<(P, f64)> = None;
        let mut stale = Vec::new();
        for &q in self.rows.keys() {
            let e = filter.estimate(&q);
            if e < stale_bar {
                stale.push(q);
            }
            if weakest.is_none_or(|(wq, we)| e < we || (e == we && q > wq)) {
                weakest = Some((q, e));
            }
        }
        (weakest, stale)
    }
}

/// The windowless TDBF-based HHH detector.
#[derive(Clone, Debug)]
pub struct TdbfHhh<H: Hierarchy> {
    hierarchy: H,
    cfg: TdbfHhhConfig,
    /// The landmark the filters' cells and `total` are measured
    /// against.
    landmark: Landmark,
    filters: Vec<OnDemandTdbf<H::Prefix>>,
    candidates: Vec<Candidates<H::Prefix>>,
    /// The decayed total, forward.
    total: f64,
    observed: u64,
}

impl<H: Hierarchy> TdbfHhh<H> {
    /// Build from a hierarchy and configuration.
    pub fn new(hierarchy: H, cfg: TdbfHhhConfig) -> Self {
        assert!(cfg.admit_fraction > 0.0 && cfg.admit_fraction < 1.0, "admit_fraction in (0,1)");
        let cells = vec![0.0; cfg.cells_per_level * cfg.hashes];
        let filters = vec![cells; hierarchy.levels()];
        Self::with_cells(hierarchy, cfg, Nanos::ZERO, filters)
    }

    /// An empty detector (no candidates, zero total) against the
    /// landmark `at`, whose level `l` filter is `filters[l]`, used as
    /// it is.
    fn with_cells(hierarchy: H, cfg: TdbfHhhConfig, at: Nanos, filters: Vec<Vec<f64>>) -> Self {
        let rate = DecayRate::from_half_life(cfg.half_life);
        let seed = |l: usize| cfg.seed.wrapping_add(l as u64);
        let filters: Vec<_> = filters
            .into_iter()
            .enumerate()
            .map(|(l, cells)| {
                OnDemandTdbf::from_cells(cells, cfg.cells_per_level, cfg.hashes, seed(l))
            })
            .collect();
        TdbfHhh {
            hierarchy,
            landmark: Landmark::new(rate, at),
            candidates: (0..filters.len())
                .map(|l| Candidates {
                    rows: HashMap::with_hasher(SeededState::new(seed(l))),
                    floor: 0.0,
                })
                .collect(),
            filters,
            total: 0.0,
            observed: 0,
            cfg,
        }
    }

    /// The decay rate in use.
    pub fn rate(&self) -> DecayRate {
        self.landmark.rate()
    }

    /// Raw (undecayed) weight observed over the detector's lifetime.
    pub fn observed_weight(&self) -> u64 {
        self.observed
    }

    /// Candidate count per level (diagnostics).
    pub fn candidate_counts(&self) -> Vec<usize> {
        self.candidates.iter().map(|c| c.rows.len()).collect()
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

    /// Move the landmark to `to`, rescaling every forward value.
    fn move_landmark(&mut self, to: Nanos) {
        let shrink = self.landmark.move_to(to);
        self.total = shrink.apply(self.total);
        for filter in &mut self.filters {
            filter.scale(shrink);
        }
        for table in &mut self.candidates {
            table.floor = 0.0;
        }
    }

    /// Offer `p`, whose forward estimate is `est` after a packet at
    /// `ts`, to its level's candidate table.
    fn admit(&mut self, level: usize, p: H::Prefix, ts: Nanos, est: f64) {
        let bar = self.cfg.admit_fraction * self.total;
        let table = &mut self.candidates[level];
        if let Some(last) = table.rows.get_mut(&p) {
            // A late packet (a capture file can hold them) does not
            // move the last touch back, as `merge` keeps the later too.
            *last = (*last).max(ts);
            return;
        }
        if est < bar {
            return;
        }
        if table.rows.len() >= self.cfg.candidates_per_level {
            // Evict the candidate with the smallest estimate, and drop
            // everything that has decayed below half the admission bar.
            let stale_bar = bar * 0.5;
            let filter = &self.filters[level];
            if est <= table.floor && table.floor >= stale_bar {
                // Every row is at least the floor: none is stale and
                // none weaker than the newcomer. That is the scan's
                // verdict, and the table it leaves, without the scan.
                debug_assert!({
                    let (weakest, stale) = table.scan(filter, stale_bar);
                    stale.is_empty() && weakest.is_none_or(|(_, e)| e >= est)
                });
                return;
            }
            let (weakest, stale) = table.scan(filter, stale_bar);
            for q in stale {
                table.rows.remove(&q);
            }
            let Some((weak_key, weak_est)) = weakest else {
                return; // a table with no room at all
            };
            table.floor = weak_est;
            if table.rows.len() >= self.cfg.candidates_per_level {
                if weak_est >= est {
                    return; // newcomer is weaker than everything present
                }
                table.rows.remove(&weak_key);
            }
        }
        table.floor = table.floor.min(est);
        table.rows.insert(p, ts);
    }
}

impl<H: Hierarchy> ContinuousDetector<H> for TdbfHhh<H> {
    /// One packet: its weight times one growth factor `e^(λ·(t − L))`
    /// is added to the decayed total and, at each level, to the item's
    /// prefix in that level's filter, whose
    /// [`insert`](OnDemandTdbf::insert) also returns the prefix's
    /// forward estimate for the candidate table's admission test. A
    /// late packet is weighted by the same formula. Only a packet that
    /// would pass the exponent cap moves the landmark first.
    fn observe(&mut self, ts: Nanos, item: H::Item, weight: u64) {
        self.observed += weight;
        if self.landmark.is_due(ts) {
            self.move_landmark(self.landmark.grid_point(ts));
        }
        let w = weight as f64 * self.landmark.growth(ts);
        self.total += w;
        for level in 0..self.filters.len() {
            let p = self.hierarchy.generalize(item, level);
            let est = self.filters[level].insert(&p, w);
            self.admit(level, p, ts, est);
        }
    }

    fn decayed_total(&self, now: Nanos) -> f64 {
        self.total * self.landmark.decay(now)
    }

    fn report_at(&self, now: Nanos, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        let decay = self.landmark.decay(now);
        let total = self.total * decay;
        if total.is_nan() || total <= 0.0 {
            return Vec::new();
        }
        let t_abs = ((threshold.as_fraction() * total).ceil() as u64).max(1);
        let mut levels: Vec<_> = self
            .candidates
            .iter()
            .zip(&self.filters)
            .map(|(table, filter)| {
                table
                    .rows
                    .keys()
                    .map(|&p| (p, (filter.estimate(&p) * decay).round() as u64))
                    .collect()
            })
            .collect();
        // Close upward (same algebraic safety as the windowed
        // detectors): a parent of a candidate that is not a candidate
        // itself gets its own filter estimate.
        close_upward(&self.hierarchy, &mut levels, |level, parent, _, own| {
            own.unwrap_or_else(|| {
                let est = self.filters[level].estimate(&parent) * decay;
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
        // The forward total and its landmark.
        filters + candidates + core::mem::size_of::<(f64, Nanos)>()
    }

    fn name(&self) -> &'static str {
        Kind::Tdbf.label()
    }
}

impl<H: Hierarchy> MergeableDetector for TdbfHhh<H> {
    /// Windowless merge: both sides are brought to the later of the two
    /// landmarks, the per-level filters and the totals add
    /// ([`OnDemandTdbf::merge`]), and candidate tables take the union
    /// (later last-touch wins), pruned back to capacity by keeping the
    /// prefixes with the largest merged estimates. Detectors fed one
    /// clock share their landmark, so the merge is plain addition; a
    /// side with an older landmark pays one multiply per cell.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.filters.len(), other.filters.len(), "hierarchy depth mismatch");
        assert_eq!(self.rate(), other.rate(), "TDBF decay-rate mismatch");
        if other.landmark.at() > self.landmark.at() {
            self.move_landmark(other.landmark.at());
        }
        let shrink = other.landmark.shrink_to(self.landmark.at());
        for (a, b) in self.filters.iter_mut().zip(&other.filters) {
            a.merge(b, shrink);
        }
        self.total += shrink.apply(other.total);
        self.observed += other.observed;
        let cap = self.cfg.candidates_per_level;
        for ((table, theirs), filter) in
            self.candidates.iter_mut().zip(&other.candidates).zip(&self.filters)
        {
            for (&p, &ts) in &theirs.rows {
                let e = table.rows.entry(p).or_insert(ts);
                *e = (*e).max(ts);
            }
            table.floor = 0.0;
            if table.rows.len() > cap {
                let mut ranked: Vec<(H::Prefix, f64, Nanos)> =
                    table.rows.iter().map(|(&p, &ts)| (p, filter.estimate(&p), ts)).collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                ranked.truncate(cap);
                table.rows.clear();
                table.rows.extend(ranked.into_iter().map(|(p, _, ts)| (p, ts)));
            }
        }
    }

    /// Wire format: the full configuration (cell geometry, hash count,
    /// half-life, candidate capacity, admission fraction, hash seed)
    /// plus the complete decayed state — `"total"` as a
    /// `[value, landmark_ns]` pair, `"filters"` as per-level arrays of
    /// `[value, landmark_ns]` cells, `"candidates"` as per-level
    /// `[prefix, ts_ns]` rows sorted by prefix. A pair `(c, L)` is the
    /// lazily decayed counter older readers know: read at any `t ≥ L`,
    /// it is `c·e^(−λ·(t − L))`. Floats render in shortest round-trip
    /// form, so a restored detector is *bit-identical*: it decays,
    /// reports and merges exactly like the original.
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
    /// The wire body: configuration, the total and every level's cells
    /// stamped with the landmark, and candidate rows sorted by the
    /// prefix's display form.
    pub(crate) fn body(&self) -> Body<'_> {
        let at = self.landmark.at().as_nanos();
        Body::Tdbf(TdbfBody {
            cells_per_level: self.cfg.cells_per_level as u64,
            hashes: self.cfg.hashes as u64,
            half_life_ns: self.cfg.half_life.as_nanos(),
            candidates_per_level: self.cfg.candidates_per_level as u64,
            admit_fraction: self.cfg.admit_fraction,
            seed: self.cfg.seed,
            observed: self.observed,
            total: (self.total, at),
            filters: self
                .filters
                .iter()
                .map(|f| WireCells { values: Cow::Borrowed(f.cells()), stamps: Stamps::All(at) })
                .collect(),
            candidates: self
                .candidates
                .iter()
                .map(|table| {
                    let mut rows: Vec<(String, u64)> =
                        table.rows.iter().map(|(p, &ts)| (p.to_string(), ts.as_nanos())).collect();
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
    /// duplicates, every candidate must sit at its table's level, every
    /// float must be finite, and the envelope total must equal the
    /// observed weight.
    ///
    /// The landmark is the body's latest time stamp. This crate stamps
    /// every pair with its landmark, so its cells are used as they are;
    /// an older writer's lazy pair `(v, last)` becomes the forward value
    /// `v·e^(−λ·(L − last))`.
    pub(crate) fn from_wire(
        hierarchy: H,
        cfg: TdbfHhhConfig,
        observed: u64,
        total: (f64, u64),
        filters: Vec<WireCells<'_>>,
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
        let finite = |v: f64, field: &'static str| {
            if v.is_finite() {
                Ok(())
            } else {
                Err(SnapshotError::Invalid { field, what: "cell value is not finite" })
            }
        };
        finite(total.0, "total")?;

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
            if cells.values.len() != cfg.cells_per_level * cfg.hashes {
                return Err(SnapshotError::Invalid {
                    field: "filters",
                    what: "cell count does not match the geometry",
                });
            }
            for &v in cells.values.iter() {
                finite(v, "filters")?;
            }
        }
        if candidates.len() != levels {
            return Err(SnapshotError::Invalid {
                field: "candidates",
                what: "one table per level required",
            });
        }

        let rate = DecayRate::from_half_life(cfg.half_life);
        let at = filters.iter().map(|c| c.stamps.latest()).fold(total.1, u64::max);
        let shrink =
            |ns: u64| Landmark::new(rate, Nanos::from_nanos(ns)).shrink_to(Nanos::from_nanos(at));
        let filters = filters
            .into_iter()
            .map(|cells| {
                let mut values = cells.values.into_owned();
                for (i, v) in values.iter_mut().enumerate() {
                    let ns = cells.stamps.of(i);
                    if ns != at && *v != 0.0 {
                        *v = shrink(ns).apply(*v);
                    }
                }
                values
            })
            .collect();

        let mut detector = TdbfHhh::with_cells(hierarchy, cfg, Nanos::from_nanos(at), filters);
        for (level, (table, rows)) in detector.candidates.iter_mut().zip(candidates).enumerate() {
            if rows.len() > detector.cfg.candidates_per_level {
                return Err(SnapshotError::Invalid {
                    field: "candidates",
                    what: "more candidates than capacity",
                });
            }
            for (prefix, ts) in rows {
                if detector.hierarchy.level_of(prefix) != Some(level) {
                    return Err(SnapshotError::Invalid {
                        field: "candidates",
                        what: "prefix is not at its table's level",
                    });
                }
                if table.rows.insert(prefix, ts).is_some() {
                    return Err(SnapshotError::Invalid {
                        field: "candidates",
                        what: "duplicate prefix",
                    });
                }
            }
        }

        detector.total = shrink(total.1).apply(total.0);
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
    use proptest::prelude::*;

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
        // The probe sees the stream up to its instant: a read before
        // later arrivals would count them too, grown to the probe.
        let probe = Nanos::from_millis(5_600);
        let mut t = Nanos::ZERO;
        while t < probe {
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
            assert_eq!(d.candidates[level].rows.get(&p), Some(&latest), "level {level}: {p}");
        }
        // The late packet decays from its own time: the total and the
        // source's estimate are the closed form at the latest time.
        let closed: f64 =
            [1, 3, 2].map(|s| 500.0 * d.rate().factor(latest - Nanos::from_secs(s))).iter().sum();
        let own = d.filters[0].estimate(&Ipv4Prefix::host(src)) * d.landmark.decay(latest);
        for got in [d.decayed_total(latest), own] {
            assert!((got - closed).abs() < 1e-9 * closed, "{got} vs {closed}");
        }
        assert_eq!(d.observed_weight(), 1500);
    }

    #[test]
    fn eviction_ties_go_to_the_smaller_prefix_and_the_floor_refuses() {
        // Two hosts tie in a full two-row table; a heavier newcomer
        // evicts the larger prefix, whatever order the table iterates.
        // Then a lighter one is refused by the floor that scan left,
        // with no scan (debug builds run it anyway and check the
        // verdict).
        let c = TdbfHhhConfig { candidates_per_level: 2, ..cfg() };
        let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), c);
        let t = Nanos::from_secs(1);
        for (src, w) in [("1.1.1.1", 100), ("2.2.2.2", 100), ("3.3.3.3", 1000), ("4.4.4.4", 50)] {
            d.observe(t, ip(src), w);
        }
        assert!(d.candidates[0].floor > 0.0);
        let mut level0: Vec<_> = d.candidates[0].rows.keys().copied().collect();
        level0.sort();
        assert_eq!(level0, ["1.1.1.1/32", "3.3.3.3/32"].map(|p| p.parse().unwrap()));
    }

    /// `C(now)` of the arrivals `(ts, item, weight)` whose item is under
    /// `p` at `level`.
    fn closed_form(
        d: &TdbfHhh<Ipv4Hierarchy>,
        arrivals: &[(Nanos, u32, u64)],
        (level, p): (usize, Ipv4Prefix),
        now: Nanos,
    ) -> f64 {
        let lambda = d.rate().lambda();
        let under = arrivals.iter().filter(|a| d.hierarchy.generalize(a.1, level) == p);
        under.map(|&(t, _, w)| w as f64 * (-lambda * (now - t).as_secs_f64()).exp()).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Forward decay against the closed form `C(t) = Σ wᵢ·e^(−λ(t − tᵢ))`:
        /// the decayed total equals it, every prefix's estimate bounds
        /// it from above, and a prefix that shares no cell with another
        /// meets it — within 1e-9 relative — on streams with repeated
        /// and late time stamps and zero weights, at half-lives down to
        /// 1 ms (the landmark moves many times), for one detector and
        /// for the merge of two whose landmarks differ, either way round.
        #[test]
        fn estimates_meet_the_closed_form(
            ops in prop::collection::vec((0u32..20, 0u64..4, 1u64..5_000, 0u64..2_000_000_000), 1..250),
            half_life_us in 1_000u64..3_000_000,
            split in 0usize..250,
        ) {
            let c = TdbfHhhConfig {
                cells_per_level: 48,
                hashes: 2,
                half_life: TimeSpan::from_micros(half_life_us),
                candidates_per_level: 6,
                ..cfg()
            };
            let mut clock = Nanos::from_millis(1);
            let mut arrivals = Vec::new();
            for (key, step, w, span) in ops {
                let span = TimeSpan::from_nanos(span);
                let (ts, w) = match step {
                    0 => (clock, w),                                 // repeated
                    1 => (clock.saturating_sub_span(span / 16), w),  // late
                    2 => (clock + span, 0),                          // zero weight
                    _ => (clock + span, w),
                };
                clock = clock.max(ts);
                arrivals.push((ts, ((key % 5) << 24) | (key << 8) | key, w));
            }
            let split = split.min(arrivals.len());
            let feed = |arrivals: &[(Nanos, u32, u64)]| {
                let mut d = TdbfHhh::new(Ipv4Hierarchy::bytes(), c.clone());
                for &(ts, item, w) in arrivals {
                    d.observe(ts, item, w);
                }
                d
            };
            let (early, late) = (feed(&arrivals[..split]), feed(&arrivals[split..]));
            let mut forward = early.clone();
            forward.merge(&late);
            let mut backward = late.clone();
            backward.merge(&early);
            let now = clock;
            let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want + 1e-250;
            for d in [feed(&arrivals), forward, backward] {
                let all = closed_form(&d, &arrivals, (4, Ipv4Prefix::ROOT), now);
                let (got, want) = (d.decayed_total(now), all);
                prop_assert!(close(got, want), "total {} vs {}", got, want);
                let decay = d.landmark.decay(now);
                for (level, filter) in d.filters.iter().enumerate() {
                    let prefixes: std::collections::BTreeSet<_> =
                        arrivals.iter().map(|a| d.hierarchy.generalize(a.1, level)).collect();
                    for &p in &prefixes {
                        let want = closed_form(&d, &arrivals, (level, p), now);
                        let got = filter.estimate(&p) * decay;
                        prop_assert!(got >= want * (1.0 - 1e-9) - 1e-250, "{}: {} < {}", p, got, want);
                        let mine: Vec<usize> = filter.cell_indexes(&p).collect();
                        let shared = prefixes.iter().filter(|&&q| q != p).any(|q| {
                            filter.cell_indexes(q).any(|i| mine.contains(&i))
                        });
                        if !shared {
                            prop_assert!(close(got, want), "{}: {} vs {}", p, got, want);
                        }
                    }
                }
            }
        }
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
