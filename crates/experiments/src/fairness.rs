//! The **same-memory fairness shoot-out** (PR 8): every snapshot-capable
//! detector kind, sized to one shared byte budget, on the same traces,
//! scored against the same exact ground truth.
//!
//! Published throughput comparisons routinely give each algorithm
//! whatever capacity its authors picked, so "A is faster than B" often
//! means "A was given more memory than B". This experiment removes that
//! variable: [`FAIRNESS_BUDGET_BYTES`] is the budget, and each
//! approximate kind's sizing knob (Space-Saving counters, RHHH
//! counters, MVPipe buckets, TDBF cells) is fitted to the **largest
//! provisioned state that stays under it** — the `state_bytes()` each
//! detector itself reports. The exact detector rides along unbudgeted
//! as the reference (its state grows with the key population; its row
//! records what that costs).
//!
//! Two traces per kind:
//!
//! * `zipf` — day-0 ISP-like traffic (Zipf sources, bursts);
//! * `attack` — background plus a planted pulsed DDoS from one /16
//!   ([`scenarios::ddos`]), where the heavy hitter exists *only* as a
//!   hierarchical aggregate.
//!
//! Three measurements per (kind, trace):
//!
//! * **precision / recall** of the kind's final HHH report against the
//!   exact detector's report on the identical stream;
//! * **convergence** — trace-time seconds until the kind's report first
//!   reaches [`CONVERGE_RECALL`] recall of that final ground truth
//!   (checked at [`CONVERGE_CHECKPOINTS`] points, untimed pass);
//! * **single-core pkts/s** through `observe_batch`, nothing else on
//!   the clock.
//!
//! A depth-flatness rider pins MVPipe's headline claim: per-packet cost
//! is one bucket probe regardless of hierarchy depth, so byte-level
//! IPv4 (H = 5) and hextet-level IPv6 (H = 9) must cost the same —
//! within 15% — while every level-ancestry kind pays ~H× more as H
//! grows. `scale -- fairness` prints the tables and writes the JSON
//! lines committed as `BENCH_pr8.json`; the `fairness` criterion group
//! in `hhh-bench` mirrors the throughput axis.

use crate::Scale;
use hhh_analysis::{fmt_f, SetAccuracy, Table};
use hhh_core::{
    ContinuousDetector, ExactHhh, HhhDetector, Kind, MvPipeHhh, Rhhh, SpaceSavingHhh, TdbfHhh,
    TdbfHhhConfig, Threshold,
};
use hhh_hierarchy::{Hierarchy, Ipv4Hierarchy, Ipv6Hierarchy};
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_trace::{scenarios, TraceGenerator};
use hhh_window::DEFAULT_BATCH;
use std::collections::BTreeSet;
use std::time::Instant;

/// The shared provisioned-state budget every approximate kind is
/// fitted under. 128 KiB ≈ the Space-Saving full-ancestry detector at
/// its long-standing 512-counter default, so the shoot-out meets the
/// existing benchmarks on familiar ground.
pub const FAIRNESS_BUDGET_BYTES: usize = 128 * 1024;

/// Report threshold of the shoot-out (fraction of total bytes).
pub const FAIRNESS_THRESHOLD_PCT: f64 = 1.0;

/// Recall of the final ground truth that counts as "converged".
pub const CONVERGE_RECALL: f64 = 0.9;

/// Report points of the untimed convergence pass.
pub const CONVERGE_CHECKPOINTS: usize = 32;

/// RHHH sampling seed (fixed so runs are reproducible).
const RHHH_SEED: u64 = 0x5EED;

/// One (kind, trace) measurement.
#[derive(Clone, Debug)]
pub struct FairnessRow {
    /// Trace label (`zipf` or `attack`).
    pub trace: &'static str,
    /// Detector kind under test.
    pub detector: Kind,
    /// Byte budget the kind was fitted under (0 for the unbudgeted
    /// exact reference).
    pub budget_bytes: usize,
    /// Provisioned state bytes the fitted detector actually reports.
    pub state_bytes: usize,
    /// Packets in the trace.
    pub packets: u64,
    /// Wall-clock seconds of the timed single-core ingest pass.
    pub seconds: f64,
    /// Single-core `observe_batch` throughput.
    pub pkts_per_sec: f64,
    /// Precision of the final report vs exact ground truth.
    pub precision: f64,
    /// Recall of the final report vs exact ground truth.
    pub recall: f64,
    /// Trace-time seconds until recall first reached
    /// [`CONVERGE_RECALL`] (the full trace duration if it never did).
    pub converge_seconds: f64,
}

/// One hierarchy-depth measurement of the MVPipe flatness rider.
#[derive(Clone, Debug)]
pub struct DepthRow {
    /// Hierarchy label (`ipv4-bytes` or `ipv6-hextets`).
    pub hierarchy: &'static str,
    /// Levels in that hierarchy (5 or 9).
    pub levels: usize,
    /// Packets ingested.
    pub packets: u64,
    /// Wall-clock seconds of the ingest pass.
    pub seconds: f64,
    /// Nanoseconds per packet.
    pub ns_per_packet: f64,
}

/// Full shoot-out results.
#[derive(Clone, Debug)]
pub struct FairnessResults {
    /// One row per (kind, trace).
    pub rows: Vec<FairnessRow>,
    /// The MVPipe depth-flatness rows (IPv4 then IPv6).
    pub depth: Vec<DepthRow>,
    /// Scale the shoot-out ran at.
    pub scale: Scale,
}

impl FairnessResults {
    /// The row for a detector on a trace, if measured.
    pub fn row(&self, detector: Kind, trace: &str) -> Option<&FairnessRow> {
        self.rows.iter().find(|r| r.detector == detector && r.trace == trace)
    }

    /// Slowest-over-fastest ratio of the depth rows (1.0 = perfectly
    /// flat across hierarchy depth).
    pub fn depth_ratio(&self) -> f64 {
        let ns: Vec<f64> = self.depth.iter().map(|d| d.ns_per_packet).collect();
        let max = ns.iter().copied().fold(f64::MIN, f64::max);
        let min = ns.iter().copied().fold(f64::MAX, f64::min);
        max / min
    }

    /// Render both tables (shoot-out, then depth flatness).
    pub fn table(&self) -> String {
        let mut t = Table::new(vec![
            "trace",
            "detector",
            "budget-B",
            "state-B",
            "packets",
            "pkts/s",
            "precision",
            "recall",
            "converge-s",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.trace.to_string(),
                r.detector.label().to_string(),
                r.budget_bytes.to_string(),
                r.state_bytes.to_string(),
                r.packets.to_string(),
                format!("{:.0}", r.pkts_per_sec),
                fmt_f(r.precision, 4),
                fmt_f(r.recall, 4),
                fmt_f(r.converge_seconds, 2),
            ]);
        }
        let mut d = Table::new(vec!["hierarchy", "levels", "packets", "ns/pkt"]);
        for r in &self.depth {
            d.row(vec![
                r.hierarchy.to_string(),
                r.levels.to_string(),
                r.packets.to_string(),
                fmt_f(r.ns_per_packet, 1),
            ]);
        }
        format!(
            "{}\nmvpipe depth flatness (slowest/fastest = {:.3}):\n{}",
            t.render(),
            self.depth_ratio(),
            d.render()
        )
    }

    /// Render as JSON lines, the format committed as `BENCH_pr8.json`.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{{\"experiment\": \"fairness\", \"scale\": \"{}\", \"trace\": \"{}\", \
                 \"detector\": \"{}\", \"budget_bytes\": {}, \"state_bytes\": {}, \
                 \"packets\": {}, \"seconds\": {:.6}, \"pkts_per_sec\": {:.1}, \
                 \"precision\": {:.6}, \"recall\": {:.6}, \"converge_seconds\": {:.3}}}\n",
                self.scale.label(),
                r.trace,
                r.detector.label(),
                r.budget_bytes,
                r.state_bytes,
                r.packets,
                r.seconds,
                r.pkts_per_sec,
                r.precision,
                r.recall,
                r.converge_seconds,
            ));
        }
        for r in &self.depth {
            out.push_str(&format!(
                "{{\"experiment\": \"fairness_depth\", \"scale\": \"{}\", \
                 \"detector\": \"mvpipe\", \"hierarchy\": \"{}\", \"levels\": {}, \
                 \"packets\": {}, \"seconds\": {:.6}, \"ns_per_packet\": {:.3}}}\n",
                self.scale.label(),
                r.hierarchy,
                r.levels,
                r.packets,
                r.seconds,
                r.ns_per_packet,
            ));
        }
        out.push_str(&format!(
            "{{\"experiment\": \"fairness_depth_ratio\", \"scale\": \"{}\", \
             \"detector\": \"mvpipe\", \"ratio\": {:.4}}}\n",
            self.scale.label(),
            self.depth_ratio(),
        ));
        out
    }
}

/// The largest integer parameter whose provisioned state stays within
/// `budget` bytes (1 when even the smallest build exceeds it).
fn fit_param(budget: usize, bytes_at: impl Fn(usize) -> usize) -> usize {
    if bytes_at(1) > budget {
        return 1;
    }
    let (mut lo, mut hi) = (1usize, 2usize);
    while bytes_at(hi) <= budget {
        lo = hi;
        hi *= 2;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if bytes_at(mid) <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn tdbf_config(cells_per_level: usize, horizon: TimeSpan) -> TdbfHhhConfig {
    TdbfHhhConfig {
        cells_per_level,
        hashes: 2,
        // Mild decay: the shoot-out scores whole-trace ground truth, so
        // a short half-life would penalize the windowless kind for its
        // defining feature rather than its memory/accuracy trade-off.
        half_life: horizon,
        candidates_per_level: 64,
        admit_fraction: 0.001,
        seed: 0x7DBF,
    }
}

fn report_set<D: HhhDetector<Ipv4Hierarchy>>(
    det: &D,
    threshold: Threshold,
) -> BTreeSet<Ipv4Prefix> {
    det.report(threshold).iter().map(|r| r.prefix).collect()
}

/// Trace-time seconds from trace start to the checkpoint where the
/// detector's report first covers [`CONVERGE_RECALL`] of `truth`.
fn converge_at(
    packets: &[PacketRecord],
    truth: &BTreeSet<Ipv4Prefix>,
    mut set_after: impl FnMut(&[PacketRecord]) -> BTreeSet<Ipv4Prefix>,
) -> f64 {
    let t0 = packets.first().map(|p| p.ts).unwrap_or(Nanos::ZERO);
    let tn = packets.last().map(|p| p.ts).unwrap_or(Nanos::ZERO);
    let per = (packets.len() / CONVERGE_CHECKPOINTS).max(1);
    let mut fed = 0;
    while fed < packets.len() {
        let end = (fed + per).min(packets.len());
        let set = set_after(&packets[fed..end]);
        if SetAccuracy::compare(truth, &set).recall() >= CONVERGE_RECALL {
            return (packets[end - 1].ts - t0).as_secs_f64();
        }
        fed = end;
    }
    (tn - t0).as_secs_f64()
}

/// One trace's fixed shoot-out context: its packets (and their
/// `(src, bytes)` items), the exact ground truth and the threshold.
struct Shootout<'a> {
    trace: &'static str,
    packets: &'a [PacketRecord],
    items: &'a [(u32, u64)],
    truth: &'a BTreeSet<Ipv4Prefix>,
    threshold: Threshold,
}

impl Shootout<'_> {
    /// Measure one windowed detector, built fresh by `make` for each
    /// pass.
    fn windowed<D: HhhDetector<Ipv4Hierarchy>>(
        &self,
        detector: Kind,
        budget_bytes: usize,
        make: impl Fn() -> D,
    ) -> FairnessRow {
        let (packets, items, truth, threshold) =
            (self.packets, self.items, self.truth, self.threshold);
        let n = items.len() as u64;

        // Timed pass: pure observe_batch, single core, nothing else.
        let mut det = make();
        let start = Instant::now();
        for chunk in items.chunks(DEFAULT_BATCH) {
            det.observe_batch(chunk);
        }
        let seconds = start.elapsed().as_secs_f64();
        let acc = SetAccuracy::compare(truth, &report_set(&det, threshold));
        let state_bytes = det.state_bytes();

        // Untimed pass: fresh detector, checkpointed convergence.
        let mut fresh = make();
        let converge_seconds = converge_at(packets, truth, |chunk| {
            let batch: Vec<(u32, u64)> = chunk.iter().map(|p| (p.src, p.wire_len as u64)).collect();
            fresh.observe_batch(&batch);
            report_set(&fresh, threshold)
        });

        FairnessRow {
            trace: self.trace,
            detector,
            budget_bytes,
            state_bytes,
            packets: n,
            seconds,
            pkts_per_sec: n as f64 / seconds,
            precision: acc.precision(),
            recall: acc.recall(),
            converge_seconds,
        }
    }

    /// Measure one continuous detector, probed at the last packet.
    fn continuous<D: ContinuousDetector<Ipv4Hierarchy>>(
        &self,
        detector: Kind,
        budget_bytes: usize,
        make: impl Fn() -> D,
    ) -> FairnessRow {
        let (packets, truth, threshold) = (self.packets, self.truth, self.threshold);
        let n = packets.len() as u64;
        let stamped: Vec<(Nanos, u32, u64)> =
            packets.iter().map(|p| (p.ts, p.src, p.wire_len as u64)).collect();
        let at = packets.last().map(|p| p.ts).unwrap_or(Nanos::ZERO);

        let mut det = make();
        let start = Instant::now();
        for chunk in stamped.chunks(DEFAULT_BATCH) {
            det.observe_batch(chunk);
        }
        let seconds = start.elapsed().as_secs_f64();
        let set: BTreeSet<Ipv4Prefix> =
            det.report_at(at, threshold).iter().map(|r| r.prefix).collect();
        let acc = SetAccuracy::compare(truth, &set);
        let state_bytes = det.state_bytes();

        let mut fresh = make();
        let converge_seconds = converge_at(packets, truth, |chunk| {
            let batch: Vec<(Nanos, u32, u64)> =
                chunk.iter().map(|p| (p.ts, p.src, p.wire_len as u64)).collect();
            fresh.observe_batch(&batch);
            let now = chunk.last().expect("non-empty chunk").ts;
            fresh.report_at(now, threshold).iter().map(|r| r.prefix).collect()
        });

        FairnessRow {
            trace: self.trace,
            detector,
            budget_bytes,
            state_bytes,
            packets: n,
            seconds,
            pkts_per_sec: n as f64 / seconds,
            precision: acc.precision(),
            recall: acc.recall(),
            converge_seconds,
        }
    }
}

/// Spread a 32-bit source across the 128-bit space so every hextet
/// level of the IPv6 hierarchy sees real variation (a bare widening
/// would leave the upper levels constant).
fn spread_v6(src: u32) -> u128 {
    let s = src as u128;
    (s << 96) | (s << 64) | (s << 32) | s
}

/// Packets per depth-flatness pass. Both slices stay cache-resident
/// (the IPv4 stream is 16 B/packet, the spread IPv6 stream 32 B/packet,
/// so 512 KiB vs 1 MiB), which makes the rows measure the update path
/// — one bucket probe per packet — rather than the DRAM streaming cost
/// of wider items, which every detector pays identically for IPv6 and
/// has nothing to do with hierarchy depth.
const DEPTH_SLICE: usize = 32_768;

/// Timed passes per depth row; each row keeps its fastest pass (the
/// standard microbenchmark guard against scheduler noise on a
/// sub-millisecond measurement).
const DEPTH_REPS: usize = 15;

/// Steady-state per-packet seconds of MVPipe over a prepared stream:
/// one untimed pass fills the pipe (the insert transient is a one-time
/// cost, not the per-packet update rule), then `DEPTH_REPS` timed
/// passes over the warm pipe, keeping the fastest. Returns (best pass
/// seconds, per-pass weight) — the weight checks both depths saw the
/// identical stream.
fn depth_pass<H: Hierarchy>(hierarchy: H, buckets: usize, stream: &[(H::Item, u64)]) -> (f64, u64) {
    let mut det = MvPipeHhh::new(hierarchy, buckets);
    for chunk in stream.chunks(DEFAULT_BATCH) {
        det.observe_batch(chunk);
    }
    let warm_total = det.total();
    let mut best = f64::INFINITY;
    for _ in 0..DEPTH_REPS {
        let start = Instant::now();
        for chunk in stream.chunks(DEFAULT_BATCH) {
            det.observe_batch(chunk);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, warm_total)
}

/// Time MVPipe's `observe_batch` over the same stream at two hierarchy
/// depths, each side's pipe fitted to the same state-byte budget (the
/// shoot-out's own fairness rule, which also equalizes the cache
/// footprint of the two tables). The update rule touches exactly one
/// bucket per packet, so both rows must land within a whisker of each
/// other — the per-packet-cost-flat-in-H acceptance this PR pins.
fn depth_rows(packets: &[PacketRecord], budget: usize) -> Vec<DepthRow> {
    let slice = &packets[..packets.len().min(DEPTH_SLICE)];
    let n = slice.len() as u64;
    let v4: Vec<(u32, u64)> = slice.iter().map(|p| (p.src, p.wire_len as u64)).collect();
    let v6: Vec<(u128, u64)> =
        slice.iter().map(|p| (spread_v6(p.src), p.wire_len as u64)).collect();

    let h4 = Ipv4Hierarchy::bytes();
    let h6 = Ipv6Hierarchy::hextets();
    let b4 = fit_param(budget, |b| HhhDetector::state_bytes(&MvPipeHhh::new(h4, b)));
    let b6 = fit_param(budget, |b| HhhDetector::state_bytes(&MvPipeHhh::new(h6, b)));

    let (s4, total4) = depth_pass(h4, b4, &v4);
    let (s6, total6) = depth_pass(h6, b6, &v6);
    assert!(total4 == total6, "both depths must see the identical stream");

    vec![
        DepthRow {
            hierarchy: "ipv4-bytes",
            levels: h4.levels(),
            packets: n,
            seconds: s4,
            ns_per_packet: s4 * 1e9 / n as f64,
        },
        DepthRow {
            hierarchy: "ipv6-hextets",
            levels: h6.levels(),
            packets: n,
            seconds: s6,
            ns_per_packet: s6 * 1e9 / n as f64,
        },
    ]
}

/// Run the whole shoot-out at a scale. Single-threaded by design —
/// every number is a one-core measurement.
pub fn fairness(scale: Scale) -> FairnessResults {
    let horizon = scale.compare_duration();
    let h = Ipv4Hierarchy::bytes();
    let threshold = Threshold::percent(FAIRNESS_THRESHOLD_PCT);
    let budget = FAIRNESS_BUDGET_BYTES;

    // Fit each kind's sizing knob under the shared budget, using the
    // provisioned state the detector itself reports.
    let ss_cap = fit_param(budget, |c| HhhDetector::state_bytes(&SpaceSavingHhh::new(h, c)));
    let rhhh_cap = fit_param(budget, |c| HhhDetector::state_bytes(&Rhhh::new(h, c, RHHH_SEED)));
    let mv_buckets = fit_param(budget, |b| HhhDetector::state_bytes(&MvPipeHhh::new(h, b)));
    let tdbf_cells = fit_param(budget, |c| {
        ContinuousDetector::state_bytes(&TdbfHhh::new(h, tdbf_config(c, horizon)))
    });

    let traces: [(&'static str, Vec<PacketRecord>); 2] = [
        (
            "zipf",
            TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect(),
        ),
        ("attack", scenarios::ddos(horizon, scenarios::day_seed(1)).collect()),
    ];

    let mut rows = Vec::new();
    for (label, packets) in &traces {
        let items: Vec<(u32, u64)> = packets.iter().map(|p| (p.src, p.wire_len as u64)).collect();
        let mut oracle = ExactHhh::new(h);
        for chunk in items.chunks(DEFAULT_BATCH) {
            HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut oracle, chunk);
        }
        let truth = report_set(&oracle, threshold);

        let on = Shootout { trace: label, packets, items: &items, truth: &truth, threshold };
        for kind in Kind::ALL {
            rows.push(match kind {
                Kind::Exact => on.windowed(kind, 0, || ExactHhh::new(h)),
                Kind::SsHhh => on.windowed(kind, budget, || SpaceSavingHhh::new(h, ss_cap)),
                Kind::Rhhh => on.windowed(kind, budget, || Rhhh::new(h, rhhh_cap, RHHH_SEED)),
                Kind::Tdbf => on
                    .continuous(kind, budget, || TdbfHhh::new(h, tdbf_config(tdbf_cells, horizon))),
                Kind::MvPipe => on.windowed(kind, budget, || MvPipeHhh::new(h, mv_buckets)),
            });
        }
    }

    let depth = depth_rows(&traces[0].1, budget);
    FairnessResults { rows, depth, scale }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_param_maximizes_under_budget() {
        // bytes = 48 × p: budget 1000 fits p = 20, not 21.
        assert_eq!(fit_param(1000, |p| p * 48), 20);
        // Even p = 1 over budget still returns a constructible size.
        assert_eq!(fit_param(10, |p| p * 48), 1);
        // Exact fits are kept.
        assert_eq!(fit_param(96, |p| p * 48), 2);
    }

    #[test]
    fn fitted_kinds_share_the_budget() {
        let h = Ipv4Hierarchy::bytes();
        let budget = FAIRNESS_BUDGET_BYTES;
        let ss_cap = fit_param(budget, |c| HhhDetector::state_bytes(&SpaceSavingHhh::new(h, c)));
        let mv = fit_param(budget, |b| HhhDetector::state_bytes(&MvPipeHhh::new(h, b)));
        let ss = SpaceSavingHhh::new(h, ss_cap);
        let mvp = MvPipeHhh::new(h, mv);
        for bytes in
            [HhhDetector::<Ipv4Hierarchy>::state_bytes(&ss), HhhDetector::state_bytes(&mvp)]
        {
            assert!(bytes <= budget, "{bytes} over budget");
            // Within one doubling of the budget floor: the fit is
            // maximal, not merely legal.
            assert!(bytes * 2 > budget, "{bytes} leaves half the budget idle");
        }
    }

    /// Structural smoke on a seconds-long trace: every kind × trace row
    /// present, scores in range, depth rows populated. Timing-dependent
    /// acceptance (mvpipe ≥ 2× ss-hhh, depth ratio ≤ 1.15) is pinned by
    /// the committed release-mode `BENCH_pr8.json`, not by this debug
    /// test.
    #[test]
    fn shootout_covers_every_kind_on_both_traces() {
        let results = fairness(Scale::Smoke);
        assert_eq!(results.rows.len(), Kind::ALL.len() * 2);
        for kind in Kind::ALL {
            for trace in ["zipf", "attack"] {
                let r = results.row(kind, trace).expect("row present");
                let at = format!("{}/{trace}", kind.label());
                assert!(r.packets > 0 && r.pkts_per_sec > 0.0, "{at}");
                assert!((0.0..=1.0).contains(&r.precision), "{at}");
                assert!((0.0..=1.0).contains(&r.recall), "{at}");
                assert!(r.converge_seconds >= 0.0, "{at}");
                if kind == Kind::Exact {
                    assert_eq!((r.precision, r.recall), (1.0, 1.0), "exact is its own truth");
                } else {
                    assert!(r.state_bytes <= r.budget_bytes, "{at} over budget");
                }
            }
        }
        assert_eq!(results.depth.len(), 2);
        assert!(results.depth_ratio() >= 1.0);
        let json = results.json_lines();
        assert!(json.contains("\"experiment\": \"fairness\""));
        assert!(json.contains("\"experiment\": \"fairness_depth\""));
        assert!(json.contains("\"experiment\": \"fairness_depth_ratio\""));
        assert!(results.table().contains("depth flatness"));
    }
}
