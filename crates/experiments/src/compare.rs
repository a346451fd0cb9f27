//! Experiment E3 — the comparison the paper's §3 promises: the
//! time-decaying proof of concept against existing solutions, on
//! **accuracy**, **performance** and **resource utilization**.
//!
//! Setup: one bursty day trace; a 10 s measurement window at a 5 %
//! byte threshold. The *oracle* is the exact HHH set of the trailing
//! 10 s window, evaluated every second (the sliding-exact driver).
//! Detectors answer at every probe instant with their freshest
//! available report:
//!
//! * windowed detectors (exact, Space-Saving HHH, RHHH) report at
//!   their disjoint window boundaries; between boundaries their answer
//!   is *stale* — that staleness is precisely the disjoint-window
//!   blindness the paper demonstrates, now measured as lost recall;
//! * the windowless TDBF detector (half-life = w/2) answers at any
//!   instant;
//! * the HH baselines (HashPipe \[5\], UnivMon \[4\]) are scored on the
//!   level-0 (host) subset of the oracle, since they do not aggregate
//!   prefixes.
//!
//! Performance is wall-clock per packet on the same stream;
//! resources are detector state bytes plus, for the two match-action
//! programs, the pipeline model's stage/SRAM/hash accounting.

use crate::Scale;
use hhh_analysis::{fmt_f, SetAccuracy, Table};
use hhh_core::{
    ContinuousDetector, ExactHhh, HashPipe, HhhDetector, Rhhh, SpaceSavingHhh, TdbfHhh,
    TdbfHhhConfig, Threshold, UnivMonLite,
};
use hhh_dataplane::programs::{DpHashPipe, DpTdbf};
use hhh_dataplane::ResourceReport;
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_sketches::DecayRate;
use hhh_trace::{scenarios, TraceGenerator};
use hhh_window::WindowReport;
use hhh_window::{Continuous, Disjoint, Pipeline, SlidingExact};
use std::collections::BTreeSet;
use std::time::Instant;

/// The measurement window.
pub const WINDOW: TimeSpan = TimeSpan::from_secs(10);
/// Probe period (the oracle's sliding step).
pub const PROBE_EVERY: TimeSpan = TimeSpan::from_secs(1);
/// The byte threshold.
pub const THRESHOLD_PCT: f64 = 5.0;

/// Accuracy of one detector against the oracle.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Detector name.
    pub name: &'static str,
    /// Micro-averaged accuracy over all probes.
    pub overall: SetAccuracy,
    /// Accuracy over only the probes aligned with disjoint window
    /// boundaries (where windowed detectors are freshest).
    pub aligned: SetAccuracy,
    /// Number of probes evaluated.
    pub probes: usize,
}

/// Update throughput of one detector.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Detector name.
    pub name: &'static str,
    /// Nanoseconds per packet (wall clock, single thread).
    pub ns_per_packet: f64,
    /// Millions of packets per second.
    pub mpps: f64,
}

/// State size of one detector (and pipeline resources when the
/// detector is a match-action program).
#[derive(Clone, Debug)]
pub struct ResourceRow {
    /// Detector name.
    pub name: &'static str,
    /// In-memory state bytes.
    pub state_bytes: usize,
    /// Match-action pipeline accounting, when applicable.
    pub pipeline: Option<ResourceReport>,
}

/// Full E3 results.
#[derive(Clone, Debug)]
pub struct CompareResults {
    /// HHH detectors vs the sliding-exact oracle.
    pub hhh_accuracy: Vec<AccuracyRow>,
    /// HH baselines vs the level-0 oracle subset.
    pub hh_accuracy: Vec<AccuracyRow>,
    /// Per-packet update cost.
    pub performance: Vec<PerfRow>,
    /// Memory / pipeline resources.
    pub resources: Vec<ResourceRow>,
    /// Packets in the evaluation trace.
    pub packets: usize,
    /// Scale used.
    pub scale: Scale,
}

pub(crate) fn trace(scale: Scale) -> Vec<PacketRecord> {
    let mut model = scenarios::day_trace(0, scale.compare_duration());
    model.total_pps = match scale {
        Scale::Smoke => 4_000.0,
        Scale::Quick => 15_000.0,
        Scale::Paper => 25_000.0,
    };
    TraceGenerator::new(model, scenarios::day_seed(0)).collect()
}

/// Score stale-capable reports: for each probe, pick the freshest
/// report with `end ≤ probe` and compare its prefix set to the oracle.
pub(crate) fn score_with_staleness(
    oracle: &[WindowReport<Ipv4Prefix>],
    probes: &[Nanos],
    reports: &[(Nanos, BTreeSet<Ipv4Prefix>)],
    window: TimeSpan,
    level0_only: bool,
) -> AccuracyRow {
    let mut overall = SetAccuracy::default();
    let mut aligned = SetAccuracy::default();
    let mut fresh: usize = 0;
    for (o, probe) in oracle.iter().zip(probes) {
        let truth: BTreeSet<Ipv4Prefix> = if level0_only {
            o.hhhs.iter().filter(|h| h.level == 0).map(|h| h.prefix).collect()
        } else {
            o.prefix_set()
        };
        while fresh + 1 < reports.len() && reports[fresh + 1].0 <= *probe {
            fresh += 1;
        }
        let predicted: BTreeSet<Ipv4Prefix> = if !reports.is_empty() && reports[fresh].0 <= *probe {
            reports[fresh].1.clone()
        } else {
            BTreeSet::new()
        };
        let acc = SetAccuracy::compare(&truth, &predicted);
        overall.merge(acc);
        let is_aligned = (*probe - Nanos::ZERO) % window == TimeSpan::ZERO;
        if is_aligned {
            aligned.merge(acc);
        }
    }
    AccuracyRow { name: "", overall, aligned, probes: probes.len() }
}

/// Run E3.
pub fn run(scale: Scale) -> CompareResults {
    let pkts = trace(scale);
    let horizon = scale.compare_duration();
    let hierarchy = Ipv4Hierarchy::bytes();
    let threshold = Threshold::percent(THRESHOLD_PCT);

    // ---- Oracle: exact trailing-window HHH at every probe. ----
    let oracle_all = Pipeline::new(pkts.iter().copied())
        .engine(SlidingExact::new(&hierarchy, horizon, WINDOW, PROBE_EVERY, &[threshold], |p| {
            p.src
        }))
        .collect()
        .run();
    let oracle = &oracle_all[0];
    // Probe instants = window ends.
    let probes: Vec<Nanos> = oracle.iter().map(|r| r.end).collect();

    // ---- Windowed HHH detectors over disjoint windows. ----
    let mut hhh_accuracy = Vec::new();
    {
        let mut exact = ExactHhh::new(hierarchy);
        let mut ss = SpaceSavingHhh::new(hierarchy, 256);
        let mut rhhh = Rhhh::new(hierarchy, 256, 0xE3);
        type Run = (&'static str, Vec<(Nanos, BTreeSet<Ipv4Prefix>)>);
        let runs: Vec<Run> = vec![
            (
                "exact (disjoint)",
                Pipeline::new(pkts.iter().copied())
                    .engine(Disjoint::new(&mut exact, horizon, WINDOW, &[threshold], |p| p.src))
                    .collect()
                    .run()
                    .remove(0)
                    .iter()
                    .map(|r| (r.end, r.prefix_set()))
                    .collect(),
            ),
            (
                "ss-hhh (disjoint)",
                Pipeline::new(pkts.iter().copied())
                    .engine(Disjoint::new(&mut ss, horizon, WINDOW, &[threshold], |p| p.src))
                    .collect()
                    .run()
                    .remove(0)
                    .iter()
                    .map(|r| (r.end, r.prefix_set()))
                    .collect(),
            ),
            (
                "rhhh (disjoint)",
                Pipeline::new(pkts.iter().copied())
                    .engine(Disjoint::new(&mut rhhh, horizon, WINDOW, &[threshold], |p| p.src))
                    .collect()
                    .run()
                    .remove(0)
                    .iter()
                    .map(|r| (r.end, r.prefix_set()))
                    .collect(),
            ),
        ];
        for (name, reports) in runs {
            let mut row = score_with_staleness(oracle, &probes, &reports, WINDOW, false);
            row.name = name;
            hhh_accuracy.push(row);
        }
    }

    // ---- The windowless TDBF detector, probed directly. ----
    {
        let mut tdbf = TdbfHhh::new(
            hierarchy,
            TdbfHhhConfig {
                half_life: WINDOW / 2,
                admit_fraction: THRESHOLD_PCT / 100.0 / 10.0,
                ..TdbfHhhConfig::default()
            },
        );
        let reports = Pipeline::new(pkts.iter().copied())
            .engine(Continuous::new(&mut tdbf, &probes, threshold, |p| p.src))
            .collect()
            .run()
            .remove(0);
        let sets: Vec<(Nanos, BTreeSet<Ipv4Prefix>)> =
            reports.iter().map(|r| (r.start, r.prefix_set())).collect();
        let mut row = score_with_staleness(oracle, &probes, &sets, WINDOW, false);
        row.name = "tdbf-hhh (windowless)";
        hhh_accuracy.push(row);
    }

    // ---- HH baselines on the level-0 oracle. ----
    let mut hh_accuracy = Vec::new();
    {
        // HashPipe and UnivMon run disjoint windows by hand (they are
        // plain HH structures, not HhhDetector implementors).
        let n_windows = horizon / WINDOW;
        let mut hashpipe = HashPipe::<u32>::new(4, 1024, 0xE3);
        let mut univmon = UnivMonLite::<u32>::new(12, 512, 5, 64, 0xE3);
        let mut hp_reports: Vec<(Nanos, BTreeSet<Ipv4Prefix>)> = Vec::new();
        let mut um_reports: Vec<(Nanos, BTreeSet<Ipv4Prefix>)> = Vec::new();
        let mut cur = 0u64;
        let mut window_bytes = 0u64;
        let flush = |cur: u64,
                     window_bytes: u64,
                     hashpipe: &mut HashPipe<u32>,
                     univmon: &mut UnivMonLite<u32>,
                     hp_reports: &mut Vec<(Nanos, BTreeSet<Ipv4Prefix>)>,
                     um_reports: &mut Vec<(Nanos, BTreeSet<Ipv4Prefix>)>| {
            let end = Nanos::ZERO + WINDOW * (cur + 1);
            let t_abs = threshold.absolute(window_bytes);
            hp_reports.push((
                end,
                hashpipe
                    .heavy_hitters(t_abs)
                    .into_iter()
                    .map(|(k, _)| Ipv4Prefix::host(k))
                    .collect(),
            ));
            um_reports.push((
                end,
                univmon
                    .heavy_hitters(t_abs)
                    .into_iter()
                    .map(|(k, _)| Ipv4Prefix::host(k))
                    .collect(),
            ));
            hashpipe.reset();
            univmon.reset();
        };
        for p in &pkts {
            let w = p.ts.bin_index(WINDOW);
            if w >= n_windows {
                break;
            }
            while cur < w {
                flush(
                    cur,
                    window_bytes,
                    &mut hashpipe,
                    &mut univmon,
                    &mut hp_reports,
                    &mut um_reports,
                );
                window_bytes = 0;
                cur += 1;
            }
            hashpipe.observe(p.src, p.wire_len as u64);
            univmon.observe(p.src, p.wire_len as u64);
            window_bytes += p.wire_len as u64;
        }
        while cur < n_windows {
            flush(cur, window_bytes, &mut hashpipe, &mut univmon, &mut hp_reports, &mut um_reports);
            window_bytes = 0;
            cur += 1;
        }
        let mut row = score_with_staleness(oracle, &probes, &hp_reports, WINDOW, true);
        row.name = "hashpipe (disjoint, HH)";
        hh_accuracy.push(row);
        let mut row = score_with_staleness(oracle, &probes, &um_reports, WINDOW, true);
        row.name = "univmon (disjoint, HH)";
        hh_accuracy.push(row);
    }

    // ---- Performance: per-packet update cost on the same stream. ----
    let mut performance = Vec::new();
    let mut resources = Vec::new();
    {
        let time_it = |name: &'static str, mut f: Box<dyn FnMut(&PacketRecord)>| -> PerfRow {
            let start = Instant::now();
            for p in &pkts {
                f(p);
            }
            let ns = start.elapsed().as_nanos() as f64 / pkts.len() as f64;
            PerfRow { name, ns_per_packet: ns, mpps: 1e3 / ns }
        };

        let mut exact = ExactHhh::new(hierarchy);
        performance.push(time_it(
            "exact",
            Box::new(move |p| {
                HhhDetector::<Ipv4Hierarchy>::observe(&mut exact, p.src, p.wire_len as u64)
            }),
        ));
        let mut ss = SpaceSavingHhh::new(hierarchy, 256);
        performance
            .push(time_it("ss-hhh", Box::new(move |p| ss.observe(p.src, p.wire_len as u64))));
        let mut rhhh = Rhhh::new(hierarchy, 256, 1);
        performance
            .push(time_it("rhhh", Box::new(move |p| rhhh.observe(p.src, p.wire_len as u64))));
        let mut tdbf = TdbfHhh::new(
            hierarchy,
            TdbfHhhConfig { half_life: WINDOW / 2, ..TdbfHhhConfig::default() },
        );
        performance.push(time_it(
            "tdbf-hhh",
            Box::new(move |p| tdbf.observe(p.ts, p.src, p.wire_len as u64)),
        ));
        let mut hp = HashPipe::<u32>::new(4, 1024, 1);
        performance
            .push(time_it("hashpipe", Box::new(move |p| hp.observe(p.src, p.wire_len as u64))));
        let mut um = UnivMonLite::<u32>::new(12, 512, 5, 64, 1);
        performance
            .push(time_it("univmon", Box::new(move |p| um.observe(p.src, p.wire_len as u64))));
        let mut dhp = DpHashPipe::new(4, 1024, 1);
        performance.push(time_it(
            "dp-hashpipe (model)",
            Box::new(move |p| {
                dhp.observe(p.src, p.wire_len as u64).expect("discipline holds");
            }),
        ));
        let rate = DecayRate::from_half_life(WINDOW / 2);
        let mut dtdbf = DpTdbf::new(4096, 4, rate, TimeSpan::from_millis(1), 1);
        performance.push(time_it(
            "dp-tdbf (model)",
            Box::new(move |p| {
                dtdbf.insert(p.src, p.wire_len as u64, p.ts).expect("discipline holds");
            }),
        ));

        // ---- Resources ----
        let exact = {
            // Re-observe to measure populated state (worst case: one
            // full window of traffic).
            let mut d = ExactHhh::new(hierarchy);
            for p in pkts.iter().take_while(|p| p.ts < Nanos::ZERO + WINDOW) {
                HhhDetector::<Ipv4Hierarchy>::observe(&mut d, p.src, p.wire_len as u64);
            }
            d
        };
        resources.push(ResourceRow {
            name: "exact (one window)",
            state_bytes: HhhDetector::<Ipv4Hierarchy>::state_bytes(&exact),
            pipeline: None,
        });
        let ss = SpaceSavingHhh::new(hierarchy, 256);
        resources.push(ResourceRow {
            name: "ss-hhh",
            state_bytes: ss.state_bytes(),
            pipeline: None,
        });
        let rhhh = Rhhh::new(hierarchy, 256, 1);
        resources.push(ResourceRow {
            name: "rhhh",
            state_bytes: rhhh.state_bytes(),
            pipeline: None,
        });
        let tdbf = TdbfHhh::new(
            hierarchy,
            TdbfHhhConfig { half_life: WINDOW / 2, ..TdbfHhhConfig::default() },
        );
        resources.push(ResourceRow {
            name: "tdbf-hhh",
            state_bytes: ContinuousDetector::<Ipv4Hierarchy>::state_bytes(&tdbf),
            pipeline: None,
        });
        let hp = HashPipe::<u32>::new(4, 1024, 1);
        resources.push(ResourceRow {
            name: "hashpipe",
            state_bytes: hp.state_bytes(),
            pipeline: None,
        });
        let um = UnivMonLite::<u32>::new(12, 512, 5, 64, 1);
        resources.push(ResourceRow {
            name: "univmon",
            state_bytes: um.state_bytes(),
            pipeline: None,
        });

        let mut dhp = DpHashPipe::new(4, 1024, 1);
        for p in pkts.iter().take(10_000) {
            dhp.observe(p.src, p.wire_len as u64).expect("discipline holds");
        }
        resources.push(ResourceRow {
            name: "dp-hashpipe",
            state_bytes: 0,
            pipeline: Some(dhp.resources()),
        });
        let mut dtdbf = DpTdbf::new(4096, 4, rate, TimeSpan::from_millis(1), 1);
        for p in pkts.iter().take(10_000) {
            dtdbf.insert(p.src, p.wire_len as u64, p.ts).expect("discipline holds");
        }
        resources.push(ResourceRow {
            name: "dp-tdbf",
            state_bytes: 0,
            pipeline: Some(dtdbf.resources()),
        });
    }

    CompareResults { hhh_accuracy, hh_accuracy, performance, resources, packets: pkts.len(), scale }
}

impl CompareResults {
    /// Render the accuracy table.
    pub fn accuracy_table(&self) -> String {
        let mut t =
            Table::new(vec!["detector", "precision", "recall", "F1", "recall@aligned", "probes"]);
        for r in self.hhh_accuracy.iter().chain(&self.hh_accuracy) {
            t.row(vec![
                r.name.to_string(),
                fmt_f(r.overall.precision(), 3),
                fmt_f(r.overall.recall(), 3),
                fmt_f(r.overall.f1(), 3),
                fmt_f(r.aligned.recall(), 3),
                r.probes.to_string(),
            ]);
        }
        t.render()
    }

    /// Render the performance table.
    pub fn performance_table(&self) -> String {
        let mut t = Table::new(vec!["detector", "ns/packet", "Mpps"]);
        for r in &self.performance {
            t.row(vec![r.name.to_string(), fmt_f(r.ns_per_packet, 0), fmt_f(r.mpps, 2)]);
        }
        t.render()
    }

    /// Render the resources table.
    pub fn resources_table(&self) -> String {
        let mut t = Table::new(vec![
            "detector",
            "state KiB",
            "stages",
            "SRAM KiB",
            "hashes/pkt",
            "max reg/pkt",
        ]);
        for r in &self.resources {
            match &r.pipeline {
                None => {
                    t.row(vec![
                        r.name.to_string(),
                        fmt_f(r.state_bytes as f64 / 1024.0, 1),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
                Some(p) => {
                    t.row(vec![
                        r.name.to_string(),
                        "-".into(),
                        p.stages.to_string(),
                        fmt_f(p.sram_kib(), 1),
                        p.hash_units_per_packet.to_string(),
                        p.max_register_accesses.to_string(),
                    ]);
                }
            }
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_comparison_shapes() {
        let res = run(Scale::Smoke);
        assert_eq!(res.hhh_accuracy.len(), 4);
        assert_eq!(res.hh_accuracy.len(), 2);
        assert_eq!(res.performance.len(), 8);
        assert_eq!(res.resources.len(), 8);
        assert!(res.packets > 50_000);

        let by_name = |n: &str| {
            res.hhh_accuracy
                .iter()
                .find(|r| r.name.starts_with(n))
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        // Exact disjoint is perfect at aligned probes (it IS the
        // oracle there)…
        let exact = by_name("exact");
        assert!(exact.aligned.recall() > 0.999, "exact@aligned recall {}", exact.aligned.recall());
        assert!(exact.aligned.precision() > 0.999);
        // …and staleness between boundaries can only hurt, never help.
        // (At smoke scale the HHH set can be stable enough that the
        // stale answer still matches; the quick and paper scales show
        // the actual recall gap.)
        assert!(
            exact.overall.recall() <= exact.aligned.recall() + 1e-9,
            "staleness helped recall?! {} > {}",
            exact.overall.recall(),
            exact.aligned.recall()
        );
        // The windowless detector must beat the *approximate* windowed
        // detectors on overall recall (its entire reason to exist).
        let tdbf = by_name("tdbf-hhh");
        let ss = by_name("ss-hhh");
        assert!(
            tdbf.overall.recall() >= ss.overall.recall() - 0.05,
            "tdbf recall {} vs ss {}",
            tdbf.overall.recall(),
            ss.overall.recall()
        );

        // Tables render without panicking.
        assert!(res.accuracy_table().contains("tdbf"));
        assert!(res.performance_table().contains("ns/packet"));
        assert!(res.resources_table().contains("SRAM"));

        // RHHH must be the fastest HHH detector (constant-time update
        // is its claim) — compare against the full-ancestry detector.
        let perf = |n: &str| {
            res.performance
                .iter()
                .find(|r| r.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
                .ns_per_packet
        };
        assert!(
            perf("rhhh") < perf("ss-hhh"),
            "rhhh ({}) should be faster than full-ancestry ss-hhh ({})",
            perf("rhhh"),
            perf("ss-hhh")
        );
    }
}
