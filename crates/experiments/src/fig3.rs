//! Experiment E2 — the paper's **Figure 3**: how micro-variations in
//! the window size change the reported HHH set.
//!
//! Method (paper §2, "Micro variations…"): 20-minute trace, baseline
//! disjoint window of 10 s, variant windows 10–100 ms *shorter* with
//! the same start points, HHH threshold 5 % of the traffic in each
//! window. For every (window index, delta) pair compute the Jaccard
//! similarity between the baseline window's HHH set and the shortened
//! window's; plot the ECDF of similarities per delta.
//!
//! Expected shape: ECDFs order by delta — bigger deltas, lower
//! similarity. The paper's headline: 100 ms- and 40 ms-shorter windows
//! differ by ≥25 % and ≥11 % respectively in at least 70 % of windows.

use crate::Scale;
use hhh_analysis::{csv, fmt_f, jaccard_reports, Ecdf, Table};
use hhh_core::Threshold;
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::TimeSpan;
use hhh_trace::{scenarios, TraceGenerator};
use hhh_window::{MicroVaried, Pipeline};

/// The baseline window (paper: 10 s).
pub const BASE_WINDOW: TimeSpan = TimeSpan::from_secs(10);
/// The deltas (paper: 10–100 ms, we sweep every 10 ms).
pub fn deltas() -> Vec<TimeSpan> {
    (1..=10).map(|k| TimeSpan::from_millis(k * 10)).collect()
}
/// The threshold (paper: 5 %).
pub const THRESHOLD_PCT: f64 = 5.0;

/// Figure 3's data: per delta, the per-window Jaccard similarities and
/// their ECDF.
#[derive(Clone, Debug)]
pub struct Fig3Results {
    /// `(delta, similarities per window index)`, in delta order.
    pub series: Vec<(TimeSpan, Vec<f64>)>,
    /// Number of baseline windows compared.
    pub windows: usize,
    /// Scale the experiment ran at.
    pub scale: Scale,
}

/// Run E2: single pass over one trace via the micro-varied driver.
pub fn run(scale: Scale) -> Fig3Results {
    let horizon = scale.microvar_duration();
    // Day-0 parameterization, dedicated seed (the paper uses a
    // separate 20-minute trace for this experiment).
    let model = scenarios::day_trace(0, horizon);
    let packets = TraceGenerator::new(model, 0xF193);
    // Bit-granularity: the canonical exact-HHH hierarchy for IP
    // addresses (33 levels). Micro-variation sensitivity is strongly
    // granularity-dependent — every heavy subtree has a "transition"
    // level whose discounted residual sits marginally at the threshold,
    // and those members are the ones ms-scale window changes flip.
    // (The 5-level byte hierarchy is much more robust.)
    let hierarchy = Ipv4Hierarchy::bits();
    let ds = deltas();
    // Series 0 is the baseline; series 1 + i is delta i.
    let out = Pipeline::new(packets)
        .engine(MicroVaried::new(
            &hierarchy,
            horizon,
            BASE_WINDOW,
            &ds,
            Threshold::percent(THRESHOLD_PCT),
            |p| p.src,
        ))
        .collect()
        .run();
    let baseline = &out[0];
    let windows = baseline.len();
    let series = ds
        .iter()
        .enumerate()
        .map(|(i, delta)| {
            let sims: Vec<f64> =
                baseline.iter().zip(&out[1 + i]).map(|(b, v)| jaccard_reports(b, v)).collect();
            (*delta, sims)
        })
        .collect();
    Fig3Results { series, windows, scale }
}

impl Fig3Results {
    /// The ECDF of (1 − Jaccard) "difference" values for a delta.
    pub fn difference_ecdf(&self, delta: TimeSpan) -> Ecdf {
        let (_, sims) = self
            .series
            .iter()
            .find(|(d, _)| *d == delta)
            .unwrap_or_else(|| panic!("no series for delta {delta}"));
        Ecdf::new(sims.iter().map(|s| 1.0 - s).collect())
    }

    /// Fraction of windows whose sets differ by at least `diff`
    /// (1 − Jaccard ≥ diff) for a delta — the paper's "differs by X%
    /// in at least Y% of the cases" statistic.
    pub fn fraction_differing_by(&self, delta: TimeSpan, diff: f64) -> f64 {
        let e = self.difference_ecdf(delta);
        1.0 - e.eval(diff - 1e-12)
    }

    /// The per-delta similarity quantile table (the figure, as text).
    pub fn table(&self) -> String {
        let mut t = Table::new(vec![
            "delta",
            "median J",
            "p30 J",
            "mean diff %",
            "windows ≥10% diff",
            "windows ≥25% diff",
        ]);
        for (delta, sims) in &self.series {
            let e = Ecdf::new(sims.clone());
            let diffs: Vec<f64> = sims.iter().map(|s| (1.0 - s) * 100.0).collect();
            t.row(vec![
                format!("{delta}"),
                fmt_f(e.quantile(0.5), 3),
                fmt_f(e.quantile(0.3), 3),
                fmt_f(hhh_analysis::mean(&diffs), 1),
                fmt_f(self.fraction_differing_by(*delta, 0.10) * 100.0, 1),
                fmt_f(self.fraction_differing_by(*delta, 0.25) * 100.0, 1),
            ]);
        }
        t.render()
    }

    /// CSV of the similarity ECDFs on a fixed grid (one column per
    /// delta), ready for plotting as Figure 3.
    pub fn to_csv(&self) -> String {
        let grid_steps = 50;
        let headers: Vec<String> = std::iter::once("similarity".to_string())
            .chain(self.series.iter().map(|(d, _)| format!("cdf_delta_{d}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let ecdfs: Vec<Ecdf> = self.series.iter().map(|(_, s)| Ecdf::new(s.clone())).collect();
        let rows: Vec<Vec<String>> = (0..=grid_steps)
            .map(|i| {
                let x = i as f64 / grid_steps as f64;
                std::iter::once(format!("{x:.3}"))
                    .chain(ecdfs.iter().map(|e| format!("{:.4}", e.eval(x))))
                    .collect()
            })
            .collect();
        csv::to_csv_string(&header_refs, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shapes() {
        let res = run(Scale::Smoke);
        assert_eq!(res.series.len(), 10, "ten deltas");
        assert!(res.windows >= 10, "need enough windows for an ECDF");
        for (_, sims) in &res.series {
            assert_eq!(sims.len(), res.windows);
            assert!(sims.iter().all(|s| (0.0..=1.0).contains(s)));
        }
        // Monotone trend: the mean similarity for the largest delta
        // must not exceed the mean for the smallest.
        let mean_small = hhh_analysis::mean(&res.series.first().unwrap().1);
        let mean_large = hhh_analysis::mean(&res.series.last().unwrap().1);
        assert!(
            mean_large <= mean_small + 1e-9,
            "100 ms delta ({mean_large}) should disturb at least as much as 10 ms ({mean_small})"
        );
        assert!(res.table().contains("delta"));
        let csv = res.to_csv();
        assert!(csv.starts_with("similarity,"));
        assert_eq!(csv.lines().count(), 52);
    }
}
