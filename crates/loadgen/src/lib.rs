//! # hhh-loadgen
//!
//! The closed-loop scenario suite: synthesize attack-over-baseline
//! traffic with **planted, machine-readable ground truth**
//! ([`scenario`]), drive it through real shard pipelines and the
//! socket transport into a live `hhh-aggd` ([`drive`]), and score what
//! the daemon served — per detector kind — against the truth
//! ([`score`]).
//!
//! Three questions per (scenario, kind):
//!
//! 1. **Was it right?** Window-by-window precision/recall/F1 of the
//!    daemon's `/hhh` answers against the unsharded exact oracle.
//! 2. **Was it fast?** Seconds from drive start until the planted
//!    attack prefixes were live in `/hhh` (time-to-detect), and the
//!    sustained pkts/s the shard feeders pushed before back-pressure
//!    (feeder stall seconds are reported alongside).
//! 3. **Did the front door hold?** `/metrics` is scraped continuously
//!    for the whole run; a single dropped scrape fails the sweep, and
//!    the run errors if `aggd_http_accept_errors_total` is missing —
//!    the hardened accept loop must be observable, not assumed.
//!
//! `hhh-loadgen` (the binary) sweeps the suite and emits the records
//! as a table, JSON lines (the `BENCH_pr9.json` schema), and CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod mitigate_drive;
pub mod scenario;
pub mod score;

pub use drive::{run_scenario, DriveOptions, ScenarioRun, ScrapeStats};
pub use mitigate_drive::{run_mitigate_scenario, MitigateRun};
pub use scenario::{GroundTruth, Planted, Scenario, SUITE_SEED};
pub use score::{
    detect_time, metric_value, parse_report_windows, score_windows, stream_metric_value, KindScore,
    MitigateKindScore, ReportWindow,
};

use hhh_mitigate::PolicyConfig;
use hhh_nettypes::TimeSpan;
use std::fmt::Write as _;

/// The reproducibility stamp carried on **every** JSON and CSV record
/// a sweep emits: enough to re-run the exact sweep that produced a
/// number found in a committed artifact.
#[derive(Clone, Debug)]
pub struct RunStamp {
    /// The suite seed the scenarios were synthesized from.
    pub seed: u64,
    /// `git rev-parse --short HEAD` at run time (`HHH_GIT_REV`
    /// overrides; `unknown` when neither is available).
    pub git_rev: String,
    /// Comma-free echo of the sweep configuration
    /// (`scale=… shards=… kinds=…`), safe to embed in CSV.
    pub config: String,
}

impl RunStamp {
    fn new(seed: u64, scale: LoadScale, opts: &DriveOptions) -> RunStamp {
        let kinds: Vec<&str> = opts.kinds.iter().map(|k| k.label()).collect();
        RunStamp {
            seed,
            git_rev: git_rev(),
            config: format!(
                "scale={} shards={} kinds={}",
                scale.label(),
                opts.shards,
                kinds.join("+")
            ),
        }
    }

    /// The stamp as trailing JSON-object fields (leading comma
    /// included), appended to every record.
    fn json_fields(&self) -> String {
        format!(
            ", \"seed\": {}, \"git_rev\": \"{}\", \"config\": \"{}\"",
            self.seed, self.git_rev, self.config
        )
    }
}

/// The working tree's short git revision, for stamping artifacts. The
/// `HHH_GIT_REV` environment variable overrides (CI sets it so stamps
/// survive shallow or detached checkouts); otherwise `git rev-parse`,
/// falling back to `unknown` outside a repository.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("HHH_GIT_REV") {
        if !rev.trim().is_empty() {
            return rev.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Sweep size: how much trace each scenario synthesizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadScale {
    /// 20 s traces — CI-sized, seconds per scenario.
    Smoke,
    /// 60 s traces — local iteration.
    Quick,
    /// 240 s traces — the committed artifact.
    Paper,
}

impl LoadScale {
    /// Trace duration at this scale.
    pub fn duration(self) -> TimeSpan {
        match self {
            LoadScale::Smoke => TimeSpan::from_secs(20),
            LoadScale::Quick => TimeSpan::from_secs(60),
            LoadScale::Paper => TimeSpan::from_secs(240),
        }
    }

    /// The scale's report label.
    pub fn label(self) -> &'static str {
        match self {
            LoadScale::Smoke => "smoke",
            LoadScale::Quick => "quick",
            LoadScale::Paper => "paper",
        }
    }

    /// Parse a CLI scale word.
    pub fn parse(s: &str) -> Option<LoadScale> {
        match s {
            "smoke" => Some(LoadScale::Smoke),
            "quick" => Some(LoadScale::Quick),
            "paper" => Some(LoadScale::Paper),
            _ => None,
        }
    }
}

/// One scored scenario with everything the renderers need.
pub struct SweepRow {
    /// The scenario's name.
    pub scenario_name: &'static str,
    /// Planted prefixes rendered as `prefix@share%` strings.
    pub planted: Vec<String>,
    /// Legit/attack byte split.
    pub legit_bytes: u64,
    /// Bytes contributed by the attack streams.
    pub attack_bytes: u64,
    /// Merged trace packet count.
    pub total_packets: u64,
    /// The closed-loop result.
    pub run: ScenarioRun,
}

/// The sweep's collected output.
pub struct SweepResults {
    /// Scale the sweep ran at.
    pub scale: LoadScale,
    /// Report threshold (percent of total bytes).
    pub threshold_pct: f64,
    /// The reproducibility stamp on every emitted record.
    pub stamp: RunStamp,
    /// One row per scenario.
    pub rows: Vec<SweepRow>,
}

/// Run scenarios through the closed loop in order, stopping at the
/// first plumbing error. `names` of `None` sweeps the whole suite.
pub fn sweep(
    scale: LoadScale,
    seed: u64,
    names: Option<&[String]>,
    opts: &DriveOptions,
    mut progress: impl FnMut(&str),
) -> Result<SweepResults, String> {
    let duration = scale.duration();
    let scenarios: Vec<Scenario> = match names {
        None => scenario::all(duration, seed),
        Some(names) => names
            .iter()
            .map(|n| {
                scenario::by_name(n, duration, seed)
                    .ok_or_else(|| format!("unknown scenario `{n}` (see --list)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let mut rows = Vec::new();
    let mut threshold_pct = 1.0;
    for s in &scenarios {
        progress(&format!(
            "{}: {} packets, {} planted prefixes",
            s.name,
            s.packets.len(),
            s.truth.planted.len()
        ));
        threshold_pct = s.threshold_pct;
        let run = run_scenario(s, opts).map_err(|e| format!("{}: {e}", s.name))?;
        rows.push(SweepRow {
            scenario_name: s.name,
            planted: s
                .truth
                .planted
                .iter()
                .map(|p| format!("{}@{:.2}%", p.prefix, p.share * 100.0))
                .collect(),
            legit_bytes: s.truth.legit_bytes,
            attack_bytes: s.truth.attack_bytes,
            total_packets: s.truth.total_packets,
            run,
        });
    }
    Ok(SweepResults { scale, threshold_pct, stamp: RunStamp::new(seed, scale, opts), rows })
}

fn fmt_detect(t: Option<f64>) -> String {
    match t {
        Some(s) => format!("{s:.2}s"),
        None => "-".into(),
    }
}

impl SweepResults {
    /// Human-readable summary table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<13} {:<9} {:>7} {:>7} {:>7} {:>8} {:>9} {:>12} {:>7}",
            "scenario", "kind", "prec", "recall", "f1", "detect", "windows", "pkts/s", "stall"
        );
        for row in &self.rows {
            for ks in &row.run.kinds {
                let _ = writeln!(
                    out,
                    "{:<13} {:<9} {:>7.4} {:>7.4} {:>7.4} {:>8} {:>4}/{:<4} {:>12.0} {:>6.2}s",
                    row.scenario_name,
                    ks.kind,
                    ks.accuracy.precision(),
                    ks.accuracy.recall(),
                    ks.accuracy.f1(),
                    fmt_detect(ks.time_to_detect),
                    ks.windows_observed,
                    ks.windows_expected,
                    ks.pkts_per_sec,
                    ks.stall_seconds,
                );
            }
            let planted =
                if row.planted.is_empty() { "none".to_string() } else { row.planted.join(" ") };
            let _ = writeln!(
                out,
                "  planted: {planted}  (legit {} B / attack {} B, {} scrapes, 0 dropped)",
                row.legit_bytes, row.attack_bytes, row.run.scrapes.scrapes
            );
        }
        out
    }

    /// The `BENCH_pr9.json` records: one `loadgen` line per
    /// (scenario, kind), one `loadgen_scrapes` line per scenario for
    /// the HTTP-plane health, one `loadgen_truth` line per scenario
    /// for the planted ground truth.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            for ks in &row.run.kinds {
                let detect = match ks.time_to_detect {
                    Some(t) => format!("{t:.3}"),
                    None => "null".into(),
                };
                let _ = writeln!(
                    out,
                    "{{\"experiment\": \"loadgen\", \"scale\": \"{}\", \"scenario\": \"{}\", \
                     \"detector\": \"{}\", \"shards\": {}, \"packets\": {}, \
                     \"windows\": {}, \"windows_expected\": {}, \
                     \"precision\": {:.6}, \"recall\": {:.6}, \"f1\": {:.6}, \
                     \"time_to_detect_s\": {}, \"detected\": {}, \
                     \"sustained_pkts_per_sec\": {:.1}, \"drive_seconds\": {:.6}, \
                     \"stall_seconds\": {:.6}, \"threshold_pct\": {}{}}}",
                    self.scale.label(),
                    row.scenario_name,
                    ks.kind,
                    ks.shards,
                    ks.packets,
                    ks.windows_observed,
                    ks.windows_expected,
                    ks.accuracy.precision(),
                    ks.accuracy.recall(),
                    ks.accuracy.f1(),
                    detect,
                    ks.detected,
                    ks.pkts_per_sec,
                    ks.drive_seconds,
                    ks.stall_seconds,
                    self.threshold_pct,
                    self.stamp.json_fields(),
                );
            }
            let s = &row.run.scrapes;
            let _ = writeln!(
                out,
                "{{\"experiment\": \"loadgen_scrapes\", \"scale\": \"{}\", \"scenario\": \"{}\", \
                 \"metrics_scrapes\": {}, \"metrics_scrape_failures\": {}, \
                 \"accept_errors_total\": {}, \"http_busy_total\": {}, \
                 \"frames_total\": {}, \"wall_seconds\": {:.3}{}}}",
                self.scale.label(),
                row.scenario_name,
                s.scrapes,
                s.failures,
                s.accept_errors_total,
                s.busy_total,
                s.frames_total,
                s.wall_seconds,
                self.stamp.json_fields(),
            );
            let planted: Vec<String> = row.planted.iter().map(|p| format!("\"{p}\"")).collect();
            let _ = writeln!(
                out,
                "{{\"experiment\": \"loadgen_truth\", \"scale\": \"{}\", \"scenario\": \"{}\", \
                 \"planted\": [{}], \"legit_bytes\": {}, \"attack_bytes\": {}, \
                 \"total_packets\": {}{}}}",
                self.scale.label(),
                row.scenario_name,
                planted.join(", "),
                row.legit_bytes,
                row.attack_bytes,
                row.total_packets,
                self.stamp.json_fields(),
            );
        }
        out
    }

    /// CSV of the per-(scenario, kind) rows.
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "scenario,detector,shards,packets,windows,windows_expected,precision,recall,f1,\
             time_to_detect_s,detected,sustained_pkts_per_sec,drive_seconds,stall_seconds,\
             seed,git_rev,config\n",
        );
        for row in &self.rows {
            for ks in &row.run.kinds {
                let detect = match ks.time_to_detect {
                    Some(t) => format!("{t:.3}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{:.6},{:.6},{:.6},{},{},{:.1},{:.6},{:.6},{},{},{}",
                    row.scenario_name,
                    ks.kind,
                    ks.shards,
                    ks.packets,
                    ks.windows_observed,
                    ks.windows_expected,
                    ks.accuracy.precision(),
                    ks.accuracy.recall(),
                    ks.accuracy.f1(),
                    detect,
                    ks.detected,
                    ks.pkts_per_sec,
                    ks.drive_seconds,
                    ks.stall_seconds,
                    self.stamp.seed,
                    self.stamp.git_rev,
                    self.stamp.config,
                );
            }
        }
        out
    }
}

/// One mitigated scenario with everything the renderers need.
pub struct MitigateRow {
    /// The scenario's name.
    pub scenario_name: &'static str,
    /// Planted prefixes rendered as `prefix@share%` strings.
    pub planted: Vec<String>,
    /// Earliest planted onset, trace seconds (`None`: nothing planted).
    pub onset_s: Option<f64>,
    /// Legit/attack byte split of the offered trace.
    pub legit_bytes: u64,
    /// Bytes contributed by the attack streams.
    pub attack_bytes: u64,
    /// The closed-loop mitigation result.
    pub run: MitigateRun,
}

/// The mitigation sweep's collected output.
pub struct MitigateResults {
    /// Scale the sweep ran at.
    pub scale: LoadScale,
    /// Report threshold (percent of total bytes).
    pub threshold_pct: f64,
    /// The reproducibility stamp on every emitted record.
    pub stamp: RunStamp,
    /// One row per scenario.
    pub rows: Vec<MitigateRow>,
}

/// Run scenarios through the **mitigation** closed loop in order,
/// stopping at the first plumbing error. `names` of `None` sweeps the
/// whole suite.
pub fn mitigate_sweep(
    scale: LoadScale,
    seed: u64,
    names: Option<&[String]>,
    opts: &DriveOptions,
    policy: &PolicyConfig,
    mut progress: impl FnMut(&str),
) -> Result<MitigateResults, String> {
    let duration = scale.duration();
    let scenarios: Vec<Scenario> = match names {
        None => scenario::all(duration, seed),
        Some(names) => names
            .iter()
            .map(|n| {
                scenario::by_name(n, duration, seed)
                    .ok_or_else(|| format!("unknown scenario `{n}` (see --list)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let mut rows = Vec::new();
    let mut threshold_pct = 1.0;
    for s in &scenarios {
        progress(&format!(
            "{}: {} packets, {} planted prefixes, mitigating",
            s.name,
            s.packets.len(),
            s.truth.planted.len()
        ));
        threshold_pct = s.threshold_pct;
        let run = run_mitigate_scenario(s, opts, policy).map_err(|e| format!("{}: {e}", s.name))?;
        rows.push(MitigateRow {
            scenario_name: s.name,
            planted: s
                .truth
                .planted
                .iter()
                .map(|p| format!("{}@{:.2}%", p.prefix, p.share * 100.0))
                .collect(),
            onset_s: s.truth.planted.iter().map(|p| p.onset).min().map(|o| o.as_secs_f64()),
            legit_bytes: s.truth.legit_bytes,
            attack_bytes: s.truth.attack_bytes,
            run,
        });
    }
    Ok(MitigateResults { scale, threshold_pct, stamp: RunStamp::new(seed, scale, opts), rows })
}

fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{:.2}%", v * 100.0),
        None => "-".into(),
    }
}

fn json_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.6}"),
        None => "null".into(),
    }
}

impl MitigateResults {
    /// Human-readable summary table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<13} {:<9} {:<6} {:>8} {:>9} {:>9} {:>10} {:>6} {:>7}",
            "scenario",
            "kind",
            "action",
            "t_mit",
            "post-drop",
            "atk-drop",
            "collateral",
            "rules",
            "churn"
        );
        for row in &self.rows {
            for ks in &row.run.kinds {
                let _ = writeln!(
                    out,
                    "{:<13} {:<9} {:<6} {:>8} {:>9} {:>9} {:>9.4}% {:>6} {:>7}",
                    row.scenario_name,
                    ks.kind,
                    ks.first_rule_action.unwrap_or("-"),
                    fmt_detect(ks.time_to_mitigate),
                    fmt_ratio(ks.post_rule_drop_ratio()),
                    fmt_ratio(ks.attack_drop_ratio()),
                    ks.collateral_ratio() * 100.0,
                    ks.rules_fired,
                    ks.rule_churn,
                );
            }
            let planted =
                if row.planted.is_empty() { "none".to_string() } else { row.planted.join(" ") };
            let _ = writeln!(
                out,
                "  planted: {planted}  (legit {} B / attack {} B)",
                row.legit_bytes, row.attack_bytes
            );
        }
        out
    }

    /// The `BENCH_pr10.json` records: one `mitigate` line per
    /// (scenario, kind) and one `mitigate_truth` line per scenario.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            for ks in &row.run.kinds {
                let _ = writeln!(
                    out,
                    "{{\"experiment\": \"mitigate\", \"scale\": \"{}\", \"scenario\": \"{}\", \
                     \"detector\": \"{}\", \"shards\": {}, \"windows\": {}, \
                     \"attack_offered_bytes\": {}, \"attack_dropped_bytes\": {}, \
                     \"legit_offered_bytes\": {}, \"legit_dropped_bytes\": {}, \
                     \"attack_drop_ratio\": {}, \"post_rule_attack_drop_ratio\": {}, \
                     \"collateral_ratio\": {:.6}, \"time_to_mitigate_s\": {}, \
                     \"mitigated\": {}, \"first_rule_action\": {}, \
                     \"rules_fired\": {}, \"rules_expired\": {}, \"rule_churn\": {}, \
                     \"max_rules_active\": {}, \"packets\": {}, \"packets_dropped\": {}, \
                     \"drive_seconds\": {:.6}, \"threshold_pct\": {}{}}}",
                    self.scale.label(),
                    row.scenario_name,
                    ks.kind,
                    ks.shards,
                    ks.windows,
                    ks.attack_offered_bytes,
                    ks.attack_dropped_bytes,
                    ks.legit_offered_bytes,
                    ks.legit_dropped_bytes,
                    json_ratio(ks.attack_drop_ratio()),
                    json_ratio(ks.post_rule_drop_ratio()),
                    ks.collateral_ratio(),
                    json_ratio(ks.time_to_mitigate),
                    ks.mitigated,
                    match ks.first_rule_action {
                        Some(a) => format!("\"{a}\""),
                        None => "null".into(),
                    },
                    ks.rules_fired,
                    ks.rules_expired,
                    ks.rule_churn,
                    ks.max_rules_active,
                    ks.packets,
                    ks.packets_dropped,
                    ks.drive_seconds,
                    self.threshold_pct,
                    self.stamp.json_fields(),
                );
            }
            let planted: Vec<String> = row.planted.iter().map(|p| format!("\"{p}\"")).collect();
            let _ = writeln!(
                out,
                "{{\"experiment\": \"mitigate_truth\", \"scale\": \"{}\", \"scenario\": \"{}\", \
                 \"planted\": [{}], \"onset_s\": {}, \"legit_bytes\": {}, \
                 \"attack_bytes\": {}{}}}",
                self.scale.label(),
                row.scenario_name,
                planted.join(", "),
                json_ratio(row.onset_s),
                row.legit_bytes,
                row.attack_bytes,
                self.stamp.json_fields(),
            );
        }
        out
    }

    /// CSV of the per-(scenario, kind) rows.
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "scenario,detector,shards,windows,attack_offered_bytes,attack_dropped_bytes,\
             legit_offered_bytes,legit_dropped_bytes,attack_drop_ratio,\
             post_rule_attack_drop_ratio,collateral_ratio,time_to_mitigate_s,mitigated,\
             first_rule_action,rules_fired,rules_expired,rule_churn,max_rules_active,\
             packets,packets_dropped,drive_seconds,seed,git_rev,config\n",
        );
        for row in &self.rows {
            for ks in &row.run.kinds {
                let csv_opt = |r: Option<f64>| match r {
                    Some(v) => format!("{v:.6}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{:.6},{},{},{}",
                    row.scenario_name,
                    ks.kind,
                    ks.shards,
                    ks.windows,
                    ks.attack_offered_bytes,
                    ks.attack_dropped_bytes,
                    ks.legit_offered_bytes,
                    ks.legit_dropped_bytes,
                    csv_opt(ks.attack_drop_ratio()),
                    csv_opt(ks.post_rule_drop_ratio()),
                    ks.collateral_ratio(),
                    csv_opt(ks.time_to_mitigate),
                    ks.mitigated,
                    ks.first_rule_action.unwrap_or(""),
                    ks.rules_fired,
                    ks.rules_expired,
                    ks.rule_churn,
                    ks.max_rules_active,
                    ks.packets,
                    ks.packets_dropped,
                    ks.drive_seconds,
                    self.stamp.seed,
                    self.stamp.git_rev,
                    self.stamp.config,
                );
            }
        }
        out
    }
}
