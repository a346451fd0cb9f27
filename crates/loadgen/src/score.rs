//! Scoring: turn the daemon's `/hhh` report stream and `/metrics`
//! text into per-kind precision / recall / time-to-detect numbers
//! against a reference window schedule.
//!
//! Everything here is pure — no sockets, no clocks — so the golden
//! tests can pin exact numbers.

use hhh_analysis::SetAccuracy;
use hhh_mitigate::parse_policy_windows;
use hhh_nettypes::{Ipv4Prefix, Nanos};
use std::collections::BTreeSet;

/// One report window as parsed off the daemon's ndjson stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportWindow {
    /// Window start (trace time).
    pub start: Nanos,
    /// Window end (trace time).
    pub end: Nanos,
    /// Total weight folded into the window.
    pub total: u64,
    /// The reported HHH prefixes.
    pub prefixes: BTreeSet<Ipv4Prefix>,
}

/// Parse the daemon's `/hhh` body (one JSON object per line) into
/// report windows sorted by start, ignoring non-`report` lines: the
/// projection of [`parse_policy_windows`]'s full reports onto what the
/// scorer compares.
pub fn parse_report_windows(body: &str) -> Result<Vec<ReportWindow>, String> {
    let windows = parse_policy_windows(body)?;
    Ok(windows
        .into_iter()
        .map(|w| ReportWindow {
            start: w.start,
            end: w.end,
            total: w.total,
            prefixes: w.hhhs.iter().map(|h| h.prefix).collect(),
        })
        .collect())
}

/// Score observed windows against a reference schedule, matching by
/// `(start, end)`. A reference window with no observed counterpart
/// counts every truth prefix as a miss — a detector that drops windows
/// must not score as if it had answered.
pub fn score_windows(reference: &[ReportWindow], observed: &[ReportWindow]) -> SetAccuracy {
    let mut acc = SetAccuracy::default();
    for r in reference {
        match observed.iter().find(|o| o.start == r.start && o.end == r.end) {
            Some(o) => acc.merge(SetAccuracy::compare(&r.prefixes, &o.prefixes)),
            None => acc.fn_ += r.prefixes.len(),
        }
    }
    acc
}

/// First wall-clock offset (seconds) at which a poll's reported set
/// covered at least `min_recall` of `target`. `None` when never, or
/// when `target` is empty (nothing to detect — report it as such
/// rather than claiming an instant detection).
pub fn detect_time(
    polls: &[(f64, BTreeSet<Ipv4Prefix>)],
    target: &BTreeSet<Ipv4Prefix>,
    min_recall: f64,
) -> Option<f64> {
    if target.is_empty() {
        return None;
    }
    let need = (target.len() as f64 * min_recall).ceil() as usize;
    polls.iter().find(|(_, set)| target.intersection(set).count() >= need).map(|(t, _)| *t)
}

/// Pull one sample value out of a Prometheus text body: the last token
/// of the first line that is exactly `name` followed by a space (label
/// variants don't match — families here are unlabelled counters).
pub fn metric_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ')))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Pull one per-stream sample out of a Prometheus text body: the
/// value of `name{stream="<id>",…}` — the daemon's per-stream families
/// put the stream id first in the label set.
pub fn stream_metric_value(body: &str, name: &str, stream: u64) -> Option<f64> {
    let tag = format!("{{stream=\"{stream}\",");
    body.lines()
        .find(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with(&tag)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The per-(scenario, kind) mitigation closed-loop score: what the
/// rule table did to the traffic, split attack/legit by the planted
/// ground truth, plus how fast the first planted-covering rule fired.
#[derive(Clone, Debug)]
pub struct MitigateKindScore {
    /// Detector kind label (`exact`, `ss-hhh`, …).
    pub kind: &'static str,
    /// Shard count the kind was driven with.
    pub shards: usize,
    /// Windows driven through the loop.
    pub windows: usize,
    /// Attack bytes offered to the gate (whole run).
    pub attack_offered_bytes: u64,
    /// Attack bytes the gate dropped (whole run).
    pub attack_dropped_bytes: u64,
    /// Legit bytes offered to the gate (whole run).
    pub legit_offered_bytes: u64,
    /// Legit bytes the gate dropped — the collateral damage.
    pub legit_dropped_bytes: u64,
    /// Attack bytes offered in windows *after* the first
    /// planted-covering rule fired.
    pub post_rule_attack_offered: u64,
    /// Attack bytes dropped in those windows.
    pub post_rule_attack_dropped: u64,
    /// Trace seconds from the earliest planted onset to the first
    /// planted-covering rule fire (`None`: nothing planted, or no rule
    /// ever covered a planted prefix).
    pub time_to_mitigate: Option<f64>,
    /// Did a rule ever cover a planted prefix?
    pub mitigated: bool,
    /// Action label of that first planted-covering rule.
    pub first_rule_action: Option<&'static str>,
    /// Rules the local engine fired (fresh installs).
    pub rules_fired: u64,
    /// Rules that aged out.
    pub rules_expired: u64,
    /// Table churn: inserts + evictions + expirations.
    pub rule_churn: u64,
    /// Peak concurrently-installed rules.
    pub max_rules_active: u64,
    /// The daemon-side engine's `mitigate_rule_churn_total`, when the
    /// daemon ran with mitigation enabled.
    pub daemon_rule_churn: Option<f64>,
    /// Packets offered to the gate.
    pub packets: u64,
    /// Packets the gate dropped.
    pub packets_dropped: u64,
    /// Wall seconds for the whole windowed loop.
    pub drive_seconds: f64,
}

impl MitigateKindScore {
    /// Fraction of all attack bytes dropped (`None` when no attack).
    pub fn attack_drop_ratio(&self) -> Option<f64> {
        (self.attack_offered_bytes > 0)
            .then(|| self.attack_dropped_bytes as f64 / self.attack_offered_bytes as f64)
    }

    /// Fraction of post-rule attack bytes dropped — the mitigation
    /// quality once the loop has closed (`None` until a planted rule
    /// fires).
    pub fn post_rule_drop_ratio(&self) -> Option<f64> {
        (self.post_rule_attack_offered > 0)
            .then(|| self.post_rule_attack_dropped as f64 / self.post_rule_attack_offered as f64)
    }

    /// Fraction of legit bytes dropped — collateral damage.
    pub fn collateral_ratio(&self) -> f64 {
        if self.legit_offered_bytes == 0 {
            return 0.0;
        }
        self.legit_dropped_bytes as f64 / self.legit_offered_bytes as f64
    }
}

/// The per-(scenario, kind) closed-loop score.
#[derive(Clone, Debug)]
pub struct KindScore {
    /// Detector kind label (`exact`, `ss-hhh`, …).
    pub kind: &'static str,
    /// Shard count the kind was driven with.
    pub shards: usize,
    /// Window-by-window accuracy vs the exact oracle schedule.
    pub accuracy: SetAccuracy,
    /// Windows the daemon produced / the oracle schedule expected.
    pub windows_observed: usize,
    /// Reference window count.
    pub windows_expected: usize,
    /// Seconds from drive start until the planted prefixes were live
    /// in `/hhh` (None: nothing planted, or never detected).
    pub time_to_detect: Option<f64>,
    /// Whether every planted prefix was eventually reported.
    pub detected: bool,
    /// Packets pushed through this kind's pipelines.
    pub packets: u64,
    /// Wall seconds of the slowest shard drive.
    pub drive_seconds: f64,
    /// Sustained feed rate: `packets / drive_seconds`.
    pub pkts_per_sec: f64,
    /// Total feeder stall time across shards (back-pressure seconds).
    pub stall_seconds: f64,
}
