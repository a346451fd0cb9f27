//! The policy engine: window-by-window HHH reports in, rule-table
//! edits out.
//!
//! Two paths lead to a rule, both gated by consecutive-window
//! hysteresis so a single noisy report never fires anything:
//!
//! * **Surge path** — a prefix whose traffic share jumps well above
//!   its own frozen pre-surge baseline (or that was never seen before)
//!   and stays over the watch share for `hysteresis` consecutive
//!   windows. This is the DDoS-onset detector: it reacts in a couple
//!   of windows without ever firing on a *steadily* heavy legitimate
//!   network, because a steady network's baseline is its own share.
//!   A surge from a prefix *never seen at all* — traffic materializing
//!   out of nothing — is the strongest attack signature the engine
//!   has, and escalates its graded action one tier at fire time.
//!   Surge fires on *host-like* prefixes (longer than `aggregate_len`)
//!   are capped at `Watch`: single hosts routinely blink on and off,
//!   and a two-window blip must never null-route a customer address.
//! * **Dominance path** — a prefix holding an outright-dominant share
//!   (`dominance_share`) for the longer `dominance_hysteresis`,
//!   surge or not. This catches attacks already in progress when the
//!   engine starts, at the price of a deliberately high bar.
//!
//! Baselines are EWMA shares learned during `warmup_windows` (and ever
//! after, *except* while a surge streak is running — the baseline is
//! frozen at its pre-surge value so a sustained attack cannot launder
//! itself into the baseline and de-escalate).
//!
//! Once fired, a rule lives `ttl` and renews two ways: the detector
//! re-asserting the prefix over the watch share, or the data plane
//! still dropping bytes under the rule. The second matters because a
//! *blocked* prefix vanishes from upstream detectors — the rule must
//! not oscillate out and let the flood through to be re-detected.

use crate::rule::{Action, Rule};
use crate::table::RuleTable;
use hhh_nettypes::{Ipv4Prefix, Nanos, TimeSpan};
use hhh_window::WindowReport;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Everything tunable about the policy. `Default` is tuned for the
/// loadgen scenario suite (5 s windows, percent-scale thresholds) and
/// documented per knob.
#[derive(Clone, Debug)]
pub struct PolicyConfig {
    /// Consecutive over-watch windows before a *surging* prefix fires.
    pub hysteresis: u32,
    /// Consecutive over-dominance windows before a non-surging prefix
    /// fires (the always-on-attack path; deliberately slower).
    pub dominance_hysteresis: u32,
    /// Rule lifetime from fire/renewal.
    pub ttl: TimeSpan,
    /// EWMA smoothing factor for shares and byte estimates, in
    /// `(0, 1]`; higher tracks faster.
    pub ewma_alpha: f64,
    /// Hard cap on installed rules (deterministic eviction beyond it).
    pub max_rules: usize,
    /// Share of window bytes at which a prefix is *watchable* — the
    /// streak condition, and the floor action when a rule fires.
    pub watch_share: f64,
    /// Share at which a firing rule rate-limits instead of watching.
    pub limit_share: f64,
    /// Share at which a firing rule blocks outright.
    pub block_share: f64,
    /// Share that fires via the dominance path regardless of surge.
    pub dominance_share: f64,
    /// A share must exceed `surge_factor x` its frozen baseline to
    /// count as surging.
    pub surge_factor: f64,
    /// Windows spent learning baselines before any streak counts.
    pub warmup_windows: u32,
    /// The rate handed to `RateLimit` rules, bits per second.
    pub limit_bps: u64,
    /// Ignore report entries shorter than this prefix length (a /0 or
    /// /8 rule would be a self-inflicted outage).
    pub min_len: u8,
    /// Longest prefix the surge path will *drop* traffic for. A surge
    /// fire on a more-specific (host-like) prefix is capped at `Watch`:
    /// a single host briefly over the watch share is a new elephant
    /// flow until proven otherwise, and null-routing one address off a
    /// two-window blip is exactly the collateral damage this engine is
    /// scored on. The dominance path is exempt — an outright-dominant
    /// host is an attack whatever its length.
    pub aggregate_len: u8,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            hysteresis: 2,
            dominance_hysteresis: 3,
            ttl: TimeSpan::from_secs(15),
            ewma_alpha: 0.5,
            max_rules: 256,
            watch_share: 0.02,
            limit_share: 0.05,
            block_share: 0.10,
            dominance_share: 0.35,
            surge_factor: 3.0,
            warmup_windows: 2,
            limit_bps: 2_000_000,
            min_len: 12,
            aggregate_len: 24,
        }
    }
}

/// Per-prefix tracking state between windows.
#[derive(Clone, Debug, Default)]
struct Track {
    /// Consecutive windows at/over the watch share.
    streak: u32,
    /// Did the current streak begin as a surge over baseline?
    surged: bool,
    /// Did the current streak begin on a never-before-seen prefix?
    fresh: bool,
    /// EWMA share; frozen while a surge streak runs.
    ewma_share: f64,
    /// EWMA per-window bytes (feeds rule eviction weight).
    ewma_bytes: f64,
    /// Ordinal of the last window this prefix appeared in.
    last_seen: u64,
    /// Has this prefix ever been seen before?
    seen: bool,
}

/// A fired-rule event, kept for time-to-mitigate scoring.
#[derive(Clone, Copy, Debug)]
pub struct FiredRule {
    /// The prefix the rule covers.
    pub prefix: Ipv4Prefix,
    /// When it fired (end of the deciding window, trace time).
    pub at: Nanos,
    /// The action it fired with.
    pub action: Action,
}

/// Monotonic policy counters (distinct from the table's own churn
/// counters: these survive rule expiry).
#[derive(Clone, Copy, Debug, Default)]
pub struct PolicyStats {
    /// Windows ingested.
    pub windows: u64,
    /// Rules fired (fresh installs, not renewals).
    pub fired: u64,
    /// Renewals granted (detector re-assertion or data-plane hits).
    pub renewed: u64,
    /// Rules that aged out.
    pub expired: u64,
    /// Escalations (an installed rule's action got more severe).
    pub escalated: u64,
}

/// The engine. Owns the tracking state; *shares* the rule table
/// (behind `Arc<Mutex>`) so a data-plane gate on another thread can
/// consult it per packet while the engine edits it per window.
pub struct PolicyEngine {
    cfg: PolicyConfig,
    table: Arc<Mutex<RuleTable>>,
    tracks: BTreeMap<Ipv4Prefix, Track>,
    /// Last observed `dropped_bytes` per rule, to detect fresh hits.
    hit_marks: BTreeMap<Ipv4Prefix, u64>,
    stats: PolicyStats,
    fired_log: Vec<FiredRule>,
}

impl PolicyEngine {
    /// A fresh engine with its own empty table.
    pub fn new(cfg: PolicyConfig) -> Self {
        let cap = cfg.max_rules;
        PolicyEngine {
            cfg,
            table: Arc::new(Mutex::new(RuleTable::with_cap(cap))),
            tracks: BTreeMap::new(),
            hit_marks: BTreeMap::new(),
            stats: PolicyStats::default(),
            fired_log: Vec::new(),
        }
    }

    /// The shared rule table, for wiring a data-plane gate.
    pub fn table(&self) -> Arc<Mutex<RuleTable>> {
        Arc::clone(&self.table)
    }

    /// The config in force.
    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Every rule fired so far, in fire order.
    pub fn fired_log(&self) -> &[FiredRule] {
        &self.fired_log
    }

    /// Ingest one window's HHH report and update the rule table.
    /// Reports must arrive in window order; `report.end` is "now" for
    /// TTL purposes.
    pub fn ingest(&mut self, report: &WindowReport<Ipv4Prefix>) {
        let ordinal = self.stats.windows;
        self.stats.windows += 1;
        let now = report.end;
        let total = report.total;
        let in_warmup = ordinal < self.cfg.warmup_windows as u64;
        let alpha = self.cfg.ewma_alpha;

        let mut table = self.table.lock().expect("rule table lock poisoned");

        if total > 0 {
            for hhh in &report.hhhs {
                if hhh.prefix.len() < self.cfg.min_len {
                    continue;
                }
                let share = hhh.discounted as f64 / total as f64;
                let bytes = hhh.discounted as f64;
                let track = self.tracks.entry(hhh.prefix).or_default();
                let contiguous = track.seen && track.last_seen + 1 == ordinal;

                if in_warmup {
                    // Learn baselines only; no streaks, no rules.
                    track.ewma_share = if track.seen {
                        alpha * share + (1.0 - alpha) * track.ewma_share
                    } else {
                        share
                    };
                    track.ewma_bytes = if track.seen {
                        alpha * bytes + (1.0 - alpha) * track.ewma_bytes
                    } else {
                        bytes
                    };
                    track.streak = 0;
                    track.surged = false;
                    track.seen = true;
                    track.last_seen = ordinal;
                    continue;
                }

                if share >= self.cfg.watch_share {
                    if contiguous && track.streak > 0 {
                        track.streak += 1;
                    } else {
                        // A streak starts; decide *now* whether it is a
                        // surge, against the baseline frozen hereafter.
                        track.streak = 1;
                        track.fresh = !track.seen;
                        track.surged =
                            track.fresh || share >= self.cfg.surge_factor * track.ewma_share;
                    }
                } else {
                    track.streak = 0;
                    track.surged = false;
                    track.fresh = false;
                }

                let surge_fire = track.surged && track.streak >= self.cfg.hysteresis;
                let dominance_fire = share >= self.cfg.dominance_share
                    && track.streak >= self.cfg.dominance_hysteresis;

                // Baseline learning pauses during a surge streak (the
                // freeze), continues otherwise.
                if !(track.surged && track.streak > 0) {
                    track.ewma_share = if track.seen {
                        alpha * share + (1.0 - alpha) * track.ewma_share
                    } else {
                        share
                    };
                }
                track.ewma_bytes = if track.seen {
                    alpha * bytes + (1.0 - alpha) * track.ewma_bytes
                } else {
                    bytes
                };
                track.seen = true;
                track.last_seen = ordinal;

                if surge_fire || dominance_fire {
                    let ewma_bytes = track.ewma_bytes;
                    let mut action = Self::graded_action(&self.cfg, share);
                    if surge_fire && track.fresh {
                        action = Self::escalated(&self.cfg, action);
                    }
                    if !dominance_fire && hhh.prefix.len() > self.cfg.aggregate_len {
                        action = Action::Watch;
                    }
                    Self::assert_rule(
                        &mut table,
                        &mut self.stats,
                        &mut self.fired_log,
                        &self.cfg,
                        hhh.prefix,
                        action,
                        now,
                        ewma_bytes,
                    );
                }
            }
        }

        // Decay prefixes absent from this window: their share is ~0.
        // (Also drops negligible idle tracks so state stays bounded.)
        let track_floor = self.cfg.watch_share / 64.0;
        self.tracks.retain(|_, track| {
            if track.last_seen != ordinal {
                track.streak = 0;
                track.surged = false;
                track.ewma_share *= 1.0 - alpha;
                track.ewma_bytes *= 1.0 - alpha;
                track.ewma_share >= track_floor
            } else {
                true
            }
        });

        // Renewal by data-plane hits: a rule still absorbing traffic
        // stays, even though the detector can no longer see the flood.
        let live: Vec<Ipv4Prefix> = table.iter().map(|r| r.prefix).collect();
        for prefix in live {
            let rule = table.get_mut(prefix).expect("just listed");
            let mark = self.hit_marks.get(&prefix).copied().unwrap_or(0);
            if rule.dropped_bytes > mark {
                rule.expires_at = now + self.cfg.ttl;
                rule.renewals += 1;
                self.stats.renewed += 1;
            }
            self.hit_marks.insert(prefix, rule.dropped_bytes);
        }

        let lapsed = table.expire(now);
        self.stats.expired += lapsed.len() as u64;
        for rule in &lapsed {
            self.hit_marks.remove(&rule.prefix);
        }
    }

    /// Graduated response: the floor is `Watch`; heavier shares limit
    /// or block.
    fn graded_action(cfg: &PolicyConfig, share: f64) -> Action {
        if share >= cfg.block_share {
            Action::Block
        } else if share >= cfg.limit_share {
            Action::RateLimit { bps: cfg.limit_bps }
        } else {
            Action::Watch
        }
    }

    /// One tier up — applied to fresh-prefix surges, where "suddenly a
    /// meaningful share, from an aggregate that never existed" warrants
    /// a harder response than the share alone grades to.
    fn escalated(cfg: &PolicyConfig, action: Action) -> Action {
        match action {
            Action::Watch => Action::RateLimit { bps: cfg.limit_bps },
            Action::RateLimit { .. } | Action::Block => Action::Block,
        }
    }

    /// Install-or-renew: fresh prefixes insert (subject to the cap);
    /// installed prefixes renew their TTL, refresh their eviction
    /// weight, and escalate (never de-escalate — a rule keeps its
    /// severity until it expires).
    #[allow(clippy::too_many_arguments)]
    fn assert_rule(
        table: &mut RuleTable,
        stats: &mut PolicyStats,
        fired_log: &mut Vec<FiredRule>,
        cfg: &PolicyConfig,
        prefix: Ipv4Prefix,
        action: Action,
        now: Nanos,
        ewma_bytes: f64,
    ) {
        match table.get_mut(prefix) {
            Some(rule) => {
                if action.severity() > rule.action.severity() {
                    rule.action = action;
                    stats.escalated += 1;
                }
                rule.expires_at = now + cfg.ttl;
                rule.renewals += 1;
                rule.ewma_bytes = ewma_bytes;
                stats.renewed += 1;
            }
            None => {
                let rule = Rule::new(prefix, action, now, now + cfg.ttl, ewma_bytes);
                if table.insert(rule) {
                    stats.fired += 1;
                    fired_log.push(FiredRule { prefix, at: now, action });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::HhhReport;

    const WINDOW: TimeSpan = TimeSpan::from_secs(5);

    fn report(index: u64, total: u64, hhhs: Vec<(Ipv4Prefix, u64)>) -> WindowReport<Ipv4Prefix> {
        WindowReport {
            index,
            start: Nanos::ZERO + TimeSpan::from_nanos(index * WINDOW.as_nanos()),
            end: Nanos::ZERO + TimeSpan::from_nanos((index + 1) * WINDOW.as_nanos()),
            total,
            hhhs: hhhs
                .into_iter()
                .map(|(prefix, bytes)| HhhReport {
                    prefix,
                    level: prefix.len() as usize,
                    estimate: bytes,
                    discounted: bytes,
                    lower_bound: bytes,
                })
                .collect(),
        }
    }

    fn p16(a: u8, b: u8) -> Ipv4Prefix {
        Ipv4Prefix::new(u32::from_be_bytes([a, b, 0, 0]), 16)
    }

    #[test]
    fn new_surging_prefix_fires_after_hysteresis_not_before() {
        let mut eng = PolicyEngine::new(PolicyConfig::default());
        let atk = p16(38, 2);
        // Warmup with quiet traffic.
        eng.ingest(&report(0, 1000, vec![]));
        eng.ingest(&report(1, 1000, vec![]));
        // New prefix surges to 30% share.
        eng.ingest(&report(2, 1000, vec![(atk, 300)]));
        assert!(eng.table().lock().unwrap().get(atk).is_none(), "one window must not fire");
        eng.ingest(&report(3, 1000, vec![(atk, 300)]));
        let table = eng.table();
        let table = table.lock().unwrap();
        let rule = table.get(atk).expect("second consecutive window fires");
        assert_eq!(rule.action, Action::Block);
        assert_eq!(eng.fired_log().len(), 1);
    }

    #[test]
    fn host_length_surge_caps_at_watch() {
        let mut eng = PolicyEngine::new(PolicyConfig::default());
        let host = Ipv4Prefix::new(u32::from_be_bytes([9, 1, 2, 3]), 32);
        eng.ingest(&report(0, 1000, vec![]));
        eng.ingest(&report(1, 1000, vec![]));
        // A fresh /32 surging at block-tier share: the surge path may
        // notice it, but only ever with a Watch rule.
        eng.ingest(&report(2, 1000, vec![(host, 150)]));
        eng.ingest(&report(3, 1000, vec![(host, 150)]));
        let table = eng.table();
        let table = table.lock().unwrap();
        let rule = table.get(host).expect("surge still fires on a host prefix");
        assert_eq!(rule.action, Action::Watch, "host-length surge must cap at Watch");
    }

    #[test]
    fn dominant_host_still_blocks() {
        let cfg = PolicyConfig::default();
        let mut eng = PolicyEngine::new(cfg.clone());
        let host = Ipv4Prefix::new(u32::from_be_bytes([9, 1, 2, 3]), 32);
        eng.ingest(&report(0, 1000, vec![]));
        eng.ingest(&report(1, 1000, vec![]));
        // An outright-dominant host rides the dominance path, which the
        // aggregate cap exempts — but the first surge fire (window 3)
        // installs a Watch rule, and installed rules only escalate, so
        // drive past dominance_hysteresis and check the escalation.
        for i in 2..(2 + cfg.dominance_hysteresis as u64 + 1) {
            eng.ingest(&report(i, 1000, vec![(host, 500)]));
        }
        let table = eng.table();
        let table = table.lock().unwrap();
        let rule = table.get(host).expect("dominant host fires");
        assert_eq!(rule.action, Action::Block, "dominance fire must keep its graded action");
    }

    #[test]
    fn steady_heavy_prefix_never_fires_via_surge() {
        let mut eng = PolicyEngine::new(PolicyConfig::default());
        let heavy = p16(1, 0);
        // A legitimate 20%-share network, present from the start.
        for i in 0..10 {
            eng.ingest(&report(i, 1000, vec![(heavy, 200)]));
        }
        assert!(
            eng.table().lock().unwrap().is_empty(),
            "steady share below dominance must never fire"
        );
    }

    #[test]
    fn broken_streak_resets_hysteresis() {
        let mut eng = PolicyEngine::new(PolicyConfig { hysteresis: 3, ..Default::default() });
        let atk = p16(38, 2);
        eng.ingest(&report(0, 1000, vec![]));
        eng.ingest(&report(1, 1000, vec![]));
        eng.ingest(&report(2, 1000, vec![(atk, 300)]));
        eng.ingest(&report(3, 1000, vec![(atk, 300)]));
        eng.ingest(&report(4, 1000, vec![])); // gap
        eng.ingest(&report(5, 1000, vec![(atk, 300)]));
        eng.ingest(&report(6, 1000, vec![(atk, 300)]));
        assert!(eng.table().lock().unwrap().is_empty(), "streak must restart after a gap");
    }

    #[test]
    fn rules_expire_without_renewal() {
        let cfg = PolicyConfig { ttl: TimeSpan::from_secs(8), ..Default::default() };
        let mut eng = PolicyEngine::new(cfg);
        let atk = p16(38, 2);
        eng.ingest(&report(0, 1000, vec![]));
        eng.ingest(&report(1, 1000, vec![]));
        eng.ingest(&report(2, 1000, vec![(atk, 300)]));
        eng.ingest(&report(3, 1000, vec![(atk, 300)]));
        assert!(eng.table().lock().unwrap().get(atk).is_some());
        // Attack stops; no data-plane hits; TTL 8 s < 2 windows.
        eng.ingest(&report(4, 1000, vec![]));
        eng.ingest(&report(5, 1000, vec![]));
        assert!(eng.table().lock().unwrap().is_empty(), "unrenewed rule must lapse");
        assert_eq!(eng.stats().expired, 1);
    }

    #[test]
    fn data_plane_hits_renew_a_blocked_prefix() {
        let cfg = PolicyConfig { ttl: TimeSpan::from_secs(8), ..Default::default() };
        let mut eng = PolicyEngine::new(cfg);
        let atk = p16(38, 2);
        eng.ingest(&report(0, 1000, vec![]));
        eng.ingest(&report(1, 1000, vec![]));
        eng.ingest(&report(2, 1000, vec![(atk, 300)]));
        eng.ingest(&report(3, 1000, vec![(atk, 300)]));
        let table = eng.table();
        // Blocked traffic vanishes from reports, but the data plane
        // keeps crediting drops — the rule must persist.
        for i in 4..8 {
            table.lock().unwrap().get_mut(atk).expect("installed").credit_drop(10_000);
            eng.ingest(&report(i, 1000, vec![]));
            assert!(table.lock().unwrap().get(atk).is_some(), "hit-renewed rule must stay");
        }
        // Hits stop; two unrenewed windows outlive the 8 s TTL.
        eng.ingest(&report(8, 1000, vec![]));
        eng.ingest(&report(9, 1000, vec![]));
        assert!(table.lock().unwrap().get(atk).is_none());
    }

    #[test]
    fn dominance_path_catches_always_on_attack() {
        let mut eng = PolicyEngine::new(PolicyConfig::default());
        let atk = p16(38, 2);
        // Present from window 0 at 40% share: no surge ever, but the
        // dominance path fires after its (longer) hysteresis.
        for i in 0..16 {
            eng.ingest(&report(i, 1000, vec![(atk, 400)]));
        }
        let table = eng.table();
        let table = table.lock().unwrap();
        let rule = table.get(atk).expect("dominant share must fire eventually");
        assert_eq!(rule.action, Action::Block);
    }

    #[test]
    fn short_prefixes_are_ignored() {
        let mut eng = PolicyEngine::new(PolicyConfig::default());
        let wide = Ipv4Prefix::new(0, 0);
        let slash8 = Ipv4Prefix::new(0x0A00_0000, 8);
        for i in 0..8 {
            eng.ingest(&report(i, 1000, vec![(wide, 900), (slash8, 700)]));
        }
        assert!(eng.table().lock().unwrap().is_empty(), "/0 and /8 must never fire");
    }

    #[test]
    fn escalation_raises_but_never_lowers_severity() {
        let mut eng = PolicyEngine::new(PolicyConfig::default());
        let atk = p16(38, 2);
        // Seen during warmup at 1% — a known prefix, so no fresh-surge
        // escalation; its later 6% is a 6x surge over that baseline.
        eng.ingest(&report(0, 1000, vec![(atk, 10)]));
        eng.ingest(&report(1, 1000, vec![(atk, 10)]));
        // Fires at limit-tier share.
        eng.ingest(&report(2, 1000, vec![(atk, 60)]));
        eng.ingest(&report(3, 1000, vec![(atk, 60)]));
        let table = eng.table();
        assert!(matches!(table.lock().unwrap().get(atk).unwrap().action, Action::RateLimit { .. }));
        // Grows to block tier: escalates.
        eng.ingest(&report(4, 1000, vec![(atk, 300)]));
        assert_eq!(table.lock().unwrap().get(atk).unwrap().action, Action::Block);
        // Sinks back to limit tier: stays blocked.
        eng.ingest(&report(5, 1000, vec![(atk, 60)]));
        assert_eq!(table.lock().unwrap().get(atk).unwrap().action, Action::Block);
        assert_eq!(eng.stats().escalated, 1);
    }

    #[test]
    fn fresh_surge_escalates_one_tier() {
        let mut eng = PolicyEngine::new(PolicyConfig::default());
        let (limitish, watchish) = (p16(38, 2), p16(39, 2));
        eng.ingest(&report(0, 1000, vec![]));
        eng.ingest(&report(1, 1000, vec![]));
        // Both prefixes materialize out of nothing: limit-tier share
        // fires as Block, watch-tier share fires as RateLimit.
        eng.ingest(&report(2, 1000, vec![(limitish, 80), (watchish, 30)]));
        eng.ingest(&report(3, 1000, vec![(limitish, 80), (watchish, 30)]));
        let table = eng.table();
        let table = table.lock().unwrap();
        assert_eq!(table.get(limitish).expect("fired").action, Action::Block);
        assert!(matches!(table.get(watchish).expect("fired").action, Action::RateLimit { .. }));
    }
}
