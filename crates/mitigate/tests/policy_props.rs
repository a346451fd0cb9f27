//! Property tests pinning the rule-table dynamics the issue demands:
//! hysteresis never fires from fewer than M over-threshold windows,
//! expired rules always leave the table, LPM returns the most
//! specific matching rule, and the cap is never exceeded — plus a
//! fast in-process closed loop (reports -> engine -> gate -> drops ->
//! renewal) with no daemon involved.

use hhh_core::HhhReport;
use hhh_mitigate::{Action, GateTotals, PolicyConfig, PolicyEngine, Rule, RuleTable, TableGate};
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::{PacketGate, RuleFilter, Source, WindowReport};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WINDOW: TimeSpan = TimeSpan::from_secs(5);

fn report(index: u64, total: u64, hhhs: &[(Ipv4Prefix, u64)]) -> WindowReport<Ipv4Prefix> {
    WindowReport {
        index,
        start: Nanos::from_nanos(index * WINDOW.as_nanos()),
        end: Nanos::from_nanos((index + 1) * WINDOW.as_nanos()),
        total,
        hhhs: hhhs
            .iter()
            .map(|&(prefix, bytes)| HhhReport {
                prefix,
                level: prefix.len() as usize,
                estimate: bytes,
                discounted: bytes,
                lower_bound: bytes,
            })
            .collect(),
    }
}

fn net16(a: u8, b: u8) -> Ipv4Prefix {
    Ipv4Prefix::new(u32::from_be_bytes([a, b, 0, 0]), 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hysteresis: however strong the surge, a prefix over threshold
    /// for fewer than M consecutive windows never produces a rule —
    /// and at exactly M it does.
    #[test]
    fn no_rule_fires_before_m_windows(
        m in 1u32..6,
        over_windows in 0u32..6,
        share_milli in 50u64..600,
    ) {
        let cfg = PolicyConfig {
            hysteresis: m,
            dominance_hysteresis: m,
            warmup_windows: 1,
            ..PolicyConfig::default()
        };
        let mut eng = PolicyEngine::new(cfg);
        let atk = net16(38, 2);
        let total = 1_000u64;
        let bytes = total * share_milli / 1_000;
        // One warmup window, then the surge for `over_windows`.
        eng.ingest(&report(0, total, &[]));
        for i in 0..over_windows {
            eng.ingest(&report(1 + i as u64, total, &[(atk, bytes)]));
        }
        let table = eng.table();
        let table = table.lock().unwrap();
        if over_windows < m {
            prop_assert!(
                table.get(atk).is_none(),
                "rule fired after {over_windows} < {m} windows"
            );
            prop_assert_eq!(eng.fired_log().len(), 0);
        } else {
            prop_assert!(table.get(atk).is_some(), "no rule after {over_windows} >= {m} windows");
            // It fired exactly at the M-th over-threshold window.
            let fired = eng.fired_log()[0];
            prop_assert_eq!(fired.at, Nanos::from_nanos((1 + m as u64) * WINDOW.as_nanos()));
        }
    }

    /// Expiry: whatever interleaving of fires and quiet windows, no
    /// rule's `expires_at` is ever in the past once `ingest` returns.
    #[test]
    fn expired_rules_always_leave(
        ttl_s in 5u64..30,
        pattern in prop::collection::vec(0u8..3, 4..24),
    ) {
        let cfg = PolicyConfig {
            ttl: TimeSpan::from_secs(ttl_s),
            warmup_windows: 1,
            ..PolicyConfig::default()
        };
        let mut eng = PolicyEngine::new(cfg);
        let a = net16(38, 2);
        let b = net16(11, 4);
        let total = 1_000u64;
        for (i, step) in pattern.iter().enumerate() {
            let hhhs: Vec<(Ipv4Prefix, u64)> = match step {
                0 => vec![],
                1 => vec![(a, 400)],
                _ => vec![(a, 400), (b, 300)],
            };
            let w = report(i as u64, total, &hhhs);
            let now = w.end;
            eng.ingest(&w);
            let table = eng.table();
            let table = table.lock().unwrap();
            for rule in table.iter() {
                prop_assert!(
                    rule.expires_at > now,
                    "rule {} still installed at {:?} though it expired at {:?}",
                    rule.prefix, now, rule.expires_at
                );
            }
        }
    }

    /// LPM: lookup over a random rule set always returns the most
    /// specific containing prefix — byte-for-byte what a naive scan
    /// over all rules computes.
    #[test]
    fn lpm_matches_naive_scan(
        seeds in prop::collection::vec((0u32..u32::MAX, 0u8..5), 1..24),
        probes in prop::collection::vec(0u32..u32::MAX, 8..17),
    ) {
        let mut table = RuleTable::with_cap(64);
        for (addr, level) in seeds {
            let len = level * 8; // hierarchy lengths: 0,8,16,24,32
            let prefix = Ipv4Prefix::new(addr, len);
            if table.get(prefix).is_none() {
                table.insert(Rule::new(
                    prefix,
                    Action::Block,
                    Nanos::ZERO,
                    Nanos::from_secs(100),
                    1.0,
                ));
            }
        }
        let rules: Vec<Ipv4Prefix> = table.iter().map(|r| r.prefix).collect();
        for addr in probes {
            let got = table.lookup(addr).map(|r| r.prefix);
            let naive = rules
                .iter()
                .filter(|p| p.contains_addr(addr))
                .max_by_key(|p| p.len())
                .copied();
            prop_assert_eq!(got, naive, "lookup({addr:#x}) disagrees with naive scan");
        }
    }

    /// The flat table behaves like the ordered map it replaced: after
    /// every step of a random mix of inserts (any length, any action,
    /// at cap so eviction runs), removals, expiries and in-place
    /// edits, lookup agrees with a naive longest-match scan, `iter`
    /// walks the model's prefix order, and the counters agree.
    #[test]
    fn table_matches_an_ordered_map_model(
        cap in 1usize..10,
        bases in prop::collection::vec(0u32..u32::MAX, 4..5),
        ops in prop::collection::vec(
            ((0u8..8, 0usize..4), (0u8..=32, 0u8..3), (0u64..6, 1u64..40)),
            1..80,
        ),
    ) {
        let mut table = RuleTable::with_cap(cap);
        let mut model = Model { cap, ..Model::default() };
        for ((op, base), (len, sev), (weight, secs)) in ops {
            let prefix = Ipv4Prefix::new(bases[base], len);
            let now = Nanos::from_secs(secs);
            // Remove and edit mostly aim at an installed rule.
            let target = if sev > 0 && !model.rules.is_empty() {
                *model.rules.keys().nth(weight as usize % model.rules.len()).unwrap()
            } else {
                prefix
            };
            match op {
                0..=3 => {
                    if model.rules.contains_key(&prefix) {
                        continue;
                    }
                    let action = action_of(sev);
                    let accepted = table.insert(Rule::new(
                        prefix,
                        action,
                        Nanos::ZERO,
                        now,
                        weight as f64,
                    ));
                    prop_assert_eq!(accepted, model.insert(prefix, action, weight, now));
                }
                4 => {
                    let got = table.remove(target).map(|r| r.prefix);
                    prop_assert_eq!(got, model.rules.remove(&target).map(|_| target));
                }
                5 => {
                    let got: Vec<Ipv4Prefix> = table.expire(now).iter().map(|r| r.prefix).collect();
                    prop_assert_eq!(got, model.expire(now));
                }
                _ => {
                    let got = table.get_mut(target).map(|rule| {
                        rule.expires_at = now;
                        rule.ewma_bytes = weight as f64;
                        if action_of(sev).severity() > rule.action.severity() {
                            rule.action = action_of(sev);
                        }
                        rule.prefix
                    });
                    let want = model.rules.get_mut(&target).map(|m| {
                        m.expires_at = now;
                        m.weight = weight;
                        if action_of(sev).severity() > m.action.severity() {
                            m.action = action_of(sev);
                        }
                        target
                    });
                    prop_assert_eq!(got, want);
                }
            }

            let listed: Vec<(Ipv4Prefix, Action, Nanos)> =
                table.iter().map(|r| (r.prefix, r.action, r.expires_at)).collect();
            let modelled: Vec<(Ipv4Prefix, Action, Nanos)> =
                model.rules.iter().map(|(p, m)| (*p, m.action, m.expires_at)).collect();
            prop_assert_eq!(listed, modelled);
            prop_assert_eq!(table.len(), model.rules.len());
            prop_assert_eq!(table.is_empty(), model.rules.is_empty());
            prop_assert_eq!(
                (table.inserts(), table.evictions(), table.expirations()),
                (model.inserts, model.evictions, model.expirations)
            );
            // Probe each base, each rule's first and last address, and
            // their neighbours just outside.
            let mut probes: Vec<u32> = bases.clone();
            for p in model.rules.keys() {
                let last = p.addr() | !Ipv4Prefix::mask(p.len());
                probes.extend([p.addr(), p.addr().wrapping_sub(1), last, last.wrapping_add(1)]);
            }
            for addr in probes {
                let got = table.lookup(addr).map(|r| r.prefix);
                let naive = model
                    .rules
                    .keys()
                    .filter(|p| p.contains_addr(addr))
                    .max_by_key(|p| p.len())
                    .copied();
                prop_assert_eq!(got, naive, "lookup({addr:#x}) disagrees with naive scan");
            }
        }
    }

    /// Cap: a table under arbitrary insert pressure never exceeds its
    /// cap, and every refused insert really did rank below the whole
    /// table.
    #[test]
    fn cap_is_never_exceeded(
        cap in 1usize..12,
        inserts in prop::collection::vec((0u32..u32::MAX, 0u8..3, 0u64..1_000_000), 1..64),
    ) {
        let mut table = RuleTable::with_cap(cap);
        for (addr, sev, weight) in inserts {
            let action = match sev {
                0 => Action::Watch,
                1 => Action::RateLimit { bps: 1_000_000 },
                _ => Action::Block,
            };
            let prefix = Ipv4Prefix::new(addr, 16);
            if table.get(prefix).is_some() {
                continue;
            }
            let accepted = table.insert(Rule::new(
                prefix,
                action,
                Nanos::ZERO,
                Nanos::from_secs(100),
                weight as f64,
            ));
            prop_assert!(table.len() <= cap, "cap {} exceeded: {}", cap, table.len());
            if !accepted {
                prop_assert_eq!(table.len(), cap, "refusal only happens at cap");
            }
        }
    }
}

fn action_of(sev: u8) -> Action {
    match sev {
        0 => Action::Watch,
        1 => Action::RateLimit { bps: 1_000_000 },
        _ => Action::Block,
    }
}

/// What the model keeps of a rule.
struct ModelRule {
    action: Action,
    weight: u64,
    expires_at: Nanos,
}

/// The rule table as an ordered map, with the documented cap and
/// eviction order spelled out: less severe, then lighter, then the
/// smaller prefix is evicted first.
#[derive(Default)]
struct Model {
    rules: BTreeMap<Ipv4Prefix, ModelRule>,
    cap: usize,
    inserts: u64,
    evictions: u64,
    expirations: u64,
}

impl Model {
    fn insert(
        &mut self,
        prefix: Ipv4Prefix,
        action: Action,
        weight: u64,
        expires_at: Nanos,
    ) -> bool {
        if self.rules.len() >= self.cap {
            let rank = |p: &Ipv4Prefix, m: &ModelRule| (m.action.severity(), m.weight, *p);
            let victim = self.rules.iter().map(|(p, m)| rank(p, m)).min().expect("cap >= 1");
            if (action.severity(), weight, prefix) <= victim {
                return false;
            }
            self.rules.remove(&victim.2);
            self.evictions += 1;
        }
        self.rules.insert(prefix, ModelRule { action, weight, expires_at });
        self.inserts += 1;
        true
    }

    fn expire(&mut self, now: Nanos) -> Vec<Ipv4Prefix> {
        let lapsed: Vec<Ipv4Prefix> =
            self.rules.iter().filter(|(_, m)| m.expires_at <= now).map(|(p, _)| *p).collect();
        for p in &lapsed {
            self.rules.remove(p);
        }
        self.expirations += lapsed.len() as u64;
        lapsed
    }
}

/// The whole loop in-process, no daemon: synthesize two windows of
/// flood reports, let the engine fire a block rule, then pump packets
/// through a `RuleFilter` over the shared table and watch the gate
/// drop attack bytes, credit the rule, and renew it past its TTL.
#[test]
fn closed_loop_in_process() {
    let cfg =
        PolicyConfig { ttl: TimeSpan::from_secs(8), warmup_windows: 1, ..PolicyConfig::default() };
    let mut eng = PolicyEngine::new(cfg);
    let atk = net16(38, 2);
    let atk_src = u32::from_be_bytes([38, 2, 0, 9]);
    let legit_src = u32::from_be_bytes([9, 9, 0, 1]);

    eng.ingest(&report(0, 1_000, &[]));
    eng.ingest(&report(1, 1_000, &[(atk, 300)]));
    eng.ingest(&report(2, 1_000, &[(atk, 300)]));
    let table = eng.table();
    assert_eq!(table.lock().unwrap().get(atk).map(|r| r.action), Some(Action::Block));

    // Window 3's packets, filtered through the freshly-blocked table.
    let base = Nanos::from_nanos(3 * WINDOW.as_nanos());
    let packets: Vec<PacketRecord> = (0..200u64)
        .map(|i| {
            let src = if i % 2 == 0 { atk_src } else { legit_src };
            PacketRecord::new(base + TimeSpan::from_millis(i), src, 1, 1_000)
        })
        .collect();
    let gate = TableGate::new(eng.table()).with_truth(vec![atk]);
    let mut filter = RuleFilter::new(packets.iter().copied(), gate);
    let mut survivors = Vec::new();
    let mut buf = Vec::new();
    while filter.pull_chunk(&mut buf) {
        survivors.append(&mut buf);
    }
    assert_eq!(survivors.len(), 100, "every attack packet dropped, every legit kept");
    assert!(survivors.iter().all(|p| p.src == legit_src));

    let (_, mut gate) = filter.into_parts();
    let totals = gate.take_totals();
    assert_eq!(
        totals,
        GateTotals {
            attack_offered_bytes: 100_000,
            attack_dropped_bytes: 100_000,
            legit_offered_bytes: 100_000,
            legit_dropped_bytes: 0,
            packets_offered: 200,
            packets_dropped: 100,
        }
    );

    // The flood no longer reaches the detector, but the drops renew
    // the rule past its 8 s TTL (fired at 15 s, windows 3 and 4 end at
    // 20 s and 25 s).
    eng.ingest(&report(3, 500, &[]));
    assert!(table.lock().unwrap().get(atk).is_some(), "hit-renewed rule must survive");
    let renewals = table.lock().unwrap().get(atk).unwrap().renewals;
    assert!(renewals >= 1);

    // No further hits: the rule lapses once the TTL runs out.
    eng.ingest(&report(4, 500, &[]));
    eng.ingest(&report(5, 500, &[]));
    eng.ingest(&report(6, 500, &[]));
    assert!(table.lock().unwrap().get(atk).is_none(), "unrenewed rule must expire");
    assert_eq!(eng.stats().expired, 1);
}

/// A gate admits everything when the table is empty — the filter is
/// transparent until policy says otherwise.
#[test]
fn empty_table_is_transparent() {
    let eng = PolicyEngine::new(PolicyConfig::default());
    let mut gate = TableGate::new(eng.table());
    let packets: Vec<PacketRecord> =
        (0..1_000u64).map(|i| PacketRecord::new(Nanos::from_micros(i), i as u32, 1, 100)).collect();
    let mut chunk = packets.clone();
    gate.admit_chunk(&mut chunk);
    assert_eq!(chunk, packets);
    assert_eq!(gate.totals().packets_dropped, 0);
}
