//! The rule table: a capped, longest-prefix-match map from source
//! prefixes to [`Rule`]s.
//!
//! Lookup probes only the prefix lengths actually present (tracked in
//! a 33-slot occupancy array), most specific first — with the byte
//! hierarchy's five levels that is at most five `BTreeMap` probes per
//! packet, and a blocked /24 inside a watched /16 resolves to the /24.
//!
//! The cap is enforced *at insert*: when full, the incoming rule
//! displaces the table minimum under the rules' eviction order (less
//! severe, then lighter, then the smaller prefix evicts first) only if
//! it would itself rank higher; otherwise the insert is refused. Either
//! way the table never holds more than `cap` rules, and the outcome
//! depends only on the table contents — no clocks, no hashing order.

use crate::rule::Rule;
use hhh_nettypes::{Ipv4Prefix, Nanos};
use std::collections::BTreeMap;

/// The capped LPM rule table. See the module docs for semantics.
#[derive(Debug)]
pub struct RuleTable {
    rules: BTreeMap<Ipv4Prefix, Rule>,
    /// How many rules exist at each prefix length; `lookup` probes
    /// only the occupied lengths.
    len_counts: [u32; 33],
    cap: usize,
    inserts: u64,
    evictions: u64,
    expirations: u64,
}

impl RuleTable {
    /// An empty table admitting at most `cap` rules (`cap >= 1`).
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap >= 1, "rule table cap must be at least 1");
        RuleTable {
            rules: BTreeMap::new(),
            len_counts: [0; 33],
            cap,
            inserts: 0,
            evictions: 0,
            expirations: 0,
        }
    }

    /// The configured cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Installed rule count (always `<= cap`).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Total membership churn so far: every insert, eviction, and
    /// expiration counts once. (A renewal is not churn.)
    pub fn churn(&self) -> u64 {
        self.inserts + self.evictions + self.expirations
    }

    /// Inserts accepted so far.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Rules displaced by the cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Rules that aged out so far.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// The most specific rule whose prefix contains `addr`, if any.
    pub fn lookup(&self, addr: u32) -> Option<&Rule> {
        for len in (0..=32u8).rev() {
            if self.len_counts[len as usize] == 0 {
                continue;
            }
            if let Some(rule) = self.rules.get(&Ipv4Prefix::new(addr, len)) {
                return Some(rule);
            }
        }
        None
    }

    /// The rule installed for exactly `prefix`, if any.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&Rule> {
        self.rules.get(&prefix)
    }

    /// Mutable access to the rule for exactly `prefix` (renewals,
    /// escalation, EWMA refresh — membership stays fixed).
    pub fn get_mut(&mut self, prefix: Ipv4Prefix) -> Option<&mut Rule> {
        self.rules.get_mut(&prefix)
    }

    /// All rules in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.values()
    }

    /// Install a rule for a prefix not already in the table.
    ///
    /// Returns `true` if the rule went in. When the table is at cap,
    /// the incoming rule must outrank the current minimum in the
    /// eviction order (severity, then EWMA bytes, then prefix); the
    /// minimum is then evicted. A rule that
    /// doesn't outrank anything is refused — the cap is never
    /// exceeded, and which rule loses is deterministic.
    ///
    /// Panics if a rule for the same prefix is already installed
    /// (update in place through [`RuleTable::get_mut`] instead; silent
    /// replace would double-count churn and lose drop counters).
    pub fn insert(&mut self, rule: Rule) -> bool {
        assert!(
            !self.rules.contains_key(&rule.prefix),
            "insert of an already-installed prefix; update via get_mut"
        );
        if self.rules.len() >= self.cap {
            let (victim, victim_key) = self
                .rules
                .values()
                .map(|r| (r.prefix, r.evict_key()))
                .min_by(|a, b| a.1.cmp(&b.1))
                .expect("cap >= 1, so a full table is non-empty");
            if rule.evict_key() <= victim_key {
                return false;
            }
            self.remove(victim);
            self.evictions += 1;
        }
        self.len_counts[rule.prefix.len() as usize] += 1;
        self.inserts += 1;
        self.rules.insert(rule.prefix, rule);
        true
    }

    /// Remove the rule for exactly `prefix`, returning it.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<Rule> {
        let rule = self.rules.remove(&prefix)?;
        self.len_counts[prefix.len() as usize] -= 1;
        Some(rule)
    }

    /// Drop every rule whose `expires_at <= now`, returning them in
    /// prefix order.
    pub fn expire(&mut self, now: Nanos) -> Vec<Rule> {
        let lapsed: Vec<Ipv4Prefix> =
            self.rules.values().filter(|r| r.expires_at <= now).map(|r| r.prefix).collect();
        let mut out = Vec::with_capacity(lapsed.len());
        for prefix in lapsed {
            if let Some(rule) = self.remove(prefix) {
                self.expirations += 1;
                out.push(rule);
            }
        }
        out
    }

    /// Credit a data-plane drop to the rule for exactly `prefix`
    /// (no-op if the rule vanished between lookup and credit).
    pub fn credit_drop(&mut self, prefix: Ipv4Prefix, bytes: u64) {
        if let Some(rule) = self.rules.get_mut(&prefix) {
            rule.dropped_bytes += bytes;
            rule.dropped_packets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Action;

    fn rule(addr: u32, len: u8, action: Action, ewma: f64) -> Rule {
        Rule::new(Ipv4Prefix::new(addr, len), action, Nanos::ZERO, Nanos::from_secs(100), ewma)
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = RuleTable::with_cap(8);
        assert!(t.insert(rule(0x0A01_0000, 16, Action::Watch, 1.0)));
        assert!(t.insert(rule(0x0A01_0200, 24, Action::Block, 1.0)));
        let inside_24 = t.lookup(0x0A01_0203).expect("matches both");
        assert_eq!(inside_24.prefix.len(), 24);
        assert_eq!(inside_24.action, Action::Block);
        let outside_24 = t.lookup(0x0A01_0303).expect("matches /16 only");
        assert_eq!(outside_24.prefix.len(), 16);
        assert!(t.lookup(0x0B00_0001).is_none());
    }

    #[test]
    fn cap_refuses_weaker_and_evicts_weakest() {
        let mut t = RuleTable::with_cap(2);
        assert!(t.insert(rule(0x0100_0000, 16, Action::Block, 50.0)));
        assert!(t.insert(rule(0x0200_0000, 16, Action::Block, 90.0)));
        // A watch rule never outranks blocks: refused.
        assert!(!t.insert(rule(0x0300_0000, 16, Action::Watch, 1e9)));
        assert_eq!(t.len(), 2);
        // A heavier block displaces the 50-byte one.
        assert!(t.insert(rule(0x0400_0000, 16, Action::Block, 70.0)));
        assert_eq!(t.len(), 2);
        assert!(t.get(Ipv4Prefix::new(0x0100_0000, 16)).is_none());
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn expire_removes_only_lapsed() {
        let mut t = RuleTable::with_cap(4);
        let mut early = rule(0x0100_0000, 16, Action::Block, 1.0);
        early.expires_at = Nanos::from_secs(5);
        t.insert(early);
        t.insert(rule(0x0200_0000, 16, Action::Block, 1.0));
        let out = t.expire(Nanos::from_secs(5));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].prefix, Ipv4Prefix::new(0x0100_0000, 16));
        assert_eq!(t.len(), 1);
        assert_eq!(t.expirations(), 1);
        // The lookup occupancy index must shrink with the rule.
        assert!(t.lookup(0x0100_0001).is_none());
    }

    #[test]
    fn credit_drop_accumulates() {
        let mut t = RuleTable::with_cap(4);
        let p = Ipv4Prefix::new(0x0A00_0000, 8);
        t.insert(rule(0x0A00_0000, 8, Action::Block, 1.0));
        t.credit_drop(p, 1500);
        t.credit_drop(p, 60);
        let r = t.get(p).unwrap();
        assert_eq!(r.dropped_bytes, 1560);
        assert_eq!(r.dropped_packets, 2);
    }
}
