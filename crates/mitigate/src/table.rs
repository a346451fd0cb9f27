//! The rule table: a capped, longest-prefix-match map from source
//! prefixes to [`Rule`]s.
//!
//! The table is flat: one `Vec` of rules per prefix length, each
//! sorted by network address, plus a 33-bit occupancy mask naming the
//! lengths that hold a rule. A lookup walks the occupied lengths from
//! most to least specific and binary-searches each one — with the byte
//! hierarchy's five levels that is at most five searches of a few
//! rules, and a blocked /24 inside a watched /16 resolves to the /24.
//! The match comes back as `&mut Rule`, so the data plane credits a
//! drop (and spends a rate limiter's tokens) in place.
//!
//! [`Ipv4Prefix`] orders by `(len, bits)`, so walking the lengths in
//! ascending order yields the rules in prefix order: [`RuleTable::iter`]
//! and [`RuleTable::expire`] keep that order.
//!
//! The cap is enforced *at insert*: when full, the incoming rule
//! displaces the table minimum under the rules' eviction order (less
//! severe, then lighter, then the smaller prefix evicts first) only if
//! it would itself rank higher; otherwise the insert is refused. Either
//! way the table never holds more than `cap` rules, and the outcome
//! depends only on the table contents — no clocks, no hashing order.

use crate::rule::Rule;
use hhh_nettypes::{Ipv4Prefix, Nanos};

/// The capped LPM rule table. See the module docs for semantics.
#[derive(Debug)]
pub struct RuleTable {
    /// The rules of each prefix length, sorted by network address.
    by_len: [Vec<Rule>; 33],
    /// Bit `len` is set exactly when `by_len[len]` is non-empty.
    occupied: u64,
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
            by_len: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
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
        self.by_len.iter().map(Vec::len).sum()
    }

    /// `true` when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
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

    /// The most specific rule whose prefix contains `addr`, if any,
    /// mutable so the caller can credit it in place.
    pub fn lookup(&mut self, addr: u32) -> Option<&mut Rule> {
        let mut lens = self.occupied;
        while lens != 0 {
            let len = 63 - lens.leading_zeros() as usize;
            lens ^= 1 << len;
            let net = addr & Ipv4Prefix::mask(len as u8);
            if let Ok(at) = self.by_len[len].binary_search_by_key(&net, |r| r.prefix.addr()) {
                return Some(&mut self.by_len[len][at]);
            }
        }
        None
    }

    /// Where `prefix` sits in its length's rules: `Ok` if installed,
    /// else `Err` with the insertion point.
    fn position(&self, prefix: Ipv4Prefix) -> Result<usize, usize> {
        self.by_len[prefix.len() as usize].binary_search_by_key(&prefix, |r| r.prefix)
    }

    /// The rule installed for exactly `prefix`, if any.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&Rule> {
        let at = self.position(prefix).ok()?;
        Some(&self.by_len[prefix.len() as usize][at])
    }

    /// Mutable access to the rule for exactly `prefix` (renewals,
    /// escalation, EWMA refresh — membership stays fixed).
    pub fn get_mut(&mut self, prefix: Ipv4Prefix) -> Option<&mut Rule> {
        let at = self.position(prefix).ok()?;
        Some(&mut self.by_len[prefix.len() as usize][at])
    }

    /// All rules in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.by_len.iter().flatten()
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
            self.position(rule.prefix).is_err(),
            "insert of an already-installed prefix; update via get_mut"
        );
        if self.len() >= self.cap {
            let (victim, victim_key) = self
                .iter()
                .map(|r| (r.prefix, r.evict_key()))
                .min_by(|a, b| a.1.cmp(&b.1))
                .expect("cap >= 1, so a full table is non-empty");
            if rule.evict_key() <= victim_key {
                return false;
            }
            self.remove(victim);
            self.evictions += 1;
        }
        let len = rule.prefix.len() as usize;
        let at = self.position(rule.prefix).expect_err("checked absent above");
        self.by_len[len].insert(at, rule);
        self.occupied |= 1 << len;
        self.inserts += 1;
        true
    }

    /// Remove the rule for exactly `prefix`, returning it (and with
    /// it any rate-limiter state it carried).
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<Rule> {
        let at = self.position(prefix).ok()?;
        let len = prefix.len() as usize;
        let rule = self.by_len[len].remove(at);
        if self.by_len[len].is_empty() {
            self.occupied &= !(1 << len);
        }
        Some(rule)
    }

    /// Drop every rule whose `expires_at <= now`, returning them in
    /// prefix order.
    pub fn expire(&mut self, now: Nanos) -> Vec<Rule> {
        let mut out = Vec::new();
        for (len, rules) in self.by_len.iter_mut().enumerate() {
            out.extend(rules.extract_if(.., |r| r.expires_at <= now));
            if rules.is_empty() {
                self.occupied &= !(1 << len);
            }
        }
        self.expirations += out.len() as u64;
        out
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
        t.lookup(0x0A00_0001).expect("installed").credit_drop(1500);
        t.lookup(0x0A7F_0001).expect("installed").credit_drop(60);
        let r = t.get(p).unwrap();
        assert_eq!(r.dropped_bytes, 1560);
        assert_eq!(r.dropped_packets, 2);
    }
}
