//! The data plane: a [`PacketGate`] over the shared rule table,
//! pluggable into `hhh_window::RuleFilter` upstream of the shards.
//!
//! The gate takes a chunk at a time: it locks the shared table once,
//! then for each packet finds the longest-prefix match on the source
//! address and acts. `Block` drops; `RateLimit` runs the rule's own
//! token bucket in *trace time* (timestamps are non-decreasing by the
//! gate contract); `Watch` admits. Drops are credited to the matched
//! rule in place — that credit is what keeps a fully-blocked prefix's
//! rule renewed after the flood disappears from the detectors.
//!
//! When ground truth is attached (the loadgen suite's planted attack
//! prefixes), every offered and dropped byte is also classed
//! attack/legit, giving the true-positive/collateral split the bench
//! scores — and `take_totals()` harvests per window.

use crate::rule::{Action, Rule, TokenBucket};
use crate::table::RuleTable;
use hhh_nettypes::{Ipv4Prefix, PacketRecord};
use hhh_window::PacketGate;
use std::sync::{Arc, Mutex};

/// Offered/dropped byte and packet totals, split by ground-truth
/// class. Without ground truth everything counts as legit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateTotals {
    /// Bytes offered from planted attack prefixes.
    pub attack_offered_bytes: u64,
    /// Attack bytes the gate dropped (true-positive bytes).
    pub attack_dropped_bytes: u64,
    /// Bytes offered from everything else.
    pub legit_offered_bytes: u64,
    /// Legit bytes the gate dropped (collateral damage).
    pub legit_dropped_bytes: u64,
    /// All packets offered.
    pub packets_offered: u64,
    /// All packets dropped.
    pub packets_dropped: u64,
}

impl GateTotals {
    /// Fold another totals into this one.
    pub fn absorb(&mut self, other: GateTotals) {
        self.attack_offered_bytes += other.attack_offered_bytes;
        self.attack_dropped_bytes += other.attack_dropped_bytes;
        self.legit_offered_bytes += other.legit_offered_bytes;
        self.legit_dropped_bytes += other.legit_dropped_bytes;
        self.packets_offered += other.packets_offered;
        self.packets_dropped += other.packets_dropped;
    }

    /// Count one offered packet of `bytes` and its verdict.
    fn record(&mut self, attack: bool, bytes: u64, dropped: bool) {
        let (offered, dropped_bytes) = if attack {
            (&mut self.attack_offered_bytes, &mut self.attack_dropped_bytes)
        } else {
            (&mut self.legit_offered_bytes, &mut self.legit_dropped_bytes)
        };
        *offered += bytes;
        self.packets_offered += 1;
        if dropped {
            *dropped_bytes += bytes;
            self.packets_dropped += 1;
        }
    }
}

/// The rule-table gate. One per filtered stream; the table is shared
/// with the [`PolicyEngine`](crate::PolicyEngine) that edits it.
pub struct TableGate {
    table: Arc<Mutex<RuleTable>>,
    /// Planted attack prefixes for offered/dropped classification
    /// (empty = no ground truth, everything is "legit").
    truth: Vec<Ipv4Prefix>,
    totals: GateTotals,
}

/// Burst allowance for rate limiters: 100 ms at line rate, floored at
/// one full-size frame so a limiter can always pass at least one MTU.
fn burst_bytes(bps: u64) -> f64 {
    (bps as f64 / 8.0 / 10.0).max(1500.0)
}

/// Apply `rule` to one packet it matches: `true` drops the packet and
/// credits the drop to the rule.
fn drops(rule: &mut Rule, packet: &PacketRecord) -> bool {
    let bytes = u64::from(packet.wire_len);
    let dropped = match rule.action {
        Action::Watch => false,
        Action::Block => true,
        Action::RateLimit { bps } => {
            let burst = burst_bytes(bps);
            let bucket = rule.limiter.get_or_insert(TokenBucket { tokens: burst, last: packet.ts });
            let dt = packet.ts.saturating_sub(bucket.last).as_secs_f64();
            bucket.last = packet.ts;
            bucket.tokens = (bucket.tokens + dt * bps as f64 / 8.0).min(burst);
            if bucket.tokens >= bytes as f64 {
                bucket.tokens -= bytes as f64;
                false
            } else {
                true
            }
        }
    };
    if dropped {
        rule.credit_drop(bytes);
    }
    dropped
}

impl TableGate {
    /// A gate over `table` with no ground truth attached.
    pub fn new(table: Arc<Mutex<RuleTable>>) -> Self {
        TableGate { table, truth: Vec::new(), totals: GateTotals::default() }
    }

    /// Attach planted attack prefixes for byte classification.
    pub fn with_truth(mut self, truth: Vec<Ipv4Prefix>) -> Self {
        self.truth = truth;
        self
    }

    /// Running totals since the last [`TableGate::take_totals`].
    pub fn totals(&self) -> GateTotals {
        self.totals
    }

    /// Harvest and reset the totals (the per-window accounting hook).
    pub fn take_totals(&mut self) -> GateTotals {
        std::mem::take(&mut self.totals)
    }
}

impl PacketGate for TableGate {
    fn admit_chunk(&mut self, chunk: &mut Vec<PacketRecord>) {
        let TableGate { table, truth, totals } = self;
        let mut table = table.lock().expect("rule table lock poisoned");
        chunk.retain(|packet| {
            let attack = truth.iter().any(|p| p.contains_addr(packet.src));
            let dropped = table.lookup(packet.src).is_some_and(|rule| drops(rule, packet));
            totals.record(attack, u64::from(packet.wire_len), dropped);
            !dropped
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_nettypes::Nanos;

    fn table_with(rules: Vec<Rule>) -> Arc<Mutex<RuleTable>> {
        let mut t = RuleTable::with_cap(16);
        for r in rules {
            assert!(t.insert(r));
        }
        Arc::new(Mutex::new(t))
    }

    fn rule(addr: u32, len: u8, action: Action) -> Rule {
        Rule::new(Ipv4Prefix::new(addr, len), action, Nanos::ZERO, Nanos::from_secs(1_000), 1.0)
    }

    fn pkt(ts_ms: u64, src: u32, len: u32) -> PacketRecord {
        PacketRecord::new(Nanos::from_millis(ts_ms), src, 1, len)
    }

    /// Gate one packet as a chunk of one: `true` if it was admitted.
    fn admit(gate: &mut TableGate, packet: &PacketRecord) -> bool {
        let mut chunk = vec![*packet];
        gate.admit_chunk(&mut chunk);
        !chunk.is_empty()
    }

    #[test]
    fn block_drops_and_credits_the_rule() {
        let table = table_with(vec![rule(0x2602_0000, 16, Action::Block)]);
        let mut gate =
            TableGate::new(Arc::clone(&table)).with_truth(vec![Ipv4Prefix::new(0x2602_0000, 16)]);
        assert!(!admit(&mut gate, &pkt(0, 0x2602_0001, 500)));
        assert!(admit(&mut gate, &pkt(1, 0x0100_0001, 700)));
        let totals = gate.take_totals();
        assert_eq!(totals.attack_offered_bytes, 500);
        assert_eq!(totals.attack_dropped_bytes, 500);
        assert_eq!(totals.legit_offered_bytes, 700);
        assert_eq!(totals.legit_dropped_bytes, 0);
        assert_eq!(totals.packets_dropped, 1);
        let t = table.lock().unwrap();
        let r = t.get(Ipv4Prefix::new(0x2602_0000, 16)).unwrap();
        assert_eq!(r.dropped_bytes, 500);
        assert_eq!(r.dropped_packets, 1);
        // take_totals reset the running counters.
        assert_eq!(gate.totals(), GateTotals::default());
    }

    #[test]
    fn rate_limit_admits_roughly_bps_over_time() {
        // 8 Mbit/s = 1 MB/s. Offer 2 MB over one second in 1 kB
        // packets: about half must survive (plus the 100 kB burst).
        let bps = 8_000_000u64;
        let table = table_with(vec![rule(0x2602_0000, 16, Action::RateLimit { bps })]);
        let mut gate = TableGate::new(table);
        let n = 2_000u64;
        let mut admitted_bytes = 0u64;
        for i in 0..n {
            let ts = Nanos::from_nanos(i * 1_000_000_000 / n);
            let p = PacketRecord::new(ts, 0x2602_0001, 2, 1_000);
            if admit(&mut gate, &p) {
                admitted_bytes += 1_000;
            }
        }
        let line = bps as f64 / 8.0; // bytes in the second
        assert!(
            (admitted_bytes as f64) >= 0.9 * line && (admitted_bytes as f64) <= 1.3 * line,
            "admitted {admitted_bytes} bytes, expected about {line}"
        );
    }

    #[test]
    fn no_rule_means_everything_passes() {
        let table = Arc::new(Mutex::new(RuleTable::with_cap(4)));
        let mut gate = TableGate::new(table);
        for i in 0..100u64 {
            assert!(admit(&mut gate, &pkt(i, i as u32, 100)));
        }
        let totals = gate.totals();
        assert_eq!(totals.packets_offered, 100);
        assert_eq!(totals.packets_dropped, 0);
        assert_eq!(totals.legit_offered_bytes, 10_000);
    }

    #[test]
    fn watch_rules_admit_but_lpm_block_inside_still_drops() {
        let table = table_with(vec![
            rule(0x2602_0000, 16, Action::Watch),
            rule(0x2602_0100, 24, Action::Block),
        ]);
        let mut gate = TableGate::new(table);
        assert!(admit(&mut gate, &pkt(0, 0x2602_0001, 100)), "watch /16 admits");
        assert!(!admit(&mut gate, &pkt(1, 0x2602_0101, 100)), "block /24 inside drops");
    }

    #[test]
    fn a_limiter_lives_and_dies_with_its_rule() {
        // 8 Mbit/s: a 100 kB burst. Every packet shares one instant, so
        // nothing refills and each burst admits exactly 100 kB.
        let limit = || rule(0x2602_0000, 16, Action::RateLimit { bps: 8_000_000 });
        let prefix = Ipv4Prefix::new(0x2602_0000, 16);
        let table = table_with(vec![limit()]);
        let mut gate = TableGate::new(Arc::clone(&table));
        let mut burst = || {
            let mut chunk = vec![pkt(0, 0x2602_0001, 1_000); 150];
            gate.admit_chunk(&mut chunk);
            chunk.len()
        };
        assert_eq!(burst(), 100);
        assert_eq!(burst(), 0, "the drained bucket admits nothing more at this instant");

        let removed = table.lock().unwrap().remove(prefix).expect("installed");
        assert!(removed.limiter.is_some(), "the limiter leaves with its rule");
        assert!(table.lock().unwrap().insert(limit()));
        assert!(table.lock().unwrap().get(prefix).unwrap().limiter.is_none());
        assert_eq!(burst(), 100, "a re-inserted rule starts from a full burst");

        let lapsed = table.lock().unwrap().expire(Nanos::from_secs(1_000));
        assert_eq!(lapsed.len(), 1);
        assert!(lapsed[0].limiter.is_some(), "expiry frees the limiter with its rule");
        assert!(table.lock().unwrap().is_empty());
    }

    #[test]
    fn burst_floor_passes_single_mtu() {
        assert!(burst_bytes(8) >= 1500.0);
    }
}
