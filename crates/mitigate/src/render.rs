//! Rendering the rule table outward: the aligned text table that
//! `hhh-mitigate watch` prints.

use crate::rule::Action;
use crate::table::RuleTable;

/// The aligned text render (`hhh-mitigate watch`). Trace-time stamps
/// are printed in seconds.
pub fn rules_text(table: &RuleTable) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:<12} {:>9} {:>10} {:>8} {:>13} {:>14} {:>12}\n",
        "PREFIX",
        "ACTION",
        "FIRED_S",
        "EXPIRES_S",
        "RENEWALS",
        "EWMA_BYTES",
        "DROPPED_BYTES",
        "DROPPED_PKTS"
    ));
    for rule in table.iter() {
        let action = match rule.action {
            Action::RateLimit { bps } => format!("limit:{bps}bps"),
            other => other.label().to_string(),
        };
        out.push_str(&format!(
            "{:<20} {:<12} {:>9.1} {:>10.1} {:>8} {:>13} {:>14} {:>12}\n",
            rule.prefix.to_string(),
            action,
            rule.fired_at.as_secs_f64(),
            rule.expires_at.as_secs_f64(),
            rule.renewals,
            rule.ewma_bytes.round().max(0.0) as u64,
            rule.dropped_bytes,
            rule.dropped_packets,
        ));
    }
    out.push_str(&format!(
        "{} rule(s), cap {}, churn {} (inserts {}, evictions {}, expirations {})\n",
        table.len(),
        table.cap(),
        table.churn(),
        table.inserts(),
        table.evictions(),
        table.expirations(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use hhh_nettypes::{Ipv4Prefix, Nanos};

    fn sample() -> RuleTable {
        let mut t = RuleTable::with_cap(8);
        t.insert(Rule::new(
            Ipv4Prefix::new(u32::from_be_bytes([38, 2, 0, 0]), 16),
            Action::Block,
            Nanos::from_secs(15),
            Nanos::from_secs(30),
            123_456.7,
        ));
        t.insert(Rule::new(
            Ipv4Prefix::new(u32::from_be_bytes([11, 4, 1, 0]), 24),
            Action::RateLimit { bps: 2_000_000 },
            Nanos::from_secs(20),
            Nanos::from_secs(35),
            999.2,
        ));
        t
    }

    #[test]
    fn text_render_lists_every_rule() {
        let table = sample();
        let text = rules_text(&table);
        assert!(text.contains("38.2.0.0/16"));
        assert!(text.contains("limit:2000000bps"));
        assert!(text.contains("2 rule(s), cap 8"));
    }

    #[test]
    fn empty_table_renders_cleanly() {
        let table = RuleTable::with_cap(4);
        assert!(rules_text(&table).contains("0 rule(s)"));
    }
}
