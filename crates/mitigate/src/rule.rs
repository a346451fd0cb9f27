//! The mitigation vocabulary: what a rule *is* and what it does to a
//! matching packet.

use hhh_nettypes::{Ipv4Prefix, Nanos};

/// What happens to traffic matching a rule's prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Observe only: the rule exists (and renews, and shows up in the
    /// rule table render) but every packet is admitted.
    Watch,
    /// Admit up to `bps` bits per second of matching traffic (trace
    /// time, token bucket); drop the excess.
    RateLimit {
        /// The admitted rate, bits per second.
        bps: u64,
    },
    /// Drop every matching packet.
    Block,
}

impl Action {
    /// A total severity order: `Watch < RateLimit < Block`. Eviction
    /// keeps the most severe rules; escalation only ever raises this.
    pub fn severity(self) -> u8 {
        match self {
            Action::Watch => 0,
            Action::RateLimit { .. } => 1,
            Action::Block => 2,
        }
    }

    /// The label the CLI render and `hhh-loadgen`'s records use.
    pub fn label(self) -> &'static str {
        match self {
            Action::Watch => "watch",
            Action::RateLimit { .. } => "limit",
            Action::Block => "block",
        }
    }
}

/// One installed mitigation rule.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The source prefix this rule matches (longest-prefix-match
    /// against packet sources).
    pub prefix: Ipv4Prefix,
    /// What to do with matching packets.
    pub action: Action,
    /// Trace instant the rule first fired (the end of the window whose
    /// report crossed the hysteresis bound).
    pub fired_at: Nanos,
    /// Trace instant the rule lapses unless renewed.
    pub expires_at: Nanos,
    /// How many times the TTL was extended — by the detector
    /// re-asserting the prefix, or by the data plane still hitting it.
    pub renewals: u64,
    /// EWMA-damped per-window byte estimate for the prefix (the
    /// eviction weight: heavier rules survive the cap).
    pub ewma_bytes: f64,
    /// Bytes the data plane dropped under this rule.
    pub dropped_bytes: u64,
    /// Packets the data plane dropped under this rule.
    pub dropped_packets: u64,
    /// The token bucket of a rate-limit verdict, made by the first
    /// packet the rule limits. It lives and dies with the rule, so a
    /// re-installed prefix starts from a full burst.
    pub(crate) limiter: Option<TokenBucket>,
}

/// Token-bucket state for one rate-limit rule (trace time).
#[derive(Clone, Copy, Debug)]
pub(crate) struct TokenBucket {
    /// Spendable bytes.
    pub(crate) tokens: f64,
    /// Last refill instant.
    pub(crate) last: Nanos,
}

impl Rule {
    /// A fresh rule with zeroed data-plane counters.
    pub fn new(
        prefix: Ipv4Prefix,
        action: Action,
        fired_at: Nanos,
        expires_at: Nanos,
        ewma_bytes: f64,
    ) -> Self {
        Rule {
            prefix,
            action,
            fired_at,
            expires_at,
            renewals: 0,
            ewma_bytes,
            dropped_bytes: 0,
            dropped_packets: 0,
            limiter: None,
        }
    }

    /// Count one dropped packet of `bytes` against this rule.
    pub(crate) fn credit_drop(&mut self, bytes: u64) {
        self.dropped_bytes += bytes;
        self.dropped_packets += 1;
    }

    /// The deterministic eviction key: less severe, lighter, and (as a
    /// final tiebreak) lexicographically smaller rules evict first.
    /// `f64::total_cmp` keeps the order total even if an EWMA ever
    /// went non-finite.
    pub(crate) fn evict_key(&self) -> (u8, TotalF64, Ipv4Prefix) {
        (self.action.severity(), TotalF64(self.ewma_bytes), self.prefix)
    }
}

/// `f64` wrapped with its IEEE total order so it can sit inside an
/// `Ord` tuple.
#[derive(PartialEq)]
pub(crate) struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_actions() {
        assert!(Action::Watch.severity() < Action::RateLimit { bps: 1 }.severity());
        assert!(Action::RateLimit { bps: u64::MAX }.severity() < Action::Block.severity());
    }

    #[test]
    fn evict_key_prefers_severity_over_bytes() {
        let p = Ipv4Prefix::new(0x0A00_0000, 16);
        let watch_heavy = Rule::new(p, Action::Watch, Nanos::ZERO, Nanos::ZERO, 1e12);
        let block_light = Rule::new(p, Action::Block, Nanos::ZERO, Nanos::ZERO, 1.0);
        assert!(watch_heavy.evict_key() < block_light.evict_key());
    }
}
