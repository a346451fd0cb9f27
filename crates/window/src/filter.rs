//! Packet filtering upstream of the engines: a [`RuleFilter`] wraps
//! any packet [`Source`] and hands each pulled chunk to a
//! [`PacketGate`], delivering only the admitted packets downstream —
//! the seam where a mitigation rule table (or any other drop/limit
//! policy) plugs into a running pipeline *before* the shard partition,
//! the way a real deployment filters at the edge rather than inside
//! the detector.
//!
//! The gate is deliberately a trait, not a concrete rule table: the
//! window crate knows how to thread a verdict through the chunked
//! source protocol, and nothing about prefixes, TTLs, or token
//! buckets. `hhh-mitigate` implements [`PacketGate`] over its shared
//! rule table; tests implement it over closures.

use crate::source::Source;
use hhh_nettypes::PacketRecord;

/// An admit/drop decision point, fed a chunk at a time so a gate over
/// shared state pays its synchronisation once per chunk, not once per
/// packet. `&mut self` because real gates keep state: token buckets,
/// per-rule drop counters, hit statistics.
pub trait PacketGate {
    /// Decide the fate of every packet in `chunk`: keep the admitted
    /// ones, in order, and remove the dropped ones. Chunks arrive in
    /// stream order, so trace-time bucket refills may trust
    /// non-decreasing timestamps; where a stream is cut into chunks
    /// must not change any verdict.
    fn admit_chunk(&mut self, chunk: &mut Vec<PacketRecord>);
}

/// Every `FnMut(&PacketRecord) -> bool` is a gate — the test- and
/// ad-hoc-filter shape: `true` admits the packet.
impl<F: FnMut(&PacketRecord) -> bool> PacketGate for F {
    fn admit_chunk(&mut self, chunk: &mut Vec<PacketRecord>) {
        chunk.retain(|p| self(p));
    }
}

/// A [`Source`] adapter dropping the packets a [`PacketGate`] rejects.
///
/// Honors the source contract (`pull_chunk` never returns `true` with
/// an empty buffer): when a whole upstream chunk is dropped — a fully
/// blocked burst — the filter keeps pulling until something survives
/// or the upstream ends, rather than handing the engine an empty
/// chunk.
pub struct RuleFilter<S, G> {
    inner: S,
    gate: G,
    scratch: Vec<PacketRecord>,
}

impl<S, G> RuleFilter<S, G>
where
    S: Source<Item = PacketRecord>,
    G: PacketGate,
{
    /// Filter `inner` through `gate`.
    pub fn new(inner: S, gate: G) -> Self {
        RuleFilter { inner, gate, scratch: Vec::new() }
    }

    /// The gate, for harvesting its counters mid-stream.
    pub fn gate(&self) -> &G {
        &self.gate
    }

    /// Unwrap into the inner source and the gate.
    pub fn into_parts(self) -> (S, G) {
        (self.inner, self.gate)
    }
}

impl<S, G> Source for RuleFilter<S, G>
where
    S: Source<Item = PacketRecord>,
    G: PacketGate,
{
    type Item = PacketRecord;

    fn pull_chunk(&mut self, buf: &mut Vec<PacketRecord>) -> bool {
        loop {
            self.scratch.clear();
            if !self.inner.pull_chunk(&mut self.scratch) {
                return false;
            }
            self.gate.admit_chunk(&mut self.scratch);
            if !self.scratch.is_empty() {
                buf.append(&mut self.scratch);
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_nettypes::Nanos;

    fn pkt(i: u64, src: u32) -> PacketRecord {
        PacketRecord::new(Nanos::from_micros(i), src, 1, 100)
    }

    #[test]
    fn closure_gate_filters_and_preserves_order() {
        let pkts: Vec<PacketRecord> = (0..100).map(|i| pkt(i, i as u32 % 4)).collect();
        let mut filter = RuleFilter::new(pkts.iter().copied(), |p: &PacketRecord| p.src != 2);
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while filter.pull_chunk(&mut buf) {
            assert!(!buf.is_empty(), "pull_chunk must not return true with an empty buf");
            got.append(&mut buf);
        }
        assert_eq!(got.len(), 75);
        assert!(got.iter().all(|p| p.src != 2));
        assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn fully_blocked_stream_ends_cleanly() {
        let pkts: Vec<PacketRecord> = (0..10_000).map(|i| pkt(i, 7)).collect();
        let mut filter = RuleFilter::new(pkts.iter().copied(), |_: &PacketRecord| false);
        let mut buf = Vec::new();
        assert!(!filter.pull_chunk(&mut buf), "all-dropped stream must report exhaustion");
        assert!(buf.is_empty());
    }

    #[test]
    fn blocked_bursts_are_skipped_not_surfaced_as_empty_chunks() {
        // 3 chunks' worth of blocked packets followed by one admitted
        // packet: a single pull must skip past the blocked span.
        let n = crate::source::DEFAULT_CHUNK * 3;
        let pkts: Vec<PacketRecord> =
            (0..n as u64).map(|i| pkt(i, 2)).chain(std::iter::once(pkt(n as u64, 9))).collect();
        let mut filter = RuleFilter::new(pkts.iter().copied(), |p: &PacketRecord| p.src == 9);
        let mut buf = Vec::new();
        assert!(filter.pull_chunk(&mut buf));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].src, 9);
        buf.clear();
        assert!(!filter.pull_chunk(&mut buf));
    }

    #[test]
    fn gate_counters_are_reachable_mid_stream() {
        struct Counting {
            dropped: u64,
        }
        impl PacketGate for Counting {
            fn admit_chunk(&mut self, chunk: &mut Vec<PacketRecord>) {
                chunk.retain(|p| {
                    if p.src == 0 {
                        self.dropped += 1;
                        return false;
                    }
                    true
                });
            }
        }
        let pkts: Vec<PacketRecord> = (0..50).map(|i| pkt(i, i as u32 % 2)).collect();
        let mut filter = RuleFilter::new(pkts.iter().copied(), Counting { dropped: 0 });
        let mut buf = Vec::new();
        while filter.pull_chunk(&mut buf) {
            buf.clear();
        }
        assert_eq!(filter.gate().dropped, 25);
    }
}
