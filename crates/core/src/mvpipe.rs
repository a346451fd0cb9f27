//! MVPipe-style HHH: a **single bottom-level pipe** of majority-vote
//! buckets, O(1) per packet regardless of hierarchy depth.
//!
//! Every other per-level detector here pays one sketch update per
//! hierarchy level per packet (RHHH flattens that only by sampling a
//! level, trading convergence time). MVPipe (Tang et al., 2021) keeps
//! *one* array of buckets keyed by bottom-level prefixes and defers the
//! hierarchy entirely to report time: a packet hashes to exactly one
//! bucket and runs a majority-vote update there — constant work whether
//! the hierarchy has 5 levels (byte-wise IPv4) or 9 (hextet IPv6).
//! Ancestor estimates are produced lazily by generalizing the monitored
//! bottom-level candidates upward and summing, then running the shared
//! bottom-up discount.
//!
//! Per bucket the detector keeps the classic majority-vote triple:
//! the total weight hashed into the bucket (an upper bound on any key
//! monitored there), the current candidate key, and its vote margin (a
//! lower bound on the candidate's true weight in the bucket — votes
//! only accumulate on the candidate's own arrivals). Keys with true
//! weight above half their bucket's traffic are guaranteed monitored.

use crate::detector::{HhhDetector, MergeableDetector};
use crate::exact::discount_bottom_up;
use crate::kind::Kind;
use crate::report::{HhhReport, Threshold};
use crate::snapshot::{Body, DetectorSnapshot, MvPipeBody, SnapshotError, SnapshotFrame};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use hhh_sketches::hash::hash_of;
use std::collections::HashMap;

/// Seed of the bucket-placement hash. Fixed so a key occupies the same
/// bucket in every process — bucket-wise merge and snapshot restore
/// depend on it.
const BUCKET_SEED: u64 = 0x4D56_5049; // "MVPI"

/// Seed of the hash that breaks vote ties during merge. Fixed so the
/// surviving candidate is identical across processes and hosts.
const MERGE_TIE_SEED: u64 = 0x4D56_7143;

/// One majority-vote bucket: the total weight hashed here, the current
/// candidate key, and its vote margin.
///
/// `repr(C)` pins the counter pair to the bucket's first 16 bytes:
/// the per-packet read-modify-write then always hits one aligned
/// 16-byte chunk, even when a wide-key bucket straddles a cache
/// line (the key is a load-only compare off the critical path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct MvBucket<K> {
    /// Total weight hashed into this bucket; an upper bound on the
    /// candidate's true weight here.
    pub count: u64,
    /// The candidate's vote margin; a lower bound on its true weight
    /// here (votes only grow on the candidate's own arrivals).
    pub vote: u64,
    /// The current candidate key (the majority-vote winner so far).
    pub key: K,
}

/// Single-pipe majority-vote HHH detector (MVPipe).
#[derive(Clone, Debug)]
pub struct MvPipeHhh<H: Hierarchy> {
    hierarchy: H,
    /// The bottom-level pipe, keyed by raw **items** rather than
    /// level-0 prefixes — the two are bijective
    /// ([`Hierarchy::prefix_item`]), and the item is strictly narrower
    /// (an IPv6 prefix is a u128 *plus* a length byte plus alignment
    /// padding: 32 B where the item is 16 B). That keeps a slot at
    /// 24 B for IPv4 and 32 B for IPv6 and makes the hot-path key
    /// compare a bare integer compare. Placement is
    /// `hash(item_prefix(key)) % buckets.len()` — the prefix hash, so
    /// the wire decoder (which sees prefix rows) recomputes identical
    /// slots. A bucket with `count == 0` is empty (its key is an
    /// arbitrary filler) — a sentinel instead of `Option` so a slot
    /// carries no discriminant padding.
    buckets: Vec<MvBucket<H::Item>>,
    total: u64,
}

impl<H: Hierarchy> MvPipeHhh<H> {
    /// A detector with `buckets` majority-vote buckets. For a
    /// threshold θ, `buckets ≥ 2/θ` keeps the per-bucket load below
    /// the threshold so true HHH keys win their majority votes.
    pub fn new(hierarchy: H, buckets: usize) -> Self {
        assert!(buckets > 0, "MvPipeHhh bucket count must be non-zero");
        let empty = MvBucket { key: H::Item::default(), count: 0, vote: 0 };
        MvPipeHhh { hierarchy, buckets: vec![empty; buckets], total: 0 }
    }

    /// Number of buckets in the pipe (the construction parameter).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The occupied buckets, in pipe order (read-only, for
    /// diagnostics). Keys are raw items; generalize with
    /// [`Hierarchy::item_prefix`] for display.
    pub fn bucket_entries(&self) -> impl Iterator<Item = &MvBucket<H::Item>> {
        self.buckets.iter().filter(|b| b.count > 0)
    }

    /// Build per-level estimate maps lazily from the bottom pipe:
    /// level 0 holds the monitored candidates' bucket totals; each
    /// higher level is the previous one generalized one step and
    /// summed. This is the only place the hierarchy is touched — the
    /// update path never sees it.
    fn level_maps(&self) -> Vec<HashMap<H::Prefix, u64>> {
        let n = self.hierarchy.levels();
        let mut maps: Vec<HashMap<H::Prefix, u64>> = Vec::with_capacity(n);
        maps.push(
            self.bucket_entries().map(|b| (self.hierarchy.item_prefix(b.key), b.count)).collect(),
        );
        for level in 0..n - 1 {
            let mut parents: HashMap<H::Prefix, u64> = HashMap::with_capacity(maps[level].len());
            for (&p, &c) in &maps[level] {
                let parent = self.hierarchy.parent(p).expect("non-root");
                *parents.entry(parent).or_default() += c;
            }
            maps.push(parents);
        }
        maps
    }

    /// The wire body: the bucket count and sorted, self-describing
    /// `(prefix, count, vote)` rows. Rows sort by the prefix's display
    /// form, so equal pipes (as bucket sets) export identical rows;
    /// bucket indexes do not ride along because placement is
    /// recomputed from the key on restore.
    pub(crate) fn body(&self) -> Body<'_> {
        let mut rows: Vec<(String, u64, u64)> = self
            .bucket_entries()
            .map(|b| (self.hierarchy.item_prefix(b.key).to_string(), b.count, b.vote))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Body::MvPipe(MvPipeBody { buckets: self.buckets.len() as u64, rows })
    }
}

impl<H: Hierarchy> HhhDetector<H> for MvPipeHhh<H> {
    /// The single-packet path is the batched path on a one-element
    /// batch — one code path to maintain, identical state either way.
    #[inline]
    fn observe(&mut self, item: H::Item, weight: u64) {
        self.observe_batch(&[(item, weight)]);
    }

    /// The O(1)-per-packet hot path, fully fused and allocation-free:
    /// hash the item's bottom-level prefix (the host prefix — no mask
    /// table, no level arithmetic) and run one majority-vote bucket
    /// update keyed by the raw item, per packet. A multi-level
    /// detector stages prefixes level-major through a scratch buffer;
    /// a single-pipe detector has exactly one level, so there is
    /// nothing to stage — the hot loop's memory traffic is one
    /// sentinel-packed bucket per packet regardless of item width or
    /// hierarchy depth, and the key compare is a bare integer compare.
    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        let MvPipeHhh { hierarchy, buckets, total } = self;
        let n = buckets.len() as u64;
        for &(item, w) in batch {
            *total += w;
            let p = hierarchy.item_prefix(item);
            let b = &mut buckets[(hash_of(&p, BUCKET_SEED) % n) as usize];
            if b.count == 0 {
                *b = MvBucket { key: item, count: w, vote: w };
            } else {
                b.count += w;
                if b.key == item {
                    b.vote += w;
                } else if b.vote >= w {
                    b.vote -= w;
                } else {
                    // Majority flip: the challenger overcomes the
                    // incumbent's margin and takes the bucket with
                    // the remainder as its own margin.
                    b.vote = w - b.vote;
                    b.key = item;
                }
            }
        }
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        let t = threshold.absolute(self.total);
        let mut reports = discount_bottom_up(&self.hierarchy, &self.level_maps(), t);
        // Lower bounds: a bucket's candidate holds at least its vote
        // margin, so a report's slack is the count-minus-vote sum of
        // its monitored descendants' buckets.
        for r in &mut reports {
            let slack: u64 = self
                .bucket_entries()
                .filter(|b| self.hierarchy.contains(r.prefix, self.hierarchy.item_prefix(b.key)))
                .map(|b| b.count - b.vote)
                .sum();
            r.lower_bound = r.discounted.saturating_sub(slack);
        }
        reports
    }

    fn reset(&mut self) {
        for b in &mut self.buckets {
            b.count = 0;
            b.vote = 0;
        }
        self.total = 0;
    }

    fn state_bytes(&self) -> usize {
        self.buckets.len() * core::mem::size_of::<MvBucket<H::Item>>()
    }

    fn name(&self) -> &'static str {
        Kind::MvPipe.label()
    }
}

impl<H: Hierarchy> MergeableDetector for MvPipeHhh<H> {
    /// Bucket-wise merge in the union-then-prune spirit of
    /// [`SpaceSaving`](hhh_sketches::SpaceSaving): bucket `i` of both
    /// pipes covers the same key population (placement is the fixed
    /// hash), totals add, and the candidates fight one majority vote —
    /// the larger margin wins and keeps the difference, so the winner's
    /// vote stays a lower bound over the combined stream. Vote ties
    /// resolve by a fixed key hash, never by argument internals beyond
    /// the bucket contents, so a pipe restored from a snapshot merges
    /// to the identical result — which is what makes cross-process
    /// folds reproduce in-process merges bit-for-bit.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "mvpipe bucket count mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            if b.count == 0 {
                continue;
            }
            if a.count == 0 {
                *a = *b;
            } else {
                a.count += b.count;
                if a.key == b.key {
                    a.vote += b.vote;
                } else {
                    let keep_a = match a.vote.cmp(&b.vote) {
                        core::cmp::Ordering::Greater => true,
                        core::cmp::Ordering::Less => false,
                        core::cmp::Ordering::Equal => {
                            (hash_of(&a.key, MERGE_TIE_SEED), a.key)
                                <= (hash_of(&b.key, MERGE_TIE_SEED), b.key)
                        }
                    };
                    if keep_a {
                        a.vote -= b.vote;
                    } else {
                        a.vote = b.vote - a.vote;
                        a.key = b.key;
                    }
                }
            }
        }
        self.total += other.total;
    }

    /// Wire format: `{"buckets":B,"entries":[[prefix, count, vote],
    /// …]}`, rows sorted by the prefix's display form. Bucket indexes
    /// are omitted — placement is the fixed hash of the key, so the
    /// decoder re-derives them, and folding restored pipes is the
    /// bucket-wise [`merge`](Self::merge).
    fn snapshot(&self) -> Option<DetectorSnapshot> {
        Some(self.body().into_snapshot(self.total))
    }

    /// The same body as [`snapshot`](MergeableDetector::snapshot),
    /// encoded as a v2 frame with no JSON on the path.
    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        self.body().to_frame(self.total, start, at).ok()
    }
}

impl<H: Hierarchy> MvPipeHhh<H> {
    /// The validated decode core both wire formats share: rebuild the
    /// pipe from already-parsed `(prefix, count, vote)` rows, rejecting
    /// hostile bucket counts, non-bottom-level prefixes, `vote >
    /// count`, duplicate prefixes, distinct prefixes colliding into
    /// one bucket (impossible in an honestly encoded pipe), and an
    /// envelope total that does not equal the sum of bucket counts.
    pub(crate) fn from_wire_rows(
        hierarchy: H,
        buckets: u64,
        rows: Vec<(H::Prefix, u64, u64)>,
        envelope_total: u64,
    ) -> Result<Self, SnapshotError> {
        let buckets = crate::ss_hhh::wire_capacity(buckets)?;
        if rows.len() > buckets {
            return Err(SnapshotError::Invalid {
                field: "entries",
                what: "more entries than buckets",
            });
        }
        let empty = MvBucket { key: H::Item::default(), count: 0, vote: 0 };
        let mut pipe: Vec<MvBucket<H::Item>> = vec![empty; buckets];
        let mut total: u64 = 0;
        for (key, count, vote) in rows {
            if count == 0 {
                // An occupied bucket always carries weight; a zero-count
                // row would vanish on re-encode, so no honest encoder
                // emits one.
                return Err(SnapshotError::Invalid { field: "entries", what: "zero-count entry" });
            }
            if vote > count {
                return Err(SnapshotError::Invalid {
                    field: "entries",
                    what: "vote exceeds count",
                });
            }
            // The pipe stores raw items; only level-0 prefixes invert.
            let Some(item) = hierarchy.prefix_item(key) else {
                return Err(SnapshotError::Invalid {
                    field: "entries",
                    what: "prefix is not bottom-level",
                });
            };
            let slot = (hash_of(&key, BUCKET_SEED) % buckets as u64) as usize;
            if pipe[slot].count > 0 {
                return Err(if pipe[slot].key == item {
                    SnapshotError::Invalid { field: "entries", what: "duplicate prefix" }
                } else {
                    SnapshotError::Invalid {
                        field: "entries",
                        what: "two prefixes hash to one bucket",
                    }
                });
            }
            pipe[slot] = MvBucket { key: item, count, vote };
            total = total
                .checked_add(count)
                .ok_or(SnapshotError::Invalid { field: "entries", what: "counts overflow u64" })?;
        }
        if total != envelope_total {
            return Err(SnapshotError::Invalid {
                field: "total",
                what: "bucket counts do not sum to the envelope total",
            });
        }
        Ok(MvPipeHhh { hierarchy, buckets: pipe, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactHhh;
    use hhh_hierarchy::{Ipv4Hierarchy, Ipv6Hierarchy};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Zipf-ish deterministic stream for comparisons (the `ss_hhh`
    /// test stream).
    fn stream(n: usize, seed: u64) -> Vec<(u32, u64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let rank = (rng.gen::<f64>().powi(3) * 200.0) as u32; // skewed
                let net = rank % 12;
                let item = (10 << 24) | (net << 16) | rank;
                (item, 40 + (rank as u64 * 7) % 1400)
            })
            .collect()
    }

    /// Rebuild a pipe from its snapshot through the v1 decoder.
    fn restore(
        h: Ipv4Hierarchy,
        snap: &DetectorSnapshot,
    ) -> Result<MvPipeHhh<Ipv4Hierarchy>, SnapshotError> {
        crate::RestoredDetector::from_snapshot(&h, snap).map(|d| match d {
            crate::RestoredDetector::MvPipe(d) => d,
            other => panic!("restored a `{}` detector", other.kind()),
        })
    }

    #[test]
    fn recall_is_high_with_enough_buckets() {
        let h = Ipv4Hierarchy::bytes();
        let mut exact = ExactHhh::new(h);
        let mut mv = MvPipeHhh::new(h, 4096);
        for (item, w) in stream(20_000, 5) {
            exact.observe(item, w);
            mv.observe(item, w);
        }
        assert_eq!(exact.total(), mv.total());
        for pct in [1.0, 5.0, 10.0] {
            let t = Threshold::percent(pct);
            let truth: std::collections::HashSet<_> =
                exact.report(t).into_iter().map(|r| r.prefix).collect();
            let found: std::collections::HashSet<_> =
                mv.report(t).into_iter().map(|r| r.prefix).collect();
            let missed = truth.difference(&found).count();
            // Ancestor estimates are lazy sums of monitored candidates,
            // so recall is near-perfect rather than guaranteed.
            assert!(
                missed * 10 <= truth.len(),
                "at {pct}%: missed {missed} of {} true HHHs",
                truth.len()
            );
        }
    }

    #[test]
    fn precision_reasonable() {
        let h = Ipv4Hierarchy::bytes();
        let mut exact = ExactHhh::new(h);
        let mut mv = MvPipeHhh::new(h, 4096);
        for (item, w) in stream(30_000, 9) {
            exact.observe(item, w);
            mv.observe(item, w);
        }
        let t = Threshold::percent(5.0);
        let truth: std::collections::HashSet<_> =
            exact.report(t).into_iter().map(|r| r.prefix).collect();
        let found = mv.report(t);
        let false_pos = found.iter().filter(|r| !truth.contains(&r.prefix)).count();
        assert!(false_pos <= found.len() / 2, "{false_pos} false positives of {}", found.len());
    }

    #[test]
    fn majority_flow_wins_its_bucket() {
        // A heavy flow sharing a bucket with scattered light flows must
        // end up as the bucket's candidate with a healthy vote margin.
        let h = Ipv4Hierarchy::bytes();
        let mut mv = MvPipeHhh::new(h, 1);
        for i in 0..100u32 {
            mv.observe(0x0A01_0101, 3); // heavy: weight 300
            mv.observe(0x1400_0000 | i, 1); // tail: weight 100, all distinct
        }
        let b = mv.bucket_entries().next().expect("bucket occupied");
        assert_eq!(b.key, 0x0A01_0101);
        assert_eq!(b.count, 400);
        assert!(b.vote >= 200, "vote margin {} too small", b.vote);
    }

    #[test]
    fn per_packet_work_is_one_bucket_at_any_depth() {
        // Structural "flat across depth": one observe touches exactly
        // one bucket, for H=5 (ipv4 bytes) and H=9 (ipv6 hextets)
        // alike.
        let mut v4 = MvPipeHhh::new(Ipv4Hierarchy::bytes(), 64);
        v4.observe(0x0A01_0101, 7);
        assert_eq!(v4.bucket_entries().count(), 1);
        assert_eq!(v4.bucket_entries().next().unwrap().count, 7);

        let mut v6 = MvPipeHhh::new(Ipv6Hierarchy::hextets(), 64);
        v6.observe(0x2001_0db8_0000_0000_0000_0000_0000_0001u128, 7);
        assert_eq!(v6.bucket_entries().count(), 1);
        assert_eq!(v6.bucket_entries().next().unwrap().count, 7);
    }

    #[test]
    fn batch_equals_scalar() {
        let h = Ipv4Hierarchy::bytes();
        let s = stream(5_000, 3);
        let mut scalar = MvPipeHhh::new(h, 256);
        let mut batched = MvPipeHhh::new(h, 256);
        for &(item, w) in &s {
            scalar.observe(item, w);
        }
        for chunk in s.chunks(333) {
            batched.observe_batch(chunk);
        }
        assert_eq!(scalar.total(), batched.total());
        let t = Threshold::percent(5.0);
        assert_eq!(scalar.report(t), batched.report(t));
        assert_eq!(scalar.snapshot(), batched.snapshot());
    }

    #[test]
    fn merge_is_a_pure_function_of_bucket_contents() {
        // A pipe restored from its snapshot must merge to the same
        // result as the live pipe — cross-process folds depend on it.
        let h = Ipv4Hierarchy::bytes();
        let mut a = MvPipeHhh::new(h, 64);
        let mut b = MvPipeHhh::new(h, 64);
        for (i, (item, w)) in stream(4_000, 11).into_iter().enumerate() {
            if i % 2 == 0 {
                a.observe(item, w);
            } else {
                b.observe(item, w);
            }
        }
        let restored = restore(h, &a.snapshot().unwrap()).expect("snapshot restores");
        let mut live = a.clone();
        live.merge(&b);
        let mut folded = restored;
        folded.merge(&b);
        assert_eq!(live.snapshot(), folded.snapshot());
        assert_eq!(live.total(), folded.total());
    }

    #[test]
    fn merge_keeps_counts_and_bounds() {
        let h = Ipv4Hierarchy::bytes();
        let mut whole = ExactHhh::new(h);
        let mut a = MvPipeHhh::new(h, 512);
        let mut b = MvPipeHhh::new(h, 512);
        for (i, (item, w)) in stream(10_000, 17).into_iter().enumerate() {
            whole.observe(item, w);
            if i < 5_000 {
                a.observe(item, w);
            } else {
                b.observe(item, w);
            }
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        // Bucket counts partition the stream: they must sum to the
        // total, and each candidate's vote stays a lower bound on its
        // true weight.
        assert_eq!(a.bucket_entries().map(|e| e.count).sum::<u64>(), whole.total());
        for e in a.bucket_entries() {
            assert!(e.vote <= e.count);
            // The vote margin survives the merge as a lower bound on
            // the candidate's true weight.
            assert!(e.vote <= whole.count_of(&e.key), "vote bound broken for item {:#x}", e.key);
        }
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_corruption() {
        let h = Ipv4Hierarchy::bytes();
        let mut mv = MvPipeHhh::new(h, 32);
        for (item, w) in stream(2_000, 7) {
            mv.observe(item, w);
        }
        let snap = mv.snapshot().unwrap();
        let back = restore(h, &snap).expect("roundtrip");
        assert_eq!(back.snapshot().unwrap(), snap);
        assert_eq!(back.total(), mv.total());
        let t = Threshold::percent(5.0);
        assert_eq!(back.report(t), mv.report(t));

        // A tampered envelope total no longer matches the bucket sums.
        let mut bad = snap.clone();
        bad.total += 1;
        assert!(matches!(
            restore(h, &bad),
            Err(crate::snapshot::SnapshotError::Invalid { field: "total", .. })
        ));
    }

    #[test]
    fn reset_and_state() {
        let h = Ipv4Hierarchy::bytes();
        let mut mv = MvPipeHhh::new(h, 16);
        mv.observe(1, 10);
        assert!(mv.state_bytes() > 0);
        assert_eq!(mv.name(), "mvpipe");
        assert_eq!(mv.buckets(), 16);
        mv.reset();
        assert_eq!(mv.total(), 0);
        assert!(mv.report(Threshold::percent(1.0)).is_empty());
    }
}
