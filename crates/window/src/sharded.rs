//! Sharded multi-core ingestion: hash-partition a stream by key into
//! `K` shard detectors on their own threads, feed them
//! batch-at-a-time, and merge shard states at report points.
//!
//! This is the execution model RHHH and MVPipe argue line-rate HHH
//! detection needs: per-packet work stays on one core's cache-warm
//! detector, cross-core traffic is one `Vec` hand-off per batch, and
//! correctness rests on [`MergeableDetector`]:
//!
//! * partitioning is **by key**, so each shard sees a disjoint
//!   sub-stream — exactly the precondition the merge contracts demand;
//! * an exact detector merged across shards is bit-identical to one
//!   detector fed the whole stream, so
//!   [`ShardedDisjoint`](crate::ShardedDisjoint) with
//!   [`ExactHhh`](hhh_core::ExactHhh) reproduces
//!   [`Disjoint`](crate::Disjoint) verbatim;
//! * approximate detectors keep their error bounds, additively.
//!
//! One pool ([`ShardPool`], entered through [`with_shards`]) serves all
//! three sharded engines. Each worker owns exactly one detector and
//! answers three requests: observe a batch, send back a clone of its
//! state, reset. Whatever a schedule needs beyond that — the sliding
//! engine's ring of epochs — lives in the engine, once.
//!
//! The worker protocol is deliberately dumb (one `mpsc` channel per
//! shard, FIFO). The pool buffers pushed observations and scatters
//! them a batch at a time; every request flushes the buffer first, so
//! FIFO ordering makes a state request observe every observation
//! pushed before it — no barriers, no shared state, no unsafe. A
//! worker that panics fails the pipeline with its own panic message.

use hhh_core::{ContinuousDetector, HhhDetector, MergeableDetector};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use hhh_sketches::hash::hash_of;
use std::marker::PhantomData;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::ScopedJoinHandle;

/// Default packets per batch: big enough to amortize the channel
/// hand-off and the batched detectors' per-batch setup, small enough to
/// stay resident in L2 (8192 × 12 B ≈ 96 KiB).
pub const DEFAULT_BATCH: usize = 8192;

/// Seed for the shard-partitioning hash. Fixed and *distinct from any
/// sketch seed*, so shard assignment is uncorrelated with in-detector
/// bucketing.
const SHARD_SEED: u64 = 0x5AAD_ED01;

/// The shard a key belongs to among `shards` shards.
///
/// The hash and its seed are **fixed**: the mapping is stable
/// across runs, hosts and versions of this crate (pinned by a golden
/// test), so operators can reason about shard placement. Correctness
/// never depends on *which* shard a key lands on, though — the merge
/// contracts only require that the partition be **disjoint** (each key
/// always on the same shard within a run), so any stable hash would
/// merge to the same answer.
#[inline]
pub fn shard_of<T: core::hash::Hash>(item: &T, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // Widening multiply maps the hash uniformly onto [0, shards).
    ((hash_of(item, SHARD_SEED) as u128 * shards as u128) >> 64) as usize
}

/// One observation a shard detector `D` folds in: `(item, weight)`
/// pairs for windowed detectors, `(ts, item, weight)` triples for
/// continuous ones. The pool partitions observations by their item.
pub trait Observation<H: Hierarchy, D>: Copy + Send {
    /// The key this observation is partitioned by.
    fn item(&self) -> &H::Item;

    /// Fold a batch of observations into `detector`.
    fn observe(detector: &mut D, batch: &[Self]);
}

impl<H: Hierarchy, D: HhhDetector<H>> Observation<H, D> for (H::Item, u64)
where
    H::Item: Send,
{
    fn item(&self) -> &H::Item {
        &self.0
    }

    fn observe(detector: &mut D, batch: &[Self]) {
        detector.observe_batch(batch);
    }
}

impl<H: Hierarchy, C: ContinuousDetector<H>> Observation<H, C> for (Nanos, H::Item, u64)
where
    H::Item: Send,
{
    fn item(&self) -> &H::Item {
        &self.1
    }

    fn observe(detector: &mut C, batch: &[Self]) {
        detector.observe_batch(batch);
    }
}

/// The three requests a shard worker answers, in FIFO order.
enum Msg<T, D> {
    /// Observe a batch.
    Batch(Vec<T>),
    /// Send a clone of the detector state back through the channel.
    Clone(Sender<D>),
    /// Forget everything (window or epoch boundary). The message
    /// carries the reset because only windowed detectors have one;
    /// continuous pools never send it.
    Reset(fn(&mut D)),
}

/// Handle to a running shard pool: push observations in, pull merged
/// states out. Created by [`with_shards`].
pub struct ShardPool<'scope, H, T, D> {
    senders: Vec<Sender<Msg<T, D>>>,
    workers: Vec<ScopedJoinHandle<'scope, ()>>,
    /// Pushed observations not yet scattered: scattered once `batch`
    /// long, and before every request.
    pending: Vec<T>,
    batch: usize,
    /// Per-shard scatter buffers, reused across batches.
    scatter: Vec<Vec<T>>,
    _hierarchy: PhantomData<H>,
}

impl<H, T, D> ShardPool<'_, H, T, D>
where
    H: Hierarchy,
    T: Observation<H, D>,
    D: MergeableDetector + Clone + Send,
{
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Buffer one observation. A full buffer is scattered to the shard
    /// workers by key hash, and the call returns once the batches are
    /// *enqueued* (workers process asynchronously).
    pub fn push(&mut self, obs: T) {
        self.pending.push(obs);
        if self.pending.len() >= self.batch {
            self.flush();
        }
    }

    /// Every shard's detector state, merged in shard order (shard 0's
    /// state with the rest merged in). The buffer is flushed first, so
    /// the state covers every observation pushed before the call.
    /// Requests go out to all workers before any reply is awaited, so
    /// shards quiesce concurrently. The pooled detectors keep running —
    /// this is a read point, not a stop.
    pub fn merged(&mut self) -> D {
        self.flush();
        let replies: Vec<Receiver<D>> = (0..self.shards())
            .map(|shard| {
                let (reply, rx) = channel();
                self.send(shard, Msg::Clone(reply));
                rx
            })
            .collect();
        let mut states = replies
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| rx.recv().unwrap_or_else(|_| self.worker_died(shard)));
        let mut merged = states.next().expect("a pool has at least one shard");
        for state in states {
            merged.merge(&state);
        }
        merged
    }

    /// Scatter the buffered observations to the workers. One shard
    /// skips the scatter entirely; otherwise filled buffers are handed
    /// over and replaced with same-capacity empties, so steady-state
    /// scattering never reallocates.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let k = self.shards();
        if k == 1 {
            let batch = std::mem::replace(&mut self.pending, Vec::with_capacity(self.batch));
            self.send(0, Msg::Batch(batch));
            return;
        }
        for obs in self.pending.drain(..) {
            self.scatter[shard_of(obs.item(), k)].push(obs);
        }
        for shard in 0..k {
            if !self.scatter[shard].is_empty() {
                let capacity = self.scatter[shard].capacity();
                let sub = std::mem::replace(&mut self.scatter[shard], Vec::with_capacity(capacity));
                self.send(shard, Msg::Batch(sub));
            }
        }
    }

    fn send(&mut self, shard: usize, msg: Msg<T, D>) {
        if self.senders[shard].send(msg).is_err() {
            self.worker_died(shard);
        }
    }

    /// A worker hung up, which it only does by panicking: join it and
    /// re-raise its panic, so the pipeline fails with the detector's
    /// own message.
    fn worker_died(&mut self, shard: usize) -> ! {
        match self.workers.swap_remove(shard).join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("shard worker {shard} returned with its channel open"),
        }
    }
}

impl<H, D> ShardPool<'_, H, (H::Item, u64), D>
where
    H: Hierarchy,
    H::Item: Send,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
{
    /// Reset every shard detector (window or epoch boundary). The
    /// buffer is flushed first, so the reset lands after every
    /// observation pushed before it.
    pub fn reset(&mut self) {
        self.flush();
        for shard in 0..self.shards() {
            self.send(shard, Msg::Reset(<D as HhhDetector<H>>::reset));
        }
    }
}

/// Run `body` against a pool of shard detectors, one worker thread per
/// detector, scattering observations `batch` at a time. Workers shut
/// down (and the threads join) when `body` returns; a worker panic no
/// request noticed is re-raised then.
///
/// ```
/// use hhh_core::ExactHhh;
/// use hhh_hierarchy::Ipv4Hierarchy;
/// use hhh_window::sharded::{with_shards, DEFAULT_BATCH};
///
/// let detectors: Vec<_> =
///     (0..4).map(|_| ExactHhh::new(Ipv4Hierarchy::bytes())).collect();
/// let merged = with_shards(detectors, DEFAULT_BATCH, |pool| {
///     pool.push((0x0A010101, 900));
///     pool.push((0x14000001, 100));
///     pool.merged()
/// });
/// use hhh_core::HhhDetector;
/// assert_eq!(HhhDetector::<Ipv4Hierarchy>::total(&merged), 1000);
/// ```
pub fn with_shards<H, T, D, R>(
    detectors: Vec<D>,
    batch: usize,
    body: impl FnOnce(&mut ShardPool<'_, H, T, D>) -> R,
) -> R
where
    H: Hierarchy,
    T: Observation<H, D>,
    D: MergeableDetector + Clone + Send,
{
    assert!(!detectors.is_empty(), "need at least one shard detector");
    assert!(batch > 0, "batch size must be non-zero");
    let k = detectors.len();
    std::thread::scope(|scope| {
        let (senders, workers): (Vec<_>, Vec<_>) = detectors
            .into_iter()
            .map(|mut detector| {
                let (tx, rx) = channel::<Msg<T, D>>();
                let worker = scope.spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Msg::Batch(batch) => T::observe(&mut detector, &batch),
                            Msg::Clone(reply) => {
                                // A dropped reply receiver just means the
                                // caller stopped caring; keep serving.
                                let _ = reply.send(detector.clone());
                            }
                            Msg::Reset(reset) => reset(&mut detector),
                        }
                    }
                });
                (tx, worker)
            })
            .unzip();
        let mut pool = ShardPool {
            senders,
            workers,
            pending: Vec::with_capacity(batch),
            batch,
            scatter: vec![Vec::new(); k],
            _hierarchy: PhantomData,
        };
        let result = body(&mut pool);
        // Close the channels; the workers drain and exit.
        let ShardPool { senders, workers, .. } = pool;
        drop(senders);
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Disjoint, Pipeline, ShardedDisjoint};
    use hhh_core::{ExactHhh, Threshold};
    use hhh_hierarchy::Ipv4Hierarchy;
    use hhh_nettypes::{PacketRecord, TimeSpan};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn h() -> Ipv4Hierarchy {
        Ipv4Hierarchy::bytes()
    }

    fn stream(secs: u64, pps: u64, seed: u64) -> Vec<PacketRecord> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = secs * pps;
        (0..n)
            .map(|i| {
                let ts = Nanos::from_nanos(i * 1_000_000_000 / pps + rng.gen_range(0..1000));
                let src: u32 = if rng.gen::<f64>() < 0.25 {
                    0x0A010101
                } else {
                    (rng.gen_range(10u32..60) << 24) | rng.gen_range(0..2048)
                };
                PacketRecord::new(ts, src, 1, 100 + rng.gen_range(0..900))
            })
            .collect()
    }

    /// Golden pin of the hash→shard mapping: `shard_of` is part of the
    /// operational surface (operators reason about shard placement, and
    /// a run restarted on another host must partition identically), so
    /// its exact values are frozen here. Merge *correctness* does not
    /// depend on the mapping — only on its disjointness — so if this
    /// test ever needs updating, that is an operational compatibility
    /// break, not a correctness bug; bump it consciously.
    #[test]
    fn shard_of_mapping_is_pinned() {
        let keys = [0u32, 1, 7, 42, 0x0A01_0101, 0x1400_0001, 0xDEAD_BEEF, 0xFFFF_FFFF];
        let golden: [(usize, [usize; 8]); 3] = [
            (2, [1, 0, 0, 1, 0, 0, 0, 0]),
            (4, [3, 1, 0, 2, 1, 1, 0, 0]),
            (8, [6, 3, 0, 4, 2, 2, 1, 1]),
        ];
        for (k, want) in golden {
            let got: Vec<usize> = keys.iter().map(|i| shard_of(i, k)).collect();
            assert_eq!(got, want, "hash→shard mapping changed at K={k}");
        }
    }
    #[test]
    fn shard_partition_is_total_and_stable() {
        for k in [1usize, 2, 4, 8] {
            for item in 0..1000u32 {
                let s = shard_of(&item, k);
                assert!(s < k);
                assert_eq!(s, shard_of(&item, k), "assignment must be stable");
            }
        }
    }

    #[test]
    fn shard_partition_is_roughly_balanced() {
        let k = 4;
        let mut counts = [0usize; 4];
        for item in 0..100_000u32 {
            counts[shard_of(&item, k)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - 25_000.0).abs() / 25_000.0;
            assert!(rel < 0.05, "shard {i} holds {c} of 100k keys");
        }
    }

    #[test]
    fn pool_snapshot_equals_unsharded_for_exact() {
        let batches: Vec<Vec<(u32, u64)>> = (0..10)
            .map(|b| (0..500).map(|i| ((b * 7 + i) % 313, 1 + (i % 9) as u64)).collect())
            .collect();
        let mut single = ExactHhh::new(h());
        for batch in &batches {
            HhhDetector::<Ipv4Hierarchy>::observe_batch(&mut single, batch);
        }
        let detectors: Vec<_> = (0..4).map(|_| ExactHhh::new(h())).collect();
        let merged = with_shards(detectors, 500, |pool| {
            for &obs in batches.iter().flatten() {
                pool.push(obs);
            }
            pool.merged()
        });
        assert_eq!(
            HhhDetector::<Ipv4Hierarchy>::total(&single),
            HhhDetector::<Ipv4Hierarchy>::total(&merged),
        );
        let t = Threshold::percent(1.0);
        assert_eq!(single.report(t), merged.report(t));
    }

    #[test]
    fn sharded_disjoint_matches_disjoint_exactly() {
        let pkts = stream(12, 500, 42);
        let horizon = TimeSpan::from_secs(12);
        let window = TimeSpan::from_secs(4);
        let ts = [Threshold::percent(1.0), Threshold::percent(5.0)];
        let mut single = ExactHhh::new(h());
        let reference = Pipeline::new(pkts.iter().copied())
            .engine(Disjoint::new(&mut single, horizon, window, &ts, |p| p.src))
            .collect()
            .run();
        for k in [1usize, 2, 4] {
            let detectors: Vec<_> = (0..k).map(|_| ExactHhh::new(h())).collect();
            let sharded = Pipeline::new(pkts.iter().copied())
                .engine(
                    ShardedDisjoint::new(detectors, horizon, window, &ts, |p| p.src)
                        // Deliberately small batch so several batches per
                        // window (and window-boundary flushes) are exercised.
                        .batch(257),
                )
                .collect()
                .run();
            assert_eq!(reference.len(), sharded.len());
            for (ti, (r_windows, s_windows)) in reference.iter().zip(&sharded).enumerate() {
                assert_eq!(r_windows.len(), s_windows.len(), "threshold {ti}, k={k}");
                for (r, s) in r_windows.iter().zip(s_windows) {
                    assert_eq!(r.index, s.index);
                    assert_eq!(r.total, s.total, "window {} k={k}", r.index);
                    assert_eq!(r.hhhs, s.hhhs, "window {} k={k}", r.index);
                }
            }
        }
    }

    #[test]
    fn reset_between_windows_isolates_them() {
        // One packet per window; each window's report must only see
        // its own packet.
        let pkts: Vec<PacketRecord> = (0..4u64)
            .map(|i| {
                PacketRecord::new(Nanos::from_millis(i * 1000 + 500), 0x0A000000 + i as u32, 1, 100)
            })
            .collect();
        let detectors: Vec<_> = (0..2).map(|_| ExactHhh::new(h())).collect();
        let reports = Pipeline::new(pkts.iter().copied())
            .engine(ShardedDisjoint::new(
                detectors,
                TimeSpan::from_secs(4),
                TimeSpan::from_secs(1),
                &[Threshold::percent(50.0)],
                |p| p.src,
            ))
            .collect()
            .run();
        assert_eq!(reports[0].len(), 4);
        for r in &reports[0] {
            assert_eq!(r.total, 100, "window {} leaked traffic", r.index);
        }
    }

    #[test]
    fn empty_stream_yields_empty_windows() {
        let detectors: Vec<_> = (0..3).map(|_| ExactHhh::new(h())).collect();
        let reports = Pipeline::new(std::iter::empty())
            .engine(ShardedDisjoint::new(
                detectors,
                TimeSpan::from_secs(6),
                TimeSpan::from_secs(2),
                &[Threshold::percent(5.0)],
                |p: &PacketRecord| p.src,
            ))
            .collect()
            .run();
        assert_eq!(reports[0].len(), 3);
        assert!(reports[0].iter().all(|r| r.total == 0 && r.is_empty()));
    }

    /// An exact detector that panics on its third batch.
    #[derive(Clone)]
    struct Fuse {
        inner: ExactHhh<Ipv4Hierarchy>,
        batches: usize,
    }

    impl HhhDetector<Ipv4Hierarchy> for Fuse {
        fn observe(&mut self, item: u32, weight: u64) {
            self.inner.observe(item, weight);
        }
        fn observe_batch(&mut self, batch: &[(u32, u64)]) {
            self.batches += 1;
            assert!(self.batches < 3, "fuse detector blew on batch {}", self.batches);
            self.inner.observe_batch(batch);
        }
        fn total(&self) -> u64 {
            HhhDetector::<Ipv4Hierarchy>::total(&self.inner)
        }
        fn report(
            &self,
            threshold: Threshold,
        ) -> Vec<hhh_core::HhhReport<hhh_nettypes::Ipv4Prefix>> {
            self.inner.report(threshold)
        }
        fn reset(&mut self) {
            HhhDetector::<Ipv4Hierarchy>::reset(&mut self.inner);
        }
        fn state_bytes(&self) -> usize {
            HhhDetector::<Ipv4Hierarchy>::state_bytes(&self.inner)
        }
        fn name(&self) -> &'static str {
            "fuse"
        }
    }

    impl MergeableDetector for Fuse {
        fn merge(&mut self, other: &Self) {
            self.inner.merge(&other.inner);
        }
    }

    /// A worker panic surfaces as the detector's own panic message, not
    /// as a generic "worker hung up".
    #[test]
    #[should_panic(expected = "fuse detector blew on batch 3")]
    fn dead_worker_fails_with_its_own_panic() {
        let pkts = stream(4, 500, 7);
        let detectors: Vec<_> =
            (0..2).map(|_| Fuse { inner: ExactHhh::new(h()), batches: 0 }).collect();
        Pipeline::new(pkts.iter().copied())
            .engine(
                ShardedDisjoint::new(
                    detectors,
                    TimeSpan::from_secs(4),
                    TimeSpan::from_secs(1),
                    &[Threshold::percent(5.0)],
                    |p| p.src,
                )
                .batch(64),
            )
            .collect()
            .run();
    }
}
