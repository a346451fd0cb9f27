//! The unified pipeline: **source → engine → sink**.
//!
//! One composable abstraction runs every window model. A [`Pipeline`]
//! is built in three steps:
//!
//! ```
//! use hhh_core::{ExactHhh, Threshold};
//! use hhh_hierarchy::Ipv4Hierarchy;
//! use hhh_nettypes::{Nanos, PacketRecord, TimeSpan};
//! use hhh_window::{Disjoint, Pipeline};
//!
//! let packets: Vec<PacketRecord> =
//!     (0..1000).map(|i| PacketRecord::new(Nanos::from_millis(i), i as u32 % 7, 1, 100)).collect();
//! let mut det = ExactHhh::new(Ipv4Hierarchy::bytes());
//! let reports = Pipeline::new(packets.iter().copied())
//!     .engine(Disjoint::new(
//!         &mut det,
//!         TimeSpan::from_secs(1),
//!         TimeSpan::from_millis(500),
//!         &[Threshold::percent(5.0)],
//!         |p| p.src,
//!     ))
//!     .collect()
//!     .run();
//! assert_eq!(reports.len(), 1, "one series per threshold");
//! assert_eq!(reports[0].len(), 2, "two 500 ms windows");
//! ```
//!
//! * the **source** ([`PacketSource`](crate::PacketSource)) is any
//!   packet iterator, a bounded channel fed from other threads
//!   ([`source::bounded`](crate::source::bounded)), or a capture file
//!   (`hhh-pcap`);
//! * the **engine** ([`Engine`]) is the window model × execution
//!   strategy: [`Disjoint`], [`SlidingExact`], [`MicroVaried`],
//!   [`Continuous`], and the multi-core [`ShardedDisjoint`],
//!   [`ShardedSliding`], [`ShardedContinuous`];
//! * the **sink** ([`ReportSink`]) consumes reports
//!   as windows close: collect to `Vec`s ([`collect`](Pipeline::collect)),
//!   stream into a closure ([`FnSink`](crate::FnSink)), serialize the
//!   snapshot wire stream in either format
//!   ([`SnapshotSink`](crate::SnapshotSink)), or stream natively
//!   encoded v2 frames over a TCP socket
//!   ([`TransportSink`](crate::TransportSink)).
//!
//! Every engine consumes the stream once, chunk at a time, weighs each
//! packet by its bytes (`wire_len`, the paper's measure), and pushes
//! each report the moment its window closes — so a sink can alert with
//! zero buffering while the stream is still flowing.

use crate::report::WindowReport;
use crate::sharded::{with_shards, ShardPool, DEFAULT_BATCH};
use crate::sink::{CollectSink, ReportSink};
use crate::source::Source;
use hhh_core::{ContinuousDetector, ExactHhh, HhhDetector, MergeableDetector, Threshold};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::{Nanos, PacketRecord, TimeSpan};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;

/// Deliver a merged detector's state to the sink at a report point: a
/// sink that keeps state ([`ReportSink::wants_frames`]) gets the v2
/// frame ([`MergeableDetector::to_frame`]); any other sink costs no
/// encode. Shared by every sharded engine.
fn emit_state<P, D: MergeableDetector, K: ReportSink<P>>(
    sink: &mut K,
    detector: &D,
    start: Nanos,
    at: Nanos,
) {
    if sink.wants_frames() {
        if let Some(frame) = detector.to_frame(start, at) {
            sink.state_frame(&frame);
        }
    }
}

/// Deliver a merged windowed detector at a report point: one report per
/// threshold (series order), then its state ([`emit_state`]). Shared
/// by the windowed sharded engines.
fn emit_window<H, D, K>(
    sink: &mut K,
    thresholds: &[Threshold],
    detector: &D,
    index: u64,
    start: Nanos,
    end: Nanos,
) where
    H: Hierarchy,
    D: HhhDetector<H> + MergeableDetector,
    K: ReportSink<H::Prefix>,
{
    for (ti, t) in thresholds.iter().enumerate() {
        sink.accept(
            ti,
            WindowReport { index, start, end, total: detector.total(), hhhs: detector.report(*t) },
        );
    }
    emit_state(sink, detector, start, end);
}

/// A fully described run: where packets come from, what computes on
/// them, where reports go. See the [module docs](self) for the model.
pub struct Pipeline<S, E, K> {
    source: S,
    engine: E,
    sink: K,
}

/// Placeholder for a [`Pipeline`] stage that has not been chosen yet.
pub struct Unset;

impl<S: Source> Pipeline<S, Unset, Unset> {
    /// Start a pipeline from a source (any `Iterator` of
    /// `PacketRecord`s qualifies).
    pub fn new(source: S) -> Self {
        Pipeline { source, engine: Unset, sink: Unset }
    }
}

impl<S, E, K> Pipeline<S, E, K> {
    /// Choose the engine (window model × execution strategy).
    pub fn engine<E2: Engine>(self, engine: E2) -> Pipeline<S, E2, K> {
        Pipeline { source: self.source, engine, sink: self.sink }
    }

    /// Choose the sink.
    pub fn sink<K2>(self, sink: K2) -> Pipeline<S, E, K2> {
        Pipeline { source: self.source, engine: self.engine, sink }
    }
}

impl<S, E: Engine, K> Pipeline<S, E, K> {
    /// Shorthand for `.sink(CollectSink::new())`: gather every report
    /// into one `Vec<WindowReport>` per series.
    pub fn collect(self) -> Pipeline<S, E, CollectSink<E::Prefix>> {
        self.sink(CollectSink::new())
    }
}

impl<S, E, K> Pipeline<S, E, K>
where
    S: Source<Item = PacketRecord>,
    E: Engine,
    K: ReportSink<E::Prefix>,
{
    /// Consume the source through the engine, deliver every report to
    /// the sink, and return the sink's output.
    pub fn run(mut self) -> K::Output {
        self.sink.begin(self.engine.series());
        self.engine.run(self.source, &mut self.sink);
        self.sink.finish()
    }
}

/// A window model × execution strategy, runnable inside a
/// [`Pipeline`]. Engines are single-use: `run` consumes the engine and
/// the source.
pub trait Engine {
    /// The prefix type of the reports this engine emits.
    type Prefix;

    /// Number of report series emitted (see
    /// [`ReportSink::accept`]).
    fn series(&self) -> usize;

    /// Drain the source, pushing reports into the sink as windows
    /// close.
    fn run<S: Source<Item = PacketRecord>, K: ReportSink<Self::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    );
}

/// Drive `f` over every item of a chunked source; `f` returning
/// `false` stops the stream (horizon reached).
fn for_each_item<S: Source>(mut source: S, mut f: impl FnMut(S::Item) -> bool) {
    let mut buf = Vec::new();
    while source.pull_chunk(&mut buf) {
        for p in buf.drain(..) {
            if !f(p) {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Disjoint
// ---------------------------------------------------------------------

/// Disjoint (tumbling) windows over one windowed detector: report at
/// every boundary, then reset — the practice the paper quantifies the
/// cost of. One series per threshold. Packets after the last complete
/// window are ignored.
///
/// The detector can be owned or a `&mut` borrow (reusable afterwards).
pub struct Disjoint<H, D, F> {
    detector: D,
    horizon: TimeSpan,
    window: TimeSpan,
    thresholds: Vec<Threshold>,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, D, F> Disjoint<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Windows of `window` length covering `horizon`, reporting each of
    /// `thresholds` (one output series per threshold, same order), with
    /// `key` extracting the item to aggregate (usually `|p| p.src`).
    pub fn new(
        detector: D,
        horizon: TimeSpan,
        window: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        Disjoint {
            detector,
            horizon,
            window,
            thresholds: thresholds.to_vec(),
            key,
            _hierarchy: PhantomData,
        }
    }
}

impl<H, D, F> Engine for Disjoint<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        mut self,
        source: S,
        sink: &mut K,
    ) {
        let n_windows = self.horizon / self.window;
        let window = self.window;
        let thresholds = &self.thresholds;
        let detector = &mut self.detector;
        let mut cur: u64 = 0;

        let flush = |cur: u64, detector: &mut D, sink: &mut K| {
            for (ti, t) in thresholds.iter().enumerate() {
                sink.accept(
                    ti,
                    WindowReport {
                        index: cur,
                        start: Nanos::ZERO + window * cur,
                        end: Nanos::ZERO + window * (cur + 1),
                        total: detector.total(),
                        hhhs: detector.report(*t),
                    },
                );
            }
            detector.reset();
        };

        let key = &self.key;
        for_each_item(source, |p| {
            let w = p.ts.bin_index(window);
            if w >= n_windows {
                return false; // time-sorted stream; the rest is partial tail
            }
            while cur < w {
                flush(cur, detector, sink);
                cur += 1;
            }
            detector.observe(key(&p), p.wire_len as u64);
            true
        });
        while cur < n_windows {
            flush(cur, detector, sink);
            cur += 1;
        }
    }
}

// ---------------------------------------------------------------------
// SlidingExact
// ---------------------------------------------------------------------

/// Every sliding position evaluated **exactly** via rolling per-epoch
/// counts. Requires `window % step == 0`; one pass, exact output, one
/// series per threshold. Entry `i` of each series is sliding position
/// `i` (start = `i × step`).
pub struct SlidingExact<'h, H, F> {
    hierarchy: &'h H,
    horizon: TimeSpan,
    window: TimeSpan,
    step: TimeSpan,
    thresholds: Vec<Threshold>,
    key: F,
}

impl<'h, H, F> SlidingExact<'h, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Sliding `window` advancing by `step` over `horizon`.
    pub fn new(
        hierarchy: &'h H,
        horizon: TimeSpan,
        window: TimeSpan,
        step: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        assert!(!step.is_zero() && !window.is_zero(), "window and step must be non-zero");
        assert!(window % step == TimeSpan::ZERO, "step must divide the window length exactly");
        assert!(window <= horizon, "window longer than the horizon");
        SlidingExact { hierarchy, horizon, window, step, thresholds: thresholds.to_vec(), key }
    }
}

impl<H, F> Engine for SlidingExact<'_, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let epw = self.window / self.step; // epochs per window
        let n_epochs = self.horizon / self.step;
        let hierarchy = self.hierarchy;
        let (window, step) = (self.window, self.step);
        let thresholds = &self.thresholds;

        let mut rolling: HashMap<H::Item, u64> = HashMap::new();
        let mut rolling_total: u64 = 0;
        let mut window_epochs: VecDeque<HashMap<H::Item, u64>> = VecDeque::new();
        let mut cur_epoch: u64 = 0;
        let mut cur_map: HashMap<H::Item, u64> = HashMap::new();

        let finalize_epoch = |cur_epoch: u64,
                              cur_map: &mut HashMap<H::Item, u64>,
                              rolling: &mut HashMap<H::Item, u64>,
                              rolling_total: &mut u64,
                              window_epochs: &mut VecDeque<HashMap<H::Item, u64>>,
                              sink: &mut K| {
            let finished = core::mem::take(cur_map);
            for (&k, &v) in &finished {
                *rolling.entry(k).or_default() += v;
                *rolling_total += v;
            }
            window_epochs.push_back(finished);
            if window_epochs.len() > epw as usize {
                let old = window_epochs.pop_front().expect("non-empty");
                for (k, v) in old {
                    let e = rolling.get_mut(&k).expect("rolling covers window epochs");
                    *e -= v;
                    *rolling_total -= v;
                    if *e == 0 {
                        rolling.remove(&k);
                    }
                }
            }
            if window_epochs.len() == epw as usize {
                let (index, total) = (cur_epoch + 1 - epw, *rolling_total);
                let start = Nanos::ZERO + step * index;
                for (ti, t) in thresholds.iter().enumerate() {
                    let hhhs = ExactHhh::report_counts(hierarchy, rolling, total, *t);
                    let end = start + window;
                    sink.accept(ti, WindowReport { index, start, end, total, hhhs });
                }
            }
        };

        let key = &self.key;
        for_each_item(source, |p| {
            let e = p.ts.bin_index(step);
            if e >= n_epochs {
                return false;
            }
            while cur_epoch < e {
                finalize_epoch(
                    cur_epoch,
                    &mut cur_map,
                    &mut rolling,
                    &mut rolling_total,
                    &mut window_epochs,
                    sink,
                );
                cur_epoch += 1;
            }
            *cur_map.entry(key(&p)).or_default() += p.wire_len as u64;
            true
        });
        while cur_epoch < n_epochs {
            finalize_epoch(
                cur_epoch,
                &mut cur_map,
                &mut rolling,
                &mut rolling_total,
                &mut window_epochs,
                sink,
            );
            cur_epoch += 1;
        }
    }
}

// ---------------------------------------------------------------------
// MicroVaried
// ---------------------------------------------------------------------

/// A disjoint baseline window evaluated against micro-shortened
/// variants in a single pass (Fig. 3's setup). For each baseline
/// window `[k·b, (k+1)·b)` and each delta `d`, the variant window is
/// `[k·b, (k+1)·b − d)`. Exact.
///
/// Series layout: series `0` is the baseline; series `1 + i` is the
/// `i`-th delta (request order), index-aligned with the baseline.
pub struct MicroVaried<'h, H, F> {
    hierarchy: &'h H,
    horizon: TimeSpan,
    base: TimeSpan,
    deltas: Vec<TimeSpan>,
    threshold: Threshold,
    key: F,
}

impl<'h, H, F> MicroVaried<'h, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Baseline windows of `base` length with variants shortened by
    /// each of `deltas` (all `< base`).
    pub fn new(
        hierarchy: &'h H,
        horizon: TimeSpan,
        base: TimeSpan,
        deltas: &[TimeSpan],
        threshold: Threshold,
        key: F,
    ) -> Self {
        assert!(!deltas.is_empty(), "need at least one delta");
        assert!(deltas.iter().all(|d| *d < base), "delta must be < base window");
        MicroVaried { hierarchy, horizon, base, deltas: deltas.to_vec(), threshold, key }
    }
}

impl<H, F> Engine for MicroVaried<'_, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        1 + self.deltas.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let base = self.base;
        let max_delta = *self.deltas.iter().max().expect("non-empty");
        let n_windows = self.horizon / base;
        let hierarchy = self.hierarchy;
        let threshold = self.threshold;
        // Delta series in ascending-delta order for incremental
        // subtraction, remembering each one's output series.
        let mut ordered: Vec<usize> = (0..self.deltas.len()).collect();
        ordered.sort_by_key(|&i| self.deltas[i]);
        let deltas = &self.deltas;

        let mut counts: HashMap<H::Item, u64> = HashMap::new();
        let mut total: u64 = 0;
        // Packets in the window's final `max_delta`, with their offset
        // from the window end (so variant subtraction is a filter, not
        // a scan of the whole window).
        let mut tail: Vec<(TimeSpan, H::Item, u64)> = Vec::new();
        let mut cur: u64 = 0;

        let ordered = &ordered;
        let flush = |cur: u64,
                     counts: &mut HashMap<H::Item, u64>,
                     total: &mut u64,
                     tail: &mut Vec<(TimeSpan, H::Item, u64)>,
                     sink: &mut K| {
            let start = Nanos::ZERO + base * cur;
            let end = start + base;
            let hhhs = ExactHhh::report_counts(hierarchy, counts, *total, threshold);
            sink.accept(0, WindowReport { index: cur, start, end, total: *total, hhhs });
            // Subtract tail packets incrementally, smallest delta
            // first: each delta removes the packets in
            // (prev, delta] of offset-from-end.
            let mut variant_counts = counts.clone();
            let mut variant_total = *total;
            let mut tail_iter = {
                let mut t = core::mem::take(tail);
                t.sort_by_key(|e| e.0); // offset_from_end ascending
                t.into_iter().peekable()
            };
            for &vi in ordered {
                let delta = deltas[vi];
                while let Some(&(off, _, _)) = tail_iter.peek() {
                    // A packet with offset exactly `delta` sits at the
                    // variant's (exclusive) end boundary: excluded.
                    if off <= delta {
                        let (_, item, w) = tail_iter.next().expect("peeked");
                        let e = variant_counts.get_mut(&item).expect("tail item counted");
                        *e -= w;
                        variant_total -= w;
                        if *e == 0 {
                            variant_counts.remove(&item);
                        }
                    } else {
                        break;
                    }
                }
                let hhhs =
                    ExactHhh::report_counts(hierarchy, &variant_counts, variant_total, threshold);
                let (end, total) = (end - delta, variant_total);
                sink.accept(1 + vi, WindowReport { index: cur, start, end, total, hhhs });
            }
            counts.clear();
            *total = 0;
        };

        let key = &self.key;
        for_each_item(source, |p| {
            let w = p.ts.bin_index(base);
            if w >= n_windows {
                return false;
            }
            while cur < w {
                flush(cur, &mut counts, &mut total, &mut tail, sink);
                cur += 1;
            }
            let item = key(&p);
            let weight = p.wire_len as u64;
            *counts.entry(item).or_default() += weight;
            total += weight;
            let window_end = Nanos::ZERO + base * (w + 1);
            let offset_from_end = window_end - p.ts;
            if offset_from_end <= max_delta {
                tail.push((offset_from_end, item, weight));
            }
            true
        });
        while cur < n_windows {
            flush(cur, &mut counts, &mut total, &mut tail, sink);
            cur += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Continuous
// ---------------------------------------------------------------------

/// A **windowless** (continuous) detector probed at arbitrary instants
/// (sorted ascending). Single series; entry `i` is probe `i`, with
/// `start == end == probes[i]`.
pub struct Continuous<H, C, F> {
    detector: C,
    probes: Vec<Nanos>,
    threshold: Threshold,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, C, F> Continuous<H, C, F>
where
    H: Hierarchy,
    C: ContinuousDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Probe `detector` at each of `probes` while streaming packets
    /// through it.
    pub fn new(detector: C, probes: &[Nanos], threshold: Threshold, key: F) -> Self {
        assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probe instants must be sorted");
        Continuous { detector, probes: probes.to_vec(), threshold, key, _hierarchy: PhantomData }
    }
}

impl<H, C, F> Engine for Continuous<H, C, F>
where
    H: Hierarchy,
    C: ContinuousDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        1
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        mut self,
        source: S,
        sink: &mut K,
    ) {
        let probes = &self.probes;
        let detector = &mut self.detector;
        let threshold = self.threshold;
        let mut next = 0usize;
        let probe = |next: usize, detector: &C, sink: &mut K| {
            sink.accept(
                0,
                WindowReport {
                    index: next as u64,
                    start: probes[next],
                    end: probes[next],
                    total: detector.decayed_total(probes[next]) as u64,
                    hhhs: detector.report_at(probes[next], threshold),
                },
            );
        };
        let key = &self.key;
        for_each_item(source, |p| {
            while next < probes.len() && probes[next] <= p.ts {
                probe(next, detector, sink);
                next += 1;
            }
            detector.observe(p.ts, key(&p), p.wire_len as u64);
            true
        });
        while next < probes.len() {
            probe(next, detector, sink);
            next += 1;
        }
    }
}

// ---------------------------------------------------------------------
// ShardedDisjoint
// ---------------------------------------------------------------------

/// Disjoint windows with ingestion hash-partitioned by key across one
/// worker thread per shard detector, fed in batches; at every boundary
/// the shard states are merged, the merged detector reports (and, for
/// a sink that keeps state, its v2 frame goes to the sink), and all
/// shards reset.
///
/// With exact detectors the output is identical to [`Disjoint`] on the
/// same stream (merge is lossless); with approximate ones it is
/// identical up to the merge's additive error growth.
pub struct ShardedDisjoint<H, D, F> {
    detectors: Vec<D>,
    horizon: TimeSpan,
    window: TimeSpan,
    thresholds: Vec<Threshold>,
    batch: usize,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, D, F> ShardedDisjoint<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// One shard per detector in `detectors` (identically configured).
    pub fn new(
        detectors: Vec<D>,
        horizon: TimeSpan,
        window: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        assert!(!detectors.is_empty(), "need at least one shard detector");
        ShardedDisjoint {
            detectors,
            horizon,
            window,
            thresholds: thresholds.to_vec(),
            batch: DEFAULT_BATCH,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Packets per scatter batch (default
    /// [`DEFAULT_BATCH`]).
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch = batch;
        self
    }
}

impl<H, D, F> Engine for ShardedDisjoint<H, D, F>
where
    H: Hierarchy,
    H::Item: Send,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let n_windows = self.horizon / self.window;
        let window = self.window;
        let thresholds = &self.thresholds;
        let key = &self.key;

        with_shards(self.detectors, self.batch, |pool| {
            let mut cur: u64 = 0;
            let flush_window =
                |cur: u64, pool: &mut ShardPool<'_, H, (H::Item, u64), D>, sink: &mut K| {
                    let start = Nanos::ZERO + window * cur;
                    emit_window(sink, thresholds, &pool.merged(), cur, start, start + window);
                    pool.reset();
                };

            for_each_item(source, |p| {
                let w = p.ts.bin_index(window);
                if w >= n_windows {
                    return false; // time-sorted stream; the rest is partial tail
                }
                while cur < w {
                    flush_window(cur, pool, sink);
                    cur += 1;
                }
                pool.push((key(&p), p.wire_len as u64));
                true
            });
            while cur < n_windows {
                flush_window(cur, pool, sink);
                cur += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------
// ShardedSliding
// ---------------------------------------------------------------------

/// Sharded counterpart of [`SlidingExact`], generalized to **any
/// mergeable windowed detector**: a sliding window whose step divides
/// its length is a union of whole epochs. Each shard worker owns one
/// detector; at every epoch boundary the engine takes the cross-shard
/// epoch (the shard states merged, then reset) and keeps the last
/// `window/step` of them in one ring, so the state at any position is
/// the merge of the ring.
///
/// With [`ExactHhh`] shard detectors the output is
/// report-for-report identical to [`SlidingExact`]; approximate
/// mergeable detectors trade exactness for bounded state exactly as
/// they do in disjoint windows.
///
/// ## Per-position cost
///
/// Taking an epoch costs `shards` epoch-sized clones and `shards − 1`
/// epoch-sized merges (epoch-sized: `step/window` of the window state).
/// When the detector kind supports
/// [`retract`](MergeableDetector::retract) (the exact kinds), the
/// engine also keeps one **rolling** window state: the new epoch is
/// merged in, the rolling state reports, and the epoch sliding out of
/// the window is retracted — two epoch-sized operations per position,
/// independent of the window/step ratio.
///
/// Detectors without `retract` (the lossy summaries, where merge order
/// matters) merge the ring in slot order per position (epoch `e` sits
/// in slot `e mod window/step`), which keeps their reports
/// byte-for-byte stable.
pub struct ShardedSliding<H, D, F> {
    detectors: Vec<D>,
    horizon: TimeSpan,
    window: TimeSpan,
    step: TimeSpan,
    thresholds: Vec<Threshold>,
    batch: usize,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, D, F> ShardedSliding<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// `shards` shard detectors, each built by `make(shard_index)`
    /// (identically configured — per-shard seeds are fine, the merge
    /// contracts allow it).
    pub fn new(
        shards: usize,
        make: impl Fn(usize) -> D,
        horizon: TimeSpan,
        window: TimeSpan,
        step: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(!step.is_zero() && !window.is_zero(), "window and step must be non-zero");
        assert!(window % step == TimeSpan::ZERO, "step must divide the window length exactly");
        assert!(window <= horizon, "window longer than the horizon");
        ShardedSliding {
            detectors: (0..shards).map(make).collect(),
            horizon,
            window,
            step,
            thresholds: thresholds.to_vec(),
            batch: DEFAULT_BATCH,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Packets per scatter batch (default
    /// [`DEFAULT_BATCH`]).
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch = batch;
        self
    }
}

impl<H, D, F> Engine for ShardedSliding<H, D, F>
where
    H: Hierarchy,
    H::Item: Send,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let epw = self.window / self.step;
        let n_epochs = self.horizon / self.step;
        let (window, step) = (self.window, self.step);
        let thresholds = &self.thresholds;
        let key = &self.key;

        // Probe retract support once, on an empty detector (kinds
        // either always or never support it). When supported, the empty
        // detector seeds the rolling window state.
        let mut empty = self.detectors[0].clone();
        empty.reset();
        let probe = empty.clone();
        let mut rolling = empty.retract(&probe).then_some(empty);

        with_shards(self.detectors, self.batch, |pool| {
            // The cross-shard epochs of the current window; epoch `e`
            // sits in slot `e % epw`.
            let mut ring: Vec<D> = Vec::with_capacity(epw as usize);
            let mut cur_epoch: u64 = 0;

            let boundary = |e: u64,
                            pool: &mut ShardPool<'_, H, (H::Item, u64), D>,
                            sink: &mut K,
                            ring: &mut Vec<D>,
                            rolling: &mut Option<D>| {
                let epoch = pool.merged();
                pool.reset();
                if let Some(r) = rolling.as_mut() {
                    r.merge(&epoch);
                }
                let slot = (e % epw) as usize;
                if slot == ring.len() {
                    ring.push(epoch);
                } else {
                    ring[slot] = epoch;
                }
                if e + 1 < epw {
                    return;
                }
                let position = e + 1 - epw;
                let start = Nanos::ZERO + step * position;
                match rolling {
                    Some(r) => {
                        // The rolling state is the window: report from
                        // it, then retract the epoch sliding out.
                        emit_window(sink, thresholds, r, position, start, start + window);
                        let ok = r.retract(&ring[((e + 1) % epw) as usize]);
                        debug_assert!(ok, "retract support cannot change mid-run");
                    }
                    None => {
                        let mut merged = ring[0].clone();
                        for d in &ring[1..] {
                            merged.merge(d);
                        }
                        emit_window(sink, thresholds, &merged, position, start, start + window);
                    }
                }
            };

            for_each_item(source, |p| {
                let e = p.ts.bin_index(step);
                if e >= n_epochs {
                    return false;
                }
                while cur_epoch < e {
                    boundary(cur_epoch, pool, sink, &mut ring, &mut rolling);
                    cur_epoch += 1;
                }
                pool.push((key(&p), p.wire_len as u64));
                true
            });
            while cur_epoch < n_epochs {
                boundary(cur_epoch, pool, sink, &mut ring, &mut rolling);
                cur_epoch += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------
// ShardedContinuous
// ---------------------------------------------------------------------

/// Sharded counterpart of [`Continuous`]: ingestion hash-partitioned by
/// key across one worker thread per windowless shard detector; at each
/// probe instant the shard states are merged (forward-decayed values
/// against one landmark add) and the merged detector answers — plus
/// its v2 frame, for a sink that keeps state.
///
/// Requires a continuous detector that is also mergeable, e.g.
/// [`TdbfHhh`](hhh_core::TdbfHhh). Key-partitioning keeps per-prefix
/// decayed estimates additive across shards, so the merged report
/// matches the unsharded detector's (bit-exactly at one shard;
/// set-identically at several, where float summation order may differ
/// in the last ulp).
pub struct ShardedContinuous<H, C, F> {
    detectors: Vec<C>,
    probes: Vec<Nanos>,
    threshold: Threshold,
    batch: usize,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, C, F> ShardedContinuous<H, C, F>
where
    H: Hierarchy,
    C: ContinuousDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// One shard per detector in `detectors` (identically configured).
    pub fn new(detectors: Vec<C>, probes: &[Nanos], threshold: Threshold, key: F) -> Self {
        assert!(!detectors.is_empty(), "need at least one shard detector");
        assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probe instants must be sorted");
        ShardedContinuous {
            detectors,
            probes: probes.to_vec(),
            threshold,
            batch: DEFAULT_BATCH,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Packets per scatter batch (default
    /// [`DEFAULT_BATCH`]).
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch = batch;
        self
    }
}

impl<H, C, F> Engine for ShardedContinuous<H, C, F>
where
    H: Hierarchy,
    H::Item: Send,
    C: ContinuousDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        1
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let probes = &self.probes;
        let threshold = self.threshold;
        let key = &self.key;

        with_shards(self.detectors, self.batch, |pool| {
            let mut next = 0usize;
            let probe = |next: usize,
                         pool: &mut ShardPool<'_, H, (Nanos, H::Item, u64), C>,
                         sink: &mut K| {
                let merged = pool.merged();
                let at = probes[next];
                sink.accept(
                    0,
                    WindowReport {
                        index: next as u64,
                        start: at,
                        end: at,
                        total: merged.decayed_total(at) as u64,
                        hhhs: merged.report_at(at, threshold),
                    },
                );
                // Windowless probe: the state covers "now"; start and
                // report point coincide.
                emit_state(sink, &merged, at, at);
            };

            for_each_item(source, |p| {
                while next < probes.len() && probes[next] <= p.ts {
                    probe(next, pool, sink);
                    next += 1;
                }
                pool.push((p.ts, key(&p), p.wire_len as u64));
                true
            });
            while next < probes.len() {
                probe(next, pool, sink);
                next += 1;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::{ExactHhh, TdbfHhh, TdbfHhhConfig};
    use hhh_hierarchy::Ipv4Hierarchy;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn h() -> Ipv4Hierarchy {
        Ipv4Hierarchy::bytes()
    }

    /// A deterministic pseudo-random packet stream over `secs` seconds.
    fn stream(secs: u64, pps: u64, seed: u64) -> Vec<PacketRecord> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = secs * pps;
        (0..n)
            .map(|i| {
                let ts = Nanos::from_nanos(i * 1_000_000_000 / pps + rng.gen_range(0..1000));
                let src: u32 = if rng.gen::<f64>() < 0.3 {
                    0x0A010101 // persistent heavy
                } else {
                    (rng.gen_range(10u32..50) << 24) | rng.gen_range(0..4096)
                };
                PacketRecord::new(ts, src, 1, 100 + rng.gen_range(0..900))
            })
            .collect()
    }

    /// Brute force: exact HHH of packets in [start, end).
    fn brute(pkts: &[PacketRecord], start: Nanos, end: Nanos, t: Threshold) -> (u64, Vec<String>) {
        let mut d = ExactHhh::new(h());
        for p in pkts.iter().filter(|p| p.ts >= start && p.ts < end) {
            HhhDetector::<Ipv4Hierarchy>::observe(&mut d, p.src, p.wire_len as u64);
        }
        let mut v: Vec<String> = d.report(t).iter().map(|r| r.prefix.to_string()).collect();
        v.sort();
        (HhhDetector::<Ipv4Hierarchy>::total(&d), v)
    }

    fn names(r: &WindowReport<hhh_nettypes::Ipv4Prefix>) -> Vec<String> {
        let mut v: Vec<String> = r.hhhs.iter().map(|x| x.prefix.to_string()).collect();
        v.sort();
        v
    }

    fn disjoint(
        pkts: &[PacketRecord],
        horizon: TimeSpan,
        window: TimeSpan,
        thresholds: &[Threshold],
    ) -> Vec<Vec<WindowReport<hhh_nettypes::Ipv4Prefix>>> {
        let mut det = ExactHhh::new(h());
        Pipeline::new(pkts.iter().copied())
            .engine(Disjoint::new(&mut det, horizon, window, thresholds, |p| p.src))
            .collect()
            .run()
    }

    #[test]
    fn disjoint_matches_brute_force() {
        let pkts = stream(12, 400, 1);
        let t = Threshold::percent(5.0);
        let reports = disjoint(&pkts, TimeSpan::from_secs(12), TimeSpan::from_secs(5), &[t]);
        assert_eq!(reports.len(), 1);
        let reports = &reports[0];
        assert_eq!(reports.len(), 2, "12 s / 5 s = 2 complete windows");
        for r in reports {
            let (total, truth) = brute(&pkts, r.start, r.end, t);
            assert_eq!(r.total, total, "window {} total", r.index);
            assert_eq!(names(r), truth, "window {} HHH set", r.index);
        }
    }

    #[test]
    fn sliding_matches_brute_force() {
        let pkts = stream(10, 300, 2);
        let h = h();
        let t = Threshold::percent(5.0);
        let reports = Pipeline::new(pkts.iter().copied())
            .engine(SlidingExact::new(
                &h,
                TimeSpan::from_secs(10),
                TimeSpan::from_secs(4),
                TimeSpan::from_secs(1),
                &[t],
                |p| p.src,
            ))
            .collect()
            .run();
        let reports = &reports[0];
        assert_eq!(reports.len(), 7, "(10−4)/1 + 1 positions");
        for r in reports {
            let (total, truth) = brute(&pkts, r.start, r.end, t);
            assert_eq!(r.total, total, "position {} total", r.index);
            assert_eq!(names(r), truth, "position {} HHH set", r.index);
        }
    }

    #[test]
    fn sliding_first_position_aligned_with_disjoint() {
        let pkts = stream(10, 200, 3);
        let h = h();
        let horizon = TimeSpan::from_secs(10);
        let window = TimeSpan::from_secs(5);
        let t = Threshold::percent(10.0);
        let disj = disjoint(&pkts, horizon, window, &[t]);
        let slid = Pipeline::new(pkts.iter().copied())
            // step = window: sliding == disjoint
            .engine(SlidingExact::new(&h, horizon, window, window, &[t], |p| p.src))
            .collect()
            .run();
        assert_eq!(disj[0].len(), slid[0].len());
        for (d, s) in disj[0].iter().zip(&slid[0]) {
            assert_eq!(d.total, s.total);
            assert_eq!(names(d), names(s));
        }
    }

    #[test]
    fn multiple_thresholds_one_pass() {
        let pkts = stream(6, 300, 4);
        let ts = [Threshold::percent(1.0), Threshold::percent(5.0), Threshold::percent(10.0)];
        let reports = disjoint(&pkts, TimeSpan::from_secs(6), TimeSpan::from_secs(3), &ts);
        assert_eq!(reports.len(), 3);
        // Lower thresholds report supersets.
        for ((r1, r5), _r10) in reports[0].iter().zip(&reports[1]).zip(&reports[2]) {
            let p1 = r1.prefix_set();
            let p5 = r5.prefix_set();
            assert!(r1.len() >= r5.len());
            // Threshold monotonicity of HHH counts, not necessarily of
            // the sets themselves (discounting can promote ancestors);
            // at minimum the level-0 heavies at 5% appear at 1%.
            for p in &p5 {
                if r5.hhhs.iter().any(|r| r.prefix == *p && r.level == 0) {
                    assert!(p1.contains(p), "5% host HHH missing at 1%");
                }
            }
        }
    }

    #[test]
    fn microvaried_matches_brute_force() {
        let pkts = stream(9, 500, 5);
        let h = h();
        let base = TimeSpan::from_secs(3);
        let deltas =
            [TimeSpan::from_millis(100), TimeSpan::from_millis(40), TimeSpan::from_millis(10)];
        let t = Threshold::percent(5.0);
        let series = Pipeline::new(pkts.iter().copied())
            .engine(MicroVaried::new(&h, TimeSpan::from_secs(9), base, &deltas, t, |p| p.src))
            .collect()
            .run();
        // Series 0 is the baseline, series 1 + i the i-th delta.
        assert_eq!(series.len(), 1 + deltas.len());
        assert_eq!(series[0].len(), 3);
        for (k, b) in series[0].iter().enumerate() {
            let (total, truth) = brute(&pkts, b.start, b.end, t);
            assert_eq!(b.total, total);
            assert_eq!(names(b), truth, "baseline window {k}");
        }
        for (delta, reports) in deltas.iter().zip(&series[1..]) {
            for r in reports {
                let (total, truth) = brute(&pkts, r.start, r.end, t);
                assert_eq!(r.total, total, "delta {delta} window {}", r.index);
                assert_eq!(names(r), truth, "delta {delta} window {}", r.index);
                assert_eq!(r.end - r.start, base - *delta);
            }
        }
    }

    #[test]
    fn continuous_probes_in_order() {
        let pkts = stream(10, 200, 6);
        let probes: Vec<Nanos> = (1..10).map(Nanos::from_secs).collect();
        let mut det = TdbfHhh::new(
            h(),
            TdbfHhhConfig { half_life: TimeSpan::from_secs(2), ..TdbfHhhConfig::default() },
        );
        let reports = Pipeline::new(pkts.iter().copied())
            .engine(Continuous::new(&mut det, &probes, Threshold::percent(10.0), |p| p.src))
            .collect()
            .run()
            .remove(0);
        assert_eq!(reports.len(), 9);
        // The persistent 30% source must appear once decay has settled.
        let hits = reports
            .iter()
            .skip(2)
            .filter(|r| r.hhhs.iter().any(|x| x.prefix.to_string() == "10.1.1.1/32"))
            .count();
        assert!(hits >= 6, "persistent heavy found in only {hits}/7 probes");
    }

    #[test]
    fn empty_stream_yields_empty_windows() {
        let reports = disjoint(
            &[],
            TimeSpan::from_secs(10),
            TimeSpan::from_secs(2),
            &[Threshold::percent(5.0)],
        );
        assert_eq!(reports[0].len(), 5);
        assert!(reports[0].iter().all(|r| r.total == 0 && r.is_empty()));
    }
}
