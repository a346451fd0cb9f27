//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public API. Nothing inside the library is
//! instrumented — the wrappers here forward every trait method, so the
//! traced pipeline runs the same code paths as the untraced one.
//!
//! A span is taken per call or per batch, never per packet. Spans stay
//! in memory ([`Tracer`]) and are written out when the benchmark ends.

use hhh_core::snapshot::{DetectorSnapshot, SnapshotFrame};
use hhh_core::{ContinuousDetector, HhhDetector, HhhReport, MergeableDetector, Threshold};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::Nanos;
use hhh_window::{ReportSink, Source, WindowReport};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u64>,
    /// Report-point index the call belongs to (the request id).
    pub point: u64,
    /// Small per-process thread number.
    pub thread: u32,
    /// Work done inside the span: packets, bytes, points.
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    point: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An in-memory span recorder shared by every wrapper of one pass.
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's number, as recorded in [`Span::thread`].
fn thread_no() -> u32 {
    THREAD.with(|t| *t)
}

impl Tracer {
    pub fn new() -> Self {
        Tracer(Arc::new(Inner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            point: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }))
    }

    /// Seconds since the epoch for an instant taken elsewhere.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.0.epoch).as_secs_f64()
    }

    /// The instant `secs` after the epoch (inverse of [`Tracer::at`]).
    pub fn instant(&self, secs: f64) -> Instant {
        self.0.epoch + std::time::Duration::from_secs_f64(secs)
    }

    /// Mark `point` as the report point calls now work towards.
    pub fn set_point(&self, point: u64) {
        self.0.point.store(point, Ordering::Relaxed);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.spans.lock().expect("span list lock").clone()
    }

    fn record<R>(&self, name: &'static str, point: Option<u64>, f: impl FnOnce() -> (R, u64)) -> R {
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let point = point.unwrap_or_else(|| self.0.point.load(Ordering::Relaxed));
        let start = Instant::now();
        let (out, count) = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            point,
            thread: thread_no(),
            count,
        };
        self.0.spans.lock().expect("span list lock").push(span);
        out
    }
}

/// Time `f` as span `name` when tracing; otherwise just run it.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    span_n(tracer, name, None, || (f(), 0))
}

/// [`span`] with an explicit report point and a work count.
pub fn span_n<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    point: Option<u64>,
    f: impl FnOnce() -> (R, u64),
) -> R {
    match tracer {
        Some(t) => t.record(name, point, f),
        None => f().0,
    }
}

/// Append spans as JSON lines (`name`, `start`, `end`, `parent`,
/// `point`, `thread`, `count`; times in seconds since the pass began).
pub fn write_spans(out: &mut impl Write, pass: usize, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\":{pass},\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\
             \"point\":{},\"thread\":{},\"count\":{}}}",
            s.id, s.name, s.start, s.end, s.point, s.thread, s.count
        )?;
    }
    Ok(())
}

/// A detector whose calls are timed. Forwards every provided trait
/// method, so the engines take the same path as with the bare detector
/// (the trait defaults would, for example, route `to_frame` through
/// JSON).
pub struct Timed<D> {
    inner: D,
    tracer: Option<Tracer>,
}

impl<D> Timed<D> {
    pub fn new(inner: D, tracer: Option<Tracer>) -> Self {
        Timed { inner, tracer }
    }
}

impl<D: Clone> Clone for Timed<D> {
    fn clone(&self) -> Self {
        let inner = span(self.tracer.as_ref(), "core.clone", || self.inner.clone());
        Timed { inner, tracer: self.tracer.clone() }
    }
}

impl<H: Hierarchy, D: HhhDetector<H>> HhhDetector<H> for Timed<D> {
    fn observe(&mut self, item: H::Item, weight: u64) {
        self.inner.observe(item, weight);
    }

    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        let inner = &mut self.inner;
        span_n(self.tracer.as_ref(), "core.observe", None, || {
            (inner.observe_batch(batch), batch.len() as u64)
        });
    }

    fn total(&self) -> u64 {
        self.inner.total()
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        span_n(self.tracer.as_ref(), "core.report", None, || {
            (self.inner.report(threshold), self.inner.state_bytes() as u64)
        })
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<H: Hierarchy, D: ContinuousDetector<H>> ContinuousDetector<H> for Timed<D> {
    fn observe(&mut self, ts: Nanos, item: H::Item, weight: u64) {
        self.inner.observe(ts, item, weight);
    }

    fn observe_batch(&mut self, batch: &[(Nanos, H::Item, u64)]) {
        let inner = &mut self.inner;
        span_n(self.tracer.as_ref(), "core.observe", None, || {
            (inner.observe_batch(batch), batch.len() as u64)
        });
    }

    fn decayed_total(&self, now: Nanos) -> f64 {
        self.inner.decayed_total(now)
    }

    fn report_at(&self, now: Nanos, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        span_n(self.tracer.as_ref(), "core.report", None, || {
            (self.inner.report_at(now, threshold), self.inner.state_bytes() as u64)
        })
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<D: MergeableDetector> MergeableDetector for Timed<D> {
    fn merge(&mut self, other: &Self) {
        let inner = &mut self.inner;
        span(self.tracer.as_ref(), "core.merge", || inner.merge(&other.inner));
    }

    fn snapshot(&self) -> Option<DetectorSnapshot> {
        span(self.tracer.as_ref(), "core.encode", || self.inner.snapshot())
    }

    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        span(self.tracer.as_ref(), "core.encode", || self.inner.to_frame(start, at))
    }

    fn retract(&mut self, other: &Self) -> bool {
        let inner = &mut self.inner;
        span(self.tracer.as_ref(), "core.retract", || inner.retract(&other.inner))
    }
}

/// A source whose pulls are timed as span `name`.
pub struct TimedSource<S> {
    inner: S,
    tracer: Option<Tracer>,
    name: &'static str,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, tracer: Option<Tracer>, name: &'static str) -> Self {
        TimedSource { inner, tracer, name }
    }
}

impl<S: Source> Source for TimedSource<S> {
    type Item = S::Item;

    fn pull_chunk(&mut self, buf: &mut Vec<S::Item>) -> bool {
        let inner = &mut self.inner;
        span_n(self.tracer.as_ref(), self.name, None, || {
            let more = inner.pull_chunk(buf);
            (more, buf.len() as u64)
        })
    }
}

/// A sink whose calls are timed as `window.sink`, forwarding
/// `wants_frames`/`state_frame` so frame sinks keep the native encode
/// path. After each point's state it advances the tracer's point.
pub struct TimedSink<K> {
    inner: K,
    tracer: Option<Tracer>,
    /// Index of the last report accepted: the point its state belongs to.
    last: u64,
}

impl<K> TimedSink<K> {
    pub fn new(inner: K, tracer: Option<Tracer>) -> Self {
        TimedSink { inner, tracer, last: 0 }
    }

    fn point_done(&self) {
        if let Some(t) = &self.tracer {
            t.set_point(self.last + 1);
        }
    }
}

impl<P, K: ReportSink<P>> ReportSink<P> for TimedSink<K> {
    type Output = K::Output;

    fn begin(&mut self, series: usize) {
        self.inner.begin(series);
    }

    fn accept(&mut self, series: usize, report: WindowReport<P>) {
        let index = report.index;
        let inner = &mut self.inner;
        span_n(self.tracer.as_ref(), "window.sink", Some(index), || {
            (inner.accept(series, report), 0)
        });
        self.last = index;
    }

    fn state(&mut self, start: Nanos, at: Nanos, snapshot: &DetectorSnapshot) {
        let inner = &mut self.inner;
        span_n(self.tracer.as_ref(), "window.sink", Some(self.last), || {
            (inner.state(start, at, snapshot), 0)
        });
        self.point_done();
    }

    fn wants_frames(&self) -> bool {
        self.inner.wants_frames()
    }

    fn state_frame(&mut self, frame: &SnapshotFrame) {
        let inner = &mut self.inner;
        span_n(self.tracer.as_ref(), "window.sink", Some(self.last), || {
            (inner.state_frame(frame), frame.body.len() as u64)
        });
        self.point_done();
    }

    fn finish(self) -> Self::Output {
        self.inner.finish()
    }
}
