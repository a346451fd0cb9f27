//! Report sinks: where a [`Pipeline`](crate::Pipeline) delivers its
//! per-window results.
//!
//! Engines push every [`WindowReport`] into a [`ReportSink`] as soon as
//! it is computed, tagged with its **series** index:
//!
//! * threshold-sweeping engines (disjoint, sliding, sharded) use one
//!   series per requested threshold, in request order;
//! * the micro-varied engine uses series `0` for the baseline windows
//!   and series `1 + i` for the `i`-th delta;
//! * single-threshold engines (continuous) use series `0`.
//!
//! Three sinks cover the common shapes: [`CollectSink`] gathers
//! everything into `Vec`s, any `FnMut(usize, WindowReport<P>)` closure
//! streams reports as they appear, and [`SnapshotSink`] writes the
//! snapshot stream — reports plus the sharded engines' merged detector
//! states, the wire format for cross-process aggregation — in either
//! encoding: [`WireFormat::Json`] (v1 JSON lines) or
//! [`WireFormat::Binary`] (v2 frames, the hot aggregation path).
//!
//! A detector state reaches a sink in one form only: the v2
//! [`SnapshotFrame`] the engine encodes at a report point, handed to
//! [`ReportSink::state_frame`]. Engines encode it only for sinks that
//! keep state ([`ReportSink::wants_frames`]); the collecting and
//! streaming sinks drop state, so they never pay for the encode.

use crate::report::WindowReport;
use hhh_core::snapshot::{json_string, DetectorSnapshot, SnapshotFrame, StampedSnapshot};
use hhh_core::WireFormat;
use hhh_nettypes::Nanos;
use std::fmt::Display;
use std::io::Write;

/// A consumer of pipeline output.
pub trait ReportSink<P> {
    /// What [`finish`](Self::finish) hands back when the pipeline is
    /// done (returned by [`Pipeline::run`](crate::Pipeline::run)).
    type Output;

    /// Called once before any report, with the number of series the
    /// engine will emit.
    fn begin(&mut self, series: usize) {
        let _ = series;
    }

    /// One report. `series` identifies the threshold (or micro-varied
    /// variant) the report belongs to; within a series, reports arrive
    /// in window order.
    fn accept(&mut self, series: usize, report: WindowReport<P>);

    /// Does this sink keep detector state? When `true`, engines encode
    /// the merged state at each report point as a v2 frame
    /// ([`MergeableDetector::to_frame`](hhh_core::MergeableDetector::to_frame))
    /// and hand it to [`state_frame`](Self::state_frame); when `false`
    /// (the default) they encode nothing. The name predates that
    /// meaning and stays because the benchmark harness's sink wrappers
    /// forward it.
    fn wants_frames(&self) -> bool {
        false
    }

    /// A merged detector state, encoded as a v2 frame that carries its
    /// own window geometry (`start..=at`; `start == at` for windowless
    /// probes). Engines call it once per report point, after the
    /// point's reports, and only when [`wants_frames`](Self::wants_frames)
    /// is `true`. The default ignores it.
    fn state_frame(&mut self, frame: &SnapshotFrame) {
        let _ = frame;
    }

    /// A no-op that nothing in this workspace calls: engines hand
    /// states only as frames ([`state_frame`](Self::state_frame)). It
    /// stays because the benchmark harness's sink wrappers override
    /// it, and goes once they drop those overrides.
    fn state(&mut self, start: Nanos, at: Nanos, snapshot: &DetectorSnapshot) {
        let _ = (start, at, snapshot);
    }

    /// The stream is complete; produce the output.
    fn finish(self) -> Self::Output;
}

/// Collect every report into one `Vec<WindowReport>` per series.
#[derive(Clone, Debug, Default)]
pub struct CollectSink<P> {
    series: Vec<Vec<WindowReport<P>>>,
}

impl<P> CollectSink<P> {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink { series: Vec::new() }
    }
}

impl<P> ReportSink<P> for CollectSink<P> {
    type Output = Vec<Vec<WindowReport<P>>>;

    fn begin(&mut self, series: usize) {
        self.series.resize_with(series, Vec::new);
    }

    fn accept(&mut self, series: usize, report: WindowReport<P>) {
        if self.series.len() <= series {
            self.series.resize_with(series + 1, Vec::new);
        }
        self.series[series].push(report);
    }

    fn finish(self) -> Self::Output {
        self.series
    }
}

/// Streaming sink: wrap an `FnMut(usize, WindowReport<P>)` closure so
/// it sees each report the moment its window closes, without any
/// buffering.
///
/// ```
/// use hhh_window::FnSink;
/// let mut count = 0usize;
/// let sink = FnSink(|_series: usize, _report: hhh_window::WindowReport<u32>| count += 1);
/// # let _ = sink;
/// ```
pub struct FnSink<F>(pub F);

impl<P, F: FnMut(usize, WindowReport<P>)> ReportSink<P> for FnSink<F> {
    type Output = ();

    fn accept(&mut self, series: usize, report: WindowReport<P>) {
        (self.0)(series, report);
    }

    fn finish(self) -> Self::Output {}
}

/// Write pipeline output as a snapshot stream in either wire format.
///
/// **JSON (v1)** — one `report` object per window report and one
/// `state` object per detector state, as JSON lines. The `state`
/// lines carry the full serialized [`MergeableDetector`] state of the
/// (merged) detector at each report point plus the report window's
/// geometry — ship them to another process and fold states with the
/// same merge algebra the in-process pipeline uses:
///
/// ```json
/// {"type":"report","series":0,"index":3,"start_ns":…,"end_ns":…,"total":…,
///  "hhhs":[{"prefix":"10.0.0.0/8","level":3,"estimate":…,"discounted":…},…]}
/// {"type":"state","at_ns":…,"start_ns":…,"snapshot":{"kind":"exact","total":…,"state":{…}}}
/// ```
///
/// **Binary (v2)** — the same records as length-prefixed binary frames
/// (`hhh_core::snapshot::binary`): states as per-kind binary bodies,
/// reports as frames carrying the verbatim JSON line. Orders of
/// magnitude cheaper to decode on the aggregation tier; transcodes
/// back to v1 byte-identically.
///
/// Both formats keep state, so engines hand this sink every state as a
/// v2 frame; the JSON format transcodes it to its `state` line.
///
/// [`MergeableDetector`]: hhh_core::MergeableDetector
#[derive(Debug)]
pub struct SnapshotSink<W: Write> {
    out: W,
    format: WireFormat,
    /// First I/O (or encode) error, if any (subsequent writes are
    /// skipped).
    error: Option<std::io::Error>,
}

impl SnapshotSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) a snapshot stream file at `path`. For a
    /// socket use [`TransportSink`](crate::TransportSink) over a
    /// [`TcpTransport`](crate::TcpTransport) instead.
    pub fn create(path: impl AsRef<std::path::Path>, format: WireFormat) -> std::io::Result<Self> {
        Ok(Self::with_format(std::io::BufWriter::new(std::fs::File::create(path)?), format))
    }
}

impl<W: Write> SnapshotSink<W> {
    /// Wrap a writer (`Vec<u8>`, `BufWriter<File>`, a socket…) in a
    /// **JSON (v1)** sink.
    pub fn new(out: W) -> Self {
        Self::with_format(out, WireFormat::Json)
    }

    /// A binary (v2) sink.
    pub fn binary(out: W) -> Self {
        Self::with_format(out, WireFormat::Binary)
    }

    /// A sink writing the given wire format.
    pub fn with_format(out: W, format: WireFormat) -> Self {
        SnapshotSink { out, format, error: None }
    }

    /// The wire format this sink writes.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(bytes) {
            self.error = Some(e);
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(line.as_bytes()).and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

/// Render one `{"type":"report",…}` JSON line (no trailing newline) —
/// the report shape of the snapshot stream. Shared between
/// [`SnapshotSink`] and the `hhh-agg` aggregator, so a merged report
/// diffs byte-for-byte against an in-process one (binary streams carry
/// this very line inside their report frames).
pub fn render_report_line<P: Display>(series: usize, report: &WindowReport<P>) -> String {
    let mut hhhs = String::from("[");
    for (i, r) in report.hhhs.iter().enumerate() {
        if i > 0 {
            hhhs.push(',');
        }
        hhhs.push_str(&format!(
            "{{\"prefix\":{},\"level\":{},\"estimate\":{},\"discounted\":{}}}",
            json_string(&r.prefix),
            r.level,
            r.estimate,
            r.discounted
        ));
    }
    hhhs.push(']');
    format!(
        "{{\"type\":\"report\",\"series\":{},\"index\":{},\"start_ns\":{},\"end_ns\":{},\
         \"total\":{},\"hhhs\":{}}}",
        series,
        report.index,
        report.start.as_nanos(),
        report.end.as_nanos(),
        report.total,
        hhhs
    )
}

impl<P: Display, W: Write> ReportSink<P> for SnapshotSink<W> {
    /// The writer plus the first I/O error encountered, if any.
    type Output = (W, Option<std::io::Error>);

    fn accept(&mut self, series: usize, report: WindowReport<P>) {
        let line = render_report_line(series, &report);
        match self.format {
            WireFormat::Json => self.write_line(&line),
            WireFormat::Binary => {
                let frame = SnapshotFrame::report(&line, report.start, report.end, report.total);
                self.write_bytes(&frame.encode());
            }
        }
    }

    /// Both formats keep every state.
    fn wants_frames(&self) -> bool {
        true
    }

    fn state_frame(&mut self, frame: &SnapshotFrame) {
        match self.format {
            WireFormat::Binary => self.write_bytes(&frame.encode()),
            // The frame → JSON transcode: the canonical state line.
            WireFormat::Json => match DetectorSnapshot::from_frame(frame) {
                Ok(snapshot) => {
                    let line = StampedSnapshot::render(frame.start, frame.at, &snapshot);
                    self.write_line(&line);
                }
                Err(e) if self.error.is_none() => {
                    self.error =
                        Some(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()));
                }
                Err(_) => {}
            },
        }
    }

    fn finish(mut self) -> Self::Output {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        (self.out, self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::HhhReport;

    fn report(index: u64) -> WindowReport<u32> {
        WindowReport {
            index,
            start: Nanos::from_secs(index),
            end: Nanos::from_secs(index + 1),
            total: 100 * (index + 1),
            hhhs: vec![HhhReport {
                prefix: 7u32,
                level: 0,
                estimate: 50,
                discounted: 50,
                lower_bound: 50,
            }],
        }
    }

    fn snap() -> DetectorSnapshot {
        DetectorSnapshot {
            kind: "exact".into(),
            total: 300,
            state_json: "{\"counts\":[[\"7\",300]]}".into(),
        }
    }

    fn state_frame() -> SnapshotFrame {
        snap().to_frame(Nanos::from_secs(2), Nanos::from_secs(3)).expect("transcodes")
    }

    #[test]
    fn collect_sink_preserves_series_shape() {
        let mut sink: CollectSink<u32> = CollectSink::new();
        sink.begin(3);
        sink.accept(1, report(0));
        sink.accept(0, report(0));
        sink.accept(1, report(1));
        let out = sink.finish();
        assert_eq!(out.len(), 3, "begin() fixes the series count even when one stays empty");
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[1].len(), 2);
        assert!(out[2].is_empty());
    }

    #[test]
    fn closure_sink_streams() {
        let mut seen = Vec::new();
        {
            let mut sink =
                FnSink(|series: usize, r: WindowReport<u32>| seen.push((series, r.index)));
            sink.accept(0, report(0));
            sink.accept(0, report(1));
            sink.finish();
        }
        assert_eq!(seen, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn json_sink_writes_report_and_state_lines() {
        let mut sink = SnapshotSink::new(Vec::new());
        ReportSink::<u32>::begin(&mut sink, 1);
        sink.accept(0, report(2));
        ReportSink::<u32>::state_frame(&mut sink, &state_frame());
        let (bytes, err) = ReportSink::<u32>::finish(sink);
        assert!(err.is_none());
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"report\",\"series\":0,\"index\":2,"));
        assert!(lines[0].contains("\"prefix\":\"7\""));
        assert!(lines[1]
            .starts_with("{\"type\":\"state\",\"at_ns\":3000000000,\"start_ns\":2000000000,"));
        assert!(lines[1].contains("\"kind\":\"exact\""));
    }

    #[test]
    fn binary_sink_writes_decodable_frames() {
        let mut sink = SnapshotSink::binary(Vec::new());
        ReportSink::<u32>::begin(&mut sink, 1);
        sink.accept(0, report(2));
        ReportSink::<u32>::state_frame(&mut sink, &state_frame());
        let (bytes, err) = ReportSink::<u32>::finish(sink);
        assert!(err.is_none());

        let (rep, used) = SnapshotFrame::decode(&bytes).unwrap();
        assert_eq!(rep.kind, "report");
        assert_eq!(rep.report_line().unwrap(), render_report_line(0, &report(2)));
        let (state, used2) = SnapshotFrame::decode(&bytes[used..]).unwrap();
        assert_eq!(used + used2, bytes.len());
        assert_eq!(state.kind, "exact");
        assert_eq!(state.start, Nanos::from_secs(2));
        assert_eq!(state.at, Nanos::from_secs(3));
        // The state frame transcodes back to the identical snapshot.
        assert_eq!(DetectorSnapshot::from_frame(&state).unwrap(), snap());
    }
}
