//! Pipeline sources: where a [`Pipeline`](crate::Pipeline) pulls its
//! input stream from.
//!
//! The pipeline consumes its input **chunk at a time** through the
//! generic [`Source`] trait, which keeps the engine loop batch-friendly
//! (one virtual call per chunk, not per item) and makes the source
//! swappable. A source carries its item type: every engine consumes
//! `Source<Item = PacketRecord>` ([`PacketSource`] is the alias bound),
//! and [`SnapshotSource`] is an iterator of [`WireSnapshot`]s —
//! previously captured detector states replayed off the wire (v1 JSON
//! lines or v2 binary frames) for `hhh-agg`'s fold.
//!
//! * any `Iterator` is a source of its items (blanket impl) —
//!   generated traces, slices, adapters;
//! * [`ChannelSource`] is fed by a [`PacketFeeder`] over a **bounded**
//!   channel, so threads, sockets, or a pcap tail can push packets into
//!   a running pipeline with back-pressure: when the analysis side
//!   falls behind, `send` blocks instead of buffering unboundedly;
//! * [`SnapshotSource`] reads a snapshot stream in either wire format
//!   (what a [`SnapshotSink`](crate::SnapshotSink) wrote, or what
//!   `hhh-agg` re-emitted), sniffing v1 JSONL vs v2 binary frames off
//!   the first byte, and yields the [`WireSnapshot`]s in it;
//! * `hhh-pcap` provides chunked file sources (`PcapSource`,
//!   `NativeSource`) over the capture formats.
//!
//! Packet sources must yield packets in non-decreasing timestamp order
//! — every engine's contract. A snapshot stream written by a pipeline
//! holds its states in non-decreasing `at` order.

use crate::transport::{read_frame_from, TransportError};
use hhh_core::snapshot::binary::REPORT_KIND;
use hhh_core::{parse_state_line, SnapshotError, WireFormat, WireSnapshot};
use hhh_nettypes::PacketRecord;
use std::io::BufRead;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::time::Instant;

/// Default items per chunk pulled from a source. Matches the sharded
/// pipeline's batch sizing rationale: large enough to amortize per-chunk
/// overhead, small enough to stay cache-resident.
pub const DEFAULT_CHUNK: usize = 8192;

/// A pull-based, chunked stream of items.
///
/// Blanket-implemented for every `Iterator` (generated traces, slices,
/// `hhh-pcap`'s file sources, [`SnapshotSource`]), so most concrete
/// source types only implement `Iterator` and inherit the chunked
/// protocol. Sources with their own latency story — like
/// [`ChannelSource`], which must hand over partial chunks rather than
/// block a live feed — implement `pull_chunk` directly.
pub trait Source {
    /// The item type the source yields (`PacketRecord` for a source
    /// an engine consumes).
    type Item;

    /// Append the next chunk of items to `buf` (the caller hands in
    /// an empty buffer) and return `true`, or return `false` when the
    /// stream is exhausted. Implementations choose their own chunk
    /// size; an implementation must not return `true` with an empty
    /// `buf`.
    fn pull_chunk(&mut self, buf: &mut Vec<Self::Item>) -> bool;
}

/// Every iterator is a source of its items: chunks of [`DEFAULT_CHUNK`].
impl<I: Iterator> Source for I {
    type Item = I::Item;

    fn pull_chunk(&mut self, buf: &mut Vec<I::Item>) -> bool {
        buf.extend(self.by_ref().take(DEFAULT_CHUNK));
        !buf.is_empty()
    }
}

/// A [`Source`] of time-sorted [`PacketRecord`]s — the bound every
/// packet-consuming engine states. Blanket-implemented, never
/// implemented by hand: implement [`Source`] (or just `Iterator`) and
/// this alias follows.
pub trait PacketSource: Source<Item = PacketRecord> {}

impl<T: Source<Item = PacketRecord>> PacketSource for T {}

/// Create a bounded feeder/source pair: the [`PacketFeeder`] half goes
/// to the producing thread (socket reader, pcap tail, generator), the
/// [`ChannelSource`] half goes to [`Pipeline::new`](crate::Pipeline).
///
/// `capacity` is the number of in-flight *batches* (of up to `batch`
/// packets each) the queue holds before `send` blocks — the
/// back-pressure bound. Total buffered packets ≤ `capacity × batch`.
///
/// ```
/// use hhh_window::source::bounded;
///
/// let (mut feeder, source) = bounded(4, 1024);
/// let producer = std::thread::spawn(move || {
///     use hhh_nettypes::{Nanos, PacketRecord};
///     for i in 0..10_000u64 {
///         feeder.send(PacketRecord::new(Nanos::from_micros(i), i as u32, 1, 100));
///     }
///     // feeder drops here: flushes the tail and closes the stream.
/// });
/// use hhh_window::Source;
/// let mut source = source;
/// let mut n = 0usize;
/// let mut buf = Vec::new();
/// while source.pull_chunk(&mut buf) {
///     n += buf.len();
///     buf.clear();
/// }
/// producer.join().unwrap();
/// assert_eq!(n, 10_000);
/// ```
pub fn bounded(capacity: usize, batch: usize) -> (PacketFeeder, ChannelSource) {
    assert!(capacity > 0, "channel capacity must be non-zero");
    assert!(batch > 0, "batch size must be non-zero");
    let (tx, rx) = sync_channel(capacity);
    (
        PacketFeeder { tx, buf: Vec::with_capacity(batch), batch, stats: FeederStats::default() },
        ChannelSource { rx },
    )
}

/// What a [`PacketFeeder`] observed about its own sending — the
/// producer-side view of the back-pressure seam. `stall_seconds` is
/// time spent blocked on a full channel: zero means the pipeline kept
/// up with the offered rate; anything else is how far past saturation
/// the producer pushed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FeederStats {
    /// Packets that reached the channel (buffered tail not yet
    /// flushed is excluded).
    pub packets: u64,
    /// Batches pushed down the channel.
    pub batches: u64,
    /// Seconds spent blocked in `send`/`flush` on a full channel.
    pub stall_seconds: f64,
}

/// The producing half of [`bounded`]: buffers packets into batches and
/// pushes them down the bounded channel, blocking when the pipeline is
/// `capacity` batches behind.
pub struct PacketFeeder {
    tx: SyncSender<Vec<PacketRecord>>,
    buf: Vec<PacketRecord>,
    batch: usize,
    stats: FeederStats,
}

impl PacketFeeder {
    /// Queue one packet; blocks on a full channel (back-pressure).
    /// Returns `false` when the consuming pipeline has hung up (the
    /// producer should stop).
    pub fn send(&mut self, p: PacketRecord) -> bool {
        self.buf.push(p);
        if self.buf.len() >= self.batch {
            return self.flush();
        }
        true
    }

    /// Queue a whole batch (chunked internally).
    pub fn send_batch(&mut self, packets: &[PacketRecord]) -> bool {
        for &p in packets {
            if !self.send(p) {
                return false;
            }
        }
        true
    }

    /// Push any buffered packets now instead of waiting for a full
    /// batch. Returns `false` when the consumer has hung up.
    pub fn flush(&mut self) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        let send = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch));
        let n = send.len() as u64;
        // Try the fast path first so an uncontended send pays no clock
        // reads; only a full channel starts the stall stopwatch.
        let ok = match self.tx.try_send(send) {
            Ok(()) => true,
            Err(TrySendError::Full(send)) => {
                let blocked = Instant::now();
                let ok = self.tx.send(send).is_ok();
                self.stats.stall_seconds += blocked.elapsed().as_secs_f64();
                ok
            }
            Err(TrySendError::Disconnected(_)) => false,
        };
        if ok {
            self.stats.packets += n;
            self.stats.batches += 1;
        }
        ok
    }

    /// The feeder's send/stall counters so far.
    pub fn stats(&self) -> FeederStats {
        self.stats
    }
}

impl Drop for PacketFeeder {
    /// Flush the buffered tail so dropping the feeder cleanly ends the
    /// stream (the channel closes when the last sender drops).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// The consuming half of [`bounded`]: a [`Source`] over the fed
/// packets, ending when the last [`PacketFeeder`] is dropped.
///
/// Each [`pull_chunk`](Source::pull_chunk) **blocks only for the
/// first queued batch** (an empty queue with live feeders means the
/// producer is slower than the pipeline — wait, don't spin), then
/// drains whatever else is already queued without blocking. A slow
/// feeder therefore never delays reports for windows that have already
/// closed: every fed batch reaches the engine as soon as the engine
/// asks, rather than once [`DEFAULT_CHUNK`] packets accumulate.
pub struct ChannelSource {
    rx: Receiver<Vec<PacketRecord>>,
}

impl Source for ChannelSource {
    type Item = PacketRecord;

    fn pull_chunk(&mut self, buf: &mut Vec<PacketRecord>) -> bool {
        // Block for the first non-empty batch (feeders never send
        // empty ones; the guard is defensive).
        let first = loop {
            match self.rx.recv() {
                Ok(batch) if batch.is_empty() => continue,
                Ok(batch) => break batch,
                Err(_) => return false,
            }
        };
        if buf.is_empty() {
            *buf = first;
        } else {
            buf.extend_from_slice(&first);
        }
        // Opportunistically drain what is already queued.
        while buf.len() < DEFAULT_CHUNK {
            match self.rx.try_recv() {
                Ok(batch) => buf.extend_from_slice(&batch),
                Err(_) => break,
            }
        }
        true
    }
}

/// One record of a snapshot stream, either wire format.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamRecord {
    /// A report record: the `{"type":"report",…}` JSON line it renders
    /// as (binary streams carry the line verbatim inside a frame).
    Report(String),
    /// A state record (a v1 line or a v2 frame, undecoded).
    State(WireSnapshot),
}

/// A [`Source`] of [`WireSnapshot`]s read from a snapshot stream —
/// the decode side of what [`SnapshotSink`](crate::SnapshotSink)
/// writes, in **either** wire format.
///
/// The format is sniffed from the first byte: v1 JSONL starts with
/// `{` (or whitespace), v2 binary with the frame magic. `report`
/// records riding in the same stream are skipped by the iterator
/// (use [`next_record`](Self::next_record) to see them, e.g. for
/// transcoding); `state` records are yielded undecoded, so the fold
/// path can go binary body → detector without a JSON detour. The
/// stream ends at end-of-input **or at the first malformed record**:
/// engines cannot carry errors, so the error is kept for inspection
/// via [`error`](Self::error) — strict callers (like `hhh-agg`) check
/// it after the run, the way the pcap sources expose torn captures.
///
/// Feed the pipeline `&mut source` (every `&mut Iterator` is itself an
/// iterator, hence a source) so `error()` is still reachable after the
/// run.
pub struct SnapshotSource<R: BufRead> {
    input: R,
    format: Option<WireFormat>,
    line: String,
    /// 1-based record ordinal (line number for JSONL, frame ordinal
    /// for binary).
    line_no: usize,
    error: Option<(usize, SnapshotError)>,
}

impl SnapshotSource<std::io::BufReader<std::fs::File>> {
    /// Open a snapshot stream file at `path`. Socket streams arrive
    /// through a [`FrameHub`](crate::FrameHub) instead.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufReader::new(std::fs::File::open(path)?)))
    }
}

impl<R: BufRead> SnapshotSource<R> {
    /// Read snapshots from a buffered reader (a file, stdin, a
    /// `&[u8]`…).
    pub fn new(input: R) -> Self {
        SnapshotSource { input, format: None, line: String::new(), line_no: 0, error: None }
    }

    /// The first decode error, with its 1-based record number —
    /// `None` after a clean end-of-stream. I/O errors surface as
    /// [`SnapshotError::Transport`] (typed by [`std::io::ErrorKind`]).
    pub fn error(&self) -> Option<&(usize, SnapshotError)> {
        self.error.as_ref()
    }

    /// The sniffed wire format — `None` until the first record (or
    /// byte) has been read.
    pub fn format(&self) -> Option<WireFormat> {
        self.format
    }

    /// 1-based ordinal of the most recently read record (line number
    /// for JSONL, frame ordinal for binary) — what error reports
    /// should point at.
    pub fn record_no(&self) -> usize {
        self.line_no
    }

    fn fail(&mut self, e: SnapshotError) -> Option<StreamRecord> {
        self.error = Some((self.line_no.max(1), e));
        None
    }

    /// Sniff the stream format off the first buffered byte. Anything
    /// that cannot start a JSON line is handed to the frame decoder,
    /// which reports garbage as a bad-magic error.
    fn sniff(&mut self) -> Result<Option<WireFormat>, SnapshotError> {
        let buf = self.input.fill_buf().map_err(|e| SnapshotError::transport("read", &e))?;
        Ok(match buf.first() {
            None => None, // empty stream
            Some(b'{' | b' ' | b'\t' | b'\r' | b'\n') => Some(WireFormat::Json),
            Some(_) => Some(WireFormat::Binary),
        })
    }

    /// The next record of the stream (reports included), or `None` at
    /// end-of-stream / first error.
    pub fn next_record(&mut self) -> Option<StreamRecord> {
        self.next_impl(true)
    }

    /// `want_reports = false` is the fold path: report records are
    /// still validated but skipped without materializing their line
    /// (no per-report allocation on the hot iterator).
    fn next_impl(&mut self, want_reports: bool) -> Option<StreamRecord> {
        if self.error.is_some() {
            return None;
        }
        if self.format.is_none() {
            match self.sniff() {
                Ok(None) => return None,
                Ok(some) => self.format = some,
                Err(e) => return self.fail(e),
            }
        }
        match self.format.expect("sniffed above") {
            WireFormat::Json => self.next_json_record(want_reports),
            WireFormat::Binary => loop {
                match self.next_frame_record(want_reports) {
                    Some(None) => continue, // skipped report frame
                    Some(Some(record)) => return Some(record),
                    None => return None,
                }
            },
        }
    }

    fn next_json_record(&mut self, want_reports: bool) -> Option<StreamRecord> {
        loop {
            self.line.clear();
            self.line_no += 1;
            match self.input.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    return self.fail(SnapshotError::transport("read", &e));
                }
            }
            let text = self.line.trim();
            if text.is_empty() {
                continue;
            }
            match parse_state_line(text) {
                Ok(Some(s)) => return Some(StreamRecord::State(WireSnapshot::Json(s))),
                Ok(None) if want_reports => return Some(StreamRecord::Report(text.to_string())),
                Ok(None) => continue, // report line, fold path: no copy
                Err(e) => {
                    let line_no = self.line_no;
                    self.error = Some((line_no, e));
                    return None;
                }
            }
        }
    }

    /// One frame: `None` = end/error, `Some(None)` = validated report
    /// frame the caller did not ask for.
    fn next_frame_record(&mut self, want_reports: bool) -> Option<Option<StreamRecord>> {
        self.line_no += 1;
        let frame = match read_frame_from(&mut self.input) {
            Ok(Some(frame)) => frame,
            Ok(None) => return None, // clean end at a frame boundary
            Err(e) => {
                self.fail(match e {
                    TransportError::Frame(e) => e,
                    TransportError::Io { op, source } => SnapshotError::transport(op, &source),
                    TransportError::Handshake(what) => SnapshotError::Parse { offset: 0, what },
                });
                return None;
            }
        };
        if frame.kind == REPORT_KIND {
            match frame.report_line() {
                Ok(line) if want_reports => Some(Some(StreamRecord::Report(line.to_string()))),
                Ok(_) => Some(None), // validated, fold path: no copy
                Err(e) => {
                    self.fail(e);
                    None
                }
            }
        } else {
            Some(Some(StreamRecord::State(WireSnapshot::Binary(frame))))
        }
    }
}

impl<R: BufRead> Iterator for SnapshotSource<R> {
    type Item = WireSnapshot;

    fn next(&mut self) -> Option<WireSnapshot> {
        loop {
            match self.next_impl(false)? {
                StreamRecord::State(s) => return Some(s),
                StreamRecord::Report(_) => continue, // unreachable with want_reports=false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::snapshot::binary::SnapshotFrame;
    use hhh_nettypes::Nanos;

    fn pkt(i: u64) -> PacketRecord {
        PacketRecord::new(Nanos::from_micros(i), i as u32, 1, 100)
    }

    #[test]
    fn iterator_source_chunks_everything() {
        let pkts: Vec<PacketRecord> = (0..20_000).map(pkt).collect();
        let mut src = pkts.iter().copied();
        let mut buf = Vec::new();
        let mut got = Vec::new();
        while src.pull_chunk(&mut buf) {
            assert!(!buf.is_empty());
            assert!(buf.len() <= DEFAULT_CHUNK);
            got.append(&mut buf);
        }
        assert_eq!(got, pkts);
    }

    #[test]
    fn channel_source_delivers_in_order_and_ends() {
        let (mut feeder, mut source) = bounded(2, 64);
        let handle = std::thread::spawn(move || {
            for i in 0..1000 {
                assert!(feeder.send(pkt(i)));
            }
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while source.pull_chunk(&mut buf) {
            got.append(&mut buf);
        }
        handle.join().unwrap();
        assert_eq!(got.len(), 1000);
        assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn drop_without_flush_still_delivers_tail() {
        let (mut feeder, mut source) = bounded(4, 100);
        for i in 0..42 {
            feeder.send(pkt(i)); // never fills a batch
        }
        drop(feeder);
        let mut buf = Vec::new();
        assert!(source.pull_chunk(&mut buf));
        assert_eq!(buf.len(), 42);
        buf.clear();
        assert!(!source.pull_chunk(&mut buf));
    }

    #[test]
    fn channel_source_hands_over_partial_chunks_without_waiting() {
        // The live-feed latency contract: once a batch is queued, a
        // pull must return it even though the feeder is still alive
        // and far fewer than DEFAULT_CHUNK packets exist.
        let (mut feeder, mut source) = bounded(4, 10);
        for i in 0..10 {
            assert!(feeder.send(pkt(i))); // 10th send flushes the batch
        }
        let mut buf = Vec::new();
        assert!(source.pull_chunk(&mut buf), "queued batch must be delivered");
        assert_eq!(buf.len(), 10, "partial chunk handed over, not held for DEFAULT_CHUNK");
        drop(feeder);
        buf.clear();
        assert!(!source.pull_chunk(&mut buf));
    }

    #[test]
    fn feeder_stats_count_packets_and_stall_time() {
        let (mut feeder, mut source) = bounded(1, 10);
        for i in 0..10 {
            assert!(feeder.send(pkt(i))); // fills the only slot
        }
        let stats = feeder.stats();
        assert_eq!(stats.packets, 10);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.stall_seconds, 0.0, "uncontended sends must not count as stall");
        // The channel is full: the next flush must block until the
        // consumer drains, and the blocked time must be recorded.
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(60));
            let mut buf = Vec::new();
            while source.pull_chunk(&mut buf) {
                buf.clear();
            }
        });
        for i in 10..20 {
            assert!(feeder.send(pkt(i)));
        }
        let stats = feeder.stats();
        assert_eq!(stats.packets, 20);
        assert_eq!(stats.batches, 2);
        assert!(stats.stall_seconds > 0.04, "blocked send must register: {stats:?}");
        drop(feeder);
        consumer.join().unwrap();
    }

    #[test]
    fn hung_up_consumer_reported_to_feeder() {
        let (mut feeder, source) = bounded(1, 1);
        drop(source);
        assert!(!feeder.send(pkt(0)), "send into a dropped source must report hang-up");
    }

    #[test]
    fn snapshot_source_reads_state_lines_and_skips_reports() {
        let text = "\
{\"type\":\"report\",\"series\":0,\"index\":0,\"start_ns\":0,\"end_ns\":1,\"total\":5,\"hhhs\":[]}\n\
{\"type\":\"state\",\"at_ns\":1000000000,\"snapshot\":{\"v\":1,\"kind\":\"exact\",\"total\":5,\
\"state\":{\"counts\":[[\"7\",5]]}}}\n\
\n\
{\"type\":\"state\",\"at_ns\":2000000000,\"start_ns\":1000000000,\"snapshot\":{\"v\":1,\
\"kind\":\"exact\",\"total\":9,\"state\":{\"counts\":[[\"7\",9]]}}}\n";
        let mut src = SnapshotSource::new(text.as_bytes());
        let got: Vec<WireSnapshot> = (&mut src).collect();
        assert!(src.error().is_none());
        assert_eq!(src.format(), Some(WireFormat::Json));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].at(), Nanos::from_secs(1));
        assert_eq!(got[0].start(), Nanos::from_secs(1), "missing start_ns defaults to at");
        assert_eq!(got[0].total(), 5);
        assert_eq!(got[1].at(), Nanos::from_secs(2));
        assert_eq!(got[1].start(), Nanos::from_secs(1));
        assert_eq!(got[1].kind(), "exact");
    }

    #[test]
    fn snapshot_source_stops_at_garbage_and_reports_the_line() {
        let text = "{\"type\":\"report\",\"series\":0}\nnot json\n";
        let mut src = SnapshotSource::new(text.as_bytes());
        assert_eq!((&mut src).count(), 0);
        let (line, err) = src.error().expect("garbage must be reported");
        assert_eq!(*line, 2);
        assert!(matches!(err, SnapshotError::Parse { .. }));
    }

    #[test]
    fn snapshot_source_sniffs_and_reads_binary_frames() {
        use hhh_core::DetectorSnapshot;
        let snap = DetectorSnapshot {
            kind: "exact".into(),
            total: 5,
            state_json: "{\"counts\":[[\"7\",5]]}".into(),
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(
            &SnapshotFrame::report(
                "{\"type\":\"report\",\"series\":0}",
                Nanos::ZERO,
                Nanos::ZERO,
                5,
            )
            .encode(),
        );
        bytes.extend_from_slice(&snap.to_frame(Nanos::ZERO, Nanos::from_secs(1)).unwrap().encode());
        let mut src = SnapshotSource::new(bytes.as_slice());
        let got: Vec<WireSnapshot> = (&mut src).collect();
        assert!(src.error().is_none(), "{:?}", src.error());
        assert_eq!(src.format(), Some(WireFormat::Binary));
        assert_eq!(got.len(), 1, "report frames are skipped by the iterator");
        assert_eq!(got[0].kind(), "exact");
        assert_eq!(got[0].at(), Nanos::from_secs(1));
        assert_eq!(got[0].to_stamped().unwrap().snapshot, snap);
    }

    #[test]
    fn snapshot_source_reports_binary_garbage_and_truncation() {
        // Garbage bytes sniff as binary and fail with a bad magic.
        let mut src = SnapshotSource::new(&b"nonsense bytes"[..]);
        assert_eq!((&mut src).count(), 0);
        let (_, err) = src.error().expect("garbage must be reported");
        assert_eq!(*err, SnapshotError::Parse { offset: 0, what: "bad frame magic" });

        // A frame cut mid-payload is a truncation error, not a hang.
        let snap = hhh_core::DetectorSnapshot {
            kind: "exact".into(),
            total: 5,
            state_json: "{\"counts\":[[\"7\",5]]}".into(),
        };
        let full = snap.to_frame(Nanos::ZERO, Nanos::ZERO).unwrap().encode();
        let mut src = SnapshotSource::new(&full[..full.len() - 3]);
        assert_eq!((&mut src).count(), 0);
        let (_, err) = src.error().expect("truncation must be reported");
        assert!(matches!(err, SnapshotError::Parse { what: "truncated frame", .. }), "{err:?}");
    }
}
