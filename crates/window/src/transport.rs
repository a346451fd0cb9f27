//! **Snapshot transports**: one interface for moving v2 snapshot
//! frames between processes — files, TCP sockets, and in-process
//! channels.
//!
//! Before this module, snapshot I/O was three ad-hoc pieces: the sink
//! wrote files, the source read files, and `hhh-agg` folded file
//! paths. The transport layer makes the *medium* a pluggable detail:
//!
//! | transport | write side | read side |
//! |---|---|---|
//! | [`FileTransport`] | any `io::Write` (files, pipes, `Vec<u8>`) | any `io::BufRead` |
//! | [`TcpTransport`] / [`TcpFrameListener`] | connect + reconnect-with-backoff | multi-client accept |
//! | [`mem_transport`] | bounded in-process channel | same channel |
//!
//! A frame on a socket is **the same bytes** as a frame in a file: the
//! length-delimited v2 encoding (`hhh_core::snapshot::binary`) already
//! self-describes and self-delimits, so every transport just moves
//! encoded frames — [`FrameWrite`] pushes them, [`FrameRead`] pulls
//! them, and the pipeline faces ([`TransportSink`](crate::TransportSink),
//! [`TransportSource`]) adapt either end to the `Pipeline` API. The
//! write side hands detectors' **natively encoded** frames through
//! (`MergeableDetector::to_frame`, the `FrameEncode` path) — no JSON
//! is rendered or parsed anywhere between a shard's detector state and
//! the aggregator's restored detector.
//!
//! ## TCP specifics
//!
//! * Each connection opens with a [`hello_frame`]: a tiny frame of
//!   kind [`HELLO_KIND`] carrying the writer's **stream id** (shard
//!   index) and label. The listener groups frames by stream id and
//!   returns streams sorted by it, so a socket fold applies merges in
//!   the same deterministic shard order as a file fold — which is what
//!   makes the two byte-identical.
//! * The write side reconnects with exponential backoff — on initial
//!   connect (shards may start before the aggregator binds) and on
//!   mid-stream failures, re-sending the frame whose write failed on
//!   the fresh connection. Each hello also carries the writer's
//!   **delivered-frame count**, and the listener refuses to stitch a
//!   reconnect onto a stream with a gap: a frame the kernel accepted
//!   but never delivered (write succeeded locally, connection died in
//!   flight) surfaces as an incomplete stream / timeout error — never
//!   silently wrong output. Duplicates cannot occur (a frame whose
//!   write errored is never whole on the old connection, so the
//!   re-send is the only copy); writer-crash *resume* (retry/dedup
//!   across process restarts) belongs to a later aggregator-tier
//!   layer.
//! * A peer that dies mid-frame leaves a torn tail: the read side
//!   reports it as a clean typed error ([`TransportError::Frame`]) —
//!   never a panic, hang, or pathological allocation — and the
//!   listener keeps the connection's fully-decoded frames, waiting for
//!   the writer's reconnect to resume the stream.

use crate::sink::{render_report_line, ReportSink};
use crate::source::Source;
use crate::WindowReport;
use hhh_core::snapshot::binary::{payload_len, FRAME_HEADER_LEN, REPORT_KIND};
use hhh_core::snapshot::{DetectorSnapshot, SnapshotFrame};
use hhh_core::{SnapshotError, WireSnapshot};
use hhh_nettypes::Nanos;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Display};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a transport operation failed. Implements
/// [`std::error::Error::source`]: I/O failures chain to the underlying
/// [`io::Error`], framing failures to the [`SnapshotError`].
#[derive(Debug)]
pub enum TransportError {
    /// The underlying medium failed (socket reset, disk full, peer
    /// hung up, connect/accept exhausted its retries).
    Io {
        /// What the transport was doing (`connect`, `accept`, `read`,
        /// `write`, `send`).
        op: &'static str,
        /// The I/O failure.
        source: io::Error,
    },
    /// The bytes on the medium did not frame-decode (torn tail from a
    /// peer that died mid-frame, garbage, version skew).
    Frame(SnapshotError),
    /// A TCP connection did not open with a valid [`hello_frame`].
    Handshake(&'static str),
}

impl Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io { op, source } => write!(f, "transport {op} failed: {source}"),
            TransportError::Frame(e) => write!(f, "transport framing: {e}"),
            TransportError::Handshake(what) => write!(f, "transport handshake: {what}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io { source, .. } => Some(source),
            TransportError::Frame(e) => Some(e),
            TransportError::Handshake(_) => None,
        }
    }
}

impl TransportError {
    fn io(op: &'static str, source: io::Error) -> Self {
        TransportError::Io { op, source }
    }

    /// The lossy-but-`Clone` [`SnapshotError`] form, for surfaces that
    /// carry decode errors (`SnapshotSource::error`-style).
    pub fn to_snapshot_error(&self) -> SnapshotError {
        match self {
            TransportError::Io { op, source } => SnapshotError::transport(op, source),
            TransportError::Frame(e) => e.clone(),
            TransportError::Handshake(what) => SnapshotError::Invalid { field: "hello", what },
        }
    }
}

/// The write half of a snapshot transport: push v2 frames into a
/// medium. Implementations must deliver each frame atomically from the
/// reader's point of view (all transports here frame-delimit, so a
/// reader never sees half a frame as success).
pub trait FrameWrite {
    /// Deliver one frame.
    fn write_frame(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError>;

    /// Flush anything buffered to the medium.
    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// The read half of a snapshot transport: pull v2 frames out of a
/// medium. `Ok(None)` is a clean end-of-stream at a frame boundary.
pub trait FrameRead {
    /// The next frame, `Ok(None)` at clean end-of-stream, or a typed
    /// error (torn frame, I/O failure).
    fn read_frame(&mut self) -> Result<Option<SnapshotFrame>, TransportError>;
}

/// Read up to `buf.len()` bytes, tolerating short reads and EINTR —
/// the one fill loop the transports and `SnapshotSource` share.
pub(crate) fn fill_from<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match input.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

fn read_fully<R: Read>(input: &mut R, buf: &mut [u8]) -> Result<usize, TransportError> {
    fill_from(input, buf).map_err(|e| TransportError::io("read", e))
}

/// Read one length-delimited v2 frame off a byte stream: the one
/// definition of "frame off a wire" every [`FrameRead`] implementation
/// here shares. `Ok(None)` = clean end at a frame boundary; a partial
/// header or payload is a typed truncation error.
pub fn read_frame_from<R: Read>(input: &mut R) -> Result<Option<SnapshotFrame>, TransportError> {
    let mut header = [0u8; hhh_core::snapshot::binary::FRAME_HEADER_LEN];
    match read_fully(input, &mut header)? {
        0 => return Ok(None),
        n if n < header.len() => {
            return Err(TransportError::Frame(SnapshotError::Parse {
                offset: n,
                what: "truncated frame",
            }));
        }
        _ => {}
    }
    let len = payload_len(&header).map_err(TransportError::Frame)?;
    let mut payload = vec![0u8; len];
    let got = read_fully(input, &mut payload)?;
    if got < len {
        return Err(TransportError::Frame(SnapshotError::Parse {
            offset: got,
            what: "truncated frame",
        }));
    }
    SnapshotFrame::decode_payload(&payload).map(Some).map_err(TransportError::Frame)
}

// ---------------------------------------------------------------------
// FileTransport
// ---------------------------------------------------------------------

/// Frames over any byte stream the standard library can write or read:
/// files, pipes, `Vec<u8>` buffers, or an already-connected socket.
/// Wrap a writer to get [`FrameWrite`], a buffered reader to get
/// [`FrameRead`].
#[derive(Debug)]
pub struct FileTransport<T> {
    inner: T,
}

impl<T> FileTransport<T> {
    /// Wrap an already-open writer or reader.
    pub fn new(inner: T) -> Self {
        FileTransport { inner }
    }

    /// Unwrap the underlying stream.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl FileTransport<BufWriter<std::fs::File>> {
    /// Create (truncate) a frame file at `path` for writing.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(FileTransport::new(BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl FileTransport<BufReader<std::fs::File>> {
    /// Open a frame file at `path` for reading.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(FileTransport::new(BufReader::new(std::fs::File::open(path)?)))
    }
}

impl<W: Write> FrameWrite for FileTransport<W> {
    fn write_frame(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError> {
        self.inner.write_all(&frame.encode()).map_err(|e| TransportError::io("write", e))
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush().map_err(|e| TransportError::io("write", e))
    }
}

impl<R: BufRead> FrameRead for FileTransport<R> {
    fn read_frame(&mut self) -> Result<Option<SnapshotFrame>, TransportError> {
        read_frame_from(&mut self.inner)
    }
}

// ---------------------------------------------------------------------
// MemTransport
// ---------------------------------------------------------------------

/// Create a bounded in-process frame channel: the [`MemFrameWriter`]
/// half goes to the producing thread (a shard pipeline's
/// [`TransportSink`]), the [`MemFrameReader`] half feeds a consuming
/// pipeline (via [`TransportSource`]) — snapshots move between threads
/// with back-pressure and **zero** serialization (frames cross the
/// channel decoded).
///
/// `capacity` is the number of in-flight frames before
/// [`write_frame`](FrameWrite::write_frame) blocks.
pub fn mem_transport(capacity: usize) -> (MemFrameWriter, MemFrameReader) {
    assert!(capacity > 0, "channel capacity must be non-zero");
    let (tx, rx) = mpsc::sync_channel(capacity);
    (MemFrameWriter { tx }, MemFrameReader { rx })
}

/// The producing half of [`mem_transport`].
#[derive(Clone, Debug)]
pub struct MemFrameWriter {
    tx: mpsc::SyncSender<SnapshotFrame>,
}

impl FrameWrite for MemFrameWriter {
    fn write_frame(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError> {
        self.tx.send(frame.clone()).map_err(|_| {
            TransportError::io(
                "send",
                io::Error::new(io::ErrorKind::BrokenPipe, "frame channel receiver dropped"),
            )
        })
    }
}

/// The consuming half of [`mem_transport`]: ends cleanly when the last
/// [`MemFrameWriter`] clone is dropped.
#[derive(Debug)]
pub struct MemFrameReader {
    rx: mpsc::Receiver<SnapshotFrame>,
}

impl FrameRead for MemFrameReader {
    fn read_frame(&mut self) -> Result<Option<SnapshotFrame>, TransportError> {
        match self.rx.recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(_) => Ok(None), // all writers dropped: clean end
        }
    }
}

// ---------------------------------------------------------------------
// TCP: hello frames
// ---------------------------------------------------------------------

/// The kind header of the per-connection handshake frame.
pub const HELLO_KIND: &str = "hello";

/// The kind header of the acknowledgement frame an acking listener
/// (the `hhh-aggd` [`FrameHub`]) sends back right after a hello:
/// `total` carries the stream id being acked, `at` the number of
/// frames the listener holds for that stream. A resume-capable writer
/// ([`TcpTransport::with_spool`]) reads it to learn where to replay
/// from; the plain PR 5 write side never reads its socket, so the ack
/// sits harmlessly in the kernel buffer.
pub const ACK_KIND: &str = "ack";

/// The hello `start` field value marking a **resume-capable** writer:
/// one that waits for the listener's [`ack_frame`] and replays its
/// spool from the acked position. Plain writers leave `start` at 0 and
/// the listener attributes connection frames to the hello's claimed
/// position instead.
const HELLO_RESUME_FLAG: u64 = 1;

/// Build the handshake frame a [`TcpTransport`] writes when a
/// connection opens: `total` carries the writer's stream id (shard
/// index), the body its human-readable label, and `at` the number of
/// frames the writer believes were **delivered on its previous
/// connections** (0 on the first). The listener uses the id to keep
/// fold order deterministic across nondeterministic connection
/// arrival, and the delivered count to refuse stitching a reconnect
/// onto a stream with a gap — a frame lost in flight keeps the stream
/// incomplete instead of silently shortening it.
pub fn hello_frame(id: u64, label: &str, delivered: u64) -> SnapshotFrame {
    hello_with_flags(id, label, delivered, 0)
}

/// The resume-capable flavor of [`hello_frame`]: marks the writer as
/// one that honors the listener's [`ack_frame`] — the listener will
/// expect this connection's frames to start at the **acked** position,
/// not the claimed one. Written by [`TcpTransport::with_spool`].
pub fn resume_hello_frame(id: u64, label: &str, acked: u64) -> SnapshotFrame {
    hello_with_flags(id, label, acked, HELLO_RESUME_FLAG)
}

fn hello_with_flags(id: u64, label: &str, delivered: u64, flags: u64) -> SnapshotFrame {
    SnapshotFrame {
        start: Nanos::from_nanos(flags),
        at: Nanos::from_nanos(delivered),
        kind: Cow::Borrowed(HELLO_KIND),
        total: id,
        digest: hhh_core::snapshot::binary::fnv1a(label.as_bytes()),
        body: label.as_bytes().to_vec(),
    }
}

/// Build the acknowledgement frame an acking listener sends right
/// after reading a hello: "for stream `id`, I hold `received` frames".
pub fn ack_frame(id: u64, received: u64) -> SnapshotFrame {
    SnapshotFrame {
        start: Nanos::ZERO,
        at: Nanos::from_nanos(received),
        kind: Cow::Borrowed(ACK_KIND),
        total: id,
        digest: hhh_core::snapshot::binary::fnv1a(&[]),
        body: Vec::new(),
    }
}

/// Decode an [`ack_frame`]: `(stream id, received count)`.
pub fn parse_ack(frame: &SnapshotFrame) -> Result<(u64, u64), TransportError> {
    if frame.kind != ACK_KIND {
        return Err(TransportError::Handshake("expected an ack frame"));
    }
    Ok((frame.total, frame.at.as_nanos()))
}

/// A decoded [`hello_frame`] / [`resume_hello_frame`].
#[derive(Clone, Debug)]
struct Hello {
    id: u64,
    label: String,
    delivered: u64,
    resume: bool,
}

/// Decode a hello frame.
fn parse_hello(frame: &SnapshotFrame) -> Result<Hello, TransportError> {
    if frame.kind != HELLO_KIND {
        return Err(TransportError::Handshake("first frame is not a hello"));
    }
    if hhh_core::snapshot::binary::fnv1a(&frame.body) != frame.digest {
        return Err(TransportError::Handshake("hello digest mismatch"));
    }
    let label = String::from_utf8(frame.body.clone())
        .map_err(|_| TransportError::Handshake("hello label is not UTF-8"))?;
    Ok(Hello {
        id: frame.total,
        label,
        delivered: frame.at.as_nanos(),
        resume: frame.start.as_nanos() & HELLO_RESUME_FLAG != 0,
    })
}

// ---------------------------------------------------------------------
// Frame spool
// ---------------------------------------------------------------------

/// A durable, append-only file of encoded v2 frames: the shard-side
/// **spool** that makes a stream replayable across process restarts.
///
/// A [`TcpTransport::with_spool`] writer appends every frame here
/// before sending it, so the spool always holds the authoritative
/// prefix of the stream. When the process restarts, reopening the
/// spool recovers every frame the previous run produced (a torn tail
/// from a crash mid-append is truncated away); the transport then asks
/// the aggregation daemon where to resume (the hello/ack handshake)
/// and replays `spool[acked..]` — the daemon receives every frame
/// exactly once, in order, no matter how many times the shard died.
///
/// The file format is just concatenated [`SnapshotFrame::encode`]
/// bytes — a spool is a valid `SnapshotSource`/`hhh-agg` input stream.
#[derive(Debug)]
pub struct FrameSpool {
    file: std::fs::File,
    /// Byte offset of each complete frame.
    offsets: Vec<u64>,
    /// Byte length of the valid (non-torn) prefix.
    end: u64,
}

impl FrameSpool {
    /// Open (or create) a spool file, scanning any existing frames and
    /// truncating a torn tail left by a crash mid-append.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let total = file.metadata()?.len();
        file.seek(SeekFrom::Start(0))?;
        let mut offsets = Vec::new();
        let mut pos: u64 = 0;
        {
            let mut reader = BufReader::new(&mut file);
            loop {
                let mut header = [0u8; FRAME_HEADER_LEN];
                let got = fill_from(&mut reader, &mut header)?;
                if got < FRAME_HEADER_LEN {
                    break; // clean end or torn header
                }
                let Ok(len) = payload_len(&header) else {
                    break; // corrupt header: treat as torn tail
                };
                let frame_len = (FRAME_HEADER_LEN + len) as u64;
                if pos + frame_len > total {
                    break; // torn payload
                }
                reader.seek_relative(len as i64)?;
                offsets.push(pos);
                pos += frame_len;
            }
        }
        if pos < total {
            file.set_len(pos)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(FrameSpool { file, offsets, end: pos })
    }

    /// Frames currently spooled.
    pub fn len(&self) -> u64 {
        self.offsets.len() as u64
    }

    /// Is the spool empty?
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Append one already-encoded frame.
    pub fn append(&mut self, encoded: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(encoded)?;
        self.offsets.push(self.end);
        self.end += encoded.len() as u64;
        Ok(())
    }

    /// Raw encoded bytes of spooled frame `index` (for replay onto a
    /// socket — the bytes go out verbatim, no re-encode).
    pub fn frame_bytes(&mut self, index: u64) -> io::Result<Vec<u8>> {
        let i = index as usize;
        assert!(i < self.offsets.len(), "spool index out of range");
        let start = self.offsets[i];
        let end = self.offsets.get(i + 1).copied().unwrap_or(self.end);
        let mut buf = vec![0u8; (end - start) as usize];
        self.file.seek(SeekFrom::Start(start))?;
        self.file.read_exact(&mut buf)?;
        self.file.seek(SeekFrom::Start(self.end))?;
        Ok(buf)
    }
}

// ---------------------------------------------------------------------
// TCP: write side
// ---------------------------------------------------------------------

/// The socket write side: length-delimited v2 frames over TCP, with
/// **reconnect-with-backoff**.
///
/// Connecting is lazy (first frame) and retried with exponential
/// backoff, so shard processes may start before the aggregator binds.
/// A mid-stream write failure drops the connection and re-sends the
/// failed frame on a fresh one (each connection re-opens with the
/// [`hello_frame`], whose delivered-frame count lets the listener
/// stitch the stream back together — or detect that a frame the
/// kernel accepted never arrived). After `attempts` consecutive
/// connect failures the error is surfaced as [`TransportError::Io`].
#[derive(Debug)]
pub struct TcpTransport {
    addr: String,
    hello: Option<(u64, String)>,
    stream: Option<TcpStream>,
    /// Frames successfully written (as far as this side can tell) on
    /// all connections so far — what the next hello claims.
    delivered: u64,
    attempts: u32,
    initial_backoff: Duration,
    max_backoff: Duration,
    /// Resume mode ([`with_spool`](Self::with_spool)): the durable
    /// stream of record, replayed from the peer's acked position on
    /// every (re)connection.
    spool: Option<FrameSpool>,
    /// What the peer acked at the last handshake (spool mode).
    acked: u64,
    /// Next spool index to send on the current connection.
    send_pos: u64,
    /// Frames this *process* has pushed through `write_frame` — the
    /// position dedupe that keeps a restarted, deterministic producer
    /// from re-appending frames its previous run already spooled.
    written: u64,
    /// How long to wait for the listener's ack at a resume handshake.
    ack_timeout: Duration,
}

impl TcpTransport {
    /// A transport that will connect to `addr` (host:port) on first
    /// use. Defaults: 10 connect attempts, backoff 50 ms doubling to a
    /// 2 s cap (≈ 12 s of patience end to end).
    pub fn connect(addr: impl Into<String>) -> Self {
        TcpTransport {
            addr: addr.into(),
            hello: None,
            stream: None,
            delivered: 0,
            attempts: 10,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            spool: None,
            acked: 0,
            send_pos: 0,
            written: 0,
            ack_timeout: Duration::from_secs(10),
        }
    }

    /// Open every connection with a [`hello_frame`] carrying this
    /// stream id and label — required when the peer is a
    /// [`TcpFrameListener`] folding multiple streams.
    pub fn with_hello(mut self, id: u64, label: impl Into<String>) -> Self {
        self.hello = Some((id, label.into()));
        self
    }

    /// Declare that `frames` frames of this stream were already
    /// delivered on a previous transport (a process resuming its own
    /// stream). The next hello claims them, so the listener stitches
    /// this connection onto the existing tail instead of flagging a
    /// gap. Resuming at the wrong count keeps the stream incomplete.
    pub fn resuming_after(mut self, frames: u64) -> Self {
        self.delivered = frames;
        self
    }

    /// Tune the reconnect policy: `attempts` tries per frame, backoff
    /// starting at `initial` and doubling up to `max`.
    pub fn with_retry(mut self, attempts: u32, initial: Duration, max: Duration) -> Self {
        assert!(attempts > 0, "at least one attempt");
        self.attempts = attempts;
        self.initial_backoff = initial;
        self.max_backoff = max;
        self
    }

    /// Switch the transport to **resume mode**: every frame is
    /// appended to `spool` (the durable stream of record) before going
    /// on the wire, each connection opens with a
    /// [`resume_hello_frame`] and waits for the peer's [`ack_frame`],
    /// and the spool is replayed from the acked position — so a
    /// process that crashes and reopens the same spool resumes the
    /// stream byte-exactly, no matter where it died.
    ///
    /// Requires [`with_hello`](Self::with_hello) (the handshake needs
    /// a stream identity) and an **acking** peer (the `hhh-aggd`
    /// [`FrameHub`]); the plain one-shot [`TcpFrameListener`] never
    /// acks, so the handshake would time out. `write_frame` calls are
    /// deduplicated by position: if the spool already holds frames a
    /// previous run produced, a deterministic producer regenerating
    /// them from scratch re-sends nothing.
    pub fn with_spool(mut self, spool: FrameSpool) -> Self {
        assert!(self.hello.is_some(), "spool mode requires with_hello (a stream identity)");
        self.spool = Some(spool);
        self
    }

    /// Frames the peer acknowledged holding at the most recent resume
    /// handshake (0 before the first connection). Spool mode only.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Frames in the spool (spool mode only; 0 otherwise).
    pub fn spooled(&self) -> u64 {
        self.spool.as_ref().map_or(0, FrameSpool::len)
    }

    /// Connect (with backoff) if not connected, writing the hello —
    /// and in spool mode running the resume handshake — on every fresh
    /// connection.
    fn ensure_connected(&mut self) -> Result<(), TransportError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut backoff = self.initial_backoff;
        let mut last = None;
        for attempt in 0..self.attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.max_backoff);
            }
            match TcpStream::connect(&self.addr) {
                Ok(mut s) => {
                    let _ = s.set_nodelay(true);
                    if self.spool.is_some() {
                        match self.resume_handshake(&mut s) {
                            Ok(()) => {
                                self.stream = Some(s);
                                break;
                            }
                            Err(e) => {
                                last = Some(e);
                                continue;
                            }
                        }
                    }
                    if let Some((id, label)) = &self.hello {
                        let hello = hello_frame(*id, label, self.delivered);
                        if let Err(e) = s.write_all(&hello.encode()) {
                            last = Some(e);
                            continue;
                        }
                    }
                    self.stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        if self.stream.is_none() {
            let source = last.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "connect attempts exhausted")
            });
            return Err(TransportError::io("connect", source));
        }
        Ok(())
    }

    /// Spool-mode connection opening: claim the spooled frame count,
    /// wait for the peer's ack, and position the replay cursor at the
    /// acked frame.
    fn resume_handshake(&mut self, s: &mut TcpStream) -> io::Result<()> {
        let (id, label) = self.hello.as_ref().expect("spool mode requires a hello");
        let spooled = self.spool.as_ref().expect("spool mode").len();
        s.write_all(&resume_hello_frame(*id, label, spooled).encode())?;
        s.set_read_timeout(Some(self.ack_timeout))?;
        let ack = read_frame_from(s)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed before ack")
            })?;
        let (ack_id, received) = parse_ack(&ack)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if ack_id != *id {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "ack for a different stream"));
        }
        s.set_read_timeout(None)?;
        self.acked = received;
        self.send_pos = received.min(spooled);
        Ok(())
    }

    /// Spool-mode send loop: flush every spooled frame past the replay
    /// cursor onto the wire, reconnecting (and re-handshaking, which
    /// re-positions the cursor from the fresh ack) on write failures.
    fn pump(&mut self) -> Result<(), TransportError> {
        let mut attempts_left = self.attempts;
        loop {
            self.ensure_connected()?;
            let target = self.spool.as_ref().expect("spool mode").len();
            let mut failed = None;
            while self.send_pos < target {
                let bytes = self
                    .spool
                    .as_mut()
                    .expect("spool mode")
                    .frame_bytes(self.send_pos)
                    .map_err(|e| TransportError::io("read", e))?;
                match self.stream.as_mut().expect("connected above").write_all(&bytes) {
                    Ok(()) => {
                        self.send_pos += 1;
                        self.delivered = self.send_pos;
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            match failed {
                None => return Ok(()),
                Some(e) => {
                    self.stream = None;
                    attempts_left = attempts_left.saturating_sub(1);
                    if attempts_left == 0 {
                        return Err(TransportError::io("write", e));
                    }
                }
            }
        }
    }

    /// Spool-mode `write_frame`: append (unless a previous run already
    /// spooled this position) and pump.
    fn write_spooled(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError> {
        let pos = self.written;
        self.written += 1;
        let spool = self.spool.as_mut().expect("spool mode");
        if pos >= spool.len() {
            spool.append(&frame.encode()).map_err(|e| TransportError::io("write", e))?;
        }
        self.pump()
    }
}

impl FrameWrite for TcpTransport {
    fn write_frame(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError> {
        if self.spool.is_some() {
            return self.write_spooled(frame);
        }
        let bytes = frame.encode();
        let mut attempts_left = self.attempts;
        loop {
            self.ensure_connected()?;
            match self.stream.as_mut().expect("connected above").write_all(&bytes) {
                Ok(()) => {
                    self.delivered += 1;
                    return Ok(());
                }
                Err(e) => {
                    // The connection is gone; the frame may be torn on
                    // the old one — reconnect and re-send it whole.
                    self.stream = None;
                    attempts_left = attempts_left.saturating_sub(1);
                    if attempts_left == 0 {
                        return Err(TransportError::io("write", e));
                    }
                }
            }
        }
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        if self.spool.is_some() {
            self.pump()?;
        }
        Ok(())
    }
}

/// One HTTP/1.1 `GET path` with `Connection: close` against `addr` (a
/// daemon's HTTP front door), returning `(status, body)`. Connect and
/// I/O errors, a read or write stalled past 10 s, and a response
/// without a status line or header block are `Err`; the caller picks
/// the policy (tests panic, pollers retry).
pub fn http_get(addr: &str, path: &str) -> Result<(u16, Vec<u8>), String> {
    let err = |e: io::Error| format!("GET {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(err)?;
    stream.set_write_timeout(Some(Duration::from_secs(10))).map_err(err)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(err)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("GET {path}: no header block"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("GET {path}: malformed status line"))?;
    raw.drain(..head_end + 4);
    Ok((status, raw))
}

// ---------------------------------------------------------------------
// TCP: read side
// ---------------------------------------------------------------------

/// One writer's completed frame stream, as collected by
/// [`TcpFrameListener::collect_streams`].
#[derive(Debug)]
pub struct FrameStream {
    /// The stream id from the writer's [`hello_frame`] (shard index).
    pub id: u64,
    /// The writer's label.
    pub label: String,
    /// Every decoded frame, across all of the writer's connections, in
    /// arrival order (hello frames excluded).
    pub frames: Vec<SnapshotFrame>,
}

/// What one connection's reader thread produced.
struct ConnResult {
    hello: Result<Hello, TransportError>,
    frames: Vec<SnapshotFrame>,
    /// Clean EOF at a frame boundary (vs a torn tail, which waits for
    /// the writer's reconnect).
    clean: bool,
}

/// A shared "when did *any* connection last make progress" clock:
/// reader threads stamp it per frame, the accept loop per connection,
/// and the collector turns staleness into read-idle timeouts. Stored
/// as milliseconds since a base instant so stamping is one relaxed
/// atomic store on the frame path.
#[derive(Clone, Debug)]
struct ActivityClock {
    base: Instant,
    last_ms: Arc<AtomicU64>,
}

impl ActivityClock {
    fn new() -> Self {
        ActivityClock { base: Instant::now(), last_ms: Arc::new(AtomicU64::new(0)) }
    }

    fn touch(&self) {
        let ms = self.base.elapsed().as_millis() as u64;
        self.last_ms.fetch_max(ms, Ordering::Relaxed);
    }

    fn idle(&self) -> Duration {
        let now = self.base.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.last_ms.load(Ordering::Relaxed)))
    }
}

/// The socket read side: accept N concurrent shard connections and
/// collect each writer's frame stream.
///
/// Connections identify themselves with a [`hello_frame`]; frames are
/// grouped by its stream id, so a writer that reconnects mid-stream
/// resumes its own stream, and [`collect_streams`](Self::collect_streams)
/// returns streams **sorted by id** — the deterministic fold order a
/// file-based aggregation uses.
#[derive(Debug)]
pub struct TcpFrameListener {
    listener: TcpListener,
    timeout: Option<Duration>,
    accept_idle: Option<Duration>,
    read_idle: Option<Duration>,
}

impl TcpFrameListener {
    /// Bind the listening socket (use port 0 for an ephemeral port and
    /// read it back with [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(TcpFrameListener {
            listener: TcpListener::bind(addr)?,
            timeout: None,
            accept_idle: None,
            read_idle: None,
        })
    }

    /// Give up (with a typed timeout error) if `expect` streams have
    /// not completed within `timeout` of starting to collect — a
    /// **whole-fold deadline**, counted from the first
    /// [`collect_streams`](Self::collect_streams) iteration regardless
    /// of progress. For limits that reset while shards are making
    /// progress, see [`with_accept_idle`](Self::with_accept_idle) and
    /// [`with_read_idle`](Self::with_read_idle); all three compose
    /// (first to fire wins).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Give up if, while fewer connections than expected streams have
    /// *ever* been accepted, no new connection arrives for `idle` — a
    /// shard that never started. Unlike [`with_timeout`](Self::with_timeout)
    /// this resets on every accept, so slow-but-live topologies don't
    /// need a worst-case whole-fold budget.
    pub fn with_accept_idle(mut self, idle: Duration) -> Self {
        self.accept_idle = Some(idle);
        self
    }

    /// Give up if no frame arrives on *any* connection for `idle`
    /// while streams are still incomplete — a shard that connected and
    /// then wedged (or a frame lost in flight leaving a reconnect
    /// unstitchable). Resets on every frame received, so total fold
    /// time stays unbounded as long as bytes keep flowing.
    pub fn with_read_idle(mut self, idle: Duration) -> Self {
        self.read_idle = Some(idle);
        self
    }

    /// The bound address (the port, when bound with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections until `expect` distinct stream ids have
    /// delivered their whole stream (clean EOF at a frame boundary),
    /// then return the streams sorted by id.
    ///
    /// Runs one reader thread per connection, so N shards stream
    /// concurrently without filling socket buffers. A connection that
    /// dies mid-frame keeps its decoded frames and waits for the
    /// writer's reconnect (same hello id) to finish the stream; a
    /// connection that never sends a valid hello is dropped. A
    /// connection is stitched onto its stream only when its hello's
    /// delivered-frame count matches the frames already received — so
    /// reconnect results arriving out of order apply in stream order,
    /// and a frame lost in flight (accepted by the writer's kernel,
    /// never delivered) keeps the stream **incomplete** instead of
    /// silently shortening it; with a timeout set, that surfaces as a
    /// typed gap error.
    pub fn collect_streams(self, expect: usize) -> Result<Vec<FrameStream>, TransportError> {
        assert!(expect > 0, "expect at least one stream");
        self.listener.set_nonblocking(true).map_err(|e| TransportError::io("accept", e))?;
        let (tx, rx) = mpsc::channel::<ConnResult>();
        let mut streams: BTreeMap<u64, FrameStream> = BTreeMap::new();
        let mut complete = std::collections::BTreeSet::new();
        // Connection results whose claimed delivered count is ahead of
        // the frames received so far — an earlier connection's result
        // is still in flight, or its tail was lost on the wire.
        let mut pending: Vec<(u64, String, u64, ConnResult)> = Vec::new();
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let activity = ActivityClock::new();
        let mut accepted = 0usize;
        let mut last_accept = Instant::now();

        while complete.len() < expect {
            match self.listener.accept() {
                Ok((conn, _peer)) => {
                    let _ = conn.set_nodelay(true);
                    accepted += 1;
                    last_accept = Instant::now();
                    activity.touch();
                    let tx = tx.clone();
                    let activity = activity.clone();
                    std::thread::spawn(move || {
                        let _ = tx.send(read_connection(conn, &activity));
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(TransportError::io("accept", e)),
            }
            let mut progressed = false;
            while let Ok(res) = rx.try_recv() {
                let (id, label, delivered_before) = match &res.hello {
                    Ok(hello) => (hello.id, hello.label.clone(), hello.delivered),
                    // A connection without a valid hello (port scan,
                    // stray client) cannot be attributed to a stream;
                    // drop it rather than poison the fold.
                    Err(_) => continue,
                };
                pending.push((id, label, delivered_before, res));
                progressed = true;
            }
            // Stitch every pending result whose position has arrived.
            while progressed {
                progressed = false;
                let mut keep = Vec::with_capacity(pending.len());
                for (id, label, delivered_before, res) in pending.drain(..) {
                    let stream = streams.entry(id).or_insert_with(|| FrameStream {
                        id,
                        label: label.clone(),
                        frames: Vec::new(),
                    });
                    if stream.frames.len() as u64 == delivered_before {
                        stream.frames.extend(res.frames);
                        if res.clean {
                            complete.insert(id);
                        }
                        progressed = true;
                    } else if (stream.frames.len() as u64) < delivered_before {
                        keep.push((id, label, delivered_before, res));
                    } else {
                        // The writer claims fewer delivered frames than
                        // we hold: it would replay frames we already
                        // have. No in-tree writer does this (counts are
                        // cumulative and a torn frame never decodes);
                        // refuse rather than double-count.
                        return Err(TransportError::Handshake(
                            "hello claims fewer delivered frames than already received",
                        ));
                    }
                }
                pending = keep;
            }
            let stalled = |why: &str| {
                let gaps = pending
                    .iter()
                    .map(|(id, _, claimed, res)| {
                        let got = streams.get(id).map_or(0, |s| s.frames.len());
                        format!(
                            "stream {id}: reconnect claims {claimed} frames delivered, \
                             received {got} ({} more on the new connection)",
                            res.frames.len()
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; ");
                let detail = if gaps.is_empty() {
                    format!("{} of {expect} streams complete before {why}", complete.len())
                } else {
                    format!(
                        "{} of {expect} streams complete before {why}; \
                         gap detected (frame lost in flight?): {gaps}",
                        complete.len()
                    )
                };
                TransportError::io("accept", io::Error::new(io::ErrorKind::TimedOut, detail))
            };
            if let Some(deadline) = deadline {
                if Instant::now() > deadline {
                    return Err(stalled("the timeout"));
                }
            }
            if let Some(idle) = self.accept_idle {
                if accepted < expect && last_accept.elapsed() > idle {
                    return Err(stalled(&format!(
                        "the accept-idle limit ({accepted} connections accepted, \
                         none for {idle:?})"
                    )));
                }
            }
            if let Some(idle) = self.read_idle {
                if activity.idle() > idle {
                    return Err(stalled(&format!("the read-idle limit (no frame for {idle:?})")));
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(streams.into_values().collect())
    }
}

/// Read one connection to the end: hello first, then frames until a
/// clean EOF or a torn tail. Every decoded frame stamps the shared
/// [`ActivityClock`] so the collector's read-idle limit resets on
/// progress.
fn read_connection(conn: TcpStream, activity: &ActivityClock) -> ConnResult {
    let mut input = BufReader::new(conn);
    let hello = match read_frame_from(&mut input) {
        Ok(Some(frame)) => parse_hello(&frame),
        Ok(None) => Err(TransportError::Handshake("connection closed before hello")),
        Err(e) => Err(e),
    };
    if hello.is_err() {
        return ConnResult { hello, frames: Vec::new(), clean: false };
    }
    activity.touch();
    let mut frames = Vec::new();
    loop {
        match read_frame_from(&mut input) {
            Ok(Some(frame)) => {
                activity.touch();
                frames.push(frame);
            }
            Ok(None) => return ConnResult { hello, frames, clean: true },
            // Torn tail: keep what decoded; the writer re-sends the
            // torn frame on its next connection.
            Err(_) => return ConnResult { hello, frames, clean: false },
        }
    }
}

// ---------------------------------------------------------------------
// FrameHub: the daemon's long-lived read side
// ---------------------------------------------------------------------

/// What a [`FrameHub`] observed, in arrival order on one channel.
#[derive(Debug)]
pub enum HubEvent {
    /// A connection completed its hello/ack handshake and was admitted
    /// to stream `id`. `resume_at` is the frame count the hub acked —
    /// the position this connection's deliveries resume from (0 for a
    /// brand-new stream).
    Joined {
        /// Stream id from the hello.
        id: u64,
        /// Writer's label from the hello.
        label: String,
        /// Frames the hub already held for the stream.
        resume_at: u64,
    },
    /// Frame `pos` (0-based position within stream `id`) arrived for
    /// the first time. Duplicates — a restarted deterministic writer
    /// replaying from zero, or a spooled writer racing a stale
    /// connection — are dropped before this event, so positions are
    /// emitted exactly once, in order, per stream.
    Frame {
        /// Stream id.
        id: u64,
        /// 0-based position of `frame` within the stream.
        pos: u64,
        /// The decoded frame.
        frame: SnapshotFrame,
    },
    /// A connection for stream `id` ended. `clean` distinguishes EOF
    /// at a frame boundary from a torn tail; either way the stream
    /// stays open — a reconnect resumes it.
    Left {
        /// Stream id.
        id: u64,
        /// Clean EOF (vs torn tail / read error).
        clean: bool,
    },
    /// A connection claimed a resume position **ahead** of the frames
    /// the hub holds — a frame was lost in flight and the writer
    /// cannot (or did not offer to) replay it. The connection is
    /// refused; restarting the writer from its spool (or from zero,
    /// for a deterministic producer) recovers exactly.
    Gap {
        /// Stream id.
        id: u64,
        /// The position the connection wanted to resume from.
        claimed: u64,
        /// Frames the hub actually holds.
        received: u64,
    },
}

/// The long-lived, membership-aware socket read side behind
/// `hhh-aggd`: accepts any number of writer connections, acks every
/// hello with the frame count it holds (the other half of the
/// [`TcpTransport::with_spool`] resume protocol), deduplicates
/// re-delivered frames by position, and streams [`HubEvent`]s to the
/// daemon's fold loop.
///
/// Where [`TcpFrameListener::collect_streams`] is a one-shot barrier —
/// wait for exactly `expect` complete streams, then return — the hub
/// never finishes: shards join, leave, crash, and resume at any time,
/// and gaps are per-connection refusals (recoverable by writer
/// restart) instead of fold-fatal errors.
#[derive(Debug)]
pub struct FrameHub {
    listener: TcpListener,
}

/// Shuts the accepting [`FrameHub`] down when dropped (or explicitly
/// via [`shutdown`](Self::shutdown)).
#[derive(Debug)]
pub struct HubHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HubHandle {
    /// Stop accepting and join the accept loop. Connections already
    /// admitted drain on their own threads (their next event is the
    /// connection's `Left`).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HubHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl FrameHub {
    /// Bind the hub's listening socket (port 0 for ephemeral).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(FrameHub { listener: TcpListener::bind(addr)? })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start accepting: returns the shutdown handle and the event
    /// channel. Each admitted connection runs on its own reader
    /// thread; the receiver sees every stream's frames in position
    /// order (interleaved across streams in arrival order).
    pub fn start(self) -> io::Result<(HubHandle, mpsc::Receiver<HubEvent>)> {
        self.listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let listener = self.listener;
        let thread = std::thread::spawn(move || {
            let received: Arc<Mutex<HashMap<u64, u64>>> = Arc::default();
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((conn, _peer)) => {
                        let _ = conn.set_nodelay(true);
                        let tx = tx.clone();
                        let received = Arc::clone(&received);
                        std::thread::spawn(move || hub_connection(conn, &tx, &received));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok((HubHandle { stop, thread: Some(thread) }, rx))
    }
}

/// One hub connection: handshake (hello in, ack out), then frames
/// deduplicated by position until EOF or a torn tail.
fn hub_connection(
    conn: TcpStream,
    tx: &mpsc::Sender<HubEvent>,
    received: &Mutex<HashMap<u64, u64>>,
) {
    // A connection that never sends its hello must not pin this thread
    // (port scans, health probes); frames after admission have no
    // deadline — a long-lived shard may idle between windows.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(reader_half) = conn.try_clone() else { return };
    let mut reader = BufReader::new(reader_half);
    let hello = match read_frame_from(&mut reader) {
        Ok(Some(frame)) => match parse_hello(&frame) {
            Ok(h) => h,
            Err(_) => return,
        },
        _ => return,
    };
    let held = *received.lock().expect("hub lock").entry(hello.id).or_insert(0);
    let mut writer = conn;
    if writer.write_all(&ack_frame(hello.id, held).encode()).is_err() {
        return;
    }
    let _ = writer.set_read_timeout(None);
    // A resume-capable writer replays from our ack; a plain writer
    // sends from wherever its hello claimed (position-deduped below).
    let base = if hello.resume { held } else { hello.delivered };
    if base > held {
        let _ = tx.send(HubEvent::Gap { id: hello.id, claimed: base, received: held });
        return;
    }
    let _ = tx.send(HubEvent::Joined { id: hello.id, label: hello.label, resume_at: held });
    let mut pos = base;
    loop {
        match read_frame_from(&mut reader) {
            Ok(Some(frame)) => {
                let deliver = {
                    let mut map = received.lock().expect("hub lock");
                    let count = map.entry(hello.id).or_insert(0);
                    if pos == *count {
                        *count += 1;
                        true
                    } else {
                        // pos < count: a frame the hub already holds
                        // (a restarted writer replaying its prefix) —
                        // drop it. pos can never exceed count: it
                        // starts at base <= count and count advances
                        // with every delivery.
                        false
                    }
                };
                if deliver {
                    let _ = tx.send(HubEvent::Frame { id: hello.id, pos, frame });
                }
                pos += 1;
            }
            Ok(None) => {
                let _ = tx.send(HubEvent::Left { id: hello.id, clean: true });
                return;
            }
            Err(_) => {
                let _ = tx.send(HubEvent::Left { id: hello.id, clean: false });
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline faces
// ---------------------------------------------------------------------

/// A [`ReportSink`] that streams pipeline output through any
/// [`FrameWrite`]: reports as report frames, states as **natively
/// encoded** v2 frames (it advertises
/// [`wants_frames`](ReportSink::wants_frames), so engines hand it
/// `MergeableDetector::to_frame` output — no JSON on the path).
///
/// The first transport error is kept and returned from
/// [`finish`](ReportSink::finish), mirroring
/// [`SnapshotSink`](crate::SnapshotSink)'s I/O error story.
#[derive(Debug)]
pub struct TransportSink<T: FrameWrite> {
    out: T,
    error: Option<TransportError>,
}

impl<T: FrameWrite> TransportSink<T> {
    /// Stream frames into `out`.
    pub fn new(out: T) -> Self {
        TransportSink { out, error: None }
    }

    fn write(&mut self, frame: &SnapshotFrame) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_frame(frame) {
            self.error = Some(e);
        }
    }
}

impl<P: Display, T: FrameWrite> ReportSink<P> for TransportSink<T> {
    /// The transport plus the first error encountered, if any.
    type Output = (T, Option<TransportError>);

    fn accept(&mut self, series: usize, report: WindowReport<P>) {
        let line = render_report_line(series, &report);
        let frame = SnapshotFrame::report(&line, report.start, report.end, report.total);
        self.write(&frame);
    }

    fn wants_frames(&self) -> bool {
        true
    }

    fn state_frame(&mut self, frame: &SnapshotFrame) {
        self.write(frame);
    }

    fn state(&mut self, start: Nanos, at: Nanos, snapshot: &DetectorSnapshot) {
        // Fallback for detectors without a native encoder: transcode.
        match snapshot.to_frame(start, at) {
            Ok(frame) => self.write(&frame),
            Err(e) if self.error.is_none() => self.error = Some(TransportError::Frame(e)),
            Err(_) => {}
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

/// A [`Source`] of [`WireSnapshot`]s pulled from any [`FrameRead`] —
/// the read-side pipeline face. Report and hello frames are validated
/// and skipped; state frames are yielded undecoded (the fold path goes
/// binary body → detector). The stream ends at clean end-of-transport
/// **or at the first error**, kept for inspection via
/// [`error`](Self::error) — the same strict-caller contract as
/// [`SnapshotSource`](crate::SnapshotSource).
#[derive(Debug)]
pub struct TransportSource<T: FrameRead> {
    input: T,
    error: Option<TransportError>,
}

impl<T: FrameRead> TransportSource<T> {
    /// Pull snapshots out of `input`.
    pub fn new(input: T) -> Self {
        TransportSource { input, error: None }
    }

    /// The first transport error, `None` after a clean end.
    pub fn error(&self) -> Option<&TransportError> {
        self.error.as_ref()
    }
}

impl<T: FrameRead> Iterator for TransportSource<T> {
    type Item = WireSnapshot;

    fn next(&mut self) -> Option<WireSnapshot> {
        if self.error.is_some() {
            return None;
        }
        loop {
            match self.input.read_frame() {
                Ok(Some(frame)) if frame.kind == REPORT_KIND || frame.kind == HELLO_KIND => {
                    continue;
                }
                Ok(Some(frame)) => return Some(WireSnapshot::Binary(frame)),
                Ok(None) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
    }
}

// `TransportSource` is a `Source<Item = WireSnapshot>` via the blanket
// iterator impl in `source`, so `FoldSnapshots` consumes any transport.
const _: fn() = || {
    fn assert_source<S: Source<Item = WireSnapshot>>() {}
    assert_source::<TransportSource<MemFrameReader>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn state_frame(at_secs: u64, total: u64) -> SnapshotFrame {
        let snap = DetectorSnapshot {
            kind: "exact".into(),
            total,
            state_json: format!("{{\"counts\":[[\"7\",{total}]]}}"),
        };
        snap.to_frame(Nanos::from_secs(at_secs.saturating_sub(1)), Nanos::from_secs(at_secs))
            .expect("own snapshots transcode")
    }

    #[test]
    fn file_transport_roundtrips_frames() {
        let mut w = FileTransport::new(Vec::new());
        let frames = [state_frame(1, 10), state_frame(2, 20)];
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        FrameWrite::flush(&mut w).unwrap();
        let bytes = w.into_inner();

        let mut r = FileTransport::new(io::Cursor::new(bytes));
        assert_eq!(r.read_frame().unwrap().as_ref(), Some(&frames[0]));
        assert_eq!(r.read_frame().unwrap().as_ref(), Some(&frames[1]));
        assert!(r.read_frame().unwrap().is_none(), "clean end at a frame boundary");
    }

    #[test]
    fn file_transport_reports_torn_tails() {
        let mut w = FileTransport::new(Vec::new());
        w.write_frame(&state_frame(1, 10)).unwrap();
        let mut bytes = w.into_inner();
        bytes.truncate(bytes.len() - 3);
        let mut r = FileTransport::new(io::Cursor::new(bytes));
        match r.read_frame() {
            Err(TransportError::Frame(SnapshotError::Parse { what, .. })) => {
                assert_eq!(what, "truncated frame");
            }
            other => panic!("expected a torn-frame error, got {other:?}"),
        }
    }

    #[test]
    fn mem_transport_moves_frames_between_threads() {
        let (mut w, r) = mem_transport(4);
        let frames: Vec<_> = (0..10).map(|i| state_frame(i, i * 10)).collect();
        let expect = frames.clone();
        let producer = std::thread::spawn(move || {
            for f in &frames {
                w.write_frame(f).unwrap();
            }
            // w drops: channel closes, reader ends cleanly.
        });
        let mut source = TransportSource::new(r);
        let got: Vec<WireSnapshot> = (&mut source).collect();
        producer.join().unwrap();
        assert!(source.error().is_none());
        assert_eq!(got.len(), 10);
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g, &WireSnapshot::Binary(e.clone()));
        }
    }

    #[test]
    fn mem_transport_reports_hangup_to_the_writer() {
        let (mut w, r) = mem_transport(1);
        drop(r);
        let err = w.write_frame(&state_frame(1, 1)).unwrap_err();
        assert!(matches!(err, TransportError::Io { op: "send", .. }), "{err:?}");
        // The error chains to the io::Error via source().
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn hello_frames_parse_and_reject_tampering() {
        let hello = hello_frame(3, "shard-3", 7);
        let parsed = parse_hello(&hello).unwrap();
        assert_eq!(
            (parsed.id, parsed.label.as_str(), parsed.delivered, parsed.resume),
            (3, "shard-3", 7, false)
        );
        let resume = parse_hello(&resume_hello_frame(5, "shard-5", 9)).unwrap();
        assert_eq!(
            (resume.id, resume.label.as_str(), resume.delivered, resume.resume),
            (5, "shard-5", 9, true)
        );
        let mut tampered = hello.clone();
        tampered.body[0] ^= 1;
        assert!(parse_hello(&tampered).is_err());
        assert!(parse_hello(&state_frame(1, 1)).is_err(), "state frames are not hellos");
    }

    #[test]
    fn ack_frames_roundtrip() {
        let ack = ack_frame(7, 42);
        assert_eq!(parse_ack(&ack).unwrap(), (7, 42));
        // Frames survive the wire encoding like any other frame.
        let (decoded, _) = SnapshotFrame::decode(&ack.encode()).unwrap();
        assert_eq!(parse_ack(&decoded).unwrap(), (7, 42));
        assert!(parse_ack(&state_frame(1, 1)).is_err(), "state frames are not acks");
    }

    #[test]
    fn frame_spool_recovers_frames_and_truncates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("hhh_spool_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.spool");
        let _ = std::fs::remove_file(&path);
        let frames = [state_frame(1, 10), state_frame(2, 20), state_frame(3, 30)];
        {
            let mut spool = FrameSpool::open(&path).unwrap();
            for f in &frames {
                spool.append(&f.encode()).unwrap();
            }
            assert_eq!(spool.len(), 3);
            // Replay is byte-exact.
            let bytes = spool.frame_bytes(1).unwrap();
            assert_eq!(SnapshotFrame::decode(&bytes).unwrap().0, frames[1]);
        }
        // Simulate a crash mid-append: write a torn fourth frame.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            let torn = state_frame(4, 40).encode();
            f.write_all(&torn[..torn.len() - 5]).unwrap();
        }
        let mut spool = FrameSpool::open(&path).unwrap();
        assert_eq!(spool.len(), 3, "torn tail truncated, complete frames kept");
        for (i, f) in frames.iter().enumerate() {
            let bytes = spool.frame_bytes(i as u64).unwrap();
            assert_eq!(&SnapshotFrame::decode(&bytes).unwrap().0, f);
        }
        // Appends continue past the truncation point.
        spool.append(&state_frame(4, 40).encode()).unwrap();
        assert_eq!(spool.len(), 4);
        let reopened = FrameSpool::open(&path).unwrap();
        assert_eq!(reopened.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    /// Drain hub events until each of `want` streams has delivered
    /// `per_stream` frames, returning (id -> frame positions in
    /// delivery order).
    fn drain_frames(
        rx: &mpsc::Receiver<HubEvent>,
        want: usize,
        per_stream: u64,
    ) -> BTreeMap<u64, Vec<u64>> {
        let mut got: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while got.len() < want || got.values().any(|v| (v.len() as u64) < per_stream) {
            match rx.recv_timeout(deadline - Instant::now()) {
                Ok(HubEvent::Frame { id, pos, .. }) => got.entry(id).or_default().push(pos),
                Ok(_) => {}
                Err(e) => panic!("hub events dried up: {e} (got {got:?})"),
            }
        }
        got
    }

    #[test]
    fn hub_acks_hellos_and_dedupes_a_restarted_plain_writer() {
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let (handle, rx) = hub.start().unwrap();
        // First life: a plain writer delivers frames 0 and 1, dies.
        {
            let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0");
            t.write_frame(&state_frame(1, 100)).unwrap();
            t.write_frame(&state_frame(2, 101)).unwrap();
        }
        // Wait until the hub has admitted both frames, so the restart
        // below races nothing.
        let first = drain_frames(&rx, 1, 2);
        assert_eq!(first[&0], vec![0, 1]);
        // Second life: the restarted process regenerates the whole
        // stream from scratch (delivered claim 0) — the hub must drop
        // the replayed prefix and deliver only positions 2 and 3.
        {
            let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0");
            for (i, total) in [100u64, 101, 102, 103].iter().enumerate() {
                t.write_frame(&state_frame(i as u64 + 1, *total)).unwrap();
            }
        }
        let second = drain_frames(&rx, 1, 2);
        assert_eq!(second[&0], vec![2, 3], "replayed prefix deduped by position");
        handle.shutdown();
    }

    #[test]
    fn spooled_transport_resumes_exactly_across_a_simulated_restart() {
        let dir = std::env::temp_dir().join(format!("hhh_spool_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard0.spool");
        let _ = std::fs::remove_file(&path);
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let (handle, rx) = hub.start().unwrap();
        // First life: spool + deliver frames 0..3.
        {
            let spool = FrameSpool::open(&path).unwrap();
            let mut t =
                TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0").with_spool(spool);
            for i in 0..3u64 {
                t.write_frame(&state_frame(i + 1, 100 + i)).unwrap();
            }
            assert_eq!(t.acked(), 0, "first handshake acked an empty stream");
            assert_eq!(t.spooled(), 3);
        }
        assert_eq!(drain_frames(&rx, 1, 3)[&0], vec![0, 1, 2]);
        // Second life: reopen the spool; the regenerated prefix is
        // deduped against it (not re-appended, not re-sent — the hub's
        // ack says it already holds 3), and two new frames follow.
        {
            let spool = FrameSpool::open(&path).unwrap();
            assert_eq!(spool.len(), 3, "spool recovered the previous life's frames");
            let mut t =
                TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0").with_spool(spool);
            for i in 0..5u64 {
                t.write_frame(&state_frame(i + 1, 100 + i)).unwrap();
            }
            assert_eq!(t.acked(), 3, "resume handshake learned the hub's position");
            assert_eq!(t.spooled(), 5);
        }
        assert_eq!(drain_frames(&rx, 1, 2)[&0], vec![3, 4], "only the new tail went out");
        handle.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hub_refuses_a_resume_claim_ahead_of_what_it_holds() {
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let (handle, rx) = hub.start().unwrap();
        // A plain hello claiming 5 delivered frames against an empty
        // stream: unstitchable — must surface as a Gap event, not
        // silently shorten the stream.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&hello_frame(0, "shard-0", 5).encode()).unwrap();
        conn.write_all(&state_frame(6, 105).encode()).unwrap();
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            HubEvent::Gap { id, claimed, received } => {
                assert_eq!((id, claimed, received), (0, 5, 0));
            }
            other => panic!("expected a gap event, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn accept_idle_fires_when_a_shard_never_connects() {
        let listener = TcpFrameListener::bind("127.0.0.1:0")
            .unwrap()
            .with_accept_idle(Duration::from_millis(200));
        let addr = listener.local_addr().unwrap();
        // One of two expected shards connects and completes; the other
        // never dials in — the accept-idle limit must end the wait.
        let writer = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0");
            t.write_frame(&state_frame(1, 42)).unwrap();
        });
        let err = listener.collect_streams(2).unwrap_err();
        writer.join().unwrap();
        match err {
            TransportError::Io { op: "accept", source } => {
                assert_eq!(source.kind(), io::ErrorKind::TimedOut);
                assert!(source.to_string().contains("accept-idle"), "{source}");
            }
            other => panic!("expected an accept-idle timeout, got {other:?}"),
        }
    }

    #[test]
    fn read_idle_fires_when_a_connected_shard_wedges() {
        let listener = TcpFrameListener::bind("127.0.0.1:0")
            .unwrap()
            .with_read_idle(Duration::from_millis(200));
        let addr = listener.local_addr().unwrap();
        // The shard connects, sends its hello and one frame, then
        // wedges with the connection open — only read-idle catches it.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&hello_frame(0, "shard-0", 0).encode()).unwrap();
            conn.write_all(&state_frame(1, 42).encode()).unwrap();
            let _ = done_rx.recv(); // hold the connection open, silent
        });
        let err = listener.collect_streams(1).unwrap_err();
        drop(done_tx);
        writer.join().unwrap();
        match err {
            TransportError::Io { op: "accept", source } => {
                assert_eq!(source.kind(), io::ErrorKind::TimedOut);
                assert!(source.to_string().contains("read-idle"), "{source}");
            }
            other => panic!("expected a read-idle timeout, got {other:?}"),
        }
    }

    #[test]
    fn read_idle_does_not_fire_while_frames_flow() {
        // Frames arriving every ~40 ms must keep a 250 ms read-idle
        // limit from firing even though the whole stream takes longer
        // than the limit.
        let listener = TcpFrameListener::bind("127.0.0.1:0")
            .unwrap()
            .with_read_idle(Duration::from_millis(250));
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0");
            for i in 0..10u64 {
                t.write_frame(&state_frame(i + 1, i)).unwrap();
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let streams = listener.collect_streams(1).unwrap();
        writer.join().unwrap();
        assert_eq!(streams[0].frames.len(), 10);
    }

    #[test]
    fn tcp_listener_collects_streams_sorted_by_hello_id() {
        let listener =
            TcpFrameListener::bind("127.0.0.1:0").unwrap().with_timeout(Duration::from_secs(30));
        let addr = listener.local_addr().unwrap();
        // Connect in reverse id order to prove arrival order is
        // irrelevant.
        let writers: Vec<_> = [2u64, 1, 0]
            .into_iter()
            .map(|id| {
                std::thread::spawn(move || {
                    let mut t = TcpTransport::connect(addr.to_string())
                        .with_hello(id, format!("shard-{id}"));
                    for i in 0..3 {
                        t.write_frame(&state_frame(i + 1, (id + 1) * 100 + i)).unwrap();
                    }
                })
            })
            .collect();
        let streams = listener.collect_streams(3).unwrap();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(streams.len(), 3);
        assert_eq!(streams.iter().map(|s| s.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(streams[1].label, "shard-1");
        for s in &streams {
            assert_eq!(s.frames.len(), 3);
            assert_eq!(s.frames[0].total, (s.id + 1) * 100);
        }
    }

    #[test]
    fn tcp_torn_peer_yields_clean_error_and_reconnect_resumes_the_stream() {
        // A writer that dies mid-frame must (a) surface as a typed
        // error on a raw read side, and (b) not poison a listener: the
        // reconnecting writer re-sends the torn frame and completes
        // the stream.
        let listener =
            TcpFrameListener::bind("127.0.0.1:0").unwrap().with_timeout(Duration::from_secs(30));
        let addr = listener.local_addr().unwrap();
        let torn = {
            let bytes = state_frame(2, 43).encode();
            bytes[..bytes.len() - 5].to_vec()
        };
        let writer = std::thread::spawn(move || {
            // First connection: hello, one whole frame, then a torn
            // one, then die.
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&hello_frame(0, "shard-0", 0).encode()).unwrap();
            conn.write_all(&state_frame(1, 42).encode()).unwrap();
            conn.write_all(&torn).unwrap();
            drop(conn);
            // Reconnect: the hello claims the one frame that fully
            // arrived, then the torn frame is re-sent whole, then one
            // more, then a clean end.
            let mut t =
                TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0").resuming_after(1);
            t.write_frame(&state_frame(2, 43)).unwrap();
            t.write_frame(&state_frame(3, 44)).unwrap();
        });
        let streams = listener.collect_streams(1).unwrap();
        writer.join().unwrap();
        assert_eq!(streams.len(), 1);
        let totals: Vec<u64> = streams[0].frames.iter().map(|f| f.total).collect();
        assert_eq!(totals, vec![42, 43, 44], "torn tail dropped, stream resumed in order");
    }

    #[test]
    fn lost_in_flight_frame_is_a_gap_error_not_a_shorter_stream() {
        // The silent-loss scenario: the writer's kernel accepted a
        // frame that never arrived before the connection died, so the
        // reconnect's hello claims 1 delivered while the listener
        // holds 0. The stream must stay incomplete and surface a
        // typed gap error — never fold one frame short.
        let listener =
            TcpFrameListener::bind("127.0.0.1:0").unwrap().with_timeout(Duration::from_secs(2));
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut t =
                TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0").resuming_after(1);
            t.write_frame(&state_frame(2, 43)).unwrap();
        });
        let err = listener.collect_streams(1).unwrap_err();
        writer.join().unwrap();
        match err {
            TransportError::Io { op: "accept", source } => {
                assert_eq!(source.kind(), io::ErrorKind::TimedOut);
                assert!(source.to_string().contains("gap detected"), "{source}");
            }
            other => panic!("expected a timeout gap error, got {other:?}"),
        }
    }

    #[test]
    fn tcp_transport_retries_until_the_listener_binds() {
        // Reserve a port, release it, connect against it while it is
        // closed — the backoff must carry the writer until the
        // listener comes up.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let writer =
            std::thread::spawn(move || {
                let mut t = TcpTransport::connect(addr.to_string())
                    .with_hello(0, "late")
                    .with_retry(40, Duration::from_millis(25), Duration::from_millis(100));
                t.write_frame(&state_frame(1, 7)).unwrap();
            });
        std::thread::sleep(Duration::from_millis(300));
        let listener = TcpFrameListener::bind(addr).unwrap().with_timeout(Duration::from_secs(30));
        let streams = listener.collect_streams(1).unwrap();
        writer.join().unwrap();
        assert_eq!(streams[0].frames.len(), 1);
        assert_eq!(streams[0].frames[0].total, 7);
    }

    #[test]
    fn connect_exhaustion_is_a_typed_error() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let mut t = TcpTransport::connect(addr.to_string()).with_retry(
            2,
            Duration::from_millis(1),
            Duration::from_millis(2),
        );
        let err = t.write_frame(&state_frame(1, 1)).unwrap_err();
        assert!(matches!(err, TransportError::Io { op: "connect", .. }), "{err:?}");
        assert!(std::error::Error::source(&err).is_some(), "source() chains to io::Error");
    }
}
