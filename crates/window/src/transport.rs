//! **Snapshot transport over TCP**: moving v2 snapshot frames between
//! processes over sockets.
//!
//! | medium | write side | read side |
//! |---|---|---|
//! | byte stream (file, pipe, `Vec<u8>`) | [`SnapshotSink`](crate::SnapshotSink) | [`SnapshotSource`](crate::SnapshotSource) |
//! | TCP socket | [`TcpTransport`]: connect + reconnect-with-backoff | [`FrameHub`]: multi-client accept |
//!
//! A frame on a socket is **the same bytes** as a frame in a file: the
//! length-delimited v2 encoding (`hhh_core::snapshot::binary`) already
//! self-describes and self-delimits, so both media move the same
//! encoded frames, and [`read_frame_from`] is the one reader that
//! takes a frame off any byte stream (the hub, the TCP handshake and
//! `SnapshotSource` all use it). [`FrameWrite`] pushes frames into a
//! medium, and [`TransportSink`] is the `Pipeline` sink over it. The
//! write side hands through frames encoded straight from detector
//! state (`MergeableDetector::to_frame`) — no JSON is rendered or
//! parsed anywhere between a shard's detector state and the
//! aggregator's restored detector.
//!
//! ## TCP specifics
//!
//! * Each connection opens with one handshake: the writer sends a
//!   [`hello_frame`] (kind [`HELLO_KIND`], carrying its **stream id**
//!   — the shard index — and label) and reads the [`FrameHub`]'s
//!   [`ack_frame`] before its first frame. The hub groups frames by
//!   stream id, and its [`collect_streams`](FrameHub::collect_streams)
//!   barrier returns streams sorted by it, so a socket fold applies
//!   merges in the same deterministic shard order as a file fold —
//!   which is what makes the two byte-identical. Reading the ack also
//!   means no writer closes with unread bytes, which would make the
//!   kernel reset the connection and discard the stream's own tail.
//! * The write side reconnects with exponential backoff — on initial
//!   connect (shards may start before the aggregator binds) and on
//!   mid-stream failures, re-sending the frame whose write failed on
//!   the fresh connection. Each hello also carries the writer's
//!   **delivered-frame count**, and the hub refuses to stitch a
//!   reconnect onto a stream with a gap: a frame the kernel accepted
//!   but never delivered (write succeeded locally, connection died in
//!   flight) surfaces as a [`HubEvent::Gap`] — never silently wrong
//!   output. A refused hello gets no ack, so the writer's backoff
//!   retries it. Duplicates cannot occur: the hub delivers each stream
//!   position once, and a spooled writer ([`TcpTransport::with_spool`])
//!   replays from the acked position across process restarts.
//! * A peer that dies mid-frame leaves a torn tail: the read side
//!   reports it as a clean typed error ([`TransportError::Frame`]) —
//!   never a panic, hang, or pathological allocation — and the hub
//!   keeps the connection's fully-decoded frames, waiting for the
//!   writer's reconnect to resume the stream.

use crate::sink::{render_report_line, ReportSink};
use crate::WindowReport;
use hhh_core::snapshot::binary::{payload_len, FRAME_HEADER_LEN};
use hhh_core::snapshot::SnapshotFrame;
use hhh_core::SnapshotError;
use hhh_nettypes::Nanos;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Display};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
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
        /// What the transport was doing (`bind`, `connect`, `accept`,
        /// `read`, `write`).
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
}

/// The write half of a snapshot transport: push v2 frames into a
/// medium. Implementations must deliver each frame atomically from the
/// reader's point of view (frames self-delimit, so a reader never sees
/// half a frame as success).
pub trait FrameWrite {
    /// Deliver one frame.
    fn write_frame(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError>;

    /// Flush anything buffered to the medium.
    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// Read up to `buf.len()` bytes, tolerating short reads and EINTR —
/// the one fill loop of [`read_frame_from`] and [`FrameSpool::open`].
fn fill_from<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<usize> {
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
/// definition of "frame off a wire" that the hub, the TCP handshake and
/// `SnapshotSource` share. `Ok(None)` = clean end at a frame boundary;
/// a partial header or payload is a typed truncation error.
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
// TCP: hello frames
// ---------------------------------------------------------------------

/// The kind header of the per-connection handshake frame.
pub const HELLO_KIND: &str = "hello";

/// The kind header of the acknowledgement frame the [`FrameHub`] sends
/// back when it admits a hello: `total` carries the stream id being
/// acked, `at` the number of frames the hub holds for that stream.
/// Every [`TcpTransport`] connection reads it before its first frame.
/// A resume-capable writer ([`TcpTransport::with_spool`]) replays its
/// spool from the acked count; a plain writer ignores the count. The
/// hub refuses a connection by closing it without an ack.
pub const ACK_KIND: &str = "ack";

/// The hello `start` field value marking a **resume-capable** writer:
/// one that replays its spool from the hub's acked position. Plain
/// writers leave `start` at 0 and the hub attributes connection frames
/// to the hello's claimed position instead.
const HELLO_RESUME_FLAG: u64 = 1;

/// Build the handshake frame a [`TcpTransport`] writes when a
/// connection opens: `total` carries the writer's stream id (shard
/// index), the body its human-readable label, and `at` the number of
/// frames the writer believes were **delivered on its previous
/// connections** (0 on the first). The hub uses the id to keep fold
/// order deterministic across nondeterministic connection arrival, and
/// the delivered count to refuse stitching a reconnect onto a stream
/// with a gap — a frame lost in flight keeps the stream incomplete
/// instead of silently shortening it.
pub fn hello_frame(id: u64, label: &str, delivered: u64) -> SnapshotFrame {
    hello_with_flags(id, label, delivered, 0)
}

/// The resume-capable flavor of [`hello_frame`]: marks the writer as
/// one that replays from the hub's [`ack_frame`] — the hub will expect
/// this connection's frames to start at the **acked** position, not
/// the claimed one. Written by [`TcpTransport::with_spool`].
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

/// Build the acknowledgement frame the hub sends when it admits a
/// hello: "for stream `id`, I hold `received` frames".
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

/// How long a [`TcpTransport`] waits for the hub's [`ack_frame`] after
/// writing its hello.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// The socket write side: length-delimited v2 frames over TCP, with
/// **reconnect-with-backoff**.
///
/// Connecting is lazy (first frame) and retried with exponential
/// backoff, so shard processes may start before the aggregator binds.
/// Every connection opens with the hello/ack handshake: the
/// [`hello_frame`] names the stream and claims the frames delivered on
/// earlier connections, and the [`FrameHub`]'s ack admits it. A
/// mid-stream write failure drops the connection and re-sends the
/// failed frame on a fresh one, whose hello lets the hub stitch the
/// stream back together — or detect that a frame the kernel accepted
/// never arrived. After `attempts` consecutive connect failures the
/// error is surfaced as [`TransportError::Io`].
#[derive(Debug)]
pub struct TcpTransport {
    addr: String,
    hello: Option<(u64, String)>,
    stream: Option<TcpStream>,
    /// Frames successfully written (as far as this side can tell) on
    /// all connections so far — what the next plain hello claims.
    delivered: u64,
    attempts: u32,
    initial_backoff: Duration,
    max_backoff: Duration,
    /// Resume mode ([`with_spool`](Self::with_spool)): the durable
    /// stream of record, replayed from the peer's acked position on
    /// every (re)connection.
    spool: Option<FrameSpool>,
    /// What the peer acked at the last handshake.
    acked: u64,
    /// Next spool index to send on the current connection.
    send_pos: u64,
    /// Frames this *process* has pushed through `write_frame` — the
    /// position dedupe that keeps a restarted, deterministic producer
    /// from re-appending frames its previous run already spooled.
    written: u64,
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
        }
    }

    /// Open every connection with a [`hello_frame`] carrying this
    /// stream id and label — required: the [`FrameHub`] admits no
    /// connection without one, so `write_frame` on a transport without
    /// a hello fails with [`TransportError::Handshake`].
    pub fn with_hello(mut self, id: u64, label: impl Into<String>) -> Self {
        self.hello = Some((id, label.into()));
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
    /// [`resume_hello_frame`], and the spool is replayed from the
    /// position the peer's [`ack_frame`] names — so a process that
    /// crashes and reopens the same spool resumes the stream
    /// byte-exactly, no matter where it died.
    ///
    /// Like every connection, the handshake needs
    /// [`with_hello`](Self::with_hello) (a stream identity) and a
    /// [`FrameHub`] peer — `hhh-aggd` or the `hhh-agg --listen`
    /// barrier. `write_frame` calls are deduplicated by position: if
    /// the spool already holds frames a previous run produced, a
    /// deterministic producer regenerating them from scratch re-sends
    /// nothing.
    pub fn with_spool(mut self, spool: FrameSpool) -> Self {
        self.spool = Some(spool);
        self
    }

    /// Frames the peer acknowledged holding at the most recent
    /// handshake (0 before the first connection).
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Frames in the spool (spool mode only; 0 otherwise).
    pub fn spooled(&self) -> u64 {
        self.spool.as_ref().map_or(0, FrameSpool::len)
    }

    /// Connect (with backoff) if not connected, running the hello/ack
    /// handshake on every fresh connection.
    fn ensure_connected(&mut self) -> Result<(), TransportError> {
        if self.stream.is_some() {
            return Ok(());
        }
        if self.hello.is_none() {
            return Err(TransportError::Handshake("no stream identity: call with_hello"));
        }
        let mut backoff = self.initial_backoff;
        let mut last = None;
        for attempt in 0..self.attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.max_backoff);
            }
            match TcpStream::connect(&self.addr).and_then(|s| self.handshake(s)) {
                Ok(s) => {
                    self.stream = Some(s);
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        let source = last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "connect attempts exhausted")
        });
        Err(TransportError::io("connect", source))
    }

    /// Open a fresh connection: write the hello, then read the hub's
    /// ack. A spooled writer claims its spool under the resume flag and
    /// positions the replay cursor at the acked frame; a plain writer
    /// claims what it delivered on earlier connections and ignores the
    /// acked count.
    fn handshake(&mut self, mut s: TcpStream) -> io::Result<TcpStream> {
        let _ = s.set_nodelay(true);
        let (id, label) = self.hello.as_ref().expect("checked in ensure_connected");
        let hello = match &self.spool {
            Some(spool) => resume_hello_frame(*id, label, spool.len()),
            None => hello_frame(*id, label, self.delivered),
        };
        s.write_all(&hello.encode())?;
        s.set_read_timeout(Some(ACK_TIMEOUT))?;
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let ack =
            read_frame_from(&mut s).map_err(|e| invalid(e.to_string()))?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed before ack")
            })?;
        let (ack_id, received) = parse_ack(&ack).map_err(|e| invalid(e.to_string()))?;
        if ack_id != *id {
            return Err(invalid("ack for a different stream".to_string()));
        }
        s.set_read_timeout(None)?;
        self.acked = received;
        if let Some(spool) = &self.spool {
            self.send_pos = received.min(spool.len());
        }
        Ok(s)
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
                    Ok(()) => self.send_pos += 1,
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
        /// Whole frames this connection carried, duplicates the hub
        /// dropped included.
        frames: u64,
    },
    /// A connection claimed a resume position **ahead** of the frames
    /// the hub holds — a frame was lost in flight and the writer
    /// cannot (or did not offer to) replay it. The connection is
    /// refused without an ack; restarting the writer from its spool
    /// (or from zero, for a deterministic producer) recovers exactly.
    Gap {
        /// Stream id.
        id: u64,
        /// The position the connection wanted to resume from.
        claimed: u64,
        /// Frames the hub actually holds.
        received: u64,
    },
}

/// One writer's finished frame stream, as collected by
/// [`FrameHub::collect_streams`].
#[derive(Debug)]
pub struct FrameStream {
    /// The stream id from the writer's [`hello_frame`] (shard index).
    pub id: u64,
    /// The writer's label.
    pub label: String,
    /// Every frame the hub delivered for the stream, across all of the
    /// writer's connections, in stream order (hello frames excluded).
    pub frames: Vec<SnapshotFrame>,
}

/// The three limits a [`FrameHub::collect_streams`] barrier waits
/// under. Each is off when `None`; they compose, and the first to fire
/// fails the wait with [`TransportError::Io`] (`op` `"accept"`, kind
/// `TimedOut`) naming the limit and listing any recorded gaps.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectLimits {
    /// The **whole-wait deadline**, counted from the start of the wait
    /// regardless of progress.
    pub timeout: Option<Duration>,
    /// Give up if, while fewer streams than expected have joined, no
    /// stream joins for this long — a shard that never started. Resets
    /// on every join, so slow-but-live topologies don't need a
    /// worst-case whole-wait budget.
    pub accept_idle: Option<Duration>,
    /// Give up if the hub reports nothing — no join, frame or leave —
    /// for this long: a shard that connected and then wedged. Resets on
    /// every frame, so the total wait stays unbounded as long as bytes
    /// keep flowing.
    pub read_idle: Option<Duration>,
}

/// The socket read side: accepts any number of writer connections,
/// acks every hello with the frame count it holds (the other half of
/// every [`TcpTransport`] handshake, and the replay position of
/// [`TcpTransport::with_spool`]), deduplicates re-delivered frames by
/// position, and streams [`HubEvent`]s to its consumer.
///
/// `hhh-aggd` runs the hub for as long as it lives ([`start`](Self::start)):
/// shards join, leave, crash, and resume at any time, and gaps are
/// per-connection refusals (recoverable by writer restart) instead of
/// fold-fatal errors. `hhh-agg --listen` runs it to a one-shot barrier
/// ([`collect_streams`](Self::collect_streams)): wait for exactly
/// `expect` finished streams, then return them.
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
            let held: Arc<Mutex<HashMap<u64, u64>>> = Arc::default();
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((conn, _peer)) => {
                        let _ = conn.set_nodelay(true);
                        let tx = tx.clone();
                        let held = Arc::clone(&held);
                        std::thread::spawn(move || hub_connection(conn, &tx, &held));
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

    /// Run the hub to a one-shot **barrier**: wait until `expect`
    /// streams have each left cleanly once, then stop accepting and
    /// return them **sorted by id** — the deterministic fold order a
    /// file-based aggregation uses.
    ///
    /// The hub delivers each stream position once, in order, so a
    /// stream's frames are its [`HubEvent::Frame`]s appended as they
    /// come, and a writer that reconnects mid-stream resumes its own
    /// stream. A stream is done at its first clean [`HubEvent::Left`]
    /// of a connection that carried a frame: a writer whose ack read
    /// timed out leaves its hello-only connection behind, and that one
    /// ends cleanly while the writer's retry still delivers. Every
    /// [`HubEvent::Gap`] is recorded and listed ("gap detected")
    /// if one of `limits` fires. A stream that joined but has not left
    /// cleanly when `expect` others have is an error as well
    /// ([`TransportError::Io`], kind `InvalidData`): the barrier never
    /// returns a partial stream. Stray connections that never send a
    /// valid hello are dropped by the hub and never reach the barrier.
    pub fn collect_streams(
        self,
        expect: usize,
        limits: CollectLimits,
    ) -> Result<Vec<FrameStream>, TransportError> {
        assert!(expect > 0, "expect at least one stream");
        let (_hub, events) = self.start().map_err(|e| TransportError::io("accept", e))?;
        let started = Instant::now();
        let (mut last_join, mut last_event) = (started, started);
        let mut streams: BTreeMap<u64, FrameStream> = BTreeMap::new();
        let mut done = BTreeSet::new();
        let mut gaps = Vec::new();
        while done.len() < expect {
            match events.recv_timeout(Duration::from_millis(2)) {
                Ok(event) => {
                    last_event = Instant::now();
                    match event {
                        HubEvent::Joined { id, label, .. } => {
                            last_join = last_event;
                            let stream = FrameStream { id, label, frames: Vec::new() };
                            streams.entry(id).or_insert(stream);
                        }
                        HubEvent::Frame { id, frame, .. } => streams
                            .get_mut(&id)
                            .expect("the hub emits Joined before a stream's frames")
                            .frames
                            .push(frame),
                        HubEvent::Left { id, clean: true, frames } if frames > 0 => {
                            done.insert(id);
                        }
                        HubEvent::Left { .. } => {}
                        HubEvent::Gap { id, claimed, received } => gaps.push(format!(
                            "stream {id}: hello claims {claimed} frames delivered, hub holds \
                             {received}"
                        )),
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let ended = io::Error::new(io::ErrorKind::BrokenPipe, "hub accept loop ended");
                    return Err(TransportError::io("accept", ended));
                }
            }
            let limit = if limits.timeout.is_some_and(|t| started.elapsed() > t) {
                Some("the timeout".to_string())
            } else if let Some(idle) = limits
                .accept_idle
                .filter(|&idle| streams.len() < expect && last_join.elapsed() > idle)
            {
                Some(format!(
                    "the accept-idle limit ({} streams joined, none for {idle:?})",
                    streams.len()
                ))
            } else {
                limits
                    .read_idle
                    .filter(|&idle| last_event.elapsed() > idle)
                    .map(|idle| format!("the read-idle limit (no frame for {idle:?})"))
            };
            if let Some(why) = limit {
                let mut detail =
                    format!("{} of {expect} streams complete before {why}", done.len());
                if !gaps.is_empty() {
                    detail += "; gap detected (frame lost in flight?): ";
                    detail += &gaps.join("; ");
                }
                let timed_out = io::Error::new(io::ErrorKind::TimedOut, detail);
                return Err(TransportError::io("accept", timed_out));
            }
        }
        if let Some(id) = streams.keys().find(|id| !done.contains(*id)) {
            let detail = format!("stream {id} joined but never finished ({expect} expected)");
            let unfinished = io::Error::new(io::ErrorKind::InvalidData, detail);
            return Err(TransportError::io("accept", unfinished));
        }
        Ok(streams.into_values().collect())
    }
}

/// One hub connection: handshake (hello in, ack out), then frames
/// deduplicated by position until EOF or a torn tail. `held` maps each
/// stream id to the frames the hub holds: the next position to deliver.
fn hub_connection(conn: TcpStream, tx: &mpsc::Sender<HubEvent>, held: &Mutex<HashMap<u64, u64>>) {
    // A connection that never sends its hello must not pin this thread
    // (port scans, health probes); frames after admission have no
    // deadline — a long-lived shard may idle between windows.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(reader_half) = conn.try_clone() else { return };
    let mut reader = BufReader::new(reader_half);
    let Ok(Some(frame)) = read_frame_from(&mut reader) else { return };
    let Ok(hello) = parse_hello(&frame) else { return };
    let count = *held.lock().expect("hub lock").entry(hello.id).or_insert(0);
    // A resume-capable writer replays from our ack; a plain writer
    // sends from wherever its hello claimed (position-deduped below).
    let base = if hello.resume { count } else { hello.delivered };
    if base > count {
        // Refused: the connection closes without an ack.
        let _ = tx.send(HubEvent::Gap { id: hello.id, claimed: base, received: count });
        return;
    }
    let mut writer = conn;
    if writer.write_all(&ack_frame(hello.id, count).encode()).is_err() {
        return;
    }
    let _ = writer.set_read_timeout(None);
    let _ = tx.send(HubEvent::Joined { id: hello.id, label: hello.label, resume_at: count });
    let mut pos = base;
    let clean = loop {
        match read_frame_from(&mut reader) {
            Ok(Some(frame)) => {
                let mut map = held.lock().expect("hub lock");
                let count = map.get_mut(&hello.id).expect("admitted above");
                // Emit under the lock, so another connection of the
                // stream cannot emit the next position first. pos <
                // count is a frame the hub already holds (a restarted
                // writer replaying its prefix): drop it. pos can never
                // exceed count: it starts at base <= count and count
                // advances with every delivery.
                if pos == *count {
                    *count += 1;
                    let _ = tx.send(HubEvent::Frame { id: hello.id, pos, frame });
                }
                drop(map);
                pos += 1;
            }
            Ok(None) => break true,
            Err(_) => break false,
        }
    };
    let _ = tx.send(HubEvent::Left { id: hello.id, clean, frames: pos - base });
}

// ---------------------------------------------------------------------
// Pipeline faces
// ---------------------------------------------------------------------

/// A [`ReportSink`] that streams pipeline output through any
/// [`FrameWrite`]: reports as report frames, states as the v2 frames
/// the engines encode straight from detector state
/// (`MergeableDetector::to_frame`) — no JSON on the path.
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
    use hhh_core::snapshot::DetectorSnapshot;
    use std::sync::Barrier;

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
    fn read_frame_from_roundtrips_frames() {
        let frames = [state_frame(1, 10), state_frame(2, 20)];
        let bytes: Vec<u8> = frames.iter().flat_map(SnapshotFrame::encode).collect();

        let mut r = io::Cursor::new(bytes);
        assert_eq!(read_frame_from(&mut r).unwrap().as_ref(), Some(&frames[0]));
        assert_eq!(read_frame_from(&mut r).unwrap().as_ref(), Some(&frames[1]));
        assert!(read_frame_from(&mut r).unwrap().is_none(), "clean end at a frame boundary");
    }

    #[test]
    fn read_frame_from_reports_torn_tails() {
        let mut bytes = state_frame(1, 10).encode();
        bytes.truncate(bytes.len() - 3);
        match read_frame_from(&mut io::Cursor::new(bytes)) {
            Err(TransportError::Frame(SnapshotError::Parse { what, .. })) => {
                assert_eq!(what, "truncated frame");
            }
            other => panic!("expected a torn-frame error, got {other:?}"),
        }
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

    /// A raw writer's connection to `addr`, its hello written and the
    /// hub's ack read — as every writer does before its first frame. A
    /// hello the hub refuses (closed without an ack: it claims frames
    /// the hub has not read yet) is retried after 50 ms, as
    /// `TcpTransport`'s backoff does.
    fn admitted(addr: SocketAddr, id: u64, delivered: u64) -> TcpStream {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&hello_frame(id, &format!("shard-{id}"), delivered).encode()).unwrap();
            if let Ok(Some(ack)) = read_frame_from(&mut conn) {
                assert_eq!(parse_ack(&ack).unwrap().0, id);
                return conn;
            }
            assert!(Instant::now() < deadline, "the hub never admitted stream {id}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn within(timeout: Duration) -> CollectLimits {
        CollectLimits { timeout: Some(timeout), ..CollectLimits::default() }
    }

    #[test]
    fn a_plain_writer_that_drops_after_a_pause_loses_no_frames() {
        // A writer that closed with the hub's ack unread would make the
        // kernel reset the connection, and the reset discards frames
        // the hub has not read yet. Every writer reads its ack first.
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let (handle, rx) = hub.start().unwrap();
        for id in 0..10u64 {
            {
                let mut t =
                    TcpTransport::connect(addr.to_string()).with_hello(id, format!("shard-{id}"));
                for i in 0..50 {
                    t.write_frame(&state_frame(i + 1, i)).unwrap();
                }
                std::thread::sleep(Duration::from_millis(30)); // the hub's ack arrives
                for i in 50..100 {
                    t.write_frame(&state_frame(i + 1, i)).unwrap();
                }
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut frames = 0;
            let clean = loop {
                match rx.recv_timeout(deadline - Instant::now()) {
                    Ok(HubEvent::Frame { id: got, .. }) => {
                        assert_eq!(got, id);
                        frames += 1;
                    }
                    Ok(HubEvent::Left { clean, .. }) => break clean,
                    Ok(_) => {}
                    Err(e) => panic!("hub events dried up in round {id}: {e}"),
                }
            };
            assert_eq!((frames, clean), (100, true), "round {id}: every frame, one clean leave");
        }
        handle.shutdown();
    }

    #[test]
    fn stray_connections_beside_real_writers_never_reach_the_barrier() {
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let frames = |id: u64| -> Vec<SnapshotFrame> {
            (0..20).map(|i| state_frame(i + 1, (id + 1) * 100 + i)).collect()
        };
        // Both writers stop halfway until the hub has read and dropped
        // every stray, so the barrier cannot finish before the hub has
        // judged them all.
        let (halfway, strays_dropped) = (Arc::new(Barrier::new(3)), Arc::new(Barrier::new(3)));
        let writers: Vec<_> = [0u64, 1]
            .into_iter()
            .map(|id| {
                let (halfway, strays_dropped) = (Arc::clone(&halfway), Arc::clone(&strays_dropped));
                std::thread::spawn(move || {
                    let mut t = TcpTransport::connect(addr.to_string())
                        .with_hello(id, format!("shard-{id}"));
                    for (i, f) in frames(id).iter().enumerate() {
                        if i == 10 {
                            halfway.wait();
                            strays_dropped.wait();
                        }
                        t.write_frame(f).unwrap();
                    }
                })
            })
            .collect();
        let strays = std::thread::spawn(move || {
            halfway.wait();
            let mut bad_digest = hello_frame(2, "shard-2", 0);
            bad_digest.digest ^= 1;
            let openings = [
                Vec::new(),                         // closes without a byte
                b"GET / HTTP/1.1\r\n\r\n".to_vec(), // garbage
                state_frame(1, 1).encode(),         // a state frame first
                bad_digest.encode(),                // a hello with a bad digest
            ];
            for bytes in openings {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.write_all(&bytes).unwrap();
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                // The hub drops a stray without an ack: EOF or a reset,
                // never a byte, and never a read timeout.
                let mut reply = Vec::new();
                let dropped = conn
                    .read_to_end(&mut reply)
                    .map_or_else(|e| e.kind() == io::ErrorKind::ConnectionReset, |_| true);
                assert!(dropped && reply.is_empty(), "stray {bytes:?} got {reply:?}");
            }
            strays_dropped.wait();
        });
        let streams = hub.collect_streams(2, within(Duration::from_secs(30))).unwrap();
        for w in writers {
            w.join().unwrap();
        }
        strays.join().unwrap();
        assert_eq!(streams.iter().map(|s| s.id).collect::<Vec<_>>(), vec![0, 1]);
        for s in &streams {
            let file: Vec<u8> = frames(s.id).iter().flat_map(SnapshotFrame::encode).collect();
            let socket: Vec<u8> = s.frames.iter().flat_map(SnapshotFrame::encode).collect();
            assert_eq!(socket, file, "stream {} matches its file stream", s.id);
        }
    }

    #[test]
    fn a_connection_that_carried_no_frame_does_not_finish_its_stream() {
        // A writer whose ack read timed out leaves a connection that
        // sent only its hello; the hub may admit it late, and it ends
        // cleanly while the writer's retry is still delivering. That
        // clean leave must not complete the stream.
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            drop(admitted(addr, 0, 0));
            std::thread::sleep(Duration::from_millis(100));
            let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0");
            for i in 0..5u64 {
                t.write_frame(&state_frame(i + 1, i)).unwrap();
            }
        });
        let streams = hub.collect_streams(1, within(Duration::from_secs(30))).unwrap();
        writer.join().unwrap();
        let totals: Vec<u64> = streams[0].frames.iter().map(|f| f.total).collect();
        assert_eq!(totals, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn accept_idle_fires_when_a_shard_never_connects() {
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        // One of two expected shards connects and completes; the other
        // never dials in — the accept-idle limit must end the wait.
        let writer = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0");
            t.write_frame(&state_frame(1, 42)).unwrap();
        });
        let limits =
            CollectLimits { accept_idle: Some(Duration::from_millis(200)), ..Default::default() };
        let err = hub.collect_streams(2, limits).unwrap_err();
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
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        // The shard connects, sends its hello and one frame, then
        // wedges with the connection open — only read-idle catches it.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut conn = admitted(addr, 0, 0);
            conn.write_all(&state_frame(1, 42).encode()).unwrap();
            let _ = done_rx.recv(); // hold the connection open, silent
        });
        let limits =
            CollectLimits { read_idle: Some(Duration::from_millis(200)), ..Default::default() };
        let err = hub.collect_streams(1, limits).unwrap_err();
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
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0");
            for i in 0..10u64 {
                t.write_frame(&state_frame(i + 1, i)).unwrap();
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let limits =
            CollectLimits { read_idle: Some(Duration::from_millis(250)), ..Default::default() };
        let streams = hub.collect_streams(1, limits).unwrap();
        writer.join().unwrap();
        assert_eq!(streams[0].frames.len(), 10);
    }

    #[test]
    fn tcp_listener_collects_streams_sorted_by_hello_id() {
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
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
        let streams = hub.collect_streams(3, within(Duration::from_secs(30))).unwrap();
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
        // A writer that dies mid-frame must (a) end its connection as a
        // torn tail, not a finished stream, and (b) not poison the
        // barrier: the reconnecting writer re-sends the torn frame and
        // completes the stream.
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let torn = {
            let bytes = state_frame(2, 43).encode();
            bytes[..bytes.len() - 5].to_vec()
        };
        let writer = std::thread::spawn(move || {
            // First connection: hello, one whole frame, then a torn
            // one, then die.
            let mut conn = admitted(addr, 0, 0);
            conn.write_all(&state_frame(1, 42).encode()).unwrap();
            conn.write_all(&torn).unwrap();
            drop(conn);
            // Reconnect: the hello claims the one frame that fully
            // arrived, then the torn frame is re-sent whole, then one
            // more, then a clean end.
            let mut conn = admitted(addr, 0, 1);
            conn.write_all(&state_frame(2, 43).encode()).unwrap();
            conn.write_all(&state_frame(3, 44).encode()).unwrap();
        });
        let streams = hub.collect_streams(1, within(Duration::from_secs(30))).unwrap();
        writer.join().unwrap();
        assert_eq!(streams.len(), 1);
        let totals: Vec<u64> = streams[0].frames.iter().map(|f| f.total).collect();
        assert_eq!(totals, vec![42, 43, 44], "torn tail dropped, stream resumed in order");
    }

    #[test]
    fn lost_in_flight_frame_is_a_gap_error_not_a_shorter_stream() {
        // The silent-loss scenario: the writer's kernel accepted a
        // frame that never arrived before the connection died, so the
        // reconnect's hello claims 1 delivered while the hub holds 0.
        // The stream must stay incomplete and surface a typed gap
        // error — never fold one frame short.
        let hub = FrameHub::bind("127.0.0.1:0").unwrap();
        let addr = hub.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&hello_frame(0, "shard-0", 1).encode()).unwrap();
            let _ = conn.write_all(&state_frame(2, 43).encode());
            let refused = !matches!(read_frame_from(&mut conn), Ok(Some(_)));
            assert!(refused, "the hub closes a gapped connection without an ack");
        });
        let err = hub.collect_streams(1, within(Duration::from_secs(2))).unwrap_err();
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
        // closed — the backoff must carry the writer until the hub
        // comes up.
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
        let hub = FrameHub::bind(addr).unwrap();
        let streams = hub.collect_streams(1, within(Duration::from_secs(30))).unwrap();
        writer.join().unwrap();
        assert_eq!(streams[0].frames.len(), 1);
        assert_eq!(streams[0].frames[0].total, 7);
    }

    #[test]
    fn connect_exhaustion_is_a_typed_error() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let mut t = TcpTransport::connect(addr.to_string()).with_hello(0, "shard-0").with_retry(
            2,
            Duration::from_millis(1),
            Duration::from_millis(2),
        );
        let err = t.write_frame(&state_frame(1, 1)).unwrap_err();
        assert!(matches!(err, TransportError::Io { op: "connect", .. }), "{err:?}");
        assert!(std::error::Error::source(&err).is_some(), "source() chains to io::Error");
        // Without a hello no connection can be admitted: a typed error
        // before any connect attempt.
        let err = TcpTransport::connect(addr.to_string()).write_frame(&state_frame(1, 1));
        assert!(matches!(err, Err(TransportError::Handshake(_))), "{err:?}");
    }
}
