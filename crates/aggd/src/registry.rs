//! The daemon's shared state: the incremental fold and the per-stream
//! membership table, both behind locks so the fold loop writes while
//! HTTP handlers read.

use hhh_agg::FoldState;
use hhh_hierarchy::Ipv4Hierarchy;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// What the daemon knows about one logical stream (identified by its
/// hello id for its whole lifetime, across any number of connections).
#[derive(Clone, Debug)]
pub struct StreamInfo {
    /// The writer's label from its hello (`exact/0of3` style).
    pub label: String,
    /// Is a connection for this stream currently admitted?
    pub connected: bool,
    /// Frames delivered to the fold so far (dedup survivors).
    pub delivered: u64,
    /// Connections admitted for the stream (1 = never restarted).
    pub connects: u64,
    /// Resume-claim refusals (writer claimed frames the hub never got).
    pub gaps: u64,
    /// When the stream's last frame arrived.
    pub last_frame: Option<Instant>,
}

/// The fold + membership registry one daemon owns.
pub struct Registry {
    /// The incremental fold the HTTP query endpoints render from.
    /// Lock order: never take [`Registry::streams`]'s lock while
    /// holding this one.
    pub fold: Mutex<FoldState<Ipv4Hierarchy>>,
    streams: Mutex<BTreeMap<u64, StreamInfo>>,
}

impl Registry {
    /// An empty registry; `retain` bounds the fold's per-kind report
    /// points (`None` = unbounded).
    pub fn new(retain: Option<usize>) -> Self {
        let fold = match retain {
            Some(points) => FoldState::new().with_retention(points),
            None => FoldState::new(),
        };
        Registry { fold: Mutex::new(fold), streams: Mutex::new(BTreeMap::new()) }
    }

    /// A connection for `id` completed its handshake.
    pub fn joined(&self, id: u64, label: &str, delivered: u64) {
        let mut streams = self.streams.lock().expect("streams lock");
        let info = streams.entry(id).or_insert_with(|| StreamInfo {
            label: label.to_string(),
            connected: false,
            delivered,
            connects: 0,
            gaps: 0,
            last_frame: None,
        });
        info.label = label.to_string();
        info.connected = true;
        info.connects += 1;
    }

    /// Frame at `pos` was delivered for stream `id`.
    pub fn note_frame(&self, id: u64, pos: u64) {
        let mut streams = self.streams.lock().expect("streams lock");
        if let Some(info) = streams.get_mut(&id) {
            info.delivered = info.delivered.max(pos + 1);
            info.last_frame = Some(Instant::now());
        }
    }

    /// The stream's connection ended (the stream itself stays open —
    /// a reconnect resumes it).
    pub fn left(&self, id: u64) {
        let mut streams = self.streams.lock().expect("streams lock");
        if let Some(info) = streams.get_mut(&id) {
            info.connected = false;
        }
    }

    /// A connection for `id` was refused for claiming a resume
    /// position ahead of what the hub holds.
    pub fn gap(&self, id: u64, claimed: u64, received: u64) {
        let mut streams = self.streams.lock().expect("streams lock");
        let info = streams.entry(id).or_insert_with(|| StreamInfo {
            label: String::new(),
            connected: false,
            delivered: received,
            connects: 0,
            gaps: 0,
            last_frame: None,
        });
        info.gaps += 1;
        let _ = claimed;
    }

    /// A point-in-time copy of the membership table.
    pub fn streams(&self) -> BTreeMap<u64, StreamInfo> {
        self.streams.lock().expect("streams lock").clone()
    }

    /// Streams with a live connection right now.
    pub fn connected(&self) -> usize {
        self.streams.lock().expect("streams lock").values().filter(|s| s.connected).count()
    }

    /// Has each `(id, frames)` stream delivered at least `frames`
    /// frames and left, and has the fold refolded every one of them?
    /// The fold takes a frame before the stream's delivered count
    /// moves, so a fold with no dirty point, read after the counts,
    /// holds every frame the streams delivered. Whether they delivered
    /// exactly `frames`, and whether the answer is right, is for the
    /// caller to compare once this holds.
    pub fn settled(&self, want: &[(u64, u64)]) -> bool {
        let streams = self.streams();
        want.iter()
            .all(|(id, n)| streams.get(id).is_some_and(|s| s.delivered >= *n && !s.connected))
            && self.fold.lock().expect("fold lock").dirty_count() == 0
    }
}
