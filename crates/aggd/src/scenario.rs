//! The **distributed-aggregation scenario** shared by the `distagg`
//! experiment (in `hhh-experiments`) and the daemon's shard driver
//! (`aggd-shard`): one day trace split K ways by the sharded
//! pipeline's own key partition ([`shard_of`]), K independent
//! per-shard pipelines writing their per-report-point detector
//! snapshots, and the reference runs the folds are checked against.
//!
//! Everything here is **deterministic**: the same
//! `(kind, trace, k, shard)` always produces the same stream bytes.
//! That determinism is what makes restart recovery exact — a shard
//! process restarted from zero regenerates its stream bit-for-bit, so
//! the hub's position dedupe (or the spool replay) resumes the fold as
//! if nothing happened.
//!
//! The module lives in `hhh-aggd` (not `hhh-experiments`) so the
//! daemon's binaries and integration tests can drive scenario shards
//! without a dependency cycle; `hhh_experiments::distagg` re-exports
//! every name, so experiment callers are unaffected.

use hhh_agg::{fold_streams, read_stream, MergedPoint};
use hhh_core::{
    ExactHhh, HhhDetector, MergeableDetector, MvPipeHhh, Rhhh, SpaceSavingHhh, TdbfHhh,
    TdbfHhhConfig, Threshold, WireFormat,
};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::{
    shard_of, Continuous, Disjoint, PacketSource, Pipeline, ReportSink, ShardedContinuous,
    ShardedDisjoint, SnapshotSink, TcpTransport, TransportError, TransportSink, WindowReport,
};

/// Report window / probe cadence of the scenario.
pub const DISTAGG_WINDOW: TimeSpan = TimeSpan::from_secs(5);

/// Report threshold of the scenario (1% of bytes).
pub fn distagg_threshold() -> Threshold {
    Threshold::percent(1.0)
}

/// Space-Saving counters for `ss-hhh`/`rhhh` in the scenario.
pub const DISTAGG_CAPACITY: usize = 512;

/// Majority-vote buckets for `mvpipe` in the scenario — sized so the
/// single pipe roughly matches the per-level Space-Saving state
/// (`DISTAGG_CAPACITY` counters × the hierarchy's non-root levels).
pub const DISTAGG_MVPIPE_BUCKETS: usize = 2048;

/// The detector kinds the scenario exercises — every kind the snapshot
/// codec can round-trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// [`ExactHhh`] in disjoint windows (lossless merges).
    Exact,
    /// [`SpaceSavingHhh`] in disjoint windows.
    SsHhh,
    /// [`Rhhh`] in disjoint windows (per-shard sampling seeds).
    Rhhh,
    /// [`TdbfHhh`] probed continuously.
    Tdbf,
    /// [`MvPipeHhh`] in disjoint windows (single bottom-level pipe).
    MvPipe,
}

/// All five kinds, in fixed order.
pub const KINDS: [Kind; 5] = [Kind::Exact, Kind::SsHhh, Kind::Rhhh, Kind::Tdbf, Kind::MvPipe];

impl Kind {
    /// The wire `kind` label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::SsHhh => "ss-hhh",
            Kind::Rhhh => "rhhh",
            Kind::Tdbf => "tdbf-hhh",
            Kind::MvPipe => "mvpipe",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "exact" => Some(Kind::Exact),
            "ss-hhh" => Some(Kind::SsHhh),
            "rhhh" => Some(Kind::Rhhh),
            "tdbf-hhh" => Some(Kind::Tdbf),
            "mvpipe" => Some(Kind::MvPipe),
            _ => None,
        }
    }

    /// This kind's index within [`KINDS`].
    pub fn index(self) -> u64 {
        match self {
            Kind::Exact => 0,
            Kind::SsHhh => 1,
            Kind::Rhhh => 2,
            Kind::Tdbf => 3,
            Kind::MvPipe => 4,
        }
    }
}

/// The scenario hierarchy (IPv4 source prefixes weighted by bytes).
pub fn hierarchy() -> Ipv4Hierarchy {
    Ipv4Hierarchy::bytes()
}

/// RHHH sampling seed for a shard — shared between the split runs and
/// the in-process sharded reference, so their states are bit-identical.
pub fn rhhh_seed(shard: usize) -> u64 {
    0x5EED_0000 + shard as u64
}

/// TDBF configuration of the scenario (half-life = half a window).
pub fn tdbf_config() -> TdbfHhhConfig {
    TdbfHhhConfig { half_life: DISTAGG_WINDOW / 2, ..TdbfHhhConfig::default() }
}

/// The scenario's day trace over an explicit horizon — day 0 of the
/// acceptance traces, the same generator and seed at every scale, so
/// two processes that agree on the horizon agree on every packet.
pub fn scenario_trace(horizon: TimeSpan) -> Vec<PacketRecord> {
    use hhh_trace::{scenarios, TraceGenerator};
    TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect()
}

/// TDBF probe instants: every window boundary in the horizon.
pub fn probes(horizon: TimeSpan) -> Vec<Nanos> {
    (1..=horizon / DISTAGG_WINDOW).map(|i| Nanos::ZERO + DISTAGG_WINDOW * i).collect()
}

/// The **globally unique stream id** for `(kind, shard)` in a K-shard
/// all-kinds topology: `kind.index() * k + shard`. The hub and the
/// daemon identify a logical stream by its id alone — for its whole
/// lifetime, across reconnects — so two different streams must never
/// share one. Single-kind topologies may keep the bare shard index
/// (what [`shard_to_addr_on`] does); anything driving more than one
/// kind at the same daemon uses this.
pub fn stream_id(kind: Kind, k: usize, shard: usize) -> u64 {
    kind.index() * k as u64 + shard as u64
}

/// The hello label for `(kind, shard)` — `exact/0of3` style.
pub fn shard_label(kind: Kind, k: usize, shard: usize) -> String {
    format!("{}/{shard}of{k}", kind.label())
}

/// Run the scenario's windowed sharded pipeline over an arbitrary
/// packet [`PacketSource`] into an arbitrary sink — the source decides
/// where packets come from (a slice, a bounded live feed), the sink
/// decides the medium (byte buffer, file, socket, in-process channel).
fn windowed_source_into<Src, D, S>(
    source: Src,
    horizon: TimeSpan,
    detectors: Vec<D>,
    sink: S,
) -> S::Output
where
    Src: PacketSource,
    D: HhhDetector<Ipv4Hierarchy> + MergeableDetector + Clone + Send,
    S: ReportSink<Ipv4Prefix>,
{
    Pipeline::new(source)
        .engine(ShardedDisjoint::new(
            detectors,
            horizon,
            DISTAGG_WINDOW,
            &[distagg_threshold()],
            |p| p.src,
        ))
        .sink(sink)
        .run()
}

/// [`windowed_source_into`] over an in-memory packet slice.
fn windowed_into<D, S>(
    packets: &[PacketRecord],
    horizon: TimeSpan,
    detectors: Vec<D>,
    sink: S,
) -> S::Output
where
    D: HhhDetector<Ipv4Hierarchy> + MergeableDetector + Clone + Send,
    S: ReportSink<Ipv4Prefix>,
{
    windowed_source_into(packets.iter().copied(), horizon, detectors, sink)
}

/// The continuous (TDBF) counterpart of [`windowed_source_into`].
fn continuous_source_into<Src, S>(
    source: Src,
    horizon: TimeSpan,
    shards: usize,
    sink: S,
) -> S::Output
where
    Src: PacketSource,
    S: ReportSink<Ipv4Prefix>,
{
    let detectors: Vec<_> = (0..shards).map(|_| TdbfHhh::new(hierarchy(), tdbf_config())).collect();
    Pipeline::new(source)
        .engine(ShardedContinuous::new(detectors, &probes(horizon), distagg_threshold(), |p| p.src))
        .sink(sink)
        .run()
}

/// [`continuous_source_into`] over an in-memory packet slice.
fn continuous_into<S: ReportSink<Ipv4Prefix>>(
    packets: &[PacketRecord],
    horizon: TimeSpan,
    shards: usize,
    sink: S,
) -> S::Output {
    continuous_source_into(packets.iter().copied(), horizon, shards, sink)
}

fn windowed_stream<D>(
    packets: &[PacketRecord],
    horizon: TimeSpan,
    detectors: Vec<D>,
    format: WireFormat,
) -> Vec<u8>
where
    D: HhhDetector<Ipv4Hierarchy> + MergeableDetector + Clone + Send,
{
    let (bytes, err) =
        windowed_into(packets, horizon, detectors, SnapshotSink::with_format(Vec::new(), format));
    assert!(err.is_none(), "Vec<u8> writes cannot fail");
    bytes
}

fn continuous_stream(
    packets: &[PacketRecord],
    horizon: TimeSpan,
    shards: usize,
    format: WireFormat,
) -> Vec<u8> {
    let (bytes, err) =
        continuous_into(packets, horizon, shards, SnapshotSink::with_format(Vec::new(), format));
    assert!(err.is_none(), "Vec<u8> writes cannot fail");
    bytes
}

/// The sub-stream [`shard_of`] assigns to `shard` among `k`.
pub fn shard_packets(trace: &[PacketRecord], k: usize, shard: usize) -> Vec<PacketRecord> {
    trace.iter().copied().filter(|p| shard_of(&p.src, k) == shard).collect()
}

/// One shard's pipeline of the scenario over an arbitrary
/// [`PacketSource`] into an arbitrary sink — the medium-agnostic core
/// everything shares. [`shard_into`] wraps it for in-memory slices;
/// live drivers (like `hhh-loadgen`) hand it the consuming half of a
/// [`bounded`](hhh_window::source::bounded) channel so a producer
/// thread feeds the shard with back-pressure.
pub fn shard_source_into<Src, S>(
    kind: Kind,
    source: Src,
    horizon: TimeSpan,
    shard: usize,
    sink: S,
) -> S::Output
where
    Src: PacketSource,
    S: ReportSink<Ipv4Prefix>,
{
    match kind {
        Kind::Exact => {
            windowed_source_into(source, horizon, vec![ExactHhh::new(hierarchy())], sink)
        }
        Kind::SsHhh => windowed_source_into(
            source,
            horizon,
            vec![SpaceSavingHhh::new(hierarchy(), DISTAGG_CAPACITY)],
            sink,
        ),
        Kind::Rhhh => windowed_source_into(
            source,
            horizon,
            vec![Rhhh::new(hierarchy(), DISTAGG_CAPACITY, rhhh_seed(shard))],
            sink,
        ),
        Kind::Tdbf => continuous_source_into(source, horizon, 1, sink),
        Kind::MvPipe => windowed_source_into(
            source,
            horizon,
            vec![MvPipeHhh::new(hierarchy(), DISTAGG_MVPIPE_BUCKETS)],
            sink,
        ),
    }
}

/// [`shard_source_into`] over the shard's already-partitioned
/// in-memory sub-stream (see [`shard_packets`]).
pub fn shard_into<S: ReportSink<Ipv4Prefix>>(
    kind: Kind,
    packets: &[PacketRecord],
    horizon: TimeSpan,
    shard: usize,
    sink: S,
) -> S::Output {
    shard_source_into(kind, packets.iter().copied(), horizon, shard, sink)
}

/// One shard's run of the distributed scenario: filter the trace to
/// the keys [`shard_of`] assigns to `shard` among `k`, run the
/// per-shard pipeline, and return its snapshot stream in `format` —
/// exactly what that shard's *process* would write.
pub fn shard_stream_on(
    kind: Kind,
    trace: &[PacketRecord],
    horizon: TimeSpan,
    k: usize,
    shard: usize,
    format: WireFormat,
) -> Vec<u8> {
    assert!(shard < k, "shard index out of range");
    let packets = shard_packets(trace, k, shard);
    let (bytes, err) =
        shard_into(kind, &packets, horizon, shard, SnapshotSink::with_format(Vec::new(), format));
    assert!(err.is_none(), "Vec<u8> writes cannot fail");
    bytes
}

/// [`shard_stream_on`] in the v1 JSONL format.
pub fn shard_jsonl_on(
    kind: Kind,
    trace: &[PacketRecord],
    horizon: TimeSpan,
    k: usize,
    shard: usize,
) -> Vec<u8> {
    shard_stream_on(kind, trace, horizon, k, shard, WireFormat::Json)
}

/// One shard's run streamed **over TCP** to an aggregator at `addr`
/// with an explicit stream id — what `aggd-shard` and the aggd e2e
/// driver use ([`stream_id`] for multi-kind topologies). The transport
/// opens with a hello frame carrying `id`, so the aggregator folds in
/// stream-id order no matter who connects first; frames are the
/// detector's **native** encodes (no JSON anywhere on the shard side).
pub fn shard_to_addr_with(
    kind: Kind,
    trace: &[PacketRecord],
    horizon: TimeSpan,
    k: usize,
    shard: usize,
    addr: &str,
    id: u64,
) -> Result<(), TransportError> {
    assert!(shard < k, "shard index out of range");
    let transport = TcpTransport::connect(addr).with_hello(id, shard_label(kind, k, shard));
    let packets = shard_packets(trace, k, shard);
    let (_transport, err) =
        shard_into(kind, &packets, horizon, shard, TransportSink::new(transport));
    match err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// [`shard_to_addr_with`] with the single-kind id convention
/// (`id == shard`) — what `distagg shard --connect` does.
pub fn shard_to_addr_on(
    kind: Kind,
    trace: &[PacketRecord],
    horizon: TimeSpan,
    k: usize,
    shard: usize,
    addr: &str,
) -> Result<(), TransportError> {
    shard_to_addr_with(kind, trace, horizon, k, shard, addr, shard as u64)
}

/// The in-process K-shard reference stream: one sharded pipeline over
/// the whole trace, whose state lines carry the *merged* detector at
/// every report point — what the cross-process fold must reproduce
/// byte-for-byte.
pub fn inprocess_sharded_jsonl_on(
    kind: Kind,
    packets: &[PacketRecord],
    horizon: TimeSpan,
    k: usize,
) -> Vec<u8> {
    let format = WireFormat::Json;
    match kind {
        Kind::Exact => windowed_stream(
            packets,
            horizon,
            (0..k).map(|_| ExactHhh::new(hierarchy())).collect(),
            format,
        ),
        Kind::SsHhh => windowed_stream(
            packets,
            horizon,
            (0..k).map(|_| SpaceSavingHhh::new(hierarchy(), DISTAGG_CAPACITY)).collect(),
            format,
        ),
        Kind::Rhhh => windowed_stream(
            packets,
            horizon,
            (0..k).map(|s| Rhhh::new(hierarchy(), DISTAGG_CAPACITY, rhhh_seed(s))).collect(),
            format,
        ),
        Kind::Tdbf => continuous_stream(packets, horizon, k, format),
        Kind::MvPipe => windowed_stream(
            packets,
            horizon,
            (0..k).map(|_| MvPipeHhh::new(hierarchy(), DISTAGG_MVPIPE_BUCKETS)).collect(),
            format,
        ),
    }
}

/// The unsharded single-process reference reports (series 0 at the
/// scenario threshold).
pub fn single_process_reports_on(
    kind: Kind,
    packets: &[PacketRecord],
    horizon: TimeSpan,
) -> Vec<WindowReport<Ipv4Prefix>> {
    let mut reports = match kind {
        Kind::Exact => Pipeline::new(packets.iter().copied())
            .engine(Disjoint::new(
                ExactHhh::new(hierarchy()),
                horizon,
                DISTAGG_WINDOW,
                &[distagg_threshold()],
                |p| p.src,
            ))
            .collect()
            .run(),
        Kind::SsHhh => Pipeline::new(packets.iter().copied())
            .engine(Disjoint::new(
                SpaceSavingHhh::new(hierarchy(), DISTAGG_CAPACITY),
                horizon,
                DISTAGG_WINDOW,
                &[distagg_threshold()],
                |p| p.src,
            ))
            .collect()
            .run(),
        Kind::Rhhh => Pipeline::new(packets.iter().copied())
            .engine(Disjoint::new(
                Rhhh::new(hierarchy(), DISTAGG_CAPACITY, rhhh_seed(0)),
                horizon,
                DISTAGG_WINDOW,
                &[distagg_threshold()],
                |p| p.src,
            ))
            .collect()
            .run(),
        Kind::Tdbf => Pipeline::new(packets.iter().copied())
            .engine(Continuous::new(
                TdbfHhh::new(hierarchy(), tdbf_config()),
                &probes(horizon),
                distagg_threshold(),
                |p| p.src,
            ))
            .collect()
            .run(),
        Kind::MvPipe => Pipeline::new(packets.iter().copied())
            .engine(Disjoint::new(
                MvPipeHhh::new(hierarchy(), DISTAGG_MVPIPE_BUCKETS),
                horizon,
                DISTAGG_WINDOW,
                &[distagg_threshold()],
                |p| p.src,
            ))
            .collect()
            .run(),
    };
    reports.remove(0)
}

/// Fold K shard streams (bytes, as the shard processes wrote them)
/// into merged report points.
pub fn fold_shard_streams(
    streams: &[Vec<u8>],
) -> Result<Vec<MergedPoint<Ipv4Hierarchy>>, hhh_agg::AggError> {
    let mut parsed = Vec::with_capacity(streams.len());
    for (i, bytes) in streams.iter().enumerate() {
        parsed.push(read_stream(i, bytes.as_slice())?);
    }
    fold_streams(&hierarchy(), parsed)
}
