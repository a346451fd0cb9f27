//! The **distributed-aggregation scenario** shared by the `distagg`
//! experiment (in `hhh-experiments`), the daemon's shard writer
//! (`aggd-shard`) and the load generator: one day trace split K ways
//! by the sharded pipeline's own key partition ([`shard_of`]), K
//! independent per-shard pipelines writing their per-report-point
//! detector snapshots, and the reference runs the folds are checked
//! against.
//!
//! Everything here is **deterministic**: the same
//! `(kind, trace, k, shard)` always produces the same stream bytes.
//! That determinism is what makes restart recovery exact — a shard
//! process restarted from zero regenerates its stream bit-for-bit, so
//! the hub's position dedupe (or the spool replay) resumes the fold as
//! if nothing happened.
//!
//! Each kind's detectors are built in one place, a private constructor
//! table with one row per [`Kind`] at the scenario's sizing. It hands
//! them to a sharded runner (a shard's own pipeline, or the in-process
//! K-shard reference) or to an unsharded one (the single-process
//! reference on the plain [`Disjoint`] and [`Continuous`] engines).
//!
//! [`shard_source_into`] runs one shard's pipeline from any packet
//! source into any sink (stdout, a byte buffer, a
//! [`TransportSink`](hhh_window::TransportSink) over TCP), and
//! [`shard_stream_on`] is that run into a byte buffer. `aggd-shard` is
//! the one binary that writes a shard's stream, to stdout or to a
//! socket. [`inprocess_sharded_jsonl_on`], [`single_process_reports_on`]
//! and [`fold_shard_streams`] are the references a fold is checked
//! against.
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
use hhh_trace::{scenarios, TraceGenerator};
use hhh_window::{
    shard_of, Continuous, Disjoint, PacketSource, Pipeline, ReportSink, ShardedContinuous,
    ShardedDisjoint, SnapshotSink, WindowReport,
};
use std::ops::Range;

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

/// The detector kinds the scenario exercises: every row of the kind
/// table, [`hhh_core::Kind`].
pub use hhh_core::Kind;

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

/// The scenario's day trace over an explicit horizon, as a stream —
/// day 0 of the acceptance traces, the same generator and seed at every
/// scale, so two processes that agree on the horizon agree on every
/// packet. It holds no packets: a shard that filters it (see
/// [`shard_of`]) runs in memory flat in the horizon.
pub fn scenario_packets(horizon: TimeSpan) -> TraceGenerator {
    TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0))
}

/// [`scenario_packets`], collected.
pub fn scenario_trace(horizon: TimeSpan) -> Vec<PacketRecord> {
    scenario_packets(horizon).collect()
}

/// TDBF probe instants: every window boundary in the horizon.
pub fn probes(horizon: TimeSpan) -> Vec<Nanos> {
    (1..=horizon / DISTAGG_WINDOW).map(|i| Nanos::ZERO + DISTAGG_WINDOW * i).collect()
}

/// The **globally unique stream id** for `(kind, shard)` in a K-shard
/// all-kinds topology: `index * k + shard`, where `index` is the kind's
/// position in [`Kind::ALL`]. The hub and the daemon identify a logical
/// stream by its id alone — for its whole lifetime, across reconnects —
/// so two different streams must never share one. Single-kind
/// topologies may keep the bare shard index (`aggd-shard`'s default
/// id); anything driving more than one kind at the same daemon uses
/// this.
pub fn stream_id(kind: Kind, k: usize, shard: usize) -> u64 {
    let index = Kind::ALL.iter().position(|&row| row == kind).expect("every kind is a row");
    (index * k + shard) as u64
}

/// The hello label for `(kind, shard)` — `exact/0of3` style.
pub fn shard_label(kind: Kind, k: usize, shard: usize) -> String {
    format!("{}/{shard}of{k}", kind.label())
}

/// What runs a kind's detectors once [`run_kind`] has built them: the
/// windowed kinds go to [`windowed`](Self::windowed), the windowless
/// TDBF to [`continuous`](Self::continuous).
trait Runner {
    type Output;

    fn windowed<D>(self, detectors: Vec<D>) -> Self::Output
    where
        D: HhhDetector<Ipv4Hierarchy> + MergeableDetector + Clone + Send;

    fn continuous(self, detectors: Vec<TdbfHhh<Ipv4Hierarchy>>) -> Self::Output;
}

/// The scenario's one constructor table: build `kind`'s detectors at
/// the scenario's sizing, one per shard in `shards` (RHHH seeds by
/// shard index), and hand them to `runner`.
fn run_kind<R: Runner>(kind: Kind, shards: Range<usize>, runner: R) -> R::Output {
    let h = hierarchy();
    match kind {
        Kind::Exact => runner.windowed(shards.map(|_| ExactHhh::new(h)).collect()),
        Kind::SsHhh => {
            runner.windowed(shards.map(|_| SpaceSavingHhh::new(h, DISTAGG_CAPACITY)).collect())
        }
        Kind::Rhhh => {
            runner.windowed(shards.map(|s| Rhhh::new(h, DISTAGG_CAPACITY, rhhh_seed(s))).collect())
        }
        Kind::Tdbf => runner.continuous(shards.map(|_| TdbfHhh::new(h, tdbf_config())).collect()),
        Kind::MvPipe => {
            runner.windowed(shards.map(|_| MvPipeHhh::new(h, DISTAGG_MVPIPE_BUCKETS)).collect())
        }
    }
}

/// The scenario's sharded pipeline (one worker per detector) from any
/// packet [`PacketSource`] into any sink: the source decides where
/// packets come from (a slice, a bounded live feed), the sink decides
/// the medium (byte buffer, file, socket).
struct Sharded<Src, S> {
    source: Src,
    horizon: TimeSpan,
    sink: S,
}

impl<Src: PacketSource, S: ReportSink<Ipv4Prefix>> Runner for Sharded<Src, S> {
    type Output = S::Output;

    fn windowed<D>(self, detectors: Vec<D>) -> S::Output
    where
        D: HhhDetector<Ipv4Hierarchy> + MergeableDetector + Clone + Send,
    {
        let threshold = [distagg_threshold()];
        Pipeline::new(self.source)
            .engine(ShardedDisjoint::new(
                detectors,
                self.horizon,
                DISTAGG_WINDOW,
                &threshold,
                |p| p.src,
            ))
            .sink(self.sink)
            .run()
    }

    fn continuous(self, detectors: Vec<TdbfHhh<Ipv4Hierarchy>>) -> S::Output {
        let probes = probes(self.horizon);
        Pipeline::new(self.source)
            .engine(ShardedContinuous::new(detectors, &probes, distagg_threshold(), |p| p.src))
            .sink(self.sink)
            .run()
    }
}

/// The unsharded single-process engines ([`Disjoint`], [`Continuous`])
/// over a packet slice, collecting series 0.
struct Unsharded<'a> {
    packets: &'a [PacketRecord],
    horizon: TimeSpan,
}

impl Runner for Unsharded<'_> {
    type Output = Vec<WindowReport<Ipv4Prefix>>;

    fn windowed<D>(self, detectors: Vec<D>) -> Self::Output
    where
        D: HhhDetector<Ipv4Hierarchy> + MergeableDetector + Clone + Send,
    {
        let detector = detectors.into_iter().next().expect("one unsharded detector");
        let threshold = [distagg_threshold()];
        Pipeline::new(self.packets.iter().copied())
            .engine(Disjoint::new(detector, self.horizon, DISTAGG_WINDOW, &threshold, |p| p.src))
            .collect()
            .run()
            .remove(0)
    }

    fn continuous(self, detectors: Vec<TdbfHhh<Ipv4Hierarchy>>) -> Self::Output {
        let detector = detectors.into_iter().next().expect("one unsharded detector");
        let probes = probes(self.horizon);
        Pipeline::new(self.packets.iter().copied())
            .engine(Continuous::new(detector, &probes, distagg_threshold(), |p| p.src))
            .collect()
            .run()
            .remove(0)
    }
}

/// The sub-stream [`shard_of`] assigns to `shard` among `k`.
pub fn shard_packets(trace: &[PacketRecord], k: usize, shard: usize) -> Vec<PacketRecord> {
    trace.iter().copied().filter(|p| shard_of(&p.src, k) == shard).collect()
}

/// One shard's pipeline of the scenario over an arbitrary
/// [`PacketSource`] into an arbitrary sink — the medium-agnostic core
/// every shard run shares. `aggd-shard` hands it the shard's
/// partition of the trace, [`scenario_packets`] filtered through
/// [`shard_of`] as it is generated, and a stdout or TCP sink; live
/// feeds (like `hhh-loadgen`) hand it the consuming half
/// of a [`bounded`](hhh_window::source::bounded) channel so a producer
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
    run_kind(kind, shard..shard + 1, Sharded { source, horizon, sink })
}

/// One shard's run of the distributed scenario: filter the trace to
/// the keys [`shard_of`] assigns to `shard` among `k`, run the
/// per-shard pipeline, and return its snapshot stream in `format` —
/// exactly the bytes `aggd-shard` writes to stdout.
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
    let sink = SnapshotSink::with_format(Vec::new(), format);
    let (bytes, err) = shard_source_into(kind, packets.iter().copied(), horizon, shard, sink);
    assert!(err.is_none(), "Vec<u8> writes cannot fail");
    bytes
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
    let sink = SnapshotSink::with_format(Vec::new(), WireFormat::Json);
    let (bytes, err) =
        run_kind(kind, 0..k, Sharded { source: packets.iter().copied(), horizon, sink });
    assert!(err.is_none(), "Vec<u8> writes cannot fail");
    bytes
}

/// The unsharded single-process reference reports (series 0 at the
/// scenario threshold).
pub fn single_process_reports_on(
    kind: Kind,
    packets: &[PacketRecord],
    horizon: TimeSpan,
) -> Vec<WindowReport<Ipv4Prefix>> {
    run_kind(kind, 0..1, Unsharded { packets, horizon })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_pinned_per_kind() {
        // perfbench's mitigate workload streams its two MVPipe shards
        // as ids 8 and 9.
        let ids = |kind| [stream_id(kind, 2, 0), stream_id(kind, 2, 1)];
        assert_eq!(ids(Kind::Exact), [0, 1]);
        assert_eq!(ids(Kind::SsHhh), [2, 3]);
        assert_eq!(ids(Kind::Rhhh), [4, 5]);
        assert_eq!(ids(Kind::Tdbf), [6, 7]);
        assert_eq!(ids(Kind::MvPipe), [8, 9]);
    }
}
