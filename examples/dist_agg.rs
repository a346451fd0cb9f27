//! Distributed aggregation end to end, in one process for show:
//!
//! 1. split a trace across two "processes" (key-partitioned, the same
//!    partition the sharded engines use) and run each through its own
//!    pipeline with a [`SnapshotSink`] — producing the snapshot
//!    JSONL streams real shard processes would write;
//! 2. fold the streams with `hhh-agg`'s library API and print the
//!    merged per-window HHH counts next to a single-process reference —
//!    they match exactly, because exact-detector merges are lossless
//!    and the wire codec round-trips states bit-for-bit;
//! 3. re-run one shard with the **binary (v2) wire format** — the
//!    `--format binary` path — and show that the smaller frames fold
//!    to the byte-identical merged state;
//! 4. stream the shards over **transports** instead of buffers — both
//!    shard pipelines write natively encoded v2 frames over localhost
//!    TCP into an in-process `hhh-aggd` (the `aggd-shard --connect`
//!    path) — and show the daemon's fold is byte-identical to the file
//!    fold: a frame on a socket is the same bytes as a frame in a file.
//!
//! Run with: `cargo run --release --example dist_agg`

use hidden_hhh::agg::{fold_streams, read_stream, render_merged};
use hidden_hhh::aggd::{spawn_daemon, DaemonConfig};
use hidden_hhh::core::WireFormat;
use hidden_hhh::prelude::*;
use hidden_hhh::window::{http_get, shard_of, SnapshotSink};
use std::time::{Duration, Instant};

fn main() {
    let h = Ipv4Hierarchy::bytes();
    let horizon = TimeSpan::from_secs(20);
    let window = TimeSpan::from_secs(5);
    let threshold = Threshold::percent(1.0);
    let packets: Vec<PacketRecord> =
        TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect();
    println!("trace: {} packets over {horizon}", packets.len());

    // --- 1. two independent shard pipelines, as two processes would run.
    let shard_stream = |shard: usize, k: usize, format: WireFormat| -> Vec<u8> {
        let mine = packets.iter().copied().filter(|p| shard_of(&p.src, k) == shard);
        let (bytes, err) = Pipeline::new(mine)
            .engine(ShardedDisjoint::new(
                vec![ExactHhh::new(h)],
                horizon,
                window,
                &[threshold],
                |p| p.src,
            ))
            .sink(SnapshotSink::with_format(Vec::new(), format))
            .run();
        assert!(err.is_none());
        bytes
    };
    let streams = [shard_stream(0, 2, WireFormat::Json), shard_stream(1, 2, WireFormat::Json)];

    // --- 2. aggregate the two streams, compare with one process.
    let parsed: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, b)| read_stream(i, b.as_slice()).expect("own streams parse"))
        .collect();
    let merged = fold_streams(&h, parsed).expect("shard snapshots fold");

    let mut single = ExactHhh::new(h);
    let reference = Pipeline::new(packets.iter().copied())
        .engine(Disjoint::new(&mut single, horizon, window, &[threshold], |p| p.src))
        .collect()
        .run();

    println!("\nwindow  folded-HHHs  single-process-HHHs  identical");
    for (i, (point, reference)) in merged.iter().zip(&reference[0]).enumerate() {
        let folded = point.report(i as u64, threshold);
        println!(
            "{:>6}  {:>11}  {:>19}  {}",
            i,
            folded.len(),
            reference.len(),
            folded.hhhs == reference.hhhs
        );
        assert_eq!(folded.hhhs, reference.hhhs, "exact aggregation is lossless");
    }

    // --- 3. the binary (v2) wire format: `hhh-agg --format binary`
    // territory. The same shard written as length-prefixed frames is
    // smaller on the wire and decodes straight into detectors — and
    // folding a binary shard with a JSON shard lands on the identical
    // merged state (`read_stream` sniffs the format per stream).
    let shard0_v2 = shard_stream(0, 2, WireFormat::Binary);
    println!(
        "\nshard 0 wire size: {} B as v1 JSONL, {} B as v2 frames ({:.1}x smaller)",
        streams[0].len(),
        shard0_v2.len(),
        streams[0].len() as f64 / shard0_v2.len() as f64
    );
    let mixed = vec![
        read_stream(0, shard0_v2.as_slice()).expect("binary stream parses"),
        read_stream(1, streams[1].as_slice()).expect("json stream parses"),
    ];
    let merged_mixed = fold_streams(&h, mixed).expect("mixed-format shards fold");
    for (a, b) in merged.iter().zip(&merged_mixed) {
        assert_eq!(
            a.detector.snapshot().to_json(),
            b.detector.snapshot().to_json(),
            "binary and JSON shards must fold to the identical merged state"
        );
    }
    println!("binary + JSON shards folded to the byte-identical merged state");

    // --- 4. the same shards over a live transport: each pipeline
    // streams v2 frames encoded straight from detector state (no JSON
    // on the shard side) over localhost TCP into a daemon, which folds
    // them in hello-id order. `aggd-shard --connect` and `hhh-aggd` run
    // exactly this across real processes and hosts.
    let daemon = spawn_daemon(DaemonConfig::default()).expect("bind ephemeral localhost ports");
    let addr = daemon.frame_addr.to_string();
    std::thread::scope(|s| {
        for shard in 0..2usize {
            let addr = addr.clone();
            let packets = &packets;
            s.spawn(move || {
                let mine = packets.iter().copied().filter(|p| shard_of(&p.src, 2) == shard);
                let transport = TcpTransport::connect(addr).with_hello(shard as u64, "example");
                let (_t, err) = Pipeline::new(mine)
                    .engine(ShardedDisjoint::new(
                        vec![ExactHhh::new(h)],
                        horizon,
                        window,
                        &[threshold],
                        |p| p.src,
                    ))
                    .sink(TransportSink::new(transport))
                    .run();
                assert!(err.is_none(), "localhost TCP writes succeed: {err:?}");
            });
        }
    });
    // Each v1 line is one frame on the wire: wait until the daemon has
    // folded every one, then ask it once.
    let lines = |stream: &[u8]| stream.iter().filter(|&&b| b == b'\n').count() as u64;
    let want = [(0, lines(&streams[0])), (1, lines(&streams[1]))];
    let deadline = Instant::now() + Duration::from_secs(60);
    while !daemon.registry.settled(&want) {
        assert!(Instant::now() < deadline, "the daemon never received every frame");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) =
        http_get(&daemon.http_addr.to_string(), "/hhh?all=1&state=1").expect("GET /hhh");
    let file_fold = render_merged(&merged, &[threshold], true).join("\n") + "\n";
    assert_eq!((status, body), (200, file_fold.into_bytes()), "the daemon serves the file fold");
    println!(
        "2 shard pipelines -> TCP {addr} -> hhh-aggd: GET /hhh?all=1&state=1 is byte-identical \
         to the file fold ({} report points)",
        merged.len()
    );
}
