//! Transport-layer contract: **a frame on a socket is the same bytes
//! as a frame in a file.**
//!
//! * the identical pipeline run writes the identical frame sequence
//!   through `SnapshotSink` (bytes) and `TransportSink` over localhost
//!   TCP;
//! * the path-based `SnapshotSink::create` / `SnapshotSource::open`
//!   constructors round-trip through a real file;
//! * torn/short streams fail with typed errors — the byte-mutation
//!   fuzz from the codec corpus, extended to the frame reader every
//!   medium shares (`read_frame_from`): mutated or truncated frame
//!   streams never panic, hang, or drive unbounded allocations.

use hidden_hhh::agg::fold_streams;
use hidden_hhh::core::snapshot::binary::SnapshotFrame;
use hidden_hhh::core::{DetectorSnapshot, WireFormat, WireSnapshot};
use hidden_hhh::prelude::*;
use hidden_hhh::window::{
    read_frame_from, CollectLimits, FrameHub, FrameWrite, SnapshotSink, SnapshotSource,
    TcpTransport, TransportError, TransportSink,
};
use proptest::prelude::*;

fn h() -> Ipv4Hierarchy {
    Ipv4Hierarchy::bytes()
}

fn trace(secs: u64) -> Vec<PacketRecord> {
    let horizon = TimeSpan::from_secs(secs);
    TraceGenerator::new(scenarios::day_trace(0, horizon), scenarios::day_seed(0)).collect()
}

/// The reference: the pipeline's binary snapshot stream as
/// `SnapshotSink` writes it to a byte buffer (file semantics).
fn file_bytes(packets: &[PacketRecord], horizon: TimeSpan) -> Vec<u8> {
    let (bytes, err) = Pipeline::new(packets.iter().copied())
        .engine(ShardedDisjoint::new(
            vec![ExactHhh::new(h()); 2],
            horizon,
            TimeSpan::from_secs(5),
            &[Threshold::percent(1.0)],
            |p| p.src,
        ))
        .sink(SnapshotSink::binary(Vec::new()))
        .run();
    assert!(err.is_none());
    bytes
}

/// The same pipeline through an arbitrary frame transport.
fn run_through<T: FrameWrite>(
    packets: &[PacketRecord],
    horizon: TimeSpan,
    transport: T,
) -> (T, Option<TransportError>) {
    Pipeline::new(packets.iter().copied())
        .engine(ShardedDisjoint::new(
            vec![ExactHhh::new(h()); 2],
            horizon,
            TimeSpan::from_secs(5),
            &[Threshold::percent(1.0)],
            |p| p.src,
        ))
        .sink(TransportSink::new(transport))
        .run()
}

#[test]
fn tcp_transport_carries_the_file_bytes() {
    let horizon = TimeSpan::from_secs(15);
    let packets = trace(15);
    let reference = file_bytes(&packets, horizon);

    let hub = FrameHub::bind("127.0.0.1:0").unwrap();
    let addr = hub.local_addr().unwrap().to_string();
    let producer = std::thread::spawn({
        let packets = packets.clone();
        move || {
            let transport = TcpTransport::connect(addr).with_hello(0, "pipeline");
            let (_t, err) = run_through(&packets, horizon, transport);
            assert!(err.is_none(), "{err:?}");
        }
    });
    let limits =
        CollectLimits { timeout: Some(std::time::Duration::from_secs(120)), ..Default::default() };
    let streams = hub.collect_streams(1, limits).unwrap();
    producer.join().unwrap();
    assert_eq!(streams.len(), 1);
    let streamed: Vec<u8> = streams[0].frames.iter().flat_map(SnapshotFrame::encode).collect();
    assert_eq!(streamed, reference, "a frame on a socket is the same bytes as in a file");
}

#[test]
fn path_constructors_roundtrip_through_a_real_file() {
    let horizon = TimeSpan::from_secs(10);
    let packets = trace(10);
    let dir = std::env::temp_dir().join(format!("hhh-transport-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.hhf2");

    let sink = SnapshotSink::create(&path, WireFormat::Binary).unwrap();
    let (_out, err) = Pipeline::new(packets.iter().copied())
        .engine(ShardedDisjoint::new(
            vec![ExactHhh::new(h()); 2],
            horizon,
            TimeSpan::from_secs(5),
            &[Threshold::percent(1.0)],
            |p| p.src,
        ))
        .sink(sink)
        .run();
    assert!(err.is_none(), "{err:?}");

    let mut source = SnapshotSource::open(&path).unwrap();
    let snaps: Vec<WireSnapshot> = (&mut source).collect();
    assert!(source.error().is_none(), "{:?}", source.error());
    assert_eq!(snaps.len(), 2, "one state per 5 s window");
    let points = fold_streams(&h(), vec![snaps]).unwrap();
    assert_eq!(points.len(), 2);

    // And the frame reader sees the identical frames.
    let mut reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let mut frames = 0usize;
    while read_frame_from(&mut reader).expect("file frames decode").is_some() {
        frames += 1;
    }
    assert!(frames >= 4, "reports + states all frame-decode, got {frames}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small valid frame stream to mutate: two state frames and a report
/// frame, as a writer would produce.
fn valid_stream() -> Vec<u8> {
    let snap = |total: u64| DetectorSnapshot {
        kind: "exact".into(),
        total,
        state_json: format!("{{\"counts\":[[\"7\",{total}]]}}"),
    };
    let mut out = Vec::new();
    out.extend_from_slice(&snap(10).to_frame(Nanos::ZERO, Nanos::from_secs(1)).unwrap().encode());
    out.extend_from_slice(
        &SnapshotFrame::report(
            "{\"type\":\"report\",\"series\":0,\"index\":0,\"start_ns\":0,\"end_ns\":1,\
             \"total\":10,\"hhhs\":[]}",
            Nanos::ZERO,
            Nanos::from_secs(1),
            10,
        )
        .encode(),
    );
    out.extend_from_slice(
        &snap(20).to_frame(Nanos::from_secs(1), Nanos::from_secs(2)).unwrap().encode(),
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte-mutation fuzz, extended to the transport framing: any
    /// single-byte corruption of a valid frame stream read through the
    /// frame reader terminates with frames and/or one typed error —
    /// never a panic or a hang.
    #[test]
    fn mutated_streams_fail_typed_through_transports(
        pos in 0usize..1024,
        byte in 0u8..=255,
    ) {
        let mut bytes = valid_stream();
        let pos = pos % bytes.len();
        bytes[pos] ^= byte;
        let mut reader = std::io::Cursor::new(bytes);
        let mut frames = 0usize;
        loop {
            match read_frame_from(&mut reader) {
                Ok(Some(_)) => frames += 1,
                Ok(None) => break,
                Err(e) => {
                    // Typed, displayable, and (for framing errors)
                    // chained to the SnapshotError.
                    let _ = e.to_string();
                    prop_assert!(matches!(
                        e,
                        TransportError::Frame(_) | TransportError::Io { .. }
                    ));
                    break;
                }
            }
            prop_assert!(frames <= 3, "a 3-frame stream cannot yield more frames");
        }
    }

    /// Truncation fuzz: cutting a valid stream anywhere yields whole
    /// frames up to the cut and then a clean end or one typed
    /// truncation error.
    #[test]
    fn truncated_streams_fail_typed_through_transports(cut in 0usize..1024) {
        let mut bytes = valid_stream();
        let cut = cut % (bytes.len() + 1);
        let at_boundary = {
            // Frame boundaries of the 3-frame stream.
            let mut ends = vec![0usize];
            let mut off = 0usize;
            while off < bytes.len() {
                let (_, used) = SnapshotFrame::decode(&bytes[off..]).unwrap();
                off += used;
                ends.push(off);
            }
            ends.contains(&cut)
        };
        bytes.truncate(cut);
        let mut reader = std::io::Cursor::new(bytes);
        let outcome = loop {
            match read_frame_from(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        if at_boundary {
            prop_assert!(outcome.is_ok(), "cut at a frame boundary is a clean end");
        } else {
            let e = outcome.expect_err("mid-frame cut must error");
            prop_assert!(
                matches!(e, TransportError::Frame(_)),
                "mid-frame cut must be a framing error, got {e:?}"
            );
        }
    }
}
