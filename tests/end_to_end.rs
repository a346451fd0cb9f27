//! End-to-end pipeline tests: generation → capture I/O → window
//! analysis → metrics, across crate boundaries.

use hidden_hhh::analysis::hidden::hidden_hhh;
use hidden_hhh::pcap::{PcapReader, PcapWriter};
use hidden_hhh::prelude::*;

fn small_day(seed: u64) -> Vec<PacketRecord> {
    let model = scenarios::day_trace(0, TimeSpan::from_secs(30));
    TraceGenerator::new(model, seed).collect()
}

#[test]
fn generation_is_deterministic_end_to_end() {
    let a = small_day(11);
    let b = small_day(11);
    assert_eq!(a, b, "same (model, seed) must give identical traces");
    let c = small_day(12);
    assert_ne!(a, c);
}

#[test]
fn pcap_pipeline_preserves_hhh_answers() {
    // The HHH report computed from records that went through a pcap
    // file must equal the report from the original records.
    let pkts = small_day(3);

    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf).unwrap();
    w.write_all_records(&pkts).unwrap();
    w.flush().unwrap();
    let mut r = PcapReader::new(&buf[..]).unwrap();
    let back = r.read_all_records().unwrap();
    assert_eq!(back.len(), pkts.len());

    let h = Ipv4Hierarchy::bytes();
    let report = |records: &[PacketRecord]| {
        let mut d = ExactHhh::new(h);
        for p in records {
            HhhDetector::<Ipv4Hierarchy>::observe(&mut d, p.src, p.wire_len as u64);
        }
        d.report(Threshold::percent(5.0))
    };
    // wire_len can grow to header size for tiny packets; the generator
    // never emits sub-42-byte packets, so reports must match exactly.
    assert_eq!(report(&pkts), report(&back));
}

#[test]
fn hidden_hhhs_exist_and_are_burst_driven() {
    // The headline phenomenon must show up on a bursty trace and
    // (nearly) vanish on the stable control scenario.
    let horizon = TimeSpan::from_secs(90);
    let window = TimeSpan::from_secs(5);
    let step = TimeSpan::from_secs(1);
    let t = Threshold::percent(1.0);
    let h = Ipv4Hierarchy::bytes();

    let run = |packets: Box<dyn Iterator<Item = PacketRecord>>| {
        let sliding = Pipeline::new(packets)
            .engine(SlidingExact::new(&h, horizon, window, step, &[t], |p| p.src))
            .collect()
            .run()
            .remove(0);
        let epw = window / step;
        let disjoint: Vec<_> = sliding.iter().filter(|r| r.index % epw == 0).cloned().collect();
        hidden_hhh(&sliding, &disjoint)
    };

    let bursty = run(Box::new(TraceGenerator::new(
        scenarios::day_trace(0, horizon),
        scenarios::day_seed(0),
    )));
    let stable = run(Box::new(TraceGenerator::new(scenarios::stable(horizon), 5)));

    assert!(
        bursty.hidden_fraction > 0.02,
        "bursty trace shows no hidden HHHs: {:?}",
        bursty.hidden_fraction
    );
    assert!(
        stable.hidden_fraction < bursty.hidden_fraction,
        "stable control ({}) should hide fewer HHHs than the bursty trace ({})",
        stable.hidden_fraction,
        bursty.hidden_fraction
    );
}

#[test]
fn windowless_detector_sees_what_disjoint_windows_hide() {
    // Build a stream with one engineered burst straddling a window
    // boundary, plus steady background. The disjoint windows at the
    // burst's threshold must miss it; the TDBF detector probed just
    // after the burst must report it. This is the paper's Figure 1b
    // story as an executable assertion.
    let window = TimeSpan::from_secs(10);
    let horizon = TimeSpan::from_secs(30);
    let burster: u32 = 0x4D4D_4D4D; // 77.77.77.77
    let mut pkts: Vec<PacketRecord> = Vec::new();
    let mut t = Nanos::ZERO;
    // Background: 40 sources × 100 B / 10 ms = 400 kB/s.
    while t < Nanos::ZERO + horizon {
        for s in 0..40u32 {
            pkts.push(PacketRecord::new(t, ((s % 37) << 24) | (0xBB00 + s), 1, 100));
        }
        // Burst: [9 s, 11 s) at 400 kB/s — 44% of the traffic during
        // its two seconds, ~8% of either 10 s window.
        if t >= Nanos::from_secs(9) && t < Nanos::from_secs(11) {
            pkts.push(PacketRecord::new(t, burster, 1, 4000));
        }
        t += TimeSpan::from_millis(10);
    }

    let h = Ipv4Hierarchy::bytes();
    let threshold = Threshold::percent(10.0);

    // Disjoint: never sees it.
    let mut exact = ExactHhh::new(h);
    let disjoint = Pipeline::new(pkts.iter().copied())
        .engine(Disjoint::new(&mut exact, horizon, window, &[threshold], |p| p.src))
        .collect()
        .run()
        .remove(0);
    let burst_prefix = Ipv4Prefix::host(burster);
    assert!(
        disjoint.iter().all(|r| !r.prefix_set().contains(&burst_prefix)),
        "burst should be diluted below 10% in every disjoint window"
    );

    // Windowless: sees it right after the burst.
    let mut tdbf =
        TdbfHhh::new(h, TdbfHhhConfig { half_life: window / 2, ..TdbfHhhConfig::default() });
    let probes = [Nanos::from_millis(11_200)];
    let reports = Pipeline::new(pkts.iter().copied())
        .engine(Continuous::new(&mut tdbf, &probes, threshold, |p| p.src))
        .collect()
        .run()
        .remove(0);
    assert!(
        reports[0].prefix_set().contains(&burst_prefix),
        "windowless detector missed the boundary-straddling burst: {:?}",
        reports[0].hhhs
    );
}
