//! The match-action programs must behave like their unconstrained
//! reference implementations on realistic traffic — the evidence that
//! the pipeline model's constraints don't change the algorithms.

use hidden_hhh::dataplane::programs::{DpHashPipe, DpTdbf};
use hidden_hhh::prelude::*;

fn traffic(secs: u64) -> Vec<PacketRecord> {
    TraceGenerator::new(scenarios::day_trace(2, TimeSpan::from_secs(secs)), 0xDA7A).collect()
}

#[test]
fn hashpipe_identical_on_real_traffic() {
    let pkts = traffic(10);
    let mut dp = DpHashPipe::new(4, 2048, 9);
    let mut reference = HashPipe::<u32>::new(4, 2048, 9);
    for p in &pkts {
        dp.observe(p.src, p.wire_len as u64).expect("discipline violation");
        reference.observe(p.src, p.wire_len as u64);
    }
    // Spot-check every distinct source in the trace.
    let sources: std::collections::HashSet<u32> = pkts.iter().map(|p| p.src).collect();
    for s in sources {
        assert_eq!(dp.estimate(s), reference.estimate(&s), "divergence for {s:#x}");
    }
    assert_eq!(dp.heavy_hitters(100_000), reference.heavy_hitters(100_000));
}

#[test]
fn dp_tdbf_tracks_reference_on_real_traffic() {
    let pkts = traffic(10);
    let rate = DecayRate::from_half_life(TimeSpan::from_secs(5));
    let mut dp = DpTdbf::new(8192, 4, rate, TimeSpan::from_millis(1), 9);
    let mut reference = OnDemandTdbf::<u32>::new(8192, 4, 9);
    let landmark = Landmark::new(rate, Nanos::ZERO);
    let mut last = Nanos::ZERO;
    for p in &pkts {
        dp.insert(p.src, p.wire_len as u64, p.ts).expect("discipline violation");
        reference.insert(&p.src, p.wire_len as f64 * landmark.growth(p.ts));
        last = p.ts;
    }
    // Every source whose decayed estimate is non-trivial must agree
    // within the integer quantization error.
    let sources: std::collections::HashSet<u32> = pkts.iter().map(|p| p.src).collect();
    let mut checked = 0;
    for s in sources {
        let float = reference.estimate(&s) * landmark.decay(last);
        if float > 10_000.0 {
            let fixed = dp.estimate(s, last);
            let rel = (fixed - float).abs() / float;
            assert!(rel < 0.05, "source {s:#x}: fixed {fixed} vs float {float} (rel {rel})");
            checked += 1;
        }
    }
    assert!(checked > 10, "too few non-trivial sources to be a meaningful check");
}

#[test]
fn pipeline_discipline_never_violated_on_long_runs() {
    // 300k packets of real traffic; any feed-forward or double-access
    // violation is a program bug and must surface as Err, not silently.
    let pkts = traffic(15);
    let mut dp = DpHashPipe::new(6, 512, 3);
    let rate = DecayRate::from_half_life(TimeSpan::from_secs(2));
    let mut bf = DpTdbf::new(1024, 5, rate, TimeSpan::from_millis(4), 3);
    for p in &pkts {
        dp.observe(p.src, p.wire_len as u64).expect("hashpipe violated the discipline");
        bf.insert(p.src, p.wire_len as u64, p.ts).expect("tdbf violated the discipline");
    }
    let r = dp.resources();
    assert!(r.max_register_accesses <= 6);
    let r = bf.resources();
    assert!(r.max_register_accesses <= 5);
}

#[test]
fn resource_reports_scale_with_configuration() {
    let small = DpHashPipe::new(2, 128, 0).resources();
    let large = DpHashPipe::new(8, 4096, 0).resources();
    assert!(large.sram_bits > small.sram_bits * 50);
    assert_eq!(small.stages, 2);
    assert_eq!(large.stages, 8);
    assert!(large.sram_kib() > small.sram_kib());
}
