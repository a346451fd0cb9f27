//! Shard-then-merge equals (or tracks) the single detector: the
//! correctness contract of the batched, mergeable ingestion pipeline,
//! checked on realistic generated traffic.
//!
//! * Exact detectors: *identical* — totals, HHH sets, estimates — for
//!   any shard count, including on a million-packet trace.
//! * Space-Saving: perfect recall of true HHHs, estimates within the
//!   additive merge error `N/capacity`.
//! * RHHH: every comfortable (≥ 2× threshold) true HHH survives the
//!   shard/merge path.

use hidden_hhh::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

fn day(day_idx: usize, secs: u64, seed: u64) -> Vec<PacketRecord> {
    TraceGenerator::new(scenarios::day_trace(day_idx, TimeSpan::from_secs(secs)), seed).collect()
}

#[test]
fn exact_shard_merge_identical_on_million_packet_trace() {
    // The acceptance case: K = 4 shards over ≥ 1M packets, reports
    // bit-identical to the single-detector disjoint driver.
    let pkts = day(0, 60, scenarios::day_seed(0));
    assert!(pkts.len() >= 1_000_000, "trace too small: {} packets", pkts.len());
    let h = Ipv4Hierarchy::bytes();
    let horizon = TimeSpan::from_secs(60);
    let window = TimeSpan::from_secs(5);
    let thresholds = [Threshold::percent(1.0), Threshold::percent(5.0)];

    let mut single = ExactHhh::new(h);
    let reference = Pipeline::new(pkts.iter().copied())
        .engine(Disjoint::new(&mut single, horizon, window, &thresholds, |p| p.src))
        .collect()
        .run();
    let detectors: Vec<_> = (0..4).map(|_| ExactHhh::new(h)).collect();
    let sharded = Pipeline::new(pkts.iter().copied())
        .engine(
            ShardedDisjoint::new(detectors, horizon, window, &thresholds, |p| p.src).batch(8192),
        )
        .collect()
        .run();
    assert_eq!(reference, sharded, "sharded exact run must be lossless");
}

#[test]
fn ss_hhh_shard_merge_recall_and_error_within_bounds() {
    let pkts = day(1, 20, scenarios::day_seed(1));
    let h = Ipv4Hierarchy::bytes();
    let t = Threshold::percent(2.0);
    let capacity = 512;

    let mut exact = ExactHhh::new(h);
    for p in &pkts {
        HhhDetector::<Ipv4Hierarchy>::observe(&mut exact, p.src, p.wire_len as u64);
    }
    let truth = exact.report(t);
    let n = HhhDetector::<Ipv4Hierarchy>::total(&exact);

    let detectors = (0..4).map(|_| SpaceSavingHhh::new(h, capacity)).collect();
    let merged = with_shards(detectors, 8192, |pool| {
        for p in &pkts {
            pool.push((p.src, p.wire_len as u64));
        }
        pool.merged()
    });
    assert_eq!(merged.total(), n);
    let found: HashSet<_> = merged.report(t).into_iter().map(|r| r.prefix).collect();
    for want in &truth {
        assert!(
            found.contains(&want.prefix),
            "shard/merge lost true HHH {} (discounted {})",
            want.prefix,
            want.discounted
        );
    }
    // Estimates stay within the additive merge error: each of the
    // log-many pairwise merges adds at most min_a + min_b ≤ N_parts /
    // capacity, so the total overshoot beyond plain Space-Saving error
    // is bounded by N / capacity (doubled here for slack).
    let eps = 2 * n / capacity as u64;
    for r in merged.report(t) {
        let true_count = exact.prefix_count(r.prefix);
        assert!(
            r.estimate >= true_count,
            "merged estimate {} understates truth {} for {}",
            r.estimate,
            true_count,
            r.prefix
        );
        assert!(
            r.estimate <= true_count + 2 * eps,
            "merged estimate {} overshoots truth {} beyond ε for {}",
            r.estimate,
            true_count,
            r.prefix
        );
    }
}

#[test]
fn rhhh_shard_merge_finds_comfortable_hhhs() {
    let pkts = day(2, 20, scenarios::day_seed(2));
    let h = Ipv4Hierarchy::bytes();
    let t = Threshold::percent(2.0);

    let mut exact = ExactHhh::new(h);
    for p in &pkts {
        HhhDetector::<Ipv4Hierarchy>::observe(&mut exact, p.src, p.wire_len as u64);
    }
    let t_abs = t.absolute(HhhDetector::<Ipv4Hierarchy>::total(&exact));

    let detectors = (0..4).map(|s| Rhhh::new(h, 512, 0xACE0 + s as u64)).collect();
    let merged = with_shards(detectors, 8192, |pool| {
        for p in &pkts {
            pool.push((p.src, p.wire_len as u64));
        }
        pool.merged()
    });
    let found: HashSet<_> = merged.report(t).into_iter().map(|r| r.prefix).collect();
    for want in exact.report(t).iter().filter(|r| r.discounted >= 2 * t_abs) {
        assert!(
            found.contains(&want.prefix),
            "sharded RHHH missed comfortable HHH {} (discounted {} vs T {})",
            want.prefix,
            want.discounted,
            t_abs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for *any* generated trace, seed, shard count and
    /// batch size, the exact detector's shard-then-merge pipeline is
    /// indistinguishable from the single detector.
    #[test]
    fn exact_shard_merge_identical_on_any_trace(
        seed in 0u64..1_000_000,
        day_idx in 0usize..4,
        shards in 1usize..8,
        batch in prop::sample::select(vec![64usize, 1021, 8192]),
    ) {
        let pkts = day(day_idx, 4, seed);
        let h = Ipv4Hierarchy::bytes();
        let horizon = TimeSpan::from_secs(4);
        let window = TimeSpan::from_secs(2);
        let thresholds = [Threshold::percent(5.0)];
        let mut single = ExactHhh::new(h);
        let reference = Pipeline::new(pkts.iter().copied())
            .engine(Disjoint::new(&mut single, horizon, window, &thresholds, |p| p.src))
            .collect().run();
        let detectors: Vec<_> = (0..shards).map(|_| ExactHhh::new(h)).collect();
        let sharded = Pipeline::new(pkts.iter().copied())
            .engine(ShardedDisjoint::new(detectors, horizon, window, &thresholds, |p| p.src)
                .batch(batch))
            .collect().run();
        prop_assert_eq!(reference, sharded);
    }
}
