//! The window engines themselves: what does each window model cost per
//! packet, independent of any approximate detector?

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hhh_bench::fixture;
use hhh_core::{ExactHhh, HhhDetector, MementoHhh, SpaceSavingHhh, Threshold};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::TimeSpan;
use hhh_window::geometry;
use hhh_window::{Disjoint, Pipeline, ShardedSliding, SlidingExact};
use std::hint::black_box;

fn bench_windows(c: &mut Criterion) {
    let horizon_s = 20u64;
    let pkts = fixture(horizon_s);
    let horizon = TimeSpan::from_secs(horizon_s);
    let window = TimeSpan::from_secs(5);
    let t = [Threshold::percent(5.0)];
    let h = Ipv4Hierarchy::bytes();

    let mut g = c.benchmark_group("window_engines");
    g.sample_size(10);
    g.throughput(Throughput::Elements(pkts.len() as u64));

    g.bench_function("disjoint_exact", |b| {
        b.iter(|| {
            let mut det = ExactHhh::new(h);
            black_box(
                Pipeline::new(pkts.iter().copied())
                    .engine(Disjoint::new(&mut det, horizon, window, &t, |p| p.src))
                    .collect()
                    .run(),
            )
        })
    });

    for step_s in [1u64, 5] {
        g.bench_function(format!("sliding_exact_step{step_s}s"), |b| {
            b.iter(|| {
                black_box(
                    Pipeline::new(pkts.iter().copied())
                        .engine(SlidingExact::new(
                            &h,
                            horizon,
                            window,
                            TimeSpan::from_secs(step_s),
                            &t,
                            |p| p.src,
                        ))
                        .collect()
                        .run(),
                )
            })
        });
    }
    g.finish();

    // The sliding-window pkts/s scoreboard (criterion leg of the
    // `scale -- sliding` experiment): per-position cost of the sharded
    // sliding engine on a retractable kind (rolling window state) and
    // a non-retractable one (slot-order ring merge), plus the
    // window-native detector that pays no merges at all.
    let step = TimeSpan::from_millis(500);
    let mut g = c.benchmark_group("sliding_scoreboard");
    g.sample_size(10);
    g.throughput(Throughput::Elements(pkts.len() as u64));

    g.bench_function("exact_incr_k2", |b| {
        b.iter(|| {
            black_box(
                Pipeline::new(pkts.iter().copied())
                    .engine(ShardedSliding::new(
                        2,
                        |_| ExactHhh::new(h),
                        horizon,
                        window,
                        step,
                        &t,
                        |p| p.src,
                    ))
                    .collect()
                    .run(),
            )
        })
    });
    g.bench_function("ss_hhh_ring_k1", |b| {
        b.iter(|| {
            black_box(
                Pipeline::new(pkts.iter().copied())
                    .engine(ShardedSliding::new(
                        1,
                        |_| SpaceSavingHhh::new(h, 512),
                        horizon,
                        window,
                        step,
                        &t,
                        |p| p.src,
                    ))
                    .collect()
                    .run(),
            )
        })
    });
    g.bench_function("memento_native", |b| {
        // Window-native: batched ingest plus one report per step
        // position — no engine, no merges; the window slides inside
        // the detector.
        let epw = window / step;
        let n_epochs = TimeSpan::from_secs(horizon_s) / step;
        let window_pkts = pkts.len() * 5 / horizon_s as usize;
        b.iter(|| {
            let mut det = MementoHhh::new(h, window_pkts, 10, 512);
            let mut pending: Vec<(u32, u64)> = Vec::with_capacity(8192);
            let mut cur_epoch = 0u64;
            let mut reports = 0usize;
            for p in pkts.iter() {
                let e = p.ts.bin_index(step);
                if e >= n_epochs {
                    break;
                }
                while cur_epoch < e {
                    if !pending.is_empty() {
                        det.observe_batch(&pending);
                        pending.clear();
                    }
                    if cur_epoch + 1 >= epw {
                        reports += det.report(t[0]).len();
                    }
                    cur_epoch += 1;
                }
                pending.push((p.src, p.wire_len as u64));
                if pending.len() >= 8192 {
                    det.observe_batch(&pending);
                    pending.clear();
                }
            }
            black_box(reports)
        })
    });
    g.finish();

    // Pure geometry (should be trivially cheap; regression canary).
    let mut g = c.benchmark_group("window_geometry");
    g.bench_function("schedules", |b| {
        b.iter(|| {
            let d = geometry::disjoint(TimeSpan::from_secs(3600), TimeSpan::from_secs(5));
            let s = geometry::sliding(
                TimeSpan::from_secs(3600),
                TimeSpan::from_secs(5),
                TimeSpan::from_secs(1),
            );
            let m = geometry::microvaried(
                TimeSpan::from_secs(3600),
                TimeSpan::from_secs(10),
                TimeSpan::from_millis(100),
            );
            black_box((d.len(), s.len(), m.len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_windows);
criterion_main!(benches);
