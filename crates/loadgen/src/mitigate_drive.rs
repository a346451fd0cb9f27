//! The mitigation closed loop: the same real topology as [`crate::drive`]
//! (shard pipelines → socket transport → live `hhh-aggd`), but with the
//! control plane closed — every packet passes a
//! [`RuleFilter`]/[`TableGate`] stage fed by a [`PolicyEngine`] that
//! ingests the daemon's own `/hhh` answers, so a rule fired from window
//! *w*'s report drops window *w+1*'s packets. The engine lives here,
//! beside the gate that reads its table and renews its rules with the
//! gate's drops; the daemon only folds and serves.
//!
//! The loop is **window-synchronous**, which is what makes the scores
//! deterministic in trace time: for each report window the driver
//!
//! 1. filters the window's packets through the gate (harvesting the
//!    attack/legit drop totals the previous windows' rules caused),
//! 2. ships the survivors to the per-shard feeders and closes the
//!    window with a zero-weight tick packet at the window boundary,
//! 3. waits until every shard stream has delivered the window's two
//!    frames (report + state) *and* the fold has gone clean,
//! 4. fetches `/hhh` and ingests the new window into the policy
//!    engine — whose rule table the gate consults next iteration.
//!
//! Scoring classes every offered/dropped byte against the scenario's
//! planted ground truth: attack bytes dropped is the mitigation doing
//! its job, legit bytes dropped is collateral damage, and
//! time-to-mitigate is trace time from the earliest planted onset to
//! the first planted-covering rule fire.

use crate::drive::{DriveOptions, Target};
use crate::scenario::Scenario;
use crate::score::{metric_value, stream_metric_value, MitigateKindScore};
use hhh_aggd::scenario::{shard_label, shard_packets, stream_id, Kind, DISTAGG_WINDOW};
use hhh_mitigate::{parse_policy_windows, GateTotals, PolicyConfig, PolicyEngine, TableGate};
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord};
use hhh_window::source::{bounded, Source};
use hhh_window::{http_get, RuleFilter, TcpTransport, TransportSink};
use std::time::Instant;

/// One scenario's mitigation run across the requested kinds.
pub struct MitigateRun {
    /// Per-kind closed-loop scores, in `opts.kinds` order.
    pub kinds: Vec<MitigateKindScore>,
}

/// Drive `scenario` through the mitigation closed loop, one detector
/// kind at a time. Spawns a fresh in-process daemon per kind unless
/// `opts.external` points at a running one.
pub fn run_mitigate_scenario(
    scenario: &Scenario,
    opts: &DriveOptions,
    policy: &PolicyConfig,
) -> Result<MitigateRun, String> {
    let n_windows = (scenario.horizon / DISTAGG_WINDOW) as usize;
    if n_windows == 0 {
        return Err("scenario shorter than one report window".into());
    }
    // Partition the trace by report window once; the per-kind loops
    // re-filter (rules differ per kind) but never re-sort.
    let mut by_window: Vec<Vec<PacketRecord>> = vec![Vec::new(); n_windows];
    for p in &scenario.packets {
        let w = (p.ts.as_nanos() / DISTAGG_WINDOW.as_nanos()) as usize;
        if let Some(bin) = by_window.get_mut(w) {
            bin.push(*p);
        }
    }
    let truth: Vec<Ipv4Prefix> = scenario.truth.planted.iter().map(|p| p.prefix).collect();
    let mut kinds = Vec::new();
    for &kind in &opts.kinds {
        kinds.push(drive_kind(scenario, &by_window, kind, opts, policy, &truth)?);
    }
    Ok(MitigateRun { kinds })
}

/// Does `prefix` cover or sit inside any planted prefix?
fn covers_planted(truth: &[Ipv4Prefix], prefix: Ipv4Prefix) -> bool {
    truth.iter().any(|t| t.contains(prefix) || prefix.contains(*t))
}

#[allow(clippy::too_many_lines)]
fn drive_kind(
    scenario: &Scenario,
    by_window: &[Vec<PacketRecord>],
    kind: Kind,
    opts: &DriveOptions,
    policy: &PolicyConfig,
    truth: &[Ipv4Prefix],
) -> Result<MitigateKindScore, String> {
    let (k, label, n_windows) = (opts.shards, kind.label(), by_window.len());
    let target = Target::acquire(opts)?;
    let http_addr = target.http_addr();
    let all_query = format!("/hhh?kind={label}&all=1&threshold={}", scenario.threshold_pct);

    let mut engine = PolicyEngine::new(policy.clone());
    let mut gate = Some(TableGate::new(engine.table()).with_truth(truth.to_vec()));

    // Long-lived feeders: the pipelines stay up across the whole run,
    // consuming window after window as the loop releases them.
    let mut feeders = Vec::with_capacity(k);
    let mut pipes = Vec::with_capacity(k);
    for shard in 0..k {
        let (feeder, source) = bounded(4, 1024);
        feeders.push(feeder);
        let (frame_addr, horizon) = (target.frame_addr(), scenario.horizon);
        pipes.push(std::thread::spawn(move || {
            let transport = TcpTransport::connect(&frame_addr)
                .with_hello(stream_id(kind, k, shard), shard_label(kind, k, shard));
            let (_t, err) = hhh_aggd::scenario::shard_source_into(
                kind,
                source,
                horizon,
                shard,
                TransportSink::new(transport),
            );
            err
        }));
    }

    let t0 = Instant::now();
    let mut window_totals: Vec<GateTotals> = Vec::with_capacity(n_windows);
    let mut ingested_through = Nanos::ZERO;
    let mut planted_fire: Option<(usize, Nanos, &'static str)> = None;
    let mut max_rules_active = 0u64;

    for (w, window) in by_window.iter().enumerate() {
        // 1. Filter this window through the gate: rules fired off
        // windows ≤ w-1 act on window w's packets.
        let mut filter = RuleFilter::new(window.iter().copied(), gate.take().expect("gate"));
        let mut survivors: Vec<PacketRecord> = Vec::with_capacity(window.len());
        while filter.pull_chunk(&mut survivors) {}
        let (_, mut g) = filter.into_parts();
        window_totals.push(g.take_totals());
        gate = Some(g);

        // 2. Ship the survivors; a zero-weight tick at the window
        // boundary makes every shard flush window w now rather than
        // whenever the next real packet happens to arrive.
        let window_end = Nanos::ZERO + DISTAGG_WINDOW * (w as u64 + 1);
        for (shard, feeder) in feeders.iter_mut().enumerate() {
            let sp = shard_packets(&survivors, k, shard);
            if !sp.is_empty() {
                feeder.send_batch(&sp);
            }
            feeder.send(PacketRecord::new(window_end, 0, 0, 0));
            feeder.flush();
        }
        if w + 1 == n_windows {
            // Horizon reached: close the channels so the pipelines
            // drain their trailing windows and hang up.
            feeders.clear();
        }

        // 3. Converge: each shard stream delivers two frames per
        // window (report + state), and the fold must have consumed
        // them (`aggd_points_dirty` back to zero) before `/hhh` can
        // answer for window w.
        let need = 2.0 * (w as f64 + 1.0);
        let deadline = Instant::now() + opts.converge_timeout;
        loop {
            let (code, body) = http_get(&http_addr, "/metrics")?;
            let body = String::from_utf8_lossy(&body);
            if code == 200 {
                let delivered = (0..k).all(|shard| {
                    stream_metric_value(&body, "aggd_stream_delivered", stream_id(kind, k, shard))
                        .is_some_and(|v| v >= need)
                });
                if delivered && metric_value(&body, "aggd_points_dirty") == Some(0.0) {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{label}: window {w} never converged ({need} frames/stream wanted)"
                ));
            }
            std::thread::sleep(opts.poll_interval);
        }

        // 4. Close the loop: ingest window w's report. Rules fired
        // here gate window w+1.
        let (code, body) = http_get(&http_addr, &all_query)?;
        if code != 200 {
            return Err(format!("{label}: GET {all_query} -> {code}"));
        }
        let reports = parse_policy_windows(&String::from_utf8_lossy(&body))
            .map_err(|e| format!("{label}: {e}"))?;
        let fired_before = engine.fired_log().len();
        let mark = ingested_through;
        for report in reports.iter().filter(|r| r.end > mark && r.end <= window_end) {
            ingested_through = ingested_through.max(report.end);
            engine.ingest(report);
        }
        for fired in &engine.fired_log()[fired_before..] {
            if std::env::var_os("LOADGEN_MITIGATE_LOG").is_some() {
                eprintln!(
                    "loadgen: {label} window {w}: fired {} {} (planted: {})",
                    fired.action.label(),
                    fired.prefix,
                    covers_planted(truth, fired.prefix),
                );
            }
            if planted_fire.is_none() && covers_planted(truth, fired.prefix) {
                planted_fire = Some((w, fired.at, fired.action.label()));
            }
        }
        max_rules_active = max_rules_active.max(engine.table().lock().unwrap().len() as u64);
    }

    for (shard, pipe) in pipes.into_iter().enumerate() {
        let err = pipe.join().map_err(|_| format!("{label} shard {shard}: pipeline panicked"))?;
        if let Some(e) = err {
            return Err(format!("{label} shard {shard}: transport: {e}"));
        }
    }
    let drive_seconds = t0.elapsed().as_secs_f64();

    if let Target::Spawned(handle) = target {
        handle.shutdown();
    }

    let mut sum = GateTotals::default();
    for t in &window_totals {
        sum.absorb(*t);
    }
    let (mut post_offered, mut post_dropped) = (0u64, 0u64);
    if let Some((fire_w, _, _)) = planted_fire {
        for t in &window_totals[fire_w + 1..] {
            post_offered += t.attack_offered_bytes;
            post_dropped += t.attack_dropped_bytes;
        }
    }
    let time_to_mitigate = planted_fire.map(|(_, at, _)| {
        let onset = scenario.truth.planted.iter().map(|p| p.onset).min().unwrap_or(Nanos::ZERO);
        (at - onset).as_secs_f64()
    });
    let stats = engine.stats();
    let table = engine.table();
    let table = table.lock().unwrap();

    Ok(MitigateKindScore {
        kind: label,
        shards: k,
        windows: n_windows,
        attack_offered_bytes: sum.attack_offered_bytes,
        attack_dropped_bytes: sum.attack_dropped_bytes,
        legit_offered_bytes: sum.legit_offered_bytes,
        legit_dropped_bytes: sum.legit_dropped_bytes,
        post_rule_attack_offered: post_offered,
        post_rule_attack_dropped: post_dropped,
        time_to_mitigate,
        mitigated: planted_fire.is_some(),
        first_rule_action: planted_fire.map(|(_, _, action)| action),
        rules_fired: stats.fired,
        rules_expired: stats.expired,
        rule_churn: table.churn(),
        max_rules_active,
        packets: sum.packets_offered,
        packets_dropped: sum.packets_dropped,
        drive_seconds,
    })
}
