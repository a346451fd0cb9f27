//! Where a packet stream is cut into chunks never changes a gate
//! verdict. A smoke-length `ddos-flood` runs the detect-decide-drop
//! loop in-process: each window passes a `RuleFilter` over the shared
//! rule table, an exact report of its survivors feeds the policy
//! engine, and the rules fired gate the next window. A rate-limit rule
//! on the heaviest legitimate /16 is installed up front, so the token
//! bucket runs from the first packet. The loop is run three times,
//! from sources that hand out 1, 7 and 8192 packets per pull, and
//! every outcome must agree.

use hhh_aggd::scenario::{distagg_threshold, hierarchy, DISTAGG_WINDOW};
use hhh_core::{ExactHhh, HhhDetector};
use hhh_loadgen::scenario::ddos_flood;
use hhh_mitigate::{Action, GateTotals, PolicyConfig, PolicyEngine, Rule, TableGate};
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::{RuleFilter, Source, WindowReport};
use std::collections::BTreeMap;

/// The smoke scale's horizon: four report windows.
const HORIZON: TimeSpan = TimeSpan::from_secs(20);

/// A source that hands out `chunk` packets per pull.
struct Chunked<'a> {
    packets: &'a [PacketRecord],
    chunk: usize,
}

impl Source for Chunked<'_> {
    type Item = PacketRecord;

    fn pull_chunk(&mut self, buf: &mut Vec<PacketRecord>) -> bool {
        let (head, rest) = self.packets.split_at(self.chunk.min(self.packets.len()));
        buf.extend_from_slice(head);
        self.packets = rest;
        !head.is_empty()
    }
}

/// A rule's identity and its data-plane and renewal counters.
type RuleState = (Ipv4Prefix, Action, u64, u64, u64);

/// Everything one run of the loop decided, window by window.
struct Run {
    survivors: Vec<Vec<PacketRecord>>,
    totals: Vec<GateTotals>,
    /// Every installed rule after each window's ingest.
    rules: Vec<Vec<RuleState>>,
    fired: usize,
}

fn drive(windows: &[Vec<PacketRecord>], truth: &[Ipv4Prefix], limit: &Rule, chunk: usize) -> Run {
    // One warmup window and one-window hysteresis, so the flood that
    // starts in window 1 draws a rule that gates windows 2 and 3.
    let mut engine = PolicyEngine::new(PolicyConfig {
        warmup_windows: 1,
        hysteresis: 1,
        ..PolicyConfig::default()
    });
    let table = engine.table();
    assert!(table.lock().unwrap().insert(limit.clone()));
    let mut gate = Some(TableGate::new(engine.table()).with_truth(truth.to_vec()));
    let mut run = Run { survivors: Vec::new(), totals: Vec::new(), rules: Vec::new(), fired: 0 };
    for (w, window) in windows.iter().enumerate() {
        let mut filter = RuleFilter::new(Chunked { packets: window, chunk }, gate.take().unwrap());
        let (mut survivors, mut buf) = (Vec::new(), Vec::new());
        while filter.pull_chunk(&mut buf) {
            survivors.append(&mut buf);
        }
        let (_, mut g) = filter.into_parts();
        run.totals.push(g.take_totals());
        gate = Some(g);

        let mut exact = ExactHhh::new(hierarchy());
        for p in &survivors {
            exact.observe(p.src, u64::from(p.wire_len));
        }
        let start = Nanos::ZERO + DISTAGG_WINDOW * w as u64;
        engine.ingest(&WindowReport {
            index: w as u64,
            start,
            end: start + DISTAGG_WINDOW,
            total: exact.total(),
            hhhs: exact.report(distagg_threshold()),
        });
        run.rules.push(
            table
                .lock()
                .unwrap()
                .iter()
                .map(|r| (r.prefix, r.action, r.dropped_bytes, r.dropped_packets, r.renewals))
                .collect(),
        );
        run.survivors.push(survivors);
    }
    run.fired = engine.fired_log().len();
    run
}

#[test]
fn chunk_boundaries_never_change_a_verdict() {
    let scenario = ddos_flood(HORIZON, 61);
    let truth: Vec<Ipv4Prefix> = scenario.truth.planted.iter().map(|p| p.prefix).collect();
    let mut windows: Vec<Vec<PacketRecord>> = vec![Vec::new(); (HORIZON / DISTAGG_WINDOW) as usize];
    let mut by_net: BTreeMap<Ipv4Prefix, u64> = BTreeMap::new();
    for p in &scenario.packets {
        if let Some(window) = windows.get_mut(p.ts.bin_index(DISTAGG_WINDOW) as usize) {
            window.push(*p);
        }
        *by_net.entry(Ipv4Prefix::new(p.src, 16)).or_default() += u64::from(p.wire_len);
    }
    // Limit the heaviest legitimate /16 to a quarter of its mean rate.
    let (net, bytes) = by_net
        .into_iter()
        .filter(|(net, _)| !truth.iter().any(|t| t.contains(*net)))
        .max_by_key(|&(_, bytes)| bytes)
        .expect("legitimate traffic");
    let bps = bytes * 8 / HORIZON.as_secs() / 4;
    let limit =
        Rule::new(net, Action::RateLimit { bps }, Nanos::ZERO, Nanos::ZERO + HORIZON, bytes as f64);

    let reference = drive(&windows, &truth, &limit, 8192);
    let limited = reference.rules.last().unwrap().iter().find(|r| r.0 == net).expect("limit kept");
    assert!(limited.3 > 0, "the limiter never dropped a packet");
    assert!(
        reference.survivors.iter().flatten().any(|p| net.contains_addr(p.src)),
        "the limiter never admitted a packet"
    );
    assert!(reference.fired > 0, "the policy engine never fired a rule");
    assert!(
        reference.totals.iter().any(|t| t.attack_dropped_bytes > 0),
        "no rule ever dropped flood bytes"
    );

    for chunk in [1, 7] {
        let run = drive(&windows, &truth, &limit, chunk);
        for w in 0..windows.len() {
            assert!(
                run.survivors[w] == reference.survivors[w],
                "chunks of {chunk}: window {w}'s survivors differ"
            );
            assert_eq!(run.totals[w], reference.totals[w], "chunks of {chunk}: window {w}");
            assert_eq!(run.rules[w], reference.rules[w], "chunks of {chunk}: window {w}");
        }
        assert_eq!(run.fired, reference.fired, "chunks of {chunk}");
    }
}
