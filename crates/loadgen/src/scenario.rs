//! Scenario synthesis: attack-over-baseline traffic mixes with
//! controllable hierarchy shape and **machine-readable planted ground
//! truth**.
//!
//! Every scenario is a legit baseline stream plus zero or more attack
//! streams, each attack confined to one prefix of the IPv4 byte
//! hierarchy (a /16 botnet, a /24 scanner block). The composer merges
//! the streams, then *measures* the ground truth on the merged trace —
//! planted bytes/packets/share are exact counts over the packets
//! actually driven, not the model's expectations — and runs the
//! whole-trace [`ExactHhh`] oracle at the scenario threshold, keeping
//! the legit-vs-attack byte split separate (the snippet-3 idiom: one
//! counter for everything, one for what the defender should find).
//!
//! Everything is deterministic given `(duration, seed)` — the same
//! scenario always plants the same bytes at the same prefixes.

use hhh_aggd::scenario::{distagg_threshold, hierarchy, DISTAGG_WINDOW};
use hhh_core::{ExactHhh, HhhDetector, Threshold};
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_trace::{
    merge_streams, scenarios, shift_stream, PacketSizeMix, TraceGenerator, TrafficModel,
};
use std::collections::BTreeSet;

/// Base seed of the suite (each scenario derives its own from it).
pub const SUITE_SEED: u64 = 0x10AD;

/// One planted attack aggregate, measured on the merged trace.
#[derive(Clone, Debug)]
pub struct Planted {
    /// The prefix the attack is confined to.
    pub prefix: Ipv4Prefix,
    /// When the attack's first packet can appear.
    pub onset: Nanos,
    /// Exact bytes under `prefix` in the merged trace.
    pub bytes: u64,
    /// Exact packets under `prefix` in the merged trace.
    pub packets: u64,
    /// `bytes` as a fraction of the trace's total bytes.
    pub share: f64,
}

/// What a scorer may compare detector output against.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    /// The planted attack aggregates (empty for pure-baseline mixes).
    pub planted: Vec<Planted>,
    /// The whole-trace [`ExactHhh`] oracle report at the scenario
    /// threshold.
    pub truth: BTreeSet<Ipv4Prefix>,
    /// Bytes from the baseline streams.
    pub legit_bytes: u64,
    /// Bytes from the attack streams.
    pub attack_bytes: u64,
    /// Merged trace totals.
    pub total_packets: u64,
    /// Merged trace total bytes.
    pub total_bytes: u64,
}

/// A ready-to-drive scenario: the merged packet stream plus its truth.
pub struct Scenario {
    /// Stable CLI / report name (`ddos-flood`…).
    pub name: &'static str,
    /// One-line description for tables and docs.
    pub summary: &'static str,
    /// The merged, time-sorted packet stream.
    pub packets: Vec<PacketRecord>,
    /// Trace horizon (the pipelines' window schedule spans it).
    pub horizon: TimeSpan,
    /// Report threshold the truth was computed at.
    pub threshold: Threshold,
    /// Threshold as a percentage (for query strings and reports).
    pub threshold_pct: f64,
    /// The measured ground truth.
    pub truth: GroundTruth,
}

/// One attack stream before composition.
struct Attack {
    packets: Vec<PacketRecord>,
    prefix: Ipv4Prefix,
    onset: Nanos,
}

/// A fraction of a span, rounded to whole nanoseconds.
fn frac(d: TimeSpan, f: f64) -> TimeSpan {
    TimeSpan::from_secs_f64(d.as_secs_f64() * f)
}

/// The /16 the trace generator places `network_offset`'s first network
/// in: `oct1 = 1 + (offset % 40)`, `oct2 = offset / 40`. Keeping this
/// in one place (and asserting it in `compose`) guards against the
/// generator's address derivation drifting under us.
pub fn offset_net_prefix(offset: usize) -> Ipv4Prefix {
    let oct1 = 1 + (offset % 40) as u32;
    let oct2 = (offset / 40) as u32;
    Ipv4Prefix::new((oct1 << 24) | (oct2 << 16), 16)
}

/// Collapse a packet's source into one /24 of its /16 (zero the third
/// octet) — how the scan scenarios confine scanners to a single /24.
fn into_slash24(p: PacketRecord) -> PacketRecord {
    PacketRecord { src: (p.src & 0xFFFF_0000) | (p.src & 0xFF), ..p }
}

/// The suite's baseline: ISP-like heavy-tailed background traffic in
/// the low address space (networks 0..64 ⇒ first two /8 rows).
fn baseline(duration: TimeSpan, pps: f64) -> TrafficModel {
    TrafficModel {
        duration,
        sources: 1_500,
        total_pps: pps,
        networks: 64,
        ..TrafficModel::default()
    }
}

/// Merge attack streams over a baseline and measure the ground truth.
fn compose(
    name: &'static str,
    summary: &'static str,
    horizon: TimeSpan,
    legit: Vec<PacketRecord>,
    attacks: Vec<Attack>,
) -> Scenario {
    let legit_bytes: u64 = legit.iter().map(|p| p.wire_len as u64).sum();
    let attack_bytes: u64 =
        attacks.iter().flat_map(|a| a.packets.iter()).map(|p| p.wire_len as u64).sum();
    let mut merged = legit;
    for attack in &attacks {
        for p in &attack.packets {
            assert!(
                attack.prefix.contains_addr(p.src),
                "{name}: attack packet src outside its planted prefix — \
                 the generator's address derivation moved"
            );
        }
        merged = merge_streams(merged.into_iter(), attack.packets.iter().copied()).collect();
    }
    let total_bytes = legit_bytes + attack_bytes;
    let total_packets = merged.len() as u64;

    let planted = attacks
        .iter()
        .map(|a| {
            let (mut bytes, mut packets) = (0u64, 0u64);
            for p in merged.iter().filter(|p| a.prefix.contains_addr(p.src)) {
                bytes += p.wire_len as u64;
                packets += 1;
            }
            Planted {
                prefix: a.prefix,
                onset: a.onset,
                bytes,
                packets,
                share: bytes as f64 / total_bytes as f64,
            }
        })
        .collect();

    let threshold = distagg_threshold();
    let mut oracle = ExactHhh::new(hierarchy());
    for p in &merged {
        oracle.observe(p.src, p.wire_len as u64);
    }
    let truth: BTreeSet<Ipv4Prefix> =
        oracle.report(threshold).into_iter().map(|r| r.prefix).collect();

    Scenario {
        name,
        summary,
        packets: merged,
        horizon,
        threshold,
        threshold_pct: 1.0,
        truth: GroundTruth {
            planted,
            truth,
            legit_bytes,
            attack_bytes,
            total_packets,
            total_bytes,
        },
    }
}

/// Knobs of the parameterized source-prefix flood — exposed so the
/// property tests can sweep them.
pub struct FloodSpec {
    /// Network offset of the botnet /16 (keep ≥ 80 to stay clear of
    /// the baseline's address space).
    pub offset: usize,
    /// Bots in the /16.
    pub bots: usize,
    /// Aggregate flood rate while the pulse is on.
    pub attack_pps: f64,
    /// Pulse onset as a fraction of the trace.
    pub onset_frac: f64,
    /// Pulse length as a fraction of the trace.
    pub len_frac: f64,
}

impl Default for FloodSpec {
    fn default() -> Self {
        FloodSpec { offset: 117, bots: 300, attack_pps: 9_000.0, onset_frac: 0.3, len_frac: 0.4 }
    }
}

/// A parameterized DDoS source-prefix flood over the baseline: bots
/// all in one /16, flat per-bot rates (no bot is a heavy hitter on its
/// own — the attack exists only as the hierarchical aggregate), small
/// constant packets at one victim.
pub fn ddos_flood_with(duration: TimeSpan, seed: u64, spec: &FloodSpec) -> Scenario {
    let legit: Vec<PacketRecord> =
        TraceGenerator::new(baseline(duration, 18_000.0), seed).collect();
    let pulse = frac(duration, spec.len_frac);
    let onset = Nanos::ZERO + frac(duration, spec.onset_frac);
    let attack_model = TrafficModel {
        duration: pulse,
        sources: spec.bots,
        zipf_alpha: 0.05, // flat: every bot individually modest
        total_pps: spec.attack_pps,
        bursty_fraction: 0.0,
        stable_top: 0,
        networks: 1,
        network_offset: spec.offset,
        net_alpha: 1.0,
        sizes: PacketSizeMix::constant(120),
        destinations: 1,
        ..TrafficModel::default()
    };
    let attack: Vec<PacketRecord> = shift_stream(
        TraceGenerator::new(attack_model, seed ^ 0xDD05),
        frac(duration, spec.onset_frac),
    )
    .collect();
    compose(
        "ddos-flood",
        "pulsed botnet flood from one /16, flat per-bot rates, one victim",
        duration,
        legit,
        vec![Attack { packets: attack, prefix: offset_net_prefix(spec.offset), onset }],
    )
}

/// The suite's `ddos-flood` entry at the default spec.
pub fn ddos_flood(duration: TimeSpan, seed: u64) -> Scenario {
    ddos_flood_with(duration, seed, &FloodSpec::default())
}

/// A flash crowd: mid-trace, two fresh /16s of new users ramp in and
/// shift the heavy-hitter population (the traffic-engineering
/// motivation — legitimate, but the hierarchy moves).
pub fn flash_crowd(duration: TimeSpan, seed: u64) -> Scenario {
    let legit: Vec<PacketRecord> =
        TraceGenerator::new(baseline(duration, 18_000.0), seed).collect();
    let onset = Nanos::ZERO + duration / 2;
    let crowd_model = TrafficModel {
        duration: duration / 2,
        sources: 400,
        zipf_alpha: 0.3,
        total_pps: 8_000.0,
        bursty_fraction: 0.0,
        stable_top: 0,
        networks: 2,
        network_offset: 200, // two fresh /16s: 1.5.0.0/16, 2.5.0.0/16
        net_alpha: 0.5,
        destinations: 4,
        ..TrafficModel::default()
    };
    let crowd: Vec<PacketRecord> =
        shift_stream(TraceGenerator::new(crowd_model, seed ^ 0xF1A5), duration / 2).collect();
    // The crowd spans two networks; split it so each planted /16 gets
    // its own measured row.
    let (net_a, net_b) = (offset_net_prefix(200), offset_net_prefix(201));
    let (crowd_a, crowd_b): (Vec<_>, Vec<_>) =
        crowd.into_iter().partition(|p| net_a.contains_addr(p.src));
    compose(
        "flash-crowd",
        "two fresh /16s of users ramp in mid-trace and shift the hierarchy",
        duration,
        legit,
        vec![
            Attack { packets: crowd_a, prefix: net_a, onset },
            Attack { packets: crowd_b, prefix: net_b, onset },
        ],
    )
}

/// A subnet scan: many scanners confined to one /24, tiny constant
/// probe packets for the whole trace — invisible per host, obvious at
/// the /24.
pub fn subnet_scan(duration: TimeSpan, seed: u64) -> Scenario {
    let legit: Vec<PacketRecord> =
        TraceGenerator::new(baseline(duration, 18_000.0), seed).collect();
    let scan_model = TrafficModel {
        duration,
        sources: 220,
        zipf_alpha: 0.05,
        total_pps: 6_000.0,
        bursty_fraction: 0.0,
        stable_top: 0,
        networks: 1,
        network_offset: 170,
        net_alpha: 1.0,
        sizes: PacketSizeMix::constant(64), // bare probe packets
        destinations: 2_000,                // sweeping a wide target block
        ..TrafficModel::default()
    };
    let scan: Vec<PacketRecord> =
        TraceGenerator::new(scan_model, seed ^ 0x5CA9).map(into_slash24).collect();
    let slash16 = offset_net_prefix(170);
    let slash24 = Ipv4Prefix::new(slash16.addr(), 24);
    compose(
        "subnet-scan",
        "scanner block confined to one /24, tiny probes across the whole trace",
        duration,
        legit,
        vec![Attack { packets: scan, prefix: slash24, onset: Nanos::ZERO }],
    )
}

/// A pure heavy-tail Zipf mix (day 1 of the acceptance traces): no
/// attack, ground truth is the oracle alone — the control scenario.
pub fn zipf_mix(duration: TimeSpan, seed: u64) -> Scenario {
    let model = scenarios::day_trace(1, duration);
    let legit: Vec<PacketRecord> =
        TraceGenerator::new(model, seed ^ scenarios::day_seed(1)).collect();
    compose(
        "zipf-mix",
        "heavy-tail ISP day trace, no attack: the oracle-only control",
        duration,
        legit,
        Vec::new(),
    )
}

/// A multi-vector blend: the baseline plus a /16 flood *and* a /24
/// scan, staggered onsets — the legit-vs-attack split the SNIPPETS
/// exemplar tracks, with two planted aggregates at different depths.
pub fn attack_blend(duration: TimeSpan, seed: u64) -> Scenario {
    let legit: Vec<PacketRecord> =
        TraceGenerator::new(baseline(duration, 18_000.0), seed).collect();
    let flood_model = TrafficModel {
        duration: duration / 2,
        sources: 250,
        zipf_alpha: 0.05,
        total_pps: 6_000.0,
        bursty_fraction: 0.0,
        stable_top: 0,
        networks: 1,
        network_offset: 117,
        net_alpha: 1.0,
        sizes: PacketSizeMix::constant(120),
        destinations: 1,
        ..TrafficModel::default()
    };
    let flood_onset = Nanos::ZERO + duration / 4;
    let flood: Vec<PacketRecord> =
        shift_stream(TraceGenerator::new(flood_model, seed ^ 0xDD05), duration / 4).collect();
    let scan_model = TrafficModel {
        duration: duration / 2,
        sources: 180,
        zipf_alpha: 0.05,
        total_pps: 5_000.0,
        bursty_fraction: 0.0,
        stable_top: 0,
        networks: 1,
        network_offset: 170,
        net_alpha: 1.0,
        sizes: PacketSizeMix::constant(64),
        destinations: 2_000,
        ..TrafficModel::default()
    };
    let scan_onset = Nanos::ZERO + duration / 2;
    let scan: Vec<PacketRecord> =
        shift_stream(TraceGenerator::new(scan_model, seed ^ 0x5CA9), duration / 2)
            .map(into_slash24)
            .collect();
    let slash16 = offset_net_prefix(170);
    compose(
        "attack-blend",
        "baseline + staggered /16 flood and /24 scan: two planted depths at once",
        duration,
        legit,
        vec![
            Attack { packets: flood, prefix: offset_net_prefix(117), onset: flood_onset },
            Attack {
                packets: scan,
                prefix: Ipv4Prefix::new(slash16.addr(), 24),
                onset: scan_onset,
            },
        ],
    )
}

/// Borderline bursty traffic: a large bursty fraction with ON sojourns
/// shorter than the window, the mechanism behind hidden HHHs — no
/// planted attack, the oracle is the truth, and the interesting score
/// is how the approximate kinds track a churning hierarchy.
pub fn hidden_burst(duration: TimeSpan, seed: u64) -> Scenario {
    let model = TrafficModel {
        duration,
        sources: 2_000,
        zipf_alpha: 1.05,
        total_pps: 22_000.0,
        bursty_fraction: 0.9,
        stable_top: 2,
        burst_on: TimeSpan::from_secs(2),
        burst_off: TimeSpan::from_secs(8),
        networks: 48,
        ..TrafficModel::default()
    };
    let legit: Vec<PacketRecord> = TraceGenerator::new(model, seed ^ 0xB0B5).collect();
    compose(
        "hidden-burst",
        "90% bursty sources with sub-window ON times: hidden-HHH churn",
        duration,
        legit,
        Vec::new(),
    )
}

/// The whole suite at a duration (rounded down to whole report
/// windows) and seed — the sweep order of `hhh-loadgen`.
pub fn all(duration: TimeSpan, seed: u64) -> Vec<Scenario> {
    let windows = (duration / DISTAGG_WINDOW).max(1);
    let d = DISTAGG_WINDOW * windows;
    vec![
        ddos_flood(d, seed),
        flash_crowd(d, seed.wrapping_add(1)),
        subnet_scan(d, seed.wrapping_add(2)),
        zipf_mix(d, seed.wrapping_add(3)),
        attack_blend(d, seed.wrapping_add(4)),
        hidden_burst(d, seed.wrapping_add(5)),
    ]
}

/// Every scenario name, in sweep order — for `--list` and validation.
pub const NAMES: [&str; 6] =
    ["ddos-flood", "flash-crowd", "subnet-scan", "zipf-mix", "attack-blend", "hidden-burst"];

/// Build one scenario by name.
pub fn by_name(name: &str, duration: TimeSpan, seed: u64) -> Option<Scenario> {
    let windows = (duration / DISTAGG_WINDOW).max(1);
    let d = DISTAGG_WINDOW * windows;
    match name {
        "ddos-flood" => Some(ddos_flood(d, seed)),
        "flash-crowd" => Some(flash_crowd(d, seed.wrapping_add(1))),
        "subnet-scan" => Some(subnet_scan(d, seed.wrapping_add(2))),
        "zipf-mix" => Some(zipf_mix(d, seed.wrapping_add(3))),
        "attack-blend" => Some(attack_blend(d, seed.wrapping_add(4))),
        "hidden-burst" => Some(hidden_burst(d, seed.wrapping_add(5))),
        _ => None,
    }
}
