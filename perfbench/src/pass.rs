//! What one pass of a workload measured, and how its spans turn into
//! the per-layer metrics.

use crate::trace::Span;
use std::collections::{BTreeMap, BTreeSet};

/// Every per-layer metric, with its unit. A layer that is not on a
/// workload's path did no work there and reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.synth_s", "s"),
    ("trace.overhead_pct", "%"),
    ("pcap.parse_ns_per_pkt", "ns"),
    ("window.handoff_wait_ns_per_pkt", "ns"),
    ("window.feeder_stall_s", "s"),
    ("window.engine_self_ns_per_pkt", "ns"),
    ("window.shard_busy_ratio", "ratio"),
    ("window.shard_skew", "ratio"),
    ("window.gate_ns_per_pkt", "ns"),
    ("window.sink_us_per_point", "us"),
    ("window.frame_bytes_per_point", "bytes"),
    ("core.observe_ns_per_pkt", "ns"),
    ("core.report_us_per_point", "us"),
    ("core.encode_us_per_frame", "us"),
    ("core.merge_us_per_op", "us"),
    ("core.merge_ops", "count"),
    ("core.retract_us_per_op", "us"),
    ("core.retract_ops", "count"),
    ("core.clone_us_per_op", "us"),
    ("core.clone_ops", "count"),
    ("core.state_bytes", "bytes"),
    ("agg.refold_us_per_point", "us"),
    ("agg.render_us_per_point", "us"),
    ("aggd.visible_lag_ms_p50", "ms"),
    ("aggd.cpu_ms_per_point", "ms"),
    ("aggd.rss_mb", "MB"),
    ("aggd.fold_ms_p50", "ms"),
    ("aggd.refolds_per_point", "ratio"),
    ("aggd.query_ms_p50", "ms"),
    ("aggd.query_ms_p99", "ms"),
    ("mitigate.ingest_us_per_window", "us"),
    ("mitigate.rules_active_max", "count"),
    ("mitigate.rule_churn", "count"),
];

/// One pass: set-up, then packets offered until the last report point
/// was served.
#[derive(Debug, Default)]
pub struct Pass {
    /// Pass start to the first packet offered.
    pub setup_s: f64,
    /// Input synthesis alone (part of `setup_s`).
    pub synth_s: f64,
    pub packets: u64,
    /// First packet offered to the last report point served.
    pub wall_s: f64,
    /// CPU of this process plus the daemon child over `wall_s`.
    pub cpu_s: f64,
    /// Steal of the whole machine over `wall_s` (see `sys::steal_seconds`).
    pub steal_s: f64,
    /// Peak RSS (`VmHWM`, KiB) of this process when the clock stopped.
    /// Only the first pass's is free of earlier passes' checking.
    pub self_rss_kb: u64,
    /// Peak RSS of the daemon child when the clock stopped.
    pub child_rss_kb: u64,
    /// Per report point: handover of its closing packet to serving.
    pub latencies_ms: Vec<f64>,
    /// Every `/hhh` poll sent while ingest ran.
    pub queries_ms: Vec<f64>,
    pub points: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic per-pass counts, compared across passes.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer values measured outside the spans (daemon `/proc`,
    /// `/metrics`, feeder stats, frame bytes).
    pub layer: BTreeMap<&'static str, f64>,
    /// The pass's spans (traced passes only).
    pub spans: Vec<Span>,
}

fn total_secs<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(Span::secs).sum()
}

fn per(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        value / base
    } else {
        0.0
    }
}

impl Pass {
    /// Derive the span-based layer metrics and merge them over the
    /// ones measured directly.
    pub fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> =
            LAYER_METRICS.iter().map(|(name, _)| (*name, 0.0)).collect();
        let spans = &self.spans;
        let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
        let pkts = self.packets as f64;
        let points = self.points as f64;

        out.insert("trace.synth_s", self.synth_s);
        out.insert("pcap.parse_ns_per_pkt", per(total_secs(named("pcap.source")) * 1e9, pkts));
        out.insert(
            "window.handoff_wait_ns_per_pkt",
            per(total_secs(named("window.source")) * 1e9, pkts),
        );

        // Self time of an engine thread: its run span minus the source,
        // detector and sink calls made directly inside it.
        let child_secs =
            |parent: u64| total_secs(spans.iter().filter(|s| s.parent == Some(parent)));
        let engine_self: f64 = named("window.engine").map(|e| e.secs() - child_secs(e.id)).sum();
        out.insert("window.engine_self_ns_per_pkt", per(engine_self * 1e9, pkts));

        // Shard workers: threads that observe but run no engine; busy is
        // every detector call they make.
        let engine_threads: BTreeSet<u32> = named("window.engine").map(|s| s.thread).collect();
        let workers: BTreeSet<u32> = named("core.observe")
            .map(|s| s.thread)
            .filter(|t| !engine_threads.contains(t))
            .collect();
        if !workers.is_empty() {
            let busy: Vec<f64> = workers
                .iter()
                .map(|w| {
                    total_secs(spans.iter().filter(|s| {
                        s.thread == *w && s.parent.is_none() && s.name.starts_with("core.")
                    }))
                })
                .collect();
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            let engine_wall = named("window.engine").map(Span::secs).fold(0.0, f64::max);
            out.insert("window.shard_busy_ratio", per(mean, engine_wall));
            out.insert("window.shard_skew", per(busy.iter().copied().fold(0.0, f64::max), mean));
        }

        let gate_self: f64 = named("window.gate").map(|g| g.secs() - child_secs(g.id)).sum();
        let offered: f64 = named("gate.input").map(|s| s.count as f64).sum();
        out.insert("window.gate_ns_per_pkt", per(gate_self * 1e9, offered));
        out.insert("window.sink_us_per_point", per(total_secs(named("window.sink")) * 1e6, points));

        let observed: f64 = named("core.observe").map(|s| s.count as f64).sum();
        out.insert(
            "core.observe_ns_per_pkt",
            per(total_secs(named("core.observe")) * 1e9, observed),
        );
        out.insert("core.report_us_per_point", per(total_secs(named("core.report")) * 1e6, points));
        for (span_name, per_op, ops) in [
            ("core.encode", "core.encode_us_per_frame", None),
            ("core.merge", "core.merge_us_per_op", Some("core.merge_ops")),
            ("core.retract", "core.retract_us_per_op", Some("core.retract_ops")),
            ("core.clone", "core.clone_us_per_op", Some("core.clone_ops")),
        ] {
            let n = named(span_name).count() as f64;
            out.insert(per_op, per(total_secs(named(span_name)) * 1e6, n));
            if let Some(ops) = ops {
                out.insert(ops, n);
            }
        }
        out.insert(
            "core.state_bytes",
            named("core.report").map(|s| s.count as f64).fold(0.0, f64::max),
        );

        let folded: f64 = named("agg.refold").map(|s| s.count as f64).sum();
        out.insert("agg.refold_us_per_point", per(total_secs(named("agg.refold")) * 1e6, folded));
        out.insert("agg.render_us_per_point", per(total_secs(named("agg.render")) * 1e6, folded));
        let ingests = named("mitigate.ingest").count() as f64;
        out.insert(
            "mitigate.ingest_us_per_window",
            per(total_secs(named("mitigate.ingest")) * 1e6, ingests),
        );

        for (name, value) in &self.layer {
            out.insert(name, *value);
        }
        out
    }
}
