//! `perfbench` — the end-to-end benchmark of hidden-hhh.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --aggd PATH [--rustc VERSION] [--spans DIR]
//! ```
//!
//! Runs one workload's pass (set-up, then every packet through the real
//! pipelines, and for the serving workloads the `hhh-aggd` child at
//! `--aggd`) again and again for `--seconds`, checks every output, and
//! prints one JSON object as its last line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! passes and reports the per-layer metrics of the traced ones, plus
//! the tracing overhead. `perfbench/run.py` builds both binaries and
//! runs this one; `perfbench/README.md` describes the workloads and
//! metrics.

mod capture;
mod mitigate;
mod pass;
mod serve;
mod sys;
mod tdbf;
mod trace;

use pass::{Pass, LAYER_METRICS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sys::{median, quantile};
use trace::Tracer;

/// Metrics a workload scores after the clock stops: `(name, unit, value)`.
pub type Quality = Vec<(&'static str, &'static str, f64)>;

/// One workload: a repeatable pass and the scoring of its output.
pub trait Workload {
    /// Set up, drive every packet through, and check the output.
    fn pass(&mut self, tracer: Option<Tracer>) -> Result<Pass, String>;
    /// Score the first pass's output against the oracle.
    fn quality(&self) -> Result<Quality, String>;
}

pub const WORKLOADS: [&str; 3] =
    ["hidden-burst-tdbf", "ddos-flood-mitigate", "capture-sliding-exact"];

/// Shard count of every workload's pipelines.
const SHARDS: usize = 2;

/// Passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Steal, in percent of the machine's CPU time over a pass, that still
/// leaves the pass calm: above one or two of `/proc`'s 10 ms ticks on
/// the shortest passes.
const CALM_STEAL_PCT: f64 = 5.0;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pkts_per_s", "1/s"),
    ("cpu_ns_per_pkt", "ns"),
    ("peak_rss_mb", "MB"),
    ("report_latency_ms_p50", "ms"),
    ("report_latency_ms_p90", "ms"),
    ("f1", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    aggd: String,
    rustc: String,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        aggd: String::new(),
        rustc: "unknown".into(),
        spans: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed must be a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--aggd" => args.aggd = value()?,
            "--rustc" => args.rustc = value()?,
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if serving(&args.workload) && args.aggd.is_empty() {
        return Err("--aggd PATH is required for the serving workloads".into());
    }
    Ok(args)
}

/// Does the workload serve through `hhh-aggd`? (Capture runs offline.)
fn serving(workload: &str) -> bool {
    workload != "capture-sliding-exact"
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> Result<(), String> {
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "hidden-burst-tdbf" => Box::new(tdbf::Tdbf::new(&args.aggd, args.seed)),
        "ddos-flood-mitigate" => Box::new(mitigate::Mitigate::new(&args.aggd, args.seed)),
        _ => Box::new(capture::Capture::new(args.seed)),
    };
    // The load: tdbf's feeder plus one sequential poller; mitigate's
    // window-synchronous driver, which feeds a window and then polls;
    // capture's reading thread.
    let serving = serving(&args.workload);
    let (load_threads, poll_interval_ms) = match args.workload.as_str() {
        "hidden-burst-tdbf" => (2, serve::POLL_INTERVAL.as_secs_f64() * 1e3),
        "ddos-flood-mitigate" => (1, mitigate::POLL_PAUSE.as_secs_f64() * 1e3),
        _ => (1, 0.0),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace { 2 * MIN_PASSES } else { MIN_PASSES };
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    while passes.len() < min_passes || start.elapsed() < budget {
        // A traced run alternates: untraced passes are the baseline the
        // tracing overhead is measured against.
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = workload.pass(traced.then(Tracer::new))?;
        eprintln!(
            "perfbench: {} pass {}{}: {:.0} pkts/s, setup {:.3} s, latency p50 {:.3} p90 {:.3} ms, cpu {:.1} ns/pkt, steal {:.1} %",
            args.workload,
            passes.len(),
            if traced { " (traced)" } else { "" },
            pass.packets as f64 / pass.wall_s,
            pass.setup_s,
            quantile(&pass.latencies_ms, 0.5),
            quantile(&pass.latencies_ms, 0.9),
            pass.cpu_s * 1e9 / pass.packets as f64,
            pass.steal_s / (pass.wall_s * nproc as f64) * 100.0,
        );
        passes.push((pass, traced));
    }
    let quality = workload.quality()?;

    let first = &passes[0].0;
    if let Some((other, _)) = passes.iter().find(|(p, _)| p.counts != first.counts) {
        return Err(format!("pass counts differ: {:?} vs {:?}", first.counts, other.counts));
    }
    let max_connections = sys::max_open_connections();
    if load_threads > nproc || max_connections > nproc {
        return Err(format!(
            "load generator used {load_threads} threads and {max_connections} connections on {nproc} cores"
        ));
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|(_, t)| !t).map(|(p, _)| p).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|(_, t)| *t).map(|(p, _)| p).collect();
    let points: usize = untraced.iter().map(|p| p.latencies_ms.len()).sum();
    let queries: Vec<f64> = untraced.iter().flat_map(|p| p.queries_ms.iter().copied()).collect();
    let of = |ps: &[&Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    // The timed metrics come from the calm passes: those whose steal
    // share is at most CALM_STEAL_PCT, or at most the median pass's when
    // that is higher. On a quiet host that is every pass (no sample is
    // lost to `/proc`'s coarse steal ticks); under bursts of steal the
    // passes caught in them drop out.
    let steal_pct_of = |p: &Pass| p.steal_s / (p.wall_s * nproc as f64) * 100.0;
    let calm_limit = of(&untraced, &steal_pct_of).max(CALM_STEAL_PCT);
    let calm: Vec<&Pass> =
        untraced.iter().copied().filter(|p| steal_pct_of(p) <= calm_limit).collect();
    let steal_pct = untraced.iter().map(|p| p.steal_s).sum::<f64>()
        / (untraced.iter().map(|p| p.wall_s).sum::<f64>() * nproc as f64)
        * 100.0;
    let quality_of = |name: &str| quality.iter().find(|q| q.0 == name).map(|q| q.2);

    let end_to_end: Vec<f64> = vec![
        of(&untraced, &|p| p.setup_s),
        of(&calm, &|p| p.packets as f64 / p.wall_s),
        // A ratio of sums, not a median: `/proc` counts CPU in 10 ms
        // ticks, a coarse step for one short pass.
        calm.iter().map(|p| p.cpu_s).sum::<f64>() * 1e9
            / calm.iter().map(|p| p.packets as f64).sum::<f64>(),
        (passes[0].0.self_rss_kb as f64 + of(&untraced, &|p| p.child_rss_kb as f64)) / 1024.0,
        // Per-pass percentiles, then the median over passes: a burst of
        // interference from outside slows some passes, not the median.
        of(&calm, &|p| quantile(&p.latencies_ms, 0.5)),
        of(&calm, &|p| quantile(&p.latencies_ms, 0.9)),
        quality_of("f1").ok_or("workload scored no f1")?,
    ];
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let wall_per_pkt = |ps: &[&Pass]| {
            median(&ps.iter().map(|p| p.wall_s / p.packets as f64).collect::<Vec<_>>())
        };
        let overhead = (wall_per_pkt(&traced) / wall_per_pkt(&untraced) - 1.0) * 100.0;
        let layers: Vec<BTreeMap<&str, f64>> = traced.iter().map(|p| p.layer_metrics()).collect();
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                let value = if *name == "trace.overhead_pct" {
                    overhead
                } else {
                    median(&layers.iter().map(|l| l[name]).collect::<Vec<_>>())
                };
                (*name, *unit, value)
            })
            .collect()
    } else {
        END_TO_END.iter().zip(&end_to_end).map(|((n, u), v)| (*n, *u, *v)).collect()
    };

    if let (true, Some(dir)) = (args.trace, &args.spans) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?,
        );
        for (i, (pass, _)) in passes.iter().enumerate() {
            trace::write_spans(&mut out, i, &pass.spans)
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        out.flush().map_err(|e| format!("write {path}: {e}"))?;
    }

    // Workload-specific metrics by name and unit, ahead of the result.
    let mut extra: Quality = quality.iter().filter(|q| q.0 != "f1").copied().collect();
    if serving {
        extra.push(("query_ms_p50", "ms", quantile(&queries, 0.5)));
        extra.push(("query_ms_p99", "ms", quantile(&queries, 0.99)));
    }
    let counts: String = first
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {nproc}, \"rustc\": {}, \
         \"git_rev\": {}, \"poll_interval_ms\": {}, \"shards\": {SHARDS}, \"passes\": {}, \
         \"traced_passes\": {}, \"calm_passes\": {}, \"steal_pct\": {:.3}, \"report_points\": {}, \
         \"polls\": {}, \"load_threads\": {load_threads}, \
         \"max_connections\": {max_connections}, \"per_pass\": {{{counts}}}}}}}",
        json_str(&args.workload),
        args.seed,
        json_str(&args.rustc),
        json_str(&hhh_loadgen::git_rev()),
        poll_interval_ms,
        passes.len(),
        traced.len(),
        calm.len(),
        steal_pct,
        points,
        queries.len(),
    );
    println!("{{\"workload_metrics\": {}}}", json_metrics(&extra));
    let attempted: u64 = passes.iter().map(|(p, _)| p.attempted).sum();
    let failed: u64 = passes.iter().map(|(p, _)| p.failed).sum();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", args.workload);
            ExitCode::FAILURE
        }
    }
}
