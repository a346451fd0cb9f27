//! E-scale — the shard-count sweep over the batched, mergeable
//! ingestion pipeline, the sliding-window pkts/s scoreboard, and the
//! same-memory fairness shoot-out.
//!
//! ```text
//! cargo run --release -p hhh-experiments --bin scale -- [smoke|quick|paper] [out.json]
//! cargo run --release -p hhh-experiments --bin scale -- sliding [smoke|quick|paper] [out.json]
//! cargo run --release -p hhh-experiments --bin scale -- fairness [smoke|quick|paper] [out.json]
//! ```
//!
//! Prints the throughput/fidelity table; with an output path, also
//! writes the rows as JSON lines (the formats committed as
//! `BENCH_pr1.json`, `BENCH_pr6.json` and `BENCH_pr8.json`). The
//! closed-loop sweeps behind `BENCH_pr9.json` and `BENCH_pr10.json`
//! are `hhh-loadgen <scale> [--mitigate] --out FILE`; the daemon's
//! ingest, fold and query costs are the benchmark's (`perfbench/`)
//! `aggd.*` layers.

use hhh_experiments::fairness::fairness;
use hhh_experiments::{shard_sweep, sliding_scoreboard, Scale};

const USAGE: &str = "usage: scale [sliding|fairness] [smoke|quick|paper] [out.json]";

/// Name an argument the command line does not take, print usage and
/// exit 2.
fn reject(arg: &str) -> ! {
    eprintln!("scale: unrecognized argument `{arg}`\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("sliding" | "fairness")) => (m, &args[1..]),
        _ => ("sweep", &args[..]),
    };
    let scale = match rest.first() {
        Some(a) => Scale::parse(a).unwrap_or_else(|| reject(a)),
        None => Scale::Quick,
    };
    if let Some(extra) = rest.get(2) {
        reject(extra);
    }
    let out = rest.get(1).cloned();
    eprintln!(
        "{} at scale '{}' on {} hardware thread(s)…",
        match mode {
            "sliding" => "sliding scoreboard",
            "fairness" => "fairness shoot-out",
            _ => "shard sweep",
        },
        scale.label(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let (table, json) = match mode {
        "sliding" => {
            let results = sliding_scoreboard(scale);
            (results.table(), results.json_lines())
        }
        "fairness" => {
            let results = fairness(scale);
            (results.table(), results.json_lines())
        }
        _ => {
            let results = shard_sweep(scale);
            (results.table(), results.json_lines())
        }
    };
    print!("{table}");
    if let Some(path) = out {
        std::fs::write(&path, json).expect("write JSON output");
        eprintln!("wrote {path}");
    }
}
