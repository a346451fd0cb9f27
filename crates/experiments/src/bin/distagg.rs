//! D-scale — the distributed-aggregation scenario and its codec bench.
//!
//! ```text
//! # full in-process scenario (all five kinds, both wire formats,
//! # K ∈ {1,2,4}):
//! cargo run --release -p hhh-experiments --bin distagg -- run [smoke|quick|paper]
//!
//! # the same K-shard parity check end-to-end over localhost TCP:
//! # K shard pipelines stream natively encoded v2 frames into an
//! # in-process hhh-aggd; once every frame is folded, its
//! # /hhh?all=1&state=1 answer must be byte-identical to the
//! # file-based fold and its states to the in-process sharded run:
//! cargo run --release -p hhh-experiments --bin distagg -- socket [scale]
//!
//! # snapshot encode/decode + aggregator fold throughput, v1 vs v2
//! # (including native vs transcode v2 encode):
//! cargo run --release -p hhh-experiments --bin distagg -- bench [scale] [out.json]
//!
//! # (re)generate the committed codec test corpus:
//! cargo run --release -p hhh-experiments --bin distagg -- corpus <dir>
//! ```
//!
//! One shard's snapshot stream, as its own process, is `aggd-shard
//! <kind> <k> <i> <seconds> [--format json|binary] [--connect ADDR]`
//! (in `hhh-aggd`); `aggd-shard <kind> <k> <i> 60` is shard `i` of the
//! `smoke` scenario these modes run.

use hhh_experiments::corpus::write_corpus;
use hhh_experiments::distagg::{
    codec_bench, codec_bench_json, codec_bench_table, distagg_table, run_distagg, run_socket,
    socket_table, Kind,
};
use hhh_experiments::Scale;

/// The scale at `args[n]`, `Smoke` when absent; anything else there
/// is rejected.
fn scale_at(args: &[String], n: usize) -> Scale {
    match args.get(n) {
        Some(a) => Scale::parse(a).unwrap_or_else(|| reject(a)),
        None => Scale::Smoke,
    }
}

const USAGE: &str = "usage: distagg run [scale]\n\
                     \x20      distagg socket [scale]\n\
                     \x20      distagg bench [scale] [out.json]\n\
                     \x20      distagg corpus <dir>\n\
                     scales: smoke quick paper (default smoke)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Name an argument the command line does not take, print usage and
/// exit 2.
fn reject(arg: &str) -> ! {
    eprintln!("distagg: unrecognized argument `{arg}`");
    usage()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).cloned().unwrap_or_else(|| "run".into());
    // Every mode's last positional: anything after it is rejected.
    let last = match mode.as_str() {
        "run" | "socket" | "corpus" => 2,
        "bench" => 3,
        _ => reject(&mode),
    };
    if let Some(extra) = args.get(last + 1) {
        reject(extra);
    }
    match mode.as_str() {
        "run" => {
            let scale = scale_at(&args, 2);
            eprintln!("distributed-aggregation scenario at scale '{}'…", scale.label());
            let rows = run_distagg(scale, &[1, 2, 4]);
            print!("{}", distagg_table(&rows));
            let bad: Vec<_> = rows
                .iter()
                .filter(|r| {
                    !r.state_identical
                        || !r.state_identical_v2
                        || (r.detector == Kind::Exact && !r.reports_identical)
                })
                .collect();
            if !bad.is_empty() {
                eprintln!("FAILED: {} row(s) violated the aggregation contract", bad.len());
                std::process::exit(1);
            }
        }
        "socket" => {
            let scale = scale_at(&args, 2);
            eprintln!("socket aggregation scenario at scale '{}'…", scale.label());
            let rows = run_socket(scale, &[4]);
            print!("{}", socket_table(&rows));
            let bad = rows.iter().filter(|r| !r.socket_eq_file || !r.state_identical).count();
            if bad > 0 {
                eprintln!("FAILED: {bad} row(s) violated the socket aggregation contract");
                std::process::exit(1);
            }
        }
        "bench" => {
            let scale = scale_at(&args, 2);
            eprintln!("snapshot codec bench at scale '{}'…", scale.label());
            let rows = codec_bench(scale, &[1, 2, 4, 8]);
            print!("{}", codec_bench_table(&rows));
            if let Some(path) = args.get(3) {
                std::fs::write(path, codec_bench_json(&rows, scale)).expect("write JSON output");
                eprintln!("wrote {path}");
            }
        }
        "corpus" => {
            let dir = args.get(2).unwrap_or_else(|| usage());
            write_corpus(std::path::Path::new(dir)).expect("write corpus");
            eprintln!("wrote codec corpus under {dir}");
        }
        _ => unreachable!("unknown modes were rejected above"),
    }
}
