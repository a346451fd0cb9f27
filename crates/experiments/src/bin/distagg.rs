//! D-scale — the distributed-aggregation scenario and its codec bench.
//!
//! ```text
//! # full in-process scenario (all five kinds, both wire formats,
//! # K ∈ {1,2,4}):
//! cargo run --release -p hhh-experiments --bin distagg -- run [smoke|quick|paper]
//!
//! # the same K-shard parity check end-to-end over localhost TCP:
//! # K shard pipelines stream natively encoded v2 frames into one
//! # FrameHub barrier; the fold must be byte-identical to the
//! # file-based fold and the in-process sharded run:
//! cargo run --release -p hhh-experiments --bin distagg -- socket [scale]
//!
//! # one shard's snapshot stream on stdout (the CI cross-process smoke
//! # spawns K of these and pipes them into the hhh-agg binary), or —
//! # with --connect — streamed as v2 frames over TCP to a listening
//! # aggregator (`hhh-agg --listen ADDR --expect K`):
//! cargo run --release -p hhh-experiments --bin distagg -- \
//!     shard <kind> <k> <i> [scale] [--format json|binary] [--connect ADDR]
//!
//! # snapshot encode/decode + aggregator fold throughput, v1 vs v2
//! # (including native vs transcode v2 encode):
//! cargo run --release -p hhh-experiments --bin distagg -- bench [scale] [out.json]
//!
//! # (re)generate the committed codec test corpus:
//! cargo run --release -p hhh-experiments --bin distagg -- corpus <dir>
//! ```
//!
//! `<kind>` is one of `exact`, `ss-hhh`, `rhhh`, `tdbf-hhh`, `mvpipe`
//! (the rows of `hhh_core::Kind`).

use hhh_core::WireFormat;
use hhh_experiments::corpus::write_corpus;
use hhh_experiments::distagg::{
    codec_bench, codec_bench_json, codec_bench_table, distagg_table, run_distagg, run_socket,
    shard_stream, shard_to_addr, socket_table, Kind,
};
use hhh_experiments::Scale;
use std::io::Write;

fn scale_at(args: &[String], n: usize) -> Scale {
    args.get(n).and_then(|a| Scale::parse(a)).unwrap_or(Scale::Smoke)
}

const USAGE: &str = "usage: distagg run [scale]\n\
                     \x20      distagg socket [scale]\n\
                     \x20      distagg shard <kind> <k> <i> [scale] [--format json|binary] \
                     [--connect ADDR]\n\
                     \x20      distagg bench [scale] [out.json]\n\
                     \x20      distagg corpus <dir>\n\
                     kinds: exact ss-hhh rhhh tdbf-hhh mvpipe; \
                     scales: smoke quick paper (default smoke)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    // --format / --connect may appear anywhere; pull them out of the
    // positionals.
    let mut format = WireFormat::Json;
    let mut format_given = false;
    if let Some(pos) = args.iter().position(|a| a == "--format") {
        if pos + 1 >= args.len() {
            usage();
        }
        format = WireFormat::parse(&args[pos + 1]).unwrap_or_else(|| usage());
        format_given = true;
        args.drain(pos..=pos + 1);
    }
    let mut connect: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--connect") {
        if pos + 1 >= args.len() {
            usage();
        }
        connect = Some(args[pos + 1].clone());
        args.drain(pos..=pos + 1);
    }
    let mode = args.get(1).cloned().unwrap_or_else(|| "run".into());
    if format_given && mode != "shard" {
        // Only `shard` emits a stream; silently accepting the flag
        // elsewhere would let a user believe they picked a format.
        eprintln!("distagg: --format only applies to `shard`");
        usage();
    }
    if connect.is_some() && mode != "shard" {
        eprintln!("distagg: --connect only applies to `shard`");
        usage();
    }
    if format_given && connect.is_some() {
        // Sockets carry v2 frames, period — a frame on a socket is the
        // same bytes as a frame in a file.
        eprintln!("distagg: --connect always streams v2 frames; drop --format");
        usage();
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
        "shard" => {
            if args.len() < 5 {
                usage();
            }
            let kind = Kind::parse(&args[2]).unwrap_or_else(|| usage());
            let k: usize = args[3].parse().unwrap_or_else(|_| usage());
            let shard: usize = args[4].parse().unwrap_or_else(|_| usage());
            if k == 0 || shard >= k {
                usage();
            }
            let scale = scale_at(&args, 5);
            match connect {
                Some(addr) => {
                    if let Err(e) = shard_to_addr(kind, scale, k, shard, &addr) {
                        eprintln!("distagg: shard {shard}/{k} -> {addr}: {e}");
                        std::process::exit(1);
                    }
                }
                None => {
                    let bytes = shard_stream(kind, scale, k, shard, format);
                    std::io::stdout().write_all(&bytes).expect("write stdout");
                }
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
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_kind() {
        let listed = USAGE.lines().last().expect("usage ends with the kinds line");
        for kind in Kind::ALL {
            assert!(
                listed.split([' ', ';']).any(|k| k == kind.label()),
                "usage omits kind `{}`",
                kind.label()
            );
        }
    }
}
