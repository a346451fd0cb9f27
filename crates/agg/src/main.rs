//! `hhh-agg` — fold detector snapshot streams from N processes into
//! merged HHH reports, or transcode streams between wire formats.
//!
//! ```text
//! hhh-agg [--hierarchy ipv4-bytes|ipv4-bits] [--threshold PCT]...
//!         [--emit-state] [--format json|binary] [--transcode]
//!         [--listen ADDR --expect K [--listen-timeout SECS]]
//!         [FILE|- ...]
//! ```
//!
//! Each FILE is one snapshot stream (one process's `SnapshotSink`
//! output, v1 JSONL or v2 binary frames — sniffed per stream); `-` or
//! no files reads a single stream from stdin. Merged report records
//! (and, with `--emit-state`, merged state records that can feed
//! another aggregation tier) go to stdout in the `--format` encoding
//! (default `json`).
//!
//! With `--listen ADDR`, the streams arrive **over TCP** instead of
//! files: the aggregator runs a `FrameHub` (the read side `hhh-aggd`
//! uses) to a barrier — it admits shard connections with the hello/ack
//! handshake (each hello names its shard id) until `--expect K` streams
//! have finished, folds them in shard-id order, and emits the merged
//! output — byte-identical to folding the same shards' stream files.
//! Plain and spooled (`aggd-shard --spool`) writers both work.
//! Three time limits guard the wait (any may be combined; first to
//! fire wins): `--listen-timeout` is the **whole-fold deadline** in
//! seconds, counted from startup regardless of progress;
//! `--accept-idle` gives up when fewer streams than expected have
//! joined and no new one joins for that many seconds (a shard never
//! started); `--read-idle` gives up when no frame arrives on any
//! connection for that many seconds (a shard connected, then wedged).
//! The idle limits reset on progress, so slow-but-live topologies
//! don't need a worst-case whole-fold budget.
//!
//! `--transcode` skips folding entirely: every input stream is
//! re-encoded record-for-record into `--format` on stdout — v1 → v2 →
//! v1 reproduces the original bytes.

use hhh_agg::{
    collect_socket_streams, fold_streams, read_stream, transcode, write_merged, AggError,
};
use hhh_core::{Threshold, WireFormat};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_window::{CollectLimits, FrameHub};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: hhh-agg [--hierarchy ipv4-bytes|ipv4-bits] [--threshold PCT]... \
                     [--emit-state] [--format json|binary] [--transcode]\n\
                     \x20              [--listen ADDR --expect K [--listen-timeout SECS] \
                     [--accept-idle SECS] [--read-idle SECS]] [FILE|- ...]\n\
                     \n\
                     Folds N snapshot streams (written by hhh-window's SnapshotSink in either\n\
                     wire format, or by hhh-agg --emit-state itself) into merged HHH reports\n\
                     on stdout; --format picks the output encoding. With --transcode, streams\n\
                     are re-encoded into --format instead of folded. With --listen, streams\n\
                     arrive as v2 frames over TCP from --expect shard streams instead of\n\
                     files, and fold in shard-id order (byte-identical to the file fold);\n\
                     --accept-idle counts joined streams, not raw connections.\n\
                     Defaults: --hierarchy ipv4-bytes, --threshold 1, --format json, stdin as\n\
                     the only stream.";

struct Args {
    hierarchy: Ipv4Hierarchy,
    thresholds: Vec<Threshold>,
    emit_state: bool,
    format: WireFormat,
    transcode: bool,
    listen: Option<String>,
    expect: Option<usize>,
    listen_timeout: Option<Duration>,
    accept_idle: Option<Duration>,
    read_idle: Option<Duration>,
    inputs: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        hierarchy: Ipv4Hierarchy::bytes(),
        thresholds: Vec::new(),
        emit_state: false,
        format: WireFormat::Json,
        transcode: false,
        listen: None,
        expect: None,
        listen_timeout: None,
        accept_idle: None,
        read_idle: None,
        inputs: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--hierarchy" => {
                let v = argv.next().ok_or("--hierarchy needs a value")?;
                args.hierarchy = match v.as_str() {
                    "ipv4-bytes" => Ipv4Hierarchy::bytes(),
                    "ipv4-bits" => Ipv4Hierarchy::bits(),
                    other => return Err(format!("unknown hierarchy `{other}`")),
                };
            }
            "--threshold" => {
                let v = argv.next().ok_or("--threshold needs a value")?;
                let pct: f64 =
                    v.parse().map_err(|_| format!("--threshold `{v}` is not a number"))?;
                if !(pct > 0.0 && pct <= 100.0) {
                    return Err(format!("--threshold {pct} out of (0, 100]"));
                }
                args.thresholds.push(Threshold::percent(pct));
            }
            "--emit-state" => args.emit_state = true,
            "--format" => {
                let v = argv.next().ok_or("--format needs a value")?;
                args.format =
                    WireFormat::parse(&v).ok_or(format!("unknown format `{v}` (json|binary)"))?;
            }
            "--transcode" => args.transcode = true,
            "--listen" => {
                args.listen = Some(argv.next().ok_or("--listen needs an address")?);
            }
            "--expect" => {
                let v = argv.next().ok_or("--expect needs a stream count")?;
                let n: usize = v.parse().map_err(|_| format!("--expect `{v}` is not a count"))?;
                if n == 0 {
                    return Err("--expect must be at least 1".to_string());
                }
                args.expect = Some(n);
            }
            "--listen-timeout" => {
                let v = argv.next().ok_or("--listen-timeout needs seconds")?;
                let secs: u64 =
                    v.parse().map_err(|_| format!("--listen-timeout `{v}` is not seconds"))?;
                args.listen_timeout = Some(Duration::from_secs(secs));
            }
            "--accept-idle" => {
                let v = argv.next().ok_or("--accept-idle needs seconds")?;
                let secs: u64 =
                    v.parse().map_err(|_| format!("--accept-idle `{v}` is not seconds"))?;
                args.accept_idle = Some(Duration::from_secs(secs));
            }
            "--read-idle" => {
                let v = argv.next().ok_or("--read-idle needs seconds")?;
                let secs: u64 =
                    v.parse().map_err(|_| format!("--read-idle `{v}` is not seconds"))?;
                args.read_idle = Some(Duration::from_secs(secs));
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            file => args.inputs.push(file.to_string()),
        }
    }
    if args.thresholds.is_empty() {
        args.thresholds.push(Threshold::percent(1.0));
    }
    if args.listen.is_some() {
        if !args.inputs.is_empty() {
            return Err("--listen replaces FILE inputs; list one or the other".to_string());
        }
        if args.transcode {
            return Err("--listen cannot be combined with --transcode".to_string());
        }
        if args.expect.is_none() {
            return Err("--listen needs --expect K (the shard stream count)".to_string());
        }
    } else if args.expect.is_some()
        || args.listen_timeout.is_some()
        || args.accept_idle.is_some()
        || args.read_idle.is_some()
    {
        return Err("--expect/--listen-timeout/--accept-idle/--read-idle only apply with --listen"
            .to_string());
    }
    if args.inputs.is_empty() {
        args.inputs.push("-".to_string());
    }
    if args.inputs.iter().filter(|p| p.as_str() == "-").count() > 1 {
        // A second `-` would read an already-drained stdin and
        // silently aggregate fewer streams than the user listed.
        return Err("stdin (`-`) may be listed only once".to_string());
    }
    Ok(args)
}

fn open(path: &str) -> Result<Box<dyn BufRead>, AggError> {
    if path == "-" {
        Ok(Box::new(BufReader::new(io::stdin())))
    } else {
        let f = File::open(path).map_err(|e| AggError::Io(format!("{path}: {e}")))?;
        Ok(Box::new(BufReader::new(f)))
    }
}

fn run(args: &Args) -> Result<(), AggError> {
    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    if let Some(addr) = &args.listen {
        let expect = args.expect.expect("validated in parse_args");
        // Socket failures stay typed end to end (AggError::Transport →
        // TransportError → io::Error via source()), bind included.
        let typed =
            |op| move |e| AggError::Transport(hhh_window::TransportError::Io { op, source: e });
        let hub = FrameHub::bind(addr).map_err(typed("bind"))?;
        eprintln!(
            "hhh-agg: listening on {} for {expect} shard stream(s)…",
            hub.local_addr().map_err(typed("bind"))?
        );
        let limits = CollectLimits {
            timeout: args.listen_timeout,
            accept_idle: args.accept_idle,
            read_idle: args.read_idle,
        };
        let streams = collect_socket_streams(hub, expect, limits)?;
        let points = fold_streams(&args.hierarchy, streams)?;
        write_merged(&mut out, &points, &args.thresholds, args.emit_state, args.format)?;
    } else if args.transcode {
        for (i, path) in args.inputs.iter().enumerate() {
            transcode(i, open(path)?, &mut out, args.format)?;
        }
    } else {
        let mut streams = Vec::with_capacity(args.inputs.len());
        for (i, path) in args.inputs.iter().enumerate() {
            streams.push(read_stream(i, open(path)?)?);
        }
        let points = fold_streams(&args.hierarchy, streams)?;
        write_merged(&mut out, &points, &args.thresholds, args.emit_state, args.format)?;
    }
    out.flush().map_err(|e| AggError::Io(e.to_string()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("hhh-agg: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hhh-agg: {e}");
            ExitCode::FAILURE
        }
    }
}
