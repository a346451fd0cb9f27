//! `hhh-agg` — fold detector snapshot streams from N processes into
//! merged HHH reports, or transcode streams between wire formats.
//!
//! ```text
//! hhh-agg [--hierarchy ipv4-bytes|ipv4-bits] [--threshold PCT]...
//!         [--emit-state] [--format json|binary] [--transcode]
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
//! Shard streams that arrive over TCP are `hhh-aggd`'s to fold: its
//! `GET /hhh?all=1&state=1` answer is byte-identical to `hhh-agg
//! --emit-state` over the same shards' files, and piping it through
//! `hhh-agg --transcode --format binary` gives the v2 stream.
//!
//! `--transcode` skips folding entirely: every input stream is
//! re-encoded record-for-record into `--format` on stdout — v1 → v2 →
//! v1 reproduces the original bytes.

use hhh_agg::{fold_streams, read_stream, transcode, write_merged, AggError};
use hhh_core::{Threshold, WireFormat};
use hhh_hierarchy::Ipv4Hierarchy;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: hhh-agg [--hierarchy ipv4-bytes|ipv4-bits] [--threshold PCT]... \
                     [--emit-state] [--format json|binary] [--transcode]\n\
                     \x20              [FILE|- ...]\n\
                     \n\
                     Folds N snapshot streams (written by hhh-window's SnapshotSink in either\n\
                     wire format, or by hhh-agg --emit-state itself) into merged HHH reports\n\
                     on stdout; --format picks the output encoding. With --transcode, streams\n\
                     are re-encoded into --format instead of folded. Streams that arrive over\n\
                     TCP are folded by hhh-aggd.\n\
                     Defaults: --hierarchy ipv4-bytes, --threshold 1, --format json, stdin as\n\
                     the only stream.";

struct Args {
    hierarchy: Ipv4Hierarchy,
    thresholds: Vec<Threshold>,
    emit_state: bool,
    format: WireFormat,
    transcode: bool,
    inputs: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        hierarchy: Ipv4Hierarchy::bytes(),
        thresholds: Vec::new(),
        emit_state: false,
        format: WireFormat::Json,
        transcode: false,
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
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            file => args.inputs.push(file.to_string()),
        }
    }
    if args.thresholds.is_empty() {
        args.thresholds.push(Threshold::percent(1.0));
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
    if args.transcode {
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
