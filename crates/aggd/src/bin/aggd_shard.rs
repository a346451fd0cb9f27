//! `aggd-shard` — one deterministic scenario shard streaming to a
//! running `hhh-aggd`.
//!
//! ```text
//! aggd-shard <kind> <k> <shard> <seconds> --connect ADDR
//!            [--id N] [--spool PATH] [--die-after FRAMES]
//! ```
//!
//! Regenerates the scenario's day trace over a `<seconds>` horizon,
//! filters it to `<shard>`'s key partition, runs the per-shard
//! pipeline, and streams its v2 snapshot frames to the daemon. The
//! stream is a pure function of the arguments, which is what makes
//! restarts exact:
//!
//! * `--spool PATH` journals every frame to a spool file; on restart
//!   the transport recovers the spool, claims it in a resume hello,
//!   and replays only what the daemon's ack says is missing.
//! * without a spool, a restarted shard replays from zero and the
//!   daemon's position dedupe drops the already-delivered prefix.
//! * `--die-after N` simulates a crash: the process exits with code 9
//!   immediately before writing frame N+1 — mid-stream, torn state
//!   and all. The restart-resume test and the CI smoke use it to kill
//!   a shard deterministically.
//! * `--id N` sets the stream id for multi-kind topologies (default:
//!   the shard index; use `scenario::stream_id`'s `kind_index*k +
//!   shard` convention when one daemon folds several kinds).

use hhh_aggd::scenario::{self, Kind};
use hhh_core::SnapshotFrame;
use hhh_nettypes::TimeSpan;
use hhh_window::{FrameSpool, FrameWrite, TcpTransport, TransportError, TransportSink};
use std::process::ExitCode;

const USAGE: &str = "usage: aggd-shard <kind> <k> <shard> <seconds> --connect ADDR\n\
                     \x20                 [--id N] [--spool PATH] [--die-after FRAMES]\n\
                     kinds: exact ss-hhh rhhh tdbf-hhh mvpipe";

/// Exit code of a `--die-after` simulated crash (distinct from 1 so
/// harnesses can tell "died on cue" from "failed").
const DIE_CODE: u8 = 9;

/// Forwards frames until the fuse runs out, then kills the process on
/// the spot — no flush, no drop handlers on the socket: as close to
/// `kill -9` as a deterministic harness gets.
struct DieAfter<W: FrameWrite> {
    inner: W,
    left: Option<u64>,
}

impl<W: FrameWrite> FrameWrite for DieAfter<W> {
    fn write_frame(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError> {
        if let Some(left) = &mut self.left {
            if *left == 0 {
                eprintln!("aggd-shard: --die-after fuse burned, dying");
                std::process::exit(i32::from(DIE_CODE));
            }
            *left -= 1;
        }
        self.inner.write_frame(frame)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }
}

struct Args {
    kind: Kind,
    k: usize,
    shard: usize,
    seconds: u64,
    connect: String,
    id: u64,
    spool: Option<String>,
    die_after: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut connect = None;
    let mut id = None;
    let mut spool = None;
    let mut die_after = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--connect" => connect = Some(argv.next().ok_or("--connect needs an address")?),
            "--id" => {
                let v = argv.next().ok_or("--id needs a stream id")?;
                id = Some(v.parse::<u64>().map_err(|_| format!("--id `{v}` is not a number"))?);
            }
            "--spool" => spool = Some(argv.next().ok_or("--spool needs a path")?),
            "--die-after" => {
                let v = argv.next().ok_or("--die-after needs a frame count")?;
                die_after =
                    Some(v.parse::<u64>().map_err(|_| format!("--die-after `{v}` not a count"))?);
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            p => positional.push(p.to_string()),
        }
    }
    let [kind, k, shard, seconds] = positional.as_slice() else {
        return Err("expected <kind> <k> <shard> <seconds>".into());
    };
    let kind = Kind::parse(kind).ok_or_else(|| format!("unknown kind `{kind}`"))?;
    let k: usize = k.parse().map_err(|_| format!("k `{k}` is not a count"))?;
    let shard: usize = shard.parse().map_err(|_| format!("shard `{shard}` is not an index"))?;
    if k == 0 || shard >= k {
        return Err(format!("shard {shard} out of range for k={k}"));
    }
    let seconds: u64 = seconds.parse().map_err(|_| format!("seconds `{seconds}` not a number"))?;
    if seconds == 0 {
        return Err("seconds must be at least 1".into());
    }
    let connect = connect.ok_or("--connect ADDR is required")?;
    Ok(Args { kind, k, shard, seconds, connect, id: id.unwrap_or(shard as u64), spool, die_after })
}

fn run(args: &Args) -> Result<(), String> {
    let horizon = TimeSpan::from_secs(args.seconds);
    let trace = scenario::scenario_trace(horizon);
    let packets = scenario::shard_packets(&trace, args.k, args.shard);
    let label = scenario::shard_label(args.kind, args.k, args.shard);
    let mut transport = TcpTransport::connect(&args.connect).with_hello(args.id, label);
    if let Some(path) = &args.spool {
        let spool = FrameSpool::open(path).map_err(|e| format!("spool {path}: {e}"))?;
        transport = transport.with_spool(spool);
    }
    let sink = TransportSink::new(DieAfter { inner: transport, left: args.die_after });
    let (_writer, err) = scenario::shard_into(args.kind, &packets, horizon, args.shard, sink);
    match err {
        None => Ok(()),
        Some(e) => Err(format!("{} -> {}: {e}", args.shard, args.connect)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("aggd-shard: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("aggd-shard: {msg}");
            ExitCode::FAILURE
        }
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
                listed.split_whitespace().any(|k| k == kind.label()),
                "usage omits kind `{}`",
                kind.label()
            );
        }
    }
}
