//! `hhh-aggd` — the long-running aggregation daemon.
//!
//! ```text
//! hhh-aggd [--listen ADDR] [--http ADDR] [--hierarchy ipv4-bytes|ipv4-bits]
//!          [--threshold PCT]... [--retain POINTS|none]
//!          [--http-inflight N] [--quiet]
//!          [--mitigate KIND] [--mitigate-hysteresis M]
//!          [--mitigate-ttl SECONDS] [--mitigate-max-rules N]
//!          [--mitigate-truth PREFIX]...
//! ```
//!
//! Shard pipelines connect their `TcpTransport`s to `--listen` and
//! stream v2 snapshot frames; queries and scrapes go to `--http`
//! (`GET /hhh`, `/healthz`, `/metrics`). `--mitigate KIND` runs the
//! `hhh-mitigate` policy engine over KIND's merged reports and serves
//! its rule table on `GET /rules`; `--mitigate-truth` attaches planted
//! attack prefixes so `/metrics` classes matched bytes as attack or
//! legit. The daemon runs until killed; on startup it prints one
//! parseable line to stdout:
//!
//! ```text
//! listening frames=127.0.0.1:4710 http=127.0.0.1:4711
//! ```
//!
//! so scripts (and the integration tests) can bind port 0 and discover
//! the real addresses.

use hhh_aggd::{spawn_daemon, DaemonConfig, MitigateConfig};
use hhh_core::{Kind, Threshold};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_mitigate::PolicyConfig;
use hhh_nettypes::TimeSpan;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: hhh-aggd [--listen ADDR] [--http ADDR] \
                     [--hierarchy ipv4-bytes|ipv4-bits]\n\
                     \x20               [--threshold PCT]... [--retain POINTS|none]\n\
                     \x20               [--http-inflight N] [--quiet]\n\
                     \x20               [--mitigate KIND] [--mitigate-hysteresis M]\n\
                     \x20               [--mitigate-ttl SECONDS] [--mitigate-max-rules N]\n\
                     \x20               [--mitigate-truth PREFIX]...\n\
                     \n\
                     Long-running aggregation daemon: accepts shard snapshot streams (v2\n\
                     frames with hello/ack resume) on --listen, serves merged HHH queries\n\
                     (GET /hhh), health (GET /healthz) and Prometheus text metrics\n\
                     (GET /metrics) on --http. Shards may join, leave, crash, and resume\n\
                     at any time; restarted shards replay from their last acked frame.\n\
                     --mitigate KIND runs the hhh-mitigate policy engine over KIND's\n\
                     merged reports (a detector kind label, e.g. exact) and serves the\n\
                     rule table on GET /rules; --mitigate-truth attaches planted attack\n\
                     prefixes so /metrics classes matched bytes attack vs legit.\n\
                     Defaults: --listen 127.0.0.1:4710, --http 127.0.0.1:4711,\n\
                     --hierarchy ipv4-bytes, --threshold 1, --retain 720,\n\
                     --http-inflight 128.";

fn parse_args() -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig {
        frame_addr: "127.0.0.1:4710".into(),
        http_addr: "127.0.0.1:4711".into(),
        thresholds: Vec::new(),
        log: true,
        ..DaemonConfig::default()
    };
    let mut mitigate_kind: Option<Kind> = None;
    let mut policy = PolicyConfig::default();
    let mut truth: Vec<hhh_nettypes::Ipv4Prefix> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--listen" => config.frame_addr = argv.next().ok_or("--listen needs an address")?,
            "--http" => config.http_addr = argv.next().ok_or("--http needs an address")?,
            "--hierarchy" => {
                let v = argv.next().ok_or("--hierarchy needs a value")?;
                config.hierarchy = match v.as_str() {
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
                config.thresholds.push(Threshold::percent(pct));
            }
            "--retain" => {
                let v = argv.next().ok_or("--retain needs a point count or `none`")?;
                config.retain = if v == "none" {
                    None
                } else {
                    let n: usize =
                        v.parse().map_err(|_| format!("--retain `{v}` is not a count"))?;
                    if n == 0 {
                        return Err("--retain must keep at least one point (or `none`)".into());
                    }
                    Some(n)
                };
            }
            "--http-inflight" => {
                let v = argv.next().ok_or("--http-inflight needs a thread count")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--http-inflight `{v}` is not a count"))?;
                if n == 0 {
                    return Err("--http-inflight must allow at least one handler".into());
                }
                config.http_max_inflight = n;
            }
            "--quiet" => config.log = false,
            "--mitigate" => {
                let v = argv.next().ok_or("--mitigate needs a kind label")?;
                let kind =
                    Kind::parse(&v).ok_or_else(|| format!("--mitigate: unknown kind `{v}`"))?;
                mitigate_kind = Some(kind);
            }
            "--mitigate-hysteresis" => {
                let v = argv.next().ok_or("--mitigate-hysteresis needs a window count")?;
                let m: u32 =
                    v.parse().map_err(|_| format!("--mitigate-hysteresis `{v}` is not a count"))?;
                if m == 0 {
                    return Err("--mitigate-hysteresis must be at least 1".into());
                }
                policy.hysteresis = m;
            }
            "--mitigate-ttl" => {
                let v = argv.next().ok_or("--mitigate-ttl needs whole seconds")?;
                let s: u64 =
                    v.parse().map_err(|_| format!("--mitigate-ttl `{v}` is not a number"))?;
                if s == 0 {
                    return Err("--mitigate-ttl must be at least 1 second".into());
                }
                policy.ttl = TimeSpan::from_secs(s);
            }
            "--mitigate-max-rules" => {
                let v = argv.next().ok_or("--mitigate-max-rules needs a rule count")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--mitigate-max-rules `{v}` is not a count"))?;
                if n == 0 {
                    return Err("--mitigate-max-rules must keep at least one rule".into());
                }
                policy.max_rules = n;
            }
            "--mitigate-truth" => {
                let v = argv.next().ok_or("--mitigate-truth needs an IPv4 prefix")?;
                let prefix =
                    v.parse().map_err(|e| format!("--mitigate-truth `{v}`: bad prefix: {e}"))?;
                truth.push(prefix);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.thresholds.is_empty() {
        config.thresholds.push(Threshold::percent(1.0));
    }
    match mitigate_kind {
        Some(kind) => config.mitigate = Some(MitigateConfig { kind, policy, truth }),
        None if !truth.is_empty() => {
            return Err("--mitigate-truth needs --mitigate KIND".into());
        }
        None => {}
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("hhh-aggd: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let handle = match spawn_daemon(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("hhh-aggd: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening frames={} http={}", handle.frame_addr, handle.http_addr);
    let _ = std::io::stdout().flush();
    // Serve until killed; all work happens on the daemon's threads.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
