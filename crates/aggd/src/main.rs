//! `hhh-aggd` — the long-running aggregation daemon.
//!
//! ```text
//! hhh-aggd [--listen ADDR] [--http ADDR] [--hierarchy ipv4-bytes|ipv4-bits]
//!          [--threshold PCT]... [--retain POINTS|none]
//!          [--http-inflight N] [--quiet]
//! ```
//!
//! Shard pipelines connect their `TcpTransport`s to `--listen` and
//! stream v2 snapshot frames; queries and scrapes go to `--http`
//! (`GET /hhh`, `/healthz`, `/metrics`). The daemon only folds and
//! serves: `hhh-mitigate watch` follows its `/hhh` answers with the
//! policy engine. It runs until killed; on startup it prints one
//! parseable line to stdout:
//!
//! ```text
//! listening frames=127.0.0.1:4710 http=127.0.0.1:4711
//! ```
//!
//! so scripts (and the integration tests) can bind port 0 and discover
//! the real addresses.

use hhh_aggd::{spawn_daemon, DaemonConfig};
use hhh_core::Threshold;
use hhh_hierarchy::Ipv4Hierarchy;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: hhh-aggd [--listen ADDR] [--http ADDR] \
                     [--hierarchy ipv4-bytes|ipv4-bits]\n\
                     \x20               [--threshold PCT]... [--retain POINTS|none]\n\
                     \x20               [--http-inflight N] [--quiet]\n\
                     \n\
                     Long-running aggregation daemon: accepts shard snapshot streams (v2\n\
                     frames with hello/ack resume) on --listen, serves merged HHH queries\n\
                     (GET /hhh), health (GET /healthz) and Prometheus text metrics\n\
                     (GET /metrics) on --http. Shards may join, leave, crash, and resume\n\
                     at any time; restarted shards replay from their last acked frame.\n\
                     hhh-mitigate watch follows /hhh with the mitigation policy engine.\n\
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
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.thresholds.is_empty() {
        config.thresholds.push(Threshold::percent(1.0));
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
