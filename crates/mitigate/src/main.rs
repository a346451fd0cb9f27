//! `hhh-mitigate` — the mitigation CLI: follow a live `hhh-aggd`,
//! run the policy engine against one kind's `/hhh` answers, and
//! render the resulting rule table.

use hhh_core::Kind;
use hhh_mitigate::{parse_policy_windows, rules_text, PolicyConfig, PolicyEngine};
use hhh_nettypes::{Nanos, TimeSpan};
use hhh_window::http_get;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: hhh-mitigate <command> [options]

commands:
  watch   poll /hhh on a live hhh-aggd, run the policy engine locally,
          and print rule transitions as they happen

watch options:
  --daemon-http ADDR   the daemon's HTTP address (required)
  --kind LABEL         the detector kind to follow (required, e.g. exact)
  --threshold PCT      re-threshold reports at PCT percent
                       (default: the daemon's first threshold)
  --interval MS        poll interval (default 1000)
  --cycles N           stop after N polls (default: run until killed)
  --hysteresis M       consecutive windows before a rule fires (default 2)
  --ttl SECONDS        rule lifetime (default 15)
  --max-rules N        rule table cap (default 256)
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("hhh-mitigate: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if command != "watch" {
        return fail(&format!("unknown command `{command}`\n{USAGE}"));
    }

    let mut daemon_http: Option<String> = None;
    let mut kind: Option<Kind> = None;
    let mut threshold: Option<f64> = None;
    let mut interval_ms: u64 = 1_000;
    let mut cycles: Option<u64> = None;
    let mut cfg = PolicyConfig::default();

    let mut rest = args;
    while let Some(arg) = rest.next() {
        let mut value =
            |flag: &str| rest.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--daemon-http" => match value("--daemon-http") {
                Ok(v) => daemon_http = Some(v),
                Err(e) => return fail(&e),
            },
            "--kind" => match value("--kind").map(|v| (Kind::parse(&v), v)) {
                Ok((Some(k), _)) => kind = Some(k),
                Ok((None, v)) => return fail(&format!("--kind: unknown kind `{v}`\n{USAGE}")),
                Err(e) => return fail(&e),
            },
            "--threshold" => match value("--threshold").map(|v| v.parse::<f64>()) {
                Ok(Ok(t)) if t > 0.0 && t <= 100.0 => threshold = Some(t),
                _ => return fail("--threshold needs a percent in (0, 100]"),
            },
            "--interval" => match value("--interval").map(|v| v.parse::<u64>()) {
                Ok(Ok(ms)) if ms >= 1 => interval_ms = ms,
                _ => return fail("--interval needs a positive millisecond count"),
            },
            "--cycles" => match value("--cycles").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => cycles = Some(n),
                _ => return fail("--cycles needs an integer"),
            },
            "--hysteresis" => match value("--hysteresis").map(|v| v.parse::<u32>()) {
                Ok(Ok(m)) if m >= 1 => cfg.hysteresis = m,
                _ => return fail("--hysteresis needs a positive integer"),
            },
            "--ttl" => match value("--ttl").map(|v| v.parse::<u64>()) {
                Ok(Ok(s)) if s >= 1 => cfg.ttl = TimeSpan::from_secs(s),
                _ => return fail("--ttl needs a positive whole-second count"),
            },
            "--max-rules" => match value("--max-rules").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n >= 1 => cfg.max_rules = n,
                _ => return fail("--max-rules needs a positive integer"),
            },
            other => return fail(&format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    let Some(addr) = daemon_http else {
        return fail(&format!("--daemon-http is required\n{USAGE}"));
    };
    let Some(kind) = kind else {
        return fail(&format!("--kind is required\n{USAGE}"));
    };
    watch(&addr, kind, threshold, interval_ms, cycles, cfg)
}

fn watch(
    addr: &str,
    kind: Kind,
    threshold: Option<f64>,
    interval_ms: u64,
    cycles: Option<u64>,
    cfg: PolicyConfig,
) -> ExitCode {
    let mut path = format!("/hhh?all=1&kind={}", kind.label());
    if let Some(t) = threshold {
        path.push_str(&format!("&threshold={t}"));
    }

    let mut engine = PolicyEngine::new(cfg);
    // Ingested-up-to watermark: windows ending at or before this have
    // been fed, so each poll only replays the tail.
    let mut seen_through = Nanos::ZERO;
    let mut polls = 0u64;
    loop {
        match http_get(addr, &path) {
            Ok((200, body)) => match parse_policy_windows(&String::from_utf8_lossy(&body)) {
                Ok(windows) => {
                    let fired_before = engine.stats().fired;
                    let expired_before = engine.stats().expired;
                    let mark = seen_through;
                    for w in windows.iter().filter(|w| w.end > mark) {
                        engine.ingest(w);
                        seen_through = seen_through.max(w.end);
                    }
                    let stats = engine.stats();
                    if stats.fired != fired_before || stats.expired != expired_before {
                        let table = engine.table();
                        let table = table.lock().expect("rule table lock");
                        print!("{}", rules_text(&table));
                    }
                }
                Err(e) => eprintln!("hhh-mitigate: {e}"),
            },
            Ok((status, body)) => {
                let body = String::from_utf8_lossy(&body);
                eprintln!("hhh-mitigate: {path} -> {status}: {}", body.trim_end())
            }
            Err(e) => eprintln!("hhh-mitigate: {e}"),
        }
        polls += 1;
        if let Some(n) = cycles {
            if polls >= n {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    let table = engine.table();
    let table = table.lock().expect("rule table lock");
    print!("{}", rules_text(&table));
    ExitCode::SUCCESS
}
