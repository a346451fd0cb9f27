//! The `hhh-mitigate` binary: it refuses what it does not offer at
//! argument parsing, before it polls any daemon, and `watch` ends by
//! printing the table an engine with its flags builds from the
//! served report.

use hhh_core::HhhReport;
use hhh_mitigate::{rules_text, PolicyConfig, PolicyEngine};
use hhh_nettypes::{Ipv4Prefix, Nanos, TimeSpan};
use hhh_window::{render_report_line, WindowReport};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::Command;

#[test]
fn unusable_arguments_fail_at_argument_parsing() {
    let daemon = ["--daemon-http", "127.0.0.1:9", "--cycles", "1"];
    let cases: [(&[&str], &str); 4] = [
        (&["watch", "--kind", "exact/0of2"], "`exact/0of2`"),
        (&["watch"], "--kind is required"),
        (&["watch", "--kind", "exact", "--json"], "unknown argument `--json`"),
        (&["rules"], "unknown command `rules`"),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hhh-mitigate"))
            .args(args)
            .args(daemon)
            .output()
            .expect("hhh-mitigate runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: the error names {needle}: {stderr}");
    }
}

/// 5 s window `index` of 1,000 bytes: a steady 10.1.0.0/16 at 20 %
/// and, from window 2 on, a fresh 38.2.0.0/16 surging at 30 %.
/// `threshold_pct` drops what a report at that threshold would not carry.
fn window(index: u64, threshold_pct: u64) -> WindowReport<Ipv4Prefix> {
    let mut hhhs = vec![("10.1.0.0/16", 200)];
    if index >= 2 {
        hhhs.push(("38.2.0.0/16", 300));
    }
    let hhhs = hhhs
        .into_iter()
        .filter(|&(_, bytes)| bytes * 100 >= threshold_pct * 1_000)
        .map(|(prefix, bytes)| HhhReport {
            prefix: prefix.parse().expect("prefix"),
            level: 2,
            estimate: bytes,
            discounted: bytes,
            lower_bound: bytes,
        })
        .collect();
    let start = Nanos::from_secs(5 * index);
    WindowReport { index, start, end: start + TimeSpan::from_secs(5), total: 1_000, hhhs }
}

#[test]
fn watch_prints_the_table_of_the_first_thresholds_windows() {
    // What a daemon run with `--threshold 1 --threshold 25` serves:
    // both series for every window.
    let series0: Vec<_> = (0..6).map(|i| window(i, 1)).collect();
    let mut body = String::new();
    for (i, w) in series0.iter().enumerate() {
        body.push_str(&render_report_line(0, w));
        body.push('\n');
        body.push_str(&render_report_line(1, &window(i as u64, 25)));
        body.push('\n');
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let mut requests = Vec::new();
        for _ in 0..2 {
            let (mut conn, _) = listener.accept().expect("watch polls");
            let mut head = BufReader::new(conn.try_clone().expect("clone"));
            let (mut request, mut header) = (String::new(), String::new());
            head.read_line(&mut request).expect("request line");
            while head.read_line(&mut header).expect("header") > 2 {
                header.clear();
            }
            requests.push(request);
            write!(
                conn,
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .expect("respond");
        }
        requests
    });

    let flags = ["--hysteresis", "3", "--ttl", "20", "--max-rules", "4"];
    let out = Command::new(env!("CARGO_BIN_EXE_hhh-mitigate"))
        .args(["watch", "--daemon-http", &addr, "--kind", "exact", "--cycles", "2"])
        .args(["--interval", "1"])
        .args(flags)
        .output()
        .expect("hhh-mitigate runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "watch fails: {stderr}");
    let requests = server.join().expect("server thread");
    for request in &requests {
        assert!(request.starts_with("GET /hhh?all=1&kind=exact "), "{request:?}");
    }

    let mut engine = PolicyEngine::new(PolicyConfig {
        hysteresis: 3,
        ttl: TimeSpan::from_secs(20),
        max_rules: 4,
        ..PolicyConfig::default()
    });
    for w in &series0 {
        engine.ingest(w);
    }
    let expected = rules_text(&engine.table().lock().expect("rule table lock"));
    assert!(expected.contains("38.2.0.0/16") && expected.contains("cap 4"), "{expected}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.ends_with(&expected), "stdout:\n{stdout}\nexpected to end with:\n{expected}");
}
