//! Regression tests for the daemon's HTTP front door under hostile
//! load: a slow-loris swarm (half-open connections pinning the 5 s
//! read timeout) must not starve `/metrics` scrapes, the in-flight
//! handler cap must answer 503 instead of spawning past its bound, an
//! accept-churn storm must leave the server alive (the old accept loop
//! died on the first transient error), query percent-escapes must
//! decode end-to-end, and a kind label that names no kind is refused
//! by `/hhh` and by `hhh-aggd --mitigate`.

use hhh_aggd::{spawn_daemon, DaemonConfig, DaemonHandle};
use hhh_window::http_get;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn daemon(http_max_inflight: usize) -> DaemonHandle {
    spawn_daemon(DaemonConfig { http_max_inflight, retain: None, ..DaemonConfig::default() })
        .expect("daemon spawns")
}

/// One full GET: returns `(status, body)`. Panics on transport errors
/// — in these tests a refused or torn connection *is* the regression.
fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, body) = http_get(addr, path).unwrap_or_else(|e| panic!("{e}"));
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

/// Open `n` connections that never send a byte — each pins one handler
/// slot until the 5 s read timeout (or until dropped).
fn slow_loris(addr: &str, n: usize) -> Vec<TcpStream> {
    (0..n).map(|_| TcpStream::connect(addr).expect("loris connect")).collect()
}

#[test]
fn slow_loris_swarm_does_not_drop_metrics_scrapes() {
    let handle = daemon(128);
    let addr = handle.http_addr.to_string();
    let swarm = slow_loris(&addr, 100);
    // With 100 slots pinned (cap 128), every scrape must still land —
    // zero dropped scrapes is the acceptance bar.
    for i in 0..20 {
        let (status, body) = get(&addr, "/metrics");
        assert_eq!(status, 200, "scrape {i} dropped under slow-loris load");
        assert!(
            body.contains("aggd_http_accept_errors_total"),
            "accept-error counter missing from exposition"
        );
        assert!(body.contains("aggd_http_inflight"), "inflight gauge missing from exposition");
    }
    drop(swarm);
    handle.shutdown();
}

#[test]
fn handler_cap_answers_503_and_counts_busy() {
    let handle = daemon(2);
    let addr = handle.http_addr.to_string();
    let swarm = slow_loris(&addr, 2);
    // Both loris connections were accepted (and admitted) before any
    // later one, so a real request now meets a saturated cap. Allow a
    // few tries in case admission is still in flight.
    let deadline = Instant::now() + Duration::from_secs(4);
    let mut saw_503 = false;
    while Instant::now() < deadline {
        let (status, _) = get(&addr, "/healthz");
        if status == 503 {
            saw_503 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(saw_503, "saturated cap must answer 503");
    assert!(handle.metrics.http_busy_total() >= 1, "busy counter must count the refusal");
    drop(swarm);
    // Slots free as the loris handlers notice the hang-up; the server
    // then serves normally again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) = get(&addr, "/healthz");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "server never recovered after the swarm left");
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}

#[test]
fn accept_churn_storm_leaves_the_server_alive() {
    // EMFILE-adjacent churn: open-and-abandon connections as fast as
    // the OS allows. Some accepts see already-reset peers; whatever
    // the accept loop hits, it must keep serving (the old loop broke
    // out of `serve` on the first non-WouldBlock error, permanently).
    let handle = daemon(8);
    let addr = handle.http_addr.to_string();
    for _ in 0..300 {
        let conn = TcpStream::connect(&addr).expect("churn connect");
        drop(conn);
    }
    // Right after the storm the backlog may still hold churn
    // connections (a 503 is a *live* server answering); the bar is
    // that scrapes come back, not that the storm was free.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = get(&addr, "/metrics");
        if status == 200 {
            assert!(body.contains("aggd_http_accept_errors_total"));
            break;
        }
        assert_eq!(status, 503, "server died during churn");
        assert!(Instant::now() < deadline, "server never drained the churn backlog");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    handle.shutdown();
}

#[test]
fn query_edge_cases_are_400_not_silently_ignored() {
    let handle = daemon(16);
    let addr = handle.http_addr.to_string();
    // `threshold=` with an empty value: not a number, must be refused.
    let (status, body) = get(&addr, "/hhh?threshold=");
    assert_eq!(status, 400, "empty threshold value must be a 400, got {body:?}");
    // Duplicate keys are ambiguous — last-wins would silently change
    // the answer, so the daemon refuses instead.
    let (status, body) = get(&addr, "/hhh?kind=exact&kind=rhhh");
    assert_eq!(status, 400, "duplicate keys must be a 400");
    assert!(body.contains("duplicate"), "error should name the problem, got {body:?}");
    let (status, _) = get(&addr, "/hhh?threshold=1&threshold=2");
    assert_eq!(status, 400, "duplicate thresholds must be a 400");
    // An over-long query string is a probe, not a query.
    let long = format!("/hhh?kind={}", "x".repeat(4096));
    let (status, body) = get(&addr, &long);
    assert_eq!(status, 400, "overlong query must be a 400");
    assert!(body.contains("longer than"), "error should say why, got {body:?}");
    // A label that names no kind is an error, not an empty answer
    // (which would look like "nothing detected yet").
    let (status, body) = get(&addr, "/hhh?kind=tdbf");
    assert_eq!(status, 400, "unknown kind must be a 400, got {body:?}");
    assert!(body.contains("`tdbf`") && body.contains("tdbf-hhh"), "{body:?}");
    // The legitimate forms still work.
    let (status, _) = get(&addr, "/hhh?kind=exact&all=1&threshold=2.5");
    assert_eq!(status, 200);
    let (status, _) = get(&addr, "/hhh?kind=tdbf-hhh");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn rules_endpoint_is_404_without_mitigation() {
    let handle = daemon(16);
    let addr = handle.http_addr.to_string();
    let (status, body) = get(&addr, "/rules");
    assert_eq!(status, 404, "no policy engine -> /rules must 404");
    assert!(body.contains("mitigation"), "the 404 should say why, got {body:?}");
    handle.shutdown();
}

#[test]
fn rules_endpoint_serves_json_and_text_when_enabled() {
    use hhh_aggd::MitigateConfig;
    let handle = spawn_daemon(DaemonConfig {
        retain: None,
        mitigate: Some(MitigateConfig {
            kind: hhh_core::Kind::Exact,
            policy: hhh_mitigate::PolicyConfig::default(),
            truth: vec!["38.2.0.0/16".parse().expect("prefix")],
        }),
        ..DaemonConfig::default()
    })
    .expect("daemon spawns");
    let addr = handle.http_addr.to_string();
    // Empty table, but the document must be well-formed either way.
    let (status, body) = get(&addr, "/rules");
    assert_eq!(status, 200);
    assert!(body.contains("\"rules\":[]"), "empty table renders an empty list, got {body:?}");
    assert!(body.contains("\"cap\":"), "document carries the cap");
    let (status, body) = get(&addr, "/rules?text=1");
    assert_eq!(status, 200);
    assert!(body.contains("0 rule(s)"), "text render, got {body:?}");
    // /rules has its own allow-list: /hhh keys are foreign here.
    let (status, _) = get(&addr, "/rules?kind=exact");
    assert_eq!(status, 400);
    // Mitigation metrics appear in /metrics, classed because truth is
    // attached.
    let (status, body) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("mitigate_rules_active 0"));
    assert!(body.contains("mitigate_rule_churn_total 0"));
    assert!(body.contains("mitigate_dropped_bytes_total{class=\"attack\"}"));
    assert!(body.contains("mitigate_dropped_bytes_total{class=\"legit\"}"));
    handle.shutdown();
}

#[test]
fn query_percent_escapes_decode_end_to_end() {
    let handle = daemon(16);
    let addr = handle.http_addr.to_string();
    // `threshold=2%2E5` is `threshold=2.5` — the doc contract's own
    // example. An empty fold still renders (zero report lines).
    let (status, _) = get(&addr, "/hhh?threshold=2%2E5");
    assert_eq!(status, 200, "escaped threshold must decode, not 400");
    let (status, _) = get(&addr, "/hhh?%6bind=exact");
    assert_eq!(status, 200, "escaped key must decode before key matching");
    // Malformed escapes are a 400, not a silent mismatch.
    for bad in ["/hhh?threshold=2%", "/hhh?threshold=2%zz", "/hhh?kind=%ff%fe"] {
        let (status, _) = get(&addr, bad);
        assert_eq!(status, 400, "{bad} must be rejected");
    }
    handle.shutdown();
}

#[test]
fn unknown_mitigate_kind_fails_at_argument_parsing() {
    // The unusable --listen port makes a daemon that wrongly accepted
    // the kind exit on bind instead of serving forever.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hhh-aggd"))
        .args(["--listen", "127.0.0.1:99999", "--mitigate", "mvpip"])
        .output()
        .expect("hhh-aggd runs");
    assert!(!out.status.success(), "an unknown --mitigate kind must not start the daemon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`mvpip`"), "the error names the label: {stderr}");
}
