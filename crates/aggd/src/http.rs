//! A minimal hand-rolled HTTP/1.1 server for the daemon's three
//! endpoints — enough for `curl` and Prometheus scrapes, nothing more:
//! `GET` only, `Connection: close` on every response, one thread per
//! connection **bounded** by the daemon's in-flight cap (connections
//! beyond it get an immediate 503, so slow clients can saturate their
//! slots but never the process). Transient accept errors retry with
//! backoff and are counted as `aggd_http_accept_errors_total`; only a
//! shutdown stops the loop.
//!
//! | Endpoint | Answer |
//! |----------|--------|
//! | `GET /healthz` | `ok` |
//! | `GET /metrics` | Prometheus text exposition ([`crate::metrics`]) |
//! | `GET /hhh` | merged HHH report lines (v1 JSONL, exactly what `hhh-agg` prints) |
//!
//! `/hhh` query parameters: `kind=<label>` filters to one detector
//! kind (a label that names no kind is a 400); `all=1` renders every
//! retained report point instead of the latest per kind; `state=1`
//! also emits the folded state line per point (the stream another
//! aggregation tier would ingest); `threshold=PCT` overrides the
//! daemon's report threshold(s). Query keys and values are
//! percent-decoded (`%XX` and `+`) before matching; a malformed escape
//! is a 400.

use crate::metrics::Metrics;
use crate::registry::Registry;
use hhh_agg::{write_merged, MergedPoint};
use hhh_core::{Kind, Threshold, WireFormat};
use hhh_hierarchy::Ipv4Hierarchy;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First retry delay after a transient accept failure; doubles per
/// consecutive failure up to [`ACCEPT_BACKOFF_MAX`]. EMFILE-style
/// pressure usually clears within a handful of milliseconds (a handler
/// finishing returns an fd), so start small.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);

/// Ceiling on the accept-retry delay — keeps the server responsive to
/// `stop` and quick to recover once fd pressure clears.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(250);

/// What a handler thread needs to answer any request.
pub(crate) struct HttpShared {
    pub registry: Arc<Registry>,
    pub metrics: Arc<Metrics>,
    pub thresholds: Vec<Threshold>,
    /// Hard cap on concurrently running handler threads; connections
    /// beyond it get an immediate 503 instead of a thread.
    pub max_inflight: usize,
    /// Handler threads currently running (admitted, not yet finished).
    pub inflight: AtomicUsize,
}

/// Holds one admission slot; releases it when the handler returns, on
/// any path.
struct InflightGuard(Arc<HttpShared>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::Release);
    }
}

/// Try to claim a handler slot (a semaphore `try_acquire` on the
/// `inflight` counter).
fn try_admit(shared: &Arc<HttpShared>) -> Option<InflightGuard> {
    let mut current = shared.inflight.load(Ordering::Relaxed);
    loop {
        if current >= shared.max_inflight {
            return None;
        }
        match shared.inflight.compare_exchange_weak(
            current,
            current + 1,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some(InflightGuard(Arc::clone(shared))),
            Err(now) => current = now,
        }
    }
}

/// Accept loop: non-blocking so `stop` is honored within a few
/// milliseconds; each admitted connection is handled on its own thread
/// (queries are short-lived — curl, scrapes, polls), bounded by
/// `max_inflight` so a slow-loris swarm cannot pin unbounded threads.
///
/// Transient accept failures (ECONNABORTED, EMFILE under fd pressure,
/// EINTR…) are counted and retried with exponential backoff — only
/// `stop` ends the loop. A server that dies on the first aborted
/// handshake is no server at all.
pub(crate) fn serve(listener: TcpListener, shared: Arc<HttpShared>, stop: Arc<AtomicBool>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((conn, _peer)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                let Some(guard) = try_admit(&shared) else {
                    shared.metrics.http_busy();
                    let mut conn = conn;
                    drain_request_head(&mut conn);
                    respond(
                        &mut conn,
                        503,
                        "Service Unavailable",
                        "text/plain",
                        b"handler capacity saturated, retry\n",
                    );
                    continue;
                };
                let handler_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("aggd-http".into())
                    .spawn(move || {
                        let _slot = guard;
                        handle(conn, &handler_shared);
                    })
                    .is_ok();
                if !spawned {
                    // Thread exhaustion: the closure (and its guard and
                    // connection) were dropped — slot released, peer
                    // sees a close. Count it as capacity pressure.
                    shared.metrics.http_busy();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                shared.metrics.http_accept_error();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// How long the accept loop spends taking a refused request off its
/// socket, in all.
const REFUSED_READ_BUDGET: Duration = Duration::from_millis(100);

/// The most bytes of a refused request the accept loop reads.
const REFUSED_HEAD_CAP: usize = 8 * 1024;

/// Read a refused request up to the blank line that ends its head,
/// within [`REFUSED_READ_BUDGET`] and [`REFUSED_HEAD_CAP`], so the 503
/// can be answered and the connection closed with nothing unread.
/// Closing with unread bytes in the receive buffer — or with bytes
/// still on their way, from a client that writes its request in
/// pieces — makes the kernel RST the 503 out of the client's hands.
fn drain_request_head(conn: &mut TcpStream) {
    let deadline = Instant::now() + REFUSED_READ_BUDGET;
    let mut head = Vec::new();
    let mut scratch = [0u8; 1024];
    while head.len() < REFUSED_HEAD_CAP {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match io::Read::read(conn, &mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => head.extend_from_slice(&scratch[..n]),
        }
        let ends = |end: &[u8]| head.windows(end.len()).any(|w| w == end);
        if ends(b"\r\n\r\n") || ends(b"\n\n") {
            return;
        }
    }
}

fn handle(conn: TcpStream, shared: &HttpShared) {
    shared.metrics.http_request();
    // A client that never finishes its request line must not pin the
    // thread.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = conn.set_nodelay(true);
    let Ok(reader_half) = conn.try_clone() else { return };
    let mut reader = BufReader::new(reader_half);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return,
    };
    // Drain the headers; we never need them.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut conn = conn;
    if method != "GET" {
        respond(&mut conn, 405, "Method Not Allowed", "text/plain", b"GET only\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    match path {
        "/healthz" => respond(&mut conn, 200, "OK", "text/plain", b"ok\n"),
        "/metrics" => {
            let streams = shared.registry.streams();
            let (held, dirty) = {
                let fold = shared.registry.fold.lock().expect("fold lock");
                (fold.points().count(), fold.dirty_count())
            };
            let inflight = shared.inflight.load(Ordering::Relaxed);
            let body = shared.metrics.render(&streams, held, dirty, inflight);
            respond(
                &mut conn,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
            );
        }
        "/hhh" => match render_hhh(shared, query) {
            Ok(body) => respond(&mut conn, 200, "OK", "application/x-ndjson", &body),
            Err(msg) => {
                respond(&mut conn, 400, "Bad Request", "text/plain", format!("{msg}\n").as_bytes())
            }
        },
        _ => respond(&mut conn, 404, "Not Found", "text/plain", b"not found\n"),
    }
}

/// Render the merged HHH answer for a `/hhh` query string. The output
/// lines are exactly what `hhh-agg` would print for the same
/// snapshots, thresholds, and flags — `curl | diff` against a
/// file-based fold is the daemon's acceptance check.
fn render_hhh(shared: &HttpShared, query: &str) -> Result<Vec<u8>, String> {
    let params = parse_query(query)?;
    let kind = params.get("kind").map(String::as_str).map(parse_kind).transpose()?;
    let all = params.get("all").is_some_and(|v| v == "1");
    let state = params.get("state").is_some_and(|v| v == "1");
    let thresholds = match params.get("threshold") {
        Some(v) => {
            let pct: f64 = v.parse().map_err(|_| format!("threshold `{v}` is not a number"))?;
            if !(pct > 0.0 && pct <= 100.0) {
                return Err(format!("threshold {pct} out of (0, 100]"));
            }
            vec![Threshold::percent(pct)]
        }
        None => shared.thresholds.clone(),
    };

    let fold = shared.registry.fold.lock().expect("fold lock");
    let wanted = |p: &&MergedPoint<Ipv4Hierarchy>| kind.is_none_or(|k| p.kind == k.label());
    let mut body = Vec::new();
    let result = if all {
        write_merged(&mut body, fold.points().filter(wanted), &thresholds, state, WireFormat::Json)
    } else {
        // Latest point per kind (or of the one requested kind), in
        // kind order.
        let mut latest: BTreeMap<&str, &MergedPoint<Ipv4Hierarchy>> = BTreeMap::new();
        for p in fold.points().filter(wanted) {
            latest.insert(&p.kind, p);
        }
        write_merged(&mut body, latest.into_values(), &thresholds, state, WireFormat::Json)
    };
    result.map_err(|e| e.to_string())?;
    Ok(body)
}

/// The kind a `kind=` value names, or an error listing every kind.
fn parse_kind(label: &str) -> Result<Kind, String> {
    Kind::parse(label).ok_or_else(|| {
        let kinds: Vec<_> = Kind::ALL.iter().map(|k| k.label()).collect();
        format!("unknown kind `{label}`; kinds: {}", kinds.join(" "))
    })
}

/// Decode one query component: `+` is a space, `%XX` is the escaped
/// byte. Malformed escapes (truncated, non-hex, or bytes that don't
/// form UTF-8) are errors — the handler turns them into a 400.
fn percent_decode(component: &str) -> Result<String, String> {
    let bytes = component.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let byte = bytes
                    .get(i + 1..i + 3)
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("malformed percent escape in `{component}`"))?;
                out.push(byte);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| format!("percent escapes in `{component}` decode to invalid UTF-8"))
}

/// Longest query string any endpoint accepts. The legitimate queries
/// are tens of bytes; anything kilobytes long is a confused client or
/// a probe, and deserves a 400 rather than silent best-effort
/// parsing.
const MAX_QUERY_LEN: usize = 1024;

/// The query keys `/hhh` accepts; any other key is a 400.
const HHH_KEYS: &[&str] = &["kind", "all", "state", "threshold"];

fn parse_query(query: &str) -> Result<BTreeMap<String, String>, String> {
    if query.len() > MAX_QUERY_LEN {
        return Err(format!("query string longer than {MAX_QUERY_LEN} bytes"));
    }
    let mut params = BTreeMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, "1"));
        // Decode *before* matching keys, per the curl contract:
        // `threshold=2%2E5` is `threshold=2.5`.
        let k = percent_decode(k)?;
        let v = percent_decode(v)?;
        if !HHH_KEYS.contains(&k.as_str()) {
            return Err(format!("unknown query parameter `{k}`"));
        }
        // A duplicate key is ambiguous — refusing beats silently
        // letting the last occurrence win.
        if params.insert(k.clone(), v).is_some() {
            return Err(format!("duplicate query parameter `{k}`"));
        }
    }
    Ok(params)
}

fn respond(conn: &mut TcpStream, code: u16, reason: &str, content_type: &str, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = conn.write_all(head.as_bytes()).and_then(|()| conn.write_all(body));
    let _ = conn.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_strings_parse_and_reject_unknown_keys() {
        let p = parse_query("kind=exact&all=1&state=1&threshold=2.5").expect("parses");
        assert_eq!(p.get("kind").map(String::as_str), Some("exact"));
        assert_eq!(p.get("all").map(String::as_str), Some("1"));
        assert_eq!(p.get("threshold").map(String::as_str), Some("2.5"));
        assert!(parse_query("").expect("empty ok").is_empty());
        // Bare keys default to "1" (curl's ?all shorthand).
        let p = parse_query("all").expect("parses");
        assert_eq!(p.get("all").map(String::as_str), Some("1"));
        assert!(parse_query("nope=1").is_err());
    }

    #[test]
    fn query_strings_percent_decode_keys_and_values() {
        // The doc contract's own example: an escaped dot in a number.
        let p = parse_query("threshold=2%2E5").expect("escaped value parses");
        assert_eq!(p.get("threshold").map(String::as_str), Some("2.5"));
        // Escapes in the *key* decode before key matching.
        let p = parse_query("%6bind=exact").expect("escaped key parses");
        assert_eq!(p.get("kind").map(String::as_str), Some("exact"));
        // `+` is a space.
        let p = parse_query("kind=a+b").expect("plus decodes");
        assert_eq!(p.get("kind").map(String::as_str), Some("a b"));
        // Upper- and lower-case hex both work.
        assert_eq!(percent_decode("%2e%2E").expect("hex case-insensitive"), "..");
    }

    #[test]
    fn malformed_percent_escapes_are_errors() {
        for bad in ["threshold=2%", "threshold=2%2", "threshold=2%zz", "kind=%ff%fe"] {
            assert!(parse_query(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn duplicate_keys_are_errors_not_last_wins() {
        let err = parse_query("kind=a&kind=b").expect_err("duplicates rejected");
        assert!(err.contains("duplicate"), "got: {err}");
        // Even when the duplicate is spelled via an escape.
        assert!(parse_query("kind=a&%6bind=b").is_err());
    }

    #[test]
    fn overlong_query_strings_are_errors() {
        let long = format!("kind={}", "x".repeat(MAX_QUERY_LEN));
        let err = parse_query(&long).expect_err("overlong rejected");
        assert!(err.contains("longer than"), "got: {err}");
        // Right at the cap still parses.
        let edge = format!("kind={}", "x".repeat(MAX_QUERY_LEN - 5));
        assert!(parse_query(&edge).is_ok());
    }
}
