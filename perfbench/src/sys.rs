//! Process plumbing: `/proc` readings, the `hhh-aggd` child process,
//! and the sequential HTTP client the pollers use.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Linux reports utime/stime in clock ticks of `USER_HZ`, which is 100
/// on every mainstream kernel configuration.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU seconds of a process (all its threads, live and
/// exited). `None` is this process.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or(format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or(format!("malformed {path}"))
    };
    Ok((tick(11)? + tick(12)?) / CLOCK_TICKS_PER_SEC)
}

/// Steal seconds of the whole machine, summed over its CPUs: time the
/// hypervisor ran something else while a virtual CPU was ready to run.
pub fn steal_seconds() -> Result<f64, String> {
    let text =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    // cpu  user nice system idle iowait irq softirq steal …
    text.lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks / CLOCK_TICKS_PER_SEC)
        .ok_or("no steal field in /proc/stat".into())
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kb(pid: Option<u32>) -> Result<u64, String> {
    let path = proc_path(pid, "status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("no VmHWM in {path}"))
}

/// HTTP connections the load generator holds open right now, and the
/// most it ever held at once.
static OPEN_CONNECTIONS: AtomicUsize = AtomicUsize::new(0);
static MAX_OPEN_CONNECTIONS: AtomicUsize = AtomicUsize::new(0);

pub fn max_open_connections() -> usize {
    MAX_OPEN_CONNECTIONS.load(Ordering::Relaxed)
}

struct Counted(TcpStream);

impl Counted {
    fn connect(addr: &str) -> std::io::Result<Counted> {
        let stream = TcpStream::connect(addr)?;
        let now = OPEN_CONNECTIONS.fetch_add(1, Ordering::Relaxed) + 1;
        MAX_OPEN_CONNECTIONS.fetch_max(now, Ordering::Relaxed);
        Ok(Counted(stream))
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        OPEN_CONNECTIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One `GET` with `Connection: close`: `(status, body)`. Transport
/// errors and timeouts are `Err`.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, Vec<u8>), String> {
    let err = |e: std::io::Error| format!("GET {path}: {e}");
    let mut conn = Counted::connect(addr).map_err(err)?;
    let stream = &mut conn.0;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(err)?;
    stream.set_write_timeout(Some(Duration::from_secs(10))).map_err(err)?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: aggd\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(err)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(format!("GET {path}: no header block"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or(format!("GET {path}: malformed status line"))?;
    raw.drain(..head_end + 4);
    Ok((status, raw))
}

/// A running `hhh-aggd` child process. Dropping it kills the process
/// and waits for it.
pub struct Daemon {
    child: Child,
    pub frames: String,
    pub http: String,
}

impl Daemon {
    /// Start `bin` on ephemeral localhost ports, retaining every report
    /// point, and wait for its `listening` line.
    pub fn spawn(bin: &str) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .args(["--retain", "none", "--threshold", "1", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addrs =
            line.strip_prefix("listening frames=").and_then(|r| r.trim().split_once(" http="));
        match (read, addrs) {
            (Ok(_), Some((frames, http))) => {
                Ok(Daemon { frames: frames.to_string(), http: http.to_string(), child })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("{bin} did not announce its addresses (got {line:?})"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One sample of a Prometheus text body: the value on the first line
/// that starts with `name` followed by a space or `{labels} `.
pub fn metric(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.strip_prefix(name).is_some_and(|r| r.starts_with(' ') || r.starts_with('{')))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Every sample of a labelled family (`name{…} value`).
pub fn metric_samples(body: &str, name: &str) -> Vec<f64> {
    body.lines()
        .filter(|l| l.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse().ok()))
        .collect()
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
