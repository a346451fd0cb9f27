//! The daemon itself: a [`FrameHub`] accepting shard connections, a
//! fold loop turning [`HubEvent`]s into an incremental
//! [`hhh_agg::FoldState`], and the HTTP server answering queries over
//! the same state.
//!
//! The fold loop is the only writer: it drains the hub's event channel
//! in bursts (so a batch of frames pays for one refold, not one each),
//! pushes state frames into the fold keyed by stream id, and refolds
//! dirty report points under the registry's lock. HTTP handlers are
//! readers — they briefly take the same lock to render, so a query
//! always sees a complete, consistent fold (never a half-applied
//! burst).

use crate::http::{self, HttpShared};
use crate::metrics::Metrics;
use crate::registry::Registry;
use hhh_core::snapshot::binary::REPORT_KIND;
use hhh_core::{Kind, Threshold, WireSnapshot};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_mitigate::{Action, PolicyConfig, PolicyEngine};
use hhh_nettypes::{Ipv4Prefix, Nanos};
use hhh_window::{FrameHub, HubEvent, HubHandle, WindowReport, ACK_KIND, HELLO_KIND};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How the daemon should run. `Default` binds both sockets to
/// ephemeral localhost ports — what in-process tests want; the
/// `hhh-aggd` binary fills in its CLI flags.
pub struct DaemonConfig {
    /// Address shard transports connect to (v2 frames + hello/ack).
    pub frame_addr: String,
    /// Address the HTTP endpoints serve on.
    pub http_addr: String,
    /// Hierarchy the fold restores detectors against.
    pub hierarchy: Ipv4Hierarchy,
    /// Report thresholds `/hhh` renders by default.
    pub thresholds: Vec<Threshold>,
    /// Most recent report points retained **per kind** (`None` =
    /// unbounded — only for bounded runs like tests).
    pub retain: Option<usize>,
    /// Maximum concurrently running HTTP handler threads; connections
    /// beyond the cap get an immediate 503.
    pub http_max_inflight: usize,
    /// Log joins/leaves/gaps to stderr.
    pub log: bool,
    /// Run the mitigation policy engine over one kind's merged
    /// reports (`None` = `/rules` is a 404 and no mitigate metrics).
    pub mitigate: Option<MitigateConfig>,
}

/// Daemon-side mitigation: which reports drive the policy, with what
/// knobs, and (optionally) which prefixes count as ground-truth
/// attack for classifying matched bytes.
#[derive(Clone, Debug)]
pub struct MitigateConfig {
    /// The detector kind whose merged points feed the engine.
    pub kind: Kind,
    /// Policy knobs.
    pub policy: PolicyConfig,
    /// Planted attack prefixes; when non-empty, matched bytes are
    /// classed `attack`/`legit` in `/metrics`.
    pub truth: Vec<Ipv4Prefix>,
}

/// What the HTTP layer and the fold loop share when mitigation is on:
/// the engine (fold loop writes, `/rules` reads) and the Prometheus
/// counters derived from it.
pub(crate) struct MitigateShared {
    pub engine: Mutex<PolicyEngine>,
    pub truth: Vec<Ipv4Prefix>,
    /// Gauge: rules currently installed.
    pub rules_active: AtomicU64,
    /// Counter: total table membership churn (inserts + evictions +
    /// expirations).
    pub churn_total: AtomicU64,
    /// Counters: reported bytes matched by a non-watch rule, classed
    /// against `truth`. An *estimate* from report discounts — the
    /// measured drop counts live in the data plane's gate.
    pub matched_attack_bytes: AtomicU64,
    pub matched_legit_bytes: AtomicU64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            frame_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            hierarchy: Ipv4Hierarchy::bytes(),
            thresholds: vec![Threshold::percent(1.0)],
            // 720 five-second windows ≈ one hour of rolling state.
            retain: Some(720),
            // Plenty for scrapes + polls; small enough that a
            // slow-loris swarm tops out at ~128 parked threads.
            http_max_inflight: 128,
            log: false,
            mitigate: None,
        }
    }
}

/// A running daemon. Dropping the handle (or calling
/// [`shutdown`](Self::shutdown)) stops the hub, the fold loop, and the
/// HTTP server; admitted shard connections are not torn down — their
/// reader threads end when the peers hang up.
pub struct DaemonHandle {
    /// The bound frame (shard transport) address.
    pub frame_addr: SocketAddr,
    /// The bound HTTP address.
    pub http_addr: SocketAddr,
    /// The shared registry — tests reach in to inspect the fold.
    pub registry: Arc<Registry>,
    /// The shared metric set.
    pub metrics: Arc<Metrics>,
    hub: Option<HubHandle>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// Stop accepting, stop folding, stop serving; joins every daemon
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(hub) = self.hub.take() {
            hub.shutdown();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Bind both sockets and start the daemon's threads (hub accept loop,
/// fold loop, HTTP accept loop). Returns once everything is listening;
/// the handle carries the resolved addresses.
pub fn spawn_daemon(config: DaemonConfig) -> io::Result<DaemonHandle> {
    let hub = FrameHub::bind(&config.frame_addr)?;
    let frame_addr = hub.local_addr()?;
    let http_listener = TcpListener::bind(&config.http_addr)?;
    let http_addr = http_listener.local_addr()?;

    let registry = Arc::new(Registry::new(config.retain));
    let metrics = Arc::new(Metrics::new());
    let stop = Arc::new(AtomicBool::new(false));

    let (hub_handle, events) = hub.start()?;

    let mitigate = config.mitigate.map(|m| {
        let shared = Arc::new(MitigateShared {
            engine: Mutex::new(PolicyEngine::new(m.policy)),
            truth: m.truth,
            rules_active: AtomicU64::new(0),
            churn_total: AtomicU64::new(0),
            matched_attack_bytes: AtomicU64::new(0),
            matched_legit_bytes: AtomicU64::new(0),
        });
        // Policy runs at the daemon's first (primary) threshold.
        let threshold = config.thresholds.first().copied().unwrap_or(Threshold::percent(1.0));
        MitigateCtx { shared, kind: m.kind, threshold }
    });

    let fold_registry = Arc::clone(&registry);
    let fold_metrics = Arc::clone(&metrics);
    let fold_stop = Arc::clone(&stop);
    let hierarchy = config.hierarchy;
    let log = config.log;
    let fold_mitigate = mitigate.clone();
    let fold_thread = std::thread::spawn(move || {
        fold_loop(
            &events,
            &fold_registry,
            &fold_metrics,
            &hierarchy,
            &fold_stop,
            log,
            fold_mitigate,
        );
    });

    let shared = Arc::new(HttpShared {
        registry: Arc::clone(&registry),
        metrics: Arc::clone(&metrics),
        thresholds: config.thresholds,
        max_inflight: config.http_max_inflight.max(1),
        inflight: std::sync::atomic::AtomicUsize::new(0),
        mitigate: mitigate.map(|m| m.shared),
    });
    let http_stop = Arc::clone(&stop);
    let http_thread = std::thread::spawn(move || http::serve(http_listener, shared, http_stop));

    Ok(DaemonHandle {
        frame_addr,
        http_addr,
        registry,
        metrics,
        hub: Some(hub_handle),
        stop,
        threads: vec![fold_thread, http_thread],
    })
}

/// The fold loop's handle on the mitigation engine: which kind's
/// merged points to feed it, at what threshold.
#[derive(Clone)]
struct MitigateCtx {
    shared: Arc<MitigateShared>,
    kind: Kind,
    threshold: Threshold,
}

/// Drain events in bursts, refold once per burst.
fn fold_loop(
    events: &mpsc::Receiver<HubEvent>,
    registry: &Registry,
    metrics: &Metrics,
    hierarchy: &Ipv4Hierarchy,
    stop: &AtomicBool,
    log: bool,
    mitigate: Option<MitigateCtx>,
) {
    // Windows whose report point is at or before this instant have
    // already been fed to the policy engine.
    let mut policy_seen_through = Nanos::ZERO;
    while !stop.load(Ordering::Relaxed) {
        let first = match events.recv_timeout(Duration::from_millis(100)) {
            Ok(ev) => ev,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        apply_event(first, registry, metrics, log);
        while let Ok(ev) = events.try_recv() {
            apply_event(ev, registry, metrics, log);
        }
        refold(registry, metrics, hierarchy);
        if let Some(ctx) = &mitigate {
            feed_policy(registry, ctx, &mut policy_seen_through);
        }
    }
    // A final refold so anything pushed by the last burst is visible
    // to a test that queries right up to shutdown.
    refold(registry, metrics, hierarchy);
    if let Some(ctx) = &mitigate {
        feed_policy(registry, ctx, &mut policy_seen_through);
    }
}

/// Feed merged report points newer than `seen_through` (for the
/// configured kind, in window order) into the policy engine, then
/// refresh the derived mitigate metrics.
fn feed_policy(registry: &Registry, ctx: &MitigateCtx, seen_through: &mut Nanos) {
    let windows: Vec<WindowReport<Ipv4Prefix>> = {
        let fold = registry.fold.lock().expect("fold lock");
        let mut points: Vec<_> =
            fold.points().filter(|p| p.kind == ctx.kind.label() && p.at > *seen_through).collect();
        points.sort_by_key(|p| p.at);
        points.iter().map(|p| p.report(0, ctx.threshold)).collect()
    };
    if windows.is_empty() {
        return;
    }
    let mut engine = ctx.shared.engine.lock().expect("policy engine lock");
    for window in &windows {
        engine.ingest(window);
        *seen_through = (*seen_through).max(window.end);
        // Matched-bytes estimate: reported (discounted) bytes covered
        // by a non-watch rule, classed against ground truth. Residual
        // discounts keep nested HHH entries from double-counting.
        let table = engine.table();
        let table = table.lock().expect("rule table lock");
        for hhh in &window.hhhs {
            let rule = hhh.prefix.self_and_ancestors().find_map(|a| table.get(a));
            let Some(rule) = rule else { continue };
            if rule.action == Action::Watch {
                continue;
            }
            let attack = ctx.shared.truth.iter().any(|t| t.contains(hhh.prefix));
            let counter = if attack {
                &ctx.shared.matched_attack_bytes
            } else {
                &ctx.shared.matched_legit_bytes
            };
            counter.fetch_add(hhh.discounted, Ordering::Relaxed);
        }
        ctx.shared.rules_active.store(table.len() as u64, Ordering::Relaxed);
        ctx.shared.churn_total.store(table.churn(), Ordering::Relaxed);
    }
}

fn apply_event(ev: HubEvent, registry: &Registry, metrics: &Metrics, log: bool) {
    match ev {
        HubEvent::Joined { id, label, resume_at } => {
            registry.joined(id, &label, resume_at);
            metrics.join();
            if log {
                eprintln!("hhh-aggd: stream {id} ({label}) joined, resuming at frame {resume_at}");
            }
        }
        HubEvent::Frame { id, pos, frame } => {
            // Reports re-derive from the fold; hello/ack frames are
            // protocol, not state. Everything else is a state snapshot.
            // Push *before* bumping the delivered counter: pollers
            // treat `delivered >= N` as "frame N is queryable", so the
            // counter must never run ahead of the fold.
            if frame.kind != REPORT_KIND && frame.kind != HELLO_KIND && frame.kind != ACK_KIND {
                registry.fold.lock().expect("fold lock").push(id, WireSnapshot::Binary(frame));
            }
            registry.note_frame(id, pos);
            metrics.frame();
        }
        HubEvent::Left { id, clean, .. } => {
            registry.left(id);
            if log {
                let how = if clean { "cleanly" } else { "mid-frame" };
                eprintln!("hhh-aggd: stream {id} disconnected {how}");
            }
        }
        HubEvent::Gap { id, claimed, received } => {
            registry.gap(id, claimed, received);
            metrics.gap();
            if log {
                eprintln!(
                    "hhh-aggd: refused stream {id}: claimed resume at {claimed}, \
                     hub holds {received} — restart the shard from its spool (or from zero)"
                );
            }
        }
    }
}

fn refold(registry: &Registry, metrics: &Metrics, hierarchy: &Ipv4Hierarchy) {
    let mut fold = registry.fold.lock().expect("fold lock");
    if fold.dirty_count() == 0 {
        return;
    }
    let start = Instant::now();
    match fold.refold(hierarchy) {
        Ok(points) => metrics.fold(start.elapsed().as_secs_f64(), points as u64),
        Err(e) => {
            metrics.fold_error();
            eprintln!("hhh-aggd: fold error (stream sent a bad frame?): {e}");
        }
    }
}
