//! The daemon: accept loop, connection readers, worker pool, and the
//! graceful-drain choreography.
//!
//! # Thread model
//!
//! * one **accept** thread (non-blocking listener polled every few ms so
//!   it can observe drain/`SIGTERM` promptly);
//! * one **reader** thread per connection (blocking frame reads; control
//!   commands are answered inline, queries go through admission);
//! * `workers` **worker** threads draining the bounded admission queue,
//!   evaluating via [`cyclesteal_sweep::run_query`] and writing the
//!   response frame back through the connection's write lock;
//! * optionally one **metrics** thread (same non-blocking accept/poll
//!   shape as the main listener) answering HTTP `GET /metrics` and
//!   `GET /healthz` — reads only, so a scrape can never block or reorder
//!   query traffic — and one **obs-flush** thread writing the registry
//!   snapshot to `obs_snapshot.json` every few seconds (tmp + atomic
//!   rename), so a `SIGKILL` loses at most one flush interval of
//!   telemetry.
//!
//! # Scrape visibility
//!
//! Workers flush their thread-local obs buffers *before* writing each
//! response frame: once a client has seen an answer, a subsequent
//! `/metrics` scrape is guaranteed to include that query's records.
//!
//! # Determinism contract
//!
//! A successful query response is a pure function of the request: the
//! row comes from the same quantized-key cache pipeline as a batch
//! sweep, and the response JSON contains no timings, so byte-identical
//! requests yield byte-identical responses across restarts, cache
//! states, and crash recoveries. (Shed responses and `stats` are
//! operational, not part of that contract.)
//!
//! # Drain sequence
//!
//! stop admission → finish queued + in-flight queries → compact the WAL
//! into a snapshot → flush the obs snapshot → close connections.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use cyclesteal_core::cache::SolveCache;
use cyclesteal_core::recover::{Clock, Deadline, MonotonicClock};
use cyclesteal_core::stability::Policy;
use cyclesteal_obs::ObsSnapshot;
use cyclesteal_sweep::{presolve_points, run_query, Evaluator, LongLaw, Point, QueryOutcome};

use crate::admission::{AdmitError, Admission};
use crate::json::{self, Value};
use crate::metrics::{self, BatchCounts, NativeMetrics};
use crate::proto;
use crate::wal::{DurableCache, RecoveryReport};

/// Tuning knobs for [`Server::start`]. `Default` is a small local
/// instance on an OS-assigned port with durability disabled.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` for an OS-assigned port).
    pub addr: String,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission queue bound; beyond it queries are shed.
    pub queue_capacity: usize,
    /// Max queries a single connection may have queued or running.
    pub per_conn_inflight: usize,
    /// Report-cache LRU bound (`0` = unbounded).
    pub cache_capacity: usize,
    /// Durability directory; `None` runs memory-only.
    pub data_dir: Option<PathBuf>,
    /// Budget applied to queries that do not carry their own.
    pub default_budget_ns: Option<u64>,
    /// Test hook: sleep this long before evaluating each query (makes
    /// overload and drain windows reproducible in harnesses).
    pub slow_ms: u64,
    /// Test hook: crash (torn WAL record + raw `SIGKILL`) after this many
    /// WAL appends. See [`DurableCache::set_kill_after_appends`].
    pub kill_after_appends: Option<u64>,
    /// Bind address of the HTTP metrics/health listener; `None` disables
    /// it (`"127.0.0.1:0"` for an OS-assigned port).
    pub metrics_addr: Option<String>,
    /// Queries whose admission-to-response time meets this threshold
    /// append one JSON line to `slow_queries.jsonl` in `data_dir` (`0`
    /// logs every query; `None` disables; requires `data_dir`).
    pub slow_log_ms: Option<u64>,
    /// Seconds between periodic atomic flushes of `obs_snapshot.json`
    /// (`0` disables; only meaningful with `data_dir` and live obs
    /// recording).
    pub obs_flush_secs: u64,
    /// Micro-batching width: the most jobs one worker wakeup drains from
    /// the admission queue to presolve through the batched
    /// factor-once/solve-many pipeline before answering each query
    /// individually. `1` (or `0`) disables batching — the scalar control
    /// configuration; responses are byte-identical either way.
    pub batch_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            per_conn_inflight: 32,
            cache_capacity: 0,
            data_dir: None,
            default_budget_ns: None,
            slow_ms: 0,
            kill_after_appends: None,
            metrics_addr: None,
            slow_log_ms: None,
            obs_flush_secs: 5,
            batch_max: 16,
        }
    }
}

/// Set by the `SIGTERM` handler; polled by every accept loop.
static SIGTERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    // Only an atomic store: async-signal-safe.
    SIGTERM_FLAG.store(true, Ordering::SeqCst);
}

/// Installs the process-wide `SIGTERM` handler that turns `SIGTERM` into
/// a graceful drain of every [`Server`] in this process. Call once from
/// the daemon binary; tests drive [`Server::drain`] directly instead.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: installing a handler that only stores to an AtomicBool.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

/// No-op off unix (the drain request path still works).
#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

/// `true` once `SIGTERM` was received (for binaries that poll).
pub fn sigterm_received() -> bool {
    SIGTERM_FLAG.load(Ordering::SeqCst)
}

struct ConnState {
    /// Handle used only to `shutdown()` the socket during drain.
    stream: TcpStream,
    /// Serialized writer: workers and the reader interleave frames.
    writer: Mutex<TcpStream>,
    /// Queries this connection currently has queued or running.
    inflight: AtomicUsize,
}

impl ConnState {
    fn send(&self, payload: &str) {
        // A vanished client is not a server error; its in-flight answers
        // are simply dropped.
        let mut w = lock(&self.writer);
        let _ = proto::write_frame(&mut *w, payload.as_bytes());
    }
}

struct Job {
    conn: Arc<ConnState>,
    point: Point,
    budget_ns: Option<u64>,
    /// When the reader picked the frame off the socket.
    received_ns: u64,
    /// When admission accepted the job (budgets start here).
    admitted_ns: u64,
}

struct Shared {
    cache: SolveCache,
    /// Owns the admit/shed/complete counts and the one drain state (its
    /// `open` flag).
    admission: Admission<Job>,
    durable: Option<DurableCache>,
    recovery: RecoveryReport,
    slow_ms: u64,
    default_budget_ns: Option<u64>,
    /// Micro-batch drain width (1 = scalar serving).
    batch_max: usize,
    /// Native accounting of the micro-batching plane, updated once or
    /// twice per multi-job wakeup.
    batch: Mutex<BatchCounts>,
    /// Per-connection-cap sheds (admission only counts its own reasons).
    shed_inflight_cap: AtomicU64,
    /// Open handle on `slow_queries.jsonl` (serialized line appends).
    slow_log: Option<Mutex<File>>,
    /// Admission-to-response threshold in ms; `0` logs every query.
    slow_log_ms: Option<u64>,
    /// Slow-log lines written (the `svc_slow_queries_total` series).
    slow_logged: AtomicU64,
    /// Tells the metrics and obs-flush threads to exit.
    stop: AtomicBool,
}

impl Shared {
    /// Streams any newly computed reports to the WAL. Called by workers
    /// after each query, outside the query's fault scope.
    fn persist_new_reports(&self) {
        let Some(durable) = &self.durable else {
            return;
        };
        for (key, report) in self.cache.take_new_reports() {
            if let Err(e) = durable.append(&key, &report) {
                // The entry stays perfectly usable in memory; losing one
                // WAL record only means recomputing it after a restart.
                eprintln!("svc: WAL append failed (entry stays in memory): {e}");
                cyclesteal_obs::counter!("svc.wal.append_failed");
            }
        }
    }

    /// Collects every natively-maintained metric, once per scrape, probe
    /// or `stats` command.
    fn native_metrics(&self) -> NativeMetrics {
        NativeMetrics {
            admission: self.admission.snapshot(),
            shed_inflight_cap: self.shed_inflight_cap.load(Ordering::Relaxed),
            slow_queries: self.slow_logged.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            cache_reports: self.cache.report_len() as u64,
            wal: self
                .durable
                .as_ref()
                .map(DurableCache::stats)
                .unwrap_or_default(),
            batch: *lock(&self.batch),
        }
    }

    /// The one drain entry — [`Server::drain`], the client `drain` frame
    /// and `SIGTERM` all land here: admission stops at once and the
    /// request is counted only by the call that closed the queue.
    fn drain(&self) {
        if self.admission.close() {
            cyclesteal_obs::counter!("svc.drain.requested");
        }
    }

    /// Appends one slow-query record when the query's admission-to-last-
    /// byte-computed time meets the configured threshold. One compact
    /// JSON line: identity, per-stage timings, outcome shape, and the
    /// captured per-query obs trace.
    fn maybe_slow_log(&self, job: &Job, outcome: &QueryOutcome, t0: u64, t1: u64, trace: &ObsSnapshot) {
        let Some(threshold_ms) = self.slow_log_ms else {
            return;
        };
        let total_ns = t1.saturating_sub(job.admitted_ns);
        if total_ns < threshold_ms.saturating_mul(1_000_000) {
            return;
        }
        let Some(file) = &self.slow_log else {
            return;
        };
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let row = &outcome.row;
        let budget = match job.budget_ns {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        let headroom = match job.budget_ns {
            Some(b) => i128::from(b).saturating_sub(i128::from(total_ns)).to_string(),
            None => "null".to_string(),
        };
        let failure = match &row.failure {
            Some(f) => f.to_json(),
            None => "null".to_string(),
        };
        let line = format!(
            "{{\"ts_ms\":{ts_ms},\"id\":{},\"admission_wait_ns\":{},\"queue_wait_ns\":{},\"service_ns\":{},\"total_ns\":{total_ns},\"budget_ns\":{budget},\"headroom_ns\":{headroom},\"attempts\":{},\"degraded\":{},\"steered\":{},\"failure\":{failure},\"trace\":{}}}",
            json::escape(&row.id),
            job.admitted_ns.saturating_sub(job.received_ns),
            t0.saturating_sub(job.admitted_ns),
            t1.saturating_sub(t0),
            row.attempts,
            row.degraded,
            outcome.steered,
            trace.trace_json(),
        );
        let mut f = lock(file);
        if writeln!(f, "{line}").is_ok() {
            self.slow_logged.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What the drain left behind, returned by [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queries evaluated and answered over the server's lifetime:
    /// admission's `completed` count (shed rejections are not counted
    /// here).
    pub served: u64,
    /// Entries written to the final snapshot (`0` when memory-only).
    pub compacted_entries: usize,
}

/// The live-connection registry: each reader thread paired with the
/// connection state it serves, keyed by accept order. A reader removes its
/// own entry when it exits; drain shuts the remaining sockets and joins.
type ConnRegistry = Arc<Mutex<ConnTable>>;

#[derive(Default)]
struct ConnTable {
    next_id: u64,
    live: BTreeMap<u64, (Arc<ConnState>, JoinHandle<()>)>,
}

/// A running daemon instance.
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Metrics listener and obs-flush threads (exit on `Shared::stop`).
    aux: Vec<JoinHandle<()>>,
    conns: ConnRegistry,
    data_dir: Option<PathBuf>,
}

impl Server {
    /// Binds, recovers the durable cache (when configured), and spawns
    /// the accept and worker threads.
    ///
    /// # Errors
    ///
    /// Bind failures and durable-store I/O errors.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let cache = if config.cache_capacity > 0 {
            SolveCache::with_capacity(config.cache_capacity)
        } else {
            SolveCache::new()
        };
        let mut recovery = RecoveryReport::default();
        let durable = match &config.data_dir {
            Some(dir) => {
                let (durable, rec) = DurableCache::open(dir, &cache)?;
                recovery = rec;
                if let Some(n) = config.kill_after_appends {
                    durable.set_kill_after_appends(n);
                }
                cache.enable_report_journal();
                Some(durable)
            }
            None => None,
        };

        let slow_log = match (&config.data_dir, config.slow_log_ms) {
            (Some(dir), Some(_)) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(dir.join("slow_queries.jsonl"))?,
            )),
            _ => None,
        };
        let shared = Arc::new(Shared {
            cache,
            admission: Admission::new(config.queue_capacity, config.workers),
            durable,
            recovery,
            slow_ms: config.slow_ms,
            default_budget_ns: config.default_budget_ns,
            batch_max: config.batch_max.max(1),
            batch: Mutex::default(),
            shed_inflight_cap: AtomicU64::new(0),
            slow_log,
            slow_log_ms: config.slow_log_ms,
            slow_logged: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let conns = ConnRegistry::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let per_conn = config.per_conn_inflight.max(1);
            std::thread::Builder::new()
                .name("svc-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &conns, per_conn))?
        };

        let mut aux = Vec::new();
        let metrics_addr = match &config.metrics_addr {
            None => None,
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let bound = listener.local_addr()?;
                let shared = Arc::clone(&shared);
                aux.push(
                    std::thread::Builder::new()
                        .name("svc-metrics".to_string())
                        .spawn(move || metrics_loop(&listener, &shared))?,
                );
                Some(bound)
            }
        };
        if let Some(dir) = &config.data_dir {
            if config.obs_flush_secs > 0 {
                let shared = Arc::clone(&shared);
                let dir = dir.clone();
                let period = Duration::from_secs(config.obs_flush_secs);
                aux.push(
                    std::thread::Builder::new()
                        .name("svc-obs-flush".to_string())
                        .spawn(move || obs_flush_loop(&shared, &dir, period))?,
                );
            }
        }

        // Make recovery-time obs records (WAL truncation, snapshot
        // rejection) visible to scrapes before the first query arrives.
        cyclesteal_obs::flush_thread();
        Ok(Server {
            addr,
            metrics_addr,
            shared,
            accept: Some(accept),
            workers,
            aux,
            conns,
            data_dir: config.data_dir,
        })
    }

    /// The actual bound address (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listener's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// What restart recovery found (all zeros when memory-only).
    pub fn recovery(&self) -> RecoveryReport {
        self.shared.recovery
    }

    /// Requests a graceful drain (same effect as `SIGTERM`): admission
    /// stops immediately; [`Server::join`] completes the shutdown.
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// Blocks until drain is requested (via [`Server::drain`], a client
    /// `drain` command, or `SIGTERM`), then completes it: finishes
    /// in-flight work, compacts the durable cache, writes the obs
    /// snapshot, and closes every connection.
    ///
    /// # Errors
    ///
    /// I/O failures while compacting the snapshot.
    pub fn join(mut self) -> io::Result<DrainReport> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept loop exits only once admission is closed; close it
        // here too in case that thread died some other way.
        self.shared.drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers are done: every admitted query is answered and its
        // reports are journaled. Flush state.
        let mut compacted = 0;
        if let Some(durable) = &self.shared.durable {
            let entries = self.shared.cache.export_reports();
            compacted = entries.len();
            durable.compact(&entries)?;
        }
        if let Some(dir) = &self.data_dir {
            let _ = write_obs_snapshot(dir);
        }
        // Stop the metrics listener and periodic flusher; the final
        // snapshot above already supersedes anything they would write.
        self.shared.stop.store(true, Ordering::SeqCst);
        for h in self.aux.drain(..) {
            let _ = h.join();
        }
        // Now unblock the connection readers and collect them.
        let conns = std::mem::take(&mut lock(&self.conns).live);
        for (conn, handle) in conns.into_values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
        cyclesteal_obs::counter!("svc.drain.completed");
        cyclesteal_obs::flush_thread();
        Ok(DrainReport {
            served: self.shared.admission.snapshot().completed,
            compacted_entries: compacted,
        })
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &ConnRegistry,
    per_conn_inflight: usize,
) {
    loop {
        if sigterm_received() {
            shared.drain();
        }
        if !shared.admission.snapshot().open {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(e) = register_conn(stream, shared, conns, per_conn_inflight) {
                    eprintln!("svc: failed to set up connection: {e}");
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("svc: accept error: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn register_conn(
    stream: TcpStream,
    shared: &Arc<Shared>,
    conns: &ConnRegistry,
    per_conn_inflight: usize,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    let reader = stream.try_clone()?;
    let conn = Arc::new(ConnState {
        stream,
        writer: Mutex::new(writer),
        inflight: AtomicUsize::new(0),
    });
    cyclesteal_obs::counter!("svc.conn.accepted");
    // Spawn under the registry lock, so the reader cannot look for its
    // entry before it is inserted.
    let mut table = lock(conns);
    let id = table.next_id;
    table.next_id += 1;
    let handle = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        let conns = Arc::clone(conns);
        std::thread::Builder::new()
            .name("svc-conn".to_string())
            .spawn(move || {
                reader_loop(reader, &conn, &shared, per_conn_inflight);
                // Free this connection's sockets now, not at drain (which
                // may already have taken the entry).
                lock(&conns).live.remove(&id);
            })?
    };
    table.live.insert(id, (conn, handle));
    Ok(())
}

fn reader_loop(
    mut reader: TcpStream,
    conn: &Arc<ConnState>,
    shared: &Arc<Shared>,
    per_conn_inflight: usize,
) {
    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return,
            Err(_) => return, // includes the drain-time shutdown()
        };
        // `None` means the query was admitted; a worker will respond.
        if let Some(response) = handle_frame(&frame, conn, shared, per_conn_inflight) {
            conn.send(&response);
        }
        // Reader-side records (admission sheds, drain requests) become
        // scrape-visible as soon as the client has its answer.
        cyclesteal_obs::flush_thread();
    }
}

/// Handles one request frame; `Some(json)` responds inline, `None` means
/// the request was queued and a worker owns the response.
fn handle_frame(
    frame: &[u8],
    conn: &Arc<ConnState>,
    shared: &Arc<Shared>,
    per_conn_inflight: usize,
) -> Option<String> {
    let text = match std::str::from_utf8(frame) {
        Ok(t) => t,
        Err(_) => return Some(error_response("bad_request", "frame is not UTF-8")),
    };
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return Some(error_response("bad_request", &e.to_string())),
    };
    let cmd = doc.get("cmd").and_then(Value::as_str).unwrap_or("query");
    match cmd {
        "ping" => Some("{\"ok\": true, \"pong\": true}".to_string()),
        "stats" => Some(stats_response(shared)),
        "drain" => {
            // Ack *before* arming the drain: the moment admission
            // closes, [`Server::join`] races this reader to `shutdown()`
            // the socket, and the requester must not lose its
            // acknowledgement to that race.
            conn.send("{\"ok\": true, \"draining\": true}");
            shared.drain();
            None
        }
        "query" => admit_query(&doc, conn, shared, per_conn_inflight),
        other => Some(error_response(
            "bad_request",
            &format!("unknown cmd {other:?}"),
        )),
    }
}

fn admit_query(
    doc: &Value,
    conn: &Arc<ConnState>,
    shared: &Arc<Shared>,
    per_conn_inflight: usize,
) -> Option<String> {
    let received_ns = MonotonicClock.now_ns();
    let point = match parse_point(doc) {
        Ok(p) => p,
        Err(reason) => return Some(error_response("bad_request", &reason)),
    };
    // Per-client in-flight cap, taken optimistically and released on any
    // rejection path below (or by the worker after responding).
    let prev = conn.inflight.fetch_add(1, Ordering::SeqCst);
    if prev >= per_conn_inflight {
        conn.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.shed_inflight_cap.fetch_add(1, Ordering::Relaxed);
        return Some(shed_response("inflight_cap", None));
    }
    let budget_ns = doc
        .get("budget_ns")
        .and_then(Value::as_u64)
        .or(shared.default_budget_ns);
    let job = Job {
        conn: Arc::clone(conn),
        point,
        budget_ns,
        received_ns,
        admitted_ns: MonotonicClock.now_ns(),
    };
    match shared.admission.admit(job) {
        Ok(()) => None,
        Err(AdmitError::QueueFull { retry_after_ms }) => {
            conn.inflight.fetch_sub(1, Ordering::SeqCst);
            Some(shed_response("queue_full", Some(retry_after_ms)))
        }
        Err(AdmitError::Draining) => {
            conn.inflight.fetch_sub(1, Ordering::SeqCst);
            Some(shed_response("draining", None))
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let clock = MonotonicClock;
    loop {
        // One wakeup drains up to batch_max compatible jobs. The busy
        // claim happens inside the pop's critical section (in
        // `Admission::next_batch`), so a health probe never catches the
        // instant between "left the queue" and "being worked on".
        let jobs = shared.admission.next_batch(shared.batch_max);
        if jobs.is_empty() {
            break;
        }
        if jobs.len() > 1 {
            presolve_batch(shared, &jobs, &clock);
        }
        for job in jobs {
            serve_query(shared, job, &clock);
        }
        shared.admission.release_worker();
    }
    cyclesteal_obs::flush_thread();
}

/// The micro-batch presolve of one drained job batch: dedupe the batch's
/// points by report key (skipping keys whose report or solution is
/// already cached), solve the same-shape groups through the
/// factor-once/solve-many pipeline, and seed the shared cache — so the
/// per-query evaluations below find their chains already solved. A seeded
/// solution is bit-identical to what the scalar path would compute (the
/// batched solver's per-lane contract), so responses cannot change; only
/// the shared factorization work does.
fn presolve_batch(shared: &Arc<Shared>, jobs: &[Job], clock: &MonotonicClock) {
    let now = clock.now_ns();
    // A job whose budget already expired in the queue must spend no
    // solver work: exclude it here; its own run_query below attributes
    // the `timeout { stage: "admission" }` record exactly as when
    // serving scalar.
    let points: Vec<Point> = jobs
        .iter()
        .filter(|job| match job.budget_ns {
            Some(budget) => now.saturating_sub(job.admitted_ns) < budget,
            None => true,
        })
        .map(|job| job.point)
        .collect();
    {
        let mut batch = lock(&shared.batch);
        batch.drains += 1;
        batch.width_max = batch.width_max.max(jobs.len() as u64);
        batch.skipped_deadline += (jobs.len() - points.len()) as u64;
    }
    if points.len() < 2 {
        return; // nothing left to coalesce; the scalar path is optimal
    }
    let stats = {
        cyclesteal_obs::span!("svc.batch.presolve");
        // Fault-planned points are excluded inside (same per-query fault
        // scopes run_query enters), so injections neither poison nor get
        // masked by the shared cache.
        presolve_points(&points, &shared.cache)
    };
    let mut batch = lock(&shared.batch);
    batch.presolved += points.len() as u64;
    batch.unique += stats.unique as u64;
    batch.batched += stats.batched as u64;
    batch.scalar += stats.scalar as u64;
    batch.seeded += stats.seeded as u64;
    batch.skipped_fault += stats.skipped_faulted as u64;
}

/// Evaluates and answers one admitted query — the scalar serving path,
/// byte-identical whether or not a presolve warmed the cache first.
fn serve_query(shared: &Arc<Shared>, job: Job, clock: &MonotonicClock) {
    let t0 = clock.now_ns();
    if shared.slow_ms > 0 {
        std::thread::sleep(Duration::from_millis(shared.slow_ms));
    }
    // Everything this thread records between here and finish() is
    // the query's own trace (slow-log attachment).
    let trace = cyclesteal_obs::trace_begin();
    let outcome = match job.budget_ns {
        None => run_query(&job.point, &shared.cache, None),
        Some(budget) => {
            // The budget started at admission: subtract queue wait so
            // a query that aged out in the queue times out honestly.
            let waited = t0.saturating_sub(job.admitted_ns);
            let remaining = budget.saturating_sub(waited);
            let deadline = Deadline::start(clock, remaining);
            run_query(&job.point, &shared.cache, Some(&deadline))
        }
    };
    let trace = trace.finish();
    let t1 = clock.now_ns();
    // Per-stage latency split, all in microseconds: how long admission
    // took to accept the frame, how long the job queued, how long
    // evaluation ran, and how much budget was left at the end.
    cyclesteal_obs::histogram!(
        "svc.query.admission_wait_us",
        job.admitted_ns.saturating_sub(job.received_ns) / 1_000
    );
    cyclesteal_obs::histogram!(
        "svc.query.queue_wait_us",
        t0.saturating_sub(job.admitted_ns) / 1_000
    );
    cyclesteal_obs::histogram!("svc.query.service_us", t1.saturating_sub(t0) / 1_000);
    if let Some(budget) = job.budget_ns {
        cyclesteal_obs::histogram!(
            "svc.query.deadline_headroom_us",
            budget.saturating_sub(t1.saturating_sub(job.admitted_ns)) / 1_000
        );
    }
    shared.persist_new_reports();
    shared.maybe_slow_log(&job, &outcome, t0, t1, &trace);
    // Flush before the response frame: once the client has its
    // answer, any scrape must already include this query's records.
    cyclesteal_obs::flush_thread();
    job.conn.send(&query_response(&outcome));
    job.conn.inflight.fetch_sub(1, Ordering::SeqCst);
    // Counts the query served (`completed`), then drops its in-service
    // claim, so probes never undercount.
    shared.admission.record_service_ns(t1.saturating_sub(t0));
}

/// Builds the evaluation [`Point`] from a query document.
fn parse_point(doc: &Value) -> Result<Point, String> {
    let f = |key: &str, default: f64| -> Result<f64, String> {
        match doc.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("field {key:?} must be a finite number")),
        }
    };
    let rho_s = doc
        .get("rho_s")
        .and_then(Value::as_f64)
        .filter(|x| x.is_finite())
        .ok_or("field \"rho_s\" (a finite number) is required")?;
    let rho_l = doc
        .get("rho_l")
        .and_then(Value::as_f64)
        .filter(|x| x.is_finite())
        .ok_or("field \"rho_l\" (a finite number) is required")?;
    let mean_s = f("mean_s", 1.0)?;
    let long_mean = f("long_mean", 1.0)?;
    let long_scv = f("long_scv", 1.0)?;
    let policy = match doc.get("policy").and_then(Value::as_str).unwrap_or("cs_cq") {
        "dedicated" => Policy::Dedicated,
        "cs_id" => Policy::CsId,
        "cs_cq" => Policy::CsCq,
        other => return Err(format!("unknown policy {other:?}")),
    };
    let hosts = match doc.get("hosts") {
        None => (1, 1),
        Some(v) => {
            let arr = v.as_arr().ok_or("field \"hosts\" must be [k, m]")?;
            let k = arr
                .first()
                .and_then(Value::as_u64)
                .filter(|k| (1..=32).contains(k));
            let m = arr
                .get(1)
                .and_then(Value::as_u64)
                .filter(|m| (1..=32).contains(m));
            match (k, m, arr.len()) {
                (Some(k), Some(m), 2) => (k as usize, m as usize),
                _ => return Err("field \"hosts\" must be [k, m] with 1 ≤ k, m ≤ 32".to_string()),
            }
        }
    };
    let extend_longs = match doc.get("extend_longs") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or("field \"extend_longs\" must be a bool")?,
    };
    let long = if (long_scv - 1.0).abs() < 1e-12 {
        LongLaw::exponential(long_mean)
    } else {
        LongLaw::balanced(long_mean, long_scv)
    }
    .map_err(|e| format!("infeasible long-job law: {e}"))?;
    Ok(Point {
        rho_s,
        rho_l,
        mean_s,
        long,
        policy,
        evaluator: Evaluator::Analysis,
        extend_longs,
        hosts,
    })
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        // Rust's f64 Display is shortest-round-trip: deterministic and
        // bit-faithful, the same convention as the sweep report writer.
        Some(x) => format!("{x}"),
        None => "null".to_string(),
    }
}

/// The deterministic success-path response (see the module docs).
fn query_response(outcome: &QueryOutcome) -> String {
    let row = &outcome.row;
    let failure = match &row.failure {
        Some(f) => f.to_json(),
        None => "null".to_string(),
    };
    format!(
        "{{\"ok\": true, \"id\": {}, \"short_response\": {}, \"long_response\": {}, \"attempts\": {}, \"degraded\": {}, \"steered\": {}, \"failure\": {}}}",
        json::escape(&row.id),
        fmt_opt(row.short_response),
        fmt_opt(row.long_response),
        row.attempts,
        row.degraded,
        outcome.steered,
        failure,
    )
}

fn shed_response(reason: &str, retry_after_ms: Option<u64>) -> String {
    let retry = match retry_after_ms {
        Some(ms) => format!(", \"retry_after_ms\": {ms}"),
        None => String::new(),
    };
    format!(
        "{{\"ok\": false, \"error\": \"shed\", \"reason\": {}{}}}",
        json::escape(reason),
        retry
    )
}

fn error_response(error: &str, detail: &str) -> String {
    format!(
        "{{\"ok\": false, \"error\": {}, \"detail\": {}}}",
        json::escape(error),
        json::escape(detail)
    )
}

fn stats_response(shared: &Arc<Shared>) -> String {
    let m = shared.native_metrics();
    let (adm, cache, rec) = (&m.admission, &m.cache, shared.recovery);
    format!(
        "{{\"ok\": true, \"stats\": {{\"served\": {}, \"queue_depth\": {}, \"admitted\": {}, \"shed\": {}, \"completed\": {}, \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"reports\": {}}}, \"recovery\": {{\"snapshot_entries\": {}, \"wal_entries\": {}, \"wal_truncated\": {}, \"snapshot_rejected\": {}}}}}}}",
        adm.completed,
        adm.depth,
        adm.admitted,
        adm.shed(),
        adm.completed,
        cache.hits,
        cache.misses,
        cache.evictions,
        m.cache_reports,
        rec.snapshot_entries,
        rec.wal_entries,
        rec.wal_truncated_to.is_some(),
        rec.snapshot_rejected,
    )
}

/// The metrics listener: same non-blocking accept/poll shape as the main
/// accept loop, serving one HTTP request per connection. Scrapes keep
/// working during drain (an operator watching an overload event must not
/// go blind at the interesting moment); the thread exits on
/// `Shared::stop`, after the final obs snapshot is on disk.
fn metrics_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => serve_metrics_conn(stream, shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("svc: metrics accept error: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn serve_metrics_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let path = match metrics::read_request_path(&mut stream) {
        Ok(Ok(p)) => p,
        Ok(Err(msg)) => {
            let _ = metrics::write_http_response(&mut stream, "400 Bad Request", "text/plain", &msg);
            return;
        }
        Err(_) => return,
    };
    let result = match path.as_str() {
        "/metrics" => {
            let obs = cyclesteal_obs::snapshot_if_active();
            let body = metrics::render(&shared.native_metrics(), obs.as_ref());
            metrics::write_http_response(&mut stream, "200 OK", metrics::METRICS_CONTENT_TYPE, &body)
        }
        "/healthz" => {
            let body = shared.native_metrics().healthz_json();
            metrics::write_http_response(&mut stream, "200 OK", "application/json", &body)
        }
        other => metrics::write_http_response(
            &mut stream,
            "404 Not Found",
            "text/plain",
            &format!("no route {other}\n"),
        ),
    };
    if let Err(e) = result {
        eprintln!("svc: metrics response failed: {e}");
    }
}

/// Writes the current obs snapshot to `obs_snapshot.json` in `dir` via a
/// temp file + atomic rename, so readers never see a torn document. A
/// no-op when recording is inactive.
fn write_obs_snapshot(dir: &Path) -> io::Result<()> {
    let Some(snapshot) = cyclesteal_obs::snapshot_if_active() else {
        return Ok(());
    };
    let tmp = dir.join("obs_snapshot.tmp");
    std::fs::write(&tmp, snapshot.to_json())?;
    std::fs::rename(&tmp, dir.join("obs_snapshot.json"))
}

/// Periodically flushes the obs snapshot so a `SIGKILL`'d daemon leaves
/// at-most-one-interval-stale telemetry instead of none (the snapshot
/// used to be written only at graceful drain). Polls `Shared::stop` every
/// 50 ms so drain doesn't wait out a long flush interval.
fn obs_flush_loop(shared: &Arc<Shared>, dir: &Path, period: Duration) {
    let tick = Duration::from_millis(50);
    let mut since_flush = Duration::ZERO;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(tick);
        since_flush += tick;
        if since_flush >= period {
            since_flush = Duration::ZERO;
            if let Err(e) = write_obs_snapshot(dir) {
                eprintln!("svc: periodic obs snapshot failed: {e}");
            }
        }
    }
}

/// Locks a mutex, recovering from a poisoned lock (every protected
/// structure here is consistent between operations).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
