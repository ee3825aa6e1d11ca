//! The `/metrics` + `/healthz` plane: native daemon counters rendered as
//! Prometheus text exposition, plus the minimal HTTP/1.0 plumbing the
//! metrics listener and its scraping client share.
//!
//! # Which counts are native, which are obs
//!
//! Every serving event changes exactly one counter in one place:
//!
//! * **native** — every count an operator needs from any build: admits,
//!   sheds by reason, completions (= served), queue load, drain state,
//!   cache, WAL and batch counts, slow-log lines. Each is kept next to
//!   the code that decides it ([`Admission`], the solve cache, the WAL
//!   handle, the server), so `/metrics`, `/healthz` and the `stats`
//!   command answer with the `obs` feature compiled out.
//!   One [`NativeMetrics`] read — built from the structs that already
//!   name these values — feeds all three formats.
//! * **obs** — only what has no native twin: spans, latency histograms,
//!   per-query traces, solver and sweep counters, `svc.conn.accepted`,
//!   `svc.drain.*` and `svc.wal.{truncated,compact,snapshot_rejected,
//!   append_failed}`. When recording is active,
//!   `cyclesteal_obs::prom::render_prometheus` over the live snapshot is
//!   appended to the native series verbatim, so a test can assert
//!   `body.ends_with(render_prometheus(&snapshot))` bit-for-bit.
//!
//! No obs counter duplicates a native one, so a scrape carries exactly
//! one series per serving count.
//!
//! [`Admission`]: crate::admission::Admission
//!
//! # HTTP subset
//!
//! The listener speaks just enough HTTP/1.0 for `curl`, Prometheus, and
//! [`http_get`]: request line + headers in, `Connection: close` response
//! out, one request per connection. Anything else is a `404`/`400`.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use cyclesteal_core::cache::CacheStats;
use cyclesteal_obs::ObsSnapshot;

use crate::admission::AdmissionSnapshot;
use crate::wal::WalStats;

/// Native accounting of the serving-side micro-batch plane (the
/// `svc_batch_*` series), accumulated per worker wakeup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Worker wakeups that drained more than one job.
    pub drains: u64,
    /// High-water mark of jobs drained in a single worker wakeup.
    pub width_max: u64,
    /// Points handed to the batch presolve planner.
    pub presolved: u64,
    /// Distinct uncached chains the presolve planned. The rest of the
    /// presolved points (`presolved - unique`) were dedup hits: an
    /// identical report key in the same drain, or a report or solution
    /// already cached.
    pub unique: u64,
    /// Chains solved inside batched (≥ 2 lane) groups.
    pub batched: u64,
    /// Chains whose shape group degenerated to a scalar solve.
    pub scalar: u64,
    /// Solutions seeded into the shared cache by presolves.
    pub seeded: u64,
    /// Jobs excluded from a presolve because their deadline had already
    /// expired at drain time.
    pub skipped_deadline: u64,
    /// Points excluded from a presolve because the armed fault plan
    /// targets their scope.
    pub skipped_fault: u64,
}

/// Point-in-time values of every natively-maintained daemon metric, read
/// once per scrape, probe or `stats` command and formatted lock-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeMetrics {
    /// One probe-consistent admission read: load, completions (= served),
    /// sheds by queue reason, drain state, pool size and the EWMA.
    pub admission: AdmissionSnapshot,
    /// Sheds because the connection hit its in-flight cap (decided by
    /// the reader before admission).
    pub shed_inflight_cap: u64,
    /// Slow-query-log lines written.
    pub slow_queries: u64,
    /// Solve-cache counters.
    pub cache: CacheStats,
    /// Reports currently resident in the solve cache.
    pub cache_reports: u64,
    /// WAL counters of this process (zeros when memory-only).
    pub wal: WalStats,
    /// Micro-batch counters.
    pub batch: BatchCounts,
}

impl NativeMetrics {
    /// Renders just the native series (no obs registry data).
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(1536);
        let counter = |s: &mut String, name: &str, v: u64| {
            let _ = writeln!(s, "# TYPE {name} counter\n{name} {v}");
        };
        let gauge = |s: &mut String, name: &str, v: u64| {
            let _ = writeln!(s, "# TYPE {name} gauge\n{name} {v}");
        };
        let labeled = |s: &mut String, name: &str, pairs: &[(&str, u64)]| {
            let _ = writeln!(s, "# TYPE {name} counter");
            for (reason, v) in pairs {
                let _ = writeln!(s, "{name}{{reason=\"{reason}\"}} {v}");
            }
        };
        let (adm, b) = (&self.admission, &self.batch);
        counter(&mut s, "svc_served_total", adm.completed);
        counter(&mut s, "svc_admitted_total", adm.admitted);
        counter(&mut s, "svc_completed_total", adm.completed);
        labeled(
            &mut s,
            "svc_shed_total",
            &[
                ("queue_full", adm.shed_queue_full),
                ("draining", adm.shed_draining),
                ("inflight_cap", self.shed_inflight_cap),
            ],
        );
        counter(&mut s, "svc_slow_queries_total", self.slow_queries);
        counter(&mut s, "svc_cache_hits_total", self.cache.hits);
        counter(&mut s, "svc_cache_misses_total", self.cache.misses);
        counter(&mut s, "svc_cache_evictions_total", self.cache.evictions);
        counter(&mut s, "svc_wal_appends_total", self.wal.appends);
        counter(&mut s, "svc_wal_bytes_total", self.wal.bytes);
        counter(&mut s, "svc_wal_fsyncs_total", self.wal.fsyncs);
        counter(&mut s, "svc_batch_drains_total", b.drains);
        counter(&mut s, "svc_batch_presolved_total", b.presolved);
        counter(&mut s, "svc_batch_dedup_hits_total", b.presolved.saturating_sub(b.unique));
        counter(&mut s, "svc_batch_unique_total", b.unique);
        counter(&mut s, "svc_batch_batched_total", b.batched);
        counter(&mut s, "svc_batch_scalar_total", b.scalar);
        counter(&mut s, "svc_batch_seeded_total", b.seeded);
        labeled(
            &mut s,
            "svc_batch_skipped_total",
            &[("deadline", b.skipped_deadline), ("fault", b.skipped_fault)],
        );
        gauge(&mut s, "svc_queue_depth", adm.depth);
        gauge(&mut s, "svc_busy_workers", adm.busy_workers);
        gauge(&mut s, "svc_in_service", adm.in_service);
        // Admitted-but-unfinished work. A batching worker can hold
        // several in-service jobs, so this sums jobs, not workers.
        gauge(&mut s, "svc_inflight", adm.depth + adm.in_service);
        // High-water mark, not a live value: a single post-burst scrape
        // can tell whether any wakeup ever coalesced multiple queries.
        gauge(&mut s, "svc_batch_width", b.width_max);
        gauge(&mut s, "svc_workers", adm.workers);
        gauge(&mut s, "svc_draining", u64::from(!adm.open));
        gauge(&mut s, "svc_cache_reports", self.cache_reports);
        gauge(&mut s, "svc_ewma_service_ns", adm.ewma_service_ns);
        s
    }

    /// The `/healthz` body: is this instance accepting, and how loaded is
    /// it right now. The load figures come from the probe-consistent
    /// admission read, so `queue_depth + in_service >= admitted -
    /// completed` holds in every body.
    pub fn healthz_json(&self) -> String {
        let adm = &self.admission;
        format!(
            "{{\"ok\": true, \"accepting\": {}, \"draining\": {}, \"queue_depth\": {}, \"busy_workers\": {}, \"in_service\": {}, \"inflight\": {}, \"admitted\": {}, \"completed\": {}, \"workers\": {}, \"served\": {}}}",
            adm.open,
            !adm.open,
            adm.depth,
            adm.busy_workers,
            adm.in_service,
            adm.depth + adm.in_service,
            adm.admitted,
            adm.completed,
            adm.workers,
            adm.completed,
        )
    }
}

/// The full `/metrics` body: native series, then — when the obs registry
/// is recording — its renderer output appended verbatim (see module
/// docs for why verbatim matters).
pub fn render(native: &NativeMetrics, obs: Option<&ObsSnapshot>) -> String {
    let mut body = native.render();
    if let Some(snap) = obs {
        body.push_str(&cyclesteal_obs::prom::render_prometheus(snap));
    }
    body
}

/// Reads one HTTP request head from `stream` and returns the request
/// path, or an error string suitable for a `400`. Headers are consumed
/// and discarded; bodies are not supported (GET only).
pub(crate) fn read_request_path(stream: &mut TcpStream) -> io::Result<Result<String, String>> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Ok(Err("malformed request line".to_string())),
    };
    // Drain headers up to the blank line so the client can read our
    // response without a connection reset mid-request.
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 || h == "\r\n" || h == "\n" {
            break;
        }
    }
    if method != "GET" {
        return Ok(Err(format!("method {method} not supported")));
    }
    Ok(Ok(path))
}

/// Writes a complete HTTP/1.0 response and flushes it.
pub(crate) fn write_http_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The content type `/metrics` responses carry (Prometheus text
/// exposition format 0.0.4).
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Issues a blocking `GET <path>` against `addr` (the metrics listener)
/// and returns the response body.
///
/// # Errors
///
/// Connection/read failures, or a non-`200` status (mapped to
/// [`io::ErrorKind::Other`] with the status line as the message).
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("response has no header/body separator"))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(io::Error::other(format!(
            "GET {path}: non-200 status {status_line:?}"
        )));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_obs::prom::{check_exposition, parse_exposition};

    /// Every native series in render order: name, labels, `# TYPE`.
    /// Operators' dashboards key on these, so a restructure must not
    /// rename, relabel, retype, reorder or drop one.
    const SERIES: &[(&str, &str, &str)] = &[
        ("svc_served_total", "", "counter"),
        ("svc_admitted_total", "", "counter"),
        ("svc_completed_total", "", "counter"),
        ("svc_shed_total", "queue_full", "counter"),
        ("svc_shed_total", "draining", "counter"),
        ("svc_shed_total", "inflight_cap", "counter"),
        ("svc_slow_queries_total", "", "counter"),
        ("svc_cache_hits_total", "", "counter"),
        ("svc_cache_misses_total", "", "counter"),
        ("svc_cache_evictions_total", "", "counter"),
        ("svc_wal_appends_total", "", "counter"),
        ("svc_wal_bytes_total", "", "counter"),
        ("svc_wal_fsyncs_total", "", "counter"),
        ("svc_batch_drains_total", "", "counter"),
        ("svc_batch_presolved_total", "", "counter"),
        ("svc_batch_dedup_hits_total", "", "counter"),
        ("svc_batch_unique_total", "", "counter"),
        ("svc_batch_batched_total", "", "counter"),
        ("svc_batch_scalar_total", "", "counter"),
        ("svc_batch_seeded_total", "", "counter"),
        ("svc_batch_skipped_total", "deadline", "counter"),
        ("svc_batch_skipped_total", "fault", "counter"),
        ("svc_queue_depth", "", "gauge"),
        ("svc_busy_workers", "", "gauge"),
        ("svc_in_service", "", "gauge"),
        ("svc_inflight", "", "gauge"),
        ("svc_batch_width", "", "gauge"),
        ("svc_workers", "", "gauge"),
        ("svc_draining", "", "gauge"),
        ("svc_cache_reports", "", "gauge"),
        ("svc_ewma_service_ns", "", "gauge"),
    ];

    #[test]
    fn native_series_list_is_pinned() {
        let text = NativeMetrics::default().render();
        check_exposition(&text).expect("native series must be valid");
        let mut got = Vec::new();
        let mut kind = "";
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                kind = rest.rsplit(' ').next().unwrap();
                continue;
            }
            let (series, _value) = line.rsplit_once(' ').unwrap();
            let (name, reason) = match series.split_once("{reason=\"") {
                Some((n, r)) => (n, r.trim_end_matches("\"}")),
                None => (series, ""),
            };
            got.push((name.to_string(), reason.to_string(), kind.to_string()));
        }
        let want: Vec<_> = SERIES
            .iter()
            .map(|&(n, r, k)| (n.to_string(), r.to_string(), k.to_string()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn native_values_come_from_their_one_source() {
        let m = NativeMetrics {
            admission: AdmissionSnapshot {
                admitted: 12,
                completed: 10,
                depth: 2,
                busy_workers: 1,
                in_service: 4,
                shed_queue_full: 3,
                shed_draining: 2,
                open: false,
                ..AdmissionSnapshot::default()
            },
            batch: BatchCounts {
                width_max: 7,
                presolved: 9,
                unique: 4,
                skipped_deadline: 5,
                ..BatchCounts::default()
            },
            ..NativeMetrics::default()
        };
        let series = parse_exposition(&m.render()).unwrap();
        let value = |name: &str, reason: Option<&str>| {
            series
                .iter()
                .find(|s| s.name == name && s.label("reason") == reason)
                .unwrap_or_else(|| panic!("missing {name} {reason:?}"))
                .value
        };
        // Every dequeued job is served, then completed: one count.
        assert_eq!(value("svc_served_total", None), 10.0);
        assert_eq!(value("svc_completed_total", None), 10.0);
        assert_eq!(value("svc_shed_total", Some("queue_full")), 3.0);
        assert_eq!(value("svc_shed_total", Some("draining")), 2.0);
        // A batching worker can hold several jobs, so the inflight gauge
        // sums jobs (depth + in_service), never workers.
        assert_eq!(value("svc_inflight", None), 6.0, "queue_depth + in_service");
        assert_eq!(
            value("svc_batch_width", None),
            7.0,
            "drain-width high-water mark"
        );
        assert_eq!(
            value("svc_batch_dedup_hits_total", None),
            5.0,
            "presolved - unique"
        );
        assert_eq!(value("svc_batch_skipped_total", Some("deadline")), 5.0);
        assert_eq!(
            value("svc_draining", None),
            1.0,
            "closed admission is draining"
        );

        let health = m.healthz_json();
        assert_eq!(
            health,
            "{\"ok\": true, \"accepting\": false, \"draining\": true, \"queue_depth\": 2, \
             \"busy_workers\": 1, \"in_service\": 4, \"inflight\": 6, \"admitted\": 12, \
             \"completed\": 10, \"workers\": 0, \"served\": 10}"
        );
    }
    #[test]
    fn obs_section_is_appended_verbatim() {
        let snap = ObsSnapshot {
            counters: vec![("sweep.query.count".to_string(), 4)],
            ..ObsSnapshot::default()
        };
        let body = render(&NativeMetrics::default(), Some(&snap));
        assert!(body.ends_with(&cyclesteal_obs::prom::render_prometheus(&snap)));
        check_exposition(&body).expect("combined body must stay valid");
    }

    #[test]
    fn native_and_obs_names_never_collide() {
        // The svc counters the obs registry still keeps have no native
        // twin, so their rendered names never shadow a native series.
        let snap = ObsSnapshot {
            counters: vec![
                ("svc.conn.accepted".to_string(), 1),
                ("svc.drain.completed".to_string(), 1),
                ("svc.drain.requested".to_string(), 1),
                ("svc.wal.append_failed".to_string(), 1),
                ("svc.wal.compact".to_string(), 1),
                ("svc.wal.snapshot_rejected".to_string(), 1),
                ("svc.wal.truncated".to_string(), 1),
            ],
            ..ObsSnapshot::default()
        };
        let body = render(&NativeMetrics::default(), Some(&snap));
        check_exposition(&body).expect("no duplicate series");
    }
}
