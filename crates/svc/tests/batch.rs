//! End-to-end gates for server-side micro-batching: a batching daemon's
//! responses are **byte-identical** to a scalar (`batch_max = 1`)
//! daemon's, bursts genuinely coalesce (scrape-visible batch width > 1),
//! deadline-expired jobs are excluded from presolves while still
//! timing out with their honest `stage: "admission"` attribution, and a
//! cache restored from the WAL is never presolved again.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use cyclesteal_obs::prom;
use cyclesteal_svc::client::{Client, QueryRequest};
use cyclesteal_svc::json::{self, Value};
use cyclesteal_svc::metrics;
use cyclesteal_svc::proto;
use cyclesteal_svc::server::{Server, ServerConfig};
use cyclesteal_svc::wal::DurableCache;

/// The identity-gate query mix: distinct stable loads, one past the
/// stability frontier (a structured failure row), and one fleet point —
/// everything a burst can contain must compare byte-for-byte.
fn identity_mix() -> Vec<QueryRequest> {
    let mut reqs: Vec<QueryRequest> = (0..10)
        .map(|i| QueryRequest {
            rho_s: 0.55 + 0.03 * i as f64,
            rho_l: 0.5,
            ..QueryRequest::default()
        })
        .collect();
    reqs.push(QueryRequest {
        rho_s: 2.5, // unstable at rho_l = 0.5: attributed failure row
        ..QueryRequest::default()
    });
    reqs.push(QueryRequest {
        rho_s: 0.7,
        hosts: (2, 2),
        ..QueryRequest::default()
    });
    reqs
}

fn start(batch_max: usize, workers: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        queue_capacity: 64,
        per_conn_inflight: 64,
        batch_max,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("start")
}

/// Pipelines `reqs` on one connection and returns the raw response
/// frames in arrival order.
fn pipelined(server: &Server, reqs: &[QueryRequest]) -> Vec<String> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    for req in reqs {
        proto::write_frame(&mut stream, req.to_json().as_bytes()).expect("send");
    }
    (0..reqs.len())
        .map(|i| {
            let frame = proto::read_frame(&mut stream)
                .expect("read")
                .unwrap_or_else(|| panic!("connection closed before response {i}"));
            String::from_utf8(frame).expect("utf8")
        })
        .collect()
}

/// Sends `reqs` one at a time (strictly serial) and returns the raw
/// responses in order.
fn serial(server: &Server, reqs: &[QueryRequest]) -> Vec<String> {
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    reqs.iter()
        .map(|req| client.call_raw(&req.to_json()).expect("query"))
        .collect()
}

fn scrape(server: &Server) -> Vec<prom::Series> {
    let addr = server.metrics_addr().expect("metrics listener").to_string();
    let body = metrics::http_get(&addr, "/metrics").expect("scrape");
    prom::parse_exposition(&body).expect("parse")
}

fn series_value(series: &[prom::Series], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    series
        .iter()
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels.iter().all(|(k, v)| s.label(k) == Some(*v))
        })
        .map(|s| s.value)
}

/// The core acceptance gate at one worker: a single-worker daemon
/// answers in admission order, so the batched and scalar transcripts
/// must match byte-for-byte — bursty and serial alike.
#[test]
fn batched_responses_are_byte_identical_to_scalar_at_one_worker() {
    let reqs = identity_mix();
    let batched = start(8, 1);
    let scalar = start(1, 1);

    let from_batched = pipelined(&batched, &reqs);
    let from_scalar = pipelined(&scalar, &reqs);
    assert_eq!(
        from_batched, from_scalar,
        "pipelined burst: batching moved response bytes"
    );

    // Serial traffic (batch width always 1) through the same daemons —
    // including re-asking warm-cache questions — must also match.
    let serial_batched = serial(&batched, &reqs);
    let serial_scalar = serial(&scalar, &reqs);
    assert_eq!(
        serial_batched, serial_scalar,
        "serial stream: batching moved response bytes"
    );
    assert_eq!(
        from_batched, serial_batched,
        "a warm cache must not change any response"
    );

    for server in [batched, scalar] {
        server.drain();
        server.join().expect("join");
    }
}

/// The same gate at four workers: completion order is racy, so compare
/// the sorted response multisets (every response is distinct — the mix
/// has no duplicate points).
#[test]
fn batched_responses_match_scalar_at_four_workers() {
    let reqs = identity_mix();
    let batched = start(8, 4);
    let scalar = start(1, 4);

    let mut from_batched = pipelined(&batched, &reqs);
    let mut from_scalar = pipelined(&scalar, &reqs);
    from_batched.sort();
    from_scalar.sort();
    assert_eq!(from_batched, from_scalar);

    for server in [batched, scalar] {
        server.drain();
        server.join().expect("join");
    }
}

/// A pipelined burst against a slowed single worker genuinely
/// coalesces: the scrape shows a drain of width > 1, presolved points,
/// and chains seeded through the batched pipeline.
#[test]
fn a_burst_coalesces_multiple_queries_per_wakeup() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        per_conn_inflight: 64,
        batch_max: 8,
        slow_ms: 10,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("start");

    let reqs: Vec<QueryRequest> = (0..8)
        .map(|i| QueryRequest {
            rho_s: 0.55 + 0.02 * i as f64,
            ..QueryRequest::default()
        })
        .collect();
    let responses = pipelined(&server, &reqs);
    assert!(responses
        .iter()
        .all(|r| r.contains("\"ok\": true") || r.contains("\"ok\":true")));

    let series = scrape(&server);
    let value = |name: &str| series_value(&series, name, &[]).expect(name);
    assert!(
        value("svc_batch_width") > 1.0,
        "the slowed worker must have drained > 1 job in one wakeup"
    );
    assert!(value("svc_batch_drains_total") >= 1.0);
    assert!(
        value("svc_batch_seeded_total") >= 1.0,
        "the presolve must have seeded at least one chain"
    );
    assert_eq!(
        series_value(&series, "svc_batch_skipped_total", &[("reason", "deadline")]),
        Some(0.0)
    );

    server.drain();
    server.join().expect("join");
}

/// Jobs whose budget expired while queued are excluded from the batch
/// presolve (no solver work spent on them) and still answer with the
/// honest `timeout { stage: "admission" }` attribution.
#[test]
fn deadline_expired_jobs_skip_presolve_but_still_time_out() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        per_conn_inflight: 64,
        batch_max: 8,
        slow_ms: 60,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("start");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");

    // Occupy the worker with an unbudgeted query, and give it a beat to
    // claim the job so the budgeted burst below queues behind it.
    let occupy = QueryRequest {
        rho_s: 0.6,
        ..QueryRequest::default()
    };
    proto::write_frame(&mut stream, occupy.to_json().as_bytes()).expect("send");
    std::thread::sleep(Duration::from_millis(20));

    // These queue for >= 60 ms (the worker's slow-query hook) against a
    // 1 ms budget: all expired by the time the next wakeup drains them.
    const EXPIRED: usize = 4;
    for i in 0..EXPIRED {
        let req = QueryRequest {
            rho_s: 0.7 + 0.02 * i as f64,
            budget_ns: Some(1_000_000),
            ..QueryRequest::default()
        };
        proto::write_frame(&mut stream, req.to_json().as_bytes()).expect("send");
    }

    let first = proto::read_frame(&mut stream).expect("read").expect("occupying response");
    assert!(String::from_utf8(first).expect("utf8").contains("\"ok\": true"));
    for i in 0..EXPIRED {
        let frame = proto::read_frame(&mut stream)
            .expect("read")
            .unwrap_or_else(|| panic!("no response {i}"));
        let raw = String::from_utf8(frame).expect("utf8");
        let v = json::parse(&raw).expect("json");
        let failure = v.get("failure").expect("expired query must fail");
        assert_eq!(
            failure.get("kind").and_then(Value::as_str),
            Some("timeout"),
            "expired-in-queue query must time out: {raw}"
        );
        assert_eq!(
            failure.get("stage").and_then(Value::as_str),
            Some("admission"),
            "the honest attribution is the admission stage: {raw}"
        );
    }

    let series = scrape(&server);
    let skipped =
        series_value(&series, "svc_batch_skipped_total", &[("reason", "deadline")]).expect("series");
    assert!(
        skipped >= 1.0,
        "the drain must have excluded expired jobs from its presolve"
    );

    server.drain();
    server.join().expect("join");
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cyclesteal-batch-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A daemon restarted from its WAL holds every report and nothing else.
/// A burst of the same queries must then presolve nothing (each key's
/// report is present, so no point is fitted, built or solved) and answer
/// byte-identically to the first run.
#[test]
fn a_wal_restored_cache_is_not_presolved_again() {
    let reqs = identity_mix();
    let served_dir = tmp_dir("served");
    let wal_dir = tmp_dir("wal-only");

    let first_server = Server::start(ServerConfig {
        data_dir: Some(served_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start");
    let first = serial(&first_server, &reqs);
    // Every report is appended before its response is sent. Copy the WAL
    // alone now, before the drain compacts it into a snapshot.
    std::fs::create_dir_all(&wal_dir).expect("wal dir");
    std::fs::copy(
        DurableCache::wal_path(&served_dir),
        DurableCache::wal_path(&wal_dir),
    )
    .expect("copy wal");
    first_server.drain();
    first_server.join().expect("join");

    let restarted = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        per_conn_inflight: 64,
        batch_max: 16,
        slow_ms: 10,
        data_dir: Some(wal_dir.clone()),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("restart");
    let rec = restarted.recovery();
    assert_eq!(rec.snapshot_entries, 0, "restored from the WAL alone");
    assert_eq!(
        rec.wal_entries,
        reqs.len() - 1,
        "every stable query's report is in the WAL"
    );

    let burst = pipelined(&restarted, &reqs);
    assert_eq!(burst, first, "a restored cache must not change any response");

    let series = scrape(&restarted);
    let value = |name: &str| series_value(&series, name, &[]).expect(name);
    assert!(
        value("svc_batch_width") > 1.0,
        "the slowed worker must have drained > 1 job in one wakeup"
    );
    assert!(value("svc_batch_presolved_total") >= 2.0);
    assert_eq!(value("svc_batch_unique_total"), 0.0, "nothing left to solve");
    assert_eq!(value("svc_batch_seeded_total"), 0.0);

    restarted.drain();
    restarted.join().expect("join restarted");
    let _ = std::fs::remove_dir_all(&served_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
}
