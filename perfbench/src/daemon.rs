//! `daemon_mix`: an in-process `svc::server::Server` (2 workers, default
//! batching, metrics listener on, WAL + fdatasync in a pre-seeded data
//! dir) in two phases. First a seeded open-loop MMPP schedule from two
//! generator threads (one sends at the scheduled times, one reads the
//! answers); then a closed-loop capacity phase on a fresh server, which
//! keeps a fixed number of queries of the same mix in flight and gives
//! `points_per_s`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cyclesteal_core::cache::SolveCache;
use cyclesteal_svc::json::{self, Value};
use cyclesteal_svc::proto;
use cyclesteal_svc::server::{Server, ServerConfig};
use cyclesteal_svc::wal::DurableCache;
use cyclesteal_sweep::{run_query, SweepRow};

use crate::inputs::{self, Query, Schedule};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::{grids, Args, Metric, Outcome, THREADS};

/// Server start-ups timed per run; `setup_s` is their median. A third run
/// before each phase and the rest after the second, so the median samples
/// the host across the run.
const SETUP_REPS: usize = 24;
/// Share of `--seconds` given to the open-loop phase.
const OPEN_LOOP_SHARE: f64 = 2.0 / 3.0;
/// Sizes the capacity phase: it sends this many queries per second of its
/// share of `--seconds`, which takes about that share at the seed code.
/// The count is fixed so the benchmark's own memory does not grow with
/// the daemon's speed.
const CAPACITY_RATE: f64 = 12_000.0;
/// Queries the capacity phase keeps in flight: one full batch
/// (`ServerConfig::batch_max`) and well under the admission queue bound.
const CAPACITY_DEPTH: usize = 16;
/// The generator has fallen behind when its mean lateness over the last
/// quarter of the window exceeds the first quarter's by more than this, or
/// when its p99 lateness passes `MAX_LATENESS_P99_MS`. Scheduler jitter on
/// a busy 2-vCPU host reaches tens of ms at p99 without either growing.
const MAX_LATENESS_GROWTH_MS: f64 = 2.0;
const MAX_LATENESS_P99_MS: f64 = 100.0;
/// The backlog is growing when the last quarter of the window averages
/// this many more outstanding queries than the first quarter.
const MAX_BACKLOG_GROWTH: f64 = 8.0;
/// The sender spins, rather than sleeps, for this long before each due time.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(300);
/// How long the reader waits for any one answer before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The daemon configuration under test: everything default except two
/// workers, the metrics listener, durability in `dir`, and a per-connection
/// in-flight cap equal to the queue bound, because the generator's one
/// connection carries every simulated user.
pub fn config(dir: &Path) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        workers: THREADS,
        per_conn_inflight: defaults.queue_capacity,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        data_dir: Some(dir.to_path_buf()),
        ..defaults
    }
}

/// Writes the hot set's CS-CQ reports to a WAL in `dir`, exactly as the
/// daemon journals a computed answer, so start-up recovers them.
pub fn preseed(dir: &Path, hot: &[Query]) -> io::Result<usize> {
    let cache = SolveCache::new();
    cache.enable_report_journal();
    let (durable, _) = DurableCache::open(dir, &cache)?;
    let mut appended = 0;
    for q in hot {
        run_query(&q.point, &cache, None);
        for (key, report) in cache.take_new_reports() {
            durable.append(&key, &report)?;
            appended += 1;
        }
    }
    Ok(appended)
}

pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A scratch directory for one run, removed when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(work_dir: &Path, tag: &str) -> io::Result<Scratch> {
        let dir = work_dir.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts the daemon `reps` times on fresh copies of the seeded dir under
/// `base`, appending each start-up's wall time to `times`; the last server
/// is left running.
pub fn starts(seeded: &Path, base: &Path, reps: usize, times: &mut Vec<f64>) -> io::Result<Server> {
    for i in 0..reps {
        let dir = base.join(format!("data{i}"));
        copy_dir(seeded, &dir)?;
        let t = Instant::now();
        let server = Server::start(config(&dir))?;
        times.push(t.elapsed().as_secs_f64());
        if i + 1 == reps {
            return Ok(server);
        }
        server.drain();
        server.join()?;
    }
    Err(io::Error::other("no start-up requested"))
}

/// The numbers of one answer that the correctness check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    short_response: Option<f64>,
    long_response: Option<f64>,
    attempts: Option<u64>,
    degraded: Option<bool>,
    failure_kind: Option<String>,
}

/// One decoded response frame.
enum Reply {
    /// `ok: true`, with its id.
    Answered(String, Answer),
    Shed,
    Error,
}

fn decode(frame: &[u8]) -> Reply {
    let text = std::str::from_utf8(frame).ok();
    let doc = text.and_then(|t| json::parse(t).ok());
    match doc.filter(|d| d.get("ok").and_then(Value::as_bool) == Some(true)) {
        Some(d) => Reply::Answered(
            d.get("id")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            Answer {
                short_response: num(d.get("short_response")),
                long_response: num(d.get("long_response")),
                attempts: d.get("attempts").and_then(Value::as_u64),
                degraded: d.get("degraded").and_then(Value::as_bool),
                failure_kind: d
                    .get("failure")
                    .and_then(|f| f.get("kind"))
                    .and_then(Value::as_str)
                    .map(str::to_string),
            },
        ),
        None if text.is_some_and(|t| t.contains("\"shed\"")) => Reply::Shed,
        None => Reply::Error,
    }
}

/// What one open-loop pass observed.
pub struct Drive {
    /// Scheduled-send-to-decoded-answer latency per arrival (ms); +inf for
    /// arrivals that were shed, errored or never answered.
    pub latency_ms: Vec<f64>,
    /// (scheduled send, seconds into the window; actual minus scheduled
    /// send, ms) per arrival.
    pub lateness: Vec<(f64, f64)>,
    /// The decoded answer per arrival (`None` when shed/errored/missing).
    pub answers: Vec<Option<Answer>>,
    /// (seconds into the window, outstanding queries) at each answer.
    pub backlog: Vec<(f64, f64)>,
    pub sheds: u64,
    pub errors: u64,
}

/// Sends `schedule` open-loop to `addr` and collects every answer.
pub fn drive(addr: std::net::SocketAddr, schedule: &Schedule) -> io::Result<Drive> {
    let n = schedule.at_ns.len();
    let frames: Vec<String> = schedule
        .pick
        .iter()
        .map(|&i| schedule.queries[i].request.to_json())
        .collect();
    let ids: Vec<String> = schedule
        .pick
        .iter()
        .map(|&i| SweepRow::id_of(&schedule.queries[i].point))
        .collect();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(READ_TIMEOUT))?;
    // Arrivals in flight, by answer id, in send order.
    let pending: Mutex<HashMap<&str, VecDeque<usize>>> = Mutex::new(HashMap::new());
    let sent = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut lateness = vec![(0.0, 0.0); n];
    let mut latency_ms = vec![f64::INFINITY; n];
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let mut backlog = Vec::with_capacity(n);
    let (mut sheds, mut errors) = (0u64, 0u64);
    let send_result = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<()> {
            let mut w = &stream;
            for i in 0..n {
                let due = start + Duration::from_nanos(schedule.at_ns[i]);
                // Sleep to just short of the due time, then spin: a sleeping
                // sender wakes late by a host-dependent ~0.1 ms, which would
                // otherwise land in every measured latency.
                let now = Instant::now();
                if due > now + SPIN_BEFORE_DUE {
                    std::thread::sleep(due - now - SPIN_BEFORE_DUE);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                pending
                    .lock()
                    .expect("pending map lock")
                    .entry(ids[i].as_str())
                    .or_default()
                    .push_back(i);
                lateness[i] = (
                    schedule.at_ns[i] as f64 / 1e9,
                    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                );
                proto::write_frame(&mut w, frames[i].as_bytes())?;
                sent.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        });
        for received in 1..=n {
            let frame = match proto::read_frame(&mut reader) {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => break,
            };
            let now = Instant::now();
            match decode(&frame) {
                Reply::Answered(id, a) => {
                    let idx = pending
                        .lock()
                        .expect("pending map lock")
                        .get_mut(id.as_str())
                        .and_then(VecDeque::pop_front);
                    match idx {
                        Some(i) => {
                            let due = start + Duration::from_nanos(schedule.at_ns[i]);
                            latency_ms[i] = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                            answers[i] = Some(a);
                        }
                        None => errors += 1,
                    }
                }
                Reply::Shed => sheds += 1,
                Reply::Error => errors += 1,
            }
            let outstanding = sent.load(Ordering::SeqCst).saturating_sub(received) as f64;
            backlog.push((
                now.saturating_duration_since(start).as_secs_f64(),
                outstanding,
            ));
        }
        // Unblock a sender stuck on a dead connection, then join it.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        sender.join().expect("sender thread panicked")
    });
    send_result?;
    Ok(Drive {
        latency_ms,
        lateness,
        answers,
        backlog,
        sheds,
        errors,
    })
}

/// What the closed-loop capacity phase observed.
pub struct Saturate {
    /// The decoded answer per query (`None` when shed/errored/missing).
    pub answers: Vec<Option<Answer>>,
    pub sheds: u64,
    pub errors: u64,
    /// From the first send to the last answer.
    pub elapsed_s: f64,
    /// CPU time the daemon's own threads ran over the same span.
    pub daemon_cpu_s: f64,
}

/// Run time so far (ns) of each of this process's daemon threads (names
/// starting `svc-`), keyed by thread id, from the scheduler's per-thread
/// account in `/proc`. That account leaves out time the hypervisor took
/// from the vCPU, which on a shared host swings wall-clock capacity by up
/// to 2x between runs minutes apart.
pub fn daemon_thread_runtime_ns() -> HashMap<u64, u64> {
    let read = |tid: &Path, file: &str| std::fs::read_to_string(tid.join(file)).ok();
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let path = task.path();
        if !read(&path, "comm").is_some_and(|c| c.starts_with("svc-")) {
            continue;
        }
        let runtime = read(&path, "schedstat")
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()));
        let tid = task.file_name().to_str().and_then(|t| t.parse().ok());
        if let (Some(tid), Some(ns)) = (tid, runtime) {
            out.insert(tid, ns);
        }
    }
    out
}

/// Daemon CPU seconds between two `daemon_thread_runtime_ns` readings; a
/// thread that started in between counts from zero.
fn runtime_between(before: &HashMap<u64, u64>, after: &HashMap<u64, u64>) -> f64 {
    after
        .iter()
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum::<u64>() as f64
        / 1e9
}

/// True when `buf` starts with a whole frame (4-byte big-endian length,
/// then the payload).
fn holds_frame(buf: &[u8]) -> bool {
    buf.len() >= 4 && buf.len() - 4 >= u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}

/// Sends `mix` over one connection, keeping `depth` queries in flight and
/// sending the next as each answer arrives, and collects every answer.
/// Both directions are buffered: the requests that answer a burst of
/// replies go out in one write, so the generator's own system calls take
/// less of the two vCPUs it shares with the daemon.
pub fn saturate(addr: std::net::SocketAddr, mix: &Schedule, depth: usize) -> io::Result<Saturate> {
    let n = mix.pick.len();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut pending: HashMap<String, VecDeque<usize>> = HashMap::new();
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let (mut sheds, mut errors) = (0u64, 0u64);
    let send = |writer: &mut BufWriter<TcpStream>,
                pending: &mut HashMap<String, VecDeque<usize>>,
                i: usize| {
        let q = &mix.queries[mix.pick[i]];
        pending
            .entry(SweepRow::id_of(&q.point))
            .or_default()
            .push_back(i);
        proto::write_frame(writer, q.request.to_json().as_bytes())
    };
    let cpu_before = daemon_thread_runtime_ns();
    let start = Instant::now();
    let mut next = 0;
    while next < n.min(depth) {
        send(&mut writer, &mut pending, next)?;
        next += 1;
    }
    let mut last = start;
    for _ in 0..n {
        // Flush before any read that may wait on the socket.
        if !holds_frame(reader.buffer()) {
            writer.flush()?;
        }
        let frame = match proto::read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => break,
        };
        last = Instant::now();
        match decode(&frame) {
            Reply::Answered(id, a) => match pending.get_mut(&id).and_then(VecDeque::pop_front) {
                Some(i) => answers[i] = Some(a),
                None => errors += 1,
            },
            Reply::Shed => sheds += 1,
            Reply::Error => errors += 1,
        }
        if next < n {
            send(&mut writer, &mut pending, next)?;
            next += 1;
        }
    }
    let daemon_cpu_s = runtime_between(&cpu_before, &daemon_thread_runtime_ns());
    Ok(Saturate {
        answers,
        sheds,
        errors,
        elapsed_s: last.saturating_duration_since(start).as_secs_f64(),
        daemon_cpu_s,
    })
}

/// Mean of a time series over the last quarter of the window minus its
/// mean over the first quarter.
pub fn growth(series: &[(f64, f64)], window_s: f64) -> f64 {
    let mean_in = |lo: f64, hi: f64| {
        let v: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|&(_, b)| b)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    mean_in(0.75 * window_s, f64::INFINITY) - mean_in(0.0, 0.25 * window_s)
}

fn num(v: Option<&Value>) -> Option<f64> {
    v.and_then(Value::as_f64)
}

/// The answer's numbers against an in-process `run_query` of the same
/// point; `None` when they agree.
fn check_answer(answer: &Answer, want: &SweepRow) -> Option<String> {
    let same = |a: Option<f64>, b: Option<f64>| a.map(f64::to_bits) == b.map(f64::to_bits);
    let ok = same(answer.short_response, want.short_response)
        && same(answer.long_response, want.long_response)
        && answer.attempts == Some(u64::from(want.attempts))
        && answer.degraded == Some(want.degraded)
        && answer.failure_kind.as_deref() == want.failure.as_ref().map(|f| f.kind.name());
    (!ok).then(|| {
        format!(
            "{}: daemon ({:?}, {:?}) vs run_query ({:?}, {:?})",
            want.id,
            answer.short_response,
            answer.long_response,
            want.short_response,
            want.long_response
        )
    })
}

/// Expected rows for every distinct query, from in-process `run_query` on
/// one shared cache, as the daemon's workers share theirs.
pub fn expected_rows(schedule: &Schedule, corrupt: bool) -> Vec<SweepRow> {
    let cache = SolveCache::new();
    let chunk = schedule.queries.len().div_ceil(THREADS).max(1);
    let mut rows: Vec<SweepRow> = std::thread::scope(|scope| {
        let parts: Vec<_> = schedule
            .queries
            .chunks(chunk)
            .map(|part| {
                let cache = &cache;
                scope.spawn(move || {
                    part.iter()
                        .map(|q| run_query(&q.point, cache, None).row)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("oracle thread panicked"))
            .collect()
    });
    if corrupt {
        if let Some(v) = rows.iter_mut().find_map(|r| r.short_response.as_mut()) {
            *v *= 1.0 + 1e-9;
        }
    }
    rows
}

/// Verdict on each arrival's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Good,
    /// Answered with an attributed failure record.
    Failed,
    Wrong,
    /// Shed, errored, or never answered.
    Missing,
}

/// Checks every answer to `schedule`'s arrivals against in-process
/// `run_query`, printing a few mismatches.
pub fn check_answers(
    schedule: &Schedule,
    answers: &[Option<Answer>],
    corrupt: bool,
) -> Vec<Verdict> {
    let want = expected_rows(schedule, corrupt);
    let mut shown = 0;
    answers
        .iter()
        .zip(&schedule.pick)
        .map(|(answer, &q)| match answer {
            None => Verdict::Missing,
            Some(a) => match check_answer(a, &want[q]) {
                Some(msg) => {
                    if shown < 5 {
                        println!("MISMATCH vs run_query: {msg}");
                        shown += 1;
                    }
                    Verdict::Wrong
                }
                None if want[q].failure.is_some() => Verdict::Failed,
                None => Verdict::Good,
            },
        })
        .collect()
}

fn stop(server: Server) -> Result<(), String> {
    server.drain();
    server.join().map(|_| ()).map_err(|e| format!("drain: {e}"))
}

/// Prints the server's own counters from one `/metrics` scrape.
fn print_scrape(phase: &str, server: &Server) {
    let Some(Ok(text)) = server
        .metrics_addr()
        .map(|a| cyclesteal_svc::metrics::http_get(&a.to_string(), "/metrics"))
    else {
        println!("scrape ({phase}): /metrics unavailable");
        return;
    };
    let series = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|r| r.trim().parse::<f64>().ok())
            })
            .unwrap_or(f64::NAN)
    };
    println!(
        "scrape ({phase}): cache hits {} misses {}, wal appends {}, batch drains {}",
        series("svc_cache_hits_total "),
        series("svc_cache_misses_total "),
        series("svc_wal_appends_total "),
        series("svc_batch_drains_total ")
    );
}

/// Verdict counts, printed; returns (good, wrong).
fn tally(phase: &str, verdicts: &[Verdict], sheds: u64, errors: u64) -> (u64, u64) {
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count() as u64;
    let (good, wrong) = (count(Verdict::Good), count(Verdict::Wrong));
    println!(
        "answers ({phase}): {good} good of {}; {sheds} shed, {errors} errors, {} failure records, \
         {wrong} wrong, {} missing",
        verdicts.len(),
        count(Verdict::Failed),
        count(Verdict::Missing)
    );
    (good, wrong)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let open_s = args.seconds * OPEN_LOOP_SHARE;
    let schedule = inputs::daemon_schedule(args.seed, args.size, open_s, inputs::DAEMON_RATE);
    let n = schedule.at_ns.len();
    let hot_arrivals = schedule
        .pick
        .iter()
        .filter(|&&i| i < schedule.hot_len)
        .count();
    println!(
        "inputs: {n} open-loop arrivals over {open_s} s at {} q/s mean (MMPP), {} hot \
         ({} distinct), {} fresh; digest {:016x}",
        inputs::DAEMON_RATE,
        hot_arrivals,
        schedule.hot_len,
        n - hot_arrivals,
        inputs::digest_schedule(&schedule)
    );
    let n_cap = ((CAPACITY_RATE * (args.seconds - open_s)).round() as usize).max(1);
    let mix = inputs::capacity_mix(args.seed, args.size, n_cap);
    println!(
        "inputs: {n_cap} capacity-phase queries, {CAPACITY_DEPTH} in flight, {} fresh; digest {:016x}",
        mix.queries.len() - mix.hot_len,
        inputs::digest_schedule(&mix)
    );
    let scratch = Scratch::new(&args.work_dir, "daemon").map_err(|e| e.to_string())?;
    let seeded = scratch.0.join("seeded");
    let appended =
        preseed(&seeded, &schedule.queries[..schedule.hot_len]).map_err(|e| e.to_string())?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let batch = SETUP_REPS / 3;

    // Phase 1, open loop: report-only latencies and the integrity check.
    let server =
        starts(&seeded, &scratch.0.join("open"), batch, &mut setups).map_err(|e| e.to_string())?;
    let recovered = server.recovery().wal_entries + server.recovery().snapshot_entries;
    println!("recovery: {recovered} reports recovered from a {appended}-record pre-seeded WAL");
    let result = drive(server.addr(), &schedule);
    print_scrape("open loop", &server);
    stop(server)?;
    let d = result.map_err(|e| format!("generator: {e}"))?;

    // Open-loop integrity: a generator that fell behind or a backlog that
    // kept growing means the latencies below do not describe this rate.
    let late: Vec<f64> = d.lateness.iter().map(|&(_, l)| l).collect();
    let late_p99 = percentile(&late, 0.99);
    let late_growth = growth(&d.lateness, open_s);
    let backlog_growth = growth(&d.backlog, open_s);
    println!(
        "generator: lateness p99 {late_p99:.3} ms, lateness growth {late_growth:.3} ms, \
         backlog growth {backlog_growth:.2} queries (last quarter minus first)"
    );
    if late_p99 > MAX_LATENESS_P99_MS
        || late_growth > MAX_LATENESS_GROWTH_MS
        || backlog_growth > MAX_BACKLOG_GROWTH
    {
        return Err(format!(
            "invalid run: the generator fell behind or the backlog kept growing \
             (limits: lateness p99 {MAX_LATENESS_P99_MS} ms, lateness growth \
             {MAX_LATENESS_GROWTH_MS} ms, backlog growth {MAX_BACKLOG_GROWTH})"
        ));
    }

    // Phase 2, closed loop on a fresh server: saturated answers per second.
    let server = starts(&seeded, &scratch.0.join("capacity"), batch, &mut setups)
        .map_err(|e| e.to_string())?;
    let result = saturate(server.addr(), &mix, CAPACITY_DEPTH);
    // Read before the correctness checks, whose oracle runs are not the
    // workload.
    let peak_rss = peak_rss_mb();
    print_scrape("capacity", &server);
    stop(server)?;
    let c = result.map_err(|e| format!("capacity generator: {e}"))?;
    let tail = starts(
        &seeded,
        &scratch.0.join("tail"),
        SETUP_REPS - setups.len(),
        &mut setups,
    )
    .map_err(|e| e.to_string())?;
    stop(tail)?;
    grids::print_setups(&setups);

    let verdicts = check_answers(&schedule, &d.answers, args.corrupt_oracle);
    let (good, wrong) = tally("open loop", &verdicts, d.sheds, d.errors);
    let cap_verdicts = check_answers(&mix, &c.answers, args.corrupt_oracle);
    let (cap_good, cap_wrong) = tally("capacity", &cap_verdicts, c.sheds, c.errors);
    // Anything but a good answer misses every latency limit.
    let latency: Vec<f64> = d
        .latency_ms
        .iter()
        .zip(&verdicts)
        .map(|(&l, &v)| if v == Verdict::Good { l } else { f64::INFINITY })
        .collect();
    println!(
        "report-only query_p50_ms = {} ms (n={n}; not bounded: host noise, see README)",
        median(&latency)
    );
    println!(
        "report-only query_p99_ms = {} ms (n={n}; not bounded: host noise, see README)",
        percentile(&latency, 0.99)
    );
    println!(
        "capacity: {cap_good} good answers in {:.3} s wall ({:.0} q/s, report-only: host \
         steal moves it) using {:.3} s of daemon-thread CPU ({:.0} q per CPU-second, the \
         points_per_s below)",
        c.elapsed_s,
        cap_good as f64 / c.elapsed_s.max(1e-9),
        c.daemon_cpu_s,
        cap_good as f64 / c.daemon_cpu_s.max(1e-9)
    );
    let attempted = (n + n_cap) as u64;
    Ok(Outcome {
        correct: wrong == 0 && cap_wrong == 0,
        attempted,
        failed: attempted - good - cap_good,
        metrics: vec![
            Metric::new(
                "points_per_s",
                "points/s",
                cap_good as f64 / c.daemon_cpu_s.max(1e-9),
                n_cap,
            ),
            Metric::new("setup_s", "s", median(&setups), setups.len()),
            Metric::new("peak_rss_mb", "MiB", peak_rss, 1),
        ],
    })
}
