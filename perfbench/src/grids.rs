//! `paper_grid` and `fleet_grid`: closed-loop repetitions of
//! `sweep::run_points` on 2 threads, each with a cold `SolveCache`.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cyclesteal_core::cs_cq_km::Hosts;
use cyclesteal_core::stability::{self, Policy};
use cyclesteal_core::{cs_cq, cs_cq_km, cs_id, dedicated, SystemParams};
use cyclesteal_sweep::{run_points, Point, SweepOptions, SweepReport, SweepRow};

use crate::inputs::{self, below, Size};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::{Args, Metric, Outcome, Workload, THREADS};

/// Set-ups timed per run; `setup_s` is their median. The first runs before
/// the window and the rest are spread across it, between repetitions, so
/// the median samples the same host conditions the repetitions do.
const SETUP_REPS: usize = 25;
/// Most points in the set-up's warm-up pass (`fleet_grid` has only its 40
/// (2,2) points cheap enough to take part).
const WARMUP_POINTS: usize = 300;
/// Repetitions after which `peak_rss_mb` is read: a fixed amount of work,
/// so the reading does not depend on how many repetitions the window fits
/// (a faster program fits more, and the allocator's high-water mark creeps
/// up with them: on `fleet_grid` it is about 80 MiB after one repetition,
/// 150-170 MiB after three and 240-280 MiB after thirteen).
const RSS_REPS: usize = 1;
/// Rows per run cross-checked against the direct analysis entry points.
const CROSS_CHECK_ROWS: usize = 24;

pub fn points_for(workload: Workload, seed: u64, size: Size) -> Vec<Point> {
    match workload {
        Workload::PaperGrid => inputs::paper_grid(seed, size),
        Workload::FleetGrid => inputs::fleet_grid(seed, size),
        Workload::DaemonMix => unreachable!("the daemon workload has no grid"),
    }
}

/// A fixed slice of the grid's cheap points (at most four hosts).
pub fn warmup_slice(points: &[Point]) -> Vec<Point> {
    let cheap: Vec<Point> = points
        .iter()
        .filter(|p| p.hosts.0 * p.hosts.1 <= 4)
        .copied()
        .collect();
    let step = (cheap.len() / WARMUP_POINTS).max(1);
    cheap
        .into_iter()
        .step_by(step)
        .take(WARMUP_POINTS)
        .collect()
}

/// Set-up: build the grid from the seed, then one warm-up `run_points`
/// over a fixed slice of it (thread spawn, first-touch allocation).
fn setup(workload: Workload, args: &Args) -> (Vec<Point>, f64) {
    let t = Instant::now();
    let points = points_for(workload, args.seed, args.size);
    let warm = warmup_slice(&points);
    let _ = std::hint::black_box(run_points("warmup", &warm, &SweepOptions::threads(THREADS)));
    (points, t.elapsed().as_secs_f64())
}

/// Report JSON without the telemetry block: the byte-identity contract
/// covers rows, not the counters a traced build embeds.
pub fn rows_json(report: &SweepReport) -> String {
    let mut r = report.clone();
    r.obs = None;
    r.to_json()
}

/// Row lines of `got` that differ from `want` (one row per line).
pub fn mismatched_rows(got: &str, want: &str) -> Vec<String> {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let mut bad: Vec<String> = g
        .iter()
        .zip(&w)
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a.trim().to_string())
        .collect();
    if g.len() != w.len() {
        bad.push(format!("row count {} != oracle {}", g.len(), w.len()));
    }
    bad
}

/// The scalar, unbatched, 1-thread oracle of `points`. `corrupt` perturbs
/// one oracle value so the self-test can prove a mismatch is caught.
pub fn oracle(name: &str, points: &[Point], corrupt: bool) -> SweepReport {
    let (mut report, _) = run_points(name, points, &SweepOptions::threads(1).with_batch(false));
    if corrupt {
        if let Some(v) = report
            .rows
            .iter_mut()
            .find_map(|r| r.short_response.as_mut())
        {
            *v *= 1.0 + 1e-9;
        }
    }
    report
}

fn close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => (x - y).abs() <= 1e-8 * x.abs().max(y.abs()),
        _ => false,
    }
}

/// Cross-checks a seeded sample of rows against the direct analysis entry
/// points (`cs_cq::analyze`, `cs_cq_km::analyze`, `cs_id::analyze`,
/// `dedicated::analyze`) on the un-snapped parameters. Returns mismatches.
pub fn cross_check(report: &SweepReport, points: &[Point], seed: u64, rows: usize) -> Vec<String> {
    let mut rng = inputs::rng(seed, 9);
    // At most one point larger than (2,2): those take ~0.4 s each.
    let (small, large): (Vec<&Point>, Vec<&Point>) =
        points.iter().partition(|p| p.hosts.0 * p.hosts.1 <= 4);
    let mut sample: Vec<&Point> = (0..rows.min(small.len()))
        .map(|_| small[below(&mut rng, small.len())])
        .collect();
    if !large.is_empty() {
        sample.push(large[below(&mut rng, large.len())]);
    }
    let mut bad = Vec::new();
    for p in sample {
        let row = match report.get_point(p) {
            Some(r) => r,
            None => {
                bad.push(format!("{}: missing from the report", SweepRow::id_of(p)));
                continue;
            }
        };
        let want = direct(p);
        if !close(row.short_response, want.0) || !close(row.long_response, want.1) {
            bad.push(format!(
                "{}: sweep ({:?}, {:?}) vs direct ({:?}, {:?})",
                row.id, row.short_response, row.long_response, want.0, want.1
            ));
        }
    }
    bad
}

fn direct(p: &Point) -> (Option<f64>, Option<f64>) {
    let params = SystemParams::from_loads(p.rho_s, p.mean_s, p.rho_l, p.long.moments())
        .expect("generated loads are valid");
    let (k, m) = p.hosts;
    let stable = if p.hosts == (1, 1) {
        stability::is_stable(p.policy, p.rho_s, p.rho_l)
    } else {
        stability::is_stable_km(k, m, p.rho_s, p.rho_l)
    };
    if !stable {
        return (None, None);
    }
    let means = match (p.policy, p.hosts) {
        (Policy::Dedicated, _) => {
            dedicated::analyze(&params).map(|r| (r.short_response, r.long_response))
        }
        (Policy::CsId, _) => cs_id::analyze(&params).map(|r| (r.short_response, r.long_response)),
        (Policy::CsCq, (1, 1)) => {
            cs_cq::analyze(&params).map(|r| (r.short_response, r.long_response))
        }
        (Policy::CsCq, _) => cs_cq_km::analyze(Hosts::new(k, m).expect("valid fleet"), &params)
            .map(|r| (r.short_response, r.long_response)),
    };
    match means {
        Ok((s, l)) => (Some(s), Some(l)),
        Err(_) => (None, None),
    }
}

/// The spread of one run's set-up times, beside the median it reports.
pub fn print_setups(setups: &[f64]) {
    println!(
        "setup: {} set-ups, min {} s, median {} s, max {} s",
        setups.len(),
        percentile(setups, 0.0),
        median(setups),
        percentile(setups, 1.0)
    );
}

pub fn run(workload: Workload, args: &Args) -> Outcome {
    let (points, first_setup) = setup(workload, args);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    setups.push(first_setup);
    let n = points.len();
    println!(
        "inputs: {n} points, digest {:016x}",
        inputs::digest_points(&points)
    );

    // The timed window: whole repetitions until the window is spent.
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut rates = Vec::new();
    // Report-only point latencies, one p50 and one p99 per repetition: a
    // buffer of every point's latency would grow with the program's speed
    // and show up in `peak_rss_mb`.
    let (mut p50s_ms, mut p99s_ms) = (Vec::new(), Vec::new());
    let mut row_failures = 0u64;
    // Distinct report bytes seen, with how many repetitions produced each.
    let mut reports: Vec<(String, u64)> = Vec::new();
    let mut batch = None;
    let mut first: Option<SweepReport> = None;
    let mut peak_rss = None;
    while rates.is_empty() || started.elapsed() < window {
        let t = Instant::now();
        let (report, metrics) =
            run_points(workload.name(), &points, &SweepOptions::threads(THREADS));
        let wall = t.elapsed().as_secs_f64();
        rates.push(n as f64 / wall);
        let failing: HashSet<&str> = report
            .rows
            .iter()
            .filter(|r| r.failure.is_some())
            .map(|r| r.id.as_str())
            .collect();
        row_failures += failing.len() as u64;
        // A failed or panicked point misses every latency limit.
        let latencies_ms: Vec<f64> = metrics
            .point_ns
            .iter()
            .map(|(id, ns)| {
                if failing.contains(id.as_str()) {
                    f64::INFINITY
                } else {
                    *ns as f64 / 1e6
                }
            })
            .collect();
        p50s_ms.push(percentile(&latencies_ms, 0.50));
        p99s_ms.push(percentile(&latencies_ms, 0.99));
        batch.get_or_insert(metrics.batch);
        let json = rows_json(&report);
        match reports.iter_mut().find(|(j, _)| *j == json) {
            Some((_, count)) => *count += 1,
            None => reports.push((json, 1)),
        }
        first.get_or_insert(report);
        if rates.len() == RSS_REPS {
            peak_rss = Some(peak_rss_mb());
        }
        let due = (SETUP_REPS as f64 * started.elapsed().as_secs_f64() / args.seconds).ceil();
        while (setups.len() as f64) < due.min(SETUP_REPS as f64) {
            setups.push(setup(workload, args).1);
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup(workload, args).1);
    }
    print_setups(&setups);
    let reps = rates.len();
    let peak_rss = peak_rss.unwrap_or_else(peak_rss_mb);

    // Correctness, outside the window.
    let want = rows_json(&oracle(workload.name(), &points, args.corrupt_oracle));
    let mut mismatched = 0u64;
    for (json, count) in &reports {
        let bad = mismatched_rows(json, &want);
        for line in bad.iter().take(5) {
            println!("MISMATCH vs scalar oracle: {line}");
        }
        mismatched += bad.len() as u64 * count;
    }
    let cross_rows = match args.size {
        Size::Full => CROSS_CHECK_ROWS,
        Size::Tiny => 4,
    };
    let first = first.expect("at least one repetition ran");
    let cross = cross_check(&first, &points, args.seed, cross_rows);
    for line in &cross {
        println!("MISMATCH vs direct entry point: {line}");
    }
    if let Some(b) = batch {
        println!(
            "batch presolve: {} eligible, {} unique, {} batched in {} groups, {} scalar",
            b.eligible, b.unique, b.batched, b.batches, b.scalar
        );
    }

    let attempted = (n * reps) as u64;
    let failed = row_failures + mismatched + cross.len() as u64;
    println!(
        "report-only query_p50_ms = {} ms (n={n}x{reps}; median over repetitions; \
         not bounded: host noise, see README)",
        median(&p50s_ms)
    );
    println!(
        "report-only query_p99_ms = {} ms (n={n}x{reps}; median over repetitions; \
         not bounded: host noise, see README)",
        median(&p99s_ms)
    );
    Outcome {
        correct: mismatched == 0 && cross.is_empty(),
        attempted,
        failed,
        metrics: vec![
            Metric::new("points_per_s", "points/s", median(&rates), reps),
            Metric::new("setup_s", "s", median(&setups), SETUP_REPS),
            Metric::new("peak_rss_mb", "MiB", peak_rss, reps.min(RSS_REPS)),
        ],
    }
}
