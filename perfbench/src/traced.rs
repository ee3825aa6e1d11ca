//! The traced run (`--trace 1`, `traced` build only). It replays a fixed,
//! seeded sample of the workload's inputs through each layer's public
//! functions one stage at a time, recording a span around every call from
//! the benchmark's own code, and reads the program's existing counters as
//! counts. It never feeds the end-to-end numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cyclesteal_core::cache::SolveCache;
use cyclesteal_core::cs_cq_km::Hosts;
use cyclesteal_core::stability::{self, Policy};
use cyclesteal_core::{cs_cq, cs_cq_km, cs_id, dedicated, SystemParams};
use cyclesteal_dist::{fit_ph, Moments3};
use cyclesteal_linalg::Workspace;
use cyclesteal_markov::Qbd;
use cyclesteal_obs::{Hist, ObsSnapshot};
use cyclesteal_svc::json;
use cyclesteal_svc::proto;
use cyclesteal_svc::wal::DurableCache;
use cyclesteal_sweep::{presolve_points, run_points, run_query, Point, SweepOptions};

use crate::daemon::{self, Scratch, Verdict};
use crate::grids;
use crate::inputs::{self, below, Size};
use crate::stats::{median, percentile};
use crate::{Args, Metric, Outcome, Workload, THREADS};

/// Counts every heap block requested (`alloc` and `realloc`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to the system allocator; the only
// addition is a relaxed counter increment, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap blocks requested while `f` runs (single-threaded replay only).
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move. Each traced run prints all of them; a layer
/// the workload never reaches prints 0 with `n=0`.
#[rustfmt::skip]
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("dist.fit.us", "us", "points_per_s on paper_grid"),
    ("dist.fit.calls_per_point", "count", "points_per_s on paper_grid"),
    ("core.cs_id.us", "us", "points_per_s on paper_grid"),
    ("core.cs_id.share", "ratio", "points_per_s on paper_grid (flat on fleet_grid)"),
    ("core.build.us.h11", "us", "points_per_s on paper_grid"),
    ("core.build.us.h22", "us", "points_per_s on fleet_grid"),
    ("core.build.us.h44", "us", "points_per_s on fleet_grid"),
    ("core.report.self_us", "us", "points_per_s on paper_grid"),
    ("core.cache.hit_ratio", "ratio", "points_per_s on paper_grid and daemon_mix"),
    ("core.build.allocs.h11", "count", "points_per_s on paper_grid"),
    ("core.build.allocs.h44", "count", "points_per_s on fleet_grid"),
    ("markov.signature.us.h22", "us", "points_per_s on fleet_grid"),
    ("markov.signature.us.h44", "us", "points_per_s on fleet_grid"),
    ("markov.solve.us.h11", "us", "points_per_s on paper_grid"),
    ("markov.solve.us.h22", "us", "points_per_s on fleet_grid"),
    ("markov.solve.us.h44", "us", "points_per_s on fleet_grid"),
    ("markov.lr.us.h44", "us", "points_per_s on fleet_grid"),
    ("markov.boundary.us.h44", "us", "points_per_s on fleet_grid"),
    ("markov.solve_batch.us_per_point.h11", "us", "points_per_s on paper_grid"),
    ("markov.solve_batch.us_per_point.h22", "us", "points_per_s on fleet_grid"),
    ("markov.solve.allocs.h11", "count", "points_per_s on paper_grid"),
    ("markov.solve.allocs.h44", "count", "points_per_s on fleet_grid"),
    ("markov.lr_iters.mean", "count", "points_per_s on fleet_grid"),
    ("linalg.lu.factors_per_point", "count", "points_per_s on paper_grid"),
    ("linalg.lu.dim_mean", "count", "points_per_s on paper_grid"),
    ("sweep.presolve.share", "ratio", "points_per_s on fleet_grid"),
    ("sweep.evaluate.parallel_eff", "ratio", "points_per_s on paper_grid"),
    ("sweep.point.us_p99", "us", "points_per_s on fleet_grid"),
    ("sweep.batch.batched_frac", "ratio", "points_per_s on fleet_grid"),
    ("sweep.query.hit_us", "us", "points_per_s on daemon_mix; query_p50_ms (report-only)"),
    ("sweep.query.miss_us", "us", "points_per_s on daemon_mix; query_p99_ms (report-only)"),
    ("svc.proto.frame_us", "us", "points_per_s on daemon_mix; query_p50_ms (report-only)"),
    ("svc.json.parse_us", "us", "points_per_s on daemon_mix; query_p50_ms (report-only)"),
    ("svc.wal.append_us_p50", "us", "points_per_s on daemon_mix; query_p99_ms (report-only)"),
    ("svc.wal.append_us_p99", "us", "points_per_s on daemon_mix; query_p99_ms (report-only)"),
    ("svc.wal.recover_s", "s", "setup_s on daemon_mix"),
    ("svc.queue_wait_us_p99", "us", "query_p99_ms (report-only) on daemon_mix"),
    ("svc.service_us_p50", "us", "points_per_s on daemon_mix; query_p50_ms (report-only)"),
    ("svc.batch.width_mean", "count", "points_per_s on daemon_mix"),
    ("svc.shed.count", "count", "failed_frac on daemon_mix"),
    ("obs.trace_overhead", "ratio", "none: bounds what the traced numbers mean"),
];

/// The spans that make up one pass of the analysis pipeline per point.
const PIPELINE_STAGES: &[&str] = &[
    "sweep.point",
    "core.dedicated.analyze",
    "core.cs_id.analyze",
    "dist.fit",
    "core.build_qbd_model",
    "markov.signature",
    "markov.solve_in",
    "core.report (derived)",
];

/// One recorded span: a call into a layer's public function.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The point or query the call served.
    id: usize,
}

/// In-memory span recorder; written out once, when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    fn span<R>(&mut self, name: &'static str, id: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        r
    }

    /// Like [`Tracer::span`] for a leaf call; also returns its duration (µs).
    fn leaf<R>(&mut self, name: &'static str, id: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let r = self.span(name, id, |_| f());
        let s = self.spans.last().expect("span just recorded");
        (r, (s.end_ns - s.start_ns) as f64 / 1e3)
    }

    /// Self time per span name: duration minus time covered by children.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        std::fs::write(path, text)
    }
}

/// Collected per-layer values: name -> (value, samples).
#[derive(Default)]
struct Layers(HashMap<&'static str, (f64, usize)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            LAYER_METRICS.iter().any(|m| m.0 == name),
            "{name} is not a listed metric"
        );
        if samples > 0 && value.is_finite() {
            self.0.insert(name, (value, samples));
        }
    }

    fn p50(&mut self, name: &'static str, values: &[f64]) {
        self.set(name, median(values), values.len());
    }
}

fn shape_tag(hosts: (usize, usize)) -> Option<&'static str> {
    match hosts {
        (1, 1) => Some("h11"),
        (2, 2) => Some("h22"),
        (2, 4) => Some("h24"),
        (4, 4) => Some("h44"),
        _ => None,
    }
}

fn params_of(p: &Point) -> SystemParams {
    SystemParams::from_loads(p.rho_s, p.mean_s, p.rho_l, p.long.moments())
        .expect("generated loads are valid")
}

fn is_stable(p: &Point) -> bool {
    let (k, m) = p.hosts;
    if p.hosts == (1, 1) {
        stability::is_stable(p.policy, p.rho_s, p.rho_l)
    } else {
        stability::is_stable_km(k, m, p.rho_s, p.rho_l)
    }
}

fn hist_mean(h: Option<&Hist>) -> (f64, usize) {
    match h {
        Some(h) if h.count > 0 => (h.sum as f64 / h.count as f64, h.count as usize),
        _ => (f64::NAN, 0),
    }
}

/// Upper bound of the bucket holding the `q` quantile of a bit-length
/// histogram (the finest the histogram resolves), with its sample count.
fn hist_quantile(h: Option<&Hist>, q: f64) -> (f64, usize) {
    let Some(h) = h.filter(|h| h.count > 0) else {
        return (f64::NAN, 0);
    };
    let rank = ((q * h.count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in h.buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return (Hist::bucket_bounds(i).1 as f64, h.count as usize);
        }
    }
    (f64::INFINITY, h.count as usize)
}

/// Stage-by-stage replay of one point. Returns the stage timings it took.
#[derive(Default)]
struct Stages {
    fit: Vec<f64>,
    cs_id: Vec<f64>,
    report_self: Vec<f64>,
    build: BTreeMap<&'static str, Vec<f64>>,
    build_allocs: BTreeMap<&'static str, Vec<f64>>,
    signature: BTreeMap<&'static str, Vec<f64>>,
    solve: BTreeMap<&'static str, Vec<f64>>,
    solve_allocs: BTreeMap<&'static str, Vec<f64>>,
    lr: BTreeMap<&'static str, Vec<f64>>,
    boundary: BTreeMap<&'static str, Vec<f64>>,
}

fn moments(p: &Point, params: &SystemParams) -> (Moments3, Moments3) {
    if p.hosts == (1, 1) {
        (
            cs_cq::bl_moments(params).expect("stable loads"),
            cs_cq::bn_moments(params).expect("stable loads"),
        )
    } else {
        let h = Hosts::new(p.hosts.0, p.hosts.1).expect("valid fleet");
        (
            cs_cq_km::bl_moments(h, params).expect("stable loads"),
            cs_cq_km::bn_moments(h, params).expect("stable loads"),
        )
    }
}

fn build(p: &Point, params: &SystemParams) -> Qbd {
    if p.hosts == (1, 1) {
        cs_cq::build_qbd_model(params, Default::default()).expect("stable loads build")
    } else {
        let h = Hosts::new(p.hosts.0, p.hosts.1).expect("valid fleet");
        cs_cq_km::build_qbd_model(h, params, Default::default()).expect("stable loads build")
    }
}

fn analyze_uncached(p: &Point, params: &SystemParams) {
    let r = if p.hosts == (1, 1) {
        cs_cq::analyze(params)
    } else {
        cs_cq_km::analyze(
            Hosts::new(p.hosts.0, p.hosts.1).expect("valid fleet"),
            params,
        )
    };
    std::hint::black_box(r.ok());
}

fn replay_point(
    t: &mut Tracer,
    id: usize,
    p: &Point,
    ws: &mut Workspace,
    warmed: &mut Vec<(usize, usize)>,
    st: &mut Stages,
) -> Option<Qbd> {
    if !is_stable(p) {
        return None;
    }
    let params = params_of(p);
    t.span("sweep.point", id, |t| match p.policy {
        Policy::Dedicated => {
            t.leaf("core.dedicated.analyze", id, || {
                std::hint::black_box(dedicated::analyze(&params).ok())
            });
            None
        }
        Policy::CsId => {
            let (_, us) = t.leaf("core.cs_id.analyze", id, || {
                std::hint::black_box(cs_id::analyze(&params).ok())
            });
            st.cs_id.push(us);
            None
        }
        Policy::CsCq => {
            let tag = shape_tag(p.hosts).unwrap_or("other");
            let (_, fit_us) = t.leaf("dist.fit", id, || {
                let (bl, bn) = moments(p, &params);
                std::hint::black_box((fit_ph(bl).ok(), fit_ph(bn).ok()))
            });
            st.fit.push(fit_us);
            let ((qbd, allocs), build_us) = t.leaf("core.build_qbd_model", id, || {
                allocs_during(|| build(p, &params))
            });
            st.build.entry(tag).or_default().push(build_us);
            st.build_allocs.entry(tag).or_default().push(allocs as f64);
            let (_, sig_us) = t.leaf("markov.signature", id, || {
                std::hint::black_box(qbd.signature())
            });
            st.signature.entry(tag).or_default().push(sig_us);
            let shape = (qbd.boundary_dim(), qbd.phase_dim());
            if !warmed.contains(&shape) {
                // Warm the workspace for this shape; not a pipeline stage.
                t.leaf("markov.solve_in.warmup", id, || {
                    std::hint::black_box(qbd.solve_in(ws).ok())
                });
                warmed.push(shape);
            }
            let ((_, allocs), solve_us) = t.leaf("markov.solve_in", id, || {
                allocs_during(|| std::hint::black_box(qbd.solve_in(ws).ok()))
            });
            st.solve.entry(tag).or_default().push(solve_us);
            st.solve_allocs.entry(tag).or_default().push(allocs as f64);
            if tag == "h44" {
                let (_, lr_us) = t.leaf("markov.r_logarithmic_reduction", id, || {
                    std::hint::black_box(qbd.r_logarithmic_reduction().ok())
                });
                st.lr.entry(tag).or_default().push(lr_us);
                st.boundary
                    .entry(tag)
                    .or_default()
                    .push((solve_us - lr_us).max(0.0));
            }
            let (_, analyze_us) =
                t.leaf("core.analyze_uncached", id, || analyze_uncached(p, &params));
            st.report_self
                .push((analyze_us - build_us - solve_us).max(0.0));
            Some(qbd)
        }
    })
}

/// `run_points` with obs recording off and on: (wall off, wall on, the
/// recorded run's metrics).
fn overhead_pass(
    name: &str,
    points: &[Point],
    reps: usize,
) -> (f64, f64, cyclesteal_sweep::SweepMetrics) {
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut recorded = None;
    for _ in 0..reps {
        cyclesteal_obs::disable();
        let t = Instant::now();
        std::hint::black_box(run_points(name, points, &SweepOptions::threads(THREADS)));
        off.push(t.elapsed().as_secs_f64());
        cyclesteal_obs::enable();
        let t = Instant::now();
        let (_, m) = run_points(name, points, &SweepOptions::threads(THREADS));
        on.push(t.elapsed().as_secs_f64());
        recorded = Some(m);
    }
    (median(&off), median(&on), recorded.expect("reps >= 1"))
}

fn grid(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let points = grids::points_for(workload, args.seed, args.size);
    println!(
        "inputs: {} points, digest {:016x}",
        points.len(),
        inputs::digest_points(&points)
    );
    let mut layers = Layers::default();

    // Sweep layer and program counters: whole-workload passes.
    let reps = if workload == Workload::PaperGrid {
        5
    } else {
        1
    };
    let (wall_off, wall_on, m) = overhead_pass(workload.name(), &points, reps);
    layers.set("obs.trace_overhead", wall_on / wall_off, reps);
    let snap: ObsSnapshot = m.obs.clone().unwrap_or_default();
    let n = points.len();
    layers.set(
        "dist.fit.calls_per_point",
        snap.counter("dist.match3.fit_ph") as f64 / n as f64,
        n,
    );
    layers.set(
        "linalg.lu.factors_per_point",
        snap.counter("linalg.lu.factor") as f64 / n as f64,
        n,
    );
    let (dim, dims) = hist_mean(snap.histogram("linalg.lu.dim"));
    layers.set("linalg.lu.dim_mean", dim, dims);
    let (iters, solves) = hist_mean(snap.histogram("markov.qbd.lr_iters"));
    layers.set("markov.lr_iters.mean", iters, solves);
    let cache = m.cache;
    layers.set(
        "core.cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        (cache.hits + cache.misses) as usize,
    );
    layers.set(
        "sweep.batch.batched_frac",
        m.batch.batched as f64 / m.batch.eligible.max(1) as f64,
        m.batch.eligible,
    );
    let point_us: Vec<f64> = m.point_ns.iter().map(|(_, ns)| *ns as f64 / 1e3).collect();
    layers.set(
        "sweep.point.us_p99",
        percentile(&point_us, 0.99),
        point_us.len(),
    );
    cyclesteal_obs::disable();
    // Presolve alone on a cold cache, then the evaluate phase alone on the
    // cache it filled (its presolve finds nothing left to do).
    let cache = Arc::new(SolveCache::new());
    let t0 = Instant::now();
    presolve_points(&points, &cache);
    let presolve_s = t0.elapsed().as_secs_f64();
    layers.set("sweep.presolve.share", presolve_s / wall_off, 1);
    let (_, eval) = run_points(
        workload.name(),
        &points,
        &SweepOptions::threads(THREADS).with_cache(cache),
    );
    layers.set(
        "sweep.evaluate.parallel_eff",
        eval.total_point_ns() as f64 / (THREADS as f64 * eval.elapsed_ns.max(1) as f64),
        points.len(),
    );

    // Stage-by-stage replay of a seeded sample.
    let mut rng = inputs::rng(args.seed, 11);
    let sample: Vec<(usize, Point)> = match workload {
        Workload::PaperGrid => {
            let k = if args.size == Size::Full { 300 } else { 30 };
            (0..k)
                .map(|_| below(&mut rng, n))
                .map(|i| (i, points[i]))
                .collect()
        }
        _ => points.iter().copied().enumerate().collect(),
    };
    let mut t = Tracer::new();
    let mut ws = Workspace::new();
    let mut warmed = Vec::new();
    let mut st = Stages::default();
    let mut chains: BTreeMap<&'static str, Vec<Qbd>> = BTreeMap::new();
    for (id, p) in &sample {
        if let Some(q) = replay_point(&mut t, *id, p, &mut ws, &mut warmed, &mut st) {
            if let Some(tag) = shape_tag(p.hosts) {
                chains.entry(tag).or_default().push(q);
            }
        }
    }
    // Batched solves over the sample's same-shape groups.
    for (tag, qbds) in &chains {
        let mut groups: BTreeMap<(usize, usize), Vec<&Qbd>> = BTreeMap::new();
        for q in qbds {
            groups
                .entry((q.boundary_dim(), q.phase_dim()))
                .or_default()
                .push(q);
        }
        let (mut total_us, mut count) = (0.0, 0);
        for g in groups.values().filter(|g| g.len() >= 2) {
            let (_, us) = t.leaf("markov.solve_batch_in", g.len(), || {
                std::hint::black_box(Qbd::solve_batch_in(g, &mut ws))
            });
            total_us += us;
            count += g.len();
        }
        let name = match *tag {
            "h11" => "markov.solve_batch.us_per_point.h11",
            "h22" => "markov.solve_batch.us_per_point.h22",
            _ => continue,
        };
        if count > 0 {
            layers.set(name, total_us / count as f64, count);
        }
    }
    layers.p50("dist.fit.us", &st.fit);
    layers.p50("core.cs_id.us", &st.cs_id);
    layers.p50("core.report.self_us", &st.report_self);
    for (tag, name) in [
        ("h11", "core.build.us.h11"),
        ("h22", "core.build.us.h22"),
        ("h44", "core.build.us.h44"),
    ] {
        layers.p50(name, st.build.get(tag).map_or(&[][..], Vec::as_slice));
    }
    for (tag, name) in [
        ("h11", "core.build.allocs.h11"),
        ("h44", "core.build.allocs.h44"),
    ] {
        layers.p50(
            name,
            st.build_allocs.get(tag).map_or(&[][..], Vec::as_slice),
        );
    }
    for (tag, name) in [
        ("h22", "markov.signature.us.h22"),
        ("h44", "markov.signature.us.h44"),
    ] {
        layers.p50(name, st.signature.get(tag).map_or(&[][..], Vec::as_slice));
    }
    for (tag, name) in [
        ("h11", "markov.solve.us.h11"),
        ("h22", "markov.solve.us.h22"),
        ("h44", "markov.solve.us.h44"),
    ] {
        layers.p50(name, st.solve.get(tag).map_or(&[][..], Vec::as_slice));
    }
    for (tag, name) in [
        ("h11", "markov.solve.allocs.h11"),
        ("h44", "markov.solve.allocs.h44"),
    ] {
        layers.p50(
            name,
            st.solve_allocs.get(tag).map_or(&[][..], Vec::as_slice),
        );
    }
    layers.p50(
        "markov.lr.us.h44",
        st.lr.get("h44").map_or(&[][..], Vec::as_slice),
    );
    layers.p50(
        "markov.boundary.us.h44",
        st.boundary.get("h44").map_or(&[][..], Vec::as_slice),
    );

    // Stage shares cover one pass of the pipeline per point: the
    // uncached re-analysis, the stand-alone LR and the batched re-solve are
    // diagnostics that repeat work, so they get no share.
    let mut self_ns = t.self_ns();
    self_ns.insert(
        "core.report (derived)",
        (st.report_self.iter().sum::<f64>() * 1e3) as u64,
    );
    let stage_total: u64 = self_ns
        .iter()
        .filter(|(k, _)| PIPELINE_STAGES.contains(k))
        .map(|(_, v)| v)
        .sum();
    println!(
        "stage self time over the replayed sample ({} points):",
        sample.len()
    );
    for (name, ns) in &self_ns {
        let share = if PIPELINE_STAGES.contains(name) {
            format!("{:>6.1}%", 100.0 * *ns as f64 / stage_total.max(1) as f64)
        } else {
            "     -".to_string()
        };
        println!("  {name:<36} {:>10.3} ms  {share}", *ns as f64 / 1e6);
    }
    println!("CS-CQ build + signature + solve by fleet shape:");
    for (tag, builds) in &st.build {
        let total = |m: &BTreeMap<&'static str, Vec<f64>>| {
            m.get(tag).map_or(0.0, |v| v.iter().sum::<f64>() / 1e3)
        };
        println!(
            "  {tag:<6} {:>3} points: build {:>9.3} ms, signature {:>8.3} ms, solve {:>9.3} ms",
            builds.len(),
            total(&st.build),
            total(&st.signature),
            total(&st.solve)
        );
    }
    let cs_id_ns = self_ns.get("core.cs_id.analyze").copied().unwrap_or(0);
    layers.set(
        "core.cs_id.share",
        cs_id_ns as f64 / stage_total.max(1) as f64,
        sample.len(),
    );
    finish(args, &t, layers, grid_correctness(workload, args, &points))
}

/// The same scalar-oracle and direct-entry checks the end-to-end run makes.
fn grid_correctness(workload: Workload, args: &Args, points: &[Point]) -> (bool, u64, u64) {
    let (report, _) = run_points(workload.name(), points, &SweepOptions::threads(THREADS));
    let want = grids::rows_json(&grids::oracle(workload.name(), points, args.corrupt_oracle));
    let bad = grids::mismatched_rows(&grids::rows_json(&report), &want);
    for line in bad.iter().take(5) {
        println!("MISMATCH vs scalar oracle: {line}");
    }
    let cross = grids::cross_check(&report, points, args.seed, 4);
    for line in &cross {
        println!("MISMATCH vs direct entry point: {line}");
    }
    let failures = report.rows.iter().filter(|r| r.failure.is_some()).count() as u64;
    let wrong = (bad.len() + cross.len()) as u64;
    (wrong == 0, points.len() as u64, failures + wrong)
}

fn daemon_mix(args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds.min(5.0);
    let schedule = inputs::daemon_schedule(args.seed, args.size, seconds, inputs::DAEMON_RATE);
    println!(
        "inputs: {} arrivals over {seconds} s, digest {:016x}",
        schedule.at_ns.len(),
        inputs::digest_schedule(&schedule)
    );
    let mut layers = Layers::default();
    let mut t = Tracer::new();
    let hot = &schedule.queries[..schedule.hot_len];
    let fresh = &schedule.queries[schedule.hot_len..];

    // Query layer: hits on a warm cache, misses on a fresh one.
    let cache = SolveCache::new();
    for q in hot {
        run_query(&q.point, &cache, None);
    }
    let hit_us: Vec<f64> = hot
        .iter()
        .enumerate()
        .map(|(i, q)| {
            t.leaf("sweep.run_query.hit", i, || {
                std::hint::black_box(run_query(&q.point, &cache, None))
            })
            .1
        })
        .collect();
    layers.p50("sweep.query.hit_us", &hit_us);
    let miss_cache = SolveCache::new();
    miss_cache.enable_report_journal();
    let mut responses = Vec::new();
    let miss_us: Vec<f64> = fresh
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let (o, us) = t.leaf("sweep.run_query.miss", i, || run_query(&q.point, &miss_cache, None));
            responses.push(format!(
                "{{\"ok\": true, \"id\": \"{}\", \"short_response\": {:?}, \"long_response\": {:?}}}",
                o.row.id,
                o.row.short_response.unwrap_or(0.0),
                o.row.long_response.unwrap_or(0.0)
            ));
            us
        })
        .collect();
    layers.p50("sweep.query.miss_us", &miss_us);

    // Wire layers: framing in memory, JSON parse of requests and answers.
    let requests: Vec<String> = schedule
        .queries
        .iter()
        .map(|q| q.request.to_json())
        .collect();
    let frame_us: Vec<f64> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            t.leaf("svc.proto.frame", i, || {
                let mut buf = Vec::with_capacity(r.len() + 4);
                proto::write_frame(&mut buf, r.as_bytes()).expect("in-memory write");
                proto::read_frame(&mut Cursor::new(buf)).expect("in-memory read")
            })
            .1
        })
        .collect();
    layers.p50("svc.proto.frame_us", &frame_us);
    let parse_us: Vec<f64> = requests
        .iter()
        .chain(&responses)
        .enumerate()
        .map(|(i, doc)| {
            t.leaf("svc.json.parse", i, || {
                json::parse(doc).expect("well-formed JSON")
            })
            .1
        })
        .collect();
    layers.p50("svc.json.parse_us", &parse_us);

    // WAL layer: append the miss records with fdatasync; recover the seeded dir.
    let scratch = Scratch::new(&args.work_dir, "traced").map_err(|e| e.to_string())?;
    let records = miss_cache.take_new_reports();
    let wal_dir = scratch.0.join("wal");
    let (durable, _) =
        DurableCache::open(&wal_dir, &SolveCache::new()).map_err(|e| e.to_string())?;
    let append_us: Vec<f64> = records
        .iter()
        .enumerate()
        .map(|(i, (k, r))| {
            let (appended, us) = t.leaf("svc.wal.append", i, || durable.append(k, r));
            appended.map(|_| us)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("WAL append: {e}"))?;
    layers.set(
        "svc.wal.append_us_p50",
        percentile(&append_us, 0.5),
        append_us.len(),
    );
    layers.set(
        "svc.wal.append_us_p99",
        percentile(&append_us, 0.99),
        append_us.len(),
    );
    let seeded = scratch.0.join("seeded");
    daemon::preseed(&seeded, hot).map_err(|e| e.to_string())?;
    let recover_s: Vec<f64> = (0..3)
        .map(|i| {
            let (r, us) = t.leaf("svc.wal.recover", i, || {
                DurableCache::open(&seeded, &SolveCache::new())
            });
            r.map(|_| us / 1e6)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    layers.p50("svc.wal.recover_s", &recover_s);

    // Live daemon with obs recording: closed-loop overhead probe on the hot
    // set, then the open-loop schedule, then one /metrics scrape.
    cyclesteal_obs::enable();
    let server =
        daemon::starts(&seeded, &scratch.0, 1, &mut Vec::new()).map_err(|e| e.to_string())?;
    let mut client =
        cyclesteal_svc::client::Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut closed_loop = |on: bool| -> Result<f64, String> {
        if on {
            cyclesteal_obs::enable();
        } else {
            cyclesteal_obs::disable();
        }
        let t0 = Instant::now();
        for _ in 0..4 {
            for r in &requests[..schedule.hot_len] {
                client.call_raw(r).map_err(|e| e.to_string())?;
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    closed_loop(true)?;
    let off: Vec<f64> = (0..3)
        .map(|_| closed_loop(false))
        .collect::<Result<_, _>>()?;
    let on: Vec<f64> = (0..3)
        .map(|_| closed_loop(true))
        .collect::<Result<_, _>>()?;
    layers.set("obs.trace_overhead", median(&on) / median(&off), on.len());
    drop(client);
    cyclesteal_obs::reset();
    cyclesteal_obs::enable();
    let drive = daemon::drive(server.addr(), &schedule);
    let scrape = server
        .metrics_addr()
        .ok_or("metrics listener missing")
        .and_then(|a| {
            cyclesteal_svc::metrics::http_get(&a.to_string(), "/metrics")
                .map_err(|_| "scrape failed")
        })
        .map_err(str::to_string)?;
    server.drain();
    server.join().map_err(|e| e.to_string())?;
    let snap = cyclesteal_obs::snapshot();
    cyclesteal_obs::disable();
    let d = drive.map_err(|e| e.to_string())?;
    let series = cyclesteal_obs::prom::parse_exposition(&scrape)?;
    let sum = |name: &str| {
        series
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum::<f64>()
    };
    let (hits, misses) = (sum("svc_cache_hits_total"), sum("svc_cache_misses_total"));
    layers.set(
        "core.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    layers.set("svc.shed.count", sum("svc_shed_total"), d.latency_ms.len());
    let drains = sum("svc_batch_drains_total");
    if drains > 0.0 {
        layers.set(
            "svc.batch.width_mean",
            sum("svc_batch_presolved_total") / drains,
            drains as usize,
        );
    }
    let (qw, qn) = hist_quantile(snap.histogram("svc.query.queue_wait_us"), 0.99);
    layers.set("svc.queue_wait_us_p99", qw, qn);
    let (sv, sn) = hist_quantile(snap.histogram("svc.query.service_us"), 0.5);
    layers.set("svc.service_us_p50", sv, sn);

    // The p50 path: how much of a typical answer the traced layers explain.
    let verdicts = daemon::check_answers(&schedule, &d.answers, args.corrupt_oracle);
    let good = verdicts.iter().filter(|&&v| v == Verdict::Good).count() as u64;
    let wrong = verdicts.iter().filter(|&&v| v == Verdict::Wrong).count();
    let p50_us = median(&d.latency_ms) * 1e3;
    let hist_p50 = |name: &str| hist_quantile(snap.histogram(name), 0.5).0;
    let wire = 2.0 * median(&frame_us) + 2.0 * median(&parse_us);
    let late: Vec<f64> = d.lateness.iter().map(|&(_, l)| l * 1e3).collect();
    println!("p50 path of an answer ({p50_us:.1} us from scheduled send), each part's p50 in us:");
    println!("  generator lateness {:.1}", median(&late));
    println!(
        "  svc frame x2 + json parse x2 {wire:.1}; sweep.query.hit_us {:.1}",
        median(&hit_us)
    );
    println!(
        "  svc admission wait <= {}, queue wait <= {}, service <= {} (histogram bucket bounds)",
        hist_p50("svc.query.admission_wait_us"),
        hist_p50("svc.query.queue_wait_us"),
        hist_p50("svc.query.service_us")
    );
    println!("  the rest is socket transfer and thread hand-offs");
    let self_ns = t.self_ns();
    for (name, ns) in &self_ns {
        println!("  {name:<36} {:>10.3} ms", *ns as f64 / 1e6);
    }
    let n = schedule.at_ns.len() as u64;
    finish(args, &t, layers, (wrong == 0, n, n - good))
}

fn finish(
    args: &Args,
    t: &Tracer,
    layers: Layers,
    (correct, attempted, failed): (bool, u64, u64),
) -> Result<Outcome, String> {
    let path = args.work_dir.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    t.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", t.spans.len(), path.display());
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit, moves)| {
            let (value, samples) = layers.0.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                unit,
                value,
                samples,
                moves: Some(moves),
            }
        })
        .collect();
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::PaperGrid | Workload::FleetGrid => grid(args.workload, args),
        Workload::DaemonMix => daemon_mix(args),
    }
}
