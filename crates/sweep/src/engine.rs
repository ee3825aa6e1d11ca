//! The sweep engine: shards grid points across the shared worker pool
//! (`cyclesteal_sim::parallel_map_isolated`) and collects a canonical,
//! input-order-independent report plus timing/cache metrics.
//!
//! # Fault tolerance
//!
//! Each point is evaluated under per-item panic isolation: a panicking
//! point becomes a [`FailureKind::Panicked`] record in its own row while
//! every other point completes normally. Solver errors are classified
//! into the [`FailureKind`] taxonomy — after the deterministic recovery
//! ladders in [`cyclesteal_core::recover`] have had their chance — so a
//! sweep never silently drops a point for any reason other than genuine
//! (Theorem-1 precheck) instability. Failure records are pure functions
//! of their points, so the bit-identical-report guarantee holds for
//! failing sweeps exactly as for clean ones.

use std::sync::Arc;
use std::time::Instant;

use cyclesteal_core::cache::SolveCache;
use cyclesteal_core::stability::{self, Policy};
use cyclesteal_core::cs_cq_km::Hosts;
use cyclesteal_core::{cs_cq, cs_id, dedicated, recover, AnalysisError, SystemParams};
use cyclesteal_dist::{DistError, Distribution, Exp, HyperExp2};
use cyclesteal_linalg::{LinalgError, Workspace};
use cyclesteal_markov::MarkovError;
use cyclesteal_sim::{
    parallel_map_isolated, replicate, replicate_fleet, FleetParams, PolicyKind, SimConfig,
    SimParams,
};
use cyclesteal_xtest::fault;

use crate::batch::{self, BatchStats};
use crate::grid::{Evaluator, GridSpec, Point};
use crate::report::{FailureCounts, FailureKind, SweepMetrics, SweepReport, SweepRow};

/// Execution knobs of a sweep run. Only wall-clock time depends on them —
/// never the report: the batched presolve is bit-identical to the scalar
/// pipeline (see [`crate::BatchStats`]), so `batch` on/off, like thread
/// count and chunking, cannot move a single row.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (`0` or `1` = serial on the calling thread).
    pub threads: usize,
    /// Points claimed per work-stealing step (`0` is clamped to 1).
    pub chunk: usize,
    /// A cache to reuse across runs; a fresh one is created when `None`.
    pub cache: Option<Arc<SolveCache>>,
    /// When `true`, a serial presolve phase groups the sweep's CS-CQ
    /// chains by shape and solves them through the batched
    /// factor-once/solve-many pipeline before evaluation fans out.
    pub batch: bool,
}

impl SweepOptions {
    /// Options with `threads` workers, default chunking, and the batched
    /// presolve enabled.
    pub fn threads(threads: usize) -> Self {
        SweepOptions {
            threads,
            chunk: 4,
            batch: true,
            ..SweepOptions::default()
        }
    }

    /// Attaches a shared cache (e.g. to carry solutions across sweeps or
    /// to observe hit counters from outside).
    pub fn with_cache(mut self, cache: Arc<SolveCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Forces the batched presolve on or off — `with_batch(false)` is the
    /// differential harness's scalar oracle configuration.
    pub fn with_batch(mut self, batch: bool) -> Self {
        self.batch = batch;
        self
    }
}

/// Runs a declarative grid sweep. Equivalent to
/// `run_points(&spec.name, &spec.points(), opts)`.
pub fn run(spec: &GridSpec, opts: &SweepOptions) -> (SweepReport, SweepMetrics) {
    run_points(&spec.name, &spec.points(), opts)
}

/// Evaluates an explicit point list on the worker pool.
///
/// The report's rows are sorted by canonical id and every row is a pure
/// function of its point (analysis rows via the quantized-key
/// [`SolveCache`], simulation rows via parameter-derived seeds), so the
/// report — and its JSON — is bit-identical for any thread count, chunk
/// size, and input permutation of the same multiset of points. Timings and
/// cache counters land in the separate [`SweepMetrics`].
///
/// A point whose evaluation panics yields a row with a
/// [`FailureKind::Panicked`] record (its timing slot reads zero); the
/// worker that caught the unwind keeps draining the queue, so one
/// poisoned point can never take down a sweep or drop other points.
pub fn run_points(name: &str, points: &[Point], opts: &SweepOptions) -> (SweepReport, SweepMetrics) {
    let cache = opts
        .cache
        .clone()
        .unwrap_or_else(|| Arc::new(SolveCache::new()));
    // Telemetry delta: snapshot before and after so a shared registry
    // (e.g. across back-to-back sweeps in one --obs run) attributes to
    // this run only the work it actually did.
    let obs_before = cyclesteal_obs::snapshot_if_active();
    let start = Instant::now();
    // Batched presolve: serial, on the calling thread, before the pool
    // fans out — so its work (and its telemetry) is identical for every
    // thread count and input order of the same multiset of points.
    let batch_stats = if opts.batch {
        cyclesteal_obs::span!("sweep.phase.presolve");
        WORKSPACE.with(|ws| batch::presolve(points, &cache, &mut ws.borrow_mut()))
    } else {
        BatchStats::default()
    };
    let evaluated = {
        cyclesteal_obs::span!("sweep.phase.evaluate");
        cyclesteal_obs::counter!("sweep.points", points.len() as u64);
        parallel_map_isolated(points, opts.threads, opts.chunk, |point| {
            let t = Instant::now();
            let row = evaluate(point, &cache);
            (row, t.elapsed().as_nanos() as u64)
        })
    };
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let mut point_ns = Vec::with_capacity(points.len());
    // Block-scoped so the collect span closes *before* the end-of-run
    // snapshot below (a span records at drop; one closing later would
    // leak into the next run's delta).
    let (rows, failures) = {
        cyclesteal_obs::span!("sweep.phase.collect");
        let mut rows = Vec::with_capacity(points.len());
        for (point, outcome) in points.iter().zip(evaluated) {
            let (row, ns) = match outcome {
                Ok((row, ns)) => (row, ns),
                Err(message) => (SweepRow::panicked(point, message), 0),
            };
            point_ns.push((row.id.clone(), ns));
            rows.push(row);
        }
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        let failures = FailureCounts::tally(&rows);
        // Every attributed failure — including panics caught at the pool
        // boundary — is visible as a per-kind obs counter, cross-checkable
        // against `FailureCounts`.
        if cyclesteal_obs::is_active() {
            for row in &rows {
                if let Some(f) = &row.failure {
                    cyclesteal_obs::record_counter_owned(
                        format!("sweep.failure.{}", f.kind.name()),
                        1,
                    );
                }
            }
        }
        (rows, failures)
    };

    let obs = cyclesteal_obs::snapshot_if_active().map(|end| match &obs_before {
        Some(before) => end.delta_since(before),
        None => end,
    });
    (
        SweepReport {
            name: name.to_string(),
            rows,
            obs: obs.as_ref().map(cyclesteal_obs::ObsSnapshot::counts_only),
        },
        SweepMetrics {
            threads: opts.threads,
            elapsed_ns,
            point_ns,
            cache: cache.stats(),
            failures,
            batch: batch_stats,
            obs,
        },
    )
}

thread_local! {
    /// Per-worker scratch workspace for the QBD solver. One lives on each
    /// pool thread (and one on the caller's thread for serial sweeps); the
    /// solver resets every buffer it checks out, so reuse across points
    /// never changes a row. `pub(crate)` so the query-stream presolve
    /// entry ([`crate::presolve_points`]) shares the calling thread's
    /// workspace with the evaluations that follow it.
    pub(crate) static WORKSPACE: std::cell::RefCell<Workspace> = std::cell::RefCell::new(Workspace::new());
}

/// Evaluates one point into its row. Points that violate the Theorem-1
/// stability condition yield silent `None` values (the figure harness's
/// off-the-curve cells); every other evaluation failure is attributed as
/// a [`FailureKind`] record.
fn evaluate(point: &Point, shared: &SolveCache) -> SweepRow {
    // Root span: per-point span paths aggregate identically whether the
    // point ran inline (serial sweep) or on a pool worker thread.
    cyclesteal_obs::span_root!("sweep.point");
    let mut row = SweepRow::blank(point);
    // The canonical id is the fault-injection scope: an armed FaultPlan
    // decides per *point*, never per thread or execution slot.
    let _scope = fault::Scope::enter(&row.id);
    cyclesteal_xtest::fault_point!("sweep.point" => panic!("injected fault: sweep.point"));
    // Faulted points must bypass the shared cache: a sub-result memoized
    // by a clean run of the same key would skip the injection site (or a
    // faulted run could poison the entry), making which points fault
    // depend on execution order. A throwaway cache keeps the evaluation
    // pure in both directions; clean points are unaffected.
    let local;
    let cache = if fault::scope_is_faulted() {
        local = SolveCache::new();
        &local
    } else {
        shared
    };
    match point.evaluator {
        Evaluator::Analysis => {
            evaluate_analysis(point, cache, &mut row, None);
        }
        Evaluator::Simulation {
            total_jobs,
            reps,
            base_seed,
        } => evaluate_simulation(point, total_jobs, reps, base_seed, &mut row),
    }
    row
}

/// Classifies a solver error into the report taxonomy.
pub(crate) fn classify(e: &AnalysisError) -> FailureKind {
    match e {
        AnalysisError::Unstable { .. } => FailureKind::Unstable,
        AnalysisError::Truncated {
            n_max, tail_mass, ..
        } => FailureKind::Truncated {
            n_max: *n_max,
            tail_mass: *tail_mass,
        },
        AnalysisError::DeadlineExceeded { stage, .. } => FailureKind::Timeout {
            stage: (*stage).to_string(),
        },
        AnalysisError::Param(DistError::NonFinite { site }) => FailureKind::NonFinite {
            site: (*site).to_string(),
        },
        AnalysisError::Param(p) => FailureKind::InfeasibleFit {
            reason: p.to_string(),
        },
        AnalysisError::Chain(c) => classify_chain(c),
    }
}

fn classify_chain(c: &MarkovError) -> FailureKind {
    match c {
        MarkovError::Unstable { .. } => FailureKind::Unstable,
        MarkovError::NoConvergence {
            what, iterations, ..
        } => FailureKind::NoConvergence {
            algorithm: (*what).to_string(),
            iterations: *iterations,
        },
        MarkovError::FallbackExhausted { fallback, .. } => {
            let iterations = match fallback.as_ref() {
                MarkovError::NoConvergence { iterations, .. } => *iterations,
                _ => 0,
            };
            FailureKind::NoConvergence {
                algorithm: "logarithmic reduction + functional-iteration fallback".to_string(),
                iterations,
            }
        }
        MarkovError::Linalg(LinalgError::NonFinite { site }) => FailureKind::NonFinite {
            site: (*site).to_string(),
        },
        other => FailureKind::Other {
            message: other.to_string(),
        },
    }
}

/// Evaluates an analysis point into `row`. With `deadline: Some`, the
/// CS-CQ recovery ladder is budget-steered (see
/// [`recover::analyze_cs_cq`]); `None` is the sweep engine's un-budgeted
/// path. Returns `true` when the deadline steered the ladder to a cheaper
/// rung (always `false` un-budgeted).
///
/// Every CS-CQ point, the paper's `(1, 1)` system included, goes through
/// the one fleet analysis. Fleet shapes exist for the central-queue policy
/// alone, so another policy — or `extend_longs`, which has no long-only
/// formula for fleets — at `(k, m) != (1, 1)` is an attributed infeasible
/// configuration (never a silent drop).
pub(crate) fn evaluate_analysis(
    point: &Point,
    cache: &SolveCache,
    row: &mut SweepRow,
    deadline: Option<&recover::Deadline<'_>>,
) -> bool {
    let (k, m) = point.hosts;
    let fleet = point.hosts != (1, 1);
    if fleet && point.policy != Policy::CsCq {
        row.record_failure(FailureKind::InfeasibleFit {
            reason: format!(
                "policy {} has no (k, m) fleet model (hosts {k}x{m})",
                crate::grid::policy_name(point.policy)
            ),
        });
        return false;
    }
    if fleet && point.extend_longs {
        row.record_failure(FailureKind::InfeasibleFit {
            reason: "extend_longs has no long-only formula for (k, m) fleets".to_string(),
        });
        return false;
    }
    let hosts = match Hosts::new(k, m) {
        Ok(h) => h,
        Err(e) => {
            row.record_failure(classify(&e));
            return false;
        }
    };
    let params = match SystemParams::from_loads(
        point.rho_s,
        point.mean_s,
        point.rho_l,
        point.long.moments(),
    ) {
        Ok(p) => p,
        Err(e) => {
            row.record_failure(classify(&e));
            return false;
        }
    };
    let mut steered = false;
    // Stability precheck (Theorem 1; its fleet form for CS-CQ): a
    // genuinely unstable point is data, not a failure — leave the values
    // as silent `None`s. A point that passes here but still errors below
    // is a solver problem and gets a record.
    let stable = match point.policy {
        Policy::CsCq => stability::is_stable_km(k, m, point.rho_s, point.rho_l),
        policy => stability::is_stable(policy, point.rho_s, point.rho_l),
    };
    if stable {
        let means = match point.policy {
            Policy::Dedicated => dedicated::analyze(&params),
            Policy::CsId => cs_id::analyze(&params).map(cyclesteal_core::PolicyMeans::from),
            Policy::CsCq => {
                // CS-CQ goes through the recovery ladder: infeasible
                // three-moment fits and exhausted R-iterations degrade the
                // busy-period fit order before the point is declared failed.
                // Each worker thread owns one scratch workspace for the QBD
                // solver; buffers are canonically reset on checkout, so rows
                // stay bit-identical across thread counts and sweep orders.
                let (res, rec) = WORKSPACE.with(|ws| {
                    recover::analyze_cs_cq(hosts, &params, cache, &mut ws.borrow_mut(), deadline)
                });
                steered = rec.steered;
                row.attempts = rec.attempts;
                row.degraded = rec.degraded;
                res.map(cyclesteal_core::PolicyMeans::from)
            }
        };
        match means {
            Ok(m) => {
                row.short_response = Some(m.short_response);
                row.long_response = Some(m.long_response);
            }
            // Frontier band: the margin-aware solver disagreed with the
            // precheck. Attributed, because the workload is nominally stable.
            Err(e) => row.record_failure(classify(&e)),
        }
    }
    if point.extend_longs {
        // Figure-6 semantics: the long-class curve continues past the
        // short-class asymptote via each policy's long-only formula.
        let long = match point.policy {
            Policy::Dedicated => dedicated::long_response(&params),
            Policy::CsId => cs_id::long_response(&params),
            Policy::CsCq => cs_cq::long_response_auto(&params),
        };
        row.long_response = match long {
            Ok(v) => Some(v),
            Err(AnalysisError::Unstable { .. }) => None, // long class itself saturated
            Err(e) => {
                if row.failure.is_none() {
                    row.record_failure(classify(&e));
                }
                None
            }
        };
    }
    steered
}

/// Records an attributed `infeasible_fit` failure on `row`.
fn record_infeasible(row: &mut SweepRow, e: &dyn std::fmt::Display) {
    row.record_failure(FailureKind::InfeasibleFit {
        reason: e.to_string(),
    });
}

/// The simulated laws of a point: exponential shorts, and the two-moment
/// representative of the long law — exponential at C² = 1, balanced-means
/// H₂ above (the paper's simulated workloads). A law with no
/// representative (e.g. C² < 1) is an error the caller attributes as an
/// infeasible fit, never a silently dropped point.
fn simulated_laws(point: &Point) -> Result<(Exp, Box<dyn Distribution>), DistError> {
    let shorts = Exp::with_mean(point.mean_s)?;
    let scv = point.long.scv();
    let longs: Box<dyn Distribution> = if (scv - 1.0).abs() <= 1e-9 {
        Box::new(Exp::with_mean(point.long.mean())?)
    } else {
        Box::new(HyperExp2::balanced_means(point.long.mean(), scv)?)
    };
    Ok((shorts, longs))
}

/// Simulates a point. The paper's `(1, 1)` system runs on the 2-host
/// engine; other shapes run on `cyclesteal_sim`'s fleet engine, CS-CQ
/// only, like fleet analysis points. The fork stays because the fleet
/// engine at `(1, 1)` does not reproduce the 2-host engine's draw order.
/// The seed derives from the canonical row id (which carries the `hosts`
/// suffix for fleets), a pure function of the point's parameters, never
/// from its position in the input — shuffled grids reproduce identical
/// rows. Replications stay serial here; the pool already parallelizes
/// across points.
pub(crate) fn evaluate_simulation(
    point: &Point,
    total_jobs: u64,
    reps: usize,
    base_seed: u64,
    row: &mut SweepRow,
) {
    let (k, m) = point.hosts;
    let fleet = point.hosts != (1, 1);
    if fleet && point.policy != Policy::CsCq {
        row.record_failure(FailureKind::InfeasibleFit {
            reason: format!(
                "policy {} has no (k, m) fleet simulator (hosts {k}x{m})",
                crate::grid::policy_name(point.policy)
            ),
        });
        return;
    }
    let stable = if fleet {
        stability::is_stable_km(k, m, point.rho_s, point.rho_l)
    } else {
        stability::is_stable(point.policy, point.rho_s, point.rho_l)
    };
    if !stable {
        return;
    }
    let (shorts, longs) = match simulated_laws(point) {
        Ok(laws) => laws,
        Err(e) => return record_infeasible(row, &e),
    };
    let lambda_s = point.rho_s / point.mean_s;
    let lambda_l = point.rho_l / point.long.mean();
    let config = SimConfig {
        seed: fnv1a64(row.id.as_bytes()).wrapping_add(base_seed),
        total_jobs,
        ..SimConfig::default()
    };
    let (short, long) = if fleet {
        match FleetParams::new(k, m, lambda_s, lambda_l, &shorts, &*longs) {
            Ok(params) => {
                let rep = replicate_fleet(&params, &config, reps.max(1));
                (rep.short, rep.long)
            }
            Err(e) => return record_infeasible(row, &e),
        }
    } else {
        let kind = match point.policy {
            Policy::Dedicated => PolicyKind::Dedicated,
            Policy::CsId => PolicyKind::CsId,
            Policy::CsCq => PolicyKind::CsCq,
        };
        match SimParams::new(lambda_s, lambda_l, &shorts, &*longs) {
            Ok(params) => {
                let rep = replicate(kind, &params, &config, reps.max(1));
                (rep.short, rep.long)
            }
            Err(e) => return record_infeasible(row, &e),
        }
    };
    if short.count > 0 {
        row.short_response = Some(short.mean);
        row.short_ci = Some(short.ci_half);
    }
    if long.count > 0 {
        row.long_response = Some(long.mean);
        row.long_ci = Some(long.ci_half);
    }
}

/// FNV-1a over bytes — the id-to-seed mix for simulation points.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LongLaw;

    fn small_spec() -> GridSpec {
        GridSpec::analysis("engine_test", vec![0.5, 0.9, 1.2], vec![0.3, 0.5])
    }

    #[test]
    fn serial_and_parallel_reports_agree_bitwise() {
        let (serial, _) = run(&small_spec(), &SweepOptions::threads(1));
        let (par, metrics) = run(&small_spec(), &SweepOptions::threads(8));
        assert_eq!(serial.to_json(), par.to_json());
        assert_eq!(metrics.threads, 8);
        assert_eq!(metrics.point_ns.len(), small_spec().len());
        assert!(metrics.elapsed_ns > 0);
    }

    #[test]
    fn batched_and_scalar_runs_agree_bitwise() {
        let spec = small_spec();
        let (batched, bm) = run(&spec, &SweepOptions::threads(2));
        let (scalar, sm) = run(&spec, &SweepOptions::threads(2).with_batch(false));
        assert_eq!(batched.to_json(), scalar.to_json());
        assert!(bm.batch.seeded > 0, "presolve did real work: {:?}", bm.batch);
        assert_eq!(bm.batch.eligible, 6, "six stable CS-CQ points");
        assert_eq!(sm.batch, BatchStats::default(), "scalar run skips presolve");
    }

    #[test]
    fn unstable_points_are_null_not_errors() {
        let (rep, metrics) = run(&small_spec(), &SweepOptions::default());
        // rho_s = 1.2 > 1: Dedicated undefined, CS-CQ defined.
        let ded = rep
            .rows
            .iter()
            .find(|r| r.policy == "dedicated" && r.rho_s == 1.2 && r.rho_l == 0.3)
            .unwrap();
        assert_eq!(ded.short_response, None);
        assert!(ded.failure.is_none(), "instability is data, not a failure");
        let cq = rep
            .rows
            .iter()
            .find(|r| r.policy == "cs_cq" && r.rho_s == 1.2 && r.rho_l == 0.3)
            .unwrap();
        assert!(cq.short_response.unwrap() > 0.0);
        assert_eq!(metrics.failures.total(), 0, "{:?}", metrics.failures);
    }

    #[test]
    fn clean_analysis_rows_report_one_attempt() {
        let (rep, _) = run(&small_spec(), &SweepOptions::default());
        for row in &rep.rows {
            assert_eq!(row.attempts, 1, "{}", row.id);
            assert!(!row.degraded, "{}", row.id);
            assert!(row.failure.is_none(), "{}", row.id);
        }
    }

    #[test]
    fn extend_longs_reaches_past_the_short_asymptote() {
        let mut spec = small_spec();
        spec.rho_s = vec![1.8]; // beyond the CS-CQ frontier at rho_l = 0.5
        spec.rho_l = vec![0.5];
        spec.policies = vec![Policy::CsCq];
        let (plain, _) = run(&spec, &SweepOptions::default());
        assert_eq!(plain.rows[0].short_response, None);
        assert_eq!(plain.rows[0].long_response, None);
        spec.extend_longs = true;
        let (ext, _) = run(&spec, &SweepOptions::default());
        assert_eq!(ext.rows[0].short_response, None);
        assert!(ext.rows[0].long_response.unwrap() > 0.0);
    }

    #[test]
    fn shared_cache_hits_on_the_second_identical_sweep() {
        let cache = Arc::new(SolveCache::new());
        let opts = SweepOptions::threads(2).with_cache(cache.clone());
        let (first, m1) = run(&small_spec(), &opts);
        let (second, m2) = run(&small_spec(), &opts);
        assert_eq!(first.to_json(), second.to_json());
        assert!(m2.cache.hits > m1.cache.hits, "{m1:?} vs {m2:?}");
    }

    #[test]
    fn simulation_rows_are_input_order_independent() {
        let spec = GridSpec {
            evaluator: Evaluator::Simulation {
                total_jobs: 2_000,
                reps: 2,
                base_seed: 11,
            },
            ..GridSpec::analysis("sim_order", vec![0.5, 0.8], vec![0.3])
        };
        let mut points = spec.points();
        let (fwd, _) = run_points("sim_order", &points, &SweepOptions::threads(1));
        points.reverse();
        let (rev, _) = run_points("sim_order", &points, &SweepOptions::threads(4));
        assert_eq!(fwd.to_json(), rev.to_json());
        // Simulation rows carry CIs.
        let with_ci = fwd
            .rows
            .iter()
            .find(|r| r.policy == "cs_cq" && r.short_response.is_some())
            .unwrap();
        assert!(with_ci.short_ci.is_some());
    }

    /// Regression: `C² < 1` long laws have no balanced-means H₂
    /// representative; simulation rows used to drop them silently — they
    /// must carry an attributed `infeasible_fit` record instead.
    #[test]
    fn unrepresentable_simulation_laws_are_attributed_not_dropped() {
        let spec = GridSpec {
            long_laws: vec![LongLaw::balanced(1.0, 0.5).unwrap()],
            evaluator: Evaluator::Simulation {
                total_jobs: 500,
                reps: 1,
                base_seed: 3,
            },
            ..GridSpec::analysis("low_scv", vec![0.5], vec![0.3])
        };
        let (rep, metrics) = run(&spec, &SweepOptions::default());
        assert_eq!(rep.rows.len(), 3);
        for row in &rep.rows {
            assert_eq!(row.short_response, None, "{}", row.id);
            let f = row.failure.as_ref().expect("must be attributed");
            assert!(
                matches!(&f.kind, FailureKind::InfeasibleFit { reason } if !reason.is_empty()),
                "{}: {f:?}",
                row.id
            );
        }
        assert_eq!(metrics.failures.infeasible_fit, 3);
        assert_eq!(metrics.failures.total(), 3);
    }
}
