//! The batch presolve planner: groups a sweep's pending CS-CQ analysis
//! points by QBD shape and solves each group through the batched
//! factor-once/solve-many pipeline ([`Qbd::solve_batch_in`]) **before**
//! the per-point evaluation phase, seeding the shared [`SolveCache`] so
//! evaluation finds every chain already solved.
//!
//! Every decision is keyed by the point's [`ReportKey`]
//! ([`cs_cq_km::cache_key`]), the same key evaluation looks its solution
//! up by: a point whose report or solution is already cached, or whose
//! key an earlier point of the batch already planned, is skipped before
//! any fit or chain is built.
//!
//! # Why this cannot change a report
//!
//! The batched solver is bit-identical to the scalar [`Qbd::solve_in`]
//! per lane (every batched kernel replays the scalar floating-point
//! sequence, and every convergence/fallback decision is per-lane — see
//! `cyclesteal_markov::qbd`), and the planner builds each chain through
//! [`cs_cq_km::plan_qbd_cached`], the exact construction path the cached
//! evaluation uses on a miss. A seeded solution is therefore the same
//! bits evaluation would have computed itself; the presolve phase is a
//! pure reordering of work. Error results are never seeded — a failing
//! point re-runs the scalar pipeline (recovery ladder included) during
//! evaluation and gets its ordinary attributed failure record.
//!
//! Points with a planned fault on their scope are skipped wholesale:
//! faulted points bypass the shared cache during evaluation (see the
//! engine), so presolving them would be wasted work at best and at worst
//! would let a clean presolve mask an injection site.

use std::collections::HashSet;

use cyclesteal_core::cache::{ReportKey, SolveCache};
use cyclesteal_core::cs_cq::BusyPeriodFit;
use cyclesteal_core::cs_cq_km::{self, Hosts};
use cyclesteal_core::stability::{self, Policy};
use cyclesteal_core::SystemParams;
use cyclesteal_linalg::Workspace;
use cyclesteal_markov::Qbd;
use cyclesteal_xtest::fault;

use crate::grid::{Evaluator, Point};
use crate::report::SweepRow;

/// Largest number of chains solved in one batched lockstep group. Chosen
/// to keep the per-iteration SoA panels (9 of `m x m x batch` doubles)
/// comfortably inside L2 for the paper's chain sizes.
const MAX_BATCH: usize = 64;

/// What the batch presolve phase did, surfaced through
/// [`SweepMetrics::batch`](crate::SweepMetrics::batch). Purely
/// informational — the report is bit-identical whether or not a presolve
/// ran at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// CS-CQ analysis points that passed the stability precheck and had
    /// no fault planned on their scope (the planner's candidates,
    /// counted before deduplication).
    pub eligible: usize,
    /// Distinct report keys planned whose report and solution were not
    /// already cached — the solves the presolve phase actually performed.
    pub unique: usize,
    /// Same-shape groups (≥ 2 chains) dispatched to the batched solver.
    pub batches: usize,
    /// Chains solved inside those batched groups.
    pub batched: usize,
    /// Chains whose shape group degenerated to a single member and were
    /// solved through the scalar path instead.
    pub scalar: usize,
    /// Successful solutions seeded into the shared cache (failed solves
    /// are never seeded; evaluation re-attributes them scalar-side).
    pub seeded: usize,
    /// Otherwise-eligible points skipped because the armed fault plan
    /// targets their scope.
    pub skipped_faulted: usize,
}

/// Plans and presolves the batchable chains of `points`, seeding `cache`.
///
/// Runs serially on the caller's thread (the engine invokes it before the
/// evaluation phase fans out), so the stats — like everything else about
/// the presolve — are independent of the sweep's thread count.
pub(crate) fn presolve(points: &[Point], cache: &SolveCache, ws: &mut Workspace) -> BatchStats {
    let mut stats = BatchStats::default();
    let planned = plan(points, cache, &mut stats);
    solve_and_seed(planned, cache, ws, &mut stats);
    stats
}

/// The query-stream presolve entry: plan, batch-solve, and seed the
/// chains of `points` on the calling thread, using the calling thread's
/// scratch [`Workspace`] (the same per-thread workspace
/// [`crate::run_query`] evaluates with).
///
/// This is the seam a serving daemon shares with the sweep engine: a
/// worker that drained several compatible queries hands their points
/// here, then answers each query individually through the ordinary
/// scalar path — which now finds every planned chain already in `cache`.
/// The bit-identity argument of the module docs applies unchanged: a
/// seeded solution is the same bits the per-query evaluation would have
/// computed itself, deadline or no deadline, so batching can coalesce a
/// burst's factorizations without moving a byte of any response.
///
/// Fault-planned points are skipped exactly as in a sweep presolve
/// (their ids are the same canonical per-point fault scopes `run_query`
/// enters), so injected failures neither poison the shared cache nor get
/// masked by a clean presolve.
pub fn presolve_points(points: &[Point], cache: &SolveCache) -> BatchStats {
    crate::engine::WORKSPACE.with(|ws| presolve(points, cache, &mut ws.borrow_mut()))
}

/// The planning half of a presolve: filter to batch-eligible points,
/// skip every point whose key is already cached or already planned, and
/// build each remaining chain through the exact cached construction path
/// evaluation uses (tallying `stats`).
fn plan(points: &[Point], cache: &SolveCache, stats: &mut BatchStats) -> Vec<(ReportKey, Qbd)> {
    // The first rung of the recovery ladder — the fit the evaluator will
    // try first; deeper rungs are rare and stay scalar.
    let fit = BusyPeriodFit::ThreeMoment;
    let mut keys = HashSet::new();
    let mut planned = Vec::new();
    for point in points {
        if point.evaluator != Evaluator::Analysis || point.policy != Policy::CsCq {
            continue;
        }
        // Fleet points also block on extend_longs, which the evaluator
        // rejects outright at (k, m) != (1, 1) — nothing would consume a
        // presolve.
        if point.extend_longs && point.hosts != (1, 1) {
            continue;
        }
        // Same stability precheck as the evaluator: genuinely unstable
        // points never reach the QBD solver at all.
        let (k, m) = point.hosts;
        if !stability::is_stable_km(k, m, point.rho_s, point.rho_l) {
            continue;
        }
        if fault::planned_site(&SweepRow::id_of(point)).is_some() {
            stats.skipped_faulted += 1;
            continue;
        }
        stats.eligible += 1;
        let (Ok(params), Ok(hosts)) = (
            SystemParams::from_loads(point.rho_s, point.mean_s, point.rho_l, point.long.moments()),
            Hosts::new(k, m),
        ) else {
            // Evaluation attributes the parameter failure; nothing to plan.
            continue;
        };
        let key = cs_cq_km::cache_key(hosts, &params, fit);
        if cache.contains(&key) || !keys.insert(key) {
            continue;
        }
        if let Ok(qbd) = cs_cq_km::plan_qbd_cached(hosts, &params, fit, cache) {
            planned.push((key, qbd));
        }
    }
    planned
}

/// The solving half of a presolve: canonicalize, group by shape, solve
/// through the batched pipeline, and seed successful solutions.
fn solve_and_seed(
    mut planned: Vec<(ReportKey, Qbd)>,
    cache: &SolveCache,
    ws: &mut Workspace,
    stats: &mut BatchStats,
) {
    // Canonical order: group same-shape chains together (keys are already
    // distinct). Sorting by (shape, key) makes the grouping — and
    // therefore every stat — independent of the input permutation; batch
    // *composition* cannot affect results because every batched kernel is
    // per-lane independent.
    planned.sort_by_key(|(key, q)| (q.boundary_dim(), q.phase_dim(), *key));
    stats.unique = planned.len();

    let mut group = planned.as_slice();
    while let Some((_, first)) = group.first() {
        let shape = (first.boundary_dim(), first.phase_dim());
        let len = group
            .iter()
            .take_while(|(_, q)| (q.boundary_dim(), q.phase_dim()) == shape)
            .count();
        let (shaped, rest) = group.split_at(len);
        group = rest;
        for chunk in shaped.chunks(MAX_BATCH) {
            if chunk.len() >= 2 {
                stats.batches += 1;
                stats.batched += chunk.len();
            } else {
                stats.scalar += chunk.len();
            }
            let refs: Vec<&Qbd> = chunk.iter().map(|(_, q)| q).collect();
            let results = Qbd::solve_batch_in(&refs, ws);
            for ((key, _), result) in chunk.iter().zip(results) {
                if let Ok(sol) = result {
                    cache.seed_solution(*key, sol);
                    stats.seeded += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use cyclesteal_xtest::fault::FaultPlan;

    /// A presolve no fault plan can reach: a zero-rate plan faults no scope
    /// but holds the armed-section lock, so a concurrently running test's
    /// armed plan cannot leak into this one.
    fn presolve_clean(points: &[Point], cache: &SolveCache, ws: &mut Workspace) -> BatchStats {
        let _clean = fault::arm(FaultPlan::new(0, 0.0, &[]));
        presolve(points, cache, ws)
    }

    fn cs_cq_points() -> Vec<Point> {
        let mut spec = GridSpec::analysis(
            "batch_unit",
            vec![0.3, 0.5, 0.7, 0.9, 1.1],
            vec![0.3, 0.5],
        );
        spec.policies = vec![Policy::CsCq];
        spec.points()
    }

    #[test]
    fn presolve_seeds_every_eligible_chain_once() {
        let points = cs_cq_points();
        // Every point twice: the planner builds one chain per report key.
        let doubled: Vec<Point> = points.iter().chain(&points).copied().collect();
        let cache = SolveCache::new();
        let mut ws = Workspace::new();
        let stats = presolve_clean(&doubled, &cache, &mut ws);
        assert_eq!(stats.eligible, doubled.len(), "all points stable and CS-CQ");
        assert_eq!(stats.unique, points.len(), "{stats:?}");
        assert_eq!(stats.batched + stats.scalar, stats.unique);
        assert_eq!(stats.seeded, stats.unique, "every planned chain solves cleanly");
        assert_eq!(stats.skipped_faulted, 0);
        // A second presolve over the same grid finds everything cached.
        let again = presolve_clean(&points, &cache, &mut ws);
        assert_eq!(again.eligible, points.len());
        assert_eq!(again.unique, 0);
        assert_eq!(again.seeded, 0);
        assert_eq!(again.batches, 0);
    }

    #[test]
    fn non_cs_cq_and_unstable_points_are_not_planned() {
        let mut spec = GridSpec::analysis("filters", vec![0.5, 2.5], vec![0.5]);
        spec.policies = vec![Policy::Dedicated, Policy::CsId, Policy::CsCq];
        let cache = SolveCache::new();
        let mut ws = Workspace::new();
        let stats = presolve_clean(&spec.points(), &cache, &mut ws);
        // Only the stable CS-CQ point (rho_s = 0.5) qualifies; rho_s = 2.5
        // is past the frontier at rho_l = 0.5.
        assert_eq!(stats.eligible, 1);
        assert_eq!(stats.unique, 1);
        assert_eq!(stats.scalar, 1, "a lone chain degenerates to scalar");
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn presolve_stats_are_input_order_independent() {
        let mut fwd = cs_cq_points();
        let cache_a = SolveCache::new();
        let cache_b = SolveCache::new();
        let mut ws = Workspace::new();
        let a = presolve_clean(&fwd, &cache_a, &mut ws);
        fwd.reverse();
        let b = presolve_clean(&fwd, &cache_b, &mut ws);
        assert_eq!(a, b);
    }

    #[test]
    fn a_cache_warmed_only_by_restored_reports_presolves_nothing() {
        // The daemon's WAL/snapshot restore seeds reports alone. A presolve
        // over the restored keys must fit, build, solve and seed nothing:
        // evaluation will answer every point from its report.
        let _clean = fault::arm(FaultPlan::new(0, 0.0, &[]));
        let points = cs_cq_points();
        let warm = SolveCache::new();
        for point in &points {
            crate::run_query(point, &warm, None);
        }
        let restored = SolveCache::new();
        for (key, report) in warm.export_reports() {
            restored.insert_report(key, report);
        }
        let before = restored.stats();
        let stats = presolve(&points, &restored, &mut Workspace::new());
        assert_eq!(stats.eligible, points.len());
        assert_eq!((stats.unique, stats.seeded), (0, 0), "{stats:?}");
        assert_eq!(restored.stats().misses, before.misses);
        assert_eq!(restored.len(), points.len(), "no fit or solution was added");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn fault_planned_points_are_skipped() {
        let points = cs_cq_points();
        // Rate 1.0: every scope draws a fault, so every point is skipped.
        let plan = FaultPlan::new(7, 1.0, &["qbd.solve"]);
        let _armed = fault::arm(plan);
        let cache = SolveCache::new();
        let mut ws = Workspace::new();
        let stats = presolve(&points, &cache, &mut ws);
        assert_eq!(stats.skipped_faulted, points.len());
        assert_eq!(stats.eligible, 0);
        assert_eq!(stats.unique, 0);
        assert_eq!(stats.seeded, 0);
    }
}
