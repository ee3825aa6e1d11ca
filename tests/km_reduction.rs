//! The `(k, m)` fleet chain is gated by **reduction to the paper's
//! system**: at `(k, m) = (1, 1)` the one CS-CQ chain builder of
//! `cs_cq_km` must reproduce the original 2-host analysis — kept as the
//! independent test-only oracle `support::two_host` — *bit for bit*: the
//! same QBD (same signature), the same solution (same `π₀`, boundary
//! vector, and `R` matrix bits), the same report (every field), and
//! therefore the same golden Figure-4 curve. On top of the
//! reduction, a `(k, m) ∈ {1, 2, 4}²` grid cross-validates the fleet
//! analysis against the fleet discrete-event simulator end-to-end through
//! the sweep engine, with zero failure rows and 5% agreement on the
//! short class at every shape.
//!
//! These tests are the contract that lets every `cs_cq` entry point be a
//! `(1, 1)` call into the fleet chain — and keeps the paper's cache keys,
//! which read `(1, 1)` — without a byte of drift.

mod support;

use std::sync::Arc;

use cyclesteal::core::cache::SolveCache;
use cyclesteal::core::cs_cq::{self, BusyPeriodFit};
use cyclesteal::core::cs_cq_km::{self, Hosts};
use cyclesteal::core::stability::Policy;
use cyclesteal::core::SystemParams;
use cyclesteal::dist::Moments3;
use cyclesteal_sweep::{run_points, Evaluator, LongLaw, Point, SweepOptions};
use support::{assert_chains_bit_identical, assert_reports_bit_identical, two_host};

/// Workloads spanning the Figure-4 axis plus a high-variability law:
/// `(ρ_S, ρ_L, C²_L)` with unit mean sizes.
const WORKLOADS: [(f64, f64, f64); 6] = [
    (0.5, 0.5, 1.0),
    (0.9, 0.25, 1.0),
    (1.2, 0.5, 1.0),
    (1.45, 0.5, 1.0),
    (0.9, 0.9, 1.0),
    (0.9, 0.9, 8.0),
];

fn params(rho_s: f64, rho_l: f64, scv: f64) -> SystemParams {
    let long = Moments3::from_mean_scv_balanced(1.0, scv).unwrap();
    SystemParams::from_loads(rho_s, 1.0, rho_l, long).unwrap()
}

/// The headline reduction: at every workload and every busy-period fit,
/// the `(1, 1)` fleet chain *is* the 2-host chain — same QBD signature
/// and dimensions, bit-identical solution, bit-identical report.
#[test]
fn the_1x1_fleet_chain_is_the_paper_chain_bit_for_bit() {
    let paper = Hosts::paper();
    assert_eq!((paper.k(), paper.m()), (1, 1));
    for (rho_s, rho_l, scv) in WORKLOADS {
        let p = params(rho_s, rho_l, scv);
        for fit in [
            BusyPeriodFit::MeanOnly,
            BusyPeriodFit::TwoMoment,
            BusyPeriodFit::ThreeMoment,
        ] {
            let what = format!("(ρs={rho_s}, ρl={rho_l}, C²={scv}, {fit:?})");

            let oracle = two_host::build_qbd_model(&p, fit).unwrap();
            let fleet = cs_cq_km::build_qbd_model(paper, &p, fit).unwrap();
            assert_chains_bit_identical(&oracle, &fleet, &what);

            let ra = two_host::analyze_with(&p, fit).unwrap();
            let rb = cs_cq_km::analyze_with(paper, &p, fit).unwrap();
            assert_reports_bit_identical(&ra, &rb, &what);
        }
    }
}

/// The golden Figure-4 curve survives the generalization verbatim: at
/// every tabulated `ρ_S` the fleet analysis at `(1, 1)` — and
/// `cs_cq::analyze`, its paper-named wrapper — equals the 2-host oracle
/// bit for bit, and the anchor values stay within the 1% golden band of
/// `tests/golden_fig4.rs`.
#[test]
fn the_1x1_fleet_curve_is_the_golden_figure_4_curve() {
    // `(ρ_S, golden E[T_short])` anchors from the golden table.
    let anchors = [(1.0, 2.538424876478), (1.3, 6.421594906550)];
    for rho_s in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4] {
        let p = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
        let oracle = two_host::analyze_with(&p, BusyPeriodFit::ThreeMoment).unwrap();
        let fleet = cs_cq_km::analyze(Hosts::paper(), &p).unwrap();
        assert_reports_bit_identical(&oracle, &fleet, &format!("fig4 ρs={rho_s}"));
        let paper = cs_cq::analyze(&p).unwrap();
        assert_reports_bit_identical(&oracle, &paper, &format!("fig4 ρs={rho_s}"));
        for (anchor, golden) in anchors {
            if rho_s == anchor {
                let rel = (fleet.short_response - golden).abs() / golden;
                assert!(
                    rel < 0.01,
                    "fig4 ρs={rho_s}: fleet short response {} vs golden {golden}",
                    fleet.short_response
                );
            }
        }
    }
}

/// The shared-cache protocol under the fleet dimension: a `(1, 1)` fleet
/// analysis is served entirely from entries a prior paper-named
/// `cs_cq` analysis populated (both key on `(1, 1)`), while shapes that
/// differ only in `(k, m)` never collide — same workload, different
/// hosts, zero hits.
#[test]
fn cache_keys_are_shared_at_1x1_and_disjoint_across_shapes() {
    let p = params(0.9, 0.5, 1.0);

    let shared = SolveCache::new();
    cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &shared).unwrap();
    let after_two_host = shared.stats();
    cs_cq_km::analyze_cached(Hosts::paper(), &p, BusyPeriodFit::ThreeMoment, &shared).unwrap();
    let after_fleet = shared.stats();
    assert_eq!(
        after_fleet.misses, after_two_host.misses,
        "the (1, 1) fleet analysis must add no cache entries"
    );
    assert!(after_fleet.hits > after_two_host.hits);

    let disjoint = SolveCache::new();
    let a = Hosts::new(1, 2).unwrap();
    let b = Hosts::new(2, 1).unwrap();
    cs_cq_km::analyze_cached(a, &p, BusyPeriodFit::ThreeMoment, &disjoint).unwrap();
    let after_a = disjoint.stats();
    cs_cq_km::analyze_cached(b, &p, BusyPeriodFit::ThreeMoment, &disjoint).unwrap();
    let after_b = disjoint.stats();
    assert_eq!(
        after_b.hits, after_a.hits,
        "(2, 1) must not be served from (1, 2) entries for the same workload"
    );
    assert!(after_b.misses > after_a.misses);
}

/// One grid point per fleet shape, loads scaled to the shape so every
/// point sits comfortably inside the `(k, m)` stability frontier
/// (`ρ_L < m`, `ρ_S < k + m − ρ_L`).
fn fleet_grid(evaluator: Evaluator) -> Vec<Point> {
    let mut points = Vec::new();
    for k in [1usize, 2, 4] {
        for m in [1usize, 2, 4] {
            points.push(Point {
                rho_s: 0.5 * (k + m) as f64,
                rho_l: 0.4 * m as f64,
                mean_s: 1.0,
                long: LongLaw::exponential(1.0).unwrap(),
                policy: Policy::CsCq,
                evaluator,
                extend_longs: false,
                hosts: (k, m),
            });
        }
    }
    points
}

/// The `{1, 2, 4}²` validation grid: every shape evaluated twice through
/// the sweep engine — fleet matrix-analytic analysis vs. the fleet
/// discrete-event simulator — with zero failure rows and ≤ 5% relative
/// disagreement on both classes at every shape.
#[test]
fn fleet_analysis_tracks_fleet_simulation_within_5_percent() {
    let analysis = fleet_grid(Evaluator::Analysis);
    let simulation = fleet_grid(Evaluator::Simulation {
        total_jobs: 400_000,
        reps: 2,
        base_seed: 0xF1EE7,
    });
    let mut points = analysis.clone();
    points.extend(simulation.iter().copied());

    let cache = Arc::new(SolveCache::new());
    let opts = SweepOptions::threads(4).with_cache(cache);
    let (report, metrics) = run_points("km_validation", &points, &opts);
    assert_eq!(
        metrics.failures.total(),
        0,
        "the fleet grid must have zero failure rows: {:?}",
        metrics.failures
    );

    for (ana_pt, sim_pt) in analysis.iter().zip(simulation.iter()) {
        let ana = report.get_point(ana_pt).expect("analysis row");
        let sim = report.get_point(sim_pt).expect("simulation row");
        for (class, a, s) in [
            ("short", ana.short_response, sim.short_response),
            ("long", ana.long_response, sim.long_response),
        ] {
            let (a, s) = (a.expect("stable fleet point"), s.expect("stable fleet point"));
            let rel = (a - s).abs() / s;
            assert!(
                rel < 0.05,
                "(k, m) = {:?} {class}: analysis {a:.4} vs sim {s:.4} ({:.1}% apart)",
                ana_pt.hosts,
                100.0 * rel
            );
        }
    }
}
