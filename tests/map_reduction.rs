//! MAP short arrivals through the one CS-CQ chain builder: at
//! `(k, m) = (1, 1)` the fleet builder's Kronecker product with a MAP must
//! be the test-only 2-host oracle's MAP chain *bit for bit* — same QBD
//! signature, same `π₀`, boundary and `R` bits, and the same
//! `cs_cq::analyze_map` report in every field. The MAPs are the four the
//! simulation check in `map_arrivals.rs` validates and the three that
//! `cs_cq`'s unit tests use.

mod support;

use cyclesteal::core::cs_cq::{self, BusyPeriodFit};
use cyclesteal::core::SystemParams;
use cyclesteal::dist::{Map, Moments3};
use support::{assert_chains_bit_identical, assert_reports_bit_identical, two_host};

/// `(label, MAP, ρ_L, C²_L)` with unit mean sizes; `ρ_S` is the MAP rate.
fn workloads() -> Vec<(&'static str, Map, f64, f64)> {
    vec![
        (
            "moderate burstiness",
            Map::bursty(0.7, 4.0, 2.0).unwrap(),
            0.5,
            1.0,
        ),
        (
            "high burstiness",
            Map::bursty(0.8, 9.0, 5.0).unwrap(),
            0.4,
            1.0,
        ),
        (
            "coxian longs",
            Map::bursty(0.7, 4.0, 2.0).unwrap(),
            0.5,
            8.0,
        ),
        (
            "asymmetric",
            Map::mmpp2(0.05, 0.2, 0.4, 2.0).unwrap(),
            0.5,
            1.0,
        ),
        ("one-phase poisson", Map::poisson(1.1).unwrap(), 0.5, 1.0),
        (
            "equal intensities",
            Map::mmpp2(0.3, 0.7, 0.9, 0.9).unwrap(),
            0.5,
            1.0,
        ),
        ("bursty", Map::bursty(0.9, 9.0, 10.0).unwrap(), 0.5, 1.0),
    ]
}

#[test]
fn the_1x1_fleet_map_chain_is_the_paper_map_chain_bit_for_bit() {
    for (label, map, rho_l, scv) in workloads() {
        let longs = Moments3::from_mean_scv_balanced(1.0, scv).unwrap();
        let p = SystemParams::new(map.rate(), 1.0, rho_l, longs).unwrap();
        let what = format!("{label} (ρl={rho_l}, C²={scv})");

        let oracle = two_host::build_map_qbd_model(&p, BusyPeriodFit::ThreeMoment, &map).unwrap();
        let fleet = cs_cq::build_map_qbd_model(&p, &map).unwrap();
        assert_eq!(fleet.phase_dim() % map.dim(), 0, "{what}");
        assert_chains_bit_identical(&oracle, &fleet, &what);

        let ra = two_host::analyze_map(&p, &map).unwrap();
        let rb = cs_cq::analyze_map(&p, &map).unwrap();
        assert_reports_bit_identical(&ra, &rb, &what);
    }
}

#[test]
fn a_one_phase_map_is_the_poisson_chain() {
    // `Map::poisson(λ).d1()` is exactly `[λ]`: the MAP path and the Poisson
    // path build the same chain and the same report.
    let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0).unwrap();
    let map = Map::poisson(p.lambda_s()).unwrap();
    let via_map = cs_cq::build_map_qbd_model(&p, &map).unwrap();
    let poisson = cs_cq::build_qbd_model(&p, BusyPeriodFit::ThreeMoment).unwrap();
    assert_chains_bit_identical(&via_map, &poisson, "one-phase MAP");
    assert_reports_bit_identical(
        &cs_cq::analyze_map(&p, &map).unwrap(),
        &cs_cq::analyze(&p).unwrap(),
        "one-phase MAP",
    );
}
