//! Shared helpers for the root integration tests: the test-only 2-host
//! oracle and the bit-identity assertions the reduction suites apply to it.

#![allow(dead_code)]

pub mod two_host;

use cyclesteal::core::cs_cq::CsCqReport;
use cyclesteal::markov::Qbd;

/// Asserts two reports agree in every field, floats compared by bits.
pub fn assert_reports_bit_identical(a: &CsCqReport, b: &CsCqReport, what: &str) {
    for (field, x, y) in [
        ("short_response", a.short_response, b.short_response),
        ("long_response", a.long_response, b.long_response),
        (
            "mean_shorts",
            a.mean_shorts_in_system,
            b.mean_shorts_in_system,
        ),
        ("p_region1", a.p_region1, b.p_region1),
        ("p_region2", a.p_region2, b.p_region2),
        ("p_region5", a.p_region5, b.p_region5),
        (
            "setup_probability",
            a.setup_probability,
            b.setup_probability,
        ),
        ("total_mass", a.total_mass, b.total_mass),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {field} {x} vs {y}");
    }
    assert_eq!(a.bl_match, b.bl_match, "{what}");
    assert_eq!(a.bn_match, b.bn_match, "{what}");
}

/// Asserts two chains are the same QBD (signature and dimensions) and
/// solve to the same bits (`π₀`, boundary vector, `R`).
pub fn assert_chains_bit_identical(a: &Qbd, b: &Qbd, what: &str) {
    assert_eq!(a.signature(), b.signature(), "{what}");
    assert_eq!(a.boundary_dim(), b.boundary_dim(), "{what}");
    assert_eq!(a.phase_dim(), b.phase_dim(), "{what}");

    let a = a.solve().unwrap();
    let b = b.solve().unwrap();
    assert_eq!(a.pi0().len(), b.pi0().len(), "{what}");
    for (x, y) in a.pi0().iter().zip(b.pi0()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: pi0");
    }
    assert_eq!(a.boundary().len(), b.boundary().len(), "{what}");
    for (x, y) in a.boundary().iter().zip(b.boundary()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: boundary");
    }
    for (x, y) in a.r().as_slice().iter().zip(b.r().as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: R");
    }
}
