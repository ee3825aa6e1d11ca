//! Seeded input generation. Everything a workload feeds the program comes
//! from here and from `--seed` alone; the program never sees the seed.

use cyclesteal_core::stability::{self, Policy};
use cyclesteal_svc::client::QueryRequest;
use cyclesteal_sweep::{policy_name, Evaluator, LongLaw, Point};

use cyclesteal_xtest::rng::samplers;
use cyclesteal_xtest::{RngExt, SeedableRng, SmallRng};

use crate::stats::fnv1a64;

/// How big a workload is: the benchmark proper, or the self-test's
/// seconds-long smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The generator of one input stream of `seed`: the grid axes, the hot
/// set, the schedule and each sample draw from streams of their own.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BE49))
}

/// Uniform index in `[0, n)`.
pub fn below(rng: &mut SmallRng, n: usize) -> usize {
    rng.random_below(n as u64) as usize
}

fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n == 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Relative jitter applied to every grid axis value: small enough that
/// the grid's structure (shared fits, chain shapes, stable cells) and so
/// its cost stay put, large enough that every input bit changes per seed.
const AXIS_JITTER: f64 = 1e-3;

fn jitter(values: Vec<f64>, rng: &mut SmallRng) -> Vec<f64> {
    values
        .into_iter()
        .map(|v| v * (1.0 + AXIS_JITTER * rng.random_range(-1.0, 1.0)))
        .collect()
}

fn analysis_point(
    rho_s: f64,
    rho_l: f64,
    long: LongLaw,
    policy: Policy,
    hosts: (usize, usize),
) -> Point {
    Point {
        rho_s,
        rho_l,
        mean_s: 1.0,
        long,
        policy,
        evaluator: Evaluator::Analysis,
        extend_longs: false,
        hosts,
    }
}

fn long_law(scv: f64) -> LongLaw {
    // The daemon's own parse rule: exponential at C² = 1, balanced H₂ above.
    if (scv - 1.0).abs() < 1e-12 {
        LongLaw::exponential(1.0)
    } else {
        LongLaw::balanced(1.0, scv)
    }
    .expect("C² >= 1 always has a long-job law")
}

/// The paper's 2-host grid: ρ_S × ρ_L × C² × all three policies.
pub fn paper_grid(seed: u64, size: Size) -> Vec<Point> {
    let (n_s, n_l, scvs): (usize, usize, &[f64]) = match size {
        Size::Full => (25, 20, &[1.0, 8.0]),
        Size::Tiny => (5, 4, &[1.0]),
    };
    let mut rng = rng(seed, 1);
    let rho_s = jitter(linspace(0.05, 1.45, n_s), &mut rng);
    let rho_l = jitter(linspace(0.05, 0.95, n_l), &mut rng);
    let mut out = Vec::new();
    for &s in &rho_s {
        for &l in &rho_l {
            for &scv in scvs {
                for policy in [Policy::Dedicated, Policy::CsId, Policy::CsCq] {
                    out.push(analysis_point(s, l, long_law(scv), policy, (1, 1)));
                }
            }
        }
    }
    out
}

/// Fleet shapes and how many points of each the fleet grid holds.
fn fleet_shapes(size: Size) -> &'static [((usize, usize), usize)] {
    match size {
        Size::Full => &[((2, 2), 40), ((2, 4), 2), ((4, 4), 2)],
        Size::Tiny => &[((2, 2), 4), ((4, 4), 1)],
    }
}

/// CS-CQ fleets: many cheap (2,2) points and a few (2,4)/(4,4) points, at
/// ρ_L = 0.5·m and ρ_S between 30% and 95% of the fleet's frontier.
pub fn fleet_grid(seed: u64, size: Size) -> Vec<Point> {
    let mut rng = rng(seed, 2);
    let mut out = Vec::new();
    for &((k, m), n) in fleet_shapes(size) {
        let rho_l = 0.5 * m as f64 * (1.0 + AXIS_JITTER * rng.random_range(-1.0, 1.0));
        let frontier = stability::max_rho_s_km(k, m, rho_l);
        for f in jitter(linspace(0.30, 0.95, n), &mut rng) {
            out.push(analysis_point(
                f * frontier,
                rho_l,
                long_law(1.0),
                Policy::CsCq,
                (k, m),
            ));
        }
    }
    out
}

/// One query of the daemon workload.
#[derive(Debug, Clone)]
pub struct Query {
    pub request: QueryRequest,
    /// The point the daemon will parse out of `request` (the oracle's input).
    pub point: Point,
}

/// The daemon workload's open-loop arrival schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Send offsets from the start of the window, nanoseconds, ascending.
    pub at_ns: Vec<u64>,
    /// Index into `queries` for each arrival.
    pub pick: Vec<usize>,
    /// Distinct queries: the hot set first, then one per fresh arrival.
    pub queries: Vec<Query>,
    pub hot_len: usize,
}

/// Mean offered rate of `daemon_mix`, queries per second: about half of
/// the 2-worker daemon's measured capacity on this mix.
pub const DAEMON_RATE: f64 = 500.0;
/// Share of arrivals that repeat the hot set.
pub const HOT_SHARE: f64 = 0.8;
/// Share of fresh arrivals that are (2,2) fleet queries: 2.5% of all
/// arrivals, so the p99 falls inside the slow-solve population instead of
/// on its edge, where it would flip between the two.
pub const FLEET_SHARE_OF_FRESH: f64 = 0.125;
/// Two-state MMPP: the burst state offers this multiple of the mean rate,
/// the calm state the complement, with equal mean sojourns.
const MMPP_BURST: f64 = 1.6;
const MMPP_SOJOURN_S: f64 = 0.25;

fn hot_set_len(size: Size) -> usize {
    match size {
        Size::Full => 64,
        Size::Tiny => 8,
    }
}

fn fresh_query(rng: &mut SmallRng, policy: Policy, hosts: (usize, usize)) -> Query {
    let scv = if rng.random::<f64>() < 0.5 { 1.0 } else { 8.0 };
    let (rho_s, rho_l) = if hosts == (1, 1) {
        let rho_l = rng.random_range(0.1, 0.8);
        (
            rng.random_range(0.1, 0.9) * stability::max_rho_s(policy, rho_l),
            rho_l,
        )
    } else {
        let rho_l = rng.random_range(0.25, 0.75) * hosts.1 as f64;
        let frontier = stability::max_rho_s_km(hosts.0, hosts.1, rho_l);
        (rng.random_range(0.3, 0.9) * frontier, rho_l)
    };
    let request = QueryRequest {
        rho_s,
        rho_l,
        long_scv: scv,
        policy: policy_name(policy),
        hosts,
        ..QueryRequest::default()
    };
    let point = analysis_point(rho_s, rho_l, long_law(scv), policy, hosts);
    Query { request, point }
}

fn draw_policy(rng: &mut SmallRng) -> Policy {
    // CS-CQ majority; the other two policies a sixth each.
    let u = rng.random::<f64>();
    if u < 2.0 / 3.0 {
        Policy::CsCq
    } else if u < 5.0 / 6.0 {
        Policy::CsId
    } else {
        Policy::Dedicated
    }
}

/// The hot set alone (what the data dir is pre-seeded with).
pub fn hot_set(seed: u64, size: Size) -> Vec<Query> {
    let mut rng = rng(seed, 3);
    (0..hot_set_len(size))
        .map(|_| {
            let policy = draw_policy(&mut rng);
            fresh_query(&mut rng, policy, (1, 1))
        })
        .collect()
}

/// An open-loop schedule of exactly `round(rate · seconds)` arrivals: a
/// two-state MMPP path rescaled to span the window exactly, so the offered
/// load is the same for every seed while burst placement is not.
pub fn daemon_schedule(seed: u64, size: Size, seconds: f64, rate: f64) -> Schedule {
    let mut queries = hot_set(seed, size);
    let hot_len = queries.len();
    let n = ((rate * seconds).round() as usize).max(1);
    let mut rng = rng(seed, 4);
    let (hi, lo) = (MMPP_BURST * rate, (2.0 - MMPP_BURST) * rate);
    let mut burst = rng.random::<f64>() < 0.5;
    let mut switch_at = samplers::exp(1.0 / MMPP_SOJOURN_S, &mut rng);
    let mut t = 0.0;
    let mut times = Vec::with_capacity(n);
    while times.len() < n {
        let dt = samplers::exp(if burst { hi } else { lo }, &mut rng);
        if t + dt > switch_at {
            // Memoryless: restart the draw in the new state at the switch.
            t = switch_at;
            burst = !burst;
            switch_at = t + samplers::exp(1.0 / MMPP_SOJOURN_S, &mut rng);
            continue;
        }
        t += dt;
        times.push(t);
    }
    let scale = seconds / t.max(f64::MIN_POSITIVE);
    let at_ns = times
        .iter()
        .map(|&x| (x * scale * 1e9) as u64)
        .collect::<Vec<_>>();
    let pick = draw_picks(&mut rng, n, hot_len, &mut queries);
    Schedule {
        at_ns,
        pick,
        queries,
        hot_len,
    }
}

/// `n` arrivals of the workload's mix: hot repeats, fresh (1,1) queries of
/// every policy, and fresh (2,2) fleets. Fresh queries are appended to
/// `queries`; the returned picks index into it.
fn draw_picks(
    rng: &mut SmallRng,
    n: usize,
    hot_len: usize,
    queries: &mut Vec<Query>,
) -> Vec<usize> {
    let mut pick = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.random::<f64>() < HOT_SHARE {
            pick.push(below(rng, hot_len));
        } else {
            let q = if rng.random::<f64>() < FLEET_SHARE_OF_FRESH {
                fresh_query(rng, Policy::CsCq, (2, 2))
            } else {
                let policy = draw_policy(rng);
                fresh_query(rng, policy, (1, 1))
            };
            pick.push(queries.len());
            queries.push(q);
        }
    }
    pick
}

/// The closed-loop capacity phase's `n` queries: the schedule's mix and hot
/// set, with fresh queries from a stream of their own, so they are new to
/// the daemon. Every arrival is due at once (`at_ns` all 0): the closed
/// loop sends each as soon as the in-flight depth allows.
pub fn capacity_mix(seed: u64, size: Size, n: usize) -> Schedule {
    let mut queries = hot_set(seed, size);
    let hot_len = queries.len();
    let pick = draw_picks(&mut rng(seed, 5), n, hot_len, &mut queries);
    Schedule {
        at_ns: vec![0; n],
        pick,
        queries,
        hot_len,
    }
}

/// Digest of a point list: every input bit the program receives.
pub fn digest_points(points: &[Point]) -> u64 {
    let mut bytes = Vec::with_capacity(points.len() * 48);
    for p in points {
        for x in [p.rho_s, p.rho_l, p.mean_s, p.long.mean(), p.long.scv()] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(policy_name(p.policy).as_bytes());
        bytes.extend_from_slice(&(p.hosts.0 as u64).to_le_bytes());
        bytes.extend_from_slice(&(p.hosts.1 as u64).to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Digest of a daemon schedule: send times and the exact request bytes.
pub fn digest_schedule(s: &Schedule) -> u64 {
    let mut bytes = Vec::new();
    for (&at, &i) in s.at_ns.iter().zip(&s.pick) {
        bytes.extend_from_slice(&at.to_le_bytes());
        bytes.extend_from_slice(s.queries[i].request.to_json().as_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for size in [Size::Tiny, Size::Full] {
            assert_eq!(
                digest_points(&paper_grid(7, size)),
                digest_points(&paper_grid(7, size))
            );
            assert_ne!(
                digest_points(&paper_grid(7, size)),
                digest_points(&paper_grid(8, size))
            );
            assert_eq!(
                digest_points(&fleet_grid(7, size)),
                digest_points(&fleet_grid(7, size))
            );
            assert_ne!(
                digest_points(&fleet_grid(7, size)),
                digest_points(&fleet_grid(8, size))
            );
            let a = daemon_schedule(7, size, 2.0, DAEMON_RATE);
            let b = daemon_schedule(7, size, 2.0, DAEMON_RATE);
            let c = daemon_schedule(8, size, 2.0, DAEMON_RATE);
            assert_eq!(digest_schedule(&a), digest_schedule(&b));
            assert_ne!(digest_schedule(&a), digest_schedule(&c));
            assert_ne!(a.at_ns, c.at_ns, "a new seed moves the arrival schedule");
        }
    }

    #[test]
    fn schedule_offers_the_fixed_rate_over_the_whole_window() {
        let s = daemon_schedule(3, Size::Full, 10.0, DAEMON_RATE);
        let n = (10.0 * DAEMON_RATE) as usize;
        assert_eq!(s.at_ns.len(), n);
        assert!(s.at_ns.windows(2).all(|w| w[0] <= w[1]));
        let last = *s.at_ns.last().unwrap() as f64 / 1e9;
        assert!((last - 10.0).abs() < 1e-6, "{last}");
        let hot = s.pick.iter().filter(|&&i| i < s.hot_len).count() as f64;
        assert!((hot / n as f64 - HOT_SHARE).abs() < 0.05);
    }

    #[test]
    fn grid_sizes_match_their_definitions() {
        assert_eq!(paper_grid(1, Size::Full).len(), 3000);
        assert_eq!(fleet_grid(1, Size::Full).len(), 44);
        for p in fleet_grid(1, Size::Full) {
            let (k, m) = p.hosts;
            assert!(stability::is_stable_km(k, m, p.rho_s, p.rho_l));
        }
    }
}
