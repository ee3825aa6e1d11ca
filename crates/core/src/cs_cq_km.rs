//! The CS-CQ chain: `k` short hosts plus `m` stealing (long) hosts under
//! one central queue. This is the crate's one CS-CQ chain builder; the
//! paper's 2-host system (Figure 2) is the `(k, m) = (1, 1)` fleet,
//! [`Hosts::paper`], and every `crate::cs_cq` entry point is a thin
//! `(1, 1)` call into this module.
//!
//! # The model
//!
//! Long jobs split uniformly at random over `m` *long slots* (one per
//! stealing host), so each slot sees an independent Poisson stream of rate
//! `λ_L / m` and its long dynamics collapse into per-slot busy periods
//! exactly as in the paper: `B_L` (entered when a long arrives at an empty
//! slot while a server is idle) and `B_{N+1}` (entered when the long had
//! to wait for a server), both three-moment-matched into Coxian
//! transitions. Servers are renamable and work-conserving: any of the
//! `k + m` servers may serve shorts or run a slot's busy period.
//!
//! # The chain
//!
//! * **Level** — number of short jobs in system (tracked exactly).
//! * **Phase** — the *multiset* of per-slot states over the `m` slots,
//!   times the phase of the short-arrival process (one phase for Poisson
//!   arrivals; a MAP's phase is the innermost index). Each slot is in one
//!   of `2 + k1 + k2` states: `F` (empty), a `B_L` Coxian stage, a
//!   `B_{N+1}` stage, or `R5` (a long waits for a server). Phases are
//!   enumerated as **non-decreasing slot-state tuples in lexicographic
//!   order** — at `m = 1` this is the paper's phase order
//!   `[W, BL…, BN…, R5]`. The `km_reduction`, `km_props` and
//!   `map_reduction` suites hold the `(1, 1)` chain bit for bit to an
//!   independent test-only 2-host construction, so the enumeration order is
//!   part of the public contract; see DESIGN §11.
//! * **Boundary** — levels `0 .. k + m − 1`, each restricted to the phases
//!   reachable there: with `r` slots in `R5` and `b` slots busy on longs,
//!   all `k + m − b` short-capable servers are busy whenever a long waits,
//!   so a phase is valid at level `n` iff `r = 0` or `n ≥ (k + m − b)`.
//!
//! Work conservation fixes the instantaneous transitions:
//!
//! * a short completion while a long waits hands the freed server to the
//!   oldest waiting slot (`R5 → B_{N+1}` stage `j` w.p. `β_j`);
//! * a draining busy period while a long waits likewise rescues the oldest
//!   waiting slot (impossible at `(1, 1)`, where `b ≥ 1` and `r ≥ 1`
//!   cannot coexist);
//! * a long arriving at an empty slot starts `B_L` iff a server is idle
//!   (`n < k + f + r` with `f` free slots), else the slot enters `R5`.
//!
//! `m = 0` drops the long class entirely: the chain degenerates to the
//! M/M/`k` birth–death of the shorts (`long_response = 0`).
//!
//! # Outputs
//!
//! [`CsCqReport`]: shorts via `E[N_S]` and Little's law; longs as a
//! per-slot M/G/1 with arrival rate `λ_L / m` and an `Exp((k + m) μ_S)`
//! setup paid with the chain's conditional probability that an arriving
//! long finds its slot free but every server busy (PASTA).

use cyclesteal_dist::match3::{self, MatchQuality};
use cyclesteal_dist::{busy, DistError, Map, Moments3, Ph};
use cyclesteal_linalg::{Matrix, Workspace};
use cyclesteal_markov::Qbd;
use cyclesteal_mg1::mg1;

use crate::cache::{quantize, ReportKey, SolveCache};
use crate::cs_cq::{BusyPeriodFit, CsCqReport};
use crate::{check_arrival_rate, stability, AnalysisError, SystemParams};

/// Most hosts a fleet may have (`k + m`), and so the longest slot tuple.
const MAX_HOSTS: usize = 32;

/// Fleet shape: `k` short hosts and `m` stealing (long) hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hosts {
    k: usize,
    m: usize,
}

impl Hosts {
    /// Creates a fleet shape.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Param`] if `k == 0` (the model needs at least one
    /// short host) or `k + m > 32` (a guard against accidental
    /// combinatorial blow-ups — the phase space grows as
    /// `C(m + k1 + k2 + 1, m)`).
    pub fn new(k: usize, m: usize) -> Result<Self, AnalysisError> {
        if k == 0 {
            return Err(AnalysisError::Param(DistError::Inconsistent {
                reason: "fleet needs at least one short host (k >= 1)",
            }));
        }
        if k + m > MAX_HOSTS {
            return Err(AnalysisError::Param(DistError::Inconsistent {
                reason: "fleet too large (k + m must be <= 32)",
            }));
        }
        Ok(Hosts { k, m })
    }

    /// The paper's 2-host system: one short host, one stealing host.
    pub fn paper() -> Self {
        Hosts { k: 1, m: 1 }
    }

    /// Number of short hosts.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stealing (long) hosts.
    pub fn m(&self) -> usize {
        self.m
    }
}

/// Analyzes the `(k, m)` fleet with the paper's three-moment busy-period
/// transitions.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] outside the fleet stability region
/// (`ρ_L < m`, `ρ_S < (k + m) − ρ_L`); [`AnalysisError::Chain`] if the QBD
/// solver fails.
///
/// # Examples
///
/// ```
/// use cyclesteal_core::cs_cq_km::{analyze, Hosts};
/// use cyclesteal_core::SystemParams;
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// // rho_s = 2.5 needs more than two hosts; a (2, 1) fleet carries it.
/// let p = SystemParams::exponential(2.5, 1.0, 0.3, 1.0)?;
/// let r = analyze(Hosts::new(2, 1)?, &p)?;
/// assert!(r.short_response.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn analyze(hosts: Hosts, params: &SystemParams) -> Result<CsCqReport, AnalysisError> {
    analyze_with(hosts, params, BusyPeriodFit::ThreeMoment)
}

/// Analyzes the fleet with a chosen busy-period moment-matching order.
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_with(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
) -> Result<CsCqReport, AnalysisError> {
    analyze_inner(hosts, params, fit, None, None, &mut Workspace::new())
}

/// [`analyze_with`] through a [`SolveCache`]: the workload is snapped onto
/// the cache's quantization grid and every expensive sub-solve (busy-period
/// Coxian fits, the chain's QBD solution, the whole report) is memoized.
/// Because all cached values are pure functions of their quantized keys,
/// results are bit-identical regardless of which thread or sweep order
/// populated the cache — see the `crate::cache` module docs.
/// The report key carries `(k, m)` verbatim — host counts are integers and
/// are never quantized, so scenarios differing only in fleet shape cannot
/// collide.
///
/// # Errors
///
/// As for [`analyze`]. Errors are never cached (they are cheap to
/// rediscover and equally deterministic).
pub fn analyze_cached(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
) -> Result<CsCqReport, AnalysisError> {
    analyze_cached_in(hosts, params, fit, cache, &mut Workspace::new())
}

/// [`analyze_cached`] solving out of a caller-owned scratch [`Workspace`]
/// (the recovery ladder's rung). Buffers are canonically reset on checkout,
/// so the result is bit-identical no matter what the workspace held before.
pub(crate) fn analyze_cached_in(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
    ws: &mut Workspace,
) -> Result<CsCqReport, AnalysisError> {
    let snapped = snap_params(params);
    let key = report_key(hosts, &snapped, fit);
    cache.report(key, || {
        analyze_inner(hosts, &snapped, fit, None, Some(cache), ws)
    })
}

/// The fleet analysis with MAP short arrivals (three-moment fits, no
/// cache: the cache keys carry no arrival-process information).
pub(crate) fn analyze_map(
    hosts: Hosts,
    params: &SystemParams,
    arrivals: &Map,
) -> Result<CsCqReport, AnalysisError> {
    let fit = BusyPeriodFit::ThreeMoment;
    analyze_inner(
        hosts,
        params,
        fit,
        Some(arrivals),
        None,
        &mut Workspace::new(),
    )
}

/// The [`ReportKey`] under which [`analyze_cached`] memoizes this
/// workload's report and QBD solution (and the persistence layer stores
/// the report): the snapped parameter bits, the fit tag and the host
/// counts verbatim. Cheap — no fit, no chain — so the batch planner keys
/// its skip and dedup decisions off it before building anything.
pub fn cache_key(hosts: Hosts, params: &SystemParams, fit: BusyPeriodFit) -> ReportKey {
    report_key(hosts, &snap_params(params), fit)
}

/// [`cache_key`] of already-snapped parameters.
fn report_key(hosts: Hosts, snapped: &SystemParams, fit: BusyPeriodFit) -> ReportKey {
    (
        [
            snapped.lambda_s().to_bits(),
            snapped.mu_s().to_bits(),
            snapped.lambda_l().to_bits(),
            snapped.long_moments().mean().to_bits(),
            snapped.long_moments().m2().to_bits(),
            snapped.long_moments().m3().to_bits(),
        ],
        fit.tag(),
        (hosts.k as u32, hosts.m as u32),
    )
}

/// Snaps every workload parameter onto the cache quantization grid; keeps
/// the original parameters if the snapped triple happens to fall outside
/// the feasible set (only possible exactly on a feasibility boundary).
fn snap_params(params: &SystemParams) -> SystemParams {
    let long = params.long_moments();
    Moments3::new(
        quantize(long.mean()),
        quantize(long.m2()),
        quantize(long.m3()),
    )
    .map_err(AnalysisError::from)
    .and_then(|m| {
        SystemParams::new(
            quantize(params.lambda_s()),
            quantize(params.mu_s()),
            quantize(params.lambda_l()),
            m,
        )
    })
    .unwrap_or(*params)
}

/// Builds the fleet QBD exactly as [`analyze_with`] constructs it,
/// **without solving** — so benchmarks and diagnostics can isolate the QBD
/// *solve* from the model *construction*.
///
/// # Errors
///
/// As for [`analyze`], minus the solver errors (nothing is solved).
///
/// # Examples
///
/// ```
/// use cyclesteal_core::cs_cq_km::{build_qbd_model, Hosts};
/// use cyclesteal_core::SystemParams;
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let p = SystemParams::exponential(1.2, 1.0, 0.5, 1.0)?;
/// let qbd = build_qbd_model(Hosts::paper(), &p, Default::default())?;
/// assert!(qbd.solve().is_ok());
/// # Ok(())
/// # }
/// ```
pub fn build_qbd_model(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
) -> Result<Qbd, AnalysisError> {
    build_chain(hosts, params, fit, None)
}

/// [`build_qbd_model`] with optional MAP short arrivals (`None` = Poisson).
pub(crate) fn build_chain(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    arrivals: Option<&Map>,
) -> Result<Qbd, AnalysisError> {
    check_arrival_rate(params, arrivals)?;
    let fits = fit_slot_busy_periods(hosts, params, fit, None)?;
    let phs = fits.as_ref().map(|f| (&f.0 .0, &f.1 .0));
    build_with_layout(&KmLayout::new(hosts, phs), params, phs, arrivals)
}

/// Builds the fleet QBD exactly as [`analyze_cached`] would on a solution
/// miss — parameters snapped, fits served through the cache — without
/// solving it or memoizing it. The sweep batch planner's hook: the chain's
/// solution, seeded under [`cache_key`] with
/// [`SolveCache::seed_solution`], is exactly the solution the cached
/// analysis looks up.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] outside the fleet stability region (judged
/// on the snapped loads); otherwise as for [`build_qbd_model`].
pub fn plan_qbd_cached(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
) -> Result<Qbd, AnalysisError> {
    let snapped = snap_params(params);
    let (rho_s, rho_l) = (snapped.rho_s(), snapped.rho_l());
    if !stability::is_stable_km(hosts.k, hosts.m, rho_s, rho_l) {
        return Err(unstable_error(hosts, rho_s, rho_l));
    }
    let fits = fit_slot_busy_periods(hosts, &snapped, fit, Some(cache))?;
    let phs = fits.as_ref().map(|f| (&f.0 .0, &f.1 .0));
    build_with_layout(&KmLayout::new(hosts, phs), &snapped, phs, None)
}

/// Moments of a slot's `B_L`: the M/G/1 busy period of the slot's own
/// Poisson(`λ_L / m`) long stream.
///
/// # Errors
///
/// [`AnalysisError::Param`] if the slot load `ρ_L / m ≥ 1` or `m == 0`.
pub fn bl_moments(hosts: Hosts, params: &SystemParams) -> Result<Moments3, AnalysisError> {
    if hosts.m == 0 {
        return Err(no_long_class());
    }
    Ok(busy::mg1_busy(
        params.lambda_l() / hosts.m as f64,
        params.long_moments(),
    )?)
}

/// Moments of a slot's `B_{N+1}`: the busy period started by the longs
/// accumulated while waiting `I ~ Exp((k + m) μ_S)` for a short completion
/// (all `k + m` servers busy with shorts).
///
/// # Errors
///
/// As for [`bl_moments`].
pub fn bn_moments(hosts: Hosts, params: &SystemParams) -> Result<Moments3, AnalysisError> {
    if hosts.m == 0 {
        return Err(no_long_class());
    }
    Ok(busy::bn1(
        params.lambda_l() / hosts.m as f64,
        params.long_moments(),
        (hosts.k + hosts.m) as f64 * params.mu_s(),
    )?)
}

fn no_long_class() -> AnalysisError {
    AnalysisError::Param(DistError::Inconsistent {
        reason: "a fleet without stealing hosts has no long busy periods",
    })
}

/// The stationary distribution of the number of short jobs in system,
/// `P(N_S = n)` for `n = 0 ..= n_max` (see `crate::cs_cq::shorts_distribution`).
pub(crate) fn shorts_distribution(
    hosts: Hosts,
    params: &SystemParams,
    n_max: usize,
) -> Result<Vec<f64>, AnalysisError> {
    let (rho_s, rho_l) = (params.rho_s(), params.rho_l());
    if !stability::is_stable_km(hosts.k, hosts.m, rho_s, rho_l) {
        return Err(unstable_error(hosts, rho_s, rho_l));
    }
    let fits = fit_slot_busy_periods(hosts, params, BusyPeriodFit::ThreeMoment, None)?;
    let phs = fits.as_ref().map(|f| (&f.0 .0, &f.1 .0));
    let layout = KmLayout::new(hosts, phs);
    let sol = build_with_layout(&layout, params, phs, None)?.solve_in(&mut Workspace::new())?;

    // Boundary level n holds n shorts; repeating level j holds k + m + j.
    let levels = layout.k + layout.m;
    let mut dist = Vec::with_capacity(n_max + 1);
    for n in 0..levels.min(n_max + 1) {
        dist.push(
            sol.boundary()[layout.offsets[n]..layout.offsets[n + 1]]
                .iter()
                .sum(),
        );
    }
    if n_max >= levels {
        dist.extend(sol.level_masses(n_max + 1 - levels));
    }
    // Refuse to return a silently truncated distribution: the emitted mass
    // must account for everything but a negligible tail (relative to the
    // chain's own total mass, which is 1 up to solver roundoff).
    let emitted: f64 = dist.iter().sum();
    let tail = (sol.total_mass() - emitted).max(0.0);
    const TAIL_TOL: f64 = 1e-6;
    if tail > TAIL_TOL {
        return Err(AnalysisError::Truncated {
            n_max,
            tail_mass: tail,
            tolerance: TAIL_TOL,
        });
    }
    Ok(dist)
}

/// Per-slot long response: an M/G/1 at rate `λ_L / m` whose busy periods
/// pay a setup `K = Exp((k + m) μ_S)` with probability `p_setup`.
pub(crate) fn long_response_with_setup(
    hosts: Hosts,
    params: &SystemParams,
    p_setup: f64,
) -> Result<f64, AnalysisError> {
    let theta = (hosts.k + hosts.m) as f64 * params.mu_s();
    let k1 = p_setup / theta;
    let k2 = 2.0 * p_setup / (theta * theta);
    Ok(mg1::mean_response_with_setup(
        params.lambda_l() / hosts.m as f64,
        params.long_moments(),
        k1,
        k2,
    )?)
}

fn unstable_error(hosts: Hosts, rho_s: f64, rho_l: f64) -> AnalysisError {
    let rho_s_max = if hosts.m == 0 {
        hosts.k as f64
    } else {
        stability::max_rho_s_km(hosts.k, hosts.m, rho_l)
    };
    AnalysisError::Unstable {
        policy: "CS-CQ",
        rho_s,
        rho_l,
        rho_s_max,
    }
}

type SlotFits = ((Ph, MatchQuality), (Ph, MatchQuality));

/// Fits both per-slot busy periods, or `None` for `m = 0` (no long class).
fn fit_slot_busy_periods(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: Option<&SolveCache>,
) -> Result<Option<SlotFits>, AnalysisError> {
    if hosts.m == 0 {
        return Ok(None);
    }
    let bl = fit_busy_period_cached(bl_moments(hosts, params)?, fit, cache)?;
    let bn = fit_busy_period_cached(bn_moments(hosts, params)?, fit, cache)?;
    Ok(Some((bl, bn)))
}

fn fit_busy_period_cached(
    m: Moments3,
    fit: BusyPeriodFit,
    cache: Option<&SolveCache>,
) -> Result<(Ph, MatchQuality), AnalysisError> {
    match cache {
        Some(c) => c.fit(m, fit.tag(), || fit_busy_period(m, fit)),
        None => fit_busy_period(m, fit),
    }
}

fn fit_busy_period(m: Moments3, fit: BusyPeriodFit) -> Result<(Ph, MatchQuality), AnalysisError> {
    match fit {
        BusyPeriodFit::MeanOnly => Ok((Ph::exponential(1.0 / m.mean())?, MatchQuality::MeanOnly)),
        BusyPeriodFit::TwoMoment => {
            // Re-derive a feasible triple with the right mean and scv but a
            // conventional third moment, then match it exactly.
            let doctored = Moments3::from_mean_scv_balanced(m.mean(), m.scv().max(1e-9))?;
            let f = match3::fit_ph(doctored)?;
            Ok((f.ph, MatchQuality::ExactTwo))
        }
        BusyPeriodFit::ThreeMoment => {
            let f = match3::fit_ph(m)?;
            Ok((f.ph, f.quality))
        }
    }
}

/// The one analysis pipeline: stability precheck, busy-period fits, chain
/// and its solution (looked up by report key when a cache is given, so a
/// hit builds no chain), report.
fn analyze_inner(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    arrivals: Option<&Map>,
    cache: Option<&SolveCache>,
    ws: &mut Workspace,
) -> Result<CsCqReport, AnalysisError> {
    cyclesteal_obs::span!("core.cs_cq.analyze");
    cyclesteal_obs::counter!("core.cs_cq.analyze");
    check_arrival_rate(params, arrivals)?;
    let (rho_s, rho_l) = (params.rho_s(), params.rho_l());
    if !stability::is_stable_km(hosts.k, hosts.m, rho_s, rho_l) {
        return Err(unstable_error(hosts, rho_s, rho_l));
    }

    let fits = fit_slot_busy_periods(hosts, params, fit, cache)?;
    let phs = fits.as_ref().map(|f| (&f.0 .0, &f.1 .0));
    let layout = KmLayout::new(hosts, phs);
    let sol = match cache {
        // The key carries no arrival-process information; it is sound
        // because the cached path always drives the chain with Poisson
        // arrivals at the snapped workload the key encodes (see
        // [`analyze_cached_in`]; [`analyze_map`] passes no cache). Only a
        // miss builds the chain; a solution seeded by a batch presolve is
        // served without assembling (or hashing) any block matrix.
        Some(c) => c.solution(report_key(hosts, params, fit), || {
            Ok(build_with_layout(&layout, params, phs, None)?.solve_in(ws)?)
        })?,
        None => build_with_layout(&layout, params, phs, arrivals)?.solve_in(ws)?,
    };

    // E[N_S]: boundary level n holds n shorts; repeating level j holds
    // (k + m) + j.
    let (k, m) = (hosts.k, hosts.m);
    let ka = arrivals.map_or(1, Map::dim);
    let mut mean_shorts = 0.0;
    for n in 1..(k + m) {
        let mass: f64 = sol.boundary()[layout.offsets[n] * ka..layout.offsets[n + 1] * ka]
            .iter()
            .sum();
        mean_shorts += n as f64 * mass;
    }
    mean_shorts += (k + m) as f64 * sol.repeating_mass();
    mean_shorts += sol.expected_level_index();
    let short_response = mean_shorts / params.lambda_s();

    // Region probabilities, slot-averaged (PASTA over the uniformly chosen
    // slot of an arriving long; long arrivals stay Poisson whatever drives
    // the shorts): region 1 = slot free and a server idle, region 2 = slot
    // free but every server busy, region 5 = a long waits at the slot.
    // Arrival phase outermost, then the boundary, then the repeating
    // aggregate: the accumulation order is part of the report's bits.
    let mut p_region1 = 0.0;
    let mut p_region2 = 0.0;
    let mut p_region5 = 0.0;
    let (setup_probability, long_response) = if m == 0 {
        (0.0, 0.0)
    } else {
        let phase_mass = sol.phase_mass();
        for a in 0..ka {
            for n in 0..(k + m) {
                for (pos, &p) in layout.level(n).iter().enumerate() {
                    let x = sol.boundary()[(layout.offsets[n] + pos) * ka + a];
                    let info = layout.info[p];
                    if info.free >= 1 {
                        let w = info.free as f64 / m as f64;
                        if n < layout.avail(p) {
                            p_region1 += w * x;
                        } else {
                            p_region2 += w * x;
                        }
                    }
                    if info.r5 >= 1 {
                        p_region5 += info.r5 as f64 / m as f64 * x;
                    }
                }
            }
            for (p, info) in layout.info.iter().enumerate() {
                let x = phase_mass[p * ka + a];
                if info.free >= 1 {
                    // No server is ever idle at repeating levels (n ≥ k + m).
                    p_region2 += info.free as f64 / m as f64 * x;
                }
                if info.r5 >= 1 {
                    p_region5 += info.r5 as f64 / m as f64 * x;
                }
            }
        }
        let p_setup = p_region2 / (p_region1 + p_region2);
        (p_setup, long_response_with_setup(hosts, params, p_setup)?)
    };

    let (bl_match, bn_match) = match &fits {
        Some(((_, blq), (_, bnq))) => (*blq, *bnq),
        // m = 0: no busy periods exist; report the trivial quality.
        None => (MatchQuality::MeanOnly, MatchQuality::MeanOnly),
    };
    Ok(CsCqReport {
        short_response,
        long_response,
        mean_shorts_in_system: mean_shorts,
        p_region1,
        p_region2,
        p_region5,
        setup_probability,
        bl_match,
        bn_match,
        total_mass: sol.total_mass(),
    })
}

/// Per-phase slot-state counts.
#[derive(Debug, Clone, Copy)]
struct PhaseInfo {
    /// Slots in `F` (empty).
    free: usize,
    /// Slots running a busy period (`BL` or `BN` stage).
    busy: usize,
    /// Slots with a waiting long (`R5`).
    r5: usize,
}

/// A sorted slot-state tuple; only the first `m` entries are used.
type Tuple = [u8; MAX_HOSTS];

/// Phase enumeration and boundary layout of the `(k, m)` chain (slot
/// phases only; the arrival phase multiplies every index by `ka`).
///
/// Slot-state ids: `F = 0`, `BL(i) = 1 + i`, `BN(j) = 1 + k1 + j`,
/// `R5 = 1 + k1 + k2`. Phases are the sorted (non-decreasing) slot-state
/// tuples of length `m`, in lexicographic order — at `m = 1` the paper's
/// phase order.
struct KmLayout {
    k: usize,
    m: usize,
    k1: usize,
    k2: usize,
    phases: Vec<Tuple>,
    info: Vec<PhaseInfo>,
    /// Valid phase ids of every boundary level, level by level, ascending
    /// within a level: level `n` is `level_phases[offsets[n]..offsets[n + 1]]`.
    level_phases: Vec<usize>,
    /// `offsets[n]` = boundary index of level `n`'s first phase;
    /// `offsets[k + m]` = total boundary dimension.
    offsets: Vec<usize>,
    /// `level_pos[n * np + p]` = position of phase `p` within level `n`
    /// (`usize::MAX` when invalid there).
    level_pos: Vec<usize>,
}

impl KmLayout {
    fn new(hosts: Hosts, phs: Option<(&Ph, &Ph)>) -> Self {
        let (k, m) = (hosts.k, hosts.m);
        let (k1, k2) = match phs {
            Some((bl, bn)) => (bl.dim(), bn.dim()),
            None => (0, 0),
        };
        let hs = if m == 0 { 0 } else { 2 + k1 + k2 };
        // C(hs + m − 1, m) multisets of size m over hs slot states.
        let np = (1..=m).fold(1, |c, i| c * (hs + i - 1) / i);
        let mut phases = Vec::with_capacity(np);
        enumerate_multisets(&mut phases, &mut [0; MAX_HOSTS], 0, m, 0, hs as u8);
        debug_assert_eq!(phases.len(), np);

        let r5_id = (1 + k1 + k2) as u8;
        let info: Vec<PhaseInfo> = phases
            .iter()
            .map(|t| {
                let free = t[..m].iter().filter(|&&s| s == 0).count();
                let r5 = t[..m].iter().filter(|&&s| s == r5_id).count();
                PhaseInfo {
                    free,
                    r5,
                    busy: m - free - r5,
                }
            })
            .collect();

        let mut level_phases = Vec::with_capacity((k + m) * np);
        let mut offsets = Vec::with_capacity(k + m + 1);
        let mut level_pos = vec![usize::MAX; (k + m) * np];
        for n in 0..(k + m) {
            offsets.push(level_phases.len());
            for (p, i) in info.iter().enumerate() {
                if i.r5 == 0 || n >= k + i.free + i.r5 {
                    level_pos[n * np + p] = level_phases.len() - offsets[n];
                    level_phases.push(p);
                }
            }
        }
        offsets.push(level_phases.len());

        KmLayout {
            k,
            m,
            k1,
            k2,
            phases,
            info,
            level_phases,
            offsets,
            level_pos,
        }
    }

    /// Valid phase ids at boundary level `n`, ascending.
    fn level(&self, n: usize) -> &[usize] {
        &self.level_phases[self.offsets[n]..self.offsets[n + 1]]
    }

    /// Servers available to shorts in phase `p`: `k + m` minus the slots
    /// busy running long work.
    fn avail(&self, p: usize) -> usize {
        self.k + self.m - self.info[p].busy
    }

    /// Slot-state id of `B_L` stage `i`.
    fn st_bl(&self, i: usize) -> u8 {
        (1 + i) as u8
    }

    /// Slot-state id of `B_{N+1}` stage `j`.
    fn st_bn(&self, j: usize) -> u8 {
        (1 + self.k1 + j) as u8
    }

    /// Slot-state id of `R5`.
    fn st_r5(&self) -> u8 {
        (1 + self.k1 + self.k2) as u8
    }

    /// Phase id of a sorted tuple (only `t[..m]` is read).
    fn index_of(&self, t: &Tuple) -> usize {
        let m = self.m;
        self.phases
            .binary_search_by(|x| x[..m].cmp(&t[..m]))
            .expect("every sorted slot tuple is enumerated")
    }

    /// Phase reached from `p` by moving one slot `from → to`.
    fn replace(&self, p: usize, from: u8, to: u8) -> usize {
        let mut t = self.phases[p];
        let slots = &mut t[..self.m];
        let pos = slots
            .iter()
            .position(|&s| s == from)
            .expect("slot state present in phase");
        slots[pos] = to;
        slots.sort_unstable();
        self.index_of(&t)
    }

    /// Phase reached from `p` by moving two slots at once.
    fn replace2(&self, p: usize, from1: u8, to1: u8, from2: u8, to2: u8) -> usize {
        let mut t = self.phases[p];
        let slots = &mut t[..self.m];
        let pos1 = slots
            .iter()
            .position(|&s| s == from1)
            .expect("first slot state present");
        slots[pos1] = to1;
        let pos2 = slots
            .iter()
            .enumerate()
            .position(|(i, &s)| s == from2 && i != pos1)
            .expect("second slot state present");
        slots[pos2] = to2;
        slots.sort_unstable();
        self.index_of(&t)
    }

    /// Boundary index of phase `p` at level `n` (must be valid there).
    fn bidx(&self, n: usize, p: usize) -> usize {
        let pos = self.level_pos[n * self.phases.len() + p];
        debug_assert_ne!(pos, usize::MAX, "phase invalid at boundary level");
        self.offsets[n] + pos
    }

    /// Distinct `(state, count)` runs of phase `p`'s sorted tuple.
    fn runs(&self, p: usize) -> impl Iterator<Item = (u8, usize)> + '_ {
        self.phases[p][..self.m]
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
    }
}

/// Non-decreasing tuples of length `m` over `start..hs`, lex order; `cur`
/// holds the first `len` entries of the tuple being built.
fn enumerate_multisets(
    out: &mut Vec<Tuple>,
    cur: &mut Tuple,
    len: usize,
    m: usize,
    start: u8,
    hs: u8,
) {
    if len == m {
        out.push(*cur);
        return;
    }
    for s in start..hs {
        cur[len] = s;
        enumerate_multisets(out, cur, len + 1, m, s, hs);
    }
}

/// Fills the diagonal of `local` so that the row sums of the concatenated
/// blocks vanish.
fn fix_diagonal(local: &mut Matrix, others: &[&Matrix]) {
    for i in 0..local.rows() {
        let mut out: f64 = 0.0;
        for j in 0..local.cols() {
            if j != i {
                out += local[(i, j)];
            }
        }
        for b in others {
            out += b.row(i).iter().sum::<f64>();
        }
        local[(i, i)] = -out;
    }
}

/// Assembles the six generator blocks. The short arrival process is a MAP
/// (`None` is Poisson at `λ_S`, the one-phase MAP whose `D1` is `[λ_S]`);
/// the full phase space is the Kronecker product of the slot phases and the
/// MAP phases, MAP phase innermost. Long arrivals remain Poisson — the
/// busy-period transforms require it.
fn build_with_layout(
    layout: &KmLayout,
    params: &SystemParams,
    phs: Option<(&Ph, &Ph)>,
    arrivals: Option<&Map>,
) -> Result<Qbd, AnalysisError> {
    if let Some((bl, bn)) = phs {
        for ph in [bl, bn] {
            let mass: f64 = ph.initial().iter().sum();
            if (mass - 1.0).abs() > 1e-9 {
                return Err(AnalysisError::Param(DistError::Inconsistent {
                    reason: "busy-period phase-type has an atom at zero",
                }));
            }
        }
    }

    let (k, m) = (layout.k, layout.m);
    let (lambda_s, mu_s, lambda_l) = (params.lambda_s(), params.mu_s(), params.lambda_l());
    let ka = arrivals.map_or(1, Map::dim);
    let np = layout.phases.len();
    let nb = layout.offsets[k + m];
    let bn_initial = phs.map(|(_, bn)| bn.initial());

    // Inserts `rate · I_ka` from phase `from` to phase `to`: a transition
    // that leaves the arrival phase alone.
    let eye = |mat: &mut Matrix, from: usize, to: usize, rate: f64| {
        for a in 0..ka {
            mat[(from * ka + a, to * ka + a)] += rate;
        }
    };
    // Inserts a `D1` block (short arrival; the arrival phase may change).
    let arrive = |mat: &mut Matrix, from: usize, to: usize| match arrivals {
        None => mat[(from, to)] += lambda_s,
        Some(map) => {
            for a in 0..ka {
                for b in 0..ka {
                    mat[(from * ka + a, to * ka + b)] += map.d1()[(a, b)];
                }
            }
        }
    };
    // Inserts the `D0` off-diagonals (arrival-phase moves) within phase `p`.
    let map_internal = |mat: &mut Matrix, p: usize| {
        if let Some(map) = arrivals {
            for a in 0..ka {
                for b in 0..ka {
                    if a != b {
                        mat[(p * ka + a, p * ka + b)] += map.d0()[(a, b)];
                    }
                }
            }
        }
    };

    // Down-transitions from phase `p` with `s` shorts in service: the
    // completion frees a server, which rescues the oldest waiting slot
    // when one exists (`R5 → BN(j)` w.p. β_j). Emits into `mat` at
    // `(row, col_of(target phase))`.
    let emit_completion =
        |mat: &mut Matrix, row: usize, p: usize, s: usize, col_of: &dyn Fn(usize) -> usize| {
            if s == 0 {
                return;
            }
            if layout.info[p].r5 == 0 {
                eye(mat, row, col_of(p), s as f64 * mu_s);
            } else {
                let init = bn_initial.expect("R5 slots require a long class");
                for (j, &beta) in init.iter().enumerate().take(layout.k2) {
                    let q = layout.replace(p, layout.st_r5(), layout.st_bn(j));
                    eye(mat, row, col_of(q), s as f64 * mu_s * beta);
                }
            }
        };

    // Within-level transitions of phase `p` at a level with `idle` servers
    // available (boundary levels can have idle servers; repeating cannot).
    let emit_local =
        |mat: &mut Matrix, row: usize, p: usize, idle: bool, col_of: &dyn Fn(usize) -> usize| {
            let info = layout.info[p];
            if info.free >= 1 {
                let (bl, _) = phs.expect("free slots require a long class");
                if idle {
                    // A long starts B_L on an idle server (region 1 → 3).
                    for j in 0..layout.k1 {
                        let q = layout.replace(p, 0, layout.st_bl(j));
                        let rate = lambda_l * (info.free as f64 / m as f64) * bl.initial()[j];
                        eye(mat, row, col_of(q), rate);
                    }
                } else {
                    // Every server is busy: the long waits (region 2 → 5).
                    let q = layout.replace(p, 0, layout.st_r5());
                    eye(
                        mat,
                        row,
                        col_of(q),
                        lambda_l * (info.free as f64 / m as f64),
                    );
                }
            }
            // Busy-period Coxian dynamics, per distinct occupied stage.
            for (state, count) in layout.runs(p) {
                let (ph, i) = if state == 0 || state == layout.st_r5() {
                    continue;
                } else if (state as usize) <= layout.k1 {
                    let (bl, _) = phs.expect("BL slots require a long class");
                    (bl, state as usize - 1)
                } else {
                    let (_, bn) = phs.expect("BN slots require a long class");
                    (bn, state as usize - 1 - layout.k1)
                };
                for j in 0..ph.dim() {
                    if i != j {
                        let to = if (state as usize) <= layout.k1 {
                            layout.st_bl(j)
                        } else {
                            layout.st_bn(j)
                        };
                        let q = layout.replace(p, state, to);
                        eye(
                            mat,
                            row,
                            col_of(q),
                            count as f64 * ph.subgenerator()[(i, j)],
                        );
                    }
                }
                // Busy period ends: the slot empties; the freed server
                // rescues the oldest waiting slot when one exists
                // (impossible at (1, 1), where b and r cannot coexist).
                if info.r5 == 0 {
                    let q = layout.replace(p, state, 0);
                    eye(mat, row, col_of(q), count as f64 * ph.exit_rates()[i]);
                } else {
                    let init = bn_initial.expect("R5 slots require a long class");
                    for (j, &beta) in init.iter().enumerate().take(layout.k2) {
                        let q = layout.replace2(p, state, 0, layout.st_r5(), layout.st_bn(j));
                        eye(
                            mat,
                            row,
                            col_of(q),
                            count as f64 * ph.exit_rates()[i] * beta,
                        );
                    }
                }
            }
        };

    // ---- Repeating blocks (levels n ≥ k + m: no server is ever idle) ----
    let mut a0 = Matrix::zeros(np * ka, np * ka);
    for p in 0..np {
        arrive(&mut a0, p, p);
    }

    let mut a2 = Matrix::zeros(np * ka, np * ka);
    for p in 0..np {
        emit_completion(&mut a2, p, p, layout.avail(p), &|q| q);
    }

    let mut a1 = Matrix::zeros(np * ka, np * ka);
    for p in 0..np {
        emit_local(&mut a1, p, p, false, &|q| q);
        map_internal(&mut a1, p);
    }
    fix_diagonal(&mut a1, &[&a0, &a2]);

    // ---- Boundary blocks (levels 0 .. k + m − 1) ------------------------
    let mut b00 = Matrix::zeros(nb * ka, nb * ka);
    let mut b01 = Matrix::zeros(nb * ka, np * ka);
    let mut b10 = Matrix::zeros(np * ka, nb * ka);

    for n in 0..(k + m) {
        for &p in layout.level(n) {
            let row = layout.bidx(n, p);
            // Short arrival: up one level (into the repeating portion from
            // the last boundary level).
            if n + 1 < k + m {
                arrive(&mut b00, row, layout.bidx(n + 1, p));
            } else {
                arrive(&mut b01, row, p);
            }
            // Short completion: down one level.
            let s = n.min(layout.avail(p));
            if n >= 1 {
                emit_completion(&mut b00, row, p, s, &|q| layout.bidx(n - 1, q));
            }
            // Long arrivals and busy-period dynamics within the level; a
            // server is idle iff fewer shorts than short-capable servers.
            emit_local(&mut b00, row, p, n < layout.avail(p), &|q| {
                layout.bidx(n, q)
            });
            map_internal(&mut b00, row);
        }
    }
    fix_diagonal(&mut b00, &[&b01]);

    // First repeating level (n = k + m) down to the last boundary level.
    for p in 0..np {
        emit_completion(&mut b10, p, p, layout.avail(p), &|q| {
            layout.bidx(k + m - 1, q)
        });
    }

    Ok(Qbd::new(b00, b01, b10, a0, a1, a2)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_mg1::mmc;

    fn exp_params(rho_s: f64, rho_l: f64) -> SystemParams {
        SystemParams::exponential(rho_s, 1.0, rho_l, 1.0).unwrap()
    }

    #[test]
    fn m_zero_reduces_to_mmk_of_the_shorts() {
        for k in [1usize, 2, 4] {
            let rho_s = 0.7 * k as f64;
            let p = exp_params(rho_s, 0.5);
            let r = analyze(Hosts::new(k, 0).unwrap(), &p).unwrap();
            let want = mmc::mean_response(k as u32, p.lambda_s(), p.mu_s()).unwrap();
            assert!(
                (r.short_response - want).abs() / want < 1e-9,
                "k = {k}: {} vs M/M/{k} {want}",
                r.short_response
            );
            assert_eq!(r.long_response, 0.0);
            assert_eq!(r.setup_probability, 0.0);
        }
    }

    #[test]
    fn fleet_chains_solve_with_unit_mass() {
        for (k, m) in [(2, 1), (1, 2), (2, 2), (3, 2)] {
            let hosts = Hosts::new(k, m).unwrap();
            let p = exp_params(0.6 * (k + m) as f64, 0.4 * m as f64);
            let r = analyze(hosts, &p).unwrap();
            assert!(
                (r.total_mass - 1.0).abs() < 1e-8,
                "({k},{m}): mass {}",
                r.total_mass
            );
            assert!(r.short_response.is_finite() && r.short_response > 0.0);
            assert!(r.long_response.is_finite() && r.long_response > 0.0);
            assert!((0.0..=1.0).contains(&r.setup_probability), "({k},{m})");
        }
    }

    #[test]
    fn fleet_stability_frontier_enforced() {
        let hosts = Hosts::new(2, 2).unwrap();
        // rho_s_max = (k + m) - rho_l = 3.5 at rho_l = 0.5.
        assert!(analyze(hosts, &exp_params(3.4, 0.5)).is_ok());
        assert!(matches!(
            analyze(hosts, &exp_params(3.6, 0.5)),
            Err(AnalysisError::Unstable { .. })
        ));
        // Long class needs rho_l < m.
        assert!(analyze(hosts, &exp_params(0.5, 1.5)).is_ok());
        assert!(analyze(hosts, &exp_params(0.5, 2.1)).is_err());
    }

    #[test]
    fn hosts_validation() {
        assert!(Hosts::new(0, 1).is_err());
        assert!(Hosts::new(1, 40).is_err());
        let h = Hosts::new(3, 2).unwrap();
        assert_eq!((h.k(), h.m()), (3, 2));
    }

    #[test]
    fn hosts_differing_scenarios_never_share_cache_entries() {
        let cache = SolveCache::new();
        let p = exp_params(1.1, 0.5);
        let fit = BusyPeriodFit::ThreeMoment;
        let a = analyze_cached(Hosts::new(1, 2).unwrap(), &p, fit, &cache).unwrap();
        let b = analyze_cached(Hosts::new(2, 1).unwrap(), &p, fit, &cache).unwrap();
        // Same workload, different fleet shape: genuinely different answers,
        // so a key collision would be observable — and the integer (k, m)
        // component makes one impossible.
        assert_ne!(
            a.short_response.to_bits(),
            b.short_response.to_bits(),
            "(1,2) and (2,1) must not collide in the report cache"
        );
        // Re-running both must hit the report layer, proving each (k, m)
        // got its own entry rather than overwriting the other's.
        let before = cache.stats();
        let a2 = analyze_cached(Hosts::new(1, 2).unwrap(), &p, fit, &cache).unwrap();
        let b2 = analyze_cached(Hosts::new(2, 1).unwrap(), &p, fit, &cache).unwrap();
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 2);
        assert_eq!(after.misses, before.misses);
        assert_eq!(a.short_response.to_bits(), a2.short_response.to_bits());
        assert_eq!(b.short_response.to_bits(), b2.short_response.to_bits());
    }

    #[test]
    fn planned_fleet_chain_solution_is_served_to_the_cached_analysis_path() {
        // The (k, m) mirror of the 2-host seeded-solution test: a solution
        // of the planner's chain, seeded under the cache key, must be what
        // the analysis path serves — found by key, not recomputed.
        let cache = SolveCache::new();
        let hosts = Hosts::new(2, 2).unwrap();
        let p = exp_params(1.25, 0.5);
        let fit = BusyPeriodFit::ThreeMoment;
        let key = cache_key(hosts, &p, fit);
        assert!(!cache.contains(&key));
        let qbd = plan_qbd_cached(hosts, &p, fit, &cache).unwrap();
        cache.seed_solution(key, qbd.solve().unwrap());
        assert!(cache.contains(&key));
        // Planner: 2 fit misses (it memoizes no chain); seed: 1 solution
        // miss.
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (0, 3), "{before:?}");
        let via_cache = analyze_cached(hosts, &p, fit, &cache).unwrap();
        // Analysis: one report miss; hits on both fits and the seeded
        // solution.
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (3, 4), "{after:?}");
        let direct = analyze(hosts, &p).unwrap();
        assert_eq!(
            via_cache.short_response.to_bits(),
            direct.short_response.to_bits(),
            "a seeded fleet solve must not move the answer"
        );
    }

    #[test]
    fn adding_stealing_hosts_helps_the_shorts() {
        // Same absolute workload, growing m: shorts can only gain capacity.
        let p = exp_params(1.4, 0.5);
        let r1 = analyze(Hosts::new(1, 1).unwrap(), &p).unwrap();
        let r2 = analyze(Hosts::new(1, 2).unwrap(), &p).unwrap();
        let r3 = analyze(Hosts::new(1, 3).unwrap(), &p).unwrap();
        assert!(r2.short_response <= r1.short_response + 1e-9);
        assert!(r3.short_response <= r2.short_response + 1e-9);
    }
}
