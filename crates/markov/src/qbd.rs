//! Quasi-birth-death processes and the matrix-analytic solver.
//!
//! A QBD is a CTMC on states `(level, phase)` whose generator repeats from
//! some level onward:
//!
//! ```text
//!        boundary   level 0   level 1   level 2  ...
//! bdry  [  B00        B01                            ]
//! lvl0  [  B10        A1        A0                   ]
//! lvl1  [             A2        A1        A0         ]
//! lvl2  [                       A2        A1     A0  ]
//! ```
//!
//! The stationary vector has the matrix-geometric form `π_k = π_0 Rᵏ`, where
//! `R` is the minimal nonnegative solution of `A0 + R A1 + R² A2 = 0`
//! (Neuts). This module computes `R` via Latouche–Ramaswami logarithmic
//! reduction (quadratically convergent) and solves the boundary by a direct
//! linear system. The CS-CQ chain of the paper (Figure 2(b)) is exactly such
//! a process with the number of short jobs as the level.

use cyclesteal_linalg::{
    lu_factor_into, lu_inverse_into, lu_solve_cols_into, lu_solve_into, lu_solve_many_into,
    lu_solve_rows_into, max_abs_diff, spectral_radius_many, Matrix, Workspace,
};

use crate::MarkovError;

/// Relative tolerance for generator-consistency validation.
const GEN_TOL: f64 = 1e-8;
/// Convergence tolerance for the `R`/`G` fixed points.
const FP_TOL: f64 = 1e-13;
/// Iteration caps.
const LR_MAX_ITER: usize = 128;
const FI_MAX_ITER: usize = 200_000;
/// Iteration cap for the automatic functional-iteration fallback inside
/// [`Qbd::solve`]: raised over the standalone cap because the fallback
/// only runs where logarithmic reduction already failed — typically very
/// close to the stability frontier, where the linearly-convergent
/// iteration needs the extra budget.
const FI_FALLBACK_MAX_ITER: usize = 2 * FI_MAX_ITER;
/// Spectral radii above this are reported as unstable.
const STABILITY_MARGIN: f64 = 1.0 - 1e-9;

/// A quasi-birth-death process specification.
///
/// See the [module documentation](self) for the block layout. Row sums must
/// be conservative: `[B00 B01]`, `[B10 A1 A0]`, and `[A2 A1 A0]` must each
/// have zero row sums (which forces `B10` and `A2` to carry identical total
/// down-rates per phase).
#[derive(Debug, Clone)]
pub struct Qbd {
    b00: Matrix,
    b01: Matrix,
    b10: Matrix,
    a0: Matrix,
    a1: Matrix,
    a2: Matrix,
}

/// Which algorithm computes `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RAlgorithm {
    /// Latouche–Ramaswami logarithmic reduction (default; quadratic).
    LogarithmicReduction,
    /// Natural fixed-point iteration `R ← −(A0 + R²A2)A1⁻¹` (linear; kept
    /// for cross-validation and ablation benchmarks).
    FunctionalIteration,
}

impl Qbd {
    /// Creates a QBD from its blocks, validating shapes and conservativity.
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidGenerator`] if block shapes disagree, any
    /// off-diagonal rate is negative, or row sums are not conservative.
    pub fn new(
        b00: Matrix,
        b01: Matrix,
        b10: Matrix,
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
    ) -> Result<Self, MarkovError> {
        let nb = b00.rows();
        let m = a1.rows();
        let shape_ok = b00.cols() == nb
            && b01.rows() == nb
            && b01.cols() == m
            && b10.rows() == m
            && b10.cols() == nb
            && a0.rows() == m
            && a0.cols() == m
            && a1.is_square()
            && a2.rows() == m
            && a2.cols() == m
            && m > 0;
        if !shape_ok {
            return Err(MarkovError::InvalidGenerator {
                reason: "QBD block shapes are inconsistent".into(),
            });
        }
        let scale = [&b00, &b01, &b10, &a0, &a1, &a2]
            .iter()
            .map(|b| b.max_abs())
            .fold(1.0, f64::max);

        let nonneg = |mat: &Matrix, name: &str, skip_diag: bool| -> Result<(), MarkovError> {
            for i in 0..mat.rows() {
                for j in 0..mat.cols() {
                    if skip_diag && i == j {
                        continue;
                    }
                    if mat[(i, j)] < -GEN_TOL * scale {
                        return Err(MarkovError::InvalidGenerator {
                            reason: format!("negative rate in {name} at ({i},{j})"),
                        });
                    }
                }
            }
            Ok(())
        };
        nonneg(&b00, "B00", true)?;
        nonneg(&b01, "B01", false)?;
        nonneg(&b10, "B10", false)?;
        nonneg(&a0, "A0", false)?;
        nonneg(&a1, "A1", true)?;
        nonneg(&a2, "A2", false)?;

        for i in 0..nb {
            let s: f64 = b00.row(i).iter().sum::<f64>() + b01.row(i).iter().sum::<f64>();
            if s.abs() > GEN_TOL * scale {
                return Err(MarkovError::InvalidGenerator {
                    reason: format!("boundary row {i} sums to {s}"),
                });
            }
        }
        for i in 0..m {
            let s_rep: f64 = a0.row(i).iter().sum::<f64>()
                + a1.row(i).iter().sum::<f64>()
                + a2.row(i).iter().sum::<f64>();
            if s_rep.abs() > GEN_TOL * scale {
                return Err(MarkovError::InvalidGenerator {
                    reason: format!("repeating row {i} sums to {s_rep}"),
                });
            }
            let s_l0: f64 = a0.row(i).iter().sum::<f64>()
                + a1.row(i).iter().sum::<f64>()
                + b10.row(i).iter().sum::<f64>();
            if s_l0.abs() > GEN_TOL * scale {
                return Err(MarkovError::InvalidGenerator {
                    reason: format!("level-0 row {i} sums to {s_l0}"),
                });
            }
        }

        Ok(Qbd {
            b00,
            b01,
            b10,
            a0,
            a1,
            a2,
        })
    }

    /// Number of boundary states.
    pub fn boundary_dim(&self) -> usize {
        self.b00.rows()
    }

    /// A 128-bit content signature of the QBD: two independent FNV-1a
    /// streams over the block dimensions and the bit patterns of every
    /// entry. Two QBDs built from bit-identical blocks share a signature,
    /// which makes it a cheap chain-identity check for diagnostics,
    /// benchmarks and reduction tests.
    /// Collisions across *distinct* inputs require a simultaneous collision
    /// of both 64-bit streams — negligible at any realistic cache size.
    pub fn signature(&self) -> u128 {
        // FNV-1a with the standard offset/prime, and a second stream with a
        // decorrelated offset (the same prime; different seeds make the two
        // streams behave as independent hash functions).
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut eat = |word: u64| {
            for shift in [0u32, 32] {
                let byte_pair = (word >> shift) & 0xFFFF_FFFF;
                h1 = (h1 ^ byte_pair).wrapping_mul(PRIME);
                h2 = (h2 ^ byte_pair.rotate_left(17)).wrapping_mul(PRIME);
            }
        };
        eat(self.boundary_dim() as u64);
        eat(self.phase_dim() as u64);
        for block in [
            &self.b00, &self.b01, &self.b10, &self.a0, &self.a1, &self.a2,
        ] {
            for x in block.as_slice() {
                eat(x.to_bits());
            }
        }
        ((h1 as u128) << 64) | h2 as u128
    }

    /// Number of phases per repeating level.
    pub fn phase_dim(&self) -> usize {
        self.a1.rows()
    }

    /// Solves the QBD: logarithmic reduction first, and on
    /// [`MarkovError::NoConvergence`] automatically retries with
    /// functional iteration under a raised cap
    /// (`FI_FALLBACK_MAX_ITER`) before giving up. The retry ladder is
    /// deterministic — both budgets are fixed iteration counts.
    ///
    /// # Errors
    ///
    /// [`MarkovError::Unstable`] if `sp(R) ≥ 1` (the chain is not positive
    /// recurrent), [`MarkovError::FallbackExhausted`] carrying *both*
    /// attempts if neither `R` algorithm converges, or
    /// [`MarkovError::Linalg`] on a singular boundary system.
    pub fn solve(&self) -> Result<QbdSolution, MarkovError> {
        let mut ws = Workspace::new();
        self.solve_in(&mut ws)
    }

    /// [`Qbd::solve`] with all scratch borrowed from `ws`.
    ///
    /// The result is bit-identical whether `ws` is freshly created or has
    /// been reused across thousands of prior solves (every borrowed buffer
    /// is reset on take), so per-worker workspaces preserve sweep
    /// determinism. Steady-state, the only allocations are the four owned
    /// fields of the returned [`QbdSolution`].
    ///
    /// # Errors
    ///
    /// As for [`Qbd::solve`].
    pub fn solve_in(&self, ws: &mut Workspace) -> Result<QbdSolution, MarkovError> {
        cyclesteal_obs::span!("markov.qbd.solve");
        cyclesteal_obs::counter!("markov.qbd.solve");
        match self.attempt_in(RAlgorithm::LogarithmicReduction, FI_MAX_ITER, ws) {
            Err(primary @ MarkovError::NoConvergence { .. }) => {
                cyclesteal_obs::counter!("markov.qbd.fallback");
                match self.attempt_in(RAlgorithm::FunctionalIteration, FI_FALLBACK_MAX_ITER, ws) {
                    Ok(sol) => Ok(sol),
                    Err(fallback) => {
                        let total_iterations = primary.iterations() + fallback.iterations();
                        cyclesteal_obs::counter!("markov.qbd.fallback_exhausted");
                        cyclesteal_obs::histogram!(
                            "markov.qbd.iters_at_failure",
                            total_iterations as u64
                        );
                        Err(MarkovError::FallbackExhausted {
                            primary: Box::new(primary),
                            fallback: Box::new(fallback),
                            total_iterations,
                        })
                    }
                }
            }
            other => other,
        }
    }

    /// Solves the QBD with the requested `R` algorithm, no fallback.
    ///
    /// # Errors
    ///
    /// As for [`Qbd::solve`], except a non-converging `R` iteration
    /// surfaces directly as [`MarkovError::NoConvergence`].
    pub fn solve_with(&self, alg: RAlgorithm) -> Result<QbdSolution, MarkovError> {
        let mut ws = Workspace::new();
        self.solve_with_in(alg, &mut ws)
    }

    /// [`Qbd::solve_with`] with all scratch borrowed from `ws`.
    ///
    /// # Errors
    ///
    /// As for [`Qbd::solve_with`].
    pub fn solve_with_in(
        &self,
        alg: RAlgorithm,
        ws: &mut Workspace,
    ) -> Result<QbdSolution, MarkovError> {
        self.attempt_in(alg, FI_MAX_ITER, ws)
    }

    /// The allocating reference solver: the same fallback ladder as
    /// [`Qbd::solve`], but every intermediate `add`/`mul`/`inverse`
    /// allocates as the pre-workspace implementation did.
    ///
    /// Kept (not merely for nostalgia) as a differential-testing oracle for
    /// the workspace path and as the allocation baseline that the
    /// `BENCH_kernels` counting probe measures the workspace path against.
    ///
    /// # Errors
    ///
    /// As for [`Qbd::solve`].
    pub fn solve_reference(&self) -> Result<QbdSolution, MarkovError> {
        match self.attempt_reference(RAlgorithm::LogarithmicReduction, FI_MAX_ITER) {
            Err(primary @ MarkovError::NoConvergence { .. }) => {
                match self.attempt_reference(RAlgorithm::FunctionalIteration, FI_FALLBACK_MAX_ITER)
                {
                    Ok(sol) => Ok(sol),
                    Err(fallback) => {
                        let total_iterations = primary.iterations() + fallback.iterations();
                        Err(MarkovError::FallbackExhausted {
                            primary: Box::new(primary),
                            fallback: Box::new(fallback),
                            total_iterations,
                        })
                    }
                }
            }
            other => other,
        }
    }

    /// Shared preamble of every solve attempt: the `qbd.solve` fault site
    /// and the mean-drift stability screen. Both the workspace and the
    /// reference paths route through here, so an injected `NoConvergence`
    /// cannot be accidentally healed by either.
    fn attempt_precheck(&self) -> Result<(), MarkovError> {
        cyclesteal_xtest::fault_point!("qbd.solve" => return Err(MarkovError::NoConvergence {
            what: "injected fault (qbd.solve)",
            iterations: 0,
            residual: f64::INFINITY,
        }));
        if let Some(ratio) = self.drift_ratio() {
            if ratio >= STABILITY_MARGIN {
                return Err(MarkovError::Unstable {
                    spectral_radius: ratio,
                });
            }
        }
        Ok(())
    }

    /// One workspace-backed solve attempt with an explicit
    /// functional-iteration budget.
    fn attempt_in(
        &self,
        alg: RAlgorithm,
        fi_cap: usize,
        ws: &mut Workspace,
    ) -> Result<QbdSolution, MarkovError> {
        self.attempt_precheck()?;
        let r = match alg {
            RAlgorithm::LogarithmicReduction => self.r_logarithmic_reduction_in(ws)?,
            RAlgorithm::FunctionalIteration => self.r_functional_iteration_capped_in(fi_cap, ws)?,
        };
        let sp = r.spectral_radius_estimate(200);
        if sp >= STABILITY_MARGIN {
            return Err(MarkovError::Unstable {
                spectral_radius: sp,
            });
        }
        let sol = self.boundary_solve_in(&r, ws);
        ws.give_mat(r);
        sol
    }

    /// Solves a batch of **same-shape** QBDs in lockstep, sharing the
    /// logarithmic-reduction iteration across the batch through the
    /// structure-of-arrays kernels of `cyclesteal_linalg` (batched panel
    /// products plus [`lu_solve_many_into`]).
    ///
    /// # Bit-identity contract
    ///
    /// Every batched kernel replays, per lane, exactly the scalar kernel's
    /// floating-point operation sequence (see `cyclesteal_linalg::panel`),
    /// and each lane converges, freezes, and error-exits on its own
    /// per-lane tests — so the result for every batch member is
    /// **bit-identical** to [`Qbd::solve_in`] on that member alone,
    /// regardless of batch size or composition. Lanes that leave the
    /// batched fast path for any reason (injected `qbd.solve` fault,
    /// drift-ratio instability, a singular intermediate factorization,
    /// divergence to non-finite values, or exhausting `LR_MAX_ITER`) are
    /// replayed wholesale through the scalar [`Qbd::solve_in`] — fallback
    /// ladder included — which reproduces the scalar result and telemetry
    /// for that lane exactly. The batch layer is therefore a pure
    /// optimization with the scalar pipeline as its differential oracle.
    ///
    /// Batches of size ≤ 1 and mixed-shape batches degenerate to per-point
    /// [`Qbd::solve_in`] calls.
    ///
    /// The returned vector is index-aligned with `qbds`; the
    /// `markov.qbd.solve` counter is emitted exactly once per member
    /// (matching a scalar per-point run), with one `markov.qbd.solve_batch`
    /// counter per batched group.
    pub fn solve_batch_in(
        qbds: &[&Qbd],
        ws: &mut Workspace,
    ) -> Vec<Result<QbdSolution, MarkovError>> {
        let same_shape = qbds.windows(2).all(|w| {
            w[0].boundary_dim() == w[1].boundary_dim() && w[0].phase_dim() == w[1].phase_dim()
        });
        if qbds.len() <= 1 || !same_shape {
            return qbds.iter().map(|q| q.solve_in(ws)).collect();
        }
        cyclesteal_obs::span!("markov.qbd.solve_batch");
        cyclesteal_obs::counter!("markov.qbd.solve_batch");
        let nb = qbds.len();
        let m = qbds[0].phase_dim();

        let mut results: Vec<Option<Result<QbdSolution, MarkovError>>> = Vec::with_capacity(nb);
        results.resize_with(nb, || None);
        let mut gs: Vec<Option<Matrix>> = Vec::with_capacity(nb);
        gs.resize_with(nb, || None);

        // Per-lane scalar preamble — the precheck and the H₀/L₀ init of
        // `logred_g_in`, replayed exactly — loaded into the SoA panels.
        // Lanes are packed densely from the start: `lane_ids[lane]` maps a
        // panel lane back to its member index, and as members converge or
        // fall back the surviving lanes are compacted leftward
        // ([`BatchPanel::retain_lanes`]) so the panel kernels only ever
        // touch live lanes. Compaction cannot change a lane's bits — every
        // kernel is per-lane independent — it only sheds dead work.
        let mut h_panel = ws.take_panel(m, m, nb);
        let mut l_panel = ws.take_panel(m, m, nb);
        let mut lane_ids: Vec<usize> = Vec::with_capacity(nb);
        {
            let mut tmp = ws.take_mat(m, m);
            let mut lu = ws.take_mat(m, m);
            let mut piv = ws.take_idx();
            let mut x = ws.take_vec(m);
            let mut h = ws.take_mat(m, m);
            let mut l = ws.take_mat(m, m);
            for (b, q) in qbds.iter().enumerate() {
                let init = q.attempt_precheck().and_then(|()| {
                    tmp.copy_from(&q.a1);
                    tmp.scale_assign(-1.0);
                    lu_factor_into(&tmp, &mut lu, &mut piv)?;
                    lu_solve_cols_into(&lu, &piv, &q.a0, &mut h, &mut x)?;
                    lu_solve_cols_into(&lu, &piv, &q.a2, &mut l, &mut x)?;
                    Ok(())
                });
                match init {
                    Ok(()) => {
                        h_panel.load_lane(lane_ids.len(), &h);
                        l_panel.load_lane(lane_ids.len(), &l);
                        lane_ids.push(b);
                    }
                    // Any preamble failure — injected fault, drift-ratio
                    // instability, singular A1 — replays through the full
                    // scalar ladder, which reproduces the scalar outcome
                    // (fault sites re-fire deterministically per scope).
                    Err(_) => results[b] = Some(q.solve_in(ws)),
                }
            }
            ws.give_mat(tmp);
            ws.give_mat(lu);
            ws.give_idx(piv);
            ws.give_vec(x);
            ws.give_mat(h);
            ws.give_mat(l);
        }
        if lane_ids.len() < nb {
            let mut prefix = vec![false; nb];
            prefix[..lane_ids.len()].fill(true);
            h_panel.retain_lanes(&prefix);
            l_panel.retain_lanes(&prefix);
        }

        let mut g_panel = ws.take_panel(m, m, nb);
        g_panel.copy_from(&l_panel);
        let mut t_panel = ws.take_panel(m, m, nb);
        t_panel.copy_from(&h_panel);
        let mut u_panel = ws.take_panel(m, m, nb);
        let mut iu_panel = ws.take_panel(m, m, nb);
        let mut tmp_panel = ws.take_panel(m, m, nb);
        let mut tmp2_panel = ws.take_panel(m, m, nb);
        let mut lup_panel = ws.take_panel(m, m, nb);
        let mut pivots = ws.take_idx();
        let mut xs = ws.take_vec(m * nb);
        let mut iu_lane = ws.take_mat(m, m);
        let mut lu_lane = ws.take_mat(m, m);
        let mut piv_lane = ws.take_idx();

        for iter in 0..LR_MAX_ITER {
            let live = lane_ids.len();
            if live == 0 {
                break;
            }
            // U = H·L + L·H; refactor (I − U) per live lane.
            h_panel.mul_into(&l_panel, &mut u_panel);
            l_panel.mul_into(&h_panel, &mut tmp_panel);
            u_panel.add_assign(&tmp_panel);
            u_panel.identity_minus_into(&mut iu_panel);
            // Per-iteration per-lane factor store. The reshape zero-fills,
            // so a lane whose factorization fails below leaves harmless
            // zeros (division by a 0.0 diagonal yields non-finite garbage
            // confined to that lane, which is dropped at compaction).
            lup_panel.reshape(m, m, live);
            pivots.clear();
            pivots.resize(m * live, 0);
            let mut alive = vec![true; live];
            for lane in 0..live {
                iu_panel.store_lane(lane, &mut iu_lane);
                match lu_factor_into(&iu_lane, &mut lu_lane, &mut piv_lane) {
                    Ok(()) => {
                        lup_panel.load_lane(lane, &lu_lane);
                        pivots[lane * m..(lane + 1) * m].copy_from_slice(&piv_lane);
                    }
                    Err(_) => {
                        // The scalar path hits the same singular factor at
                        // the same iteration; replay it wholesale.
                        alive[lane] = false;
                        results[lane_ids[lane]] = Some(qbds[lane_ids[lane]].solve_in(ws));
                    }
                }
            }
            h_panel.mul_into(&h_panel, &mut tmp_panel);
            lu_solve_many_into(&lup_panel, &pivots, &tmp_panel, &mut h_panel, &mut xs);
            l_panel.mul_into(&l_panel, &mut tmp_panel);
            lu_solve_many_into(&lup_panel, &pivots, &tmp_panel, &mut l_panel, &mut xs);
            t_panel.mul_into(&l_panel, &mut tmp_panel); // inc = T·L
            g_panel.add_assign(&tmp_panel);
            t_panel.mul_into(&h_panel, &mut tmp2_panel);
            std::mem::swap(&mut t_panel, &mut tmp2_panel);
            for lane in 0..live {
                if !alive[lane] {
                    continue;
                }
                // Same per-lane tests, in the same order, as the scalar
                // iteration: non-finite G/T first, then the G-increment
                // residual.
                if !g_panel.lane_is_finite(lane) || !t_panel.lane_is_finite(lane) {
                    alive[lane] = false;
                    results[lane_ids[lane]] = Some(qbds[lane_ids[lane]].solve_in(ws));
                    continue;
                }
                if tmp_panel.lane_max_abs(lane) < FP_TOL {
                    cyclesteal_obs::histogram!("markov.qbd.lr_iters", iter as u64 + 1);
                    let mut g = ws.take_mat(m, m);
                    g_panel.store_lane(lane, &mut g);
                    gs[lane_ids[lane]] = Some(g);
                    alive[lane] = false;
                }
            }
            if alive.iter().any(|a| !*a) {
                h_panel.retain_lanes(&alive);
                l_panel.retain_lanes(&alive);
                g_panel.retain_lanes(&alive);
                t_panel.retain_lanes(&alive);
                let mut keep = alive.iter();
                lane_ids.retain(|_| *keep.next().expect("mask covers every lane"));
            }
        }
        // Lanes that exhausted LR_MAX_ITER: the scalar path raises
        // NoConvergence and ladders into functional iteration; replay it.
        for &b in &lane_ids {
            results[b] = Some(qbds[b].solve_in(ws));
        }
        ws.give_panel(h_panel);
        ws.give_panel(l_panel);
        ws.give_panel(g_panel);
        ws.give_panel(t_panel);
        ws.give_panel(u_panel);
        ws.give_panel(iu_panel);
        ws.give_panel(tmp_panel);
        ws.give_panel(tmp2_panel);
        ws.give_panel(lup_panel);
        ws.give_idx(pivots);
        ws.give_vec(xs);
        ws.give_mat(iu_lane);
        ws.give_mat(lu_lane);
        ws.give_idx(piv_lane);

        // Converged lanes run the tail of [`Qbd::attempt_in`]'s
        // logarithmic-reduction branch from their own `G`: `R = A0 ·
        // (−(A1 + A0·G))⁻¹` per lane, one **batched** spectral-radius
        // certificate over all the `R`s (bit-identical per lane — see
        // [`spectral_radius_many`]), then the scalar boundary solve. No
        // step here can raise `NoConvergence`, so errors surface directly,
        // exactly as `solve_in` surfaces non-`NoConvergence` attempt
        // errors without entering the fallback ladder. One
        // `markov.qbd.solve` counter fires per member, batched or not —
        // parity with a scalar per-point run (fallback lanes are counted
        // inside their `solve_in` replay).
        let mut rs: Vec<(usize, Matrix)> = Vec::new();
        for (b, g) in gs.into_iter().enumerate() {
            if let Some(g) = g {
                match qbds[b].r_from_g_in(g, ws) {
                    Ok(r) => rs.push((b, r)),
                    Err(e) => {
                        cyclesteal_obs::counter!("markov.qbd.solve");
                        results[b] = Some(Err(e));
                    }
                }
            }
        }
        if !rs.is_empty() {
            let mut r_panel = ws.take_panel(m, m, rs.len());
            for (lane, (_, r)) in rs.iter().enumerate() {
                r_panel.load_lane(lane, r);
            }
            let mut sps = ws.take_vec(rs.len());
            spectral_radius_many(&r_panel, 200, &mut sps);
            ws.give_panel(r_panel);
            for ((b, r), &sp) in rs.into_iter().zip(&sps) {
                let res = if sp >= STABILITY_MARGIN {
                    Err(MarkovError::Unstable {
                        spectral_radius: sp,
                    })
                } else {
                    qbds[b].boundary_solve_in(&r, ws)
                };
                ws.give_mat(r);
                cyclesteal_obs::counter!("markov.qbd.solve");
                results[b] = Some(res);
            }
            ws.give_vec(sps);
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch lane resolves to a result"))
            .collect()
    }

    /// One allocating solve attempt (see [`Qbd::solve_reference`]).
    fn attempt_reference(&self, alg: RAlgorithm, fi_cap: usize) -> Result<QbdSolution, MarkovError> {
        self.attempt_precheck()?;
        let r = match alg {
            RAlgorithm::LogarithmicReduction => self.r_logarithmic_reduction_reference()?,
            RAlgorithm::FunctionalIteration => {
                self.r_functional_iteration_capped_reference(fi_cap)?
            }
        };
        let sp = r.spectral_radius_estimate(200);
        if sp >= STABILITY_MARGIN {
            return Err(MarkovError::Unstable {
                spectral_radius: sp,
            });
        }
        self.boundary_solve_reference(r)
    }

    /// Neuts' mean-drift ratio `(φ A0 1)/(φ A2 1)`, where `φ` is the
    /// stationary law of the phase process `A = A0 + A1 + A2`; the QBD is
    /// positive recurrent iff the ratio is below 1.
    ///
    /// Returns `None` when `φ` cannot be computed reliably (e.g. the phase
    /// process is reducible in a way that defeats the linear solve); callers
    /// then fall back to the spectral radius of `R`.
    pub fn drift_ratio(&self) -> Option<f64> {
        let a = self.a0.add(&self.a1).ok()?.add(&self.a2).ok()?;
        let phi = crate::ctmc::stationary(&a).ok()?;
        // A reducible phase process can yield signed "solutions"; accept the
        // vector only if it is a genuine distribution.
        if phi.iter().any(|p| *p < -1e-9) {
            return None;
        }
        let up = cyclesteal_linalg::dot(&phi, &self.a0.row_sums());
        let down = cyclesteal_linalg::dot(&phi, &self.a2.row_sums());
        if down <= 0.0 {
            return None;
        }
        Some(up / down)
    }

    /// Computes the first-passage matrix `G` by logarithmic reduction:
    /// `G[i][j]` is the probability that, starting one level up in phase
    /// `i`, the chain first enters the level below in phase `j`. `G` is
    /// stochastic iff the down-direction is recurrent — i.e. row sums below
    /// one are a certificate of instability.
    ///
    /// # Errors
    ///
    /// As for [`Qbd::r_logarithmic_reduction`].
    pub fn g_matrix(&self) -> Result<Matrix, MarkovError> {
        let mut ws = Workspace::new();
        self.logred_g_in(&mut ws)
    }

    /// Computes `R` by Latouche–Ramaswami logarithmic reduction: first the
    /// matrix `G` (first-passage one level down), then
    /// `R = A0 · (−(A1 + A0 G))⁻¹`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::NoConvergence`] if the reduction stalls;
    /// [`MarkovError::Linalg`] on singular intermediate systems.
    pub fn r_logarithmic_reduction(&self) -> Result<Matrix, MarkovError> {
        let mut ws = Workspace::new();
        self.r_logarithmic_reduction_in(&mut ws)
    }

    fn r_logarithmic_reduction_in(&self, ws: &mut Workspace) -> Result<Matrix, MarkovError> {
        let g = self.logred_g_in(ws)?;
        self.r_from_g_in(g, ws)
    }

    /// The tail of the logarithmic-reduction pipeline: `R` from a converged
    /// `G` via `R = A0 · (−(A1 + A0 G))⁻¹`. Consumes `g` (returned to the
    /// pool). Shared by the scalar and the batched solvers so both compute
    /// bit-identical `R` matrices from the same `G`.
    fn r_from_g_in(&self, g: Matrix, ws: &mut Workspace) -> Result<Matrix, MarkovError> {
        let m = self.phase_dim();
        // inner = −(A1 + A0·G)
        let mut inner = ws.take_mat(m, m);
        self.a0.mul_into(&g, &mut inner)?;
        ws.give_mat(g);
        let mut acc = ws.take_mat(m, m);
        acc.copy_from(&self.a1);
        acc.add_assign(&inner)?;
        acc.scale_assign(-1.0);
        // R = A0 · inner⁻¹ is a right division: factor innerᵀ once and
        // back-substitute each row of A0 (no explicit inverse).
        let mut acc_t = ws.take_mat(m, m);
        acc.transpose_into(&mut acc_t);
        let mut lu = ws.take_mat(m, m);
        let mut piv = ws.take_idx();
        let mut x = ws.take_vec(m);
        lu_factor_into(&acc_t, &mut lu, &mut piv)?;
        let mut r = ws.take_mat(m, m);
        lu_solve_rows_into(&lu, &piv, &self.a0, &mut r, &mut x)?;
        ws.give_mat(inner);
        ws.give_mat(acc);
        ws.give_mat(acc_t);
        ws.give_mat(lu);
        ws.give_idx(piv);
        ws.give_vec(x);
        Ok(r)
    }

    fn logred_g_in(&self, ws: &mut Workspace) -> Result<Matrix, MarkovError> {
        let m = self.phase_dim();
        let mut id = ws.take_mat(m, m);
        for i in 0..m {
            id[(i, i)] = 1.0;
        }
        let mut lu = ws.take_mat(m, m);
        let mut piv = ws.take_idx();
        let mut x = ws.take_vec(m);
        let mut tmp = ws.take_mat(m, m);
        let mut tmp2 = ws.take_mat(m, m);
        // Factor (−A1) once; H₀ = (−A1)⁻¹A0 and L₀ = (−A1)⁻¹A2 are two
        // multi-RHS column solves against the same factorization.
        tmp.copy_from(&self.a1);
        tmp.scale_assign(-1.0);
        lu_factor_into(&tmp, &mut lu, &mut piv)?;
        let mut h = ws.take_mat(m, m);
        let mut l = ws.take_mat(m, m);
        lu_solve_cols_into(&lu, &piv, &self.a0, &mut h, &mut x)?;
        lu_solve_cols_into(&lu, &piv, &self.a2, &mut l, &mut x)?;
        let mut g = ws.take_mat(m, m);
        g.copy_from(&l);
        let mut t = ws.take_mat(m, m);
        t.copy_from(&h);
        let mut u = ws.take_mat(m, m);
        let mut iu = ws.take_mat(m, m);

        let mut converged = false;
        let mut residual = f64::INFINITY;
        for iter in 0..LR_MAX_ITER {
            // U = H·L + L·H, then refactor (I − U) for this step's two
            // column solves (the former `(I − U)⁻¹` products).
            h.mul_into(&l, &mut u)?;
            l.mul_into(&h, &mut tmp)?;
            u.add_assign(&tmp)?;
            id.sub_into(&u, &mut iu)?;
            lu_factor_into(&iu, &mut lu, &mut piv)?;
            h.mul_into(&h, &mut tmp)?;
            lu_solve_cols_into(&lu, &piv, &tmp, &mut h, &mut x)?;
            l.mul_into(&l, &mut tmp)?;
            lu_solve_cols_into(&lu, &piv, &tmp, &mut l, &mut x)?;
            t.mul_into(&l, &mut tmp)?; // inc = T·L
            g.add_assign(&tmp)?;
            t.mul_into(&h, &mut tmp2)?;
            std::mem::swap(&mut t, &mut tmp2);
            // Convergence is judged on the increment to G alone: in the
            // transient (unstable-queue) case T tends to a positive limit
            // while the increments T·L still vanish quadratically.
            residual = tmp.max_abs();
            if !g.as_slice().iter().all(|x| x.is_finite())
                || !t.as_slice().iter().all(|x| x.is_finite())
            {
                return Err(MarkovError::NoConvergence {
                    what: "logarithmic reduction (diverged to non-finite values)",
                    iterations: LR_MAX_ITER,
                    residual: f64::INFINITY,
                });
            }
            if residual < FP_TOL {
                converged = true;
                cyclesteal_obs::histogram!("markov.qbd.lr_iters", iter as u64 + 1);
                break;
            }
        }
        if !converged {
            return Err(MarkovError::NoConvergence {
                what: "logarithmic reduction",
                iterations: LR_MAX_ITER,
                residual,
            });
        }
        ws.give_mat(id);
        ws.give_mat(lu);
        ws.give_idx(piv);
        ws.give_vec(x);
        ws.give_mat(tmp);
        ws.give_mat(tmp2);
        ws.give_mat(h);
        ws.give_mat(l);
        ws.give_mat(t);
        ws.give_mat(u);
        ws.give_mat(iu);
        Ok(g)
    }

    /// Computes `R` by the natural functional iteration
    /// `R ← −(A0 + R² A2) A1⁻¹` starting from zero.
    ///
    /// # Errors
    ///
    /// [`MarkovError::NoConvergence`] near instability (the iteration is only
    /// linearly convergent); [`MarkovError::Linalg`] if `A1` is singular.
    pub fn r_functional_iteration(&self) -> Result<Matrix, MarkovError> {
        let mut ws = Workspace::new();
        self.r_functional_iteration_capped_in(FI_MAX_ITER, &mut ws)
    }

    fn r_functional_iteration_capped_in(
        &self,
        max_iter: usize,
        ws: &mut Workspace,
    ) -> Result<Matrix, MarkovError> {
        let m = self.phase_dim();
        // Each step right-divides by (−A1); factor its transpose once and
        // reuse the factors for every iteration's row solves.
        let mut tmp = ws.take_mat(m, m);
        tmp.copy_from(&self.a1);
        tmp.scale_assign(-1.0);
        let mut neg_a1_t = ws.take_mat(m, m);
        tmp.transpose_into(&mut neg_a1_t);
        let mut lu = ws.take_mat(m, m);
        let mut piv = ws.take_idx();
        let mut x = ws.take_vec(m);
        lu_factor_into(&neg_a1_t, &mut lu, &mut piv)?;
        let mut r = ws.take_mat(m, m);
        let mut acc = ws.take_mat(m, m);
        let mut next = ws.take_mat(m, m);
        let mut residual = f64::INFINITY;
        for iter in 0..max_iter {
            r.mul_into(&r, &mut tmp)?;
            tmp.mul_into(&self.a2, &mut next)?;
            acc.copy_from(&self.a0);
            acc.add_assign(&next)?; // A0 + R²A2
            lu_solve_rows_into(&lu, &piv, &acc, &mut next, &mut x)?;
            residual = max_abs_diff(next.as_slice(), r.as_slice());
            std::mem::swap(&mut r, &mut next);
            if !r.as_slice().iter().all(|v| v.is_finite()) {
                break;
            }
            if residual < FP_TOL {
                cyclesteal_obs::histogram!("markov.qbd.fi_iters", iter as u64 + 1);
                ws.give_mat(tmp);
                ws.give_mat(neg_a1_t);
                ws.give_mat(lu);
                ws.give_idx(piv);
                ws.give_vec(x);
                ws.give_mat(acc);
                ws.give_mat(next);
                return Ok(r);
            }
        }
        Err(MarkovError::NoConvergence {
            what: "R functional iteration",
            iterations: max_iter,
            residual,
        })
    }

    fn boundary_solve_in(&self, r: &Matrix, ws: &mut Workspace) -> Result<QbdSolution, MarkovError> {
        let nb = self.boundary_dim();
        let m = self.phase_dim();
        let n = nb + m;

        // F = [[B00, B01], [B10, A1 + R A2]]; solve x F = 0, x·w = 1 with
        // w = [1, (I - R)^{-1} 1].
        let mut tmp = ws.take_mat(m, m);
        r.mul_into(&self.a2, &mut tmp)?;
        let mut level0_local = ws.take_mat(m, m);
        level0_local.copy_from(&self.a1);
        level0_local.add_assign(&tmp)?;
        let mut f = ws.take_mat(n, n);
        for i in 0..nb {
            for j in 0..nb {
                f[(i, j)] = self.b00[(i, j)];
            }
            for j in 0..m {
                f[(i, nb + j)] = self.b01[(i, j)];
            }
        }
        for i in 0..m {
            for j in 0..nb {
                f[(nb + i, j)] = self.b10[(i, j)];
            }
            for j in 0..m {
                f[(nb + i, nb + j)] = level0_local[(i, j)];
            }
        }

        let mut id = ws.take_mat(m, m);
        for i in 0..m {
            id[(i, i)] = 1.0;
        }
        id.sub_into(r, &mut tmp)?; // tmp = I − R
        let mut lu = ws.take_mat(m, m);
        let mut piv = ws.take_idx();
        let mut x = ws.take_vec(m);
        lu_factor_into(&tmp, &mut lu, &mut piv)?;
        // (I − R)⁻¹ escapes into the solution, so it is owned, not pooled.
        let mut i_minus_r_inv = Matrix::zeros(m, m);
        lu_inverse_into(&lu, &piv, &mut i_minus_r_inv, &mut x);
        let mut ones = ws.take_vec(m);
        ones.fill(1.0);
        let mut w = ws.take_vec(n);
        w[..nb].fill(1.0);
        i_minus_r_inv.mul_vec_into(&ones, &mut w[nb..]);

        // Transpose so unknowns form a column vector, then replace one
        // balance equation (one row of F^T) with the normalization. Any
        // single equation is redundant; verify by residual and retry with a
        // different pivot if the first choice was numerically poor.
        let mut ft = ws.take_mat(n, n);
        f.transpose_into(&mut ft);
        let mut sys = ws.take_mat(n, n);
        let mut rhs = ws.take_vec(n);
        let mut xsol = ws.take_vec(n);
        let mut resid_vec = ws.take_vec(n);
        let mut best_x = ws.take_vec(n);
        let mut best: Option<(f64, usize)> = None;
        for replace in [n - 1, 0] {
            sys.copy_from(&ft);
            for j in 0..n {
                sys[(replace, j)] = w[j];
            }
            rhs.fill(0.0);
            rhs[replace] = 1.0;
            if lu_factor_into(&sys, &mut lu, &mut piv).is_err() {
                continue;
            }
            lu_solve_into(&lu, &piv, &rhs, &mut xsol);
            // Residual of the full homogeneous system (excluding the
            // replaced equation, which is exact by construction).
            f.vec_mul_into(&xsol, &mut resid_vec);
            let resid = resid_vec
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != replace)
                .map(|(_, v)| v.abs())
                .fold(0.0, f64::max);
            if best.as_ref().is_none_or(|(b, _)| resid < *b) {
                best = Some((resid, replace));
                best_x.copy_from_slice(&xsol);
            }
            if resid < 1e-9 {
                break;
            }
        }
        let (_, pivot) = best.ok_or(MarkovError::Linalg(
            cyclesteal_linalg::LinalgError::Singular,
        ))?;

        let boundary = best_x[..nb].to_vec();
        let pi0 = best_x[nb..].to_vec();
        ws.give_mat(tmp);
        ws.give_mat(level0_local);
        ws.give_mat(f);
        ws.give_mat(id);
        ws.give_mat(lu);
        ws.give_idx(piv);
        ws.give_vec(x);
        ws.give_vec(ones);
        ws.give_vec(w);
        ws.give_mat(ft);
        ws.give_mat(sys);
        ws.give_vec(rhs);
        ws.give_vec(xsol);
        ws.give_vec(resid_vec);
        ws.give_vec(best_x);
        Ok(QbdSolution {
            boundary,
            pi0,
            r: r.clone(),
            i_minus_r_inv,
            pivot,
        })
    }

    // ------------------------------------------------------------------
    // Allocating reference implementations (see `solve_reference`): the
    // pre-workspace hot path, preserved verbatim as a differential oracle
    // and as the baseline side of the BENCH_kernels allocation probe.
    // ------------------------------------------------------------------

    fn r_logarithmic_reduction_reference(&self) -> Result<Matrix, MarkovError> {
        let g = self.logred_g_reference()?;
        let inner = self.a1.add(&self.a0.mul(&g)?)?;
        Ok(self.a0.mul(&inner.scale(-1.0).inverse()?)?)
    }

    fn logred_g_reference(&self) -> Result<Matrix, MarkovError> {
        let m = self.phase_dim();
        let id = Matrix::identity(m);
        let neg_a1_inv = self.a1.scale(-1.0).inverse()?;
        let mut h = neg_a1_inv.mul(&self.a0)?;
        let mut l = neg_a1_inv.mul(&self.a2)?;
        let mut g = l.clone();
        let mut t = h.clone();

        let mut converged = false;
        let mut residual = f64::INFINITY;
        for iter in 0..LR_MAX_ITER {
            let u = h.mul(&l)?.add(&l.mul(&h)?)?;
            let iu_inv = id.sub(&u)?.inverse()?;
            let h2 = h.mul(&h)?;
            let l2 = l.mul(&l)?;
            h = iu_inv.mul(&h2)?;
            l = iu_inv.mul(&l2)?;
            let inc = t.mul(&l)?;
            g = g.add(&inc)?;
            t = t.mul(&h)?;
            residual = inc.max_abs();
            if !g.as_slice().iter().all(|x| x.is_finite())
                || !t.as_slice().iter().all(|x| x.is_finite())
            {
                return Err(MarkovError::NoConvergence {
                    what: "logarithmic reduction (diverged to non-finite values)",
                    iterations: LR_MAX_ITER,
                    residual: f64::INFINITY,
                });
            }
            if residual < FP_TOL {
                converged = true;
                cyclesteal_obs::histogram!("markov.qbd.lr_iters", iter as u64 + 1);
                break;
            }
        }
        if !converged {
            return Err(MarkovError::NoConvergence {
                what: "logarithmic reduction",
                iterations: LR_MAX_ITER,
                residual,
            });
        }
        Ok(g)
    }

    fn r_functional_iteration_capped_reference(
        &self,
        max_iter: usize,
    ) -> Result<Matrix, MarkovError> {
        let m = self.phase_dim();
        let neg_a1_inv = self.a1.scale(-1.0).inverse()?;
        let mut r = Matrix::zeros(m, m);
        let mut residual = f64::INFINITY;
        for iter in 0..max_iter {
            let next = self.a0.add(&r.mul(&r)?.mul(&self.a2)?)?.mul(&neg_a1_inv)?;
            residual = next.sub(&r)?.max_abs();
            r = next;
            if !r.as_slice().iter().all(|x| x.is_finite()) {
                break;
            }
            if residual < FP_TOL {
                cyclesteal_obs::histogram!("markov.qbd.fi_iters", iter as u64 + 1);
                return Ok(r);
            }
        }
        Err(MarkovError::NoConvergence {
            what: "R functional iteration",
            iterations: max_iter,
            residual,
        })
    }

    fn boundary_solve_reference(&self, r: Matrix) -> Result<QbdSolution, MarkovError> {
        let nb = self.boundary_dim();
        let m = self.phase_dim();
        let n = nb + m;

        let level0_local = self.a1.add(&r.mul(&self.a2)?)?;
        let mut f = Matrix::zeros(n, n);
        for i in 0..nb {
            for j in 0..nb {
                f[(i, j)] = self.b00[(i, j)];
            }
            for j in 0..m {
                f[(i, nb + j)] = self.b01[(i, j)];
            }
        }
        for i in 0..m {
            for j in 0..nb {
                f[(nb + i, j)] = self.b10[(i, j)];
            }
            for j in 0..m {
                f[(nb + i, nb + j)] = level0_local[(i, j)];
            }
        }

        let id = Matrix::identity(m);
        let i_minus_r_inv = id.sub(&r)?.inverse()?;
        let tail_weights = i_minus_r_inv.mul_vec(&vec![1.0; m]);
        let mut w = vec![1.0; nb];
        w.extend_from_slice(&tail_weights);

        let ft = f.transpose();
        let mut best: Option<(f64, usize, Vec<f64>)> = None;
        for replace in [n - 1, 0] {
            let mut sys = ft.clone();
            for j in 0..n {
                sys[(replace, j)] = w[j];
            }
            let mut rhs = vec![0.0; n];
            rhs[replace] = 1.0;
            let Ok(x) = sys.solve(&rhs) else { continue };
            let resid = f
                .vec_mul(&x)
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != replace)
                .map(|(_, v)| v.abs())
                .fold(0.0, f64::max);
            if best.as_ref().is_none_or(|(b, _, _)| resid < *b) {
                best = Some((resid, replace, x));
            }
            if resid < 1e-9 {
                break;
            }
        }
        let (_, pivot, x) = best.ok_or(MarkovError::Linalg(
            cyclesteal_linalg::LinalgError::Singular,
        ))?;

        let boundary = x[..nb].to_vec();
        let pi0 = x[nb..].to_vec();
        Ok(QbdSolution {
            boundary,
            pi0,
            r,
            i_minus_r_inv,
            pivot,
        })
    }
}

/// The stationary solution of a [`Qbd`].
#[derive(Debug, Clone)]
pub struct QbdSolution {
    boundary: Vec<f64>,
    pi0: Vec<f64>,
    r: Matrix,
    i_minus_r_inv: Matrix,
    pivot: usize,
}

impl QbdSolution {
    /// Stationary probabilities of the boundary states.
    pub fn boundary(&self) -> &[f64] {
        &self.boundary
    }

    /// Which balance equation the boundary solve replaced with the
    /// normalization: `n − 1` when the default choice passed the residual
    /// check, `0` when the retry pivot won. Exposed so tests can assert
    /// both branches of the pivot-retry loop are exercised.
    pub fn normalization_pivot(&self) -> usize {
        self.pivot
    }

    /// Stationary probability vector of repeating level 0.
    pub fn pi0(&self) -> &[f64] {
        &self.pi0
    }

    /// The rate matrix `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Stationary probability vector of repeating level `k` (`π_0 Rᵏ`).
    pub fn pi_level(&self, k: usize) -> Vec<f64> {
        let mut v = self.pi0.clone();
        for _ in 0..k {
            v = self.r.vec_mul(&v);
        }
        v
    }

    /// Per-phase probability mass summed over all repeating levels:
    /// `π_0 (I − R)⁻¹`.
    pub fn phase_mass(&self) -> Vec<f64> {
        self.i_minus_r_inv.vec_mul(&self.pi0)
    }

    /// Total probability of the first `count` repeating levels,
    /// `[π_0·1, π_1·1, …]` — computed with one `R`-multiplication per level.
    pub fn level_masses(&self, count: usize) -> Vec<f64> {
        let mut v = self.pi0.clone();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(v.iter().sum());
            v = self.r.vec_mul(&v);
        }
        out
    }

    /// Total probability in the repeating levels.
    pub fn repeating_mass(&self) -> f64 {
        self.phase_mass().iter().sum()
    }

    /// `Σ_k k · π_k · 1` over repeating levels (level index starting at 0):
    /// `π_0 R (I − R)⁻² 1`.
    pub fn expected_level_index(&self) -> f64 {
        let ones = vec![1.0; self.pi0.len()];
        let t1 = self.i_minus_r_inv.mul_vec(&ones);
        let t2 = self.i_minus_r_inv.mul_vec(&t1);
        let rt = self.r.mul_vec(&t2);
        cyclesteal_linalg::dot(&self.pi0, &rt)
    }

    /// Total probability mass (boundary + repeating); should be 1 and is
    /// exposed so callers can assert numerical health.
    pub fn total_mass(&self) -> f64 {
        self.boundary.iter().sum::<f64>() + self.repeating_mass()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m1(v: f64) -> Matrix {
        Matrix::from_vec(1, 1, vec![v])
    }

    fn mm1(lambda: f64, mu: f64) -> Qbd {
        Qbd::new(
            m1(-lambda),
            m1(lambda),
            m1(mu),
            m1(lambda),
            m1(-(lambda + mu)),
            m1(mu),
        )
        .unwrap()
    }

    #[test]
    fn mm1_matches_closed_form() {
        let (lambda, mu) = (0.7, 1.0);
        let rho: f64 = lambda / mu;
        let sol = mm1(lambda, mu).solve().unwrap();
        assert!((sol.boundary()[0] - (1.0 - rho)).abs() < 1e-10);
        assert!((sol.r()[(0, 0)] - rho).abs() < 1e-10);
        // pi_k here is the prob of k+1 jobs; E[N] = rho/(1-rho).
        let e_n = sol.repeating_mass() + sol.expected_level_index();
        assert!((e_n - rho / (1.0 - rho)).abs() < 1e-9, "E[N] = {e_n}");
        assert!((sol.total_mass() - 1.0).abs() < 1e-10);
        // Geometric levels.
        let p3 = sol.pi_level(2)[0];
        assert!((p3 - (1.0 - rho) * rho.powi(3)).abs() < 1e-10);
    }

    #[test]
    fn g_matrix_is_stochastic_when_stable() {
        let g = mm1(0.7, 1.0).g_matrix().unwrap();
        assert!((g[(0, 0)] - 1.0).abs() < 1e-12);
        // Unstable: G is strictly substochastic (first passage down may
        // never happen). For M/M/1, G = mu/lambda < 1.
        let g = mm1(1.5, 1.0).g_matrix().unwrap();
        assert!((g[(0, 0)] - 1.0 / 1.5).abs() < 1e-10, "{}", g[(0, 0)]);
    }

    #[test]
    fn g_matrix_rows_for_mph1() {
        // For M/PH/1 the level-down passage leaves the chain in the phase
        // chosen by the next job's initial vector: every row of G equals
        // alpha = (1, 0) for a Coxian started in stage 1.
        let lambda = 0.5;
        let (c_mu1, c_p, c_mu2) = (2.0, 0.6, 0.5);
        let exit = [c_mu1 * (1.0 - c_p), c_mu2];
        let a0 = Matrix::from_diag(&[lambda, lambda]);
        let t = Matrix::from_rows(&[&[-c_mu1, c_p * c_mu1], &[0.0, -c_mu2]]).unwrap();
        let mut a1 = t;
        for i in 0..2 {
            a1[(i, i)] -= lambda;
        }
        let mut a2 = Matrix::zeros(2, 2);
        for i in 0..2 {
            a2[(i, 0)] = exit[i]; // alpha = e_1
        }
        let b00 = m1(-lambda);
        let b01 = Matrix::from_vec(1, 2, vec![lambda, 0.0]);
        let b10 = Matrix::from_vec(2, 1, vec![exit[0], exit[1]]);
        let qbd = Qbd::new(b00, b01, b10, a0, a1, a2).unwrap();
        let g = qbd.g_matrix().unwrap();
        for i in 0..2 {
            assert!((g[(i, 0)] - 1.0).abs() < 1e-12, "row {i}: {:?}", g.row(i));
            assert!(g[(i, 1)].abs() < 1e-12);
        }
    }

    #[test]
    fn both_r_algorithms_agree() {
        let q = mm1(0.9, 1.0);
        let r1 = q.r_logarithmic_reduction().unwrap();
        let r2 = q.r_functional_iteration().unwrap();
        assert!((&r1 - &r2).max_abs() < 1e-10);
        let s1 = q.solve_with(RAlgorithm::LogarithmicReduction).unwrap();
        let s2 = q.solve_with(RAlgorithm::FunctionalIteration).unwrap();
        assert!((s1.boundary()[0] - s2.boundary()[0]).abs() < 1e-10);
    }

    #[test]
    fn mm2_matches_erlang_c() {
        // M/M/2: boundary = {0 jobs, 1 job}, repeating level k = k+2 jobs.
        let (lambda, mu) = (1.2, 1.0);
        let rho: f64 = lambda / (2.0 * mu); // 0.6
        let b00 = Matrix::from_rows(&[&[-lambda, lambda], &[mu, -(lambda + mu)]]).unwrap();
        let b01 = Matrix::from_vec(2, 1, vec![0.0, lambda]);
        let b10 = Matrix::from_vec(1, 2, vec![0.0, 2.0 * mu]);
        let qbd = Qbd::new(
            b00,
            b01,
            b10,
            m1(lambda),
            m1(-(lambda + 2.0 * mu)),
            m1(2.0 * mu),
        )
        .unwrap();
        let sol = qbd.solve().unwrap();
        // Closed form: p0 = (1-rho)/(1+rho).
        let p0 = (1.0 - rho) / (1.0 + rho);
        assert!((sol.boundary()[0] - p0).abs() < 1e-10);
        // E[N] = 2 rho + C(2, a) rho/(1-rho), with C the Erlang-C
        // probability; C(2,a) for M/M/2 = 2 rho^2/(1+rho).
        let erlang_c = 2.0 * rho * rho / (1.0 + rho);
        let want = 2.0 * rho + erlang_c * rho / (1.0 - rho);
        let e_n = 1.0 * sol.boundary()[1] + 2.0 * sol.repeating_mass() + sol.expected_level_index();
        assert!((e_n - want).abs() < 1e-9, "E[N] = {e_n} vs {want}");
    }

    /// A 2-phase QBD whose `A0` and `A2` have equal row sums, so swapping
    /// the two blocks still passes the conservativity validation while
    /// genuinely exchanging block *contents*.
    fn swappable_qbd(up: &Matrix, down: &Matrix) -> Qbd {
        // Row sums of both blocks are 0.5; B10 must match A2's row sums.
        let a1 = Matrix::from_diag(&[-1.0, -1.0]);
        let b00 = Matrix::from_diag(&[-0.5, -0.5]);
        let b01 = Matrix::from_diag(&[0.5, 0.5]);
        let b10 = Matrix::from_rows(&[&[0.25, 0.25], &[0.25, 0.25]]).unwrap();
        Qbd::new(b00, b01, b10, up.clone(), a1, down.clone()).unwrap()
    }

    #[test]
    fn signature_distinguishes_and_reproduces() {
        let a = mm1(0.7, 1.0);
        let b = mm1(0.7, 1.0);
        let c = mm1(0.71, 1.0);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
        // Swapping blocks of equal shape must change the signature (the
        // stream is position-dependent): exchange A0 and A2, whose equal
        // row sums keep the swapped QBD a valid generator.
        let up = Matrix::from_rows(&[&[0.2, 0.3], &[0.1, 0.4]]).unwrap();
        let down = Matrix::from_rows(&[&[0.3, 0.2], &[0.4, 0.1]]).unwrap();
        let original = swappable_qbd(&up, &down);
        let swapped = swappable_qbd(&down, &up);
        assert_ne!(
            original.signature(),
            swapped.signature(),
            "signature must be position-dependent, not just content-dependent"
        );
        // Same construction, same content: reproducible.
        assert_eq!(original.signature(), swappable_qbd(&up, &down).signature());
    }

    #[test]
    fn unstable_chain_reported() {
        let err = mm1(1.5, 1.0).solve().unwrap_err();
        assert!(matches!(err, MarkovError::Unstable { .. }), "{err}");
    }

    #[test]
    fn critically_loaded_chain_reported_unstable() {
        let err = mm1(1.0, 1.0).solve();
        assert!(err.is_err());
    }

    #[test]
    fn invalid_blocks_rejected() {
        // Row sums broken: B01 carries the wrong rate.
        let r = Qbd::new(m1(-1.0), m1(2.0), m1(1.0), m1(1.0), m1(-2.0), m1(1.0));
        assert!(matches!(r, Err(MarkovError::InvalidGenerator { .. })));
        // Negative off-diagonal rate.
        let r = Qbd::new(m1(-1.0), m1(1.0), m1(-1.0), m1(1.0), m1(-2.0), m1(1.0));
        assert!(r.is_err());
        // Shape mismatch.
        let r = Qbd::new(
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 1),
            m1(1.0),
            m1(-2.0),
            m1(1.0),
        );
        assert!(r.is_err());
    }

    #[test]
    fn mph1_matches_pollaczek_khinchine() {
        // M/PH/1 with a 2-phase Coxian service law, validated against the
        // P-K mean formula -- exercises multi-phase R and boundary logic.
        let lambda = 0.4;
        // Coxian: mu1 = 2, p = 0.6, mu2 = 0.5.
        let (c_mu1, c_p, c_mu2) = (2.0, 0.6, 0.5);
        // Moments (via reduced-moment recurrences).
        let (a, b) = (1.0 / c_mu1, 1.0 / c_mu2);
        let t1 = a + c_p * b;
        let t2 = (a + b) * t1 - a * b;
        let mean = t1;
        let m2 = 2.0 * t2;
        let rho = lambda * mean;

        let alpha = [1.0, 0.0];
        let t = Matrix::from_rows(&[&[-c_mu1, c_p * c_mu1], &[0.0, -c_mu2]]).unwrap();
        let exit = [c_mu1 * (1.0 - c_p), c_mu2];

        // Level = number of jobs; phases = service phase of the job in
        // service. Boundary = empty system (1 state).
        let a0 = Matrix::from_diag(&[lambda, lambda]);
        let mut a1 = t.clone();
        for i in 0..2 {
            a1[(i, i)] -= lambda;
        }
        let mut a2 = Matrix::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                a2[(i, j)] = exit[i] * alpha[j];
            }
        }
        let b00 = m1(-lambda);
        let b01 = Matrix::from_vec(1, 2, vec![lambda * alpha[0], lambda * alpha[1]]);
        let b10 = Matrix::from_vec(2, 1, vec![exit[0], exit[1]]);
        let qbd = Qbd::new(b00, b01, b10, a0, a1, a2).unwrap();
        let sol = qbd.solve().unwrap();

        // P-K: E[N] = rho + lambda^2 E[X^2] / (2 (1 - rho)).
        let want = rho + lambda * lambda * m2 / (2.0 * (1.0 - rho));
        let e_n = sol.repeating_mass() + sol.expected_level_index();
        assert!((e_n - want).abs() < 1e-8, "E[N] = {e_n} vs P-K {want}");
        assert!((sol.boundary()[0] - (1.0 - rho)).abs() < 1e-9);
        assert!((sol.total_mass() - 1.0).abs() < 1e-9);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn injected_no_convergence_exhausts_the_fallback_ladder() {
        use cyclesteal_xtest::fault;

        let q = mm1(0.7, 1.0);
        let armed = fault::arm(fault::FaultPlan::new(5, 1.0, &["qbd.solve"]));
        let _scope = fault::Scope::enter("qbd-unit");
        // Both the primary and the fallback attempt hit the fault site, so
        // the error must carry both injected failures.
        let err = q.solve().unwrap_err();
        match &err {
            MarkovError::FallbackExhausted {
                primary, fallback, ..
            } => {
                assert!(matches!(**primary, MarkovError::NoConvergence { .. }));
                assert!(matches!(**fallback, MarkovError::NoConvergence { .. }));
            }
            other => panic!("expected FallbackExhausted, got {other}"),
        }
        assert!(err.to_string().contains("injected fault (qbd.solve)"));
        // solve_with has no ladder: the injection surfaces directly.
        assert!(matches!(
            q.solve_with(RAlgorithm::LogarithmicReduction),
            Err(MarkovError::NoConvergence { .. })
        ));
        drop(armed);
        assert!(q.solve().is_ok(), "disarmed: clean solve");
    }

    #[test]
    fn high_load_still_accurate() {
        // rho = 0.99: near-saturation numerical stress.
        let sol = mm1(0.99, 1.0).solve().unwrap();
        let e_n = sol.repeating_mass() + sol.expected_level_index();
        assert!((e_n - 99.0).abs() < 1e-5, "E[N] = {e_n}");
    }

    /// M/PH/1 with a 2-phase Coxian service law — a multi-phase fixture for
    /// the workspace-vs-reference comparisons below.
    fn mph1_qbd(lambda: f64) -> Qbd {
        mph1_qbd_with_rates(lambda, 2.0, 0.6, 0.5)
    }

    /// Same chain shape as [`mph1_qbd`] with every rate explicit, so tests can
    /// push the generator entries to extreme magnitudes.
    fn mph1_qbd_with_rates(lambda: f64, c_mu1: f64, c_p: f64, c_mu2: f64) -> Qbd {
        let exit = [c_mu1 * (1.0 - c_p), c_mu2];
        let a0 = Matrix::from_diag(&[lambda, lambda]);
        let mut a1 = Matrix::from_rows(&[&[-c_mu1, c_p * c_mu1], &[0.0, -c_mu2]]).unwrap();
        for i in 0..2 {
            a1[(i, i)] -= lambda;
        }
        let mut a2 = Matrix::zeros(2, 2);
        for i in 0..2 {
            a2[(i, 0)] = exit[i];
        }
        let b00 = m1(-lambda);
        let b01 = Matrix::from_vec(1, 2, vec![lambda, 0.0]);
        let b10 = Matrix::from_vec(2, 1, vec![exit[0], exit[1]]);
        Qbd::new(b00, b01, b10, a0, a1, a2).unwrap()
    }

    #[test]
    fn workspace_and_reference_solvers_agree() {
        // The workspace path replaces inverse-then-multiply with direct LU
        // solves at three sites, so results differ only by roundoff.
        for qbd in [mm1(0.3, 1.0), mm1(0.9, 1.0), mph1_qbd(0.4), mph1_qbd(0.55)] {
            let ws_sol = qbd.solve().unwrap();
            let ref_sol = qbd.solve_reference().unwrap();
            assert!(
                max_abs_diff(ws_sol.boundary(), ref_sol.boundary()) < 1e-10
                    && max_abs_diff(ws_sol.pi0(), ref_sol.pi0()) < 1e-10
                    && max_abs_diff(ws_sol.r().as_slice(), ref_sol.r().as_slice()) < 1e-10,
                "workspace and reference solutions diverged"
            );
            assert_eq!(
                ws_sol.normalization_pivot(),
                ref_sol.normalization_pivot(),
                "both paths must pick the same normalization pivot"
            );
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // A per-worker workspace is reused across many different QBDs in a
        // sweep; results must not depend on what the buffers held before.
        let q = mph1_qbd(0.55);
        let fresh = q.solve().unwrap();
        let mut ws = Workspace::new();
        // Dirty the pool: solve unrelated chains of different dimensions.
        q.solve_in(&mut ws).unwrap();
        mm1(0.5, 1.0).solve_in(&mut ws).unwrap();
        let reused = q.solve_in(&mut ws).unwrap();
        assert_eq!(fresh.boundary(), reused.boundary());
        assert_eq!(fresh.pi0(), reused.pi0());
        assert_eq!(fresh.r().as_slice(), reused.r().as_slice());
        assert_eq!(fresh.phase_mass(), reused.phase_mass());
        // Both R algorithms, same property.
        let f2 = q.solve_with(RAlgorithm::FunctionalIteration).unwrap();
        let r2 = q
            .solve_with_in(RAlgorithm::FunctionalIteration, &mut ws)
            .unwrap();
        assert_eq!(f2.r().as_slice(), r2.r().as_slice());
    }

    #[test]
    fn normalization_pivot_takes_default_branch_on_clean_systems() {
        // nb = 1, m = 1 => n = 2: the default pivot is n - 1 = 1.
        let sol = mm1(0.7, 1.0).solve().unwrap();
        assert_eq!(sol.normalization_pivot(), 1);
        // And for the multi-phase fixture, n - 1 = 2.
        let sol = mph1_qbd(0.4).solve().unwrap();
        assert_eq!(sol.normalization_pivot(), 2);
    }

    /// Asserts every batch member's outcome is bit-identical to solving it
    /// alone through the scalar path (values via `to_bits`; errors via
    /// their rendered messages, which carry kind and diagnostics).
    fn assert_batch_matches_scalar(qbds: &[Qbd]) {
        let refs: Vec<&Qbd> = qbds.iter().collect();
        let mut ws = Workspace::new();
        let batch = Qbd::solve_batch_in(&refs, &mut ws);
        assert_eq!(batch.len(), qbds.len());
        for (i, (q, got)) in qbds.iter().zip(batch.iter()).enumerate() {
            let want = q.solve_in(&mut Workspace::new());
            match (got, &want) {
                (Ok(g), Ok(w)) => {
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(g.boundary()), bits(w.boundary()), "lane {i} boundary");
                    assert_eq!(bits(g.pi0()), bits(w.pi0()), "lane {i} pi0");
                    assert_eq!(
                        bits(g.r().as_slice()),
                        bits(w.r().as_slice()),
                        "lane {i} R"
                    );
                    assert_eq!(
                        g.normalization_pivot(),
                        w.normalization_pivot(),
                        "lane {i} pivot"
                    );
                }
                (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "lane {i} error"),
                (g, w) => panic!("lane {i}: batch {g:?} vs scalar {w:?}"),
            }
        }
    }

    #[test]
    fn batched_solve_is_bit_identical_to_scalar_across_sizes() {
        for size in [1usize, 2, 7, 64] {
            let qbds: Vec<Qbd> = (0..size)
                .map(|i| mph1_qbd(0.05 + 0.5 * i as f64 / size.max(2) as f64))
                .collect();
            assert_batch_matches_scalar(&qbds);
        }
    }

    #[test]
    fn mixed_shape_batch_degenerates_to_scalar() {
        // 1-phase M/M/1 chains mixed with 2-phase M/PH/1 chains: the batch
        // entry point must fall back to per-point scalar solves and still
        // return index-aligned, bit-identical results.
        let qbds = vec![mm1(0.7, 1.0), mph1_qbd(0.4), mm1(0.3, 1.0), mph1_qbd(0.55)];
        assert_batch_matches_scalar(&qbds);
    }

    #[test]
    fn unstable_member_fails_alone_without_poisoning_the_batch() {
        // rho = 1.7 * 0.7 > 1: the middle lane is unstable and must report
        // exactly the scalar Unstable error while its batch-mates solve to
        // the bit.
        let qbds = vec![mph1_qbd(0.2), mph1_qbd(0.7), mph1_qbd(0.5)];
        let refs: Vec<&Qbd> = qbds.iter().collect();
        let results = Qbd::solve_batch_in(&refs, &mut Workspace::new());
        assert!(results[0].is_ok() && results[2].is_ok());
        assert!(matches!(results[1], Err(MarkovError::Unstable { .. })));
        assert_batch_matches_scalar(&qbds);
    }

    #[test]
    fn batch_reuses_a_dirty_workspace_bit_identically() {
        let qbds: Vec<Qbd> = (0..5).map(|i| mph1_qbd(0.1 + 0.08 * i as f64)).collect();
        let refs: Vec<&Qbd> = qbds.iter().collect();
        let fresh = Qbd::solve_batch_in(&refs, &mut Workspace::new());
        let mut ws = Workspace::new();
        mm1(0.5, 1.0).solve_in(&mut ws).unwrap(); // dirty the pool
        Qbd::solve_batch_in(&refs, &mut ws);
        let reused = Qbd::solve_batch_in(&refs, &mut ws);
        for (a, b) in fresh.iter().zip(reused.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.boundary(), b.boundary());
            assert_eq!(a.r().as_slice(), b.r().as_slice());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn injected_fault_hits_every_lane_of_a_batch_identically_to_scalar() {
        use cyclesteal_xtest::fault;

        let qbds: Vec<Qbd> = (0..3).map(|i| mph1_qbd(0.2 + 0.1 * i as f64)).collect();
        let armed = fault::arm(fault::FaultPlan::new(5, 1.0, &["qbd.solve"]));
        let _scope = fault::Scope::enter("qbd-batch-unit");
        // All lanes share the ambient fault scope, so every lane's precheck
        // fires and replays the scalar ladder — the batch must reproduce
        // the scalar FallbackExhausted errors exactly.
        assert_batch_matches_scalar(&qbds);
        drop(_scope);
        drop(armed);
        assert_batch_matches_scalar(&qbds);
    }

    #[test]
    fn normalization_pivot_retries_when_last_equation_poor() {
        // Generator entries of magnitude ~1e10 push the backward-error floor
        // of the replaced-equation solve (~ eps * |F| * |x|) above the 1e-9
        // residual acceptance threshold, so the default pivot n - 1 is
        // rejected and the retry loop falls through to comparing residuals.
        // For this fixture the pivot-0 system leaves the smaller residual,
        // exercising the second branch of the retry loop end to end.
        let q = mph1_qbd_with_rates(1e9, 2e10, 0.6, 0.5e10);
        let sol = q.solve().unwrap();
        assert_eq!(
            sol.normalization_pivot(),
            0,
            "ill-scaled fixture must reject the default pivot"
        );
        // Despite the retry, the solution is still a probability distribution.
        assert!((sol.total_mass() - 1.0).abs() < 1e-9);
        // The reference (allocating) solver must walk the same retry path.
        let ref_sol = q.solve_reference().unwrap();
        assert_eq!(ref_sol.normalization_pivot(), 0);
    }
}

