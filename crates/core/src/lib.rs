//! Analysis of task assignment with cycle stealing — the primary
//! contribution of Harchol-Balter, Li, Osogami, Scheller-Wolf & Squillante,
//! *Analysis of Task Assignment with Cycle Stealing under Central Queue*
//! (ICDCS 2003).
//!
//! Two homogeneous non-preemptive hosts serve Poisson streams of *short*
//! jobs (rate `λ_S`, exponential sizes with rate `μ_S`) and *long* jobs
//! (rate `λ_L`, generally distributed sizes summarized by three moments).
//! Three policies are analyzed:
//!
//! * [`dedicated`] — two independent M/G/1 queues (the baseline).
//! * [`cs_id`] — cycle stealing with **immediate dispatch**: an arriving
//!   short runs on the long host iff that host is idle. Analyzed by
//!   decomposing the system into the long host (an M/G/1 queue with setup,
//!   exact for exponential shorts) and the short host (a Markov-modulated
//!   M/M/1 on the overflow stream — the companion paper's approximation).
//! * [`cs_cq`] — cycle stealing with a **central queue** and renamable
//!   hosts: the paper's headline analysis. The number of shorts is tracked
//!   exactly as the level of a QBD; the long-job dynamics collapse into
//!   **busy-period transitions** (`B_L` and `B_{N+1}`) whose first three
//!   moments are matched by Coxians.
//! * [`stability`] — Theorem 1: the stability frontiers
//!   (`ρ_S < 1` Dedicated, `ρ_S(ρ_S+ρ_L)/(1+ρ_S) < 1` CS-ID,
//!   `ρ_S < 2 − ρ_L` CS-CQ).
//!
//! # Quickstart
//!
//! ```
//! use cyclesteal_core::{cs_cq, cs_id, dedicated, SystemParams};
//!
//! # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
//! // rho_s = 0.9, rho_l = 0.5, both classes mean 1, longs exponential.
//! let params = SystemParams::exponential(0.9, 1.0, 0.5, 1.0)?;
//!
//! let ded = dedicated::analyze(&params)?;
//! let id = cs_id::analyze(&params)?;
//! let cq = cs_cq::analyze(&params)?;
//!
//! // Cycle stealing helps the shorts, the central queue helps them most.
//! assert!(cq.short_response < id.short_response);
//! assert!(id.short_response < ded.short_response);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod cs_cq;
pub mod cs_cq_km;
pub mod cs_id;
pub mod dedicated;
mod error;
mod params;
pub mod recover;
pub mod stability;

pub use error::AnalysisError;
pub use params::SystemParams;

use cyclesteal_dist::{DistError, Map};

/// Per-class mean response times produced by every analyzer.
///
/// `short_response` is `E[T_S]` (the beneficiary class), `long_response`
/// is `E[T_L]` (the donor class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyMeans {
    /// Mean response time of short jobs.
    pub short_response: f64,
    /// Mean response time of long jobs.
    pub long_response: f64,
}

/// All three policies side by side; `None` marks a policy that is unstable
/// at this workload (which is itself informative — see Figure 6, where
/// Dedicated is absent entirely).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Dedicated assignment, if stable.
    pub dedicated: Option<PolicyMeans>,
    /// Cycle stealing with immediate dispatch, if stable.
    pub cs_id: Option<PolicyMeans>,
    /// Cycle stealing with a central queue, if stable.
    pub cs_cq: Option<PolicyMeans>,
}

/// Analyzes all three policies at once, mapping per-policy instability to
/// `None` rather than an error.
///
/// # Errors
///
/// Only genuine parameter/solver failures are propagated; stability
/// violations are represented as `None` entries.
///
/// # Examples
///
/// ```
/// use cyclesteal_core::{compare, SystemParams};
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let p = SystemParams::exponential(1.2, 1.0, 0.5, 1.0)?;
/// let c = compare(&p)?;
/// assert!(c.dedicated.is_none()); // rho_s > 1
/// assert!(c.cs_id.is_some() && c.cs_cq.is_some());
/// # Ok(())
/// # }
/// ```
pub fn compare(params: &SystemParams) -> Result<Comparison, AnalysisError> {
    let lift = |r: Result<PolicyMeans, AnalysisError>| match r {
        Ok(m) => Ok(Some(m)),
        Err(AnalysisError::Unstable { .. }) => Ok(None),
        Err(e) => Err(e),
    };
    Ok(Comparison {
        dedicated: lift(dedicated::analyze(params))?,
        cs_id: lift(cs_id::analyze(params).map(PolicyMeans::from))?,
        cs_cq: lift(cs_cq::analyze(params).map(PolicyMeans::from))?,
    })
}

/// A MAP driving a chain must carry the `λ_S` that `params` records (the
/// stability check and Little's law use it); `None` is Poisson at that rate.
pub(crate) fn check_arrival_rate(
    params: &SystemParams,
    arrivals: Option<&Map>,
) -> Result<(), AnalysisError> {
    match arrivals {
        Some(map) if (map.rate() - params.lambda_s()).abs() > 1e-9 * params.lambda_s() => {
            Err(AnalysisError::Param(DistError::Inconsistent {
                reason: "MAP arrival rate must equal params.lambda_s()",
            }))
        }
        _ => Ok(()),
    }
}
