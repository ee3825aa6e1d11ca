//! Discrete-event simulation of the CS-CQ **fleet**: `k` short hosts plus
//! `m` stealing (long) hosts under one central queue — the many-server
//! system `cyclesteal_core::cs_cq_km` analyzes.
//!
//! # Model
//!
//! All `k + m` servers are identical (unit speed) and renamable. Long jobs
//! split uniformly at random over `m` *long slots*; each slot serves its
//! longs FIFO through at most one server at a time (the analysis collapses
//! a slot's long dynamics into one busy period, so two longs of the same
//! slot never run concurrently, while longs of *different* slots do).
//! Shorts wait in one central FIFO queue. Work conservation fixes the
//! dispatch rules, mirroring the chain's transitions:
//!
//! * a long arriving at an **empty** slot starts immediately iff a server
//!   is idle; otherwise the slot *pends* (the chain's region 5);
//! * a long arriving at an occupied slot joins the slot's queue (it is
//!   part of the slot's current busy period);
//! * a freed server first rescues the **oldest pending slot**, then takes
//!   the next short, then idles;
//! * a server finishing a long continues with the same slot's next long
//!   if one waits (the busy period continues), else the slot empties.
//!
//! At `(k, m) = (1, 1)` these are exactly the paper's CS-CQ rules.
//!
//! # Determinism
//!
//! Runs are a pure function of the seed. The draw order is fixed and part
//! of the contract: job size first, then (longs only) the slot index, then
//! the next interarrival of the same class. Replications shard across
//! threads with [`replicate_fleet_parallel`] and aggregate in seed order,
//! so results are bit-identical for every thread count.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use cyclesteal_dist::{sample_exp, DistError, Distribution};
use cyclesteal_xtest::rng::{RngExt, SeedableRng, SmallRng};

use crate::engine::SimConfig;
use crate::policy::JobClass;
use crate::stats::ClassStats;

/// Workload of a `(k, m)` fleet: Poisson arrivals of both classes (the
/// base model of the analysis; `λ_L = 0` switches the long class off).
#[derive(Clone, Copy)]
pub struct FleetParams<'a> {
    k: usize,
    m: usize,
    lambda_s: f64,
    lambda_l: f64,
    short: &'a dyn Distribution,
    long: &'a dyn Distribution,
}

impl<'a> FleetParams<'a> {
    /// Creates a fleet workload.
    ///
    /// # Errors
    ///
    /// [`DistError::NonPositive`] if `k == 0`, a rate is negative or not
    /// finite, both rates are zero, or `λ_L > 0` with no stealing host to
    /// ever serve a long (`m == 0`).
    pub fn new(
        k: usize,
        m: usize,
        lambda_s: f64,
        lambda_l: f64,
        short: &'a dyn Distribution,
        long: &'a dyn Distribution,
    ) -> Result<Self, DistError> {
        if k == 0 {
            return Err(DistError::NonPositive {
                what: "k (short hosts)",
                value: 0.0,
            });
        }
        for (what, v) in [("lambda_s", lambda_s), ("lambda_l", lambda_l)] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(DistError::NonPositive { what, value: v });
            }
        }
        if lambda_s == 0.0 && lambda_l == 0.0 {
            return Err(DistError::NonPositive {
                what: "lambda_s + lambda_l",
                value: 0.0,
            });
        }
        if lambda_l > 0.0 && m == 0 {
            return Err(DistError::NonPositive {
                what: "m (stealing hosts, required when lambda_l > 0)",
                value: 0.0,
            });
        }
        Ok(FleetParams {
            k,
            m,
            lambda_s,
            lambda_l,
            short,
            long,
        })
    }

    /// Number of short hosts.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stealing (long) hosts.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Short-class load `ρ_S = λ_S · E[X_S]`.
    pub fn rho_s(&self) -> f64 {
        self.lambda_s * self.short.mean()
    }

    /// Long-class load `ρ_L = λ_L · E[X_L]`.
    pub fn rho_l(&self) -> f64 {
        self.lambda_l * self.long.mean()
    }
}

impl std::fmt::Debug for FleetParams<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetParams")
            .field("k", &self.k)
            .field("m", &self.m)
            .field("rho_s", &self.rho_s())
            .field("rho_l", &self.rho_l())
            .finish()
    }
}

/// The outcome of one fleet simulation run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Response-time statistics of the short class.
    pub short: ClassStats,
    /// Response-time statistics of the long class.
    pub long: ClassStats,
    /// Waiting-time (response minus own service) statistics of the shorts.
    pub short_wait: ClassStats,
    /// Waiting-time statistics of the longs.
    pub long_wait: ClassStats,
    /// Fraction of time each of the `k + m` servers was busy.
    pub utilization: Vec<f64>,
    /// Simulated time at the end of the run.
    pub end_time: f64,
    /// Completions counted per class (after warmup).
    pub completions: [u64; 2],
    /// Jobs waiting (not in service) when the run stopped.
    pub queued_at_end: usize,
    /// Time-averaged number in system per class (whole run).
    pub mean_in_system: [f64; 2],
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival(JobClass),
    Departure(usize),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy)]
struct Serving {
    class: JobClass,
    size: f64,
    arrival: f64,
    /// The long slot this job belongs to (`None` for shorts).
    slot: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Waiting {
    size: f64,
    arrival: f64,
}

struct FleetEngine<'a> {
    params: FleetParams<'a>,
    rng: SmallRng,
    heap: BinaryHeap<Event>,
    seq: u64,
    now: f64,
    serving: Vec<Option<Serving>>,
    busy_since: Vec<Option<f64>>,
    busy_time: Vec<f64>,
    short_queue: VecDeque<Waiting>,
    /// Per-slot FIFO of longs not yet in service.
    slot_queues: Vec<VecDeque<Waiting>>,
    /// Whether a long of this slot is currently in service.
    slot_busy: Vec<bool>,
    /// Slots whose head long waits for a server, oldest first.
    pending_slots: VecDeque<usize>,
    responses: [Vec<f64>; 2],
    waits: [Vec<f64>; 2],
    completions_total: u64,
    completions: [u64; 2],
    warmup_target: u64,
    in_system: [u64; 2],
    area: [f64; 2],
    last_event_time: f64,
}

impl<'a> FleetEngine<'a> {
    fn schedule(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    fn schedule_next_arrival(&mut self, class: JobClass) {
        let rate = match class {
            JobClass::Short => self.params.lambda_s,
            JobClass::Long => self.params.lambda_l,
        };
        if rate == 0.0 {
            return;
        }
        let dt = sample_exp(rate, &mut self.rng);
        self.schedule(self.now + dt, EventKind::Arrival(class));
    }

    fn idle_server(&self) -> Option<usize> {
        // Servers are identical; the lowest index keeps runs deterministic.
        self.serving.iter().position(Option::is_none)
    }

    fn start(&mut self, server: usize, job: Serving) {
        debug_assert!(self.serving[server].is_none(), "server already busy");
        self.serving[server] = Some(job);
        self.busy_since[server] = Some(self.now);
        self.schedule(self.now + job.size, EventKind::Departure(server));
    }

    fn start_slot_head(&mut self, server: usize, slot: usize) {
        let w = self.slot_queues[slot]
            .pop_front()
            .expect("pending slot has a waiting long");
        self.slot_busy[slot] = true;
        self.start(
            server,
            Serving {
                class: JobClass::Long,
                size: w.size,
                arrival: w.arrival,
                slot: Some(slot),
            },
        );
    }

    /// A server came free: rescue the oldest pending slot, else take the
    /// next short, else idle.
    fn dispatch(&mut self, server: usize) {
        if let Some(slot) = self.pending_slots.pop_front() {
            self.start_slot_head(server, slot);
        } else if let Some(w) = self.short_queue.pop_front() {
            self.start(
                server,
                Serving {
                    class: JobClass::Short,
                    size: w.size,
                    arrival: w.arrival,
                    slot: None,
                },
            );
        }
    }

    fn record_completion(&mut self, job: Serving) {
        let idx = match job.class {
            JobClass::Short => 0,
            JobClass::Long => 1,
        };
        self.in_system[idx] -= 1;
        self.completions_total += 1;
        if self.completions_total > self.warmup_target {
            self.completions[idx] += 1;
            let response = self.now - job.arrival;
            self.responses[idx].push(response);
            self.waits[idx].push((response - job.size).max(0.0));
        }
    }

    fn run(&mut self, total_jobs: u64) {
        while self.completions_total < total_jobs {
            let Some(ev) = self.heap.pop() else { break };
            self.now = ev.time;
            let dt = self.now - self.last_event_time;
            self.area[0] += dt * self.in_system[0] as f64;
            self.area[1] += dt * self.in_system[1] as f64;
            self.last_event_time = self.now;
            match ev.kind {
                EventKind::Arrival(JobClass::Short) => {
                    let size = self.params.short.sample(&mut self.rng);
                    let w = Waiting {
                        size,
                        arrival: self.now,
                    };
                    self.in_system[0] += 1;
                    self.schedule_next_arrival(JobClass::Short);
                    // A pending slot would have grabbed any idle server
                    // already, so an idle server here means no slot waits.
                    if let Some(s) = self.idle_server() {
                        self.start(
                            s,
                            Serving {
                                class: JobClass::Short,
                                size: w.size,
                                arrival: w.arrival,
                                slot: None,
                            },
                        );
                    } else {
                        self.short_queue.push_back(w);
                    }
                }
                EventKind::Arrival(JobClass::Long) => {
                    let size = self.params.long.sample(&mut self.rng);
                    let slot = self.rng.random_below(self.params.m as u64) as usize;
                    let w = Waiting {
                        size,
                        arrival: self.now,
                    };
                    self.in_system[1] += 1;
                    self.schedule_next_arrival(JobClass::Long);
                    if self.slot_busy[slot] || !self.slot_queues[slot].is_empty() {
                        // The slot's busy period is running (or it already
                        // pends): join the slot queue.
                        self.slot_queues[slot].push_back(w);
                    } else if let Some(s) = self.idle_server() {
                        self.slot_busy[slot] = true;
                        self.start(
                            s,
                            Serving {
                                class: JobClass::Long,
                                size: w.size,
                                arrival: w.arrival,
                                slot: Some(slot),
                            },
                        );
                    } else {
                        // Every server busy: the slot pends (region 5).
                        self.slot_queues[slot].push_back(w);
                        self.pending_slots.push_back(slot);
                    }
                }
                EventKind::Departure(server) => {
                    let job = self.serving[server]
                        .take()
                        .expect("departure from idle server");
                    if let Some(since) = self.busy_since[server].take() {
                        self.busy_time[server] += self.now - since;
                    }
                    self.record_completion(job);
                    match job.slot {
                        Some(slot) => {
                            self.slot_busy[slot] = false;
                            if self.slot_queues[slot].is_empty() {
                                // The slot's busy period ended.
                                self.dispatch(server);
                            } else {
                                // Same server continues the slot's busy
                                // period with its next long.
                                self.start_slot_head(server, slot);
                            }
                        }
                        None => self.dispatch(server),
                    }
                }
            }
        }
        for s in 0..self.serving.len() {
            if let Some(since) = self.busy_since[s].take() {
                self.busy_time[s] += self.now - since;
            }
        }
    }
}

/// Runs one fleet simulation (the fleet module docs describe the model
/// and the determinism contract).
///
/// # Panics
///
/// Panics if `config.total_jobs == 0`.
pub fn simulate_fleet(params: &FleetParams<'_>, config: &SimConfig) -> FleetResult {
    assert!(config.total_jobs > 0, "total_jobs must be positive");
    let n = params.k + params.m;
    let mut engine = FleetEngine {
        params: *params,
        rng: SmallRng::seed_from_u64(config.seed),
        heap: BinaryHeap::new(),
        seq: 0,
        now: 0.0,
        serving: vec![None; n],
        busy_since: vec![None; n],
        busy_time: vec![0.0; n],
        short_queue: VecDeque::new(),
        slot_queues: vec![VecDeque::new(); params.m],
        slot_busy: vec![false; params.m],
        pending_slots: VecDeque::new(),
        responses: [Vec::new(), Vec::new()],
        waits: [Vec::new(), Vec::new()],
        completions_total: 0,
        completions: [0, 0],
        warmup_target: (config.total_jobs as f64 * config.warmup_fraction) as u64,
        in_system: [0, 0],
        area: [0.0, 0.0],
        last_event_time: 0.0,
    };
    engine.schedule_next_arrival(JobClass::Short);
    engine.schedule_next_arrival(JobClass::Long);
    engine.run(config.total_jobs);

    let end_time = engine.now.max(f64::MIN_POSITIVE);
    FleetResult {
        short: ClassStats::from_samples(&engine.responses[0], config.batches),
        long: ClassStats::from_samples(&engine.responses[1], config.batches),
        short_wait: ClassStats::from_samples(&engine.waits[0], config.batches),
        long_wait: ClassStats::from_samples(&engine.waits[1], config.batches),
        utilization: engine
            .busy_time
            .iter()
            .map(|b| b / end_time)
            .collect(),
        end_time: engine.now,
        completions: engine.completions,
        queued_at_end: engine.short_queue.len()
            + engine.slot_queues.iter().map(VecDeque::len).sum::<usize>(),
        mean_in_system: [engine.area[0] / end_time, engine.area[1] / end_time],
    }
}

/// Result of independent fleet replications: per-class grand means with
/// across-replication confidence intervals.
#[derive(Debug, Clone)]
pub struct FleetReplicated {
    /// Grand mean and CI of short-class response times.
    pub short: ClassStats,
    /// Grand mean and CI of long-class response times.
    pub long: ClassStats,
    /// Individual replication results.
    pub runs: Vec<FleetResult>,
}

impl FleetReplicated {
    /// Aggregates already-run replications in the order of `runs` (seed
    /// order for the `replicate_fleet*` entry points), so aggregates are
    /// independent of how the runs were executed.
    pub fn from_runs(runs: Vec<FleetResult>) -> FleetReplicated {
        let short_means: Vec<f64> = runs
            .iter()
            .filter(|r| r.short.count > 0)
            .map(|r| r.short.mean)
            .collect();
        let long_means: Vec<f64> = runs
            .iter()
            .filter(|r| r.long.count > 0)
            .map(|r| r.long.mean)
            .collect();
        FleetReplicated {
            short: ClassStats::from_samples(&short_means, short_means.len()),
            long: ClassStats::from_samples(&long_means, long_means.len()),
            runs,
        }
    }
}

/// Runs `reps` independent fleet replications (seeds
/// `config.seed..+reps`) on one thread.
///
/// # Panics
///
/// Panics if `reps == 0` or `config.total_jobs == 0`.
pub fn replicate_fleet(
    params: &FleetParams<'_>,
    config: &SimConfig,
    reps: usize,
) -> FleetReplicated {
    replicate_fleet_parallel(params, config, reps, 1)
}

/// Runs `reps` independent fleet replications sharded across `threads`
/// worker threads. Each replication is a pure function of its seed and
/// results are reassembled in seed order before aggregation, so the
/// returned [`FleetReplicated`] is **bit-identical for every thread
/// count** (the fleet inherits the 2-host engine's determinism contract).
///
/// # Panics
///
/// Panics if `reps == 0` or `config.total_jobs == 0`.
pub fn replicate_fleet_parallel(
    params: &FleetParams<'_>,
    config: &SimConfig,
    reps: usize,
    threads: usize,
) -> FleetReplicated {
    assert!(reps > 0, "need at least one replication");
    let indices: Vec<u64> = (0..reps as u64).collect();
    let runs = crate::pool::parallel_map(&indices, threads, 1, |i| {
        let cfg = SimConfig {
            seed: config.seed.wrapping_add(*i),
            ..*config
        };
        simulate_fleet(params, &cfg)
    });
    FleetReplicated::from_runs(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, PolicyKind, SimParams};
    use cyclesteal_dist::Exp;

    fn exp(mean: f64) -> Exp {
        Exp::with_mean(mean).unwrap()
    }

    #[test]
    fn params_validation() {
        let d = exp(1.0);
        assert!(FleetParams::new(0, 1, 0.5, 0.3, &d, &d).is_err());
        assert!(FleetParams::new(1, 0, 0.5, 0.3, &d, &d).is_err());
        assert!(FleetParams::new(1, 1, 0.0, 0.0, &d, &d).is_err());
        assert!(FleetParams::new(1, 1, f64::NAN, 0.3, &d, &d).is_err());
        // m = 0 is fine when the long class is off.
        let p = FleetParams::new(2, 0, 0.9, 0.0, &d, &d).unwrap();
        assert_eq!((p.k(), p.m()), (2, 0));
        assert!((p.rho_s() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = exp(1.0);
        let p = FleetParams::new(2, 2, 1.5, 0.5, &d, &d).unwrap();
        let c = SimConfig {
            seed: 42,
            total_jobs: 20_000,
            ..SimConfig::default()
        };
        let a = simulate_fleet(&p, &c);
        let b = simulate_fleet(&p, &c);
        assert_eq!(a.short.mean.to_bits(), b.short.mean.to_bits());
        assert_eq!(a.long.mean.to_bits(), b.long.mean.to_bits());
    }

    #[test]
    fn one_one_fleet_matches_the_2host_cscq_engine_statistically() {
        // Not bit-identity (different draw orders), but the same system:
        // means must agree within Monte-Carlo noise.
        let d = exp(1.0);
        let fp = FleetParams::new(1, 1, 1.0, 0.5, &d, &d).unwrap();
        let sp = SimParams::new(1.0, 0.5, &d, &d).unwrap();
        let c = SimConfig {
            seed: 9,
            total_jobs: 400_000,
            ..SimConfig::default()
        };
        let fleet = simulate_fleet(&fp, &c);
        let two = simulate(PolicyKind::CsCq, &sp, &c);
        let rel = (fleet.short.mean - two.short.mean).abs() / two.short.mean;
        assert!(rel < 0.05, "fleet {} vs 2-host {}", fleet.short.mean, two.short.mean);
    }

    #[test]
    fn m_zero_runs_shorts_only() {
        let d = exp(1.0);
        let p = FleetParams::new(2, 0, 1.2, 0.0, &d, &d).unwrap();
        let c = SimConfig {
            seed: 5,
            total_jobs: 50_000,
            ..SimConfig::default()
        };
        let r = simulate_fleet(&p, &c);
        assert_eq!(r.completions[1], 0);
        assert_eq!(r.long.count, 0);
        assert!(r.short.mean > 0.0);
        assert_eq!(r.utilization.len(), 2);
    }

    #[test]
    fn utilization_matches_total_load_for_a_stable_fleet() {
        let d = exp(1.0);
        // rho_s + rho_l = 2.4 over 4 servers: average utilization 0.6.
        let p = FleetParams::new(2, 2, 1.8, 0.6, &d, &d).unwrap();
        let c = SimConfig {
            seed: 11,
            total_jobs: 400_000,
            ..SimConfig::default()
        };
        let r = simulate_fleet(&p, &c);
        let avg = r.utilization.iter().sum::<f64>() / r.utilization.len() as f64;
        assert!((avg - 0.6).abs() < 0.02, "{:?}", r.utilization);
    }

    #[test]
    fn replication_is_thread_count_invariant() {
        let d = exp(1.0);
        let p = FleetParams::new(2, 1, 1.4, 0.4, &d, &d).unwrap();
        let c = SimConfig {
            seed: 77,
            total_jobs: 10_000,
            ..SimConfig::default()
        };
        let one = replicate_fleet_parallel(&p, &c, 6, 1);
        let four = replicate_fleet_parallel(&p, &c, 6, 4);
        assert_eq!(one.short.mean.to_bits(), four.short.mean.to_bits());
        assert_eq!(one.long.mean.to_bits(), four.long.mean.to_bits());
    }
}
