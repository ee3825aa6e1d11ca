//! A moment-keyed memo cache for the expensive sub-solves of the CS-CQ
//! analysis, shared safely across threads.
//!
//! Scenario sweeps (the `cyclesteal-sweep` engine, the figure harnesses)
//! evaluate thousands of nearby parameter points, and large parts of the
//! work repeat verbatim: the `B_L` and `B_{N+1}` busy-period fits depend
//! only on `(λ_L, long moments, μ_S)` — constant along a whole `ρ_S`
//! sweep — and identical grid points (re-runs, overlapping grids) repeat
//! the entire QBD `R`-matrix iteration. [`SolveCache`] memoizes:
//!
//! 1. **Coxian moment fits** (`dist::match3`), keyed by the bit pattern of
//!    the target moment triple and the fit order;
//! 2. **QBD solutions** (the `R`-matrix iteration plus boundary solve),
//!    keyed by the [`ReportKey`] of the snapped workload. A key names
//!    exactly one Poisson-arrival chain, so a solution seeded by a batch
//!    presolve is found by the evaluation that follows without building
//!    (or hashing) the chain again;
//! 3. **whole CS-CQ reports**, keyed by the same [`ReportKey`].
//!
//! # Why determinism survives parallelism
//!
//! Every cached value is a **pure function of its key**: inputs are
//! *snapped* to the quantization grid ([`quantize`]) before any
//! computation, so whichever thread populates an entry first computes
//! exactly the value every other thread would have computed. Sweep results
//! are therefore bit-identical regardless of thread count, scheduling, or
//! input order — the property `crates/sweep/tests/determinism.rs` locks
//! in.
//!
//! # Once-per-key compute, deterministic hit/miss counts
//!
//! Each layer is a `Memo`: the first thread to ask for a key becomes its
//! *designated computer* and every concurrent asker blocks on the entry's
//! condvar until the value is ready. This upgrades the determinism story
//! from "same *values* at any thread count" to "same *telemetry* at any
//! thread count": a successful key is computed (and counted as a miss)
//! exactly once no matter how many threads race for it, so the per-family
//! hit/miss counters surfaced through `cyclesteal-obs` are bit-identical
//! across 1/2/8 worker threads. Errors are never cached — each caller
//! recomputes (and re-counts) the same deterministic error — and a
//! designated computer that *panics* marks the slot poisoned so waiting
//! threads recover by recomputing (counted in
//! [`CacheStats::poison_recoveries`]).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use cyclesteal_dist::match3::MatchQuality;
use cyclesteal_dist::{Moments3, Ph};
use cyclesteal_markov::QbdSolution;
use cyclesteal_obs as obs;

use crate::cs_cq::CsCqReport;
use crate::AnalysisError;

/// Snaps `x` onto the cache's quantization grid by zeroing the low 12
/// mantissa bits — a relative perturbation below `2⁻⁴⁰ ≈ 10⁻¹²`, far
/// inside every tolerance the analysis is validated to. Two inputs closer
/// than the grid spacing share cache entries *and produce bit-identical
/// results*, because the solver runs on the snapped value, not the
/// original.
pub fn quantize(x: f64) -> f64 {
    if x.is_finite() {
        f64::from_bits(x.to_bits() & !0xFFFu64)
    } else {
        x
    }
}

/// Running counters of a [`SolveCache`], for observability (sweep engines
/// surface these per run). With the once-per-key protocol these are
/// deterministic: a successful key misses exactly once process-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (every family combined).
    pub hits: u64,
    /// Lookups that had to compute and insert.
    pub misses: u64,
    /// Lookups that found a slot abandoned by a panicking computer and
    /// recovered by recomputing (zero unless a fault was injected).
    pub poison_recoveries: u64,
    /// Entries evicted by the LRU bound (zero for an unbounded cache).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type FitKey = (u64, u64, u64, u8);
/// Whole-report key: quantized workload bits, fit tag, and the `(k, m)`
/// host counts. The host counts are exact integers — never quantized — so
/// two scenarios differing only in fleet shape cannot collide. The paper's
/// 2-host system is the `(1, 1)` fleet and keys itself as `(1, 1)`.
///
/// Public because the persistence layer (`cyclesteal-svc`'s durable WAL)
/// serializes report entries by this key; the key is plain bits, so the
/// on-disk format is exactly as deterministic as the cache itself.
pub type ReportKey = ([u64; 6], u8, (u32, u32));

/// Locks a mutex, riding through poisoning. Memo state transitions are
/// single statements guarded by their own protocol (see [`Memo`]), so a
/// map abandoned by a panicking worker (the sweep engine catches
/// per-point panics) is still consistent; propagating the poison would
/// cascade one caught panic into every later lookup.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One memo entry's lifecycle. `Pending` while the designated computer
/// runs; terminal states notify the condvar.
enum SlotState<V> {
    /// The designated computer is running.
    Pending,
    /// Value available; waiters clone it and count a hit.
    Ready(V),
    /// The computer finished with an error. The entry is already removed
    /// from the map; waiters retry (recomputing the same deterministic
    /// error themselves, so errors are never served stale).
    Failed,
    /// The computer panicked. The entry is already removed; waiters
    /// count a poison recovery and retry.
    Poisoned,
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    cv: Condvar,
}

impl<V> Slot<V> {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }

    fn finish(&self, state: SlotState<V>) {
        *lock(&self.state) = state;
        self.cv.notify_all();
    }
}

/// A map entry: the compute slot plus the logical timestamp of its most
/// recent touch (insert or hit), which the LRU bound evicts by.
struct MemoEntry<V> {
    slot: Arc<Slot<V>>,
    last_used: u64,
}

/// Removes `key` from `map` only while it still points at `slot`; a
/// fresh slot inserted by a retrying caller must not be clobbered.
fn remove_if_current<K: Eq + Hash, V>(
    map: &Mutex<HashMap<K, MemoEntry<V>>>,
    key: &K,
    slot: &Arc<Slot<V>>,
) {
    let mut m = lock(map);
    if m.get(key).is_some_and(|e| Arc::ptr_eq(&e.slot, slot)) {
        m.remove(key);
    }
}

/// Marks the slot poisoned if `compute` unwinds; disarmed on the normal
/// path. Runs *during* the unwind, before the per-point `catch_unwind`
/// in the sweep pool sees the panic, so waiters never deadlock on a
/// `Pending` slot whose computer died.
struct PoisonOnUnwind<'a, K: Eq + Hash, V> {
    map: &'a Mutex<HashMap<K, MemoEntry<V>>>,
    key: &'a K,
    slot: &'a Arc<Slot<V>>,
    armed: bool,
}

impl<K: Eq + Hash, V> Drop for PoisonOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            remove_if_current(self.map, self.key, self.slot);
            self.slot.finish(SlotState::Poisoned);
        }
    }
}

/// One cache family: a keyed map of once-per-key compute slots with its
/// own hit/miss/poison/evict counters (mirrored into `cyclesteal-obs`
/// under the family's label, e.g. `core.cache.fit.hit`).
///
/// With `capacity > 0` the family is LRU-bounded: inserting past the
/// capacity evicts the least-recently-touched **Ready** entry (entries
/// still being computed are never evicted — their designated computer and
/// waiters hold the slot). Eviction changes only *where* a value lives,
/// never what it is: every value is a pure function of its key, so an
/// evicted-and-recomputed entry is bit-identical to the original. Reports
/// therefore stay deterministic with eviction enabled; only the hit/miss
/// *counters* become scheduling-dependent (a hit can turn into a
/// recompute-miss depending on eviction order), which is why the obs
/// determinism suites run on unbounded caches.
struct Memo<K, V> {
    map: Mutex<HashMap<K, MemoEntry<V>>>,
    /// Max Ready entries (`0` = unbounded).
    capacity: usize,
    /// Logical LRU timestamp, bumped on every touch.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    poison_recoveries: AtomicU64,
    evictions: AtomicU64,
    hit_label: &'static str,
    miss_label: &'static str,
    poison_label: &'static str,
    evict_label: &'static str,
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("len", &lock(&self.map).len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    fn new(
        hit_label: &'static str,
        miss_label: &'static str,
        poison_label: &'static str,
        evict_label: &'static str,
        capacity: usize,
    ) -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hit_label,
            miss_label,
            poison_label,
            evict_label,
        }
    }

    fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// `true` when `key` has an entry (ready or pending); a pending entry
    /// counts because its designated computer will finish it.
    fn contains(&self, key: &K) -> bool {
        lock(&self.map).contains_key(key)
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        obs::counter!(self.hit_label);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter!(self.miss_label);
    }

    fn poison_recovery(&self) {
        self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
        obs::counter!(self.poison_label);
    }

    /// Evicts least-recently-touched **Ready** entries until the map fits
    /// the capacity (no-op when unbounded). Runs under the map lock; slot
    /// state locks nest strictly inside the map lock everywhere in this
    /// module, so peeking each entry's state here cannot deadlock. Pending
    /// entries are never evicted (their designated computer and waiters
    /// hold the slot); if every over-capacity entry is pending, the map is
    /// left temporarily over capacity rather than stalling the insert.
    fn evict_over_capacity(&self, map: &mut HashMap<K, MemoEntry<V>>) {
        if self.capacity == 0 {
            return;
        }
        while map.len() > self.capacity {
            let victim = map
                .iter()
                .filter(|(_, e)| matches!(*lock(&e.slot.state), SlotState::Ready(_)))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    obs::counter!(self.evict_label);
                }
                None => break,
            }
        }
    }

    /// The once-per-key protocol: the caller that installs the slot
    /// computes (counting a miss); everyone else waits on the condvar and
    /// either clones the ready value (counting a hit) or retries after a
    /// failure/poisoning.
    fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut compute = Some(compute);
        loop {
            let (slot, designated) = {
                let mut map = lock(&self.map);
                let now = self.tick.fetch_add(1, Ordering::Relaxed);
                match map.entry(key.clone()) {
                    Entry::Occupied(mut e) => {
                        e.get_mut().last_used = now;
                        (Arc::clone(&e.get().slot), false)
                    }
                    Entry::Vacant(e) => {
                        let slot = Arc::clone(
                            &e.insert(MemoEntry {
                                slot: Arc::new(Slot::new()),
                                last_used: now,
                            })
                            .slot,
                        );
                        self.evict_over_capacity(&mut map);
                        (slot, true)
                    }
                }
            };
            if designated {
                self.miss();
                let mut guard = PoisonOnUnwind {
                    map: &self.map,
                    key: &key,
                    slot: &slot,
                    armed: true,
                };
                let result = compute
                    .take()
                    .expect("the designated branch runs at most once")();
                guard.armed = false;
                return match result {
                    Ok(v) => {
                        slot.finish(SlotState::Ready(v.clone()));
                        Ok(v)
                    }
                    Err(e) => {
                        // Errors are not cached: remove before notifying
                        // so retries start a fresh slot.
                        remove_if_current(&self.map, &key, &slot);
                        slot.finish(SlotState::Failed);
                        Err(e)
                    }
                };
            }
            let mut state = lock(&slot.state);
            while matches!(*state, SlotState::Pending) {
                state = slot.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            match &*state {
                SlotState::Ready(v) => {
                    let v = v.clone();
                    drop(state);
                    self.hit();
                    return Ok(v);
                }
                SlotState::Failed => {
                    drop(state);
                    // The entry is gone; loop to compute the (pure,
                    // deterministic) error ourselves.
                }
                SlotState::Poisoned => {
                    drop(state);
                    self.poison_recovery();
                }
                SlotState::Pending => unreachable!("the wait loop exits on terminal states"),
            }
        }
    }
}

/// The thread-safe memo store. Create one per sweep (or keep one alive
/// across sweeps to reuse solutions); share it by reference or `Arc`.
#[derive(Debug)]
pub struct SolveCache {
    fits: Memo<FitKey, (Ph, MatchQuality)>,
    solutions: Memo<ReportKey, QbdSolution>,
    reports: Memo<ReportKey, CsCqReport>,
    /// When enabled ([`SolveCache::enable_report_journal`]), every report
    /// *computed* after enabling is appended here for the persistence
    /// layer to drain incrementally. Seeded/restored entries are
    /// deliberately not journaled — they came from the persistence layer,
    /// which must not re-append its own records.
    journal: Mutex<Option<Vec<(ReportKey, CsCqReport)>>>,
}

impl Default for SolveCache {
    fn default() -> Self {
        SolveCache::build(0)
    }
}

impl SolveCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// An empty cache whose families (fits, QBD solutions, reports) are
    /// each LRU-bounded at `capacity` entries; `0` means unbounded, same
    /// as [`SolveCache::new`]. Eviction never changes a served value
    /// (every entry is a pure function of its key — an evicted entry is
    /// recomputed bit-identically), only the hit/miss counters, which
    /// become scheduling-dependent once eviction can race with lookups.
    pub fn with_capacity(capacity: usize) -> Self {
        SolveCache::build(capacity)
    }

    fn build(capacity: usize) -> Self {
        SolveCache {
            fits: Memo::new(
                "core.cache.fit.hit",
                "core.cache.fit.miss",
                "core.cache.fit.poison_recovered",
                "core.cache.fit.evicted",
                capacity,
            ),
            solutions: Memo::new(
                "core.cache.qbd.hit",
                "core.cache.qbd.miss",
                "core.cache.qbd.poison_recovered",
                "core.cache.qbd.evicted",
                capacity,
            ),
            reports: Memo::new(
                "core.cache.report.hit",
                "core.cache.report.miss",
                "core.cache.report.poison_recovered",
                "core.cache.report.evicted",
                capacity,
            ),
            journal: Mutex::new(None),
        }
    }

    /// The per-family LRU bound this cache was built with (`0` =
    /// unbounded).
    pub fn capacity(&self) -> usize {
        self.reports.capacity
    }

    /// Current hit/miss/poison-recovery/eviction counters, all families
    /// combined.
    pub fn stats(&self) -> CacheStats {
        let layers = [&self.fits as &dyn MemoStats, &self.solutions, &self.reports];
        let mut stats = CacheStats::default();
        for layer in layers {
            let (h, m, p, e) = layer.counts();
            stats.hits += h;
            stats.misses += m;
            stats.poison_recoveries += p;
            stats.evictions += e;
        }
        stats
    }

    /// Number of memoized entries across all families.
    pub fn len(&self) -> usize {
        self.fits.len() + self.solutions.len() + self.reports.len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memoized moment fit. `tag` discriminates the fit order.
    pub(crate) fn fit(
        &self,
        m: Moments3,
        tag: u8,
        compute: impl FnOnce() -> Result<(Ph, MatchQuality), AnalysisError>,
    ) -> Result<(Ph, MatchQuality), AnalysisError> {
        let key = (m.mean().to_bits(), m.m2().to_bits(), m.m3().to_bits(), tag);
        self.fits.get_or_compute(key, compute)
    }

    /// Memoized QBD solution of the chain `key` names: `compute` (build
    /// the chain, then solve it) runs once per key even under concurrent
    /// lookups, so a hit builds no chain at all. Callers must only use
    /// this for the Poisson-arrival analysis path: the key carries no
    /// arrival-MAP information.
    pub(crate) fn solution(
        &self,
        key: ReportKey,
        compute: impl FnOnce() -> Result<QbdSolution, AnalysisError>,
    ) -> Result<QbdSolution, AnalysisError> {
        self.solutions.get_or_compute(key, compute)
    }

    /// `true` when `key` already has a report or a QBD solution (ready, or
    /// being computed by its designated thread). Lets the batch planner
    /// skip a warm point before fitting or building anything, without
    /// disturbing the hit/miss counters.
    pub fn contains(&self, key: &ReportKey) -> bool {
        self.reports.contains(key) || self.solutions.contains(key)
    }

    /// Seeds the solution family with an externally computed solution
    /// (the batched presolve). Runs through the same once-per-key protocol
    /// as a cache miss — one miss is counted per distinct key, exactly as
    /// if the lookup had solved scalar — so the telemetry of a presolved
    /// sweep stays deterministic. If the key is already present the
    /// existing value wins and `sol` is discarded (both are pure functions
    /// of the key, hence identical).
    pub fn seed_solution(&self, key: ReportKey, sol: QbdSolution) {
        let seeded = self
            .solutions
            .get_or_compute(key, || Ok::<_, AnalysisError>(sol));
        debug_assert!(seeded.is_ok(), "seeding cannot fail");
    }

    /// Memoized whole-report analysis: `compute` runs once per key even
    /// under concurrent lookups. When the report journal is enabled, the
    /// designated compute's (successful) result is appended to it.
    pub(crate) fn report(
        &self,
        key: ReportKey,
        compute: impl FnOnce() -> Result<CsCqReport, AnalysisError>,
    ) -> Result<CsCqReport, AnalysisError> {
        let mut computed = false;
        let result = self.reports.get_or_compute(key, || {
            computed = true;
            compute()
        });
        if computed {
            if let Ok(report) = &result {
                if let Some(j) = lock(&self.journal).as_mut() {
                    j.push((key, report.clone()));
                }
            }
        }
        result
    }

    /// Starts journaling newly *computed* reports so the persistence layer
    /// can drain them incrementally with [`SolveCache::take_new_reports`].
    /// Reports already cached before this call are not replayed — use
    /// [`SolveCache::export_reports`] for the full state.
    pub fn enable_report_journal(&self) {
        let mut j = lock(&self.journal);
        if j.is_none() {
            *j = Some(Vec::new());
        }
    }

    /// Drains the reports journaled since the last drain (empty when
    /// journaling is off or nothing new was computed).
    pub fn take_new_reports(&self) -> Vec<(ReportKey, CsCqReport)> {
        match lock(&self.journal).as_mut() {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// The cached report for `key` if one is ready — a read-only peek
    /// that touches no hit/miss counters and never waits on a pending
    /// compute.
    pub fn peek_report(&self, key: &ReportKey) -> Option<CsCqReport> {
        let map = lock(&self.reports.map);
        let entry = map.get(key)?;
        let peeked = match &*lock(&entry.slot.state) {
            SlotState::Ready(v) => Some(v.clone()),
            _ => None,
        };
        peeked
    }

    /// Seeds the report layer with an externally persisted entry (WAL or
    /// snapshot recovery). Runs through the once-per-key protocol — the
    /// restore counts as the key's single miss — and if the key is
    /// already present the existing value wins and `report` is discarded
    /// (both are pure functions of the key, hence identical for an
    /// uncorrupted record; corrupted records are the persistence layer's
    /// job to reject before calling this). Seeded entries are not
    /// journaled.
    pub fn insert_report(&self, key: ReportKey, report: CsCqReport) {
        let seeded = self
            .reports
            .get_or_compute(key, || Ok::<_, AnalysisError>(report));
        debug_assert!(seeded.is_ok(), "seeding cannot fail");
    }

    /// Every ready report, sorted by key: the deterministic full-state
    /// snapshot the persistence layer writes at drain time. Pending
    /// entries are skipped — their designated computers journal them on
    /// completion, so an enabled journal still captures them.
    pub fn export_reports(&self) -> Vec<(ReportKey, CsCqReport)> {
        let map = lock(&self.reports.map);
        let mut out: Vec<(ReportKey, CsCqReport)> = map
            .iter()
            .filter_map(|(k, e)| match &*lock(&e.slot.state) {
                SlotState::Ready(v) => Some((*k, v.clone())),
                _ => None,
            })
            .collect();
        drop(map);
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Number of report-layer entries (ready or pending): the figure a
    /// long-running service reports as its warm-cache size.
    pub fn report_len(&self) -> usize {
        self.reports.len()
    }
}

/// Object-safe counter access so [`SolveCache::stats`] can fold
/// differently-typed memo layers.
trait MemoStats {
    fn counts(&self) -> (u64, u64, u64, u64);
}

impl<K: Eq + Hash + Clone, V: Clone> MemoStats for Memo<K, V> {
    fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.poison_recoveries.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs_cq::{self, BusyPeriodFit};
    use crate::cs_cq_km::{self, Hosts};
    use crate::SystemParams;

    #[test]
    fn quantize_is_idempotent_and_close() {
        for x in [1.0, 0.3333333333333, 123456.789, 1e-9, 2.0 / 3.0] {
            let q = quantize(x);
            assert_eq!(quantize(q), q);
            assert!((q - x).abs() <= 1e-11 * x.abs(), "{x} -> {q}");
        }
        assert!(quantize(f64::INFINITY).is_infinite());
    }

    #[test]
    fn cached_analysis_matches_direct_on_snapped_params() {
        let cache = SolveCache::new();
        // Dyadic loads: every derived rate lies exactly on the grid.
        let p = SystemParams::exponential(0.875, 1.0, 0.5, 1.0).unwrap();
        let direct = cs_cq::analyze(&p).unwrap();
        let cached = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        // These params are exactly representable on the quantization grid,
        // so the cached path must agree to the bit.
        assert_eq!(
            direct.short_response.to_bits(),
            cached.short_response.to_bits()
        );
        assert_eq!(
            direct.long_response.to_bits(),
            cached.long_response.to_bits()
        );
    }

    #[test]
    fn second_lookup_hits_every_layer() {
        let cache = SolveCache::new();
        let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0).unwrap();
        let a = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        let before = cache.stats();
        // Report + 2 fits + the QBD solution.
        assert_eq!((before.hits, before.misses), (0, 4), "{before:?}");
        let b = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        // The report hit answers alone: nothing below it is consulted.
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (1, 4), "{after:?}");
        assert_eq!(a.short_response.to_bits(), b.short_response.to_bits());
        assert!(!cache.is_empty());
    }

    #[test]
    fn busy_fits_shared_across_a_rho_s_sweep() {
        // B_L and B_{N+1} depend only on (lambda_l, long moments, mu_s):
        // sweeping rho_s must hit the fit layer after the first point.
        let cache = SolveCache::new();
        for rho_s in [0.3, 0.6, 0.9, 1.2] {
            let p = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
            cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        }
        let stats = cache.stats();
        // 4 points: first misses everything; the other three hit both fits.
        assert!(stats.hits >= 6, "{stats:?}");
    }

    #[test]
    fn nearby_inputs_share_entries_and_results() {
        let cache = SolveCache::new();
        let p1 = SystemParams::exponential(0.9, 1.0, 0.5, 1.0).unwrap();
        // Perturb far below the quantization grid.
        let p2 = SystemParams::exponential(0.9 * (1.0 + 1e-14), 1.0, 0.5, 1.0).unwrap();
        let a = cs_cq::analyze_cached(&p1, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        let b = cs_cq::analyze_cached(&p2, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        assert_eq!(a.short_response.to_bits(), b.short_response.to_bits());
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn seeded_qbd_solution_is_served_to_the_analysis_path() {
        let cache = SolveCache::new();
        // Dyadic loads: snapping is the identity, so the planner's chain is
        // exactly the chain the analysis path builds.
        let p = SystemParams::exponential(1.25, 1.0, 0.5, 1.0).unwrap();
        let fit = BusyPeriodFit::ThreeMoment;
        let key = cs_cq_km::cache_key(Hosts::paper(), &p, fit);
        assert!(!cache.contains(&key));
        let qbd = cs_cq_km::plan_qbd_cached(Hosts::paper(), &p, fit, &cache).unwrap();
        cache.seed_solution(key, qbd.solve().unwrap());
        assert!(cache.contains(&key));
        // Planner: 2 fit misses (it memoizes no chain); seed: 1 solution
        // miss (the once-per-key protocol counts the seed as the key's
        // designated compute).
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (0, 3), "{before:?}");

        let via_cache = cs_cq::analyze_cached(&p, fit, &cache).unwrap();
        // The analysis recomputes nothing the planner covered: one report
        // miss, and hits on both fits and the seeded QBD solution.
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (3, 4), "{after:?}");
        let direct = cs_cq::analyze(&p).unwrap();
        assert_eq!(
            via_cache.short_response.to_bits(),
            direct.short_response.to_bits(),
            "a seeded solve must not move the answer"
        );
        assert_eq!(
            via_cache.long_response.to_bits(),
            direct.long_response.to_bits()
        );
        // Seeding an already-present key is a no-op hit, not a new miss
        // (replanning rebuilds the chain but hits both fits).
        let again = cs_cq_km::plan_qbd_cached(Hosts::paper(), &p, fit, &cache).unwrap();
        cache.seed_solution(key, again.solve().unwrap());
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn racing_threads_compute_a_key_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 0);
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = memo
                        .get_or_compute(7, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: waiters must block,
                            // not double-compute.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<u64, ()>(42)
                        })
                        .unwrap();
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one computer");
        let (h, m, _, _) = memo.counts();
        assert_eq!((h, m), (7, 1), "7 hits, 1 miss — deterministic");
    }

    #[test]
    fn errors_are_not_cached_and_every_caller_sees_one() {
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 0);
        for _ in 0..3 {
            let r = memo.get_or_compute(1, || Err::<u64, &str>("boom"));
            assert_eq!(r, Err("boom"));
        }
        assert_eq!(memo.len(), 0, "failed slots are removed");
        let (h, m, _, _) = memo.counts();
        assert_eq!((h, m), (0, 3), "each failing call recounts its miss");
        // The key still works once a compute succeeds.
        assert_eq!(memo.get_or_compute(1, || Ok::<u64, &str>(5)), Ok(5));
    }

    #[test]
    fn panicking_computer_poisons_the_slot_and_waiters_recover() {
        use std::sync::Barrier;
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 0);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_compute(9, || -> Result<u64, ()> {
                        barrier.wait(); // waiter is queued up behind us
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("injected");
                    })
                }));
            });
            s.spawn(|| {
                barrier.wait();
                let v = memo.get_or_compute(9, || Ok::<u64, ()>(11)).unwrap();
                assert_eq!(v, 11, "waiter recovers by recomputing");
            });
        });
        let (_, _, p, _) = memo.counts();
        // The waiter either queued behind the doomed slot (recovery
        // counted) or arrived after removal (clean recompute).
        assert!(p <= 1);
        assert_eq!(memo.get_or_compute(9, || Ok::<u64, ()>(99)), Ok(11));
    }

    #[test]
    fn lru_bound_evicts_least_recently_touched_ready_entry() {
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 2);
        memo.get_or_compute(1, || Ok::<u64, ()>(10)).unwrap();
        memo.get_or_compute(2, || Ok::<u64, ()>(20)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        memo.get_or_compute(1, || Ok::<u64, ()>(999)).unwrap();
        memo.get_or_compute(3, || Ok::<u64, ()>(30)).unwrap();
        assert_eq!(memo.len(), 2);
        assert!(memo.contains(&1), "recently touched entry survives");
        assert!(!memo.contains(&2), "LRU entry is evicted");
        assert!(memo.contains(&3));
        let (_, _, _, e) = memo.counts();
        assert_eq!(e, 1);
        // The evicted key recomputes to the same (pure) value.
        assert_eq!(memo.get_or_compute(2, || Ok::<u64, ()>(20)), Ok(20));
    }

    #[test]
    fn pending_entries_are_never_evicted() {
        use std::sync::Barrier;
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 1);
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                memo.get_or_compute(1, || {
                    entered.wait();
                    release.wait();
                    Ok::<u64, ()>(1)
                })
                .unwrap();
            });
            entered.wait(); // key 1 is now Pending
            // Over-capacity insert while the only other entry is pending:
            // the map stays temporarily over capacity instead of evicting
            // the in-flight slot.
            memo.get_or_compute(2, || Ok::<u64, ()>(2)).unwrap();
            assert!(memo.contains(&1), "pending slot must survive");
            release.wait();
        });
        let v = memo.get_or_compute(1, || Ok::<u64, ()>(77)).unwrap();
        assert_eq!(v, 1, "the pending computer's value was kept");
    }

    #[test]
    fn bounded_cache_serves_bit_identical_reports_after_eviction() {
        // Capacity 1 per family: every new point evicts the previous one,
        // yet re-analyzing an evicted point reproduces the exact bits —
        // eviction moves values, never changes them.
        let unbounded = SolveCache::new();
        let bounded = SolveCache::with_capacity(1);
        assert_eq!(bounded.capacity(), 1);
        let points = [0.3, 0.6, 0.9, 0.3, 0.6, 0.9];
        for rho_s in points {
            let p = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
            let a = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &unbounded).unwrap();
            let b = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &bounded).unwrap();
            assert_eq!(a.short_response.to_bits(), b.short_response.to_bits());
            assert_eq!(a.long_response.to_bits(), b.long_response.to_bits());
        }
        let stats = bounded.stats();
        assert!(stats.evictions > 0, "capacity 1 must evict: {stats:?}");
        assert_eq!(unbounded.stats().evictions, 0);
    }

    #[test]
    fn export_insert_round_trip_restores_report_hits() {
        let warm = SolveCache::new();
        let p = SystemParams::exponential(0.7, 1.0, 0.5, 1.0).unwrap();
        let original = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &warm).unwrap();
        let exported = warm.export_reports();
        assert_eq!(exported.len(), 1);

        let restored = SolveCache::new();
        for (k, r) in &exported {
            assert!(restored.peek_report(k).is_none());
            restored.insert_report(*k, r.clone());
            let peeked = restored.peek_report(k).unwrap();
            assert_eq!(peeked.short_response.to_bits(), r.short_response.to_bits());
        }
        // The restored cache serves the report without re-solving: one
        // seed miss, then a pure report-layer hit.
        let before = restored.stats();
        let served = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &restored).unwrap();
        let after = restored.stats();
        assert_eq!(after.hits, before.hits + 1, "{after:?}");
        assert_eq!(after.misses, before.misses);
        assert_eq!(
            served.short_response.to_bits(),
            original.short_response.to_bits()
        );
        // Re-inserting an existing key is a no-op (existing value wins).
        let (k, r) = &exported[0];
        restored.insert_report(*k, r.clone());
        assert_eq!(restored.report_len(), 1);
    }

    #[test]
    fn journal_captures_computed_reports_but_not_seeded_ones() {
        let cache = SolveCache::new();
        let p1 = SystemParams::exponential(0.4, 1.0, 0.5, 1.0).unwrap();
        let p2 = SystemParams::exponential(0.8, 1.0, 0.5, 1.0).unwrap();

        // Computed before enabling: not journaled.
        cs_cq::analyze_cached(&p1, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        cache.enable_report_journal();
        assert!(cache.take_new_reports().is_empty());

        // A cache hit journals nothing; a fresh compute journals once.
        cs_cq::analyze_cached(&p1, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        assert!(cache.take_new_reports().is_empty());
        let r2 = cs_cq::analyze_cached(&p2, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        let drained = cache.take_new_reports();
        assert_eq!(drained.len(), 1);
        assert_eq!(
            drained[0].1.short_response.to_bits(),
            r2.short_response.to_bits()
        );
        assert!(cache.take_new_reports().is_empty(), "drain is destructive");

        // Seeding through insert_report never journals.
        let exported = cache.export_reports();
        let fresh = SolveCache::new();
        fresh.enable_report_journal();
        for (k, r) in exported {
            fresh.insert_report(k, r);
        }
        assert!(fresh.take_new_reports().is_empty());
    }
}
