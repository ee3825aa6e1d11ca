//! Admission control: a bounded work queue with structured load-shedding.
//!
//! The daemon never queues unboundedly. When the queue is full the client
//! gets an immediate, structured rejection carrying a *retry-after hint*
//! derived from the current backlog and an EWMA of recent service times —
//! the client can back off intelligently instead of guessing. A closed
//! queue (draining) sheds with a distinct reason so clients know not to
//! retry this instance at all.
//!
//! # Accounting invariant
//!
//! A job admitted but not yet completed is *always* visible to probes: it
//! is either still queued (`depth`) or claimed by a worker
//! (`in_service`). The claim happens **inside** the dequeue's critical
//! section — there is no instant where a popped job has left the queue
//! but not yet been counted in service, so a health probe can never
//! watch the queue drain while the daemon "looks idle". [`Admission::snapshot`]
//! reads the counters in an order that preserves the
//! `depth + in_service >= admitted - completed` direction under
//! concurrent admits and completions.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity; retry after roughly this many ms.
    QueueFull {
        /// Backlog-derived backoff hint.
        retry_after_ms: u64,
    },
    /// The daemon is draining and accepts no new work.
    Draining,
}

struct Inner<T> {
    queue: VecDeque<T>,
    open: bool,
}

/// One consistent read of every admission count, taken by
/// [`Admission::snapshot`] in race-safe order (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Jobs ever admitted to the queue.
    pub admitted: u64,
    /// Jobs currently queued, not yet claimed by a worker.
    pub depth: u64,
    /// `false` once draining has begun.
    pub open: bool,
    /// Jobs claimed by workers and not yet completed. With batched drains
    /// a busy worker may hold several, so `depth + in_service` (not
    /// `+ busy_workers`) is the count of admitted-but-unfinished work.
    pub in_service: u64,
    /// Workers currently holding at least one claimed job.
    pub busy_workers: u64,
    /// Jobs completed by workers. Every dequeued job is answered before
    /// it completes, so this is also the daemon's served count.
    pub completed: u64,
    /// Sheds because the queue was at capacity.
    pub shed_queue_full: u64,
    /// Sheds because the queue was closed (draining).
    pub shed_draining: u64,
    /// Worker-pool size the retry hint divides by.
    pub workers: u64,
    /// EWMA of per-job service time in ns (`0` = no sample yet); the
    /// estimate that prices `retry_after_ms`.
    pub ewma_service_ns: u64,
}

impl AdmissionSnapshot {
    /// Every shed this queue decided (queue full or draining).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_draining
    }
}

/// A bounded MPMC job queue with admission accounting.
pub struct Admission<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    workers: u64,
    /// EWMA of per-job service time in ns (`0` = no sample yet).
    ewma_service_ns: AtomicU64,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_draining: AtomicU64,
    completed: AtomicU64,
    /// Jobs dequeued by a worker but not yet completed. Incremented inside
    /// the dequeue critical section, decremented by `record_service_ns`
    /// *after* `completed` — both orderings keep a concurrent snapshot
    /// from undercounting live work.
    in_service: AtomicU64,
    /// Workers currently holding claimed jobs (claimed with the dequeue,
    /// released by `release_worker`).
    busy_workers: AtomicU64,
}

impl<T> Admission<T> {
    /// A queue holding at most `capacity` jobs, drained by `workers`
    /// workers (the worker count scales the retry-after hint).
    pub fn new(capacity: usize, workers: usize) -> Self {
        Admission {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                open: true,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            workers: workers.max(1) as u64,
            ewma_service_ns: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_draining: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            in_service: AtomicU64::new(0),
            busy_workers: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits `job` or sheds it with a structured reason.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Draining`] once [`Admission::close`] was called;
    /// [`AdmitError::QueueFull`] at capacity, with a retry hint.
    pub fn admit(&self, job: T) -> Result<(), AdmitError> {
        let mut inner = self.lock();
        if !inner.open {
            self.shed_draining.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::Draining);
        }
        if inner.queue.len() >= self.capacity {
            let depth = inner.queue.len() as u64;
            drop(inner);
            self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::QueueFull {
                retry_after_ms: self.retry_after_ms(depth),
            });
        }
        inner.queue.push_back(job);
        drop(inner);
        // After the push: a snapshot reading `admitted` first and `depth`
        // second can only over-estimate live work, never under-estimate.
        self.admitted.fetch_add(1, Ordering::SeqCst);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// empty (workers drain the backlog before exiting).
    ///
    /// Claims the calling worker busy and the job in-service atomically
    /// with the pop (see [`Admission::next_batch`]); the caller owns a
    /// matching [`Admission::release_worker`] and, per job,
    /// [`Admission::record_service_ns`].
    pub fn next(&self) -> Option<T> {
        self.next_batch(1).pop()
    }

    /// Blocks for work, then drains up to `max` queued jobs in one lock
    /// acquisition — the daemon's micro-batching seam. Returns the jobs
    /// in admission order; empty once the queue is closed *and* empty
    /// (workers drain the backlog before exiting).
    ///
    /// The worker-busy claim and the per-job in-service claims happen
    /// **inside** the same critical section that pops the jobs, so a
    /// concurrent [`Admission::snapshot`] never sees queue depth drop
    /// without the corresponding in-service work appearing — the fix for
    /// the probe race where a saturated daemon scraped as idle. The
    /// caller must call [`Admission::release_worker`] after finishing the
    /// batch and [`Admission::record_service_ns`] once per job.
    pub fn next_batch(&self, max: usize) -> Vec<T> {
        let max = max.max(1);
        let mut inner = self.lock();
        loop {
            if !inner.queue.is_empty() {
                let n = inner.queue.len().min(max);
                let jobs: Vec<T> = inner.queue.drain(..n).collect();
                // Claimed while still holding the queue lock: any probe
                // that no longer sees these jobs in `depth` already sees
                // them in `in_service`.
                self.in_service.fetch_add(n as u64, Ordering::SeqCst);
                self.busy_workers.fetch_add(1, Ordering::SeqCst);
                return jobs;
            }
            if !inner.open {
                return Vec::new();
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Releases the busy-worker claim taken by [`Admission::next`] /
    /// [`Admission::next_batch`]. Called once per dequeue, after every
    /// job of the batch is finished.
    pub fn release_worker(&self) {
        self.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Stops admission and wakes every blocked worker. Already-queued jobs
    /// are still handed out. Returns `true` only for the call that closed
    /// the queue, so a drain requested several ways is counted once.
    pub fn close(&self) -> bool {
        let was_open = std::mem::replace(&mut self.lock().open, false);
        self.ready.notify_all();
        was_open
    }

    /// Marks one claimed job complete and feeds its service time into the
    /// EWMA (`new = (7·old + sample) / 8`, seeded by the **whole** first
    /// sample so the very first retry hint already prices one full
    /// service time instead of an 8×-too-cheap warm-up estimate).
    ///
    /// `completed` is incremented *before* the in-service claim is
    /// dropped: a snapshot between the two sees the job on both sides
    /// (overcounting live work), never on neither.
    pub fn record_service_ns(&self, ns: u64) {
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.in_service.fetch_sub(1, Ordering::SeqCst);
        let _ = self
            .ewma_service_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(if old == 0 {
                    ns.max(1)
                } else {
                    (old / 8).saturating_mul(7).saturating_add(ns / 8).max(1)
                })
            });
    }

    /// The backoff hint for a client seeing a full queue of `depth` jobs:
    /// the backlog's expected drain time across the worker pool, floored
    /// at 1 ms so clients never busy-spin.
    fn retry_after_ms(&self, depth: u64) -> u64 {
        let ewma = self.ewma_service_ns.load(Ordering::Relaxed);
        if ewma == 0 {
            return 1;
        }
        let drain_ns = depth.saturating_mul(ewma) / self.workers;
        (drain_ns / 1_000_000).max(1)
    }

    /// One probe-consistent snapshot of every count. The read order is
    /// load-bearing: `admitted` first, then queue depth (under the lock),
    /// then `in_service`, then `completed` last. Together with the write
    /// orderings (push before `admitted`, claims inside the dequeue lock,
    /// `completed` before the in-service release) this guarantees
    /// `depth + in_service >= admitted - completed` for every snapshot,
    /// no matter how admits, dequeues, and completions interleave — a
    /// probe can overcount a job mid-handoff, but admitted-unfinished
    /// work is never invisible. The sheds and the EWMA carry no such
    /// invariant and are read after.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let admitted = self.admitted.load(Ordering::SeqCst);
        let (depth, open) = {
            let inner = self.lock();
            (inner.queue.len() as u64, inner.open)
        };
        let in_service = self.in_service.load(Ordering::SeqCst);
        let busy_workers = self.busy_workers.load(Ordering::SeqCst);
        let completed = self.completed.load(Ordering::SeqCst);
        AdmissionSnapshot {
            admitted,
            depth,
            open,
            in_service,
            busy_workers,
            completed,
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_draining: self.shed_draining.load(Ordering::Relaxed),
            workers: self.workers,
            ewma_service_ns: self.ewma_service_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admits_until_capacity_then_sheds_with_a_hint() {
        let q = Admission::new(2, 1);
        q.record_service_ns(4_000_000); // 4 ms EWMA seed
        assert!(q.admit(1).is_ok());
        assert!(q.admit(2).is_ok());
        match q.admit(3) {
            Err(AdmitError::QueueFull { retry_after_ms }) => {
                // 2 queued × 4 ms / 1 worker = 8 ms.
                assert_eq!(retry_after_ms, 8);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let s = q.snapshot();
        assert_eq!((s.admitted, s.shed()), (2, 1));
    }

    #[test]
    fn hint_floors_at_one_ms_without_samples() {
        let q = Admission::new(1, 4);
        q.admit(()).unwrap();
        match q.admit(()) {
            Err(AdmitError::QueueFull { retry_after_ms }) => assert_eq!(retry_after_ms, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn first_sample_seeds_the_whole_service_time_into_the_first_hint() {
        // Regression for the warm-up bug class where the first sample is
        // folded in at 1/8 EWMA weight: the very first shed hint must
        // already price one whole observed service time, not ns/8.
        let q = Admission::new(1, 1);
        q.record_service_ns(8_000_000); // one 8 ms observation, nothing else
        assert_eq!(
            q.snapshot().ewma_service_ns,
            8_000_000,
            "EWMA must seed at full weight"
        );
        q.admit(()).unwrap();
        match q.admit(()) {
            Err(AdmitError::QueueFull { retry_after_ms }) => {
                // depth 1 × 8 ms / 1 worker: the hint prices the full
                // first service time.
                assert_eq!(retry_after_ms, 8);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn sub_millisecond_backlog_never_hints_zero() {
        // depth 1 × 0.2 ms / 1 worker rounds to 0 ms in integer math; a
        // zero hint would tell shed clients to hammer a saturated daemon
        // immediately. The hint must clamp to >= 1 ms.
        let q = Admission::new(1, 1);
        q.record_service_ns(200_000); // 0.2 ms: a fast, warmed-up service
        q.admit(()).unwrap();
        match q.admit(()) {
            Err(AdmitError::QueueFull { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "hint must never be 0, got {retry_after_ms}");
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn next_batch_drains_up_to_max_in_admission_order() {
        let q = Admission::new(8, 1);
        for i in 0..5 {
            q.admit(i).unwrap();
        }
        let batch = q.next_batch(3);
        assert_eq!(batch, vec![0, 1, 2]);
        let rest = q.next_batch(16);
        assert_eq!(rest, vec![3, 4], "a short queue drains whole");
        q.close();
        assert!(q.next_batch(4).is_empty(), "closed and empty ends the worker");
    }

    #[test]
    fn claimed_work_is_never_invisible_to_snapshots() {
        let q = Admission::new(16, 2);
        for i in 0..6 {
            q.admit(i).unwrap();
        }
        let check = |q: &Admission<i32>, note: &str| {
            let s = q.snapshot();
            assert!(
                s.depth + s.in_service >= s.admitted - s.completed,
                "{note}: {s:?} undercounts admitted-but-unfinished work"
            );
            s
        };
        let s = check(&q, "all queued");
        assert_eq!((s.depth, s.in_service, s.busy_workers), (6, 0, 0));

        // The pop and the claims are one critical section: right after
        // next_batch returns, the jobs have moved columns, not vanished.
        let batch = q.next_batch(4);
        assert_eq!(batch.len(), 4);
        let s = check(&q, "batch claimed");
        assert_eq!((s.depth, s.in_service, s.busy_workers), (2, 4, 1));

        q.record_service_ns(1_000_000);
        let s = check(&q, "one completed");
        assert_eq!((s.depth, s.in_service, s.completed), (2, 3, 1));

        for _ in 1..4 {
            q.record_service_ns(1_000_000);
        }
        q.release_worker();
        let s = check(&q, "batch finished");
        assert_eq!((s.in_service, s.busy_workers, s.completed), (0, 0, 4));
    }

    #[test]
    fn close_drains_the_backlog_then_releases_workers() {
        let q = Arc::new(Admission::new(8, 2));
        q.admit(10).unwrap();
        q.admit(11).unwrap();
        assert!(q.close(), "the first close closes the queue");
        assert!(!q.close(), "a repeated close reports it was already closed");
        assert!(matches!(q.admit(12), Err(AdmitError::Draining)));
        let s = q.snapshot();
        assert!(!s.open);
        assert_eq!(
            (s.shed_draining, s.shed()),
            (1, 1),
            "a draining shed is counted"
        );
        // Queued jobs still come out, then None.
        assert_eq!(q.next(), Some(10));
        assert_eq!(q.next(), Some(11));
        assert_eq!(q.next(), None);
    }

    #[test]
    fn blocked_workers_wake_on_admit_and_on_close() {
        let q = Arc::new(Admission::<u32>::new(4, 2));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let first = q2.next();
            let second = q2.next();
            (first, second)
        });
        // Give the consumer a moment to block, then feed and close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.admit(99).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        let (first, second) = consumer.join().unwrap();
        assert_eq!(first, Some(99));
        assert_eq!(second, None);
    }

    #[test]
    fn ewma_tracks_recent_service_times() {
        let q = Admission::<()>::new(1, 1);
        q.record_service_ns(8_000_000);
        for _ in 0..50 {
            q.record_service_ns(1_000_000);
        }
        let ewma = q.snapshot().ewma_service_ns;
        assert!(
            (900_000..2_000_000).contains(&ewma),
            "EWMA should converge toward the recent 1 ms samples, got {ewma}"
        );
    }
}
