//! In-tree tracing + metrics for the cyclesteal workspace: hierarchical
//! spans, counters, gauges, and fixed-bucket histograms — std-only, no
//! external dependencies, and safe to leave compiled into release
//! binaries.
//!
//! # The determinism contract
//!
//! Metrics split into two classes:
//!
//! * **Counts** — counters, histogram contents, span close-counts. These
//!   are pure functions of *what work ran*, never of how it was
//!   scheduled: per-thread buffers merge additively, so the merged
//!   totals are bit-identical across thread counts and input order
//!   whenever the work itself is (which the sweep engine guarantees).
//!   [`ObsSnapshot::counts_json`] serializes exactly this subset.
//! * **Timings** — span `total_ns` and gauges (high-water marks). These
//!   depend on the clock and the scheduler and are explicitly excluded
//!   from determinism checks.
//!
//! # Zero cost when off
//!
//! All recording goes through the [`span!`], [`counter!`], [`gauge_max!`]
//! and [`histogram!`] macros, which expand to `#[inline(always)]`
//! functions whose bodies are empty unless the `enabled` cargo feature is
//! on. Leaf crates forward an `obs` feature here; with it off the
//! workspace builds with zero observability code (the `obs_overhead`
//! bench asserts the runtime cost is also ~zero when compiled in but
//! disabled).
//!
//! # Usage
//!
//! ```
//! use cyclesteal_obs as obs;
//!
//! let session = obs::Session::start(); // tests: exclusive + enabled
//! {
//!     obs::span!("work");
//!     obs::counter!("work.items", 3);
//!     obs::histogram!("work.iters", 17);
//! }
//! let snap = session.snapshot();
//! assert_eq!(snap.counter("work.items"), 3);
//! assert_eq!(snap.span_count("work"), 1);
//! drop(session);
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod prom;
mod registry;
mod snapshot;

pub use hist::{Hist, HIST_BUCKETS};
pub use registry::{
    compiled, disable, enable, exclusive, flush_thread, is_active, record_counter,
    record_counter_owned, record_gauge_max, record_histogram, record_histogram_f64, reset,
    snapshot, snapshot_if_active, span_enter, span_enter_root, trace_begin, Session, SpanGuard,
    TraceGuard,
};
pub use snapshot::{ObsSnapshot, SpanEntry};

/// Adds to a counter: `counter!("name")` adds 1, `counter!("name", n)`
/// adds `n`. The name must be a `&'static str`; for runtime-built names
/// use [`record_counter_owned`] behind an [`is_active`] check.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::record_counter($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::record_counter($name, $n)
    };
}

/// Raises a gauge to at least `v` (max-merged; timing-class).
#[macro_export]
macro_rules! gauge_max {
    ($name:expr, $v:expr) => {
        $crate::record_gauge_max($name, $v)
    };
}

/// Records a `u64` value into a fixed-bucket histogram.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {
        $crate::record_histogram($name, $v)
    };
}

/// Opens a span for the rest of the enclosing scope, nested under any
/// span already open on this thread.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obs_span = $crate::span_enter($name);
    };
}

/// Opens a span that starts a fresh trace root (ignores ambient spans on
/// this thread). Use at per-task boundaries so span paths aggregate
/// identically whether the task ran inline or on a worker thread.
#[macro_export]
macro_rules! span_root {
    ($name:expr) => {
        let _obs_span = $crate::span_enter_root($name);
    };
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use crate as obs;

    #[test]
    fn inactive_registry_records_nothing() {
        let _x = obs::exclusive();
        obs::reset();
        assert!(!obs::is_active());
        obs::counter!("dead", 5);
        obs::histogram!("dead.h", 1);
        {
            obs::span!("dead.span");
        }
        assert!(obs::snapshot().is_empty());
        assert!(obs::snapshot_if_active().is_none());
    }

    #[test]
    fn session_records_counters_gauges_hists_spans() {
        let s = obs::Session::start();
        obs::counter!("c.one");
        obs::counter!("c.many", 41);
        obs::counter!("c.one");
        obs::record_counter_owned("c.dyn:site".to_string(), 2);
        obs::gauge_max!("g.hwm", 3);
        obs::gauge_max!("g.hwm", 9);
        obs::gauge_max!("g.hwm", 5);
        obs::histogram!("h.iters", 12);
        obs::record_histogram_f64("h.float", f64::NAN);
        let snap = s.snapshot();
        assert_eq!(snap.counter("c.one"), 2);
        assert_eq!(snap.counter("c.many"), 41);
        assert_eq!(snap.counter("c.dyn:site"), 2);
        assert_eq!(snap.gauges, vec![("g.hwm".to_string(), 9)]);
        assert_eq!(snap.histogram("h.iters").unwrap().count, 1);
        assert_eq!(snap.histogram("h.float").unwrap().nan_rejected, 1);
        drop(s);
        assert!(obs::snapshot().is_empty(), "session drop resets");
    }

    #[test]
    fn span_paths_nest_and_root_spans_cut_the_ambient_stack() {
        let s = obs::Session::start();
        {
            obs::span!("outer");
            {
                obs::span!("inner");
            }
            {
                obs::span!("inner");
            }
            {
                // A task boundary: path restarts even under "outer".
                obs::span_root!("task");
                obs::span!("step");
            }
        }
        let snap = s.snapshot();
        assert_eq!(snap.span_count("outer"), 1);
        assert_eq!(snap.span_count("outer;inner"), 2);
        assert_eq!(snap.span_count("task"), 1, "{:?}", snap.spans);
        assert_eq!(snap.span_count("task;step"), 1);
        assert_eq!(snap.span_count("outer;task"), 0);
        let outer = snap.spans.iter().find(|e| e.path == "outer").unwrap();
        assert!(outer.total_ns > 0, "monotonic timing recorded");
    }

    #[test]
    fn worker_thread_buffers_merge_on_join() {
        let s = obs::Session::start();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    {
                        obs::span_root!("task");
                        obs::counter!("t.items", 10);
                    }
                    // Scope completion is signaled before TLS destructors
                    // run, so workers flush explicitly (see registry docs).
                    obs::flush_thread();
                });
            }
        });
        obs::counter!("t.items", 2);
        let snap = s.snapshot();
        assert_eq!(snap.counter("t.items"), 42);
        assert_eq!(snap.span_count("task"), 4);
    }

    #[test]
    fn merged_counts_are_identical_across_thread_splits() {
        // The same 24 work items, run serially and split across threads:
        // the deterministic subset must be bit-identical.
        let work = |i: u64| {
            obs::span_root!("item");
            obs::counter!("w.items");
            obs::histogram!("w.val", i % 5);
        };
        let s = obs::Session::start();
        for i in 0..24 {
            work(i);
        }
        let serial = s.snapshot().counts_only();
        drop(s);

        let s = obs::Session::start();
        std::thread::scope(|scope| {
            for chunk in 0..3 {
                scope.spawn(move || {
                    for i in (chunk * 8)..((chunk + 1) * 8) {
                        work(i);
                    }
                    obs::flush_thread();
                });
            }
        });
        let threaded = s.snapshot().counts_only();
        drop(s);

        assert_eq!(serial, threaded);
        assert_eq!(serial.counts_json(), threaded.counts_json());
    }

    #[test]
    fn delta_between_snapshots_isolates_new_work() {
        let s = obs::Session::start();
        obs::counter!("d.c", 5);
        let before = s.snapshot();
        obs::counter!("d.c", 7);
        obs::counter!("d.new", 1);
        let delta = s.snapshot().delta_since(&before);
        assert_eq!(delta.counter("d.c"), 7);
        assert_eq!(delta.counter("d.new"), 1);
    }

    #[test]
    fn trace_capture_isolates_one_request_on_one_thread() {
        let s = obs::Session::start();
        obs::counter!("ambient", 100); // pre-trace noise on this thread
        std::thread::scope(|scope| {
            scope.spawn(|| {
                obs::counter!("other.thread", 50);
                obs::flush_thread();
            });
        });
        let trace = {
            let t = obs::trace_begin();
            obs::span_root!("query");
            obs::counter!("q.work", 3);
            obs::histogram!("q.iters", 7);
            t.finish()
        };
        assert_eq!(trace.counter("q.work"), 3, "{:?}", trace);
        assert_eq!(trace.span_count("query"), 0, "span still open at finish");
        assert_eq!(trace.histogram("q.iters").unwrap().count, 1);
        assert_eq!(trace.counter("ambient"), 0, "pre-trace work excluded");
        assert_eq!(trace.counter("other.thread"), 0, "other threads excluded");
        assert!(trace.gauges.is_empty(), "traces carry no gauges");
        // The registry itself is untouched by the capture.
        let snap = s.snapshot();
        assert_eq!(snap.counter("q.work"), 3);
        assert_eq!(snap.counter("ambient"), 100);
    }

    #[test]
    fn trace_capture_sees_spans_closed_inside_the_window() {
        let s = obs::Session::start();
        let t = obs::trace_begin();
        {
            obs::span_root!("query");
            obs::counter!("q.work");
        }
        let trace = t.finish();
        assert_eq!(trace.span_count("query"), 1);
        drop(s);
    }

    #[test]
    fn trace_capture_while_inactive_is_empty() {
        let _x = obs::exclusive();
        obs::reset();
        assert!(!obs::is_active());
        let t = obs::trace_begin();
        obs::counter!("dead");
        assert!(t.finish().is_empty());
    }

    #[test]
    fn compiled_and_runtime_flags() {
        assert!(obs::compiled());
        let _x = obs::exclusive();
        obs::reset();
        obs::enable();
        assert!(obs::is_active());
        obs::disable();
        assert!(!obs::is_active());
        obs::reset();
    }
}
