//! Per-run isolation of this thread's observability state.
//!
//! Metric values and the span capture are thread-local, so a run that
//! must report only its own numbers needs a thread-local state that starts
//! empty. [`isolated`] gives it one without a thread: it sets the caller's
//! state aside, runs the work, and puts the caller's state back — also on
//! unwind. [`scope`] is that plus a capture, the bracket every per-run
//! report is built from:
//!
//! ```
//! let c = dcatch_obs::counter!("doc_scope_work_total");
//! c.add(5); // the caller's own count
//! let ((), metrics, spans) = dcatch_obs::scope("run", || {
//!     let _g = dcatch_obs::span!("stage");
//!     c.inc();
//! });
//! assert_eq!(metrics.counter("doc_scope_work_total"), 1);
//! assert_eq!(spans.children[0].name, "stage");
//! assert_eq!(c.get(), 5, "the caller's count is back");
//! ```

use crate::metrics::{self, MetricsSnapshot, Values};
use crate::trace::{self, Capture, SpanNode};

/// Runs `f` with this thread's counter and gauge values and its span
/// capture (root, open-span stack, start) swapped for empty ones — exactly
/// what a freshly spawned thread starts with — and restores the caller's
/// afterwards, on return and on unwind alike. Verbosity is carried in.
/// Nothing `f` counts or captures survives it; whatever `f` should report
/// it returns, e.g. through [`scope`].
pub fn isolated<T>(f: impl FnOnce() -> T) -> T {
    struct Restore {
        values: Values,
        capture: Capture,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            metrics::replace_values(std::mem::take(&mut self.values));
            trace::replace_capture(std::mem::take(&mut self.capture));
        }
    }
    let _restore = Restore {
        values: metrics::replace_values(Values::default()),
        capture: trace::replace_capture(Capture::default()),
    };
    f()
}

/// Runs `f` [`isolated`] inside a capture labelled `label`, returning its
/// result with the metrics it counted and the span tree it opened.
pub fn scope<T>(label: &str, f: impl FnOnce() -> T) -> (T, MetricsSnapshot, SpanNode) {
    isolated(|| {
        trace::begin_capture(label);
        let value = f();
        let spans = trace::end_capture();
        (value, metrics::snapshot(), spans)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{counter, gauge, snapshot};
    use crate::trace::{begin_capture, end_capture, is_verbose, set_verbose, span};

    const COUNTER: &str = "test_scope_counter_total";
    const GAUGE: &str = "test_scope_gauge";

    /// What `isolated` must show its closure: nothing counted, no capture.
    fn assert_fresh() {
        let s = snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty(), "{s:?}");
        assert_eq!(counter(COUNTER).get(), 0);
        assert_eq!(gauge(GAUGE).get(), 0);
        assert_eq!(end_capture().name, "(none)", "no capture is open");
    }

    /// Work that dirties every piece of state `isolated` sets aside.
    fn scribble() {
        counter(COUNTER).add(100);
        gauge(GAUGE).set(1);
        begin_capture("inner");
        std::mem::forget(span("inner.span")); // leaves the stack open
    }

    /// Opens the caller's state: a capture with one span open, a count
    /// and a gauge reading.
    fn open_caller() -> crate::SpanGuard {
        counter(COUNTER).add(3);
        gauge(GAUGE).set(7);
        begin_capture("outer");
        span("outer.span")
    }

    /// The caller's state is exactly what `open_caller` left: the counts,
    /// and a span opened now nests under the still-open `outer.span`.
    fn assert_caller_intact(open: crate::SpanGuard) {
        assert_eq!(counter(COUNTER).get(), 3);
        assert_eq!(gauge(GAUGE).get(), 7);
        drop(span("after"));
        drop(open);
        let tree = end_capture();
        assert_eq!(tree.name, "outer");
        assert_eq!(tree.children.len(), 1, "{tree:?}");
        let outer = &tree.children[0];
        assert_eq!((outer.name.as_str(), outer.count), ("outer.span", 1));
        assert_eq!(outer.children.len(), 1, "{tree:?}");
        assert_eq!(outer.children[0].name, "after");
        assert!(tree.find("inner.span").is_none());
    }

    #[test]
    fn isolated_starts_fresh_and_restores_the_caller() {
        let open = open_caller();
        let v = isolated(|| {
            assert_fresh();
            scribble();
            42
        });
        assert_eq!(v, 42);
        assert_caller_intact(open);
    }

    #[test]
    fn isolated_restores_the_caller_after_a_panic() {
        let open = open_caller();
        let caught = std::panic::catch_unwind(|| {
            isolated(|| {
                assert_fresh();
                scribble();
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert_caller_intact(open);
    }

    #[test]
    fn isolated_nests() {
        let open = open_caller();
        isolated(|| {
            scribble();
            isolated(assert_fresh);
            assert_eq!(counter(COUNTER).get(), 100, "the middle state is back");
        });
        assert_caller_intact(open);
    }

    #[test]
    fn verbosity_is_carried_in() {
        set_verbose(true);
        let inside = isolated(is_verbose);
        set_verbose(false);
        assert!(inside);
        assert!(!isolated(is_verbose));
    }

    #[test]
    fn scope_reports_only_its_own_work() {
        let open = open_caller();
        let (v, metrics, spans) = scope("run", || {
            counter(COUNTER).add(2);
            let _g = span("stage");
            "done"
        });
        assert_eq!(v, "done");
        assert_eq!(metrics.counter(COUNTER), 2);
        assert_eq!(metrics.gauge(GAUGE), 0, "the caller's gauge stays out");
        assert_eq!(spans.name, "run");
        assert_eq!(spans.children.len(), 1);
        assert_eq!(spans.children[0].name, "stage");
        assert_caller_intact(open);
    }
}
