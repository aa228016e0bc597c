//! Metrics registry: named counters and gauges.
//!
//! Metric *names* are interned once in a global table; metric *values*
//! live in thread-local storage. The hot path of an increment is therefore
//! a thread-local vector index plus an integer add — no locks, no atomic
//! contention — which keeps the always-on instrumentation invisible in
//! `dcbench`'s timings, and lets parallel test threads observe independent
//! values.
//!
//! Call sites cache their handle in a local `static`, so interning happens
//! once per call site per process:
//!
//! ```
//! let c = dcatch_obs::counter!("sim_events_dispatched_total");
//! c.inc();
//! assert!(dcatch_obs::metrics::snapshot().counter("sim_events_dispatched_total") >= 1);
//! ```
//!
//! Naming convention (see DESIGN.md): `layer_noun_total` for counters,
//! `layer_noun` for gauges.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Kind discriminator used by the global name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
}

struct NameTable {
    /// name → (kind, slot id within that kind's value space).
    ids: BTreeMap<&'static str, (Kind, u32)>,
    counters: Vec<&'static str>,
    gauges: Vec<&'static str>,
}

fn table() -> &'static Mutex<NameTable> {
    static TABLE: OnceLock<Mutex<NameTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(NameTable {
            ids: BTreeMap::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
        })
    })
}

thread_local! {
    static COUNTERS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static GAUGES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Slot `id` of a thread's value vector, grown on first touch.
fn slot(v: &mut Vec<u64>, id: u32) -> &mut u64 {
    let i = id as usize;
    if i >= v.len() {
        v.resize(i + 1, 0);
    }
    &mut v[i]
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    id: u32,
}

impl Counter {
    /// Adds one.
    pub fn inc(self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(self, n: u64) {
        COUNTERS.with_borrow_mut(|v| *slot(v, self.id) += n);
    }

    /// Current value on this thread.
    pub fn get(self) -> u64 {
        COUNTERS.with_borrow(|v| v.get(self.id as usize).copied().unwrap_or(0))
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    id: u32,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(self, value: u64) {
        GAUGES.with_borrow_mut(|v| *slot(v, self.id) = value);
    }

    /// Sets the gauge to `value` if it exceeds the current reading.
    pub fn set_max(self, value: u64) {
        GAUGES.with_borrow_mut(|v| {
            let cell = slot(v, self.id);
            *cell = (*cell).max(value);
        });
    }

    /// Current value on this thread.
    pub fn get(self) -> u64 {
        GAUGES.with_borrow(|v| v.get(self.id as usize).copied().unwrap_or(0))
    }
}

/// Interns (or retrieves) the counter named `name`.
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &'static str) -> Counter {
    let mut t = table().lock().expect("metrics name table");
    if let Some(&(kind, id)) = t.ids.get(name) {
        assert!(kind == Kind::Counter, "`{name}` is not a counter");
        return Counter { id };
    }
    let id = t.counters.len() as u32;
    t.counters.push(name);
    t.ids.insert(name, (Kind::Counter, id));
    Counter { id }
}

/// Interns (or retrieves) the gauge named `name`.
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> Gauge {
    let mut t = table().lock().expect("metrics name table");
    if let Some(&(kind, id)) = t.ids.get(name) {
        assert!(kind == Kind::Gauge, "`{name}` is not a gauge");
        return Gauge { id };
    }
    let id = t.gauges.len() as u32;
    t.gauges.push(name);
    t.ids.insert(name, (Kind::Gauge, id));
    Gauge { id }
}

/// Caches a [`Counter`](metrics::Counter) handle per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Caches a [`Gauge`](metrics::Gauge) handle per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Point-in-time reading of this thread's metrics. Only names with a
/// non-zero reading are listed — absent ≡ 0, which is what
/// [`counter`](MetricsSnapshot::counter) and
/// [`gauge`](MetricsSnapshot::gauge) return — so a snapshot (and a
/// [`delta_since`](MetricsSnapshot::delta_since)) depends on the work this
/// thread did, never on which names other threads happen to have interned.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The change in counters since `earlier`, with gauges carried over at
    /// their current reading. Counters that did not move are left out,
    /// like any other zero.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .filter(|&(_, v)| v != 0)
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
        }
    }
}

/// Folds a snapshot (typically a [`MetricsSnapshot::delta_since`] delta
/// captured on a worker thread) into *this* thread's metric values:
/// counters add, gauges merge via max (they are
/// high-water readings — `hb_reach_bytes_peak` — so the maximum across
/// workers is the honest aggregate). Names the delta mentions that were
/// never registered in this process are skipped, so absorbing a delta is
/// exactly equivalent to having done the work on this thread.
pub fn absorb(delta: &MetricsSnapshot) {
    let t = table().lock().expect("metrics name table");
    COUNTERS.with_borrow_mut(|v| {
        for (name, &val) in &delta.counters {
            if let Some(&(Kind::Counter, id)) = t.ids.get(name.as_str()) {
                *slot(v, id) += val;
            }
        }
    });
    GAUGES.with_borrow_mut(|v| {
        for (name, &val) in &delta.gauges {
            if let Some(&(Kind::Gauge, id)) = t.ids.get(name.as_str()) {
                let cell = slot(v, id);
                *cell = (*cell).max(val);
            }
        }
    });
}

/// Reads every metric with a non-zero value on this thread. A thread's
/// value vectors never outgrow the name table (ids come from it), so
/// zipping the two visits exactly the slots this thread has touched.
pub fn snapshot() -> MetricsSnapshot {
    let t = table().lock().expect("metrics name table");
    let nonzero = |names: &[&'static str], values: &[u64]| {
        names
            .iter()
            .zip(values)
            .filter(|&(_, &v)| v != 0)
            .map(|(name, &v)| ((*name).to_owned(), v))
            .collect()
    };
    MetricsSnapshot {
        counters: COUNTERS.with_borrow(|v| nonzero(&t.counters, v)),
        gauges: GAUGES.with_borrow(|v| nonzero(&t.gauges, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test_obs_counter_total");
        let before = snapshot().counter("test_obs_counter_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        assert_eq!(snapshot().counter("test_obs_counter_total"), before + 5);
    }

    #[test]
    fn gauges_last_value_wins() {
        let g = gauge("test_obs_gauge");
        g.set(10);
        g.set(3);
        assert_eq!(g.get(), 3);
        g.set_max(2);
        assert_eq!(g.get(), 3);
        g.set_max(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn delta_subtracts_counters_only() {
        let c = counter("test_obs_delta_total");
        let g = gauge("test_obs_delta_gauge");
        c.add(3);
        g.set(11);
        let a = snapshot();
        c.add(2);
        g.set(13);
        let b = snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.counter("test_obs_delta_total"), 2);
        assert_eq!(d.gauge("test_obs_delta_gauge"), 13);
    }

    /// The root cause the report-level name normalizers used to paper
    /// over: a run's delta must not depend on what other threads interned.
    #[test]
    fn delta_is_independent_of_names_interned_elsewhere() {
        fn run() -> MetricsSnapshot {
            let before = snapshot();
            counter("test_obs_run_total").add(2);
            counter("test_obs_run_untouched_total").add(0);
            gauge("test_obs_run_gauge").set(9);
            snapshot().delta_since(&before)
        }
        let first = std::thread::spawn(run).join().expect("first run");
        std::thread::spawn(|| {
            counter("test_obs_elsewhere_total").add(7);
            gauge("test_obs_elsewhere_gauge").set(7);
        })
        .join()
        .expect("unrelated thread");
        let second = std::thread::spawn(run).join().expect("second run");
        assert_eq!(first, second);
        assert_eq!(
            first.counters.keys().collect::<Vec<_>>(),
            ["test_obs_run_total"],
            "zero readings are not listed"
        );
        assert_eq!(
            first.gauges.keys().collect::<Vec<_>>(),
            ["test_obs_run_gauge"]
        );
    }

    #[test]
    fn absorb_folds_a_worker_delta_into_this_thread() {
        let c = counter("test_obs_absorb_total");
        let g = gauge("test_obs_absorb_gauge");
        c.add(1);
        g.set(5);
        let delta = std::thread::spawn(|| {
            let before = snapshot();
            counter("test_obs_absorb_total").add(3);
            gauge("test_obs_absorb_gauge").set(2); // below the local 5
            snapshot().delta_since(&before)
        })
        .join()
        .expect("worker thread");
        absorb(&delta);
        let s = snapshot();
        assert_eq!(s.counter("test_obs_absorb_total"), 4, "counters add");
        assert_eq!(s.gauge("test_obs_absorb_gauge"), 5, "gauges keep the max");
    }

    #[test]
    fn macro_handles_are_stable() {
        let a = crate::counter!("test_obs_macro_total");
        let b = crate::counter!("test_obs_macro_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), b.get());
    }
}
