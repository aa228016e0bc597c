//! Observability substrate for DCatch-RS.
//!
//! The paper's whole evaluation is built from numbers — per-stage
//! overheads (Table 6), trace-record breakdowns (Table 7), memory-budget
//! outcomes (Table 8), rule ablations (Table 9) — so the reproduction
//! needs a way to observe every layer of the pipeline without perturbing
//! it. This crate provides that substrate with **zero external
//! dependencies** (the build environment is offline):
//!
//! * [`span`](crate::span!) / [`trace`](mod@trace) — lightweight RAII span
//!   guards producing a hierarchical timing tree per pipeline run. Naming
//!   convention: `layer.verb` (`hb.build`, `sim.run`, `trigger.order`).
//! * [`metrics`] — a registry of named counters and gauges. Values live
//!   in thread-local storage, so the always-on instrumentation costs one
//!   thread-local integer add per increment (no locks, no atomics
//!   contention) and concurrent tests never contaminate each other's
//!   readings. Naming convention: `layer_noun_total` for counters
//!   (`sim_events_dispatched_total`), `layer_noun` for gauges.
//! * [`json`] — a minimal hand-rolled JSON value type, serializer, and
//!   parser used by the versioned machine-readable run reports
//!   (`dcatch detect … --json`).
//! * [`rng`] — a small deterministic PRNG (SplitMix64) replacing the
//!   external `rand` dependency for the simulator's scheduler and the
//!   in-repo property-test harnesses.
//! * [`timeline`] — a Chrome/Perfetto trace-event JSON exporter (duration,
//!   instant, counter, and flow events) behind `dcatch timeline` and
//!   `dcatch detect --profile`, with deterministic (logical-time, stable
//!   tie-break) serialization.
//! * [`progress`] — a rate-limited, TTY-gated stderr progress line for
//!   multi-item runs (`detect all --jobs N`, `faults all`), with per-item
//!   queued/running/done/degraded states and a median-based ETA.
//!
//! Cross-run hygiene: the pipeline brackets each benchmark run with
//! [`trace::begin_capture`]/[`trace::end_capture`] and diffs
//! [`metrics::snapshot`]s, so one process can run many benchmarks and
//! still report per-run numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod progress;
pub mod rng;
pub mod timeline;
pub mod trace;

pub use json::Json;
pub use metrics::{Counter, Gauge, MetricsSnapshot};
pub use progress::Progress;
pub use rng::SmallRng;
pub use timeline::Timeline;
pub use trace::{SpanGuard, SpanNode};
