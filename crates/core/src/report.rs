//! Pipeline output types: per-benchmark reports matching the paper's
//! evaluation tables.

use std::time::Duration;

use dcatch_detect::Candidate;
use dcatch_hb::HbError;
use dcatch_obs::{MetricsSnapshot, SpanNode};
use dcatch_prune::Impact;
use dcatch_trace::TraceStats;
use dcatch_trigger::Verdict;

/// Wall-clock cost of each pipeline stage (paper Table 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// The workload without any tracing ("Base").
    pub base: Duration,
    /// The traced run ("Tracing").
    pub tracing: Duration,
    /// The fused tracing + detection pass of `--streaming` runs (zero for
    /// offline runs, where `tracing` and `trace_analysis` cover it).
    pub streaming: Duration,
    /// HB-graph construction + candidate detection ("Trace Analysis").
    pub trace_analysis: Duration,
    /// Static pruning ("Static Pruning").
    pub static_pruning: Duration,
    /// Loop/pull synchronization analysis (the paper reports it as
    /// negligible; measured here anyway).
    pub loop_sync: Duration,
    /// Triggering all surviving candidates (not part of Table 6).
    pub triggering: Duration,
}

impl StageTimings {
    /// Extracts the Table-6 stage durations from a captured span tree (the
    /// `pipeline.*` spans opened by [`crate::Pipeline::run`]). Stages that
    /// did not run stay at zero.
    pub fn from_spans(spans: &SpanNode) -> StageTimings {
        StageTimings {
            base: spans.duration_of("pipeline.base"),
            tracing: spans.duration_of("pipeline.tracing"),
            streaming: spans.duration_of("pipeline.streaming"),
            trace_analysis: spans.duration_of("pipeline.trace_analysis"),
            static_pruning: spans.duration_of("pipeline.static_pruning"),
            loop_sync: spans.duration_of("pipeline.loop_sync"),
            triggering: spans.duration_of("pipeline.triggering"),
        }
    }
}

/// Verdict tallies in the paper's two counting granularities
/// (Table 4's Bug / Benign / Serial columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Harmful — static pairs.
    pub bug_static: usize,
    /// Benign — static pairs.
    pub benign_static: usize,
    /// Serial — static pairs.
    pub serial_static: usize,
    /// Harmful — callstack pairs.
    pub bug_stacks: usize,
    /// Benign — callstack pairs.
    pub benign_stacks: usize,
    /// Serial — callstack pairs.
    pub serial_stacks: usize,
}

impl VerdictCounts {
    /// Total static pairs reported.
    pub fn total_static(&self) -> usize {
        self.bug_static + self.benign_static + self.serial_static
    }

    /// Total callstack pairs reported.
    pub fn total_stacks(&self) -> usize {
        self.bug_stacks + self.benign_stacks + self.serial_stacks
    }
}

/// One final DCatch bug report: a candidate, its static impacts, and (if
/// triggering ran) its experimental verdict.
#[derive(Debug)]
pub struct BugReport {
    /// The candidate pair.
    pub candidate: Candidate,
    /// Static failure impacts found for either side.
    pub impacts: Vec<Impact>,
    /// Triggering verdict (None when triggering was disabled).
    pub verdict: Option<Verdict>,
    /// Failure descriptions observed while triggering.
    pub failures: Vec<String>,
    /// Whether this report touches one of the benchmark's known
    /// root-cause objects (ground truth).
    pub known_bug_object: bool,
}

impl BugReport {
    /// Object raced on.
    pub fn object(&self) -> &str {
        self.candidate.object()
    }
}

/// Window/retirement accounting from a `--streaming` run: how much state
/// the online detector actually held, against the full trace length the
/// offline mode would have materialized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingStats {
    /// Peak number of memory accesses resident in the candidate window
    /// (max across the detection passes).
    pub window_peak: usize,
    /// Accesses retired because their race window provably closed.
    pub records_retired: u64,
    /// Accesses force-evicted by the hard window cap (lossy; zero unless
    /// the governor or `--stream-window` clamped the window).
    pub records_forced: u64,
    /// Peak resident footprint estimate (frontier clocks + window), bytes.
    pub peak_bytes: usize,
}

/// One rung-step the governor took, reported first-class in the run
/// report (schema v5). Carries no wall-clock readings: two runs that
/// degrade identically must serialize identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Pipeline stage that degraded (`tracing`, `trace_analysis`,
    /// `streaming`, `loop_sync`, `triggering`).
    pub stage: String,
    /// Strategy the stage would have used.
    pub from: String,
    /// Strategy it stepped down to.
    pub to: String,
    /// Why: which budget, and the deterministic quantities that tripped it.
    pub reason: String,
}

/// Everything one pipeline invocation produced for one benchmark.
#[derive(Debug)]
pub struct BenchmarkReport {
    /// Benchmark id ("MR-3274"…).
    pub id: String,
    /// Trace record breakdown (Table 7).
    pub trace_stats: TraceStats,
    /// Trace size in bytes, on-disk line format (Tables 6 and 8).
    pub trace_bytes: usize,
    /// Static pairs after trace analysis alone (Table 5 "TA").
    pub ta_static: usize,
    /// Callstack pairs after trace analysis alone.
    pub ta_stacks: usize,
    /// Static pairs after static pruning (Table 5 "TA+SP").
    pub sp_static: usize,
    /// Callstack pairs after static pruning.
    pub sp_stacks: usize,
    /// Static pairs after loop-sync pruning (Table 5 "TA+SP+LP") — the
    /// final DCatch report count.
    pub lp_static: usize,
    /// Callstack pairs after loop-sync pruning.
    pub lp_stacks: usize,
    /// Final reports (with verdicts when triggering ran).
    pub reports: Vec<BugReport>,
    /// Verdict tallies (zeroes when triggering was disabled).
    pub verdicts: VerdictCounts,
    /// Whether a known root-cause bug was detected *and* confirmed harmful
    /// (Table 4's "Detected?" column; requires triggering).
    pub detected_known_bug: bool,
    /// Stage timings (Table 6).
    pub timings: StageTimings,
    /// Set when HB analysis ran out of memory (Table 8's full-tracing
    /// "Out of Memory" outcome); all counts are then zero.
    pub oom: Option<HbError>,
    /// Per-run metric deltas (counters incremented by this run only).
    pub metrics: MetricsSnapshot,
    /// Captured span tree for this run; stage timings are derived from it.
    pub spans: SpanNode,
    /// Degradation-ladder steps the resource governor took during this
    /// run (empty without `--mem-budget`/`--time-budget`). Ordered as
    /// they happened; carries no timestamps, so memory-driven rungs are
    /// byte-stable across machines.
    pub degradations: Vec<DegradationEvent>,
    /// Window accounting when trace analysis streamed (`--streaming`, or
    /// the governor's last memory rung); `None` for the offline
    /// (materialize-then-analyze) mode.
    pub streaming: Option<StreamingStats>,
}

impl BenchmarkReport {
    /// A report with the trace bookkeeping filled in and every count
    /// zero. Timings, metrics and spans stay placeholders on every path:
    /// `Pipeline::run` fills them from its capture.
    pub(crate) fn empty(id: &str, trace_stats: TraceStats, trace_bytes: usize) -> BenchmarkReport {
        BenchmarkReport {
            id: id.to_owned(),
            trace_stats,
            trace_bytes,
            ta_static: 0,
            ta_stacks: 0,
            sp_static: 0,
            sp_stacks: 0,
            lp_static: 0,
            lp_stacks: 0,
            reports: Vec::new(),
            verdicts: VerdictCounts::default(),
            detected_known_bug: false,
            timings: StageTimings::default(),
            oom: None,
            metrics: MetricsSnapshot::default(),
            spans: SpanNode::default(),
            degradations: Vec::new(),
            streaming: None,
        }
    }

    /// Reports whose candidate touches a known root-cause object.
    pub fn known_bug_reports(&self) -> impl Iterator<Item = &BugReport> {
        self.reports.iter().filter(|r| r.known_bug_object)
    }

    /// Zeroes every wall-clock measurement (stage timings and span
    /// durations), leaving only deterministic content: counts, verdicts,
    /// metrics, the span tree *shape*. Two scrubbed reports of the same
    /// benchmark must serialize byte-identically regardless of machine
    /// speed or worker count (`dcatch detect --scrub-timings`).
    pub fn scrub_timings(&mut self) {
        self.timings = StageTimings::default();
        zero_durations(&mut self.spans);
    }
}

fn zero_durations(node: &mut SpanNode) {
    node.total = Duration::ZERO;
    for child in &mut node.children {
        zero_durations(child);
    }
}
