//! The end-to-end DCatch pipeline.

use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

use dcatch_apps::Benchmark;
use dcatch_detect::{
    analyze_loop_sync_with, plan_loop_sync, settle_loop_sync, Candidate, CandidateScan,
    CandidateSet, OnlineDetector, OnlineOptions, StreamOutcome,
};
use dcatch_hb::{apply_ablation, Ablation, FrontierOptions, HbAnalysis, HbConfig, HbError};
use dcatch_prune::{Impact, Pruner};
use dcatch_sim::{Failure, FaultPlan, FocusConfig, Prepared, RunError, SimConfig, World};
use dcatch_trace::{record_len, TraceSet, TracingMode};
use dcatch_trigger::{run_farm_prepared, steal_map, FarmSpec, TriggerReport, Verdict};

use crate::report::{
    BenchmarkReport, BugReport, DegradationEvent, StageTimings, StreamingStats, VerdictCounts,
};

/// Errors aborting a pipeline run. Out-of-memory in the HB analysis is
/// *not* an error — it is a reportable outcome (Table 8).
#[derive(Debug)]
pub enum PipelineError {
    /// The simulation could not start.
    Run(RunError),
    /// The supposedly correct traced run failed; candidates from failing
    /// runs would be meaningless (DCatch predicts bugs from *correct*
    /// runs, §1).
    TracedRunFailed(String),
    /// The benchmark panicked. Caught by [`run_bounded`] so one bad
    /// benchmark cannot poison a `detect all` batch.
    Panicked(String),
    /// The benchmark exceeded the per-benchmark wall-clock watchdog.
    WatchdogTimeout {
        /// The configured limit that was exceeded.
        limit: Duration,
    },
}

impl PipelineError {
    /// Short machine-readable kind, used by the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineError::Run(_) => "run",
            PipelineError::TracedRunFailed(_) => "traced_run_failed",
            PipelineError::Panicked(_) => "panic",
            PipelineError::WatchdogTimeout { .. } => "watchdog_timeout",
        }
    }

    /// Process exit code for this error (documented in the README's exit
    /// code table): 3 = the run itself failed, 5 = panic, 6 = watchdog.
    /// Codes 1 (usage), 2 (known bug not confirmed), and 4 (HB analysis
    /// out of memory) are assigned by the CLI from report contents.
    pub fn exit_code(&self) -> u8 {
        PipelineError::exit_code_of_kind(self.kind())
    }

    /// [`exit_code`](PipelineError::exit_code) from a report entry's
    /// `error.kind` string — what is left of the error in a journal.
    pub(crate) fn exit_code_of_kind(kind: &str) -> u8 {
        match kind {
            "panic" => 5,
            "watchdog_timeout" => 6,
            _ => 3,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Run(e) => write!(f, "{e}"),
            PipelineError::TracedRunFailed(msg) => {
                write!(f, "traced run was not failure-free: {msg}")
            }
            PipelineError::Panicked(msg) => write!(f, "benchmark panicked: {msg}"),
            PipelineError::WatchdogTimeout { limit } => {
                write!(f, "exceeded the {}s watchdog timeout", limit.as_secs())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RunError> for PipelineError {
    fn from(e: RunError) -> Self {
        PipelineError::Run(e)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Scheduler seed override (default: the benchmark's seed).
    pub seed: Option<u64>,
    /// Memory-access tracing policy (Table 8 compares Full to Selective).
    pub tracing: TracingMode,
    /// HB analysis configuration (memory budget…).
    pub hb: HbConfig,
    /// HB-rule ablation (Table 9); `Ablation::None` for the real model.
    pub ablation: Ablation,
    /// Run static pruning (§4).
    pub static_pruning: bool,
    /// Run the loop/pull custom-synchronization analysis (§3.2.1).
    pub loop_sync: bool,
    /// Run the triggering module on every surviving candidate (§5).
    pub triggering: bool,
    /// Worker threads for the triggering farm: one job per candidate,
    /// which runs ordering 0 and then, unless that settled the candidate,
    /// ordering 1 from ordering 0's run (reused, or a copy resumed where
    /// both parties were held). Output is byte-identical for any value.
    /// Default 1.
    pub trigger_jobs: usize,
    /// Measure an un-traced base run (Table 6's "Base" column). Off by
    /// default: detection never reads it, and only `tables 6` sets it.
    pub measure_base: bool,
    /// Fault plan injected into every simulated run of the pipeline
    /// (traced, focused, triggering; base when measured). Empty by
    /// default — an empty plan is a strict no-op and leaves traces
    /// byte-identical.
    pub faults: FaultPlan,
    /// When set, `faults` applies only to the benchmark with this id;
    /// other benchmarks in a `detect all` batch run fault-free.
    pub fault_target: Option<String>,
    /// Per-benchmark wall-clock watchdog for [`Pipeline::run_all`]. A
    /// benchmark still running when the limit expires is reported as
    /// [`PipelineError::WatchdogTimeout`] (its worker thread is detached,
    /// not cancelled).
    pub timeout: Option<Duration>,
    /// Per-benchmark memory budget for the resource governor
    /// (`--mem-budget`). Unlike `hb.memory_budget_bytes` — which turns
    /// excess into a hard [`HbError::OutOfMemory`] outcome — this ceiling
    /// makes the pipeline *degrade*: sample memory tracing, then fall back
    /// to streaming detection under a window cap.
    pub mem_budget: Option<usize>,
    /// Per-benchmark wall-clock budget for the resource governor
    /// (`--time-budget`). Unlike `timeout` — which kills the run — this
    /// deadline makes later stages shed work (skip loop-sync, cancel
    /// remaining trigger jobs) and still produce a report.
    pub time_budget: Option<Duration>,
    /// Online single-pass detection (`--streaming`): consume trace records
    /// as the simulator emits them instead of materializing the trace and
    /// building a full HB graph. Resident memory is O(window), and the
    /// candidate set is proven identical to the offline scan (DESIGN.md
    /// §14). An `ablation` is applied to each record on arrival.
    pub streaming: bool,
    /// Hard cap on resident window entries in streaming mode
    /// (`--stream-window`). `None` relies on provable retirement alone;
    /// a cap that overflows force-evicts oldest entries (lossy, reported
    /// as a degradation). The memory governor may clamp this further.
    pub stream_window: Option<usize>,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            seed: None,
            tracing: TracingMode::Selective,
            hb: HbConfig::default(),
            ablation: Ablation::None,
            static_pruning: true,
            loop_sync: true,
            triggering: true,
            trigger_jobs: 1,
            measure_base: false,
            faults: FaultPlan::default(),
            fault_target: None,
            timeout: None,
            mem_budget: None,
            time_budget: None,
            streaming: false,
            stream_window: None,
        }
    }
}

impl PipelineOptions {
    /// Full pipeline (detection + pruning + triggering).
    pub fn full() -> PipelineOptions {
        PipelineOptions::default()
    }

    /// Detection and pruning only — no triggering re-runs.
    pub fn fast() -> PipelineOptions {
        PipelineOptions {
            triggering: false,
            ..PipelineOptions::default()
        }
    }

    /// Trace analysis only (Table 5's "TA" column).
    pub fn trace_analysis_only() -> PipelineOptions {
        PipelineOptions {
            static_pruning: false,
            loop_sync: false,
            triggering: false,
            ..PipelineOptions::default()
        }
    }
}

/// The resource governor of one [`Pipeline::run`]: graceful degradation
/// under pressure instead of the binary answers (`OutOfMemory`, a
/// watchdog kill). Each stage consults the ceilings at its boundaries and
/// steps down to a cheaper strategy (full → rate-sampled memory tracing,
/// HB graph → streaming window, loop-sync and triggering → skipped or
/// cancelled), recording every step as a [`DegradationEvent`]. It sizes no
/// index itself: the index rung is an `HbAnalysis::build` that returned
/// `OutOfMemory` under the governed ceiling.
///
/// A plain value owned by `run` and lent to `run_stages`, the only code
/// that reads it; the trigger farm's workers get the `deadline` as a
/// plain `Instant`.
///
/// **Determinism.** Memory-driven rungs decide from deterministic
/// quantities (trace byte sizes, the reachability index's bytes as the
/// build measured them — no `/proc` or allocator reading), so the same
/// inputs and budgets always degrade the same way and the reports
/// stay byte-comparable. Time-driven rungs are wall-clock dependent;
/// events carry no timestamps so a run that degraded identically
/// serializes identically.
struct Governor {
    /// Memory ceiling in bytes, covering the dominant per-run footprints
    /// (the trace and the reachability index).
    mem: Option<usize>,
    /// When the wall-clock budget runs out.
    deadline: Option<Instant>,
    /// The report's degradation list, in the order the steps were taken.
    events: Vec<DegradationEvent>,
}

impl Governor {
    fn new(opts: &PipelineOptions) -> Governor {
        Governor {
            mem: opts.mem_budget,
            // a deadline beyond the representable future is no deadline
            deadline: opts.time_budget.and_then(|t| Instant::now().checked_add(t)),
            events: Vec::new(),
        }
    }

    /// Whether the wall-clock budget has run out.
    fn time_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Records one ladder step (and counts it in
    /// `governor_degradations_total`). A no-op when no ceiling is set —
    /// pressure then surfaces as the hard outcomes — so stages call it
    /// unconditionally and an ungoverned report stays what it was.
    fn record(&mut self, event: DegradationEvent) {
        if self.mem.is_some() || self.deadline.is_some() {
            dcatch_obs::counter!("governor_degradations_total").inc();
            self.events.push(event);
        }
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `65536`, `64k`, `64M`, `1g`.
pub fn parse_bytes(s: &str) -> Result<usize, String> {
    let t = s.trim();
    let (digits, shift) = match t.chars().last() {
        Some('k' | 'K') => (&t[..t.len() - 1], 10),
        Some('m' | 'M') => (&t[..t.len() - 1], 20),
        Some('g' | 'G') => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let n: usize = digits
        .parse()
        .map_err(|_| format!("invalid byte count `{s}` (expected e.g. 65536, 64k, 64m, 1g)"))?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(|| format!("byte count `{s}` overflows"))
}

/// The end-to-end detector.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;

impl Pipeline {
    /// Runs the configured pipeline stages on one benchmark.
    ///
    /// Runs in a [`dcatch_obs::scope`], so the returned report carries a
    /// per-run timing tree and per-run metrics even when many benchmarks
    /// run on one thread, and the caller's own counts and open capture
    /// are left as they were. Stage timings are derived from the captured
    /// tree (single source of truth).
    ///
    /// The run's `Governor` is built here from `opts.mem_budget` /
    /// `opts.time_budget`; the stages consult it at their boundaries and
    /// every ladder step they take lands, in the order taken, in
    /// [`BenchmarkReport::degradations`].
    pub fn run(
        bench: &Benchmark,
        opts: &PipelineOptions,
    ) -> Result<BenchmarkReport, PipelineError> {
        let mut gov = Governor::new(opts);
        let (result, metrics, spans) = dcatch_obs::scope(&format!("pipeline.{}", bench.id), || {
            Pipeline::run_stages(bench, opts, &mut gov)
        });
        result.map(|mut report| {
            report.timings = StageTimings::from_spans(&spans);
            report.metrics = metrics;
            report.spans = spans;
            report.degradations = gov.events;
            report
        })
    }

    /// Runs the pipeline on every benchmark, at most `jobs` concurrently,
    /// returning the results in benchmark order.
    ///
    /// Each benchmark runs in its own [`dcatch_obs::scope`] (see
    /// [`run`](Pipeline::run)): metric values, gauges and span captures
    /// are thread-local, and the scope starts them empty, so no reading
    /// or capture state leaks between benchmarks that share a thread. A
    /// report names only what its own scope counted, so that is all it
    /// takes to make `--json` output independent of the worker count.
    /// With `jobs` 1 and no `opts.timeout` no thread is spawned.
    pub fn run_all(
        benches: &[Benchmark],
        opts: &PipelineOptions,
        jobs: usize,
    ) -> Vec<Result<BenchmarkReport, PipelineError>> {
        steal_map(jobs, benches.len(), |i| {
            Some(Pipeline::run_guarded(&benches[i], opts))
        })
        .into_iter()
        .map(|r| r.expect("every benchmark runs"))
        .collect()
    }

    /// One crash-isolated benchmark through [`run_bounded`]: a panic inside
    /// the run is caught and reported as [`PipelineError::Panicked`], and
    /// `opts.timeout` (when set) bounds its wall-clock via the watchdog. A
    /// misbehaving benchmark therefore degrades to a structured error
    /// entry instead of aborting a batch.
    pub fn run_guarded(
        bench: &Benchmark,
        opts: &PipelineOptions,
    ) -> Result<BenchmarkReport, PipelineError> {
        let name = format!("dcatch-{}", bench.id);
        let bench = bench.clone();
        let opts = opts.clone();
        let timeout = opts.timeout;
        run_bounded(&name, timeout, move || Pipeline::run(&bench, &opts)).and_then(|r| r)
    }

    /// The one stage driver: (base run, if measured →) trace analysis →
    /// prune → loop-sync → re-prune → triggering. Trace analysis has two
    /// arms (see [`Analysis`]); everything else is written once.
    fn run_stages(
        bench: &Benchmark,
        opts: &PipelineOptions,
        gov: &mut Governor,
    ) -> Result<BenchmarkReport, PipelineError> {
        let (program, topo) = (&bench.program, &bench.topology);
        // validated and compiled once for every simulated run below, the
        // trigger farm's re-runs included
        let prepared = World::prepare(program, topo)?;
        let seed = opts.seed.unwrap_or(bench.seed);
        // the fault plan applies to every simulated run of this pipeline,
        // unless it is aimed at a different benchmark
        let faults = match &opts.fault_target {
            Some(target) if target != bench.id => FaultPlan::default(),
            _ => opts.faults.clone(),
        };

        // ---- base run (untraced) ----------------------------------------
        if opts.measure_base {
            let mut cfg = SimConfig::default()
                .with_seed(seed)
                .with_faults(faults.clone());
            cfg.trace_enabled = false;
            let _span = dcatch_obs::span!("pipeline.base");
            prepared.run_once(&cfg);
        }

        // A node crash is a spontaneous causal root: surviving chains can
        // race with anything that follows it, so no window ever provably
        // closes. Retirement is disabled rather than made unsound.
        let allow_retirement = faults.crashes.is_empty();
        let mut cfg = SimConfig::default().with_seed(seed).with_faults(faults);
        cfg.tracing = opts.tracing;

        // ---- tracing + trace analysis, graph arm ------------------------
        // `None` hands over to the stream arm: because the caller asked
        // for it, or as the governor's last memory rung.
        let graph = 'graph: {
            if opts.streaming {
                break 'graph None;
            }
            let mut run = {
                let _span = dcatch_obs::span!("pipeline.tracing");
                prepared.run_once(&cfg)
            };
            failure_free(&run.failures)?;

            // ---- governor rung: rate-sampled memory tracing -------------
            // When the trace itself blows the memory budget, re-run with
            // every `rate`-th memory access kept. HB records are never
            // sampled (the graph stays exact) and sampling never perturbs
            // the schedule, so the kept records are a deterministic
            // subsequence of the full run. byte_size walks every record,
            // so compute it once and share the figure between the governor
            // probe and the report.
            let mut trace_bytes = run.trace.byte_size();
            if let Some(m) = gov.mem.filter(|&m| trace_bytes > m) {
                let total = trace_bytes;
                let (records, names) = (run.trace.records(), run.trace.names());
                let mem_bytes: usize = records
                    .iter()
                    .filter(|r| r.kind.is_mem())
                    .map(|r| record_len(r, names) + 1)
                    .sum();
                let other = total - mem_bytes;
                let mut rate: u32 = 2;
                while rate < (1 << 16) && other + mem_bytes / rate as usize > m {
                    rate *= 2;
                }
                // focused and triggering re-runs ignore the rate
                cfg = cfg.with_mem_sample_rate(rate);
                run = {
                    let _span = dcatch_obs::span!("pipeline.tracing");
                    prepared.run_once(&cfg)
                };
                gov.record(DegradationEvent {
                    stage: "tracing".to_owned(),
                    from: "full".to_owned(),
                    to: format!("sampled_1_in_{rate}"),
                    reason: format!("trace {total} B exceeds memory budget {m} B"),
                });
                trace_bytes = run.trace.byte_size();
            }
            let trace_stats = run.trace.stats();

            let analyzed = apply_ablation(run.trace, opts.ablation);
            let _span = dcatch_obs::span!("pipeline.trace_analysis");
            // The governed ceiling also caps the reachability-index budget.
            let mut hb_cfg = opts.hb.clone();
            if let Some(m) = gov.mem {
                hb_cfg.memory_budget_bytes = hb_cfg.memory_budget_bytes.min(m);
            }
            match HbAnalysis::build(analyzed, &hb_cfg) {
                Ok(hb) => {
                    let (scan, candidates) = CandidateScan::new(&hb);
                    Some((hb, scan, candidates, trace_stats, trace_bytes))
                }
                // ---- governor's last memory rung: the index does not fit -
                // The materialized trace went with the failed build; stream
                // the same schedule again: a capped window loses pairs but
                // never invents one.
                Err(HbError::OutOfMemory { needed, budget }) if gov.mem.is_some() => {
                    gov.record(DegradationEvent {
                        stage: "trace_analysis".to_owned(),
                        from: hb_cfg.reachability.to_string(),
                        to: "streaming".to_owned(),
                        reason: format!("reachability index needs {needed} B, budget {budget} B"),
                    });
                    None
                }
                Err(e @ HbError::OutOfMemory { .. }) => {
                    return Ok(BenchmarkReport {
                        oom: Some(e),
                        ..BenchmarkReport::empty(bench.id, trace_stats, trace_bytes)
                    });
                }
            }
        };

        let (mut analysis, mut candidates, trace_stats, trace_bytes) = match graph {
            Some((hb, scan, candidates, stats, bytes)) => (
                Analysis::Graph(Box::new((hb, scan))),
                candidates,
                stats,
                bytes,
            ),
            None => {
                // ---- governor rung: window cap under a memory budget ----
                // Window entries cost ~O(chain count) bytes each (clock
                // refs + callstack); 512 B/entry is a deliberately
                // conservative estimate, so the governed cap errs toward
                // smaller windows.
                let mut window_cap = opts.stream_window;
                if let Some(m) = gov.mem {
                    let gov_cap = (m / 512).max(16);
                    if window_cap.is_none_or(|w| gov_cap < w) {
                        gov.record(DegradationEvent {
                            stage: "streaming".to_owned(),
                            from: window_cap
                                .map_or("unbounded_window".to_owned(), |w| format!("window_{w}")),
                            to: format!("window_{gov_cap}"),
                            reason: format!(
                                "window estimate 512 B/entry against memory budget {m} B"
                            ),
                        });
                        window_cap = Some(gov_cap);
                    }
                }
                // ---- pass 1: fused tracing + trace analysis -------------
                let online = OnlineOptions {
                    window_cap,
                    engine: FrontierOptions {
                        eserial: true,
                        allow_retirement,
                    },
                    ablation: opts.ablation,
                    ..OnlineOptions::default()
                };
                let pass1 = {
                    let _span = dcatch_obs::span!("pipeline.streaming");
                    stream_pass(&prepared, &cfg, online.clone())?
                };
                let analysis = Analysis::Stream {
                    online,
                    eserial_edges: pass1.eserial_edges,
                    stats: StreamingStats {
                        window_peak: pass1.window_peak,
                        records_retired: pass1.records_retired,
                        records_forced: pass1.records_forced,
                        peak_bytes: pass1.peak_bytes,
                    },
                    lossy_locations: pass1.lossy_locations,
                };
                (analysis, pass1.candidates, pass1.stats, pass1.trace_bytes)
            }
        };
        let (ta_static, ta_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        // ---- static pruning ---------------------------------------------
        let pruner = Pruner::new(program);
        if opts.static_pruning {
            let _span = dcatch_obs::span!("pipeline.static_pruning");
            candidates = pruner.prune(candidates).0;
        }
        let (sp_static, sp_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        // ---- loop/pull synchronization analysis -------------------------
        if opts.loop_sync {
            if gov.time_expired() {
                gov.record(DegradationEvent {
                    stage: "loop_sync".to_owned(),
                    from: "focused_rerun".to_owned(),
                    to: "skipped".to_owned(),
                    reason: "time budget exhausted".to_owned(),
                });
            } else {
                let _span = dcatch_obs::span!("pipeline.loop_sync");
                // The focused run repeats the traced run's schedule, and
                // the plan reads nothing past a loop exit: it stops at the
                // traced run's last loop marker (counted before ablation;
                // markers are never sampled out).
                let markers = trace_stats.loops;
                let mut rerun = |objects: &BTreeSet<String>| {
                    if markers == 0 {
                        return TraceSet::new();
                    }
                    let focus = FocusConfig::on(objects.iter().cloned()).stop_after(markers);
                    prepared.run_once(&cfg.clone().with_focus(focus)).trace
                };
                // loop-sync edges may order candidates SP had already
                // scored; re-apply the pruning filter to a refreshed set
                let reprune = |refreshed: CandidateSet| {
                    if opts.static_pruning {
                        pruner.prune(refreshed).0
                    } else {
                        refreshed
                    }
                };
                candidates = match &mut analysis {
                    // the inferred `w* ⇒ LoopExit` edges go into the graph,
                    // and the first scan refreshes over them
                    Analysis::Graph(graph) => {
                        let (ref mut hb, ref scan) = **graph;
                        let (updated, _) = analyze_loop_sync_with(
                            program,
                            pruner.deps(),
                            hb,
                            Some(scan),
                            candidates,
                            &mut rerun,
                        );
                        reprune(updated)
                    }
                    // the plan's occurrence-space edges are fired into a
                    // *second* streamed pass (same seed, identical
                    // schedule) whose frontier clocks absorb them as they
                    // arrive; the pass-1 `Eserial` pairs are replayed
                    // verbatim so pass 2's order is exactly pass 1's plus
                    // the inferred edges
                    Analysis::Stream {
                        online,
                        eserial_edges,
                        stats,
                        lossy_locations,
                    } => {
                        let _inner = dcatch_obs::span!("detect.loopsync");
                        match plan_loop_sync(program, pruner.deps(), &candidates, &mut rerun) {
                            // nothing inferred: no second pass, no re-prune
                            None => candidates,
                            Some(plan) => {
                                let sync_pairs = plan.sync_pairs();
                                let mut pass2_opts = OnlineOptions {
                                    sync_edges: plan.edges,
                                    inject_eserial: std::mem::take(eserial_edges),
                                    ..online.clone()
                                };
                                pass2_opts.engine.eserial = false;
                                let pass2 = stream_pass(&prepared, &cfg, pass2_opts)?;
                                stats.window_peak = stats.window_peak.max(pass2.window_peak);
                                stats.records_retired += pass2.records_retired;
                                stats.records_forced += pass2.records_forced;
                                lossy_locations.extend(pass2.lossy_locations);
                                stats.peak_bytes = stats.peak_bytes.max(pass2.peak_bytes);
                                let (updated, _) =
                                    settle_loop_sync(&candidates, pass2.candidates, &sync_pairs);
                                dcatch_obs::counter!("detect_loopsync_edges_total")
                                    .add(pass2.sync_edges_fired as u64);
                                reprune(updated)
                            }
                        }
                    }
                };
            }
        }
        let (lp_static, lp_stacks) = (
            candidates.static_pair_count(),
            candidates.callstack_pair_count(),
        );

        // ---- triggering -------------------------------------------------
        let candidates: Vec<Candidate> = candidates.into_iter().collect();
        let impacts: Vec<Vec<Impact>> = candidates
            .iter()
            .map(|c| {
                let mut v = pruner.impact_of(&c.rep.0);
                v.extend(pruner.impact_of(&c.rep.1));
                v
            })
            .collect();
        let trig_reports: Vec<Option<TriggerReport>> = if opts.triggering && gov.time_expired() {
            gov.record(DegradationEvent {
                stage: "triggering".to_owned(),
                from: "farm".to_owned(),
                to: "skipped".to_owned(),
                reason: "time budget exhausted before triggering".to_owned(),
            });
            candidates.iter().map(|_| None).collect()
        } else if opts.triggering {
            let _span = dcatch_obs::span!("pipeline.triggering");
            let specs: Vec<FarmSpec> = candidates.iter().map(FarmSpec::of).collect();
            // Evidence of harm (`Verdict::Harmful`): only a failure the
            // candidate's own impact analysis predicted counts, since holding
            // a request point can surface *other* bugs' failures (§4/§5).
            // Monotone, as the farm requires: a failure list that holds one
            // such failure holds it in every extension.
            let evidence =
                |ci: usize, failures: &[Failure]| failures_attributable(failures, &impacts[ci]);
            let reports = run_farm_prepared(
                &prepared,
                &cfg,
                &specs,
                opts.trigger_jobs,
                Some(&evidence),
                gov.deadline,
            );
            let cancelled = reports.iter().filter(|r| r.cancelled).count();
            if cancelled > 0 {
                gov.record(DegradationEvent {
                    stage: "triggering".to_owned(),
                    from: "farm".to_owned(),
                    to: "cancelled".to_owned(),
                    reason: format!("time budget expired with {cancelled} candidates unexplored"),
                });
            }
            reports.into_iter().map(Some).collect()
        } else {
            candidates.iter().map(|_| None).collect()
        };

        let mut reports = Vec::new();
        let mut verdicts = VerdictCounts::default();
        let mut detected_known_bug = false;
        for ((candidate, impacts), trig) in candidates.into_iter().zip(impacts).zip(trig_reports) {
            let known = bench.bug_objects.iter().any(|o| candidate.object() == *o);
            // A cancelled report (trigger deadline) carries a provisional
            // verdict computed from partial runs; keep the candidate
            // undecided instead of reporting it.
            let (verdict, failures) = match trig {
                Some(report) if !report.cancelled => {
                    let failures: Vec<String> = report.failures().map(|f| f.to_string()).collect();
                    let stacks = candidate.stack_pairs.len();
                    match report.verdict {
                        Verdict::Harmful => {
                            verdicts.bug_static += 1;
                            verdicts.bug_stacks += stacks;
                            if known {
                                detected_known_bug = true;
                            }
                        }
                        Verdict::BenignRace => {
                            verdicts.benign_static += 1;
                            verdicts.benign_stacks += stacks;
                        }
                        Verdict::Serial => {
                            verdicts.serial_static += 1;
                            verdicts.serial_stacks += stacks;
                        }
                    }
                    (Some(report.verdict), failures)
                }
                _ => (None, Vec::new()),
            };
            reports.push(BugReport {
                candidate,
                impacts,
                verdict,
                failures,
                known_bug_object: known,
            });
        }

        let mut report = BenchmarkReport {
            ta_static,
            ta_stacks,
            sp_static,
            sp_stacks,
            lp_static,
            lp_stacks,
            reports,
            verdicts,
            detected_known_bug,
            ..BenchmarkReport::empty(bench.id, trace_stats, trace_bytes)
        };
        if let Analysis::Stream {
            stats,
            lossy_locations,
            ..
        } = analysis
        {
            report.streaming = Some(stats);
            // Pushed directly, not via `gov.record`: an explicit
            // `--stream-window` cap is lossy even with no ceiling set, and
            // the report must say so either way.
            if stats.records_forced > 0 {
                gov.events.push(DegradationEvent {
                    stage: "streaming".to_owned(),
                    from: "exact_window".to_owned(),
                    to: "lossy_window".to_owned(),
                    reason: format!(
                        "{} accesses force-evicted by the window cap; candidates may be missing on {}",
                        stats.records_forced,
                        Vec::from_iter(lossy_locations).join(", ")
                    ),
                });
            }
        }
        Ok(report)
    }
}

/// The two ways trace analysis runs. The stages differ only in where the
/// records come from and how loop-sync edges are folded in: both scans
/// keep the facts trigger placement reads.
enum Analysis {
    /// Materialized trace → full HB graph (matrix or chain clocks) →
    /// the candidate scan replayed over it, kept for loop-sync's refresh.
    /// Boxed: the graph's trace and flat indexes outweigh the stream arm's
    /// bookkeeping.
    Graph(Box<(HbAnalysis, CandidateScan)>),
    /// Streaming single-pass detection (DESIGN.md §14): the traced run and
    /// the candidate scan fuse into one pass over the live record stream —
    /// per-chain frontier clocks instead of a reachability index, a
    /// bounded window of still-racable accesses instead of a materialized
    /// trace. Candidate output is exactly the graph arm's unless a window
    /// cap forces evictions; resident memory is O(window).
    Stream {
        /// Pass-1 detector options, reused by the loop-sync second pass.
        online: OnlineOptions,
        /// `Eserial` pairs pass 1 derived, replayed into pass 2.
        eserial_edges: Vec<(u64, u64)>,
        /// Window bookkeeping across both passes.
        stats: StreamingStats,
        /// Where either pass force-evicted an access
        /// ([`StreamOutcome::lossy_locations`]).
        lossy_locations: BTreeSet<String>,
    },
}

/// One streamed run of the prepared benchmark into a fresh
/// [`OnlineDetector`].
fn stream_pass(
    prepared: &Prepared,
    cfg: &SimConfig,
    online: OnlineOptions,
) -> Result<StreamOutcome, PipelineError> {
    let mut sink = OnlineDetector::new(online);
    let run = prepared.run_streamed(cfg, &mut sink);
    failure_free(&run.failures)?;
    Ok(sink.finalize())
}

/// Candidates from a failing traced run would be meaningless.
fn failure_free(failures: &[Failure]) -> Result<(), PipelineError> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(PipelineError::TracedRunFailed(format!("{failures:?}")))
    }
}

/// Runs `f` with its panics caught and reported as
/// [`PipelineError::Panicked`], and with an optional wall-clock watchdog
/// that gives up on a hung computation.
///
/// Without a `timeout`, `f` runs on the caller's thread, [`isolated`] so
/// that whatever it counts or captures leaves the caller's observability
/// state as it was, on return and on panic alike. With one, `f` runs on a
/// thread named `name`, because the watchdog needs a thread it can
/// abandon: on timeout the worker is *detached*, not cancelled — it keeps
/// burning its core until the process exits, which is the price of not
/// poisoning shared state by killing it mid-run. The worker inherits the
/// caller's span verbosity.
///
/// This is the one guard every execution path shares: `detect all` wraps
/// whole benchmarks in it and `faults all` wraps per-scenario jobs, so a
/// `--timeout` bounds both the same way.
///
/// [`isolated`]: dcatch_obs::isolated
pub fn run_bounded<T: Send + 'static>(
    name: &str,
    timeout: Option<Duration>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, PipelineError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let caught =
        |payload: Box<dyn std::any::Any + Send>| PipelineError::Panicked(panic_message(&*payload));
    let Some(limit) = timeout else {
        return dcatch_obs::isolated(|| catch_unwind(AssertUnwindSafe(f))).map_err(caught);
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let verbose = dcatch_obs::trace::is_verbose();
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            dcatch_obs::trace::set_verbose(verbose);
            // the receiver is gone iff the watchdog already fired; the
            // result is then intentionally dropped
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)).map_err(caught));
        })
        .expect("spawn bounded worker thread");
    rx.recv_timeout(limit)
        .unwrap_or(Err(PipelineError::WatchdogTimeout { limit }))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Whether any of `failures` matches a failure instruction predicted by
/// the candidate's static impact analysis.
fn failures_attributable(failures: &[Failure], impacts: &[Impact]) -> bool {
    use dcatch_model::FailureKind;
    use dcatch_sim::RunFailureKind;
    failures.iter().any(|f| {
        impacts.iter().any(|i| {
            let fi = i.failure();
            match (&f.kind, fi.kind) {
                (RunFailureKind::RetryLoopHang(l), FailureKind::LoopExit(l2)) => *l == l2,
                _ => f.stmt == Some(fi.stmt),
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> DegradationEvent {
        DegradationEvent {
            stage: "tracing".into(),
            from: "full".into(),
            to: "sampled".into(),
            reason: "test".into(),
        }
    }

    #[test]
    fn governor_is_silent_without_a_ceiling() {
        let mut gov = Governor::new(&PipelineOptions::default());
        assert!(!gov.time_expired(), "no budget, no deadline");
        gov.record(step());
        assert!(gov.events.is_empty());

        let mut gov = Governor::new(&PipelineOptions {
            mem_budget: Some(1024),
            ..PipelineOptions::default()
        });
        gov.record(step());
        assert_eq!(gov.events, [step()]);
    }

    #[test]
    fn zero_time_budget_is_expired() {
        let gov = Governor::new(&PipelineOptions {
            time_budget: Some(Duration::ZERO),
            ..PipelineOptions::default()
        });
        assert!(gov.time_expired());
    }

    #[test]
    fn unrepresentable_time_budget_never_expires() {
        let gov = Governor::new(&PipelineOptions {
            time_budget: Some(Duration::MAX),
            ..PipelineOptions::default()
        });
        assert!(!gov.time_expired());
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("65536"), Ok(65536));
        assert_eq!(parse_bytes("64k"), Ok(64 << 10));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("1g"), Ok(1 << 30));
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("64q").is_err());
        assert!(parse_bytes("k").is_err());
    }
}
