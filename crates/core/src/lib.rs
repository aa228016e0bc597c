//! # DCatch-RS
//!
//! A from-scratch Rust reproduction of **DCatch: Automatically Detecting
//! Distributed Concurrency Bugs in Cloud Systems** (Liu et al.,
//! ASPLOS '17), including every substrate the paper relies on: a
//! deterministic distributed-system simulator, miniature reproductions of
//! the seven TaxDC benchmark applications, run-time tracing, the MTEP
//! happens-before model, trace analysis, static failure-impact pruning,
//! and the triggering/validation controller.
//!
//! The end-to-end entry point is [`Pipeline`]:
//!
//! ```
//! use dcatch::{Pipeline, PipelineOptions};
//!
//! let benchmark = dcatch::benchmark("ZK-1144").unwrap();
//! let report = Pipeline::run(&benchmark, &PipelineOptions::fast()).unwrap();
//! assert!(report.ta_static > 0, "trace analysis finds candidates");
//! ```
//!
//! The pipeline mirrors the paper's four components (§1.3):
//!
//! 1. **run-time tracing** — the simulator executes a *correct* run of the
//!    workload and records memory accesses and HB-related operations
//!    (selectively, §3.1);
//! 2. **trace analysis** — builds the HB graph from the MTEP rules and
//!    reports concurrent conflicting access pairs (§3.2);
//! 3. **static pruning** — drops candidates with no failure impact (§4);
//!    plus the loop/pull custom-synchronization analysis (§3.2.1);
//! 4. **triggering** — re-runs the system under a timing controller to
//!    force both orders of each surviving pair, classifying it *harmful*,
//!    *benign*, or *serial* (§5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod journal;
mod pipeline;
pub mod profile;
mod report;
pub mod report_json;
pub mod synth;
pub mod tables;

pub use pipeline::{parse_bytes, run_bounded, Pipeline, PipelineError, PipelineOptions};
pub use profile::{profile_json, profile_timeline};
pub use report::{
    BenchmarkReport, BugReport, DegradationEvent, StageTimings, StreamingStats, VerdictCounts,
};
pub use synth::{
    batch_specs, run_scenario, run_spec, score_report, shrink, synth_report_doc, Discrepancy,
    QuarantinedCase, ScenarioScore, SynthBatchConfig,
};

// Re-export the pieces users compose the pipeline from.
pub use dcatch_apps::{
    all_benchmarks, all_benchmarks_scaled, benchmark, fault_scenarios, mechanisms, streambench,
    streambench_rounds, Benchmark, ErrorPattern, FaultScenario, Mechanisms, RootCause, System,
};
pub use dcatch_detect::{
    find_candidates, AccessSite, Anchor, Candidate, CandidateScan, CandidateSet, OnlineDetector,
    OnlineOptions, StreamOutcome,
};
pub use dcatch_hb::{
    apply_ablation, Ablation, BitMatrix, ChainClocks, EdgeRule, HbAnalysis, HbConfig, HbError,
    ReachabilityMode,
};
pub use dcatch_model::{Expr, FailureSpec, FuncKind, Program, ProgramBuilder, StmtId, Value};
pub use dcatch_prune::{Impact, PruneStats, Pruner};
pub use dcatch_sim::{
    trace_timeline, ChannelKind, CrashFault, Failure, FaultPlan, FaultPlanError, FocusConfig,
    MessageAction, MessageFault, Prepared, RunFailureKind, RunResult, SimConfig, TimeoutFault,
    Topology, World,
};
pub use dcatch_trace::{TraceSet, TraceSink, TraceStats, TracingMode};
pub use dcatch_trigger::{
    plan_candidate, run_farm, steal_map, trigger_candidate, ConfirmFn, FarmSpec, OrderRun,
    TriggerPlan, TriggerReport, Verdict, ORDERINGS,
};
