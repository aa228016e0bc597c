//! Versioned machine-readable run reports.
//!
//! `dcatch detect <ID|all> --json` emits this document, built here from
//! [`BenchmarkReport`]s with the hand-rolled
//! serializer in `dcatch-obs` (no external JSON dependency — the build is
//! offline). The schema is versioned so downstream tooling can diff run
//! reports across commits; bump [`SCHEMA_VERSION`] on breaking changes and
//! describe the layout in DESIGN.md's "Observability" section.
//!
//! Document layout (schema version 7):
//!
//! ```text
//! {
//!   "schema_version": 7,
//!   "tool": "dcatch-rs",
//!   "degradations": {
//!     "faults_injected": …, "benchmarks_failed": …,
//!     "watchdog_timeouts": …, "governor_degradations": …
//!   },
//!   "benchmarks": [
//!     {
//!       "id": "MR-3274",
//!       "error": null,
//!       "oom": null | "<message>",
//!       "degradations": [ { "stage": "tracing", "from": "full",
//!                           "to": "sampled_1_in_4", "reason": "…" }, … ],
//!       "trace": { "bytes": …, "reach_bytes": …,
//!                  "stats": { "total": …, "mem": …, … } },
//!       "candidates": { "ta_static": …, …, "lp_stacks": … },
//!       "verdicts": { "harmful_static": …, …, "total_stacks": … },
//!       "detected_known_bug": true,
//!       "streaming": null | { "window_peak": …, "records_retired": …,
//!                             "records_forced": …, "peak_bytes": … },
//!       "timings_ns": { "base": …, "streaming": …, …, "triggering": … },
//!       "spans": { "name": …, "total_ns": …, "count": …, "children": […] },
//!       "metrics": { "counters": {…}, "gauges": {…}, "histograms": {} },
//!       "profile": null | { "stages_us": {…}, "hb_reach_bytes_peak": …,
//!                           "candidate_funnel": { "ta": …, "sp": …, "lp": … } }
//!     },
//!     { "id": "ZK-1144", "error": { "kind": "panic", "message": "…" } }, …
//!   ],
//!   "synth": null | { "base_seed": …, "count": …,
//!                     "protocols": [ { "protocol": "le", "scenarios": …,
//!                                      "planted": …, "detected": …,
//!                                      "false_positives": …, "errors": …,
//!                                      "quarantined": … }, … ],
//!                     "scenarios": [ { "id": "SYNTH-LE-s1", … }, … ] }
//! }
//! ```
//!
//! `metrics` maps list only names with a non-zero reading: **an absent
//! metric ≡ 0**. An entry therefore depends on its own run alone — not on
//! which names other threads of the process have interned — and that is
//! what makes documents byte-identical across `--jobs`, `--trigger-jobs`
//! and `--resume`.
//!
//! A benchmark that errored out (panic, watchdog timeout, failed traced
//! run) still appears in `benchmarks`, as a short entry whose `error`
//! field carries the structured cause — one bad benchmark never truncates
//! the report. `error.kind` is one of `run`, `traced_run_failed`, `panic`,
//! `watchdog_timeout`.

use dcatch_obs::{Json, MetricsSnapshot, SpanNode};
use dcatch_trace::TraceStats;

use crate::pipeline::PipelineError;
use crate::report::{BenchmarkReport, DegradationEvent, StageTimings, VerdictCounts};

/// Version of the run-report document layout. Bump on breaking changes.
///
/// v2: added top-level `degradations`, per-benchmark `error` (null on
/// success), error-only benchmark entries, and `trace.stats.faults`.
/// v3: added `trace.reach_bytes` (peak reachability-index bytes, from the
/// `hb_reach_bytes_peak` gauge — whichever engine the build selected).
/// v4: added the per-benchmark `profile` section (null unless the run was
/// invoked with `--profile`): per-stage wall times in µs, the peak
/// reachability footprint, and the static-candidate funnel. Purely
/// additive — v2/v3 consumers keep working, see [`validate_report`].
/// v5: added the resource governor — a per-benchmark `degradations` array
/// (one entry per degradation-ladder step: `stage`/`from`/`to`/`reason`,
/// no timestamps) and a top-level `degradations.governor_degradations`
/// total. Purely additive.
/// v6: added the top-level `synth` section (null outside `dcatch synth`):
/// generator parameters, per-protocol recall/precision aggregates against
/// the planted ground truth, and per-scenario rows with quarantined shrunk
/// discrepancy cases. Purely additive.
/// v7: added the per-benchmark `streaming` section (null for offline
/// runs): window/retirement accounting of `--streaming` detection, plus a
/// `timings_ns.streaming` entry for the fused pass. Purely additive — see
/// the `v6_report_still_validates` fixture test. The top-level
/// `degradations` summary no longer has `trigger_retries`: an ordering is
/// one run, never retried (`validate_report` never required the key).
pub const SCHEMA_VERSION: u64 = 7;

/// Oldest schema version [`validate_report`] accepts. Every change since
/// v2 has been additive, so older documents still validate.
pub const MIN_SCHEMA_VERSION: u64 = 2;

/// Builds the versioned top-level run report for a set of benchmark runs
/// that all succeeded.
pub fn run_report(reports: &[BenchmarkReport]) -> Json {
    report_doc(reports.iter().map(benchmark_json).collect())
}

/// Builds the run report from per-benchmark pipeline *results*, keeping
/// errored benchmarks in the document as structured `error` entries.
pub fn run_report_results(results: &[(&str, Result<BenchmarkReport, PipelineError>)]) -> Json {
    run_report_results_with(results, false)
}

/// As [`run_report_results`]; `profile: true` fills the per-benchmark
/// `profile` section (the `--profile` path).
pub fn run_report_results_with(
    results: &[(&str, Result<BenchmarkReport, PipelineError>)],
    profile: bool,
) -> Json {
    let entries = results.iter().map(|(id, r)| result_json(id, r, profile));
    report_doc(entries.collect())
}

/// One pipeline result as its `benchmarks` entry — the unit the
/// `--resume` journal records.
pub fn result_json(
    id: &str,
    result: &Result<BenchmarkReport, PipelineError>,
    profile: bool,
) -> Json {
    match result {
        Ok(r) => benchmark_json_with(r, profile),
        Err(e) => error_json(id, e),
    }
}

/// An entry's structured `error`, `None` when the field is null or (in
/// pre-v2 documents) missing. Holds for `benchmarks` entries and `synth`
/// scenario rows alike.
pub fn entry_error(entry: &Json) -> Option<&Json> {
    entry.get("error").filter(|e| !e.is_null())
}

/// The process exit code an errored entry maps to (`None` on success) —
/// [`PipelineError::exit_code`] for an error that survives only as JSON.
pub fn error_exit_code(entry: &Json) -> Option<u8> {
    let kind = entry_error(entry)?.get("kind").and_then(Json::as_str);
    Some(PipelineError::exit_code_of_kind(kind.unwrap_or("")))
}

/// Assembles the run report from `benchmarks` entries (in benchmark
/// order; freshly serialized, read back from a journal, or both). The
/// top-level `degradations` summary — what the run survived — is derived
/// from the entries alone: fault counts from each entry's own metric
/// deltas, failures from the `error` entries. So the document does
/// not depend on the worker count or on which entries were journaled.
pub fn report_doc(entries: Vec<Json>) -> Json {
    let (mut faults, mut failed, mut watchdog, mut governor) = (0, 0, 0, 0);
    for e in &entries {
        if let Some(err) = entry_error(e) {
            failed += 1;
            if err.get("kind").and_then(Json::as_str) == Some("watchdog_timeout") {
                watchdog += 1;
            }
            continue;
        }
        let counters = e.get("metrics").and_then(|m| m.get("counters"));
        let counter = |name| counters.and_then(|c| c.get(name)).and_then(Json::as_u64);
        faults += counter("faults_injected").unwrap_or(0);
        governor += e
            .get("degradations")
            .and_then(Json::as_arr)
            .map_or(0, |d| d.len() as u64);
    }
    envelope([faults, failed, watchdog, governor], entries, Json::Null)
}

/// The document envelope every report shares; `survived` is the top-level
/// `degradations` summary in field order.
pub(crate) fn envelope(survived: [u64; 4], benchmarks: Vec<Json>, synth: Json) -> Json {
    let [faults, failed, watchdog, governor] = survived.map(Json::UInt);
    Json::obj([
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("tool", Json::Str("dcatch-rs".to_owned())),
        (
            "degradations",
            Json::obj([
                ("faults_injected", faults),
                ("benchmarks_failed", failed),
                ("watchdog_timeouts", watchdog),
                ("governor_degradations", governor),
            ]),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
        ("synth", synth),
    ])
}

/// Zeroes every wall-clock measurement of a `benchmarks` entry in place:
/// `timings_ns`, span `total_ns`, and `profile.stages_us` — what
/// [`BenchmarkReport::scrub_timings`] does to the struct, for entries
/// that only exist as JSON (`--scrub-timings` over a resumed journal).
pub fn scrub_entry(entry: &mut Json) {
    fn zero_fields(obj: Option<&mut Json>) {
        if let Some(Json::Obj(fields)) = obj {
            for (_, v) in fields {
                *v = Json::UInt(0);
            }
        }
    }
    fn scrub_span(span: &mut Json) {
        if let Some(total) = span.get_mut("total_ns") {
            *total = Json::UInt(0);
        }
        if let Some(Json::Arr(children)) = span.get_mut("children") {
            children.iter_mut().for_each(scrub_span);
        }
    }
    zero_fields(entry.get_mut("timings_ns"));
    zero_fields(
        entry
            .get_mut("profile")
            .and_then(|p| p.get_mut("stages_us")),
    );
    if let Some(spans) = entry.get_mut("spans") {
        scrub_span(spans);
    }
}

/// The short entry for a benchmark whose pipeline run errored out.
pub fn error_json(id: &str, e: &PipelineError) -> Json {
    Json::obj([
        ("id", Json::Str(id.to_owned())),
        (
            "error",
            Json::obj([
                ("kind", Json::Str(e.kind().to_owned())),
                ("message", Json::Str(e.to_string())),
            ]),
        ),
    ])
}

/// One benchmark's section of the run report (without a `profile`
/// section — see [`benchmark_json_with`]).
pub fn benchmark_json(r: &BenchmarkReport) -> Json {
    benchmark_json_with(r, false)
}

/// One benchmark's section of the run report; `profile: true` fills the
/// v4 `profile` section instead of leaving it null.
pub fn benchmark_json_with(r: &BenchmarkReport, profile: bool) -> Json {
    Json::obj([
        ("id", Json::Str(r.id.clone())),
        ("error", Json::Null),
        (
            "oom",
            match &r.oom {
                Some(e) => Json::Str(e.to_string()),
                None => Json::Null,
            },
        ),
        (
            "degradations",
            Json::Arr(r.degradations.iter().map(degradation_json).collect()),
        ),
        (
            "trace",
            Json::obj([
                ("bytes", Json::UInt(r.trace_bytes as u64)),
                (
                    "reach_bytes",
                    Json::UInt(r.metrics.gauge("hb_reach_bytes_peak")),
                ),
                ("stats", trace_stats_json(&r.trace_stats)),
            ]),
        ),
        (
            "candidates",
            Json::obj([
                ("ta_static", Json::UInt(r.ta_static as u64)),
                ("ta_stacks", Json::UInt(r.ta_stacks as u64)),
                ("sp_static", Json::UInt(r.sp_static as u64)),
                ("sp_stacks", Json::UInt(r.sp_stacks as u64)),
                ("lp_static", Json::UInt(r.lp_static as u64)),
                ("lp_stacks", Json::UInt(r.lp_stacks as u64)),
            ]),
        ),
        ("verdicts", verdicts_json(&r.verdicts)),
        ("detected_known_bug", Json::Bool(r.detected_known_bug)),
        (
            "streaming",
            match &r.streaming {
                Some(s) => Json::obj([
                    ("window_peak", Json::UInt(s.window_peak as u64)),
                    ("records_retired", Json::UInt(s.records_retired)),
                    ("records_forced", Json::UInt(s.records_forced)),
                    ("peak_bytes", Json::UInt(s.peak_bytes as u64)),
                ]),
                None => Json::Null,
            },
        ),
        ("timings_ns", timings_json(&r.timings)),
        ("spans", span_json(&r.spans)),
        ("metrics", metrics_json(&r.metrics)),
        (
            "profile",
            if profile {
                crate::profile::profile_json(r)
            } else {
                Json::Null
            },
        ),
    ])
}

/// One degradation-ladder step (schema v5 per-benchmark `degradations`
/// entry). Deliberately timestamp-free: two runs that degrade identically
/// serialize identically.
pub fn degradation_json(d: &DegradationEvent) -> Json {
    Json::obj([
        ("stage", Json::Str(d.stage.clone())),
        ("from", Json::Str(d.from.clone())),
        ("to", Json::Str(d.to.clone())),
        ("reason", Json::Str(d.reason.clone())),
    ])
}

/// Checks that `doc` is a structurally sound run report of any supported
/// schema version ([`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`]) and
/// returns that version. Validates exactly the invariants every version
/// shares: the envelope fields, and that each benchmark entry carries an
/// `id` plus either a structured `error` or the success sections.
pub fn validate_report(doc: &Json) -> Result<u64, String> {
    let version = doc
        .get("schema_version")
        .and_then(|v| v.as_u64())
        .ok_or("missing schema_version")?;
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
        return Err(format!(
            "unsupported schema_version {version} (supported: {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
        ));
    }
    if doc.get("tool").and_then(|t| t.as_str()) != Some("dcatch-rs") {
        return Err("missing or wrong tool marker".to_owned());
    }
    doc.get("degradations")
        .filter(|d| d.get("benchmarks_failed").is_some())
        .ok_or("missing degradations section")?;
    let benches = doc
        .get("benchmarks")
        .and_then(|b| b.as_arr())
        .ok_or("missing benchmarks array")?;
    for (i, b) in benches.iter().enumerate() {
        if b.get("id").and_then(|v| v.as_str()).is_none() {
            return Err(format!("benchmark[{i}]: missing id"));
        }
        if let Some(err) = entry_error(b) {
            if err.get("kind").is_none() {
                return Err(format!("benchmark[{i}]: error entry without kind"));
            }
        } else if b.get("candidates").is_none() || b.get("timings_ns").is_none() {
            return Err(format!("benchmark[{i}]: missing success sections"));
        }
    }
    Ok(version)
}

/// Table-7 record breakdown.
pub fn trace_stats_json(s: &TraceStats) -> Json {
    Json::obj([
        ("total", Json::UInt(s.total as u64)),
        ("mem", Json::UInt(s.mem as u64)),
        ("rpc", Json::UInt(s.rpc as u64)),
        ("socket", Json::UInt(s.socket as u64)),
        ("event", Json::UInt(s.event as u64)),
        ("thread", Json::UInt(s.thread as u64)),
        ("lock", Json::UInt(s.lock as u64)),
        ("zk", Json::UInt(s.zk as u64)),
        ("loops", Json::UInt(s.loops as u64)),
        ("faults", Json::UInt(s.faults as u64)),
    ])
}

fn verdicts_json(v: &VerdictCounts) -> Json {
    Json::obj([
        ("harmful_static", Json::UInt(v.bug_static as u64)),
        ("benign_static", Json::UInt(v.benign_static as u64)),
        ("serial_static", Json::UInt(v.serial_static as u64)),
        ("harmful_stacks", Json::UInt(v.bug_stacks as u64)),
        ("benign_stacks", Json::UInt(v.benign_stacks as u64)),
        ("serial_stacks", Json::UInt(v.serial_stacks as u64)),
        ("total_static", Json::UInt(v.total_static() as u64)),
        ("total_stacks", Json::UInt(v.total_stacks() as u64)),
    ])
}

fn timings_json(t: &StageTimings) -> Json {
    let ns = |d: std::time::Duration| Json::UInt(d.as_nanos() as u64);
    Json::obj([
        ("base", ns(t.base)),
        ("tracing", ns(t.tracing)),
        ("streaming", ns(t.streaming)),
        ("trace_analysis", ns(t.trace_analysis)),
        ("static_pruning", ns(t.static_pruning)),
        ("loop_sync", ns(t.loop_sync)),
        ("triggering", ns(t.triggering)),
    ])
}

/// Serializes a captured span tree.
pub fn span_json(s: &SpanNode) -> Json {
    Json::obj([
        ("name", Json::Str(s.name.clone())),
        ("total_ns", Json::UInt(s.total.as_nanos() as u64)),
        ("count", Json::UInt(s.count)),
        (
            "children",
            Json::Arr(s.children.iter().map(span_json).collect()),
        ),
    ])
}

/// Serializes a metrics snapshot (or per-run delta).
pub fn metrics_json(m: &MetricsSnapshot) -> Json {
    Json::obj([
        ("counters", Json::from_map(&m.counters)),
        ("gauges", Json::from_map(&m.gauges)),
        // no histogram is registered anywhere; the key stays so schema
        // v7 documents keep their bytes
        ("histograms", Json::Obj(Vec::new())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_list_still_carries_version() {
        let doc = run_report(&[]);
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("benchmarks").unwrap().as_arr().unwrap().len(), 0);
        let deg = doc.get("degradations").unwrap();
        assert_eq!(deg.get("benchmarks_failed").unwrap().as_u64(), Some(0));
        // round-trips through the parser
        let back = dcatch_obs::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn errored_benchmark_becomes_structured_entry() {
        let results = vec![(
            "ZK-9999",
            Err::<BenchmarkReport, _>(PipelineError::Panicked("boom".to_owned())),
        )];
        let doc = run_report_results(&results);
        let benches = doc.get("benchmarks").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1);
        let err = benches[0].get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("panic"));
        assert_eq!(
            doc.get("degradations")
                .unwrap()
                .get("benchmarks_failed")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let back = dcatch_obs::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
    }

    /// The journal path: entries that only exist as JSON are scrubbed and
    /// summarized exactly like freshly serialized ones.
    #[test]
    fn report_doc_summarizes_and_scrub_entry_zeroes_json_entries() {
        let entry = |id: &str, counters: Vec<(&'static str, Json)>, degradations: Vec<Json>| {
            Json::obj([
                ("id", Json::Str(id.to_owned())),
                ("error", Json::Null),
                ("degradations", Json::Arr(degradations)),
                ("timings_ns", Json::obj([("base", Json::UInt(123))])),
                (
                    "spans",
                    Json::obj([
                        ("name", Json::Str("pipeline".into())),
                        ("total_ns", Json::UInt(9)),
                        ("children", Json::Arr(vec![])),
                    ]),
                ),
                ("metrics", Json::obj([("counters", Json::obj(counters))])),
            ])
        };
        let mut a = entry("A", vec![("faults_injected", Json::UInt(2))], vec![]);
        let b = entry("B", vec![], vec![Json::Null]);
        let c = error_json(
            "C",
            &PipelineError::WatchdogTimeout {
                limit: std::time::Duration::from_secs(1),
            },
        );
        scrub_entry(&mut a);
        let timing = |e: &Json, section: &str, field: &str| {
            e.get(section)
                .and_then(|t| t.get(field))
                .and_then(Json::as_u64)
        };
        assert_eq!(timing(&a, "timings_ns", "base"), Some(0));
        assert_eq!(timing(&a, "spans", "total_ns"), Some(0));
        // summary recomputed from entries; absent counters read as 0
        let doc = report_doc(vec![a, b, c]);
        let deg = doc.get("degradations").unwrap();
        let tally = |name: &str| deg.get(name).unwrap().as_u64();
        assert_eq!(tally("faults_injected"), Some(2));
        assert!(deg.get("trigger_retries").is_none());
        assert_eq!(tally("benchmarks_failed"), Some(1));
        assert_eq!(tally("watchdog_timeouts"), Some(1));
        assert_eq!(tally("governor_degradations"), Some(1));
    }

    /// Fixture pinning backward compatibility: a report exactly as schema
    /// v6 emitted it — no per-benchmark `streaming` key, no
    /// `timings_ns.streaming` — must still validate after the v7 bump.
    #[test]
    fn v6_report_still_validates() {
        let fixture = r#"{
          "schema_version": 6,
          "tool": "dcatch-rs",
          "degradations": {
            "faults_injected": 0,
            "benchmarks_failed": 0,
            "trigger_retries": 0,
            "watchdog_timeouts": 0,
            "governor_degradations": 0
          },
          "benchmarks": [
            {
              "id": "MR-3274",
              "error": null,
              "oom": null,
              "degradations": [],
              "trace": {"bytes": 123, "reach_bytes": 0, "stats": {"total": 4}},
              "candidates": {"ta_static": 1, "lp_static": 1},
              "verdicts": {"harmful_static": 1, "total_static": 1},
              "detected_known_bug": true,
              "timings_ns": {"base": 0, "tracing": 10, "triggering": 5},
              "spans": {"name": "pipeline.MR-3274", "total_ns": 15, "count": 1, "children": []},
              "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
              "profile": null
            },
            {"id": "ZK-9999", "error": {"kind": "panic", "message": "boom"}}
          ],
          "synth": null
        }"#;
        let doc = dcatch_obs::json::parse(fixture).expect("fixture parses");
        assert_eq!(validate_report(&doc), Ok(6));
        // and the current writer's output validates at the new version
        let now = run_report(&[]);
        assert_eq!(validate_report(&now), Ok(SCHEMA_VERSION));
    }
}
