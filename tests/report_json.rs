//! Round-trip test for the machine-readable run report: run a small
//! benchmark through the pipeline, serialize the versioned report with
//! the `dcatch-obs` emitter, parse it back with the in-repo JSON parser,
//! and check schema, stage timings, instrumentation coverage, and
//! self-consistency of the counters.

use dcatch::{report_json, Pipeline, PipelineOptions};
use dcatch_obs::json::{self, Json};

fn small_run_doc() -> Json {
    let bench = dcatch::benchmark("ZK-1144").unwrap();
    let report = Pipeline::run(&bench, &PipelineOptions::full()).unwrap();
    let doc = report_json::run_report(std::slice::from_ref(&report));
    // serialize → parse round trip, both layouts
    let parsed = json::parse(&doc.to_pretty()).unwrap();
    assert_eq!(parsed, json::parse(&doc.to_compact()).unwrap());
    parsed
}

#[test]
fn run_report_round_trips_with_schema_and_timings() {
    let doc = small_run_doc();
    assert_eq!(
        doc.get("schema_version").unwrap().as_u64(),
        Some(report_json::SCHEMA_VERSION)
    );
    assert_eq!(doc.get("tool").unwrap().as_str(), Some("dcatch-rs"));

    let benches = doc.get("benchmarks").unwrap().as_arr().unwrap();
    assert_eq!(benches.len(), 1);
    let b = &benches[0];
    assert_eq!(b.get("id").unwrap().as_str(), Some("ZK-1144"));
    assert!(b.get("oom").unwrap().is_null());

    // all six stage timings are present; the ones that ran are non-zero
    let timings = b.get("timings_ns").unwrap();
    for stage in [
        "base",
        "tracing",
        "trace_analysis",
        "static_pruning",
        "loop_sync",
        "triggering",
    ] {
        let v = timings
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage timing `{stage}`"))
            .as_u64()
            .unwrap();
        if stage != "loop_sync" {
            assert!(v > 0, "stage `{stage}` should have a non-zero duration");
        }
    }

    // the span tree mirrors the stage structure
    let spans = b.get("spans").unwrap();
    assert_eq!(
        spans.get("name").unwrap().as_str(),
        Some("pipeline.ZK-1144")
    );
    let children = spans.get("children").unwrap().as_arr().unwrap();
    let names: Vec<&str> = children
        .iter()
        .map(|c| c.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(names.contains(&"pipeline.tracing"), "{names:?}");
    assert!(names.contains(&"pipeline.trace_analysis"), "{names:?}");
}

#[test]
fn run_report_counters_cover_the_whole_pipeline() {
    let doc = small_run_doc();
    let b = &doc.get("benchmarks").unwrap().as_arr().unwrap()[0];
    let counters = b.get("metrics").unwrap().get("counters").unwrap();
    let Json::Obj(entries) = counters else {
        panic!("counters must be an object");
    };
    // a counter the run never moved is not listed: absent ≡ 0
    let get = |name: &str| -> u64 { counters.get(name).map_or(0, |v| v.as_u64().unwrap()) };

    // ≥10 distinct named counters, spanning ≥4 layers of the pipeline
    assert!(
        entries.len() >= 10,
        "expected ≥10 counters, got {}: {:?}",
        entries.len(),
        entries.iter().map(|(k, _)| k).collect::<Vec<_>>()
    );
    let layers = ["sim_", "hb_", "detect_", "prune_", "trigger_"];
    for layer in layers {
        assert!(
            entries.iter().any(|(k, _)| k.starts_with(layer)),
            "no counter from layer `{layer}*`"
        );
    }

    // self-consistency across stages
    let found = get("detect_candidates_found_total");
    let pruned = get("prune_candidates_pruned_total");
    let kept = get("prune_candidates_kept_total");
    assert!(found > 0, "detection must find candidates on ZK-1144");
    assert!(pruned <= found, "cannot prune more than was found");
    assert!(kept <= found, "cannot keep more than was found");
    assert!(
        get("sim_trace_records_total") > 0,
        "the traced run emits records"
    );
    assert!(get("hb_nodes_total") > 0 && get("hb_edges_total") > 0);
    assert!(get("trigger_attempts_total") > 0, "triggering ran");

    // trace stats in the report agree with the sim counter for the traced
    // runs (the pipeline traces at least once; triggering re-runs add more)
    let total = b
        .get("trace")
        .unwrap()
        .get("stats")
        .unwrap()
        .get("total")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(get("sim_trace_records_total") >= total);
}

/// A pre-v4 document exactly as a schema-3 producer wrote it: no
/// per-benchmark `profile` key anywhere. Pinned as a string so schema
/// bumps cannot silently rewrite the fixture.
const V3_FIXTURE: &str = r#"{
  "schema_version": 3,
  "tool": "dcatch-rs",
  "degradations": {
    "faults_injected": 0,
    "benchmarks_failed": 1,
    "trigger_retries": 2,
    "watchdog_timeouts": 0
  },
  "benchmarks": [
    {
      "id": "ZK-1144",
      "error": null,
      "oom": null,
      "trace": { "bytes": 1234, "reach_bytes": 512,
                 "stats": { "total": 40, "mem": 10 } },
      "candidates": { "ta_static": 5, "sp_static": 2, "lp_static": 2 },
      "verdicts": { "harmful_static": 1 },
      "detected_known_bug": true,
      "timings_ns": { "base": 1, "tracing": 2 },
      "spans": { "name": "pipeline.ZK-1144", "total_ns": 9, "count": 1,
                 "children": [] },
      "metrics": { "counters": {}, "gauges": {}, "histograms": {} }
    },
    { "id": "MR-9999", "error": { "kind": "panic", "message": "boom" } }
  ]
}"#;

#[test]
fn v3_reports_still_parse_and_validate() {
    let doc = json::parse(V3_FIXTURE).expect("v3 fixture parses");
    assert_eq!(
        report_json::validate_report(&doc),
        Ok(3),
        "schema v4 must remain backward compatible with v3 documents"
    );
    // v3 consumers read these fields; they must still be where they were
    let b = &doc.get("benchmarks").unwrap().as_arr().unwrap()[0];
    assert_eq!(b.get("id").unwrap().as_str(), Some("ZK-1144"));
    assert!(b.get("profile").is_none(), "v3 had no profile section");
}

#[test]
fn v4_report_carries_optional_profile_section() {
    let doc = small_run_doc();
    assert_eq!(
        report_json::validate_report(&doc),
        Ok(report_json::SCHEMA_VERSION)
    );
    let b = &doc.get("benchmarks").unwrap().as_arr().unwrap()[0];
    // default (non --profile) runs leave the section null…
    assert!(b.get("profile").unwrap().is_null());

    // …and profiled runs fill it
    let bench = dcatch::benchmark("ZK-1144").unwrap();
    let report = Pipeline::run(&bench, &PipelineOptions::fast()).unwrap();
    let results = vec![("ZK-1144", Ok(report))];
    let mut doc = report_json::run_report_results_with(&results, true);
    assert_eq!(
        report_json::validate_report(&doc),
        Ok(report_json::SCHEMA_VERSION)
    );
    let b = &doc.get("benchmarks").unwrap().as_arr().unwrap()[0];
    let profile = b.get("profile").unwrap();
    let stages = profile.get("stages_us").unwrap();
    assert!(stages.get("tracing").unwrap().as_u64().unwrap() > 0);
    let funnel = profile.get("candidate_funnel").unwrap();
    assert!(funnel.get("ta").unwrap().as_u64().unwrap() > 0);
    assert!(profile
        .get("hb_reach_bytes_peak")
        .unwrap()
        .as_u64()
        .is_some());
    // profiling is post-processing of the same run: without the section
    // the document is the unprofiled one
    let Some(Json::Arr(entries)) = doc.get_mut("benchmarks") else {
        panic!("benchmarks array");
    };
    *entries[0].get_mut("profile").unwrap() = Json::Null;
    assert_eq!(doc, report_json::run_report_results_with(&results, false));
}

#[test]
fn validate_report_rejects_unsupported_and_malformed_documents() {
    let future = json::parse(
        r#"{ "schema_version": 99, "tool": "dcatch-rs",
             "degradations": { "benchmarks_failed": 0 }, "benchmarks": [] }"#,
    )
    .unwrap();
    assert!(report_json::validate_report(&future)
        .unwrap_err()
        .contains("unsupported schema_version"));

    let no_id = json::parse(
        r#"{ "schema_version": 4, "tool": "dcatch-rs",
             "degradations": { "benchmarks_failed": 0 },
             "benchmarks": [ { "error": null } ] }"#,
    )
    .unwrap();
    assert!(report_json::validate_report(&no_id)
        .unwrap_err()
        .contains("missing id"));
}
