//! The trigger farm's contract: `--trigger-jobs N` is an execution
//! detail. The serialized report must be byte-identical for any worker
//! count, across the whole benchmark × fault-scenario matrix.

use dcatch::{BenchmarkReport, Pipeline, PipelineError, PipelineOptions};

/// Serializes one benchmark run with wall-clock fields scrubbed; pipeline
/// errors (e.g. a fault plan failing the traced run) compare as their
/// deterministic display strings.
fn scrubbed(run: Result<BenchmarkReport, PipelineError>) -> String {
    match run {
        Ok(mut report) => {
            report.scrub_timings();
            let entry = dcatch::report_json::benchmark_json_with(&report, false);
            dcatch::report_json::report_doc(vec![entry]).to_pretty()
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Property: for every benchmark, fault-free and under its first fault
/// scenario, the full-pipeline report is byte-identical for
/// `trigger_jobs` ∈ {1, 2, 8}; and its `trigger_verdict_*_total` counters
/// count the verdicts the report states.
///
/// Each cell gets a discarded warm-up run first: metric *names* intern in
/// a global table on first use, so the first run of a scenario can mint
/// names mid-run that every later snapshot then reports as zero — an
/// artifact of test ordering, not of worker count.
#[test]
fn trigger_jobs_count_never_changes_the_report() {
    for bench in dcatch::all_benchmarks() {
        let mut scenarios: Vec<(String, dcatch::FaultPlan)> =
            vec![("fault-free".to_owned(), dcatch::FaultPlan::default())];
        if let Some(s) = dcatch::fault_scenarios(&bench).into_iter().next() {
            scenarios.push((s.name.to_owned(), s.plan));
        }
        for (name, plan) in scenarios {
            let mut opts = PipelineOptions::full();
            opts.faults = plan;
            let _warmup = Pipeline::run(&bench, &opts);
            let run = Pipeline::run(&bench, &opts);
            if let Ok(report) = &run {
                let counted = ["harmful", "benign", "serial"].map(|v| {
                    report
                        .metrics
                        .counter(&format!("trigger_verdict_{v}_total"))
                });
                let v = &report.verdicts;
                let stated = [v.bug_static, v.benign_static, v.serial_static].map(|n| n as u64);
                assert_eq!(
                    counted, stated,
                    "{} under `{name}`: verdict counters contradict the report",
                    bench.id
                );
            }
            let baseline = scrubbed(run);
            for jobs in [2, 8] {
                opts.trigger_jobs = jobs;
                assert_eq!(
                    scrubbed(Pipeline::run(&bench, &opts)),
                    baseline,
                    "{} under `{name}`: report depends on --trigger-jobs {jobs}",
                    bench.id
                );
            }
        }
    }
}

/// The farm accelerates `detect`'s triggering stage without changing its
/// verdict tallies — the known bug stays confirmed at every worker count.
#[test]
fn known_bugs_stay_confirmed_at_any_trigger_jobs() {
    let bench = dcatch::benchmark("ZK-1144").expect("ZK-1144 exists");
    for jobs in [1, 4] {
        let mut opts = PipelineOptions::full();
        opts.trigger_jobs = jobs;
        let report = Pipeline::run(&bench, &opts).expect("pipeline run");
        assert!(
            report.detected_known_bug,
            "jobs={jobs}: known bug must be confirmed harmful"
        );
    }
}

/// A triggered report's span tree nests: every node's total covers its
/// children's. The farm's jobs run before the `trigger.candidate` span they
/// are grafted under opens, and on several threads at once with
/// `--trigger-jobs 4`.
#[test]
fn every_span_of_a_triggered_report_covers_its_children() {
    fn check(node: &dcatch_obs::SpanNode, path: &str) {
        let path = format!("{path}/{}", node.name);
        let below: std::time::Duration = node.children.iter().map(|c| c.total).sum();
        assert!(
            node.total >= below,
            "{path}: {:?} < its children's {below:?}",
            node.total
        );
        for child in &node.children {
            check(child, &path);
        }
    }
    let bench = dcatch::benchmark("MR-3274").expect("MR-3274 exists");
    for jobs in [1, 4] {
        let mut opts = PipelineOptions::full();
        opts.trigger_jobs = jobs;
        let report = Pipeline::run(&bench, &opts).expect("pipeline run");
        let candidate = report.spans.find("trigger.candidate");
        assert!(
            candidate.and_then(|c| c.child("trigger.order")).is_some(),
            "jobs={jobs}: no order run was grafted"
        );
        check(&report.spans, "");
    }
}
