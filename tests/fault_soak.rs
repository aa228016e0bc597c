//! Seeded fault soak: every benchmark runs under its family fault matrix
//! across a fixed seed set, and each run must end *classified* — either
//! it completes, or it reports at least one structured failure. Nothing
//! panics, nothing wedges silently. This is the robustness contract of
//! the fault-injection engine.
//!
//! The seed set is intentionally small so the soak stays in the tier-1
//! budget; `scripts/check.sh soak` runs the same matrix from the CLI.

use dcatch::{fault_scenarios, Pipeline, PipelineOptions, SimConfig, World};

const SOAK_SEEDS: &[u64] = &[1, 7, 42, 1011, 0xDCA7C4];

/// Raw simulator soak: fault matrix × seeds, no pipeline on top.
#[test]
fn every_benchmark_survives_its_fault_matrix() {
    for bench in dcatch::all_benchmarks() {
        for scenario in fault_scenarios(&bench) {
            for &seed in SOAK_SEEDS {
                let cfg = SimConfig::default()
                    .with_seed(seed)
                    .with_faults(scenario.plan.clone());
                let run = World::run_once(&bench.program, &bench.topology, cfg)
                    .unwrap_or_else(|e| panic!("{} {} seed {seed}: {e}", bench.id, scenario.name));
                assert!(
                    run.completed || !run.failures.is_empty(),
                    "{} {} seed {seed}: wedged without a classified failure",
                    bench.id,
                    scenario.name
                );
                // a non-empty plan that matched must be visible in the count
                if !run.completed {
                    for f in &run.failures {
                        // every failure is a structured RunFailureKind, not
                        // a panic: formatting it must not itself panic
                        let _ = f.to_string();
                    }
                }
            }
        }
    }
}

/// Pipeline-level soak: a faulted traced run must surface as a structured
/// pipeline outcome (Ok report or classified error), never a panic or a
/// poisoned batch.
#[test]
fn faulted_pipeline_runs_degrade_to_structured_outcomes() {
    let benches = dcatch::all_benchmarks();
    for bench in &benches {
        for scenario in fault_scenarios(bench) {
            let mut opts = PipelineOptions::fast();
            opts.faults = scenario.plan.clone();
            let results = Pipeline::run_all(std::slice::from_ref(bench), &opts, 1);
            assert_eq!(results.len(), 1);
            match &results[0] {
                Ok(report) => assert_eq!(report.id, bench.id),
                // a fault that breaks the traced run is a classified error
                Err(e) => assert!(
                    matches!(e.kind(), "traced_run_failed" | "run"),
                    "{} {}: unexpected error kind {}",
                    bench.id,
                    scenario.name,
                    e
                ),
            }
        }
    }
}

/// The crash-tolerance acceptance test: a `detect all`-shaped batch with
/// one benchmark rigged to panic the host interpreter still produces a
/// complete JSON report — the rigged benchmark appears as a structured
/// `error` entry, every other benchmark reports normally.
#[test]
fn panicking_benchmark_yields_error_entry_not_a_poisoned_batch() {
    // step 5 is executed; step 3000 falls inside the quiescent clock jump
    // of the benchmark's `sleep(5000)` and must fire all the same
    for at in [5, 3000] {
        rigged_panic_yields_error_entry(at);
    }
}

fn rigged_panic_yields_error_entry(at: u64) {
    let benches = dcatch::all_benchmarks();
    let rigged = "HB-4539";
    let mut opts = PipelineOptions::fast();
    opts.faults = dcatch::FaultPlan::default().with_panic_at(at);
    opts.fault_target = Some(rigged.to_owned());

    let results = Pipeline::run_all(&benches, &opts, 2);
    assert_eq!(results.len(), benches.len());

    let paired: Vec<(&str, _)> = benches.iter().map(|b| b.id).zip(results).collect();
    for (id, result) in &paired {
        if *id == rigged {
            let err = result.as_ref().expect_err("rigged benchmark must error");
            assert_eq!(err.kind(), "panic", "{err}");
        } else {
            let report = result.as_ref().expect("healthy benchmark must report");
            assert_eq!(report.id, *id);
        }
    }

    // the JSON report is complete: one entry per benchmark, the rigged
    // one carrying the structured error
    let doc = dcatch::report_json::run_report_results_with(&paired, false);
    let entries = doc.get("benchmarks").unwrap().as_arr().unwrap();
    assert_eq!(entries.len(), benches.len());
    let rigged_entry = entries
        .iter()
        .find(|e| e.get("id").unwrap().as_str() == Some(rigged))
        .unwrap();
    assert_eq!(
        rigged_entry
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("panic")
    );
    let deg = doc.get("degradations").unwrap();
    assert_eq!(deg.get("benchmarks_failed").unwrap().as_u64(), Some(1));
    // the document round-trips through the parser
    let back = dcatch_obs::json::parse(&doc.to_pretty()).unwrap();
    assert_eq!(back, doc);
}

/// The same guard from the CLI, with no `--timeout` to ask for it:
/// `dcatch faults` reports a host panic as an `ERROR` row and exits 5,
/// in the human and the `--json` form.
#[test]
fn faults_cli_reports_a_host_panic_as_an_error_row() {
    let plan = std::env::temp_dir().join(format!("dcatch-panic-{}.plan", std::process::id()));
    std::fs::write(&plan, "panic at=5\n").expect("write plan");
    for json in [false, true] {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dcatch"));
        cmd.args(["faults", "ZK-1144", "--seeds", "1", "--fault-plan"])
            .arg(&plan)
            .args(json.then_some("--json"));
        let output = cmd.output().expect("dcatch runs");
        let stdout = String::from_utf8(output.stdout).expect("utf-8");
        assert_eq!(output.status.code(), Some(5), "{stdout}");
        if json {
            let doc = dcatch_obs::json::parse(&stdout).expect("json document");
            let rows = doc.get("runs").and_then(|r| r.as_arr()).expect("runs");
            assert_eq!(rows.len(), 1, "{stdout}");
            let msg = rows[0].get("error").and_then(|e| e.as_str());
            assert!(msg.is_some_and(|m| m.contains("panicked")), "{stdout}");
        } else {
            let rows: Vec<&str> = stdout.lines().filter(|l| l.contains("ERROR")).collect();
            assert_eq!(rows.len(), 1, "{stdout}");
            assert!(rows[0].starts_with("ZK-1144"), "{stdout}");
        }
    }
    let _ = std::fs::remove_file(&plan);
}

/// The watchdog turns a hung benchmark into a structured timeout error.
#[test]
fn watchdog_reports_a_hung_benchmark_as_timeout() {
    let bench = dcatch::benchmark("MR-3274").unwrap();
    let mut opts = PipelineOptions::fast();
    // a crash far in the future on an rpc-serving node, with the caller's
    // retry patience effectively unbounded, is not needed — instead rig
    // an effectively-zero watchdog so even a healthy run trips it
    opts.timeout = Some(std::time::Duration::from_nanos(1));
    let results = Pipeline::run_all(std::slice::from_ref(&bench), &opts, 1);
    let err = results[0].as_ref().expect_err("must time out");
    assert_eq!(err.kind(), "watchdog_timeout");
}
