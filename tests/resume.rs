//! Crash-safe checkpoint/resume (`dcatch detect all --resume`, `dcatch
//! synth --resume`), the CLI's argument and closed-pipe handling, and the
//! resource governor's two end-to-end guarantees:
//!
//! * a run killed after K benchmarks, resumed from its journal, emits a
//!   run report **byte-identical** to an uninterrupted run's;
//! * a budget large enough never to bind is observationally equivalent to
//!   no governor at all, and a tiny budget degrades instead of dying.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use dcatch::{BenchmarkReport, Pipeline, PipelineOptions, StmtId};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcatch-resume-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `dcatch detect all --json --scrub-timings --jobs 1` plus `extra`,
/// writing the report to `out`; returns the process exit code.
fn detect_all(out: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcatch"));
    cmd.args(["detect", "all", "--json", "--scrub-timings", "--jobs", "1"])
        .arg("--out")
        .arg(out)
        .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("dcatch runs");
    output.status.code().expect("exit code")
}

#[test]
fn killed_run_resumes_to_a_byte_identical_report() {
    let dir = temp_dir("kill");
    let plain = dir.join("plain.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("journal.jsonl");

    assert_eq!(detect_all(&plain, &[], &[]), 0, "uninterrupted run");

    // die (as abruptly as a crash) after three checkpoints…
    let journal_arg = journal.to_str().unwrap();
    let code = detect_all(
        &resumed,
        &["--resume", journal_arg],
        &[("DCATCH_TEST_EXIT_AFTER", "3")],
    );
    assert_eq!(code, 70, "the test hook kills the process mid-batch");
    let lines = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines, 1 + 3, "meta line plus one checkpoint per benchmark");
    assert!(!resumed.exists(), "the killed run never wrote a report");

    // …then resume: the merged report matches the uninterrupted run's
    assert_eq!(detect_all(&resumed, &["--resume", journal_arg], &[]), 0);
    let a = std::fs::read(&plain).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(a, b, "resumed report must be byte-identical");

    let benchmarks = dcatch::all_benchmarks().len();
    let lines = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines, 1 + benchmarks, "resume journaled the remaining runs");
}

/// The same kill/resume contract for the other user of the shared batch
/// loop: `dcatch synth --resume`, keyed by scenario id (2 per protocol × 4
/// protocols = 8 scenarios).
#[test]
fn killed_synth_batch_resumes_to_a_byte_identical_report() {
    let dir = temp_dir("synth-kill");
    let plain = dir.join("plain.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("journal.jsonl");
    let synth = |out: &std::path::Path, extra: &[&str], exit_after: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcatch"));
        cmd.args([
            "synth",
            "--seed",
            "1",
            "--count",
            "2",
            "--no-shrink",
            "--json",
        ])
        .arg("--out")
        .arg(out)
        .args(extra);
        if let Some(k) = exit_after {
            cmd.env("DCATCH_TEST_EXIT_AFTER", k);
        }
        cmd.output().expect("dcatch runs").status.code()
    };
    let journal_lines = || std::fs::read_to_string(&journal).unwrap().lines().count();

    assert_eq!(synth(&plain, &[], None), Some(0), "uninterrupted batch");

    let resume = ["--resume", journal.to_str().unwrap()];
    assert_eq!(synth(&resumed, &resume, Some("3")), Some(70), "killed");
    assert_eq!(journal_lines(), 1 + 3, "meta line plus three checkpoints");
    assert!(!resumed.exists(), "the killed batch never wrote a report");

    assert_eq!(synth(&resumed, &resume, None), Some(0), "resumed batch");
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed report must be byte-identical"
    );
    assert_eq!(journal_lines(), 1 + 8, "resume journaled the other five");
}

#[test]
fn finished_journal_skips_every_benchmark_and_tolerates_a_torn_tail() {
    let dir = temp_dir("skip");
    let first = dir.join("first.json");
    let again = dir.join("again.json");
    let journal = dir.join("journal.jsonl");
    let journal_arg = journal.to_str().unwrap();

    assert_eq!(detect_all(&first, &["--resume", journal_arg], &[]), 0);
    let full = std::fs::read_to_string(&journal).unwrap();

    // every benchmark is journaled: a second resume re-runs nothing,
    // appends nothing, and reproduces the report byte-for-byte
    assert_eq!(detect_all(&again, &["--resume", journal_arg], &[]), 0);
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full);
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&again).unwrap()
    );

    // a crash can tear the final line mid-write; resume must shrug it off
    std::fs::write(&journal, format!("{full}{{\"id\":\"ZK-11")).unwrap();
    assert_eq!(detect_all(&again, &["--resume", journal_arg], &[]), 0);
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&again).unwrap()
    );

    // resuming under different options is refused up front
    let code = detect_all(&again, &["--resume", journal_arg, "--scale", "2"], &[]);
    assert_ne!(code, 0, "fingerprint mismatch must be an error");
}

/// A valued flag does not swallow the flag after it: `opt` / `flag` look
/// names up anywhere in the arguments, so `--out --json` used to pass the
/// check, turn JSON on *and* write the report to a file named `--json`.
#[test]
fn valued_flag_followed_by_a_flag_is_a_usage_error() {
    let dir = temp_dir("flags");
    let dcatch = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_dcatch"))
            .current_dir(&dir)
            .args(["detect", "ZK-1144", "--no-trigger"])
            .args(args)
            .output()
            .expect("dcatch runs")
    };
    let output = dcatch(&["--out", "--json"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("flag `--out` requires a value"), "{stderr}");
    assert!(!dir.join("--json").exists(), "wrote a file named `--json`");
    // `--budget` takes the byte suffixes `--mem-budget` does
    assert_eq!(dcatch(&["--budget", "64k"]).status.code(), Some(0));
    assert_eq!(dcatch(&["--budget", "64q"]).status.code(), Some(1));
}

/// Human-mode output to a reader that leaves early (`dcatch … | head -1`)
/// ends the run quietly: the 200 KB of `trace` lines outgrow the pipe
/// buffer, so the writer is still writing when the read end closes.
#[test]
fn closed_stdout_pipe_ends_the_run_without_a_panic() {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_dcatch"))
        .args(["trace", "CA-1011", "--full-tracing", "--scale", "8"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("dcatch runs");
    let mut first = String::new();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
    stdout.read_line(&mut first).expect("a first line");
    drop(stdout);
    let output = child.wait_with_output().expect("dcatch exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!first.is_empty() && stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0));
}

fn static_pairs(report: &BenchmarkReport) -> BTreeSet<(StmtId, StmtId)> {
    report
        .reports
        .iter()
        .map(|r| r.candidate.static_pair)
        .collect()
}

/// Whether the degradation list has a `stage` step whose `to` starts
/// with `to_prefix`.
fn has_step(report: &BenchmarkReport, stage: &str, to_prefix: &str) -> bool {
    report
        .degradations
        .iter()
        .any(|d| d.stage == stage && d.to.starts_with(to_prefix))
}

/// What every rung of the memory ladder promises, whichever fired: the
/// run finishes without an OOM report, loop-sync is kept, the deleted
/// chunked search is not a rung, and no pair is invented.
fn assert_degraded_soundly(id: &str, governed: &BenchmarkReport, free: &BenchmarkReport) {
    let steps = &governed.degradations;
    assert!(
        governed.oom.is_none(),
        "{id}: the governor degrades before the analysis can OOM"
    );
    assert!(
        !steps.iter().any(|d| d.to.starts_with("chunked_")),
        "{id}: {steps:?}"
    );
    assert!(
        !has_step(governed, "loop_sync", "skipped"),
        "{id}: every memory rung keeps loop-sync: {steps:?}"
    );
    let free_pairs = static_pairs(free);
    for pair in static_pairs(governed) {
        assert!(
            free_pairs.contains(&pair),
            "{id}: invented candidate {pair:?} after {steps:?}"
        );
    }
}

#[test]
fn tiny_memory_budget_degrades_instead_of_dying() {
    let plain = PipelineOptions::full();
    let mut opts = PipelineOptions::full();
    opts.mem_budget = Some(2 << 10);
    let (mut degradations, mut sampled) = (0, 0);
    for bench in dcatch::all_benchmarks() {
        let free = Pipeline::run(&bench, &plain).expect("ungoverned run");
        assert!(
            free.degradations.is_empty(),
            "{}: no budgets set means no degradations",
            bench.id
        );
        let report = Pipeline::run(&bench, &opts)
            .unwrap_or_else(|e| panic!("{} must survive a 2 KiB budget: {e}", bench.id));
        assert_degraded_soundly(bench.id, &report, &free);
        degradations += report.degradations.len();
        sampled += usize::from(has_step(&report, "tracing", "sampled_1_in_"));
    }
    assert!(
        degradations > 0,
        "a 2 KiB budget must force degradation steps somewhere in the suite"
    );
    assert!(
        sampled > 0,
        "some miniature's trace exceeds 2 KiB and is re-traced sampled"
    );
}

/// The ladder's last memory rung — streaming detection under a window
/// cap — for every benchmark. The miniatures' matrix is smaller than their
/// trace, so a flat budget stops at the sampling rung above; pinning the
/// clock engine and sizing the budget from the trace makes the index
/// bind: at the trace size the trace fits and only the index does not, at
/// half of it the sampling rung fires first and the sampled
/// schedule is the one streamed.
#[test]
fn last_memory_rung_is_the_streaming_window_and_never_invents() {
    let plain = PipelineOptions::full();
    let mut governed = PipelineOptions::full();
    governed.hb.reachability = dcatch::ReachabilityMode::Clocks;
    for bench in dcatch::all_benchmarks() {
        let free = Pipeline::run(&bench, &plain).expect("ungoverned run");
        for (divisor, expect_sampling) in [(1, false), (2, true)] {
            governed.mem_budget = Some(free.trace_bytes / divisor);
            let report = Pipeline::run(&bench, &governed)
                .unwrap_or_else(|e| panic!("{} must survive a tiny budget: {e}", bench.id));
            let steps = &report.degradations;
            assert_degraded_soundly(bench.id, &report, &free);
            assert_eq!(
                has_step(&report, "tracing", "sampled_1_in_"),
                expect_sampling,
                "{}: {steps:?}",
                bench.id
            );
            assert!(
                has_step(&report, "trace_analysis", "streaming")
                    && has_step(&report, "streaming", "window_"),
                "{}: the last memory rung is the streaming window: {steps:?}",
                bench.id
            );
            assert!(report.streaming.is_some(), "{}", bench.id);
        }
    }
}

/// The user's own `--budget` (the reachability-index ceiling) is honoured
/// by a governed run even when `--mem-budget` is far larger: with a
/// governor installed an index that does not fit degrades, in ladder
/// order, instead of producing the Table 8 OOM report it does without one
/// (`tests/pipeline.rs`).
#[test]
fn index_budget_below_mem_budget_degrades_in_ladder_order() {
    let mut opts = PipelineOptions::full();
    opts.hb.memory_budget_bytes = 64;
    let bench = dcatch::all_benchmarks().remove(0);
    let free = Pipeline::run(&bench, &PipelineOptions::full()).expect("ungoverned run");
    let index_steps = |report: &BenchmarkReport| -> Vec<String> {
        report
            .degradations
            .iter()
            .filter(|d| d.stage == "trace_analysis")
            .map(|d| format!("{} → {}", d.from, d.to))
            .collect()
    };
    opts.mem_budget = Some(1 << 40);
    let report = Pipeline::run(&bench, &opts).expect("runs");
    assert_degraded_soundly(bench.id, &report, &free);
    // `Auto` ends with the smaller index and never with one that does not
    // fit: the user's 64 B rule both out, the step names the mode that was
    // configured, and the one rung below it is the streaming window
    assert_eq!(index_steps(&report), ["auto → streaming"]);

    // the same single step when the governed ceiling is what binds
    opts.hb = PipelineOptions::full().hb;
    opts.mem_budget = Some(256);
    let report = Pipeline::run(&bench, &opts).expect("runs");
    assert_degraded_soundly(bench.id, &report, &free);
    assert_eq!(index_steps(&report), ["auto → streaming"]);

    // a forced engine is the one the ladder gives up on
    opts.hb.reachability = dcatch::ReachabilityMode::Clocks;
    let report = Pipeline::run(&bench, &opts).expect("runs");
    assert_degraded_soundly(bench.id, &report, &free);
    assert_eq!(index_steps(&report), ["clocks → streaming"]);
}

/// Serializes one run with wall-clock fields scrubbed (the byte-stable
/// projection the CLI's `--scrub-timings` compares).
fn scrubbed(mut report: BenchmarkReport) -> String {
    report.scrub_timings();
    dcatch::report_json::run_report(&[report]).to_pretty()
}

/// Property (per benchmark): a governor whose budgets are far above any
/// real footprint never fires a rung, and the report is byte-identical to
/// a governor-less run.
#[test]
fn ample_budget_is_equivalent_to_no_governor() {
    let plain = PipelineOptions::full();
    let mut governed = PipelineOptions::full();
    governed.mem_budget = Some(1 << 40);
    governed.time_budget = Some(std::time::Duration::from_secs(3600));
    for bench in dcatch::all_benchmarks() {
        let free = Pipeline::run(&bench, &plain).expect("run succeeds");
        let report = Pipeline::run(&bench, &governed).expect("governed run succeeds");
        assert!(
            report.degradations.is_empty(),
            "{}: an ample budget must never degrade",
            bench.id
        );
        assert_eq!(
            scrubbed(report),
            scrubbed(free),
            "{}: governor with slack must not change the report",
            bench.id
        );
    }
}
