//! `dcatch` — command-line front end for the detection pipeline.
//!
//! ```text
//! dcatch list
//! dcatch detect      <BUG-ID|all> [flags]
//! dcatch stats       <BUG-ID> [flags]
//! dcatch trace       <BUG-ID> [flags]
//! dcatch timeline    <BUG-ID> [flags]
//! dcatch explain     <BUG-ID> <OBJECT> [flags]
//! dcatch faults      <BUG-ID|all> [flags]
//! dcatch synth       [flags]
//! dcatch streambench [flags]
//! dcatch tables      <N> [flags]
//! ```
//!
//! Each subcommand's flags are one table in [`dcatch::cli`]: `dcatch
//! <command> --help` prints it, and a flag it does not list, a repeated
//! flag, a missing value or a stray positional is a usage error (exit 1)
//! that prints the subcommand's synopsis.
//!
//! `explain` prints, for the named shared object, which access pairs the
//! HB analysis orders (with the full hop-by-hop rule chain, à la the
//! paper's Figure 3) and which it reports as concurrent; `--json` emits
//! the same chains machine-readably. `stats` prints the Table-7 trace
//! record breakdown for one benchmark's correct run. `timeline` runs the
//! benchmark once and exports the execution as Chrome/Perfetto
//! trace-event JSON — one lane per (node, task), message sends/receives
//! as flow arrows, fault injections as instant markers; load the file at
//! `ui.perfetto.dev`. The file is byte-identical for a given seed.
//!
//! `synth` is the generative protocol fuzzer: it emits `--count` seeded
//! scenarios per protocol with 0..k *planted* order/atomicity violations
//! recorded as ground truth, runs each through the full pipeline (fault
//! plan, governor, triggering farm engaged), and scores detected Harmful
//! candidates against the plants into a recall/precision report (the
//! run report's `synth` section). Any miss, false positive, or pipeline
//! failure is deterministically *shrunk* to the smallest still-reproducing
//! scenario and written to the quarantine directory as a replayable case;
//! `--replay FILE` re-runs one. Exit codes: 0 clean, 2 on any scoring
//! discrepancy, 3/5/6 on pipeline failures, folded worst-wins across the
//! batch. Output is byte-deterministic for a given seed.
//!
//! Multi-benchmark runs (`detect all`, `faults all`, `synth`) paint a
//! live progress line on stderr when it is a terminal
//! (`DCATCH_PROGRESS=1/0` overrides).
//!
//! `streambench` measures the streaming detector on a synthetic two-node
//! ping-pong workload whose trace grows linearly with `--records` while
//! the online window stays O(1): it drives `World::run_streamed` straight
//! into an `OnlineDetector` (no materialized trace) and reports records,
//! window peak, retirements, and the resident-memory estimate. Exit code
//! 2 if the planted racer pair is not the sole surviving candidate.
//!
//! `tables N` prints Table N (1..9) of the paper's evaluation (§7) as
//! regenerated on the miniatures; tables 6 and 8 print wall-clock columns.
//!
//! `detect` exit codes (worst across the batch wins; documented in the
//! README):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success — every known bug confirmed, or the run degraded under an explicit budget |
//! | 1    | usage error (unknown flag, bad value, unreadable file, journal mismatch) |
//! | 2    | a known bug was not confirmed by an undegraded triggering run |
//! | 3    | the (traced) run itself failed |
//! | 4    | HB analysis ran out of memory |
//! | 5    | a benchmark worker panicked |
//! | 6    | a benchmark exceeded the `--timeout` watchdog |

use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::time::Duration;

use dcatch::cli::{self, Parsed};
use dcatch::journal::Journal;
use dcatch::report_json::{self, SCHEMA_VERSION};
use dcatch::{
    Ablation, HbConfig, Pipeline, PipelineOptions, SimConfig, TraceStats, TracingMode, Verdict,
    World,
};
use dcatch_obs::Json;

/// What every subcommand returns: its exit code, or the usage / IO error
/// message `main` prints before exiting 1.
type Cmd = Result<ExitCode, String>;

/// Writes to stdout for a reader that may leave early: on a closed pipe
/// (`dcatch list | head -1`) the process ends quietly — `print!` would
/// panic; any other write error is reported and exits 1.
fn out(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let Some(command) = cli::COMMANDS.iter().find(|c| c.name == name) else {
        let names: Vec<&str> = cli::COMMANDS.iter().map(|c| c.name).collect();
        eprintln!("usage: dcatch <{}> [--help]", names.join("|"));
        return ExitCode::FAILURE;
    };
    let parsed = match cli::parse(command, &args[1..]) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            outln!("{}", command.help());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{}", command.usage());
            return ExitCode::FAILURE;
        }
    };
    let run = match command.name {
        "list" => list,
        "detect" => detect,
        "stats" => stats,
        "trace" => trace,
        "timeline" => timeline,
        "explain" => explain,
        "faults" => faults,
        "synth" => synth,
        "streambench" => streambench,
        "tables" => tables,
        other => unreachable!("no subcommand `{other}`"),
    };
    dcatch_obs::trace::set_verbose(parsed.on("--verbose"));
    run(&parsed).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn list(_: &Parsed) -> Cmd {
    outln!("available benchmarks (TaxDC suite miniatures):");
    for b in dcatch::all_benchmarks() {
        outln!(
            "  {:8} {:10} {:30} {} / {}",
            b.id,
            b.system.name(),
            b.workload,
            b.error.abbrev(),
            b.root.abbrev()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--timeout` watchdog. A zero limit is refused: it would race each
/// run against its own watchdog, and which one won would decide the
/// output.
fn watchdog(p: &Parsed) -> Result<Option<Duration>, String> {
    match p.get("--timeout")? {
        Some(0) => Err("`--timeout 0` would race every run against its watchdog; \
                        `--time-budget 0` is the way to shed work"
            .to_owned()),
        secs => Ok(secs.map(Duration::from_secs)),
    }
}

/// The options `detect` and `synth` share: the full pipeline under the
/// governed-pipeline flags.
fn governed_options(p: &Parsed) -> Result<PipelineOptions, String> {
    Ok(PipelineOptions {
        trigger_jobs: p.value::<NonZeroUsize>("--trigger-jobs")?.get(),
        timeout: watchdog(p)?,
        mem_budget: p.str("--mem-budget").map(dcatch::parse_bytes).transpose()?,
        time_budget: p.get("--time-budget")?.map(Duration::from_secs),
        ..PipelineOptions::full()
    })
}

fn detect_options(p: &Parsed) -> Result<PipelineOptions, String> {
    let mut opts = governed_options(p)?;
    opts.seed = p.get("--seed")?;
    if p.on("--full-tracing") {
        opts.tracing = TracingMode::Full;
    }
    opts.static_pruning = !p.on("--no-prune");
    opts.loop_sync = !p.on("--no-loop-sync");
    opts.triggering = !p.on("--no-trigger");
    if let Some(spec) = p.str("--budget") {
        opts.hb.memory_budget_bytes = dcatch::parse_bytes(spec)?;
    }
    if let Some(engine) = p.str("--reachability") {
        opts.hb.reachability = engine.parse()?;
    }
    if let Some(k) = p.str("--ablation") {
        let ablation = Ablation::TABLE9
            .into_iter()
            .find(|a| a.label().strip_prefix('-') == Some(k));
        opts.ablation = ablation.ok_or_else(|| format!("unknown ablation `{k}`"))?;
    }
    if let Some(path) = p.str("--fault-plan") {
        opts.faults = cli::load_fault_plan(path)?;
    }
    opts.fault_target = p.str("--fault-target").map(str::to_owned);
    opts.streaming = p.on("--streaming");
    opts.stream_window = p
        .get::<NonZeroUsize>("--stream-window")?
        .map(NonZeroUsize::get);
    if opts.stream_window.is_some() && !opts.streaming {
        return Err("`--stream-window` requires `--streaming`".to_owned());
    }
    Ok(opts)
}

/// The benchmarks `id` names at `scale` (`all`, or one id): never empty.
fn benchmarks_for(id: &str, scale: u32) -> Result<Vec<dcatch::Benchmark>, String> {
    let mut benches = dcatch::all_benchmarks_scaled(scale);
    if !id.eq_ignore_ascii_case("all") {
        benches.retain(|b| b.id.eq_ignore_ascii_case(id));
    }
    if benches.is_empty() {
        return Err(format!("unknown benchmark `{id}` — try `dcatch list`"));
    }
    Ok(benches)
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes a JSON document to `--out FILE` or stdout.
fn emit_json(doc: &Json, p: &Parsed) -> Result<(), String> {
    let text = doc.to_pretty();
    match p.str("--out") {
        Some(path) => write_file(path, text.as_bytes()),
        None => {
            outln!("{text}");
            Ok(())
        }
    }
}

/// The one resumable batch loop, shared by `detect` and `synth`: runs
/// `run` over `items` on `--jobs` workers behind a live progress line and
/// returns one `(entry, fresh)` per item, in input order.
///
/// With `--resume FILE`, each entry is appended to the journal the moment
/// it exists — by whichever thread ran the item, so a kill at any point
/// leaves a resumable journal — and items the journal already finished
/// are not run: their journaled entry is spliced in with `fresh` =
/// `None`. The journal is pinned to [`cli::fingerprint`]: resuming under
/// flags that shape an entry differently is refused rather than splicing
/// incomparable entries.
fn run_resumable<T: Sync, R: Send>(
    p: &Parsed,
    items: &[T],
    id_of: impl Fn(&T) -> String,
    run: impl Fn(&T) -> (Json, R) + Sync,
    degraded: impl Fn(&Json) -> bool + Sync,
) -> Result<Vec<(Json, Option<R>)>, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let jobs = p.value::<NonZeroUsize>("--jobs")?.get();
    let journal = p
        .str("--resume")
        .map(|path| Journal::open_or_create(path.as_ref(), &cli::fingerprint(p)?))
        .transpose()?;
    let ids: Vec<String> = items.iter().map(id_of).collect();
    let journaled = |id: &String| journal.as_ref().filter(|j| j.finished_ok(id));
    let pending: Vec<usize> = (0..items.len())
        .filter(|&i| journaled(&ids[i]).is_none())
        .collect();
    let progress = dcatch_obs::Progress::with_enabled(
        p.command.name,
        pending.iter().map(|&i| ids[i].clone()),
        pending.len() > 1 && !p.on("--verbose") && dcatch_obs::progress::stderr_wants_progress(),
    );
    // test hook: die as abruptly as a crash would, K checkpoints in
    let exit_after: Option<usize> = std::env::var("DCATCH_TEST_EXIT_AFTER")
        .ok()
        .and_then(|v| v.parse().ok());
    let recorded = AtomicUsize::new(0);
    let mut fresh = dcatch::steal_map(jobs, pending.len(), |k| {
        let i = pending[k];
        progress.start(k);
        let (entry, result) = run(&items[i]);
        if let Some(j) = &journal {
            if let Err(e) = j.record(&ids[i], &entry) {
                eprintln!("{e}");
            }
            if exit_after.is_some_and(|k| recorded.fetch_add(1, Ordering::SeqCst) + 1 >= k) {
                std::process::exit(70);
            }
        }
        progress.complete(k, degraded(&entry));
        Some((entry, Some(result)))
    })
    .into_iter();
    progress.finish();
    Ok(ids
        .iter()
        .map(|id| match journaled(id) {
            Some(j) => (j.completed()[id].clone(), None),
            None => fresh
                .next()
                .flatten()
                .expect("one outcome per pending item"),
        })
        .collect())
}

fn detect(p: &Parsed) -> Cmd {
    let benches = benchmarks_for(&p.positionals[0], p.value::<NonZeroU32>("--scale")?.get())?;
    let opts = detect_options(p)?;
    let json = p.on("--json");
    let profile = p.on("--profile") || p.on("--profile-out");
    if profile && p.on("--resume") {
        return Err("--resume cannot be combined with --profile".to_owned());
    }
    let mut outcomes = run_resumable(
        p,
        &benches,
        |b| b.id.to_owned(),
        |b| {
            let result = Pipeline::run_guarded(b, &opts);
            (report_json::result_json(b.id, &result, profile), result)
        },
        |entry| report_json::entry_error(entry).is_some(),
    )?;
    if p.on("--scrub-timings") {
        for (entry, fresh) in &mut outcomes {
            report_json::scrub_entry(entry);
            if let Some(Ok(r)) = fresh {
                r.scrub_timings();
            }
        }
    }
    // Walk the benchmarks in order, folding every outcome — fresh or
    // journaled — into the worst process exit code (see the table in the
    // module docs); errored benchmarks stay in the report as entries.
    let mut worst: u8 = 0;
    for (b, (entry, fresh)) in benches.iter().zip(&outcomes) {
        worst = worst.max(entry_exit_code(entry, opts.triggering));
        if json {
            if let Some(Err(e)) = fresh {
                eprintln!("{}: {e}", b.id);
            }
            continue;
        }
        outln!("== {} ({}) ==", b.id, b.system.name());
        match fresh {
            None => outln!("  finished in an earlier run — resumed from journal"),
            Some(Ok(r)) => {
                print_report(r, &opts, p.on("--metrics"));
                if profile {
                    print_profile(r);
                }
            }
            Some(Err(e)) => outln!("  error: {e}"),
        }
    }
    let (entries, fresh): (Vec<Json>, Vec<_>) = outcomes.into_iter().unzip();
    if profile {
        // `--resume` is excluded above, so every outcome is a fresh one
        let ids = benches.iter().map(|b| b.id);
        let results: Vec<_> = ids.zip(fresh.into_iter().flatten()).collect();
        let doc = dcatch::profile_timeline(&results).to_json();
        let summary = dcatch_obs::timeline::validate(&doc)
            .map_err(|e| format!("internal error: profile timeline failed validation: {e}"))?;
        let path: String = p.value("--profile-out")?;
        write_file(&path, doc.to_pretty().as_bytes())?;
        eprintln!(
            "profile timeline: {} events, {} lanes -> {path}",
            summary.events,
            summary.lanes / 2
        );
    }
    if json {
        emit_json(&report_json::report_doc(entries), p)?;
    }
    Ok(ExitCode::from(worst))
}

/// The exit code one benchmark's report entry maps to: 3/5/6 from a
/// structured error, 4 = HB analysis ran out of memory, 2 = the known bug
/// went unconfirmed by an *undegraded* triggering run. A degraded run
/// exits 0 — its verdict is provisional by construction, and the
/// degradations are recorded in the report. Reads the entry, not the
/// struct, so benchmarks skipped by `--resume` contribute the same way.
fn entry_exit_code(entry: &Json, triggering: bool) -> u8 {
    if let Some(code) = report_json::error_exit_code(entry) {
        return code;
    }
    if entry.get("oom").is_some_and(|v| !v.is_null()) {
        return 4;
    }
    let detected = entry.get("detected_known_bug").and_then(Json::as_bool) == Some(true);
    let degraded = entry
        .get("degradations")
        .and_then(Json::as_arr)
        .is_some_and(|a| !a.is_empty());
    if triggering && !detected && !degraded {
        2
    } else {
        0
    }
}

/// Human-mode per-stage profile block (`detect … --profile`).
fn print_profile(r: &dcatch::BenchmarkReport) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1000.0;
    let t = &r.timings;
    outln!(
        "  profile: tracing {:.2}ms | streaming {:.2}ms | analysis {:.2}ms | pruning {:.2}ms | \
         loop-sync {:.2}ms | triggering {:.2}ms | total {:.2}ms",
        ms(t.tracing),
        ms(t.streaming),
        ms(t.trace_analysis),
        ms(t.static_pruning),
        ms(t.loop_sync),
        ms(t.triggering),
        ms(r.spans.total),
    );
    outln!(
        "  profile: reach index peak {} bytes; candidates TA {} → SP {} → LP {}",
        r.metrics.gauge("hb_reach_bytes_peak"),
        r.ta_static,
        r.sp_static,
        r.lp_static
    );
    // the step core: every simulator run of every stage, traced or not
    fn sim_time(node: &dcatch_obs::SpanNode) -> std::time::Duration {
        let below = node.children.iter().map(sim_time).sum();
        if node.name == "sim.run" {
            below + node.total
        } else {
            below
        }
    }
    let steps = r.metrics.counter("sim_steps_total");
    outln!(
        "  profile: simulator {} runs, {} executed steps, {} full scans, {:.1} ns/step, \
         {} forked, {} shared order runs",
        r.metrics.counter("sim_runs_total"),
        steps,
        r.metrics.counter("sim_sched_rebuilds_total"),
        sim_time(&r.spans).as_nanos() as f64 / steps.max(1) as f64,
        r.metrics.counter("trigger_runs_forked_total"),
        r.metrics.counter("trigger_runs_shared_total"),
    );
}

/// `dcatch faults <BUG-ID|all>` — runs each benchmark's simulation under a
/// fault plan (from `--fault-plan`, or the built-in per-family matrix) for
/// each seed in `--seeds`, and reports whether the run completed cleanly
/// or degraded into classified failures. Exit code follows the `detect`
/// table: 2 when a run neither completes nor reports failures (a silent
/// wedge), 3 when the simulation itself errors, 5/6 for panics and
/// `--timeout` watchdog kills; the worst across the grid wins.
///
/// The benchmark × scenario × seed grid is drained by the same
/// work-stealing pool the triggering farm uses (`--trigger-jobs N`), with
/// a deterministic grid-order merge — rows and exit code are identical
/// for any N.
fn faults(p: &Parsed) -> Cmd {
    let tjobs = p.value::<NonZeroUsize>("--trigger-jobs")?.get();
    let timeout = watchdog(p)?;
    let benches = benchmarks_for(&p.positionals[0], p.value::<NonZeroU32>("--scale")?.get())?;
    let csv: String = p.value("--seeds")?;
    let seeds: Vec<u64> = csv
        .split(',')
        .map(|s| s.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("invalid value `{csv}` for `--seeds` (expected e.g. 1,2,3)"))?;
    let custom = p
        .str("--fault-plan")
        .map(cli::load_fault_plan)
        .transpose()?;
    let json = p.on("--json");
    // Flatten the benchmark × scenario × seed grid into one job list.
    // Workers drain it out of order; the merge below walks it in grid
    // order, so output is independent of `tjobs`.
    struct FaultJob<'a> {
        bi: usize,
        bench: &'a dcatch::Benchmark,
        scenario: String,
        plan: dcatch::FaultPlan,
        seed: u64,
    }
    let mut jobs: Vec<FaultJob> = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        let scenarios: Vec<(String, dcatch::FaultPlan)> = match &custom {
            Some(plan) => vec![("custom".to_owned(), plan.clone())],
            None => dcatch::fault_scenarios(b)
                .into_iter()
                .map(|s| (s.name.to_owned(), s.plan))
                .collect(),
        };
        for (name, plan) in scenarios {
            for &seed in &seeds {
                jobs.push(FaultJob {
                    bi,
                    bench: b,
                    scenario: name.clone(),
                    plan: plan.clone(),
                    seed,
                });
            }
        }
    }
    let progress = dcatch_obs::Progress::with_enabled(
        "faults",
        benches.iter().map(|b| b.id.to_owned()),
        benches.len() > 1 && dcatch_obs::progress::stderr_wants_progress(),
    );
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let started: Vec<AtomicBool> = benches.iter().map(|_| AtomicBool::new(false)).collect();
    let bench_wedged: Vec<AtomicBool> = benches.iter().map(|_| AtomicBool::new(false)).collect();
    let remaining: Vec<AtomicUsize> = benches
        .iter()
        .enumerate()
        .map(|(bi, _)| AtomicUsize::new(jobs.iter().filter(|j| j.bi == bi).count()))
        .collect();
    let outcomes = dcatch::steal_map(tjobs, jobs.len(), |i| {
        let job = &jobs[i];
        if !started[job.bi].swap(true, Ordering::Relaxed) {
            progress.start(job.bi);
        }
        let cfg = SimConfig::default()
            .with_seed(job.seed)
            .with_faults(job.plan.clone());
        // every scenario run gets the panic guard the detect pipeline
        // applies per benchmark; `--timeout` adds its watchdog
        let program = job.bench.program.clone();
        let topology = job.bench.topology.clone();
        let name = format!("dcatch-faults-{}", job.bench.id);
        let run_result = dcatch::run_bounded(&name, timeout, move || {
            World::run_once(&program, &topology, cfg)
        });
        let result = match run_result {
            Ok(Ok(run)) => {
                // a faulted run must end in a *classified* state
                if !run.completed && run.failures.is_empty() {
                    bench_wedged[job.bi].store(true, Ordering::Relaxed);
                }
                let failures: Vec<String> = run.failures.iter().map(|f| f.to_string()).collect();
                Ok((run.completed, failures, run.faults_injected))
            }
            Ok(Err(e)) => Err((format!("{}: {e}", job.bench.id), 3)),
            Err(e) => {
                bench_wedged[job.bi].store(true, Ordering::Relaxed);
                Err((format!("{}: {e}", job.bench.id), e.exit_code()))
            }
        };
        if remaining[job.bi].fetch_sub(1, Ordering::Relaxed) == 1 {
            progress.complete(job.bi, bench_wedged[job.bi].load(Ordering::Relaxed));
        }
        Some(result)
    });
    progress.finish();
    let mut rows = Vec::new();
    let mut worst: u8 = 0;
    for (job, outcome) in jobs.iter().zip(outcomes) {
        // a `--json` row: the job's grid coordinates, then its outcome
        let row = |outcome: Vec<(&'static str, Json)>| {
            let mut fields = vec![
                ("id", Json::Str(job.bench.id.to_owned())),
                ("scenario", Json::Str(job.scenario.clone())),
                ("seed", Json::UInt(job.seed)),
            ];
            fields.extend(outcome);
            Json::obj(fields)
        };
        let (completed, failures, faults_injected) = match outcome.expect("every fault job runs") {
            Ok(o) => o,
            Err((msg, code)) => {
                worst = worst.max(code);
                if json {
                    rows.push(row(vec![("error", Json::Str(msg))]));
                } else {
                    outln!(
                        "{:8} {:18} seed={:<4} ERROR {msg}",
                        job.bench.id,
                        job.scenario,
                        job.seed
                    );
                }
                continue;
            }
        };
        let wedged = !completed && failures.is_empty();
        if wedged {
            worst = worst.max(2);
        }
        if json {
            let failures = failures.into_iter().map(Json::Str).collect();
            rows.push(row(vec![
                ("completed", Json::Bool(completed)),
                ("failures", Json::Arr(failures)),
                ("faults_injected", Json::UInt(faults_injected)),
            ]));
        } else {
            let outcome = if completed {
                "completed".to_owned()
            } else if wedged {
                "WEDGED".to_owned()
            } else {
                format!("{} failure(s)", failures.len())
            };
            outln!(
                "{:8} {:18} seed={:<4} faults={:<3} {}",
                job.bench.id,
                job.scenario,
                job.seed,
                faults_injected,
                outcome
            );
        }
    }
    if json {
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("runs", Json::Arr(rows)),
        ]);
        emit_json(&doc, p)?;
    }
    Ok(ExitCode::from(worst))
}

/// `dcatch synth` — the generative protocol fuzzer (recall gate).
///
/// Generates `--count` seeded scenarios per protocol (`--seed N` is the
/// *generator* base seed; scenario `i` uses `N + i`), runs each through
/// the full detection pipeline with its generated fault plan, and scores
/// the Harmful verdicts against the planted ground-truth bugs. Misses,
/// false positives, and pipeline failures are shrunk to minimal
/// reproductions and written to the quarantine directory
/// (`--quarantine DIR`, default `synth-quarantine`; `--no-shrink`
/// disables). `--replay FILE` re-runs a quarantined case. Exit code: 0
/// clean, 2 on any scoring discrepancy, 3/5/6 on pipeline failures.
fn synth(p: &Parsed) -> Cmd {
    use dcatch::synth::{row_exit_code, score_json, SynthBatchConfig};
    use dcatch_apps::synth::{Protocol, ScenarioSpec};

    // each scenario runs under its own spec seed: `--seed` is the
    // generator's base seed, not a scheduler override
    let opts = governed_options(p)?;
    let protocols = match p.str("--protocol") {
        Some(s) => vec![Protocol::parse(s)
            .ok_or_else(|| format!("unknown protocol `{s}` (expected le, 2pc, pb, or gossip)"))?],
        None => Protocol::all().to_vec(),
    };
    let mut cfg = SynthBatchConfig {
        protocols,
        base_seed: p.value("--seed")?,
        count: p.value::<NonZeroU32>("--count")?.get(),
        workers: p.get("--nodes")?,
        clients: p.get("--clients")?,
        fan_out: p.get("--fan-out")?,
        bugs: p.get("--bugs")?,
        quarantine_dir: (!p.on("--no-shrink"))
            .then(|| p.value("--quarantine"))
            .transpose()?,
        shrink_budget: p.value("--shrink-budget")?,
    };

    // --replay FILE: one quarantined case (or bare spec), no journal
    if let Some(path) = p.str("--replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = dcatch_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let spec_doc = doc.get("spec").unwrap_or(&doc);
        let spec = ScenarioSpec::from_json(spec_doc).map_err(|e| format!("{path}: {e}"))?;
        cfg.protocols = vec![spec.protocol];
        let row = score_json(&dcatch::run_scenario(&spec, &opts, &cfg));
        return synth_emit(&cfg, vec![row], p);
    }

    let specs = dcatch::batch_specs(&cfg);
    if let Some(path) = p.str("--fault-plan-out") {
        if specs.len() != 1 {
            return Err(
                "--fault-plan-out needs exactly one scenario (--count 1 and a single --protocol)"
                    .to_owned(),
            );
        }
        write_file(path, specs[0].fault_plan.as_bytes())?;
    }
    // crash-safe resume: same journal as `detect`, keyed by scenario id
    let outcomes = run_resumable(
        p,
        &specs,
        ScenarioSpec::id,
        |spec| (score_json(&dcatch::run_scenario(spec, &opts, &cfg)), ()),
        |row| row_exit_code(row) != 0,
    )?;
    let rows = outcomes.into_iter().map(|(row, _)| row).collect();
    synth_emit(&cfg, rows, p)
}

/// Prints/emits a synth batch report and folds rows into the exit code.
fn synth_emit(cfg: &dcatch::synth::SynthBatchConfig, rows: Vec<Json>, p: &Parsed) -> Cmd {
    let worst = rows
        .iter()
        .map(dcatch::synth::row_exit_code)
        .max()
        .unwrap_or(0);
    let doc = dcatch::synth::synth_report_doc(cfg, &rows);
    if p.on("--json") {
        emit_json(&doc, p)?;
        return Ok(ExitCode::from(worst));
    }
    let num = |row: &Json, k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    for row in &rows {
        let id = row.get("id").and_then(Json::as_str).unwrap_or("?");
        if let Some(err) = report_json::entry_error(row) {
            let msg = err.get("message").and_then(Json::as_str).unwrap_or("?");
            outln!("{id:24} ERROR {msg}");
            continue;
        }
        let quarantined = row
            .get("quarantined")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        let status = if dcatch::synth::row_exit_code(row) == 0 {
            "ok".to_owned()
        } else {
            format!("DISCREPANCY ({quarantined} quarantined)")
        };
        outln!(
            "{id:24} planted={} detected={} fp={} faults={} {status}",
            num(row, "planted"),
            num(row, "detected"),
            num(row, "false_positives"),
            num(row, "faults_injected"),
        );
    }
    if let Some(protos) = doc
        .get("synth")
        .and_then(|s| s.get("protocols"))
        .and_then(Json::as_arr)
    {
        for proto in protos {
            let planted = num(proto, "planted");
            let detected = num(proto, "detected");
            let recall = if planted == 0 {
                100.0
            } else {
                detected as f64 * 100.0 / planted as f64
            };
            outln!(
                "protocol {:8} scenarios={} recall {detected}/{planted} ({recall:.0}%) fp={} errors={}",
                proto.get("protocol").and_then(Json::as_str).unwrap_or("?"),
                num(proto, "scenarios"),
                num(proto, "false_positives"),
                num(proto, "errors"),
            );
        }
    }
    Ok(ExitCode::from(worst))
}

fn print_report(r: &dcatch::BenchmarkReport, opts: &PipelineOptions, show_metrics: bool) {
    for d in &r.degradations {
        outln!(
            "  degraded: {}: {} → {} ({})",
            d.stage,
            d.from,
            d.to,
            d.reason
        );
    }
    if let Some(oom) = &r.oom {
        outln!("  trace: {} records; {oom}", r.trace_stats.total);
        return;
    }
    outln!(
        "  candidates: TA {} → +SP {} → +LP {} (callstack: {}/{}/{})",
        r.ta_static,
        r.sp_static,
        r.lp_static,
        r.ta_stacks,
        r.sp_stacks,
        r.lp_stacks
    );
    if let Some(s) = &r.streaming {
        outln!(
            "  streaming: window peak {} entries, {} retired, {} force-evicted, ~{} bytes resident",
            s.window_peak,
            s.records_retired,
            s.records_forced,
            s.peak_bytes
        );
    }
    for rep in &r.reports {
        let verdict = match rep.verdict {
            Some(Verdict::Harmful) => "HARMFUL",
            Some(Verdict::BenignRace) => "benign",
            Some(Verdict::Serial) => "serial",
            None => "candidate",
        };
        outln!(
            "  [{verdict:9}] {} × {}  on `{}`{}",
            rep.candidate.static_pair.0,
            rep.candidate.static_pair.1,
            rep.object(),
            if rep.known_bug_object {
                "  (known bug)"
            } else {
                ""
            }
        );
        for f in &rep.failures {
            outln!("      {f}");
        }
    }
    if opts.triggering {
        outln!(
            "  known bug {}",
            if r.detected_known_bug {
                "CONFIRMED HARMFUL"
            } else if r.degradations.is_empty() {
                "NOT confirmed"
            } else {
                "NOT confirmed (degraded run — verdict provisional)"
            }
        );
    }
    if show_metrics {
        outln!("  metrics:");
        for (name, value) in &r.metrics.counters {
            outln!("    {name:40} {value}");
        }
        for (name, value) in &r.metrics.gauges {
            outln!("    {name:40} {value} (gauge)");
        }
    }
}

/// The preamble `stats`, `trace` and `timeline` share: resolve the
/// BUG-ID at `--scale`, then run its simulation once under `--seed`,
/// `--full-tracing` and (`timeline` only) `--fault-plan`.
fn run_one(p: &Parsed) -> Result<(dcatch::Benchmark, dcatch::RunResult), String> {
    let seed = p.get("--seed")?;
    let b =
        benchmarks_for(&p.positionals[0], p.value::<NonZeroU32>("--scale")?.get())?.swap_remove(0);
    let mut cfg = SimConfig::default().with_seed(seed.unwrap_or(b.seed));
    if p.on("--full-tracing") {
        cfg.tracing = TracingMode::Full;
    }
    if let Some(path) = p.str("--fault-plan") {
        cfg = cfg.with_faults(cli::load_fault_plan(path)?);
    }
    let run = World::run_once(&b.program, &b.topology, cfg).map_err(|e| e.to_string())?;
    Ok((b, run))
}

fn stats(p: &Parsed) -> Cmd {
    let (b, run) = run_one(p)?;
    let s = TraceStats::of(run.trace.records());
    let bytes = run.trace.byte_size();
    if p.on("--json") {
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("id", Json::Str(b.id.to_string())),
            ("bytes", Json::UInt(bytes as u64)),
            ("stats", report_json::trace_stats_json(&s)),
        ]);
        emit_json(&doc, p)?;
        return Ok(ExitCode::SUCCESS);
    }
    // Table-7 style breakdown
    outln!("{}: {} trace records, {} bytes", b.id, s.total, bytes);
    let rows: &[(&str, usize)] = &[
        ("memory accesses", s.mem),
        ("rpc", s.rpc),
        ("socket", s.socket),
        ("event", s.event),
        ("thread", s.thread),
        ("lock", s.lock),
        ("zookeeper push", s.zk),
        ("loop markers", s.loops),
    ];
    for (label, count) in rows {
        let pct = 100.0 * *count as f64 / s.total.max(1) as f64;
        outln!("  {label:16} {count:8}  ({pct:5.1}%)");
    }
    Ok(ExitCode::SUCCESS)
}

fn trace(p: &Parsed) -> Cmd {
    let (_, run) = run_one(p)?;
    let lines = run.trace.to_lines();
    if let Some(path) = p.str("--out") {
        write_file(path, lines.as_bytes())?;
        outln!(
            "wrote {} records ({} bytes) to {path}",
            run.trace.len(),
            lines.len()
        );
    } else {
        out(format_args!("{lines}"));
    }
    Ok(ExitCode::SUCCESS)
}

/// `dcatch timeline <BUG-ID>` — runs the benchmark's simulation once and
/// exports the execution as a Chrome/Perfetto trace-event timeline: one
/// lane per (node, task), flow arrows for messages, instant markers for
/// fault injections. The document is validated before it is written, and
/// is byte-identical for a given (benchmark, seed, fault plan).
fn timeline(p: &Parsed) -> Cmd {
    let (b, run) = run_one(p)?;
    let doc = dcatch::trace_timeline(&run.trace).to_json();
    let summary = dcatch_obs::timeline::validate(&doc)
        .map_err(|e| format!("internal error: timeline failed validation: {e}"))?;
    emit_json(&doc, p)?;
    // summary on stderr so `--out`-less stdout stays pure JSON
    eprintln!(
        "{}: {} events, {} flows, {} lanes (load at ui.perfetto.dev)",
        b.id,
        summary.events,
        summary.flows,
        summary.lanes / 2
    );
    Ok(ExitCode::SUCCESS)
}

fn explain(p: &Parsed) -> Cmd {
    let (id, object) = (&p.positionals[0], &p.positionals[1]);
    let b = benchmarks_for(id, 1)?.swap_remove(0);
    let cfg = SimConfig::default().with_seed(b.seed);
    let run = World::run_once(&b.program, &b.topology, cfg).map_err(|e| e.to_string())?;
    let hb =
        dcatch::HbAnalysis::build(run.trace, &HbConfig::default()).map_err(|e| e.to_string())?;
    let (records, names) = (hb.trace().records(), hb.trace().names());
    let accesses: Vec<usize> = (0..records.len())
        .filter(|&i| {
            let loc = records[i].kind.mem_loc();
            loc.is_some_and(|l| names.name(l.object) == object)
        })
        .collect();
    if accesses.is_empty() {
        return Err(format!(
            "no traced accesses to `{object}` in {id}'s correct run"
        ));
    }
    let json = p.on("--json");
    let describe = |i: usize| format!("#{i} {} ({})", records[i].kind.tag(), records[i].task);
    // a record in `--json` output: the fields that place it, then its tag
    // and task
    let record_json = |mut fields: Vec<(&'static str, Json)>, i: usize| {
        fields.push(("tag", Json::Str(records[i].kind.tag().to_owned())));
        fields.push(("task", Json::Str(records[i].task.to_string())));
        Json::obj(fields)
    };
    if !json {
        outln!("{}: {} traced accesses to `{object}`", b.id, accesses.len());
    }
    let mut pairs = Vec::new();
    for (k, &i) in accesses.iter().enumerate() {
        for &j in &accesses[k + 1..] {
            let (a, z) = (i.min(j), i.max(j));
            let label = format!("{} ↔ {}", describe(a), describe(z));
            // the HB chain may run in either direction; capture whichever
            // exists so the printout always shows the full rule derivation
            let (relation, chain) = match hb.explain(a, z) {
                Some(chain) => ("ordered", Some((a, chain))),
                None => match hb.explain(z, a) {
                    Some(chain) => ("ordered_reverse", Some((z, chain))),
                    None => ("concurrent", None),
                },
            };
            if json {
                let hops = chain.iter().flat_map(|(_, hops)| hops).map(|&(to, rule)| {
                    let at = vec![
                        ("rule", Json::Str(format!("{rule:?}"))),
                        ("to", Json::UInt(to as u64)),
                    ];
                    record_json(at, to)
                });
                pairs.push(Json::obj([
                    ("a", Json::UInt(a as u64)),
                    ("b", Json::UInt(z as u64)),
                    ("relation", Json::Str(relation.to_owned())),
                    ("chain", Json::Arr(hops.collect())),
                ]));
                continue;
            }
            match &chain {
                Some((from, hops)) => {
                    let tail = if relation == "ordered_reverse" {
                        " (reverse)"
                    } else {
                        ""
                    };
                    outln!("  ordered   {label}{tail}");
                    outln!("            {}", describe(*from));
                    for &(to, rule) in hops {
                        outln!("              —{rule:?}→ {}", describe(to));
                    }
                }
                None => outln!("  CONCURRENT {label}"),
            }
        }
    }
    if json {
        let accesses = accesses
            .iter()
            .map(|&i| record_json(vec![("index", Json::UInt(i as u64))], i));
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("id", Json::Str(b.id.to_owned())),
            ("object", Json::Str(object.clone())),
            ("accesses", Json::Arr(accesses.collect())),
            ("pairs", Json::Arr(pairs)),
        ]);
        emit_json(&doc, p)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `dcatch streambench` — drives the synthetic ping-pong workload through
/// `World::run_streamed` + `OnlineDetector` (no trace is ever
/// materialized) and reports window/retirement accounting plus wall-clock
/// throughput. The workload plants exactly one racer pair; exit code 2 if
/// the detector does not report exactly that one surviving candidate.
fn streambench(p: &Parsed) -> Cmd {
    let records = p.value::<NonZeroU64>("--records")?.get();
    let window = p
        .get::<NonZeroUsize>("--stream-window")?
        .map(NonZeroUsize::get);
    let seed = p.value("--seed")?;
    let rounds = dcatch::streambench_rounds(records);
    let (program, topo) = dcatch::streambench(rounds);
    // full tracing so the planted racer pair (plain threads, no
    // communication) is visible — the chain's handler accesses are traced
    // either way
    let mut cfg = SimConfig::default().with_seed(seed).with_full_tracing();
    // ~6 interpreter steps per round; leave generous headroom so the step
    // watchdog never fires before the chain drains
    cfg.max_steps = (rounds as u64).saturating_mul(32).max(2_000_000);
    let mut sink = dcatch::OnlineDetector::new(dcatch::OnlineOptions {
        window_cap: window,
        ..dcatch::OnlineOptions::default()
    });
    let started = std::time::Instant::now();
    let failed = match World::run_streamed(&program, &topo, cfg, &mut sink) {
        Ok(run) if run.failures.is_empty() => None,
        Ok(run) => Some(format!("{:?}", run.failures)),
        Err(e) => Some(e.to_string()),
    };
    if let Some(why) = failed {
        eprintln!("streambench run failed: {why}");
        return Ok(ExitCode::from(3));
    }
    let out = sink.finalize();
    let elapsed = started.elapsed();
    let planted_found = out.candidates.static_pair_count() == 1
        && out.candidates.iter().all(|c| c.object() == "shared_flag");
    let code = ExitCode::from(if planted_found { 0 } else { 2 });
    if p.on("--json") {
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("records", Json::UInt(out.records as u64)),
            ("trace_bytes", Json::UInt(out.trace_bytes as u64)),
            ("window_peak", Json::UInt(out.window_peak as u64)),
            ("records_retired", Json::UInt(out.records_retired)),
            ("records_forced", Json::UInt(out.records_forced)),
            ("peak_bytes", Json::UInt(out.peak_bytes as u64)),
            (
                "candidates",
                Json::UInt(out.candidates.static_pair_count() as u64),
            ),
            ("planted_pair_found", Json::Bool(planted_found)),
            ("elapsed_ns", Json::UInt(elapsed.as_nanos() as u64)),
        ]);
        emit_json(&doc, p)?;
        return Ok(code);
    }
    outln!(
        "streambench: {} records ({} bytes as lines) in {:.2}s ({:.0} records/s)",
        out.records,
        out.trace_bytes,
        elapsed.as_secs_f64(),
        out.records as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    outln!(
        "  window peak {} entries (~{} bytes resident), {} retired, {} force-evicted",
        out.window_peak,
        out.peak_bytes,
        out.records_retired,
        out.records_forced
    );
    outln!(
        "  candidates: {} static pair(s); planted racer pair {}",
        out.candidates.static_pair_count(),
        if planted_found { "FOUND" } else { "MISSING" },
    );
    Ok(code)
}

/// `dcatch tables <N>` — Table N of the paper's evaluation. A flag the
/// table does not read is refused, as is a malformed value; a failed
/// pipeline run exits with its `detect` code.
fn tables(p: &Parsed) -> Cmd {
    let arg = &p.positionals[0];
    let n = arg.parse().ok().filter(|n| (1..=9).contains(n));
    let n: u8 = n.ok_or_else(|| format!("no table `{arg}`: the paper's are 1 to 9"))?;
    for (flag, readers) in dcatch::tables::FLAGS {
        if p.on(flag) && !readers.contains(&n) {
            return Err(format!("table {n} does not read `{flag}`"));
        }
    }
    let scale = p.get::<NonZeroU32>("--scale")?.map(NonZeroU32::get);
    let reachability = p.str("--reachability").map(str::parse).transpose()?;
    match dcatch::tables::table(n, scale, reachability) {
        Ok(text) => {
            outln!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{e}");
            Ok(ExitCode::from(e.exit_code()))
        }
    }
}
