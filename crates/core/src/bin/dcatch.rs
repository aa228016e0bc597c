//! `dcatch` — command-line front end for the detection pipeline.
//!
//! ```text
//! dcatch list
//! dcatch detect  <BUG-ID|all> [options]
//! dcatch stats   <BUG-ID> [--full-tracing] [--scale N] [--seed N] [--json]
//!                [--out FILE]
//! dcatch trace   <BUG-ID> [--full-tracing] [--scale N] [--seed N] [--out FILE]
//! dcatch timeline <BUG-ID> [--full-tracing] [--scale N] [--seed N]
//!                 [--fault-plan FILE] [--out FILE]
//! dcatch explain <BUG-ID> <OBJECT> [--json] [--out FILE]
//! dcatch faults  <BUG-ID|all> [--fault-plan FILE] [--seeds CSV] [--scale N]
//!                [--trigger-jobs N] [--timeout SECS] [--json] [--out FILE]
//! dcatch synth   [--seed N] [--count N] [--protocol le|2pc|pb|gossip]
//!                [--nodes K] [--clients C] [--fan-out F] [--bugs B]
//!                [--quarantine DIR] [--no-shrink] [--shrink-budget N]
//!                [--replay FILE] [--fault-plan-out FILE] [--jobs N]
//!                [--resume FILE] [--json] [--out FILE]
//! dcatch streambench [--records N] [--stream-window N] [--seed N]
//!                [--json] [--out FILE]
//! ```
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
//! `streambench` measures the streaming detector on a synthetic two-node
//! ping-pong workload whose trace grows linearly with `--records` while
//! the online window stays O(1): it drives `World::run_streamed` straight
//! into an `OnlineDetector` (no materialized trace) and reports records,
//! window peak, retirements, and the resident-memory estimate. Exit code
//! 2 if the planted racer pair is not the sole surviving candidate.
//!
//! Detect options:
//!   --scale N        workload scale factor (default 1)
//!   --seed N         scheduler seed (default: benchmark seed)
//!   --full-tracing   unselective memory tracing (Table 8 mode)
//!   --no-prune       skip static pruning
//!   --no-loop-sync   skip the loop/pull synchronization analysis
//!   --no-trigger     skip the triggering module
//!   --streaming      online single-pass detection: the simulator streams
//!                    records into frontier clocks and a bounded candidate
//!                    window instead of materializing the trace; the
//!                    candidate set is identical to the offline mode's
//!                    (no full HB graph, so triggering falls back to
//!                    direct placement)
//!   --stream-window N  hard cap on resident window entries for
//!                    --streaming; exceeding it force-evicts (lossy,
//!                    recorded as a degradation)
//!   --ablation K     ignore one HB rule family: event|rpc|socket|push
//!   --budget B       HB reachability memory budget (bytes, or `64k`,
//!                    `64m`, `1g`), checked against the bytes the index holds
//!   --reachability E reachability engine: auto (default: clock rows while
//!                    they are smaller than the matrix) | matrix | clocks
//!   --jobs N         run up to N benchmarks concurrently (default 1);
//!                    the report is identical for any N
//!   --trigger-jobs N explore (candidate, ordering) triggering jobs on up
//!                    to N farm workers (default 1); the report is
//!                    identical for any N. Also accepted by `faults`,
//!                    where it parallelizes the scenario × seed matrix.
//!   --scrub-timings  zero all wall-clock measurements in the report so
//!                    two runs of the same work compare byte-identically
//!   --fault-plan F   inject the fault plan in file F into every run
//!   --fault-target B apply the fault plan only to benchmark B
//!   --timeout SECS   per-benchmark wall-clock watchdog (also accepted by
//!                    `faults`, where it bounds each scenario × seed run)
//!   --mem-budget B   resource-governor memory budget (bytes, or `512k`,
//!                    `64m`, `1g`); the pipeline degrades — sampled
//!                    tracing, then streaming detection under a window
//!                    cap — instead of dying when a stage would exceed it
//!   --time-budget S  resource-governor wall-clock budget in seconds;
//!                    remaining optional stages are skipped and triggering
//!                    is cancelled once it expires
//!   --resume FILE    crash-safe checkpoint journal: every benchmark's
//!                    result is appended to FILE the moment it finishes,
//!                    and benchmarks already completed in FILE are skipped;
//!                    the merged report is byte-identical to an
//!                    uninterrupted run (not valid with --profile)
//!   --json           emit the versioned machine-readable run report
//!   --out FILE       write the JSON report to FILE instead of stdout
//!   --profile        capture per-stage spans and counter tracks; writes a
//!                    Perfetto timeline and fills the report's `profile`
//!                    section
//!   --profile-out F  where to write the profile timeline
//!                    (default profile.trace.json; implies --profile)
//!   --metrics        print per-run counter deltas (human mode)
//!   --verbose        stream span enter/exit lines to stderr
//!
//! Multi-benchmark runs (`detect all`, `faults all`) paint a live
//! progress line on stderr when it is a terminal (`DCATCH_PROGRESS=1/0`
//! overrides), with per-benchmark queued/running/done/degraded states and
//! a median-based ETA.
//!
//! Unknown flags are rejected with an error instead of being silently
//! ignored.
//!
//! `detect` exit codes (worst across the batch wins; documented in the
//! README):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success — every known bug confirmed, or the run degraded under an explicit budget |
//! | 1    | usage error (unknown flag, bad value, unreadable file) |
//! | 2    | a known bug was not confirmed by an undegraded triggering run |
//! | 3    | the (traced) run itself failed |
//! | 4    | HB analysis ran out of memory |
//! | 5    | a benchmark worker panicked |
//! | 6    | a benchmark exceeded the `--timeout` watchdog |

use std::process::ExitCode;

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
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("list") => list(rest),
        Some("detect") => detect(rest),
        Some("stats") => stats(rest),
        Some("trace") => trace(rest),
        Some("timeline") => timeline(rest),
        Some("explain") => explain(rest),
        Some("faults") => faults(rest),
        Some("synth") => synth(rest),
        Some("streambench") => streambench(rest),
        _ => Err(
            "usage: dcatch <list|detect|stats|trace|timeline|explain|faults|synth|streambench> …  (see the README)"
                .to_owned(),
        ),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn list(args: &[String]) -> Cmd {
    check_flags(args, &[], &[])?;
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

/// Validates that every `--flag` in `args` is known: `flags` take no
/// value, `valued` consume the next argument. Positional arguments (the
/// BUG-ID etc.) are stripped by callers before this runs.
fn check_flags(args: &[String], flags: &[&str], valued: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if flags.contains(&a) {
            i += 1;
        } else if valued.contains(&a) {
            // `opt` / `flag` look names up anywhere in `args`: a flag taken
            // for a value would be honoured as a flag as well
            if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                return Err(format!("flag `{a}` requires a value"));
            }
            i += 2;
        } else if a.starts_with('-') {
            return Err(format!("unknown flag `{a}` — see the usage in the README"));
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    Ok(())
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Value of `name`, parsed; a present-but-malformed value is an error
/// rather than being silently ignored.
fn opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let v = args
        .get(i + 1)
        .ok_or_else(|| format!("flag `{name}` requires a value"))?;
    v.parse()
        .map(Some)
        .map_err(|_| format!("invalid value `{v}` for `{name}`"))
}

fn opt_str<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
}

const DETECT_FLAGS: &[&str] = &[
    "--full-tracing",
    "--no-prune",
    "--no-loop-sync",
    "--no-trigger",
    "--json",
    "--metrics",
    "--verbose",
    "--profile",
    "--scrub-timings",
    "--streaming",
];
const DETECT_VALUED: &[&str] = &[
    "--scale",
    "--seed",
    "--ablation",
    "--budget",
    "--reachability",
    "--out",
    "--jobs",
    "--trigger-jobs",
    "--fault-plan",
    "--fault-target",
    "--timeout",
    "--profile-out",
    "--mem-budget",
    "--time-budget",
    "--resume",
    "--stream-window",
];

fn build_options(args: &[String]) -> Result<PipelineOptions, String> {
    let mut opts = PipelineOptions::full();
    opts.seed = opt(args, "--seed")?;
    if flag(args, "--full-tracing") {
        opts.tracing = TracingMode::Full;
    }
    if flag(args, "--no-prune") {
        opts.static_pruning = false;
    }
    if flag(args, "--no-loop-sync") {
        opts.loop_sync = false;
    }
    if flag(args, "--no-trigger") {
        opts.triggering = false;
    }
    if let Some(spec) = opt_str(args, "--budget") {
        opts.hb.memory_budget_bytes = dcatch::parse_bytes(spec)?;
    }
    if let Some(engine) = opt_str(args, "--reachability") {
        opts.hb.reachability = engine.parse()?;
    }
    if let Some(k) = opt_str(args, "--ablation") {
        opts.ablation = match k.as_str() {
            "event" => Ablation::IgnoreEvent,
            "rpc" => Ablation::IgnoreRpc,
            "socket" => Ablation::IgnoreSocket,
            "push" => Ablation::IgnorePush,
            other => return Err(format!("unknown ablation `{other}`")),
        };
    }
    if let Some(path) = opt_str(args, "--fault-plan") {
        opts.faults = load_fault_plan(path)?;
    }
    opts.fault_target = opt_str(args, "--fault-target").cloned();
    if let Some(secs) = opt::<u64>(args, "--timeout")? {
        opts.timeout = Some(std::time::Duration::from_secs(secs));
    }
    if let Some(spec) = opt_str(args, "--mem-budget") {
        opts.mem_budget = Some(dcatch::parse_bytes(spec)?);
    }
    if let Some(secs) = opt::<u64>(args, "--time-budget")? {
        opts.time_budget = Some(std::time::Duration::from_secs(secs));
    }
    opts.trigger_jobs = opt::<usize>(args, "--trigger-jobs")?.unwrap_or(1).max(1);
    opts.streaming = flag(args, "--streaming");
    opts.stream_window = opt::<usize>(args, "--stream-window")?;
    if opts.stream_window.is_some() && !opts.streaming {
        return Err("`--stream-window` requires `--streaming`".to_owned());
    }
    Ok(opts)
}

fn load_fault_plan(path: &str) -> Result<dcatch::FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    dcatch::FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))
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
fn emit_json(doc: &Json, args: &[String]) -> Result<(), String> {
    let text = doc.to_pretty();
    match opt_str(args, "--out") {
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
/// it exists — from the worker thread, so a kill at any point leaves a
/// resumable journal — and items the journal already finished are not
/// run: their journaled entry is spliced in with `fresh` = `None`. The
/// fingerprint pins everything that shapes an entry; resuming under
/// different options is refused rather than splicing incomparable ones.
fn run_resumable<T: Sync, R: Send>(
    label: &str,
    args: &[String],
    fingerprint: &str,
    items: &[T],
    id_of: impl Fn(&T) -> String,
    run: impl Fn(&T) -> (Json, R) + Sync,
    degraded: impl Fn(&Json) -> bool + Sync,
) -> Result<Vec<(Json, Option<R>)>, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let jobs = opt::<usize>(args, "--jobs")?.unwrap_or(1).max(1);
    let journal = match opt_str(args, "--resume") {
        Some(path) => Some(Journal::open_or_create(
            std::path::Path::new(path),
            fingerprint,
        )?),
        None => None,
    };
    let ids: Vec<String> = items.iter().map(id_of).collect();
    let journaled = |id: &String| journal.as_ref().filter(|j| j.finished_ok(id));
    let pending: Vec<usize> = (0..items.len())
        .filter(|&i| journaled(&ids[i]).is_none())
        .collect();
    let progress = dcatch_obs::Progress::with_enabled(
        label,
        pending.iter().map(|&i| ids[i].clone()),
        pending.len() > 1
            && !flag(args, "--verbose")
            && dcatch_obs::progress::stderr_wants_progress(),
    );
    // test hook: die as abruptly as a crash would, K checkpoints in
    let exit_after: Option<usize> = std::env::var("DCATCH_TEST_EXIT_AFTER")
        .ok()
        .and_then(|v| v.parse().ok());
    let recorded = AtomicUsize::new(0);
    let mut fresh = dcatch::steal_map(jobs, pending.len(), |p| {
        let i = pending[p];
        progress.start(p);
        let (entry, result) = run(&items[i]);
        if let Some(j) = &journal {
            if let Err(e) = j.record(&ids[i], &entry) {
                eprintln!("{e}");
            }
            if exit_after.is_some_and(|k| recorded.fetch_add(1, Ordering::SeqCst) + 1 >= k) {
                std::process::exit(70);
            }
        }
        progress.complete(p, degraded(&entry));
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

fn detect(args: &[String]) -> Cmd {
    let id = args
        .first()
        .ok_or("usage: dcatch detect <BUG-ID|all> [options]")?;
    check_flags(&args[1..], DETECT_FLAGS, DETECT_VALUED)?;
    let scale = opt(args, "--scale")?.unwrap_or(1);
    let benches = benchmarks_for(id, scale)?;
    let opts = build_options(&args[1..])?;
    let json = flag(args, "--json");
    let show_metrics = flag(args, "--metrics");
    if flag(args, "--verbose") {
        dcatch_obs::trace::set_verbose(true);
    }
    let profile = flag(args, "--profile") || opt_str(args, "--profile-out").is_some();
    if profile && opt_str(args, "--resume").is_some() {
        return Err("--resume cannot be combined with --profile".to_owned());
    }
    let ids: Vec<&str> = benches.iter().map(|b| b.id).collect();
    let mut outcomes = run_resumable(
        "detect",
        args,
        &format!("scale={scale};ids={ids:?};opts={opts:?}"),
        &benches,
        |b| b.id.to_owned(),
        |b| {
            let result = Pipeline::run_guarded(b, &opts);
            (report_json::result_json(b.id, &result, profile), result)
        },
        |entry| report_json::entry_error(entry).is_some(),
    )?;
    if flag(args, "--scrub-timings") {
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
                print_report(r, &opts, show_metrics);
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
        let results: Vec<_> = ids.into_iter().zip(fresh.into_iter().flatten()).collect();
        let doc = dcatch::profile_timeline(&results).to_json();
        let summary = dcatch_obs::timeline::validate(&doc)
            .map_err(|e| format!("internal error: profile timeline failed validation: {e}"))?;
        let path = opt_str(args, "--profile-out").map_or("profile.trace.json", String::as_str);
        write_file(path, doc.to_pretty().as_bytes())?;
        eprintln!(
            "profile timeline: {} events, {} lanes -> {path}",
            summary.events,
            summary.lanes / 2
        );
    }
    if json {
        emit_json(&report_json::report_doc(entries), args)?;
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
        "  profile: simulator {} runs, {} executed steps, {:.1} ns/step",
        r.metrics.counter("sim_runs_total"),
        steps,
        sim_time(&r.spans).as_nanos() as f64 / steps.max(1) as f64
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
fn faults(args: &[String]) -> Cmd {
    let id = args.first().ok_or(
        "usage: dcatch faults <BUG-ID|all> [--fault-plan FILE] [--seeds CSV] [--scale N] \
         [--trigger-jobs N] [--timeout SECS] [--json] [--out FILE]",
    )?;
    check_flags(
        &args[1..],
        &["--json"],
        &[
            "--fault-plan",
            "--seeds",
            "--scale",
            "--out",
            "--trigger-jobs",
            "--timeout",
        ],
    )?;
    let tjobs = opt::<usize>(args, "--trigger-jobs")?.unwrap_or(1).max(1);
    let timeout = opt::<u64>(args, "--timeout")?.map(std::time::Duration::from_secs);
    let scale = opt(args, "--scale")?.unwrap_or(1);
    let benches = benchmarks_for(id, scale)?;
    let seeds: Vec<u64> = match opt_str(args, "--seeds") {
        Some(csv) => csv
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("invalid value `{csv}` for `--seeds` (expected e.g. 1,2,3)"))?,
        None => vec![1, 2, 3],
    };
    let custom = opt_str(args, "--fault-plan")
        .map(|p| load_fault_plan(p))
        .transpose()?;
    let json = flag(args, "--json");
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
        emit_json(&doc, args)?;
    }
    Ok(ExitCode::from(worst))
}

const SYNTH_FLAGS: &[&str] = &["--json", "--no-shrink", "--verbose"];
const SYNTH_VALUED: &[&str] = &[
    "--seed",
    "--count",
    "--protocol",
    "--nodes",
    "--clients",
    "--fan-out",
    "--bugs",
    "--fault-plan-out",
    "--quarantine",
    "--replay",
    "--shrink-budget",
    "--out",
    "--jobs",
    "--trigger-jobs",
    "--timeout",
    "--mem-budget",
    "--time-budget",
    "--resume",
];

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
fn synth(args: &[String]) -> Cmd {
    use dcatch::synth::{row_exit_code, score_json, SynthBatchConfig};
    use dcatch_apps::synth::{Protocol, ScenarioSpec};

    check_flags(args, SYNTH_FLAGS, SYNTH_VALUED)?;
    let mut opts = build_options(args)?;
    // for `synth`, --seed is the generator base seed, not a scheduler
    // override: each scenario runs under its own spec seed
    opts.seed = None;
    if flag(args, "--verbose") {
        dcatch_obs::trace::set_verbose(true);
    }
    let protocols = match opt_str(args, "--protocol") {
        Some(p) => vec![Protocol::parse(p)
            .ok_or_else(|| format!("unknown protocol `{p}` (expected le, 2pc, pb, or gossip)"))?],
        None => Protocol::all().to_vec(),
    };
    let mut cfg = SynthBatchConfig {
        protocols,
        base_seed: opt::<u64>(args, "--seed")?.unwrap_or(1),
        count: opt::<u32>(args, "--count")?.unwrap_or(1).max(1),
        workers: opt::<u32>(args, "--nodes")?,
        clients: opt::<u32>(args, "--clients")?,
        fan_out: opt::<u32>(args, "--fan-out")?,
        bugs: opt::<u32>(args, "--bugs")?,
        quarantine_dir: None,
        shrink_budget: opt::<usize>(args, "--shrink-budget")?.unwrap_or(40),
    };
    if !flag(args, "--no-shrink") {
        let dir = opt_str(args, "--quarantine").map_or("synth-quarantine", String::as_str);
        cfg.quarantine_dir = Some(std::path::PathBuf::from(dir));
    }

    // --replay FILE: one quarantined case (or bare spec), no journal
    if let Some(path) = opt_str(args, "--replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = dcatch_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let spec_doc = doc.get("spec").unwrap_or(&doc);
        let spec = ScenarioSpec::from_json(spec_doc).map_err(|e| format!("{path}: {e}"))?;
        cfg.protocols = vec![spec.protocol];
        let row = score_json(&dcatch::run_scenario(&spec, &opts, &cfg));
        return synth_emit(&cfg, vec![row], args);
    }

    let specs = dcatch::batch_specs(&cfg);
    if let Some(path) = opt_str(args, "--fault-plan-out") {
        if specs.len() != 1 {
            return Err(
                "--fault-plan-out needs exactly one scenario (--count 1 and a single --protocol)"
                    .to_owned(),
            );
        }
        write_file(path, specs[0].fault_plan.as_bytes())?;
    }
    // crash-safe resume: same journal as `detect`, keyed by scenario id,
    // fingerprinted over every generator parameter
    let outcomes = run_resumable(
        "synth",
        args,
        &cfg.fingerprint(&opts),
        &specs,
        ScenarioSpec::id,
        |spec| (score_json(&dcatch::run_scenario(spec, &opts, &cfg)), ()),
        |row| row_exit_code(row) != 0,
    )?;
    let rows = outcomes.into_iter().map(|(row, _)| row).collect();
    synth_emit(&cfg, rows, args)
}

/// Prints/emits a synth batch report and folds rows into the exit code.
fn synth_emit(cfg: &dcatch::synth::SynthBatchConfig, rows: Vec<Json>, args: &[String]) -> Cmd {
    let worst = rows
        .iter()
        .map(dcatch::synth::row_exit_code)
        .max()
        .unwrap_or(0);
    let doc = dcatch::synth::synth_report_doc(cfg, &rows);
    if flag(args, "--json") {
        emit_json(&doc, args)?;
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
        for p in protos {
            let planted = num(p, "planted");
            let detected = num(p, "detected");
            let recall = if planted == 0 {
                100.0
            } else {
                detected as f64 * 100.0 / planted as f64
            };
            outln!(
                "protocol {:8} scenarios={} recall {detected}/{planted} ({recall:.0}%) fp={} errors={}",
                p.get("protocol").and_then(Json::as_str).unwrap_or("?"),
                num(p, "scenarios"),
                num(p, "false_positives"),
                num(p, "errors"),
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
/// `--full-tracing` and (where `valued` accepts it) `--fault-plan`.
/// `usage` is the error for a missing BUG-ID.
fn run_one(
    args: &[String],
    usage: &str,
    flags: &[&str],
    valued: &[&str],
) -> Result<(dcatch::Benchmark, dcatch::RunResult), String> {
    let id = args.first().ok_or(usage)?;
    check_flags(&args[1..], flags, valued)?;
    let scale = opt(args, "--scale")?.unwrap_or(1);
    let seed = opt(args, "--seed")?;
    let b = benchmarks_for(id, scale)?.swap_remove(0);
    let mut cfg = SimConfig::default().with_seed(seed.unwrap_or(b.seed));
    if flag(args, "--full-tracing") {
        cfg.tracing = TracingMode::Full;
    }
    if let Some(path) = opt_str(args, "--fault-plan") {
        cfg = cfg.with_faults(load_fault_plan(path)?);
    }
    let run = World::run_once(&b.program, &b.topology, cfg).map_err(|e| e.to_string())?;
    Ok((b, run))
}

fn stats(args: &[String]) -> Cmd {
    let (b, run) = run_one(
        args,
        "usage: dcatch stats <BUG-ID> [--full-tracing] [--scale N] [--seed N] [--json] [--out FILE]",
        &["--full-tracing", "--json"],
        &["--scale", "--seed", "--out"],
    )?;
    let s = TraceStats::of(run.trace.records());
    let bytes = run.trace.to_lines().len();
    if flag(args, "--json") {
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("id", Json::Str(b.id.to_string())),
            ("bytes", Json::UInt(bytes as u64)),
            ("stats", report_json::trace_stats_json(&s)),
        ]);
        emit_json(&doc, args)?;
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
        let pct = if s.total == 0 {
            0.0
        } else {
            100.0 * *count as f64 / s.total as f64
        };
        outln!("  {label:16} {count:8}  ({pct:5.1}%)");
    }
    Ok(ExitCode::SUCCESS)
}

fn trace(args: &[String]) -> Cmd {
    let (_, run) = run_one(
        args,
        "usage: dcatch trace <BUG-ID> [--full-tracing] [--scale N] [--seed N] [--out FILE]",
        &["--full-tracing"],
        &["--scale", "--seed", "--out"],
    )?;
    let lines = run.trace.to_lines();
    if let Some(path) = opt_str(args, "--out") {
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
fn timeline(args: &[String]) -> Cmd {
    let (b, run) = run_one(
        args,
        "usage: dcatch timeline <BUG-ID> [--full-tracing] [--scale N] [--seed N] \
         [--fault-plan FILE] [--out FILE]",
        &["--full-tracing"],
        &["--scale", "--seed", "--fault-plan", "--out"],
    )?;
    let doc = dcatch::trace_timeline(&run.trace).to_json();
    let summary = dcatch_obs::timeline::validate(&doc)
        .map_err(|e| format!("internal error: timeline failed validation: {e}"))?;
    emit_json(&doc, args)?;
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

fn explain(args: &[String]) -> Cmd {
    let (Some(id), Some(object)) = (args.first(), args.get(1)) else {
        return Err("usage: dcatch explain <BUG-ID> <OBJECT> [--json] [--out FILE]".to_owned());
    };
    check_flags(&args[2..], &["--json"], &["--out"])?;
    let b = benchmarks_for(id, 1)?.swap_remove(0);
    let cfg = SimConfig::default().with_seed(b.seed);
    let run = World::run_once(&b.program, &b.topology, cfg).map_err(|e| e.to_string())?;
    let hb =
        dcatch::HbAnalysis::build(run.trace, &HbConfig::default()).map_err(|e| e.to_string())?;
    let names = hb.trace().names();
    let accesses: Vec<usize> = hb
        .trace()
        .records()
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.kind
                .mem_loc()
                .is_some_and(|l| names.name(l.object) == object)
        })
        .map(|(i, _)| i)
        .collect();
    if accesses.is_empty() {
        return Err(format!(
            "no traced accesses to `{object}` in {id}'s correct run"
        ));
    }
    let json = flag(args, "--json");
    let describe = |i: usize| {
        let r = &hb.trace().records()[i];
        format!("#{i} {} ({})", r.kind.tag(), r.task)
    };
    if !json {
        outln!("{}: {} traced accesses to `{object}`", b.id, accesses.len());
    }
    let mut pairs = Vec::new();
    for (p, &i) in accesses.iter().enumerate() {
        for &j in &accesses[p + 1..] {
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
                pairs.push(pair_json(&hb, a, z, relation, chain.as_ref()));
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
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("id", Json::Str(b.id.to_owned())),
            ("object", Json::Str((*object).clone())),
            (
                "accesses",
                Json::Arr(accesses.iter().map(|&i| access_json(&hb, i)).collect()),
            ),
            ("pairs", Json::Arr(pairs)),
        ]);
        emit_json(&doc, args)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// One trace record reference in `explain --json` output.
fn access_json(hb: &dcatch::HbAnalysis, i: usize) -> Json {
    let r = &hb.trace().records()[i];
    Json::obj([
        ("index", Json::UInt(i as u64)),
        ("tag", Json::Str(r.kind.tag().to_owned())),
        ("task", Json::Str(r.task.to_string())),
    ])
}

/// One access pair with its HB verdict and (when ordered) the hop-by-hop
/// rule chain.
fn pair_json(
    hb: &dcatch::HbAnalysis,
    a: usize,
    z: usize,
    relation: &str,
    chain: Option<&(usize, Vec<(usize, dcatch::EdgeRule)>)>,
) -> Json {
    let hops = match chain {
        Some((_, hops)) => hops
            .iter()
            .map(|&(to, rule)| {
                let r = &hb.trace().records()[to];
                Json::obj([
                    ("rule", Json::Str(format!("{rule:?}"))),
                    ("to", Json::UInt(to as u64)),
                    ("tag", Json::Str(r.kind.tag().to_owned())),
                    ("task", Json::Str(r.task.to_string())),
                ])
            })
            .collect(),
        None => Vec::new(),
    };
    Json::obj([
        ("a", Json::UInt(a as u64)),
        ("b", Json::UInt(z as u64)),
        ("relation", Json::Str(relation.to_owned())),
        ("chain", Json::Arr(hops)),
    ])
}

/// `dcatch streambench` — drives the synthetic ping-pong workload through
/// `World::run_streamed` + `OnlineDetector` (no trace is ever
/// materialized) and reports window/retirement accounting plus wall-clock
/// throughput. The workload plants exactly one racer pair; exit code 2 if
/// the detector does not report exactly that one surviving candidate.
fn streambench(args: &[String]) -> Cmd {
    check_flags(
        args,
        &["--json"],
        &["--records", "--stream-window", "--seed", "--out"],
    )?;
    let records = opt::<u64>(args, "--records")?.unwrap_or(1_000_000);
    let window = opt::<usize>(args, "--stream-window")?;
    let seed = opt::<u64>(args, "--seed")?.unwrap_or(7);
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
    if flag(args, "--json") {
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
        emit_json(&doc, args)?;
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
