//! `dcbench` — the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! dcbench --workload W --seed N --seconds S --trace 0|1 [--size full|smoke] [--trace-out FILE]
//! dcbench all    [--seed N] [--seconds S] [--size full|smoke]
//! dcbench repeat [--seed N] [--seconds S] [--size full|smoke]
//! ```
//!
//! The first form is one run in one process and is what `BENCHMARK.json`
//! names: untraced (`--trace 0`) it prints the end-to-end metrics, traced
//! (`--trace 1`) the per-layer ones, as one JSON object on the last line
//! of stdout. `all` re-executes this binary once per workload untraced
//! and once traced, so a run's peak resident set belongs to that run
//! alone; `repeat` does `all` twice and compares. See `README.md`.

mod alloc;
mod check;
mod measure;
mod spans;
mod staged;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use dcatch_obs::Json;

use check::Expected;
use measure::{calibrate_ms, cpu_seconds, peak_rss_mb, summarize};
use spans::Spans;
use workloads::{build_inputs, run_pass, Inputs, PassOutcome, Size, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics: name, unit, and the share of the parent's median
/// by which one may worsen before a change is a regression. Kept equal to
/// `BENCHMARK.json` by a unit test. Failures are not a metric here: every
/// result carries `attempted` and `failed`, and any failed unit fails
/// the run.
const END_TO_END: [(&str, &str, f64); 3] = [
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.2),
];

/// Per-layer metrics: name and unit, in the order they are printed.
const PER_LAYER: [(&str, &str); 54] = [
    ("apps.build_ms", "ms"),
    ("sim.base_ms", "ms"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("sim.traced_ms", "ms"),
    ("trace.emit_ms", "ms"),
    ("trace.overhead_x", "ratio"),
    ("trace.records", "count"),
    ("trace.bytes_per_record", "B"),
    ("trace.allocs_per_record", "count"),
    ("trace.byte_size_ms", "ms"),
    ("hb.build_ms", "ms"),
    ("hb.vertices", "count"),
    ("hb.edges", "count"),
    ("hb.reach_bytes", "B"),
    ("hb.allocs", "count"),
    ("hb.build_matrix_ms", "ms"),
    ("hb.build_clocks_ms", "ms"),
    ("hb.matrix_bytes", "B"),
    ("hb.clocks_bytes", "B"),
    ("detect.scan_ms", "ms"),
    ("detect.ta_static", "count"),
    ("detect.ta_stacks", "count"),
    ("detect.loopsync_ms", "ms"),
    ("detect.loopsync_reruns", "count"),
    ("detect.loopsync_rerun_ms", "ms"),
    ("detect.lp_static", "count"),
    ("detect.online_ms", "ms"),
    ("detect.online_records_per_s", "1/s"),
    ("detect.online_allocs_per_record", "count"),
    ("detect.window_peak", "count"),
    ("detect.online_peak_bytes", "B"),
    ("detect.records_retired", "count"),
    ("detect.records_forced", "count"),
    ("detect.streaming_pipeline_ms", "ms"),
    ("prune.new_ms", "ms"),
    ("prune.prune_ms", "ms"),
    ("prune.sp_static", "count"),
    ("prune.kept_frac", "ratio"),
    ("trigger.stage_ms", "ms"),
    ("trigger.plan_ms", "ms"),
    ("trigger.farm_ms", "ms"),
    ("trigger.order_runs", "count"),
    ("trigger.ms_per_order_run", "ms"),
    ("trigger.abandoned_frac", "ratio"),
    ("trigger.replay_x", "ratio"),
    ("core.pipeline_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.report_json_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.allocs", "count"),
    ("proc.alloc_mb", "MB"),
    ("bench.calib_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Per-layer counts `repeat` requires to be identical between two runs of
/// the same code and seed. `proc.allocs` joins them on the stream only:
/// elsewhere worker threads allocate a scheduling-dependent handful.
const EXACT_COUNTS: [&str; 9] = [
    "sim.steps",
    "trace.records",
    "trace.bytes_per_record",
    "hb.vertices",
    "hb.edges",
    "detect.ta_static",
    "detect.lp_static",
    "prune.sp_static",
    "trigger.order_runs",
];

/// Fresh-process set-ups timed per untraced run, besides the run's own.
const SETUP_PROBES: usize = 2;
/// Fewest timed passes of an untraced run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` a traced run spends on plain passes before the
/// staged one.
const TRACED_PLAIN_SHARE: f64 = 0.3;

fn unit_of(metric: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|&(name, unit, _)| (name, unit));
    end_to_end
        .chain(PER_LAYER)
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

// ---- command line ----------------------------------------------------------

const USAGE: &str = "usage: dcbench --workload <trigger_replay|full_trace|stream_1m|synth_batch> \
--seed N --seconds S --trace 0|1 [--size full|smoke] [--trace-out FILE]\n       \
dcbench all|repeat [--seed N] [--seconds S] [--size full|smoke]";

/// `--key value` pairs; a flag outside `allowed` is an error.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown argument `{key}`\n{USAGE}"));
        }
        let value = it.next().ok_or(format!("`{key}` needs a value"))?;
        flags.insert(key.clone(), value.clone());
    }
    Ok(flags)
}

/// Settings shared by every form of the command.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Common {
    seed: u64,
    seconds: f64,
    size: Size,
}

fn parse_common(flags: &BTreeMap<String, String>) -> Result<Common, String> {
    let seed = match flags.get("--seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`"))?,
        None => 1,
    };
    let seconds = match flags.get("--seconds") {
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => v,
            _ => return Err(format!("bad --seconds `{s}`")),
        },
        None => 20.0,
    };
    let size = match flags.get("--size") {
        Some(s) => Size::parse(s).ok_or(format!("bad --size `{s}`"))?,
        None => Size::FULL,
    };
    Ok(Common {
        seed,
        seconds,
        size,
    })
}

fn parse_workload(flags: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name = flags
        .get("--workload")
        .ok_or(format!("--workload is required\n{USAGE}"))?;
    Workload::parse(name).ok_or(format!("unknown workload `{name}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("setup-probe") => cmd_setup_probe(&args[1..]),
        _ => cmd_run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dcbench: {message}");
            ExitCode::from(2)
        }
    }
}

// ---- one run ---------------------------------------------------------------

/// What one run measured.
#[derive(Debug)]
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let entry = Json::obj([
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit_of(name).to_owned())),
            ]);
            (name.to_owned(), entry)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--size",
            "--trace-out",
        ],
    )?;
    let common = parse_common(&flags)?;
    let workload = parse_workload(&flags)?;
    let traced = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace `{other}`")),
    };
    let trace_out = flags.get("--trace-out").map(String::as_str);
    if trace_out.is_some() && !traced {
        return Err("--trace-out needs --trace 1".to_owned());
    }
    let result = if traced {
        run_traced(workload, common, trace_out)?
    } else {
        run_untraced(workload, common)?
    };
    println!("{}", result.to_json().to_compact());
    Ok(ExitCode::SUCCESS)
}

/// Calibration-loop time that `wall_s` and `setup_s` are scaled to: the
/// loop's usual reading on the box the benchmark was defined on. Only its
/// constancy matters — it turns the ratio below back into seconds.
const CALIB_REF_MS: f64 = 35.0;

/// A wall-clock measurement with the calibration loop's readings taken
/// right before and right after it.
///
/// The box this benchmark was defined on changes speed by 20–50 % for
/// seconds to minutes at a time (README, "Why the seconds are
/// speed-corrected"), which no statistic over the passes of one run can
/// undo. Dividing each measurement by the calibration reading next to it
/// does: both slow down together, the detector's code is in only one.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Timed {
    /// Seconds as the clock read them.
    raw_s: f64,
    /// Mean of the two calibration readings, ms.
    calib_ms: f64,
}

impl Timed {
    /// The measurement scaled to the reference speed of the box.
    fn corrected_s(self) -> f64 {
        self.raw_s * CALIB_REF_MS / self.calib_ms
    }
}

/// Input construction plus the warm-up pass, timed together: what a user
/// pays before the first steady pass. Diagnoses of the warm-up go to
/// stderr; only timed passes count as attempted.
fn set_up(workload: Workload, common: Common, expected: &Expected) -> (Inputs, Timed) {
    let calib_before = calibrate_ms();
    let started = Instant::now();
    let inputs = build_inputs(workload, common.seed, common.size);
    let warm_up = run_pass(&inputs, workload, expected);
    let raw_s = started.elapsed().as_secs_f64();
    let calib_ms = (calib_before + calibrate_ms()) / 2.0;
    for line in &warm_up.diagnoses {
        eprintln!("warm-up: {line}");
    }
    (inputs, Timed { raw_s, calib_ms })
}

/// Plain passes until `budget_s` is used up (a pass that would overrun it
/// is not started), at least `min_passes`, with a calibration reading
/// between every two.
fn timed_passes(
    inputs: &Inputs,
    workload: Workload,
    expected: &Expected,
    budget_s: f64,
    min_passes: usize,
    outcome: &mut PassOutcome,
) -> Vec<Timed> {
    let started = Instant::now();
    let mut passes: Vec<Timed> = Vec::new();
    let mut calib_before = calibrate_ms();
    while passes.len() < min_passes
        || started.elapsed().as_secs_f64() + passes[passes.len() - 1].raw_s <= budget_s
    {
        let pass = Instant::now();
        outcome.absorb(run_pass(inputs, workload, expected));
        let raw_s = pass.elapsed().as_secs_f64();
        let calib_after = calibrate_ms();
        passes.push(Timed {
            raw_s,
            calib_ms: (calib_before + calib_after) / 2.0,
        });
        calib_before = calib_after;
    }
    passes
}

fn run_untraced(workload: Workload, common: Common) -> Result<RunResult, String> {
    let expected = Expected::load();
    // Set-up is timed in fresh processes as well as here: repeating it in
    // this process would time a warm allocator and warm caches, and hide
    // work a change moves into a process-wide first-use initialisation.
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        setups.push(setup_probe_child(workload, common)?);
    }
    let (inputs, own_setup) = set_up(workload, common, &expected);
    setups.push(own_setup);

    let mut outcome = PassOutcome::default();
    let passes = timed_passes(
        &inputs,
        workload,
        &expected,
        common.seconds,
        MIN_PASSES,
        &mut outcome,
    );
    for line in &outcome.diagnoses {
        println!("FAILED {line}");
    }
    println!(
        "{}: seed {}, size {}, {} units attempted, {} failed",
        workload.name(),
        common.seed,
        common.size.name,
        outcome.attempted,
        outcome.failed
    );
    let wall = describe("wall_s", "passes", &passes);
    let setup = describe("setup_s", "set-ups (the last in this process)", &setups);
    let rss = peak_rss_mb();
    println!("  peak_rss_mb  {rss:.1} MB  VmHWM of this process");
    Ok(RunResult {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: vec![("wall_s", wall), ("setup_s", setup), ("peak_rss_mb", rss)],
    })
}

/// Prints one speed-corrected metric with its sample count, extremes and
/// the raw readings it came from; returns the median that is reported.
fn describe(name: &str, what: &str, samples: &[Timed]) -> f64 {
    let corrected: Vec<f64> = samples.iter().map(|t| t.corrected_s()).collect();
    let c = summarize(&corrected).expect("at least one sample");
    let raw: Vec<f64> = samples.iter().map(|t| t.raw_s).collect();
    let r = summarize(&raw).expect("at least one sample");
    println!(
        "  {name:<12} {:.4} s   median of {} {what} at reference speed (min {:.4}, max {:.4}); \
         as clocked: median {:.4}, min {:.4}, max {:.4}",
        c.median, c.n, c.min, c.max, r.median, r.min, r.max
    );
    let list: Vec<String> = samples
        .iter()
        .map(|t| format!("{:.3}s/{:.1}ms", t.raw_s, t.calib_ms))
        .collect();
    println!(
        "               clocked/calibration, in order: {}",
        list.join(" ")
    );
    c.median
}

fn run_traced(
    workload: Workload,
    common: Common,
    trace_out: Option<&str>,
) -> Result<RunResult, String> {
    let expected = Expected::load();
    let calib_before = calibrate_ms();
    let (inputs, _) = set_up(workload, common, &expected);

    // a few plain passes first: the untraced reference the staged pass's
    // overhead is measured against, in the same process and minute
    let mut outcome = PassOutcome::default();
    let budget = common.seconds * TRACED_PLAIN_SHARE;
    let passes = timed_passes(&inputs, workload, &expected, budget, 2, &mut outcome);
    let clocked: Vec<f64> = passes.iter().map(|t| t.raw_s).collect();
    let plain = summarize(&clocked).expect("two plain passes").median;

    let mut spans = Spans::new();
    let (cpu0, allocs0, bytes0) = (cpu_seconds(), alloc::allocs(), alloc::bytes());
    alloc::set_enabled(true);
    let (staged, counts) = staged::staged_pass(
        workload,
        common.seed,
        common.size,
        &inputs,
        &expected,
        &mut spans,
    );
    alloc::set_enabled(false);
    let (cpu1, allocs1, bytes1) = (cpu_seconds(), alloc::allocs(), alloc::bytes());
    outcome.absorb(staged);
    let calib_after = calibrate_ms();

    let mut metrics = staged::layer_metrics(&inputs, &spans, &counts);
    let traced_wall = staged::traced_pass_wall_s(&inputs, &spans);
    metrics.extend([
        ("proc.cpu_s", cpu1 - cpu0),
        ("proc.allocs", (allocs1 - allocs0) as f64),
        (
            "proc.alloc_mb",
            (bytes1 - bytes0) as f64 / (1024.0 * 1024.0),
        ),
        ("bench.calib_ms", (calib_before + calib_after) / 2.0),
        ("bench.trace_overhead_frac", (traced_wall - plain) / plain),
    ]);

    for line in &outcome.diagnoses {
        println!("FAILED {line}");
    }
    println!(
        "{}: seed {}, size {}, traced; plain pass {:.4} s (median of {}), traced pass {:.4} s, \
         calibration {:.2} ms before / {:.2} ms after",
        workload.name(),
        common.seed,
        common.size.name,
        plain,
        passes.len(),
        traced_wall,
        calib_before,
        calib_after
    );
    for &(name, value) in &metrics {
        println!("  {name:<34} {value:>16.4} {}", unit_of(name));
    }
    if let Some(path) = trace_out {
        std::fs::write(path, spans.to_json().to_compact())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(RunResult {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    })
}

// ---- fresh-process set-up probe ---------------------------------------------

fn cmd_setup_probe(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--workload", "--seed", "--size"])?;
    let common = parse_common(&flags)?;
    let workload = parse_workload(&flags)?;
    let (_, timed) = set_up(workload, common, &Expected::load());
    println!("{} {}", timed.raw_s, timed.calib_ms);
    Ok(ExitCode::SUCCESS)
}

fn self_command() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    Ok(Command::new(exe))
}

/// Times set-up in a fresh process; `output` waits for the child to end.
fn setup_probe_child(workload: Workload, common: Common) -> Result<Timed, String> {
    let out = self_command()?
        .args(["setup-probe", "--workload", workload.name()])
        .args([
            "--seed",
            &common.seed.to_string(),
            "--size",
            common.size.name,
        ])
        .output()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut fields = stdout.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(raw_s)), Some(Ok(calib_ms))) if out.status.success() => {
            Ok(Timed { raw_s, calib_ms })
        }
        _ => Err(format!(
            "set-up probe failed ({}): {}",
            out.status,
            tail(&String::from_utf8_lossy(&out.stderr))
        )),
    }
}

fn tail(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

// ---- all / repeat ------------------------------------------------------------

/// One child run as `all` sees it: its metrics, or why there are none.
#[derive(Debug, Default, PartialEq)]
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// Set when the child gave no usable result; the run then counts as
    /// entirely failed.
    error: Option<String>,
    /// The child's human-readable lines (everything but the result line).
    transcript: Vec<String>,
}

impl ChildRun {
    fn failed_frac(&self) -> f64 {
        if self.error.is_some() || self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn number(json: &Json) -> Option<f64> {
    match *json {
        Json::Float(v) => Some(v),
        Json::UInt(v) => Some(v as f64),
        Json::Int(v) => Some(v as f64),
        _ => None,
    }
}

/// Reads a child's stdout: the last line is the result object.
fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("no output")?;
    let doc = dcatch_obs::json::parse(last).map_err(|e| format!("unparsable result line: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("result line lacks `{key}`"));
    let Json::Obj(entries) = field("metrics")? else {
        return Err("`metrics` is not an object".to_owned());
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in entries {
        let value = entry.get("value").and_then(number);
        metrics.insert(
            name.clone(),
            value.ok_or(format!("metric `{name}` has no value"))?,
        );
    }
    Ok(ChildRun {
        metrics,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("`attempted` is not a count")?,
        failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
        error: None,
        transcript: lines.iter().map(|l| (*l).to_owned()).collect(),
    })
}

/// Runs one workload in a child process. A child that cannot be started,
/// exits non-zero, panics or prints something unparsable comes back as a
/// `ChildRun` with `error` set — never as a missing row.
fn run_child(workload: Workload, common: Common, traced: bool) -> ChildRun {
    let failed = |error: String| ChildRun {
        error: Some(error),
        ..ChildRun::default()
    };
    let mut command = match self_command() {
        Ok(c) => c,
        Err(e) => return failed(e),
    };
    command
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &common.seed.to_string(),
        ])
        .args([
            "--seconds",
            &common.seconds.to_string(),
            "--size",
            common.size.name,
        ])
        .args(["--trace", if traced { "1" } else { "0" }]);
    let out = match command.output() {
        Ok(out) => out,
        Err(e) => return failed(format!("cannot start child: {e}")),
    };
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return failed(format!(
            "child exited with {}: {}",
            out.status,
            tail(&stderr)
        ));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout))
        .unwrap_or_else(|e| failed(format!("{e}: {}", tail(&stderr))))
}

/// The untraced and the traced run of each workload.
type AllRuns = Vec<(Workload, ChildRun, ChildRun)>;

fn run_all(common: Common) -> AllRuns {
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        let untraced = run_child(workload, common, false);
        let traced = run_child(workload, common, true);
        println!("== {} (seed {}) ==", workload.name(), common.seed);
        // a child that worked has printed every metric by name, with its
        // unit and sample count; one that did not still gets its rows
        for line in &untraced.transcript {
            println!("{line}");
        }
        if let Some(e) = &untraced.error {
            for (name, unit, _) in END_TO_END {
                println!("  {name:<12} null {unit}  ({e})");
            }
        }
        println!(
            "  failed_frac  {:.4} ratio  ({} of {} units)",
            untraced.failed_frac(),
            untraced.failed,
            untraced.attempted
        );
        for line in &traced.transcript {
            println!("{line}");
        }
        if let Some(e) = &traced.error {
            println!("  per-layer metrics: null  ({e})");
        }
        runs.push((workload, untraced, traced));
    }
    runs
}

fn any_failed(runs: &AllRuns) -> bool {
    runs.iter()
        .any(|(_, untraced, traced)| untraced.failed_frac() > 0.0 || traced.failed_frac() > 0.0)
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let common = parse_common(&parse_flags(args, &["--seed", "--seconds", "--size"])?)?;
    let runs = run_all(common);
    Ok(if any_failed(&runs) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Compares two `all` rounds of the same code and seed. Returns one line
/// per violated bound or differing exact count.
fn compare_rounds(first: &AllRuns, second: &AllRuns) -> Vec<String> {
    let mut violations = Vec::new();
    for ((workload, a, a_traced), (_, b, b_traced)) in first.iter().zip(second) {
        let w = workload.name();
        for (name, unit, bound) in END_TO_END {
            let (Some(&x), Some(&y)) = (a.metrics.get(name), b.metrics.get(name)) else {
                violations.push(format!("{w}: {name} missing from a round"));
                continue;
            };
            let diff = (y - x).abs() / x;
            let verdict = if diff > bound { "EXCEEDS" } else { "within" };
            println!(
                "{w:<15} {name:<12} {x:>12.4} {y:>12.4} {unit:<3} differ {:>6.2} % — {verdict} bound {:.0} %",
                diff * 100.0,
                bound * 100.0
            );
            if diff > bound {
                violations.push(format!("{w}: {name} differs by {:.2} %", diff * 100.0));
            }
        }
        let single_threaded = (*workload == Workload::Stream).then_some("proc.allocs");
        for name in EXACT_COUNTS.into_iter().chain(single_threaded) {
            let (x, y) = (a_traced.metrics.get(name), b_traced.metrics.get(name));
            if x.is_none() || x != y {
                violations.push(format!("{w}: exact count {name} differs: {x:?} vs {y:?}"));
            }
        }
    }
    violations
}

fn cmd_repeat(args: &[String]) -> Result<ExitCode, String> {
    let common = parse_common(&parse_flags(args, &["--seed", "--seconds", "--size"])?)?;
    let first = run_all(common);
    let second = run_all(common);
    println!("== repeat: round 1 vs round 2 ==");
    let mut violations = compare_rounds(&first, &second);
    if any_failed(&first) || any_failed(&second) {
        violations.push("a run had failed units".to_owned());
    }
    for line in &violations {
        println!("VIOLATION {line}");
    }
    Ok(if violations.is_empty() {
        println!("repeat: two rounds agree within the bounds; exact counts identical");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_are_checked() {
        let flags = parse_flags(
            &args(&["--seed", "9", "--size", "smoke"]),
            &["--seed", "--size"],
        );
        let common = parse_common(&flags.unwrap()).unwrap();
        assert_eq!(
            (common.seed, common.size, common.size.name),
            (9, Size::SMOKE, "smoke")
        );
        assert!(parse_flags(&args(&["--bogus", "1"]), &["--seed"]).is_err());
        assert!(parse_flags(&args(&["--seed"]), &["--seed"]).is_err());
        for bad in [
            ["--seconds", "0"],
            ["--seconds", "nan"],
            ["--seed", "-1"],
            ["--size", "xl"],
        ] {
            let flags = parse_flags(&args(&bad), &["--seed", "--seconds", "--size"]).unwrap();
            assert!(parse_common(&flags).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_slow_box_is_corrected_to_reference_speed() {
        let calm = Timed {
            raw_s: 2.0,
            calib_ms: CALIB_REF_MS,
        };
        assert_eq!(calm.corrected_s(), 2.0);
        // the box runs everything 30 % slower: same corrected reading
        let busy = Timed {
            raw_s: 2.6,
            calib_ms: CALIB_REF_MS * 1.3,
        };
        assert!((busy.corrected_s() - 2.0).abs() < 1e-12);
        // the detector got 30 % slower, the box did not: it shows
        let regressed = Timed {
            raw_s: 2.6,
            calib_ms: CALIB_REF_MS,
        };
        assert!((regressed.corrected_s() - 2.6).abs() < 1e-12);
    }

    #[test]
    fn result_line_round_trips_through_the_repo_json() {
        let result = RunResult {
            attempted: 63,
            failed: 0,
            metrics: vec![("wall_s", 2.0134), ("setup_s", 2.25), ("peak_rss_mb", 24.0)],
        };
        let line = result.to_json().to_compact();
        let doc = dcatch_obs::json::parse(&line).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(number), Some(2.0134));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));

        let child = parse_child(&format!("a human line\n{line}\n")).unwrap();
        assert_eq!(child.metrics["peak_rss_mb"], 24.0);
        assert_eq!((child.attempted, child.failed), (63, 0));
        assert_eq!(child.transcript, ["a human line"]);
        assert_eq!(child.failed_frac(), 0.0);
    }

    #[test]
    fn a_broken_child_is_a_failed_row_not_a_missing_one() {
        assert!(parse_child("").is_err());
        assert!(parse_child("thread 'main' panicked at src/main.rs").is_err());
        assert!(parse_child(r#"{"correct": true}"#).is_err());
        let broken = ChildRun {
            error: Some("child exited with exit status: 101".to_owned()),
            ..ChildRun::default()
        };
        assert_eq!(broken.failed_frac(), 1.0);
        let runs = vec![(Workload::Stream, broken, ChildRun::default())];
        assert!(any_failed(&runs));
        // a wrong unit makes failed_frac positive
        let one_wrong = ChildRun {
            attempted: 7,
            failed: 1,
            ..ChildRun::default()
        };
        assert!(one_wrong.failed_frac() > 0.0);
    }

    #[test]
    fn repeat_flags_a_drifting_metric_and_a_changed_count() {
        let round = |wall: f64, steps: f64| -> AllRuns {
            let untraced = ChildRun {
                metrics: [("wall_s", wall), ("setup_s", 2.0), ("peak_rss_mb", 30.0)]
                    .map(|(k, v)| (k.to_owned(), v))
                    .into(),
                attempted: 1,
                ..ChildRun::default()
            };
            let traced = ChildRun {
                metrics: EXACT_COUNTS
                    .into_iter()
                    .chain(["proc.allocs"])
                    .map(|k| (k.to_owned(), if k == "sim.steps" { steps } else { 5.0 }))
                    .collect(),
                attempted: 1,
                ..ChildRun::default()
            };
            vec![(Workload::Stream, untraced, traced)]
        };
        assert!(compare_rounds(&round(2.0, 100.0), &round(2.1, 100.0)).is_empty());
        let drift = compare_rounds(&round(2.0, 100.0), &round(2.6, 100.0));
        assert_eq!(drift, ["stream_1m: wall_s differs by 30.00 %"]);
        let count = compare_rounds(&round(2.0, 100.0), &round(2.0, 101.0));
        assert_eq!(count.len(), 1, "{count:?}");
    }

    /// `BENCHMARK.json` and the tables above must name the same workloads
    /// and metrics with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = dcatch_obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<String> = rows("workloads").iter().map(|r| text(r, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));

        let end_to_end: Vec<(String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|r| {
                assert_eq!(text(r, "better"), "lower");
                (
                    text(r, "name"),
                    text(r, "unit"),
                    r.get("bound").and_then(number).unwrap(),
                )
            })
            .collect();
        let ours = END_TO_END.map(|(n, u, b)| (n.to_owned(), u.to_owned(), b));
        assert_eq!(end_to_end, ours);

        let per_layer: Vec<(String, String)> = rows("per_layer")
            .iter()
            .map(|r| (text(r, "name"), text(r, "unit")))
            .collect();
        assert_eq!(
            per_layer,
            PER_LAYER.map(|(n, u)| (n.to_owned(), u.to_owned()))
        );
        for name in EXACT_COUNTS {
            assert!(["count", "B"].contains(&unit_of(name)), "{name}");
        }
    }

    /// The whole benchmark at smoke size: every workload, untraced passes
    /// and the staged pass, no failed unit, every per-layer metric present.
    #[test]
    fn smoke_size_runs_all_four_workloads_traced_and_untraced() {
        let started = Instant::now();
        let expected = Expected::load();
        let common = Common {
            seed: 1,
            seconds: 0.05,
            size: Size::SMOKE,
        };
        for workload in Workload::ALL {
            let (inputs, _) = set_up(workload, common, &expected);
            let mut outcome = PassOutcome::default();
            let walls = timed_passes(&inputs, workload, &expected, 0.05, 2, &mut outcome);
            assert!(walls.len() >= 2);
            assert!(outcome.attempted >= 2, "{workload:?}");

            let mut spans = Spans::new();
            let (staged, counts) =
                staged::staged_pass(workload, 1, Size::SMOKE, &inputs, &expected, &mut spans);
            outcome.absorb(staged);
            assert_eq!(outcome.diagnoses, Vec::<String>::new(), "{workload:?}");
            assert_eq!(outcome.failed, 0);

            let metrics = staged::layer_metrics(&inputs, &spans, &counts);
            let named: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            let expected_names: Vec<&str> = PER_LAYER
                .iter()
                .map(|m| m.0)
                .filter(|n| !n.starts_with("proc.") && !n.starts_with("bench."))
                .collect();
            assert_eq!(named, expected_names);
            assert!(
                metrics.iter().all(|m| m.1.is_finite()),
                "{workload:?}: {metrics:?}"
            );
            assert!(staged::traced_pass_wall_s(&inputs, &spans) > 0.0);
        }
        assert!(
            started.elapsed().as_secs() < 5,
            "smoke size must stay quick"
        );
    }
}
