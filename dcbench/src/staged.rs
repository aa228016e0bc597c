//! The staged pass of a traced run: the benchmark itself calls each
//! layer's public function per unit, inside a span, and reduces the spans
//! and the counts taken at the same boundaries to the per-layer metrics.
//!
//! The staged calls repeat what `Pipeline::run` does internally, so the
//! pass also runs `Pipeline::run` on the same unit and requires the same
//! TA/SP/LP counts — a staged pass that measured something else than the
//! pipeline is reported as a failed unit.

use std::hint::black_box;

use dcatch::report_json::run_report_results_with;
use dcatch::{
    find_candidates, run_farm, run_spec, Benchmark, BenchmarkReport, FarmSpec, FaultPlan,
    FocusConfig, HbAnalysis, HbConfig, OnlineDetector, OnlineOptions, Pipeline, PipelineError,
    PipelineOptions, Pruner, ReachabilityMode, SimConfig, TraceSink, World,
};
use dcatch_apps::synth::generate;
use dcatch_detect::analyze_loop_sync;
use dcatch_trace::{Record, StreamControl};

use crate::check::Expected;
use crate::spans::Spans;
use crate::workloads::{
    build_inputs, check_stream_unit, check_suite_unit, check_synth_unit, run_stream, Inputs,
    PassOutcome, Size, Workload,
};

/// Every span name the staged pass can record. A workload that never
/// enters one of them gets an empty span under that name at the end of
/// the pass (see [`Spans::touch_missing`]).
const SPAN_NAMES: [&str; 20] = [
    "apps.build",
    "sim.base",
    "sim.traced",
    "trace.byte_size",
    "hb.build",
    "hb.build_matrix",
    "hb.build_clocks",
    "detect.scan",
    "detect.loopsync",
    "detect.loopsync_rerun",
    "detect.online_run",
    "detect.streaming_pipeline",
    "prune.new",
    "prune.prune",
    "trigger.stage",
    "trigger.plan",
    "trigger.farm",
    "core.pipeline",
    "core.pipeline_full",
    "core.report_json",
];

/// Counts taken at the layer boundaries, summed over the units of the
/// staged pass. All of them must repeat exactly from run to run.
#[derive(Debug, Default)]
pub struct LayerCounts {
    steps: u64,
    records: u64,
    trace_bytes: u64,
    hb_vertices: u64,
    hb_edges: u64,
    reach_bytes: u64,
    matrix_bytes: u64,
    clocks_bytes: u64,
    ta_static: u64,
    ta_stacks: u64,
    sp_static: u64,
    lp_static: u64,
    loopsync_reruns: u64,
    prune_examined: u64,
    prune_kept: u64,
    order_runs: u64,
    abandoned_runs: u64,
    /// Σ over units of (order runs × the unit's base-run ms): what the
    /// farm would cost if every ordering were one untraced base run.
    replay_base_ms: f64,
    window_peak: u64,
    online_peak_bytes: u64,
    records_retired: u64,
    records_forced: u64,
}

/// A sink that only counts: the cost of emitting the stream with nobody
/// analysing it.
#[derive(Default)]
struct CountSink {
    records: u64,
    controls: u64,
}

impl TraceSink for CountSink {
    fn record(&mut self, record: &Record) {
        black_box(record);
        self.records += 1;
    }

    fn control(&mut self, control: StreamControl) {
        black_box(control);
        self.controls += 1;
    }
}

/// Runs the staged pass of `workload`. `inputs` are the ones the plain
/// passes ran on.
pub fn staged_pass(
    workload: Workload,
    seed: u64,
    size: Size,
    inputs: &Inputs,
    expected: &Expected,
    s: &mut Spans,
) -> (PassOutcome, LayerCounts) {
    let mut outcome = PassOutcome::default();
    let mut c = LayerCounts::default();
    if !matches!(inputs, Inputs::Synth { .. }) {
        // input construction, as set-up pays it; the synth batch generates
        // per scenario below, because `run_spec` pays it inside every pass
        s.time("apps.build", |_| {
            black_box(build_inputs(workload, seed, size));
        });
    }
    match inputs {
        Inputs::Suite { benches, opts } => {
            for (unit, bench) in benches.iter().enumerate() {
                s.unit = unit as u32;
                let staged = staged_layers(s, &mut c, bench, opts, workload == Workload::FullTrace);
                let untriggered = PipelineOptions {
                    triggering: false,
                    ..opts.clone()
                };
                let plain = s.time("core.pipeline", |_| Pipeline::run(bench, &untriggered));
                let mut diagnoses = compare_staged(bench.id, &staged, &plain);
                if opts.triggering {
                    let full = s.time("core.pipeline_full", |_| Pipeline::run(bench, opts));
                    diagnoses.extend(check_suite_unit(expected, workload, bench.id, &full, true));
                } else {
                    diagnoses.extend(check_suite_unit(
                        expected, workload, bench.id, &plain, false,
                    ));
                }
                report_json(s, bench.id, plain);
                outcome.unit(diagnoses);
            }
        }
        Inputs::Synth { specs, opts } => {
            for (unit, spec) in specs.iter().enumerate() {
                s.unit = unit as u32;
                let scenario = s.time("apps.build", |_| generate(spec));
                let id = scenario.bench.id;
                let staged = match FaultPlan::parse(&spec.fault_plan) {
                    Ok(faults) => {
                        let unit_opts = PipelineOptions {
                            faults,
                            ..opts.clone()
                        };
                        staged_layers(s, &mut c, &scenario.bench, &unit_opts, false)
                    }
                    Err(e) => Err(format!("bad scenario fault plan: {e}")),
                };
                let untriggered = PipelineOptions {
                    triggering: false,
                    ..opts.clone()
                };
                let (_, plain) = s.time("core.pipeline", |_| run_spec(spec, &untriggered));
                let mut diagnoses = compare_staged(id, &staged, &plain);
                let (_, full) = s.time("core.pipeline_full", |_| run_spec(spec, opts));
                diagnoses.extend(check_synth_unit(expected, spec, &scenario, &full));
                report_json(s, id, plain);
                outcome.unit(diagnoses);
            }
        }
        Inputs::Stream {
            program,
            topology,
            config,
        } => {
            let untraced = SimConfig {
                trace_enabled: false,
                ..config.clone()
            };
            let mut diagnoses = Vec::new();
            match s.time("sim.base", |_| World::run_once(program, topology, untraced)) {
                Ok(run) => c.steps += run.steps,
                Err(e) => diagnoses.push(format!("stream: {e}")),
            }
            let mut counter = CountSink::default();
            diagnoses.extend(
                s.time("sim.traced", |_| {
                    run_stream(program, topology, config, &mut counter)
                })
                .err(),
            );
            black_box(counter.controls);
            diagnoses.extend(s.time("core.pipeline", |s| {
                let mut sink = OnlineDetector::new(OnlineOptions::default());
                let run = s.time("detect.online_run", |_| {
                    run_stream(program, topology, config, &mut sink).map(|r| (r, sink.finalize()))
                });
                match run {
                    Ok(((_, failures), out)) => {
                        let mut diagnoses = check_stream_unit(expected, failures, &out);
                        if out.records as u64 != counter.records {
                            diagnoses.push(format!(
                                "stream: detector saw {} records, counting sink {}",
                                out.records, counter.records
                            ));
                        }
                        c.records += out.records as u64;
                        c.trace_bytes += out.trace_bytes as u64;
                        c.ta_static += out.candidates.static_pair_count() as u64;
                        c.ta_stacks += out.candidates.callstack_pair_count() as u64;
                        c.window_peak += out.window_peak as u64;
                        c.online_peak_bytes += out.peak_bytes as u64;
                        c.records_retired += out.records_retired;
                        c.records_forced += out.records_forced;
                        diagnoses
                    }
                    Err(e) => vec![e],
                }
            }));
            outcome.unit(diagnoses);
        }
    }
    s.touch_missing(&SPAN_NAMES);
    (outcome, c)
}

/// Serialises one unit's report, as `--json` would.
fn report_json(s: &mut Spans, id: &str, result: Result<BenchmarkReport, PipelineError>) {
    let results = [(id, result)];
    s.time("core.report_json", |_| {
        black_box(run_report_results_with(&results, false).to_compact());
    });
}

/// The staged counts must be the pipeline's own.
fn compare_staged(
    id: &str,
    staged: &Result<[usize; 3], String>,
    plain: &Result<BenchmarkReport, PipelineError>,
) -> Vec<String> {
    match (staged, plain) {
        (Ok(staged), Ok(r)) if *staged == [r.ta_static, r.sp_static, r.lp_static] => Vec::new(),
        (Ok([ta, sp, lp]), Ok(r)) => vec![format!(
            "{id}: staged TA/SP/LP {ta}/{sp}/{lp} ≠ Pipeline::run {}/{}/{}",
            r.ta_static, r.sp_static, r.lp_static
        )],
        (Err(e), _) => vec![format!("{id}: staged pass: {e}")],
        // the pipeline's own failure is diagnosed by the reference check
        (Ok(_), Err(_)) => Vec::new(),
    }
}

/// Calls each layer of the offline pipeline on one unit, in pipeline
/// order, each inside its span. Returns the staged TA/SP/LP static counts.
/// `engines` adds the forced-engine HB builds and the streaming pipeline
/// (`full_trace` only).
fn staged_layers(
    s: &mut Spans,
    c: &mut LayerCounts,
    bench: &Benchmark,
    opts: &PipelineOptions,
    engines: bool,
) -> Result<[usize; 3], String> {
    let (program, topology) = (&bench.program, &bench.topology);
    let mut config = SimConfig::default()
        .with_seed(bench.seed)
        .with_faults(opts.faults.clone());
    config.tracing = opts.tracing;

    // ---- simulator, untraced then traced ----------------------------------
    let untraced = SimConfig {
        trace_enabled: false,
        ..config.clone()
    };
    let (base, base_ms) = s.time_ms("sim.base", |_| World::run_once(program, topology, untraced));
    c.steps += base.map_err(|e| e.to_string())?.steps;
    let run = s
        .time("sim.traced", |_| {
            World::run_once(program, topology, config.clone())
        })
        .map_err(|e| e.to_string())?;
    if !run.failures.is_empty() {
        return Err(format!(
            "traced run was not failure-free: {:?}",
            run.failures
        ));
    }
    let trace = run.trace;
    c.records += trace.len() as u64;
    c.trace_bytes += s.time("trace.byte_size", |_| {
        black_box(trace.stats());
        trace.byte_size()
    }) as u64;

    // ---- HB graph, under each engine where asked -------------------------
    if engines {
        let forced = [
            (
                "hb.build_matrix",
                ReachabilityMode::Matrix,
                &mut c.matrix_bytes,
            ),
            (
                "hb.build_clocks",
                ReachabilityMode::Clocks,
                &mut c.clocks_bytes,
            ),
        ];
        for (name, reachability, bytes) in forced {
            let cfg = HbConfig {
                reachability,
                ..opts.hb.clone()
            };
            let copy = trace.clone();
            let hb = s.time(name, |_| HbAnalysis::build(copy, &cfg));
            *bytes += hb.map_err(|e| format!("{name}: {e}"))?.reach_bytes() as u64;
        }
    }
    let mut hb = s
        .time("hb.build", |_| HbAnalysis::build(trace, &opts.hb))
        .map_err(|e| e.to_string())?;
    c.hb_vertices += hb.vertex_count() as u64;
    c.hb_edges += hb.edge_count() as u64;
    c.reach_bytes += hb.reach_bytes() as u64;

    // ---- candidate scan, pruning, loop-sync --------------------------------
    let candidates = s.time("detect.scan", |_| find_candidates(&hb));
    let ta = candidates.static_pair_count();
    c.ta_static += ta as u64;
    c.ta_stacks += candidates.callstack_pair_count() as u64;

    let pruner = s.time("prune.new", |_| Pruner::new(program));
    let (candidates, _, stats) = s.time("prune.prune", |_| pruner.prune(candidates));
    c.prune_examined += stats.before_static as u64;
    c.prune_kept += stats.after_static as u64;
    let sp = candidates.static_pair_count();
    c.sp_static += sp as u64;

    let reruns = &mut c.loopsync_reruns;
    let (candidates, _) = s.time("detect.loopsync", |s| {
        let mut rerun = |objects: &std::collections::BTreeSet<String>| {
            *reruns += 1;
            let focused = config
                .clone()
                .with_focus(FocusConfig::on(objects.iter().cloned()));
            s.time("detect.loopsync_rerun", |_| {
                World::run_once(program, topology, focused)
                    .expect("focused re-run of a run that just succeeded")
                    .trace
            })
        };
        analyze_loop_sync(program, &mut hb, candidates, &mut rerun)
    });
    let (candidates, _, _) = s.time("prune.prune", |_| pruner.prune(candidates));
    let lp = candidates.static_pair_count();
    c.lp_static += lp as u64;

    // ---- triggering, every ordering explored -------------------------------
    if opts.triggering {
        let candidates: Vec<_> = candidates.into_iter().collect();
        let specs: Vec<FarmSpec> = s.time("trigger.plan", |_| {
            candidates.iter().map(|c| FarmSpec::new(c, &hb)).collect()
        });
        let reports = s.time("trigger.farm", |_| {
            run_farm(program, topology, &config, &specs, 1, None, None)
        });
        let runs = reports.iter().flat_map(|r| &r.runs);
        let (total, abandoned) = runs.fold((0, 0), |(n, a), r| (n + 1, a + u64::from(r.abandoned)));
        c.order_runs += total;
        c.abandoned_runs += abandoned;
        c.replay_base_ms += total as f64 * base_ms;
    }

    if engines {
        let streaming = PipelineOptions {
            streaming: true,
            ..opts.clone()
        };
        let report = s
            .time("detect.streaming_pipeline", |_| {
                Pipeline::run(bench, &streaming)
            })
            .map_err(|e| format!("streaming pipeline: {e}"))?;
        if report.ta_static != ta {
            return Err(format!(
                "streaming pipeline: TA {} ≠ offline {ta}",
                report.ta_static
            ));
        }
    }
    Ok([ta, sp, lp])
}

/// Reduces the staged pass to the per-layer metrics of `BENCHMARK.json`
/// (all but the `proc.*` and `bench.*` ones, which the caller measures
/// around the pass). Times are self times: a span minus its children.
pub fn layer_metrics(inputs: &Inputs, s: &Spans, c: &LayerCounts) -> Vec<(&'static str, f64)> {
    let ms = |name: &str| s.layer(name).self_ms;
    let total = |name: &str| s.layer(name).total_ms;
    let allocs = |name: &str| s.layer(name).total_allocs as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let records = c.records as f64;

    let (triggering, measure_base, streamed, generated) = match inputs {
        Inputs::Suite { opts, .. } => (opts.triggering, opts.measure_base, false, false),
        Inputs::Synth { opts, .. } => (opts.triggering, opts.measure_base, false, true),
        Inputs::Stream { .. } => (false, false, true, false),
    };
    // On the stream the detector runs fused with the simulator; what it
    // adds is the detector run minus the run into the counting sink.
    let (online_ms, online_allocs) = if streamed {
        (
            total("detect.online_run") - total("sim.traced"),
            allocs("detect.online_run") - allocs("sim.traced"),
        )
    } else {
        (ms("detect.online_run"), 0.0)
    };
    let stage_ms = if triggering {
        total("core.pipeline_full") - total("core.pipeline")
    } else {
        ms("trigger.stage")
    };
    // what `Pipeline::run` (triggering off) does that the staged calls
    // above also did; the remainder is the driver's own cost
    let attributed = if streamed {
        total("detect.online_run")
    } else {
        total("sim.traced")
            + total("trace.byte_size")
            + total("hb.build")
            + total("detect.scan")
            + total("prune.new")
            + total("prune.prune")
            + total("detect.loopsync")
            + if measure_base { total("sim.base") } else { 0.0 }
            + if generated { total("apps.build") } else { 0.0 }
    };
    let farm_ms = ms("trigger.farm");

    vec![
        ("apps.build_ms", ms("apps.build")),
        ("sim.base_ms", ms("sim.base")),
        ("sim.steps", c.steps as f64),
        ("sim.steps_per_s", per(c.steps as f64, ms("sim.base") / 1e3)),
        ("sim.traced_ms", ms("sim.traced")),
        ("trace.emit_ms", ms("sim.traced") - ms("sim.base")),
        ("trace.overhead_x", per(ms("sim.traced"), ms("sim.base"))),
        ("trace.records", records),
        ("trace.bytes_per_record", per(c.trace_bytes as f64, records)),
        (
            "trace.allocs_per_record",
            per(
                (allocs("sim.traced") - allocs("sim.base")).max(0.0),
                records,
            ),
        ),
        ("trace.byte_size_ms", ms("trace.byte_size")),
        ("hb.build_ms", ms("hb.build")),
        ("hb.vertices", c.hb_vertices as f64),
        ("hb.edges", c.hb_edges as f64),
        ("hb.reach_bytes", c.reach_bytes as f64),
        ("hb.allocs", if streamed { 0.0 } else { allocs("hb.build") }),
        ("hb.build_matrix_ms", ms("hb.build_matrix")),
        ("hb.build_clocks_ms", ms("hb.build_clocks")),
        ("hb.matrix_bytes", c.matrix_bytes as f64),
        ("hb.clocks_bytes", c.clocks_bytes as f64),
        ("detect.scan_ms", ms("detect.scan")),
        ("detect.ta_static", c.ta_static as f64),
        ("detect.ta_stacks", c.ta_stacks as f64),
        ("detect.loopsync_ms", ms("detect.loopsync")),
        ("detect.loopsync_reruns", c.loopsync_reruns as f64),
        ("detect.loopsync_rerun_ms", ms("detect.loopsync_rerun")),
        ("detect.lp_static", c.lp_static as f64),
        ("detect.online_ms", online_ms),
        (
            "detect.online_records_per_s",
            if streamed {
                per(records, online_ms / 1e3)
            } else {
                0.0
            },
        ),
        (
            "detect.online_allocs_per_record",
            per(online_allocs.max(0.0), records),
        ),
        ("detect.window_peak", c.window_peak as f64),
        ("detect.online_peak_bytes", c.online_peak_bytes as f64),
        ("detect.records_retired", c.records_retired as f64),
        ("detect.records_forced", c.records_forced as f64),
        (
            "detect.streaming_pipeline_ms",
            ms("detect.streaming_pipeline"),
        ),
        ("prune.new_ms", ms("prune.new")),
        ("prune.prune_ms", ms("prune.prune")),
        ("prune.sp_static", c.sp_static as f64),
        (
            "prune.kept_frac",
            per(c.prune_kept as f64, c.prune_examined as f64),
        ),
        ("trigger.stage_ms", stage_ms),
        ("trigger.plan_ms", ms("trigger.plan")),
        ("trigger.farm_ms", farm_ms),
        ("trigger.order_runs", c.order_runs as f64),
        (
            "trigger.ms_per_order_run",
            farm_ms / (c.order_runs.max(1)) as f64,
        ),
        (
            "trigger.abandoned_frac",
            per(c.abandoned_runs as f64, c.order_runs as f64),
        ),
        ("trigger.replay_x", per(farm_ms, c.replay_base_ms)),
        ("core.pipeline_ms", total("core.pipeline")),
        ("core.unattributed_ms", total("core.pipeline") - attributed),
        ("core.report_json_ms", ms("core.report_json")),
    ]
}

/// Wall time of the traced counterpart of one plain pass: the units'
/// `Pipeline::run` calls as the workload configures them, with span
/// capture and allocation counting on.
pub fn traced_pass_wall_s(inputs: &Inputs, s: &Spans) -> f64 {
    let triggering = match inputs {
        Inputs::Suite { opts, .. } | Inputs::Synth { opts, .. } => opts.triggering,
        Inputs::Stream { .. } => false,
    };
    let name = if triggering {
        "core.pipeline_full"
    } else {
        "core.pipeline"
    };
    s.layer(name).total_ms / 1e3
}
