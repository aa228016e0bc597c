//! The four workloads: how each builds its inputs from the seed, what one
//! pass runs, and how a unit's result is reduced to the numbers the
//! reference table is compared on.
//!
//! Load is a closed loop of one client: the driver thread issues the next
//! unit only after the previous one returned, with `trigger_jobs = 1`, so
//! at most two threads are ever runnable (the farm and `run_spec` run
//! their work on a thread they join).

use dcatch::{
    all_benchmarks_scaled, batch_specs, run_spec, score_report, streambench, streambench_rounds,
    Benchmark, BenchmarkReport, OnlineDetector, OnlineOptions, Pipeline, PipelineError,
    PipelineOptions, Program, SimConfig, StreamOutcome, SynthBatchConfig, Topology, TraceSink,
    TracingMode, World,
};
use dcatch_apps::synth::ScenarioSpec;
use dcatch_obs::SmallRng;

use crate::check::Expected;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven miniatures through the full pipeline, triggering included.
    TriggerReplay,
    /// The seven miniatures under unselective tracing, no triggering.
    FullTrace,
    /// The streaming detector over a long ping-pong trace.
    Stream,
    /// A batch of generated protocol scenarios through the full pipeline.
    SynthBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TriggerReplay,
        Workload::FullTrace,
        Workload::Stream,
        Workload::SynthBatch,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and as the
    /// key into `expected.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TriggerReplay => "trigger_replay",
            Workload::FullTrace => "full_trace",
            Workload::Stream => "stream_1m",
            Workload::SynthBatch => "synth_batch",
        }
    }

    /// Inverse of [`name`](Workload::name).
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `FULL` is what the benchmark measures; `SMOKE` is the
/// same code path with small numbers, for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// `full` or `smoke`, as `--size` spells it.
    pub name: &'static str,
    /// Nominal computation scale of `trigger_replay`'s benchmarks.
    pub trigger_scale: u32,
    /// Nominal computation scale of `full_trace`'s benchmarks.
    pub full_scale: u32,
    /// Trace length `stream_1m` aims for, in records.
    pub stream_records: u64,
    /// Scenarios per protocol in `synth_batch` (four protocols).
    pub synth_count: u32,
}

impl Size {
    /// Each sized so one pass takes about two seconds on the 2-core box
    /// the benchmark was defined on.
    pub const FULL: Size = Size {
        name: "full",
        trigger_scale: 80,
        full_scale: 48,
        stream_records: 1_000_000,
        synth_count: 64,
    };
    /// A few milliseconds per pass.
    pub const SMOKE: Size = Size {
        name: "smoke",
        trigger_scale: 3,
        full_scale: 3,
        stream_records: 20_000,
        synth_count: 2,
    };

    /// Inverse of `name`.
    pub fn parse(s: &str) -> Option<Size> {
        [Size::FULL, Size::SMOKE]
            .into_iter()
            .find(|size| size.name == s)
    }
}

/// Per-benchmark scale offsets, in units of scale. The seed deals them out
/// as a permutation: which benchmark runs larger and which smaller varies
/// with it, the summed scale does not. They are this small because the
/// benchmarks weigh very differently (and trace analysis is quadratic in
/// the scale), so larger offsets made a pass's work — and with it the
/// spread over seeds that the regression bound is judged against — depend
/// on which benchmark drew which offset.
const SCALE_OFFSETS: [i64; 7] = [-1, 0, 0, 0, 0, 0, 1];

/// The suite workloads' seed-derived plan: the scale of each benchmark, in
/// registry order. The run order is not shuffled: under `full_trace` the
/// process's peak resident set depends on which large trace follows which
/// (140 MB for most orders, 164 MB for some), and that is seed-made spread
/// on a gated metric.
pub fn suite_scales(seed: u64, nominal: u32) -> [u32; 7] {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut offsets = SCALE_OFFSETS;
    for i in (1..offsets.len()).rev() {
        offsets.swap(i, rng.gen_range(i + 1));
    }
    offsets.map(|offset| (i64::from(nominal) + offset).max(1) as u32)
}

/// First scenario seed of the synth batch for a workload seed; scenario
/// `i` of each protocol is generated from `base + i`.
///
/// Not every generated scenario passes: a sweep of scenario seeds 0–4095
/// on all four protocols at commit 8c595ba found `SYNTH-GOSSIP-s339` (its
/// fault-injected traced run throws, so the pipeline reports an error) and
/// `SYNTH-GOSSIP-s3688` (one of two planted bugs missed). Those are defects
/// of the detector or the generator, not of the benchmark, and a benchmark
/// workload must not contain failing operations — so the workload seed is
/// folded into 340..3540, which keeps every scenario seed of a full-size
/// batch inside the clean stretch 340..=3603. Widen this only after
/// sweeping the new range.
pub fn synth_base_seed(seed: u64) -> u64 {
    340 + seed % 3200
}

/// Everything a pass needs, built from the seed before timing starts.
/// Only this reaches the detector — never the seed itself, except where
/// the workload defines the seed to *be* an input (the stream's scheduler
/// seed, the synth batch's base seed).
pub enum Inputs {
    /// `trigger_replay` and `full_trace`.
    Suite {
        /// The seven benchmarks at their seed-derived scales and order.
        benches: Vec<Benchmark>,
        /// Pipeline configuration of the workload.
        opts: PipelineOptions,
    },
    /// `stream_1m`.
    Stream {
        /// The ping-pong program.
        program: Program,
        /// Its two-node topology.
        topology: Topology,
        /// Full tracing, scheduler seed = workload seed.
        config: SimConfig,
    },
    /// `synth_batch`.
    Synth {
        /// The generated scenario specs, fault plans included.
        specs: Vec<ScenarioSpec>,
        /// Full pipeline.
        opts: PipelineOptions,
    },
}

/// Builds a workload's inputs. Same `(workload, seed, size)` ⇒ same inputs.
pub fn build_inputs(workload: Workload, seed: u64, size: Size) -> Inputs {
    let suite = |nominal: u32, opts: PipelineOptions| Inputs::Suite {
        benches: suite_scales(seed, nominal)
            .into_iter()
            .enumerate()
            .map(|(index, scale)| all_benchmarks_scaled(scale).swap_remove(index))
            .collect(),
        opts,
    };
    match workload {
        Workload::TriggerReplay => suite(size.trigger_scale, PipelineOptions::full()),
        Workload::FullTrace => suite(
            size.full_scale,
            PipelineOptions {
                tracing: TracingMode::Full,
                ..PipelineOptions::fast()
            },
        ),
        Workload::Stream => {
            let rounds = streambench_rounds(size.stream_records);
            let (program, topology) = streambench(rounds);
            // exactly as `dcatch streambench`: full tracing so the planted
            // racer pair is visible, and a step budget the chain cannot hit
            let mut config = SimConfig::default().with_seed(seed).with_full_tracing();
            config.max_steps = (rounds as u64).saturating_mul(32).max(2_000_000);
            Inputs::Stream {
                program,
                topology,
                config,
            }
        }
        Workload::SynthBatch => Inputs::Synth {
            specs: batch_specs(&SynthBatchConfig {
                base_seed: synth_base_seed(seed),
                count: size.synth_count,
                ..SynthBatchConfig::default()
            }),
            opts: PipelineOptions::full(),
        },
    }
}

/// Units attempted in a pass and the one-line diagnosis of each mismatch.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Units run: one benchmark, scenario or stream pipeline each.
    pub attempted: u64,
    /// Units with at least one diagnosis.
    pub failed: u64,
    /// All diagnoses, `unit: what ≠ expected`.
    pub diagnoses: Vec<String>,
}

impl PassOutcome {
    /// Accounts one unit with its (possibly empty) diagnoses.
    pub fn unit(&mut self, diagnoses: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!diagnoses.is_empty());
        self.diagnoses.extend(diagnoses);
    }

    /// Folds another pass into this one.
    pub fn absorb(&mut self, other: PassOutcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.diagnoses.extend(other.diagnoses);
    }
}

/// The fields a suite unit is compared on. Verdict tallies only exist
/// when triggering ran.
pub fn observe_report(report: &BenchmarkReport, triggered: bool) -> Vec<(&'static str, u64)> {
    let mut fields = vec![
        ("ta_static", report.ta_static as u64),
        ("sp_static", report.sp_static as u64),
        ("lp_static", report.lp_static as u64),
    ];
    if triggered {
        fields.extend([
            ("harmful", report.verdicts.bug_static as u64),
            ("benign", report.verdicts.benign_static as u64),
            ("serial", report.verdicts.serial_static as u64),
            ("known_bug_confirmed", u64::from(report.detected_known_bug)),
        ]);
    }
    fields
}

/// Checks one suite unit's pipeline result against the reference.
pub fn check_suite_unit(
    expected: &Expected,
    workload: Workload,
    id: &str,
    result: &Result<BenchmarkReport, PipelineError>,
    triggered: bool,
) -> Vec<String> {
    match result {
        Ok(report) if report.oom.is_some() => vec![format!("{id}: HB analysis out of memory")],
        Ok(report) => expected.check_unit(workload.name(), id, &observe_report(report, triggered)),
        Err(e) => vec![format!("{id}: pipeline error: {e}")],
    }
}

/// Checks one synth unit: the generator's planted pairs are the truth.
pub fn check_synth_unit(
    expected: &Expected,
    spec: &ScenarioSpec,
    scenario: &dcatch_apps::synth::SynthScenario,
    result: &Result<BenchmarkReport, PipelineError>,
) -> Vec<String> {
    let id = spec.id();
    match result {
        Ok(report) => {
            let (missed, false_positives) = score_report(scenario, report);
            let observed = [
                ("pipeline_errors", 0),
                ("missed", missed.len() as u64),
                ("false_positives", false_positives as u64),
            ];
            expected.check_unit(Workload::SynthBatch.name(), &id, &observed)
        }
        Err(e) => vec![format!("{id}: pipeline error: {e}")],
    }
}

/// Checks the stream unit: exactly the planted pair, nothing evicted.
pub fn check_stream_unit(
    expected: &Expected,
    run_failures: usize,
    out: &StreamOutcome,
) -> Vec<String> {
    let on_flag = out
        .candidates
        .iter()
        .filter(|c| c.object() == "shared_flag");
    let observed = [
        ("run_failures", run_failures as u64),
        ("static_pairs", out.candidates.static_pair_count() as u64),
        ("pairs_on_shared_flag", on_flag.count() as u64),
        ("records_forced", out.records_forced),
    ];
    expected.check_unit(Workload::Stream.name(), "stream", &observed)
}

/// Runs the stream workload's simulation into `sink`; returns the steps
/// executed and the failures observed.
pub fn run_stream(
    program: &Program,
    topology: &Topology,
    config: &SimConfig,
    sink: &mut (dyn TraceSink + Send),
) -> Result<(u64, usize), String> {
    let run = World::run_streamed(program, topology, config.clone(), sink)
        .map_err(|e| format!("stream: {e}"))?;
    Ok((run.steps, run.failures.len()))
}

/// One untraced pass: every unit of the workload through the detector's
/// own entry point, each result checked against the reference.
pub fn run_pass(inputs: &Inputs, workload: Workload, expected: &Expected) -> PassOutcome {
    let mut outcome = PassOutcome::default();
    match inputs {
        Inputs::Suite { benches, opts } => {
            for bench in benches {
                let result = Pipeline::run(bench, opts);
                outcome.unit(check_suite_unit(
                    expected,
                    workload,
                    bench.id,
                    &result,
                    opts.triggering,
                ));
            }
        }
        Inputs::Stream {
            program,
            topology,
            config,
        } => {
            let mut sink = OnlineDetector::new(OnlineOptions::default());
            outcome.unit(match run_stream(program, topology, config, &mut sink) {
                Ok((_, failures)) => check_stream_unit(expected, failures, &sink.finalize()),
                Err(e) => vec![e],
            });
        }
        Inputs::Synth { specs, opts } => {
            for spec in specs {
                let (scenario, result) = run_spec(spec, opts);
                outcome.unit(check_synth_unit(expected, spec, &scenario, &result));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_scales() {
        let nominal = Size::FULL.trigger_scale;
        assert_eq!(suite_scales(7, nominal), suite_scales(7, nominal));
        assert_ne!(
            suite_scales(1, nominal),
            suite_scales(2, nominal),
            "another seed gives other scales"
        );
        for seed in 0..50 {
            let scales = suite_scales(seed, nominal);
            for scale in scales {
                let ratio = f64::from(scale) / f64::from(nominal);
                assert!((0.9..=1.1).contains(&ratio), "seed {seed}: scale {scale}");
            }
            // the permutation keeps the summed scale fixed
            assert_eq!(scales.iter().sum::<u32>(), 7 * nominal);
        }
    }

    /// The two generated scenarios known to fail (see `synth_base_seed`)
    /// must stay out of every batch, whatever seed the driver passes.
    #[test]
    fn synth_batches_stay_inside_the_swept_clean_range() {
        let count = u64::from(Size::FULL.synth_count);
        for seed in [
            0,
            1,
            2,
            338,
            339,
            340,
            3199,
            3200,
            3688,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let base = synth_base_seed(seed);
            assert!(base > 339, "seed {seed}");
            assert!(base + count - 1 < 3688, "seed {seed}");
        }
        assert_eq!(synth_base_seed(5), synth_base_seed(5));
        assert_ne!(synth_base_seed(5), synth_base_seed(6));
    }

    #[test]
    fn same_seed_builds_the_same_inputs() {
        let ids = |seed| match build_inputs(Workload::TriggerReplay, seed, Size::SMOKE) {
            Inputs::Suite { benches, .. } => {
                benches.iter().map(|b| (b.id, b.scale)).collect::<Vec<_>>()
            }
            _ => unreachable!(),
        };
        assert_eq!(ids(5), ids(5));
        let specs = |seed| match build_inputs(Workload::SynthBatch, seed, Size::SMOKE) {
            Inputs::Synth { specs, .. } => specs.iter().map(ScenarioSpec::id).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        assert_eq!(specs(5), specs(5));
        assert_ne!(specs(5), specs(6));
        assert_eq!(specs(5).len(), 8, "2 per protocol × 4 protocols");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Size::parse("smoke"), Some(Size::SMOKE));
        assert_eq!(Size::parse("huge"), None);
    }
}
