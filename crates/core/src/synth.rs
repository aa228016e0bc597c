//! Batch runner, recall/precision scorer, and scenario shrinker for the
//! generative protocol fuzzer (`dcatch_apps::synth`).
//!
//! [`batch_specs`] generates `count` scenarios per protocol from a base
//! seed; [`run_scenario`] drives each one through the full pipeline
//! (governor, triggering farm, and fault engine all engaged — each
//! scenario carries its own generated fault plan) and scores the Harmful
//! verdicts against the planted ground truth. Every discrepancy — a planted bug the pipeline
//! missed, a Harmful verdict on a pair nobody planted, or a pipeline
//! failure — is handed to [`shrink`], which greedily walks
//! [`ScenarioSpec::shrink_steps`] re-running the pipeline until no
//! single-step-smaller scenario still reproduces it, and the minimal
//! spec is written to a quarantine directory as a replayable JSON case
//! (`dcatch synth --replay FILE`).
//!
//! Scenarios run under [`run_bounded`], so a generated program that
//! panics the pipeline surfaces as a structured `error` row, never a
//! crashed batch.

use std::path::{Path, PathBuf};

use dcatch_apps::synth::{generate, Protocol, ScenarioSpec, SynthParams, SynthScenario};
use dcatch_model::StmtId;
use dcatch_obs::Json;
use dcatch_sim::FaultPlan;
use dcatch_trigger::Verdict;

use crate::report_json::{entry_error, error_exit_code};
use crate::{run_bounded, BenchmarkReport, Pipeline, PipelineError, PipelineOptions};

/// Batch configuration: which scenarios to generate and how hard to
/// shrink discrepancies.
#[derive(Debug, Clone)]
pub struct SynthBatchConfig {
    /// Protocols to cover (a scenario per protocol per seed).
    pub protocols: Vec<Protocol>,
    /// First scenario seed; scenario `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Scenarios per protocol.
    pub count: u32,
    /// Generator overrides forwarded to [`SynthParams`].
    pub workers: Option<u32>,
    /// See [`SynthParams::clients`].
    pub clients: Option<u32>,
    /// See [`SynthParams::fan_out`].
    pub fan_out: Option<u32>,
    /// See [`SynthParams::bugs`].
    pub bugs: Option<u32>,
    /// Where shrunk discrepancy cases are written; `None` disables both
    /// shrinking and quarantine (scoring still reports discrepancies).
    pub quarantine_dir: Option<PathBuf>,
    /// Maximum extra pipeline runs the shrinker may spend per
    /// discrepancy.
    pub shrink_budget: usize,
}

impl Default for SynthBatchConfig {
    fn default() -> SynthBatchConfig {
        SynthBatchConfig {
            protocols: Protocol::all().to_vec(),
            base_seed: 1,
            count: 1,
            workers: None,
            clients: None,
            fan_out: None,
            bugs: None,
            quarantine_dir: None,
            shrink_budget: 40,
        }
    }
}

impl SynthBatchConfig {
    /// The generator params of scenario `seed` under this config.
    pub fn params(&self, protocol: Protocol, seed: u64) -> SynthParams {
        SynthParams {
            seed,
            protocol: Some(protocol),
            workers: self.workers,
            clients: self.clients,
            fan_out: self.fan_out,
            bugs: self.bugs,
        }
    }
}

/// How one scenario's verdicts disagreed with its planted ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discrepancy {
    /// A planted bug no Harmful verdict covered.
    Miss {
        /// The planted bug's index within its scenario.
        bug: u32,
    },
    /// A Harmful verdict on a static pair nobody planted.
    FalsePositive,
    /// The pipeline itself failed (panic, watchdog, failed traced run…).
    PipelineFailure {
        /// `PipelineError::kind()` of the failure.
        kind: String,
    },
}

impl Discrepancy {
    /// Short slug used in quarantine file names.
    pub fn slug(&self) -> String {
        match self {
            Discrepancy::Miss { bug } => format!("miss-bug{bug}"),
            Discrepancy::FalsePositive => "false-positive".to_owned(),
            Discrepancy::PipelineFailure { kind } => format!("error-{kind}"),
        }
    }
}

/// One scenario's scored outcome.
#[derive(Debug, Clone)]
pub struct ScenarioScore {
    /// The generating spec.
    pub spec: ScenarioSpec,
    /// Planted bug count.
    pub planted: usize,
    /// Planted bugs covered by a Harmful verdict on a ground-truth pair.
    pub detected: usize,
    /// Indices of planted bugs the pipeline missed.
    pub missed: Vec<u32>,
    /// Harmful verdicts on pairs matching no planted bug.
    pub false_positives: usize,
    /// Pipeline failure, if the run did not produce a report.
    pub error: Option<(String, String)>,
    /// Faults the generated plan injected across the scenario's runs.
    pub faults_injected: u64,
    /// Governor degradation-ladder steps taken.
    pub degradations: usize,
    /// Shrunk and quarantined discrepancy cases.
    pub quarantined: Vec<QuarantinedCase>,
}

/// A shrunk discrepancy written to the quarantine directory.
#[derive(Debug, Clone)]
pub struct QuarantinedCase {
    /// What went wrong.
    pub discrepancy: Discrepancy,
    /// Quarantine file name (relative to the quarantine directory).
    pub file: String,
    /// Parent scenario size per [`ScenarioSpec::size`].
    pub original_size: usize,
    /// Minimized scenario size.
    pub shrunk_size: usize,
    /// Pipeline runs the shrinker spent.
    pub shrink_runs: usize,
}

/// Runs one spec through the full pipeline under a panic guard (and the
/// caller's watchdog, when `opts.timeout` is set). The spec's own fault
/// plan is injected into every run of the pipeline.
pub fn run_spec(
    spec: &ScenarioSpec,
    opts: &PipelineOptions,
) -> (SynthScenario, Result<BenchmarkReport, PipelineError>) {
    let scenario = generate(spec);
    let mut opts = opts.clone();
    // the generated plan is parseable by construction; a hand-edited
    // replay case with a bad plan surfaces as a failed run, not a crash
    match FaultPlan::parse(&spec.fault_plan) {
        Ok(plan) => opts.faults = plan,
        Err(e) => {
            let err = PipelineError::TracedRunFailed(format!("bad scenario fault plan: {e}"));
            return (scenario, Err(err));
        }
    }
    opts.fault_target = None;
    opts.seed = None; // the scenario seed is the benchmark seed
    let bench = scenario.bench.clone();
    let name = format!("dcatch-synth-{}", bench.id);
    let timeout = opts.timeout;
    let result = run_bounded(&name, timeout, move || Pipeline::run(&bench, &opts)).and_then(|r| r);
    (scenario, result)
}

/// Scores a report against a scenario's planted ground truth: which
/// planted bugs a Harmful verdict covers, and how many Harmful verdicts
/// cover no planted pair.
pub fn score_report(scenario: &SynthScenario, report: &BenchmarkReport) -> (Vec<u32>, usize) {
    let harmful: Vec<(StmtId, StmtId)> = report
        .reports
        .iter()
        .filter(|r| matches!(r.verdict, Some(Verdict::Harmful)))
        .map(|r| r.candidate.static_pair)
        .collect();
    let missed: Vec<u32> = scenario
        .truth
        .iter()
        .filter(|bug| !harmful.iter().any(|p| bug.pairs.contains(p)))
        .map(|bug| bug.index)
        .collect();
    let false_positives = harmful
        .iter()
        .filter(|p| !scenario.truth.iter().any(|bug| bug.pairs.contains(p)))
        .count();
    (missed, false_positives)
}

/// Whether `spec` still reproduces `d` when run under `opts`.
fn reproduces(spec: &ScenarioSpec, opts: &PipelineOptions, d: &Discrepancy) -> bool {
    match d {
        // a shrink step that dropped the missed bug can no longer
        // reproduce a miss of it
        Discrepancy::Miss { bug } if !spec.bugs.iter().any(|b| b.index == *bug) => false,
        Discrepancy::Miss { bug } => {
            let (scenario, result) = run_spec(spec, opts);
            match result {
                Ok(report) => score_report(&scenario, &report).0.contains(bug),
                Err(_) => false,
            }
        }
        Discrepancy::FalsePositive => {
            let (scenario, result) = run_spec(spec, opts);
            match result {
                Ok(report) => score_report(&scenario, &report).1 > 0,
                Err(_) => false,
            }
        }
        Discrepancy::PipelineFailure { kind } => {
            let (_, result) = run_spec(spec, opts);
            matches!(result, Err(e) if e.kind() == kind)
        }
    }
}

/// Greedy deterministic minimization: repeatedly takes the first
/// [`ScenarioSpec::shrink_steps`] candidate that still reproduces the
/// discrepancy (per `check`), until none does or the attempt budget is
/// spent. Returns the minimal spec and the attempts used. Every accepted
/// step is strictly smaller, so the loop terminates.
pub fn shrink(
    spec: &ScenarioSpec,
    budget: usize,
    mut check: impl FnMut(&ScenarioSpec) -> bool,
) -> (ScenarioSpec, usize) {
    let mut current = spec.clone();
    let mut used = 0;
    'outer: loop {
        for candidate in current.shrink_steps() {
            if used >= budget {
                return (current, used);
            }
            used += 1;
            if check(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return (current, used);
    }
}

/// Shrinks one discrepancy of `spec` (re-running the pipeline as the
/// reproduction check) and writes the minimal spec to `dir` as a
/// replayable JSON case.
fn quarantine(
    spec: &ScenarioSpec,
    opts: &PipelineOptions,
    d: &Discrepancy,
    dir: &Path,
    budget: usize,
) -> Result<QuarantinedCase, String> {
    let (minimal, used) = shrink(spec, budget, |s| reproduces(s, opts, d));
    let file = format!("{}-{}.json", spec.id(), d.slug());
    let doc = Json::obj([
        ("kind", Json::Str(d.slug())),
        ("parent", Json::Str(spec.id())),
        ("original_size", Json::UInt(spec.size() as u64)),
        ("shrunk_size", Json::UInt(minimal.size() as u64)),
        ("shrink_runs", Json::UInt(used as u64)),
        ("spec", minimal.to_json()),
    ]);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(&file);
    std::fs::write(&path, doc.to_pretty().as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(QuarantinedCase {
        discrepancy: d.clone(),
        file,
        original_size: spec.size(),
        shrunk_size: minimal.size(),
        shrink_runs: used,
    })
}

/// Runs and scores one scenario, shrinking and quarantining every
/// discrepancy when the config carries a quarantine directory.
pub fn run_scenario(
    spec: &ScenarioSpec,
    opts: &PipelineOptions,
    cfg: &SynthBatchConfig,
) -> ScenarioScore {
    let (scenario, result) = run_spec(spec, opts);
    let mut score = match result {
        Ok(report) => {
            let (missed, false_positives) = score_report(&scenario, &report);
            ScenarioScore {
                spec: spec.clone(),
                planted: scenario.truth.len(),
                detected: scenario.truth.len() - missed.len(),
                missed,
                false_positives,
                error: None,
                faults_injected: report.metrics.counter("faults_injected"),
                degradations: report.degradations.len(),
                quarantined: Vec::new(),
            }
        }
        Err(e) => ScenarioScore {
            spec: spec.clone(),
            planted: scenario.truth.len(),
            detected: 0,
            missed: scenario.truth.iter().map(|b| b.index).collect(),
            false_positives: 0,
            error: Some((e.kind().to_owned(), e.to_string())),
            faults_injected: 0,
            degradations: 0,
            quarantined: Vec::new(),
        },
    };
    let mut discrepancies: Vec<Discrepancy> = Vec::new();
    if let Some((kind, _)) = &score.error {
        discrepancies.push(Discrepancy::PipelineFailure { kind: kind.clone() });
    } else {
        discrepancies.extend(score.missed.iter().map(|&bug| Discrepancy::Miss { bug }));
        if score.false_positives > 0 {
            discrepancies.push(Discrepancy::FalsePositive);
        }
    }
    if let Some(dir) = &cfg.quarantine_dir {
        for d in &discrepancies {
            match quarantine(spec, opts, d, dir, cfg.shrink_budget) {
                Ok(case) => score.quarantined.push(case),
                Err(e) => eprintln!("{}: quarantine failed: {e}", spec.id()),
            }
        }
    }
    score
}

/// One scenario's JSON row — the unit the `--resume` journal records.
/// Integer- and string-only, so batch output is byte-deterministic per
/// seed.
pub fn score_json(s: &ScenarioScore) -> Json {
    Json::obj([
        ("id", Json::Str(s.spec.id())),
        ("protocol", Json::Str(s.spec.protocol.name().to_owned())),
        ("seed", Json::UInt(s.spec.seed)),
        (
            "error",
            match &s.error {
                None => Json::Null,
                Some((kind, msg)) => Json::obj([
                    ("kind", Json::Str(kind.clone())),
                    ("message", Json::Str(msg.clone())),
                ]),
            },
        ),
        ("planted", Json::UInt(s.planted as u64)),
        ("detected", Json::UInt(s.detected as u64)),
        (
            "missed_bugs",
            Json::Arr(s.missed.iter().map(|&b| Json::UInt(u64::from(b))).collect()),
        ),
        ("false_positives", Json::UInt(s.false_positives as u64)),
        ("faults_injected", Json::UInt(s.faults_injected)),
        ("degradations", Json::UInt(s.degradations as u64)),
        (
            "quarantined",
            Json::Arr(
                s.quarantined
                    .iter()
                    .map(|q| {
                        Json::obj([
                            ("kind", Json::Str(q.discrepancy.slug())),
                            ("file", Json::Str(q.file.clone())),
                            ("original_size", Json::UInt(q.original_size as u64)),
                            ("shrunk_size", Json::UInt(q.shrunk_size as u64)),
                            ("shrink_runs", Json::UInt(q.shrink_runs as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Aggregates scenario rows (journaled or fresh) into the report's
/// `synth` section: per-protocol recall/precision tallies plus the rows
/// themselves.
pub fn synth_section(cfg: &SynthBatchConfig, rows: &[Json]) -> Json {
    let mut protocols = Vec::new();
    for proto in &cfg.protocols {
        let mut scenarios = 0u64;
        let (mut planted, mut detected, mut fps, mut errors, mut quarantined) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for row in rows
            .iter()
            .filter(|r| r.get("protocol").and_then(Json::as_str) == Some(proto.name()))
        {
            scenarios += 1;
            let num = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
            planted += num("planted");
            detected += num("detected");
            fps += num("false_positives");
            errors += u64::from(entry_error(row).is_some());
            quarantined += row
                .get("quarantined")
                .and_then(Json::as_arr)
                .map_or(0, |a| a.len() as u64);
        }
        protocols.push(Json::obj([
            ("protocol", Json::Str(proto.name().to_owned())),
            ("scenarios", Json::UInt(scenarios)),
            ("planted", Json::UInt(planted)),
            ("detected", Json::UInt(detected)),
            ("false_positives", Json::UInt(fps)),
            ("errors", Json::UInt(errors)),
            ("quarantined", Json::UInt(quarantined)),
        ]));
    }
    Json::obj([
        ("base_seed", Json::UInt(cfg.base_seed)),
        ("count", Json::UInt(u64::from(cfg.count))),
        ("protocols", Json::Arr(protocols)),
        ("scenarios", Json::Arr(rows.to_vec())),
    ])
}

/// Builds the full versioned run-report document for a synth batch: the
/// standard envelope with the `synth` section populated and an empty
/// `benchmarks` array (scenario results live in `synth.scenarios`).
pub fn synth_report_doc(cfg: &SynthBatchConfig, rows: &[Json]) -> Json {
    let num = |row: &Json, k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    let faults = rows.iter().map(|r| num(r, "faults_injected")).sum();
    let governor = rows.iter().map(|r| num(r, "degradations")).sum();
    let failed = rows.iter().filter(|r| entry_error(r).is_some()).count() as u64;
    crate::report_json::envelope(
        [faults, failed, 0, governor],
        Vec::new(),
        synth_section(cfg, rows),
    )
}

/// The exit code a scenario row contributes: 0 clean, 2 on any scoring
/// discrepancy (miss or false positive), 3/5/6 on pipeline failures
/// (mirroring the `detect` table).
pub fn row_exit_code(row: &Json) -> u8 {
    if let Some(code) = error_exit_code(row) {
        return code;
    }
    let num = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    if num("detected") < num("planted") || num("false_positives") > 0 {
        2
    } else {
        0
    }
}

/// All `(protocol, seed)` scenario specs of a batch, in report order.
pub fn batch_specs(cfg: &SynthBatchConfig) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &proto in &cfg.protocols {
        for i in 0..u64::from(cfg.count) {
            specs.push(ScenarioSpec::from_params(
                &cfg.params(proto, cfg.base_seed + i),
            ));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end probe: a scenario with one planted bug of each kind per
    /// protocol family must score full recall with no false positives.
    #[test]
    fn planted_bugs_are_detected_end_to_end() {
        for proto in [Protocol::LeaderElection, Protocol::TwoPhaseCommit] {
            let cfg = SynthBatchConfig {
                protocols: vec![proto],
                base_seed: 1,
                bugs: Some(2),
                ..SynthBatchConfig::default()
            };
            let spec = ScenarioSpec::from_params(&cfg.params(proto, 1));
            let opts = PipelineOptions::full();
            let score = run_scenario(&spec, &opts, &cfg);
            assert!(score.error.is_none(), "{}: {:?}", spec.id(), score.error);
            assert_eq!(score.planted, 2, "{}", spec.id());
            assert_eq!(
                score.detected,
                2,
                "{}: missed {:?}",
                spec.id(),
                score.missed
            );
            assert_eq!(score.false_positives, 0, "{}", spec.id());
        }
    }

    #[test]
    fn shrink_respects_budget_and_monotonicity() {
        let spec = ScenarioSpec::from_params(&SynthParams {
            seed: 7,
            protocol: Some(Protocol::Gossip),
            bugs: Some(2),
            ..SynthParams::default()
        });
        // a predicate that always reproduces shrinks to the global minimum
        let (minimal, used) = shrink(&spec, 10_000, |_| true);
        assert!(minimal.size() < spec.size());
        assert!(minimal.shrink_steps().is_empty() || used == 10_000);
        // zero budget returns the parent untouched
        let (same, used) = shrink(&spec, 0, |_| true);
        assert_eq!(same, spec);
        assert_eq!(used, 0);
    }
}
