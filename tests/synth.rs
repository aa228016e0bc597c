//! Integration tests for the generative protocol fuzzer: recall over a
//! seed matrix, shrinker properties, quarantine/replay round-trips, and
//! the never-panic robustness contract for generated scenarios.
//!
//! The tier-1 matrix is intentionally small (one seed per protocol of
//! full pipeline work); `DCATCH_SOAK=1` widens the seed sweep. The
//! committed recall baseline itself is gated by `scripts/check.sh synth`.

use dcatch::cli;
use dcatch::synth::{row_exit_code, score_json};
use dcatch::{batch_specs, run_scenario, run_spec, shrink, PipelineOptions, SynthBatchConfig};
use dcatch_apps::synth::{Protocol, ScenarioSpec, SynthParams};

fn soak() -> bool {
    std::env::var("DCATCH_SOAK").as_deref() == Ok("1")
}

fn spec(proto: Protocol, seed: u64, bugs: Option<u32>) -> ScenarioSpec {
    ScenarioSpec::from_params(&SynthParams {
        seed,
        protocol: Some(proto),
        bugs,
        ..SynthParams::default()
    })
}

/// Planted bugs must be found with zero false positives across the seed
/// matrix — the recall property the `check.sh synth` gate holds at batch
/// scale.
#[test]
fn planted_bug_recall_over_seed_matrix() {
    let seeds: &[u64] = if soak() { &[1, 2, 3, 11, 42] } else { &[11] };
    let cfg = SynthBatchConfig {
        bugs: Some(2),
        ..SynthBatchConfig::default()
    };
    let opts = PipelineOptions::full();
    for proto in Protocol::all() {
        for &seed in seeds {
            let spec = spec(proto, seed, Some(2));
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
            assert_eq!(row_exit_code(&score_json(&score)), 0, "{}", spec.id());
        }
    }
}

/// Generated scenarios must never panic the pipeline: every outcome is a
/// scored report or a classified structured error. Exercised across all
/// protocols with the generator free to roll noise, churn, and fault
/// plans.
#[test]
fn generated_scenarios_never_panic_the_pipeline() {
    let count = if soak() { 8 } else { 2 };
    let cfg = SynthBatchConfig {
        base_seed: 100,
        count,
        ..SynthBatchConfig::default()
    };
    let opts = PipelineOptions::fast();
    for spec in batch_specs(&cfg) {
        let (scenario, result) = run_spec(&spec, &opts);
        match result {
            Ok(report) => assert_eq!(report.id, scenario.bench.id),
            Err(e) => assert!(
                matches!(e.kind(), "run" | "traced_run_failed" | "watchdog_timeout"),
                "{}: unclassified failure {e}",
                spec.id()
            ),
        }
    }
}

/// Shrinker property (seed matrix): whatever predicate it minimizes
/// against, the result still satisfies the predicate, is never larger
/// than the parent, and is deterministic.
#[test]
fn shrink_preserves_predicate_and_never_grows() {
    let seeds: &[u64] = if soak() {
        &[1, 2, 3, 5, 7, 11, 13, 42, 1011]
    } else {
        &[1, 7, 42]
    };
    // pure spec predicates standing in for "the discrepancy reproduces";
    // pipeline-backed reproduction is covered by the quarantine e2e test
    type Predicate = fn(&ScenarioSpec) -> bool;
    let predicates: &[(&str, Predicate)] = &[
        ("any", |_| true),
        ("keeps-bug-0", |s| s.bugs.iter().any(|b| b.index == 0)),
        ("has-fault-plan", |s| !s.fault_plan.is_empty()),
        ("multi-worker", |s| s.workers >= 2),
    ];
    for proto in Protocol::all() {
        for &seed in seeds {
            let parent = spec(proto, seed, None);
            for (name, pred) in predicates {
                if !pred(&parent) {
                    continue; // nothing to reproduce
                }
                let (minimal, used) = shrink(&parent, 10_000, pred);
                assert!(
                    pred(&minimal),
                    "{} {name}: shrunk spec no longer satisfies the predicate",
                    parent.id()
                );
                assert!(
                    minimal.size() <= parent.size(),
                    "{} {name}: shrink grew the scenario ({} -> {})",
                    parent.id(),
                    parent.size(),
                    minimal.size()
                );
                // fixpoint: no single step of the minimal spec satisfies
                // the predicate (otherwise the shrinker stopped early)
                assert!(
                    minimal.shrink_steps().iter().all(|c| !pred(c)),
                    "{} {name}: shrinker stopped before the fixpoint",
                    parent.id()
                );
                let (again, used_again) = shrink(&parent, 10_000, pred);
                assert_eq!(
                    minimal,
                    again,
                    "{} {name}: shrink not deterministic",
                    parent.id()
                );
                assert_eq!(used, used_again);
            }
        }
    }
}

/// A forced discrepancy is shrunk and quarantined as a replayable case
/// whose spec round-trips and still carries the discrepant bug. Uses a
/// ground-truth index no detector output can cover, so the miss
/// reproduces under the real pipeline check at every shrink step.
#[test]
fn discrepancies_are_quarantined_as_replayable_cases() {
    let dir = std::env::temp_dir().join(format!("dcatch-synth-q-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SynthBatchConfig {
        protocols: vec![Protocol::LeaderElection],
        bugs: Some(1),
        quarantine_dir: Some(dir.clone()),
        shrink_budget: 6, // keep the pipeline-backed shrink cheap
        ..SynthBatchConfig::default()
    };
    let spec = spec(Protocol::LeaderElection, 1, Some(1));
    // force a deterministic miss: plant a bug but disable triggering, so
    // no Harmful verdict can ever cover it (at any shrink step either)
    let mut opts = PipelineOptions::full();
    opts.triggering = false;
    let score = run_scenario(&spec, &opts, &cfg);
    assert!(score.error.is_none(), "{:?}", score.error);
    assert_eq!(score.detected, 0);
    assert_eq!(score.missed.len(), 1);
    assert_eq!(score.quarantined.len(), 1, "miss was not quarantined");
    let case = &score.quarantined[0];
    assert!(case.shrunk_size <= case.original_size);
    assert!(case.shrink_runs <= cfg.shrink_budget);
    // the quarantine file replays: parse it back into a spec that still
    // carries the missed bug
    let path = dir.join(&case.file);
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = dcatch_obs::json::parse(&text).unwrap();
    let replayed = ScenarioSpec::from_json(doc.get("spec").unwrap()).unwrap();
    let missed = score.missed[0];
    assert!(
        replayed.bugs.iter().any(|b| b.index == missed),
        "quarantined spec dropped the missed bug"
    );
    // exit-code surface: a miss row reports 2
    assert_eq!(row_exit_code(&score_json(&score)), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--resume` journal fingerprint moves with every flag that shapes a
/// scenario row — each generator parameter, the shrink settings, the
/// governed-pipeline options — so a journal from different synth settings
/// is refused instead of spliced; a flag that shapes nothing, or one given
/// its default, leaves it alone.
#[test]
fn fingerprint_covers_every_generator_parameter() {
    let synth = cli::COMMANDS
        .iter()
        .find(|c| c.name == "synth")
        .expect("a table");
    let fp = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let parsed = cli::parse(synth, &args)
            .expect("parses")
            .expect("not --help");
        cli::fingerprint(&parsed).expect("fingerprints")
    };
    let base = fp(&[]);
    for flag in synth.flags {
        let given = match flag.value {
            Some(_) => fp(&[flag.name, "3"]),
            None => fp(&[flag.name]),
        };
        assert_eq!(given != base, flag.shapes, "`{}` {given}", flag.name);
        if let Some(default) = flag.default {
            assert_eq!(
                fp(&[flag.name, default]),
                base,
                "`{}` at its default",
                flag.name
            );
        }
    }
    let generator = [
        "--seed",
        "--count",
        "--protocol",
        "--nodes",
        "--clients",
        "--fan-out",
        "--bugs",
        "--quarantine",
        "--no-shrink",
        "--shrink-budget",
    ];
    for name in generator {
        let row = synth.flags.iter().find(|f| f.name == name);
        assert!(row.is_some_and(|f| f.shapes), "`{name}` must shape a row");
    }
}
