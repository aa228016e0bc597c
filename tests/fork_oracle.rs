//! The fork oracle: a candidate's two orderings share one run until the
//! forced order matters. Ordering 1 reuses ordering 0's run when the pair
//! was never held, and resumes a copy of it taken where both parties were
//! held otherwise (`dcatch_trigger::run_both_orders`, the farm's path).
//! Each of those runs must be the run a fresh `ControllerGate` gives
//! through `Prepared::run_with_gate`: the same order run (`coordinated`,
//! `completed`, `abandoned`, `decided`, `failures`) and the same simulator
//! result — virtual clock (`RunResult::steps`), failures, logs, faults
//! injected — field by field.
//!
//! The candidates are every candidate the scan finds (a superset of what
//! the pipeline triggers) on `detect all` at scales 1 and 4, under their
//! placement plans and the direct plans the farm falls back to, and on
//! `synth --seed 1 --count 4` under each scenario's fault plan. Each pair
//! is checked twice: with any failure as evidence (so a decided run stops
//! early) and with none (so every run reaches quiescence).

use dcatch::{FaultPlan, SimConfig, SynthBatchConfig};
use dcatch_apps::synth::generate;
use dcatch_detect::find_candidates;
use dcatch_hb::{HbAnalysis, HbConfig};
use dcatch_sim::{Failure, Prepared, RunResult, World};
use dcatch_trigger::{run_both_orders, ControllerGate, FarmSpec, OrderRun, TriggerPlan};

/// How many order runs the oracle compared, by how the farm ran them.
#[derive(Default)]
struct Tally {
    shared: usize,
    forked: usize,
}

fn any_failure(failures: &[Failure]) -> bool {
    !failures.is_empty()
}

fn no_failure(_: &[Failure]) -> bool {
    false
}

/// Everything a fresh run and a shared or forked one must agree on.
fn observed(run: &OrderRun, result: &RunResult) -> String {
    format!("{run:?}\n{result:?}")
}

/// Compares both orderings of `plan` against fresh runs.
fn check_plan(
    prepared: &Prepared,
    untraced: &SimConfig,
    plan: &TriggerPlan,
    what: &str,
    tally: &mut Tally,
) {
    for (name, evidence) in [
        (
            "any failure",
            &any_failure as &(dyn Fn(&[Failure]) -> bool + Sync),
        ),
        ("no failure", &no_failure),
    ] {
        let both = run_both_orders(prepared, untraced, plan, evidence);
        for (first, (run, result)) in both.iter().enumerate() {
            let mut gate = ControllerGate::new(plan.sides, first, evidence);
            let fresh = prepared.run_with_gate(untraced, &mut gate);
            let fresh_run = OrderRun {
                first,
                coordinated: gate.both_requested(),
                completed: gate.completed(),
                abandoned: gate.abandoned(),
                decided: fresh.decided,
                failures: fresh.failures.clone(),
            };
            assert_eq!(
                observed(run, result),
                observed(&fresh_run, &fresh),
                "{what}, ordering {first}, evidence: {name}"
            );
        }
        if both[0].0.coordinated {
            tally.forked += 1;
        } else {
            tally.shared += 1;
        }
    }
}

/// Every candidate of `bench`'s traced run under `faults`, under its
/// placement plan and its direct fallback.
fn check_bench(bench: &dcatch::Benchmark, faults: FaultPlan, tally: &mut Tally) -> usize {
    let prepared = World::prepare(&bench.program, &bench.topology).expect("benchmark prepares");
    let cfg = SimConfig::default()
        .with_seed(bench.seed)
        .with_faults(faults);
    let traced = prepared.run_once(&cfg);
    let hb = HbAnalysis::build(traced.trace, &HbConfig::default()).expect("HB builds");
    let untraced = SimConfig {
        trace_enabled: false,
        ..cfg
    };
    let candidates = find_candidates(&hb);
    for (i, c) in candidates.iter().enumerate() {
        let spec = FarmSpec::of(c);
        let what = format!("{} candidate {i} ({})", bench.id, c.object());
        check_plan(
            &prepared,
            &untraced,
            &spec.plan,
            &format!("{what}, plan"),
            tally,
        );
        // the fallback: the direct plan, when the plan is not already it
        if !spec.plan.is_direct() {
            let direct = TriggerPlan::direct(c);
            check_plan(
                &prepared,
                &untraced,
                &direct,
                &format!("{what}, direct"),
                tally,
            );
        }
    }
    candidates.iter().count()
}

#[test]
fn shared_and_forked_orderings_equal_fresh_runs_on_detect_all() {
    let mut tally = Tally::default();
    for scale in [1, 4] {
        for bench in dcatch::all_benchmarks_scaled(scale) {
            let n = check_bench(&bench, FaultPlan::default(), &mut tally);
            assert!(n > 0, "{} ×{scale}: no candidate", bench.id);
        }
    }
    // both paths are exercised, or the oracle pins nothing
    assert!(
        tally.shared > 0 && tally.forked > 0,
        "{} shared, {} forked",
        tally.shared,
        tally.forked
    );
}

#[test]
fn shared_and_forked_orderings_equal_fresh_runs_on_fault_planned_synth() {
    let mut tally = Tally::default();
    let cfg = SynthBatchConfig {
        base_seed: 1,
        count: 4,
        ..SynthBatchConfig::default()
    };
    let mut planned = 0;
    for spec in dcatch::batch_specs(&cfg) {
        let scenario = generate(&spec);
        let faults = FaultPlan::parse(&spec.fault_plan).expect("generated plans parse");
        planned += usize::from(faults != FaultPlan::default());
        check_bench(&scenario.bench, faults, &mut tally);
    }
    assert!(planned > 0, "the batch has fault plans");
    assert!(
        tally.shared > 0 && tally.forked > 0,
        "{} shared, {} forked",
        tally.shared,
        tally.forked
    );
}
