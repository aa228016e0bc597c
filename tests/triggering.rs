//! Triggering-module behaviour across the suite (paper §5 and §7.2's
//! "Triggering" discussion).

use dcatch::{
    plan_candidate, run_farm, trigger_candidate, FarmSpec, HbAnalysis, HbConfig, Pipeline,
    PipelineOptions, SimConfig, TriggerPlan, Verdict, World,
};

/// For every confirmed harmful bug, the *other* order is failure-free:
/// the forced order matters, which is what makes these timing bugs.
#[test]
fn harmful_bugs_have_one_failing_and_one_clean_order() {
    for id in ["MR-4637", "ZK-1144"] {
        let bench = dcatch::benchmark(id).unwrap();
        let report = Pipeline::run(&bench, &PipelineOptions::full()).unwrap();
        let harmful = report
            .known_bug_reports()
            .find(|r| r.verdict == Some(Verdict::Harmful))
            .unwrap_or_else(|| panic!("{id}: no harmful known report"));
        // re-trigger manually to inspect the per-order outcomes
        let cfg = SimConfig::default().with_seed(bench.seed);
        let trep = trigger_candidate(&bench.program, &bench.topology, &cfg, &harmful.candidate);
        assert_eq!(trep.verdict, Verdict::Harmful, "{id}");
        let clean_order = trep
            .runs
            .iter()
            .any(|r| r.coordinated && r.failures.is_empty());
        let failing_order = trep
            .runs
            .iter()
            .any(|r| r.coordinated && !r.failures.is_empty());
        assert!(clean_order && failing_order, "{id}: {trep:#?}");
    }
}

/// Placement analysis (§5.2) fires on the suite: at least one candidate
/// per event-driven benchmark needs a non-direct placement, and the
/// coordination then succeeds where the naive placement would starve the
/// single-consumer queue.
#[test]
fn placement_rules_fire_on_event_driven_benchmarks() {
    let mut non_direct = 0;
    for id in ["MR-3274", "CA-1011", "HB-4539"] {
        let bench = dcatch::benchmark(id).unwrap();
        let cfg = SimConfig::default().with_seed(bench.seed);
        let run = World::run_once(&bench.program, &bench.topology, cfg).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        let candidates = dcatch::find_candidates(&hb);
        for c in &candidates {
            let plan: TriggerPlan = plan_candidate(c);
            if !plan.is_direct() {
                non_direct += 1;
            }
        }
    }
    assert!(non_direct > 0, "no placement rule ever fired");
}

/// Triggering is repeatable: the same candidate yields the same verdict
/// on repeated invocations (the controller and scheduler are
/// deterministic).
#[test]
fn verdicts_are_deterministic() {
    let bench = dcatch::benchmark("HB-4729").unwrap();
    let cfg = SimConfig::default().with_seed(bench.seed);
    let run = World::run_once(&bench.program, &bench.topology, cfg.clone()).unwrap();
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
    let candidates = dcatch::find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "/unassigned/r2")
        .expect("zknode candidate");
    let v1 = trigger_candidate(&bench.program, &bench.topology, &cfg, c).verdict;
    let v2 = trigger_candidate(&bench.program, &bench.topology, &cfg, c).verdict;
    assert_eq!(v1, v2);
}

/// A serial report stays serial: the ZK-1270 barrier pair can never be
/// coordinated, in either order.
#[test]
fn serial_pairs_never_coordinate() {
    let bench = dcatch::benchmark("ZK-1270").unwrap();
    let report = Pipeline::run(&bench, &PipelineOptions::full()).unwrap();
    let serial = report
        .reports
        .iter()
        .find(|r| r.verdict == Some(Verdict::Serial))
        .expect("a serial report");
    let cfg = SimConfig::default().with_seed(bench.seed);
    let trep = trigger_candidate(&bench.program, &bench.topology, &cfg, &serial.candidate);
    assert_eq!(trep.verdict, Verdict::Serial);
    assert!(trep.runs.iter().all(|r| !r.coordinated));
}

/// A controller that gave up holds nothing afterwards. Under direct
/// placement, in these four pairs one party reaches its request point only
/// after a stall abandoned the other: no run ever held both, so the pair
/// is serial — a hold after the abandon used to count as coordination and
/// read the pair as a benign race.
#[test]
fn an_abandoned_controller_coordinates_nothing() {
    for (id, object, pairs) in [
        (
            "MR-3274",
            "commit_count",
            ["f12:1 × f12:4", "f12:3 × f12:4"],
        ),
        ("ZK-1270", "epoch_ack_count", ["f1:4 × f1:7", "f1:6 × f1:7"]),
    ] {
        let bench = dcatch::benchmark(id).unwrap();
        let report = Pipeline::run(&bench, &PipelineOptions::full()).unwrap();
        let direct: Vec<FarmSpec> = pairs
            .iter()
            .map(|pair| {
                let rep = report.reports.iter().find(|r| {
                    let (s, t) = r.candidate.static_pair;
                    r.object() == object && format!("{s} × {t}") == *pair
                });
                let c = &rep
                    .unwrap_or_else(|| panic!("{id}: no {pair} on `{object}`"))
                    .candidate;
                let plan = TriggerPlan::direct(c);
                FarmSpec { plan, direct: None }
            })
            .collect();
        let cfg = SimConfig::default().with_seed(bench.seed);
        let reports = run_farm(
            &bench.program,
            &bench.topology,
            &cfg,
            &direct,
            1,
            None,
            None,
        );
        for (pair, trep) in pairs.iter().zip(reports) {
            assert_eq!(trep.verdict, Verdict::Serial, "{id}: {pair}");
        }
    }
}
