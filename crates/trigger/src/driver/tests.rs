use dcatch_detect::find_candidates;
use dcatch_hb::{HbAnalysis, HbConfig};
use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder};
use dcatch_sim::{RunFailureKind, SimConfig, Topology, World};

use super::{trigger_candidate, Verdict};
use crate::placement::{plan_candidate, PlacementRule};
use crate::ControllerGate;

fn setup(p: &Program, topo: &Topology) -> (SimConfig, HbAnalysis) {
    let cfg = SimConfig::default().with_seed(42).with_full_tracing();
    let run = World::run_once(p, topo, cfg.clone())
        .expect("traced base run (seed 42) must start cleanly");
    assert!(
        run.failures.is_empty(),
        "base run must be correct: {:?}",
        run.failures
    );
    let hb = HbAnalysis::build(run.trace, &HbConfig::default())
        .expect("HB analysis must accept the seed-42 base trace");
    (cfg, hb)
}

/// Executed simulator steps of `run`, from `sim_steps_total` (metrics are
/// per thread, and `run` runs on this one).
fn executed_steps<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = dcatch_obs::metrics::snapshot();
    let out = run();
    let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
    (out, delta.counter("sim_steps_total"))
}

/// An order violation: the reader aborts when it runs before the writer.
/// The natural run is correct (the reader sleeps); triggering must force
/// the bad order and classify the candidate as harmful. The harmful run
/// stops at the failure that decides it, before the natural run's end.
#[test]
fn order_violation_is_confirmed_harmful() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn_detached("writer", vec![]);
        b.spawn_detached("reader", vec![]);
    });
    pb.func("writer", &[], FuncKind::Regular, |b| {
        b.write("init", Expr::val(1));
        // the rest of the run, which a decided run never reaches
        for step in 0..8 {
            b.write("progress", Expr::val(step));
        }
    });
    pb.func("reader", &[], FuncKind::Regular, |b| {
        b.sleep(Expr::val(50)); // natural timing: writer wins
        b.read("v", "init");
        b.if_(Expr::local("v").eq(Expr::null()), |b| {
            b.abort("read uninitialized state");
        });
    });
    let p = pb.build().expect("order-violation program must build");
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let (cfg, hb) = setup(&p, &topo);
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "init")
        .expect("init candidate");

    let report = trigger_candidate(&p, &topo, &cfg, c);
    assert_eq!(report.verdict, Verdict::Harmful, "{report:#?}");
    assert!(report
        .failures()
        .any(|f| matches!(f.kind, RunFailureKind::Abort)));
    // one of the two orders must be failure-free (the correct one)
    assert!(report
        .runs
        .iter()
        .any(|r| r.coordinated && r.failures.is_empty()));

    let harmful = report
        .runs
        .iter()
        .find(|r| r.decided)
        .expect("the harmful run stops at its decision");
    let last = harmful.failures.last().expect("a decided run failed");
    assert!(matches!(last.kind, RunFailureKind::Abort), "{harmful:#?}");
    assert_eq!(harmful.failures.len(), 1, "nothing runs past the decision");
    // the correct order shows nothing, so it runs to quiescence
    assert!(report
        .runs
        .iter()
        .all(|r| r.decided != r.failures.is_empty()));

    let prepared = World::prepare(&p, &topo).expect("program prepares");
    let untraced = SimConfig {
        trace_enabled: false,
        ..cfg.clone()
    };
    let (natural, natural_steps) = executed_steps(|| prepared.run_once(&untraced));
    assert!(natural.failures.is_empty());
    let any_failure = |fs: &[dcatch_sim::Failure]| !fs.is_empty();
    let mut gate = ControllerGate::new(report.plan.sides, harmful.first, &any_failure);
    let (rerun, rerun_steps) = executed_steps(|| prepared.run_with_gate(&untraced, &mut gate));
    assert!(rerun.decided);
    assert!(
        rerun_steps < natural_steps,
        "the decided run executed {rerun_steps} steps, the natural run {natural_steps}"
    );
}

/// Two racing writers with no failure impact in either order: a true but
/// benign race.
#[test]
fn harmless_race_is_benign() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn_detached("w1", vec![]);
        b.spawn_detached("w2", vec![]);
    });
    pb.func("w1", &[], FuncKind::Regular, |b| {
        b.write("stat", Expr::val(1));
    });
    pb.func("w2", &[], FuncKind::Regular, |b| {
        b.write("stat", Expr::val(2));
    });
    let p = pb.build().expect("harmless-race program must build");
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let (cfg, hb) = setup(&p, &topo);
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .next()
        .expect("the racing writes on `stat` must survive detection");
    let report = trigger_candidate(&p, &topo, &cfg, c);
    assert_eq!(report.verdict, Verdict::BenignRace, "{report:#?}");
    // nothing decides a benign race early: every run reaches quiescence
    assert!(report.runs.iter().all(|r| !r.decided), "{report:#?}");
}

/// Custom synchronization the HB model cannot see (a spin-wait barrier):
/// the accesses are reported concurrent, but triggering discovers that one
/// party can never reach its request point while the other is held — the
/// paper's "serial" report category.
#[test]
fn custom_sync_pair_is_classified_serial() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn_detached("producer", vec![]);
        b.spawn_detached("consumer", vec![]);
    });
    pb.func("producer", &[], FuncKind::Regular, |b| {
        b.write("data", Expr::val(7));
        b.write("flag", Expr::val(true));
    });
    pb.func("consumer", &[], FuncKind::Regular, |b| {
        b.assign("go", Expr::val(false));
        b.retry_while(Expr::local("go").not(), |b| {
            b.read("f", "flag");
            b.assign("go", Expr::local("f"));
        });
        b.read("d", "data");
    });
    let p = pb.build().expect("custom-sync program must build");
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let (cfg, hb) = setup(&p, &topo);
    let candidates = find_candidates(&hb);
    // deliberately skip the loop-sync analysis: the data pair stays a
    // candidate, as with the paper's unidentified custom synchronization
    let c = candidates
        .iter()
        .find(|c| c.object() == "data")
        .expect("data candidate");
    let report = trigger_candidate(&p, &topo, &cfg, c);
    assert_eq!(report.verdict, Verdict::Serial, "{report:#?}");
}

/// MR-4637 shape: two handlers of one single-consumer queue race. Naive
/// request points inside the handlers deadlock the dispatch loop; the
/// placement analysis must move them to the enqueue sites, and the
/// coordination must then succeed.
#[test]
fn single_consumer_queue_placement_moves_to_enqueue_sites() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn_detached("committer", vec![]);
        b.spawn_detached("killer", vec![]);
    });
    pb.func("committer", &[], FuncKind::Regular, |b| {
        b.enqueue("dispatch", "on_commit", vec![]);
    });
    pb.func("killer", &[], FuncKind::Regular, |b| {
        b.sleep(Expr::val(40));
        b.enqueue("dispatch", "on_kill", vec![]);
    });
    pb.func("on_commit", &[], FuncKind::EventHandler, |b| {
        b.read("s", "attempt_state");
        b.if_(Expr::local("s").eq(Expr::val("killed")), |b| {
            b.abort("commit after kill");
        });
        b.write("attempt_state", Expr::val("committed"));
    });
    pb.func("on_kill", &[], FuncKind::EventHandler, |b| {
        b.write("attempt_state", Expr::val("killed"));
    });
    let p = pb.build().expect("MR-4637-shaped program must build");
    let mut topo = Topology::new();
    topo.node("am").entry("main", vec![]).queue("dispatch", 1);
    let (cfg, hb) = setup(&p, &topo);
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "attempt_state" && (c.rep.0.is_write != c.rep.1.is_write))
        .expect("read/write candidate on attempt_state");

    let plan = plan_candidate(c);
    assert!(
        plan.rules[0].contains(&PlacementRule::EnqueueSite),
        "{plan:#?}"
    );

    let report = trigger_candidate(&p, &topo, &cfg, c);
    assert!(
        report.runs.iter().any(|r| r.coordinated),
        "enqueue-site placement must coordinate: {report:#?}"
    );
    assert_eq!(report.verdict, Verdict::Harmful, "{report:#?}");
}

/// Lock-guarded accesses: request points move before the critical
/// sections (rule 3), and coordination succeeds instead of deadlocking.
#[test]
fn lock_guarded_race_moves_before_critical_section() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn_detached("t1", vec![]);
        b.spawn_detached("t2", vec![]);
    });
    pb.func("t1", &[], FuncKind::Regular, |b| {
        b.lock("m");
        b.write("shared", Expr::val("t1"));
        b.unlock("m");
    });
    pb.func("t2", &[], FuncKind::Regular, |b| {
        b.sleep(Expr::val(30));
        b.lock("m");
        b.read("v", "shared");
        b.if_(Expr::local("v").eq(Expr::null()), |b| {
            b.log_fatal("t2 saw uninitialized shared state");
        });
        b.unlock("m");
    });
    let p = pb.build().expect("lock-guarded program must build");
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let (cfg, hb) = setup(&p, &topo);
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "shared")
        .expect("shared candidate");
    let plan = plan_candidate(c);
    assert!(
        plan.rules[0].contains(&PlacementRule::CriticalSectionEntry),
        "{plan:#?}"
    );
    let report = trigger_candidate(&p, &topo, &cfg, c);
    assert!(report.runs.iter().any(|r| r.coordinated), "{report:#?}");
    assert_eq!(report.verdict, Verdict::Harmful, "{report:#?}");
}
