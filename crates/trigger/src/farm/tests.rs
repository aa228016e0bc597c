use std::sync::atomic::{AtomicUsize, Ordering};

use dcatch_detect::find_candidates;
use dcatch_hb::{HbAnalysis, HbConfig};
use dcatch_model::{Expr, FuncKind, LoopId, NodeId, Program, ProgramBuilder};
use dcatch_sim::{Failure, RunFailureKind, SimConfig, Topology, World};

use super::{classify, run_farm, shows_harm, steal_map, FarmSpec, OrderRun, Verdict, ORDERINGS};
use crate::ControllerGate;

#[test]
fn steal_map_runs_every_index_once_in_index_order() {
    let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
    for jobs in [1, 2, 5, 64] {
        for h in &hits {
            h.store(0, Ordering::Relaxed);
        }
        let out = steal_map(jobs, hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Some(i * 10)
        });
        assert_eq!(out.len(), hits.len(), "jobs={jobs}");
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(*slot, Some(i * 10), "jobs={jobs} index {i}");
            assert_eq!(hits[i].load(Ordering::Relaxed), 1, "jobs={jobs} index {i}");
        }
    }
}

#[test]
fn steal_map_keeps_skipped_slots_empty() {
    let out = steal_map(3, 10, |i| (i % 2 == 0).then_some(i));
    for (i, slot) in out.iter().enumerate() {
        assert_eq!(*slot, (i % 2 == 0).then_some(i), "index {i}");
    }
}

#[test]
fn steal_map_with_zero_jobs_or_zero_work_is_fine() {
    let out = steal_map(0, 4, Some);
    assert_eq!(out, vec![Some(0), Some(1), Some(2), Some(3)]);
    let empty: Vec<Option<usize>> = steal_map(4, 0, Some);
    assert!(empty.is_empty());
}

/// Two benign races (on `a` and `b`) between the same pair of workers,
/// giving the farm a multi-candidate grid to chew on.
fn two_race_setup() -> (Program, Topology, SimConfig, HbAnalysis) {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn_detached("w1", vec![]);
        b.spawn_detached("w2", vec![]);
    });
    pb.func("w1", &[], FuncKind::Regular, |b| {
        b.write("a", Expr::val(1));
        b.write("b", Expr::val(1));
    });
    pb.func("w2", &[], FuncKind::Regular, |b| {
        b.write("a", Expr::val(2));
        b.write("b", Expr::val(2));
    });
    let p = pb.build().expect("two-race program builds");
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let cfg = SimConfig::default().with_seed(42).with_full_tracing();
    let run = World::run_once(&p, &topo, cfg.clone()).expect("base run starts");
    assert!(
        run.failures.is_empty(),
        "base run clean: {:?}",
        run.failures
    );
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).expect("hb builds");
    (p, topo, cfg, hb)
}

#[test]
fn run_farm_is_invariant_in_worker_count() {
    let (p, topo, cfg, hb) = two_race_setup();
    let specs: Vec<FarmSpec> = find_candidates(&hb).iter().map(FarmSpec::of).collect();
    assert!(specs.len() >= 2, "want a multi-candidate grid");

    let mut baseline: Option<(String, dcatch_obs::MetricsSnapshot)> = None;
    for jobs in [1, 2, 8] {
        let before = dcatch_obs::metrics::snapshot();
        let reports = run_farm(&p, &topo, &cfg, &specs, jobs, None, None);
        let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
        let rendered = format!("{reports:#?}");
        match &baseline {
            None => baseline = Some((rendered, delta)),
            Some((r0, d0)) => {
                assert_eq!(&rendered, r0, "reports differ at jobs={jobs}");
                assert_eq!(d0.counters, delta.counters, "metrics differ at jobs={jobs}");
            }
        }
    }
}

/// With a confirm predicate that settles on the first ordering, the job
/// stops after ordering 0: ordering 1 never runs, so it adds no run to the
/// report and no metric or span to the caller's — whichever worker count
/// ran the job. The settling run itself is evidence as soon as its order
/// completes, so it stops there.
#[test]
fn cancelled_orderings_contribute_no_runs_and_no_metrics() {
    let (p, topo, cfg, hb) = two_race_setup();
    let candidates = find_candidates(&hb);
    let c = candidates.iter().next().expect("a candidate");
    let specs = [FarmSpec::of(c)];
    let confirm = |_ci: usize, _failures: &[Failure]| true;

    for jobs in [1, 2] {
        let before = dcatch_obs::metrics::snapshot();
        dcatch_obs::trace::begin_capture("test");
        let reports = run_farm(&p, &topo, &cfg, &specs, jobs, Some(&confirm), None);
        let tree = dcatch_obs::trace::end_capture();
        let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
        let report = &reports[0];
        assert!(!report.cancelled);
        assert_eq!(report.runs.len(), 1, "jobs={jobs}: {report:#?}");
        assert_eq!(report.runs[0].first, 0, "jobs={jobs}");
        assert!(report.runs[0].decided, "{report:#?}");
        for (counter, n) in [
            ("trigger_order_runs_total", 1),
            ("trigger_runs_decided_total", 1),
            ("sim_runs_total", 1),
            ("trigger_runs_forked_total", 0),
            ("trigger_runs_shared_total", 0),
        ] {
            assert_eq!(delta.counter(counter), n, "jobs={jobs}: {counter}");
        }
        let order = tree
            .child("trigger.candidate")
            .and_then(|c| c.child("trigger.order"))
            .expect("the order span grafts under its candidate");
        assert_eq!(order.count, 1, "jobs={jobs}: one ordering ran");
        assert_eq!(order.child("sim.run").map(|s| s.count), Some(1));
    }

    // without confirm, the same candidate explores both orderings: the
    // pair is held, so ordering 1 resumes a fork of ordering 0's run
    let before = dcatch_obs::metrics::snapshot();
    let reports = run_farm(&p, &topo, &cfg, &specs, 1, None, None);
    let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
    assert_eq!(reports[0].runs.len(), ORDERINGS);
    assert_eq!(delta.counter("trigger_order_runs_total"), 2);
    assert_eq!(delta.counter("trigger_runs_forked_total"), 1);
    assert_eq!(delta.counter("sim_runs_total"), 1, "one boot for both");
    // a benign race shows no failure: no run is decided, each runs out
    assert!(reports[0].runs.iter().all(|r| !r.decided));
    assert_eq!(delta.counter("trigger_runs_decided_total"), 0);
}

/// A consumer spins on a flag its producer sets after writing the data: a
/// `data` pair the HB model calls concurrent but no controller can hold
/// together (the paper's "serial" category).
fn never_held_setup() -> (Program, Topology, SimConfig, HbAnalysis) {
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
    let p = pb.build().expect("custom-sync program builds");
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let cfg = SimConfig::default().with_seed(42).with_full_tracing();
    let run = World::run_once(&p, &topo, cfg.clone()).expect("base run starts");
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).expect("hb builds");
    (p, topo, cfg, hb)
}

/// A pair that is never held leaves the controller `Waiting`, where it
/// never reads which side goes first: both orderings are one run. The farm
/// executes it once and reports it twice, and the reused run is the one a
/// fresh run with side 1 first gives.
#[test]
fn a_never_held_pair_gives_two_identical_runs_and_executes_one() {
    let (p, topo, cfg, hb) = never_held_setup();
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "data")
        .expect("data candidate");
    let specs = [FarmSpec::of(c)];
    let before = dcatch_obs::metrics::snapshot();
    dcatch_obs::trace::begin_capture("test");
    let reports = run_farm(&p, &topo, &cfg, &specs, 1, None, None);
    let tree = dcatch_obs::trace::end_capture();
    let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
    let runs = &reports[0].runs;
    assert_eq!(reports[0].verdict, Verdict::Serial, "{:#?}", reports[0]);
    let half = runs.len() / 2;
    assert!(half >= 1 && runs.len() == 2 * half, "{runs:#?}");
    for (r0, r1) in runs[..half].iter().zip(&runs[half..]) {
        assert_eq!((r0.first, r1.first), (0, 1));
        assert!(!r0.coordinated, "{r0:#?}");
        assert_eq!(
            format!(
                "{:?}",
                OrderRun {
                    first: 1,
                    failures: r0.failures.clone(),
                    ..*r0
                }
            ),
            format!("{r1:?}"),
            "ordering 1 is ordering 0's run"
        );
    }
    assert_eq!(delta.counter("trigger_order_runs_total"), runs.len() as u64);
    assert_eq!(delta.counter("trigger_runs_shared_total"), half as u64);
    assert_eq!(delta.counter("trigger_runs_forked_total"), 0);
    assert_eq!(
        delta.counter("sim_runs_total"),
        half as u64,
        "executed once"
    );
    let order = tree
        .child("trigger.candidate")
        .and_then(|c| c.child("trigger.order"))
        .expect("order spans");
    assert_eq!(
        order.count,
        runs.len() as u64,
        "a shared run keeps its span"
    );
    assert_eq!(order.child("sim.run").map(|s| s.count), Some(half as u64));

    // the reused run is what a fresh run with side 1 first gives
    let prepared = World::prepare(&p, &topo).expect("program prepares");
    let untraced = SimConfig {
        trace_enabled: false,
        ..cfg
    };
    let mut gate = ControllerGate::new(reports[0].plan.sides, 1, &shows_harm);
    let fresh = prepared.run_with_gate(&untraced, &mut gate);
    assert_eq!(fresh.failures, runs[half].failures);
    assert_eq!(
        (gate.both_requested(), gate.completed(), gate.abandoned()),
        (
            runs[half].coordinated,
            runs[half].completed,
            runs[half].abandoned
        )
    );
}

/// An already-expired deadline skips every job; each report comes back
/// cancelled with no runs instead of panicking in the merge.
#[test]
fn expired_deadline_cancels_every_job() {
    let (p, topo, cfg, hb) = two_race_setup();
    let specs: Vec<FarmSpec> = find_candidates(&hb).iter().map(FarmSpec::of).collect();
    let past = std::time::Instant::now();
    let reports = run_farm(&p, &topo, &cfg, &specs, 2, None, Some(past));
    assert_eq!(reports.len(), specs.len());
    for r in &reports {
        assert!(r.cancelled, "deadline skip must surface as cancelled");
        assert!(r.runs.is_empty(), "no job ran: {r:#?}");
    }
    // a far-future deadline changes nothing
    let future = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    let reports = run_farm(&p, &topo, &cfg, &specs, 2, None, Some(future));
    assert!(reports.iter().all(|r| !r.cancelled && !r.runs.is_empty()));
}

/// The farm's verdict for a full (unconfirmed) exploration matches the
/// serial driver's, and span trees graft under the caller's capture.
#[test]
fn farm_spans_graft_under_the_callers_capture() {
    let (p, topo, cfg, hb) = two_race_setup();
    let specs: Vec<FarmSpec> = find_candidates(&hb).iter().map(FarmSpec::of).collect();
    dcatch_obs::trace::begin_capture("test");
    let reports = run_farm(&p, &topo, &cfg, &specs, 4, None, None);
    let tree = dcatch_obs::trace::end_capture();
    let cand = tree.child("trigger.candidate").expect("candidate span");
    assert_eq!(cand.count, specs.len() as u64);
    let order = cand.child("trigger.order").expect("order span grafted");
    assert_eq!(
        order.count,
        reports.iter().map(|r| r.runs.len() as u64).sum::<u64>()
    );
}

/// A hand-built order run; `failed` gives it the retry-loop hang a hold can
/// cause.
fn order_run(coordinated: bool, completed: bool, abandoned: bool, failed: bool) -> OrderRun {
    let hang = Failure {
        kind: RunFailureKind::RetryLoopHang(LoopId(0)),
        node: NodeId(0),
        task: None,
        stmt: None,
        msg: "retry loop 0 spun past 200 iterations".to_owned(),
    };
    OrderRun {
        first: 0,
        coordinated,
        completed,
        abandoned,
        decided: false,
        failures: if failed { vec![hang] } else { Vec::new() },
    }
}

/// The verdict rule: a run the controller abandoned is never evidence,
/// even when it completed the forced order and failed.
#[test]
fn an_abandoned_run_is_never_evidence() {
    let abandoned = [order_run(true, true, true, true)];
    assert_eq!(classify(&abandoned, shows_harm), Verdict::BenignRace);
    let kept = [order_run(true, true, false, true)];
    assert_eq!(classify(&kept, shows_harm), Verdict::Harmful);
    // an uncompleted order is no evidence either
    let stuck = [order_run(true, false, false, true)];
    assert_eq!(classify(&stuck, shows_harm), Verdict::BenignRace);
    // nothing coordinated: serial, whatever the predicate says
    let serial = [
        order_run(false, false, true, true),
        order_run(false, false, false, false),
    ];
    assert_eq!(classify(&serial, |_| true), Verdict::Serial);
    // the caller's predicate decides, not the default one
    assert_eq!(classify(&kept, |_| false), Verdict::BenignRace);
}
