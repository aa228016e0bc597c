use std::sync::atomic::{AtomicUsize, Ordering};

use dcatch_detect::find_candidates;
use dcatch_hb::{HbAnalysis, HbConfig};
use dcatch_model::{Expr, FuncKind, LoopId, NodeId, Program, ProgramBuilder};
use dcatch_sim::{Failure, RunFailureKind, SimConfig, Topology, World};

use super::{classify, run_farm, shows_harm, steal_map, FarmSpec, OrderRun, Verdict, ORDERINGS};

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
    let specs: Vec<FarmSpec> = find_candidates(&hb)
        .iter()
        .map(|c| FarmSpec::new(c, &hb))
        .collect();
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

/// With a confirm predicate that settles on the first ordering, the second
/// ordering is cancelled (or executed-but-discarded) — either way it must
/// contribute nothing: no run in the report, no absorbed metrics.
#[test]
fn cancelled_orderings_contribute_no_runs_and_no_metrics() {
    let (p, topo, cfg, hb) = two_race_setup();
    let candidates = find_candidates(&hb);
    let c = candidates.iter().next().expect("a candidate");
    let specs = [FarmSpec::new(c, &hb)];
    let confirm = |_ci: usize, runs: &[super::OrderRun]| runs.iter().any(|r| r.completed);

    for jobs in [1, 2] {
        let before = dcatch_obs::metrics::snapshot();
        let reports = run_farm(&p, &topo, &cfg, &specs, jobs, Some(&confirm), None);
        let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
        let report = &reports[0];
        assert!(
            report.runs.iter().all(|r| r.first == 0),
            "jobs={jobs}: only ordering 0 may be visible: {report:#?}"
        );
        assert_eq!(
            delta.counters.get("trigger_order_runs_total"),
            Some(&1),
            "jobs={jobs}: exactly the one visible order run is absorbed"
        );
    }

    // without confirm, the same candidate explores both orderings
    let before = dcatch_obs::metrics::snapshot();
    let reports = run_farm(&p, &topo, &cfg, &specs, 1, None, None);
    let delta = dcatch_obs::metrics::snapshot().delta_since(&before);
    assert_eq!(reports[0].runs.len(), ORDERINGS);
    assert_eq!(delta.counters.get("trigger_order_runs_total"), Some(&2));
}

/// An already-expired deadline skips every job; each report comes back
/// cancelled with no runs instead of panicking in the merge.
#[test]
fn expired_deadline_cancels_every_job() {
    let (p, topo, cfg, hb) = two_race_setup();
    let specs: Vec<FarmSpec> = find_candidates(&hb)
        .iter()
        .map(|c| FarmSpec::new(c, &hb))
        .collect();
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
    let specs: Vec<FarmSpec> = find_candidates(&hb)
        .iter()
        .map(|c| FarmSpec::new(c, &hb))
        .collect();
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
