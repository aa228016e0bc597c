use dcatch_hb::{HbAnalysis, HbConfig};
use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder, Value};
use dcatch_sim::{SimConfig, Topology, World};
use dcatch_trace::TraceSet;

use super::{OnlineDetector, OnlineOptions, StreamOutcome};
use crate::{find_candidates, CandidateSet};

/// Runs the same deterministic workload in both modes: batch trace +
/// graph + scan, and a single streamed pass through [`OnlineDetector`].
fn run_both(
    p: &Program,
    topo: &Topology,
    opts: OnlineOptions,
) -> (StreamOutcome, CandidateSet, TraceSet) {
    let cfg = SimConfig::default().with_full_tracing();
    let batch = World::run_once(p, topo, cfg.clone()).expect("batch run");
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let hb = HbAnalysis::build(batch.trace.clone(), &HbConfig::default()).expect("graph");
    let offline = find_candidates(&hb);
    let mut sink = OnlineDetector::new(opts);
    let streamed = World::run_streamed(p, topo, cfg, &mut sink).expect("streamed run");
    assert!(streamed.failures.is_empty(), "{:?}", streamed.failures);
    (sink.finalize(), offline, batch.trace)
}

/// Full structural equality — static pairs, dynamic counts, callstack
/// pairs, and the representative dynamic pair (down to trace indices).
fn assert_same_candidates(online: &CandidateSet, offline: &CandidateSet) {
    assert_eq!(online.static_pair_count(), offline.static_pair_count());
    for (a, b) in online.iter().zip(offline.iter()) {
        assert_eq!(a.static_pair, b.static_pair);
        assert_eq!(a.dynamic_count, b.dynamic_count, "{:?}", a.static_pair);
        assert_eq!(a.stack_pairs, b.stack_pairs, "{:?}", a.static_pair);
        assert_eq!(a.rep, b.rep, "{:?}", a.static_pair);
    }
}

fn racy_fork_join() -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.write("cell", Expr::val(0)); // ordered before both racers
        b.spawn("a", "racer", vec![]);
        b.spawn("c", "racer2", vec![]);
        b.join(Expr::local("a"));
        b.join(Expr::local("c"));
        b.read("v", "cell"); // ordered after both
    });
    pb.func("racer", &[], FuncKind::Regular, |b| {
        b.write("cell", Expr::val(1));
    });
    pb.func("racer2", &[], FuncKind::Regular, |b| {
        b.write("cell", Expr::val(2));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    (p, topo)
}

fn racy_event_queues() -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.enqueue("q", "h", vec![Expr::val(1)]);
        b.enqueue("q", "h", vec![Expr::val(2)]);
        b.enqueue("multi", "h", vec![Expr::val(3)]);
        b.enqueue("multi", "h", vec![Expr::val(4)]);
    });
    pb.func("h", &["n"], FuncKind::EventHandler, |b| {
        b.read("t", "cell");
        b.write("cell", Expr::local("n"));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n")
        .queue("q", 1)
        .queue("multi", 2)
        .entry("main", vec![]);
    (p, topo)
}

/// A long fully-ordered socket ping-pong chain plus one initial detached
/// racer pair: the chain's accesses retire, the racer pair must survive.
fn ping_pong_with_racers(rounds: i64) -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("boot", &["peer"], FuncKind::Regular, |b| {
        b.spawn_detached("racer", vec![]);
        b.spawn_detached("racer", vec![]);
        b.write("token", Expr::val(0));
        b.socket_send(
            Expr::local("peer"),
            "ping",
            vec![Expr::val(rounds), Expr::SelfNode],
        );
    });
    pb.func("racer", &[], FuncKind::Regular, |b| {
        b.write("shared", Expr::val(1));
    });
    pb.func("ping", &["n", "peer"], FuncKind::SocketHandler, |b| {
        b.read("t", "token");
        b.write("token", Expr::local("n"));
        b.if_(Expr::local("n").gt(Expr::val(0)), |b| {
            b.socket_send(
                Expr::local("peer"),
                "ping",
                vec![Expr::local("n").sub(Expr::val(1)), Expr::SelfNode],
            );
        });
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    let b_id = topo.node("b").id();
    topo.node("a").entry("boot", vec![Value::Node(b_id)]);
    (p, topo)
}

#[test]
fn online_matches_batch_scan() {
    for (name, (p, topo)) in [
        ("racy_fork_join", racy_fork_join()),
        ("racy_event_queues", racy_event_queues()),
        ("ping_pong_with_racers", ping_pong_with_racers(4)),
    ] {
        let (out, offline, trace) = run_both(&p, &topo, OnlineOptions::default());
        assert!(offline.static_pair_count() > 0, "{name}: no races to check");
        assert_same_candidates(&out.candidates, &offline);
        // bookkeeping matches the materialized trace exactly
        assert_eq!(out.records, trace.len(), "{name}");
        assert_eq!(out.stats, trace.stats(), "{name}");
        assert_eq!(out.trace_bytes, trace.byte_size(), "{name}");
        assert_eq!(out.records_forced, 0, "{name}");
    }
}

/// Window-retirement safety: with an aggressive sweep cadence the
/// ping-pong chain's accesses provably retire (the window stays far
/// smaller than the trace's access count), yet the candidate set — the
/// surviving racer pair included — is still exactly the offline replay's.
#[test]
fn retirement_keeps_candidates_exact() {
    let (p, topo) = ping_pong_with_racers(48);
    let opts = OnlineOptions {
        sweep_every: 8,
        ..OnlineOptions::default()
    };
    let (out, offline, trace) = run_both(&p, &topo, opts);
    assert_same_candidates(&out.candidates, &offline);
    assert!(out.records_retired > 0, "nothing retired");
    let mem_accesses = trace.stats().mem;
    assert!(
        out.window_peak < mem_accesses / 2,
        "window did not stay bounded: peak {} of {mem_accesses} accesses",
        out.window_peak
    );
}

/// The hard cap force-evicts when provable retirement cannot keep up;
/// that is lossy by design, but never invents candidates.
#[test]
fn window_cap_degrades_to_subset() {
    let (p, topo) = racy_fork_join();
    let opts = OnlineOptions {
        window_cap: Some(1),
        sweep_every: 4,
        ..OnlineOptions::default()
    };
    let (out, offline, _) = run_both(&p, &topo, opts);
    assert!(out.records_forced > 0, "cap of 1 must force evictions");
    assert!(
        out.window_peak <= 2,
        "peak {} exceeds cap+push",
        out.window_peak
    );
    for c in out.candidates.iter() {
        let (a, b) = c.static_pair;
        assert!(
            offline.find(a, b).is_some(),
            "capped run invented candidate {:?}",
            c.static_pair
        );
    }
}
