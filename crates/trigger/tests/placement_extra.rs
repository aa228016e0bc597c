//! Additional triggering tests: dynamic-instance selection, direct-plan
//! fallback, and the same-worker socket placement rule.

use dcatch_detect::find_candidates;
use dcatch_hb::{HbAnalysis, HbConfig};
use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder, Value};
use dcatch_sim::{SimConfig, Topology, World};
use dcatch_trigger::{plan_candidate, trigger_candidate, PlacementRule, Verdict};

fn analyze(p: &Program, topo: &Topology, seed: u64) -> (SimConfig, HbAnalysis) {
    let cfg = SimConfig::default().with_seed(seed).with_full_tracing();
    let run = World::run_once(p, topo, cfg.clone()).unwrap();
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    (
        cfg,
        HbAnalysis::build(run.trace, &HbConfig::default()).unwrap(),
    )
}

/// A racing statement executed many times under one callstack: placement
/// rule 4 moves the request point to a remote causal ancestor, and the
/// coordination still succeeds.
#[test]
fn many_instance_race_moves_to_remote_ancestor() {
    let mut pb = ProgramBuilder::new();
    // server-side: a polling RPC touches `status` on every call (many
    // dynamic instances); a client-triggered RPC writes it once
    pb.func("poll", &[], FuncKind::RpcHandler, |b| {
        b.read("s", "status");
        b.ret(Expr::local("s"));
    });
    pb.func("set_status", &["v"], FuncKind::RpcHandler, |b| {
        b.write("status", Expr::local("v"));
        b.if_(Expr::local("v").eq(Expr::val("BROKEN")), |b| {
            b.log_fatal("status corrupted");
        });
        b.ret(Expr::val(true));
    });
    pb.func("poller", &["srv"], FuncKind::Regular, |b| {
        b.assign("i", Expr::val(0));
        b.while_(Expr::local("i").lt(Expr::val(8)), |b| {
            b.rpc("s", Expr::local("srv"), "poll", vec![]);
            b.assign("i", Expr::local("i").add(Expr::val(1)));
        });
    });
    pb.func("setter", &["srv"], FuncKind::Regular, |b| {
        b.sleep(Expr::val(30));
        b.rpc_void(Expr::local("srv"), "set_status", vec![Expr::val("ok")]);
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    let srv = {
        let mut nb = topo.node("server");
        nb.rpc_workers(3);
        nb.id()
    };
    topo.node("poller_node")
        .entry("poller", vec![Value::Node(srv)]);
    topo.node("setter_node")
        .entry("setter", vec![Value::Node(srv)]);

    let (cfg, hb) = analyze(&p, &topo, 77);
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "status")
        .expect("status candidate");
    let plan = plan_candidate(c);
    assert!(
        plan.rules
            .iter()
            .flatten()
            .any(|r| *r == PlacementRule::RemoteAncestor),
        "{plan:#?}"
    );
    let report = trigger_candidate(&p, &topo, &cfg, c);
    assert!(
        report.runs.iter().any(|r| r.coordinated),
        "rule-4 placement must coordinate: {report:#?}"
    );
    assert_eq!(report.verdict, Verdict::BenignRace, "{report:#?}");
}

/// When the analyzed placement cannot coordinate, the driver retries with
/// the naive direct plan and records the fallback.
#[test]
fn direct_fallback_is_recorded() {
    // handlers on the same single-consumer queue whose enqueues happen in
    // one task: enqueue-site placement can never hold both (one task
    // cannot own both sides), so the driver falls back to direct placement
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.enqueue("q", "h1", vec![]);
        b.enqueue("q", "h2", vec![]);
    });
    pb.func("h1", &[], FuncKind::EventHandler, |b| {
        b.write("cell", Expr::val(1));
    });
    pb.func("h2", &[], FuncKind::EventHandler, |b| {
        b.write("cell", Expr::val(2));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]).queue("q", 2);

    let (cfg, hb) = analyze(&p, &topo, 5);
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "cell")
        .expect("cell candidate");
    let report = trigger_candidate(&p, &topo, &cfg, c);
    // multi-consumer queue → rule 1 does not fire → plan is direct, and
    // the two handlers coordinate directly
    assert!(report.runs.iter().any(|r| r.coordinated), "{report:#?}");
    assert_eq!(report.verdict, Verdict::BenignRace);
}

/// Two socket messages handled by the same single-worker pool: rule 2
/// moves the request points to the senders.
#[test]
fn same_socket_worker_placement_moves_to_senders() {
    let mut pb = ProgramBuilder::new();
    pb.func(
        "sender",
        &["peer", "delay", "val"],
        FuncKind::Regular,
        |b| {
            b.sleep(Expr::local("delay"));
            b.socket_send(Expr::local("peer"), "on_msg", vec![Expr::local("val")]);
        },
    );
    pb.func("on_msg", &["v"], FuncKind::SocketHandler, |b| {
        b.write("inbox", Expr::local("v"));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    let peer = {
        let mut nb = topo.node("server");
        nb.socket_workers(1);
        nb.id()
    };
    topo.node("a").entry(
        "sender",
        vec![Value::Node(peer), Value::Int(5), Value::Str("x".into())],
    );
    topo.node("b").entry(
        "sender",
        vec![Value::Node(peer), Value::Int(40), Value::Str("y".into())],
    );

    let (cfg, hb) = analyze(&p, &topo, 9);
    let candidates = find_candidates(&hb);
    let c = candidates
        .iter()
        .find(|c| c.object() == "inbox")
        .expect("inbox candidate");
    let plan = plan_candidate(c);
    assert!(
        plan.rules
            .iter()
            .flatten()
            .any(|r| *r == PlacementRule::RpcCaller),
        "same-worker socket handlers must move to senders: {plan:#?}"
    );
    let report = trigger_candidate(&p, &topo, &cfg, c);
    assert!(report.runs.iter().any(|r| r.coordinated), "{report:#?}");
}
