use dcatch_model::{Expr, FuncKind, NodeId, Program, ProgramBuilder, Value};
use dcatch_sim::{SimConfig, Topology, World};
use dcatch_trace::{
    CollectSink, ExecCtx, HandlerKind, MemLoc, MemSpace, Names, OpKind, Record, StackId,
    StreamControl, TaskId, TraceSet, TraceSink,
};

use super::{Arrival, FrontierEngine, FrontierOptions};
use crate::{EdgeRule, HbAnalysis, HbConfig, ReachabilityMode};

/// Runs the online engine live off the simulator while also materializing
/// the batch trace, storing every record's arrival and final clock.
struct DualSink {
    engine: FrontierEngine,
    collect: CollectSink,
    arrivals: Vec<Arrival>,
    clocks: Vec<Vec<u32>>,
    sweep_every: Option<usize>,
    /// Window mirror: (slot, pos, record index) not yet retired.
    live: Vec<(u32, u32, usize)>,
    /// (record index, stream watermark at retirement).
    retired: Vec<(usize, usize)>,
}

impl DualSink {
    fn new(sweep_every: Option<usize>) -> DualSink {
        DualSink {
            engine: FrontierEngine::new(FrontierOptions::default()),
            collect: CollectSink::default(),
            arrivals: Vec::new(),
            clocks: Vec::new(),
            sweep_every,
            live: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// Online concurrency verdict for record pair `i < j`: `j` arrived
    /// later, so they are concurrent iff `j`'s clock does not cover `i`.
    fn concurrent(&self, i: usize, j: usize) -> bool {
        let a = self.arrivals[i];
        self.clocks[j].get(a.slot as usize).copied().unwrap_or(0) < a.pos
    }
}

impl TraceSink for DualSink {
    fn record(&mut self, record: &Record) {
        let a = self.engine.record(record, self.collect.trace.names());
        self.clocks.push(self.engine.clock(a.chain).to_vec());
        self.live.push((a.slot, a.pos, self.arrivals.len()));
        self.arrivals.push(a);
        if let Some(n) = self.sweep_every {
            if self.arrivals.len() % n == 0 {
                if let Some(bound) = self.engine.lower_bound() {
                    let watermark = self.arrivals.len();
                    let mut dropped = Vec::new();
                    self.live.retain(|&(c, p, idx)| {
                        if bound.get(c as usize).copied().unwrap_or(0) >= p {
                            dropped.push(idx);
                            false
                        } else {
                            true
                        }
                    });
                    self.retired
                        .extend(dropped.into_iter().map(|i| (i, watermark)));
                    self.engine.retire(&bound);
                }
            }
        }
        self.collect.record(record);
    }

    fn control(&mut self, control: StreamControl) {
        self.engine.control(&control);
        self.collect.control(control);
    }

    fn names(&mut self, names: &Names) {
        self.collect.names(names);
    }
}

fn stream(program: &Program, topo: &Topology, sweep_every: Option<usize>) -> DualSink {
    let mut sink = DualSink::new(sweep_every);
    let run = World::run_streamed(
        program,
        topo,
        SimConfig::default().with_full_tracing(),
        &mut sink,
    )
    .expect("run");
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    sink
}

fn fork_join() -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.write("cell", Expr::val(0));
        b.spawn("a", "racer", vec![]);
        b.spawn_detached("racer", vec![]);
        b.join(Expr::local("a"));
        b.read("v", "cell");
    });
    pb.func("racer", &[], FuncKind::Regular, |b| {
        b.write("cell", Expr::val(1));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    (p, topo)
}

/// `serial` events on a single-consumer queue, then two on a queue with
/// two consumers.
fn event_queues(serial: i64) -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        for n in 1..=serial {
            b.enqueue("q", "h", vec![Expr::val(n)]);
        }
        b.enqueue("multi", "h", vec![Expr::val(serial + 1)]);
        b.enqueue("multi", "h", vec![Expr::val(serial + 2)]);
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

fn rpc_pair() -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("client", &["srv"], FuncKind::Regular, |b| {
        b.rpc("x", Expr::local("srv"), "put", vec![Expr::val(1)]);
        b.rpc("y", Expr::local("srv"), "put", vec![Expr::val(2)]);
        b.write("done", Expr::local("x"));
    });
    pb.func("put", &["n"], FuncKind::RpcHandler, |b| {
        b.write("store", Expr::local("n"));
        b.ret(Expr::local("n"));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    let srv = {
        let mut nb = topo.node("server");
        nb.rpc_workers(2);
        nb.id()
    };
    topo.node("client").entry("client", vec![Value::Node(srv)]);
    (p, topo)
}

fn zk_watch() -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("writer", &[], FuncKind::Regular, |b| {
        b.zk_create(Expr::val("/region/a"), Expr::val(1));
        b.zk_set_data(Expr::val("/region/a"), Expr::val(2));
    });
    pb.func("on_change", &["path", "data"], FuncKind::ZkWatcher, |b| {
        b.write("seen", Expr::local("data"));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("writer").entry("writer", vec![]);
    let obs = topo.node("observer").id();
    topo.watch(obs, "/region", "on_change");
    (p, topo)
}

fn ping_pong(rounds: i64) -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("boot", &["peer"], FuncKind::Regular, |b| {
        b.write("token", Expr::val(0));
        b.socket_send(
            Expr::local("peer"),
            "ping",
            vec![Expr::val(rounds), Expr::SelfNode],
        );
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

fn clocks_config() -> HbConfig {
    HbConfig {
        reachability: ReachabilityMode::Clocks,
        ..HbConfig::default()
    }
}

/// The one-sided online test must agree with the batch graph on *every*
/// record pair, across every MTEP rule — and, nothing having retired, the
/// engine must have placed every record where the batch builder's engine
/// does, though it — unlike that one — was told of every `ChainDone` and
/// forgot each handler chain there.
#[test]
fn clocks_match_batch_reachability() {
    let cases: Vec<(&str, (Program, Topology))> = vec![
        ("fork_join", fork_join()),
        ("event_queues", event_queues(3)),
        ("rpc_pair", rpc_pair()),
        ("zk_watch", zk_watch()),
        ("ping_pong", ping_pong(3)),
    ];
    for (name, (p, topo)) in cases {
        let sink = stream(&p, &topo, None);
        let n = sink.collect.trace.len();
        assert!(n > 0, "{name}: empty trace");
        let hb = HbAnalysis::build(sink.collect.trace.clone(), &HbConfig::default()).unwrap();
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(
                    sink.concurrent(i, j),
                    hb.concurrent(i, j),
                    "{name}: pair ({i}, {j}) disagrees with the batch graph"
                );
            }
        }
        for (v, a) in sink.arrivals.iter().enumerate() {
            assert_eq!((a.slot, a.pos), hb.slot_of(v), "{name}: {v}");
        }
    }
}

/// The byte estimate counts the one table that grows with the run whatever
/// retires: the log of derived `Eserial` pairs the loop-sync pass replays.
/// One producer filling a single-consumer queue orders every handler after
/// all that ended before it — a log quadratic in the events.
#[test]
fn bytes_count_the_eserial_log() {
    let (p, topo) = event_queues(200);
    let sink = stream(&p, &topo, None);
    let derived = sink.engine.eserial_edges().len();
    assert!(derived >= 199 * 200 / 2, "{derived} Eserial pairs");
    assert!(
        sink.engine.bytes() >= 16 * derived,
        "{} B reported, {derived} logged pairs of 16 B",
        sink.engine.bytes()
    );
}

/// Retirement safety: a record the bound retires must be ordered (in the
/// batch graph) before every record that arrives after the sweep — it can
/// never form a race again. Also proves the state stays small: the
/// ping-pong's handler instances all fold into the slots of the chain of
/// sends that causes them, and are forgotten as they finish.
#[test]
fn retirement_only_drops_ordered_records() {
    let (p, topo) = ping_pong(24);
    let sink = stream(&p, &topo, Some(8));
    let n = sink.collect.trace.len();
    let hb = HbAnalysis::build(sink.collect.trace.clone(), &HbConfig::default()).unwrap();
    assert!(
        !sink.retired.is_empty(),
        "the ping-pong chain must retire records"
    );
    for &(i, watermark) in &sink.retired {
        for j in watermark..n {
            assert!(
                !hb.concurrent(i, j),
                "retired record {i} still races with later record {j}"
            );
        }
    }
    // 26 program-order groups (boot and 25 handler instances), one causal
    // chain: boot's slot, which the first handler takes over at the send,
    // and a slot for what boot did after it
    let groups: std::collections::BTreeSet<_> = sink
        .collect
        .trace
        .records()
        .iter()
        .map(|r| (r.task, r.ctx))
        .collect();
    assert!(groups.len() >= 26, "{} groups", groups.len());
    assert_eq!(sink.engine.chains(), 2, "clock dimensions");
    assert!(
        sink.engine.live_chains() <= 2,
        "{} chains still held after the run",
        sink.engine.live_chains()
    );
}

/// Exactness must survive retirement: verdicts taken at arrival time (the
/// only ones streaming detection uses) agree with the batch graph even
/// while the engine aggressively retires and recycles behind the window.
#[test]
fn verdicts_at_arrival_survive_retirement() {
    let (p, topo) = ping_pong(16);
    let sink = stream(&p, &topo, Some(4));
    let hb = HbAnalysis::build(sink.collect.trace.clone(), &HbConfig::default()).unwrap();
    // compare each record against every record still in the mirror window
    // at its arrival — replay the window evolution offline
    let mut window: Vec<usize> = Vec::new();
    let mut retired_at: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    for &(i, wm) in &sink.retired {
        retired_at.insert(i, wm);
    }
    for j in 0..sink.arrivals.len() {
        for &i in &window {
            assert_eq!(
                sink.concurrent(i, j),
                hb.concurrent(i, j),
                "pair ({i}, {j}) disagrees under retirement"
            );
        }
        window.push(j);
        let wm = j + 1;
        window.retain(|i| retired_at.get(i) != Some(&wm));
    }
}

/// Two crash/restart cycles of node 0 beside an untouched node 1, as the
/// simulator writes them: fault records come from the node's task 0, and
/// reborn tasks get fresh indices.
///
/// ```text
///  0 n0.t1 W      4 n0.t0 Crash(n0)     7 n0.t3 W    10 n0.t0 Crash(n0)
///  1 n0.t2 W      5 n1.t1 W             8 n0.t3 W    11 n0.t0 Restart(n0)
///  2 n0.t2 W      6 n0.t0 Restart(n0)   9 n0.t4 W    12 n0.t5 W
///  3 n1.t1 W                              (handler)  13 n1.t1 W
/// ```
fn crash_cycles() -> TraceSet {
    let handler = ExecCtx::Handler {
        kind: HandlerKind::Event,
        instance: 1,
    };
    let n0 = NodeId(0);
    let script = [
        (0, 1, ExecCtx::Regular, None),
        (0, 2, ExecCtx::Regular, None),
        (0, 2, ExecCtx::Regular, None),
        (1, 1, ExecCtx::Regular, None),
        (0, 0, ExecCtx::Regular, Some(OpKind::NodeCrash { node: n0 })),
        (1, 1, ExecCtx::Regular, None),
        (
            0,
            0,
            ExecCtx::Regular,
            Some(OpKind::NodeRestart { node: n0 }),
        ),
        (0, 3, ExecCtx::Regular, None),
        (0, 3, ExecCtx::Regular, None),
        (0, 4, handler, None),
        (0, 0, ExecCtx::Regular, Some(OpKind::NodeCrash { node: n0 })),
        (
            0,
            0,
            ExecCtx::Regular,
            Some(OpKind::NodeRestart { node: n0 }),
        ),
        (0, 5, ExecCtx::Regular, None),
        (1, 1, ExecCtx::Regular, None),
    ];
    let mut trace = TraceSet::new();
    for (seq, (node, index, ctx, fault)) in script.into_iter().enumerate() {
        let object = trace.names_mut().intern(&format!("o{seq}"));
        trace.push(Record {
            seq: seq as u64,
            task: TaskId {
                node: NodeId(node),
                index,
            },
            ctx,
            kind: fault.unwrap_or(OpKind::MemWrite {
                loc: MemLoc {
                    space: MemSpace::Heap,
                    node: NodeId(node),
                    object,
                    key: None,
                },
                value: None,
            }),
            stack: StackId::EMPTY,
        });
    }
    trace
}

/// Builds a hand-written trace under both indexes and demands that they
/// agree on every record pair — a matrix row is made of the predecessors
/// the engine lists, a clock row of the joins it performs, so this is the
/// check that it lists what it joins. Returns the matrix-backed graph for
/// the test's own assertions.
fn replay(trace: TraceSet) -> HbAnalysis {
    let n = trace.len();
    let [matrix, clocks] = [HbConfig::default(), clocks_config()]
        .map(|cfg| HbAnalysis::build(trace.clone(), &cfg).unwrap());
    assert_eq!(matrix.reachability(), ReachabilityMode::Matrix);
    assert_eq!(clocks.reachability(), ReachabilityMode::Clocks);
    for i in 0..n {
        for j in i + 1..n {
            let (m, c) = (matrix.concurrent(i, j), clocks.concurrent(i, j));
            assert_eq!(m, c, "indexes disagree on ({i}, {j})");
        }
    }
    matrix
}

fn crash_sources(hb: &HbAnalysis, v: usize) -> Vec<usize> {
    hb.predecessors(v)
        .into_iter()
        .filter(|&(_, rule)| rule == EdgeRule::Crash)
        .map(|(u, _)| u)
        .collect()
}

/// A crash record is ordered after the last record of every chain of its
/// node — dead ones from an earlier life included — and after nothing of
/// any other node.
#[test]
fn crash_is_ordered_after_every_chain_of_its_node_only() {
    let hb = replay(crash_cycles());
    assert_eq!(crash_sources(&hb, 4), [0, 2]);
    assert!(hb.happens_before(1, 4), "through its chain's last record");
    assert!(
        hb.concurrent(3, 4) && hb.concurrent(4, 5),
        "node 1 is apart"
    );
    assert_eq!(crash_sources(&hb, 10), [0, 2, 8, 9]);
    assert!(hb.concurrent(5, 10));
}

/// The first record of each chain of the reborn node is ordered after the
/// restart, so pre-crash ⇒ crash ⇒ restart ⇒ post-restart.
#[test]
fn restart_is_ordered_before_every_reborn_chain() {
    let hb = replay(crash_cycles());
    assert_eq!(hb.predecessors(7), [(6, EdgeRule::Crash)]);
    assert_eq!(hb.predecessors(9), [(6, EdgeRule::Crash)]);
    assert_eq!(hb.predecessors(8), [(7, EdgeRule::Program)]);
    assert!(hb.happens_before(0, 8) && hb.happens_before(2, 9));
    assert!(
        hb.concurrent(5, 7) && hb.concurrent(6, 13),
        "node 1 is apart"
    );
}

/// Two cycles on one node chain through: a chain born after both restarts
/// takes one edge, from the latest, and is still ordered after the first
/// restart and everything before it.
#[test]
fn consecutive_restarts_chain_through() {
    let hb = replay(crash_cycles());
    assert!(hb.happens_before(6, 11), "restarts share a chain");
    assert_eq!(hb.predecessors(12), [(11, EdgeRule::Crash)]);
    assert!(hb.happens_before(6, 12) && hb.happens_before(7, 12) && hb.happens_before(0, 12));
    assert!(hb.concurrent(12, 13));
}
