use dcatch_model::{FuncId, NodeId, StmtId};
use dcatch_trace::{
    EventId, ExecCtx, HandlerKind, MemLoc, MemSpace, MsgId, NameId, Names, OpKind, QueueInfo,
    Record, RpcId, StackId, TaskId, TraceSet,
};

use super::{EdgeRule, HbAnalysis, HbConfig, HbError, ReachabilityMode};
use crate::{Arrival, FrontierEngine, FrontierOptions};

fn task(node: u32, index: u32) -> TaskId {
    TaskId {
        node: NodeId(node),
        index,
    }
}

/// Every name the tests use, by id.
const NAMES: &[&str] = &[
    "x", "y", "before", "inchild", "after", "arg", "served", "result", "payload", "received",
    "observed", "setup", "handled", "state", "a", "w", "r", "/r",
];

fn name(text: &str) -> NameId {
    NameId(
        NAMES
            .iter()
            .position(|n| *n == text)
            .expect("listed in NAMES") as u32,
    )
}

/// A record whose callstack [`traced`] fills in.
fn rec(seq: u64, t: TaskId, ctx: ExecCtx, kind: OpKind) -> Record {
    Record {
        seq,
        task: t,
        ctx,
        kind,
        stack: StackId::EMPTY,
    }
}

/// The trace of `records`, each given the callstack `f0:<seq>`.
fn traced(records: Vec<Record>) -> TraceSet {
    let mut trace = TraceSet::with_names(Names::with_base(NAMES.iter().map(|n| n.to_string())));
    for mut r in records {
        let stmt = StmtId {
            func: FuncId(0),
            idx: r.seq as u32,
        };
        r.stack = trace.names_mut().stack_of(&[stmt]);
        trace.push(r);
    }
    trace
}

fn mem(seq: u64, t: TaskId, ctx: ExecCtx, object: &str, write: bool) -> Record {
    let loc = MemLoc {
        space: MemSpace::Heap,
        node: t.node,
        object: name(object),
        key: None,
    };
    let kind = if write {
        OpKind::MemWrite { loc, value: None }
    } else {
        OpKind::MemRead { loc, value: None }
    };
    rec(seq, t, ctx, kind)
}

fn build(records: Vec<Record>) -> HbAnalysis {
    HbAnalysis::build(traced(records), &HbConfig::default()).unwrap()
}

#[test]
fn program_order_chains_regular_thread_records() {
    let t0 = task(0, 0);
    let t1 = task(0, 1);
    let a = build(vec![
        mem(0, t0, ExecCtx::Regular, "x", true),
        mem(1, t0, ExecCtx::Regular, "x", false),
        mem(2, t1, ExecCtx::Regular, "x", true),
    ]);
    assert!(a.happens_before(0, 1));
    assert!(!a.happens_before(1, 0));
    assert!(a.concurrent(0, 2));
    assert!(a.concurrent(1, 2));
}

#[test]
fn pnreg_separates_handler_instances_on_the_same_thread() {
    let w = task(0, 0);
    let h1 = ExecCtx::Handler {
        kind: HandlerKind::Event,
        instance: 1,
    };
    let h2 = ExecCtx::Handler {
        kind: HandlerKind::Event,
        instance: 2,
    };
    let a = build(vec![
        mem(0, w, h1, "x", true),
        mem(1, w, h1, "y", true),
        mem(2, w, h2, "x", false),
    ]);
    assert!(a.happens_before(0, 1)); // same instance
    assert!(a.concurrent(0, 2)); // different instances, same thread
    assert!(a.concurrent(1, 2));
}

#[test]
fn fork_and_join_edges() {
    let parent = task(0, 0);
    let child = task(0, 1);
    let a = build(vec![
        mem(0, parent, ExecCtx::Regular, "before", true),
        rec(1, parent, ExecCtx::Regular, OpKind::ThreadCreate { child }),
        rec(2, child, ExecCtx::Regular, OpKind::ThreadBegin),
        mem(3, child, ExecCtx::Regular, "inchild", true),
        rec(4, child, ExecCtx::Regular, OpKind::ThreadEnd),
        rec(5, parent, ExecCtx::Regular, OpKind::ThreadJoin { child }),
        mem(6, parent, ExecCtx::Regular, "after", true),
    ]);
    assert!(a.happens_before(0, 3)); // before-write ⇒ child work
    assert!(a.happens_before(3, 6)); // child work ⇒ after-join
    assert!(a.happens_before(1, 2));
    assert!(a.happens_before(4, 5));
}

#[test]
fn rpc_edges_order_caller_and_callee() {
    let caller = task(0, 0);
    let worker = task(1, 0);
    let hctx = ExecCtx::Handler {
        kind: HandlerKind::Rpc,
        instance: 1,
    };
    let rpc = RpcId(9);
    let a = build(vec![
        mem(0, caller, ExecCtx::Regular, "arg", true),
        rec(1, caller, ExecCtx::Regular, OpKind::RpcCreate { rpc }),
        rec(2, worker, hctx, OpKind::RpcBegin { rpc }),
        mem(3, worker, hctx, "served", true),
        rec(4, worker, hctx, OpKind::RpcEnd { rpc }),
        rec(5, caller, ExecCtx::Regular, OpKind::RpcJoin { rpc }),
        mem(6, caller, ExecCtx::Regular, "result", true),
    ]);
    assert!(a.happens_before(0, 3));
    assert!(a.happens_before(3, 6));
}

#[test]
fn socket_edge_orders_send_before_handler() {
    let sender = task(0, 0);
    let handler = task(1, 0);
    let hctx = ExecCtx::Handler {
        kind: HandlerKind::Socket,
        instance: 1,
    };
    let msg = MsgId(3);
    let a = build(vec![
        mem(0, sender, ExecCtx::Regular, "payload", true),
        rec(1, sender, ExecCtx::Regular, OpKind::SocketSend { msg }),
        rec(2, handler, hctx, OpKind::SocketRecv { msg }),
        mem(3, handler, hctx, "received", true),
    ]);
    assert!(a.happens_before(0, 3));
    // but nothing orders the handler back to the sender
    assert!(!a.happens_before(3, 1));
}

#[test]
fn push_edge_pairs_update_with_matching_version() {
    let writer = task(0, 0);
    let watcher = task(1, 0);
    let wctx = ExecCtx::Handler {
        kind: HandlerKind::ZkWatcher,
        instance: 1,
    };
    let a = build(vec![
        rec(
            0,
            writer,
            ExecCtx::Regular,
            OpKind::ZkUpdate {
                path: name("/r"),
                version: 1,
            },
        ),
        rec(
            1,
            writer,
            ExecCtx::Regular,
            OpKind::ZkUpdate {
                path: name("/r"),
                version: 2,
            },
        ),
        rec(
            2,
            watcher,
            wctx,
            OpKind::ZkPushed {
                path: name("/r"),
                version: 1,
            },
        ),
        mem(3, watcher, wctx, "observed", true),
    ]);
    assert!(a.happens_before(0, 3)); // v1 update ⇒ v1 notification handler
    assert!(!a.happens_before(1, 2)); // v2 update does not order the v1 push
}

#[test]
fn eenq_orders_enqueue_before_handling() {
    let producer = task(0, 0);
    let worker = task(0, 1);
    let hctx = ExecCtx::Handler {
        kind: HandlerKind::Event,
        instance: 1,
    };
    let e = EventId(5);
    let mut trace = traced(vec![
        mem(0, producer, ExecCtx::Regular, "setup", true),
        rec(
            1,
            producer,
            ExecCtx::Regular,
            OpKind::EventCreate { event: e },
        ),
        rec(2, worker, hctx, OpKind::EventBegin { event: e }),
        mem(3, worker, hctx, "handled", true),
        rec(4, worker, hctx, OpKind::EventEnd { event: e }),
    ]);
    trace.register_queue(NodeId(0), "q", QueueInfo { consumers: 1 });
    trace.register_event(e.0, NodeId(0), "q");
    let a = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
    assert!(a.happens_before(0, 3));
}

/// Two events enqueued in order by one thread onto queue `q`, handled one
/// after the other; the second handler writes what the first read. Without
/// `end_e2` the trace stops inside the second handler (still running, or
/// killed by a crash).
fn two_events(consumers: u32, end_e2: bool) -> TraceSet {
    let producer = task(0, 0);
    let worker = task(0, 1);
    let h1 = ExecCtx::Handler {
        kind: HandlerKind::Event,
        instance: 1,
    };
    let h2 = ExecCtx::Handler {
        kind: HandlerKind::Event,
        instance: 2,
    };
    let (e1, e2) = (EventId(1), EventId(2));
    let mut trace = traced(vec![
        rec(
            0,
            producer,
            ExecCtx::Regular,
            OpKind::EventCreate { event: e1 },
        ),
        rec(
            1,
            producer,
            ExecCtx::Regular,
            OpKind::EventCreate { event: e2 },
        ),
        rec(2, worker, h1, OpKind::EventBegin { event: e1 }),
        mem(3, worker, h1, "state", true),
        rec(4, worker, h1, OpKind::EventEnd { event: e1 }),
        rec(5, worker, h2, OpKind::EventBegin { event: e2 }),
        mem(6, worker, h2, "state", false),
    ]);
    if end_e2 {
        trace.push(rec(7, worker, h2, OpKind::EventEnd { event: e2 }));
    }
    trace.register_queue(NodeId(0), "q", QueueInfo { consumers });
    trace.register_event(e1.0, NodeId(0), "q");
    trace.register_event(e2.0, NodeId(0), "q");
    trace
}

/// Eserial orders the first handler's end before the second's begin on a
/// single-consumer queue, so the handler bodies are ordered.
#[test]
fn eserial_orders_single_consumer_handlers() {
    let single = HbAnalysis::build(two_events(1, true), &HbConfig::default()).unwrap();
    assert!(single.happens_before(3, 6), "Eserial must order the bodies");

    let multi = HbAnalysis::build(two_events(2, true), &HbConfig::default()).unwrap();
    assert!(
        multi.concurrent(3, 6),
        "multi-consumer handlers are concurrent"
    );
}

/// `End(e1) ⇒ Begin(e2)` needs `e1` to have ended, not `e2`: a handler
/// that never reaches its `EventEnd` is still serialized after its
/// predecessors — under both indexes, and as the online engine sees it.
#[test]
fn eserial_orders_a_handler_that_never_ends() {
    let trace = two_events(1, false);
    for mode in [ReachabilityMode::Matrix, ReachabilityMode::Clocks] {
        let cfg = HbConfig {
            reachability: mode,
            ..HbConfig::default()
        };
        let a = HbAnalysis::build(trace.clone(), &cfg).unwrap();
        assert!(a.happens_before(3, 6), "{mode}: Eserial edge missing");
        assert!(a.explain(3, 6).unwrap().contains(&(5, EdgeRule::Eserial)));
    }
    let mut engine = FrontierEngine::new(FrontierOptions::default());
    for control in trace.controls() {
        engine.control(&control);
    }
    let at: Vec<Arrival> = (trace.records().iter())
        .map(|r| engine.record(r, trace.names()))
        .collect();
    // record 6 arrived last, so its chain's clock is record 6's
    let (write, read) = (at[3], at[6]);
    assert!(engine.clock(read.chain)[write.slot as usize] >= write.pos);
}

/// Eserial fixed point: e3 is created *inside* e2's handler, so
/// `Create(e1) ⇒ Create(e3)` only holds after the first Eserial round adds
/// `End(e1) ⇒ Begin(e2)`.
#[test]
fn eserial_reaches_a_fixed_point_across_rounds() {
    let producer = task(0, 0);
    let worker = task(0, 1);
    let hctx = |i| ExecCtx::Handler {
        kind: HandlerKind::Event,
        instance: i,
    };
    let (e1, e2, e3) = (EventId(1), EventId(2), EventId(3));
    let mut trace = traced(vec![
        rec(
            0,
            producer,
            ExecCtx::Regular,
            OpKind::EventCreate { event: e1 },
        ),
        rec(
            1,
            producer,
            ExecCtx::Regular,
            OpKind::EventCreate { event: e2 },
        ),
        rec(2, worker, hctx(1), OpKind::EventBegin { event: e1 }),
        mem(3, worker, hctx(1), "a", true),
        rec(4, worker, hctx(1), OpKind::EventEnd { event: e1 }),
        rec(5, worker, hctx(2), OpKind::EventBegin { event: e2 }),
        rec(6, worker, hctx(2), OpKind::EventCreate { event: e3 }),
        rec(7, worker, hctx(2), OpKind::EventEnd { event: e2 }),
        rec(8, worker, hctx(3), OpKind::EventBegin { event: e3 }),
        mem(9, worker, hctx(3), "a", false),
        rec(10, worker, hctx(3), OpKind::EventEnd { event: e3 }),
    ]);
    trace.register_queue(NodeId(0), "q", QueueInfo { consumers: 1 });
    for e in [e1, e2, e3] {
        trace.register_event(e.0, NodeId(0), "q");
    }
    let a = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
    assert!(
        a.happens_before(3, 9),
        "fixed point must order e1's body before e3's body"
    );
}

#[test]
fn explain_returns_a_rule_chain() {
    let parent = task(0, 0);
    let child = task(0, 1);
    let a = build(vec![
        mem(0, parent, ExecCtx::Regular, "w", true),
        rec(1, parent, ExecCtx::Regular, OpKind::ThreadCreate { child }),
        rec(2, child, ExecCtx::Regular, OpKind::ThreadBegin),
        mem(3, child, ExecCtx::Regular, "r", false),
    ]);
    let chain = a.explain(0, 3).expect("path exists");
    let rules: Vec<EdgeRule> = chain.iter().map(|&(_, r)| r).collect();
    assert_eq!(
        rules,
        vec![EdgeRule::Program, EdgeRule::Fork, EdgeRule::Program]
    );
    assert!(a.explain(3, 0).is_none());
}

#[test]
fn add_edges_and_rebuild_orders_previously_concurrent_records() {
    let t0 = task(0, 0);
    let t1 = task(0, 1);
    let mut a = build(vec![
        mem(0, t0, ExecCtx::Regular, "x", true),
        mem(1, t1, ExecCtx::Regular, "x", false),
        mem(2, t1, ExecCtx::Regular, "y", true),
    ]);
    assert!(a.concurrent(0, 1));
    a.add_edges_and_rebuild(&[(0, 1)]);
    assert!(a.happens_before(0, 1));
    assert!(a.happens_before(0, 2)); // transitively via t1's program order
}

#[test]
fn memory_budget_is_enforced() {
    let t0 = task(0, 0);
    let records: Vec<Record> = (0..100)
        .map(|i| mem(i, t0, ExecCtx::Regular, "x", false))
        .collect();
    let trace = traced(records);
    let build = |mode, budget| {
        let cfg = HbConfig {
            memory_budget_bytes: budget,
            reachability: mode,
        };
        HbAnalysis::build(trace.clone(), &cfg).map(|a| a.reach_bytes())
    };
    // 16 bytes is too small for either index, so even Auto must OOM
    for mode in [
        ReachabilityMode::Auto,
        ReachabilityMode::Matrix,
        ReachabilityMode::Clocks,
    ] {
        match build(mode, 16) {
            Err(HbError::OutOfMemory { needed, budget }) => {
                assert!(needed > budget, "{mode}");
            }
            other => panic!("expected OOM under {mode}, got {other:?}"),
        }
    }
    // the budget is checked against what the index holds, not an
    // estimate of it: 100 records on one chain are one 1-slot row of 20 B
    // (row id, start, user count, clock) and 99 row ids sharing it, 416 B
    for mode in [ReachabilityMode::Auto, ReachabilityMode::Clocks] {
        assert_eq!(build(mode, 416), Ok(416), "{mode}");
        let (needed, budget) = (416, 415);
        assert_eq!(
            build(mode, budget),
            Err(HbError::OutOfMemory { needed, budget }),
            "{mode}: the entry that does not fit is the last one"
        );
    }
}

/// `Auto` ends with whichever index is smaller as measured — clock rows on
/// a trace of few chains, the matrix on a tie and on a wide trace, where
/// it drops the rows as soon as they reach the matrix's size — and does
/// not switch engines to fit a budget; forcing an engine overrides the
/// choice.
#[test]
fn auto_mode_picks_the_smaller_index() {
    let trace_of = |tasks: &[u32]| -> TraceSet {
        traced(
            (0u64..)
                .zip(tasks)
                .map(|(i, &t)| mem(i, task(0, t), ExecCtx::Regular, "x", false))
                .collect(),
        )
    };
    let round_robin = |n: u32, tasks: u32| trace_of(&(0..n).map(|i| i % tasks).collect::<Vec<_>>());
    let build = |trace: &TraceSet, mode, budget| {
        HbAnalysis::build(
            trace.clone(),
            &HbConfig {
                memory_budget_bytes: budget,
                reachability: mode,
            },
        )
    };
    let auto = |trace: &TraceSet| {
        let a = build(trace, ReachabilityMode::Auto, 1 << 20).unwrap();
        (a.reachability(), a.reach_bytes())
    };
    // a row is 16 B of row id, start and user count plus 4 B a slot; a
    // record sharing the row of the tail it extends is a 4 B row id.
    // n=16 over 2 tasks: the rows are ragged, a 1-slot row for the first
    // record and a 2-slot one for the second, 20 + 24 + 14 × 4 = 100 bytes
    // against a matrix of 16 × 1 × 8 = 128
    assert_eq!(auto(&round_robin(16, 2)), (ReachabilityMode::Clocks, 100));
    // one row and three shares are 32 bytes, and so is a 4 × 4 matrix: the
    // matrix on a tie
    assert_eq!(
        auto(&trace_of(&[0, 0, 0, 0])),
        (ReachabilityMode::Matrix, 32)
    );
    // wide: 256 records over 64 concurrent tasks. The rows pass the 8 192 B
    // matrix before every task has been seen once and are dropped there (in
    // debug, `build` asserts what it holds at every push); kept to the end
    // they are 64 rows of 1 to 64 slots, 9 344 B, and 192 shares
    let wide = round_robin(256, 64);
    assert_eq!(auto(&wide), (ReachabilityMode::Matrix, 8192));
    let kept = build(&wide, ReachabilityMode::Clocks, 1 << 20).unwrap();
    assert_eq!(kept.reach_bytes(), 10_112, "larger than the matrix");
    // n=100 in 1 chain: matrix 100 × 2 × 8 = 1600 bytes, clocks one row and
    // 99 shares, 20 + 99 × 4 = 416
    let long = round_robin(100, 1);
    assert_eq!(auto(&long), (ReachabilityMode::Clocks, 416));
    // the smaller index not fitting is out-of-memory, not an engine switch
    assert_eq!(
        build(&long, ReachabilityMode::Auto, 415).err(),
        Some(HbError::OutOfMemory {
            needed: 416,
            budget: 415
        })
    );
    let forced = build(&long, ReachabilityMode::Matrix, 1 << 20).unwrap();
    assert_eq!(forced.reachability(), ReachabilityMode::Matrix);
    assert!(build(&long, ReachabilityMode::Matrix, 1000).is_err());
}

#[test]
fn edge_and_vertex_counts() {
    let t0 = task(0, 0);
    let a = build(vec![
        mem(0, t0, ExecCtx::Regular, "x", true),
        mem(1, t0, ExecCtx::Regular, "x", false),
    ]);
    assert_eq!(a.vertex_count(), 2);
    assert_eq!(a.edge_count(), 1);
    assert_eq!(a.successors(0).count(), 1);
}
