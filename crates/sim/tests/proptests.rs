//! Property tests for the simulator: arbitrary (well-formed) programs
//! never crash the interpreter, runs are deterministic per seed, and the
//! emitted traces satisfy structural invariants.
//!
//! Generators are driven by the in-repo deterministic PRNG
//! (`dcatch_obs::SmallRng`); each test runs a fixed number of seeded
//! cases and reports the failing case seed on assert.

use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder, Value};
use dcatch_obs::SmallRng;
use dcatch_sim::{ChannelKind, FaultPlan, MessageAction, MessageFault, SimConfig, Topology, World};
use dcatch_trace::OpKind;

/// A miniature random-program AST that only produces terminating,
/// well-formed IR: bounded loops, existing call targets, matched
/// lock/unlock.
#[derive(Debug, Clone)]
enum Gen {
    Write(u8, i64),
    Read(u8),
    MapPut(u8, u8, i64),
    MapGet(u8, u8),
    ListAdd(u8, i64),
    If(i64, Vec<Gen>),
    BoundedLoop(u8, Vec<Gen>),
    CallHelper(u8),
    SpawnWorker(u8),
    Enqueue(u8),
    Rpc(u8),
    Send(u8),
    Critical(u8, Vec<Gen>),
    Sleep(u8),
    Warn,
    Yield,
}

fn small_val(rng: &mut SmallRng) -> i64 {
    rng.gen_range_i64(-5, 5)
}

fn arb_leaf(rng: &mut SmallRng) -> Gen {
    match rng.gen_range(13) {
        0 => Gen::Write(rng.gen_range(4) as u8, small_val(rng)),
        1 => Gen::Read(rng.gen_range(4) as u8),
        2 => Gen::MapPut(
            rng.gen_range(3) as u8,
            rng.gen_range(3) as u8,
            small_val(rng),
        ),
        3 => Gen::MapGet(rng.gen_range(3) as u8, rng.gen_range(3) as u8),
        4 => Gen::ListAdd(rng.gen_range(3) as u8, small_val(rng)),
        5 => Gen::CallHelper(rng.gen_range(3) as u8),
        6 => Gen::SpawnWorker(rng.gen_range(3) as u8),
        7 => Gen::Enqueue(rng.gen_range(3) as u8),
        8 => Gen::Rpc(rng.gen_range(3) as u8),
        9 => Gen::Send(rng.gen_range(3) as u8),
        10 => Gen::Sleep(rng.gen_range(20) as u8),
        11 => Gen::Warn,
        _ => Gen::Yield,
    }
}

fn arb_gen(rng: &mut SmallRng, depth: u32) -> Gen {
    // at depth 0 only leaves; otherwise mix in the three recursive forms
    if depth == 0 || rng.gen_range(4) != 0 {
        return arb_leaf(rng);
    }
    match rng.gen_range(3) {
        0 => {
            let body = arb_body(rng, depth - 1, 4);
            Gen::If(rng.gen_range_i64(-2, 2), body)
        }
        1 => {
            let body = arb_body(rng, depth - 1, 3);
            Gen::BoundedLoop(1 + rng.gen_range(3) as u8, body)
        }
        _ => {
            let body = arb_body(rng, depth - 1, 3);
            Gen::Critical(rng.gen_range(2) as u8, body)
        }
    }
}

fn arb_body(rng: &mut SmallRng, depth: u32, max_len: usize) -> Vec<Gen> {
    let len = rng.gen_range(max_len);
    (0..len).map(|_| arb_gen(rng, depth)).collect()
}

fn arb_ops(rng: &mut SmallRng, depth: u32, max_len: usize) -> Vec<Gen> {
    let len = rng.gen_range(max_len);
    (0..len).map(|_| arb_gen(rng, depth)).collect()
}

fn emit(b: &mut dcatch_model::BlockBuilder<'_>, g: &Gen, fresh: &mut u32) {
    let local = |fresh: &mut u32| {
        *fresh += 1;
        format!("l{fresh}")
    };
    match g {
        Gen::Write(o, v) => {
            b.write(&format!("cell{o}"), Expr::val(*v));
        }
        Gen::Read(o) => {
            let l = local(fresh);
            b.read(&l, &format!("cell{o}"));
        }
        Gen::MapPut(m, k, v) => {
            b.map_put(&format!("map{m}"), Expr::val(i64::from(*k)), Expr::val(*v));
        }
        Gen::MapGet(m, k) => {
            let l = local(fresh);
            b.map_get(&l, &format!("map{m}"), Expr::val(i64::from(*k)));
        }
        Gen::ListAdd(l0, v) => {
            b.list_add(&format!("list{l0}"), Expr::val(*v));
        }
        Gen::If(c, body) => {
            b.if_(Expr::val(*c).gt(Expr::val(0)), |b| {
                for g in body {
                    emit(b, g, fresh);
                }
            });
        }
        Gen::BoundedLoop(n, body) => {
            let i = local(fresh);
            b.assign(&i, Expr::val(0));
            b.while_(Expr::local(&i).lt(Expr::val(i64::from(*n))), |b| {
                for g in body {
                    emit(b, g, fresh);
                }
                b.assign(&i, Expr::local(&i).add(Expr::val(1)));
            });
        }
        Gen::CallHelper(h) => {
            b.call_void(&format!("helper{h}"), vec![]);
        }
        Gen::SpawnWorker(w) => {
            b.spawn_detached(&format!("worker{w}"), vec![]);
        }
        Gen::Enqueue(h) => {
            b.enqueue("q", &format!("handler{h}"), vec![]);
        }
        Gen::Rpc(r) => {
            let l = local(fresh);
            b.rpc(&l, Expr::local("peer"), &format!("rpc{r}"), vec![]);
        }
        Gen::Send(s) => {
            b.socket_send(Expr::local("peer"), &format!("msg{s}"), vec![]);
        }
        Gen::Critical(l0, body) => {
            b.lock(&format!("lk{l0}"));
            for g in body {
                emit(b, g, fresh);
            }
            b.unlock(&format!("lk{l0}"));
        }
        Gen::Sleep(t) => {
            b.sleep(Expr::val(i64::from(*t)));
        }
        Gen::Warn => {
            b.log_warn("noise");
        }
        Gen::Yield => {
            b.yield_();
        }
    }
}

/// Builds a two-node program hosting the generated main body plus the
/// fixed set of helpers/handlers the generator can reference. `Critical`
/// blocks never nest the same lock (the generator would deadlock itself),
/// so strip nested criticals of the same id.
fn build_program(main_ops: &[Gen]) -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    let mut fresh = 0u32;
    pb.func("main", &["peer"], FuncKind::Regular, |b| {
        let mut held = Vec::new();
        for g in main_ops {
            emit_no_reentrant(b, g, &mut fresh, &mut held);
        }
    });
    for h in 0..3 {
        pb.func(format!("helper{h}"), &[], FuncKind::Regular, |b| {
            b.write(&format!("helper_cell{h}"), Expr::val(i64::from(h)));
        });
        pb.func(format!("worker{h}"), &[], FuncKind::Regular, |b| {
            b.write(&format!("worker_cell{h}"), Expr::val(i64::from(h)));
        });
        pb.func(format!("handler{h}"), &[], FuncKind::EventHandler, |b| {
            b.write(&format!("event_cell{h}"), Expr::val(i64::from(h)));
        });
        pb.func(format!("rpc{h}"), &[], FuncKind::RpcHandler, |b| {
            b.read("x", &format!("rpc_cell{h}"));
            b.ret(Expr::local("x"));
        });
        pb.func(format!("msg{h}"), &[], FuncKind::SocketHandler, |b| {
            b.write(&format!("msg_cell{h}"), Expr::val(i64::from(h)));
        });
    }
    let program = pb.build().expect("generated program must build");
    let mut topo = Topology::new();
    let peer = {
        let mut nb = topo.node("peer");
        nb.queue("q", 1);
        nb.id()
    };
    {
        let mut nb = topo.node("host");
        nb.queue("q", 1);
        nb.entry("main", vec![Value::Node(peer)]);
    }
    (program, topo)
}

/// Like `emit`, but skips `Critical` sections whose lock is already held
/// (the IR's locks are non-reentrant).
fn emit_no_reentrant(
    b: &mut dcatch_model::BlockBuilder<'_>,
    g: &Gen,
    fresh: &mut u32,
    held: &mut Vec<u8>,
) {
    match g {
        Gen::Critical(l0, body) => {
            if held.contains(l0) {
                for g in body {
                    emit_no_reentrant(b, g, fresh, held);
                }
            } else {
                held.push(*l0);
                b.lock(&format!("lk{l0}"));
                for g in body {
                    emit_no_reentrant(b, g, fresh, held);
                }
                b.unlock(&format!("lk{l0}"));
                held.pop();
            }
        }
        Gen::If(c, body) => {
            b.if_(Expr::val(*c).gt(Expr::val(0)), |b| {
                for g in body {
                    emit_no_reentrant(b, g, fresh, held);
                }
            });
        }
        Gen::BoundedLoop(n, body) => {
            *fresh += 1;
            let i = format!("l{fresh}");
            b.assign(&i, Expr::val(0));
            b.while_(Expr::local(&i).lt(Expr::val(i64::from(*n))), |b| {
                for g in body {
                    emit_no_reentrant(b, g, fresh, held);
                }
                b.assign(&i, Expr::local(&i).add(Expr::val(1)));
            });
        }
        other => emit(b, other, fresh),
    }
}

/// Arbitrary generated programs run to completion without failures:
/// the interpreter has no panics and the generated IR is failure-free
/// by construction.
#[test]
fn generated_programs_run_cleanly() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ case);
        let ops = arb_ops(&mut rng, 3, 12);
        let seed = rng.next_u64() % 1000;
        let (program, topo) = build_program(&ops);
        let run = World::run_once(&program, &topo, SimConfig::default().with_seed(seed))
            .expect("run starts");
        assert!(run.failures.is_empty(), "case {case}: {:?}", run.failures);
        assert!(run.completed, "case {case}");
    }
}

/// Same seed ⇒ byte-identical trace; sequence numbers strictly increase.
#[test]
fn runs_are_deterministic_and_seq_ordered() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xDE7E12 ^ case);
        let ops = arb_ops(&mut rng, 2, 10);
        let seed = rng.next_u64() % 1000;
        let (program, topo) = build_program(&ops);
        let cfg = SimConfig::default().with_seed(seed).with_full_tracing();
        let a = World::run_once(&program, &topo, cfg.clone()).unwrap();
        let b = World::run_once(&program, &topo, cfg).unwrap();
        assert_eq!(a.trace.to_lines(), b.trace.to_lines(), "case {case}");
        let mut last = None;
        for r in a.trace.records() {
            if let Some(prev) = last {
                assert!(r.seq > prev, "case {case}: seq not increasing");
            }
            last = Some(r.seq);
        }
    }
}

/// An empty fault plan is a strict no-op: for arbitrary programs, running
/// with the default config, with an explicitly empty plan, and with a
/// plan whose entries can never match (wrong endpoints) all produce
/// byte-identical traces. This is the guarantee that keeps the paper's
/// detection tables unchanged when the engine is idle.
#[test]
fn empty_fault_plan_leaves_traces_byte_identical() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xFA017 ^ case);
        let ops = arb_ops(&mut rng, 3, 12);
        let seed = rng.next_u64() % 1000;
        let (program, topo) = build_program(&ops);
        let base_cfg = SimConfig::default().with_seed(seed).with_full_tracing();

        let baseline = World::run_once(&program, &topo, base_cfg.clone()).unwrap();
        let empty = World::run_once(
            &program,
            &topo,
            base_cfg.clone().with_faults(FaultPlan::default()),
        )
        .unwrap();
        // node 99 does not exist, so no message ever matches and the
        // crash/timeout machinery never wakes
        let unmatched_plan = FaultPlan::default().with_message(
            MessageFault::new(ChannelKind::Any, MessageAction::Drop)
                .from_node(dcatch_model::NodeId(99)),
        );
        let unmatched =
            World::run_once(&program, &topo, base_cfg.with_faults(unmatched_plan)).unwrap();

        let want = baseline.trace.to_lines();
        assert_eq!(want, empty.trace.to_lines(), "case {case}: empty plan");
        assert_eq!(
            want,
            unmatched.trace.to_lines(),
            "case {case}: unmatched plan"
        );
        assert_eq!(baseline.faults_injected, 0, "case {case}");
        assert_eq!(empty.faults_injected, 0, "case {case}");
        assert_eq!(unmatched.faults_injected, 0, "case {case}");
    }
}

/// Faulted runs of arbitrary programs never panic the interpreter and
/// always end classified: either the run completes, or it reports at
/// least one failure.
#[test]
fn faulted_runs_never_wedge_silently() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xBADF ^ case);
        let ops = arb_ops(&mut rng, 3, 12);
        let seed = rng.next_u64() % 1000;
        let (program, topo) = build_program(&ops);
        // one plan per fault class, rotating with the case number
        let plan = match case % 4 {
            0 => FaultPlan::default().with_message(MessageFault::new(
                ChannelKind::Any,
                MessageAction::Delay(1 + case % 5),
            )),
            1 => FaultPlan::default().with_message(
                MessageFault::new(ChannelKind::Any, MessageAction::Drop).nth(1 + case % 3),
            ),
            2 => FaultPlan::default().with_crash(
                dcatch_model::NodeId(1),
                1 + case % 30,
                (case % 2 == 0).then_some(5),
            ),
            _ => FaultPlan::default().with_rpc_timeout(None, 1 + case % 8),
        };
        let cfg = SimConfig::default().with_seed(seed).with_faults(plan);
        let run = World::run_once(&program, &topo, cfg).unwrap();
        assert!(
            run.completed || !run.failures.is_empty(),
            "case {case}: wedged without a classified failure"
        );
    }
}

/// Structural trace invariants: matched create/begin pairs, balanced
/// locks per task, and begin-before-end for every handler instance.
#[test]
fn trace_structure_is_well_formed() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x57A7 ^ case);
        let ops = arb_ops(&mut rng, 2, 10);
        let seed = rng.next_u64() % 500;
        let (program, topo) = build_program(&ops);
        let cfg = SimConfig::default().with_seed(seed).with_full_tracing();
        let run = World::run_once(&program, &topo, cfg).unwrap();
        let trace = run.trace;

        use std::collections::BTreeMap;
        let mut event_create = BTreeMap::new();
        let mut rpc_create = BTreeMap::new();
        let mut socket_send = BTreeMap::new();
        let mut lock_depth: BTreeMap<_, i64> = BTreeMap::new();
        for r in trace.records() {
            match &r.kind {
                OpKind::EventCreate { event } => {
                    event_create.insert(*event, r.seq);
                }
                OpKind::EventBegin { event } => {
                    let c = event_create.get(event).expect("begin has create");
                    assert!(*c < r.seq, "case {case}");
                }
                OpKind::RpcCreate { rpc } => {
                    rpc_create.insert(*rpc, r.seq);
                }
                OpKind::RpcBegin { rpc } => {
                    let c = rpc_create.get(rpc).expect("rpc begin has create");
                    assert!(*c < r.seq, "case {case}");
                }
                OpKind::SocketSend { msg } => {
                    socket_send.insert(*msg, r.seq);
                }
                OpKind::SocketRecv { msg } => {
                    let c = socket_send.get(msg).expect("recv has send");
                    assert!(*c < r.seq, "case {case}");
                }
                OpKind::LockAcquire { lock } => {
                    *lock_depth.entry((r.task, *lock)).or_insert(0) += 1;
                }
                OpKind::LockRelease { lock } => {
                    let d = lock_depth.entry((r.task, *lock)).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "case {case}: release without acquire");
                }
                _ => {}
            }
        }
        for ((task, lock), d) in lock_depth {
            assert_eq!(d, 0, "case {case}: unbalanced lock {lock:?} on {task}");
        }
    }
}
