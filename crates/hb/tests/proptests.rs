//! Property tests for the HB graph: the bit-matrix reachable sets must
//! agree with a naive DFS transitive closure, and concurrency must be
//! symmetric and irreflexive, on arbitrary generated traces.
//!
//! Generators are driven by the in-repo deterministic PRNG
//! (`dcatch_obs::SmallRng`); each test runs a fixed number of seeded
//! cases and reports the failing case seed on assert.

use dcatch_hb::{apply_ablation, Ablation, HbAnalysis, HbConfig, ReachabilityMode};
use dcatch_model::{FuncId, NodeId, StmtId};
use dcatch_obs::SmallRng;
use dcatch_trace::{
    EventId, ExecCtx, HandlerKind, MemLoc, MemSpace, MsgId, NameId, Names, OpKind, QueueInfo,
    Record, RpcId, StackId, TaskId, TraceSet,
};

/// A compact description of a random but *well-formed* trace: a set of
/// tasks emitting accesses, with matched create/begin pairs for threads,
/// events, RPCs, and sockets.
#[derive(Debug, Clone)]
enum Op {
    Access { task: u8, object: u8, write: bool },
    SpawnPair { parent: u8, child: u8 },
    EventPair { producer: u8, worker: u8 },
    RpcPair { caller: u8, worker: u8 },
    SocketPair { sender: u8, handler: u8 },
}

fn arb_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(5) {
        0 => Op::Access {
            task: rng.gen_range(6) as u8,
            object: rng.gen_range(4) as u8,
            write: rng.gen_bool(),
        },
        1 => Op::SpawnPair {
            parent: rng.gen_range(6) as u8,
            child: rng.gen_range(6) as u8,
        },
        2 => Op::EventPair {
            producer: rng.gen_range(6) as u8,
            worker: rng.gen_range(6) as u8,
        },
        3 => Op::RpcPair {
            caller: rng.gen_range(6) as u8,
            worker: rng.gen_range(6) as u8,
        },
        _ => Op::SocketPair {
            sender: rng.gen_range(6) as u8,
            handler: rng.gen_range(6) as u8,
        },
    }
}

/// `min..max` ops, at least one.
fn arb_ops(rng: &mut SmallRng, max: usize) -> Vec<Op> {
    let len = 1 + rng.gen_range(max - 1);
    (0..len).map(|_| arb_op(rng)).collect()
}

fn task(i: u8) -> TaskId {
    TaskId {
        node: NodeId(u32::from(i) % 3),
        index: u32::from(i),
    }
}

/// Builds a well-formed trace from the op script. Creates happen at the
/// position of the op; the matching begin/recv/etc. is appended at the end
/// (so every cause precedes its effect in sequence order).
fn build_trace(ops: &[Op]) -> TraceSet {
    let mut records: Vec<Record> = Vec::new();
    let mut tail: Vec<Record> = Vec::new();
    let mut seq = 0u64;
    let mut next_id = 0u64;
    let rec = |seq: &mut u64, t: TaskId, ctx: ExecCtx, kind: OpKind| -> Record {
        let r = Record {
            seq: *seq,
            task: t,
            ctx,
            kind,
            // `f<task index>:<seq>`, named below
            stack: StackId::EMPTY,
        };
        *seq += 1;
        r
    };
    let mut queue_registered = false;
    let objects = (0..4).map(|o| format!("obj{o}"));
    let mut trace = TraceSet::with_names(Names::with_base(objects));
    for op in ops {
        match *op {
            Op::Access {
                task: t,
                object,
                write,
            } => {
                let loc = MemLoc {
                    space: MemSpace::Heap,
                    node: task(t).node,
                    object: NameId(u32::from(object)),
                    key: None,
                };
                let kind = if write {
                    OpKind::MemWrite { loc, value: None }
                } else {
                    OpKind::MemRead { loc, value: None }
                };
                records.push(rec(&mut seq, task(t), ExecCtx::Regular, kind));
            }
            Op::SpawnPair { parent, child } => {
                let child_task = task(child.wrapping_add(100));
                records.push(rec(
                    &mut seq,
                    task(parent),
                    ExecCtx::Regular,
                    OpKind::ThreadCreate { child: child_task },
                ));
                tail.push(rec(
                    &mut seq,
                    child_task,
                    ExecCtx::Regular,
                    OpKind::ThreadBegin,
                ));
            }
            Op::EventPair { producer, worker } => {
                let e = EventId(next_id);
                next_id += 1;
                records.push(rec(
                    &mut seq,
                    task(producer),
                    ExecCtx::Regular,
                    OpKind::EventCreate { event: e },
                ));
                let ctx = ExecCtx::Handler {
                    kind: HandlerKind::Event,
                    instance: e.0,
                };
                tail.push(rec(
                    &mut seq,
                    task(worker.wrapping_add(50)),
                    ctx,
                    OpKind::EventBegin { event: e },
                ));
                tail.push(rec(
                    &mut seq,
                    task(worker.wrapping_add(50)),
                    ctx,
                    OpKind::EventEnd { event: e },
                ));
                if !queue_registered {
                    trace.register_queue(NodeId(0), "q", QueueInfo { consumers: 1 });
                    queue_registered = true;
                }
                trace.register_event(e.0, NodeId(0), "q");
            }
            Op::RpcPair { caller, worker } => {
                let r = RpcId(next_id);
                next_id += 1;
                records.push(rec(
                    &mut seq,
                    task(caller),
                    ExecCtx::Regular,
                    OpKind::RpcCreate { rpc: r },
                ));
                let ctx = ExecCtx::Handler {
                    kind: HandlerKind::Rpc,
                    instance: r.0,
                };
                tail.push(rec(
                    &mut seq,
                    task(worker.wrapping_add(70)),
                    ctx,
                    OpKind::RpcBegin { rpc: r },
                ));
                tail.push(rec(
                    &mut seq,
                    task(worker.wrapping_add(70)),
                    ctx,
                    OpKind::RpcEnd { rpc: r },
                ));
            }
            Op::SocketPair { sender, handler } => {
                let m = MsgId(next_id);
                next_id += 1;
                records.push(rec(
                    &mut seq,
                    task(sender),
                    ExecCtx::Regular,
                    OpKind::SocketSend { msg: m },
                ));
                let ctx = ExecCtx::Handler {
                    kind: HandlerKind::Socket,
                    instance: m.0,
                };
                tail.push(rec(
                    &mut seq,
                    task(handler.wrapping_add(90)),
                    ctx,
                    OpKind::SocketRecv { msg: m },
                ));
            }
        }
    }
    // re-sequence the tail after the main body
    for mut r in records.into_iter().chain(tail) {
        let stmt = StmtId {
            func: FuncId(r.task.index),
            idx: r.seq as u32,
        };
        r.stack = trace.names_mut().stack_of(&[stmt]);
        r.seq = trace.len() as u64;
        trace.push(r);
    }
    trace
}

/// Naive transitive closure by DFS over the edge lists.
fn dfs_closure(hb: &HbAnalysis) -> Vec<Vec<bool>> {
    let n = hb.vertex_count();
    let mut out = vec![vec![false; n]; n];
    for (start, row) in out.iter_mut().enumerate() {
        let mut stack: Vec<usize> = hb.successors(start).map(|(t, _)| t).collect();
        while let Some(v) = stack.pop() {
            if !row[v] {
                row[v] = true;
                stack.extend(hb.successors(v).map(|(t, _)| t));
            }
        }
    }
    out
}

/// The constant-time bit-matrix queries agree with ground-truth DFS.
#[test]
fn reachability_matches_dfs_closure() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xB17 ^ case);
        let trace = build_trace(&arb_ops(&mut rng, 40));
        let hb = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
        let truth = dfs_closure(&hb);
        for (a, row) in truth.iter().enumerate() {
            for (b, &reachable) in row.iter().enumerate() {
                assert_eq!(
                    hb.happens_before(a, b),
                    a != b && reachable,
                    "case {case}: hb({a}, {b}) mismatch"
                );
            }
        }
    }
}

/// Concurrency is symmetric, irreflexive, and exclusive with ordering.
#[test]
fn concurrency_laws() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xC02 ^ case);
        let trace = build_trace(&arb_ops(&mut rng, 40));
        let hb = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
        let n = hb.vertex_count();
        for a in 0..n {
            assert!(!hb.concurrent(a, a), "case {case}");
            for b in 0..n {
                assert_eq!(hb.concurrent(a, b), hb.concurrent(b, a), "case {case}");
                if hb.happens_before(a, b) || hb.happens_before(b, a) {
                    assert!(!hb.concurrent(a, b), "case {case}");
                }
            }
        }
    }
}

/// Every HB edge points forward in sequence order (the DAG invariant
/// the reverse reachability sweep relies on).
#[test]
fn edges_are_seq_monotone() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5E9 ^ case);
        let trace = build_trace(&arb_ops(&mut rng, 40));
        let hb = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
        for v in 0..hb.vertex_count() {
            for (s, _) in hb.successors(v) {
                assert!(
                    hb.trace().records()[v].seq <= hb.trace().records()[s].seq,
                    "case {case}"
                );
            }
        }
    }
}

/// Ablations only manipulate the targeted record category: the `None`
/// ablation is the identity, and every ablation yields a sub-multiset
/// of the records.
#[test]
fn ablations_shrink_traces() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xAB1A ^ case);
        let trace = build_trace(&arb_ops(&mut rng, 40));
        let full = apply_ablation(trace.clone(), Ablation::None);
        assert_eq!(full.records().len(), trace.records().len(), "case {case}");
        for a in Ablation::TABLE9 {
            let ablated = apply_ablation(trace.clone(), a);
            assert!(ablated.len() <= trace.len(), "case {case}");
        }
    }
}

/// `explain` returns a genuine chain: consecutive hops are edges and it
/// connects a to b.
#[test]
fn explain_returns_valid_chains() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xE59 ^ case);
        let trace = build_trace(&arb_ops(&mut rng, 30));
        let hb = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
        let n = hb.vertex_count();
        for a in 0..n.min(10) {
            for b in 0..n.min(10) {
                if let Some(chain) = hb.explain(a, b) {
                    assert!(hb.happens_before(a, b), "case {case}");
                    let mut cur = a;
                    for (next, _) in chain {
                        assert!(
                            hb.successors(cur).any(|(t, _)| t == next),
                            "case {case}: hop {cur} -> {next} is not an edge"
                        );
                        cur = next;
                    }
                    assert_eq!(cur, b, "case {case}");
                }
            }
        }
    }
}

/// `ops` with 1 to 3 runs of 4 to 15 accesses by one task spliced in at
/// random places: long program-order runs, whose records the clock index
/// keeps as shares of one row.
fn with_runs(rng: &mut SmallRng, mut ops: Vec<Op>) -> Vec<Op> {
    for _ in 0..1 + rng.gen_range(3) {
        let at = rng.gen_range(ops.len() + 1);
        let task = rng.gen_range(6) as u8;
        let run = (0..4 + rng.gen_range(12)).map(|i| Op::Access {
            task,
            object: (i % 4) as u8,
            write: i % 2 == 0,
        });
        ops.splice(at..at, run);
    }
    ops
}

/// `(head, end)` of every run of at least three consecutive records of
/// one task and context.
fn program_order_runs(trace: &TraceSet) -> Vec<(usize, usize)> {
    let records = trace.records();
    let mut runs = Vec::new();
    let mut head = 0;
    for v in 1..=records.len() {
        let same = |r: &Record| (r.task, r.ctx) == (records[head].task, records[head].ctx);
        if records.get(v).is_none_or(|r| !same(r)) {
            if v - head >= 3 {
                runs.push((head, v - 1));
            }
            head = v;
        }
    }
    runs
}

/// The chain-decomposition clock engine answers every `happens_before`
/// and `concurrent` query exactly like the bit matrix, on arbitrary
/// well-formed traces with long program-order runs — including after
/// loop-sync edges go in through `add_edges`: edges into the head, the
/// middle and the end of each run, whose records share one clock row,
/// then interleaved random ones. This is the equivalence property the
/// `auto` engine selection rests on.
#[test]
fn chain_clocks_agree_with_bit_matrix() {
    let cases = if std::env::var_os("DCATCH_SOAK").is_some() {
        192
    } else {
        48
    };
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(0xC1A5 ^ case);
        let ops = arb_ops(&mut rng, 40);
        let trace = build_trace(&with_runs(&mut rng, ops));
        let runs = program_order_runs(&trace);
        let cfg = |mode| HbConfig {
            reachability: mode,
            ..HbConfig::default()
        };
        let mut matrix = HbAnalysis::build(trace.clone(), &cfg(ReachabilityMode::Matrix)).unwrap();
        let mut clocks = HbAnalysis::build(trace, &cfg(ReachabilityMode::Clocks)).unwrap();
        assert_eq!(matrix.reachability(), ReachabilityMode::Matrix);
        assert_eq!(clocks.reachability(), ReachabilityMode::Clocks);
        let n = matrix.vertex_count();
        let check = |matrix: &HbAnalysis, clocks: &HbAnalysis, stage: &str| {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        matrix.happens_before(a, b),
                        clocks.happens_before(a, b),
                        "case {case} {stage}: engines disagree on hb({a}, {b})"
                    );
                    assert_eq!(
                        matrix.concurrent(a, b),
                        clocks.concurrent(a, b),
                        "case {case} {stage}: engines disagree on concurrent({a}, {b})"
                    );
                }
            }
        };
        check(&matrix, &clocks, "after build");
        // grow both graphs identically, one edge into each part of each run
        // from a record before it
        for &(head, end) in runs.iter().filter(|&&(head, _)| head > 0) {
            for target in [head, (head + end) / 2, end] {
                let edge = [(rng.gen_range(head), target)];
                matrix.add_edges(&edge);
                clocks.add_edges(&edge);
                check(&matrix, &clocks, &format!("after edge {edge:?}"));
            }
        }
        for round in 0..3 {
            if n < 2 {
                break;
            }
            let extra: Vec<(usize, usize)> = (0..1 + rng.gen_range(4))
                .map(|_| (rng.gen_range(n), rng.gen_range(n)))
                .filter(|(u, v)| u != v)
                .collect();
            matrix.add_edges(&extra);
            clocks.add_edges(&extra);
            check(&matrix, &clocks, &format!("after growth round {round}"));
        }
    }
}

/// Loop-sync edges keep the answers exact and the index as built: after
/// random forward edges go in through `add_edges`, `happens_before` is
/// still the DFS closure over `successors` — what a build from scratch
/// over the grown edge set would answer — and `reach_bytes` has not moved,
/// under both engines.
#[test]
fn loop_sync_edges_match_dfs_closure() {
    for case in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(0x1BC4 ^ case);
        let trace = build_trace(&arb_ops(&mut rng, 40));
        let n = trace.len();
        if n < 2 {
            continue;
        }
        let rounds: Vec<Vec<(usize, usize)>> = (0..4)
            .map(|_| {
                (0..1 + rng.gen_range(6))
                    .map(|_| {
                        let u = rng.gen_range(n - 1);
                        (u, u + 1 + rng.gen_range(n - u - 1))
                    })
                    .collect()
            })
            .collect();
        for mode in [ReachabilityMode::Matrix, ReachabilityMode::Clocks] {
            let cfg = HbConfig {
                reachability: mode,
                ..HbConfig::default()
            };
            let mut hb = HbAnalysis::build(trace.clone(), &cfg).unwrap();
            let bytes = hb.reach_bytes();
            for (round, extra) in rounds.iter().enumerate() {
                hb.add_edges(extra);
                assert_eq!(
                    hb.reach_bytes(),
                    bytes,
                    "case {case} round {round} ({mode}): the index moved"
                );
                let truth = dfs_closure(&hb);
                for (a, row) in truth.iter().enumerate() {
                    for (b, &reachable) in row.iter().enumerate() {
                        assert_eq!(
                            hb.happens_before(a, b),
                            a != b && reachable,
                            "case {case} round {round} ({mode}): hb({a}, {b}) mismatch"
                        );
                    }
                }
            }
        }
    }
}

/// The slot invariant the clocks rest on: every slot is an HB-ordered
/// chain — slots open in order, positions count up from 1, and each record
/// is ordered, in the DFS closure of the edges the graph lists, after the
/// one before it in the slot.
#[test]
fn slots_are_hb_chains() {
    let mut shared = 0;
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5107 ^ case);
        let trace = build_trace(&arb_ops(&mut rng, 40));
        let cfg = HbConfig {
            reachability: ReachabilityMode::Clocks,
            ..HbConfig::default()
        };
        let hb = HbAnalysis::build(trace.clone(), &cfg).unwrap();
        let truth = dfs_closure(&hb);
        let mut tails: Vec<(usize, u32)> = Vec::new();
        for (v, r) in trace.records().iter().enumerate() {
            let (slot, pos) = hb.slot_of(v);
            match tails.get_mut(slot as usize) {
                Some((u, p)) => {
                    assert_eq!(pos, *p + 1, "case {case}: slot {slot} skips at {v}");
                    assert!(truth[*u][v], "case {case}: slot {slot}: {u} ⇏ {v}");
                    shared += usize::from(trace.records()[*u].task != r.task);
                    (*u, *p) = (v, pos);
                }
                None => {
                    assert_eq!((slot as usize, pos), (tails.len(), 1), "case {case}");
                    tails.push((v, pos));
                }
            }
        }
    }
    assert!(shared > 100, "only {shared} slot links cross tasks");
}
