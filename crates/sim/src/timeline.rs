//! Causal timeline export: renders one simulated execution as a
//! Chrome/Perfetto trace-event document (`dcatch timeline <ID>`).
//!
//! Lane mapping: one viewer *process* per simulated node (`pid` is the
//! node id plus one, named `n0`, `n1`…) and one *thread* lane per task of that node
//! (`tid = task index`, named `n0.t1`). Timestamps are **logical** — the
//! trace record's global sequence number, shown as microseconds — so the
//! document is a pure function of the trace: same seed, same bytes.
//!
//! What lands on the lanes:
//!
//! * handler executions (`Begin`/`End` of events, RPCs, sockets, watcher
//!   callbacks via their records' pairing ids), retry-loop activations
//!   (`LoopEnter`/`LoopExit`), and lock critical sections become
//!   **duration slices**;
//! * memory accesses and ZooKeeper updates become **instant markers**;
//! * every cross-task causality the HB model knows — thread fork/join,
//!   event enqueue → handler, RPC call/return, socket send → receive,
//!   zk update → watcher push — becomes a **flow arrow**, drawn between
//!   thin anchor slices at its two endpoints;
//! * fault injections (`NodeCrash`/`NodeRestart`/`RpcTimeout`) become
//!   process-scoped instant markers in the `fault` category.
//!
//! Message sends whose receipt never happened (dropped by a fault plan,
//! or still in flight at quiescence) get an anchor slice but no arrow —
//! flows are only emitted for *matched* pairs, which is what keeps every
//! flow begin paired with exactly one end.

use std::collections::BTreeMap;

use dcatch_obs::timeline::Timeline;
use dcatch_trace::{LockRef, Names, OpKind, Record, TaskId, TraceSet};

/// Width of the thin anchor slice drawn under point operations so flow
/// arrows have something to bind to in the viewer.
const ANCHOR_DUR: u64 = 1;

/// Builds the timeline of one traced run. Deterministic: the output is a
/// pure function of the trace contents.
pub fn trace_timeline(trace: &TraceSet) -> Timeline {
    let mut tl = Timeline::new();
    for task in trace.tasks() {
        tl.process(pid(task), &format!("n{}", task.node.0));
        tl.thread(pid(task), tid(task), &task.to_string());
    }

    // First pass: where does each pairing id begin/end? Keyed maps from
    // the records' own ids, filled in sequence order.
    let mut points = Points::default();
    for (i, r) in trace.records().iter().enumerate() {
        points.index(i, r, trace.names());
    }

    // Second pass: emit lane content.
    let names = trace.names();
    let name = |id| names.name(id);
    let lock = |l: &LockRef| format!("lock {}:{}", l.node, name(l.name));
    let mut open: BTreeMap<(TaskId, String), u64> = BTreeMap::new();
    for r in trace.records() {
        let (p, t, ts) = at(r);
        match &r.kind {
            // ---- duration slices: Begin/End pairs within one task ----
            OpKind::EventBegin { event } => open_slice(&mut open, r, format!("e{}", event.0)),
            OpKind::EventEnd { event } => {
                close_slice(&mut tl, &mut open, r, format!("e{}", event.0), "event");
            }
            OpKind::RpcBegin { rpc } => open_slice(&mut open, r, format!("r{}", rpc.0)),
            OpKind::RpcEnd { rpc } => {
                close_slice(&mut tl, &mut open, r, format!("r{}", rpc.0), "rpc");
            }
            OpKind::LoopEnter { loop_id } => {
                open_slice(&mut open, r, format!("loop L{}", loop_id.0))
            }
            OpKind::LoopExit { loop_id } => {
                close_slice(
                    &mut tl,
                    &mut open,
                    r,
                    format!("loop L{}", loop_id.0),
                    "loop",
                );
            }
            OpKind::LockAcquire { lock: l } => open_slice(&mut open, r, lock(l)),
            OpKind::LockRelease { lock: l } => {
                close_slice(&mut tl, &mut open, r, lock(l), "lock");
            }

            // ---- instant markers ----
            OpKind::MemRead { loc, .. } => {
                let loc = names.location(loc);
                tl.instant(p, t, "mem", &format!("rd {loc}"), ts);
            }
            OpKind::MemWrite { loc, .. } => {
                let loc = names.location(loc);
                tl.instant(p, t, "mem", &format!("wr {loc}"), ts);
            }
            OpKind::ZkUpdate { path, version } => {
                let path = name(*path);
                tl.instant(p, t, "zk", &format!("zu {path}@{version}"), ts);
            }
            OpKind::NodeCrash { node } => {
                tl.instant_scoped(p, t, "fault", &format!("CRASH n{}", node.0), ts, 'p');
            }
            OpKind::NodeRestart { node } => {
                tl.instant_scoped(p, t, "fault", &format!("RESTART n{}", node.0), ts, 'p');
            }
            OpKind::RpcTimeout { rpc } => {
                tl.instant_scoped(p, t, "fault", &format!("TIMEOUT r{}", rpc.0), ts, 'p');
            }

            // ---- flow anchors: thin slices at communication points ----
            OpKind::ThreadCreate { child } => anchor(&mut tl, r, &format!("spawn {child}")),
            OpKind::ThreadBegin => anchor(&mut tl, r, "begin"),
            OpKind::ThreadEnd => anchor(&mut tl, r, "end"),
            OpKind::ThreadJoin { child } => anchor(&mut tl, r, &format!("join {child}")),
            OpKind::EventCreate { event } => anchor(&mut tl, r, &format!("enq e{}", event.0)),
            OpKind::RpcCreate { rpc } => anchor(&mut tl, r, &format!("call r{}", rpc.0)),
            OpKind::RpcJoin { rpc } => anchor(&mut tl, r, &format!("ret r{}", rpc.0)),
            OpKind::SocketSend { msg } => anchor(&mut tl, r, &format!("send m{}", msg.0)),
            OpKind::SocketRecv { msg } => anchor(&mut tl, r, &format!("recv m{}", msg.0)),
            OpKind::ZkPushed { path, version } => {
                let path = name(*path);
                anchor(&mut tl, r, &format!("zp {path}@{version}"));
            }
        }
    }

    points.emit_flows(&mut tl, trace);
    tl
}

fn pid(task: TaskId) -> u64 {
    // the viewer treats pid 0 as "idle"; shift node ids up by one
    u64::from(task.node.0) + 1
}

fn tid(task: TaskId) -> u64 {
    u64::from(task.index)
}

/// `(pid, tid, ts)` of a record.
fn at(r: &Record) -> (u64, u64, u64) {
    (pid(r.task), tid(r.task), r.seq)
}

fn open_slice(open: &mut BTreeMap<(TaskId, String), u64>, r: &Record, key: String) {
    open.insert((r.task, key), r.seq);
}

fn close_slice(
    tl: &mut Timeline,
    open: &mut BTreeMap<(TaskId, String), u64>,
    r: &Record,
    key: String,
    cat: &str,
) {
    let (p, t, ts) = at(r);
    match open.remove(&(r.task, key.clone())) {
        Some(begin) => tl.complete(p, t, cat, &key, begin, ts.saturating_sub(begin)),
        // an End without its Begin (e.g. ablated trace): degrade to a point
        None => tl.complete(p, t, cat, &key, ts, ANCHOR_DUR),
    }
}

/// A thin anchor slice so flow arrows at this point bind to something.
fn anchor(tl: &mut Timeline, r: &Record, name: &str) {
    let (p, t, ts) = at(r);
    tl.complete(p, t, "comm", name, ts, ANCHOR_DUR);
}

/// Per-mechanism begin/end points of every cross-task causality in the
/// trace, collected in one pass and turned into flow arrows only where
/// both sides exist.
#[derive(Default)]
struct Points {
    /// spawned task → (create index, begin index)
    thread_fork: BTreeMap<TaskId, (Option<usize>, Option<usize>)>,
    /// joined task → (end index, join index)
    thread_join: BTreeMap<TaskId, (Option<usize>, Option<usize>)>,
    /// event id → (create index, begin index)
    event: BTreeMap<u64, (Option<usize>, Option<usize>)>,
    /// rpc id → (create index, begin index)
    rpc_call: BTreeMap<u64, (Option<usize>, Option<usize>)>,
    /// rpc id → (end index, join index)
    rpc_ret: BTreeMap<u64, (Option<usize>, Option<usize>)>,
    /// msg id → (send index, recv index)
    socket: BTreeMap<u64, (Option<usize>, Option<usize>)>,
    /// (path, version) → (update index, push indices) — one update may
    /// notify many watchers, each getting its own arrow; in path order
    zk: BTreeMap<(String, u64), (Option<usize>, Vec<usize>)>,
}

impl Points {
    fn index(&mut self, i: usize, r: &Record, names: &Names) {
        match &r.kind {
            OpKind::ThreadCreate { child } => {
                self.thread_fork.entry(*child).or_default().0 = Some(i);
            }
            OpKind::ThreadBegin => {
                self.thread_fork
                    .entry(r.task)
                    .or_default()
                    .1
                    .get_or_insert(i);
            }
            OpKind::ThreadEnd => {
                self.thread_join.entry(r.task).or_default().0 = Some(i);
            }
            OpKind::ThreadJoin { child } => {
                self.thread_join.entry(*child).or_default().1 = Some(i);
            }
            OpKind::EventCreate { event } => {
                self.event.entry(event.0).or_default().0 = Some(i);
            }
            OpKind::EventBegin { event } => {
                self.event.entry(event.0).or_default().1 = Some(i);
            }
            OpKind::RpcCreate { rpc } => {
                self.rpc_call.entry(rpc.0).or_default().0 = Some(i);
            }
            OpKind::RpcBegin { rpc } => {
                self.rpc_call.entry(rpc.0).or_default().1 = Some(i);
            }
            OpKind::RpcEnd { rpc } => {
                self.rpc_ret.entry(rpc.0).or_default().0 = Some(i);
            }
            OpKind::RpcJoin { rpc } => {
                self.rpc_ret.entry(rpc.0).or_default().1 = Some(i);
            }
            OpKind::SocketSend { msg } => {
                self.socket.entry(msg.0).or_default().0 = Some(i);
            }
            OpKind::SocketRecv { msg } => {
                self.socket.entry(msg.0).or_default().1 = Some(i);
            }
            OpKind::ZkUpdate { path, version } => {
                let path = names.name(*path).to_owned();
                self.zk.entry((path, *version)).or_default().0 = Some(i);
            }
            OpKind::ZkPushed { path, version } => {
                self.zk
                    .entry((names.name(*path).to_owned(), *version))
                    .or_default()
                    .1
                    .push(i);
            }
            _ => {}
        }
    }

    fn emit_flows(self, tl: &mut Timeline, trace: &TraceSet) {
        let recs = trace.records();
        // Arrows are emitted in a fixed mechanism order, each map in key
        // order — deterministic flow ids for identical traces.
        let mut arrow = |cat: &str, name: String, from: Option<usize>, to: Option<usize>| {
            if let (Some(a), Some(b)) = (from, to) {
                tl.flow(cat, &name, at(&recs[a]), at(&recs[b]));
            }
        };
        for (task, (c, b)) in self.thread_fork {
            arrow("thread", format!("fork {task}"), c, b);
        }
        for (task, (e, j)) in self.thread_join {
            arrow("thread", format!("join {task}"), e, j);
        }
        for (id, (c, b)) in self.event {
            arrow("event", format!("e{id}"), c, b);
        }
        for (id, (c, b)) in self.rpc_call {
            arrow("rpc", format!("r{id} call"), c, b);
        }
        for (id, (e, j)) in self.rpc_ret {
            arrow("rpc", format!("r{id} return"), e, j);
        }
        for (id, (s, r)) in self.socket {
            arrow("msg", format!("m{id}"), s, r);
        }
        for ((path, version), (update, pushes)) in self.zk {
            for push in pushes {
                arrow("zk", format!("{path}@{version}"), update, Some(push));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Topology, World};
    use dcatch_model::{Expr, FuncKind, ProgramBuilder, Value};

    /// Two nodes exchanging one socket message plus a local write.
    fn messaging_world() -> TraceSet {
        let mut pb = ProgramBuilder::new();
        pb.func("main", &["peer"], FuncKind::Regular, |b| {
            b.write("x", Expr::val(1));
            b.socket_send(Expr::local("peer"), "ping", vec![]);
        });
        pb.func("ping", &[], FuncKind::SocketHandler, |b| {
            b.write("y", Expr::val(2));
        });
        let program = pb.build().unwrap();
        let mut topo = Topology::new();
        let peer = topo.node("peer").id();
        topo.node("a").entry("main", vec![Value::Node(peer)]);
        World::run_once(&program, &topo, SimConfig::default())
            .unwrap()
            .trace
    }

    #[test]
    fn lanes_slices_and_flows_are_emitted() {
        let trace = messaging_world();
        let tl = trace_timeline(&trace);
        let doc = tl.to_json();
        let summary = dcatch_obs::timeline::validate(&doc).expect("valid timeline");
        assert!(summary.events > 0);
        assert!(summary.flows >= 1, "the socket message draws an arrow");
        let text = doc.to_pretty();
        assert!(text.contains("wr heap:"), "memory instant present");
        assert!(text.contains("send m"), "send anchor present");
        // lane metadata names both nodes
        assert!(text.contains("\"n0\"") && text.contains("\"n1\""));
    }

    #[test]
    fn timeline_is_deterministic_per_seed() {
        let a = trace_timeline(&messaging_world()).to_json().to_pretty();
        let b = trace_timeline(&messaging_world()).to_json().to_pretty();
        assert_eq!(a, b);
    }
}
