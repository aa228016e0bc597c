//! Request-point placement analysis (paper §5.2).
//!
//! Naively putting `request` right before the racing accesses can hang the
//! system under test:
//!
//! 1. holding an event handler of a single-consumer queue starves every
//!    later event of that queue (including the other party's) — move the
//!    request to the corresponding *enqueue* site;
//! 2. holding an RPC function executed by the same handler thread as the
//!    other party's RPC starves it — move the request to the RPC *callers*;
//! 3. holding inside a lock critical section that the other party also
//!    needs deadlocks — move the request *before the critical section*;
//! 4. racing instructions executed under the same callstack many times
//!    flood the controller — move the request along the happens-before
//!    graph to a causally preceding operation *on a different node* with
//!    few dynamic instances.

use std::collections::BTreeMap;

use dcatch_detect::Candidate;
use dcatch_hb::HbAnalysis;
use dcatch_model::NodeId;
use dcatch_trace::{ExecCtx, HandlerKind, OpKind, TraceSet};

use crate::controller::SideSpec;

/// Which §5.2 rules fired for a side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementRule {
    /// Request directly before the racing access.
    Direct,
    /// Moved to the event-enqueue site (rule 1).
    EnqueueSite,
    /// Moved to the RPC caller (rule 2).
    RpcCaller,
    /// Moved before the enclosing critical section (rule 3).
    CriticalSectionEntry,
    /// Moved along the HB graph to a remote causal ancestor (rule 4).
    RemoteAncestor,
}

/// The placement decision for one candidate.
#[derive(Debug, Clone)]
pub struct TriggerPlan {
    /// Request/confirm specification per side.
    pub sides: [SideSpec; 2],
    /// Rules applied per side (in application order).
    pub rules: [Vec<PlacementRule>; 2],
}

impl TriggerPlan {
    /// The naive plan: request right before each racing access.
    pub fn direct(candidate: &Candidate) -> TriggerPlan {
        let spec = |s: &dcatch_detect::AccessSite| SideSpec {
            stmt: s.stmt,
            instance: 1,
            access: s.stmt,
        };
        TriggerPlan {
            sides: [spec(&candidate.rep.0), spec(&candidate.rep.1)],
            rules: [vec![PlacementRule::Direct], vec![PlacementRule::Direct]],
        }
    }

    /// Whether this plan is the naive direct plan.
    pub fn is_direct(&self) -> bool {
        self.rules.iter().all(|r| r == &vec![PlacementRule::Direct])
    }
}

/// How many dynamic instances of a request point are considered "too many"
/// (rule 4).
const INSTANCE_THRESHOLD: usize = 3;

/// Computes the §5.2 placement for `candidate` against the traced run.
pub fn plan_candidate(candidate: &Candidate, hb: &HbAnalysis) -> TriggerPlan {
    let trace = hb.trace();
    let mut anchors = [candidate.rep.0.index, candidate.rep.1.index];
    let mut rules: [Vec<PlacementRule>; 2] = [Vec::new(), Vec::new()];

    // rule 1: both in event handlers of the same single-consumer queue
    let ev0 = event_of(trace, anchors[0]);
    let ev1 = event_of(trace, anchors[1]);
    if let (Some(e0), Some(e1)) = (&ev0, &ev1) {
        if e0.queue == e1.queue {
            let single = trace
                .queue_info(e0.queue.0, &e0.queue.1)
                .is_some_and(|q| q.is_single_consumer());
            if single {
                if let (Some(c0), Some(c1)) = (e0.create_idx, e1.create_idx) {
                    anchors = [c0, c1];
                    rules[0].push(PlacementRule::EnqueueSite);
                    rules[1].push(PlacementRule::EnqueueSite);
                }
            }
        }
    }

    // rule 2: both in handlers executed by the same worker thread — RPC
    // functions (paper case), socket messages, or watcher notifications;
    // holding one would starve the other. Move to the causally preceding
    // operation on the other side (RPC caller / socket sender / zk update).
    if rules[0].is_empty() {
        let same_worker = trace.records()[anchors[0]].task == trace.records()[anchors[1]].task
            && trace.records()[anchors[0]].ctx != trace.records()[anchors[1]].ctx;
        if same_worker {
            let sites = [
                handler_origin(trace, anchors[0]),
                handler_origin(trace, anchors[1]),
            ];
            if let [Some(c0), Some(c1)] = sites {
                anchors = [c0, c1];
                rules[0].push(PlacementRule::RpcCaller);
                rules[1].push(PlacementRule::RpcCaller);
            }
        }
    }

    // rule 3: common lock around the (possibly moved) anchors
    let locks0 = held_locks(trace, anchors[0]);
    let locks1 = held_locks(trace, anchors[1]);
    let common: Vec<&(NodeId, &str)> = locks0.keys().filter(|l| locks1.contains_key(*l)).collect();
    if let Some(lock) = common.first() {
        let a0 = locks0[*lock];
        let a1 = locks1[*lock];
        anchors = [a0, a1];
        rules[0].push(PlacementRule::CriticalSectionEntry);
        rules[1].push(PlacementRule::CriticalSectionEntry);
    }

    // rule 4: too many dynamic instances → move to a remote causal ancestor
    for (i, anchor) in anchors.iter_mut().enumerate() {
        if occurrence_count(trace, *anchor) > INSTANCE_THRESHOLD {
            if let Some(better) = remote_ancestor(hb, *anchor) {
                *anchor = better;
                rules[i].push(PlacementRule::RemoteAncestor);
            }
        }
    }

    let side = |i: usize, access: &dcatch_detect::AccessSite| {
        let anchor = &trace.records()[anchors[i]];
        let stmt = trace.names().leaf(anchor.stack).unwrap_or(access.stmt);
        SideSpec {
            stmt,
            instance: 1,
            access: access.stmt,
        }
    };
    for r in &mut rules {
        if r.is_empty() {
            r.push(PlacementRule::Direct);
        }
    }
    TriggerPlan {
        sides: [side(0, &candidate.rep.0), side(1, &candidate.rep.1)],
        rules,
    }
}

// ---------------------------------------------------------------------------
// trace inspection helpers

struct EventInfo {
    queue: (NodeId, String),
    create_idx: Option<usize>,
}

/// If the record executes inside an event handler, its event identity and
/// enqueue site.
fn event_of(trace: &TraceSet, idx: usize) -> Option<EventInfo> {
    let r = &trace.records()[idx];
    let ExecCtx::Handler {
        kind: HandlerKind::Event,
        ..
    } = r.ctx
    else {
        return None;
    };
    // the EventBegin of this handler instance: same task + same ctx
    let begin = trace.records()[..=idx].iter().rev().find(|c| {
        c.task == r.task && c.ctx == r.ctx && matches!(c.kind, OpKind::EventBegin { .. })
    })?;
    let OpKind::EventBegin { event } = begin.kind else {
        unreachable!("matched above");
    };
    let (node, queue) = trace.event_queue(event.0)?;
    let create_idx =
        trace.find(|c| matches!(c.kind, OpKind::EventCreate { event: e } if e == event));
    Some(EventInfo {
        queue: (*node, queue.to_owned()),
        create_idx,
    })
}

/// For a record inside an RPC/socket/watcher handler, the record of the
/// operation that *caused* the handler instance: the `RpcCreate` at the
/// caller, the `SocketSend` at the sender, or the `ZkUpdate` that fired
/// the notification.
fn handler_origin(trace: &TraceSet, idx: usize) -> Option<usize> {
    let r = &trace.records()[idx];
    let ExecCtx::Handler { kind, .. } = r.ctx else {
        return None;
    };
    let same_instance = |c: &dcatch_trace::Record| c.task == r.task && c.ctx == r.ctx;
    match kind {
        HandlerKind::Rpc => {
            let begin = trace.records()[..=idx]
                .iter()
                .rev()
                .find(|c| same_instance(c) && matches!(c.kind, OpKind::RpcBegin { .. }))?;
            let OpKind::RpcBegin { rpc } = begin.kind else {
                unreachable!("matched above");
            };
            trace.find(|c| matches!(c.kind, OpKind::RpcCreate { rpc: x } if x == rpc))
        }
        HandlerKind::Socket => {
            let recv = trace.records()[..=idx]
                .iter()
                .rev()
                .find(|c| same_instance(c) && matches!(c.kind, OpKind::SocketRecv { .. }))?;
            let OpKind::SocketRecv { msg } = recv.kind else {
                unreachable!("matched above");
            };
            trace.find(|c| matches!(c.kind, OpKind::SocketSend { msg: m } if m == msg))
        }
        HandlerKind::ZkWatcher => {
            let pushed = trace.records()[..=idx]
                .iter()
                .rev()
                .find(|c| same_instance(c) && matches!(c.kind, OpKind::ZkPushed { .. }))?;
            let OpKind::ZkPushed { path, version } = pushed.kind else {
                unreachable!("matched above");
            };
            trace.find(|c| c.kind == OpKind::ZkUpdate { path, version })
        }
        HandlerKind::Event => None,
    }
}

/// Dynamic instances of the same *operation* as the record at `idx`:
/// same statement and same record kind (different record kinds — e.g. a
/// handler's first statement and the `SocketRecv` marking its dispatch —
/// can share a callstack leaf).
fn occurrence_count(trace: &TraceSet, idx: usize) -> usize {
    let anchor = &trace.records()[idx];
    let names = trace.names();
    let Some(stmt) = names.leaf(anchor.stack) else {
        return 1;
    };
    let tag = anchor.kind.tag();
    trace.count(|r| r.kind.tag() == tag && names.leaf(r.stack) == Some(stmt))
}

/// Locks held by the record's task at the record, by node and name (the
/// order the first common one is picked in), mapped to the index of the
/// currently open acquire record.
fn held_locks(trace: &TraceSet, idx: usize) -> BTreeMap<(NodeId, &str), usize> {
    let task = trace.records()[idx].task;
    let name = |node, id| (node, trace.names().name(id));
    let mut held = BTreeMap::new();
    for (i, r) in trace.records()[..idx].iter().enumerate() {
        if r.task != task {
            continue;
        }
        match r.kind {
            OpKind::LockAcquire { lock } => {
                held.insert(name(lock.node, lock.name), i);
            }
            OpKind::LockRelease { lock } => {
                held.remove(&name(lock.node, lock.name));
            }
            _ => {}
        }
    }
    held
}

/// Walks HB predecessors of `idx` looking for a record on a different node
/// whose statement has few dynamic instances.
fn remote_ancestor(hb: &HbAnalysis, idx: usize) -> Option<usize> {
    let trace = hb.trace();
    let node = trace.records()[idx].task.node;
    let mut frontier = vec![idx];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(v) = frontier.pop() {
        for (p, _) in hb.predecessors(v) {
            if !seen.insert(p) {
                continue;
            }
            let r = &trace.records()[p];
            if r.task.node != node
                && r.stack != dcatch_trace::StackId::EMPTY
                && occurrence_count(trace, p) <= INSTANCE_THRESHOLD
            {
                return Some(p);
            }
            frontier.push(p);
        }
    }
    None
}
