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
//!    flood the controller — move the request to a causally preceding
//!    operation *on a different node* with few dynamic instances: the
//!    nearest such cause up the chain of records that caused its context.
//!
//! The rules read only the facts the candidate scan kept of each side
//! ([`AccessSite::anchor`]), so a streamed and a stored run plan alike.

use dcatch_detect::{AccessSite, Anchor, Candidate, FEW_INSTANCES};
use dcatch_trace::{ExecCtx, HandlerKind};

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
    /// Moved up the cause chain to a remote causal ancestor (rule 4).
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
        let spec = |s: &AccessSite| SideSpec {
            stmt: s.stmt,
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

/// Computes the §5.2 placement for `candidate` from the facts the scan
/// kept of its sides ([`AccessSite::anchor`]): each rule moves both
/// request points, or one, from one anchor to another.
pub fn plan_candidate(candidate: &Candidate) -> TriggerPlan {
    let sides = [&candidate.rep.0, &candidate.rep.1];
    let mut anchors = sides.map(|s| &s.anchor);
    // rules 1–3 move both sides
    let mut both = Vec::new();

    // rule 1: both in event handlers of the same single-consumer queue
    let single = |c: &Anchor| c.queue.as_ref().is_some_and(|q| q.1.is_single_consumer());
    if let [Some(c0), Some(c1)] = anchors.map(|a| a.cause.as_deref()) {
        if single(c0) && c0.queue == c1.queue {
            anchors = [c0, c1];
            both.push(PlacementRule::EnqueueSite);
        }
    }

    // rule 2: both in handlers executed by the same worker thread — RPC
    // functions (paper case), socket messages, or watcher notifications;
    // holding one would starve the other. Move to the operation that
    // caused each (RPC caller / socket sender / zk update).
    fn origin(s: &AccessSite) -> Option<&Anchor> {
        match s.ctx {
            ExecCtx::Handler {
                kind: HandlerKind::Rpc | HandlerKind::Socket | HandlerKind::ZkWatcher,
                ..
            } => s.anchor.cause.as_deref(),
            _ => None,
        }
    }
    let same_worker = sides[0].task == sides[1].task && sides[0].ctx != sides[1].ctx;
    if both.is_empty() && same_worker {
        if let [Some(c0), Some(c1)] = sides.map(origin) {
            anchors = [c0, c1];
            both.push(PlacementRule::RpcCaller);
        }
    }

    // rule 3: the first lock, by (node, name), held around both anchors
    let common = anchors[0].locks.iter().find_map(|(lock, a0)| {
        let a1 = anchors[1].locks.iter().find(|(l, _)| l == lock);
        a1.map(|(_, a1)| [a0, a1])
    });
    if let Some(entries) = common {
        anchors = entries;
        both.push(PlacementRule::CriticalSectionEntry);
    }

    // rule 4: too many dynamic instances → move to the nearest cause up
    // the anchor's chain on another node with few
    let mut rules = [both.clone(), both];
    for (anchor, rules) in anchors.iter_mut().zip(&mut rules) {
        if anchor.instances > FEW_INSTANCES {
            let mut chain = std::iter::successors(anchor.cause.as_deref(), |c| c.cause.as_deref());
            let remote = |c: &&Anchor| {
                c.node != anchor.node && c.stmt.is_some() && c.instances <= FEW_INSTANCES
            };
            if let Some(c) = chain.find(remote) {
                *anchor = c;
                rules.push(PlacementRule::RemoteAncestor);
            }
        }
    }

    for r in &mut rules {
        if r.is_empty() {
            r.push(PlacementRule::Direct);
        }
    }
    let side = |i: usize| SideSpec {
        stmt: anchors[i].stmt.unwrap_or(sides[i].stmt),
        access: sides[i].stmt,
    };
    TriggerPlan {
        sides: [side(0), side(1)],
        rules,
    }
}
