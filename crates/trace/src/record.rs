//! Trace records: "each trace record contains (1) type of the recorded
//! operation; (2) callstack; (3) ID" (paper §3.1.2).

use std::fmt;

use dcatch_model::{LoopId, StmtId};

use crate::ids::{EventId, ExecCtx, LockRef, MemLoc, MsgId, RpcId, TaskId};
use crate::names::{NameId, StackId};

/// A callstack, resolved from its [`StackId`]: call-site statement ids from
/// outermost frame inward, ending with the statement of the recorded
/// operation itself.
///
/// Two dynamic accesses with equal callstacks count as the same
/// "callstack pair" entry in the paper's Table 4.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CallStack(pub Vec<StmtId>);

impl fmt::Display for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|s| s.to_string()).collect();
        f.write_str(&parts.join(">"))
    }
}

/// The operation a record describes. The HB-related variants are exactly
/// the rows of the paper's Table 2; memory accesses, lock operations, and
/// loop markers complete the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read of a shared location. `value` is filled only in the focused
    /// value-tracing re-run used by the loop-synchronization analysis
    /// (§3.2.1) and names the value's key form.
    MemRead {
        /// Location read.
        loc: MemLoc,
        /// Observed value (focused re-run only).
        value: Option<NameId>,
    },
    /// Write (or remove) of a shared location.
    MemWrite {
        /// Location written.
        loc: MemLoc,
        /// Stored value (focused re-run only).
        value: Option<NameId>,
    },

    /// `Create(t)` — thread spawn, in the parent.
    ThreadCreate {
        /// The spawned task.
        child: TaskId,
    },
    /// `Begin(t)` — first record of a spawned thread.
    ThreadBegin,
    /// `End(t)` — last record of a thread.
    ThreadEnd,
    /// `Join(t)` — successful join, in the parent.
    ThreadJoin {
        /// The joined task.
        child: TaskId,
    },

    /// `Create(e)` — event enqueue.
    EventCreate {
        /// Event identity.
        event: EventId,
    },
    /// `Begin(e)` — event handler start.
    EventBegin {
        /// Event identity.
        event: EventId,
    },
    /// `End(e)` — event handler finish.
    EventEnd {
        /// Event identity.
        event: EventId,
    },

    /// `Create(r, n1)` — RPC invocation at the caller.
    RpcCreate {
        /// RPC tag.
        rpc: RpcId,
    },
    /// `Begin(r, n2)` — RPC function start at the callee.
    RpcBegin {
        /// RPC tag.
        rpc: RpcId,
    },
    /// `End(r, n2)` — RPC function finish at the callee.
    RpcEnd {
        /// RPC tag.
        rpc: RpcId,
    },
    /// `Join(r, n1)` — RPC return at the caller.
    RpcJoin {
        /// RPC tag.
        rpc: RpcId,
    },

    /// `Send(m, n1)` — socket message send.
    SocketSend {
        /// Message tag.
        msg: MsgId,
    },
    /// `Recv(m, n2)` — socket message receipt (handler start).
    SocketRecv {
        /// Message tag.
        msg: MsgId,
    },

    /// `Update(s, n1)` — ZooKeeper state update
    /// (`create`/`setData`/`delete`).
    ZkUpdate {
        /// zknode path.
        path: NameId,
        /// Monotonic per-path version, pairing updates with notifications.
        version: u64,
    },
    /// `Pushed(s, n2)` — watcher notification delivery.
    ZkPushed {
        /// zknode path.
        path: NameId,
        /// Version this notification reports.
        version: u64,
    },

    /// Lock acquisition (not an HB edge; used by triggering, §5.2).
    LockAcquire {
        /// Lock identity.
        lock: LockRef,
    },
    /// Lock release.
    LockRelease {
        /// Lock identity.
        lock: LockRef,
    },

    /// Entry into a dynamic activation of a (retry) loop.
    LoopEnter {
        /// Static loop identity.
        loop_id: LoopId,
    },
    /// Exit of a dynamic loop activation — the anchor the loop-based
    /// synchronization analysis attaches inferred HB edges to.
    LoopExit {
        /// Static loop identity.
        loop_id: LoopId,
    },

    /// An injected node crash (fault-injection engine). All tasks of the
    /// node stop; everything the node did happens-before this record.
    NodeCrash {
        /// The crashed node.
        node: dcatch_model::NodeId,
    },
    /// An injected node restart after a crash. Everything tasks of the
    /// reborn node do happens-after this record.
    NodeRestart {
        /// The restarted node.
        node: dcatch_model::NodeId,
    },
    /// An injected RPC timeout at the caller: the blocked `RpcJoin` was
    /// abandoned and the call returned an error value instead.
    RpcTimeout {
        /// The timed-out RPC.
        rpc: RpcId,
    },
}

impl OpKind {
    /// Whether this is a memory access (read or write).
    pub fn is_mem(&self) -> bool {
        matches!(self, OpKind::MemRead { .. } | OpKind::MemWrite { .. })
    }

    /// Whether this is a memory write.
    pub fn is_write(&self) -> bool {
        matches!(self, OpKind::MemWrite { .. })
    }

    /// The accessed location, if this is a memory access.
    pub fn mem_loc(&self) -> Option<&MemLoc> {
        match self {
            OpKind::MemRead { loc, .. } | OpKind::MemWrite { loc, .. } => Some(loc),
            _ => None,
        }
    }

    /// The traced value, if this is a memory access from a value-tracing run.
    pub fn mem_value(&self) -> Option<NameId> {
        match self {
            OpKind::MemRead { value, .. } | OpKind::MemWrite { value, .. } => *value,
            _ => None,
        }
    }

    /// Short tag used by the trace file format and stats.
    pub fn tag(&self) -> &'static str {
        match self {
            OpKind::MemRead { .. } => "rd",
            OpKind::MemWrite { .. } => "wr",
            OpKind::ThreadCreate { .. } => "tc",
            OpKind::ThreadBegin => "tb",
            OpKind::ThreadEnd => "te",
            OpKind::ThreadJoin { .. } => "tj",
            OpKind::EventCreate { .. } => "ec",
            OpKind::EventBegin { .. } => "eb",
            OpKind::EventEnd { .. } => "ee",
            OpKind::RpcCreate { .. } => "rc",
            OpKind::RpcBegin { .. } => "rb",
            OpKind::RpcEnd { .. } => "re",
            OpKind::RpcJoin { .. } => "rj",
            OpKind::SocketSend { .. } => "ss",
            OpKind::SocketRecv { .. } => "sr",
            OpKind::ZkUpdate { .. } => "zu",
            OpKind::ZkPushed { .. } => "zp",
            OpKind::LockAcquire { .. } => "la",
            OpKind::LockRelease { .. } => "lr",
            OpKind::LoopEnter { .. } => "ln",
            OpKind::LoopExit { .. } => "lx",
            OpKind::NodeCrash { .. } => "nc",
            OpKind::NodeRestart { .. } => "nr",
            OpKind::RpcTimeout { .. } => "rt",
        }
    }
}

/// One trace record. It owns no heap memory: names and the callstack are
/// ids into the run's [`Names`](crate::Names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Record {
    /// Global sequence number: the deterministic execution order. Every HB
    /// edge points from a smaller to a larger sequence number, which gives
    /// the reachability computation its topological order for free.
    pub seq: u64,
    /// Task that executed the operation.
    pub task: TaskId,
    /// Execution context (regular thread vs. handler instance) — decides
    /// between program-order rules `Preg` and `Pnreg`.
    pub ctx: ExecCtx,
    /// The operation.
    pub kind: OpKind,
    /// Callstack of the operation; its leaf
    /// ([`Names::leaf`](crate::Names::leaf)) is the record's static
    /// identity ("static instruction").
    pub stack: StackId,
}

/// A record is copied, never cloned: the simulator emits it, the sink and
/// the trace take it by value, and nothing of it lives on the heap.
const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<Record>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::{FuncId, NodeId};

    fn sid(f: u32, i: u32) -> StmtId {
        StmtId {
            func: FuncId(f),
            idx: i,
        }
    }

    #[test]
    fn callstack_display() {
        let cs = CallStack(vec![sid(0, 3), sid(2, 1)]);
        assert_eq!(cs.to_string(), "f0:3>f2:1");
        assert_eq!(CallStack::default().to_string(), "");
    }

    #[test]
    fn opkind_classification() {
        let loc = MemLoc {
            space: crate::ids::MemSpace::Heap,
            node: NodeId(0),
            object: NameId(0),
            key: None,
        };
        let r = OpKind::MemRead { loc, value: None };
        let w = OpKind::MemWrite {
            loc,
            value: Some(NameId(5)),
        };
        assert!(r.is_mem() && !r.is_write());
        assert!(w.is_mem() && w.is_write());
        assert_eq!(w.mem_value(), Some(NameId(5)));
        assert!(!OpKind::ThreadBegin.is_mem());
        assert_eq!(OpKind::ThreadBegin.tag(), "tb");
    }
}
