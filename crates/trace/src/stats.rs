//! Trace record breakdown — the rows of the paper's Table 7.

use std::fmt;

use crate::record::{OpKind, Record};

/// Counts of the major record categories in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total records.
    pub total: usize,
    /// Memory accesses (heap + zknode reads/writes).
    pub mem: usize,
    /// RPC-related records (create/begin/end/join).
    pub rpc: usize,
    /// Socket-related records (send/recv).
    pub socket: usize,
    /// Event-related records (create/begin/end).
    pub event: usize,
    /// Thread-related records (create/begin/end/join).
    pub thread: usize,
    /// Lock records (acquire/release).
    pub lock: usize,
    /// ZooKeeper push-synchronization records (update/pushed).
    pub zk: usize,
    /// Loop markers.
    pub loops: usize,
    /// Injected-fault records (node crash/restart, RPC timeout).
    pub faults: usize,
}

impl TraceStats {
    /// Computes the breakdown of `records`.
    pub fn of(records: &[Record]) -> TraceStats {
        let mut s = TraceStats::default();
        for r in records {
            s.add(r);
        }
        s
    }

    /// Folds one record into the breakdown (the streaming-mode increment;
    /// `of` is a fold of `add` over the whole slice).
    pub fn add(&mut self, r: &Record) {
        self.total += 1;
        match &r.kind {
            OpKind::MemRead { .. } | OpKind::MemWrite { .. } => self.mem += 1,
            OpKind::RpcCreate { .. }
            | OpKind::RpcBegin { .. }
            | OpKind::RpcEnd { .. }
            | OpKind::RpcJoin { .. } => self.rpc += 1,
            OpKind::SocketSend { .. } | OpKind::SocketRecv { .. } => self.socket += 1,
            OpKind::EventCreate { .. } | OpKind::EventBegin { .. } | OpKind::EventEnd { .. } => {
                self.event += 1;
            }
            OpKind::ThreadCreate { .. }
            | OpKind::ThreadBegin
            | OpKind::ThreadEnd
            | OpKind::ThreadJoin { .. } => self.thread += 1,
            OpKind::LockAcquire { .. } | OpKind::LockRelease { .. } => self.lock += 1,
            OpKind::ZkUpdate { .. } | OpKind::ZkPushed { .. } => self.zk += 1,
            OpKind::LoopEnter { .. } | OpKind::LoopExit { .. } => self.loops += 1,
            OpKind::NodeCrash { .. } | OpKind::NodeRestart { .. } | OpKind::RpcTimeout { .. } => {
                self.faults += 1;
            }
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total={} mem={} rpc={} socket={} event={} thread={} lock={} zk={} loops={} faults={}",
            self.total,
            self.mem,
            self.rpc,
            self.socket,
            self.event,
            self.thread,
            self.lock,
            self.zk,
            self.loops,
            self.faults
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EventId, ExecCtx, LockRef, MemLoc, MemSpace, MsgId, RpcId, TaskId};
    use crate::names::{NameId, StackId};
    use dcatch_model::{LoopId, NodeId};

    fn rec(kind: OpKind) -> Record {
        Record {
            seq: 0,
            task: TaskId {
                node: NodeId(0),
                index: 0,
            },
            ctx: ExecCtx::Regular,
            kind,
            stack: StackId::EMPTY,
        }
    }

    #[test]
    fn counts_every_category() {
        let loc = MemLoc {
            space: MemSpace::Heap,
            node: NodeId(0),
            object: NameId(0),
            key: None,
        };
        let records = vec![
            rec(OpKind::MemRead { loc, value: None }),
            rec(OpKind::MemWrite { loc, value: None }),
            rec(OpKind::RpcCreate { rpc: RpcId(1) }),
            rec(OpKind::ThreadBegin),
            rec(OpKind::LockAcquire {
                lock: LockRef {
                    node: NodeId(0),
                    name: NameId(1),
                },
            }),
            rec(OpKind::ZkUpdate {
                path: NameId(2),
                version: 1,
            }),
        ];
        let s = TraceStats::of(&records);
        assert_eq!(s.total, 6);
        assert_eq!(s.mem, 2);
        assert_eq!(s.rpc, 1);
        assert_eq!(s.thread, 1);
        assert_eq!(s.lock, 1);
        assert_eq!(s.zk, 1);
        assert_eq!(s.socket, 0);
    }

    /// One record per `OpKind` variant: every arm of `TraceStats::of` is
    /// exercised and every record lands in exactly one category.
    #[test]
    fn every_op_kind_is_categorized() {
        let loc = MemLoc {
            space: MemSpace::Heap,
            node: NodeId(0),
            object: NameId(0),
            key: None,
        };
        let lock = LockRef {
            node: NodeId(0),
            name: NameId(1),
        };
        let child = TaskId {
            node: NodeId(0),
            index: 1,
        };
        let records = vec![
            rec(OpKind::MemRead { loc, value: None }),
            rec(OpKind::MemWrite {
                loc,
                value: Some(NameId(3)),
            }),
            rec(OpKind::ThreadCreate { child }),
            rec(OpKind::ThreadBegin),
            rec(OpKind::ThreadEnd),
            rec(OpKind::ThreadJoin { child }),
            rec(OpKind::EventCreate { event: EventId(1) }),
            rec(OpKind::EventBegin { event: EventId(1) }),
            rec(OpKind::EventEnd { event: EventId(1) }),
            rec(OpKind::RpcCreate { rpc: RpcId(1) }),
            rec(OpKind::RpcBegin { rpc: RpcId(1) }),
            rec(OpKind::RpcEnd { rpc: RpcId(1) }),
            rec(OpKind::RpcJoin { rpc: RpcId(1) }),
            rec(OpKind::SocketSend { msg: MsgId(1) }),
            rec(OpKind::SocketRecv { msg: MsgId(1) }),
            rec(OpKind::ZkUpdate {
                path: NameId(2),
                version: 1,
            }),
            rec(OpKind::ZkPushed {
                path: NameId(2),
                version: 1,
            }),
            rec(OpKind::LockAcquire { lock }),
            rec(OpKind::LockRelease { lock }),
            rec(OpKind::LoopEnter { loop_id: LoopId(0) }),
            rec(OpKind::LoopExit { loop_id: LoopId(0) }),
            rec(OpKind::NodeCrash { node: NodeId(1) }),
            rec(OpKind::NodeRestart { node: NodeId(1) }),
            rec(OpKind::RpcTimeout { rpc: RpcId(1) }),
        ];
        let s = TraceStats::of(&records);
        assert_eq!(s.total, records.len());
        assert_eq!(s.mem, 2);
        assert_eq!(s.thread, 4);
        assert_eq!(s.event, 3);
        assert_eq!(s.rpc, 4);
        assert_eq!(s.socket, 2);
        assert_eq!(s.zk, 2);
        assert_eq!(s.lock, 2);
        assert_eq!(s.loops, 2);
        assert_eq!(s.faults, 3);
        // partition: the categories sum to the total
        assert_eq!(
            s.mem + s.thread + s.event + s.rpc + s.socket + s.zk + s.lock + s.loops + s.faults,
            s.total
        );
    }
}
