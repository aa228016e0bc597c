//! HB-rule ablations (paper §7.4, Table 9).
//!
//! The paper evaluates DCatch's HB model by having the trace analyzer
//! *ignore* event, RPC, socket, or push-synchronization records. Ignoring
//! a record category has two effects, both reproduced here:
//!
//! 1. the corresponding HB edges disappear (→ false positives: accesses
//!    ordered only through that mechanism look concurrent);
//! 2. the analyzer can no longer see handler boundaries of that kind, so
//!    it falls back to `Rule-Preg` for the whole thread — operations from
//!    *different* handler instances on the same thread become (wrongly)
//!    ordered (→ false negatives).

use dcatch_trace::{ExecCtx, HandlerKind, OpKind, Record, TraceSet};

/// Which HB-related record category to ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// Full model (no ablation).
    None,
    /// Ignore event create/begin/end records (drops `Eenq`/`Eserial`,
    /// demotes event handlers to regular program order).
    IgnoreEvent,
    /// Ignore RPC records (drops `Mrpc`, demotes RPC handlers).
    IgnoreRpc,
    /// Ignore socket records (drops `Msoc`, demotes socket handlers).
    IgnoreSocket,
    /// Ignore ZooKeeper update/pushed records (drops `Mpush`, demotes
    /// watcher handlers).
    IgnorePush,
}

impl Ablation {
    /// All ablations evaluated in Table 9.
    pub const TABLE9: [Ablation; 4] = [
        Ablation::IgnoreEvent,
        Ablation::IgnoreRpc,
        Ablation::IgnoreSocket,
        Ablation::IgnorePush,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Ablation::None => "full",
            Ablation::IgnoreEvent => "-event",
            Ablation::IgnoreRpc => "-rpc",
            Ablation::IgnoreSocket => "-socket",
            Ablation::IgnorePush => "-push",
        }
    }
}

fn drops(ablation: Ablation, kind: &OpKind) -> bool {
    match ablation {
        Ablation::None => false,
        Ablation::IgnoreEvent => matches!(
            kind,
            OpKind::EventCreate { .. } | OpKind::EventBegin { .. } | OpKind::EventEnd { .. }
        ),
        Ablation::IgnoreRpc => matches!(
            kind,
            OpKind::RpcCreate { .. }
                | OpKind::RpcBegin { .. }
                | OpKind::RpcEnd { .. }
                | OpKind::RpcJoin { .. }
        ),
        Ablation::IgnoreSocket => {
            matches!(kind, OpKind::SocketSend { .. } | OpKind::SocketRecv { .. })
        }
        Ablation::IgnorePush => {
            matches!(kind, OpKind::ZkUpdate { .. } | OpKind::ZkPushed { .. })
        }
    }
}

fn demoted_handler(ablation: Ablation) -> Option<HandlerKind> {
    match ablation {
        Ablation::None => None,
        Ablation::IgnoreEvent => Some(HandlerKind::Event),
        Ablation::IgnoreRpc => Some(HandlerKind::Rpc),
        Ablation::IgnoreSocket => Some(HandlerKind::Socket),
        Ablation::IgnorePush => Some(HandlerKind::ZkWatcher),
    }
}

fn demotes(ablation: Ablation, ctx: ExecCtx) -> bool {
    matches!(ctx, ExecCtx::Handler { kind, .. } if Some(kind) == demoted_handler(ablation))
}

/// Produces the trace the ablated analyzer effectively sees. Takes the
/// trace by value: the full model analyzes it as is, without a copy.
pub fn apply_ablation(trace: TraceSet, ablation: Ablation) -> TraceSet {
    if ablation == Ablation::None {
        return trace;
    }
    trace
        .filtered(|r| !drops(ablation, &r.kind))
        .mapped(|mut r| {
            if demotes(ablation, r.ctx) {
                r.ctx = ExecCtx::Regular;
            }
            r
        })
}

/// [`apply_ablation`] for one record of a stream: `None` when the ablated
/// analyzer ignores the record, otherwise the record as it sees it (a
/// demoted handler context rewritten to regular program order).
pub fn ablate_record(r: &Record, ablation: Ablation) -> Option<Record> {
    if drops(ablation, &r.kind) {
        None
    } else if demotes(ablation, r.ctx) {
        Some(Record {
            ctx: ExecCtx::Regular,
            ..*r
        })
    } else {
        Some(*r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::NodeId;
    use dcatch_trace::{EventId, StackId, TaskId};

    fn rec(seq: u64, ctx: ExecCtx, kind: OpKind) -> Record {
        Record {
            seq,
            task: TaskId {
                node: NodeId(0),
                index: 0,
            },
            ctx,
            kind,
            stack: StackId::EMPTY,
        }
    }

    fn trace(records: Vec<Record>) -> TraceSet {
        let mut trace = TraceSet::new();
        trace.extend(records);
        trace
    }

    #[test]
    fn ignore_event_drops_records_and_demotes_context() {
        let hctx = ExecCtx::Handler {
            kind: HandlerKind::Event,
            instance: 1,
        };
        let trace = trace(vec![
            rec(
                0,
                ExecCtx::Regular,
                OpKind::EventCreate { event: EventId(1) },
            ),
            rec(1, hctx, OpKind::EventBegin { event: EventId(1) }),
            rec(2, hctx, OpKind::ThreadBegin), // stand-in body record
        ]);
        let ablated = apply_ablation(trace.clone(), Ablation::IgnoreEvent);
        assert_eq!(ablated.len(), 1);
        assert_eq!(ablated.records()[0].ctx, ExecCtx::Regular);
        // record by record, a stream sees exactly the same trace
        let streamed: Vec<Record> = trace
            .records()
            .iter()
            .filter_map(|r| ablate_record(r, Ablation::IgnoreEvent))
            .collect();
        assert_eq!(streamed, ablated.records());
    }

    #[test]
    fn other_handlers_keep_their_context() {
        let rpc_ctx = ExecCtx::Handler {
            kind: HandlerKind::Rpc,
            instance: 2,
        };
        let trace = trace(vec![rec(0, rpc_ctx, OpKind::ThreadBegin)]);
        let ablated = apply_ablation(trace, Ablation::IgnoreEvent);
        assert_eq!(ablated.records()[0].ctx, rpc_ctx);
    }

    #[test]
    fn none_is_identity() {
        let trace = trace(vec![rec(0, ExecCtx::Regular, OpKind::ThreadBegin)]);
        let same = apply_ablation(trace.clone(), Ablation::None);
        assert_eq!(same.records(), trace.records());
    }

    #[test]
    fn labels() {
        assert_eq!(Ablation::IgnorePush.label(), "-push");
        assert_eq!(Ablation::TABLE9.len(), 4);
    }
}
