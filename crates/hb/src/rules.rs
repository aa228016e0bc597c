//! The keyed MTEP rules, written once (paper §2; DESIGN.md §4).
//!
//! Six rule families order a *source* record before the *target* record
//! that names the same [`CauseKey`]: `Tfork`, `Eenq`, both halves of
//! `Mrpc`, `Msoc` and `Mpush`. Which record kind plays which end of which
//! rule is this table and nothing else. Its one reader is
//! [`FrontierEngine::record`](crate::FrontierEngine::record), which holds
//! a pending source as a clock snapshot and which the batch builder drives
//! too; the rules without a key — program order, `Tjoin`, `Crash`,
//! `Eserial` — are that function's own bookkeeping.

use dcatch_trace::{CauseKey, Names, OpKind, Record};

use crate::graph::EdgeRule;

/// Which end of its rule's edge a record is.
pub(crate) enum End {
    /// The record is a cause: later targets with the same key are ordered
    /// after it. A repeated source (a duplicated RPC request's second
    /// reply) replaces the earlier one for targets yet to arrive.
    Source,
    /// The record is ordered after the pending source with the same key,
    /// if there is one.
    Target,
}

/// The keyed rule `r` takes part in, if any. A zknode path is keyed by its
/// text, the form the simulator's fan-out notifications name it in. Inlined
/// into the engine's per-record path: out of line, every record — most
/// take part in no keyed rule — pays a call that returns 48 bytes through
/// memory (`dcbench stream_1m` `wall_s` +2.9 % against the parent, +0.5 %
/// inlined; EXPERIMENTS.md "PR 19").
#[inline]
pub(crate) fn keyed(r: &Record, names: &Names) -> Option<(CauseKey, EdgeRule, End)> {
    use End::{Source, Target};
    Some(match &r.kind {
        OpKind::ThreadCreate { child } => (CauseKey::ThreadBegin(*child), EdgeRule::Fork, Source),
        OpKind::ThreadBegin => (CauseKey::ThreadBegin(r.task), EdgeRule::Fork, Target),
        OpKind::EventCreate { event } => (CauseKey::EventBegin(event.0), EdgeRule::Eenq, Source),
        OpKind::EventBegin { event } => (CauseKey::EventBegin(event.0), EdgeRule::Eenq, Target),
        OpKind::RpcCreate { rpc } => (CauseKey::RpcBegin(rpc.0), EdgeRule::Mrpc, Source),
        OpKind::RpcBegin { rpc } => (CauseKey::RpcBegin(rpc.0), EdgeRule::Mrpc, Target),
        OpKind::RpcEnd { rpc } => (CauseKey::RpcJoin(rpc.0), EdgeRule::Mrpc, Source),
        OpKind::RpcJoin { rpc } => (CauseKey::RpcJoin(rpc.0), EdgeRule::Mrpc, Target),
        OpKind::SocketSend { msg } => (CauseKey::SocketRecv(msg.0), EdgeRule::Msoc, Source),
        OpKind::SocketRecv { msg } => (CauseKey::SocketRecv(msg.0), EdgeRule::Msoc, Target),
        OpKind::ZkUpdate { path, version } => (
            CauseKey::ZkPushed(names.name(*path).to_owned(), *version),
            EdgeRule::Mpush,
            Source,
        ),
        OpKind::ZkPushed { path, version } => (
            CauseKey::ZkPushed(names.name(*path).to_owned(), *version),
            EdgeRule::Mpush,
            Target,
        ),
        _ => return None,
    })
}

/// Whether a source of `rule` has exactly one target: a thread begins
/// once and an event is handled once, in-process. A network send's
/// deliveries are the fault plan's to decide (dropped, duplicated), so
/// those sources stay pending.
pub(crate) fn delivers_once(rule: EdgeRule) -> bool {
    matches!(rule, EdgeRule::Fork | EdgeRule::Eenq)
}
