//! Timing-manipulation hook.
//!
//! DCatch's triggering module controls execution order with client-side
//! `request`/`confirm` APIs and a message-controller server (paper §5.1).
//! In the simulator the controller is a [`Gate`] installed into the
//! [`World`](crate::World): before executing each statement the world asks
//! the gate whether the task must hold; after executing it the world
//! notifies the gate (the `confirm` message). Both calls carry a
//! [`GateEvent`] — the task and the statement, nothing else: a request
//! point is a (task, statement) pair, and the event is built on every step
//! of every re-run, so it holds nothing that costs an allocation. When the world runs out of
//! runnable work while tasks are held, it reports the stall to the gate,
//! which may release a party or give up — that is how the triggering
//! module discovers that two accesses were never actually concurrent
//! ("serial" reports, §7.1).

use dcatch_model::StmtId;
use dcatch_trace::TaskId;

/// What the world tells the gate before/after a statement executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateEvent {
    /// Task about to execute (or having executed) the statement.
    pub task: TaskId,
    /// The statement.
    pub stmt: StmtId,
}

/// Gate verdict for a task about to execute a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// Let the statement execute.
    Proceed,
    /// Hold the task; it stays blocked until [`Gate::is_released`] returns
    /// true for it.
    Hold,
}

/// What the gate wants when the world stalls with held tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallAction {
    /// Release these tasks and continue.
    Release(Vec<TaskId>),
    /// Give up: release everything and record that the coordination could
    /// not be completed (the ordering is infeasible).
    Abandon,
}

/// Controller interface for timing manipulation.
///
/// `Send` is a supertrait so that a [`World`](crate::World) holding a
/// `&mut dyn Gate` is itself `Send`-clean: the trigger farm runs one
/// gated world per worker thread, and every gate is plain owned data.
pub trait Gate: Send {
    /// Consulted before a statement executes.
    fn before(&mut self, ev: &GateEvent) -> GateDecision;

    /// Notified after a statement executed (the `confirm` API).
    fn after(&mut self, ev: &GateEvent);

    /// Polled for held tasks: may a held task now continue?
    fn is_released(&mut self, task: TaskId) -> bool;

    /// Called when no task can run but some are held by the gate.
    fn on_stall(&mut self, held: &[TaskId]) -> StallAction;
}

/// The trivial gate: never holds anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGate;

impl Gate for NoGate {
    fn before(&mut self, _ev: &GateEvent) -> GateDecision {
        GateDecision::Proceed
    }

    fn after(&mut self, _ev: &GateEvent) {}

    fn is_released(&mut self, _task: TaskId) -> bool {
        true
    }

    fn on_stall(&mut self, _held: &[TaskId]) -> StallAction {
        StallAction::Abandon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::{FuncId, NodeId};

    #[test]
    fn no_gate_always_proceeds() {
        let mut g = NoGate;
        let ev = GateEvent {
            task: TaskId {
                node: NodeId(0),
                index: 0,
            },
            stmt: StmtId {
                func: FuncId(0),
                idx: 0,
            },
        };
        assert_eq!(g.before(&ev), GateDecision::Proceed);
        assert!(g.is_released(ev.task));
        assert_eq!(g.on_stall(&[ev.task]), StallAction::Abandon);
    }
}
