//! Timing-manipulation hook.
//!
//! DCatch's triggering module controls execution order with client-side
//! `request`/`confirm` APIs and a message-controller server (paper §5.1).
//! In the simulator the controller is a [`Gate`] installed into the
//! [`World`](crate::World). A gate names the statements it watches
//! ([`Gate::watched`]); on a watched statement, and only there, the world
//! asks the gate before executing it whether the task must hold, and
//! notifies the gate after executing it (the `confirm` message). Both calls
//! carry a [`GateEvent`] — the task and the statement, nothing else: a
//! request point is a (task, statement) pair. A gate that watches nothing
//! ([`NoGate`]) costs a run one empty-set test per step and no call. When
//! the world runs out of runnable work while tasks are held, it reports the
//! stall to the gate, which may release a party or give up — that is how the
//! triggering module discovers that two accesses were never actually
//! concurrent ("serial" reports, §7.1).
//!
//! A gate may also end a run early: once its outcome can no longer change,
//! [`Gate::decided`] answers `true` and the world stops stepping. The world
//! asks only at the points where the answer can change — after a watched
//! `after` call and after a statement that recorded failures — never once
//! per step.
//!
//! The world does not keep its gate: the step loop is handed it on entry.
//! So a run paused after a hold can be copied and go on under another gate
//! ([`Prepared::run_forking`](crate::Prepared::run_forking)) — the trigger
//! farm's two orderings of a pair share a run until the forced order
//! matters.

use dcatch_model::{FuncId, StmtId};
use dcatch_trace::TaskId;

use crate::failure::Failure;

/// The most statements a [`Gate`] may watch at once.
pub const MAX_WATCHED: usize = 4;

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
/// `Send` is a supertrait so that a gated run is `Send`-clean: the trigger
/// farm runs one gated world per worker thread, and every gate is plain
/// owned data.
pub trait Gate: Send {
    /// The statements the gate reacts to, at most [`MAX_WATCHED`]. The
    /// world calls [`before`](Gate::before) and [`after`](Gate::after)
    /// only for a statement in this set, so a skipped call must be one that
    /// would have returned [`GateDecision::Proceed`] and changed nothing.
    /// The world reads the set whenever its step loop is entered (the start
    /// of a run, a resumed fork) and again after every `before`, `after` and
    /// [`on_stall`](Gate::on_stall) call; the set may change only inside
    /// those calls.
    fn watched(&self) -> &[StmtId];

    /// Consulted before a watched statement executes.
    fn before(&mut self, ev: &GateEvent) -> GateDecision;

    /// Notified after a watched statement executed (the `confirm` API).
    /// Whether the statement is watched is judged by the set as it stands
    /// after this step's `before` call.
    fn after(&mut self, ev: &GateEvent);

    /// Polled for held tasks: may a held task now continue?
    fn is_released(&mut self, task: TaskId) -> bool;

    /// Called when no task can run but some are held by the gate.
    fn on_stall(&mut self, held: &[TaskId]) -> StallAction;

    /// Whether the run is decided: nothing the rest of it could do would
    /// change what its caller concludes. `failures` are the run's failures
    /// so far, in occurrence order. Asked after every watched `after` call
    /// and after every statement that recorded failures (once, with all of
    /// them); on `true` the world stops the run after the current step. The
    /// default never stops a run.
    fn decided(&mut self, _failures: &[Failure]) -> bool {
        false
    }
}

/// The world's inline copy of a gate's watch set: no allocation, and a
/// membership test that is one length check for a gate watching nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WatchSet {
    ids: [StmtId; MAX_WATCHED],
    len: usize,
}

impl WatchSet {
    /// Copies `gate`'s current set.
    pub(crate) fn of(gate: &dyn Gate) -> WatchSet {
        let watched = gate.watched();
        assert!(
            watched.len() <= MAX_WATCHED,
            "a gate watches at most {MAX_WATCHED} statements, not {}",
            watched.len()
        );
        let mut ids = [StmtId {
            func: FuncId(0),
            idx: 0,
        }; MAX_WATCHED];
        ids[..watched.len()].copy_from_slice(watched);
        WatchSet {
            ids,
            len: watched.len(),
        }
    }

    /// Whether `stmt` is watched.
    #[inline]
    pub(crate) fn contains(&self, stmt: StmtId) -> bool {
        self.len != 0 && self.ids[..self.len].contains(&stmt)
    }
}

/// The trivial gate: watches nothing, never holds anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGate;

impl Gate for NoGate {
    fn watched(&self) -> &[StmtId] {
        &[]
    }

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
    use dcatch_model::NodeId;

    fn sid(idx: u32) -> StmtId {
        StmtId {
            func: FuncId(0),
            idx,
        }
    }

    #[test]
    fn no_gate_always_proceeds() {
        let mut g = NoGate;
        let ev = GateEvent {
            task: TaskId {
                node: NodeId(0),
                index: 0,
            },
            stmt: sid(0),
        };
        assert!(g.watched().is_empty());
        assert!(!WatchSet::of(&g).contains(ev.stmt));
        assert_eq!(g.before(&ev), GateDecision::Proceed);
        assert!(g.is_released(ev.task));
        assert_eq!(g.on_stall(&[ev.task]), StallAction::Abandon);
        assert!(!g.decided(&[]));
    }

    /// Watches a fixed list.
    struct Watching(Vec<StmtId>);

    impl Gate for Watching {
        fn watched(&self) -> &[StmtId] {
            &self.0
        }
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

    #[test]
    fn watch_set_copies_the_gates_statements() {
        let set = WatchSet::of(&Watching(vec![sid(3), sid(1), sid(4), sid(1)]));
        for (idx, watched) in [(0, false), (1, true), (2, false), (3, true), (4, true)] {
            assert_eq!(set.contains(sid(idx)), watched, "f0:{idx}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 4 statements, not 5")]
    fn a_gate_watching_too_much_is_refused() {
        WatchSet::of(&Watching((0..5).map(sid).collect()));
    }
}
