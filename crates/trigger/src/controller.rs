//! The timing controller, realized as a simulator [`Gate`].

use dcatch_model::StmtId;
use dcatch_sim::{Gate, GateDecision, GateEvent, StallAction};
use dcatch_trace::TaskId;

/// Where one party must request permission: hold the task that executes
/// the `instance`-th dynamic occurrence of `stmt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideSpec {
    /// Request-point statement.
    pub stmt: StmtId,
    /// Which dynamic occurrence to hold at (1-based; the paper's prototype
    /// "focuses on the first dynamic instance of every racing instruction").
    pub instance: usize,
    /// The racing access statement itself — executing it is the `confirm`.
    pub access: StmtId,
}

/// Coordination phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for both parties to reach their request points.
    Waiting,
    /// Both requested; the first party is running toward its access.
    FirstGo,
    /// First party confirmed; the second party is running.
    SecondGo,
    /// Both confirmed.
    Done,
}

/// Gate forcing one of the two orders of a candidate pair.
#[derive(Debug)]
pub struct ControllerGate {
    specs: [SideSpec; 2],
    /// Index (0/1) of the party released first.
    first: usize,
    hits: [usize; 2],
    claimed: [Option<TaskId>; 2],
    phase: Phase,
    /// Both parties were simultaneously held at their request points — the
    /// experimental proof that the accesses are truly concurrent.
    both_requested: bool,
    /// The world stalled and the controller gave up (ordering infeasible).
    abandoned: bool,
}

impl ControllerGate {
    /// Creates a controller forcing side `first` (0 or 1) to execute its
    /// access before the other side.
    pub fn new(specs: [SideSpec; 2], first: usize) -> ControllerGate {
        assert!(first < 2);
        ControllerGate {
            specs,
            first,
            hits: [0; 2],
            claimed: [None; 2],
            phase: Phase::Waiting,
            both_requested: false,
            abandoned: false,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether both parties were held concurrently at their request points.
    pub fn both_requested(&self) -> bool {
        self.both_requested
    }

    /// Whether the controller abandoned coordination on a stall.
    pub fn abandoned(&self) -> bool {
        self.abandoned
    }

    /// Whether the full forced order was executed (both confirms seen).
    pub fn completed(&self) -> bool {
        self.phase == Phase::Done
    }

    fn second(&self) -> usize {
        1 - self.first
    }

    /// Whether `ev` is side `i`'s racing access executing. With direct
    /// placement (`stmt == access`) the claimed task itself performs the
    /// access; a *moved* request point (§5.2 rules — enqueue site, RPC
    /// caller, remote causal ancestor) gates a causally *downstream*
    /// access that a different task (the handler's worker thread)
    /// executes, so the confirm must not insist on the claimed task.
    fn confirms(&self, i: usize, ev: &GateEvent) -> bool {
        ev.stmt == self.specs[i].access
            && (self.specs[i].stmt != self.specs[i].access || self.claimed[i] == Some(ev.task))
    }
}

impl Gate for ControllerGate {
    fn before(&mut self, ev: &GateEvent) -> GateDecision {
        if self.phase != Phase::Waiting {
            return GateDecision::Proceed;
        }
        for i in 0..2 {
            if ev.stmt != self.specs[i].stmt {
                continue;
            }
            match self.claimed[i] {
                Some(t) if t == ev.task => return GateDecision::Proceed, // re-hit after release
                Some(_) => continue, // side already owned by another task
                None => {
                    // don't let one task own both sides
                    if self.claimed[1 - i] == Some(ev.task) {
                        continue;
                    }
                    self.hits[i] += 1;
                    if self.hits[i] == self.specs[i].instance {
                        self.claimed[i] = Some(ev.task);
                        if self.claimed[0].is_some() && self.claimed[1].is_some() {
                            self.both_requested = true;
                            self.phase = Phase::FirstGo;
                        }
                        return GateDecision::Hold;
                    }
                }
            }
        }
        GateDecision::Proceed
    }

    fn after(&mut self, ev: &GateEvent) {
        match self.phase {
            Phase::FirstGo => {
                if self.confirms(self.first, ev) {
                    self.phase = Phase::SecondGo;
                }
            }
            Phase::SecondGo => {
                if self.confirms(self.second(), ev) {
                    self.phase = Phase::Done;
                }
            }
            Phase::Waiting | Phase::Done => {}
        }
    }

    fn is_released(&mut self, task: TaskId) -> bool {
        match self.phase {
            Phase::Waiting => false,
            Phase::FirstGo => self.claimed[self.first] == Some(task),
            Phase::SecondGo | Phase::Done => true,
        }
    }

    fn on_stall(&mut self, _held: &[TaskId]) -> StallAction {
        // a stall before the protocol completed means the remaining party
        // can never arrive (it is ordered after a held task): give up
        if self.phase != Phase::Done {
            self.abandoned = true;
        }
        StallAction::Abandon
    }
}

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

    fn task(i: u32) -> TaskId {
        TaskId {
            node: NodeId(0),
            index: i,
        }
    }

    fn ev(t: TaskId, stmt: StmtId) -> GateEvent {
        GateEvent { task: t, stmt }
    }

    fn specs() -> [SideSpec; 2] {
        [
            SideSpec {
                stmt: sid(0, 1),
                instance: 1,
                access: sid(0, 2),
            },
            SideSpec {
                stmt: sid(1, 5),
                instance: 1,
                access: sid(1, 6),
            },
        ]
    }

    #[test]
    fn holds_both_then_releases_in_order() {
        let mut g = ControllerGate::new(specs(), 0);
        let (ta, tb) = (task(0), task(1));
        // side 0 arrives: held
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Hold);
        assert!(!g.is_released(ta));
        assert_eq!(g.phase(), Phase::Waiting);
        // side 1 arrives: held, both requested, first released
        assert_eq!(g.before(&ev(tb, sid(1, 5))), GateDecision::Hold);
        assert!(g.both_requested());
        assert_eq!(g.phase(), Phase::FirstGo);
        assert!(g.is_released(ta));
        assert!(!g.is_released(tb));
        // re-hitting the request point after release proceeds
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Proceed);
        // first confirm
        g.after(&ev(ta, sid(0, 2)));
        assert_eq!(g.phase(), Phase::SecondGo);
        assert!(g.is_released(tb));
        // second confirm
        g.after(&ev(tb, sid(1, 6)));
        assert!(g.completed());
    }

    #[test]
    fn instance_counting_skips_early_hits() {
        let mut g = ControllerGate::new(
            [
                SideSpec {
                    stmt: sid(0, 1),
                    instance: 3,
                    access: sid(0, 1),
                },
                SideSpec {
                    stmt: sid(1, 1),
                    instance: 1,
                    access: sid(1, 1),
                },
            ],
            0,
        );
        let ta = task(0);
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Proceed);
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Proceed);
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Hold);
    }

    #[test]
    fn one_task_cannot_claim_both_sides() {
        let shared = sid(0, 1);
        let mut g = ControllerGate::new(
            [
                SideSpec {
                    stmt: shared,
                    instance: 1,
                    access: shared,
                },
                SideSpec {
                    stmt: shared,
                    instance: 1,
                    access: shared,
                },
            ],
            0,
        );
        let (ta, tb) = (task(0), task(1));
        assert_eq!(g.before(&ev(ta, shared)), GateDecision::Hold); // claims side 0
        assert_eq!(g.before(&ev(tb, shared)), GateDecision::Hold); // claims side 1
        assert!(g.both_requested());
    }

    #[test]
    fn stall_before_completion_abandons() {
        let mut g = ControllerGate::new(specs(), 0);
        let ta = task(0);
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Hold);
        let action = g.on_stall(&[ta]);
        assert_eq!(action, StallAction::Abandon);
        assert!(g.abandoned());
        assert!(!g.both_requested());
    }
}
