//! The timing controller, realized as a simulator [`Gate`].
//!
//! The controller reacts to four statements at most — the two request
//! points while it waits, then one side's access at a time — and to nothing
//! once it is done or has given up, so that is all it watches
//! ([`Gate::watched`]): the simulator consults it nowhere else. Once the
//! forced order has executed and the run's failures are evidence (the
//! caller's predicate), no later step can change what the run shows, and
//! the controller declares the run decided ([`Gate::decided`]).

use dcatch_model::StmtId;
use dcatch_sim::{Failure, Gate, GateDecision, GateEvent, StallAction};
use dcatch_trace::TaskId;

/// Where one party must request permission: hold the first task that
/// executes `stmt` (the paper's prototype "focuses on the first dynamic
/// instance of every racing instruction").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideSpec {
    /// Request-point statement.
    pub stmt: StmtId,
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

/// Whether a run's failures so far are evidence of harm. It must be
/// monotone: once it holds of a failure list, it holds of every extension
/// of that list — a decided run is stopped on that promise.
pub type Evidence<'e> = &'e (dyn Fn(&[Failure]) -> bool + Sync);

/// Gate forcing one of the two orders of a candidate pair.
#[derive(Clone)]
pub struct ControllerGate<'e> {
    specs: [SideSpec; 2],
    /// Index (0/1) of the party released first.
    first: usize,
    claimed: [Option<TaskId>; 2],
    phase: Phase,
    /// Both parties were simultaneously held at their request points — the
    /// experimental proof that the accesses are truly concurrent.
    both_requested: bool,
    /// The world stalled and the controller gave up (ordering infeasible).
    /// An abandoned controller watches nothing and holds nothing.
    abandoned: bool,
    /// Both sides' request points: what the controller watches while
    /// `Waiting`.
    request_points: [StmtId; 2],
    /// Whether a completed run's failures decide it.
    evidence: Evidence<'e>,
}

impl<'e> ControllerGate<'e> {
    /// Creates a controller forcing side `first` (0 or 1) to execute its
    /// access before the other side. Once both confirms are seen and
    /// `evidence` holds of the run's failures, the run is decided.
    pub fn new(specs: [SideSpec; 2], first: usize, evidence: Evidence<'e>) -> ControllerGate<'e> {
        assert!(first < 2);
        ControllerGate {
            specs,
            first,
            claimed: [None; 2],
            phase: Phase::Waiting,
            both_requested: false,
            abandoned: false,
            request_points: [specs[0].stmt, specs[1].stmt],
            evidence,
        }
    }

    /// Index (0/1) of the side forced first.
    pub(crate) fn first(&self) -> usize {
        self.first
    }

    /// Makes side `first` the one released first. Until both parties are
    /// held nothing the controller does depends on which side that is, so
    /// a copy taken at the hold that made both requested (or earlier) may
    /// be reordered and resumed as if it had been built with `first`.
    pub(crate) fn reorder(&mut self, first: usize) {
        assert!(first < 2);
        assert!(
            matches!(self.phase, Phase::Waiting | Phase::FirstGo),
            "the first party has already confirmed"
        );
        self.first = first;
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

impl Gate for ControllerGate<'_> {
    /// Both request points while waiting, then the access whose confirm
    /// is due, then nothing.
    fn watched(&self) -> &[StmtId] {
        match self.phase {
            _ if self.abandoned => &[],
            Phase::Waiting => &self.request_points,
            Phase::FirstGo => std::slice::from_ref(&self.specs[self.first].access),
            Phase::SecondGo => std::slice::from_ref(&self.specs[self.second()].access),
            Phase::Done => &[],
        }
    }

    fn before(&mut self, ev: &GateEvent) -> GateDecision {
        if self.phase != Phase::Waiting || self.abandoned {
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
                    self.claimed[i] = Some(ev.task);
                    if self.claimed[0].is_some() && self.claimed[1].is_some() {
                        self.both_requested = true;
                        self.phase = Phase::FirstGo;
                    }
                    return GateDecision::Hold;
                }
            }
        }
        GateDecision::Proceed
    }

    fn after(&mut self, ev: &GateEvent) {
        match self.phase {
            _ if self.abandoned => {}
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

    /// A completed run cannot be abandoned any more, and `evidence` is
    /// monotone: once it holds, the rest of the run cannot change the
    /// verdict this run supports.
    fn decided(&mut self, failures: &[Failure]) -> bool {
        self.phase == Phase::Done && (self.evidence)(failures)
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

    fn never(_: &[Failure]) -> bool {
        false
    }

    fn gate(specs: [SideSpec; 2], first: usize) -> ControllerGate<'static> {
        ControllerGate::new(specs, first, &never)
    }

    fn specs() -> [SideSpec; 2] {
        [
            SideSpec {
                stmt: sid(0, 1),
                access: sid(0, 2),
            },
            SideSpec {
                stmt: sid(1, 5),
                access: sid(1, 6),
            },
        ]
    }

    #[test]
    fn holds_both_then_releases_in_order() {
        let mut g = gate(specs(), 0);
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
    fn one_task_cannot_claim_both_sides() {
        let shared = sid(0, 1);
        let mut g = gate(
            [
                SideSpec {
                    stmt: shared,
                    access: shared,
                },
                SideSpec {
                    stmt: shared,
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
        let mut g = gate(specs(), 0);
        let ta = task(0);
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Hold);
        let action = g.on_stall(&[ta]);
        assert_eq!(action, StallAction::Abandon);
        assert!(g.abandoned());
        assert!(!g.both_requested());
    }

    /// Once it gave up, the controller no longer controls: a later arrival
    /// at a request point is neither held nor counted as coordination.
    #[test]
    fn an_abandoned_controller_holds_nothing() {
        let mut g = gate(specs(), 0);
        let (ta, tb) = (task(0), task(1));
        assert_eq!(g.before(&ev(ta, sid(0, 1))), GateDecision::Hold);
        assert_eq!(g.on_stall(&[ta]), StallAction::Abandon);
        assert!(g.watched().is_empty());
        assert_eq!(g.before(&ev(tb, sid(1, 5))), GateDecision::Proceed);
        assert!(!g.both_requested());
        assert_eq!(g.phase(), Phase::Waiting);
        assert_eq!(g.claimed, [Some(ta), None]);
    }

    #[test]
    fn watches_by_phase() {
        let mut g = gate(specs(), 1);
        let (ta, tb) = (task(0), task(1));
        assert_eq!(g.watched(), [sid(0, 1), sid(1, 5)]);
        g.before(&ev(ta, sid(0, 1)));
        assert_eq!(g.watched(), [sid(0, 1), sid(1, 5)]);
        g.before(&ev(tb, sid(1, 5)));
        assert_eq!(g.watched(), [sid(1, 6)], "first side 1's access");
        g.after(&ev(tb, sid(1, 6)));
        assert_eq!(g.watched(), [sid(0, 2)], "then side 0's");
        g.after(&ev(ta, sid(0, 2)));
        assert!(g.completed());
        assert!(g.watched().is_empty());
    }

    #[test]
    fn a_completed_run_is_decided_by_its_evidence() {
        let abort = Failure {
            kind: dcatch_sim::RunFailureKind::Abort,
            node: NodeId(0),
            task: None,
            stmt: None,
            msg: "boom".to_owned(),
        };
        let any = |fs: &[Failure]| !fs.is_empty();
        let mut g = ControllerGate::new(specs(), 0, &any);
        let (ta, tb) = (task(0), task(1));
        let failed = [abort];
        g.before(&ev(ta, sid(0, 1)));
        g.before(&ev(tb, sid(1, 5)));
        g.after(&ev(ta, sid(0, 2)));
        assert!(!g.decided(&failed), "the order is not complete yet");
        g.after(&ev(tb, sid(1, 6)));
        assert!(!g.decided(&[]), "complete, but no evidence yet");
        assert!(g.decided(&failed));
    }

    /// Everything the oracle compares of a controller's state.
    fn state(g: &ControllerGate<'_>) -> impl PartialEq + std::fmt::Debug {
        (g.phase, g.claimed, g.both_requested, g.abandoned)
    }

    /// The watch set is exact: a controller that is shown only the events
    /// on statements it watches makes the same decisions and reaches the
    /// same state as one shown every event. The streams mix request points,
    /// accesses, sides whose request point is their access, both sides on
    /// one statement, noise statements and several tasks.
    #[test]
    fn watched_events_are_all_a_controller_needs() {
        use dcatch_obs::SmallRng;
        let mut reached = [0usize; 4];
        for case in 0..400u64 {
            let mut rng = SmallRng::seed_from_u64(0x3A7C_4000 ^ case);
            // statements 0..4 make up the sides, so sides often share
            // one; 4..7 are noise
            let side = |rng: &mut SmallRng| {
                let stmt = sid(0, rng.gen_range(4) as u32);
                let access = if rng.gen_bool() {
                    stmt
                } else {
                    sid(0, rng.gen_range(4) as u32)
                };
                SideSpec { stmt, access }
            };
            let specs = [side(&mut rng), side(&mut rng)];
            let first = rng.gen_range(2);
            let mut all = gate(specs, first);
            let mut watched = gate(specs, first);
            for step in 0..120 {
                let t = task(rng.gen_range(4) as u32);
                let stmt = sid(0, rng.gen_range(7) as u32);
                let e = ev(t, stmt);
                let what = match rng.gen_range(10) {
                    0..=4 => {
                        let sees = watched.watched().contains(&stmt);
                        let d = all.before(&e);
                        let dw = if sees {
                            watched.before(&e)
                        } else {
                            GateDecision::Proceed
                        };
                        assert_eq!(d, dw, "case {case} step {step}: before {e:?}");
                        "before"
                    }
                    5..=7 => {
                        if watched.watched().contains(&stmt) {
                            watched.after(&e);
                        }
                        all.after(&e);
                        "after"
                    }
                    8 => {
                        assert_eq!(
                            all.is_released(t),
                            watched.is_released(t),
                            "case {case} step {step}: is_released {t:?}"
                        );
                        "is_released"
                    }
                    _ => {
                        let held = [t];
                        assert_eq!(all.on_stall(&held), watched.on_stall(&held));
                        "on_stall"
                    }
                };
                assert_eq!(
                    state(&all),
                    state(&watched),
                    "case {case} step {step}: {what} {e:?} with {specs:?}, first {first}"
                );
            }
            reached[all.phase as usize] += 1;
        }
        // the streams reach every phase, so every watch set is exercised
        assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
    }
}
