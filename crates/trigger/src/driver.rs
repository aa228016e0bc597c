//! Ordering exploration and verdicts.
//!
//! For each candidate the driver explores both orders of the racing pair
//! (paper §5.1: "the controller will keep a record of what ordering has
//! been explored and will re-start the system several times, until all
//! ordering permutations... are explored"), then classifies the report the
//! way §7.1 does: **serial** (never actually concurrent), **benign** (a
//! true race with no failure), or **harmful** (a true race causing a
//! failure).
//!
//! Each ordering is one run. A run in which the controller gave up on a
//! stall did not force its order: it is never re-run and never evidence
//! ([`Verdict::Harmful`]). A run that completed the forced order and has
//! shown evidence is stopped there ([`OrderRun::decided`]): nothing it
//! would do afterwards could change the verdict. The two orderings share
//! what they have in common: ordering 1 reuses ordering 0's run when the
//! pair was never held and resumes a copy of it taken where both parties
//! were held otherwise, with the result a fresh run would
//! give ([`run_both_orders`]).
//!
//! The exploration itself lives in the [farm](crate::farm):
//! [`trigger_candidate`] is the one-candidate wrapper, running both
//! orderings to completion (no settling) on a single worker.

use dcatch_detect::Candidate;
use dcatch_model::Program;
use dcatch_sim::{Failure, Fork, Prepared, RunResult, SimConfig, Topology};

use crate::controller::{ControllerGate, Evidence};
use crate::farm::{run_farm, FarmSpec};
use crate::placement::TriggerPlan;

/// One forced-order experiment.
#[derive(Debug)]
pub struct OrderRun {
    /// Which side (0/1 of the candidate pair) was forced first.
    pub first: usize,
    /// Both parties were held concurrently — proof of true concurrency.
    pub coordinated: bool,
    /// The full order (both confirms) executed.
    pub completed: bool,
    /// The controller gave up on a stall.
    pub abandoned: bool,
    /// The run was stopped at its decision: it completed the forced order
    /// and its failures were already evidence of harm, so the simulator
    /// ran no further. Its `failures` end at the step that decided it.
    pub decided: bool,
    /// Failures observed during this run.
    pub failures: Vec<Failure>,
}

/// The paper's three report categories (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `s` and `t` are not truly concurrent (custom synchronization the HB
    /// model missed): no run coordinated both parties.
    Serial,
    /// Truly concurrent, but no run is evidence of harm.
    BenignRace,
    /// Truly concurrent, and some run is evidence of harm: it completed the
    /// forced order, was never abandoned, and showed a failure the
    /// evidence predicate accepts ([`ConfirmFn`](crate::ConfirmFn); without
    /// one, any failure).
    Harmful,
}

/// Result of triggering one candidate.
#[derive(Debug)]
pub struct TriggerReport {
    /// Final classification.
    pub verdict: Verdict,
    /// The placement plan used.
    pub plan: TriggerPlan,
    /// Both order experiments (possibly plus direct-placement fallbacks).
    pub runs: Vec<OrderRun>,
    /// The farm's deadline expired before every ordering ran: `verdict` is
    /// provisional (computed from the runs that did execute, possibly
    /// none) and callers should treat the candidate as undecided.
    pub cancelled: bool,
}

impl TriggerReport {
    /// Failures observed across all runs.
    pub fn failures(&self) -> impl Iterator<Item = &Failure> {
        self.runs.iter().flat_map(|r| r.failures.iter())
    }
}

/// Explores both orders of `candidate` and classifies it, counting any
/// failure as evidence.
///
/// `config` must be the configuration of the traced run (same seed) so the
/// controller's placements hit the same dynamic instances. Tracing is
/// disabled during triggering runs for speed.
pub fn trigger_candidate(
    program: &Program,
    topo: &Topology,
    config: &SimConfig,
    candidate: &Candidate,
) -> TriggerReport {
    let spec = FarmSpec::of(candidate);
    run_farm(
        program,
        topo,
        config,
        std::slice::from_ref(&spec),
        1,
        None,
        None,
    )
    .pop()
    .expect("one report per spec")
}

/// Ordering 0's run paused where both parties were held, with its
/// controller as it was there. Until then the controller never reads which
/// side goes first (while `Waiting` it holds, counts and abandons alike for
/// either), so the two orderings are one run up to that point.
pub(crate) type PairFork<'p, 'e> = Fork<'p, ControllerGate<'e>>;

/// Runs `plan` with side 0 forced first, stopping once the order has
/// executed and `evidence` holds of the failures. `config` is untraced.
/// Returns the run, the simulator's result, and the run's [`PairFork`] —
/// `None` when the pair was never held.
pub(crate) fn first_order<'p, 'e>(
    prepared: &'p Prepared,
    config: &'p SimConfig,
    plan: &TriggerPlan,
    evidence: Evidence<'e>,
) -> (OrderRun, RunResult, Option<PairFork<'p, 'e>>) {
    let _span = dcatch_obs::span!("trigger.order");
    let mut gate = ControllerGate::new(plan.sides, 0, evidence);
    let (result, fork) = prepared.run_forking(config, &mut gate, ControllerGate::both_requested);
    (order_run(&gate, &result), result, fork)
}

/// Runs ordering 1 of the plan whose ordering 0 gave `first` and `fork`.
/// Without a fork the pair was never held and the run is shared: ordering
/// 1's run is `first` again, with side 1 named first, and its simulator
/// result is ordering 0's (`None` here). With one, ordering 1 resumes the
/// fork with side 1 released first.
pub(crate) fn second_order(
    first: &OrderRun,
    fork: Option<PairFork<'_, '_>>,
) -> (OrderRun, Option<RunResult>) {
    let _span = dcatch_obs::span!("trigger.order");
    match fork {
        None => {
            dcatch_obs::counter!("trigger_runs_shared_total").inc();
            let run = OrderRun {
                first: 1,
                failures: first.failures.clone(),
                ..*first
            };
            count_run(&run);
            (run, None)
        }
        Some(mut fork) => {
            dcatch_obs::counter!("trigger_runs_forked_total").inc();
            fork.gate_mut().reorder(1);
            let (result, gate) = fork.resume();
            (order_run(&gate, &result), Some(result))
        }
    }
}

/// Both orderings of `plan` as the farm runs them — ordering 1 shares or
/// forks ordering 0's run — each with its simulator result (a shared run's
/// is a copy of ordering 0's). They equal two fresh [`ControllerGate`] runs
/// through [`Prepared::run_with_gate`]; the fork oracle holds them to that.
/// `config` must be untraced.
pub fn run_both_orders(
    prepared: &Prepared,
    config: &SimConfig,
    plan: &TriggerPlan,
    evidence: Evidence<'_>,
) -> [(OrderRun, RunResult); 2] {
    let (run0, result0, fork) = first_order(prepared, config, plan, evidence);
    let (run1, result1) = second_order(&run0, fork);
    let result1 = result1.unwrap_or_else(|| result0.clone());
    [(run0, result0), (run1, result1)]
}

/// The order run a controller and its run's result describe.
fn order_run(gate: &ControllerGate<'_>, result: &RunResult) -> OrderRun {
    let run = OrderRun {
        first: gate.first(),
        coordinated: gate.both_requested(),
        completed: gate.completed(),
        abandoned: gate.abandoned(),
        decided: result.decided,
        failures: result.failures.clone(),
    };
    count_run(&run);
    run
}

fn count_run(run: &OrderRun) {
    dcatch_obs::counter!("trigger_order_runs_total").inc();
    if run.decided {
        dcatch_obs::counter!("trigger_runs_decided_total").inc();
    }
}

#[cfg(test)]
mod tests;
