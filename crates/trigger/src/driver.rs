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
//! ([`Verdict::Harmful`]).
//!
//! The exploration itself lives in the [farm](crate::farm):
//! [`trigger_candidate`] is the one-candidate wrapper, running both
//! orderings to completion (no cancellation) on a single worker.

use dcatch_detect::Candidate;
use dcatch_hb::HbAnalysis;
use dcatch_model::Program;
use dcatch_sim::{Failure, Prepared, SimConfig, Topology};

use crate::controller::ControllerGate;
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
    hb: &HbAnalysis,
) -> TriggerReport {
    let spec = FarmSpec::new(candidate, hb);
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

/// Runs `plan` once with side `first` forced first.
pub(crate) fn run_order(
    prepared: &Prepared,
    config: &SimConfig,
    plan: &TriggerPlan,
    first: usize,
) -> OrderRun {
    let _span = dcatch_obs::span!("trigger.order");
    dcatch_obs::counter!("trigger_order_runs_total").inc();
    let mut cfg = config.clone();
    cfg.trace_enabled = false;
    let mut gate = ControllerGate::new(plan.sides, first);
    let result = prepared.run_with_gate(&cfg, &mut gate);
    OrderRun {
        first,
        coordinated: gate.both_requested(),
        completed: gate.completed(),
        abandoned: gate.abandoned(),
        failures: result.failures,
    }
}

#[cfg(test)]
mod tests;
