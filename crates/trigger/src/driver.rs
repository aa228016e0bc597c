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
    /// Whether this run used the naive direct placement as a fallback.
    pub used_direct_fallback: bool,
}

/// The paper's three report categories (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `s` and `t` are not truly concurrent (custom synchronization the HB
    /// model missed).
    Serial,
    /// Truly concurrent, but no forced order produced a failure.
    BenignRace,
    /// Truly concurrent and at least one order produced a failure.
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

/// Explores both orders of `candidate` and classifies it.
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

pub(crate) fn run_order(
    prepared: &Prepared,
    config: &SimConfig,
    plan: &TriggerPlan,
    first: usize,
    used_direct_fallback: bool,
) -> OrderRun {
    let _span = dcatch_obs::span!("trigger.order");
    dcatch_obs::counter!("trigger_order_runs_total").inc();
    if used_direct_fallback {
        dcatch_obs::counter!("trigger_direct_fallbacks_total").inc();
    }
    // An abandoned run means the gate blocked one side past its patience
    // budget and gave up — often a scheduling accident of the particular
    // seed rather than a property of the ordering. Retry a bounded number
    // of times with a derived seed before accepting the abandonment.
    const MAX_RETRIES: u64 = 2;
    let mut attempt: u64 = 0;
    let mut cfg = config.clone();
    cfg.trace_enabled = false;
    loop {
        let mut gate = ControllerGate::new(plan.sides, first);
        if attempt > 0 {
            cfg.seed = config.seed ^ retry_seed(plan, first, attempt);
        }
        let result = prepared.run_with_gate(&cfg, &mut gate);
        if gate.abandoned() && attempt < MAX_RETRIES {
            attempt += 1;
            dcatch_obs::counter!("trigger_retries").inc();
            continue;
        }
        return OrderRun {
            first,
            coordinated: gate.both_requested(),
            completed: gate.completed(),
            abandoned: gate.abandoned(),
            failures: result.failures,
            used_direct_fallback,
        };
    }
}

/// Deterministic retry-seed stream per (plan, ordering, attempt). Salting
/// with the plan's *content* — not the candidate's position in whatever
/// batch it came from — means a retried job draws the same seeds whether
/// it runs serially, on farm worker 3, or alone through
/// [`trigger_candidate`].
fn retry_seed(plan: &TriggerPlan, first: usize, attempt: u64) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ first as u64;
    for side in &plan.sides {
        for v in [
            u64::from(side.stmt.func.0),
            u64::from(side.stmt.idx),
            side.instance as u64,
            u64::from(side.access.func.0),
            u64::from(side.access.idx),
        ] {
            acc = dcatch_obs::SmallRng::seed_from_u64(acc ^ v).next_u64();
        }
    }
    dcatch_obs::SmallRng::seed_from_u64(acc ^ attempt).next_u64()
}

#[cfg(test)]
mod tests;
