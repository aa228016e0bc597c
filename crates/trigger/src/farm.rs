//! Work-stealing trigger farm: parallel ordering exploration.
//!
//! Triggering dominates end-to-end cost (paper §6, Table 6), and each
//! (candidate, ordering) experiment is an independent deterministic
//! simulation — embarrassingly parallel. The farm flattens the candidate
//! list into a job grid of `candidates × ORDERINGS`, drains it with
//! scoped worker threads over a striped work-stealing queue, and then
//! performs a **deterministic merge**: results are consumed in candidate
//! order then ordering order, never in completion order, so verdicts,
//! reports, metrics, and span trees are byte-identical for any worker
//! count.
//!
//! **Cancellation.** When a [`ConfirmFn`] is supplied, a job with a run
//! that is evidence of harm publishes the ordering index in a per-candidate atomic;
//! sibling workers consult it before starting a higher ordering of the
//! same candidate and skip the job entirely. Crucially the merge *never
//! reads those atomics* — it re-evaluates the (pure) evidence rule on the
//! lower orderings' results — so cancellation only ever saves work: a
//! higher ordering that slipped through before the flag was set is
//! executed but invisible, its runs, metrics, and spans discarded.
//! Ordering 0 can never be skipped, which is what makes every visible
//! result available at merge time.
//!
//! **Observability.** Worker threads have their own thread-local metric
//! values and span storage, so each job runs inside a private capture and
//! metrics snapshot; the merge folds *visible* jobs back into the calling
//! thread via [`dcatch_obs::metrics::absorb`] and
//! [`dcatch_obs::trace::graft`]. A pipeline report therefore carries the
//! same counters and the same `trigger.candidate → trigger.order →
//! sim.run` span tree whether the farm ran on one worker or eight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dcatch_detect::Candidate;
use dcatch_hb::HbAnalysis;
use dcatch_model::Program;
use dcatch_sim::{Failure, Prepared, SimConfig, Topology, World};

use crate::controller::Evidence;
use crate::driver::{run_order, OrderRun, TriggerReport, Verdict};
use crate::placement::{plan_candidate, TriggerPlan};

/// Orderings explored per candidate (§5.1: both permutations of the pair).
pub const ORDERINGS: usize = 2;

/// The evidence predicate: whether a run's failure list is evidence of
/// harm for candidate `c` ([`Verdict::Harmful`]). Arguments are the
/// candidate index and the failures. The farm applies the rest of the
/// evidence rule itself — the run completed the forced order and was never
/// abandoned — so the predicate sees only failures.
///
/// It must be pure, and monotone: once it holds of a failure list, it holds
/// of every extension of that list. The merge re-evaluates it instead of
/// trusting worker flags, and a re-run is stopped as soon as it holds of a
/// completed run's failures so far, on the promise that the failures the
/// rest of the run would add cannot take the evidence back.
pub type ConfirmFn<'a> = &'a (dyn Fn(usize, &[Failure]) -> bool + Sync);

/// Work description for one candidate: the placement plan plus the naive
/// direct fallback run when the plan fails to coordinate (`None` when the
/// plan is already direct).
#[derive(Debug, Clone)]
pub struct FarmSpec {
    /// Placement plan from the §5.2 analysis.
    pub plan: TriggerPlan,
    /// Direct placement fallback, tried per ordering when `plan` does not
    /// coordinate.
    pub direct: Option<TriggerPlan>,
}

impl FarmSpec {
    /// Plans `candidate` against the HB graph. Planning needs `hb`; the
    /// farm's workers do not — specs are built up front on the caller.
    pub fn new(candidate: &Candidate, hb: &HbAnalysis) -> FarmSpec {
        let plan = plan_candidate(candidate, hb);
        let direct = (!plan.is_direct()).then(|| TriggerPlan::direct(candidate));
        FarmSpec { plan, direct }
    }
}

/// One job's worker-side harvest: the runs plus the thread-local
/// observability captured around them.
struct JobOutcome {
    runs: Vec<OrderRun>,
    metrics: dcatch_obs::MetricsSnapshot,
    spans: dcatch_obs::SpanNode,
}

/// Explores every spec's orderings on up to `jobs` worker threads and
/// returns one [`TriggerReport`] per spec, in spec order.
///
/// With `confirm` set, orderings above the first one with a run that is
/// evidence are cancelled (cooperatively, see the module docs) and
/// excluded from the report either way — so the report, the absorbed
/// metrics, and the grafted spans are identical for any `jobs`, one
/// included. `None` counts any failure as evidence and explores every
/// ordering. Either way each run stops once it is evidence
/// ([`OrderRun::decided`]).
///
/// With `deadline` set, jobs that would start after the instant are
/// skipped entirely and their candidates' reports come back with
/// [`TriggerReport::cancelled`] set. This rung is inherently wall-clock
/// dependent — it is the resource governor's time budget, not part of the
/// deterministic contract above.
pub fn run_farm(
    program: &Program,
    topo: &Topology,
    config: &SimConfig,
    specs: &[FarmSpec],
    jobs: usize,
    confirm: Option<ConfirmFn<'_>>,
    deadline: Option<Instant>,
) -> Vec<TriggerReport> {
    if specs.is_empty() {
        return Vec::new(); // nothing to re-run: nothing to prepare
    }
    let any_failure = |_: usize, failures: &[Failure]| shows_harm(failures);
    let evidence = confirm.unwrap_or(&any_failure);
    let total = specs.len() * ORDERINGS;
    // validated and compiled once for every re-run on every worker
    let prepared = World::prepare(program, topo).expect("triggering re-run must start");
    // lowest ordering that confirmed each candidate; purely a work-skip
    // hint for sibling workers — the merge below never reads it
    let confirmed: Vec<AtomicUsize> = specs.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
    let mut outcomes = steal_map(jobs, total, |i| {
        let (c, o) = (i / ORDERINGS, i % ORDERINGS);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None; // time budget exhausted: skip, report as cancelled
        }
        if confirm.is_some() && confirmed[c].load(Ordering::Relaxed) < o {
            return None; // a lower ordering already settled this candidate
        }
        let before = dcatch_obs::metrics::snapshot();
        dcatch_obs::trace::begin_capture("trigger.job");
        let runs = explore_ordering(&prepared, config, &specs[c], o, &|fs| evidence(c, fs));
        let spans = dcatch_obs::trace::end_capture();
        let metrics = dcatch_obs::metrics::snapshot().delta_since(&before);
        if confirm.is_some() && any_evidence(&runs, |fs| evidence(c, fs)) {
            confirmed[c].fetch_min(o, Ordering::Relaxed);
        }
        Some(JobOutcome {
            runs,
            metrics,
            spans,
        })
    });

    // Deterministic merge: candidate-major, ordering-minor. Visibility of
    // ordering `o` depends only on whether a lower ordering's results
    // confirm — a property of the (deterministic) runs, not of timing.
    specs
        .iter()
        .enumerate()
        .map(|(c, spec)| {
            let _span = dcatch_obs::span!("trigger.candidate");
            dcatch_obs::counter!("trigger_attempts_total").inc();
            dcatch_obs::counter!("trigger_placement_rules_total")
                .add(spec.plan.rules.iter().map(Vec::len).sum::<usize>() as u64);
            let mut runs: Vec<OrderRun> = Vec::new();
            let mut cancelled = false;
            for o in 0..ORDERINGS {
                // A confirm-skipped job is never reached here: the settle
                // break below fires on the lower ordering first. So a
                // missing outcome can only mean the deadline skipped it.
                let Some(outcome) = outcomes[c * ORDERINGS + o].take() else {
                    cancelled = true;
                    break;
                };
                let settles =
                    confirm.is_some() && any_evidence(&outcome.runs, |fs| evidence(c, fs));
                dcatch_obs::metrics::absorb(&outcome.metrics);
                dcatch_obs::trace::graft(&outcome.spans);
                runs.extend(outcome.runs);
                if settles {
                    break; // higher orderings are invisible, ran or not
                }
            }
            let verdict = classify(&runs, |fs| evidence(c, fs));
            if !cancelled {
                match verdict {
                    Verdict::Serial => dcatch_obs::counter!("trigger_verdict_serial_total").inc(),
                    Verdict::BenignRace => {
                        dcatch_obs::counter!("trigger_verdict_benign_total").inc()
                    }
                    Verdict::Harmful => dcatch_obs::counter!("trigger_verdict_harmful_total").inc(),
                }
            }
            TriggerReport {
                verdict,
                plan: spec.plan.clone(),
                runs,
                cancelled,
            }
        })
        .collect()
}

/// The [`Verdict`] rule over a candidate's visible runs: **Serial** when
/// none coordinated both parties, **Harmful** when one is evidence of harm
/// ([`any_evidence`]), **BenignRace** otherwise.
fn classify(runs: &[OrderRun], evidence: impl Fn(&[Failure]) -> bool) -> Verdict {
    if !runs.iter().any(|r| r.coordinated) {
        Verdict::Serial
    } else if any_evidence(runs, evidence) {
        Verdict::Harmful
    } else {
        Verdict::BenignRace
    }
}

/// The evidence rule: some run completed the forced order, was never
/// abandoned, and its failures satisfy the caller's predicate. The
/// controller stops a run on the same rule ([`ControllerGate`]'s
/// `decided`: the order is done, which a stall can no longer abandon).
///
/// [`ControllerGate`]: crate::ControllerGate
fn any_evidence(runs: &[OrderRun], evidence: impl Fn(&[Failure]) -> bool) -> bool {
    runs.iter()
        .any(|r| r.completed && !r.abandoned && evidence(&r.failures))
}

/// The evidence predicate when the caller gives none: any failure.
fn shows_harm(failures: &[Failure]) -> bool {
    !failures.is_empty()
}

/// One ordering of one candidate: the planned run, plus the naive direct
/// placement as a fallback when the plan fails to coordinate.
fn explore_ordering(
    prepared: &Prepared,
    config: &SimConfig,
    spec: &FarmSpec,
    first: usize,
    evidence: Evidence<'_>,
) -> Vec<OrderRun> {
    let run = run_order(prepared, config, &spec.plan, first, evidence);
    match &spec.direct {
        Some(direct) if !run.coordinated => {
            dcatch_obs::counter!("trigger_direct_fallbacks_total").inc();
            vec![run, run_order(prepared, config, direct, first, evidence)]
        }
        _ => vec![run],
    }
}

/// Runs `total` independent index-addressed jobs on up to `jobs` scoped
/// worker threads and returns the results in **index order**, regardless
/// of which worker ran what when.
///
/// The queue is striped: worker `w` owns a contiguous slice of the index
/// space and drains it front-to-back with a `fetch_add` claim; once its
/// own stripe is exhausted it sweeps the other stripes and steals their
/// remaining indices the same way. Claims are single atomic increments —
/// no index is ever run twice, nothing blocks, and an overshooting claim
/// on a drained stripe is harmless. Even at `jobs == 1` the job runs on a
/// (single) worker thread, never inline: thread-local captures on the
/// caller must not be disturbed by job-side captures.
///
/// `run` may return `None` (a skipped job); the slot stays `None` in the
/// result. Worker threads inherit the caller's span verbosity.
pub fn steal_map<T, F>(jobs: usize, total: usize, run: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let workers = jobs.max(1).min(total.max(1));
    // stripe w covers bounds[w]..bounds[w+1]
    let bounds: Vec<usize> = (0..=workers).map(|w| w * total / workers).collect();
    let cursors: Vec<AtomicUsize> = bounds[..workers]
        .iter()
        .map(|&b| AtomicUsize::new(b))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let verbose = dcatch_obs::trace::is_verbose();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (run, cursors, bounds, slots) = (&run, &cursors, &bounds, &slots);
            s.spawn(move || {
                dcatch_obs::trace::set_verbose(verbose);
                // own stripe first, then sweep the others round-robin
                for offset in 0..workers {
                    let v = (w + offset) % workers;
                    loop {
                        let i = cursors[v].fetch_add(1, Ordering::Relaxed);
                        if i >= bounds[v + 1] {
                            break;
                        }
                        *slots[i].lock().expect("farm result slot") = run(i);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("farm result slot"))
        .collect()
}

#[cfg(test)]
mod tests;
