//! Work-stealing trigger farm: parallel ordering exploration.
//!
//! Triggering dominates end-to-end cost (paper §6, Table 6), and each
//! candidate's experiments are an independent deterministic simulation —
//! embarrassingly parallel. The farm makes one job per candidate, drains
//! the jobs with scoped worker threads over a striped work-stealing queue,
//! and then performs a **deterministic merge**: results are consumed in
//! candidate order, never in completion order, so verdicts, reports,
//! metrics, and span trees are byte-identical for any worker count.
//!
//! **One job, both orderings.** The two orderings of a candidate are one
//! run until both parties are held: before that the controller never reads
//! which side goes first. So a job runs ordering 0 and copies its world
//! where both parties were held; ordering 1 resumes that copy with the
//! other side first ([`Fork`](dcatch_sim::Fork)), or — when the pair was
//! never held — *is* ordering 0's run, reused without simulating it again.
//! The direct-placement fallback run is shared or forked the same way.
//! Each run equals a fresh one, field by field and clock for clock (the
//! fork oracle, `tests/fork_oracle.rs`).
//!
//! **Settling.** When a [`ConfirmFn`] is supplied and ordering 0 already
//! has a run that is evidence of harm, the job stops there: ordering 1
//! never starts, so it adds no run, metric, or span, whichever worker ran
//! the job.
//!
//! **Observability.** Each job runs in its own [`dcatch_obs::scope`], a
//! private capture and metrics reading on whichever thread runs it; the
//! merge folds every job back into the calling thread via
//! [`dcatch_obs::metrics::absorb`] and [`dcatch_obs::trace::graft`]. A
//! pipeline report therefore carries the same counters and the same
//! `trigger.candidate → trigger.order → sim.run` span tree whether the
//! farm ran on one worker or eight; a shared run has its `trigger.order`
//! span but no `sim.run` under it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dcatch_detect::Candidate;
use dcatch_hb::HbAnalysis;
use dcatch_model::Program;
use dcatch_sim::{Failure, Prepared, SimConfig, Topology, World};

use crate::controller::Evidence;
use crate::driver::{first_order, second_order, OrderRun, TriggerReport, Verdict};
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
/// of every extension of that list. A re-run is stopped as soon as it holds
/// of a completed run's failures so far, on the promise that the failures
/// the rest of the run would add cannot take the evidence back.
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
    /// Plans `candidate` from the facts its scan kept.
    pub fn of(candidate: &Candidate) -> FarmSpec {
        let plan = plan_candidate(candidate);
        let direct = (!plan.is_direct()).then(|| TriggerPlan::direct(candidate));
        FarmSpec { plan, direct }
    }

    /// [`FarmSpec::of`]; planning reads no graph.
    pub fn new(candidate: &Candidate, _hb: &HbAnalysis) -> FarmSpec {
        FarmSpec::of(candidate)
    }
}

/// One job's harvest: the runs plus the observability its scope captured.
struct JobOutcome {
    runs: Vec<OrderRun>,
    /// The deadline passed before an ordering the job needed could start.
    cancelled: bool,
    metrics: dcatch_obs::MetricsSnapshot,
    spans: dcatch_obs::SpanNode,
}

/// [`run_farm_prepared`] on `program` and `topo`, prepared here.
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
    let prepared = World::prepare(program, topo).expect("triggering re-run must start");
    run_farm_prepared(&prepared, config, specs, jobs, confirm, deadline)
}

/// Explores every spec's orderings, one job per spec on up to `jobs`
/// worker threads, and returns one [`TriggerReport`] per spec, in spec
/// order. `config` is the traced run's; the re-runs are untraced.
///
/// With `confirm` set, a candidate whose ordering 0 has a run that is
/// evidence is settled there: ordering 1 is not explored. `None` counts
/// any failure as evidence and explores every ordering. Either way each
/// run stops once it is evidence ([`OrderRun::decided`]). The report, the
/// absorbed metrics, and the grafted spans are identical for any `jobs`,
/// one included.
///
/// With `deadline` set, an ordering that would start after the instant is
/// skipped, and its candidate's report comes back with
/// [`TriggerReport::cancelled`] set. This rung is inherently wall-clock
/// dependent — it is the resource governor's time budget, not part of the
/// deterministic contract above.
pub fn run_farm_prepared(
    prepared: &Prepared,
    config: &SimConfig,
    specs: &[FarmSpec],
    jobs: usize,
    confirm: Option<ConfirmFn<'_>>,
    deadline: Option<Instant>,
) -> Vec<TriggerReport> {
    let any_failure = |_: usize, failures: &[Failure]| shows_harm(failures);
    let evidence = confirm.unwrap_or(&any_failure);
    let mut untraced = config.clone();
    untraced.trace_enabled = false;
    let mut outcomes = steal_map(jobs, specs.len(), |c| {
        let ((runs, cancelled), metrics, spans) = dcatch_obs::scope("trigger.job", || {
            explore(
                prepared,
                &untraced,
                &specs[c],
                &|fs| evidence(c, fs),
                confirm.is_some(),
                deadline,
            )
        });
        Some(JobOutcome {
            runs,
            cancelled,
            metrics,
            spans,
        })
    });

    // Deterministic merge, in candidate order.
    specs
        .iter()
        .enumerate()
        .map(|(c, spec)| {
            let _span = dcatch_obs::span!("trigger.candidate");
            dcatch_obs::counter!("trigger_attempts_total").inc();
            dcatch_obs::counter!("trigger_placement_rules_total")
                .add(spec.plan.rules.iter().map(Vec::len).sum::<usize>() as u64);
            let outcome = outcomes[c].take().expect("every job returns an outcome");
            dcatch_obs::metrics::absorb(&outcome.metrics);
            dcatch_obs::trace::graft(&outcome.spans);
            let verdict = classify(&outcome.runs, |fs| evidence(c, fs));
            if !outcome.cancelled {
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
                runs: outcome.runs,
                cancelled: outcome.cancelled,
            }
        })
        .collect()
}

/// The [`Verdict`] rule over a candidate's runs: **Serial** when none
/// coordinated both parties, **Harmful** when one is evidence of harm
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

/// One candidate's job: ordering 0 — the planned run, plus the naive direct
/// placement as a fallback when the plan fails to coordinate — then, unless
/// `settle` finds evidence in it, ordering 1 run for run from ordering 0's
/// (shared or forked). Returns the runs and whether the deadline cut the
/// exploration short.
fn explore(
    prepared: &Prepared,
    untraced: &SimConfig,
    spec: &FarmSpec,
    evidence: Evidence<'_>,
    settle: bool,
    deadline: Option<Instant>,
) -> (Vec<OrderRun>, bool) {
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    if expired() {
        return (Vec::new(), true);
    }
    let mut runs = Vec::new();
    let mut forks = Vec::new();
    for plan in std::iter::once(&spec.plan).chain(&spec.direct) {
        if !runs.is_empty() {
            dcatch_obs::counter!("trigger_direct_fallbacks_total").inc();
        }
        let (run, _, fork) = first_order(prepared, untraced, plan, evidence);
        let coordinated = run.coordinated;
        runs.push(run);
        forks.push(fork);
        if coordinated {
            break;
        }
    }
    if settle && any_evidence(&runs, evidence) {
        return (runs, false);
    }
    if expired() {
        return (runs, true);
    }
    for (k, fork) in forks.into_iter().enumerate() {
        if k > 0 {
            dcatch_obs::counter!("trigger_direct_fallbacks_total").inc();
        }
        let (run, _) = second_order(&runs[k], fork);
        runs.push(run);
    }
    (runs, false)
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
/// on a drained stripe is harmless. With one worker there is nothing to
/// share: the jobs run in index order on the caller's thread, inside one
/// [`dcatch_obs::isolated`] scope — the state the single worker thread
/// would have started with — so the caller's metrics and capture are
/// never disturbed by job-side ones.
///
/// `run` may return `None` (a skipped job); the slot stays `None` in the
/// result. Worker threads inherit the caller's span verbosity.
pub fn steal_map<T, F>(jobs: usize, total: usize, run: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let workers = jobs.max(1).min(total.max(1));
    if workers == 1 {
        return dcatch_obs::isolated(|| (0..total).map(run).collect());
    }
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
