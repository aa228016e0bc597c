//! The whole focused re-run as the oracle for the stopped one.
//!
//! Loop-sync's focused re-run stops right after the traced run's last loop
//! marker, and `analyze_loop_sync` walks the original trace only until
//! every occurrence the plan names is found (DESIGN.md §4). Both cuts must
//! change nothing: with the stopped re-run, `plan_loop_sync` gives the
//! plan the complete re-run gives, `analyze_loop_sync` the same result and
//! candidate set, and the inferred edges are the plan's occurrences looked
//! up in an index of the whole original trace.

use std::collections::{BTreeMap, BTreeSet};

use dcatch::{
    find_candidates, Benchmark, CandidateSet, FaultPlan, FocusConfig, HbAnalysis, HbConfig,
    Prepared, SimConfig, TraceSet, TracingMode, World,
};
use dcatch_detect::{analyze_loop_sync, occ_key, plan_loop_sync, OccKey};
use dcatch_model::DependenceAnalysis;

/// The focused re-run of `cfg`'s traced run, stopped after `markers` loop
/// markers (the pipeline's re-run) or run to the end.
fn rerun<'a>(
    prepared: &'a Prepared,
    cfg: &'a SimConfig,
    markers: Option<usize>,
) -> impl FnMut(&BTreeSet<String>) -> TraceSet + 'a {
    let mut focused = 0;
    move |objects: &BTreeSet<String>| {
        focused += 1;
        assert_eq!(focused, 1, "one focused re-run per analysis");
        let focus = FocusConfig::on(objects.iter().cloned());
        let focus = match markers {
            Some(0) => return TraceSet::new(),
            Some(n) => focus.stop_after(n),
            None => focus,
        };
        prepared.run_once(&cfg.clone().with_focus(focus)).trace
    }
}

/// The translation the stopped walk replaced: every keyed record of the
/// whole trace, by occurrence.
fn whole_trace_index(trace: &TraceSet) -> BTreeMap<(OccKey, usize), usize> {
    let mut seen: BTreeMap<OccKey, usize> = BTreeMap::new();
    let mut index = BTreeMap::new();
    for (i, r) in trace.records().iter().enumerate() {
        if let Some(k) = occ_key(r, trace.names()) {
            let ord = seen.entry(k).or_insert(0);
            index.insert((k, *ord), i);
            *ord += 1;
        }
    }
    index
}

fn assert_same_candidates(label: &str, stopped: &CandidateSet, full: &CandidateSet) {
    assert_eq!(
        stopped.static_pair_count(),
        full.static_pair_count(),
        "{label}: static pairs"
    );
    for (s, f) in stopped.iter().zip(full.iter()) {
        assert_eq!(s, f, "{label}");
    }
}

/// What one case showed, summed over a test so it cannot pass vacuously.
#[derive(Default)]
struct Seen {
    plans: usize,
    edges: usize,
    /// Focused records the stop saved.
    records_saved: usize,
}

/// Checks one traced run both ways.
fn check(label: &str, bench: &Benchmark, cfg: &SimConfig, seen: &mut Seen) {
    let prepared = World::prepare(&bench.program, &bench.topology).expect("prepares");
    let trace = prepared.run_once(cfg).trace;
    let markers = trace.stats().loops;
    let hb_cfg = HbConfig::default();
    let mut hb_full = HbAnalysis::build(trace.clone(), &hb_cfg).expect("fits");
    let mut hb_stopped = HbAnalysis::build(trace, &hb_cfg).expect("fits");
    let candidates = find_candidates(&hb_full);

    // the plan, and what the stop saved
    let program = &bench.program;
    let deps = DependenceAnalysis::new(program);
    let full = plan_loop_sync(
        program,
        &deps,
        &candidates,
        &mut rerun(&prepared, cfg, None),
    );
    let stopped = plan_loop_sync(
        program,
        &deps,
        &candidates,
        &mut rerun(&prepared, cfg, Some(markers)),
    );
    match (&stopped, &full) {
        (None, None) => {}
        (Some(s), Some(f)) => {
            assert_eq!(s.edges, f.edges, "{label}: plan edges");
            assert_eq!(
                s.sync_write_stmts, f.sync_write_stmts,
                "{label}: sync writes"
            );
            assert_eq!(s.focused_objects, f.focused_objects, "{label}: objects");
            seen.plans += 1;
            let objects = &f.focused_objects;
            let whole = rerun(&prepared, cfg, None)(objects).len();
            let cut = rerun(&prepared, cfg, Some(markers))(objects).len();
            assert!(cut <= whole, "{label}: {cut} > {whole}");
            seen.records_saved += whole - cut;
        }
        _ => panic!(
            "{label}: stopped plan {} but full plan {}",
            stopped.is_some(),
            full.is_some()
        ),
    }

    // the analysis, and the translation against the whole-trace index
    let (after_full, result_full) = analyze_loop_sync(
        program,
        &mut hb_full,
        candidates.clone(),
        &mut rerun(&prepared, cfg, None),
    );
    let (after_stopped, result) = analyze_loop_sync(
        program,
        &mut hb_stopped,
        candidates,
        &mut rerun(&prepared, cfg, Some(markers)),
    );
    assert_eq!(result.edges, result_full.edges, "{label}: edges");
    assert_eq!(result.sync_pairs, result_full.sync_pairs, "{label}: pairs");
    assert_eq!(
        result.focused_objects, result_full.focused_objects,
        "{label}: objects"
    );
    assert_eq!(
        result.pruned_static_pairs, result_full.pruned_static_pairs,
        "{label}: pruned"
    );
    assert_same_candidates(label, &after_stopped, &after_full);
    if let Some(plan) = full {
        let index = whole_trace_index(hb_full.trace());
        let expected: Vec<(usize, usize)> = plan
            .edges
            .iter()
            .filter_map(|(w, x)| Some((*index.get(w)?, *index.get(x)?)))
            .collect();
        assert_eq!(result.edges, expected, "{label}: translation");
    }
    seen.edges += result.edges.len();
}

fn config(bench: &Benchmark, tracing: TracingMode, faults: FaultPlan) -> SimConfig {
    let mut cfg = SimConfig::default()
        .with_seed(bench.seed)
        .with_faults(faults);
    cfg.tracing = tracing;
    cfg
}

#[test]
fn seven_benchmarks_both_scales_both_tracing_modes() {
    let mut seen = Seen::default();
    for scale in [1, 8] {
        for bench in dcatch::all_benchmarks_scaled(scale) {
            for tracing in [TracingMode::Selective, TracingMode::Full] {
                let label = format!("{} x{scale} {tracing:?}", bench.id);
                let cfg = config(&bench, tracing, FaultPlan::default());
                check(&label, &bench, &cfg, &mut seen);
            }
        }
    }
    assert!(
        seen.plans > 0 && seen.edges > 0,
        "no loop-sync edge inferred"
    );
    assert!(seen.records_saved > 0, "no focused re-run was cut");
}

/// The per-system fault matrix, crash plans included: a crashed node's
/// tasks stop inside or before their loops on both runs alike.
#[test]
fn benchmark_fault_matrix() {
    let mut seen = Seen::default();
    let mut crashes = 0;
    for bench in dcatch::all_benchmarks() {
        for scenario in dcatch::fault_scenarios(&bench) {
            crashes += scenario.plan.crashes.len();
            let label = format!("{} {}", bench.id, scenario.name);
            let cfg = config(&bench, TracingMode::Selective, scenario.plan);
            check(&label, &bench, &cfg, &mut seen);
        }
    }
    assert!(crashes > 0, "no fault scenario crashes a node");
    assert!(seen.plans > 0 && seen.records_saved > 0);
}

/// One generated scenario per protocol, each under its own (non-empty)
/// fault plan.
#[test]
fn synth_scenario_per_protocol_with_its_fault_plan() {
    let specs = dcatch::batch_specs(&dcatch::SynthBatchConfig {
        base_seed: 1,
        count: 8,
        ..dcatch::SynthBatchConfig::default()
    });
    let mut seen = Seen::default();
    let mut protocols = BTreeSet::new();
    for spec in &specs {
        let faults = FaultPlan::parse(&spec.fault_plan).expect("generated plans parse");
        if faults == FaultPlan::default() || !protocols.insert(spec.protocol) {
            continue;
        }
        let scenario = dcatch_apps::synth::generate(spec);
        let cfg = config(&scenario.bench, TracingMode::Selective, faults);
        check(&spec.id(), &scenario.bench, &cfg, &mut seen);
    }
    assert_eq!(protocols.len(), 4, "a fault-planned scenario per protocol");
    assert!(seen.plans > 0 && seen.edges > 0, "no synth loop-sync edge");
}
