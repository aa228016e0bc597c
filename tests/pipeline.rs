//! Cross-crate pipeline behaviour: selective vs full tracing, memory
//! budgets, determinism, and trace round-trips.

use dcatch::{HbAnalysis, HbConfig, Pipeline, PipelineOptions, SimConfig, TracingMode, World};

/// Selective tracing (paper §3.1.1) produces much smaller traces than
/// unselective tracing on every benchmark — the Table 8 comparison.
#[test]
fn selective_traces_are_smaller_than_full_traces() {
    for bench in dcatch::all_benchmarks() {
        let sel = World::run_once(
            &bench.program,
            &bench.topology,
            SimConfig::default().with_seed(bench.seed),
        )
        .unwrap();
        let full = World::run_once(
            &bench.program,
            &bench.topology,
            SimConfig::default()
                .with_seed(bench.seed)
                .with_full_tracing(),
        )
        .unwrap();
        assert!(
            full.trace.byte_size() > sel.trace.byte_size(),
            "{}: full {} vs selective {}",
            bench.id,
            full.trace.byte_size(),
            sel.trace.byte_size()
        );
    }
}

/// A tiny memory budget makes the HB analysis fail with OutOfMemory, and
/// the pipeline reports it as an outcome (Table 8's "Out of Memory" rows)
/// rather than an error.
#[test]
fn oom_is_a_reported_outcome_not_an_error() {
    let bench = dcatch::benchmark("MR-3274").unwrap();
    let mut opts = PipelineOptions::fast();
    opts.tracing = TracingMode::Full;
    // 1 KiB is below even the chain-clock engine's O(n·G) footprint, so
    // the default `auto` mode has no engine to fall back to
    opts.hb = HbConfig {
        memory_budget_bytes: 1024,
        ..HbConfig::default()
    };
    let report = Pipeline::run(&bench, &opts).unwrap();
    assert!(report.oom.is_some());
    assert_eq!(report.ta_static, 0);
}

/// The same seed yields byte-identical traces — the determinism that the
/// focused re-run and the triggering module both rely on.
#[test]
fn traced_runs_are_deterministic() {
    for bench in dcatch::all_benchmarks() {
        let cfg = SimConfig::default().with_seed(bench.seed);
        let a = World::run_once(&bench.program, &bench.topology, cfg.clone()).unwrap();
        let b = World::run_once(&bench.program, &bench.topology, cfg).unwrap();
        assert_eq!(
            a.trace.to_lines(),
            b.trace.to_lines(),
            "{}: nondeterministic trace",
            bench.id
        );
    }
}

/// `detect all --jobs 4 --json` must be byte-identical to `--jobs 1`:
/// worker count is an execution detail, not an input. Wall-clock fields
/// (stage timings, span durations) are the only legitimately
/// nondeterministic part of a report, so the comparison zeroes them and
/// then demands byte equality of the serialized document — counters,
/// gauges, span *structure* and counts, candidate tallies, and verdicts
/// all included.
#[test]
fn parallel_detection_report_matches_serial_byte_for_byte() {
    fn zero_durations(span: &mut dcatch_obs::SpanNode) {
        span.total = std::time::Duration::ZERO;
        for child in &mut span.children {
            zero_durations(child);
        }
    }
    fn scrubbed_json(jobs: usize) -> String {
        let benches = dcatch::all_benchmarks();
        let mut reports: Vec<_> = Pipeline::run_all(&benches, &PipelineOptions::fast(), jobs)
            .into_iter()
            .map(|r| r.expect("pipeline run"))
            .collect();
        for r in &mut reports {
            r.timings = dcatch::StageTimings::default();
            zero_durations(&mut r.spans);
        }
        dcatch::report_json::run_report(&reports).to_pretty()
    }
    let serial = scrubbed_json(1);
    let parallel = scrubbed_json(4);
    assert_eq!(serial, parallel, "report depends on worker count");
}

/// The tentpole guarantee at test scale: pick a budget the bit matrix
/// cannot fit but the chain clocks can. The matrix engine OOMs on the
/// full unselective trace; `auto` resolves to the smaller index — clocks
/// on a trace this long — and completes full-trace detection within the
/// same budget.
/// (EXPERIMENTS.md repeats this at Table-8 scale with the 512 MB budget.)
#[test]
fn clock_engine_completes_full_trace_detection_where_matrix_ooms() {
    use dcatch::{BitMatrix, HbAnalysis, HbConfig, ReachabilityMode};
    let bench = dcatch::benchmark("MR-3274").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default()
            .with_seed(bench.seed)
            .with_full_tracing(),
    )
    .unwrap();
    let n = run.trace.len();
    let clock_bytes = HbAnalysis::build(run.trace, &HbConfig::default())
        .unwrap()
        .reach_bytes();
    let budget = BitMatrix::estimated_bytes(n) - 1;
    assert!(
        clock_bytes <= budget,
        "premise: clocks fit, matrix does not"
    );

    let mut opts = PipelineOptions::fast();
    opts.tracing = TracingMode::Full;
    opts.hb.memory_budget_bytes = budget;
    // auto first: `hb_reach_bytes_peak` is a running max per thread, so
    // the deliberately-OOMing matrix attempt would mask the clock reading
    opts.hb.reachability = ReachabilityMode::Auto;
    let auto = Pipeline::run(&bench, &opts).unwrap();
    assert!(auto.oom.is_none(), "auto must pick clocks");
    assert!(auto.ta_static > 0, "full-trace detection must complete");
    assert!(
        auto.metrics.gauge("hb_reach_bytes_peak") <= budget as u64,
        "clock index must stay within the budget"
    );

    opts.hb.reachability = ReachabilityMode::Matrix;
    let matrix = Pipeline::run(&bench, &opts).unwrap();
    assert!(matrix.oom.is_some(), "matrix engine must OOM");
}

/// Detection is engine-independent: the chain-clock reachability engine
/// produces exactly the same Tables 4/5 numbers (candidate funnel,
/// verdict tallies, known-bug confirmation, per-candidate static pairs)
/// as the bit matrix on every benchmark, and the same Table 9 ablation
/// counts. This is the end-to-end guarantee on top of the pairwise
/// equivalence property tests in `dcatch-hb`.
#[test]
fn detection_results_are_identical_under_both_engines() {
    use dcatch::ReachabilityMode;
    for bench in dcatch::all_benchmarks() {
        let run = |mode| {
            let mut opts = PipelineOptions::full();
            opts.hb.reachability = mode;
            Pipeline::run(&bench, &opts).unwrap()
        };
        let m = run(ReachabilityMode::Matrix);
        let c = run(ReachabilityMode::Clocks);
        assert_eq!(
            (m.ta_static, m.ta_stacks, m.sp_static, m.sp_stacks),
            (c.ta_static, c.ta_stacks, c.sp_static, c.sp_stacks),
            "{}: candidate funnel differs",
            bench.id
        );
        assert_eq!(
            (m.lp_static, m.lp_stacks),
            (c.lp_static, c.lp_stacks),
            "{}: loop-sync funnel differs",
            bench.id
        );
        assert_eq!(m.verdicts, c.verdicts, "{}: verdicts differ", bench.id);
        assert_eq!(
            m.detected_known_bug, c.detected_known_bug,
            "{}: known-bug confirmation differs",
            bench.id
        );
        let pairs = |r: &dcatch::BenchmarkReport| {
            r.reports
                .iter()
                .map(|b| (b.candidate.static_pair, b.verdict))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&m), pairs(&c), "{}: reported pairs differ", bench.id);

        // Table 9 ablation counts (trace analysis only, per rule family)
        for ablation in dcatch::Ablation::TABLE9 {
            let run = |mode| {
                let mut opts = PipelineOptions::trace_analysis_only();
                opts.ablation = ablation;
                opts.hb.reachability = mode;
                let r = Pipeline::run(&bench, &opts).unwrap();
                (r.ta_static, r.ta_stacks)
            };
            assert_eq!(
                run(ReachabilityMode::Matrix),
                run(ReachabilityMode::Clocks),
                "{} ablation {ablation:?}: counts differ",
                bench.id
            );
        }
    }
}

/// Trace files round-trip through the on-disk line format.
#[test]
fn trace_files_roundtrip() {
    let bench = dcatch::benchmark("CA-1011").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default().with_seed(bench.seed),
    )
    .unwrap();
    let mut names = dcatch_trace::Names::new();
    for (i, line) in run.trace.to_lines().lines().enumerate() {
        let rec = dcatch_trace::parse_record(line, &mut names)
            .unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert_eq!(dcatch_trace::format_record(&rec, &names), line);
    }
}

/// HB analysis on a real benchmark trace: every edge respects execution
/// order and the graph is acyclic by construction (seq-ordered edges).
#[test]
fn hb_graph_edges_respect_execution_order() {
    let bench = dcatch::benchmark("HB-4539").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default().with_seed(bench.seed),
    )
    .unwrap();
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
    for v in 0..hb.vertex_count() {
        for (succ, _) in hb.successors(v) {
            let (a, b) = (&hb.trace().records()[v], &hb.trace().records()[succ]);
            assert!(a.seq <= b.seq, "edge {v}→{succ} goes backwards");
        }
    }
}

/// The Figure 3 chain: on HB-4539's trace, the split-side `list_add` (W)
/// happens before the watcher's `list_is_empty` (R) through a chain using
/// thread, RPC, event, and push edges — and the pair is therefore *not*
/// reported as a candidate.
#[test]
fn figure3_chain_orders_w_before_r() {
    use dcatch::EdgeRule;
    let bench = dcatch::benchmark("HB-4539").unwrap();
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default().with_seed(bench.seed),
    )
    .unwrap();
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
    let trace = hb.trace();
    let on_regions = |l: &dcatch_trace::MemLoc| trace.names().name(l.object) == "regionsToOpen";
    let w = trace
        .records()
        .iter()
        .position(|r| r.kind.is_write() && r.kind.mem_loc().is_some_and(on_regions))
        .expect("W = regionsToOpen.add");
    let r = trace
        .records()
        .iter()
        .position(|rec| !rec.kind.is_write() && rec.kind.mem_loc().is_some_and(on_regions))
        .expect("R = regionsToOpen.isEmpty");
    assert!(hb.happens_before(w, r), "W must be ordered before R");
    let chain = hb.explain(w, r).expect("an explain chain exists");
    let rules: std::collections::BTreeSet<String> =
        chain.iter().map(|&(_, rule)| format!("{rule:?}")).collect();
    for needed in ["Fork", "Mrpc", "Eenq", "Mpush"] {
        assert!(
            rules.contains(needed),
            "figure-3 chain must use {needed}; got {rules:?}"
        );
    }
    let _ = EdgeRule::Program;
}
