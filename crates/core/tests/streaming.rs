//! Online ≡ offline: the streaming pipeline must report *exactly* the
//! candidate sets the materialize-then-analyze pipeline reports — same
//! static pairs, same representative dynamic pairs with their placement
//! facts, same callstack pairs, same trace bookkeeping, same trigger plans
//! and, when triggering runs, same verdicts — across the seven paper
//! benchmarks, workload scales, seeds, the per-system fault matrix, and
//! the Table 9 HB-rule ablations. `DCATCH_SOAK=1` widens every matrix but
//! the last.

use dcatch::{
    Ablation, FaultPlan, HbAnalysis, HbConfig, Pipeline, PipelineError, PipelineOptions,
    ReachabilityMode, SimConfig, TraceSink, TracingMode, World,
};
use dcatch_hb::{Arrival, FrontierEngine, FrontierOptions};
use dcatch_model::NodeId;
use dcatch_trace::{CollectSink, ExecCtx, Location, Names, OpKind, Record, StreamControl};

fn soak() -> bool {
    std::env::var_os("DCATCH_SOAK").is_some()
}

fn opts(streaming: bool) -> PipelineOptions {
    PipelineOptions {
        streaming,
        ..PipelineOptions::fast()
    }
}

/// Everything detection-relevant in a report, normalized for comparison.
/// Stage timings, spans, and metrics legitimately differ between modes;
/// candidates, plans, verdicts, counts, and trace bookkeeping may not.
fn fingerprint(r: &dcatch::BenchmarkReport) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "stats={:?} bytes={} ta={}/{} sp={}/{} lp={}/{}\n",
        r.trace_stats,
        r.trace_bytes,
        r.ta_static,
        r.ta_stacks,
        r.sp_static,
        r.sp_stacks,
        r.lp_static,
        r.lp_stacks
    );
    for rep in &r.reports {
        let c = &rep.candidate;
        let plan = dcatch::plan_candidate(c);
        writeln!(
            s,
            "{:?} rep={:?} stacks={} dyn={} impacts={} known={} plan={:?} {:?} verdict={:?}",
            c.static_pair,
            c.rep,
            c.stack_pairs.len(),
            c.dynamic_count,
            rep.impacts.len(),
            rep.known_bug_object,
            plan.sides,
            plan.rules,
            rep.verdict
        )
        .unwrap();
    }
    s
}

fn run_both(
    bench: &dcatch::Benchmark,
    mutate: impl Fn(&mut PipelineOptions),
) -> (
    Result<dcatch::BenchmarkReport, PipelineError>,
    Result<dcatch::BenchmarkReport, PipelineError>,
) {
    let mut offline = opts(false);
    let mut online = opts(true);
    mutate(&mut offline);
    mutate(&mut online);
    (
        Pipeline::run(bench, &offline),
        Pipeline::run(bench, &online),
    )
}

fn assert_equivalent(
    bench_id: &str,
    label: &str,
    bench: &dcatch::Benchmark,
    mutate: impl Fn(&mut PipelineOptions),
) {
    let (offline, online) = run_both(bench, mutate);
    match (offline, online) {
        (Ok(off), Ok(on)) => {
            let s = on.streaming.expect("streaming run reports window stats");
            assert_eq!(
                s.records_forced, 0,
                "{bench_id} {label}: unbounded window must never force-evict"
            );
            assert_eq!(
                fingerprint(&off),
                fingerprint(&on),
                "{bench_id} {label}: streaming diverged from offline"
            );
            assert!(off.streaming.is_none(), "offline run has no window stats");
        }
        // both modes must fail the same way (e.g. a fault plan that
        // wedges the traced run)
        (Err(off), Err(on)) => assert_eq!(
            off.exit_code(),
            on.exit_code(),
            "{bench_id} {label}: failure modes diverged"
        ),
        (off, on) => panic!(
            "{bench_id} {label}: one mode failed, the other did not: offline={off:?} online={on:?}"
        ),
    }
}

/// The core exactness contract on every paper benchmark, across scales
/// and seeds.
#[test]
fn online_equals_offline_on_all_benchmarks() {
    let scales: &[u32] = if soak() { &[1, 4, 16, 40] } else { &[1, 4] };
    let seeds: u64 = if soak() { 4 } else { 2 };
    for &scale in scales {
        for bench in dcatch::all_benchmarks_scaled(scale) {
            for case in 0..seeds {
                let seed = bench.seed ^ (case * 0x9E37_79B9);
                assert_equivalent(
                    bench.id,
                    &format!("scale={scale} seed={seed}"),
                    &bench,
                    |o| o.seed = Some(seed),
                );
            }
        }
    }
}

/// Both modes plan every candidate from the same facts, so with
/// triggering on they reach the same verdicts: on the seven benchmarks and
/// under the per-system fault matrix.
#[test]
fn online_equals_offline_with_triggering() {
    for bench in dcatch::all_benchmarks_scaled(1) {
        assert_equivalent(bench.id, "triggering", &bench, |o| o.triggering = true);
        for sc in dcatch::fault_scenarios(&bench) {
            assert_equivalent(bench.id, sc.name, &bench, |o| {
                o.triggering = true;
                o.faults = sc.plan.clone();
            });
        }
    }
}

/// `matrix ≡ clocks` on every pair of the traced run of `bench` under
/// `faults`: a matrix row is made of the predecessors the builder's engine
/// *lists*, a clock row of the joins it *performs*, so this is the check
/// that the two are the same edges — duplicated deliveries, crash fan-in
/// and reborn chains included.
fn assert_indexes_agree(bench: &dcatch::Benchmark, tracing: TracingMode, faults: &FaultPlan) {
    let mut cfg = SimConfig::default()
        .with_seed(bench.seed)
        .with_faults(faults.clone());
    cfg.tracing = tracing;
    let trace = World::run_once(&bench.program, &bench.topology, cfg)
        .unwrap()
        .trace;
    let [matrix, clocks] = [ReachabilityMode::Matrix, ReachabilityMode::Clocks].map(|mode| {
        let cfg = HbConfig {
            reachability: mode,
            ..HbConfig::default()
        };
        HbAnalysis::build(trace.clone(), &cfg).unwrap()
    });
    assert_eq!(matrix.edge_count(), clocks.edge_count(), "{}", bench.id);
    for a in 0..trace.len() {
        for b in 0..trace.len() {
            let (m, c) = (matrix.happens_before(a, b), clocks.happens_before(a, b));
            assert_eq!(m, c, "{} under {faults:?}: hb({a}, {b})", bench.id);
        }
    }
}

fn clocks_config() -> HbConfig {
    HbConfig {
        reachability: ReachabilityMode::Clocks,
        ..HbConfig::default()
    }
}

/// The online engine alone, sweeping as `OnlineDetector` would, beside a
/// `CollectSink` that materializes the same stream.
struct EngineSink {
    engine: FrontierEngine,
    sweep_every: usize,
    collect: CollectSink,
    arrivals: Vec<Arrival>,
    clock_len_peak: usize,
    /// Index and final clock of every `NodeCrash` record.
    crashes: Vec<(usize, Vec<u32>)>,
}

impl EngineSink {
    fn new(allow_retirement: bool, sweep_every: usize) -> EngineSink {
        EngineSink {
            engine: FrontierEngine::new(FrontierOptions {
                allow_retirement,
                ..FrontierOptions::default()
            }),
            sweep_every,
            collect: CollectSink::default(),
            arrivals: Vec::new(),
            clock_len_peak: 0,
            crashes: Vec::new(),
        }
    }

    /// As the pipeline sets the engine up under a plan that crashes nodes.
    fn crash_plan() -> EngineSink {
        EngineSink::new(false, dcatch::OnlineOptions::default().sweep_every)
    }

    fn stream(
        mut self,
        program: &dcatch::Program,
        topo: &dcatch::Topology,
        cfg: SimConfig,
    ) -> Self {
        let run = World::run_streamed(program, topo, cfg, &mut self).unwrap();
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        self
    }

    /// Demands that each crash record's clock covers exactly the earlier
    /// records the batch graph orders before it — though the engine let go
    /// of every handler chain at its `ChainDone` and reads the node's one
    /// joined clock instead — and that the engine, which did not retire,
    /// placed every record where the batch builder's engine did, which was
    /// told of no `ChainDone` and kept every chain: releasing changes
    /// nothing. Returns, per crash, how many handler records of `node` it
    /// is ordered after.
    fn crashes_ordered_as_offline(&self, node: NodeId) -> Vec<usize> {
        let trace = &self.collect.trace;
        let hb = HbAnalysis::build(trace.clone(), &clocks_config()).unwrap();
        for (v, a) in self.arrivals.iter().enumerate() {
            assert_eq!((a.slot, a.pos), hb.slot_of(v), "record {v}");
        }
        let handler_ordered = |(crash, clock): &(usize, Vec<u32>)| {
            let mut handlers = 0;
            for (i, a) in self.arrivals[..*crash].iter().enumerate() {
                let covered = clock.get(a.slot as usize).copied().unwrap_or(0) >= a.pos;
                assert_eq!(covered, hb.happens_before(i, *crash), "{i} ⇒ crash {crash}");
                let r = &trace.records()[i];
                handlers +=
                    usize::from(covered && r.task.node == node && r.ctx != ExecCtx::Regular);
            }
            handlers
        };
        self.crashes.iter().map(handler_ordered).collect()
    }
}

impl TraceSink for EngineSink {
    fn record(&mut self, record: &Record) {
        let at = self.engine.record(record, self.collect.trace.names());
        let clock = self.engine.clock(at.chain);
        self.clock_len_peak = self.clock_len_peak.max(clock.len());
        if matches!(record.kind, OpKind::NodeCrash { .. }) {
            self.crashes.push((self.arrivals.len(), clock.to_vec()));
        }
        self.arrivals.push(at);
        self.collect.record(record);
        if self.arrivals.len() % self.sweep_every == 0 {
            if let Some(bound) = self.engine.lower_bound() {
                self.engine.retire(&bound);
            }
        }
    }

    fn control(&mut self, control: StreamControl) {
        self.engine.control(&control);
        self.collect.control(control);
    }

    fn names(&mut self, names: &Names) {
        self.collect.names(names);
    }
}

/// Equivalence holds under the per-system fault matrix too — including
/// crash plans, where the window cannot retire (a crash is a spontaneous
/// causal root the frontier cannot bound in advance) but the engine still
/// forgets every handler chain as it finishes.
#[test]
fn online_equals_offline_under_fault_plans() {
    let per_bench = if soak() { usize::MAX } else { 2 };
    for bench in dcatch::all_benchmarks_scaled(1) {
        for sc in dcatch::fault_scenarios(&bench).into_iter().take(per_bench) {
            assert_equivalent(bench.id, sc.name, &bench, |o| o.faults = sc.plan.clone());
            assert_indexes_agree(&bench, TracingMode::Selective, &sc.plan);
        }
    }
    // A duplicated RPC request is served twice, and the second `RpcEnd`
    // lands after the caller's `RpcJoin`: the join is ordered after the
    // reply it actually consumed, in both modes.
    for (id, plan) in [
        ("MR-3274", "dup rpc"),
        ("MR-4637", "dup rpc"),
        ("HB-4729", "dup rpc nth=1"),
    ] {
        let bench = dcatch::benchmark(id).unwrap();
        let faults = FaultPlan::parse(plan).unwrap();
        assert_equivalent(id, plan, &bench, |o| o.faults = faults.clone());
        assert_indexes_agree(&bench, TracingMode::Selective, &faults);
    }
    // Hole (a) of DESIGN.md §14, bounded: the AM of full-traced MR-3274 ×8
    // crashes and restarts twice. Its handler chains — three run between
    // the crashes, three after — are released at their `ChainDone`, and
    // each crash record is still ordered after all that came before it
    // through the node's one joined clock.
    let bench = dcatch::all_benchmarks_scaled(8).swap_remove(3);
    assert_eq!(bench.id, "MR-3274");
    let plan = "crash node=1 at=20 restart=5\ncrash node=1 at=45 restart=5";
    let faults = FaultPlan::parse(plan).unwrap();
    assert_equivalent(bench.id, plan, &bench, |o| {
        o.tracing = TracingMode::Full;
        o.faults = faults.clone();
    });
    assert_indexes_agree(&bench, TracingMode::Full, &faults);
    let cfg = SimConfig::default()
        .with_seed(bench.seed)
        .with_full_tracing()
        .with_faults(faults);
    let sink = EngineSink::crash_plan().stream(&bench.program, &bench.topology, cfg);
    assert_eq!(sink.crashes_ordered_as_offline(NodeId(1)), [0, 3]);
    // recorded from PR 21: 3 288 B, 14 chains (parent 5 336 B, 23 — the
    // miniature has some thirty handler instances at any scale; the
    // handler-heavy bound is `streambench_clocks_are_sized_by_hb_chains`');
    // 3 384 B since `bytes()` counts the `Eserial` log, the injected-edge
    // keys and a scratch entry that carries its rule (PR 22)
    assert!(
        sink.engine.bytes() <= 4_000 && sink.engine.live_chains() <= 14,
        "{} B, {} chains",
        sink.engine.bytes(),
        sink.engine.live_chains()
    );
}

/// Clock state is sized by the HB chains of the trace, not by its handler
/// instances (one per message on `streambench`) and not by the sweep
/// cadence.
#[test]
fn streambench_clocks_are_sized_by_hb_chains() {
    let stream = |records: u64, allow_retirement: bool, sweep_every: usize| {
        let (p, topo) = dcatch::streambench(dcatch::streambench_rounds(records));
        let cfg = SimConfig::default().with_seed(7).with_full_tracing();
        EngineSink::new(allow_retirement, sweep_every).stream(&p, &topo, cfg)
    };
    // an engine that may not retire still forgets finished handler chains
    let sink = stream(60_000, false, 1_024);
    assert_eq!(sink.arrivals.len(), 60_018);
    assert!(
        sink.engine.bytes() <= 2 << 20,
        "{} B of engine state for 60 018 records",
        sink.engine.bytes()
    );
    assert!(sink.engine.chains() <= 8, "{} slots", sink.engine.chains());
    // the sweep cadence is a window knob, not a clock-length knob
    for sweep_every in [64, 1_024, 4_096] {
        let sink = stream(12_000, true, sweep_every);
        assert!(
            sink.clock_len_peak <= 8,
            "sweep every {sweep_every}: a clock of {} entries",
            sink.clock_len_peak
        );
    }
    // nor does a crash plan change that: `ping` crashes twice, its reborn
    // `boot` serves anew each time, and each crash record is ordered after
    // the hundreds of handler instances the engine has long forgotten
    // (recorded from PR 21: 2 376 B, 12 slots; the parent, which kept
    // every chain of a non-retiring run, reads 10 519 444 B in 2 115;
    // 2 384 B since PR 22's wider scratch entry)
    let (p, topo) = dcatch::streambench(dcatch::streambench_rounds(6_000));
    let faults = "crash node=1 at=2000 restart=50\ncrash node=1 at=10000 restart=50";
    let cfg = SimConfig::default()
        .with_seed(7)
        .with_full_tracing()
        .with_faults(FaultPlan::parse(faults).unwrap());
    let sink = EngineSink::crash_plan().stream(&p, &topo, cfg);
    let handlers = sink.crashes_ordered_as_offline(NodeId(1));
    assert!(handlers.len() == 2 && handlers[1] > 1_000, "{handlers:?}");
    assert!(
        sink.engine.bytes() <= 4_096 && sink.engine.chains() <= 16,
        "{} B, {} slots after a {}-record crash-plan run",
        sink.engine.bytes(),
        sink.engine.chains(),
        sink.arrivals.len()
    );
    // offline, the same slots: rows of 4 entries, not of 5 004. The
    // default's choice and the budget check are made against those rows as
    // measured, so a 113 MB matrix loses and 64 MiB is plenty
    let trace = stream(30_000, false, 1_024).collect.trace;
    assert_eq!(trace.len(), 30_018);
    let hb = HbAnalysis::build(trace.clone(), &HbConfig::default()).unwrap();
    assert_eq!(hb.reachability(), ReachabilityMode::Clocks);
    assert!(
        hb.reach_bytes() <= 1 << 20,
        "{} B of rows",
        hb.reach_bytes()
    );
    for reachability in [ReachabilityMode::Auto, ReachabilityMode::Clocks] {
        let cfg = HbConfig {
            memory_budget_bytes: 64 << 20,
            reachability,
        };
        let fits = HbAnalysis::build(trace.clone(), &cfg).map(|hb| hb.reach_bytes());
        assert_eq!(fits, Ok(hb.reach_bytes()), "{reachability}");
    }
}

/// Table 9 on a stream: every ablation, applied per record on arrival,
/// yields exactly the candidate set the offline mode finds on the ablated
/// materialized trace (ablated streams run with retirement off, like
/// crash plans — DESIGN.md §14).
#[test]
fn online_equals_offline_under_ablations() {
    for bench in dcatch::all_benchmarks_scaled(1) {
        for ablation in Ablation::TABLE9 {
            assert_equivalent(bench.id, ablation.label(), &bench, |o| {
                o.ablation = ablation
            });
        }
    }
}

/// A hard window cap is lossy by design: it may drop candidates, it must
/// never invent them, and the pipeline must record the degradation.
#[test]
fn window_cap_degrades_to_subset_and_is_recorded() {
    let bench = dcatch::benchmark("ZK-1144").unwrap();
    let (offline, online) = run_both(&bench, |o| {
        if o.streaming {
            o.stream_window = Some(2);
        }
    });
    let (off, on) = (offline.unwrap(), online.unwrap());
    let s = on.streaming.expect("streaming stats");
    assert!(s.records_forced > 0, "cap of 2 must force evictions");
    assert!(
        on.degradations
            .iter()
            .any(|d| d.stage == "streaming" && d.to == "lossy_window"),
        "forced evictions must be recorded as a degradation: {:?}",
        on.degradations
    );
    assert!(
        on.ta_static <= off.ta_static,
        "a lossy window never invents candidates"
    );
    let off_pairs: std::collections::BTreeSet<_> = off
        .reports
        .iter()
        .map(|r| r.candidate.static_pair)
        .collect();
    for rep in &on.reports {
        assert!(
            off_pairs.contains(&rep.candidate.static_pair),
            "invented candidate {:?}",
            rep.candidate.static_pair
        );
    }
    // hole (b) of DESIGN.md §14, bounded: the degradation names every
    // location an access was evicted from, and a pair the cap lost has an
    // access on one of them
    let lossy = on.degradations.iter().find(|d| d.to == "lossy_window");
    let named: Vec<&str> = lossy.unwrap().reason.split([' ', ',']).collect();
    let on_pairs: std::collections::BTreeSet<_> =
        on.reports.iter().map(|r| r.candidate.static_pair).collect();
    let mut lost = 0;
    for rep in &off.reports {
        if on_pairs.contains(&rep.candidate.static_pair) {
            continue;
        }
        lost += 1;
        let (a, b) = &rep.candidate.rep;
        let keyless = |loc: &Location| {
            let loc = Location {
                key: None,
                ..loc.clone()
            };
            loc.to_string()
        };
        assert!(
            named.contains(&&*keyless(&a.loc)) || named.contains(&&*keyless(&b.loc)),
            "{:?} was lost on {}, which {named:?} does not name",
            rep.candidate.static_pair,
            a.loc
        );
    }
    assert!(lost > 0, "a cap of 2 loses no reported pair: vacuous");
}

/// O(window) resident memory: on the synthetic streambench chain, a 10×
/// longer trace must not grow the peak window (the chain retires as it
/// goes). `DCATCH_SOAK=1` stretches to the headline 10M-record scale.
#[test]
fn streambench_window_stays_bounded() {
    let (small_records, large_records) = if soak() {
        (1_000_000, 10_000_000)
    } else {
        (30_000, 300_000)
    };
    let run = |records: u64| {
        let (p, topo) = dcatch::streambench(dcatch::streambench_rounds(records));
        let mut cfg = dcatch::SimConfig::default()
            .with_seed(7)
            .with_full_tracing();
        cfg.max_steps = records.saturating_mul(32).max(2_000_000);
        let mut sink = dcatch::OnlineDetector::new(dcatch::OnlineOptions::default());
        let run = dcatch::World::run_streamed(&p, &topo, cfg, &mut sink).unwrap();
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        sink.finalize()
    };
    let (small, large) = (run(small_records), run(large_records));
    assert!(large.records >= small.records * 9, "trace did not scale");
    assert_eq!(
        large.candidates.static_pair_count(),
        1,
        "the planted racer pair survives"
    );
    assert_eq!(large.records_forced, 0);
    assert!(large.records_retired > small.records_retired);
    // the window is a property of the protocol, not of the trace length
    assert!(
        large.window_peak < small.window_peak + small.window_peak / 4,
        "window grew with trace length: {} entries at {} records vs {} at {}",
        large.window_peak,
        large.records,
        small.window_peak,
        small.records
    );
    // …and so are its bytes. They are bounded, not flat (17–77 KB at nine
    // lengths from 30 k to 10 M records, neither end the extreme), so the
    // ceiling is a factor a 10× longer trace may not reach — an O(trace)
    // table would — and the materialized trace alone (offline holds it
    // plus an index) is at least 8× the detector's peak.
    assert!(
        large.peak_bytes < 4 * small.peak_bytes,
        "resident bytes {} → {} over records {} → {}",
        small.peak_bytes,
        large.peak_bytes,
        small.records,
        large.records
    );
    assert!(
        small.trace_bytes >= 8 * small.peak_bytes,
        "trace {} B vs online peak {} B",
        small.trace_bytes,
        small.peak_bytes
    );
}
