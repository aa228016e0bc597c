//! The all-pairs candidate scan as the oracle for `find_candidates`.
//!
//! `find_candidates` never visits an HB-ordered pair: it replays the
//! online window's arrival-order chain cover over the stored trace
//! (DESIGN.md §4). The scan it replaced — every same-object pair in trace
//! order, filtered one by one — lives on here, written against public API
//! only, and the two must produce *equal* `CandidateSet`s: static pairs,
//! callstack pairs, representative sites, dynamic counts.
//! `OnlineDetector`'s window is held to the same oracle and the same work
//! bound, and on the seven benchmarks to the replay's exact work.

use std::collections::{BTreeMap, BTreeSet};

use dcatch::{
    apply_ablation, find_candidates, Ablation, AccessSite, Candidate, CandidateSet, FaultPlan,
    FocusConfig, HbAnalysis, HbConfig, OnlineDetector, OnlineOptions, ReachabilityMode, SimConfig,
    TraceSet, TraceSink, TracingMode, World,
};
use dcatch_hb::FrontierOptions;
use dcatch_model::{FuncId, NodeId, StmtId};
use dcatch_obs::SmallRng;
use dcatch_trace::{
    ExecCtx, HandlerKind, MemLoc, MemSpace, MsgId, Names, OpKind, Record, StackId, TaskId,
};

const ENGINES: [ReachabilityMode; 2] = [ReachabilityMode::Matrix, ReachabilityMode::Clocks];

/// The O(accesses²) scan: groups by `(space, object name)`, walks every
/// pair `i < j` of a group and applies the filters cheapest first.
/// Collecting single-pair candidates in encounter order makes
/// `CandidateSet`'s own merge keep the first pair as the representative.
fn all_pairs(hb: &HbAnalysis) -> CandidateSet {
    let (records, names) = (hb.trace().records(), hb.trace().names());
    let mut groups: BTreeMap<(bool, &str), Vec<usize>> = BTreeMap::new();
    for idx in hb.trace().mem_access_indices() {
        let loc = records[idx].kind.mem_loc().expect("memory access");
        let key = (matches!(loc.space, MemSpace::Zk), names.name(loc.object));
        groups.entry(key).or_default().push(idx);
    }
    let site = |idx: usize| {
        let r = &records[idx];
        AccessSite {
            index: idx,
            stmt: names.leaf(r.stack).expect("checked"),
            stack: names.stack(r.stack),
            task: r.task,
            ctx: r.ctx,
            loc: names.location(r.kind.mem_loc().expect("memory access")),
            is_write: r.kind.is_write(),
        }
    };
    let mut dynamic_pairs = Vec::new();
    for indices in groups.values() {
        for (pos, &i) in indices.iter().enumerate() {
            for &j in &indices[pos + 1..] {
                let (ri, rj) = (&records[i], &records[j]);
                if ri.task == rj.task && ri.ctx == rj.ctx {
                    continue;
                }
                if !ri.kind.is_write() && !rj.kind.is_write() {
                    continue;
                }
                let (li, lj) = (ri.kind.mem_loc().unwrap(), rj.kind.mem_loc().unwrap());
                if !li.conflicts_with(lj) {
                    continue;
                }
                let (Some(si), Some(sj)) = (names.leaf(ri.stack), names.leaf(rj.stack)) else {
                    continue;
                };
                if !hb.concurrent(i, j) {
                    continue;
                }
                let (first, second) = if (si, i) <= (sj, j) { (i, j) } else { (j, i) };
                let (sa, sb) = (ri.stack, rj.stack);
                dynamic_pairs.push(Candidate {
                    static_pair: if si <= sj { (si, sj) } else { (sj, si) },
                    // an unordered pair of ids, smaller first
                    stack_pairs: BTreeSet::from([(sa.min(sb), sa.max(sb))]),
                    rep: (site(first), site(second)),
                    dynamic_count: 1,
                });
            }
        }
    }
    dynamic_pairs.into_iter().collect()
}

fn assert_same_set(label: &str, new: &CandidateSet, old: &CandidateSet) {
    assert_eq!(
        new.static_pair_count(),
        old.static_pair_count(),
        "{label}: static pairs"
    );
    for (n, o) in new.iter().zip(old.iter()) {
        assert_eq!(n, o, "{label}");
    }
}

/// Scans `hb` both ways; returns the dynamic pair count for callers that
/// want to know the case was not vacuous.
fn assert_scan_matches_oracle(label: &str, hb: &HbAnalysis) -> usize {
    let old = all_pairs(hb);
    assert_same_set(label, &find_candidates(hb), &old);
    old.iter().map(|c| c.dynamic_count).sum()
}

/// A hand-built trace carries no `StreamControl`, which retirement needs:
/// such a trace goes through with `allow_retirement` off.
fn online(sweep_every: usize, allow_retirement: bool) -> OnlineDetector {
    OnlineDetector::new(OnlineOptions {
        sweep_every,
        engine: FrontierOptions {
            allow_retirement,
            ..FrontierOptions::default()
        },
        ..OnlineOptions::default()
    })
}

fn scan_counters() -> [u64; 3] {
    [
        dcatch_obs::counter!("detect_scan_pairs_examined_total").get(),
        dcatch_obs::counter!("detect_scan_hb_queries_total").get(),
        dcatch_obs::counter!("detect_scan_chains_total").get(),
    ]
}

/// The scan work done since `before` was read: pairs examined, HB
/// queries, chains.
fn scan_work_since(before: [u64; 3]) -> [u64; 3] {
    let after = scan_counters();
    [0, 1, 2].map(|i| after[i] - before[i])
}

fn build(trace: TraceSet, reachability: ReachabilityMode) -> HbAnalysis {
    let cfg = HbConfig {
        reachability,
        ..HbConfig::default()
    };
    HbAnalysis::build(trace, &cfg).expect("default budget fits")
}

/// `matrix ≡ clocks` on every ordered pair: a matrix row is the OR of the
/// predecessors the builder's engine *lists*, a clock row the joins it
/// *performs*.
fn assert_indexes_agree(label: &str, matrix: &HbAnalysis, clocks: &HbAnalysis) {
    assert_eq!(matrix.reachability(), ReachabilityMode::Matrix);
    assert_eq!(clocks.reachability(), ReachabilityMode::Clocks);
    for a in 0..matrix.vertex_count() {
        for b in 0..matrix.vertex_count() {
            let (m, c) = (matrix.happens_before(a, b), clocks.happens_before(a, b));
            assert_eq!(m, c, "{label}: indexes disagree on hb({a}, {b})");
        }
    }
}

fn config(bench: &dcatch::Benchmark, tracing: TracingMode, faults: FaultPlan) -> SimConfig {
    let mut cfg = SimConfig::default()
        .with_seed(bench.seed)
        .with_faults(faults);
    cfg.tracing = tracing;
    cfg
}

fn traced(bench: &dcatch::Benchmark, tracing: TracingMode, faults: FaultPlan) -> TraceSet {
    let cfg = config(bench, tracing, faults);
    World::run_once(&bench.program, &bench.topology, cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.id))
        .trace
}

/// The scan work of the same run streamed through an `OnlineDetector`
/// that retires nothing: its window ends up holding every access, as the
/// replay's covers do.
fn streamed_scan_work(bench: &dcatch::Benchmark, tracing: TracingMode) -> [u64; 3] {
    let cfg = config(bench, tracing, FaultPlan::default());
    let mut sink = online(OnlineOptions::default().sweep_every, false);
    let before = scan_counters();
    World::run_streamed(&bench.program, &bench.topology, cfg, &mut sink)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.id));
    sink.finalize();
    scan_work_since(before)
}

#[test]
fn seven_benchmarks_both_tracing_modes_both_engines() {
    let mut dynamic = 0;
    for scale in [1, 3] {
        for bench in dcatch::all_benchmarks_scaled(scale) {
            for tracing in [TracingMode::Selective, TracingMode::Full] {
                let trace = traced(&bench, tracing, FaultPlan::default());
                // one scan: the replay does the streamed pass's work, not
                // only finds its pairs
                let streamed = streamed_scan_work(&bench, tracing);
                for engine in ENGINES {
                    let label = format!("{} scale {scale} {tracing:?} {engine}", bench.id);
                    let hb = build(trace.clone(), engine);
                    let before = scan_counters();
                    dynamic += assert_scan_matches_oracle(&label, &hb);
                    assert_eq!(scan_work_since(before), streamed, "{label}: scan work");
                }
            }
        }
    }
    assert!(dynamic > 0);
}

/// Demoted handler contexts merge program-order groups, dropped records
/// remove edges: both change the chain cover.
#[test]
fn table9_ablations() {
    for bench in dcatch::all_benchmarks() {
        for tracing in [TracingMode::Selective, TracingMode::Full] {
            let trace = traced(&bench, tracing, FaultPlan::default());
            for ablation in Ablation::TABLE9 {
                let ablated = apply_ablation(trace.clone(), ablation);
                for engine in ENGINES {
                    let label = format!("{} {tracing:?} {} {engine}", bench.id, ablation.label());
                    assert_scan_matches_oracle(&label, &build(ablated.clone(), engine));
                }
            }
        }
    }
}

/// Handler-heavy: one program-order group per message, serialised only by
/// the socket chain.
#[test]
fn streambench_handler_chains() {
    let (program, topology) = dcatch::streambench(dcatch::streambench_rounds(2_400));
    let cfg = SimConfig::default().with_seed(7).with_full_tracing();
    let trace = World::run_once(&program, &topology, cfg).unwrap().trace;
    assert!(trace.len() >= 2_000, "{} records", trace.len());
    for engine in ENGINES {
        let dynamic = assert_scan_matches_oracle("streambench", &build(trace.clone(), engine));
        assert!(dynamic > 0, "the planted racer pair");
    }
}

/// Generated protocol scenarios under their own fault plans (delays,
/// duplicated messages, RPC timeouts — the generator never crashes a node).
#[test]
fn synth_scenarios_with_fault_plans() {
    let specs = dcatch::batch_specs(&dcatch::SynthBatchConfig {
        base_seed: 340,
        count: 4,
        ..dcatch::SynthBatchConfig::default()
    });
    assert_eq!(specs.len(), 16);
    let mut faulted = 0;
    for spec in &specs {
        let scenario = dcatch_apps::synth::generate(spec);
        let faults = FaultPlan::parse(&spec.fault_plan).expect("generated plans parse");
        faulted += usize::from(faults != FaultPlan::default());
        let trace = traced(&scenario.bench, TracingMode::Full, faults);
        for engine in ENGINES {
            let label = format!("{} {engine}", spec.id());
            assert_scan_matches_oracle(&label, &build(trace.clone(), engine));
        }
    }
    assert!(faulted > 0, "no scenario of the batch carries a fault plan");
}

/// The per-system fault matrix: its crash plans add `Crash` edges that
/// fan in from, and out to, every chain of the crashed node.
#[test]
fn benchmark_fault_matrix_with_crash_edges() {
    let mut crashes = 0;
    for bench in dcatch::all_benchmarks() {
        for scenario in dcatch::fault_scenarios(&bench) {
            let trace = traced(&bench, TracingMode::Full, scenario.plan.clone());
            crashes += trace.count_tag("nc");
            for engine in ENGINES {
                let label = format!("{} {} {engine}", bench.id, scenario.name);
                assert_scan_matches_oracle(&label, &build(trace.clone(), engine));
            }
        }
    }
    assert!(crashes > 0, "no fault scenario crashed a node");
}

/// Loop-sync edges arrive through `add_edges_and_rebuild` after the first
/// scan; the re-scan runs on the grown index.
#[test]
fn rescan_after_loop_sync_edges() {
    let mut inferred = 0;
    for bench in dcatch::all_benchmarks() {
        for engine in ENGINES {
            let cfg = SimConfig::default().with_seed(bench.seed);
            let trace = traced(&bench, TracingMode::Selective, FaultPlan::default());
            let mut hb = build(trace, engine);
            let first = find_candidates(&hb);
            let mut rerun = |objects: &BTreeSet<String>| {
                let focus = cfg
                    .clone()
                    .with_focus(FocusConfig::on(objects.iter().cloned()));
                World::run_once(&bench.program, &bench.topology, focus)
                    .unwrap()
                    .trace
            };
            let (_, result) =
                dcatch_detect::analyze_loop_sync(&bench.program, &mut hb, first, &mut rerun);
            inferred += result.edges.len();
            assert_scan_matches_oracle(&format!("{} loop-sync {engine}", bench.id), &hb);
        }
    }
    assert!(inferred > 0, "no benchmark inferred a loop-sync edge");
}

// ---------------------------------------------------------------------------
// hand-built traces

fn task(node: u32, index: u32) -> TaskId {
    TaskId {
        node: NodeId(node),
        index,
    }
}

fn stack_of(names: &mut Names, stmt: u32) -> StackId {
    names.stack_of(&[StmtId {
        func: FuncId(0),
        idx: stmt,
    }])
}

/// A random trace aimed at the window logic: a handful of objects shared
/// by many program-order groups (handler instances of few tasks on up to
/// three nodes), keyed and key-less map accesses, heap objects whose name
/// repeats across nodes, zknodes, read-only tasks, accesses without a
/// statement, and socket edges as the only cross-chain order.
fn random_trace(rng: &mut SmallRng) -> TraceSet {
    let nodes = 1 + rng.gen_range(3) as u32;
    let tasks: Vec<TaskId> = (0..2 + rng.gen_range(6) as u32)
        .map(|i| task(i % nodes, i / nodes))
        .collect();
    let read_only = rng.gen_range(tasks.len());
    let mut instance = vec![0u64; tasks.len()];
    let mut in_flight: Vec<u64> = Vec::new();
    let mut trace = TraceSet::new();
    let names = trace.names_mut();
    let objects = [names.intern("jobs"), names.intern("state")];
    let keys = [None, Some(names.key("k1")), Some(names.key("k2"))];
    for seq in 0..(40 + rng.gen_range(260)) as u64 {
        let t = rng.gen_range(tasks.len());
        if rng.gen_range(8) == 0 {
            instance[t] += 1; // next handler instance: a new program-order group
        }
        let ctx = match instance[t] {
            0 => ExecCtx::Regular,
            n => ExecCtx::Handler {
                kind: HandlerKind::Socket,
                instance: n * 16 + t as u64,
            },
        };
        let kind = match rng.gen_range(10) {
            0 => {
                in_flight.push(seq);
                OpKind::SocketSend { msg: MsgId(seq) }
            }
            1 if !in_flight.is_empty() => OpKind::SocketRecv {
                msg: MsgId(in_flight.swap_remove(rng.gen_range(in_flight.len()))),
            },
            _ => {
                let zk = rng.gen_range(6) == 0;
                let loc = MemLoc {
                    space: if zk { MemSpace::Zk } else { MemSpace::Heap },
                    node: tasks[t].node,
                    object: objects[rng.gen_range(2)],
                    key: keys[rng.gen_range(3)],
                };
                if t == read_only || rng.gen_range(3) == 0 {
                    OpKind::MemRead { loc, value: None }
                } else {
                    OpKind::MemWrite { loc, value: None }
                }
            }
        };
        let stack = if rng.gen_range(12) == 0 {
            StackId::EMPTY
        } else {
            // few statements, so static pairs recur across objects and nodes
            stack_of(trace.names_mut(), rng.gen_range(6) as u32)
        };
        trace.push(Record {
            seq,
            task: tasks[t],
            ctx,
            kind,
            stack,
        });
    }
    trace
}

#[test]
fn random_traces_with_extra_edges() {
    let mut dynamic = 0;
    for case in 0u64..200 {
        let mut rng = SmallRng::seed_from_u64(0x5CA7 ^ case);
        let trace = random_trace(&mut rng);
        let n = trace.len();
        let extra: Vec<(usize, usize)> = (0..rng.gen_range(6))
            .map(|_| (rng.gen_range(n), rng.gen_range(n)))
            .collect();
        for engine in ENGINES {
            let mut hb = build(trace.clone(), engine);
            dynamic += assert_scan_matches_oracle(&format!("case {case} {engine}"), &hb);
            hb.add_edges_and_rebuild(&extra);
            assert_scan_matches_oracle(&format!("case {case} {engine} + {extra:?}"), &hb);
        }
    }
    assert!(
        dynamic > 1_000,
        "only {dynamic} dynamic pairs over all cases"
    );
}

/// The same 200 traces record by record through the online window.
#[test]
fn random_traces_through_the_online_window() {
    let mut dynamic = 0;
    for case in 0u64..200 {
        let trace = random_trace(&mut SmallRng::seed_from_u64(0x5CA7 ^ case));
        let old = all_pairs(&build(trace.clone(), ReachabilityMode::Clocks));
        dynamic += old.iter().map(|c| c.dynamic_count).sum::<usize>();
        for sweep_every in [1, OnlineOptions::default().sweep_every] {
            let mut sink = online(sweep_every, false);
            sink.names(trace.names());
            for r in trace.records() {
                sink.record(r);
            }
            let label = format!("case {case} online, sweep every {sweep_every}");
            assert_same_set(&label, &sink.finalize().candidates, &old);
        }
    }
    assert!(dynamic > 500, "only {dynamic} dynamic pairs over all cases");
}

/// The slot invariant on the same 200 traces: every slot is an HB-ordered
/// chain (each record ordered after the one before it — asked of the
/// matrix, whose rows are made of listed edges and know no slots). And the
/// two indexes answer alike on every pair: the engine the builder drives
/// lists exactly the predecessors it joins.
#[test]
fn random_traces_keep_the_slot_invariant() {
    let mut folded = 0;
    for case in 0u64..200 {
        let trace = random_trace(&mut SmallRng::seed_from_u64(0x5CA7 ^ case));
        let [matrix, clocks] = ENGINES.map(|engine| build(trace.clone(), engine));
        assert_indexes_agree(&format!("case {case}"), &matrix, &clocks);
        let mut tails: Vec<(usize, u32)> = Vec::new();
        for v in 0..trace.len() {
            let (slot, pos) = clocks.slot_of(v);
            assert_eq!(matrix.slot_of(v), (slot, pos), "case {case}: record {v}");
            match tails.get_mut(slot as usize) {
                Some((u, p)) => {
                    assert_eq!(pos, *p + 1, "case {case}: slot {slot} at {v}");
                    assert!(matrix.happens_before(*u, v), "case {case}: {u} ⇏ {v}");
                    (*u, *p) = (v, pos);
                }
                None => {
                    assert_eq!((slot as usize, pos), (tails.len(), 1), "case {case}");
                    tails.push((v, pos));
                }
            }
        }
        let groups: BTreeSet<_> = trace.records().iter().map(|r| (r.task, r.ctx)).collect();
        assert!(tails.len() <= groups.len(), "case {case}");
        folded += groups.len() - tails.len();
    }
    assert!(
        folded > 0,
        "no program-order chain was folded into another's slot"
    );
}

/// The work bound: thread A forks thread B before its last access and
/// sends B a message after it; B receives after its first `K` accesses.
/// Of the 5 000 × 5 000 pairs on the one object exactly `K` are concurrent
/// — A's last access against B's first `K`. The scan examines those and
/// no other pair, and asks the index a bounded number of questions per
/// access.
#[test]
fn ordered_pairs_are_never_examined() {
    const PER_THREAD: u32 = 5_000;
    const K: u32 = 7;
    let (a, b) = (task(0, 0), task(0, 1));
    let mut trace = TraceSet::new();
    let x = trace.names_mut().intern("x");
    let mut push = |task: TaskId, kind: OpKind, stmt: u32| {
        let stack = stack_of(trace.names_mut(), stmt);
        trace.push(Record {
            seq: trace.len() as u64,
            task,
            ctx: ExecCtx::Regular,
            kind,
            stack,
        });
    };
    let write = || OpKind::MemWrite {
        loc: MemLoc {
            space: MemSpace::Heap,
            node: NodeId(0),
            object: x,
            key: None,
        },
        value: None,
    };
    for _ in 1..PER_THREAD {
        push(a, write(), 1);
    }
    push(a, OpKind::ThreadCreate { child: b }, 0);
    push(b, OpKind::ThreadBegin, 0);
    for _ in 0..K {
        push(b, write(), 2);
    }
    push(a, write(), 1);
    push(a, OpKind::SocketSend { msg: MsgId(1) }, 0);
    push(b, OpKind::SocketRecv { msg: MsgId(1) }, 0);
    for _ in K..PER_THREAD {
        push(b, write(), 2);
    }
    let accesses = u64::from(2 * PER_THREAD);
    assert_eq!(trace.mem_access_indices().len() as u64, accesses);

    for engine in ENGINES {
        let hb = build(trace.clone(), engine);
        let before = scan_counters();
        let found = find_candidates(&hb);
        let [examined, queries, chains] = scan_work_since(before);
        assert_eq!(found.static_pair_count(), 1);
        assert_eq!(found.iter().next().unwrap().dynamic_count, K as usize);
        assert_eq!(examined, u64::from(K), "{engine}: pairs examined");
        assert!(
            queries <= 4 * accesses + u64::from(K),
            "{engine}: {queries} HB queries for {accesses} accesses"
        );
        assert_eq!(chains, 2, "{engine}: HB-ordered chains on the one object");
    }
}

/// The online twin: on `streambench` every handler instance is its own
/// program-order chain, yet HB folds each location into a chain or two.
/// An arriving access asks one question per HB chain of its location —
/// whether or not anything ever retires — and the only pair examined is
/// the planted one.
#[test]
fn online_window_never_walks_ordered_chains() {
    let (program, topology) = dcatch::streambench(dcatch::streambench_rounds(12_000));
    for allow_retirement in [true, false] {
        let cfg = SimConfig::default().with_seed(7).with_full_tracing();
        let mut sink = online(OnlineOptions::default().sweep_every, allow_retirement);
        let before = scan_counters();
        let run = World::run_streamed(&program, &topology, cfg, &mut sink).unwrap();
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        let out = sink.finalize();
        let [examined, queries, chains] = scan_work_since(before);
        let label = format!("retirement {allow_retirement}");
        assert!(out.records >= 12_000, "{label}: {} records", out.records);
        assert_eq!(
            out.candidates.static_pair_count(),
            1,
            "{label}: planted pair"
        );
        assert_eq!(examined, 1, "{label}: pairs examined");
        let accesses = out.stats.mem as u64;
        assert!(
            queries <= 4 * accesses,
            "{label}: {queries} clock look-ups for {accesses} accesses"
        );
        if !allow_retirement {
            assert!(chains <= 8, "{label}: {chains} HB-ordered chains opened");
        }
    }
}
