//! HB-graph construction and reachability cost versus trace size — the
//! quadratic-memory, near-linear-time behaviour behind paper §3.2.2 and
//! Table 6's "Trace Analysis" column ("it scales well, roughly linearly,
//! with the trace size"). Writes `BENCH_hbgraph.json`.

use dcatch::{find_candidates, HbAnalysis, HbConfig, ReachabilityMode, SimConfig, World};
use dcatch_bench::harness::Harness;
use dcatch_model::{FuncId, NodeId, StmtId};
use dcatch_trace::{
    CallStack, EventId, ExecCtx, HandlerKind, OpKind, QueueInfo, Record, TaskId, TraceSet,
};

/// Builds a trace whose `Eserial` fixed point needs one round per queue
/// layer: a producer enqueues `events` events onto single-consumer queue
/// `q0`, and the handler of the i-th event on `q<j>` creates the i-th
/// event of `q<j+1>`. `Create(e_{j,a}) ⇒ Create(e_{j,b})` only becomes
/// visible once layer `j-1`'s `End ⇒ Begin` edges exist, so the old
/// full-recompute implementation pays a complete reachability sweep per
/// layer — the worst case the incremental propagation is built for.
fn layered_queue_trace(layers: usize, events: usize) -> TraceSet {
    let node = NodeId(0);
    let task = |index: u32| TaskId { node, index };
    let event = |layer: usize, i: usize| EventId((layer * events + i) as u64);
    let mut seq = 0u64;
    let mut rec = |task: TaskId, ctx: ExecCtx, kind: OpKind| {
        let r = Record {
            seq,
            task,
            ctx,
            kind,
            stack: CallStack(vec![StmtId {
                func: FuncId(0),
                idx: seq as u32,
            }]),
        };
        seq += 1;
        r
    };
    let mut records = Vec::new();
    // producer enqueues every layer-0 event in program order
    for i in 0..events {
        records.push(rec(
            task(0),
            ExecCtx::Regular,
            OpKind::EventCreate { event: event(0, i) },
        ));
    }
    // layer j's single consumer handles its events in order; each handler
    // enqueues the matching event of layer j+1
    let mut instance = 0u64;
    for layer in 0..layers {
        for i in 0..events {
            instance += 1;
            let ctx = ExecCtx::Handler {
                kind: HandlerKind::Event,
                instance,
            };
            let worker = task(1 + layer as u32);
            records.push(rec(
                worker,
                ctx,
                OpKind::EventBegin {
                    event: event(layer, i),
                },
            ));
            if layer + 1 < layers {
                records.push(rec(
                    worker,
                    ctx,
                    OpKind::EventCreate {
                        event: event(layer + 1, i),
                    },
                ));
            }
            records.push(rec(
                worker,
                ctx,
                OpKind::EventEnd {
                    event: event(layer, i),
                },
            ));
        }
    }
    let mut trace: TraceSet = records.into_iter().collect();
    for layer in 0..layers {
        let queue = format!("q{layer}");
        trace.register_queue(node, queue.clone(), QueueInfo { consumers: 1 });
        for i in 0..events {
            trace.register_event(event(layer, i).0, node, &queue);
        }
    }
    trace
}

fn main() {
    let mut h = Harness::new("hbgraph");

    h.group("eserial_fixed_point");
    for (layers, events) in [(4usize, 32usize), (8, 64), (12, 96), (16, 128)] {
        let trace = layered_queue_trace(layers, events);
        let n = trace.len();
        h.bench(&format!("layers{layers}_events{events}_{n}rec"), 10, || {
            let hb = HbAnalysis::build(trace.clone(), &HbConfig::default()).unwrap();
            hb.edge_count()
        });
    }

    h.group("hb_build_vs_trace_size");
    for scale in [1u32, 4, 8, 16] {
        let bench = dcatch::all_benchmarks_scaled(scale)
            .into_iter()
            .find(|b| b.id == "MR-3274")
            .unwrap();
        let cfg = SimConfig::default()
            .with_seed(bench.seed)
            .with_full_tracing();
        let run = World::run_once(&bench.program, &bench.topology, cfg).unwrap();
        let records = run.trace.len();
        h.bench(&format!("{records}rec"), 10, || {
            let hb = HbAnalysis::build(run.trace.clone(), &HbConfig::default()).unwrap();
            hb.edge_count()
        });
    }

    h.group("candidate_detection");
    for id in ["MR-3274", "HB-4539", "ZK-1270"] {
        let bench = dcatch::benchmark(id).unwrap();
        let cfg = SimConfig::default().with_seed(bench.seed);
        let run = World::run_once(&bench.program, &bench.topology, cfg).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        h.bench(id, 10, || find_candidates(&hb).static_pair_count());
    }
    // The three selective traces above scan in microseconds, under
    // bench_compare.sh's 0.5 ms noise floor. These two are the regimes the
    // scan's cost lives in: one object hammered by few long threads, and
    // thousands of handler instances serialised into few HB chains.
    let mr = dcatch::all_benchmarks_scaled(16)
        .into_iter()
        .find(|b| b.id == "MR-3274")
        .unwrap();
    let (sb_program, sb_topology) = dcatch::streambench(dcatch::streambench_rounds(8_000));
    for (name, program, topology, seed) in [
        ("MR-3274_full_scale16", &mr.program, &mr.topology, mr.seed),
        ("streambench_8000rec", &sb_program, &sb_topology, 7),
    ] {
        let cfg = SimConfig::default().with_seed(seed).with_full_tracing();
        let run = World::run_once(program, topology, cfg).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        h.bench(name, 10, || find_candidates(&hb).static_pair_count());
    }

    // The two reachability engines head to head (DESIGN.md §4): same
    // trace, forced engine, measuring full build plus a strided
    // concurrent() query sweep, with the index's resident bytes recorded
    // alongside. `scripts/bench_compare.sh` gates on this group: clocks
    // must use ≥4× less memory at the largest size and stay within 1.15×
    // of the matrix's build+query time at the smallest.
    h.group("reachability");
    for scale in [2u32, 8, 16] {
        let bench = dcatch::all_benchmarks_scaled(scale)
            .into_iter()
            .find(|b| b.id == "ZK-1270")
            .unwrap();
        let cfg = SimConfig::default()
            .with_seed(bench.seed)
            .with_full_tracing();
        let run = World::run_once(&bench.program, &bench.topology, cfg).unwrap();
        let n = run.trace.len();
        for mode in [ReachabilityMode::Matrix, ReachabilityMode::Clocks] {
            let hb_cfg = HbConfig {
                reachability: mode,
                ..HbConfig::default()
            };
            let bytes = HbAnalysis::build(run.trace.clone(), &hb_cfg)
                .unwrap()
                .reach_bytes() as u64;
            h.bench_with_bytes(&format!("{mode}_{n}rec"), 10, bytes, || {
                let hb = HbAnalysis::build(run.trace.clone(), &hb_cfg).unwrap();
                // identical strided query sweep under both engines
                let step = (n / 192).max(1);
                let mut concurrent = 0usize;
                let mut i = 0;
                while i < n {
                    let mut j = i + step;
                    while j < n {
                        concurrent += usize::from(hb.concurrent(i, j));
                        j += step;
                    }
                    i += step;
                }
                concurrent
            });
        }
    }

    h.finish();
}
