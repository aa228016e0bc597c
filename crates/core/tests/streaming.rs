//! Online ≡ offline: the streaming pipeline must report *exactly* the
//! candidate sets the materialize-then-analyze pipeline reports — same
//! static pairs, same representative dynamic pairs, same callstack pairs,
//! same trace bookkeeping — across the seven paper benchmarks, workload
//! scales, seeds, the per-system fault matrix, and the Table 9 HB-rule
//! ablations. `DCATCH_SOAK=1` widens every matrix but the last.

use dcatch::{Ablation, FaultPlan, Pipeline, PipelineError, PipelineOptions};

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
/// candidates, counts, and trace bookkeeping may not.
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
        writeln!(
            s,
            "{:?} rep={:?} stacks={} dyn={} impacts={} known={}",
            c.static_pair,
            c.rep,
            c.stack_pairs.len(),
            c.dynamic_count,
            rep.impacts.len(),
            rep.known_bug_object
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

/// Equivalence holds under the per-system fault matrix too — including
/// crash plans, where the engine disables retirement (a crash is a
/// spontaneous causal root the frontier cannot bound in advance).
#[test]
fn online_equals_offline_under_fault_plans() {
    let per_bench = if soak() { usize::MAX } else { 2 };
    for bench in dcatch::all_benchmarks_scaled(1) {
        for sc in dcatch::fault_scenarios(&bench).into_iter().take(per_bench) {
            assert_equivalent(bench.id, sc.name, &bench, |o| o.faults = sc.plan.clone());
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
}
