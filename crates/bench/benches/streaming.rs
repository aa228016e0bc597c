//! Streaming vs offline detection: time and resident memory as the trace
//! grows (the `--streaming` headline — full detection in O(window)
//! memory). Writes `BENCH_streaming.json`.
//!
//! `scripts/bench_compare.sh` hard-gates the `streaming` group within the
//! current document (bytes are deterministic): at the largest paired
//! size the online detector's peak resident bytes must undercut the
//! offline mode's materialized footprint (trace + reachability index) by
//! ≥8×, and the online footprint must stay sublinear — growing by less
//! than a quarter of the record-count growth across the sweep.

use dcatch::{
    find_candidates, HbAnalysis, HbConfig, OnlineDetector, OnlineOptions, Pipeline,
    PipelineOptions, ReachabilityMode, SimConfig, World,
};
use dcatch_bench::harness::Harness;

fn main() {
    let mut h = Harness::new("streaming");

    // The synthetic ping-pong chain: every round retires, so the online
    // window is O(1) while the offline mode materializes the whole trace
    // and a reachability index over it.
    h.group("streaming");
    for records in [30_000u64, 120_000, 480_000] {
        let (p, topo) = dcatch::streambench(dcatch::streambench_rounds(records));
        let mut cfg = SimConfig::default().with_seed(7).with_full_tracing();
        cfg.max_steps = records.saturating_mul(32).max(2_000_000);
        let stream_with = |opts: OnlineOptions| {
            let mut sink = OnlineDetector::new(opts);
            let run = World::run_streamed(&p, &topo, cfg.clone(), &mut sink).unwrap();
            assert!(run.failures.is_empty(), "{:?}", run.failures);
            sink.finalize()
        };
        let stream = || stream_with(OnlineOptions::default());
        let out = stream();
        let n = out.records;
        assert_eq!(out.candidates.static_pair_count(), 1, "planted pair");
        h.bench_with_bytes(&format!("online_{n}rec"), 5, out.peak_bytes as u64, || {
            stream().candidates.static_pair_count()
        });
        // The offline baseline only exists at the smallest size: its
        // reachability index is `records × chains` (chains grow with the
        // ping-pong rounds), so 120k records already estimate ~9.6 GB and
        // OOM the default budget — the infeasibility the streaming mode
        // removes. Chain clocks are the offline mode's cheaper engine, so
        // the memory gate compares against its *stronger* baseline.
        if records <= 30_000 {
            // The regime where nothing retires (crash plans, Table 9
            // ablations, full-traced MR-3274): the window holds every
            // access, and an arriving one must still ask each HB chain of
            // its location one question, not walk what the window holds.
            let noretire = || {
                let mut opts = OnlineOptions::default();
                opts.engine.allow_retirement = false;
                stream_with(opts)
            };
            let held = noretire();
            assert_eq!(held.candidates.static_pair_count(), 1, "planted pair");
            assert_eq!(held.records_retired, 0);
            h.bench_with_bytes(
                &format!("online_noretire_{n}rec"),
                5,
                held.peak_bytes as u64,
                || noretire().candidates.static_pair_count(),
            );
            let hb_cfg = HbConfig {
                reachability: ReachabilityMode::Clocks,
                ..HbConfig::default()
            };
            let offline = || {
                let run = World::run_once(&p, &topo, cfg.clone()).unwrap();
                assert!(run.failures.is_empty(), "{:?}", run.failures);
                let bytes = run.trace.byte_size();
                let hb = HbAnalysis::build(run.trace, &hb_cfg).unwrap();
                let bytes = bytes + hb.reach_bytes();
                (find_candidates(&hb).static_pair_count(), bytes)
            };
            let (pairs, offline_bytes) = offline();
            assert_eq!(pairs, 1, "offline agrees on the planted pair");
            h.bench_with_bytes(&format!("offline_{n}rec"), 5, offline_bytes as u64, || {
                offline().0
            });
        }
    }

    // The two pipeline modes end to end on a paper benchmark (detection
    // stages only; triggering is mode-independent).
    h.group("pipeline_modes");
    for id in ["MR-3274", "ZK-1270"] {
        let bench = dcatch::all_benchmarks_scaled(8)
            .into_iter()
            .find(|b| b.id == id)
            .unwrap();
        for streaming in [false, true] {
            let opts = PipelineOptions {
                streaming,
                ..PipelineOptions::fast()
            };
            let mode = if streaming { "streaming" } else { "offline" };
            h.bench(&format!("{id}_{mode}"), 5, || {
                Pipeline::run(&bench, &opts).unwrap().lp_static
            });
        }
    }

    h.finish();
}
