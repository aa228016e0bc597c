//! Table 6 — DCatch performance: base execution time, tracing time,
//! trace-analysis time, static-pruning time, and trace size. Run at the
//! measurement scale so the numbers are meaningful
//! (`--release` strongly recommended).
//!
//! Usage: `table6 [scale] [auto|matrix|clocks]`. The engine defaults to
//! `auto`, which on selective traces ends with the bit matrix (their clock
//! rows outgrow it) — pass `clocks` to measure trace analysis under the
//! chain-clock engine.

use dcatch::{Pipeline, PipelineOptions, ReachabilityMode};
use dcatch_bench::{fmt_bytes, fmt_duration, render_table, MEASURE_SCALE};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(MEASURE_SCALE);
    let reachability: ReachabilityMode = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("reachability engine"))
        .unwrap_or_default();
    let mut rows = Vec::new();
    for b in dcatch::all_benchmarks_scaled(scale) {
        let mut opts = PipelineOptions::fast();
        opts.measure_base = true;
        opts.hb.reachability = reachability;
        let r = Pipeline::run(&b, &opts).expect("pipeline");
        let t = r.timings;
        rows.push(vec![
            b.id.to_owned(),
            fmt_duration(t.base),
            fmt_duration(t.tracing),
            fmt_duration(t.trace_analysis),
            fmt_duration(t.static_pruning),
            fmt_duration(t.loop_sync),
            fmt_bytes(r.trace_bytes),
        ]);
    }
    println!("Table 6: DCatch performance results (workload scale {scale}, engine {reachability})");
    println!("(Base = execution without tracing; LP time reported separately,");
    println!("the paper folds it in as negligible)\n");
    println!(
        "{}",
        render_table(
            &[
                "BugID",
                "Base",
                "Tracing",
                "TraceAnalysis",
                "StaticPruning",
                "LoopSync",
                "TraceSize"
            ],
            &rows
        )
    );
}
