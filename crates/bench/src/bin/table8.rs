//! Table 8 — full (unselective) memory tracing: trace size, tracing time,
//! and trace-analysis time, which runs out of memory on the larger
//! benchmarks — the comparison justifying DCatch's selective tracing
//! (§7.4: "for 4 out of the 7 benchmarks, trace analysis will run out of
//! JVM memory (50GB of RAM) and cannot finish").
//!
//! Usage: `table8 [scale] [matrix|clocks|auto]`. The engine defaults to
//! `matrix` because the OOM rows *are* the paper's result; rerun with
//! `clocks` (or `auto`) to see the chain-clock engine finish full-trace
//! analysis on the same workloads within the same budget.

use std::time::Instant;

use dcatch::{
    find_candidates, HbAnalysis, HbConfig, ReachabilityMode, SimConfig, TracingMode, World,
};
use dcatch_bench::{fmt_bytes, fmt_duration, render_table, MEASURE_SCALE, TABLE8_BUDGET};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(MEASURE_SCALE);
    let reachability: ReachabilityMode = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("reachability engine"))
        .unwrap_or(ReachabilityMode::Matrix);
    let mut rows = Vec::new();
    for b in dcatch::all_benchmarks_scaled(scale) {
        let mut cfg = SimConfig::default().with_seed(b.seed);
        cfg.tracing = TracingMode::Full;
        let t0 = Instant::now();
        let run = World::run_once(&b.program, &b.topology, cfg).unwrap();
        let tracing_time = t0.elapsed();
        let size = run.trace.byte_size();
        let records = run.trace.len();
        let hb_cfg = HbConfig {
            memory_budget_bytes: TABLE8_BUDGET,
            reachability,
        };
        let t0 = Instant::now();
        let analysis = match HbAnalysis::build(run.trace, &hb_cfg) {
            Ok(hb) => {
                let n = find_candidates(&hb).static_pair_count();
                format!(
                    "{} ({n} pairs, reach {})",
                    fmt_duration(t0.elapsed()),
                    fmt_bytes(hb.reach_bytes())
                )
            }
            Err(_) => "Out of Memory".to_owned(),
        };
        rows.push(vec![
            b.id.to_owned(),
            fmt_bytes(size),
            records.to_string(),
            fmt_duration(tracing_time),
            analysis,
        ]);
    }
    println!("Table 8: full memory tracing results (scale {scale},");
    println!(
        "reachability budget {}, engine {reachability})\n",
        fmt_bytes(TABLE8_BUDGET)
    );
    println!(
        "{}",
        render_table(
            &[
                "BugID",
                "TraceSize",
                "Records",
                "TracingTime",
                "TraceAnalysisTime"
            ],
            &rows
        )
    );
}
