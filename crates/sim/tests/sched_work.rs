//! Scheduler work, pinned by count.
//!
//! A step is meant to cost what its instruction costs: the action list is
//! rebuilt only when readiness can have changed, so a run dominated by
//! frame-and-heap-only steps must rebuild on a small share of them, and
//! tasks that are never ready must not cost a rebuild (or a step) at all.
//! `sim_sched_rebuilds_total` counts the rebuilds; counters are per thread,
//! so a test reads its own runs only.

use dcatch_apps::{all_benchmarks_scaled, Benchmark};
use dcatch_sim::{QueueSpec, SimConfig, Topology, World};

fn mr3274_x8() -> Benchmark {
    let mut all = all_benchmarks_scaled(8);
    all.swap_remove(all.iter().position(|b| b.id == "MR-3274").expect("MR-3274"))
}

/// Runs untraced; returns (virtual clock, executed steps, list rebuilds).
fn untraced_run(bench: &Benchmark, topo: &Topology) -> (u64, u64, u64) {
    let steps = dcatch_obs::counter!("sim_steps_total");
    let rebuilds = dcatch_obs::counter!("sim_sched_rebuilds_total");
    let before = (steps.get(), rebuilds.get());
    let mut config = SimConfig::default().with_seed(bench.seed);
    config.trace_enabled = false;
    let run = World::run_once(&bench.program, topo, config).expect("valid benchmark");
    assert!(run.is_correct(), "{:?}", run.failures);
    (run.steps, steps.get() - before.0, rebuilds.get() - before.1)
}

#[test]
fn a_churn_dominated_run_rebuilds_on_at_most_2_percent_of_its_steps() {
    let bench = mr3274_x8();
    let (_, executed, rebuilds) = untraced_run(&bench, &bench.topology);
    assert!(executed >= 9_000, "churn did not run: {executed} steps");
    assert!(
        rebuilds * 50 <= executed,
        "{rebuilds} rebuilds over {executed} executed steps"
    );
}

#[test]
fn workers_of_an_empty_source_cost_neither_steps_nor_rebuilds() {
    let bench = mr3274_x8();
    let base = untraced_run(&bench, &bench.topology);
    // 64 consumers per node of a queue nothing enqueues to: never ready, so
    // the action list, the seeded picks and the rebuild points are the same
    let mut crowded = bench.topology.clone();
    for node in &mut crowded.nodes {
        node.queues.push(QueueSpec {
            name: "never_used".to_owned(),
            consumers: 64,
        });
    }
    assert_eq!(untraced_run(&bench, &crowded), base);
}
