//! Figure 3, executable: the HBase region-open causality chain.
//!
//! HB-4539's miniature contains the paper's Figure 3 verbatim: HMaster
//! adds a region to `regionsToOpen` (W), opens it on the HRS through a
//! worker thread + RPC + event handler, the HRS publishes
//! `RS_ZK_REGION_OPENED` to ZooKeeper, and the HMaster's watcher finally
//! reads `regionsToOpen` (R). This example prints the actual
//! happens-before chain the analysis found between W and R — the
//! eight-step walk of the figure — and then shows the *bug*: the
//! alter-table path's removal has no such chain and is confirmed harmful.
//!
//! Run with: `cargo run --release --example hbase_region_race`

use dcatch::{
    find_candidates, HbAnalysis, HbConfig, Pipeline, PipelineOptions, SimConfig, Verdict, World,
};

fn main() {
    let bench = dcatch::benchmark("HB-4539").expect("registered benchmark");
    println!("== {} — {} ==\n", bench.id, bench.symptom);

    // trace one correct run and build the HB graph
    let run = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default().with_seed(bench.seed),
    )
    .expect("traced run");
    let hb = HbAnalysis::build(run.trace, &HbConfig::default()).expect("HB graph");
    let trace = hb.trace();
    let on_regions = |l: &dcatch_trace::MemLoc| trace.names().name(l.object) == "regionsToOpen";

    let w = trace
        .records()
        .iter()
        .position(|r| r.kind.is_write() && r.kind.mem_loc().is_some_and(on_regions))
        .expect("W = regionsToOpen.add(region)");
    let r = trace
        .records()
        .iter()
        .position(|rec| !rec.kind.is_write() && rec.kind.mem_loc().is_some_and(on_regions))
        .expect("R = regionsToOpen.isEmpty()");

    println!("W (add)     = record #{w} on {}", trace.records()[w].task);
    println!("R (isEmpty) = record #{r} on {}", trace.records()[r].task);
    assert!(hb.happens_before(w, r), "figure 3 guarantees W ⇒ R");
    println!("\nW ⇒ R through the chain (rule per hop):");
    let chain = hb.explain(w, r).expect("chain exists");
    let mut hop = w;
    for (next, rule) in chain {
        let rec = &trace.records()[next];
        println!(
            "  {:>9}  #{:<4} {:<7} {}",
            format!("{rule:?}"),
            next,
            rec.task.to_string(),
            rec.kind.tag()
        );
        hop = next;
    }
    assert_eq!(hop, r);
    println!("\n…so (W, R) is correctly NOT reported as a race.");

    // and the actual bug: alter_table's removal vs the watcher's check
    let candidates = find_candidates(&hb);
    let racy: Vec<_> = candidates
        .iter()
        .filter(|c| c.object() == "regionsToOpen")
        .collect();
    println!(
        "\nconcurrent regionsToOpen pairs (the alter-table clash): {}",
        racy.len()
    );

    let report = Pipeline::run(&bench, &PipelineOptions::full()).expect("pipeline");
    let harmful = report
        .known_bug_reports()
        .filter(|r| r.verdict == Some(Verdict::Harmful))
        .count();
    println!("confirmed harmful by the triggering module: {harmful}");
    assert!(harmful >= 1);
    println!("\nforcing the removal before the watcher's check crashes the master:");
    for rep in report.known_bug_reports() {
        for f in &rep.failures {
            println!("  {f}");
        }
    }
}
