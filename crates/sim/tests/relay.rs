//! The relay of a streamed run: the simulator steps on a thread of its
//! own and its records reach the caller's sink in batches. The sink must
//! see what a batch run traces, in emission order, with the name table
//! ahead of every record that uses a new id; a panic on either side must
//! unwind the caller with its own payload, and never hang it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use dcatch_apps::{all_benchmarks_scaled, fault_scenarios, streambench, streambench_rounds};
use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder};
use dcatch_sim::{FaultPlan, SimConfig, Topology, World};
use dcatch_trace::{format_record, CollectSink, Names, Record, StreamControl, TraceSink};

/// The text of a panic payload.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// Ignores everything, or panics at its `at`-th record.
struct PanicAt {
    at: u64,
    seen: u64,
}

impl TraceSink for PanicAt {
    fn record(&mut self, _: &Record) {
        self.seen += 1;
        if self.seen == self.at {
            panic!("the sink gave up at record {}", self.at);
        }
    }

    fn control(&mut self, _: StreamControl) {}
}

#[test]
fn a_simulator_panic_surfaces_with_its_own_message() {
    let (program, topology) = streambench(streambench_rounds(60_000));
    for at in [0, 5, 20_000] {
        let config = SimConfig::default()
            .with_full_tracing()
            .with_faults(FaultPlan::default().with_panic_at(at));
        let mut sink = PanicAt {
            at: u64::MAX,
            seen: 0,
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            World::run_streamed(&program, &topology, config, &mut sink)
        }));
        let payload = caught.expect_err("the chaos hook panics");
        assert_eq!(
            message(payload),
            format!("fault plan injected a host panic at step {at} (chaos hook)")
        );
    }
}

/// One node whose entry writes a cell forever: a run that only stops when
/// something stops it.
fn endless() -> (Program, Topology) {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.assign("i", Expr::val(0));
        b.while_(Expr::local("i").lt(Expr::val(1)), |b| {
            b.write("cell", Expr::local("i"));
        });
    });
    let mut topology = Topology::new();
    topology.node("n").entry("main", vec![]);
    (pb.build().expect("valid program"), topology)
}

#[test]
fn a_sink_panic_unwinds_with_the_sinks_payload_and_stops_the_simulator() {
    // the run is endless, so it returns only if the sink's panic stops
    // the simulator; it runs on a thread of its own so a hang fails here
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let (program, topology) = endless();
        let config = SimConfig {
            max_steps: u64::MAX,
            ..SimConfig::default().with_full_tracing()
        };
        let mut sink = PanicAt { at: 1_000, seen: 0 };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            World::run_streamed(&program, &topology, config, &mut sink)
        }));
        let _ = done.send(caught.map(|_| ()).map_err(message));
    });
    let outcome = outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the simulator stops when the sink unwinds");
    assert_eq!(
        outcome.expect_err("the sink's panic unwinds the caller"),
        "the sink gave up at record 1000"
    );
}

/// What the sink saw, call by call, beside the collected stream.
#[derive(Default)]
struct Checked {
    collect: CollectSink,
    /// Each record rendered with the table as it stood at its arrival.
    lines: Vec<String>,
    names_calls: usize,
    /// A `names` call not yet followed by its record.
    names_pending: bool,
}

impl TraceSink for Checked {
    fn record(&mut self, record: &Record) {
        // renders only if every id it uses has arrived
        let line = format_record(record, self.collect.trace.names());
        self.lines.push(line);
        self.collect.record(record);
        self.names_pending = false;
    }

    fn control(&mut self, control: StreamControl) {
        assert!(!self.names_pending, "names before a control: {control:?}");
        self.collect.control(control);
    }

    fn names(&mut self, names: &Names) {
        let had = self.collect.trace.names().generation();
        assert!(names.generation() > had, "a names call that adds nothing");
        assert!(!self.names_pending, "two names calls before one record");
        self.collect.names(names);
        self.names_calls += 1;
        self.names_pending = true;
    }
}

/// Streams `(program, topology)` under `config` and compares what the sink
/// saw with the batch trace of the same run.
fn stream_equals_batch(what: &str, program: &Program, topology: &Topology, config: &SimConfig) {
    let batch = World::run_once(program, topology, config.clone()).expect("valid program");
    let mut sink = Checked::default();
    let streamed =
        World::run_streamed(program, topology, config.clone(), &mut sink).expect("valid program");
    let trace = &sink.collect.trace;
    assert_eq!(trace.records(), batch.trace.records(), "{what}: records");
    let batch_lines: Vec<String> = (batch.trace.records().iter())
        .map(|r| format_record(r, batch.trace.names()))
        .collect();
    assert_eq!(sink.lines, batch_lines, "{what}: lines at arrival");
    assert_eq!(
        trace.names().generation(),
        batch.trace.names().generation(),
        "{what}: the whole table arrived"
    );
    assert!(!sink.names_pending, "{what}: names after the last record");
    assert!(
        batch.trace.is_empty() || sink.names_calls > 0,
        "{what}: no names call"
    );
    let controls = |t: &dcatch_trace::TraceSet| t.controls().collect::<Vec<_>>();
    assert_eq!(
        controls(trace),
        controls(&batch.trace),
        "{what}: side tables"
    );
    assert_eq!(
        (streamed.steps, &streamed.failures, streamed.faults_injected),
        (batch.steps, &batch.failures, batch.faults_injected),
        "{what}: run"
    );
}

#[test]
fn the_sink_sees_the_batch_trace_with_names_ahead_of_their_records() {
    for scale in [1, 3] {
        for bench in all_benchmarks_scaled(scale) {
            for full in [false, true] {
                let mut config = SimConfig::default().with_seed(bench.seed);
                if full {
                    config = config.with_full_tracing();
                }
                let what = format!("{} ×{scale} full={full}", bench.id);
                stream_equals_batch(&what, &bench.program, &bench.topology, &config);
            }
            if scale == 1 {
                for scenario in fault_scenarios(&bench) {
                    let config = SimConfig::default()
                        .with_seed(bench.seed)
                        .with_full_tracing()
                        .with_faults(scenario.plan.clone());
                    let what = format!("{} under {}", bench.id, scenario.name);
                    stream_equals_batch(&what, &bench.program, &bench.topology, &config);
                }
            }
        }
    }
    // many batches, the table grown early and never again
    let (program, topology) = streambench(streambench_rounds(30_000));
    let config = SimConfig::default().with_seed(7).with_full_tracing();
    stream_equals_batch("streambench", &program, &topology, &config);
}
