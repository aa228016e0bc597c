//! Step-exact execution oracle for the interpreter.
//!
//! The simulator's contract is that `(program, topology, SimConfig)` fixes
//! the execution: the scheduler draws from one ordered action list, so the
//! step count, every trace byte, every failure and log line repeat. The
//! triggering module, the resume journal and the byte-identical report
//! gates all lean on that, but no other test compares an execution against
//! a *previous interpreter*. This one does: every run below is folded into
//! one FNV-1a value and compared with a constant recorded before the
//! interpreter was restructured. A change to `world.rs` / `compile.rs`
//! that keeps these values executes the same program; the constants are
//! only ever regenerated (`STEP_ORACLE_PRINT=1 cargo test -p dcatch-sim
//! --test step_oracle -- --nocapture`) by a change that *means* to alter
//! the schedule, never alongside an interpreter refactor.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dcatch_apps::synth::{generate, Protocol, ScenarioSpec, SynthParams};
use dcatch_apps::{all_benchmarks_scaled, fault_scenarios, Benchmark};
use dcatch_model::{Expr, FuncKind, NodeId, Program, ProgramBuilder, StmtId, Value};
use dcatch_sim::{
    FaultPlan, FocusConfig, Gate, GateDecision, GateEvent, RunFailureKind, RunResult, SimConfig,
    StallAction, Topology, World,
};
use dcatch_trace::{Names, Record, StreamControl, TaskId, TraceSink};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // field separator, so ("ab", "c") and ("a", "bc") differ
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

/// Folds everything a run produced: counters, failures, logs, the
/// serialized records and the queue/event side tables.
fn fold(h: &mut Fnv, r: &RunResult) {
    h.num(r.steps);
    h.num(r.faults_injected);
    h.num(u64::from(r.completed));
    h.num(u64::from(r.gate_abandoned));
    h.bytes(format!("{:?}", r.failures).as_bytes());
    h.bytes(format!("{:?}", r.logs).as_bytes());
    h.bytes(r.trace.to_lines().as_bytes());
    for ((node, name), info) in r.trace.queues() {
        h.bytes(format!("{node} {name} {info:?}").as_bytes());
    }
    for (event, node, queue) in r.trace.event_queue_entries() {
        h.bytes(format!("{event} {node} {queue}").as_bytes());
    }
}

fn run(bench: &Benchmark, config: SimConfig) -> u64 {
    run_on(&bench.program, &bench.topology, config).0
}

/// The folded run and the number of faults it injected.
fn run_on(program: &Program, topo: &Topology, config: SimConfig) -> (u64, u64) {
    let r = World::run_once(program, topo, config).expect("valid program");
    let mut h = Fnv::new();
    fold(&mut h, &r);
    (h.0, r.faults_injected)
}

/// Sink hashing the record stream, as lines, and every control as it
/// arrives.
struct HashSink(Fnv, Names);

impl TraceSink for HashSink {
    fn record(&mut self, record: &Record) {
        self.0
            .bytes(dcatch_trace::format_record(record, &self.1).as_bytes());
    }

    fn control(&mut self, control: StreamControl) {
        self.0.bytes(format!("{control:?}").as_bytes());
    }

    fn names(&mut self, names: &Names) {
        self.1.extend_from(names);
    }
}

fn run_streamed(bench: &Benchmark, config: SimConfig) -> u64 {
    run_streamed_on(&bench.program, &bench.topology, config).0
}

fn run_streamed_on(program: &Program, topo: &Topology, config: SimConfig) -> (u64, u64) {
    let mut sink = HashSink(Fnv::new(), Names::new());
    let r = World::run_streamed(program, topo, config, &mut sink).expect("valid program");
    let mut h = sink.0;
    fold(&mut h, &r);
    (h.0, r.faults_injected)
}

/// Holds the first two distinct tasks that reach `stmt`; once the second
/// is held the first is released, and the second follows when the first
/// has executed the statement. A stall releases the oldest still-held
/// task, or abandons when there is none left to release. An impatient
/// gate never releases anything and abandons at the first stall.
struct HoldTwo {
    stmt: StmtId,
    patient: bool,
    held: Vec<TaskId>,
    released: Vec<TaskId>,
    stalls: u64,
}

impl Gate for HoldTwo {
    fn before(&mut self, ev: &GateEvent) -> GateDecision {
        if ev.stmt != self.stmt || self.held.contains(&ev.task) || self.held.len() == 2 {
            return GateDecision::Proceed;
        }
        self.held.push(ev.task);
        if self.patient && self.held.len() == 2 {
            self.released.push(self.held[0]);
        }
        GateDecision::Hold
    }

    fn after(&mut self, ev: &GateEvent) {
        if self.patient && ev.stmt == self.stmt && self.held.len() == 2 && ev.task == self.held[0] {
            self.released.push(self.held[1]);
        }
    }

    fn is_released(&mut self, task: TaskId) -> bool {
        self.released.contains(&task)
    }

    fn on_stall(&mut self, held: &[TaskId]) -> StallAction {
        self.stalls += 1;
        match self.held.iter().find(|t| !self.released.contains(t)) {
            Some(&t) if self.patient && held.contains(&t) => {
                self.released.push(t);
                StallAction::Release(vec![t])
            }
            _ => StallAction::Abandon,
        }
    }
}

/// The statement executed by the most distinct tasks in the natural run
/// (smallest id on ties): the likeliest place for two tasks to meet.
fn busiest_stmt(bench: &Benchmark) -> StmtId {
    let r = World::run_once(
        &bench.program,
        &bench.topology,
        SimConfig::default()
            .with_seed(bench.seed)
            .with_full_tracing(),
    )
    .expect("valid benchmark");
    let mut tasks_at: BTreeMap<StmtId, Vec<TaskId>> = BTreeMap::new();
    for rec in r.trace.records() {
        if let Some(stmt) = r.trace.names().leaf(rec.stack) {
            let tasks = tasks_at.entry(stmt).or_default();
            if !tasks.contains(&rec.task) {
                tasks.push(rec.task);
            }
        }
    }
    let (stmt, _) = tasks_at
        .iter()
        .max_by_key(|(stmt, tasks)| (tasks.len(), std::cmp::Reverse(**stmt)))
        .expect("benchmark traces at least one statement");
    *stmt
}

/// `run`s under a [`HoldTwo`] on `stmt`; returns what the gate saw (part
/// of the row's name, so it is pinned too) and the folded run.
fn run_gated(
    stmt: StmtId,
    patient: bool,
    run: impl FnOnce(&mut HoldTwo) -> RunResult,
) -> (String, u64) {
    let mut gate = HoldTwo {
        stmt,
        patient,
        held: Vec::new(),
        released: Vec::new(),
        stalls: 0,
    };
    let r = run(&mut gate);
    let mut h = Fnv::new();
    fold(&mut h, &r);
    h.bytes(format!("{:?} {:?} {}", gate.held, gate.released, gate.stalls).as_bytes());
    let what = format!(
        "gated patient={patient} held={} stalls={} abandoned={}",
        gate.held.len(),
        gate.stalls,
        r.gate_abandoned
    );
    (what, h.0)
}

/// One task in a long stretch of frame-and-heap-only steps (the loop of
/// `dcatch_apps::noise::local_churn` without its leading sleep, 6 steps an
/// iteration) while every other task is parked, so that for thousands of
/// steps in a row the scheduler's action list is the same one entry — and
/// *time alone* changes it mid-stretch: `napper` wakes twice, `slow`'s
/// sleeping RPC handler wakes and replies, the second `meet` thread wakes
/// into the statement the gated rows hold (returned), and the fault plans
/// of [`stretch_rows`] add a delayed message, an RPC timeout and a crash
/// with its restart. The benchmark rows above only churn after their
/// protocol traffic has settled, so none of these lands in such a stretch.
fn stretch_program() -> (Program, Topology, StmtId) {
    let node = |n: u32| Expr::val(Value::Node(NodeId(n)));
    let mut pb = ProgramBuilder::new();
    pb.func("churn", &[], FuncKind::Regular, |b| {
        b.assign("i", Expr::val(0));
        b.while_(Expr::local("i").lt(Expr::val(700)), |b| {
            b.write("scratch", Expr::local("i"));
            b.map_put("table", Expr::local("i"), Expr::local("i"));
            b.read("v", "scratch");
            b.assign("i", Expr::local("v").add(Expr::val(1)));
        });
    });
    // dies of an `EvalError` whose message carries the churn's progress, so
    // that even an untraced row pins how many steps everyone else had taken
    // by then
    pb.func("probe", &["after"], FuncKind::Regular, |b| {
        b.sleep(Expr::local("after"));
        b.read("v", "scratch");
        b.assign("x", Expr::val("churn at").add(Expr::local("v")));
    });
    pb.func("napper", &[], FuncKind::Regular, |b| {
        b.sleep(Expr::val(700));
        b.write("naps", Expr::val(1));
        b.sleep(Expr::val(900));
        b.write("naps", Expr::val(2));
    });
    pb.func("sender", &[], FuncKind::Regular, |b| {
        b.socket_send(node(2), "on_msg", vec![Expr::val(7)]);
    });
    pb.func("on_msg", &["v"], FuncKind::SocketHandler, |b| {
        b.write("inbox", Expr::local("v"));
    });
    pb.func("caller", &[], FuncKind::Regular, |b| {
        b.rpc("r", node(2), "slow", vec![]);
        b.write("reply", Expr::local("r"));
    });
    pb.func("slow", &[], FuncKind::RpcHandler, |b| {
        b.sleep(Expr::val(2600));
        b.ret(Expr::val(1));
    });
    pb.func("victim", &[], FuncKind::Regular, |b| {
        b.write("boots", Expr::val(1));
        b.sleep(Expr::val(1500));
        b.write("boots", Expr::val(2));
    });
    pb.func("meet", &["after"], FuncKind::Regular, |b| {
        b.sleep(Expr::local("after"));
        b.call_void("touch", vec![]);
    });
    let mut met = None;
    pb.func("touch", &[], FuncKind::Regular, |b| {
        met = Some(b.write("met", Expr::val(1)));
    });
    let program = pb.build().expect("valid program");
    let mut topo = Topology::new();
    topo.node("churner")
        .entry("churn", vec![])
        .entry("probe", vec![Value::Int(1000)])
        .entry("probe", vec![Value::Int(2000)])
        .entry("probe", vec![Value::Int(3000)])
        .entry("probe", vec![Value::Int(4000)]);
    topo.node("client")
        .entry("napper", vec![])
        .entry("sender", vec![])
        .entry("caller", vec![])
        .entry("meet", vec![Value::Int(0)])
        .entry("meet", vec![Value::Int(1100)]);
    topo.node("server");
    topo.node("victim").entry("victim", vec![]);
    (program, topo, met.expect("`touch` was built"))
}

/// The rows of [`stretch_program`]: each time-driven transition untraced,
/// fully traced and streamed; the gated ones untraced and fully traced
/// (a gate and a sink cannot be installed together).
fn stretch_rows(rows: &mut Vec<(String, u64)>) {
    let (program, topo, met) = stretch_program();
    let full = SimConfig::default().with_full_tracing();
    let untraced = SimConfig {
        trace_enabled: false,
        ..SimConfig::default()
    };
    for (what, plan) in [
        ("sleepers", ""),
        ("delay", "delay socket steps=1000"),
        ("timeout", "timeout after=1500"),
        ("crash", "crash node=3 at=1200 restart=400"),
    ] {
        let plan = FaultPlan::parse(plan).expect("plan parses");
        let untraced = untraced.clone().with_faults(plan.clone());
        let full = full.clone().with_faults(plan);
        for (mode, (hash, faults)) in [
            ("untraced", run_on(&program, &topo, untraced)),
            ("full", run_on(&program, &topo, full.clone())),
            ("streamed", run_streamed_on(&program, &topo, full)),
        ] {
            rows.push((format!("stretch {what} {mode} faults={faults}"), hash));
        }
    }
    for patient in [true, false] {
        for (mode, config) in [("untraced", &untraced), ("full", &full)] {
            let (what, hash) = run_gated(met, patient, |gate| {
                World::run_with_gate(&program, &topo, config.clone(), gate).expect("valid program")
            });
            rows.push((format!("stretch {mode} {what}"), hash));
        }
    }
}

/// One entry thread per expression: every `BinOp` over every pair of
/// operand kinds and every `UnOp` over every kind, each operand a local,
/// then the cases whose outcome rests on how evaluation is ordered — an
/// undefined local, the left operand's error winning over the right's,
/// wrapping at `i64::MAX`, an `And` / `Or` whose right side fails while
/// its left already decides, `Concat` of a node and `Null`, operands that
/// are themselves computed. A thread writes its result to `out` (traced
/// with its value under a focus on `out`); a failing one dies of an
/// `EvalError` whose message is in the run's failures.
fn expression_program() -> (Program, Topology) {
    use dcatch_model::{BinOp, UnOp};
    let local = |name: &str| Box::new(Expr::local(name));
    let kinds = [
        Value::Unit,
        Value::Null,
        Value::Int(7),
        Value::Int(-2),
        Value::Bool(true),
        Value::Bool(false),
        Value::Str("7".to_owned()),
        Value::Str(String::new()),
        Value::Node(NodeId(0)),
        Value::Thread(3),
        Value::List(vec![Value::Int(7), Value::Str("x".to_owned())]),
    ];
    let binary = [
        ("add", BinOp::Add),
        ("sub", BinOp::Sub),
        ("eq", BinOp::Eq),
        ("ne", BinOp::Ne),
        ("lt", BinOp::Lt),
        ("le", BinOp::Le),
        ("gt", BinOp::Gt),
        ("ge", BinOp::Ge),
        ("and", BinOp::And),
        ("or", BinOp::Or),
        ("concat", BinOp::Concat),
    ];
    let unary = [("not", UnOp::Not), ("neg", UnOp::Neg)];
    let special = [
        Expr::local("nope").add(Expr::val(1)),
        Expr::val(1).add(Expr::local("nope")),
        Expr::local("nope_a").add(Expr::local("nope_b")),
        Expr::val(true).add(Expr::val(1)).add(Expr::local("nope")),
        Expr::val(i64::MAX).add(Expr::val(1)),
        Expr::val(i64::MIN).sub(Expr::val(1)),
        Expr::val(false).and(Expr::local("nope")),
        Expr::val(true).or(Expr::val(1).add(Expr::val("x"))),
        Expr::local("nope").or(Expr::val(1).add(Expr::val("x"))),
        Expr::SelfNode.concat(Expr::null()),
        Expr::SelfNode.eq(Expr::val(Value::Node(NodeId(0)))),
        Expr::val(3)
            .sub(Expr::val(5))
            .lt(Expr::val(0))
            .eq(Expr::val(true)),
        Expr::Unary(UnOp::Neg, Box::new(Expr::val(1).lt(Expr::val(2)))),
        Expr::Unary(UnOp::Neg, Box::new(Expr::val(3).sub(Expr::val(5)))),
        Expr::local("nope").not(),
        Expr::val("k").concat(Expr::val(4).add(Expr::val(5))),
    ];
    let mut pb = ProgramBuilder::new();
    for (name, op) in binary {
        pb.func(name, &["a", "b"], FuncKind::Regular, |b| {
            b.assign("r", Expr::Binary(op, local("a"), local("b")));
            b.write("out", Expr::local("r"));
        });
    }
    for (name, op) in unary {
        pb.func(name, &["a"], FuncKind::Regular, |b| {
            b.assign("r", Expr::Unary(op, local("a")));
            b.write("out", Expr::local("r"));
        });
    }
    for (i, expr) in special.iter().enumerate() {
        pb.func(format!("special{i}"), &[], FuncKind::Regular, |b| {
            b.assign("r", expr.clone());
            b.write("out", Expr::local("r"));
        });
    }
    let program = pb.build().expect("valid program");
    let mut topo = Topology::new();
    let mut node = topo.node("evaluator");
    for (name, _) in binary {
        for a in &kinds {
            for b in &kinds {
                node.entry(name, vec![a.clone(), b.clone()]);
            }
        }
    }
    for (name, _) in unary {
        for a in &kinds {
            node.entry(name, vec![a.clone()]);
        }
    }
    for i in 0..special.len() {
        node.entry(format!("special{i}"), vec![]);
    }
    (program, topo)
}

/// The expression row pins something only if its cases ran as meant: each
/// thread either wrote `out` or died of an `EvalError`, and the cases that
/// rest on evaluation order end the way they always have.
#[test]
fn the_expression_row_covers_its_cases() {
    let (program, topo) = expression_program();
    let focused = SimConfig::default().with_focus(FocusConfig::on(["out"]));
    let r = World::run_once(&program, &topo, focused).expect("valid program");
    let names = r.trace.names();
    let written: Vec<&str> = r
        .trace
        .records()
        .iter()
        .filter_map(|rec| rec.kind.mem_value().map(|v| names.name(v)))
        .collect();
    let errors: Vec<&str> = r
        .failures
        .iter()
        .inspect(|f| assert_eq!(f.kind, RunFailureKind::UncaughtThrow("EvalError".into())))
        .map(|f| f.msg.as_str())
        .collect();
    assert_eq!(written.len() + errors.len(), topo.nodes[0].entries.len());
    for msg in [
        "undefined local `nope`",
        "undefined local `nope_a`",
        "arithmetic on non-integers (true, 1)",
        "arithmetic on non-integers (1, x)",
        "arithmetic on non-integers ([7,x], n0)",
        "negation of non-integer",
    ] {
        assert!(errors.contains(&msg), "no thread failed with {msg:?}");
    }
    for value in [
        "-9223372036854775808",
        "9223372036854775807",
        "n0null",
        "k9",
    ] {
        assert!(written.contains(&value), "no thread wrote {value:?}");
    }
}

/// Every oracle run, by name. The order is the order of `EXPECTED`.
fn observe() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for scale in [1, 3] {
        for bench in all_benchmarks_scaled(scale) {
            let base = SimConfig::default().with_seed(bench.seed);
            rows.push((
                format!("{} x{scale} selective", bench.id),
                run(&bench, base.clone()),
            ));
            rows.push((
                format!("{} x{scale} full", bench.id),
                run(&bench, base.with_full_tracing()),
            ));
        }
    }
    for bench in all_benchmarks_scaled(1) {
        let base = SimConfig::default().with_seed(bench.seed);
        let mut untraced = base.clone();
        untraced.trace_enabled = false;
        rows.push((format!("{} untraced", bench.id), run(&bench, untraced)));
        rows.push((
            format!("{} sampled", bench.id),
            run(&bench, base.clone().with_mem_sample_rate(3)),
        ));
        rows.push((
            format!("{} focused", bench.id),
            run(
                &bench,
                base.clone()
                    .with_focus(FocusConfig::on(bench.bug_objects.iter().copied())),
            ),
        ));
        rows.push((
            format!("{} streamed", bench.id),
            run_streamed(&bench, base.clone().with_full_tracing()),
        ));
        let scenario = fault_scenarios(&bench).swap_remove(0);
        let faulted = base.clone().with_faults(scenario.plan);
        rows.push((
            format!("{} fault {}", bench.id, scenario.name),
            run(&bench, faulted.clone()),
        ));
        rows.push((
            format!("{} fault {} streamed", bench.id, scenario.name),
            run_streamed(&bench, faulted),
        ));

        let stmt = busiest_stmt(&bench);
        for patient in [true, false] {
            let (what, hash) = run_gated(stmt, patient, |gate| {
                World::run_with_gate(&bench.program, &bench.topology, base.clone(), gate)
                    .expect("valid benchmark")
            });
            rows.push((format!("{} {what}", bench.id), hash));
        }
    }
    for protocol in Protocol::all() {
        for seed in 1..=4 {
            let spec = ScenarioSpec::from_params(&SynthParams {
                seed,
                protocol: Some(protocol),
                ..SynthParams::default()
            });
            let scenario = generate(&spec);
            let plan = FaultPlan::parse(&spec.fault_plan).expect("generated plans parse");
            let config = SimConfig::default()
                .with_seed(scenario.bench.seed)
                .with_faults(plan);
            rows.push((spec.id(), run(&scenario.bench, config)));
        }
    }
    stretch_rows(&mut rows);
    let (program, topo) = expression_program();
    let focused = SimConfig::default().with_focus(FocusConfig::on(["out"]));
    let (hash, _) = run_on(&program, &topo, focused);
    rows.push(("expressions focused".to_owned(), hash));
    rows
}

#[test]
fn executions_match_the_recorded_interpreter() {
    let rows = observe();
    if std::env::var_os("STEP_ORACLE_PRINT").is_some() {
        let mut table = String::new();
        for (name, hash) in &rows {
            writeln!(table, "    (\"{name}\", 0x{hash:016x}),").expect("write to string");
        }
        println!("{table}");
        return;
    }
    assert_eq!(rows.len(), EXPECTED.len(), "oracle run list changed");
    let mismatches: Vec<String> = rows
        .iter()
        .zip(EXPECTED)
        .filter(|((name, hash), (want_name, want))| name != want_name || hash != want)
        .map(|((name, hash), (want_name, want))| {
            format!("{name}: 0x{hash:016x}, recorded {want_name}: 0x{want:016x}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} executions differ from the recorded interpreter:\n{}",
        mismatches.len(),
        rows.len(),
        mismatches.join("\n")
    );
    // the gated rows are only worth pinning if the gate paths ran
    for path in [
        "patient=true held=2",
        "stalls=1 abandoned=false",
        "abandoned=true",
    ] {
        assert!(
            rows.iter().any(|(n, _)| n.contains(path)),
            "no gated run covers `{path}`"
        );
    }
}

/// A [`Prepared`](dcatch_sim::Prepared) is shared by every run of a
/// pipeline and every worker of a trigger farm, so nothing of a run may
/// stay in it: one value run under one configuration after another — other
/// seeds, tracing modes, focus sets, fault plans, a sink, a gate, and the
/// first configuration again — gives each time what a run that prepares
/// afresh gives.
#[test]
fn a_prepared_program_holds_no_run_state() {
    let bench = all_benchmarks_scaled(1).swap_remove(3);
    assert_eq!(bench.id, "MR-3274");
    let prepared = World::prepare(&bench.program, &bench.topology).expect("valid benchmark");
    let base = SimConfig::default().with_seed(bench.seed);
    let mut untraced = base.clone();
    untraced.trace_enabled = false;
    let full = base.clone().with_full_tracing();
    let configs = [
        base.clone(),
        base.clone(),
        base.clone().with_seed(7),
        full.clone(),
        untraced,
        base.clone().with_mem_sample_rate(3),
        base.clone()
            .with_focus(FocusConfig::on(bench.bug_objects.iter().copied())),
        base.clone()
            .with_faults(fault_scenarios(&bench).swap_remove(0).plan),
        base.clone(),
    ];
    for config in configs {
        let mut h = Fnv::new();
        fold(&mut h, &prepared.run_once(&config));
        assert_eq!(h.0, run(&bench, config.clone()), "{config:?}");
    }
    let mut sink = HashSink(Fnv::new(), Names::new());
    let r = prepared.run_streamed(&full, &mut sink);
    fold(&mut sink.0, &r);
    assert_eq!(sink.0 .0, run_streamed(&bench, full));
    let stmt = busiest_stmt(&bench);
    for patient in [true, false] {
        let shared = run_gated(stmt, patient, |gate| prepared.run_with_gate(&base, gate));
        let fresh = run_gated(stmt, patient, |gate| {
            World::run_with_gate(&bench.program, &bench.topology, base.clone(), gate)
                .expect("valid benchmark")
        });
        assert_eq!(shared, fresh, "gated patient={patient}");
    }
}

/// Recorded at the commit before the interpreter was restructured.
const EXPECTED: &[(&str, u64)] = &[
    ("CA-1011 x1 selective", 0xac63dc89f42659de),
    ("CA-1011 x1 full", 0x692ea91a558b5742),
    ("HB-4539 x1 selective", 0xa8692a743f743a28),
    ("HB-4539 x1 full", 0xd18256c526cd24fa),
    ("HB-4729 x1 selective", 0xaaf5bcbd0666e7c8),
    ("HB-4729 x1 full", 0x6fb01584a62a45a6),
    ("MR-3274 x1 selective", 0xa06cfb805cdc49fb),
    ("MR-3274 x1 full", 0x944e3d3d4daa6069),
    ("MR-4637 x1 selective", 0x07b7e54c199d147e),
    ("MR-4637 x1 full", 0xaaaf5ba00a0801e6),
    ("ZK-1144 x1 selective", 0xe2d914c4d450d1dc),
    ("ZK-1144 x1 full", 0xe0d8f76178a4c9e1),
    ("ZK-1270 x1 selective", 0x668e8db5cfe9e55f),
    ("ZK-1270 x1 full", 0x741c7f0e57423085),
    ("CA-1011 x3 selective", 0x20a6fc5126425e9d),
    ("CA-1011 x3 full", 0xfb4cc55c7482f4c9),
    ("HB-4539 x3 selective", 0xc0e45705d4e1203c),
    ("HB-4539 x3 full", 0x8659fcd66a30e7ea),
    ("HB-4729 x3 selective", 0x2bf140d6aece083f),
    ("HB-4729 x3 full", 0xa68c70cc6a5ec6ed),
    ("MR-3274 x3 selective", 0x02238c1ae6f9769b),
    ("MR-3274 x3 full", 0xba684c95264dc427),
    ("MR-4637 x3 selective", 0xd1ca90d640463a9e),
    ("MR-4637 x3 full", 0x19834bbf320386c4),
    ("ZK-1144 x3 selective", 0xe1d80123cd52b533),
    ("ZK-1144 x3 full", 0x641cda80b98b71a0),
    ("ZK-1270 x3 selective", 0x24201ee0d5788d0e),
    ("ZK-1270 x3 full", 0x13de597fff099b8c),
    ("CA-1011 untraced", 0x14d4caf27b879cc2),
    ("CA-1011 sampled", 0x3931df6c5c4577da),
    ("CA-1011 focused", 0x9f25df5bc8b9b717),
    ("CA-1011 streamed", 0xad948b5d8cef0010),
    ("CA-1011 fault socket-delay", 0x67da7f2e251dbeb5),
    ("CA-1011 fault socket-delay streamed", 0x2683e6c462b79aff),
    (
        "CA-1011 gated patient=true held=2 stalls=0 abandoned=false",
        0xf1a430985563bf7b,
    ),
    (
        "CA-1011 gated patient=false held=2 stalls=1 abandoned=true",
        0xba0b4e9c4a6afbb6,
    ),
    ("HB-4539 untraced", 0xf085dc5688575807),
    ("HB-4539 sampled", 0x89161ed52d47d890),
    ("HB-4539 focused", 0xe4a89e2208ea57e4),
    ("HB-4539 streamed", 0x14c4d0c146f38144),
    ("HB-4539 fault crash-restart", 0xce187c55edbc8bd8),
    ("HB-4539 fault crash-restart streamed", 0x864e690ef71b207f),
    (
        "HB-4539 gated patient=true held=1 stalls=1 abandoned=false",
        0x4aa3bba36b8ed413,
    ),
    (
        "HB-4539 gated patient=false held=1 stalls=1 abandoned=true",
        0xfe8b8e52e0092542,
    ),
    ("HB-4729 untraced", 0xf051b640fb513dcb),
    ("HB-4729 sampled", 0x21d7159784eac260),
    ("HB-4729 focused", 0x27971faa290018f2),
    ("HB-4729 streamed", 0xa6de8134a1a9676a),
    ("HB-4729 fault crash-restart", 0xa981780f5c0d9ea7),
    ("HB-4729 fault crash-restart streamed", 0x3dec49a311c8999e),
    (
        "HB-4729 gated patient=true held=1 stalls=1 abandoned=false",
        0x310a919c6a3049cf,
    ),
    (
        "HB-4729 gated patient=false held=1 stalls=1 abandoned=true",
        0xc724347ab1775cb8,
    ),
    ("MR-3274 untraced", 0x47a8c1b14bcf8baa),
    ("MR-3274 sampled", 0xc6462bac00759251),
    ("MR-3274 focused", 0xd7c710fb4fbf958b),
    ("MR-3274 streamed", 0x36a67a422a90500a),
    ("MR-3274 fault rpc-timeout", 0x962de73b50910d8c),
    ("MR-3274 fault rpc-timeout streamed", 0x097fa4253e0dd4b5),
    (
        "MR-3274 gated patient=true held=2 stalls=0 abandoned=false",
        0xd1fb6df4bbdd3297,
    ),
    (
        "MR-3274 gated patient=false held=2 stalls=1 abandoned=true",
        0x9d9a353eff2b6643,
    ),
    ("MR-4637 untraced", 0xe472c1bc24a5a43e),
    ("MR-4637 sampled", 0x188498799ade54e7),
    ("MR-4637 focused", 0xb61cb7a4e4182d88),
    ("MR-4637 streamed", 0x437695aaa43f390d),
    ("MR-4637 fault rpc-timeout", 0xa31e707e5fc77e4e),
    ("MR-4637 fault rpc-timeout streamed", 0x7a7b640c99e24fda),
    (
        "MR-4637 gated patient=true held=1 stalls=1 abandoned=false",
        0x5cb81ce7df597a68,
    ),
    (
        "MR-4637 gated patient=false held=1 stalls=1 abandoned=true",
        0x5995dc2c59baa023,
    ),
    ("ZK-1144 untraced", 0x9d9da122503b2116),
    ("ZK-1144 sampled", 0x02a210042fbd338b),
    ("ZK-1144 focused", 0xd597fd812ac5820a),
    ("ZK-1144 streamed", 0xe5d01ff38b552691),
    ("ZK-1144 fault socket-dup", 0x65e3c9e709a8195e),
    ("ZK-1144 fault socket-dup streamed", 0x8a98a2ae32af82f9),
    (
        "ZK-1144 gated patient=true held=1 stalls=1 abandoned=false",
        0x0a2accf972143fd2,
    ),
    (
        "ZK-1144 gated patient=false held=1 stalls=1 abandoned=true",
        0xdcf411a26c8e174f,
    ),
    ("ZK-1270 untraced", 0x1576d33c659d5414),
    ("ZK-1270 sampled", 0x155b6ec47f111e5e),
    ("ZK-1270 focused", 0x816610c7f87c597a),
    ("ZK-1270 streamed", 0xa5a86ee21a8177ed),
    ("ZK-1270 fault socket-dup", 0xfe9c41f08cf70ee2),
    ("ZK-1270 fault socket-dup streamed", 0x36f579b6bc5de4e1),
    (
        "ZK-1270 gated patient=true held=2 stalls=0 abandoned=false",
        0x4b2caae3376b927e,
    ),
    (
        "ZK-1270 gated patient=false held=2 stalls=1 abandoned=true",
        0xea10a0f6fed7c179,
    ),
    ("SYNTH-LE-s1", 0x23d066a8f846f6db),
    ("SYNTH-LE-s2", 0xf81cf4e6d7bc080b),
    ("SYNTH-LE-s3", 0xd0bf2d86db25cc5f),
    ("SYNTH-LE-s4", 0x7b2077a5c432ea66),
    ("SYNTH-2PC-s1", 0x6176ff4428b1c2ad),
    ("SYNTH-2PC-s2", 0x05b7c94701e7eff3),
    ("SYNTH-2PC-s3", 0xb15371404b82224c),
    ("SYNTH-2PC-s4", 0x59cc316617585e9c),
    ("SYNTH-PB-s1", 0x8a7f653ae8075943),
    ("SYNTH-PB-s2", 0x2e217071bd311993),
    ("SYNTH-PB-s3", 0xad93912bebb4833e),
    ("SYNTH-PB-s4", 0x40799a662eaae000),
    ("SYNTH-GOSSIP-s1", 0x96566957abb8a709),
    ("SYNTH-GOSSIP-s2", 0xad00109b59e44d32),
    ("SYNTH-GOSSIP-s3", 0x4d920c6f9b1c886a),
    ("SYNTH-GOSSIP-s4", 0x06429c200770bfa4),
    // recorded at the commit before the action list was reused across steps
    ("stretch sleepers untraced faults=0", 0xcda0e876ed5bd8de),
    ("stretch sleepers full faults=0", 0x7fc9a0573ebe1244),
    ("stretch sleepers streamed faults=0", 0x564945a99e9b3004),
    ("stretch delay untraced faults=1", 0x9999b4a9cd7d0896),
    ("stretch delay full faults=1", 0xad5742d4e9391e76),
    ("stretch delay streamed faults=1", 0x241b5b8b3d11d1f0),
    ("stretch timeout untraced faults=1", 0x77e04149ea45097b),
    ("stretch timeout full faults=1", 0x5237e36ddcf3ac25),
    ("stretch timeout streamed faults=1", 0xb673f4ff46ef7f16),
    ("stretch crash untraced faults=2", 0x9ff814de6a12f0ee),
    ("stretch crash full faults=2", 0x8c9761c855ea9af0),
    ("stretch crash streamed faults=2", 0xece63123d62c82a6),
    (
        "stretch untraced gated patient=true held=2 stalls=0 abandoned=false",
        0xf6b5e2a18bdcd6a8,
    ),
    (
        "stretch full gated patient=true held=2 stalls=0 abandoned=false",
        0xd1b04f399c9d9a32,
    ),
    (
        "stretch untraced gated patient=false held=2 stalls=1 abandoned=true",
        0x4d5538056fc7c988,
    ),
    (
        "stretch full gated patient=false held=2 stalls=1 abandoned=true",
        0x4608f4ab9c002804,
    ),
    // recorded at the commit before the evaluator borrowed its operands
    ("expressions focused", 0xbcbc3614ccec0156),
];
