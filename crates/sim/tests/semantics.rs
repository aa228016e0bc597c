//! Targeted interpreter-semantics tests: failure paths, ZooKeeper edge
//! cases, worker pools, gate interaction, and scheduler corner cases.

use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder, Value};
use dcatch_sim::{RunFailureKind, SimConfig, Topology, World};
use dcatch_trace::OpKind;

fn single_node(_p: &Program, entry: &str) -> Topology {
    let mut topo = Topology::new();
    topo.node("n").entry(entry, vec![]).queue("q", 1);
    topo
}

fn run_entry(body: impl FnOnce(&mut dcatch_model::BlockBuilder<'_>)) -> dcatch_sim::RunResult {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, body);
    pb.func("handler", &["v"], FuncKind::EventHandler, |b| {
        b.write("handled", Expr::local("v"));
    });
    let p = pb.build().unwrap();
    let topo = single_node(&p, "main");
    World::run_once(&p, &topo, SimConfig::default()).unwrap()
}

// ---- ZooKeeper edge cases ---------------------------------------------------

#[test]
fn zk_exclusive_create_of_existing_node_throws() {
    let r = run_entry(|b| {
        b.zk_create(Expr::val("/p"), Expr::val(1));
        b.zk_create_exclusive(Expr::val("/p"), Expr::val(2));
    });
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "NodeExistsException"
    ));
}

#[test]
fn zk_nonexclusive_create_overwrites_silently() {
    let r = run_entry(|b| {
        b.zk_create(Expr::val("/p"), Expr::val(1));
        b.zk_create(Expr::val("/p"), Expr::val(2));
        b.zk_get_data("d", Expr::val("/p"));
        b.if_(Expr::local("d").ne(Expr::val(2)), |b| {
            b.abort("overwrite lost");
        });
    });
    assert!(r.failures.is_empty(), "{:?}", r.failures);
}

#[test]
fn zk_set_data_of_absent_node_throws() {
    let r = run_entry(|b| {
        b.zk_set_data(Expr::val("/absent"), Expr::val(1));
    });
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "NoNodeException"
    ));
}

#[test]
fn zk_get_data_of_absent_node_throws_but_exists_does_not() {
    let r = run_entry(|b| {
        b.zk_exists("e", Expr::val("/absent"));
        b.if_(Expr::local("e"), |b| {
            b.abort("phantom znode");
        });
        b.zk_get_data("d", Expr::val("/absent"));
    });
    assert_eq!(r.failures.len(), 1);
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "NoNodeException"
    ));
}

#[test]
fn zk_versions_increase_across_recreation() {
    // delete + recreate must produce distinct versions so Mpush pairs
    // updates with the right notifications
    let r = run_entry(|b| {
        b.zk_create(Expr::val("/v"), Expr::val(1));
        b.zk_delete(Expr::val("/v"));
        b.zk_create(Expr::val("/v"), Expr::val(2));
    });
    let versions: Vec<u64> = r
        .trace
        .records()
        .iter()
        .filter_map(|rec| match &rec.kind {
            OpKind::ZkUpdate { version, .. } => Some(*version),
            _ => None,
        })
        .collect();
    assert_eq!(versions, vec![1, 2, 3]);
}

// ---- type and evaluation failures ------------------------------------------

#[test]
fn map_op_on_cell_is_a_class_cast_failure() {
    let r = run_entry(|b| {
        b.write("x", Expr::val(1));
        b.map_put("x", Expr::val("k"), Expr::val(2));
    });
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "ClassCastException"
    ));
}

#[test]
fn undefined_local_kills_the_task() {
    let r = run_entry(|b| {
        b.assign("x", Expr::local("never_defined"));
    });
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "EvalError"
    ));
}

#[test]
fn arithmetic_on_strings_fails() {
    let r = run_entry(|b| {
        b.assign("x", Expr::val("a").add(Expr::val(1)));
    });
    assert_eq!(r.failures.len(), 1);
}

#[test]
fn unlock_of_unheld_lock_fails() {
    let r = run_entry(|b| {
        b.unlock("m");
    });
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "IllegalMonitorState"
    ));
}

#[test]
fn reentrant_lock_acquisition_fails() {
    let r = run_entry(|b| {
        b.lock("m");
        b.lock("m");
    });
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "IllegalMonitorState"
    ));
}

#[test]
fn enqueue_on_undeclared_queue_fails() {
    let r = run_entry(|b| {
        b.enqueue("no_such_queue", "handler", vec![Expr::val(1)]);
    });
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "NoSuchQueueException"
    ));
}

#[test]
fn rpc_to_non_node_value_fails() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.rpc("x", Expr::val(7), "serve", vec![]);
    });
    pb.func("serve", &[], FuncKind::RpcHandler, |b| {
        b.ret(Expr::val(1));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let r = World::run_once(&p, &topo, SimConfig::default()).unwrap();
    assert!(matches!(
        &r.failures[0].kind,
        RunFailureKind::UncaughtThrow(k) if k == "UnknownHostException"
    ));
}

// ---- failure semantics -------------------------------------------------------

#[test]
fn killed_task_releases_its_locks() {
    // t1 takes the lock and throws; t2 must still acquire it
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn("a", "crasher", vec![]);
        b.join(Expr::local("a"));
        b.lock("m");
        b.write("alive", Expr::val(true));
        b.unlock("m");
    });
    pb.func("crasher", &[], FuncKind::Regular, |b| {
        b.lock("m");
        b.throw("Boom");
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let r = World::run_once(&p, &topo, SimConfig::default()).unwrap();
    assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    assert!(r.completed, "main must finish after the crasher dies");
}

#[test]
fn join_on_killed_thread_succeeds() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.spawn("a", "crasher", vec![]);
        b.join(Expr::local("a"));
        b.write("after_join", Expr::val(true));
    });
    pb.func("crasher", &[], FuncKind::Regular, |b| {
        b.abort("dead");
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let r = World::run_once(&p, &topo, SimConfig::default()).unwrap();
    assert!(r.completed);
    assert_eq!(r.failures.len(), 1);
}

#[test]
fn rpc_handler_crash_deadlocks_the_caller() {
    // the handler dies, no reply is ever sent: the caller blocks forever —
    // the "distributed hang via crashed server" pattern
    let mut pb = ProgramBuilder::new();
    pb.func("main", &["peer"], FuncKind::Regular, |b| {
        b.rpc("x", Expr::local("peer"), "die", vec![]);
    });
    pb.func("die", &[], FuncKind::RpcHandler, |b| {
        b.throw("ServerError");
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    let peer = topo.node("server").id();
    topo.node("client").entry("main", vec![Value::Node(peer)]);
    let r = World::run_once(&p, &topo, SimConfig::default()).unwrap();
    assert!(r
        .failures
        .iter()
        .any(|f| matches!(f.kind, RunFailureKind::Deadlock)));
    assert!(!r.completed);
}

#[test]
fn step_budget_exhaustion_is_reported() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        // non-retry spin loop: no iteration budget applies
        b.while_(Expr::val(true), |b| {
            b.yield_();
        });
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let cfg = SimConfig {
        max_steps: 500,
        ..SimConfig::default()
    };
    let r = World::run_once(&p, &topo, cfg).unwrap();
    assert!(r
        .failures
        .iter()
        .any(|f| matches!(f.kind, RunFailureKind::StepBudgetExhausted)));
}

#[test]
fn a_sleep_past_the_end_of_the_clock_saturates() {
    // three sleeps of i64::MAX ticks: the third wakes after step u64::MAX,
    // so its wake-up step saturates there, and the run ends at the budget
    // instead of overflowing the clock
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        for _ in 0..3 {
            b.sleep(Expr::val(i64::MAX));
        }
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let cfg = SimConfig {
        max_steps: u64::MAX,
        ..SimConfig::default()
    };
    let r = World::run_once(&p, &topo, cfg).unwrap();
    assert_eq!(r.steps, u64::MAX);
    assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    assert!(matches!(
        r.failures[0].kind,
        RunFailureKind::StepBudgetExhausted
    ));
}

// ---- worker pools -------------------------------------------------------------

#[test]
fn single_socket_worker_serializes_message_handling() {
    // with one socket worker, two handlers can never interleave: the
    // read-modify-write below stays consistent on every seed
    let mut pb = ProgramBuilder::new();
    pb.func("main", &["peer"], FuncKind::Regular, |b| {
        b.socket_send(Expr::local("peer"), "bump", vec![]);
        b.socket_send(Expr::local("peer"), "bump", vec![]);
    });
    pb.func("bump", &[], FuncKind::SocketHandler, |b| {
        b.read("c", "counter");
        b.yield_();
        b.if_else(
            Expr::local("c").eq(Expr::null()),
            |b| {
                b.write("counter", Expr::val(1));
            },
            |b| {
                b.write("counter", Expr::local("c").add(Expr::val(1)));
            },
        );
    });
    pb.func("checker", &[], FuncKind::Regular, |b| {
        b.sleep(Expr::val(300));
        b.read("c", "counter");
        b.if_(Expr::local("c").ne(Expr::val(2)), |b| {
            b.abort("lost update on single-worker pool");
        });
    });
    let p = pb.build().unwrap();
    for seed in 0..25 {
        let mut topo = Topology::new();
        let peer = {
            let mut nb = topo.node("server");
            nb.socket_workers(1);
            nb.entry("checker", vec![]);
            nb.id()
        };
        topo.node("client").entry("main", vec![Value::Node(peer)]);
        let r = World::run_once(&p, &topo, SimConfig::default().with_seed(seed)).unwrap();
        assert!(r.failures.is_empty(), "seed {seed}: {:?}", r.failures);
    }
}

#[test]
fn rpc_worker_pool_of_one_serializes_rpc_handlers() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &["peer"], FuncKind::Regular, |b| {
        b.spawn_detached("caller", vec![Expr::local("peer")]);
        b.spawn_detached("caller", vec![Expr::local("peer")]);
    });
    pb.func("caller", &["peer"], FuncKind::Regular, |b| {
        b.rpc("x", Expr::local("peer"), "bump2", vec![]);
    });
    pb.func("bump2", &[], FuncKind::RpcHandler, |b| {
        b.read("c", "rpc_counter");
        b.yield_();
        b.if_else(
            Expr::local("c").eq(Expr::null()),
            |b| {
                b.write("rpc_counter", Expr::val(1));
            },
            |b| {
                b.write("rpc_counter", Expr::local("c").add(Expr::val(1)));
            },
        );
        b.ret(Expr::val(true));
    });
    pb.func("checker2", &[], FuncKind::Regular, |b| {
        b.sleep(Expr::val(300));
        b.read("c", "rpc_counter");
        b.if_(Expr::local("c").ne(Expr::val(2)), |b| {
            b.abort("lost update on single rpc worker");
        });
    });
    let p = pb.build().unwrap();
    for seed in 0..25 {
        let mut topo = Topology::new();
        let peer = {
            let mut nb = topo.node("server");
            nb.rpc_workers(1);
            nb.entry("checker2", vec![]);
            nb.id()
        };
        topo.node("client").entry("main", vec![Value::Node(peer)]);
        let r = World::run_once(&p, &topo, SimConfig::default().with_seed(seed)).unwrap();
        assert!(r.failures.is_empty(), "seed {seed}: {:?}", r.failures);
    }
}

// ---- heap isolation -----------------------------------------------------------

#[test]
fn node_heaps_are_isolated() {
    // the same object name on two nodes refers to different storage
    let mut pb = ProgramBuilder::new();
    pb.func("writer", &["peer"], FuncKind::Regular, |b| {
        b.write("shared_name", Expr::val("mine"));
        b.rpc("remote", Expr::local("peer"), "read_it", vec![]);
        b.if_(Expr::local("remote").ne(Expr::null()), |b| {
            b.abort("heap leaked across nodes");
        });
    });
    pb.func("read_it", &[], FuncKind::RpcHandler, |b| {
        b.read("x", "shared_name");
        b.ret(Expr::local("x"));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    let peer = topo.node("b").id();
    topo.node("a").entry("writer", vec![Value::Node(peer)]);
    let r = World::run_once(&p, &topo, SimConfig::default()).unwrap();
    assert!(r.failures.is_empty(), "{:?}", r.failures);
}

// ---- misc ----------------------------------------------------------------------

#[test]
fn list_remove_of_absent_value_is_a_noop() {
    let r = run_entry(|b| {
        b.list_add("l", Expr::val(1));
        b.list_remove("l", Expr::val(99));
        b.list_contains("has", "l", Expr::val(1));
        b.if_(Expr::local("has").not(), |b| {
            b.abort("element vanished");
        });
    });
    assert!(r.failures.is_empty(), "{:?}", r.failures);
}

#[test]
fn map_remove_of_absent_key_is_a_noop_write() {
    let r = run_entry(|b| {
        b.map_remove("m", Expr::val("ghost"));
    });
    assert!(r.failures.is_empty());
    assert_eq!(r.trace.count_tag("wr"), 0, "selective: main is untraced");
}

#[test]
fn an_integer_and_its_decimal_string_are_one_map_key() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.map_put("m", Expr::val(5), Expr::val("x"));
        b.map_get("got", "m", Expr::val("5"));
        b.if_(Expr::local("got").ne(Expr::val("x")), |b| {
            b.abort("\"5\" did not read back the entry put under 5");
        });
        // not the canonical decimal of 5: a key of its own
        b.map_contains("padded", "m", Expr::val("05"));
        b.if_(Expr::local("padded"), |b| {
            b.abort("\"05\" named the entry of 5");
        });
        b.map_remove("m", Expr::val("5"));
        b.map_contains("left", "m", Expr::val(5));
        b.if_(Expr::local("left"), |b| {
            b.abort("\"5\" did not remove the entry put under 5");
        });
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let r = World::run_once(&p, &topo, SimConfig::default().with_full_tracing()).unwrap();
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    // the records name the key in its `key_string()` form, whatever the
    // type the program used
    let names = r.trace.names();
    let keys: Vec<String> = r
        .trace
        .records()
        .iter()
        .filter_map(|rec| match &rec.kind {
            OpKind::MemRead { loc, .. } | OpKind::MemWrite { loc, .. } => {
                loc.key.map(|k| names.key_text(k))
            }
            _ => None,
        })
        .collect();
    assert_eq!(keys, ["5", "5", "05", "5", "5"]);
}

#[test]
fn string_concat_builds_zk_paths() {
    let r = run_entry(|b| {
        b.assign("region", Expr::val("r9"));
        b.zk_create(
            Expr::val("/region/").concat(Expr::local("region")),
            Expr::val("OPEN"),
        );
        b.zk_exists("e", Expr::val("/region/r9"));
        b.if_(Expr::local("e").not(), |b| {
            b.abort("concat path mismatch");
        });
    });
    assert!(r.failures.is_empty(), "{:?}", r.failures);
}

#[test]
fn gate_abandon_lets_the_run_finish() {
    use dcatch_model::StmtId;
    use dcatch_sim::{Gate, GateDecision, GateEvent, StallAction};
    use dcatch_trace::TaskId;

    /// Holds everything at its first statement, then abandons on stall.
    struct HoldAll {
        held: std::collections::BTreeSet<TaskId>,
        released: bool,
        stalls: usize,
    }
    impl Gate for HoldAll {
        fn before(&mut self, ev: &GateEvent) -> GateDecision {
            if !self.released && self.held.insert(ev.task) {
                GateDecision::Hold
            } else {
                GateDecision::Proceed
            }
        }
        fn after(&mut self, _ev: &GateEvent) {}
        fn is_released(&mut self, _task: TaskId) -> bool {
            self.released
        }
        fn on_stall(&mut self, _held: &[TaskId]) -> StallAction {
            self.stalls += 1;
            self.released = true;
            StallAction::Abandon
        }
    }
    let _ = StmtId {
        func: dcatch_model::FuncId(0),
        idx: 0,
    };

    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, |b| {
        b.write("done", Expr::val(true));
    });
    let p = pb.build().unwrap();
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let mut gate = HoldAll {
        held: Default::default(),
        released: false,
        stalls: 0,
    };
    let r = World::run_with_gate(&p, &topo, SimConfig::default(), &mut gate).unwrap();
    assert!(r.completed);
    assert!(r.gate_abandoned);
    assert_eq!(gate.stalls, 1);
}
