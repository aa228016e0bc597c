//! Deterministic distributed-system simulator for DCatch-RS.
//!
//! The original DCatch instruments real JVM cloud systems (Cassandra,
//! HBase, Hadoop MapReduce, ZooKeeper). This crate is the substrate that
//! replaces them: a discrete-event interpreter for the `dcatch-model` IR
//! that provides every concurrency and communication mechanism the paper's
//! happens-before model covers (§2, Table 1):
//!
//! * **nodes** with private heaps, threads (`Spawn`/`Join`), and
//!   non-reentrant locks;
//! * **FIFO event queues** with one dispatching path and a configurable
//!   number of handler workers (single-consumer queues get `Eserial`
//!   semantics downstream);
//! * **synchronous RPC** with per-node worker pools (Hadoop IPC style);
//! * **asynchronous socket messages** (Cassandra `IVerbHandler` style);
//! * **a ZooKeeper-like coordination service** with zknodes, versions, and
//!   watcher notifications (the push-based custom-synchronization protocol
//!   of Rule-Mpush).
//!
//! Execution is *deterministic*: a seeded scheduler picks one runnable
//! task or deliverable message per step, so the same
//! ([`SimConfig::seed`], program, topology) triple always yields the same
//! trace — which is what makes DCatch's triggering module able to replay
//! and perturb interleavings exactly (§5).
//!
//! Every shared-memory access and HB-related operation is emitted as a
//! `dcatch-trace` record, subject to the selective-tracing policy of
//! §3.1.1. Failures (aborts, fatal logs, uncatchable throws, hangs) are
//! detected and reported in the [`RunResult`].
//!
//! # Example
//!
//! ```
//! use dcatch_model::{Expr, FuncKind, ProgramBuilder};
//! use dcatch_sim::{SimConfig, Topology, World};
//!
//! let mut pb = ProgramBuilder::new();
//! pb.func("main", &[], FuncKind::Regular, |b| {
//!     b.write("greeting", Expr::val("hello"));
//! });
//! let program = pb.build().unwrap();
//!
//! let mut topo = Topology::new();
//! topo.node("server").entry("main", vec![]);
//!
//! let result = World::run_once(&program, &topo, SimConfig::default()).unwrap();
//! assert!(result.failures.is_empty());
//! assert!(result.completed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compile;
mod config;
mod failure;
mod fault;
mod gate;
mod prepare;
pub mod timeline;
mod topology;
mod world;

pub use config::{FocusConfig, SimConfig};
pub use failure::{Failure, LogLevel, LogLine, RunFailureKind};
pub use fault::{
    ChannelKind, CrashFault, FaultPlan, FaultPlanError, MessageAction, MessageFault, TimeoutFault,
};
pub use gate::{Gate, GateDecision, GateEvent, NoGate, StallAction};
pub use prepare::Prepared;
pub use timeline::trace_timeline;
pub use topology::{NodeSpec, QueueSpec, Topology, WatcherSpec};
pub use world::{RunError, RunResult, World};
