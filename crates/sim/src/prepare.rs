//! What a run needs that depends only on `(program, topology)`.
//!
//! Triggering re-runs one program on one topology once per ordering, and a
//! pipeline runs it base, traced, sampled and focused; validating the
//! topology, compiling the program, resolving the names the topology
//! mentions and deriving the tracing scope give the same result each time,
//! so a [`Prepared`] does them once. It holds no run state — every run
//! borrows it immutably — so one value serves all workers of a trigger farm.

use dcatch_model::{FuncId, NodeId, Program, Value};
use dcatch_trace::{NameId, Names, QueueInfo, TracedFunctions};

use crate::compile::{CompiledProgram, LockId, QueueId};
use crate::topology::Topology;
use crate::world::{RunError, World};

/// One node of the topology, names resolved.
pub(crate) struct PreparedNode {
    /// Event queues, in declaration order.
    pub queues: Vec<(QueueId, QueueInfo)>,
    pub rpc_workers: u32,
    pub socket_workers: u32,
    /// Whether a watcher subscribes on this node.
    pub watches: bool,
    /// Entry threads started at every boot: (function, arguments).
    pub entries: Vec<(FuncId, Vec<Value>)>,
}

/// A validated topology and its compiled program ([`World::prepare`]),
/// ready to be run any number of times under any [`SimConfig`](crate::SimConfig).
pub struct Prepared {
    pub(crate) cp: CompiledProgram,
    /// The program's selective-tracing scope.
    pub(crate) traced: TracedFunctions,
    pub(crate) nodes: Vec<PreparedNode>,
    /// Watcher subscriptions: (node, path prefix, handler).
    pub(crate) watchers: Vec<(NodeId, String, FuncId)>,
    /// Every run's name table starts as this one: the object names by
    /// [`ObjId`](crate::compile::ObjId), then the lock names.
    pub(crate) names: Names,
}

impl Prepared {
    /// The name of heap object `object` in a run's table.
    pub(crate) fn object_name(object: crate::compile::ObjId) -> NameId {
        NameId(object as u32)
    }

    /// The name of lock `lock` in a run's table.
    pub(crate) fn lock_name(&self, lock: LockId) -> NameId {
        NameId((self.cp.objects.len() + lock) as u32)
    }
}

impl World<'_> {
    /// Checks `topo` against `program` and compiles both into the form the
    /// step engine runs. Everything that can prevent a run from starting is
    /// reported here; running a [`Prepared`] cannot fail to start.
    pub fn prepare(program: &Program, topo: &Topology) -> Result<Prepared, RunError> {
        let problems = topo.validate(program);
        if !problems.is_empty() {
            return Err(RunError {
                message: problems.join("; "),
            });
        }
        let mut cp = CompiledProgram::compile(program).map_err(|e| RunError {
            message: e.to_string(),
        })?;
        let func = |name: &str| program.func_id(name).expect("validated by the topology");
        let mut nodes = Vec::with_capacity(topo.nodes.len());
        for (id, n) in topo.nodes.iter().enumerate() {
            let mut queues = Vec::with_capacity(n.queues.len());
            for q in &n.queues {
                let consumers = q.consumers;
                queues.push((cp.intern_queue(&q.name), QueueInfo { consumers }));
            }
            let entries = n.entries.iter().map(|(f, args)| (func(f), args.clone()));
            nodes.push(PreparedNode {
                queues,
                rpc_workers: n.rpc_workers,
                socket_workers: n.socket_workers,
                watches: topo.watchers.iter().any(|w| w.node.index() == id),
                entries: entries.collect(),
            });
        }
        let watchers = topo
            .watchers
            .iter()
            .map(|w| (w.node, w.path_prefix.clone(), func(&w.handler)))
            .collect();
        let names = Names::with_base(cp.objects.iter().chain(&cp.locks).cloned());
        Ok(Prepared {
            traced: TracedFunctions::compute(program),
            names,
            cp,
            nodes,
            watchers,
        })
    }
}
