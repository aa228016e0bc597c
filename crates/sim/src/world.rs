//! The simulated world: nodes, tasks, network, ZooKeeper service, and the
//! deterministic step engine.

use std::collections::BTreeMap;
use std::fmt;

use dcatch_obs::counter;
use dcatch_obs::rng::SmallRng;

use dcatch_model::{BinOp, FuncId, LoopId, NodeId, Program, StmtId, UnOp, Value};
use dcatch_trace::{
    CauseKey, EventId, ExecCtx, HandlerKind, Key, LockRef, MemLoc, MemSpace, MsgId, Names, OpKind,
    Record, RpcId, StackId, StreamControl, TaskId, TraceSet, TraceSink, TracingMode,
};

use crate::compile::{CompiledFunc, LockId, ObjId, Op, QueueId, Slot, SlotExpr};
use crate::config::SimConfig;
use crate::failure::{Failure, LogLevel, LogLine, RunFailureKind};
use crate::fault::CrashFault;
use crate::gate::{Gate, GateDecision, GateEvent, NoGate, StallAction, WatchSet};
use crate::prepare::Prepared;
use crate::relay::{relay, Relay};
use crate::topology::Topology;

mod heap_map;
mod net;
mod ready;
use heap_map::HeapMap;
use net::{InFlight, Inbox, Job, JobKind, Message, Pool};
use ready::{Action, ReadyList, Timer};

/// Error preventing a run from starting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Description (validation or compilation problems).
    pub message: String,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot run simulation: {}", self.message)
    }
}

impl std::error::Error for RunError {}

/// Everything a finished run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The execution trace.
    pub trace: TraceSet,
    /// Observed failures, in occurrence order.
    pub failures: Vec<Failure>,
    /// Log lines.
    pub logs: Vec<LogLine>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Whether the run reached quiescence without deadlock/budget failures.
    pub completed: bool,
    /// Whether the gate declared the run decided ([`Gate::decided`]) and
    /// the world stopped it there, before quiescence.
    pub decided: bool,
    /// Whether an installed gate gave up coordinating (the requested
    /// ordering was infeasible — a "serial" verdict for triggering).
    pub gate_abandoned: bool,
    /// Number of faults the fault-injection plan actually applied
    /// (message perturbations, crashes, restarts, RPC timeouts).
    pub faults_injected: u64,
}

impl RunResult {
    /// Whether the run had no failures at all.
    pub fn is_correct(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---------------------------------------------------------------------------
// tasks

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskKind {
    /// Entry thread declared in the topology.
    Entry,
    /// Thread created by `Spawn`.
    Thread,
    /// Worker handling the jobs of one work source: an event queue's
    /// consumer, or a member of the node's RPC, socket or watcher pool.
    Worker { source: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Runnable,
    /// Worker with no work (daemons only).
    Idle,
    Sleeping {
        until: u64,
    },
    BlockedJoin {
        handle: u64,
    },
    BlockedRpc {
        rpc: u64,
    },
    BlockedLock {
        lock: LockId,
    },
    HeldByGate,
    Done,
    Killed,
    /// The task's node was crashed by the fault-injection plan.
    Crashed,
}

#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    pc: usize,
    /// One cell per local of `func`, by slot; `None` until first assigned.
    locals: Vec<Option<Value>>,
    /// Caller-side local receiving this frame's return value.
    ret_local: Option<Slot>,
    /// The call sites that led to this frame, outermost first — empty for a
    /// task's root frame, and in an untraced run (nothing reads it there).
    site: StackId,
}

#[derive(Debug, Clone)]
struct Task {
    id: TaskId,
    node: NodeId,
    kind: TaskKind,
    state: TaskState,
    frames: Vec<Frame>,
    ctx: ExecCtx,
    begun: bool,
    /// Thread handle for `Join`.
    handle: u64,
    /// Local awaiting an RPC reply.
    rpc_ret_local: Option<Slot>,
    /// What caused the handler a worker runs, so that its end record and
    /// reply can be produced when the handler function returns.
    job: Option<JobKind>,
    /// Iteration counters of the retry loops this task has entered, one
    /// per loop id, in first-entry order: `LoopEnter` resets a loop's
    /// counter, so it counts the task's latest activation of that loop —
    /// and a recursive re-entry of the loop shares the caller's counter.
    /// Plain loops have no budget and are not counted.
    loop_iters: Vec<(LoopId, u32)>,
    /// Step at which the task last entered `BlockedRpc` (for timeouts).
    blocked_at: u64,
}

impl Task {
    /// The iteration counter of retry loop `loop_id`, 0 when first used.
    fn iters_of(&mut self, loop_id: LoopId) -> &mut u32 {
        let at = match self.loop_iters.iter().position(|&(id, _)| id == loop_id) {
            Some(at) => at,
            None => {
                self.loop_iters.push((loop_id, 0));
                self.loop_iters.len() - 1
            }
        };
        &mut self.loop_iters[at].1
    }
}

// ---------------------------------------------------------------------------
// heaps, locks & services

#[derive(Debug, Clone)]
enum HeapObj {
    Cell(Value),
    Map(HeapMap),
    List(Vec<Value>),
}

/// Key of a heap map: equal exactly when the [`Value::key_string`] forms of
/// the values they were built from are (`5` and `"5"` name one entry, as in
/// the trace). A traced access carries it as a [`Key`]: an integer inline,
/// a string interned. Heap maps are never iterated, so the order of keys is
/// unobservable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum MapKey {
    Int(i64),
    /// Any key form that is not the canonical decimal of an `i64`.
    Str(String),
}

impl MapKey {
    #[inline]
    fn of(v: Value) -> MapKey {
        match v {
            Value::Int(i) => MapKey::Int(i),
            Value::Str(s) => match Key::int_form(&s) {
                Some(i) => MapKey::Int(i),
                None => MapKey::Str(s),
            },
            other => MapKey::Str(other.key_string()),
        }
    }

    /// The key as a traced access carries it, in the run's table `names`.
    fn traced(&self, names: &mut Names) -> Key {
        match self {
            MapKey::Int(i) => Key::Int(*i),
            MapKey::Str(s) => Key::Str(names.intern(s)),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct LockState {
    holder: Option<usize>,
    /// Tasks blocked on this lock, woken when it is released.
    waiters: Vec<usize>,
}

#[derive(Debug, Default, Clone)]
struct ZkStore {
    /// path → data (present zknodes only).
    data: BTreeMap<String, Value>,
    /// path → last version ever (survives deletion, for notification pairing).
    versions: BTreeMap<String, u64>,
}

// ---------------------------------------------------------------------------
// world

/// The simulation state and step engine. Most callers use
/// [`World::run_once`] or [`World::run_with_gate`].
///
/// The gate is not part of the state: the step loop is handed one each time
/// it is entered, so a world paused between two steps can be copied
/// ([`Prepared::run_forking`]) and each copy go on under its own gate.
#[derive(Clone)]
pub struct World<'p> {
    prep: &'p Prepared,
    config: &'p SimConfig,

    rng: SmallRng,
    step: u64,
    seq: u64,

    tasks: Vec<Task>,
    /// What the scheduler may pick, kept across steps (`world/ready.rs`).
    ready: ReadyList,
    /// Whether the next step must re-derive the list by a full scan
    /// (`collect_actions`): at boot, after a gate hold or stall, and after
    /// an RPC call that a timeout policy gives a deadline.
    rescan: bool,
    /// The earliest fault-plan event (crash, restart, RPC-timeout
    /// deadline) after the last full scan; `u64::MAX` when there is none.
    /// Never later than the true next event, but a reply can make the
    /// deadline it names moot.
    fault_wake: u64,
    /// Tasks the last full scan left `HeldByGate`, by index.
    held: Vec<usize>,
    /// `heaps[node][object]`: `None` until first written.
    heaps: Vec<Vec<Option<HeapObj>>>,
    /// `locks[node][lock]`.
    locks: Vec<Vec<LockState>>,
    /// Every node's undispatched jobs, by work source (`world/net.rs`).
    inbox: Inbox,
    net: Vec<InFlight>,
    zk: ZkStore,

    /// Per-node crashed flag (fault injection).
    crashed: Vec<bool>,
    /// Crash faults not yet applied.
    crash_queue: Vec<CrashFault>,
    /// Pending restarts: (step, node).
    pending_restarts: Vec<(u64, NodeId)>,
    /// Per-message-fault match counters (for `nth` selection).
    msg_fault_hits: Vec<u64>,
    /// Faults applied so far.
    faults_injected: u64,
    /// Traceable memory accesses seen so far (drives `mem_sample_rate`).
    mem_samples_seen: u64,

    /// The records (batch mode) and, either way, the run's name table and
    /// queue/event side tables.
    trace: TraceSet,
    /// Streaming relay: when present, records bypass `trace` and flow
    /// into it as they are emitted (plus lifecycle controls).
    sink: SinkSlot<'p>,
    failures: Vec<Failure>,
    logs: Vec<LogLine>,
    /// The statements the gate watches, as it last said.
    watch: WatchSet,
    /// The gate declared the run decided: `run_loop` stops after this step.
    decided: bool,
    /// Retry-loop markers the run may still pass before `run_loop` stops it
    /// ([`crate::FocusConfig::stop_after_loop_markers`]); `usize::MAX` runs
    /// it to the end.
    markers_left: usize,
    gate_abandoned: bool,

    next_event: u64,
    next_rpc: u64,
    next_msg: u64,
    next_instance: u64,
    next_handle: u64,
    task_counters: Vec<u32>,
    /// The task the last step ran (context switches are counted against it).
    last_task: Option<usize>,
    /// `sim_steps_total` / `sim_sched_rebuilds_total` /
    /// `sim_context_switches_total` / `sim_trace_records_total` /
    /// `sim_messages_delivered_total`, flushed by `finish`.
    steps_executed: u64,
    sched_rebuilds: u64,
    context_switches: u64,
    records_written: u64,
    messages_delivered: u64,
}

/// A world's streaming relay, if any. Only a relay-less run is ever copied
/// (`run_forking` installs none), so a copy has no relay either.
struct SinkSlot<'p>(Option<&'p mut Relay>);

impl Clone for SinkSlot<'_> {
    fn clone(&self) -> Self {
        assert!(self.0.is_none(), "a streamed run cannot be copied");
        SinkSlot(None)
    }
}

/// A run paused after the step at which its gate held a task, with a copy
/// of the gate as it was there ([`Prepared::run_forking`]).
pub struct Fork<'p, G> {
    world: World<'p>,
    gate: G,
}

impl<G: Gate> Fork<'_, G> {
    /// The gate the fork resumes under: a copy of the original's at the
    /// pause, to adjust before [`resume`](Fork::resume).
    pub fn gate_mut(&mut self) -> &mut G {
        &mut self.gate
    }

    /// Steps the copy to the end under its gate. The result — clock,
    /// failures, logs, faults — is the one a fresh run gives under a gate
    /// that answers as the original did up to the pause and as this one
    /// does from there. Only the
    /// steps taken after the pause are counted (`sim_steps_total` and the
    /// other step counters); `sim_runs_total` counts boots, not forks.
    pub fn resume(mut self) -> (RunResult, G) {
        let _span = dcatch_obs::span!("sim.run");
        self.world.run_loop(&mut self.gate, false);
        (self.world.finish(), self.gate)
    }
}

/// What a memory access touches: a heap object of the task's node, or a
/// zknode by path.
#[derive(Clone, Copy)]
enum Object<'p> {
    Heap(ObjId),
    Zk(&'p str),
}

/// Aftermath of executing one instruction.
enum Flow {
    /// Advance to the next instruction.
    Next,
    /// Jump to an absolute pc.
    Goto(usize),
    /// Stay at the same pc (task blocked; instruction re-executes later).
    Stay,
    /// Control already adjusted (call/return) — do nothing.
    Handled,
    /// Task was killed.
    Dead,
}

impl Prepared {
    /// [`World::run_once`] on the prepared program.
    pub fn run_once(&self, config: &SimConfig) -> RunResult {
        self.run(config, &mut NoGate, None)
    }

    /// [`World::run_streamed`] on the prepared program.
    pub fn run_streamed(&self, config: &SimConfig, sink: &mut (dyn TraceSink + Send)) -> RunResult {
        relay(sink, |relay| self.run(config, &mut NoGate, Some(relay)))
    }

    /// [`World::run_with_gate`] on the prepared program.
    pub fn run_with_gate(&self, config: &SimConfig, gate: &mut dyn Gate) -> RunResult {
        self.run(config, gate, None)
    }

    /// [`run_with_gate`](Prepared::run_with_gate), pausing after each step at
    /// which `gate` held a task: the first time `fork_at` holds of the gate
    /// there, the paused world and the gate are copied into a [`Fork`]
    /// before the run goes on. A world depends on its gate only through
    /// the gate's answers, so a fork resumed under a gate that answers as
    /// the original would from the pause on runs as the original would
    /// have run under it from boot.
    pub fn run_forking<'p, G: Gate + Clone>(
        &'p self,
        config: &'p SimConfig,
        gate: &mut G,
        fork_at: impl Fn(&G) -> bool,
    ) -> (RunResult, Option<Fork<'p, G>>) {
        let _span = dcatch_obs::span!("sim.run");
        let mut world = self.boot(config, None);
        let mut fork = None;
        while world.run_loop(gate, fork.is_none()) {
            if fork_at(gate) {
                fork = Some(Fork {
                    world: world.fork(),
                    gate: gate.clone(),
                });
            }
        }
        (world.finish(), fork)
    }

    /// The one run path: a fresh `World`, booted and stepped to quiescence.
    fn run<'w>(
        &'w self,
        config: &'w SimConfig,
        gate: &mut dyn Gate,
        sink: Option<&'w mut Relay>,
    ) -> RunResult {
        let _span = dcatch_obs::span!("sim.run");
        let mut world = self.boot(config, sink);
        world.run_loop(gate, false);
        world.finish()
    }

    /// A fresh `World` with every node set up, before its first step.
    fn boot<'w>(&'w self, config: &'w SimConfig, sink: Option<&'w mut Relay>) -> World<'w> {
        let (cp, nodes) = (&self.cp, self.nodes.len());
        let mut world = World {
            prep: self,
            config,
            heaps: vec![vec![None; cp.objects.len()]; nodes],
            locks: vec![vec![LockState::default(); cp.locks.len()]; nodes],
            inbox: Inbox::new(nodes, cp.queues.len()),
            rng: SmallRng::seed_from_u64(config.seed),
            step: 0,
            seq: 0,
            tasks: Vec::new(),
            ready: ReadyList::default(),
            rescan: true,
            fault_wake: u64::MAX,
            held: Vec::new(),
            net: Vec::new(),
            zk: ZkStore::default(),
            crashed: vec![false; nodes],
            crash_queue: config.faults.crashes.clone(),
            pending_restarts: Vec::new(),
            msg_fault_hits: vec![0; config.faults.messages.len()],
            faults_injected: 0,
            mem_samples_seen: 0,
            trace: TraceSet::with_names(self.names.clone()),
            sink: SinkSlot(sink),
            failures: Vec::new(),
            logs: Vec::new(),
            watch: WatchSet::of(&NoGate),
            decided: false,
            markers_left: config
                .focus
                .as_ref()
                .and_then(|f| f.stop_after_loop_markers)
                .unwrap_or(usize::MAX),
            gate_abandoned: false,
            next_event: 0,
            next_rpc: 0,
            next_msg: 0,
            next_instance: 0,
            next_handle: 0,
            task_counters: vec![0; nodes],
            last_task: None,
            steps_executed: 0,
            sched_rebuilds: 0,
            context_switches: 0,
            records_written: 0,
            messages_delivered: 0,
        };
        counter!("sim_runs_total").inc();
        for node in 0..nodes {
            world.setup_node(NodeId(node as u32));
        }
        world
    }
}

impl<'p> World<'p> {
    /// Runs `program` on `topo` with the default (no-op) gate.
    pub fn run_once(
        program: &Program,
        topo: &Topology,
        config: SimConfig,
    ) -> Result<RunResult, RunError> {
        Ok(World::prepare(program, topo)?.run_once(&config))
    }

    /// Runs `program` on `topo`, streaming every trace record and lifecycle
    /// control into `sink` as it is emitted instead of materializing a
    /// `TraceSet` (the returned result's trace holds only the queue/event
    /// side tables). The simulator steps on a thread of its own and hands
    /// what it emits over in small batches; the sink is called on the
    /// caller's thread, in emission order, with the calls a sink on the
    /// step loop would get (DESIGN.md §14). At most a few batches wait
    /// between the two: a slow sink slows the simulator, it never grows a
    /// buffer. A panic of either side unwinds the caller with its payload.
    pub fn run_streamed(
        program: &Program,
        topo: &Topology,
        config: SimConfig,
        sink: &mut (dyn TraceSink + Send),
    ) -> Result<RunResult, RunError> {
        Ok(World::prepare(program, topo)?.run_streamed(&config, sink))
    }

    /// Runs `program` on `topo`, consulting `gate` before and after every
    /// statement it watches (the triggering module's controller).
    pub fn run_with_gate(
        program: &Program,
        topo: &Topology,
        config: SimConfig,
        gate: &mut dyn Gate,
    ) -> Result<RunResult, RunError> {
        Ok(World::prepare(program, topo)?.run_with_gate(&config, gate))
    }

    /// Registers a node's queues and creates its workers and entry tasks.
    /// Called once per node at boot, and again when a crashed node restarts.
    fn setup_node(&mut self, node: NodeId) {
        let spec = &self.prep.nodes[node.index()];
        for &(queue, info) in &spec.queues {
            let name = &self.prep.cp.queues[queue];
            self.trace.register_queue(node, name.clone(), info);
            if self.streaming() {
                self.ctl(StreamControl::RegisterQueue {
                    node,
                    queue: name.clone(),
                    info,
                });
            }
            let source = self.inbox.queue(node, queue);
            for _ in 0..info.consumers {
                self.new_task(node, TaskKind::Worker { source }, TaskState::Idle);
            }
        }
        let pools = [
            (Pool::Rpc, spec.rpc_workers),
            (Pool::Socket, spec.socket_workers),
            (Pool::Watch, u32::from(spec.watches)),
        ];
        for (pool, workers) in pools {
            let source = self.inbox.pool(node, pool);
            for _ in 0..workers {
                self.new_task(node, TaskKind::Worker { source }, TaskState::Idle);
            }
        }
        for (func, args) in &spec.entries {
            let t = self.new_task(node, TaskKind::Entry, TaskState::Runnable);
            let frame = self.make_frame(*func, args.clone(), None, StackId::EMPTY);
            self.tasks[t].frames.push(frame);
            // entry threads have no `ThreadCreate` cause announcing them:
            // the sink must learn they exist before it retires anything
            // their future records could still race with
            let task = self.tasks[t].id;
            self.ctl(StreamControl::TaskStarted { task });
        }
    }

    fn new_task(&mut self, node: NodeId, kind: TaskKind, state: TaskState) -> usize {
        let index = self.task_counters[node.index()];
        self.task_counters[node.index()] += 1;
        let handle = self.next_handle;
        self.next_handle += 1;
        self.tasks.push(Task {
            id: TaskId { node, index },
            node,
            kind,
            state,
            frames: Vec::new(),
            ctx: ExecCtx::Regular,
            begun: false,
            handle,
            rpc_ret_local: None,
            job: None,
            loop_iters: Vec::new(),
            blocked_at: 0,
        });
        let t = self.tasks.len() - 1;
        if let TaskKind::Worker { source } = kind {
            self.ready.add_worker(source, t);
        }
        self.ready.mark(t);
        t
    }

    /// Sets task `t`'s state and marks it for the ready list.
    fn set_state(&mut self, t: usize, state: TaskState) {
        self.tasks[t].state = state;
        self.ready.mark(t);
    }

    fn make_frame(
        &self,
        func: FuncId,
        args: Vec<Value>,
        ret_local: Option<Slot>,
        site: StackId,
    ) -> Frame {
        let cf = self.prep.cp.func(func);
        let mut locals = vec![None; cf.locals.len()];
        for (&p, a) in cf.params.iter().zip(args) {
            locals[p] = Some(a);
        }
        Frame {
            func,
            pc: 0,
            locals,
            ret_local,
            site,
        }
    }

    // -- tracing helpers ---------------------------------------------------

    /// The callstack of `t`'s next operation: its frame's call sites plus
    /// the statement at its pc, if the frame has one left.
    fn stack_of(&mut self, t: usize) -> StackId {
        let Some(top) = self.tasks[t].frames.last() else {
            return StackId::EMPTY;
        };
        match self.prep.cp.func(top.func).instrs.get(top.pc) {
            Some(instr) => self.trace.names_mut().frame(top.site, instr.stmt),
            None => top.site,
        }
    }

    fn emit(&mut self, t: usize, kind: OpKind) {
        if !self.config.trace_enabled {
            return;
        }
        let stack = self.stack_of(t);
        let task = &self.tasks[t];
        self.write(Record {
            seq: self.seq,
            task: task.id,
            ctx: task.ctx,
            kind,
            stack,
        });
    }

    /// Hands one record to the relay — which sends the names it may use
    /// first, when the table grew since the last record — or to the trace.
    fn write(&mut self, rec: Record) {
        self.seq += 1;
        match self.sink.0.as_mut() {
            Some(s) => s.record(self.trace.names(), &rec),
            None => self.trace.push(rec),
        }
        self.records_written += 1;
    }

    /// Sends an out-of-band control to the streaming sink, if any.
    fn ctl(&mut self, control: StreamControl) {
        if !self.config.trace_enabled {
            return;
        }
        if let Some(s) = self.sink.0.as_mut() {
            s.control(control);
        }
    }

    /// Whether the streaming sink (and tracing) is active, used to skip
    /// building control payloads on the batch path.
    fn streaming(&self) -> bool {
        self.sink.0.is_some() && self.config.trace_enabled
    }

    /// Whether a memory access to `object` in the current top frame of `t`
    /// is traced, and whether its value should be recorded (tracing on).
    fn mem_trace_policy(&self, t: usize, object: &str) -> (bool, bool) {
        if let Some(focus) = &self.config.focus {
            return (focus.objects.contains(object), true);
        }
        match self.config.tracing {
            TracingMode::Full => (true, false),
            TracingMode::Selective => {
                let traced = self.tasks[t]
                    .frames
                    .last()
                    .is_some_and(|f| self.prep.traced.contains(f.func));
                (traced, false)
            }
        }
    }

    /// Records a memory access to `object` (a heap object of the task's
    /// node, or a zknode path). Inlined into every access, so an untraced
    /// run tests one flag and never enters the record builder.
    #[inline(always)]
    fn emit_mem(
        &mut self,
        t: usize,
        write: bool,
        object: Object<'_>,
        key: Option<&MapKey>,
        value: &Value,
    ) {
        if self.config.trace_enabled {
            self.record_mem(t, write, object, key, value);
        }
    }

    /// [`emit_mem`](World::emit_mem)'s record builder, tracing on. The
    /// location is built only once the policy and the sampler have decided
    /// the record will exist.
    #[inline(never)]
    fn record_mem(
        &mut self,
        t: usize,
        write: bool,
        object: Object<'_>,
        key: Option<&MapKey>,
        value: &Value,
    ) {
        let name = match object {
            Object::Heap(obj) => &self.prep.cp.objects[obj],
            Object::Zk(path) => path,
        };
        let (trace_it, with_value) = self.mem_trace_policy(t, name);
        if !trace_it {
            return;
        }
        // Rate-sampling applies only to plain memory-access records — never
        // to HB-related ops or focused value traces — and only decides what
        // is *recorded*: the execution itself is untouched, so the sampled
        // trace is an exact subsequence of the unsampled one.
        if self.config.mem_sample_rate > 1 && self.config.focus.is_none() {
            let keep = self.mem_samples_seen % u64::from(self.config.mem_sample_rate) == 0;
            self.mem_samples_seen += 1;
            if !keep {
                counter!("sim_mem_samples_dropped_total").inc();
                return;
            }
        }
        let names = self.trace.names_mut();
        let (space, node, object) = match object {
            Object::Heap(obj) => (
                MemSpace::Heap,
                self.tasks[t].node,
                Prepared::object_name(obj),
            ),
            Object::Zk(path) => (MemSpace::Zk, NodeId(0), names.intern(path)),
        };
        let key = key.map(|k| k.traced(names));
        let loc = MemLoc {
            space,
            node,
            object,
            key,
        };
        let value = with_value.then(|| names.intern(&value.key_string()));
        let kind = if write {
            OpKind::MemWrite { loc, value }
        } else {
            OpKind::MemRead { loc, value }
        };
        self.emit(t, kind);
    }

    /// Counts a retry-loop marker against a focused run's stop.
    fn pass_loop_marker(&mut self) {
        if self.markers_left != usize::MAX {
            self.markers_left -= 1;
        }
    }

    // -- failure helpers ----------------------------------------------------

    fn fail(&mut self, t: usize, kind: RunFailureKind, msg: impl Into<String>) {
        let task = &self.tasks[t];
        let stmt = task.frames.last().and_then(|f| {
            let cf = self.prep.cp.func(f.func);
            cf.instrs.get(f.pc).map(|i| i.stmt)
        });
        self.failures.push(Failure {
            kind,
            node: task.node,
            task: Some(task.id),
            stmt,
            msg: msg.into(),
        });
    }

    fn kill(&mut self, t: usize, kind: RunFailureKind, msg: impl Into<String>) {
        self.fail(t, kind, msg);
        self.set_state(t, TaskState::Killed);
        let (task, ctx) = (self.tasks[t].id, self.tasks[t].ctx);
        self.ctl(StreamControl::ChainDone { task, ctx });
        self.release_locks_of(t);
        self.wake_joiners(t);
    }

    fn release_locks_of(&mut self, t: usize) {
        let node = self.tasks[t].node.index();
        for lock in 0..self.locks[node].len() {
            if self.locks[node][lock].holder == Some(t) {
                self.locks[node][lock].holder = None;
                self.wake_lock_waiters(node, lock);
            }
        }
    }

    fn wake_lock_waiters(&mut self, node: usize, lock: LockId) {
        while let Some(w) = self.locks[node][lock].waiters.pop() {
            if matches!(self.tasks[w].state, TaskState::BlockedLock { .. }) {
                self.set_state(w, TaskState::Runnable);
            }
        }
    }

    fn wake_joiners(&mut self, finished: usize) {
        let handle = self.tasks[finished].handle;
        for i in 0..self.tasks.len() {
            if matches!(&self.tasks[i].state, TaskState::BlockedJoin { handle: h } if *h == handle)
            {
                self.set_state(i, TaskState::Runnable);
            }
        }
    }

    // -- main loop -----------------------------------------------------------

    /// A copy of this (sink-less) world that counts only its own steps
    /// from here on.
    fn fork(&self) -> World<'p> {
        World {
            steps_executed: 0,
            sched_rebuilds: 0,
            context_switches: 0,
            records_written: 0,
            messages_delivered: 0,
            ..self.clone()
        }
    }

    /// Steps under `gate` until the run ends — or, with `pause`, until a
    /// step at which the gate held a task; returns whether it paused. The
    /// gate's watch set is read on entry, so a resumed world follows the
    /// gate it is handed now.
    fn run_loop(&mut self, gate: &mut dyn Gate, pause: bool) -> bool {
        let panic_at = self.config.faults.panic_at_step.unwrap_or(u64::MAX);
        self.watch = WatchSet::of(gate);
        loop {
            if self.markers_left == 0 {
                return false;
            }
            if self.step >= self.config.max_steps {
                self.failures.push(Failure {
                    kind: RunFailureKind::StepBudgetExhausted,
                    node: NodeId(0),
                    task: None,
                    stmt: None,
                    msg: format!("exceeded {} steps", self.config.max_steps),
                });
                return false;
            }
            // `>=`, not `==`: a quiescent clock jump can pass the planned step
            // without ever stopping on it
            if self.step >= panic_at {
                panic!("fault plan injected a host panic at step {panic_at} (chaos hook)")
            }
            self.wake_due();
            // A pending `rescan` or a fault-plan event that may be due
            // re-derives the list by a full scan. Otherwise the held tasks
            // are asked, once each and in index order, as a scan asks them
            // (a release rescans too), and the kept list is settled.
            let mut scanned = self.rescan || self.step >= self.fault_wake;
            if scanned {
                self.apply_due_faults();
                self.collect_actions(gate, false);
            } else {
                let mut released = false;
                for k in 0..self.held.len() {
                    let i = self.held[k];
                    if gate.is_released(self.tasks[i].id) {
                        self.set_state(i, TaskState::Runnable);
                        released = true;
                    }
                }
                if released {
                    self.collect_actions(gate, true);
                    scanned = true;
                } else {
                    self.settle();
                }
            }
            if self.ready.is_empty() {
                let timer = self.next_timer();
                if !scanned && self.fault_wake != u64::MAX && self.fault_wake <= timer {
                    // the clock would jump to a fault event found by an
                    // earlier scan, which a reply since may have made moot
                    self.collect_actions(gate, true);
                    debug_assert!(self.ready.is_empty(), "step {}", self.step);
                }
                let wake = timer.min(self.fault_wake);
                if wake != u64::MAX {
                    counter!("sim_clock_advances_total").add(wake - self.step);
                    self.step = wake;
                    continue;
                }
                if !self.held.is_empty() {
                    self.rescan = true;
                    let held: Vec<TaskId> = self.held.iter().map(|&i| self.tasks[i].id).collect();
                    let action = gate.on_stall(&held);
                    self.watch = WatchSet::of(gate);
                    match action {
                        StallAction::Release(ids) => {
                            for id in ids {
                                if let Some(i) = self.tasks.iter().position(|t| t.id == id) {
                                    if self.tasks[i].state == TaskState::HeldByGate {
                                        self.set_state(i, TaskState::Runnable);
                                    }
                                }
                            }
                        }
                        StallAction::Abandon => {
                            self.gate_abandoned = true;
                            for k in 0..self.held.len() {
                                self.set_state(self.held[k], TaskState::Runnable);
                            }
                        }
                    }
                    continue;
                }
                self.detect_quiescence_outcome();
                return false;
            }
            let pick = self.rng.gen_range(self.ready.len());
            let held = match self.ready.get(pick) {
                Action::RunTask(i) => {
                    if self.last_task.is_some_and(|prev| prev != i) {
                        self.context_switches += 1;
                    }
                    self.last_task = Some(i);
                    self.run_task_step(i, gate)
                }
                Action::Deliver(m) => {
                    self.deliver(m);
                    false
                }
            };
            self.step += 1;
            self.steps_executed += 1;
            if self.decided {
                return false;
            }
            if held && pause {
                return true;
            }
        }
    }

    /// Whether task `i` may be picked now: runnable, a sleeper whose step
    /// has come, or an idle worker whose source has work.
    fn task_ready(&self, i: usize) -> bool {
        let t = &self.tasks[i];
        match (t.state, t.kind) {
            (TaskState::Runnable, _) => true,
            (TaskState::Sleeping { until }, _) => until <= self.step,
            (TaskState::Idle, TaskKind::Worker { source }) => self.inbox.has_work(source),
            _ => false,
        }
    }

    /// What the scheduler may pick, for the task states, pending sources and
    /// network as they are: ready tasks by index, then deliverable messages
    /// by index. That order is part of the execution contract — the seeded
    /// pick is an index into it. Read-only and gate-free: `collect_actions`
    /// fills the list with it, a debug build checks every kept list by it.
    fn ready_actions(&self, mut out: impl FnMut(Action)) {
        for i in 0..self.tasks.len() {
            if self.task_ready(i) {
                out(Action::RunTask(i));
            }
        }
        for (m, f) in self.net.iter().enumerate() {
            if f.not_before <= self.step {
                out(Action::Deliver(m));
            }
        }
    }

    /// Fires the timers due by now: sleepers wake, and a delayed message
    /// that came due re-derives the deliverable messages.
    fn wake_due(&mut self) {
        let now = self.step;
        let mut delivery = false;
        while let Some((at, timer)) = self.ready.pop_due(now) {
            match timer {
                Timer::Wake(t) => {
                    if self.tasks[t].state == (TaskState::Sleeping { until: at }) {
                        self.set_state(t, TaskState::Runnable);
                    }
                }
                Timer::Delivery => delivery = true,
            }
        }
        if delivery {
            let due = self
                .net
                .iter()
                .enumerate()
                .filter(|(_, f)| f.not_before <= now);
            self.ready.set_messages(due.map(|(m, _)| m));
        }
    }

    /// The step of the earliest timer still in force, `u64::MAX` when there
    /// is none. A sleeper past the step budget counts (it runs the budget
    /// out); a delayed message past it never gets a timer.
    fn next_timer(&mut self) -> u64 {
        while let Some((at, timer)) = self.ready.next_timer() {
            let live = match timer {
                Timer::Wake(t) => self.tasks[t].state == (TaskState::Sleeping { until: at }),
                Timer::Delivery => true,
            };
            if live {
                return at;
            }
            self.ready.drop_next_timer();
        }
        u64::MAX
    }

    /// Asks the readiness of every marked task again, and checks the kept
    /// list against a full scan in a debug build.
    fn settle(&mut self) {
        while let Some(t) = self.ready.take_mark() {
            let ready = self.task_ready(t);
            self.ready.set_ready(t, ready);
        }
        #[cfg(debug_assertions)]
        {
            let (mut kept, step) = (self.ready.iter(), self.step);
            self.ready_actions(|a| debug_assert_eq!(kept.next(), Some(a), "step {step}"));
            debug_assert_eq!(kept.next(), None, "step {step}");
        }
    }

    /// The full scan: wakes gate-released tasks (`polled`: the held tasks
    /// have been asked this step already), refills the list, and notes the
    /// tasks still held and the earliest future fault-plan event (crash,
    /// restart, RPC-timeout deadline). Events at or past the step budget
    /// are unreachable, ignored.
    fn collect_actions(&mut self, gate: &mut dyn Gate, polled: bool) {
        let (now, budget) = (self.step, self.config.max_steps);
        let faults = &self.config.faults;
        let mut fault_wake = u64::MAX;
        let mut fault_at = |s: u64| {
            if s > now && s < budget {
                fault_wake = fault_wake.min(s);
            }
        };
        self.held.clear();
        for (i, t) in self.tasks.iter_mut().enumerate() {
            match t.state {
                TaskState::HeldByGate if !polled && gate.is_released(t.id) => {
                    t.state = TaskState::Runnable;
                }
                TaskState::HeldByGate => self.held.push(i),
                TaskState::BlockedRpc { .. } if !self.crashed[t.node.index()] => {
                    if let Some(deadline) = faults.rpc_deadline(t.node, t.blocked_at) {
                        fault_at(deadline);
                    }
                }
                _ => {}
            }
        }
        self.crash_queue.iter().for_each(|c| fault_at(c.at_step));
        self.pending_restarts.iter().for_each(|(s, _)| fault_at(*s));
        self.fault_wake = fault_wake;
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        self.ready_actions(|a| ready.push(a));
        self.ready = ready;
        self.rescan = false;
        self.sched_rebuilds += 1;
    }

    fn detect_quiescence_outcome(&mut self) {
        // Tasks of a deliberately crashed node are expected casualties,
        // not deadlock evidence: only blocked tasks on live nodes count.
        let blocked: Vec<usize> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !self.crashed[t.node.index()]
                    && matches!(
                        t.state,
                        TaskState::BlockedJoin { .. }
                            | TaskState::BlockedRpc { .. }
                            | TaskState::BlockedLock { .. }
                    )
            })
            .map(|(i, _)| i)
            .collect();
        if !blocked.is_empty() {
            let first = blocked[0];
            let node = self.tasks[first].node;
            let desc: Vec<String> = blocked
                .iter()
                .map(|&i| {
                    let t = &self.tasks[i];
                    match t.state {
                        // the lock by name, as the state printed it when it held one
                        TaskState::BlockedLock { lock } => {
                            let name = &self.prep.cp.locks[lock];
                            format!("{} (BlockedLock {{ lock: {name:?} }})", t.id)
                        }
                        state => format!("{} ({state:?})", t.id),
                    }
                })
                .collect();
            self.failures.push(Failure {
                kind: RunFailureKind::Deadlock,
                node,
                task: Some(self.tasks[first].id),
                stmt: None,
                msg: format!("blocked forever: {}", desc.join(", ")),
            });
        }
    }

    fn finish(self) -> RunResult {
        counter!("sim_steps_total").add(self.steps_executed);
        counter!("sim_sched_rebuilds_total").add(self.sched_rebuilds);
        counter!("sim_context_switches_total").add(self.context_switches);
        counter!("sim_trace_records_total").add(self.records_written);
        counter!("sim_messages_delivered_total").add(self.messages_delivered);
        let deadlocked = self.failures.iter().any(|f| {
            matches!(
                f.kind,
                RunFailureKind::Deadlock | RunFailureKind::StepBudgetExhausted
            )
        });
        RunResult {
            trace: self.trace,
            failures: self.failures,
            logs: self.logs,
            steps: self.step,
            completed: !deadlocked,
            decided: self.decided,
            gate_abandoned: self.gate_abandoned,
            faults_injected: self.faults_injected,
        }
    }

    // -- fault injection ------------------------------------------------------

    /// Emits a node-level fault record (crash/restart). Attributed to the
    /// node's task 0 in regular context so the record joins that task's
    /// program-order group: everything the node did before the crash
    /// happens-before the crash record, and crash → restart is ordered.
    fn emit_node(&mut self, node: NodeId, kind: OpKind) {
        if !self.config.trace_enabled {
            return;
        }
        self.write(Record {
            seq: self.seq,
            task: TaskId { node, index: 0 },
            ctx: ExecCtx::Regular,
            kind,
            stack: StackId::EMPTY,
        });
    }

    fn count_fault(&mut self) {
        self.faults_injected += 1;
        counter!("faults_injected").inc();
    }

    /// Applies every fault whose time has come: due crashes, due restarts,
    /// and RPC timeouts (the chaos panic hook is `run_loop`'s).
    fn apply_due_faults(&mut self) {
        let mut i = 0;
        while i < self.crash_queue.len() {
            if self.crash_queue[i].at_step <= self.step {
                let c = self.crash_queue.remove(i);
                self.apply_crash(&c);
            } else {
                i += 1;
            }
        }
        let mut j = 0;
        while j < self.pending_restarts.len() {
            if self.pending_restarts[j].0 <= self.step {
                let (_, node) = self.pending_restarts.remove(j);
                self.apply_restart(node);
            } else {
                j += 1;
            }
        }
        if !self.config.faults.rpc_timeouts.is_empty() {
            self.fire_rpc_timeouts();
        }
    }

    fn apply_crash(&mut self, c: &CrashFault) {
        let node = c.node;
        if node.index() >= self.prep.nodes.len() || self.crashed[node.index()] {
            return;
        }
        self.crashed[node.index()] = true;
        self.count_fault();
        counter!("sim_node_crashes_total").inc();
        self.emit_node(node, OpKind::NodeCrash { node });
        for i in 0..self.tasks.len() {
            let t = &self.tasks[i];
            if t.node == node && !matches!(t.state, TaskState::Done | TaskState::Killed) {
                let (task, ctx) = (t.id, t.ctx);
                self.set_state(i, TaskState::Crashed);
                self.ctl(StreamControl::ChainDone { task, ctx });
            }
        }
        // the node loses all volatile state; its undispatched jobs die with
        // it, and their causes are announced as dropped: the event queues'
        // in queue-name order, then the RPC, socket and watcher pools'
        let i = node.index();
        self.heaps[i].fill(None);
        self.locks[i].fill_with(LockState::default);
        let mut by_name: Vec<QueueId> = (0..self.prep.cp.queues.len()).collect();
        by_name.sort_by_key(|&q| &self.prep.cp.queues[q]);
        let queues = by_name.into_iter().map(|q| self.inbox.queue(node, q));
        let pools = [Pool::Rpc, Pool::Socket, Pool::Watch].map(|p| self.inbox.pool(node, p));
        let sources: Vec<usize> = queues.chain(pools).collect();
        for source in sources {
            for job in self.inbox.take(source, &mut self.ready) {
                self.lost(|| job.kind.cause());
            }
        }
        if let Some(r) = c.restart_after {
            self.pending_restarts
                .push((self.step.saturating_add(r), node));
        }
    }

    fn apply_restart(&mut self, node: NodeId) {
        if !self.crashed[node.index()] {
            return;
        }
        self.crashed[node.index()] = false;
        self.count_fault();
        counter!("sim_node_restarts_total").inc();
        self.emit_node(node, OpKind::NodeRestart { node });
        // fresh worker pool and entry tasks; task indices keep counting
        // up, so reborn tasks are distinct from their pre-crash selves
        self.setup_node(node);
    }

    /// Wakes callers blocked on an RPC longer than a matching timeout
    /// policy allows: they receive `null` and continue. A late reply is
    /// ignored by `deliver` because the task no longer waits on that id.
    fn fire_rpc_timeouts(&mut self) {
        for t in 0..self.tasks.len() {
            let (rpc, node, since) = {
                let task = &self.tasks[t];
                match task.state {
                    TaskState::BlockedRpc { rpc } => (rpc, task.node, task.blocked_at),
                    _ => continue,
                }
            };
            if self.crashed[node.index()] {
                continue;
            }
            let deadline = self.config.faults.rpc_deadline(node, since);
            if deadline.is_none_or(|d| self.step < d) {
                continue;
            }
            self.resume_rpc_caller(t, Value::Null);
            self.emit(t, OpKind::RpcTimeout { rpc: RpcId(rpc) });
            self.count_fault();
            counter!("sim_rpc_timeouts_total").inc();
        }
    }

    // -- delivery -------------------------------------------------------------

    /// Hands the value of a finished (or timed-out) RPC to the blocked
    /// caller `t` and makes it runnable again.
    fn resume_rpc_caller(&mut self, t: usize, value: Value) {
        let task = &mut self.tasks[t];
        if let (Some(local), Some(frame)) = (task.rpc_ret_local.take(), task.frames.last_mut()) {
            frame.locals[local] = Some(value);
        }
        self.set_state(t, TaskState::Runnable);
    }

    // -- task stepping ----------------------------------------------------------

    /// Runs one step of task `t` under `gate`; returns whether the gate
    /// held the task instead.
    fn run_task_step(&mut self, t: usize, gate: &mut dyn Gate) -> bool {
        if self.tasks[t].state == TaskState::Idle {
            self.dispatch(t);
            return false;
        }
        if self.tasks[t].frames.is_empty() {
            // nothing to run (shouldn't happen); park the task
            self.set_state(t, TaskState::Done);
            return false;
        }
        if !self.tasks[t].begun && matches!(self.tasks[t].kind, TaskKind::Entry | TaskKind::Thread)
        {
            self.tasks[t].begun = true;
            self.emit(t, OpKind::ThreadBegin);
        }
        let frame = self.tasks[t].frames.last().expect("frame");
        // borrowed from the prepared program, not from `self`, which `exec` mutates
        let cf = self.prep.cp.func(frame.func);
        let instr = &cf.instrs[frame.pc];

        // gate consultation, on the statements the gate watches only
        let ev = GateEvent {
            task: self.tasks[t].id,
            stmt: instr.stmt,
        };
        if self.watch.contains(ev.stmt) {
            let decision = gate.before(&ev);
            self.watch = WatchSet::of(gate);
            if decision == GateDecision::Hold {
                self.set_state(t, TaskState::HeldByGate);
                self.rescan = true;
                return true;
            }
        }

        let failed = self.failures.len();
        let flow = self.exec(t, cf, &instr.op, instr.stmt);
        if self.failures.len() > failed {
            self.decided |= gate.decided(&self.failures);
        }
        match flow {
            Flow::Next => {
                if let Some(f) = self.tasks[t].frames.last_mut() {
                    f.pc += 1;
                }
            }
            Flow::Goto(target) => {
                if let Some(f) = self.tasks[t].frames.last_mut() {
                    f.pc = target;
                }
            }
            Flow::Stay | Flow::Handled | Flow::Dead => {}
        }
        // confirm only operations that actually executed: a blocked
        // instruction (Flow::Stay) re-runs later and must not advance the
        // controller's protocol
        let completed = !matches!(flow, Flow::Dead | Flow::Stay);
        if completed && self.watch.contains(ev.stmt) {
            gate.after(&ev);
            self.watch = WatchSet::of(gate);
            self.decided |= gate.decided(&self.failures);
        }
        false
    }

    /// Gives the idle worker `t` the next job from its source (which has
    /// one: the worker was ready).
    fn dispatch(&mut self, t: usize) {
        let TaskKind::Worker { source } = self.tasks[t].kind else {
            unreachable!("only a worker idles")
        };
        let job = self.inbox.pop(source, &mut self.ready);
        self.start_handler(t, job.expect("a ready worker's source has work"));
    }

    /// Puts worker `t` into a fresh handler context running `job` and
    /// emits the handler's begin record.
    fn start_handler(&mut self, t: usize, job: Job) {
        let kind = match job.kind {
            JobKind::Event { .. } => {
                counter!("sim_events_dispatched_total").inc();
                HandlerKind::Event
            }
            JobKind::Rpc { .. } => HandlerKind::Rpc,
            JobKind::Socket { .. } => HandlerKind::Socket,
            JobKind::Watch { .. } => HandlerKind::ZkWatcher,
        };
        let instance = self.next_instance;
        self.next_instance += 1;
        let frame = self.make_frame(job.func, job.args, None, StackId::EMPTY);
        let task = &mut self.tasks[t];
        task.ctx = ExecCtx::Handler { kind, instance };
        task.frames.push(frame);
        self.set_state(t, TaskState::Runnable);
        if self.config.trace_enabled {
            let begin = job.kind.begin(self.trace.names_mut());
            self.emit(t, begin);
        }
        self.tasks[t].job = Some(job.kind);
    }

    /// The task's function body finished with `value`.
    fn task_body_finished(&mut self, t: usize, value: Value) {
        // the chain that is ending is (task, current ctx) — captured before
        // a worker's context is reset back to Regular
        let (task, ctx) = (self.tasks[t].id, self.tasks[t].ctx);
        let Some(job) = self.tasks[t].job.take() else {
            self.emit(t, OpKind::ThreadEnd);
            self.set_state(t, TaskState::Done);
            self.ctl(StreamControl::ChainDone { task, ctx });
            self.wake_joiners(t);
            return;
        };
        match job {
            JobKind::Event { event } => self.emit(t, OpKind::EventEnd { event }),
            JobKind::Rpc { rpc, caller } => {
                self.emit(t, OpKind::RpcEnd { rpc });
                let reply = Message::RpcReply { rpc, caller, value };
                self.post(self.tasks[t].node, reply);
            }
            JobKind::Socket { .. } | JobKind::Watch { .. } => {}
        }
        self.tasks[t].ctx = ExecCtx::Regular;
        self.set_state(t, TaskState::Idle);
        self.ctl(StreamControl::ChainDone { task, ctx });
    }

    // -- expression evaluation ----------------------------------------------------

    fn eval(&self, t: usize, e: &SlotExpr) -> Result<Value, String> {
        let task = &self.tasks[t];
        let frame = task.frames.last().ok_or("no frame")?;
        let names = &self.prep.cp.func(frame.func).locals;
        eval_in(&frame.locals, names, task.node, e)
    }

    /// Kills `t` with an uncaught `exception` (the failure keeps both).
    fn throw(&mut self, t: usize, exception: &str, msg: String) -> Flow {
        self.kill(t, RunFailureKind::UncaughtThrow(exception.to_owned()), msg);
        Flow::Dead
    }

    /// Kills `t` with the `EvalError` an expression of its failed with.
    #[cold]
    fn eval_failed(&mut self, t: usize, msg: String) -> Flow {
        self.throw(t, "EvalError", msg)
    }

    fn eval_or_kill(&mut self, t: usize, e: &SlotExpr) -> Option<Value> {
        match self.eval(t, e) {
            Ok(v) => Some(v),
            Err(msg) => {
                self.eval_failed(t, msg);
                None
            }
        }
    }

    /// Evaluates call arguments left to right, stopping at the first that
    /// kills the task.
    fn eval_args(&mut self, t: usize, args: &[SlotExpr]) -> Option<Vec<Value>> {
        args.iter().map(|a| self.eval_or_kill(t, a)).collect()
    }

    fn eval_node(&mut self, t: usize, e: &SlotExpr) -> Option<NodeId> {
        let v = self.eval_or_kill(t, e)?;
        match v.as_node() {
            Some(n) if n.index() < self.prep.nodes.len() => Some(n),
            _ => {
                self.throw(t, "UnknownHostException", format!("`{v}` is not a node"));
                None
            }
        }
    }

    #[inline]
    fn set_local(&mut self, t: usize, local: Slot, v: Value) {
        if let Some(f) = self.tasks[t].frames.last_mut() {
            f.locals[local] = Some(v);
        }
    }

    /// The heap cell of `object` on the node of task `t`.
    fn heap(&mut self, t: usize, object: ObjId) -> &mut Option<HeapObj> {
        &mut self.heaps[self.tasks[t].node.index()][object]
    }

    /// Throws `ClassCastException` from task `t`: a heap op that works on
    /// a `kind` found `object` to be another kind. Every heap op checks
    /// before it touches the object or emits its record.
    #[cold]
    fn not_a(&mut self, t: usize, object: ObjId, kind: &str) -> Flow {
        let msg = format!("`{}` is not a {kind}", self.prep.cp.objects[object]);
        self.throw(t, "ClassCastException", msg)
    }

    // -- instruction execution ---------------------------------------------------

    /// Executes one instruction of task `t`, an instruction of `cf`. The
    /// seven operations nearly every executed step is — a loop's head,
    /// assignment, jumps and the plain heap accesses — run here, inlined
    /// into the step: they evaluate over the frame and index the node's
    /// heap that one look-up of the task gives, and enter the trace only
    /// when the run records. Every other operation is
    /// [`exec_cold`](World::exec_cold)'s. Names are taken from the
    /// compiled program only to build what leaves the simulator (trace
    /// records, failure messages).
    #[inline(always)]
    fn exec(&mut self, t: usize, cf: &CompiledFunc, op: &Op, stmt: StmtId) -> Flow {
        let task = &mut self.tasks[t];
        let node = task.node;
        let frame = task.frames.last_mut().expect("frame");
        let eval = |e| eval_in(&frame.locals, &cf.locals, node, e);
        match op {
            Op::LoopHead {
                loop_id,
                retry,
                cond,
                exit,
            } => {
                let truthy = match eval(cond) {
                    Ok(v) => v.truthy(),
                    Err(msg) => return self.eval_failed(t, msg),
                };
                if !truthy {
                    return Flow::Goto(*exit);
                }
                if !*retry {
                    return Flow::Next;
                }
                let iters = task.iters_of(*loop_id);
                *iters += 1;
                if *iters > self.config.retry_loop_budget {
                    return self.retry_hang(t, *loop_id);
                }
                Flow::Next
            }
            Op::Assign { local, expr } => match eval(expr) {
                Ok(v) => {
                    frame.locals[*local] = Some(v);
                    Flow::Next
                }
                Err(msg) => self.eval_failed(t, msg),
            },
            Op::Jump { target } => Flow::Goto(*target),
            Op::Branch { cond, target } => match eval(cond) {
                Ok(v) if v.truthy() => Flow::Next,
                Ok(_) => Flow::Goto(*target),
                Err(msg) => self.eval_failed(t, msg),
            },
            Op::Read { local, object } => {
                let v = match &self.heaps[node.index()][*object] {
                    Some(HeapObj::Cell(v)) => v.clone(),
                    None => Value::Null,
                    Some(_) => return self.not_a(t, *object, "cell"),
                };
                self.emit_mem(t, false, Object::Heap(*object), None, &v);
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::Write { object, value } => {
                let v = match eval(value) {
                    Ok(v) => v,
                    Err(msg) => return self.eval_failed(t, msg),
                };
                if !matches!(
                    self.heaps[node.index()][*object],
                    None | Some(HeapObj::Cell(_))
                ) {
                    return self.not_a(t, *object, "cell");
                }
                self.emit_mem(t, true, Object::Heap(*object), None, &v);
                self.heaps[node.index()][*object] = Some(HeapObj::Cell(v));
                Flow::Next
            }
            Op::MapPut { map, key, value } => {
                // both operands are evaluated, whatever the first gives
                let (k, v) = match (eval(key), eval(value)) {
                    (Ok(k), Ok(v)) => (k, v),
                    (k, v) => return self.eval_errors(t, [k.err(), v.err()]),
                };
                if !matches!(self.heaps[node.index()][*map], None | Some(HeapObj::Map(_))) {
                    return self.not_a(t, *map, "map");
                }
                let k = MapKey::of(k);
                self.emit_mem(t, true, Object::Heap(*map), Some(&k), &v);
                let cell = &mut self.heaps[node.index()][*map];
                if let HeapObj::Map(m) =
                    cell.get_or_insert_with(|| HeapObj::Map(HeapMap::default()))
                {
                    m.insert(k, v);
                }
                Flow::Next
            }
            op => self.exec_cold(t, op, stmt),
        }
    }

    /// Kills `t` with the `EvalError` of each of an operation's operands
    /// that failed, in operand order.
    #[cold]
    fn eval_errors(&mut self, t: usize, errors: [Option<String>; 2]) -> Flow {
        for msg in errors.into_iter().flatten() {
            self.eval_failed(t, msg);
        }
        Flow::Dead
    }

    /// Kills `t`, whose retry loop `loop_id` spun past the budget.
    #[cold]
    fn retry_hang(&mut self, t: usize, loop_id: LoopId) -> Flow {
        self.kill(
            t,
            RunFailureKind::RetryLoopHang(loop_id),
            format!(
                "retry loop {} spun past {} iterations",
                loop_id.0, self.config.retry_loop_budget
            ),
        );
        Flow::Dead
    }

    /// Executes every operation [`exec`](World::exec) does not run inline.
    /// A new [`Op`] belongs here unless the step counts of a workload show
    /// it among the operations nearly every step is.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_lines)]
    fn exec_cold(&mut self, t: usize, op: &Op, stmt: StmtId) -> Flow {
        let cp = &self.prep.cp;
        match op {
            Op::MapGet { local, map, key } => {
                let Some(k) = self.eval_or_kill(t, key) else {
                    return Flow::Dead;
                };
                let k = MapKey::of(k);
                let v = match self.heap(t, *map) {
                    Some(HeapObj::Map(m)) => m.get(&k).cloned().unwrap_or(Value::Null),
                    None => Value::Null,
                    Some(_) => return self.not_a(t, *map, "map"),
                };
                self.emit_mem(t, false, Object::Heap(*map), Some(&k), &v);
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::MapRemove { map, key } => {
                let Some(k) = self.eval_or_kill(t, key) else {
                    return Flow::Dead;
                };
                let k = MapKey::of(k);
                match self.heap(t, *map) {
                    Some(HeapObj::Map(m)) => m.remove(&k),
                    None => {}
                    Some(_) => return self.not_a(t, *map, "map"),
                }
                self.emit_mem(t, true, Object::Heap(*map), Some(&k), &Value::Null);
                Flow::Next
            }
            Op::MapContains { local, map, key } => {
                let Some(k) = self.eval_or_kill(t, key) else {
                    return Flow::Dead;
                };
                let k = MapKey::of(k);
                let present = match self.heap(t, *map) {
                    Some(HeapObj::Map(m)) => m.contains_key(&k),
                    None => false,
                    Some(_) => return self.not_a(t, *map, "map"),
                };
                let v = Value::Bool(present);
                self.emit_mem(t, false, Object::Heap(*map), Some(&k), &v);
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::ListAdd { list, value } => {
                let Some(v) = self.eval_or_kill(t, value) else {
                    return Flow::Dead;
                };
                if !matches!(self.heap(t, *list), None | Some(HeapObj::List(_))) {
                    return self.not_a(t, *list, "list");
                }
                self.emit_mem(t, true, Object::Heap(*list), None, &v);
                let obj = self.heap(t, *list);
                if let HeapObj::List(l) = obj.get_or_insert_with(|| HeapObj::List(Vec::new())) {
                    l.push(v);
                }
                Flow::Next
            }
            Op::ListRemove { list, value } => {
                let Some(v) = self.eval_or_kill(t, value) else {
                    return Flow::Dead;
                };
                match self.heap(t, *list) {
                    Some(HeapObj::List(l)) => {
                        if let Some(pos) = l.iter().position(|x| x == &v) {
                            l.remove(pos);
                        }
                    }
                    None => {}
                    Some(_) => return self.not_a(t, *list, "list"),
                }
                self.emit_mem(t, true, Object::Heap(*list), None, &v);
                Flow::Next
            }
            Op::ListIsEmpty { local, list } => {
                let empty = match self.heap(t, *list) {
                    Some(HeapObj::List(l)) => l.is_empty(),
                    None => true,
                    Some(_) => return self.not_a(t, *list, "list"),
                };
                let v = Value::Bool(empty);
                self.emit_mem(t, false, Object::Heap(*list), None, &v);
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::ListContains { local, list, value } => {
                let Some(v) = self.eval_or_kill(t, value) else {
                    return Flow::Dead;
                };
                let present = match self.heap(t, *list) {
                    Some(HeapObj::List(l)) => l.contains(&v),
                    None => false,
                    Some(_) => return self.not_a(t, *list, "list"),
                };
                let out = Value::Bool(present);
                self.emit_mem(t, false, Object::Heap(*list), None, &out);
                self.set_local(t, *local, out);
                Flow::Next
            }

            Op::LoopEnter { loop_id, retry } => {
                if *retry {
                    *self.tasks[t].iters_of(*loop_id) = 0;
                    self.emit(t, OpKind::LoopEnter { loop_id: *loop_id });
                    self.pass_loop_marker();
                }
                Flow::Next
            }
            Op::LoopExit { loop_id, retry } => {
                if *retry {
                    self.emit(t, OpKind::LoopExit { loop_id: *loop_id });
                    self.pass_loop_marker();
                }
                Flow::Next
            }

            Op::Call { local, func, args } => {
                let Some(vals) = self.eval_args(t, args) else {
                    return Flow::Dead;
                };
                // advance caller pc first so return lands after the call
                if let Some(f) = self.tasks[t].frames.last_mut() {
                    f.pc += 1;
                }
                // the callee's call sites, named only where a record can
                // use them
                let site = match self.tasks[t].frames.last() {
                    Some(caller) if self.config.trace_enabled => {
                        let caller = caller.site;
                        self.trace.names_mut().frame(caller, stmt)
                    }
                    _ => StackId::EMPTY,
                };
                let frame = self.make_frame(*func, vals, *local, site);
                self.tasks[t].frames.push(frame);
                Flow::Handled
            }
            Op::Return { expr } => {
                let v = match expr {
                    Some(e) => match self.eval_or_kill(t, e) {
                        Some(v) => v,
                        None => return Flow::Dead,
                    },
                    None => Value::Unit,
                };
                let finished = self.tasks[t].frames.pop().expect("frame");
                if self.tasks[t].frames.is_empty() {
                    self.task_body_finished(t, v);
                } else if let Some(local) = finished.ret_local {
                    self.set_local(t, local, v);
                }
                Flow::Handled
            }

            Op::Spawn { local, func, args } => {
                let Some(vals) = self.eval_args(t, args) else {
                    return Flow::Dead;
                };
                let node = self.tasks[t].node;
                let child = self.new_task(node, TaskKind::Thread, TaskState::Runnable);
                let frame = self.make_frame(*func, vals, None, StackId::EMPTY);
                self.tasks[child].frames.push(frame);
                let child_id = self.tasks[child].id;
                let handle = self.tasks[child].handle;
                self.emit(t, OpKind::ThreadCreate { child: child_id });
                if let Some(local) = local {
                    self.set_local(t, *local, Value::Thread(handle));
                }
                Flow::Next
            }
            Op::Join { handle } => {
                let Some(v) = self.eval_or_kill(t, handle) else {
                    return Flow::Dead;
                };
                let Value::Thread(h) = v else {
                    let msg = format!("join of non-thread `{v}`");
                    return self.throw(t, "ClassCastException", msg);
                };
                let Some(child) = self.tasks.iter().position(|x| x.handle == h) else {
                    let msg = "join of unknown thread".to_owned();
                    return self.throw(t, "IllegalThreadState", msg);
                };
                match self.tasks[child].state {
                    TaskState::Done | TaskState::Killed => {
                        let child_id = self.tasks[child].id;
                        self.emit(t, OpKind::ThreadJoin { child: child_id });
                        Flow::Next
                    }
                    _ => {
                        self.set_state(t, TaskState::BlockedJoin { handle: h });
                        Flow::Stay
                    }
                }
            }
            Op::Enqueue { queue, func, args } => {
                let Some(vals) = self.eval_args(t, args) else {
                    return Flow::Dead;
                };
                let (node, name) = (self.tasks[t].node, &cp.queues[*queue]);
                let declared = &self.prep.nodes[node.index()].queues;
                if !declared.iter().any(|&(q, _)| q == *queue) {
                    let msg = format!("queue `{name}` not declared on {node}");
                    return self.throw(t, "NoSuchQueueException", msg);
                }
                let event = EventId(self.next_event);
                self.next_event += 1;
                // register before emitting so a streaming sink knows the
                // event's queue when the `EventCreate` record arrives
                self.trace.register_event(event.0, node, name.clone());
                if self.streaming() {
                    self.ctl(StreamControl::RegisterEvent {
                        event: event.0,
                        node,
                        queue: name.clone(),
                    });
                }
                self.emit(t, OpKind::EventCreate { event });
                let job = Job {
                    func: *func,
                    args: vals,
                    kind: JobKind::Event { event },
                };
                let source = self.inbox.queue(node, *queue);
                self.inbox.push(source, job, &mut self.ready);
                Flow::Next
            }
            Op::Lock { lock } => {
                let node = self.tasks[t].node;
                let state = &mut self.locks[node.index()][*lock];
                match state.holder {
                    None => {
                        state.holder = Some(t);
                        let lock = LockRef {
                            node,
                            name: self.prep.lock_name(*lock),
                        };
                        self.emit(t, OpKind::LockAcquire { lock });
                        Flow::Next
                    }
                    Some(h) if h == t => {
                        let msg = format!("reentrant acquisition of `{}`", cp.locks[*lock]);
                        self.throw(t, "IllegalMonitorState", msg)
                    }
                    Some(_) => {
                        state.waiters.push(t);
                        self.set_state(t, TaskState::BlockedLock { lock: *lock });
                        Flow::Stay
                    }
                }
            }
            Op::Unlock { lock } => {
                let node = self.tasks[t].node;
                let state = &mut self.locks[node.index()][*lock];
                if state.holder != Some(t) {
                    let msg = format!("unlock of `{}` not held", cp.locks[*lock]);
                    return self.throw(t, "IllegalMonitorState", msg);
                }
                state.holder = None;
                let name = self.prep.lock_name(*lock);
                self.emit(
                    t,
                    OpKind::LockRelease {
                        lock: LockRef { node, name },
                    },
                );
                self.wake_lock_waiters(node.index(), *lock);
                Flow::Next
            }

            Op::RpcCall {
                local,
                node,
                func,
                args,
            } => {
                let Some(target) = self.eval_node(t, node) else {
                    return Flow::Dead;
                };
                let Some(vals) = self.eval_args(t, args) else {
                    return Flow::Dead;
                };
                let rpc = RpcId(self.next_rpc);
                self.next_rpc += 1;
                counter!("sim_rpcs_issued_total").inc();
                self.emit(t, OpKind::RpcCreate { rpc });
                let from = self.tasks[t].node;
                let job = Job {
                    func: *func,
                    args: vals,
                    kind: JobKind::Rpc { rpc, caller: t },
                };
                self.post(from, Message::Work { target, job });
                self.tasks[t].rpc_ret_local = *local;
                self.tasks[t].blocked_at = self.step;
                self.set_state(t, TaskState::BlockedRpc { rpc: rpc.0 });
                // its deadline is a fault-plan event: a full scan notes it
                self.rescan |= self.config.faults.rpc_deadline(from, self.step).is_some();
                // advance pc now; the task resumes after the reply
                if let Some(f) = self.tasks[t].frames.last_mut() {
                    f.pc += 1;
                }
                Flow::Handled
            }
            Op::SocketSend { node, func, args } => {
                let Some(target) = self.eval_node(t, node) else {
                    return Flow::Dead;
                };
                let Some(vals) = self.eval_args(t, args) else {
                    return Flow::Dead;
                };
                let msg = MsgId(self.next_msg);
                self.next_msg += 1;
                self.emit(t, OpKind::SocketSend { msg });
                let job = Job {
                    func: *func,
                    args: vals,
                    kind: JobKind::Socket { msg },
                };
                self.post(self.tasks[t].node, Message::Work { target, job });
                Flow::Next
            }

            Op::ZkCreate {
                path,
                data,
                exclusive,
            } => {
                let (Some(p), Some(d)) = (self.eval_or_kill(t, path), self.eval_or_kill(t, data))
                else {
                    return Flow::Dead;
                };
                let p = p.key_string();
                if *exclusive && self.zk.data.contains_key(&p) {
                    let msg = format!("create of existing znode `{p}`");
                    return self.throw(t, "NodeExistsException", msg);
                }
                self.zk_write(t, &p, Some(d));
                Flow::Next
            }
            Op::ZkSetData { path, data } => {
                let (Some(p), Some(d)) = (self.eval_or_kill(t, path), self.eval_or_kill(t, data))
                else {
                    return Flow::Dead;
                };
                let p = p.key_string();
                if !self.zk.data.contains_key(&p) {
                    let msg = format!("setData of absent znode `{p}`");
                    return self.throw(t, "NoNodeException", msg);
                }
                self.zk_write(t, &p, Some(d));
                Flow::Next
            }
            Op::ZkDelete { path } => {
                let Some(p) = self.eval_or_kill(t, path) else {
                    return Flow::Dead;
                };
                let p = p.key_string();
                if !self.zk.data.contains_key(&p) {
                    let msg = format!("delete of absent znode `{p}`");
                    return self.throw(t, "NoNodeException", msg);
                }
                self.zk_write(t, &p, None);
                Flow::Next
            }
            Op::ZkGetData { local, path } => {
                let Some(p) = self.eval_or_kill(t, path) else {
                    return Flow::Dead;
                };
                let p = p.key_string();
                let Some(v) = self.zk.data.get(&p).cloned() else {
                    let msg = format!("getData of absent znode `{p}`");
                    return self.throw(t, "NoNodeException", msg);
                };
                self.emit_mem(t, false, Object::Zk(&p), None, &v);
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::ZkExists { local, path } => {
                let Some(p) = self.eval_or_kill(t, path) else {
                    return Flow::Dead;
                };
                let p = p.key_string();
                let v = Value::Bool(self.zk.data.contains_key(&p));
                self.emit_mem(t, false, Object::Zk(&p), None, &v);
                self.set_local(t, *local, v);
                Flow::Next
            }

            Op::Abort { msg } => {
                self.kill(t, RunFailureKind::Abort, msg.clone());
                Flow::Dead
            }
            Op::LogFatal { msg } => {
                let task = &self.tasks[t];
                self.logs.push(LogLine {
                    level: LogLevel::Fatal,
                    node: task.node,
                    task: task.id,
                    msg: msg.clone(),
                });
                self.fail(t, RunFailureKind::FatalLog, msg.clone());
                Flow::Next
            }
            Op::LogWarn { msg } => {
                let task = &self.tasks[t];
                self.logs.push(LogLine {
                    level: LogLevel::Warn,
                    node: task.node,
                    task: task.id,
                    msg: msg.clone(),
                });
                Flow::Next
            }
            Op::Throw { kind } => self.throw(t, kind, format!("`{kind}` thrown")),

            Op::Sleep { ticks } => {
                let Some(v) = self.eval_or_kill(t, ticks) else {
                    return Flow::Dead;
                };
                let until = self
                    .step
                    .saturating_add(v.as_int().unwrap_or(0).max(0) as u64);
                self.set_state(t, TaskState::Sleeping { until });
                self.ready.add_timer(until, Timer::Wake(t));
                if let Some(f) = self.tasks[t].frames.last_mut() {
                    f.pc += 1;
                }
                Flow::Handled
            }
            Op::Yield | Op::Nop => Flow::Next,
            Op::LoopHead { .. }
            | Op::Assign { .. }
            | Op::Jump { .. }
            | Op::Branch { .. }
            | Op::Read { .. }
            | Op::Write { .. }
            | Op::MapPut { .. } => unreachable!("`exec` runs {op:?} inline"),
        }
    }

    /// Writes (or deletes, `data = None`) a zknode: bumps the version,
    /// emits the memory write + `ZkUpdate`, and fans out watcher
    /// notifications.
    fn zk_write(&mut self, t: usize, path: &str, data: Option<Value>) {
        let version = match self.zk.versions.get_mut(path) {
            Some(version) => {
                *version += 1;
                *version
            }
            None => {
                self.zk.versions.insert(path.to_owned(), 1);
                1
            }
        };
        let stored = match data {
            Some(v) => {
                self.zk.data.insert(path.to_owned(), v.clone());
                v
            }
            None => {
                self.zk.data.remove(path);
                Value::Null
            }
        };
        self.emit_mem(t, true, Object::Zk(path), None, &stored);
        if self.config.trace_enabled {
            let path = self.trace.names_mut().intern(path);
            self.emit(t, OpKind::ZkUpdate { path, version });
        }
        let from = self.tasks[t].node;
        let mut copies = 0usize;
        for (target, prefix, handler) in &self.prep.watchers {
            if path.starts_with(prefix) {
                let job = Job {
                    func: *handler,
                    args: vec![Value::Str(path.to_owned()), stored.clone()],
                    kind: JobKind::Watch {
                        path: path.to_owned(),
                        version,
                    },
                };
                copies += self.send(
                    from,
                    Message::Work {
                        target: *target,
                        job,
                    },
                );
            }
        }
        if self.streaming() {
            self.ctl(StreamControl::CauseFanout {
                key: CauseKey::ZkPushed(path.to_owned(), version),
                copies: copies as u32,
            });
        }
    }
}

/// Evaluates `e` over a frame's `locals`. An operator reads its operands
/// where they live — a constant in the compiled program, a local in the
/// frame — and builds only its result; an operand that is itself an
/// operator is evaluated once, into a temporary. Both operands of a binary
/// operator are evaluated, left first, whatever the operator (`And` / `Or`
/// included), so the left operand's error is the one reported. `names`
/// (by slot) only feed the "undefined local" message.
fn eval_in(
    locals: &[Option<Value>],
    names: &[String],
    node: NodeId,
    e: &SlotExpr,
) -> Result<Value, String> {
    match e {
        SlotExpr::Binary(op, a, b) => {
            let (mut ta, mut tb) = (None, None);
            let a = operand(locals, names, node, a, &mut ta)?;
            let b = operand(locals, names, node, b, &mut tb)?;
            binary(*op, a, b)
        }
        SlotExpr::Unary(op, a) => {
            let mut ta = None;
            match (op, operand(locals, names, node, a, &mut ta)?) {
                (UnOp::Not, a) => Ok(Value::Bool(!a.truthy())),
                (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                (UnOp::Neg, _) => Err(negation_of_non_integer()),
            }
        }
        SlotExpr::SelfNode => Ok(Value::Node(node)),
        SlotExpr::Const(v) => Ok(v.clone()),
        SlotExpr::Local(slot) => local(locals, names, *slot).cloned(),
    }
}

/// Local `slot` of the frame, in place.
fn local<'v>(
    locals: &'v [Option<Value>],
    names: &[String],
    slot: Slot,
) -> Result<&'v Value, String> {
    locals[slot]
        .as_ref()
        .ok_or_else(|| undefined_local(&names[slot]))
}

/// Operand `e` in place when it is a constant or a local; otherwise
/// evaluated into `tmp`.
#[inline]
fn operand<'v>(
    locals: &'v [Option<Value>],
    names: &[String],
    node: NodeId,
    e: &'v SlotExpr,
    tmp: &'v mut Option<Value>,
) -> Result<&'v Value, String> {
    match e {
        SlotExpr::Const(v) => Ok(v),
        SlotExpr::Local(slot) => local(locals, names, *slot),
        e => Ok(tmp.insert(eval_in(locals, names, node, e)?)),
    }
}

/// `a op b` over borrowed operands. `Eq` / `Ne` compare values of any
/// kinds (`Int(1) ≠ Bool(true)`), `And` / `Or` their truthiness, `Concat`
/// their key forms; the rest take two integers, and `Add` / `Sub` wrap.
fn binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, String> {
    use Value::{Bool, Int};
    Ok(match (op, a, b) {
        (BinOp::Add, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
        (BinOp::Sub, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
        (BinOp::Lt, Int(x), Int(y)) => Bool(x < y),
        (BinOp::Le, Int(x), Int(y)) => Bool(x <= y),
        (BinOp::Gt, Int(x), Int(y)) => Bool(x > y),
        (BinOp::Ge, Int(x), Int(y)) => Bool(x >= y),
        (BinOp::Eq, ..) => Bool(a == b),
        (BinOp::Ne, ..) => Bool(a != b),
        (BinOp::And, ..) => Bool(a.truthy() && b.truthy()),
        (BinOp::Or, ..) => Bool(a.truthy() || b.truthy()),
        (BinOp::Concat, ..) => Value::Str(format!("{}{}", a.key_string(), b.key_string())),
        (BinOp::Add | BinOp::Sub | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, ..) => {
            return Err(arithmetic_on_non_integers(a, b))
        }
    })
}

// The `EvalError` messages, built only when an evaluation fails.

#[cold]
fn undefined_local(name: &str) -> String {
    format!("undefined local `{name}`")
}

#[cold]
fn negation_of_non_integer() -> String {
    "negation of non-integer".to_owned()
}

#[cold]
fn arithmetic_on_non_integers(a: &Value, b: &Value) -> String {
    format!("arithmetic on non-integers ({a}, {b})")
}

#[cfg(test)]
mod tests;
