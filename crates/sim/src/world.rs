//! The simulated world: nodes, tasks, network, ZooKeeper service, and the
//! deterministic step engine.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use dcatch_obs::counter;
use dcatch_obs::rng::SmallRng;

use dcatch_model::{BinOp, FuncId, LoopId, NodeId, Program, StmtId, UnOp, Value};
use dcatch_trace::{
    CauseKey, EventId, ExecCtx, HandlerKind, Key, LockRef, MemLoc, MemSpace, MsgId, Names, OpKind,
    Record, RpcId, StackId, StreamControl, TaskId, TraceSet, TraceSink, TracingMode,
};

use crate::compile::{LockId, ObjId, Op, QueueId, Slot, SlotExpr};
use crate::config::SimConfig;
use crate::failure::{Failure, LogLevel, LogLine, RunFailureKind};
use crate::fault::{ChannelKind, CrashFault, MessageAction};
use crate::gate::{Gate, GateDecision, GateEvent, NoGate, StallAction};
use crate::prepare::Prepared;
use crate::topology::Topology;

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
#[derive(Debug)]
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
    /// Dedicated worker consuming one event queue.
    EventWorker { queue: QueueId },
    /// Worker of the node's RPC server pool.
    RpcWorker,
    /// Worker of the node's socket message-handling pool.
    SocketWorker,
    /// The node's ZooKeeper-watcher notification thread.
    WatcherWorker,
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

/// What a worker is currently handling, so the matching End record and
/// reply can be produced when the handler function returns.
#[derive(Debug, Clone)]
enum HandlerJob {
    Event { event: EventId },
    Rpc { rpc: RpcId, caller: usize },
    Socket,
    Watcher,
}

#[derive(Debug)]
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
    /// Current handler job (workers).
    job: Option<HandlerJob>,
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
// network & services

#[derive(Debug, Clone)]
enum Message {
    RpcRequest {
        rpc: RpcId,
        target: NodeId,
        func: FuncId,
        args: Vec<Value>,
        caller: usize,
    },
    RpcReply {
        rpc: RpcId,
        caller: usize,
        value: Value,
    },
    Socket {
        msg: MsgId,
        target: NodeId,
        func: FuncId,
        args: Vec<Value>,
    },
    ZkNotify {
        target: NodeId,
        handler: FuncId,
        path: String,
        version: u64,
        data: Value,
    },
}

/// A network message plus the earliest step it may be delivered at
/// (later than its send step only when a delay fault applies).
#[derive(Debug, Clone)]
struct InFlight {
    msg: Message,
    not_before: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum HeapObj {
    Cell(Value),
    Map(BTreeMap<MapKey, Value>),
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

#[derive(Debug, Clone)]
struct PendingEvent {
    event: EventId,
    func: FuncId,
    args: Vec<Value>,
}

#[derive(Debug, Clone)]
struct PendingRpc {
    rpc: RpcId,
    func: FuncId,
    args: Vec<Value>,
    caller: usize,
}

#[derive(Debug, Clone)]
struct PendingSocket {
    msg: MsgId,
    func: FuncId,
    args: Vec<Value>,
}

#[derive(Debug, Clone)]
struct PendingNotify {
    handler: FuncId,
    path: String,
    version: u64,
    data: Value,
}

#[derive(Debug, Default)]
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
pub struct World<'g> {
    prep: &'g Prepared,
    config: &'g SimConfig,

    rng: SmallRng,
    step: u64,
    seq: u64,

    tasks: Vec<Task>,
    /// What the scheduler may pick this step, as `collect_actions` left it.
    actions: Vec<Action>,
    /// Whether no step since that scan can have changed the list. Dropped
    /// by default: only `run_task_step` vouches for a step.
    actions_valid: bool,
    /// The earliest step after that scan at which time alone changes
    /// something (`collect_actions`); `u64::MAX` when there is none.
    wake_at: u64,
    /// Tasks that scan left `HeldByGate`, by index.
    held: Vec<usize>,
    /// `heaps[node][object]`: `None` until first written.
    heaps: Vec<Vec<Option<HeapObj>>>,
    /// `locks[node][lock]`.
    locks: Vec<Vec<LockState>>,
    /// `queues[node][queue]`: `None` when the node does not declare it.
    queues: Vec<Vec<Option<VecDeque<PendingEvent>>>>,
    rpc_pending: Vec<VecDeque<PendingRpc>>,
    socket_pending: Vec<VecDeque<PendingSocket>>,
    notify_pending: Vec<VecDeque<PendingNotify>>,
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
    /// Streaming consumer: when present, records bypass `trace` and flow
    /// into the sink as they are emitted (plus lifecycle controls).
    sink: Option<&'g mut (dyn TraceSink + Send)>,
    /// [`Names::generation`](dcatch_trace::Names::generation) of the table
    /// the sink was last shown.
    shown_names: usize,
    failures: Vec<Failure>,
    logs: Vec<LogLine>,
    gate: &'g mut dyn Gate,
    gate_abandoned: bool,

    next_event: u64,
    next_rpc: u64,
    next_msg: u64,
    next_instance: u64,
    next_handle: u64,
    task_counters: Vec<u32>,
    /// `sim_steps_total` / `sim_sched_rebuilds_total` /
    /// `sim_context_switches_total`, flushed by `finish`.
    steps_executed: u64,
    sched_rebuilds: u64,
    context_switches: u64,
}

/// What a memory access touches: a heap object of the task's node, or a
/// zknode by path.
#[derive(Clone, Copy)]
enum Object<'p> {
    Heap(ObjId),
    Zk(&'p str),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    RunTask(usize),
    Deliver(usize),
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
        self.run(config, &mut NoGate, Some(sink))
    }

    /// [`World::run_with_gate`] on the prepared program.
    pub fn run_with_gate(&self, config: &SimConfig, gate: &mut dyn Gate) -> RunResult {
        self.run(config, gate, None)
    }

    /// The one run path: a fresh `World`, booted and stepped to quiescence.
    fn run<'w>(
        &'w self,
        config: &'w SimConfig,
        gate: &'w mut dyn Gate,
        sink: Option<&'w mut (dyn TraceSink + Send)>,
    ) -> RunResult {
        let (cp, nodes) = (&self.cp, self.nodes.len());
        let mut world = World {
            prep: self,
            config,
            heaps: vec![vec![None; cp.objects.len()]; nodes],
            locks: vec![vec![LockState::default(); cp.locks.len()]; nodes],
            queues: vec![vec![None; cp.queues.len()]; nodes],
            rng: SmallRng::seed_from_u64(config.seed),
            step: 0,
            seq: 0,
            tasks: Vec::new(),
            actions: Vec::new(),
            actions_valid: false,
            wake_at: 0,
            held: Vec::new(),
            rpc_pending: vec![VecDeque::new(); nodes],
            socket_pending: vec![VecDeque::new(); nodes],
            notify_pending: vec![VecDeque::new(); nodes],
            net: Vec::new(),
            zk: ZkStore::default(),
            crashed: vec![false; nodes],
            crash_queue: config.faults.crashes.clone(),
            pending_restarts: Vec::new(),
            msg_fault_hits: vec![0; config.faults.messages.len()],
            faults_injected: 0,
            mem_samples_seen: 0,
            trace: TraceSet::with_names(self.names.clone()),
            sink,
            shown_names: 0,
            failures: Vec::new(),
            logs: Vec::new(),
            gate,
            gate_abandoned: false,
            next_event: 0,
            next_rpc: 0,
            next_msg: 0,
            next_instance: 0,
            next_handle: 0,
            task_counters: vec![0; nodes],
            steps_executed: 0,
            sched_rebuilds: 0,
            context_switches: 0,
        };
        let _span = dcatch_obs::span!("sim.run");
        counter!("sim_runs_total").inc();
        for node in 0..nodes {
            world.setup_node(NodeId(node as u32));
        }
        world.run_loop();
        world.finish()
    }
}

impl<'g> World<'g> {
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
    /// side tables). The sink is called synchronously from the step loop:
    /// its `record` returning is the backpressure.
    pub fn run_streamed(
        program: &Program,
        topo: &Topology,
        config: SimConfig,
        sink: &mut (dyn TraceSink + Send),
    ) -> Result<RunResult, RunError> {
        Ok(World::prepare(program, topo)?.run_streamed(&config, sink))
    }

    /// Runs `program` on `topo`, consulting `gate` before and after every
    /// statement (the triggering module's controller).
    pub fn run_with_gate(
        program: &Program,
        topo: &Topology,
        config: SimConfig,
        gate: &'g mut dyn Gate,
    ) -> Result<RunResult, RunError> {
        Ok(World::prepare(program, topo)?.run_with_gate(&config, gate))
    }

    /// Creates a node's queues, worker pool, and entry tasks. Called once
    /// per node at boot, and again when a crashed node restarts.
    fn setup_node(&mut self, node: NodeId) {
        let spec = &self.prep.nodes[node.index()];
        for &(queue, info) in &spec.queues {
            self.queues[node.index()][queue] = Some(VecDeque::new());
            let name = &self.prep.cp.queues[queue];
            self.trace.register_queue(node, name.clone(), info);
            if self.streaming() {
                self.ctl(StreamControl::RegisterQueue {
                    node,
                    queue: name.clone(),
                    info,
                });
            }
            for _ in 0..info.consumers {
                self.new_task(node, TaskKind::EventWorker { queue }, TaskState::Idle, None);
            }
        }
        for _ in 0..spec.rpc_workers {
            self.new_task(node, TaskKind::RpcWorker, TaskState::Idle, None);
        }
        for _ in 0..spec.socket_workers {
            self.new_task(node, TaskKind::SocketWorker, TaskState::Idle, None);
        }
        if spec.watches {
            self.new_task(node, TaskKind::WatcherWorker, TaskState::Idle, None);
        }
        for (func, args) in &spec.entries {
            let t = self.new_task(node, TaskKind::Entry, TaskState::Runnable, None);
            let frame = self.make_frame(*func, args.clone(), None, StackId::EMPTY);
            self.tasks[t].frames.push(frame);
            // entry threads have no `ThreadCreate` cause announcing them:
            // the sink must learn they exist before it retires anything
            // their future records could still race with
            let task = self.tasks[t].id;
            self.ctl(StreamControl::TaskStarted { task });
        }
    }

    fn new_task(
        &mut self,
        node: NodeId,
        kind: TaskKind,
        state: TaskState,
        ctx: Option<ExecCtx>,
    ) -> usize {
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
            ctx: ctx.unwrap_or(ExecCtx::Regular),
            begun: false,
            handle,
            rpc_ret_local: None,
            job: None,
            loop_iters: Vec::new(),
            blocked_at: 0,
        });
        self.tasks.len() - 1
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

    /// Hands one record to the sink — after the names it may use, when the
    /// table grew since the sink last saw it — or to the trace.
    fn write(&mut self, rec: Record) {
        self.seq += 1;
        match self.sink.as_mut() {
            Some(s) => {
                let names = self.trace.names();
                if names.generation() != self.shown_names {
                    self.shown_names = names.generation();
                    s.names(names);
                }
                s.record(&rec);
            }
            None => self.trace.push(rec),
        }
        counter!("sim_trace_records_total").inc();
    }

    /// Sends an out-of-band control to the streaming sink, if any.
    fn ctl(&mut self, control: StreamControl) {
        if !self.config.trace_enabled {
            return;
        }
        if let Some(s) = self.sink.as_mut() {
            s.control(control);
        }
    }

    /// Whether the streaming sink (and tracing) is active, used to skip
    /// building control payloads on the batch path.
    fn streaming(&self) -> bool {
        self.sink.is_some() && self.config.trace_enabled
    }

    /// Whether a memory access to `object` in the current top frame of `t`
    /// is traced, and whether its value should be recorded.
    fn mem_trace_policy(&self, t: usize, object: &str) -> (bool, bool) {
        if !self.config.trace_enabled {
            return (false, false);
        }
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
    /// node, or a zknode path). The location is built only once the policy
    /// and the sampler have decided the record will exist.
    fn emit_mem(
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
        self.tasks[t].state = TaskState::Killed;
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
        for w in self.locks[node][lock].waiters.drain(..) {
            if matches!(self.tasks[w].state, TaskState::BlockedLock { .. }) {
                self.tasks[w].state = TaskState::Runnable;
            }
        }
    }

    fn wake_joiners(&mut self, finished: usize) {
        let handle = self.tasks[finished].handle;
        for i in 0..self.tasks.len() {
            if matches!(&self.tasks[i].state, TaskState::BlockedJoin { handle: h } if *h == handle)
            {
                self.tasks[i].state = TaskState::Runnable;
            }
        }
    }

    // -- main loop -----------------------------------------------------------

    fn run_loop(&mut self) {
        let panic_at = self.config.faults.panic_at_step.unwrap_or(u64::MAX);
        let mut last_task: Option<usize> = None;
        loop {
            if self.step >= self.config.max_steps {
                self.failures.push(Failure {
                    kind: RunFailureKind::StepBudgetExhausted,
                    node: NodeId(0),
                    task: None,
                    stmt: None,
                    msg: format!("exceeded {} steps", self.config.max_steps),
                });
                return;
            }
            // `>=`, not `==`: a quiescent clock jump can pass the planned step
            // without ever stopping on it
            if self.step >= panic_at {
                panic!("fault plan injected a host panic at step {panic_at} (chaos hook)")
            }
            // The previous step's list stands when that step vouched for it
            // and no time-driven change is due. The held tasks are still
            // asked, once each and in index order, as a scan asks them.
            let polled = self.actions_valid && self.step < self.wake_at;
            let mut reuse = polled;
            if polled {
                for &i in &self.held {
                    if self.gate.is_released(self.tasks[i].id) {
                        self.tasks[i].state = TaskState::Runnable;
                        reuse = false;
                    }
                }
            }
            if reuse {
                #[cfg(debug_assertions)]
                {
                    let (mut kept, step) = (self.actions.iter(), self.step);
                    self.ready_actions(|a| debug_assert_eq!(kept.next(), Some(&a), "step {step}"));
                    debug_assert_eq!(kept.next(), None, "step {step}");
                }
            } else {
                if !polled {
                    // fault-plan events whose step has come; below `wake_at`
                    // none has
                    self.apply_due_faults();
                }
                self.collect_actions(polled);
            }
            if self.actions.is_empty() {
                if self.wake_at != u64::MAX {
                    counter!("sim_clock_advances_total").add(self.wake_at - self.step);
                    self.step = self.wake_at;
                    continue;
                }
                self.actions_valid = false;
                if !self.held.is_empty() {
                    let held: Vec<TaskId> = self.held.iter().map(|&i| self.tasks[i].id).collect();
                    match self.gate.on_stall(&held) {
                        StallAction::Release(ids) => {
                            for id in ids {
                                if let Some(i) = self.tasks.iter().position(|t| t.id == id) {
                                    if self.tasks[i].state == TaskState::HeldByGate {
                                        self.tasks[i].state = TaskState::Runnable;
                                    }
                                }
                            }
                        }
                        StallAction::Abandon => {
                            self.gate_abandoned = true;
                            for &i in &self.held {
                                self.tasks[i].state = TaskState::Runnable;
                            }
                        }
                    }
                    continue;
                }
                self.detect_quiescence_outcome();
                return;
            }
            let pick = self.rng.gen_range(self.actions.len());
            self.actions_valid = match self.actions[pick] {
                Action::RunTask(i) => {
                    if last_task.is_some_and(|prev| prev != i) {
                        self.context_switches += 1;
                    }
                    last_task = Some(i);
                    self.run_task_step(i)
                }
                Action::Deliver(m) => {
                    self.deliver(m);
                    false
                }
            };
            self.step += 1;
            self.steps_executed += 1;
        }
    }

    /// What the scheduler may pick, for the task states, pending sources and
    /// network as they are: ready tasks by index, then deliverable messages
    /// by index. That order is part of the execution contract — the seeded
    /// pick is an index into it. Read-only and gate-free: `collect_actions`
    /// fills the list with it, a debug build checks every reused list by it.
    fn ready_actions(&self, mut out: impl FnMut(Action)) {
        let now = self.step;
        for (i, t) in self.tasks.iter().enumerate() {
            let node = t.node.index();
            let ready = match (t.state, t.kind) {
                (TaskState::Runnable, _) => true,
                (TaskState::Sleeping { until }, _) => until <= now,
                // an idle worker is ready when its source has work
                (TaskState::Idle, TaskKind::EventWorker { queue }) => self.queues[node][queue]
                    .as_ref()
                    .is_some_and(|q| !q.is_empty()),
                (TaskState::Idle, TaskKind::RpcWorker) => !self.rpc_pending[node].is_empty(),
                (TaskState::Idle, TaskKind::SocketWorker) => !self.socket_pending[node].is_empty(),
                (TaskState::Idle, TaskKind::WatcherWorker) => !self.notify_pending[node].is_empty(),
                _ => false,
            };
            if ready {
                out(Action::RunTask(i));
            }
        }
        for (m, f) in self.net.iter().enumerate() {
            if f.not_before <= now {
                out(Action::Deliver(m));
            }
        }
    }

    /// Wakes due sleepers and gate-released tasks (`polled`: the held tasks
    /// have been asked this step already), refills `actions`, and notes
    /// what a later step needs in order to keep the list: the tasks still
    /// held, and the earliest future step at which a sleeper wakes, a
    /// message becomes deliverable or a fault-plan event (crash, restart,
    /// RPC-timeout deadline) falls due — also where a quiescent clock jumps
    /// to. Fault events at or past the step budget are unreachable, ignored.
    fn collect_actions(&mut self, polled: bool) {
        let (now, budget) = (self.step, self.config.max_steps);
        let faults = &self.config.faults;
        let (mut wake, mut fault_wake) = (u64::MAX, u64::MAX);
        let mut fault_at = |s: u64| {
            if s > now && s < budget {
                fault_wake = fault_wake.min(s);
            }
        };
        self.held.clear();
        for (i, t) in self.tasks.iter_mut().enumerate() {
            match t.state {
                TaskState::Sleeping { until } if until <= now => t.state = TaskState::Runnable,
                // unlike a fault, a sleeper past the budget runs it out
                TaskState::Sleeping { until } => wake = wake.min(until),
                TaskState::HeldByGate if !polled && self.gate.is_released(t.id) => {
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
        self.net.iter().for_each(|f| fault_at(f.not_before));
        self.wake_at = wake.min(fault_wake);
        let mut actions = std::mem::take(&mut self.actions);
        actions.clear();
        self.ready_actions(|a| actions.push(a));
        self.actions = actions;
        self.actions_valid = true;
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

    /// Puts `msg` on the network, applying any matching message faults.
    /// With an empty plan this is exactly `net.push` (no rng involved).
    /// Returns how many copies were actually accepted (0 when a drop fault
    /// consumed the message, 2 when duplicated) so streaming mode can tell
    /// the sink how many deliveries the pending cause should wait for.
    fn send(&mut self, from: NodeId, msg: Message) -> usize {
        let channel = match &msg {
            Message::RpcRequest { .. } => ChannelKind::RpcRequest,
            Message::RpcReply { .. } => ChannelKind::RpcReply,
            Message::Socket { .. } => ChannelKind::Socket,
            Message::ZkNotify { .. } => ChannelKind::ZkNotify,
        };
        let to = match &msg {
            Message::RpcRequest { target, .. }
            | Message::Socket { target, .. }
            | Message::ZkNotify { target, .. } => *target,
            Message::RpcReply { caller, .. } => self.tasks[*caller].node,
        };
        let mut copies = 1usize;
        let mut delay = 0u64;
        for i in 0..self.config.faults.messages.len() {
            let (applies, nth, action) = {
                let f = &self.config.faults.messages[i];
                (f.applies(channel, from, to), f.nth, f.action)
            };
            if !applies {
                continue;
            }
            self.msg_fault_hits[i] += 1;
            if let Some(k) = nth {
                if self.msg_fault_hits[i] != k {
                    continue;
                }
            }
            match action {
                MessageAction::Drop => copies = 0,
                MessageAction::Delay(s) => delay = delay.max(s),
                MessageAction::Duplicate => {
                    if copies > 0 {
                        copies = 2;
                    }
                }
            }
            self.count_fault();
            counter!("sim_message_faults_total").inc();
        }
        let not_before = self.step.saturating_add(delay);
        let in_flight = InFlight { msg, not_before };
        self.net.extend(std::iter::repeat_n(in_flight, copies));
        copies
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
        let mut controls = Vec::new();
        for t in &mut self.tasks {
            if t.node == node && !matches!(t.state, TaskState::Done | TaskState::Killed) {
                t.state = TaskState::Crashed;
                controls.push(StreamControl::ChainDone {
                    task: t.id,
                    ctx: t.ctx,
                });
            }
        }
        // the node loses all volatile state; queued-but-undispatched work
        // dies with it, so its pending causes are announced as dropped
        let i = node.index();
        self.heaps[i].fill(None);
        self.locks[i].fill_with(LockState::default);
        // queues in name order: the order their drops are announced in
        let mut by_name: Vec<QueueId> = (0..self.queues[i].len()).collect();
        by_name.sort_by_key(|&q| &self.prep.cp.queues[q]);
        for q in by_name {
            let Some(q) = &mut self.queues[i][q] else {
                continue;
            };
            if self.sink.is_some() {
                for pe in q.iter() {
                    controls.push(StreamControl::CauseDropped {
                        key: CauseKey::EventBegin(pe.event.0),
                    });
                }
            }
            q.clear();
        }
        if self.sink.is_some() {
            for pr in &self.rpc_pending[i] {
                controls.push(StreamControl::CauseDropped {
                    key: CauseKey::RpcBegin(pr.rpc.0),
                });
            }
            for ps in &self.socket_pending[i] {
                controls.push(StreamControl::CauseDropped {
                    key: CauseKey::SocketRecv(ps.msg.0),
                });
            }
            for pn in &self.notify_pending[i] {
                controls.push(StreamControl::CauseDropped {
                    key: CauseKey::ZkPushed(pn.path.clone(), pn.version),
                });
            }
        }
        self.rpc_pending[i].clear();
        self.socket_pending[i].clear();
        self.notify_pending[i].clear();
        for c in controls {
            self.ctl(c);
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

    fn deliver(&mut self, m: usize) {
        let msg = self.net.remove(m).msg;
        // messages to a crashed node are lost at delivery time
        let target = match &msg {
            Message::RpcRequest { target, .. }
            | Message::Socket { target, .. }
            | Message::ZkNotify { target, .. } => *target,
            Message::RpcReply { caller, .. } => self.tasks[*caller].node,
        };
        if self.crashed[target.index()] {
            counter!("sim_messages_dropped_total").inc();
            if self.streaming() {
                let key = match &msg {
                    Message::RpcRequest { rpc, .. } => CauseKey::RpcBegin(rpc.0),
                    Message::RpcReply { rpc, .. } => CauseKey::RpcJoin(rpc.0),
                    Message::Socket { msg, .. } => CauseKey::SocketRecv(msg.0),
                    Message::ZkNotify { path, version, .. } => {
                        CauseKey::ZkPushed(path.clone(), *version)
                    }
                };
                self.ctl(StreamControl::CauseDropped { key });
            }
            return;
        }
        counter!("sim_messages_delivered_total").inc();
        match msg {
            Message::RpcRequest {
                rpc,
                target,
                func,
                args,
                caller,
            } => {
                self.rpc_pending[target.index()].push_back(PendingRpc {
                    rpc,
                    func,
                    args,
                    caller,
                });
            }
            Message::RpcReply { rpc, caller, value } => {
                if self.tasks[caller].state == (TaskState::BlockedRpc { rpc: rpc.0 }) {
                    self.resume_rpc_caller(caller, value);
                    self.emit(caller, OpKind::RpcJoin { rpc });
                    counter!("sim_rpcs_completed_total").inc();
                } else {
                    // late reply after an RPC timeout (or a duplicated
                    // reply): the caller no longer waits on this id, so
                    // the pending `RpcEnd ⇒ RpcJoin` cause loses a copy
                    self.ctl(StreamControl::CauseDropped {
                        key: CauseKey::RpcJoin(rpc.0),
                    });
                }
            }
            Message::Socket {
                msg,
                target,
                func,
                args,
            } => {
                self.socket_pending[target.index()].push_back(PendingSocket { msg, func, args });
            }
            Message::ZkNotify {
                target,
                handler,
                path,
                version,
                data,
            } => {
                self.notify_pending[target.index()].push_back(PendingNotify {
                    handler,
                    path,
                    version,
                    data,
                });
            }
        }
    }

    /// Hands the value of a finished (or timed-out) RPC to the blocked
    /// caller `t` and makes it runnable again.
    fn resume_rpc_caller(&mut self, t: usize, value: Value) {
        let task = &mut self.tasks[t];
        if let (Some(local), Some(frame)) = (task.rpc_ret_local.take(), task.frames.last_mut()) {
            frame.locals[local] = Some(value);
        }
        task.state = TaskState::Runnable;
    }

    // -- task stepping ----------------------------------------------------------

    /// Runs one step of task `t`; returns whether the action list survives
    /// it: only when an [`Op::is_local`] op ran to completion and left `t`'s
    /// state and the task table as they were. Everything else — dispatch, a
    /// gate hold, a blocked, killed or unlisted op — drops the list.
    fn run_task_step(&mut self, t: usize) -> bool {
        if self.tasks[t].state == TaskState::Idle {
            self.dispatch(t);
            return false;
        }
        if self.tasks[t].frames.is_empty() {
            // nothing to run (shouldn't happen); park the task
            self.tasks[t].state = TaskState::Done;
            return false;
        }
        if !self.tasks[t].begun && matches!(self.tasks[t].kind, TaskKind::Entry | TaskKind::Thread)
        {
            self.tasks[t].begun = true;
            self.emit(t, OpKind::ThreadBegin);
        }
        let frame = self.tasks[t].frames.last().expect("frame");
        // borrowed from the prepared program, not from `self`, which `exec` mutates
        let instr = &self.prep.cp.func(frame.func).instrs[frame.pc];

        // gate consultation
        let ev = GateEvent {
            task: self.tasks[t].id,
            stmt: instr.stmt,
        };
        if self.gate.before(&ev) == GateDecision::Hold {
            self.tasks[t].state = TaskState::HeldByGate;
            return false;
        }

        let before = (self.tasks[t].state, self.tasks.len());
        let flow = self.exec(t, &instr.op, instr.stmt);
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
        if completed {
            self.gate.after(&ev);
        }
        completed && instr.op.is_local() && before == (self.tasks[t].state, self.tasks.len())
    }

    /// Gives the idle worker `t` the next unit of work from its source.
    fn dispatch(&mut self, t: usize) {
        let node = self.tasks[t].node.index();
        match self.tasks[t].kind {
            TaskKind::EventWorker { queue } => {
                let queue = self.queues[node][queue].as_mut();
                if let Some(pe) = queue.and_then(VecDeque::pop_front) {
                    counter!("sim_events_dispatched_total").inc();
                    let (event, job) = (pe.event, HandlerJob::Event { event: pe.event });
                    let begin = OpKind::EventBegin { event };
                    self.start_handler(t, HandlerKind::Event, job, pe.func, pe.args, begin);
                }
            }
            TaskKind::RpcWorker => {
                if let Some(pr) = self.rpc_pending[node].pop_front() {
                    let (rpc, caller) = (pr.rpc, pr.caller);
                    let (job, begin) = (HandlerJob::Rpc { rpc, caller }, OpKind::RpcBegin { rpc });
                    self.start_handler(t, HandlerKind::Rpc, job, pr.func, pr.args, begin);
                }
            }
            TaskKind::SocketWorker => {
                if let Some(ps) = self.socket_pending[node].pop_front() {
                    let (job, begin) = (HandlerJob::Socket, OpKind::SocketRecv { msg: ps.msg });
                    self.start_handler(t, HandlerKind::Socket, job, ps.func, ps.args, begin);
                }
            }
            TaskKind::WatcherWorker => {
                if let Some(pn) = self.notify_pending[node].pop_front() {
                    let (path, version) = (self.trace.names_mut().intern(&pn.path), pn.version);
                    let args = vec![Value::Str(pn.path), pn.data];
                    let (job, begin) = (HandlerJob::Watcher, OpKind::ZkPushed { path, version });
                    self.start_handler(t, HandlerKind::ZkWatcher, job, pn.handler, args, begin);
                }
            }
            TaskKind::Entry | TaskKind::Thread => {}
        }
    }

    /// Puts worker `t` into a fresh handler context running `func(args)`
    /// and emits the handler's `begin` record.
    fn start_handler(
        &mut self,
        t: usize,
        kind: HandlerKind,
        job: HandlerJob,
        func: FuncId,
        args: Vec<Value>,
        begin: OpKind,
    ) {
        let instance = self.next_instance;
        self.next_instance += 1;
        let frame = self.make_frame(func, args, None, StackId::EMPTY);
        let task = &mut self.tasks[t];
        task.ctx = ExecCtx::Handler { kind, instance };
        task.job = Some(job);
        task.state = TaskState::Runnable;
        task.frames.push(frame);
        self.emit(t, begin);
    }

    /// The task's function body finished with `value`.
    fn task_body_finished(&mut self, t: usize, value: Value) {
        // the chain that is ending is (task, current ctx) — captured before
        // worker arms reset their context back to Regular
        let (task, ctx) = (self.tasks[t].id, self.tasks[t].ctx);
        match self.tasks[t].kind {
            TaskKind::Entry | TaskKind::Thread => {
                self.emit(t, OpKind::ThreadEnd);
                self.tasks[t].state = TaskState::Done;
                self.ctl(StreamControl::ChainDone { task, ctx });
                self.wake_joiners(t);
            }
            TaskKind::SocketWorker | TaskKind::WatcherWorker => {
                self.tasks[t].job = None;
                self.tasks[t].ctx = ExecCtx::Regular;
                self.tasks[t].state = TaskState::Idle;
                self.ctl(StreamControl::ChainDone { task, ctx });
            }
            TaskKind::EventWorker { .. } => {
                if let Some(HandlerJob::Event { event }) = self.tasks[t].job.take() {
                    self.emit(t, OpKind::EventEnd { event });
                }
                self.tasks[t].ctx = ExecCtx::Regular;
                self.tasks[t].state = TaskState::Idle;
                self.ctl(StreamControl::ChainDone { task, ctx });
            }
            TaskKind::RpcWorker => {
                if let Some(HandlerJob::Rpc { rpc, caller }) = self.tasks[t].job.take() {
                    self.emit(t, OpKind::RpcEnd { rpc });
                    let from = self.tasks[t].node;
                    let copies = self.send(from, Message::RpcReply { rpc, caller, value });
                    if self.streaming() {
                        self.ctl(StreamControl::CauseFanout {
                            key: CauseKey::RpcJoin(rpc.0),
                            copies: copies as u32,
                        });
                    }
                }
                self.tasks[t].ctx = ExecCtx::Regular;
                self.tasks[t].state = TaskState::Idle;
                self.ctl(StreamControl::ChainDone { task, ctx });
            }
        }
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

    fn eval_or_kill(&mut self, t: usize, e: &SlotExpr) -> Option<Value> {
        match self.eval(t, e) {
            Ok(v) => Some(v),
            Err(msg) => {
                self.throw(t, "EvalError", msg);
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

    fn set_local(&mut self, t: usize, local: Slot, v: Value) {
        if let Some(f) = self.tasks[t].frames.last_mut() {
            f.locals[local] = Some(v);
        }
    }

    /// The heap cell of `object` on the node of task `t`.
    fn heap(&mut self, t: usize, object: ObjId) -> &mut Option<HeapObj> {
        &mut self.heaps[self.tasks[t].node.index()][object]
    }

    // -- instruction execution ---------------------------------------------------

    /// Executes one instruction of task `t`. Names are taken from the
    /// compiled program only to build what leaves the simulator (trace
    /// records, failure messages).
    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, t: usize, op: &Op, stmt: StmtId) -> Flow {
        let cp = &self.prep.cp;
        let not_a = |name: &str, what: &str| format!("`{name}` is not a {what}");
        match op {
            Op::Assign { local, expr } => {
                let Some(v) = self.eval_or_kill(t, expr) else {
                    return Flow::Dead;
                };
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::Read { local, object } => {
                let name = &cp.objects[*object];
                let v = match self.heap(t, *object) {
                    Some(HeapObj::Cell(v)) => v.clone(),
                    None => Value::Null,
                    Some(_) => return self.throw(t, "ClassCastException", not_a(name, "cell")),
                };
                self.emit_mem(t, false, Object::Heap(*object), None, &v);
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::Write { object, value } => {
                let Some(v) = self.eval_or_kill(t, value) else {
                    return Flow::Dead;
                };
                self.emit_mem(t, true, Object::Heap(*object), None, &v);
                *self.heap(t, *object) = Some(HeapObj::Cell(v));
                Flow::Next
            }
            Op::MapPut { map, key, value } => {
                let (Some(k), Some(v)) = (self.eval_or_kill(t, key), self.eval_or_kill(t, value))
                else {
                    return Flow::Dead;
                };
                let (k, name) = (MapKey::of(k), &cp.objects[*map]);
                let obj = self.heap(t, *map);
                if !matches!(obj, None | Some(HeapObj::Map(_))) {
                    return self.throw(t, "ClassCastException", not_a(name, "map"));
                }
                self.emit_mem(t, true, Object::Heap(*map), Some(&k), &v);
                let obj = self.heap(t, *map);
                if let HeapObj::Map(m) = obj.get_or_insert_with(|| HeapObj::Map(BTreeMap::new())) {
                    m.insert(k, v);
                }
                Flow::Next
            }
            Op::MapGet { local, map, key } => {
                let Some(k) = self.eval_or_kill(t, key) else {
                    return Flow::Dead;
                };
                let (k, name) = (MapKey::of(k), &cp.objects[*map]);
                let v = match self.heap(t, *map) {
                    Some(HeapObj::Map(m)) => m.get(&k).cloned().unwrap_or(Value::Null),
                    None => Value::Null,
                    Some(_) => return self.throw(t, "ClassCastException", not_a(name, "map")),
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
                if let Some(HeapObj::Map(m)) = self.heap(t, *map) {
                    m.remove(&k);
                }
                self.emit_mem(t, true, Object::Heap(*map), Some(&k), &Value::Null);
                Flow::Next
            }
            Op::MapContains { local, map, key } => {
                let Some(k) = self.eval_or_kill(t, key) else {
                    return Flow::Dead;
                };
                let k = MapKey::of(k);
                let present = matches!(
                    self.heap(t, *map),
                    Some(HeapObj::Map(m)) if m.contains_key(&k)
                );
                let v = Value::Bool(present);
                self.emit_mem(t, false, Object::Heap(*map), Some(&k), &v);
                self.set_local(t, *local, v);
                Flow::Next
            }
            Op::ListAdd { list, value } => {
                let Some(v) = self.eval_or_kill(t, value) else {
                    return Flow::Dead;
                };
                let name = &cp.objects[*list];
                let obj = self.heap(t, *list);
                if !matches!(obj, None | Some(HeapObj::List(_))) {
                    return self.throw(t, "ClassCastException", not_a(name, "list"));
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
                if let Some(HeapObj::List(l)) = self.heap(t, *list) {
                    if let Some(pos) = l.iter().position(|x| x == &v) {
                        l.remove(pos);
                    }
                }
                self.emit_mem(t, true, Object::Heap(*list), None, &v);
                Flow::Next
            }
            Op::ListIsEmpty { local, list } => {
                let empty = match self.heap(t, *list) {
                    Some(HeapObj::List(l)) => l.is_empty(),
                    _ => true,
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
                let present = matches!(
                    self.heap(t, *list),
                    Some(HeapObj::List(l)) if l.contains(&v)
                );
                let out = Value::Bool(present);
                self.emit_mem(t, false, Object::Heap(*list), None, &out);
                self.set_local(t, *local, out);
                Flow::Next
            }

            Op::Branch { cond, target } => {
                let Some(v) = self.eval_or_kill(t, cond) else {
                    return Flow::Dead;
                };
                if v.truthy() {
                    Flow::Next
                } else {
                    Flow::Goto(*target)
                }
            }
            Op::Jump { target } => Flow::Goto(*target),
            Op::LoopEnter { loop_id, retry } => {
                if *retry {
                    *self.tasks[t].iters_of(*loop_id) = 0;
                    self.emit(t, OpKind::LoopEnter { loop_id: *loop_id });
                }
                Flow::Next
            }
            Op::LoopHead {
                loop_id,
                retry,
                cond,
                exit,
            } => {
                let Some(v) = self.eval_or_kill(t, cond) else {
                    return Flow::Dead;
                };
                if !v.truthy() {
                    return Flow::Goto(*exit);
                }
                if !*retry {
                    return Flow::Next;
                }
                let iters = self.tasks[t].iters_of(*loop_id);
                *iters += 1;
                if *iters > self.config.retry_loop_budget {
                    self.kill(
                        t,
                        RunFailureKind::RetryLoopHang(*loop_id),
                        format!(
                            "retry loop {} spun past {} iterations",
                            loop_id.0, self.config.retry_loop_budget
                        ),
                    );
                    return Flow::Dead;
                }
                Flow::Next
            }
            Op::LoopExit { loop_id, retry } => {
                if *retry {
                    self.emit(t, OpKind::LoopExit { loop_id: *loop_id });
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
                let child = self.new_task(node, TaskKind::Thread, TaskState::Runnable, None);
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
                        self.tasks[t].state = TaskState::BlockedJoin { handle: h };
                        Flow::Stay
                    }
                }
            }
            Op::Enqueue { queue, func, args } => {
                let Some(vals) = self.eval_args(t, args) else {
                    return Flow::Dead;
                };
                let (node, name) = (self.tasks[t].node, &cp.queues[*queue]);
                if self.queues[node.index()][*queue].is_none() {
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
                let pending = self.queues[node.index()][*queue].as_mut();
                pending.expect("checked").push_back(PendingEvent {
                    event,
                    func: *func,
                    args: vals,
                });
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
                        self.tasks[t].state = TaskState::BlockedLock { lock: *lock };
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
                let copies = self.send(
                    from,
                    Message::RpcRequest {
                        rpc,
                        target,
                        func: *func,
                        args: vals,
                        caller: t,
                    },
                );
                if self.streaming() {
                    self.ctl(StreamControl::CauseFanout {
                        key: CauseKey::RpcBegin(rpc.0),
                        copies: copies as u32,
                    });
                }
                self.tasks[t].rpc_ret_local = *local;
                self.tasks[t].state = TaskState::BlockedRpc { rpc: rpc.0 };
                self.tasks[t].blocked_at = self.step;
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
                let from = self.tasks[t].node;
                let copies = self.send(
                    from,
                    Message::Socket {
                        msg,
                        target,
                        func: *func,
                        args: vals,
                    },
                );
                if self.streaming() {
                    self.ctl(StreamControl::CauseFanout {
                        key: CauseKey::SocketRecv(msg.0),
                        copies: copies as u32,
                    });
                }
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
                let n = v.as_int().unwrap_or(0).max(0) as u64;
                self.tasks[t].state = TaskState::Sleeping {
                    until: self.step.saturating_add(n),
                };
                if let Some(f) = self.tasks[t].frames.last_mut() {
                    f.pc += 1;
                }
                Flow::Handled
            }
            Op::Yield | Op::Nop => Flow::Next,
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
                copies += self.send(
                    from,
                    Message::ZkNotify {
                        target: *target,
                        handler: *handler,
                        path: path.to_owned(),
                        version,
                        data: stored.clone(),
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
