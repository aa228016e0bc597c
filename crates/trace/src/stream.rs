//! Streaming trace output — the sink interface `--streaming` mode drives.
//!
//! In batch mode the simulator materializes a [`TraceSet`](crate::TraceSet)
//! and the analyses run post-mortem. In streaming mode the simulator pushes
//! every record into a [`TraceSink`] *as it is emitted*, interleaved with
//! [`StreamControl`] notifications that carry the side information an online
//! happens-before engine needs but cannot recover from the record stream
//! alone:
//!
//! * queue registrations (the `Eserial` rule needs consumer counts *before*
//!   the first event of a queue arrives);
//! * chain lifecycle — which `(task, ctx)` program-order chains exist and
//!   which will emit no further records (this is what makes *retirement*
//!   of old records sound: a record's race window is closed once every
//!   chain that could still emit has passed it);
//! * causal fan-out — how many deliveries a message send will produce once
//!   fault injection (drop/duplicate) has been applied, so a pending cause
//!   such as `SocketSend ⇒ SocketRecv` can be retired exactly when its last
//!   delivery has resolved (or immediately, when the message was dropped).
//!
//! Records name objects, paths, locks and callstacks by id; the run's
//! [`Names`] table reaches the sink through [`TraceSink::names`] before the
//! first record that uses an id the sink has not been shown.
//!
//! Every method returns `()`: nothing a sink does reaches the simulator.
//! That is what lets the simulator step on a thread of its own and relay
//! the calls to the sink, in order, on the caller's thread (DESIGN.md §14);
//! at most a few small batches wait between the two, so a slow consumer
//! slows the simulator, it never grows an unbounded buffer.

use dcatch_model::NodeId;

use crate::ids::{ExecCtx, TaskId};
use crate::names::Names;
use crate::record::Record;
use crate::set::{QueueInfo, TraceSet};

/// Identity of a pending happens-before *cause*: an already-seen source
/// record whose target record(s) have not arrived yet. The key is what the
/// eventual target record resolves the cause by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CauseKey {
    /// `ThreadCreate(child)` waiting for the child's `ThreadBegin`.
    ThreadBegin(TaskId),
    /// `EventCreate(e)` waiting for `EventBegin(e)`.
    EventBegin(u64),
    /// `RpcCreate(r)` waiting for the server-side `RpcBegin(r)`.
    RpcBegin(u64),
    /// `RpcEnd(r)` (the reply send) waiting for the caller's `RpcJoin(r)`.
    RpcJoin(u64),
    /// `SocketSend(m)` waiting for `SocketRecv(m)`.
    SocketRecv(u64),
    /// `ZkUpdate(path, version)` waiting for watcher `ZkPushed` records.
    ZkPushed(String, u64),
}

/// Out-of-band notifications accompanying the record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamControl {
    /// An event queue exists on `node` with this consumer count. Sent at
    /// boot and again when a crashed node restarts (same info both times).
    RegisterQueue {
        /// Node owning the queue.
        node: NodeId,
        /// Queue name.
        queue: String,
        /// Consumer count (the `Eserial` single-consumer test).
        info: QueueInfo,
    },
    /// `event` was enqueued on `(node, queue)`. Sent immediately *before*
    /// the corresponding `EventCreate` record.
    RegisterEvent {
        /// Event id.
        event: u64,
        /// Node owning the queue.
        node: NodeId,
        /// Queue name.
        queue: String,
    },
    /// A task exists and may emit records later (entry threads at boot and
    /// after a restart). Until its first record or its `ChainDone`, nothing
    /// may be retired past it.
    TaskStarted {
        /// The announced task.
        task: TaskId,
    },
    /// The program-order chain `(task, ctx)` will emit no further records.
    ChainDone {
        /// Task of the finished chain.
        task: TaskId,
        /// Execution context of the finished chain.
        ctx: ExecCtx,
    },
    /// The network accepted `copies` deliveries of the message behind
    /// `key` (0 when a drop fault consumed it, 2 when duplicated).
    CauseFanout {
        /// The pending cause the deliveries will resolve.
        key: CauseKey,
        /// Number of deliveries that will eventually happen (barring
        /// crashes, which announce themselves via `CauseDropped`).
        copies: u32,
    },
    /// One pending delivery for `key` was lost: the target node was
    /// crashed, or a late RPC reply arrived after its caller timed out.
    CauseDropped {
        /// The cause losing one pending delivery.
        key: CauseKey,
    },
}

/// Consumer of a streamed trace. Implemented by the online detector; it
/// is called on the thread that started the run, in emission order.
pub trait TraceSink {
    /// Called once per trace record, in sequence order.
    fn record(&mut self, record: &Record);
    /// Called for out-of-band lifecycle/causality notifications.
    fn control(&mut self, control: StreamControl);
    /// The run's name table grew: called before the first record that uses
    /// an id `names` did not hold at the previous call (so once before the
    /// first record of all). A sink that renders or resolves ids keeps a
    /// copy ([`Names::extend_from`]); one that only counts ignores it.
    fn names(&mut self, names: &Names) {
        let _ = names;
    }
}

/// A sink that materializes the stream back into a [`TraceSet`] and keeps
/// every control message. Useful in tests to pin stream ≡ batch equality.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Records and queue/event registrations, exactly as a batch run would
    /// have produced them.
    pub trace: TraceSet,
    /// Every control message, in arrival order.
    pub controls: Vec<StreamControl>,
}

impl TraceSink for CollectSink {
    fn record(&mut self, record: &Record) {
        self.trace.push(*record);
    }

    fn names(&mut self, names: &Names) {
        self.trace.names_mut().extend_from(names);
    }

    fn control(&mut self, control: StreamControl) {
        match &control {
            StreamControl::RegisterQueue { node, queue, info } => {
                self.trace.register_queue(*node, queue.clone(), *info);
            }
            StreamControl::RegisterEvent { event, node, queue } => {
                self.trace.register_event(*event, *node, queue.clone());
            }
            _ => {}
        }
        self.controls.push(control);
    }
}
