//! The network and the inbox: how a unit of handler work gets from its
//! cause to the worker that runs it.
//!
//! DCatch's four handler rules — event enqueue ⇒ handler begin, RPC call
//! ⇒ handler begin, socket send ⇒ receive, ZooKeeper update ⇒ watcher
//! push — share one shape, a cause followed by a handler on some worker,
//! and so does their work here: a [`Job`] is a function, its arguments and
//! the [`JobKind`] that names its cause. `Enqueue` puts an event job in its
//! queue directly; every other job travels as a [`Message::Work`] and, when
//! delivered, waits in its node's RPC, socket or watcher pool. An RPC's
//! reply is the one message that carries no job.
//!
//! The [`Inbox`] holds every node's work sources in one vector, indexed as
//! the ready list indexes the workers waiting on them: a node's event
//! queues by id, then its RPC, socket and watcher pools.
//!
//! Invariant: a source's workers are marked ([`ReadyList::mark_source`])
//! exactly when its inbox turns empty or non-empty. Every push and pop goes
//! through the inbox, which does the marking.

use std::collections::VecDeque;

use dcatch_model::{FuncId, NodeId, Value};
use dcatch_obs::counter;
use dcatch_trace::{CauseKey, EventId, MsgId, Names, OpKind, RpcId, StreamControl};

use super::ready::{ReadyList, Timer};
use super::{TaskState, World};
use crate::compile::QueueId;
use crate::fault::{ChannelKind, MessageAction};

/// One unit of handler work: `func(args)`, caused as `kind` says.
#[derive(Debug, Clone)]
pub(super) struct Job {
    pub(super) func: FuncId,
    pub(super) args: Vec<Value>,
    pub(super) kind: JobKind,
}

/// What caused a [`Job`]; a busy worker keeps it to end the handler.
#[derive(Debug, Clone)]
pub(super) enum JobKind {
    Event {
        event: EventId,
    },
    /// `caller` is the blocked task the reply goes to.
    Rpc {
        rpc: RpcId,
        caller: usize,
    },
    Socket {
        msg: MsgId,
    },
    Watch {
        path: String,
        version: u64,
    },
}

impl JobKind {
    /// The key the streaming sink knows this job's cause by.
    pub(super) fn cause(&self) -> CauseKey {
        match self {
            JobKind::Event { event } => CauseKey::EventBegin(event.0),
            JobKind::Rpc { rpc, .. } => CauseKey::RpcBegin(rpc.0),
            JobKind::Socket { msg } => CauseKey::SocketRecv(msg.0),
            JobKind::Watch { path, version } => CauseKey::ZkPushed(path.clone(), *version),
        }
    }

    /// The record a handler for this job begins with; a watcher's path is
    /// interned into `names` here, where a record needs it.
    pub(super) fn begin(&self, names: &mut Names) -> OpKind {
        match self {
            JobKind::Event { event } => OpKind::EventBegin { event: *event },
            JobKind::Rpc { rpc, .. } => OpKind::RpcBegin { rpc: *rpc },
            JobKind::Socket { msg } => OpKind::SocketRecv { msg: *msg },
            JobKind::Watch { path, version } => OpKind::ZkPushed {
                path: names.intern(path),
                version: *version,
            },
        }
    }

    /// Where a job that arrives by message waits on its node, and the
    /// channel the message travels on.
    fn route(&self) -> (Pool, ChannelKind) {
        match self {
            JobKind::Rpc { .. } => (Pool::Rpc, ChannelKind::RpcRequest),
            JobKind::Socket { .. } => (Pool::Socket, ChannelKind::Socket),
            JobKind::Watch { .. } => (Pool::Watch, ChannelKind::ZkNotify),
            JobKind::Event { .. } => unreachable!("an event waits in its queue, never travels"),
        }
    }
}

/// A node's work sources after its event queues, in index order.
#[derive(Clone, Copy)]
pub(super) enum Pool {
    Rpc,
    Socket,
    Watch,
}

/// What travels on the network: a job for one of a node's pools, or an
/// RPC's reply to its caller.
#[derive(Debug, Clone)]
pub(super) enum Message {
    Work {
        target: NodeId,
        job: Job,
    },
    RpcReply {
        rpc: RpcId,
        caller: usize,
        value: Value,
    },
}

impl Message {
    /// The key of the cause this message is a delivery of.
    fn cause(&self) -> CauseKey {
        match self {
            Message::Work { job, .. } => job.kind.cause(),
            Message::RpcReply { rpc, .. } => CauseKey::RpcJoin(rpc.0),
        }
    }
}

/// A network message plus the earliest step it may be delivered at
/// (later than its send step only when a delay fault applies).
#[derive(Debug, Clone)]
pub(super) struct InFlight {
    pub(super) msg: Message,
    pub(super) not_before: u64,
}

/// Every node's pending jobs, by work source (see the module docs).
#[derive(Debug, Clone)]
pub(super) struct Inbox {
    /// Event queues per node; each node has `queues + 3` sources.
    queues: usize,
    jobs: Vec<VecDeque<Job>>,
}

impl Inbox {
    pub(super) fn new(nodes: usize, queues: usize) -> Inbox {
        Inbox {
            queues,
            jobs: vec![VecDeque::new(); nodes * (queues + 3)],
        }
    }

    /// The index of `node`'s event queue `queue`.
    pub(super) fn queue(&self, node: NodeId, queue: QueueId) -> usize {
        node.index() * (self.queues + 3) + queue
    }

    /// The index of `node`'s `pool`.
    pub(super) fn pool(&self, node: NodeId, pool: Pool) -> usize {
        node.index() * (self.queues + 3) + self.queues + pool as usize
    }

    pub(super) fn has_work(&self, source: usize) -> bool {
        !self.jobs[source].is_empty()
    }

    /// Appends `job` to `source`.
    pub(super) fn push(&mut self, source: usize, job: Job, ready: &mut ReadyList) {
        self.jobs[source].push_back(job);
        if self.jobs[source].len() == 1 {
            ready.mark_source(source);
        }
    }

    /// The oldest job of `source`, removed.
    pub(super) fn pop(&mut self, source: usize, ready: &mut ReadyList) -> Option<Job> {
        let job = self.jobs[source].pop_front()?;
        if self.jobs[source].is_empty() {
            ready.mark_source(source);
        }
        Some(job)
    }

    /// Every job of `source`, oldest first, removed.
    pub(super) fn take(&mut self, source: usize, ready: &mut ReadyList) -> VecDeque<Job> {
        let jobs = std::mem::take(&mut self.jobs[source]);
        if !jobs.is_empty() {
            ready.mark_source(source);
        }
        jobs
    }
}

impl World<'_> {
    /// The node `msg` is addressed to.
    fn destination(&self, msg: &Message) -> NodeId {
        match msg {
            Message::Work { target, .. } => *target,
            Message::RpcReply { caller, .. } => self.tasks[*caller].node,
        }
    }

    /// Puts `msg` on the network, applying any matching message faults.
    /// With an empty plan this is exactly `net.push` (no rng involved).
    /// Returns how many copies were actually accepted (0 when a drop fault
    /// consumed the message, 2 when duplicated) so streaming mode can tell
    /// the sink how many deliveries the pending cause should wait for.
    pub(super) fn send(&mut self, from: NodeId, msg: Message) -> usize {
        let channel = match &msg {
            Message::Work { job, .. } => job.kind.route().1,
            Message::RpcReply { .. } => ChannelKind::RpcReply,
        };
        let to = self.destination(&msg);
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
        if copies > 0 && delay == 0 {
            for m in self.net.len() - copies..self.net.len() {
                self.ready.sent(m);
            }
        } else if copies > 0 && not_before < self.config.max_steps {
            self.ready.add_timer(not_before, Timer::Delivery);
        }
        copies
    }

    /// [`send`](World::send)s the one message a cause waits for, and tells
    /// the streaming sink how many copies of it the network took.
    pub(super) fn post(&mut self, from: NodeId, msg: Message) {
        let key = self.streaming().then(|| msg.cause());
        let copies = self.send(from, msg);
        if let Some(key) = key {
            self.ctl(StreamControl::CauseFanout {
                key,
                copies: copies as u32,
            });
        }
    }

    /// Tells the streaming sink that one delivery the cause `key` names
    /// waits for will never come.
    pub(super) fn lost(&mut self, key: impl FnOnce() -> CauseKey) {
        if self.streaming() {
            self.ctl(StreamControl::CauseDropped { key: key() });
        }
    }

    /// Takes message `m` off the network: a job joins its pool, a reply
    /// resumes its caller.
    pub(super) fn deliver(&mut self, m: usize) {
        let msg = self.net.remove(m).msg;
        self.ready.delivered(m);
        // messages to a crashed node are lost at delivery time
        if self.crashed[self.destination(&msg).index()] {
            counter!("sim_messages_dropped_total").inc();
            self.lost(|| msg.cause());
            return;
        }
        self.messages_delivered += 1;
        match msg {
            Message::Work { target, job } => {
                let source = self.inbox.pool(target, job.kind.route().0);
                self.inbox.push(source, job, &mut self.ready);
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
                    self.lost(|| CauseKey::RpcJoin(rpc.0));
                }
            }
        }
    }
}
