//! What the §5.2 trigger placement reads of a candidate side, kept by the
//! one scan as records arrive (DESIGN.md §4), so both detection modes plan
//! alike: the record that began each context (the keyed source its first
//! record took, as the happens-before engine resolves it; an entry task's
//! chain ends at its own begin), each task's open lock acquires, and one
//! occurrence table per `(statement, kind)`.
//!
//! A site — a cause or an acquire — is numbered by content, and an access
//! holds two site ids, so the table grows with the program, not the trace:
//! past a cause, its chain links only causes that had at most
//! [`FEW_INSTANCES`] instances when they ran — a count only grows, so no
//! other can be rule 4's pick.

use dcatch_model::{NodeId, StmtId};
use dcatch_obs::FxMap;
use dcatch_trace::{NameId, Names, OpKind, QueueInfo, Record, StreamControl, TaskId};

use crate::scan::Access;

/// How many dynamic instances of a request point are few enough to hold
/// at (§5.2 rule 4): more flood the controller.
pub const FEW_INSTANCES: usize = 3;

/// A record a §5.2 request point can be placed before, with what the
/// placement rules read of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anchor {
    /// The node that executed the record.
    pub node: NodeId,
    /// Its statement; `None` when its callstack is empty.
    pub stmt: Option<StmtId>,
    /// Dynamic instances of the statement with the record's kind in the
    /// run (1 without a statement).
    pub instances: usize,
    /// The locks its task held at it, by `(node, name)`, each with the
    /// record that acquired it.
    pub locks: Vec<((NodeId, String), Anchor)>,
    /// For an `EventCreate`: the queue it enqueued on and its consumers.
    pub queue: Option<((NodeId, String), QueueInfo)>,
    /// The record that caused its context. Past a cause, the chain skips
    /// causes that had more than [`FEW_INSTANCES`] instances when they ran.
    pub cause: Option<Box<Anchor>>,
}

/// No site.
pub(crate) const NONE: u32 = u32::MAX;

/// The occurrence table's column of a record a request point can move
/// to: an access, a lock acquire, and from [`BEGINS`] on a record that can
/// begin a context — a cause, or a thread's begin.
fn column(kind: &OpKind) -> Option<usize> {
    match kind {
        OpKind::MemRead { .. } => Some(0),
        OpKind::MemWrite { .. } => Some(1),
        OpKind::LockAcquire { .. } => Some(ACQUIRE),
        OpKind::ThreadCreate { .. } => Some(BEGINS),
        OpKind::EventCreate { .. } => Some(4),
        OpKind::RpcCreate { .. } => Some(5),
        OpKind::SocketSend { .. } => Some(6),
        OpKind::ZkUpdate { .. } => Some(7),
        OpKind::ThreadBegin => Some(8),
        _ => None,
    }
}

const ACQUIRE: usize = 2;
const BEGINS: usize = 3;

/// An access's facts: its context's cause and its task's latest open
/// acquire, as site ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fact {
    cause: u32,
    locks: u32,
}

/// A cause or a lock acquire, as [`Anchor`] renders it. The acquires open
/// at it are a list: each links the one before through its own `locks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Site {
    node: NodeId,
    stmt: Option<StmtId>,
    column: usize,
    lock: Option<(NodeId, NameId)>,
    locks: u32,
    /// An `EventCreate`'s queue, an index into `queues`.
    queue: u32,
    /// Whether it had at most [`FEW_INSTANCES`] instances when it ran.
    few: bool,
    cause: u32,
}

/// The run's placement facts, fed every record and control in arrival
/// order with the tag of the site that began the record's context: the
/// engine hands the tags through online
/// ([`FrontierEngine::record_with`]), [`find_candidates`] replays them from
/// [`HbAnalysis::cause`] over a stored trace.
///
/// [`FrontierEngine::record_with`]: dcatch_hb::FrontierEngine::record_with
/// [`HbAnalysis::cause`]: dcatch_hb::HbAnalysis::cause
/// [`find_candidates`]: crate::find_candidates
#[derive(Debug, Default)]
pub(crate) struct Facts {
    /// `[func][idx][column]`: dynamic instances so far.
    counts: Vec<Vec<[u32; 9]>>,
    /// Each task's lock set, once it has locked.
    held: FxMap<TaskId, u32>,
    /// Each registered event's queue, until its `EventCreate`.
    events: FxMap<u64, u32>,
    /// The queues events were registered on, with their consumers once
    /// registered themselves.
    queues: Vec<((NodeId, String), Option<QueueInfo>)>,
    sites: Vec<Site>,
    ids: FxMap<Site, u32>,
    /// The last two sites numbered: a run repeats a few over and over.
    recent: [u32; 2],
}

impl Facts {
    /// Takes in a queue's or an event's registration.
    pub fn control(&mut self, control: &StreamControl) {
        match control {
            StreamControl::RegisterQueue { node, queue, info } => {
                let q = self.queue(*node, queue);
                self.queues[q as usize].1 = Some(*info);
            }
            StreamControl::RegisterEvent { event, node, queue } => {
                let q = self.queue(*node, queue);
                self.events.insert(*event, q);
            }
            _ => {}
        }
    }

    /// The tag of `r` — a cause, or an entry task's begin — run in a
    /// context `context` tags, before `r` is taken in: its site. `NONE`
    /// for a record that begins no context.
    pub fn cause(&mut self, r: &Record, names: &Names, context: u32) -> u32 {
        let (stmt, Some(column @ BEGINS..)) = (names.leaf(r.stack), column(&r.kind)) else {
            return NONE;
        };
        let queue = match r.kind {
            OpKind::EventCreate { event } => self.events.remove(&event.0),
            _ => None,
        };
        let queue = queue.unwrap_or(NONE);
        // the chain past a cause links only `few` ones
        let cause = match self.sites.get(context as usize) {
            Some(c) if !c.few => c.cause,
            _ => context,
        };
        self.id(Site {
            node: r.task.node,
            stmt,
            column,
            lock: None,
            locks: self.locks(r.task),
            queue,
            few: stmt.is_none_or(|s| self.instances(s, column) < FEW_INSTANCES),
            cause,
        })
    }

    /// Takes in one record, run in a context `context` caused: counts it
    /// and keeps what it acquires or releases. Returns its facts.
    pub fn record(&mut self, r: &Record, names: &Names, context: u32) -> Fact {
        let (stmt, column) = (names.leaf(r.stack), column(&r.kind));
        if let (Some(s), Some(c)) = (stmt, column) {
            self.count(s, c);
        }
        let mut locks = self.locks(r.task);
        if let OpKind::LockAcquire { lock } | OpKind::LockRelease { lock } = r.kind {
            let lock = (lock.node, lock.name);
            locks = self.without(locks, lock);
            if matches!(r.kind, OpKind::LockAcquire { .. }) {
                locks = self.id(Site {
                    node: r.task.node,
                    stmt,
                    column: ACQUIRE,
                    lock: Some(lock),
                    locks,
                    queue: NONE,
                    few: false,
                    cause: context,
                });
            }
            self.held.insert(r.task, locks);
        }
        let cause = context;
        Fact { cause, locks }
    }

    /// The anchor of `a`: the access itself, what its task held and its
    /// context's cause chain, resolved in `names`.
    pub fn anchor(&self, a: &Access, names: &Names) -> Anchor {
        let access = Site {
            node: a.task.node,
            stmt: Some(a.stmt),
            column: usize::from(a.is_write),
            lock: None,
            locks: a.fact.locks,
            queue: NONE,
            few: false,
            cause: a.fact.cause,
        };
        self.render(&access, names)
    }

    /// Resident-memory estimate, in bytes.
    pub fn bytes(&self) -> usize {
        let counts: usize = self.counts.iter().map(|row| 24 + 36 * row.len()).sum();
        let maps = self.held.len() + self.events.len() + self.queues.len();
        counts + 64 * maps + 2 * std::mem::size_of::<Site>() * self.sites.len()
    }

    fn id(&mut self, site: Site) -> u32 {
        let seen = |&id: &u32| self.sites.get(id as usize) == Some(&site);
        let id = match self.recent.iter().copied().find(seen) {
            Some(id) => id,
            None => {
                let next = self.sites.len() as u32;
                *self.ids.entry(site).or_insert_with(|| {
                    self.sites.push(site);
                    next
                })
            }
        };
        self.recent = [id, self.recent[0]];
        id
    }

    /// The index of queue `(node, name)`, added if new.
    fn queue(&mut self, node: NodeId, name: &str) -> u32 {
        let known = self
            .queues
            .iter()
            .position(|((n, q), _)| *n == node && q == name);
        known.unwrap_or_else(|| {
            self.queues.push(((node, name.to_owned()), None));
            self.queues.len() - 1
        }) as u32
    }

    fn locks(&self, task: TaskId) -> u32 {
        *self.held.get(&task).unwrap_or(&NONE)
    }

    /// The acquires of `list` but `lock`'s.
    fn without(&mut self, list: u32, lock: (NodeId, NameId)) -> u32 {
        let Some(&site) = self.sites.get(list as usize) else {
            return NONE;
        };
        let locks = self.without(site.locks, lock);
        if site.lock == Some(lock) {
            return locks;
        }
        self.id(Site { locks, ..site })
    }

    fn count(&mut self, stmt: StmtId, column: usize) {
        let (f, i) = (stmt.func.0 as usize, stmt.idx as usize);
        if self.counts.len() <= f {
            self.counts.resize_with(f + 1, Vec::new);
        }
        let row = &mut self.counts[f];
        if row.len() <= i {
            row.resize(i + 1, [0; 9]);
        }
        row[i][column] += 1;
    }

    fn instances(&self, stmt: StmtId, column: usize) -> usize {
        let row = self.counts.get(stmt.func.0 as usize);
        let count = row.and_then(|row| row.get(stmt.idx as usize));
        count.map_or(0, |c| c[column] as usize)
    }

    fn render(&self, site: &Site, names: &Names) -> Anchor {
        let instances = site.stmt.map_or(1, |s| self.instances(s, site.column));
        let get = |id: u32| self.sites.get(id as usize);
        let held = std::iter::successors(get(site.locks), |a| get(a.locks));
        let acquire = |a: &Site| {
            let (node, name) = a.lock.expect("a lock list holds acquires");
            ((node, names.name(name).to_owned()), self.render(a, names))
        };
        let mut locks: Vec<_> = held.map(acquire).collect();
        locks.sort_by(|a, b| a.0.cmp(&b.0));
        let queue = self.queues.get(site.queue as usize);
        Anchor {
            node: site.node,
            stmt: site.stmt,
            instances,
            locks,
            queue: queue.and_then(|(q, info)| Some((q.clone(), (*info)?))),
            cause: get(site.cause).map(|c| Box::new(self.render(c, names))),
        }
    }
}
