//! Online happens-before: incremental frontier clocks over a record stream.
//!
//! The batch engine ([`HbAnalysis`](crate::HbAnalysis)) materializes the
//! whole trace and a reachability index before the first query. This module
//! answers the only query streaming detection needs — *is the record that
//! just arrived ordered after a given earlier record?* — with state
//! proportional to the number of **live** program-order chains, not to the
//! trace length:
//!
//! * every `(task, ctx)` chain owns a *slot* with a monotone 1-based
//!   position counter and a frontier clock (`frontier[c]` = how far into
//!   slot `c`'s chain this chain's latest record can reach);
//! * each MTEP edge becomes a *join* performed when its **target** record
//!   arrives. Since every HB edge points forward in sequence order, the
//!   clock of a record is complete the moment it arrives — reachability
//!   *into* the new record can never change later, which is what makes the
//!   one-sided online concurrency test exact;
//! * edge sources whose targets have not arrived yet are held as pending
//!   *causes* keyed by [`CauseKey`] (which record kind is which end of
//!   which rule is `rules::keyed`, the table the batch builder reads too);
//!   the simulator's
//!   [`StreamControl::CauseFanout`]/[`CauseDropped`](StreamControl::CauseDropped)
//!   notifications say when a cause can be discarded;
//! * `Eserial` is decided on arrival: when `Begin(e2)` arrives, every
//!   already-*ended* event `e1` of the same single-consumer queue is tested
//!   with `clock(Create(e2))[Create(e1)] ≥ pos(Create(e1))` — by induction
//!   over sequence order this is the paper's fixed point, because a
//!   forward-edge DAG's reachability into a vertex only depends on edges
//!   whose targets precede it. The batch builder runs the same pass over
//!   record indices.
//!
//! **Retirement.** [`FrontierEngine::lower_bound`] returns the elementwise
//! minimum `L` over every clock that can still flow into a future record:
//! live chain frontiers and pending cause clocks. Any record at `(c, p)`
//! with `L[c] ≥ p` is *covered by every future record* and can never form a
//! race again — the window holding still-raceable accesses may drop it, and
//! [`FrontierEngine::retire`] recycles fully covered slots (position
//! counters survive recycling, so `(slot, pos)` stays a unique identity).
//! Entry tasks announced by [`StreamControl::TaskStarted`] block retirement
//! with an implicit all-zero clock until their first record arrives. When
//! the fault plan can crash nodes, retirement must be disabled
//! ([`FrontierOptions::allow_retirement`]): a `NodeCrash` record is a
//! spontaneous causal root joining *every* chain of the node, so no window
//! closure before it is provable.

use std::collections::{BTreeMap, BTreeSet};

use dcatch_model::NodeId;
use dcatch_trace::{CauseKey, ExecCtx, OpKind, QueueInfo, Record, StreamControl, TaskId};

use crate::rules::{self, End};

/// Configuration for [`FrontierEngine`].
#[derive(Debug, Clone)]
pub struct FrontierOptions {
    /// Derive `Eserial` edges natively while streaming. The loop-sync
    /// second pass disables this and replays the first pass's edges via
    /// [`FrontierEngine::inject_eserial`] instead, mirroring the batch
    /// pipeline (which never re-derives `Eserial` after
    /// `add_edges_and_rebuild`).
    pub eserial: bool,
    /// Allow [`lower_bound`](FrontierEngine::lower_bound) to prove window
    /// closures. Must be `false` when the fault plan contains node crashes
    /// (see the module docs).
    pub allow_retirement: bool,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            eserial: true,
            allow_retirement: true,
        }
    }
}

/// Where a record landed: its chain's slot and 1-based position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Slot index of the record's `(task, ctx)` chain.
    pub chain: u32,
    /// Position within the slot (monotone across slot recycling).
    pub pos: u32,
}

#[derive(Debug)]
struct Slot {
    /// `frontier[c]` = latest position of slot `c` this chain reaches.
    frontier: Vec<u32>,
    /// Last position handed out; never reset, even when recycled.
    pos: u32,
    key: Option<(TaskId, ExecCtx)>,
    live: bool,
    ended: bool,
    has_thread_end: bool,
}

#[derive(Debug)]
struct Cause {
    clock: Vec<u32>,
    /// `(slot, pos)` of the source record (the `Eserial` create identity).
    src: (u32, u32),
    /// Remaining deliveries. `None` = fan-out not announced yet (network
    /// sends announce after the record); treated as a retirement blocker.
    refs: Option<u32>,
}

/// One delivery of a [`Cause`].
struct Delivery {
    src: (u32, u32),
    /// The cause's clock, moved out when this was its last delivery.
    clock: Option<Vec<u32>>,
}

/// A begun single-consumer event awaiting its `EventEnd`.
#[derive(Debug)]
struct EvOpen {
    queue: (u32, String),
    create: (u32, u32),
}

/// An ended single-consumer event — an eligible `Eserial` source.
#[derive(Debug)]
struct EvEnded {
    event: u64,
    create: (u32, u32),
    end: (u32, u32),
    end_clock: Vec<u32>,
}

/// The online happens-before engine. Feed it every [`Record`] and
/// [`StreamControl`] of one streamed run, in arrival order.
#[derive(Debug, Default)]
pub struct FrontierEngine {
    opts: FrontierOptions,
    slots: Vec<Slot>,
    free: Vec<u32>,
    registry: BTreeMap<(TaskId, ExecCtx), u32>,
    /// Entry tasks announced but not yet emitting: implicit zero clocks.
    pending_tasks: BTreeSet<TaskId>,
    causes: BTreeMap<CauseKey, Cause>,
    /// Latest restart clock per node: joined into every chain the reborn
    /// node creates (it carries the earlier restarts, which program order
    /// chains to it).
    restart_clock: BTreeMap<NodeId, Vec<u32>>,
    // --- Eserial state ---
    queues: BTreeMap<(u32, String), QueueInfo>,
    event_queue: BTreeMap<u64, (u32, String)>,
    open: BTreeMap<u64, EvOpen>,
    ended: BTreeMap<(u32, String), Vec<EvEnded>>,
    /// `(e1, e2)` pairs derived natively this run, for the loop-sync pass.
    eserial_log: Vec<(u64, u64)>,
    // --- injected edges (loop-sync second pass) ---
    inj_source_set: BTreeSet<u64>,
    inj_targets: BTreeMap<u64, Vec<u64>>,
    inj_sources: BTreeMap<u64, Vec<u32>>,
}

fn join_clock(dst: &mut Vec<u32>, src: &[u32]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        if *s > *d {
            *d = *s;
        }
    }
}

impl FrontierEngine {
    /// Creates an engine.
    pub fn new(opts: FrontierOptions) -> FrontierEngine {
        FrontierEngine {
            opts,
            ..FrontierEngine::default()
        }
    }

    /// Replays `End(e1) ⇒ Begin(e2)` pairs derived by an earlier pass
    /// (second loop-sync run; see [`FrontierOptions::eserial`]).
    pub fn inject_eserial(&mut self, pairs: &[(u64, u64)]) {
        for &(e1, e2) in pairs {
            self.inj_source_set.insert(e1);
            self.inj_targets.entry(e2).or_default().push(e1);
        }
    }

    /// Number of slots allocated so far (live + recyclable).
    pub fn chains(&self) -> usize {
        self.slots.len()
    }

    /// The current frontier clock of `chain` — for the record that just
    /// arrived there, this is its exact reachability-into set.
    pub fn clock(&self, chain: u32) -> &[u32] {
        &self.slots[chain as usize].frontier
    }

    /// Joins an externally derived clock (an injected loop-sync edge) into
    /// the chain of the record that just arrived.
    pub fn join(&mut self, at: Arrival, clock: &[u32]) {
        join_clock(&mut self.slots[at.chain as usize].frontier, clock);
    }

    /// `(e1, e2)` `Eserial` pairs derived natively so far.
    pub fn eserial_edges(&self) -> &[(u64, u64)] {
        &self.eserial_log
    }

    /// Rough resident-memory estimate of the engine state, in bytes.
    pub fn bytes(&self) -> usize {
        let clock = |c: &Vec<u32>| 4 * c.capacity() + 24;
        let mut b = 0usize;
        for s in &self.slots {
            b += clock(&s.frontier) + 64;
        }
        for c in self.causes.values() {
            b += clock(&c.clock) + 80;
        }
        for list in self.ended.values() {
            for e in list {
                b += clock(&e.end_clock) + 64;
            }
        }
        b += 96 * (self.open.len() + self.event_queue.len() + self.queues.len());
        b += 48 * (self.registry.len() + self.free.len() + self.pending_tasks.len());
        for c in self.inj_sources.values() {
            b += clock(c);
        }
        b
    }

    /// Processes one out-of-band notification.
    pub fn control(&mut self, control: &StreamControl) {
        match control {
            StreamControl::RegisterQueue { node, queue, info } => {
                self.queues.insert((node.0, queue.clone()), *info);
            }
            StreamControl::RegisterEvent { event, node, queue } => {
                self.event_queue.insert(*event, (node.0, queue.clone()));
            }
            StreamControl::TaskStarted { task } => {
                if !self.registry.contains_key(&(*task, ExecCtx::Regular)) {
                    self.pending_tasks.insert(*task);
                }
            }
            StreamControl::ChainDone { task, ctx } => {
                if let Some(&s) = self.registry.get(&(*task, *ctx)) {
                    self.slots[s as usize].ended = true;
                } else {
                    // the chain never emitted: clear its blockers — the
                    // boot placeholder, and (for a thread killed before
                    // its first step) the pending fork cause
                    self.pending_tasks.remove(task);
                    self.drop_cause(&CauseKey::ThreadBegin(*task));
                }
            }
            StreamControl::CauseFanout { key, copies } => {
                if let Some(c) = self.causes.get_mut(key) {
                    let total = c.refs.unwrap_or(0) + copies;
                    if total == 0 {
                        self.causes.remove(key);
                    } else {
                        c.refs = Some(total);
                    }
                }
            }
            StreamControl::CauseDropped { key } => {
                self.drop_cause(key);
            }
        }
    }

    fn drop_cause(&mut self, key: &CauseKey) {
        if let Some(c) = self.causes.get_mut(key) {
            match c.refs {
                Some(n) if n > 1 => c.refs = Some(n - 1),
                _ => {
                    self.causes.remove(key);
                }
            }
        }
    }

    /// Processes one trace record; returns where it landed. The returned
    /// arrival's clock ([`clock`](Self::clock)) is final.
    pub fn record(&mut self, r: &Record) -> Arrival {
        let chain = self.chain_for(r.task, r.ctx);
        let ci = chain as usize;
        // program order: tick own position
        let pos = {
            let s = &mut self.slots[ci];
            s.pos += 1;
            if s.frontier.len() <= ci {
                s.frontier.resize(ci + 1, 0);
            }
            s.frontier[ci] = s.pos;
            s.pos
        };
        // --- Tfork / Eenq / Mrpc / Msoc / Mpush ---
        match rules::keyed(r) {
            Some((key, rule, End::Source)) => {
                // a network send announces its fan-out after the record
                self.snapshot_cause(chain, key, rules::delivers_once(rule).then_some(1));
            }
            Some((key, _, End::Target)) => {
                let delivery = self.resolve(chain, &key);
                if let OpKind::EventBegin { event } = r.kind {
                    self.event_begin(chain, event.0, &key, delivery);
                }
            }
            None => {}
        }
        match r.kind {
            // --- Tjoin ---
            OpKind::ThreadEnd => {
                self.slots[ci].has_thread_end = true;
            }
            OpKind::ThreadJoin { child } => {
                // a killed child has no `ThreadEnd`, and orders nothing
                if let Some(&cs) = self.registry.get(&(child, ExecCtx::Regular)) {
                    if self.slots[cs as usize].has_thread_end {
                        let f = std::mem::take(&mut self.slots[cs as usize].frontier);
                        join_clock(&mut self.slots[ci].frontier, &f);
                        self.slots[cs as usize].frontier = f;
                    }
                }
            }
            // --- Eserial ---
            OpKind::EventEnd { event } => {
                if let Some(open) = self.open.remove(&event.0) {
                    let end_clock = self.slots[ci].frontier.clone();
                    self.ended.entry(open.queue).or_default().push(EvEnded {
                        event: event.0,
                        create: open.create,
                        end: (chain, pos),
                        end_clock,
                    });
                }
                if self.inj_source_set.contains(&event.0) {
                    self.inj_sources
                        .insert(event.0, self.slots[ci].frontier.clone());
                }
            }
            // --- Crash ---
            OpKind::NodeCrash { node } => {
                let mut joins: Vec<Vec<u32>> = Vec::new();
                for (&(t, _), &s) in &self.registry {
                    if t.node == node && s != chain {
                        joins.push(self.slots[s as usize].frontier.clone());
                    }
                }
                for j in joins {
                    join_clock(&mut self.slots[ci].frontier, &j);
                }
            }
            OpKind::NodeRestart { node } => {
                self.restart_clock
                    .insert(node, self.slots[ci].frontier.clone());
            }
            // the keyed records above; memory, locks, loop markers and RPC
            // timeouts: program order only
            _ => {}
        }
        Arrival { chain, pos }
    }

    fn chain_for(&mut self, task: TaskId, ctx: ExecCtx) -> u32 {
        if let Some(&s) = self.registry.get(&(task, ctx)) {
            return s;
        }
        self.pending_tasks.remove(&task);
        let id = match self.free.pop() {
            Some(id) => {
                let s = &mut self.slots[id as usize];
                debug_assert!(!s.live);
                s.live = true;
                s.ended = false;
                s.has_thread_end = false;
                s.key = Some((task, ctx));
                id
            }
            None => {
                self.slots.push(Slot {
                    frontier: Vec::new(),
                    pos: 0,
                    key: Some((task, ctx)),
                    live: true,
                    ended: false,
                    has_thread_end: false,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.registry.insert((task, ctx), id);
        if let Some(rc) = self.restart_clock.get(&task.node) {
            let rc = rc.clone();
            join_clock(&mut self.slots[id as usize].frontier, &rc);
        }
        id
    }

    fn snapshot_cause(&mut self, chain: u32, key: CauseKey, refs: Option<u32>) {
        let s = &self.slots[chain as usize];
        let src = (chain, s.pos);
        let clock = s.frontier.clone();
        match self.causes.entry(key) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                // a repeated source: last snapshot wins, pending deliveries
                // carry over
                let c = e.get_mut();
                c.clock = clock;
                c.src = src;
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Cause { clock, src, refs });
            }
        }
    }

    /// Joins `key`'s cause into `chain` and consumes one delivery. Returns
    /// the cause's source identity — with its clock when this was the last
    /// delivery and the cause is gone — or `None` when no cause is pending.
    fn resolve(&mut self, chain: u32, key: &CauseKey) -> Option<Delivery> {
        let c = self.causes.get_mut(key)?;
        join_clock(&mut self.slots[chain as usize].frontier, &c.clock);
        let (src, mut clock) = (c.src, None);
        match c.refs {
            Some(n) if n > 1 => c.refs = Some(n - 1),
            Some(_) => clock = self.causes.remove(key).map(|c| c.clock),
            None => {}
        }
        Some(Delivery { src, clock })
    }

    /// `Begin(event)` arrived and took `delivery` from its `Create` (`key`):
    /// the `Eserial` bookkeeping, native or injected.
    fn event_begin(&mut self, chain: u32, event: u64, key: &CauseKey, delivery: Option<Delivery>) {
        let queue = self.event_queue.remove(&event);
        if let (Some(Delivery { src: create, clock }), Some(queue)) = (delivery, queue) {
            let single = self
                .queues
                .get(&queue)
                .is_some_and(|q| q.is_single_consumer());
            if single {
                if self.opts.eserial {
                    // a clock that did not move out is still pending
                    let clock = clock.unwrap_or_else(|| self.causes[key].clock.clone());
                    self.eserial_begin(chain, event, &queue, create, &clock);
                }
                self.open.insert(event, EvOpen { queue, create });
            }
        }
        self.apply_injected(chain, event);
    }

    /// The arrival-order `Eserial` test: join every already-ended event of
    /// the same single-consumer queue whose create this begin's create can
    /// reach.
    fn eserial_begin(
        &mut self,
        chain: u32,
        event: u64,
        queue: &(u32, String),
        create: (u32, u32),
        create_clock: &[u32],
    ) {
        let mut joins: Vec<Vec<u32>> = Vec::new();
        if let Some(list) = self.ended.get(queue) {
            for e in list {
                let reaches = e.create != create
                    && create_clock.get(e.create.0 as usize).copied().unwrap_or(0) >= e.create.1;
                if reaches {
                    joins.push(e.end_clock.clone());
                    self.eserial_log.push((e.event, event));
                }
            }
        }
        for j in joins {
            join_clock(&mut self.slots[chain as usize].frontier, &j);
        }
    }

    fn apply_injected(&mut self, chain: u32, event: u64) {
        let Some(srcs) = self.inj_targets.get(&event) else {
            return;
        };
        let mut joins: Vec<Vec<u32>> = Vec::new();
        for e1 in srcs {
            if let Some(cl) = self.inj_sources.get(e1) {
                joins.push(cl.clone());
            }
        }
        for j in joins {
            join_clock(&mut self.slots[chain as usize].frontier, &j);
        }
    }

    /// The retirement bound `L`: `L[c] ≥ p` proves record `(c, p)` is
    /// covered by **every** record yet to arrive. `None` when retirement is
    /// disabled or an announced entry task has not emitted yet (its clock
    /// is all-zero, so nothing would retire anyway).
    pub fn lower_bound(&self) -> Option<Vec<u32>> {
        if !self.opts.allow_retirement || !self.pending_tasks.is_empty() {
            return None;
        }
        let mut l = vec![u32::MAX; self.slots.len()];
        let mut clamp = |clock: &[u32]| {
            for (i, v) in l.iter_mut().enumerate() {
                let c = clock.get(i).copied().unwrap_or(0);
                if c < *v {
                    *v = c;
                }
            }
        };
        for s in self.slots.iter().filter(|s| s.live && !s.ended) {
            clamp(&s.frontier);
        }
        for c in self.causes.values() {
            clamp(&c.clock);
        }
        Some(l)
    }

    /// Drops engine state the bound proves dead: ended `Eserial` sources
    /// whose `End` every future record covers, and slots of ended chains
    /// that are fully covered (their id goes back on the free list; the
    /// position counter keeps counting, so old `(slot, pos)` identities
    /// stay unique).
    pub fn retire(&mut self, bound: &[u32]) {
        for list in self.ended.values_mut() {
            list.retain(|e| bound.get(e.end.0 as usize).copied().unwrap_or(0) < e.end.1);
        }
        self.ended.retain(|_, list| !list.is_empty());
        for (id, s) in self.slots.iter_mut().enumerate() {
            if s.live && s.ended && bound.get(id).copied().unwrap_or(0) >= s.pos {
                s.live = false;
                s.frontier.clear(); // the next occupant reuses the buffer
                if let Some(key) = s.key.take() {
                    self.registry.remove(&key);
                }
                self.free.push(id as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests;
