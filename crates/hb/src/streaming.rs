//! The happens-before model as one forward pass: incremental frontier
//! clocks over a record stream.
//!
//! This is the only place the MTEP rules are applied. Online, the engine
//! answers the one query streaming detection needs — *is the record that
//! just arrived ordered after a given earlier record?* — with state
//! proportional to the number of **live** program-order chains, not to the
//! trace length, and clocks as long as the trace has *HB-ordered* chains.
//! Offline, [`HbAnalysis::build`](crate::HbAnalysis::build) feeds it the
//! materialized trace with retirement off and no `ChainDone`, and stores
//! per record what the engine otherwise forgets: the predecessors it lists
//! (`preds()`) as edges, the final clock as a row of the index.
//!
//! * a clock dimension is a *slot*: a chain of records each ordered after
//!   the one before, with a monotone 1-based position counter. An arriving
//!   record extends the slot of its program-order predecessor, else of the
//!   first direct HB predecessor that is still its slot's tail, else opens
//!   one (the private `slots` module) — so
//!   the handler instances a chain of sends causes share that chain's slot
//!   instead of opening one each. `(slot, pos)` is a record's identity;
//! * every live `(task, ctx)` chain owns a frontier clock (`frontier[s]` =
//!   how far into slot `s` its latest record reaches). A handler instance's
//!   chain is forgotten at its [`StreamControl::ChainDone`]: no record names
//!   it again, and the one reader left — a `NodeCrash`, ordered after every
//!   chain of its node — reads a per-node join of the forgotten clocks;
//! * each MTEP edge becomes a *join* performed when its **target** record
//!   arrives. Since every HB edge points forward in sequence order, the
//!   clock of a record is complete the moment it arrives — reachability
//!   *into* the new record can never change later, which is what makes the
//!   one-sided online concurrency test exact;
//! * edge sources whose targets have not arrived yet are held as pending
//!   *causes* keyed by [`CauseKey`] (which record kind is which end of
//!   which rule is the `rules::keyed` table); the simulator's
//!   [`StreamControl::CauseFanout`]/[`CauseDropped`](StreamControl::CauseDropped)
//!   notifications say when a cause can be discarded;
//! * `Eserial` is decided on arrival: when `Begin(e2)` arrives, every
//!   already-*ended* event `e1` of the same single-consumer queue is tested
//!   with `clock(Create(e2))[Create(e1)] ≥ pos(Create(e1))` — by induction
//!   over sequence order this is the paper's fixed point, because a
//!   forward-edge DAG's reachability into a vertex only depends on edges
//!   whose targets precede it.
//!
//! **Retirement.** [`FrontierEngine::lower_bound`] returns the elementwise
//! minimum `L` over every clock that can still flow into a future record:
//! live chain frontiers and pending cause clocks. Any record at `(s, p)`
//! with `L[s] ≥ p` is *covered by every future record* and can never form a
//! race again — the window holding still-raceable accesses may drop it, and
//! a slot whose *tail* is covered is extended by whichever record next
//! needs a slot ([`FrontierEngine::retire`]): it provably follows that
//! tail, so dimensions are reused without any identity ever repeating.
//! Entry tasks announced by [`StreamControl::TaskStarted`] block retirement
//! with an implicit all-zero clock until their first record arrives. When
//! the fault plan can crash nodes, retirement must be disabled
//! ([`FrontierOptions::allow_retirement`]): a `NodeCrash` record is a
//! spontaneous causal root joining *every* chain of the node, so no window
//! closure before it is provable — the engine's own state stays bounded by
//! the live chains all the same.

use std::collections::{BTreeMap, BTreeSet};

use dcatch_model::NodeId;
use dcatch_trace::{CauseKey, ExecCtx, Names, OpKind, QueueInfo, Record, StreamControl, TaskId};

use crate::graph::EdgeRule;
use crate::rules::{self, End};
use crate::slots;

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

/// Where a record landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Handle of the record's `(task, ctx)` chain, for
    /// [`FrontierEngine::clock`] — valid until the next record or control
    /// (a finished chain's handle is handed out again).
    pub chain: u32,
    /// The slot — the HB-ordered chain, a clock dimension — the record
    /// extends. `(slot, pos)` is its identity for the whole run.
    pub slot: u32,
    /// 1-based position within the slot.
    pub pos: u32,
}

/// One program-order chain `(task, ctx)`.
#[derive(Debug, Default)]
struct Chain {
    /// The clock of the chain's latest record: `frontier[s]` = how far
    /// into slot `s` it reaches.
    frontier: Vec<u32>,
    /// `(slot, pos)` of the chain's latest record.
    at: (u32, u32),
    ended: bool,
    /// `(slot, pos)` of the chain's `ThreadEnd`, the `Tjoin` source.
    thread_end: Option<(u32, u32)>,
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
    /// Last position handed out in each slot ([`slots::assign`]'s table).
    tails: Vec<u32>,
    /// `(slot, tail)` of the slots whose tail the last bound covered:
    /// predecessors of every record yet to arrive, offered to the slot
    /// rule after the direct ones. An entry goes stale when its slot is
    /// extended, which the rule's tail test sees.
    covered: Vec<(u32, u32)>,
    /// The last record's direct predecessors with the rule that orders
    /// each, in rule order: what the slot rule was offered, then a crash
    /// record's fan-in. Scratch for [`record`](Self::record); the batch
    /// builder reads it back as the record's incoming edges.
    preds: Vec<((u32, u32), EdgeRule)>,
    chains: Vec<Chain>,
    /// Handles of `chains` entries no live chain owns.
    idle: Vec<u32>,
    registry: BTreeMap<(TaskId, ExecCtx), u32>,
    /// Per node, the join of the clocks of its released chains: all a
    /// `NodeCrash` record still needs of them.
    released: BTreeMap<NodeId, Vec<u32>>,
    /// Entry tasks announced but not yet emitting: implicit zero clocks.
    pending_tasks: BTreeSet<TaskId>,
    causes: BTreeMap<CauseKey, Cause>,
    /// Clock buffers of resolved causes, for the next cause's snapshot: a
    /// network send costs no allocation once the run is warm.
    spare: Vec<Vec<u32>>,
    /// Latest restart record per node — its `(slot, pos)` and clock,
    /// joined into every chain the reborn node creates (it carries the
    /// earlier restarts, which program order chains to it).
    restarts: BTreeMap<NodeId, ((u32, u32), Vec<u32>)>,
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

fn covers(clock: &[u32], (slot, pos): (u32, u32)) -> bool {
    clock.get(slot as usize).copied().unwrap_or(0) >= pos
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

    /// Number of slots opened so far — the length a clock can have.
    pub fn chains(&self) -> usize {
        self.tails.len()
    }

    /// Number of program-order chains the engine holds state for.
    pub fn live_chains(&self) -> usize {
        self.registry.len()
    }

    /// The current frontier clock of `chain` — for the record that just
    /// arrived there, this is its exact reachability-into set.
    pub fn clock(&self, chain: u32) -> &[u32] {
        &self.chains[chain as usize].frontier
    }

    /// Joins an externally derived clock (an injected loop-sync edge) into
    /// the chain of the record that just arrived.
    pub fn join(&mut self, at: Arrival, clock: &[u32]) {
        join_clock(&mut self.chains[at.chain as usize].frontier, clock);
    }

    /// `(e1, e2)` `Eserial` pairs derived natively so far.
    pub fn eserial_edges(&self) -> &[(u64, u64)] {
        &self.eserial_log
    }

    /// Rough resident-memory estimate of the engine state, in bytes.
    pub fn bytes(&self) -> usize {
        let ended = || self.ended.values().flatten();
        let clocks = (self.chains.iter().map(|c| &c.frontier))
            .chain(self.causes.values().map(|c| &c.clock))
            .chain(ended().map(|e| &e.end_clock))
            .chain(self.released.values())
            .chain(self.restarts.values().map(|(_, clock)| clock))
            .chain(self.inj_sources.values())
            .chain(&self.spare);
        let injected = self
            .inj_targets
            .values()
            .map(|sources| 48 + 8 * sources.capacity());
        clocks.map(|c| 4 * c.capacity() + 24).sum::<usize>()
            + 4 * (self.tails.capacity() + self.idle.capacity())
            + 8 * self.covered.capacity()
            + 12 * self.preds.capacity()
            + 48 * (self.chains.len() + self.registry.len() + self.pending_tasks.len())
            + 80 * self.causes.len()
            + 64 * ended().count()
            + 96 * (self.open.len() + self.event_queue.len() + self.queues.len())
            + 16 * (self.eserial_log.capacity() + self.inj_source_set.len())
            + injected.sum::<usize>()
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
                match (self.registry.get(&(*task, *ctx)), ctx) {
                    // a handler instance runs once: no record will name its
                    // chain again, and only a `NodeCrash` reads its clock
                    (Some(_), ExecCtx::Handler { .. }) => self.release(&(*task, *ctx)),
                    // a thread's clock waits for its `Tjoin`, and the fault
                    // records of a node reuse its task 0's regular chain
                    (Some(&c), ExecCtx::Regular) => self.chains[c as usize].ended = true,
                    // the chain never emitted: clear its blockers — the boot
                    // placeholder, and (for a thread killed before its first
                    // step) the pending fork cause
                    (None, _) => {
                        self.pending_tasks.remove(task);
                        self.drop_cause(&CauseKey::ThreadBegin(*task));
                    }
                }
            }
            StreamControl::CauseFanout { key, copies } => {
                if let Some(c) = self.causes.get_mut(key) {
                    let total = c.refs.unwrap_or(0) + copies;
                    if total == 0 {
                        self.forget_cause(key);
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
                _ => self.forget_cause(key),
            }
        }
    }

    /// Removes `key`'s cause, keeping its clock buffer for the next one.
    fn forget_cause(&mut self, key: &CauseKey) {
        if let Some(c) = self.causes.remove(key) {
            self.spare.push(c.clock);
        }
    }

    /// Forgets the chain `key`: its clock is folded into its node's
    /// `released` join and its handle (with the clock's buffer) is free for
    /// the next chain.
    fn release(&mut self, key: &(TaskId, ExecCtx)) {
        let Some(c) = self.registry.remove(key) else {
            return;
        };
        let chain = &mut self.chains[c as usize];
        let dead = self.released.entry(key.0.node).or_default();
        join_clock(dead, &chain.frontier);
        chain.frontier.clear();
        self.idle.push(c);
    }

    /// Processes one trace record, whose ids `names` resolves; returns
    /// where it landed. The returned arrival's clock ([`clock`](Self::clock))
    /// is final.
    pub fn record(&mut self, r: &Record, names: &Names) -> Arrival {
        // what the record is ordered after, each joined into its chain's
        // clock and listed, with its rule, for the slot rule and for
        // `preds()`: program order ...
        self.preds.clear();
        let (chain, reborn) = self.chain_for(r.task, r.ctx);
        let ci = chain as usize;
        // ... `Tfork` / `Eenq` / `Mrpc` / `Msoc` / `Mpush`, `Crash` (restart
        // ⇒ reborn chain), `Eserial` ...
        let keyed = rules::keyed(r, names);
        let target = keyed.as_ref().filter(|k| matches!(k.2, End::Target));
        let delivery = target.and_then(|&(ref key, rule, _)| self.resolve(chain, key, rule));
        self.preds.extend(reborn.map(|at| (at, EdgeRule::Crash)));
        match (target, &r.kind, delivery) {
            (Some((key, ..)), &OpKind::EventBegin { event }, delivery) => {
                self.event_begin(chain, event.0, key, delivery);
            }
            (
                ..,
                Some(Delivery {
                    clock: Some(clock), ..
                }),
            ) => self.spare.push(clock),
            _ => {}
        }
        // ... and `Tjoin` (a killed child has no `ThreadEnd`, and orders
        // nothing)
        if let OpKind::ThreadJoin { child } = r.kind {
            if let Some(&cs) = self.registry.get(&(child, ExecCtx::Regular)) {
                if let Some(end) = self.chains[cs as usize].thread_end {
                    let f = std::mem::take(&mut self.chains[cs as usize].frontier);
                    join_clock(&mut self.chains[ci].frontier, &f);
                    self.chains[cs as usize].frontier = f;
                    self.preds.push((end, EdgeRule::Join));
                }
            }
        }
        // place the record
        let direct = self.preds.iter().map(|&(at, _)| at);
        let preds = direct.chain(std::iter::from_fn(|| self.covered.pop()));
        let (slot, pos) = slots::assign(&mut self.tails, preds);
        let c = &mut self.chains[ci];
        let si = slot as usize;
        if c.frontier.len() <= si {
            c.frontier.resize(si + 1, 0);
        }
        debug_assert_eq!(c.frontier[si], pos - 1, "slot {slot}: not its tail");
        c.frontier[si] = pos;
        c.at = (slot, pos);
        // what later records may be ordered after
        if let Some((key, rule, End::Source)) = keyed {
            // a network send announces its fan-out after the record
            self.snapshot_cause(chain, key, rules::delivers_once(rule).then_some(1));
        }
        match r.kind {
            OpKind::ThreadEnd => self.chains[ci].thread_end = Some((slot, pos)),
            OpKind::EventEnd { event } => {
                if let Some(open) = self.open.remove(&event.0) {
                    let end_clock = self.chains[ci].frontier.clone();
                    self.ended.entry(open.queue).or_default().push(EvEnded {
                        event: event.0,
                        create: open.create,
                        end: (slot, pos),
                        end_clock,
                    });
                }
                if self.inj_source_set.contains(&event.0) {
                    self.inj_sources
                        .insert(event.0, self.chains[ci].frontier.clone());
                }
            }
            // `Crash`: every chain of the node, live or released. The
            // record is placed already — its fan-in, as many sources as the
            // node has chains, is not for the slot rule to walk
            OpKind::NodeCrash { node } => {
                let mut clock = std::mem::take(&mut self.chains[ci].frontier);
                for (&(t, _), &c) in &self.registry {
                    if t.node == node && c != chain {
                        let other = &self.chains[c as usize];
                        join_clock(&mut clock, &other.frontier);
                        self.preds.push((other.at, EdgeRule::Crash));
                    }
                }
                if let Some(dead) = self.released.get(&node) {
                    join_clock(&mut clock, dead);
                }
                self.chains[ci].frontier = clock;
            }
            OpKind::NodeRestart { node } => {
                self.restarts
                    .insert(node, ((slot, pos), self.chains[ci].frontier.clone()));
            }
            // memory, locks, loop markers and RPC timeouts: program order
            // only
            _ => {}
        }
        Arrival { chain, slot, pos }
    }

    /// The direct predecessors of the record that just arrived, each with
    /// the rule that orders it — every join `record` performed but two: a
    /// chain released at its `ChainDone` is in a crash record's clock, not
    /// in its list, and neither is an injected `Eserial` source. The batch
    /// builder's engine sees neither; an online caller has the clock and
    /// never asks.
    pub(crate) fn preds(&self) -> &[((u32, u32), EdgeRule)] {
        &self.preds
    }

    /// The handle of chain `(task, ctx)`, created on its first record
    /// (then also the restart record of its node that it is ordered after,
    /// if any); starts the record's predecessor list with its
    /// program-order one.
    fn chain_for(&mut self, task: TaskId, ctx: ExecCtx) -> (u32, Option<(u32, u32)>) {
        if let Some(&c) = self.registry.get(&(task, ctx)) {
            self.preds
                .push((self.chains[c as usize].at, EdgeRule::Program));
            return (c, None);
        }
        self.pending_tasks.remove(&task);
        let c = self.idle.pop().unwrap_or_else(|| {
            self.chains.push(Chain::default());
            (self.chains.len() - 1) as u32
        });
        let chain = &mut self.chains[c as usize];
        // the frontier keeps its buffer from the handle's last owner
        (chain.at, chain.ended, chain.thread_end) = ((0, 0), false, None);
        self.registry.insert((task, ctx), c);
        let restart = self.restarts.get(&task.node);
        if let Some((_, clock)) = restart {
            join_clock(&mut chain.frontier, clock);
        }
        (c, restart.map(|(at, _)| *at))
    }

    fn snapshot_cause(&mut self, chain: u32, key: CauseKey, refs: Option<u32>) {
        let c = &self.chains[chain as usize];
        match self.causes.entry(key) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                // a repeated source: last snapshot wins, pending deliveries
                // carry over
                let cause = e.get_mut();
                cause.clock.clone_from(&c.frontier);
                cause.src = c.at;
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                let mut clock = self.spare.pop().unwrap_or_default();
                clock.clone_from(&c.frontier);
                e.insert(Cause {
                    clock,
                    src: c.at,
                    refs,
                });
            }
        }
    }

    /// Joins `key`'s cause into `chain` and consumes one delivery. Returns
    /// the cause's source identity — with its clock when this was the last
    /// delivery and the cause is gone — or `None` when no cause is pending.
    fn resolve(&mut self, chain: u32, key: &CauseKey, rule: EdgeRule) -> Option<Delivery> {
        let c = self.causes.get_mut(key)?;
        join_clock(&mut self.chains[chain as usize].frontier, &c.clock);
        self.preds.push((c.src, rule));
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
                    self.spare.push(clock);
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
        let frontier = &mut self.chains[chain as usize].frontier;
        for e in self.ended.get(queue).into_iter().flatten() {
            if e.create != create && covers(create_clock, e.create) {
                join_clock(frontier, &e.end_clock);
                self.preds.push((e.end, EdgeRule::Eserial));
                self.eserial_log.push((e.event, event));
            }
        }
    }

    fn apply_injected(&mut self, chain: u32, event: u64) {
        let frontier = &mut self.chains[chain as usize].frontier;
        for e1 in self.inj_targets.get(&event).into_iter().flatten() {
            if let Some(clock) = self.inj_sources.get(e1) {
                join_clock(frontier, clock);
            }
        }
    }

    /// The retirement bound `L`: `L[s] ≥ p` proves record `(s, p)` is
    /// covered by **every** record yet to arrive. `None` when retirement is
    /// disabled or an announced entry task has not emitted yet (its clock
    /// is all-zero, so nothing would retire anyway).
    pub fn lower_bound(&self) -> Option<Vec<u32>> {
        if !self.opts.allow_retirement || !self.pending_tasks.is_empty() {
            return None;
        }
        let mut l = vec![u32::MAX; self.tails.len()];
        let live = self.registry.values().map(|&c| &self.chains[c as usize]);
        let live = live.filter(|c| !c.ended).map(|c| &c.frontier);
        for clock in live.chain(self.causes.values().map(|c| &c.clock)) {
            for (i, v) in l.iter_mut().enumerate() {
                *v = (*v).min(clock.get(i).copied().unwrap_or(0));
            }
        }
        Some(l)
    }

    /// Drops engine state the bound proves dead — ended `Eserial` sources
    /// whose `End` every future record covers, ended chains whose last
    /// record is covered — and notes the slots whose tail is: every record
    /// yet to arrive is ordered after such a tail, so the slot rule may
    /// let any of them extend it.
    pub fn retire(&mut self, bound: &[u32]) {
        for list in self.ended.values_mut() {
            list.retain(|e| !covers(bound, e.end));
        }
        self.ended.retain(|_, list| !list.is_empty());
        let done = |c: &Chain| c.ended && covers(bound, c.at);
        let chains = self.registry.iter();
        let dead: Vec<_> = chains
            .filter(|&(_, &c)| done(&self.chains[c as usize]))
            .map(|(key, _)| *key)
            .collect();
        for key in &dead {
            self.release(key);
        }
        self.covered.clear();
        let tails = (0..).zip(self.tails.iter().copied());
        self.covered
            .extend(tails.filter(|&tail| covers(bound, tail)));
    }
}

#[cfg(test)]
mod tests;
