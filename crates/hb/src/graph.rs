//! HB-graph construction and reachability queries (paper §3.2).

use std::collections::BTreeMap;
use std::fmt;

use dcatch_model::NodeId;
use dcatch_obs::{counter, gauge};
use dcatch_trace::{CauseKey, EventId, ExecCtx, OpKind, TaskId, TraceSet};

use crate::bitmatrix::BitMatrix;
use crate::chainclocks::ChainClocks;
use crate::rules::{self, End};

/// Which rule produced an edge (kept for explanations and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeRule {
    /// `Preg`/`Pnreg` program order.
    Program,
    /// `Tfork`: thread create → begin.
    Fork,
    /// `Tjoin`: thread end → join.
    Join,
    /// `Eenq`: event create → begin.
    Eenq,
    /// `Eserial`: serialized single-consumer event handling.
    Eserial,
    /// `Mrpc`: RPC create → begin / end → join.
    Mrpc,
    /// `Msoc`: socket send → recv.
    Msoc,
    /// `Mpush`: ZooKeeper update → pushed.
    Mpush,
    /// `Mpull` / loop-based custom synchronization (added by
    /// `dcatch-detect` after the focused re-run).
    LoopSync,
    /// Fault-injection ordering: everything a node did happens-before its
    /// `NodeCrash` record, and its `NodeRestart` record happens-before
    /// everything the reborn node does.
    Crash,
}

/// Which reachability index backs `happens_before`/`concurrent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReachabilityMode {
    /// Pick per trace whichever index is *smaller* by the deterministic
    /// estimates (see [`HbConfig::select_engine`]): the dense
    /// [`BitMatrix`] on short or handler-heavy traces (few records per
    /// program-order chain — the estimate counts those, an upper bound on
    /// the slots [`ChainClocks`] ends up with), chain-decomposition
    /// [`ChainClocks`] on long traces of few threads — the unselective
    /// traces where the matrix alone is the Table 8 "Out of Memory" outcome.
    #[default]
    Auto,
    /// Force the dense O(n²)-bit matrix.
    Matrix,
    /// Force the O(n·G) chain-decomposition vector clocks.
    Clocks,
}

impl fmt::Display for ReachabilityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReachabilityMode::Auto => "auto",
            ReachabilityMode::Matrix => "matrix",
            ReachabilityMode::Clocks => "clocks",
        })
    }
}

impl std::str::FromStr for ReachabilityMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ReachabilityMode, String> {
        match s {
            "auto" => Ok(ReachabilityMode::Auto),
            "matrix" => Ok(ReachabilityMode::Matrix),
            "clocks" => Ok(ReachabilityMode::Clocks),
            other => Err(format!(
                "unknown reachability engine `{other}` (expected auto, matrix or clocks)"
            )),
        }
    }
}

/// Configuration of the HB analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbConfig {
    /// Budget for the reachability index, in bytes. The paper's trace
    /// analysis "will run out of JVM memory (50 GB of RAM)" on unselective
    /// traces (Table 8); this reproduces that failure mode at laptop scale.
    pub memory_budget_bytes: usize,
    /// Which reachability engine to use (see [`ReachabilityMode`]).
    pub reachability: ReachabilityMode,
}

impl Default for HbConfig {
    fn default() -> HbConfig {
        HbConfig {
            memory_budget_bytes: 1 << 30, // 1 GiB
            reachability: ReachabilityMode::Auto,
        }
    }
}

impl HbConfig {
    /// The one engine-selection rule: the concrete engine
    /// [`HbAnalysis::build`] uses for a trace of `n` records in `chains`
    /// program-order chains, and the bytes its index needs. `Auto` takes
    /// the smaller index (the matrix on a tie); whether that fits
    /// [`memory_budget_bytes`](HbConfig::memory_budget_bytes) is the
    /// caller's question.
    pub fn select_engine(&self, n: usize, chains: usize) -> (ReachabilityMode, usize) {
        let matrix = (ReachabilityMode::Matrix, BitMatrix::estimated_bytes(n));
        let clocks = (
            ReachabilityMode::Clocks,
            ChainClocks::estimated_bytes(n, chains),
        );
        match self.reachability {
            ReachabilityMode::Matrix => matrix,
            ReachabilityMode::Clocks => clocks,
            ReachabilityMode::Auto if matrix.1 <= clocks.1 => matrix,
            ReachabilityMode::Auto => clocks,
        }
    }
}

/// Failure of the HB analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HbError {
    /// The reachable-set matrix would exceed the configured budget — the
    /// Table 8 "Out of Memory" outcome.
    OutOfMemory {
        /// Bytes the matrix would need.
        needed: usize,
        /// Configured budget.
        budget: usize,
    },
}

impl fmt::Display for HbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbError::OutOfMemory { needed, budget } => write!(
                f,
                "HB analysis out of memory: reachable sets need {needed} bytes (budget {budget})"
            ),
        }
    }
}

impl std::error::Error for HbError {}

/// The active reachability index: dense ancestor-set matrix or
/// chain-decomposition vector clocks (see [`ReachabilityMode`]). Both are
/// exact *ancestor* summaries — entry `v` describes what happens before
/// `v` — so both grow the same way, by joining a predecessor's summary
/// into its successor's; they trade query constant factor against memory
/// footprint.
#[derive(Debug)]
enum ReachIndex {
    Matrix(BitMatrix),
    Clocks(ChainClocks),
}

impl ReachIndex {
    /// Resident bytes of the index.
    fn bytes(&self) -> usize {
        match self {
            ReachIndex::Matrix(m) => BitMatrix::estimated_bytes(m.len()),
            ReachIndex::Clocks(c) => c.bytes(),
        }
    }

    /// Raw reachability; callers guard `a != b` (the matrix's diagonal is
    /// unset while clocks are reflexive, so `a == b` is the one input the
    /// engines answer differently).
    fn reaches(&self, a: usize, b: usize) -> bool {
        match self {
            ReachIndex::Matrix(m) => m.get(b, a),
            ReachIndex::Clocks(c) => c.reaches(a, b),
        }
    }

    /// Record `v`, the next in trace order, arrives with `preds` ahead of
    /// it: the clocks give it a slot; a matrix row needs no placing.
    fn arrive(&mut self, preds: &[(usize, EdgeRule)]) {
        if let ReachIndex::Clocks(c) = self {
            c.push(preds.iter().map(|&(u, _)| u));
        }
    }

    /// Folds the edge `u ⇒ v` in: `v`'s ancestors absorb `u` and `u`'s.
    /// Returns whether `v`'s summary grew — if not, nothing downstream of
    /// `v` can change either.
    fn join_from(&mut self, u: usize, v: usize) -> bool {
        match self {
            ReachIndex::Matrix(m) => {
                let new = !m.get(v, u);
                m.set(v, u);
                m.or_row_into_changed(u, v) | new
            }
            ReachIndex::Clocks(c) => c.join_from(u, v),
        }
    }
}

/// The built HB graph plus its reachability index. Vertices are the trace
/// record indices (`0..trace.len()`), in sequence order.
pub struct HbAnalysis {
    trace: TraceSet,
    edges: Vec<Vec<(u32, EdgeRule)>>,
    /// Reverse adjacency, kept in lockstep with `edges`.
    preds: Vec<Vec<(u32, EdgeRule)>>,
    reach: ReachIndex,
    edge_count: usize,
}

impl HbAnalysis {
    /// Builds the HB graph of `trace` and its reachability index.
    pub fn build(trace: TraceSet, config: &HbConfig) -> Result<HbAnalysis, HbError> {
        let _span = dcatch_obs::span!("hb.build");
        let n = trace.len();
        let budget = config.memory_budget_bytes;
        let (mode, needed) = config.select_engine(n, ChainClocks::chain_count(&trace));
        gauge!("hb_reach_bytes_peak").set_max(needed as u64);
        if needed > budget {
            counter!("hb_oom_total").inc();
            return Err(HbError::OutOfMemory { needed, budget });
        }
        counter!("hb_nodes_total").add(n as u64);
        // adjacency lists before the index: allocated the other way round,
        // `dcbench full_trace` read a peak RSS anywhere from 6 % below to
        // 5 % above this order's (EXPERIMENTS.md "PR 19")
        let mut a = HbAnalysis {
            edges: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            reach: match mode {
                ReachabilityMode::Clocks => ReachIndex::Clocks(ChainClocks::with_capacity(n)),
                _ => ReachIndex::Matrix(BitMatrix::new(n)),
            },
            trace,
            edge_count: 0,
        };
        a.derive_edges();
        counter!("hb_edges_total").add(a.edge_count as u64);
        Ok(a)
    }

    /// The analyzed trace (possibly ablated by the caller).
    pub fn trace(&self) -> &TraceSet {
        &self.trace
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.trace.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The reachability engine actually in use — resolves `Auto` to the
    /// concrete choice [`build`](HbAnalysis::build) made for this trace.
    pub fn reachability(&self) -> ReachabilityMode {
        match self.reach {
            ReachIndex::Matrix(_) => ReachabilityMode::Matrix,
            ReachIndex::Clocks(_) => ReachabilityMode::Clocks,
        }
    }

    /// Resident bytes of the reachability index.
    pub fn reach_bytes(&self) -> usize {
        self.reach.bytes()
    }

    /// `(slot, position)` of record `v` in the clock index — its place in
    /// the HB-ordered chain cover, the identity the online engine's
    /// [`Arrival`](crate::Arrival) carries. `None` under the matrix.
    pub fn slot_of(&self, v: usize) -> Option<(u32, u32)> {
        match &self.reach {
            ReachIndex::Matrix(_) => None,
            ReachIndex::Clocks(c) => Some(c.slot_of(v)),
        }
    }

    /// Whether record `a` happens before record `b` (indices).
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        a != b && self.reach.reaches(a, b)
    }

    /// Whether records `a` and `b` are concurrent: neither ordered way.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.reach.reaches(a, b) && !self.reach.reaches(b, a)
    }

    /// Direct successors of a vertex.
    pub fn successors(&self, v: usize) -> impl Iterator<Item = (usize, EdgeRule)> + '_ {
        self.edges[v].iter().map(|&(t, r)| (t as usize, r))
    }

    /// Direct predecessors of a vertex.
    pub fn predecessors(&self, v: usize) -> Vec<(usize, EdgeRule)> {
        self.preds[v]
            .iter()
            .map(|&(u, r)| (u as usize, r))
            .collect()
    }

    /// A happens-before chain from `a` to `b`, if one exists: the list of
    /// `(vertex, rule-used-to-reach-it)` hops after `a`. Reconstructs the
    /// kind of causality chain the paper's Figure 3 walks through.
    pub fn explain(&self, a: usize, b: usize) -> Option<Vec<(usize, EdgeRule)>> {
        if !self.happens_before(a, b) {
            return None;
        }
        // BFS for a shortest chain.
        let mut prev: BTreeMap<usize, (usize, EdgeRule)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            if u == b {
                break;
            }
            for (t, r) in self.successors(u) {
                if t != a && !prev.contains_key(&t) {
                    prev.insert(t, (u, r));
                    queue.push_back(t);
                }
            }
        }
        let mut chain = Vec::new();
        let mut cur = b;
        while cur != a {
            let &(p, r) = prev.get(&cur)?;
            chain.push((cur, r));
            cur = p;
        }
        chain.reverse();
        Some(chain)
    }

    /// Renders the HB graph in Graphviz DOT form for debugging, with one
    /// cluster per task and edges labelled by rule. Intended for the small
    /// selective traces; `max_vertices` guards against dumping a full
    /// trace by accident.
    pub fn to_dot(&self, max_vertices: usize) -> String {
        use std::fmt::Write as _;
        let n = self.trace.len().min(max_vertices);
        let mut out =
            String::from("digraph hb {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n");
        let mut by_task: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.trace.records().iter().take(n).enumerate() {
            by_task.entry(r.task).or_default().push(i);
        }
        for (task, verts) in &by_task {
            let _ = writeln!(out, "  subgraph \"cluster_{task}\" {{");
            let _ = writeln!(out, "    label=\"{task}\";");
            for &v in verts {
                let r = &self.trace.records()[v];
                let stmt = r
                    .stmt()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "-".to_owned());
                let _ = writeln!(out, "    v{v} [label=\"#{v} {} {stmt}\"];", r.kind.tag());
            }
            let _ = writeln!(out, "  }}");
        }
        for v in 0..n {
            for (t, rule) in self.successors(v) {
                if t < n {
                    let _ = writeln!(out, "  v{v} -> v{t} [label=\"{rule:?}\", fontsize=8];");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Adds extra edges (e.g. inferred `Mpull`/loop-sync causality) and
    /// folds each one into the reachability index incrementally — no
    /// rebuild.
    pub fn add_edges_and_rebuild(&mut self, extra: &[(usize, usize)]) {
        let _span = dcatch_obs::span!("hb.reach.delta");
        for &(u, v) in extra {
            debug_assert!(u < self.trace.len() && v < self.trace.len());
            // HB edges respect execution order, which is index order
            if u != v {
                self.add_edge_incremental(u.min(v), u.max(v));
            }
        }
    }

    // -- construction ------------------------------------------------------

    fn add_edge(&mut self, u: usize, v: usize, rule: EdgeRule) -> bool {
        debug_assert!(u < v, "HB edges must go forward in sequence order");
        if self.edges[u].iter().any(|&(t, _)| t as usize == v) {
            return false;
        }
        self.edges[u].push((v as u32, rule));
        self.preds[v].push((u as u32, rule));
        self.edge_count += 1;
        true
    }

    /// Adds the loop-sync edge `u → v` to a built analysis. `v` is no
    /// longer the newest record, so what it gains is pushed forward through
    /// the successors whose ancestor summaries actually grow; a summary
    /// that already covers the delta stops the walk, and — the index being
    /// transitively closed over the current edges — nothing beyond it can
    /// change either.
    fn add_edge_incremental(&mut self, u: usize, v: usize) {
        if !self.add_edge(u, v, EdgeRule::LoopSync) {
            return;
        }
        counter!("hb_reach_delta_edges_total").inc();
        if !self.reach.join_from(u, v) {
            return;
        }
        let mut work = vec![v];
        while let Some(w) = work.pop() {
            for i in 0..self.edges[w].len() {
                let t = self.edges[w][i].0 as usize;
                if self.reach.join_from(w, t) {
                    work.push(t);
                }
            }
        }
    }

    /// The MTEP rules as one forward pass. Every HB edge points forward in
    /// trace order, so when record `v` arrives all of its sources are
    /// behind it: each is looked up by what `v` is (an index kept per
    /// chain, cause key, thread, node or queue), linked, and its ancestor
    /// summary joined into `v`'s — which is final from then on. That also
    /// decides `Eserial` without a fixed point: its precondition
    /// `Create(e1) ⇒ Create(e2)` asks about the ancestors of a record that
    /// precedes `Begin(e2)`, and by induction over trace order those
    /// already include every `Eserial` edge the fixed point would add
    /// below it. The sources, in the order they are found, are also what
    /// the slot rule asks (`ReachIndex::arrive`) — all but a crash
    /// record's fan-in, of which the online engine keeps one joined clock.
    fn derive_edges(&mut self) {
        let _span = dcatch_obs::span!("hb.reach");
        // the last record so far of each program-order chain
        let mut tails: BTreeMap<(TaskId, ExecCtx), usize> = BTreeMap::new();
        // the last source so far of each keyed rule (`rules::keyed`)
        let mut causes: BTreeMap<CauseKey, usize> = BTreeMap::new();
        let mut thread_ends: BTreeMap<TaskId, usize> = BTreeMap::new();
        let mut restarts: BTreeMap<NodeId, usize> = BTreeMap::new();
        // `Eserial`, per single-consumer queue: the begun events' creates,
        // and `(create, end)` of every event whose handler has ended
        let mut open: BTreeMap<EventId, ((NodeId, String), usize)> = BTreeMap::new();
        let mut ended: BTreeMap<(NodeId, String), Vec<(usize, usize)>> = BTreeMap::new();
        let mut incoming: Vec<(usize, EdgeRule)> = Vec::new();
        for v in 0..self.trace.len() {
            let r = &self.trace.records()[v];
            let chain = (r.task, r.ctx);
            // `Preg` / `Pnreg`
            let tail = tails.insert(chain, v);
            incoming.extend(tail.map(|u| (u, EdgeRule::Program)));
            // `Tfork`, `Eenq`, `Mrpc`, `Msoc`, `Mpush`
            let cause = match rules::keyed(r) {
                Some((key, _, End::Source)) => {
                    causes.insert(key, v);
                    None
                }
                Some((key, rule, End::Target)) if rules::delivers_once(rule) => {
                    causes.remove(&key).map(|u| (u, rule))
                }
                Some((key, rule, End::Target)) => causes.get(&key).map(|&u| (u, rule)),
                None => None,
            };
            incoming.extend(cause);
            // `Crash`: a restart happens before the first record since of
            // every chain on the reborn node. It shares a chain with the
            // crash record, so pre-crash ⇒ crash ⇒ restart ⇒ post-restart,
            // and with the node's next restart, so one edge from the latest
            // restart carries the earlier ones.
            if let Some(&restart) = restarts.get(&r.task.node) {
                if tail.is_none_or(|u| u < restart) {
                    incoming.push((restart, EdgeRule::Crash));
                }
            }
            match r.kind {
                // `Tjoin` (a killed child has no `ThreadEnd`)
                OpKind::ThreadEnd => {
                    thread_ends.insert(r.task, v);
                }
                OpKind::ThreadJoin { child } => {
                    incoming.extend(thread_ends.get(&child).map(|&u| (u, EdgeRule::Join)));
                }
                OpKind::NodeRestart { node } => {
                    restarts.insert(node, v);
                }
                // `Eserial`: `End(e1) ⇒ Begin(e2)` for events of one
                // single-consumer queue whenever `Create(e1) ⇒ Create(e2)`
                OpKind::EventBegin { event } => {
                    if let (Some((create, _)), Some(queue)) = (cause, self.serial_queue(event)) {
                        for &(create1, end1) in ended.get(&queue).into_iter().flatten() {
                            if create1 != create && self.reach.reaches(create1, create) {
                                incoming.push((end1, EdgeRule::Eserial));
                            }
                        }
                        open.insert(event, (queue, create));
                    }
                }
                OpKind::EventEnd { event } => {
                    if let Some((queue, create)) = open.remove(&event) {
                        ended.entry(queue).or_default().push((create, v));
                    }
                }
                // the keyed records above; memory, locks, loop markers and
                // `RpcTimeout` (it happens at the caller): program order only
                _ => {}
            }
            self.reach.arrive(&incoming);
            // `Crash`: everything the node did happens before its crash
            // record, whose own chain program order already covers
            if let OpKind::NodeCrash { node } = r.kind {
                incoming.extend(
                    tails
                        .iter()
                        .filter(|&(k, _)| k.0.node == node && *k != chain)
                        .map(|(_, &u)| (u, EdgeRule::Crash)),
                );
            }
            for (u, rule) in incoming.drain(..) {
                if self.add_edge(u, v, rule) {
                    self.reach.join_from(u, v);
                }
            }
        }
    }

    /// The queue `event` was put on, if its handlers are serialized.
    fn serial_queue(&self, event: EventId) -> Option<(NodeId, String)> {
        let (&node, queue) = self.trace.event_queue(event.0)?;
        self.trace
            .queue_info(node, queue)
            .is_some_and(|q| q.is_single_consumer())
            .then(|| (node, queue.to_owned()))
    }
}

#[cfg(test)]
mod tests;
