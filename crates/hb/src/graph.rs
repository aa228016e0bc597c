//! HB-graph construction and reachability queries (paper §3.2).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dcatch_obs::{counter, gauge};
use dcatch_trace::{EventId, ExecCtx, OpKind, TaskId, TraceSet};

use crate::bitmatrix::BitMatrix;
use crate::chainclocks::ChainClocks;

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
    /// program-order chain), chain-decomposition [`ChainClocks`] on long
    /// traces of few threads — the unselective traces where the matrix
    /// alone is the Table 8 "Out of Memory" outcome.
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
    /// Whether to apply `Eserial` (it requires a fixed point and is the
    /// only rule with non-local preconditions; kept togglable for tests).
    pub apply_eserial: bool,
    /// Which reachability engine to use (see [`ReachabilityMode`]).
    pub reachability: ReachabilityMode,
}

impl Default for HbConfig {
    fn default() -> HbConfig {
        HbConfig {
            memory_budget_bytes: 1 << 30, // 1 GiB
            apply_eserial: true,
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

/// The active reachability index: dense reachable-set matrix or
/// chain-decomposition vector clocks (see [`ReachabilityMode`]). Both are
/// exact; they trade query constant factor against memory footprint.
#[derive(Debug, Clone, PartialEq)]
enum ReachIndex {
    Matrix(BitMatrix),
    Clocks(ChainClocks),
}

impl ReachIndex {
    /// Number of indexed vertices.
    fn len(&self) -> usize {
        match self {
            ReachIndex::Matrix(m) => m.len(),
            ReachIndex::Clocks(c) => c.len(),
        }
    }

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
            ReachIndex::Matrix(m) => m.get(a, b),
            ReachIndex::Clocks(c) => c.reaches(a, b),
        }
    }
}

/// The built HB graph plus its reachability index. Vertices are the trace
/// record indices (`0..trace.len()`), in sequence order.
pub struct HbAnalysis {
    trace: TraceSet,
    edges: Vec<Vec<(u32, EdgeRule)>>,
    /// Reverse adjacency, kept in lockstep with `edges`: used by the
    /// incremental reachability propagation and by `predecessors`.
    preds: Vec<Vec<(u32, EdgeRule)>>,
    reach: ReachIndex,
    edge_count: usize,
}

impl HbAnalysis {
    /// Builds the HB graph of `trace` and computes reachable sets.
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
        let mut a = HbAnalysis {
            trace,
            edges: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            reach: match mode {
                ReachabilityMode::Clocks => ReachIndex::Clocks(ChainClocks::new(&TraceSet::new())),
                _ => ReachIndex::Matrix(BitMatrix::new(0)),
            },
            edge_count: 0,
        };
        a.add_program_order_edges();
        a.add_thread_edges();
        a.add_event_enqueue_edges();
        a.add_rpc_edges();
        a.add_socket_edges();
        a.add_push_edges();
        a.add_crash_edges();
        a.recompute_reach();
        if config.apply_eserial {
            a.apply_eserial_fixed_point();
        }
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
    /// full matrix rebuild.
    pub fn add_edges_and_rebuild(&mut self, extra: &[(usize, usize)]) {
        let _span = dcatch_obs::span!("hb.reach.delta");
        for &(u, v) in extra {
            debug_assert!(u < self.trace.len() && v < self.trace.len());
            // HB edges must respect execution order for the sweep to work.
            let (u, v) = if self.trace.records()[u].seq <= self.trace.records()[v].seq {
                (u, v)
            } else {
                (v, u)
            };
            if u != v {
                self.add_edge_incremental(u, v, EdgeRule::LoopSync);
            }
        }
    }

    // -- construction ------------------------------------------------------

    fn add_edge(&mut self, u: usize, v: usize, rule: EdgeRule) -> bool {
        debug_assert!(
            self.trace.records()[u].seq <= self.trace.records()[v].seq,
            "HB edges must go forward in sequence order"
        );
        if self.edges[u].iter().any(|&(t, _)| t as usize == v) {
            return false;
        }
        self.edges[u].push((v as u32, rule));
        self.preds[v].push((u as u32, rule));
        self.edge_count += 1;
        true
    }

    /// Adds `u → v` to an analysis whose reachability index is already
    /// computed, and repairs the index by delta propagation instead of a
    /// full sweep. The two engines are mirror images of each other:
    ///
    /// * **Matrix** rows are *forward*-reachable sets, so row `u` absorbs
    ///   `{v} ∪ reach[v]` and the growth is pushed *backward* through
    ///   predecessors whose rows actually change.
    /// * **Clocks** are *predecessor*-closure frontiers, so `v` joins
    ///   `u`'s clock and the growth is pushed *forward* through
    ///   successors whose clocks actually advance.
    ///
    /// Correctness rests on the invariant that the index is transitively
    /// closed with respect to the current edge set: a neighbor that
    /// already covers the grown vertex's delta stops propagation, and
    /// nothing beyond it can change either.
    fn add_edge_incremental(&mut self, u: usize, v: usize, rule: EdgeRule) -> bool {
        debug_assert_eq!(self.reach.len(), self.trace.len(), "reach not built yet");
        if !self.add_edge(u, v, rule) {
            return false;
        }
        counter!("hb_reach_delta_edges_total").inc();
        match &mut self.reach {
            ReachIndex::Matrix(reach) => {
                let mut changed = !reach.get(u, v);
                reach.set(u, v);
                changed |= reach.or_row_into_changed(v, u);
                if !changed {
                    return true;
                }
                let mut work = vec![u];
                while let Some(w) = work.pop() {
                    for i in 0..self.preds[w].len() {
                        let p = self.preds[w][i].0 as usize;
                        if reach.or_row_into_changed(w, p) {
                            work.push(p);
                        }
                    }
                }
            }
            ReachIndex::Clocks(clocks) => {
                if !clocks.join_from(u, v) {
                    return true;
                }
                let mut work = vec![v];
                while let Some(w) = work.pop() {
                    for i in 0..self.edges[w].len() {
                        let t = self.edges[w][i].0 as usize;
                        if clocks.join_from(w, t) {
                            work.push(t);
                        }
                    }
                }
            }
        }
        true
    }

    /// Folds a batch of freshly inserted edges (already present in
    /// `edges`/`preds`, not yet in `reach`) into the reachability index
    /// with one partial reverse sweep. Only rows that gained an out-edge
    /// or whose successor's row changed are re-unioned, so the cost is
    /// proportional to the affected region rather than the whole graph —
    /// and unlike per-edge propagation, each affected row absorbs the
    /// whole batch's delta once instead of once per edge.
    fn integrate_edges(&mut self, new_edges: &[(usize, usize)]) {
        if new_edges.is_empty() {
            return;
        }
        counter!("hb_reach_delta_edges_total").add(new_edges.len() as u64);
        match &mut self.reach {
            // Matrix rows summarize successors, so the partial sweep runs
            // backward from the highest new source: a row re-unions if it
            // gained an out-edge or a successor's row changed.
            ReachIndex::Matrix(reach) => {
                let mut by_src: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                let mut hi = 0usize;
                for &(u, v) in new_edges {
                    by_src.entry(u).or_default().push(v);
                    hi = hi.max(u);
                }
                let mut changed = vec![false; hi + 1];
                for i in (0..=hi).rev() {
                    let mut grew = false;
                    if let Some(vs) = by_src.get(&i) {
                        for &v in vs {
                            if !reach.get(i, v) {
                                reach.set(i, v);
                                grew = true;
                            }
                            grew |= reach.or_row_into_changed(v, i);
                        }
                    }
                    for k in 0..self.edges[i].len() {
                        let t = self.edges[i][k].0 as usize;
                        if t <= hi && changed[t] {
                            grew |= reach.or_row_into_changed(t, i);
                        }
                    }
                    changed[i] = grew;
                }
            }
            // Clocks summarize predecessors, so the sweep is the mirror
            // image: forward from the lowest new destination, a vertex
            // re-joins if it gained an in-edge or a predecessor's clock
            // advanced. Every edge points forward in index order, so each
            // predecessor is final before its successors are visited.
            ReachIndex::Clocks(clocks) => {
                let n = self.trace.len();
                let mut by_dst: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                let mut lo = n;
                for &(u, v) in new_edges {
                    by_dst.entry(v).or_default().push(u);
                    lo = lo.min(v);
                }
                let mut changed = vec![false; n];
                for i in lo..n {
                    let mut grew = false;
                    if let Some(us) = by_dst.get(&i) {
                        for &u in us {
                            grew |= clocks.join_from(u, i);
                        }
                    }
                    for k in 0..self.preds[i].len() {
                        let p = self.preds[i][k].0 as usize;
                        if p >= lo && changed[p] {
                            grew |= clocks.join_from(p, i);
                        }
                    }
                    changed[i] = grew;
                }
            }
        }
    }

    /// `Preg` / `Pnreg`: chain consecutive records of the same
    /// program-order group (task + context instance).
    fn add_program_order_edges(&mut self) {
        let mut last: BTreeMap<(TaskId, ExecCtx), usize> = BTreeMap::new();
        let n = self.trace.len();
        for i in 0..n {
            let r = &self.trace.records()[i];
            let key = (r.task, r.ctx);
            if let Some(&p) = last.get(&key) {
                self.add_edge(p, i, EdgeRule::Program);
            }
            last.insert(key, i);
        }
    }

    /// `Tfork` / `Tjoin`.
    fn add_thread_edges(&mut self) {
        // first ThreadBegin and ThreadEnd per task
        let mut begin: BTreeMap<TaskId, usize> = BTreeMap::new();
        let mut end: BTreeMap<TaskId, usize> = BTreeMap::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            match r.kind {
                OpKind::ThreadBegin => {
                    begin.entry(r.task).or_insert(i);
                }
                OpKind::ThreadEnd => {
                    end.insert(r.task, i);
                }
                _ => {}
            }
        }
        let mut fork_edges = Vec::new();
        let mut join_edges = Vec::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            match &r.kind {
                OpKind::ThreadCreate { child } => {
                    if let Some(&b) = begin.get(child) {
                        fork_edges.push((i, b));
                    }
                }
                OpKind::ThreadJoin { child } => {
                    if let Some(&e) = end.get(child) {
                        join_edges.push((e, i));
                    }
                }
                _ => {}
            }
        }
        for (u, v) in fork_edges {
            self.add_edge(u, v, EdgeRule::Fork);
        }
        for (u, v) in join_edges {
            self.add_edge(u, v, EdgeRule::Join);
        }
    }

    /// `Eenq`.
    fn add_event_enqueue_edges(&mut self) {
        let mut create: BTreeMap<EventId, usize> = BTreeMap::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            if let OpKind::EventCreate { event } = r.kind {
                create.insert(event, i);
            }
        }
        let mut edges = Vec::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            if let OpKind::EventBegin { event } = r.kind {
                if let Some(&c) = create.get(&event) {
                    edges.push((c, i));
                }
            }
        }
        for (u, v) in edges {
            self.add_edge(u, v, EdgeRule::Eenq);
        }
    }

    /// `Mrpc`.
    fn add_rpc_edges(&mut self) {
        let mut create = BTreeMap::new();
        let mut end = BTreeMap::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            match r.kind {
                OpKind::RpcCreate { rpc } => {
                    create.insert(rpc, i);
                }
                OpKind::RpcEnd { rpc } => {
                    end.insert(rpc, i);
                }
                _ => {}
            }
        }
        let mut edges = Vec::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            match r.kind {
                OpKind::RpcBegin { rpc } => {
                    if let Some(&c) = create.get(&rpc) {
                        edges.push((c, i, EdgeRule::Mrpc));
                    }
                }
                OpKind::RpcJoin { rpc } => {
                    if let Some(&e) = end.get(&rpc) {
                        edges.push((e, i, EdgeRule::Mrpc));
                    }
                }
                _ => {}
            }
        }
        for (u, v, r) in edges {
            self.add_edge(u, v, r);
        }
    }

    /// `Msoc`.
    fn add_socket_edges(&mut self) {
        let mut send = BTreeMap::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            if let OpKind::SocketSend { msg } = r.kind {
                send.insert(msg, i);
            }
        }
        let mut edges = Vec::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            if let OpKind::SocketRecv { msg } = r.kind {
                if let Some(&s) = send.get(&msg) {
                    edges.push((s, i));
                }
            }
        }
        for (u, v) in edges {
            self.add_edge(u, v, EdgeRule::Msoc);
        }
    }

    /// `Mpush`: pair updates with pushed notifications by (path, version).
    fn add_push_edges(&mut self) {
        let mut update: BTreeMap<(String, u64), usize> = BTreeMap::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            if let OpKind::ZkUpdate { path, version } = &r.kind {
                update.insert((path.clone(), *version), i);
            }
        }
        let mut edges = Vec::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            if let OpKind::ZkPushed { path, version } = &r.kind {
                if let Some(&u) = update.get(&(path.clone(), *version)) {
                    edges.push((u, i));
                }
            }
        }
        for (u, v) in edges {
            self.add_edge(u, v, EdgeRule::Mpush);
        }
    }

    /// Fault-injection crash/restart ordering. A `NodeCrash` record is
    /// ordered after the last record of every program-order group on the
    /// crashed node; a `NodeRestart` record is ordered before the first
    /// record of every group the reborn node produces. (`RpcTimeout`
    /// records need no extra rule: the timeout happens at the caller, so
    /// plain program order covers it.) The crash record shares a
    /// program-order group with the restart record, which chains
    /// pre-crash ⇒ crash ⇒ restart ⇒ post-restart.
    fn add_crash_edges(&mut self) {
        let n = self.trace.len();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            let r = &self.trace.records()[i];
            match r.kind {
                OpKind::NodeCrash { node } => {
                    let mut last: BTreeMap<(TaskId, ExecCtx), usize> = BTreeMap::new();
                    for (j, c) in self.trace.records().iter().enumerate().take(i) {
                        if c.task.node == node {
                            last.insert((c.task, c.ctx), j);
                        }
                    }
                    let own = (r.task, r.ctx);
                    for (key, &j) in &last {
                        // the crash record's own group is already chained
                        // by program order
                        if *key != own {
                            edges.push((j, i));
                        }
                    }
                }
                OpKind::NodeRestart { node } => {
                    let mut seen: BTreeSet<(TaskId, ExecCtx)> = BTreeSet::new();
                    let own = (r.task, r.ctx);
                    for j in i + 1..n {
                        let c = &self.trace.records()[j];
                        if c.task.node == node {
                            let key = (c.task, c.ctx);
                            if key != own && seen.insert(key) {
                                edges.push((i, j));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for (u, v) in edges {
            self.add_edge(u, v, EdgeRule::Crash);
        }
    }

    /// `Eserial`, applied last and repeated to a fixed point (§3.2.1):
    /// for events of the same single-consumer queue, `End(e1) ⇒ Begin(e2)`
    /// whenever `Create(e1) ⇒ Create(e2)`.
    fn apply_eserial_fixed_point(&mut self) {
        #[derive(Debug)]
        struct Ev {
            create: usize,
            begin: usize,
            end: Option<usize>,
        }
        // events grouped by single-consumer queue
        let mut by_queue: BTreeMap<(u32, String), BTreeMap<EventId, Ev>> = BTreeMap::new();
        for (i, r) in self.trace.records().iter().enumerate() {
            let event = match r.kind {
                OpKind::EventCreate { event }
                | OpKind::EventBegin { event }
                | OpKind::EventEnd { event } => event,
                _ => continue,
            };
            let Some((node, queue)) = self.trace.event_queue(event.0) else {
                continue;
            };
            let single = self
                .trace
                .queue_info(*node, queue)
                .is_some_and(|q| q.is_single_consumer());
            if !single {
                continue;
            }
            let key = (node.0, queue.to_owned());
            let slot = by_queue.entry(key).or_default();
            match r.kind {
                OpKind::EventCreate { .. } => {
                    slot.entry(event).or_insert(Ev {
                        create: i,
                        begin: usize::MAX,
                        end: None,
                    });
                }
                OpKind::EventBegin { .. } => {
                    if let Some(ev) = slot.get_mut(&event) {
                        ev.begin = i;
                    }
                }
                OpKind::EventEnd { .. } => {
                    if let Some(ev) = slot.get_mut(&event) {
                        ev.end = Some(i);
                    }
                }
                _ => {}
            }
        }
        // Queues are scanned repeatedly; each pass's newly discovered
        // edges (across every queue) are folded into the reachability
        // index in one batched partial sweep (`integrate_edges`) before
        // the next pass — where the full-recompute version paid a
        // complete O(n²/64) sweep per dependency layer. One batch per
        // pass, not per queue, keeps the sweep count independent of how
        // many queues the trace has. `done` bitsets remember which pairs
        // already produced an edge so rescans cost O(1) per pair.
        let queues: Vec<Vec<&Ev>> = by_queue
            .values()
            .map(|events| {
                events
                    .values()
                    .filter(|e| e.begin != usize::MAX && e.end.is_some())
                    .collect()
            })
            .collect();
        let mut done: Vec<Vec<u64>> = queues
            .iter()
            .map(|evs| vec![0u64; (evs.len() * evs.len()).div_ceil(64)])
            .collect();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        loop {
            counter!("hb_eserial_iterations_total").inc();
            pending.clear();
            for (evs, done) in queues.iter().zip(done.iter_mut()) {
                let m = evs.len();
                for (i1, e1) in evs.iter().enumerate() {
                    let end1 = e1.end.expect("filtered");
                    for (i2, e2) in evs.iter().enumerate() {
                        if end1 >= e2.begin {
                            continue; // edges must go forward in seq order
                        }
                        let bit = i1 * m + i2;
                        if done[bit / 64] & (1u64 << (bit % 64)) != 0 {
                            continue;
                        }
                        let c1c2 =
                            e1.create != e2.create && self.reach.reaches(e1.create, e2.create);
                        if c1c2 {
                            if self.add_edge(end1, e2.begin, EdgeRule::Eserial) {
                                pending.push((end1, e2.begin));
                            }
                            done[bit / 64] |= 1u64 << (bit % 64);
                        }
                    }
                }
            }
            if pending.is_empty() {
                break;
            }
            self.integrate_edges(&pending);
        }
    }

    /// Full sweep, run exactly once per build. Every edge goes from a
    /// smaller to a larger index, so a single pass in the right direction
    /// suffices: decreasing order for the matrix (each reachable set is
    /// the union of its successors' sets plus the successors themselves),
    /// increasing order for the clocks (each clock is the join of its
    /// predecessors' clocks plus its own chain tick). All later edge
    /// insertions go through `add_edge_incremental`/`integrate_edges`.
    fn recompute_reach(&mut self) {
        let _span = dcatch_obs::span!("hb.reach");
        counter!("hb_reach_recomputes_total").inc();
        let n = self.trace.len();
        match self.reach {
            ReachIndex::Matrix(_) => {
                // drop the previous matrix first: holding both would double
                // peak memory and defeat the budget check in `build`
                self.reach = ReachIndex::Matrix(BitMatrix::new(0));
                let mut reach = BitMatrix::new(n);
                for i in (0..n).rev() {
                    // collect first to avoid holding a borrow on edges
                    let succs: Vec<usize> =
                        self.edges[i].iter().map(|&(t, _)| t as usize).collect();
                    for s in succs {
                        reach.set(i, s);
                        reach.or_row_into(s, i);
                    }
                }
                self.reach = ReachIndex::Matrix(reach);
            }
            ReachIndex::Clocks(_) => {
                self.reach = ReachIndex::Clocks(ChainClocks::new(&TraceSet::new()));
                let mut clocks = ChainClocks::new(&self.trace);
                for v in 0..n {
                    for k in 0..self.preds[v].len() {
                        let p = self.preds[v][k].0 as usize;
                        clocks.join_from(p, v);
                    }
                }
                self.reach = ReachIndex::Clocks(clocks);
            }
        }
    }
}

#[cfg(test)]
mod tests;
