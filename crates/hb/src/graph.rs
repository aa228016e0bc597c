//! The materialized HB graph and its reachability queries (paper §3.2).
//!
//! No rule of the model lives here: [`HbAnalysis::build`] drives the one
//! pass that applies them, a [`FrontierEngine`], over the trace and keeps
//! what it reports — edges for `explain` and trigger placement, rows for
//! `happens_before` — in one of two indexes.

use std::collections::BTreeMap;
use std::fmt;

use dcatch_obs::{counter, gauge};
use dcatch_trace::TraceSet;

use crate::bitmatrix::BitMatrix;
use crate::chainclocks::ChainClocks;
use crate::streaming::{FrontierEngine, FrontierOptions};

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
    /// Pick per trace whichever index is *smaller*, by measurement:
    /// [`HbAnalysis::build`] keeps [`ChainClocks`] rows for as long as they
    /// are smaller than the dense [`BitMatrix`] of the trace (exact from
    /// its length) and ends with the matrix once they are not — the rows
    /// on long traces of few happens-before chains, the unselective and
    /// handler-heavy traces where the matrix alone is the Table 8 "Out of
    /// Memory" outcome; the matrix on short or wide ones.
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
    /// Budget for the reachability index, in bytes, checked against what
    /// the index holds: the matrix's exact size, or the clock rows as they
    /// are stored. The paper's trace analysis "will run out of JVM memory
    /// (50 GB of RAM)" on unselective traces (Table 8); this reproduces
    /// that failure mode at laptop scale.
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

/// Failure of the HB analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HbError {
    /// The reachability index does not fit the configured budget — the
    /// Table 8 "Out of Memory" outcome.
    OutOfMemory {
        /// The first size that did not fit: the matrix's, or the clock
        /// rows' counting the first row that was not stored.
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
/// `v` — of the one pass [`HbAnalysis::build`] drives: a matrix row is the
/// OR of the rows of the predecessors the engine lists, a clock row the
/// joins the engine performed. They trade query constant factor against
/// memory footprint.
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

/// The graph's edges, listed from their sources.
struct Edges {
    succs: Vec<Vec<(u32, EdgeRule)>>,
    count: usize,
}

impl Edges {
    /// Links `u ⇒ v` unless it is linked already; whether it did.
    fn add(&mut self, u: usize, v: usize, rule: EdgeRule) -> bool {
        debug_assert!(u < v, "HB edges must go forward in sequence order");
        if self.succs[u].iter().any(|&(t, _)| t as usize == v) {
            return false;
        }
        self.succs[u].push((v as u32, rule));
        self.count += 1;
        true
    }
}

/// The built HB graph plus its reachability index. Vertices are the trace
/// record indices (`0..trace.len()`), in sequence order.
pub struct HbAnalysis {
    trace: TraceSet,
    edges: Edges,
    /// `(slot, pos)` of each vertex: its place in the HB-ordered chain
    /// cover, as the engine placed it.
    at: Vec<(u32, u32)>,
    /// Per vertex, the vertex that began its context ([`Self::cause`]),
    /// `u32::MAX` for none.
    causes: Vec<u32>,
    reach: ReachIndex,
}

impl HbAnalysis {
    /// Builds the HB graph of `trace` and its reachability index: one
    /// [`FrontierEngine`] — nothing retires, no chain is ever done — is
    /// fed the materialized trace as the simulator would have streamed it,
    /// and every rule of the model is the engine's. What the builder adds
    /// is memory: the engine names a record by `(slot, pos)`, `members`
    /// turns that back into its index, each predecessor the engine lists
    /// becomes an edge (in the order listed, so a duplicate keeps its first
    /// label), and the record's final clock — padded to the slots open on
    /// arrival — is its row of the clock index.
    ///
    /// Which index comes out is decided here and nowhere else, from what
    /// the pass measures: the matrix's size is exact from the trace
    /// length, the rows' is what has been stored. `Clocks` stores rows
    /// while they fit the budget; `Auto` while they also stay smaller than
    /// the matrix (the matrix on a tie) and drops them at the first row
    /// that would not, the pass going on to list edges. A row that does
    /// not fit is never stored, so no build holds more than the budget —
    /// under `Auto` no more than the smaller of budget and matrix. The
    /// matrix, forced or chosen, is made after the pass from the edges.
    pub fn build(trace: TraceSet, config: &HbConfig) -> Result<HbAnalysis, HbError> {
        let _span = dcatch_obs::span!("hb.build");
        let n = trace.len();
        let (mode, budget) = (config.reachability, config.memory_budget_bytes);
        let matrix_bytes = BitMatrix::estimated_bytes(n);
        let oom = |needed| {
            counter!("hb_oom_total").inc();
            Err(HbError::OutOfMemory { needed, budget })
        };
        if mode == ReachabilityMode::Matrix && matrix_bytes > budget {
            return oom(matrix_bytes);
        }
        // adjacency lists before the index: allocated the other way round,
        // `dcbench full_trace` read a peak RSS anywhere from 6 % below to
        // 5 % above this order's (EXPERIMENTS.md "PR 19")
        let mut edges = Edges {
            succs: vec![Vec::new(); n],
            count: 0,
        };
        let mut at: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut causes = Vec::with_capacity(n);
        let mut rows = (mode != ReachabilityMode::Matrix).then(|| ChainClocks::with_capacity(n));
        let clocks_only = mode == ReachabilityMode::Clocks;
        let _pass = dcatch_obs::span!("hb.reach");
        let mut engine = FrontierEngine::new(FrontierOptions {
            eserial: true,
            allow_retirement: false,
        });
        for control in trace.controls() {
            engine.control(&control);
        }
        // the records of each slot, by position
        let mut members: Vec<Vec<u32>> = Vec::new();
        for (v, record) in trace.records().iter().enumerate() {
            // each context is tagged by the vertex that began it
            let arrival = engine.record_with(record, trace.names(), |_| v as u32);
            if arrival.slot as usize == members.len() {
                members.push(Vec::new());
            }
            members[arrival.slot as usize].push(v as u32);
            at.push((arrival.slot, arrival.pos));
            causes.push(arrival.cause);
            if let Some(c) = &mut rows {
                let needed = c.bytes() + engine.chains() * 4;
                if needed <= budget && (clocks_only || needed < matrix_bytes) {
                    c.push_row(engine.clock(arrival.chain), engine.chains());
                    debug_assert_eq!(c.bytes(), needed, "stored more than was checked");
                } else if clocks_only || matrix_bytes > budget {
                    return oom(needed);
                } else {
                    rows = None;
                }
            }
            for &((slot, pos), rule) in engine.preds() {
                let u = members[slot as usize][pos as usize - 1] as usize;
                edges.add(u, v, rule);
                debug_assert!(
                    rows.as_ref().is_none_or(|c| c.covers(v, at[u])),
                    "{u} ⇒ {v} ({rule:?}) listed, not joined"
                );
            }
        }
        let reach = match rows {
            Some(c) => ReachIndex::Clocks(c),
            None => {
                // every edge points forward: in index order a row is final
                // by the time it is folded into its successors
                let mut m = ReachIndex::Matrix(BitMatrix::new(n));
                for (u, succs) in edges.succs.iter().enumerate() {
                    for &(v, _) in succs {
                        m.join_from(u, v as usize);
                    }
                }
                m
            }
        };
        gauge!("hb_reach_bytes_peak").set_max(reach.bytes() as u64);
        counter!("hb_nodes_total").add(n as u64);
        counter!("hb_edges_total").add(edges.count as u64);
        Ok(HbAnalysis {
            trace,
            edges,
            at,
            causes,
            reach,
        })
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
        self.edges.count
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

    /// `(slot, position)` of record `v` — its place in the HB-ordered
    /// chain cover, the identity the engine's [`Arrival`](crate::Arrival)
    /// carries — under either index.
    pub fn slot_of(&self, v: usize) -> (u32, u32) {
        self.at[v]
    }

    /// Raw reachability; callers guard `a != b` (the matrix's diagonal is
    /// unset while clocks are reflexive, so `a == b` is the one input the
    /// indexes answer differently).
    fn reaches(&self, a: usize, b: usize) -> bool {
        match &self.reach {
            ReachIndex::Matrix(m) => m.get(b, a),
            ReachIndex::Clocks(c) => c.covers(b, self.at[a]),
        }
    }

    /// Whether record `a` happens before record `b` (indices).
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        a != b && self.reaches(a, b)
    }

    /// Whether records `a` and `b` are concurrent: neither ordered way.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.reaches(a, b) && !self.reaches(b, a)
    }

    /// The vertex that began `v`'s context: the keyed source its first
    /// record took, or an entry task's own begin
    /// ([`FrontierEngine::record_with`]).
    pub fn cause(&self, v: usize) -> Option<usize> {
        let c = self.causes[v];
        (c != u32::MAX).then_some(c as usize)
    }

    /// Direct successors of a vertex.
    pub fn successors(&self, v: usize) -> impl Iterator<Item = (usize, EdgeRule)> + '_ {
        self.edges.succs[v].iter().map(|&(t, r)| (t as usize, r))
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

    /// Adds the loop-sync edge `u → v` to a built analysis. `v` is no
    /// longer the newest record, so what it gains is pushed forward through
    /// the successors whose ancestor summaries actually grow; a summary
    /// that already covers the delta stops the walk, and — the index being
    /// transitively closed over the current edges — nothing beyond it can
    /// change either.
    fn add_edge_incremental(&mut self, u: usize, v: usize) {
        if !self.edges.add(u, v, EdgeRule::LoopSync) {
            return;
        }
        counter!("hb_reach_delta_edges_total").inc();
        if !self.reach.join_from(u, v) {
            return;
        }
        let mut work = vec![v];
        while let Some(w) = work.pop() {
            for i in 0..self.edges.succs[w].len() {
                let t = self.edges.succs[w][i].0 as usize;
                if self.reach.join_from(w, t) {
                    work.push(t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
