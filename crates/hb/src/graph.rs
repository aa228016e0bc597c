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
    /// the index holds: the matrix's exact size, or every byte of the
    /// clock index as it is stored. The paper's trace analysis "will run
    /// out of JVM memory (50 GB of RAM)" on unselective traces (Table 8);
    /// this reproduces that failure mode at laptop scale.
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
        /// index's counting the first record's entry that was not stored.
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
}

/// The pass's edges, listed from their sources in one flat array: the
/// edges out of `u` are `targets[starts[u]..starts[u + 1]]`, in the order
/// the pass listed them.
struct Edges {
    starts: Vec<u32>,
    targets: Vec<(u32, EdgeRule)>,
}

impl Edges {
    /// Lays out the `(source, target, rule)` edges of an `n`-vertex graph
    /// by source, keeping the order of `listed` within each source.
    fn from_listed(n: usize, listed: &[(u32, u32, EdgeRule)]) -> Edges {
        let count = listed.len();
        assert!(count <= u32::MAX as usize, "offsets are u32: {count} edges");
        // out-degrees, then each source's first slot, which the fill
        // advances to the next source's first: shifted back after
        let mut starts = vec![0u32; n + 1];
        for &(u, ..) in listed {
            starts[u as usize + 1] += 1;
        }
        for u in 0..n {
            starts[u + 1] += starts[u];
        }
        let mut targets = vec![(0, EdgeRule::Program); count];
        for &(u, v, rule) in listed {
            let next = &mut starts[u as usize];
            targets[*next as usize] = (v, rule);
            *next += 1;
        }
        starts.copy_within(0..n, 1);
        starts[0] = 0;
        Edges { starts, targets }
    }

    /// The pass's edges out of `u`.
    fn out(&self, u: usize) -> impl Iterator<Item = (usize, EdgeRule)> + '_ {
        let listed = &self.targets[self.starts[u] as usize..self.starts[u + 1] as usize];
        listed.iter().map(|&(t, r)| (t as usize, r))
    }
}

/// The edges added after the pass (loop-sync), kept beside the index,
/// which they never change. Edge `i` *leads to* edge `j` when `j`'s source
/// is its target or is ordered after it — by the index or through other
/// added edges; `leads` is that relation's reflexive closure, recomputed
/// on each add: the edges are few (one per loop-sync benchmark).
#[derive(Debug, Default)]
struct Overlay {
    /// `(u, v)`, `u < v`, in the order added, each once.
    edges: Vec<(u32, u32)>,
    /// Whether edge `i` leads to edge `j`: `leads[i * k + j]` for `k`
    /// edges.
    leads: Vec<bool>,
}

impl Overlay {
    /// The closure of the edges' `leads` relation, `le(x, y)` being
    /// whether `x` is `y` or the index orders `x` before `y`.
    fn closure(&self, le: impl Fn(usize, usize) -> bool) -> Vec<bool> {
        let k = self.edges.len();
        let mut leads = vec![false; k * k];
        for (i, &(_, v)) in self.edges.iter().enumerate() {
            for (j, &(u, _)) in self.edges.iter().enumerate() {
                leads[i * k + j] = i == j || le(v as usize, u as usize);
            }
        }
        for m in 0..k {
            for i in 0..k {
                if leads[i * k + m] {
                    for j in 0..k {
                        leads[i * k + j] |= leads[m * k + j];
                    }
                }
            }
        }
        // every edge points forward, so an edge only leads to later ones
        debug_assert!(self.edges.iter().all(|&(u, v)| u < v), "a backward edge");
        debug_assert!(
            (0..k * k).all(|ij| {
                let (i, j) = (ij / k, ij % k);
                !leads[ij] || i == j || self.edges[i].1 <= self.edges[j].0
            }),
            "an edge leads to one that starts before it ends"
        );
        leads
    }

    /// Whether a path through at least one added edge joins `a` to `b`:
    /// some edge whose source `a` is or is ordered before leads to one
    /// whose target is or is ordered before `b`, `le` as for
    /// [`closure`](Overlay::closure) — at most two index queries per edge.
    /// Kept out of line: it runs only where the index says no and the
    /// overlay is not empty, and inlined it would weigh on every query.
    #[inline(never)]
    fn joins(&self, a: usize, b: usize, le: impl Fn(usize, usize) -> bool) -> bool {
        let k = self.edges.len();
        let from: Vec<usize> = (0..k)
            .filter(|&i| le(a, self.edges[i].0 as usize))
            .collect();
        !from.is_empty()
            && self.edges.iter().enumerate().any(|(j, &(_, v))| {
                from.iter().any(|&i| self.leads[i * k + j]) && le(v as usize, b)
            })
    }

    /// The added edges out of `u`, in the order added.
    fn out(&self, u: usize) -> impl Iterator<Item = (usize, EdgeRule)> + '_ {
        self.edges
            .iter()
            .filter(move |&&(s, _)| s as usize == u)
            .map(|&(_, t)| (t as usize, EdgeRule::LoopSync))
    }
}

/// The built HB graph plus its reachability index. Vertices are the trace
/// record indices (`0..trace.len()`), in sequence order.
pub struct HbAnalysis {
    trace: TraceSet,
    edges: Edges,
    /// Edges added after the build, which leaves `reach` as it is.
    late: Overlay,
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
    /// label; laid out by source in one array after the pass), and the
    /// record's final clock is its entry in the clock index — a row padded
    /// to the slots open on arrival, or, for a record ordered after nothing
    /// but the tail of the slot it extends, a share of that tail's row.
    ///
    /// Which index comes out is decided here and nowhere else, from what
    /// the pass measures: the matrix's size is exact from the trace
    /// length, the clock index's is every byte it holds
    /// ([`ChainClocks::bytes`]: row ids, row table and rows). `Clocks`
    /// stores a record's entry while the index still fits the budget with
    /// it; `Auto` while it also stays smaller than the matrix (the matrix
    /// on a tie) and drops the index at the first entry that would not,
    /// the pass going on to list edges. An entry that does not fit is
    /// never stored, so no build holds an index larger than the budget —
    /// under `Auto` none larger than the smaller of budget and matrix. The
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
        // `(source, target, rule)` in the order listed, laid out by source
        // after the pass
        let mut listed: Vec<(u32, u32, EdgeRule)> = Vec::with_capacity(n);
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
            let preds = engine.preds();
            if let Some(c) = &mut rows {
                // ordered after the tail it extends and nothing else: its
                // clock is that tail's but for its own slot
                let tail = match preds {
                    [((s, p), EdgeRule::Program)] if (*s, p + 1) == (arrival.slot, arrival.pos) => {
                        Some(members[*s as usize][*p as usize - 1] as usize)
                    }
                    _ => None,
                };
                let needed = c.bytes()
                    + tail.map_or(ChainClocks::row_bytes(engine.chains()), |_| {
                        ChainClocks::SHARED_ROW_BYTES
                    });
                if needed <= budget && (clocks_only || needed < matrix_bytes) {
                    let clock = engine.clock(arrival.chain);
                    match tail {
                        Some(u) => c.share_row(u),
                        None => c.push_row(clock, engine.chains()),
                    }
                    debug_assert_eq!(c.bytes(), needed, "stored more than was checked");
                    debug_assert!(
                        (0..engine.chains() as u32).all(|s| {
                            c.entry(v, at[v], s) == clock.get(s as usize).copied().unwrap_or(0)
                        }),
                        "{v}: stored clock is not the engine's"
                    );
                } else if clocks_only || matrix_bytes > budget {
                    return oom(needed);
                } else {
                    rows = None;
                }
            }
            // a duplicate predecessor keeps its first label
            let first = listed.len();
            for &((slot, pos), rule) in preds {
                let u = members[slot as usize][pos as usize - 1];
                if !listed[first..].iter().any(|&(s, ..)| s == u) {
                    listed.push((u, v as u32, rule));
                }
                debug_assert!(
                    rows.as_ref()
                        .is_none_or(|c| c.covers(v, at[v], at[u as usize])),
                    "{u} ⇒ {v} ({rule:?}) listed, not joined"
                );
            }
        }
        let edges = Edges::from_listed(n, &listed);
        // freed before a matrix is allocated
        drop(listed);
        let reach = match rows {
            Some(c) => ReachIndex::Clocks(c),
            None => {
                // every edge points forward: in index order a row is final
                // by the time it is folded into its successors
                let mut m = BitMatrix::new(n);
                for u in 0..n {
                    for (v, _) in edges.out(u) {
                        m.set(v, u);
                        m.or_row_into(u, v);
                    }
                }
                ReachIndex::Matrix(m)
            }
        };
        gauge!("hb_reach_bytes_peak").set_max(reach.bytes() as u64);
        counter!("hb_nodes_total").add(n as u64);
        counter!("hb_edges_total").add(edges.targets.len() as u64);
        Ok(HbAnalysis {
            trace,
            edges,
            late: Overlay::default(),
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
        self.edges.targets.len() + self.late.edges.len()
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

    /// Raw reachability; callers guard `a != b`: the index's answer, or,
    /// where it has none, a path through the added edges.
    fn reaches(&self, a: usize, b: usize) -> bool {
        self.indexed(a, b) || (!self.late.edges.is_empty() && self.late.joins(a, b, self.le()))
    }

    /// The index's answer to `reaches(a, b)` for `a != b` (the matrix's
    /// diagonal is unset while clocks are reflexive, so `a == b` is the
    /// one input the indexes answer differently).
    #[inline]
    fn indexed(&self, a: usize, b: usize) -> bool {
        match &self.reach {
            ReachIndex::Matrix(m) => m.get(b, a),
            ReachIndex::Clocks(c) => c.covers(b, self.at[b], self.at[a]),
        }
    }

    /// `x ≤ y` in the index: `x` is `y` or is ordered before it.
    fn le(&self) -> impl Fn(usize, usize) -> bool + '_ {
        |x, y| x == y || self.indexed(x, y)
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

    /// Direct successors of a vertex: the pass's edges, then those added
    /// since, in the order added.
    pub fn successors(&self, v: usize) -> impl Iterator<Item = (usize, EdgeRule)> + '_ {
        self.edges.out(v).chain(self.late.out(v))
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

    /// Adds extra edges (e.g. inferred `Mpull`/loop-sync causality), each
    /// pointed forward and kept unless the graph links it already. The
    /// index is left as built: queries compose it with the added edges.
    pub fn add_edges(&mut self, extra: &[(usize, usize)]) {
        let _span = dcatch_obs::span!("hb.reach.delta");
        let added = self.late.edges.len();
        for &(u, v) in extra {
            debug_assert!(u < self.trace.len() && v < self.trace.len());
            // HB edges respect execution order, which is index order
            let (u, v) = (u.min(v), u.max(v));
            if u != v && !self.successors(u).any(|(t, _)| t == v) {
                self.late.edges.push((u as u32, v as u32));
                counter!("hb_reach_delta_edges_total").inc();
            }
        }
        if self.late.edges.len() > added {
            self.late.leads = self.late.closure(self.le());
        }
    }
}

#[cfg(test)]
mod tests;
