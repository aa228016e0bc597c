//! Chain-decomposition vector clocks — the scalable reachability engine.
//!
//! The dense [`BitMatrix`](crate::BitMatrix) answers `reaches(a, b)` in
//! O(1) but costs O(n²) bits, which is exactly the scalability wall the
//! paper hits on unselective traces (§7.2, Table 8). This engine exploits
//! the structure the HB graph already has: the trace decomposes into
//! *program-order chains* — one per `(task, handler-instance)` group, the
//! same grouping `Preg`/`Pnreg` use — and within a chain every record
//! happens-before all its successors. Reachability from a chain is
//! therefore always a *prefix* of that chain, so one u32 frontier index
//! per chain summarizes everything a vertex can be reached from:
//!
//! > `clock[v][c]` = number of chain-`c` vertices that happen before
//! > (or are) `v`.
//!
//! `reaches(a, b)` becomes `clock[b][chain(a)] ≥ pos(a)`, memory drops to
//! `n × G × 4` bytes (G = #chains ≪ n), and the index is exact for
//! arbitrary HB DAGs — unlike naive per-handler-dimension vector clocks
//! (the §3.2.2 "too slow" alternative), whose dimension count grows with
//! the number of handler *instances*, chains here stay as few as the
//! trace's program-order groups.
//!
//! The set-based and optimal predictive race detectors this follows
//! (Roemer & Bond's set-based analysis; Pavlogiannis's "Fast, Sound and
//! Effectively Complete Dynamic Race Prediction") make the same bet:
//! compact per-event ordering summaries, not dense closure.
//!
//! Clocks are filled in by the forward pass that derives the edges
//! (`HbAnalysis::build`): every HB edge points forward in trace order, so a
//! record's clock is final once its own incoming edges are joined. A
//! loop-sync edge `u ⇒ v` added afterwards joins `u`'s clock into `v`'s and
//! pushes the growth forward through successors whose clocks actually
//! change — the affected suffix of each chain, never the whole trace.

use std::collections::BTreeMap;

use dcatch_trace::TraceSet;

/// Per-vertex chain-frontier clocks over an HB graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainClocks {
    /// Number of chains (program-order groups), `G`.
    chains: usize,
    /// Chain of each vertex.
    chain_of: Vec<u32>,
    /// 1-based position of each vertex within its chain.
    pos_of: Vec<u32>,
    /// Flattened `n × G` clock rows; `clocks[v * G + c]` is the length of
    /// chain `c`'s prefix known to happen before (or be) vertex `v`.
    clocks: Vec<u32>,
}

impl ChainClocks {
    /// Estimated memory in bytes for `n` vertices over `g` chains — the
    /// clock rows dominate (`n × g × 4`); the two per-vertex index arrays
    /// are O(n) noise and excluded to keep the budget rule simple.
    pub fn estimated_bytes(n: usize, g: usize) -> usize {
        n.saturating_mul(g).saturating_mul(4)
    }

    /// Counts the program-order chains of `trace` — one per distinct
    /// `(task, execution-context)` pair, the `Preg`/`Pnreg` grouping.
    pub fn chain_count(trace: &TraceSet) -> usize {
        let mut chains = BTreeMap::new();
        for r in trace.records() {
            let next = chains.len();
            chains.entry((r.task, r.ctx)).or_insert(next);
        }
        chains.len()
    }

    /// Creates the clock index with every vertex knowing only its own
    /// chain prefix (itself and, transitively via later joins, nothing
    /// yet). The caller folds HB edges in with [`ChainClocks::join_from`]
    /// in increasing vertex order.
    pub fn new(trace: &TraceSet) -> ChainClocks {
        let n = trace.len();
        let mut chains: BTreeMap<_, u32> = BTreeMap::new();
        let mut chain_of = Vec::with_capacity(n);
        let mut next_pos: Vec<u32> = Vec::new();
        let mut pos_of = Vec::with_capacity(n);
        for r in trace.records() {
            let next = chains.len() as u32;
            let c = *chains.entry((r.task, r.ctx)).or_insert(next);
            if c as usize == next_pos.len() {
                next_pos.push(0);
            }
            next_pos[c as usize] += 1;
            chain_of.push(c);
            pos_of.push(next_pos[c as usize]);
        }
        let g = chains.len();
        let mut clocks = vec![0u32; n * g];
        for v in 0..n {
            clocks[v * g + chain_of[v] as usize] = pos_of[v];
        }
        ChainClocks {
            chains: g,
            chain_of,
            pos_of,
            clocks,
        }
    }

    /// Number of chains, `G`.
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.chain_of.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.chain_of.is_empty()
    }

    /// Memory held by the clock rows, in bytes.
    pub fn bytes(&self) -> usize {
        self.clocks.len() * 4
    }

    /// Whether `a` happens before (or is) `b`: `b`'s frontier on `a`'s
    /// chain covers `a`'s position. Callers that need strict ordering
    /// guard `a != b` themselves, exactly as with the bit matrix.
    pub fn reaches(&self, a: usize, b: usize) -> bool {
        let g = self.chains;
        self.clocks[b * g + self.chain_of[a] as usize] >= self.pos_of[a]
    }

    /// Joins vertex `src`'s clock into `dst`'s (elementwise max), the
    /// propagation step for an HB edge `src ⇒ dst`. Returns whether any
    /// frontier of `dst` actually advanced — the early-exit signal that
    /// stops incremental propagation, as
    /// [`BitMatrix::or_row_into_changed`](crate::BitMatrix::or_row_into_changed)
    /// is for the matrix.
    pub fn join_from(&mut self, src: usize, dst: usize) -> bool {
        debug_assert!(src != dst, "self-joins are meaningless");
        let g = self.chains;
        let (s, d) = (src * g, dst * g);
        let mut changed = false;
        if s < d {
            let (left, right) = self.clocks.split_at_mut(d);
            for i in 0..g {
                if left[s + i] > right[i] {
                    right[i] = left[s + i];
                    changed = true;
                }
            }
        } else {
            let (left, right) = self.clocks.split_at_mut(s);
            for i in 0..g {
                if right[i] > left[d + i] {
                    left[d + i] = right[i];
                    changed = true;
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::{FuncId, NodeId, StmtId};
    use dcatch_trace::{CallStack, ExecCtx, OpKind, Record, TaskId};

    fn task(i: u32) -> TaskId {
        TaskId {
            node: NodeId(0),
            index: i,
        }
    }

    fn rec(seq: u64, t: TaskId) -> Record {
        Record {
            seq,
            task: t,
            ctx: ExecCtx::Regular,
            kind: OpKind::ThreadBegin,
            stack: CallStack(vec![StmtId {
                func: FuncId(0),
                idx: seq as u32,
            }]),
        }
    }

    fn two_chain_trace() -> TraceSet {
        // chain 0: vertices 0, 2 — chain 1: vertices 1, 3
        vec![
            rec(0, task(0)),
            rec(1, task(1)),
            rec(2, task(0)),
            rec(3, task(1)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn own_chain_prefix_is_reachable() {
        let trace = two_chain_trace();
        let mut cc = ChainClocks::new(&trace);
        assert_eq!(cc.chains(), 2);
        assert_eq!(cc.len(), 4);
        // program order within a chain must be joined in by the caller
        cc.join_from(0, 2);
        cc.join_from(1, 3);
        assert!(cc.reaches(0, 2));
        assert!(!cc.reaches(2, 0));
        assert!(!cc.reaches(0, 1) && !cc.reaches(1, 0));
        assert!(cc.reaches(0, 0), "reflexive, guarded by callers");
    }

    #[test]
    fn join_propagates_cross_chain_frontiers() {
        let trace = two_chain_trace();
        let mut cc = ChainClocks::new(&trace);
        cc.join_from(0, 2);
        cc.join_from(1, 3);
        // edge 2 ⇒ 3 carries chain-0's prefix of length 2 into vertex 3
        assert!(cc.join_from(2, 3));
        assert!(cc.reaches(0, 3) && cc.reaches(2, 3));
        assert!(!cc.join_from(2, 3), "second join is a no-op");
        // dst-to-src direction of the split borrow
        assert!(cc.join_from(3, 2));
        assert!(cc.reaches(1, 2));
    }

    #[test]
    fn estimated_bytes_is_n_times_g_u32s() {
        assert_eq!(ChainClocks::estimated_bytes(1000, 20), 80_000);
        // Table-8 regime: ~90k records over ~20 chains is a few MB where
        // the matrix needs ~1 GB
        assert!(ChainClocks::estimated_bytes(90_000, 20) < 8 * 1024 * 1024);
        assert!(
            crate::BitMatrix::estimated_bytes(90_000) > 512 * 1024 * 1024,
            "same scale blows the Table-8 matrix budget"
        );
    }

    #[test]
    fn chain_count_matches_new() {
        let trace = two_chain_trace();
        assert_eq!(ChainClocks::chain_count(&trace), 2);
        assert_eq!(ChainClocks::new(&trace).chains(), 2);
    }

    #[test]
    fn empty_trace() {
        let cc = ChainClocks::new(&TraceSet::new());
        assert!(cc.is_empty());
        assert_eq!(cc.bytes(), 0);
        assert_eq!(cc.chains(), 0);
    }
}
