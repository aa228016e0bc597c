//! Chain-decomposition vector clocks — the scalable reachability engine.
//!
//! The dense [`BitMatrix`](crate::BitMatrix) answers `reaches(a, b)` in
//! O(1) but costs O(n²) bits, which is exactly the scalability wall the
//! paper hits on unselective traces (§7.2, Table 8). This engine exploits
//! the structure the HB graph already has: the trace decomposes into a
//! handful of *HB-ordered chains* ("slots") in which every record happens
//! before all its successors. Reachability from a slot is therefore always
//! a *prefix* of it, so one u32 frontier index per slot summarizes
//! everything a vertex can be reached from:
//!
//! > `clock[v][s]` = number of slot-`s` vertices that happen before
//! > (or are) `v`.
//!
//! `reaches(a, b)` becomes `clock[b][slot(a)] ≥ pos(a)` and the index is
//! exact for arbitrary HB DAGs. Which slot a record joins is the one rule
//! of the private `slots` module, shared with the online
//! [`FrontierEngine`](crate::FrontierEngine): its program-order
//! predecessor's slot while that is still the slot's tail, else the slot
//! of the first direct HB predecessor that is a tail, else a new one. A
//! slot is thus *not* a `(task, handler-instance)` group: naive
//! per-handler-dimension vector clocks are the §3.2.2 "too slow"
//! alternative, their dimension count growing with the number of handler
//! *instances* (5 004 on a 30 018-record ping-pong trace, 601 MB of rows),
//! while serialized handler instances, RPC caller → handler → caller
//! round trips and fork-then-idle parents each fold into the slot of
//! their cause (4 slots, 0.48 MB).
//!
//! The set-based and optimal predictive race detectors this follows
//! (Roemer & Bond's set-based analysis; Pavlogiannis's "Fast, Sound and
//! Effectively Complete Dynamic Race Prediction") make the same bet:
//! compact per-event ordering summaries, not dense closure — and neither
//! fixes what a chain is.
//!
//! Clocks are filled in by the forward pass that derives the edges
//! (`HbAnalysis::build`): every HB edge points forward in trace order, so a
//! record's clock is final once its own incoming edges are joined. Rows
//! are *ragged*: row `v` is as long as the slot table was when `v`
//! arrived, because a slot opened later holds only later records, which
//! `v` cannot be ordered after. A loop-sync edge `u ⇒ v` added afterwards
//! points forward too; it joins `u`'s clock into `v`'s and pushes the
//! growth forward through successors whose clocks actually change — the
//! affected suffix of each chain, never the whole trace.

use std::collections::BTreeMap;

use dcatch_trace::TraceSet;

use crate::slots;

/// Per-vertex slot-frontier clocks over an HB graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainClocks {
    /// Last position handed out in each slot ([`slots::assign`]'s table).
    tails: Vec<u32>,
    /// Slot of each vertex.
    slot_of: Vec<u32>,
    /// 1-based position of each vertex within its slot.
    pos_of: Vec<u32>,
    /// Row `v` is `clocks[rows[v]..rows[v + 1]]`; `rows[0]` is 0.
    rows: Vec<usize>,
    /// The ragged clock rows, back to back; entry `s` of row `v` is the
    /// length of slot `s`'s prefix known to happen before (or be) `v`.
    clocks: Vec<u32>,
}

impl ChainClocks {
    /// Upper bound on the memory, in bytes, of the clock rows of `n`
    /// vertices in `g` program-order chains (`n × g × 4`): the slot rule
    /// opens at most one slot per program-order chain, and usually far
    /// fewer. [`HbConfig::select_engine`](crate::HbConfig::select_engine)
    /// budgets with it, so the choice of index is known before the pass
    /// that assigns the slots.
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

    /// Creates an empty index expecting `n` vertices. The caller appends
    /// them in trace order with [`push`](ChainClocks::push) and folds each
    /// one's HB edges in with [`join_from`](ChainClocks::join_from).
    pub fn with_capacity(n: usize) -> ChainClocks {
        let mut rows = Vec::with_capacity(n + 1);
        rows.push(0);
        ChainClocks {
            tails: Vec::new(),
            slot_of: Vec::with_capacity(n),
            pos_of: Vec::with_capacity(n),
            rows,
            clocks: Vec::new(),
        }
    }

    /// Appends the next vertex, given the vertices it is directly ordered
    /// after (program order first), and returns its index. Its row knows
    /// only the vertex itself until its edges are joined in.
    pub fn push(&mut self, preds: impl IntoIterator<Item = usize>) -> usize {
        let preds = preds.into_iter().map(|u| (self.slot_of[u], self.pos_of[u]));
        let (slot, pos) = slots::assign(&mut self.tails, preds);
        self.slot_of.push(slot);
        self.pos_of.push(pos);
        self.clocks.resize(self.clocks.len() + self.tails.len(), 0);
        let row = self.rows[self.rows.len() - 1];
        self.clocks[row + slot as usize] = pos;
        self.rows.push(self.clocks.len());
        self.slot_of.len() - 1
    }

    /// Number of slots (HB-ordered chains) opened so far.
    pub fn chains(&self) -> usize {
        self.tails.len()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Memory held by the clock rows, in bytes.
    pub fn bytes(&self) -> usize {
        self.clocks.len() * 4
    }

    /// `(slot, 1-based position)` of vertex `v`.
    pub fn slot_of(&self, v: usize) -> (u32, u32) {
        (self.slot_of[v], self.pos_of[v])
    }

    /// Whether `a` happens before (or is) `b`: `b`'s frontier on `a`'s
    /// slot covers `a`'s position — a slot `b`'s row is too short for was
    /// opened after `b`. Callers that need strict ordering guard `a != b`
    /// themselves, exactly as with the bit matrix.
    pub fn reaches(&self, a: usize, b: usize) -> bool {
        let row = &self.clocks[self.rows[b]..self.rows[b + 1]];
        row.get(self.slot_of[a] as usize)
            .is_some_and(|&c| c >= self.pos_of[a])
    }

    /// Joins vertex `src`'s clock into the later vertex `dst`'s
    /// (elementwise max), the propagation step for an HB edge `src ⇒ dst`.
    /// Returns whether any frontier of `dst` actually advanced — the
    /// early-exit signal that stops incremental propagation, as
    /// [`BitMatrix::or_row_into_changed`](crate::BitMatrix::or_row_into_changed)
    /// is for the matrix.
    pub fn join_from(&mut self, src: usize, dst: usize) -> bool {
        debug_assert!(src < dst, "HB edges point forward in trace order");
        let (head, tail) = self.clocks.split_at_mut(self.rows[dst]);
        let src_row = &head[self.rows[src]..self.rows[src + 1]];
        let mut changed = false;
        // `dst`'s row is at least as long: slots are never closed
        for (d, s) in tail.iter_mut().zip(src_row) {
            if *s > *d {
                *d = *s;
                changed = true;
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

    /// Vertices 0, 2 in one program-order chain and 1, 3 in another, each
    /// pushed with its program-order predecessor and joined to it.
    fn two_chains() -> ChainClocks {
        let mut cc = ChainClocks::with_capacity(4);
        assert_eq!((cc.push([]), cc.push([])), (0, 1));
        for v in [2, 3] {
            assert_eq!(cc.push([v - 2]), v);
            cc.join_from(v - 2, v);
        }
        cc
    }

    #[test]
    fn own_chain_prefix_is_reachable() {
        let cc = two_chains();
        assert_eq!(cc.chains(), 2);
        assert_eq!(cc.len(), 4);
        assert_eq!(cc.slot_of(2), (0, 2));
        assert_eq!(cc.slot_of(3), (1, 2));
        assert!(cc.reaches(0, 2));
        assert!(!cc.reaches(2, 0));
        assert!(!cc.reaches(0, 1) && !cc.reaches(1, 0));
        assert!(cc.reaches(0, 0), "reflexive, guarded by callers");
    }

    #[test]
    fn join_propagates_cross_chain_frontiers() {
        let mut cc = two_chains();
        // edge 2 ⇒ 3 carries slot 0's prefix of length 2 into vertex 3
        assert!(cc.join_from(2, 3));
        assert!(cc.reaches(0, 3) && cc.reaches(2, 3));
        assert!(!cc.join_from(2, 3), "second join is a no-op");
    }

    /// Rows are as long as the slot table was on arrival: vertex 0 never
    /// pays for slot 1, and a query about a slot opened later is `false`.
    #[test]
    fn rows_are_ragged() {
        let cc = two_chains();
        assert_eq!(cc.bytes(), 4 * (1 + 2 + 2 + 2));
        assert!(!cc.reaches(1, 0), "slot 1 is beyond vertex 0's row");
    }

    /// A vertex extends the slot of a direct predecessor that is still a
    /// tail — the handler a send is the last record before — and opens one
    /// when its predecessors have all been built upon.
    #[test]
    fn a_tail_predecessor_is_extended_across_program_order_chains() {
        let mut cc = ChainClocks::with_capacity(4);
        cc.push([]);
        assert_eq!(cc.push([0]), 1);
        cc.join_from(0, 1);
        assert_eq!(
            cc.slot_of(1),
            (0, 2),
            "no program-order tail: the cause's slot"
        );
        cc.push([0]);
        cc.join_from(0, 2);
        assert_eq!(cc.slot_of(2), (1, 1), "vertex 0 is no longer a tail");
        assert_eq!(cc.chains(), 2);
        assert!(cc.reaches(0, 2) && !cc.reaches(1, 2) && !cc.reaches(2, 1));
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
    fn chain_count_bounds_the_slots() {
        assert_eq!(ChainClocks::chain_count(&two_chain_trace()), 2);
        assert_eq!(two_chains().chains(), 2);
        assert_eq!(ChainClocks::chain_count(&TraceSet::new()), 0);
    }

    #[test]
    fn empty_trace() {
        let cc = ChainClocks::with_capacity(0);
        assert!(cc.is_empty());
        assert_eq!(cc.bytes(), 0);
        assert_eq!(cc.chains(), 0);
    }
}
