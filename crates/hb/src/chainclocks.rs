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
//! "`a` reaches `b`" becomes `clock[b][slot(a)] ≥ pos(a)` and the index is
//! exact for arbitrary HB DAGs. This type decides no slot and joins no
//! edge: the [`FrontierEngine`](crate::FrontierEngine) that
//! `HbAnalysis::build` drives places every record — its program-order
//! predecessor's slot while that is still the slot's tail, else the slot
//! of the first direct HB predecessor that is a tail, else a new one (the
//! private `slots` module) — and `ChainClocks` is that engine's clocks
//! kept without retirement, one row per record. A slot is thus *not* a `(task, handler-instance)` group: naive
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
//! Every HB edge points forward in trace order, so the clock the engine
//! holds for a record when it has arrived is final, and is stored as is.
//! Rows are *ragged*: row `v` is as long as the slot table was when `v`
//! arrived, because a slot opened later holds only later records, which
//! `v` cannot be ordered after. A loop-sync edge `u ⇒ v` added afterwards
//! points forward too; it joins `u`'s clock into `v`'s and pushes the
//! growth forward through successors whose clocks actually change — the
//! affected suffix of each chain, never the whole trace.

/// Per-vertex slot-frontier clocks over an HB graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainClocks {
    /// Row `v` is `clocks[rows[v]..rows[v + 1]]`; `rows[0]` is 0.
    rows: Vec<usize>,
    /// The ragged clock rows, back to back; entry `s` of row `v` is the
    /// length of slot `s`'s prefix known to happen before (or be) `v`.
    clocks: Vec<u32>,
}

impl ChainClocks {
    /// Creates an empty index expecting `n` vertices, appended in trace
    /// order with [`push_row`](ChainClocks::push_row).
    pub(crate) fn with_capacity(n: usize) -> ChainClocks {
        let mut rows = Vec::with_capacity(n + 1);
        rows.push(0);
        ChainClocks {
            rows,
            clocks: Vec::new(),
        }
    }

    /// Appends the next vertex's row: its final `clock`, zero-padded to
    /// the `slots` open when it arrived.
    pub(crate) fn push_row(&mut self, clock: &[u32], slots: usize) {
        debug_assert!(clock.len() <= slots);
        self.clocks.extend_from_slice(clock);
        self.clocks
            .resize(self.rows[self.rows.len() - 1] + slots, 0);
        self.rows.push(self.clocks.len());
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.rows.len() - 1
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory held by the clock rows, in bytes: what the index budget and
    /// `Auto`'s choice are measured in.
    pub fn bytes(&self) -> usize {
        self.clocks.len() * 4
    }

    /// Whether the record at `(slot, pos)` happens before (or is) vertex
    /// `v`: `v`'s frontier on the slot covers the position — a slot `v`'s
    /// row is too short for was opened after `v`. Callers that need strict
    /// ordering guard against `v` itself, exactly as with the bit matrix.
    pub(crate) fn covers(&self, v: usize, (slot, pos): (u32, u32)) -> bool {
        let row = &self.clocks[self.rows[v]..self.rows[v + 1]];
        row.get(slot as usize).is_some_and(|&c| c >= pos)
    }

    /// Joins vertex `src`'s clock into the later vertex `dst`'s
    /// (elementwise max), the propagation step for a loop-sync edge
    /// `src ⇒ dst`. Returns whether any frontier of `dst` actually
    /// advanced — the early-exit signal that stops incremental
    /// propagation, as `BitMatrix::or_row_into_changed` is for the matrix.
    pub(crate) fn join_from(&mut self, src: usize, dst: usize) -> bool {
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

    /// Vertices 0, 2 in one slot and 1, 3 in another, each with the row
    /// the engine would hand over: ordered after its slot's earlier vertex.
    fn two_chains() -> ChainClocks {
        let mut cc = ChainClocks::with_capacity(4);
        cc.push_row(&[1], 1);
        cc.push_row(&[0, 1], 2);
        cc.push_row(&[2], 2);
        cc.push_row(&[0, 2], 2);
        cc
    }

    #[test]
    fn own_chain_prefix_is_reachable() {
        let cc = two_chains();
        assert_eq!(cc.len(), 4);
        assert!(cc.covers(2, (0, 1)));
        assert!(!cc.covers(0, (0, 2)));
        assert!(!cc.covers(1, (0, 1)) && !cc.covers(0, (1, 1)));
        assert!(cc.covers(0, (0, 1)), "reflexive, guarded by callers");
    }

    #[test]
    fn join_propagates_cross_chain_frontiers() {
        let mut cc = two_chains();
        // edge 2 ⇒ 3 carries slot 0's prefix of length 2 into vertex 3
        assert!(cc.join_from(2, 3));
        assert!(cc.covers(3, (0, 1)) && cc.covers(3, (0, 2)));
        assert!(!cc.join_from(2, 3), "second join is a no-op");
    }

    /// Rows are as long as the slot table was on arrival: vertex 0 never
    /// pays for slot 1, and a query about a slot opened later is `false`.
    #[test]
    fn rows_are_ragged() {
        let cc = two_chains();
        assert_eq!(cc.bytes(), 4 * (1 + 2 + 2 + 2));
        assert!(!cc.covers(0, (1, 1)), "slot 1 is beyond vertex 0's row");
    }

    #[test]
    fn empty_trace() {
        let cc = ChainClocks::with_capacity(0);
        assert!(cc.is_empty());
        assert_eq!(cc.bytes(), 0);
    }
}
