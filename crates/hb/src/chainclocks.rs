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
//! holds for a record when it has arrived is final, and is stored as is —
//! or not at all. Most records are ordered after nothing but the record
//! before them in their own slot, and such a record's clock is that
//! record's with its own slot's entry one higher. It stores no row: it
//! *shares* its predecessor's through a 4-byte row id, and its own slot's
//! entry is answered from its own position, which the caller passes in.
//! So the index grows by a row per *join*, not per record: a row per
//! record that has a predecessor other than its program-order one (or
//! that opens a slot), 4 bytes for every other record. Rows are still
//! *ragged*: a row is as long as the slot table was when its first record
//! arrived, because a slot opened later holds only later records, which
//! that record cannot be ordered after — and a record that shares the row
//! is ordered after nothing that record is not.
//!
//! The index is never changed after the pass, so a row stays the clock of
//! every record that shares it. A loop-sync edge added afterwards points
//! forward too, but is not joined in: `HbAnalysis` keeps it beside the
//! index and composes it with the index's answers at query time
//! (DESIGN.md §4).

/// Per-vertex slot-frontier clocks over an HB graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainClocks {
    /// Per vertex, the id of the row holding its clock.
    row_of: Vec<u32>,
    /// Row `r` is `clocks[starts[r]..]`, up to the next row's start.
    starts: Vec<usize>,
    /// The ragged clock rows, back to back; entry `s` of a vertex's row is
    /// the length of slot `s`'s prefix known to happen before (or be) it,
    /// except on its own slot, whose entry may be that of an earlier
    /// vertex it shares the row with.
    clocks: Vec<u32>,
}

impl ChainClocks {
    /// What [`share_row`](ChainClocks::share_row) adds to
    /// [`bytes`](ChainClocks::bytes): one row id.
    pub(crate) const SHARED_ROW_BYTES: usize = size_of::<u32>();

    /// Creates an empty index expecting `n` vertices, appended in trace
    /// order with [`push_row`](ChainClocks::push_row) and
    /// [`share_row`](ChainClocks::share_row).
    pub(crate) fn with_capacity(n: usize) -> ChainClocks {
        ChainClocks {
            row_of: Vec::with_capacity(n),
            starts: Vec::new(),
            clocks: Vec::new(),
        }
    }

    /// What [`push_row`](ChainClocks::push_row) adds to
    /// [`bytes`](ChainClocks::bytes) for a row of `slots` entries: the
    /// row id, the row's start and its clocks.
    pub(crate) fn row_bytes(slots: usize) -> usize {
        size_of::<u32>() + size_of::<usize>() + slots * size_of::<u32>()
    }

    /// Appends the next vertex with a row of its own: its final `clock`,
    /// zero-padded to the `slots` open when it arrived.
    pub(crate) fn push_row(&mut self, clock: &[u32], slots: usize) {
        debug_assert!(clock.len() <= slots);
        let start = self.clocks.len();
        self.clocks.extend_from_slice(clock);
        self.clocks.resize(start + slots, 0);
        let r = u32::try_from(self.starts.len()).expect("fewer than 2^32 rows");
        self.starts.push(start);
        self.row_of.push(r);
    }

    /// Appends the next vertex sharing vertex `u`'s row: it is ordered
    /// after `u`, the tail of its slot, and nothing else.
    pub(crate) fn share_row(&mut self, u: usize) {
        self.row_of.push(self.row_of[u]);
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.row_of.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory held by the index, in bytes — row ids, row table and clock
    /// rows: what the index budget and `Auto`'s choice are measured in.
    pub fn bytes(&self) -> usize {
        self.row_of.len() * size_of::<u32>()
            + self.starts.len() * size_of::<usize>()
            + self.clocks.len() * size_of::<u32>()
    }

    /// The clocks of row `r`.
    fn row(&self, r: u32) -> std::ops::Range<usize> {
        let r = r as usize;
        let end = self.starts.get(r + 1).copied().unwrap_or(self.clocks.len());
        self.starts[r]..end
    }

    /// Entry `slot` of vertex `v`'s clock, `own` being `v`'s `(slot, pos)`:
    /// its position on its own slot, else its row's entry — 0 past the
    /// row's end, a slot opened after the row's first vertex.
    pub(crate) fn entry(&self, v: usize, own: (u32, u32), slot: u32) -> u32 {
        if slot == own.0 {
            return own.1;
        }
        let row = self.row(self.row_of[v]);
        self.clocks[row].get(slot as usize).copied().unwrap_or(0)
    }

    /// Whether the record at `(slot, pos)` happens before (or is) vertex
    /// `v`, whose own place is `own`: `v`'s frontier on the slot covers
    /// the position. Callers that need strict ordering guard against `v`
    /// itself, exactly as with the bit matrix.
    pub(crate) fn covers(&self, v: usize, own: (u32, u32), (slot, pos): (u32, u32)) -> bool {
        self.entry(v, own, slot) >= pos
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

    const TWO_CHAINS: [(u32, u32); 4] = [(0, 1), (1, 1), (0, 2), (1, 2)];

    fn covers(cc: &ChainClocks, v: usize, at: (u32, u32)) -> bool {
        cc.covers(v, TWO_CHAINS[v], at)
    }

    #[test]
    fn own_chain_prefix_is_reachable() {
        let cc = two_chains();
        assert_eq!(cc.len(), 4);
        assert!(covers(&cc, 2, (0, 1)));
        assert!(!covers(&cc, 0, (0, 2)));
        assert!(!covers(&cc, 1, (0, 1)) && !covers(&cc, 0, (1, 1)));
        assert!(covers(&cc, 0, (0, 1)), "reflexive, guarded by callers");
    }

    /// Rows are as long as the slot table was on arrival: vertex 0 never
    /// pays for slot 1, and a query about a slot opened later is `false`.
    #[test]
    fn rows_are_ragged() {
        let cc = two_chains();
        assert_eq!(
            cc.bytes(),
            4 * ChainClocks::row_bytes(0) + 4 * (1 + 2 + 2 + 2)
        );
        assert!(!covers(&cc, 0, (1, 1)), "slot 1 is beyond vertex 0's row");
    }

    /// `bytes` is every byte the index holds: each vector's length times
    /// its element's size.
    #[test]
    fn bytes_counts_every_vector() {
        let mut cc = two_chains();
        cc.share_row(3);
        let held = |cc: &ChainClocks| {
            size_of_val(cc.row_of.as_slice())
                + size_of_val(cc.starts.as_slice())
                + size_of_val(cc.clocks.as_slice())
        };
        assert_eq!(cc.bytes(), held(&cc));
        cc.push_row(&[1, 3], 2);
        assert_eq!(cc.bytes(), held(&cc));
    }

    /// A run of vertices ordered after nothing but the one before them in
    /// their slot is one row: each answers its own slot from its own
    /// position, and the rest from the row.
    #[test]
    fn a_run_shares_its_head_row() {
        // vertex 1 opens slot 1 after vertex 0; 2 and 3 follow it there
        let mut cc = ChainClocks::with_capacity(4);
        cc.push_row(&[1], 1);
        cc.push_row(&[1, 1], 2);
        let before = cc.bytes();
        cc.share_row(1);
        cc.share_row(2);
        assert_eq!(cc.bytes(), before + 2 * ChainClocks::SHARED_ROW_BYTES);
        let at = [(0, 1), (1, 1), (1, 2), (1, 3)];
        for (v, &own) in at.iter().enumerate().skip(1) {
            assert!(cc.covers(v, own, (1, own.1)), "reflexive");
            assert!(!cc.covers(v, own, (1, own.1 + 1)));
            assert!(cc.covers(v, own, (0, 1)) && !cc.covers(v, own, (0, 2)));
        }
    }

    #[test]
    fn empty_trace() {
        let cc = ChainClocks::with_capacity(0);
        assert!(cc.is_empty());
        assert_eq!(cc.bytes(), 0);
    }
}
