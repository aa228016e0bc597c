//! The slot-assignment rule, written once (DESIGN.md §4).
//!
//! A clock dimension — a *slot* — is an HB-ordered chain of records: every
//! record of a slot happens before the next one, so `clock[s] ≥ p` means
//! "reaches the record at `(s, p)`" and everything before it in the slot.
//! Which slot an arriving record joins is decided here, for
//! [`FrontierEngine::record`](crate::FrontierEngine::record) — the one
//! caller, online and under the batch builder.

/// Places an arriving record: it extends the slot of the first of `preds`
/// — `(slot, pos)` of records already known to happen before it — that is
/// still the tail of its slot, else it opens a slot. Returns the record's
/// `(slot, pos)`, `pos` 1-based; `tails[s]` is the last position handed
/// out in slot `s`.
///
/// Sound by construction: the record is ordered after the tail it extends,
/// so every slot stays a chain. Asking only the record's *direct*
/// predecessors (program order first) keeps the rule clock-free and O(1);
/// it misses a slot whose tail the record reaches only transitively, which
/// costs a dimension, never an answer. A tail at `u32::MAX` is never
/// extended: positions do not wrap.
pub(crate) fn assign(
    tails: &mut Vec<u32>,
    preds: impl IntoIterator<Item = (u32, u32)>,
) -> (u32, u32) {
    for (s, p) in preds {
        if p < u32::MAX && tails[s as usize] == p {
            tails[s as usize] = p + 1;
            return (s, p + 1);
        }
    }
    tails.push(1);
    ((tails.len() - 1) as u32, 1)
}

#[cfg(test)]
mod tests {
    use super::assign;

    #[test]
    fn first_predecessor_that_is_a_tail_is_extended() {
        let mut tails = vec![3, 5];
        // (0, 2) is not slot 0's tail; (1, 5) is slot 1's
        assert_eq!(assign(&mut tails, [(0, 2), (1, 5), (0, 3)]), (1, 6));
        assert_eq!(tails, [3, 6]);
        assert_eq!(assign(&mut tails, [(1, 5)]), (2, 1), "stale tail: opens");
        assert_eq!(assign(&mut tails, []), (3, 1));
        assert_eq!(tails, [3, 6, 1, 1]);
    }

    /// Positions never wrap: a slot whose tail is `u32::MAX` is full, and
    /// the record that would have extended it opens a fresh slot.
    #[test]
    fn a_full_slot_is_never_extended() {
        let mut tails = vec![u32::MAX - 1];
        assert_eq!(assign(&mut tails, [(0, u32::MAX - 1)]), (0, u32::MAX));
        assert_eq!(assign(&mut tails, [(0, u32::MAX)]), (1, 1));
        assert_eq!(assign(&mut tails, [(0, u32::MAX), (1, 1)]), (1, 2));
        assert_eq!(tails, [u32::MAX, 2]);
    }
}
