//! Dense bit matrix for ancestor sets.

/// An `n × n` bit matrix. In the HB graph row `v` is the *ancestor* set of
/// vertex `v` — bit `(v, u)` says `u` happens before `v` — so a row is
/// final once its vertex's incoming edges are folded in, and an edge
/// `u ⇒ v` is one `row v |= row u`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Estimated memory in bytes for an `n × n` matrix.
    pub fn estimated_bytes(n: usize) -> usize {
        let words = n.div_ceil(64);
        n.saturating_mul(words).saturating_mul(8)
    }

    /// Creates an all-zero matrix.
    pub(crate) fn new(n: usize) -> BitMatrix {
        let words = n.div_ceil(64);
        BitMatrix {
            n,
            words,
            data: vec![0u64; n * words],
        }
    }

    /// Dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is zero-dimensional.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets bit `(row, col)`.
    pub(crate) fn set(&mut self, row: usize, col: usize) {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.words + col / 64] |= 1u64 << (col % 64);
    }

    /// Tests bit `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.words + col / 64] & (1u64 << (col % 64)) != 0
    }

    /// `row dst |= row src` — the join of an HB edge `src ⇒ dst` —
    /// reporting whether any bit of `dst` changed.
    ///
    /// The changed flag is what makes delta propagation terminate early:
    /// a successor whose row already covers the new ancestors does not
    /// need to be re-enqueued.
    pub(crate) fn or_row_into_changed(&mut self, src: usize, dst: usize) -> bool {
        debug_assert!(src < self.n && dst < self.n && src != dst);
        let (s, d) = (src * self.words, dst * self.words);
        let mut changed = 0u64;
        if s < d {
            let (left, right) = self.data.split_at_mut(d);
            for i in 0..self.words {
                let old = right[i];
                let new = old | left[s + i];
                changed |= old ^ new;
                right[i] = new;
            }
        } else {
            let (left, right) = self.data.split_at_mut(s);
            for i in 0..self.words {
                let old = left[d + i];
                let new = old | right[i];
                changed |= old ^ new;
                left[d + i] = new;
            }
        }
        changed != 0
    }

    /// Number of set bits in `row`.
    pub fn row_count(&self, row: usize) -> usize {
        self.data[row * self.words..(row + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_across_word_boundaries() {
        let mut m = BitMatrix::new(130);
        m.set(0, 0);
        m.set(0, 63);
        m.set(0, 64);
        m.set(129, 129);
        assert!(m.get(0, 0) && m.get(0, 63) && m.get(0, 64) && m.get(129, 129));
        assert!(!m.get(0, 1) && !m.get(1, 0) && !m.get(129, 128));
        assert_eq!(m.row_count(0), 3);
    }

    #[test]
    fn or_row_into_unions_in_both_directions() {
        let mut m = BitMatrix::new(100);
        m.set(5, 70);
        m.or_row_into_changed(5, 2); // src > dst
        assert!(m.get(2, 70));
        m.set(1, 3);
        m.or_row_into_changed(1, 50); // src < dst
        assert!(m.get(50, 3));
    }

    #[test]
    fn or_row_into_src_less_than_dst_preserves_existing_bits() {
        let mut m = BitMatrix::new(100);
        m.set(1, 3);
        m.set(50, 99);
        m.or_row_into_changed(1, 50); // src < dst branch
        assert!(m.get(50, 3) && m.get(50, 99));
        assert_eq!(m.row_count(50), 2);
        assert_eq!(m.row_count(1), 1); // src row untouched
    }

    #[test]
    fn or_row_into_src_greater_than_dst_preserves_existing_bits() {
        let mut m = BitMatrix::new(100);
        m.set(70, 65);
        m.set(2, 0);
        m.or_row_into_changed(70, 2); // src > dst branch
        assert!(m.get(2, 65) && m.get(2, 0));
        assert_eq!(m.row_count(2), 2);
        assert_eq!(m.row_count(70), 1);
    }

    #[test]
    fn or_row_into_changed_reports_both_directions() {
        let mut m = BitMatrix::new(100);
        m.set(5, 70);
        assert!(m.or_row_into_changed(5, 2)); // src > dst, new bit lands
        assert!(m.get(2, 70));
        assert!(!m.or_row_into_changed(5, 2)); // already subsumed
        m.set(1, 3);
        assert!(m.or_row_into_changed(1, 50)); // src < dst, new bit lands
        assert!(m.get(50, 3));
        assert!(!m.or_row_into_changed(1, 50));
    }

    #[test]
    fn estimated_bytes_is_quadratic() {
        assert_eq!(BitMatrix::estimated_bytes(64), 64 * 8);
        assert_eq!(BitMatrix::estimated_bytes(128), 128 * 2 * 8);
        // 200k records ≈ 10 GB — the Table 8 OOM regime
        assert!(BitMatrix::estimated_bytes(200_000) > 4 * 1024 * 1024 * 1024);
    }

    #[test]
    fn empty_matrix() {
        let m = BitMatrix::new(0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
