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

    /// `row dst |= row src` — the join of an HB edge `src ⇒ dst`, which
    /// points forward, so `src`'s row is final by then.
    pub(crate) fn or_row_into(&mut self, src: usize, dst: usize) {
        debug_assert!(src < dst && dst < self.n, "HB edges point forward");
        let (left, right) = self.data.split_at_mut(dst * self.words);
        let src = &left[src * self.words..][..self.words];
        for (d, s) in right[..self.words].iter_mut().zip(src) {
            *d |= s;
        }
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
    fn or_row_into_src_less_than_dst_preserves_existing_bits() {
        let mut m = BitMatrix::new(100);
        m.set(1, 3);
        m.set(50, 99);
        m.or_row_into(1, 50);
        assert!(m.get(50, 3) && m.get(50, 99));
        assert_eq!(m.row_count(50), 2);
        assert_eq!(m.row_count(1), 1); // src row untouched
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
