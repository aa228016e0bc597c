//! Deterministic pseudo-random number generation.
//!
//! The simulator's scheduler and the in-repo property-test harnesses need
//! reproducible randomness, not cryptographic quality. This is SplitMix64
//! (Steele, Lea & Flood — the seeding generator of `java.util.SplittableRandom`
//! and of `rand`'s own `seed_from_u64`): one 64-bit state word, passes
//! BigCrush, and every seed gives an independent full-period stream.

/// A small deterministic PRNG (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed. Equal seeds produce equal
    /// streams on every platform.
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        SmallRng { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Uses the widening-multiply method
    /// with rejection, so the distribution is exactly uniform.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_range(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range bound must be positive");
        let bound = bound as u64;
        // Lemire's nearly-divisionless method: the rejection zone is the
        // low words below `2⁶⁴ mod bound`, which is less than `bound`, so
        // the division is needed only for a low word below `bound`.
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        let span = hi.wrapping_sub(lo) as u64 as usize;
        lo.wrapping_add(self.gen_range(span) as i64)
    }

    /// Uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Returns `true` with probability `num / den`.
    pub fn gen_ratio(&mut self, num: usize, den: usize) -> bool {
        self.gen_range(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
    }

    #[test]
    fn gen_range_i64_handles_negative_spans() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let v = r.gen_range_i64(-5, 5);
            assert!((-5..5).contains(&v));
        }
    }

    /// `gen_range`'s stream, folded into one FNV-1a value: three seeds,
    /// bounds from 1 up to `usize::MAX`. Near `2⁶³` and `2⁶⁴` a draw falls
    /// in the rejection zone often, so the value also pins which draws the
    /// loop throws away.
    #[test]
    fn gen_range_stream_is_pinned() {
        let bounds = [1, 2, 3, 10, 1_000, (1 << 32) + 1, (1 << 63) + 1, usize::MAX];
        let (mut h, mut draws) = (0xcbf2_9ce4_8422_2325_u64, 0);
        for seed in [0, 7, 0xdead_beef] {
            let mut r = SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                for bound in bounds {
                    let v = r.gen_range(bound);
                    assert!(v < bound);
                    for b in (v as u64).to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            let mut raw = SmallRng::seed_from_u64(seed);
            while raw != r {
                raw.next_u64();
                draws += 1;
            }
        }
        assert_eq!(h, 0x98c1_d81b_9643_f893);
        let rejected = draws - 3 * 64 * bounds.len();
        assert!(rejected > 0, "no draw fell in a rejection zone");
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 1234567 from the SplitMix64 paper's
        // public-domain C implementation.
        let mut r = SmallRng::seed_from_u64(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }
}
