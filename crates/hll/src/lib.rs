//! HyperLogLog: a fixed-size, mergeable cardinality sketch.
//!
//! Dashboard tracks "distinct clients" style metrics with HyperLogLog
//! (§4.1.2 of the LittleTable paper): aggregators store one sketch per
//! (key, period) row in LittleTable, union them across periods or
//! networks, and report cardinality estimates with bounded relative error
//! (≈ 1.04/√m). This is a from-scratch implementation of the Flajolet–
//! Fusy–Gandouet–Meunier estimator with the usual small-range (linear
//! counting) correction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Default precision: 2¹² registers ⇒ ~1.6% standard error, 4 kB dense.
pub const DEFAULT_PRECISION: u8 = 12;

/// A HyperLogLog sketch with `2^precision` 6-bit registers (stored one
/// byte each for simplicity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an empty sketch. `precision` must be in `[4, 18]`.
    pub fn new(precision: u8) -> Self {
        assert!(
            (4..=18).contains(&precision),
            "precision must be in [4, 18]"
        );
        HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// An empty sketch at [`DEFAULT_PRECISION`].
    pub fn default_precision() -> Self {
        Self::new(DEFAULT_PRECISION)
    }

    /// The sketch precision.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Adds an element by its 64-bit hash. Use a well-mixed hash (e.g.
    /// `littletable_core::util::hash_bytes`-style finalizers).
    pub fn add_hash(&mut self, hash: u64) {
        let p = self.precision as u32;
        let idx = (hash >> (64 - p)) as usize;
        let rest = hash << p;
        // Rank: position of the leftmost 1 in the remaining bits, 1-based;
        // all-zero remainder gets the maximum rank.
        let rank = (rest.leading_zeros() + 1).min(64 - p + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Adds raw bytes, hashing them internally (FNV-1a + avalanche).
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // splitmix64 finalizer for avalanche.
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.add_hash(h ^ (h >> 31));
    }

    /// Unions another sketch into this one. Both must share a precision.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge sketches of different precision"
        );
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Estimates the number of distinct elements added.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 1.0f64 / (1u64 << r) as f64)
            .sum();
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting while registers are
        // mostly empty.
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Serializes the sketch (1 byte precision + registers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.registers.len());
        out.push(self.precision);
        out.extend_from_slice(&self.registers);
        out
    }

    /// Deserializes a sketch written by [`HyperLogLog::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Option<HyperLogLog> {
        let (&precision, registers) = data.split_first()?;
        if !(4..=18).contains(&precision) || registers.len() != 1 << precision {
            return None;
        }
        let max_rank = 64 - precision as u32 + 1;
        if registers.iter().any(|&r| r as u32 > max_rank) {
            return None;
        }
        Some(HyperLogLog {
            precision,
            registers: registers.to_vec(),
        })
    }

    /// The theoretical relative standard error for this precision,
    /// ≈ 1.04/√m.
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filled(range: std::ops::Range<u64>) -> HyperLogLog {
        let mut h = HyperLogLog::default_precision();
        for i in range {
            h.add_bytes(format!("client-{i}").as_bytes());
        }
        h
    }

    #[test]
    fn empty_estimates_zero() {
        let h = HyperLogLog::default_precision();
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn small_counts_are_near_exact() {
        for n in [1u64, 5, 50, 500] {
            let h = filled(0..n);
            let est = h.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.05, "n={n} est={est}");
        }
    }

    #[test]
    fn large_counts_within_error_bounds() {
        for n in [10_000u64, 100_000, 1_000_000] {
            let h = filled(0..n);
            let est = h.estimate();
            let err = (est - n as f64).abs() / n as f64;
            // 5 sigma of the theoretical error.
            assert!(err < 5.0 * h.standard_error(), "n={n} est={est} err={err}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::default_precision();
        for _ in 0..100 {
            for i in 0..100u64 {
                h.add_bytes(format!("dup-{i}").as_bytes());
            }
        }
        let est = h.estimate();
        assert!((est - 100.0).abs() < 10.0, "est={est}");
    }

    #[test]
    fn merge_equals_union() {
        let a = filled(0..10_000);
        let b = filled(5_000..15_000);
        let mut u = a.clone();
        u.merge(&b);
        let est = u.estimate();
        let err = (est - 15_000.0).abs() / 15_000.0;
        assert!(err < 5.0 * u.standard_error(), "est={est}");
        // Merging is idempotent.
        let mut again = u.clone();
        again.merge(&b);
        assert_eq!(again, u);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_precision() {
        let mut a = HyperLogLog::new(10);
        let b = HyperLogLog::new(12);
        a.merge(&b);
    }

    #[test]
    fn serialization_round_trips() {
        let h = filled(0..1000);
        let bytes = h.to_bytes();
        let back = HyperLogLog::from_bytes(&bytes).unwrap();
        assert_eq!(h, back);
        assert!(HyperLogLog::from_bytes(&[]).is_none());
        assert!(HyperLogLog::from_bytes(&[12, 0, 0]).is_none());
        // Corrupt register value past the max rank.
        let mut bad = bytes.clone();
        bad[1] = 60;
        assert!(HyperLogLog::from_bytes(&bad).is_none());
    }

    #[test]
    fn fixed_size_regardless_of_cardinality() {
        let small = filled(0..10);
        let large = filled(0..100_000);
        assert_eq!(small.to_bytes().len(), large.to_bytes().len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_merge_is_commutative(
            xs in proptest::collection::vec(any::<u64>(), 0..500),
            ys in proptest::collection::vec(any::<u64>(), 0..500),
        ) {
            let mut a = HyperLogLog::new(8);
            let mut b = HyperLogLog::new(8);
            for &x in &xs { a.add_hash(x); }
            for &y in &ys { b.add_hash(y); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn prop_estimate_monotone_under_merge(
            xs in proptest::collection::vec(any::<u64>(), 1..500),
        ) {
            let mut a = HyperLogLog::new(8);
            for &x in &xs { a.add_hash(x); }
            let before = a.estimate();
            let mut b = HyperLogLog::new(8);
            b.add_hash(0xDEAD_BEEF);
            a.merge(&b);
            prop_assert!(a.estimate() >= before - 1e-9);
        }

        /// Serialization must be lossless under merge: merging sketches
        /// that went through a to_bytes/from_bytes round trip gives the
        /// exact same registers — and therefore the exact same estimate —
        /// as merging the originals, and that estimate stays within the
        /// usual HLL error bound of the true union cardinality. This is
        /// what rollup tablets rely on when they persist sketches as
        /// blobs and fold them back together at query time.
        #[test]
        fn prop_round_trip_then_merge_keeps_error_bound(
            xs in proptest::collection::vec(any::<u64>(), 0..2_000),
            ys in proptest::collection::vec(any::<u64>(), 0..2_000),
        ) {
            let mut a = HyperLogLog::default_precision();
            let mut b = HyperLogLog::default_precision();
            for &x in &xs { a.add_hash(x); }
            for &y in &ys { b.add_hash(y); }
            let a2 = HyperLogLog::from_bytes(&a.to_bytes()).unwrap();
            let b2 = HyperLogLog::from_bytes(&b.to_bytes()).unwrap();
            prop_assert_eq!(&a2, &a);
            let mut direct = a.clone();
            direct.merge(&b);
            let mut rt = a2;
            rt.merge(&b2);
            prop_assert_eq!(&rt, &direct);
            let truth = xs.iter().chain(ys.iter())
                .collect::<std::collections::HashSet<_>>().len() as f64;
            // 1.04/sqrt(2^14) ≈ 0.8%; allow a wide 10% + slack margin so
            // the test never flakes while still catching gross corruption.
            let tolerance = (truth * 0.10).max(16.0);
            prop_assert!(
                (rt.estimate() - truth).abs() <= tolerance,
                "estimate {} vs truth {}", rt.estimate(), truth
            );
        }
    }
}
