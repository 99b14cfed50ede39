//! HyperLogLog: a mergeable cardinality sketch.
//!
//! Dashboard tracks "distinct clients" style metrics with HyperLogLog
//! (§4.1.2 of the LittleTable paper): aggregators store one sketch per
//! (key, period) row in LittleTable, union them across periods or
//! networks, and report cardinality estimates with bounded relative error
//! (≈ 1.04/√m). This is a from-scratch implementation of the Flajolet–
//! Fusy–Gandouet–Meunier estimator with the usual small-range (linear
//! counting) correction.
//!
//! In memory a sketch is always dense, one byte per register. Serialized
//! it takes whichever of two forms is shorter, as in "HyperLogLog in
//! Practice" (Heule et al., EDBT 2013):
//!
//! * **dense**: the precision byte, then all `2^p` registers;
//! * **sparse**: the precision byte with its top bit set, then one 3-byte
//!   big-endian entry `index << 6 | rank` per non-zero register, in
//!   ascending index order (p ≤ 18 and a rank ≤ 61 fit 24 bits).
//!
//! A sketch of few elements — one partial of a rollup group — thus costs
//! a few bytes on disk instead of `1 + 2^p`, and [`HyperLogLog::merge_bytes`]
//! unions either form into an accumulator touching only the registers the
//! bytes list. The registers, and so every estimate, are the same in both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Default precision: 2¹² registers ⇒ ~1.6% standard error, 4 kB dense.
pub const DEFAULT_PRECISION: u8 = 12;

/// Set on the first byte of a serialized sketch in the sparse form.
const SPARSE: u8 = 0x80;

/// A HyperLogLog sketch with `2^precision` 6-bit registers (stored one
/// byte each for simplicity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

/// Why [`HyperLogLog::merge_bytes`] refused a serialized sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// The bytes are a sketch in neither serialized form.
    Undecodable,
    /// The bytes are a sketch of this precision, not the accumulator's.
    Precision(u8),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Undecodable => write!(f, "undecodable HyperLogLog sketch"),
            MergeError::Precision(p) => write!(f, "HyperLogLog sketch of another precision ({p})"),
        }
    }
}

impl std::error::Error for MergeError {}

/// A serialized sketch whose bytes have been checked: every register it
/// names is in range and holds a rank its precision allows.
enum Checked<'a> {
    /// All `2^p` registers.
    Dense(&'a [u8]),
    /// Whole 3-byte entries at strictly ascending indices.
    Sparse(&'a [u8]),
}

/// The register index and rank of one sparse entry.
fn entry(e: &[u8]) -> (usize, u8) {
    let word = u32::from_be_bytes([0, e[0], e[1], e[2]]);
    ((word >> 6) as usize, (word & 0x3F) as u8)
}

/// The precision and registers of `data` in either serialized form, or
/// `None` unless it is one: a precision in `[4, 18]`, no rank past
/// `65 - p`, and in the sparse form no zero rank, strictly ascending
/// indices below `2^p`, and fewer bytes than the dense form (the only
/// sparse bytes [`HyperLogLog::to_bytes`] writes). Allocates nothing.
fn check(data: &[u8]) -> Option<(u8, Checked<'_>)> {
    let (&head, body) = data.split_first()?;
    let precision = head & !SPARSE;
    if !(4..=18).contains(&precision) {
        return None;
    }
    let m = 1usize << precision;
    let max_rank = 65 - precision;
    if head & SPARSE == 0 {
        let ok = body.len() == m && body.iter().all(|&r| r <= max_rank);
        return ok.then_some((precision, Checked::Dense(body)));
    }
    if body.len() % 3 != 0 || body.len() >= m {
        return None;
    }
    let mut next = 0;
    for e in body.chunks_exact(3) {
        let (index, rank) = entry(e);
        if index < next || index >= m || rank == 0 || rank > max_rank {
            return None;
        }
        next = index + 1;
    }
    Some((precision, Checked::Sparse(body)))
}

impl Checked<'_> {
    /// Raises each of `registers` to the rank these bytes hold for it.
    fn union_into(&self, registers: &mut [u8]) {
        match self {
            Checked::Dense(body) => {
                for (a, &b) in registers.iter_mut().zip(*body) {
                    *a = (*a).max(b);
                }
            }
            Checked::Sparse(body) => {
                for e in body.chunks_exact(3) {
                    let (index, rank) = entry(e);
                    registers[index] = registers[index].max(rank);
                }
            }
        }
    }
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

    /// Unions a sketch serialized by [`HyperLogLog::to_bytes`], in either
    /// form, into this one without decoding it into a sketch of its own:
    /// a sparse one touches only the registers it lists. On an error this
    /// sketch is unchanged.
    pub fn merge_bytes(&mut self, data: &[u8]) -> Result<(), MergeError> {
        let (precision, checked) = check(data).ok_or(MergeError::Undecodable)?;
        if precision != self.precision {
            return Err(MergeError::Precision(precision));
        }
        checked.union_into(&mut self.registers);
        Ok(())
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

    /// Serializes the sketch in the shorter of its two forms (see the
    /// crate docs): sparse exactly while `3 × non-zero registers < 2^p`.
    /// The form is a function of the registers, so equal sketches give
    /// equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![self.precision | SPARSE];
        // Eight registers at a time: the zeros of a sparse sketch cost one
        // compare per eight.
        for (at, eight) in self.registers.chunks_exact(8).enumerate() {
            if eight == [0; 8] {
                continue;
            }
            for (i, &rank) in eight.iter().enumerate() {
                if rank != 0 {
                    let word = ((8 * at + i) as u32) << 6 | rank as u32;
                    out.extend_from_slice(&word.to_be_bytes()[1..]);
                }
            }
            if out.len() > self.registers.len() {
                // No shorter than the dense form, which it is then.
                out.clear();
                out.push(self.precision);
                out.extend_from_slice(&self.registers);
                return out;
            }
        }
        out
    }

    /// Deserializes a sketch in either form, checking the bytes before
    /// allocating its `2^p` registers. Dense bytes are accepted whatever
    /// the sketch's size, so sketches stored before the sparse form
    /// existed still decode.
    pub fn from_bytes(data: &[u8]) -> Option<HyperLogLog> {
        let (precision, checked) = check(data)?;
        let mut registers = vec![0; 1 << precision];
        checked.union_into(&mut registers);
        Some(HyperLogLog {
            precision,
            registers,
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

    /// A sketch at `precision` with exactly `set` registers non-zero,
    /// spread over the sketch, their ranks drawn from `seed` over every
    /// rank the precision allows.
    fn with_set(precision: u8, set: usize, seed: u64) -> HyperLogLog {
        let mut h = HyperLogLog::new(precision);
        let m = h.num_registers();
        let mut x = seed;
        for k in 0..set {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 7919 is odd, so `k * 7919 mod m` visits each index once.
            h.registers[k * 7919 % m] = 1 + (x >> 32) as u8 % (65 - precision);
        }
        h
    }

    fn nonzero(h: &HyperLogLog) -> usize {
        h.registers.iter().filter(|&&r| r != 0).count()
    }

    /// `h`'s bytes are the canonical ones: sparse exactly while
    /// `3 × non-zero < 2^p`, never longer than dense, and decoding them
    /// gives `h` back.
    fn assert_canonical(h: &HyperLogLog) {
        let bytes = h.to_bytes();
        let (set, m) = (nonzero(h), h.num_registers());
        assert_eq!(m, 1 << h.precision);
        let sparse = 3 * set < m;
        assert_eq!(bytes[0] & SPARSE != 0, sparse, "{set} of {m} set");
        assert_eq!(bytes.len(), if sparse { 1 + 3 * set } else { 1 + m });
        assert!(bytes.len() <= 1 + m);
        assert_eq!(HyperLogLog::from_bytes(&bytes).as_ref(), Some(h));
    }

    /// What the decoders may make of `data`: nothing, or a sketch that
    /// re-encodes canonically, whose one allocation is its `2^p`
    /// registers. `merge_bytes` into `scratch` (equal to `acc` on entry
    /// and on return) accepts exactly what `from_bytes` decodes at the
    /// accumulator's precision, unions what `merge` would, and on refusal
    /// leaves the accumulator as it was.
    fn check_hostile(
        data: &[u8],
        acc: &HyperLogLog,
        scratch: &mut HyperLogLog,
        what: &dyn Fn() -> String,
    ) {
        let decoded = HyperLogLog::from_bytes(data);
        if let Some(h) = &decoded {
            assert_eq!(h.registers.capacity(), 1 << h.precision, "{}", what());
            assert_canonical(h);
        }
        match (scratch.merge_bytes(data), &decoded) {
            (Ok(()), Some(h)) => {
                let mut want = acc.clone();
                want.merge(h);
                assert!(*scratch == want, "{}", what());
                scratch.registers.copy_from_slice(&acc.registers);
            }
            (Err(MergeError::Precision(p)), Some(h)) => {
                assert_eq!(p, h.precision, "{}", what());
                assert_ne!(p, acc.precision, "{}", what());
            }
            (Err(MergeError::Undecodable), None) => {}
            (got, _) => panic!("{}: merge_bytes {got:?}, from_bytes {decoded:?}", what()),
        }
        assert!(
            scratch == acc,
            "{}: a refusal changed the accumulator",
            what()
        );
    }

    /// Every truncation of `h`'s bytes, and every single-bit flip of the
    /// bytes `flip` selects, through both decoders.
    fn sweep(h: &HyperLogLog, flip: impl Fn(usize) -> bool) {
        let bytes = h.to_bytes();
        let mut acc = HyperLogLog::new(h.precision);
        acc.add_hash(0x0123_4567_89AB_CDEF);
        let mut scratch = acc.clone();
        for cut in 0..bytes.len() {
            check_hostile(&bytes[..cut], &acc, &mut scratch, &|| {
                format!("cut at {cut}")
            });
        }
        let mut flipped = bytes.clone();
        for at in (0..bytes.len()).filter(|&at| flip(at)) {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                let what = || format!("byte {at} bit {bit} flipped");
                check_hostile(&flipped, &acc, &mut scratch, &what);
                flipped[at] ^= 1 << bit;
            }
        }
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
    fn merge_bytes_refuses_another_precision_and_garbage() {
        let mut a = filled(0..10);
        let before = a.clone();
        let other = HyperLogLog::new(10);
        assert_eq!(
            a.merge_bytes(&other.to_bytes()),
            Err(MergeError::Precision(10))
        );
        assert_eq!(a.merge_bytes(&[1, 2, 3]), Err(MergeError::Undecodable));
        assert_eq!(a.merge_bytes(&[]), Err(MergeError::Undecodable));
        assert_eq!(a, before);
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
        let mut bad = filled(0..100_000).to_bytes();
        assert_eq!(bad[0], 12, "dense");
        bad[1] = 60;
        assert!(HyperLogLog::from_bytes(&bad).is_none());
    }

    /// The sparse form's boundaries: entries out of order, repeated, past
    /// the last register, of rank 0 or past the maximum, a partial entry,
    /// and a sparse form no shorter than the dense one are all refused.
    #[test]
    fn malformed_sparse_bytes_are_refused() {
        let sparse = |entries: &[(u32, u32)]| {
            let mut out = vec![4 | SPARSE];
            for &(index, rank) in entries {
                out.extend_from_slice(&(index << 6 | rank).to_be_bytes()[1..]);
            }
            out
        };
        let good = sparse(&[(1, 3), (15, 61)]);
        let h = HyperLogLog::from_bytes(&good).unwrap();
        assert_eq!(h.registers[1], 3);
        assert_eq!(h.registers[15], 61);
        assert_eq!(h.to_bytes(), good);
        assert_eq!(
            HyperLogLog::from_bytes(&[4 | SPARSE]).unwrap(),
            HyperLogLog::new(4)
        );
        for bad in [
            sparse(&[(15, 1), (1, 1)]),
            sparse(&[(1, 1), (1, 2)]),
            sparse(&[(16, 1)]),
            sparse(&[(1, 0)]),
            sparse(&[(1, 62)]),
            sparse(&[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
            good[..good.len() - 1].to_vec(),
        ] {
            assert!(HyperLogLog::from_bytes(&bad).is_none(), "{bad:?}");
        }
    }

    /// Never longer than dense, and sparse exactly while `3 × non-zero
    /// registers < 2^p`: at every count of set registers around the
    /// boundary and at both ends, at the three precisions.
    #[test]
    fn sparse_exactly_while_shorter_than_dense() {
        for p in [4u8, 12, 18] {
            let m = 1usize << p;
            let edge = m.div_ceil(3);
            let counts = [0, 1, 2, edge - 2, edge - 1, edge, edge + 1, m - 1, m];
            for set in counts {
                let h = with_set(p, set, set as u64);
                assert_eq!(nonzero(&h), set);
                assert_canonical(&h);
                assert_eq!(h.to_bytes()[0] & SPARSE != 0, set < edge, "p={p} set={set}");
            }
        }
        // The usual sketches: one element, and many.
        assert_eq!(filled(0..1).to_bytes().len(), 4);
        assert_eq!(filled(0..100_000).to_bytes().len(), 4097);
    }

    /// Dense bytes exactly as they were written before the sparse form
    /// existed — a sketch of one element, `add_bytes(b"client-0")`, at
    /// the default precision — decode to the same registers and
    /// re-encode sparse.
    #[test]
    fn old_dense_bytes_decode_and_re_encode_sparse() {
        let mut old = vec![0u8; 4097];
        old[0] = 12;
        old[1 + 0x2B0] = 3;
        let h = HyperLogLog::from_bytes(&old).unwrap();
        assert_eq!(h, filled(0..1));
        // Register 0x2B0 at rank 3: 0x2B0 << 6 | 3.
        assert_eq!(h.to_bytes(), [12 | SPARSE, 0x00, 0xAC, 0x03]);
        let mut acc = HyperLogLog::default_precision();
        acc.merge_bytes(&old).unwrap();
        assert_eq!(acc, h);
    }

    /// Every truncation and every bit flip of both forms at p = 4 and 12,
    /// each on both sides of the boundary between the forms, and of the
    /// sparse form at p = 18. The dense form at p = 18 (262 145 bytes)
    /// takes every truncation, and every flip of its header and of 8
    /// registers spread over it: the decoder treats every register alike,
    /// and `prop_hostile_dense_p18` flips at random positions.
    #[test]
    fn hostile_sketch_bytes_decode_canonically_or_not_at_all() {
        for set in [0, 1, 5, 6, 16] {
            sweep(&with_set(4, set, 7), |_| true);
        }
        for set in [1, 1365, 1366] {
            sweep(&with_set(12, set, 7), |_| true);
        }
        sweep(&with_set(18, 0, 7), |_| true);
        sweep(&with_set(18, 8, 7), |_| true);
        sweep(&with_set(18, 1 << 17, 7), |at| at < 2 || at % 32_768 == 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

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

        /// Every sketch, in whichever form it takes, decodes to itself,
        /// and unions through `merge_bytes` as through `merge`.
        fn prop_round_trip_and_merge_bytes(
            pick in 0usize..4,
            xs in proptest::collection::vec(any::<u64>(), 0..3_000),
            ys in proptest::collection::vec(any::<u64>(), 0..50),
        ) {
            let p = [4u8, 8, 12, 18][pick];
            let mut a = HyperLogLog::new(p);
            let mut b = HyperLogLog::new(p);
            for &x in &xs { a.add_hash(x); }
            for &y in &ys { b.add_hash(y); }
            prop_assert_eq!(HyperLogLog::from_bytes(&a.to_bytes()).as_ref(), Some(&a));
            assert_canonical(&a);
            let mut direct = b.clone();
            direct.merge(&a);
            let mut via_bytes = b.clone();
            prop_assert_eq!(via_bytes.merge_bytes(&a.to_bytes()), Ok(()));
            prop_assert_eq!(via_bytes, direct);
        }

        /// Random truncations and bit flips of dense sketches at p = 18,
        /// beyond the fixed sample the sweep takes.
        fn prop_hostile_dense_p18(
            seed in any::<u64>(),
            cut in 0usize..=262_145,
            flips in proptest::collection::vec((0usize..262_145, 0u8..8), 1..4),
        ) {
            let h = with_set(18, 1 << 17, seed);
            let mut acc = HyperLogLog::new(18);
            acc.add_hash(seed);
            let mut scratch = acc.clone();
            let bytes = h.to_bytes();
            check_hostile(&bytes[..cut], &acc, &mut scratch, &|| format!("cut at {cut}"));
            let mut flipped = bytes;
            for &(at, bit) in &flips {
                flipped[at] ^= 1 << bit;
            }
            check_hostile(&flipped, &acc, &mut scratch, &|| format!("flips {flips:?}"));
        }

        /// Serialization must be lossless under merge: merging sketches
        /// that went through a to_bytes/from_bytes round trip gives the
        /// exact same registers — and therefore the exact same estimate —
        /// as merging the originals, and that estimate stays within the
        /// usual HLL error bound of the true union cardinality. This is
        /// what rollup tablets rely on when they persist sketches as
        /// blobs and fold them back together at query time.
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
