//! Per-tablet Bloom filters over primary keys.
//!
//! §3.4.5 of the paper proposes (as an extension) storing a Bloom filter
//! with each on-disk tablet so that latest-row-for-prefix queries and
//! insert-time uniqueness checks can skip the ~99% of tablets that cannot
//! contain a matching key, at roughly 10 bits per row. This implements that
//! extension; it is switchable in [`crate::Options`] so the ablation bench
//! can measure its effect.
//!
//! Because prefix queries need to test *prefixes* and not only full keys,
//! the filter stores one entry per key prefix at each component boundary
//! (the engine feeds it every boundary — key components self-delimit).

use crate::error::Result;
use crate::util::{mix64, put_varint, Reader};

/// A classic Bloom filter with double hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    k: u32,
}

/// Incrementally builds a [`BloomFilter`] once the element count is known
/// only at the end: collects hashes, then sizes the table.
#[derive(Debug, Default)]
pub struct BloomBuilder {
    hashes: Vec<u64>,
    /// Elements added again after their hash was already collected: they
    /// count towards the filter's size (it is sized per element added)
    /// but set no bit the first copy does not.
    repeats: u64,
}

impl BloomBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pre-hashed element (see [`crate::util::hash_bytes`]).
    pub fn add_hash(&mut self, h: u64) {
        self.hashes.push(h);
    }

    /// Counts `n` more elements whose hashes were each added before — by
    /// [`BloomBuilder::add_hash`] — without storing them again. The built
    /// filter is the one `n` further `add_hash` calls would have given.
    pub fn add_repeats(&mut self, n: usize) {
        self.repeats += n as u64;
    }

    /// Number of elements added so far, repeats included.
    pub fn len(&self) -> usize {
        self.hashes.len() + self.repeats as usize
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes into a filter using `bits_per_key` bits per element
    /// (the paper suggests 10, giving ~1% false positives).
    pub fn build(self, bits_per_key: u32) -> BloomFilter {
        let n = self.len().max(1) as u64;
        let num_bits = (n * bits_per_key as u64).max(64);
        let words = num_bits.div_ceil(64);
        let num_bits = words * 64;
        // k = bits_per_key * ln 2 ≈ 0.69 * bits_per_key, clamped sanely.
        let k = ((bits_per_key as f64 * 0.69).round() as u32).clamp(1, 16);
        let mut f = BloomFilter {
            bits: vec![0; words as usize],
            num_bits,
            k,
        };
        for h in self.hashes {
            f.insert_hash(h);
        }
        f
    }
}

impl BloomFilter {
    fn insert_hash(&mut self, h1: u64) {
        let h2 = mix64(h1) | 1; // odd stride
        let mut pos = h1;
        for _ in 0..self.k {
            let bit = pos % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            pos = pos.wrapping_add(h2);
        }
    }

    /// True when the element *may* have been inserted; false means it
    /// definitely was not.
    pub fn may_contain(&self, h1: u64) -> bool {
        let h2 = mix64(h1) | 1;
        let mut pos = h1;
        for _ in 0..self.k {
            let bit = pos % self.num_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
            pos = pos.wrapping_add(h2);
        }
        true
    }

    /// Size of the bit table in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// Serializes the filter.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.k as u64);
        put_varint(out, self.bits.len() as u64);
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a filter written by [`BloomFilter::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<BloomFilter> {
        let k = r.varint()? as u32;
        let words = r.varint()? as usize;
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(r.u64()?);
        }
        Ok(BloomFilter {
            num_bits: bits.len() as u64 * 64,
            bits,
            k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::hash_bytes;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<String> = (0..10_000).map(|i| format!("key-{i}")).collect();
        let mut b = BloomBuilder::new();
        for k in &keys {
            b.add_hash(hash_bytes(k.as_bytes()));
        }
        let f = b.build(10);
        for k in &keys {
            assert!(f.may_contain(hash_bytes(k.as_bytes())));
        }
    }

    #[test]
    fn false_positive_rate_near_one_percent() {
        let mut b = BloomBuilder::new();
        for i in 0..10_000 {
            b.add_hash(hash_bytes(format!("present-{i}").as_bytes()));
        }
        let f = b.build(10);
        let fp = (0..10_000)
            .filter(|i| f.may_contain(hash_bytes(format!("absent-{i}").as_bytes())))
            .count();
        // ~1% expected; allow generous slack.
        assert!(fp < 300, "false positive count {fp}");
    }

    #[test]
    fn ten_bits_per_key_storage_cost() {
        let mut b = BloomBuilder::new();
        for i in 0..1_000u32 {
            b.add_hash(mix64(i as u64));
        }
        let f = b.build(10);
        assert!(f.byte_size() <= 1_000 * 10 / 8 + 8);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut b = BloomBuilder::new();
        for i in 0..100u64 {
            b.add_hash(mix64(i));
        }
        let f = b.build(10);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let back = BloomFilter::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn repeats_build_the_filter_that_adding_again_would() {
        let mut again = BloomBuilder::new();
        let mut counted = BloomBuilder::new();
        for i in 0..500u64 {
            again.add_hash(mix64(i / 7));
            if i % 7 == 0 {
                counted.add_hash(mix64(i / 7));
            } else {
                counted.add_repeats(1);
            }
        }
        assert_eq!(again.len(), counted.len());
        assert_eq!(again.build(10), counted.build(10));
    }

    #[test]
    fn empty_builder_builds_usable_filter() {
        let f = BloomBuilder::new().build(10);
        // May return anything, but must not panic and should usually say no.
        assert!(!f.may_contain(hash_bytes(b"anything")));
    }
}
