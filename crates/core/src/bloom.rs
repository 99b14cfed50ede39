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
//! It is sized by the distinct prefixes it holds, so on a
//! `(network, device, ts)` key, where the first two prefixes repeat from
//! row to row, it costs about 10 bits per row, not 30.

use crate::error::{Error, Result};
use crate::util::{mix64, put_varint, Reader};

/// Most hash probes per element a filter may use.
const MAX_K: u32 = 16;

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
}

impl BloomBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pre-hashed element (see [`crate::util::hash_bytes`]). The
    /// caller adds each element once: every hash added buys the filter
    /// `bits_per_key` more bits.
    pub fn add_hash(&mut self, h: u64) {
        self.hashes.push(h);
    }

    /// Finalizes into a filter of `bits_per_key` bits per hash added,
    /// rounded up to whole 64-bit words (the paper suggests 10, giving ~1%
    /// false positives).
    pub fn build(self, bits_per_key: u32) -> BloomFilter {
        let n = self.hashes.len().max(1) as u64;
        let num_bits = (n * bits_per_key as u64).max(64);
        let words = num_bits.div_ceil(64);
        let num_bits = words * 64;
        // k = bits_per_key * ln 2 ≈ 0.69 * bits_per_key, clamped sanely.
        let k = ((bits_per_key as f64 * 0.69).round() as u32).clamp(1, MAX_K);
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

    /// Decodes a filter written by [`BloomFilter::encode`]. The size is
    /// the word count's, whatever size a later writer would pick. A
    /// filter no writer could produce — no words, a `k` outside
    /// `1..=16`, more words than bytes left — is corruption.
    pub fn decode(r: &mut Reader<'_>) -> Result<BloomFilter> {
        let k = r.varint()?;
        if !(1..=MAX_K as u64).contains(&k) {
            return Err(Error::corrupt(format!("bloom filter k {k}")));
        }
        let words = r.varint()?;
        if words == 0 || words > (r.remaining() / 8) as u64 {
            return Err(Error::corrupt(format!("bloom filter of {words} words")));
        }
        let mut bits = Vec::with_capacity(words as usize);
        for _ in 0..words {
            bits.push(r.u64()?);
        }
        Ok(BloomFilter {
            num_bits: bits.len() as u64 * 64,
            bits,
            k: k as u32,
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

    /// `k`, the word count, then the words.
    fn crafted(k: u64, words: u64, word_bytes: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, k);
        put_varint(&mut buf, words);
        buf.resize(buf.len() + word_bytes, 0xA5);
        buf
    }

    #[test]
    fn decode_refuses_filters_no_writer_produces() {
        let corrupt = |buf: &[u8]| {
            let got = BloomFilter::decode(&mut Reader::new(buf));
            assert!(matches!(got, Err(Error::Corrupt(_))), "{got:?}");
        };
        // No words: every probe would take a position modulo zero.
        corrupt(&crafted(7, 0, 0));
        // k = 0 answers "maybe" to everything; a huge k (or one that
        // truncates to a small one) probes for ever.
        for k in [0, 17, u32::MAX as u64 + 7, u64::MAX] {
            corrupt(&crafted(k, 1, 8));
        }
        // More words than bytes: refused before anything is reserved.
        corrupt(&crafted(7, u64::MAX, 8));
        corrupt(&crafted(7, 2, 15));
        // The edges still decode.
        for k in [1, 16] {
            let f = BloomFilter::decode(&mut Reader::new(&crafted(k, 2, 16))).unwrap();
            assert_eq!((f.k, f.byte_size()), (k as u32, 16));
        }
    }

    #[test]
    fn truncated_or_flipped_filters_decode_or_fail_without_panicking() {
        let mut b = BloomBuilder::new();
        for i in 0..40u64 {
            b.add_hash(mix64(i));
        }
        let mut buf = Vec::new();
        b.build(10).encode(&mut buf);
        let probe = |bytes: &[u8]| {
            if let Ok(f) = BloomFilter::decode(&mut Reader::new(bytes)) {
                for i in 0..64u64 {
                    f.may_contain(mix64(i));
                }
            }
        };
        for len in 0..buf.len() {
            assert!(BloomFilter::decode(&mut Reader::new(&buf[..len])).is_err());
        }
        for bit in 0..buf.len() * 8 {
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            probe(&flipped);
        }
    }

    #[test]
    fn empty_builder_builds_usable_filter() {
        let f = BloomBuilder::new().build(10);
        // May return anything, but must not panic and should usually say no.
        assert!(!f.may_contain(hash_bytes(b"anything")));
    }
}
