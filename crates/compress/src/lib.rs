//! Fast byte-oriented block compression for LittleTable tablets.
//!
//! The paper compresses each 64 kB tablet block and the tablet footer with
//! LZO1X-1. This crate provides a codec with the same role and a similar
//! cost profile: an LZ77-family format with greedy hash-table matching on
//! the compression side and run copies on the decompression side — the
//! literals and every match go out as slice copies, an overlapping match
//! in whole periods of its offset, never a byte at a time. The format is
//! self-terminating but, like LZO and LZ4 block formats, callers must
//! supply the decompressed size — which LittleTable stores alongside
//! every compressed region. A size the input cannot expand to (more than
//! 255 bytes out per byte in) is refused before anything is allocated, so
//! a corrupt size field cannot drive a huge reservation; a reader that
//! decompresses block after block can keep one buffer
//! ([`decompress_into`]).
//!
//! Format: a sequence of *sequences*. Each sequence is
//!
//! ```text
//! [token] [lit-len ext]* [literals] [offset lo] [offset hi] [match-len ext]*
//! ```
//!
//! where the token's high nibble is the literal count (15 ⇒ continued in
//! 255-valued extension bytes) and the low nibble is the match length minus
//! the 4-byte minimum (15 ⇒ continued likewise). The final sequence carries
//! literals only. Offsets are 16-bit little-endian and relative to the
//! current output position.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Minimum match length the encoder will emit.
const MIN_MATCH: usize = 4;
/// Maximum backreference distance.
const MAX_OFFSET: usize = 65_535;
/// log2 of the encoder hash-table size.
const HASH_BITS: u32 = 14;

/// Errors returned by [`decompress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The compressed stream ended in the middle of a sequence.
    Truncated,
    /// A backreference pointed before the start of the output.
    BadOffset,
    /// The stream decoded to a different length than the caller expected.
    LengthMismatch,
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadOffset => write!(f, "backreference before start of output"),
            DecompressError::LengthMismatch => write!(f, "decompressed length mismatch"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// An upper bound on the compressed size of `n` input bytes: incompressible
/// input costs its own length plus token and extension overhead.
pub fn max_compressed_len(n: usize) -> usize {
    n + n / 255 + 16
}

#[inline]
fn hash4(v: u32) -> usize {
    // Fibonacci hashing; the multiplier spreads low-entropy inputs well.
    ((v.wrapping_mul(2_654_435_761)) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap())
}

fn write_len_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    let lit_nibble = literals.len().min(15);
    let match_nibble = (match_len - MIN_MATCH).min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        write_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if match_nibble == 15 {
        write_len_ext(out, match_len - MIN_MATCH - 15);
    }
}

fn emit_final(out: &mut Vec<u8>, literals: &[u8]) {
    // A final sequence has no match part; its token's low nibble is ignored.
    let lit_nibble = literals.len().min(15);
    out.push((lit_nibble as u8) << 4);
    if lit_nibble == 15 {
        write_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Compresses `input`, appending to `out`. Returns the number of bytes
/// appended.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let n = input.len();
    if n <= MIN_MATCH {
        emit_final(out, input);
        return out.len() - start;
    }
    let mut table = vec![u32::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut anchor = 0usize;
    // Leave room so the 4-byte loads below stay in bounds.
    let limit = n - MIN_MATCH;
    while pos <= limit {
        let v = read_u32(input, pos);
        let h = hash4(v);
        let cand = table[h] as usize;
        table[h] = pos as u32;
        if cand != u32::MAX as usize
            && pos - cand <= MAX_OFFSET
            && pos != cand
            && read_u32(input, cand) == v
        {
            // Extend the match forward.
            let mut len = MIN_MATCH;
            while pos + len < n && input[cand + len] == input[pos + len] {
                len += 1;
            }
            emit_sequence(out, &input[anchor..pos], pos - cand, len);
            pos += len;
            anchor = pos;
        } else {
            pos += 1;
        }
    }
    emit_final(out, &input[anchor..]);
    out.len() - start
}

/// Compresses `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + input.len() / 2);
    compress_into(input, &mut out);
    out
}

fn read_len_ext(input: &[u8], pos: &mut usize, base: usize) -> Result<usize, DecompressError> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *input.get(*pos).ok_or(DecompressError::Truncated)?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// The most output a sequence can make per byte of its input: a match
/// length extension byte of 255 adds 255 bytes and nothing else does
/// more (a sequence's 3-byte token and offset cover its ≤ 18-byte base
/// match length; a literal is one byte out for one in).
const MAX_EXPANSION: usize = 255;

/// Decompresses `input`, which must decode to exactly `expected_len` bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::new();
    decompress_into(input, expected_len, &mut out)?;
    Ok(out)
}

/// [`decompress`] into `out`, which is cleared first: a caller that
/// decompresses block after block reuses one buffer's capacity.
///
/// A length `input` cannot expand to is refused before anything is
/// reserved. A match is copied a run at a time (`extend_from_within`);
/// one that overlaps its own output (offset < length) repeats the
/// `offset`-byte period, copying whole periods, as many as are already
/// written, at a time.
pub fn decompress_into(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), DecompressError> {
    out.clear();
    if expected_len > input.len().saturating_mul(MAX_EXPANSION) {
        return Err(if input.is_empty() {
            DecompressError::Truncated
        } else {
            DecompressError::LengthMismatch
        });
    }
    out.reserve(expected_len);
    if input.is_empty() {
        return Ok(());
    }
    let mut pos = 0usize;
    loop {
        let token = *input.get(pos).ok_or(DecompressError::Truncated)?;
        pos += 1;
        let lit_len = read_len_ext(input, &mut pos, (token >> 4) as usize)?;
        if pos + lit_len > input.len() {
            return Err(DecompressError::Truncated);
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;
        if pos == input.len() {
            break; // final, literals-only sequence
        }
        if pos + 2 > input.len() {
            return Err(DecompressError::Truncated);
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        let match_len = read_len_ext(input, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
        if offset == 0 || offset > out.len() {
            return Err(DecompressError::BadOffset);
        }
        if out.len() + match_len > expected_len {
            return Err(DecompressError::LengthMismatch);
        }
        let start = out.len() - offset;
        let end = out.len() + match_len;
        while out.len() < end {
            let copy = (out.len() - start).min(end - out.len());
            out.extend_from_within(start..start + copy);
        }
    }
    if out.len() != expected_len {
        return Err(DecompressError::LengthMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_round_trips() {
        round_trip(b"");
    }

    #[test]
    fn tiny_inputs_round_trip() {
        for n in 1..16 {
            round_trip(&vec![b'x'; n]);
            round_trip(&(0..n as u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let data: Vec<u8> = b"network-7/device-42/bytes=1234567;"
            .iter()
            .copied()
            .cycle()
            .take(64 * 1024)
            .collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "expected >=4x ratio, got {} / {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn all_zeros_compress_to_near_nothing() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 600, "got {}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn random_input_expands_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
        let c = compress(&data);
        assert!(c.len() <= max_compressed_len(data.len()));
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // >15 literals then a long match exercises both extension paths.
        let mut data: Vec<u8> = (0..200u8).collect();
        let copy = data.clone();
        data.extend_from_slice(&copy);
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_replicates() {
        // "ab" * 1000: matches overlap their own output (offset 2, long len).
        let data: Vec<u8> = b"ab".iter().copied().cycle().take(2000).collect();
        round_trip(&data);
    }

    #[test]
    fn wrong_expected_len_is_rejected() {
        let c = compress(b"hello world hello world");
        assert_eq!(
            decompress(&c, 5).unwrap_err(),
            DecompressError::LengthMismatch
        );
        assert_eq!(
            decompress(&c, 1000).unwrap_err(),
            DecompressError::LengthMismatch
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let data: Vec<u8> = b"abcdabcdabcdabcd".repeat(10);
        let c = compress(&data);
        for cut in 0..c.len().min(20) {
            let r = decompress(&c[..cut], data.len());
            assert!(r.is_err(), "cut={cut} should fail");
        }
    }

    #[test]
    fn bad_offset_is_rejected() {
        // Token: 0 literals, match len 4; offset 9 with empty output.
        let stream = [0x00u8, 9, 0, 0x00];
        assert!(matches!(
            decompress(&stream, 4),
            Err(DecompressError::BadOffset) | Err(DecompressError::Truncated)
        ));
    }

    #[test]
    fn compressed_len_bound_holds_for_random_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let n = rng.gen_range(0..4096);
            let data: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            assert!(compress(&data).len() <= max_compressed_len(n));
        }
    }

    #[test]
    fn lengths_the_input_cannot_reach_are_refused_before_reserving() {
        // A byte of input yields at most 255 bytes of output, so none of
        // these may reserve what they claim.
        assert_eq!(
            decompress(&[0], 1 << 40),
            Err(DecompressError::LengthMismatch)
        );
        assert_eq!(decompress(&[], 1 << 40), Err(DecompressError::Truncated));
        let mut out = Vec::new();
        let c = compress(&[7u8; 1000]);
        assert_eq!(
            decompress_into(&c, usize::MAX, &mut out),
            Err(DecompressError::LengthMismatch)
        );
        assert_eq!(
            decompress_into(&c, c.len() * MAX_EXPANSION + 1, &mut out),
            Err(DecompressError::LengthMismatch)
        );
        assert!(out.capacity() < 1 << 20, "reserved {}", out.capacity());
        // The bound is reachable: one match of the longest length a run
        // of 255-valued extension bytes spells.
        let mut stream = Vec::new();
        let len = MIN_MATCH + 15 + 255 * 20 + 254;
        emit_sequence(&mut stream, b"x", 1, len);
        emit_final(&mut stream, b"");
        assert_eq!(decompress(&stream, len + 1).unwrap(), vec![b'x'; len + 1]);
        assert!(len < stream.len() * MAX_EXPANSION);
    }

    #[test]
    fn decompress_into_replaces_what_the_buffer_held() {
        let data: Vec<u8> = b"abcabcabc-tail".repeat(50);
        let c = compress(&data);
        let mut out = b"leftover bytes".to_vec();
        decompress_into(&c, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
        decompress_into(&c, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
    }

    /// The byte-at-a-time decoder [`decompress_into`] replaced, kept as
    /// the reference it is held to.
    fn ref_decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
        let mut out = Vec::with_capacity(expected_len);
        let mut pos = 0usize;
        if input.is_empty() {
            return if expected_len == 0 {
                Ok(out)
            } else {
                Err(DecompressError::Truncated)
            };
        }
        loop {
            let token = *input.get(pos).ok_or(DecompressError::Truncated)?;
            pos += 1;
            let lit_len = read_len_ext(input, &mut pos, (token >> 4) as usize)?;
            if pos + lit_len > input.len() {
                return Err(DecompressError::Truncated);
            }
            out.extend_from_slice(&input[pos..pos + lit_len]);
            pos += lit_len;
            if pos == input.len() {
                break;
            }
            if pos + 2 > input.len() {
                return Err(DecompressError::Truncated);
            }
            let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
            pos += 2;
            let match_len = read_len_ext(input, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
            if offset == 0 || offset > out.len() {
                return Err(DecompressError::BadOffset);
            }
            let start = out.len() - offset;
            for src in start..start + match_len {
                let b = out[src];
                out.push(b);
            }
            if out.len() > expected_len {
                return Err(DecompressError::LengthMismatch);
            }
        }
        if out.len() != expected_len {
            return Err(DecompressError::LengthMismatch);
        }
        Ok(out)
    }

    /// Decompresses `stream` to `len`, `len - 1` and `len + 1` bytes, then
    /// every truncation and every single-bit flip of it to `len`, with
    /// [`decompress`] and the reference: the same bytes or the same error,
    /// except that a length past the input's reach may be refused up
    /// front with an error of its own.
    fn same_as_reference(stream: &[u8], len: usize) {
        let check = |data: &[u8], len: usize, what: &dyn Fn() -> String| match (
            decompress(data, len),
            ref_decompress(data, len),
        ) {
            (Err(_), Err(_)) if len > data.len() * MAX_EXPANSION => {}
            (fast, reference) => assert!(
                fast == reference,
                "{}: {:?} against {:?}",
                what(),
                fast.map(|v| v.len()),
                reference.map(|v| v.len())
            ),
        };
        for m in [len.saturating_sub(1), len, len + 1] {
            check(stream, m, &|| format!("to {m} bytes"));
        }
        for cut in 0..stream.len() {
            check(&stream[..cut], len, &|| format!("cut at {cut}"));
        }
        let mut flipped = stream.to_vec();
        for bit in 0..stream.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, len, &|| format!("bit {bit} flipped"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_overlap_period_and_length_matches_the_reference() {
        let prefix: Vec<u8> = (0..16).map(|i| i * 13 + 1).collect();
        for offset in 1..=16 {
            for len in (4..=600).step_by(7).chain([19, 20, 273, 274, 600]) {
                let mut stream = Vec::new();
                emit_sequence(&mut stream, &prefix, offset, len);
                emit_final(&mut stream, b"end");
                let expected = prefix.len() + len + 3;
                assert_eq!(
                    decompress(&stream, expected),
                    ref_decompress(&stream, expected),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_overlapping_matches_match_reference(
            prefix in proptest::collection::vec(any::<u8>(), 16..24),
            seqs in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..20), 1usize..=16, 4usize..=600),
                1..4,
            ),
            tail in proptest::collection::vec(any::<u8>(), 0..20),
        ) {
            let mut stream = Vec::new();
            let mut len = 0;
            for (i, (lits, offset, match_len)) in seqs.iter().enumerate() {
                let lits = if i == 0 { [&prefix[..], lits].concat() } else { lits.clone() };
                emit_sequence(&mut stream, &lits, *offset, *match_len);
                len += lits.len() + match_len;
            }
            emit_final(&mut stream, &tail);
            len += tail.len();
            same_as_reference(&stream, len);
        }

        #[test]
        fn prop_compressed_blocks_match_reference(
            data in proptest::collection::vec(0u8..4, 0..600),
        ) {
            same_as_reference(&compress(&data), data.len());
        }

        #[test]
        fn prop_round_trip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            round_trip(&data);
        }

        #[test]
        fn prop_round_trip_low_entropy(
            data in proptest::collection::vec(0u8..4, 0..8192)
        ) {
            round_trip(&data);
        }

        #[test]
        fn prop_decompress_never_panics(
            garbage in proptest::collection::vec(any::<u8>(), 0..2048),
            expected in 0usize..4096
        ) {
            let _ = decompress(&garbage, expected);
        }
    }
}
