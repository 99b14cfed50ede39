//! Fast byte-oriented block compression for LittleTable tablets.
//!
//! The paper compresses each 64 kB tablet block and the tablet footer with
//! LZO1X-1. This crate provides a codec with the same role and a similar
//! cost profile: an LZ77-family format with greedy hash-table matching on
//! the compression side and a branch-light byte-copy loop on the
//! decompression side. The format is self-terminating but, like LZO and
//! LZ4 block formats, callers must supply the decompressed size — which
//! LittleTable stores alongside every compressed region.
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

/// Decompresses `input`, which must decode to exactly `expected_len` bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
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
        // Byte-wise copy: overlapping backreferences (offset < match_len)
        // replicate recent output, as in every LZ77 decoder.
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

    proptest! {
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
