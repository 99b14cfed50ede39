//! Small encoding helpers shared by the tablet, descriptor, and row codecs.

use crate::error::{Error, Result};

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-encodes a signed integer so small magnitudes stay short.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked forward reader over a byte slice. All decode paths in
/// the engine go through this so corrupt input surfaces as [`Error::Corrupt`]
/// rather than a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a slice for reading from the front.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn corrupt(what: &str) -> Error {
        Error::corrupt(format!("unexpected end of input reading {what}"))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Self::corrupt("bytes"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian f64.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a LEB128 varint; a one-byte value takes no loop. The tenth
    /// byte holds bit 63 only, so one above 1 (which would spill past 64
    /// bits, or continue to an eleventh byte) is an error.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => self.long_varint(),
        }
    }

    fn long_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(Error::corrupt("varint overflows u64"));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit a `u32`; `what` names it in the error.
    pub fn varint_u32(&mut self, what: &str) -> Result<u32> {
        u32::try_from(self.varint()?).map_err(|_| Error::corrupt(format!("{what} exceeds u32")))
    }

    /// Reads a varint-length-prefixed byte slice.
    #[inline]
    pub fn len_prefixed(&mut self) -> Result<&'a [u8]> {
        let n = self.varint()? as usize;
        self.bytes(n)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self) -> Result<String> {
        let b = self.len_prefixed()?;
        String::from_utf8(b.to_vec()).map_err(|_| Error::corrupt("invalid UTF-8 string"))
    }
}

/// Appends a varint-length-prefixed byte slice.
pub fn put_len_prefixed(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Appends a varint-length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_len_prefixed(out, s.as_bytes());
}

/// Slice-by-8 tables for the reflected IEEE polynomial, built at compile
/// time. `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight lookups
/// advance the checksum over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) used to checksum descriptors, footers
/// and every tablet block; eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `data` into an FNV-1a `state`. The hash streams: folding a
/// string piece by piece gives the state of folding it whole, so one
/// pass over a key yields the hash of every prefix of it.
#[inline]
pub fn fnv1a(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= b as u64;
        state = state.wrapping_mul(0x1000_0000_01b3);
    }
    state
}

/// A 64-bit mixing hash (splitmix64 finalizer) for Bloom filters.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a byte string for Bloom-filter use (FNV-1a folded through
/// [`mix64`]).
pub fn hash_bytes(data: &[u8]) -> u64 {
    mix64(fnv1a(FNV_OFFSET, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes encode small.
        assert!(zigzag(-1) < 256);
        assert!(zigzag(100) < 256);
    }

    #[test]
    fn reader_detects_truncation() {
        let mut buf = Vec::new();
        put_string(&mut buf, "hello");
        let mut r = Reader::new(&buf[..3]);
        assert!(r.string().is_err());
    }

    #[test]
    fn varint_rejects_overlong() {
        let buf = [0xFFu8; 11];
        let mut r = Reader::new(&buf);
        assert!(r.varint().is_err());
    }

    #[test]
    fn varint_rejects_a_tenth_byte_past_bit_63() {
        let mut bad = [0x80u8; 10];
        bad[9] = 0x02;
        let err = Reader::new(&bad).varint().unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("varint overflows u64"), "{err}");
        // Eleven bytes: the tenth continues instead of ending at bit 63.
        let mut long = [0x80u8; 11];
        long[10] = 0x00;
        assert!(Reader::new(&long).varint().is_err());
        // The largest value still fits: nine 0xFF bytes and a final 0x01.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf, [[0xFF; 9].as_slice(), &[0x01]].concat());
        assert_eq!(Reader::new(&buf).varint().unwrap(), u64::MAX);
        let mut top = [0x80u8; 10];
        top[9] = 0x01;
        assert_eq!(Reader::new(&top).varint().unwrap(), 1 << 63);
    }

    #[test]
    fn varint_of_every_length_reads_what_was_put() {
        for bits in 0..64 {
            for v in [1u64 << bits, (1u64 << bits) - 1, (1 << bits) | 1] {
                let mut buf = vec![];
                put_varint(&mut buf, v);
                buf.push(0xAA);
                let mut r = Reader::new(&buf);
                assert_eq!(r.varint().unwrap(), v);
                assert_eq!(r.remaining(), 1, "{v} left its last byte");
                assert!(Reader::new(&buf[..buf.len() - 2]).varint().is_err());
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bitwise_loop_at_every_length_and_alignment() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..302)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for align in 0..2 {
            for len in 0..=300 {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), bitwise(data), "len {len} align {align}");
            }
        }
    }

    #[test]
    fn fixed_width_round_trips() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&9u64.to_le_bytes());
        buf.extend_from_slice(&1.5f64.to_le_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 9);
        assert_eq!(r.f64().unwrap(), 1.5);
    }

    #[test]
    fn hash_bytes_spreads() {
        let a = hash_bytes(b"network-1/device-1");
        let b = hash_bytes(b"network-1/device-2");
        assert_ne!(a, b);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }
}
