//! Bit-level time-series column codecs for LittleTable's columnar (v3)
//! block format.
//!
//! Tablets are immutable and time-clustered, so the columns inside a
//! block are exactly the shape the time-series compression literature
//! targets: timestamps arrive at near-constant intervals (delta-of-delta
//! collapses to a bit per row), gauge-style doubles change slowly (XOR of
//! consecutive IEEE 754 bit patterns is mostly zeros), counters grow
//! monotonically (zigzag-encoded deltas stay small), and key columns such
//! as device names repeat (dictionary + run-length). Each encoder
//! competes against a raw fixed-width fallback and the *winner* is
//! recorded in a per-column tag byte, so a pathological column never pays
//! more than raw.
//!
//! Every decoder takes the expected value count, performs only checked
//! reads, and returns [`CodecError`] on any malformed input — never a
//! panic, never a short or long result. Padding bits at the end of a bit
//! stream must be zero and less than one byte, so trailing garbage is
//! detected rather than ignored.
//!
//! Decoders sit on the read path (every block a query reads is decoded),
//! so they work a run or a word at a time rather than a field at a time:
//! [`BitReader`] keeps at least 64 bits in a 128-bit window, a run of
//! repeated deltas or values is one `leading_zeros`, a delta-of-delta
//! bucket one 4-bit peek, an XOR window header one 13-bit field, a
//! one-byte varint no loop, and a dictionary run one copy of its entry
//! doubled in place. Each is held, in the tests, to the field-at-a-time
//! decoder it replaced: the same values or the same error, on every
//! truncation and bit flip of streams shaped where the fast paths branch.
//!
//! This crate is deliberately free of engine dependencies: it maps plain
//! slices (`&[i64]`, `&[f64]`, byte strings) to bytes and back.

#![forbid(unsafe_code)]

use std::fmt;

/// Codec tag stored per column in a v3 block: raw little-endian
/// fixed-width values (or length-prefixed bytes for string/blob columns).
pub const TAG_RAW: u8 = 0;
/// Codec tag: Gorilla-style delta-of-delta bit packing for integers.
pub const TAG_DELTA_DELTA: u8 = 1;
/// Codec tag: zigzag varint of consecutive deltas.
pub const TAG_ZIGZAG_DELTA: u8 = 2;
/// Codec tag: Gorilla-style XOR compression for doubles.
pub const TAG_XOR: u8 = 3;
/// Codec tag: dictionary + run-length encoding for repetitive byte
/// columns.
pub const TAG_DICT_RLE: u8 = 4;

/// Decoding failed: the input does not round-trip to the claimed number
/// of values under the claimed codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl CodecError {
    fn new(msg: impl Into<String>) -> Self {
        CodecError(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------- bit I/O

/// The low `n` bits of `v` (`n` ≤ 64).
#[inline]
fn low_bits(v: u64, n: u32) -> u64 {
    if n == 64 {
        v
    } else {
        v & ((1u64 << n) - 1)
    }
}

/// MSB-first bit writer.
///
/// Bits collect in a 64-bit accumulator and reach the buffer eight bytes
/// at a time, big-endian, so a field costs one shift and one or, whatever
/// its width. Between calls the accumulator holds fewer than 64 bits (the
/// spill invariant): a field that would fill it spills the full word and
/// leaves only its own tail behind.
#[derive(Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, right-aligned; everything above `pending` is zero.
    acc: u64,
    /// Number of pending bits in `acc`, always below 64.
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that appends after the bytes already in `buf`.
    fn appending(buf: Vec<u8>) -> Self {
        BitWriter {
            buf,
            acc: 0,
            pending: 0,
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Appends the low `n` bits of `v`, most significant first.
    #[inline]
    pub fn write_bits(&mut self, v: u64, n: u8) {
        debug_assert!(n <= 64);
        let n = n as u32;
        let v = low_bits(v, n);
        let free = 64 - self.pending;
        if n < free {
            self.acc = (self.acc << n) | v;
            self.pending += n;
        } else {
            // The field fills the accumulator: its top `free` bits
            // complete the word, the remaining `rest` (< 64) start the
            // next one.
            let rest = n - free;
            let word = if free == 64 {
                v
            } else {
                (self.acc << free) | (v >> rest)
            };
            self.buf.extend_from_slice(&word.to_be_bytes());
            self.acc = low_bits(v, rest);
            self.pending = rest;
        }
    }

    /// Returns the buffer; unused bits in the final byte are zero.
    pub fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let word = self.acc << (64 - self.pending);
            let bytes = self.pending.div_ceil(8) as usize;
            self.buf.extend_from_slice(&word.to_be_bytes()[..bytes]);
        }
        self.buf
    }
}

/// MSB-first bit reader with fully checked access.
///
/// Unread bits sit left-aligned in a 128-bit window: the next bit is the
/// window's top bit and every bit below the buffered ones is zero. A
/// refill loads a whole big-endian word whenever fewer than 64 bits are
/// buffered, so after one the window holds at least 64 bits (unless the
/// stream ends first) and any field of up to 64 bits is one shift. A
/// decoder can also look at the buffered bits before deciding how many
/// to take: a run of `0` fields is one `leading_zeros`, a prefix-coded
/// tag one peek.
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte of `data` not yet pulled into `acc`.
    pos: usize,
    /// Buffered unread bits, left-aligned; everything below the top
    /// `avail` bits is zero.
    acc: u128,
    /// Number of buffered bits in `acc`, below 128.
    avail: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps `data` for reading from its first bit.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            avail: 0,
        }
    }

    /// Tops the window up while it holds fewer than 64 bits: one word
    /// load while eight bytes remain, byte by byte over the stream's
    /// tail. Afterwards `avail >= 64`, or every byte is buffered.
    #[inline]
    fn refill(&mut self) {
        if self.avail >= 64 {
            return;
        }
        match self.data.get(self.pos..).and_then(<[u8]>::first_chunk::<8>) {
            Some(word) => {
                self.acc |= (u64::from_be_bytes(*word) as u128) << (64 - self.avail);
                self.avail += 64;
                self.pos += 8;
            }
            None => {
                // Fewer than eight bytes left: all of them fit.
                for &b in &self.data[self.pos..] {
                    self.acc |= (b as u128) << (120 - self.avail);
                    self.avail += 8;
                }
                self.pos = self.data.len();
            }
        }
    }

    /// The next `n` bits (1 ≤ `n` ≤ 64) without consuming them; bits past
    /// the buffered ones read as zero.
    #[inline]
    fn peek(&self, n: u32) -> u64 {
        (self.acc >> (128 - n)) as u64
    }

    /// Drops the next `n` buffered bits; the caller has checked
    /// `n <= self.avail`.
    #[inline]
    fn consume(&mut self, n: u32) {
        self.acc <<= n;
        self.avail -= n;
    }

    /// Length of the run of `0` bits the window starts with, counting
    /// buffered bits only.
    #[inline]
    fn zero_run(&self) -> u32 {
        self.acc.leading_zeros().min(self.avail)
    }

    /// Reads one bit, erroring at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `n` bits MSB-first into the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Result<u64> {
        debug_assert!(n <= 64);
        let n = n as u32;
        if n == 0 {
            return Ok(0);
        }
        self.refill();
        if n > self.avail {
            return Err(CodecError::new("bit stream truncated"));
        }
        let v = self.peek(n);
        self.consume(n);
        Ok(v)
    }

    /// Verifies that what remains is sub-byte zero padding: a valid
    /// stream ends within 7 bits of the final byte and those bits are 0.
    pub fn expect_zero_padding(&mut self) -> Result<()> {
        let unread = self.avail as usize + (self.data.len() - self.pos) * 8;
        if unread >= 8 {
            return Err(CodecError::new("trailing bytes after bit stream"));
        }
        // Fewer than 8 unread bits: all of them are in the window.
        if self.acc != 0 {
            return Err(CodecError::new("nonzero padding after bit stream"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- varints

/// Appends `v` as a LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

// Always inlined: left a call, its `Result` goes through memory, which
// doubled the cost of a zigzag-delta column of multi-byte varints.
#[inline(always)]
fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data
            .get(*pos)
            .ok_or_else(|| CodecError::new("varint truncated"))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(CodecError::new("varint overflows u64"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::new("varint too long"));
        }
    }
}

/// Zigzag-encodes a signed integer so small magnitudes stay short.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ------------------------------------------------- delta-of-delta (i64)

/// Encodes `vals` as a delta-of-delta bit stream (Gorilla §4.1.1 buckets,
/// widened to a 64-bit escape so arbitrary i64 sequences round-trip).
pub fn encode_delta_delta(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_delta_delta(vals.iter().copied(), &mut out);
    out
}

/// Appends the delta-of-delta stream of `vals` to `out`. Each value is a
/// prefix-coded bucket tag and its biased payload, written as one field:
/// `0` | `10`+7 bits | `110`+9 | `1110`+12 | `1111`+64.
fn write_delta_delta(mut vals: impl Iterator<Item = i64>, out: &mut Vec<u8>) {
    let Some(first) = vals.next() else {
        return;
    };
    let mut w = BitWriter::appending(std::mem::take(out));
    w.write_bits(first as u64, 64);
    let mut prev = first;
    let mut prev_delta = 0i64;
    for v in vals {
        // Wrapping arithmetic: deltas of extreme values wrap mod 2^64 and
        // un-wrap identically on decode, so round-trips stay exact.
        let delta = v.wrapping_sub(prev);
        let dod = delta.wrapping_sub(prev_delta);
        match dod {
            0 => w.write_bit(false),
            -63..=64 => w.write_bits((0b10 << 7) | (dod + 63) as u64, 9),
            -255..=256 => w.write_bits((0b110 << 9) | (dod + 255) as u64, 12),
            -2047..=2048 => w.write_bits((0b1110 << 12) | (dod + 2047) as u64, 16),
            _ => {
                w.write_bits(0b1111, 4);
                w.write_bits(dod as u64, 64);
            }
        }
        prev = v;
        prev_delta = delta;
    }
    *out = w.finish();
}

/// Decodes exactly `n` values from a delta-of-delta stream.
///
/// A run of `0` fields (the delta repeats) is taken in one step: its
/// length is the window's leading zeros, capped at the buffered bits and
/// at the values still owed, and the run is filled in by repeating the
/// delta. Any other field is read off one peek of four bits, which names
/// the bucket; tag and payload are then consumed as one field, except
/// that the 64-bit escape reads its payload after a refill.
pub fn decode_delta_delta(data: &[u8], n: usize) -> Result<Vec<i64>> {
    if n == 0 {
        return if data.is_empty() {
            Ok(Vec::new())
        } else {
            Err(CodecError::new("nonempty stream for zero values"))
        };
    }
    // Each value past the first costs at least one bit; a row count that
    // cannot fit is corrupt, and bounding it here also bounds allocation.
    if n > data.len().saturating_mul(8) {
        return Err(CodecError::new(
            "delta-of-delta stream shorter than row count",
        ));
    }
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(n);
    let mut prev = r.read_bits(64)? as i64;
    out.push(prev);
    let mut delta = 0i64;
    while out.len() < n {
        r.refill();
        let zeros = (r.zero_run() as usize).min(n - out.len()) as u32;
        if zeros > 0 {
            r.consume(zeros);
            let base = prev;
            out.extend((1..=zeros as i64).map(|i| base.wrapping_add(delta.wrapping_mul(i))));
            prev = base.wrapping_add(delta.wrapping_mul(zeros as i64));
            continue;
        }
        // The window starts with a 1, or is empty and peeks as zeros. A 1
        // is always a buffered bit, so `1111` is four of them.
        let (width, payload_bits, bias) = match r.peek(4) {
            0b1000..=0b1011 => (9, 7, 63),
            0b1100..=0b1101 => (12, 9, 255),
            0b1110 => (16, 12, 2047),
            0b1111 => (4, 64, 0),
            _ => return Err(CodecError::new("bit stream truncated")),
        };
        let dod = if payload_bits == 64 {
            r.consume(width);
            r.read_bits(64)? as i64
        } else {
            if width > r.avail {
                return Err(CodecError::new("bit stream truncated"));
            }
            let field = r.peek(width);
            r.consume(width);
            (field & ((1 << payload_bits) - 1)) as i64 - bias
        };
        delta = delta.wrapping_add(dod);
        prev = prev.wrapping_add(delta);
        out.push(prev);
    }
    r.expect_zero_padding()?;
    Ok(out)
}

// ------------------------------------------------- zigzag-delta (i64)

/// Encodes `vals` as zigzag varints of consecutive deltas (first delta is
/// from zero).
pub fn encode_zigzag_delta(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 2);
    write_zigzag_delta(vals.iter().copied(), &mut out);
    out
}

fn write_zigzag_delta(vals: impl Iterator<Item = i64>, out: &mut Vec<u8>) {
    let mut prev = 0i64;
    for v in vals {
        put_varint(out, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
}

/// `(delta-of-delta bytes, zigzag-delta bytes)` that `vals` would encode
/// to, without encoding them: the codec race is decided on sizes alone
/// and only the winner is ever written.
fn i64_encoded_sizes(vals: impl Iterator<Item = i64>) -> (usize, usize) {
    let mut dod_bits = 0usize;
    let mut zz_bytes = 0usize;
    let mut prev = 0i64;
    let mut prev_delta = 0i64;
    for (i, v) in vals.enumerate() {
        let delta = v.wrapping_sub(prev);
        zz_bytes += varint_len(zigzag(delta));
        if i == 0 {
            // The bit stream opens with the first value verbatim; its
            // deltas start from there, not from zero.
            dod_bits = 64;
        } else {
            dod_bits += match delta.wrapping_sub(prev_delta) {
                0 => 1,
                -63..=64 => 9,
                -255..=256 => 12,
                -2047..=2048 => 16,
                _ => 68,
            };
            prev_delta = delta;
        }
        prev = v;
    }
    (dod_bits.div_ceil(8), zz_bytes)
}

/// Decodes exactly `n` values from a zigzag-delta stream. A one-byte
/// varint (a delta within ±63) is taken without entering the varint loop.
pub fn decode_zigzag_delta(data: &[u8], n: usize) -> Result<Vec<i64>> {
    if n > data.len() {
        // Every varint is at least one byte.
        return Err(CodecError::new(
            "zigzag-delta stream shorter than row count",
        ));
    }
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        let v = match data.get(pos) {
            Some(&b) if b < 0x80 => {
                pos += 1;
                b as u64
            }
            _ => read_varint(data, &mut pos)?,
        };
        prev = prev.wrapping_add(unzigzag(v));
        out.push(prev);
    }
    if pos != data.len() {
        return Err(CodecError::new("trailing bytes after zigzag-delta stream"));
    }
    Ok(out)
}

// ------------------------------------------------------- XOR floats

/// Encodes `vals` with Gorilla XOR compression (§4.1.2): each double is
/// XORed with its predecessor and only the meaningful bits are stored.
/// NaN and ±infinity are just bit patterns here and round-trip exactly.
pub fn encode_xor_f64(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_xor_f64(vals, &mut out);
    out
}

/// Appends the XOR stream of `vals` to `out`. Per value: `0` (same bits),
/// `10` + the window's `sig` bits (fits the previous window), or `11` +
/// 5 bits of leading zeros + 6 bits of `sig - 1` + `sig` bits.
fn write_xor_f64(vals: &[f64], out: &mut Vec<u8>) {
    let Some(&first) = vals.first() else {
        return;
    };
    let mut w = BitWriter::appending(std::mem::take(out));
    w.write_bits(first.to_bits(), 64);
    let mut prev = first.to_bits();
    // Current reuse window: `leading` zero bits then `sig` stored bits.
    // `sig == 0` marks "no window yet".
    let mut leading = 0u8;
    let mut sig = 0u8;
    for &v in &vals[1..] {
        let bits = v.to_bits();
        let x = bits ^ prev;
        prev = bits;
        if x == 0 {
            w.write_bit(false);
            continue;
        }
        let lz = (x.leading_zeros() as u8).min(31); // 5-bit field
        let tz = x.trailing_zeros() as u8;
        let win_trailing = 64 - leading - sig;
        if sig > 0 && lz >= leading && tz >= win_trailing {
            // Fits the previous window: reuse its shape.
            w.write_bits(0b10, 2);
            w.write_bits(x >> win_trailing, sig);
        } else {
            leading = lz;
            sig = 64 - lz - tz; // 1..=64
            w.write_bits(
                (0b11 << 11) | ((leading as u64) << 6) | (sig - 1) as u64,
                13,
            );
            w.write_bits(x >> tz, sig);
        }
    }
    *out = w.finish();
}

/// Decodes exactly `n` values from a Gorilla XOR stream.
///
/// A run of `0` fields (the value repeats) is taken in one step, as in
/// [`decode_delta_delta`]. A new window's `11` header is read as one
/// 13-bit field; the payload then comes from a window refilled to at
/// least 64 bits, so it too is one field whatever its width.
pub fn decode_xor_f64(data: &[u8], n: usize) -> Result<Vec<f64>> {
    if n == 0 {
        return if data.is_empty() {
            Ok(Vec::new())
        } else {
            Err(CodecError::new("nonempty stream for zero values"))
        };
    }
    if n > data.len().saturating_mul(8) {
        return Err(CodecError::new("xor stream shorter than row count"));
    }
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(n);
    let mut prev = r.read_bits(64)?;
    out.push(f64::from_bits(prev));
    let mut leading = 0u32;
    let mut sig = 0u32;
    while out.len() < n {
        r.refill();
        let zeros = (r.zero_run() as usize).min(n - out.len());
        if zeros > 0 {
            r.consume(zeros as u32);
            out.extend(std::iter::repeat_n(f64::from_bits(prev), zeros));
            continue;
        }
        // The window starts with a 1 (`10` reuses the window, `11` opens
        // a new one), or is empty and peeks as zeros.
        match r.peek(2) {
            0b11 if r.avail >= 13 => {
                let header = r.peek(13) as u32;
                r.consume(13);
                leading = (header >> 6) & 0x1F;
                sig = (header & 0x3F) + 1;
                if leading + sig > 64 {
                    return Err(CodecError::new("xor window wider than 64 bits"));
                }
            }
            0b10 if r.avail >= 2 => {
                r.consume(2);
                if sig == 0 {
                    return Err(CodecError::new("xor window reused before being defined"));
                }
            }
            _ => return Err(CodecError::new("bit stream truncated")),
        }
        r.refill();
        if sig > r.avail {
            return Err(CodecError::new("bit stream truncated"));
        }
        let meaningful = r.peek(sig);
        r.consume(sig);
        prev ^= meaningful << (64 - leading - sig);
        out.push(f64::from_bits(prev));
    }
    r.expect_zero_padding()?;
    Ok(out)
}

// -------------------------------------------------- dictionary/RLE bytes

/// Splits `vals` into `(value, length)` runs of equal neighbours.
fn runs<'a>(vals: impl Iterator<Item = &'a [u8]>) -> impl Iterator<Item = (&'a [u8], u64)> {
    let mut vals = vals.peekable();
    std::iter::from_fn(move || {
        let v = vals.next()?;
        let mut n = 1;
        while vals.next_if_eq(&v).is_some() {
            n += 1;
        }
        Some((v, n))
    })
}

/// First pass of the dictionary/RLE encoder: the dictionary in
/// first-seen order and the exact encoded size, or `None` past 256
/// distinct values. The linear dictionary probe runs once per run of
/// equal values, not once per row.
fn plan_dict_rle<'a>(vals: impl Iterator<Item = &'a [u8]>) -> Option<(Vec<&'a [u8]>, usize)> {
    let mut dict: Vec<&[u8]> = Vec::new();
    let mut len = 0usize;
    for (v, n) in runs(vals) {
        len += 1 + varint_len(n);
        if !dict.contains(&v) {
            if dict.len() == 256 {
                return None;
            }
            dict.push(v);
            len += varint_len(v.len() as u64) + v.len();
        }
    }
    len += varint_len(dict.len() as u64);
    Some((dict, len))
}

/// Second pass: the dictionary, then one `(code, run length)` pair per
/// run of equal values. `dict` is [`plan_dict_rle`]'s for the same values.
fn write_dict_rle<'a>(dict: &[&[u8]], vals: impl Iterator<Item = &'a [u8]>, out: &mut Vec<u8>) {
    put_varint(out, dict.len() as u64);
    for d in dict {
        put_varint(out, d.len() as u64);
        out.extend_from_slice(d);
    }
    for (v, n) in runs(vals) {
        let code = dict
            .iter()
            .position(|d| *d == v)
            .expect("the plan saw every value");
        out.push(code as u8);
        put_varint(out, n);
    }
}

/// Decoded byte strings back to back in one buffer: value `i` is
/// `bytes[offsets[i]..offsets[i + 1]]`. A column decodes into two
/// allocations however many values it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteArena {
    /// Every value's bytes, in order, with nothing between them.
    pub bytes: Vec<u8>,
    /// One more offset than there are values, ascending from 0 to
    /// `bytes.len()`.
    pub offsets: Vec<u32>,
}

impl ByteArena {
    fn with_capacity(n: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        ByteArena {
            bytes: Vec::with_capacity(bytes),
            offsets,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the arena holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.offsets
            .windows(2)
            .map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// Appends `copies` (at least one) copies of `v`: the entry is copied
    /// in once and then doubled from the arena itself, and the run's
    /// offsets are `start + i * v.len()`. The offsets are 32-bit: a column
    /// that would pass 4 GiB decoded is refused before it is built.
    fn push_run(&mut self, v: &[u8], copies: usize) -> Result<()> {
        debug_assert!(copies > 0, "a run holds at least one value");
        let start = self.bytes.len();
        let end = v
            .len()
            .checked_mul(copies)
            .and_then(|add| add.checked_add(start))
            .filter(|&end| u32::try_from(end).is_ok())
            .ok_or_else(|| CodecError::new("byte column larger than 4 GiB"))?;
        self.bytes.reserve(end - start);
        self.bytes.extend_from_slice(v);
        while self.bytes.len() < end {
            let copy = (self.bytes.len() - start).min(end - self.bytes.len());
            self.bytes.extend_from_within(start..start + copy);
        }
        self.offsets
            .extend((1..=copies).map(|i| (start + i * v.len()) as u32));
        Ok(())
    }
}

/// Decodes exactly `n` byte strings from a dictionary/RLE stream. The
/// dictionary is read in place: an entry is copied into the arena once
/// per row that holds it and never allocated on its own.
pub fn decode_dict_rle(data: &[u8], n: usize) -> Result<ByteArena> {
    let mut pos = 0usize;
    let dict_len = read_varint(data, &mut pos)? as usize;
    if dict_len > 256 {
        return Err(CodecError::new("dictionary larger than code space"));
    }
    let mut dict: Vec<&[u8]> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let len = read_varint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| CodecError::new("dictionary entry truncated"))?;
        dict.push(&data[pos..end]);
        pos = end;
    }
    // A run-length stream's size does not bound its row count, so the
    // claimed count sizes the first allocation only up to a point.
    let mut out = ByteArena::with_capacity(n.min(1 << 16), 0);
    while out.len() < n {
        let code = *data
            .get(pos)
            .ok_or_else(|| CodecError::new("rle run truncated"))? as usize;
        pos += 1;
        let run = read_varint(data, &mut pos)? as usize;
        let entry = dict
            .get(code)
            .ok_or_else(|| CodecError::new("rle code out of dictionary range"))?;
        if run == 0 || run > n - out.len() {
            return Err(CodecError::new("rle run length out of range"));
        }
        out.push_run(entry, run)?;
    }
    if pos != data.len() {
        return Err(CodecError::new("trailing bytes after rle stream"));
    }
    Ok(out)
}

// ---------------------------------------------------------- raw fallback

/// Decodes exactly `n` fixed-width integers.
pub fn decode_raw_i64(data: &[u8], n: usize) -> Result<Vec<i64>> {
    if data.len() != n * 8 {
        return Err(CodecError::new("raw i64 column has wrong length"));
    }
    Ok(data
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect())
}

/// Decodes exactly `n` fixed-width doubles.
pub fn decode_raw_f64(data: &[u8], n: usize) -> Result<Vec<f64>> {
    if data.len() != n * 8 {
        return Err(CodecError::new("raw f64 column has wrong length"));
    }
    Ok(data
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"))))
        .collect())
}

/// Writes byte strings as length-prefixed values.
fn write_raw_bytes<'a>(vals: impl Iterator<Item = &'a [u8]>, out: &mut Vec<u8>) {
    for v in vals {
        put_varint(out, v.len() as u64);
        out.extend_from_slice(v);
    }
}

/// Decodes exactly `n` length-prefixed byte strings.
pub fn decode_raw_bytes(data: &[u8], n: usize) -> Result<ByteArena> {
    let mut pos = 0usize;
    // A value costs at least its one-byte length prefix.
    let mut out = ByteArena::with_capacity(n.min(data.len()), data.len());
    for _ in 0..n {
        let len = read_varint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| CodecError::new("raw byte value truncated"))?;
        out.push_run(&data[pos..end], 1)?;
        pos = end;
    }
    if pos != data.len() {
        return Err(CodecError::new("trailing bytes after raw byte column"));
    }
    Ok(out)
}

// ----------------------------------------------------- codec selection

/// Encodes an integer (or timestamp) column from any re-iterable source
/// of values (an `i32` slice widened on the fly, say), appending to `out`
/// and returning the codec tag. Delta-of-delta races zigzag-delta and
/// raw: the smallest encoding wins, ties going to delta-of-delta, then
/// zigzag-delta; the losers are sized, not built.
pub fn encode_i64_column_into<I>(vals: I, out: &mut Vec<u8>) -> u8
where
    I: ExactSizeIterator<Item = i64> + Clone,
{
    let raw_len = vals.len() * 8;
    let (dod_len, zz_len) = i64_encoded_sizes(vals.clone());
    let start = out.len();
    let (tag, len) = if dod_len <= zz_len && dod_len <= raw_len {
        write_delta_delta(vals, out);
        (TAG_DELTA_DELTA, dod_len)
    } else if zz_len <= raw_len {
        write_zigzag_delta(vals, out);
        (TAG_ZIGZAG_DELTA, zz_len)
    } else {
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
        (TAG_RAW, raw_len)
    };
    debug_assert_eq!(out.len() - start, len, "codec {tag} was mis-sized");
    tag
}

/// Decodes an integer column under the codec named by `tag`.
pub fn decode_i64_column(tag: u8, data: &[u8], n: usize) -> Result<Vec<i64>> {
    match tag {
        TAG_RAW => decode_raw_i64(data, n),
        TAG_DELTA_DELTA => decode_delta_delta(data, n),
        TAG_ZIGZAG_DELTA => decode_zigzag_delta(data, n),
        t => Err(CodecError::new(format!("unknown integer codec tag {t}"))),
    }
}

/// Encodes a double column, racing XOR compression against raw,
/// appending to `out` and returning the codec tag.
pub fn encode_f64_column_into(vals: &[f64], out: &mut Vec<u8>) -> u8 {
    let start = out.len();
    write_xor_f64(vals, out);
    if out.len() - start <= vals.len() * 8 {
        return TAG_XOR;
    }
    out.truncate(start);
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    TAG_RAW
}

/// Decodes a double column under the codec named by `tag`.
pub fn decode_f64_column(tag: u8, data: &[u8], n: usize) -> Result<Vec<f64>> {
    match tag {
        TAG_RAW => decode_raw_f64(data, n),
        TAG_XOR => decode_xor_f64(data, n),
        t => Err(CodecError::new(format!("unknown float codec tag {t}"))),
    }
}

/// Encodes a string/blob column from any re-iterable source of byte
/// strings, appending to `out` and returning the codec tag: dictionary +
/// RLE when the column is low-cardinality enough to win, raw
/// length-prefixed bytes otherwise.
pub fn encode_bytes_column_into<'a, I>(vals: I, out: &mut Vec<u8>) -> u8
where
    I: Iterator<Item = &'a [u8]> + Clone,
{
    let raw_len: usize = vals
        .clone()
        .map(|v| varint_len(v.len() as u64) + v.len())
        .sum();
    match plan_dict_rle(vals.clone()) {
        Some((dict, len)) if len <= raw_len => {
            write_dict_rle(&dict, vals, out);
            TAG_DICT_RLE
        }
        _ => {
            write_raw_bytes(vals, out);
            TAG_RAW
        }
    }
}

/// Decodes a string/blob column under the codec named by `tag`.
pub fn decode_bytes_column(tag: u8, data: &[u8], n: usize) -> Result<ByteArena> {
    match tag {
        TAG_RAW => decode_raw_bytes(data, n),
        TAG_DICT_RLE => decode_dict_rle(data, n),
        t => Err(CodecError::new(format!("unknown bytes codec tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    // Slice-in, bytes-out forms of the encoders, for the tests' convenience.

    fn encode_raw_i64(vals: &[i64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn encode_raw_f64(vals: &[f64]) -> Vec<u8> {
        vals.iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect()
    }

    fn encode_raw_bytes(vals: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        write_raw_bytes(vals.iter().copied(), &mut out);
        out
    }

    fn encode_dict_rle(vals: &[&[u8]]) -> Option<Vec<u8>> {
        let (dict, _) = plan_dict_rle(vals.iter().copied())?;
        let mut out = Vec::new();
        write_dict_rle(&dict, vals.iter().copied(), &mut out);
        Some(out)
    }

    fn encode_i64_column(vals: &[i64]) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let tag = encode_i64_column_into(vals.iter().copied(), &mut out);
        (tag, out)
    }

    fn encode_f64_column(vals: &[f64]) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let tag = encode_f64_column_into(vals, &mut out);
        (tag, out)
    }

    fn encode_bytes_column(vals: &[&[u8]]) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let tag = encode_bytes_column_into(vals.iter().copied(), &mut out);
        (tag, out)
    }

    fn check_i64(vals: &[i64]) {
        for (tag, data) in [
            (TAG_DELTA_DELTA, encode_delta_delta(vals)),
            (TAG_ZIGZAG_DELTA, encode_zigzag_delta(vals)),
            (TAG_RAW, encode_raw_i64(vals)),
        ] {
            let back = decode_i64_column(tag, &data, vals.len()).unwrap();
            assert_eq!(back, vals, "tag {tag}");
        }
        let (tag, data) = encode_i64_column(vals);
        assert_eq!(decode_i64_column(tag, &data, vals.len()).unwrap(), vals);
    }

    fn check_f64(vals: &[f64]) {
        let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        for (tag, data) in [
            (TAG_XOR, encode_xor_f64(vals)),
            (TAG_RAW, encode_raw_f64(vals)),
        ] {
            let back = decode_f64_column(tag, &data, vals.len()).unwrap();
            let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
            assert_eq!(back_bits, bits, "tag {tag}");
        }
        let (tag, data) = encode_f64_column(vals);
        let back = decode_f64_column(tag, &data, vals.len()).unwrap();
        assert_eq!(back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
    }

    fn check_bytes(vals: &[&[u8]]) {
        let (tag, data) = encode_bytes_column(vals);
        let same = |arena: ByteArena| {
            assert_eq!(arena.offsets[0], 0);
            assert_eq!(arena.len(), vals.len());
            assert_eq!(arena.iter().collect::<Vec<_>>(), vals);
            assert_eq!(*arena.offsets.last().unwrap() as usize, arena.bytes.len());
        };
        same(decode_bytes_column(tag, &data, vals.len()).unwrap());
        let raw = encode_raw_bytes(vals);
        same(decode_raw_bytes(&raw, vals.len()).unwrap());
        if let Some(d) = encode_dict_rle(vals) {
            same(decode_dict_rle(&d, vals.len()).unwrap());
        }
    }

    #[test]
    fn empty_and_single_sequences() {
        check_i64(&[]);
        check_i64(&[0]);
        check_i64(&[i64::MIN]);
        check_i64(&[i64::MAX]);
        check_f64(&[]);
        check_f64(&[0.0]);
        check_f64(&[-0.0]);
        check_bytes(&[]);
        check_bytes(&[b""]);
        check_bytes(&[b"only"]);
    }

    #[test]
    fn constant_sequences_compress_hard() {
        let vals = vec![1_700_000_000_000_000i64; 1000];
        check_i64(&vals);
        let dod = encode_delta_delta(&vals);
        // 64-bit header + ~1 bit per row.
        assert!(dod.len() < 8 + 1000 / 8 + 2, "dod len {}", dod.len());
        check_f64(&vec![21.5; 500]);
        let xor = encode_xor_f64(&vec![21.5; 500]);
        assert!(xor.len() < 8 + 500 / 8 + 2, "xor len {}", xor.len());
        let strs: Vec<&[u8]> = vec![b"device-a"; 300];
        check_bytes(&strs);
        let dict = encode_dict_rle(&strs).unwrap();
        assert!(dict.len() < 20, "dict len {}", dict.len());
    }

    #[test]
    fn regular_timestamps_take_about_a_bit_each() {
        let vals: Vec<i64> = (0..4096)
            .map(|i| 1_600_000_000_000_000 + i * 60_000_000)
            .collect();
        let dod = encode_delta_delta(&vals);
        assert!(dod.len() < 8 + 16 + 4096 / 8, "dod len {}", dod.len());
        check_i64(&vals);
    }

    #[test]
    fn adversarial_integer_patterns() {
        check_i64(&[i64::MIN, i64::MAX, i64::MIN, i64::MAX]);
        check_i64(&[0, i64::MAX, i64::MIN, -1, 1, 0]);
        check_i64(&[-1, 0, -1, 0, i64::MIN / 2, i64::MAX / 2]);
        // Alternating signs around every bucket boundary.
        for b in [63i64, 64, 255, 256, 2047, 2048] {
            check_i64(&[0, b, -b, b + 1, -(b + 1), b - 1]);
        }
    }

    #[test]
    fn special_floats_round_trip() {
        check_f64(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0]);
        check_f64(&[f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::EPSILON]);
        check_f64(&[1.0, f64::NAN, 1.0, f64::NAN]);
        // NaN payload bits must survive exactly.
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        check_f64(&[weird, weird, 1.0, weird]);
    }

    #[test]
    fn mixed_cardinality_bytes() {
        let vals: Vec<Vec<u8>> = (0..500)
            .map(|i| format!("dev-{}", i % 7).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = vals.iter().map(|v| v.as_slice()).collect();
        check_bytes(&refs);
        let (tag, _) = encode_bytes_column(&refs);
        assert_eq!(tag, TAG_DICT_RLE);
        // High-cardinality columns fall back to raw.
        let uniq: Vec<Vec<u8>> = (0..500)
            .map(|i| format!("unique-{i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = uniq.iter().map(|v| v.as_slice()).collect();
        check_bytes(&refs);
        let (tag, _) = encode_bytes_column(&refs);
        assert_eq!(tag, TAG_RAW);
    }

    #[test]
    fn wrong_count_and_garbage_are_errors_not_panics() {
        let vals = [1i64, 2, 3];
        let (tag, data) = encode_i64_column(&vals);
        assert!(decode_i64_column(tag, &data, 4).is_err());
        assert!(decode_i64_column(tag, &data, 2).is_err());
        assert!(decode_i64_column(9, &data, 3).is_err());
        assert!(decode_delta_delta(&[], 1).is_err());
        assert!(decode_xor_f64(&[0xFF], 2).is_err());
        assert!(decode_dict_rle(&[0x02, 0x01], 3).is_err());
        assert!(decode_raw_i64(&[0; 7], 1).is_err());
        // A run-length stream that would decode past 4 GiB (a 1 kB entry,
        // five million times) is refused, not built.
        let mut bomb = vec![0x01, 0x80, 0x08];
        bomb.extend_from_slice(&[b'x'; 1024]);
        bomb.push(0);
        put_varint(&mut bomb, 5_000_000);
        assert!(decode_dict_rle(&bomb, 5_000_000).is_err());
        // Huge claimed counts must not allocate before failing.
        assert!(decode_delta_delta(&[0; 16], usize::MAX / 2).is_err());
        assert!(decode_zigzag_delta(&[0; 16], usize::MAX / 2).is_err());
    }

    #[test]
    fn seeded_fuzz_round_trips() {
        let mut rng = SmallRng::seed_from_u64(0x0011_77AB_1EC0_DEC5);
        for _ in 0..200 {
            let n = rng.gen_range(0..200);
            let mode = rng.gen_range(0..4);
            let ints: Vec<i64> = (0..n)
                .scan(rng.gen::<i64>() >> 20, |acc, _| {
                    *acc = match mode {
                        0 => acc.wrapping_add(rng.gen_range(-5..50)),
                        1 => acc.wrapping_add(rng.gen_range(-1_000_000..1_000_000)),
                        2 => rng.gen(),
                        _ => *acc,
                    };
                    Some(*acc)
                })
                .collect();
            check_i64(&ints);
            let floats: Vec<f64> = (0..n)
                .scan(rng.gen_range(-100.0..100.0), |acc: &mut f64, _| {
                    if mode == 2 {
                        Some(f64::from_bits(rng.gen()))
                    } else {
                        *acc += rng.gen_range(-0.5..0.5);
                        Some(*acc)
                    }
                })
                .collect();
            check_f64(&floats);
            let strs: Vec<Vec<u8>> = (0..n)
                .map(|_| format!("s{}", rng.gen_range(0..(1 + mode * 100))).into_bytes())
                .collect();
            let refs: Vec<&[u8]> = strs.iter().map(|v| v.as_slice()).collect();
            check_bytes(&refs);
        }
    }

    #[test]
    fn seeded_fuzz_garbage_never_panics() {
        let mut rng = SmallRng::seed_from_u64(0xBAD_DECADE);
        for _ in 0..500 {
            let len = rng.gen_range(0..64);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let n = rng.gen_range(0..100);
            for tag in 0..6u8 {
                let _ = decode_i64_column(tag, &data, n);
                let _ = decode_f64_column(tag, &data, n);
                let _ = decode_bytes_column(tag, &data, n);
            }
        }
    }

    /// The bit-at-a-time writer the word-at-a-time [`BitWriter`]
    /// replaced; the format is whatever this one produces.
    #[derive(Default)]
    struct RefBitWriter {
        buf: Vec<u8>,
        used: u8,
    }

    impl RefBitWriter {
        fn write_bits(&mut self, v: u64, n: u8) {
            for i in (0..n).rev() {
                if self.used == 0 {
                    self.buf.push(0);
                    self.used = 8;
                }
                self.used -= 1;
                if (v >> i) & 1 == 1 {
                    *self.buf.last_mut().unwrap() |= 1 << self.used;
                }
            }
        }
    }

    /// Bit-at-a-time read of `n` bits at bit offset `*pos`, `None` past
    /// the end — the reference for [`BitReader::read_bits`].
    fn ref_read_bits(data: &[u8], pos: &mut usize, n: u8) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..n {
            let byte = *data.get(*pos / 8)?;
            v = (v << 1) | ((byte >> (7 - *pos % 8)) & 1) as u64;
            *pos += 1;
        }
        Some(v)
    }

    /// The codec race as it was run before sizes decided it: build all
    /// three encodings, keep the smallest, ties to delta-of-delta, then
    /// zigzag-delta.
    fn ref_encode_i64_column(vals: &[i64]) -> (u8, Vec<u8>) {
        let dod = encode_delta_delta(vals);
        let zz = encode_zigzag_delta(vals);
        let raw_len = vals.len() * 8;
        if dod.len() <= zz.len() && dod.len() <= raw_len {
            (TAG_DELTA_DELTA, dod)
        } else if zz.len() <= raw_len {
            (TAG_ZIGZAG_DELTA, zz)
        } else {
            (TAG_RAW, encode_raw_i64(vals))
        }
    }

    // The field-at-a-time decoders the run-aware ones replaced, kept as
    // the references those are held to: same `Ok` output, same error.

    fn ref_decode_delta_delta(data: &[u8], n: usize) -> Result<Vec<i64>> {
        if n == 0 {
            return if data.is_empty() {
                Ok(Vec::new())
            } else {
                Err(CodecError::new("nonempty stream for zero values"))
            };
        }
        if n > data.len().saturating_mul(8) {
            return Err(CodecError::new(
                "delta-of-delta stream shorter than row count",
            ));
        }
        let mut r = BitReader::new(data);
        let mut out = Vec::with_capacity(n);
        let mut prev = r.read_bits(64)? as i64;
        out.push(prev);
        let mut prev_delta = 0i64;
        while out.len() < n {
            let dod = if !r.read_bit()? {
                0
            } else if !r.read_bit()? {
                r.read_bits(7)? as i64 - 63
            } else if !r.read_bit()? {
                r.read_bits(9)? as i64 - 255
            } else if !r.read_bit()? {
                r.read_bits(12)? as i64 - 2047
            } else {
                r.read_bits(64)? as i64
            };
            let delta = prev_delta.wrapping_add(dod);
            prev = prev.wrapping_add(delta);
            prev_delta = delta;
            out.push(prev);
        }
        r.expect_zero_padding()?;
        Ok(out)
    }

    fn ref_decode_zigzag_delta(data: &[u8], n: usize) -> Result<Vec<i64>> {
        if n > data.len() {
            return Err(CodecError::new(
                "zigzag-delta stream shorter than row count",
            ));
        }
        let mut pos = 0usize;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(unzigzag(read_varint(data, &mut pos)?));
            out.push(prev);
        }
        if pos != data.len() {
            return Err(CodecError::new("trailing bytes after zigzag-delta stream"));
        }
        Ok(out)
    }

    fn ref_decode_xor_f64(data: &[u8], n: usize) -> Result<Vec<f64>> {
        if n == 0 {
            return if data.is_empty() {
                Ok(Vec::new())
            } else {
                Err(CodecError::new("nonempty stream for zero values"))
            };
        }
        if n > data.len().saturating_mul(8) {
            return Err(CodecError::new("xor stream shorter than row count"));
        }
        let mut r = BitReader::new(data);
        let mut out = Vec::with_capacity(n);
        let mut prev = r.read_bits(64)?;
        out.push(f64::from_bits(prev));
        let mut leading = 0u8;
        let mut sig = 0u8;
        while out.len() < n {
            if !r.read_bit()? {
                out.push(f64::from_bits(prev));
                continue;
            }
            if r.read_bit()? {
                leading = r.read_bits(5)? as u8;
                sig = r.read_bits(6)? as u8 + 1;
                if leading + sig > 64 {
                    return Err(CodecError::new("xor window wider than 64 bits"));
                }
            } else if sig == 0 {
                return Err(CodecError::new("xor window reused before being defined"));
            }
            let meaningful = r.read_bits(sig)?;
            let x = meaningful << (64 - leading - sig);
            prev ^= x;
            out.push(f64::from_bits(prev));
        }
        r.expect_zero_padding()?;
        Ok(out)
    }

    fn ref_decode_dict_rle(data: &[u8], n: usize) -> Result<ByteArena> {
        let mut pos = 0usize;
        let dict_len = read_varint(data, &mut pos)? as usize;
        if dict_len > 256 {
            return Err(CodecError::new("dictionary larger than code space"));
        }
        let mut dict: Vec<&[u8]> = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let len = read_varint(data, &mut pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= data.len())
                .ok_or_else(|| CodecError::new("dictionary entry truncated"))?;
            dict.push(&data[pos..end]);
            pos = end;
        }
        let mut out = ByteArena::with_capacity(n.min(1 << 16), 0);
        while out.len() < n {
            let code = *data
                .get(pos)
                .ok_or_else(|| CodecError::new("rle run truncated"))?
                as usize;
            pos += 1;
            let run = read_varint(data, &mut pos)? as usize;
            let entry = dict
                .get(code)
                .ok_or_else(|| CodecError::new("rle code out of dictionary range"))?;
            if run == 0 || run > n - out.len() {
                return Err(CodecError::new("rle run length out of range"));
            }
            let end = entry
                .len()
                .checked_mul(run)
                .and_then(|add| add.checked_add(out.bytes.len()))
                .filter(|&end| u32::try_from(end).is_ok())
                .ok_or_else(|| CodecError::new("byte column larger than 4 GiB"))?;
            out.bytes.reserve(end - out.bytes.len());
            for _ in 0..run {
                out.bytes.extend_from_slice(entry);
                out.offsets.push(out.bytes.len() as u32);
            }
        }
        if pos != data.len() {
            return Err(CodecError::new("trailing bytes after rle stream"));
        }
        Ok(out)
    }

    /// Decodes `stream` as `n`, `n - 1` and `n + 1` values, then every
    /// truncation and every single-bit flip of it as `n` values, with a
    /// decoder and its reference, and requires the same result from both:
    /// the same values, or the same error.
    fn same_as_reference<T: PartialEq + std::fmt::Debug>(
        stream: &[u8],
        n: usize,
        fast: impl Fn(&[u8], usize) -> Result<T>,
        reference: impl Fn(&[u8], usize) -> Result<T>,
    ) {
        let check = |data: &[u8], n: usize, what: &dyn Fn() -> String| {
            assert_eq!(fast(data, n), reference(data, n), "{}", what());
        };
        for m in [n.saturating_sub(1), n, n + 1] {
            check(stream, m, &|| format!("as {m} values"));
        }
        for cut in 0..stream.len() {
            check(&stream[..cut], n, &|| format!("cut at {cut}"));
        }
        let mut flipped = stream.to_vec();
        for bit in 0..stream.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, n, &|| format!("bit {bit} flipped"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    fn f64_bits(v: Result<Vec<f64>>) -> Result<Vec<u64>> {
        v.map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    /// A column whose delta-of-delta stream is made of `pieces`: `(0, r)`
    /// is a run of 1..=200 `0` fields, `(1..=3, r)` one field in the 7-,
    /// 9- or 12-bit bucket, anything else one 64-bit escape.
    fn dod_column(first: i64, pieces: &[(u8, u64)]) -> Vec<i64> {
        let mut vals = vec![first];
        let mut delta = 0i64;
        for &(kind, r) in pieces {
            let (dods, times) = match kind {
                0 => (0, r % 200 + 1),
                1 => ((r % 128) as i64 - 63, 1),
                2 => ((r % 512) as i64 - 255, 1),
                3 => ((r % 4096) as i64 - 2047, 1),
                _ => ((r as i64) | (1 << 62), 1),
            };
            for _ in 0..times {
                delta = delta.wrapping_add(dods);
                vals.push(vals.last().unwrap().wrapping_add(delta));
            }
        }
        vals
    }

    /// A column whose XOR stream is made of `pieces`: `(0, r)` is a run
    /// of 1..=200 repeats, `(1, r)` a change inside the open window (a new
    /// one if there is none), `(2, r)` a 64-bit window (top and bottom bit
    /// flipped), anything else a new window of random shape.
    fn xor_column(first: u64, pieces: &[(u8, u64)]) -> Vec<f64> {
        let mut bits = vec![first];
        for &(kind, r) in pieces {
            let prev = *bits.last().unwrap();
            let (x, times) = match kind {
                0 => (0, r % 200 + 1),
                1 => ((r & 0xFF) << 20 | 1 << 20, 1),
                2 => (r | 1 << 63 | 1, 1),
                _ => (r.rotate_left((r % 64) as u32) | 1 << (r % 64), 1),
            };
            for _ in 0..times {
                bits.push(prev ^ x);
            }
        }
        bits.into_iter().map(f64::from_bits).collect()
    }

    #[test]
    fn decoders_match_their_references_at_the_fast_path_edges() {
        // Every zero-run length from 1 to 200, so that runs end at `n` in
        // every bit of the last byte and on, before and past every refill,
        // alone and followed by one field of each bucket.
        for run in 1..=200u64 {
            for tail in [&[][..], &[4], &[1, 2, 3, 4, 0]] {
                let mut pieces = vec![(0, run - 1)];
                pieces.extend(tail.iter().map(|&k| (k, 0x1234_5678_9ABC_DEF0 + run)));
                let vals = dod_column(-5, &pieces);
                let stream = encode_delta_delta(&vals);
                same_as_reference(
                    &stream,
                    vals.len(),
                    decode_delta_delta,
                    ref_decode_delta_delta,
                );
                let floats = xor_column(0x4035_0000_0000_0000, &pieces);
                same_as_reference(
                    &encode_xor_f64(&floats),
                    floats.len(),
                    |d, n| f64_bits(decode_xor_f64(d, n)),
                    |d, n| f64_bits(ref_decode_xor_f64(d, n)),
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_delta_delta_matches_reference(
            first in any::<i64>(),
            pieces in proptest::collection::vec((0u8..5, any::<u64>()), 0..10),
        ) {
            let vals = dod_column(first, &pieces);
            let stream = encode_delta_delta(&vals);
            same_as_reference(&stream, vals.len(), decode_delta_delta, ref_decode_delta_delta);
        }

        #[test]
        fn prop_xor_matches_reference(
            first in any::<u64>(),
            pieces in proptest::collection::vec((0u8..4, any::<u64>()), 0..10),
        ) {
            let vals = xor_column(first, &pieces);
            same_as_reference(
                &encode_xor_f64(&vals),
                vals.len(),
                |d, n| f64_bits(decode_xor_f64(d, n)),
                |d, n| f64_bits(ref_decode_xor_f64(d, n)),
            );
        }

        #[test]
        fn prop_zigzag_delta_matches_reference(
            // Deltas whose varints are 1 byte, 2 to 8, 9 and 10 bytes long.
            steps in proptest::collection::vec((0u8..4, any::<i64>()), 0..40),
        ) {
            let vals: Vec<i64> = steps.iter().scan(0i64, |acc, &(width, r)| {
                *acc = acc.wrapping_add(match width {
                    0 => r % 64,
                    1 => r >> (r as u64 % 56 + 7),
                    2 => (r >> 1) | 1 << 61,
                    _ => r | 1 << 63,
                });
                Some(*acc)
            }).collect();
            let stream = encode_zigzag_delta(&vals);
            same_as_reference(&stream, vals.len(), decode_zigzag_delta, ref_decode_zigzag_delta);
        }

        #[test]
        fn prop_dict_rle_matches_reference(
            runs in proptest::collection::vec((0u8..6, 1usize..300), 0..8),
        ) {
            let words: [&[u8]; 6] = [b"", b"a", b"ap-indoor", b"switch", &[0xFF; 12], b"z-wave"];
            let vals: Vec<&[u8]> = runs
                .iter()
                .flat_map(|&(w, len)| std::iter::repeat_n(words[w as usize], len))
                .collect();
            let stream = encode_dict_rle(&vals).expect("six distinct values fit the dictionary");
            same_as_reference(&stream, vals.len(), decode_dict_rle, ref_decode_dict_rle);
        }
    }

    #[test]
    fn writer_spills_at_every_accumulator_fill() {
        // Fields that land exactly on, one short of and one past the
        // 64-bit boundary, from every starting offset.
        for lead in 0..=64u8 {
            for n in [0u8, 1, 63 - lead.min(63), 64 - lead, 64] {
                let mut w = BitWriter::new();
                let mut r = RefBitWriter::default();
                for (v, n) in [(u64::MAX, lead), (0xA5A5_5A5A_DEAD_BEEF, n), (0b101, 3)] {
                    w.write_bits(v, n);
                    r.write_bits(v, n);
                }
                assert_eq!(w.finish(), r.buf, "lead {lead} n {n}");
            }
        }
    }

    /// Every truncation and every single-bit flip of `stream` decodes to
    /// an error or to exactly `n` values.
    fn mangle<T>(stream: &[u8], n: usize, decode: impl Fn(&[u8], usize) -> Result<Vec<T>>) {
        for cut in 0..stream.len() {
            if let Ok(v) = decode(&stream[..cut], n) {
                assert_eq!(v.len(), n, "cut at {cut}");
            }
        }
        let mut flipped = stream.to_vec();
        for bit in 0..stream.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(v) = decode(&flipped, n) {
                assert_eq!(v.len(), n, "bit {bit} flipped");
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn truncated_and_bit_flipped_streams_error_or_decode_to_length() {
        // One stream per bucket mix: regular, jittery, escaping.
        let ints: [Vec<i64>; 3] = [
            (0..200).map(|i| 1_600_000_000 + i * 60).collect(),
            (0..200).map(|i| i * i * 37 % 5000 - 2500).collect(),
            vec![0, i64::MAX, i64::MIN, 5, 5, 5, -70, 300, -3000, 1 << 40],
        ];
        for vals in &ints {
            mangle(&encode_delta_delta(vals), vals.len(), decode_delta_delta);
        }
        let floats: [Vec<f64>; 3] = [
            (0..200).map(|i| 20.0 + (i % 7) as f64 / 8.0).collect(),
            (0..200).map(|i| ((i * 7919) as f64).sin()).collect(),
            vec![
                0.0,
                f64::NAN,
                f64::INFINITY,
                -0.0,
                1.0,
                1.0,
                f64::MIN_POSITIVE,
            ],
        ];
        for vals in &floats {
            mangle(&encode_xor_f64(vals), vals.len(), decode_xor_f64);
        }
    }

    proptest! {
        #[test]
        fn prop_i64_round_trip(vals in proptest::collection::vec(any::<i64>(), 0..300)) {
            check_i64(&vals);
        }

        #[test]
        fn prop_smooth_i64_round_trip(
            start in -1_000_000_000i64..1_000_000_000,
            deltas in proptest::collection::vec(-1000i64..1000, 0..300),
        ) {
            let vals: Vec<i64> = deltas.iter().scan(start, |acc, d| {
                *acc = acc.wrapping_add(*d);
                Some(*acc)
            }).collect();
            check_i64(&vals);
        }

        #[test]
        fn prop_f64_round_trip(bits in proptest::collection::vec(any::<u64>(), 0..300)) {
            let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            check_f64(&vals);
        }

        #[test]
        fn prop_bytes_round_trip(vals in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..20), 0..200)) {
            let refs: Vec<&[u8]> = vals.iter().map(|v| v.as_slice()).collect();
            check_bytes(&refs);
        }

        #[test]
        fn prop_decode_garbage_is_total(
            data in proptest::collection::vec(any::<u8>(), 0..128),
            n in 0usize..256,
            tag in 0u8..8,
        ) {
            let _ = decode_i64_column(tag, &data, n);
            let _ = decode_f64_column(tag, &data, n);
            let _ = decode_bytes_column(tag, &data, n);
        }

        #[test]
        fn prop_bit_io_matches_bit_at_a_time_reference(
            fields in proptest::collection::vec((any::<u64>(), 0u8..=64), 0..80),
        ) {
            let mut w = BitWriter::new();
            let mut r = RefBitWriter::default();
            for &(v, n) in &fields {
                w.write_bits(v, n);
                r.write_bits(v, n);
            }
            let bytes = w.finish();
            prop_assert_eq!(&bytes, &r.buf);
            // Read the same widths back, then one field too many.
            let mut rd = BitReader::new(&bytes);
            let mut pos = 0usize;
            for &(v, n) in &fields {
                let expect = ref_read_bits(&bytes, &mut pos, n).unwrap();
                prop_assert_eq!(rd.read_bits(n).unwrap(), expect);
                prop_assert_eq!(expect, if n == 64 { v } else { v & ((1u64 << n) - 1) });
            }
            prop_assert!(rd.expect_zero_padding().is_ok());
            prop_assert!(rd.read_bits(8).is_err());
        }

        #[test]
        fn prop_reader_matches_reference_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..40),
            widths in proptest::collection::vec(0u8..=64, 0..40),
        ) {
            let mut rd = BitReader::new(&data);
            let mut pos = 0usize;
            for &n in &widths {
                match ref_read_bits(&data, &mut pos, n) {
                    Some(expect) => prop_assert_eq!(rd.read_bits(n).unwrap(), expect),
                    None => {
                        prop_assert!(rd.read_bits(n).is_err());
                        break;
                    }
                }
            }
        }

        #[test]
        fn prop_sized_race_picks_what_the_built_race_picked(
            start in any::<i64>(),
            steps in proptest::collection::vec((0u8..6, any::<i64>()), 0..300),
        ) {
            // Mixed regimes inside one column, so every winner and every
            // tie between neighbours comes up.
            let vals: Vec<i64> = steps.iter().scan(start >> 8, |acc, &(mode, r)| {
                *acc = match mode {
                    0 => *acc,
                    1 => acc.wrapping_add(60),
                    2 => acc.wrapping_add(r % 50),
                    3 => acc.wrapping_add(r % 3000),
                    4 => acc.wrapping_add(r >> 20),
                    _ => r,
                };
                Some(*acc)
            }).collect();
            prop_assert_eq!(encode_i64_column(&vals), ref_encode_i64_column(&vals));
            let narrow: Vec<i32> = vals.iter().map(|&v| v as i32).collect();
            let wide: Vec<i64> = narrow.iter().map(|&v| v as i64).collect();
            let mut out = vec![0xEE];
            let tag = encode_i64_column_into(narrow.iter().map(|&v| v as i64), &mut out);
            let (ref_tag, ref_bytes) = ref_encode_i64_column(&wide);
            prop_assert_eq!(tag, ref_tag);
            prop_assert_eq!(&out[1..], &ref_bytes[..]);
        }
    }
}
