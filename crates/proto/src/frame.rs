//! Length-prefixed framing over any byte stream.
//!
//! Two consumers share the format `[len: u32 LE][payload]`:
//!
//! * [`read_frame`] / [`write_frame`] — blocking helpers for clients and
//!   tests, which read exactly one frame and leave the stream positioned
//!   at the next.
//! * [`FrameDecoder`] — an incremental, push-based decoder for the
//!   server's nonblocking event loop. Bytes arrive in whatever chunks the
//!   socket delivers; partial header and payload state is preserved
//!   across `WouldBlock`, so a frame split across arbitrarily many reads
//!   (or written by an arbitrarily slow client) reassembles correctly.
//!
//! Neither path trusts the length prefix with memory: allocation grows
//! with bytes actually received (in chunks of at most [`READ_CHUNK`]),
//! never by the advertised length up front, so a hostile 64 MiB prefix
//! costs its sender 64 MiB of traffic before it costs the server 64 MiB
//! of memory.

use std::io::{self, Read, Write};

/// Upper bound on a single frame, protecting both sides from corrupt or
/// hostile length prefixes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Largest single allocation step and read request while assembling a
/// frame. Bounds up-front memory commitment for untrusted length
/// prefixes.
pub const READ_CHUNK: usize = 64 << 10;

/// Writes one frame: a little-endian u32 length followed by the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

fn check_len(len: usize) -> io::Result<()> {
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    Ok(())
}

/// Reads one frame written by [`write_frame`]. Returns `None` on a clean
/// EOF at a frame boundary; an EOF anywhere inside a frame, its length
/// prefix included, is an `UnexpectedEof` error.
///
/// The payload buffer grows in steps of at most [`READ_CHUNK`] as bytes
/// arrive; a length prefix never commits memory ahead of the data. Reads
/// exactly the frame's bytes from `r`, leaving the stream positioned at
/// the next frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    check_len(len)?;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let take = (len - payload.len()).min(READ_CHUNK);
        let old = payload.len();
        payload.resize(old + take, 0);
        r.read_exact(&mut payload[old..])?;
    }
    Ok(Some(payload))
}

/// Incremental frame reassembly for nonblocking streams.
///
/// Feed raw bytes with [`FrameDecoder::push`] (or pull them from a
/// reader with [`FrameDecoder::read_from`]) and drain complete frames
/// with [`FrameDecoder::next_frame`]. Partial frames persist inside the
/// decoder between calls, so a read that ends mid-frame (`WouldBlock`,
/// short read, slow writer) never loses or misaligns bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Buffered bytes: `buf[pos..]` is unconsumed input.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, compacted away periodically.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes received from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Performs one `read` of at most [`READ_CHUNK`] bytes from `r` into
    /// the decoder. Returns the byte count (0 means EOF). `WouldBlock`
    /// and friends surface as errors for the caller to interpret; buffered
    /// state is unaffected by them.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.compact();
        let old = self.buf.len();
        self.buf.resize(old + READ_CHUNK, 0);
        let res = r.read(&mut self.buf[old..]);
        let n = *res.as_ref().unwrap_or(&0);
        self.buf.truncate(old + n);
        res
    }

    /// Pops the next complete frame, if the buffer holds one. Errors on a
    /// length prefix above [`MAX_FRAME_LEN`]; the connection should be
    /// dropped, as the stream can no longer be trusted.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        check_len(len)?;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        self.compact();
        Ok(Some(payload))
    }

    /// Unconsumed bytes currently buffered (partial frame state).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes of memory the decoder has committed — observable proof that
    /// a hostile length prefix does not allocate ahead of its payload.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// True when the decoder sits at a frame boundary with nothing
    /// buffered (a clean EOF point).
    pub fn is_clean(&self) -> bool {
        self.buffered() == 0
    }

    /// Drops the consumed prefix once it dominates the buffer, keeping
    /// amortized O(1) per byte.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= READ_CHUNK) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..6]; // cut inside the payload
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let buf = (u32::MAX).to_le_bytes();
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn large_frames_read_in_chunks() {
        // A frame bigger than one READ_CHUNK still round-trips through
        // the incremental payload loop.
        let payload: Vec<u8> = (0..READ_CHUNK * 3 + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
    }

    /// A reader that records the largest buffer any single `read` call
    /// asked it to fill — the observable for "don't commit the advertised
    /// length up front".
    struct RequestSizeProbe<'a> {
        data: &'a [u8],
        max_request: usize,
    }

    impl Read for RequestSizeProbe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.max_request = self.max_request.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn hostile_prefix_does_not_commit_payload_up_front() {
        // Claim the maximum frame length, deliver nothing. The old code
        // allocated and asked for all 64 MiB in one read_exact; the
        // incremental path never requests (or allocates) more than one
        // chunk at a time.
        let mut wire = ((MAX_FRAME_LEN as u32).to_le_bytes()).to_vec();
        wire.extend_from_slice(&[0u8; 1024]); // token payload, then EOF
        let mut probe = RequestSizeProbe {
            data: &wire,
            max_request: 0,
        };
        assert!(read_frame(&mut probe).is_err()); // EOF mid-payload
        assert!(
            probe.max_request <= READ_CHUNK,
            "read_frame requested {} bytes at once",
            probe.max_request
        );

        // Same property for the incremental decoder: after the hostile
        // prefix arrives, committed memory tracks received bytes, not the
        // advertised length.
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME_LEN as u32).to_le_bytes());
        assert!(dec.next_frame().unwrap().is_none());
        assert!(
            dec.buffer_capacity() < 2 * READ_CHUNK,
            "decoder committed {} bytes for an empty payload",
            dec.buffer_capacity()
        );
    }

    /// What a reader made of a byte stream: the whole frames it returned,
    /// then `true` for a clean end or `false` for an error.
    type Outcome = (Vec<Vec<u8>>, bool);

    /// What every reader must make of `wire`: its whole frames in order,
    /// then a clean end exactly when the last of them ends the stream.
    fn expected(wire: &[u8]) -> Outcome {
        let mut frames = Vec::new();
        let mut rest = wire;
        while rest.len() >= 4 {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            if len > MAX_FRAME_LEN || rest.len() - 4 < len {
                break;
            }
            frames.push(rest[4..4 + len].to_vec());
            rest = &rest[4 + len..];
        }
        (frames, rest.is_empty())
    }

    /// `wire` through [`read_frame`], no single read asking for more
    /// than [`READ_CHUNK`] bytes.
    fn via_read_frame(wire: &[u8]) -> Outcome {
        let mut probe = RequestSizeProbe {
            data: wire,
            max_request: 0,
        };
        let mut frames = Vec::new();
        let clean = loop {
            match read_frame(&mut probe) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        assert!(probe.max_request <= READ_CHUNK, "{}", probe.max_request);
        (frames, clean)
    }

    /// `pieces` pushed one by one through a [`FrameDecoder`], which never
    /// holds more than [`READ_CHUNK`] bytes beyond those pushed so far.
    fn via_decoder<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> Outcome {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut pushed = 0;
        for piece in pieces {
            dec.push(piece);
            pushed += piece.len();
            loop {
                match dec.next_frame() {
                    Ok(Some(f)) => frames.push(f),
                    Ok(None) => break,
                    Err(_) => return (frames, false),
                }
            }
            assert!(dec.buffer_capacity() <= pushed + READ_CHUNK);
        }
        let clean = dec.is_clean();
        (frames, clean)
    }

    #[test]
    fn hostile_bytes_yield_whole_frames_then_an_error_or_a_clean_end() {
        let mut wire = Vec::new();
        for f in [&b"hello"[..], b"", &[0xA5; 300], b"tail"] {
            write_frame(&mut wire, f).unwrap();
        }
        let truncations = (0..=wire.len()).map(|n| wire[..n].to_vec());
        let flips = (0..wire.len() * 8).map(|bit| {
            let mut w = wire.clone();
            w[bit / 8] ^= 1 << (bit % 8);
            w
        });
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for input in truncations.chain(flips) {
            let want = expected(&input);
            assert_eq!(via_read_frame(&input), want, "read_frame on {input:?}");
            assert_eq!(via_decoder([&input[..]]), want, "whole push of {input:?}");
            // Random splits, empty pieces included.
            for _ in 0..2 {
                let mut pieces = Vec::new();
                let mut rest = &input[..];
                while !rest.is_empty() {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let (piece, tail) = rest.split_at((seed % 40) as usize % (rest.len() + 1));
                    pieces.push(piece);
                    rest = tail;
                }
                assert_eq!(via_decoder(pieces), want, "split push of {input:?}");
            }
        }
    }

    #[test]
    fn decoder_reassembles_across_arbitrary_splits() {
        let frames: Vec<Vec<u8>> = vec![
            b"hello".to_vec(),
            Vec::new(),
            (0..10_000).map(|i| i as u8).collect(),
            b"tail".to_vec(),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        // Feed the byte stream in every chunk size from 1 to 19 and in
        // one shot; the decoder must yield the same frames every time.
        for chunk in (1..20).chain([wire.len()]) {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.push(piece);
                while let Some(frame) = dec.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert!(dec.is_clean());
        }
    }

    #[test]
    fn decoder_rejects_oversized_length() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_read_from_tracks_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"defg").unwrap();
        let mut r = &wire[..];
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        loop {
            match dec.read_from(&mut r) {
                Ok(0) => break,
                Ok(_) => {
                    while let Some(f) = dec.next_frame().unwrap() {
                        got.push(f);
                    }
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"defg".to_vec()]);
        assert!(dec.is_clean());
    }
}
