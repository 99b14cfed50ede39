//! On-disk tablets: write-once files of sorted, blocked, compressed rows.
//!
//! Layout (§3.2, §3.5 of the paper):
//!
//! ```text
//! [compressed block 0][compressed block 1]…[compressed footer][trailer]
//! ```
//!
//! The footer holds the schema the tablet was written under, its timespan,
//! row count, optional Bloom filter, and the block index (file offset,
//! sizes, and last key of every block). The fixed-size trailer at the very
//! end of the file records the footer's decompressed size and offset — the
//! paper's "final two words" — plus a compressed size, a CRC, and a magic
//! number for corruption detection. Reading a cold tablet's footer costs
//! three seeks: inode, trailer, footer body.
//!
//! A [`TabletWriter`] takes rows by [`TabletWriter::add_run`]: a row range
//! of a decoded block under its schema — a flushed memtablet gathered in
//! key order, a merge's or a bulk delete's runs — whose typed column
//! sub-slices it copies without building a row. However the same rows are
//! cut into runs, and row by row (`add_row`, the tests' reference), they
//! yield the same file: blocks are cut after the row that brings the size
//! estimate to the block size, and the Bloom filter gets every key prefix.
//!
//! Every tablet written is footer version 3: blocks of per-column slices
//! (see [`crate::block`]), row counts and zone maps in the block index.
//! Footer versions 1 and 2 — row-major blocks, no index statistics — are
//! read and never written: `parse_block` transcodes their blocks into
//! the same decoded [`Block`] a version-3 block parses to, so nothing
//! outside this module knows the older layout exists, and the first merge
//! that takes such a tablet rewrites it as version 3.

use crate::block::{Block, BlockEncoder};
use crate::bloom::{BloomBuilder, BloomFilter};
use crate::cache::{BlockCache, CompressedBlock, Resident};
use crate::cursor::READAHEAD_BYTES;
use crate::error::{Error, Result};
use crate::keyenc::component_end;
use crate::row::decode_row;
use crate::schema::{decode_value, encode_value, Schema};
use crate::stats::TableStats;
use crate::util::{crc32, fnv1a, mix64, put_varint, Reader, FNV_OFFSET};
use crate::value::{ColumnType, Value};
use littletable_vfs::{Micros, RandomAccessFile, Vfs, WritableFile};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    /// Scratch buffer a block or footer is decompressed into: parsing
    /// copies out what it keeps, so the bytes never outlive the call.
    static RAW_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Largest capacity the scratch buffer keeps between reads. One oversized
/// block (a giant row) or footer must not pin its high-water mark on
/// every reader thread forever; anything above this is released after
/// the read that needed it.
const SCRATCH_RETAIN_MAX: usize = 256 << 10;

/// Decompresses `compressed` to `len` bytes in this thread's
/// [`RAW_SCRATCH`] and hands them to `parse`.
fn with_decompressed<T>(
    compressed: &[u8],
    len: usize,
    parse: impl FnOnce(&[u8]) -> Result<T>,
) -> Result<T> {
    RAW_SCRATCH.with_borrow_mut(|raw| {
        let parsed = littletable_compress::decompress_into(compressed, len, raw)
            .map_err(Error::from)
            .and_then(|()| parse(raw));
        if raw.capacity() > SCRATCH_RETAIN_MAX {
            raw.clear();
            raw.shrink_to(SCRATCH_RETAIN_MAX);
        }
        parsed
    })
}

/// Magic number ending every tablet file.
const TRAILER_MAGIC: u64 = 0x4C54_5441_424C_3031; // "LTTABL01"
/// Trailer byte size: three u64 words, a u32 CRC, and the magic.
const TRAILER_LEN: u64 = 8 + 8 + 8 + 4 + 8;
/// The footer version written: blocks hold per-column codec-compressed
/// slices, and each index entry records the block's CRC32, row count and
/// per-column zone maps. Versions 1 and 2 held row-major blocks and
/// neither counts nor zones; version 2 added the per-block CRC.
const FOOTER_VERSION: u8 = 3;
/// The first footer version with a CRC32 in each index entry.
const FOOTER_VERSION_BLOCK_CRC: u8 = 2;

/// Index entry for one block inside a tablet.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockIndexEntry {
    /// File offset of the compressed block.
    pub offset: u64,
    /// Compressed size in bytes.
    pub compressed_len: u32,
    /// Uncompressed size in bytes.
    pub uncompressed_len: u32,
    /// CRC32 of the compressed bytes, verified on every disk read.
    /// `None` for tablets written before footer version 2: corruption
    /// there is still caught by decompression framing, but a flipped
    /// bit that survives decompression to the right length is not.
    pub crc: Option<u32>,
    /// Rows in the block. Persisted in v3 footers, where it lets
    /// `COUNT` be answered from the index alone; decodes as 0 from
    /// v1/v2 footers (row blocks carry their count in the block header).
    pub rows: u32,
    /// Per-schema-column zone maps `(min, max)`, persisted in v3
    /// footers; empty for v1/v2. `None` marks a column with no
    /// computable zone: strings, blobs, and float slices containing NaN
    /// (a NaN row satisfies no comparison, so a zone over it could
    /// prove predicates that some rows fail).
    pub zones: Vec<Option<(Value, Value)>>,
    /// The last (largest) key in the block.
    pub last_key: Vec<u8>,
}

/// The decoded tablet footer.
#[derive(Debug, Clone)]
pub struct TabletFooter {
    /// Schema version the rows were written under.
    pub schema: Schema,
    /// Smallest row timestamp in the tablet.
    pub min_ts: Micros,
    /// Largest row timestamp in the tablet.
    pub max_ts: Micros,
    /// Total number of rows.
    pub row_count: u64,
    /// Optional Bloom filter over key prefixes.
    pub bloom: Option<BloomFilter>,
    /// True for a footer-v1/v2 tablet, whose row-major blocks
    /// [`parse_block`] transcodes; nothing else reads it.
    pub(crate) row_blocks: bool,
    /// Per-block index, in key order.
    pub blocks: Vec<BlockIndexEntry>,
}

impl TabletFooter {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(FOOTER_VERSION);
        self.schema.encode(&mut out);
        put_varint(&mut out, crate::util::zigzag(self.min_ts));
        put_varint(&mut out, crate::util::zigzag(self.max_ts));
        put_varint(&mut out, self.row_count);
        match &self.bloom {
            Some(b) => {
                out.push(1);
                b.encode(&mut out);
            }
            None => out.push(0),
        }
        put_varint(&mut out, self.blocks.len() as u64);
        for b in &self.blocks {
            put_varint(&mut out, b.offset);
            put_varint(&mut out, b.compressed_len as u64);
            put_varint(&mut out, b.uncompressed_len as u64);
            match b.crc {
                Some(crc) => {
                    out.push(1);
                    put_varint(&mut out, crc as u64);
                }
                None => out.push(0),
            }
            put_varint(&mut out, b.rows as u64);
            for z in &b.zones {
                match z {
                    Some((lo, hi)) => {
                        out.push(1);
                        encode_value(&mut out, lo.as_ref());
                        encode_value(&mut out, hi.as_ref());
                    }
                    None => out.push(0),
                }
            }
            crate::util::put_len_prefixed(&mut out, &b.last_key);
        }
        out
    }

    fn decode(data: &[u8]) -> Result<TabletFooter> {
        let mut r = Reader::new(data);
        let ver = r.u8()?;
        if !(1..=FOOTER_VERSION).contains(&ver) {
            return Err(Error::corrupt(format!("unknown footer version {ver}")));
        }
        let row_blocks = ver < FOOTER_VERSION;
        let schema = Schema::decode(&mut r)?;
        let min_ts = crate::util::unzigzag(r.varint()?);
        let max_ts = crate::util::unzigzag(r.varint()?);
        let row_count = r.varint()?;
        let bloom = match r.u8()? {
            0 => None,
            1 => Some(BloomFilter::decode(&mut r)?),
            t => return Err(Error::corrupt(format!("bad bloom tag {t}"))),
        };
        let nblocks = r.varint()? as usize;
        // Every entry takes bytes, so the count cannot outrun them.
        let mut blocks = Vec::with_capacity(nblocks.min(r.remaining()).min(1 << 20));
        for _ in 0..nblocks {
            let offset = r.varint()?;
            let compressed_len = r.varint_u32("block length")?;
            let uncompressed_len = r.varint_u32("block length")?;
            let crc = if ver >= FOOTER_VERSION_BLOCK_CRC {
                match r.u8()? {
                    0 => None,
                    1 => Some(r.varint_u32("block crc")?),
                    t => return Err(Error::corrupt(format!("bad block crc tag {t}"))),
                }
            } else {
                None
            };
            let (rows, zones) = if !row_blocks {
                let rows = r.varint_u32("block row count")?;
                let mut zones = Vec::with_capacity(schema.columns().len());
                for col in schema.columns() {
                    zones.push(match r.u8()? {
                        0 => None,
                        1 => {
                            let lo = decode_value(&mut r, col.ty)?;
                            let hi = decode_value(&mut r, col.ty)?;
                            Some((lo, hi))
                        }
                        t => return Err(Error::corrupt(format!("bad zone tag {t}"))),
                    });
                }
                (rows, zones)
            } else {
                (0, Vec::new())
            };
            blocks.push(BlockIndexEntry {
                offset,
                compressed_len,
                uncompressed_len,
                crc,
                rows,
                zones,
                last_key: r.len_prefixed()?.to_vec(),
            });
        }
        if !r.is_empty() {
            return Err(Error::corrupt("trailing bytes after footer"));
        }
        Ok(TabletFooter {
            schema,
            min_ts,
            max_ts,
            row_count,
            bloom,
            row_blocks,
            blocks,
        })
    }

    /// Approximate resident size in bytes — what caching this footer
    /// costs in memory. Used as its charge in the shared block cache.
    pub fn approx_byte_size(&self) -> usize {
        let mut sz = std::mem::size_of::<TabletFooter>();
        sz += self.schema.columns().len() * 64;
        if let Some(b) = &self.bloom {
            sz += b.byte_size();
        }
        sz += self
            .blocks
            .iter()
            .map(|b| std::mem::size_of::<BlockIndexEntry>() + b.last_key.len() + b.zones.len() * 48)
            .sum::<usize>();
        sz
    }
}

/// Collects the Bloom filter's elements — the hash of every distinct
/// prefix of the keys, at component boundaries — in one streaming FNV-1a
/// pass per key. It remembers where the previous key's components ended
/// and the hash state there, so a key hashes only from its first
/// component that differs from the previous key's: the prefixes before
/// it are the previous key's own, already in the filter. Keys arrive
/// sorted, so the rows sharing a prefix are adjacent and each distinct
/// prefix is added exactly once.
struct PrefixBloom {
    builder: BloomBuilder,
    key_types: Vec<ColumnType>,
    /// End offset of each component of the previous key.
    ends: Vec<usize>,
    /// FNV-1a state at each of `ends`.
    states: Vec<u64>,
}

impl PrefixBloom {
    fn new(key_types: Vec<ColumnType>) -> Self {
        PrefixBloom {
            builder: BloomBuilder::new(),
            ends: Vec::with_capacity(key_types.len()),
            states: Vec::with_capacity(key_types.len()),
            key_types,
        }
    }

    /// Adds every prefix of `key`, which shares its first `shared` bytes
    /// with the previous key added.
    fn add_key(&mut self, key: &[u8], shared: usize) -> Result<()> {
        // A component that ends inside the shared bytes ends there in
        // both keys, on the same hash state.
        let same = self.ends.iter().take_while(|&&end| end <= shared).count();
        self.ends.truncate(same);
        self.states.truncate(same);
        let mut pos = self.ends.last().copied().unwrap_or(0);
        let mut state = self.states.last().copied().unwrap_or(FNV_OFFSET);
        for &ty in &self.key_types[same..] {
            let end = component_end(key, pos, ty)?;
            state = fnv1a(state, &key[pos..end]);
            self.builder.add_hash(mix64(state));
            self.ends.push(end);
            self.states.push(state);
            pos = end;
        }
        Ok(())
    }
}

/// Streams sorted rows into a tablet file.
pub struct TabletWriter {
    file: Box<dyn WritableFile>,
    /// The block under construction.
    block: BlockEncoder,
    blocks: Vec<BlockIndexEntry>,
    block_size: usize,
    bloom: Option<PrefixBloom>,
    schema: Schema,
    min_ts: Micros,
    max_ts: Micros,
    row_count: u64,
    offset: u64,
    last_key: Vec<u8>,
    /// The next key of a run, encoded here before it becomes `last_key`.
    key_scratch: Vec<u8>,
    /// The block under way, serialized and not yet compressed.
    raw: Vec<u8>,
    scratch: Vec<u8>,
    /// The reader the tablet will be served through, whose footer
    /// [`TabletWriter::finish`] admits (see [`TabletWriter::warming`]).
    warm: Option<Arc<TabletReader>>,
    /// Whether the tablets this one rewrites had a block cached, so that
    /// each block is admitted as it is written (see
    /// [`TabletWriter::inheriting`]).
    inherit: bool,
}

impl TabletWriter {
    /// Starts a tablet at `file`. `block_size` is the uncompressed block
    /// target (64 kB in the paper); `with_bloom` enables the Bloom-filter
    /// extension.
    pub fn new(
        file: Box<dyn WritableFile>,
        schema: Schema,
        block_size: usize,
        with_bloom: bool,
    ) -> Self {
        TabletWriter {
            file,
            block: BlockEncoder::new(&schema),
            blocks: Vec::new(),
            block_size,
            bloom: with_bloom.then(|| PrefixBloom::new(schema.key_types())),
            schema,
            min_ts: Micros::MAX,
            max_ts: Micros::MIN,
            row_count: 0,
            offset: 0,
            last_key: Vec::new(),
            key_scratch: Vec::new(),
            raw: Vec::new(),
            scratch: Vec::new(),
            warm: None,
            inherit: false,
        }
    }

    /// Makes [`TabletWriter::finish`] admit the footer it wrote to
    /// `reader`'s block cache once it is synced.
    pub(crate) fn warming(mut self, reader: Arc<TabletReader>) -> Self {
        self.warm = Some(reader);
        self
    }

    /// Makes a warming writer offer, when `inherit` holds, each block it
    /// writes to the lower tier of its reader's cache, which takes it into
    /// free space only: a rewrite whose inputs had a block cached hands
    /// its output to the cache.
    pub(crate) fn inheriting(mut self, inherit: bool) -> Self {
        self.inherit = inherit;
        self
    }

    /// Checks that `key` sorts strictly after every key written so far,
    /// enters its prefixes into the Bloom filter, and makes it the last
    /// key.
    fn accept_key(&mut self, key: &[u8]) -> Result<()> {
        if self.row_count > 0 && key <= self.last_key.as_slice() {
            return Err(Error::invalid(
                "tablet rows must be written in strictly ascending key order",
            ));
        }
        if let Some(bloom) = &mut self.bloom {
            let shared = key
                .iter()
                .zip(&self.last_key)
                .take_while(|(a, b)| a == b)
                .count();
            bloom.add_key(key, shared)?;
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        Ok(())
    }

    /// Appends `rows` of `block`, a block under this writer's schema,
    /// skipping rows whose timestamp is below `min_ts`: typed column
    /// sub-slices are copied, no row is built. The result is the file
    /// appending the same rows one at a time would produce, and keys must
    /// ascend strictly within the run and after everything written before
    /// it.
    pub fn add_run(&mut self, block: &Block, rows: Range<usize>, min_ts: Micros) -> Result<()> {
        if rows.start > rows.end || rows.end > block.len() {
            return Err(Error::invalid("row run reaches outside its block"));
        }
        let ts = block.timestamps()?;
        let mut at = rows.start;
        while at < rows.end {
            // The next stretch of rows still inside the TTL.
            let live = ts[at..rows.end]
                .iter()
                .take_while(|&&t| t >= min_ts)
                .count();
            self.append_columns(block, ts, at..at + live)?;
            at += live + 1;
        }
        Ok(())
    }

    /// `rows` of `src` (whose timestamp column is `ts`) go into the block
    /// encoder a block's worth at a time, each chunk ending exactly where
    /// row-at-a-time appends would have cut.
    fn append_columns(&mut self, src: &Block, ts: &[Micros], rows: Range<usize>) -> Result<()> {
        let mut at = rows.start;
        while at < rows.end {
            let taken = self.block.append_run(src, at..rows.end, self.block_size)?;
            let full = self.block.size_estimate() >= self.block_size;
            let mut key = std::mem::take(&mut self.key_scratch);
            let accepted = (at..at + taken).try_for_each(|i| {
                key.clear();
                src.encode_key(i, &mut key);
                self.row_count += 1;
                self.accept_key(&key)
            });
            self.key_scratch = key;
            accepted?;
            for &t in &ts[at..at + taken] {
                self.min_ts = self.min_ts.min(t);
                self.max_ts = self.max_ts.max(t);
            }
            if full {
                self.flush_block()?;
            }
            at += taken;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let (zones, rows) = self.block.finish(&mut self.raw);
        self.scratch.clear();
        littletable_compress::compress_into(&self.raw, &mut self.scratch);
        self.file.append(&self.scratch)?;
        if let Some(reader) = self.warm.as_ref().filter(|_| self.inherit) {
            let block = CompressedBlock {
                bytes: self.scratch.as_slice().into(),
                uncompressed_len: self.raw.len() as u32,
            };
            let (cache, tid, bi) = (&reader.cache, reader.tablet_id, self.blocks.len() as u32);
            if cache.admit_into_free_space(tid, bi, block, &reader.stats) {
                TableStats::add(&reader.stats.cache_rewrite_admits, 1);
            }
        }
        self.blocks.push(BlockIndexEntry {
            offset: self.offset,
            compressed_len: self.scratch.len() as u32,
            uncompressed_len: self.raw.len() as u32,
            crc: Some(crc32(&self.scratch)),
            rows,
            zones,
            // A block is flushed right after its last row is added.
            last_key: self.last_key.clone(),
        });
        self.offset += self.scratch.len() as u64;
        Ok(())
    }

    /// Number of rows written so far.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Bytes written to the file so far (excluding the buffered block).
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Finishes the tablet: flushes the last block, writes footer and
    /// trailer, and syncs. Returns `(min_ts, max_ts, row_count, file_len)`.
    pub fn finish(mut self) -> Result<(Micros, Micros, u64, u64)> {
        self.flush_block()?;
        // Sized as a footer decoded from disk is, for the one admitted.
        self.blocks.shrink_to_fit();
        let footer = TabletFooter {
            schema: self.schema.clone(),
            min_ts: self.min_ts,
            max_ts: self.max_ts,
            row_count: self.row_count,
            bloom: self.bloom.take().map(|b| b.builder.build(10)),
            row_blocks: false,
            blocks: std::mem::take(&mut self.blocks),
        };
        let raw = footer.encode();
        let mut compressed = Vec::new();
        littletable_compress::compress_into(&raw, &mut compressed);
        let footer_off = self.offset;
        self.file.append(&compressed)?;
        let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
        trailer.extend_from_slice(&(raw.len() as u64).to_le_bytes());
        trailer.extend_from_slice(&(compressed.len() as u64).to_le_bytes());
        trailer.extend_from_slice(&footer_off.to_le_bytes());
        trailer.extend_from_slice(&crc32(&compressed).to_le_bytes());
        trailer.extend_from_slice(&TRAILER_MAGIC.to_le_bytes());
        self.file.append(&trailer)?;
        self.file.sync()?;
        if let Some(reader) = &self.warm {
            let footer = Arc::new(footer);
            reader
                .cache
                .insert_footer(reader.tablet_id, footer, &reader.stats);
        }
        let file_len = footer_off + compressed.len() as u64 + TRAILER_LEN;
        Ok((self.min_ts, self.max_ts, self.row_count, file_len))
    }
}

/// Parses an uncompressed block of `footer`'s tablet.
fn parse_block(footer: &TabletFooter, raw: &[u8]) -> Result<Block> {
    if footer.row_blocks {
        transcode_row_block(raw, &footer.schema)
    } else {
        Block::parse(raw, &footer.schema)
    }
}

/// A validated footer-v1/v2 block, which stores each row contiguously:
///
/// ```text
/// [row_count u32] [row_offset u32 × row_count] [row entries...]
/// row entry: [key_len varint][key][payload_len varint][payload]
/// ```
///
/// The payload holds the non-key columns, [`encode_value`] each; the key
/// columns are stored only as the encoded key.
struct RowBlock<'a> {
    data: &'a [u8],
    row_count: usize,
    /// Byte offset where row entries begin (just past the offset array).
    entries_base: usize,
}

impl<'a> RowBlock<'a> {
    /// Validates and wraps an uncompressed block.
    ///
    /// `row_count` comes straight off disk, so every derived size uses
    /// checked arithmetic: a corrupt header must yield
    /// [`Error::corrupt`], never an overflow panic (debug builds) or a
    /// wrapped bounds check (32-bit release builds).
    fn parse(data: &'a [u8]) -> Result<RowBlock<'a>> {
        if data.len() < 4 {
            return Err(Error::corrupt("block shorter than its header"));
        }
        let row_count = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        let entries_base = row_count
            .checked_mul(4)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| Error::corrupt("block row count overflows"))?;
        if entries_base > data.len() {
            return Err(Error::corrupt("block offset array truncated"));
        }
        Ok(RowBlock {
            data,
            row_count,
            entries_base,
        })
    }

    /// `(key, payload)` of row `i`, which must be below `row_count`.
    fn entry(&self, i: usize) -> Result<(&'a [u8], &'a [u8])> {
        let at = 4 + i * 4;
        let rel = u32::from_le_bytes(self.data[at..at + 4].try_into().unwrap()) as usize;
        let start = match self.entries_base.checked_add(rel) {
            Some(abs) if abs < self.data.len() => abs,
            _ => return Err(Error::corrupt("block row offset out of range")),
        };
        let mut r = Reader::new(&self.data[start..]);
        let key = r.len_prefixed()?;
        let payload = r.len_prefixed()?;
        Ok((key, payload))
    }
}

/// Decodes a footer-v1/v2 row block written under `schema` into the
/// column slices a version-3 block of the same rows parses to. The
/// result derives its keys from the key column values, so every stored
/// key must be exactly what those values encode to.
fn transcode_row_block(raw: &[u8], schema: &Schema) -> Result<Block> {
    let rows = RowBlock::parse(raw)?;
    let mut columns = BlockEncoder::new(schema);
    for i in 0..rows.row_count {
        let (key, payload) = rows.entry(i)?;
        let row = decode_row(key, payload, schema)?;
        if row.encode_key(schema)? != key {
            return Err(Error::corrupt("row block key is not in canonical form"));
        }
        columns.add(&row)?;
    }
    Ok(columns.into_block(schema))
}

/// Cuts the bytes of a read of consecutive blocks into each block's
/// bytes, paired with its index entry, in file order.
fn cut<'a>(
    entries: &'a [BlockIndexEntry],
    mut bytes: &'a [u8],
) -> impl Iterator<Item = (&'a BlockIndexEntry, &'a [u8])> {
    entries.iter().map(move |e| {
        let (block, rest) = bytes.split_at(e.compressed_len as usize);
        bytes = rest;
        (e, block)
    })
}

/// A readable on-disk tablet. The footer is loaded lazily on first use
/// and every footer and block read goes through the reader's block cache:
/// the footer lives there under its own charge class, bounded by the
/// joint cache budget and reclaimable under memory pressure — LittleTable
/// keeps footers in memory "almost indefinitely" (§3.2); after a restart
/// (or an eviction) they reload on demand (§3.5). A zero-budget cache
/// admits no block and pins every footer.
pub struct TabletReader {
    vfs: Arc<dyn Vfs>,
    path: String,
    file: Mutex<Option<Arc<dyn RandomAccessFile>>>,
    /// The block cache: the database's shared one, or a zero-budget one
    /// of the reader's own.
    cache: Arc<BlockCache>,
    /// This reader's never-reused id in `cache`.
    tablet_id: u64,
    /// The owning table's counters, charged for this reader's cache
    /// traffic.
    stats: Arc<TableStats>,
}

impl TabletReader {
    /// Creates a lazy reader for the tablet at `path`, with a zero-budget
    /// cache of its own. No I/O happens until the footer or a block is
    /// first requested.
    pub fn new(vfs: Arc<dyn Vfs>, path: String) -> Self {
        let cache = Arc::new(BlockCache::new(0, 0, 1));
        TabletReader::with_cache(vfs, path, cache, Arc::default())
    }

    /// As [`TabletReader::new`], attached to `cache` under a freshly
    /// allocated tablet id, its reads counted in `stats`.
    pub(crate) fn with_cache(
        vfs: Arc<dyn Vfs>,
        path: String,
        cache: Arc<BlockCache>,
        stats: Arc<TableStats>,
    ) -> Self {
        TabletReader {
            vfs,
            path,
            file: Mutex::new(None),
            tablet_id: cache.register_tablet(),
            cache,
            stats,
        }
    }

    /// The tablet's path within the VFS.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Annotates a corruption error with this tablet's path — and the
    /// block index when one is in play — so quarantine logs name the
    /// damaged file instead of just the symptom.
    fn ctx(&self, block: Option<usize>, e: Error) -> Error {
        match (e, block) {
            (Error::Corrupt(msg), Some(bi)) => {
                Error::Corrupt(format!("{} block {bi}: {msg}", self.path))
            }
            (Error::Corrupt(msg), None) => Error::Corrupt(format!("{}: {msg}", self.path)),
            (e, _) => e,
        }
    }

    fn file(&self) -> Result<Arc<dyn RandomAccessFile>> {
        let mut guard = self.file.lock();
        if let Some(f) = &*guard {
            return Ok(f.clone());
        }
        let f: Arc<dyn RandomAccessFile> = Arc::from(self.vfs.open(&self.path)?);
        *guard = Some(f.clone());
        Ok(f)
    }

    /// The footer, loading (3 seeks) and caching it on first call. It is
    /// cached in the reader's block cache — bounded by the joint budget
    /// and reloadable after eviction, or pinned while the reader lives
    /// when the budget is zero.
    pub fn footer(&self) -> Result<Arc<TabletFooter>> {
        if let Some(f) = self.cache.get_footer(self.tablet_id) {
            return Ok(f);
        }
        let loaded = Arc::new(self.load_footer()?);
        let (tid, stats) = (self.tablet_id, &self.stats);
        self.cache.insert_footer(tid, loaded.clone(), stats);
        Ok(loaded)
    }

    /// True when the footer is currently resident in the block cache.
    pub fn footer_cached(&self) -> bool {
        self.cache.footer_resident(self.tablet_id)
    }

    /// Whether a block of this tablet is resident in either cache tier.
    /// This only observes: it sets no CLOCK reference bit and reads
    /// nothing from disk, so a tablet whose footer is not cached has none.
    pub(crate) fn has_resident_block(&self) -> bool {
        let Some(footer) = self.cache.peek_footer(self.tablet_id) else {
            return false;
        };
        (0..footer.blocks.len() as u32)
            .any(|bi| self.cache.peek_block(self.tablet_id, bi).is_some())
    }

    fn load_footer(&self) -> Result<TabletFooter> {
        self.load_footer_inner().map_err(|e| self.ctx(None, e))
    }

    fn load_footer_inner(&self) -> Result<TabletFooter> {
        let file = self.file()?;
        let len = file.len()?;
        if len < TRAILER_LEN {
            return Err(Error::corrupt("tablet shorter than its trailer"));
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(len - TRAILER_LEN, &mut trailer)?;
        let mut r = Reader::new(&trailer);
        let uncompressed_len = r.u64()?;
        let compressed_len = r.u64()?;
        let footer_off = r.u64()?;
        let crc = r.u32()?;
        let magic = r.u64()?;
        if magic != TRAILER_MAGIC {
            return Err(Error::corrupt("bad tablet magic"));
        }
        // All three words come off disk: a corrupt trailer must yield a
        // corruption error, never an overflow panic in debug builds.
        let expected_len = footer_off
            .checked_add(compressed_len)
            .and_then(|n| n.checked_add(TRAILER_LEN));
        if expected_len != Some(len) {
            return Err(Error::corrupt("tablet trailer geometry mismatch"));
        }
        if uncompressed_len > (1 << 31) || compressed_len > (1 << 31) {
            return Err(Error::corrupt("implausible footer size"));
        }
        let mut compressed = vec![0u8; compressed_len as usize];
        file.read_exact_at(footer_off, &mut compressed)?;
        if crc32(&compressed) != crc {
            return Err(Error::corrupt("tablet footer checksum mismatch"));
        }
        let footer =
            with_decompressed(&compressed, uncompressed_len as usize, TabletFooter::decode)?;
        // The blocks lie end to end from offset 0 up to the footer, as the
        // writer lays them: a read of any run of them is one slice of the
        // file, and no entry can send a read past it.
        let end = footer
            .blocks
            .iter()
            .try_fold(0u64, |at, e| match e.offset == at {
                true => at.checked_add(e.compressed_len as u64),
                false => None,
            });
        if end != Some(footer_off) {
            return Err(Error::corrupt("tablet block index does not tile the file"));
        }
        Ok(footer)
    }

    /// Decodes block `bi` from its compressed bytes: checks them against
    /// `crc` — the CRC recorded in the block's index entry, which catches
    /// corruption that would survive decompression (a flipped bit that
    /// still yields output of the expected length); `None` for a tablet
    /// written before footer version 2, and for bytes that were checked
    /// on their way into the cache — then decompresses and parses. A
    /// corruption error names this tablet and the block.
    fn decode_block(
        &self,
        footer: &TabletFooter,
        bi: usize,
        compressed: &[u8],
        uncompressed_len: usize,
        crc: Option<u32>,
    ) -> Result<Block> {
        (|| {
            if crc.is_some_and(|expected| crc32(compressed) != expected) {
                return Err(Error::corrupt("tablet block checksum mismatch"));
            }
            with_decompressed(compressed, uncompressed_len, |raw| parse_block(footer, raw))
        })()
        .map_err(|e| self.ctx(Some(bi), e))
    }

    /// Reads and decompresses a *run* of consecutive blocks: those of
    /// `blocks` from its start on, up to `max_bytes` of compressed data
    /// (one block at least), in one contiguous read. §3.4.1 of the paper:
    /// to spend at most half its time seeking, LittleTable must read
    /// about 1 MB at a time; merges read through tablets with exactly
    /// such buffers. Every block of the run comes from disk, resident or
    /// not; the run reads of merges start at a block the cache lacks
    /// (`TabletReader::resident_block`).
    pub fn read_block_run(&self, blocks: Range<usize>, max_bytes: usize) -> Result<Vec<Block>> {
        let footer = self.footer()?;
        let start = blocks.start;
        let entries = self.entries(&footer, blocks)?;
        let mut total = entries[0].compressed_len as usize;
        let mut n = 1;
        while n < entries.len() && total + entries[n].compressed_len as usize <= max_bytes {
            total += entries[n].compressed_len as usize;
            n += 1;
        }
        let buf = self.read_blocks(&entries[..n])?;
        cut(&entries[..n], &buf)
            .enumerate()
            .map(|(k, (e, bytes))| {
                let ulen = e.uncompressed_len as usize;
                self.decode_block(&footer, start + k, bytes, ulen, e.crc)
            })
            .collect()
    }

    /// Block `i` if the cache holds it, taken for a run read without
    /// disturbing the cache: no reference bit set, nothing promoted or
    /// admitted, no hit or miss counted, so a merge pass leaves the hot
    /// set as it found it (§3.4.1). An upper-tier block is handed out as
    /// it is; a lower-tier one is decoded from bytes checked on their way
    /// in. Counted in `cache_run_hits`.
    pub(crate) fn resident_block(
        &self,
        footer: &TabletFooter,
        i: usize,
    ) -> Result<Option<Arc<Block>>> {
        let block = match self.cache.peek_block(self.tablet_id, i as u32) {
            None => return Ok(None),
            Some(Resident::Decoded(block)) => block,
            Some(Resident::Compressed(c)) => {
                let ulen = c.uncompressed_len as usize;
                Arc::new(self.decode_block(footer, i, &c.bytes, ulen, None)?)
            }
        };
        TableStats::add(&self.stats.cache_run_hits, 1);
        Ok(Some(block))
    }

    /// The index entries of `blocks`, which must hold at least one.
    fn entries<'f>(
        &self,
        footer: &'f TabletFooter,
        blocks: Range<usize>,
    ) -> Result<&'f [BlockIndexEntry]> {
        let first = blocks.start;
        footer
            .blocks
            .get(blocks)
            .filter(|entries| !entries.is_empty())
            .ok_or_else(|| self.ctx(Some(first), Error::corrupt("block index out of range")))
    }

    /// Reads the compressed bytes of `entries`, consecutive blocks, in one
    /// disk access. `load_footer` checked that the blocks lie end to end,
    /// so the read is one slice of the file and never reaches past the
    /// footer.
    fn read_blocks(&self, entries: &[BlockIndexEntry]) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; entries.iter().map(|e| e.compressed_len as usize).sum()];
        self.file()?.read_exact_at(entries[0].offset, &mut buf)?;
        Ok(buf)
    }

    /// Reads and decompresses block `i` through the reader's two-tier
    /// cache. Decompressed-tier hits return the cached `Arc` without
    /// touching disk; compressed-tier hits pay one decompress (never a
    /// seek) and promote the block back up; full misses read, decompress
    /// (no cache lock held for either), then offer the block to the cache
    /// with its compressed bytes retained for a future demotion.
    ///
    /// A miss reads ahead: the one disk access also covers the blocks
    /// after block `i`, up to `READAHEAD_BYTES` (128 kB) in all, while
    /// the cache has room for the whole read and each block after block
    /// `i` either is resident already or fits in free space in its
    /// lower-tier shard. Only block `i` is decoded; each block after it
    /// whose bytes match their CRC is offered to the lower tier, which
    /// takes it into free space only and skips a resident one. A full
    /// cache reads block `i` alone.
    pub fn read_block(&self, i: usize) -> Result<Arc<Block>> {
        let (tid, bi) = (self.tablet_id, i as u32);
        if let Some(block) = self.cache.get(tid, bi) {
            TableStats::add(&self.stats.cache_hits, 1);
            return Ok(block);
        }
        let taken = self.cache.take_compressed(tid, bi);
        let footer = self.footer()?;
        let (compressed, crc) = match taken {
            Some(hit) => {
                TableStats::add(&self.stats.cache_compressed_hits, 1);
                (hit, None)
            }
            None => {
                TableStats::add(&self.stats.cache_misses, 1);
                let entries = self.entries(&footer, i..footer.blocks.len())?;
                let cache = &self.cache;
                let room = cache.capacity().saturating_sub(cache.bytes_used());
                let room = room.min(READAHEAD_BYTES);
                let mut span = entries[0].compressed_len as usize;
                let mut n = 1;
                while let Some(e) = entries.get(n) {
                    let len = e.compressed_len as usize;
                    if span + len > room || !cache.may_read_ahead(tid, bi + n as u32, len) {
                        break;
                    }
                    span += len;
                    n += 1;
                }
                let buf = self.read_blocks(&entries[..n])?;
                let compressed = |e: &BlockIndexEntry, bytes: &[u8]| CompressedBlock {
                    bytes: bytes.into(),
                    uncompressed_len: e.uncompressed_len,
                };
                let mut blocks = cut(&entries[..n], &buf);
                let (e, bytes) = blocks.next().expect("a read covers its first block");
                for (ahead, (e, bytes)) in (bi + 1..).zip(blocks) {
                    // Bytes enter the cache checked, as a miss's do.
                    if e.crc.is_none_or(|crc| crc32(bytes) == crc) {
                        cache.admit_into_free_space(tid, ahead, compressed(e, bytes), &self.stats);
                    }
                }
                (compressed(e, bytes), e.crc)
            }
        };
        let ulen = compressed.uncompressed_len as usize;
        let block = Arc::new(self.decode_block(&footer, i, &compressed.bytes, ulen, crc)?);
        let stats = &self.stats;
        self.cache
            .insert(tid, bi, block.clone(), Some(compressed), stats);
        Ok(block)
    }
}

impl Drop for TabletReader {
    /// Invalidation point for the block cache: a reader is dropped
    /// exactly when its tablet leaves service (merged away, TTL-expired,
    /// bulk-deleted, or the table is dropped) and no cursor still holds
    /// it.
    fn drop(&mut self) {
        self.cache.invalidate_tablet(self.tablet_id);
    }
}

impl std::fmt::Debug for TabletReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabletReader")
            .field("path", &self.path)
            .field("footer_cached", &self.footer_cached())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyenc::{encode_prefix, KeyRange};
    use crate::row::Row;
    use crate::schema::ColumnDef;
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind, SimVfs};
    use std::ops::Bound;

    impl TabletReader {
        /// The reader's id in its block cache.
        pub(crate) fn cache_id(&self) -> u64 {
            self.tablet_id
        }
    }

    impl TabletWriter {
        /// Appends a row under its encoded primary key `key`. Keys must
        /// arrive in strictly ascending order, and `key` must be the
        /// encoding of `row`'s key columns. The row-at-a-time reference
        /// [`TabletWriter::add_run`] is held to.
        pub(crate) fn add_row(&mut self, key: &[u8], row: &Row) -> Result<()> {
            let ts = row.ts(&self.schema)?;
            self.accept_key(key)?;
            self.block.add(row)?;
            self.row_count += 1;
            self.min_ts = self.min_ts.min(ts);
            self.max_ts = self.max_ts.max(ts);
            if self.block.size_estimate() >= self.block_size {
                self.flush_block()?;
            }
            Ok(())
        }
    }

    fn schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("n", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::Str),
            ],
            &["n", "ts"],
        )
        .unwrap()
    }

    /// Row `n` of the test tablets: `(n, ts = 1000 + n, "val-n")`.
    fn row_at(n: i64) -> Row {
        Row::new(vec![
            Value::I64(n),
            Value::Timestamp(1000 + n),
            Value::Str(format!("val-{n}")),
        ])
    }

    fn write_tablet(vfs: &SimVfs, path: &str, n: i64, bloom: bool) -> Schema {
        let s = schema();
        let file = vfs.create(path, 0).unwrap();
        let mut w = TabletWriter::new(file, s.clone(), 4096, bloom);
        for i in 0..n {
            let row = row_at(i);
            let key = row.encode_key(&s).unwrap();
            w.add_row(&key, &row).unwrap();
        }
        let (min_ts, max_ts, rows, len) = w.finish().unwrap();
        assert_eq!(min_ts, 1000);
        assert_eq!(max_ts, 1000 + n - 1);
        assert_eq!(rows, n as u64);
        assert_eq!(len, vfs.file_size(path).unwrap());
        s
    }

    #[test]
    fn out_of_order_add_fails() {
        let vfs = SimVfs::instant();
        let s = schema();
        let mut w = TabletWriter::new(vfs.create("t", 0).unwrap(), s.clone(), 4096, false);
        let row_at = |i: i64| {
            Row::new(vec![
                Value::I64(i),
                Value::Timestamp(i),
                Value::Str(String::new()),
            ])
        };
        let key_at = |i: i64| row_at(i).encode_key(&s).unwrap();
        w.add_row(&key_at(2), &row_at(2)).unwrap();
        assert!(w.add_row(&key_at(1), &row_at(1)).is_err());
        assert!(w.add_row(&key_at(2), &row_at(2)).is_err()); // equal also fails
    }

    #[test]
    fn block_index_locates_keys() {
        let vfs = SimVfs::instant();
        let s = write_tablet(&vfs, "t.lt", 1000, false);
        let r = TabletReader::new(Arc::new(vfs), "t.lt".into());
        let footer = r.footer().unwrap();
        let nblocks = footer.blocks.len();
        // The first block whose last key is ≥ the key, as readers seek.
        let seek = |k: &[u8]| footer.blocks.partition_point(|b| b.last_key.as_slice() < k);
        // A key in the middle must land in a valid block containing it.
        let row = Row::new(vec![
            Value::I64(500),
            Value::Timestamp(1500),
            Value::Str(String::new()),
        ]);
        let key = row.encode_key(&s).unwrap();
        let bi = seek(&key);
        assert!(bi < nblocks);
        let blk = r.read_block(bi).unwrap();
        assert!(blk.contains_key(&key).unwrap());
        let at = KeyRange {
            start: Bound::Included(key.clone()),
            end: Bound::Included(key),
        };
        let idx = blk.rows_in_range(&at).unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(blk.row(idx.start).unwrap().values[0], Value::I64(500));
        // A key beyond everything seeks past the last block.
        let big = Row::new(vec![
            Value::I64(i64::MAX),
            Value::Timestamp(0),
            Value::Str(String::new()),
        ]);
        assert_eq!(seek(&big.encode_key(&s).unwrap()), nblocks);
    }

    #[test]
    fn bloom_filter_covers_prefixes() {
        let vfs = SimVfs::instant();
        let s = write_tablet(&vfs, "t.lt", 100, true);
        let r = TabletReader::new(Arc::new(vfs), "t.lt".into());
        let bloom = r.footer().unwrap().bloom.clone().unwrap();
        // The full prefix (n=50) must be present.
        let p = crate::keyenc::encode_prefix(&[Value::I64(50)], &s.key_types()).unwrap();
        assert!(bloom.may_contain(crate::util::hash_bytes(&p)));
        // A prefix that never occurred should (almost surely) be absent.
        let p = crate::keyenc::encode_prefix(&[Value::I64(123_456)], &s.key_types()).unwrap();
        assert!(!bloom.may_contain(crate::util::hash_bytes(&p)));
    }

    /// A block of the rows `row_at(n)`, in the order given — the block
    /// encoder itself never checks order.
    fn block_of(s: &Schema, ns: &[i64]) -> Block {
        let mut b = BlockEncoder::new(s);
        for &n in ns {
            b.add(&row_at(n)).unwrap();
        }
        b.into_block(s)
    }

    fn writer(vfs: &SimVfs, path: &str, bloom: bool) -> TabletWriter {
        TabletWriter::new(vfs.create(path, 0).unwrap(), schema(), 4096, bloom)
    }

    #[test]
    fn add_run_keeps_keys_strictly_ascending() {
        let vfs = SimVfs::instant();
        let s = schema();
        // Inside a run: a step back, then a repeat.
        for ns in [[1, 2, 4, 3, 5], [1, 2, 2, 3, 4]] {
            let mut w = writer(&vfs, "t", false);
            let err = w.add_run(&block_of(&s, &ns), 0..5, Micros::MIN);
            assert!(matches!(err, Err(Error::Invalid(_))), "{err:?}");
            // The part of the run before the break is in order.
            let mut w = writer(&vfs, "t", false);
            w.add_run(&block_of(&s, &ns), 0..2, Micros::MIN).unwrap();
        }
        // Across runs: the next run starts at or below the last key.
        let mut w = writer(&vfs, "t", false);
        w.add_run(&block_of(&s, &[1, 2, 3]), 0..3, Micros::MIN)
            .unwrap();
        for first in [3, 2] {
            let err = w.add_run(&block_of(&s, &[first, 9]), 0..2, Micros::MIN);
            assert!(matches!(err, Err(Error::Invalid(_))), "{err:?}");
        }
        // A run that reaches outside its block is refused outright.
        let mut w = writer(&vfs, "t", false);
        assert!(w
            .add_run(&block_of(&s, &[1, 2]), 1..3, Micros::MIN)
            .is_err());
    }

    #[test]
    fn bloom_filter_is_the_one_hashing_every_prefix_from_byte_zero_built() {
        let vfs = SimVfs::instant();
        let s = schema();
        // Rows sharing their first key component in stretches, so that
        // most prefixes repeat the previous row's.
        let ns: Vec<i64> = (0..600).collect();
        let row_at = |n: i64| {
            Row::new(vec![
                Value::I64(n / 37),
                Value::Timestamp(1000 + n),
                Value::Str(format!("val-{n}")),
            ])
        };
        let keys: Vec<Vec<u8>> = ns
            .iter()
            .map(|&n| row_at(n).encode_key(&s).unwrap())
            .collect();
        let mut want = BloomBuilder::new();
        for prefix in distinct_prefixes(&s, &keys) {
            want.add_hash(crate::util::hash_bytes(&prefix));
        }
        let mut want_bytes = Vec::new();
        want.build(10).encode(&mut want_bytes);

        let mut by_row = writer(&vfs, "rows.lt", true);
        let mut by_run = writer(&vfs, "runs.lt", true);
        let mut b = BlockEncoder::new(&s);
        for &n in &ns {
            let row = row_at(n);
            by_row.add_row(&row.encode_key(&s).unwrap(), &row).unwrap();
            b.add(&row).unwrap();
        }
        let block = b.into_block(&s);
        // Two runs, so one starts against a key of the run before.
        by_run.add_run(&block, 0..250, Micros::MIN).unwrap();
        by_run.add_run(&block, 250..600, Micros::MIN).unwrap();
        by_row.finish().unwrap();
        by_run.finish().unwrap();
        let vfs: Arc<dyn Vfs> = Arc::new(vfs);
        for path in ["rows.lt", "runs.lt"] {
            let r = TabletReader::new(vfs.clone(), path.into());
            let mut got = Vec::new();
            r.footer().unwrap().bloom.as_ref().unwrap().encode(&mut got);
            assert!(got == want_bytes, "{path}: Bloom filter bytes moved");
        }
    }

    /// Every prefix of `keys` at a component boundary, each once.
    fn distinct_prefixes(s: &Schema, keys: &[Vec<u8>]) -> std::collections::BTreeSet<Vec<u8>> {
        let mut prefixes = std::collections::BTreeSet::new();
        for key in keys {
            let mut end = 0;
            for ty in s.key_types() {
                end = component_end(key, end, ty).unwrap();
                prefixes.insert(key[..end].to_vec());
            }
        }
        prefixes
    }

    #[test]
    fn bloom_filter_costs_ten_bits_per_distinct_prefix() {
        let vfs = SimVfs::instant();
        let s = Schema::new(
            vec![
                ColumnDef::new("network", ColumnType::I64),
                ColumnDef::new("device", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("bytes", ColumnType::I64),
            ],
            &["network", "device", "ts"],
        )
        .unwrap();
        // 4 networks × 25 devices × 40 samples, at even timestamps.
        let key_at = |net: i64, dev: i64, ts: i64| {
            encode_prefix(
                &[Value::I64(net), Value::I64(dev), Value::Timestamp(ts)],
                &s.key_types(),
            )
            .unwrap()
        };
        let mut keys = Vec::new();
        let mut b = BlockEncoder::new(&s);
        for net in 0..4 {
            for dev in 0..25 {
                for t in 0..40 {
                    let ts = 1000 + 2 * t;
                    b.add(&Row::new(vec![
                        Value::I64(net),
                        Value::I64(dev),
                        Value::Timestamp(ts),
                        Value::I64(t),
                    ]))
                    .unwrap();
                    keys.push(key_at(net, dev, ts));
                }
            }
        }
        let block = b.into_block(&s);
        let mut w = TabletWriter::new(vfs.create("t.lt", 0).unwrap(), s.clone(), 4096, true);
        w.add_run(&block, 0..block.len(), Micros::MIN).unwrap();
        w.finish().unwrap();
        let r = TabletReader::new(Arc::new(vfs), "t.lt".into());
        let bloom = r.footer().unwrap().bloom.clone().unwrap();

        let prefixes = distinct_prefixes(&s, &keys);
        assert_eq!(prefixes.len(), 4 + 4 * 25 + 4000);
        let bits = bloom.byte_size() as u64 * 8;
        assert_eq!(bits, (10 * prefixes.len() as u64).div_ceil(64) * 64);
        assert!(
            bits < 11 * keys.len() as u64,
            "{bits} bits for {} rows",
            keys.len()
        );
        for p in &prefixes {
            assert!(bloom.may_contain(crate::util::hash_bytes(p)));
        }
        // Absent full keys: odd timestamps of every device, then devices
        // and networks that never wrote.
        let absent = (0..10_000i64).map(|i| match i {
            0..4000 => key_at(i / 1000, i / 40 % 25, 1001 + 2 * (i % 40)),
            _ => key_at(i % 7, 25 + i % 13, 1000 + 2 * (i % 40)),
        });
        let passed = absent
            .filter(|k| bloom.may_contain(crate::util::hash_bytes(k)))
            .count();
        assert!(passed <= 200, "{passed} of 10 000 absent keys passed");
    }

    #[test]
    fn corrupt_trailer_is_detected() {
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 10, false);
        // Truncate the file: rewrite without the last byte.
        let f = vfs.open("t.lt").unwrap();
        let len = f.len().unwrap();
        let mut all = vec![0u8; len as usize];
        f.read_exact_at(0, &mut all).unwrap();
        let mut w = vfs.create("bad.lt", 0).unwrap();
        all[len as usize - 10] ^= 0xFF; // flip a magic byte
        w.append(&all).unwrap();
        drop(w);
        let r = TabletReader::new(Arc::new(vfs), "bad.lt".into());
        assert!(r.footer().is_err());
    }

    #[test]
    fn corrupt_trailer_geometry_overflow_is_detected() {
        // A trailer whose footer_off is near u64::MAX used to overflow
        // the geometry sum (a panic under debug overflow checks); it must
        // be a corruption error.
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 10, false);
        let f = vfs.open("t.lt").unwrap();
        let len = f.len().unwrap() as usize;
        let mut all = vec![0u8; len];
        f.read_exact_at(0, &mut all).unwrap();
        // Trailer layout: [ulen u64][clen u64][footer_off u64][crc][magic].
        let off_pos = len - TRAILER_LEN as usize + 16;
        all[off_pos..off_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut w = vfs.create("bad.lt", 0).unwrap();
        w.append(&all).unwrap();
        drop(w);
        let r = TabletReader::new(Arc::new(vfs), "bad.lt".into());
        assert!(matches!(r.footer(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn scratch_capacity_is_capped_after_oversized_reads() {
        let vfs = SimVfs::instant();
        let s = schema();
        let mut w = TabletWriter::new(vfs.create("big.lt", 0).unwrap(), s.clone(), 4096, false);
        // One incompressible megabyte-sized row, forcing a block whose
        // compressed form far exceeds the scratch retention cap.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut payload = String::with_capacity(1 << 20);
        for _ in 0..(1 << 20) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            payload.push((b' ' + (state >> 57) as u8 % 95) as char);
        }
        let row = Row::new(vec![
            Value::I64(0),
            Value::Timestamp(1000),
            Value::Str(payload),
        ]);
        let key = row.encode_key(&s).unwrap();
        w.add_row(&key, &row).unwrap();
        w.finish().unwrap();
        let r = TabletReader::new(Arc::new(vfs), "big.lt".into());
        let footer = r.footer().unwrap();
        assert!(
            footer.blocks[0].compressed_len as usize > SCRATCH_RETAIN_MAX,
            "test needs a block larger than the retention cap"
        );
        r.read_block(0).unwrap();
        RAW_SCRATCH.with_borrow(|scratch| {
            assert!(
                scratch.capacity() <= SCRATCH_RETAIN_MAX,
                "scratch must shed an oversized read's capacity"
            );
        });
    }

    #[test]
    fn corrupt_footer_checksum_is_detected() {
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 10, false);
        let f = vfs.open("t.lt").unwrap();
        let len = f.len().unwrap() as usize;
        let mut all = vec![0u8; len];
        f.read_exact_at(0, &mut all).unwrap();
        // Flip a byte inside the footer (just before the trailer).
        all[len - TRAILER_LEN as usize - 2] ^= 0x01;
        let mut w = vfs.create("bad.lt", 0).unwrap();
        w.append(&all).unwrap();
        drop(w);
        let r = TabletReader::new(Arc::new(vfs), "bad.lt".into());
        assert!(matches!(r.footer(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn footer_loads_lazily_and_caches() {
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 10, false);
        let r = TabletReader::new(Arc::new(vfs), "t.lt".into());
        assert!(!r.footer_cached());
        r.footer().unwrap();
        assert!(r.footer_cached());
    }

    /// A writer warming a reader admits the footer it wrote, the one a
    /// reader decodes from the file, and no block: block 0 misses at any
    /// budget (at 1 MB its read reaches ahead, and later blocks hit).
    #[test]
    fn warming_writers_admit_their_footer_and_no_block() {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::instant());
        let s = schema();
        for budget in [1 << 20, 0] {
            let cache = Arc::new(BlockCache::new(budget, budget, 1));
            let stats = Arc::new(TableStats::default());
            let path = format!("w-{budget}.lt");
            let reader = TabletReader::with_cache(vfs.clone(), path.clone(), cache, stats);
            let reader = Arc::new(reader);
            let file = vfs.create(&path, 0).unwrap();
            let mut w = TabletWriter::new(file, s.clone(), 4096, true).warming(reader.clone());
            for i in 0..1000 {
                let row = row_at(i);
                w.add_row(&row.encode_key(&s).unwrap(), &row).unwrap();
            }
            w.finish().unwrap();
            assert!(reader.footer_cached());
            assert_eq!(reader.cache.compressed_entry_count(), 0, "{path}");
            let from_disk = TabletReader::new(vfs.clone(), path.clone());
            let (admitted, decoded) = (reader.footer().unwrap(), from_disk.footer().unwrap());
            assert_eq!(format!("{admitted:?}"), format!("{decoded:?}"), "{path}");
            assert_eq!(admitted.blocks.capacity(), admitted.blocks.len(), "{path}");
            let nblocks = decoded.blocks.len();
            assert!(nblocks > 1);
            for i in 0..nblocks {
                let (got, want) = (
                    reader.read_block(i).unwrap(),
                    from_disk.read_block(i).unwrap(),
                );
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{path} block {i}");
            }
            let snap = reader.stats.snapshot();
            assert_eq!(snap.cache_hits, 0, "{path}");
            assert!(snap.cache_misses >= 1, "{path}");
            let served = snap.cache_misses + snap.cache_compressed_hits;
            assert_eq!(served, nblocks as u64, "{path}");
            assert_eq!(snap.cache_compressed_hits > 0, budget > 0, "{path}");
        }
    }

    #[test]
    fn empty_tablet_round_trips() {
        let vfs = SimVfs::instant();
        let s = schema();
        let w = TabletWriter::new(vfs.create("e.lt", 0).unwrap(), s, 4096, true);
        let (_, _, rows, _) = w.finish().unwrap();
        assert_eq!(rows, 0);
        let r = TabletReader::new(Arc::new(vfs), "e.lt".into());
        let footer = r.footer().unwrap();
        assert_eq!(footer.row_count, 0);
        assert!(footer.blocks.is_empty());
    }

    #[test]
    fn write_read_round_trip() {
        let vfs = SimVfs::instant();
        let s = write_tablet(&vfs, "c.lt", 500, true);
        let r = TabletReader::new(Arc::new(vfs), "c.lt".into());
        let footer = r.footer().unwrap();
        assert_eq!(footer.schema, s);
        assert_eq!(footer.row_count, 500);
        assert!(footer.blocks.len() > 1, "should span multiple blocks");
        let mut seen = 0i64;
        for (bi, entry) in footer.blocks.iter().enumerate() {
            let blk = r.read_block(bi).unwrap();
            assert_eq!(blk.len(), entry.rows as usize);
            // Zones cover the numeric columns of this block exactly.
            assert_eq!(entry.zones.len(), 3);
            assert_eq!(
                entry.zones[0],
                Some((Value::I64(seen), Value::I64(seen + blk.len() as i64 - 1)))
            );
            assert_eq!(
                entry.zones[1],
                Some((
                    Value::Timestamp(1000 + seen),
                    Value::Timestamp(1000 + seen + blk.len() as i64 - 1)
                ))
            );
            assert_eq!(entry.zones[2], None); // string column: no zone
            for j in 0..blk.len() {
                assert_eq!(blk.row(j).unwrap(), row_at(seen));
                seen += 1;
            }
        }
        assert_eq!(seen, 500);
    }

    /// The bytes of a footer-v1/v2 row block holding `entries`, each a
    /// `(key, payload)`.
    fn row_block_bytes(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut out = (entries.len() as u32).to_le_bytes().to_vec();
        let mut data = Vec::new();
        for (key, payload) in entries {
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            crate::util::put_len_prefixed(&mut data, key);
            crate::util::put_len_prefixed(&mut data, payload);
        }
        out.extend_from_slice(&data);
        out
    }

    /// As [`row_block_bytes`], for the rows `row_at(n)` under `s`.
    fn row_block_of(s: &Schema, ns: &[i64]) -> Vec<u8> {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = ns
            .iter()
            .map(|&n| {
                let row = row_at(n);
                let payload = crate::row::tests::payload_of(&row, s);
                (row.encode_key(s).unwrap(), payload)
            })
            .collect();
        row_block_bytes(&entries)
    }

    #[test]
    fn a_row_block_transcodes_to_the_block_its_rows_encode_to() {
        let s = schema();
        for ns in [vec![], vec![7], (0..40).collect::<Vec<i64>>()] {
            let got = transcode_row_block(&row_block_of(&s, &ns), &s).unwrap();
            let want = block_of(&s, &ns);
            assert_eq!(got.len(), ns.len());
            assert_eq!(got.byte_size(), want.byte_size());
            for c in 0..s.num_columns() {
                assert_eq!(got.column(c), want.column(c));
            }
            let mut key = Vec::new();
            for (i, &n) in ns.iter().enumerate() {
                assert_eq!(got.row(i).unwrap(), row_at(n));
                got.key_into(i, &mut key).unwrap();
                assert_eq!(key, row_at(n).encode_key(&s).unwrap());
            }
        }
    }

    #[test]
    fn corrupt_row_blocks_are_rejected_not_panicked_on() {
        let s = schema();
        let corrupt = |raw: Vec<u8>| match transcode_row_block(&raw, &s) {
            Err(Error::Corrupt(_)) => {}
            other => panic!("expected corruption, got {other:?}"),
        };
        corrupt(vec![1, 2]);
        // Claims 100 rows but has no offset array.
        let mut raw = 100u32.to_le_bytes().to_vec();
        raw.push(0);
        corrupt(raw);
        // row_count * 4 + 4 must not overflow on any target.
        let mut raw = u32::MAX.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0u8; 64]);
        corrupt(raw);
        let good = row_block_of(&s, &[1, 2]);
        // A row offset past the end: the first one, then the last.
        for at in [4, 8] {
            let mut raw = good.clone();
            raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            corrupt(raw);
        }
        // A payload cut short, one with a byte too many, and a key that
        // is not a key.
        corrupt(good[..good.len() - 1].to_vec());
        let row = row_at(1);
        let key = row.encode_key(&s).unwrap();
        let mut payload = crate::row::tests::payload_of(&row, &s);
        payload.push(7);
        corrupt(row_block_bytes(&[(key.clone(), payload)]));
        corrupt(row_block_bytes(&[(key[1..].to_vec(), Vec::new())]));
    }

    #[test]
    fn corrupt_block_errors_name_tablet_and_block() {
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 200, false);
        let f = vfs.open("t.lt").unwrap();
        let len = f.len().unwrap() as usize;
        let mut all = vec![0u8; len];
        f.read_exact_at(0, &mut all).unwrap();
        all[3] ^= 0x40; // inside block 0's compressed bytes
        let mut w = vfs.create("bad.lt", 0).unwrap();
        w.append(&all).unwrap();
        drop(w);
        let r = TabletReader::new(Arc::new(vfs), "bad.lt".into());
        match r.read_block(0) {
            Err(Error::Corrupt(msg)) => {
                assert!(
                    msg.contains("bad.lt") && msg.contains("block 0"),
                    "error should name the tablet and block: {msg}"
                );
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_footer_errors_name_tablet() {
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 10, false);
        let f = vfs.open("t.lt").unwrap();
        let len = f.len().unwrap() as usize;
        let mut all = vec![0u8; len];
        f.read_exact_at(0, &mut all).unwrap();
        all[len - TRAILER_LEN as usize - 2] ^= 0x01;
        let mut w = vfs.create("bad.lt", 0).unwrap();
        w.append(&all).unwrap();
        drop(w);
        let r = TabletReader::new(Arc::new(vfs), "bad.lt".into());
        match r.footer() {
            Err(Error::Corrupt(msg)) => {
                assert!(
                    msg.contains("bad.lt"),
                    "error should name the tablet: {msg}"
                );
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn a_huge_block_count_over_a_few_bytes_is_corrupt() {
        let empty = TabletFooter {
            schema: schema(),
            min_ts: 0,
            max_ts: 0,
            row_count: 0,
            bloom: None,
            row_blocks: false,
            blocks: Vec::new(),
        };
        let mut enc = empty.encode();
        assert_eq!(enc.pop(), Some(0), "the block count ends the footer");
        put_varint(&mut enc, u64::MAX >> 1);
        enc.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(TabletFooter::decode(&enc), Err(Error::Corrupt(_))));
    }

    fn file_bytes(vfs: &SimVfs, path: &str) -> Vec<u8> {
        let f = vfs.open(path).unwrap();
        let mut all = vec![0u8; f.len().unwrap() as usize];
        f.read_exact_at(0, &mut all).unwrap();
        all
    }

    /// Rewrites `path` as `to` with `footer` in place of its footer, under
    /// a trailer whose CRC matches: only the footer's own checks stand
    /// between its block index and the reads it directs.
    fn forge_footer(vfs: &SimVfs, path: &str, to: &str, footer: &TabletFooter) {
        let all = file_bytes(vfs, path);
        let trailer = &all[all.len() - TRAILER_LEN as usize..];
        let footer_off = u64::from_le_bytes(trailer[16..24].try_into().unwrap());
        let raw = footer.encode();
        let mut compressed = Vec::new();
        littletable_compress::compress_into(&raw, &mut compressed);
        let mut out = all[..footer_off as usize].to_vec();
        out.extend_from_slice(&compressed);
        out.extend_from_slice(&(raw.len() as u64).to_le_bytes());
        out.extend_from_slice(&(compressed.len() as u64).to_le_bytes());
        out.extend_from_slice(&footer_off.to_le_bytes());
        out.extend_from_slice(&crc32(&compressed).to_le_bytes());
        out.extend_from_slice(&TRAILER_MAGIC.to_le_bytes());
        let mut w = vfs.create(to, 0).unwrap();
        w.append(&out).unwrap();
    }

    #[test]
    fn a_block_index_that_does_not_tile_the_file_is_corrupt() {
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 1000, false);
        let good = TabletReader::new(Arc::new(vfs.clone()), "t.lt".into())
            .footer()
            .unwrap();
        let n = good.blocks.len();
        assert!(n > 2);
        let footer_off = good.blocks[n - 1].offset + good.blocks[n - 1].compressed_len as u64;
        forge_footer(&vfs, "t.lt", "same.lt", &good);
        let same = TabletReader::new(Arc::new(vfs.clone()), "same.lt".into());
        assert_eq!(same.footer().unwrap().blocks, good.blocks);
        type Forgery = fn(&mut Vec<BlockIndexEntry>, u64);
        let forgeries: [(&str, Forgery); 6] = [
            ("gap", |b, _| b[1].offset += 1),
            ("overlap", |b, _| b[1].offset -= 1),
            ("not from 0", |b, _| b[0].offset = 1),
            ("short of the footer", |b, _| b[2].compressed_len -= 1),
            ("past the footer", |b, off| {
                let mut past = b[0].clone();
                past.offset = off;
                b.push(past);
            }),
            ("u32::MAX long", |b, _| b[0].compressed_len = u32::MAX),
        ];
        for (i, (what, forge)) in forgeries.into_iter().enumerate() {
            let mut footer = (*good).clone();
            forge(&mut footer.blocks, footer_off);
            let path = format!("bad-{i}.lt");
            forge_footer(&vfs, "t.lt", &path, &footer);
            let len = vfs.file_size(&path).unwrap();
            let r = TabletReader::new(Arc::new(vfs.clone()), path.clone());
            vfs.clear_caches();
            let read_before = vfs.model().stats().bytes_read;
            for result in [r.footer().map(drop), r.read_block(0).map(drop)] {
                match result {
                    Err(Error::Corrupt(msg)) => assert!(msg.contains(&path), "{what}: {msg}"),
                    other => panic!("{what}: expected corruption, got {other:?}"),
                }
            }
            // Only the trailer and the footer were read, twice.
            assert!(
                vfs.model().stats().bytes_read - read_before <= 2 * len,
                "{what}"
            );
        }
    }

    /// A tablet of `n` rows at `path` with a reader through a roomy
    /// cache of its own, its footer already loaded.
    fn cached_reader(vfs: &SimVfs, path: &str, n: i64) -> (TabletReader, Arc<TabletFooter>) {
        write_tablet(vfs, path, n, false);
        let cache = Arc::new(BlockCache::new(4 << 20, 4 << 20, 1));
        let reader =
            TabletReader::with_cache(Arc::new(vfs.clone()), path.into(), cache, Arc::default());
        let footer = reader.footer().unwrap();
        (reader, footer)
    }

    /// How many blocks from block 0 on one read ahead covers.
    fn covered(footer: &TabletFooter) -> usize {
        let mut span = 0;
        let mut fits = |e: &BlockIndexEntry| {
            span += e.compressed_len as usize;
            span <= READAHEAD_BYTES
        };
        footer.blocks.iter().take_while(|e| fits(e)).count().max(1)
    }

    #[test]
    fn after_a_miss_the_blocks_read_ahead_hit_with_no_second_disk_read() {
        for (path, n) in [("short.lt", 1500), ("long.lt", 100_000)] {
            let vfs = SimVfs::instant();
            let (r, footer) = cached_reader(&vfs, path, n);
            let from_disk = TabletReader::new(Arc::new(vfs.clone()), path.into());
            let want: Vec<Arc<Block>> = (0..footer.blocks.len())
                .map(|i| from_disk.read_block(i).unwrap())
                .collect();
            let ahead = covered(&footer);
            vfs.clear_caches(); // the disk model's window, which would hide the read
            let read_before = vfs.model().stats().bytes_read;
            let missed = r.read_block(0).unwrap();
            assert_eq!(format!("{missed:?}"), format!("{:?}", want[0]));
            // One read, of the blocks covered and never past the footer.
            let e = &footer.blocks[ahead - 1];
            let end = e.offset + e.compressed_len as u64;
            assert_eq!(vfs.model().stats().bytes_read - read_before, end, "{path}");
            assert!(end <= READAHEAD_BYTES as u64);
            assert_eq!(ahead == footer.blocks.len(), path == "short.lt");
            assert!(ahead > 2, "{path}");
            // Any further disk read fails.
            let every_read = FaultRule::new(FaultKind::Eio).on_ops(&[OpKind::Read]);
            vfs.set_fault_plan(FaultPlan::new().rule(every_read));
            for (i, want) in want.iter().enumerate().take(ahead).skip(1) {
                let got = r.read_block(i).unwrap();
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{path} block {i}");
            }
            assert_eq!(vfs.faults_injected(), 0, "{path}");
            if ahead < footer.blocks.len() {
                assert!(r.read_block(ahead).is_err(), "{path}: past the readahead");
            }
            vfs.clear_fault_plan();
            let snap = r.stats.snapshot();
            assert_eq!(snap.cache_compressed_hits, ahead as u64 - 1, "{path}");
        }
    }

    #[test]
    fn a_neighbour_with_a_flipped_bit_is_never_decoded_and_reads_as_corrupt() {
        let vfs = SimVfs::instant();
        let (_, footer) = cached_reader(&vfs, "t.lt", 1500);
        assert!(covered(&footer) > 2);
        // A flipped bit in block 1 that only its CRC catches: the bytes
        // still decompress and parse.
        let mut all = file_bytes(&vfs, "t.lt");
        let e = &footer.blocks[1];
        let at = e.offset as usize..(e.offset + e.compressed_len as u64) as usize;
        let ulen = e.uncompressed_len as usize;
        let decodes =
            |bytes: &[u8]| with_decompressed(bytes, ulen, |raw| parse_block(&footer, raw));
        let bit = (0..at.len() * 8)
            .find(|&bit| {
                let mut bytes = all[at.clone()].to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                decodes(&bytes).is_ok()
            })
            .expect("a flip that decodes");
        all[at.start + bit / 8] ^= 1 << (bit % 8);
        let mut w = vfs.create("bad.lt", 0).unwrap();
        w.append(&all).unwrap();
        drop(w);
        let cache = Arc::new(BlockCache::new(4 << 20, 4 << 20, 1));
        let stats = Arc::new(TableStats::default());
        let r = TabletReader::with_cache(Arc::new(vfs.clone()), "bad.lt".into(), cache, stats);
        r.read_block(0).unwrap();
        match r.read_block(1) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("bad.lt block 1"), "{msg}"),
            other => panic!("expected corruption, got {other:?}"),
        }
        // The rest of the read was kept.
        r.read_block(2).unwrap();
        let snap = r.stats.snapshot();
        assert_eq!((snap.cache_misses, snap.cache_compressed_hits), (2, 1));
    }

    #[test]
    fn truncated_or_flipped_footers_decode_or_fail_without_panicking() {
        let vfs = SimVfs::instant();
        write_tablet(&vfs, "t.lt", 500, true);
        let footer = TabletReader::new(Arc::new(vfs), "t.lt".into())
            .footer()
            .unwrap();
        assert!(footer.bloom.is_some() && footer.blocks.len() > 1);
        assert!(footer.blocks[0].zones.iter().any(Option::is_some));
        let enc = footer.encode();
        assert!(TabletFooter::decode(&enc).is_ok());
        for cut in 0..enc.len() {
            assert!(TabletFooter::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = enc.clone();
        for bit in 0..enc.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = TabletFooter::decode(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
