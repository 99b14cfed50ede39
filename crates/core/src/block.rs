//! Tablet blocks: the 64 kB units rows are grouped into on disk (§3.2).
//!
//! Two on-disk layouts exist, selected per tablet by its footer version:
//!
//! **Row layout** (footer v1/v2) stores each row contiguously:
//!
//! ```text
//! [row_count u32] [row_offset u32 × row_count] [row entries...]
//! row entry: [key_len varint][key][payload_len varint][payload]
//! ```
//!
//! **Columnar layout** (footer v3) stores the block as per-column slices,
//! each behind a time-series codec chosen column-by-column (see
//! [`littletable_codec`]):
//!
//! ```text
//! [row_count u32] [col_count varint]
//! column: [codec_tag u8][encoded_len varint][encoded bytes]
//! ```
//!
//! Columns appear in tablet-schema order, key columns included — encoded
//! primary keys are *rebuilt* from the key column values only when a
//! caller actually iterates rows, so aggregate scans that consume column
//! slices never pay for key materialization. The rebuilt keys live in one
//! flat arena (a byte buffer plus row offsets), not a vector per row.
//!
//! The offset array (row layout) or the rebuilt key arena (columnar
//! layout) makes binary search by encoded key possible inside a block,
//! which is how a query finds its starting row after the tablet index has
//! located the right block. Blocks are individually compressed on disk;
//! this module works with the uncompressed form.
//!
//! Maintenance moves columns, not rows: a merge hands
//! [`ColumnarBlockBuilder::append_run`] a row range of a decoded source
//! block and the builder copies typed sub-slices, and
//! [`ColumnarBlockBuilder::finish`] encodes straight from its retained
//! column buffers into a caller-owned output buffer.

use crate::error::{Error, Result};
use crate::keyenc::{self, KeyRange};
use crate::row::Row;
use crate::schema::Schema;
use crate::util::{put_varint, Reader};
use crate::value::{ColumnType, Value};
use std::ops::{Bound, Range};
use std::sync::OnceLock;

/// Which block layout a tablet is written with. Selected by
/// [`crate::options::Options::block_format`]; readers detect the layout
/// from the tablet's footer version, so both formats coexist in one
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFormat {
    /// Row-major entries (footer v2 and earlier).
    Row,
    /// Per-column codec-compressed slices with zone maps (footer v3).
    Columnar,
}

/// Builds one row-layout block. Rows must be appended in ascending key
/// order.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    offsets: Vec<u32>,
    data: Vec<u8>,
    last_key: Vec<u8>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn add(&mut self, key: &[u8], payload: &[u8]) {
        debug_assert!(
            self.offsets.is_empty() || key > self.last_key.as_slice(),
            "block rows must be added in strictly ascending key order"
        );
        self.offsets.push(self.data.len() as u32);
        put_varint(&mut self.data, key.len() as u64);
        self.data.extend_from_slice(key);
        put_varint(&mut self.data, payload.len() as u64);
        self.data.extend_from_slice(payload);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
    }

    /// Number of rows added.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Estimated size of the finished (uncompressed) block.
    pub fn size_estimate(&self) -> usize {
        4 + self.offsets.len() * 4 + self.data.len()
    }

    /// Serializes the block and resets the builder for reuse.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_estimate());
        out.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        for off in &self.offsets {
            out.extend_from_slice(&off.to_le_bytes());
        }
        out.extend_from_slice(&self.data);
        self.offsets.clear();
        self.data.clear();
        self.last_key.clear();
        out
    }
}

/// One decoded column of a columnar block, typed per the tablet schema.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSlice {
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// Doubles.
    F64(Vec<f64>),
    /// Timestamps in micros.
    Timestamp(Vec<i64>),
    /// UTF-8 strings.
    Str(Vec<String>),
    /// Byte arrays.
    Blob(Vec<Vec<u8>>),
}

impl ColumnSlice {
    fn empty_for(ty: ColumnType) -> ColumnSlice {
        match ty {
            ColumnType::I32 => ColumnSlice::I32(Vec::new()),
            ColumnType::I64 => ColumnSlice::I64(Vec::new()),
            ColumnType::F64 => ColumnSlice::F64(Vec::new()),
            ColumnType::Timestamp => ColumnSlice::Timestamp(Vec::new()),
            ColumnType::Str => ColumnSlice::Str(Vec::new()),
            ColumnType::Blob => ColumnSlice::Blob(Vec::new()),
        }
    }

    /// Number of values in the slice.
    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::I32(v) => v.len(),
            ColumnSlice::I64(v) => v.len(),
            ColumnSlice::F64(v) => v.len(),
            ColumnSlice::Timestamp(v) => v.len(),
            ColumnSlice::Str(v) => v.len(),
            ColumnSlice::Blob(v) => v.len(),
        }
    }

    /// True when the slice holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`. Panics when out of range — callers index
    /// within `len()`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnSlice::I32(v) => Value::I32(v[i]),
            ColumnSlice::I64(v) => Value::I64(v[i]),
            ColumnSlice::F64(v) => Value::F64(v[i]),
            ColumnSlice::Timestamp(v) => Value::Timestamp(v[i]),
            ColumnSlice::Str(v) => Value::Str(v[i].clone()),
            ColumnSlice::Blob(v) => Value::Blob(v[i].clone()),
        }
    }

    /// Approximate decoded size in bytes, for cache accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnSlice::I32(v) => v.len() * 4,
            ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => v.len() * 8,
            ColumnSlice::F64(v) => v.len() * 8,
            ColumnSlice::Str(v) => v.iter().map(|s| 24 + s.len()).sum(),
            ColumnSlice::Blob(v) => v.iter().map(|b| 24 + b.len()).sum(),
        }
    }

    fn clear(&mut self) {
        match self {
            ColumnSlice::I32(v) => v.clear(),
            ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => v.clear(),
            ColumnSlice::F64(v) => v.clear(),
            ColumnSlice::Str(v) => v.clear(),
            ColumnSlice::Blob(v) => v.clear(),
        }
    }

    /// Appends `src[rows]`, which must be a slice of the same type.
    fn extend_from(&mut self, src: &ColumnSlice, rows: Range<usize>) -> Result<()> {
        match (self, src) {
            (ColumnSlice::I32(col), ColumnSlice::I32(s)) => col.extend_from_slice(&s[rows]),
            (ColumnSlice::I64(col), ColumnSlice::I64(s)) => col.extend_from_slice(&s[rows]),
            (ColumnSlice::F64(col), ColumnSlice::F64(s)) => col.extend_from_slice(&s[rows]),
            (ColumnSlice::Timestamp(col), ColumnSlice::Timestamp(s)) => {
                col.extend_from_slice(&s[rows])
            }
            (ColumnSlice::Str(col), ColumnSlice::Str(s)) => col.extend_from_slice(&s[rows]),
            (ColumnSlice::Blob(col), ColumnSlice::Blob(s)) => col.extend_from_slice(&s[rows]),
            _ => {
                return Err(Error::invalid(
                    "source column slice does not match the builder's column type",
                ))
            }
        }
        Ok(())
    }

    /// Payload bytes of row `i` in a string or blob slice — the part of
    /// [`Value::mem_size`] that varies from row to row; 0 for fixed-width
    /// slices.
    fn var_len(&self, i: usize) -> usize {
        match self {
            ColumnSlice::Str(v) => v[i].len(),
            ColumnSlice::Blob(v) => v[i].len(),
            _ => 0,
        }
    }

    fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (ColumnSlice::I32(col), Value::I32(x)) => col.push(*x),
            (ColumnSlice::I64(col), Value::I64(x)) => col.push(*x),
            (ColumnSlice::F64(col), Value::F64(x)) => col.push(*x),
            (ColumnSlice::Timestamp(col), Value::Timestamp(x)) => col.push(*x),
            (ColumnSlice::Str(col), Value::Str(x)) => col.push(x.clone()),
            (ColumnSlice::Blob(col), Value::Blob(x)) => col.push(x.clone()),
            (_, v) => {
                return Err(Error::invalid(format!(
                    "row value of type {:?} does not match column slice",
                    v.column_type()
                )))
            }
        }
        Ok(())
    }

    /// `(min, max)` of a numeric slice, for zone maps. `None` for
    /// string/blob slices, empty slices, and float slices containing NaN
    /// (NaN compares false against everything, so no zone over it can
    /// soundly prove a predicate true for every row).
    pub fn zone(&self) -> Option<(Value, Value)> {
        match self {
            ColumnSlice::I32(v) => {
                let (lo, hi) = min_max(v)?;
                Some((Value::I32(lo), Value::I32(hi)))
            }
            ColumnSlice::I64(v) => {
                let (lo, hi) = min_max(v)?;
                Some((Value::I64(lo), Value::I64(hi)))
            }
            ColumnSlice::Timestamp(v) => {
                let (lo, hi) = min_max(v)?;
                Some((Value::Timestamp(lo), Value::Timestamp(hi)))
            }
            ColumnSlice::F64(v) => {
                if v.is_empty() || v.iter().any(|x| x.is_nan()) {
                    return None;
                }
                let mut lo = v[0];
                let mut hi = v[0];
                for &x in &v[1..] {
                    if x < lo {
                        lo = x;
                    }
                    if x > hi {
                        hi = x;
                    }
                }
                Some((Value::F64(lo), Value::F64(hi)))
            }
            ColumnSlice::Str(_) | ColumnSlice::Blob(_) => None,
        }
    }
}

fn min_max<T: Copy + Ord>(v: &[T]) -> Option<(T, T)> {
    let first = *v.first()?;
    Some(
        v.iter()
            .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x))),
    )
}

/// Per-column `(min, max)` zones for one block, `None` where a zone is
/// not computable (see [`ColumnSlice::zone`]).
pub type ColumnZones = Vec<Option<(Value, Value)>>;

/// Builds one columnar block. Rows must arrive in ascending key order
/// (the tablet writer checks); their values are buffered per column and
/// codec-compressed on [`ColumnarBlockBuilder::finish`]. The column
/// buffers and the codec scratch keep their capacity from block to block.
#[derive(Debug)]
pub struct ColumnarBlockBuilder {
    cols: Vec<ColumnSlice>,
    rows: usize,
    /// Running estimate of the raw (pre-codec) byte size, used for the
    /// writer's flush threshold.
    bytes: usize,
    /// What a row adds to `bytes` before its string and blob payloads:
    /// the sum of [`ColumnType::base_mem_size`] over the columns.
    fixed_row_bytes: usize,
    /// Indices of the string and blob columns.
    var_cols: Vec<usize>,
    /// One column's encoded bytes, between the codec and the block (its
    /// length prefix has to be written first).
    scratch: Vec<u8>,
}

impl ColumnarBlockBuilder {
    /// Creates a builder shaped for `schema`.
    pub fn new(schema: &Schema) -> Self {
        ColumnarBlockBuilder {
            cols: schema
                .columns()
                .iter()
                .map(|c| ColumnSlice::empty_for(c.ty))
                .collect(),
            rows: 0,
            bytes: 0,
            fixed_row_bytes: schema.columns().iter().map(|c| c.ty.base_mem_size()).sum(),
            var_cols: (0..schema.columns().len())
                .filter(|&i| matches!(schema.columns()[i].ty, ColumnType::Str | ColumnType::Blob))
                .collect(),
            scratch: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn add(&mut self, row: &Row) -> Result<()> {
        if row.values.len() != self.cols.len() {
            return Err(Error::invalid("row width does not match schema"));
        }
        for (col, v) in self.cols.iter_mut().zip(&row.values) {
            col.push(v)?;
            self.bytes += v.mem_size();
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends rows of `src` from `rows.start` on, copying typed
    /// sub-slices column by column, and stops after the row that brings
    /// [`ColumnarBlockBuilder::size_estimate`] to `full_at` — exactly
    /// where appending the same rows one at a time and checking after
    /// each would stop. Returns the number of rows taken (at least one
    /// when `rows` is non-empty). `src` must have this builder's column
    /// types.
    pub fn append_run(
        &mut self,
        src: &ColumnarBlock,
        rows: Range<usize>,
        full_at: usize,
    ) -> Result<usize> {
        if src.columns.len() != self.cols.len() || rows.start > rows.end || rows.end > src.row_count
        {
            return Err(Error::invalid("source block does not match the builder"));
        }
        let before = self.size_estimate();
        let mut est = before;
        let mut end = rows.start;
        while end < rows.end && (end == rows.start || est < full_at) {
            est += self.fixed_row_bytes
                + self
                    .var_cols
                    .iter()
                    .map(|&c| src.columns[c].var_len(end))
                    .sum::<usize>();
            end += 1;
        }
        let taken = rows.start..end;
        for (col, s) in self.cols.iter_mut().zip(&src.columns) {
            col.extend_from(s, taken.clone())?;
        }
        self.bytes += est - before;
        self.rows += taken.len();
        Ok(taken.len())
    }

    /// Number of rows added.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rough size of the block before codec compression — the flush
    /// threshold input, comparable to [`BlockBuilder::size_estimate`].
    pub fn size_estimate(&self) -> usize {
        4 + self.cols.len() * 6 + self.bytes
    }

    /// Serializes the block into `out` (replacing its contents),
    /// returning `(per-column zones, rows)` and resetting the builder for
    /// reuse. Zones are `(min, max)` per schema column where computable
    /// (see [`ColumnSlice::zone`]).
    pub fn finish(&mut self, out: &mut Vec<u8>) -> (ColumnZones, u32) {
        out.clear();
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        put_varint(out, self.cols.len() as u64);
        let mut zones = Vec::with_capacity(self.cols.len());
        for col in &mut self.cols {
            zones.push(col.zone());
            self.scratch.clear();
            let scratch = &mut self.scratch;
            let tag = match &*col {
                ColumnSlice::I32(v) => {
                    littletable_codec::encode_i64_column_into(v.iter().map(|&x| x as i64), scratch)
                }
                ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
                    littletable_codec::encode_i64_column_into(v.iter().copied(), scratch)
                }
                ColumnSlice::F64(v) => littletable_codec::encode_f64_column_into(v, scratch),
                ColumnSlice::Str(v) => littletable_codec::encode_bytes_column_into(
                    v.iter().map(|s| s.as_bytes()),
                    scratch,
                ),
                ColumnSlice::Blob(v) => littletable_codec::encode_bytes_column_into(
                    v.iter().map(|b| b.as_slice()),
                    scratch,
                ),
            };
            out.push(tag);
            put_varint(out, self.scratch.len() as u64);
            out.extend_from_slice(&self.scratch);
            col.clear();
        }
        let rows = self.rows as u32;
        self.rows = 0;
        self.bytes = 0;
        (zones, rows)
    }
}

/// A parsed, uncompressed block in either layout, ready for binary
/// search, row iteration, and (columnar only) column-slice access.
#[derive(Debug, Clone)]
pub enum Block {
    /// Row-major layout.
    Row(RowBlock),
    /// Column-major layout with decoded slices.
    Columnar(ColumnarBlock),
}

impl Block {
    /// Validates and wraps an uncompressed row-layout block.
    pub fn parse(data: Vec<u8>) -> Result<Block> {
        Ok(Block::Row(RowBlock::parse(data)?))
    }

    /// Validates and decodes an uncompressed columnar block written under
    /// `schema` (the tablet footer's schema).
    pub fn parse_columnar(data: Vec<u8>, schema: &Schema) -> Result<Block> {
        Ok(Block::Columnar(ColumnarBlock::parse(data, schema)?))
    }

    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        match self {
            Block::Row(b) => b.len(),
            Block::Columnar(b) => b.row_count,
        }
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block's decompressed size in bytes — what a cached copy of it
    /// costs in memory. For columnar blocks this counts the decoded
    /// slices plus the key arena (whether or not it has been built yet),
    /// so the cache charge is an upper bound on the resident size.
    pub fn byte_size(&self) -> usize {
        match self {
            Block::Row(b) => b.byte_size(),
            Block::Columnar(b) => b.byte_size,
        }
    }

    /// Returns `(key, payload)` of row `i` — row-layout blocks only
    /// (columnar blocks have no row payloads).
    pub fn entry(&self, i: usize) -> Result<(&[u8], &[u8])> {
        match self {
            Block::Row(b) => b.entry(i),
            Block::Columnar(_) => Err(Error::invalid(
                "columnar blocks have no row entries; use key()/row()",
            )),
        }
    }

    /// The encoded primary key of row `i`. Columnar blocks materialize
    /// their key arena on first call.
    pub fn key(&self, i: usize) -> Result<&[u8]> {
        match self {
            Block::Row(b) => b.key(i),
            Block::Columnar(b) => b.key(i),
        }
    }

    /// Materializes row `i` under the tablet's own `schema`.
    pub fn row(&self, i: usize, schema: &Schema) -> Result<Row> {
        match self {
            Block::Row(b) => {
                let (key, payload) = b.entry(i)?;
                crate::row::decode_row(key, payload, schema)
            }
            Block::Columnar(b) => {
                if i >= b.row_count {
                    return Err(Error::corrupt("block row index out of range"));
                }
                Ok(Row::new(b.columns.iter().map(|c| c.value(i)).collect()))
            }
        }
    }

    /// The decoded slice of column `idx` (tablet-schema order), or `None`
    /// for row-layout blocks. This is the aggregate-pushdown entry point:
    /// it never materializes rows or keys.
    pub fn column(&self, idx: usize) -> Option<&ColumnSlice> {
        match self {
            Block::Row(_) => None,
            Block::Columnar(b) => b.columns.get(idx),
        }
    }

    /// Index of the first row whose key is ≥ `target` (ascending-seek
    /// position). Returns `len()` when every key is smaller.
    pub fn seek_ge(&self, target: &[u8]) -> Result<usize> {
        self.partition_point(|i| Ok(self.key(i)? < target))
    }

    /// Index of the first row whose key is > `target`.
    pub fn seek_gt(&self, target: &[u8]) -> Result<usize> {
        self.partition_point(|i| Ok(self.key(i)? <= target))
    }

    /// The interval of row indices whose keys lie inside `range`.
    /// A columnar block encodes only the O(log n) probed rows' keys, into
    /// one scratch buffer; its key arena is neither built nor read, so an
    /// aggregate scan clips a block to the key bounds without paying for
    /// key materialization.
    pub fn rows_in_range(&self, range: &KeyRange) -> Result<Range<usize>> {
        let mut scratch = Vec::new();
        let mut first = |before: &dyn Fn(&[u8]) -> bool| {
            self.partition_point(|i| Ok(before(self.probe_key(i, &mut scratch)?)))
        };
        let start = match &range.start {
            Bound::Unbounded => 0,
            Bound::Included(s) => first(&|k| k < s.as_slice())?,
            Bound::Excluded(s) => first(&|k| k <= s.as_slice())?,
        };
        let end = match &range.end {
            Bound::Unbounded => self.len(),
            Bound::Included(e) => first(&|k| k <= e.as_slice())?,
            Bound::Excluded(e) => first(&|k| k < e.as_slice())?,
        };
        Ok(start..end.max(start))
    }

    /// Replaces `out` with row `i`'s encoded key. A columnar block
    /// encodes it from the key column slices; its key arena is neither
    /// built nor read.
    pub fn key_into(&self, i: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        match self {
            Block::Row(b) => out.extend_from_slice(b.key(i)?),
            Block::Columnar(b) => {
                if i >= b.row_count {
                    return Err(Error::corrupt("block row index out of range"));
                }
                b.encode_key(i, out);
            }
        }
        Ok(())
    }

    /// Row `i`'s key for one comparison: borrowed from a row block,
    /// encoded into `scratch` for a columnar one (whose key arena is
    /// neither built nor read).
    pub(crate) fn probe_key<'a>(&'a self, i: usize, scratch: &'a mut Vec<u8>) -> Result<&'a [u8]> {
        match self {
            Block::Row(b) => b.key(i),
            Block::Columnar(_) => {
                self.key_into(i, scratch)?;
                Ok(scratch)
            }
        }
    }

    /// Index of the first row for which `before` is false; rows are
    /// sorted so that it holds for a prefix of them.
    fn partition_point(&self, mut before: impl FnMut(usize) -> Result<bool>) -> Result<usize> {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(mid)? {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Whether a columnar block's key arena has been materialized.
    #[cfg(test)]
    pub(crate) fn key_arena_built(&self) -> bool {
        match self {
            Block::Row(_) => false,
            Block::Columnar(b) => b.keys.get().is_some(),
        }
    }
}

/// A parsed row-layout block.
#[derive(Debug, Clone)]
pub struct RowBlock {
    data: Vec<u8>,
    row_count: usize,
    /// Byte offset where row entries begin (just past the offset array).
    entries_base: usize,
}

impl RowBlock {
    /// Validates and wraps an uncompressed block.
    ///
    /// `row_count` comes straight off disk, so every derived size uses
    /// checked arithmetic: a corrupt header must yield
    /// [`Error::corrupt`], never an overflow panic (debug builds) or a
    /// wrapped bounds check (32-bit release builds).
    pub fn parse(data: Vec<u8>) -> Result<RowBlock> {
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
        if row_count > 0 {
            // The offsets are ascending, so validating the final entry
            // bounds the whole array before any row is touched.
            let at = entries_base - 4;
            let last = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
            match entries_base.checked_add(last) {
                Some(abs) if abs < data.len() => {}
                _ => return Err(Error::corrupt("block row offset out of range")),
            }
        }
        Ok(RowBlock {
            data,
            row_count,
            entries_base,
        })
    }

    fn len(&self) -> usize {
        self.row_count
    }

    fn byte_size(&self) -> usize {
        self.data.len()
    }

    fn entry_start(&self, i: usize) -> Result<usize> {
        let at = 4 + i * 4;
        let rel = u32::from_le_bytes(self.data[at..at + 4].try_into().unwrap()) as usize;
        match self.entries_base.checked_add(rel) {
            Some(abs) if abs < self.data.len() => Ok(abs),
            _ => Err(Error::corrupt("block row offset out of range")),
        }
    }

    fn entry(&self, i: usize) -> Result<(&[u8], &[u8])> {
        if i >= self.row_count {
            return Err(Error::corrupt("block row index out of range"));
        }
        let start = self.entry_start(i)?;
        let mut r = Reader::new(&self.data[start..]);
        let key = r.len_prefixed()?;
        let payload = r.len_prefixed()?;
        Ok((key, payload))
    }

    fn key(&self, i: usize) -> Result<&[u8]> {
        Ok(self.entry(i)?.0)
    }
}

/// Every row's encoded primary key, back to back in one buffer: row `i`'s
/// key is `bytes[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
struct KeyArena {
    bytes: Vec<u8>,
    /// `row_count + 1` ascending offsets into `bytes`.
    offsets: Vec<u32>,
}

/// A parsed columnar block: decoded typed slices plus a lazily built
/// arena of encoded primary keys.
#[derive(Debug, Clone)]
pub struct ColumnarBlock {
    columns: Vec<ColumnSlice>,
    row_count: usize,
    key_indices: Vec<usize>,
    /// Encoded primary keys, built from the key column slices the first
    /// time a caller iterates by key. Aggregate scans and merges never
    /// touch it. `None` inside marks keys too large for 32-bit offsets.
    keys: OnceLock<Option<KeyArena>>,
    byte_size: usize,
}

impl ColumnarBlock {
    fn parse(data: Vec<u8>, schema: &Schema) -> Result<ColumnarBlock> {
        if data.len() < 4 {
            return Err(Error::corrupt("columnar block shorter than its header"));
        }
        let row_count = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        let mut r = Reader::new(&data[4..]);
        let ncols = r.varint()? as usize;
        if ncols != schema.columns().len() {
            return Err(Error::corrupt(format!(
                "columnar block has {ncols} columns, schema has {}",
                schema.columns().len()
            )));
        }
        // Slice out each column's extent first, so the row count can be
        // sanity-checked against a fixed-stride column before anything is
        // decoded (defense in depth under the block CRC: a corrupt row
        // count must not drive a huge allocation).
        let mut extents = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let tag = r.u8()?;
            let bytes = r.len_prefixed()?;
            extents.push((tag, bytes));
        }
        if !r.is_empty() {
            return Err(Error::corrupt("trailing bytes after columnar block"));
        }
        for (col, (_, bytes)) in schema.columns().iter().zip(&extents) {
            let dense = !matches!(col.ty, ColumnType::Str | ColumnType::Blob);
            if dense && row_count > bytes.len().saturating_mul(8).saturating_add(64) {
                return Err(Error::corrupt(
                    "columnar block row count exceeds column data",
                ));
            }
        }
        let mut columns = Vec::with_capacity(ncols);
        for (col, (tag, bytes)) in schema.columns().iter().zip(&extents) {
            let slice = match col.ty {
                ColumnType::I32 => {
                    let wide = littletable_codec::decode_i64_column(*tag, bytes, row_count)?;
                    let mut narrow = Vec::with_capacity(wide.len());
                    for v in wide {
                        narrow.push(
                            i32::try_from(v)
                                .map_err(|_| Error::corrupt("int32 column value out of range"))?,
                        );
                    }
                    ColumnSlice::I32(narrow)
                }
                ColumnType::I64 => ColumnSlice::I64(littletable_codec::decode_i64_column(
                    *tag, bytes, row_count,
                )?),
                ColumnType::Timestamp => ColumnSlice::Timestamp(
                    littletable_codec::decode_i64_column(*tag, bytes, row_count)?,
                ),
                ColumnType::F64 => ColumnSlice::F64(littletable_codec::decode_f64_column(
                    *tag, bytes, row_count,
                )?),
                ColumnType::Str => {
                    let raw = littletable_codec::decode_bytes_column(*tag, bytes, row_count)?;
                    let mut strs = Vec::with_capacity(raw.len());
                    for b in raw {
                        strs.push(String::from_utf8(b).map_err(|_| {
                            Error::corrupt("string column value is not valid UTF-8")
                        })?);
                    }
                    ColumnSlice::Str(strs)
                }
                ColumnType::Blob => ColumnSlice::Blob(littletable_codec::decode_bytes_column(
                    *tag, bytes, row_count,
                )?),
            };
            columns.push(slice);
        }
        // Cache charge: decoded slices plus the worst-case key arena, so
        // the charge is stable whether or not keys get materialized.
        let key_indices = schema.key_indices().to_vec();
        let key_arena_est: usize = key_indices
            .iter()
            .map(|&ki| columns[ki].byte_size() + 2 * row_count)
            .sum::<usize>()
            + row_count * std::mem::size_of::<Vec<u8>>();
        let byte_size = columns.iter().map(|c| c.byte_size()).sum::<usize>()
            + key_arena_est
            + std::mem::size_of::<ColumnarBlock>();
        Ok(ColumnarBlock {
            columns,
            row_count,
            key_indices,
            keys: OnceLock::new(),
            byte_size,
        })
    }

    /// Appends row `row`'s encoded primary key, straight from the key
    /// column slices. Panics when `row` is out of range — callers index
    /// within the block's length.
    pub(crate) fn encode_key(&self, row: usize, out: &mut Vec<u8>) {
        for &ki in &self.key_indices {
            match &self.columns[ki] {
                ColumnSlice::I32(v) => keyenc::encode_int(out, v[row] as i64),
                ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => keyenc::encode_int(out, v[row]),
                ColumnSlice::Str(v) => keyenc::encode_bytes(out, v[row].as_bytes()),
                ColumnSlice::Blob(v) => keyenc::encode_bytes(out, &v[row]),
                ColumnSlice::F64(_) => unreachable!("key columns are never F64"),
            }
        }
    }

    fn key(&self, i: usize) -> Result<&[u8]> {
        if i >= self.row_count {
            return Err(Error::corrupt("block row index out of range"));
        }
        let keys = self.keys.get_or_init(|| {
            let mut arena = KeyArena {
                bytes: Vec::new(),
                offsets: Vec::with_capacity(self.row_count + 1),
            };
            arena.offsets.push(0);
            for row in 0..self.row_count {
                self.encode_key(row, &mut arena.bytes);
                arena.offsets.push(u32::try_from(arena.bytes.len()).ok()?);
            }
            Some(arena)
        });
        let keys = keys
            .as_ref()
            .ok_or_else(|| Error::corrupt("block keys exceed 4 GiB"))?;
        Ok(&keys.bytes[keys.offsets[i] as usize..keys.offsets[i + 1] as usize])
    }

    /// The timestamp column (the last key column) as a typed slice.
    pub fn timestamps(&self) -> Result<&[i64]> {
        match self.key_indices.last().map(|&ki| &self.columns[ki]) {
            Some(ColumnSlice::Timestamp(v)) => Ok(v),
            _ => Err(Error::corrupt("columnar block has no timestamp key column")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn sample_block(n: u64) -> Block {
        let mut b = BlockBuilder::new();
        for i in 0..n {
            let key = format!("key-{i:04}");
            let payload = format!("value-{i}");
            b.add(key.as_bytes(), payload.as_bytes());
        }
        Block::parse(b.finish()).unwrap()
    }

    fn col_schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("dev", ColumnType::Str),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("cnt", ColumnType::I64),
                ColumnDef::new("load", ColumnType::F64),
            ],
            &["dev", "ts"],
        )
        .unwrap()
    }

    fn sample_columnar(n: i64) -> (Block, Schema) {
        let s = col_schema();
        let mut b = ColumnarBlockBuilder::new(&s);
        // Rows must arrive in ascending key order: group by device,
        // ascending timestamps within each device.
        let chunk = (n + 2) / 3;
        for i in 0..n {
            let row = Row::new(vec![
                Value::Str(format!("dev-{}", i / chunk)),
                Value::Timestamp(1000 + i),
                Value::I64(i * 10),
                Value::F64(i as f64 / 2.0),
            ]);
            b.add(&row).unwrap();
        }
        let mut data = Vec::new();
        let (zones, rows) = b.finish(&mut data);
        assert_eq!(rows as i64, n);
        assert_eq!(zones.len(), 4);
        (Block::parse_columnar(data, &s).unwrap(), s)
    }

    #[test]
    fn build_and_read_back() {
        let blk = sample_block(100);
        assert_eq!(blk.len(), 100);
        let (k, p) = blk.entry(42).unwrap();
        assert_eq!(k, b"key-0042");
        assert_eq!(p, b"value-42");
    }

    #[test]
    fn empty_block_round_trips() {
        let mut b = BlockBuilder::new();
        let blk = Block::parse(b.finish()).unwrap();
        assert!(blk.is_empty());
        assert_eq!(blk.seek_ge(b"x").unwrap(), 0);
    }

    #[test]
    fn seek_ge_finds_boundaries() {
        let blk = sample_block(10);
        assert_eq!(blk.seek_ge(b"key-0000").unwrap(), 0);
        assert_eq!(blk.seek_ge(b"key-0005").unwrap(), 5);
        assert_eq!(blk.seek_ge(b"key-00055").unwrap(), 6); // between 5 and 6
        assert_eq!(blk.seek_ge(b"key-9999").unwrap(), 10);
        assert_eq!(blk.seek_ge(b"").unwrap(), 0);
    }

    #[test]
    fn seek_gt_skips_equal() {
        let blk = sample_block(10);
        assert_eq!(blk.seek_gt(b"key-0005").unwrap(), 6);
        assert_eq!(blk.seek_gt(b"key-0009").unwrap(), 10);
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut b = BlockBuilder::new();
        b.add(b"a", b"1");
        let _ = b.finish();
        assert!(b.is_empty());
        b.add(b"a", b"2"); // would panic if last_key were stale
        let blk = Block::parse(b.finish()).unwrap();
        assert_eq!(blk.entry(0).unwrap().1, b"2");
    }

    #[test]
    fn size_estimate_matches_finish() {
        let mut b = BlockBuilder::new();
        for i in 0..50 {
            b.add(format!("k{i:02}").as_bytes(), b"pppp");
        }
        let est = b.size_estimate();
        let actual = b.finish().len();
        assert_eq!(est, actual);
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        assert!(Block::parse(vec![1, 2]).is_err());
        // Claims 100 rows but has no offset array.
        let mut data = 100u32.to_le_bytes().to_vec();
        data.push(0);
        assert!(Block::parse(data).is_err());
        // Final row offset points past the end: caught at parse time.
        let mut b = BlockBuilder::new();
        b.add(b"k", b"v");
        let mut data = b.finish();
        data[4] = 0xFF;
        assert!(Block::parse(data).is_err());
        // A non-final bad offset still surfaces at entry() time.
        let mut b = BlockBuilder::new();
        b.add(b"a", b"1");
        b.add(b"b", b"2");
        let mut data = b.finish();
        data[4] = 0xFF; // first of two offsets
        let blk = Block::parse(data).unwrap();
        assert!(blk.entry(0).is_err());
    }

    #[test]
    fn huge_row_count_is_corrupt_not_overflow() {
        // row_count * 4 + 4 must not overflow on any target; a header
        // claiming u32::MAX rows is corruption, full stop.
        let mut data = u32::MAX.to_le_bytes().to_vec();
        data.extend_from_slice(&[0u8; 64]);
        assert!(matches!(Block::parse(data), Err(Error::Corrupt(_))));
    }

    #[test]
    fn columnar_round_trips_rows_and_keys() {
        let (blk, s) = sample_columnar(200);
        assert_eq!(blk.len(), 200);
        for i in 0..200usize {
            let row = blk.row(i, &s).unwrap();
            assert_eq!(row.values[1], Value::Timestamp(1000 + i as i64));
            assert_eq!(row.values[2], Value::I64(i as i64 * 10));
            let expect = row.encode_key(&s).unwrap();
            assert_eq!(blk.key(i).unwrap(), expect.as_slice());
        }
        // Column slices come back typed, without row materialization.
        match blk.column(2).unwrap() {
            ColumnSlice::I64(v) => assert_eq!(v.iter().sum::<i64>(), (0..200).sum::<i64>() * 10),
            other => panic!("wrong slice type: {other:?}"),
        }
        assert!(blk.column(9).is_none());
    }

    #[test]
    fn columnar_zones_cover_numeric_columns() {
        let s = col_schema();
        let mut b = ColumnarBlockBuilder::new(&s);
        for i in 0..50i64 {
            let row = Row::new(vec![
                Value::Str("d".into()),
                Value::Timestamp(1000 + i),
                Value::I64(-i),
                Value::F64(i as f64),
            ]);
            b.add(&row).unwrap();
        }
        let (zones, _) = b.finish(&mut Vec::new());
        assert_eq!(zones[0], None); // strings carry no zone
        assert_eq!(
            zones[1],
            Some((Value::Timestamp(1000), Value::Timestamp(1049)))
        );
        assert_eq!(zones[2], Some((Value::I64(-49), Value::I64(0))));
        assert_eq!(zones[3], Some((Value::F64(0.0), Value::F64(49.0))));
    }

    #[test]
    fn nan_poisons_float_zones() {
        let s = col_schema();
        let mut b = ColumnarBlockBuilder::new(&s);
        for i in 0..3i64 {
            let row = Row::new(vec![
                Value::Str("d".into()),
                Value::Timestamp(i),
                Value::I64(i),
                Value::F64(if i == 1 { f64::NAN } else { i as f64 }),
            ]);
            b.add(&row).unwrap();
        }
        let mut data = Vec::new();
        let (zones, _) = b.finish(&mut data);
        assert_eq!(zones[3], None);
        // The NaN itself still round-trips through the block.
        let blk = Block::parse_columnar(data, &s).unwrap();
        match blk.row(1, &s).unwrap().values[3] {
            Value::F64(f) => assert!(f.is_nan()),
            ref v => panic!("wrong value {v:?}"),
        }
    }

    #[test]
    fn columnar_seek_by_key() {
        let (blk, s) = sample_columnar(30);
        let probe = Row::new(vec![
            Value::Str("dev-1".into()),
            Value::Timestamp(1015),
            Value::I64(0),
            Value::F64(0.0),
        ]);
        let key = probe.encode_key(&s).unwrap();
        let i = blk.seek_ge(&key).unwrap();
        assert_eq!(blk.key(i).unwrap(), key.as_slice());
        assert_eq!(blk.seek_gt(&key).unwrap(), i + 1);
    }

    #[test]
    fn rows_in_range_matches_key_filter_without_building_the_arena() {
        let (col, s) = sample_columnar(60);
        let row = sample_block(60);
        let types = s.key_types();
        let prefix = |dev: &str| keyenc::encode_prefix(&[Value::Str(dev.into())], &types).unwrap();
        let full = |dev: &str, ts: i64| {
            keyenc::encode_prefix(&[Value::Str(dev.into()), Value::Timestamp(ts)], &types).unwrap()
        };
        let ranges = [
            KeyRange::all(),
            KeyRange::for_prefix(prefix("dev-1")),
            KeyRange::for_prefix(prefix("dev-9")),
            KeyRange::from_bounds(Some((full("dev-0", 1007), true)), None),
            KeyRange::from_bounds(
                Some((full("dev-0", 1007), false)),
                Some((prefix("dev-2"), false)),
            ),
            KeyRange::from_bounds(None, Some((full("dev-1", 1030), true))),
            KeyRange::from_bounds(Some((prefix("dev-2"), true)), Some((prefix("dev-1"), true))),
            KeyRange::for_prefix(b"key-003".to_vec()),
            KeyRange::from_bounds(
                Some((b"key-0010".to_vec(), false)),
                Some((b"key-0020".to_vec(), true)),
            ),
        ];
        for range in &ranges {
            let got = col.rows_in_range(range).unwrap();
            let expect: Vec<usize> = (0..col.len())
                .filter(|&i| {
                    let key = col.row(i, &s).unwrap().encode_key(&s).unwrap();
                    range.contains(&key)
                })
                .collect();
            assert_eq!(got.clone().collect::<Vec<_>>(), expect, "{range:?}");
            let got = row.rows_in_range(range).unwrap();
            let expect: Vec<usize> = (0..row.len())
                .filter(|&i| range.contains(row.key(i).unwrap()))
                .collect();
            assert_eq!(got.collect::<Vec<_>>(), expect, "{range:?}");
        }
        assert!(!col.key_arena_built());
        col.key(0).unwrap();
        assert!(col.key_arena_built());
    }

    #[test]
    fn corrupt_columnar_blocks_are_rejected() {
        let s = col_schema();
        assert!(Block::parse_columnar(vec![1, 2], &s).is_err());
        // Wrong column count.
        let mut data = 0u32.to_le_bytes().to_vec();
        data.push(2); // claims 2 columns, schema has 4
        assert!(Block::parse_columnar(data, &s).is_err());
        // Row count far beyond the column data.
        let mut b = ColumnarBlockBuilder::new(&s);
        let row = Row::new(vec![
            Value::Str("d".into()),
            Value::Timestamp(1),
            Value::I64(1),
            Value::F64(1.0),
        ]);
        b.add(&row).unwrap();
        let mut data = Vec::new();
        b.finish(&mut data);
        let mut big = data.clone();
        big[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Block::parse_columnar(big, &s),
            Err(Error::Corrupt(_))
        ));
        // Truncation inside a column slice.
        let mut short = data.clone();
        short.truncate(data.len() - 1);
        assert!(Block::parse_columnar(short, &s).is_err());
        // An unknown codec tag is corruption, not a panic.
        let mut bad_tag = data;
        bad_tag[5] = 0x7F; // first column's codec tag
        assert!(matches!(
            Block::parse_columnar(bad_tag, &s),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn columnar_entry_is_rejected() {
        let (blk, _) = sample_columnar(3);
        assert!(blk.entry(0).is_err());
    }
}
