//! Tablet blocks: the 64 kB units rows are grouped into on disk (§3.2).
//!
//! A block stores its rows as per-column slices, each behind a
//! time-series codec chosen column-by-column (see [`littletable_codec`]):
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
//! flat arena (a byte buffer plus row offsets), not a vector per row, and
//! make binary search by encoded key possible inside a block, which is
//! how a query finds its starting row after the tablet index has located
//! the right block. Blocks are individually compressed on disk; this
//! module works with the uncompressed form.
//!
//! This is the only layout the engine writes, and the only one it holds
//! in memory: a [`Block`] is always decoded column slices. Tablets that
//! predate it store row-major blocks; [`crate::tablet`], which alone
//! knows they exist, transcodes those into a [`Block`] as it reads them.
//!
//! Maintenance moves columns, not rows: a merge hands
//! [`BlockEncoder::append_run`] a row range of a decoded source block and
//! the encoder copies typed sub-slices, and [`BlockEncoder::finish`]
//! encodes straight from its retained column buffers into a caller-owned
//! output buffer.

use crate::error::{Error, Result};
use crate::keyenc::{self, KeyRange};
use crate::row::Row;
use crate::schema::Schema;
use crate::util::{put_varint, Reader};
use crate::value::{ColumnType, Value};
use std::ops::{Bound, Range};
use std::sync::OnceLock;

/// One decoded column of a block, typed per the tablet schema.
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

/// Builds one block. Rows must arrive in ascending key order (the tablet
/// writer checks); their values are buffered per column and
/// codec-compressed on [`BlockEncoder::finish`]. The column buffers and
/// the codec scratch keep their capacity from block to block.
#[derive(Debug)]
pub struct BlockEncoder {
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

impl BlockEncoder {
    /// Creates a builder shaped for `schema`.
    pub fn new(schema: &Schema) -> Self {
        BlockEncoder {
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
    /// [`BlockEncoder::size_estimate`] to `full_at` — exactly
    /// where appending the same rows one at a time and checking after
    /// each would stop. Returns the number of rows taken (at least one
    /// when `rows` is non-empty). `src` must have this builder's column
    /// types.
    pub fn append_run(&mut self, src: &Block, rows: Range<usize>, full_at: usize) -> Result<usize> {
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
    /// threshold input.
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

    /// The buffered rows as a decoded block, without a trip through the
    /// codecs. `schema` is the one the encoder was shaped for.
    pub fn into_block(self, schema: &Schema) -> Block {
        Block::from_columns(self.cols, self.rows, schema)
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

/// A decoded block: typed column slices plus a lazily built arena of
/// encoded primary keys, ready for binary search, row iteration and
/// column-slice access.
#[derive(Debug, Clone)]
pub struct Block {
    columns: Vec<ColumnSlice>,
    row_count: usize,
    key_indices: Vec<usize>,
    /// Encoded primary keys, built from the key column slices the first
    /// time a caller iterates by key. Aggregate scans and merges never
    /// touch it. `None` inside marks keys too large for 32-bit offsets.
    keys: OnceLock<Option<KeyArena>>,
    byte_size: usize,
}

impl Block {
    /// Validates and decodes an uncompressed block written under `schema`
    /// (the tablet footer's schema).
    pub fn parse(data: &[u8], schema: &Schema) -> Result<Block> {
        if data.len() < 4 {
            return Err(Error::corrupt("block shorter than its header"));
        }
        let row_count = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        let mut r = Reader::new(&data[4..]);
        let ncols = r.varint()? as usize;
        if ncols != schema.columns().len() {
            return Err(Error::corrupt(format!(
                "block has {ncols} columns, schema has {}",
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
            return Err(Error::corrupt("trailing bytes after block"));
        }
        for (col, (_, bytes)) in schema.columns().iter().zip(&extents) {
            let dense = !matches!(col.ty, ColumnType::Str | ColumnType::Blob);
            if dense && row_count > bytes.len().saturating_mul(8).saturating_add(64) {
                return Err(Error::corrupt("block row count exceeds column data"));
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
        Ok(Block::from_columns(columns, row_count, schema))
    }

    /// Wraps `row_count` rows already decoded into `schema`'s column
    /// types.
    fn from_columns(columns: Vec<ColumnSlice>, row_count: usize, schema: &Schema) -> Block {
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
            + std::mem::size_of::<Block>();
        Block {
            columns,
            row_count,
            key_indices,
            keys: OnceLock::new(),
            byte_size,
        }
    }

    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        self.row_count
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// What a cached copy of the block costs in memory: the decoded
    /// slices plus the key arena (whether or not it has been built yet),
    /// so the cache charge is an upper bound on the resident size.
    pub fn byte_size(&self) -> usize {
        self.byte_size
    }

    fn check_row(&self, i: usize) -> Result<()> {
        if i >= self.row_count {
            return Err(Error::corrupt("block row index out of range"));
        }
        Ok(())
    }

    /// The encoded primary key of row `i`. Materializes the key arena on
    /// first call.
    pub fn key(&self, i: usize) -> Result<&[u8]> {
        self.check_row(i)?;
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

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Result<Row> {
        self.check_row(i)?;
        Ok(Row::new(self.columns.iter().map(|c| c.value(i)).collect()))
    }

    /// The decoded slice of column `idx` (tablet-schema order). This is
    /// the aggregate-pushdown entry point: it never materializes rows or
    /// keys. Panics when the tablet's schema has no such column.
    pub fn column(&self, idx: usize) -> &ColumnSlice {
        &self.columns[idx]
    }

    /// The timestamp column (the last key column) as a typed slice.
    pub fn timestamps(&self) -> Result<&[i64]> {
        match self.key_indices.last().map(|&ki| &self.columns[ki]) {
            Some(ColumnSlice::Timestamp(v)) => Ok(v),
            _ => Err(Error::corrupt("block has no timestamp key column")),
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

    /// The interval of row indices whose keys lie inside `range`. Only
    /// the O(log n) probed rows' keys are encoded, into one scratch
    /// buffer; the key arena is neither built nor read, so an aggregate
    /// scan clips a block to the key bounds without paying for key
    /// materialization.
    pub fn rows_in_range(&self, range: &KeyRange) -> Result<Range<usize>> {
        let mut scratch = Vec::new();
        let mut first = |before: &dyn Fn(&[u8]) -> bool| {
            self.partition_point(|i| {
                self.key_into(i, &mut scratch)?;
                Ok(before(&scratch))
            })
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

    /// Replaces `out` with row `i`'s encoded key, encoded from the key
    /// column slices; the key arena is neither built nor read.
    pub fn key_into(&self, i: usize, out: &mut Vec<u8>) -> Result<()> {
        self.check_row(i)?;
        out.clear();
        self.encode_key(i, out);
        Ok(())
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

    /// Whether the key arena has been materialized.
    #[cfg(test)]
    pub(crate) fn key_arena_built(&self) -> bool {
        self.keys.get().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

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
        let mut b = BlockEncoder::new(&s);
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
        (Block::parse(&data, &s).unwrap(), s)
    }

    #[test]
    fn columnar_round_trips_rows_and_keys() {
        let (blk, s) = sample_columnar(200);
        assert_eq!(blk.len(), 200);
        for i in 0..200usize {
            let row = blk.row(i).unwrap();
            assert_eq!(row.values[1], Value::Timestamp(1000 + i as i64));
            assert_eq!(row.values[2], Value::I64(i as i64 * 10));
            let expect = row.encode_key(&s).unwrap();
            assert_eq!(blk.key(i).unwrap(), expect.as_slice());
        }
        // Column slices come back typed, without row materialization.
        match blk.column(2) {
            ColumnSlice::I64(v) => assert_eq!(v.iter().sum::<i64>(), (0..200).sum::<i64>() * 10),
            other => panic!("wrong slice type: {other:?}"),
        }
    }

    #[test]
    fn into_block_is_the_encoded_block_decoded() {
        let s = col_schema();
        let mut b = BlockEncoder::new(&s);
        for i in 0..70i64 {
            let row = Row::new(vec![
                Value::Str(format!("dev-{}", i / 24)),
                Value::Timestamp(1000 + i),
                Value::I64(i * 10),
                Value::F64(i as f64 / 2.0),
            ]);
            b.add(&row).unwrap();
        }
        let (decoded, _) = sample_columnar(70);
        let direct = b.into_block(&s);
        assert_eq!(direct.len(), decoded.len());
        assert_eq!(direct.byte_size(), decoded.byte_size());
        for c in 0..4 {
            assert_eq!(direct.column(c), decoded.column(c));
        }
        assert_eq!(direct.key(69).unwrap(), decoded.key(69).unwrap());
    }

    #[test]
    fn columnar_zones_cover_numeric_columns() {
        let s = col_schema();
        let mut b = BlockEncoder::new(&s);
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
        let mut b = BlockEncoder::new(&s);
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
        let blk = Block::parse(&data, &s).unwrap();
        match blk.row(1).unwrap().values[3] {
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
        // Between two keys, before the first and past the last.
        let mut between = key.clone();
        between.push(0);
        assert_eq!(blk.seek_ge(&between).unwrap(), i + 1);
        assert_eq!(blk.seek_ge(b"").unwrap(), 0);
        assert_eq!(blk.seek_ge(&[0xFF; 4]).unwrap(), 30);
        assert_eq!(blk.seek_gt(blk.key(29).unwrap()).unwrap(), 30);
    }

    #[test]
    fn rows_in_range_matches_key_filter_without_building_the_arena() {
        let (col, s) = sample_columnar(60);
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
        ];
        for range in &ranges {
            let got = col.rows_in_range(range).unwrap();
            let expect: Vec<usize> = (0..col.len())
                .filter(|&i| {
                    let key = col.row(i).unwrap().encode_key(&s).unwrap();
                    range.contains(&key)
                })
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
        assert!(Block::parse(&[1, 2], &s).is_err());
        // Wrong column count.
        let mut data = 0u32.to_le_bytes().to_vec();
        data.push(2); // claims 2 columns, schema has 4
        assert!(Block::parse(&data, &s).is_err());
        // Row count far beyond the column data.
        let mut b = BlockEncoder::new(&s);
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
        assert!(matches!(Block::parse(&big, &s), Err(Error::Corrupt(_))));
        // Truncation inside a column slice.
        let mut short = data.clone();
        short.truncate(data.len() - 1);
        assert!(Block::parse(&short, &s).is_err());
        // An unknown codec tag is corruption, not a panic.
        let mut bad_tag = data;
        bad_tag[5] = 0x7F; // first column's codec tag
        assert!(matches!(Block::parse(&bad_tag, &s), Err(Error::Corrupt(_))));
    }
}
