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
//! Columns appear in tablet-schema order, key columns included. Encoded
//! primary keys are never stored and never kept: a caller that needs a
//! row's key has it encoded from the key column values into a buffer of
//! its own ([`Block::key_into`]), which is what the binary searches here
//! and the gallops of the merges do for the handful of rows they probe.
//! Blocks are individually compressed on disk; this module works with the
//! uncompressed form.
//!
//! This is the only layout the engine writes, and the only one it holds
//! in memory: a [`Block`] is always decoded column slices. Fixed-width
//! columns are plain vectors; string and blob columns are *flat* — one
//! byte arena and `rows + 1` offsets ([`FlatColumn`]) — so decoding a
//! block, copying a run of it and encoding its cells for the wire
//! allocate per column, never per cell. Tablets that predate the layout
//! store row-major blocks; [`crate::tablet`], which alone knows they
//! exist, transcodes those into a [`Block`] as it reads them.
//!
//! Both directions move columns, not rows. A flush or a merge hands
//! [`BlockEncoder::append_run`] a row range of a decoded block — a
//! memtablet's rows gathered in key order (`ColumnSlice::gather`), a
//! source tablet's block — and the encoder copies typed sub-slices;
//! [`BlockEncoder::finish`] encodes straight from its retained column
//! buffers into a caller-owned output buffer. A query takes row ranges of
//! decoded blocks from its cursor and reads cells in place through
//! [`ColumnSlice::value_ref`]; a [`Row`] is built ([`Block::row`]) only
//! for a consumer that asks for one.

use crate::error::{Error, Result};
use crate::keyenc::{self, KeyRange};
use crate::row::Row;
use crate::schema::Schema;
use crate::util::{put_varint, Reader};
use crate::value::{ColumnType, Value, ValueRef};
use std::fmt;
use std::ops::{Bound, Index, Range};

/// What a [`FlatColumn`] keeps its cells in: `Vec<u8>` for blobs, and
/// `String` for strings — whose cells are then UTF-8 by construction, so
/// a column is validated once, when it is decoded, and a cell is read
/// without a check or a copy.
pub trait Arena: Default + Clone + PartialEq + fmt::Debug {
    /// What one cell reads as: `[u8]` or `str`.
    type Cell: ?Sized;
    /// Everything stored so far.
    fn as_bytes(&self) -> &[u8];
    /// Adds `cell` at the end.
    fn append(&mut self, cell: &Self::Cell);
    /// The cell occupying `bytes`, which must be a range one or more
    /// whole cells were appended at.
    fn cell(&self, bytes: Range<usize>) -> &Self::Cell;
    /// `cell` as plain bytes.
    fn cell_bytes(cell: &Self::Cell) -> &[u8];
    /// Empties the arena, keeping its allocation.
    fn clear(&mut self);
}

impl Arena for Vec<u8> {
    type Cell = [u8];
    fn as_bytes(&self) -> &[u8] {
        self
    }
    fn append(&mut self, cell: &[u8]) {
        self.extend_from_slice(cell)
    }
    fn cell(&self, bytes: Range<usize>) -> &[u8] {
        &self[bytes]
    }
    fn cell_bytes(cell: &[u8]) -> &[u8] {
        cell
    }
    fn clear(&mut self) {
        Vec::clear(self)
    }
}

impl Arena for String {
    type Cell = str;
    fn as_bytes(&self) -> &[u8] {
        str::as_bytes(self)
    }
    fn append(&mut self, cell: &str) {
        self.push_str(cell)
    }
    fn cell(&self, bytes: Range<usize>) -> &str {
        &self[bytes]
    }
    fn cell_bytes(cell: &str) -> &[u8] {
        cell.as_bytes()
    }
    fn clear(&mut self) {
        String::clear(self)
    }
}

/// A column of variable-length cells stored back to back: cell `i`
/// occupies `arena[offsets[i]..offsets[i + 1]]`. Two allocations however
/// many cells there are.
#[derive(Clone, PartialEq)]
pub struct FlatColumn<A: Arena> {
    arena: A,
    /// One more offset than there are cells, ascending from 0 to the
    /// arena's length.
    offsets: Vec<u32>,
}

/// A flat column of UTF-8 strings.
pub type StrColumn = FlatColumn<String>;
/// A flat column of byte arrays.
pub type BlobColumn = FlatColumn<Vec<u8>>;

impl<A: Arena> Default for FlatColumn<A> {
    fn default() -> Self {
        FlatColumn {
            arena: A::default(),
            offsets: vec![0],
        }
    }
}

impl<A: Arena> FlatColumn<A> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn extent(&self, rows: Range<usize>) -> Range<usize> {
        self.offsets[rows.start] as usize..self.offsets[rows.end] as usize
    }

    /// Cell `i` as plain bytes. Panics when out of range.
    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.arena.as_bytes()[self.extent(i..i + 1)]
    }

    /// The cells, in order.
    pub fn iter(&self) -> impl Iterator<Item = &A::Cell> + Clone + '_ {
        (0..self.len()).map(|i| &self[i])
    }

    /// Appends a cell. The offsets are 32-bit: a column cannot pass 4 GiB.
    pub fn push(&mut self, cell: &A::Cell) -> Result<()> {
        let end = self.arena.as_bytes().len() + A::cell_bytes(cell).len();
        let end = u32::try_from(end).map_err(|_| Error::invalid("column larger than 4 GiB"))?;
        self.arena.append(cell);
        self.offsets.push(end);
        Ok(())
    }

    /// Appends `src[rows]`: one copy of the rows' bytes, and their offsets
    /// rebased.
    fn extend_from(&mut self, src: &FlatColumn<A>, rows: Range<usize>) -> Result<()> {
        let from = src.extent(rows.clone());
        let base = self.arena.as_bytes().len();
        if u32::try_from(base + from.len()).is_err() {
            return Err(Error::invalid("column larger than 4 GiB"));
        }
        self.arena.append(src.arena.cell(from.clone()));
        self.offsets.extend(
            src.offsets[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| (o as usize - from.start + base) as u32),
        );
        Ok(())
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.offsets.truncate(1);
    }

    /// Resident size in bytes: the arena and the offsets.
    fn byte_size(&self) -> usize {
        self.arena.as_bytes().len() + self.offsets.len() * 4
    }
}

impl BlobColumn {
    /// Takes over a decoded arena.
    fn from_arena(a: littletable_codec::ByteArena) -> Self {
        FlatColumn {
            arena: a.bytes,
            offsets: a.offsets,
        }
    }

    /// The same cells as strings: one UTF-8 validation of the whole
    /// arena, and a check that no cell boundary splits a character.
    fn into_str(self) -> Result<StrColumn> {
        let bad = || Error::corrupt("string column value is not valid UTF-8");
        let arena = String::from_utf8(self.arena).map_err(|_| bad())?;
        if !self
            .offsets
            .iter()
            .all(|&o| arena.is_char_boundary(o as usize))
        {
            return Err(bad());
        }
        Ok(FlatColumn {
            arena,
            offsets: self.offsets,
        })
    }
}

impl<A: Arena> Index<usize> for FlatColumn<A> {
    type Output = A::Cell;
    /// Cell `i`. Panics when out of range.
    fn index(&self, i: usize) -> &A::Cell {
        self.arena.cell(self.extent(i..i + 1))
    }
}

impl<'a, A: Arena> FromIterator<&'a A::Cell> for FlatColumn<A>
where
    A::Cell: 'a,
{
    /// Panics past 4 GiB of cells.
    fn from_iter<I: IntoIterator<Item = &'a A::Cell>>(cells: I) -> Self {
        let mut col = FlatColumn::default();
        for cell in cells {
            col.push(cell).expect("column larger than 4 GiB");
        }
        col
    }
}

impl<A: Arena> fmt::Debug for FlatColumn<A>
where
    A::Cell: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

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
    Str(StrColumn),
    /// Byte arrays.
    Blob(BlobColumn),
}

impl ColumnSlice {
    pub(crate) fn empty_for(ty: ColumnType) -> ColumnSlice {
        match ty {
            ColumnType::I32 => ColumnSlice::I32(Vec::new()),
            ColumnType::I64 => ColumnSlice::I64(Vec::new()),
            ColumnType::F64 => ColumnSlice::F64(Vec::new()),
            ColumnType::Timestamp => ColumnSlice::Timestamp(Vec::new()),
            ColumnType::Str => ColumnSlice::Str(FlatColumn::default()),
            ColumnType::Blob => ColumnSlice::Blob(FlatColumn::default()),
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

    /// The value at row `i`, borrowed from the slice. Panics when out of
    /// range — callers index within `len()`.
    #[inline]
    pub fn value_ref(&self, i: usize) -> ValueRef<'_> {
        match self {
            ColumnSlice::I32(v) => ValueRef::I32(v[i]),
            ColumnSlice::I64(v) => ValueRef::I64(v[i]),
            ColumnSlice::F64(v) => ValueRef::F64(v[i]),
            ColumnSlice::Timestamp(v) => ValueRef::Timestamp(v[i]),
            ColumnSlice::Str(v) => ValueRef::Str(&v[i]),
            ColumnSlice::Blob(v) => ValueRef::Blob(&v[i]),
        }
    }

    /// The value at row `i`, owned. Panics when out of range.
    pub fn value(&self, i: usize) -> Value {
        self.value_ref(i).to_value()
    }

    /// Resident size in bytes, for cache accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnSlice::I32(v) => v.len() * 4,
            ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => v.len() * 8,
            ColumnSlice::F64(v) => v.len() * 8,
            ColumnSlice::Str(v) => v.byte_size(),
            ColumnSlice::Blob(v) => v.byte_size(),
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
            (ColumnSlice::Str(col), ColumnSlice::Str(s)) => col.extend_from(s, rows)?,
            (ColumnSlice::Blob(col), ColumnSlice::Blob(s)) => col.extend_from(s, rows)?,
            _ => {
                return Err(Error::invalid(
                    "source column slice does not match the builder's column type",
                ))
            }
        }
        Ok(())
    }

    /// The values at `rows`, in that order. Panics on a row out of range.
    pub(crate) fn gather(&self, rows: &[u32]) -> ColumnSlice {
        let at = rows.iter().map(|&r| r as usize);
        match self {
            ColumnSlice::I32(v) => ColumnSlice::I32(at.map(|r| v[r]).collect()),
            ColumnSlice::I64(v) => ColumnSlice::I64(at.map(|r| v[r]).collect()),
            ColumnSlice::F64(v) => ColumnSlice::F64(at.map(|r| v[r]).collect()),
            ColumnSlice::Timestamp(v) => ColumnSlice::Timestamp(at.map(|r| v[r]).collect()),
            ColumnSlice::Str(v) => ColumnSlice::Str(at.map(|r| &v[r]).collect()),
            ColumnSlice::Blob(v) => ColumnSlice::Blob(at.map(|r| &v[r]).collect()),
        }
    }

    /// Payload bytes of row `i` in a string or blob slice — the part of
    /// [`Value::mem_size`] that varies from row to row; 0 for fixed-width
    /// slices.
    fn var_len(&self, i: usize) -> usize {
        match self {
            ColumnSlice::Str(v) => v.bytes(i).len(),
            ColumnSlice::Blob(v) => v.bytes(i).len(),
            _ => 0,
        }
    }

    pub(crate) fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (ColumnSlice::I32(col), Value::I32(x)) => col.push(*x),
            (ColumnSlice::I64(col), Value::I64(x)) => col.push(*x),
            (ColumnSlice::F64(col), Value::F64(x)) => col.push(*x),
            (ColumnSlice::Timestamp(col), Value::Timestamp(x)) => col.push(*x),
            (ColumnSlice::Str(col), Value::Str(x)) => col.push(x)?,
            (ColumnSlice::Blob(col), Value::Blob(x)) => col.push(x)?,
            (_, v) => {
                return Err(Error::invalid(format!(
                    "row value of type {:?} does not match column slice",
                    v.column_type()
                )))
            }
        }
        Ok(())
    }

    /// The slice as a column of type `ty` in a newer version of its
    /// schema: itself, or an `int32` slice widened to `int64` (§3.5).
    fn translated(&self, ty: ColumnType) -> Result<ColumnSlice> {
        match (self, ty) {
            (ColumnSlice::I32(v), ColumnType::I64) => {
                Ok(ColumnSlice::I64(v.iter().map(|&x| x as i64).collect()))
            }
            (ColumnSlice::I32(_), ColumnType::I32)
            | (ColumnSlice::I64(_), ColumnType::I64)
            | (ColumnSlice::F64(_), ColumnType::F64)
            | (ColumnSlice::Timestamp(_), ColumnType::Timestamp)
            | (ColumnSlice::Str(_), ColumnType::Str)
            | (ColumnSlice::Blob(_), ColumnType::Blob) => Ok(self.clone()),
            _ => Err(Error::corrupt(format!(
                "cannot translate a column slice to {ty}"
            ))),
        }
    }

    /// `rows` copies of `v`: a column added since, at its default.
    fn repeat(v: &Value, rows: usize) -> Result<ColumnSlice> {
        let mut col = ColumnSlice::empty_for(v.column_type());
        match (&mut col, v) {
            (ColumnSlice::I32(col), Value::I32(x)) => col.resize(rows, *x),
            (ColumnSlice::I64(col), Value::I64(x)) => col.resize(rows, *x),
            (ColumnSlice::F64(col), Value::F64(x)) => col.resize(rows, *x),
            (ColumnSlice::Timestamp(col), Value::Timestamp(x)) => col.resize(rows, *x),
            (col, v) => (0..rows).try_for_each(|_| col.push(v))?,
        }
        Ok(col)
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
                    v.iter().map(str::as_bytes),
                    scratch,
                ),
                ColumnSlice::Blob(v) => {
                    littletable_codec::encode_bytes_column_into(v.iter(), scratch)
                }
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

/// A decoded block: typed column slices, ready for binary search by
/// key, column-slice access and — for the consumers that want them — row
/// materialization.
#[derive(Debug, Clone)]
pub struct Block {
    columns: Vec<ColumnSlice>,
    row_count: usize,
    key_indices: Vec<usize>,
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
                ColumnType::Str | ColumnType::Blob => {
                    let cells = BlobColumn::from_arena(littletable_codec::decode_bytes_column(
                        *tag, bytes, row_count,
                    )?);
                    if col.ty == ColumnType::Str {
                        ColumnSlice::Str(cells.into_str()?)
                    } else {
                        ColumnSlice::Blob(cells)
                    }
                }
            };
            columns.push(slice);
        }
        Ok(Block::from_columns(columns, row_count, schema))
    }

    /// Wraps `row_count` rows already decoded into `schema`'s column
    /// types.
    pub(crate) fn from_columns(
        columns: Vec<ColumnSlice>,
        row_count: usize,
        schema: &Schema,
    ) -> Block {
        let byte_size =
            columns.iter().map(|c| c.byte_size()).sum::<usize>() + std::mem::size_of::<Block>();
        Block {
            columns,
            row_count,
            key_indices: schema.key_indices().to_vec(),
            byte_size,
        }
    }

    /// The block as a block of `to`, a newer version of the schema `from`
    /// it was decoded under (§3.5: evolutions never rewrite tablets):
    /// widened columns widened, columns added since filled with their
    /// defaults. Keys are unchanged — `int32` and `int64` encode alike.
    pub fn translated(&self, from: &Schema, to: &Schema) -> Result<Block> {
        let (old, new) = (from.columns(), to.columns());
        if self.columns.len() != old.len() || new.len() < old.len() {
            return Err(Error::corrupt("block does not match its schema"));
        }
        let mut columns = Vec::with_capacity(new.len());
        for (col, def) in self.columns.iter().zip(new) {
            columns.push(col.translated(def.ty)?);
        }
        for def in &new[old.len()..] {
            columns.push(ColumnSlice::repeat(&def.default, self.row_count)?);
        }
        Ok(Block::from_columns(columns, self.row_count, to))
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
    /// slices, flat arenas at their real size. A block holds nothing
    /// else.
    pub fn byte_size(&self) -> usize {
        self.byte_size
    }

    fn check_row(&self, i: usize) -> Result<()> {
        if i >= self.row_count {
            return Err(Error::corrupt("block row index out of range"));
        }
        Ok(())
    }

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Result<Row> {
        self.check_row(i)?;
        Ok(Row::new(self.columns.iter().map(|c| c.value(i)).collect()))
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The decoded slice of column `idx` (tablet-schema order). This is
    /// the aggregate-pushdown entry point: it never materializes rows or
    /// keys. Panics when the tablet's schema has no such column.
    #[inline]
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

    /// The interval of row indices whose keys lie inside `range`. Only
    /// the O(log n) probed rows' keys are encoded, into one scratch
    /// buffer.
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

    /// Whether some row's encoded key is `key`: one bisection, encoding
    /// the probed rows' keys into a scratch buffer.
    pub fn contains_key(&self, key: &[u8]) -> Result<bool> {
        let mut scratch = Vec::new();
        let at = self.partition_point(|i| {
            self.key_into(i, &mut scratch)?;
            Ok(scratch.as_slice() < key)
        })?;
        if at == self.len() {
            return Ok(false);
        }
        self.key_into(at, &mut scratch)?;
        Ok(scratch == key)
    }

    /// Replaces `out` with row `i`'s encoded key, encoded from the key
    /// column slices.
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
                ColumnSlice::Str(v) => keyenc::encode_bytes(out, v.bytes(row)),
                ColumnSlice::Blob(v) => keyenc::encode_bytes(out, v.bytes(row)),
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
        let mut key = vec![7; 3];
        for i in 0..200usize {
            let row = blk.row(i).unwrap();
            assert_eq!(row.values[1], Value::Timestamp(1000 + i as i64));
            assert_eq!(row.values[2], Value::I64(i as i64 * 10));
            blk.key_into(i, &mut key).unwrap();
            assert_eq!(key, row.encode_key(&s).unwrap());
        }
        assert!(blk.key_into(200, &mut key).is_err());
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
    fn contains_key_finds_exactly_the_keys_present() {
        let (blk, s) = sample_columnar(30);
        let mut key = Vec::new();
        for i in [0, 1, 14, 15, 28, 29] {
            blk.key_into(i, &mut key).unwrap();
            assert!(blk.contains_key(&key).unwrap(), "row {i}");
            // Between this key and the next, and just before this one.
            key.push(0);
            assert!(!blk.contains_key(&key).unwrap());
            key.truncate(key.len() - 2);
            assert!(!blk.contains_key(&key).unwrap());
        }
        // Before the first key, past the last, and a key that was never
        // written inside the block's range.
        assert!(!blk.contains_key(b"").unwrap());
        assert!(!blk.contains_key(&[0xFF; 4]).unwrap());
        let absent = Row::new(vec![
            Value::Str("dev-1".into()),
            Value::Timestamp(5000),
            Value::I64(0),
            Value::F64(0.0),
        ]);
        assert!(!blk.contains_key(&absent.encode_key(&s).unwrap()).unwrap());
        let (empty, _) = sample_columnar(0);
        assert!(!empty.contains_key(b"k").unwrap());
    }

    #[test]
    fn rows_in_range_matches_key_filter() {
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
    }

    #[test]
    fn flat_columns_copy_runs_and_rebase_offsets() {
        let src: StrColumn = ["", "ab", "ü", "", "xyz"].into_iter().collect();
        assert_eq!(src.len(), 5);
        assert_eq!((&src[1], &src[2], src.bytes(2).len()), ("ab", "ü", 2));
        let mut dst: StrColumn = ["head"].into_iter().collect();
        dst.extend_from(&src, 1..4).unwrap();
        dst.extend_from(&src, 4..4).unwrap();
        dst.extend_from(&src, 0..1).unwrap();
        dst.push("tail").unwrap();
        let want = ["head", "ab", "ü", "", "", "tail"];
        assert_eq!(dst.iter().collect::<Vec<_>>(), want);
        assert_eq!(dst, want.into_iter().collect());
        // Two allocations: the cells' bytes and one offset more than cells.
        assert_eq!(dst.byte_size(), 12 + 7 * 4);
        dst.clear();
        assert!(dst.is_empty() && dst.byte_size() == 4);
    }

    #[test]
    fn strings_are_validated_once_per_column() {
        let blob = |cells: &[&[u8]]| cells.iter().copied().collect::<BlobColumn>();
        let ok = blob(&["é".as_bytes(), b"", b"z"]).into_str().unwrap();
        assert_eq!(ok.iter().collect::<Vec<_>>(), ["é", "", "z"]);
        // Not UTF-8 at all, and UTF-8 only when two cells are read as one.
        assert!(blob(&[b"ok", &[0xFF]]).into_str().is_err());
        let e = "é".as_bytes();
        assert!(blob(&[&e[..1], &e[1..]]).into_str().is_err());
        // The same through a block: a string column holding such bytes.
        let s = col_schema();
        let mut data = 1u32.to_le_bytes().to_vec();
        data.push(4);
        for col in [&[1, 0xFF][..], &[0; 8], &[0; 8], &[0; 8]] {
            data.push(littletable_codec::TAG_RAW);
            data.push(col.len() as u8);
            data.extend_from_slice(col);
        }
        assert!(matches!(Block::parse(&data, &s), Err(Error::Corrupt(_))));
    }

    #[test]
    fn translated_blocks_widen_and_fill_defaults_and_keep_their_keys() {
        let old = Schema::new(
            vec![
                ColumnDef::new("port", ColumnType::I32),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("note", ColumnType::Str),
            ],
            &["port", "ts"],
        )
        .unwrap();
        let new = old
            .widen_column("port")
            .unwrap()
            .add_column(ColumnDef::with_default(
                "tag",
                ColumnType::Str,
                Value::Str("none".into()),
            ))
            .unwrap()
            .add_column(ColumnDef::new("n", ColumnType::I64))
            .unwrap();
        let mut b = BlockEncoder::new(&old);
        for i in 0..5i32 {
            let row = vec![
                Value::I32(i - 2),
                Value::Timestamp(i as i64),
                Value::Str(format!("n{i}")),
            ];
            b.add(&Row::new(row)).unwrap();
        }
        let lagging = b.into_block(&old);
        let got = lagging.translated(&old, &new).unwrap();
        let (mut k_old, mut k_new) = (Vec::new(), Vec::new());
        for i in 0..5 {
            let values = lagging.row(i).unwrap().values;
            let want = old.translate_row(&new, values).unwrap();
            assert_eq!(got.row(i).unwrap().values, want);
            lagging.key_into(i, &mut k_old).unwrap();
            got.key_into(i, &mut k_new).unwrap();
            assert_eq!(k_old, k_new);
        }
        // A block of the wrong shape, or a narrowing, is refused.
        assert!(got.translated(&old, &new).is_err());
        assert!(got.translated(&new, &old).is_err());
    }

    #[test]
    fn byte_size_is_what_the_slices_hold() {
        let (blk, _) = sample_columnar(100);
        // 100 rows: five-byte device names and their 101 offsets, then
        // three eight-byte columns.
        let slices = 100 * 5 + 101 * 4 + 3 * 100 * 8;
        assert_eq!(blk.byte_size(), slices + std::mem::size_of::<Block>());
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
