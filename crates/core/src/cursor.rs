//! Tablet cursors and the merge-sorted result stream (§3.2).
//!
//! To execute a query, LittleTable selects every tablet whose timespan
//! overlaps the query's timestamp bounds, opens a cursor on each at the
//! query's key bound (index binary search, then in-block binary search),
//! and merge-sorts the streams into a single result ordered by primary
//! key. Primary keys are unique table-wide, so the merge never sees ties.

use crate::block::Block;
use crate::error::Result;
use crate::keyenc::KeyRange;
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::tablet::{TabletFooter, TabletReader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Bound;
use std::sync::Arc;

/// A stream of `(encoded key, row)` pairs in cursor order (ascending or
/// descending by key, fixed at construction).
pub trait RowSource {
    /// Produces the next row, or `None` at the end.
    fn next_row(&mut self) -> Result<Option<(Vec<u8>, Row)>>;
}

/// Rows snapshotted out of an in-memory tablet.
pub struct MemSource {
    rows: std::vec::IntoIter<(Vec<u8>, Row)>,
}

impl MemSource {
    /// Wraps an ascending snapshot; `descending` reverses it.
    pub fn new(mut rows: Vec<(Vec<u8>, Row)>, descending: bool) -> Self {
        if descending {
            rows.reverse();
        }
        MemSource {
            rows: rows.into_iter(),
        }
    }
}

impl RowSource for MemSource {
    fn next_row(&mut self) -> Result<Option<(Vec<u8>, Row)>> {
        Ok(self.rows.next())
    }
}

/// A cursor over one on-disk tablet, bounded by a key range.
///
/// Rows are decoded under the tablet's own schema and translated to
/// `newest` (schema evolutions never rewrite tablets, §3.5).
pub struct DiskCursor {
    reader: Arc<TabletReader>,
    newest: SchemaRef,
    range: KeyRange,
    descending: bool,
    /// (block index, row index) of the next row to return; `None` before
    /// initialization or after exhaustion.
    pos: Option<(usize, usize)>,
    block: Option<Arc<Block>>,
    started: bool,
    /// When nonzero, forward scans fetch runs of consecutive blocks up to
    /// this many compressed bytes per read (§3.4.1's ~1 MB buffers; the
    /// rollup fold reads whole tablets this way, and merges do the same
    /// a block at a time in `table::runmerge`); prefetched blocks queue
    /// here. Run reads bypass the block cache — they stream each block
    /// exactly once, and admitting them would evict the point-read
    /// working set.
    read_run_bytes: usize,
    prefetched: std::collections::VecDeque<(usize, Arc<Block>)>,
    /// The tablet footer, pinned for this cursor's lifetime on first use.
    /// Cursors are per-query, so the pin is short-lived — it keeps the
    /// per-row emit path off the shared cache's locks and immune to a
    /// concurrent footer eviction mid-scan.
    footer: Option<Arc<TabletFooter>>,
}

impl DiskCursor {
    /// Creates a cursor; no I/O happens until the first `next_row`.
    pub fn new(
        reader: Arc<TabletReader>,
        newest: SchemaRef,
        range: KeyRange,
        descending: bool,
    ) -> Self {
        DiskCursor {
            reader,
            newest,
            range,
            descending,
            pos: None,
            block: None,
            started: false,
            read_run_bytes: 0,
            prefetched: std::collections::VecDeque::new(),
            footer: None,
        }
    }

    /// The tablet footer, loaded once and pinned for the cursor's
    /// lifetime.
    fn footer(&mut self) -> Result<Arc<TabletFooter>> {
        if self.footer.is_none() {
            self.footer = Some(self.reader.footer()?);
        }
        Ok(self.footer.clone().expect("just set"))
    }

    /// Enables run-buffered forward reads of up to `bytes` compressed
    /// bytes per disk access (ascending cursors only).
    pub fn with_read_run(mut self, bytes: usize) -> Self {
        self.read_run_bytes = bytes;
        self
    }

    fn load_block(&mut self, bi: usize) -> Result<()> {
        if self.read_run_bytes > 0 && !self.descending {
            // Serve from the prefetch queue, refilling with a long run.
            while let Some((qi, _)) = self.prefetched.front() {
                if *qi < bi {
                    self.prefetched.pop_front();
                } else {
                    break;
                }
            }
            match self.prefetched.front() {
                Some((qi, _)) if *qi == bi => {
                    let (_, block) = self.prefetched.pop_front().expect("front exists");
                    self.block = Some(block);
                    return Ok(());
                }
                _ => {
                    let run = self.reader.read_block_run(bi, self.read_run_bytes)?;
                    self.prefetched.clear();
                    for (off, block) in run.into_iter().enumerate() {
                        self.prefetched.push_back((bi + off, Arc::new(block)));
                    }
                    let (_, block) = self.prefetched.pop_front().expect("run is non-empty");
                    self.block = Some(block);
                    return Ok(());
                }
            }
        }
        self.block = Some(self.reader.read_block(bi)?);
        Ok(())
    }

    fn init(&mut self) -> Result<()> {
        self.started = true;
        let nblocks = self.footer()?.blocks.len();
        if nblocks == 0 {
            return Ok(());
        }
        if !self.descending {
            // Seek to the first row ≥/> the lower bound.
            let (bi, ri) = match self.range.start.clone() {
                Bound::Unbounded => (0, 0),
                Bound::Included(k) => {
                    let bi = self.reader.seek_block(&k)?;
                    if bi >= nblocks {
                        return Ok(());
                    }
                    self.load_block(bi)?;
                    (bi, self.block.as_ref().unwrap().seek_ge(&k)?)
                }
                Bound::Excluded(k) => {
                    let bi = self.reader.seek_block(&k)?;
                    if bi >= nblocks {
                        return Ok(());
                    }
                    self.load_block(bi)?;
                    (bi, self.block.as_ref().unwrap().seek_gt(&k)?)
                }
            };
            if self.block.is_none() {
                self.load_block(bi)?;
            }
            // The in-block seek can land past the block's end; normalize.
            self.pos = Some((bi, ri));
            self.normalize_forward()?;
        } else {
            // Seek to the last row ≤/< the upper bound.
            let (bi, ri) = match self.range.end.clone() {
                Bound::Unbounded => {
                    let bi = nblocks - 1;
                    self.load_block(bi)?;
                    let len = self.block.as_ref().unwrap().len();
                    if len == 0 {
                        return Ok(());
                    }
                    (bi, len - 1)
                }
                Bound::Included(k) => {
                    let mut bi = self.reader.seek_block(&k)?.min(nblocks - 1);
                    self.load_block(bi)?;
                    let mut ri = self.block.as_ref().unwrap().seek_gt(&k)?;
                    while ri == 0 {
                        if bi == 0 {
                            return Ok(());
                        }
                        bi -= 1;
                        self.load_block(bi)?;
                        ri = self.block.as_ref().unwrap().len();
                    }
                    (bi, ri - 1)
                }
                Bound::Excluded(k) => {
                    let mut bi = self.reader.seek_block(&k)?.min(nblocks - 1);
                    self.load_block(bi)?;
                    let mut ri = self.block.as_ref().unwrap().seek_ge(&k)?;
                    while ri == 0 {
                        if bi == 0 {
                            return Ok(());
                        }
                        bi -= 1;
                        self.load_block(bi)?;
                        ri = self.block.as_ref().unwrap().len();
                    }
                    (bi, ri - 1)
                }
            };
            self.pos = Some((bi, ri));
        }
        Ok(())
    }

    /// Moves (bi, ri) forward past block ends; clears `pos` at EOF.
    fn normalize_forward(&mut self) -> Result<()> {
        let nblocks = self.footer()?.blocks.len();
        while let Some((bi, ri)) = self.pos {
            let len = self.block.as_ref().map(|b| b.len()).unwrap_or(0);
            if ri < len {
                return Ok(());
            }
            if bi + 1 >= nblocks {
                self.pos = None;
                return Ok(());
            }
            self.load_block(bi + 1)?;
            self.pos = Some((bi + 1, 0));
        }
        Ok(())
    }

    fn emit(&self, bi: usize, ri: usize) -> Result<(Vec<u8>, Row)> {
        let block = self.block.as_ref().expect("block loaded");
        debug_assert_eq!(self.pos, Some((bi, ri)));
        let footer = self.footer.as_ref().expect("init pinned the footer");
        let key = block.key(ri)?.to_vec();
        let row = block.row(ri)?;
        let row = if footer.schema.version() == self.newest.version() {
            row
        } else {
            Row::new(footer.schema.translate_row(&self.newest, row.values)?)
        };
        Ok((key, row))
    }
}

impl RowSource for DiskCursor {
    fn next_row(&mut self) -> Result<Option<(Vec<u8>, Row)>> {
        if !self.started {
            self.init()?;
        }
        let (bi, ri) = match self.pos {
            Some(p) => p,
            None => return Ok(None),
        };
        let (key, row) = self.emit(bi, ri)?;
        if !self.descending {
            // Check the upper bound.
            let in_range = match &self.range.end {
                Bound::Unbounded => true,
                Bound::Included(e) => key.as_slice() <= e.as_slice(),
                Bound::Excluded(e) => key.as_slice() < e.as_slice(),
            };
            if !in_range {
                self.pos = None;
                return Ok(None);
            }
            self.pos = Some((bi, ri + 1));
            self.normalize_forward()?;
        } else {
            let in_range = match &self.range.start {
                Bound::Unbounded => true,
                Bound::Included(s) => key.as_slice() >= s.as_slice(),
                Bound::Excluded(s) => key.as_slice() > s.as_slice(),
            };
            if !in_range {
                self.pos = None;
                return Ok(None);
            }
            if ri > 0 {
                self.pos = Some((bi, ri - 1));
            } else if bi > 0 {
                self.load_block(bi - 1)?;
                let len = self.block.as_ref().unwrap().len();
                if len == 0 {
                    self.pos = None;
                } else {
                    self.pos = Some((bi - 1, len - 1));
                }
            } else {
                self.pos = None;
            }
        }
        Ok(Some((key, row)))
    }
}

struct HeapEntry {
    key: Vec<u8>,
    row: Row,
    src: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.src == other.src
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.src.cmp(&other.src))
    }
}

/// Merge-sorts many [`RowSource`]s into one key-ordered stream.
pub struct MergeCursor {
    sources: Vec<Box<dyn RowSource + Send>>,
    // Ascending uses a min-heap (Reverse); descending a max-heap.
    min_heap: BinaryHeap<Reverse<HeapEntry>>,
    max_heap: BinaryHeap<HeapEntry>,
    descending: bool,
    primed: bool,
}

impl MergeCursor {
    /// Builds a merge over `sources`, all iterating in the same direction.
    pub fn new(sources: Vec<Box<dyn RowSource + Send>>, descending: bool) -> Self {
        MergeCursor {
            sources,
            min_heap: BinaryHeap::new(),
            max_heap: BinaryHeap::new(),
            descending,
            primed: false,
        }
    }

    fn prime(&mut self) -> Result<()> {
        self.primed = true;
        for i in 0..self.sources.len() {
            self.advance_source(i)?;
        }
        Ok(())
    }

    fn advance_source(&mut self, i: usize) -> Result<()> {
        if let Some((key, row)) = self.sources[i].next_row()? {
            let e = HeapEntry { key, row, src: i };
            if self.descending {
                self.max_heap.push(e);
            } else {
                self.min_heap.push(Reverse(e));
            }
        }
        Ok(())
    }

    /// Produces the next row in global key order.
    pub fn next_row(&mut self) -> Result<Option<(Vec<u8>, Row)>> {
        if !self.primed {
            self.prime()?;
        }
        let entry = if self.descending {
            self.max_heap.pop()
        } else {
            self.min_heap.pop().map(|r| r.0)
        };
        match entry {
            None => Ok(None),
            Some(e) => {
                self.advance_source(e.src)?;
                Ok(Some((e.key, e.row)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::tablet::TabletWriter;
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{SimVfs, Vfs};

    fn schema() -> SchemaRef {
        Arc::new(
            Schema::new(
                vec![
                    ColumnDef::new("n", ColumnType::I64),
                    ColumnDef::new("ts", ColumnType::Timestamp),
                ],
                &["n", "ts"],
            )
            .unwrap(),
        )
    }

    fn key_of(s: &Schema, n: i64, ts: i64) -> Vec<u8> {
        Row::new(vec![Value::I64(n), Value::Timestamp(ts)])
            .encode_key(s)
            .unwrap()
    }

    /// Writes a tablet holding rows (n, ts=n) for n in `ns`.
    fn write(vfs: &SimVfs, path: &str, s: &Schema, ns: &[i64]) -> Arc<TabletReader> {
        let mut w = TabletWriter::new(vfs.create(path, 0).unwrap(), s.clone(), 256, false);
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        for n in sorted {
            let row = Row::new(vec![Value::I64(n), Value::Timestamp(n)]);
            let key = row.encode_key(s).unwrap();
            w.add_row(&key, &row).unwrap();
        }
        w.finish().unwrap();
        Arc::new(TabletReader::new(
            Arc::new(vfs.clone()) as Arc<dyn Vfs>,
            path.to_string(),
        ))
    }

    fn drain(mut c: impl FnMut() -> Result<Option<(Vec<u8>, Row)>>) -> Vec<i64> {
        let mut out = Vec::new();
        while let Some((_, row)) = c().unwrap() {
            match &row.values[0] {
                Value::I64(n) => out.push(*n),
                _ => panic!(),
            }
        }
        out
    }

    #[test]
    fn disk_cursor_full_scan_ascending() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..100).collect::<Vec<_>>());
        let mut c = DiskCursor::new(r, s.clone(), KeyRange::all(), false);
        assert_eq!(drain(|| c.next_row()), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn disk_cursor_full_scan_descending() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..100).collect::<Vec<_>>());
        let mut c = DiskCursor::new(r, s.clone(), KeyRange::all(), true);
        assert_eq!(drain(|| c.next_row()), (0..100).rev().collect::<Vec<_>>());
    }

    #[test]
    fn disk_cursor_bounded_range() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..100).collect::<Vec<_>>());
        let range = KeyRange {
            start: Bound::Included(key_of(&s, 10, 10)),
            end: Bound::Excluded(key_of(&s, 20, 20)),
        };
        let mut c = DiskCursor::new(r.clone(), s.clone(), range.clone(), false);
        assert_eq!(drain(|| c.next_row()), (10..20).collect::<Vec<_>>());
        let mut c = DiskCursor::new(r, s.clone(), range, true);
        assert_eq!(drain(|| c.next_row()), (10..20).rev().collect::<Vec<_>>());
    }

    #[test]
    fn disk_cursor_exclusive_bounds() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..50).collect::<Vec<_>>());
        let range = KeyRange {
            start: Bound::Excluded(key_of(&s, 10, 10)),
            end: Bound::Included(key_of(&s, 20, 20)),
        };
        let mut c = DiskCursor::new(r.clone(), s.clone(), range.clone(), false);
        assert_eq!(drain(|| c.next_row()), (11..=20).collect::<Vec<_>>());
        let mut c = DiskCursor::new(r, s.clone(), range, true);
        assert_eq!(drain(|| c.next_row()), (11..=20).rev().collect::<Vec<_>>());
    }

    #[test]
    fn disk_cursor_empty_range() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &[1, 2, 3]);
        let range = KeyRange {
            start: Bound::Included(key_of(&s, 100, 100)),
            end: Bound::Unbounded,
        };
        let mut c = DiskCursor::new(r.clone(), s.clone(), range, false);
        assert!(c.next_row().unwrap().is_none());
        let range = KeyRange {
            start: Bound::Unbounded,
            end: Bound::Excluded(key_of(&s, 0, 0)),
        };
        let mut c = DiskCursor::new(r, s.clone(), range, true);
        assert!(c.next_row().unwrap().is_none());
    }

    #[test]
    fn merge_cursor_interleaves() {
        let vfs = SimVfs::instant();
        let s = schema();
        let evens: Vec<i64> = (0..50).map(|i| i * 2).collect();
        let odds: Vec<i64> = (0..50).map(|i| i * 2 + 1).collect();
        let r1 = write(&vfs, "a", &s, &evens);
        let r2 = write(&vfs, "b", &s, &odds);
        let srcs: Vec<Box<dyn RowSource + Send>> = vec![
            Box::new(DiskCursor::new(r1, s.clone(), KeyRange::all(), false)),
            Box::new(DiskCursor::new(r2, s.clone(), KeyRange::all(), false)),
        ];
        let mut m = MergeCursor::new(srcs, false);
        assert_eq!(drain(|| m.next_row()), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn merge_cursor_descending_with_mem_source() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r1 = write(&vfs, "a", &s, &[1, 3, 5]);
        let mem_rows: Vec<(Vec<u8>, Row)> = [2i64, 4]
            .iter()
            .map(|&n| {
                let row = Row::new(vec![Value::I64(n), Value::Timestamp(n)]);
                (row.encode_key(&s).unwrap(), row)
            })
            .collect();
        let srcs: Vec<Box<dyn RowSource + Send>> = vec![
            Box::new(DiskCursor::new(r1, s.clone(), KeyRange::all(), true)),
            Box::new(MemSource::new(mem_rows, true)),
        ];
        let mut m = MergeCursor::new(srcs, true);
        assert_eq!(drain(|| m.next_row()), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn merge_of_empty_sources() {
        let srcs: Vec<Box<dyn RowSource + Send>> = vec![
            Box::new(MemSource::new(Vec::new(), false)),
            Box::new(MemSource::new(Vec::new(), false)),
        ];
        let mut m = MergeCursor::new(srcs, false);
        assert!(m.next_row().unwrap().is_none());
    }

    #[test]
    fn schema_translation_on_read() {
        let vfs = SimVfs::instant();
        let s1 = schema();
        let r = write(&vfs, "t", &s1, &[1, 2]);
        let s2 = Arc::new(
            s1.add_column(ColumnDef::with_default(
                "extra",
                ColumnType::I64,
                Value::I64(-7),
            ))
            .unwrap(),
        );
        let mut c = DiskCursor::new(r, s2.clone(), KeyRange::all(), false);
        let (_, row) = c.next_row().unwrap().unwrap();
        assert_eq!(row.values.len(), 3);
        assert_eq!(row.values[2], Value::I64(-7));
    }
}
