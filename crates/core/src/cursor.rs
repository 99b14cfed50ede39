//! The merge-sort of tablet streams, over blocks instead of rows: the one
//! the paper answers a query with (§3.2) and merges tablets with
//! (§3.4.1).
//!
//! To execute a query, LittleTable selects every tablet whose timespan
//! overlaps the query's timestamp bounds, seeks each to the query's key
//! bound, and merge-sorts the streams into a single result ordered by
//! primary key. The seek is the index's one search,
//! [`TabletFooter::blocks_in`]: the span of blocks that can hold a key of
//! the range, which an ascending scan reads from its start and a
//! descending one from its end, each block's rows in the range found by
//! in-block binary search. Primary keys are unique table-wide, so the
//! merge never sees ties.
//!
//! Every source is a sequence of decoded [`Block`]s in key order: an
//! on-disk tablet read block by block through the cache, or a memtablet
//! snapshot built once into a single block. A source that lags the
//! table's schema has each block translated to the newest one as it is
//! loaded ([`Block::translated`]), so downstream of here there is one
//! schema. `RunCursor` merges them: pick the source whose head row
//! comes first, gallop — encoding keys for the probed rows only — to
//! where its block would pass the head that comes second, and yield that
//! row range as a [`RowRun`]. No key is kept per row, no
//! [`crate::row::Row`] is built and no heap is pushed; a descending query
//! is the same walk from the other end.
//!
//! The cursor has three consumers. A query cuts the runs at its time
//! bounds and limits ([`crate::table::QueryCursor`]); the rollup fold
//! aggregates them; a merge or a bulk delete hands them to
//! [`crate::tablet::TabletWriter::add_run`]. The last two read whole
//! tablets once, so their sources read `READ_RUN_BYTES` at a time
//! (`Source::with_read_run`): a block the block cache holds is taken from
//! it, observed only, and the first one it lacks starts a run read from
//! disk that neither consults nor fills the cache. Nothing else about the
//! merge differs.

use crate::block::Block;
use crate::error::Result;
use crate::keyenc::KeyRange;
use crate::schema::SchemaRef;
use crate::tablet::{TabletFooter, TabletReader};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Compressed bytes a whole-tablet scan (a merge, a bulk delete, a rollup
/// fold) fetches per disk access. §3.4.1: to spend at most half its time
/// seeking between input tablets, a merge must read about 1 MB at a time.
pub(crate) const READ_RUN_BYTES: usize = 1 << 20;

/// Compressed bytes a block miss reads at most, the missed block and the
/// ones after it ([`TabletReader::read_block`]). On the paper's disk any
/// read at a new position transfers the 128 kB OS readahead window, so a
/// read this long costs what a one-block read does.
pub(crate) const READAHEAD_BYTES: usize = 128 << 10;

/// Consecutive rows of one decoded block, all part of a result and
/// adjacent in it. `rows` is always an ascending range of row indices; a
/// descending query's run is read from its end, which is what
/// [`RowRun::indices`] does.
#[derive(Debug, Clone)]
pub struct RowRun {
    /// The block the rows sit in, under the table's newest schema.
    pub block: Arc<Block>,
    /// The rows' indices within `block`.
    pub rows: Range<usize>,
    /// Whether the result runs from `rows.end - 1` down to `rows.start`.
    pub descending: bool,
}

impl RowRun {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the run holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows' indices within the block, in result order.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        let rows = self.rows.clone();
        (0..rows.len()).map(move |pos| {
            if self.descending {
                rows.end - 1 - pos
            } else {
                rows.start + pos
            }
        })
    }

    /// Drops the run's first `n` rows in result order.
    pub(crate) fn advance(&mut self, n: usize) {
        take_front(&mut self.rows, n, self.descending);
    }

    /// Splits off the run's first `n` rows in result order, leaving the
    /// rest in `self`.
    pub(crate) fn split_front(&mut self, n: usize) -> RowRun {
        RowRun {
            block: self.block.clone(),
            rows: take_front(&mut self.rows, n, self.descending),
            descending: self.descending,
        }
    }
}

/// The row a scan of `rows` comes to first.
fn head_row(rows: &Range<usize>, descending: bool) -> usize {
    if descending {
        rows.end - 1
    } else {
        rows.start
    }
}

/// Removes from `rows` the `n` a scan comes to first, and returns them.
fn take_front(rows: &mut Range<usize>, n: usize, descending: bool) -> Range<usize> {
    if descending {
        let cut = rows.end - n;
        cut..std::mem::replace(&mut rows.end, cut)
    } else {
        let cut = rows.start + n;
        std::mem::replace(&mut rows.start, cut)..cut
    }
}

/// How many of `block`'s rows, counted from row `head` in scan order
/// (downwards when `descending`) and `limit` of them at most, come before
/// `bound` in that order — or up to it, when `through` is set. The head
/// row itself is taken to: the caller chose it as the first of all heads.
/// Found by doubling steps from the head, then bisecting the last step;
/// only the probed rows' keys are encoded, into `scratch`.
fn run_len(
    block: &Block,
    head: usize,
    limit: usize,
    descending: bool,
    bound: &[u8],
    through: bool,
    scratch: &mut Vec<u8>,
) -> Result<usize> {
    let mut before = |d: usize| -> Result<bool> {
        block.key_into(if descending { head - d } else { head + d }, scratch)?;
        let ord = scratch.as_slice().cmp(bound);
        let ord = if descending { ord.reverse() } else { ord };
        Ok(ord == Ordering::Less || (through && ord == Ordering::Equal))
    };
    // `lo` is inside the run; `hi` is the limit or a row known to be
    // outside.
    let mut lo = 0;
    let mut step = 1;
    let mut hi = loop {
        let probe = lo + step;
        if probe >= limit {
            break limit;
        }
        if !before(probe)? {
            break probe;
        }
        lo = probe;
        step *= 2;
    };
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(hi)
}

/// Positions, among `heads`, of the head that comes first in scan order
/// and of the one that comes next; of equal heads (which unique primary
/// keys rule out) the earlier position goes first.
fn first_two<'a>(
    heads: impl Iterator<Item = &'a [u8]>,
    descending: bool,
) -> (Option<usize>, Option<usize>) {
    let precedes = |a: &[u8], b: &[u8]| if descending { a > b } else { a < b };
    let mut first: Option<(usize, &[u8])> = None;
    let mut second: Option<(usize, &[u8])> = None;
    for (i, head) in heads.enumerate() {
        if first.is_none_or(|(_, f)| precedes(head, f)) {
            second = first;
            first = Some((i, head));
        } else if second.is_none_or(|(_, s)| precedes(head, s)) {
            second = Some((i, head));
        }
    }
    (first.map(|(i, _)| i), second.map(|(i, _)| i))
}

/// The tablet behind a [`Source`]: where its next block comes from.
struct TabletSide {
    reader: Arc<TabletReader>,
    /// The schema blocks are handed on under.
    newest: SchemaRef,
    range: KeyRange,
    /// The tablet footer, pinned on first use for the cursor's (short)
    /// lifetime: block loads stay off the shared cache's footer lock and
    /// are immune to a footer eviction mid-scan.
    footer: Option<Arc<TabletFooter>>,
    /// The blocks of the key range's span ([`TabletFooter::blocks_in`])
    /// not yet read: an ascending scan reads from its start, a descending
    /// one from its end. Empty until the footer is pinned.
    span: Range<usize>,
    /// When nonzero, ascending scans take a block the cache holds from
    /// there, and otherwise fetch a run of consecutive blocks up to this
    /// many compressed bytes in one read, never past the span; prefetched
    /// blocks queue here. The cache is only observed: a run read streams
    /// each block exactly once, and admitting or promoting its blocks
    /// would evict the point-read working set.
    read_run_bytes: usize,
    prefetched: VecDeque<(usize, Arc<Block>)>,
}

impl TabletSide {
    /// Pins the footer and finds the span of blocks the scan reads.
    fn open(&mut self) -> Result<Arc<TabletFooter>> {
        if let Some(f) = &self.footer {
            return Ok(f.clone());
        }
        let footer = self.reader.footer()?;
        self.span = footer.blocks_in(&self.range);
        self.footer = Some(footer.clone());
        Ok(footer)
    }

    fn load(&mut self, footer: &TabletFooter, bi: usize, descending: bool) -> Result<Arc<Block>> {
        if self.read_run_bytes == 0 || descending {
            return self.reader.read_block(bi);
        }
        // Serve from the prefetch queue, else from the cache, else refill
        // the queue with a long run.
        while self.prefetched.front().is_some_and(|(qi, _)| *qi < bi) {
            self.prefetched.pop_front();
        }
        if self.prefetched.front().is_none_or(|(qi, _)| *qi != bi) {
            if let Some(block) = self.reader.resident_block(footer, bi)? {
                return Ok(block);
            }
            let run = self
                .reader
                .read_block_run(bi..self.span.end, self.read_run_bytes)?;
            self.prefetched = run
                .into_iter()
                .enumerate()
                .map(|(off, block)| (bi + off, Arc::new(block)))
                .collect();
        }
        let (_, block) = self.prefetched.pop_front().expect("a run is never empty");
        Ok(block)
    }

    /// The next block holding rows inside the key range, with those rows;
    /// `None` at the end of the scan.
    fn next_block(&mut self, descending: bool) -> Result<Option<(Arc<Block>, Range<usize>)>> {
        let footer = self.open()?;
        while !self.span.is_empty() {
            let bi = head_row(&self.span, descending);
            // Only a block that was read is left behind: after a failed
            // read the same call reads it again.
            let block = self.load(&footer, bi, descending)?;
            take_front(&mut self.span, 1, descending);
            let rows = if footer.block_inside(bi, &self.range) {
                0..block.len()
            } else {
                block.rows_in_range(&self.range)?
            };
            if rows.is_empty() {
                continue;
            }
            let block = if footer.schema.version() == self.newest.version() {
                block
            } else {
                Arc::new(block.translated(&footer.schema, &self.newest)?)
            };
            return Ok(Some((block, rows)));
        }
        Ok(None)
    }
}

/// One input of a [`RunCursor`]: blocks in key order, with a head row
/// that moves through them.
pub(crate) struct Source {
    /// Where further blocks come from; `None` for a memtablet snapshot,
    /// which is the one block it starts with.
    tablet: Option<TabletSide>,
    /// The block holding the head row; `None` before the first block is
    /// loaded and after the last is used up.
    block: Option<Arc<Block>>,
    /// The rows of `block` not yet handed out.
    rows: Range<usize>,
    /// The head row's encoded key.
    head: Vec<u8>,
}

impl Source {
    /// The rows of `reader`'s tablet inside `range`, handed on under the
    /// schema `newest`. No I/O happens until the cursor is first advanced.
    pub(crate) fn tablet(reader: Arc<TabletReader>, newest: SchemaRef, range: KeyRange) -> Source {
        Source {
            tablet: Some(TabletSide {
                reader,
                newest,
                range,
                footer: None,
                span: 0..0,
                read_run_bytes: 0,
                prefetched: VecDeque::new(),
            }),
            block: None,
            rows: 0..0,
            head: Vec::new(),
        }
    }

    /// Every row of `block`: a memtablet snapshot.
    pub(crate) fn block(block: Block) -> Source {
        Source {
            tablet: None,
            rows: 0..block.len(),
            block: Some(Arc::new(block)),
            head: Vec::new(),
        }
    }

    /// Enables run-buffered reads of up to `bytes` compressed bytes per
    /// disk access (tablet sources scanned ascending only).
    pub(crate) fn with_read_run(mut self, bytes: usize) -> Source {
        if let Some(t) = &mut self.tablet {
            t.read_run_bytes = bytes;
        }
        self
    }

    /// Re-establishes the head after rows were handed out (or before any
    /// were): moves on to the next block when this one is used up, and
    /// encodes the head row's key.
    fn settle(&mut self, descending: bool) -> Result<()> {
        if self.rows.is_empty() {
            self.block = None;
            if let Some((block, rows)) = match &mut self.tablet {
                Some(t) => t.next_block(descending)?,
                None => None,
            } {
                self.block = Some(block);
                self.rows = rows;
            }
        }
        match &self.block {
            Some(block) => block.key_into(head_row(&self.rows, descending), &mut self.head),
            None => Ok(()),
        }
    }
}

/// Merge-sorts [`Source`]s into one stream of [`RowRun`]s in key order,
/// ascending or descending.
pub(crate) struct RunCursor {
    sources: Vec<Source>,
    descending: bool,
    /// Sources whose head is out of date: all of them before the first
    /// run, then the one the last run came from. Settled at the start of
    /// the next call, so a cursor that is not asked for another run never
    /// reads the block after its last — and one whose read failed has
    /// the same source to settle when it is asked again.
    stale: Range<usize>,
    scratch: Vec<u8>,
}

impl RunCursor {
    /// A merge over `sources`, scanned in the one direction.
    pub(crate) fn new(sources: Vec<Source>, descending: bool) -> RunCursor {
        RunCursor {
            stale: 0..sources.len(),
            sources,
            descending,
            scratch: Vec::new(),
        }
    }

    /// The next stretch of the result: the rows of the first-placed
    /// source's block that come before every other source's head.
    pub(crate) fn next_run(&mut self) -> Result<Option<RowRun>> {
        while !self.stale.is_empty() {
            self.sources[self.stale.start].settle(self.descending)?;
            self.stale.start += 1;
        }
        self.sources.retain(|s| s.block.is_some());
        let heads = self.sources.iter().map(|s| s.head.as_slice());
        let (Some(first), second) = first_two(heads, self.descending) else {
            return Ok(None);
        };
        let src = &self.sources[first];
        let block = src.block.clone().expect("exhausted sources are dropped");
        let n = match second {
            None => src.rows.len(),
            Some(second) => run_len(
                &block,
                head_row(&src.rows, self.descending),
                src.rows.len(),
                self.descending,
                &self.sources[second].head,
                first < second,
                &mut self.scratch,
            )?,
        };
        let run = RowRun {
            block,
            rows: take_front(&mut self.sources[first].rows, n, self.descending),
            descending: self.descending,
        };
        self.stale = first..first + 1;
        Ok(Some(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockEncoder;
    use crate::row::Row;
    use crate::schema::{ColumnDef, Schema};
    use crate::tablet::TabletWriter;
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{SimVfs, Vfs};
    use std::ops::Bound;

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

    fn key_of(s: &Schema, n: i64) -> Vec<u8> {
        Row::new(vec![Value::I64(n), Value::Timestamp(n)])
            .encode_key(s)
            .unwrap()
    }

    /// Writes a tablet holding rows (n, ts=n) for n in `ns`, a few rows
    /// to a block.
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

    fn mem(s: &Schema, ns: &[i64]) -> Source {
        let mut b = BlockEncoder::new(s);
        for &n in ns {
            b.add(&Row::new(vec![Value::I64(n), Value::Timestamp(n)]))
                .unwrap();
        }
        Source::block(b.into_block(s))
    }

    /// Drains a cursor to the first column of every row, and the number
    /// of runs they came in.
    fn drain(sources: Vec<Source>, descending: bool) -> (Vec<i64>, usize) {
        let mut cur = RunCursor::new(sources, descending);
        let (mut out, mut runs) = (Vec::new(), 0);
        while let Some(run) = cur.next_run().unwrap() {
            assert!(!run.is_empty() && run.descending == descending);
            runs += 1;
            out.extend(run.indices().map(|i| i64_at(&run, i)));
        }
        (out, runs)
    }

    /// The first column of row `i` of a run's block.
    fn i64_at(run: &RowRun, i: usize) -> i64 {
        match run.block.column(0).value(i) {
            Value::I64(n) => n,
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn one_tablet_scans_whole_blocks_both_ways() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..100).collect::<Vec<_>>());
        let blocks = r.footer().unwrap().blocks.len();
        assert!(blocks > 3);
        let all = || vec![Source::tablet(r.clone(), s.clone(), KeyRange::all())];
        assert_eq!(drain(all(), false), ((0..100).collect(), blocks));
        assert_eq!(drain(all(), true), ((0..100).rev().collect(), blocks));
    }

    #[test]
    fn key_bounds_inclusive_and_exclusive() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..100).collect::<Vec<_>>());
        let last_of_first_block = r.footer().unwrap().blocks[0].last_key.clone();
        let scan = |range: KeyRange, descending| {
            drain(
                vec![Source::tablet(r.clone(), s.clone(), range)],
                descending,
            )
            .0
        };
        let range = KeyRange {
            start: Bound::Included(key_of(&s, 10)),
            end: Bound::Excluded(key_of(&s, 20)),
        };
        assert_eq!(scan(range.clone(), false), (10..20).collect::<Vec<_>>());
        assert_eq!(scan(range, true), (10..20).rev().collect::<Vec<_>>());
        let range = KeyRange {
            start: Bound::Excluded(key_of(&s, 10)),
            end: Bound::Included(key_of(&s, 20)),
        };
        assert_eq!(scan(range.clone(), false), (11..=20).collect::<Vec<_>>());
        assert_eq!(scan(range, true), (11..=20).rev().collect::<Vec<_>>());
        // An exclusive bound on a block's last key: the scan starts (or,
        // descending, ends) with the block after it.
        let n = keyenc_first(&last_of_first_block);
        let range = KeyRange {
            start: Bound::Excluded(last_of_first_block),
            end: Bound::Unbounded,
        };
        assert_eq!(scan(range.clone(), false), (n + 1..100).collect::<Vec<_>>());
        assert_eq!(scan(range, true), (n + 1..100).rev().collect::<Vec<_>>());
        // Ranges that miss the tablet on either side.
        let above = KeyRange {
            start: Bound::Included(key_of(&s, 100)),
            end: Bound::Unbounded,
        };
        let below = KeyRange {
            start: Bound::Unbounded,
            end: Bound::Excluded(key_of(&s, 0)),
        };
        for range in [above, below] {
            assert!(scan(range.clone(), false).is_empty());
            assert!(scan(range, true).is_empty());
        }
    }

    /// The first key component of an encoded `(n, ts)` key.
    fn keyenc_first(key: &[u8]) -> i64 {
        match crate::keyenc::decode_key(key, &[ColumnType::I64, ColumnType::Timestamp])
            .unwrap()
            .remove(0)
        {
            Value::I64(n) => n,
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn interleaved_sources_alternate_row_by_row() {
        let vfs = SimVfs::instant();
        let s = schema();
        let evens: Vec<i64> = (0..50).map(|i| i * 2).collect();
        let odds: Vec<i64> = (0..50).map(|i| i * 2 + 1).collect();
        let sources = || {
            vec![
                Source::tablet(write(&vfs, "a", &s, &evens), s.clone(), KeyRange::all()),
                Source::tablet(write(&vfs, "b", &s, &odds), s.clone(), KeyRange::all()),
            ]
        };
        assert_eq!(drain(sources(), false), ((0..100).collect(), 100));
        assert_eq!(drain(sources(), true), ((0..100).rev().collect(), 100));
    }

    #[test]
    fn disjoint_sources_and_a_memtablet_go_over_in_long_runs() {
        let vfs = SimVfs::instant();
        let s = schema();
        let lo: Vec<i64> = (0..40).collect();
        let hi: Vec<i64> = (60..100).collect();
        let sources = || {
            vec![
                Source::tablet(write(&vfs, "hi", &s, &hi), s.clone(), KeyRange::all()),
                mem(&s, &(40..60).collect::<Vec<_>>()),
                Source::tablet(write(&vfs, "lo", &s, &lo), s.clone(), KeyRange::all()),
            ]
        };
        let (rows, runs) = drain(sources(), false);
        assert_eq!(rows, (0..100).collect::<Vec<_>>());
        assert!(runs < 20, "{runs} runs");
        let (rows, _) = drain(sources(), true);
        assert_eq!(rows, (0..100).rev().collect::<Vec<_>>());
    }

    #[test]
    fn empty_sources_yield_nothing() {
        let s = schema();
        assert!(drain(vec![mem(&s, &[]), mem(&s, &[])], false).0.is_empty());
        assert!(drain(Vec::new(), true).0.is_empty());
        let vfs = SimVfs::instant();
        let r = write(&vfs, "e", &s, &[]);
        assert!(
            drain(vec![Source::tablet(r, s.clone(), KeyRange::all())], true)
                .0
                .is_empty()
        );
    }

    #[test]
    fn a_lagging_tablet_is_translated_block_by_block() {
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
        let mut cur = RunCursor::new(vec![Source::tablet(r, s2, KeyRange::all())], false);
        let run = cur.next_run().unwrap().unwrap();
        assert_eq!(run.block.num_columns(), 3);
        assert_eq!(
            run.block.row(1).unwrap().values,
            vec![Value::I64(2), Value::Timestamp(2), Value::I64(-7)]
        );
    }

    #[test]
    fn read_runs_prefetch_without_changing_the_result() {
        use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind};
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..200).collect::<Vec<_>>());
        r.footer().unwrap();
        let bound = |n: i64, inclusive: bool| {
            if inclusive {
                Bound::Included(key_of(&s, n))
            } else {
                Bound::Excluded(key_of(&s, n))
            }
        };
        let ranges = [
            (KeyRange::all(), 0..200),
            (
                KeyRange {
                    start: bound(37, true),
                    end: Bound::Unbounded,
                },
                37..200,
            ),
            (
                KeyRange {
                    start: bound(37, false),
                    end: bound(151, false),
                },
                38..151,
            ),
            (
                KeyRange {
                    start: Bound::Unbounded,
                    end: bound(3, true),
                },
                0..4,
            ),
        ];
        for (range, want) in ranges {
            let want: Vec<i64> = want.collect();
            // A few blocks to a read, so the queue refills mid-scan.
            let buffered =
                || vec![Source::tablet(r.clone(), s.clone(), range.clone()).with_read_run(600)];
            assert_eq!(drain(buffered(), false).0, want);
            // Every read failed in turn: the cursor reports the error and,
            // asked again, makes the read again.
            for nth in 1.. {
                let rule = FaultRule::new(FaultKind::Eio)
                    .on_ops(&[OpKind::Read])
                    .nth_match(nth);
                vfs.set_fault_plan(FaultPlan::new().rule(rule));
                let mut cur = RunCursor::new(buffered(), false);
                let (mut got, mut errors) = (Vec::new(), 0);
                loop {
                    match cur.next_run() {
                        Ok(Some(run)) => got.extend(run.indices().map(|i| i64_at(&run, i))),
                        Ok(None) => break,
                        Err(_) => {
                            errors += 1;
                            vfs.clear_fault_plan();
                        }
                    }
                }
                vfs.clear_fault_plan();
                assert_eq!(got, want, "read {nth} of {range:?}");
                if errors == 0 {
                    assert!(nth > 1, "{range:?} read nothing");
                    break;
                }
            }
        }
    }

    #[test]
    fn the_block_after_the_last_run_is_not_read() {
        let vfs = SimVfs::instant();
        let s = schema();
        let r = write(&vfs, "t", &s, &(0..100).collect::<Vec<_>>());
        r.footer().unwrap();
        let before = vfs.op_count();
        let mut cur = RunCursor::new(vec![Source::tablet(r, s.clone(), KeyRange::all())], false);
        cur.next_run().unwrap().unwrap();
        let one_block = vfs.op_count() - before;
        cur.next_run().unwrap().unwrap();
        assert_eq!(vfs.op_count() - before, 2 * one_block);
    }
}
