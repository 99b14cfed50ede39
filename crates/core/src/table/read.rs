//! The read path: the one read [`View`] that `query`, `latest` and
//! `pushdown_scan` start from, and the streaming [`QueryCursor`].
//!
//! A read keeps the tablets whose timespans overlap its window (§3.2)
//! and drops expired rows (§3.3); [`Table::view`] decides both, once,
//! from one snapshot load (an `Arc` clone, never behind the state mutex
//! or any I/O) and an insert-sequence cutoff. Disk tablets are immutable
//! files behind `Arc`'d readers; in-memory tablets are snapshotted under
//! their own read locks, each into one decoded block, with the cutoff
//! filtering out rows inserted after the view was taken. Expensive work
//! (translating a block of an older schema version) happens outside
//! every lock, so readers cannot stall the writer or maintenance.
//!
//! A query's result is a stream of [`RowRun`]s — row ranges of decoded
//! blocks, merged in key order by [`RunCursor`] and cut here at the
//! view's window and the row limits. A consumer that can work from
//! column slices ([`QueryCursor::next_run`]: the server's response
//! encoder) never has a [`Row`] built for it; [`QueryCursor::next_row`]
//! builds one per call for those that want rows, and is where
//! `rows_materialized` counts.

use super::state::{DiskHandle, SharedMemTablet, TabletSnapshot};
use super::{ttl_horizon, Table};
use crate::block::Block;
use crate::cursor::{RowRun, RunCursor, Source};
use crate::error::{Error, Result};
use crate::keyenc::{encode_prefix, KeyRange};
use crate::query::Query;
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::stats::TableStats;
use crate::util::hash_bytes;
use crate::value::Value;
use littletable_vfs::Micros;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What one read sees: one snapshot and its insert-sequence cutoff, the
/// schema, the key range, and the closed window `[lo, hi]`, `lo` raised
/// to the TTL horizon.
pub(super) struct View {
    snap: Arc<TabletSnapshot>,
    cutoff_seq: u64,
    pub(super) schema: SchemaRef,
    pub(super) range: KeyRange,
    pub(super) lo: Micros,
    pub(super) hi: Micros,
}

impl View {
    /// True when a tablet spanning `[lo, hi]` can hold a row inside both
    /// the key range and the window.
    fn overlaps(&self, lo: Micros, hi: Micros) -> bool {
        !self.range.is_certainly_empty() && self.lo <= self.hi && hi >= self.lo && lo <= self.hi
    }

    /// The on-disk tablets whose timespans overlap the window, in
    /// snapshot order.
    pub(super) fn disk(&self) -> impl Iterator<Item = &DiskHandle> {
        let disk = self.snap.disk.iter();
        disk.filter(|h| self.overlaps(h.meta.min_ts, h.meta.max_ts))
    }

    /// A disk tablet's rows inside the key range, under the view's schema.
    pub(super) fn source(&self, h: &DiskHandle) -> Source {
        Source::tablet(h.reader.clone(), self.schema.clone(), self.range.clone())
    }

    /// Each memtablet whose timespan overlaps the window: the span, and
    /// its rows inside the key range stamped below the cutoff as one
    /// block under the view's schema.
    pub(super) fn mem(&self) -> impl Iterator<Item = Result<((Micros, Micros), Block)>> + '_ {
        let mem = self.snap.mem.iter();
        mem.filter_map(|t| self.mem_block(t).transpose())
    }

    /// Snapshots one memtablet for [`View::mem`]. The per-tablet read
    /// lock covers only the copy into column slices; translating a block
    /// written under an older schema version runs after it is released.
    fn mem_block(&self, t: &SharedMemTablet) -> Result<Option<((Micros, Micros), Block)>> {
        let (span, mut block, from) = {
            let mem = t.read();
            let span = match (mem.min_ts(), mem.max_ts()) {
                (Some(lo), Some(hi)) if self.overlaps(lo, hi) => (lo, hi),
                _ => return Ok(None),
            };
            let block = mem.snapshot_block(&self.range, self.cutoff_seq)?;
            (span, block, mem.schema().clone())
        };
        if from.version() != self.schema.version() {
            block = block.translated(&from, &self.schema)?;
        }
        Ok(Some((span, block)))
    }
}

impl Table {
    /// Opens a read [`View`] of `[lo, hi]` over the key range `range`
    /// derives from the snapshot's schema; `Error::NoSuchTable` for a
    /// dropped table. No mutex is acquired.
    ///
    /// Order matters. The insert-sequence cutoff is loaded *before* the
    /// snapshot: every row stamped below it finished its insert —
    /// including the publish of its (possibly new) memtablet — before we
    /// loaded it, so that tablet is in the snapshot we load next and the
    /// row is visible under the tablet's read lock. The opposite order
    /// could admit a row (low seq, new tablet) whose tablet the older
    /// snapshot lacks, breaking the no-gaps guarantee.
    pub(super) fn view(
        &self,
        range: impl FnOnce(&SchemaRef) -> Result<KeyRange>,
        (lo, hi): (Micros, Micros),
    ) -> Result<View> {
        let now = self.clock.now_micros();
        let cutoff_seq = self.insert_seq.load(Ordering::SeqCst);
        let snap = self.snapshot.read().clone();
        TableStats::add(&self.stats.snapshot_loads, 1);
        if snap.dropped {
            return Err(Error::NoSuchTable(self.name().to_string()));
        }
        Ok(View {
            schema: snap.schema.clone(),
            range: range(&snap.schema)?,
            lo: lo.max(ttl_horizon(snap.ttl, now)),
            hi,
            snap,
            cutoff_seq,
        })
    }

    /// Executes a query, returning a streaming cursor over matching rows
    /// in key order. The fast path never takes the state mutex: one
    /// snapshot load, then per-memtablet read locks for the row copies.
    pub fn query(&self, q: &Query) -> Result<QueryCursor> {
        TableStats::add(&self.stats.queries, 1);
        let view = self.view(|schema| q.key_range(schema), q.ts_interval())?;
        let disk = view.disk().map(|h| Ok(view.source(h)));
        let mem = view.mem().map(|m| m.map(|(_, block)| Source::block(block)));
        let sources = disk.chain(mem).collect::<Result<_>>()?;
        Ok(QueryCursor {
            merge: RunCursor::new(sources, q.descending),
            pending: None,
            schema: view.schema,
            ts_lo: view.lo,
            ts_hi: view.hi,
            remaining: q.limit,
            server_remaining: self.opts.server_row_limit,
            more_available: false,
            done: false,
            scanned: 0,
            returned: 0,
            materialized: 0,
            stats: self.stats.clone(),
        })
    }

    /// Convenience: runs a query and collects every row. Counts as one
    /// query — the cursor it drains adds no second increment.
    pub fn query_all(&self, q: &Query) -> Result<Vec<Row>> {
        let mut cur = self.query(q)?;
        let mut out = Vec::new();
        while let Some(row) = cur.next_row()? {
            out.push(row);
        }
        Ok(out)
    }

    /// Finds the most recent row whose key starts with `prefix` (§3.4.5):
    /// works backwards through each group of tablets with overlapping
    /// timespans, consulting Bloom filters where available. Starts from
    /// the same read view as [`Table::query`].
    pub fn latest(&self, prefix: &[Value]) -> Result<Option<Row>> {
        TableStats::add(&self.stats.queries, 1);
        TableStats::add(&self.stats.latest_calls, 1);
        let mut prefix_hash = 0;
        let subtree = |schema: &SchemaRef| {
            if prefix.len() >= schema.key_len() {
                return Err(Error::invalid(
                    "latest() takes a strict prefix of the key columns",
                ));
            }
            let encoded = encode_prefix(prefix, &schema.key_types())?;
            prefix_hash = hash_bytes(&encoded);
            Ok(KeyRange::for_prefix(encoded))
        };
        let view = self.view(subtree, (Micros::MIN, Micros::MAX))?;
        // The prefix determines every key column except (at least) the
        // timestamp, so within the subtree the timestamp dominates the
        // remaining sort order only when the prefix is full.
        let full_prefix = prefix.len() == view.schema.key_len() - 1;

        enum Src<'a> {
            Mem(Block),
            Disk(&'a DiskHandle),
        }
        let disk = view
            .disk()
            .map(|h| (h.meta.min_ts, h.meta.max_ts, Src::Disk(h)));
        let mut spans: Vec<(Micros, Micros, Src)> = disk.collect();
        for mem in view.mem() {
            let ((lo, hi), block) = mem?;
            spans.push((lo, hi, Src::Mem(block)));
        }

        // Group spans whose time ranges overlap (connected intervals).
        spans.sort_by_key(|(lo, _, _)| *lo);
        let mut groups: Vec<Vec<(Micros, Micros, Src)>> = Vec::new();
        let mut group_hi = Micros::MIN;
        for span in spans {
            if groups.is_empty() || span.0 > group_hi {
                group_hi = span.1;
                groups.push(vec![span]);
            } else {
                group_hi = group_hi.max(span.1);
                groups.last_mut().unwrap().push(span);
            }
        }

        let mut scanned = 0u64;
        for group in groups.into_iter().rev() {
            let mut sources = Vec::new();
            for (_, _, src) in group {
                match src {
                    Src::Mem(block) => sources.push(Source::block(block)),
                    Src::Disk(h) => {
                        // The filter holds every non-empty prefix of
                        // every key; the empty one it was never given.
                        if !prefix.is_empty() && !h.reader.footer()?.may_hold(prefix_hash) {
                            continue;
                        }
                        sources.push(view.source(h));
                    }
                }
            }
            if sources.is_empty() {
                continue;
            }
            // The newest unexpired row under the prefix, as the block and
            // row it sits in: only the winner is materialized.
            let mut merge = RunCursor::new(sources, true);
            let mut best: Option<(Micros, Arc<Block>, usize)> = None;
            'group: while let Some(run) = merge.next_run()? {
                let ts = run.block.timestamps()?;
                for i in run.indices() {
                    scanned += 1;
                    if ts[i] < view.lo {
                        continue;
                    }
                    if full_prefix || best.as_ref().is_none_or(|(b, ..)| ts[i] > *b) {
                        best = Some((ts[i], run.block.clone(), i));
                    }
                    if full_prefix {
                        // Descending key order with ts as the final
                        // component: the first unexpired row is the latest.
                        break 'group;
                    }
                }
            }
            if let Some((_, block, i)) = best {
                TableStats::add(&self.stats.rows_scanned, scanned);
                TableStats::add(&self.stats.rows_returned, 1);
                return block.row(i).map(Some);
            }
        }
        TableStats::add(&self.stats.rows_scanned, scanned);
        Ok(None)
    }
}

/// A streaming query result: rows in key order, filtered by the query's
/// timestamp bounds and the table's TTL. Read it as row ranges of decoded
/// blocks ([`QueryCursor::next_run`]) or as rows
/// ([`QueryCursor::next_row`]); the two can be mixed and count the same.
pub struct QueryCursor {
    merge: RunCursor,
    /// The merged run being cut up: its rows not yet examined.
    pending: Option<RowRun>,
    schema: SchemaRef,
    ts_lo: Micros,
    ts_hi: Micros,
    remaining: Option<usize>,
    server_remaining: usize,
    more_available: bool,
    done: bool,
    scanned: u64,
    returned: u64,
    materialized: u64,
    stats: Arc<crate::stats::TableStats>,
}

impl QueryCursor {
    /// The next stretch of matching rows that lie together in one block,
    /// `cap` of them at most: the examined rows that fail the time bounds
    /// are stepped over and counted, the stretch ends at the next one
    /// that fails. `None` at the end of the result.
    fn take(&mut self, cap: usize) -> Result<Option<RowRun>> {
        if self.done {
            return Ok(None);
        }
        if self.remaining == Some(0) {
            self.done = true;
            return Ok(None);
        }
        if self.server_remaining == 0 {
            // The server's own cap: the client sees `more_available`
            // and re-submits from the last returned key (§3.5).
            self.more_available = true;
            self.done = true;
            return Ok(None);
        }
        let cap = cap
            .min(self.server_remaining)
            .min(self.remaining.unwrap_or(usize::MAX));
        loop {
            let mut run = match self.pending.take() {
                Some(run) => run,
                None => match self.merge.next_run()? {
                    Some(run) => run,
                    None => {
                        self.done = true;
                        return Ok(None);
                    }
                },
            };
            let ts = run.block.timestamps()?;
            let inside = |i: usize| ts[i] >= self.ts_lo && ts[i] <= self.ts_hi;
            let skipped = run.indices().take_while(|&i| !inside(i)).count();
            let taken = run
                .indices()
                .skip(skipped)
                .take(cap)
                .take_while(|&i| inside(i))
                .count();
            self.scanned += (skipped + taken) as u64;
            run.advance(skipped);
            if taken == 0 {
                continue;
            }
            let out = run.split_front(taken);
            if !run.is_empty() {
                self.pending = Some(run);
            }
            self.returned += taken as u64;
            self.server_remaining -= taken;
            if let Some(r) = &mut self.remaining {
                *r -= taken;
            }
            return Ok(Some(out));
        }
    }

    /// Produces the next matching rows that sit side by side in one
    /// decoded block, or `None` at the end. Nothing is copied and no
    /// [`Row`] is built: the caller reads the cells it wants off the
    /// block's column slices.
    pub fn next_run(&mut self) -> Result<Option<RowRun>> {
        self.take(usize::MAX)
    }

    /// Produces the next matching row, or `None` at the end.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        let Some(run) = self.take(1)? else {
            return Ok(None);
        };
        self.materialized += 1;
        run.block.row(run.rows.start).map(Some)
    }

    /// True when the server row limit cut the result short; re-submit the
    /// query starting past the last returned key for more.
    pub fn more_available(&self) -> bool {
        self.more_available
    }

    /// Rows examined so far (inside key bounds, before time filtering).
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    /// Rows returned so far.
    pub fn returned(&self) -> u64 {
        self.returned
    }

    /// The schema rows are returned under.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

impl Drop for QueryCursor {
    fn drop(&mut self) {
        TableStats::add(&self.stats.rows_scanned, self.scanned);
        TableStats::add(&self.stats.rows_returned, self.returned);
        TableStats::add(&self.stats.rows_materialized, self.materialized);
    }
}

impl Iterator for QueryCursor {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row().transpose()
    }
}
