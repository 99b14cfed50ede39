//! The read path: `query`, `query_all`, `latest`, and the streaming
//! [`QueryCursor`].
//!
//! Both entry points run entirely from one `read_view()` — a snapshot
//! load (an `Arc` clone, never behind the state mutex or any I/O) plus
//! an insert-sequence cutoff. Disk tablets are
//! immutable files behind `Arc`'d readers; in-memory tablets are
//! snapshotted under their own read locks, each into one decoded block,
//! with the cutoff filtering out rows inserted after the view was taken.
//! Expensive work (translating a block of an older schema version)
//! happens outside every lock, so readers cannot stall the writer or the
//! maintenance paths.
//!
//! A query's result is a stream of [`RowRun`]s — row ranges of decoded
//! blocks, merged in key order by [`RunCursor`] and cut here at the
//! query's time bounds, the table's TTL and the row limits. A consumer
//! that can work from column slices ([`QueryCursor::next_run`]: the
//! server's response encoder) never has a [`Row`] built for it;
//! [`QueryCursor::next_row`] builds one per call for those that want
//! rows, and is where `rows_materialized` counts.

use super::state::SharedMemTablet;
use super::Table;
use crate::block::Block;
use crate::cursor::{RowRun, RunCursor, Source};
use crate::error::{Error, Result};
use crate::keyenc::{encode_prefix, KeyRange};
use crate::query::Query;
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::stats::TableStats;
use crate::tablet::TabletReader;
use crate::util::hash_bytes;
use crate::value::Value;
use littletable_vfs::Micros;
use std::sync::Arc;

/// Snapshots one shared memtablet for a query: the rows inside `range`
/// stamped below `cutoff_seq`, as one block under the `newest` schema.
/// Returns `None` when the tablet's timespan misses `[ts_lo, ts_hi]`.
/// The per-tablet read lock covers only the copy into column slices;
/// translating a block written under an older schema version runs after
/// it is released.
pub(super) fn mem_block(
    t: &SharedMemTablet,
    range: &KeyRange,
    ts_lo: Micros,
    ts_hi: Micros,
    cutoff_seq: u64,
    newest: &SchemaRef,
) -> Result<Option<Block>> {
    let (block, from) = {
        let mem = t.read();
        match (mem.min_ts(), mem.max_ts()) {
            (Some(lo), Some(hi)) if hi >= ts_lo && lo <= ts_hi => {}
            _ => return Ok(None),
        }
        (mem.snapshot_block(range, cutoff_seq)?, mem.schema().clone())
    };
    if from.version() == newest.version() {
        Ok(Some(block))
    } else {
        block.translated(&from, newest).map(Some)
    }
}

impl Table {
    /// Executes a query, returning a streaming cursor over matching rows
    /// in key order. The fast path never takes the state mutex: one
    /// snapshot load, then per-memtablet read locks for the row copies.
    pub fn query(&self, q: &Query) -> Result<QueryCursor> {
        TableStats::add(&self.stats.queries, 1);
        let now = self.clock.now_micros();
        let (snap, cutoff_seq) = self.read_view();
        if snap.dropped {
            return Err(Error::NoSuchTable(self.name().to_string()));
        }
        let schema = snap.schema.clone();
        let range = q.key_range(&schema)?;
        let (ts_lo, ts_hi) = q.ts_interval();
        // TTL: expired rows are filtered from results (§3.3).
        let ts_lo = match snap.ttl {
            Some(ttl) => ts_lo.max(now.saturating_sub(ttl)),
            None => ts_lo,
        };
        let mut sources = Vec::new();
        if !range.is_certainly_empty() && ts_lo <= ts_hi {
            for h in &snap.disk {
                if h.meta.max_ts >= ts_lo && h.meta.min_ts <= ts_hi {
                    sources.push(Source::tablet(
                        h.reader.clone(),
                        schema.clone(),
                        range.clone(),
                    ));
                }
            }
            for t in &snap.mem {
                if let Some(block) = mem_block(t, &range, ts_lo, ts_hi, cutoff_seq, &schema)? {
                    sources.push(Source::block(block));
                }
            }
        }
        Ok(QueryCursor {
            merge: RunCursor::new(sources, q.descending),
            pending: None,
            schema,
            ts_lo,
            ts_hi,
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
    /// timespans, consulting Bloom filters where available. Shares the
    /// snapshot fast path with [`Table::query`].
    pub fn latest(&self, prefix: &[Value]) -> Result<Option<Row>> {
        TableStats::add(&self.stats.queries, 1);
        TableStats::add(&self.stats.latest_calls, 1);
        let now = self.clock.now_micros();
        let (snap, cutoff_seq) = self.read_view();
        if snap.dropped {
            return Err(Error::NoSuchTable(self.name().to_string()));
        }
        let schema = snap.schema.clone();
        let types = schema.key_types();
        if prefix.len() >= schema.key_len() {
            return Err(Error::invalid(
                "latest() takes a strict prefix of the key columns",
            ));
        }
        let encoded = encode_prefix(prefix, &types)?;
        let range = KeyRange::for_prefix(encoded.clone());
        let cutoff = snap
            .ttl
            .map(|ttl| now.saturating_sub(ttl))
            .unwrap_or(Micros::MIN);
        // The prefix determines every key column except (at least) the
        // timestamp, so within the subtree the timestamp dominates the
        // remaining sort order only when the prefix is full.
        let full_prefix = prefix.len() == schema.key_len() - 1;

        enum Src {
            Mem(Block),
            Disk(Arc<TabletReader>),
        }
        let mut spans: Vec<(Micros, Micros, Src)> = Vec::new();
        for h in &snap.disk {
            if h.meta.max_ts >= cutoff {
                spans.push((h.meta.min_ts, h.meta.max_ts, Src::Disk(h.reader.clone())));
            }
        }
        for t in &snap.mem {
            let span = {
                let mem = t.read();
                match (mem.min_ts(), mem.max_ts()) {
                    (Some(lo), Some(hi)) if hi >= cutoff => Some((lo, hi)),
                    _ => None,
                }
            };
            if let Some((lo, hi)) = span {
                if let Some(block) =
                    mem_block(t, &range, Micros::MIN, Micros::MAX, cutoff_seq, &schema)?
                {
                    spans.push((lo, hi, Src::Mem(block)));
                }
            }
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

        let prefix_hash = hash_bytes(&encoded);
        let mut scanned = 0u64;
        for group in groups.into_iter().rev() {
            let mut sources = Vec::new();
            for (_, _, src) in group {
                match src {
                    Src::Mem(block) => sources.push(Source::block(block)),
                    Src::Disk(reader) => {
                        // The filter holds every non-empty prefix of
                        // every key; the empty one it was never given.
                        if self.opts.bloom_filters && !prefix.is_empty() {
                            if let Some(bloom) = &reader.footer()?.bloom {
                                if !bloom.may_contain(prefix_hash) {
                                    continue;
                                }
                            }
                        }
                        sources.push(Source::tablet(reader, schema.clone(), range.clone()));
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
                    if ts[i] < cutoff {
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
