//! The merge that maintenance runs (§3.4.1), over blocks instead of rows.
//!
//! Every input tablet is streamed as decoded blocks, read in ~1 MB runs.
//! The loop picks the source whose head row has the smallest key, finds by
//! galloping search how far that source's current block stays below every
//! other source's head, and hands that row range to
//! [`TabletWriter::add_run`] — which copies column sub-slices unless the
//! source lags the table's schema and its rows need translating. Keys are
//! compared in their encoded form, built into a scratch buffer for the
//! handful of rows a search probes; no `Row`, no heap of rows. The gallop
//! and the pick of the next source are the query cursor's
//! ([`crate::cursor`]); when blocks are read, and how many at a time, is
//! this module's own.

use crate::block::Block;
use crate::cursor::{first_two, run_len};
use crate::error::Result;
use crate::tablet::{TabletFooter, TabletReader, TabletWriter};
use littletable_vfs::Micros;
use std::collections::VecDeque;
use std::sync::Arc;

/// Compressed bytes fetched per disk access. §3.4.1: to spend at most half
/// its time seeking between input tablets, a merge must read about 1 MB
/// at a time. These reads bypass the block cache — they stream each block
/// exactly once, and admitting them would evict the point-read working
/// set.
const READ_RUN_BYTES: usize = 1 << 20;

/// One maintenance input: a tablet streamed front to back, with a head
/// row that moves forward.
pub(super) struct RunSource {
    reader: Arc<TabletReader>,
    footer: Arc<TabletFooter>,
    /// Decoded blocks not yet consumed; the front one holds the head row.
    queue: VecDeque<Block>,
    /// Index, within the tablet, of the first block not yet read.
    unread: usize,
    /// The head row's index within the front block.
    row: usize,
    /// The head row's encoded key.
    head: Vec<u8>,
}

impl RunSource {
    /// Opens `reader`'s tablet at its first row: loads the footer and
    /// reads the first run of blocks.
    pub(super) fn open(reader: Arc<TabletReader>) -> Result<RunSource> {
        let mut src = RunSource {
            footer: reader.footer()?,
            reader,
            queue: VecDeque::new(),
            unread: 0,
            row: 0,
            head: Vec::new(),
        };
        src.advance_to(0)?;
        Ok(src)
    }

    /// The block holding the head row; `None` once the tablet is
    /// exhausted.
    pub(super) fn front(&self) -> Option<&Block> {
        self.queue.front()
    }

    fn has_unread(&self) -> bool {
        self.unread < self.footer.blocks.len()
    }

    fn read_next_run(&mut self) -> Result<()> {
        let run = self.reader.read_block_run(self.unread, READ_RUN_BYTES)?;
        self.unread += run.len();
        self.queue.extend(run);
        Ok(())
    }

    /// Moves the head to `row` of the front block, or to the start of the
    /// block after it when `row` is that block's length.
    pub(super) fn advance_to(&mut self, row: usize) -> Result<()> {
        self.row = row;
        loop {
            match self.queue.front() {
                Some(b) if self.row < b.len() => break,
                Some(_) => {
                    self.queue.pop_front();
                    self.row = 0;
                }
                None if self.has_unread() => self.read_next_run()?,
                None => return Ok(()),
            }
        }
        self.queue[0].key_into(self.row, &mut self.head)
    }

    /// The end of the longest run of rows, starting at the head, that
    /// sort before `bound` (or up to it, when `through` is set).
    fn run_end(&self, bound: &[u8], through: bool, scratch: &mut Vec<u8>) -> Result<usize> {
        let block = &self.queue[0];
        let rest = block.len() - self.row;
        Ok(self.row + run_len(block, self.row, rest, false, bound, through, scratch)?)
    }

    /// Rows queued behind the front block, counted no further than two.
    fn queued_behind_front(&self) -> usize {
        let mut rows = 0;
        for b in self.queue.iter().skip(1) {
            rows += b.len();
            if rows >= 2 {
                break;
            }
        }
        rows
    }

    /// Writes the front block's rows from the head up to `end` into `w`,
    /// dropping those older than `min_ts`, and moves the head to `end`.
    ///
    /// A row is written with the two rows after it already in memory:
    /// the tablet's next run of blocks is read just before the first row
    /// that has fewer than two queued behind it. Those are the moments at
    /// which a merge over row cursors read (a cursor held one row in hand
    /// and stood one row past it), and the simulated disk's seek counts
    /// were fixed under such a merge: `tests_merge` holds where the reads
    /// fall among the writes to what it recorded there.
    pub(super) fn emit_to(
        &mut self,
        end: usize,
        w: &mut TabletWriter,
        min_ts: Micros,
    ) -> Result<()> {
        let mut from = self.row;
        while self.has_unread() {
            let queued = self.queue[0].len() + self.queued_behind_front();
            let short = queued.saturating_sub(2).max(from);
            if short >= end {
                break;
            }
            w.add_run(&self.queue[0], &self.footer.schema, from..short, min_ts)?;
            self.read_next_run()?;
            from = short;
        }
        w.add_run(&self.queue[0], &self.footer.schema, from..end, min_ts)?;
        self.advance_to(end)
    }
}

/// Merge-sorts the tablets behind `readers` into `w`, dropping rows
/// older than `min_ts`. On equal keys (which unique primary keys rule
/// out) the earlier reader's row goes first and the writer rejects the
/// second.
pub(super) fn merge_runs(
    readers: impl Iterator<Item = Arc<TabletReader>>,
    w: &mut TabletWriter,
    min_ts: Micros,
) -> Result<()> {
    let mut sources = readers.map(RunSource::open).collect::<Result<Vec<_>>>()?;
    let mut scratch = Vec::new();
    loop {
        sources.retain(|s| s.front().is_some());
        // The source whose head comes next, and the one after it: the
        // first source's rows go out until one would pass the second's
        // head.
        let (Some(first), second) = first_two(sources.iter().map(|s| s.head.as_slice()), false)
        else {
            return Ok(());
        };
        let end = match second {
            None => sources[first].queue[0].len(),
            Some(second) => {
                sources[first].run_end(&sources[second].head, first < second, &mut scratch)?
            }
        };
        sources[first].emit_to(end, w, min_ts)?;
    }
}
