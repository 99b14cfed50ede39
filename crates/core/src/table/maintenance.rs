//! The maintenance paths: flushing sealed groups, merging, TTL reaping,
//! bulk delete, rollup marks, and schema evolution.
//!
//! Each is the same pipeline with parts left out. Whatever writes tablets
//! does so outside the state mutex, through [`Table::write_tablet`] and
//! `TabletWriter::add_run`: a flush feeds it a memtablet gathered into one
//! block in key order, a merge or a bulk delete the column runs a
//! [`RunCursor`] yields over the tablets being rewritten: each block the
//! block cache holds is taken from it, observed only, and the rest are
//! read from disk 1 MB at a time. Whatever must not overlap a merge holds
//! the table's [`super::MergeSlot`]. And every transition ends in
//! [`Table::commit`], the one place the tablet set, the schema or the TTL
//! changes: under the state mutex it refuses a dropped table, swaps
//! tablets out and in and republishes the read snapshot; each public call
//! then ends in one [`Table::persist`]: one save, then unlinks. Readers
//! holding the previous snapshot keep their view — flushed memtablets and
//! replaced readers stay alive through its `Arc`s until the last drops it.

use super::state::{DiskHandle, TableState};
use super::{check_ttl, ttl_horizon, MaintenanceReport, Table};
use crate::cursor::{RunCursor, Source, READ_RUN_BYTES};
use crate::descriptor::{tablet_file_name, TableDescriptor, TabletMeta};
use crate::error::{Error, Result};
use crate::keyenc::{encode_prefix, KeyRange};
use crate::memtable::{MemTablet, MemTabletId};
use crate::mergepolicy::find_merge;
use crate::schema::{ColumnDef, Schema, SchemaRef};
use crate::stats::TableStats;
use crate::tablet::TabletWriter;
use crate::util::hash_bytes;
use crate::value::Value;
use littletable_vfs::{join, Micros};
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A maintenance pass that finds its table dropped has nothing to do,
/// which is not an error.
pub(super) fn or_if_dropped<T>(result: Result<T>, nothing: T) -> Result<T> {
    match result {
        Err(Error::NoSuchTable(_)) => Ok(nothing),
        result => result,
    }
}

/// Merge-sorts the rows of `sources` inside `range`, as `schema` shows
/// them, into `w`, dropping those older than `min_ts`. A block the block
/// cache holds is taken from it without a reference bit set or a count
/// moved; a block it lacks starts a disk read of a run of blocks, about
/// 1 MB (§3.4.1), that admits none of them.
fn merge_into(
    w: &mut TabletWriter,
    sources: &[DiskHandle],
    schema: &SchemaRef,
    range: &KeyRange,
    min_ts: Micros,
) -> Result<()> {
    let sources = sources
        .iter()
        .map(|h| {
            Source::tablet(h.reader.clone(), schema.clone(), range.clone())
                .with_read_run(READ_RUN_BYTES)
        })
        .collect();
    let mut runs = RunCursor::new(sources, false);
    while let Some(run) = runs.next_run()? {
        w.add_run(&run.block, run.rows, min_ts)?;
    }
    Ok(())
}

/// The tablet files a transition has written and not committed. Dropped
/// with any in it — a later write failed, the commit was refused — it
/// unlinks them: a transition publishes all of its output or leaves none
/// behind.
pub(super) struct Written<'a> {
    table: &'a Table,
    files: Vec<DiskHandle>,
}

impl Drop for Written<'_> {
    fn drop(&mut self) {
        self.table.unlink(&self.files);
    }
}

impl Table {
    /// Writes one new tablet under `schema` into the table directory:
    /// allocates its id, creates the file, has `fill` put the rows in,
    /// finishes and syncs it. `None` when `fill` put no row in; no file is
    /// left behind then, nor when anything failed (the fsync gate: nothing
    /// of a tablet whose write or sync failed is published).
    ///
    /// The tablet's footer enters the block cache as it is written, under
    /// the id of the reader built for it first (see [`crate::cache`]), and
    /// so does each block it writes when a tablet it rewrites, one of
    /// `inputs` (none for a flush), had a block cached, as far as the
    /// cache has free room. A failed write drops that reader, which
    /// invalidates what it admitted.
    fn write_tablet(
        &self,
        schema: &SchemaRef,
        size_hint: u64,
        rolled_up: bool,
        now: Micros,
        inputs: &[DiskHandle],
        fill: impl FnOnce(&mut TabletWriter) -> Result<()>,
    ) -> Result<Option<DiskHandle>> {
        let inherit = inputs.iter().any(|h| h.reader.has_resident_block());
        let id = {
            let mut st = self.state.lock();
            st.next_tablet_id += 1;
            st.next_tablet_id - 1
        };
        let path = join(&self.name, &tablet_file_name(id));
        let reader = self.new_reader(path.clone());
        let written = (|| {
            let mut w = TabletWriter::new(
                self.vfs.create(&path, size_hint)?,
                (**schema).clone(),
                self.opts.block_size,
                self.opts.bloom_filters,
            )
            .warming(reader.clone())
            .inheriting(inherit);
            fill(&mut w)?;
            if w.row_count() == 0 {
                return Ok(None);
            }
            w.finish().map(Some)
        })();
        match written {
            Ok(Some((min_ts, max_ts, rows, bytes))) => Ok(Some(DiskHandle {
                reader,
                meta: TabletMeta {
                    id,
                    min_ts,
                    max_ts,
                    rows,
                    bytes,
                    written_at: now,
                    schema_version: schema.version(),
                    rolled_up,
                },
            })),
            nothing => {
                // Best-effort: the disk may still be failing.
                let _ = self.vfs.remove(&path);
                nothing.map(|_| None)
            }
        }
    }

    /// What a transition has written so far (`None`: nothing).
    pub(super) fn written(&self, files: impl IntoIterator<Item = DiskHandle>) -> Written<'_> {
        Written {
            table: self,
            files: files.into_iter().collect(),
        }
    }

    /// Removes tablet files; best-effort, an orphan is reaped at open.
    /// Readers of a snapshot that lists a removed tablet hold its reader
    /// by `Arc`, and removal unlinks, so their open handles stay valid.
    fn unlink(&self, handles: &[DiskHandle]) {
        for h in handles {
            let _ = self.vfs.remove(&join(&self.name, &h.meta.file_name()));
        }
    }

    /// The in-memory commit every transition ends in, under the state
    /// mutex. A dropped table is refused with `Error::NoSuchTable`:
    /// `drop_table` may have deleted the directory and a same-name table
    /// may own the path again, so no file may appear in it. `change` edits
    /// the state and returns the handles it took out of the tablet set, or
    /// `None` for nothing to change; `written` joins the set, the snapshot
    /// is republished (readers see the set before the transition or after
    /// it, never between) and the descriptor marked dirty. Nothing is saved
    /// or unlinked here: returns the handles replaced, for the caller's
    /// [`Table::persist`].
    pub(super) fn commit(
        &self,
        mut written: Written<'_>,
        change: impl FnOnce(&mut TableState) -> Result<Option<Vec<DiskHandle>>>,
    ) -> Result<Vec<DiskHandle>> {
        let mut st = self.state.lock();
        let changed = if st.dropped {
            Err(Error::NoSuchTable(self.name.clone()))
        } else {
            change(&mut st)
        };
        // Refused or declined: `written` drops after the lock, and unlinks.
        let Some(replaced) = changed? else {
            return Ok(Vec::new());
        };
        st.disk.append(&mut written.files);
        st.sort_disk();
        st.desc_dirty = true;
        self.publish_locked(&st);
        Ok(replaced)
    }

    /// Saves a dirty descriptor, then unlinks `replaced`, which it no
    /// longer names; a failed save leaves both dirty flag and files. Under
    /// the state mutex: a dropped table's path may be a new table's.
    pub(super) fn persist(&self, replaced: Vec<DiskHandle>) -> Result<()> {
        let mut st = self.state.lock();
        self.save_locked(&mut st)?;
        if !st.dropped {
            self.unlink(&replaced);
        }
        Ok(())
    }

    /// Saves the descriptor of a live table whose memory is ahead of it.
    pub(super) fn save_locked(&self, st: &mut TableState) -> Result<()> {
        if st.dropped || !st.desc_dirty {
            return Ok(());
        }
        let desc = TableDescriptor {
            next_tablet_id: st.next_tablet_id,
            tablets: st.metas(),
            rollup: self.rollup.clone(),
            attached: self.attached.load(Ordering::Relaxed),
            ..TableDescriptor::new((*st.schema).clone(), st.ttl)
        };
        desc.save(self.vfs.as_ref(), &self.name)?;
        st.desc_dirty = false;
        TableStats::add(&self.stats.descriptor_saves, 1);
        Ok(())
    }

    /// Runs `op`, whose commits collect what they replaced, then persists
    /// once, on `op`'s error path too (`op`'s error wins).
    pub(super) fn persisting<T>(
        &self,
        op: impl FnOnce(&mut Vec<DiskHandle>) -> Result<T>,
    ) -> Result<T> {
        let mut replaced = Vec::new();
        let done = op(&mut replaced);
        let persisted = self.persist(replaced);
        done.and_then(|out| persisted.map(|()| out))
    }

    // ---------------------------------------------------------------- flush

    /// Flushes the oldest sealed group, if any. Returns whether a group
    /// was flushed.
    pub fn flush_next_group(&self) -> Result<bool> {
        self.persisting(|_| self.flush_group())
    }

    /// Commits the oldest sealed group, if any, in memory.
    pub(crate) fn flush_group(&self) -> Result<bool> {
        // Held to the commit: sealed groups commit strictly FIFO, and
        // `mark_dropped` waits here for the flush under way.
        let _flush = self.flush_lock.lock();
        let tablets = {
            let st = self.state.lock();
            match st.sealed.front() {
                Some(group) if !st.dropped => group.clone(),
                _ => return Ok(false),
            }
        };
        let now = self.clock.now_micros();
        // A failed write leaves the sealed group where it is for a later
        // retry; reads keep serving it from memory meanwhile.
        let mut written = self.written(None);
        for tablet in &tablets {
            let (schema, bytes) = {
                let mem = tablet.read();
                (mem.schema().clone(), mem.bytes() as u64)
            };
            let flushed = self.write_tablet(&schema, bytes, false, now, &[], |w| {
                // The whole tablet, gathered in key order into one block,
                // goes in through the path merges take.
                let block = tablet.read().snapshot_block(&KeyRange::all(), u64::MAX)?;
                w.add_run(&block, 0..block.len(), Micros::MIN)
            })?;
            written.files.extend(flushed);
        }
        let bytes = written.files.iter().map(|h| h.meta.bytes).sum();
        TableStats::add(&self.stats.tablets_flushed, written.files.len() as u64);
        TableStats::add(&self.stats.bytes_flushed, bytes);
        // The group leaves memory in the same publish its tablets enter
        // the disk set in: readers see either all-mem or all-disk. It is
        // still the front one: only this function, under `flush_lock`,
        // takes groups out.
        let committed = self.commit(written, |st| {
            st.sealed.pop_front();
            Ok(Some(Vec::new()))
        });
        or_if_dropped(committed.map(|_| true), false)
    }

    /// Seals the filling tablets `due` picks, each with the tablets that
    /// must flush with it (see `seal_locked`, which is what preserves
    /// prefix durability). Returns how many it picked.
    pub(super) fn seal_where(
        &self,
        st: &mut TableState,
        due: impl Fn(&MemTablet) -> bool,
    ) -> usize {
        let picked = st.filling.values().filter(|t| due(&t.read()));
        let mut ids: Vec<MemTabletId> = picked.map(|t| t.id()).collect();
        // In id order, not the map's: which tablets share a group — and so
        // how many descriptor saves the flush takes — must not depend on
        // the hasher.
        ids.sort_unstable();
        for &id in &ids {
            self.seal_locked(st, id);
        }
        ids.len()
    }

    fn flush_where(&self, due: impl Fn(&MemTablet) -> bool) -> Result<()> {
        self.seal_where(&mut self.state.lock(), due);
        self.persisting(|_| {
            while self.flush_group()? {}
            Ok(())
        })
    }

    /// Seals every filling tablet and flushes everything to disk.
    pub fn flush_all(&self) -> Result<()> {
        self.flush_where(|_| true)
    }

    /// Flushes to disk every in-memory tablet holding rows with timestamps
    /// at or before `ts` — the command §4.1.2 of the paper proposes so
    /// that aggregators need not *assume* source data has reached disk.
    /// When this returns, every row with `row.ts <= ts` that was inserted
    /// before the call is durable.
    pub fn flush_before(&self, ts: Micros) -> Result<()> {
        self.flush_where(|mem| mem.min_ts().is_some_and(|lo| lo <= ts))
    }

    // ----------------------------------------------------------- bulk delete

    /// Deletes every row whose primary key starts with `prefix` — the
    /// bulk-delete feature §7 of the paper describes investigating for
    /// compliance with regional privacy laws. In-memory data is flushed
    /// first; each affected on-disk tablet is rewritten without the
    /// matching rows (or dropped outright when nothing else remains), and
    /// the descriptor is replaced once. Returns the number of rows
    /// deleted. Refused on a table that rollups fold: drop them first.
    pub fn bulk_delete(&self, prefix: &[Value]) -> Result<u64> {
        let schema = self.schema();
        if prefix.is_empty() || prefix.len() >= schema.key_len() {
            return Err(Error::invalid(
                "bulk_delete takes a non-empty strict prefix of the key columns",
            ));
        }
        let encoded = encode_prefix(prefix, &schema.key_types())?;
        self.persisting(|replaced| {
            self.seal_where(&mut self.state.lock(), |_| true);
            while self.flush_group()? {}
            // Take the merger's slot so no merge runs while we rewrite.
            let (_slot, (sources, schema)) = self
                .merge_slot(|st| Some((st.disk.clone(), st.schema.clone())))?
                .ok_or_else(|| {
                    Error::invalid("bulk_delete cannot run while a merge is in progress")
                })?;
            // A rewrite would keep its `rolled_up` marks over deleted partials.
            if self.is_rollup_source() {
                return Err(Error::invalid("rollups fold this table; drop them first"));
            }
            let prefix_hash = hash_bytes(&encoded);
            let range = KeyRange::for_prefix(encoded.clone());
            // What a rewrite keeps: the rows that sort before the prefix, then
            // those after it. A block wholly under the prefix is in neither
            // range, and is stepped over from the index, unread.
            let mut kept = vec![KeyRange {
                start: Bound::Unbounded,
                end: Bound::Excluded(encoded),
            }];
            if let Bound::Excluded(next) = &range.end {
                kept.push(KeyRange {
                    start: Bound::Included(next.clone()),
                    end: Bound::Unbounded,
                });
            }
            let now = self.clock.now_micros();
            let mut deleted = 0u64;
            let mut rewritten_ids: Vec<u64> = Vec::new();
            let mut written = self.written(None);
            for h in &sources {
                let footer = h.reader.footer()?;
                if !footer.may_hold(prefix_hash) {
                    continue;
                }
                // Does this tablet hold any matching row at all? Asked one
                // block per read, as the rewrite reads: a resident block is
                // taken from the cache, observed only, and one read from disk is
                // not admitted, so a tablet about to be replaced admits nothing,
                // its neighbours included.
                let probe = Source::tablet(h.reader.clone(), schema.clone(), range.clone())
                    .with_read_run(1);
                if RunCursor::new(vec![probe], false).next_run()?.is_none() {
                    continue;
                }
                let one = std::slice::from_ref(h);
                let fill = |w: &mut TabletWriter| {
                    let keep = |range| merge_into(w, one, &schema, range, Micros::MIN);
                    kept.iter().try_for_each(keep)
                };
                let (bytes, rolled_up) = (h.meta.bytes, h.meta.rolled_up);
                let rest = self.write_tablet(&schema, bytes, rolled_up, now, one, fill)?;
                deleted += footer.row_count - rest.as_ref().map_or(0, |h| h.meta.rows);
                rewritten_ids.push(h.meta.id);
                written.files.extend(rest);
            }
            if rewritten_ids.is_empty() {
                return Ok(0);
            }
            replaced.extend(self.commit(written, |st| {
                Ok(Some(st.take_disk(|m| rewritten_ids.contains(&m.id))))
            })?);
            // A bulk delete mutates data without going through `insert`, so the
            // query-result cache's insert_seq key would otherwise keep serving
            // pre-delete results.
            self.insert_seq.fetch_add(1, Ordering::SeqCst);
            Ok(deleted)
        })
    }

    // ----------------------------------------------------------- maintenance

    /// Runs one maintenance pass at time `now`: seals aged tablets,
    /// flushes sealed groups, performs at most one merge, and reaps
    /// TTL-expired tablets — all in one descriptor save.
    pub fn maintain(&self, now: Micros) -> Result<MaintenanceReport> {
        // 1. Age-based seals (§3.4.1: flush no later than 10 minutes after
        //    a tablet's first insert).
        let mut report = MaintenanceReport {
            sealed_by_age: self.seal_where(&mut self.state.lock(), |mem| {
                !mem.is_empty() && now - mem.first_insert_at() >= self.opts.flush_age
            }),
            ..MaintenanceReport::default()
        };
        self.persisting(|replaced| {
            // 2. Flush everything sealed.
            while self.flush_group()? {
                report.groups_flushed += 1;
            }
            // 3. One merge.
            if self.opts.merge_enabled && self.merge_once(now, replaced)? {
                report.merges = 1;
            }
            // 4. TTL expiry.
            report.tablets_expired = self.reap(now, replaced)?;
            Ok(report)
        })
    }

    /// Performs at most one merge step; returns whether a merge ran.
    pub fn run_merge_once(&self, now: Micros) -> Result<bool> {
        self.persisting(|replaced| self.merge_once(now, replaced))
    }

    fn merge_once(&self, now: Micros, replaced: &mut Vec<DiskHandle>) -> Result<bool> {
        let picked = self.merge_slot(|st| {
            let mut metas = st.metas();
            if self.is_rollup_source() {
                // Tablets not yet folded into every rollup must keep their
                // identity (fold idempotency is keyed on tablet id), so the
                // merger only considers rolled-up tablets here; the fold
                // pass marks tablets and unblocks them.
                metas.retain(|m| m.rolled_up);
            }
            let ids = find_merge(&metas, now, &self.opts)?;
            let sources = st.disk.iter().filter(|h| ids.contains(&h.meta.id));
            let sources: Vec<DiskHandle> = sources.cloned().collect();
            Some((sources, st.schema.clone(), st.ttl))
        });
        let Some((_slot, (sources, schema, ttl))) = or_if_dropped(picked, None)? else {
            return Ok(false);
        };
        let written = self.written(self.execute_merge(&sources, &schema, ttl, now)?);
        let ids: Vec<u64> = sources.iter().map(|h| h.meta.id).collect();
        let committed = self.commit(written, |st| {
            Ok(Some(st.take_disk(|m| ids.contains(&m.id))))
        });
        let committed = committed.map(|out| replaced.extend(out));
        let ran = or_if_dropped(committed.map(|()| true), false)?;
        TableStats::add(&self.stats.merges, ran as u64);
        Ok(ran)
    }

    /// Merge-sorts `sources` into one new tablet (§3.4.1) under `schema`,
    /// dropping rows that have already expired. Returns `None` when every
    /// row had expired.
    pub(super) fn execute_merge(
        &self,
        sources: &[DiskHandle],
        schema: &SchemaRef,
        ttl: Option<Micros>,
        now: Micros,
    ) -> Result<Option<DiskHandle>> {
        let cutoff = ttl_horizon(ttl, now);
        let size_hint: u64 = sources.iter().map(|h| h.meta.bytes).sum();
        let rolled_up = sources.iter().all(|h| h.meta.rolled_up);
        let merged = self.write_tablet(schema, size_hint, rolled_up, now, sources, |w| {
            merge_into(w, sources, schema, &KeyRange::all(), cutoff)
        })?;
        if let Some(h) = &merged {
            TableStats::add(&self.stats.bytes_merge_written, h.meta.bytes);
        }
        Ok(merged)
    }

    /// Removes on-disk tablets whose every row has expired (§3.3).
    /// Returns the number of tablets reclaimed.
    pub fn ttl_reap(&self, now: Micros) -> Result<usize> {
        self.persisting(|replaced| self.reap(now, replaced))
    }

    fn reap(&self, now: Micros, replaced: &mut Vec<DiskHandle>) -> Result<usize> {
        let dead = self.commit(self.written(None), |st| {
            // A merge may be reading any tablet; wait for the next pass.
            if st.ttl.is_none() || st.merge_running {
                return Ok(None);
            }
            let horizon = ttl_horizon(st.ttl, now);
            let dead = st.take_disk(|m| m.max_ts < horizon);
            Ok((!dead.is_empty()).then_some(dead))
        });
        let dead = or_if_dropped(dead, Vec::new())?;
        TableStats::add(&self.stats.tablets_expired, dead.len() as u64);
        replaced.extend_from_slice(&dead);
        Ok(dead.len())
    }

    // ---------------------------------------------------------- schema & ttl

    /// Appends a column to the schema (§3.5). Existing tablets are not
    /// rewritten; filling tablets are sealed so no tablet mixes schema
    /// versions.
    pub fn add_column(&self, col: ColumnDef) -> Result<()> {
        self.install_schema(|schema| schema.add_column(col))
    }

    /// Widens an `int32` column to `int64` (§3.5).
    pub fn widen_column(&self, name: &str) -> Result<()> {
        self.install_schema(|schema| schema.widen_column(name))
    }

    fn install_schema(&self, evolve: impl FnOnce(&Schema) -> Result<Schema>) -> Result<()> {
        self.persisting(|_| {
            self.commit(self.written(None), |st| {
                let new_schema = evolve(&st.schema)?;
                self.seal_where(st, |_| true);
                st.schema = Arc::new(new_schema);
                Ok(Some(Vec::new()))
            })
        })?;
        Ok(())
    }

    /// Changes the table's TTL (§3.5); a TTL must be positive.
    pub fn set_ttl(&self, ttl: Option<Micros>) -> Result<()> {
        check_ttl(ttl)?;
        self.persisting(|_| {
            self.commit(self.written(None), |st| {
                st.ttl = ttl;
                Ok(Some(Vec::new()))
            })
        })?;
        Ok(())
    }
}
