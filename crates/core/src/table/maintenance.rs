//! The maintenance paths: flushing sealed groups, merging, TTL reaping,
//! bulk delete, cold-tier migration, and schema evolution.
//!
//! Each path does its disk work outside the state mutex, then commits
//! under it: mutate the tablet set, republish the read snapshot
//! ([`Table::publish_locked`]), and persist the descriptor. Readers
//! holding the previous snapshot keep their (pre-transition) view —
//! flushed memtablets stay alive through the snapshot's `Arc`s until
//! the last such reader drops it.

use super::runmerge::{merge_runs, RunSource};
use super::state::{DiskHandle, SharedMemTablet, TableState};
use super::{MaintenanceReport, Table};
use crate::cursor::{RunCursor, Source};
use crate::descriptor::{tablet_file_name, TableDescriptor, TabletMeta};
use crate::error::{Error, Result};
use crate::keyenc::{encode_prefix, KeyRange};
use crate::memtable::MemTabletId;
use crate::mergepolicy::find_merge;
use crate::schema::{Schema, SchemaRef};
use crate::stats::TableStats;
use crate::tablet::TabletWriter;
use crate::util::hash_bytes;
use crate::value::Value;
use littletable_vfs::{join, Micros, Vfs};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Table {
    // ---------------------------------------------------------------- flush

    /// Flushes the oldest sealed group, if any. Returns whether a group
    /// was flushed.
    pub fn flush_next_group(&self) -> Result<bool> {
        let _flush = self.flush_lock.lock();
        let (group_id, tablets) = {
            let mut st = self.state.lock();
            if st.dropped {
                // A dropped table must not write new files into its
                // directory: `drop_table` may already have deleted it, and
                // a same-name table may own the path again.
                return Ok(false);
            }
            let Some(group) = st.sealed.front_mut() else {
                return Ok(false);
            };
            group.flushing = true;
            (group.id, group.tablets.clone())
        };
        let now = self.clock.now_micros();
        // Allocate tablet ids.
        let ids: Vec<u64> = {
            let mut st = self.state.lock();
            tablets
                .iter()
                .map(|_| {
                    let id = st.next_tablet_id;
                    st.next_tablet_id += 1;
                    id
                })
                .collect()
        };
        let written: Result<Vec<DiskHandle>> = (|| {
            let mut new_handles = Vec::new();
            for (mem, id) in tablets.iter().zip(&ids) {
                if mem.read().is_empty() {
                    continue;
                }
                let meta = self.write_mem_tablet(mem, *id, now)?;
                new_handles.push(DiskHandle {
                    reader: self.new_reader(self.vfs.clone(), join(&self.dir, &meta.file_name())),
                    meta,
                });
            }
            Ok(new_handles)
        })();
        let new_handles = match written {
            Ok(h) => h,
            Err(e) => {
                // fsync-gate: a failed write or sync means nothing from
                // this group is published. Reclaim whatever partial output
                // exists (best-effort — the disk may still be failing) and
                // hand the sealed group back for a later retry; reads keep
                // serving it from memory meanwhile.
                for id in &ids {
                    let _ = self.vfs.remove(&join(&self.dir, &tablet_file_name(*id)));
                }
                let mut st = self.state.lock();
                if let Some(g) = st.sealed.iter_mut().find(|g| g.id == group_id) {
                    g.flushing = false;
                }
                return Err(e);
            }
        };
        for h in &new_handles {
            TableStats::add(&self.stats.tablets_flushed, 1);
            TableStats::add(&self.stats.bytes_flushed, h.meta.bytes);
        }
        // Commit: swap the group for its disk handles in one snapshot
        // publish (readers see either all-mem or all-disk, never both),
        // then persist the descriptor.
        let mut st = self.state.lock();
        if st.dropped {
            // Dropped between the write and the commit (drop_table waits
            // on `flush_lock`, so this is the last flush it lets finish):
            // abandon the output instead of resurrecting files or a
            // descriptor in a directory about to be — or already —
            // deleted and possibly re-owned by a recreated table.
            drop(st);
            for h in &new_handles {
                let _ = self.vfs.remove(&join(&self.dir, &h.meta.file_name()));
            }
            return Ok(false);
        }
        st.disk.extend(new_handles);
        st.sort_disk();
        let pos = st
            .sealed
            .iter()
            .position(|g| g.id == group_id)
            .expect("flushing group still present");
        st.sealed.remove(pos);
        self.publish_locked(&st);
        self.save_descriptor_locked(&st)?;
        Ok(true)
    }

    fn write_mem_tablet(
        &self,
        tablet: &SharedMemTablet,
        id: u64,
        now: Micros,
    ) -> Result<TabletMeta> {
        // Sealed tablets take no further inserts; the read guard is held
        // across the file write only to satisfy the lock discipline.
        let mem = tablet.read();
        let schema = mem.schema().clone();
        let path = join(&self.dir, &tablet_file_name(id));
        let file = self.vfs.create(&path, mem.bytes() as u64)?;
        let mut w = TabletWriter::new(
            file,
            (*schema).clone(),
            self.opts.block_size,
            self.opts.bloom_filters,
        );
        for (key, row) in mem.iter() {
            w.add_row(key, row)?;
        }
        let (min_ts, max_ts, rows, bytes) = w.finish()?;
        Ok(TabletMeta {
            id,
            min_ts,
            max_ts,
            rows,
            bytes,
            written_at: now,
            schema_version: schema.version(),
            cold: false,
            rolled_up: false,
        })
    }

    pub(super) fn save_descriptor_locked(&self, st: &TableState) -> Result<()> {
        let mut desc = TableDescriptor::new((*st.schema).clone(), st.ttl);
        desc.next_tablet_id = st.next_tablet_id;
        desc.tablets = st.metas();
        // Track save failures: the in-memory transition already committed,
        // so until a later save lands the on-disk `DESC` is stale and no
        // flush may report durability over it (see `resync_descriptor`).
        match desc.save(self.vfs.as_ref(), &self.dir) {
            Ok(()) => {
                self.desc_dirty.store(false, Ordering::Release);
                Ok(())
            }
            Err(e) => {
                self.desc_dirty.store(true, Ordering::Release);
                Err(e)
            }
        }
    }

    /// Re-saves the descriptor if a previous save failed after its
    /// transition committed in memory. Called on every `flush_all` /
    /// `maintain` so one bad save degrades a single operation, not the
    /// durability of every flush after it.
    fn resync_descriptor(&self) -> Result<()> {
        if !self.desc_dirty.load(Ordering::Acquire) {
            return Ok(());
        }
        let st = self.state.lock();
        if st.dropped {
            // Never re-materialize a descriptor for a dropped table: the
            // path may belong to a freshly created table of the same name.
            return Ok(());
        }
        self.save_descriptor_locked(&st)
    }

    /// Seals every filling tablet and flushes everything to disk.
    pub fn flush_all(&self) -> Result<()> {
        {
            let mut st = self.state.lock();
            let ids: Vec<MemTabletId> = st.filling.values().map(|t| t.id()).collect();
            for id in ids {
                self.seal_locked(&mut st, id);
            }
        }
        while self.flush_next_group()? {}
        self.resync_descriptor()
    }

    /// Flushes to disk every in-memory tablet holding rows with timestamps
    /// at or before `ts` — the command §4.1.2 of the paper proposes so
    /// that aggregators need not *assume* source data has reached disk.
    /// When this returns, every row with `row.ts <= ts` that was inserted
    /// before the call is durable.
    pub fn flush_before(&self, ts: Micros) -> Result<()> {
        {
            let mut st = self.state.lock();
            let ids: Vec<MemTabletId> = st
                .filling
                .values()
                .filter(|t| t.read().min_ts().is_some_and(|lo| lo <= ts))
                .map(|t| t.id())
                .collect();
            for id in ids {
                // The closure drags along any tablets that must flush
                // first, preserving prefix durability.
                if st.filling.values().any(|t| t.id() == id) {
                    self.seal_locked(&mut st, id);
                }
            }
        }
        while self.flush_next_group()? {}
        self.resync_descriptor()
    }

    // ----------------------------------------------------------- bulk delete

    /// Deletes every row whose primary key starts with `prefix` — the
    /// bulk-delete feature §7 of the paper describes investigating for
    /// compliance with regional privacy laws. In-memory data is flushed
    /// first; each affected on-disk tablet is rewritten without the
    /// matching rows (or dropped outright when nothing else remains), and
    /// the descriptor is replaced once. Returns the number of rows
    /// deleted.
    pub fn bulk_delete(&self, prefix: &[Value]) -> Result<u64> {
        let schema = self.schema();
        if prefix.is_empty() || prefix.len() >= schema.key_len() {
            return Err(Error::invalid(
                "bulk_delete takes a non-empty strict prefix of the key columns",
            ));
        }
        let encoded = encode_prefix(prefix, &schema.key_types())?;
        let range = KeyRange::for_prefix(encoded.clone());
        self.flush_all()?;

        // Take the merger's slot so no merge runs while we rewrite.
        {
            let mut st = self.state.lock();
            if st.merge_running {
                return Err(Error::invalid(
                    "bulk_delete cannot run while a merge is in progress",
                ));
            }
            st.merge_running = true;
        }
        let result = self.bulk_delete_inner(&schema, &encoded, &range);
        self.state.lock().merge_running = false;
        result
    }

    fn bulk_delete_inner(
        &self,
        schema: &SchemaRef,
        encoded: &[u8],
        range: &KeyRange,
    ) -> Result<u64> {
        let sources: Vec<DiskHandle> = self.state.lock().disk.clone();
        let now = self.clock.now_micros();
        let prefix_hash = hash_bytes(encoded);
        let mut deleted = 0u64;
        // (old id, replacement) pairs; None replacement = tablet dropped.
        let mut rewrites: Vec<(u64, Option<DiskHandle>)> = Vec::new();
        let mut new_ids: Vec<u64> = Vec::new();
        for h in &sources {
            let footer = h.reader.footer()?;
            if let Some(bloom) = &footer.bloom {
                if !bloom.may_contain(prefix_hash) {
                    continue;
                }
            }
            // Does this tablet hold any matching row at all?
            let probe = Source::tablet(h.reader.clone(), schema.clone(), range.clone());
            if RunCursor::new(vec![probe], false).next_run()?.is_none() {
                continue;
            }
            // Rewrite the tablet without the matching rows.
            let new_id = {
                let mut st = self.state.lock();
                let id = st.next_tablet_id;
                st.next_tablet_id += 1;
                id
            };
            new_ids.push(new_id);
            let path = join(&self.dir, &tablet_file_name(new_id));
            let file = self.vfs.create(&path, h.meta.bytes)?;
            let mut w = TabletWriter::new(
                file,
                (**schema).clone(),
                self.opts.block_size,
                self.opts.bloom_filters,
            );
            let mut src = RunSource::open(h.reader.clone())?;
            while let Some(block) = src.front() {
                // Keep the block's rows on either side of the prefix:
                // those before it, then (if that did not use the block
                // up) step over the matching rows and keep the rest.
                let len = block.len();
                let hit = block.rows_in_range(range)?;
                deleted += hit.len() as u64;
                src.emit_to(hit.start, &mut w, Micros::MIN)?;
                if hit.start < len {
                    src.advance_to(hit.end)?;
                    if hit.end < len {
                        src.emit_to(len, &mut w, Micros::MIN)?;
                    }
                }
            }
            if w.row_count() == 0 {
                drop(w);
                let _ = self.vfs.remove(&path);
                rewrites.push((h.meta.id, None));
            } else {
                let (min_ts, max_ts, rows, bytes) = w.finish()?;
                let meta = TabletMeta {
                    id: new_id,
                    min_ts,
                    max_ts,
                    rows,
                    bytes,
                    written_at: now,
                    schema_version: schema.version(),
                    cold: false,
                    rolled_up: h.meta.rolled_up,
                };
                rewrites.push((
                    h.meta.id,
                    Some(DiskHandle {
                        reader: self.new_reader(self.vfs.clone(), path),
                        meta,
                    }),
                ));
            }
        }
        if rewrites.is_empty() {
            return Ok(0);
        }
        // Single atomic commit, then reclaim the old files.
        let mut st = self.state.lock();
        for (old_id, replacement) in &rewrites {
            st.disk.retain(|h| h.meta.id != *old_id);
            if let Some(h) = replacement {
                st.disk.push(h.clone());
            }
        }
        st.sort_disk();
        self.publish_locked(&st);
        self.save_descriptor_locked(&st)?;
        drop(st);
        // A bulk delete mutates data without going through `insert`, so the
        // query-result cache's insert_seq key would otherwise keep serving
        // pre-delete results.
        self.insert_seq.fetch_add(1, Ordering::SeqCst);
        for (old_id, _) in &rewrites {
            let _ = self
                .vfs
                .remove(&join(&self.dir, &tablet_file_name(*old_id)));
        }
        Ok(deleted)
    }

    // ----------------------------------------------------------- maintenance

    /// Runs one maintenance pass at time `now`: seals aged tablets,
    /// flushes sealed groups, performs at most one merge, and reaps
    /// TTL-expired tablets.
    pub fn maintain(&self, now: Micros) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        // 1. Age-based seals (§3.4.1: flush no later than 10 minutes after
        //    a tablet's first insert).
        {
            let mut st = self.state.lock();
            let due: Vec<MemTabletId> = st
                .filling
                .values()
                .filter(|t| {
                    let mem = t.read();
                    !mem.is_empty() && now - mem.first_insert_at() >= self.opts.flush_age
                })
                .map(|t| t.id())
                .collect();
            report.sealed_by_age = due.len();
            for id in due {
                // The closure may have sealed it already with a sibling.
                if st.filling.values().any(|t| t.id() == id) {
                    self.seal_locked(&mut st, id);
                }
            }
        }
        // 2. Flush everything sealed.
        while self.flush_next_group()? {
            report.groups_flushed += 1;
        }
        // 3. One merge.
        if self.opts.merge_enabled && self.run_merge_once(now)? {
            report.merges = 1;
        }
        // 4. TTL expiry.
        report.tablets_expired = self.ttl_reap(now)?;
        // 5. Heal a descriptor left stale by an earlier failed save.
        self.resync_descriptor()?;
        Ok(report)
    }

    /// Performs at most one merge step; returns whether a merge ran.
    pub fn run_merge_once(&self, now: Micros) -> Result<bool> {
        let (sources, schema, ttl, new_id) = {
            let mut st = self.state.lock();
            if st.merge_running || st.dropped {
                return Ok(false);
            }
            let mut metas = st.metas();
            if self.rollup_source.load(Ordering::Acquire) {
                // Tablets not yet folded into every rollup must keep their
                // identity (fold idempotency is keyed on tablet id), so the
                // merger only considers rolled-up tablets here; the fold
                // pass marks tablets and unblocks them.
                metas.retain(|m| m.rolled_up);
            }
            let policy = self.opts.merge_policy();
            let Some(ids) = find_merge(&metas, now, &policy) else {
                return Ok(false);
            };
            st.merge_running = true;
            let sources: Vec<DiskHandle> = st
                .disk
                .iter()
                .filter(|h| ids.contains(&h.meta.id))
                .cloned()
                .collect();
            let new_id = st.next_tablet_id;
            st.next_tablet_id += 1;
            (sources, st.schema.clone(), st.ttl, new_id)
        };
        let result = self.execute_merge(&sources, &schema, ttl, new_id, now);
        let mut st = self.state.lock();
        st.merge_running = false;
        if st.dropped {
            // Dropped while merging: the sources are already gone from
            // the published snapshot (and their files deleted); committing
            // would write a descriptor into a directory this table no
            // longer owns. Abandon the merge output.
            drop(st);
            let _ = self.vfs.remove(&join(&self.dir, &tablet_file_name(new_id)));
            return Ok(false);
        }
        match result {
            Ok(new_handle) => {
                let source_ids: Vec<u64> = sources.iter().map(|h| h.meta.id).collect();
                st.disk.retain(|h| !source_ids.contains(&h.meta.id));
                if let Some(h) = new_handle {
                    st.disk.push(h);
                }
                st.sort_disk();
                self.publish_locked(&st);
                self.save_descriptor_locked(&st)?;
                drop(st);
                // Readers still holding the pre-merge snapshot keep the
                // source readers alive via Arc; file removal on the
                // SimVfs/posix VFS unlinks, so open handles stay valid.
                for h in &sources {
                    let _ = self.vfs.remove(&join(&self.dir, &h.meta.file_name()));
                }
                TableStats::add(&self.stats.merges, 1);
                Ok(true)
            }
            Err(e) => {
                drop(st);
                let _ = self.vfs.remove(&join(&self.dir, &tablet_file_name(new_id)));
                Err(e)
            }
        }
    }

    /// Merge-sorts `sources` into one new tablet (§3.4.1), translating
    /// rows to the newest schema and dropping rows that have already
    /// expired. Returns `None` when every row had expired.
    pub(super) fn execute_merge(
        &self,
        sources: &[DiskHandle],
        schema: &SchemaRef,
        ttl: Option<Micros>,
        new_id: u64,
        now: Micros,
    ) -> Result<Option<DiskHandle>> {
        let cutoff = ttl.map(|t| now.saturating_sub(t)).unwrap_or(Micros::MIN);
        let path = join(&self.dir, &tablet_file_name(new_id));
        let size_hint: u64 = sources.iter().map(|h| h.meta.bytes).sum();
        let file = self.vfs.create(&path, size_hint)?;
        let mut w = TabletWriter::new(
            file,
            (**schema).clone(),
            self.opts.block_size,
            self.opts.bloom_filters,
        );
        merge_runs(sources.iter().map(|h| h.reader.clone()), &mut w, cutoff)?;
        if w.row_count() == 0 {
            drop(w);
            let _ = self.vfs.remove(&path);
            return Ok(None);
        }
        let (min_ts, max_ts, rows, bytes) = w.finish()?;
        TableStats::add(&self.stats.bytes_merge_written, bytes);
        let meta = TabletMeta {
            id: new_id,
            min_ts,
            max_ts,
            rows,
            bytes,
            written_at: now,
            schema_version: schema.version(),
            cold: false,
            rolled_up: sources.iter().all(|h| h.meta.rolled_up),
        };
        Ok(Some(DiskHandle {
            reader: self.new_reader(self.vfs.clone(), path),
            meta,
        }))
    }

    /// Removes on-disk tablets whose every row has expired (§3.3).
    /// Returns the number of tablets reclaimed.
    pub fn ttl_reap(&self, now: Micros) -> Result<usize> {
        let dead: Vec<DiskHandle> = {
            let mut st = self.state.lock();
            if st.dropped {
                // drop_table already deleted (or is deleting) every file.
                return Ok(0);
            }
            let Some(ttl) = st.ttl else { return Ok(0) };
            if st.merge_running {
                // A merge may be reading any tablet; wait for the next pass.
                return Ok(0);
            }
            let cutoff = now.saturating_sub(ttl);
            let (keep, dead): (Vec<_>, Vec<_>) =
                st.disk.drain(..).partition(|h| h.meta.max_ts >= cutoff);
            st.disk = keep;
            if dead.is_empty() {
                return Ok(0);
            }
            self.publish_locked(&st);
            self.save_descriptor_locked(&st)?;
            dead
        };
        for h in &dead {
            let path = join(&self.dir, &h.meta.file_name());
            if h.meta.cold {
                if let Some(cold) = &self.cold_vfs {
                    let _ = cold.remove(&path);
                }
            } else {
                let _ = self.vfs.remove(&path);
            }
        }
        TableStats::add(&self.stats.tablets_expired, dead.len() as u64);
        Ok(dead.len())
    }

    // ------------------------------------------------------------ cold store

    /// Moves every on-disk tablet whose newest row is older than `cutoff`
    /// to the cold store (§6: "LHAM introduced the idea of moving older
    /// data in a log-structured system to write-once media... we are
    /// considering using Amazon S3 as an additional backing store for old
    /// LittleTable data"). Cold tablets keep serving queries through the
    /// cold VFS, are excluded from merging, and still expire by TTL.
    /// Returns the number of tablets migrated.
    pub fn migrate_to_cold(&self, cutoff: Micros) -> Result<usize> {
        let cold = self
            .cold_vfs
            .clone()
            .ok_or_else(|| Error::invalid("no cold store configured"))?;
        // Take the merger's slot so sources cannot be merged away.
        {
            let mut st = self.state.lock();
            if st.merge_running {
                return Ok(0);
            }
            st.merge_running = true;
        }
        let result = self.migrate_to_cold_inner(&cold, cutoff);
        self.state.lock().merge_running = false;
        result
    }

    fn migrate_to_cold_inner(&self, cold: &Arc<dyn Vfs>, cutoff: Micros) -> Result<usize> {
        let candidates: Vec<DiskHandle> = self
            .state
            .lock()
            .disk
            .iter()
            .filter(|h| !h.meta.cold && h.meta.max_ts < cutoff)
            .cloned()
            .collect();
        if candidates.is_empty() {
            return Ok(0);
        }
        cold.mkdir_all(&self.dir)?;
        let mut migrated = Vec::with_capacity(candidates.len());
        for h in &candidates {
            let path = join(&self.dir, &h.meta.file_name());
            let src = self.vfs.open(&path)?;
            let len = src.len()?;
            let mut buf = vec![0u8; len as usize];
            src.read_exact_at(0, &mut buf)?;
            let mut w = cold.create(&path, len)?;
            w.append(&buf)?;
            w.sync()?;
            let mut meta = h.meta.clone();
            meta.cold = true;
            migrated.push(DiskHandle {
                reader: self.new_reader(cold.clone(), path),
                meta,
            });
        }
        cold.sync_dir(&self.dir)?;
        // Single descriptor commit flips the tablets to the cold tier,
        // then the hot copies are reclaimed.
        let mut st = self.state.lock();
        for h in &migrated {
            st.disk.retain(|x| x.meta.id != h.meta.id);
            st.disk.push(h.clone());
        }
        st.sort_disk();
        self.publish_locked(&st);
        self.save_descriptor_locked(&st)?;
        drop(st);
        for h in &candidates {
            let _ = self.vfs.remove(&join(&self.dir, &h.meta.file_name()));
        }
        Ok(migrated.len())
    }

    // ---------------------------------------------------------- schema & ttl

    /// Appends a column to the schema (§3.5). Existing tablets are not
    /// rewritten; filling tablets are sealed so no tablet mixes schema
    /// versions.
    pub fn add_column(&self, col: crate::schema::ColumnDef) -> Result<()> {
        let mut st = self.state.lock();
        let new_schema = st.schema.add_column(col)?;
        self.install_schema_locked(&mut st, new_schema)
    }

    /// Widens an `int32` column to `int64` (§3.5).
    pub fn widen_column(&self, name: &str) -> Result<()> {
        let mut st = self.state.lock();
        let new_schema = st.schema.widen_column(name)?;
        self.install_schema_locked(&mut st, new_schema)
    }

    fn install_schema_locked(&self, st: &mut TableState, new_schema: Schema) -> Result<()> {
        let ids: Vec<MemTabletId> = st.filling.values().map(|t| t.id()).collect();
        for id in ids {
            if st.filling.values().any(|t| t.id() == id) {
                self.seal_locked(st, id);
            }
        }
        st.schema = Arc::new(new_schema);
        self.publish_locked(st);
        self.save_descriptor_locked(st)
    }

    /// Changes the table's TTL (§3.5).
    pub fn set_ttl(&self, ttl: Option<Micros>) -> Result<()> {
        let mut st = self.state.lock();
        st.ttl = ttl;
        self.publish_locked(&st);
        self.save_descriptor_locked(&st)
    }
}
