//! One LittleTable table: insert path, uniqueness enforcement, flushing
//! with dependency ordering, queries, latest-row-for-prefix, merging,
//! TTL expiry, and schema evolution.
//!
//! Module map:
//! * `state` — the mutable `TableState` behind the mutex and the
//!   immutable `TabletSnapshot` published to readers (an `Arc` swapped
//!   in an `RwLock` whose write side is held for the swap only);
//! * `write` — insert, uniqueness fast paths (§3.4.4), sealing;
//! * `read` — the one read view (`Table::view`) that `query`, `latest`
//!   and `pushdown_scan` start from, `query`/`latest` and the streaming
//!   `QueryCursor` over [`crate::cursor`]'s merge of block runs;
//! * `colscan` — the aggregate pushdown scan;
//! * `maintenance` — flush, merge, TTL reaping, rollup marks and schema
//!   evolution: tablets merged through the query's merge cursor, every
//!   transition through one commit that republishes the snapshot, every
//!   public call through one descriptor save.

mod colscan;
mod maintenance;
mod read;
mod state;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_ext;
#[cfg(test)]
mod tests_inherit;
#[cfg(test)]
mod tests_merge;
#[cfg(test)]
mod tests_seal;
mod write;

pub use colscan::{cmp_values, ColumnPredicate, PredOp, PushdownRequest, ScanUnit, Selection};
pub use read::QueryCursor;

use crate::cache::BlockCache;
use crate::descriptor::{parse_tablet_file_name, TableDescriptor, DESC_FILE, DESC_TMP};
use crate::error::{Error, Result};
use crate::options::Options;
use crate::rollup::RollupSpec;
#[cfg(test)]
use crate::schema::Schema;
use crate::schema::SchemaRef;
use crate::stats::TableStats;
use crate::tablet::TabletReader;
use littletable_vfs::{join, Clock, Micros, Vfs};
use parking_lot::{Mutex, RwLock};
use state::{DiskHandle, TableState, TabletSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

/// Suffix appended to a tablet file set aside by quarantine at open.
pub const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Whether an open-time tablet validation failure warrants quarantine:
/// the bytes are provably bad (corruption) or provably gone (missing
/// file). Anything else — notably transient I/O — must propagate.
fn should_quarantine(e: &Error) -> bool {
    if e.is_corruption() {
        return true;
    }
    matches!(e, Error::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
}

/// Outcome of an insert batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Rows accepted.
    pub inserted: usize,
    /// Rows rejected because their primary key already existed.
    pub duplicates: usize,
}

/// Outcome of one maintenance pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// In-memory tablets sealed because of age.
    pub sealed_by_age: usize,
    /// Sealed groups flushed to disk.
    pub groups_flushed: usize,
    /// Merges performed (0 or 1 per pass).
    pub merges: usize,
    /// On-disk tablets removed by TTL expiry.
    pub tablets_expired: usize,
    /// On-disk tablets folded into rollup tables.
    pub tablets_folded: usize,
}

/// The TTL horizon at `now`: a row stamped below it has expired (§3.3);
/// `Micros::MIN` without a TTL. Every read raises its window to it
/// (`Table::view`), merges drop the rows below it, the reaper the
/// tablets wholly below it, and the result cache keys on it.
pub(crate) fn ttl_horizon(ttl: Option<Micros>, now: Micros) -> Micros {
    ttl.map_or(Micros::MIN, |ttl| now.saturating_sub(ttl))
}

/// Refuses a TTL that is not positive, under which every row expires.
pub(crate) fn check_ttl(ttl: Option<Micros>) -> Result<()> {
    match ttl {
        Some(ttl) if ttl <= 0 => Err(Error::invalid(format!("TTL must be positive, got {ttl}"))),
        _ => Ok(()),
    }
}

/// Source of table generation numbers: a process-wide counter so a
/// dropped-and-recreated table of the same name never repeats a
/// generation, which is what lets the query-result cache key on it.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A handle to one table. All methods are safe to call concurrently.
pub struct Table {
    /// The table's name, and the name of its directory.
    name: String,
    vfs: Arc<dyn Vfs>,
    clock: Arc<dyn Clock>,
    opts: Arc<Options>,
    /// The block cache the [`crate::db::Db`] shares among its tables
    /// (empty when `Options::block_cache_bytes` is 0).
    cache: Arc<BlockCache>,
    stats: Arc<TableStats>,
    state: Mutex<TableState>,
    /// Notified, with the state mutex, when the maintenance slot is
    /// released (see `mark_dropped`).
    slot_freed: Condvar,
    /// The published read view; rebuilt and swapped (under the state
    /// mutex) at every tablet-set or schema transition.
    snapshot: RwLock<Arc<TabletSnapshot>>,
    /// Table-wide insert sequence, stamped onto each row inside its
    /// memtablet's write lock. Readers load it *before* loading the
    /// snapshot and ignore memtable rows stamped at or above the loaded
    /// value, which makes a multi-tablet read a consistent point-in-time
    /// view without holding any table-wide lock (see `Table::view`).
    insert_seq: AtomicU64,
    /// Serializes slow-path uniqueness checks so disk reads never happen
    /// under the state mutex (§3.4.4).
    insert_lock: Mutex<()>,
    /// Serializes flushes so sealed groups commit strictly FIFO.
    flush_lock: Mutex<()>,
    /// Process-unique incarnation number (from [`NEXT_GENERATION`]);
    /// result-cache entries embed it so a drop/recreate cycle can never
    /// serve a previous incarnation's rows.
    generation: u64,
    /// True when a rollup names this table as its base, which restricts
    /// merging to rolled-up tablets; written by the catalog's publish.
    pub(crate) rollup_source: AtomicBool,
    /// This table's definition when it is a rollup table, and its
    /// attached mark (see [`Table::attach`]); every descriptor save
    /// writes both.
    rollup: Option<Arc<RollupSpec>>,
    pub(crate) attached: AtomicBool,
}

/// The table's one maintenance slot, held. While it lives no merge or
/// rollup fold starts and the TTL reaper leaves the tablet set alone, so
/// the tablets its holder reads stay in the table. Released on drop.
pub(crate) struct MergeSlot<'a>(&'a Table);

impl Drop for MergeSlot<'_> {
    fn drop(&mut self) {
        self.0.state.lock().merge_running = false;
        self.0.slot_freed.notify_all();
    }
}

impl Table {
    /// Creates table `name`, as `desc` describes it, in the directory of
    /// that name. A rollup table is not attached yet (see [`Table::attach`]).
    pub(crate) fn create(
        vfs: Arc<dyn Vfs>,
        clock: Arc<dyn Clock>,
        opts: Arc<Options>,
        cache: Arc<BlockCache>,
        name: String,
        desc: TableDescriptor,
    ) -> Result<Arc<Table>> {
        vfs.mkdir_all(&name)?;
        desc.save(vfs.as_ref(), &name)?;
        vfs.sync_dir(littletable_vfs::parent(&name))?;
        let (stats, disk) = (Arc::default(), Vec::new());
        Ok(Table::assemble(
            vfs, clock, opts, cache, stats, name, desc, disk,
        ))
    }

    /// Opens table `name` from the directory of that name.
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        clock: Arc<dyn Clock>,
        opts: Arc<Options>,
        cache: Arc<BlockCache>,
        name: String,
    ) -> Result<Arc<Table>> {
        let mut desc = TableDescriptor::load(vfs.as_ref(), &name)?;
        desc.sort_tablets();
        // Delete the orphan tablet files a crash mid-flush or mid-merge
        // left: those the descriptor does not list, never committed or
        // committed away. Quarantined files are evidence, not orphans; the
        // descriptor is not a tablet.
        for entry in vfs.list_dir(&name)? {
            let kept = match parse_tablet_file_name(&entry) {
                Some(id) => desc.tablets.iter().any(|t| t.id == id),
                None => {
                    [DESC_FILE, DESC_TMP].contains(&entry.as_str())
                        || entry.ends_with(QUARANTINE_SUFFIX)
                }
            };
            if !kept {
                let _ = vfs.remove(&join(&name, &entry));
            }
        }
        let stats = Arc::new(TableStats::default());
        // Validate every referenced tablet's footer eagerly. A tablet that
        // is missing or fails validation is quarantined (renamed aside,
        // dropped from the descriptor): a telemetry store that refuses to
        // start over one bad file loses more data than it protects.
        // Transient I/O errors always propagate — a flaky disk is not
        // corruption.
        let mut disk: Vec<DiskHandle> = Vec::new();
        let mut quarantined = 0u64;
        for meta in &desc.tablets {
            let path = join(&name, &meta.file_name());
            // Probe with a throwaway reader and its own empty cache:
            // validation must not warm the shared cache, or the first
            // query after open would look cold-cache fast and the paper's
            // ~4-seek first-row cost would vanish.
            let probe = TabletReader::new(vfs.clone(), path.clone());
            match probe.footer() {
                Ok(_) => disk.push(DiskHandle {
                    reader: Arc::new(TabletReader::with_cache(
                        vfs.clone(),
                        path.clone(),
                        cache.clone(),
                        stats.clone(),
                    )),
                    meta: meta.clone(),
                }),
                Err(e) if should_quarantine(&e) => {
                    if vfs.exists(&path) {
                        let aside = format!("{path}{QUARANTINE_SUFFIX}");
                        let _ = vfs.rename(&path, &aside);
                        let _ = vfs.sync_dir(&name);
                    }
                    quarantined += 1;
                }
                Err(e) => return Err(e),
            }
        }
        TableStats::add(&stats.tablets_quarantined, quarantined);
        let table = Table::assemble(vfs, clock, opts, cache, stats, name, desc, disk);
        // Drop the quarantined tablets from `DESC` so the next open does not
        // re-report them; a failed save is retried by the next call's.
        table.state.lock().desc_dirty = quarantined > 0;
        let _ = table.persist(Vec::new());
        Ok(table)
    }

    /// The one constructor behind `create` and `open`: the table `desc`
    /// describes, with `disk` its validated on-disk tablets.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        vfs: Arc<dyn Vfs>,
        clock: Arc<dyn Clock>,
        opts: Arc<Options>,
        cache: Arc<BlockCache>,
        stats: Arc<TableStats>,
        name: String,
        desc: TableDescriptor,
        disk: Vec<DiskHandle>,
    ) -> Arc<Table> {
        let state = TableState {
            max_ts: desc.max_ts().unwrap_or(Micros::MIN),
            schema: Arc::new(desc.schema),
            ttl: desc.ttl,
            next_tablet_id: desc.next_tablet_id,
            next_mem_id: 1,
            filling: HashMap::new(),
            sealed: VecDeque::new(),
            disk,
            merge_running: false,
            dropped: false,
            desc_dirty: false,
        };
        let snapshot = RwLock::new(Arc::new(state.build_snapshot()));
        Arc::new(Table {
            name,
            vfs,
            clock,
            opts,
            cache,
            stats,
            state: Mutex::new(state),
            slot_freed: Condvar::new(),
            snapshot,
            insert_seq: AtomicU64::new(0),
            insert_lock: Mutex::new(()),
            flush_lock: Mutex::new(()),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            rollup_source: AtomicBool::new(false),
            attached: AtomicBool::new(desc.attached),
            rollup: desc.rollup,
        })
    }

    // ------------------------------------------------------ snapshot plumbing

    /// Rebuilds and publishes the read snapshot from the current state.
    /// The caller holds the state mutex, which serializes stores.
    pub(crate) fn publish_locked(&self, st: &TableState) {
        let new = Arc::new(st.build_snapshot());
        let old = std::mem::replace(&mut *self.snapshot.write(), new);
        // Released after the write guard: the superseded snapshot may be
        // the last owner of flushed memtablets and merged-away readers.
        drop(old);
        TableStats::add(&self.stats.snapshot_publishes, 1);
    }

    /// Builds a reader for a newly written tablet file, registered with
    /// the shared block cache under a fresh cache-tablet id.
    fn new_reader(&self, path: String) -> Arc<TabletReader> {
        let (vfs, cache, stats) = (self.vfs.clone(), self.cache.clone(), self.stats.clone());
        Arc::new(TabletReader::with_cache(vfs, path, cache, stats))
    }

    // -------------------------------------------------------------- accessors

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current schema.
    pub fn schema(&self) -> SchemaRef {
        self.snapshot.read().schema.clone()
    }

    /// The current TTL.
    pub fn ttl(&self) -> Option<Micros> {
        self.snapshot.read().ttl
    }

    /// Operational counters.
    pub fn stats(&self) -> &Arc<TableStats> {
        &self.stats
    }

    /// The engine's current time (for clients that let the server stamp
    /// row timestamps, §3.1).
    pub fn now(&self) -> Micros {
        self.clock.now_micros()
    }

    /// Number of on-disk tablets.
    pub fn num_disk_tablets(&self) -> usize {
        self.snapshot.read().disk.len()
    }

    /// Number of filling in-memory tablets.
    pub fn num_filling(&self) -> usize {
        self.state.lock().filling.len()
    }

    /// Total compressed bytes across on-disk tablets.
    pub fn disk_bytes(&self) -> u64 {
        self.snapshot.read().disk.iter().map(|h| h.meta.bytes).sum()
    }

    /// Total rows across on-disk tablets (per descriptor counts).
    pub fn disk_rows(&self) -> u64 {
        self.snapshot.read().disk.iter().map(|h| h.meta.rows).sum()
    }

    /// Process-unique incarnation number of this table handle. Two tables
    /// of the same name created at different times have different
    /// generations; the query-result cache keys on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current value of the table-wide insert sequence. Monotone: it
    /// advances on every insert, and only there, so two equal reads
    /// bracketing a computation prove no write landed in between.
    pub fn insert_seq(&self) -> u64 {
        self.insert_seq.load(Ordering::SeqCst)
    }

    /// The rollup watermark: every row with `ts` strictly below this is in
    /// a rolled-up on-disk tablet. Rows in memtablets or in not-yet-folded
    /// disk tablets push the watermark down to their smallest timestamp;
    /// with nothing unfolded the watermark is `Micros::MAX`.
    pub fn rollup_watermark(&self) -> Micros {
        let st = self.state.lock();
        let unfolded = st.disk.iter().filter(|h| !h.meta.rolled_up);
        let mem = st.mem_tablets().filter_map(|t| t.read().min_ts());
        let lows = unfolded.map(|h| h.meta.min_ts).chain(mem);
        lows.min().unwrap_or(Micros::MAX)
    }

    /// This table's definition when it is a rollup table.
    pub fn rollup(&self) -> Option<&Arc<RollupSpec>> {
        self.rollup.as_ref()
    }

    /// Saves this rollup table's descriptor with the attached mark: the
    /// one save that commits its `CREATE ROLLUP`.
    pub(crate) fn attach(&self) -> Result<()> {
        self.attached.store(true, Ordering::Relaxed);
        let mut st = self.state.lock();
        st.desc_dirty = true;
        self.save_locked(&mut st)
    }

    /// True when some rollup in the database's catalog names this table
    /// as its base, which restricts merging to already-folded tablets.
    pub fn is_rollup_source(&self) -> bool {
        self.rollup_source.load(Ordering::Acquire)
    }

    /// The on-disk tablets whose `rolled_up` mark is `rolled_up`, with
    /// their readers, once saved (a fold must see no tablet a crash can
    /// take away, whose id would be reused).
    pub(crate) fn disk_tablets(&self, rolled_up: bool) -> Result<Vec<DiskHandle>> {
        let mut st = self.state.lock();
        self.save_locked(&mut st)?;
        let listed = st.disk.iter().filter(|h| h.meta.rolled_up == rolled_up);
        Ok(listed.cloned().collect())
    }

    /// Takes the maintenance slot, unless it is taken or `pick` — run
    /// under the same hold of the state mutex, so what it picks from the
    /// state is what the slot then protects — finds nothing to do.
    /// `Error::NoSuchTable` for a dropped table.
    pub(crate) fn merge_slot<T>(
        &self,
        pick: impl FnOnce(&TableState) -> Option<T>,
    ) -> Result<Option<(MergeSlot<'_>, T)>> {
        let mut st = self.state.lock();
        if st.dropped {
            return Err(Error::NoSuchTable(self.name.clone()));
        }
        if st.merge_running {
            return Ok(None);
        }
        Ok(pick(&st).map(|picked| {
            st.merge_running = true;
            (MergeSlot(self), picked)
        }))
    }

    /// Marks the given on-disk tablets as folded into every registered
    /// rollup.
    pub(crate) fn mark_rolled_up(&self, ids: &[u64]) -> Result<()> {
        let marked = self.persisting(|_| {
            self.commit(self.written(None), |st| {
                let unmarked = |h: &&mut DiskHandle| ids.contains(&h.meta.id) && !h.meta.rolled_up;
                let mut changed = false;
                for h in st.disk.iter_mut().filter(unmarked) {
                    h.meta.rolled_up = true;
                    changed = true;
                }
                Ok(changed.then(Vec::new))
            })
        });
        maintenance::or_if_dropped(marked.map(drop), ())
    }

    pub(crate) fn mark_dropped(&self) {
        {
            let mut st = self.state.lock();
            st.dropped = true;
            self.publish_locked(&st);
            // Wait out the maintenance slot's holder too. A rewrite in
            // flight has an id of this incarnation and maybe its file; once
            // `drop_table` deletes the directory, a recreated table can
            // write a tablet of that id, and the refused rewrite's cleanup
            // would unlink it. `merge_slot` refuses a dropped table, so no
            // new holder starts.
            let freed = self.slot_freed.wait_while(st, |st| st.merge_running);
            drop(freed.unwrap_or_else(PoisonError::into_inner));
        }
        // Drain any in-flight flush before returning: its commit step
        // re-checks `dropped` under the state lock, so once we can take
        // the flush lock no future flush will add files or a descriptor
        // to the directory `drop_table` is about to delete.
        drop(self.flush_lock.lock());
    }

    pub(crate) fn dir(&self) -> &str {
        &self.name
    }
}
