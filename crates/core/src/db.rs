//! The database: a collection of tables under one VFS root, plus optional
//! background maintenance.
//!
//! LittleTable runs as an independent server process (§3.1); this type is
//! the embeddable engine behind it. Opening a database scans the root for
//! table directories, loads each descriptor, and deletes any tablet files
//! a crash left uncommitted.
//!
//! The table catalog is published the same way each table publishes its
//! tablet set: an immutable [`CatalogSnapshot`] in an `RwLock<Arc<_>>`.
//! `Db::table()` and `list_tables()` — the calls §2.2 assumes are free
//! enough that clients create and query hundreds of tables — take the
//! read lock for one `Arc` clone, and the write lock is only ever held
//! for a pointer swap, so server worker shards and maintenance sweeps
//! never wait on DDL's file I/O. `create_table`/`drop_table` serialize
//! on a small writer mutex and publish copy-on-write snapshots; a
//! dropped table's `Arc<Table>` stays fully usable by in-flight readers
//! while every *new* snapshot excludes it.

use crate::cache::BlockCache;
use crate::error::{Error, Result};
use crate::options::Options;
use crate::resultcache::ResultCache;
use crate::rollup::{self, RollupSpec};
use crate::schema::Schema;
use crate::stats::{DbStats, DbStatsSnapshot, TableStats};
use crate::table::{MaintenanceReport, Table};
use littletable_vfs::{Clock, Micros, StdVfs, SystemClock, Vfs};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Returns the parent (database root) of a table directory.
pub(crate) fn root_of(dir: &str) -> &str {
    littletable_vfs::parent(dir)
}

fn valid_table_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        && !name.starts_with('.')
}

/// One immutable, atomically published view of the table catalog.
/// Readers resolve names against whichever snapshot they loaded; writers
/// build a new snapshot copy-on-write and publish it whole. Names are
/// interned as `Arc<str>` so the copy-on-write clone a DDL writer pays
/// is O(n) refcount bumps, not O(n) string allocations.
struct CatalogSnapshot {
    tables: HashMap<Arc<str>, Arc<Table>>,
    /// Precomputed so `list_tables` is one pass over a sorted list
    /// instead of a collect-and-sort per call.
    sorted_names: Vec<Arc<str>>,
}

impl CatalogSnapshot {
    fn new(tables: HashMap<Arc<str>, Arc<Table>>) -> CatalogSnapshot {
        let mut sorted_names: Vec<Arc<str>> = tables.keys().cloned().collect();
        sorted_names.sort();
        CatalogSnapshot {
            tables,
            sorted_names,
        }
    }
}

struct DbInner {
    vfs: Arc<dyn Vfs>,
    cold_vfs: Option<Arc<dyn Vfs>>,
    clock: Arc<dyn Clock>,
    opts: Arc<Options>,
    /// One two-tier block-and-footer cache shared by every table: hot
    /// decompressed blocks and tablet footers in the upper tier,
    /// compressed bytes of demoted blocks in the lower, all under the
    /// joint `Options::block_cache_bytes` budget. `None` when that
    /// budget is 0 (uncached reads, unbounded per-reader footers — the
    /// paper's behavior).
    cache: Option<Arc<BlockCache>>,
    /// The current catalog. Readers clone the `Arc` out; writers,
    /// serialized by `catalog_lock`, build the next snapshot off to the
    /// side and hold the write lock only to swap it in.
    catalog: RwLock<Arc<CatalogSnapshot>>,
    /// Serializes catalog writers (`create_table`/`drop_table`) — held
    /// across a drop's file deletion too, so recreating the same name
    /// cannot interleave with the old directory's teardown.
    catalog_lock: Mutex<()>,
    stats: DbStats,
    /// Registered rollup definitions (each also durably recorded as a
    /// `ROLLUP` file inside its rollup table's directory). Read by the
    /// maintenance fold pass and the SQL planner; written only by
    /// `create_rollup` / `drop_rollup` / `drop_table`.
    rollups: RwLock<Vec<Arc<RollupSpec>>>,
    /// The query-result cache; `None` when its budget carve-out is 0.
    result_cache: Option<Arc<ResultCache>>,
    shutdown: Arc<AtomicBool>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// A LittleTable database handle. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl Db {
    /// Opens (or initializes) a database over `vfs`, recovering every
    /// table found under the root.
    pub fn open(vfs: Arc<dyn Vfs>, clock: Arc<dyn Clock>, opts: Options) -> Result<Db> {
        Db::open_with_cold(vfs, None, clock, opts)
    }

    /// As [`Db::open`], with an additional write-once cold store for old
    /// tablets (§6; see [`Table::migrate_to_cold`]).
    pub fn open_with_cold(
        vfs: Arc<dyn Vfs>,
        cold_vfs: Option<Arc<dyn Vfs>>,
        clock: Arc<dyn Clock>,
        opts: Options,
    ) -> Result<Db> {
        let opts = Arc::new(opts);
        let (decompressed, compressed) = opts.cache_tier_budgets();
        let cache = (decompressed + compressed > 0).then(|| {
            Arc::new(BlockCache::new(
                decompressed,
                compressed,
                opts.block_cache_shards,
            ))
        });
        let result_cache = {
            let budget = opts.result_cache_budget();
            (budget > 0).then(|| Arc::new(ResultCache::new(budget)))
        };
        let mut tables = HashMap::new();
        for entry in vfs.list_dir("").unwrap_or_default() {
            let desc_path = littletable_vfs::join(&entry, crate::descriptor::DESC_FILE);
            if !vfs.exists(&desc_path) {
                continue;
            }
            let table = Table::open(
                vfs.clone(),
                cold_vfs.clone(),
                clock.clone(),
                opts.clone(),
                cache.clone(),
                entry.clone(),
                entry.clone(),
            )?;
            tables.insert(Arc::from(entry.as_str()), table);
        }
        // Recover rollup definitions: a table directory holding a ROLLUP
        // spec file is a rollup table. Bases get their source flag set
        // before the background worker can start merging.
        let mut rollups: Vec<Arc<RollupSpec>> = Vec::new();
        for (name, table) in &tables {
            let spec_path = littletable_vfs::join(table.dir(), rollup::SPEC_FILE);
            if !vfs.exists(&spec_path) {
                continue;
            }
            let spec = RollupSpec::load(vfs.as_ref(), table.dir())?;
            let dir_name: &str = name;
            if spec.name != dir_name {
                return Err(Error::corrupt(format!(
                    "rollup spec in {:?} names table {:?}",
                    name, spec.name
                )));
            }
            rollups.push(Arc::new(spec));
        }
        for spec in &rollups {
            if let Some(base) = tables.get(spec.base.as_str()) {
                base.set_rollup_source(true);
            }
        }
        let inner = Arc::new(DbInner {
            vfs,
            cold_vfs,
            clock,
            opts,
            cache,
            catalog: RwLock::new(Arc::new(CatalogSnapshot::new(tables))),
            catalog_lock: Mutex::new(()),
            stats: DbStats::default(),
            rollups: RwLock::new(rollups),
            result_cache,
            shutdown: Arc::new(AtomicBool::new(false)),
            worker: Mutex::new(None),
        });
        let db = Db { inner };
        if db.inner.opts.background {
            db.start_background_worker();
        }
        Ok(db)
    }

    /// Opens a database on the local file system with the wall clock.
    pub fn open_local(path: impl Into<std::path::PathBuf>, opts: Options) -> Result<Db> {
        let vfs = Arc::new(StdVfs::new(path)?);
        Db::open(vfs, Arc::new(SystemClock), opts)
    }

    fn start_background_worker(&self) {
        let db = self.clone();
        let shutdown = self.inner.shutdown.clone();
        let interval = std::time::Duration::from_millis(self.inner.opts.maintenance_interval_ms);
        let handle = std::thread::Builder::new()
            .name("littletable-maintenance".into())
            .spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    // Maintenance errors are retried next tick; a real
                    // deployment would log them.
                    let _ = db.maintain();
                }
            })
            .expect("spawn maintenance thread");
        *self.inner.worker.lock() = Some(handle);
    }

    /// The engine clock's current time.
    pub fn now(&self) -> Micros {
        self.inner.clock.now_micros()
    }

    /// The options this database was opened with.
    pub fn options(&self) -> &Options {
        &self.inner.opts
    }

    /// The underlying VFS.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.inner.vfs
    }

    /// The engine clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// The shared decompressed-block cache, or `None` when disabled via
    /// [`Options::block_cache_bytes`].
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.inner.cache.as_ref()
    }

    /// The current catalog snapshot, counted in `catalog_loads`.
    fn load_catalog(&self) -> Arc<CatalogSnapshot> {
        TableStats::add(&self.inner.stats.catalog_loads, 1);
        self.inner.catalog.read().clone()
    }

    /// Publishes `tables` as the new catalog. Callers must hold
    /// `catalog_lock`.
    fn publish_catalog_locked(&self, tables: HashMap<Arc<str>, Arc<Table>>) {
        let new = Arc::new(CatalogSnapshot::new(tables));
        let old = std::mem::replace(&mut *self.inner.catalog.write(), new);
        // Released here, after the write guard: a superseded catalog may
        // be the last owner of a dropped table.
        drop(old);
        TableStats::add(&self.inner.stats.catalog_publishes, 1);
    }

    /// Creates a table. Fails if the name is taken or invalid.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        ttl: Option<Micros>,
    ) -> Result<Arc<Table>> {
        if !valid_table_name(name) {
            return Err(Error::invalid(format!("invalid table name {name:?}")));
        }
        let _writer = self.inner.catalog_lock.lock();
        let snap = self.load_catalog();
        if snap.tables.contains_key(name) {
            return Err(Error::TableExists(name.to_string()));
        }
        let table = Table::create(
            self.inner.vfs.clone(),
            self.inner.cold_vfs.clone(),
            self.inner.clock.clone(),
            self.inner.opts.clone(),
            self.inner.cache.clone(),
            name.to_string(),
            name.to_string(),
            schema,
            ttl,
        )?;
        let mut tables = snap.tables.clone();
        tables.insert(Arc::from(name), table.clone());
        self.publish_catalog_locked(tables);
        Ok(table)
    }

    /// Looks up a table by name in the current catalog snapshot.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.load_catalog()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    /// All table names, sorted (the published snapshot keeps its name
    /// list presorted).
    pub fn list_tables(&self) -> Vec<String> {
        let cat = self.load_catalog();
        cat.sorted_names.iter().map(|n| n.to_string()).collect()
    }

    /// Drops a table and deletes its files. Applications drop and recreate
    /// tables freely during feature development (§3.5).
    ///
    /// In-flight readers are unaffected: any `Arc<Table>` or open cursor
    /// obtained before the drop keeps working against the data it can
    /// already see (open file handles survive the unlink). *New* queries
    /// on a stale handle fail with [`Error::NoSuchTable`], and the name
    /// is free for recreation the moment this returns — the writer lock
    /// is held across the file deletion, so a recreated table can never
    /// interleave with its predecessor's teardown.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        // If `name` is itself a rollup table, retire its spec first (and
        // the base's source flag when it was the last rollup over it).
        let removed_spec: Option<Arc<RollupSpec>> = {
            let mut reg = self.inner.rollups.write();
            reg.iter()
                .position(|s| s.name == name)
                .map(|i| reg.remove(i))
        };
        if let Some(spec) = &removed_spec {
            if self.rollup_specs_for(&spec.base).is_empty() {
                if let Ok(base) = self.table(&spec.base) {
                    base.set_rollup_source(false);
                }
            }
        }
        // If `name` is a base with rollups, cascade: the derived tables
        // are meaningless without their source. Specs come out of the
        // registry before any directory is touched so a concurrent
        // maintenance pass cannot fold into a table being deleted.
        let dependents: Vec<Arc<RollupSpec>> = {
            let mut reg = self.inner.rollups.write();
            let deps: Vec<_> = reg.iter().filter(|s| s.base == name).cloned().collect();
            reg.retain(|s| s.base != name);
            deps
        };
        self.drop_table_inner(name)?;
        for dep in &dependents {
            // Best-effort: the dependent may already be gone.
            let _ = self.drop_table_inner(&dep.name);
        }
        Ok(())
    }

    /// Drops exactly one table (no rollup cascade): unpublish, tear down,
    /// delete files, and flush the result cache's entries for it.
    fn drop_table_inner(&self, name: &str) -> Result<()> {
        let _writer = self.inner.catalog_lock.lock();
        let snap = self.load_catalog();
        let table = snap
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))?;
        let mut tables = snap.tables.clone();
        tables.remove(name);
        self.publish_catalog_locked(tables);
        // Belt and braces: result-cache keys embed the generation, so a
        // recreated table can never hit the old entries — this just
        // releases their memory promptly.
        if let Some(rc) = &self.inner.result_cache {
            rc.invalidate_generation(table.generation());
        }
        // Stop the table's own write/maintenance machinery (this waits
        // out any in-flight flush), then delete its files.
        table.mark_dropped();
        let dir = table.dir().to_string();
        for entry in self.inner.vfs.list_dir(&dir).unwrap_or_default() {
            let _ = self.inner.vfs.remove(&littletable_vfs::join(&dir, &entry));
        }
        if let Some(cold) = &self.inner.cold_vfs {
            for entry in cold.list_dir(&dir).unwrap_or_default() {
                let _ = cold.remove(&littletable_vfs::join(&dir, &entry));
            }
        }
        Ok(())
    }

    // --------------------------------------------------------------- rollups

    /// Creates a rollup table over `base` with the given bucket `period`:
    /// a derived table maintaining per-period row counts, per-column
    /// sums/extrema for `value_cols`, and HyperLogLog distinct sketches
    /// for `distinct_cols` (see [`crate::rollup`]).
    ///
    /// The current contents of `base` are backfilled before this returns;
    /// thereafter every maintenance pass folds newly flushed tablets. The
    /// rollup's TTL is the base's TTL plus one period, so a bucket
    /// outlives the youngest raw row that contributed to it.
    pub fn create_rollup(
        &self,
        name: &str,
        base: &str,
        period: Micros,
        value_cols: Vec<String>,
        distinct_cols: Vec<String>,
    ) -> Result<Arc<Table>> {
        let base_table = self.table(base)?;
        if self.inner.rollups.read().iter().any(|s| s.name == base) {
            return Err(Error::invalid("cannot create a rollup over a rollup"));
        }
        let spec = Arc::new(RollupSpec {
            name: name.to_string(),
            base: base.to_string(),
            period,
            value_cols,
            distinct_cols,
        });
        let schema = rollup::rollup_schema(&base_table.schema(), &spec)?;
        let ttl = base_table.ttl().map(|t| t.saturating_add(period));
        let table = self.create_table(name, schema, ttl)?;
        // Backfill every existing disk tablet into *all* of the base's
        // rollups (already-folded pairs are rejected as duplicates), so
        // the rolled_up marks this fold commits stay truthful for the
        // new spec too. A crash before the spec file lands leaves an
        // orphan plain table and an unfolded base — re-running CREATE
        // ROLLUP after dropping the orphan recovers.
        let mut targets = self.rollup_targets_for(base)?;
        targets.push((spec.clone(), table.clone()));
        let backfill = base_table
            .flush_all()
            .and_then(|()| rollup::fold_base(&base_table, &targets, true));
        if let Err(e) = backfill {
            let _ = self.drop_table_inner(name);
            return Err(e);
        }
        spec.save(self.inner.vfs.as_ref(), table.dir())?;
        self.inner.rollups.write().push(spec);
        base_table.set_rollup_source(true);
        Ok(table)
    }

    /// Drops a rollup table and unregisters its definition. The base
    /// table is untouched (and becomes freely mergeable again when this
    /// was its last rollup).
    pub fn drop_rollup(&self, name: &str) -> Result<()> {
        if !self.inner.rollups.read().iter().any(|s| s.name == name) {
            return Err(Error::invalid(format!("no such rollup {name:?}")));
        }
        self.drop_table(name)
    }

    /// The registered rollup definitions over `base`.
    pub fn rollup_specs_for(&self, base: &str) -> Vec<Arc<RollupSpec>> {
        self.inner
            .rollups
            .read()
            .iter()
            .filter(|s| s.base == base)
            .cloned()
            .collect()
    }

    /// Every registered rollup definition.
    pub fn list_rollups(&self) -> Vec<Arc<RollupSpec>> {
        self.inner.rollups.read().clone()
    }

    /// The query-result cache, or `None` when disabled via
    /// [`Options::result_cache_fraction`].
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.inner.result_cache.as_ref()
    }

    /// Resolves `base`'s rollup specs to `(spec, rollup table)` pairs.
    fn rollup_targets_for(&self, base: &str) -> Result<Vec<(Arc<RollupSpec>, Arc<Table>)>> {
        let mut out = Vec::new();
        for spec in self.rollup_specs_for(base) {
            let table = self.table(&spec.name)?;
            out.push((spec, table));
        }
        Ok(out)
    }

    /// Folds `base`'s not-yet-rolled-up tablets into its rollups.
    fn fold_table(&self, base: &str) -> Result<usize> {
        let targets = self.rollup_targets_for(base)?;
        if targets.is_empty() {
            return Ok(0);
        }
        let Ok(base_table) = self.table(base) else {
            return Ok(0);
        };
        rollup::fold_base(&base_table, &targets, false)
    }

    /// Runs one maintenance pass over every table at the current clock
    /// time. Returns the merged report.
    ///
    /// Transient I/O errors ([`Error::is_transient`]) are retried in place
    /// up to three times, with a backoff that doubles from 10 ms; every
    /// retry bumps the table's `io_retries` counter. An error that
    /// survives its retries (or is not transient to begin with) bumps
    /// `maintenance_errors`, and the pass continues over the remaining
    /// tables so one sick table can't starve the rest — the first such
    /// error is returned at the end.
    pub fn maintain(&self) -> Result<MaintenanceReport> {
        let now = self.now();
        let snap = self.load_catalog();
        let mut total = MaintenanceReport::default();
        let mut first_err = None;
        for t in snap.tables.values() {
            match self.maintain_one(t, now) {
                Ok(r) => {
                    total.sealed_by_age += r.sealed_by_age;
                    total.groups_flushed += r.groups_flushed;
                    total.merges += r.merges;
                    total.tablets_expired += r.tablets_expired;
                }
                Err(e) => {
                    TableStats::add(&t.stats().maintenance_errors, 1);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        // Fold freshly flushed base tablets into their rollup tables.
        // This runs after the per-table pass so a tablet flushed above is
        // folded in the same sweep.
        let bases: Vec<String> = {
            let reg = self.inner.rollups.read();
            let mut bases: Vec<String> = reg.iter().map(|s| s.base.clone()).collect();
            bases.sort();
            bases.dedup();
            bases
        };
        for base in &bases {
            match self.fold_table(base) {
                Ok(n) => total.tablets_folded += n,
                Err(e) => {
                    if let Ok(t) = self.table(base) {
                        TableStats::add(&t.stats().maintenance_errors, 1);
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Runs one maintenance pass over a single table (same retry
    /// semantics as [`Db::maintain`]). The per-table write shards of the
    /// server's group committer drive this so distinct tables commit
    /// independently instead of through one whole-catalog sweep.
    pub fn maintain_table(&self, name: &str) -> Result<MaintenanceReport> {
        let t = self.table(name)?;
        let now = self.now();
        let mut report = self.maintain_one(&t, now).inspect_err(|_| {
            TableStats::add(&t.stats().maintenance_errors, 1);
        })?;
        report.tablets_folded = self.fold_table(name).inspect_err(|_| {
            TableStats::add(&t.stats().maintenance_errors, 1);
        })?;
        Ok(report)
    }

    /// Shim for the frozen `e2e` benchmark, which still calls it after
    /// each maintenance pass: the cache's tier split is static, so there
    /// is nothing to rebalance. Always `false`; a `[benchmark]` follow-up
    /// removes the call and then this.
    pub fn rebalance_cache(&self) -> bool {
        false
    }

    /// Database-wide counters: catalog snapshot traffic and the result
    /// cache's telemetry.
    pub fn stats(&self) -> DbStatsSnapshot {
        let mut snap = DbStatsSnapshot {
            catalog_loads: self.inner.stats.catalog_loads.load(Ordering::Relaxed),
            catalog_publishes: self.inner.stats.catalog_publishes.load(Ordering::Relaxed),
            tables: self.load_catalog().tables.len() as u64,
            cache_split_fraction: Options::COMPRESSED_CACHE_FRACTION,
            ..DbStatsSnapshot::default()
        };
        if let Some(rc) = &self.inner.result_cache {
            snap.result_cache_hits = rc.hits();
            snap.result_cache_misses = rc.misses();
            snap.result_cache_entries = rc.entries() as u64;
            snap.result_cache_bytes = rc.bytes() as u64;
        }
        snap
    }

    /// How many times a maintenance pass retries an operation that failed
    /// with a transient I/O error before giving up for this cycle.
    const IO_RETRY_LIMIT: u32 = 3;
    /// Backoff before the first retry, in milliseconds; doubles per
    /// attempt, capped at one second.
    const IO_RETRY_BACKOFF_MS: u64 = 10;

    /// One table's maintenance with the transient-error retry loop.
    fn maintain_one(&self, t: &Arc<Table>, now: Micros) -> Result<MaintenanceReport> {
        let mut attempt = 0u32;
        loop {
            match t.maintain(now) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_transient() && attempt < Self::IO_RETRY_LIMIT => {
                    attempt += 1;
                    crate::stats::TableStats::add(&t.stats().io_retries, 1);
                    let backoff_ms = Self::IO_RETRY_BACKOFF_MS
                        .saturating_mul(1 << (attempt - 1).min(16))
                        .min(1_000);
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs maintenance passes until a pass does no work (useful in tests
    /// and virtual-time benchmarks).
    pub fn maintain_until_quiescent(&self) -> Result<()> {
        loop {
            let r = self.maintain()?;
            if r.sealed_by_age == 0
                && r.groups_flushed == 0
                && r.merges == 0
                && r.tablets_expired == 0
                && r.tablets_folded == 0
            {
                return Ok(());
            }
        }
    }

    /// Flushes every table's in-memory data to disk.
    pub fn flush_all(&self) -> Result<()> {
        let snap = self.load_catalog();
        for t in snap.tables.values() {
            t.flush_all()?;
        }
        Ok(())
    }

    /// Stops the background worker (if any). In keeping with the paper's
    /// durability model, unflushed rows are *not* persisted — they would
    /// be re-collected from the devices after a restart; call
    /// [`Db::flush_all`] first for a polite shutdown.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.inner.worker.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_name_validation() {
        assert!(valid_table_name("usage_by_device"));
        assert!(valid_table_name("events-2017.raw"));
        assert!(!valid_table_name(""));
        assert!(!valid_table_name(".hidden"));
        assert!(!valid_table_name("a/b"));
        assert!(!valid_table_name(&"x".repeat(200)));
    }
}
