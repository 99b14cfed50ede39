//! The database: a collection of tables under one VFS root.
//!
//! LittleTable runs as an independent server process (§3.1); this type is
//! the embeddable engine behind it. Opening a database scans the root for
//! table directories, loads each descriptor, and deletes any tablet files
//! a crash left uncommitted — every file of a directory with no
//! descriptor.
//!
//! The table catalog is published the same way each table publishes its
//! tablet set: an immutable `Catalog` in an `RwLock<Arc<_>>`.
//! `Db::table()` and `list_tables()` — the calls §2.2 assumes are free
//! enough that clients create and query hundreds of tables — take the
//! read lock for one `Arc` clone, and the write lock is only ever held
//! for a pointer swap, so server worker shards and maintenance sweeps
//! never wait on DDL's file I/O. DDL serializes on a small writer mutex
//! and publishes copy-on-write snapshots; a dropped table's `Arc<Table>`
//! stays fully usable by in-flight readers while every *new* snapshot
//! excludes it.
//!
//! The catalog is the one record of which table rolls up which: a rollup
//! table's entry holds its [`RollupSpec`], each publish sets the tables'
//! `rollup_source` flags from it, and a drop cascade is one publish. So is
//! `CREATE ROLLUP`, under the writer lock and then the base's slot.
//!
//! The engine spawns no thread of its own. Maintenance (flush by age,
//! merge, TTL expiry, rollup folds) runs when a caller asks for it:
//! [`Db::maintain`] sweeps every table, [`Db::maintain_table`] one.

use crate::agg::{scan_groups, AggRows, Aggregate, Groups, Input};
use crate::cache::BlockCache;
use crate::descriptor::DESC_FILE;
use crate::error::{Error, Result};
use crate::options::Options;
use crate::resultcache::{ResultCache, ResultKey};
use crate::rollup::{self, RollupSpec};
use crate::schema::Schema;
use crate::stats::{DbStats, DbStatsSnapshot, TableStats};
use crate::table::{check_ttl, MaintenanceReport, Table};
use littletable_vfs::{Clock, Micros, StdVfs, SystemClock, Vfs};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
/// is O(n) refcount bumps, not O(n) string allocations. Sorted by name,
/// so every sweep visits tables in the same order in every process.
type Catalog = BTreeMap<Arc<str>, Entry>;

/// A catalog entry: a table and, when it is a rollup table, its spec.
#[derive(Clone)]
struct Entry {
    table: Arc<Table>,
    rollup: Option<Arc<RollupSpec>>,
}

/// `tables`, ready to publish, each table's `rollup_source` flag set to
/// whether a rollup in `tables` names it: the flag's one writer.
fn published(tables: Catalog) -> Arc<Catalog> {
    let specs = tables.values().filter_map(|e| e.rollup.as_ref());
    let bases: HashSet<&str> = specs.map(|s| s.base.as_str()).collect();
    for (name, e) in &tables {
        let source = bases.contains(&**name);
        e.table.rollup_source.store(source, Ordering::Release);
    }
    Arc::new(tables)
}

/// Deletes a dropped table's files, best-effort, its descriptor first: a
/// crash part-way leaves no table, only orphan tablet files. The
/// directory sync after the removals makes a drop that has returned
/// survive a crash.
fn delete_table_files(vfs: &dyn Vfs, dir: &str) {
    let _ = vfs.remove(&littletable_vfs::join(dir, DESC_FILE));
    for entry in vfs.list_dir(dir).unwrap_or_default() {
        let _ = vfs.remove(&littletable_vfs::join(dir, &entry));
    }
    let _ = vfs.sync_dir(dir);
}

struct DbInner {
    vfs: Arc<dyn Vfs>,
    clock: Arc<dyn Clock>,
    opts: Arc<Options>,
    /// One two-tier block-and-footer cache shared by every table: hot
    /// decompressed blocks and tablet footers in the upper tier,
    /// compressed bytes of demoted blocks in the lower, all under the
    /// joint `Options::block_cache_bytes` budget. A budget of 0 makes it
    /// empty: it admits no block and pins every footer (the paper's
    /// behavior).
    cache: Arc<BlockCache>,
    /// The current catalog. Readers clone the `Arc` out; writers,
    /// serialized by `catalog_lock`, build the next snapshot off to the
    /// side and hold the write lock only to swap it in.
    catalog: RwLock<Arc<Catalog>>,
    /// Serializes catalog writers (every DDL statement) — held across a
    /// drop's file deletion too, so recreating the same name cannot
    /// interleave with the old directory's teardown.
    catalog_lock: Mutex<()>,
    stats: DbStats,
    /// The query-result cache; it holds nothing when its budget
    /// carve-out is 0.
    result_cache: ResultCache,
}

/// A LittleTable database handle. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl Db {
    /// Opens (or initializes) a database over `vfs`, the shard's one
    /// store, recovering every table found under the root: each table's
    /// descriptor is loaded, the tablet files it does not list are
    /// deleted, and those that fail validation are quarantined. A
    /// directory with no descriptor holds no table, and its files are
    /// deleted. A
    /// descriptor that does not decode fails the open before any of its
    /// table's tablet files is deleted or set aside — among them one that
    /// places a tablet in a cold store, which this engine does not have.
    pub fn open(vfs: Arc<dyn Vfs>, clock: Arc<dyn Clock>, opts: Options) -> Result<Db> {
        let opts = Arc::new(opts);
        let (decompressed, compressed) = opts.cache_tier_budgets();
        let shards = opts.block_cache_shards;
        let cache = Arc::new(BlockCache::new(decompressed, compressed, shards));
        let result_cache = ResultCache::new(opts.result_cache_budget());
        let mut tables = Catalog::new();
        for entry in vfs.list_dir("").unwrap_or_default() {
            let desc_path = littletable_vfs::join(&entry, DESC_FILE);
            if !vfs.exists(&desc_path) {
                // No table: a drop cut short after its descriptor went, or a
                // create before its descriptor landed, left these files.
                delete_table_files(vfs.as_ref(), &entry);
                continue;
            }
            let table = Table::open(
                vfs.clone(),
                clock.clone(),
                opts.clone(),
                cache.clone(),
                entry.clone(),
            )?;
            // A table directory holding a ROLLUP spec file is a rollup table.
            let is_rollup = vfs.exists(&littletable_vfs::join(&entry, rollup::SPEC_FILE));
            let spec = is_rollup.then(|| RollupSpec::load(vfs.as_ref(), &entry));
            let rollup = spec.transpose()?.map(Arc::new);
            if let Some(spec) = rollup.as_ref().filter(|s| s.name != entry) {
                return Err(Error::corrupt(format!(
                    "rollup spec in {entry:?} names table {:?}",
                    spec.name
                )));
            }
            tables.insert(Arc::from(entry.as_str()), Entry { table, rollup });
        }
        // A rollup without a base is left from an interrupted drop: finish it.
        let names: Vec<Arc<str>> = tables.keys().cloned().collect();
        for name in names {
            let base = tables[&name].rollup.as_ref().map(|s| s.base.as_str());
            if base.is_some_and(|b| !tables.contains_key(b)) {
                RollupSpec::remove(vfs.as_ref(), &name)?;
                tables.remove(&name);
                delete_table_files(vfs.as_ref(), &name);
            }
        }
        let inner = Arc::new(DbInner {
            vfs,
            clock,
            opts,
            cache,
            catalog: RwLock::new(published(tables)),
            catalog_lock: Mutex::new(()),
            stats: DbStats::default(),
            result_cache,
        });
        Ok(Db { inner })
    }

    /// Opens a database on the local file system with the wall clock.
    pub fn open_local(path: impl Into<std::path::PathBuf>, opts: Options) -> Result<Db> {
        let vfs = Arc::new(StdVfs::new(path)?);
        Db::open(vfs, Arc::new(SystemClock), opts)
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

    /// The shared block cache; empty when [`Options::block_cache_bytes`]
    /// is 0.
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.inner.cache
    }

    /// The current catalog snapshot, counted in `catalog_loads`.
    fn load_catalog(&self) -> Arc<Catalog> {
        TableStats::add(&self.inner.stats.catalog_loads, 1);
        self.inner.catalog.read().clone()
    }

    /// Publishes `tables` as the new catalog. Callers must hold
    /// `catalog_lock`.
    fn publish_catalog_locked(&self, tables: Catalog) {
        let old = std::mem::replace(&mut *self.inner.catalog.write(), published(tables));
        // Released here, after the write guard: a superseded catalog may
        // be the last owner of a dropped table.
        drop(old);
        TableStats::add(&self.inner.stats.catalog_publishes, 1);
    }

    /// Creates a table. Fails if the name is taken or invalid, or the TTL
    /// is not positive.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        ttl: Option<Micros>,
    ) -> Result<Arc<Table>> {
        let _writer = self.inner.catalog_lock.lock();
        self.create_locked(&self.load_catalog(), name, schema, ttl)
    }

    /// [`Db::create_table`] over `snap`, under `catalog_lock`.
    fn create_locked(
        &self,
        snap: &Catalog,
        name: &str,
        schema: Schema,
        ttl: Option<Micros>,
    ) -> Result<Arc<Table>> {
        if !valid_table_name(name) {
            return Err(Error::invalid(format!("invalid table name {name:?}")));
        }
        check_ttl(ttl)?;
        if snap.contains_key(name) {
            return Err(Error::TableExists(name.to_string()));
        }
        let table = Table::create(
            self.inner.vfs.clone(),
            self.inner.clock.clone(),
            self.inner.opts.clone(),
            self.inner.cache.clone(),
            name.to_string(),
            schema,
            ttl,
        )?;
        let (mut tables, rollup) = (snap.clone(), None);
        let entry = Entry { table, rollup };
        tables.insert(Arc::from(name), entry.clone());
        self.publish_catalog_locked(tables);
        Ok(entry.table)
    }

    /// Looks up a table by name in the current catalog snapshot.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.load_catalog()
            .get(name)
            .map(|e| e.table.clone())
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    /// All table names, sorted.
    pub fn list_tables(&self) -> Vec<String> {
        self.load_catalog().keys().map(|n| n.to_string()).collect()
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
    /// interleave with its predecessor's teardown. The rollups over a
    /// base go with it: first their spec files, durably, so a crash
    /// leaves plain tables at worst, never a rollup of a missing base;
    /// then one publish; then the teardowns.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let _writer = self.inner.catalog_lock.lock();
        self.drop_locked(&self.load_catalog(), name)
    }

    /// [`Db::drop_table`] from `snap`, the current catalog. Callers hold
    /// `catalog_lock`.
    fn drop_locked(&self, snap: &Catalog, name: &str) -> Result<()> {
        let doomed =
            |n: &str, e: &Entry| n == name || e.rollup.as_ref().is_some_and(|s| s.base == name);
        let (dropped, kept): (Catalog, Catalog) =
            snap.clone().into_iter().partition(|(n, e)| doomed(n, e));
        if !dropped.contains_key(name) {
            return Err(Error::NoSuchTable(name.to_string()));
        }
        let vfs = self.inner.vfs.as_ref();
        for e in dropped.values() {
            RollupSpec::remove(vfs, e.table.dir())?;
        }
        self.publish_catalog_locked(kept);
        for Entry { table, .. } in dropped.values() {
            // Keys embed the generation: this only frees memory sooner.
            let rc = &self.inner.result_cache;
            rc.invalidate_generation(table.generation());
            // Waits out any in-flight flush before the files go.
            table.mark_dropped();
            delete_table_files(vfs, table.dir());
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
    /// outlives the youngest raw row that contributed to it. One
    /// transaction under the writer lock and the base's slot (see
    /// [`crate::rollup`]); on failure the new table is dropped again.
    pub fn create_rollup(
        &self,
        name: &str,
        base: &str,
        period: Micros,
        value_cols: Vec<String>,
        distinct_cols: Vec<String>,
    ) -> Result<Arc<Table>> {
        let _writer = self.inner.catalog_lock.lock();
        let snap = self.load_catalog();
        let base_entry = snap.get(base).ok_or(Error::NoSuchTable(base.to_string()))?;
        if base_entry.rollup.is_some() {
            return Err(Error::invalid("cannot create a rollup over a rollup"));
        }
        let base_table = base_entry.table.clone();
        let spec = Arc::new(RollupSpec {
            name: name.to_string(),
            base: base.to_string(),
            period,
            value_cols,
            distinct_cols,
        });
        let schema = rollup::rollup_schema(&base_table.schema(), &spec)?;
        let ttl = base_table.ttl().map(|t| t.saturating_add(period));
        let slot = loop {
            match base_table.merge_slot(|_| Some(()))? {
                Some((slot, ())) => break slot,
                None => std::thread::yield_now(),
            }
        };
        let table = self.create_locked(&snap, name, schema, ttl)?;
        let mut all = self.rollup_targets_for(&base_table);
        all.push((spec.clone(), table.clone()));
        let attached = base_table
            .flush_all()
            .and_then(|()| rollup::fold_base(&base_table, &slot, &all[all.len() - 1..], true))
            .and_then(|_| rollup::fold_base(&base_table, &slot, &all, false))
            .and_then(|_| spec.save(self.inner.vfs.as_ref(), table.dir()));
        if let Err(e) = attached {
            let _ = self.drop_locked(&self.load_catalog(), name);
            return Err(e);
        }
        let (mut tables, rollup) = ((*snap).clone(), Some(spec));
        let entry = Entry { table, rollup };
        tables.insert(Arc::from(name), entry.clone());
        self.publish_catalog_locked(tables);
        Ok(entry.table)
    }

    /// Drops a rollup table and its definition; the base is untouched, and
    /// mergeable again when this was its last rollup.
    pub fn drop_rollup(&self, name: &str) -> Result<()> {
        let _writer = self.inner.catalog_lock.lock();
        let snap = self.load_catalog();
        if snap.get(name).is_none_or(|e| e.rollup.is_none()) {
            return Err(Error::invalid(format!("no such rollup {name:?}")));
        }
        self.drop_locked(&snap, name)
    }

    /// The rollup definitions over `base`, in name order.
    pub fn rollup_specs_for(&self, base: &str) -> Vec<Arc<RollupSpec>> {
        let mut specs = self.list_rollups();
        specs.retain(|s| s.base == base);
        specs
    }

    /// Every rollup definition, in name order.
    pub fn list_rollups(&self) -> Vec<Arc<RollupSpec>> {
        let snap = self.load_catalog();
        snap.values().filter_map(|e| e.rollup.clone()).collect()
    }

    /// Answers `q` over `t`: per group, its values then its finished
    /// aggregates, in group order, at most `q.limit` groups. An ungrouped
    /// aggregate is one group whether or not a row reached it, so over
    /// empty input it answers COUNT 0.
    ///
    /// The answer comes from the first of these that has it: the result
    /// cache; a rollup's partials and the base table's ragged window ends
    /// (`rollup::serve`); the base table's columnar pushdown, footer
    /// statistics where they suffice. An answer computed with no insert
    /// landing meanwhile is cached.
    pub fn aggregate(&self, t: &Table, q: &Aggregate) -> Result<AggRows> {
        let rc = &self.inner.result_cache;
        let key = ResultKey::new(t, q, self.now())?;
        if let Some(hit) = rc.get(&key) {
            TableStats::add(&t.stats().result_cache_hits, 1);
            return Ok(hit);
        }
        TableStats::add(&t.stats().result_cache_misses, 1);
        let input = Input::rows(&q.groups, &q.aggs);
        let mut groups = Groups::new(&input);
        if !rollup::serve(self, t, &q.query, &q.predicates, &input, &mut groups)? {
            scan_groups(t, q.query.clone(), &q.predicates, &input, &mut groups)?;
        }
        if q.groups.is_empty() {
            groups.group(&[], Vec::new);
        }
        let width = q.groups.len() + q.aggs.len();
        let rows: AggRows = Arc::new(
            groups
                .sorted()
                .take(q.limit.unwrap_or(usize::MAX))
                .map(|(g, vals)| {
                    let mut row = Vec::with_capacity(width);
                    row.extend_from_slice(vals);
                    row.extend(groups.finished(g, false));
                    row
                })
                .collect(),
        );
        // Only an answer no insert raced claims the write position its key
        // names.
        if t.insert_seq() == key.insert_seq {
            rc.put(key, rows.clone());
        }
        Ok(rows)
    }

    /// `base`'s rollups with their tables, from one catalog snapshot;
    /// none when `base` is no longer the catalog's table of its name.
    pub(crate) fn rollup_targets_for(&self, base: &Table) -> Vec<(Arc<RollupSpec>, Arc<Table>)> {
        let snap = self.load_catalog();
        let live = snap.get(base.name()).map(|e| e.table.generation()) == Some(base.generation());
        let spec = |e: &Entry| e.rollup.clone().filter(|s| live && s.base == base.name());
        let pair = |e: &Entry| Some((spec(e)?, e.table.clone()));
        snap.values().filter_map(pair).collect()
    }

    /// Runs [`Db::maintain_table`]'s pass over every table, in name
    /// order, and returns the merged report.
    ///
    /// A table whose pass fails is skipped so one sick table can't starve
    /// the rest; the first such error is returned at the end. A table
    /// dropped after the catalog snapshot was loaded has nothing to do.
    pub fn maintain(&self) -> Result<MaintenanceReport> {
        let mut total = MaintenanceReport::default();
        let mut first_err = None;
        for Entry { table, .. } in self.load_catalog().values() {
            match self.maintain_one(table) {
                Ok(r) => {
                    total.sealed_by_age += r.sealed_by_age;
                    total.groups_flushed += r.groups_flushed;
                    total.merges += r.merges;
                    total.tablets_expired += r.tablets_expired;
                    total.tablets_folded += r.tablets_folded;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(total), Err)
    }

    /// Runs one maintenance pass over a single table at the current clock
    /// time: the table's own flush, merge and TTL work, then the fold of
    /// its new tablets into its rollups. The per-table write shards of the server's group
    /// committer drive this so distinct tables commit independently
    /// instead of through one whole-catalog sweep.
    ///
    /// Transient I/O errors ([`Error::is_transient`]) are retried in place
    /// up to three times, with a backoff that doubles from 10 ms; every
    /// retry bumps the table's `io_retries` counter. An error that
    /// survives its retries (or is not transient to begin with) bumps
    /// `maintenance_errors` and is returned.
    pub fn maintain_table(&self, name: &str) -> Result<MaintenanceReport> {
        self.maintain_one(&self.table(name)?)
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
        DbStatsSnapshot {
            catalog_loads: self.inner.stats.catalog_loads.load(Ordering::Relaxed),
            catalog_publishes: self.inner.stats.catalog_publishes.load(Ordering::Relaxed),
            tables: self.load_catalog().len() as u64,
            cache_split_fraction: Options::COMPRESSED_CACHE_FRACTION,
            result_cache_entries: self.inner.result_cache.entries() as u64,
            ..DbStatsSnapshot::default()
        }
    }

    /// How many times a maintenance pass retries an operation that failed
    /// with a transient I/O error before giving up for this cycle.
    const IO_RETRY_LIMIT: u32 = 3;
    /// Backoff before the first retry, in milliseconds; doubles per
    /// attempt, capped at one second.
    const IO_RETRY_BACKOFF_MS: u64 = 10;

    /// The body of [`Db::maintain_table`], for a resolved table.
    fn maintain_one(&self, t: &Arc<Table>) -> Result<MaintenanceReport> {
        let now = self.now();
        let mut attempt = 0u32;
        let maintained = loop {
            match t.maintain(now) {
                Err(e) if e.is_transient() && attempt < Self::IO_RETRY_LIMIT => {
                    attempt += 1;
                    TableStats::add(&t.stats().io_retries, 1);
                    let backoff_ms = Self::IO_RETRY_BACKOFF_MS
                        .saturating_mul(1 << (attempt - 1).min(16))
                        .min(1_000);
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                }
                result => break result,
            }
        };
        maintained
            .and_then(|mut report| {
                // Under the slot, which CREATE ROLLUP holds until its publish.
                if let Ok(Some((slot, ()))) = t.merge_slot(|_| t.is_rollup_source().then_some(())) {
                    let targets = self.rollup_targets_for(t);
                    report.tablets_folded = rollup::fold_base(t, &slot, &targets, false)?;
                }
                Ok(report)
            })
            .inspect_err(|_| TableStats::add(&t.stats().maintenance_errors, 1))
    }

    /// Runs maintenance passes until a pass does no work (useful in tests
    /// and virtual-time benchmarks).
    pub fn maintain_until_quiescent(&self) -> Result<()> {
        while self.maintain()? != MaintenanceReport::default() {}
        Ok(())
    }

    /// Flushes every table's in-memory data to disk, in name order. In
    /// keeping with the paper's durability model, rows not yet flushed
    /// when the process ends are lost — they would be re-collected from
    /// the devices after a restart — so a polite shutdown calls this.
    pub fn flush_all(&self) -> Result<()> {
        for Entry { table, .. } in self.load_catalog().values() {
            table.flush_all()?;
        }
        Ok(())
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

    /// `flush_all` visits tables in name order in every process: on
    /// databases built alike, failing the k-th tablet create fails the
    /// same table, the k-th by name.
    #[test]
    fn flush_all_visits_tables_in_name_order() {
        use crate::schema::ColumnDef;
        use crate::value::{ColumnType, Value};
        use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind, SimClock, SimVfs};

        const START: Micros = 1_700_000_000_000_000;
        let schema = Schema::new(
            vec![
                ColumnDef::new("k", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["k", "ts"],
        )
        .unwrap();
        let failing_table = |k: u64| {
            let vfs = SimVfs::instant();
            let clock = Arc::new(SimClock::new(START));
            let db = Db::open(Arc::new(vfs.clone()), clock, Options::small_for_tests()).unwrap();
            for i in 0..8 {
                let t = db
                    .create_table(&format!("t{i}"), schema.clone(), None)
                    .unwrap();
                t.insert(vec![vec![Value::I64(i), Value::Timestamp(START)]])
                    .unwrap();
            }
            vfs.set_fault_plan(
                FaultPlan::new().rule(
                    FaultRule::new(FaultKind::Eio)
                        .on_ops(&[OpKind::Create])
                        .on_path("/tab-")
                        .nth_match(k)
                        .times(1),
                ),
            );
            let _ = db.flush_all();
            let trace = vfs.take_fault_trace();
            assert_eq!(trace.len(), 1, "tablet create {k} never failed");
            littletable_vfs::parent(&trace[0].path).to_string()
        };
        for k in 1..=8 {
            let first = failing_table(k);
            assert_eq!(first, failing_table(k), "tablet create {k}");
            assert_eq!(first, format!("t{}", k - 1), "tablet create {k}");
        }
    }
}
