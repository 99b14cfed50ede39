//! Continuous archival to a warm spare (§2.2, §3.5).
//!
//! Every shard has a spare in another datacenter; Dashboard keeps the
//! spare's LittleTable data consistent by running rsync from shard to
//! spare every ten minutes, "repeatedly until a sync completes without
//! copying any files, indicating that shard and spare have identical
//! contents. This approach works because an rsync that copies no files is
//! quick relative to the rate of new tablets being written to disk."
//!
//! This module is that rsync: a one-way file-level synchronizer over any
//! two [`Vfs`] instances. Two properties make the copied state safe for a
//! failover [`crate::db::Db::open`]:
//!
//! * within each table directory, tablet files are copied **before** the
//!   descriptor, so a descriptor never references a tablet the spare
//!   lacks (extraneous tablets are cleaned as orphans on open);
//! * tablets are write-once, so a same-size file never needs re-copying —
//!   only the descriptor changes in place.
//!
//! The archiver copies the shard's one store, which holds every tablet of
//! every table, so the spare needs no file from anywhere else.

use crate::descriptor::{TableDescriptor, DESC_FILE};
use crate::error::Result;
use littletable_vfs::{join, Vfs};

/// Statistics from one synchronization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Files copied (created or replaced).
    pub files_copied: u64,
    /// Bytes copied.
    pub bytes_copied: u64,
    /// Files removed from the spare (deleted on the primary).
    pub files_removed: u64,
    /// Tables whose *spare* descriptor is newer than the primary's — the
    /// split-brain signature left by an un-fenced failover (the spare was
    /// promoted, accepted writes, and the old primary came back believing
    /// it still owns the shard). Diverged tables are left untouched:
    /// overwriting them would silently destroy acknowledged data.
    pub diverged: u64,
}

impl SyncReport {
    /// True when the pass found nothing to do — primary and spare were
    /// identical, the archiver's stopping condition. A quiescent pass may
    /// still have `diverged > 0`; see [`SyncReport::clean`].
    pub fn quiescent(&self) -> bool {
        self.files_copied == 0 && self.files_removed == 0
    }

    /// True when the pass was quiescent *and* no table was diverged —
    /// the spare really is a faithful replica of the primary.
    pub fn clean(&self) -> bool {
        self.quiescent() && self.diverged == 0
    }
}

/// Decodes a directory's descriptor without touching anything, or `None`
/// when it is absent or unreadable (a half-copied spare descriptor reads
/// as "no opinion", never as divergence).
fn peek_descriptor(vfs: &dyn Vfs, dir: &str) -> Option<TableDescriptor> {
    TableDescriptor::peek(vfs, dir).ok()
}

/// True when the spare's descriptor for `table` is strictly newer than
/// the primary's. `next_tablet_id` is monotonic over a table's life and
/// survives merges (ids are never reused), so the spare being *ahead*
/// can only mean it flushed tablets the primary never wrote.
fn spare_is_newer(src: &dyn Vfs, dst: &dyn Vfs, table: &str) -> bool {
    match (peek_descriptor(src, table), peek_descriptor(dst, table)) {
        (Some(p), Some(s)) => s.next_tablet_id > p.next_tablet_id,
        _ => false,
    }
}

fn copy_file(src: &dyn Vfs, dst: &dyn Vfs, path: &str, len: u64) -> Result<u64> {
    let f = src.open(path)?;
    let mut buf = vec![0u8; len as usize];
    f.read_exact_at(0, &mut buf)?;
    let mut w = dst.create(path, len)?;
    w.append(&buf)?;
    w.sync()?;
    Ok(len)
}

/// True when `dst` already has an identical-enough copy: same size, and
/// either a write-once tablet file or byte-identical contents (the
/// descriptor is small, so comparing it is cheap — rsync's checksum).
fn up_to_date(src: &dyn Vfs, dst: &dyn Vfs, path: &str, src_len: u64) -> Result<bool> {
    if !dst.exists(path) {
        return Ok(false);
    }
    let dst_len = dst.file_size(path)?;
    if dst_len != src_len {
        return Ok(false);
    }
    if path.ends_with(".lt") {
        // Tablet files are immutable once written; same name + same size
        // means same content.
        return Ok(true);
    }
    let a = src.open(path)?;
    let b = dst.open(path)?;
    let mut ab = vec![0u8; src_len as usize];
    let mut bb = vec![0u8; src_len as usize];
    a.read_exact_at(0, &mut ab)?;
    b.read_exact_at(0, &mut bb)?;
    Ok(ab == bb)
}

/// Runs one rsync-like pass from `src` to `dst`. Tablet files sync before
/// each table's descriptor; files that vanished from the primary are
/// removed from the spare.
pub fn sync_once(src: &dyn Vfs, dst: &dyn Vfs) -> Result<SyncReport> {
    let mut report = SyncReport::default();
    // A pass that cannot read the primary has no standing to report
    // anything — least of all quiescence. Degrading an unreadable source
    // to an empty listing would make a dead primary look fully synced,
    // and the fleet client trims its replay buffer on that signal.
    let tables = src.list_dir("")?;
    for table in &tables {
        let entries = match src.list_dir(table) {
            Ok(e) => e,
            // A plain file at the root, or a table dropped while we were
            // listing; real I/O errors must surface.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        };
        if spare_is_newer(src, dst, table) {
            // Split-brain guard: surface the divergence and leave the
            // table exactly as it is. The fleet driver resolves it with
            // [`rollback_diverged`] once the old primary is fenced.
            report.diverged += 1;
            continue;
        }
        dst.mkdir_all(table)?;
        // Tablets first, descriptor last.
        let mut names: Vec<&String> = entries.iter().filter(|n| *n != DESC_FILE).collect();
        names.extend(entries.iter().filter(|n| *n == DESC_FILE));
        for name in names {
            if name.ends_with(".tmp") {
                continue; // an in-flight DESC.tmp never replicates
            }
            let path = join(table, name);
            let len = match src.file_size(&path) {
                Ok(len) => len,
                // Deleted while we were listing (merge or TTL reap).
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            if !up_to_date(src, dst, &path, len)? {
                report.bytes_copied += copy_file(src, dst, &path, len)?;
                report.files_copied += 1;
            }
        }
        dst.sync_dir(table)?;
        // Remove spare files the primary no longer has (merged-away or
        // TTL-reaped tablets).
        for name in dst.list_dir(table).unwrap_or_default() {
            let path = join(table, &name);
            // Deleting from the spare needs positive evidence that the
            // primary no longer has the file; an unreadable primary must
            // never be mistaken for one that dropped everything.
            let vanished = match src.file_size(&path) {
                Ok(_) => false,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => !src.exists(&path),
                Err(e) => return Err(e.into()),
            };
            if name.ends_with(".tmp") || vanished {
                let _ = dst.remove(&path);
                report.files_removed += 1;
            }
        }
        dst.sync_dir(table)?;
    }
    // Drop spare table directories for tables dropped on the primary.
    for table in dst.list_dir("").unwrap_or_default() {
        if !tables.contains(&table) && dst.list_dir(&table).is_ok() {
            for name in dst.list_dir(&table).unwrap_or_default() {
                let _ = dst.remove(&join(&table, &name));
                report.files_removed += 1;
            }
        }
    }
    dst.sync_dir("")?;
    Ok(report)
}

/// Runs [`sync_once`] repeatedly until a pass copies nothing — the
/// paper's stopping condition — or `max_passes` is hit (primary writing
/// faster than the archiver can copy). Returns the pass reports.
pub fn sync_until_quiescent(
    src: &dyn Vfs,
    dst: &dyn Vfs,
    max_passes: usize,
) -> Result<Vec<SyncReport>> {
    let mut reports = Vec::new();
    for _ in 0..max_passes.max(1) {
        let r = sync_once(src, dst)?;
        let done = r.quiescent();
        reports.push(r);
        if done {
            break;
        }
    }
    Ok(reports)
}

/// Discards a diverged spare's state so it can re-sync from the primary:
/// for every table whose spare descriptor is newer than the primary's,
/// all spare-side files are removed (durably). Returns the number of
/// tables rolled back.
///
/// This deliberately destroys the spare's extra writes — only call it
/// after the cluster has decided `src` is the authoritative primary and
/// the node behind `dst` is *fenced* (demoted, no longer accepting
/// writes). The fleet failback path does exactly that: the returning
/// old primary is demoted to spare, rolled back here, then re-synced
/// with [`sync_until_quiescent`].
pub fn rollback_diverged(src: &dyn Vfs, dst: &dyn Vfs) -> Result<u64> {
    let mut rolled_back = 0;
    for table in src.list_dir("")? {
        match src.list_dir(&table) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        }
        if !spare_is_newer(src, dst, &table) {
            continue;
        }
        for name in dst.list_dir(&table).unwrap_or_default() {
            let _ = dst.remove(&join(&table, &name));
        }
        dst.sync_dir(&table)?;
        rolled_back += 1;
    }
    if rolled_back > 0 {
        dst.sync_dir("")?;
    }
    Ok(rolled_back)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Db;
    use crate::options::Options;
    use crate::query::Query;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{Clock as _, SimClock, SimVfs};
    use std::sync::Arc;

    const START: i64 = 1_700_000_000_000_000;

    fn schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("n", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["n", "ts"],
        )
        .unwrap()
    }

    fn primary() -> (Db, SimVfs, SimClock) {
        let clock = SimClock::new(START);
        let vfs = SimVfs::instant();
        let db = Db::open(
            Arc::new(vfs.clone()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        (db, vfs, clock)
    }

    fn rows(n: std::ops::Range<i64>) -> Vec<Vec<Value>> {
        n.map(|i| vec![Value::I64(i), Value::Timestamp(START + i)])
            .collect()
    }

    #[test]
    fn spare_can_fail_over_with_identical_data() {
        let (db, vfs, clock) = primary();
        let spare_vfs = SimVfs::instant();
        let t = db.create_table("t", schema(), None).unwrap();
        t.insert(rows(0..500)).unwrap();
        db.flush_all().unwrap();
        let reports = sync_until_quiescent(&vfs, &spare_vfs, 10).unwrap();
        assert!(reports.last().unwrap().quiescent());
        // Failover: open the spare and serve.
        let spare = Db::open(
            Arc::new(spare_vfs),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let got = spare.table("t").unwrap().query_all(&Query::all()).unwrap();
        assert_eq!(got.len(), 500);
    }

    #[test]
    fn dead_source_errors_instead_of_reporting_quiescence() {
        // Regression: a primary that dies right before a pass used to
        // read as an empty table list, so the pass reported quiescent —
        // and the fleet client, told the spare was a faithful replica,
        // trimmed the replay buffer it would have needed at failover.
        let (db, vfs, _clock) = primary();
        let spare = SimVfs::instant();
        db.create_table("t", schema(), None)
            .unwrap()
            .insert(rows(0..100))
            .unwrap();
        db.flush_all().unwrap();
        vfs.power_off();
        assert!(
            sync_once(&vfs, &spare).is_err(),
            "a dead primary must surface as an error, not a clean pass"
        );
        assert!(
            sync_until_quiescent(&vfs, &spare, 4).is_err(),
            "the multi-pass driver must propagate the same error"
        );
        // The spare keeps whatever it already had; nothing is deleted on
        // the word of an unreadable primary.
        assert!(rollback_diverged(&vfs, &spare).is_err());
    }

    #[test]
    fn second_pass_copies_nothing() {
        let (db, vfs, _clock) = primary();
        let spare = SimVfs::instant();
        db.create_table("t", schema(), None)
            .unwrap()
            .insert(rows(0..100))
            .unwrap();
        db.flush_all().unwrap();
        let r1 = sync_once(&vfs, &spare).unwrap();
        assert!(r1.files_copied > 0);
        let r2 = sync_once(&vfs, &spare).unwrap();
        assert!(r2.quiescent(), "{r2:?}");
    }

    #[test]
    fn in_flight_temp_files_never_replicate() {
        let (db, vfs, _clock) = primary();
        let spare = SimVfs::instant();
        db.create_table("t", schema(), None).unwrap();
        // A descriptor and a rollup spec caught mid-save on the primary,
        // and stale ones on the spare.
        for store in [&vfs, &spare] {
            store.mkdir_all("t").unwrap();
            for tmp in ["t/DESC.tmp", "t/ROLLUP.tmp"] {
                store.create(tmp, 0).unwrap().append(b"half").unwrap();
            }
        }
        sync_once(&vfs, &spare).unwrap();
        let mut names = spare.list_dir("t").unwrap();
        names.sort();
        assert_eq!(names, ["DESC"]);
    }

    #[test]
    fn merged_away_tablets_are_removed_from_spare() {
        let (db, vfs, clock) = primary();
        let spare = SimVfs::instant();
        let t = db.create_table("t", schema(), None).unwrap();
        for chunk in 0..4 {
            t.insert(rows(chunk * 100..(chunk + 1) * 100)).unwrap();
            t.flush_all().unwrap();
        }
        sync_until_quiescent(&vfs, &spare, 10).unwrap();
        let before = spare.list_dir("t").unwrap().len();
        while t.run_merge_once(clock.now_micros()).unwrap() {}
        let reports = sync_until_quiescent(&vfs, &spare, 10).unwrap();
        assert!(reports.iter().any(|r| r.files_removed > 0));
        assert!(spare.list_dir("t").unwrap().len() < before);
        // The spare still opens cleanly and has all rows.
        let spare_db = Db::open(
            Arc::new(spare),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        assert_eq!(
            spare_db
                .table("t")
                .unwrap()
                .query_all(&Query::all())
                .unwrap()
                .len(),
            400
        );
    }

    #[test]
    fn interrupted_sync_leaves_spare_openable() {
        // A sync that copied tablets but not yet the descriptor (our
        // ordering guarantees this is the only intermediate state) still
        // yields a consistent spare: the old descriptor + old tablets.
        let (db, vfs, clock) = primary();
        let spare = SimVfs::instant();
        let t = db.create_table("t", schema(), None).unwrap();
        t.insert(rows(0..100)).unwrap();
        db.flush_all().unwrap();
        sync_until_quiescent(&vfs, &spare, 10).unwrap();
        // More data on the primary.
        t.insert(rows(100..200)).unwrap();
        db.flush_all().unwrap();
        // Simulate the interrupted pass: copy only the new tablet files,
        // not the descriptor (exactly what sync_once does first).
        for name in vfs.list_dir("t").unwrap() {
            if name.ends_with(".lt") {
                let path = join("t", &name);
                let len = vfs.file_size(&path).unwrap();
                if !up_to_date(&vfs, &spare, &path, len).unwrap() {
                    copy_file(&vfs, &spare, &path, len).unwrap();
                }
            }
        }
        let spare_db = Db::open(
            Arc::new(spare),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        // The spare serves the last fully synced state (100 rows), not a
        // corrupt intermediate.
        assert_eq!(
            spare_db
                .table("t")
                .unwrap()
                .query_all(&Query::all())
                .unwrap()
                .len(),
            100
        );
    }

    #[test]
    fn diverged_spare_is_surfaced_not_overwritten() {
        // Un-fenced failover: the spare is promoted, accepts writes, and
        // then the old primary (behind, but alive) re-runs the archiver
        // against it. The sync must refuse to clobber the spare's extra
        // data and flag the divergence instead.
        let (db, vfs, clock) = primary();
        let spare_vfs = SimVfs::instant();
        let t = db.create_table("t", schema(), None).unwrap();
        t.insert(rows(0..100)).unwrap();
        db.flush_all().unwrap();
        sync_until_quiescent(&vfs, &spare_vfs, 10).unwrap();
        // Promote the spare and let it accept new writes.
        let promoted = Db::open(
            Arc::new(spare_vfs.clone()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        promoted.table("t").unwrap().insert(rows(100..250)).unwrap();
        promoted.flush_all().unwrap();
        // The un-fenced old primary tries to archive over it.
        let r = sync_once(&vfs, &spare_vfs).unwrap();
        assert_eq!(r.diverged, 1);
        assert!(r.quiescent() && !r.clean(), "{r:?}");
        // Nothing on the spare was touched: all 250 rows still there.
        let check = Db::open(
            Arc::new(spare_vfs),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        assert_eq!(
            check
                .table("t")
                .unwrap()
                .query_all(&Query::all())
                .unwrap()
                .len(),
            250
        );
    }

    #[test]
    fn rollback_diverged_lets_fenced_spare_resync() {
        let (db, vfs, clock) = primary();
        let spare_vfs = SimVfs::instant();
        let t = db.create_table("t", schema(), None).unwrap();
        t.insert(rows(0..100)).unwrap();
        db.flush_all().unwrap();
        sync_until_quiescent(&vfs, &spare_vfs, 10).unwrap();
        // Divergence: spare flushes writes of its own.
        {
            let promoted = Db::open(
                Arc::new(spare_vfs.clone()),
                Arc::new(clock.clone()),
                Options::small_for_tests(),
            )
            .unwrap();
            promoted.table("t").unwrap().insert(rows(500..600)).unwrap();
            promoted.flush_all().unwrap();
        }
        assert_eq!(sync_once(&vfs, &spare_vfs).unwrap().diverged, 1);
        // Failback: the diverged node is fenced, rolled back, re-synced.
        // (Rollback must run while the divergence is still visible — once
        // the primary's tablet ids advance past the spare's the signal is
        // masked and a plain sync would clobber the spare anyway.)
        assert_eq!(rollback_diverged(&vfs, &spare_vfs).unwrap(), 1);
        // Meanwhile the primary moves ahead on its own timeline.
        t.insert(rows(100..120)).unwrap();
        db.flush_all().unwrap();
        let reports = sync_until_quiescent(&vfs, &spare_vfs, 10).unwrap();
        assert!(reports.last().unwrap().clean());
        let spare_db = Db::open(
            Arc::new(spare_vfs),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let got = spare_db
            .table("t")
            .unwrap()
            .query_all(&Query::all())
            .unwrap();
        // Exactly the primary's 120 rows; the spare's divergent 100 are gone.
        assert_eq!(got.len(), 120);
    }

    #[test]
    fn dropped_tables_disappear_from_spare() {
        let (db, vfs, _clock) = primary();
        let spare = SimVfs::instant();
        db.create_table("gone", schema(), None)
            .unwrap()
            .insert(rows(0..10))
            .unwrap();
        db.flush_all().unwrap();
        sync_until_quiescent(&vfs, &spare, 10).unwrap();
        assert!(spare.exists("gone/DESC"));
        db.drop_table("gone").unwrap();
        sync_until_quiescent(&vfs, &spare, 10).unwrap();
        assert!(!spare.exists("gone/DESC"));
    }
}
