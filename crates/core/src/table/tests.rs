use super::*;
use crate::db::Db;
use crate::query::Query;
use crate::row::Row;
use crate::schema::ColumnDef;
use crate::value::{ColumnType, Value};
use littletable_vfs::{SimClock, SimVfs, MICROS_PER_SEC};

pub(super) const SEC: Micros = MICROS_PER_SEC;
pub(super) const START: Micros = 1_700_000_000 * MICROS_PER_SEC;

pub(super) fn usage_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("network", ColumnType::I64),
            ColumnDef::new("device", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("bytes", ColumnType::I64),
        ],
        &["network", "device", "ts"],
    )
    .unwrap()
}

pub(super) fn test_db(opts: Options) -> (Db, SimVfs, SimClock) {
    let clock = SimClock::new(START);
    let vfs = SimVfs::instant();
    // Share the clock between the engine and the test driver.
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
    (db, vfs, clock)
}

pub(super) fn usage_row(net: i64, dev: i64, ts: Micros, bytes: i64) -> Vec<Value> {
    vec![
        Value::I64(net),
        Value::I64(dev),
        Value::Timestamp(ts),
        Value::I64(bytes),
    ]
}

#[test]
fn insert_and_query_from_memory() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    let r = t
        .insert(vec![
            usage_row(1, 1, now, 100),
            usage_row(1, 2, now, 200),
            usage_row(2, 1, now, 300),
        ])
        .unwrap();
    assert_eq!(r.inserted, 3);
    // All rows, key order.
    let rows = t.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].values[3], Value::I64(100));
    // Prefix query: network 1 only.
    let rows = t
        .query_all(&Query::all().with_prefix(vec![Value::I64(1)]))
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn query_after_flush_and_mixed() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..100 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
    }
    t.flush_all().unwrap();
    assert!(t.num_disk_tablets() >= 1);
    // More rows into memory.
    for i in 100..150 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
    }
    let rows = t.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 150);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.values[1], Value::I64(i as i64));
    }
}

#[test]
fn duplicate_keys_are_rejected() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    let r = t.insert(vec![usage_row(1, 1, now, 100)]).unwrap();
    assert_eq!(r.inserted, 1);
    // Same key from memory.
    let r = t.insert(vec![usage_row(1, 1, now, 999)]).unwrap();
    assert_eq!(r.duplicates, 1);
    // Same key after flush (slow path through disk).
    t.flush_all().unwrap();
    let r = t.insert(vec![usage_row(1, 1, now, 999)]).unwrap();
    assert_eq!(r.duplicates, 1);
    // Original value preserved.
    let rows = t.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values[3], Value::I64(100));
}

#[test]
fn uniqueness_fast_paths_hit() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    // Ascending timestamps: fast path 1.
    for i in 0..10 {
        t.insert(vec![usage_row(1, 1, now + i, i)]).unwrap();
    }
    assert_eq!(t.stats().snapshot().unique_fast_ts, 10);
    t.flush_all().unwrap();
    // Same timestamp, larger key: fast path 2.
    t.insert(vec![usage_row(9, 9, now + 5, 0)]).unwrap();
    assert_eq!(t.stats().snapshot().unique_fast_key, 1);
    // Same timestamp, key in the middle: slow path.
    t.insert(vec![usage_row(1, 0, now + 5, 0)]).unwrap();
    assert!(t.stats().snapshot().unique_slow >= 1);
}

#[test]
fn ts_bounds_filter_rows() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..100 {
        t.insert(vec![usage_row(1, 1, now + i * SEC, i)]).unwrap();
    }
    let rows = t
        .query_all(&Query::all().with_ts_range(now + 10 * SEC, now + 20 * SEC))
        .unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(rows[0].values[3], Value::I64(10));
}

#[test]
fn descending_and_limit() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..20 {
        t.insert(vec![usage_row(1, i, now, i)]).unwrap();
    }
    let rows = t
        .query_all(&Query::all().descending().with_limit(5))
        .unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].values[1], Value::I64(19));
    assert_eq!(rows[4].values[1], Value::I64(15));
}

#[test]
fn server_row_limit_sets_more_available() {
    let mut opts = Options::small_for_tests();
    opts.server_row_limit = 7;
    let (db, _, clock) = test_db(opts);
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..20 {
        t.insert(vec![usage_row(1, i, now, i)]).unwrap();
    }
    let mut cur = t.query(&Query::all()).unwrap();
    let mut n = 0;
    while cur.next_row().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 7);
    assert!(cur.more_available());
    // Client-style continuation: restart past the last key until the
    // server stops reporting more.
    let mut total = n;
    let mut last_dev = 6i64;
    loop {
        let mut cur = t
            .query(&Query::all().with_key_min(vec![Value::I64(1), Value::I64(last_dev)], false))
            .unwrap();
        while let Some(row) = cur.next_row().unwrap() {
            total += 1;
            last_dev = match row.values[1] {
                Value::I64(d) => d,
                _ => unreachable!(),
            };
        }
        if !cur.more_available() {
            break;
        }
    }
    assert_eq!(total, 20);
}

#[test]
fn latest_finds_most_recent_for_prefix() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..50 {
        t.insert(vec![usage_row(1, 7, now + i * SEC, i)]).unwrap();
        t.insert(vec![usage_row(1, 8, now + i * SEC, 1000 + i)])
            .unwrap();
    }
    t.flush_all().unwrap();
    // Newer rows in memory for device 7 only.
    t.insert(vec![usage_row(1, 7, now + 100 * SEC, 49_999)])
        .unwrap();
    // Full prefix (network, device).
    let row = t.latest(&[Value::I64(1), Value::I64(7)]).unwrap().unwrap();
    assert_eq!(row.values[3], Value::I64(49_999));
    let row = t.latest(&[Value::I64(1), Value::I64(8)]).unwrap().unwrap();
    assert_eq!(row.values[3], Value::I64(1049));
    // Partial prefix (network): latest across devices.
    let row = t.latest(&[Value::I64(1)]).unwrap().unwrap();
    assert_eq!(row.values[3], Value::I64(49_999));
    // Missing prefix.
    assert!(t.latest(&[Value::I64(99)]).unwrap().is_none());
    // Over-long prefix is an error.
    assert!(t
        .latest(&[Value::I64(1), Value::I64(1), Value::Timestamp(0)])
        .is_err());
}

#[test]
fn latest_and_query_all_count_queries_once() {
    // `latest` bumps both `queries` and `latest_calls`; `query_all`
    // drains a cursor but still counts as exactly one query.
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..10 {
        t.insert(vec![usage_row(1, 1, now + i * SEC, i)]).unwrap();
    }
    let before = t.stats().snapshot();
    t.latest(&[Value::I64(1)]).unwrap().unwrap();
    let after = t.stats().snapshot();
    assert_eq!(after.queries, before.queries + 1);
    assert_eq!(after.latest_calls, before.latest_calls + 1);
    t.query_all(&Query::all()).unwrap();
    let after2 = t.stats().snapshot();
    assert_eq!(after2.queries, after.queries + 1);
    assert_eq!(after2.latest_calls, after.latest_calls);
    // Every read went through the published snapshot.
    assert!(after2.snapshot_loads >= 2);
}

#[test]
fn ttl_filters_and_reaps() {
    let (db, vfs, clock) = test_db(Options::small_for_tests());
    let ttl = 3600 * SEC;
    let t = db.create_table("usage", usage_schema(), Some(ttl)).unwrap();
    let now = clock.now_micros();
    t.insert(vec![usage_row(1, 1, now, 1)]).unwrap();
    t.insert(vec![usage_row(1, 2, now + 10 * SEC, 2)]).unwrap();
    t.flush_all().unwrap();
    assert_eq!(t.query_all(&Query::all()).unwrap().len(), 2);
    // Advance past the first row's expiry: it is filtered from results
    // even before the reaper runs.
    clock.set(now + ttl + 5 * SEC);
    assert_eq!(t.query_all(&Query::all()).unwrap().len(), 1);
    // Advance past both and reap: the tablet file disappears.
    clock.set(now + ttl + 3600 * SEC);
    assert_eq!(t.query_all(&Query::all()).unwrap().len(), 0);
    let files_before = vfs.list_dir("usage").unwrap().len();
    let reaped = t.ttl_reap(clock.now_micros()).unwrap();
    assert!(reaped >= 1);
    assert!(vfs.list_dir("usage").unwrap().len() < files_before);
}

#[test]
fn merging_reduces_tablet_count_preserving_rows() {
    let mut opts = Options::small_for_tests();
    opts.flush_size = 4 << 10;
    let (db, _, clock) = test_db(opts);
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..2000 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
    }
    t.flush_all().unwrap();
    let before = t.num_disk_tablets();
    assert!(before > 2, "need several tablets, got {before}");
    while t.run_merge_once(clock.now_micros()).unwrap() {}
    let after = t.num_disk_tablets();
    assert!(after < before, "merge should shrink {before} -> {after}");
    let rows = t.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 2000);
    assert!(t.stats().snapshot().merges >= 1);
}

#[test]
fn crash_preserves_flushed_prefix() {
    let (db, vfs, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..100 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
    }
    t.flush_all().unwrap();
    for i in 100..200 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
    }
    // Crash with rows 100..200 unflushed.
    vfs.crash();
    let db2 = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let t2 = db2.table("usage").unwrap();
    let rows = t2.query_all(&Query::all()).unwrap();
    // Exactly the flushed prefix survives, in insertion order by i.
    assert_eq!(rows.len(), 100);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.values[1], Value::I64(i as i64));
    }
}

#[test]
fn crash_mid_flush_leaves_no_orphans_and_keeps_prefix() {
    let (db, vfs, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..50 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
    }
    t.flush_all().unwrap();
    // Write an orphan tablet file, as if a crash hit between the file
    // write and the descriptor commit.
    let mut w = vfs.create("usage/tab-00000000000000ff.lt", 0).unwrap();
    w.append(b"partial garbage").unwrap();
    w.sync().unwrap();
    drop(w);
    vfs.sync_dir("usage").unwrap();
    vfs.crash();
    let db2 = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    assert!(!vfs.exists("usage/tab-00000000000000ff.lt"));
    let rows = db2
        .table("usage")
        .unwrap()
        .query_all(&Query::all())
        .unwrap();
    assert_eq!(rows.len(), 50);
}

#[test]
fn flush_dependencies_preserve_insert_order_across_periods() {
    // Rows alternate between an old week and the current day, forcing
    // two filling tablets with interleaved inserts. Sealing either must
    // drag the other along (they form a dependency cycle), so a crash
    // can never retain a later row while losing an earlier one.
    let mut opts = Options::small_for_tests();
    opts.flush_size = usize::MAX; // no size-based seal
    let (db, vfs, clock) = test_db(opts.clone());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    let old = now - 30 * 24 * 3600 * SEC;
    for i in 0..10 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
        t.insert(vec![usage_row(2, i, old + i, i)]).unwrap();
    }
    assert_eq!(t.num_filling(), 2);
    // Age-based seal: both tablets are in one atomic group.
    clock.advance(opts.flush_age + 1);
    t.maintain(clock.now_micros()).unwrap();
    assert_eq!(t.num_filling(), 0);
    vfs.crash();
    let db2 = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
    let rows = db2
        .table("usage")
        .unwrap()
        .query_all(&Query::all())
        .unwrap();
    // All or nothing: both tablets committed in one descriptor update.
    assert_eq!(rows.len(), 20);
}

#[test]
fn schema_evolution_end_to_end() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    t.insert(vec![usage_row(1, 1, now, 100)]).unwrap();
    t.flush_all().unwrap();
    t.add_column(ColumnDef::with_default(
        "packets",
        ColumnType::I64,
        Value::I64(-1),
    ))
    .unwrap();
    // Old rows (flushed and any memtable) read back with the default.
    t.insert(vec![vec![
        Value::I64(1),
        Value::I64(2),
        Value::Timestamp(now + 1),
        Value::I64(200),
        Value::I64(42),
    ]])
    .unwrap();
    let rows = t.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].values[4], Value::I64(-1));
    assert_eq!(rows[1].values[4], Value::I64(42));
    // Old-arity inserts now fail.
    assert!(t.insert(vec![usage_row(1, 3, now + 2, 1)]).is_err());
}

#[test]
fn widen_column_end_to_end() {
    let (db, vfs, clock) = test_db(Options::small_for_tests());
    let schema = Schema::new(
        vec![
            ColumnDef::new("n", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("count", ColumnType::I32),
        ],
        &["n", "ts"],
    )
    .unwrap();
    let t = db.create_table("c", schema, None).unwrap();
    let now = clock.now_micros();
    t.insert(vec![vec![
        Value::I64(1),
        Value::Timestamp(now),
        Value::I32(7),
    ]])
    .unwrap();
    t.flush_all().unwrap();
    t.widen_column("count").unwrap();
    t.insert(vec![vec![
        Value::I64(2),
        Value::Timestamp(now + 1),
        Value::I64(1 << 40),
    ]])
    .unwrap();
    let rows = t.query_all(&Query::all()).unwrap();
    assert_eq!(rows[0].values[2], Value::I64(7));
    assert_eq!(rows[1].values[2], Value::I64(1 << 40));
    // Schema survives reopen.
    db.flush_all().unwrap();
    let db2 = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let t2 = db2.table("c").unwrap();
    assert_eq!(t2.schema().columns()[2].ty, ColumnType::I64);
    assert_eq!(t2.query_all(&Query::all()).unwrap().len(), 2);
}

#[test]
fn backlog_forces_inline_flush() {
    let mut opts = Options::small_for_tests();
    opts.flush_size = 1 << 10;
    opts.max_sealed_backlog = 2;
    let (db, _, clock) = test_db(opts);
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..5000 {
        t.insert(vec![usage_row(1, i, now + i, i)]).unwrap();
    }
    // Backlog stayed bounded because inserts flushed inline.
    assert!(t.num_disk_tablets() > 0);
    let rows = t.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 5000);
}

#[test]
fn db_table_lifecycle() {
    let (db, vfs, clock) = test_db(Options::small_for_tests());
    assert!(db.table("missing").is_err());
    db.create_table("a", usage_schema(), None).unwrap();
    db.create_table("b", usage_schema(), None).unwrap();
    assert!(db.create_table("a", usage_schema(), None).is_err());
    assert!(db.create_table("bad/name", usage_schema(), None).is_err());
    assert_eq!(db.list_tables(), vec!["a".to_string(), "b".to_string()]);
    db.drop_table("a").unwrap();
    assert!(db.table("a").is_err());
    // Dropped table's files are gone; recreation works.
    db.create_table("a", usage_schema(), None).unwrap();
    // Reopen sees both tables.
    db.flush_all().unwrap();
    drop(db);
    let db2 = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    assert_eq!(db2.list_tables(), vec!["a".to_string(), "b".to_string()]);
}

/// A `SimVfs` whose next `create` of one path, armed by the test, pauses
/// with the file created: it says so on the first channel and waits for
/// the second.
struct PausingVfs {
    inner: SimVfs,
    pause: Mutex<Option<PausedCreate>>,
}

type PausedCreate = (
    String,
    std::sync::mpsc::Sender<()>,
    std::sync::mpsc::Receiver<()>,
);

impl Vfs for PausingVfs {
    fn open(&self, path: &str) -> std::io::Result<Box<dyn littletable_vfs::RandomAccessFile>> {
        self.inner.open(path)
    }
    fn create(
        &self,
        path: &str,
        hint: u64,
    ) -> std::io::Result<Box<dyn littletable_vfs::WritableFile>> {
        let file = self.inner.create(path, hint)?;
        let armed = self.pause.lock().take_if(|(p, ..)| p == path);
        if let Some((_, paused, release)) = armed {
            paused.send(()).unwrap();
            release.recv().unwrap();
        }
        Ok(file)
    }
    fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &str) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn mkdir_all(&self, path: &str) -> std::io::Result<()> {
        self.inner.mkdir_all(path)
    }
    fn list_dir(&self, path: &str) -> std::io::Result<Vec<String>> {
        self.inner.list_dir(path)
    }
    fn sync_dir(&self, path: &str) -> std::io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn file_size(&self, path: &str) -> std::io::Result<u64> {
        self.inner.file_size(path)
    }
}

#[test]
fn a_merge_in_flight_across_drop_and_recreate_spares_the_new_table() {
    use std::sync::mpsc::channel;
    use std::time::Duration;
    let vfs = Arc::new(PausingVfs {
        inner: SimVfs::instant(),
        pause: Mutex::new(None),
    });
    let clock = SimClock::new(START);
    let open = || {
        Db::open(
            vfs.clone(),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
    };
    let db = open().unwrap();
    let now = clock.now_micros();
    let fill = move |t: &Table, net: i64, tablets: i64| {
        for i in 0..tablets {
            t.insert(vec![usage_row(net, i, now + i, i)]).unwrap();
            t.flush_all().unwrap();
        }
    };
    // Tablets 1 and 2, whose merge writes tablet 3: it pauses there.
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    fill(&t, 1, 2);
    let (paused, on_pause) = channel();
    let (release, on_release) = channel();
    *vfs.pause.lock() = Some((
        format!("usage/{}", crate::descriptor::tablet_file_name(3)),
        paused,
        on_release,
    ));
    let merge = std::thread::spawn({
        let t = t.clone();
        move || t.run_merge_once(now)
    });
    on_pause.recv().unwrap();
    // Meanwhile the table is dropped and recreated, and the new one
    // flushes tablets up to the same id.
    let (recreated, on_recreated) = channel();
    let recreate = std::thread::spawn({
        let db = db.clone();
        move || {
            db.drop_table("usage").unwrap();
            let t = db.create_table("usage", usage_schema(), None).unwrap();
            fill(&t, 2, 3);
            recreated.send(()).unwrap();
        }
    });
    // Once the old table is marked dropped the merge's commit is refused.
    // The drop must then wait for the merge, so this times out; were it
    // not to, the new tablet 3 is written by now.
    while !t.state.lock().dropped {
        std::thread::yield_now();
    }
    let _ = on_recreated.recv_timeout(Duration::from_millis(500));
    release.send(()).unwrap();
    let merged = merge.join().unwrap();
    recreate.join().unwrap();
    drop(db);
    let rows = open()
        .unwrap()
        .table("usage")
        .unwrap()
        .query_all(&Query::all())
        .unwrap();
    let want: Vec<Vec<Value>> = (0..3).map(|i| usage_row(2, i, now + i, i)).collect();
    assert_eq!(rows.into_iter().map(|r| r.values).collect::<Vec<_>>(), want);
    // The merge found its table dropped, which is not an error.
    assert!(matches!(merged, Ok(false)), "{merged:?}");
}

#[test]
fn insert_visible_to_subsequent_query_during_flush_window() {
    // A query started after an insert completes must see the row even
    // if the row's group is mid-flush (sealed, not yet committed).
    let mut opts = Options::small_for_tests();
    opts.flush_size = 1; // every insert seals immediately
    opts.max_sealed_backlog = usize::MAX; // never inline-flush
    let (db, _, clock) = test_db(opts);
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    t.insert(vec![usage_row(1, 1, now, 1)]).unwrap();
    t.insert(vec![usage_row(1, 2, now + 1, 2)]).unwrap();
    // Rows are in sealed groups, none flushed.
    assert_eq!(t.num_disk_tablets(), 0);
    assert_eq!(t.query_all(&Query::all()).unwrap().len(), 2);
    while t.flush_next_group().unwrap() {}
    assert_eq!(t.query_all(&Query::all()).unwrap().len(), 2);
}

#[test]
fn scan_ratio_accounts_time_filtering() {
    let (db, _, clock) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    let now = clock.now_micros();
    for i in 0..100 {
        t.insert(vec![usage_row(1, 1, now + i * SEC, i)]).unwrap();
    }
    t.flush_all().unwrap();
    // Key bounds cover all 100 rows of device 1, time bounds only 10:
    // the cursor scans ~100 and returns 10.
    let q = Query::all()
        .with_prefix(vec![Value::I64(1), Value::I64(1)])
        .with_ts_range(now, now + 10 * SEC);
    let mut cur = t.query(&q).unwrap();
    while cur.next_row().unwrap().is_some() {}
    assert_eq!(cur.returned(), 10);
    assert!(cur.scanned() >= 10);
    drop(cur);
    let snap = t.stats().snapshot();
    assert_eq!(snap.rows_returned, 10);
}

#[test]
fn duplicate_probe_finds_exactly_the_keys_a_tablet_holds() {
    let opts = Options {
        block_size: 256,
        ..Options::small_for_tests()
    };
    let (db, _, _) = test_db(opts);
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    // Devices 0, 2, 4, ... of network 1, ten ticks each, a few to a block.
    let rows: Vec<_> = (0..40)
        .flat_map(|d| (0..10).map(move |k| usage_row(1, d * 2, START + k * SEC, k)))
        .collect();
    t.insert(rows).unwrap();
    t.flush_all().unwrap();
    let (h, schema) = {
        let st = t.state.lock();
        (st.disk[0].clone(), st.schema.clone())
    };
    let footer = h.reader.footer().unwrap();
    assert!(footer.blocks.len() > 4, "{} blocks", footer.blocks.len());
    let key = |dev: i64, tick: i64| {
        Row::new(usage_row(1, dev, START + tick * SEC, 0))
            .encode_key(&schema)
            .unwrap()
    };
    let holds = |key: &[u8]| t.tablet_contains_key(&h, key).unwrap();
    // The tablet's first and last keys, and a block's first and last.
    assert!(holds(&key(0, 0)) && holds(&key(78, 9)));
    let boundary = footer.blocks[1].last_key.clone();
    assert!(holds(&boundary));
    let mut past = boundary.clone();
    *past.last_mut().unwrap() += 1;
    assert!(!holds(&past), "a key between two blocks");
    let after = h.reader.read_block(2).unwrap();
    let mut first = Vec::new();
    after.key_into(0, &mut first).unwrap();
    assert!(holds(&first));
    // Absent: a device between two that exist, a tick nobody wrote, and
    // keys below and above everything.
    assert!(holds(&key(40, 5)));
    assert!(!holds(&key(41, 5)) && !holds(&key(40, 10)));
    assert!(!holds(&key(-1, 0)) && !holds(&key(80, 0)));
    // The same through `insert`: its slow path counts the duplicate and
    // takes the new key.
    let report = t
        .insert(vec![
            usage_row(1, 40, START + 5 * SEC, 7),
            usage_row(1, 41, START + 5 * SEC, 7),
        ])
        .unwrap();
    assert_eq!((report.inserted, report.duplicates), (1, 1));
    assert_eq!(t.stats().snapshot().unique_slow, 2);
}

#[test]
fn a_run_drain_materializes_no_row() {
    let (db, _, _) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    t.insert(
        (0..300)
            .map(|i| usage_row(1, i / 30, START + i * SEC, i))
            .collect(),
    )
    .unwrap();
    t.flush_all().unwrap();
    t.insert(
        (300..330)
            .map(|i| usage_row(1, 11, START + i * SEC, i))
            .collect(),
    )
    .unwrap();
    let q = Query::all().with_ts_range(START + 10 * SEC, START + 320 * SEC);
    let mut cur = t.query(&q).unwrap();
    let mut rows = 0;
    while let Some(run) = cur.next_run().unwrap() {
        rows += run.len();
    }
    assert_eq!((rows, cur.scanned(), cur.returned()), (310, 330, 310));
    drop(cur);
    let s = t.stats().snapshot();
    assert_eq!((s.rows_scanned, s.rows_returned), (330, 310));
    assert_eq!(s.rows_materialized, 0);
}

#[test]
fn a_row_drain_counts_every_row_it_builds() {
    let (db, _, _) = test_db(Options::small_for_tests());
    let t = db.create_table("usage", usage_schema(), None).unwrap();
    t.insert(
        (0..300)
            .map(|i| usage_row(1, i / 30, START + i * SEC, i))
            .collect(),
    )
    .unwrap();
    t.flush_all().unwrap();
    let q = Query::all().with_ts_range(START + 10 * SEC, START + 200 * SEC);
    assert_eq!(t.query_all(&q).unwrap().len(), 190);
    assert_eq!(t.stats().snapshot().rows_materialized, 190);
    // Rows the caller never asked for were never built.
    let mut cur = t.query(&q).unwrap();
    for _ in 0..7 {
        cur.next_row().unwrap().unwrap();
    }
    drop(cur);
    let s = t.stats().snapshot();
    assert_eq!(s.rows_materialized, 197);
    assert_eq!((s.rows_scanned, s.rows_returned), (300 + 17, 197));
}

/// Every public call that commits pays one descriptor save, however many
/// transitions it commits, and a call that commits nothing pays none.
#[test]
fn each_call_saves_the_descriptor_once() {
    const MIN: Micros = 60 * SEC;
    const HOUR: Micros = 60 * MIN;
    let day = START - START.rem_euclid(24 * HOUR);
    let (db, _, clock) = test_db(Options::small_for_tests());
    clock.set(day + 23 * HOUR);
    let t = db
        .create_table("usage", usage_schema(), Some(14 * HOUR))
        .unwrap();
    let saves = || t.stats().snapshot().descriptor_saves;
    // `n` rows of device `dev`, a minute apart from `day + at`, each
    // batch in one 4-hour period.
    let load = |dev: i64, at: Micros, n: i64| {
        let rows = (0..n).map(|i| usage_row(1, dev, day + at + i * MIN, i));
        t.insert(rows.collect()).unwrap();
    };
    // X, whose newest row the TTL horizon passes by the pass; T1 and T2,
    // two tablets of one period, which the pass merges.
    for (dev, at) in [(0, 9 * HOUR), (1, 12 * HOUR), (2, 12 * HOUR + 10 * MIN)] {
        load(dev, at, 10);
        t.flush_all().unwrap();
    }
    // Two filling tablets in two periods, aged past the flush age by the
    // pass: two groups.
    load(3, 16 * HOUR, 10);
    load(4, 20 * HOUR, 10);
    clock.advance(11 * MIN);
    let before = saves();
    let report = t.maintain(clock.now_micros()).unwrap();
    let want = MaintenanceReport {
        sealed_by_age: 2,
        groups_flushed: 2,
        merges: 1,
        tablets_expired: 1,
        tablets_folded: 0,
    };
    assert_eq!((report, saves() - before), (want, 1));
    let before = saves();
    let idle = t.maintain(clock.now_micros()).unwrap();
    assert_eq!((idle, saves() - before), (MaintenanceReport::default(), 0));
    // Three batches in three periods, each its own group.
    for (dev, at) in [(5, 13 * HOUR), (6, 17 * HOUR), (7, 21 * HOUR)] {
        load(dev, at, 10);
    }
    let (before, stats) = (saves(), t.stats().snapshot());
    t.flush_all().unwrap();
    let after = t.stats().snapshot();
    assert_eq!(after.tablets_flushed - stats.tablets_flushed, 3);
    assert_eq!(after.snapshot_publishes - stats.snapshot_publishes, 3);
    assert_eq!(saves() - before, 1);
    let before = saves();
    let col = ColumnDef::with_default("note", ColumnType::Str, Value::Str("-".into()));
    t.add_column(col).unwrap();
    assert_eq!(saves() - before, 1);
    let before = saves();
    t.set_ttl(None).unwrap();
    assert_eq!(saves() - before, 1);
}
