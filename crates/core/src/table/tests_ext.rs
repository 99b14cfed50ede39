//! Tests for the paper's proposed extensions implemented here:
//! `flush_before` (§4.1.2), `bulk_delete` (§7), schema evolution
//! interacting with merges, and the §6 cold tier.

mod extension_tests {
    use crate::db::Db;
    use crate::options::Options;
    use crate::query::Query;
    use crate::schema::{ColumnDef, Schema};
    use crate::table::Table;
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{Clock, Micros, SimClock, SimVfs, Vfs, MICROS_PER_SEC};
    use std::sync::Arc;

    const START: Micros = 1_700_000_000_000_000;

    fn usage_schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("customer", ColumnType::I64),
                ColumnDef::new("device", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::I64),
            ],
            &["customer", "device", "ts"],
        )
        .unwrap()
    }

    fn setup() -> (Db, SimVfs, SimClock, Arc<Table>) {
        let clock = SimClock::new(START);
        let vfs = SimVfs::instant();
        let mut opts = Options::small_for_tests();
        opts.flush_size = 8 << 10;
        let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
        let t = db.create_table("u", usage_schema(), None).unwrap();
        (db, vfs, clock, t)
    }

    fn row(c: i64, d: i64, ts: Micros) -> Vec<Value> {
        vec![
            Value::I64(c),
            Value::I64(d),
            Value::Timestamp(ts),
            Value::I64(c * 100 + d),
        ]
    }

    #[test]
    fn flush_before_makes_old_rows_durable() {
        let (_db, vfs, clock, t) = setup();
        let mut opts = Options::small_for_tests();
        opts.flush_size = 8 << 10;
        // Old rows and new rows in separate periods; only the old must
        // flush.
        let old_ts = START - 30 * 24 * 3600 * MICROS_PER_SEC;
        t.insert(vec![row(1, 1, old_ts)]).unwrap();
        t.insert(vec![row(1, 2, START)]).unwrap();
        t.flush_before(old_ts + 1).unwrap();
        // Crash: the old row survives (and, by prefix durability, so does
        // anything inserted before it — here nothing).
        vfs.crash();
        let db2 = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
        let rows = db2.table("u").unwrap().query_all(&Query::all()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[2], Value::Timestamp(old_ts));
    }

    #[test]
    fn flush_before_respects_dependency_closure() {
        let (_db, vfs, clock, t) = setup();
        // Interleave inserts across two periods so a dependency cycle
        // forms; flushing "before" must drag the sibling along, keeping
        // the prefix guarantee.
        let old_ts = START - 30 * 24 * 3600 * MICROS_PER_SEC;
        for i in 0..5 {
            t.insert(vec![row(1, i, START + i)]).unwrap();
            t.insert(vec![row(2, i, old_ts + i)]).unwrap();
        }
        t.flush_before(old_ts + 10).unwrap();
        vfs.crash();
        let db2 = Db::open(
            Arc::new(vfs.clone()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        // All ten rows survive: the cycle commits atomically.
        let rows = db2.table("u").unwrap().query_all(&Query::all()).unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn bulk_delete_removes_exactly_the_prefix() {
        let (_db, _vfs, clock, t) = setup();
        for c in 1..=3i64 {
            for d in 1..=4i64 {
                for k in 0..50 {
                    t.insert(vec![row(c, d, START + k)]).unwrap();
                }
            }
        }
        t.flush_all().unwrap();
        while t.run_merge_once(clock.now_micros()).unwrap() {}
        // Customer 2 exercises its right to be forgotten.
        let deleted = t.bulk_delete(&[Value::I64(2)]).unwrap();
        assert_eq!(deleted, 200);
        let rows = t.query_all(&Query::all()).unwrap();
        assert_eq!(rows.len(), 400);
        assert!(rows.iter().all(|r| r.values[0] != Value::I64(2)));
        // Narrower prefix: one device of customer 1.
        let deleted = t.bulk_delete(&[Value::I64(1), Value::I64(3)]).unwrap();
        assert_eq!(deleted, 50);
        assert_eq!(t.query_all(&Query::all()).unwrap().len(), 350);
        // Deleting again is a no-op.
        assert_eq!(t.bulk_delete(&[Value::I64(2)]).unwrap(), 0);
    }

    #[test]
    fn bulk_delete_covers_unflushed_rows_and_survives_restart() {
        let (_db, vfs, clock, t) = setup();
        for k in 0..20 {
            t.insert(vec![row(7, 1, START + k)]).unwrap();
            t.insert(vec![row(8, 1, START + k)]).unwrap();
        }
        // No flush yet: bulk_delete must flush and still remove them.
        let deleted = t.bulk_delete(&[Value::I64(7)]).unwrap();
        assert_eq!(deleted, 20);
        vfs.crash();
        let db2 = Db::open(
            Arc::new(vfs.clone()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let rows = db2.table("u").unwrap().query_all(&Query::all()).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r.values[0] == Value::I64(8)));
    }

    #[test]
    fn bulk_delete_drops_empty_tablets_and_reclaims_files() {
        let (_db, vfs, _clock, t) = setup();
        // One tablet holding only customer 9.
        for k in 0..100 {
            t.insert(vec![row(9, 1, START + k)]).unwrap();
        }
        t.flush_all().unwrap();
        let files_before = vfs.list_dir("u").unwrap().len();
        let deleted = t.bulk_delete(&[Value::I64(9)]).unwrap();
        assert_eq!(deleted, 100);
        assert_eq!(t.num_disk_tablets(), 0);
        assert!(vfs.list_dir("u").unwrap().len() < files_before);
        assert_eq!(t.query_all(&Query::all()).unwrap().len(), 0);
        // New inserts for the deleted customer work fine.
        t.insert(vec![row(9, 1, START + 1000)]).unwrap();
        assert_eq!(t.query_all(&Query::all()).unwrap().len(), 1);
    }

    #[test]
    fn bulk_delete_validates_prefix() {
        let (_db, _vfs, _clock, t) = setup();
        assert!(t.bulk_delete(&[]).is_err());
        assert!(t
            .bulk_delete(&[Value::I64(1), Value::I64(1), Value::Timestamp(0)])
            .is_err());
        assert!(t.bulk_delete(&[Value::Str("wrong type".into())]).is_err());
    }
}

mod evolution_merge_tests {
    //! Schema evolution interacting with merges and bulk deletes: merged
    //! output is written under the newest schema, translating old rows.

    use crate::db::Db;
    use crate::options::Options;
    use crate::query::Query;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{Clock, Micros, SimClock, SimVfs};
    use std::sync::Arc;

    const START: Micros = 1_700_000_000_000_000;

    #[test]
    fn merge_translates_rows_to_newest_schema() {
        let clock = SimClock::new(START);
        let vfs = SimVfs::instant();
        let db = Db::open(
            Arc::new(vfs),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let schema = Schema::new(
            vec![
                ColumnDef::new("n", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("c", ColumnType::I32),
            ],
            &["n", "ts"],
        )
        .unwrap();
        let t = db.create_table("t", schema, None).unwrap();
        // Two tablets under schema v1.
        for chunk in 0..2i64 {
            for i in 0..100 {
                let k = chunk * 100 + i;
                t.insert(vec![vec![
                    Value::I64(k),
                    Value::Timestamp(START + k),
                    Value::I32(k as i32),
                ]])
                .unwrap();
            }
            t.flush_all().unwrap();
        }
        // Evolve twice: widen + append.
        t.widen_column("c").unwrap();
        t.add_column(ColumnDef::with_default(
            "label",
            ColumnType::Str,
            Value::Str("old".into()),
        ))
        .unwrap();
        // One more tablet under schema v3.
        t.insert(vec![vec![
            Value::I64(200),
            Value::Timestamp(START + 200),
            Value::I64(1 << 40),
            Value::Str("new".into()),
        ]])
        .unwrap();
        t.flush_all().unwrap();
        assert!(t.num_disk_tablets() >= 3);
        while t.run_merge_once(clock.now_micros()).unwrap() {}
        // After merging everything is readable under v3 with translated
        // values, and the merged tablet's recorded schema is v3.
        let rows = t.query_all(&Query::all()).unwrap();
        assert_eq!(rows.len(), 201);
        assert_eq!(rows[0].values[2], Value::I64(0));
        assert_eq!(rows[0].values[3], Value::Str("old".into()));
        assert_eq!(rows[200].values[2], Value::I64(1 << 40));
        assert_eq!(rows[200].values[3], Value::Str("new".into()));
        let snap = t.snapshot.read().clone();
        assert!(snap.disk.iter().any(|h| h.meta.schema_version == 3));
    }

    #[test]
    fn bulk_delete_after_evolution_rewrites_under_newest_schema() {
        let clock = SimClock::new(START);
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let schema = Schema::new(
            vec![
                ColumnDef::new("cust", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["cust", "ts"],
        )
        .unwrap();
        let t = db.create_table("t", schema, None).unwrap();
        for c in 1..=2i64 {
            for i in 0..50 {
                t.insert(vec![vec![
                    Value::I64(c),
                    Value::Timestamp(START + c * 1000 + i),
                ]])
                .unwrap();
            }
        }
        t.flush_all().unwrap();
        t.add_column(ColumnDef::new("extra", ColumnType::I64))
            .unwrap();
        let deleted = t.bulk_delete(&[Value::I64(1)]).unwrap();
        assert_eq!(deleted, 50);
        let rows = t.query_all(&Query::all()).unwrap();
        assert_eq!(rows.len(), 50);
        // Survivors were rewritten with the new column's default.
        assert!(rows.iter().all(|r| r.values.len() == 3
            && r.values[0] == Value::I64(2)
            && r.values[2] == Value::I64(0)));
    }
}

mod cold_store_tests {
    //! The §6 cold-tier extension: old tablets move to a write-once
    //! backing store and keep serving queries from there.

    use crate::db::Db;
    use crate::options::Options;
    use crate::query::Query;
    use crate::schema::{ColumnDef, Schema};
    use crate::table::Table;
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{Clock, Micros, SimClock, SimVfs, Vfs};
    use std::sync::Arc;

    const START: Micros = 1_700_000_000_000_000;
    const DAY: Micros = 86_400 * 1_000_000;

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

    fn setup() -> (Db, SimVfs, SimVfs, SimClock) {
        let clock = SimClock::new(START);
        let hot = SimVfs::instant();
        let cold = SimVfs::instant();
        let db = Db::open_with_cold(
            Arc::new(hot.clone()),
            Some(Arc::new(cold.clone())),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        (db, hot, cold, clock)
    }

    fn fill(t: &Table, base: Micros, n: i64) {
        for i in 0..n {
            t.insert(vec![vec![
                Value::I64(base / 1000 + i),
                Value::Timestamp(base + i),
            ]])
            .unwrap();
        }
        t.flush_all().unwrap();
    }

    #[test]
    fn old_tablets_migrate_and_keep_serving() {
        let (db, hot, cold, clock) = setup();
        let t = db.create_table("t", schema(), None).unwrap();
        fill(&t, START - 30 * DAY, 200); // old data
        fill(&t, START, 200); // recent data
        let migrated = t.migrate_to_cold(START - DAY).unwrap();
        assert_eq!(migrated, 1);
        assert!(t.cold_bytes() > 0);
        // The cold file exists in the cold store, not the hot one.
        let cold_files = cold.list_dir("t").unwrap();
        assert_eq!(cold_files.iter().filter(|f| f.ends_with(".lt")).count(), 1);
        let hot_files = hot.list_dir("t").unwrap();
        assert_eq!(hot_files.iter().filter(|f| f.ends_with(".lt")).count(), 1);
        // Queries span both tiers transparently.
        assert_eq!(t.query_all(&Query::all()).unwrap().len(), 400);
        // Migration is idempotent.
        assert_eq!(t.migrate_to_cold(START - DAY).unwrap(), 0);
        // Cold tablets never merge.
        assert!(!t.run_merge_once(clock.now_micros()).unwrap());
    }

    #[test]
    fn cold_tablets_survive_restart() {
        let (db, hot, cold, clock) = setup();
        let t = db.create_table("t", schema(), None).unwrap();
        fill(&t, START - 30 * DAY, 100);
        t.migrate_to_cold(START).unwrap();
        drop(db);
        let db2 = Db::open_with_cold(
            Arc::new(hot.clone()),
            Some(Arc::new(cold.clone())),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let t2 = db2.table("t").unwrap();
        assert_eq!(t2.query_all(&Query::all()).unwrap().len(), 100);
        assert!(t2.cold_bytes() > 0);
        // Opening without a cold store fails loudly rather than serving
        // partial data.
        let res = Db::open(
            Arc::new(hot.clone()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn ttl_reaps_cold_tablets_from_the_cold_store() {
        let (db, _hot, cold, clock) = setup();
        let ttl = 10 * DAY;
        let t = db.create_table("t", schema(), Some(ttl)).unwrap();
        fill(&t, START - 30 * DAY, 50);
        t.migrate_to_cold(START).unwrap();
        clock.set(START + ttl);
        let reaped = t.ttl_reap(clock.now_micros()).unwrap();
        assert_eq!(reaped, 1);
        let cold_files = cold.list_dir("t").unwrap();
        assert_eq!(cold_files.iter().filter(|f| f.ends_with(".lt")).count(), 0);
    }

    #[test]
    fn a_migration_that_fails_part_way_leaves_nothing_behind() {
        use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind};
        let (db, hot, cold, _clock) = setup();
        let t = db.create_table("t", schema(), None).unwrap();
        fill(&t, START - 30 * DAY, 200);
        fill(&t, START - 20 * DAY, 200);
        fill(&t, START, 200); // stays hot
        let listing = || {
            let sorted = |vfs: &SimVfs| {
                let mut names = vfs.list_dir("t").unwrap_or_default();
                names.sort();
                names
            };
            (sorted(&hot), sorted(&cold))
        };
        let (rows_before, listing_before) = (t.query_all(&Query::all()).unwrap(), listing());
        // Fail each write to the cold store in turn — the directory, each
        // copy's creation, append and sync, the directory sync — until a
        // call gets through with none failed.
        let mut failed = 0;
        let migrated = loop {
            let nth = FaultRule::new(FaultKind::Eio)
                .on_ops(&[
                    OpKind::Mkdir,
                    OpKind::Create,
                    OpKind::Append,
                    OpKind::Sync,
                    OpKind::SyncDir,
                ])
                .nth_match(failed + 1);
            cold.set_fault_plan(FaultPlan::new().rule(nth));
            let result = t.migrate_to_cold(START - DAY);
            cold.clear_fault_plan();
            if cold.faults_injected() == failed {
                break result.unwrap();
            }
            failed += 1;
            assert!(result.is_err(), "write {failed} failed and went unreported");
            assert_eq!(listing(), listing_before, "write {failed}");
            assert_eq!(t.query_all(&Query::all()).unwrap(), rows_before);
            assert_eq!(t.cold_bytes(), 0);
        };
        assert_eq!((failed, migrated), (8, 2));
        assert_eq!(t.query_all(&Query::all()).unwrap(), rows_before);
        let (hot_after, cold_after) = listing();
        assert_eq!(cold_after.len(), 2);
        assert_eq!(hot_after.len(), listing_before.0.len() - 2);
    }

    /// Crashes the operation `k` of a migration makes on the cold store
    /// (`on_cold`) or the hot one, reboots both and reopens: every row
    /// reads back, and each store holds exactly the tablets the descriptor
    /// places in it. Returns false once the migration makes fewer than `k`
    /// operations there.
    fn crash_mid_migration(on_cold: bool, k: u64) -> bool {
        use crate::descriptor::TableDescriptor;
        use littletable_vfs::FaultPlan;
        let (db, hot, cold, clock) = setup();
        let t = db.create_table("t", schema(), None).unwrap();
        fill(&t, START - 30 * DAY, 200);
        fill(&t, START - 20 * DAY, 200);
        fill(&t, START, 200); // stays hot
        let rows = t.query_all(&Query::all()).unwrap();
        let store = if on_cold { &cold } else { &hot };
        store.set_fault_plan(FaultPlan::crash_at(store.op_count() + k));
        let _ = t.migrate_to_cold(START - DAY);
        let fired = store.faults_injected() > 0;
        drop((t, db));
        for store in [&hot, &cold] {
            store.crash();
            store.clear_fault_plan();
        }
        let db = Db::open_with_cold(
            Arc::new(hot.clone()),
            Some(Arc::new(cold.clone())),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let at = format!(
            "crash at op {k} on the {} store",
            ["hot", "cold"][on_cold as usize]
        );
        assert_eq!(
            db.table("t").unwrap().query_all(&Query::all()).unwrap(),
            rows,
            "{at}"
        );
        let desc = TableDescriptor::load(&hot, "t").unwrap();
        for (store, cold) in [(&hot, false), (&cold, true)] {
            let mut held: Vec<String> = store.list_dir("t").unwrap_or_default();
            held.retain(|f| f.ends_with(".lt"));
            held.sort();
            let placed = desc.tablets.iter().filter(|m| m.cold == cold);
            let mut placed: Vec<String> = placed.map(|m| m.file_name()).collect();
            placed.sort();
            assert_eq!(held, placed, "{at}: cold store {cold}");
        }
        fired
    }

    #[test]
    fn a_crash_mid_migration_leaves_each_store_its_own_tablets() {
        for on_cold in [true, false] {
            let mut k = 0;
            while crash_mid_migration(on_cold, k) {
                k += 1;
            }
            assert!(k >= 8, "only {k} operations");
        }
    }

    #[test]
    fn migrate_without_cold_store_is_an_error() {
        let clock = SimClock::new(START);
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let t = db.create_table("t", schema(), None).unwrap();
        assert!(t.migrate_to_cold(START).is_err());
    }

    #[test]
    fn drop_table_cleans_both_tiers() {
        let (db, hot, cold, _clock) = setup();
        let t = db.create_table("t", schema(), None).unwrap();
        fill(&t, START - 30 * DAY, 50);
        t.migrate_to_cold(START).unwrap();
        db.drop_table("t").unwrap();
        assert!(hot
            .list_dir("t")
            .unwrap_or_default()
            .iter()
            .all(|f| !f.ends_with(".lt")));
        assert!(cold
            .list_dir("t")
            .unwrap_or_default()
            .iter()
            .all(|f| !f.ends_with(".lt")));
    }
}
