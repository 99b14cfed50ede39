//! Tests for the paper's proposed extensions implemented here:
//! `flush_before` (§4.1.2), `bulk_delete` (§7), and schema evolution
//! interacting with merges.

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
