//! Tests for the paper's proposed extensions implemented here:
//! `flush_before` (§4.1.2), and schema evolution interacting with merges.

mod extension_tests {
    use crate::db::Db;
    use crate::options::Options;
    use crate::query::Query;
    use crate::schema::{ColumnDef, Schema};
    use crate::table::Table;
    use crate::value::{ColumnType, Value};
    use littletable_vfs::{Micros, SimClock, SimVfs, MICROS_PER_SEC};
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
}

mod evolution_merge_tests {
    //! Schema evolution interacting with merges: merged output is written
    //! under the newest schema, translating old rows.

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
}
