//! Timestamp bounds at the ends of the range. An exclusive bound past
//! either end (`ts > i64::MAX`, `ts < i64::MIN`) admits no timestamp, so
//! the row cursor, the aggregate path and SQL all answer an empty window
//! even for a row that sits on the boundary itself, in memory or on
//! disk.

use littletable::core::agg::{AggFunc, AggSpec, Aggregate};
use littletable::vfs::{SimClock, SimVfs};
use littletable::{Db, Options, Query, Session, SqlOutput, Value};
use std::sync::Arc;

const NOW: i64 = 1_700_000_000_000_000;

fn sql_rows(session: &Session, sql: &str) -> Vec<Vec<Value>> {
    match session.execute(sql).unwrap() {
        SqlOutput::Rows { rows, .. } => rows,
        other => panic!("{sql}: expected rows, got {other:?}"),
    }
}

fn count(db: &Db, query: Query) -> Vec<Vec<Value>> {
    let t = db.table("t").unwrap();
    let agg = Aggregate {
        query,
        predicates: Vec::new(),
        groups: Vec::new(),
        aggs: vec![AggSpec {
            func: AggFunc::Count,
            col: None,
            distinct: false,
        }],
        limit: None,
    };
    db.aggregate(&t, &agg).unwrap().to_vec()
}

#[test]
fn exclusive_bounds_past_the_range_admit_nothing() {
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(SimClock::new(NOW)),
        Options::small_for_tests(),
    )
    .unwrap();
    let session = Session::new(db.clone());
    session
        .execute("CREATE TABLE t (k INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (k, ts))")
        .unwrap();
    let t = db.table("t").unwrap();
    let row = |ts: i64| vec![Value::I64(1), Value::Timestamp(ts), Value::I64(ts.signum())];
    t.insert(vec![row(i64::MIN), row(0), row(i64::MAX)])
        .unwrap();
    // What an aggregate answers over a window no row is in.
    let nothing = count(&db, Query::all().with_ts_range(1, 2));
    let sql_nothing = sql_rows(&session, "SELECT COUNT(*) FROM t WHERE ts = 1");

    for flushed in [false, true] {
        if flushed {
            t.flush_all().unwrap();
        }
        for q in [
            Query::all().with_ts_min(i64::MAX, false),
            Query::all().with_ts_max(i64::MIN, false),
        ] {
            assert_eq!(
                t.query_all(&q).unwrap(),
                Vec::new(),
                "{q:?}, flushed {flushed}"
            );
            assert_eq!(count(&db, q.clone()), nothing, "{q:?}, flushed {flushed}");
        }
        // The inclusive bounds still find the boundary rows.
        let q = Query::all().with_ts_min(i64::MAX, true);
        assert_eq!(t.query_all(&q).unwrap().len(), 1);
        let q = Query::all().with_ts_max(i64::MIN, true);
        assert_eq!(t.query_all(&q).unwrap().len(), 1);

        let past = "WHERE ts > 9223372036854775807";
        assert_eq!(
            sql_rows(&session, &format!("SELECT * FROM t {past}")),
            Vec::<Vec<Value>>::new()
        );
        assert_eq!(
            sql_rows(&session, &format!("SELECT COUNT(*) FROM t {past}")),
            sql_nothing
        );
        // Equality meets the other bounds; it does not replace them.
        assert_eq!(
            sql_rows(&session, "SELECT COUNT(*) FROM t WHERE ts > 0 AND ts = 0"),
            sql_nothing
        );
        assert_eq!(
            sql_rows(&session, "SELECT COUNT(*) FROM t WHERE ts = 0 AND ts >= 0"),
            vec![vec![Value::I64(1)]]
        );
    }
}
