//! Statement execution against an embedded engine [`Db`].

use crate::ast::{AggFunc, ColumnAst, GroupExpr, Literal, Select, SelectItem, Statement};
use crate::plan::{column_index, plan_select, Plan};
use littletable_core::agg::{AggSpec, Aggregate, GroupSpec};
use littletable_core::db::Db;
use littletable_core::error::{Error, Result};
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::value::{ColumnType, Value};

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlOutput {
    /// DDL succeeded.
    Done,
    /// Rows affected (INSERT reports accepted rows; duplicates are
    /// silently skipped per the engine's uniqueness semantics).
    Count(u64),
    /// A result set.
    Rows {
        /// Column labels.
        columns: Vec<String>,
        /// Row values.
        rows: Vec<Vec<Value>>,
    },
}

/// A SQL session over an engine handle.
pub struct Session {
    db: Db,
}

impl Session {
    /// Creates a session.
    pub fn new(db: Db) -> Session {
        Session { db }
    }

    /// The underlying database.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Parses and executes one statement.
    pub fn execute(&self, sql: &str) -> Result<SqlOutput> {
        let stmt = crate::parser::parse(sql)?;
        self.run(stmt)
    }

    fn run(&self, stmt: Statement) -> Result<SqlOutput> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                ttl,
            } => {
                let now = self.db.now();
                let cols: Vec<ColumnDef> = columns
                    .iter()
                    .map(|c| self.column_def(c, now))
                    .collect::<Result<_>>()?;
                let keys: Vec<&str> = primary_key.iter().map(String::as_str).collect();
                let schema = Schema::new(cols, &keys)?;
                self.db.create_table(&name, schema, ttl)?;
                Ok(SqlOutput::Done)
            }
            Statement::DropTable { name } => {
                self.db.drop_table(&name)?;
                Ok(SqlOutput::Done)
            }
            Statement::CreateRollup {
                name,
                base,
                period_micros,
                value_cols,
                distinct_cols,
            } => {
                self.db
                    .create_rollup(&name, &base, period_micros, value_cols, distinct_cols)?;
                Ok(SqlOutput::Done)
            }
            Statement::DropRollup { name } => {
                self.db.drop_rollup(&name)?;
                Ok(SqlOutput::Done)
            }
            Statement::AlterAddColumn { name, column } => {
                let now = self.db.now();
                let col = self.column_def(&column, now)?;
                self.db.table(&name)?.add_column(col)?;
                Ok(SqlOutput::Done)
            }
            Statement::AlterWidenColumn { name, column } => {
                self.db.table(&name)?.widen_column(&column)?;
                Ok(SqlOutput::Done)
            }
            Statement::AlterSetTtl { name, ttl } => {
                self.db.table(&name)?.set_ttl(ttl)?;
                Ok(SqlOutput::Done)
            }
            Statement::Insert {
                name,
                columns,
                rows,
            } => self.insert(&name, columns, rows),
            Statement::Select(sel) => self.select(&sel),
            Statement::ShowTables => Ok(SqlOutput::Rows {
                columns: vec!["table".into()],
                rows: self
                    .db
                    .list_tables()
                    .into_iter()
                    .map(|n| vec![Value::Str(n)])
                    .collect(),
            }),
            Statement::Describe { name } => {
                let t = self.db.table(&name)?;
                let schema = t.schema();
                let rows = schema
                    .columns()
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let key_pos = schema.key_indices().iter().position(|&k| k == i);
                        vec![
                            Value::Str(c.name.clone()),
                            Value::Str(c.ty.to_string()),
                            Value::Str(key_pos.map(|p| format!("key[{p}]")).unwrap_or_default()),
                            Value::Str(c.default.to_string()),
                        ]
                    })
                    .collect();
                Ok(SqlOutput::Rows {
                    columns: vec![
                        "column".into(),
                        "type".into(),
                        "key".into(),
                        "default".into(),
                    ],
                    rows,
                })
            }
        }
    }

    fn column_def(&self, c: &ColumnAst, now: i64) -> Result<ColumnDef> {
        Ok(match &c.default {
            None => ColumnDef::new(&c.name, c.ty),
            Some(lit) => ColumnDef::with_default(&c.name, c.ty, lit.to_value(c.ty, now)?),
        })
    }

    fn insert(
        &self,
        name: &str,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Literal>>,
    ) -> Result<SqlOutput> {
        let t = self.db.table(name)?;
        let schema = t.schema();
        let now = self.db.now();
        // Map listed columns to schema slots.
        let slots: Vec<usize> = match &columns {
            None => (0..schema.num_columns()).collect(),
            Some(names) => names
                .iter()
                .map(|n| column_index(&schema, n))
                .collect::<Result<_>>()?,
        };
        let ts_index = schema.ts_index();
        let mut full_rows = Vec::with_capacity(rows.len());
        for lits in rows {
            if lits.len() != slots.len() {
                return Err(Error::invalid(format!(
                    "row has {} values but {} columns are listed",
                    lits.len(),
                    slots.len()
                )));
            }
            let mut values: Vec<Option<Value>> = vec![None; schema.num_columns()];
            for (lit, &slot) in lits.iter().zip(&slots) {
                let ty = schema.columns()[slot].ty;
                values[slot] = Some(lit.to_value(ty, now)?);
            }
            // Unlisted columns: the timestamp gets "now" (§3.1: clients may
            // omit it); everything else takes its schema default.
            let row: Vec<Value> = values
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    v.unwrap_or_else(|| {
                        if i == ts_index {
                            Value::Timestamp(now)
                        } else {
                            schema.columns()[i].default.clone()
                        }
                    })
                })
                .collect();
            full_rows.push(row);
        }
        let report = t.insert(full_rows)?;
        Ok(SqlOutput::Count(report.inserted as u64))
    }

    fn select(&self, sel: &Select) -> Result<SqlOutput> {
        let t = self.db.table(&sel.table)?;
        let schema = t.schema();
        let mut plan = plan_select(sel, &schema, self.db.now())?;
        let aggregates = sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }));
        if !aggregates && sel.group_by.is_empty() {
            // The engine's limit counts pre-residual rows, so it is only
            // pushed down with no residual filter.
            if plan.residual.is_empty() {
                plan.query.limit = sel.limit;
            }
            return self.plain_select(sel, &schema, plan);
        }

        // Each SELECT item's label, and its position in an answer row:
        // the GROUP BY values, then the aggregates in SELECT-list order.
        let mut columns = Vec::with_capacity(sel.items.len());
        let mut slots = Vec::with_capacity(sel.items.len());
        let mut aggs = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(Error::invalid("* cannot be mixed with aggregates"))
                }
                SelectItem::Group(expr) => {
                    let pos = sel.group_by.iter().position(|g| g == expr);
                    slots.push(pos.ok_or_else(|| match expr {
                        GroupExpr::Column(name) => {
                            Error::invalid(format!("column {name:?} must appear in GROUP BY"))
                        }
                        GroupExpr::TimeBucket { .. } => {
                            Error::invalid("TIME_BUCKET in SELECT must appear in GROUP BY")
                        }
                    })?);
                    columns.push(match expr {
                        GroupExpr::Column(name) => name.clone(),
                        GroupExpr::TimeBucket { column, .. } => format!("time_bucket({column})"),
                    });
                }
                SelectItem::Aggregate {
                    func,
                    column,
                    distinct,
                } => {
                    slots.push(sel.group_by.len() + aggs.len());
                    aggs.push(AggSpec {
                        func: *func,
                        col: column
                            .as_ref()
                            .map(|n| column_index(&schema, n))
                            .transpose()?,
                        distinct: *distinct,
                    });
                    columns.push(format!(
                        "{}({}{})",
                        match func {
                            AggFunc::Count => "count",
                            AggFunc::Sum => "sum",
                            AggFunc::Min => "min",
                            AggFunc::Max => "max",
                            AggFunc::Avg => "avg",
                        },
                        if *distinct { "distinct " } else { "" },
                        column.as_deref().unwrap_or("*")
                    ));
                }
            }
        }
        let groups = sel
            .group_by
            .iter()
            .map(|g| {
                let (name, bucket) = match g {
                    GroupExpr::Column(n) => (n, None),
                    GroupExpr::TimeBucket {
                        column,
                        width_micros,
                    } => (column, Some(*width_micros)),
                };
                let col = column_index(&schema, name)?;
                let ty = schema.columns()[col].ty;
                if bucket.is_some() && ty != ColumnType::Timestamp {
                    return Err(Error::invalid("TIME_BUCKET requires a TIMESTAMP column"));
                }
                if bucket.is_none() && ty == ColumnType::F64 {
                    return Err(Error::invalid("cannot GROUP BY a double column"));
                }
                Ok(GroupSpec { col, bucket })
            })
            .collect::<Result<_>>()?;
        let answer = self.db.aggregate(
            &t,
            &Aggregate {
                query: plan.query,
                predicates: plan.residual,
                groups,
                aggs,
                limit: sel.limit,
            },
        )?;
        let rows = answer
            .iter()
            .map(|row| slots.iter().map(|&i| row[i].clone()).collect())
            .collect();
        Ok(SqlOutput::Rows { columns, rows })
    }

    fn plain_select(&self, sel: &Select, schema: &Schema, plan: Plan) -> Result<SqlOutput> {
        // Projection slots.
        let mut columns = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in schema.columns().iter().enumerate() {
                        columns.push(c.name.clone());
                        slots.push(i);
                    }
                }
                SelectItem::Group(GroupExpr::Column(n)) => {
                    let i = column_index(schema, n)?;
                    columns.push(n.clone());
                    slots.push(i);
                }
                SelectItem::Group(GroupExpr::TimeBucket { .. }) => {
                    return Err(Error::invalid("TIME_BUCKET requires GROUP BY"))
                }
                SelectItem::Aggregate { .. } => unreachable!("handled by caller"),
            }
        }
        let t = self.db.table(&sel.table)?;
        let mut cur = t.query(&plan.query)?;
        let mut rows = Vec::new();
        while let Some(row) = cur.next_row()? {
            if !plan.residual.iter().all(|p| p.matches(&row.values[p.col])) {
                continue;
            }
            rows.push(slots.iter().map(|&i| row.values[i].clone()).collect());
            if let Some(limit) = sel.limit {
                if rows.len() >= limit {
                    break;
                }
            }
        }
        Ok(SqlOutput::Rows { columns, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littletable_core::Options;
    use littletable_vfs::{SimClock, SimVfs};
    use std::sync::Arc;

    const START: i64 = 1_700_000_000_000_000;

    fn session() -> (Session, SimClock) {
        let clock = SimClock::new(START);
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        (Session::new(db), clock)
    }

    fn rows(out: SqlOutput) -> Vec<Vec<Value>> {
        match out {
            SqlOutput::Rows { rows, .. } => rows,
            o => panic!("expected rows, got {o:?}"),
        }
    }

    fn setup_usage(s: &Session) {
        s.execute(
            "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, \
             bytes INT64, PRIMARY KEY (network, device, ts))",
        )
        .unwrap();
        // 2 networks x 3 devices x 5 samples.
        for net in 1..=2 {
            for dev in 1..=3 {
                for i in 0..5 {
                    s.execute(&format!(
                        "INSERT INTO usage VALUES ({net}, {dev}, {}, {})",
                        START + i * 1_000_000,
                        100 * dev + i
                    ))
                    .unwrap();
                }
            }
        }
    }

    #[test]
    fn create_insert_select_round_trip() {
        let (s, _) = session();
        setup_usage(&s);
        let got = rows(s.execute("SELECT * FROM usage WHERE network = 1").unwrap());
        assert_eq!(got.len(), 15);
        let got = rows(
            s.execute("SELECT bytes FROM usage WHERE network = 1 AND device = 2")
                .unwrap(),
        );
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], vec![Value::I64(200)]);
    }

    #[test]
    fn aggregates_with_group_by() {
        let (s, _) = session();
        setup_usage(&s);
        let got = rows(
            s.execute(
                "SELECT device, SUM(bytes), COUNT(*) FROM usage \
                 WHERE network = 1 GROUP BY device",
            )
            .unwrap(),
        );
        assert_eq!(got.len(), 3);
        // device 1: 100+101+102+103+104 = 510
        assert_eq!(got[0], vec![Value::I64(1), Value::I64(510), Value::I64(5)]);
        assert_eq!(got[1][0], Value::I64(2));
        assert_eq!(got[1][1], Value::I64(1010));
    }

    #[test]
    fn global_aggregates_without_group_by() {
        let (s, _) = session();
        setup_usage(&s);
        let got = rows(
            s.execute("SELECT COUNT(*), MIN(bytes), MAX(bytes), AVG(device) FROM usage")
                .unwrap(),
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0], Value::I64(30));
        assert_eq!(got[0][1], Value::I64(100));
        assert_eq!(got[0][2], Value::I64(304));
        assert_eq!(got[0][3], Value::F64(2.0));
    }

    #[test]
    fn time_bounds_and_now() {
        let (s, clock) = session();
        setup_usage(&s);
        clock.set(START + 10_000_000);
        // Last 3 seconds relative to NOW(): samples i=2,3,4 are at
        // START+2s..START+4s; NOW()-8s = START+2s.
        let got = rows(
            s.execute(
                "SELECT * FROM usage WHERE network = 1 AND device = 1 \
                 AND ts >= NOW() - INTERVAL '8s'",
            )
            .unwrap(),
        );
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn order_and_limit() {
        let (s, _) = session();
        setup_usage(&s);
        let got = rows(
            s.execute("SELECT device FROM usage WHERE network = 1 ORDER BY network DESC LIMIT 4")
                .unwrap(),
        );
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], vec![Value::I64(3)]);
        // Residual filter + limit: limit applies after filtering.
        let got = rows(
            s.execute("SELECT device, bytes FROM usage WHERE bytes >= 300 LIMIT 3")
                .unwrap(),
        );
        assert_eq!(got.len(), 3);
        for r in &got {
            assert!(matches!(r[1], Value::I64(b) if b >= 300));
        }
    }

    #[test]
    fn limit_zero_returns_no_rows() {
        let (s, _) = session();
        setup_usage(&s);
        for q in [
            "SELECT device FROM usage LIMIT 0",
            "SELECT device, COUNT(*) FROM usage GROUP BY device LIMIT 0",
            "SELECT COUNT(*) FROM usage LIMIT 0",
        ] {
            assert_eq!(rows(s.execute(q).unwrap()), Vec::<Vec<Value>>::new(), "{q}");
        }
    }

    #[test]
    fn insert_defaults_and_server_timestamp() {
        let (s, clock) = session();
        s.execute(
            "CREATE TABLE ev (n INT64, ts TIMESTAMP, msg TEXT DEFAULT 'none', \
             PRIMARY KEY (n, ts))",
        )
        .unwrap();
        clock.set(START + 42);
        s.execute("INSERT INTO ev (n) VALUES (7)").unwrap();
        let got = rows(s.execute("SELECT * FROM ev").unwrap());
        assert_eq!(
            got[0],
            vec![
                Value::I64(7),
                Value::Timestamp(START + 42),
                Value::Str("none".into())
            ]
        );
    }

    #[test]
    fn ddl_statements() {
        let (s, _) = session();
        s.execute("CREATE TABLE t (n INT64, ts TIMESTAMP, c INT32, PRIMARY KEY (n, ts))")
            .unwrap();
        s.execute("ALTER TABLE t ADD COLUMN note TEXT DEFAULT '-'")
            .unwrap();
        s.execute("ALTER TABLE t WIDEN COLUMN c").unwrap();
        s.execute("ALTER TABLE t SET TTL '90d'").unwrap();
        let desc = rows(s.execute("DESCRIBE t").unwrap());
        assert_eq!(desc.len(), 4);
        assert_eq!(desc[2][1], Value::Str("int64".into())); // widened
        let tables = rows(s.execute("SHOW TABLES").unwrap());
        assert_eq!(tables.len(), 1);
        s.execute("DROP TABLE t").unwrap();
        assert!(s.execute("SELECT * FROM t").is_err());
    }

    /// A duration past int64 micros is an error, not a panic (debug) or a
    /// wrapped, maybe negative, TTL (release); a zero TTL is refused.
    #[test]
    fn out_of_range_durations_and_ttls_are_errors() {
        let (s, _) = session();
        let table = "CREATE TABLE t (n INT64, ts TIMESTAMP, PRIMARY KEY (n, ts))";
        for ttl in ["10000000000000w", "0s"] {
            let err = s.execute(&format!("{table} TTL '{ttl}'")).unwrap_err();
            assert!(matches!(err, Error::Invalid(_)), "{ttl}: {err}");
        }
        assert!(s.db().table("t").is_err());
        s.execute(table).unwrap();
        for ttl in ["10000000000000w", "0s"] {
            let err = s.execute(&format!("ALTER TABLE t SET TTL '{ttl}'"));
            assert!(matches!(err, Err(Error::Invalid(_))), "{ttl}: {err:?}");
        }
        assert_eq!(s.db().table("t").unwrap().ttl(), None);
        let rollup = "CREATE ROLLUP r ON t PERIOD '10000000000000w'";
        assert!(matches!(s.execute(rollup), Err(Error::Invalid(_))));
        let bucket =
            "SELECT COUNT(*) FROM t GROUP BY TIME_BUCKET(ts, INTERVAL '9999999999999999d')";
        assert!(matches!(s.execute(bucket), Err(Error::Invalid(_))));
    }

    #[test]
    fn duplicate_inserts_are_skipped() {
        let (s, _) = session();
        s.execute("CREATE TABLE t (n INT64, ts TIMESTAMP, PRIMARY KEY (n, ts))")
            .unwrap();
        assert_eq!(
            s.execute("INSERT INTO t VALUES (1, 5), (1, 5), (2, 5)")
                .unwrap(),
            SqlOutput::Count(2)
        );
    }

    #[test]
    fn errors_are_reported() {
        let (s, _) = session();
        assert!(s.execute("SELECT * FROM missing").is_err());
        s.execute("CREATE TABLE t (n INT64, ts TIMESTAMP, v DOUBLE, PRIMARY KEY (n, ts))")
            .unwrap();
        assert!(s.execute("SELECT nope FROM t").is_err());
        assert!(s.execute("SELECT n, SUM(v) FROM t").is_err()); // n not grouped
        assert!(s.execute("SELECT *, COUNT(*) FROM t").is_err());
        assert!(s.execute("SELECT v, COUNT(*) FROM t GROUP BY v").is_err()); // group by double
        assert!(s.execute("INSERT INTO t (n) VALUES (1, 2)").is_err()); // arity
        assert!(s.execute("INSERT INTO t VALUES ('x', 1, 2.0)").is_err()); // type
    }

    #[test]
    fn sum_switches_to_float() {
        let (s, _) = session();
        s.execute("CREATE TABLE t (n INT64, ts TIMESTAMP, v DOUBLE, PRIMARY KEY (n, ts))")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 1, 1.5), (1, 2, 2.5)")
            .unwrap();
        let got = rows(s.execute("SELECT SUM(v) FROM t").unwrap());
        assert_eq!(got[0][0], Value::F64(4.0));
    }

    #[test]
    fn sum_past_int64_carries_on_as_a_double() {
        let (s, _) = session();
        s.execute("CREATE TABLE t (n INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (n, ts))")
            .unwrap();
        s.execute(&format!(
            "INSERT INTO t VALUES (1, 1, {max}), (1, 2, {max}), (1, 3, -5)",
            max = i64::MAX
        ))
        .unwrap();
        let expect = vec![vec![Value::F64(i64::MAX as f64 + i64::MAX as f64 - 5.0)]];
        // Row at a time from the memtablet, then off the flushed block's
        // typed slice: the same rule, the same value.
        assert_eq!(rows(s.execute("SELECT SUM(v) FROM t").unwrap()), expect);
        s.db().flush_all().unwrap();
        assert_eq!(
            rows(s.execute("SELECT SUM(v) FROM t WHERE n = 1").unwrap()),
            expect
        );
        // A sum that stays in range stays integral.
        assert_eq!(
            rows(s.execute("SELECT SUM(v) FROM t WHERE ts >= 2").unwrap()),
            vec![vec![Value::I64(i64::MAX - 5)]]
        );
    }

    #[test]
    fn ungrouped_aggregate_over_empty_input_is_one_row() {
        let (s, _) = session();
        s.execute("CREATE TABLE t (n INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (n, ts))")
            .unwrap();
        let q = "SELECT MAX(v), COUNT(*) FROM t";
        let empty = vec![vec![Value::I64(0), Value::I64(0)]];
        // Just created, nothing in memory or on disk.
        assert_eq!(rows(s.execute(q).unwrap()), empty);
        // The identical question again: served by the result cache.
        let t = s.db().table("t").unwrap();
        let hits = t.stats().snapshot().result_cache_hits;
        assert_eq!(rows(s.execute(q).unwrap()), empty);
        assert_eq!(t.stats().snapshot().result_cache_hits, hits + 1);
        // After a flush of zero rows.
        s.db().flush_all().unwrap();
        assert_eq!(
            rows(s.execute(&format!("{q} WHERE n >= 0")).unwrap()),
            empty
        );
        // Every aggregate has an empty answer, and a window that misses
        // every row of a populated table is empty input too.
        s.execute("INSERT INTO t VALUES (1, 10, 5)").unwrap();
        s.db().flush_all().unwrap();
        assert_eq!(
            rows(
                s.execute(
                    "SELECT COUNT(*), SUM(v), MIN(v), AVG(v), COUNT(DISTINCT v) FROM t \
                     WHERE ts > 10"
                )
                .unwrap()
            ),
            vec![vec![
                Value::I64(0),
                Value::I64(0),
                Value::I64(0),
                Value::F64(0.0),
                Value::I64(0)
            ]]
        );
        // A grouped aggregate over empty input has no groups.
        assert_eq!(
            rows(
                s.execute("SELECT n, COUNT(*) FROM t WHERE ts > 10 GROUP BY n")
                    .unwrap()
            ),
            Vec::<Vec<Value>>::new()
        );
    }

    #[test]
    fn rollup_served_aggregate_over_empty_input_is_one_row() {
        let (s, _) = session();
        let b0 = setup_rolled_metrics(&s);
        // Whole rollup buckets, none of which holds a row of `n = 9`.
        let hits = s.db().table("m").unwrap().stats().snapshot().rollup_hits;
        let got = rows(
            s.execute(&format!(
                "SELECT MAX(v), COUNT(*) FROM m WHERE n = 9 AND ts >= {b0} AND ts < {}",
                b0 + 4 * HOUR
            ))
            .unwrap(),
        );
        assert_eq!(got, vec![vec![Value::I64(0), Value::I64(0)]]);
        assert_eq!(
            s.db().table("m").unwrap().stats().snapshot().rollup_hits,
            hits + 1
        );
    }

    #[test]
    fn time_bucket_group_by() {
        let (s, _) = session();
        s.execute("CREATE TABLE m (n INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (n, ts))")
            .unwrap();
        // 4 samples per hour across 3 hours, aligned to START.
        for h in 0..3i64 {
            for i in 0..4i64 {
                s.execute(&format!(
                    "INSERT INTO m VALUES (1, {}, {})",
                    START + h * 3_600_000_000 + i * 60_000_000,
                    h * 10 + i
                ))
                .unwrap();
            }
        }
        let q = "SELECT TIME_BUCKET(ts, INTERVAL '1h'), COUNT(*), SUM(v) FROM m \
                 GROUP BY TIME_BUCKET(ts, INTERVAL '1h')";
        let expect = |got: Vec<Vec<Value>>| {
            assert_eq!(got.len(), 3);
            for (h, row) in got.iter().enumerate() {
                let h = h as i64;
                let bucket = START + h * 3_600_000_000;
                let bucket = bucket - bucket.rem_euclid(3_600_000_000);
                assert_eq!(
                    row,
                    &vec![
                        Value::Timestamp(bucket),
                        Value::I64(4),
                        Value::I64(40 * h + 6)
                    ]
                );
            }
        };
        expect(rows(s.execute(q).unwrap()));
        // Same answer from disk, where the pushdown path takes over.
        s.db().flush_all().unwrap();
        expect(rows(s.execute(q).unwrap()));
        // TIME_BUCKET must be grouped, and must see a timestamp column.
        assert!(s
            .execute("SELECT TIME_BUCKET(ts, INTERVAL '1h') FROM m")
            .is_err());
        assert!(s
            .execute(
                "SELECT TIME_BUCKET(v, INTERVAL '1h'), COUNT(*) FROM m \
                 GROUP BY TIME_BUCKET(v, INTERVAL '1h')"
            )
            .is_err());
    }

    #[test]
    fn count_min_max_answer_from_footer_stats() {
        let (s, _) = session();
        setup_usage(&s);
        s.db().flush_all().unwrap();
        let before = s.db().table("usage").unwrap().stats().snapshot();
        let got = rows(
            s.execute("SELECT COUNT(*), MIN(bytes), MAX(bytes) FROM usage")
                .unwrap(),
        );
        assert_eq!(
            got[0],
            vec![Value::I64(30), Value::I64(100), Value::I64(304)]
        );
        let after = s.db().table("usage").unwrap().stats().snapshot();
        assert_eq!(after.pushdown_scans, before.pushdown_scans + 1);
        assert_eq!(
            after.rows_materialized, before.rows_materialized,
            "COUNT/MIN/MAX over the whole table must not materialize rows"
        );
    }

    #[test]
    fn pushdown_aggregates_match_row_path() {
        let (s, _) = session();
        setup_usage(&s);
        let q = "SELECT device, SUM(bytes), COUNT(*), AVG(bytes) FROM usage \
                 WHERE network = 2 AND bytes >= 102 GROUP BY device";
        let mem = rows(s.execute(q).unwrap());
        s.db().flush_all().unwrap();
        let disk = rows(s.execute(q).unwrap());
        assert_eq!(mem, disk);
        assert_eq!(disk.len(), 3);
        // device 1: bytes 102,103,104 → sum 309, count 3.
        assert_eq!(disk[0][1], Value::I64(309));
        assert_eq!(disk[0][2], Value::I64(3));
    }

    #[test]
    fn select_survives_flush() {
        let (s, _) = session();
        setup_usage(&s);
        s.db().flush_all().unwrap();
        let got = rows(
            s.execute("SELECT device, SUM(bytes) FROM usage WHERE network = 2 GROUP BY device")
                .unwrap(),
        );
        assert_eq!(got.len(), 3);
    }

    const HOUR: i64 = 3_600_000_000;

    /// 4 samples per hour for 3 hours, flushed and rolled up hourly.
    /// Returns the first whole bucket boundary at or before START.
    fn setup_rolled_metrics(s: &Session) -> i64 {
        s.execute(
            "CREATE TABLE m (n INT64, ts TIMESTAMP, v INT64, u TEXT, \
             PRIMARY KEY (n, ts))",
        )
        .unwrap();
        for h in 0..3i64 {
            for i in 0..4i64 {
                s.execute(&format!(
                    "INSERT INTO m VALUES (1, {}, {}, 'u{}')",
                    START + h * HOUR + i * 60_000_000,
                    h * 10 + i,
                    i % 3
                ))
                .unwrap();
            }
        }
        s.db().flush_all().unwrap();
        s.execute("CREATE ROLLUP m_1h ON m PERIOD '1h' AGGREGATE (v) DISTINCT (u)")
            .unwrap();
        START - START.rem_euclid(HOUR)
    }

    #[test]
    fn rollup_serves_time_bucket_aggregates_with_zero_base_reads() {
        let (s, _) = session();
        let b0 = setup_rolled_metrics(&s);
        let before = s.db().table("m").unwrap().stats().snapshot();
        // Bucket-aligned window covering all samples: both tail scans
        // are empty, so the base table is not read at all.
        let q = format!(
            "SELECT TIME_BUCKET(ts, INTERVAL '1h'), COUNT(*), SUM(v), \
             MIN(v), MAX(v), AVG(v) FROM m \
             WHERE ts >= {b0} AND ts < {} \
             GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
            b0 + 4 * HOUR
        );
        let got = rows(s.execute(&q).unwrap());
        assert_eq!(got.len(), 3);
        for (h, row) in got.iter().enumerate() {
            let h = h as i64;
            let base = h * 10;
            assert_eq!(
                row,
                &vec![
                    Value::Timestamp(b0 + h * HOUR),
                    Value::I64(4),
                    Value::I64(4 * base + 6),
                    Value::I64(base),
                    Value::I64(base + 3),
                    Value::F64((4 * base + 6) as f64 / 4.0),
                ]
            );
        }
        let after = s.db().table("m").unwrap().stats().snapshot();
        assert_eq!(after.rollup_hits, before.rollup_hits + 1);
        assert_eq!(
            after.pushdown_scans, before.pushdown_scans,
            "rollup-covered window must not scan the base table"
        );
        assert_eq!(after.rows_materialized, before.rows_materialized);
        // The identical question again is a result-cache hit; the
        // rollup is not consulted a second time.
        let again = rows(s.execute(&q).unwrap());
        assert_eq!(again.len(), 3);
        let cached = s.db().table("m").unwrap().stats().snapshot();
        assert_eq!(cached.result_cache_hits, after.result_cache_hits + 1);
        assert_eq!(cached.rollup_hits, after.rollup_hits);
    }

    #[test]
    fn rollup_answers_match_base_scan() {
        let (s, _) = session();
        let b0 = setup_rolled_metrics(&s);
        // Unaligned window and a dim GROUP BY: rollup partials plus a
        // base tail must agree with a pure base scan of the same rows.
        let q = format!(
            "SELECT n, COUNT(*), SUM(v), AVG(v) FROM m \
             WHERE ts >= {} AND ts < {} GROUP BY n",
            b0 + HOUR,
            b0 + 2 * HOUR + 30 * 60_000_000
        );
        let served = rows(s.execute(&q).unwrap());
        assert_eq!(s.db().table("m").unwrap().stats().snapshot().rollup_hits, 1);
        // Dropping the rollup forces the ordinary pushdown. The drop
        // does not change the base table's cache key, so vary the
        // question (a no-op LIMIT) to dodge the result cache and force
        // a recomputation.
        s.execute("DROP ROLLUP m_1h").unwrap();
        let base = rows(s.execute(&format!("{q} LIMIT 100")).unwrap());
        assert_eq!(served, base);
    }

    #[test]
    fn rollup_tail_sees_rows_inserted_after_backfill() {
        let (s, _) = session();
        let b0 = setup_rolled_metrics(&s);
        let q = format!(
            "SELECT TIME_BUCKET(ts, INTERVAL '1h'), SUM(v), COUNT(*) FROM m \
             WHERE ts >= {b0} AND ts < {} \
             GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
            b0 + 4 * HOUR
        );
        let before = rows(s.execute(&q).unwrap());
        assert_eq!(before[1][1], Value::I64(46));
        // A row landing in an already-rolled-up bucket moves the
        // watermark back; the next query must not serve the stale
        // cached result or the stale rollup coverage.
        s.execute(&format!(
            "INSERT INTO m VALUES (1, {}, 1000, 'u9')",
            START + HOUR + 30 * 60_000_000
        ))
        .unwrap();
        let after = rows(s.execute(&q).unwrap());
        assert_eq!(after[1][1], Value::I64(1046));
        assert_eq!(after[1][2], Value::I64(5));
    }

    #[test]
    fn a_fold_whose_sum_leaves_int64_fails_and_the_base_keeps_answering() {
        let (s, _) = session();
        s.execute("CREATE TABLE m (n INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (n, ts))")
            .unwrap();
        s.execute("CREATE ROLLUP m_1h ON m PERIOD '1h' AGGREGATE (v)")
            .unwrap();
        let b0 = START - START.rem_euclid(HOUR);
        let big = i64::MAX / 2 + 1;
        s.execute(&format!(
            "INSERT INTO m VALUES (1, {}, {big}), (1, {}, {big}), (1, {}, 5)",
            b0 + 1,
            b0 + 2,
            b0 + HOUR + 1
        ))
        .unwrap();
        s.db().flush_all().unwrap();
        // The partial's `v_sum` is an int64 column: the fold says so
        // instead of panicking (debug) or wrapping (release).
        let err = s.db().maintain_table("m").unwrap_err();
        assert!(
            matches!(&err, Error::Invalid(msg) if msg.contains("m_1h") && msg.contains("v_sum"))
        );
        let m = s.db().table("m").unwrap();
        assert_eq!(m.rollup_watermark(), b0 + 1, "the tablet stays unfolded");
        assert_eq!(m.stats().snapshot().rollup_folds, 0);
        let got = rows(
            s.execute(&format!(
                "SELECT TIME_BUCKET(ts, INTERVAL '1h'), SUM(v), COUNT(*) FROM m \
                 WHERE ts >= {b0} AND ts < {} GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
                b0 + 2 * HOUR
            ))
            .unwrap(),
        );
        assert_eq!(
            got,
            vec![
                vec![
                    Value::Timestamp(b0),
                    Value::F64(big as f64 + big as f64),
                    Value::I64(2)
                ],
                vec![Value::Timestamp(b0 + HOUR), Value::I64(5), Value::I64(1)],
            ]
        );
        assert_eq!(m.stats().snapshot().rollup_hits, 0);
    }

    #[test]
    fn count_distinct_via_hll() {
        let (s, _) = session();
        let b0 = setup_rolled_metrics(&s);
        // Ungrouped, unbounded: ragged tails scan the base, sketches
        // cover the whole buckets; the union still counts 3 users.
        let got = rows(s.execute("SELECT COUNT(DISTINCT u) FROM m").unwrap());
        assert_eq!(got[0][0], Value::I64(3));
        // Rollup path: sketches merge across buckets and agree.
        let q = format!(
            "SELECT n, COUNT(DISTINCT u) FROM m \
             WHERE ts >= {b0} AND ts < {} GROUP BY n",
            b0 + 4 * HOUR
        );
        let hits0 = s.db().table("m").unwrap().stats().snapshot().rollup_hits;
        let got = rows(s.execute(&q).unwrap());
        assert_eq!(got, vec![vec![Value::I64(1), Value::I64(3)]]);
        assert_eq!(
            s.db().table("m").unwrap().stats().snapshot().rollup_hits,
            hits0 + 1
        );
        // DISTINCT on a column without a sketch falls back to scanning.
        let got = rows(
            s.execute(&format!(
                "SELECT n, COUNT(DISTINCT v) FROM m \
                 WHERE ts >= {b0} AND ts < {} GROUP BY n",
                b0 + 4 * HOUR
            ))
            .unwrap(),
        );
        assert_eq!(got, vec![vec![Value::I64(1), Value::I64(12)]]);
    }

    #[test]
    fn result_cache_hit_miss_and_invalidation() {
        let (s, _) = session();
        setup_usage(&s);
        let q = "SELECT device, SUM(bytes) FROM usage WHERE network = 1 GROUP BY device";
        let first = rows(s.execute(q).unwrap());
        let snap = s.db().table("usage").unwrap().stats().snapshot();
        assert_eq!(snap.result_cache_misses, 1);
        assert_eq!(snap.result_cache_hits, 0);
        let second = rows(s.execute(q).unwrap());
        assert_eq!(first, second);
        let snap = s.db().table("usage").unwrap().stats().snapshot();
        assert_eq!(snap.result_cache_hits, 1);
        // Any insert changes the table's insert_seq and so the key:
        // the stale entry can never be served again.
        s.execute(&format!(
            "INSERT INTO usage VALUES (1, 2, {}, 7000)",
            START + 60_000_000
        ))
        .unwrap();
        let third = rows(s.execute(q).unwrap());
        assert_ne!(first, third);
        assert_eq!(third[1][1], Value::I64(8010));
        let snap = s.db().table("usage").unwrap().stats().snapshot();
        assert_eq!(snap.result_cache_hits, 1);
        assert_eq!(snap.result_cache_misses, 2);
    }

    /// The cache holds the engine's answer, not a statement's output: the
    /// same aggregate with its SELECT items in another order is a hit,
    /// and comes back in that order.
    #[test]
    fn a_cached_answer_is_projected_in_each_statements_order() {
        let (s, _) = session();
        setup_usage(&s);
        let rest = "FROM usage WHERE network = 1 GROUP BY device";
        let first = rows(
            s.execute(&format!("SELECT device, SUM(bytes) {rest}"))
                .unwrap(),
        );
        assert_eq!(first.len(), 3);
        let t = s.db().table("usage").unwrap();
        let hits = t.stats().snapshot().result_cache_hits;
        assert_eq!(
            s.execute(&format!("SELECT SUM(bytes), device {rest}"))
                .unwrap(),
            SqlOutput::Rows {
                columns: vec!["sum(bytes)".into(), "device".into()],
                rows: first
                    .iter()
                    .map(|r| vec![r[1].clone(), r[0].clone()])
                    .collect(),
            }
        );
        assert_eq!(t.stats().snapshot().result_cache_hits, hits + 1);
    }

    /// On a table with a TTL the cache keys on the window the scan reads:
    /// a window above the horizon hits however the clock moves below it,
    /// and one the horizon reaches misses and drops the expired rows.
    #[test]
    fn result_cache_keys_on_the_window_above_the_ttl_horizon() {
        const MIN: i64 = 60_000_000;
        let (s, clock) = session();
        s.execute("CREATE TABLE t (n INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (n, ts)) TTL '1h'")
            .unwrap();
        s.execute(&format!(
            "INSERT INTO t VALUES (1, {}, 1), (1, {}, 10), (2, {}, 100)",
            START - 50 * MIN,
            START - 40 * MIN,
            START - 10 * MIN
        ))
        .unwrap();
        let t = s.db().table("t").unwrap();
        let counts = || {
            let snap = t.stats().snapshot();
            (snap.result_cache_hits, snap.result_cache_misses)
        };
        let recent = [
            format!(
                "SELECT n, SUM(v) FROM t WHERE ts >= {} GROUP BY n",
                START - 20 * MIN
            ),
            format!(
                "SELECT COUNT(*), MAX(v) FROM t WHERE ts >= {}",
                START - 20 * MIN
            ),
        ];
        let whole = "SELECT COUNT(*), SUM(v) FROM t";
        let first: Vec<_> = recent.iter().map(|q| rows(s.execute(q).unwrap())).collect();
        assert_eq!(
            first,
            [
                vec![vec![Value::I64(2), Value::I64(100)]],
                vec![vec![Value::I64(1), Value::I64(100)]]
            ]
        );
        assert_eq!(
            rows(s.execute(whole).unwrap()),
            vec![vec![Value::I64(3), Value::I64(111)]]
        );
        // The horizon moves from an hour before START to half an hour
        // before: past two rows, short of the recent window.
        clock.set(START + 30 * MIN);
        let (hits, misses) = counts();
        for (q, answer) in recent.iter().zip(&first) {
            assert_eq!(&rows(s.execute(q).unwrap()), answer, "{q}");
        }
        assert_eq!(counts(), (hits + 2, misses));
        assert_eq!(
            rows(s.execute(whole).unwrap()),
            vec![vec![Value::I64(1), Value::I64(100)]]
        );
        assert_eq!(counts(), (hits + 2, misses + 1));
    }

    #[test]
    fn create_and_drop_rollup_sql() {
        let (s, _) = session();
        setup_usage(&s);
        s.execute("CREATE ROLLUP usage_1h ON usage PERIOD '1h' AGGREGATE (bytes)")
            .unwrap();
        assert!(s.db().table("usage_1h").is_ok());
        // Rollups are not insert targets and cannot be re-rolled.
        assert!(s
            .execute("CREATE ROLLUP r2 ON usage_1h PERIOD '2h'")
            .is_err());
        assert!(s
            .execute("CREATE ROLLUP nope ON missing PERIOD '1h'")
            .is_err());
        s.execute("DROP ROLLUP usage_1h").unwrap();
        assert!(s.db().table("usage_1h").is_err());
        assert!(s.execute("DROP ROLLUP usage_1h").is_err());
        // DROP ROLLUP does not accept plain tables.
        assert!(s.execute("DROP ROLLUP usage").is_err());
    }
}
