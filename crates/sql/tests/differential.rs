//! Differential test of the aggregate serving paths against a naive
//! reference.
//!
//! Each seed generates a table's rows and a batch of aggregate SELECTs.
//! The same rows are stored three ways — flushed as columnar-v3 blocks,
//! left in the memtablet, and flushed with the first tablet lagging one
//! schema version behind — and every SELECT must return, value for value,
//! what a `BTreeMap` fold over the rows returns, without materializing a
//! single row, whether or not its window cuts blocks. Row-v2 storage is the frozen table of
//! `tests/common/table_v2.rs` (nothing writes that layout any more): the
//! same SELECTs run over it as it was written and again after a merge
//! with a fresh flush, against the fold of the rows it holds, and must
//! materialize no row either.
//!
//! Every way stores its rows in tablets that follow each other in key
//! order, and the reference folds in key order with the executor's own
//! rules (first value wins a MIN/MAX tie, NaN is incomparable, SUM
//! carries on as a double past int64), so order-dependent answers must
//! match to the bit as well. No way builds a row: memtablets and
//! schema-lagging tablets are scanned as column slices like the rest.
//!
//! A second leg crosses the rollup tier: the same seeds' rows under two
//! rollups of different periods — created before the load, created after
//! it (backfill), and with the newest base tablet not yet folded — and
//! SELECTs a rollup can serve, each of which must be served by one
//! (`rollup_hits`), build no row, and equal the reference.

use littletable_core::rollup::distinct_bytes;
use littletable_core::{Db, Options, Value};
use littletable_hll::HyperLogLog;
use littletable_sql::{Session, SqlOutput};
use littletable_vfs::{SimClock, SimVfs};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

#[path = "../../../tests/common/table_v2.rs"]
mod table_v2;

const START: i64 = 1_700_000_000_000_000;
const SEC: i64 = 1_000_000;
const SEEDS: u64 = 24;
const SELECTS_PER_SEED: usize = 10;

/// splitmix64: the test's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

// Column positions of `t (a, b, ts, i, n, f, s, x; PRIMARY KEY (a, b, ts))`.
const A: usize = 0;
const B: usize = 1;
const TS: usize = 2;
const I: usize = 3;
const N: usize = 4;
const F: usize = 5;
const S: usize = 6;
const X: usize = 7;
const NAMES: [&str; 8] = ["a", "b", "ts", "i", "n", "f", "s", "x"];
/// What `x` defaults to, and what every row written before the column
/// existed therefore reads as.
const X_DEFAULT: i64 = 7;

/// Rows in key order. `f` holds multiples of 1/4 (every sum of them is
/// exact, so no answer depends on summation order beyond what the
/// executor promises) and, when `nans`, the odd NaN; `i` holds, when
/// `huge`, values whose sum leaves int64.
fn gen_rows(rng: &mut Rng, nans: bool, huge: bool) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for a in 0..3i64 {
        for b in 0..3i32 {
            for k in 0..24i64 {
                if rng.chance(25) {
                    continue;
                }
                let f = if nans && rng.chance(12) {
                    f64::NAN
                } else {
                    (rng.below(65) as f64 - 32.0) / 4.0
                };
                let i = if huge && rng.chance(30) {
                    i64::MAX / 2 + rng.below(1000) as i64
                } else {
                    rng.below(101) as i64 - 50
                };
                rows.push(vec![
                    Value::I64(a),
                    Value::I32(b),
                    Value::Timestamp(START + k * SEC + rng.below(3) as i64),
                    Value::I64(i),
                    Value::I32(rng.below(2001) as i32 - 1000),
                    Value::F64(f),
                    Value::Str(format!("u{}", rng.below(5))),
                    // Rows of `a = 0` are the ones the schema-lagging
                    // table writes before `x` exists.
                    Value::I64(if a == 0 {
                        X_DEFAULT
                    } else {
                        rng.below(9) as i64
                    }),
                ]);
            }
        }
    }
    rows
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

const OPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }
    /// Incomparable pairs (`None`: NaN) satisfy no operator.
    fn holds(self, ord: Option<Ordering>) -> bool {
        match (self, ord) {
            (Op::Eq, Some(o)) => o == Ordering::Equal,
            (Op::Ne, Some(o)) => o != Ordering::Equal,
            (Op::Lt, Some(o)) => o == Ordering::Less,
            (Op::Le, Some(o)) => o != Ordering::Greater,
            (Op::Gt, Some(o)) => o == Ordering::Greater,
            (Op::Ge, Some(o)) => o != Ordering::Less,
            (_, None) => false,
        }
    }
}

/// Order within a family; `None` across families and against NaN.
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.partial_cmp(y),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        _ => Some(a.as_int()?.cmp(&b.as_int()?)),
    }
}

#[derive(Debug, Clone)]
struct Cond {
    col: usize,
    op: Op,
    value: Value,
}

#[derive(Debug, Clone, Copy)]
enum Group {
    Col(usize),
    /// `TIME_BUCKET(ts, INTERVAL '<n>s')`
    Bucket(i64),
}

#[derive(Debug, Clone, Copy)]
enum Agg {
    Count,
    Sum(usize),
    Min(usize),
    Max(usize),
    Avg(usize),
    Distinct(usize),
}

#[derive(Debug)]
struct Select {
    conds: Vec<Cond>,
    groups: Vec<Group>,
    aggs: Vec<Agg>,
    limit: Option<usize>,
}

fn literal(v: &Value) -> String {
    match v {
        Value::F64(x) => format!("{x:.2}"),
        Value::Str(s) => format!("'{s}'"),
        v => v.as_int().expect("an integer").to_string(),
    }
}

impl Select {
    fn sql(&self) -> String {
        let groups: Vec<String> = self
            .groups
            .iter()
            .map(|g| match g {
                Group::Col(c) => NAMES[*c].to_string(),
                Group::Bucket(secs) => format!("TIME_BUCKET(ts, INTERVAL '{secs}s')"),
            })
            .collect();
        let aggs = self.aggs.iter().map(|a| match a {
            Agg::Count => "COUNT(*)".to_string(),
            Agg::Sum(c) => format!("SUM({})", NAMES[*c]),
            Agg::Min(c) => format!("MIN({})", NAMES[*c]),
            Agg::Max(c) => format!("MAX({})", NAMES[*c]),
            Agg::Avg(c) => format!("AVG({})", NAMES[*c]),
            Agg::Distinct(c) => format!("COUNT(DISTINCT {})", NAMES[*c]),
        });
        let items: Vec<String> = groups.iter().cloned().chain(aggs).collect();
        let mut sql = format!("SELECT {} FROM t", items.join(", "));
        let conds: Vec<String> = self
            .conds
            .iter()
            .map(|c| format!("{} {} {}", NAMES[c.col], c.op.sql(), literal(&c.value)))
            .collect();
        if !conds.is_empty() {
            sql += &format!(" WHERE {}", conds.join(" AND "));
        }
        if !groups.is_empty() {
            sql += &format!(" GROUP BY {}", groups.join(", "));
        }
        if let Some(limit) = self.limit {
            sql += &format!(" LIMIT {limit}");
        }
        sql
    }
}

fn gen_select(rng: &mut Rng) -> Select {
    let mut conds = Vec::new();
    // Key bounds: none, a prefix, or a prefix and a range below it.
    match rng.below(5) {
        0 => {}
        1 => conds.push(Cond {
            col: A,
            op: Op::Eq,
            value: Value::I64(rng.below(3) as i64),
        }),
        2 => {
            conds.push(Cond {
                col: A,
                op: Op::Eq,
                value: Value::I64(rng.below(3) as i64),
            });
            conds.push(Cond {
                col: B,
                op: rng.pick(&OPS),
                value: Value::I32(rng.below(3) as i32),
            });
        }
        3 => conds.push(Cond {
            col: A,
            op: rng.pick(&[Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Ne]),
            value: Value::I64(rng.below(4) as i64),
        }),
        _ => {
            for col in [A, B] {
                conds.push(Cond {
                    col,
                    op: Op::Eq,
                    value: if col == A {
                        Value::I64(rng.below(3) as i64)
                    } else {
                        Value::I32(rng.below(3) as i32)
                    },
                });
            }
        }
    }
    // Time bounds: none, a window that cuts blocks mid-way (micros that
    // fall between rows), or one past every row.
    match rng.below(8) {
        0 | 1 => {}
        2 => {
            let lo = START + 30 * SEC + rng.below(100) as i64 * SEC;
            conds.push(Cond {
                col: TS,
                op: Op::Ge,
                value: Value::Timestamp(lo),
            });
            conds.push(Cond {
                col: TS,
                op: Op::Lt,
                value: Value::Timestamp(lo + 10 * SEC),
            });
        }
        _ => {
            let lo = START + rng.below(20 * SEC as u64) as i64;
            conds.push(Cond {
                col: TS,
                op: rng.pick(&[Op::Ge, Op::Gt]),
                value: Value::Timestamp(lo),
            });
            if rng.chance(80) {
                conds.push(Cond {
                    col: TS,
                    op: rng.pick(&[Op::Lt, Op::Le]),
                    value: Value::Timestamp(lo + rng.below(12 * SEC as u64) as i64),
                });
            }
        }
    }
    // Residual predicates on value columns (and `ts !=`, which no bound
    // can express).
    for _ in 0..rng.below(3) {
        let col = rng.pick(&[I, N, F, F, S, TS, X]);
        let value = match col {
            I => Value::I64(rng.below(101) as i64 - 50),
            N => Value::I32(rng.below(2001) as i32 - 1000),
            F => Value::F64((rng.below(65) as f64 - 32.0) / 4.0),
            S => Value::Str(format!("u{}", rng.below(6))),
            TS => Value::Timestamp(START + rng.below(24) as i64 * SEC),
            _ => Value::I64(rng.below(9) as i64),
        };
        let op = if col == TS { Op::Ne } else { rng.pick(&OPS) };
        conds.push(Cond { col, op, value });
    }
    let bucket = Group::Bucket(rng.pick(&[1, 2, 5, 60]));
    let groups = match rng.below(8) {
        0 | 1 => vec![],
        2 => vec![bucket],
        3 => vec![Group::Col(A)],
        4 => vec![Group::Col(A), Group::Col(B)],
        5 => vec![Group::Col(A), bucket],
        6 => vec![bucket, Group::Col(B)],
        _ => vec![Group::Col(S), Group::Col(X)],
    };
    let menu = [
        Agg::Count,
        Agg::Sum(I),
        Agg::Sum(I),
        Agg::Sum(I),
        Agg::Sum(N),
        Agg::Sum(F),
        Agg::Min(I),
        Agg::Min(F),
        Agg::Min(S),
        Agg::Max(N),
        Agg::Max(F),
        Agg::Max(TS),
        Agg::Avg(I),
        Agg::Avg(F),
        Agg::Distinct(S),
        Agg::Distinct(I),
        Agg::Distinct(F),
    ];
    let aggs = (0..1 + rng.below(5)).map(|_| rng.pick(&menu)).collect();
    let limit = rng.chance(15).then(|| 1 + rng.below(4) as usize);
    Select {
        conds,
        groups,
        aggs,
        limit,
    }
}

/// A group value in the order the executor emits groups in: the memcmp
/// key encoding's, which for these values is integer and bytewise order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KeyPart {
    Int(i64),
    Str(String),
}

/// The executor's aggregate rules, restated over `Value`s.
enum State {
    Count(i64),
    SumInt(i64),
    SumFloat(f64),
    /// `Ordering::Less` for MIN, `Greater` for MAX.
    Extreme(Ordering, Option<Value>),
    Avg(f64, u64),
    Distinct(HyperLogLog),
}

impl State {
    fn new(agg: Agg) -> State {
        match agg {
            Agg::Count => State::Count(0),
            Agg::Sum(_) => State::SumInt(0),
            Agg::Min(_) => State::Extreme(Ordering::Less, None),
            Agg::Max(_) => State::Extreme(Ordering::Greater, None),
            Agg::Avg(_) => State::Avg(0.0, 0),
            Agg::Distinct(_) => State::Distinct(HyperLogLog::default_precision()),
        }
    }

    fn update(&mut self, v: Option<&Value>) {
        match self {
            State::Count(n) => *n += 1,
            State::SumInt(acc) => match v.unwrap() {
                Value::F64(x) => *self = State::SumFloat(*acc as f64 + x),
                v => {
                    let x = v.as_int().unwrap();
                    match acc.checked_add(x) {
                        Some(sum) => *acc = sum,
                        None => *self = State::SumFloat(*acc as f64 + x as f64),
                    }
                }
            },
            State::SumFloat(acc) => match v.unwrap() {
                Value::F64(x) => *acc += x,
                v => *acc += v.as_int().unwrap() as f64,
            },
            State::Extreme(want, cur) => {
                let v = v.unwrap();
                if cur.as_ref().is_none_or(|c| compare(v, c) == Some(*want)) {
                    *cur = Some(v.clone());
                }
            }
            State::Avg(acc, n) => {
                *acc += match v.unwrap() {
                    Value::F64(x) => *x,
                    v => v.as_int().unwrap() as f64,
                };
                *n += 1;
            }
            State::Distinct(h) => h.add_bytes(&distinct_bytes(v.unwrap())),
        }
    }

    fn finish(&self) -> Value {
        match self {
            State::Count(n) => Value::I64(*n),
            State::SumInt(acc) => Value::I64(*acc),
            State::SumFloat(acc) => Value::F64(*acc),
            State::Extreme(_, v) => v.clone().unwrap_or(Value::I64(0)),
            State::Avg(_, 0) => Value::F64(0.0),
            State::Avg(acc, n) => Value::F64(acc / *n as f64),
            State::Distinct(h) => Value::I64(h.estimate().round() as i64),
        }
    }
}

/// The trivially-correct answer: filter, group into a `BTreeMap`, fold.
fn reference(rows: &[Vec<Value>], sel: &Select) -> Vec<Vec<Value>> {
    let mut groups: BTreeMap<Vec<KeyPart>, (Vec<Value>, Vec<State>)> = BTreeMap::new();
    let new_states = || sel.aggs.iter().map(|&a| State::new(a)).collect::<Vec<_>>();
    if sel.groups.is_empty() {
        groups.insert(Vec::new(), (Vec::new(), new_states()));
    }
    for row in rows {
        if !sel
            .conds
            .iter()
            .all(|c| c.op.holds(compare(&row[c.col], &c.value)))
        {
            continue;
        }
        let vals: Vec<Value> = sel
            .groups
            .iter()
            .map(|g| match g {
                Group::Col(c) => row[*c].clone(),
                Group::Bucket(secs) => {
                    let ts = row[TS].as_int().unwrap();
                    Value::Timestamp(ts - ts.rem_euclid(secs * SEC))
                }
            })
            .collect();
        let key = vals
            .iter()
            .map(|v| match v {
                Value::Str(s) => KeyPart::Str(s.clone()),
                v => KeyPart::Int(v.as_int().unwrap()),
            })
            .collect();
        let (_, states) = groups.entry(key).or_insert_with(|| (vals, new_states()));
        for (state, agg) in states.iter_mut().zip(&sel.aggs) {
            state.update(match agg {
                Agg::Count => None,
                Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) | Agg::Avg(c) | Agg::Distinct(c) => {
                    Some(&row[*c])
                }
            });
        }
    }
    groups
        .into_values()
        .map(|(vals, states)| {
            vals.into_iter()
                .chain(states.iter().map(State::finish))
                .collect()
        })
        .take(sel.limit.unwrap_or(usize::MAX))
        .collect()
}

/// Equality to the bit, except that any NaN equals any NaN.
fn same(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::F64(x), Value::F64(y)) => {
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
                    }
                    (x, y) => x == y,
                })
        })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Storage {
    FlushedColumnar,
    Memtablet,
    /// Columnar, with the `a = 0` rows flushed before `x` was added.
    SchemaLagging,
}

fn open_session() -> Session {
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(SimClock::new(START + 3600 * SEC)),
        Options {
            // A dozen rows to a block, so most windows cut several.
            block_size: 512,
            ..Options::small_for_tests()
        },
    )
    .unwrap();
    Session::new(db)
}

/// A session over a fresh database holding `rows` the given way. NaN has
/// no SQL literal, so rows go in through the engine API.
fn store(rows: &[Vec<Value>], how: Storage) -> Session {
    let s = open_session();
    let x_col = if how == Storage::SchemaLagging {
        ""
    } else {
        "x INT64 DEFAULT 7, "
    };
    s.execute(&format!(
        "CREATE TABLE t (a INT64, b INT32, ts TIMESTAMP, i INT64, n INT32, f DOUBLE, \
         s TEXT, {x_col}PRIMARY KEY (a, b, ts))"
    ))
    .unwrap();
    let t = s.db().table("t").unwrap();
    if how == Storage::SchemaLagging {
        let old: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| r[A] == Value::I64(0))
            .map(|r| r[..X].to_vec())
            .collect();
        assert!(old.iter().all(|r| r.len() == X) && !old.is_empty());
        t.insert(old).unwrap();
        t.flush_all().unwrap();
        s.execute(&format!(
            "ALTER TABLE t ADD COLUMN x INT64 DEFAULT {X_DEFAULT}"
        ))
        .unwrap();
        let new: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| r[A] != Value::I64(0))
            .cloned()
            .collect();
        t.insert(new).unwrap();
    } else {
        t.insert(rows.to_vec()).unwrap();
    }
    if how != Storage::Memtablet {
        t.flush_all().unwrap();
    }
    s
}

/// The frozen footer-v2 table as it was written, and again after a merge
/// with a fresh columnar flush of rows that sort after it; each with the
/// rows it holds.
fn stored_as_row_v2() -> [(Session, Vec<Vec<Value>>); 2] {
    let open = || {
        let vfs = SimVfs::instant();
        table_v2::install(&vfs);
        let db = Db::open(
            Arc::new(vfs),
            Arc::new(SimClock::new(table_v2::WRITTEN_AT)),
            Options {
                block_size: table_v2::BLOCK_SIZE,
                ..Options::small_for_tests()
            },
        )
        .unwrap();
        Session::new(db)
    };
    let merged = open();
    let t = merged.db().table(table_v2::TABLE).unwrap();
    let fresh = table_v2::ROWS..table_v2::ROWS + 72;
    t.insert(fresh.clone().map(table_v2::row).collect())
        .unwrap();
    t.flush_all().unwrap();
    while t.run_merge_once(table_v2::WRITTEN_AT).unwrap() {}
    assert_eq!(t.num_disk_tablets(), 1, "the merge took every tablet");
    [
        (open(), table_v2::rows()),
        (merged, (0..fresh.end).map(table_v2::row).collect()),
    ]
}

/// Runs `sel` and holds the answer to `expect`, then asks again; returns
/// how many rows the engine materialized on the first ask.
fn check(session: &Session, label: &str, sel: &Select, expect: &[Vec<Value>]) -> u64 {
    let table = session.db().table("t").unwrap();
    let sql = sel.sql();
    let before = table.stats().snapshot().rows_materialized;
    let got = match session.execute(&sql) {
        Ok(SqlOutput::Rows { rows, .. }) => rows,
        other => panic!("{label}: {sql}\n  gave {other:?}"),
    };
    assert!(
        same(&got, expect),
        "{label}: {sql}\n  got    {got:?}\n  expect {expect:?}"
    );
    let materialized = table.stats().snapshot().rows_materialized - before;
    ask_again(session, label, &sql, &got);
    materialized
}

/// Asks `sql` a second time: the result cache answers it with the first
/// answer, `first`, and no row is materialized.
fn ask_again(session: &Session, label: &str, sql: &str, first: &[Vec<Value>]) {
    let table = session.db().table("t").unwrap();
    let before = table.stats().snapshot();
    let again = match session.execute(sql) {
        Ok(SqlOutput::Rows { rows, .. }) => rows,
        other => panic!("{label}: {sql} asked again\n  gave {other:?}"),
    };
    assert!(
        same(&again, first),
        "{label}: {sql} asked again\n  got   {again:?}\n  first {first:?}"
    );
    let after = table.stats().snapshot();
    assert_eq!(
        after.result_cache_hits,
        before.result_cache_hits + 1,
        "{label}: {sql} asked again\n  was not a result-cache hit"
    );
    assert_eq!(after.rows_materialized, before.rows_materialized);
}

#[test]
fn every_storage_path_matches_the_reference_fold() {
    let mut cases = 0;
    let (mut nonempty, mut empty, mut nan_answers, mut promoted) = (0, 0, 0, 0);
    let row_v2 = stored_as_row_v2();
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let rows = gen_rows(&mut rng, seed % 3 == 0, seed % 2 == 1);
        let selects: Vec<Select> = (0..SELECTS_PER_SEED)
            .map(|_| gen_select(&mut rng))
            .collect();
        let expected: Vec<Vec<Vec<Value>>> = selects.iter().map(|q| reference(&rows, q)).collect();
        for how in [
            Storage::FlushedColumnar,
            Storage::Memtablet,
            Storage::SchemaLagging,
        ] {
            let session = store(&rows, how);
            for (sel, expect) in selects.iter().zip(&expected) {
                let materialized = check(&session, &format!("seed {seed} {how:?}"), sel, expect);
                assert_eq!(
                    materialized,
                    0,
                    "seed {seed} {how:?}: {}\n  materialized rows",
                    sel.sql()
                );
            }
        }
        for (at, (session, rows)) in row_v2.iter().enumerate() {
            let label = format!("seed {seed} row-v2{}", ["", ", merged"][at]);
            for sel in &selects {
                let materialized = check(session, &label, sel, &reference(rows, sel));
                assert_eq!(
                    materialized,
                    0,
                    "{label}: {}\n  materialized rows of flushed blocks",
                    sel.sql()
                );
            }
        }
        cases += selects.len();
        for (sel, answer) in selects.iter().zip(&expected) {
            let rows_in = |v: &Vec<Value>| v.iter().any(|x| *x != Value::I64(0));
            if answer.iter().any(rows_in) {
                nonempty += 1;
            } else {
                empty += 1;
            }
            let is_nan = |v: &Value| matches!(v, Value::F64(x) if x.is_nan());
            nan_answers += answer.iter().flatten().any(is_nan) as usize;
            // An integer column's SUM that came out a double.
            promoted += sel.aggs.iter().enumerate().any(|(at, agg)| {
                matches!(agg, Agg::Sum(I))
                    && answer
                        .iter()
                        .any(|row| matches!(row[sel.groups.len() + at], Value::F64(_)))
            }) as usize;
        }
    }
    // The generator must keep reaching the cases the test is for.
    assert!(cases >= 200, "{cases} cases");
    assert!(nonempty >= 100, "{nonempty} answers with rows");
    assert!(empty >= 10, "{empty} answers over empty input");
    assert!(nan_answers >= 5, "{nan_answers} answers holding NaN");
    assert!(promoted >= 3, "{promoted} sums past int64");
}

/// When the two rollups of the rollup leg come to exist and how far they
/// have caught up.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rolled {
    /// Created on the empty table; maintenance folds the load.
    BeforeLoad,
    /// Created over the loaded table: `CREATE ROLLUP` backfills.
    Backfilled,
    /// As `BeforeLoad`, but the rows from `UNFOLDED_FROM` on arrive in a
    /// later tablet that no maintenance pass has folded: the watermark
    /// sits inside every window that reaches that far.
    NewestUnfolded,
}

const UNFOLDED_FROM: i64 = START + 16 * SEC;

/// A session whose table `t` holds `rows` under a 2 s and a 10 s rollup.
/// `i` gets stat columns only when `with_i`: a seed whose `i` sums leave
/// int64 cannot be rolled up (the fold refuses; `exec.rs` tests that).
fn store_rolled(rows: &[Vec<Value>], how: Rolled, with_i: bool) -> Session {
    let s = open_session();
    s.execute(
        "CREATE TABLE t (a INT64, b INT32, ts TIMESTAMP, i INT64, n INT32, f DOUBLE, \
         s TEXT, x INT64 DEFAULT 7, PRIMARY KEY (a, b, ts))",
    )
    .unwrap();
    let create_rollups = || {
        let i = if with_i { "i, " } else { "" };
        for period in [2, 10] {
            s.execute(&format!(
                "CREATE ROLLUP t_{period}s ON t PERIOD '{period}s' AGGREGATE ({i}n, f) DISTINCT (s, n)"
            ))
            .unwrap();
        }
    };
    let t = s.db().table("t").unwrap();
    let load = |rows: Vec<Vec<Value>>| {
        t.insert(rows).unwrap();
        t.flush_all().unwrap();
    };
    match how {
        Rolled::Backfilled => {
            load(rows.to_vec());
            create_rollups();
        }
        Rolled::BeforeLoad => {
            create_rollups();
            load(rows.to_vec());
            s.db().maintain_table("t").unwrap();
        }
        Rolled::NewestUnfolded => {
            create_rollups();
            let (old, new): (Vec<_>, Vec<_>) = rows
                .iter()
                .cloned()
                .partition(|r| r[TS].as_int().unwrap() < UNFOLDED_FROM);
            load(old);
            s.db().maintain_table("t").unwrap();
            load(new);
        }
    }
    let watermark = t.rollup_watermark();
    if how == Rolled::NewestUnfolded {
        assert!(
            (UNFOLDED_FROM..i64::MAX).contains(&watermark),
            "{watermark}"
        );
    } else {
        assert_eq!(watermark, i64::MAX, "{how:?}");
    }
    s
}

/// A SELECT one of the rollups can serve: bounds on the dims and a
/// window holding a whole 2 s bucket below `UNFOLDED_FROM`, no other
/// predicate, dims and `TIME_BUCKET`s of whole periods to group by, and
/// aggregates the stat columns hold. With `nans`, no MIN/MAX over `f`: an
/// extremum starts over in each partial, so a NaN leading a bucket hides
/// that bucket's other values from the merged answer where a row-order
/// fold would get past it.
fn gen_rollup_select(rng: &mut Rng, nans: bool, with_i: bool) -> Select {
    let mut conds = Vec::new();
    if rng.chance(60) {
        conds.push(Cond {
            col: A,
            op: rng.pick(&[Op::Eq, Op::Eq, Op::Ge, Op::Lt]),
            value: Value::I64(rng.below(3) as i64),
        });
        if conds[0].op == Op::Eq && rng.chance(50) {
            conds.push(Cond {
                col: B,
                op: rng.pick(&[Op::Eq, Op::Ge, Op::Lt]),
                value: Value::I32(rng.below(3) as i32),
            });
        }
    }
    if rng.chance(75) {
        // Micros that fall between rows and between bucket boundaries.
        let lo = START - 5 * SEC + rng.below(13 * SEC as u64) as i64;
        conds.push(Cond {
            col: TS,
            op: rng.pick(&[Op::Ge, Op::Gt]),
            value: Value::Timestamp(lo),
        });
        if rng.chance(70) {
            conds.push(Cond {
                col: TS,
                op: rng.pick(&[Op::Lt, Op::Le]),
                value: Value::Timestamp(lo + 5 * SEC + rng.below(20 * SEC as u64) as i64),
            });
        }
    }
    let bucket = Group::Bucket(rng.pick(&[2, 4, 10, 20, 60]));
    let groups = match rng.below(7) {
        0 | 1 => vec![],
        2 => vec![bucket],
        3 => vec![Group::Col(A)],
        4 => vec![Group::Col(A), Group::Col(B)],
        5 => vec![Group::Col(A), bucket],
        _ => vec![bucket, Group::Col(B)],
    };
    let mut menu = vec![
        Agg::Count,
        Agg::Sum(N),
        Agg::Sum(F),
        Agg::Min(N),
        Agg::Max(N),
        Agg::Avg(N),
        Agg::Avg(F),
        Agg::Distinct(S),
        Agg::Distinct(N),
    ];
    if with_i {
        menu.extend([Agg::Sum(I), Agg::Min(I), Agg::Avg(I)]);
    }
    if !nans {
        menu.extend([Agg::Min(F), Agg::Max(F)]);
    }
    let aggs = (0..1 + rng.below(5)).map(|_| rng.pick(&menu)).collect();
    Select {
        conds,
        groups,
        aggs,
        limit: rng.chance(10).then(|| 1 + rng.below(4) as usize),
    }
}

/// A rollup's `_min`/`_max` columns hold int32 values widened, so an
/// answer's int32 may come back int64; to compare, both sides widen.
fn widened(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let widen = |v: &Value| match v {
        Value::I32(x) => Value::I64(*x as i64),
        v => v.clone(),
    };
    rows.iter().map(|r| r.iter().map(widen).collect()).collect()
}

#[test]
fn rollup_serving_matches_the_reference_fold() {
    let (mut cases, mut nan_answers, mut straddled) = (0, 0, 0);
    for seed in 0..SEEDS {
        let mut rng = Rng(seed ^ 0x726f6c6c);
        let (nans, huge) = (seed % 3 == 0, seed % 2 == 1);
        let rows = gen_rows(&mut rng, nans, huge);
        let mut selects: Vec<Select> = Vec::new();
        while selects.len() < SELECTS_PER_SEED {
            let sel = gen_rollup_select(&mut rng, nans, !huge);
            // A repeat would be answered by the result cache.
            if selects.iter().all(|seen| seen.sql() != sel.sql()) {
                selects.push(sel);
            }
        }
        let expected: Vec<Vec<Vec<Value>>> = selects
            .iter()
            .map(|q| widened(&reference(&rows, q)))
            .collect();
        for how in [
            Rolled::BeforeLoad,
            Rolled::Backfilled,
            Rolled::NewestUnfolded,
        ] {
            let session = store_rolled(&rows, how, !huge);
            let table = session.db().table("t").unwrap();
            for (sel, expect) in selects.iter().zip(&expected) {
                let label = format!("seed {seed} {how:?}");
                let before = table.stats().snapshot();
                let first = match session.execute(&sel.sql()) {
                    Ok(SqlOutput::Rows { rows, .. }) => rows,
                    other => panic!("{label}: {}\n  gave {other:?}", sel.sql()),
                };
                let got = widened(&first);
                assert!(
                    same(&got, expect),
                    "{label}: {}\n  got    {got:?}\n  expect {expect:?}",
                    sel.sql()
                );
                let after = table.stats().snapshot();
                assert_eq!(
                    after.rollup_hits,
                    before.rollup_hits + 1,
                    "{label}: {}\n  was not served by a rollup",
                    sel.sql()
                );
                assert_eq!(after.rows_materialized, before.rows_materialized);
                // Served by partials and by the unfolded tablet's rows.
                straddled += (how == Rolled::NewestUnfolded
                    && after.pushdown_scans > before.pushdown_scans)
                    as usize;
                ask_again(&session, &label, &sel.sql(), &first);
            }
        }
        cases += selects.len();
        let is_nan = |v: &Value| matches!(v, Value::F64(x) if x.is_nan());
        nan_answers += expected
            .iter()
            .filter(|answer| answer.iter().flatten().any(is_nan))
            .count();
    }
    assert!(cases >= 200, "{cases} cases");
    assert!(nan_answers >= 5, "{nan_answers} answers holding NaN");
    assert!(
        straddled >= 50,
        "{straddled} answers that straddled the watermark"
    );
}

/// The TTL leg's table life: where its horizon sits at first, how long
/// its TTL is, and where the horizon moves to. Each horizon falls between
/// rows, inside blocks (a dozen rows of one `(a, b)` series, about
/// twelve seconds of it) and inside a 2 s and a 10 s rollup bucket.
const TTL_SECS: i64 = 3600;
const HORIZONS: [i64; 2] = [START + 7 * SEC + SEC / 2, START + 13 * SEC + SEC / 2];

/// How the TTL leg stores the rows.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expiring {
    Flushed,
    InMemory,
    /// Flushed under the rollup leg's two rollups, created before the
    /// load and folded by maintenance.
    Rolled,
}

/// A session whose table `t` holds `rows` under a TTL, its clock set so
/// that the horizon sits at `HORIZONS[0]`; with the clock, to move it.
fn store_expiring(rows: &[Vec<Value>], how: Expiring) -> (Session, SimClock) {
    let clock = SimClock::new(HORIZONS[0] + TTL_SECS * SEC);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock.clone()),
        Options {
            block_size: 512,
            ..Options::small_for_tests()
        },
    )
    .unwrap();
    let s = Session::new(db);
    s.execute(&format!(
        "CREATE TABLE t (a INT64, b INT32, ts TIMESTAMP, i INT64, n INT32, f DOUBLE, \
         s TEXT, x INT64 DEFAULT 7, PRIMARY KEY (a, b, ts)) TTL '{TTL_SECS}s'"
    ))
    .unwrap();
    if how == Expiring::Rolled {
        for period in [2, 10] {
            s.execute(&format!(
                "CREATE ROLLUP t_{period}s ON t PERIOD '{period}s' AGGREGATE (n, f) DISTINCT (s, n)"
            ))
            .unwrap();
        }
    }
    let t = s.db().table("t").unwrap();
    t.insert(rows.to_vec()).unwrap();
    if how != Expiring::InMemory {
        t.flush_all().unwrap();
    }
    if how == Expiring::Rolled {
        s.db().maintain_table("t").unwrap();
        assert_eq!(t.rollup_watermark(), i64::MAX);
    }
    (s, clock)
}

/// The rows a horizon leaves: those stamped at or after it.
fn unexpired(rows: &[Vec<Value>], horizon: i64) -> Vec<Vec<Value>> {
    let live = |r: &&Vec<Value>| r[TS].as_int().unwrap() >= horizon;
    rows.iter().filter(live).cloned().collect()
}

/// Under a TTL whose horizon cuts blocks and rollup buckets, every
/// SELECT — pushed down, answered from footer stats, served by a rollup,
/// and asked again from the result cache — equals the reference fold of
/// the unexpired rows. Then the clock moves the horizon past more rows:
/// each SELECT asked again is answered, hit or miss, as the fold of the
/// rows still unexpired.
#[test]
fn every_path_under_a_ttl_matches_the_fold_of_the_unexpired_rows() {
    let (mut rolled, mut hits, mut misses) = (0, 0, 0);
    for seed in 0..SEEDS {
        let mut rng = Rng(seed ^ 0x74746c);
        let nans = seed % 3 == 0;
        let rows = gen_rows(&mut rng, nans, false);
        let plain: Vec<Select> = (0..SELECTS_PER_SEED)
            .map(|_| gen_select(&mut rng))
            .collect();
        let mut rollup: Vec<Select> = Vec::new();
        while rollup.len() < SELECTS_PER_SEED {
            let sel = gen_rollup_select(&mut rng, nans, false);
            if rollup.iter().all(|seen| seen.sql() != sel.sql()) {
                rollup.push(sel);
            }
        }
        for how in [Expiring::Flushed, Expiring::InMemory, Expiring::Rolled] {
            let selects = if how == Expiring::Rolled {
                &rollup
            } else {
                &plain
            };
            // A rollup's `_min`/`_max` hold int32 values widened.
            let fit = |r: &[Vec<Value>]| match how {
                Expiring::Rolled => widened(r),
                _ => r.to_vec(),
            };
            let (session, clock) = store_expiring(&rows, how);
            let table = session.db().table("t").unwrap();
            let live = unexpired(&rows, HORIZONS[0]);
            for sel in selects {
                let label = format!("seed {seed} {how:?}");
                let expect = fit(&reference(&live, sel));
                let before = table.stats().snapshot();
                let got = match session.execute(&sel.sql()) {
                    Ok(SqlOutput::Rows { rows, .. }) => rows,
                    other => panic!("{label}: {}\n  gave {other:?}", sel.sql()),
                };
                assert!(
                    same(&fit(&got), &expect),
                    "{label}: {}\n  got    {got:?}\n  expect {expect:?}",
                    sel.sql()
                );
                let after = table.stats().snapshot();
                assert_eq!(after.rows_materialized, before.rows_materialized);
                rolled += (after.rollup_hits > before.rollup_hits) as usize;
                ask_again(&session, &label, &sel.sql(), &got);
            }
            clock.set(HORIZONS[1] + TTL_SECS * SEC);
            let live = unexpired(&rows, HORIZONS[1]);
            for sel in selects {
                let label = format!("seed {seed} {how:?}, horizon moved");
                let expect = fit(&reference(&live, sel));
                let before = table.stats().snapshot();
                let got = match session.execute(&sel.sql()) {
                    Ok(SqlOutput::Rows { rows, .. }) => fit(&rows),
                    other => panic!("{label}: {}\n  gave {other:?}", sel.sql()),
                };
                assert!(
                    same(&got, &expect),
                    "{label}: {}\n  got    {got:?}\n  expect {expect:?}",
                    sel.sql()
                );
                let hit = table.stats().snapshot().result_cache_hits > before.result_cache_hits;
                hits += hit as usize;
                misses += !hit as usize;
            }
        }
    }
    assert!(rolled >= 150, "{rolled} answers served by a rollup");
    assert!(hits >= 100, "{hits} answers the moved horizon left cached");
    assert!(misses >= 300, "{misses} answers the moved horizon changed");
}
