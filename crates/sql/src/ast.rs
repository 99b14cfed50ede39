//! Abstract syntax for the supported SQL dialect.
//!
//! The dialect covers what the paper's applications need (§2.3.2, §4):
//! table DDL with a clustering primary key and TTL, batched inserts,
//! bounded scans, and aggregation with GROUP BY.

pub use littletable_core::agg::AggFunc;
pub use littletable_core::table::PredOp;
use littletable_core::value::{ColumnType, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE t (col type [DEFAULT lit], ..., PRIMARY KEY (a, b, ts)) [TTL '90d']`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnAst>,
        /// Primary-key column names, in key order.
        primary_key: Vec<String>,
        /// Optional TTL in micros.
        ttl: Option<i64>,
    },
    /// `DROP TABLE t`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `CREATE ROLLUP r ON t PERIOD '1h' [AGGREGATE (a, b)] [DISTINCT (c)]`
    CreateRollup {
        /// Rollup table name.
        name: String,
        /// Base table name.
        base: String,
        /// Bucket period in micros.
        period_micros: i64,
        /// Columns given SUM/MIN/MAX stats.
        value_cols: Vec<String>,
        /// Columns given HyperLogLog distinct sketches.
        distinct_cols: Vec<String>,
    },
    /// `DROP ROLLUP r`
    DropRollup {
        /// Rollup name.
        name: String,
    },
    /// `ALTER TABLE t ADD COLUMN c type [DEFAULT lit]`
    AlterAddColumn {
        /// Table name.
        name: String,
        /// The new column.
        column: ColumnAst,
    },
    /// `ALTER TABLE t WIDEN COLUMN c`
    AlterWidenColumn {
        /// Table name.
        name: String,
        /// Column name.
        column: String,
    },
    /// `ALTER TABLE t SET TTL '30d'` / `SET TTL NONE`
    AlterSetTtl {
        /// Table name.
        name: String,
        /// New TTL in micros, or `None`.
        ttl: Option<i64>,
    },
    /// `INSERT INTO t [(a, b, ...)] VALUES (...), (...)`
    Insert {
        /// Table name.
        name: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row literals.
        rows: Vec<Vec<Literal>>,
    },
    /// `SELECT ... FROM t [WHERE ...] [GROUP BY ...] [ORDER BY ...] [LIMIT n]`
    Select(Select),
    /// `SHOW TABLES`
    ShowTables,
    /// `DESCRIBE t`
    Describe {
        /// Table name.
        name: String,
    },
}

/// A column in DDL.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnAst {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
    /// Optional default literal.
    pub default: Option<Literal>,
}

/// A literal in SQL text. `Now` resolves to the engine clock at execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Blob literal.
    Blob(Vec<u8>),
    /// `NOW()`, optionally shifted: `NOW() - INTERVAL '1h'` is represented
    /// as `Now { offset_micros: -3_600_000_000 }`.
    Now {
        /// Signed shift from the current time, in micros.
        offset_micros: i64,
    },
}

impl Literal {
    /// Resolves the literal to an engine value for a column of type `ty`,
    /// given the current time.
    pub fn to_value(&self, ty: ColumnType, now: i64) -> littletable_core::Result<Value> {
        use littletable_core::error::Error;
        let v = match (self, ty) {
            (Literal::Int(i), ColumnType::I32) => Value::I32(
                i32::try_from(*i).map_err(|_| Error::invalid("integer out of i32 range"))?,
            ),
            (Literal::Int(i), ColumnType::I64) => Value::I64(*i),
            (Literal::Int(i), ColumnType::F64) => Value::F64(*i as f64),
            (Literal::Int(i), ColumnType::Timestamp) => Value::Timestamp(*i),
            (Literal::Float(f), ColumnType::F64) => Value::F64(*f),
            (Literal::Str(s), ColumnType::Str) => Value::Str(s.clone()),
            (Literal::Str(s), ColumnType::Blob) => Value::Blob(s.clone().into_bytes()),
            (Literal::Blob(b), ColumnType::Blob) => Value::Blob(b.clone()),
            (Literal::Now { offset_micros }, ColumnType::Timestamp) => {
                Value::Timestamp(now + offset_micros)
            }
            (l, ty) => {
                return Err(Error::invalid(format!(
                    "literal {l:?} does not fit column type {ty}"
                )))
            }
        };
        Ok(v)
    }
}

/// One conjunct: `column op literal`. WHERE clauses are conjunctions.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Column name.
    pub column: String,
    /// Operator.
    pub op: PredOp,
    /// Right-hand literal.
    pub literal: Literal,
}

/// An item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A bare column or a `TIME_BUCKET`; in an aggregating SELECT it must
    /// also appear in GROUP BY.
    Group(GroupExpr),
    /// An aggregate over a column (or `*` for COUNT).
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Column argument; `None` means `COUNT(*)`.
        column: Option<String>,
        /// `COUNT(DISTINCT col)`: approximate distinct count.
        distinct: bool,
    },
}

/// A grouping expression: a GROUP BY item, or a SELECT item that names one.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupExpr {
    /// A bare column.
    Column(String),
    /// `TIME_BUCKET(col, INTERVAL '...')`: the timestamp rounded down to
    /// a bucket boundary.
    TimeBucket {
        /// Timestamp column argument.
        column: String,
        /// Bucket width in micros.
        width_micros: i64,
    },
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Items in the projection.
    pub items: Vec<SelectItem>,
    /// Source table.
    pub table: String,
    /// Conjunctive WHERE conditions.
    pub conditions: Vec<Condition>,
    /// GROUP BY expressions.
    pub group_by: Vec<GroupExpr>,
    /// `true` for `ORDER BY <key prefix> DESC`.
    pub order_desc: bool,
    /// ORDER BY columns (must be a prefix of the primary key).
    pub order_by: Vec<String>,
    /// LIMIT, if any.
    pub limit: Option<usize>,
}
