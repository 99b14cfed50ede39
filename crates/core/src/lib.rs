//! The LittleTable storage engine.
//!
//! A relational database optimized for time-series data, after
//! *"LittleTable: A Time-Series Database and Its Uses"* (Rhea et al.,
//! SIGMOD 2017). Tables are clustered in two dimensions: rows are
//! partitioned by timestamp into tablets, and sorted within each tablet by
//! a hierarchically-delineated primary key, so that any rectangle of
//! (key-range × time-range) reads from a mostly contiguous region of disk.
//!
//! The engine trades durability for simplicity and throughput exactly as
//! the paper's applications allow: there is no write-ahead log; the only
//! guarantee is *prefix durability* — if a row survives a crash, so does
//! every row inserted into the same table before it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod archive;
pub mod block;
pub mod bloom;
pub mod cache;
pub mod cursor;
pub mod db;
pub mod descriptor;
pub mod error;
pub mod keyenc;
pub mod memtable;
pub mod mergepolicy;
pub mod options;
pub mod period;
pub mod query;
mod resultcache;
pub mod rollup;
pub mod row;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tablet;
pub mod util;
pub mod value;

pub use block::ColumnSlice;
pub use cache::BlockCache;
pub use cursor::RowRun;
pub use db::Db;
pub use error::{Error, Result};
pub use options::Options;
pub use query::Query;
pub use rollup::RollupSpec;
pub use row::Row;
pub use schema::{ColumnDef, Schema, SchemaRef, TS_COLUMN};
pub use stats::DbStatsSnapshot;
pub use table::{
    ColumnPredicate, InsertReport, MaintenanceReport, PredOp, PushdownRequest, QueryCursor,
    ScanUnit, Selection, Table,
};
pub use value::{ColumnType, Value, ValueRef};
