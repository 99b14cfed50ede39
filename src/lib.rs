//! # LittleTable
//!
//! A relational database optimized for time-series data, after
//! *"LittleTable: A Time-Series Database and Its Uses"* (Rhea, Wang,
//! Wong, Atkins, Storer — SIGMOD 2017).
//!
//! LittleTable clusters every table in **two dimensions**: rows are
//! partitioned by timestamp into tablets and sorted within each tablet by
//! a hierarchically-delineated primary key, so any rectangle of
//! (key-range × time-range) reads from a mostly contiguous region of
//! disk. It exploits the *single-writer, append-only, recoverable* nature
//! of device telemetry to drop the write-ahead log entirely: the only
//! durability guarantee is prefix durability in insertion order.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`core`] — the storage engine ([`Db`], [`Table`], [`Query`]);
//! * [`sql`] — the SQL front end ([`Session`]);
//! * [`server`] / [`client`] — the TCP boundary;
//! * [`apps`] — the paper's three applications over a simulated fleet;
//! * [`vfs`] — file-system/clock abstractions and the simulated disk;
//! * [`compress`], [`hll`], [`proto`], [`workload`] — supporting crates.
//!
//! ## Quickstart
//!
//! ```
//! use littletable::{Db, Options, Query, Session, SqlOutput};
//! use littletable::vfs::{SimClock, SimVfs};
//! use std::sync::Arc;
//!
//! // An in-memory engine (use Db::open_local for a real directory).
//! let db = Db::open(
//!     Arc::new(SimVfs::instant()),
//!     Arc::new(SimClock::new(1_700_000_000_000_000)),
//!     Options::default(),
//! ).unwrap();
//!
//! let session = Session::new(db);
//! session.execute(
//!     "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, \
//!      bytes INT64, PRIMARY KEY (network, device, ts)) TTL '390d'",
//! ).unwrap();
//! session.execute(
//!     "INSERT INTO usage (network, device, bytes) VALUES (1, 7, 4096)",
//! ).unwrap();
//! let SqlOutput::Rows { rows, .. } = session.execute(
//!     "SELECT SUM(bytes) FROM usage WHERE network = 1",
//! ).unwrap() else { unreachable!() };
//! assert_eq!(rows.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use littletable_apps as apps;
pub use littletable_client as client;
pub use littletable_compress as compress;
pub use littletable_core as core;
pub use littletable_fleet as fleet;
pub use littletable_hll as hll;
pub use littletable_proto as proto;
pub use littletable_server as server;
pub use littletable_sql as sql;
pub use littletable_vfs as vfs;
pub use littletable_workload as workload;

pub use littletable_core::{
    BlockCache, ColumnDef, ColumnType, Db, DbStatsSnapshot, Error, InsertReport, Options, Query,
    Result, Row, Schema, SchemaRef, Table, Value,
};
pub use littletable_sql::{Session, SqlOutput};
