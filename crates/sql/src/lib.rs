//! SQL front end for LittleTable.
//!
//! The paper's first query language was XML-based and "developer uptake
//! was sluggish until a subsequent version added SQL support" (§2.3.2).
//! This crate is that subsequent version: a hand-written lexer and
//! recursive-descent parser for a pragmatic dialect, a planner that turns
//! `WHERE` conjunctions into the engine's two-dimensional bounding boxes,
//! and an executor with sort-order-aware projection and aggregation
//! (COUNT / SUM / MIN / MAX / AVG with GROUP BY).
//!
//! ```
//! use littletable_sql::{Session, SqlOutput};
//! use littletable_core::{Db, Options};
//! use littletable_vfs::{SimVfs, SimClock};
//! use std::sync::Arc;
//!
//! let db = Db::open(
//!     Arc::new(SimVfs::instant()),
//!     Arc::new(SimClock::new(1_700_000_000_000_000)),
//!     Options::small_for_tests(),
//! ).unwrap();
//! let session = Session::new(db);
//! session.execute(
//!     "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP,
//!      bytes INT64, PRIMARY KEY (network, device, ts)) TTL '390d'",
//! ).unwrap();
//! session.execute(
//!     "INSERT INTO usage (network, device, bytes) VALUES (1, 2, 4096)",
//! ).unwrap();
//! match session.execute("SELECT device, SUM(bytes) FROM usage \
//!                        WHERE network = 1 GROUP BY device").unwrap() {
//!     SqlOutput::Rows { rows, .. } => assert_eq!(rows.len(), 1),
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod token;

pub use exec::{Session, SqlOutput};
pub use parser::{parse, parse_duration};
