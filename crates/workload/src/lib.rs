//! Production-fleet workload models for the LittleTable paper's §5.2.
//!
//! The paper's production figures characterize the *workload*, not the
//! engine: shard storage footprints (Fig. 7), per-table key/value sizes
//! (Fig. 8), the query mix and its scan efficiency (Fig. 9), TTLs and
//! query lookbacks (Fig. 10), and long-term rates (§5.2.3). This crate
//! synthesizes a fleet with those published statistics so the benchmark
//! harness can regenerate each figure — and, for engine-dependent
//! quantities like rows-scanned/rows-returned, actually drive the engine
//! with the modelled mix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod dist;
pub mod fleetload;
pub mod queries;
pub mod shards;

pub use catalog::{generate_catalog, TableSpec};
pub use dist::Cdf;
pub use fleetload::FleetLoad;
pub use queries::{sample_lookback, sample_query_kind, QueryKind, RateModel};
pub use shards::{Fleet, ShardSpec};
