//! File-system and time abstractions for LittleTable.
//!
//! The storage engine performs all I/O through the [`Vfs`] trait and reads
//! time through the [`Clock`] trait. This crate provides:
//!
//! * [`StdVfs`] — the production backend over the local file system;
//! * [`SimVfs`] — an in-memory backend metered by a [`DiskModel`], which
//!   charges seeks, transfers, and readahead in *virtual time* on a
//!   [`SimClock`], and supports deterministic crash injection;
//! * [`SystemClock`] / [`SimClock`] — wall-clock and simulated time.
//!
//! The disk model exists because the paper's evaluation is an exercise in
//! spinning-disk physics (8 ms seeks against 120 MB/s sequential transfer);
//! see [`disk`] for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod disk;
pub mod fault;
pub mod faultvfs;
pub mod sim;
pub mod std_fs;
pub mod vfs;

pub use clock::{Clock, Micros, SimClock, SystemClock, MICROS_PER_SEC};
pub use disk::{DiskModel, DiskParams, DiskStats};
pub use fault::{FaultKind, FaultPlan, FaultRecord, FaultRule, OpKind, RandomFaults};
pub use faultvfs::FaultVfs;
pub use sim::SimVfs;
pub use std_fs::StdVfs;
pub use vfs::{join, parent, RandomAccessFile, Vfs, WritableFile};
