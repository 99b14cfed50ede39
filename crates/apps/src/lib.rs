//! The LittleTable applications of §4, over a simulated device fleet.
//!
//! Three representative Dashboard applications, each built around the same
//! pattern: a *grabber* daemon pulls time-series data from devices into
//! LittleTable; the data is single-writer, append-only, and recoverable
//! from the devices themselves, which is what lets LittleTable drop its
//! write-ahead log.
//!
//! * [`usage`] — UsageGrabber: byte/packet counters and transfer-rate rows,
//!   with the unavailability threshold `T` doing double duty for crash
//!   recovery (§4.1).
//! * [`events`] — EventsGrabber: device event logs with monotonically
//!   increasing ids, exponential-lookback recovery, and sentinel rows
//!   (§4.2).
//! * [`motion`] — MotionGrabber and video motion search over bit-vector
//!   motion words (§4.3).
//! * [`aggregate`] — background aggregators and rollups, including
//!   HyperLogLog distinct-client sketches and tag joins against the
//!   configuration store (§4.1.2).
//! * [`device`] — the simulated fleet standing in for real hardware, with
//!   deterministic (re-readable) counters, logs, and motion streams.
//! * [`config`] — the in-memory stand-in for the shard's PostgreSQL
//!   configuration database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod config;
pub mod device;
pub mod events;
pub mod motion;
pub mod usage;

pub use config::ConfigStore;
pub use device::{DeviceId, Fleet};
pub use events::EventsGrabber;
pub use motion::MotionGrabber;
pub use usage::UsageGrabber;
