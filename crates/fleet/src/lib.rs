//! A warm-spare LittleTable fleet with automated failover (§2.2, §3.5).
//!
//! The paper's deployment runs one LittleTable per shard, places rows on
//! shards *client-side*, and survives node death with a warm spare per
//! shard kept consistent by repeated rsync "until a sync completes
//! without copying any files". Durability is the application's problem:
//! when a primary dies, the client fails over to the spare and re-sends
//! whatever acknowledged data had not yet been archived.
//!
//! This crate is that deployment in miniature, built to be *killed*:
//! every node runs over its own [`SimVfs`](littletable_vfs::SimVfs), so a
//! deterministic [`FaultPlan`](littletable_vfs::FaultPlan) can crash any
//! node at any chosen disk-operation index — including mid-archive-sync —
//! and the whole run replays bit-for-bit. The pieces:
//!
//! * [`FleetNode`] — one simulated machine: a `SimVfs`, a
//!   [`NodeState`](littletable_server::NodeState) role (primary or fenced
//!   spare), and a [`Db`](littletable_core::db::Db) when primary;
//! * [`FleetSim`] — the cluster driver: boots `2 × shards` nodes, runs
//!   archive ticks with replication-lag tracking, promotes spares on
//!   primary death, and rolls back + re-syncs diverged nodes on failback;
//! * [`FleetClient`] — the application's adaptor: rendezvous-hash shard
//!   routing, bounded-backoff retry, idempotent re-send of
//!   acked-but-unarchived batches after failover, and cross-shard
//!   scatter-gather queries with continuation merging.
//!
//! Safety rests on two invariants checked by the node-kill harness in
//! `tests/fleet_sim.rs`:
//!
//! 1. **Descriptor-last archival** — within a table, tablets copy before
//!    the descriptor, so a half-synced spare always opens cleanly at the
//!    last fully-synced state (extra tablets are orphan-cleaned).
//! 2. **Monotonic `next_tablet_id`** — a spare whose descriptor is ahead
//!    of its primary's can only be a promoted spare that took writes;
//!    archival refuses to overwrite it (`SyncReport::diverged`) until the
//!    node is fenced and rolled back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod node;
mod sim;

#[cfg(test)]
mod tests;

pub use client::FleetClient;
pub use node::FleetNode;
pub use sim::{ArchiveOutcome, FleetError, FleetSim};
