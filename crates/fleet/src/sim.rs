//! The cluster driver: boot, archive, kill, fail over, fail back.

use crate::node::FleetNode;
use littletable_client::{ClientError, ShardMap};
use littletable_core::archive::{rollback_diverged, sync_until_quiescent};
use littletable_core::options::Options;
use littletable_proto::ErrorKind;
use littletable_vfs::{FaultPlan, Micros, SimClock, Vfs};
use std::sync::Arc;

/// How many rsync passes an archive tick will run before declaring the
/// shard lagging (primary writing faster than the archiver copies).
const MAX_SYNC_PASSES: usize = 8;

/// Fleet-level errors surfaced to the application.
#[derive(Debug)]
pub enum FleetError {
    /// Both replicas of a shard are unreachable; the data outage is real
    /// (the paper accepts this: restore from the archive when a machine
    /// returns).
    ShardDown(u32),
    /// A node answered with an error the client cannot retry away.
    Remote {
        /// Category.
        kind: ErrorKind,
        /// Server-provided description.
        message: String,
    },
    /// Engine-level failure in the driver itself (promotion, rollback).
    Engine(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::ShardDown(s) => write!(f, "shard {s}: both replicas down"),
            FleetError::Remote { kind, message } => {
                write!(f, "remote error ({kind:?}): {message}")
            }
            FleetError::Engine(m) => write!(f, "engine error: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// A malformed answer met while paging a query (the only client error
/// the fleet adaptor's in-process transport can produce).
impl From<ClientError> for FleetError {
    fn from(e: ClientError) -> Self {
        FleetError::Engine(e.to_string())
    }
}

/// Outcome of one archive tick on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveOutcome {
    /// A pass copied nothing and no table was diverged: the spare is a
    /// faithful replica, and everything acknowledged before the tick is
    /// now survivable.
    Clean,
    /// Sync reached quiescence but skipped diverged tables — a fenced
    /// node is waiting for [`FleetSim::resync_spare`].
    Diverged(u64),
    /// `MAX_SYNC_PASSES` passes never went quiescent; the shard's
    /// replication lag is growing.
    Lagging,
    /// The primary or spare halted before or during the tick; nothing
    /// can be said about the spare's freshness.
    NodeDown,
}

impl ArchiveOutcome {
    /// True only for [`ArchiveOutcome::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, ArchiveOutcome::Clean)
    }
}

/// An in-process fleet: `2 × shards` nodes over independent simulated
/// disks, a client-visible [`ShardMap`], and the failover driver.
///
/// Node ids are assigned so shard `s` boots with primary `2s` and spare
/// `2s + 1`; failovers swap the roles in the map (and bump the shard's
/// epoch) without renumbering nodes.
pub struct FleetSim {
    nodes: Vec<FleetNode>,
    map: ShardMap,
    clock: Arc<SimClock>,
    /// Per shard: the primary's op count at the last clean archive —
    /// the baseline for replication-lag measurement.
    last_clean_op: Vec<u64>,
    failovers: u64,
}

impl FleetSim {
    /// Boots a fleet of `shards` shards (two nodes each) sharing one
    /// simulated wall clock starting at `start` microseconds.
    pub fn new(shards: u32, start: Micros, opts: Options) -> Result<FleetSim, FleetError> {
        assert!(shards > 0, "a fleet needs at least one shard");
        let clock = Arc::new(SimClock::new(start));
        let mut nodes = Vec::with_capacity(shards as usize * 2);
        let mut pairs = Vec::with_capacity(shards as usize);
        for s in 0..shards {
            let p = u64::from(s) * 2;
            nodes.push(
                FleetNode::new(p, s, true, clock.clone(), opts.clone())
                    .map_err(|e| FleetError::Engine(e.to_string()))?,
            );
            nodes.push(
                FleetNode::new(p + 1, s, false, clock.clone(), opts.clone())
                    .map_err(|e| FleetError::Engine(e.to_string()))?,
            );
            pairs.push((p, p + 1));
        }
        Ok(FleetSim {
            nodes,
            map: ShardMap::new(pairs),
            clock,
            last_clean_op: vec![0; shards as usize],
            failovers: 0,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.map.shards()
    }

    /// The authoritative shard map (what a client would fetch).
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// A node by id.
    pub fn node(&self, id: u64) -> &FleetNode {
        &self.nodes[id as usize]
    }

    /// True when `id` has halted on an injected crash.
    pub fn node_down(&self, id: u64) -> bool {
        self.nodes[id as usize].is_down()
    }

    /// Failovers performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Installs a kill plan: node `id`'s machine halts when its disk
    /// operation counter reaches `op_index`.
    pub fn kill_at(&self, id: u64, op_index: u64) {
        self.nodes[id as usize]
            .vfs()
            .set_fault_plan(FaultPlan::crash_at(op_index));
    }

    /// Kills node `id` immediately (a power pull — memtable inserts
    /// touch no disk, so an op-indexed plan alone could let an "already
    /// dead" node keep acknowledging).
    pub fn kill_now(&self, id: u64) {
        self.nodes[id as usize].vfs().power_off();
    }

    /// One archive tick for `shard`: flush the primary's memtables, then
    /// rsync primary → spare until a pass copies nothing (the paper's
    /// stopping condition). On a clean pass the shard's replication-lag
    /// baseline advances.
    pub fn archive_shard(&mut self, shard: u32) -> ArchiveOutcome {
        let route = self.map.route(shard);
        let (p, s) = (route.primary as usize, route.spare as usize);
        if self.nodes[p].is_down() || self.nodes[s].is_down() {
            return ArchiveOutcome::NodeDown;
        }
        let Some(db) = self.nodes[p].db() else {
            return ArchiveOutcome::NodeDown;
        };
        if db.flush_all().is_err() {
            return ArchiveOutcome::NodeDown;
        }
        let src = self.nodes[p].vfs().clone();
        let dst = self.nodes[s].vfs().clone();
        match sync_until_quiescent(src.as_ref() as &dyn Vfs, dst.as_ref(), MAX_SYNC_PASSES) {
            Err(_) => ArchiveOutcome::NodeDown,
            Ok(reports) => {
                let last = reports.last().copied().unwrap_or_default();
                if !last.quiescent() {
                    ArchiveOutcome::Lagging
                } else if last.diverged > 0 {
                    ArchiveOutcome::Diverged(last.diverged)
                } else {
                    self.last_clean_op[shard as usize] = self.nodes[p].op_count();
                    ArchiveOutcome::Clean
                }
            }
        }
    }

    /// Archive every shard; returns one outcome per shard.
    pub fn archive_all(&mut self) -> Vec<ArchiveOutcome> {
        (0..self.shards()).map(|s| self.archive_shard(s)).collect()
    }

    /// Disk operations the primary has performed since `shard`'s last
    /// clean archive — the sim's replication-lag gauge.
    pub fn replication_lag(&self, shard: u32) -> u64 {
        let p = self.map.route(shard).primary as usize;
        self.nodes[p]
            .op_count()
            .saturating_sub(self.last_clean_op[shard as usize])
    }

    /// Fails `shard` over to its spare: the old primary (dead or not) is
    /// fenced at the new epoch, the spare opens its engine over the
    /// archived state and starts accepting writes. Returns the new
    /// epoch.
    pub fn failover(&mut self, shard: u32) -> Result<u64, FleetError> {
        let route = self.map.route(shard).clone();
        if self.nodes[route.spare as usize].is_down() {
            return Err(FleetError::ShardDown(shard));
        }
        let epoch = self.map.promote(shard);
        // Fence before unfencing: never two unfenced primaries.
        if !self.nodes[route.primary as usize].is_down() {
            self.nodes[route.primary as usize].demote(epoch);
        }
        self.nodes[route.spare as usize]
            .promote(epoch)
            .map_err(|e| FleetError::Engine(e.to_string()))?;
        self.last_clean_op[shard as usize] = self.nodes[route.spare as usize].op_count();
        self.failovers += 1;
        Ok(epoch)
    }

    /// Restarts a crashed node in whatever role the map currently
    /// assigns it: primary if it was never failed over (transient
    /// crash), fenced spare otherwise.
    pub fn restart_node(&mut self, id: u64) -> Result<(), FleetError> {
        let shard = self.nodes[id as usize].shard();
        let route = self.map.route(shard).clone();
        if route.primary == id {
            self.nodes[id as usize]
                .restart_as_primary(route.epoch)
                .map_err(|e| FleetError::Engine(e.to_string()))
        } else {
            self.nodes[id as usize].restart_as_spare(route.epoch);
            Ok(())
        }
    }

    /// Brings a returned (fenced, restarted) spare back into faithful
    /// replication: discards any diverged tables it wrote while it
    /// wrongly believed itself primary, then syncs until clean. Returns
    /// the number of tables rolled back.
    ///
    /// This must run while the divergence is still visible — before the
    /// current primary's `next_tablet_id` overtakes the spare's — which
    /// is why the driver couples rollback and re-sync in one step.
    pub fn resync_spare(&mut self, shard: u32) -> Result<u64, FleetError> {
        let route = self.map.route(shard).clone();
        let (p, s) = (route.primary as usize, route.spare as usize);
        if self.nodes[p].is_down() || self.nodes[s].is_down() {
            return Err(FleetError::ShardDown(shard));
        }
        if let Some(db) = self.nodes[p].db() {
            db.flush_all()
                .map_err(|e| FleetError::Engine(e.to_string()))?;
        }
        let src = self.nodes[p].vfs().clone();
        let dst = self.nodes[s].vfs().clone();
        let rolled = rollback_diverged(src.as_ref() as &dyn Vfs, dst.as_ref())
            .map_err(|e| FleetError::Engine(e.to_string()))?;
        let reports = sync_until_quiescent(src.as_ref(), dst.as_ref(), MAX_SYNC_PASSES)
            .map_err(|e| FleetError::Engine(e.to_string()))?;
        match reports.last() {
            Some(r) if r.clean() => {
                self.last_clean_op[shard as usize] = self.nodes[p].op_count();
                Ok(rolled)
            }
            _ => Err(FleetError::Engine(format!(
                "shard {shard}: spare did not reach a clean sync after rollback"
            ))),
        }
    }

    /// Fails `shard` back to a re-synced spare (typically the restored
    /// original primary): a failover in the other direction, at yet
    /// another epoch. The caller must have run [`FleetSim::resync_spare`]
    /// first; failing back to a stale spare loses acknowledged data.
    pub fn failback(&mut self, shard: u32) -> Result<u64, FleetError> {
        self.resync_spare(shard)?;
        self.failover(shard)
    }
}
