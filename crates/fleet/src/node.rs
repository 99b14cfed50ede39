//! One simulated fleet machine.

use littletable_core::db::Db;
use littletable_core::error::Result;
use littletable_core::options::Options;
use littletable_proto::{Request, Response};
use littletable_server::{handle_fleet_request, NodeState};
use littletable_vfs::{SimClock, SimVfs, Vfs};
use std::sync::Arc;

/// A single node: its own simulated disk, a fleet role, and — while it
/// is a primary — an open engine.
///
/// Spares deliberately do **not** hold an open [`Db`]: the archiver
/// writes files underneath them, and an open engine would never see
/// those files. "Warm" means the *disk* is warm; the engine opens at
/// promotion, which is exactly the recovery path
/// [`Db::open`] already hardens (orphan-tablet cleanup, torn-descriptor
/// fallback).
pub struct FleetNode {
    id: u64,
    shard: u32,
    vfs: Arc<SimVfs>,
    clock: Arc<SimClock>,
    opts: Options,
    state: Arc<NodeState>,
    db: Option<Db>,
}

impl FleetNode {
    /// Boots a node. A primary opens its engine immediately; a spare
    /// starts fenced with no engine.
    pub fn new(
        id: u64,
        shard: u32,
        primary: bool,
        clock: Arc<SimClock>,
        opts: Options,
    ) -> Result<FleetNode> {
        let vfs = Arc::new(SimVfs::instant());
        let (state, db) = if primary {
            let db = Db::open(vfs.clone() as Arc<dyn Vfs>, clock.clone(), opts.clone())?;
            (Arc::new(NodeState::primary(id, shard)), Some(db))
        } else {
            (Arc::new(NodeState::spare(id, shard, 0)), None)
        };
        Ok(FleetNode {
            id,
            shard,
            vfs,
            clock,
            opts,
            state,
            db,
        })
    }

    /// Node id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Shard this node serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The node's simulated disk (the archiver reads/writes through
    /// this, and kill plans are installed on it).
    pub fn vfs(&self) -> &Arc<SimVfs> {
        &self.vfs
    }

    /// The open engine, if this node is an active primary.
    pub fn db(&self) -> Option<&Db> {
        self.db.as_ref()
    }

    /// The node's fencing state.
    pub fn state(&self) -> &Arc<NodeState> {
        &self.state
    }

    /// True when the simulated machine has halted on an injected crash
    /// and has not been restarted.
    pub fn is_down(&self) -> bool {
        self.vfs.halted()
    }

    /// Disk operations performed so far — the coordinate system for
    /// deterministic kill points.
    pub fn op_count(&self) -> u64 {
        self.vfs.op_count()
    }

    /// Handles one request, or returns `None` when the node is dead.
    ///
    /// `None` also covers the nastiest real-world case: the node halted
    /// *while* processing, so whatever the engine did before the crash
    /// may or may not be durable — but the acknowledgement never reached
    /// the client, which must re-send idempotently after failover.
    pub fn handle(&self, req: Request) -> Option<Response> {
        if self.vfs.halted() {
            return None;
        }
        let db = self.db.as_ref()?;
        let resp = handle_fleet_request(db, &self.state, req);
        if self.vfs.halted() {
            return None;
        }
        // No wire between the simulated client and the node: hand over
        // what the wire would have delivered.
        Some(resp.into_rows())
    }

    /// Promotes this spare: opens the engine over whatever the archiver
    /// left on disk (recovery cleans any half-synced tail) and unfences
    /// writes at `epoch`.
    pub fn promote(&mut self, epoch: u64) -> Result<()> {
        if self.db.is_none() {
            self.db = Some(Db::open(
                self.vfs.clone() as Arc<dyn Vfs>,
                self.clock.clone(),
                self.opts.clone(),
            )?);
        }
        self.state.promote(epoch);
        Ok(())
    }

    /// Demotes this node to a fenced spare at `epoch`, closing its
    /// engine so the archiver can write underneath it.
    pub fn demote(&mut self, epoch: u64) {
        self.db = None;
        self.state.demote(epoch);
    }

    /// Restarts a crashed machine as a fenced spare: unsynced state is
    /// lost (prefix durability), any pending fault plan is cleared, and
    /// the node comes back with no engine, waiting to be rolled back and
    /// re-synced.
    pub fn restart_as_spare(&mut self, epoch: u64) {
        self.db = None;
        self.vfs.clear_fault_plan();
        self.vfs.crash();
        self.state.demote(epoch);
    }

    /// Restarts a crashed machine as the shard's primary (it was never
    /// failed over — a transient crash). The memtable is gone; the
    /// client re-sends unacknowledged data.
    pub fn restart_as_primary(&mut self, epoch: u64) -> Result<()> {
        self.db = None;
        self.vfs.clear_fault_plan();
        self.vfs.crash();
        self.db = Some(Db::open(
            self.vfs.clone() as Arc<dyn Vfs>,
            self.clock.clone(),
            self.opts.clone(),
        )?);
        self.state.promote(epoch);
        Ok(())
    }
}
