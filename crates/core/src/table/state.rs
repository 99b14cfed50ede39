//! Tablet-set bookkeeping: the mutable [`TableState`] behind the state
//! mutex, the shared in-memory tablets it hands to readers, and the
//! immutable [`TabletSnapshot`] published to the read path.

use crate::descriptor::TabletMeta;
use crate::memtable::{MemTablet, MemTabletId};
use crate::period::Period;
use crate::schema::SchemaRef;
use crate::tablet::TabletReader;
use littletable_vfs::Micros;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One on-disk tablet: its descriptor entry plus a shared reader.
#[derive(Clone)]
pub(crate) struct DiskHandle {
    pub(crate) meta: TabletMeta,
    pub(crate) reader: Arc<TabletReader>,
}

/// An in-memory tablet shared between the insert path and concurrent
/// readers. While filling, inserts append under the write lock and
/// queries snapshot under the read lock — contention is limited to the
/// one tablet an insert targets. Once sealed the writer stops touching
/// it, so reader locks are uncontended until the flush commit drops the
/// tablet from the published snapshot.
pub(crate) struct SharedMemTablet {
    id: MemTabletId,
    inner: RwLock<MemTablet>,
}

impl SharedMemTablet {
    pub(crate) fn new(tablet: MemTablet) -> Self {
        SharedMemTablet {
            id: tablet.id(),
            inner: RwLock::new(tablet),
        }
    }

    /// The tablet's id, readable without taking the lock.
    pub(crate) fn id(&self) -> MemTabletId {
        self.id
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, MemTablet> {
        self.inner.read()
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, MemTablet> {
        self.inner.write()
    }
}

/// The mutable half of a table, guarded by `Table::state`. Everything a
/// reader needs is mirrored into a [`TabletSnapshot`] at each
/// transition; the remainder (id counters, the filling-vs-sealed
/// distinction) is writer-side only.
pub(crate) struct TableState {
    pub(crate) schema: SchemaRef,
    pub(crate) ttl: Option<Micros>,
    pub(crate) next_tablet_id: u64,
    pub(crate) next_mem_id: u64,
    pub(crate) filling: HashMap<Period, Arc<SharedMemTablet>>,
    /// Sealed tablets in the groups they flush in, oldest first: each
    /// group commits in one descriptor update (§3.4.3).
    pub(crate) sealed: VecDeque<Vec<Arc<SharedMemTablet>>>,
    pub(crate) disk: Vec<DiskHandle>,
    /// Largest row timestamp present (durable or in memory), for the
    /// newest-timestamp uniqueness fast path.
    pub(crate) max_ts: Micros,
    pub(crate) merge_running: bool,
    pub(crate) dropped: bool,
    /// Memory is ahead of `DESC`: set by each commit, cleared by a save.
    pub(crate) desc_dirty: bool,
}

impl TableState {
    pub(crate) fn sort_disk(&mut self) {
        self.disk.sort_by_key(|h| (h.meta.min_ts, h.meta.id));
    }

    /// Takes the on-disk tablets `leaving` picks out of the set, the rest
    /// keeping their order.
    pub(crate) fn take_disk(&mut self, leaving: impl Fn(&TabletMeta) -> bool) -> Vec<DiskHandle> {
        let (out, kept) = std::mem::take(&mut self.disk)
            .into_iter()
            .partition(|h| leaving(&h.meta));
        self.disk = kept;
        out
    }

    pub(crate) fn metas(&self) -> Vec<TabletMeta> {
        self.disk.iter().map(|h| h.meta.clone()).collect()
    }

    /// Every in-memory tablet, filling or sealed.
    pub(crate) fn mem_tablets(&self) -> impl Iterator<Item = &Arc<SharedMemTablet>> {
        self.filling.values().chain(self.sealed.iter().flatten())
    }

    /// True when any in-memory tablet (filling or sealed) holds `key`,
    /// whose [`crate::memtable::hash_key`] is `hash`. Only tablets whose
    /// timespan contains `ts` can hold it, since the timestamp is part of
    /// the key. Takes per-tablet read locks; the caller holds the state
    /// mutex (lock order: state, then tablet).
    pub(crate) fn mem_contains(&self, key: &[u8], hash: u64, ts: Micros) -> bool {
        self.mem_tablets().any(|t| {
            let mem = t.read();
            match (mem.min_ts(), mem.max_ts()) {
                (Some(lo), Some(hi)) => lo <= ts && ts <= hi && mem.contains(key, hash),
                _ => false,
            }
        })
    }

    /// The on-disk tablets whose timespan holds `ts`: the only ones that
    /// can hold a key with that timestamp.
    pub(crate) fn covering(&self, ts: Micros) -> impl Iterator<Item = &DiskHandle> {
        self.disk
            .iter()
            .filter(move |h| h.meta.min_ts <= ts && ts <= h.meta.max_ts)
    }

    pub(crate) fn sealed_tablet_count(&self) -> usize {
        self.sealed.iter().map(Vec::len).sum()
    }

    /// Builds the immutable view published to readers: the current
    /// schema and TTL, every on-disk tablet, and every in-memory tablet
    /// (filling and sealed — readers do not care about the distinction).
    pub(crate) fn build_snapshot(&self) -> TabletSnapshot {
        TabletSnapshot {
            schema: self.schema.clone(),
            ttl: self.ttl,
            disk: self.disk.clone(),
            mem: self.mem_tablets().cloned().collect(),
            dropped: self.dropped,
        }
    }
}

/// An immutable, atomically published view of the table's tablet set.
/// Every read works from one of these (`Table::view`): disk
/// handles are `Arc`'d readers of immutable files, and the shared
/// memtablets are snapshotted under their own read locks with the
/// caller's insert-sequence cutoff, so a reader never touches the state
/// mutex.
pub(crate) struct TabletSnapshot {
    pub(crate) schema: SchemaRef,
    pub(crate) ttl: Option<Micros>,
    pub(crate) disk: Vec<DiskHandle>,
    pub(crate) mem: Vec<Arc<SharedMemTablet>>,
    pub(crate) dropped: bool,
}
