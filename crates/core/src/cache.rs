//! A sharded, two-tier cache of tablet blocks and footers, shared
//! database-wide.
//!
//! LittleTable's read path spends its CPU budget decompressing 64 kB
//! blocks (§3.2): a point query or short scan that revisits a warm tablet
//! pays the block read *and* the decompression again on every access,
//! even though tablets are write-once and a decompressed block can never
//! go stale. This cache keeps recently used blocks in memory, keyed by
//! `(tablet id, block index)`, under one joint byte budget
//! ([`crate::options::Options::block_cache_bytes`]) split across two
//! tiers:
//!
//! * The **upper (decompressed) tier** holds parsed [`Block`]s ready to
//!   serve reads, plus cached [`TabletFooter`]s under their own charge
//!   class — folding the paper's "footers cached almost indefinitely"
//!   into a bounded budget instead of pinning one footer per reader
//!   forever.
//! * The **lower (compressed) tier** holds the *compressed* bytes of
//!   blocks evicted from the upper tier. A re-read of a demoted block
//!   costs one decompress (~tens of µs) instead of a disk seek (~10 ms
//!   on the paper's drive), the read-amplification-vs-memory tradeoff of
//!   the LSM literature. The two tiers are *exclusive*: promotion moves
//!   an entry up, eviction demotes it down, so no block is charged twice.
//!
//! Design points:
//!
//! * **Sharded.** Keys hash to one of N shards (N rounded up to a power
//!   of two, then down while a shard's budget slice would fall below
//!   [`MIN_SHARD_SLICE`]), each with its own small mutex, so concurrent
//!   queries on different tablets rarely contend. Each tier's budget is
//!   split evenly across shards and each shard enforces its slice
//!   strictly — the total can therefore never exceed the joint budget.
//! * **CLOCK eviction.** Each shard keeps its entries in a slab swept by
//!   a clock hand; a hit sets the entry's reference bit, eviction clears
//!   bits until it finds an unreferenced victim. LRU-quality hit rates
//!   without LRU's per-access list surgery.
//! * **Scan-resistant admission.** Only the single-block read path
//!   ([`crate::tablet::TabletReader::read_block`]) consults or fills the
//!   cache. The ~1 MB buffered run reads that merges and bulk rewrites
//!   use (§3.4.1, [`crate::tablet::TabletReader::read_block_run`]) bypass
//!   it entirely, so a full-table merge pass cannot wipe out the hot set
//!   the way it would with admit-everything caching.
//! * **Write-once keys.** Tablet ids are allocated once per
//!   [`crate::tablet::TabletReader`] and never reused, so an entry can
//!   never alias a different tablet's data. When a reader is dropped
//!   (merge, TTL expiry, bulk delete, table drop), its entries — both
//!   tiers and the footer — are invalidated.
//! * **Adaptive tier split (ARC-style ghost lists).** When built with
//!   [`BlockCache::new_adaptive`], each tier's shards remember the keys
//!   (not the bytes) of recently evicted entries in a bounded FIFO
//!   *ghost list*. A miss that hits a ghost is a would-have-hit: the
//!   access would have been served had that tier been larger. Ghost
//!   hits are tallied by byte weight — scaled for the lower tier by
//!   [`GHOST_DISK_WEIGHT`], since the miss it signals costs a disk read
//!   where an upper-tier miss costs only a decompression — and a
//!   periodic [`rebalance`] (driven from `Db::maintain`) moves a
//!   bounded slice of the joint budget toward the tier with the greater
//!   unmet demand — so a
//!   scan-heavy phase (many re-reads of a working set wider than RAM's
//!   decompressed slice) grows the compressed tier, while a point-read
//!   phase (small hot set, decompress cost dominates) grows the
//!   decompressed tier, with no operator retuning either way. The two
//!   tier budgets always sum to the configured joint budget; each tier
//!   keeps a floor slice so it never starves out of the feedback loop.
//!
//! [`rebalance`]: BlockCache::rebalance
//!
//! Locks are held only for map and slab bookkeeping — never across disk
//! reads or decompression, and never one shard inside another (demotions
//! gather their victims under the upper-tier lock, then insert them into
//! the lower tier after releasing it). Concurrent misses on the same
//! block may both decompress it; the second insert is dropped, which
//! wastes a little CPU once but never blocks a reader behind another
//! reader's I/O.

use crate::block::Block;
use crate::stats::TableStats;
use crate::tablet::TabletFooter;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default number of shards when [`crate::options::Options`] leaves the
/// count at zero.
pub const DEFAULT_SHARDS: usize = 8;

/// Minimum useful per-shard slice of a tier's budget. The shard count
/// shrinks (halving, staying a power of two) until every configured
/// tier's slice reaches this floor, so a small budget becomes a
/// single-shard cache instead of silently rounding to zero capacity.
pub const MIN_SHARD_SLICE: usize = 16 << 10;

/// Weight applied to lower-tier ghost votes in the adaptive split's
/// demand tally. The two tiers' would-have-hits are not worth the same:
/// an upper-tier ghost hit means the access paid a decompression (~tens
/// of µs for a 64 kB block), a lower-tier ghost hit means it paid a
/// disk read (~10 ms of seek and transfer on the paper's drive). Left
/// unweighted, the upper tier also votes with systematically larger
/// charges (decompressed plus retained compressed bytes vs compressed
/// bytes alone), so compressed-tier demand would be structurally
/// outvoted even when it is the expensive kind. Sixteen is a
/// deliberately conservative fraction of the real ~100x cost ratio:
/// enough for disk-bound demand to win decisively, small enough that
/// sustained decompression pressure can still pull budget back up.
pub const GHOST_DISK_WEIGHT: u64 = 16;

/// Cache key: a never-reused tablet id plus the block's index within it.
type BlockKey = (u64, u32);

/// Pseudo block index under which a tablet's footer is cached. Real
/// block indexes can never reach it: a tablet would need > 256 TB of
/// 64 kB blocks, three orders of magnitude past `max_tablet_size`.
const FOOTER_SLOT: u32 = u32::MAX;

/// The compressed on-disk form of a block, retained so an eviction from
/// the decompressed tier can be demoted instead of discarded.
#[derive(Clone)]
pub struct CompressedBlock {
    /// The block's compressed bytes, exactly as stored on disk.
    pub bytes: Arc<[u8]>,
    /// Decompressed size, needed to decompress on promotion.
    pub uncompressed_len: u32,
}

/// Value held by an upper-tier slot: a hot decompressed block (with its
/// compressed form kept for demotion) or a tablet footer.
enum UpperValue {
    Block {
        block: Arc<Block>,
        compressed: Option<CompressedBlock>,
    },
    Footer(Arc<TabletFooter>),
}

struct Slot<V> {
    key: BlockKey,
    value: V,
    charge: usize,
    /// Stats of the table that inserted the entry; evictions are charged
    /// back to it.
    owner: Arc<TableStats>,
    /// CLOCK reference bit: set on hit, cleared by the sweeping hand.
    referenced: bool,
}

struct TierInner<V> {
    map: HashMap<BlockKey, usize>,
    /// Slab of entries; `None` holes are reusable via `free`.
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    bytes: usize,
    hand: usize,
    /// ARC-style ghost list: keys of recently evicted entries with the
    /// charge they carried, FIFO-bounded to the tier's capacity. Empty
    /// unless the cache is adaptive. A hit here is a would-have-hit that
    /// votes to grow this tier at the next rebalance.
    ghost: VecDeque<BlockKey>,
    ghost_map: HashMap<BlockKey, u32>,
    ghost_bytes: usize,
}

impl<V> Default for TierInner<V> {
    fn default() -> Self {
        TierInner {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            bytes: 0,
            hand: 0,
            ghost: VecDeque::new(),
            ghost_map: HashMap::new(),
            ghost_bytes: 0,
        }
    }
}

impl<V> TierInner<V> {
    /// Remembers an evicted key in the ghost list, bounded to `cap`
    /// bytes of remembered charge (0 disables, for non-adaptive caches).
    fn ghost_remember(&mut self, key: BlockKey, charge: usize, cap: usize) {
        if cap == 0 {
            return;
        }
        let charge = charge.min(u32::MAX as usize) as u32;
        match self.ghost_map.insert(key, charge) {
            // Re-evicted while its stale FIFO entry is still queued:
            // keep the old queue position, just refresh the charge.
            Some(old) => self.ghost_bytes -= old as usize,
            None => self.ghost.push_back(key),
        }
        self.ghost_bytes += charge as usize;
        while self.ghost_bytes > cap {
            let Some(oldest) = self.ghost.pop_front() else {
                break;
            };
            if let Some(c) = self.ghost_map.remove(&oldest) {
                self.ghost_bytes -= c as usize;
            }
        }
    }

    /// Removes `key` from the ghost list, returning its remembered
    /// charge. The FIFO keeps a stale entry that is skipped when popped.
    fn ghost_take(&mut self, key: &BlockKey) -> Option<u32> {
        let charge = self.ghost_map.remove(key)?;
        self.ghost_bytes -= charge as usize;
        Some(charge)
    }

    /// Evicts unreferenced entries (second-chance order) until `need`
    /// more bytes fit under `capacity`, pushing victims onto `victims`
    /// for the caller to account (and possibly demote) outside the shard
    /// lock. Victims are remembered in the ghost list when `ghost_cap`
    /// is nonzero. Returns false when impossible.
    fn evict_until_fits(
        &mut self,
        need: usize,
        capacity: usize,
        ghost_cap: usize,
        victims: &mut Vec<Slot<V>>,
    ) -> bool {
        while self.bytes + need > capacity {
            if self.map.is_empty() {
                return false;
            }
            let n = self.slots.len();
            // Bounded sweep: after one full lap every reference bit is
            // clear, so the second lap must find a victim.
            let mut sweep = 0usize;
            loop {
                sweep += 1;
                if sweep > 2 * n + 1 {
                    return false; // defensive; unreachable in practice
                }
                self.hand = (self.hand + 1) % n;
                let Some(slot) = &mut self.slots[self.hand] else {
                    continue;
                };
                if slot.referenced {
                    slot.referenced = false;
                    continue;
                }
                let victim = self.slots[self.hand].take().expect("checked above");
                self.map.remove(&victim.key);
                self.free.push(self.hand);
                self.bytes -= victim.charge;
                self.ghost_remember(victim.key, victim.charge, ghost_cap);
                victims.push(victim);
                break;
            }
        }
        true
    }

    /// Places a slot the caller has already made room for.
    fn insert_slot(&mut self, slot: Slot<V>) {
        let key = slot.key;
        let charge = slot.charge;
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some(slot);
        self.map.insert(key, idx);
        self.bytes += charge;
    }

    fn remove_key(&mut self, key: &BlockKey) -> Option<Slot<V>> {
        let idx = self.map.remove(key)?;
        let slot = self.slots[idx].take().expect("map points at live slot");
        self.bytes -= slot.charge;
        self.free.push(idx);
        Some(slot)
    }
}

struct Shard<V> {
    inner: Mutex<TierInner<V>>,
    /// Lock-free mirror of `inner.bytes` for observation.
    bytes: AtomicUsize,
}

fn make_shards<V>(n: usize) -> Box<[Shard<V>]> {
    (0..n)
        .map(|_| Shard {
            inner: Mutex::new(TierInner::default()),
            bytes: AtomicUsize::new(0),
        })
        .collect()
}

/// The sharded, scan-resistant, two-tier block-and-footer cache. One
/// instance is shared by every table of a [`crate::db::Db`].
pub struct BlockCache {
    /// Decompressed blocks and tablet footers.
    upper: Box<[Shard<UpperValue>]>,
    /// Compressed bytes of blocks demoted from the upper tier.
    lower: Box<[Shard<CompressedBlock>]>,
    /// Per-shard tier slices. Plain values at rest for a static split;
    /// [`BlockCache::rebalance`] moves bytes between them while their sum
    /// stays pinned at `shard_total`.
    upper_shard_capacity: AtomicUsize,
    lower_shard_capacity: AtomicUsize,
    /// The fixed joint per-shard budget: `upper + lower` slices always
    /// sum to this, so the cache can never grow past its configured size
    /// no matter how the split drifts.
    shard_total: usize,
    /// Ghost lists and rebalancing are active (see `new_adaptive`).
    adaptive: bool,
    shard_mask: u64,
    next_tablet_id: AtomicU64,
    /// Would-have-hit tallies since the last rebalance, byte-weighted so
    /// a big block's unmet demand votes proportionally to the budget it
    /// would have needed. Swapped to zero by each rebalance.
    ghost_bytes_decompressed: AtomicU64,
    ghost_bytes_compressed: AtomicU64,
    /// Cumulative ghost-hit counts, for observability (never reset).
    ghost_hits_decompressed: AtomicU64,
    ghost_hits_compressed: AtomicU64,
    /// Number of rebalances that actually moved budget.
    rebalances: AtomicU64,
}

impl BlockCache {
    /// Creates a cache whose upper (decompressed + footer) tier holds at
    /// most `decompressed_bytes` and whose lower (compressed) tier holds
    /// at most `compressed_bytes`, across `shards` shards each
    /// (0 = [`DEFAULT_SHARDS`]; rounded up to a power of two, then down
    /// while any configured tier's slice would fall under
    /// [`MIN_SHARD_SLICE`]).
    pub fn new(decompressed_bytes: usize, compressed_bytes: usize, shards: usize) -> BlockCache {
        let mut shards = if shards == 0 { DEFAULT_SHARDS } else { shards }
            .next_power_of_two()
            .min(1 << 10);
        // Shrink the shard count until the smallest configured tier still
        // gets a useful slice per shard; a budget below the shard count
        // must become a small cache, not a capacity-zero one.
        let floor = [decompressed_bytes, compressed_bytes]
            .into_iter()
            .filter(|&b| b > 0)
            .min()
            .unwrap_or(0);
        while shards > 1 && floor / shards < MIN_SHARD_SLICE {
            shards /= 2;
        }
        Self::build(
            decompressed_bytes / shards,
            compressed_bytes / shards,
            shards,
            false,
        )
    }

    /// Creates a cache whose *joint* budget is `total_bytes`, split
    /// between the tiers at `initial_compressed_fraction` and thereafter
    /// retuned by [`BlockCache::rebalance`] from ghost-list demand. Each
    /// tier's slice is clamped to at least 1/8 of the joint budget so it
    /// keeps generating evictions — and therefore ghost signal — even
    /// when the current phase has no use for it.
    pub fn new_adaptive(
        total_bytes: usize,
        initial_compressed_fraction: f64,
        shards: usize,
    ) -> BlockCache {
        let mut shards = if shards == 0 { DEFAULT_SHARDS } else { shards }
            .next_power_of_two()
            .min(1 << 10);
        // Both tiers must clear MIN_SHARD_SLICE even at the floor split.
        while shards > 1 && total_bytes / shards / 8 < MIN_SHARD_SLICE {
            shards /= 2;
        }
        let shard_total = total_bytes / shards;
        let floor = shard_total / 8;
        let frac = initial_compressed_fraction.clamp(0.0, 1.0);
        let lower = ((shard_total as f64 * frac) as usize).clamp(floor, shard_total - floor);
        Self::build(shard_total - lower, lower, shards, shard_total > 0)
    }

    fn build(upper_slice: usize, lower_slice: usize, shards: usize, adaptive: bool) -> BlockCache {
        BlockCache {
            upper: make_shards(shards),
            lower: make_shards(shards),
            upper_shard_capacity: AtomicUsize::new(upper_slice),
            lower_shard_capacity: AtomicUsize::new(lower_slice),
            shard_total: upper_slice + lower_slice,
            adaptive,
            shard_mask: shards as u64 - 1,
            next_tablet_id: AtomicU64::new(1),
            ghost_bytes_decompressed: AtomicU64::new(0),
            ghost_bytes_compressed: AtomicU64::new(0),
            ghost_hits_decompressed: AtomicU64::new(0),
            ghost_hits_compressed: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
        }
    }

    /// Per-shard byte bound on each tier's ghost list: the joint budget,
    /// so the ghosts can answer "would the whole cache, given over to
    /// this tier, have held it?". Zero (disabled) for static caches.
    fn ghost_cap(&self) -> usize {
        if self.adaptive {
            self.shard_total
        } else {
            0
        }
    }

    /// Allocates a fresh tablet id. Ids are never reused, so entries of a
    /// deleted tablet can never be confused with a newer tablet's.
    pub fn register_tablet(&self) -> u64 {
        self.next_tablet_id.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_idx(&self, key: BlockKey) -> usize {
        // splitmix64-style finalizer over the packed key.
        let mut h = key.0.rotate_left(32) ^ key.1 as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((h ^ (h >> 31)) & self.shard_mask) as usize
    }

    /// Records a would-have-hit against the upper tier's ghost list.
    fn note_upper_ghost(&self, inner: &mut TierInner<UpperValue>, key: &BlockKey) {
        if !self.adaptive {
            return;
        }
        if let Some(charge) = inner.ghost_take(key) {
            self.ghost_hits_decompressed.fetch_add(1, Ordering::Relaxed);
            self.ghost_bytes_decompressed
                .fetch_add(charge as u64, Ordering::Relaxed);
        }
    }

    /// Looks up a decompressed block, marking it recently used on a hit.
    /// A miss votes for neither tier here: whether it represents unmet
    /// *decompressed* demand depends on whether the lower tier serves it,
    /// which [`take_compressed`] resolves.
    ///
    /// [`take_compressed`]: BlockCache::take_compressed
    pub fn get(&self, tablet_id: u64, block_index: u32) -> Option<Arc<Block>> {
        let key = (tablet_id, block_index);
        let shard = &self.upper[self.shard_idx(key)];
        let mut inner = shard.inner.lock();
        let &idx = inner.map.get(&key)?;
        let slot = inner.slots[idx].as_mut().expect("map points at live slot");
        match &slot.value {
            UpperValue::Block { block, .. } => {
                let block = block.clone();
                slot.referenced = true;
                Some(block)
            }
            UpperValue::Footer(_) => None,
        }
    }

    /// Removes and returns a block's compressed bytes from the lower
    /// tier. The caller decompresses and re-admits the block to the
    /// upper tier (which carries the compressed form along), keeping the
    /// tiers exclusive.
    ///
    /// This is also where the adaptive split's demand signal resolves.
    /// The two ghost votes are mutually exclusive per access, so they
    /// cannot cancel each other out:
    ///
    /// * lower serves the block and the upper ghost remembers it — a
    ///   larger *decompressed* tier would have saved this decompression;
    /// * neither tier has it but the lower ghost remembers it — a larger
    ///   *compressed* tier would have saved the disk read the caller is
    ///   about to pay. (An access that is a full miss in both tiers and
    ///   both ghosts votes for neither.)
    pub fn take_compressed(&self, tablet_id: u64, block_index: u32) -> Option<CompressedBlock> {
        let key = (tablet_id, block_index);
        let shard = &self.lower[self.shard_idx(key)];
        let taken = {
            let mut inner = shard.inner.lock();
            match inner.remove_key(&key) {
                Some(slot) => {
                    shard.bytes.store(inner.bytes, Ordering::Relaxed);
                    Some(slot.value)
                }
                None => {
                    if self.adaptive {
                        if let Some(charge) = inner.ghost_take(&key) {
                            self.ghost_hits_compressed.fetch_add(1, Ordering::Relaxed);
                            self.ghost_bytes_compressed
                                .fetch_add(charge as u64 * GHOST_DISK_WEIGHT, Ordering::Relaxed);
                        }
                    }
                    None
                }
            }
        };
        // Lower-tier hit: the access still pays a decompression the upper
        // tier would have spared. Taken after the lower lock is released —
        // the admission paths nest upper-then-lower, never the reverse.
        if taken.is_some() && self.adaptive {
            let upper = &self.upper[self.shard_idx(key)];
            let mut inner = upper.inner.lock();
            self.note_upper_ghost(&mut inner, &key);
        }
        taken
    }

    /// Admits a decompressed block, charged by its decompressed size plus
    /// the retained compressed bytes, evicting colder entries to fit.
    /// Evicted blocks demote their compressed form to the lower tier;
    /// evicted footers count against their owner's `footer_evictions`.
    /// Blocks too large for one shard's slice (and keys already present)
    /// skip the upper tier; their compressed bytes go straight down.
    pub fn insert(
        &self,
        tablet_id: u64,
        block_index: u32,
        block: Arc<Block>,
        compressed: Option<CompressedBlock>,
        owner: &Arc<TableStats>,
    ) {
        let key = (tablet_id, block_index);
        let charge = block.byte_size() + compressed.as_ref().map_or(0, |c| c.bytes.len());
        let upper_capacity = self.upper_shard_capacity.load(Ordering::Relaxed);
        if charge > upper_capacity {
            if let Some(c) = compressed {
                self.insert_compressed(key, c, owner);
            }
            return;
        }
        let shard = &self.upper[self.shard_idx(key)];
        let mut victims = Vec::new();
        let mut rejected = None;
        {
            let mut inner = shard.inner.lock();
            if let Some(&idx) = inner.map.get(&key) {
                // Lost a race with another miss on the same block.
                inner.slots[idx].as_mut().expect("live slot").referenced = true;
            } else if inner.evict_until_fits(charge, upper_capacity, self.ghost_cap(), &mut victims)
            {
                // New entries start unreferenced: a block read once and
                // never touched again is the first to go, while anything
                // re-read earns its second chance. This is what makes
                // single-pass traffic that does reach the cache (e.g. a
                // one-off wide query) cheap to absorb.
                inner.insert_slot(Slot {
                    key,
                    value: UpperValue::Block { block, compressed },
                    charge,
                    owner: owner.clone(),
                    referenced: false,
                });
            } else {
                rejected = compressed;
            }
            shard.bytes.store(inner.bytes, Ordering::Relaxed);
        }
        if let Some(c) = rejected {
            self.insert_compressed(key, c, owner);
        }
        self.settle_upper_victims(victims);
    }

    /// Admits a tablet footer under its own charge class, evicting colder
    /// entries (blocks or other footers) to fit. A footer too large for
    /// one shard's slice is not admitted and will reload from disk on
    /// each use — bounded memory wins over pinning at pathological sizes.
    /// The refusal costs its owner what an eviction costs, the reload,
    /// and is counted as one.
    pub fn insert_footer(
        &self,
        tablet_id: u64,
        footer: Arc<TabletFooter>,
        owner: &Arc<TableStats>,
    ) {
        let key = (tablet_id, FOOTER_SLOT);
        let charge = footer.approx_byte_size();
        let upper_capacity = self.upper_shard_capacity.load(Ordering::Relaxed);
        if charge > upper_capacity {
            TableStats::add(&owner.footer_evictions, 1);
            return;
        }
        let shard = &self.upper[self.shard_idx(key)];
        let mut victims = Vec::new();
        {
            let mut inner = shard.inner.lock();
            if let Some(&idx) = inner.map.get(&key) {
                inner.slots[idx].as_mut().expect("live slot").referenced = true;
            } else if inner.evict_until_fits(charge, upper_capacity, self.ghost_cap(), &mut victims)
            {
                inner.insert_slot(Slot {
                    key,
                    value: UpperValue::Footer(footer),
                    charge,
                    owner: owner.clone(),
                    referenced: false,
                });
            }
            shard.bytes.store(inner.bytes, Ordering::Relaxed);
        }
        self.settle_upper_victims(victims);
    }

    /// Looks up a cached footer, marking it recently used on a hit. A
    /// miss on a ghosted footer counts as upper-tier demand, same as a
    /// block: the reload it forces is three seeks of avoidable work.
    pub fn get_footer(&self, tablet_id: u64) -> Option<Arc<TabletFooter>> {
        let key = (tablet_id, FOOTER_SLOT);
        let shard = &self.upper[self.shard_idx(key)];
        let mut inner = shard.inner.lock();
        let Some(&idx) = inner.map.get(&key) else {
            self.note_upper_ghost(&mut inner, &key);
            return None;
        };
        let slot = inner.slots[idx].as_mut().expect("map points at live slot");
        match &slot.value {
            UpperValue::Footer(f) => {
                let f = f.clone();
                slot.referenced = true;
                Some(f)
            }
            UpperValue::Block { .. } => None,
        }
    }

    /// True when `tablet_id`'s footer is currently resident, without
    /// touching its reference bit (observation only).
    pub fn footer_resident(&self, tablet_id: u64) -> bool {
        let key = (tablet_id, FOOTER_SLOT);
        let shard = &self.upper[self.shard_idx(key)];
        shard.inner.lock().map.contains_key(&key)
    }

    /// Charges upper-tier evictions to their owners and demotes evicted
    /// blocks' compressed bytes into the lower tier. Called after the
    /// upper shard lock is released, so tier locks never nest.
    fn settle_upper_victims(&self, victims: Vec<Slot<UpperValue>>) {
        for victim in victims {
            match victim.value {
                UpperValue::Block { block, compressed } => {
                    TableStats::add(&victim.owner.cache_evicted_bytes, block.byte_size() as u64);
                    drop(block);
                    if let Some(c) = compressed {
                        self.insert_compressed(victim.key, c, &victim.owner);
                    }
                }
                UpperValue::Footer(_) => {
                    TableStats::add(&victim.owner.footer_evictions, 1);
                }
            }
        }
    }

    /// Admits compressed block bytes to the lower tier, evicting colder
    /// compressed entries to fit. Lower-tier evictions leave the cache
    /// for good.
    fn insert_compressed(&self, key: BlockKey, value: CompressedBlock, owner: &Arc<TableStats>) {
        let charge = value.bytes.len();
        let lower_capacity = self.lower_shard_capacity.load(Ordering::Relaxed);
        if charge > lower_capacity {
            return;
        }
        let shard = &self.lower[self.shard_idx(key)];
        let mut inner = shard.inner.lock();
        if let Some(&idx) = inner.map.get(&key) {
            inner.slots[idx].as_mut().expect("live slot").referenced = true;
            return;
        }
        let mut dropped = Vec::new();
        if inner.evict_until_fits(charge, lower_capacity, self.ghost_cap(), &mut dropped) {
            inner.insert_slot(Slot {
                key,
                value,
                charge,
                owner: owner.clone(),
                referenced: false,
            });
        }
        shard.bytes.store(inner.bytes, Ordering::Relaxed);
    }

    /// Drops every cached entry of `tablet_id` — decompressed blocks,
    /// compressed blocks, and its footer (the tablet's file is being
    /// deleted). Not counted as eviction in the owner's stats.
    pub fn invalidate_tablet(&self, tablet_id: u64) {
        for shard in self.upper.iter() {
            let mut inner = shard.inner.lock();
            let keys: Vec<BlockKey> = inner
                .map
                .keys()
                .filter(|k| k.0 == tablet_id)
                .copied()
                .collect();
            for key in keys {
                inner.remove_key(&key);
            }
            shard.bytes.store(inner.bytes, Ordering::Relaxed);
        }
        for shard in self.lower.iter() {
            let mut inner = shard.inner.lock();
            let keys: Vec<BlockKey> = inner
                .map
                .keys()
                .filter(|k| k.0 == tablet_id)
                .copied()
                .collect();
            for key in keys {
                inner.remove_key(&key);
            }
            shard.bytes.store(inner.bytes, Ordering::Relaxed);
        }
    }

    /// Current bytes held across both tiers (decompressed blocks with
    /// their retained compressed forms, footers, and demoted compressed
    /// blocks). Each shard's slice is enforced under its lock, so this
    /// can never exceed [`BlockCache::capacity`].
    pub fn bytes_used(&self) -> usize {
        self.decompressed_bytes_used() + self.compressed_bytes_used()
    }

    /// Current upper-tier bytes (decompressed blocks + footers).
    pub fn decompressed_bytes_used(&self) -> usize {
        self.upper
            .iter()
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Current lower-tier bytes (demoted compressed blocks).
    pub fn compressed_bytes_used(&self) -> usize {
        self.lower
            .iter()
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// The total byte budget across both tiers. Per-tier budgets divide
    /// evenly across shards, rounding *down* — so this is at most (never
    /// more than) the configured joint budget, and small budgets shrink
    /// the shard count (see [`MIN_SHARD_SLICE`]) rather than rounding a
    /// shard's slice to zero.
    pub fn capacity(&self) -> usize {
        // `shard_total` is fixed at construction, so the joint budget is
        // stable even mid-rebalance when the two tier slices are being
        // restored one after the other.
        self.shard_total * self.upper.len()
    }

    /// The upper (decompressed + footer) tier's byte budget.
    pub fn decompressed_capacity(&self) -> usize {
        self.upper_shard_capacity.load(Ordering::Relaxed) * self.upper.len()
    }

    /// The lower (compressed) tier's byte budget.
    pub fn compressed_capacity(&self) -> usize {
        self.lower_shard_capacity.load(Ordering::Relaxed) * self.lower.len()
    }

    /// True when the tier split is ghost-list driven (built with
    /// [`BlockCache::new_adaptive`]).
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// The compressed tier's current share of the joint budget, in
    /// [0, 1]. For a static cache this is simply the configured split.
    pub fn split_fraction(&self) -> f64 {
        if self.shard_total == 0 {
            return 0.0;
        }
        self.lower_shard_capacity.load(Ordering::Relaxed) as f64 / self.shard_total as f64
    }

    /// Cumulative upper-tier (decompressed) ghost hits.
    pub fn ghost_hits_decompressed(&self) -> u64 {
        self.ghost_hits_decompressed.load(Ordering::Relaxed)
    }

    /// Cumulative lower-tier (compressed) ghost hits.
    pub fn ghost_hits_compressed(&self) -> u64 {
        self.ghost_hits_compressed.load(Ordering::Relaxed)
    }

    /// Number of rebalances that moved budget between the tiers.
    pub fn rebalance_count(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// Retunes the tier split from the ghost-hit tallies accumulated
    /// since the last call, then trims whichever tier shrank (upper-tier
    /// victims still demote their compressed bytes downward, into the
    /// room that just opened). Moves a bounded step — between 1/64 and
    /// 1/8 of the joint budget, scaled by the demand imbalance — toward
    /// the tier with more byte-weighted would-have-hits, never pushing
    /// either tier below its 1/8 floor. Returns true when budget moved.
    ///
    /// Called from `Db::maintain`, so the split adapts at maintenance
    /// cadence without any hot-path cost beyond the ghost bookkeeping.
    pub fn rebalance(&self) -> bool {
        if !self.adaptive || self.shard_total == 0 {
            return false;
        }
        let up_demand = self.ghost_bytes_decompressed.swap(0, Ordering::Relaxed);
        let down_demand = self.ghost_bytes_compressed.swap(0, Ordering::Relaxed);
        if up_demand == down_demand {
            return false; // includes the idle case: no signal, no churn
        }
        let floor = self.shard_total / 8;
        let min_step = (self.shard_total / 64).max(1);
        let max_step = (self.shard_total / 8).max(min_step);
        let imbalance = (up_demand.abs_diff(down_demand) as usize) / self.upper.len();
        let step = imbalance.clamp(min_step, max_step);
        let upper_cap = self.upper_shard_capacity.load(Ordering::Relaxed);
        let lower_cap = self.lower_shard_capacity.load(Ordering::Relaxed);
        let (new_upper, new_lower) = if up_demand > down_demand {
            let take = step.min(lower_cap.saturating_sub(floor));
            (upper_cap + take, lower_cap - take)
        } else {
            let take = step.min(upper_cap.saturating_sub(floor));
            (upper_cap - take, lower_cap + take)
        };
        if new_upper == upper_cap {
            return false; // the loser is already at its floor
        }
        // Publish both slices before trimming; growth is harmless to see
        // early, and the shrink is enforced shard by shard below.
        self.upper_shard_capacity
            .store(new_upper, Ordering::Relaxed);
        self.lower_shard_capacity
            .store(new_lower, Ordering::Relaxed);
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        let ghost_cap = self.ghost_cap();
        if new_upper < upper_cap {
            for shard in self.upper.iter() {
                let mut victims = Vec::new();
                {
                    let mut inner = shard.inner.lock();
                    inner.evict_until_fits(0, new_upper, ghost_cap, &mut victims);
                    shard.bytes.store(inner.bytes, Ordering::Relaxed);
                }
                self.settle_upper_victims(victims);
            }
        } else {
            for shard in self.lower.iter() {
                let mut inner = shard.inner.lock();
                let mut dropped = Vec::new();
                inner.evict_until_fits(0, new_lower, ghost_cap, &mut dropped);
                shard.bytes.store(inner.bytes, Ordering::Relaxed);
            }
        }
        true
    }

    /// Number of upper-tier entries currently cached (blocks + footers).
    pub fn entry_count(&self) -> usize {
        self.upper.iter().map(|s| s.inner.lock().map.len()).sum()
    }

    /// Number of lower-tier (compressed block) entries currently cached.
    pub fn compressed_entry_count(&self) -> usize {
        self.lower.iter().map(|s| s.inner.lock().map.len()).sum()
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.upper.len())
            .field("capacity", &self.capacity())
            .field("decompressed_capacity", &self.decompressed_capacity())
            .field("compressed_capacity", &self.compressed_capacity())
            .field("bytes_used", &self.bytes_used())
            .field("entries", &self.entry_count())
            .field("compressed_entries", &self.compressed_entry_count())
            .field("adaptive", &self.adaptive)
            .field("split_fraction", &self.split_fraction())
            .field("rebalances", &self.rebalance_count())
            .finish()
    }
}

/// A tablet reader's connection to the shared cache: the cache, the
/// reader's never-reused tablet id, and the owning table's stats.
#[derive(Clone)]
pub(crate) struct CacheHandle {
    pub(crate) cache: Arc<BlockCache>,
    pub(crate) tablet_id: u64,
    pub(crate) stats: Arc<TableStats>,
}

impl CacheHandle {
    /// Builds a handle with a freshly allocated tablet id.
    pub(crate) fn register(cache: Arc<BlockCache>, stats: Arc<TableStats>) -> CacheHandle {
        let tablet_id = cache.register_tablet();
        CacheHandle {
            cache,
            tablet_id,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockEncoder;
    use crate::row::Row;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnType, Value};

    /// A one-row block charged `size` bytes (or the least a block costs,
    /// if that is more).
    fn block_of_size(size: usize) -> Arc<Block> {
        let schema = Schema::new(
            vec![
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::Blob),
            ],
            &["ts"],
        )
        .unwrap();
        let with_blob = |len: usize| {
            let mut b = BlockEncoder::new(&schema);
            b.add(&Row::new(vec![
                Value::Timestamp(0),
                Value::Blob(vec![0u8; len]),
            ]))
            .unwrap();
            b.into_block(&schema)
        };
        let least = with_blob(0).byte_size();
        Arc::new(with_blob(size.saturating_sub(least)))
    }

    /// A stand-in compressed form, `approx` bytes long.
    fn compressed_of_size(approx: usize) -> CompressedBlock {
        CompressedBlock {
            bytes: vec![0u8; approx].into(),
            uncompressed_len: (approx * 3) as u32,
        }
    }

    fn stats() -> Arc<TableStats> {
        Arc::new(TableStats::default())
    }

    #[test]
    fn hit_returns_same_block() {
        let cache = BlockCache::new(1 << 20, 0, 1);
        let st = stats();
        let tid = cache.register_tablet();
        assert!(cache.get(tid, 0).is_none());
        let b = block_of_size(1000);
        cache.insert(tid, 0, b.clone(), None, &st);
        let hit = cache.get(tid, 0).expect("cached");
        assert!(Arc::ptr_eq(&b, &hit));
        assert_eq!(cache.entry_count(), 1);
        assert_eq!(cache.bytes_used(), b.byte_size());
    }

    #[test]
    fn eviction_respects_budget_and_charges_owner() {
        let cache = BlockCache::new(10_000, 0, 1);
        let st = stats();
        let tid = cache.register_tablet();
        for i in 0..64u32 {
            cache.insert(tid, i, block_of_size(1000), None, &st);
            assert!(cache.bytes_used() <= cache.capacity());
        }
        assert!(cache.entry_count() < 64);
        assert!(st.snapshot().cache_evicted_bytes > 0);
    }

    #[test]
    fn clock_keeps_recently_used_entries() {
        // Capacity for ~4 one-KB blocks in one shard.
        let cache = BlockCache::new(4200, 0, 1);
        let st = stats();
        let tid = cache.register_tablet();
        for i in 0..4u32 {
            cache.insert(tid, i, block_of_size(1000), None, &st);
        }
        // Keep block 0 hot while streaming new blocks through.
        for i in 4..40u32 {
            assert!(cache.get(tid, 0).is_some(), "hot block evicted at {i}");
            cache.insert(tid, i, block_of_size(1000), None, &st);
        }
        assert!(cache.get(tid, 0).is_some());
    }

    #[test]
    fn oversize_blocks_are_not_admitted() {
        let cache = BlockCache::new(4096, 0, 4); // shard clamp: one 4 kB shard
        let st = stats();
        let tid = cache.register_tablet();
        cache.insert(tid, 0, block_of_size(100_000), None, &st);
        assert_eq!(cache.entry_count(), 0);
    }

    #[test]
    fn small_budgets_still_cache() {
        // A budget below the requested shard count must clamp to fewer
        // shards with real capacity, not floor every shard to zero.
        let cache = BlockCache::new(4096, 0, 64);
        assert_eq!(cache.capacity(), 4096);
        let st = stats();
        let tid = cache.register_tablet();
        cache.insert(tid, 0, block_of_size(1000), None, &st);
        assert!(cache.get(tid, 0).is_some(), "small budget must still cache");
    }

    #[test]
    fn evicted_blocks_demote_to_compressed_tier() {
        // Upper fits ~2 entries (1000 decompressed + 200 compressed each);
        // lower fits all the compressed forms.
        let cache = BlockCache::new(2500, 4096, 1);
        let st = stats();
        let tid = cache.register_tablet();
        for i in 0..8u32 {
            cache.insert(
                tid,
                i,
                block_of_size(1000),
                Some(compressed_of_size(200)),
                &st,
            );
        }
        assert!(cache.entry_count() <= 2);
        assert!(
            cache.compressed_entry_count() > 0,
            "evictions must demote compressed bytes"
        );
        assert!(cache.bytes_used() <= cache.capacity());
        // Promote one demoted block: its compressed bytes leave the lower
        // tier (exclusive tiers) and the caller re-admits up top.
        let demoted = (0..8u32)
            .find(|&i| cache.get(tid, i).is_none())
            .expect("something was evicted");
        let before = cache.compressed_entry_count();
        let c = cache.take_compressed(tid, demoted).expect("demoted entry");
        assert_eq!(cache.compressed_entry_count(), before - 1);
        cache.insert(tid, demoted, block_of_size(1000), Some(c), &st);
        assert!(cache.get(tid, demoted).is_some());
        assert!(cache.bytes_used() <= cache.capacity());
    }

    #[test]
    fn zero_compressed_budget_discards_evictions() {
        let cache = BlockCache::new(2500, 0, 1);
        let st = stats();
        let tid = cache.register_tablet();
        for i in 0..8u32 {
            cache.insert(
                tid,
                i,
                block_of_size(1000),
                Some(compressed_of_size(200)),
                &st,
            );
        }
        assert_eq!(cache.compressed_entry_count(), 0);
        assert_eq!(cache.compressed_bytes_used(), 0);
    }

    #[test]
    fn footers_cache_evict_and_count() {
        let schema = crate::schema::Schema::new(
            vec![
                crate::schema::ColumnDef::new("k", crate::value::ColumnType::I64),
                crate::schema::ColumnDef::new("ts", crate::value::ColumnType::Timestamp),
            ],
            &["k", "ts"],
        )
        .unwrap();
        let footer = |nblocks: usize| {
            Arc::new(TabletFooter {
                schema: schema.clone(),
                min_ts: 0,
                max_ts: 1,
                row_count: 10,
                bloom: None,
                row_blocks: false,
                blocks: (0..nblocks)
                    .map(|i| crate::tablet::BlockIndexEntry {
                        offset: i as u64 * 100,
                        compressed_len: 100,
                        uncompressed_len: 300,
                        crc: None,
                        rows: 0,
                        zones: Vec::new(),
                        last_key: vec![0u8; 16],
                    })
                    .collect(),
            })
        };
        let cache = BlockCache::new(4096, 0, 1);
        let st = stats();
        let a = cache.register_tablet();
        cache.insert_footer(a, footer(4), &st);
        assert!(cache.footer_resident(a));
        assert!(cache.get_footer(a).is_some());
        assert!(cache.bytes_used() >= footer(4).approx_byte_size());
        // Flood with more footers than fit; someone gets evicted and the
        // owner is charged a footer eviction (a future 3-seek reload).
        let mut ids = vec![a];
        for _ in 0..40 {
            let t = cache.register_tablet();
            cache.insert_footer(t, footer(4), &st);
            ids.push(t);
        }
        assert!(cache.bytes_used() <= cache.capacity());
        assert!(st.snapshot().footer_evictions > 0);
        assert!(ids.iter().any(|&t| !cache.footer_resident(t)));
        // A footer larger than the shard's whole slice is refused, every
        // time it is offered: each refusal is a reload, counted like one.
        let big = cache.register_tablet();
        let huge = footer(200);
        assert!(huge.approx_byte_size() > cache.capacity());
        let (before, used) = (st.snapshot().footer_evictions, cache.bytes_used());
        for offered in 1..=2 {
            cache.insert_footer(big, huge.clone(), &st);
            assert!(!cache.footer_resident(big));
            assert_eq!(st.snapshot().footer_evictions, before + offered);
        }
        assert_eq!(cache.bytes_used(), used, "a refusal evicts nothing");
    }

    #[test]
    fn invalidate_tablet_removes_only_that_tablet() {
        let cache = BlockCache::new(1 << 20, 1 << 20, 2);
        let st = stats();
        let (a, b) = (cache.register_tablet(), cache.register_tablet());
        for i in 0..8u32 {
            cache.insert(a, i, block_of_size(500), Some(compressed_of_size(100)), &st);
            cache.insert(b, i, block_of_size(500), Some(compressed_of_size(100)), &st);
        }
        cache.insert_compressed((a, 100), compressed_of_size(100), &st);
        cache.insert_compressed((b, 100), compressed_of_size(100), &st);
        cache.invalidate_tablet(a);
        for i in 0..8u32 {
            assert!(cache.get(a, i).is_none());
            assert!(cache.get(b, i).is_some());
        }
        assert!(cache.take_compressed(a, 100).is_none());
        assert!(cache.take_compressed(b, 100).is_some());
        // Invalidation is not an eviction.
        assert_eq!(st.snapshot().cache_evicted_bytes, 0);
        assert_eq!(st.snapshot().footer_evictions, 0);
    }

    #[test]
    fn zero_capacity_admits_nothing() {
        let cache = BlockCache::new(0, 0, 0);
        let st = stats();
        let tid = cache.register_tablet();
        cache.insert(
            tid,
            0,
            block_of_size(100),
            Some(compressed_of_size(50)),
            &st,
        );
        assert_eq!(cache.entry_count(), 0);
        assert_eq!(cache.compressed_entry_count(), 0);
        assert!(cache.get(tid, 0).is_none());
    }

    #[test]
    fn static_cache_keeps_no_ghosts_and_never_rebalances() {
        let cache = BlockCache::new(2500, 0, 1);
        let st = stats();
        let tid = cache.register_tablet();
        for i in 0..8u32 {
            cache.insert(tid, i, block_of_size(1000), None, &st);
        }
        // Re-read everything through the full path (upper lookup, then
        // lower); misses on evicted blocks must not register ghost hits
        // because the static cache remembers nothing.
        for i in 0..8u32 {
            if cache.get(tid, i).is_none() {
                let _ = cache.take_compressed(tid, i);
            }
        }
        assert_eq!(cache.ghost_hits_decompressed(), 0);
        assert_eq!(cache.ghost_hits_compressed(), 0);
        assert!(!cache.rebalance());
        assert_eq!(cache.rebalance_count(), 0);
    }

    #[test]
    fn ghost_votes_resolve_by_serving_tier() {
        // Adaptive, 128 kB joint budget, 1 shard; upper slice gets most.
        let cache = BlockCache::new_adaptive(128 << 10, 0.25, 1);
        assert!(cache.is_adaptive());
        let st = stats();
        let tid = cache.register_tablet();
        // Stream blocks carrying compressed forms: upper evictions demote
        // into the lower tier, whose own evictions ghost in turn. The
        // oldest keys end up in neither tier, a middle band compressed
        // only, the newest decompressed.
        for i in 0..256u32 {
            cache.insert(
                tid,
                i,
                block_of_size(1000),
                Some(compressed_of_size(400)),
                &st,
            );
        }
        // Re-read every key the way the tablet reader does: upper lookup
        // first, lower only on an upper miss.
        for i in 0..256u32 {
            if cache.get(tid, i).is_none() {
                let _ = cache.take_compressed(tid, i);
            }
        }
        assert!(
            cache.ghost_hits_decompressed() > 0,
            "lower-served re-reads of upper-ghosted blocks must vote upper"
        );
        assert!(
            cache.ghost_hits_compressed() > 0,
            "disk-bound re-reads of lower-ghosted blocks must vote lower"
        );
        // Votes consume their ghost entry: repeating the oldest key's
        // full miss does not vote again.
        let upper_votes = cache.ghost_hits_decompressed();
        let lower_votes = cache.ghost_hits_compressed();
        assert!(cache.get(tid, 0).is_none());
        assert!(cache.take_compressed(tid, 0).is_none());
        assert_eq!(cache.ghost_hits_decompressed(), upper_votes);
        assert_eq!(cache.ghost_hits_compressed(), lower_votes);
    }

    #[test]
    fn rebalance_moves_budget_toward_demand_within_floors() {
        let cache = BlockCache::new_adaptive(256 << 10, 0.5, 1);
        let joint = cache.capacity();
        let st = stats();
        let tid = cache.register_tablet();
        // One-sided upper demand: every block's compressed form is small
        // enough that the lower tier holds all demotions (so nothing ever
        // ghosts there), while re-reads served compressed vote upper.
        let press = |cache: &BlockCache| {
            for i in 0..512u32 {
                cache.insert(
                    tid,
                    i,
                    block_of_size(1000),
                    Some(compressed_of_size(200)),
                    &st,
                );
            }
            for i in 0..512u32 {
                if cache.get(tid, i).is_none() {
                    let _ = cache.take_compressed(tid, i);
                }
            }
        };
        press(&cache);
        assert!(cache.ghost_hits_decompressed() > 0);
        assert_eq!(cache.ghost_hits_compressed(), 0);
        let before = cache.decompressed_capacity();
        assert!(cache.rebalance(), "one-sided demand must move budget");
        assert!(cache.decompressed_capacity() > before);
        assert_eq!(
            cache.decompressed_capacity() + cache.compressed_capacity(),
            joint,
            "joint budget is invariant"
        );
        assert_eq!(cache.rebalance_count(), 1);
        // No new signal since: the next rebalance is a no-op.
        assert!(!cache.rebalance());
        // Keep pressing one-sided demand; the split converges at the
        // loser's floor instead of starving it to zero.
        for _ in 0..64 {
            press(&cache);
            cache.rebalance();
        }
        let floor = joint / 8;
        assert!(cache.compressed_capacity() >= floor);
        assert!(cache.bytes_used() <= cache.capacity());
    }

    #[test]
    fn rebalance_shrinking_upper_demotes_into_lower() {
        let cache = BlockCache::new_adaptive(256 << 10, 0.25, 1);
        let st = stats();
        let tid = cache.register_tablet();
        // Pin a resident working set in the upper tier (with compressed
        // forms, so a later trim has something to demote). It fits the
        // initial upper slice, so it generates no ghost traffic itself.
        for i in 0..64u32 {
            cache.insert(
                tid,
                i,
                block_of_size(1000),
                Some(compressed_of_size(400)),
                &st,
            );
        }
        let upper_used_before = cache.decompressed_bytes_used();
        // One-sided lower demand: churn compressed-only entries through
        // the lower tier until repeated rebalances shrink the upper slice
        // below its resident bytes.
        for _ in 0..6 {
            for i in 0..512u32 {
                cache.insert_compressed((tid, 1_000 + i), compressed_of_size(400), &st);
            }
            for i in 0..512u32 {
                let _ = cache.take_compressed(tid, 1_000 + i);
            }
            cache.rebalance();
        }
        assert!(cache.ghost_hits_compressed() > 0);
        assert!(cache.rebalance_count() > 0);
        assert!(
            cache.decompressed_capacity() < upper_used_before,
            "lower demand must shrink the upper slice below its old residency"
        );
        // The trim demoted pinned blocks' compressed forms down rather
        // than dropping them.
        assert!(
            (0..64u32).any(|i| cache.take_compressed(tid, i).is_some()),
            "shrinking the upper tier must demote evicted blocks' compressed forms"
        );
        assert!(cache.decompressed_bytes_used() <= cache.decompressed_capacity());
        assert!(cache.bytes_used() <= cache.capacity());
    }

    #[test]
    fn adaptive_split_clamps_to_tier_floors() {
        let cache = BlockCache::new_adaptive(256 << 10, 0.0, 1);
        let joint = cache.capacity();
        assert!(
            cache.compressed_capacity() >= joint / 8,
            "a zero initial fraction must still leave the lower tier its floor slice"
        );
        let cache = BlockCache::new_adaptive(256 << 10, 1.0, 1);
        assert!(cache.decompressed_capacity() >= joint / 8);
    }

    #[test]
    fn concurrent_inserts_never_exceed_budget() {
        let cache = Arc::new(BlockCache::new(64 << 10, 16 << 10, 4));
        let st = stats();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = cache.clone();
            let st = st.clone();
            handles.push(std::thread::spawn(move || {
                let tid = cache.register_tablet();
                for i in 0..200u32 {
                    cache.insert(
                        tid,
                        i,
                        block_of_size(1000),
                        Some(compressed_of_size(250)),
                        &st,
                    );
                    let _ = cache.get(tid, i.wrapping_sub(t as u32));
                    assert!(cache.bytes_used() <= cache.capacity());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.bytes_used() <= cache.capacity());
    }
}
