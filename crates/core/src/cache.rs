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
//!   serve reads.
//! * The **lower (compressed) tier** holds the *compressed* bytes of
//!   blocks evicted from the upper tier, of blocks read ahead of a miss,
//!   and of blocks a rewrite inherits (below). A re-read of such a
//!   block costs one decompress (~tens of µs) instead of a disk seek
//!   (~10 ms on the paper's drive), the read-amplification-vs-memory
//!   tradeoff of the LSM literature. The two tiers are *exclusive*:
//!   promotion moves an entry up, eviction demotes it down, so no block
//!   is charged twice (but for the readahead race below).
//!
//! Cached [`TabletFooter`]s live beside the upper tier and are paid for
//! out of its budget — folding the paper's "footers cached almost
//! indefinitely" into a bounded budget instead of pinning one footer per
//! reader forever. They sit in one unsharded CLOCK of their own, charged
//! to the cache as a whole: their resident bytes come off every upper
//! shard's slice in equal parts, up to half the upper tier, so a footer
//! is refused only when it alone exceeds that half — not, as when footers
//! hashed to a shard like blocks, whenever it exceeded one shard's slice.
//! A cache of capacity 0 (`block_cache_bytes = 0`, and every standalone
//! reader's own) admits no block and pins every footer until its tablet
//! leaves: the paper's behaviour, on the one read path.
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
//! * **Scan-resistant admission.** Only the block read path
//!   ([`crate::tablet::TabletReader::read_block`]) admits, promotes or
//!   marks blocks. The ~1 MB buffered run reads that merges, bulk
//!   rewrites and rollup folds use (§3.4.1,
//!   [`crate::tablet::TabletReader::read_block_run`]) only observe it:
//!   before a run goes to disk, a block resident in either tier is taken
//!   from there (`BlockCache::peek_block`: no reference bit set, nothing
//!   promoted or admitted, no hit or miss counted), and the blocks read
//!   from disk are admitted nowhere. So a full-table merge pass cannot
//!   wipe out the hot set the way it would with admit-everything caching,
//!   nor reorder its eviction, yet reads none of it from disk. Every tablet
//!   written (flush, merge, bulk-delete rewrite) enters its footer as it
//!   is finished, the one a first query would otherwise load from disk.
//! * **Rewrites inherit residency.** Before a merge or a bulk delete
//!   writes anything, it asks whether any block of the tablets it
//!   replaces is resident in either tier (`BlockCache::peek_footer` and
//!   `BlockCache::peek_block`, which observe only: no reference bit
//!   set, nothing read from disk). If one is, each block it writes is
//!   offered to the lower tier under the new tablet's id as it is
//!   appended. A flush inherits nothing, nor does a rewrite of tablets
//!   nobody read, so cold merges admit no block.
//! * **Four ways in, two of them into free space only.** A block enters
//!   on a miss, on a demotion from the upper tier, by readahead and by a
//!   rewrite. A block miss reads the blocks after the missed one in the
//!   same disk access — while the cache has room for the whole read, and
//!   each of them is resident already or fits in free space in its
//!   lower-tier shard (`BlockCache::may_read_ahead`). Those blocks, and
//!   those a rewrite inherits, go through
//!   `BlockCache::admit_into_free_space`: it takes free space in the
//!   block's lower-tier shard and nothing else — it never evicts, and
//!   skips a block resident in either tier — so a full cache of hot
//!   blocks is left exactly as it was. A miss on the same block racing a
//!   readahead admission can leave it in both tiers for a while; that is
//!   harmless (both copies are the same bytes), and the demotion that
//!   would duplicate it finds the lower copy and drops its own.
//! * **Write-once keys.** Tablet ids are allocated once per
//!   [`crate::tablet::TabletReader`] and never reused, so an entry can
//!   never alias a different tablet's data. When a reader is dropped
//!   (merge, TTL expiry, bulk delete, table drop), its entries — both
//!   tiers and the footer — are invalidated. A writer admits its footer,
//!   and the blocks it inherits, under the id of the reader its tablet
//!   will be served through, built before the first byte is written, so
//!   a write that fails drops that reader and anything admitted with it.
//! * **Key order.** Invalidation frees a tablet's slots in key order, not
//!   in its `HashMap`'s per-process hash order: the freed slots are
//!   reused, and the CLOCK hand meets entries in slot order.
//!
//! Locks are held only for map and slab bookkeeping — never across disk
//! reads or decompression, and never one shard inside another (demotions
//! gather their victims under the upper-tier lock, then insert them into
//! the lower tier after releasing it). The one nesting is a footer's
//! admission, which holds the footer lock while it trims each upper shard
//! to its reduced slice; no path takes the footer lock under a shard's.
//! Concurrent misses on the same block may both decompress it; the second
//! insert is dropped, which wastes a little CPU once but never blocks a
//! reader behind another reader's I/O.

use crate::block::Block;
use crate::stats::TableStats;
use crate::tablet::TabletFooter;
use parking_lot::Mutex;
use std::collections::HashMap;
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

/// Cache key: a never-reused tablet id plus the block's index within it.
type BlockKey = (u64, u32);

/// The compressed on-disk form of a block, retained so an eviction from
/// the decompressed tier can be demoted instead of discarded.
#[derive(Clone)]
pub struct CompressedBlock {
    /// The block's compressed bytes, exactly as stored on disk.
    pub bytes: Arc<[u8]>,
    /// Decompressed size, needed to decompress on promotion.
    pub uncompressed_len: u32,
}

/// A block resident in the cache, as [`BlockCache::peek_block`] finds it.
pub(crate) enum Resident {
    /// The upper tier's decompressed block.
    Decoded(Arc<Block>),
    /// The lower tier's compressed bytes, checked on their way in.
    Compressed(CompressedBlock),
}

/// Value held by an upper-tier slot: a hot decompressed block with its
/// compressed form kept for demotion.
struct HotBlock {
    block: Arc<Block>,
    compressed: Option<CompressedBlock>,
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
}

impl<V> Default for TierInner<V> {
    fn default() -> Self {
        TierInner {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            bytes: 0,
            hand: 0,
        }
    }
}

impl<V> TierInner<V> {
    /// The entry under `key`, marked recently used.
    fn touch(&mut self, key: &BlockKey) -> Option<&V> {
        let &idx = self.map.get(key)?;
        let slot = self.slots[idx].as_mut().expect("map points at live slot");
        slot.referenced = true;
        Some(&slot.value)
    }

    /// Evicts unreferenced entries (second-chance order) until `need`
    /// more bytes fit under `capacity`, pushing victims onto `victims`
    /// for the caller to account (and possibly demote) outside the shard
    /// lock. Returns false when impossible.
    fn evict_until_fits(
        &mut self,
        need: usize,
        capacity: usize,
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

    /// The entry under `key`, its reference bit left as it was.
    fn peek(&self, key: &BlockKey) -> Option<&V> {
        let &idx = self.map.get(key)?;
        self.slots[idx].as_ref().map(|slot| &slot.value)
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

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            inner: Mutex::new(TierInner::default()),
            bytes: AtomicUsize::new(0),
        }
    }
}

impl<V> Shard<V> {
    /// Drops every entry of `tablet_id`, in key order (module doc), with
    /// no eviction accounting.
    fn remove_tablet(&self, tablet_id: u64) {
        let mut inner = self.inner.lock();
        let mut keys: Vec<BlockKey> = inner
            .map
            .keys()
            .filter(|k| k.0 == tablet_id)
            .copied()
            .collect();
        keys.sort_unstable();
        for key in keys {
            inner.remove_key(&key);
        }
        self.bytes.store(inner.bytes, Ordering::Relaxed);
    }
}

fn make_shards<V>(n: usize) -> Box<[Shard<V>]> {
    (0..n).map(|_| Shard::default()).collect()
}

/// The sharded, scan-resistant, two-tier block-and-footer cache. One
/// instance is shared by every table of a [`crate::db::Db`].
pub struct BlockCache {
    /// Decompressed blocks.
    upper: Box<[Shard<HotBlock>]>,
    /// Compressed bytes of blocks demoted from the upper tier.
    lower: Box<[Shard<CompressedBlock>]>,
    /// Tablet footers, keyed `(tablet id, 0)`. Its `bytes` mirror is what
    /// the upper shards leave free: written only under the footer lock —
    /// raised before the shards are trimmed for an admission, lowered
    /// after a footer has left — and read by a block's admission under
    /// its shard's lock. `Relaxed` is enough: an admission that takes a
    /// shard's lock after the trim released it sees the raised value
    /// through that mutex, and one that took it before is trimmed.
    footers: Shard<Arc<TabletFooter>>,
    /// Per-shard tier slices, fixed at construction. Each shard enforces
    /// both under its lock, so the cache never grows past their sum.
    upper_shard_capacity: usize,
    lower_shard_capacity: usize,
    shard_mask: u64,
    next_tablet_id: AtomicU64,
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
        BlockCache {
            upper: make_shards(shards),
            lower: make_shards(shards),
            footers: Shard::default(),
            upper_shard_capacity: decompressed_bytes / shards,
            lower_shard_capacity: compressed_bytes / shards,
            shard_mask: shards as u64 - 1,
            next_tablet_id: AtomicU64::new(1),
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

    /// One upper shard's slice once the resident footers' bytes have
    /// come off every shard in equal parts. The footers' cap keeps the
    /// deduction to at most half the slice, except in a zero-capacity
    /// cache, whose slice stays 0 under any footers.
    fn upper_slice(&self) -> usize {
        let footer_bytes = self.footers.bytes.load(Ordering::Relaxed);
        self.upper_shard_capacity
            .saturating_sub(footer_bytes.div_ceil(self.upper.len()))
    }

    /// Looks up a decompressed block, marking it recently used on a hit.
    pub fn get(&self, tablet_id: u64, block_index: u32) -> Option<Arc<Block>> {
        let key = (tablet_id, block_index);
        let shard = &self.upper[self.shard_idx(key)];
        let mut inner = shard.inner.lock();
        inner.touch(&key).map(|hot| hot.block.clone())
    }

    /// Removes and returns a block's compressed bytes from the lower
    /// tier. The caller decompresses and re-admits the block to the
    /// upper tier (which carries the compressed form along), keeping the
    /// tiers exclusive.
    pub fn take_compressed(&self, tablet_id: u64, block_index: u32) -> Option<CompressedBlock> {
        let key = (tablet_id, block_index);
        let shard = &self.lower[self.shard_idx(key)];
        let mut inner = shard.inner.lock();
        let slot = inner.remove_key(&key)?;
        shard.bytes.store(inner.bytes, Ordering::Relaxed);
        Some(slot.value)
    }

    /// Admits a decompressed block, charged by its decompressed size plus
    /// the retained compressed bytes, evicting colder entries to fit.
    /// Evicted blocks demote their compressed form to the lower tier.
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
        if charge > self.upper_shard_capacity {
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
            if inner.touch(&key).is_some() {
                // Lost a race with another miss on the same block.
            } else if inner.evict_until_fits(charge, self.upper_slice(), &mut victims) {
                // New entries start unreferenced: a block read once and
                // never touched again is the first to go, while anything
                // re-read earns its second chance. This is what makes
                // single-pass traffic that does reach the cache (e.g. a
                // one-off wide query) cheap to absorb.
                inner.insert_slot(Slot {
                    key,
                    value: HotBlock { block, compressed },
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

    /// Admits a tablet footer, evicting colder footers to fit under the
    /// footers' cap (half the upper tier) and trimming every upper shard
    /// to the slice that is left once the footers' bytes have come off
    /// it. A footer larger than the cap is not admitted and will reload
    /// from disk on each use — bounded memory wins over pinning at
    /// pathological sizes. The refusal costs its owner what an eviction
    /// costs, the reload, and is counted as one.
    ///
    /// A cache of capacity 0 has no cap: it pins every footer until its
    /// tablet is invalidated, the paper's "almost indefinitely" (§3.2).
    pub fn insert_footer(
        &self,
        tablet_id: u64,
        footer: Arc<TabletFooter>,
        owner: &Arc<TableStats>,
    ) {
        let key = (tablet_id, 0);
        let charge = footer.approx_byte_size();
        let cap = match self.capacity() {
            0 => usize::MAX,
            _ => self.decompressed_capacity() / 2,
        };
        if charge > cap {
            TableStats::add(&owner.footer_evictions, 1);
            return;
        }
        let mut footers = self.footers.inner.lock();
        if footers.touch(&key).is_some() {
            return;
        }
        // Cannot fail: `charge <= cap`, and an emptied tier holds nothing.
        let mut evicted = Vec::new();
        footers.evict_until_fits(charge, cap, &mut evicted);
        for victim in evicted {
            TableStats::add(&victim.owner.footer_evictions, 1);
        }
        // Reserve the room first, so that no block is admitted into it
        // while the shards are trimmed, then take it.
        self.footers
            .bytes
            .store(footers.bytes + charge, Ordering::Relaxed);
        let slice = self.upper_slice();
        for shard in self.upper.iter() {
            let mut victims = Vec::new();
            {
                let mut inner = shard.inner.lock();
                inner.evict_until_fits(0, slice, &mut victims);
                shard.bytes.store(inner.bytes, Ordering::Relaxed);
            }
            self.settle_upper_victims(victims);
        }
        footers.insert_slot(Slot {
            key,
            value: footer,
            charge,
            owner: owner.clone(),
            referenced: false,
        });
    }

    /// Looks up a cached footer, marking it recently used on a hit.
    pub fn get_footer(&self, tablet_id: u64) -> Option<Arc<TabletFooter>> {
        self.footers.inner.lock().touch(&(tablet_id, 0)).cloned()
    }

    /// True when `tablet_id`'s footer is currently resident, without
    /// touching its reference bit (observation only).
    pub fn footer_resident(&self, tablet_id: u64) -> bool {
        self.footers.inner.lock().map.contains_key(&(tablet_id, 0))
    }

    /// `tablet_id`'s footer if it is resident, its reference bit left as
    /// it was (observation only).
    pub(crate) fn peek_footer(&self, tablet_id: u64) -> Option<Arc<TabletFooter>> {
        self.footers.inner.lock().peek(&(tablet_id, 0)).cloned()
    }

    /// A block as either tier holds it, observation only: no reference
    /// bit set, nothing promoted, no count moved. One shard lock is held
    /// at a time.
    pub(crate) fn peek_block(&self, tablet_id: u64, block_index: u32) -> Option<Resident> {
        let key = (tablet_id, block_index);
        let idx = self.shard_idx(key);
        let (upper, lower) = (&self.upper[idx].inner, &self.lower[idx].inner);
        let decoded = upper.lock().peek(&key).map(|hot| hot.block.clone());
        if let Some(block) = decoded {
            return Some(Resident::Decoded(block));
        }
        let compressed = lower.lock().peek(&key).cloned();
        compressed.map(Resident::Compressed)
    }

    /// Charges upper-tier evictions to their owners and demotes evicted
    /// blocks' compressed bytes into the lower tier. Called after the
    /// upper shard lock is released, so tier locks never nest.
    fn settle_upper_victims(&self, victims: Vec<Slot<HotBlock>>) {
        for victim in victims {
            let HotBlock { block, compressed } = victim.value;
            TableStats::add(&victim.owner.cache_evicted_bytes, block.byte_size() as u64);
            drop(block);
            if let Some(c) = compressed {
                self.insert_compressed(victim.key, c, &victim.owner);
            }
        }
    }

    /// Admits compressed block bytes to the lower tier, evicting colder
    /// compressed entries to fit. Lower-tier evictions leave the cache
    /// for good.
    fn insert_compressed(&self, key: BlockKey, value: CompressedBlock, owner: &Arc<TableStats>) {
        let charge = value.bytes.len();
        if charge > self.lower_shard_capacity {
            return;
        }
        let shard = &self.lower[self.shard_idx(key)];
        let mut inner = shard.inner.lock();
        if inner.touch(&key).is_some() {
            return;
        }
        let mut dropped = Vec::new();
        if inner.evict_until_fits(charge, self.lower_shard_capacity, &mut dropped) {
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

    /// Whether the read of a miss may extend over a block of `len`
    /// compressed bytes: the block is resident in either tier (and will
    /// be skipped), or it fits in the free space of its lower-tier shard.
    pub(crate) fn may_read_ahead(&self, tablet_id: u64, block_index: u32, len: usize) -> bool {
        let lower = &self.lower[self.shard_idx((tablet_id, block_index))];
        self.peek_block(tablet_id, block_index).is_some()
            || lower.inner.lock().bytes + len <= self.lower_shard_capacity
    }

    /// Admits a block's compressed bytes — read ahead of a miss, or
    /// written by a rewrite — into free space in its lower-tier shard
    /// only: it never evicts, and a block already resident in either tier
    /// is skipped. Returns whether the block was admitted.
    pub(crate) fn admit_into_free_space(
        &self,
        tablet_id: u64,
        block_index: u32,
        value: CompressedBlock,
        owner: &Arc<TableStats>,
    ) -> bool {
        let key = (tablet_id, block_index);
        let idx = self.shard_idx(key);
        if self.upper[idx].inner.lock().map.contains_key(&key) {
            return false;
        }
        let charge = value.bytes.len();
        let shard = &self.lower[idx];
        let mut inner = shard.inner.lock();
        if inner.map.contains_key(&key) || inner.bytes + charge > self.lower_shard_capacity {
            return false;
        }
        inner.insert_slot(Slot {
            key,
            value,
            charge,
            owner: owner.clone(),
            referenced: false,
        });
        shard.bytes.store(inner.bytes, Ordering::Relaxed);
        true
    }

    /// Drops every cached entry of `tablet_id` — decompressed blocks,
    /// compressed blocks, and its footer (the tablet's file is being
    /// deleted). Not counted as eviction in the owner's stats.
    pub fn invalidate_tablet(&self, tablet_id: u64) {
        self.upper.iter().for_each(|s| s.remove_tablet(tablet_id));
        self.lower.iter().for_each(|s| s.remove_tablet(tablet_id));
        self.footers.remove_tablet(tablet_id);
    }

    /// Current bytes held across both tiers (decompressed blocks with
    /// their retained compressed forms, footers, and demoted compressed
    /// blocks). Each shard's slice, less its part of the footers' bytes,
    /// is enforced under its lock, so this can never exceed
    /// [`BlockCache::capacity`].
    pub fn bytes_used(&self) -> usize {
        self.decompressed_bytes_used() + self.compressed_bytes_used()
    }

    /// Current upper-tier bytes (decompressed blocks + footers). Read
    /// under the footer lock, so never in the middle of an admission that
    /// has reserved its room but not yet trimmed the shards for it.
    pub fn decompressed_bytes_used(&self) -> usize {
        let footers = self.footers.inner.lock();
        let blocks: usize = self
            .upper
            .iter()
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum();
        blocks + footers.bytes
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
        self.decompressed_capacity() + self.compressed_capacity()
    }

    /// The upper (decompressed + footer) tier's byte budget.
    pub fn decompressed_capacity(&self) -> usize {
        self.upper_shard_capacity * self.upper.len()
    }

    /// The lower (compressed) tier's byte budget.
    pub fn compressed_capacity(&self) -> usize {
        self.lower_shard_capacity * self.lower.len()
    }

    /// Number of upper-tier entries currently cached (blocks + footers).
    pub fn entry_count(&self) -> usize {
        let blocks: usize = self.upper.iter().map(|s| s.inner.lock().map.len()).sum();
        blocks + self.footers.inner.lock().map.len()
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
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// A footer indexing `nblocks` blocks (~100 bytes of charge each).
    fn footer(nblocks: usize) -> Arc<TabletFooter> {
        let schema = Schema::new(
            vec![
                ColumnDef::new("k", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["k", "ts"],
        )
        .unwrap();
        Arc::new(TabletFooter {
            schema,
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
    }

    #[test]
    fn footers_cache_evict_and_count() {
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
        // A footer larger than the footers' cap is refused, every time it
        // is offered: each refusal is a reload, counted like one.
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

    /// Two caches, each of whose maps hashes with its own random state,
    /// given the same inserts, hits, invalidation and evicting inserts,
    /// lay their slots out alike and evict the same blocks: the freed
    /// slots, which the next inserts take, are freed in key order.
    #[test]
    fn caches_with_their_own_hashers_evict_the_same_blocks() {
        let run = || {
            let cache = BlockCache::new(32 * 1200 + 100, 8 * 200 + 50, 1);
            let st = stats();
            let [a, b, c, d] = [(); 4].map(|_| cache.register_tablet());
            let insert = |tid, i| {
                let compressed = Some(compressed_of_size(200));
                cache.insert(tid, i, block_of_size(1000), compressed, &st);
            };
            for i in 0..16 {
                insert(a, i);
                insert(b, i);
            }
            for i in (0..16).step_by(2) {
                assert!(cache.get(b, i).is_some());
            }
            cache.invalidate_tablet(a);
            for i in 0..16 {
                insert(c, i);
            }
            for i in 0..12 {
                insert(d, i);
            }
            assert!(st.snapshot().cache_evicted_bytes > 0);
            (resident(&cache), clocks(&cache))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_capacity_pins_every_footer_and_holds_no_block() {
        let cache = BlockCache::new(0, 0, 0);
        let st = stats();
        let tids: Vec<u64> = (0..3).map(|_| cache.register_tablet()).collect();
        for (&tid, nblocks) in tids.iter().zip([1, 600, 20_000]) {
            cache.insert_footer(tid, footer(nblocks), &st);
            assert!(cache.footer_resident(tid), "{nblocks}-block footer");
            let compressed = Some(compressed_of_size(50));
            cache.insert(tid, 0, block_of_size(100), compressed, &st);
            assert!(cache.get(tid, 0).is_none());
        }
        assert!(tids.iter().all(|&t| cache.footer_resident(t)));
        assert_eq!(cache.entry_count(), tids.len(), "footers only");
        assert_eq!(cache.compressed_entry_count(), 0);
        assert_eq!(st.snapshot().footer_evictions, 0);
        assert_eq!(st.snapshot().cache_evicted_bytes, 0);
        // A pinned footer leaves with its tablet.
        cache.invalidate_tablet(tids[1]);
        assert!(!cache.footer_resident(tids[1]));
        assert!(cache.get_footer(tids[2]).is_some());
    }

    #[test]
    fn footer_over_one_shard_slice_is_cached_and_paid_for_by_every_shard() {
        // Eight 32 kB upper shards; the footer is bigger than any one of
        // them but under the footers' cap of half the tier.
        let cache = BlockCache::new(256 << 10, 128 << 10, 8);
        assert_eq!(cache.upper.len(), 8);
        let big = footer(600);
        let charge = big.approx_byte_size();
        assert!(charge > cache.upper_shard_capacity);
        assert!(charge <= cache.decompressed_capacity() / 2);
        let st = stats();
        // Blocks first, to every shard's full slice.
        let tid = cache.register_tablet();
        for i in 0..400u32 {
            cache.insert(
                tid,
                i,
                block_of_size(1000),
                Some(compressed_of_size(100)),
                &st,
            );
        }
        let blocks_before = cache.entry_count();
        assert!(cache.decompressed_bytes_used() + charge > cache.decompressed_capacity());
        // Admission trims every shard by its part of the footer's bytes:
        // the joint budget holds and the evicted blocks are demoted.
        let f = cache.register_tablet();
        for _ in 0..3 {
            cache.insert_footer(f, big.clone(), &st);
            assert!(cache.footer_resident(f));
            assert!(cache.bytes_used() <= cache.capacity());
        }
        assert_eq!(st.snapshot().footer_evictions, 0);
        assert!(Arc::ptr_eq(&cache.get_footer(f).unwrap(), &big));
        assert!(cache.entry_count() < blocks_before);
        assert!(st.snapshot().cache_evicted_bytes > 0);
        // Blocks keep being admitted, into the slices that are left.
        for i in 400..800u32 {
            cache.insert(tid, i, block_of_size(1000), None, &st);
            assert!(cache.bytes_used() <= cache.capacity());
        }
        assert!(cache.footer_resident(f));
        // More footers than the cap holds: colder ones are evicted and
        // counted, blocks are never squeezed below half their tier.
        for _ in 0..8 {
            cache.insert_footer(cache.register_tablet(), footer(600), &st);
            assert!(cache.bytes_used() <= cache.capacity());
        }
        assert!(st.snapshot().footer_evictions > 0);
        assert!(cache.upper_slice() >= cache.upper_shard_capacity / 2);
        // Dropping a tablet gives its footer's room back to the shards.
        let slice = cache.upper_slice();
        for t in 1..=cache.register_tablet() {
            cache.invalidate_tablet(t);
        }
        assert!(cache.upper_slice() > slice);
        assert_eq!(cache.upper_slice(), cache.upper_shard_capacity);
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn readahead_takes_free_lower_space_only_and_skips_resident_blocks() {
        let cache = BlockCache::new(1 << 20, 4096, 1);
        let st = stats();
        let tid = cache.register_tablet();
        let hot = block_of_size(1000);
        cache.insert(tid, 0, hot, Some(compressed_of_size(200)), &st);
        // Resident blocks: a read may pass over them, and skips them.
        assert!(cache.may_read_ahead(tid, 0, 1 << 20));
        assert!(!cache.admit_into_free_space(tid, 0, compressed_of_size(200), &st));
        assert_eq!(cache.compressed_entry_count(), 0);
        assert!(cache.admit_into_free_space(tid, 1, compressed_of_size(1000), &st));
        assert!(cache.may_read_ahead(tid, 1, 1 << 20));
        assert!(!cache.admit_into_free_space(tid, 1, compressed_of_size(1000), &st));
        assert_eq!(cache.compressed_bytes_used(), 1000);
        assert!(cache.may_read_ahead(tid, 2, 3000));
        assert!(cache.admit_into_free_space(tid, 2, compressed_of_size(3000), &st));
        // 96 bytes left: refused, and nothing made room for it.
        assert!(!cache.may_read_ahead(tid, 3, 200));
        assert!(!cache.admit_into_free_space(tid, 3, compressed_of_size(200), &st));
        assert_eq!(cache.compressed_bytes_used(), 4000);
        assert!(cache.take_compressed(tid, 1).is_some());
        assert!(cache.take_compressed(tid, 2).is_some());
        assert!(cache.get(tid, 0).is_some());
    }

    /// Every resident block key, with its tier (0 upper, 1 lower).
    fn resident(cache: &BlockCache) -> std::collections::BTreeSet<(u8, BlockKey)> {
        let mut keys = std::collections::BTreeSet::new();
        for s in cache.upper.iter() {
            keys.extend(s.inner.lock().map.keys().map(|&k| (0, k)));
        }
        for s in cache.lower.iter() {
            keys.extend(s.inner.lock().map.keys().map(|&k| (1, k)));
        }
        keys
    }

    /// A tablet at `path` of `rows` rows `(k, ts, v)` cut into blocks of
    /// about `block_size` bytes, `v` being `payload(k)`, and a reader of
    /// it through `cache`, its footer loaded.
    fn tablet(
        vfs: &littletable_vfs::SimVfs,
        cache: &Arc<BlockCache>,
        path: &str,
        rows: i64,
        block_size: usize,
        payload: impl Fn(i64) -> Vec<u8>,
    ) -> crate::tablet::TabletReader {
        use crate::tablet::{TabletReader, TabletWriter};
        use littletable_vfs::Vfs;
        let schema = Schema::new(
            vec![
                ColumnDef::new("k", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::Blob),
            ],
            &["k", "ts"],
        )
        .unwrap();
        let file = vfs.create(path, 0).unwrap();
        let mut w = TabletWriter::new(file, schema.clone(), block_size, false);
        for k in 0..rows {
            let row = Row::new(vec![
                Value::I64(k),
                Value::Timestamp(k),
                Value::Blob(payload(k)),
            ]);
            w.add_row(&row.encode_key(&schema).unwrap(), &row).unwrap();
        }
        w.finish().unwrap();
        let (vfs, stats) = (Arc::new(vfs.clone()), stats());
        let reader = TabletReader::with_cache(vfs, path.into(), cache.clone(), stats);
        reader.footer().unwrap();
        reader
    }

    /// Bytes no compressor shrinks.
    fn noise(k: i64, len: usize) -> Vec<u8> {
        let mut x = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn a_full_cache_keeps_a_hot_tables_blocks_and_misses_elsewhere_read_only_their_own_bytes() {
        let vfs = littletable_vfs::SimVfs::instant();
        let cache = Arc::new(BlockCache::new(32 << 10, 16 << 10, 1));
        // Small blocks that compress, read until the cache is full.
        let hot = tablet(&vfs, &cache, "hot.lt", 2000, 1 << 10, |k| {
            vec![(k % 7) as u8; 50]
        });
        for bi in 0..hot.footer().unwrap().blocks.len() {
            hot.read_block(bi).unwrap();
        }
        // Blocks of 20 kB that do not: more than the cache has free, and
        // larger than either tier's slice, so the misses cache nothing.
        let other = tablet(&vfs, &cache, "other.lt", 40, 20 << 10, |k| {
            noise(k, 4 << 10)
        });
        let footer = other.footer().unwrap();
        assert!(footer.blocks.len() > 3);
        let least = footer
            .blocks
            .iter()
            .map(|e| e.compressed_len)
            .min()
            .unwrap() as usize;
        assert!(cache.capacity() - cache.bytes_used() < least);
        let before = resident(&cache);
        assert!(before.iter().any(|(tier, _)| *tier == 1), "{before:?}");
        for bi in 0..3 {
            vfs.clear_caches();
            let read_before = vfs.model().stats().bytes_read;
            other.read_block(bi).unwrap();
            let read = vfs.model().stats().bytes_read - read_before;
            assert_eq!(read, footer.blocks[bi].compressed_len as u64, "block {bi}");
        }
        assert_eq!(resident(&cache), before);
    }

    #[test]
    fn readahead_into_a_nearly_full_lower_tier_takes_its_free_space_and_evicts_nothing() {
        let vfs = littletable_vfs::SimVfs::instant();
        let cache = Arc::new(BlockCache::new(1 << 20, 16 << 10, 1));
        // One miss on the hot table fills the lower tier with what it
        // reads ahead.
        let hot = tablet(&vfs, &cache, "hot.lt", 400, 1 << 10, |k| noise(k, 40));
        hot.read_block(0).unwrap();
        let other = tablet(&vfs, &cache, "other.lt", 2000, 1 << 10, |k| noise(k, 40));
        let footer = other.footer().unwrap();
        let read = |bi: usize| {
            vfs.clear_caches();
            let read_before = vfs.model().stats().bytes_read;
            other.read_block(bi).unwrap();
            vfs.model().stats().bytes_read - read_before
        };
        // With room in the cache as a whole but none in the lower tier for
        // the block after it, a miss reads its own block alone.
        let free = cache.compressed_capacity() - cache.compressed_bytes_used();
        assert!(free < footer.blocks[1].compressed_len as usize, "{free}");
        let full = resident(&cache);
        assert_eq!(read(0), footer.blocks[0].compressed_len as u64);
        assert_eq!(
            cache.compressed_entry_count(),
            full.len() - cache.entry_count() + 3
        );
        // Hits promote hot blocks out of the lower tier again.
        for bi in 1..8 {
            hot.read_block(bi).unwrap();
        }
        let free = cache.compressed_capacity() - cache.compressed_bytes_used();
        assert!((3 << 10..12 << 10).contains(&free), "{free}");
        let hot_blocks = resident(&cache);
        // A read that reaches over blocks each of which fits in the free
        // space, more than all of them do: the free space is taken, and
        // no hot block leaves for it.
        assert!(read(100) > 2 * free as u64);
        let after = resident(&cache);
        assert!(hot_blocks.iter().all(|key| after.contains(key)));
        let hot_lower = hot_blocks.iter().filter(|(tier, _)| *tier == 1).count();
        assert!(cache.compressed_entry_count() > hot_lower);
        assert!(cache.bytes_used() <= cache.capacity());
    }

    #[test]
    fn a_miss_reads_ahead_only_while_the_whole_read_fits_in_the_cache() {
        let vfs = littletable_vfs::SimVfs::instant();
        let cache = Arc::new(BlockCache::new(16 << 10, 16 << 10, 1));
        let t = tablet(&vfs, &cache, "t.lt", 200, 1 << 10, |k| noise(k, 40));
        let footer = t.footer().unwrap();
        let (first, next) = (
            footer.blocks[0].compressed_len,
            footer.blocks[1].compressed_len,
        );
        // The upper tier full to the byte; the lower tier with room for
        // the block after the missed one, not for both.
        let st = stats();
        let other = cache.register_tablet();
        cache.insert(other, 0, block_of_size(cache.upper_slice()), None, &st);
        assert!(t.footer_cached() && cache.get(other, 0).is_some());
        let free = (first + next) as usize - 1;
        assert!(free >= next as usize);
        cache.insert_compressed((other, 1), compressed_of_size((16 << 10) - free), &st);
        assert_eq!(cache.capacity() - cache.bytes_used(), free);
        vfs.clear_caches();
        let read_before = vfs.model().stats().bytes_read;
        t.read_block(0).unwrap();
        assert_eq!(vfs.model().stats().bytes_read - read_before, first as u64);
    }

    /// A CLOCK's hand and, slot by slot, its key and reference bit: all
    /// that decides which entry it evicts next.
    pub(crate) type Clock = (usize, Vec<Option<(BlockKey, bool)>>);

    /// Every CLOCK of the cache: each tier's shards, then the footers'.
    pub(crate) fn clocks(cache: &BlockCache) -> Vec<Clock> {
        fn clock<V>(shard: &Shard<V>) -> Clock {
            let inner = shard.inner.lock();
            let slots = inner.slots.iter();
            let bits = slots.map(|s| s.as_ref().map(|s| (s.key, s.referenced)));
            (inner.hand, bits.collect())
        }
        let upper = cache.upper.iter().map(clock);
        let lower = cache.lower.iter().map(clock);
        upper.chain(lower).chain([clock(&cache.footers)]).collect()
    }

    #[test]
    fn checking_residency_leaves_every_clock_as_it_was() {
        use crate::tablet::TabletReader;
        let vfs = littletable_vfs::SimVfs::instant();
        let cache = Arc::new(BlockCache::new(64 << 10, 16 << 10, 1));
        let st = stats();
        // Another tablet's footer and block first, then the tablet's: the
        // hand, at slot 0, reaches the tablet's entries first.
        let other = cache.register_tablet();
        cache.insert_footer(other, footer(4), &st);
        cache.insert(other, 0, block_of_size(1000), None, &st);
        let t = tablet(&vfs, &cache, "t.lt", 400, 1 << 10, |k| noise(k, 40));
        t.read_block(0).unwrap();
        let tid = t.cache_id();
        assert!(cache.compressed_entry_count() > 0 && cache.peek_block(tid, 0).is_some());
        let before = clocks(&cache);
        let read = vfs.model().stats().bytes_read;
        assert!(t.has_resident_block());
        // A reader whose footer is not cached has none, and is not read
        // from.
        let unread = TabletReader::with_cache(
            Arc::new(vfs.clone()),
            "t.lt".into(),
            cache.clone(),
            st.clone(),
        );
        assert!(!unread.has_resident_block());
        assert!(!unread.footer_cached());
        assert_eq!(vfs.model().stats().bytes_read, read);
        assert_eq!(clocks(&cache), before);
        // So the next eviction takes the entry it would have taken: the
        // tablet's block 0, down to the lower tier.
        let used = cache.upper[0].bytes.load(Ordering::Relaxed);
        let fill = cache.upper_slice() - used + 1;
        cache.insert(other, 1, block_of_size(fill), None, &st);
        let upper = cache.upper[0].inner.lock();
        assert!(!upper.map.contains_key(&(tid, 0)));
        assert!(upper.map.contains_key(&(other, 0)));
    }

    #[test]
    fn peeking_finds_a_block_in_either_tier_and_leaves_every_clock_as_it_was() {
        let cache = BlockCache::new(64 << 10, 16 << 10, 1);
        let st = stats();
        let tid = cache.register_tablet();
        let hot = block_of_size(1000);
        cache.insert(tid, 0, hot.clone(), None, &st);
        let cold = compressed_of_size(500);
        assert!(cache.admit_into_free_space(tid, 1, cold.clone(), &st));
        let (before, used) = (clocks(&cache), cache.bytes_used());
        let upper = cache.peek_block(tid, 0);
        assert!(matches!(upper, Some(Resident::Decoded(b)) if Arc::ptr_eq(&b, &hot)));
        let lower = cache.peek_block(tid, 1);
        assert!(
            matches!(lower, Some(Resident::Compressed(c)) if Arc::ptr_eq(&c.bytes, &cold.bytes))
        );
        assert!(cache.peek_block(tid, 2).is_none());
        // Nothing was marked, promoted or admitted.
        assert_eq!(clocks(&cache), before);
        assert_eq!(cache.bytes_used(), used);
        assert_eq!(
            (cache.entry_count(), cache.compressed_entry_count()),
            (1, 1)
        );
    }

    #[test]
    fn second_query_reads_no_footer_bytes_when_footer_exceeds_a_shard_slice() {
        use crate::db::Db;
        use crate::options::Options;
        use crate::query::Query;
        use littletable_vfs::{DiskParams, SimClock, SimVfs};

        let clock = SimClock::new(1_700_000_000_000_000);
        let vfs = SimVfs::new(DiskParams::paper_disk(), clock.clone());
        let opts = Options {
            // 1 kB blocks make a footer of a few hundred index entries out
            // of one small tablet; 640 kB is the least budget that keeps
            // eight shards.
            block_size: 1 << 10,
            flush_size: 4 << 20,
            block_cache_bytes: 640 << 10,
            block_cache_shards: 8,
            ..Options::small_for_tests()
        };
        let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock), opts).unwrap();
        let schema = Schema::new(
            vec![
                ColumnDef::new("k", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::Blob),
            ],
            &["k", "ts"],
        )
        .unwrap();
        let table = db.create_table("t", schema, None).unwrap();
        let rows = (0..4000i64)
            .map(|i| {
                vec![
                    Value::I64(i),
                    Value::Timestamp(1_700_000_000_000_000 + i),
                    Value::Blob(vec![(i % 251) as u8; 100]),
                ]
            })
            .collect();
        table.insert(rows).unwrap();
        table.flush_all().unwrap();
        let cache = db.block_cache();
        assert_eq!(cache.upper.len(), 8);
        let tablets = table.unfolded_tablets(true);
        assert_eq!(tablets.len(), 1);
        let reader = &tablets[0].1;
        let charge = reader.footer().unwrap().approx_byte_size();
        assert!(charge > cache.upper_shard_capacity, "footer {charge} B");
        assert!(charge <= cache.decompressed_capacity() / 2);

        let q = Query::all().with_prefix(vec![Value::I64(2000)]);
        assert_eq!(table.query_all(&q).unwrap().len(), 1);
        assert!(reader.footer_cached());
        // Only the engine's cache can make the repeats free.
        vfs.clear_caches();
        let read_after_first = vfs.model().stats().bytes_read;
        for _ in 0..3 {
            assert_eq!(table.query_all(&q).unwrap().len(), 1);
        }
        assert_eq!(vfs.model().stats().bytes_read, read_after_first);
        assert_eq!(table.stats().snapshot().footer_evictions, 0);
        assert!(cache.bytes_used() <= cache.capacity());
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
                    // Footers come and go beside the blocks: admissions
                    // (the cap holds a few of these) and invalidations.
                    if i % 8 == t as u32 {
                        let f = cache.register_tablet();
                        cache.insert_footer(f, footer(80), &st);
                        assert!(cache.bytes_used() <= cache.capacity());
                        if i % 16 == t as u32 {
                            cache.invalidate_tablet(f);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.bytes_used() <= cache.capacity());
    }
}
