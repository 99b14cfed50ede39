//! Client-side shard placement for a LittleTable fleet (§2.2, §3.5).
//!
//! The paper runs one LittleTable per shard and makes *clients*
//! responsible for placement: each row's first key column picks a shard,
//! every shard has a primary node and a warm spare, and on primary death
//! the client simply starts talking to the spare. There is no consensus
//! protocol — the shard map is small, changes rarely, and an out-of-date
//! client is corrected by the server's `NotPrimary` fence.
//!
//! Placement uses rendezvous (highest-random-weight) hashing: every
//! `(key, shard)` pair gets a deterministic pseudo-random score and the
//! key lives on the highest-scoring shard. Unlike `hash % n`, growing
//! the fleet from `n` to `n + 1` shards remaps only ~`1/(n+1)` of keys.
//!
//! [`Backoff`] is the retry schedule clients use while a failover is in
//! progress: bounded exponential, deterministic (no jitter — tests and
//! the simulated fleet need replayability; real deployments can add
//! jitter on top).

use std::time::Duration;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer. The
/// same mixer drives the VFS fault injector, so fleet tests are
/// deterministic end to end.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a key's bytes to a 64-bit value by folding 8-byte chunks
/// through the mixer. Deterministic across platforms and runs.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x5151_5151_5151_5151;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(word));
    }
    splitmix64(h ^ bytes.len() as u64)
}

/// Picks the shard owning `key` among `shards` shards by rendezvous
/// hashing. `key` is any stable byte encoding of the row's first key
/// column (e.g. [`littletable_core::row::Row::encode_key`] of the
/// prefix). Panics if `shards == 0`.
pub fn shard_for(key: &[u8], shards: u32) -> u32 {
    assert!(shards > 0, "shard_for on an empty fleet");
    let kh = hash_bytes(key);
    let mut best = 0u32;
    let mut best_score = 0u64;
    for s in 0..shards {
        let score = splitmix64(kh ^ splitmix64(u64::from(s) + 1));
        if s == 0 || score > best_score {
            best = s;
            best_score = score;
        }
    }
    best
}

/// One shard's replica pair: who is primary, who is the warm spare, and
/// the failover epoch. The epoch increments on every role change so a
/// client can tell a stale map from a fresh one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRoute {
    /// Shard index this route describes.
    pub shard: u32,
    /// Node id currently accepting writes.
    pub primary: u64,
    /// Node id holding the warm archive copy.
    pub spare: u64,
    /// Monotonic count of role changes on this shard.
    pub epoch: u64,
}

/// The client's view of the fleet: one [`ShardRoute`] per shard.
///
/// Clients key their routing decisions off this map and refresh it when
/// a request bounces with `NotPrimary` or the primary stops answering.
#[derive(Debug, Clone)]
pub struct ShardMap {
    routes: Vec<ShardRoute>,
}

impl ShardMap {
    /// Builds a map from `(primary, spare)` node-id pairs, one per
    /// shard, all starting at epoch 0.
    pub fn new(assignments: Vec<(u64, u64)>) -> ShardMap {
        let routes = assignments
            .into_iter()
            .enumerate()
            .map(|(i, (primary, spare))| ShardRoute {
                shard: i as u32,
                primary,
                spare,
                epoch: 0,
            })
            .collect();
        ShardMap { routes }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.routes.len() as u32
    }

    /// The route for `shard`. Panics on an out-of-range shard.
    pub fn route(&self, shard: u32) -> &ShardRoute {
        &self.routes[shard as usize]
    }

    /// The shard owning `key` (rendezvous hash over this map's shard
    /// count).
    pub fn shard_for_key(&self, key: &[u8]) -> u32 {
        shard_for(key, self.shards())
    }

    /// Fails `shard` over: the spare becomes primary, the dead primary
    /// becomes the (stale) spare, and the epoch increments. Returns the
    /// new epoch. The demoted node keeps its slot so a later failback
    /// can swap the pair again.
    pub fn promote(&mut self, shard: u32) -> u64 {
        let r = &mut self.routes[shard as usize];
        std::mem::swap(&mut r.primary, &mut r.spare);
        r.epoch += 1;
        r.epoch
    }
}

/// Bounded exponential backoff: `base, 2*base, 4*base, ...` capped at
/// `max`, for at most `attempts` tries. Deterministic by design.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    attempts: u32,
    used: u32,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per try, never exceeding
    /// `max`, and giving up after `attempts` tries.
    pub fn new(base: Duration, max: Duration, attempts: u32) -> Backoff {
        Backoff {
            base,
            max,
            attempts,
            used: 0,
        }
    }

    /// The next delay to sleep before retrying, or `None` when the
    /// budget is exhausted and the error should surface to the caller.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.used >= self.attempts {
            return None;
        }
        let exp = self.used.min(20);
        self.used += 1;
        Some(self.base.saturating_mul(1u32 << exp).min(self.max))
    }

    /// Tries consumed so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Resets the schedule after a success.
    pub fn reset(&mut self) {
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_spreads_keys_evenly() {
        let shards = 5u32;
        let mut counts = vec![0usize; shards as usize];
        for i in 0..10_000u64 {
            let key = i.to_be_bytes();
            counts[shard_for(&key, shards) as usize] += 1;
        }
        // Each shard should hold roughly 2000 keys; allow ±25%.
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (1500..=2500).contains(&c),
                "shard {s} got {c} of 10000 keys"
            );
        }
    }

    #[test]
    fn rendezvous_is_deterministic_and_stable() {
        for i in 0..100u64 {
            let key = i.to_be_bytes();
            assert_eq!(shard_for(&key, 7), shard_for(&key, 7));
        }
    }

    #[test]
    fn growing_the_fleet_remaps_few_keys() {
        let n = 8u32;
        let total = 10_000u64;
        let moved = (0..total)
            .filter(|i| {
                let key = i.to_be_bytes();
                shard_for(&key, n) != shard_for(&key, n + 1)
            })
            .count();
        // Ideal is total/(n+1) ≈ 1111; `hash % n` would move ~8/9 of
        // them. Require well under half to prove minimal remapping.
        assert!(moved < 2000, "{moved} of {total} keys moved");
        // And every moved key must land on the new shard.
        for i in 0..total {
            let key = i.to_be_bytes();
            if shard_for(&key, n) != shard_for(&key, n + 1) {
                assert_eq!(shard_for(&key, n + 1), n);
            }
        }
    }

    #[test]
    fn promote_swaps_roles_and_bumps_epoch() {
        let mut map = ShardMap::new(vec![(10, 11), (20, 21), (30, 31)]);
        assert_eq!(map.shards(), 3);
        assert_eq!(map.route(1).primary, 20);
        assert_eq!(map.route(1).epoch, 0);
        assert_eq!(map.promote(1), 1);
        assert_eq!(map.route(1).primary, 21);
        assert_eq!(map.route(1).spare, 20);
        // Other shards are untouched.
        assert_eq!(map.route(0).primary, 10);
        assert_eq!(map.route(0).epoch, 0);
        // Failback swaps again at a higher epoch.
        assert_eq!(map.promote(1), 2);
        assert_eq!(map.route(1).primary, 20);
        assert_eq!(map.route(1).spare, 21);
    }

    #[test]
    fn backoff_doubles_caps_and_exhausts() {
        let mut b = Backoff::new(Duration::from_millis(2), Duration::from_millis(10), 5);
        let delays: Vec<u64> = std::iter::from_fn(|| b.next_delay())
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![2, 4, 8, 10, 10]);
        assert_eq!(b.next_delay(), None);
        b.reset();
        assert_eq!(b.next_delay(), Some(Duration::from_millis(2)));
    }
}
