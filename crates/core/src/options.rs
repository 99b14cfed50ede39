//! Engine tuning options.

use littletable_vfs::Micros;

/// Tuning knobs for a [`crate::db::Db`]. Defaults are the paper's
/// production settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Flush an in-memory tablet once it holds this many bytes (16 MB:
    /// large enough to sustain ~95% of a spinning disk's peak write rate,
    /// §3.3).
    pub flush_size: usize,
    /// Flush an in-memory tablet no later than this long after its first
    /// insert (10 minutes), bounding data lost in a crash (§3.4.1).
    pub flush_age: Micros,
    /// Uncompressed tablet block size (64 kB, §3.2).
    pub block_size: usize,
    /// Maximum merged tablet size (128 MB, §5.1.3).
    pub max_tablet_size: u64,
    /// Wait this long after a tablet is written before merging it (90 s,
    /// §5.1.3), maximizing the tablets available to any one merge.
    pub merge_delay: Micros,
    /// Master switch for background merging (ablation).
    pub merge_enabled: bool,
    /// Bin in-memory tablets and bound merges by time period (§3.4.2);
    /// disabling is the clustering ablation.
    pub respect_periods: bool,
    /// Store Bloom filters in the footers of tablets written from now on
    /// (§3.4.5 extension). Readers consult whatever filter a footer has.
    pub bloom_filters: bool,
    /// Use the descriptor/index fast paths for insert-time uniqueness
    /// checks (§3.4.4); disabling forces the point-query slow path.
    pub uniqueness_fast_paths: bool,
    /// The server's own cap on rows returned per query; results that hit
    /// it carry a `more_available` flag and the client re-submits (§3.5).
    pub server_row_limit: usize,
    /// Maximum tablets sealed-but-unflushed before inserts flush inline,
    /// bounding memory (the 100-tablet limit of §5.1.3).
    pub max_sealed_backlog: usize,
    /// Joint budget, in bytes, for the shared block cache that serves
    /// point-lookup and query block reads (§3.2 keeps footers cached;
    /// this extends the idea to hot data blocks and bounds footer
    /// memory). The budget covers *both* tiers — decompressed blocks
    /// plus cached tablet footers in the upper tier, compressed block
    /// bytes in the lower tier — so the cache's total memory use never
    /// exceeds it. `0` makes both caches empty: every block read goes to
    /// disk (counted as a miss) and every footer stays pinned while its
    /// tablet lives, the paper's unbounded footer caching.
    pub block_cache_bytes: usize,
    /// Number of independently-locked cache shards; `0` picks a default
    /// suited to a handful of query threads. Rounded up to a power of
    /// two, then *down* while a shard's slice of the budget would fall
    /// below a useful minimum (see [`crate::cache::MIN_SHARD_SLICE`]).
    pub block_cache_shards: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            flush_size: 16 << 20,
            flush_age: 10 * 60 * 1_000_000,
            block_size: 64 << 10,
            max_tablet_size: 128 << 20,
            merge_delay: 90 * 1_000_000,
            merge_enabled: true,
            respect_periods: true,
            bloom_filters: true,
            uniqueness_fast_paths: true,
            server_row_limit: 1 << 20,
            max_sealed_backlog: 100,
            block_cache_bytes: 64 << 20,
            block_cache_shards: 0,
        }
    }
}

impl Options {
    /// Fraction of the block cache's budget given to the compressed tier,
    /// which holds the compressed bytes of blocks evicted from the
    /// decompressed tier so they come back with a cheap decompress
    /// instead of a disk seek. A constant: no workload in the benchmark
    /// moved a tuner off it, and the best static split in the sweep that
    /// once justified one sat next to it (EXPERIMENTS.md).
    pub const COMPRESSED_CACHE_FRACTION: f64 = 0.25;

    /// Fraction of [`Options::block_cache_bytes`] carved out for the
    /// query-result cache (finished aggregate result sets keyed by table
    /// generation, bounding box, and insert sequence). The carve-out comes
    /// off the top of the joint budget before the block tiers are split,
    /// so total cache memory is unchanged.
    pub const RESULT_CACHE_FRACTION: f64 = 1.0 / 16.0;

    /// Bytes carved out of [`Options::block_cache_bytes`] for the
    /// query-result cache; `0`, an empty result cache, when the joint
    /// budget is 0.
    pub fn result_cache_budget(&self) -> usize {
        (self.block_cache_bytes as f64 * Self::RESULT_CACHE_FRACTION) as usize
    }

    /// Resolves the joint cache budget into `(decompressed_bytes,
    /// compressed_bytes)` tier budgets for the block cache, after the
    /// query-result carve-out. Block tiers plus the result cache always
    /// sum to at most [`Options::block_cache_bytes`].
    pub fn cache_tier_budgets(&self) -> (usize, usize) {
        let total = self.block_cache_bytes - self.result_cache_budget();
        let compressed = (total as f64 * Self::COMPRESSED_CACHE_FRACTION) as usize;
        (total - compressed, compressed)
    }

    /// Small sizes suited to unit tests: 64 kB flushes, 4 kB blocks.
    pub fn small_for_tests() -> Self {
        Options {
            flush_size: 64 << 10,
            block_size: 4 << 10,
            max_tablet_size: 1 << 20,
            merge_delay: 0,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = Options::default();
        assert_eq!(o.flush_size, 16 << 20);
        assert_eq!(o.block_size, 64 << 10);
        assert_eq!(o.max_tablet_size, 128 << 20);
        assert_eq!(o.merge_delay, 90_000_000);
        assert_eq!(o.flush_age, 600_000_000);
        assert_eq!(o.max_sealed_backlog, 100);
        assert_eq!(o.block_cache_bytes, 64 << 20);
        assert_eq!(o.block_cache_shards, 0);
    }

    #[test]
    fn tier_budgets_sum_to_joint_budget() {
        let o = Options {
            block_cache_bytes: 64 << 20,
            ..Options::default()
        };
        // The result cache takes 1/16 of the joint budget off the top;
        // the block tiers split the remaining 60 MB.
        let result = o.result_cache_budget();
        assert_eq!(result, 4 << 20);
        let (d, c) = o.cache_tier_budgets();
        assert_eq!(d + c + result, 64 << 20);
        assert_eq!(c, 15 << 20); // default 25% split of the remainder

        // No block cache, no result cache.
        let o = Options {
            block_cache_bytes: 0,
            ..Options::default()
        };
        assert_eq!(o.result_cache_budget(), 0);
        assert_eq!(o.cache_tier_budgets(), (0, 0));
    }
}
