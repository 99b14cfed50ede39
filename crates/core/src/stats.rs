//! Per-table and per-database operational counters.
//!
//! [`TableStats`] backs the production-metrics figures of §5.2: rows
//! scanned versus rows returned (Fig. 9), insert and query rates
//! (§5.2.3), and flush/merge activity (write amplification, §5.1.3).
//! [`DbStats`] counts the database-wide path those tables share: catalog
//! loads and publishes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`TableStats`] and [`StatsSnapshot`] from one list of
/// counters: the atomic field, the snapshot field of the same name, and
/// each struct's counters as an array in declaration order.
macro_rules! table_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Lock-free counters updated by the insert, query, flush, and
        /// merge paths.
        #[derive(Debug, Default)]
        pub struct TableStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A plain-value snapshot of [`TableStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(
                #[doc = concat!("See [`TableStats::", stringify!($name), "`].")]
                pub $name: u64,
            )*
        }

        impl TableStats {
            /// Every counter, in declaration order.
            pub fn counters(&self) -> [&AtomicU64; StatsSnapshot::COUNT] {
                [$(&self.$name,)*]
            }
        }

        impl StatsSnapshot {
            /// Number of counters.
            pub const COUNT: usize = [$(stringify!($name),)*].len();

            /// Every counter's value, in declaration order.
            pub fn values(&self) -> [u64; Self::COUNT] {
                [$(self.$name,)*]
            }

            /// Every counter, writable, in declaration order.
            pub fn values_mut(&mut self) -> [&mut u64; Self::COUNT] {
                [$(&mut self.$name,)*]
            }
        }
    };
}

table_counters! {
    /// Rows accepted by inserts.
    rows_inserted,
    /// Rows rejected as duplicate primary keys.
    duplicate_keys,
    /// Queries started (range queries via `query`/`query_all` plus
    /// `latest` calls — every read that opens a cursor).
    queries,
    /// `latest` calls, also counted in `queries`.
    latest_calls,
    /// Read-path snapshot acquisitions: one per `query`/`latest` fast
    /// path (an `Arc` clone, never behind the state mutex).
    snapshot_loads,
    /// Snapshots published by the write and maintenance paths (one per
    /// tablet-set or schema transition).
    snapshot_publishes,
    /// Rows popped from the merge cursor (inside key bounds).
    rows_scanned,
    /// Rows that also passed the timestamp and TTL filters and were
    /// returned.
    rows_returned,
    /// In-memory tablets flushed to disk.
    tablets_flushed,
    /// Bytes written by flushes (compressed file sizes).
    bytes_flushed,
    /// Merge operations completed.
    merges,
    /// Bytes written by merges (compressed output file sizes).
    bytes_merge_written,
    /// Tablets removed by TTL expiry.
    tablets_expired,
    /// Descriptor saves: at most one per call that commits (a maintenance
    /// pass, a flush, a DDL change), or before a fold lists the tablets.
    descriptor_saves,
    /// Inserts resolved by the "newest timestamp" fast path.
    unique_fast_ts,
    /// Inserts resolved by the "largest key in period" fast path.
    unique_fast_key,
    /// Inserts that needed the point-query slow path.
    unique_slow,
    /// Block reads served from the decompressed-block cache.
    cache_hits,
    /// Block reads that missed the decompressed tier but were served from
    /// the compressed tier — a decompress instead of a disk seek.
    cache_compressed_hits,
    /// Block reads that missed both cache tiers and hit disk: every
    /// single-block read when the cache's budget is 0.
    cache_misses,
    /// Blocks a merge admitted to the compressed tier as it wrote them,
    /// because a tablet it rewrote had a block cached.
    cache_rewrite_admits,
    /// Blocks a run read (a merge, a rollup fold) took
    /// from the cache instead of the disk. Not a query hit: the cache is
    /// only observed, and `cache_hits` does not move.
    cache_run_hits,
    /// Decompressed bytes of this table's blocks evicted from the
    /// decompressed tier (including demotions to the compressed tier).
    cache_evicted_bytes,
    /// Tablet footers of this table evicted from the shared cache; each
    /// reload costs the three cold-footer seeks of §3.2.
    footer_evictions,
    /// Maintenance operations re-attempted after a transient I/O error
    /// (one count per retry, not per eventual success).
    io_retries,
    /// Maintenance cycles that gave up on an operation after exhausting
    /// retries (the error was surfaced, not swallowed).
    maintenance_errors,
    /// Tablet files set aside at open because they were missing or failed
    /// footer/CRC validation.
    tablets_quarantined,
    /// Pushdown scans started (aggregate queries routed through
    /// [`crate::table::Table::pushdown_scan`] instead of the row cursor).
    pushdown_scans,
    /// Blocks skipped outright by a pushdown scan because their zone
    /// maps proved no row could match.
    blocks_pruned,
    /// Rows materialized into [`crate::row::Row`] values on the read
    /// path: one per `QueryCursor::next_row` call, plus the rows a
    /// pushdown scan builds from memtablets and schema-lagging tablets.
    /// A consumer of column runs or of pushdown blocks adds nothing, so
    /// the counter stays far below `rows_scanned` where those serve.
    rows_materialized,
    /// Group-map lookups made by the aggregate fold over this table's
    /// scan units: at most one per run of rows of equal group tuple, none
    /// for a run of the group the previous run's or the one made after
    /// it. Added once per scan.
    agg_group_probes,
    /// Aggregate queries (or portions of them) answered from a rollup
    /// table instead of scanning this base table.
    rollup_hits,
    /// On-disk tablets of this table folded into rollup tables.
    rollup_folds,
    /// Aggregate queries on this table answered from the query-result
    /// cache without touching either the base table or its rollups.
    result_cache_hits,
    /// Aggregate queries that consulted the query-result cache and missed.
    result_cache_misses,
}

impl TableStats {
    /// Takes a coherent-enough snapshot (individual counters are exact;
    /// cross-counter consistency is best-effort, which is fine for
    /// monitoring).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for (value, counter) in snap.values_mut().into_iter().zip(self.counters()) {
            *value = counter.load(Ordering::Relaxed);
        }
        snap
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Database-wide counters: catalog traffic.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Catalog snapshots loaded (one per table lookup, listing, DDL
    /// statement or maintenance sweep).
    pub catalog_loads: AtomicU64,
    /// Catalog snapshots published (create/drop, one per mutation).
    pub catalog_publishes: AtomicU64,
}

/// A plain-value snapshot of the database-wide counters, which the `e2e`
/// benchmark reads. No wire message carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DbStatsSnapshot {
    /// Catalog snapshot loads: one per `Db::table()` / `list_tables()` /
    /// DDL statement / maintenance sweep.
    pub catalog_loads: u64,
    /// Catalog snapshots published by `create_table` / `drop_table`.
    pub catalog_publishes: u64,
    /// Tables in the current catalog snapshot.
    pub tables: u64,
    /// Shim for the frozen `e2e` benchmark's `core.cache.rebalances`:
    /// the tier split is static, so always 0. A `[benchmark]` follow-up
    /// removes the metric and then this.
    pub cache_rebalances: u64,
    /// Shim for the frozen `e2e` benchmark's `core.cache.split_fraction`:
    /// always [`crate::options::Options::COMPRESSED_CACHE_FRACTION`].
    /// A `[benchmark]` follow-up removes the metric and then this.
    pub cache_split_fraction: f64,
    /// Entries currently resident in the query-result cache. Its hits and
    /// misses are counted per table ([`TableStats::result_cache_hits`]).
    pub result_cache_entries: u64,
}

impl StatsSnapshot {
    /// Average rows scanned per row returned (Fig. 9's metric); 1.0 when
    /// nothing has been returned.
    pub fn scan_ratio(&self) -> f64 {
        if self.rows_returned == 0 {
            1.0
        } else {
            self.rows_scanned as f64 / self.rows_returned as f64
        }
    }

    /// Fraction of block reads served from either cache tier (a
    /// compressed-tier hit avoids the disk just like a decompressed one,
    /// at the cost of one decompress); 0.0 before any block has been read.
    pub fn cache_hit_ratio(&self) -> f64 {
        let served = self.cache_hits + self.cache_compressed_hits;
        let total = served + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }

    /// Write amplification so far: total bytes written (flush + merge)
    /// per byte flushed.
    pub fn write_amplification(&self) -> f64 {
        if self.bytes_flushed == 0 {
            1.0
        } else {
            (self.bytes_flushed + self.bytes_merge_written) as f64 / self.bytes_flushed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_back_counts() {
        let s = TableStats::default();
        TableStats::add(&s.rows_inserted, 10);
        TableStats::add(&s.rows_scanned, 14);
        TableStats::add(&s.rows_returned, 10);
        let snap = s.snapshot();
        assert_eq!(snap.rows_inserted, 10);
        assert!((snap.scan_ratio() - 1.4).abs() < 1e-9);
    }

    /// The arrays follow the declaration: the first counter leads, the
    /// last closes, and a snapshot reads each atomic into its own field.
    #[test]
    fn counters_and_values_walk_the_declaration_in_order() {
        let s = TableStats::default();
        for (i, counter) in s.counters().into_iter().enumerate() {
            counter.store(i as u64 + 1, Ordering::Relaxed);
        }
        let snap = s.snapshot();
        assert_eq!(snap.rows_inserted, 1);
        assert_eq!(snap.duplicate_keys, 2);
        assert_eq!(snap.result_cache_misses, StatsSnapshot::COUNT as u64);
        let mut rebuilt = StatsSnapshot::default();
        for (value, i) in rebuilt.values_mut().into_iter().zip(1..) {
            *value = i;
        }
        assert_eq!(rebuilt, snap);
        assert_eq!(snap.values(), std::array::from_fn(|i| i as u64 + 1));
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.scan_ratio(), 1.0);
        assert_eq!(snap.write_amplification(), 1.0);
    }

    #[test]
    fn hit_ratio_counts_both_tiers() {
        let s = TableStats::default();
        TableStats::add(&s.cache_hits, 2);
        TableStats::add(&s.cache_compressed_hits, 1);
        TableStats::add(&s.cache_misses, 1);
        assert!((s.snapshot().cache_hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn write_amplification_counts_merges() {
        let s = TableStats::default();
        TableStats::add(&s.bytes_flushed, 100);
        TableStats::add(&s.bytes_merge_written, 100);
        assert!((s.snapshot().write_amplification() - 2.0).abs() < 1e-9);
    }
}
