//! End-to-end tests of the shared two-tier block cache: warm reads are
//! byte-identical and cheap, the joint budget (decompressed tier +
//! compressed tier + cached footers) holds under concurrency and
//! pressure, the compressed tier serves overflow working sets faster
//! than a single-tier cache at the same budget, merges invalidate dead
//! tablets without flushing the hot set, and a zero budget reads from
//! disk exactly as a cold cache does. A tablet's footer enters the cache
//! as the tablet is written; its blocks enter as they are read, or as a
//! merge or bulk delete writes them when its inputs had a block cached.

use littletable::core::block::{Block, BlockEncoder};
use littletable::core::cache::CompressedBlock;
use littletable::core::stats::TableStats;
use littletable::core::tablet::TabletReader;
use littletable::vfs::{
    Clock, DiskParams, FaultKind, FaultPlan, FaultRule, FaultVfs, OpKind, SimClock, SimVfs, Vfs,
};
use littletable::{BlockCache, ColumnDef, ColumnType, Db, Options, Query, Row, Schema, Value};
use std::sync::Arc;

const START: i64 = 1_700_000_000_000_000;

fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("k", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::Blob),
        ],
        &["k", "ts"],
    )
    .unwrap()
}

fn row(k: i64, ts: i64, fill: u8, len: usize) -> Vec<Value> {
    vec![
        Value::I64(k),
        Value::Timestamp(ts),
        Value::Blob(vec![fill; len]),
    ]
}

/// Builds a table of `n` rows and leaves it fully merged on disk.
fn build_merged_table(db: &Db, clock: &SimClock, name: &str, n: i64) -> Arc<littletable::Table> {
    let table = db.create_table(name, schema(), None).unwrap();
    for i in 0..n {
        table
            .insert(vec![row(i, START + i, (i % 251) as u8, 100)])
            .unwrap();
    }
    table.flush_all().unwrap();
    while table.run_merge_once(clock.now_micros()).unwrap() {}
    table
}

fn values_of(rows: Vec<Row>) -> Vec<Vec<Value>> {
    rows.into_iter().map(|r| r.values).collect()
}

/// The cache ids of every tablet with its footer resident. Ids are
/// allocated in order and never reused, so the ones below a freshly
/// registered id are every id handed out so far.
fn resident_footers(cache: &BlockCache) -> Vec<u64> {
    (1..cache.register_tablet())
        .filter(|&t| cache.footer_resident(t))
        .collect()
}

/// How many blocks the one tablet whose footer is resident has.
fn only_tablets_blocks(cache: &BlockCache) -> usize {
    let [id] = resident_footers(cache)[..] else {
        panic!("one resident footer");
    };
    cache.get_footer(id).unwrap().blocks.len()
}

/// Fails the second read of a tablet file while `query` runs, so it
/// passes only if it reads one block and no trailer or footer, which
/// would take two reads more.
fn reads_one_block(vfs: &SimVfs, query: impl FnOnce()) {
    let second_read = FaultRule::new(FaultKind::Eio).on_ops(&[OpKind::Read]);
    vfs.set_fault_plan(FaultPlan::new().rule(second_read.on_path(".lt").nth_match(2)));
    query();
    vfs.clear_fault_plan();
}

/// Inserts `tablets` batches of `per` rows of `table`, keys ascending
/// from 0, flushing each into a tablet of its own.
fn flush_tablets(table: &littletable::Table, tablets: i64, per: i64) {
    for batch in 0..tablets {
        let rows = (batch * per..(batch + 1) * per)
            .map(|k| row(k, START + k, (k % 251) as u8, 100))
            .collect();
        table.insert(rows).unwrap();
        table.flush_all().unwrap();
    }
}

/// Point-queries every `step`th key below `n`, each answered by one row.
fn query_keys(table: &littletable::Table, n: i64, step: usize) {
    for k in (0..n).step_by(step) {
        let q = Query::all().with_prefix(vec![Value::I64(k)]);
        assert_eq!(table.query_all(&q).unwrap().len(), 1, "key {k}");
    }
}

#[test]
fn warm_reads_are_byte_identical_and_at_least_5x_faster() {
    let clock = SimClock::new(START);
    let vfs = SimVfs::new(DiskParams::paper_disk(), clock.clone());
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let table = build_merged_table(&db, &clock, "t", 5000);
    // Cold start: fresh engine, cleared page/drive caches.
    let db2 = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    vfs.clear_caches();
    drop((db, table));
    let t2 = db2.table("t").unwrap();
    let q = Query::all().with_prefix(vec![Value::I64(2500)]);

    let t0 = clock.now_micros();
    let cold = values_of(t2.query_all(&q).unwrap());
    let cold_micros = clock.now_micros() - t0;

    let t1 = clock.now_micros();
    let warm = values_of(t2.query_all(&q).unwrap());
    let warm_micros = clock.now_micros() - t1;

    assert_eq!(cold, warm, "cache must return byte-identical rows");
    assert_eq!(cold.len(), 1);
    let snap = t2.stats().snapshot();
    assert!(snap.cache_hits > 0, "warm read must hit the cache");
    assert!(snap.cache_misses > 0, "cold read must miss the cache");
    assert!(
        cold_micros >= 5 * warm_micros.max(1),
        "warm read not ≥5x faster: cold {cold_micros} µs, warm {warm_micros} µs"
    );
}

#[test]
fn disabled_cache_reproduces_uncached_read_counts() {
    // With block_cache_bytes = 0 every repeated point read pays the same
    // disk transfer again; with the cache on, repeats cost no disk reads.
    let run = |cache_bytes: usize| {
        let clock = SimClock::new(START);
        let vfs = SimVfs::new(DiskParams::paper_disk(), clock.clone());
        let opts = Options {
            block_cache_bytes: cache_bytes,
            ..Options::small_for_tests()
        };
        let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
        let table = build_merged_table(&db, &clock, "t", 3000);
        vfs.clear_caches();
        let q = Query::all().with_prefix(vec![Value::I64(1500)]);
        let first = values_of(table.query_all(&q).unwrap());
        let after_first = vfs.model().stats().bytes_read;
        // Clear the disk model's page/drive caches so the repeat can only
        // be free if the *engine's* cache serves it.
        vfs.clear_caches();
        let second = values_of(table.query_all(&q).unwrap());
        let after_second = vfs.model().stats().bytes_read;
        assert_eq!(first, second);
        let snap = table.stats().snapshot();
        (after_first, after_second - after_first, snap)
    };

    let (uncached_first, uncached_repeat, uncached_snap) = run(0);
    let (cached_first, cached_repeat, cached_snap) = run(64 << 20);

    // The first (cold) read does identical IO whether or not a cache is
    // configured: same bytes from disk, in the same order.
    assert_eq!(uncached_first, cached_first);
    // The repeat: uncached reads the block again, cached reads nothing.
    assert!(
        uncached_repeat > 0,
        "uncached repeat must re-read the block"
    );
    assert_eq!(cached_repeat, 0, "cached repeat must do zero disk reads");
    // Counters follow suit: an empty cache never hits, and every block
    // it read from disk is a miss.
    assert_eq!(uncached_snap.cache_hits, 0);
    assert!(uncached_snap.cache_misses > 0);
    assert!(cached_snap.cache_hits > 0);
}

#[test]
fn merge_invalidates_dead_tablet_entries() {
    let clock = SimClock::new(START);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let table = db.create_table("t", schema(), None).unwrap();
    // Several separate tablets with a shared time period.
    for batch in 0..4i64 {
        for i in 0..400 {
            let k = batch * 400 + i;
            table.insert(vec![row(k, START + k, 7, 60)]).unwrap();
        }
        table.flush_all().unwrap();
    }
    assert!(table.num_disk_tablets() > 1);
    // Warm the cache from every tablet.
    for k in (0..1600).step_by(100) {
        let rows = table
            .query_all(&Query::all().with_prefix(vec![Value::I64(k)]))
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
    let cache = db.block_cache().clone();
    assert!(cache.entry_count() > 0);
    let sources = resident_footers(&cache);
    assert_eq!(sources.len(), 4, "every source tablet's footer");
    // Merge everything: the source tablets leave service, so every cached
    // block now describes a deleted file and must be unreachable. What
    // is left is the merge's own, under a new id: the footer it wrote,
    // and in the lower tier every block it wrote, inherited because its
    // inputs had blocks cached.
    while table.run_merge_once(clock.now_micros()).unwrap() {}
    assert_eq!(table.num_disk_tablets(), 1);
    assert!(sources.iter().all(|&t| !cache.footer_resident(t)));
    assert!(table.stats().snapshot().cache_rewrite_admits > 0);
    assert_eq!(
        (cache.entry_count(), cache.compressed_entry_count()),
        (1, only_tablets_blocks(&cache)),
        "merged-away tablets must drop their cached blocks and footers"
    );
    // The merged tablet serves the same data, the warmed keys from the
    // blocks it inherited: no disk read, and its blocks move up a tier.
    let before = table.stats().snapshot();
    for k in (0..1600).step_by(100) {
        let rows = table
            .query_all(&Query::all().with_prefix(vec![Value::I64(k)]))
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
    let after = table.stats().snapshot();
    assert_eq!(after.cache_misses, before.cache_misses);
    assert!(after.cache_compressed_hits > before.cache_compressed_hits);
    assert!(cache.entry_count() > 1);
    assert!(cache.bytes_used() <= cache.capacity());
}

#[test]
fn scan_and_merge_pass_leaves_hot_set_hit_ratio_intact() {
    let clock = SimClock::new(START);
    let opts = Options {
        // One shard with room for ~12 of the 4 kB test blocks: holds the
        // hot set comfortably, but far smaller than the churn table, so
        // admit-everything caching would wipe the hot set.
        block_cache_bytes: 48 << 10,
        block_cache_shards: 1,
        ..Options::small_for_tests()
    };
    let db = Db::open(Arc::new(SimVfs::instant()), Arc::new(clock.clone()), opts).unwrap();
    // Hot table: small, merged, stable.
    let hot = build_merged_table(&db, &clock, "hot", 500);
    let hot_keys: Vec<i64> = (0..5).map(|i| i * 100).collect();
    let hit_ratio_over_pass = |label: &str| {
        let before = hot.stats().snapshot();
        for _ in 0..40 {
            for &k in &hot_keys {
                let rows = hot
                    .query_all(&Query::all().with_prefix(vec![Value::I64(k)]))
                    .unwrap();
                assert_eq!(rows.len(), 1, "{label}: key {k}");
            }
        }
        let after = hot.stats().snapshot();
        let hits = after.cache_hits - before.cache_hits;
        let misses = after.cache_misses - before.cache_misses;
        hits as f64 / (hits + misses) as f64
    };
    // Warm up, then measure the steady-state hit ratio.
    hit_ratio_over_pass("warmup");
    let before = hit_ratio_over_pass("pre-scan");
    assert!(before > 0.9, "hot set should be cache-resident: {before}");

    // Churn table: several times the cache budget, then a full merge
    // (which streams every block in ~1 MB runs) and a full scan.
    let churn = db.create_table("churn", schema(), None).unwrap();
    for i in 0..3000i64 {
        churn.insert(vec![row(i, START + i, 3, 120)]).unwrap();
        if i % 750 == 749 {
            churn.flush_all().unwrap();
        }
    }
    churn.flush_all().unwrap();
    let misses_before_merge = churn.stats().snapshot().cache_misses;
    while churn.run_merge_once(clock.now_micros()).unwrap() {}
    // The merge's run reads only observe the cache: they count no miss.
    assert_eq!(
        churn.stats().snapshot().cache_misses,
        misses_before_merge,
        "merge reads must not go through the cache"
    );
    let scanned = churn.query_all(&Query::all()).unwrap();
    assert_eq!(scanned.len(), 3000);

    let after = hit_ratio_over_pass("post-scan");
    assert!(
        (before - after).abs() <= 0.1,
        "hot-set hit ratio moved too much: {before} -> {after}"
    );
    let cache = db.block_cache();
    assert!(cache.bytes_used() <= cache.capacity());
}

#[test]
fn two_tier_budget_holds_with_footers_under_pressure() {
    // A working set of ~2x the decompressed slice: the overflow lives as
    // compressed bytes in the lower tier. Both tiers plus cached footers
    // must stay inside the joint budget at every step.
    let clock = SimClock::new(START);
    let opts = Options {
        block_cache_bytes: 96 << 10,
        block_cache_shards: 1,
        ..Options::small_for_tests()
    };
    let db = Db::open(Arc::new(SimVfs::instant()), Arc::new(clock.clone()), opts).unwrap();
    let table = build_merged_table(&db, &clock, "t", 2400);
    let cache = db.block_cache().clone();
    assert!(cache.capacity() <= 96 << 10);
    assert!(cache.decompressed_capacity() + cache.compressed_capacity() <= 96 << 10);
    // ~38 distinct 4 kB blocks (~150 kB decompressed) cycled twice
    // through a 72 kB decompressed slice.
    for _ in 0..2 {
        for k in (0..1200).step_by(16) {
            let rows = table
                .query_all(&Query::all().with_prefix(vec![Value::I64(k)]))
                .unwrap();
            assert_eq!(rows.len(), 1);
            assert!(
                cache.bytes_used() <= cache.capacity(),
                "joint budget exceeded: {} > {}",
                cache.bytes_used(),
                cache.capacity()
            );
            assert!(cache.decompressed_bytes_used() <= cache.decompressed_capacity());
            assert!(cache.compressed_bytes_used() <= cache.compressed_capacity());
        }
    }
    let snap = table.stats().snapshot();
    assert!(
        snap.cache_compressed_hits > 0,
        "overflow re-reads must be served from the compressed tier"
    );
    assert!(snap.cache_hits > 0);
}

#[test]
fn two_tier_beats_single_tier_at_equal_budget() {
    // Same joint budget, same access sequence, replayed the way the
    // tablet reader drives the cache (decompressed tier, then compressed
    // tier, then disk): the shipped 25% compressed slice must serve the
    // overflow from memory where one decompressed tier of the whole
    // budget goes back to disk.
    let schema = schema();
    let blocks: Vec<(Arc<Block>, CompressedBlock)> = (0..38i64)
        .map(|b| {
            let mut enc = BlockEncoder::new(&schema);
            for i in b * 32..(b + 1) * 32 {
                enc.add(&Row::new(row(i, START + i, (i % 251) as u8, 100)))
                    .unwrap();
            }
            let mut raw = Vec::new();
            enc.finish(&mut raw);
            let compressed = CompressedBlock {
                bytes: littletable::compress::compress(&raw).into(),
                uncompressed_len: raw.len() as u32,
            };
            (Arc::new(Block::parse(&raw, &schema).unwrap()), compressed)
        })
        .collect();
    let stats = Arc::new(TableStats::default());
    // Four cycles over the 38 blocks; returns (compressed-tier hits, disk reads).
    let run = |cache: BlockCache| {
        let tid = cache.register_tablet();
        let (mut compressed_hits, mut disk_reads) = (0u32, 0u32);
        for _ in 0..4 {
            for (bi, (block, compressed)) in blocks.iter().enumerate() {
                let bi = bi as u32;
                if cache.get(tid, bi).is_some() {
                    continue;
                }
                let compressed = match cache.take_compressed(tid, bi) {
                    Some(c) => {
                        compressed_hits += 1;
                        c
                    }
                    None => {
                        disk_reads += 1;
                        compressed.clone()
                    }
                };
                cache.insert(tid, bi, block.clone(), Some(compressed), &stats);
                assert!(cache.bytes_used() <= cache.capacity());
            }
        }
        (compressed_hits, disk_reads)
    };
    let opts = Options {
        block_cache_bytes: 96 << 10,
        ..Options::small_for_tests()
    };
    let (decompressed, compressed) = opts.cache_tier_budgets();
    let working_set: usize = blocks.iter().map(|(b, _)| b.byte_size()).sum();
    assert!(working_set > decompressed + compressed, "must overflow");

    let (single_hits, single_reads) = run(BlockCache::new(decompressed + compressed, 0, 1));
    let (two_tier_hits, two_tier_reads) = run(BlockCache::new(decompressed, compressed, 1));
    assert_eq!(single_hits, 0);
    assert!(two_tier_hits > 0);
    assert!(
        two_tier_reads < single_reads,
        "two-tier must go to disk less at the same budget: \
         two-tier {two_tier_reads} reads vs single-tier {single_reads}"
    );
}

#[test]
fn footer_evictions_are_counted_and_queries_survive() {
    // Many one-tablet tables churning through a small cache: footers are
    // charged like blocks, so cold tables' footers get evicted — and the
    // counter must say so. Queries reload them transparently.
    let clock = SimClock::new(START);
    let opts = Options {
        block_cache_bytes: 32 << 10,
        block_cache_shards: 1,
        ..Options::small_for_tests()
    };
    let db = Db::open(Arc::new(SimVfs::instant()), Arc::new(clock.clone()), opts).unwrap();
    let tables: Vec<_> = (0..12)
        .map(|t| build_merged_table(&db, &clock, &format!("t{t}"), 300))
        .collect();
    let cache = db.block_cache().clone();
    for round in 0..3 {
        for (t, table) in tables.iter().enumerate() {
            let k = (t as i64 * 25 + round) % 300;
            let rows = table
                .query_all(&Query::all().with_prefix(vec![Value::I64(k)]))
                .unwrap();
            assert_eq!(rows.len(), 1, "table t{t} round {round}");
            assert!(cache.bytes_used() <= cache.capacity());
        }
    }
    let footer_evictions: u64 = tables
        .iter()
        .map(|t| t.stats().snapshot().footer_evictions)
        .sum();
    assert!(
        footer_evictions > 0,
        "churning 12 tables through a 32 kB cache must evict footers"
    );
}

#[test]
fn concurrent_queries_never_exceed_cache_budget() {
    let clock = SimClock::new(START);
    let opts = Options {
        // Large enough for the whole table's decompressed blocks.
        block_cache_bytes: 1 << 20,
        ..Options::small_for_tests()
    };
    let db = Db::open(Arc::new(SimVfs::instant()), Arc::new(clock.clone()), opts).unwrap();
    let table = build_merged_table(&db, &clock, "t", 4000);
    let cache = db.block_cache().clone();
    let mut handles = Vec::new();
    for t in 0..8i64 {
        let table = table.clone();
        let cache = cache.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..300 {
                let k = (t * 677 + i * 131) % 4000;
                let rows = table
                    .query_all(&Query::all().with_prefix(vec![Value::I64(k)]))
                    .unwrap();
                assert_eq!(rows.len(), 1);
                assert!(
                    cache.bytes_used() <= cache.capacity(),
                    "budget exceeded under concurrency"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = table.stats().snapshot();
    assert!(snap.cache_hits > 0);
    assert!(
        snap.cache_hit_ratio() > 0.5,
        "ratio {}",
        snap.cache_hit_ratio()
    );
    assert!(cache.bytes_used() <= cache.capacity());
}

#[test]
fn a_flushed_tablets_footer_is_cached_as_written_and_is_the_one_on_disk() {
    let clock = SimClock::new(START);
    let vfs = SimVfs::instant();
    let opts = Options::small_for_tests();
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock), opts).unwrap();
    let table = db.create_table("t", schema(), None).unwrap();
    flush_tablets(&table, 1, 300);
    let cache = db.block_cache();
    // The flush admitted its footer and no block.
    let written = resident_footers(cache);
    assert_eq!(written.len(), 1);
    assert_eq!(
        (cache.entry_count(), cache.compressed_entry_count()),
        (1, 0)
    );
    let q = Query::all().with_prefix(vec![Value::I64(150)]);
    let mut rows = Vec::new();
    reads_one_block(&vfs, || rows = table.query_all(&q).expect("one read"));
    assert_eq!(values_of(rows), vec![row(150, START + 150, 150, 100)]);
    let snap = table.stats().snapshot();
    assert_eq!((snap.cache_misses, snap.footer_evictions), (1, 0));
    // What the writer admitted is what a reader decodes from the file,
    // field for field.
    let names = vfs.list_dir("t").unwrap();
    let name = names.iter().find(|n| n.ends_with(".lt")).unwrap();
    let path = littletable::vfs::join("t", name);
    let on_disk = TabletReader::new(Arc::new(vfs.clone()), path)
        .footer()
        .unwrap();
    let admitted = cache.get_footer(written[0]).unwrap();
    assert_eq!(format!("{admitted:?}"), format!("{on_disk:?}"));
}

/// At the default budget and at zero, where no block is ever held and
/// the written footer is pinned.
#[test]
fn merged_and_rewritten_tablets_are_first_read_without_a_footer_load() {
    let default = Options::small_for_tests().block_cache_bytes;
    for budget in [default, 0] {
        let clock = SimClock::new(START);
        let vfs = SimVfs::instant();
        let opts = Options {
            block_cache_bytes: budget,
            ..Options::small_for_tests()
        };
        let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
        let table = db.create_table("t", schema(), None).unwrap();
        flush_tablets(&table, 4, 400);
        query_keys(&table, 1600, 100);
        while table.run_merge_once(clock.now_micros()).unwrap() {}
        assert_eq!(table.num_disk_tablets(), 1);
        let cache = db.block_cache();
        let entries = || (cache.entry_count(), cache.compressed_entry_count());
        // The merged tablet's footer, and every block of it, inherited
        // from inputs that had blocks cached: nothing under a merged-away
        // id.
        let inherited = || table.stats().snapshot().cache_rewrite_admits;
        assert_eq!(inherited() > 0, budget > 0, "budget {budget}");
        let held = || {
            (
                1,
                if budget > 0 {
                    only_tablets_blocks(cache)
                } else {
                    0
                },
            )
        };
        assert_eq!(entries(), held(), "budget {budget}");
        reads_one_block(&vfs, || query_keys(&table, 1, 1));
        // A bulk delete's rewrite admits its footer, and inherits, the
        // same way.
        let merged = inherited();
        assert_eq!(table.bulk_delete(&[Value::I64(800)]).unwrap(), 1);
        assert_eq!(table.num_disk_tablets(), 1);
        assert_eq!(entries(), held(), "budget {budget}");
        assert_eq!(inherited() > merged, budget > 0, "budget {budget}");
        reads_one_block(&vfs, || query_keys(&table, 1, 1));
        if budget == 0 {
            let snap = table.stats().snapshot();
            assert_eq!((snap.cache_hits, snap.cache_compressed_hits), (0, 0));
        }
    }
}

#[test]
fn enospc_in_a_merge_leaves_nothing_under_the_failed_tablets_id() {
    let clock = SimClock::new(START);
    let vfs = FaultVfs::new(SimVfs::instant());
    let opts = Options::small_for_tests();
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
    let table = db.create_table("t", schema(), None).unwrap();
    flush_tablets(&table, 4, 400);
    query_keys(&table, 1600, 100);
    let cache = db.block_cache().clone();
    let held = |c: &BlockCache| (c.entry_count(), c.compressed_entry_count(), c.bytes_used());
    let before = held(&cache);
    // The merge's k-th append to or sync of its tablet fails, for k = 1,
    // 2, ...: each block, its footer, its trailer, the sync just before
    // the footer would be admitted. Then one goes through.
    let mut failures = 0;
    loop {
        let rule = FaultRule::new(FaultKind::Enospc).on_ops(&[OpKind::Append, OpKind::Sync]);
        let rule = rule.on_path(".lt").nth_match(failures + 1);
        vfs.set_fault_plan(FaultPlan::new().rule(rule));
        let merged = table.run_merge_once(clock.now_micros());
        vfs.clear_fault_plan();
        match merged {
            Ok(ran) => {
                assert!(ran);
                break;
            }
            Err(e) => assert!(e.is_disk_full(), "{e}"),
        }
        failures += 1;
        let failed = cache.register_tablet() - 1;
        assert!(
            !cache.footer_resident(failed),
            "failure {failures}: footer left"
        );
        assert_eq!(held(&cache), before, "failure {failures}");
    }
    assert!(
        failures >= 4,
        "{failures} appends: too few blocks to fail between"
    );
    let merged = cache.register_tablet() - 1;
    assert!(cache.footer_resident(merged), "the merged tablet's footer");
    query_keys(&table, 1600, 100);
}
