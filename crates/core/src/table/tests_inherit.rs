//! A rewrite and the block cache: it takes each block of its inputs the
//! cache holds from there, observed only, and reads the rest from disk;
//! and it hands its inputs' cache residency to its output: when a tablet
//! a merge or a bulk delete replaces had a block cached, each block the
//! rewrite writes enters the lower tier, into free space only.

use super::state::DiskHandle;
use super::tests_merge::file_bytes;
use super::*;
use crate::cache::Resident;
use crate::db::Db;
use crate::query::Query;
use crate::schema::ColumnDef;
use crate::tablet::TabletReader;
use crate::value::{ColumnType, Value};
use littletable_vfs::{join, FaultKind, FaultPlan, FaultRule, OpKind, SimClock, SimVfs, Vfs};

const START: Micros = 1_700_000_000_000_000;

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

/// A database with `budget` bytes of cache in one shard, 4 kB blocks,
/// and no merge but the ones a test runs.
fn open(vfs: &SimVfs, budget: usize) -> Db {
    let opts = Options {
        block_cache_bytes: budget,
        block_cache_shards: 1,
        flush_size: 16 << 20,
        merge_enabled: false,
        ..Options::small_for_tests()
    };
    Db::open(Arc::new(vfs.clone()), Arc::new(SimClock::new(START)), opts).unwrap()
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

/// Flushes `tablets` tablets of `per` rows each, interleaved on the key:
/// tablet `b` holds the keys `k ≡ b (mod tablets)`, each row's value 100
/// bytes of noise. Their inserts read the tablets before them (the
/// uniqueness probe).
fn load(t: &Table, tablets: i64, per: i64) {
    for b in 0..tablets {
        let rows = (0..per)
            .map(|i| i * tablets + b)
            .map(|k| {
                vec![
                    Value::I64(k),
                    Value::Timestamp(START + k),
                    Value::Blob(noise(k, 100)),
                ]
            })
            .collect();
        t.insert(rows).unwrap();
        t.flush_all().unwrap();
    }
}

/// A database whose table `t` was loaded (see [`load`]) and which was
/// then reopened, to start from a cold cache of `budget` bytes.
fn loaded(vfs: &SimVfs, budget: usize, tablets: i64, per: i64) -> Db {
    let t = open(vfs, budget).create_table("t", schema(), None).unwrap();
    load(&t, tablets, per);
    drop(t);
    open(vfs, budget)
}

/// Point-queries each of `keys`, each answered by one row.
fn query_keys(t: &Table, keys: impl Iterator<Item = i64>) {
    for k in keys {
        let q = Query::all().with_prefix(vec![Value::I64(k)]);
        assert_eq!(t.query_all(&q).unwrap().len(), 1, "key {k}");
    }
}

fn disk(t: &Table) -> Vec<DiskHandle> {
    t.state.lock().disk.clone()
}

/// Merges once, and finds nothing more to merge.
fn merge(t: &Table) {
    assert!(t.run_merge_once(START).unwrap());
    assert!(!t.run_merge_once(START).unwrap());
}

/// Each block of `h`'s tablet as the cache holds it: `U`pper tier,
/// `L`ower tier or `-` not at all, observed only.
fn tiers(t: &Table, h: &DiskHandle) -> String {
    let id = h.reader.cache_id();
    let footer = t.cache.peek_footer(id).expect("a cached footer");
    (0..footer.blocks.len() as u32)
        .map(|bi| match t.cache.peek_block(id, bi) {
            Some(Resident::Decoded(_)) => 'U',
            Some(Resident::Compressed(_)) => 'L',
            None => '-',
        })
        .collect()
}

/// Which blocks of `h`'s tablet are resident in either tier, its footer
/// peeked at: observing leaves every CLOCK as it was.
fn resident(t: &Table, h: &DiskHandle) -> Vec<bool> {
    tiers(t, h).chars().map(|tier| tier != '-').collect()
}

/// `(blocks, lower-tier blocks, blocks inherited)`: what the cache holds
/// and what rewrites handed over.
fn held(t: &Table) -> (usize, usize, u64) {
    let c = &t.cache;
    let inherited = t.stats.snapshot().cache_rewrite_admits;
    (c.entry_count(), c.compressed_entry_count(), inherited)
}

#[test]
fn rewrites_of_tablets_nobody_read_admit_no_block() {
    let vfs = SimVfs::instant();
    let db = loaded(&vfs, 64 << 20, 4, 400);
    let t = db.table("t").unwrap();
    // Every input's footer is cached, and none of its blocks.
    for h in disk(&t) {
        h.reader.footer().unwrap();
    }
    assert_eq!(held(&t), (4, 0, 0));
    merge(&t);
    assert_eq!(held(&t), (1, 0, 0));
    assert_eq!(t.bulk_delete(&[Value::I64(7)]).unwrap(), 1);
    assert_eq!(held(&t), (1, 0, 0));
}

#[test]
fn one_cached_input_block_hands_over_the_whole_output() {
    let vfs = SimVfs::instant();
    let db = loaded(&vfs, 64 << 20, 4, 1000);
    let t = db.table("t").unwrap();
    // One input's first block is read: it, and the blocks its miss reads
    // ahead, are cached.
    disk(&t)[0].reader.read_block(0).unwrap();
    let warm: Vec<bool> = disk(&t)
        .iter()
        .map(|h| h.reader.has_resident_block())
        .collect();
    assert_eq!(warm.iter().filter(|&&w| w).count(), 1, "{warm:?}");
    merge(&t);
    let out = disk(&t).remove(0);
    let blocks = resident(&t, &out);
    assert!(
        blocks.len() > 1 && blocks.iter().all(|&on| on),
        "{blocks:?}"
    );
    assert_eq!(held(&t), (1, blocks.len(), blocks.len() as u64));
}

/// Table `a`: one row a block, each decoding to more than the upper tier
/// holds, so they live in the lower tier alone and fill it. With
/// `read_b`, one key of table `b` was read first, so its block entered
/// the upper tier. Then `write` writes to table `b`: table `a`'s blocks
/// stay resident exactly where they were, and the cache stays within its
/// capacity.
fn a_full_cache_keeps_its_resident_set(read_b: bool, write: impl FnOnce(&Table)) {
    let vfs = SimVfs::instant();
    {
        let db = open(&vfs, 0);
        let a = db.create_table("a", schema(), None).unwrap();
        for k in 0..20 {
            let mut v = noise(k, 2 << 10);
            v.resize(48 << 10, 0);
            let row = vec![Value::I64(k), Value::Timestamp(START + k), Value::Blob(v)];
            a.insert(vec![row]).unwrap();
        }
        a.flush_all().unwrap();
        load(&db.create_table("b", schema(), None).unwrap(), 4, 100);
    }
    // Upper tier 45 kB, lower tier 15 kB.
    let db = open(&vfs, 64 << 10);
    let (a, b) = (db.table("a").unwrap(), db.table("b").unwrap());
    if read_b {
        query_keys(&b, 150..151);
    }
    query_keys(&a, 0..20);
    let cache = &a.cache;
    let lower = cache.compressed_capacity() - cache.compressed_bytes_used();
    assert!(lower < 2 << 10, "{lower} bytes free in the lower tier");
    let before: Vec<Vec<bool>> = disk(&a).iter().map(|h| resident(&a, h)).collect();
    assert!(before.iter().flatten().filter(|&&on| on).count() > 3);
    write(&b);
    let after: Vec<Vec<bool>> = disk(&a).iter().map(|h| resident(&a, h)).collect();
    assert_eq!(after, before);
    assert!(cache.bytes_used() <= cache.capacity());
}

#[test]
fn a_full_cache_keeps_its_resident_set_through_a_hot_merge() {
    a_full_cache_keeps_its_resident_set(true, |b| {
        assert!(disk(b).iter().any(|h| resident(b, h).contains(&true)));
        merge(b);
    });
}

#[test]
fn a_full_cache_keeps_its_resident_set_through_a_flush() {
    a_full_cache_keeps_its_resident_set(true, |b| {
        // Stamped past every row `b` holds: no uniqueness probe reads it.
        let row = |k| {
            vec![
                Value::I64(k),
                Value::Timestamp(START + k),
                Value::Blob(noise(k, 100)),
            ]
        };
        b.insert((400..500).map(row).collect()).unwrap();
        b.flush_all().unwrap();
        assert_eq!(disk(b).len(), 5);
    });
}

#[test]
fn a_full_cache_keeps_its_resident_set_through_a_cold_merge_larger_than_the_lower_tier() {
    a_full_cache_keeps_its_resident_set(false, |b| {
        assert!(disk(b).iter().all(|h| !h.reader.has_resident_block()));
        let written: u64 = disk(b).iter().map(|h| h.meta.bytes).sum();
        assert!(written > b.cache.compressed_capacity() as u64, "{written}");
        merge(b);
    });
}

#[test]
fn a_rewrite_in_a_cache_of_no_bytes_admits_nothing() {
    let vfs = SimVfs::instant();
    let db = open(&vfs, 0);
    let t = db.create_table("t", schema(), None).unwrap();
    load(&t, 4, 400);
    query_keys(&t, 0..1600);
    assert!(t.stats.snapshot().cache_misses > 0);
    merge(&t);
    query_keys(&t, 0..1600);
    assert_eq!(t.bulk_delete(&[Value::I64(7)]).unwrap(), 1);
    // The footer, pinned; nothing else.
    assert_eq!(held(&t), (1, 0, 0));
}

#[test]
fn after_a_hot_merge_the_warmed_keys_are_read_with_no_disk_read() {
    let vfs = SimVfs::instant();
    let db = loaded(&vfs, 64 << 20, 4, 400);
    let t = db.table("t").unwrap();
    let warmed = || (0..1600).step_by(50);
    query_keys(&t, warmed());
    merge(&t);
    let out = disk(&t).remove(0);
    let admitted: Vec<usize> = resident(&t, &out)
        .iter()
        .enumerate()
        .filter_map(|(bi, &on)| on.then_some(bi))
        .collect();
    assert!(!admitted.is_empty());
    assert_eq!(held(&t).2, admitted.len() as u64);
    // Every disk read fails: the warmed keys, and every block the merge
    // handed over, are served from the cache.
    let any_read = FaultRule::new(FaultKind::Eio).on_ops(&[OpKind::Read]);
    vfs.set_fault_plan(FaultPlan::new().rule(any_read));
    query_keys(&t, warmed());
    let served: Vec<String> = admitted
        .iter()
        .map(|&bi| format!("{:?}", out.reader.read_block(bi).unwrap()))
        .collect();
    vfs.clear_fault_plan();
    // Each decodes as the same block read from the file by a cold reader.
    let cold = TabletReader::new(Arc::new(vfs.clone()), out.reader.path().into());
    for (&bi, block) in admitted.iter().zip(&served) {
        assert_eq!(
            *block,
            format!("{:?}", cold.read_block(bi).unwrap()),
            "block {bi}"
        );
    }
}

/// The table's files, name and bytes, in name order.
fn files(vfs: &SimVfs, t: &Table) -> Vec<(String, Vec<u8>)> {
    let mut names = vfs.list_dir(t.dir()).unwrap();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = file_bytes(vfs, &join(t.dir(), &n));
            (n, bytes)
        })
        .collect()
}

/// Four tablets of 2000 rows, about 230 kB each, whose first rows were
/// point-queried and whose blocks 4 were then read once: in each tablet
/// block 0 is in the upper tier, and so is block 4, with its reference
/// bit clear; the other blocks read ahead of block 0 are in the lower
/// tier, and the rest nowhere.
fn partly_resident(vfs: &SimVfs, budget: usize) -> Db {
    let db = loaded(vfs, budget, 4, 2000);
    let t = db.table("t").unwrap();
    query_keys(&t, 0..4);
    for h in disk(&t) {
        h.reader.read_block(4).unwrap();
    }
    db
}

/// Rewrites the table the same way twice: warm, through a roomy cache
/// that queries filled, and cold, with no cache. Both leave the same
/// files, byte for byte; only the warm rewrite takes blocks from the
/// cache, and it reads fewer bytes from disk. With `lag`, a column is
/// added after every input was flushed, so each block taken is translated
/// to the newest schema on its way to the writer.
fn rewrites_alike(lag: bool, rewrite: impl Fn(&Table)) {
    let run = |budget| {
        let vfs = SimVfs::instant();
        let db = partly_resident(&vfs, budget);
        let t = db.table("t").unwrap();
        if lag {
            let x = ColumnDef::with_default("x", ColumnType::I64, Value::I64(7));
            t.add_column(x).unwrap();
        }
        let read = vfs.model().stats().bytes_read;
        rewrite(&t);
        let read = vfs.model().stats().bytes_read - read;
        (files(&vfs, &t), t.stats.snapshot().cache_run_hits, read)
    };
    let (warm, taken, warm_read) = run(64 << 20);
    let (cold, none, cold_read) = run(0);
    let names = |f: &[(String, Vec<u8>)]| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&warm), names(&cold));
    for ((name, a), (_, b)) in warm.iter().zip(&cold) {
        assert!(a == b, "{name} differs");
    }
    assert!(taken > 0 && none == 0, "{taken} {none}");
    assert!(warm_read < cold_read, "{warm_read} {cold_read}");
}

#[test]
fn a_merge_that_takes_resident_blocks_writes_what_a_cold_one_writes() {
    rewrites_alike(false, merge);
}

#[test]
fn a_bulk_delete_that_takes_resident_blocks_writes_what_a_cold_one_writes() {
    rewrites_alike(false, |t| {
        assert_eq!(t.bulk_delete(&[Value::I64(8)]).unwrap(), 1);
    });
}

#[test]
fn a_schema_lagging_merge_that_takes_resident_blocks_writes_what_a_cold_one_writes() {
    rewrites_alike(true, merge);
}

#[test]
fn a_merge_of_wholly_resident_tablets_reads_nothing_from_disk() {
    let vfs = SimVfs::instant();
    let db = loaded(&vfs, 64 << 20, 4, 400);
    let t = db.table("t").unwrap();
    // Each tablet's first key: its block, in the upper tier, and every
    // block after it, read ahead into the lower one.
    query_keys(&t, 0..4);
    let blocks: usize = disk(&t)
        .iter()
        .map(|h| tiers(&t, h))
        .inspect(|w| assert!(w.starts_with("UL") && !w.contains('-'), "{w}"))
        .map(|w| w.len())
        .sum();
    vfs.clear_caches();
    let read = vfs.model().stats().bytes_read;
    let any_read = FaultRule::new(FaultKind::Eio).on_ops(&[OpKind::Read]);
    vfs.set_fault_plan(FaultPlan::new().rule(any_read));
    merge(&t);
    vfs.clear_fault_plan();
    assert_eq!(vfs.model().stats().bytes_read, read);
    assert_eq!(t.stats.snapshot().cache_run_hits, blocks as u64);
    query_keys(&t, 0..1600);
}

#[test]
fn a_partly_resident_merge_fails_whole_at_every_disk_read() {
    let want = {
        let vfs = SimVfs::instant();
        let db = loaded(&vfs, 0, 4, 2000);
        db.table("t").unwrap().query_all(&Query::all()).unwrap()
    };
    let mut failures = 0;
    for nth in 1.. {
        // The same start every time: a query would warm what it reads.
        let vfs = SimVfs::instant();
        let db = partly_resident(&vfs, 64 << 20);
        let t = db.table("t").unwrap();
        let warm: Vec<String> = disk(&t).iter().map(|h| tiers(&t, h)).collect();
        assert!(warm
            .iter()
            .all(|w| w.contains('U') && w.contains('L') && w.ends_with('-')));
        let before = files(&vfs, &t);
        let rule = FaultRule::new(FaultKind::Eio)
            .on_ops(&[OpKind::Read])
            .nth_match(nth);
        vfs.set_fault_plan(FaultPlan::new().rule(rule));
        let result = t.run_merge_once(START);
        vfs.clear_fault_plan();
        if vfs.faults_injected() == 0 {
            assert!(result.unwrap());
            assert!(t.stats.snapshot().cache_run_hits > 0);
            break;
        }
        failures += 1;
        assert!(result.is_err(), "read {nth} failed unreported");
        assert!(
            files(&vfs, &t) == before,
            "read {nth} left the files changed"
        );
        assert_eq!(disk(&t).len(), 4, "read {nth}");
        assert!(t.query_all(&Query::all()).unwrap() == want, "read {nth}");
    }
    assert!(failures >= 4, "{failures} reads failed");
}

#[test]
fn a_merge_takes_resident_blocks_and_leaves_the_cache_as_it_found_them() {
    let vfs = SimVfs::instant();
    let db = partly_resident(&vfs, 64 << 20);
    let t = db.table("t").unwrap();
    let c = &t.cache;
    // The inputs are held, so their entries outlive the merge.
    let inputs = disk(&t);
    let counts = || {
        let s = t.stats.snapshot();
        (s.cache_hits, s.cache_compressed_hits, s.cache_misses)
    };
    // Each CLOCK's hand, and the reference bits of the inputs' entries.
    let ids: Vec<u64> = inputs.iter().map(|h| h.reader.cache_id()).collect();
    let clocks = || {
        let clocks = crate::cache::tests::clocks(c).into_iter();
        clocks
            .map(|(hand, slots)| {
                let slots = slots.into_iter().flatten();
                (hand, slots.filter(|(k, _)| ids.contains(&k.0)).collect())
            })
            .collect::<Vec<(usize, Vec<_>)>>()
    };
    let state = || {
        let tiers: Vec<String> = inputs.iter().map(|h| tiers(&t, h)).collect();
        (counts(), tiers, clocks())
    };
    let sizes = || (c.entry_count(), c.compressed_entry_count(), c.bytes_used());
    let (before, (entries, lower, used)) = (state(), sizes());
    merge(&t);
    assert_eq!(state(), before);
    assert!(t.stats.snapshot().cache_run_hits > 0);
    // All the cache gained is the output's footer and the blocks it
    // inherited.
    let out = disk(&t).remove(0);
    let footer = c
        .peek_footer(out.reader.cache_id())
        .expect("a cached footer");
    let on = resident(&t, &out);
    let admitted = on.iter().filter(|&&on| on).count();
    let bytes: usize = (footer.blocks.iter().zip(&on))
        .filter(|(_, &on)| on)
        .map(|(e, _)| e.compressed_len as usize)
        .sum();
    assert_eq!(t.stats.snapshot().cache_rewrite_admits, admitted as u64);
    assert_eq!(
        sizes(),
        (
            entries + 1,
            lower + admitted,
            used + footer.approx_byte_size() + bytes
        )
    );
}
