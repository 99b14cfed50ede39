//! A rewrite hands its inputs' cache residency to its output: when a
//! tablet a merge or a bulk delete replaces had a block cached, each block
//! the rewrite writes enters the lower tier, into free space only.

use super::state::DiskHandle;
use super::*;
use crate::db::Db;
use crate::query::Query;
use crate::schema::ColumnDef;
use crate::tablet::TabletReader;
use crate::value::{ColumnType, Value};
use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind, SimClock, SimVfs};

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

/// Which blocks of `h`'s tablet are resident in either tier, its footer
/// peeked at: observing leaves every CLOCK as it was.
fn resident(t: &Table, h: &DiskHandle) -> Vec<bool> {
    let id = h.reader.cache_id();
    let footer = t.cache.peek_footer(id).expect("a cached footer");
    (0..footer.blocks.len() as u32)
        .map(|bi| t.cache.block_resident(id, bi))
        .collect()
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

#[test]
fn a_full_cache_keeps_its_resident_set_through_a_hot_merge() {
    let vfs = SimVfs::instant();
    {
        let db = open(&vfs, 0);
        // Table `a`: one row a block, each decoding to more than the upper
        // tier below holds.
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
    // Upper tier 45 kB, lower tier 15 kB. One key of table `b` is read,
    // so its block enters the upper tier. Then table `a`'s blocks, which
    // live in the lower tier alone, fill that.
    let db = open(&vfs, 64 << 10);
    let (a, b) = (db.table("a").unwrap(), db.table("b").unwrap());
    query_keys(&b, 150..151);
    query_keys(&a, 0..20);
    let cache = &a.cache;
    let lower = cache.compressed_capacity() - cache.compressed_bytes_used();
    assert!(lower < 2 << 10, "{lower} bytes free in the lower tier");
    let before: Vec<Vec<bool>> = disk(&a).iter().map(|h| resident(&a, h)).collect();
    assert!(before.iter().flatten().filter(|&&on| on).count() > 3);
    assert!(disk(&b).iter().any(|h| resident(&b, h).contains(&true)));
    merge(&b);
    let after: Vec<Vec<bool>> = disk(&a).iter().map(|h| resident(&a, h)).collect();
    assert_eq!(after, before);
    assert!(cache.bytes_used() <= cache.capacity());
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
