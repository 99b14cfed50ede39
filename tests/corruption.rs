//! Corruption-path suite: every way a tablet file can rot on disk —
//! truncation, flipped magic, overflowing trailer geometry, footer CRC
//! damage, zeroed or bit-flipped block bytes — must surface as
//! `Error::Corrupt`, never a panic, with the two-tier block cache enabled
//! and disabled alike. Runs under the debug profile too, so checked
//! arithmetic (overflow panics on) is exercised for real.
//!
//! Footer-level damage is caught eagerly at open, which quarantines the
//! tablet (renamed aside, dropped from the descriptor); block-level
//! damage passes open (the footer validates) and must fail the query.
//!
//! Block-level damage is done to both layouts a tablet can have on disk:
//! the columnar one (footer v3) in a tablet the test writes, and the row
//! one (footer v2), which nothing writes any more, in a tablet of the
//! frozen table of `common/table_v2.rs`.

use littletable::core::descriptor::parse_tablet_file_name;
use littletable::core::table::{PushdownRequest, QUARANTINE_SUFFIX};
use littletable::vfs::{join, Clock, SimClock, SimVfs, Vfs};
use littletable::{ColumnDef, ColumnType, Db, Error, Options, Query, Schema, Value};
use std::sync::Arc;

#[path = "common/table_v2.rs"]
mod table_v2;

const START: i64 = 1_700_000_000_000_000;

/// Trailer layout: [ulen u64][clen u64][footer_off u64][crc u32][magic u64].
const TRAILER_LEN: usize = 36;

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

fn read_file(vfs: &SimVfs, path: &str) -> Vec<u8> {
    let f = vfs.open(path).unwrap();
    let len = f.len().unwrap() as usize;
    let mut buf = vec![0u8; len];
    f.read_exact_at(0, &mut buf).unwrap();
    buf
}

fn write_file(vfs: &SimVfs, path: &str, bytes: &[u8]) {
    let mut f = vfs.create(path, bytes.len() as u64).unwrap();
    f.append(bytes).unwrap();
    f.sync().unwrap();
}

/// The on-disk layout of the tablet a case damages.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Footer v2, from the frozen table.
    FrozenRow,
    /// Footer v3, freshly written.
    Columnar,
}

/// Writes a real merged tablet, applies `mutate` to its file bytes, and
/// returns the VFS + clock + corrupted file path, ready for reopening.
fn build_corrupted(mutate: &dyn Fn(&mut Vec<u8>)) -> (SimVfs, SimClock, String) {
    let clock = SimClock::new(START);
    let vfs = SimVfs::instant();
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let table = db.create_table("t", schema(), None).unwrap();
    for i in 0..600i64 {
        table
            .insert(vec![vec![
                Value::I64(i),
                Value::Timestamp(START + i),
                Value::Blob(vec![(i % 251) as u8; 100]),
            ]])
            .unwrap();
    }
    table.flush_all().unwrap();
    while table.run_merge_once(clock.now_micros()).unwrap() {}
    drop((table, db));
    let path = corrupt_a_tablet(&vfs, mutate);
    (vfs, clock, path)
}

/// Applies `mutate` to the bytes of table `t`'s first tablet file and
/// returns its path.
fn corrupt_a_tablet(vfs: &SimVfs, mutate: &dyn Fn(&mut Vec<u8>)) -> String {
    let tablet_name = vfs
        .list_dir("t")
        .unwrap()
        .into_iter()
        .find(|name| parse_tablet_file_name(name).is_some())
        .expect("the table must have a tablet file");
    let path = join("t", &tablet_name);
    let mut bytes = read_file(vfs, &path);
    mutate(&mut bytes);
    write_file(vfs, &path, &bytes);
    path
}

/// Reopens the corrupted store and returns the error the query path
/// yields. Queried twice so a partial first read can't leave a cache tier
/// that masks (or worse, trips over) the corruption on the retry.
fn corrupt_and_query(layout: Layout, cache_bytes: usize, mutate: &dyn Fn(&mut Vec<u8>)) -> Error {
    let (vfs, clock) = match layout {
        Layout::Columnar => {
            let (vfs, clock, _) = build_corrupted(mutate);
            (vfs, clock)
        }
        Layout::FrozenRow => {
            let vfs = SimVfs::instant();
            table_v2::install(&vfs);
            corrupt_a_tablet(&vfs, mutate);
            (vfs, SimClock::new(table_v2::WRITTEN_AT))
        }
    };
    let opts = Options {
        block_cache_bytes: cache_bytes,
        ..Options::small_for_tests()
    };
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
    let table = db.table("t").unwrap();
    let first = table.query_all(&Query::all());
    let second = table.query_all(&Query::all());
    assert!(second.is_err(), "retry after corruption must still fail");
    let req = PushdownRequest {
        query: Query::all(),
        predicates: Vec::new(),
        stats_cols: None,
    };
    let scanned = table.pushdown_scan(&req, &mut |_| Ok(()));
    assert!(
        matches!(scanned, Err(Error::Corrupt(_))),
        "pushdown over a corrupt {layout:?} block must be Corrupt, got {scanned:?}"
    );
    first.expect_err("corrupted tablet must fail the query")
}

/// Block-level damage: the footer validates at open, so the tablet is
/// served and the query path must yield `Error::Corrupt` with the cache
/// enabled (both tiers in play) and disabled (the paper's uncached path).
fn assert_corrupt(label: &str, mutate: &dyn Fn(&mut Vec<u8>)) {
    for layout in [Layout::FrozenRow, Layout::Columnar] {
        for cache_bytes in [64 << 20, 0] {
            let err = corrupt_and_query(layout, cache_bytes, mutate);
            assert!(
                matches!(err, Error::Corrupt(_)),
                "{label} (layout={layout:?}, cache_bytes={cache_bytes}): \
                 expected Corrupt, got {err:?}"
            );
        }
    }
}

/// Footer-level damage: caught eagerly at open, which quarantines the
/// tablet and serves the (now empty) table.
fn assert_footer_corrupt(label: &str, mutate: &dyn Fn(&mut Vec<u8>)) {
    let (vfs, clock, path) = build_corrupted(mutate);
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap_or_else(|e| panic!("{label}: default open must quarantine, got {e:?}"));
    let table = db.table("t").unwrap();
    assert_eq!(
        table.stats().snapshot().tablets_quarantined,
        1,
        "{label}: quarantine not counted"
    );
    assert!(
        !vfs.exists(&path) && vfs.exists(&format!("{path}{QUARANTINE_SUFFIX}")),
        "{label}: file not renamed aside"
    );
    let rows = table.query_all(&Query::all()).unwrap();
    assert!(rows.is_empty(), "{label}: quarantined tablet still serving");
    // The table stays writable after losing the tablet.
    table
        .insert(vec![vec![
            Value::I64(9_999),
            Value::Timestamp(START + 9_999),
            Value::Blob(vec![1; 8]),
        ]])
        .unwrap();
}

#[test]
fn truncated_file_is_corrupt() {
    assert_footer_corrupt("truncate to 10 bytes", &|bytes| bytes.truncate(10));
}

#[test]
fn truncated_trailer_is_corrupt() {
    assert_footer_corrupt("drop the last byte", &|bytes| {
        bytes.truncate(bytes.len() - 1)
    });
}

#[test]
fn flipped_magic_is_corrupt() {
    assert_footer_corrupt("flip a magic byte", &|bytes| {
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
    });
}

#[test]
fn overflowing_footer_offset_is_corrupt() {
    // footer_off + clen + TRAILER_LEN overflows u64: the geometry check
    // must use checked arithmetic, not panic in debug builds.
    assert_footer_corrupt("footer_off = u64::MAX", &|bytes| {
        let at = bytes.len() - TRAILER_LEN + 16;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    });
}

#[test]
fn overflowing_compressed_len_is_corrupt() {
    assert_footer_corrupt("clen = u64::MAX", &|bytes| {
        let at = bytes.len() - TRAILER_LEN + 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    });
}

#[test]
fn flipped_footer_crc_is_corrupt() {
    assert_footer_corrupt("flip the footer CRC", &|bytes| {
        let at = bytes.len() - 12;
        bytes[at] ^= 0xFF;
    });
}

#[test]
fn flipped_footer_bytes_are_corrupt() {
    // Damage the compressed footer itself; the CRC must catch it.
    assert_footer_corrupt("flip first footer byte", &|bytes| {
        let at = bytes.len() - TRAILER_LEN + 16;
        let footer_off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        bytes[footer_off] ^= 0xFF;
    });
}

#[test]
fn zeroed_block_bytes_are_corrupt() {
    // Zeroed compressed bytes fail the block's CRC (footer v2) before
    // the decompressor ever runs; under footer v1 they would still fail
    // inside the decompressor (a zero token is followed by a zero
    // back-reference offset, which is invalid).
    assert_corrupt("zero the first block", &|bytes| {
        let at = bytes.len() - TRAILER_LEN + 16;
        let footer_off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        for b in &mut bytes[..64.min(footer_off)] {
            *b = 0;
        }
    });
}

#[test]
fn flipped_block_bit_is_corrupt() {
    // A single flipped bit inside a block's compressed bytes can keep
    // the compression framing intact and decompress to exactly the
    // expected length with silently wrong row data. The per-block CRC
    // in the footer's index (footer v2) must catch it on read.
    for at in [8usize, 40, 100] {
        assert_corrupt(&format!("flip one bit at offset {at}"), &move |bytes| {
            let trailer_at = bytes.len() - TRAILER_LEN + 16;
            let footer_off =
                u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
            assert!(at < footer_off, "offset must land inside block data");
            bytes[at] ^= 0x01;
        });
    }
}

#[test]
fn flipped_zone_map_bytes_are_corrupt() {
    // The per-column zone maps live in the footer's block index (footer
    // v3). Flip bytes across the compressed footer region — wherever the
    // zones land, the footer CRC must catch the damage at open, so a
    // poisoned zone can never silently prune (or admit) the wrong
    // blocks.
    for frac in [4usize, 2, 3] {
        assert_footer_corrupt(&format!("flip footer byte at len/{frac}"), &move |bytes| {
            let at = bytes.len() - TRAILER_LEN + 16;
            let footer_off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            let footer_len = bytes.len() - TRAILER_LEN - footer_off;
            bytes[footer_off + footer_len / frac] ^= 0x10;
        });
    }
}

#[test]
fn aggregate_pushdown_surfaces_block_corruption() {
    // A flipped bit inside a columnar block's per-column slices must
    // fail the pushdown scan with `Error::Corrupt` — never feed a wrong
    // slice into an aggregate.
    let (vfs, clock, _) = build_corrupted(&|bytes| {
        let at = bytes.len() - TRAILER_LEN + 16;
        let footer_off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        bytes[footer_off / 2] ^= 0x01;
    });
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let table = db.table("t").unwrap();

    // Value-reading scan: must hit the damaged block and fail.
    let req = PushdownRequest {
        query: Query::all(),
        predicates: Vec::new(),
        stats_cols: None,
    };
    let res = table.pushdown_scan(&req, &mut |_| Ok(()));
    assert!(
        matches!(res, Err(Error::Corrupt(_))),
        "pushdown over corrupt block must be Corrupt, got {res:?}"
    );

    // Stats-only scan: answered from the (CRC-validated) footer without
    // touching block bytes, so it still returns the exact row count.
    let req = PushdownRequest {
        query: Query::all(),
        predicates: Vec::new(),
        stats_cols: Some(Vec::new()),
    };
    let mut rows = 0u64;
    table
        .pushdown_scan(&req, &mut |u| {
            if let littletable::core::table::ScanUnit::Stats { rows: r, .. } = u {
                rows += r;
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(rows, 600);
}
