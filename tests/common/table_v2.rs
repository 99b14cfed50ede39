//! The frozen footer-v2 table: the last bytes this repository's row-layout
//! tablet writer produced before it was deleted.
//!
//! `tests/fixtures/table_v2/` is the directory of table `t`
//! (`a INT64, b INT32, ts TIMESTAMP, i INT64, n INT32, f DOUBLE, s TEXT,
//! x INT64 DEFAULT 7; PRIMARY KEY (a, b, ts)` — the differential test's
//! table) as that writer left it: a `DESC` and three row-layout tablets
//! with Bloom filters and 512-byte blocks, holding `row(0..ROWS)`, one
//! tablet per value of `a`. No code can write these files any more;
//! every test of reading, scanning, merging and corrupting legacy
//! tablets starts from [`install`].
//!
//! Included by `#[path]` from test modules of several crates, inside and
//! outside `littletable-core`, so it names `Value` through the including
//! module, which must have it in scope.

#![allow(dead_code)] // each including test uses a subset

use super::Value;
use littletable_vfs::{SimVfs, Vfs};

/// Timestamp of the first tick, µs.
pub const START: i64 = 1_700_000_000_000_000;
/// One second, µs.
pub const SEC: i64 = 1_000_000;
/// The table's name and directory.
pub const TABLE: &str = "t";
/// Rows in the frozen tablets: `row(0)` to `row(ROWS - 1)`.
pub const ROWS: usize = 216;
/// Block size the tablets were written with.
pub const BLOCK_SIZE: usize = 512;
/// The clock when the tablets were written. A database opened earlier
/// than this finds them too young to merge.
pub const WRITTEN_AT: i64 = START + 3600 * SEC;

/// The table directory, file by file.
const FILES: [(&str, &[u8]); 4] = [
    ("DESC", include_bytes!("../fixtures/table_v2/DESC")),
    (
        "tab-0000000000000001.lt",
        include_bytes!("../fixtures/table_v2/tab-0000000000000001.lt"),
    ),
    (
        "tab-0000000000000002.lt",
        include_bytes!("../fixtures/table_v2/tab-0000000000000002.lt"),
    ),
    (
        "tab-0000000000000003.lt",
        include_bytes!("../fixtures/table_v2/tab-0000000000000003.lt"),
    ),
];

/// Copies the table into `vfs`, ready for `Db::open` to find.
pub fn install(vfs: &SimVfs) {
    vfs.mkdir_all(TABLE).unwrap();
    for (name, bytes) in FILES {
        let mut f = vfs
            .create(&littletable_vfs::join(TABLE, name), bytes.len() as u64)
            .unwrap();
        f.append(bytes).unwrap();
        f.sync().unwrap();
    }
    vfs.sync_dir(TABLE).unwrap();
}

/// Row `i` of the table, for any `i`: 24 ticks to a `(a, b)`, three `b`
/// to an `a`, so rows come in key order and `row(ROWS..)` are fresh keys
/// that sort after every frozen one. `i` is sometimes too large to sum
/// in int64 and `f` sometimes NaN, otherwise a multiple of 1/4.
pub fn row(i: usize) -> Vec<Value> {
    // splitmix64 of the index.
    let mut h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let (a, b, tick) = (i / 72, i / 24 % 3, i % 24);
    // Every (a, b) starts exactly on START, so tablets tie on their
    // first timestamp and are read in the order they were written.
    let jitter = if tick == 0 { 0 } else { h % 3 };
    vec![
        Value::I64(a as i64),
        Value::I32(b as i32),
        Value::Timestamp(START + tick as i64 * SEC + jitter as i64),
        Value::I64(if (h >> 4).is_multiple_of(10) {
            i64::MAX / 2 + ((h >> 8) % 1000) as i64
        } else {
            ((h >> 8) % 101) as i64 - 50
        }),
        Value::I32(((h >> 20) % 2001) as i32 - 1000),
        Value::F64(if (h >> 32).is_multiple_of(12) {
            f64::NAN
        } else {
            (((h >> 36) % 65) as f64 - 32.0) / 4.0
        }),
        Value::Str(format!("u{}", (h >> 44) % 5)),
        Value::I64(((h >> 48) % 9) as i64),
    ]
}

/// The frozen rows, in key order.
pub fn rows() -> Vec<Vec<Value>> {
    (0..ROWS).map(row).collect()
}
