//! The v3 tablet format is frozen: `fixtures/tablet_v3.bin` was written
//! by the bit-at-a-time codec kernels and the bytewise CRC that predate
//! the word-at-a-time ones, and every later writer must reproduce its
//! blocks byte for byte from the same rows — bit streams, codec choices,
//! block boundaries and checksums — and its footer field for field, zone
//! maps included.
//!
//! The one declared exception is the footer's Bloom filter. The fixture's
//! was sized at 10 bits for every prefix of every row, repeats included
//! (30 bits a row on this three-column key); writers now size it at 10
//! bits per distinct prefix, so its bytes, and with them the compressed
//! footer, its CRC and the trailer, moved. The new filter is held to a
//! reference built from each distinct prefix once, and the fixture's own
//! larger filter must still pass every prefix of every row.
//!
//! `fixtures/tablet_v2.bin` holds the same rows in the row layout (footer
//! v2), written by the row writer just before it was deleted. Nothing can
//! reproduce it any more; it must keep reading back as the same rows.

use littletable_core::block::BlockEncoder;
use littletable_core::bloom::BloomBuilder;
use littletable_core::keyenc::component_end;
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::tablet::{TabletReader, TabletWriter};
use littletable_core::util::hash_bytes;
use littletable_core::value::{ColumnType, Value};
use littletable_core::Row;
use littletable_vfs::{Micros, SimVfs, Vfs};
use std::collections::BTreeSet;
use std::sync::Arc;

const FIXTURE: &[u8] = include_bytes!("fixtures/tablet_v3.bin");
const FIXTURE_V2: &[u8] = include_bytes!("fixtures/tablet_v2.bin");
const BLOCK_SIZE: usize = 48 << 10;

fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("dev", ColumnType::Str),
            ColumnDef::new("port", ColumnType::I32),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("count", ColumnType::I64),
            ColumnDef::new("load", ColumnType::F64),
            ColumnDef::new("note", ColumnType::Str),
            ColumnDef::new("tag", ColumnType::Str),
            ColumnDef::new("raw", ColumnType::Blob),
            ColumnDef::new("small", ColumnType::I32),
        ],
        &["dev", "port", "ts"],
    )
    .unwrap()
}

/// Every column type, in key order: an empty and a 300-byte device name,
/// one with an embedded NUL (escaped in the key), negative and extreme
/// ports; `count` walks a noisy counter through `i64::MIN`/`MAX`; `load`
/// visits NaN and both infinities; `note` is distinct on every row (more
/// than 256 per block, so the dictionary gives up and raw wins) with an
/// empty and a 300-byte value; `tag` is dictionary material.
fn rows() -> Vec<Row> {
    let devs = [
        String::new(),
        "a\0b".to_string(),
        "dev-7".to_string(),
        "x".repeat(300),
    ];
    let ports = [i32::MIN, -5, 0, 80, i32::MAX];
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut out = Vec::new();
    let mut i = 0i64;
    for dev in &devs {
        for &port in &ports {
            for tick in 0..90i64 {
                let r = next() as i64;
                let count = match i % 211 {
                    17 => i64::MIN,
                    18 => i64::MAX,
                    _ => i * 1000 + r % 97,
                };
                let load = match i % 173 {
                    5 => f64::NAN,
                    6 => f64::INFINITY,
                    7 => f64::NEG_INFINITY,
                    8 => -0.0,
                    _ => 20.0 + (r % 1000) as f64 / 8.0,
                };
                let note = match i % 401 {
                    3 => String::new(),
                    4 => "n".repeat(300),
                    _ => format!("note-{i}-{}", r % 1000),
                };
                out.push(Row::new(vec![
                    Value::Str(dev.clone()),
                    Value::I32(port),
                    // Regular minutes with an occasional jitter, so
                    // delta-of-delta uses more than its one-bit bucket.
                    Value::Timestamp(
                        1_600_000_000_000_000 + tick * 60_000_000 + (r % 3) * (tick % 7),
                    ),
                    Value::I64(count),
                    Value::F64(load),
                    Value::Str(note),
                    Value::Str(format!("tag-{}", (i / 40) % 5)),
                    Value::Blob(if i % 50 == 0 {
                        Vec::new()
                    } else {
                        (r as u32).to_le_bytes()[..(i % 5) as usize].to_vec()
                    }),
                    Value::I32((r % 100_000) as i32 - 50_000),
                ]));
                i += 1;
            }
        }
    }
    out
}

/// Writes `rows()` as one block of all of them, handed to the writer in
/// runs that start and stop anywhere, the way a flush or a merge hands
/// them over.
fn write_tablet(vfs: &SimVfs, path: &str) -> Vec<u8> {
    let s = schema();
    let mut encoder = BlockEncoder::new(&s);
    for row in rows() {
        encoder.add(&row).unwrap();
    }
    let block = encoder.into_block(&s);
    let mut w = TabletWriter::new(vfs.create(path, 0).unwrap(), s.clone(), BLOCK_SIZE, true);
    for run in [0..1, 1..700, 700..701, 701..block.len()] {
        w.add_run(&block, run, Micros::MIN).unwrap();
    }
    w.finish().unwrap();
    read_file(vfs, path)
}

fn read_file(vfs: &SimVfs, path: &str) -> Vec<u8> {
    let f = vfs.open(path).unwrap();
    let mut all = vec![0u8; f.len().unwrap() as usize];
    f.read_exact_at(0, &mut all).unwrap();
    all
}

/// A reader over a tablet file holding `bytes`.
fn reader_over(bytes: &[u8]) -> TabletReader {
    let vfs = SimVfs::instant();
    let mut w = vfs.create("tablet.lt", 0).unwrap();
    w.append(bytes).unwrap();
    drop(w);
    TabletReader::new(Arc::new(vfs) as Arc<dyn Vfs>, "tablet.lt".into())
}

/// Every prefix of `rows()`' keys at a component boundary, each once.
fn distinct_prefixes() -> BTreeSet<Vec<u8>> {
    let s = schema();
    let mut prefixes = BTreeSet::new();
    for row in rows() {
        let key = row.encode_key(&s).unwrap();
        let mut end = 0;
        for ty in s.key_types() {
            end = component_end(&key, end, ty).unwrap();
            prefixes.insert(key[..end].to_vec());
        }
    }
    prefixes
}

#[test]
fn writer_reproduces_the_checked_in_tablet_byte_for_byte() {
    let vfs = SimVfs::instant();
    let written = write_tablet(&vfs, "new.lt");
    let (got, want) = (reader_over(&written), reader_over(FIXTURE));
    let (got, want) = (got.footer().unwrap(), want.footer().unwrap());

    // The blocks, byte for byte.
    let last = want.blocks.last().unwrap();
    let footer_off = (last.offset + last.compressed_len as u64) as usize;
    if let Some(at) = written[..footer_off]
        .iter()
        .zip(&FIXTURE[..footer_off])
        .position(|(a, b)| a != b)
    {
        panic!("block bytes differ from the fixture first at offset {at}");
    }

    // The footer, field for field, except the Bloom filter.
    assert_eq!(got.schema, want.schema);
    assert_eq!((got.min_ts, got.max_ts), (want.min_ts, want.max_ts));
    assert_eq!(got.row_count, want.row_count);
    assert_eq!(got.blocks, want.blocks);

    // The filter: one 10-bit share per distinct prefix.
    let mut reference = BloomBuilder::new();
    for prefix in distinct_prefixes() {
        reference.add_hash(hash_bytes(&prefix));
    }
    let (mut got_bloom, mut want_bloom) = (Vec::new(), Vec::new());
    got.bloom.as_ref().unwrap().encode(&mut got_bloom);
    reference.build(10).encode(&mut want_bloom);
    assert!(got_bloom == want_bloom, "Bloom filter bytes moved");
}

/// Reads `fixture` back block by block and holds every row and every
/// key — the block's arena keys and the index's stored last keys alike —
/// to `rows()`. Returns the reader.
fn reads_back_row_for_row(fixture: &[u8]) -> TabletReader {
    let s = schema();
    let r = reader_over(fixture);
    let footer = r.footer().unwrap();
    assert_eq!(footer.schema, s);
    assert!(footer.bloom.is_some());
    assert!(footer.blocks.len() >= 3, "{} blocks", footer.blocks.len());
    let expect = rows();
    assert_eq!(footer.row_count as usize, expect.len());
    let mut at = 0usize;
    let mut key = Vec::new();
    for bi in 0..footer.blocks.len() {
        let blk = r.read_block(bi).unwrap();
        for j in 0..blk.len() {
            let got = blk.row(j).unwrap();
            // `Value`'s equality is IEEE on doubles; compare those by bits
            // so NaN and the sign of zero count.
            for (g, e) in got.values.iter().zip(&expect[at].values) {
                match (g, e) {
                    (Value::F64(g), Value::F64(e)) => assert_eq!(g.to_bits(), e.to_bits()),
                    _ => assert_eq!(g, e, "row {at}"),
                }
            }
            blk.key_into(j, &mut key).unwrap();
            assert_eq!(key, expect[at].encode_key(&s).unwrap());
            at += 1;
        }
        // The key the writer stored for the block's last row is the key
        // the block derives for it.
        assert_eq!(key, footer.blocks[bi].last_key);
    }
    assert_eq!(at, expect.len());
    r
}

#[test]
fn fixture_reads_back_row_for_row() {
    let r = reads_back_row_for_row(FIXTURE);
    let footer = r.footer().unwrap();
    assert!(
        footer.blocks.iter().any(|b| b.rows > 256),
        "some block must overflow the one-byte dictionary code space"
    );
    for (bi, entry) in footer.blocks.iter().enumerate() {
        assert_eq!(r.read_block(bi).unwrap().len(), entry.rows as usize);
    }
    // A tablet written before filters were sized by distinct prefixes
    // keeps answering from its own, larger filter: 30 bits a row here.
    let bloom = footer.bloom.as_ref().unwrap();
    let rows = footer.row_count;
    assert_eq!(bloom.byte_size() as u64 * 8, (30 * rows).div_ceil(64) * 64);
    for prefix in distinct_prefixes() {
        assert!(bloom.may_contain(hash_bytes(&prefix)));
    }
}

#[test]
fn v2_fixture_reads_back_row_for_row() {
    let r = reads_back_row_for_row(FIXTURE_V2);
    // A v2 index carries neither row counts nor zone maps.
    let footer = r.footer().unwrap();
    assert!(footer
        .blocks
        .iter()
        .all(|b| b.rows == 0 && b.zones.is_empty()));
}
