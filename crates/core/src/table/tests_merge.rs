//! The block-at-a-time merge against a merge nobody would run: collect
//! every row of every source, sort, write row by row. Over every kind of
//! source the same rows must yield the same *file* — block boundaries,
//! codec choices, zone maps, Bloom bits, timespan and all.

use super::state::DiskHandle;
use super::*;
use crate::db::Db;
use crate::descriptor::{parse_tablet_file_name, tablet_file_name};
use crate::keyenc::{encode_prefix, KeyRange};
use crate::query::Query;
use crate::row::Row;
use crate::schema::ColumnDef;
use crate::tablet::TabletWriter;
use crate::value::{ColumnType, Value};
use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind, SimClock, SimVfs, MICROS_PER_SEC};

#[path = "../../../../tests/common/table_v2.rs"]
mod table_v2;

const SEC: Micros = MICROS_PER_SEC;
const START: Micros = 1_700_000_000 * MICROS_PER_SEC;
/// Tablet id the merges under test write to; they are never committed.
const OUT_ID: u64 = 900_001;

/// The reference merge: every source read whole, each row materialized,
/// translated to `schema` and keyed; all of them sorted and written to
/// `path` one `add_row` at a time. `drop` leaves out the rows inside a
/// key range, which makes a single-source call the rewrite a bulk delete
/// performs. Returns `(rows written, rows dropped by the range)`.
fn write_by_rows(
    t: &Table,
    sources: &[DiskHandle],
    schema: &SchemaRef,
    cutoff: Micros,
    drop: Option<&KeyRange>,
    path: &str,
) -> Result<(u64, u64)> {
    let mut rows = Vec::new();
    for h in sources {
        let footer = h.reader.footer()?;
        for bi in 0..footer.blocks.len() {
            let block = h.reader.read_block(bi)?;
            for i in 0..block.len() {
                let values = block.row(i)?.values;
                let row = Row::new(footer.schema.translate_row(schema, values)?);
                rows.push((row.encode_key(schema)?, row));
            }
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let size_hint = sources.iter().map(|h| h.meta.bytes).sum();
    let mut w = TabletWriter::new(
        t.vfs.create(path, size_hint)?,
        (**schema).clone(),
        t.opts.block_size,
        t.opts.bloom_filters,
    );
    let mut dropped = 0;
    for (key, row) in &rows {
        if drop.is_some_and(|r| r.contains(key)) {
            dropped += 1;
        } else if row.ts(schema)? >= cutoff {
            w.add_row(key, row)?;
        }
    }
    let rows = w.row_count();
    if rows > 0 {
        w.finish()?;
    }
    Ok((rows, dropped))
}

fn file_bytes(vfs: &SimVfs, path: &str) -> Vec<u8> {
    let f = vfs.open(path).unwrap();
    let mut all = vec![0u8; f.len().unwrap() as usize];
    f.read_exact_at(0, &mut all).unwrap();
    all
}

struct Bed {
    /// Keeps the engine the table belongs to alive.
    _db: Db,
    vfs: SimVfs,
    clock: SimClock,
    t: Arc<Table>,
}

fn opts() -> Options {
    Options {
        // One tablet per `flush_all`, and no merge unless a test runs it.
        flush_size: 16 << 20,
        block_size: 4 << 10,
        merge_enabled: false,
        ..Options::default()
    }
}

fn wide_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("host", ColumnType::I64),
            ColumnDef::new("port", ColumnType::I32),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::I64),
            ColumnDef::new("load", ColumnType::F64),
            ColumnDef::new("note", ColumnType::Str),
        ],
        &["host", "port", "ts"],
    )
    .unwrap()
}

fn bed_on(vfs: SimVfs, clock: SimClock, table: impl FnOnce(&Db) -> Arc<Table>) -> Bed {
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts()).unwrap();
    let t = table(&db);
    Bed {
        _db: db,
        vfs,
        clock,
        t,
    }
}

fn bed(schema: Schema) -> Bed {
    bed_on(SimVfs::instant(), SimClock::new(START), |db| {
        db.create_table("m", schema, None).unwrap()
    })
}

/// A bed over the frozen footer-v2 table: three row-layout tablets that
/// no code can write any more.
fn frozen_bed() -> Bed {
    let vfs = SimVfs::instant();
    table_v2::install(&vfs);
    bed_on(vfs, SimClock::new(table_v2::WRITTEN_AT), |db| {
        db.table(table_v2::TABLE).unwrap()
    })
}

/// Inserts one row per (host, tick) under the table's current schema and
/// flushes them into one tablet.
fn load(b: &Bed, hosts: impl Iterator<Item = i64>, ticks: std::ops::Range<i64>) {
    let schema = b.t.schema();
    for h in hosts {
        let rows: Vec<Vec<Value>> = ticks
            .clone()
            .map(|k| {
                let n = h * 1000 + k;
                let mut row = vec![
                    Value::I64(h),
                    match schema.columns()[1].ty {
                        ColumnType::I32 => Value::I32((h % 3) as i32 - 1),
                        _ => Value::I64(h % 3 - 1),
                    },
                    Value::Timestamp(START + k * SEC),
                    Value::I64(n * 7),
                    Value::F64(if n % 97 == 0 {
                        f64::NAN
                    } else {
                        n as f64 / 4.0
                    }),
                    Value::Str(format!("note-{}", n % 11)),
                ];
                // Columns added since take a value of their own.
                for col in &schema.columns()[row.len()..] {
                    row.push(match col.ty {
                        ColumnType::I64 => Value::I64(n),
                        _ => col.default.clone(),
                    });
                }
                row
            })
            .collect();
        b.t.insert(rows).unwrap();
    }
    b.t.flush_all().unwrap();
}

/// `execute_merge` with its output at [`OUT_ID`], whatever was there before.
fn merge_to_out(
    b: &Bed,
    sources: &[DiskHandle],
    schema: &SchemaRef,
    ttl: Option<Micros>,
    now: Micros,
) -> Result<Option<DiskHandle>> {
    let _ = b.vfs.remove(&join(b.t.dir(), &tablet_file_name(OUT_ID)));
    b.t.state.lock().next_tablet_id = OUT_ID;
    b.t.execute_merge(sources, schema, ttl, now)
}

/// Merges every on-disk tablet of the table both ways and holds the
/// outputs to each other, byte for byte. Returns the merged file, `None`
/// when both agree that no row survived.
fn merges_agree(b: &Bed, ttl: Option<Micros>, now: Micros) -> Option<Vec<u8>> {
    let (sources, schema) = {
        let st = b.t.state.lock();
        (st.disk.clone(), st.schema.clone())
    };
    assert!(sources.len() >= 2, "{} sources", sources.len());
    let ref_path = join(b.t.dir(), "by-rows");
    let out_path = join(b.t.dir(), &tablet_file_name(OUT_ID));
    let _ = b.vfs.remove(&ref_path);
    let merged = merge_to_out(b, &sources, &schema, ttl, now).unwrap();
    let cutoff = ttl.map(|t| now - t).unwrap_or(Micros::MIN);
    let (ref_rows, _) = write_by_rows(&b.t, &sources, &schema, cutoff, None, &ref_path).unwrap();
    let Some(merged) = merged else {
        assert_eq!(ref_rows, 0, "the run merge dropped rows the row merge kept");
        return None;
    };
    assert_eq!(merged.meta.rows, ref_rows);
    let got = file_bytes(&b.vfs, &out_path);
    let want = file_bytes(&b.vfs, &ref_path);
    assert_eq!(got.len(), want.len(), "merged tablet length");
    if let Some(at) = got.iter().zip(&want).position(|(a, b)| a != b) {
        panic!("merged tablets differ first at byte {at} of {}", got.len());
    }
    assert_eq!(merged.meta.bytes, got.len() as u64);
    Some(got)
}

#[test]
fn interleaved_sources_two_to_five() {
    for k in 2..=5i64 {
        let b = bed(wide_schema());
        // Every source holds every host: runs of 40 rows take turns.
        for s in 0..k {
            load(&b, 0..12, s * 40..(s + 1) * 40);
        }
        let merged = merges_agree(&b, None, b.clock.now_micros()).unwrap();
        assert!(merged.len() > 4 << 10, "{k} sources");
    }
}

#[test]
fn disjoint_and_nested_key_ranges() {
    let b = bed(wide_schema());
    // Whole blocks go over in one run; the last source sits inside the
    // first one's key range.
    load(&b, 0..10, 0..60);
    load(&b, 20..30, 0..60);
    load(&b, 10..20, 0..60);
    load(&b, 3..6, 60..90);
    merges_agree(&b, None, b.clock.now_micros()).unwrap();
}

#[test]
fn a_run_ending_exactly_on_an_output_block_boundary() {
    let schema = Schema::new(
        vec![
            ColumnDef::new("host", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::I64),
        ],
        &["host", "ts"],
    )
    .unwrap();
    let b = bed(schema.clone());
    // 24 estimated bytes a row over a 22-byte header: a 4 kB block fills
    // on its 170th row, the last of every second 85-row run.
    for src in 0..2 {
        for h in (src..16).step_by(2) {
            let rows = (0..85)
                .map(|k| {
                    vec![
                        Value::I64(h),
                        Value::Timestamp(START + k * SEC),
                        Value::I64(h * k),
                    ]
                })
                .collect();
            b.t.insert(rows).unwrap();
        }
        b.t.flush_all().unwrap();
    }
    merges_agree(&b, None, b.clock.now_micros()).unwrap();
    let out = b.t.new_reader(join(b.t.dir(), &tablet_file_name(OUT_ID)));
    let footer = out.footer().unwrap();
    assert_eq!(footer.blocks.len(), 8);
    for (i, blk) in footer.blocks.iter().enumerate() {
        assert_eq!(blk.rows, 170);
        let last = encode_prefix(
            &[
                Value::I64(2 * i as i64 + 1),
                Value::Timestamp(START + 84 * SEC),
            ],
            &schema.key_types(),
        )
        .unwrap();
        assert_eq!(blk.last_key, last);
    }
}

/// What matters about a merge's I/O: it reads each input about 1 MB at a
/// time (§3.4.1: at most half its time goes to seeking between them), and
/// past the block cache — it streams every block exactly once, and
/// admitting them would evict the point-read working set.
#[test]
fn a_merge_reads_its_inputs_a_megabyte_at_a_time_past_the_cache() {
    // Three rows to a block, then one.
    merge_reads_in_runs(88, 240);
    merge_reads_in_runs(264, 80);
}

fn merge_reads_in_runs(pad_words: usize, hosts: i64) {
    let schema = Schema::new(
        vec![
            ColumnDef::new("host", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("pad", ColumnType::Str),
        ],
        &["host", "ts"],
    )
    .unwrap();
    let b = bed(schema);
    // The padding is noise no compressor shrinks, so each source is three
    // 1 MB reads long. Seven rows a host, the sources taking turns.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for src in 0..2 {
        for h in 0..hosts {
            let rows = (src * 7..(src + 1) * 7)
                .map(|k| {
                    let pad: String = (0..pad_words)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            format!("{x:016x}")
                        })
                        .collect();
                    vec![
                        Value::I64(h),
                        Value::Timestamp(START + k * SEC),
                        Value::Str(pad),
                    ]
                })
                .collect();
            b.t.insert(rows).unwrap();
        }
        b.t.flush_all().unwrap();
    }
    let (sources, schema) = {
        let st = b.t.state.lock();
        (st.disk.clone(), st.schema.clone())
    };
    assert_eq!(sources.len(), 2);
    let now = b.clock.now_micros();
    let merge = || merge_to_out(&b, &sources, &schema, None, now).map(drop);
    merge().unwrap(); // the sources' footers are in memory from here on
    let largest_block = sources
        .iter()
        .flat_map(|h| h.reader.footer().unwrap().blocks.clone())
        .map(|e| e.compressed_len as u64)
        .max()
        .unwrap();
    let cache = &b.t.cache;
    let cached = || {
        let s = b.t.stats().snapshot();
        let (hits, misses) = (s.cache_hits + s.cache_compressed_hits, s.cache_misses);
        (hits, misses, cache.entry_count(), cache.bytes_used())
    };
    let cached_before = cached();
    // How much a merge had read before each of its reads: fail the nth
    // and look at what the disk transferred up to it. The last entry is
    // the whole merge's, which no fault stopped.
    let mut read_before = Vec::new();
    loop {
        let nth = FaultRule::new(FaultKind::Eio)
            .on_ops(&[OpKind::Read])
            .nth_match(read_before.len() as u64 + 1);
        b.vfs.set_fault_plan(FaultPlan::new().rule(nth));
        b.vfs.clear_caches(); // the disk model's, which would hide a second read
        let from = b.vfs.model().stats().bytes_read;
        let finished = merge().is_ok();
        b.vfs.clear_fault_plan();
        read_before.push(b.vfs.model().stats().bytes_read - from);
        if finished {
            break;
        }
    }
    let reads: Vec<u64> = read_before.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(reads.len(), 6, "{reads:?}");
    for &read in &reads {
        assert!(
            read > largest_block && read <= crate::cursor::READ_RUN_BYTES as u64,
            "{reads:?}, blocks of up to {largest_block}"
        );
    }
    assert_eq!(cached(), cached_before, "a merge's reads went by the cache");
    let out_path = join(b.t.dir(), &tablet_file_name(OUT_ID));
    let ref_path = join(b.t.dir(), "by-rows");
    write_by_rows(&b.t, &sources, &schema, Micros::MIN, None, &ref_path).unwrap();
    assert!(file_bytes(&b.vfs, &out_path) == file_bytes(&b.vfs, &ref_path));
}

#[test]
fn frozen_row_tablets_among_fresh_columnar_ones() {
    let b = frozen_bed();
    // One fresh tablet interleaves with the frozen ones, run by run (the
    // same `(a, b)`, later ticks); the other sorts after them all.
    let later = |i: usize| {
        let mut row = table_v2::row(i);
        row[2] = Value::Timestamp(row[2].as_timestamp().unwrap() + 30 * SEC);
        row
    };
    let between: Vec<_> = (0..table_v2::ROWS).step_by(2).map(later).collect();
    let after: Vec<_> = (table_v2::ROWS..table_v2::ROWS + 72)
        .map(table_v2::row)
        .collect();
    let total = table_v2::ROWS + between.len() + after.len();
    b.t.insert(between).unwrap();
    b.t.flush_all().unwrap();
    b.t.insert(after).unwrap();
    b.t.flush_all().unwrap();
    // Reads span both layouts before any merge.
    assert_eq!(b.t.num_disk_tablets(), 5);
    assert_eq!(b.t.query_all(&Query::all()).unwrap().len(), total);
    merges_agree(&b, None, b.clock.now_micros()).unwrap();
    // What the merge wrote is the current layout, index statistics and all.
    let out = b.t.new_reader(join(b.t.dir(), &tablet_file_name(OUT_ID)));
    let footer = out.footer().unwrap();
    assert!(!footer.row_blocks);
    assert_eq!(footer.row_count as usize, total);
    let width = footer.schema.num_columns();
    for entry in &footer.blocks {
        assert!(entry.rows > 0 && entry.zones.len() == width);
    }
}

#[test]
fn frozen_row_tablets_scan_as_blocks_and_materialize_nothing() {
    let b = frozen_bed();
    let req = |query: Query, predicates: Vec<ColumnPredicate>| PushdownRequest {
        query,
        predicates,
        stats_cols: Some(Vec::new()),
    };
    let (lo, hi) = (table_v2::START + 5 * SEC, table_v2::START + 9 * SEC);
    let f_at_least_zero = ColumnPredicate {
        col: 5,
        op: PredOp::Ge,
        value: Value::F64(0.0),
    };
    type Expect<'a> = &'a dyn Fn(&[Value]) -> bool;
    let cases: [(PushdownRequest, Expect); 4] = [
        (req(Query::all(), vec![]), &|_| true),
        (
            req(Query::all().with_prefix(vec![Value::I64(1)]), vec![]),
            &|row| row[0] == Value::I64(1),
        ),
        (req(Query::all().with_ts_range(lo, hi), vec![]), &|row| {
            (lo..hi).contains(&row[2].as_timestamp().unwrap())
        }),
        (
            req(
                Query::all().with_prefix(vec![Value::I64(2)]),
                vec![f_at_least_zero.clone()],
            ),
            &|row| row[0] == Value::I64(2) && f_at_least_zero.matches(&row[5]),
        ),
    ];
    for (req, expect) in &cases {
        let mut selected = 0;
        b.t.pushdown_scan(req, &mut |unit| {
            let ScanUnit::Block { sel, .. } = unit else {
                panic!("a frozen tablet must scan as blocks, got {unit:?}");
            };
            selected += sel.len();
            Ok(())
        })
        .unwrap();
        let want = table_v2::rows().iter().filter(|r| expect(r)).count();
        assert!(want > 0);
        assert_eq!(selected, want, "{req:?}");
    }
    assert_eq!(b.t.stats().snapshot().rows_materialized, 0);
}

#[test]
fn schema_lagging_sources() {
    let b = bed(wide_schema());
    load(&b, 0..8, 0..50);
    b.t.add_column(ColumnDef::with_default(
        "extra",
        ColumnType::I64,
        Value::I64(-7),
    ))
    .unwrap();
    load(&b, 0..8, 50..100);
    b.t.widen_column("port").unwrap();
    load(&b, 2..10, 100..150);
    let merged = merges_agree(&b, None, b.clock.now_micros());
    assert!(merged.is_some());
    // The old tablets' rows came through translated.
    let rows = b.t.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 8 * 150);
    assert_eq!(rows[0].values[1], Value::I64(-1));
    assert_eq!(rows[0].values[6], Value::I64(-7));
}

#[test]
fn ttl_cutoff_inside_a_block_and_past_every_row() {
    let b = bed(wide_schema());
    load(&b, 0..8, 0..60);
    load(&b, 0..8, 60..120);
    let now = START + 200 * SEC;
    // Ticks 0..75 have expired: every block of the first source and a
    // stretch at the head of each run of the second.
    let cut = merges_agree(&b, Some(125 * SEC), now).unwrap();
    let all = merges_agree(&b, None, now).unwrap();
    assert!(cut.len() < all.len());
    // One tick survives, at the very end of every run.
    merges_agree(&b, Some(81 * SEC), now).unwrap();
    // Nothing does.
    assert!(merges_agree(&b, Some(80 * SEC), now).is_none());
    assert!(merges_agree(&b, Some(SEC), now).is_none());
}

#[test]
fn bulk_delete_of_a_middle_prefix() {
    let b = bed(wide_schema());
    load(&b, 0..12, 0..50);
    load(&b, 4..7, 50..100); // holds nothing but the prefix and neighbours
    load(&b, 5..6, 100..150); // holds nothing but the prefix: dropped whole
    load(&b, 8..12, 100..150); // does not hold the prefix: left alone
    let (sources, schema) = {
        let st = b.t.state.lock();
        (st.disk.clone(), st.schema.clone())
    };
    let prefix = [Value::I64(5)];
    let range = KeyRange::for_prefix(encode_prefix(&prefix, &schema.key_types()).unwrap());
    let mut want = Vec::new();
    let mut want_deleted = 0;
    for (i, h) in sources.iter().enumerate() {
        let path = join(b.t.dir(), &format!("by-rows-{i}"));
        let one = std::slice::from_ref(h);
        let (rows, dropped) =
            write_by_rows(&b.t, one, &schema, Micros::MIN, Some(&range), &path).unwrap();
        want_deleted += dropped;
        if dropped == 0 {
            want.push(file_bytes(&b.vfs, &join(b.t.dir(), &h.meta.file_name())));
        } else if rows > 0 {
            want.push(file_bytes(&b.vfs, &path));
        }
        b.vfs.remove(&path).unwrap();
    }
    assert_eq!(want.len(), 3);
    assert_eq!(b.t.bulk_delete(&prefix).unwrap(), want_deleted);
    let mut got: Vec<Vec<u8>> = b
        .vfs
        .list_dir(b.t.dir())
        .unwrap()
        .iter()
        .filter(|name| parse_tablet_file_name(name).is_some())
        .map(|name| file_bytes(&b.vfs, &join(b.t.dir(), name)))
        .collect();
    got.sort();
    want.sort();
    assert!(got == want, "rewritten tablets differ from the row rewrite");
}

fn tablet_listing(b: &Bed) -> Vec<String> {
    let mut names = b.vfs.list_dir(b.t.dir()).unwrap();
    names.sort();
    names
}

#[test]
fn a_bulk_delete_that_fails_part_way_leaves_nothing_behind() {
    let b = bed(wide_schema());
    load(&b, 0..12, 0..50);
    load(&b, 4..7, 50..100);
    load(&b, 5..6, 100..150); // dropped whole: nothing is written for it
    load(&b, 3..9, 150..200);
    let prefix = [Value::I64(5)];
    // Rows as text: a NaN equals itself there.
    let rows = || format!("{:?}", b.t.query_all(&Query::all()).unwrap());
    let rows_before = b.t.query_all(&Query::all()).unwrap();
    let shown_before = rows();
    let under_prefix = |r: &&Row| r.values[0] == prefix[0];
    let want_deleted = rows_before.iter().filter(under_prefix).count() as u64;
    let listing_before = tablet_listing(&b);
    // Fail each write to a replacement tablet in turn — its creation, every
    // append, its sync — until a call gets through with none failed.
    let mut failed = 0;
    let deleted = loop {
        let nth = FaultRule::new(FaultKind::Eio)
            .on_path(".lt")
            .on_ops(&[OpKind::Create, OpKind::Append, OpKind::Sync])
            .nth_match(failed + 1);
        b.vfs.set_fault_plan(FaultPlan::new().rule(nth));
        let injected = b.vfs.faults_injected();
        let result = b.t.bulk_delete(&prefix);
        b.vfs.clear_fault_plan();
        if b.vfs.faults_injected() == injected {
            break result.unwrap();
        }
        failed += 1;
        assert!(result.is_err(), "write {failed} failed and went unreported");
        assert_eq!(tablet_listing(&b), listing_before, "write {failed}");
        assert!(
            rows() == shown_before,
            "write {failed}: the table's rows moved"
        );
    };
    // Three tablets rewritten, each a creation, appends and a sync.
    assert!(failed >= 9, "{failed} writes failed");
    assert_eq!(deleted, want_deleted);
    let rows_after = b.t.query_all(&Query::all()).unwrap();
    assert_eq!(rows_after.len() as u64, rows_before.len() as u64 - deleted);
    assert!(!rows_after.iter().any(|r| under_prefix(&r)));
    assert_eq!(tablet_listing(&b).len(), listing_before.len() - 1);
}

#[test]
fn a_bulk_delete_steps_over_the_blocks_under_the_prefix_unread() {
    let b = bed(wide_schema());
    load(&b, 0..6, 0..400);
    let source = b.t.state.lock().disk[0].clone();
    let footer = source.reader.footer().unwrap(); // in memory from here on
    let schema = b.t.schema();
    let prefix = [Value::I64(3)];
    let range = KeyRange::for_prefix(encode_prefix(&prefix, &schema.key_types()).unwrap());
    let (std::ops::Bound::Included(first), std::ops::Bound::Excluded(past)) =
        (&range.start, &range.end)
    else {
        panic!("{range:?}");
    };
    // The index places the prefix's first row in block `lo` and the first
    // row past the prefix in block `hi`; the blocks between hold nothing
    // else.
    let lo = footer.blocks.partition_point(|e| e.last_key < *first);
    let hi = footer.blocks.partition_point(|e| e.last_key < *past);
    assert!(
        lo > 0 && hi < footer.blocks.len() - 1 && hi - lo > 3,
        "{lo} {hi}"
    );
    let bytes = |blocks: &[crate::tablet::BlockIndexEntry]| -> u64 {
        blocks.iter().map(|e| e.compressed_len as u64).sum()
    };
    // One block read to see that the tablet holds the prefix at all, then
    // the two stretches that stay.
    let want =
        bytes(&footer.blocks[lo..=lo]) + bytes(&footer.blocks[..=lo]) + bytes(&footer.blocks[hi..]);
    b.vfs.clear_caches();
    let read_before = b.vfs.model().stats().bytes_read;
    assert_eq!(b.t.bulk_delete(&prefix).unwrap(), 400);
    assert_eq!(b.vfs.model().stats().bytes_read - read_before, want);
    assert!(want < bytes(&footer.blocks) - bytes(&footer.blocks[lo + 1..hi]) / 2);
    assert_eq!(b.t.query_all(&Query::all()).unwrap().len(), 5 * 400);
}

#[test]
fn a_bulk_delete_probes_its_tablets_past_the_block_cache() {
    let b = bed(wide_schema());
    load(&b, 0..6, 0..400);
    load(&b, 2..5, 400..600);
    assert_eq!(b.t.num_disk_tablets(), 2);
    let before = b.t.stats().snapshot();
    let cache = &b.t.cache;
    let entries = (cache.entry_count(), cache.compressed_entry_count());
    assert_eq!(b.t.bulk_delete(&[Value::I64(3)]).unwrap(), 600);
    let after = b.t.stats().snapshot();
    assert_eq!(after.cache_misses, before.cache_misses);
    assert_eq!(after.cache_compressed_hits, before.cache_compressed_hits);
    // The replacements' footers, admitted as they were written, and no
    // block of the tablets replaced.
    assert_eq!(cache.entry_count(), entries.0);
    assert_eq!(cache.compressed_entry_count(), entries.1);
}
