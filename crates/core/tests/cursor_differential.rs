//! Differential test of the query cursor against a reference nobody
//! would ship: collect every row, sort, filter, count.
//!
//! Each case lays a table out its own way — one to six flushed tablets
//! whose key ranges interleave or follow each other, blocks of one row or
//! of many, up to two memtablets, a first tablet written before a column
//! was added and two were widened, a TTL that cuts through the data — or
//! takes the frozen footer-v2 table of `tests/common/table_v2.rs` and adds
//! to it. Random queries then cross key bounds (prefixes and full keys,
//! inclusive and exclusive) with time bounds, both directions, a limit,
//! and a server row limit small enough to page. Every page must come back
//! identical from `next_run()`, from `next_row()` and from the two mixed,
//! with `scanned()`, `returned()` and `more_available()` what the
//! reference counts for that page; the pages together are the reference's
//! whole answer; `latest()` is the reference's newest row. One test fails
//! every disk read of a query in turn. Another takes the ascending leg no
//! query takes: tablet sources that read a run of blocks at a time, with
//! no cache to take a block from, which is how a merge drives the same
//! cursor, with every one of the merge's reads failed in turn.
//! Another leg opens the same layouts twice, with a roomy block cache
//! (where a miss reads the blocks after it too) and with none, and holds
//! every query, `latest()` and pushdown scan to the same answer; a third
//! does the same with a one-shard cache of a few blocks, which evicts
//! while queries run; one more
//! merges both after querying them, where the roomy cache's merges hand
//! what was cached in their inputs to their outputs, and does the same.

use littletable_core::period::period_for;
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::stats::StatsSnapshot;
use littletable_core::{
    ColumnPredicate, ColumnType, Db, Options, PredOp, PushdownRequest, Query, QueryCursor,
    ScanUnit, Table, Value,
};
use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind, SimClock, SimVfs, Vfs};
use proptest::prelude::*;
use std::sync::Arc;

#[path = "../../../tests/common/table_v2.rs"]
mod table_v2;

const START: i64 = table_v2::START;
const SEC: i64 = table_v2::SEC;
const DAY: i64 = 86_400 * SEC;
/// Every table is read an hour after its newest row could have been
/// written: recent rows share one four-hour period, rows ten days older
/// fall in a week of their own.
const NOW: i64 = table_v2::WRITTEN_AT;

/// splitmix64 over the case's seed: the layout and the queries follow
/// from it alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

type Row = Vec<Value>;

/// A row's primary key `(a, b, ts)`, whatever widths the columns have.
fn key_of(row: &Row) -> [i64; 3] {
    [0, 1, 2].map(|c| row[c].as_int().expect("key columns are integers"))
}

/// Rows with doubles turned to their bits, so that NaN equals itself.
fn canon(rows: &[Row]) -> Vec<Row> {
    let bits = |v: &Value| match v {
        Value::F64(x) => Value::I64(x.to_bits() as i64),
        v => v.clone(),
    };
    rows.iter().map(|r| r.iter().map(bits).collect()).collect()
}

/// The rows of one tablet, on disk or in memory, as the table's newest
/// schema shows them.
struct Group {
    rows: Vec<Row>,
    min_ts: i64,
    max_ts: i64,
}

/// One table and everything the reference knows about it.
struct Bed {
    /// Keeps the engine the table belongs to alive.
    _db: Db,
    vfs: SimVfs,
    t: Arc<Table>,
    groups: Vec<Group>,
    ttl: Option<i64>,
    server_limit: usize,
}

/// Splits a batch of rows the way the engine will: one tablet per time
/// period.
fn push_groups(groups: &mut Vec<Group>, batch: &[Row]) {
    let mut by_period: Vec<(i64, Vec<Row>)> = Vec::new();
    for row in batch {
        let start = period_for(key_of(row)[2], NOW).start;
        match by_period.iter_mut().find(|(p, _)| *p == start) {
            Some((_, rows)) => rows.push(row.clone()),
            None => by_period.push((start, vec![row.clone()])),
        }
    }
    for (_, rows) in by_period {
        let ts = rows.iter().map(|r| key_of(r)[2]);
        groups.push(Group {
            min_ts: ts.clone().min().unwrap(),
            max_ts: ts.max().unwrap(),
            rows,
        });
    }
}

/// A block cache larger than any layout here.
const ROOMY: usize = 1 << 20;
/// A block cache of a few of the largest blocks here (`block_size` 4096),
/// under the floor at which the cache would split into shards.
const SMALL: usize = 16 << 10;

fn open(vfs: &SimVfs, block_size: usize, server_limit: usize, cache_bytes: usize) -> Db {
    let opts = Options {
        block_size,
        server_row_limit: server_limit,
        merge_enabled: false,
        block_cache_bytes: cache_bytes,
        ..Options::default()
    };
    Db::open(Arc::new(vfs.clone()), Arc::new(SimClock::new(NOW)), opts).unwrap()
}

/// The table as its first tablet is written: no `x` yet, `n` still
/// `int32`.
fn old_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("a", ColumnType::I64),
            ColumnDef::new("b", ColumnType::I32),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("i", ColumnType::I64),
            ColumnDef::new("n", ColumnType::I32),
            ColumnDef::new("f", ColumnType::F64),
            ColumnDef::new("s", ColumnType::Str),
        ],
        &["a", "b", "ts"],
    )
    .unwrap()
}

/// A generated layout. A `cache_bytes` of 0 makes every block read a
/// disk read.
fn generated(rng: &mut Rng, cache_bytes: usize) -> Bed {
    let block_size = rng.pick(&[1, 160, 4096]);
    let server_limit = rng.pick(&[5, 1 << 20]);
    let batches = 1 + rng.below(6) as usize;
    let disjoint = rng.chance(50);
    let lagging = rng.chance(60);
    let widen_key = lagging && rng.chance(50);
    let with_mem = rng.chance(70);

    // Rows as the newest schema shows them, in key order, each with the
    // batch it is written in (`batches` = left in memory).
    let mut rows: Vec<(usize, Row)> = Vec::new();
    for a in 0..3i64 {
        for b in 0..3i64 {
            let old = (0..3).map(|k| (START - 10 * DAY + k * SEC, 30));
            for (tick, keep) in old.chain((0..12).map(|k| (START + k * SEC, 70))) {
                if !rng.chance(keep) {
                    continue;
                }
                let ts = tick + rng.below(3) as i64;
                let batch = if with_mem && rng.chance(15) {
                    batches
                } else if disjoint {
                    (a * 3 + b) as usize * batches / 9
                } else {
                    rng.below(batches as u64) as usize
                };
                let before_x = lagging && batch == 0;
                let s = match rng.below(8) {
                    0 => String::new(),
                    1 => "long-".repeat(40),
                    k => format!("u{k}"),
                };
                rows.push((
                    batch,
                    vec![
                        Value::I64(a),
                        if widen_key {
                            Value::I64(b)
                        } else {
                            Value::I32(b as i32)
                        },
                        Value::Timestamp(ts),
                        Value::I64(rng.below(101) as i64 - 50),
                        Value::I64(rng.below(2001) as i64 - 1000),
                        Value::F64(if rng.chance(10) {
                            f64::NAN
                        } else {
                            rng.below(65) as f64 / 4.0 - 8.0
                        }),
                        Value::Str(s),
                        Value::I64(if before_x { 7 } else { rng.below(9) as i64 }),
                    ],
                ));
            }
        }
    }

    let vfs = SimVfs::instant();
    let db = open(&vfs, block_size, server_limit, cache_bytes);
    let t = db.create_table("t", old_schema(), None).unwrap();
    let evolve = |t: &Table| {
        t.add_column(ColumnDef::with_default("x", ColumnType::I64, Value::I64(7)))
            .unwrap();
        t.widen_column("n").unwrap();
        if widen_key {
            t.widen_column("b").unwrap();
        }
    };
    if !lagging {
        evolve(&t);
    }
    let mut groups = Vec::new();
    for batch in 0..=batches {
        let own: Vec<Row> = rows
            .iter()
            .filter(|(b, _)| *b == batch)
            .map(|(_, r)| r.clone())
            .collect();
        let written: Vec<Row> = if lagging && batch == 0 {
            // As the old schema wants them: narrow, and without `x`.
            own.iter()
                .map(|r| {
                    let mut r = r[..7].to_vec();
                    for c in [1, 4] {
                        r[c] = Value::I32(r[c].as_int().unwrap() as i32);
                    }
                    r
                })
                .collect()
        } else {
            own.clone()
        };
        let report = t.insert(written).unwrap();
        assert_eq!((report.inserted, report.duplicates), (own.len(), 0));
        if batch < batches {
            t.flush_all().unwrap();
        }
        if lagging && batch == 0 {
            evolve(&t);
        }
        push_groups(&mut groups, &own);
    }
    let ttl = rng
        .chance(40)
        .then(|| NOW - (START + rng.below(12) as i64 * SEC));
    t.set_ttl(ttl).unwrap();
    Bed {
        _db: db,
        vfs,
        t,
        groups,
        ttl,
        server_limit,
    }
}

/// The frozen footer-v2 table (three row-layout tablets, one per `a`),
/// with, when `rng` says so, fresh rows flushed beside them and more left
/// in memory. A `cache_bytes` of 0 makes every block read a disk read.
fn frozen(rng: &mut Rng, cache_bytes: usize) -> Bed {
    let server_limit = rng.pick(&[7, 1 << 20]);
    let vfs = SimVfs::instant();
    table_v2::install(&vfs);
    let db = open(&vfs, table_v2::BLOCK_SIZE, server_limit, cache_bytes);
    let t = db.table(table_v2::TABLE).unwrap();
    let mut groups = Vec::new();
    for a in 0..3 {
        let own: Vec<Row> = table_v2::rows()
            .into_iter()
            .filter(|r| r[0] == Value::I64(a))
            .collect();
        push_groups(&mut groups, &own);
    }
    let mut next = table_v2::ROWS;
    for flushed in [true, false] {
        if rng.chance(60) {
            let own: Vec<Row> = (next..next + 40).map(table_v2::row).collect();
            next += 40;
            t.insert(own.clone()).unwrap();
            if flushed {
                t.flush_all().unwrap();
            }
            push_groups(&mut groups, &own);
        }
    }
    Bed {
        _db: db,
        vfs,
        t,
        groups,
        ttl: None,
        server_limit,
    }
}

/// What one submission of `q` must yield.
struct Page {
    rows: Vec<Row>,
    scanned: u64,
    more: bool,
}

/// Whether `key`'s leading components are at or above (`inclusive`) or
/// strictly above a lower prefix bound; mirrored for an upper bound.
fn above(key: &[i64; 3], bound: &[i64], inclusive: bool) -> bool {
    let head = &key[..bound.len()];
    head > bound || (inclusive && head == bound)
}

fn below(key: &[i64; 3], bound: &[i64], inclusive: bool) -> bool {
    let head = &key[..bound.len()];
    head < bound || (inclusive && head == bound)
}

fn ints(values: &[Value]) -> Vec<i64> {
    values.iter().map(|v| v.as_int().unwrap()).collect()
}

/// The reference: every row of every tablet whose timespan meets the
/// time bounds, filtered to the key bounds, sorted, then walked the way a
/// cursor is specified to walk — a row is examined, counted, and returned
/// if its timestamp is inside; the walk stops before the row that would
/// pass the limit, or the server's.
fn reference(bed: &Bed, q: &Query, server_limit: usize) -> Page {
    let (lo, hi) = q.ts_interval();
    let lo = bed.ttl.map_or(lo, |ttl| lo.max(NOW - ttl));
    let mut inside: Vec<&Row> = bed
        .groups
        .iter()
        .filter(|g| lo <= hi && g.max_ts >= lo && g.min_ts <= hi)
        .flat_map(|g| &g.rows)
        .filter(|r| {
            let key = key_of(r);
            q.key_min
                .as_ref()
                .is_none_or(|b| above(&key, &ints(&b.values), b.inclusive))
                && q.key_max
                    .as_ref()
                    .is_none_or(|b| below(&key, &ints(&b.values), b.inclusive))
        })
        .collect();
    inside.sort_by_key(|r| key_of(r));
    if q.descending {
        inside.reverse();
    }
    let mut page = Page {
        rows: Vec::new(),
        scanned: 0,
        more: false,
    };
    let mut inside = inside.into_iter();
    loop {
        if q.limit == Some(page.rows.len()) {
            break;
        }
        // A full page says there may be more without looking.
        if page.rows.len() == server_limit {
            page.more = true;
            break;
        }
        let Some(row) = inside.next() else {
            break;
        };
        page.scanned += 1;
        let ts = key_of(row)[2];
        if ts >= lo && ts <= hi {
            page.rows.push(row.clone());
        }
    }
    page
}

#[derive(Debug, Clone, Copy)]
enum Drain {
    Runs,
    Rows,
    Mixed,
}

/// Everything the cursor of a query has left, read the given way.
fn drain(cur: &mut QueryCursor, how: Drain, descending: bool) -> Vec<Row> {
    let mut out = Vec::new();
    for turn in 0.. {
        let by_run = match how {
            Drain::Runs => true,
            Drain::Rows => false,
            Drain::Mixed => turn % 3 == 0,
        };
        if by_run {
            let Some(run) = cur.next_run().unwrap() else {
                break;
            };
            assert!(!run.is_empty() && run.descending == descending);
            out.extend(run.indices().map(|i| run.block.row(i).unwrap().values));
        } else {
            match cur.next_row().unwrap() {
                Some(row) => out.push(row.values),
                None => break,
            }
        }
    }
    out
}

/// Submits `q`, and resubmits past the last row while the server says
/// there is more (what `Client::query` does), holding every page to the
/// reference. Returns all rows.
fn check_query(bed: &Bed, query: &Query, how: Drain) -> Vec<Row> {
    let mut q = query.clone();
    let mut out: Vec<Row> = Vec::new();
    loop {
        let want = reference(bed, &q, bed.server_limit);
        let before = bed.t.stats().snapshot();
        let mut cur = bed.t.query(&q).unwrap();
        let got = drain(&mut cur, how, q.descending);
        assert_eq!(canon(&got), canon(&want.rows), "{how:?} {q:?}");
        assert_eq!(cur.scanned(), want.scanned, "scanned, {how:?} {q:?}");
        assert_eq!(cur.returned(), got.len() as u64, "returned, {how:?} {q:?}");
        assert_eq!(cur.more_available(), want.more, "more, {how:?} {q:?}");
        drop(cur);
        let after = bed.t.stats().snapshot();
        assert_eq!(after.rows_scanned - before.rows_scanned, want.scanned);
        assert_eq!(after.rows_returned - before.rows_returned, got.len() as u64);
        let built = after.rows_materialized - before.rows_materialized;
        match how {
            Drain::Runs => assert_eq!(built, 0, "next_run() built rows"),
            Drain::Rows => assert_eq!(built, got.len() as u64),
            Drain::Mixed => assert!(built <= got.len() as u64),
        }
        out.extend(got);
        if !want.more {
            return out;
        }
        let last = out.last().expect("a full page holds rows");
        if q.descending {
            q = q.with_key_max(last[..3].to_vec(), false);
        } else {
            q = q.with_key_min(last[..3].to_vec(), false);
        }
        if let Some(limit) = query.limit {
            q.limit = Some(limit - out.len());
        }
    }
}

/// A key bound of one to three components, in and out of the data's
/// range, typed as the table's key columns are.
fn key_bound(rng: &mut Rng, t: &Table) -> Vec<Value> {
    let schema = t.schema();
    let wide_b = schema.columns()[1].ty == ColumnType::I64;
    let a = rng.below(5) as i64 - 1;
    let b = rng.below(5) as i64 - 1;
    let ts = if rng.chance(15) {
        START - 10 * DAY + rng.below(3) as i64 * SEC
    } else {
        START + rng.below(26) as i64 * SEC + rng.below(3) as i64
    };
    let full = [
        Value::I64(a),
        if wide_b {
            Value::I64(b)
        } else {
            Value::I32(b as i32)
        },
        Value::Timestamp(ts),
    ];
    full[..1 + rng.below(3) as usize].to_vec()
}

fn random_query(rng: &mut Rng, t: &Table) -> Query {
    let mut q = Query::all();
    match rng.below(4) {
        0 => {}
        1 => {
            let mut prefix = key_bound(rng, t);
            prefix.truncate(2);
            q = q.with_prefix(prefix);
        }
        _ => {
            if rng.chance(70) {
                q = q.with_key_min(key_bound(rng, t), rng.chance(50));
            }
            if rng.chance(70) {
                q = q.with_key_max(key_bound(rng, t), rng.chance(50));
            }
        }
    }
    let ts = |rng: &mut Rng| START + rng.below(26) as i64 * SEC + rng.below(3) as i64;
    if rng.chance(40) {
        q = q.with_ts_min(ts(rng), rng.chance(50));
    }
    if rng.chance(40) {
        q = q.with_ts_max(ts(rng), rng.chance(50));
    }
    if rng.chance(50) {
        q = q.descending();
    }
    match rng.below(10) {
        0 => q.with_limit(0),
        1..=3 => q.with_limit(1 + rng.below(20) as usize),
        _ => q,
    }
}

/// `latest()` for every prefix length, against the newest unexpired row
/// under the prefix — of rows that tie on the timestamp, the one with the
/// largest key.
fn check_latest(bed: &Bed, rng: &mut Rng) {
    let cutoff = bed.ttl.map_or(i64::MIN, |ttl| NOW - ttl);
    for len in 0..3 {
        let mut prefix = key_bound(rng, &bed.t);
        prefix.truncate(len);
        let (under, len) = (ints(&prefix), prefix.len());
        let want = bed
            .groups
            .iter()
            .flat_map(|g| &g.rows)
            .filter(|r| key_of(r)[..len] == under[..] && key_of(r)[2] >= cutoff)
            .max_by_key(|r| (key_of(r)[2], key_of(r)));
        let got = bed.t.latest(&prefix).unwrap().map(|r| r.values);
        assert_eq!(
            canon(got.as_slice()),
            canon(want.cloned().as_slice()),
            "latest({prefix:?})"
        );
    }
}

fn check_bed(bed: &Bed, rng: &mut Rng, queries: usize) {
    // The whole table first, then boxes.
    let everything = check_query(bed, &Query::all(), Drain::Runs);
    let unbounded = reference(bed, &Query::all(), usize::MAX).rows;
    assert_eq!(canon(&everything), canon(&unbounded));
    for _ in 0..queries {
        let q = random_query(rng, &bed.t);
        let want = reference(bed, &q, usize::MAX).rows;
        for how in [Drain::Runs, Drain::Rows, Drain::Mixed] {
            assert_eq!(canon(&check_query(bed, &q, how)), canon(&want), "{q:?}");
        }
    }
    check_latest(bed, rng);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn generated_layouts_answer_as_the_reference_does(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let bed = generated(&mut rng, ROOMY);
        check_bed(&bed, &mut rng, 12);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn the_frozen_row_table_answers_as_the_reference_does(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let bed = frozen(&mut rng, ROOMY);
        check_bed(&bed, &mut rng, 12);
    }
}

/// Fails the nth disk read of a query, for every n the query has: the
/// cursor reports the error — it neither panics nor ends early as if the
/// result were complete — and, asked again, makes the read again and
/// delivers the whole answer.
#[test]
fn a_failed_read_is_an_error_never_a_short_result() {
    for seed in [3, 17, 40] {
        let mut rng = Rng(seed);
        let bed = generated(&mut rng, 0);
        for q in [Query::all(), Query::all().descending()] {
            let want = reference(&bed, &q, bed.server_limit).rows;
            let mut failures = 0;
            for nth in 1.. {
                let rule = FaultRule::new(FaultKind::Eio)
                    .on_ops(&[OpKind::Read])
                    .nth_match(nth);
                bed.vfs.set_fault_plan(FaultPlan::new().rule(rule));
                let injected = bed.vfs.faults_injected();
                let mut cur = bed.t.query(&q).unwrap();
                let mut got = Vec::new();
                let mut errors = 0;
                // The cursor is asked again after an error, as a caller
                // that takes it for a transient one would: the read is
                // made again and the result comes out whole.
                loop {
                    match cur.next_run() {
                        Ok(Some(run)) => {
                            got.extend(run.indices().map(|i| run.block.row(i).unwrap().values))
                        }
                        Ok(None) => break,
                        Err(_) => {
                            errors += 1;
                            bed.vfs.clear_fault_plan();
                        }
                    }
                }
                bed.vfs.clear_fault_plan();
                let hit = (bed.vfs.faults_injected() - injected) as usize;
                assert_eq!(errors, hit, "read {nth}: errors reported and injected");
                assert_eq!(canon(&got), canon(&want), "read {nth}");
                if hit == 0 {
                    break;
                }
                failures += 1;
            }
            assert!(failures >= 2, "{failures} reads failed");
        }
    }
}

/// The cursor as a merge drives it: ascending, every tablet source
/// reading a run of blocks at a time, with no block cache. Every read of
/// one merge is failed in turn, and each failure must be an error that
/// leaves the table's files and answers alone. Which tablets then merged
/// is the policy's choice, so what the merged table answers is held to
/// the reference by queries without time bounds, whose rows and scan
/// counts do not depend on how the rows are split among tablets.
#[test]
fn a_merge_keeps_what_the_reference_keeps_with_every_read_failed_in_turn() {
    type Layout = fn(&mut Rng) -> Bed;
    let beds: [(u64, Layout); 4] = [
        (3, |rng| generated(rng, 0)),
        (17, |rng| generated(rng, 0)),
        (40, |rng| generated(rng, 0)),
        (5, |rng| frozen(rng, 0)),
    ];
    let later = NOW + Options::default().merge_delay;
    for (seed, layout) in beds {
        let mut rng = Rng(seed);
        let mut bed = layout(&mut rng);
        // A merge at `later` drops rows the reference, read at NOW, keeps.
        bed.t.set_ttl(None).unwrap();
        bed.ttl = None;
        let listing = || {
            let mut names = bed.vfs.list_dir(bed.t.name()).unwrap();
            names.sort();
            names
        };
        let (before, tablets) = (listing(), bed.t.num_disk_tablets());
        let mut failures = 0;
        for nth in 1.. {
            let rule = FaultRule::new(FaultKind::Eio)
                .on_ops(&[OpKind::Read])
                .nth_match(nth);
            bed.vfs.set_fault_plan(FaultPlan::new().rule(rule));
            let injected = bed.vfs.faults_injected();
            let result = bed.t.run_merge_once(later);
            bed.vfs.clear_fault_plan();
            if bed.vfs.faults_injected() == injected {
                assert!(result.unwrap(), "seed {seed}: nothing merged");
                break;
            }
            failures += 1;
            assert!(result.is_err(), "seed {seed}: read {nth} failed unreported");
            assert_eq!(listing(), before, "seed {seed}, read {nth}");
            check_query(&bed, &Query::all(), Drain::Runs);
        }
        assert!(failures >= 2, "seed {seed}: {failures} reads failed");
        assert!(bed.t.num_disk_tablets() < tablets, "seed {seed}");
        let rows: Vec<Row> = bed.groups.drain(..).flat_map(|g| g.rows).collect();
        push_groups(&mut bed.groups, &rows);
        for _ in 0..12 {
            let mut q = random_query(&mut rng, &bed.t);
            (q.ts_min, q.ts_max) = (None, None);
            for how in [Drain::Runs, Drain::Rows, Drain::Mixed] {
                check_query(&bed, &q, how);
            }
        }
        check_latest(&bed, &mut rng);
    }
}

/// Everything a pushdown scan of `req` hands out, as text (a NaN equals
/// itself there) in sorted order, since an aggregate's input has none:
/// each stats unit's row count and zones, each block unit's selected
/// rows.
fn pushdown(bed: &Bed, req: &PushdownRequest) -> Vec<String> {
    let mut out = Vec::new();
    let mut take = |unit| {
        match unit {
            ScanUnit::Stats { rows, zones } => out.push(format!("{rows} {zones:?}")),
            ScanUnit::Block { block, sel } => {
                for pos in 0..sel.len() {
                    out.push(format!("{:?}", block.row(sel.row(pos))?.values));
                }
            }
        }
        Ok(())
    };
    bed.t.pushdown_scan(req, &mut take).unwrap();
    out.sort();
    out
}

fn random_pushdown(rng: &mut Rng, t: &Table) -> PushdownRequest {
    let ops = [
        PredOp::Eq,
        PredOp::Ne,
        PredOp::Lt,
        PredOp::Le,
        PredOp::Gt,
        PredOp::Ge,
    ];
    let predicates = (0..rng.below(3))
        .map(|_| {
            let (col, value) = match rng.below(3) {
                0 => (3, Value::I64(rng.below(101) as i64 - 50)),
                1 => (4, Value::I64(rng.below(2001) as i64 - 1000)),
                _ => (5, Value::F64(rng.below(65) as f64 / 4.0 - 8.0)),
            };
            let op = rng.pick(&ops);
            ColumnPredicate { col, op, value }
        })
        .collect();
    let stats_cols = match rng.below(3) {
        0 => None,
        1 => Some(Vec::new()),
        _ => Some(vec![3, 4]),
    };
    PushdownRequest {
        query: random_query(rng, t),
        predicates,
        stats_cols,
    }
}

/// Opens seed's layout twice, with a cache of `cache_bytes` and with
/// `block_cache_bytes = 0`, where every block comes off disk alone, and
/// holds every query (each held to the reference as well), `latest()`
/// and pushdown scan to the same answer through both. Returns the
/// counters of the side with the cache.
fn same_answers_with_and_without_a_cache(seed: u64, cache_bytes: usize) -> StatsSnapshot {
    let (mut rng, mut twin) = (Rng(seed), Rng(seed));
    let cached = generated(&mut rng, cache_bytes);
    let bare = generated(&mut twin, 0);
    let same = |what: &dyn std::fmt::Debug, a: Vec<String>, b: Vec<String>| {
        assert_eq!(a, b, "seed {seed}: {what:?}");
    };
    let text = |rows: Vec<Row>| canon(&rows).iter().map(|r| format!("{r:?}")).collect();
    for _ in 0..12 {
        let q = random_query(&mut rng, &cached.t);
        let (a, b) = (
            check_query(&cached, &q, Drain::Runs),
            check_query(&bare, &q, Drain::Runs),
        );
        same(&q, text(a), text(b));
        let req = random_pushdown(&mut rng, &cached.t);
        same(&req, pushdown(&cached, &req), pushdown(&bare, &req));
    }
    for len in 0..3 {
        let mut prefix = key_bound(&mut rng, &cached.t);
        prefix.truncate(len);
        let latest = |bed: &Bed| bed.t.latest(&prefix).unwrap().map(|r| r.values);
        let (a, b) = (latest(&cached), latest(&bare));
        same(
            &prefix,
            text(a.into_iter().collect()),
            text(b.into_iter().collect()),
        );
    }
    assert_eq!(bare.t.stats().snapshot().cache_compressed_hits, 0);
    cached.t.stats().snapshot()
}

/// Reading ahead changes no answer. Each seed's layout is opened with a
/// roomy cache, where a block miss also reads the blocks after it and
/// those are served from the compressed tier, and without one, where
/// there is never room to read ahead.
#[test]
fn reading_ahead_changes_no_answer() {
    let mut compressed_hits = 0;
    for seed in 0..24 {
        compressed_hits += same_answers_with_and_without_a_cache(seed, ROOMY).cache_compressed_hits;
    }
    assert!(compressed_hits > 0);
}

/// A cache that evicts in the middle of a query changes no answer. Each
/// seed's layout is opened with a budget of a few blocks, which the cache
/// keeps as one shard, and without one. The small cache evicts blocks a
/// query read a moment ago, demotes them, serves some back from its
/// compressed tier and hands their slots to other blocks, all while
/// queries run.
#[test]
fn a_cache_that_evicts_mid_query_changes_no_answer() {
    let (mut evicted, mut compressed_hits) = (0, 0);
    for seed in 0..24 {
        let small = same_answers_with_and_without_a_cache(seed, SMALL);
        evicted += small.cache_evicted_bytes;
        compressed_hits += small.cache_compressed_hits;
    }
    assert!(
        evicted > 0 && compressed_hits > 0,
        "{evicted} {compressed_hits}"
    );
}

/// Everything one submission of `q` hands out, as text, with the rows it
/// scanned and whether it says there is more.
fn answer(bed: &Bed, q: &Query) -> Vec<String> {
    let mut cur = bed.t.query(q).unwrap();
    let rows = drain(&mut cur, Drain::Runs, q.descending);
    let mut out: Vec<String> = canon(&rows).iter().map(|r| format!("{r:?}")).collect();
    out.push(format!(
        "scanned {} more {}",
        cur.scanned(),
        cur.more_available()
    ));
    out
}

/// Inheriting cache residency changes no answer. Each seed's layout is
/// opened twice: warm, with a roomy cache, and cold, at
/// `block_cache_bytes = 0`. Both are queried (each query held to the
/// reference as well) and then merged until no merge is left, a merge
/// delay later; the warm one's merges hand the blocks its queries cached
/// to their outputs. After that every query, `latest()` and pushdown scan
/// must answer the same through both.
#[test]
fn inheriting_cache_residency_changes_no_answer() {
    let later = NOW + Options::default().merge_delay;
    let (mut inherited, mut compressed_hits) = (0, 0);
    for seed in 0..24 {
        let (mut rng, mut twin) = (Rng(seed), Rng(seed));
        let warm = generated(&mut rng, ROOMY);
        let cold = generated(&mut twin, 0);
        let same = |what: &dyn std::fmt::Debug, a: Vec<String>, b: Vec<String>| {
            assert_eq!(a, b, "seed {seed}: {what:?}");
        };
        let text = |rows: Vec<Row>| canon(&rows).iter().map(|r| format!("{r:?}")).collect();
        for _ in 0..6 {
            let q = random_query(&mut rng, &warm.t);
            let (a, b) = (
                check_query(&warm, &q, Drain::Runs),
                check_query(&cold, &q, Drain::Runs),
            );
            same(&q, text(a), text(b));
        }
        for bed in [&warm, &cold] {
            while bed.t.run_merge_once(later).unwrap() {}
        }
        let merged = warm.t.stats().snapshot();
        for _ in 0..12 {
            let q = random_query(&mut rng, &warm.t);
            same(&q, answer(&warm, &q), answer(&cold, &q));
            let req = random_pushdown(&mut rng, &warm.t);
            same(&req, pushdown(&warm, &req), pushdown(&cold, &req));
        }
        for len in 0..3 {
            let mut prefix = key_bound(&mut rng, &warm.t);
            prefix.truncate(len);
            let latest = |bed: &Bed| bed.t.latest(&prefix).unwrap().map(|r| r.values);
            let (a, b) = (latest(&warm), latest(&cold));
            same(
                &prefix,
                text(a.into_iter().collect()),
                text(b.into_iter().collect()),
            );
        }
        assert_eq!(cold.t.stats().snapshot().cache_rewrite_admits, 0);
        let after = warm.t.stats().snapshot();
        inherited += after.cache_rewrite_admits;
        compressed_hits += after.cache_compressed_hits - merged.cache_compressed_hits;
    }
    assert!(
        inherited > 0 && compressed_hits > 0,
        "{inherited} {compressed_hits}"
    );
}
