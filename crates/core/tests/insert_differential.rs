//! Differential test of the insert path against a model nobody would
//! ship: a `BTreeMap` from key to row, plus the few facts the §3.4.4
//! uniqueness paths decide on — the newest timestamp, which keys are in
//! memory, and each flushed tablet's timespan and largest key.
//!
//! Random batches carry duplicates (within a batch, across batches and of
//! flushed rows), timestamps out of order, rows of two time periods, and —
//! with a tiny flush size — size seals in the middle of a batch, which take
//! along every filling tablet whose first row precedes the sealed group's
//! last; half the cases run the `uniqueness_fast_paths: false` ablation.
//! Every batch's `InsertReport`, the table's rows, its tablet count after a
//! flush and its `rows_inserted`, `duplicate_keys` and `unique_*` counters
//! must be the model's. Three
//! fixed cases ride along: a flushed tablet is, byte for byte, the file of
//! the same rows sorted and written one at a time; a batch alternating
//! periods A, B, A seals both tablets in one group; a batch holding a bad
//! row changes nothing.

use littletable_core::block::BlockEncoder;
use littletable_core::period::{period_for, Period};
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::tablet::TabletWriter;
use littletable_core::{ColumnType, Db, InsertReport, Options, Query, Row, Table, Value};
use littletable_vfs::{SimClock, SimVfs, Vfs};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const SEC: i64 = 1_000_000;
/// 2023-11-14 22:13:20 UTC: rows from here on share one four-hour period.
const RECENT: i64 = 1_700_000_000 * SEC;
/// Ten days before: a week period of its own.
const OLD: i64 = RECENT - 10 * 86_400 * SEC;
/// The engine's clock, which never moves: an hour after `RECENT`.
const NOW: i64 = RECENT + 3600 * SEC;

fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("dev", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::I64),
            ColumnDef::new("note", ColumnType::Str),
        ],
        &["dev", "ts"],
    )
    .unwrap()
}

fn row(dev: i64, ts: i64, v: i64) -> Vec<Value> {
    vec![
        Value::I64(dev),
        Value::Timestamp(ts),
        Value::I64(v),
        Value::Str("n".repeat((v % 7) as usize)),
    ]
}

fn key_of(values: &[Value]) -> Vec<u8> {
    Row::new(values.to_vec()).encode_key(&schema()).unwrap()
}

fn ts_of(values: &[Value]) -> i64 {
    values[1].as_timestamp().unwrap()
}

fn open(vfs: &SimVfs, opts: Options) -> (Db, Arc<Table>) {
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(SimClock::new(NOW)), opts).unwrap();
    let t = db.create_table("t", schema(), None).unwrap();
    (db, t)
}

/// The keys of one tablet, filling, sealed or flushed, what they cost the
/// size trigger, and the insert stamps of its first and last row.
#[derive(Default)]
struct Tablet {
    keys: Vec<Vec<u8>>,
    bytes: usize,
    first: u64,
    last: u64,
}

/// What the model expects the counters to have added up to.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    inserted: u64,
    duplicates: u64,
    fast_ts: u64,
    fast_key: u64,
    slow: u64,
}

struct Model {
    fast: bool,
    flush_size: usize,
    rows: BTreeMap<Vec<u8>, Vec<Value>>,
    in_memory: BTreeSet<Vec<u8>>,
    filling: BTreeMap<Period, Tablet>,
    sealed: Vec<Tablet>,
    /// Each flushed tablet's `(min_ts, max_ts, largest key)`.
    disk: Vec<(i64, i64, Vec<u8>)>,
    max_ts: i64,
    /// Rows inserted so far: the next row's stamp.
    stamp: u64,
    counts: Counts,
}

impl Model {
    /// One row after another, as §3.4.4 describes the checks, with fast
    /// path 1 taken for a row newer than everything the table held when
    /// the batch began, when it last sealed a tablet, or when the batch
    /// last had a row that fast path 1 could not vouch for.
    fn insert(&mut self, batch: &[Vec<Value>]) -> InsertReport {
        let mut report = InsertReport::default();
        let mut fresh_above = self.max_ts;
        for values in batch {
            let (key, ts) = (key_of(values), ts_of(values));
            let new = if self.fast && ts > fresh_above {
                let new = !self.rows.contains_key(&key);
                self.counts.fast_ts += new as u64;
                new
            } else {
                fresh_above = self.max_ts;
                let mut candidates = self.disk.iter().filter(|d| d.0 <= ts && ts <= d.1);
                if self.in_memory.contains(&key) {
                    false
                } else if candidates.clone().next().is_none() {
                    true
                } else if self.fast && candidates.all(|d| key > d.2) {
                    self.counts.fast_key += 1;
                    true
                } else {
                    self.counts.slow += 1;
                    !self.rows.contains_key(&key)
                }
            };
            if !new {
                report.duplicates += 1;
                continue;
            }
            report.inserted += 1;
            self.max_ts = self.max_ts.max(ts);
            let period = period_for(ts, NOW);
            let stamp = self.stamp;
            self.stamp += 1;
            let tablet = self.filling.entry(period).or_insert_with(|| Tablet {
                first: stamp,
                ..Tablet::default()
            });
            tablet.last = stamp;
            tablet.bytes += key.len() + 24 + values.iter().map(Value::mem_size).sum::<usize>();
            tablet.keys.push(key.clone());
            if tablet.bytes >= self.flush_size {
                self.seal(period);
                fresh_above = self.max_ts;
            }
            self.in_memory.insert(key.clone());
            self.rows.insert(key, values.clone());
        }
        self.counts.inserted += report.inserted as u64;
        self.counts.duplicates += report.duplicates as u64;
        report
    }

    /// Seals `period`'s tablet with every filling tablet whose first row
    /// was stamped before the group's last (§3.4.3's flush dependencies),
    /// in first-insert order.
    fn seal(&mut self, period: Period) {
        let mut order: Vec<Period> = self.filling.keys().copied().collect();
        order.sort_by_key(|p| self.filling[p].first);
        let mut reach = self.filling[&period].last;
        for p in order {
            if p == period || self.filling[&p].first < reach {
                let tablet = self.filling.remove(&p).unwrap();
                reach = reach.max(tablet.last);
                self.sealed.push(tablet);
            }
        }
    }

    fn flush_all(&mut self) {
        let filling = std::mem::take(&mut self.filling).into_values();
        for tablet in std::mem::take(&mut self.sealed).into_iter().chain(filling) {
            let ts = tablet.keys.iter().map(|k| ts_of(&self.rows[k]));
            let max_key = tablet.keys.iter().max().unwrap().clone();
            self.disk
                .push((ts.clone().min().unwrap(), ts.max().unwrap(), max_key));
        }
        self.in_memory.clear();
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Rows as `(device, tick, in the old period, value)`.
    Insert(Vec<(i64, i64, bool, i64)>),
    FlushAll,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let row = (0i64..6, 0i64..12, any::<bool>(), 0i64..1000);
    let op = prop_oneof![
        4 => proptest::collection::vec(row, 0..24).prop_map(Op::Insert),
        1 => Just(Op::FlushAll),
    ];
    proptest::collection::vec(op, 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn inserts_agree_with_the_model(
        fast in any::<bool>(),
        tiny in any::<bool>(),
        two_periods in any::<bool>(),
        ops in ops(),
    ) {
        // A row costs some 70 bytes: a tiny flush size seals every few.
        let flush_size = if tiny { 250 } else { 64 << 20 };
        let opts = Options {
            flush_size,
            block_size: 1 << 10,
            uniqueness_fast_paths: fast,
            max_sealed_backlog: usize::MAX,
            ..Options::default()
        };
        let (_db, t) = open(&SimVfs::instant(), opts);
        let mut model = Model {
            fast,
            flush_size,
            rows: BTreeMap::new(),
            in_memory: BTreeSet::new(),
            filling: BTreeMap::new(),
            sealed: Vec::new(),
            disk: Vec::new(),
            max_ts: i64::MIN,
            stamp: 0,
            counts: Counts::default(),
        };
        for op in ops {
            match op {
                Op::Insert(spec) => {
                    let batch: Vec<Vec<Value>> = spec
                        .into_iter()
                        .map(|(dev, tick, old, v)| {
                            let base = if old && two_periods { OLD } else { RECENT };
                            row(dev, base + tick * SEC, v)
                        })
                        .collect();
                    let seq = t.insert_seq();
                    let got = t.insert(batch.clone()).unwrap();
                    prop_assert_eq!(got, model.insert(&batch));
                    // One stamp per run of rows: the sequence moves exactly
                    // when something was inserted.
                    prop_assert_eq!(t.insert_seq() > seq, got.inserted > 0);
                }
                Op::FlushAll => {
                    t.flush_all().unwrap();
                    model.flush_all();
                    prop_assert_eq!(t.num_disk_tablets(), model.disk.len());
                }
            }
            let rows: Vec<Vec<Value>> = t
                .query_all(&Query::all())
                .unwrap()
                .into_iter()
                .map(|r| r.values)
                .collect();
            prop_assert_eq!(&rows, &model.rows.values().cloned().collect::<Vec<_>>());
            let s = t.stats().snapshot();
            let got = Counts {
                inserted: s.rows_inserted,
                duplicates: s.duplicate_keys,
                fast_ts: s.unique_fast_ts,
                fast_key: s.unique_fast_key,
                slow: s.unique_slow,
            };
            prop_assert_eq!(got, model.counts);
        }
    }
}

/// splitmix64: the fixed cases' rows.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn a_flushed_tablet_is_the_sorted_rows_written_one_at_a_time() {
    let opts = Options {
        block_size: 1 << 10,
        ..Options::default()
    };
    let vfs = SimVfs::instant();
    let (_db, t) = open(&vfs, opts.clone());
    // Three batches of rows in no order, with duplicates among and
    // across them; the first of each key stays.
    let mut state = 7;
    let mut want = BTreeMap::new();
    for _ in 0..3 {
        let batch: Vec<Vec<Value>> = (0..400)
            .map(|_| {
                let r = splitmix(&mut state);
                row(
                    (r % 40) as i64,
                    RECENT + (r >> 8) as i64 % 60 * SEC,
                    (r >> 16) as i64 % 1000,
                )
            })
            .collect();
        for values in &batch {
            want.entry(key_of(values)).or_insert_with(|| values.clone());
        }
        t.insert(batch).unwrap();
    }
    t.flush_all().unwrap();
    let files: Vec<String> = vfs
        .list_dir("t")
        .unwrap()
        .into_iter()
        .filter(|f| f.ends_with(".lt"))
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let read = |path: &str| {
        let f = vfs.open(path).unwrap();
        let mut all = vec![0u8; f.len().unwrap() as usize];
        f.read_exact_at(0, &mut all).unwrap();
        all
    };
    let s = schema();
    let mut w = TabletWriter::new(
        vfs.create("ref.lt", 0).unwrap(),
        s.clone(),
        opts.block_size,
        opts.bloom_filters,
    );
    for values in want.values() {
        let mut one = BlockEncoder::new(&s);
        one.add(&Row::new(values.clone())).unwrap();
        w.add_run(&one.into_block(&s), 0..1, i64::MIN).unwrap();
    }
    w.finish().unwrap();
    let (flushed, reference) = (read(&format!("t/{}", files[0])), read("ref.lt"));
    assert_eq!(flushed.len(), reference.len(), "tablet length");
    assert!(
        flushed == reference,
        "tablet bytes differ from the reference"
    );
}

#[test]
fn a_batch_alternating_two_periods_seals_both_in_one_group() {
    let a = |dev| row(dev, OLD, 0);
    let b = |dev| row(dev, RECENT, 0);
    // Flushing the old period's tablet must take every tablet a row of it
    // was written after (prefix durability): with A, B, A that is B.
    for (batch, left_filling) in [(vec![a(1), b(2), a(3)], 0), (vec![a(1), a(3), b(2)], 1)] {
        let (_db, t) = open(&SimVfs::instant(), Options::default());
        t.insert(batch).unwrap();
        assert_eq!(t.num_filling(), 2);
        t.flush_before(OLD).unwrap();
        assert_eq!(t.num_filling(), left_filling);
        assert_eq!(t.num_disk_tablets(), 2 - left_filling);
        assert_eq!(t.query_all(&Query::all()).unwrap().len(), 3);
    }
}

#[test]
fn a_batch_with_a_bad_row_changes_nothing() {
    let (_db, t) = open(&SimVfs::instant(), Options::default());
    t.insert(vec![row(1, RECENT, 1), row(1, RECENT, 1)])
        .unwrap();
    t.flush_all().unwrap();
    t.insert(vec![row(2, RECENT, 2)]).unwrap();
    // Everything an insert can move: the rows, the write counters, the
    // tablets and the insert sequence.
    let state = || {
        let s = t.stats().snapshot();
        let counters = [
            s.rows_inserted,
            s.duplicate_keys,
            s.unique_fast_ts,
            s.unique_fast_key,
            s.unique_slow,
            s.snapshot_publishes,
        ];
        let rows = t.query_all(&Query::all()).unwrap();
        (rows, counters, t.num_filling(), t.insert_seq())
    };
    let before = state();
    let mut bad_type = row(5, RECENT, 5);
    bad_type[2] = Value::Str("five".into());
    let mut bad_width = row(6, RECENT, 6);
    bad_width.pop();
    for bad in [bad_type, bad_width] {
        // A new row, a duplicate of a flushed row and of a buffered one,
        // a row of a new period, and the bad row last.
        let batch = vec![
            row(3, RECENT + SEC, 3),
            row(1, RECENT, 9),
            row(2, RECENT, 9),
            row(4, OLD, 4),
            bad,
        ];
        assert!(t.insert(batch).is_err());
        assert_eq!(state(), before);
    }
}
