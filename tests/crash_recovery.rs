//! Cross-crate crash-recovery tests: LittleTable's durability contract is
//! exactly prefix durability per table (§3.1), with atomic descriptor
//! replacement and orphan cleanup — exercised here with the simulated
//! VFS's deterministic crash injection. Hand-picked scenarios live here;
//! the exhaustive every-op sweep lives in `tests/fault_sweep.rs`. Both
//! are built from the same harness (`tests/common/mod.rs`) so the
//! invariants they check cannot drift apart.

mod common;

use common::*;
use littletable::core::descriptor::{parse_tablet_file_name, TableDescriptor};
use littletable::vfs::{
    Clock, FaultKind, FaultPlan, FaultRule, FaultVfs, OpKind, SimClock, SimVfs, StdVfs, Vfs,
};
use littletable::{
    core::table::MaintenanceReport, ColumnDef, ColumnType, Db, Options, Query, Schema, Session,
    SqlOutput, Value,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

#[test]
fn repeated_crashes_always_preserve_a_prefix() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let mut next;
    let mut durable_floor = 0u64;
    for round in 0..8 {
        let db = open_db(&vfs, &clock).unwrap();
        let table = match db.table(TABLE) {
            Ok(t) => t,
            Err(_) => db.create_table(TABLE, schema(), None).unwrap(),
        };
        // Whatever survived must be exactly a prefix 0..k with
        // k >= durable_floor.
        let idx = visible_indices(&table);
        for (i, n) in idx.iter().enumerate() {
            assert_eq!(*n, i as u64, "round {round}: hole in prefix");
        }
        assert!(
            idx.len() as u64 >= durable_floor,
            "round {round}: lost flushed rows"
        );
        next = idx.len() as u64;
        // Insert more, flush some of it, crash.
        for _ in 0..50 {
            table.insert(vec![make_row(next, 3)]).unwrap();
            next += 1;
        }
        table.flush_all().unwrap();
        durable_floor = next;
        for _ in 0..30 {
            table.insert(vec![make_row(next, 3)]).unwrap();
            next += 1;
        }
        clock.advance(1_000_000);
        vfs.crash();
    }
}

#[test]
fn merge_then_crash_preserves_everything_durable() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..3000 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    table.flush_all().unwrap();
    let before_tablets = table.num_disk_tablets();
    while table.run_merge_once(clock.now_micros()).unwrap() {}
    assert!(table.num_disk_tablets() < before_tablets);
    vfs.crash();
    let db2 = open_db(&vfs, &clock).unwrap();
    let rows = db2.table(TABLE).unwrap().query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 3000);
    check_descriptor_consistency(&vfs);
}

#[test]
fn crash_between_merge_file_write_and_commit_is_clean() {
    // Simulate the window where the merged tablet file exists durably but
    // the descriptor doesn't reference it: write a synced orphan by hand
    // (as if a dir-sync from a concurrent commit made it visible), crash,
    // and reopen — recovery must delete it, not serve it.
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..100 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    table.flush_all().unwrap();
    let orphan = format!("{TABLE}/tab-0000000000009999.lt");
    {
        let mut w = vfs.create(&orphan, 0).unwrap();
        w.append(b"unfinished merge output").unwrap();
        w.sync().unwrap();
        vfs.sync_dir(TABLE).unwrap();
    }
    vfs.crash();
    let db2 = open_db(&vfs, &clock).unwrap();
    let table2 = db2.table(TABLE).unwrap();
    assert_eq!(table2.query_all(&Query::all()).unwrap().len(), 100);
    assert!(!vfs.exists(&orphan), "orphan not cleaned");
    check_descriptor_consistency(&vfs);
}

#[test]
fn merge_crash_at_descriptor_commit_leaves_no_orphan() {
    // The same window, reached organically: run a real merge and crash at
    // the rename that would commit its descriptor. The merge output was
    // written and synced but never referenced; after reboot the store
    // must hold exactly the pre-merge data and no stray tablet file.
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..100 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    table.flush_all().unwrap();
    for i in 100..200 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    table.flush_all().unwrap();
    assert!(table.num_disk_tablets() >= 2, "need tablets worth merging");
    vfs.set_fault_plan(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::Crash)
                .on_ops(&[OpKind::Rename])
                .on_path("DESC"),
        ),
    );
    table
        .run_merge_once(clock.now_micros())
        .expect_err("merge must die at the injected crash");
    assert!(vfs.faults_injected() > 0, "crash never fired");
    vfs.crash();
    vfs.clear_fault_plan();
    let db2 = open_db(&vfs, &clock).unwrap();
    let table2 = db2.table(TABLE).unwrap();
    let idx = visible_indices(&table2);
    assert_eq!(
        idx,
        (0..200).collect::<Vec<u64>>(),
        "rows lost in merge crash"
    );
    check_descriptor_consistency(&vfs);
}

#[test]
fn desc_tmp_cleanup_survives_double_crash() {
    // Regression: reopening removes a stale `DESC.tmp`, and that removal
    // must itself be made durable. Without the dir-sync after the unlink,
    // a second crash resurrects the tmp file and every reopen repeats the
    // cleanup without ever retiring it.
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..20 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    table.flush_all().unwrap();
    drop((table, db));
    // A crash mid-save leaves a synced-but-unrenamed DESC.tmp behind.
    let tmp = format!("{TABLE}/DESC.tmp");
    {
        let mut w = vfs.create(&tmp, 0).unwrap();
        w.append(b"half-written descriptor").unwrap();
        w.sync().unwrap();
        vfs.sync_dir(TABLE).unwrap();
    }
    vfs.crash();
    assert!(vfs.exists(&tmp), "setup: tmp must survive the first crash");

    // First reopen retires the tmp file...
    let db2 = open_db(&vfs, &clock).unwrap();
    assert_eq!(
        db2.table(TABLE)
            .unwrap()
            .query_all(&Query::all())
            .unwrap()
            .len(),
        20
    );
    assert!(!vfs.exists(&tmp), "reopen must remove the stale tmp");
    drop(db2);

    // ...and a second crash must not resurrect it.
    vfs.crash();
    assert!(
        !vfs.exists(&tmp),
        "DESC.tmp resurrected: its removal was never made durable"
    );
    let db3 = open_db(&vfs, &clock).unwrap();
    assert_eq!(
        db3.table(TABLE)
            .unwrap()
            .query_all(&Query::all())
            .unwrap()
            .len(),
        20
    );
    check_descriptor_consistency(&vfs);
}

#[test]
fn ttl_state_survives_restart() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    {
        let db = open_db(&vfs, &clock).unwrap();
        let table = db.create_table(TABLE, schema(), Some(TTL)).unwrap();
        table.insert(vec![make_row(0, 3)]).unwrap();
        table
            .insert(vec![vec![
                Value::I64(1),
                Value::Timestamp(START + 2 * TTL),
                Value::I64(10),
            ]])
            .unwrap();
        table.flush_all().unwrap();
    }
    clock.set(START + 2 * TTL + 1);
    let db2 = open_db(&vfs, &clock).unwrap();
    let table = db2.table(TABLE).unwrap();
    assert_eq!(table.ttl(), Some(TTL));
    // Row 0 expired (filtered), row 1 current.
    let rows = table.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values[0], Value::I64(1));
    // Reaping after restart removes the expired tablet's file.
    let reaped = table.ttl_reap(clock.now_micros()).unwrap();
    assert!(reaped >= 1);
    assert_eq!(table.query_all(&Query::all()).unwrap().len(), 1);
}

#[test]
fn schema_evolution_survives_crash() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    {
        let db = open_db(&vfs, &clock).unwrap();
        let table = db.create_table(TABLE, schema(), None).unwrap();
        table.insert(vec![make_row(0, 3)]).unwrap();
        table.flush_all().unwrap();
        table
            .add_column(ColumnDef::with_default(
                "extra",
                ColumnType::Str,
                Value::Str("-".into()),
            ))
            .unwrap();
        table
            .insert(vec![vec![
                Value::I64(1),
                Value::Timestamp(START + STEP),
                Value::I64(10),
                Value::Str("new".into()),
            ]])
            .unwrap();
        table.flush_all().unwrap();
    }
    vfs.crash();
    let db2 = open_db(&vfs, &clock).unwrap();
    let table = db2.table(TABLE).unwrap();
    assert_eq!(table.schema().num_columns(), 4);
    let rows = table.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].values[3], Value::Str("-".into()));
    assert_eq!(rows[1].values[3], Value::Str("new".into()));
}

#[test]
fn dropped_table_stays_dropped_after_crash() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    {
        let db = open_db(&vfs, &clock).unwrap();
        let t = db.create_table("gone", schema(), None).unwrap();
        t.insert(vec![make_row(0, 3)]).unwrap();
        db.flush_all().unwrap();
        db.drop_table("gone").unwrap();
        // Make the removal durable (files deleted; descriptor gone).
        vfs.sync_dir("gone").unwrap();
        vfs.sync_dir("").unwrap();
    }
    vfs.crash();
    let db2 = open_db(&vfs, &clock).unwrap();
    assert!(db2.table("gone").is_err());
}

#[test]
fn torn_rename_in_descriptor_swap_window_is_survivable() {
    // The nastiest moment in the descriptor lifecycle: the machine dies
    // *inside* the `DESC.tmp` -> `DESC` swap, with the rename's directory
    // entry journaled ahead of the file data (what a metadata-journaling
    // file system can do). Because `TableDescriptor::save` fsyncs the tmp
    // file before renaming it, the journaled entry points at fully
    // durable bytes: recovery must find the NEW descriptor, not a
    // truncated one, and lose nothing that was flushed.
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..40 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    table.flush_all().unwrap(); // DESC v1, durable
    for i in 40..80 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    // Tear the next descriptor swap: the flush writes tablets, then
    // saves DESC v2 — and the machine halts inside the rename.
    vfs.set_fault_plan(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::TornRename)
                .on_ops(&[OpKind::Rename])
                .on_path("DESC")
                .times(1),
        ),
    );
    table
        .flush_all()
        .expect_err("flush must surface the mid-swap crash");
    assert!(vfs.halted(), "torn rename must halt the machine");
    assert_eq!(vfs.faults_injected(), 1);

    // Reboot. The journaled rename committed a fully-synced descriptor
    // (the fsync-before-rename discipline), so the table must open
    // cleanly — no bricked store, no truncated-DESC decode error. The
    // interrupted flush never acked, so its rows may or may not have
    // made it; whatever survived must be a clean prefix no shorter than
    // the last acked flush (40 rows).
    vfs.crash();
    vfs.clear_fault_plan();
    let db2 = open_db(&vfs, &clock).expect("reopen after torn DESC swap");
    check_descriptor_consistency(&vfs);
    let t2 = db2.table(TABLE).unwrap();
    let idx = visible_indices(&t2);
    assert!(idx.len() >= 40, "acked flush lost: {} rows", idx.len());
    assert!(idx.len() <= 80, "rows invented: {} rows", idx.len());
    for (i, n) in idx.iter().enumerate() {
        assert_eq!(*n, i as u64, "hole in recovered prefix");
    }
    // The client's re-send contract completes the picture: the tail
    // re-sends exactly once, recovered rows deduplicate.
    let floor = idx.len() as u64;
    let rep = t2.insert(vec![make_row(floor - 1, 3)]).unwrap();
    assert_eq!((rep.inserted, rep.duplicates), (0, 1));
    for i in floor..80 {
        let rep = t2.insert(vec![make_row(i, 3)]).unwrap();
        assert_eq!((rep.inserted, rep.duplicates), (1, 0), "re-send of {i}");
    }
    t2.flush_all().unwrap();
    assert_eq!(visible_indices(&t2), (0..80).collect::<Vec<u64>>());
}

#[test]
fn torn_rename_outside_the_sync_discipline_loses_the_unsynced_tail() {
    // Companion negative control for the regression above: rename an
    // unsynced file and the journaled entry points at a truncated inode.
    // This is the failure mode `TableDescriptor::save`'s fsync-before-
    // rename discipline exists to rule out.
    let vfs = SimVfs::instant();
    vfs.mkdir_all("d").unwrap();
    let mut w = vfs.create("d/cfg.tmp", 0).unwrap();
    w.append(b"synced-half").unwrap();
    w.sync().unwrap();
    w.append(b"-unsynced-half").unwrap();
    drop(w);
    vfs.sync_dir("").unwrap();
    vfs.sync_dir("d").unwrap();
    vfs.set_fault_plan(
        FaultPlan::new().rule(FaultRule::new(FaultKind::TornRename).on_ops(&[OpKind::Rename])),
    );
    vfs.rename("d/cfg.tmp", "d/cfg").unwrap_err();
    vfs.crash();
    assert!(vfs.exists("d/cfg"), "journaled entry must survive");
    assert_eq!(
        vfs.file_size("d/cfg").unwrap(),
        b"synced-half".len() as u64,
        "unsynced tail must be gone"
    );
}

#[test]
fn a_returned_drop_survives_a_crash() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let t = db.create_table(TABLE, schema(), None).unwrap();
    t.insert((0..50).map(|i| make_row(i, 3)).collect()).unwrap();
    t.flush_all().unwrap();
    db.drop_table(TABLE).unwrap();
    drop((t, db));
    vfs.crash();
    let db = open_db(&vfs, &clock).unwrap();
    assert_eq!(db.list_tables(), Vec::<String>::new(), "the drop came back");
}

#[test]
fn a_returned_drop_cascade_survives_a_crash() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let t = db.create_table(TABLE, schema(), None).unwrap();
    t.insert((0..50).map(|i| make_row(i, 3)).collect()).unwrap();
    t.flush_all().unwrap();
    db.create_rollup(ROLLUP, TABLE, ROLLUP_PERIOD, vec!["v".into()], vec![])
        .unwrap();
    db.maintain_until_quiescent().unwrap();
    db.drop_table(TABLE).unwrap();
    drop((t, db));
    vfs.crash();
    let db = open_db(&vfs, &clock).unwrap();
    assert_eq!(db.list_tables(), Vec::<String>::new(), "the drop came back");
}

const MINUTE: i64 = 60_000_000;
const HOUR: i64 = 60 * MINUTE;
/// The start of the day `START` falls in: periods in it are 4-hour bins.
const DAY_START: i64 = START - START.rem_euclid(24 * HOUR);
/// The pass bed's clock while it is built.
const BED_AT: i64 = DAY_START + 20 * HOUR + 30 * MINUTE;
/// The pass's clock: past the flush age of every row inserted at BED_AT.
const PASS_AT: i64 = BED_AT + 11 * MINUTE;
/// Base `m`'s TTL. Its horizon passes tablet X's newest row between
/// BED_AT and PASS_AT.
const PASS_TTL: i64 = 10 * HOUR;

/// `n` rows of sensor 1, one a minute from `DAY_START + from`, with
/// values that differ by row.
fn minute_rows(from: i64, n: i64) -> Vec<Vec<Value>> {
    let row = |i: i64| {
        let ts = DAY_START + from + i * MINUTE;
        vec![
            Value::I64(1),
            Value::Timestamp(ts),
            Value::I64(ts / MINUTE % 97),
        ]
    };
    (0..n).map(row).collect()
}

/// Rows as `(ts, v)` pairs, in order.
type Pairs = Vec<(i64, i64)>;

/// `(ts, v)` of each row of `rows`.
fn ts_v(rows: impl IntoIterator<Item = Vec<Value>>) -> Pairs {
    let pair = |row: Vec<Value>| match (&row[1], &row[2]) {
        (Value::Timestamp(ts), Value::I64(v)) => (*ts, *v),
        _ => panic!("bad row {row:?}"),
    };
    let mut pairs: Pairs = rows.into_iter().map(pair).collect();
    pairs.sort_unstable();
    pairs
}

/// A store a maintenance pass is killed on: its op counter and fault
/// plan, and the restart after a kill.
trait KillStore: Vfs + Clone + 'static {
    fn ops(&self) -> u64;
    fn plan(&self, plan: FaultPlan);
    fn injected(&self) -> u64;
    fn restart(&self);
}

/// Power is cut: what was not synced is lost.
impl KillStore for SimVfs {
    fn ops(&self) -> u64 {
        self.op_count()
    }
    fn plan(&self, plan: FaultPlan) {
        self.set_fault_plan(plan);
    }
    fn injected(&self) -> u64 {
        self.faults_injected()
    }
    fn restart(&self) {
        self.crash();
        self.clear_fault_plan();
    }
}

/// The process is killed on a real file system: every operation that
/// completed stays, synced or not, as a journal may commit an unlink
/// ahead of the save that was to order it.
impl KillStore for FaultVfs<StdVfs> {
    fn ops(&self) -> u64 {
        self.op_count()
    }
    fn plan(&self, plan: FaultPlan) {
        self.set_fault_plan(plan);
    }
    fn injected(&self) -> u64 {
        self.faults_injected()
    }
    fn restart(&self) {
        self.clear_fault_plan();
        self.reboot();
    }
}

/// Builds the pass bed on `vfs`: base `m` with TTL and an hourly rollup
/// `m_1h`, holding tablet X (rows just above the TTL horizon) and two
/// adjacent tablets T1 and T2 of the same period, every one folded; then
/// rows of two more periods in memory. The clock is then set to PASS_AT,
/// where `Db::maintain_table("m")` seals and flushes those rows in two
/// groups, merges T1 and T2, reaps X and folds the two new tablets.
/// Returns the database, its clock, and the `(ts, v)` rows it held
/// durably before the pass and those the pass flushes.
fn pass_bed(vfs: &impl KillStore) -> (Db, SimClock, Pairs, Pairs) {
    let clock = SimClock::new(BED_AT);
    let opts = Options::small_for_tests();
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
    let m = db.create_table("m", schema_m(), Some(PASS_TTL)).unwrap();
    db.create_rollup("m_1h", "m", HOUR, vec!["v".into()], vec![])
        .unwrap();
    let batches = [
        (10 * HOUR + 31 * MINUTE, 5),
        (12 * HOUR, 20),
        (12 * HOUR + 20 * MINUTE, 20),
    ];
    let mut durable = Vec::new();
    for (i, &(from, n)) in batches.iter().enumerate() {
        m.insert(minute_rows(from, n)).unwrap();
        m.flush_all().unwrap();
        if i > 0 {
            durable.extend(ts_v(minute_rows(from, n)));
        }
    }
    let folded = db.maintain_table("m").unwrap();
    assert_eq!((folded.merges, folded.tablets_folded), (0, 3));
    let mut pass = ts_v(minute_rows(16 * HOUR, 20));
    pass.extend(ts_v(minute_rows(20 * HOUR, 20)));
    m.insert(minute_rows(16 * HOUR, 20)).unwrap();
    m.insert(minute_rows(20 * HOUR, 20)).unwrap();
    clock.set(PASS_AT);
    (db, clock, durable, pass)
}

/// The base table of the pass bed.
fn schema_m() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("sensor", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::I64),
        ],
        &["sensor", "ts"],
    )
    .unwrap()
}

/// Kills `Db::maintain_table("m")` on the pass bed at each sampled op —
/// every op under `LT_FULL_SWEEP=1` — restarts, reopens and maintains
/// until quiescent, then checks: `m` holds its durable rows plus all of
/// the pass's rows or none; every hourly `SUM(v), COUNT(*)` is served from
/// `m_1h` and equals the fold of `m`'s rows; nothing was quarantined;
/// every tablet file is named by its table's `DESC`.
fn pass_killed_at_every_op<S: KillStore>(fresh: impl Fn(&str) -> S) {
    let ops = {
        let vfs = fresh("count");
        let (db, ..) = pass_bed(&vfs);
        let before = vfs.ops();
        let report = db.maintain_table("m").unwrap();
        let want = MaintenanceReport {
            sealed_by_age: 2,
            groups_flushed: 2,
            merges: 1,
            tablets_expired: 1,
            tablets_folded: 2,
        };
        assert_eq!(report, want, "the bed's pass");
        vfs.ops() - before
    };
    let full = std::env::var("LT_FULL_SWEEP").is_ok_and(|v| v == "1");
    let stride = if full { 1 } else { (ops / 12).max(1) };
    for k in (0..ops).step_by(stride as usize) {
        let ctx = format!("kill at op {k} of {ops}");
        let vfs = fresh(&format!("kill-{k}"));
        let (db, clock, durable, pass) = pass_bed(&vfs);
        vfs.plan(FaultPlan::crash_at(vfs.ops() + k));
        db.maintain_table("m").expect_err(&ctx);
        assert_eq!(vfs.injected(), 1, "{ctx} never fired");
        drop(db);
        vfs.restart();
        let opts = Options::small_for_tests();
        let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap();
        let quarantined = |db: &Db| {
            let tables = db.list_tables().into_iter().map(|n| db.table(&n).unwrap());
            tables
                .map(|t| t.stats().snapshot().tablets_quarantined)
                .sum::<u64>()
        };
        assert_eq!(quarantined(&db), 0, "{ctx}: quarantined at open");
        db.maintain_until_quiescent().unwrap();
        let m = db.table("m").unwrap();
        let held = ts_v(
            m.query_all(&Query::all())
                .unwrap()
                .into_iter()
                .map(|r| r.values),
        );
        let mut all = durable.clone();
        all.extend(&pass);
        all.sort_unstable();
        assert!(
            held == durable || held == all,
            "{ctx}: m holds {} rows",
            held.len()
        );
        let mut want: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (ts, v) in &held {
            let e = want.entry(ts - ts.rem_euclid(HOUR)).or_default();
            *e = (e.0 + v, e.1 + 1);
        }
        let want: Vec<Vec<Value>> = want
            .into_iter()
            .map(|(b, (sum, n))| vec![Value::Timestamp(b), Value::I64(sum), Value::I64(n)])
            .collect();
        let hits = m.stats().snapshot().rollup_hits;
        let sql = "SELECT TIME_BUCKET(ts, INTERVAL '1h'), SUM(v), COUNT(*) FROM m \
                   GROUP BY TIME_BUCKET(ts, INTERVAL '1h')";
        let SqlOutput::Rows { rows, .. } = Session::new(db.clone()).execute(sql).unwrap() else {
            panic!("{ctx}: the aggregate returned no rows");
        };
        assert_eq!(rows, want, "{ctx}: hourly sums");
        assert_eq!(
            m.stats().snapshot().rollup_hits - hits,
            1,
            "{ctx}: not served from m_1h"
        );
        for dir in ["m", "m_1h"] {
            let named = TableDescriptor::peek(&vfs, dir).unwrap().tablets;
            for entry in vfs.list_dir(dir).unwrap() {
                if let Some(id) = parse_tablet_file_name(&entry) {
                    assert!(
                        named.iter().any(|t| t.id == id),
                        "{ctx}: {dir}/{entry} unnamed"
                    );
                }
            }
        }
    }
}

/// A maintenance pass — two flush groups, a merge, a TTL reap and the
/// fold of its new tablets — killed at each op with the power cut: the
/// pass's groups land all or none, and no rollup holds partials of a
/// tablet the crash took away.
#[test]
fn a_maintenance_pass_killed_at_every_op_recovers() {
    pass_killed_at_every_op(|_| SimVfs::instant());
}

/// The same pass killed at each op on a real file system, where an
/// unlink that completed stays whether or not a later sync ordered it: a
/// replaced tablet is unlinked only once the descriptor no longer names
/// it.
#[test]
fn a_maintenance_pass_killed_at_every_op_on_a_real_disk_recovers() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lt-pass-kill");
    let _ = std::fs::remove_dir_all(&root);
    pass_killed_at_every_op(|dir| FaultVfs::new(StdVfs::new(root.join(dir)).unwrap()));
    std::fs::remove_dir_all(&root).unwrap();
}
