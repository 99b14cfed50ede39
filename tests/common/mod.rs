//! Shared fault-sweep harness: one deterministic mixed workload plus the
//! recovery oracle that machine-checks LittleTable's durability contract.
//!
//! The workload exercises every maintenance path the paper's durability
//! argument covers — inserts, explicit flushes, merges, a schema change,
//! a TTL advance with reaping, and more inserts — against a `SimVfs`.
//! Because both the engine and the simulated VFS are deterministic, the
//! workload performs the same I/O operations in the same order on every
//! run, so "crash after op k" (via `FaultPlan`) names the same point in
//! every replay. `tests/fault_sweep.rs` sweeps k across the whole run;
//! `tests/crash_recovery.rs` reuses the same oracle for its hand-picked
//! scenarios so the two suites cannot drift apart.
//!
//! The oracle asserts the paper's three recovery invariants (§3.1):
//!
//! 1. **Clean prefix** — the rows visible after recovery form one
//!    contiguous index range. Inserts carry monotonically increasing
//!    timestamps and reads filter expired rows, so durable data minus
//!    the expired head is exactly a contiguous `[j..=k]`.
//! 2. **No duplicates** — re-sending the unrecovered tail (the client's
//!    contract after a crash) inserts every row exactly once, and
//!    re-sending a recovered row is rejected as a duplicate.
//! 3. **Descriptor consistency** — the descriptor loads, references only
//!    files that exist with the recorded sizes, contains no id at or
//!    above `next_tablet_id`, and no uncommitted tablet file survives
//!    reopening (orphans are cleaned, `DESC.tmp` retired).

#![allow(dead_code)] // each integration-test crate uses a subset

use littletable::core::descriptor::{parse_tablet_file_name, TableDescriptor, DESC_FILE, DESC_TMP};
use littletable::core::table::QUARANTINE_SUFFIX;
use littletable::vfs::{join, SimClock, SimVfs, Vfs};
use littletable::{
    ColumnDef, ColumnType, Db, Options, Query, Schema, Session, SqlOutput, Table, Value,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Workload epoch, µs.
pub const START: i64 = 1_700_000_000_000_000;
/// µs between consecutive rows' timestamps.
pub const STEP: i64 = 1_000;
/// Table TTL: one hour, µs.
pub const TTL: i64 = 3_600 * 1_000_000;
/// Rows the full workload inserts.
pub const TOTAL_ROWS: u64 = 150;
/// After the workload's TTL advance, rows with index < this are expired.
pub const EXPIRED_BELOW: u64 = 55;
/// The table every workload run creates.
pub const TABLE: &str = "w";
/// The rollup the workload creates over [`TABLE`].
pub const ROLLUP: &str = "w_r";
/// The rollup's bucket period: 20 rows per bucket.
pub const ROLLUP_PERIOD: i64 = 20 * STEP;

/// The workload schema: `(n, ts)` primary key, one payload column.
pub fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("n", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::I64),
        ],
        &["n", "ts"],
    )
    .unwrap()
}

/// Engine options for the harness: small tablets so 150 rows produce a
/// realistic number of flushes and merges, no background thread so every
/// I/O op belongs to a deterministic workload step.
pub fn opts() -> Options {
    Options {
        max_sealed_backlog: 4,
        ..Options::small_for_tests()
    }
}

/// Opens (or reopens) the harness database.
pub fn open_db(vfs: &SimVfs, clock: &SimClock) -> littletable::Result<Db> {
    Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts())
}

/// Row `i` of the workload, padded with the schema-change column's
/// payload when the table has grown past the base three columns.
pub fn make_row(i: u64, ncols: usize) -> Vec<Value> {
    let mut row = vec![
        Value::I64(i as i64),
        Value::Timestamp(START + i as i64 * STEP),
        Value::I64(i as i64 * 10),
    ];
    while row.len() < ncols {
        row.push(Value::Str("x".into()));
    }
    row
}

/// How the workload reacts to a failed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Stop at the first error — the crash-sweep mode, where the first
    /// error is the injected crash and everything after is the halted
    /// disk.
    Stop,
    /// Record the error and keep going — the error-sweep mode, which
    /// checks that one failed operation degrades service instead of
    /// poisoning the engine.
    Continue,
}

/// What the workload managed before stopping (or finishing).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The table was created (acked to the client).
    pub created: bool,
    /// Inserts acked. In [`Mode::Stop`] the acked set is exactly
    /// `0..acked`; in [`Mode::Continue`] subtract `failed_inserts`.
    pub acked: u64,
    /// Acked count at the last successful `flush_all` — rows below this
    /// were promised durable.
    pub floor: u64,
    /// Indices whose insert returned an error ([`Mode::Continue`] only).
    pub failed_inserts: Vec<u64>,
    /// Non-insert steps that returned an error ([`Mode::Continue`]).
    pub step_errors: u64,
    /// The TTL clock advance ran (it is not an I/O op, so in
    /// [`Mode::Continue`] it always does once the table exists).
    pub clock_advanced: bool,
}

/// Runs the deterministic mixed workload. Covers, in order: inserts,
/// flush, more inserts, flush, merge, inserts, schema change, inserts,
/// flush, TTL advance + reap, inserts, flush, final maintenance.
pub fn run_workload(db: &Db, clock: &SimClock, mode: Mode) -> Outcome {
    let mut out = Outcome::default();

    let table = match db.create_table(TABLE, schema(), Some(TTL)) {
        Ok(t) => t,
        Err(_) if mode == Mode::Continue => {
            out.step_errors += 1;
            match db.create_table(TABLE, schema(), Some(TTL)) {
                Ok(t) => t,
                Err(_) => return out,
            }
        }
        Err(_) => return out,
    };
    out.created = true;

    let insert_range = |table: &Arc<Table>, out: &mut Outcome, lo: u64, hi: u64| -> bool {
        for i in lo..hi {
            let ncols = table.schema().num_columns();
            match table.insert(vec![make_row(i, ncols)]) {
                Ok(_) => out.acked += 1,
                Err(_) if mode == Mode::Continue => out.failed_inserts.push(i),
                Err(_) => return false,
            }
        }
        true
    };
    macro_rules! step {
        ($e:expr) => {
            match $e {
                Ok(_) => true,
                Err(_) if mode == Mode::Continue => {
                    out.step_errors += 1;
                    true
                }
                Err(_) => false,
            }
        };
    }
    macro_rules! flush {
        () => {
            match table.flush_all() {
                Ok(()) => {
                    out.floor = out.acked;
                    true
                }
                Err(_) if mode == Mode::Continue => {
                    out.step_errors += 1;
                    true
                }
                Err(_) => false,
            }
        };
    }

    // Phase 1-2: two insert+flush rounds build two durable tablet sets.
    if !insert_range(&table, &mut out, 0, 40) || !flush!() {
        return out;
    }
    if !insert_range(&table, &mut out, 40, 80) || !flush!() {
        return out;
    }
    // Phase 2b: a continuous rollup over the flushed history. Creation
    // backfills the existing tablets; later maintenance passes fold the
    // rest, so crash points land before, during, and after folds.
    if !step!(db.create_rollup(ROLLUP, TABLE, ROLLUP_PERIOD, vec!["v".into()], vec![])) {
        return out;
    }
    // Phase 3: merge the flushed tablets.
    if !step!(db.maintain()) {
        return out;
    }
    // Phase 4: schema change with unflushed rows in memory.
    if !insert_range(&table, &mut out, 80, 100)
        || !step!(table.add_column(ColumnDef::with_default(
            "note",
            ColumnType::Str,
            Value::Str("-".into())
        )))
    {
        return out;
    }
    if !insert_range(&table, &mut out, 100, 130) || !flush!() {
        return out;
    }
    // Phase 5: TTL advance expires rows < EXPIRED_BELOW; reap them.
    clock.advance(TTL + EXPIRED_BELOW as i64 * STEP);
    out.clock_advanced = true;
    if !step!(db.maintain()) {
        return out;
    }
    // Phase 6: post-expiry inserts and a final flush + maintenance.
    if !insert_range(&table, &mut out, 130, TOTAL_ROWS) || !flush!() {
        return out;
    }
    step!(db.maintain());
    out
}

/// Extracts the sorted row indices visible in the table.
pub fn visible_indices(table: &Arc<Table>) -> Vec<u64> {
    table
        .query_all(&Query::all())
        .expect("recovered table must serve reads")
        .iter()
        .map(|r| match r.values[0] {
            Value::I64(n) => n as u64,
            ref v => panic!("unexpected index value {v:?}"),
        })
        .collect()
}

/// Invariant 3: the durable descriptor is self-consistent and the table
/// directory holds nothing uncommitted. Call after a reopen (which
/// retires `DESC.tmp` and deletes orphans). Works over any [`Vfs`] so
/// the same oracle runs against `SimVfs` sweeps and real-filesystem
/// (`FaultVfs<StdVfs>`) sweeps.
pub fn check_descriptor_consistency(vfs: &dyn Vfs) {
    if !vfs.exists(&join(TABLE, DESC_FILE)) {
        return;
    }
    let desc = TableDescriptor::load(vfs, TABLE).expect("descriptor must load after recovery");
    assert!(
        !vfs.exists(&join(TABLE, DESC_TMP)),
        "stale DESC.tmp survived reopen"
    );
    let mut ids = HashSet::new();
    for t in &desc.tablets {
        assert!(
            t.id < desc.next_tablet_id,
            "tablet id {} >= next_tablet_id {}",
            t.id,
            desc.next_tablet_id
        );
        assert!(ids.insert(t.id), "descriptor references id {} twice", t.id);
        let path = join(TABLE, &t.file_name());
        let size = vfs
            .file_size(&path)
            .unwrap_or_else(|_| panic!("referenced tablet {path} missing"));
        assert_eq!(size, t.bytes, "tablet {path} size mismatch");
    }
    for entry in vfs.list_dir(TABLE).unwrap() {
        if entry == DESC_FILE || entry.ends_with(QUARANTINE_SUFFIX) {
            continue;
        }
        assert_ne!(entry, DESC_TMP, "DESC.tmp present in listing");
        if let Some(id) = parse_tablet_file_name(&entry) {
            assert!(
                ids.contains(&id),
                "orphan tablet {entry} survived reopening"
            );
        }
    }
}

/// Rollup agreement oracle: the bucketed aggregate the SQL layer
/// computes — rollup partials merged with base-table tail scans when
/// the recovered `w_r` rollup is registered, a plain pushdown otherwise
/// — must equal a manual bucketing of a full base-table rescan. Run
/// after any recovery; whatever fold progress the crash or fault left
/// behind (unfolded tablets, partially inserted fold batches awaiting
/// their idempotent refold) must never change a query answer.
pub fn verify_rollup_agreement(db: &Db) {
    let Ok(table) = db.table(TABLE) else {
        return;
    };
    let mut expect: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for r in table
        .query_all(&Query::all())
        .expect("recovered table must serve reads")
    {
        let (Value::Timestamp(ts), Value::I64(v)) = (&r.values[1], &r.values[2]) else {
            panic!("unexpected row shape {r:?}");
        };
        let bucket = ts - ts.rem_euclid(ROLLUP_PERIOD);
        let e = expect.entry(bucket).or_insert((0, 0));
        e.0 += v;
        e.1 += 1;
    }
    let session = Session::new(db.clone());
    let out = session
        .execute(
            "SELECT TIME_BUCKET(ts, INTERVAL '20ms'), SUM(v), COUNT(*) FROM w \
             GROUP BY TIME_BUCKET(ts, INTERVAL '20ms')",
        )
        .expect("bucketed aggregate must run after recovery");
    let SqlOutput::Rows { rows, .. } = out else {
        panic!("aggregate returned {out:?}");
    };
    assert_eq!(
        rows.len(),
        expect.len(),
        "rollup-served buckets disagree with base rescan"
    );
    for (row, (bucket, (sum, count))) in rows.iter().zip(&expect) {
        assert_eq!(
            row,
            &vec![
                Value::Timestamp(*bucket),
                Value::I64(*sum),
                Value::I64(*count)
            ],
            "bucket {bucket} disagrees with base rescan"
        );
    }
}

/// The crash oracle: reboot the disk, reopen, and machine-check the
/// clean-prefix, no-duplicate, and descriptor-consistency invariants
/// against what the interrupted workload acked. `out` must come from a
/// [`Mode::Stop`] run.
pub fn verify_crash_recovery(vfs: &SimVfs, clock: &SimClock, out: &Outcome) {
    vfs.crash();
    vfs.clear_fault_plan();
    let db = open_db(vfs, clock).expect("reopen after crash must succeed");
    check_descriptor_consistency(vfs);
    let table = match db.table(TABLE) {
        Ok(t) => t,
        Err(_) => {
            assert!(
                !out.created,
                "table acked to the client but lost in the crash"
            );
            return;
        }
    };

    // Invariant 1: clean prefix (contiguous visible range).
    let idx = visible_indices(&table);
    for w in idx.windows(2) {
        assert_eq!(
            w[1],
            w[0] + 1,
            "hole in recovered range: {} -> {}",
            w[0],
            w[1]
        );
    }
    let vis_max = idx.last().copied();
    if let Some(m) = vis_max {
        assert!(m < out.acked, "recovered row {m} was never acked");
    }
    if out.floor > 0 {
        let m = vis_max.expect("flushed rows lost: nothing visible");
        assert!(
            m >= out.floor - 1,
            "flushed rows lost: floor {}, visible max {m}",
            out.floor
        );
    }

    // Invariant 2a: a recovered row re-sent by the client is a duplicate.
    let ncols = table.schema().num_columns();
    if let Some(m) = vis_max {
        let rep = table.insert(vec![make_row(m, ncols)]).unwrap();
        assert_eq!(
            (rep.inserted, rep.duplicates),
            (0, 1),
            "recovered row {m} not deduplicated"
        );
    }
    // Invariant 2b: the unrecovered tail re-sends cleanly, exactly once.
    let resume = vis_max.map(|m| m + 1).unwrap_or(0);
    for i in resume..out.acked {
        let rep = table.insert(vec![make_row(i, ncols)]).unwrap();
        assert_eq!(
            (rep.inserted, rep.duplicates),
            (1, 0),
            "re-sent row {i} rejected"
        );
    }
    table.flush_all().expect("post-recovery flush must succeed");

    // After the re-send, everything acked (minus any expired head) is
    // visible and still contiguous.
    let idx = visible_indices(&table);
    for w in idx.windows(2) {
        assert_eq!(w[1], w[0] + 1, "hole after re-send: {} -> {}", w[0], w[1]);
    }
    if out.acked > 0 {
        assert_eq!(idx.last().copied(), Some(out.acked - 1), "tail not re-sent");
    }
    verify_rollup_agreement(&db);
}

/// The live half of the degraded-service oracle, VFS-agnostic: no crash
/// happened, so after the fault plan is exhausted the same engine must
/// keep serving, accept the re-sent failures, and end with zero data
/// loss. The caller must have cleared the fault plan first. `out` must
/// come from a [`Mode::Continue`] run. Returns the table when it
/// exists, so VFS-specific epilogues can continue the check.
pub fn verify_degraded_live(db: &Db, out: &Outcome) -> Option<Arc<Table>> {
    let table = match db.table(TABLE) {
        Ok(t) => t,
        Err(_) => {
            assert!(!out.created, "created table vanished without a crash");
            return None;
        }
    };
    let ncols = table.schema().num_columns();
    for &i in &out.failed_inserts {
        if i < EXPIRED_BELOW && out.clock_advanced {
            continue; // already expired; invisible either way
        }
        // A failed insert must have either not happened (re-send lands)
        // or happened entirely (re-send is a duplicate) — never a
        // half-state that errors.
        let rep = table.insert(vec![make_row(i, ncols)]).unwrap();
        assert_eq!(rep.inserted + rep.duplicates, 1, "re-send of {i} lost");
    }
    table.flush_all().expect("flush after fault must succeed");
    db.maintain().expect("maintenance after fault must succeed");

    // A Continue-mode run with a live table always reaches the end of
    // the workload (only a double create failure returns early), so the
    // final picture is exact: every non-expired index, nothing else.
    assert!(out.clock_advanced, "continue-mode run stopped early");
    let idx = visible_indices(&table);
    let expected: Vec<u64> = (EXPIRED_BELOW..TOTAL_ROWS).collect();
    assert_eq!(idx, expected, "data lost or duplicated under I/O errors");
    verify_rollup_agreement(db);
    Some(table)
}

/// The degraded-service oracle for non-fatal faults on a `SimVfs`: the
/// live check above, then the durability epilogue across a simulated
/// power cut and reopen (which is where orphan cleanup and `DESC.tmp`
/// retirement are defined to run, so the descriptor-consistency check
/// comes after the reboot). `out` must come from a [`Mode::Continue`]
/// run.
pub fn verify_degraded_service(vfs: &SimVfs, clock: &SimClock, db: &Db, out: &Outcome) {
    vfs.clear_fault_plan();
    if verify_degraded_live(db, out).is_none() {
        return;
    }
    let expected: Vec<u64> = (EXPIRED_BELOW..TOTAL_ROWS).collect();

    // The healed store must also be durable: the last flush/maintain
    // succeeded fault-free, so a power cut right now loses nothing and
    // recovery leaves a self-consistent directory.
    vfs.crash();
    let db2 = open_db(vfs, clock).expect("reopen after degraded episode");
    check_descriptor_consistency(vfs);
    let table2 = db2.table(TABLE).expect("table lost after degraded episode");
    assert_eq!(
        visible_indices(&table2),
        expected,
        "degraded-mode durability promise broken by a crash"
    );
}

/// Rows the interleaved-period workload inserts.
pub const INTERLEAVED_ROWS: u64 = 120;
/// µs in a day.
pub const DAY: i64 = 86_400 * 1_000_000;

/// Row `i` of the interleaved-period workload: even rows fall in the
/// current day, odd ones in a week a month back.
pub fn interleaved_row(i: u64) -> Vec<Value> {
    let month_back = (i % 2) as i64 * 30 * DAY;
    vec![
        Value::I64(i as i64),
        Value::Timestamp(START - month_back + i as i64 * STEP),
        Value::I64(i as i64 * 10),
    ]
}

/// Opens (or reopens) the interleaved-period workload's database: the
/// harness options with a flush size of a few rows.
pub fn open_interleaved_db(vfs: &SimVfs, clock: &SimClock) -> littletable::Result<Db> {
    let opts = Options {
        flush_size: 400,
        ..opts()
    };
    Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts)
}

/// Runs the interleaved-period workload, stopping at the first error.
/// Rows alternate between two periods, so two tablets fill at once and
/// every seal — by size every few rows, by age in a maintenance pass
/// (which merges too), by `flush_before` of the old week, by `flush_all` —
/// takes both into one flush group.
pub fn run_interleaved(db: &Db, clock: &SimClock) -> Outcome {
    let mut out = Outcome::default();
    let Ok(table) = db.create_table(TABLE, schema(), None) else {
        return out;
    };
    out.created = true;
    for i in 0..INTERLEAVED_ROWS {
        if table.insert(vec![interleaved_row(i)]).is_err() {
            return out;
        }
        out.acked += 1;
        let step = match i % 40 {
            13 => table.flush_before(START - 30 * DAY + i as i64 * STEP),
            26 => {
                clock.advance(opts().flush_age + 1);
                db.maintain().map(drop)
            }
            39 => table.flush_all().map(|()| out.floor = out.acked),
            _ => Ok(()),
        };
        if step.is_err() {
            return out;
        }
    }
    out
}

/// The interleaved workload's crash oracle: reboot, reopen, and check
/// that the visible rows are exactly the first k rows in insertion order
/// for some k at or above the last acked `flush_all` — whichever period
/// each row fell in — and that the unrecovered tail re-sends cleanly.
pub fn verify_interleaved_recovery(vfs: &SimVfs, clock: &SimClock, out: &Outcome) {
    vfs.crash();
    vfs.clear_fault_plan();
    let db = open_interleaved_db(vfs, clock).expect("reopen after crash must succeed");
    check_descriptor_consistency(vfs);
    let Ok(table) = db.table(TABLE) else {
        assert!(
            !out.created,
            "table acked to the client but lost in the crash"
        );
        return;
    };
    let k = visible_indices(&table).len() as u64;
    assert_eq!(
        visible_indices(&table),
        (0..k).collect::<Vec<_>>(),
        "recovered rows are not a prefix of the insertion order"
    );
    assert!(
        (out.floor..=out.acked).contains(&k),
        "recovered {k} rows; floor {}, acked {}",
        out.floor,
        out.acked
    );
    for i in k..out.acked {
        let rep = table.insert(vec![interleaved_row(i)]).unwrap();
        assert_eq!(rep.inserted, 1, "re-sent row {i} rejected");
    }
    table.flush_all().expect("post-recovery flush must succeed");
    assert_eq!(visible_indices(&table), (0..out.acked).collect::<Vec<_>>());
}

/// Runs the workload once on a pristine store with no faults and returns
/// the total number of VFS operations it performs — the sweep space.
pub fn count_workload_ops() -> u64 {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let out = run_workload(&db, &clock, Mode::Stop);
    assert_eq!(out.acked, TOTAL_ROWS, "fault-free workload must complete");
    assert_eq!(out.floor, TOTAL_ROWS);
    vfs.op_count()
}

/// As [`count_workload_ops`], for the interleaved-period workload.
pub fn count_interleaved_ops() -> u64 {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_interleaved_db(&vfs, &clock).unwrap();
    let out = run_interleaved(&db, &clock);
    assert_eq!(
        out.floor, INTERLEAVED_ROWS,
        "fault-free workload must complete"
    );
    vfs.op_count()
}
