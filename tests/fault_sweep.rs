//! Exhaustive crash-point / error-point sweep in the FoundationDB/ALICE
//! style: run the deterministic mixed workload once to count its I/O
//! operations, then replay it injecting a crash (or a transient error)
//! after every k-th operation, recover, and machine-check the paper's
//! recovery invariants (see `tests/common/mod.rs` for the oracle).
//!
//! Tier-1 runs a sampled stride across the op space; set `LT_FULL_SWEEP=1`
//! to sweep every single operation. Alongside the sweeps live the
//! graceful-degradation acceptance tests: transient `EIO` retried by
//! background maintenance, `ENOSPC` during flush leaving reads serving,
//! and seeded random fault fuzzing.

mod common;

use common::*;
use littletable::vfs::{
    FaultKind, FaultPlan, FaultRule, FaultVfs, OpKind, RandomFaults, SimClock, SimVfs, StdVfs, Vfs,
};
use littletable::{Db, Options, Query};
use std::path::PathBuf;
use std::sync::Arc;

fn full_sweep() -> bool {
    std::env::var("LT_FULL_SWEEP")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Crash after global op `k`, then run the crash oracle.
fn crash_point(k: u64) {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    vfs.set_fault_plan(FaultPlan::crash_at(k));
    let out = match open_db(&vfs, &clock) {
        Ok(db) => run_workload(&db, &clock, Mode::Stop),
        Err(_) => Outcome::default(),
    };
    assert!(vfs.faults_injected() > 0, "crash point {k} never fired");
    let trace = vfs.take_fault_trace();
    assert_eq!(trace[0].op_index, k, "crash fired at the wrong op");
    verify_crash_recovery(&vfs, &clock, &out);
}

/// Fail global op `k` once with `kind` (no crash), then run the
/// degraded-service oracle on the same live engine.
fn error_point(k: u64, kind: FaultKind) {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    vfs.set_fault_plan(FaultPlan::fail_at(k, kind));
    // If the fault lands inside `Db::open` itself, the client's recourse
    // is to reopen; the single-shot rule is already spent, so the retry
    // must succeed.
    let db = open_db(&vfs, &clock)
        .or_else(|_| open_db(&vfs, &clock))
        .expect("reopen after a single injected fault must succeed");
    let out = run_workload(&db, &clock, Mode::Continue);
    assert!(vfs.faults_injected() > 0, "error point {k} never fired");
    verify_degraded_service(&vfs, &clock, &db, &out);
}

/// Tear the `m`-th append (1-based) short, then verify degraded service.
/// Returns false when the workload performs fewer than `m` appends.
fn torn_point(m: u64) -> bool {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    vfs.set_fault_plan(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::TornWrite)
                .on_ops(&[OpKind::Append])
                .nth_match(m)
                .times(1),
        ),
    );
    let db = open_db(&vfs, &clock).expect("open performs no appends");
    let out = run_workload(&db, &clock, Mode::Continue);
    if vfs.faults_injected() == 0 {
        return false;
    }
    verify_degraded_service(&vfs, &clock, &db, &out);
    true
}

#[test]
fn workload_op_count_is_stable() {
    let a = count_workload_ops();
    let b = count_workload_ops();
    assert_eq!(a, b, "workload is not I/O-deterministic");
    // Sweep budget: every op gets a crash point and ~n/3 each get an EIO
    // and an ENOSPC point, so n >= 110 keeps the suite above 200 distinct
    // injection points even in sampled mode.
    assert!(
        a >= 110,
        "workload too small to honor the 200-point sweep budget: {a} ops"
    );
}

#[test]
fn crash_point_sweep() {
    let n = count_workload_ops();
    // Floor division so sampling never dips below the 120-point budget
    // as the workload grows (ceil(n / (n/150)) >= 150 for n >= 150).
    let stride = if full_sweep() { 1 } else { (n / 150).max(1) };
    let mut points = 0u64;
    let mut k = 0;
    while k < n {
        crash_point(k);
        points += 1;
        k += stride;
    }
    assert!(
        points >= 120.min(n),
        "crash sweep covered only {points} points"
    );
}

#[test]
fn eio_point_sweep() {
    let n = count_workload_ops();
    let stride = if full_sweep() {
        1
    } else {
        n.div_ceil(45).max(1)
    };
    let mut k = 1; // offset the strides so EIO and ENOSPC hit different ops
    let mut points = 0u64;
    while k < n {
        error_point(k, FaultKind::Eio);
        points += 1;
        k += stride;
    }
    assert!(
        points >= 40.min(n),
        "EIO sweep covered only {points} points"
    );
}

#[test]
fn enospc_point_sweep() {
    let n = count_workload_ops();
    let stride = if full_sweep() {
        1
    } else {
        n.div_ceil(45).max(1)
    };
    let mut k = 2;
    let mut points = 0u64;
    while k < n {
        error_point(k, FaultKind::Enospc);
        points += 1;
        k += stride;
    }
    assert!(
        points >= 40.min(n),
        "ENOSPC sweep covered only {points} points"
    );
}

#[test]
fn torn_write_sweep() {
    let stride = if full_sweep() { 1 } else { 3 };
    let mut m = 1;
    let mut points = 0u64;
    while torn_point(m) {
        points += 1;
        m += stride;
    }
    assert!(points >= 10, "torn sweep covered only {points} appends");
}

/// Fresh scratch directory for a real-filesystem run, kept inside the
/// cargo target tree (tests must not write outside the repo).
fn std_scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("lt-stdvfs-{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn open_std_db(vfs: &FaultVfs<StdVfs>, clock: &SimClock) -> littletable::Result<Db> {
    Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts())
}

/// The real-filesystem analogue of [`error_point`]: the same workload
/// and degraded-service oracle, but the faults are injected by a
/// [`FaultVfs`] wrapped around [`StdVfs`], so the engine's error paths
/// run against genuine OS I/O. The durability epilogue is a graceful
/// process restart over the same directory — a real disk cannot be
/// power-cut, so the SimVfs crash epilogue stays simulation-only.
fn std_error_point(root: PathBuf, k: u64, kind: FaultKind) {
    let vfs = FaultVfs::new(StdVfs::new(&root).expect("create scratch root"));
    let clock = SimClock::new(START);
    vfs.set_fault_plan(FaultPlan::fail_at(k, kind));
    let db = open_std_db(&vfs, &clock)
        .or_else(|_| open_std_db(&vfs, &clock))
        .expect("reopen after a single injected fault must succeed");
    let out = run_workload(&db, &clock, Mode::Continue);
    assert!(
        vfs.faults_injected() > 0,
        "error point {k} never fired on StdVfs"
    );
    vfs.clear_fault_plan();
    if verify_degraded_live(&db, &out).is_some() {
        drop(db);
        let db2 = open_std_db(&vfs, &clock).expect("reopen after degraded episode");
        check_descriptor_consistency(&vfs);
        let table2 = db2.table(TABLE).expect("table lost across restart");
        let expected: Vec<u64> = (EXPIRED_BELOW..TOTAL_ROWS).collect();
        assert_eq!(
            visible_indices(&table2),
            expected,
            "real-FS durability promise broken by a restart"
        );
    }
    std::fs::remove_dir_all(&root).expect("clean scratch dir");
}

#[test]
fn stdvfs_error_point_sweep() {
    // Baseline: the workload must complete fault-free on a real disk,
    // and its op count (as seen by the wrapper, which meters a slightly
    // different op set than SimVfs) sizes the sweep.
    let base = std_scratch("sweep");
    let n = {
        let root = base.join("baseline");
        let vfs = FaultVfs::new(StdVfs::new(&root).expect("create baseline root"));
        let clock = SimClock::new(START);
        let db = open_std_db(&vfs, &clock).expect("open on StdVfs");
        let out = run_workload(&db, &clock, Mode::Stop);
        assert_eq!(out.acked, TOTAL_ROWS, "fault-free StdVfs run incomplete");
        assert_eq!(out.floor, TOTAL_ROWS);
        vfs.op_count()
    };
    assert!(n >= 16, "StdVfs workload too small to sweep: {n} ops");
    // Tier-1 samples ~8 points per error kind (real-FS runs are slower
    // than simulated ones); LT_FULL_SWEEP=1 visits every op.
    let stride = if full_sweep() { 1 } else { (n / 8).max(1) };
    for (name, kind) in [("eio", FaultKind::Eio), ("enospc", FaultKind::Enospc)] {
        let mut k = if name == "eio" { 1 } else { 2 };
        let mut points = 0u64;
        while k < n {
            std_error_point(base.join(format!("{name}-{k}")), k, kind);
            points += 1;
            k += stride;
        }
        assert!(
            points >= 8.min(n),
            "StdVfs {name} sweep covered only {points} points"
        );
    }
    std::fs::remove_dir_all(&base).expect("clean sweep scratch");
}

#[test]
fn random_fault_fuzz() {
    // Seeded pseudo-random EIO sprinkles: several independent schedules,
    // each deterministic, each ending in the no-data-loss oracle.
    for seed in 0..8u64 {
        let vfs = SimVfs::instant();
        let clock = SimClock::new(START);
        vfs.set_fault_plan(FaultPlan::new().random(RandomFaults {
            seed,
            one_in: 31,
            kind: FaultKind::Eio,
            ops: None,
        }));
        let db = (0..5)
            .find_map(|_| open_db(&vfs, &clock).ok())
            .expect("open keeps failing under sparse random EIO");
        let out = run_workload(&db, &clock, Mode::Continue);
        verify_degraded_service(&vfs, &clock, &db, &out);
    }
}

#[test]
fn random_crash_fuzz() {
    // A random-op crash per seed: equivalent to a crash point drawn from
    // a seeded distribution, checked with the full crash oracle.
    for seed in 0..8u64 {
        let vfs = SimVfs::instant();
        let clock = SimClock::new(START);
        vfs.set_fault_plan(FaultPlan::new().random(RandomFaults {
            seed,
            one_in: 101,
            kind: FaultKind::Crash,
            ops: None,
        }));
        let out = match open_db(&vfs, &clock) {
            Ok(db) => run_workload(&db, &clock, Mode::Stop),
            Err(_) => Outcome::default(),
        };
        verify_crash_recovery(&vfs, &clock, &out);
    }
}

#[test]
fn transient_eio_maintenance_is_retried() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..50 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    // Age the filling tablet past flush_age so maintenance seals and
    // flushes it, and make the flush's first sync fail once with EIO.
    clock.advance(opts().flush_age + 1);
    vfs.set_fault_plan(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::Eio)
                .on_ops(&[OpKind::Sync])
                .nth_match(1)
                .times(1),
        ),
    );
    db.maintain()
        .expect("transient EIO must be retried to success");
    let snap = table.stats().snapshot();
    assert!(snap.io_retries >= 1, "retry not counted: {snap:?}");
    assert_eq!(snap.maintenance_errors, 0, "retry should have succeeded");
    assert!(snap.tablets_flushed >= 1, "flush never completed");
    assert_eq!(vfs.faults_injected(), 1);

    // The flushed rows are durable: a crash must not lose them.
    vfs.crash();
    let db2 = open_db(&vfs, &clock).unwrap();
    let rows = db2.table(TABLE).unwrap().query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 50, "rows lost despite successful retry");
}

#[test]
fn enospc_flush_keeps_reads_serving_and_inserts_clean() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let tight = Options {
        max_sealed_backlog: 1,
        ..opts()
    };
    let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), tight).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..60 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    // The disk is full for every data write under the table's directory.
    vfs.set_fault_plan(
        FaultPlan::new().rule(FaultRule::new(FaultKind::Enospc).on_ops(&[
            OpKind::Create,
            OpKind::Append,
            OpKind::Sync,
        ])),
    );

    // Flush fails with a clean disk-full error; membership is untouched.
    let err = table.flush_all().expect_err("flush must fail on ENOSPC");
    assert!(err.is_disk_full(), "expected disk-full, got {err:?}");
    assert_eq!(table.num_disk_tablets(), 0, "partial flush published");

    // Reads keep serving everything from memory.
    assert_eq!(table.query_all(&Query::all()).unwrap().len(), 60);

    // More inserts are accepted until the sealed backlog fills; then the
    // inline flush surfaces the same clean error instead of a panic.
    for i in 60..80 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    let _ = table.flush_all(); // seals another group; still failing
    let insert_err = (80..200)
        .map(|i| table.insert(vec![make_row(i, 3)]))
        .find_map(|r| r.err())
        .expect("backlog pressure must surface the disk-full error");
    assert!(insert_err.is_disk_full(), "got {insert_err:?}");

    // Maintenance reports (and counts) the failure without retrying a
    // full disk: ENOSPC is not transient.
    db.maintain().expect_err("maintenance must surface ENOSPC");
    let snap = table.stats().snapshot();
    assert!(snap.maintenance_errors >= 1, "error not counted: {snap:?}");
    assert_eq!(snap.io_retries, 0, "ENOSPC must not be retried");

    // Space returns: everything drains with zero loss.
    vfs.clear_fault_plan();
    table
        .flush_all()
        .expect("flush succeeds once space returns");
    let visible = table.query_all(&Query::all()).unwrap().len();
    vfs.crash();
    let db2 = open_db(&vfs, &clock).unwrap();
    let recovered = db2.table(TABLE).unwrap().query_all(&Query::all()).unwrap();
    assert_eq!(recovered.len(), visible, "rows lost after ENOSPC episode");
}

#[test]
fn failed_sync_is_never_published() {
    // fsync-gate: if the flush's sync fails, the output file must not be
    // referenced by the descriptor nor left on disk.
    let vfs = SimVfs::instant();
    let clock = SimClock::new(START);
    let db = open_db(&vfs, &clock).unwrap();
    let table = db.create_table(TABLE, schema(), None).unwrap();
    for i in 0..40 {
        table.insert(vec![make_row(i, 3)]).unwrap();
    }
    vfs.set_fault_plan(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::Eio)
                .on_ops(&[OpKind::Sync])
                .on_path("tab-")
                .times(1),
        ),
    );
    table
        .flush_all()
        .expect_err("flush must fail on sync error");
    assert_eq!(table.num_disk_tablets(), 0, "unsynced tablet published");
    let leftovers: Vec<String> = vfs
        .list_dir(TABLE)
        .unwrap()
        .into_iter()
        .filter(|e| e.starts_with("tab-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "partial files left behind: {leftovers:?}"
    );
    // The sealed rows survive in memory and flush cleanly on retry.
    table.flush_all().expect("retry must succeed");
    assert_eq!(table.query_all(&Query::all()).unwrap().len(), 40);
}
