//! End-to-end tests for the continuous rollup tier and the
//! invalidation-aware query-result cache, through the public facade:
//! DDL via SQL, folding via `Db::maintain`, serving via the planner's
//! rollup rewrite, recovery via reopen, and the wire protocol via
//! `handle_request`. The two acceptance properties live here:
//!
//! 1. a `TIME_BUCKET` SUM/COUNT query whose window is fully covered by
//!    rollup buckets reads **zero** base-table data (`pushdown_scans`
//!    and `rows_materialized` stay flat while `rollup_hits` advances);
//! 2. a cached result is never served after an insert that overlaps its
//!    bounding box — the cache key pins the table's `insert_seq`, which
//!    only an insert moves, so a cached result outlives a flush, a
//!    merge, a TTL reap and a fold.
//!
//! Beside them, the catalog's rollup bookkeeping: a drop cut short, on
//! the simulated disk and killed at every op on a real one, leaves no
//! rollup that can answer for a recreated base, and seeded DDL sequences
//! keep the catalog as a model says. And `CREATE ROLLUP` as one
//! transaction: each base tablet reaches each rollup once, whether older
//! rollups folded it before a merge, a maintenance pass runs during the
//! attach, or the create is killed at any op; no reader sees the rollup
//! before it is done; and killed at any op, the create and a drop
//! cascade each leave the catalog as it was before or after.

use littletable::core::rollup::RollupSpec;
use littletable::proto::{Request, Response};
use littletable::server::handle_request;
use littletable::vfs::{
    join, FaultPlan, FaultVfs, RandomAccessFile, SimClock, SimVfs, StdVfs, Vfs, WritableFile,
};
use littletable::{Db, Error, Options, Query, Session, SqlOutput, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const START: i64 = 1_700_000_000_000_000;
const HOUR: i64 = 3_600_000_000;

fn open() -> (Session, SimVfs, SimClock) {
    let clock = SimClock::new(START);
    let vfs = SimVfs::instant();
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    (Session::new(db), vfs, clock)
}

fn rows(out: SqlOutput) -> Vec<Vec<Value>> {
    match out {
        SqlOutput::Rows { rows, .. } => rows,
        o => panic!("expected rows, got {o:?}"),
    }
}

/// Creates `m`, loads 6 hours × 12 samples, flushes, and rolls up
/// hourly with SUM/MIN/MAX on `v` and a distinct sketch on `u`.
/// Returns the first bucket boundary at or before START.
fn seed(s: &Session) -> i64 {
    s.execute(
        "CREATE TABLE m (sensor INT64, ts TIMESTAMP, v INT64, u TEXT, \
         PRIMARY KEY (sensor, ts))",
    )
    .unwrap();
    for h in 0..6i64 {
        for i in 0..12i64 {
            s.execute(&format!(
                "INSERT INTO m VALUES (1, {}, {}, 'user{}')",
                START + h * HOUR + i * 60_000_000,
                h * 100 + i,
                (h * 12 + i) % 7
            ))
            .unwrap();
        }
    }
    s.db().flush_all().unwrap();
    s.execute("CREATE ROLLUP m_1h ON m PERIOD '1h' AGGREGATE (v) DISTINCT (u)")
        .unwrap();
    START - START.rem_euclid(HOUR)
}

#[test]
fn covered_window_reads_zero_base_blocks() {
    let (s, _, _) = open();
    let b0 = seed(&s);
    let before = s.db().table("m").unwrap().stats().snapshot();
    let q = format!(
        "SELECT TIME_BUCKET(ts, INTERVAL '1h'), SUM(v), COUNT(*) FROM m \
         WHERE ts >= {b0} AND ts < {} GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
        b0 + 7 * HOUR
    );
    let got = rows(s.execute(&q).unwrap());
    assert_eq!(got.len(), 6);
    for (h, row) in got.iter().enumerate() {
        let h = h as i64;
        // Sum of h*100 + (0..12): 12*h*100 + 66.
        assert_eq!(
            row,
            &vec![
                Value::Timestamp(b0 + h * HOUR),
                Value::I64(1200 * h + 66),
                Value::I64(12)
            ]
        );
    }
    let after = s.db().table("m").unwrap().stats().snapshot();
    assert_eq!(after.rollup_hits, before.rollup_hits + 1);
    assert_eq!(
        after.pushdown_scans, before.pushdown_scans,
        "covered window must not start a base-table scan"
    );
    assert_eq!(
        after.rows_materialized, before.rows_materialized,
        "covered window must not materialize base rows"
    );
}

#[test]
fn stale_cache_is_never_served_after_overlapping_insert() {
    let (s, _, _) = open();
    let b0 = seed(&s);
    let q = format!(
        "SELECT TIME_BUCKET(ts, INTERVAL '1h'), SUM(v) FROM m \
         WHERE ts >= {b0} AND ts < {} GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
        b0 + 7 * HOUR
    );
    // Prime and hit the cache.
    let first = rows(s.execute(&q).unwrap());
    assert_eq!(first[2][1], Value::I64(2466));
    let primed = s.db().table("m").unwrap().stats().snapshot();
    let again = rows(s.execute(&q).unwrap());
    assert_eq!(first, again);
    let hit = s.db().table("m").unwrap().stats().snapshot();
    assert_eq!(hit.result_cache_hits, primed.result_cache_hits + 1);
    // An insert overlapping the cached bounding box invalidates it:
    // the very next identical query recomputes and sees the row.
    s.execute(&format!(
        "INSERT INTO m VALUES (1, {}, 100000, 'fresh')",
        START + 2 * HOUR + 30 * 60_000_000
    ))
    .unwrap();
    let after = rows(s.execute(&q).unwrap());
    assert_eq!(after[2][1], Value::I64(102466), "stale cached sum served");
    let recomputed = s.db().table("m").unwrap().stats().snapshot();
    assert_eq!(recomputed.result_cache_hits, hit.result_cache_hits);
}

/// Only an insert moves the key's insert sequence, so a cached answer
/// outlives every maintenance step: a flush, a merge, a TTL reap and a
/// rollup fold move rows between tablets and change no answer above
/// the horizon.
#[test]
fn a_cached_answer_survives_maintenance() {
    let (s, _, clock) = open();
    s.execute("CREATE TABLE m (n INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (n, ts)) TTL '4h'")
        .unwrap();
    // Three devices, five minutes of samples from `at`.
    let load = |at: i64| {
        for n in 1..=3 {
            for i in 0..5 {
                let (ts, v) = (at + i * MINUTE, n * 100 + i);
                s.execute(&format!("INSERT INTO m VALUES ({n}, {ts}, {v})"))
                    .unwrap();
            }
        }
    };
    // X, in the 4-hour period before START's, which the horizon will
    // pass; then T1 and T2, two tablets of START's period.
    let period = START - START.rem_euclid(240 * MINUTE);
    for at in [
        period - 30 * MINUTE,
        START - 15 * MINUTE,
        START - 10 * MINUTE,
    ] {
        load(at);
        s.db().flush_all().unwrap();
    }
    s.execute("CREATE ROLLUP m_1h ON m PERIOD '1h' AGGREGATE (v)")
        .unwrap();
    // Rows still in memory when the answer is cached.
    load(START - 5 * MINUTE);
    let t = s.db().table("m").unwrap();
    let counts = || {
        let snap = t.stats().snapshot();
        (snap.result_cache_hits, snap.result_cache_misses)
    };
    let window = format!("FROM m WHERE ts >= {}", START - 20 * MINUTE);
    let q = format!("SELECT n, SUM(v), COUNT(*) {window} GROUP BY n");
    let first = rows(s.execute(&q).unwrap());
    // Device 1's rows of T1, T2 and memory.
    assert_eq!(first.len(), 3);
    assert_eq!(first[0], [1, 3 * 510, 15].map(Value::I64));
    let (hits, misses) = counts();
    let seq = t.insert_seq();
    // Flush; 90 minutes on, past the merge delay and still in START's
    // day (whose periods keep X apart from T1), the horizon has passed
    // X and not the window: one pass merges T1 and T2, reaps X and
    // folds the flushed tablet.
    s.db().flush_all().unwrap();
    clock.advance(90 * MINUTE);
    let report = s.db().maintain_table("m").unwrap();
    assert_eq!(
        (report.merges, report.tablets_expired, report.tablets_folded),
        (1, 1, 1)
    );
    assert_eq!(t.insert_seq(), seq);
    assert_eq!(rows(s.execute(&q).unwrap()), first);
    assert_eq!(counts(), (hits + 1, misses));
    // A residual predicate every row meets asks another question, so
    // it is computed afresh, over the tablets maintenance left.
    let fresh = format!("SELECT n, SUM(v), COUNT(*) {window} AND v >= 0 GROUP BY n");
    assert_eq!(rows(s.execute(&fresh).unwrap()), first);
    assert_eq!(counts(), (hits + 1, misses + 1));
}

#[test]
fn maintenance_folds_new_tablets_and_serving_tracks_the_watermark() {
    let (s, _, clock) = open();
    let b0 = seed(&s);
    let q = format!(
        "SELECT TIME_BUCKET(ts, INTERVAL '1h'), COUNT(*) FROM m \
         WHERE ts >= {b0} AND ts < {} GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
        b0 + 8 * HOUR
    );
    // A seventh hour arrives in memory: served by the base tail.
    s.execute(&format!(
        "INSERT INTO m VALUES (1, {}, 600, 'user0')",
        START + 6 * HOUR
    ))
    .unwrap();
    let got = rows(s.execute(&q).unwrap());
    assert_eq!(got.len(), 7);
    assert_eq!(got[6][1], Value::I64(1));
    // Flush + maintain folds the new tablet; the same aggregate (asked
    // with a no-op LIMIT so the result cache cannot answer it) now
    // comes entirely from the rollup.
    s.db().flush_all().unwrap();
    let folds_before = s.db().table("m").unwrap().stats().snapshot().rollup_folds;
    clock.advance(HOUR);
    s.db().maintain().unwrap();
    let before = s.db().table("m").unwrap().stats().snapshot();
    assert!(
        before.rollup_folds > folds_before,
        "maintenance never folded the flushed tablet"
    );
    let got = rows(s.execute(&format!("{q} LIMIT 100")).unwrap());
    assert_eq!(got.len(), 7);
    assert_eq!(got[6][1], Value::I64(1));
    let after = s.db().table("m").unwrap().stats().snapshot();
    assert_eq!(after.rollup_hits, before.rollup_hits + 1);
    assert_eq!(
        after.pushdown_scans, before.pushdown_scans,
        "fully folded window must not scan the base table"
    );
}

#[test]
fn rollup_and_cache_survive_reopen() {
    let (s, vfs, clock) = open();
    let b0 = seed(&s);
    let q = format!(
        "SELECT TIME_BUCKET(ts, INTERVAL '1h'), SUM(v), COUNT(DISTINCT u) FROM m \
         WHERE ts >= {b0} AND ts < {} GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
        b0 + 7 * HOUR
    );
    let before = rows(s.execute(&q).unwrap());
    drop(s);

    // Reboot: the spec file is rediscovered, serving keeps working, and
    // the (empty again) result cache repopulates.
    vfs.crash();
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    assert_eq!(db.list_rollups().len(), 1, "rollup spec lost on reopen");
    let s = Session::new(db.clone());
    let hits0 = db.table("m").unwrap().stats().snapshot().rollup_hits;
    let after = rows(s.execute(&q).unwrap());
    assert_eq!(before, after, "reopened rollup changed the answer");
    assert_eq!(
        db.table("m").unwrap().stats().snapshot().rollup_hits,
        hits0 + 1
    );
}

#[test]
fn rollup_ddl_over_the_wire() {
    let clock = SimClock::new(START);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let s = Session::new(db.clone());
    s.execute(
        "CREATE TABLE m (sensor INT64, ts TIMESTAMP, v INT64, \
         PRIMARY KEY (sensor, ts))",
    )
    .unwrap();
    s.execute(&format!("INSERT INTO m VALUES (1, {START}, 5)"))
        .unwrap();
    let req = Request::CreateRollup {
        name: "m_1h".into(),
        base: "m".into(),
        period: HOUR,
        value_cols: vec!["v".into()],
        distinct_cols: vec![],
    };
    // The request survives its wire encoding and creates a served
    // rollup.
    let req = Request::decode(&req.encode()).unwrap();
    assert_eq!(handle_request(&db, req), Response::Ok);
    let got = rows(
        s.execute("SELECT sensor, SUM(v), COUNT(*) FROM m GROUP BY sensor")
            .unwrap(),
    );
    assert_eq!(got, vec![vec![Value::I64(1), Value::I64(5), Value::I64(1)]]);
    assert!(db.table("m").unwrap().stats().snapshot().rollup_hits >= 1);
    assert_eq!(
        handle_request(
            &db,
            Request::DropRollup {
                name: "m_1h".into()
            }
        ),
        Response::Ok
    );
    assert!(db.table("m_1h").is_err());
}

/// The bucket at or before START.
const B0: i64 = START - START.rem_euclid(HOUR);

/// Creates `m (sensor, ts, v)` and loads 6 hours × 12 samples of `v`,
/// one table write, flushed.
fn load_m(s: &Session, v: i64) {
    s.execute("CREATE TABLE m (sensor INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (sensor, ts))")
        .unwrap();
    let rows = (0..72i64).map(|i| {
        let ts = START + (i / 12) * HOUR + (i % 12) * 60_000_000;
        vec![Value::I64(1), Value::Timestamp(ts), Value::I64(v)]
    });
    s.db().table("m").unwrap().insert(rows.collect()).unwrap();
    s.db().flush_all().unwrap();
}

/// `m` at `v = 1000`, rolled up hourly with SUM/MIN/MAX on `v`.
fn seed_thousands(s: &Session) {
    load_m(s, 1000);
    s.execute("CREATE ROLLUP m_1h ON m PERIOD '1h' AGGREGATE (v)")
        .unwrap();
}

/// `m`'s hourly `SUM(v), COUNT(*)` over its six hours.
fn hourly(s: &Session) -> Vec<Vec<Value>> {
    rows(
        s.execute(&format!(
            "SELECT TIME_BUCKET(ts, INTERVAL '1h'), SUM(v), COUNT(*) FROM m \
             WHERE ts >= {B0} AND ts < {} GROUP BY TIME_BUCKET(ts, INTERVAL '1h')",
            B0 + 7 * HOUR
        ))
        .unwrap(),
    )
}

/// `(ts, v)` rows folded into `width`-wide buckets: per bucket, in
/// order, its start, `SUM(v)` and `COUNT(*)`.
fn bucket_sums(rows: impl IntoIterator<Item = (i64, i64)>, width: i64) -> Vec<Vec<Value>> {
    let mut sums: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for (ts, v) in rows {
        let e = sums.entry(ts - ts.rem_euclid(width)).or_default();
        *e = (e.0 + v, e.1 + 1);
    }
    let row = |(b, (sum, n))| vec![Value::Timestamp(b), Value::I64(sum), Value::I64(n)];
    sums.into_iter().map(row).collect()
}

/// No listed rollup names a missing base, and the merge flag is set on
/// exactly the tables some rollup names.
fn assert_rollups_have_bases(db: &Db) {
    let rollups = db.list_rollups();
    for spec in &rollups {
        assert!(
            db.table(&spec.base).is_ok(),
            "rollup {:?} lists missing base {:?}",
            spec.name,
            spec.base
        );
    }
    for name in db.list_tables() {
        let named = rollups.iter().any(|s| s.base == name);
        let flagged = db.table(&name).unwrap().is_rollup_source();
        assert_eq!(flagged, named, "merge flag of {name:?}");
    }
}

/// Recreates `m` at `v = 1`, folds, and checks that every hour reads
/// the new rows only.
fn assert_recreated_m_answers_for_itself(s: &Session) {
    load_m(s, 1);
    s.db().maintain().unwrap();
    let got = hourly(s);
    let want: Vec<Vec<Value>> = (0..6)
        .map(|h| {
            vec![
                Value::Timestamp(B0 + h * HOUR),
                Value::I64(12),
                Value::I64(12),
            ]
        })
        .collect();
    assert_eq!(got, want, "a recreated m answered with another's rows");
}

/// Base `m`'s files gone and its rollup's left, as a drop cut short
/// between the two leaves them. The reopened catalog lists no rollup
/// without a base, and a recreated `m` — whose tablet ids restart at 1,
/// so its partials would collide with the leftover's — answers from its
/// own rows.
#[test]
fn an_interrupted_drop_cannot_answer_for_a_recreated_base() {
    let (s, vfs, clock) = open();
    seed_thousands(&s);
    drop(s);
    for file in vfs.list_dir("m").unwrap() {
        vfs.remove(&join("m", &file)).unwrap();
    }
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    assert_rollups_have_bases(&db);
    assert_recreated_m_answers_for_itself(&Session::new(db));
}

/// `drop_table("m")` over `m_1h`, killed at each of its I/O operations
/// in turn on a real file system, then restarted: no rollup outlives its
/// base, the merge flag marks exactly the bases, a surviving `m`
/// answers as a fold of the rows it holds, and a recreated one answers
/// for itself.
#[test]
fn a_drop_cascade_killed_at_every_op_recovers() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lt-rollup-drop-kill");
    let _ = std::fs::remove_dir_all(&root);
    let clock = SimClock::new(START);
    let open_on = |vfs: &FaultVfs<StdVfs>| {
        let opts = Options::small_for_tests();
        Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap()
    };
    let bed = |dir: &str| {
        let vfs = FaultVfs::new(StdVfs::new(root.join(dir)).unwrap());
        let db = open_on(&vfs);
        seed_thousands(&Session::new(db.clone()));
        (vfs, db)
    };
    let ops = {
        let (vfs, db) = bed("count");
        let before = vfs.op_count();
        db.drop_table("m").unwrap();
        vfs.op_count() - before
    };
    assert!(ops >= 4, "the drop took only {ops} ops");
    for k in 0..ops {
        let (vfs, db) = bed(&format!("kill-{k}"));
        vfs.set_fault_plan(FaultPlan::crash_at(vfs.op_count() + k));
        let _ = db.drop_table("m");
        assert_eq!(vfs.faults_injected(), 1, "kill at op {k} never fired");
        drop(db);
        vfs.clear_fault_plan();
        vfs.reboot();
        let s = Session::new(open_on(&vfs));
        assert_rollups_have_bases(s.db());
        let Ok(m) = s.db().table("m") else {
            assert_recreated_m_answers_for_itself(&s);
            continue;
        };
        let held = m.query_all(&Query::all()).unwrap().into_iter().map(|row| {
            match (&row.values[1], &row.values[2]) {
                (Value::Timestamp(ts), Value::I64(v)) => (*ts, *v),
                _ => panic!("bad row {row:?}"),
            }
        });
        let want = bucket_sums(held, HOUR);
        let hits = m.stats().snapshot().rollup_hits;
        assert_eq!(hourly(&s), want, "kill at op {k}");
        let served = m.stats().snapshot().rollup_hits - hits;
        let rolled = !s.db().rollup_specs_for("m").is_empty();
        assert_eq!(served, u64::from(rolled), "kill at op {k}: rollup hits");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Seeded random sequences of create table, create rollup, drop rollup,
/// drop and recreate base, insert, flush and `maintain`, against a model
/// of the catalog: after every step the table and rollup listings, each
/// base's specs and every table's merge flag match it, and a
/// rollup-servable `SUM` over each base equals the fold of its rows.
#[test]
fn ddl_sequences_keep_the_catalog_as_modelled() {
    const BASES: [&str; 2] = ["a", "b"];
    let mut served = 0;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (s, _, clock) = open();
        let db = s.db().clone();
        // Table name -> the base it rolls up, or None for a base.
        let mut model: BTreeMap<String, Option<String>> = BTreeMap::new();
        // Each base's rows, as (ts, v).
        let mut data: BTreeMap<String, Vec<(i64, i64)>> = BTreeMap::new();
        let mut next_ts = START;
        for step in 0..60 {
            let base = BASES[rng.gen_range(0..BASES.len())];
            let hours = rng.gen_range(1..3i64);
            let rollup = format!("{base}_{hours}h");
            let is_base = model.get(base) == Some(&None);
            let ctx = format!("seed {seed} step {step}");
            match rng.gen_range(0..9) {
                0 => {
                    let made = s.execute(&format!(
                        "CREATE TABLE {base} (sensor INT64, ts TIMESTAMP, v INT64, \
                         PRIMARY KEY (sensor, ts))"
                    ));
                    assert_eq!(made.is_ok(), !model.contains_key(base), "{ctx}");
                    model.entry(base.into()).or_insert(None);
                    data.entry(base.into()).or_default();
                }
                1 => {
                    let made = s.execute(&format!(
                        "CREATE ROLLUP {rollup} ON {base} PERIOD '{hours}h' AGGREGATE (v)"
                    ));
                    let fits = is_base && !model.contains_key(&rollup);
                    assert_eq!(made.is_ok(), fits, "{ctx}: {made:?}");
                    if fits {
                        model.insert(rollup, Some(base.into()));
                    }
                }
                2 => {
                    let over = model.keys().find(|n| model[*n].is_some()).cloned();
                    let name = over.unwrap_or(rollup);
                    let made = s.execute(&format!("CREATE ROLLUP {name}_r ON {name} PERIOD '1h'"));
                    assert!(made.is_err(), "{ctx}: a rollup over {name:?}");
                }
                3 => {
                    let dropped = s.execute(&format!("DROP ROLLUP {rollup}"));
                    let was = matches!(model.get(&rollup), Some(Some(_)));
                    assert_eq!(dropped.is_ok(), was, "{ctx}");
                    if was {
                        model.remove(&rollup);
                    }
                }
                4 => {
                    let dropped = db.drop_table(base);
                    assert_eq!(dropped.is_ok(), is_base, "{ctx}");
                    if is_base {
                        model.retain(|n, b| n != base && b.as_deref() != Some(base));
                        data.remove(base);
                    }
                }
                5 | 6 if is_base => {
                    let n = rng.gen_range(1..30);
                    let mut rows = Vec::new();
                    for _ in 0..n {
                        let v = rng.gen_range(-50..50i64);
                        rows.push(vec![
                            Value::I64(1),
                            Value::Timestamp(next_ts),
                            Value::I64(v),
                        ]);
                        data.get_mut(base).unwrap().push((next_ts, v));
                        next_ts += 7 * 60_000_000;
                    }
                    db.table(base).unwrap().insert(rows).unwrap();
                }
                7 => db.flush_all().unwrap(),
                _ => {
                    clock.advance(HOUR);
                    db.maintain().unwrap();
                }
            }
            let tables: Vec<String> = model.keys().cloned().collect();
            assert_eq!(db.list_tables(), tables, "{ctx}");
            let rollups = |of: Option<&str>| -> Vec<(String, String)> {
                let over = model
                    .iter()
                    .filter_map(|(n, b)| Some((n.clone(), b.clone()?)));
                over.filter(|(_, b)| of.is_none_or(|of| of == b)).collect()
            };
            let pairs = |specs: Vec<Arc<RollupSpec>>| -> Vec<(String, String)> {
                let mut pairs: Vec<_> = specs
                    .iter()
                    .map(|s| (s.name.clone(), s.base.clone()))
                    .collect();
                pairs.sort();
                pairs
            };
            assert_eq!(pairs(db.list_rollups()), rollups(None), "{ctx}");
            for base in BASES {
                let specs = pairs(db.rollup_specs_for(base));
                assert_eq!(specs, rollups(Some(base)), "{ctx}");
            }
            for name in &tables {
                let named = model.values().any(|b| b.as_deref() == Some(name));
                let flagged = db.table(name).unwrap().is_rollup_source();
                assert_eq!(flagged, named, "{ctx}: merge flag of {name:?}");
            }
            for (base, rows_of) in &data {
                let t = db.table(base).unwrap();
                for hours in [1, 2] {
                    let want = bucket_sums(rows_of.iter().copied(), hours * HOUR);
                    let hits = t.stats().snapshot().rollup_hits;
                    let got = rows(
                        s.execute(&format!(
                            "SELECT TIME_BUCKET(ts, INTERVAL '{hours}h'), SUM(v), COUNT(*) \
                             FROM {base} GROUP BY TIME_BUCKET(ts, INTERVAL '{hours}h')"
                        ))
                        .unwrap(),
                    );
                    assert_eq!(got, want, "{ctx}: {hours}h sums of {base:?}");
                    served += t.stats().snapshot().rollup_hits - hits;
                }
            }
        }
    }
    assert!(served > 0, "no sum was ever served from a rollup");
}

const MINUTE: i64 = 60_000_000;
const DAY: i64 = 24 * HOUR;

/// Rows of `sensor` at `v = 1`, one a minute from START, for the minutes
/// in `minutes`.
fn minutes(sensor: i64, minutes: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    let row = |i| {
        vec![
            Value::I64(sensor),
            Value::Timestamp(START + i * MINUTE),
            Value::I64(1),
        ]
    };
    minutes.map(row).collect()
}

/// `m (sensor, ts, v)` rolled up hourly on `v`, then four flushed batches
/// of 30 minutes of sensor 1, maintained until quiescent: one merge has
/// left two tablets, each folded.
fn merged_bed(db: &Db) {
    let s = Session::new(db.clone());
    s.execute("CREATE TABLE m (sensor INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (sensor, ts))")
        .unwrap();
    s.execute("CREATE ROLLUP m_1h ON m PERIOD '1h' AGGREGATE (v)")
        .unwrap();
    let m = db.table("m").unwrap();
    for batch in 0..4 {
        m.insert(minutes(1, batch * 30..batch * 30 + 30)).unwrap();
        m.flush_all().unwrap();
    }
    db.maintain_until_quiescent().unwrap();
    let merges = m.stats().snapshot().merges;
    assert_eq!((merges, m.num_disk_tablets()), (1, 2));
    assert_eq!(m.rollup_watermark(), i64::MAX, "a tablet is left unfolded");
}

/// `m`'s `SUM(v), COUNT(*)` per `interval` bucket of `width` µs: asserted
/// to be served from a rollup and to equal a fold of the rows `m` holds.
fn assert_rollups_fold_m(s: &Session, interval: &str, width: i64, ctx: &str) {
    let m = s.db().table("m").unwrap();
    let held = m.query_all(&Query::all()).unwrap().into_iter().map(|row| {
        match (&row.values[1], &row.values[2]) {
            (Value::Timestamp(ts), Value::I64(v)) => (*ts, *v),
            _ => panic!("bad row {row:?}"),
        }
    });
    let want = bucket_sums(held, width);
    let hits = m.stats().snapshot().rollup_hits;
    let got = rows(
        s.execute(&format!(
            "SELECT TIME_BUCKET(ts, INTERVAL '{interval}'), SUM(v), COUNT(*) FROM m \
             GROUP BY TIME_BUCKET(ts, INTERVAL '{interval}')"
        ))
        .unwrap(),
    );
    assert_eq!(got, want, "{ctx}: {interval} sums");
    let served = m.stats().snapshot().rollup_hits - hits;
    assert_eq!(served, 1, "{ctx}: {interval} sums not served from a rollup");
}

/// A second rollup over tablets that the first one folded and that merged
/// since: the first one's partials of the merged tablets (which have new
/// ids) are not folded into it again, so its hourly sums stay
/// `[47, 47] [60, 60] [13, 13]` rather than doubling the first two.
#[test]
fn a_second_rollup_over_merged_tablets_leaves_the_first_ones_sums() {
    let (s, _, _) = open();
    merged_bed(s.db());
    s.execute("CREATE ROLLUP m_1d ON m PERIOD '1d' AGGREGATE (v)")
        .unwrap();
    let want: Vec<Vec<Value>> = [(0, 47), (1, 60), (2, 13)]
        .into_iter()
        .map(|(h, n)| {
            vec![
                Value::Timestamp(B0 + h * HOUR),
                Value::I64(n),
                Value::I64(n),
            ]
        })
        .collect();
    assert_eq!(hourly(&s), want, "m_1h's sums after CREATE ROLLUP m_1d");
    assert_rollups_fold_m(&s, "1h", HOUR, "m_1h");
    assert_rollups_fold_m(&s, "1d", DAY, "m_1d");
}

/// What `HookVfs` runs.
type Hook = Box<dyn FnOnce() + Send>;

/// A `SimVfs` that runs a hook, once, just before a file at `path` is
/// created.
#[derive(Clone)]
struct HookVfs {
    inner: SimVfs,
    path: &'static str,
    hook: Arc<Mutex<Option<Hook>>>,
}

impl Vfs for HookVfs {
    fn open(&self, path: &str) -> io::Result<Box<dyn RandomAccessFile>> {
        self.inner.open(path)
    }
    fn create(&self, path: &str, size_hint: u64) -> io::Result<Box<dyn WritableFile>> {
        if path == self.path {
            let hook = self.hook.lock().unwrap().take();
            hook.into_iter().for_each(|hook| hook());
        }
        self.inner.create(path, size_hint)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn mkdir_all(&self, path: &str) -> io::Result<()> {
        self.inner.mkdir_all(path)
    }
    fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
        self.inner.list_dir(path)
    }
    fn sync_dir(&self, path: &str) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn file_size(&self, path: &str) -> io::Result<u64> {
        self.inner.file_size(path)
    }
}

/// Rows of sensor 2 inserted, flushed and maintained while `CREATE ROLLUP
/// m_1d` writes its first tablet, after folding `m_1h`'s tablets into it
/// and before folding the rest into both: the fold that maintenance pass
/// would make waits for the attach, so the new tablet reaches `m_1d` as
/// well as `m_1h`, and the daily sum reads all 120 rows rather than 60.
#[test]
fn a_fold_during_the_attach_reaches_the_new_rollup() {
    let vfs = HookVfs {
        inner: SimVfs::instant(),
        path: "m_1d/tab-0000000000000001.lt",
        hook: Arc::default(),
    };
    let clock = Arc::new(SimClock::new(START));
    let db = Db::open(Arc::new(vfs.clone()), clock, Options::small_for_tests()).unwrap();
    let s = Session::new(db.clone());
    s.execute("CREATE TABLE m (sensor INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (sensor, ts))")
        .unwrap();
    s.execute("CREATE ROLLUP m_1h ON m PERIOD '1h' AGGREGATE (v)")
        .unwrap();
    let m = db.table("m").unwrap();
    m.insert(minutes(1, 0..60)).unwrap();
    m.flush_all().unwrap();
    db.maintain().unwrap();
    let during = db.clone();
    *vfs.hook.lock().unwrap() = Some(Box::new(move || {
        let m = during.table("m").unwrap();
        m.insert(minutes(2, 0..60)).unwrap();
        m.flush_all().unwrap();
        during.maintain().unwrap();
    }));
    s.execute("CREATE ROLLUP m_1d ON m PERIOD '1d' AGGREGATE (v)")
        .unwrap();
    assert!(vfs.hook.lock().unwrap().is_none(), "the hook never ran");
    db.maintain().unwrap();
    assert_eq!(m.query_all(&Query::all()).unwrap().len(), 120);
    assert_rollups_fold_m(&s, "1d", DAY, "m_1d");
    assert_rollups_fold_m(&s, "1h", HOUR, "m_1h");
}

/// No reader sees a rollup before its `CREATE ROLLUP` is done: asked from
/// inside the create's fold, as it writes the new rollup's first tablet,
/// the catalog neither lists nor finds `m_2h`.
#[test]
fn no_reader_sees_a_half_built_rollup() {
    let vfs = HookVfs {
        inner: SimVfs::instant(),
        path: "m_2h/tab-0000000000000001.lt",
        hook: Arc::default(),
    };
    let clock = Arc::new(SimClock::new(START));
    let db = Db::open(Arc::new(vfs.clone()), clock, Options::small_for_tests()).unwrap();
    let s = Session::new(db.clone());
    load_m(&s, 1);
    let seen = Arc::new(Mutex::new(None));
    let (during, seen_during) = (db.clone(), seen.clone());
    *vfs.hook.lock().unwrap() = Some(Box::new(move || {
        let found = during.table("m_2h").is_ok();
        *seen_during.lock().unwrap() = Some((during.list_tables(), found));
    }));
    s.execute("CREATE ROLLUP m_2h ON m PERIOD '2h' AGGREGATE (v)")
        .unwrap();
    let seen = seen.lock().unwrap().take().expect("the hook never ran");
    assert_eq!(seen, (vec!["m".to_string()], false));
    assert_eq!(db.list_tables(), ["m", "m_2h"]);
}

/// A table directory whose descriptor is gone holds no table — a drop cut
/// short after the descriptor, or a create before it — and open deletes
/// its files.
#[test]
fn open_empties_a_table_directory_with_no_descriptor() {
    let (s, vfs, clock) = open();
    load_m(&s, 1);
    s.db()
        .table("m")
        .unwrap()
        .insert(minutes(2, 0..60))
        .unwrap();
    s.db().flush_all().unwrap();
    drop(s);
    let tablets = vfs.list_dir("m").unwrap().len() - 1;
    assert!(tablets >= 2, "{tablets} tablet files");
    vfs.remove("m/DESC").unwrap();
    let db = Db::open(
        Arc::new(vfs.clone()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    assert!(db.list_tables().is_empty());
    assert_eq!(vfs.list_dir("m").unwrap(), Vec::<String>::new());
}

/// `CREATE ROLLUP m_2h` over `m`, `m_1h` and folded, merged tablets,
/// killed at each of its I/O operations in turn on a real file system,
/// then restarted and maintained: no rollup lacks its base, every hourly
/// and two-hourly sum is a fold of `m`'s rows, and `m_2h` is either a
/// rollup or, dropped, can be created again.
#[test]
fn a_create_rollup_killed_at_every_op_recovers() {
    const CREATE: &str = "CREATE ROLLUP m_2h ON m PERIOD '2h' AGGREGATE (v)";
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lt-rollup-create-kill");
    let _ = std::fs::remove_dir_all(&root);
    let clock = SimClock::new(START);
    let open_on = |vfs: &FaultVfs<StdVfs>| {
        let opts = Options::small_for_tests();
        Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap()
    };
    let bed = |dir: &str| {
        let vfs = FaultVfs::new(StdVfs::new(root.join(dir)).unwrap());
        let db = open_on(&vfs);
        merged_bed(&db);
        (vfs, Session::new(db))
    };
    let ops = {
        let (vfs, s) = bed("count");
        let before = vfs.op_count();
        s.execute(CREATE).unwrap();
        vfs.op_count() - before
    };
    assert!(ops >= 8, "the create took only {ops} ops");
    for k in 0..ops {
        let ctx = format!("kill at op {k}");
        let (vfs, s) = bed(&format!("kill-{k}"));
        vfs.set_fault_plan(FaultPlan::crash_at(vfs.op_count() + k));
        let _ = s.execute(CREATE);
        assert_eq!(vfs.faults_injected(), 1, "{ctx} never fired");
        drop(s);
        vfs.clear_fault_plan();
        vfs.reboot();
        let s = Session::new(open_on(&vfs));
        s.db().maintain().unwrap();
        assert_rollups_have_bases(s.db());
        let listed = |db: &Db| db.list_rollups().iter().map(|r| r.name.clone()).collect();
        let names: Vec<String> = listed(s.db());
        assert!(names.contains(&"m_1h".to_string()), "{ctx}: {names:?}");
        assert_rollups_fold_m(&s, "1h", HOUR, &ctx);
        assert_rollups_fold_m(&s, "2h", 2 * HOUR, &ctx);
        if names.contains(&"m_2h".to_string()) {
            continue;
        }
        // A plain leftover is dropped before the create is retried.
        let _ = s.db().drop_table("m_2h");
        s.execute(CREATE).unwrap();
        drop(s);
        let s = Session::new(open_on(&vfs));
        let ctx = format!("{ctx}, retried");
        assert_eq!(listed(s.db()), ["m_1h", "m_2h"], "{ctx}");
        assert_rollups_fold_m(&s, "1h", HOUR, &ctx);
        assert_rollups_fold_m(&s, "2h", 2 * HOUR, &ctx);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// The catalog as readers see it: per table, in name order, its name,
/// the base it rolls up if it is a rollup, and whether a rollup folds it.
fn catalog(db: &Db) -> Vec<(String, Option<String>, bool)> {
    let rollups = db.list_rollups();
    let entry = |name: String| {
        let spec = rollups.iter().find(|s| s.name == name);
        let source = db.table(&name).unwrap().is_rollup_source();
        (name, spec.map(|s| s.base.clone()), source)
    };
    db.list_tables().into_iter().map(entry).collect()
}

/// `CREATE ROLLUP m_2h` and `drop_table("m")`, which takes `m_1h` with
/// it, each over `merged_bed`, killed at each of its I/O operations in
/// turn on a real file system, then restarted and maintained. The
/// catalog is exactly what it was before the statement or what it is
/// after it: tables, rollups and merge flags. Every sum over a surviving
/// `m` is a fold of its rows, and a statement found undone, run again
/// as it was, succeeds.
#[test]
fn a_rollup_ddl_statement_killed_at_every_op_is_done_or_not() {
    type Statement = fn(&Db) -> Result<(), Error>;
    let create: Statement = |db| {
        let sql = "CREATE ROLLUP m_2h ON m PERIOD '2h' AGGREGATE (v)";
        Session::new(db.clone()).execute(sql).map(drop)
    };
    let drop_m: Statement = |db| db.drop_table("m");
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lt-rollup-ddl-kill");
    let _ = std::fs::remove_dir_all(&root);
    let clock = SimClock::new(START);
    let open_on = |vfs: &FaultVfs<StdVfs>| {
        let opts = Options::small_for_tests();
        Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts).unwrap()
    };
    // `m`'s sums, each served from a rollup, when `m` is a table.
    let assert_sums = |db: &Db, ctx: &str| {
        if db.table("m").is_ok() {
            let s = Session::new(db.clone());
            assert_rollups_fold_m(&s, "1h", HOUR, ctx);
            assert_rollups_fold_m(&s, "2h", 2 * HOUR, ctx);
        }
    };
    for (what, run) in [("create", create), ("drop", drop_m)] {
        let bed = |dir: &str| {
            let vfs = FaultVfs::new(StdVfs::new(root.join(what).join(dir)).unwrap());
            let db = open_on(&vfs);
            merged_bed(&db);
            (vfs, db)
        };
        let (vfs, db) = bed("count");
        let before = catalog(&db);
        let start = vfs.op_count();
        run(&db).unwrap();
        let ops = vfs.op_count() - start;
        let after = catalog(&db);
        assert_ne!(before, after, "{what}");
        assert!(ops >= 4, "the {what} took only {ops} ops");
        for k in 0..ops {
            let ctx = format!("{what} killed at op {k}");
            let (vfs, db) = bed(&format!("kill-{k}"));
            vfs.set_fault_plan(FaultPlan::crash_at(vfs.op_count() + k));
            let _ = run(&db);
            assert_eq!(vfs.faults_injected(), 1, "{ctx} never fired");
            drop(db);
            vfs.clear_fault_plan();
            vfs.reboot();
            let db = open_on(&vfs);
            db.maintain().unwrap();
            let now = catalog(&db);
            assert!(now == before || now == after, "{ctx}: {now:?}");
            assert_sums(&db, &ctx);
            if now == before {
                run(&db).unwrap_or_else(|e| panic!("{ctx}, retried: {e}"));
                drop(db);
                let db = open_on(&vfs);
                assert_eq!(catalog(&db), after, "{ctx}, retried");
                assert_sums(&db, &format!("{ctx}, retried"));
            }
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}
