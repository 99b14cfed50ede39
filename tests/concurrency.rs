//! Multi-threaded stress test for the snapshot-isolated read path:
//! reader threads run `query` and `latest` continuously while writer
//! threads insert and a maintenance thread advances the simulated clock
//! and drives seals, flushes, and merges. Every observed view must be a
//! consistent snapshot — for each writer, the visible rows form a
//! contiguous prefix of that writer's insertion order with no gaps and
//! no duplicates, and the visible count never goes backwards between a
//! reader's successive queries.

use littletable::vfs::{Clock, SimClock, SimVfs, Vfs, MICROS_PER_SEC};
use littletable::{
    ColumnDef, ColumnType, Db, Error, Options, Query, Schema, Session, SqlOutput, Value,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;

const START: i64 = 1_700_000_000 * MICROS_PER_SEC;
const WRITERS: usize = 2;
const ROWS_PER_WRITER: i64 = 4000;
const READERS: usize = 3;

fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("writer", ColumnType::I64),
            ColumnDef::new("seq", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::I64),
        ],
        &["writer", "seq", "ts"],
    )
    .unwrap()
}

#[test]
fn readers_see_consistent_snapshots_under_maintenance() {
    let clock = SimClock::new(START);
    let vfs = SimVfs::instant();
    let mut opts = Options::small_for_tests();
    // Small flushes so the run crosses many seal/flush/merge transitions.
    opts.flush_size = 4 << 10;
    let db = Db::open(Arc::new(vfs), Arc::new(clock.clone()), opts).unwrap();
    let table = db.create_table("s", schema(), None).unwrap();

    let writers_done = Arc::new(AtomicBool::new(false));
    // Per-writer count of fully completed inserts, for the final oracle.
    let committed: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());

    thread::scope(|s| {
        for w in 0..WRITERS as i64 {
            let table = table.clone();
            let committed = committed.clone();
            // Writer 1 writes into an old period so two filling tablets
            // (with flush-dependency edges between them) stay live.
            let base = if w % 2 == 0 {
                START
            } else {
                START - 30 * 24 * 3600 * MICROS_PER_SEC
            };
            s.spawn(move || {
                for i in 0..ROWS_PER_WRITER {
                    let r = table
                        .insert(vec![vec![
                            Value::I64(w),
                            Value::I64(i),
                            Value::Timestamp(base + i),
                            Value::I64(w * 1_000_000 + i),
                        ]])
                        .unwrap();
                    assert_eq!(r.inserted, 1, "writer {w} row {i} must be unique");
                    committed[w as usize].fetch_add(1, Ordering::SeqCst);
                }
            });
        }

        for _ in 0..READERS {
            let table = table.clone();
            let writers_done = writers_done.clone();
            let committed = committed.clone();
            s.spawn(move || {
                // Visible-count floors: consistency requires the count per
                // writer never to shrink between successive snapshots.
                let mut floors = [0u64; WRITERS];
                let mut latest_floor = [-1i64; WRITERS];
                loop {
                    let done = writers_done.load(Ordering::SeqCst);
                    // Lower bounds taken BEFORE the query: rows committed
                    // before this point must all be visible.
                    let lower: Vec<u64> =
                        committed.iter().map(|c| c.load(Ordering::SeqCst)).collect();
                    let rows = table.query_all(&Query::all()).unwrap();
                    let mut seen: Vec<Vec<i64>> = vec![Vec::new(); WRITERS];
                    for row in &rows {
                        let (Value::I64(w), Value::I64(i)) = (&row.values[0], &row.values[1])
                        else {
                            panic!("unexpected row shape: {row:?}")
                        };
                        seen[*w as usize].push(*i);
                    }
                    for w in 0..WRITERS {
                        seen[w].sort_unstable();
                        // Contiguous prefix: no gap and no duplicate means
                        // the sorted seqs are exactly 0..len.
                        for (expect, got) in seen[w].iter().enumerate() {
                            assert_eq!(
                                *got,
                                expect as i64,
                                "writer {w}: gap or duplicate in {:?}...",
                                &seen[w][..seen[w].len().min(20)]
                            );
                        }
                        let n = seen[w].len() as u64;
                        assert!(
                            n >= lower[w],
                            "writer {w}: snapshot lost rows ({n} < committed {})",
                            lower[w]
                        );
                        assert!(
                            n >= floors[w],
                            "writer {w}: visible count went backwards ({n} < {})",
                            floors[w]
                        );
                        floors[w] = n;

                        // `latest` must agree with the same consistency
                        // floor: the newest seq it reports never regresses.
                        let latest = table.latest(&[Value::I64(w as i64)]).unwrap();
                        let latest_seq = match latest {
                            Some(row) => match row.values[1] {
                                Value::I64(i) => i,
                                ref v => panic!("bad latest seq {v:?}"),
                            },
                            None => -1,
                        };
                        assert!(
                            latest_seq >= latest_floor[w],
                            "writer {w}: latest() went backwards ({latest_seq} < {})",
                            latest_floor[w]
                        );
                        latest_floor[w] = latest_seq;
                    }
                    if done {
                        break;
                    }
                }
            });
        }

        // Maintenance: advance the simulated clock past the flush age and
        // run seal/flush/merge passes concurrently with everything else.
        let maintenance = {
            let table = table.clone();
            let writers_done = writers_done.clone();
            let clock = clock.clone();
            s.spawn(move || {
                while !writers_done.load(Ordering::SeqCst) {
                    clock.advance(61 * MICROS_PER_SEC);
                    table.maintain(clock.now_micros()).unwrap();
                }
            })
        };

        // First scope'd threads spawned are the writers; wait for their
        // counters instead of join handles so readers keep overlapping.
        while committed
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum::<u64>()
            < (WRITERS as i64 * ROWS_PER_WRITER) as u64
        {
            thread::yield_now();
        }
        writers_done.store(true, Ordering::SeqCst);
        maintenance.join().unwrap();
    });

    // Final oracle: everything every writer committed is visible exactly
    // once, after a last round of maintenance settles the tablet set.
    table.flush_all().unwrap();
    while table.run_merge_once(clock.now_micros()).unwrap() {}
    let rows = table.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len() as i64, WRITERS as i64 * ROWS_PER_WRITER);
    for w in 0..WRITERS as i64 {
        let latest = table.latest(&[Value::I64(w)]).unwrap().unwrap();
        assert_eq!(latest.values[1], Value::I64(ROWS_PER_WRITER - 1));
    }
    // The read path really ran snapshot-based: every query and latest
    // call above loaded a published snapshot, never the state mutex.
    let stats = table.stats().snapshot();
    assert!(stats.snapshot_loads > 0);
    assert!(stats.snapshot_publishes > 0);
    assert!(stats.latest_calls > 0);
}

/// Two writers insert the same keys in overlapping batches — one walking
/// them forward, the other backward — while seals and flushes run and a
/// reader takes snapshots. Each key lands exactly once, whichever writer
/// gets there first; and since a writer's rows are stamped in the order
/// it applies them, a snapshot that shows a writer's row shows every row
/// that writer landed before it: a prefix of each writer's stamps, in
/// every tablet at once.
#[test]
fn overlapping_batches_land_each_key_once_and_snapshots_see_prefixes() {
    const KEYS: i64 = 2_000;
    const BATCH: i64 = 50;
    let schema = Schema::new(
        vec![
            ColumnDef::new("k", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("writer", ColumnType::I64),
            ColumnDef::new("step", ColumnType::I64),
        ],
        &["k", "ts"],
    )
    .unwrap();
    let mut opts = Options::small_for_tests();
    opts.flush_size = 4 << 10;
    let clock = SimClock::new(START);
    let db = Db::open(Arc::new(SimVfs::instant()), Arc::new(clock), opts).unwrap();
    let table = db.create_table("s", schema, None).unwrap();
    // A row's `(writer, step)`: the writer that landed it, and where in
    // that writer's order of application.
    let landed = |row: &littletable::Row| match (&row.values[2], &row.values[3]) {
        (Value::I64(w), Value::I64(step)) => (*w as usize, *step),
        _ => panic!("unexpected row shape: {row:?}"),
    };
    let writers_done = AtomicBool::new(false);
    // The writers start only once the reader holds its first snapshot, so
    // however the threads are scheduled there is at least one to check.
    let start = Barrier::new(3);
    let mut snapshots: Vec<Vec<(usize, i64)>> = Vec::new();
    let inserted: Vec<u64> = thread::scope(|s| {
        let writers: Vec<_> = (0..2i64)
            .map(|w| {
                let (table, start) = (table.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    let mut keys: Vec<i64> = (0..KEYS).collect();
                    if w == 1 {
                        keys.reverse();
                    }
                    let mut inserted = 0;
                    for (b, chunk) in keys.chunks(BATCH as usize).enumerate() {
                        let rows = chunk.iter().enumerate().map(|(j, &k)| {
                            vec![
                                Value::I64(k),
                                Value::Timestamp(START + k),
                                Value::I64(w),
                                Value::I64(b as i64 * BATCH + j as i64),
                            ]
                        });
                        let report = table.insert(rows.collect()).unwrap();
                        assert_eq!(report.inserted + report.duplicates, chunk.len());
                        inserted += report.inserted as u64;
                    }
                    inserted
                })
            })
            .collect();
        s.spawn(|| {
            while !writers_done.load(Ordering::SeqCst) {
                table.flush_all().unwrap();
                thread::yield_now();
            }
        });
        let reader = s.spawn(|| {
            let snapshot = || {
                let rows = table.query_all(&Query::all()).unwrap();
                rows.iter().map(landed).collect::<Vec<_>>()
            };
            let mut snapshots = vec![snapshot()];
            start.wait();
            while !writers_done.load(Ordering::SeqCst) {
                snapshots.push(snapshot());
            }
            snapshots
        });
        let inserted = writers.into_iter().map(|h| h.join().unwrap()).collect();
        writers_done.store(true, Ordering::SeqCst);
        snapshots = reader.join().unwrap();
        inserted
    });
    let rows = table.query_all(&Query::all()).unwrap();
    let keys: Vec<Value> = rows.iter().map(|r| r.values[0].clone()).collect();
    assert_eq!(keys, (0..KEYS).map(Value::I64).collect::<Vec<_>>());
    assert_eq!(inserted.iter().sum::<u64>(), KEYS as u64);
    // Each writer's landed steps, in order.
    let mut steps = [Vec::new(), Vec::new()];
    for (w, step) in rows.iter().map(landed) {
        steps[w].push(step);
    }
    for s in &mut steps {
        s.sort_unstable();
    }
    assert!(!snapshots.is_empty());
    for snapshot in &snapshots {
        let mut seen = [Vec::new(), Vec::new()];
        for &(w, step) in snapshot {
            seen[w].push(step);
        }
        for w in 0..2 {
            seen[w].sort_unstable();
            let upto = seen[w]
                .last()
                .map_or(0, |&last| steps[w].partition_point(|&s| s <= last));
            assert_eq!(
                seen[w],
                steps[w][..upto],
                "writer {w}: not a prefix of its stamps"
            );
        }
    }
}

/// Catalog churn oracle: writer threads create and drop tables in a
/// tight loop while reader threads resolve names through the published
/// catalog. Every observation must be consistent:
///
///  - a static anchor table is present in every `list_tables()` view,
///    and the listing is always sorted;
///  - a handle resolved for a churning slot either serves its single
///    generation-marker row, reports empty (marker not yet inserted),
///    or fails with `NoSuchTable` (drop published first) — never a
///    crash, a stale wrong-generation row, or a torn view;
///  - the generation a reader observes per slot never goes backwards,
///    since catalog publishes are totally ordered.
///
/// Runs under the TSan CI job, which is what actually checks that the
/// `Db::table()` / `list_tables()` loads race cleanly with concurrent
/// `create_table` / `drop_table` publishes.
#[test]
fn catalog_churn_keeps_lookups_consistent() {
    const SLOTS: usize = 2;
    const ROUNDS: u64 = 150;
    const CHURN_READERS: usize = 3;

    let clock = SimClock::new(START);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let anchor = db.create_table("anchor", schema(), None).unwrap();
    anchor
        .insert(vec![vec![
            Value::I64(0),
            Value::I64(0),
            Value::Timestamp(START),
            Value::I64(7),
        ]])
        .unwrap();

    let churn_done = Arc::new(AtomicBool::new(false));
    thread::scope(|s| {
        let mut churners = Vec::new();
        for slot in 0..SLOTS {
            let db = &db;
            churners.push(s.spawn(move || {
                let name = format!("churn{slot}");
                for generation in 0..ROUNDS {
                    let t = db.create_table(&name, schema(), None).unwrap();
                    t.insert(vec![vec![
                        Value::I64(slot as i64),
                        Value::I64(generation as i64),
                        Value::Timestamp(START + generation as i64),
                        Value::I64(generation as i64),
                    ]])
                    .unwrap();
                    thread::yield_now();
                    db.drop_table(&name).unwrap();
                }
            }));
        }

        for _ in 0..CHURN_READERS {
            let db = &db;
            let churn_done = churn_done.clone();
            s.spawn(move || {
                let mut gen_floor = [-1i64; SLOTS];
                loop {
                    let done = churn_done.load(Ordering::SeqCst);
                    let names = db.list_tables();
                    assert!(
                        names.windows(2).all(|w| w[0] < w[1]),
                        "list_tables not sorted/deduped: {names:?}"
                    );
                    assert!(
                        names.iter().any(|n| n == "anchor"),
                        "anchor table vanished from {names:?}"
                    );
                    let anchor = db.table("anchor").expect("anchor must always resolve");
                    assert_eq!(anchor.query_all(&Query::all()).unwrap().len(), 1);
                    for (slot, floor) in gen_floor.iter_mut().enumerate() {
                        let Ok(t) = db.table(&format!("churn{slot}")) else {
                            continue;
                        };
                        match t.query_all(&Query::all()) {
                            Ok(rows) => {
                                assert!(rows.len() <= 1, "slot {slot}: {rows:?}");
                                if let Some(row) = rows.first() {
                                    let Value::I64(generation) = row.values[1] else {
                                        panic!("bad marker row {row:?}");
                                    };
                                    assert!(
                                        generation >= *floor,
                                        "slot {slot}: generation went backwards \
                                         ({generation} < {floor})"
                                    );
                                    *floor = generation;
                                }
                            }
                            // The slot was dropped between the catalog
                            // load and the query; the handle must fail
                            // cleanly, not crash or serve another
                            // generation's data.
                            Err(Error::NoSuchTable(_)) => {}
                            Err(e) => panic!("slot {slot}: unexpected error {e}"),
                        }
                    }
                    if done {
                        break;
                    }
                }
            });
        }

        for c in churners {
            c.join().unwrap();
        }
        churn_done.store(true, Ordering::SeqCst);
    });

    // Every churner's last action was a drop: only the anchor remains.
    assert_eq!(db.list_tables(), vec!["anchor".to_string()]);
    let stats = db.stats();
    assert!(stats.catalog_loads > 0, "lookups must count catalog loads");
    // One publish per create and per drop: the anchor plus every
    // create/drop pair across all slots and rounds.
    assert_eq!(
        stats.catalog_publishes,
        1 + 2 * (SLOTS as u64) * ROUNDS,
        "unexpected publish count"
    );
    assert_eq!(stats.tables, 1);
}

/// Recreating a dropped name must yield a fresh, empty table, while
/// handles and cursors over the old generation keep serving the old
/// data (or fail with `NoSuchTable` for new calls) — they never bleed
/// into the new generation.
#[test]
fn drop_and_recreate_same_name_isolates_generations() {
    let clock = SimClock::new(START);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();

    let old = db.create_table("t", schema(), None).unwrap();
    old.insert(vec![vec![
        Value::I64(1),
        Value::I64(1),
        Value::Timestamp(START),
        Value::I64(10),
    ]])
    .unwrap();

    // An in-flight cursor pins the old generation's snapshot before the
    // drop lands.
    let mut cursor = old.query(&Query::all()).unwrap();

    db.drop_table("t").unwrap();
    assert!(matches!(db.table("t"), Err(Error::NoSuchTable(_))));

    // The pinned cursor still drains the old generation's rows.
    let row = cursor
        .next_row()
        .unwrap()
        .expect("in-flight cursor lost its snapshot");
    assert_eq!(row.values[3], Value::I64(10));
    assert!(cursor.next_row().unwrap().is_none());

    // New calls through the old handle fail cleanly.
    assert!(matches!(
        old.query_all(&Query::all()),
        Err(Error::NoSuchTable(_))
    ));
    assert!(matches!(
        old.insert(vec![vec![
            Value::I64(2),
            Value::I64(2),
            Value::Timestamp(START),
            Value::I64(20),
        ]]),
        Err(Error::NoSuchTable(_))
    ));

    // Recreate under the same name: a distinct, empty table.
    let new = db.create_table("t", schema(), None).unwrap();
    assert!(!Arc::ptr_eq(&old, &new));
    assert_eq!(new.query_all(&Query::all()).unwrap().len(), 0);
    new.insert(vec![vec![
        Value::I64(3),
        Value::I64(3),
        Value::Timestamp(START),
        Value::I64(30),
    ]])
    .unwrap();
    assert_eq!(new.query_all(&Query::all()).unwrap().len(), 1);

    // The old handle still refuses to serve the new generation's data.
    assert!(matches!(
        old.query_all(&Query::all()),
        Err(Error::NoSuchTable(_))
    ));

    // Drop again with rows on disk this time: flush, then drop, then
    // recreate — the fresh table must not resurrect flushed tablets.
    new.flush_all().unwrap();
    db.drop_table("t").unwrap();
    let third = db.create_table("t", schema(), None).unwrap();
    assert_eq!(third.query_all(&Query::all()).unwrap().len(), 0);
    assert_eq!(third.num_disk_tablets(), 0);
}

fn marker_row(writer: i64, seq: i64) -> Vec<Value> {
    vec![
        Value::I64(writer),
        Value::I64(seq),
        Value::Timestamp(START + seq),
        Value::I64(seq),
    ]
}

/// A reader that loaded a tablet snapshot keeps a fully usable old
/// generation however many snapshots are published after it, and the
/// publishes do not wait for it: the writer below completes over a
/// thousand of them — flushes that retire the memtablet the reader's
/// cursor points into, merges that delete its tablet files — while the
/// reader sits on its cursor, blocked until the writer is done. (A store
/// that waited for readers to let go would deadlock here.)
#[test]
fn held_snapshot_outlives_a_thousand_publishes() {
    const OLD_ROWS: i64 = 300;
    let clock = SimClock::new(START);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();
    let table = db.create_table("s", schema(), None).unwrap();
    // The old generation: two disk tablets and a filling memtablet.
    for i in 0..OLD_ROWS {
        table.insert(vec![marker_row(0, i)]).unwrap();
        if i == 100 || i == 200 {
            table.flush_all().unwrap();
        }
    }

    let (holding_tx, holding_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    thread::scope(|s| {
        let reader = {
            let table = table.clone();
            s.spawn(move || {
                let mut cursor = table.query(&Query::all()).unwrap();
                let first = cursor.next_row().unwrap().expect("old generation has rows");
                assert_eq!(first.values[1], Value::I64(0));
                holding_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                let mut seen = 1;
                while let Some(row) = cursor.next_row().unwrap() {
                    assert_eq!(row.values[0], Value::I64(0), "a later writer's row");
                    assert_eq!(row.values[1], Value::I64(seen), "gap or repeat");
                    seen += 1;
                }
                assert_eq!(seen, OLD_ROWS, "the held snapshot lost rows");
            })
        };
        holding_rx.recv().unwrap();
        let before = table.stats().snapshot().snapshot_publishes;
        let mut i = 0;
        while table.stats().snapshot().snapshot_publishes < before + 1_000 {
            table.insert(vec![marker_row(1, i)]).unwrap();
            table.flush_all().unwrap();
            if i % 16 == 15 {
                while table.run_merge_once(clock.now_micros()).unwrap() {}
            }
            i += 1;
        }
        done_tx.send(()).unwrap();
        reader.join().unwrap();
    });
    // And the current generation holds both writers' rows.
    assert_eq!(
        table.query_all(&Query::all()).unwrap().len() as u64,
        table.stats().snapshot().rows_inserted
    );
}

/// The same for the catalog: a reader that resolved a table handle (and
/// opened a cursor on it) keeps the old generation's rows across a
/// thousand `drop -> create` cycles of the same name, none of which
/// waits for it, and never sees a later generation through it.
#[test]
fn held_table_handle_outlives_a_thousand_drop_create_cycles() {
    const CYCLES: i64 = 1_000;
    let clock = SimClock::new(START);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock),
        Options::small_for_tests(),
    )
    .unwrap();
    let first = db.create_table("t", schema(), None).unwrap();
    first.insert(vec![marker_row(7, 0)]).unwrap();
    first.flush_all().unwrap();
    first.insert(vec![marker_row(7, 1)]).unwrap();
    drop(first);

    let (holding_tx, holding_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    thread::scope(|s| {
        let reader = {
            let db = &db;
            s.spawn(move || {
                let old = db.table("t").unwrap();
                let mut cursor = old.query(&Query::all()).unwrap();
                // Reading the first row opens the disk tablet: a drop
                // deletes files at once, and an open handle is what
                // survives the unlink.
                let next_seq = |cursor: &mut littletable::core::QueryCursor| {
                    let row = cursor.next_row().unwrap()?;
                    assert_eq!(row.values[0], Value::I64(7));
                    let Value::I64(seq) = row.values[1] else {
                        panic!("bad marker row {row:?}");
                    };
                    Some(seq)
                };
                assert_eq!(next_seq(&mut cursor), Some(0));
                holding_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                // The cursor drains the rest of generation 0, though its
                // files are long deleted and its name a thousand times
                // reused.
                assert_eq!(next_seq(&mut cursor), Some(1));
                assert_eq!(next_seq(&mut cursor), None);
                // New calls on the old handle fail cleanly; the name now
                // resolves to the last generation only.
                assert!(matches!(
                    old.query_all(&Query::all()),
                    Err(Error::NoSuchTable(_))
                ));
                let rows = db.table("t").unwrap().query_all(&Query::all()).unwrap();
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].values[1], Value::I64(CYCLES));
            })
        };
        holding_rx.recv().unwrap();
        for generation in 1..=CYCLES {
            db.drop_table("t").unwrap();
            let t = db.create_table("t", schema(), None).unwrap();
            t.insert(vec![marker_row(8, generation)]).unwrap();
        }
        done_tx.send(()).unwrap();
        reader.join().unwrap();
    });
    assert_eq!(db.stats().catalog_publishes, 1 + 2 * CYCLES as u64);
}

/// And what a held handle can no longer do: commit. After `drop_table` and
/// a `create_table` of the same name, the directory and its descriptor
/// are the new table's; every call on the stale handle that would publish
/// a transition — a TTL, a schema version, rewritten or migrated tablets —
/// is refused before it writes, and the new table is found untouched by a
/// reopen.
#[test]
fn a_stale_handle_commits_nothing_over_a_recreated_table() {
    const HOUR: i64 = 3600 * MICROS_PER_SEC;
    let clock = SimClock::new(START);
    let (hot, cold) = (SimVfs::instant(), SimVfs::instant());
    let open = || {
        Db::open_with_cold(
            Arc::new(hot.clone()),
            Some(Arc::new(cold.clone())),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap()
    };
    let db = open();
    let stale = db.create_table("t", schema(), None).unwrap();
    stale.insert(vec![marker_row(7, 0)]).unwrap();
    stale.flush_all().unwrap();
    // One row stays in memory: a bulk delete flushes first.
    stale.insert(vec![marker_row(7, 1)]).unwrap();
    db.drop_table("t").unwrap();

    let mut columns = schema().columns().to_vec();
    columns.push(ColumnDef::new("note", ColumnType::Str));
    let other = Schema::new(columns, &["writer", "seq", "ts"]).unwrap();
    let fresh = db.create_table("t", other.clone(), Some(HOUR)).unwrap();
    let fresh_rows: Vec<Vec<Value>> = (0..3)
        .map(|seq| {
            let mut row = marker_row(8, seq);
            row.push(Value::Str(format!("n{seq}")));
            row
        })
        .collect();
    fresh.insert(fresh_rows.clone()).unwrap();
    fresh.flush_all().unwrap();
    let listing = || {
        let sorted = |vfs: &SimVfs| {
            let mut names = vfs.list_dir("t").unwrap_or_default();
            names.sort();
            names
        };
        (sorted(&hot), sorted(&cold))
    };
    let before = listing();
    assert_eq!(before.0.len(), 2, "{before:?}");

    let extra = ColumnDef::with_default("a", ColumnType::I64, Value::I64(0));
    let refused = [
        stale.set_ttl(Some(1)),
        stale.add_column(extra),
        stale.widen_column("v"),
        stale.bulk_delete(&[Value::I64(7)]).map(drop),
        stale.migrate_to_cold(i64::MAX).map(drop),
    ];
    for (call, result) in refused.iter().enumerate() {
        assert!(
            matches!(result, Err(Error::NoSuchTable(_))),
            "call {call} on the stale handle: {result:?}"
        );
    }
    assert_eq!(listing(), before);

    drop((stale, fresh, db));
    let db = open();
    let t = db.table("t").unwrap();
    assert_eq!(*t.schema(), other);
    assert_eq!(t.ttl(), Some(HOUR));
    let rows = t.query_all(&Query::all()).unwrap();
    let rows: Vec<Vec<Value>> = rows.into_iter().map(|r| r.values).collect();
    assert_eq!(rows, fresh_rows);
    assert_eq!(listing(), before);
}

/// The query-result cache keys on the table's generation, so a result
/// computed against generation N of a name must never be served for
/// generation N+1. One churner creates a table, inserts a
/// generation-marker row, primes the cache with an aggregate query, and
/// drops the table, in a tight loop; reader threads run the *identical*
/// SQL text the whole time and must only ever observe a marker from the
/// current or a newer generation — never a cached answer from a dead
/// one. Runs under the TSan CI job alongside the catalog-churn oracle.
#[test]
fn result_cache_never_crosses_generations() {
    const RC_ROUNDS: i64 = 120;
    const RC_READERS: usize = 3;
    const Q: &str = "SELECT MAX(v), COUNT(*) FROM churn_rc";

    let clock = SimClock::new(START);
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(clock.clone()),
        Options::small_for_tests(),
    )
    .unwrap();

    let answer = |out: SqlOutput| -> (i64, i64) {
        let SqlOutput::Rows { rows, .. } = out else {
            panic!("aggregate query must return rows, got {out:?}");
        };
        assert_eq!(rows.len(), 1, "one aggregate row expected");
        let (Value::I64(max), Value::I64(count)) = (&rows[0][0], &rows[0][1]) else {
            panic!("bad aggregate row {:?}", rows[0]);
        };
        (*max, *count)
    };

    let churn_done = Arc::new(AtomicBool::new(false));
    thread::scope(|s| {
        let churner = {
            let db = db.clone();
            s.spawn(move || {
                let session = Session::new(db.clone());
                for generation in 0..RC_ROUNDS {
                    let t = db.create_table("churn_rc", schema(), None).unwrap();
                    t.insert(vec![vec![
                        Value::I64(0),
                        Value::I64(generation),
                        Value::Timestamp(START + generation),
                        Value::I64(generation),
                    ]])
                    .unwrap();
                    // Prime the cache against this generation; the
                    // session must see its own write, not a stale entry.
                    let (max, count) = answer(session.execute(Q).unwrap());
                    assert_eq!(
                        (max, count),
                        (generation, 1),
                        "churner read its own generation wrong"
                    );
                    thread::yield_now();
                    db.drop_table("churn_rc").unwrap();
                }
            })
        };

        for _ in 0..RC_READERS {
            let db = db.clone();
            let churn_done = churn_done.clone();
            s.spawn(move || {
                let session = Session::new(db);
                let mut floor = -1i64;
                loop {
                    let done = churn_done.load(Ordering::SeqCst);
                    match session.execute(Q) {
                        Ok(out) => {
                            let (max, count) = answer(out);
                            match count {
                                // A fresh generation before its marker
                                // landed: the one row an ungrouped
                                // aggregate gives over empty input,
                                // `(MAX's zero, COUNT 0)`.
                                0 => {}
                                1 => {
                                    assert!(
                                        (0..RC_ROUNDS).contains(&max),
                                        "impossible marker {max}"
                                    );
                                    assert!(
                                        max >= floor,
                                        "cached result crossed generations \
                                         ({max} < floor {floor})"
                                    );
                                    floor = max;
                                }
                                n => panic!("marker table held {n} rows"),
                            }
                        }
                        // Dropped between catalog load and execution.
                        Err(Error::NoSuchTable(_)) => {}
                        Err(e) => panic!("unexpected error {e}"),
                    }
                    if done {
                        break;
                    }
                }
            });
        }

        churner.join().unwrap();
        churn_done.store(true, Ordering::SeqCst);
    });

    // Deterministic tail: the final generation's answer is computed
    // once and then served from the cache, while the dead generations'
    // entries stay unreachable forever.
    let session = Session::new(db.clone());
    let t = db.create_table("churn_rc", schema(), None).unwrap();
    t.insert(vec![vec![
        Value::I64(0),
        Value::I64(7777),
        Value::Timestamp(START),
        Value::I64(7777),
    ]])
    .unwrap();
    assert_eq!(answer(session.execute(Q).unwrap()), (7777, 1));
    let before = t.stats().snapshot();
    assert_eq!(answer(session.execute(Q).unwrap()), (7777, 1));
    let after = t.stats().snapshot();
    assert_eq!(
        after.result_cache_hits,
        before.result_cache_hits + 1,
        "identical question on an unchanged table must be a cache hit"
    );
}
