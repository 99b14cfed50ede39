//! Concurrency stress: writers, readers, and maintenance passes (flushes
//! and merges) all running at once, then a full verification — every
//! accepted row present exactly once, in order.

use littletable::vfs::{SimClock, SimVfs};
use littletable::{ColumnDef, ColumnType, Db, Options, Query, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("writer", ColumnType::I64),
            ColumnDef::new("seq", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
        ],
        &["writer", "seq", "ts"],
    )
    .unwrap()
}

#[test]
fn writers_readers_and_maintenance_race_safely() {
    const WRITERS: i64 = 4;
    const ROWS_PER_WRITER: i64 = 3_000;
    let opts = Options {
        flush_size: 16 << 10, // frequent flushes
        merge_delay: 0,       // eager merging
        ..Options::small_for_tests()
    };
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(SimClock::new(1_700_000_000_000_000)),
        opts,
    )
    .unwrap();
    let table = db.create_table("s", schema(), None).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // The engine runs no maintenance of its own: a pass every 5 ms here.
    let maintainer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(5));
                db.maintain().unwrap();
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let t = table.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut observed_max = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let rows = t.query_all(&Query::all()).unwrap();
                    // Row count only grows (no reader-visible loss), and
                    // results stay sorted and duplicate-free.
                    assert!(rows.len() >= observed_max, "rows went missing");
                    observed_max = rows.len();
                    for w in rows.windows(2) {
                        let a = (&w[0].values[0], &w[0].values[1]);
                        let b = (&w[1].values[0], &w[1].values[1]);
                        let key = |v: (&Value, &Value)| match v {
                            (Value::I64(x), Value::I64(y)) => (*x, *y),
                            _ => unreachable!(),
                        };
                        assert!(key(a) < key(b), "unsorted or duplicate");
                    }
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let t = table.clone();
            std::thread::spawn(move || {
                let base = 1_700_000_000_000_000i64;
                let mut batch = Vec::new();
                for seq in 0..ROWS_PER_WRITER {
                    batch.push(vec![
                        Value::I64(w),
                        Value::I64(seq),
                        Value::Timestamp(base + w * ROWS_PER_WRITER + seq),
                    ]);
                    if batch.len() == 64 {
                        let r = t.insert(std::mem::take(&mut batch)).unwrap();
                        assert_eq!(r.duplicates, 0);
                    }
                }
                if !batch.is_empty() {
                    t.insert(batch).unwrap();
                }
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    maintainer.join().unwrap();
    table.flush_all().unwrap();
    while table.run_merge_once(db.now()).unwrap() {}

    let rows = table.query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), (WRITERS * ROWS_PER_WRITER) as usize);
    for w in 0..WRITERS {
        let per = table
            .query_all(&Query::all().with_prefix(vec![Value::I64(w)]))
            .unwrap();
        assert_eq!(per.len(), ROWS_PER_WRITER as usize);
        for (i, row) in per.iter().enumerate() {
            assert_eq!(row.values[1], Value::I64(i as i64));
        }
    }
    // Merging happened under load (several tablets were created by the
    // small flush size) and the table converged to a compact structure.
    let snap = table.stats().snapshot();
    assert!(
        snap.tablets_flushed > 4,
        "flushes = {}",
        snap.tablets_flushed
    );
    assert!(snap.merges > 0, "no merges ran");
}
