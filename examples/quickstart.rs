//! Quickstart: create a table, insert time-series rows, and query the
//! two-dimensional bounding box — via both the Rust API and SQL.
//!
//! Run with: `cargo run --example quickstart`

use littletable::vfs::{Clock, SystemClock};
use littletable::{ColumnDef, ColumnType, Db, Options, Query, Schema, Session, SqlOutput, Value};

fn main() -> littletable::Result<()> {
    // A real on-disk database in a temp directory.
    let dir = std::env::temp_dir().join(format!("littletable-quickstart-{}", std::process::id()));
    let db = Db::open_local(&dir, Options::default())?;
    println!("database at {}", dir.display());

    // --- Rust API ------------------------------------------------------
    // A table clustered by (network, device, ts): any network's or
    // device's rows over any time range are contiguous on disk.
    let schema = Schema::new(
        vec![
            ColumnDef::new("network", ColumnType::I64),
            ColumnDef::new("device", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("bytes", ColumnType::I64),
        ],
        &["network", "device", "ts"],
    )?;
    let ttl = Some(390 * 24 * 3600 * 1_000_000); // 390 days, like Dashboard
    let table = db.create_table("usage", schema, ttl)?;

    let now = SystemClock.now_micros();
    let minute = 60 * 1_000_000i64;
    let mut rows = Vec::new();
    for m in 0..60i64 {
        for device in 1..=3i64 {
            rows.push(vec![
                Value::I64(1),
                Value::I64(device),
                Value::Timestamp(now - (60 - m) * minute),
                Value::I64(1000 * device + m),
            ]);
        }
    }
    let report = table.insert(rows)?;
    println!(
        "inserted {} rows ({} duplicates)",
        report.inserted, report.duplicates
    );

    // One device, the last 10 minutes — a single contiguous rectangle.
    let q = Query::all()
        .with_prefix(vec![Value::I64(1), Value::I64(2)])
        .with_ts_range(now - 10 * minute, now);
    let rows = table.query_all(&q)?;
    println!("device 2, last 10 min: {} rows", rows.len());

    // The most recent row for a key prefix (§3.4.5).
    let latest = table.latest(&[Value::I64(1), Value::I64(3)])?.unwrap();
    println!("latest row for device 3: bytes = {}", latest.values[3]);

    // --- SQL -----------------------------------------------------------
    let session = Session::new(db.clone());
    if let SqlOutput::Rows { columns, rows } = session.execute(
        "SELECT device, SUM(bytes), COUNT(*) FROM usage \
         WHERE network = 1 GROUP BY device",
    )? {
        println!("{}", columns.join(" | "));
        for row in rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("{}", cells.join(" | "));
        }
    }

    // Flush and reopen: everything durable survives.
    db.flush_all()?;
    drop(db);
    let db2 = Db::open_local(&dir, Options::default())?;
    let n = db2.table("usage")?.query_all(&Query::all())?.len();
    println!("after reopen: {n} rows");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
