//! BENCH_scan: row-v2 versus columnar-v3 block layout on a telemetry
//! workload — bytes on disk and scan/aggregate throughput.
//!
//! Not a figure from the paper — it characterises this implementation's
//! footer-v3 columnar blocks (per-column slices with time-series codecs
//! and zone maps) against the row-oriented v2 layout on the same data.
//! A merged tablet of per-device counter samples is measured four ways:
//!
//! 1. full scan (`query_all`, every row decoded),
//! 2. filtered scan (a 10% time window over the same rows),
//! 3. `SUM` aggregate via `pushdown_scan` (values must be read, but the
//!    columnar path touches only the summed column's slices),
//! 4. `COUNT`/`MIN`/`MAX` aggregate via `pushdown_scan` with footer
//!    statistics allowed (the columnar path answers from zone maps
//!    without reading block bytes at all).
//!
//! Both formats run the same API: on row-v2 tablets `pushdown_scan`
//! falls back to materialized row batches, so the deltas isolate the
//! layout. Disk time is virtual (the simulated paper disk, caches
//! cleared before each measured pass); decode CPU is charged per
//! materialized row from the engine's own counter, so a pass that skips
//! materialization skips its CPU too.

use crate::env::{SimEnv, CPU_PER_COMMAND, CPU_PER_SCAN_ROW};
use crate::report::FigureResult;
use littletable_core::block::{BlockFormat, ColumnSlice};
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::table::{ColumnPredicate, PredOp, PushdownRequest, ScanUnit};
use littletable_core::value::{ColumnType, Value};
use littletable_core::{Options, Query, Table};
use littletable_vfs::{DiskParams, Micros, MICROS_PER_SEC};
use std::sync::Arc;

const START: Micros = 1_700_000_000 * MICROS_PER_SEC;
/// Sample period: one row per device per 10 s, the paper's poll cadence.
const PERIOD: Micros = 10 * MICROS_PER_SEC;

/// Telemetry schema: per-device interface counters, keyed (device, ts).
fn scan_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("device", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("bytes", ColumnType::I64),
            ColumnDef::new("errs", ColumnType::I64),
            ColumnDef::new("load", ColumnType::F64),
        ],
        &["device", "ts"],
    )
    .expect("scan schema is valid")
}

/// One device's sample `k`: a smooth counter, a mostly-zero error count,
/// and a slowly drifting gauge — the shapes the v3 codecs target.
fn sample(d: u64, k: u64) -> Vec<Value> {
    vec![
        Value::I64(d as i64),
        Value::Timestamp(START + k as Micros * PERIOD),
        Value::I64((d as i64) * 1_000_000 + (k as i64) * 37 + (k as i64 % 16)),
        Value::I64(if (d + k).is_multiple_of(97) {
            (k % 5) as i64
        } else {
            0
        }),
        Value::F64(d as f64 + (k / 64) as f64 * 0.25),
    ]
}

/// Builds one fully merged tablet of `devices * samples` telemetry rows
/// under the given block format.
fn build(format: BlockFormat, devices: u64, samples: u64) -> (SimEnv, Arc<Table>) {
    let opts = Options {
        block_format: format,
        // No engine block cache: every pass runs the paper's uncached
        // read path, so disk bytes (the layouts' difference) are paid.
        block_cache_bytes: 0,
        // The full scan covers every row in one cursor, not in pages.
        server_row_limit: usize::MAX,
        ..Options::default()
    };
    let env = SimEnv::new(DiskParams::paper_disk(), opts);
    let table = env.db.create_table("scan", scan_schema(), None).unwrap();
    let mut batch = Vec::with_capacity(1024);
    for d in 0..devices {
        for k in 0..samples {
            batch.push(sample(d, k));
            if batch.len() == 1024 {
                table.insert(std::mem::take(&mut batch)).unwrap();
            }
        }
    }
    if !batch.is_empty() {
        table.insert(batch).unwrap();
    }
    table.flush_all().unwrap();
    while table.run_merge_once(env.db.now()).unwrap() {}
    (env, table)
}

/// Runs `op` against a cold disk, charging decode CPU per row the engine
/// materialized, and returns rows-per-second of virtual time for the
/// `rows` rows the operation covered.
fn timed(env: &SimEnv, table: &Table, rows: u64, op: impl FnOnce() -> u64) -> f64 {
    env.vfs.clear_caches();
    let before = table.stats().snapshot().rows_materialized;
    let t0 = env.now();
    let covered = op();
    assert_eq!(covered, rows, "operation covered an unexpected row count");
    let materialized = table.stats().snapshot().rows_materialized - before;
    env.charge_cpu(CPU_PER_COMMAND + materialized as f64 * CPU_PER_SCAN_ROW);
    let secs = (env.now() - t0) as f64 / 1e6;
    rows as f64 / secs.max(1e-9)
}

/// `SUM(bytes)`-shaped pushdown: values must be read (`stats_cols:
/// None`), so columnar tablets stream the `bytes` column slices while
/// row tablets fall back to materialized rows. Returns (rows, sum).
fn pushdown_sum(table: &Table, req: &PushdownRequest) -> (u64, i128) {
    let mut rows = 0u64;
    let mut sum = 0i128;
    table
        .pushdown_scan(req, &mut |unit| {
            match unit {
                ScanUnit::Stats { .. } => unreachable!("stats forbidden for SUM"),
                ScanUnit::Block { block, sel } => {
                    let Some(ColumnSlice::I64(col)) = block.column(2) else {
                        unreachable!("bytes is an int64 column");
                    };
                    rows += sel.len() as u64;
                    sel.for_each_in(0..sel.len(), |ri| sum += col[ri] as i128);
                }
                ScanUnit::Rows(batch) => {
                    for row in batch {
                        rows += 1;
                        if let Value::I64(v) = row.values[2] {
                            sum += v as i128;
                        }
                    }
                }
            }
            Ok(())
        })
        .unwrap();
    (rows, sum)
}

/// `COUNT(*)`/`MIN`/`MAX(bytes)`-shaped pushdown: footer statistics
/// allowed, so contained columnar blocks answer without being read.
fn pushdown_stats(table: &Table, req: &PushdownRequest) -> u64 {
    let mut rows = 0u64;
    table
        .pushdown_scan(req, &mut |unit| {
            match unit {
                ScanUnit::Stats { rows: n, .. } => rows += n,
                ScanUnit::Block { sel, .. } => rows += sel.len() as u64,
                ScanUnit::Rows(batch) => rows += batch.len() as u64,
            }
            Ok(())
        })
        .unwrap();
    rows
}

/// Per-format measurements: disk bytes plus rows/s for the four ops.
struct FormatRun {
    disk_mb: f64,
    ops: [f64; 4],
    sum: i128,
}

fn measure(format: BlockFormat, devices: u64, samples: u64) -> FormatRun {
    let total = devices * samples;
    let (env, table) = build(format, devices, samples);
    let disk_mb = table.disk_bytes() as f64 / (1 << 20) as f64;

    // 1. Full scan: every row decoded through the cursor.
    let full = timed(&env, &table, total, || {
        table.query_all(&Query::all()).unwrap().len() as u64
    });

    // 2. Filtered scan: the most recent 10% of the time range.
    let ts_lo = START + (samples - samples / 10) as Micros * PERIOD;
    let ts_hi = START + samples as Micros * PERIOD;
    let window = Query::all().with_ts_range(ts_lo, ts_hi);
    let filtered = timed(&env, &table, devices * (samples / 10), || {
        table.query_all(&window).unwrap().len() as u64
    });

    // 3. SUM(bytes) over the same window: values required.
    let sum_req = PushdownRequest {
        query: window.clone(),
        predicates: vec![ColumnPredicate {
            col: 3,
            op: PredOp::Ge,
            value: Value::I64(0),
        }],
        stats_cols: None,
    };
    let mut sum = 0i128;
    let agg_sum = timed(&env, &table, devices * (samples / 10), || {
        let (rows, s) = pushdown_sum(&table, &sum_req);
        sum = s;
        rows
    });

    // 4. COUNT/MIN/MAX(bytes) over everything: footer stats suffice.
    let stats_req = PushdownRequest {
        query: Query::all(),
        predicates: Vec::new(),
        stats_cols: Some(vec![2]),
    };
    let agg_stats = timed(&env, &table, total, || pushdown_stats(&table, &stats_req));

    FormatRun {
        disk_mb,
        ops: [full, filtered, agg_sum, agg_stats],
        sum,
    }
}

/// Runs the figure.
pub fn run(quick: bool) -> FigureResult {
    // Long per-device runs: each device's samples span several blocks,
    // so most blocks carry a tight timestamp zone (only the blocks
    // straddling a device boundary wrap), and the filtered window can
    // prune the rest.
    // Sized so transfer time dominates seek time on the paper disk
    // (the tablets span many 128 kB readahead windows) — otherwise the
    // layouts' byte difference is hidden behind fixed seek costs.
    let (devices, samples) = if quick {
        (8u64, 2500u64)
    } else {
        (40u64, 50_000u64)
    };
    let row = measure(BlockFormat::Row, devices, samples);
    let col = measure(BlockFormat::Columnar, devices, samples);
    assert_eq!(row.sum, col.sum, "formats must agree on SUM(bytes)");

    let mut fig = FigureResult::new(
        "BENCH_scan",
        "Row-v2 vs columnar-v3: scan and aggregate throughput",
        "operation (0 full scan, 1 filtered scan, 2 SUM pushdown, 3 COUNT/MIN/MAX pushdown)",
        "million rows/s (virtual time)",
    );
    let ops = |r: &FormatRun| {
        r.ops
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v / 1e6))
            .collect()
    };
    fig.push_series("row-v2", ops(&row));
    fig.push_series("columnar-v3", ops(&col));
    fig.push_series(
        "bytes on disk (MB; x: 0 row-v2, 1 columnar-v3)",
        vec![(0.0, row.disk_mb), (1.0, col.disk_mb)],
    );
    fig.paper(
        "Not in the paper: characterises the v3 columnar layout (§3.2's block format evolved).",
    );
    fig.note(&format!(
        "{} rows ({} devices x {} samples), fully merged; disk {:.2} MB row-v2 vs {:.2} MB columnar-v3 ({:.2}x smaller)",
        devices * samples,
        devices,
        samples,
        row.disk_mb,
        col.disk_mb,
        row.disk_mb / col.disk_mb.max(1e-9),
    ));
    fig.note(&format!(
        "SUM pushdown {:.2}x faster, COUNT/MIN/MAX from footer stats {:.2}x faster on columnar-v3",
        col.ops[2] / row.ops[2].max(1e-9),
        col.ops[3] / row.ops[3].max(1e-9),
    ));
    fig
}
