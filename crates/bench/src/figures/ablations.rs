//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * Bloom filters (§3.4.5 extension) on latest-for-prefix cost;
//! * time-period binning (§3.4.2) on recent-query scan efficiency;
//! * the uniqueness fast paths (§3.4.4) on out-of-order insert cost.

use crate::env::{SimEnv, XorShift64};
use crate::figures::fig5::build_interleaved_table;
use crate::report::FigureResult;
use littletable_apps::usage::usage_schema;
use littletable_core::value::Value;
use littletable_core::{Options, Query};
use littletable_vfs::{Clock, DiskParams, Micros};

const MINUTE: Micros = 60 * 1_000_000;
const DAY: Micros = 24 * 3600 * 1_000_000;

/// Bloom ablation: latest-for-prefix over a many-tablet table, with and
/// without the per-tablet Bloom filters. Panics when the filters save less
/// than three quarters of the seeks: a false-positive rate grown large
/// enough to undo them fails the run.
pub fn run_bloom(quick: bool) -> FigureResult {
    let tablets = if quick { 16 } else { 64 };
    let total = if quick { 8 << 20 } else { 32 << 20 };
    let mut points = Vec::new();
    for (label, bloom) in [("bloom on", true), ("bloom off", false)] {
        let mut opts = Options::default();
        opts.merge_enabled = false;
        opts.respect_periods = false;
        opts.flush_size = usize::MAX;
        opts.bloom_filters = bloom;
        let env = SimEnv::new(DiskParams::paper_disk(), opts);
        let table = build_interleaved_table(&env, total, tablets);
        // Warm footers (and blooms) as a long-running server would have.
        let mut cur = table.query(&Query::all().with_limit(1)).unwrap();
        let _ = cur.next_row().unwrap();
        drop(cur);
        env.vfs.clear_caches();
        // A prefix that exists in exactly one tablet: with blooms the
        // others are skipped without touching disk.
        let t0 = env.now();
        let seeks0 = env.vfs.model().stats().seeks;
        let mut rng = XorShift64::new(7);
        for _ in 0..8 {
            let k = rng.next_u64();
            let _ = table.latest(&[Value::I64((k >> 32) as i64)]).unwrap();
        }
        let ms = (env.now() - t0) as f64 / 1e3 / 8.0;
        let seeks = (env.vfs.model().stats().seeks - seeks0) as f64 / 8.0;
        points.push((label, ms, seeks));
    }
    let mut fig = FigureResult::new(
        "ablation_bloom",
        "Ablation: Bloom filters on latest-for-prefix (sect. 3.4.5)",
        "configuration",
        "avg latency (ms) / avg seeks",
    );
    for (i, (label, ms, seeks)) in points.iter().enumerate() {
        fig.push_series(&format!("{label}: latency ms"), vec![(i as f64, *ms)]);
        fig.push_series(&format!("{label}: seeks"), vec![(i as f64, *seeks)]);
    }
    fig.paper("Bloom filters would eliminate checking ~99% of tablets at 10 bits/row");
    fig.note(&format!(
        "with blooms {:.1} ms / {:.0} seeks per lookup; without {:.1} ms / {:.0} seeks",
        points[0].1, points[0].2, points[1].1, points[1].2
    ));
    assert!(
        points[0].2 <= points[1].2 / 4.0,
        "Bloom filters no longer skip the tablets they should"
    );
    fig
}

/// Period ablation: recent-window query efficiency over weeks of history,
/// with time-period binning on vs off.
pub fn run_periods(quick: bool) -> FigureResult {
    let days = if quick { 7 } else { 21 };
    let mut results = Vec::new();
    for (label, respect) in [("periods on", true), ("periods off", false)] {
        let mut opts = Options::default();
        opts.flush_size = 256 << 10;
        opts.merge_delay = 0;
        opts.respect_periods = respect;
        let env = SimEnv::new(DiskParams::instant(), opts);
        let table = env.db.create_table("u", usage_schema(), None).unwrap();
        // Weeks of samples, maintaining as time passes so the tablet
        // structure reflects each policy.
        let step = 10 * MINUTE;
        let start = env.now();
        while env.now() - start < days * DAY {
            let now = env.now();
            let rows: Vec<Vec<Value>> = (1..=4i64)
                .map(|d| {
                    vec![
                        Value::I64(1),
                        Value::I64(d),
                        Value::Timestamp(now),
                        Value::Timestamp(now - step),
                        Value::I64(now % 1_000_000),
                        Value::F64(1.0),
                    ]
                })
                .collect();
            table.insert(rows).unwrap();
            env.clock.advance(step);
            env.db.maintain().unwrap();
        }
        env.db.maintain_until_quiescent().unwrap();
        // The canonical Dashboard query: one device, the last two hours.
        let now = env.now();
        let q = Query::all()
            .with_prefix(vec![Value::I64(1), Value::I64(2)])
            .with_ts_range(now - 2 * 3600 * 1_000_000, now);
        let mut cur = table.query(&q).unwrap();
        while cur.next_row().unwrap().is_some() {}
        let ratio = cur.scanned() as f64 / cur.returned().max(1) as f64;
        results.push((label, ratio, table.num_disk_tablets() as f64));
    }
    let mut fig = FigureResult::new(
        "ablation_periods",
        "Ablation: time-period binning (sect. 3.4.2) on recent-query efficiency",
        "configuration",
        "rows scanned per row returned",
    );
    for (i, (label, ratio, tablets)) in results.iter().enumerate() {
        fig.push_series(&format!("{label}: scan ratio"), vec![(i as f64, *ratio)]);
        fig.push_series(&format!("{label}: tablets"), vec![(i as f64, *tablets)]);
    }
    fig.paper("without period bounds a day-query may scan 365x more rows than it returns");
    fig.note(&format!(
        "recent 2-hour query scans {:.1} rows/row with periods on vs {:.1} with periods off",
        results[0].1, results[1].1
    ));
    fig
}

/// Uniqueness-check ablation (§3.4.4): virtual cost of the duplicate
/// check by insert pattern. Timestamps newer than everything (grabbers)
/// and keys above everything in the period (aggregators) resolve from the
/// descriptor and cached indexes; keys landing *inside* existing history
/// need a point query that may block on disk — unless Bloom filters rule
/// the tablets out.
pub fn run_unique(quick: bool) -> FigureResult {
    let seed_rows = if quick { 20_000u64 } else { 100_000 };
    let insert_rows = if quick { 1_000u64 } else { 4_000 };
    let mut results: Vec<(String, f64, f64)> = Vec::new();
    for (label, pattern, bloom) in [
        ("newest timestamps (fast path 1)", 0u8, false),
        ("ascending keys in period (fast path 2)", 1, false),
        ("in-range keys, no blooms (slow path)", 2, false),
        ("in-range keys, with blooms", 2, true),
    ] {
        let mut opts = Options::default();
        opts.flush_size = 1 << 20;
        opts.merge_enabled = false;
        opts.respect_periods = false;
        opts.bloom_filters = bloom;
        let env = SimEnv::new(DiskParams::paper_disk(), opts);
        let table = env
            .db
            .create_table("u", crate::env::bench_schema(), None)
            .unwrap();
        let mut rng = XorShift64::new(0x0417);
        // Seed history: even keys, a contiguous timestamp span.
        let t_base = env.clock.now_micros();
        let mut batch = Vec::new();
        for seq in 0..seed_rows {
            batch.push(crate::env::bench_row_sequential(
                &mut rng,
                seq * 2,
                t_base + seq as i64,
                128,
            ));
            if batch.len() == 1024 {
                table.insert(std::mem::take(&mut batch)).unwrap();
            }
        }
        if !batch.is_empty() {
            table.insert(batch).unwrap();
        }
        table.flush_all().unwrap();
        env.vfs.clear_caches();
        let t0 = env.now();
        let seeks0 = env.vfs.model().stats().seeks;
        let mut batch = Vec::new();
        for i in 0..insert_rows {
            let (key, ts) = match pattern {
                // Newer than every existing timestamp.
                0 => (seed_rows * 2 + i, t_base + (seed_rows + i) as i64),
                // Key above everything, timestamps spread over the span.
                1 => (
                    seed_rows * 2 + i,
                    t_base + (i.wrapping_mul(7919) % seed_rows) as i64,
                ),
                // Odd keys interleave the seeded even keys: true point
                // lookups against persisted blocks, timestamps spread so
                // every tablet is a candidate.
                _ => (
                    (i.wrapping_mul(37) % seed_rows) * 2 + 1,
                    t_base + (i.wrapping_mul(7919) % seed_rows) as i64,
                ),
            };
            batch.push(crate::env::bench_row_sequential(&mut rng, key, ts, 128));
            if batch.len() == 256 {
                table.insert(std::mem::take(&mut batch)).unwrap();
                env.charge_insert_command(256, 256 * 128);
            }
        }
        if !batch.is_empty() {
            let n = batch.len();
            table.insert(batch).unwrap();
            env.charge_insert_command(n, n * 128);
        }
        let elapsed = (env.now() - t0) as f64 / 1e6;
        let seeks = (env.vfs.model().stats().seeks - seeks0) as f64 / insert_rows as f64;
        results.push((label.to_string(), insert_rows as f64 / elapsed, seeks));
    }
    let mut fig = FigureResult::new(
        "ablation_unique",
        "Ablation: uniqueness-check cost by insert pattern (sect. 3.4.4)",
        "pattern",
        "inserts/second (virtual)",
    );
    for (i, (label, rate, seeks)) in results.iter().enumerate() {
        fig.push_series(
            &format!("{label} ({seeks:.2} seeks/row)"),
            vec![(i as f64, *rate)],
        );
    }
    fig.paper(
        "most inserts use timestamps set to the current time, so the descriptor check is common",
    );
    fig.paper("aggregators insert in ascending key order, resolved from cached indexes");
    fig.paper("remaining inserts may wait on disk; Bloom filters (future work) would skip ~99% of tablets");
    fig.note(&format!(
        "rates: fast1 {:.0}/s, fast2 {:.0}/s, slow(no bloom) {:.0}/s, slow(bloom) {:.0}/s",
        results[0].1, results[1].1, results[2].1, results[3].1
    ));
    fig
}
