//! Turns what a run measured into the named metrics of `spec.rs`.

use crate::ops::Path;
use crate::run::{Report, Segment};
use crate::side::SidePasses;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

/// The `q`-quantile of `xs` by nearest rank; 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Values in the order of a metric table.
pub struct Metrics {
    pub specs: &'static [MetricSpec],
    pub values: Vec<f64>,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &Report) -> Metrics {
    let seg = &r.segments[0];
    let ops = seg.ops() as f64;
    let mut lat_ms: Vec<f64> = seg.latencies_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let values = END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => median(&r.setup_secs),
            "ops_per_s" => seg.ops_per_s(),
            "op_p50_ms" => quantile(&mut lat_ms, 0.50),
            "op_p99_ms" => quantile(&mut lat_ms, 0.99),
            "cpu_ms_per_op" => seg.cpu_ns() as f64 / 1e6 / ops,
            // The next four cover the scenario from an empty disk:
            // set-up, warm-up, window and the closing flush.
            "vdisk_ms_per_op" => r.books.end.disk.busy_micros as f64 / 1e3 / ops,
            "read_kb_per_op" => r.books.end.disk.bytes_read as f64 / 1e3 / ops,
            "write_amp" => r.books.end.disk.bytes_written as f64 / r.books.user_bytes as f64,
            "space_amp" => r.books.live_bytes as f64 / r.books.user_bytes_live as f64,
            other => unreachable!("no formula for end-to-end metric {other}"),
        })
        .collect();
    Metrics {
        specs: &END_TO_END,
        values,
    }
}

fn span_mean_us(tr: &Tracer, name: &str) -> f64 {
    mean(&tr.durations(name)) / 1e3
}

fn class_latencies_ms(seg: &Segment, class: &str) -> Vec<f64> {
    seg.classes
        .iter()
        .zip(&seg.latencies_ns)
        .filter(|(c, _)| **c == class || (class == "scan" && c.ends_with("_scan")))
        .map(|(_, &n)| n as f64 / 1e6)
        .collect()
}

/// The per-layer metrics of a traced run. Span figures come from the
/// traced segments, counter figures from the whole window.
pub fn per_layer(r: &Report, tr: &Tracer, side: &SidePasses) -> Metrics {
    let reference = &r.segments[0];
    let traced = &r.segments[1];
    let wire = r.segments.iter().find(|s| s.traced && s.path == Path::Wire);
    let engine = r.segments.last().expect("a traced run has segments");
    let socket = (traced.path == Path::Socket).then_some(traced);
    let ops = r.window_ops() as f64;
    let (a, b) = (&r.books.window_before, &r.books.window_after);
    let t =
        |f: fn(&littletable_core::stats::StatsSnapshot) -> u64| (f(&b.table) - f(&a.table)) as f64;
    let d = |f: fn(&littletable_vfs::DiskStats) -> u64| (f(&b.disk) - f(&a.disk)) as f64;

    let cache_total = t(|s| s.cache_hits) + t(|s| s.cache_compressed_hits) + t(|s| s.cache_misses);
    let wire_ops = wire.map_or(0.0, |s| s.ops() as f64);
    let maintain_ms: Vec<f64> = tr
        .durations("core.maintenance.maintain")
        .iter()
        .map(|n| n / 1e6)
        .collect();
    let staged_us = [
        "proto.encode_request",
        "proto.decode_request",
        "server.handle_insert",
        "server.handle_query",
        "proto.encode_response",
        "proto.decode_response",
    ]
    .iter()
    .map(|n| tr.total_ns(n))
    .sum::<f64>()
        / 1e3
        / wire_ops.max(1.0);
    let engine_self_us = [
        "core.db.table",
        "core.write.insert",
        "core.read.open",
        "core.read.first_row",
        "core.read.drain",
        "core.read.latest",
    ]
    .iter()
    .map(|n| tr.total_ns(n))
    .sum::<f64>()
        / 1e3
        / (engine.ops() as f64);
    let handle_us = (tr.total_ns("server.handle_insert") + tr.total_ns("server.handle_query"))
        / 1e3
        / wire_ops.max(1.0);
    let is_scan = |c: &str| c.ends_with("_scan");
    let pushdown_rows = |seg: &Segment| seg.rows_of(|c| c == "sql_pushdown");

    let values = PER_LAYER
        .iter()
        .map(|m| match m.name {
            "client.query_p50_ms" => {
                socket.map_or(0.0, |s| quantile(&mut class_latencies_ms(s, "scan"), 0.5))
            }
            "client.query_p99_ms" => {
                socket.map_or(0.0, |s| quantile(&mut class_latencies_ms(s, "scan"), 0.99))
            }
            "client.latest_p50_ms" => {
                socket.map_or(0.0, |s| quantile(&mut class_latencies_ms(s, "latest"), 0.5))
            }
            "client.rows_per_query" => socket.map_or(0.0, |s| {
                ratio(
                    s.rows_of(is_scan),
                    class_latencies_ms(s, "scan").len() as f64,
                )
            }),
            "proto.encode_request_us" => span_mean_us(tr, "proto.encode_request"),
            "proto.decode_request_us" => span_mean_us(tr, "proto.decode_request"),
            "proto.request_bytes_per_op" => {
                wire.map_or(0.0, |s| ratio(s.wire.request as f64, wire_ops))
            }
            "proto.encode_response_us" => span_mean_us(tr, "proto.encode_response"),
            "proto.decode_response_us" => span_mean_us(tr, "proto.decode_response"),
            "proto.response_bytes_per_op" => {
                wire.map_or(0.0, |s| ratio(s.wire.response as f64, wire_ops))
            }
            "server.handle_insert_us" => span_mean_us(tr, "server.handle_insert"),
            "server.handle_query_us" => span_mean_us(tr, "server.handle_query"),
            // What the server adds to the same ops issued on `Table`.
            "server.handle_self_us" => {
                if wire_ops > 0.0 {
                    handle_us - engine_self_us
                } else {
                    0.0
                }
            }
            // What the socket adds to the staged request path.
            "server.net.residual_us" => socket.map_or(0.0, |s| {
                s.latencies_ns.iter().sum::<u64>() as f64 / 1e3 / s.ops() as f64 - staged_us
            }),
            "server.net.ingest_rows_per_s" => median(&side.ingest_rows_per_s),
            "server.net.ingest_rows_per_s_spread" => {
                let (lo, hi) = side
                    .ingest_rows_per_s
                    .iter()
                    .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                if side.ingest_rows_per_s.is_empty() {
                    0.0
                } else {
                    ratio(hi - lo, median(&side.ingest_rows_per_s))
                }
            }
            "server.net.ingest_ack_p50_ms" => median(&side.ingest_ack_p50_ms),
            "server.net.ingest_ack_p99_ms" => median(&side.ingest_ack_p99_ms),
            "server.group_commit.commits" => median(&side.commits),
            "server.group_commit.rows_per_commit" => median(&side.rows_per_commit),
            "sql.parse_us" => span_mean_us(tr, "sql.parse"),
            "sql.execute_pushdown_us" => span_mean_us(tr, "sql.execute_pushdown"),
            "sql.execute_rollup_us" => span_mean_us(tr, "sql.execute_rollup"),
            "sql.execute_cached_us" => span_mean_us(tr, "sql.execute_cached"),
            "sql.execute_stats_us" => span_mean_us(tr, "sql.execute_stats"),
            "sql.pushdown_ns_per_row" => {
                ratio(tr.total_ns("sql.execute_pushdown"), pushdown_rows(traced))
            }
            "sql.served_pushdown" => t(|s| s.pushdown_scans),
            "sql.served_rollup" => t(|s| s.rollup_hits),
            "sql.served_cache" => t(|s| s.result_cache_hits),
            "core.write.insert_us_per_row" => ratio(
                tr.total_ns("core.write.insert") / 1e3,
                engine.rows_of(|c| c == "insert"),
            ),
            "core.write.unique_slow_frac" => ratio(t(|s| s.unique_slow), t(|s| s.rows_inserted)),
            "core.write.duplicates" => t(|s| s.duplicate_keys),
            "core.maintenance.busy_ms" => maintain_ms.iter().sum::<f64>() + 0.0,
            "core.maintenance.stall_p99_ms" => quantile(&mut maintain_ms.clone(), 0.99),
            "core.maintenance.flushes" => t(|s| s.tablets_flushed),
            "core.maintenance.merges" => t(|s| s.merges),
            "core.maintenance.bytes_flushed" => t(|s| s.bytes_flushed),
            "core.maintenance.bytes_merge_written" => t(|s| s.bytes_merge_written),
            "core.maintenance.tablets_expired" => t(|s| s.tablets_expired),
            "core.read.open_us" => span_mean_us(tr, "core.read.open"),
            "core.read.first_row_p50_us" => {
                quantile(&mut tr.durations("core.read.first_row"), 0.5) / 1e3
            }
            "core.read.drain_ns_per_row" => {
                ratio(tr.total_ns("core.read.drain"), engine.rows_of(is_scan))
            }
            "core.read.latest_p50_us" => quantile(&mut tr.durations("core.read.latest"), 0.5) / 1e3,
            "core.read.scan_ratio" => ratio(t(|s| s.rows_scanned), t(|s| s.rows_returned)),
            "core.colscan.us_per_krow" => ratio(
                tr.total_ns("core.colscan.pushdown_scan") / 1e3,
                pushdown_rows(engine) / 1e3,
            ),
            "core.colscan.blocks_pruned_frac" => {
                ratio(t(|s| s.blocks_pruned), t(|s| s.blocks_pruned) + cache_total)
            }
            "core.colscan.rows_materialized" => t(|s| s.rows_materialized),
            "core.cache.hit_frac" => ratio(cache_total - t(|s| s.cache_misses), cache_total),
            "core.cache.compressed_hit_frac" => ratio(t(|s| s.cache_compressed_hits), cache_total),
            "core.cache.miss_per_op" => t(|s| s.cache_misses) / ops,
            "core.cache.evicted_kb_per_op" => t(|s| s.cache_evicted_bytes) / 1e3 / ops,
            "core.cache.footer_evictions" => t(|s| s.footer_evictions),
            "core.cache.split_fraction" => b.db.cache_split_fraction,
            "core.cache.rebalances" => (b.db.cache_rebalances - a.db.cache_rebalances) as f64,
            "core.db.table_lookup_ns" => mean(&tr.durations("core.db.table")),
            "core.db.catalog_loads_per_op" => {
                (b.db.catalog_loads - a.db.catalog_loads) as f64 / ops
            }
            "core.rollup.folds" => t(|s| s.rollup_folds),
            "core.rollup.hits" => t(|s| s.rollup_hits),
            "core.resultcache.hit_frac" => ratio(
                t(|s| s.result_cache_hits),
                t(|s| s.result_cache_hits) + t(|s| s.result_cache_misses),
            ),
            "core.resultcache.entries" => b.db.result_cache_entries as f64,
            "core.tablet.bytes_per_row" => {
                ratio(r.books.disk_bytes as f64, r.books.disk_rows as f64)
            }
            "compress.compress_ns_per_byte" => side.compress_ns_per_byte,
            "compress.decompress_ns_per_byte" => side.decompress_ns_per_byte,
            "compress.ratio" => side.compress_ratio,
            "vfs.seeks_per_op" => d(|s| s.seeks) / ops,
            "vfs.read_kb_per_op" => d(|s| s.bytes_read) / 1e3 / ops,
            "vfs.write_kb_per_op" => d(|s| s.bytes_written) / 1e3 / ops,
            "vfs.io_ops_per_op" => (b.io_ops - a.io_ops) as f64 / ops,
            "vfs.live_mb" => r.books.live_bytes as f64 / 1e6,
            "process.peak_rss_mb" => r.peak_rss_mb,
            "process.rss_end_mb" => r.rss_end_mb,
            // The same path with spans off and on, back to back.
            "process.trace_overhead_frac" => 1.0 - ratio(traced.ops_per_s(), reference.ops_per_s()),
            other => unreachable!("no formula for per-layer metric {other}"),
        })
        .collect();
    Metrics {
        specs: &PER_LAYER,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
