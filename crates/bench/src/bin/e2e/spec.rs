//! The benchmark's contract: workloads, metrics, units, directions,
//! bounds and clocks. `BENCHMARK.json` at the repository root is
//! generated from this file (`e2e --print-benchmark-json`) and a unit
//! test keeps the two equal.

/// Length of one measured run; `BENCHMARK.json`'s `run_seconds`. Op
/// counts are this many seconds' worth at the rates measured on the
/// 2-core reference box, fixed before the run and never adapted.
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "ingest",
        why: "write-only 512-row batches through the request path, flush by size: proto, server, core.write, core.maintenance and compress do all the work, every read layer is idle",
    },
    WorkloadSpec {
        name: "dashboard",
        why: "read-only production query mix over a real socket on data larger than the cache: client, server.net, proto responses, core.read, core.cache and vfs reads work, the write path is idle",
    },
    WorkloadSpec {
        name: "sql_agg",
        why: "read-only SQL aggregates on data that fits in cache: sql and core.colscan (pushdown, rollup, result cache, footer stats) with disk and socket out of the picture",
    },
    WorkloadSpec {
        name: "mixed",
        why: "inserts beside reads under a TTL, flush by age: merges, TTL reaping, cache churn and result-cache invalidation, so a gain bought for one side at the other's cost shows",
    },
];

/// Which clock or counter a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    Wall,
    Cpu,
    Virtual,
    Count,
}

impl ClockKind {
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Wall => "wall",
            ClockKind::Cpu => "cpu",
            ClockKind::Virtual => "virtual",
            ClockKind::Count => "count",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    pub clock: ClockKind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    clock: ClockKind,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        clock,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: ClockKind,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        clock,
    }
}

use ClockKind::{Count, Cpu, Virtual, Wall};

/// What a user of the system sees. The four count-derived metrics
/// cover the whole scenario from an empty disk (set-up, warm-up and
/// window), so none is ever zero; failures are the result line's
/// `failed` / `attempted`, not a metric, because their median is zero.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", "lower", 0.25, Wall),
    e2e("ops_per_s", "1/s", "higher", 0.25, Wall),
    e2e("op_p50_ms", "ms", "lower", 0.25, Wall),
    e2e("op_p99_ms", "ms", "lower", 0.25, Wall),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25, Cpu),
    e2e("vdisk_ms_per_op", "ms", "lower", 0.05, Virtual),
    e2e("read_kb_per_op", "kB", "lower", 0.05, Count),
    e2e("write_amp", "ratio", "lower", 0.02, Count),
    e2e("space_amp", "ratio", "lower", 0.02, Count),
];

/// One layer each, named after the crate or module they observe.
pub const PER_LAYER: [MetricSpec; 72] = [
    layer("client.query_p50_ms", "ms", "lower", Wall),
    layer("client.query_p99_ms", "ms", "lower", Wall),
    layer("client.latest_p50_ms", "ms", "lower", Wall),
    layer("client.rows_per_query", "count", "lower", Count),
    layer("proto.encode_request_us", "us", "lower", Wall),
    layer("proto.decode_request_us", "us", "lower", Wall),
    layer("proto.request_bytes_per_op", "B", "lower", Count),
    layer("proto.encode_response_us", "us", "lower", Wall),
    layer("proto.decode_response_us", "us", "lower", Wall),
    layer("proto.response_bytes_per_op", "B", "lower", Count),
    layer("server.handle_insert_us", "us", "lower", Wall),
    layer("server.handle_query_us", "us", "lower", Wall),
    layer("server.handle_self_us", "us", "lower", Wall),
    layer("server.net.residual_us", "us", "lower", Wall),
    layer("server.net.ingest_rows_per_s", "1/s", "higher", Wall),
    layer(
        "server.net.ingest_rows_per_s_spread",
        "ratio",
        "lower",
        Wall,
    ),
    layer("server.net.ingest_ack_p50_ms", "ms", "lower", Wall),
    layer("server.net.ingest_ack_p99_ms", "ms", "lower", Wall),
    layer("server.group_commit.commits", "count", "lower", Count),
    layer(
        "server.group_commit.rows_per_commit",
        "count",
        "higher",
        Count,
    ),
    layer("sql.parse_us", "us", "lower", Wall),
    layer("sql.execute_pushdown_us", "us", "lower", Wall),
    layer("sql.execute_rollup_us", "us", "lower", Wall),
    layer("sql.execute_cached_us", "us", "lower", Wall),
    layer("sql.execute_stats_us", "us", "lower", Wall),
    layer("sql.pushdown_ns_per_row", "ns", "lower", Wall),
    layer("sql.served_pushdown", "count", "lower", Count),
    layer("sql.served_rollup", "count", "higher", Count),
    layer("sql.served_cache", "count", "higher", Count),
    layer("core.write.insert_us_per_row", "us", "lower", Wall),
    layer("core.write.unique_slow_frac", "ratio", "lower", Count),
    layer("core.write.duplicates", "count", "lower", Count),
    layer("core.maintenance.busy_ms", "ms", "lower", Wall),
    layer("core.maintenance.stall_p99_ms", "ms", "lower", Wall),
    layer("core.maintenance.flushes", "count", "lower", Count),
    layer("core.maintenance.merges", "count", "lower", Count),
    layer("core.maintenance.bytes_flushed", "B", "lower", Count),
    layer("core.maintenance.bytes_merge_written", "B", "lower", Count),
    layer("core.maintenance.tablets_expired", "count", "higher", Count),
    layer("core.read.open_us", "us", "lower", Wall),
    layer("core.read.first_row_p50_us", "us", "lower", Wall),
    layer("core.read.drain_ns_per_row", "ns", "lower", Wall),
    layer("core.read.latest_p50_us", "us", "lower", Wall),
    layer("core.read.scan_ratio", "ratio", "lower", Count),
    layer("core.colscan.us_per_krow", "us", "lower", Wall),
    layer("core.colscan.blocks_pruned_frac", "ratio", "higher", Count),
    layer("core.colscan.rows_materialized", "count", "lower", Count),
    layer("core.cache.hit_frac", "ratio", "higher", Count),
    layer("core.cache.compressed_hit_frac", "ratio", "higher", Count),
    layer("core.cache.miss_per_op", "count", "lower", Count),
    layer("core.cache.evicted_kb_per_op", "kB", "lower", Count),
    layer("core.cache.footer_evictions", "count", "lower", Count),
    layer("core.cache.split_fraction", "ratio", "lower", Count),
    layer("core.cache.rebalances", "count", "lower", Count),
    layer("core.db.table_lookup_ns", "ns", "lower", Wall),
    layer("core.db.catalog_loads_per_op", "count", "lower", Count),
    layer("core.rollup.folds", "count", "lower", Count),
    layer("core.rollup.hits", "count", "higher", Count),
    layer("core.resultcache.hit_frac", "ratio", "higher", Count),
    layer("core.resultcache.entries", "count", "lower", Count),
    layer("core.tablet.bytes_per_row", "B", "lower", Count),
    layer("compress.compress_ns_per_byte", "ns", "lower", Wall),
    layer("compress.decompress_ns_per_byte", "ns", "lower", Wall),
    layer("compress.ratio", "ratio", "higher", Count),
    layer("vfs.seeks_per_op", "count", "lower", Count),
    layer("vfs.read_kb_per_op", "kB", "lower", Count),
    layer("vfs.write_kb_per_op", "kB", "lower", Count),
    layer("vfs.io_ops_per_op", "count", "lower", Count),
    layer("vfs.live_mb", "MB", "lower", Count),
    layer("process.peak_rss_mb", "MB", "lower", Count),
    layer("process.rss_end_mb", "MB", "lower", Count),
    layer("process.trace_overhead_frac", "ratio", "lower", Wall),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name, m.unit, m.better
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"crates/bench/src/bin/e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(workloads.collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_generated_from_this_file() {
        let checked_in = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            benchmark_json(),
            "regenerate with `e2e --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.unit, "_/%.-", 16), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
