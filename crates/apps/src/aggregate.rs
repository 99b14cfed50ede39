//! Aggregators and rollups (§4.1.2).
//!
//! Background processes read a source table, compute per-period summaries,
//! and write them to a much smaller destination table so Dashboard can
//! render month-long graphs from a few thousand rows instead of millions.
//!
//! Aggregators cope with LittleTable's weak durability in two ways the
//! paper spells out:
//!
//! * Because rows flush in insertion order, finding *any* destination row
//!   for a period proves all earlier periods are complete; aggregators
//!   locate the most recent destination row by querying **exponentially
//!   longer lookbacks** and then binary-searching ([`latest_row_ts`]).
//! * They never aggregate source data that might not be on disk yet,
//!   assuming (configurably) that data older than 20 minutes is durable.

use crate::config::ConfigStore;
use crate::device::DeviceId;
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::table::Table;
use littletable_core::value::{ColumnType, Value};
use littletable_core::{Error, Query, Result};
use littletable_hll::HyperLogLog;
use littletable_vfs::Micros;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Finds the timestamp of the most recent row in `table` (any key), the
/// way aggregators must: LittleTable has no built-in "latest row" call, so
/// query exponentially longer periods back from `now` until some row
/// appears, then binary-search for the most recent populated instant
/// (§4.1.2).
pub fn latest_row_ts(table: &Table, now: Micros) -> Result<Option<Micros>> {
    let mut span = 60 * 1_000_000i64; // start with one minute
    let mut hit: Option<Micros> = None;
    loop {
        let q = Query::all().with_ts_min(now.saturating_sub(span), true);
        let mut cur = table.query(&q)?;
        let mut max_ts: Option<Micros> = None;
        while let Some(row) = cur.next_row()? {
            let ts = row.ts(&table.schema())?;
            if max_ts.is_none_or(|m| ts > m) {
                max_ts = Some(ts);
            }
        }
        if let Some(ts) = max_ts {
            hit = Some(ts);
            break;
        }
        if now.saturating_sub(span) == i64::MIN || span > 400 * 7 * 86_400 * 1_000_000 {
            break; // beyond any retention
        }
        span = span.saturating_mul(2);
    }
    Ok(hit)
}

/// Schema of the per-network usage rollup: `(network, ts)` → total bytes
/// over a fixed bucket ending at `ts`.
pub fn rollup_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("network", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("bytes", ColumnType::F64),
        ],
        &["network", "ts"],
    )
    .expect("rollup schema is valid")
}

/// Rolls up per-device usage rows into per-network totals over fixed
/// buckets (the paper's example compresses one row per device per minute
/// into one row per network per ten minutes).
pub struct UsageRollup {
    source: Arc<Table>,
    dest: Arc<Table>,
    /// Bucket width (10 minutes in the paper's example).
    pub bucket: Micros,
    /// Only aggregate source rows older than this, assuming they have
    /// reached disk (20 minutes in §4.1.2).
    pub durability_lag: Micros,
    /// Next bucket start to process.
    cursor: Option<Micros>,
}

impl UsageRollup {
    /// Creates a rollup from a [`crate::usage::usage_schema`] table into a
    /// [`rollup_schema`] table.
    pub fn new(
        source: Arc<Table>,
        dest: Arc<Table>,
        bucket: Micros,
        durability_lag: Micros,
    ) -> Self {
        UsageRollup {
            source,
            dest,
            bucket,
            durability_lag,
            cursor: None,
        }
    }

    /// Recovers the processing cursor after a restart: the bucket after
    /// the most recent destination row, re-processing that row's own
    /// bucket first since it may be incomplete (§4.1.2 — "re-process the
    /// period for the row it found and all subsequent periods").
    pub fn recover(&mut self, now: Micros) -> Result<()> {
        self.cursor = match latest_row_ts(&self.dest, now)? {
            // Destination rows are stamped with their bucket's *end*.
            Some(ts) => Some(ts - self.bucket),
            None => None,
        };
        Ok(())
    }

    /// Processes every complete, durably-sourced bucket up to `now`.
    /// Returns the number of buckets written.
    pub fn run_once(&mut self, now: Micros) -> Result<usize> {
        let safe_end = now - self.durability_lag;
        let mut start = match self.cursor {
            Some(c) => c,
            None => match source_min_ts(&self.source)? {
                Some(ts) => ts.div_euclid(self.bucket) * self.bucket,
                None => return Ok(0),
            },
        };
        let mut buckets = 0;
        while start + self.bucket <= safe_end {
            let end = start + self.bucket;
            let q = Query::all().with_ts_range(start, end);
            let mut totals: BTreeMap<i64, f64> = BTreeMap::new();
            let mut cur = self.source.query(&q)?;
            while let Some(row) = cur.next_row()? {
                let Value::I64(network) = row.values[0] else {
                    continue;
                };
                let (Value::F64(rate), Value::Timestamp(ts), Value::Timestamp(prev)) =
                    (&row.values[5], &row.values[2], &row.values[3])
                else {
                    continue;
                };
                *totals.entry(network).or_insert(0.0) += rate * ((ts - prev) as f64 / 1_000_000.0);
            }
            // One destination row per network, keyed by bucket end; rows
            // insert in ascending key order, hitting the fast uniqueness
            // path (§3.4.4).
            let rows: Vec<Vec<Value>> = totals
                .into_iter()
                .map(|(network, bytes)| {
                    vec![
                        Value::I64(network),
                        Value::Timestamp(end),
                        Value::F64(bytes),
                    ]
                })
                .collect();
            if !rows.is_empty() {
                self.dest.insert(rows)?;
            }
            buckets += 1;
            start = end;
            self.cursor = Some(start);
        }
        Ok(buckets)
    }
}

fn source_min_ts(table: &Table) -> Result<Option<Micros>> {
    let mut cur = table.query(&Query::all())?;
    let schema = table.schema();
    let mut min: Option<Micros> = None;
    while let Some(row) = cur.next_row()? {
        let ts = row.ts(&schema)?;
        if min.is_none_or(|m| ts < m) {
            min = Some(ts);
        }
    }
    Ok(min)
}

/// Schema for distinct-client sketches: `(network, ts)` → serialized
/// HyperLogLog of the clients seen in the bucket ending at `ts` (§4.1.2).
pub fn client_sketch_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("network", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("sketch", ColumnType::Blob),
        ],
        &["network", "ts"],
    )
    .expect("sketch schema is valid")
}

/// Writes one HyperLogLog row per (network, bucket) from client sightings.
///
/// `sightings` is any iterator of `(network, client_id)` pairs observed in
/// the bucket ending at `bucket_end`.
pub fn write_client_sketches(
    dest: &Table,
    bucket_end: Micros,
    sightings: impl IntoIterator<Item = (i64, i64)>,
) -> Result<usize> {
    let mut per_network: BTreeMap<i64, HyperLogLog> = BTreeMap::new();
    for (network, client) in sightings {
        per_network
            .entry(network)
            .or_insert_with(HyperLogLog::default_precision)
            .add_bytes(&client.to_le_bytes());
    }
    let rows: Vec<Vec<Value>> = per_network
        .into_iter()
        .map(|(network, hll)| {
            vec![
                Value::I64(network),
                Value::Timestamp(bucket_end),
                Value::Blob(hll.to_bytes()),
            ]
        })
        .collect();
    let n = rows.len();
    if n > 0 {
        dest.insert(rows)?;
    }
    Ok(n)
}

/// Estimates distinct clients on `network` over `[from, to)` by unioning
/// the stored sketches — the mergeable-union property that makes
/// HyperLogLog the right tool here. A sketch that does not decode, or is
/// of another precision than the first one read, is corruption.
pub fn estimate_clients(table: &Table, network: i64, from: Micros, to: Micros) -> Result<f64> {
    let q = Query::all()
        .with_prefix(vec![Value::I64(network)])
        .with_ts_range(from, to);
    let mut cur = table.query(&q)?;
    let mut merged: Option<HyperLogLog> = None;
    while let Some(row) = cur.next_row()? {
        let Value::Blob(bytes) = &row.values[2] else {
            continue;
        };
        match &mut merged {
            None => {
                let first = HyperLogLog::from_bytes(bytes);
                merged = Some(first.ok_or_else(|| Error::corrupt("undecodable client sketch"))?);
            }
            Some(m) => m
                .merge_bytes(bytes)
                .map_err(|e| Error::corrupt(format!("client sketch: {e}")))?,
        }
    }
    Ok(merged.map(|m| m.estimate()).unwrap_or(0.0))
}

/// Schema for tag-keyed usage: `(tag, ts)` → bytes, joining LittleTable
/// usage against the configuration store's user-defined device tags
/// (§4.1.2's school example).
pub fn tag_usage_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("tag", ColumnType::Str),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("bytes", ColumnType::F64),
        ],
        &["tag", "ts"],
    )
    .expect("tag schema is valid")
}

/// Aggregates usage per tag over one bucket, joining against the config
/// store's tags.
pub fn rollup_usage_by_tag(
    source: &Table,
    dest: &Table,
    config: &ConfigStore,
    bucket_start: Micros,
    bucket_end: Micros,
) -> Result<usize> {
    let q = Query::all().with_ts_range(bucket_start, bucket_end);
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut cur = source.query(&q)?;
    while let Some(row) = cur.next_row()? {
        let (Value::I64(network), Value::I64(device)) = (&row.values[0], &row.values[1]) else {
            continue;
        };
        let (Value::F64(rate), Value::Timestamp(ts), Value::Timestamp(prev)) =
            (&row.values[5], &row.values[2], &row.values[3])
        else {
            continue;
        };
        let bytes = rate * ((ts - prev) as f64 / 1_000_000.0);
        for tag in config.device_tags(DeviceId {
            network: *network,
            device: *device,
        }) {
            *totals.entry(tag).or_insert(0.0) += bytes;
        }
    }
    let rows: Vec<Vec<Value>> = totals
        .into_iter()
        .map(|(tag, bytes)| {
            vec![
                Value::Str(tag),
                Value::Timestamp(bucket_end),
                Value::F64(bytes),
            ]
        })
        .collect();
    let n = rows.len();
    if n > 0 {
        dest.insert(rows)?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Fleet, MINUTE};
    use crate::usage::{usage_schema, UsageGrabber};
    use littletable_core::{Db, Options};
    use littletable_vfs::Clock as _;
    use littletable_vfs::{SimClock, SimVfs};

    const EPOCH: Micros = 1_700_000_000_000_000;

    fn setup() -> (Db, SimClock, Fleet, Arc<Table>) {
        let clock = SimClock::new(EPOCH);
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let source = db.create_table("usage", usage_schema(), None).unwrap();
        let fleet = Fleet::new(EPOCH, 2, 2, 3);
        (db, clock, fleet, source)
    }

    fn fill_usage(clock: &SimClock, fleet: &Fleet, table: &Arc<Table>, minutes: i64) {
        let mut g = UsageGrabber::new(table.clone(), 3600 * 1_000_000);
        for _ in 0..minutes {
            g.poll_all(fleet, clock.now_micros()).unwrap();
            clock.advance(MINUTE);
        }
    }

    #[test]
    fn rollup_compresses_and_totals_match() {
        let (db, clock, fleet, source) = setup();
        fill_usage(&clock, &fleet, &source, 65);
        let dest = db.create_table("rollup", rollup_schema(), None).unwrap();
        let mut r = UsageRollup::new(source.clone(), dest.clone(), 10 * MINUTE, 0);
        let buckets = r.run_once(clock.now_micros()).unwrap();
        assert!(buckets >= 6, "buckets = {buckets}");
        let rollup_rows = dest.query_all(&Query::all()).unwrap();
        let source_rows = source.query_all(&Query::all()).unwrap();
        assert!(rollup_rows.len() < source_rows.len() / 2);
        // Total bytes across the rollup equals total across the source.
        let total_rollup: f64 = rollup_rows
            .iter()
            .map(|r| match r.values[2] {
                Value::F64(b) => b,
                _ => 0.0,
            })
            .sum();
        // The first bucket is epoch-aligned to the bucket width starting
        // from the earliest source row.
        let bucket0 = (EPOCH + MINUTE).div_euclid(10 * MINUTE) * (10 * MINUTE);
        let total_source: f64 = source_rows
            .iter()
            .filter(|r| {
                let Value::Timestamp(ts) = r.values[2] else {
                    return false;
                };
                // Only rows inside complete buckets.
                ts >= bucket0 && ts < bucket0 + (buckets as i64) * 10 * MINUTE
            })
            .map(|r| {
                let (Value::F64(rate), Value::Timestamp(ts), Value::Timestamp(prev)) =
                    (&r.values[5], &r.values[2], &r.values[3])
                else {
                    return 0.0;
                };
                rate * ((ts - prev) as f64 / 1_000_000.0)
            })
            .sum();
        assert!(
            (total_rollup - total_source).abs() / total_source.max(1.0) < 1e-9,
            "{total_rollup} vs {total_source}"
        );
    }

    #[test]
    fn durability_lag_is_respected() {
        let (db, clock, fleet, source) = setup();
        fill_usage(&clock, &fleet, &source, 30);
        let dest = db.create_table("rollup", rollup_schema(), None).unwrap();
        let lag = 20 * MINUTE;
        let mut r = UsageRollup::new(source, dest.clone(), 10 * MINUTE, lag);
        r.run_once(clock.now_micros()).unwrap();
        let schema = dest.schema();
        for row in dest.query_all(&Query::all()).unwrap() {
            let end = row.ts(&schema).unwrap();
            assert!(end <= clock.now_micros() - lag);
        }
    }

    #[test]
    fn recovery_resumes_without_holes_or_double_rows() {
        let (db, clock, fleet, source) = setup();
        fill_usage(&clock, &fleet, &source, 35);
        let dest = db.create_table("rollup", rollup_schema(), None).unwrap();
        let mut r = UsageRollup::new(source.clone(), dest.clone(), 10 * MINUTE, 0);
        r.run_once(clock.now_micros()).unwrap();
        let mid_count = dest.query_all(&Query::all()).unwrap().len();
        assert!(mid_count > 0);
        // More data arrives; a *new* aggregator (post-crash) recovers.
        fill_usage(&clock, &fleet, &source, 25);
        let mut r2 = UsageRollup::new(source, dest.clone(), 10 * MINUTE, 0);
        r2.recover(clock.now_micros()).unwrap();
        r2.run_once(clock.now_micros()).unwrap();
        // The re-processed bucket's rows are duplicates (same key) and are
        // skipped by uniqueness; every bucket appears exactly once per
        // network.
        let rows = dest.query_all(&Query::all()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in &rows {
            let key = (row.values[0].to_string(), row.values[1].to_string());
            assert!(seen.insert(key), "duplicate bucket row {row:?}");
        }
        assert!(rows.len() > mid_count);
    }

    #[test]
    fn exponential_lookback_finds_latest() {
        let (db, clock, _, _) = setup();
        let dest = db.create_table("d", rollup_schema(), None).unwrap();
        assert_eq!(latest_row_ts(&dest, clock.now_micros()).unwrap(), None);
        // A row far in the past (8 days).
        let old_ts = EPOCH - 8 * 86_400 * 1_000_000;
        dest.insert(vec![vec![
            Value::I64(1),
            Value::Timestamp(old_ts),
            Value::F64(1.0),
        ]])
        .unwrap();
        assert_eq!(
            latest_row_ts(&dest, clock.now_micros()).unwrap(),
            Some(old_ts)
        );
    }

    #[test]
    fn client_sketches_union_across_buckets() {
        let (db, clock, _, _) = setup();
        let dest = db
            .create_table("clients", client_sketch_schema(), None)
            .unwrap();
        // Bucket 1: clients 0..500 on network 1; bucket 2: 250..750.
        write_client_sketches(&dest, clock.now_micros(), (0..500).map(|c| (1i64, c))).unwrap();
        write_client_sketches(
            &dest,
            clock.now_micros() + 10 * MINUTE,
            (250..750).map(|c| (1i64, c)),
        )
        .unwrap();
        let est =
            estimate_clients(&dest, 1, EPOCH - MINUTE, clock.now_micros() + 11 * MINUTE).unwrap();
        assert!((est - 750.0).abs() / 750.0 < 0.1, "est = {est}");
        // An unknown network estimates zero.
        assert_eq!(
            estimate_clients(&dest, 9, EPOCH, EPOCH + MINUTE).unwrap(),
            0.0
        );
    }

    /// A stored sketch of another precision, or bytes that are no sketch,
    /// make the estimate an error instead of a panic or a skipped row.
    #[test]
    fn a_bad_client_sketch_is_corruption() {
        let (db, _, _, _) = setup();
        let sketch = |precision: u8| {
            let mut h = HyperLogLog::new(precision);
            h.add_bytes(b"client");
            Value::Blob(h.to_bytes())
        };
        for (name, bad) in [
            ("mixed", sketch(10)),
            ("garbage", Value::Blob(vec![0xFF, 1, 2])),
        ] {
            let dest = db.create_table(name, client_sketch_schema(), None).unwrap();
            let rows = [sketch(12), bad.clone()]
                .into_iter()
                .enumerate()
                .map(|(i, blob)| vec![Value::I64(1), Value::Timestamp(EPOCH + i as i64), blob])
                .collect();
            dest.insert(rows).unwrap();
            let err = estimate_clients(&dest, 1, EPOCH, EPOCH + MINUTE).unwrap_err();
            assert!(err.is_corruption(), "{name}: {err}");
            // Read first, the bad sketch is refused all the same.
            dest.insert(vec![vec![Value::I64(2), Value::Timestamp(EPOCH), bad]])
                .unwrap();
            dest.insert(vec![vec![
                Value::I64(2),
                Value::Timestamp(EPOCH + 1),
                sketch(12),
            ]])
            .unwrap();
            let err = estimate_clients(&dest, 2, EPOCH, EPOCH + MINUTE).unwrap_err();
            assert!(err.is_corruption(), "{name}, read first: {err}");
        }
    }

    #[test]
    fn tag_rollup_joins_config() {
        let (db, clock, fleet, source) = setup();
        fill_usage(&clock, &fleet, &source, 12);
        let dest = db.create_table("bytag", tag_usage_schema(), None).unwrap();
        let config = ConfigStore::new();
        config.tag_device(fleet.devices()[0], "classrooms");
        config.tag_device(fleet.devices()[1], "classrooms");
        config.tag_device(fleet.devices()[1], "east");
        let n = rollup_usage_by_tag(&source, &dest, &config, EPOCH, clock.now_micros()).unwrap();
        assert_eq!(n, 2); // "classrooms" and "east"
        let rows = dest.query_all(&Query::all()).unwrap();
        let classrooms: f64 = rows
            .iter()
            .find(|r| r.values[0] == Value::Str("classrooms".into()))
            .map(|r| match r.values[2] {
                Value::F64(b) => b,
                _ => 0.0,
            })
            .unwrap();
        let east: f64 = rows
            .iter()
            .find(|r| r.values[0] == Value::Str("east".into()))
            .map(|r| match r.values[2] {
                Value::F64(b) => b,
                _ => 0.0,
            })
            .unwrap();
        assert!(classrooms > east, "classrooms covers two devices");
    }
}
