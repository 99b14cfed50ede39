//! The continuous rollup (downsampling) tier.
//!
//! Dashboards over the aggregator workload (§4.1.2) ask for per-period
//! SUM/COUNT/MIN/MAX/AVG and distinct counts far more often than they
//! ask for raw rows. A *rollup* materializes those answers ahead of
//! time: for a base table and a period `P`, it maintains one row per
//! (key-prefix dims, source tablet, P-aligned bucket) holding the row
//! count, per-column sums and extrema, and a mergeable HyperLogLog
//! sketch per distinct-counted column.
//!
//! Rollups are stored as *ordinary LittleTable tables*, so they inherit
//! snapshot isolation, crash recovery, descriptor atomicity, and the
//! fault sweep for free. Their schema is derived from the base table's
//! (see [`rollup_schema`]), with primary key `(dims…, chunk, ts)` where
//! `chunk` is the id of the base tablet the partial came from and `ts`
//! is the bucket start.
//!
//! # Maintenance protocol
//!
//! Folding happens at maintenance time, after flush/merge, under the
//! base table's merge-exclusion slot:
//!
//! 1. list the base's on-disk tablets not yet marked `rolled_up`;
//! 2. scan each one and accumulate partial aggregates per
//!    `(dims, bucket)`;
//! 3. insert the partials into every registered rollup table — keys are
//!    deterministic (`chunk` = source tablet id), so a crash-and-refold
//!    simply has its duplicates rejected by the engine;
//! 4. `flush_all` the rollup tables;
//! 5. mark the source tablets `rolled_up` in the base's descriptor.
//!
//! A crash between any two steps is safe: the mark is the commitment
//! point, and everything before it is idempotent. Because tablet
//! identity is the idempotency key, a base table feeding rollups only
//! merges tablets that are already rolled up
//! (see `Table::rollup_source`) — merging first would re-chunk rows and
//! double-count them on the refold.
//!
//! # Serving
//!
//! Every row with `ts` below the base's *rollup watermark*
//! ([`crate::Table::rollup_watermark`]) is fully represented in the
//! rollup tables; the SQL layer answers bucketed aggregates from the
//! rollup below the watermark and scans only the un-rolled-up tail
//! above it, merging the two (partial aggregates are additive).

use crate::block::ColumnSlice;
use crate::cursor::{RunCursor, Source};
use crate::error::{Error, Result};
use crate::keyenc::KeyRange;
use crate::schema::{ColumnDef, Schema};
use crate::stats::TableStats;
use crate::table::{cmp_values, Table};
use crate::util::{crc32, put_string, put_varint, Reader};
use crate::value::{ColumnType, Value};
use littletable_hll::HyperLogLog;
use littletable_vfs::{join, Micros, Vfs};
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::sync::Arc;

/// File name of the rollup spec within a rollup table's directory. Its
/// presence is what distinguishes a rollup table from a base table at
/// `Db::open`.
pub const SPEC_FILE: &str = "ROLLUP";
const SPEC_TMP: &str = "ROLLUP.tmp";
const SPEC_MAGIC: u32 = 0x4C54_524C; // "LTRL"
const SPEC_VERSION: u8 = 1;

/// The durable definition of one rollup: which base table it folds,
/// at what period, and which columns get sums/extrema and HLL sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupSpec {
    /// Name of the rollup table itself.
    pub name: String,
    /// Name of the base table being folded.
    pub base: String,
    /// Bucket width in micros; bucket starts are multiples of it.
    pub period: Micros,
    /// Base value columns (int32/int64/double) given `_sum`/`_min`/`_max`
    /// columns in the rollup.
    pub value_cols: Vec<String>,
    /// Base columns given a `_hll` HyperLogLog sketch column for
    /// `COUNT(DISTINCT …)`.
    pub distinct_cols: Vec<String>,
}

impl RollupSpec {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.push(SPEC_VERSION);
        put_string(&mut body, &self.name);
        put_string(&mut body, &self.base);
        put_varint(&mut body, self.period as u64);
        put_varint(&mut body, self.value_cols.len() as u64);
        for c in &self.value_cols {
            put_string(&mut body, c);
        }
        put_varint(&mut body, self.distinct_cols.len() as u64);
        for c in &self.distinct_cols {
            put_string(&mut body, c);
        }
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&SPEC_MAGIC.to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn decode(data: &[u8]) -> Result<RollupSpec> {
        let mut r = Reader::new(data);
        if r.u32()? != SPEC_MAGIC {
            return Err(Error::corrupt("bad rollup spec magic"));
        }
        let crc = r.u32()?;
        let body = r.bytes(r.remaining())?;
        if crc32(body) != crc {
            return Err(Error::corrupt("rollup spec checksum mismatch"));
        }
        let mut r = Reader::new(body);
        let ver = r.u8()?;
        if ver != SPEC_VERSION {
            return Err(Error::corrupt(format!("unknown rollup spec version {ver}")));
        }
        let name = r.string()?;
        let base = r.string()?;
        let period = r.varint()? as Micros;
        let n = r.varint()? as usize;
        let mut value_cols = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            value_cols.push(r.string()?);
        }
        let n = r.varint()? as usize;
        let mut distinct_cols = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            distinct_cols.push(r.string()?);
        }
        if !r.is_empty() {
            return Err(Error::corrupt("trailing bytes after rollup spec"));
        }
        Ok(RollupSpec {
            name,
            base,
            period,
            value_cols,
            distinct_cols,
        })
    }

    /// Durably writes the spec into the rollup table's directory.
    pub(crate) fn save(&self, vfs: &dyn Vfs, dir: &str) -> Result<()> {
        let tmp = join(dir, SPEC_TMP);
        let dst = join(dir, SPEC_FILE);
        let data = self.encode();
        let mut f = vfs.create(&tmp, data.len() as u64)?;
        f.append(&data)?;
        f.sync()?;
        drop(f);
        vfs.rename(&tmp, &dst)?;
        vfs.sync_dir(dir)?;
        Ok(())
    }

    /// Loads a spec from a rollup table's directory.
    pub(crate) fn load(vfs: &dyn Vfs, dir: &str) -> Result<RollupSpec> {
        let tmp = join(dir, SPEC_TMP);
        if vfs.exists(&tmp) && vfs.remove(&tmp).is_ok() {
            let _ = vfs.sync_dir(dir);
        }
        let path = join(dir, SPEC_FILE);
        let f = vfs.open(&path)?;
        let len = f.len()? as usize;
        let mut data = vec![0u8; len];
        f.read_exact_at(0, &mut data)?;
        Self::decode(&data)
    }
}

/// The rollup column type that holds sums/extrema of a base value
/// column: the int family widens to `int64`, doubles stay doubles.
fn stat_type(base: ColumnType) -> Result<ColumnType> {
    match base {
        ColumnType::I32 | ColumnType::I64 => Ok(ColumnType::I64),
        ColumnType::F64 => Ok(ColumnType::F64),
        other => Err(Error::invalid(format!(
            "rollup value columns must be numeric, got {other}"
        ))),
    }
}

/// Derives the rollup table's schema from the base table's.
///
/// Layout: the base's non-timestamp key columns (the *dims*), then
/// `chunk int64` (source base-tablet id), `ts timestamp` (bucket start),
/// `rows int64`, then `{v}_sum`/`{v}_min`/`{v}_max` per value column and
/// `{d}_hll blob` per distinct column. Primary key `(dims…, chunk, ts)`.
pub fn rollup_schema(base: &Schema, spec: &RollupSpec) -> Result<Schema> {
    if spec.period <= 0 {
        return Err(Error::invalid("rollup period must be positive"));
    }
    let mut columns = Vec::new();
    let mut key_names: Vec<String> = Vec::new();
    let key = base.key_indices();
    for &i in &key[..key.len() - 1] {
        let c = &base.columns()[i];
        columns.push(ColumnDef::new(c.name.clone(), c.ty));
        key_names.push(c.name.clone());
    }
    columns.push(ColumnDef::new("chunk", ColumnType::I64));
    key_names.push("chunk".into());
    columns.push(ColumnDef::new("ts", ColumnType::Timestamp));
    key_names.push("ts".into());
    columns.push(ColumnDef::new("rows", ColumnType::I64));
    for name in &spec.value_cols {
        let idx = base
            .column_index(name)
            .ok_or_else(|| Error::invalid(format!("no column {name:?} in base table")))?;
        let ty = stat_type(base.columns()[idx].ty)?;
        columns.push(ColumnDef::new(format!("{name}_sum"), ty));
        columns.push(ColumnDef::new(format!("{name}_min"), ty));
        columns.push(ColumnDef::new(format!("{name}_max"), ty));
    }
    for name in &spec.distinct_cols {
        let idx = base
            .column_index(name)
            .ok_or_else(|| Error::invalid(format!("no column {name:?} in base table")))?;
        if idx == base.ts_index() {
            return Err(Error::invalid(
                "the timestamp column cannot be distinct-counted",
            ));
        }
        columns.push(ColumnDef::new(format!("{name}_hll"), ColumnType::Blob));
    }
    let key_refs: Vec<&str> = key_names.iter().map(|s| s.as_str()).collect();
    Schema::new(columns, &key_refs)
}

/// The bucket start containing `ts` for a period: the largest multiple
/// of `period` at or below `ts`. Matches SQL's `TIME_BUCKET`.
pub fn bucket_of(ts: Micros, period: Micros) -> Micros {
    ts - ts.rem_euclid(period)
}

/// Hashable identity of a value for distinct counting. The int family
/// (including timestamps) normalizes to one encoding so `int32` columns
/// widened to `int64` keep their sketch identities.
pub fn distinct_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    match v {
        Value::I32(x) => put_distinct(&mut out, 0, &(*x as i64).to_le_bytes()),
        Value::I64(x) | Value::Timestamp(x) => put_distinct(&mut out, 0, &x.to_le_bytes()),
        Value::F64(x) => put_distinct(&mut out, 1, &x.to_bits().to_le_bytes()),
        Value::Str(s) => put_distinct(&mut out, 2, s.as_bytes()),
        Value::Blob(b) => put_distinct(&mut out, 3, b),
    }
    out
}

/// [`distinct_bytes`] of the value at `row` of a decoded column slice,
/// written over `out` — for sketching a column without building a
/// [`Value`] (or an allocation) per row.
pub fn distinct_bytes_at(col: &ColumnSlice, row: usize, out: &mut Vec<u8>) {
    match col {
        ColumnSlice::I32(v) => put_distinct(out, 0, &(v[row] as i64).to_le_bytes()),
        ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
            put_distinct(out, 0, &v[row].to_le_bytes())
        }
        ColumnSlice::F64(v) => put_distinct(out, 1, &v[row].to_bits().to_le_bytes()),
        ColumnSlice::Str(v) => put_distinct(out, 2, v.bytes(row)),
        ColumnSlice::Blob(v) => put_distinct(out, 3, v.bytes(row)),
    }
}

fn put_distinct(out: &mut Vec<u8>, family: u8, payload: &[u8]) {
    out.clear();
    out.push(family);
    out.extend_from_slice(payload);
}

/// One tablet's groups for one rollup: encoded (dims, bucket) key to
/// the original dim values, the bucket, and the running aggregate.
type AccMap = HashMap<Vec<u8>, (Vec<Value>, Micros, Acc)>;

/// One partial aggregate under accumulation.
struct Acc {
    rows: i64,
    /// Per value column: (sum over the int family as i64 or f64, min,
    /// max). Sums start at the type's zero; extrema start `None`.
    sums_i: Vec<i64>,
    sums_f: Vec<f64>,
    mins: Vec<Option<Value>>,
    maxs: Vec<Option<Value>>,
    hlls: Vec<HyperLogLog>,
}

impl Acc {
    fn new(n_vals: usize, n_distinct: usize) -> Self {
        Acc {
            rows: 0,
            sums_i: vec![0; n_vals],
            sums_f: vec![0.0; n_vals],
            mins: vec![None; n_vals],
            maxs: vec![None; n_vals],
            hlls: (0..n_distinct)
                .map(|_| HyperLogLog::default_precision())
                .collect(),
        }
    }
}

/// Column bindings of one rollup spec against the base schema, resolved
/// once per fold.
struct Binding {
    spec: Arc<RollupSpec>,
    table: Arc<Table>,
    val_idx: Vec<usize>,
    val_float: Vec<bool>,
    distinct_idx: Vec<usize>,
}

fn bind(base_schema: &Schema, targets: &[(Arc<RollupSpec>, Arc<Table>)]) -> Result<Vec<Binding>> {
    let mut out = Vec::with_capacity(targets.len());
    for (spec, table) in targets {
        let mut val_idx = Vec::new();
        let mut val_float = Vec::new();
        for name in &spec.value_cols {
            let idx = base_schema
                .column_index(name)
                .ok_or_else(|| Error::invalid(format!("rollup column {name:?} missing in base")))?;
            val_float.push(stat_type(base_schema.columns()[idx].ty)? == ColumnType::F64);
            val_idx.push(idx);
        }
        let mut distinct_idx = Vec::new();
        for name in &spec.distinct_cols {
            let idx = base_schema
                .column_index(name)
                .ok_or_else(|| Error::invalid(format!("rollup column {name:?} missing in base")))?;
            distinct_idx.push(idx);
        }
        out.push(Binding {
            spec: spec.clone(),
            table: table.clone(),
            val_idx,
            val_float,
            distinct_idx,
        });
    }
    Ok(out)
}

/// Widens a base value to its rollup stat column type.
fn widen(v: Value) -> Value {
    match v {
        Value::I32(x) => Value::I64(x as i64),
        other => other,
    }
}

/// Folds the base table's not-yet-rolled-up on-disk tablets into every
/// registered rollup table, then marks them rolled up. Returns the
/// number of tablets folded. With `include_rolled`, re-folds everything
/// (the backfill path for a newly created rollup; duplicate partials
/// are rejected by the engine's uniqueness check, making it idempotent).
pub(crate) fn fold_base(
    base: &Arc<Table>,
    targets: &[(Arc<RollupSpec>, Arc<Table>)],
    include_rolled: bool,
) -> Result<usize> {
    if targets.is_empty() {
        return Ok(0);
    }
    if !base.try_begin_merge_exclusion() {
        return Ok(0);
    }
    let result = fold_base_inner(base, targets, include_rolled);
    base.end_merge_exclusion();
    result
}

/// The backfill variant of [`fold_base`]: *waits* for the base's
/// merge-exclusion slot instead of skipping the pass, because `CREATE
/// ROLLUP` must not return before the existing data is folded.
pub(crate) fn fold_backfill(
    base: &Arc<Table>,
    targets: &[(Arc<RollupSpec>, Arc<Table>)],
) -> Result<usize> {
    loop {
        if base.try_begin_merge_exclusion() {
            break;
        }
        if base.is_dropped() {
            return Err(Error::invalid("base table dropped during rollup backfill"));
        }
        std::thread::yield_now();
    }
    let result = fold_base_inner(base, targets, true);
    base.end_merge_exclusion();
    result
}

fn fold_base_inner(
    base: &Arc<Table>,
    targets: &[(Arc<RollupSpec>, Arc<Table>)],
    include_rolled: bool,
) -> Result<usize> {
    let tablets = base.unfolded_tablets(include_rolled);
    if tablets.is_empty() {
        return Ok(0);
    }
    let schema = base.schema();
    let bindings = bind(&schema, targets)?;
    let key = schema.key_indices();
    let dims: Vec<usize> = key[..key.len() - 1].to_vec();
    let mut folded: Vec<u64> = Vec::with_capacity(tablets.len());
    for (meta, reader) in &tablets {
        // One pass over the tablet feeds every rollup's accumulators.
        // `Value` has no `Hash`/`Eq` (doubles), so groups are keyed by
        // the engine's order-preserving key encoding of the dims plus
        // the bucket, with the original values carried alongside.
        let mut accs: Vec<AccMap> = bindings.iter().map(|_| HashMap::new()).collect();
        let source =
            Source::tablet(reader.clone(), schema.clone(), KeyRange::all()).with_read_run(1 << 20);
        let mut cur = RunCursor::new(vec![source], false);
        while let Some(run) = cur.next_run()? {
            let timestamps = run.block.timestamps()?;
            for i in run.indices() {
                let (ts, row) = (timestamps[i], run.block.row(i)?);
                for (b, acc_map) in bindings.iter().zip(accs.iter_mut()) {
                    let bucket = bucket_of(ts, b.spec.period);
                    let dim_vals: Vec<Value> =
                        dims.iter().map(|&i| row.values[i].clone()).collect();
                    let mut group_key = Vec::new();
                    for v in &dim_vals {
                        crate::keyenc::encode_component(&mut group_key, v)?;
                    }
                    group_key.extend_from_slice(&bucket.to_le_bytes());
                    let (_, _, acc) = acc_map.entry(group_key).or_insert_with(|| {
                        (
                            dim_vals,
                            bucket,
                            Acc::new(b.val_idx.len(), b.distinct_idx.len()),
                        )
                    });
                    acc.rows += 1;
                    for (vi, &ci) in b.val_idx.iter().enumerate() {
                        let v = &row.values[ci];
                        if b.val_float[vi] {
                            if let Value::F64(x) = v {
                                acc.sums_f[vi] += x;
                            }
                        } else {
                            match v {
                                Value::I32(x) => acc.sums_i[vi] += *x as i64,
                                Value::I64(x) => acc.sums_i[vi] += x,
                                _ => {}
                            }
                        }
                        let better_min = acc.mins[vi]
                            .as_ref()
                            .is_none_or(|m| cmp_values(v, m) == Some(CmpOrdering::Less));
                        if better_min {
                            acc.mins[vi] = Some(v.clone());
                        }
                        let better_max = acc.maxs[vi]
                            .as_ref()
                            .is_none_or(|m| cmp_values(v, m) == Some(CmpOrdering::Greater));
                        if better_max {
                            acc.maxs[vi] = Some(v.clone());
                        }
                    }
                    for (di, &ci) in b.distinct_idx.iter().enumerate() {
                        acc.hlls[di].add_bytes(&distinct_bytes(&row.values[ci]));
                    }
                }
            }
        }
        // Assemble and insert this tablet's partials into each rollup.
        for (b, acc_map) in bindings.iter().zip(accs) {
            let mut rows: Vec<Vec<Value>> = Vec::with_capacity(acc_map.len());
            for (_, (dim_vals, bucket, acc)) in acc_map {
                let mut row = dim_vals;
                row.push(Value::I64(meta.id as i64));
                row.push(Value::Timestamp(bucket));
                row.push(Value::I64(acc.rows));
                for vi in 0..b.val_idx.len() {
                    if b.val_float[vi] {
                        row.push(Value::F64(acc.sums_f[vi]));
                    } else {
                        row.push(Value::I64(acc.sums_i[vi]));
                    }
                    row.push(widen(acc.mins[vi].clone().unwrap_or(Value::I64(0))));
                    row.push(widen(acc.maxs[vi].clone().unwrap_or(Value::I64(0))));
                }
                for hll in &acc.hlls {
                    row.push(Value::Blob(hll.to_bytes()));
                }
                rows.push(row);
            }
            if !rows.is_empty() {
                // Duplicates mean a previous fold of this tablet already
                // landed (crash before the rolled_up mark); rejection is
                // the idempotency we rely on.
                b.table.insert(rows)?;
            }
        }
        folded.push(meta.id);
    }
    // Make the partials durable before the rolled_up mark commits: the
    // mark is the point of no return, after which these tablets become
    // merge-eligible and lose their identity.
    for b in &bindings {
        b.table.flush_all()?;
    }
    base.mark_rolled_up(&folded)?;
    TableStats::add(&base.stats().rollup_folds, folded.len() as u64);
    Ok(folded.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("net", ColumnType::I64),
                ColumnDef::new("dev", ColumnType::I32),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("bytes", ColumnType::I64),
                ColumnDef::new("load", ColumnType::F64),
                ColumnDef::new("user", ColumnType::Str),
            ],
            &["net", "dev", "ts"],
        )
        .unwrap()
    }

    fn spec() -> RollupSpec {
        RollupSpec {
            name: "usage_1h".into(),
            base: "usage".into(),
            period: 3_600_000_000,
            value_cols: vec!["bytes".into(), "load".into()],
            distinct_cols: vec!["user".into()],
        }
    }

    #[test]
    fn spec_round_trips() {
        let s = spec();
        let back = RollupSpec::decode(&s.encode()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn spec_detects_corruption() {
        let mut data = spec().encode();
        data[9] ^= 0x10;
        assert!(RollupSpec::decode(&data).is_err());
        assert!(RollupSpec::decode(&data[..6]).is_err());
    }

    #[test]
    fn schema_derivation_layout() {
        let s = rollup_schema(&base_schema(), &spec()).unwrap();
        let names: Vec<&str> = s.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "net",
                "dev",
                "chunk",
                "ts",
                "rows",
                "bytes_sum",
                "bytes_min",
                "bytes_max",
                "load_sum",
                "load_min",
                "load_max",
                "user_hll",
            ]
        );
        // Dims keep their base types; stats widen int32 to int64.
        assert_eq!(s.columns()[1].ty, ColumnType::I32);
        assert_eq!(s.columns()[5].ty, ColumnType::I64);
        assert_eq!(s.columns()[8].ty, ColumnType::F64);
        assert_eq!(s.key_len(), 4);
    }

    #[test]
    fn schema_derivation_rejects_bad_columns() {
        let mut sp = spec();
        sp.value_cols = vec!["user".into()];
        assert!(rollup_schema(&base_schema(), &sp).is_err());
        let mut sp = spec();
        sp.value_cols = vec!["nope".into()];
        assert!(rollup_schema(&base_schema(), &sp).is_err());
        let mut sp = spec();
        sp.distinct_cols = vec!["ts".into()];
        assert!(rollup_schema(&base_schema(), &sp).is_err());
        let mut sp = spec();
        sp.period = 0;
        assert!(rollup_schema(&base_schema(), &sp).is_err());
    }

    #[test]
    fn buckets_align_to_period() {
        assert_eq!(bucket_of(0, 10), 0);
        assert_eq!(bucket_of(9, 10), 0);
        assert_eq!(bucket_of(10, 10), 10);
        assert_eq!(bucket_of(-1, 10), -10);
        assert_eq!(bucket_of(-10, 10), -10);
    }

    #[test]
    fn distinct_bytes_normalizes_int_family() {
        assert_eq!(
            distinct_bytes(&Value::I32(7)),
            distinct_bytes(&Value::I64(7))
        );
        assert_ne!(
            distinct_bytes(&Value::I64(7)),
            distinct_bytes(&Value::F64(7.0))
        );
        assert_ne!(
            distinct_bytes(&Value::Str("a".into())),
            distinct_bytes(&Value::Blob(b"a".to_vec()))
        );
        // The slice form is the same function of the same value.
        let slices = [
            ColumnSlice::I32(vec![-7]),
            ColumnSlice::I64(vec![i64::MIN]),
            ColumnSlice::Timestamp(vec![9]),
            ColumnSlice::F64(vec![f64::NAN]),
            ColumnSlice::Str(["a\0b"].into_iter().collect()),
            ColumnSlice::Blob([&[0u8, 255][..]].into_iter().collect()),
        ];
        let mut out = vec![1, 2, 3];
        for col in &slices {
            distinct_bytes_at(col, 0, &mut out);
            assert_eq!(out, distinct_bytes(&col.value(0)));
        }
    }

    use crate::db::Db;
    use crate::options::Options;
    use crate::query::Query;
    use littletable_hll::HyperLogLog;
    use littletable_vfs::{SimClock, SimVfs};

    const START: Micros = 1_700_000_000_000_000;
    const HOUR: Micros = 3_600_000_000;

    fn test_db() -> (Db, SimVfs, SimClock) {
        let clock = SimClock::new(START);
        let vfs = SimVfs::instant();
        let db = Db::open(
            std::sync::Arc::new(vfs.clone()),
            std::sync::Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        (db, vfs, clock)
    }

    fn row(net: i64, dev: i32, ts: Micros, bytes: i64, load: f64, user: &str) -> Vec<Value> {
        vec![
            Value::I64(net),
            Value::I32(dev),
            Value::Timestamp(ts),
            Value::I64(bytes),
            Value::F64(load),
            Value::Str(user.into()),
        ]
    }

    fn seed_base(db: &Db) -> std::sync::Arc<crate::table::Table> {
        let t = db.create_table("usage", base_schema(), None).unwrap();
        // Two networks, two buckets, with a flush between batches so the
        // fold sees more than one source tablet.
        let mut batch = Vec::new();
        for i in 0..20 {
            batch.push(row(1, 1, START + i * 60_000_000, 100, 0.5, "alice"));
            batch.push(row(2, 1, START + i * 60_000_000, 10, 1.5, "bob"));
        }
        t.insert(batch).unwrap();
        t.flush_all().unwrap();
        let mut batch = Vec::new();
        for i in 0..20 {
            batch.push(row(1, 1, START + HOUR + i * 60_000_000, 7, 0.25, "carol"));
        }
        t.insert(batch).unwrap();
        t.flush_all().unwrap();
        t
    }

    #[test]
    fn create_rollup_backfills_existing_tablets() {
        let (db, _, _) = test_db();
        let base = seed_base(&db);
        let r = db
            .create_rollup(
                "usage_1h",
                "usage",
                HOUR,
                vec!["bytes".into(), "load".into()],
                vec!["user".into()],
            )
            .unwrap();
        let rows = r.query_all(&Query::all()).unwrap();
        // Aggregate partials across source tablets per (net, bucket).
        let mut per_group: std::collections::BTreeMap<(i64, Micros), (i64, i64)> =
            std::collections::BTreeMap::new();
        for row in &rows {
            let net = match row.values[0] {
                Value::I64(n) => n,
                _ => panic!("bad net"),
            };
            let bucket = match row.values[3] {
                Value::Timestamp(t) => t,
                _ => panic!("bad bucket"),
            };
            let n = match row.values[4] {
                Value::I64(n) => n,
                _ => panic!("bad rows"),
            };
            let sum = match row.values[5] {
                Value::I64(s) => s,
                _ => panic!("bad sum"),
            };
            let e = per_group.entry((net, bucket)).or_insert((0, 0));
            e.0 += n;
            e.1 += sum;
        }
        let mut expect = std::collections::BTreeMap::new();
        expect.insert((1, bucket_of(START, HOUR)), (20, 2000));
        expect.insert((2, bucket_of(START, HOUR)), (20, 200));
        expect.insert((1, bucket_of(START + HOUR, HOUR)), (20, 140));
        assert_eq!(per_group, expect);
        // Every backfilled tablet is marked so maintenance will not refold.
        assert_eq!(
            crate::rollup::fold_base(&base, &db_targets(&db), false).unwrap(),
            0
        );
    }

    fn db_targets(
        db: &Db,
    ) -> Vec<(
        std::sync::Arc<RollupSpec>,
        std::sync::Arc<crate::table::Table>,
    )> {
        db.rollup_specs_for("usage")
            .into_iter()
            .map(|s| {
                let t = db.table(&s.name).unwrap();
                (s, t)
            })
            .collect()
    }

    #[test]
    fn maintenance_folds_new_tablets_incrementally() {
        let (db, _, _) = test_db();
        let base = seed_base(&db);
        db.create_rollup("usage_1h", "usage", HOUR, vec!["bytes".into()], vec![])
            .unwrap();
        // New data after the rollup exists gets folded by maintenance.
        base.insert(vec![row(9, 9, START + 2 * HOUR, 42, 0.0, "dave")])
            .unwrap();
        base.flush_all().unwrap();
        let report = db.maintain_table("usage").unwrap();
        assert_eq!(report.tablets_folded, 1);
        let r = db.table("usage_1h").unwrap();
        let rows = r
            .query_all(&Query::all().with_prefix(vec![Value::I64(9)]))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[5], Value::I64(42));
        assert!(base.stats().snapshot().rollup_folds >= 1);
    }

    #[test]
    fn hll_partials_merge_to_true_distinct_count() {
        let (db, _, _) = test_db();
        let t = db.create_table("usage", base_schema(), None).unwrap();
        // 50 distinct users spread over several tablets within one bucket.
        for chunk in 0..5 {
            let mut batch = Vec::new();
            for u in 0..10 {
                let user = format!("user-{}", chunk * 10 + u);
                batch.push(row(1, 1, START + (chunk * 10 + u) * 1_000, 1, 0.0, &user));
            }
            t.insert(batch).unwrap();
            t.flush_all().unwrap();
        }
        db.create_rollup("usage_1h", "usage", HOUR, vec![], vec!["user".into()])
            .unwrap();
        let r = db.table("usage_1h").unwrap();
        let mut merged = HyperLogLog::default_precision();
        for row in r.query_all(&Query::all()).unwrap() {
            let blob = match row.values.last().unwrap() {
                Value::Blob(b) => b.clone(),
                _ => panic!("expected hll blob"),
            };
            merged.merge(&HyperLogLog::from_bytes(&blob).unwrap());
        }
        let est = merged.estimate();
        assert!((40.0..60.0).contains(&est), "estimate {est} out of range");
    }

    #[test]
    fn rollups_survive_reopen_and_keep_folding() {
        let clock = SimClock::new(START);
        let vfs = SimVfs::instant();
        let db = Db::open(
            std::sync::Arc::new(vfs.clone()),
            std::sync::Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let t = db.create_table("usage", base_schema(), None).unwrap();
        t.insert(vec![row(1, 1, START, 5, 0.0, "alice")]).unwrap();
        t.flush_all().unwrap();
        db.create_rollup("usage_1h", "usage", HOUR, vec!["bytes".into()], vec![])
            .unwrap();
        db.shutdown();
        drop(db);

        let db = Db::open(
            std::sync::Arc::new(vfs.clone()),
            std::sync::Arc::new(clock.clone()),
            Options::small_for_tests(),
        )
        .unwrap();
        let specs = db.rollup_specs_for("usage");
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "usage_1h");
        // The reopened base keeps feeding the rollup.
        let t = db.table("usage").unwrap();
        t.insert(vec![row(1, 1, START + HOUR, 6, 0.0, "bob")])
            .unwrap();
        t.flush_all().unwrap();
        let report = db.maintain_table("usage").unwrap();
        assert_eq!(report.tablets_folded, 1);
        let rows = db
            .table("usage_1h")
            .unwrap()
            .query_all(&Query::all())
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn drop_table_removes_dependent_rollups() {
        let (db, _, _) = test_db();
        seed_base(&db);
        db.create_rollup("usage_1h", "usage", HOUR, vec!["bytes".into()], vec![])
            .unwrap();
        db.drop_table("usage").unwrap();
        assert!(db.table("usage_1h").is_err());
        assert!(db.list_rollups().is_empty());
    }

    #[test]
    fn drop_rollup_clears_merge_gate() {
        let (db, _, _) = test_db();
        let base = seed_base(&db);
        db.create_rollup("usage_1h", "usage", HOUR, vec!["bytes".into()], vec![])
            .unwrap();
        assert!(base
            .rollup_source
            .load(std::sync::atomic::Ordering::Acquire));
        db.drop_rollup("usage_1h").unwrap();
        assert!(!base
            .rollup_source
            .load(std::sync::atomic::Ordering::Acquire));
        assert!(db.drop_rollup("usage").is_err());
    }

    #[test]
    fn watermark_tracks_unfolded_data() {
        let (db, _, _) = test_db();
        let base = seed_base(&db);
        // Nothing folded yet: watermark sits at the oldest unfolded row.
        assert_eq!(base.rollup_watermark(), START);
        db.create_rollup("usage_1h", "usage", HOUR, vec!["bytes".into()], vec![])
            .unwrap();
        // Everything on disk is folded and memory is empty.
        assert_eq!(base.rollup_watermark(), Micros::MAX);
        base.insert(vec![row(1, 1, START + 3 * HOUR, 1, 0.0, "x")])
            .unwrap();
        assert_eq!(base.rollup_watermark(), START + 3 * HOUR);
    }
}
