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
//! 2. fold each one's blocks into partial aggregates per
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
//! double-count them on the refold. The database's catalog publish, its
//! one writer, sets it from the rollup specs the catalog's tables hold.
//!
//! # Creating and dropping
//!
//! A rollup's spec lives in its table's descriptor. `Db::create_rollup`,
//! under the writer lock and the base's slot, creates the table (spec
//! saved, not attached), flushes the base, folds the marked tablets into
//! the new rollup alone and the rest into all, saves it attached, and
//! publishes it. A drop removes the named table's descriptor before its
//! rollups'. `Db::open` removes a rollup that is not attached, or whose
//! base is not a table. A maintenance pass reads rollups under the slot.
//!
//! # Serving
//!
//! Every row with `ts` below the base's *rollup watermark*
//! ([`crate::Table::rollup_watermark`]) is fully represented in the
//! rollup tables; `serve` answers an eligible grouped aggregate from
//! the rollup's whole buckets below the watermark and scans only the
//! window's ragged ends from the base, into the same `Groups`
//! (partial aggregates are additive).
//!
//! One function, `stat_columns`, says which aggregate of the base
//! each rollup column after `(dims…, chunk, ts)` holds. The schema, the
//! fold that writes partials and the serving path that reads them are
//! all derived from its list, and both the fold and the serving path
//! run [`crate::agg`]'s block fold.

use crate::agg::{fold_block, scan_groups, AggFunc, AggSpec, GroupSpec, Groups, Input};
use crate::block::ColumnSlice;
use crate::cursor::{RunCursor, Source, READ_RUN_BYTES};
use crate::db::Db;
use crate::error::{Error, Result};
use crate::keyenc::KeyRange;
use crate::query::Query;
use crate::schema::{ColumnDef, Schema};
use crate::stats::TableStats;
use crate::table::{ttl_horizon, ColumnPredicate, MergeSlot, Selection, Table};
use crate::value::{ColumnType, Value};
use littletable_vfs::Micros;
use std::sync::Arc;

/// The definition of one rollup: which base table it folds, at what
/// period, and which columns get sums/extrema and HLL sketches. The
/// rollup table's descriptor holds it ([`crate::descriptor`]).
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

/// The rollup's columns after `(dims…, chunk, ts)`, in schema order,
/// each with the aggregate over the base table's rows that a partial
/// holds in it: `rows`, then `{v}_sum`/`{v}_min`/`{v}_max` per value
/// column, then `{d}_hll` per distinct column. The one place that order
/// is decided — the schema, the fold and the serving path read it here.
fn stat_columns(base: &Schema, spec: &RollupSpec) -> Result<(Vec<ColumnDef>, Vec<AggSpec>)> {
    let index = |name: &String| {
        base.column_index(name)
            .ok_or_else(|| Error::invalid(format!("no column {name:?} in base table")))
    };
    let (mut defs, mut aggs) = (Vec::new(), Vec::new());
    let mut stat = |name: String, ty, func, col, distinct| {
        defs.push(ColumnDef::new(name, ty));
        aggs.push(AggSpec {
            func,
            col,
            distinct,
        });
    };
    stat("rows".into(), ColumnType::I64, AggFunc::Count, None, false);
    for name in &spec.value_cols {
        let col = index(name)?;
        let ty = stat_type(base.columns()[col].ty)?;
        stat(format!("{name}_sum"), ty, AggFunc::Sum, Some(col), false);
        stat(format!("{name}_min"), ty, AggFunc::Min, Some(col), false);
        stat(format!("{name}_max"), ty, AggFunc::Max, Some(col), false);
    }
    for name in &spec.distinct_cols {
        let col = index(name)?;
        if col == base.ts_index() {
            return Err(Error::invalid(
                "the timestamp column cannot be distinct-counted",
            ));
        }
        let ty = ColumnType::Blob;
        stat(format!("{name}_hll"), ty, AggFunc::Count, Some(col), true);
    }
    Ok((defs, aggs))
}

/// Derives the rollup table's schema from the base table's.
///
/// Layout: the base's non-timestamp key columns (the *dims*), then
/// `chunk int64` (source base-tablet id), `ts timestamp` (bucket start),
/// then the `stat_columns`. Primary key `(dims…, chunk, ts)`.
pub fn rollup_schema(base: &Schema, spec: &RollupSpec) -> Result<Schema> {
    if spec.period <= 0 {
        return Err(Error::invalid("rollup period must be positive"));
    }
    let key = base.key_indices();
    let mut columns: Vec<ColumnDef> = key[..key.len() - 1]
        .iter()
        .map(|&i| ColumnDef::new(base.columns()[i].name.clone(), base.columns()[i].ty))
        .collect();
    columns.push(ColumnDef::new("chunk", ColumnType::I64));
    columns.push(ColumnDef::new("ts", ColumnType::Timestamp));
    let key_names: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    columns.extend(stat_columns(base, spec)?.0);
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

/// Folds the base's on-disk tablets whose `rolled_up` mark is `rolled_up`
/// into every rollup of `targets` under the base's held slot, then marks
/// them. Returns how many it folded. A refold after a crash before the
/// mark has its partials rejected as duplicates (`chunk` is the tablet id).
pub(crate) fn fold_base(
    base: &Table,
    _slot: &MergeSlot<'_>,
    targets: &[(Arc<RollupSpec>, Arc<Table>)],
    rolled_up: bool,
) -> Result<usize> {
    let tablets = base.disk_tablets(rolled_up)?;
    if targets.is_empty() || tablets.is_empty() {
        return Ok(0);
    }
    let schema = base.schema();
    let key = schema.key_indices();
    // Each rollup is `GROUP BY dims…, TIME_BUCKET(ts, period)` with its
    // stat columns' aggregates, over the base's own columns.
    let mut plans = Vec::with_capacity(targets.len());
    for (spec, _) in targets {
        let mut group_specs: Vec<GroupSpec> = key
            .iter()
            .map(|&col| GroupSpec { col, bucket: None })
            .collect();
        group_specs[key.len() - 1].bucket = Some(spec.period);
        let (defs, aggs) = stat_columns(&schema, spec)?;
        plans.push((group_specs, defs, aggs));
    }
    let inputs: Vec<Input> = plans
        .iter()
        .map(|(group_specs, _, aggs)| Input::rows(group_specs, aggs))
        .collect();
    let mut folded: Vec<u64> = Vec::with_capacity(tablets.len());
    for h in &tablets {
        // One pass over the tablet's blocks feeds every rollup's groups.
        let mut groups: Vec<Groups> = inputs.iter().map(Groups::new).collect();
        let source = Source::tablet(h.reader.clone(), schema.clone(), KeyRange::all())
            .with_read_run(READ_RUN_BYTES);
        let mut cur = RunCursor::new(vec![source], false);
        while let Some(run) = cur.next_run()? {
            let sel = Selection::Range(run.rows);
            for (input, groups) in inputs.iter().zip(&mut groups) {
                fold_block(&run.block, &sel, input, groups)?;
            }
        }
        let probes = groups.iter().map(|g| g.probes).sum();
        TableStats::add(&base.stats().agg_group_probes, probes);
        // One partial row per group, in (dims, bucket) order.
        for (((spec, table), (_, defs, _)), groups) in targets.iter().zip(&plans).zip(&groups) {
            let mut rows: Vec<Vec<Value>> = Vec::new();
            for (g, vals) in groups.sorted() {
                let (dims, bucket) = vals.split_at(key.len() - 1);
                let mut row = dims.to_vec();
                row.push(Value::I64(h.meta.id as i64));
                row.push(bucket[0].clone());
                for (def, value) in defs.iter().zip(groups.finished(g, true)) {
                    row.push(partial_value(def.ty, value).ok_or_else(|| {
                        Error::invalid(format!(
                            "rollup {:?}: {:?} of base tablet {} does not fit in int64",
                            spec.name, def.name, h.meta.id
                        ))
                    })?);
                }
                rows.push(row);
            }
            if !rows.is_empty() {
                // Duplicates mean a previous fold of this tablet already
                // landed (crash before the rolled_up mark); rejection is
                // the idempotency we rely on.
                table.insert(rows)?;
            }
        }
        folded.push(h.meta.id);
    }
    // Make the partials durable before the rolled_up mark commits: the
    // mark is the point of no return, after which these tablets become
    // merge-eligible and lose their identity.
    for (_, table) in targets {
        table.flush_all()?;
    }
    base.mark_rolled_up(&folded)?;
    TableStats::add(&base.stats().rollup_folds, folded.len() as u64);
    Ok(folded.len())
}

/// What a finished aggregate puts in its stat column: a sketch's bytes
/// as they are, any other value at the column's type (the int family
/// widened to int64). `None` when an integer column's sum left int64 — a
/// partial cannot hold it, and the caller leaves the tablet to the base
/// scan.
fn partial_value(ty: ColumnType, value: Value) -> Option<Value> {
    match ty {
        ColumnType::I64 => value.as_int().map(Value::I64),
        _ => Some(value),
    }
}

/// Answers a grouped aggregate over `base` — `input`'s expressions, no
/// row filter beyond `query`'s box — from one of its rollups, into
/// `groups`. Returns `false`, with `groups` untouched, when no registered
/// rollup can: the caller runs [`scan_groups`] over the base instead.
///
/// The timestamp window splits three ways: the whole rollup buckets in
/// it come from the rollup's partials, and the ragged ends are scanned
/// from the base. Partial aggregates are additive, so a group
/// straddling the split merges correctly; its partials reach its states
/// tablet by tablet, as base rows do. Rollups are tried coarsest first
/// (fewer partials to merge).
pub(crate) fn serve(
    db: &Db,
    base: &Table,
    query: &Query,
    predicates: &[ColumnPredicate],
    input: &Input,
    groups: &mut Groups,
) -> Result<bool> {
    let schema = base.schema();
    let n_dims = schema.key_len() - 1;
    let (q_lo, q_hi) = query.ts_interval();
    // Predicates reference raw rows the rollup no longer has. Key bounds
    // on the dims transfer to the rollup's key verbatim; one that reaches
    // the timestamp component would name `chunk` there.
    if !predicates.is_empty()
        || [&query.key_min, &query.key_max]
            .iter()
            .any(|b| b.as_ref().is_some_and(|b| b.values.len() > n_dims))
    {
        return Ok(false);
    }
    // Buckets straddling the base's TTL horizon would resurrect expired
    // rows; the low-end scan re-applies the TTL filter row by row instead.
    let cutoff = ttl_horizon(base.ttl(), db.now());
    let watermark = base.rollup_watermark();
    let mut targets = db.rollup_targets_for(base);
    targets.sort_by_key(|(s, _)| std::cmp::Reverse(s.period));
    for (spec, rtable) in targets {
        let Some((group_specs, agg_specs)) = partial_exprs(&schema, &spec, input)? else {
            continue;
        };
        let Some((r_lo, r_hi)) = whole_buckets(spec.period, q_lo.max(cutoff), q_hi, watermark)
        else {
            continue;
        };
        let partials = Input {
            groups: &group_specs,
            aggs: &agg_specs,
            partial_rows: Some(n_dims + 2),
        };
        // The dims lead the rollup's key too: the same box, whole buckets.
        let whole = query
            .clone()
            .with_ts_min(r_lo, true)
            .with_ts_max(r_hi, false);
        scan_groups(&rtable, whole, &[], &partials, groups)?;
        // Ragged ends from the base table (skipped when empty, so a
        // fully covered window reads zero base-table blocks).
        if q_lo < r_lo {
            let low = query.clone().with_ts_max(r_lo - 1, true);
            scan_groups(base, low, &[], input, groups)?;
        }
        if r_hi <= q_hi {
            let high = query.clone().with_ts_min(r_hi, true);
            scan_groups(base, high, &[], input, groups)?;
        }
        TableStats::add(&base.stats().rollup_hits, 1);
        return Ok(true);
    }
    Ok(false)
}

/// The query's expressions over the rollup table's columns — dim `j` is
/// column `j`, the bucket start is the rollup's `ts`, the stat columns
/// follow `(dims…, chunk, ts)` — or `None` when the rollup cannot answer
/// one of them: every GROUP BY expression must be a dim column or a
/// `TIME_BUCKET` of the timestamp by a whole multiple of the period, and
/// every aggregate one the [`stat_columns`] hold (COUNT is `rows`, AVG
/// is `{v}_sum` over `rows`).
fn partial_exprs(
    base: &Schema,
    spec: &RollupSpec,
    input: &Input,
) -> Result<Option<(Vec<GroupSpec>, Vec<AggSpec>)>> {
    let key = base.key_indices();
    let n_dims = key.len() - 1;
    let mut group_specs = Vec::with_capacity(input.groups.len());
    for g in input.groups {
        let col = match g.bucket {
            Some(w) => {
                (g.col == key[n_dims] && w > 0 && w % spec.period == 0).then_some(n_dims + 1)
            }
            None => key[..n_dims].iter().position(|&k| k == g.col),
        };
        match col {
            Some(col) => group_specs.push(GroupSpec { col, ..*g }),
            None => return Ok(None),
        }
    }
    let (_, held) = stat_columns(base, spec)?;
    let mut agg_specs = Vec::with_capacity(input.aggs.len());
    for a in input.aggs {
        let held_as = match a.func {
            // The engine has no NULLs, so COUNT(col) == COUNT(*).
            AggFunc::Count if !a.distinct => held[0],
            AggFunc::Avg => AggSpec {
                func: AggFunc::Sum,
                ..*a
            },
            _ => *a,
        };
        match held.iter().position(|h| *h == held_as) {
            Some(at) => agg_specs.push(AggSpec {
                col: Some(n_dims + 2 + at),
                ..*a
            }),
            None => return Ok(None),
        }
    }
    Ok(Some((group_specs, agg_specs)))
}

/// The whole `period` buckets `[r_lo, r_hi)` inside the window
/// `[lo, hi]` and below the rollup watermark, if there is one.
fn whole_buckets(
    period: Micros,
    lo: Micros,
    hi: Micros,
    watermark: Micros,
) -> Option<(Micros, Micros)> {
    if lo > hi {
        return None;
    }
    // 128-bit arithmetic so bucket alignment cannot overflow at the
    // extremes of the timestamp range.
    let p = period as i128;
    let floor_p = |x: i128| -> i128 { x.div_euclid(p) * p };
    let ceil_p = |x: i128| -> i128 { -floor_p(-x) };
    let r_lo = ceil_p(lo as i128);
    let r_hi = floor_p(hi as i128 + 1).min(floor_p(watermark as i128));
    (r_lo < r_hi).then_some((r_lo as Micros, r_hi as Micros))
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
    use littletable_vfs::{join, SimClock, SimVfs, Vfs};

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
        assert!(base.disk_tablets(false).unwrap().is_empty());
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

    /// A flush group committed in memory and not yet saved is folded only
    /// once the fold's listing has saved it: `DESC` names the tablet before
    /// the rollup holds a partial of it, so no crash can take the tablet
    /// (and, with it, its id) away from under its partials.
    #[test]
    fn the_fold_sees_only_saved_tablets() {
        use crate::descriptor::{tablet_file_name, TableDescriptor};
        use littletable_vfs::{FaultKind, FaultPlan, FaultRule, OpKind};
        let (db, vfs, _) = test_db();
        let base = seed_base(&db);
        let r = db
            .create_rollup("usage_1h", "usage", HOUR, vec!["bytes".into()], vec![])
            .unwrap();
        let partials = r.query_all(&Query::all()).unwrap().len();
        let id = TableDescriptor::peek(&vfs, "usage").unwrap().next_tablet_id;
        let named = |id| {
            let desc = TableDescriptor::peek(&vfs, "usage").unwrap();
            desc.tablets.iter().any(|t| t.id == id)
        };
        // Enough rows of one group to seal a tablet by size, then its
        // group committed in memory only.
        let rows = (0..4000).map(|i| row(9, 9, START + 2 * HOUR + i * 500_000, 42, 0.0, "dave"));
        base.insert(rows.collect()).unwrap();
        assert!(base.flush_group().unwrap(), "no group was sealed");
        assert!(!named(id), "the group was saved at its commit");
        // The fold stops at its first read of the tablet: after the
        // listing, before any partial of it.
        let path = join("usage", &tablet_file_name(id));
        let read = FaultRule::new(FaultKind::Eio).on_ops(&[OpKind::Read]);
        vfs.set_fault_plan(FaultPlan::new().rule(read.on_path(path)));
        let targets = db.rollup_targets_for(&base);
        let (slot, ()) = base.merge_slot(|_| Some(())).unwrap().unwrap();
        fold_base(&base, &slot, &targets, false).unwrap_err();
        assert!(named(id), "the fold listed a tablet DESC does not name");
        assert_eq!(r.query_all(&Query::all()).unwrap().len(), partials);
        vfs.clear_fault_plan();
        assert_eq!(fold_base(&base, &slot, &targets, false).unwrap(), 1);
        assert_eq!(r.query_all(&Query::all()).unwrap().len(), partials + 1);
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

    /// `hops` is an int32 value column, so its `_sum/_min/_max` widen.
    fn hops_schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("net", ColumnType::I64),
                ColumnDef::new("dev", ColumnType::I32),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("hops", ColumnType::I32),
                ColumnDef::new("load", ColumnType::F64),
                ColumnDef::new("user", ColumnType::Str),
            ],
            &["net", "dev", "ts"],
        )
        .unwrap()
    }

    /// A database on `vfs` whose `hops` table has an hourly and a
    /// four-hourly rollup, created before the base's tablets (one per
    /// time period spanned) were loaded and folded by maintenance. Loads that do not sum exactly, so the
    /// partials depend on the order rows reach them in.
    fn rolled_hops(vfs: &SimVfs) -> Db {
        let db = Db::open(
            Arc::new(vfs.clone()),
            Arc::new(SimClock::new(START)),
            Options::small_for_tests(),
        )
        .unwrap();
        let t = db.create_table("hops", hops_schema(), None).unwrap();
        let values = vec!["hops".to_string(), "load".to_string()];
        db.create_rollup("hops_1h", "hops", HOUR, values, vec!["user".into()])
            .unwrap();
        db.create_rollup("hops_4h", "hops", 4 * HOUR, vec!["hops".into()], vec![])
            .unwrap();
        t.insert(hops_rows()).unwrap();
        t.flush_all().unwrap();
        assert!(db.maintain_table("hops").unwrap().tablets_folded > 1);
        db
    }

    /// 600 `hops` rows, 97 s apart, over three networks and two devices.
    fn hops_rows() -> Vec<Vec<Value>> {
        let mut x = 7u64;
        let mut rows = Vec::new();
        for i in 0..600i64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rows.push(vec![
                Value::I64(i % 3),
                Value::I32((i % 2) as i32),
                Value::Timestamp(START + i * 97_000_000),
                Value::I32((x >> 40) as i32 - (1 << 23)),
                Value::F64((x >> 50) as f64 * 0.1),
                Value::Str(format!("u{}", x % 17)),
            ]);
        }
        rows
    }

    /// `blob`'s sketch in the dense form, the only one written before the
    /// sparse form existed: the precision byte, then every register.
    fn dense_sketch(blob: &[u8]) -> Vec<u8> {
        let p = blob[0] & 0x7F;
        if blob[0] == p {
            return blob.to_vec();
        }
        let mut out = vec![0; 1 + (1 << p)];
        out[0] = p;
        for e in blob[1..].chunks_exact(3) {
            let word = u32::from_be_bytes([0, e[0], e[1], e[2]]);
            out[1 + (word >> 6) as usize] = (word & 0x3F) as u8;
        }
        assert_eq!(
            HyperLogLog::from_bytes(&out),
            HyperLogLog::from_bytes(blob),
            "the two forms hold the same registers"
        );
        out
    }

    /// `hops` loaded in two batches, each flushed and then folded into
    /// `hops_1h` by maintenance. Where `dense[i]`, batch `i`'s partials
    /// are in `hops_1h` first, taken from `from` (the same database folded
    /// with no such help) with their sketches in the dense form, so the
    /// fold's own inserts are rejected as duplicates: what a rollup folded
    /// before the sparse form existed holds.
    fn two_batch_hops(dense: [bool; 2], from: Option<&Db>) -> Db {
        let (db, _, _) = test_db();
        let t = db.create_table("hops", hops_schema(), None).unwrap();
        let values = vec!["hops".to_string(), "load".to_string()];
        db.create_rollup("hops_1h", "hops", HOUR, values, vec!["user".into()])
            .unwrap();
        let rollup = db.table("hops_1h").unwrap();
        for (batch, dense) in hops_rows().chunks(300).zip(dense) {
            t.insert(batch.to_vec()).unwrap();
            t.flush_all().unwrap();
            if dense {
                let chunks: Vec<Value> = t
                    .disk_tablets(false)
                    .unwrap()
                    .iter()
                    .map(|h| Value::I64(h.meta.id as i64))
                    .collect();
                let from = from.expect("a database to take the partials from");
                let partials: Vec<Vec<Value>> = from
                    .table("hops_1h")
                    .unwrap()
                    .query_all(&Query::all())
                    .unwrap()
                    .into_iter()
                    .filter(|row| chunks.contains(&row.values[2]))
                    .map(|row| {
                        let mut v = row.values;
                        let Some(Value::Blob(blob)) = v.last_mut() else {
                            panic!("no sketch in {v:?}");
                        };
                        *blob = dense_sketch(blob);
                        v
                    })
                    .collect();
                assert!(!partials.is_empty());
                rollup.insert(partials).unwrap();
            }
            assert!(db.maintain_table("hops").unwrap().tablets_folded > 0);
        }
        db
    }

    /// A rollup whose older partials hold dense sketches and newer ones
    /// sparse answers `COUNT(DISTINCT)` exactly as one that holds only
    /// dense sketches, and as one that holds only what the fold writes.
    #[test]
    fn dense_and_sparse_partials_answer_alike() {
        let folded = two_batch_hops([false, false], None);
        let all_dense = two_batch_hops([true, true], Some(&folded));
        let mixed = two_batch_hops([true, false], Some(&folded));
        let forms = |db: &Db| {
            let mut forms = [0, 0];
            for row in db
                .table("hops_1h")
                .unwrap()
                .query_all(&Query::all())
                .unwrap()
            {
                let Some(Value::Blob(blob)) = row.values.last() else {
                    panic!("no sketch");
                };
                forms[(blob[0] >> 7) as usize] += 1;
            }
            forms
        };
        // Every partial of 17 users or fewer is sparse as the fold writes it.
        assert!(matches!(forms(&folded), [0, n] if n > 0));
        assert!(matches!(forms(&all_dense), [n, 0] if n > 0));
        assert!(matches!(forms(&mixed), [d, s] if d > 0 && s > 0));
        let group_specs = [
            GroupSpec {
                col: 0,
                bucket: None,
            },
            GroupSpec {
                col: 2,
                bucket: Some(2 * HOUR),
            },
        ];
        let agg_specs = [AggSpec {
            func: AggFunc::Count,
            col: Some(5),
            distinct: true,
        }];
        let input = Input::rows(&group_specs, &agg_specs);
        let answer = |db: &Db| {
            let mut groups = Groups::new(&input);
            let base = db.table("hops").unwrap();
            assert!(serve(db, &base, &Query::all(), &[], &input, &mut groups).unwrap());
            let rows: Vec<(Vec<Value>, Value)> = groups
                .sorted()
                .map(|(g, vals)| (vals.to_vec(), groups.finished(g, false).next().unwrap()))
                .collect();
            rows
        };
        let want = answer(&all_dense);
        assert!(want.len() > 10, "{want:?}");
        assert_eq!(answer(&mixed), want);
        assert_eq!(answer(&folded), want);
    }

    #[test]
    fn fold_writes_the_partials_a_row_at_a_time_fold_would() {
        let db = rolled_hops(&SimVfs::instant());
        let base = db.table("hops").unwrap();
        // The base tablets partition time; a row's chunk is the one it is in.
        let tablets = base.disk_tablets(true).unwrap();
        let chunk_of = |ts: Micros| {
            let mut holding = tablets
                .iter()
                .filter(|h| (h.meta.min_ts..=h.meta.max_ts).contains(&ts));
            let chunk = holding.next().expect("a tablet holds the row").meta.id as i64;
            assert!(holding.next().is_none(), "tablets overlap in time");
            chunk
        };
        // (net, dev, chunk, bucket) to rows, hops sum/min/max, load
        // sum/min/max, users.
        type Naive = (i64, i64, i64, i64, f64, f64, f64, HyperLogLog);
        let mut naive: std::collections::BTreeMap<(i64, i64, i64, Micros), Naive> =
            Default::default();
        for row in base.query_all(&Query::all()).unwrap() {
            let v = &row.values;
            let (hops, Value::F64(load)) = (v[3].as_int().unwrap(), &v[4]) else {
                panic!("bad load {:?}", v[4]);
            };
            let ts = v[2].as_int().unwrap();
            let key = (
                v[0].as_int().unwrap(),
                v[1].as_int().unwrap(),
                chunk_of(ts),
                bucket_of(ts, HOUR),
            );
            let acc = naive.entry(key).or_insert_with(|| {
                let empty = HyperLogLog::default_precision();
                (0, 0, hops, hops, 0.0, *load, *load, empty)
            });
            acc.0 += 1;
            acc.1 += hops;
            acc.2 = acc.2.min(hops);
            acc.3 = acc.3.max(hops);
            acc.4 += load;
            acc.5 = acc.5.min(*load);
            acc.6 = acc.6.max(*load);
            acc.7.add_bytes(&distinct_bytes(&v[5]));
        }
        let expect: Vec<Vec<Value>> = naive
            .into_iter()
            .map(|((net, dev, chunk, bucket), acc)| {
                vec![
                    Value::I64(net),
                    Value::I32(dev as i32),
                    Value::I64(chunk),
                    Value::Timestamp(bucket),
                    Value::I64(acc.0),
                    Value::I64(acc.1),
                    Value::I64(acc.2),
                    Value::I64(acc.3),
                    Value::F64(acc.4),
                    Value::F64(acc.5),
                    Value::F64(acc.6),
                    Value::Blob(acc.7.to_bytes()),
                ]
            })
            .collect();
        let partials = db.table("hops_1h").unwrap();
        let got: Vec<Vec<Value>> = partials
            .query_all(&Query::all())
            .unwrap()
            .into_iter()
            .map(|r| r.values)
            .collect();
        assert!(got.len() > 30, "{} partials", got.len());
        assert_eq!(got, expect);
    }

    #[test]
    fn the_same_input_folds_to_byte_identical_rollup_tablets() {
        let (a, b) = (SimVfs::instant(), SimVfs::instant());
        let (db_a, db_b) = (rolled_hops(&a), rolled_hops(&b));
        let mut tablets = 0;
        for name in ["hops_1h", "hops_4h"] {
            let dir = db_a.table(name).unwrap().dir().to_string();
            assert_eq!(dir, db_b.table(name).unwrap().dir());
            let mut files = a.list_dir(&dir).unwrap();
            files.sort();
            let mut files_b = b.list_dir(&dir).unwrap();
            files_b.sort();
            assert_eq!(files, files_b);
            for file in files {
                let read = |vfs: &SimVfs| {
                    let f = vfs.open(&join(&dir, &file)).unwrap();
                    let mut data = vec![0u8; f.len().unwrap() as usize];
                    f.read_exact_at(0, &mut data).unwrap();
                    data
                };
                assert_eq!(read(&a), read(&b), "{dir}/{file}");
                tablets += crate::descriptor::parse_tablet_file_name(&file).is_some() as usize;
            }
        }
        assert!(tablets >= 2, "{tablets} rollup tablets compared");
    }

    #[test]
    fn a_bad_sketch_in_the_rollup_table_is_corruption_not_a_panic() {
        let group_specs = [GroupSpec {
            col: 0,
            bucket: None,
        }];
        let agg_specs = [AggSpec {
            func: AggFunc::Count,
            col: Some(5),
            distinct: true,
        }];
        let input = Input::rows(&group_specs, &agg_specs);
        // Neither a sketch at all, nor one of a precision the states
        // cannot be merged with.
        for sketch in [vec![1, 2, 3], [vec![4], vec![0; 16]].concat()] {
            let db = rolled_hops(&SimVfs::instant());
            let base = db.table("hops").unwrap();
            let mut groups = Groups::new(&input);
            assert!(serve(&db, &base, &Query::all(), &[], &input, &mut groups).unwrap());
            // The rollup table is an ordinary table: anyone can insert.
            let mut bad = db
                .table("hops_1h")
                .unwrap()
                .query_all(&Query::all())
                .unwrap()[0]
                .values
                .clone();
            bad[2] = Value::I64(999);
            bad[11] = Value::Blob(sketch);
            db.table("hops_1h").unwrap().insert(vec![bad]).unwrap();
            let mut groups = Groups::new(&input);
            let err = serve(&db, &base, &Query::all(), &[], &input, &mut groups).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        }
    }
}
