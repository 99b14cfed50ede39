//! Grouped aggregation: streaming aggregate states, and the fold of the
//! engine's pushdown scan units into them.
//!
//! [`scan_groups`] hands [`Table::pushdown_scan`] the query box and the
//! residual predicates, and the engine hands back units it has already
//! filtered, so nothing here evaluates a predicate. A
//! [`ScanUnit::Block`] is folded without building a [`Value`] per cell:
//!
//! * **Grouping by run detection** (the paper's §2.3.2 observation that
//!   the key sort order does the grouping). The selected rows of a block
//!   are in key order, so rows of one group are adjacent far more often
//!   than not: each row's group tuple is compared with the open run's —
//!   `TIME_BUCKET` as a `[start, start + width)` range test, plain
//!   columns by value against the run's first row — and the group map is
//!   probed once per run, not once per row.
//! * **Typed kernels.** Each aggregate folds a run straight off the
//!   column's typed slice, resolving the slice's type once per run.
//!
//! Rows reach each group in scan order either way, so a block answers
//! exactly as its materialized rows would, float summation order
//! included. [`ScanUnit::Rows`] (memtablets and schema-lagging tablets)
//! takes the row-at-a-time path through the same states.

use crate::ast::{AggFunc, CmpOp};
use crate::plan::{cmp_values, Residual};
use littletable_core::block::{Block, ColumnSlice};
use littletable_core::error::{Error, Result};
use littletable_core::keyenc;
use littletable_core::query::Query;
use littletable_core::rollup::{bucket_of, distinct_bytes, distinct_bytes_at};
use littletable_core::table::{
    ColumnPredicate, PredOp, PushdownRequest, ScanUnit, Selection, Table,
};
use littletable_core::value::Value;
use littletable_hll::HyperLogLog;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

/// One resolved GROUP BY expression: a column, optionally rounded down
/// to `bucket`-micro boundaries (TIME_BUCKET).
pub(crate) struct GroupSpec {
    pub(crate) col: usize,
    pub(crate) bucket: Option<i64>,
}

impl GroupSpec {
    /// The group value this expression yields for a row value.
    fn value(&self, v: &Value) -> Result<Value> {
        match self.bucket {
            None => Ok(v.clone()),
            Some(w) => Ok(Value::Timestamp(bucket_of(v.as_timestamp()?, w))),
        }
    }
}

/// One resolved aggregate in the SELECT list.
pub(crate) struct AggSpec {
    pub(crate) func: AggFunc,
    pub(crate) col: Option<usize>,
    pub(crate) distinct: bool,
}

/// Aggregation in progress: every group's values and one state per
/// aggregate. Groups are found by the memcmp encoding of their values —
/// a hash probe, since a scan asks once per run — and come out sorted by
/// it, which is key-compatible order.
pub(crate) struct Groups<'a> {
    group_specs: &'a [GroupSpec],
    agg_specs: &'a [AggSpec],
    /// Encoded group values to the group's position in `vals`/`states`.
    index: HashMap<Vec<u8>, usize>,
    /// `group_specs.len()` values per group, in group position order.
    vals: Vec<Value>,
    /// `agg_specs.len()` states per group, likewise.
    states: Vec<AggState>,
}

impl<'a> Groups<'a> {
    pub(crate) fn new(group_specs: &'a [GroupSpec], agg_specs: &'a [AggSpec]) -> Self {
        Groups {
            group_specs,
            agg_specs,
            index: HashMap::new(),
            vals: Vec::new(),
            states: Vec::new(),
        }
    }

    /// The aggregate states of the group whose values encode to `key`.
    /// A group not seen before is created with the values `vals` yields
    /// (one per GROUP BY expression, in order).
    pub(crate) fn states<I: IntoIterator<Item = Value>>(
        &mut self,
        key: &[u8],
        vals: impl FnOnce() -> I,
    ) -> &mut [AggState] {
        let group = match self.index.get(key) {
            Some(&group) => group,
            None => {
                let group = self.index.len();
                self.index.insert(key.to_vec(), group);
                self.vals.extend(vals());
                debug_assert_eq!(self.vals.len(), (group + 1) * self.group_specs.len());
                self.states.extend(self.agg_specs.iter().map(AggState::new));
                group
            }
        };
        let n = self.agg_specs.len();
        &mut self.states[group * n..(group + 1) * n]
    }

    /// Every group's values and states, in the order of the encoded
    /// values.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = (&[Value], &[AggState])> {
        let mut order: Vec<(&[u8], usize)> = self
            .index
            .iter()
            .map(|(key, &group)| (key.as_slice(), group))
            .collect();
        order.sort_unstable();
        let (nv, ns) = (self.group_specs.len(), self.agg_specs.len());
        order.into_iter().map(move |(_, g)| {
            (
                &self.vals[g * nv..(g + 1) * nv],
                &self.states[g * ns..(g + 1) * ns],
            )
        })
    }
}

/// Lowers a residual WHERE conjunct to an engine pushdown predicate.
/// The two evaluate identically (same `cmp_values` semantics), which is
/// what lets the engine's zone maps prune blocks for them soundly.
fn to_predicate(r: &Residual) -> ColumnPredicate {
    ColumnPredicate {
        col: r.col,
        op: match r.op {
            CmpOp::Eq => PredOp::Eq,
            CmpOp::Ne => PredOp::Ne,
            CmpOp::Lt => PredOp::Lt,
            CmpOp::Le => PredOp::Le,
            CmpOp::Gt => PredOp::Gt,
            CmpOp::Ge => PredOp::Ge,
        },
        value: r.value.clone(),
    }
}

/// Aggregates base-table rows matching `query` and `residual` into
/// `groups` via the engine's columnar pushdown: footer stats where they
/// suffice, typed column slices for every other flushed block,
/// materialized rows only for memtablets and schema-lagging tablets.
pub(crate) fn scan_groups(
    t: &Table,
    query: Query,
    residual: &[Residual],
    groups: &mut Groups,
) -> Result<()> {
    let (group_specs, agg_specs) = (groups.group_specs, groups.agg_specs);
    // COUNT/MIN/MAX over an ungrouped scan can be answered from
    // footer statistics alone; SUM/AVG/DISTINCT (and any GROUP BY)
    // must see the values.
    let stats_cols: Option<Vec<usize>> = if group_specs.is_empty() {
        let mut cols = Vec::new();
        let mut ok = true;
        for a in agg_specs {
            match (a.func, a.col, a.distinct) {
                (_, _, true) => ok = false,
                (AggFunc::Count, _, _) => {}
                (AggFunc::Min | AggFunc::Max, Some(i), _) => cols.push(i),
                _ => ok = false,
            }
        }
        ok.then_some(cols)
    } else {
        None
    };
    let req = PushdownRequest {
        query,
        predicates: residual.iter().map(to_predicate).collect(),
        stats_cols,
    };
    t.pushdown_scan(&req, &mut |unit| {
        match unit {
            ScanUnit::Stats { rows, zones } => {
                // Only issued when group_specs is empty: one group.
                let states = groups.states(&[], Vec::new);
                for (state, a) in states.iter_mut().zip(agg_specs) {
                    state.update_stats(rows, a.col.and_then(|c| zones[c].as_ref()))?;
                }
            }
            ScanUnit::Block { block, sel } => fold_block(&block, &sel, groups)?,
            ScanUnit::Rows(rows) => {
                for row in rows {
                    let mut key = Vec::new();
                    let mut vals = Vec::with_capacity(group_specs.len());
                    for spec in group_specs {
                        let v = spec.value(&row.values[spec.col])?;
                        keyenc::encode_component(&mut key, &v)?;
                        vals.push(v);
                    }
                    let states = groups.states(&key, || vals);
                    for (state, a) in states.iter_mut().zip(agg_specs) {
                        state.update(a.col.map(|c| &row.values[c]))?;
                    }
                }
            }
        }
        Ok(())
    })
}

/// One GROUP BY expression over a block's column slice.
enum GroupCol<'a> {
    /// `TIME_BUCKET(ts, width)`; `start` is the open run's bucket.
    Bucket {
        ts: &'a [i64],
        width: i64,
        start: i64,
    },
    /// A plain column.
    Column(&'a ColumnSlice),
}

impl GroupCol<'_> {
    /// Opens a run at row `first`.
    fn open(&mut self, first: usize) {
        if let GroupCol::Bucket { ts, width, start } = self {
            *start = bucket_of(ts[first], *width);
        }
    }

    /// Whether `row` has the group value of the run opened at `first`.
    fn continues(&self, first: usize, row: usize) -> bool {
        match self {
            GroupCol::Bucket { ts, width, start } => {
                ts[row] >= *start && (ts[row].wrapping_sub(*start) as u64) < *width as u64
            }
            GroupCol::Column(col) => match col {
                ColumnSlice::I32(v) => v[row] == v[first],
                ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => v[row] == v[first],
                ColumnSlice::Str(v) => v[row] == v[first],
                ColumnSlice::Blob(v) => v[row] == v[first],
                ColumnSlice::F64(v) => v[row].to_bits() == v[first].to_bits(),
            },
        }
    }

    /// Appends the memcmp encoding of the open run's group value.
    fn encode(&self, first: usize, key: &mut Vec<u8>) -> Result<()> {
        match self {
            GroupCol::Bucket { start, .. } => keyenc::encode_int(key, *start),
            GroupCol::Column(col) => match col {
                ColumnSlice::I32(v) => keyenc::encode_int(key, v[first] as i64),
                ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
                    keyenc::encode_int(key, v[first])
                }
                ColumnSlice::Str(v) => keyenc::encode_bytes(key, v.bytes(first)),
                ColumnSlice::Blob(v) => keyenc::encode_bytes(key, v.bytes(first)),
                ColumnSlice::F64(_) => {
                    return Err(Error::invalid("double values cannot be key components"))
                }
            },
        }
        Ok(())
    }

    /// The open run's group value.
    fn value(&self, first: usize) -> Value {
        match self {
            GroupCol::Bucket { start, .. } => Value::Timestamp(*start),
            GroupCol::Column(col) => col.value(first),
        }
    }
}

/// Folds the selected rows of one block into `groups`: splits
/// the selection into runs of equal group tuple, finds each run's group
/// once, and has every aggregate fold the run off its typed slice.
fn fold_block(block: &Block, sel: &Selection, groups: &mut Groups) -> Result<()> {
    let mut group_cols = groups
        .group_specs
        .iter()
        .map(|g| match (block.column(g.col), g.bucket) {
            (ColumnSlice::Timestamp(ts), Some(width)) => Ok(GroupCol::Bucket {
                ts,
                width,
                start: 0,
            }),
            (_, Some(_)) => Err(Error::invalid("TIME_BUCKET requires a TIMESTAMP column")),
            (col, None) => Ok(GroupCol::Column(col)),
        })
        .collect::<Result<Vec<_>>>()?;
    let agg_cols: Vec<Option<&ColumnSlice>> = groups
        .agg_specs
        .iter()
        .map(|a| a.col.map(|c| block.column(c)))
        .collect();
    let mut key = Vec::new();
    let mut start = 0;
    while start < sel.len() {
        let first = sel.row(start);
        let mut end = start + 1;
        key.clear();
        for g in &mut group_cols {
            g.open(first);
            g.encode(first, &mut key)?;
        }
        while end < sel.len() && group_cols.iter().all(|g| g.continues(first, sel.row(end))) {
            end += 1;
        }
        let states = groups.states(&key, || group_cols.iter().map(|g| g.value(first)));
        for (state, col) in states.iter_mut().zip(&agg_cols) {
            state.fold(*col, sel, start..end)?;
        }
        start = end;
    }
    Ok(())
}

/// SUM's accumulator: integral until it meets a double or leaves the
/// int64 range, a double from then on.
#[derive(Debug)]
pub(crate) enum Sum {
    Int(i64),
    Float(f64),
}

impl Sum {
    fn add_int(&mut self, x: i64) {
        match self {
            Sum::Int(acc) => match acc.checked_add(x) {
                Some(sum) => *acc = sum,
                None => *self = Sum::Float(*acc as f64 + x as f64),
            },
            Sum::Float(acc) => *acc += x as f64,
        }
    }

    fn add_float(&mut self, x: f64) {
        match self {
            Sum::Int(acc) => *self = Sum::Float(*acc as f64 + x),
            Sum::Float(acc) => *acc += x,
        }
    }
}

/// Streaming aggregate state.
#[derive(Debug)]
pub(crate) enum AggState {
    Count(u64),
    Sum(Sum),
    /// MIN (`Ordering::Less`) or MAX (`Ordering::Greater`): the value
    /// held is replaced by one that compares so against it.
    Extreme(Ordering, Option<Value>),
    Avg(f64, u64),
    Distinct(HyperLogLog),
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_blob(v: &Value) -> Option<&[u8]> {
    match v {
        Value::Blob(b) => Some(b),
        _ => None,
    }
}

/// The row of a run whose value replaces the one a MIN/MAX state holds,
/// if any does: the row path's "replace when strictly better, in scan
/// order" fold, over typed values. `held` views the state's value in the
/// slice's type; a value of another family compares with nothing, and
/// stays.
fn winner<'a, T: PartialOrd + Copy>(
    cur: &'a Option<Value>,
    held: impl Fn(&'a Value) -> Option<T>,
    want: Ordering,
    sel: &Selection,
    span: Range<usize>,
    at: impl Fn(usize) -> T,
) -> Option<usize> {
    let mut best = match cur {
        None => None,
        Some(v) => Some(held(v)?),
    };
    let mut row = None;
    sel.for_each_in(span, |i| {
        let x = at(i);
        if best.is_none_or(|b| x.partial_cmp(&b) == Some(want)) {
            best = Some(x);
            row = Some(i);
        }
    });
    row
}

impl AggState {
    fn new(spec: &AggSpec) -> AggState {
        if spec.distinct {
            return AggState::Distinct(HyperLogLog::default_precision());
        }
        match spec.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(Sum::Int(0)),
            AggFunc::Min => AggState::Extreme(Ordering::Less, None),
            AggFunc::Max => AggState::Extreme(Ordering::Greater, None),
            AggFunc::Avg => AggState::Avg(0.0, 0),
        }
    }

    /// Folds one row's value.
    pub(crate) fn update(&mut self, value: Option<&Value>) -> Result<()> {
        let need =
            |what: &str| value.ok_or_else(|| Error::invalid(format!("{what} requires a column")));
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(sum) => match need("SUM")? {
                Value::F64(x) => sum.add_float(*x),
                v => match v.as_int() {
                    Some(x) => sum.add_int(x),
                    None => return Err(Error::invalid(format!("SUM over non-numeric value {v}"))),
                },
            },
            AggState::Extreme(want, cur) => {
                let v = need("MIN/MAX")?;
                if cur.as_ref().is_none_or(|c| cmp_values(v, c) == Some(*want)) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Avg(acc, n) => {
                *acc += match need("AVG")? {
                    Value::F64(x) => *x,
                    v => match v.as_int() {
                        Some(x) => x as f64,
                        None => {
                            return Err(Error::invalid(format!("AVG over non-numeric value {v}")))
                        }
                    },
                };
                *n += 1;
            }
            AggState::Distinct(h) => h.add_bytes(&distinct_bytes(need("COUNT(DISTINCT)")?)),
        }
        Ok(())
    }

    /// Folds the rows at positions `span` of `sel` off the aggregated
    /// column's slice: what [`AggState::update`] would make of the same
    /// rows one by one, without a [`Value`] per cell.
    fn fold(
        &mut self,
        col: Option<&ColumnSlice>,
        sel: &Selection,
        span: Range<usize>,
    ) -> Result<()> {
        let need =
            |what: &str| col.ok_or_else(|| Error::invalid(format!("{what} requires a column")));
        let rows = span.len() as u64;
        match self {
            AggState::Count(n) => *n += rows,
            AggState::Sum(sum) => match need("SUM")? {
                ColumnSlice::I32(v) => sel.for_each_in(span, |i| sum.add_int(v[i] as i64)),
                ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
                    sel.for_each_in(span, |i| sum.add_int(v[i]))
                }
                ColumnSlice::F64(v) => sel.for_each_in(span, |i| sum.add_float(v[i])),
                ColumnSlice::Str(_) | ColumnSlice::Blob(_) => {
                    return Err(Error::invalid("SUM over a non-numeric column"))
                }
            },
            AggState::Extreme(want, cur) => {
                let (col, want) = (need("MIN/MAX")?, *want);
                let best = match col {
                    ColumnSlice::I32(v) => {
                        winner(cur, Value::as_int, want, sel, span, |i| v[i] as i64)
                    }
                    ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
                        winner(cur, Value::as_int, want, sel, span, |i| v[i])
                    }
                    ColumnSlice::F64(v) => winner(cur, as_f64, want, sel, span, |i| v[i]),
                    ColumnSlice::Str(v) => winner(cur, as_str, want, sel, span, |i| &v[i]),
                    ColumnSlice::Blob(v) => winner(cur, as_blob, want, sel, span, |i| &v[i]),
                };
                if let Some(row) = best {
                    *cur = Some(col.value(row));
                }
            }
            AggState::Avg(acc, n) => {
                match need("AVG")? {
                    ColumnSlice::I32(v) => sel.for_each_in(span, |i| *acc += v[i] as f64),
                    ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
                        sel.for_each_in(span, |i| *acc += v[i] as f64)
                    }
                    ColumnSlice::F64(v) => sel.for_each_in(span, |i| *acc += v[i]),
                    ColumnSlice::Str(_) | ColumnSlice::Blob(_) => {
                        return Err(Error::invalid("AVG over a non-numeric column"))
                    }
                }
                *n += rows;
            }
            AggState::Distinct(h) => {
                let col = need("COUNT(DISTINCT)")?;
                let mut bytes = Vec::new();
                sel.for_each_in(span, |i| {
                    distinct_bytes_at(col, i, &mut bytes);
                    h.add_bytes(&bytes);
                });
            }
        }
        Ok(())
    }

    /// Folds a whole block's footer statistics into the state: `rows`
    /// rows whose aggregated column spans `zone`. Only COUNT/MIN/MAX
    /// can do this — the scan never produces stats units otherwise.
    fn update_stats(&mut self, rows: u64, zone: Option<&(Value, Value)>) -> Result<()> {
        match self {
            AggState::Count(n) => *n += rows,
            AggState::Extreme(want, _) => {
                let (lo, hi) =
                    zone.ok_or_else(|| Error::invalid("stats scan unit without a zone map"))?;
                let v = if *want == Ordering::Less { lo } else { hi };
                self.update(Some(v))?;
            }
            _ => return Err(Error::invalid("aggregate cannot fold footer statistics")),
        }
        Ok(())
    }

    /// The aggregate's value; over no rows, COUNT is 0 and the others
    /// their zero.
    pub(crate) fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::I64(*n as i64),
            AggState::Sum(Sum::Int(acc)) => Value::I64(*acc),
            AggState::Sum(Sum::Float(acc)) => Value::F64(*acc),
            AggState::Extreme(_, v) => v.clone().unwrap_or(Value::I64(0)),
            AggState::Avg(acc, n) => {
                if *n == 0 {
                    Value::F64(0.0)
                } else {
                    Value::F64(acc / *n as f64)
                }
            }
            AggState::Distinct(h) => Value::I64(h.estimate().round() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(func: AggFunc, distinct: bool) -> AggSpec {
        AggSpec {
            func,
            col: Some(0),
            distinct,
        }
    }

    /// Equal to the bit; any NaN equals any NaN.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => {
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
            }
            _ => a == b,
        }
    }

    /// Folding a run off a typed slice is folding its rows one by one,
    /// for every aggregate over every slice type, from a fresh state and
    /// from states that already hold a value — of the slice's type, of
    /// another width of its family, and of another family altogether.
    #[test]
    fn fold_equals_row_at_a_time_update() {
        let slices = [
            ColumnSlice::I32(vec![5, -3, i32::MAX, -3, 0, 9]),
            ColumnSlice::I64(vec![i64::MAX, 4, i64::MAX, -7, i64::MIN, 1]),
            ColumnSlice::Timestamp(vec![10, 20, 20, 5, 40, 30]),
            ColumnSlice::F64(vec![f64::NAN, 1.5, -0.0, 0.0, f64::NAN, -2.25]),
            ColumnSlice::F64(vec![3.0, f64::INFINITY, 1e300, 1e300, -1.0, 0.5]),
            ColumnSlice::Str(["b", "a", "", "c", "a", "b"].into_iter().collect()),
            ColumnSlice::Blob(
                [&[1][..], &[], &[0, 255], &[1], &[9], &[]]
                    .into_iter()
                    .collect(),
            ),
        ];
        let selections = [
            Selection::Range(0..6),
            Selection::Range(2..5),
            Selection::Indices(vec![0, 2, 3, 5]),
            Selection::Indices(vec![4]),
        ];
        let held = [
            None,
            Some(Value::I32(7)),
            Some(Value::I64(-100)),
            Some(Value::F64(f64::NAN)),
            Some(Value::F64(0.25)),
            Some(Value::Str("aa".into())),
            Some(Value::Blob(vec![1])),
        ];
        let mut compared = 0;
        for col in &slices {
            for sel in &selections {
                for start in &held {
                    for (func, distinct) in [
                        (AggFunc::Count, false),
                        (AggFunc::Sum, false),
                        (AggFunc::Min, false),
                        (AggFunc::Max, false),
                        (AggFunc::Avg, false),
                        (AggFunc::Count, true),
                    ] {
                        let mut by_fold = AggState::new(&spec(func, distinct));
                        let mut by_row = AggState::new(&spec(func, distinct));
                        // Bring both to the same starting point.
                        if let Some(v) = start {
                            if by_fold.update(Some(v)).is_err() {
                                continue;
                            }
                            by_row.update(Some(v)).unwrap();
                        }
                        let folded = by_fold.fold(Some(col), sel, 0..sel.len());
                        let rowwise = sel
                            .iter()
                            .try_for_each(|i| by_row.update(Some(&col.value(i))));
                        assert_eq!(folded.is_ok(), rowwise.is_ok(), "{func:?} over {col:?}");
                        if folded.is_err() {
                            continue;
                        }
                        assert!(
                            same(&by_fold.finish(), &by_row.finish()),
                            "{func:?} (distinct: {distinct}) from {start:?} over {sel:?} of \
                             {col:?}: fold {by_fold:?}, rows {by_row:?}"
                        );
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 500, "{compared} comparisons");
    }

    #[test]
    fn groups_come_out_in_encoded_order_with_one_state_set_each() {
        let group_specs = [GroupSpec {
            col: 0,
            bucket: None,
        }];
        let agg_specs = [spec(AggFunc::Count, false), spec(AggFunc::Sum, false)];
        let mut groups = Groups::new(&group_specs, &agg_specs);
        for v in [5i64, -1, 5, 300, -1, 5] {
            let mut key = Vec::new();
            keyenc::encode_int(&mut key, v);
            let states = groups.states(&key, || [Value::I64(v)]);
            assert_eq!(states.len(), 2);
            states[0].update(None).unwrap();
            states[1].update(Some(&Value::I64(v))).unwrap();
        }
        let got: Vec<(Value, Value, Value)> = groups
            .sorted()
            .map(|(vals, states)| (vals[0].clone(), states[0].finish(), states[1].finish()))
            .collect();
        assert_eq!(
            got,
            vec![
                (Value::I64(-1), Value::I64(2), Value::I64(-2)),
                (Value::I64(5), Value::I64(3), Value::I64(15)),
                (Value::I64(300), Value::I64(1), Value::I64(300)),
            ]
        );
    }
}
