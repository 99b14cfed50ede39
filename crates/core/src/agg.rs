//! Grouped aggregation: the one aggregate fold in the tree.
//!
//! Everything that aggregates — an [`Aggregate`] that
//! [`crate::Db::aggregate`] answers from a base table, the same question
//! served off a rollup table's partials, and the maintenance pass that
//! writes those partials — runs `fold_block`
//! over [`ScanUnit::Block`]s into a `Groups`. `scan_groups` hands
//! [`Table::pushdown_scan`] the query box and the predicates, and the
//! engine hands back units it has already filtered, so nothing here
//! evaluates a predicate. A block is folded without building a
//! [`Value`] per cell:
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
//! Rows reach each group in scan order, so a block answers exactly as
//! its rows would one by one, float summation order included. Memtablets
//! and schema-lagging tablets arrive as blocks like any other.
//!
//! What a table's columns are to the groups is an `Input`: a base
//! table's rows feed each state by `AggState::fold`; a rollup table's
//! rows are *partial aggregates*, whose sums and extrema fold the same
//! way (the sum of `{v}_sum`, the least `{v}_min`) and whose row counts,
//! averages and distinct sketches merge instead.

use crate::block::{Block, ColumnSlice};
use crate::error::{Error, Result};
use crate::keyenc;
use crate::query::Query;
use crate::rollup::{bucket_of, distinct_bytes_at};
use crate::table::{cmp_values, ColumnPredicate, PushdownRequest, ScanUnit, Selection, Table};
use crate::value::Value;
use littletable_hll::HyperLogLog;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
}

/// One resolved GROUP BY expression: a column, optionally rounded down
/// to `bucket`-micro boundaries (TIME_BUCKET).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    /// Column index in the scanned table's schema.
    pub col: usize,
    /// `TIME_BUCKET` width in micros; `None` groups by the plain value.
    pub bucket: Option<i64>,
}

/// One resolved aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Which aggregate.
    pub func: AggFunc,
    /// Column index in the scanned table's schema; `None` is `COUNT(*)`.
    pub col: Option<usize>,
    /// `COUNT(DISTINCT col)`.
    pub distinct: bool,
}

/// A grouped aggregate over one table, as [`crate::Db::aggregate`] answers
/// it: the rows inside `query`'s box that pass every predicate, grouped
/// by `groups`, each group folded by `aggs`.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// The bounding box. `descending` and `limit` are ignored.
    pub query: Query,
    /// Conjunctive per-row filters below the box.
    pub predicates: Vec<ColumnPredicate>,
    /// The GROUP BY expressions; none makes one group of every row.
    pub groups: Vec<GroupSpec>,
    /// The aggregates, in answer order.
    pub aggs: Vec<AggSpec>,
    /// At most this many groups are answered, the first in group order.
    pub limit: Option<usize>,
}

/// An aggregate's answer: per group, its values then its finished
/// aggregates, in the order of the encoded group values. Shared with the
/// result cache.
pub type AggRows = Arc<Vec<Vec<Value>>>;

/// What the columns of one scanned table are to a query's groups and
/// aggregate states. The states are the query's; two inputs over the
/// same states (a rollup table's partials, then the base table's rows
/// at the window's ragged ends) differ in their column indices only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Input<'a> {
    /// The GROUP BY expressions, over the scanned table's columns.
    pub groups: &'a [GroupSpec],
    /// The aggregates, likewise, in state order.
    pub aggs: &'a [AggSpec],
    /// `Some(col)` when each scanned row is a partial aggregate of as
    /// many base rows as its int64 column `col` says.
    pub(crate) partial_rows: Option<usize>,
}

impl<'a> Input<'a> {
    /// The input of a table whose rows are the rows to aggregate.
    pub(crate) fn rows(groups: &'a [GroupSpec], aggs: &'a [AggSpec]) -> Self {
        Input {
            groups,
            aggs,
            partial_rows: None,
        }
    }
}

/// Aggregation in progress: every group's values and one state per
/// aggregate. Groups are found by the memcmp encoding of their values —
/// a hash probe, since a scan asks once per run — and come out sorted by
/// it, which is key-compatible order.
pub(crate) struct Groups<'a> {
    /// Values per group.
    n_vals: usize,
    /// What a new group's states are made from.
    aggs: &'a [AggSpec],
    /// Encoded group values to the group's position in `vals`/`states`.
    index: HashMap<Vec<u8>, usize>,
    /// `n_vals` values per group, in group position order.
    vals: Vec<Value>,
    /// `aggs.len()` states per group, likewise.
    states: Vec<AggState>,
}

impl<'a> Groups<'a> {
    /// No groups yet, for a query with `input`'s expressions.
    pub(crate) fn new(input: &Input<'a>) -> Self {
        Groups {
            n_vals: input.groups.len(),
            aggs: input.aggs,
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
                debug_assert_eq!(self.vals.len(), (group + 1) * self.n_vals);
                self.states.extend(self.aggs.iter().map(AggState::new));
                group
            }
        };
        let n = self.aggs.len();
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
        let (nv, ns) = (self.n_vals, self.aggs.len());
        order.into_iter().map(move |(_, g)| {
            (
                &self.vals[g * nv..(g + 1) * nv],
                &self.states[g * ns..(g + 1) * ns],
            )
        })
    }
}

/// Aggregates the rows of `t` inside `query` that pass `predicates`
/// into `groups` via the engine's columnar pushdown: footer statistics
/// where they suffice, typed column slices for every other block.
pub(crate) fn scan_groups(
    t: &Table,
    query: Query,
    predicates: &[ColumnPredicate],
    input: &Input,
    groups: &mut Groups,
) -> Result<()> {
    // COUNT/MIN/MAX over an ungrouped scan of rows can be answered from
    // footer statistics alone; SUM/AVG/DISTINCT, any GROUP BY and every
    // partial must see the values.
    let stats_cols: Option<Vec<usize>> = if input.groups.is_empty() && input.partial_rows.is_none()
    {
        let mut cols = Vec::new();
        let mut ok = true;
        for a in input.aggs {
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
        predicates: predicates.to_vec(),
        stats_cols,
    };
    t.pushdown_scan(&req, &mut |unit| match unit {
        ScanUnit::Stats { rows, zones } => {
            // Only issued when there is no GROUP BY: one group.
            let states = groups.states(&[], Vec::new);
            for (state, a) in states.iter_mut().zip(input.aggs) {
                state.update_stats(rows, a.col.and_then(|c| zones[c].as_ref()))?;
            }
            Ok(())
        }
        ScanUnit::Block { block, sel } => fold_block(&block, &sel, input, groups),
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
/// once, and has every aggregate fold (or, of partials, merge) the run
/// off its typed slice.
pub(crate) fn fold_block(
    block: &Block,
    sel: &Selection,
    input: &Input,
    groups: &mut Groups,
) -> Result<()> {
    let mut group_cols = input
        .groups
        .iter()
        .map(|g| match (block.column(g.col), g.bucket) {
            (_, Some(width)) if width <= 0 => Err(Error::invalid(format!(
                "TIME_BUCKET width must be positive, got {width}"
            ))),
            (ColumnSlice::Timestamp(ts), Some(width)) => Ok(GroupCol::Bucket {
                ts,
                width,
                start: 0,
            }),
            (_, Some(_)) => Err(Error::invalid("TIME_BUCKET requires a TIMESTAMP column")),
            (col, None) => Ok(GroupCol::Column(col)),
        })
        .collect::<Result<Vec<_>>>()?;
    let agg_cols: Vec<Option<&ColumnSlice>> = input
        .aggs
        .iter()
        .map(|a| a.col.map(|c| block.column(c)))
        .collect();
    let partial_rows = match input.partial_rows.map(|c| block.column(c)) {
        None => None,
        Some(ColumnSlice::I64(rows)) => Some(rows),
        Some(_) => return Err(Error::corrupt("bad rollup row count column")),
    };
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
            match partial_rows {
                None => state.fold(*col, sel, start..end)?,
                Some(rows) => state.merge(*col, rows, sel, start..end)?,
            }
        }
        start = end;
    }
    Ok(())
}

/// SUM's accumulator: integral until it meets a double or leaves the
/// int64 range, a double from then on.
#[derive(Debug)]
pub enum Sum {
    /// Every addend so far was integral and the total fits.
    Int(i64),
    /// A double was added, or the integral total left int64.
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
pub enum AggState {
    /// COUNT: rows seen.
    Count(u64),
    /// SUM.
    Sum(Sum),
    /// MIN (`Ordering::Less`) or MAX (`Ordering::Greater`): the value
    /// held is replaced by one that compares so against it.
    Extreme(Ordering, Option<Value>),
    /// AVG: the sum as a double, and the rows it is over.
    Avg(f64, u64),
    /// COUNT(DISTINCT): a sketch of the values seen.
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

    /// Folds the rows at positions `span` of `sel` off the aggregated
    /// column's slice: what folding the same rows one `Value` at a time
    /// would make of them, without a [`Value`] per cell.
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

    /// Merges the partial aggregates at positions `span` of `sel`: each
    /// stands for `rows[i]` base rows, and `col` holds, per partial, what
    /// this aggregate keeps of them — their sum for SUM and AVG, their
    /// least or greatest value for MIN and MAX, a serialized sketch of
    /// them for COUNT(DISTINCT). Sums and extrema of partials are sums
    /// and extrema of that column; the rest combine with the row counts.
    fn merge(
        &mut self,
        col: Option<&ColumnSlice>,
        rows: &[i64],
        sel: &Selection,
        span: Range<usize>,
    ) -> Result<()> {
        match self {
            AggState::Sum(_) | AggState::Extreme(..) => return self.fold(col, sel, span),
            AggState::Count(n) => sel.for_each_in(span, |i| *n += rows[i] as u64),
            AggState::Avg(acc, n) => {
                match col {
                    Some(ColumnSlice::I64(v)) => {
                        sel.for_each_in(span.clone(), |i| *acc += v[i] as f64)
                    }
                    Some(ColumnSlice::F64(v)) => sel.for_each_in(span.clone(), |i| *acc += v[i]),
                    _ => return Err(Error::corrupt("bad rollup sum column")),
                }
                sel.for_each_in(span, |i| *n += rows[i] as u64);
            }
            AggState::Distinct(h) => {
                let Some(ColumnSlice::Blob(sketches)) = col else {
                    return Err(Error::corrupt("bad rollup sketch column"));
                };
                let mut undecodable = false;
                sel.for_each_in(span, |i| match HyperLogLog::from_bytes(sketches.bytes(i)) {
                    Some(partial) if partial.precision() == h.precision() => h.merge(&partial),
                    _ => undecodable = true,
                });
                if undecodable {
                    return Err(Error::corrupt("undecodable rollup HLL sketch"));
                }
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
            AggState::Extreme(want, cur) => {
                let (lo, hi) =
                    zone.ok_or_else(|| Error::invalid("stats scan unit without a zone map"))?;
                let v = if *want == Ordering::Less { lo } else { hi };
                if cur.as_ref().is_none_or(|c| cmp_values(v, c) == Some(*want)) {
                    *cur = Some(v.clone());
                }
            }
            _ => return Err(Error::invalid("aggregate cannot fold footer statistics")),
        }
        Ok(())
    }

    /// The aggregate's value; over no rows, COUNT is 0 and the others
    /// their zero.
    pub fn finish(&self) -> Value {
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
    use crate::rollup::distinct_bytes;

    impl AggState {
        /// Folds one row's value: the reference the typed kernels are
        /// held to.
        fn update(&mut self, value: Option<&Value>) -> Result<()> {
            let need = |what: &str| {
                value.ok_or_else(|| Error::invalid(format!("{what} requires a column")))
            };
            match self {
                AggState::Count(n) => *n += 1,
                AggState::Sum(sum) => match need("SUM")? {
                    Value::F64(x) => sum.add_float(*x),
                    v => match v.as_int() {
                        Some(x) => sum.add_int(x),
                        None => {
                            return Err(Error::invalid(format!("SUM over non-numeric value {v}")))
                        }
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
                                return Err(Error::invalid(format!(
                                    "AVG over non-numeric value {v}"
                                )))
                            }
                        },
                    };
                    *n += 1;
                }
                AggState::Distinct(h) => h.add_bytes(&distinct_bytes(need("COUNT(DISTINCT)")?)),
            }
            Ok(())
        }
    }

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
        let mut groups = Groups::new(&Input::rows(&group_specs, &agg_specs));
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

    #[test]
    fn a_bucket_width_below_one_is_an_error_not_a_panic() {
        use crate::schema::{ColumnDef, Schema};
        use crate::value::ColumnType;
        use crate::{Db, Options};
        use littletable_vfs::{SimClock, SimVfs};

        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(SimClock::new(1_000)),
            Options::small_for_tests(),
        )
        .unwrap();
        let schema = Schema::new(vec![ColumnDef::new("ts", ColumnType::Timestamp)], &["ts"]);
        let t = db.create_table("t", schema.unwrap(), None).unwrap();
        t.insert(vec![vec![Value::Timestamp(500)]]).unwrap();
        for width in [0, -5] {
            let q = Aggregate {
                query: Query::all(),
                predicates: Vec::new(),
                groups: vec![GroupSpec {
                    col: 0,
                    bucket: Some(width),
                }],
                aggs: vec![AggSpec {
                    func: AggFunc::Count,
                    col: None,
                    distinct: false,
                }],
                limit: None,
            };
            let err = db.aggregate(&t, &q).unwrap_err();
            assert!(matches!(err, Error::Invalid(_)), "{width}: {err:?}");
        }
    }
}
