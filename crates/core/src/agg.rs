//! Grouped aggregation: the one aggregate fold in the tree.
//!
//! Everything that aggregates — an [`Aggregate`] that
//! [`crate::Db::aggregate`] answers from a base table, the same question
//! served off a rollup table's partials, and the maintenance pass that
//! writes those partials — runs `fold_block` over [`ScanUnit::Block`]s
//! into a `Groups`. `scan_groups` hands [`Table::pushdown_scan`] the
//! query box and the predicates, and the engine hands back units it has
//! already filtered. A block is folded in two passes, without building a
//! [`Value`] per cell:
//!
//! * **One group lookup per run** (the paper's §2.3.2 observation that
//!   the key sort order does the grouping). The first pass splits the
//!   selection into runs of equal group tuple and finds each run's group
//!   once: the group made right after the previous run's, and that one,
//!   are tried before the group map is probed, so on a panel by time
//!   bucket each device's runs walk the buckets the first device made.
//! * **Accumulator columns.** `Groups` holds one column per aggregate,
//!   a slot per group: counts, `Sum`s, `(sum, rows)` averages, extrema
//!   and sketches. The second pass has each aggregate in turn fold every
//!   run off its column's typed slice, the type resolved once per block.
//!
//! Every group's rows reach its slot in scan order, so a block answers
//! to the bit as its rows would one `Value` at a time: float sums in the
//! same order, a SUM that leaves int64 carrying on as a double, a
//! MIN/MAX keeping a held value of another family.
//!
//! What a table's columns are to the groups is an `Input`: a base
//! table's rows are folded; a rollup table's rows are *partial
//! aggregates*, whose sums and extrema fold the same way (the sum of
//! `{v}_sum`, the least `{v}_min`) and whose row counts, averages and
//! distinct sketches merge instead.

use crate::block::{Block, ColumnSlice};
use crate::error::{Error, Result};
use crate::keyenc;
use crate::query::Query;
use crate::rollup::{bucket_of, distinct_bytes_at};
use crate::stats::TableStats;
use crate::table::{cmp_values, ColumnPredicate, PushdownRequest, ScanUnit, Selection, Table};
use crate::util::hash_words;
use crate::value::Value;
use littletable_hll::HyperLogLog;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
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
/// accumulators. The accumulators are the query's; two inputs over the
/// same ones (a rollup table's partials, then the base table's rows at
/// the window's ragged ends) differ in their column indices only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Input<'a> {
    /// The GROUP BY expressions, over the scanned table's columns.
    pub groups: &'a [GroupSpec],
    /// The aggregates, likewise, in accumulator order.
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

/// Aggregation in progress: every group's values and, per aggregate, an
/// accumulator column with a slot per group. Groups are found by the
/// memcmp encoding of their values — a hash probe, at most once per run
/// — and come out sorted by it, which is key-compatible order.
pub(crate) struct Groups {
    /// Values per group.
    n_vals: usize,
    /// The group map, open-addressed and at most half full (512 slots
    /// at first, so a panel's groups rarely grow it): a slot holds a
    /// group's position plus one, or 0. Keys hash by [`hash_words`].
    slots: Vec<u32>,
    seed: u64,
    /// Every group's encoded values, back to back in position order:
    /// group `g`'s are `keys[ends[g]..ends[g + 1]]`.
    keys: Vec<u8>,
    ends: Vec<usize>,
    /// `n_vals` values per group, in position order.
    vals: Vec<Value>,
    /// One accumulator column per aggregate, in aggregate order.
    accs: Vec<Acc>,
    /// The group the last lookup found.
    last: usize,
    /// Lookups that probed the map.
    pub(crate) probes: u64,
}

impl Groups {
    /// No groups yet, for a query with `input`'s expressions.
    pub(crate) fn new(input: &Input) -> Self {
        Groups {
            n_vals: input.groups.len(),
            slots: vec![0; 512],
            seed: RandomState::new().hash_one(0u64),
            keys: Vec::new(),
            ends: vec![0],
            vals: Vec::new(),
            accs: input.aggs.iter().map(Acc::new).collect(),
            last: 0,
            probes: 0,
        }
    }

    fn key(&self, g: usize) -> &[u8] {
        &self.keys[self.ends[g]..self.ends[g + 1]]
    }

    /// The slot holding the group whose values encode to `key`, or the
    /// empty slot that group would take.
    fn slot(&self, key: &[u8]) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash_words(self.seed, key) as usize & mask;
        while self.slots[at] != 0 && self.key(self.slots[at] as usize - 1) != key {
            at = (at + 1) & mask;
        }
        at
    }

    /// The position of the group whose values encode to `key`. A group
    /// not seen before is created with the values `vals` yields (one per
    /// GROUP BY expression, in order). The group made after the last one
    /// found, and that one, are tried before the map is probed.
    pub(crate) fn group<I: IntoIterator<Item = Value>>(
        &mut self,
        key: &[u8],
        vals: impl FnOnce() -> I,
    ) -> usize {
        let made = self.ends.len() - 1;
        let mut near = [self.last + 1, self.last].into_iter();
        if let Some(g) = near.find(|&g| g < made && self.key(g) == key) {
            self.last = g;
            return g;
        }
        self.probes += 1;
        let at = self.slot(key);
        self.last = match self.slots[at].checked_sub(1) {
            Some(g) => g as usize,
            None => {
                self.slots[at] = made as u32 + 1;
                self.keys.extend_from_slice(key);
                self.ends.push(self.keys.len());
                self.vals.extend(vals());
                debug_assert_eq!(self.vals.len(), (made + 1) * self.n_vals);
                self.accs.iter_mut().for_each(Acc::push);
                if (made + 1) * 2 > self.slots.len() {
                    self.grow();
                }
                made
            }
        };
        self.last
    }

    /// Doubles the map and places every group again.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        for g in 0..self.ends.len() - 1 {
            let at = self.slot(self.key(g));
            self.slots[at] = g as u32 + 1;
        }
    }

    /// Every group's position and values, in the order of the encoded
    /// values.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = (usize, &[Value])> {
        // By each key's first eight bytes (zero-padded, big-endian), whole
        // keys breaking ties: memcmp order, without a memcmp per comparison.
        let head = |g| {
            let (key, mut word) = (self.key(g), [0u8; 8]);
            let n = key.len().min(8);
            word[..n].copy_from_slice(&key[..n]);
            (u64::from_be_bytes(word), g)
        };
        let mut order: Vec<(u64, usize)> = (0..self.ends.len() - 1).map(head).collect();
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| self.key(a.1).cmp(self.key(b.1))));
        let nv = self.n_vals;
        order
            .into_iter()
            .map(move |(_, g)| (g, &self.vals[g * nv..(g + 1) * nv]))
    }

    /// Group `g`'s finished aggregates, in aggregate order; with
    /// `sketches`, a COUNT(DISTINCT) as its sketch's bytes, the way a
    /// partial holds it.
    pub(crate) fn finished(&self, g: usize, sketches: bool) -> impl Iterator<Item = Value> + '_ {
        self.accs.iter().map(move |acc| acc.finish(g, sketches))
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
    let probes = groups.probes;
    t.pushdown_scan(&req, &mut |unit| match unit {
        ScanUnit::Stats { rows, zones } => {
            // Only issued when there is no GROUP BY: one group.
            let g = groups.group(&[], Vec::new);
            for (acc, a) in groups.accs.iter_mut().zip(input.aggs) {
                acc.fold_stats(g, rows, a.col.and_then(|c| zones[c].as_ref()))?;
            }
            Ok(())
        }
        ScanUnit::Block { block, sel } => fold_block(&block, &sel, input, groups),
    })?;
    TableStats::add(&t.stats().agg_group_probes, groups.probes - probes);
    Ok(())
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
    /// Where the run opened at row `first` ends for this expression: the
    /// first position of `span` whose row has another group value, or
    /// `span.end`.
    fn run_end(&self, sel: &Selection, first: usize, span: Range<usize>) -> usize {
        match self {
            GroupCol::Bucket { ts, width, start } => sel.find_in(span, |i| {
                ts[i] < *start || (ts[i].wrapping_sub(*start) as u64) >= *width as u64
            }),
            GroupCol::Column(col) => {
                sel.find_in(span, |i| col.value_ref(i) != col.value_ref(first))
            }
        }
    }

    /// Opens a run at row `first`: appends the memcmp encoding of its
    /// group value.
    fn open(&mut self, first: usize, key: &mut Vec<u8>) -> Result<()> {
        match self {
            GroupCol::Bucket { ts, width, start } => {
                *start = bucket_of(ts[first], *width);
                keyenc::encode_int(key, *start)
            }
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

/// Folds the selected rows of one block into `groups`, in two passes:
/// the first splits the selection into runs of equal group tuple and
/// finds each run's group once; the second has each aggregate in turn
/// fold (or, of partials, merge) every run into its accumulator column.
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
    let partial_rows = match input.partial_rows.map(|c| block.column(c)) {
        None => None,
        Some(ColumnSlice::I64(rows)) => Some(rows.as_slice()),
        Some(_) => return Err(Error::corrupt("bad rollup row count column")),
    };
    // Each run's group and span of selection positions.
    let (mut runs, mut key) = (Vec::with_capacity(sel.len()), Vec::new());
    let mut start = 0;
    while start < sel.len() {
        let first = sel.row(start);
        let mut end = sel.len();
        key.clear();
        for g in &mut group_cols {
            g.open(first, &mut key)?;
            end = g.run_end(sel, first, start + 1..end);
        }
        let group = groups.group(&key, || group_cols.iter().map(|g| g.value(first)));
        runs.push((group, start..end));
        start = end;
    }
    for (acc, a) in groups.accs.iter_mut().zip(input.aggs) {
        acc.fold(a.col.map(|c| block.column(c)), partial_rows, sel, &runs)?;
    }
    Ok(())
}

/// SUM's accumulator: integral until it meets a double or leaves the
/// int64 range, a double from then on.
#[derive(Debug, Clone, Copy)]
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

/// One aggregate's accumulator column: a slot per group, by position.
#[derive(Debug)]
enum Acc {
    /// COUNT: rows seen.
    Count(Vec<u64>),
    /// SUM.
    Sum(Vec<Sum>),
    /// AVG: the sum as a double, and the rows it is over.
    Avg(Vec<(f64, u64)>),
    /// MIN (`Ordering::Less`) or MAX (`Ordering::Greater`): the value
    /// held is replaced by one that compares so against it.
    Extreme(Ordering, Vec<Option<Value>>),
    /// COUNT(DISTINCT): a sketch of the values seen.
    Distinct(Vec<HyperLogLog>),
}

/// Calls `f` with each run's slot in `slots` and, in scan order, each of
/// the run's rows.
fn each<T>(
    slots: &mut [T],
    sel: &Selection,
    runs: &[(usize, Range<usize>)],
    mut f: impl FnMut(&mut T, usize),
) {
    match sel {
        Selection::Range(r) => {
            for (g, span) in runs {
                let slot = &mut slots[*g];
                (r.start + span.start..r.start + span.end).for_each(|i| f(slot, i));
            }
        }
        Selection::Indices(idx) => {
            for (g, span) in runs {
                let slot = &mut slots[*g];
                idx[span.clone()].iter().for_each(|&i| f(slot, i as usize));
            }
        }
    }
}

/// MIN/MAX over each run of a numeric column, the row path's "replace
/// when strictly better, in scan order" fold over typed values: the
/// value a group holds, seen as a `T` once per run (one of another
/// family is never replaced), then each row against the best so far. A
/// row that won is held, as `value` makes it.
fn extremes<T: PartialOrd + Copy>(
    held: &mut [Option<Value>],
    want: Ordering,
    sel: &Selection,
    runs: &[(usize, Range<usize>)],
    as_t: impl Fn(&Value) -> Option<T>,
    at: impl Fn(usize) -> T,
    value: impl Fn(T) -> Value,
) {
    for (g, span) in runs {
        let slot = &mut held[*g];
        let Some(mut best) = slot.as_ref().map_or(Some(None), |v| as_t(v).map(Some)) else {
            continue;
        };
        let mut won = false;
        sel.for_each_in(span.clone(), |i| {
            let x = at(i);
            if best.is_none_or(|b| x.partial_cmp(&b) == Some(want)) {
                (best, won) = (Some(x), true);
            }
        });
        if let (true, Some(x)) = (won, best) {
            *slot = Some(value(x));
        }
    }
}

/// [`extremes`] over a string or blob column, compared bytewise where
/// the rows lie: each row against the held value until one beats it (one
/// of another family never is), then against the best row so far.
fn byte_extremes<'c>(
    held: &mut [Option<Value>],
    want: Ordering,
    col: &ColumnSlice,
    sel: &Selection,
    runs: &[(usize, Range<usize>)],
    at: impl Fn(usize) -> &'c [u8],
) {
    let str = matches!(col, ColumnSlice::Str(_));
    for (g, span) in runs {
        let cur = match &held[*g] {
            Some(Value::Str(s)) if str => Some(Some(s.as_bytes())),
            Some(Value::Blob(b)) if !str => Some(Some(b.as_slice())),
            Some(_) => Some(None),
            None => None,
        };
        let mut best: Option<usize> = None;
        sel.for_each_in(span.clone(), |i| {
            let ord = match (best, cur) {
                (Some(b), _) => Some(at(i).cmp(at(b))),
                (None, Some(v)) => v.map(|v| at(i).cmp(v)),
                (None, None) => Some(want),
            };
            if ord == Some(want) {
                best = Some(i);
            }
        });
        if let Some(row) = best {
            held[*g] = Some(col.value(row));
        }
    }
}

impl Acc {
    fn new(spec: &AggSpec) -> Acc {
        if spec.distinct {
            return Acc::Distinct(Vec::new());
        }
        match spec.func {
            AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Sum => Acc::Sum(Vec::new()),
            AggFunc::Min => Acc::Extreme(Ordering::Less, Vec::new()),
            AggFunc::Max => Acc::Extreme(Ordering::Greater, Vec::new()),
            AggFunc::Avg => Acc::Avg(Vec::new()),
        }
    }

    /// Adds a new group's slot, at the aggregate's zero.
    fn push(&mut self) {
        match self {
            Acc::Count(n) => n.push(0),
            Acc::Sum(s) => s.push(Sum::Int(0)),
            Acc::Avg(a) => a.push((0.0, 0)),
            Acc::Extreme(_, v) => v.push(None),
            Acc::Distinct(h) => h.push(HyperLogLog::default_precision()),
        }
    }

    /// Folds each run of `runs` (a group and a span of positions of
    /// `sel`) into its group's slot off `col`, the aggregated column's
    /// slice, whose type is resolved once. With `partial_rows` the rows
    /// are partial aggregates of as many base rows each: COUNT and AVG
    /// add those counts and COUNT(DISTINCT) merges serialized sketches;
    /// SUM and MIN/MAX fold `{v}_sum`, `{v}_min`, `{v}_max` as rows.
    fn fold(
        &mut self,
        col: Option<&ColumnSlice>,
        partial_rows: Option<&[i64]>,
        sel: &Selection,
        runs: &[(usize, Range<usize>)],
    ) -> Result<()> {
        let need =
            |what: &str| col.ok_or_else(|| Error::invalid(format!("{what} requires a column")));
        match self {
            Acc::Count(counts) => match partial_rows {
                None => {
                    for (g, span) in runs {
                        counts[*g] += span.len() as u64;
                    }
                }
                Some(rows) => each(counts, sel, runs, |n, i| *n += rows[i] as u64),
            },
            Acc::Sum(sums) => match need("SUM")? {
                ColumnSlice::I32(v) => each(sums, sel, runs, |s, i| s.add_int(v[i] as i64)),
                ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
                    each(sums, sel, runs, |s, i| s.add_int(v[i]))
                }
                ColumnSlice::F64(v) => each(sums, sel, runs, |s, i| s.add_float(v[i])),
                ColumnSlice::Str(_) | ColumnSlice::Blob(_) => {
                    return Err(Error::invalid("SUM over a non-numeric column"))
                }
            },
            Acc::Avg(avgs) => {
                let col = need("AVG")?;
                if partial_rows.is_some()
                    && !matches!(col, ColumnSlice::I64(_) | ColumnSlice::F64(_))
                {
                    return Err(Error::corrupt("bad rollup sum column"));
                }
                match col {
                    ColumnSlice::I32(v) => each(avgs, sel, runs, |(acc, _), i| *acc += v[i] as f64),
                    ColumnSlice::I64(v) | ColumnSlice::Timestamp(v) => {
                        each(avgs, sel, runs, |(acc, _), i| *acc += v[i] as f64)
                    }
                    ColumnSlice::F64(v) => each(avgs, sel, runs, |(acc, _), i| *acc += v[i]),
                    _ => return Err(Error::invalid("AVG over a non-numeric column")),
                }
                match partial_rows {
                    None => {
                        for (g, span) in runs {
                            avgs[*g].1 += span.len() as u64;
                        }
                    }
                    Some(rows) => each(avgs, sel, runs, |(_, n), i| *n += rows[i] as u64),
                }
            }
            Acc::Extreme(want, held) => {
                let (col, want) = (need("MIN/MAX")?, *want);
                let (held, int) = (held.as_mut_slice(), Value::as_int);
                match col {
                    ColumnSlice::I32(v) => {
                        let value = |x| Value::I32(x as i32);
                        extremes(held, want, sel, runs, int, |i| v[i] as i64, value)
                    }
                    ColumnSlice::I64(v) => {
                        extremes(held, want, sel, runs, int, |i| v[i], Value::I64)
                    }
                    ColumnSlice::Timestamp(v) => {
                        extremes(held, want, sel, runs, int, |i| v[i], Value::Timestamp)
                    }
                    ColumnSlice::F64(v) => {
                        let float = |v: &Value| match v {
                            Value::F64(y) => Some(*y),
                            _ => None,
                        };
                        extremes(held, want, sel, runs, float, |i| v[i], Value::F64)
                    }
                    ColumnSlice::Str(v) => {
                        byte_extremes(held, want, col, sel, runs, |i| v.bytes(i))
                    }
                    ColumnSlice::Blob(v) => {
                        byte_extremes(held, want, col, sel, runs, |i| v.bytes(i))
                    }
                }
            }
            Acc::Distinct(sketches) => {
                let col = need("COUNT(DISTINCT)")?;
                if partial_rows.is_none() {
                    let mut bytes = Vec::new();
                    each(sketches, sel, runs, |h, i| {
                        distinct_bytes_at(col, i, &mut bytes);
                        h.add_bytes(&bytes);
                    });
                    return Ok(());
                }
                let ColumnSlice::Blob(partials) = col else {
                    return Err(Error::corrupt("bad rollup sketch column"));
                };
                let mut refused = None;
                each(sketches, sel, runs, |h, i| {
                    if let Err(e) = h.merge_bytes(partials.bytes(i)) {
                        refused = Some(e);
                    }
                });
                if let Some(e) = refused {
                    return Err(Error::corrupt(format!("rollup sketch column: {e}")));
                }
            }
        }
        Ok(())
    }

    /// Folds a whole block's footer statistics into group `g`'s slot:
    /// `rows` rows whose aggregated column spans `zone`. Only
    /// COUNT/MIN/MAX can do this — the scan never produces stats units
    /// otherwise.
    fn fold_stats(&mut self, g: usize, rows: u64, zone: Option<&(Value, Value)>) -> Result<()> {
        match self {
            Acc::Count(n) => n[g] += rows,
            Acc::Extreme(want, held) => {
                let (lo, hi) =
                    zone.ok_or_else(|| Error::invalid("stats scan unit without a zone map"))?;
                let (v, cur) = (if *want == Ordering::Less { lo } else { hi }, &mut held[g]);
                if cur.as_ref().is_none_or(|c| cmp_values(v, c) == Some(*want)) {
                    *cur = Some(v.clone());
                }
            }
            _ => return Err(Error::invalid("aggregate cannot fold footer statistics")),
        }
        Ok(())
    }

    /// Group `g`'s aggregate; over no rows, COUNT is 0 and the others
    /// their zero. With `sketch`, a COUNT(DISTINCT) is its sketch's bytes.
    fn finish(&self, g: usize, sketch: bool) -> Value {
        match self {
            Acc::Count(n) => Value::I64(n[g] as i64),
            Acc::Sum(s) => match s[g] {
                Sum::Int(acc) => Value::I64(acc),
                Sum::Float(acc) => Value::F64(acc),
            },
            Acc::Avg(a) => match a[g] {
                (_, 0) => Value::F64(0.0),
                (acc, n) => Value::F64(acc / n as f64),
            },
            Acc::Extreme(_, v) => v[g].clone().unwrap_or(Value::I64(0)),
            Acc::Distinct(h) if sketch => Value::Blob(h[g].to_bytes()),
            Acc::Distinct(h) => Value::I64(h[g].estimate().round() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollup::distinct_bytes;
    use std::collections::BTreeMap;

    /// A group's state for one aggregate, folded a run or a row at a
    /// time: the per-group fold the accumulator columns replaced, kept as
    /// the reference they are held to.
    #[derive(Debug)]
    enum AggState {
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
                    _ => return Err(Error::invalid("SUM over a non-numeric column")),
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
                        Some(ColumnSlice::F64(v)) => {
                            sel.for_each_in(span.clone(), |i| *acc += v[i])
                        }
                        _ => return Err(Error::corrupt("bad rollup sum column")),
                    }
                    sel.for_each_in(span, |i| *n += rows[i] as u64);
                }
                AggState::Distinct(h) => {
                    let Some(ColumnSlice::Blob(sketches)) = col else {
                        return Err(Error::corrupt("bad rollup sketch column"));
                    };
                    let mut refused = None;
                    sel.for_each_in(span, |i| {
                        if let Err(e) = h.merge_bytes(sketches.bytes(i)) {
                            refused = Some(e);
                        }
                    });
                    if let Some(e) = refused {
                        return Err(Error::corrupt(format!("rollup sketch column: {e}")));
                    }
                }
            }
            Ok(())
        }

        /// The aggregate's value; over no rows, COUNT is 0 and the others
        /// their zero.
        fn finish(&self) -> Value {
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

    /// A block of a group column `g`, a timestamp, the aggregated column
    /// `v`, and a partial's row count and sketch, at columns 0 to 4.
    fn block_of(g: &[i64], ts: &[i64], v: &ColumnSlice, sketches: &ColumnSlice) -> Block {
        use crate::schema::{ColumnDef, Schema};
        use crate::value::ColumnType;
        let schema = Schema::new(
            vec![
                ColumnDef::new("g", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::I64),
                ColumnDef::new("rows", ColumnType::I64),
                ColumnDef::new("sketch", ColumnType::Blob),
            ],
            &["g", "ts"],
        )
        .unwrap();
        let rows = (0..g.len() as i64).map(|i| 1 + i % 3).collect();
        let columns = vec![
            ColumnSlice::I64(g.to_vec()),
            ColumnSlice::Timestamp(ts.to_vec()),
            v.clone(),
            ColumnSlice::I64(rows),
            sketches.clone(),
        ];
        Block::from_columns(columns, g.len(), &schema)
    }

    /// Per group, in key order: its values and its finished aggregates.
    type Answer = Vec<(Vec<Value>, Vec<Value>)>;

    fn by_kernel(blocks: &[(&Block, &Selection)], input: &Input) -> Result<Answer> {
        let mut groups = Groups::new(input);
        for (block, sel) in blocks {
            fold_block(block, sel, input, &mut groups)?;
        }
        let finished = |g| groups.finished(g, false).collect();
        Ok(groups
            .sorted()
            .map(|(g, vals)| (vals.to_vec(), finished(g)))
            .collect())
    }

    /// The reference: group by group, every selected row folded in scan
    /// order through `AggState::update` — or, of partials, merged one
    /// row at a time.
    fn by_rows(blocks: &[(&Block, &Selection)], input: &Input) -> Result<Answer> {
        let mut groups: BTreeMap<Vec<u8>, (Vec<Value>, Vec<AggState>)> = BTreeMap::new();
        for (block, sel) in blocks {
            for i in sel.iter() {
                let (mut key, mut vals) = (Vec::new(), Vec::new());
                for g in input.groups {
                    let v = match (g.bucket, block.column(g.col).value(i)) {
                        (Some(w), Value::Timestamp(ts)) => Value::Timestamp(bucket_of(ts, w)),
                        (_, v) => v,
                    };
                    keyenc::encode_int(&mut key, v.as_int().unwrap());
                    vals.push(v);
                }
                let new = || (vals, input.aggs.iter().map(AggState::new).collect());
                let (_, states) = groups.entry(key).or_insert_with(new);
                for (state, a) in states.iter_mut().zip(input.aggs) {
                    let col = a.col.map(|c| block.column(c));
                    match input.partial_rows.map(|c| block.column(c)) {
                        None => state.update(col.map(|c| c.value(i)).as_ref())?,
                        Some(ColumnSlice::I64(rows)) => {
                            state.merge(col, rows, &Selection::Range(i..i + 1), 0..1)?
                        }
                        Some(rows) => panic!("row counts in {rows:?}"),
                    }
                }
            }
        }
        let finished = |states: Vec<AggState>| states.iter().map(AggState::finish).collect();
        Ok(groups
            .into_values()
            .map(|(vals, states)| (vals, finished(states)))
            .collect())
    }

    /// Folding whole blocks through the two-pass kernel answers, to the
    /// bit, what folding their rows one at a time into each group's own
    /// states does: for runs of one row, a group per row and one group
    /// for all rows; over every column type, NaN and ±0.0 doubles and
    /// int64 sums that leave int64 mid-run included; into groups that
    /// already hold values of the column's type, of another width and of
    /// another family; over ranges, index vectors and single rows; of
    /// rows and of partials with row counts and sketches.
    #[test]
    fn fold_block_equals_a_row_at_a_time_fold_group_by_group() {
        let ts = [-15, -1, 0, 10, 29, 30, 61, 62, 95];
        let group_cols = [
            [1, 2, 1, 2, 1, 2, 1, 2, 1],
            [0, 1, 2, 3, 4, 5, 6, 7, 8],
            [5; 9],
            [1, 1, 1, 2, 2, 3, 1, 1, 4],
        ];
        let values = [
            ColumnSlice::I32(vec![5, -3, i32::MAX, -3, 0, 9, i32::MIN, 7, 7]),
            ColumnSlice::I64(vec![
                i64::MAX,
                4,
                i64::MAX,
                -7,
                i64::MIN,
                1,
                3,
                i64::MAX,
                -1,
            ]),
            ColumnSlice::Timestamp(vec![10, 20, 20, 5, 40, 30, -8, 0, 11]),
            ColumnSlice::F64(vec![
                f64::NAN,
                1.5,
                -0.0,
                0.0,
                f64::NAN,
                -2.25,
                0.1,
                0.2,
                0.3,
            ]),
            ColumnSlice::F64(vec![3.0, 1e300, -1e300, 0.1, 0.2, 0.3, -0.0, 0.0, 0.7]),
            ColumnSlice::Str(
                ["b", "a", "", "c", "a", "b", "zz", "a", "b"]
                    .into_iter()
                    .collect(),
            ),
            ColumnSlice::Blob(
                [
                    &[1][..],
                    &[],
                    &[0, 255],
                    &[1],
                    &[9],
                    &[],
                    &[1, 0],
                    &[9],
                    &[0],
                ]
                .into_iter()
                .collect(),
            ),
        ];
        // What a priming block leaves each group holding.
        let held = [
            None,
            Some(ColumnSlice::I32((0..9).map(|i| 7 - 3 * i).collect())),
            Some(ColumnSlice::I64((0..9).map(|i| -100 + 40 * i).collect())),
            Some(ColumnSlice::F64(vec![
                f64::NAN,
                0.25,
                -0.0,
                1.0,
                2.5,
                0.0,
                -9.0,
                0.5,
                1e9,
            ])),
            Some(ColumnSlice::Str(["aa"; 9].into_iter().collect())),
            Some(ColumnSlice::Blob([&[1u8][..]; 9].into_iter().collect())),
        ];
        let sketches = ColumnSlice::Blob(
            (0..9u8)
                .map(|i| {
                    let mut h = HyperLogLog::default_precision();
                    (0..=i).for_each(|x| h.add_bytes(&[x % 4, i]));
                    h.to_bytes()
                })
                .collect::<Vec<_>>()
                .iter()
                .map(|b| b.as_slice())
                .collect(),
        );
        let selections = [
            Selection::Range(0..9),
            Selection::Range(2..7),
            Selection::Range(4..5),
            Selection::Indices(vec![0, 2, 3, 5, 8]),
            Selection::Indices(vec![6]),
        ];
        let by_g = GroupSpec {
            col: 0,
            bucket: None,
        };
        let by_bucket = GroupSpec {
            col: 1,
            bucket: Some(30),
        };
        let group_specs: [&[GroupSpec]; 4] = [&[], &[by_g], &[by_bucket], &[by_g, by_bucket]];
        let mut compared = 0;
        for g in &group_cols {
            for v in &values {
                let main = block_of(g, &ts, v, &sketches);
                for prime in &held {
                    let primed = prime.as_ref().map(|p| block_of(g, &ts, p, &sketches));
                    let all = Selection::Range(0..9);
                    for sel in &selections {
                        let mut blocks: Vec<(&Block, &Selection)> =
                            primed.iter().map(|p| (p, &all)).collect();
                        blocks.push((&main, sel));
                        for groups in group_specs {
                            for (func, distinct) in [
                                (AggFunc::Count, false),
                                (AggFunc::Sum, false),
                                (AggFunc::Min, false),
                                (AggFunc::Max, false),
                                (AggFunc::Avg, false),
                                (AggFunc::Count, true),
                            ] {
                                for partial in [false, true] {
                                    let col = if partial && distinct { 4 } else { 2 };
                                    let aggs = [
                                        AggSpec {
                                            func: AggFunc::Count,
                                            col: None,
                                            distinct: false,
                                        },
                                        AggSpec {
                                            func,
                                            col: Some(col),
                                            distinct,
                                        },
                                    ];
                                    let input = Input {
                                        groups,
                                        aggs: &aggs,
                                        partial_rows: partial.then_some(3),
                                    };
                                    let kernel = by_kernel(&blocks, &input);
                                    let rows = by_rows(&blocks, &input);
                                    let what = format!(
                                        "{func:?} (distinct {distinct}, partial {partial}) by \
                                         {groups:?} over {sel:?} of {v:?}, held {prime:?}"
                                    );
                                    assert_eq!(kernel.is_ok(), rows.is_ok(), "{what}");
                                    let (Ok(kernel), Ok(rows)) = (kernel, rows) else {
                                        continue;
                                    };
                                    assert_eq!(kernel.len(), rows.len(), "{what}");
                                    for ((kv, ka), (rv, ra)) in kernel.iter().zip(&rows) {
                                        assert_eq!(kv, rv, "{what}");
                                        assert!(
                                            ka.iter().zip(ra).all(|(a, b)| same(a, b)),
                                            "{what}: kernel {kernel:?}, rows {rows:?}"
                                        );
                                    }
                                    compared += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(compared > 10_000, "{compared} comparisons");
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
            let g = groups.group(&key, || [Value::I64(v)]);
            assert_eq!(groups.accs.len(), 2);
            let [Acc::Count(counts), Acc::Sum(sums)] = &mut groups.accs[..] else {
                panic!("{:?}", groups.accs);
            };
            counts[g] += 1;
            sums[g].add_int(v);
        }
        let got: Vec<(Value, Value, Value)> = groups
            .sorted()
            .map(|(g, vals)| {
                let mut finished = groups.finished(g, false);
                let mut next = || finished.next().unwrap();
                (vals[0].clone(), next(), next())
            })
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

    /// On a panel over 4 devices × 12 buckets, the group map is probed at
    /// most once per group plus once per block: a device's runs walk the
    /// buckets the previous device's made, in order, and each run finds
    /// its group by the in-order check. The panel's answers are the ones
    /// the rows make.
    #[test]
    fn group_probes_stay_within_groups_plus_blocks_on_a_cross_device_panel() {
        use crate::schema::{ColumnDef, Schema};
        use crate::table::PushdownRequest;
        use crate::value::ColumnType;
        use crate::{Db, Options};
        use littletable_vfs::{SimClock, SimVfs};

        const BUCKET: i64 = 300_000_000;
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(SimClock::new(1_000)),
            Options {
                block_size: 512,
                ..Options::small_for_tests()
            },
        )
        .unwrap();
        let schema = Schema::new(
            vec![
                ColumnDef::new("device", ColumnType::Str),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("bytes", ColumnType::I64),
            ],
            &["device", "ts"],
        );
        let t = db.create_table("usage", schema.unwrap(), None).unwrap();
        // (device, row of the device, bytes): 5 rows a bucket.
        let rows: Vec<(i64, i64, i64)> = (0..4)
            .flat_map(|d| (0..12 * 5).map(move |i| (d, i, d * 1000 + i * 7 % 31)))
            .collect();
        let values = |&(d, i, bytes): &(i64, i64, i64)| {
            let ts = (i / 5) * BUCKET + i % 5 * 1_000_000;
            vec![
                Value::Str(format!("dev-{d}")),
                Value::Timestamp(ts),
                Value::I64(bytes),
            ]
        };
        t.insert(rows.iter().map(values).collect()).unwrap();
        t.flush_all().unwrap();
        let mut blocks = 0;
        let req = PushdownRequest {
            query: Query::all(),
            predicates: Vec::new(),
            stats_cols: None,
        };
        t.pushdown_scan(&req, &mut |_| {
            blocks += 1;
            Ok(())
        })
        .unwrap();
        assert!(blocks > 4, "{blocks} blocks");
        let agg = |func, col| AggSpec {
            func,
            col,
            distinct: false,
        };
        let by_bucket = GroupSpec {
            col: 1,
            bucket: Some(BUCKET),
        };
        let by_device = GroupSpec {
            col: 0,
            bucket: None,
        };
        for (groups, n_groups) in [(vec![by_bucket], 12), (vec![by_device, by_bucket], 48)] {
            let q = Aggregate {
                query: Query::all(),
                predicates: Vec::new(),
                groups: groups.clone(),
                aggs: vec![
                    agg(AggFunc::Count, None),
                    agg(AggFunc::Sum, Some(2)),
                    agg(AggFunc::Max, Some(2)),
                    agg(AggFunc::Avg, Some(2)),
                ],
                limit: None,
            };
            let before = t.stats().snapshot().agg_group_probes;
            let got = db.aggregate(&t, &q).unwrap();
            let probes = t.stats().snapshot().agg_group_probes - before;
            assert!(probes <= n_groups + blocks, "{probes} probes");
            // The same answer from the rows.
            let mut want: BTreeMap<(i64, i64), Vec<i64>> = BTreeMap::new();
            for &(d, i, bytes) in &rows {
                let d = if groups.len() == 2 { d } else { 0 };
                want.entry((d, i / 5)).or_default().push(bytes);
            }
            assert_eq!(got.len(), n_groups as usize);
            for (row, ((d, b), bytes)) in got.iter().zip(&want) {
                let sum: i64 = bytes.iter().sum();
                let mut expect = vec![Value::Timestamp(b * BUCKET)];
                if groups.len() == 2 {
                    expect.insert(0, Value::Str(format!("dev-{d}")));
                }
                expect.extend([
                    Value::I64(bytes.len() as i64),
                    Value::I64(sum),
                    Value::I64(*bytes.iter().max().unwrap()),
                    Value::F64(sum as f64 / bytes.len() as f64),
                ]);
                assert_eq!(row, &expect);
            }
        }
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
