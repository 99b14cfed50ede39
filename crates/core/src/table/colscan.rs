//! Vectorized aggregate pushdown over on-disk tablets.
//!
//! [`Table::pushdown_scan`] starts from the same read view as
//! [`Table::query`] (`Table::view`: the snapshot, the key range, the
//! window raised to the TTL horizon, the overlapping tablets), and from
//! the same blocks: the span of each tablet's index that can hold a key
//! of the range ([`crate::tablet::TabletFooter::blocks_in`]). But
//! instead of merging rows in key order it hands the caller the
//! cheapest unit that still answers an aggregate exactly, per block —
//! the disk tablets' blocks first, then the memtablets':
//!
//! * [`ScanUnit::Stats`] — the block's footer statistics (row count and
//!   per-column zone maps). No block bytes are touched at all; enough
//!   for `COUNT`/`MIN`/`MAX` when the block lies wholly inside the
//!   bounding box and every predicate is decided by zones.
//! * [`ScanUnit::Block`] — a decoded block plus the
//!   [`Selection`] of its rows that are inside the key bounds, inside
//!   the time bounds, and pass every predicate. The engine evaluates all
//!   three over the typed column slices (key bounds by a binary search
//!   that encodes only the probed keys), so the caller filters nothing:
//!   it folds the selected rows straight off [`Block::column`]. No keys
//!   and no [`Row`](crate::row::Row)s are materialized, whether the
//!   block is wholly inside the box or merely cut by it.
//!
//! Memtablets and tablets written under an older schema version have no
//! zones to judge by (a memtablet has none; a lagging tablet's are the
//! old schema's), so their blocks — the memtablet's snapshot, the lagging
//! tablet's translated runs — are `Block` units with every bound and
//! predicate checked over the slices.
//!
//! Correctness leans on two engine invariants: primary keys are unique
//! across the whole table (insert-time uniqueness, §3.4.4), so no
//! dedup between tablets is needed; and zone maps are never stored over
//! NaN-containing float slices, so a zone proof is a proof about every
//! row. Units arrive in no particular global order — aggregates do not
//! care — and the scan honors neither `descending` nor `limit`.

use super::Table;
use crate::block::{Block, ColumnSlice};
use crate::cursor::RunCursor;
use crate::error::Result;
use crate::query::Query;
use crate::stats::TableStats;
use crate::value::Value;
use littletable_vfs::Micros;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Comparison operator of a pushed-down predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Compares two values for predicate evaluation: the integer family
/// (`I32`/`I64`/`Timestamp`) compares across widths, floats by
/// `partial_cmp` (`None` against NaN), strings and blobs bytewise.
/// `None` means incomparable — such pairs satisfy no operator.
pub fn cmp_values(a: &Value, b: &Value) -> Option<Ordering> {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        return Some(x.cmp(&y));
    }
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.partial_cmp(y),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Blob(x), Value::Blob(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// A per-row filter `row[col] op value`, pushed below the scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Column index in the (newest) schema.
    pub col: usize,
    /// Operator.
    pub op: PredOp,
    /// Comparison value.
    pub value: Value,
}

/// How a predicate relates to a block, judged from its zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZoneVerdict {
    /// Every row in the block satisfies the predicate.
    AllMatch,
    /// No row in the block satisfies the predicate.
    NoneMatch,
    /// The zone cannot decide; rows must be checked individually.
    Uncertain,
}

impl ColumnPredicate {
    /// Evaluates the predicate against one value. Incomparable pairs
    /// (including NaN on either side) match no operator. The SQL layer's
    /// plain SELECT filters its residual conjuncts with this.
    pub fn matches(&self, v: &Value) -> bool {
        match (self.op, cmp_values(v, &self.value)) {
            (PredOp::Eq, Some(Ordering::Equal)) => true,
            (PredOp::Ne, Some(o)) => o != Ordering::Equal,
            (PredOp::Lt, Some(Ordering::Less)) => true,
            (PredOp::Le, Some(Ordering::Less | Ordering::Equal)) => true,
            (PredOp::Gt, Some(Ordering::Greater)) => true,
            (PredOp::Ge, Some(Ordering::Greater | Ordering::Equal)) => true,
            _ => false,
        }
    }

    /// Judges the predicate against a block's `(min, max)` zone.
    /// `None` zones are always [`ZoneVerdict::Uncertain`] — absence of
    /// a zone (strings, NaN-containing floats, tablets older than zone
    /// maps) proves nothing.
    fn judge(&self, zone: Option<&(Value, Value)>) -> ZoneVerdict {
        let Some((lo, hi)) = zone else {
            return ZoneVerdict::Uncertain;
        };
        let (Some(v_lo), Some(v_hi)) = (cmp_values(&self.value, lo), cmp_values(&self.value, hi))
        else {
            return ZoneVerdict::Uncertain;
        };
        use Ordering::*;
        use ZoneVerdict::*;
        match self.op {
            PredOp::Eq => match (v_lo, v_hi) {
                (Less, _) | (_, Greater) => NoneMatch,
                (Equal, Equal) => AllMatch,
                _ => Uncertain,
            },
            PredOp::Ne => match (v_lo, v_hi) {
                (Less, _) | (_, Greater) => AllMatch,
                (Equal, Equal) => NoneMatch,
                _ => Uncertain,
            },
            // row < v: certain when max < v, impossible when min >= v.
            PredOp::Lt => match (v_lo, v_hi) {
                (_, Greater) => AllMatch,
                (Less | Equal, _) => NoneMatch,
                _ => Uncertain,
            },
            PredOp::Le => match (v_lo, v_hi) {
                (_, Greater | Equal) => AllMatch,
                (Less, _) => NoneMatch,
                _ => Uncertain,
            },
            PredOp::Gt => match (v_lo, v_hi) {
                (Less, _) => AllMatch,
                (_, Greater | Equal) => NoneMatch,
                _ => Uncertain,
            },
            PredOp::Ge => match (v_lo, v_hi) {
                (Less | Equal, _) => AllMatch,
                (_, Greater) => NoneMatch,
                _ => Uncertain,
            },
        }
    }

    /// Drops from `sel` the rows whose value in `col` fails the
    /// predicate: [`ColumnPredicate::matches`] over a typed slice, with
    /// the operator and the type family resolved once per block.
    fn filter(&self, col: &ColumnSlice, sel: &mut Selection) {
        let op = self.op;
        match (col, self.value.as_int(), &self.value) {
            (ColumnSlice::I32(v), Some(x), _) => sel.retain_cmp(|i| v[i] as i64, op, x),
            (ColumnSlice::I64(v) | ColumnSlice::Timestamp(v), Some(x), _) => {
                sel.retain_cmp(|i| v[i], op, x)
            }
            (ColumnSlice::F64(v), _, Value::F64(x)) => sel.retain_cmp(|i| v[i], op, *x),
            (ColumnSlice::Str(v), _, Value::Str(x)) => sel.retain_cmp(|i| &v[i], op, x.as_str()),
            (ColumnSlice::Blob(v), _, Value::Blob(x)) => {
                sel.retain_cmp(|i| &v[i], op, x.as_slice())
            }
            // Incomparable families satisfy no operator.
            _ => *sel = Selection::Range(0..0),
        }
    }
}

/// The rows of one block that a scan selected, in ascending row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every row of the interval: a block inside the bounding box, or
    /// one the bounds cut without leaving holes.
    Range(Range<usize>),
    /// Exactly these rows. Only built once a filter drops a row from
    /// the middle of the interval.
    Indices(Vec<u32>),
}

impl Selection {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::Range(r) => r.len(),
            Selection::Indices(idx) => idx.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row index of the `pos`-th selected row. Panics when out of range.
    pub fn row(&self, pos: usize) -> usize {
        match self {
            Selection::Range(r) => {
                assert!(pos < r.len(), "selection position out of range");
                r.start + pos
            }
            Selection::Indices(idx) => idx[pos] as usize,
        }
    }

    /// Calls `f` with the row index of each selected row at positions
    /// `span` — the inner loop of an aggregate kernel, with the
    /// selection's shape resolved once per call instead of per row.
    pub fn for_each_in(&self, span: Range<usize>, mut f: impl FnMut(usize)) {
        match self {
            Selection::Range(r) => {
                assert!(span.end <= r.len(), "selection span out of range");
                (r.start + span.start..r.start + span.end).for_each(f)
            }
            Selection::Indices(idx) => idx[span].iter().for_each(|&i| f(i as usize)),
        }
    }

    /// The selected row indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|pos| self.row(pos))
    }

    /// Keeps the rows for which `keep` holds. A range is first trimmed
    /// at both ends, so a bound that cuts a sorted run leaves a range;
    /// it becomes an index vector only if a row inside it fails.
    fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        match self {
            Selection::Range(r) => {
                while r.start < r.end && !keep(r.start) {
                    r.start += 1;
                }
                while r.start < r.end && !keep(r.end - 1) {
                    r.end -= 1;
                }
                if let Some(hole) = r.clone().find(|&i| !keep(i)) {
                    let mut idx: Vec<u32> = (r.start..hole).map(|i| i as u32).collect();
                    idx.extend((hole + 1..r.end).filter(|&i| keep(i)).map(|i| i as u32));
                    *self = Selection::Indices(idx);
                }
            }
            Selection::Indices(idx) => idx.retain(|&i| keep(i as usize)),
        }
    }

    /// Keeps the rows whose value `at(row)` satisfies `op value`.
    /// Incomparable pairs (NaN on either side) satisfy no operator, so
    /// `Ne` is "less or greater", not "not equal".
    fn retain_cmp<T: PartialOrd + Copy>(&mut self, at: impl Fn(usize) -> T, op: PredOp, value: T) {
        match op {
            PredOp::Eq => self.retain(|i| at(i) == value),
            PredOp::Ne => self.retain(|i| at(i) < value || at(i) > value),
            PredOp::Lt => self.retain(|i| at(i) < value),
            PredOp::Le => self.retain(|i| at(i) <= value),
            PredOp::Gt => self.retain(|i| at(i) > value),
            PredOp::Ge => self.retain(|i| at(i) >= value),
        }
    }
}

/// What [`Table::pushdown_scan`] should scan and how.
#[derive(Debug, Clone)]
pub struct PushdownRequest {
    /// The bounding box (key bounds × time bounds). `descending` and
    /// `limit` are ignored — aggregation consumes everything.
    pub query: Query,
    /// Conjunctive per-row filters below the box.
    pub predicates: Vec<ColumnPredicate>,
    /// `Some(cols)` allows [`ScanUnit::Stats`] answers, provided each
    /// listed column has a zone map in the block's index entry (the
    /// caller lists the columns its `MIN`/`MAX` aggregates read;
    /// `COUNT(*)` alone is an empty list). `None` forbids stats-only
    /// answers (needed for `SUM`/`AVG`, which must see the values).
    pub stats_cols: Option<Vec<usize>>,
}

/// One unit of aggregate input, in increasing order of cost.
#[derive(Debug)]
pub enum ScanUnit {
    /// Footer statistics for one block entirely inside the bounding box
    /// with every predicate proven true: `rows` rows whose per-column
    /// `(min, max)` zones are `zones`. The block's bytes were not read.
    Stats {
        /// Row count of the block.
        rows: u64,
        /// Per-schema-column zone maps of the block.
        zones: Vec<Option<(Value, Value)>>,
    },
    /// A decoded block and the rows of it that are inside the
    /// key and time bounds and pass every predicate; never empty. The
    /// caller reads the selected rows off [`Block::column`] slices and
    /// re-checks nothing.
    Block {
        /// The decoded block; column slices via [`Block::column`].
        block: Arc<Block>,
        /// The rows that count.
        sel: Selection,
    },
}

/// Emits the rows of `block[rows]` (already inside the key bounds) that
/// are inside `ts_bounds`, where no zone proved that already, and pass
/// `preds`, the predicates no zone decided — if any row is left.
fn emit_selected(
    block: Arc<Block>,
    rows: Range<usize>,
    ts_bounds: Option<(Micros, Micros)>,
    preds: &[&ColumnPredicate],
    emit: &mut dyn FnMut(ScanUnit) -> Result<()>,
) -> Result<()> {
    let mut sel = Selection::Range(rows);
    if let Some((lo, hi)) = ts_bounds {
        let ts = block.timestamps()?;
        sel.retain(|i| ts[i] >= lo && ts[i] <= hi);
    }
    for p in preds {
        p.filter(block.column(p.col), &mut sel);
    }
    if sel.is_empty() {
        return Ok(());
    }
    emit(ScanUnit::Block { block, sel })
}

impl Table {
    /// Streams aggregate-grade scan units for `req`'s bounding box to
    /// `emit`, cheapest unit first per block: footer stats where zones
    /// prove everything, otherwise the decoded block with the selection
    /// of rows that pass. Runs from one read view, like
    /// [`Table::query`].
    pub fn pushdown_scan(
        &self,
        req: &PushdownRequest,
        emit: &mut dyn FnMut(ScanUnit) -> Result<()>,
    ) -> Result<()> {
        TableStats::add(&self.stats.pushdown_scans, 1);
        let view = self.view(|s| req.query.key_range(s), req.query.ts_interval())?;
        let (schema, range, ts_lo, ts_hi) = (&view.schema, &view.range, view.lo, view.hi);
        let ts_index = schema.ts_index();
        let ts_bounds = Some((ts_lo, ts_hi));
        let every: Vec<&ColumnPredicate> = req.predicates.iter().collect();
        let mut pruned = 0u64;
        let mut uncertain: Vec<&ColumnPredicate> = Vec::new();
        for h in view.disk() {
            let footer = h.reader.footer()?;
            if footer.schema.version() != schema.version() {
                // Schema-lagging tablet: the run cursor hands its blocks
                // on translated; their zone maps are the old schema's, so
                // every row is checked.
                let mut cur = RunCursor::new(vec![view.source(h)], false);
                while let Some(run) = cur.next_run()? {
                    emit_selected(run.block, run.rows, ts_bounds, &every, emit)?;
                }
                continue;
            }
            for bi in footer.blocks_in(range) {
                let entry = &footer.blocks[bi];
                // Time bounds, judged from the timestamp column's zone.
                let ts_zone = entry.zones.get(ts_index).and_then(|z| z.as_ref());
                let ts_contained = match ts_zone {
                    Some((Value::Timestamp(lo), Value::Timestamp(hi))) => {
                        if *hi < ts_lo || *lo > ts_hi {
                            pruned += 1;
                            continue;
                        }
                        *lo >= ts_lo && *hi <= ts_hi
                    }
                    _ => false,
                };
                // Predicates, judged from their columns' zones.
                uncertain.clear();
                let mut impossible = false;
                for p in &req.predicates {
                    match p.judge(entry.zones.get(p.col).and_then(|z| z.as_ref())) {
                        ZoneVerdict::AllMatch => {}
                        ZoneVerdict::NoneMatch => {
                            impossible = true;
                            break;
                        }
                        ZoneVerdict::Uncertain => uncertain.push(p),
                    }
                }
                if impossible {
                    pruned += 1;
                    continue;
                }
                let key_contained = footer.block_inside(bi, range);
                if key_contained && ts_contained && uncertain.is_empty() {
                    if let Some(cols) = &req.stats_cols {
                        let zoned = cols
                            .iter()
                            .all(|&c| entry.zones.get(c).map(|z| z.is_some()).unwrap_or(false));
                        if zoned {
                            emit(ScanUnit::Stats {
                                rows: entry.rows as u64,
                                zones: entry.zones.clone(),
                            })?;
                            continue;
                        }
                    }
                }
                // Whatever the zones left open is decided row by row over
                // the typed slices: key bounds, then time, then predicates.
                let block = h.reader.read_block(bi)?;
                let rows = if key_contained {
                    0..block.len()
                } else {
                    block.rows_in_range(range)?
                };
                let ts_bounds = ts_bounds.filter(|_| !ts_contained);
                emit_selected(block, rows, ts_bounds, &uncertain, emit)?;
            }
        }
        for mem in view.mem() {
            let (_, block) = mem?;
            let rows = 0..block.len();
            emit_selected(Arc::new(block), rows, ts_bounds, &every, emit)?;
        }
        TableStats::add(&self.stats.blocks_pruned, pruned);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Db;
    use crate::options::Options;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::ColumnType;
    use littletable_vfs::{Micros, SimClock, SimVfs, MICROS_PER_SEC};

    const SEC: Micros = MICROS_PER_SEC;
    const START: Micros = 1_700_000_000 * MICROS_PER_SEC;

    fn usage_schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("device", ColumnType::Str),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("bytes", ColumnType::I64),
                ColumnDef::new("load", ColumnType::F64),
            ],
            &["device", "ts"],
        )
        .unwrap()
    }

    /// Where a test table's rows sit when it is scanned.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stored {
        /// Flushed, under the current schema.
        Flushed,
        /// Still in the memtablet.
        InMemory,
        /// Flushed, then a column was added: every tablet lags the schema.
        Lagging,
    }

    fn flushed_table(n: usize) -> (Db, Arc<Table>) {
        usage_table(n, Stored::Flushed)
    }

    /// A table with `n` rows across several small blocks: 4 devices,
    /// ascending timestamps, bytes = 10*i, and a load of i/2 or, every
    /// 23rd row, NaN.
    fn usage_table(n: usize, stored: Stored) -> (Db, Arc<Table>) {
        let clock = SimClock::new(START);
        let vfs = SimVfs::instant();
        let opts = Options {
            block_size: 512,
            ..Options::small_for_tests()
        };
        let db = Db::open(Arc::new(vfs), Arc::new(clock), opts).unwrap();
        let t = db.create_table("usage", usage_schema(), None).unwrap();
        let chunk = n.div_ceil(4);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Str(format!("dev-{}", i / chunk)),
                    Value::Timestamp(START + (i % chunk) as Micros * SEC),
                    Value::I64(10 * i as i64),
                    Value::F64(if i % 23 == 7 {
                        f64::NAN
                    } else {
                        i as f64 / 2.0
                    }),
                ]
            })
            .collect();
        t.insert(rows).unwrap();
        if stored == Stored::InMemory {
            assert_eq!(t.num_disk_tablets(), 0);
            return (db, t);
        }
        t.flush_all().unwrap();
        assert!(t.num_disk_tablets() >= 1);
        if stored == Stored::Lagging {
            let extra = ColumnDef::with_default("extra", ColumnType::I64, Value::I64(0));
            t.add_column(extra).unwrap();
        }
        (db, t)
    }

    fn scan(t: &Table, req: &PushdownRequest) -> Vec<ScanUnit> {
        let mut units = Vec::new();
        t.pushdown_scan(req, &mut |u| {
            units.push(u);
            Ok(())
        })
        .unwrap();
        units
    }

    /// Row count implied by a unit list. Every block unit is also held
    /// to its contract on the way: its selection is non-empty, ascending
    /// and inside the block.
    fn unit_rows(units: &[ScanUnit]) -> u64 {
        let mut n = 0u64;
        for u in units {
            match u {
                ScanUnit::Stats { rows, .. } => n += rows,
                ScanUnit::Block { block, sel } => {
                    assert!(!sel.is_empty(), "empty selections are not emitted");
                    assert!(sel.iter().zip(sel.iter().skip(1)).all(|(a, b)| a < b));
                    assert!(sel.iter().all(|i| i < block.len()));
                    n += sel.len() as u64;
                }
            }
        }
        n
    }

    /// The rows of `block` a scan for `req` must select, decided the slow
    /// way: materialize each row, encode its key, test every bound and
    /// predicate on `Value`s.
    fn brute_force_selection(t: &Table, block: &Block, req: &PushdownRequest) -> Vec<usize> {
        let schema = t.schema();
        let range = req.query.key_range(&schema).unwrap();
        let (ts_lo, ts_hi) = req.query.ts_interval();
        (0..block.len())
            .filter(|&ri| {
                let row = block.row(ri).unwrap();
                let ts = row.ts(&schema).unwrap();
                range.contains(&row.encode_key(&schema).unwrap())
                    && ts >= ts_lo
                    && ts <= ts_hi
                    && req.predicates.iter().all(|p| p.matches(&row.values[p.col]))
            })
            .collect()
    }

    fn req_all() -> PushdownRequest {
        PushdownRequest {
            query: Query::all(),
            predicates: Vec::new(),
            stats_cols: None,
        }
    }

    #[test]
    fn cmp_values_families() {
        use Ordering::*;
        assert_eq!(cmp_values(&Value::I32(3), &Value::I64(4)), Some(Less));
        assert_eq!(
            cmp_values(&Value::Timestamp(9), &Value::I32(9)),
            Some(Equal)
        );
        assert_eq!(
            cmp_values(&Value::F64(1.5), &Value::F64(1.0)),
            Some(Greater)
        );
        assert_eq!(cmp_values(&Value::F64(f64::NAN), &Value::F64(1.0)), None);
        assert_eq!(cmp_values(&Value::F64(1.0), &Value::I64(1)), None);
        assert_eq!(cmp_values(&Value::Str("a".into()), &Value::I64(1)), None);
        assert_eq!(
            cmp_values(&Value::Str("a".into()), &Value::Str("b".into())),
            Some(Less)
        );
    }

    #[test]
    fn predicate_matches_mirrors_sql_semantics() {
        let p = |op| ColumnPredicate {
            col: 2,
            op,
            value: Value::I64(50),
        };
        assert!(p(PredOp::Eq).matches(&Value::I64(50)));
        assert!(p(PredOp::Ne).matches(&Value::I64(49)));
        assert!(p(PredOp::Lt).matches(&Value::I32(49)));
        assert!(!p(PredOp::Ge).matches(&Value::I64(49)));
        // Incomparable (wrong family, NaN) matches nothing — not even Ne.
        assert!(!p(PredOp::Ne).matches(&Value::Str("50".into())));
        let nan = ColumnPredicate {
            col: 3,
            op: PredOp::Ne,
            value: Value::F64(f64::NAN),
        };
        assert!(!nan.matches(&Value::F64(1.0)));
    }

    #[test]
    fn zone_judgement_table() {
        let zone = (Value::I64(10), Value::I64(20));
        let judge = |op, v: i64| {
            ColumnPredicate {
                col: 0,
                op,
                value: Value::I64(v),
            }
            .judge(Some(&zone))
        };
        use ZoneVerdict::*;
        assert_eq!(judge(PredOp::Eq, 5), NoneMatch);
        assert_eq!(judge(PredOp::Eq, 15), Uncertain);
        assert_eq!(judge(PredOp::Eq, 25), NoneMatch);
        let point = (Value::I64(7), Value::I64(7));
        let p = ColumnPredicate {
            col: 0,
            op: PredOp::Eq,
            value: Value::I64(7),
        };
        assert_eq!(p.judge(Some(&point)), AllMatch);
        assert_eq!(judge(PredOp::Ne, 5), AllMatch);
        assert_eq!(judge(PredOp::Ne, 15), Uncertain);
        assert_eq!(judge(PredOp::Lt, 25), AllMatch);
        assert_eq!(judge(PredOp::Lt, 10), NoneMatch);
        assert_eq!(judge(PredOp::Lt, 15), Uncertain);
        assert_eq!(judge(PredOp::Le, 20), AllMatch);
        assert_eq!(judge(PredOp::Le, 9), NoneMatch);
        assert_eq!(judge(PredOp::Gt, 5), AllMatch);
        assert_eq!(judge(PredOp::Gt, 20), NoneMatch);
        assert_eq!(judge(PredOp::Ge, 10), AllMatch);
        assert_eq!(judge(PredOp::Ge, 21), NoneMatch);
        // Absent zone proves nothing.
        let p = ColumnPredicate {
            col: 0,
            op: PredOp::Lt,
            value: Value::I64(0),
        };
        assert_eq!(p.judge(None), Uncertain);
    }

    #[test]
    fn stats_only_full_scan_reads_no_blocks() {
        let (_db, t) = flushed_table(400);
        let req = PushdownRequest {
            stats_cols: Some(vec![2]),
            ..req_all()
        };
        let units = scan(&t, &req);
        assert!(units.len() > 1, "expected several blocks");
        assert!(units.iter().all(|u| matches!(u, ScanUnit::Stats { .. })));
        assert_eq!(unit_rows(&units), 400);
        // MIN/MAX over the zones match the true extremes.
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for u in &units {
            if let ScanUnit::Stats { zones, .. } = u {
                let Some((Value::I64(a), Value::I64(b))) = &zones[2] else {
                    panic!("bytes column must be zoned");
                };
                lo = lo.min(*a);
                hi = hi.max(*b);
            }
        }
        assert_eq!((lo, hi), (0, 3990));
        let s = t.stats().snapshot();
        assert_eq!(s.rows_materialized, 0, "stats path must not decode rows");
        assert_eq!(s.pushdown_scans, 1);
    }

    #[test]
    fn block_units_cover_sum_exactly() {
        let (_db, t) = flushed_table(400);
        let req = req_all(); // stats_cols: None → SUM needs values
        let units = scan(&t, &req);
        let mut sum = 0i64;
        let mut saw_block = false;
        for u in &units {
            match u {
                ScanUnit::Block { block, sel } => {
                    saw_block = true;
                    assert_eq!(*sel, Selection::Range(0..block.len()));
                    // Sum straight off the column slice.
                    let ColumnSlice::I64(col) = block.column(2) else {
                        panic!("bytes must be an int64 slice");
                    };
                    sum += col.iter().sum::<i64>();
                }
                ScanUnit::Stats { .. } => panic!("stats forbidden when stats_cols is None"),
            }
        }
        assert!(
            saw_block,
            "full scan over flushed data should yield Block units"
        );
        assert_eq!(sum, (0..400).map(|i| 10 * i as i64).sum::<i64>());
    }

    #[test]
    fn key_boundary_blocks_are_clipped_not_materialized() {
        let (_db, t) = flushed_table(400);
        // Prefix query for one device: the blocks holding the device's
        // first and last rows also hold a neighbour's, and come back as
        // the contiguous sub-range of the device's rows.
        let req = PushdownRequest {
            query: Query::all().with_prefix(vec![Value::Str("dev-1".into())]),
            ..req_all()
        };
        let units = scan(&t, &req);
        assert_eq!(unit_rows(&units), 100);
        let mut clipped = 0;
        for u in &units {
            let ScanUnit::Block { block, sel } = u else {
                panic!("flushed data must not yield {u:?}");
            };
            let Selection::Range(r) = sel else {
                panic!("key bounds alone leave no holes, got {sel:?}");
            };
            clipped += (r.len() < block.len()) as usize;
            let ColumnSlice::Str(dev) = block.column(0) else {
                panic!("device must be a string slice");
            };
            assert!(r.clone().all(|i| &dev[i] == "dev-1"));
        }
        assert!(clipped > 0, "some block must straddle the prefix");
        assert_eq!(t.stats().snapshot().rows_materialized, 0);
    }

    #[test]
    fn ts_bounds_prune_and_bound_blocks() {
        let (_db, t) = flushed_table(400);
        // Each device spans START..START+99s; restrict to a half-open
        // 10s window [20s, 30s) → 10 timestamps per device.
        let q = Query::all().with_ts_range(START + 20 * SEC, START + 30 * SEC);
        let req = PushdownRequest {
            query: q,
            ..req_all()
        };
        let units = scan(&t, &req);
        assert_eq!(unit_rows(&units), 40);
        for u in &units {
            let ScanUnit::Block { block, sel } = u else {
                panic!("flushed data must not yield {u:?}");
            };
            let ColumnSlice::Timestamp(ts) = block.column(1) else {
                panic!("ts must be a timestamp slice");
            };
            assert!(sel
                .iter()
                .all(|i| (START + 20 * SEC..START + 30 * SEC).contains(&ts[i])));
        }
        let s = t.stats().snapshot();
        assert!(s.blocks_pruned > 0, "far-away blocks should be zone-pruned");
    }

    #[test]
    fn predicates_prune_and_recheck() {
        let (_db, t) = flushed_table(400);
        // bytes >= 3000 → rows 300..400 qualify; early blocks prune.
        let req = PushdownRequest {
            predicates: vec![ColumnPredicate {
                col: 2,
                op: PredOp::Ge,
                value: Value::I64(3000),
            }],
            ..req_all()
        };
        let units = scan(&t, &req);
        assert_eq!(unit_rows(&units), 100);
        let s = t.stats().snapshot();
        assert!(s.blocks_pruned > 0, "low-bytes blocks should prune");
        // An impossible predicate prunes everything without I/O.
        let req = PushdownRequest {
            predicates: vec![ColumnPredicate {
                col: 2,
                op: PredOp::Lt,
                value: Value::I64(0),
            }],
            ..req_all()
        };
        assert_eq!(unit_rows(&scan(&t, &req)), 0);
    }

    #[test]
    fn selection_equals_brute_force_row_filter() {
        let pred = |col, op, value| ColumnPredicate { col, op, value };
        let mut requests = Vec::new();
        let boxes = [
            Query::all(),
            Query::all().with_prefix(vec![Value::Str("dev-2".into())]),
            Query::all().with_ts_range(START + 17 * SEC, START + 61 * SEC),
            Query::all()
                .with_key_min(vec![Value::Str("dev-1".into())], false)
                .with_ts_min(START + 40 * SEC, true),
            Query::all()
                .with_key_min(
                    vec![
                        Value::Str("dev-0".into()),
                        Value::Timestamp(START + 33 * SEC),
                    ],
                    true,
                )
                .with_key_max(
                    vec![
                        Value::Str("dev-3".into()),
                        Value::Timestamp(START + 5 * SEC),
                    ],
                    false,
                ),
            // Empty: inside the key space, outside every timestamp.
            Query::all().with_ts_range(START + 1000 * SEC, START + 2000 * SEC),
        ];
        for q in &boxes {
            requests.push(PushdownRequest {
                query: q.clone(),
                ..req_all()
            });
            for op in [
                PredOp::Eq,
                PredOp::Ne,
                PredOp::Lt,
                PredOp::Le,
                PredOp::Gt,
                PredOp::Ge,
            ] {
                for p in [
                    pred(2, op, Value::I64(1230)),
                    pred(2, op, Value::I32(1230)),
                    pred(3, op, Value::F64(77.5)),
                    pred(3, op, Value::F64(f64::NAN)),
                    pred(1, op, Value::Timestamp(START + 50 * SEC)),
                    pred(0, op, Value::Str("dev-1".into())),
                    // Wrong family: matches nothing, whatever the operator.
                    pred(2, op, Value::F64(1230.0)),
                ] {
                    requests.push(PushdownRequest {
                        query: q.clone(),
                        predicates: vec![p, pred(2, PredOp::Ne, Value::I64(2000))],
                        stats_cols: None,
                    });
                }
            }
        }
        // However the rows are stored, every unit is a block whose
        // selection is the brute-force filter's, and no row is built.
        for stored in [Stored::Flushed, Stored::InMemory, Stored::Lagging] {
            let (_db, t) = usage_table(400, stored);
            let mut holes = 0;
            for req in &requests {
                let before = t.stats().snapshot().rows_materialized;
                let units = scan(&t, req);
                assert_eq!(t.stats().snapshot().rows_materialized, before);
                let mut expect = t.query_all(&req.query).unwrap();
                expect.retain(|r| req.predicates.iter().all(|p| p.matches(&r.values[p.col])));
                assert_eq!(unit_rows(&units), expect.len() as u64, "{stored:?} {req:?}");
                for u in &units {
                    let ScanUnit::Block { block, sel } = u else {
                        panic!("{stored:?} data must not yield {u:?}");
                    };
                    let got: Vec<usize> = sel.iter().collect();
                    assert_eq!(
                        got,
                        brute_force_selection(&t, block, req),
                        "{stored:?} {req:?}"
                    );
                    holes += matches!(sel, Selection::Indices(_)) as usize;
                }
            }
            assert!(
                holes > 0,
                "{stored:?}: some filter must leave an index vector"
            );
        }
    }

    #[test]
    fn selection_stays_a_range_until_a_hole_appears() {
        let mut sel = Selection::Range(2..10);
        sel.retain(|i| (4..8).contains(&i));
        assert_eq!(sel, Selection::Range(4..8));
        sel.retain(|i| i != 5);
        assert_eq!(sel, Selection::Indices(vec![4, 6, 7]));
        assert_eq!(sel.len(), 3);
        assert_eq!(sel.row(1), 6);
        let mut seen = Vec::new();
        sel.for_each_in(1..3, |i| seen.push(i));
        assert_eq!(seen, vec![6, 7]);
        sel.retain(|_| false);
        assert!(sel.is_empty());
        let mut all = Selection::Range(3..6);
        all.retain(|_| false);
        assert!(all.is_empty());
        let mut seen = Vec::new();
        Selection::Range(3..9).for_each_in(2..4, |i| seen.push(i));
        assert_eq!(seen, vec![5, 6]);
    }

    #[test]
    fn memtable_rows_are_included() {
        let (_db, t) = flushed_table(100);
        // 50 more rows, unflushed, timestamps past the flushed range.
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| {
                vec![
                    Value::Str("dev-9".into()),
                    Value::Timestamp(START + (500 + i) * SEC),
                    Value::I64(7),
                    Value::F64(0.0),
                ]
            })
            .collect();
        t.insert(rows).unwrap();
        let units = scan(&t, &req_all());
        assert_eq!(unit_rows(&units), 150);
        // The memtablet's rows arrive as a block of their own.
        assert!(units.iter().any(|u| matches!(u,
            ScanUnit::Block { block, sel } if *sel == Selection::Range(0..50) && block.len() == 50)));
        assert_eq!(t.stats().snapshot().rows_materialized, 0);
    }

    #[test]
    fn matches_row_path_on_random_boxes() {
        let (_db, t) = flushed_table(300);
        let cases = [
            Query::all(),
            Query::all().with_prefix(vec![Value::Str("dev-2".into())]),
            Query::all().with_ts_range(START + 10 * SEC, START + 40 * SEC),
            Query::all()
                .with_key_min(vec![Value::Str("dev-1".into())], true)
                .with_ts_range(START, START + 33 * SEC),
        ];
        for q in cases {
            let expect = t.query_all(&q).unwrap().len() as u64;
            let req = PushdownRequest {
                query: q,
                ..req_all()
            };
            assert_eq!(unit_rows(&scan(&t, &req)), expect);
        }
    }
}
