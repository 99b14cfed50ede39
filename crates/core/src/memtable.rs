//! In-memory (filling) tablets.
//!
//! Newly inserted rows land in an in-memory tablet — one per active time
//! period (§3.4.3) — implemented as an ordered map from encoded primary key
//! to row. When a tablet reaches the configured size or age limit it is
//! marked read-only and flushed wholesale to disk as one on-disk tablet.

use crate::block::{Block, BlockEncoder};
use crate::error::Result;
use crate::keyenc::KeyRange;
use crate::row::Row;
use crate::schema::SchemaRef;
use littletable_vfs::Micros;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Engine-unique id for an in-memory tablet, used by the flush-dependency
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemTabletId(pub u64);

/// A row plus the table-wide insert sequence number it committed at.
/// Readers snapshot "all rows with `seq < cutoff`", which lets a query
/// assemble a consistent cross-tablet view while holding only one
/// tablet's lock at a time.
#[derive(Debug, Clone)]
struct MemRow {
    row: Row,
    seq: u64,
}

/// One filling tablet.
#[derive(Debug)]
pub struct MemTablet {
    id: MemTabletId,
    /// The table schema rows in this tablet were written under. Schema
    /// evolutions seal all filling tablets, so one tablet never mixes
    /// schema versions.
    schema: SchemaRef,
    rows: BTreeMap<Vec<u8>, MemRow>,
    bytes: usize,
    /// Clock time of the first insert, for the age-based flush trigger.
    first_insert_at: Micros,
    min_ts: Micros,
    max_ts: Micros,
}

impl MemTablet {
    /// Creates an empty tablet; `now` stamps the age-trigger start.
    pub fn new(id: MemTabletId, now: Micros, schema: SchemaRef) -> Self {
        MemTablet {
            id,
            schema,
            rows: BTreeMap::new(),
            bytes: 0,
            first_insert_at: now,
            min_ts: Micros::MAX,
            max_ts: Micros::MIN,
        }
    }

    /// This tablet's id.
    pub fn id(&self) -> MemTabletId {
        self.id
    }

    /// The schema this tablet's rows were written under.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Iterates all rows in ascending key order without cloning.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &Row)> {
        self.rows.iter().map(|(k, m)| (k, &m.row))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate memory footprint of the stored rows.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Clock time of the first insert.
    pub fn first_insert_at(&self) -> Micros {
        self.first_insert_at
    }

    /// Smallest row timestamp, or `None` when empty.
    pub fn min_ts(&self) -> Option<Micros> {
        (!self.is_empty()).then_some(self.min_ts)
    }

    /// Largest row timestamp, or `None` when empty.
    pub fn max_ts(&self) -> Option<Micros> {
        (!self.is_empty()).then_some(self.max_ts)
    }

    /// Largest encoded key present.
    pub fn max_key(&self) -> Option<&[u8]> {
        self.rows.keys().next_back().map(|k| k.as_slice())
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.rows.contains_key(key)
    }

    /// Inserts a row under its encoded key, stamped with the table-wide
    /// insert sequence number `seq`. The caller has already checked
    /// uniqueness table-wide; within one tablet a duplicate is a logic
    /// error.
    pub fn insert(&mut self, key: Vec<u8>, row: Row, ts: Micros, seq: u64) {
        self.bytes += key.len() + row.mem_size();
        self.min_ts = self.min_ts.min(ts);
        self.max_ts = self.max_ts.max(ts);
        let prev = self.rows.insert(key, MemRow { row, seq });
        debug_assert!(prev.is_none(), "duplicate key reached the memtable");
    }

    /// Snapshots the rows inside `range` (and every row when `range` is
    /// unbounded) whose insert sequence number is below `before_seq`, in
    /// ascending key order, as one decoded block under the tablet's
    /// schema: cell values are copied into column slices, and no key and
    /// no row is cloned. Pass [`u64::MAX`] to see everything.
    pub fn snapshot_block(&self, range: &KeyRange, before_seq: u64) -> Result<Block> {
        let lo: Bound<&[u8]> = match &range.start {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        };
        let hi: Bound<&[u8]> = match &range.end {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        };
        let mut block = BlockEncoder::new(&self.schema);
        for (_, m) in self.rows.range::<[u8], _>((lo, hi)) {
            if m.seq < before_seq {
                block.add(&m.row)?;
            }
        }
        Ok(block.into_block(&self.schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn test_schema() -> SchemaRef {
        use crate::schema::{ColumnDef, Schema};
        use crate::value::ColumnType;
        std::sync::Arc::new(
            Schema::new(
                vec![
                    ColumnDef::new("n", ColumnType::I64),
                    ColumnDef::new("ts", ColumnType::Timestamp),
                ],
                &["n", "ts"],
            )
            .unwrap(),
        )
    }

    fn row(n: i64, ts: Micros) -> (Vec<u8>, Row, Micros) {
        let row = Row::new(vec![Value::I64(n), Value::Timestamp(ts)]);
        let mut key = Vec::new();
        crate::keyenc::encode_component(&mut key, &Value::I64(n)).unwrap();
        crate::keyenc::encode_component(&mut key, &Value::Timestamp(ts)).unwrap();
        (key, row, ts)
    }

    #[test]
    fn tracks_size_and_timespan() {
        let mut t = MemTablet::new(MemTabletId(1), 1000, test_schema());
        assert!(t.is_empty());
        for (n, ts) in [(3, 30), (1, 10), (2, 20)] {
            let (k, r, ts) = row(n, ts);
            t.insert(k, r, ts, 0);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.min_ts(), Some(10));
        assert_eq!(t.max_ts(), Some(30));
        assert!(t.bytes() > 0);
        assert_eq!(t.first_insert_at(), 1000);
    }

    #[test]
    fn rows_come_out_sorted() {
        let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
        for n in [5i64, 1, 9, 3] {
            let (k, r, ts) = row(n, 100);
            t.insert(k, r, ts, 0);
        }
        let keys: Vec<_> = t.iter().map(|(k, _)| k.to_vec()).collect();
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(keys, expect);
    }

    #[test]
    fn snapshot_block_filters() {
        let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
        for n in 0..10i64 {
            let (k, r, ts) = row(n, 100);
            t.insert(k, r, ts, n as u64);
        }
        let (lo, _, _) = row(3, 100);
        let (hi, _, _) = row(6, 100);
        let range = KeyRange {
            start: Bound::Included(lo),
            end: Bound::Excluded(hi),
        };
        let snap = t.snapshot_block(&range, u64::MAX).unwrap();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.row(0).unwrap().values[0], Value::I64(3));
        let all = t.snapshot_block(&KeyRange::all(), u64::MAX).unwrap();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn snapshot_block_honours_seq_cutoff() {
        let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
        for n in 0..10i64 {
            let (k, r, ts) = row(n, 100);
            t.insert(k, r, ts, 100 + n as u64);
        }
        // Rows stamped at or after the cutoff are invisible to the
        // snapshot, as if the reader had started before they committed.
        let snap = |before_seq| t.snapshot_block(&KeyRange::all(), before_seq).unwrap();
        assert_eq!(snap(104).len(), 4);
        assert!(snap(100).is_empty());
        assert_eq!(snap(u64::MAX).len(), 10);
    }

    #[test]
    fn max_key_is_last() {
        let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
        assert!(t.max_key().is_none());
        let (k1, r1, ts) = row(1, 100);
        let (k2, r2, _) = row(2, 100);
        t.insert(k2.clone(), r2, ts, 0);
        t.insert(k1.clone(), r1, ts, 1);
        assert_eq!(t.max_key().unwrap(), k2.as_slice());
        assert!(t.contains_key(&k1));
    }
}
