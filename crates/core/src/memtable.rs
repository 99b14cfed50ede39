//! In-memory (filling) tablets, one per active time period (§3.4.3),
//! sealed at the configured size or age and flushed whole to one on-disk
//! tablet. A tablet keeps its rows in arrival order, in the typed columns a
//! decoded [`Block`] is made of, with their keys in one arena and their
//! insert stamps. A map from a key's hash to the first row holding it
//! answers "is this key here?"; key order is a permutation of the rows,
//! sorted only when asked for — by a reader's key range, the flush, or a
//! hash two keys share — and then only extended to the rows appended since.

use crate::block::{BlobColumn, Block, ColumnSlice};
use crate::error::{Error, Result};
use crate::keyenc::KeyRange;
use crate::schema::SchemaRef;
use crate::value::Value;
use littletable_vfs::Micros;
use parking_lot::{Mutex, MutexGuard};
use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::{Bound, RangeBounds};
use std::sync::OnceLock;

/// Table-unique id for an in-memory tablet, allocated when the tablet is
/// created. A tablet takes its first row as it is created, so id order is
/// the order of first insert stamps; sealing visits due tablets in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemTabletId(pub u64);

/// The hash a [`MemTablet`] indexes an encoded key by: SipHash under a key
/// drawn once per process, so that no input can be made to collide.
pub(crate) fn hash_key(key: &[u8]) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(key)
}

/// The hasher of a tablet's hash index, whose keys are [`hash_key`]s
/// already: it hands them on unchanged.
#[derive(Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by u64 hashes only")
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One filling tablet.
#[derive(Debug)]
pub struct MemTablet {
    id: MemTabletId,
    /// The table schema rows in this tablet were written under. Schema
    /// evolutions seal all filling tablets, so one tablet never mixes
    /// schema versions.
    schema: SchemaRef,
    /// The rows, in arrival order: their cells, keys and insert stamps.
    /// Readers snapshot "all rows with `seq < cutoff`", which lets a query
    /// assemble a consistent cross-tablet view while holding only one
    /// tablet's lock at a time.
    cols: Vec<ColumnSlice>,
    keys: BlobColumn,
    seqs: Vec<u64>,
    /// Key hash → the first row holding a key of that hash.
    by_hash: HashMap<u64, u32, BuildHasherDefault<HashIsKey>>,
    /// The first `sorted.len()` rows in key order: see `key_order`.
    sorted: Mutex<Vec<u32>>,
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
            cols: schema
                .columns()
                .iter()
                .map(|c| ColumnSlice::empty_for(c.ty))
                .collect(),
            schema,
            keys: BlobColumn::default(),
            seqs: Vec::new(),
            by_hash: HashMap::default(),
            sorted: Mutex::new(Vec::new()),
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

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when no rows have been inserted.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
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

    /// The insert stamps of the first and the last row, or `None` when
    /// empty.
    pub(crate) fn stamps(&self) -> Option<(u64, u64)> {
        Some((*self.seqs.first()?, *self.seqs.last()?))
    }

    fn key(&self, row: u32) -> &[u8] {
        self.keys.bytes(row as usize)
    }

    /// True when `key`, whose [`hash_key`] is `hash`, is present.
    pub(crate) fn contains(&self, key: &[u8], hash: u64) -> bool {
        // When another key holds the hash, `key` is looked up in key order.
        let in_order = |order: &[u32]| order.binary_search_by(|&r| self.key(r).cmp(key)).is_ok();
        match self.by_hash.get(&hash) {
            Some(&row) => self.key(row) == key || in_order(&self.key_order()),
            None => false,
        }
    }

    /// Appends a row: its cells, which the caller has checked against the
    /// schema; its encoded key and that key's [`hash_key`]; its timestamp;
    /// and the table-wide insert sequence number it is stamped with. The
    /// caller has also checked uniqueness table-wide.
    pub(crate) fn append(
        &mut self,
        key: &[u8],
        hash: u64,
        values: &[Value],
        ts: Micros,
        seq: u64,
    ) -> Result<()> {
        let row = u32::try_from(self.len())
            .map_err(|_| Error::invalid("an in-memory tablet holds at most 2^32 rows"))?;
        // A row's footprint, for the size trigger: its key, 24, and its
        // cells' `mem_size`.
        let mut bytes = key.len() + 24;
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(v)?;
            bytes += v.mem_size();
        }
        self.keys.push(key)?;
        self.seqs.push(seq);
        self.by_hash.entry(hash).or_insert(row);
        self.bytes += bytes;
        self.min_ts = self.min_ts.min(ts);
        self.max_ts = self.max_ts.max(ts);
        Ok(())
    }

    /// The rows' indices in ascending key order, extended to the rows
    /// appended since the last call: the stable sort takes the sorted
    /// prefix as one run, sorts the new tail's runs (batches that arrive
    /// in key order are one each) and merges them.
    fn key_order(&self) -> MutexGuard<'_, Vec<u32>> {
        let mut order = self.sorted.lock();
        if order.len() < self.len() {
            let tail = order.len() as u32..self.len() as u32;
            order.extend(tail);
            order.sort_by(|&a, &b| self.key(a).cmp(self.key(b)));
        }
        order
    }

    /// Snapshots the rows inside `range` (and every row when `range` is
    /// unbounded) whose insert sequence number is below `before_seq`, in
    /// ascending key order, as one decoded block under the tablet's
    /// schema: the range is bisected in key order and the rows' cells
    /// gathered into column slices. Pass [`u64::MAX`] to see everything.
    pub fn snapshot_block(&self, range: &KeyRange, before_seq: u64) -> Result<Block> {
        let rows: Vec<u32> = {
            let order = self.key_order();
            let from_start = (range.start.as_ref().map(Vec::as_slice), Bound::Unbounded);
            let start = order.partition_point(|&r| !from_start.contains(self.key(r)));
            let len = order[start..].partition_point(|&r| range.contains(self.key(r)));
            let in_range = order[start..start + len].iter().copied();
            in_range
                .filter(|&r| self.seqs[r as usize] < before_seq)
                .collect()
        };
        let cols = self.cols.iter().map(|c| c.gather(&rows)).collect();
        Ok(Block::from_columns(cols, rows.len(), &self.schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::Bound;

    fn test_schema() -> SchemaRef {
        use crate::schema::{ColumnDef, Schema};
        use crate::value::ColumnType;
        std::sync::Arc::new(
            Schema::new(
                vec![
                    ColumnDef::new("n", ColumnType::I64),
                    ColumnDef::new("ts", ColumnType::Timestamp),
                    ColumnDef::new("v", ColumnType::Str),
                ],
                &["n", "ts"],
            )
            .unwrap(),
        )
    }

    fn row(n: i64, ts: Micros) -> (Vec<u8>, Vec<Value>) {
        let values = vec![
            Value::I64(n),
            Value::Timestamp(ts),
            Value::Str(format!("v{n}")),
        ];
        let key = crate::row::Row::new(values.clone())
            .encode_key(&test_schema())
            .unwrap();
        (key, values)
    }

    fn append(t: &mut MemTablet, n: i64, ts: Micros, seq: u64) {
        let (key, values) = row(n, ts);
        t.append(&key, hash_key(&key), &values, ts, seq).unwrap();
    }

    fn ns(block: &Block) -> Vec<i64> {
        (0..block.len())
            .map(|i| block.column(0).value(i).as_int().unwrap())
            .collect()
    }

    #[test]
    fn tracks_size_and_timespan() {
        let mut t = MemTablet::new(MemTabletId(1), 1000, test_schema());
        assert!(t.is_empty());
        for (n, ts) in [(3, 30), (1, 10), (2, 20)] {
            append(&mut t, n, ts, 0);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.min_ts(), Some(10));
        assert_eq!(t.max_ts(), Some(30));
        assert_eq!(t.first_insert_at(), 1000);
        // What a row costs: its key, 24, and each cell's `mem_size`.
        let (key, values) = row(1, 10);
        let one = key.len() + 24 + values.iter().map(Value::mem_size).sum::<usize>();
        assert_eq!(t.bytes(), 3 * one);
    }

    #[test]
    fn snapshot_block_filters() {
        let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
        for n in [5i64, 1, 9, 3, 0, 8, 2, 7, 4, 6] {
            append(&mut t, n, 100, n as u64);
        }
        let range = KeyRange {
            start: Bound::Included(row(3, 100).0),
            end: Bound::Excluded(row(6, 100).0),
        };
        assert_eq!(ns(&t.snapshot_block(&range, u64::MAX).unwrap()), [3, 4, 5]);
        let all = t.snapshot_block(&KeyRange::all(), u64::MAX).unwrap();
        assert_eq!(ns(&all), (0..10).collect::<Vec<_>>());
        assert_eq!(all.row(4).unwrap().values, row(4, 100).1);
    }

    #[test]
    fn snapshot_block_honours_seq_cutoff() {
        let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
        for n in 0..10i64 {
            append(&mut t, n, 100, 100 + n as u64);
        }
        // Rows stamped at or after the cutoff are invisible to the
        // snapshot, as if the reader had started before they committed.
        let snap = |before_seq| t.snapshot_block(&KeyRange::all(), before_seq).unwrap();
        assert_eq!(snap(104).len(), 4);
        assert!(snap(100).is_empty());
        assert_eq!(snap(u64::MAX).len(), 10);
    }

    #[test]
    fn a_hash_two_keys_share_is_told_apart_in_key_order() {
        let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
        for n in [4i64, 2, 6] {
            let (key, values) = row(n, 100);
            t.append(&key, 7, &values, 100, 0).unwrap();
        }
        for n in [4i64, 2, 6] {
            assert!(t.contains(&row(n, 100).0, 7), "{n}");
        }
        assert!(!t.contains(&row(3, 100).0, 7));
        assert!(!t.contains(&row(2, 100).0, 8));
    }

    proptest! {
        /// Key order extended over appends interleaved with snapshots is
        /// the sorted order of everything appended, and `contains` knows
        /// exactly the keys appended.
        #[test]
        fn key_order_extends_to_the_sorted_order(
            steps in proptest::collection::vec(
                (proptest::collection::vec(0i64..400, 0..40), any::<bool>()), 1..12),
        ) {
            let mut t = MemTablet::new(MemTabletId(1), 0, test_schema());
            let mut want = std::collections::BTreeSet::new();
            for (ns_in, snapshot) in steps {
                for n in ns_in {
                    let (key, _) = row(n, 100);
                    if !t.contains(&key, hash_key(&key)) {
                        prop_assert!(want.insert(n));
                        append(&mut t, n, 100, 0);
                    } else {
                        prop_assert!(want.contains(&n));
                    }
                }
                if snapshot {
                    let got = ns(&t.snapshot_block(&KeyRange::all(), u64::MAX).unwrap());
                    prop_assert_eq!(got, want.iter().copied().collect::<Vec<_>>());
                }
            }
            let got = ns(&t.snapshot_block(&KeyRange::all(), u64::MAX).unwrap());
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }
    }
}
