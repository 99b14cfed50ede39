//! The invalidation-aware query-result cache.
//!
//! Dashboards re-issue the same aggregate queries over and over
//! (§4.1.2's aggregator workload); when nothing has changed since the
//! last run, re-walking tablets — or even rollup tables — is pure waste.
//! [`crate::Db::aggregate`] stores each *finished* answer here, keyed by
//! everything that could change it ([`ResultKey`]):
//!
//! * the table **generation** — a process-unique incarnation number, so
//!   a drop/recreate cycle can never serve rows computed against the
//!   previous incarnation;
//! * the table's **insert sequence** at the time the answer was
//!   computed — any insert (or bulk delete) bumps it, so a cached entry
//!   is self-invalidating the moment the table's contents change;
//! * the **question** as the scan reads it: schema version, key range,
//!   the timestamp window raised to the TTL horizon, predicates,
//!   grouping, aggregates and limit.
//!
//! There is deliberately no publish-subscribe invalidation path for
//! inserts: staleness is impossible by construction because the key
//! embeds the insert sequence. [`ResultCache::invalidate_generation`]
//! exists only to promptly reclaim memory when a table is dropped.
//!
//! The cache's budget is a carve-out from the block cache's joint budget
//! ([`crate::Options::RESULT_CACHE_FRACTION`]), so enabling it never
//! increases total cache memory. Its answers live in one CLOCK slab, the
//! [`Shard`] each block-cache shard is, charged by [`charge`]: a hit sets
//! an answer's reference bit, and a put evicts the answers the hand finds
//! unreferenced until it fits. Hits and misses are counted per table
//! ([`crate::stats::TableStats::result_cache_hits`]).

use crate::agg::{AggRows, AggSpec, Aggregate, GroupSpec};
use crate::cache::Shard;
use crate::error::Result;
use crate::keyenc::KeyRange;
use crate::rollup::distinct_bytes;
use crate::table::{ttl_horizon, PredOp, Table};
use crate::value::Value;
use littletable_vfs::Micros;
use parking_lot::Mutex;
use std::ops::Bound;
use std::sync::Arc;

/// Everything that identifies a cached answer: the table's incarnation
/// and write position, and the question as the scan reads it. Equal keys
/// fold the same rows the same way.
///
/// The TTL horizon, computed only by [`ttl_horizon`], enters only as
/// the raised lower bound of `window`, and that is exact: a scan clamps
/// its window there, rollup serving takes whole buckets only above it,
/// and the reap drops only tablets wholly below it, so the horizon
/// affects an answer only through `max(lo, horizon)`. The key's clock is
/// read before the scan's, and a later request reads it later still: its
/// lower bound is at least the one the cached answer was scanned with,
/// which is at least the one that answer was keyed with. An equal key
/// therefore means the three are equal — the horizon had not reached
/// the window, or had not moved within it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    /// The table's process-unique incarnation number.
    generation: u64,
    /// The table's insert sequence before the answer was computed.
    pub(crate) insert_seq: u64,
    /// The schema the column indices below refer to.
    schema_version: u32,
    /// The key bounds, encoded.
    range: KeyRange,
    /// The closed timestamp interval, its lower bound raised to the TTL
    /// horizon.
    window: (Micros, Micros),
    /// Each predicate's column, operator and value (as
    /// [`distinct_bytes`], which equates the int family as the predicate
    /// does).
    predicates: Vec<(usize, PredOp, Vec<u8>)>,
    groups: Vec<GroupSpec>,
    aggs: Vec<AggSpec>,
    limit: Option<usize>,
}

impl ResultKey {
    /// The key of `q` over `t` with the clock at `now`.
    pub(crate) fn new(t: &Table, q: &Aggregate, now: Micros) -> Result<ResultKey> {
        let schema = t.schema();
        let (lo, hi) = q.query.ts_interval();
        Ok(ResultKey {
            generation: t.generation(),
            insert_seq: t.insert_seq(),
            schema_version: schema.version(),
            range: q.query.key_range(&schema)?,
            window: (lo.max(ttl_horizon(t.ttl(), now)), hi),
            predicates: q
                .predicates
                .iter()
                .map(|p| (p.col, p.op, distinct_bytes(&p.value)))
                .collect(),
            groups: q.groups.clone(),
            aggs: q.aggs.clone(),
            limit: q.limit,
        })
    }
}

/// What an entry costs the budget, in estimated bytes.
fn charge(key: &ResultKey, rows: &[Vec<Value>]) -> usize {
    let bound = |b: &Bound<Vec<u8>>| match b {
        Bound::Included(k) | Bound::Excluded(k) => k.len(),
        Bound::Unbounded => 0,
    };
    let mut bytes = 128 + bound(&key.range.start) + bound(&key.range.end);
    bytes += key.predicates.iter().map(|p| 40 + p.2.len()).sum::<usize>();
    bytes += 24 * (key.groups.len() + key.aggs.len());
    for row in rows {
        bytes += 24 + row.iter().map(Value::mem_size).sum::<usize>();
    }
    bytes
}

/// A budgeted cache of finished aggregate answers: one CLOCK slab of
/// the block cache's kind ([`crate::cache`]), evicting the answers not
/// asked for again since the hand last passed. All methods are safe to
/// call concurrently.
pub(crate) struct ResultCache {
    budget: usize,
    /// The map and the slot share each key's one copy, which [`charge`] counts.
    inner: Mutex<Shard<Arc<ResultKey>, AggRows>>,
}

impl ResultCache {
    /// Creates a cache charged against `budget` bytes.
    pub(crate) fn new(budget: usize) -> Self {
        ResultCache {
            budget,
            inner: Mutex::new(Shard::default()),
        }
    }

    /// Looks up an answer. A hit sets the entry's reference bit.
    pub(crate) fn get(&self, key: &ResultKey) -> Option<AggRows> {
        self.inner.lock().touch(key).cloned()
    }

    /// Inserts an answer, evicting colder entries to stay within budget.
    /// Answers larger than the whole budget are ignored, and so is one
    /// whose key is resident already: equal keys hold equal answers.
    pub(crate) fn put(&self, key: ResultKey, rows: AggRows) {
        let charge = charge(&key, &rows);
        if charge > self.budget {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.touch(&key).is_none() {
            // Cannot fail: `charge <= budget`, and an emptied slab holds
            // nothing.
            inner.evict_until_fits(charge, self.budget, &mut Vec::new());
            inner.insert(Arc::new(key), rows, charge);
        }
    }

    /// Drops every entry computed against the given table generation,
    /// freeing their slots in slot order (see [`crate::cache`], "Key
    /// order"). Correctness never depends on this — keys embed the
    /// generation — but dropping a table should release its memory
    /// promptly.
    pub(crate) fn invalidate_generation(&self, generation: u64) {
        let mut inner = self.inner.lock();
        let doomed: Vec<Arc<ResultKey>> = inner
            .keys()
            .filter(|k| k.generation == generation)
            .cloned()
            .collect();
        for key in doomed {
            inner.remove_key(&key);
        }
    }

    /// Entries currently resident.
    pub(crate) fn entries(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A key per `(generation, insert_seq, question)`.
    fn key(generation: u64, insert_seq: u64, q: &str) -> ResultKey {
        ResultKey {
            generation,
            insert_seq,
            schema_version: 1,
            range: KeyRange::all(),
            window: (Micros::MIN, Micros::MAX),
            predicates: vec![(0, PredOp::Eq, q.as_bytes().to_vec())],
            groups: Vec::new(),
            aggs: Vec::new(),
            limit: None,
        }
    }

    fn rows(n: usize) -> AggRows {
        Arc::new((0..n).map(|i| vec![Value::I64(i as i64)]).collect())
    }

    fn bytes(c: &ResultCache) -> usize {
        c.inner.lock().bytes
    }

    #[test]
    fn hit_and_miss_round_trip() {
        let c = ResultCache::new(1 << 20);
        let k = key(1, 5, "q1");
        assert!(c.get(&k).is_none());
        c.put(k.clone(), rows(3));
        assert_eq!(c.get(&k).unwrap().len(), 3);
    }

    #[test]
    fn different_seq_or_generation_misses() {
        let c = ResultCache::new(1 << 20);
        c.put(key(1, 5, "q1"), rows(3));
        assert!(c.get(&key(1, 6, "q1")).is_none());
        assert!(c.get(&key(2, 5, "q1")).is_none());
        assert!(c.get(&key(1, 5, "q2")).is_none());
    }

    #[test]
    fn evicts_lru_to_stay_within_budget() {
        let one = charge(&key(1, 1, "a"), &rows(1));
        let c = ResultCache::new(3 * one + one / 2);
        c.put(key(1, 1, "a"), rows(1));
        c.put(key(1, 1, "b"), rows(1));
        c.put(key(1, 1, "c"), rows(1));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(&key(1, 1, "a")).is_some());
        c.put(key(1, 1, "d"), rows(1));
        assert!(bytes(&c) <= c.budget);
        assert!(c.get(&key(1, 1, "b")).is_none());
        assert!(c.get(&key(1, 1, "a")).is_some());
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let c = ResultCache::new(64);
        c.put(key(1, 1, "big"), rows(1000));
        assert_eq!(c.entries(), 0);
        assert_eq!(bytes(&c), 0);
    }

    /// The map and the slot hold one shared copy of a key, and an
    /// eviction or an invalidation lets go of both.
    #[test]
    fn a_resident_key_is_stored_once() {
        let c = ResultCache::new(charge(&key(1, 1, "a"), &rows(1)));
        let resident = |c: &ResultCache| {
            let inner = c.inner.lock();
            let k = inner.keys().next().expect("one answer resident");
            assert_eq!(Arc::strong_count(k), 2, "the map's and the slot's");
            k.clone()
        };
        c.put(key(1, 1, "a"), rows(1));
        let a = resident(&c);
        c.put(key(2, 1, "b"), rows(1));
        assert_eq!(Arc::strong_count(&a), 1, "evicted");
        let b = resident(&c);
        c.invalidate_generation(2);
        assert_eq!(Arc::strong_count(&b), 1, "invalidated");
        assert_eq!(c.entries(), 0);
    }

    #[test]
    fn invalidate_generation_frees_bytes() {
        let c = ResultCache::new(1 << 20);
        c.put(key(1, 1, "a"), rows(2));
        c.put(key(2, 1, "b"), rows(2));
        c.invalidate_generation(1);
        assert!(c.get(&key(1, 1, "a")).is_none());
        assert!(c.get(&key(2, 1, "b")).is_some());
        assert_eq!(c.entries(), 1);
    }
}
