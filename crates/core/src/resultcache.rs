//! The invalidation-aware query-result cache.
//!
//! Dashboards re-issue the same aggregate queries over and over
//! (§4.1.2's aggregator workload); when nothing has changed since the
//! last run, re-walking tablets — or even rollup tables — is pure waste.
//! This cache stores *finished* result sets keyed by everything that
//! could change the answer:
//!
//! * the table **generation** — a process-unique incarnation number, so
//!   a drop/recreate cycle can never serve rows computed against the
//!   previous incarnation;
//! * the table's **insert sequence** at the time the result was
//!   computed — any insert (or bulk delete) bumps it, so a cached entry
//!   is self-invalidating the moment the table's contents change;
//! * the **TTL cutoff** in effect — time passing expires rows, and two
//!   queries straddling an expiry boundary may legitimately differ;
//! * the serialized **question**: bounding box, predicates, grouping,
//!   and aggregate list, encoded by the SQL layer.
//!
//! There is deliberately no publish-subscribe invalidation path for
//! inserts: staleness is impossible by construction because the key
//! embeds the insert sequence. [`ResultCache::invalidate_generation`]
//! exists only to promptly reclaim memory when a table is dropped.
//!
//! The cache's budget is a carve-out from the block cache's joint budget
//! ([`crate::Options::RESULT_CACHE_FRACTION`]), so enabling it never
//! increases total cache memory. Hits and misses are counted per table,
//! by the caller ([`crate::stats::TableStats::result_cache_hits`]).

use crate::value::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything that identifies a cached result. Equal keys are guaranteed
/// to have equal answers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// The table's process-unique incarnation number
    /// ([`crate::Table::generation`]).
    pub generation: u64,
    /// The table's insert sequence when the result was computed
    /// ([`crate::Table::insert_seq`]).
    pub insert_seq: u64,
    /// The TTL expiry cutoff (in micros) in effect for the query;
    /// `i64::MIN` when the table has no TTL.
    pub ttl_cutoff: i64,
    /// Serialized query shape: bounding box, residual predicates,
    /// grouping, aggregates, and limit, as encoded by the SQL executor.
    pub question: Vec<u8>,
}

/// A finished, immutable result set.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRows {
    /// Output column labels, in SELECT order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl CachedRows {
    fn charge(&self, key: &ResultKey) -> usize {
        let mut bytes = 128 + key.question.len();
        for c in &self.columns {
            bytes += 24 + c.len();
        }
        for row in &self.rows {
            bytes += 24;
            for v in row {
                bytes += v.mem_size();
            }
        }
        bytes
    }
}

struct Entry {
    rows: Arc<CachedRows>,
    charge: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<ResultKey, Entry>,
    bytes: usize,
    tick: u64,
}

/// A budgeted LRU cache of finished aggregate result sets. All methods
/// are safe to call concurrently.
pub struct ResultCache {
    budget: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// Creates a cache charged against `budget` bytes.
    pub fn new(budget: usize) -> Self {
        ResultCache {
            budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Byte budget this cache was created with.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Looks up a result. A hit refreshes the entry's recency.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<CachedRows>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.map.get_mut(key)?;
        e.last_used = tick;
        Some(e.rows.clone())
    }

    /// Inserts a result, evicting least-recently-used entries to stay
    /// within budget. Results larger than the whole budget are ignored.
    pub fn put(&self, key: ResultKey, rows: Arc<CachedRows>) {
        let charge = rows.charge(&key);
        if charge > self.budget {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                rows,
                charge,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.charge;
        }
        inner.bytes += charge;
        while inner.bytes > self.budget {
            // O(n) victim scan; the cache holds few, large entries, so
            // a heap or intrusive list would be bookkeeping for nothing.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.charge;
            }
        }
    }

    /// Drops every entry computed against the given table generation.
    /// Correctness never depends on this — keys embed the generation —
    /// but dropping a table should release its memory promptly.
    pub fn invalidate_generation(&self, generation: u64) {
        let mut inner = self.inner.lock();
        let mut freed = 0usize;
        inner.map.retain(|k, e| {
            if k.generation == generation {
                freed += e.charge;
                false
            } else {
                true
            }
        });
        inner.bytes -= freed;
    }

    /// Entries currently resident.
    pub fn entries(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Estimated bytes currently charged.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, insert_seq: u64, q: &[u8]) -> ResultKey {
        ResultKey {
            generation,
            insert_seq,
            ttl_cutoff: i64::MIN,
            question: q.to_vec(),
        }
    }

    fn rows(n: usize) -> Arc<CachedRows> {
        Arc::new(CachedRows {
            columns: vec!["sum(v)".into()],
            rows: (0..n).map(|i| vec![Value::I64(i as i64)]).collect(),
        })
    }

    #[test]
    fn hit_and_miss_round_trip() {
        let c = ResultCache::new(1 << 20);
        let k = key(1, 5, b"q1");
        assert!(c.get(&k).is_none());
        c.put(k.clone(), rows(3));
        assert_eq!(c.get(&k).unwrap().rows.len(), 3);
    }

    #[test]
    fn different_seq_or_generation_misses() {
        let c = ResultCache::new(1 << 20);
        c.put(key(1, 5, b"q1"), rows(3));
        assert!(c.get(&key(1, 6, b"q1")).is_none());
        assert!(c.get(&key(2, 5, b"q1")).is_none());
        assert!(c.get(&key(1, 5, b"q2")).is_none());
    }

    #[test]
    fn evicts_lru_to_stay_within_budget() {
        let one = rows(1).charge(&key(1, 1, b"a"));
        let c = ResultCache::new(3 * one + one / 2);
        c.put(key(1, 1, b"a"), rows(1));
        c.put(key(1, 1, b"b"), rows(1));
        c.put(key(1, 1, b"c"), rows(1));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(&key(1, 1, b"a")).is_some());
        c.put(key(1, 1, b"d"), rows(1));
        assert!(c.bytes() <= c.budget());
        assert!(c.get(&key(1, 1, b"b")).is_none());
        assert!(c.get(&key(1, 1, b"a")).is_some());
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let c = ResultCache::new(64);
        c.put(key(1, 1, b"big"), rows(1000));
        assert_eq!(c.entries(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn invalidate_generation_frees_bytes() {
        let c = ResultCache::new(1 << 20);
        c.put(key(1, 1, b"a"), rows(2));
        c.put(key(2, 1, b"b"), rows(2));
        c.invalidate_generation(1);
        assert!(c.get(&key(1, 1, b"a")).is_none());
        assert!(c.get(&key(2, 1, b"b")).is_some());
        assert_eq!(c.entries(), 1);
    }
}
