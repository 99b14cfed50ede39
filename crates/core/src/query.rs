//! Query specification: the two-dimensional bounding box (§3.1).
//!
//! Every LittleTable query is an ordered scan of rows inside a bounding
//! box: a range of primary keys (or prefixes thereof) in one dimension and
//! a range of timestamps in the other, each bound inclusive or exclusive.
//! Results stream in primary-key order, ascending or descending, with an
//! optional row limit.

use crate::error::Result;
use crate::keyenc::{encode_prefix, KeyRange};
use crate::schema::Schema;
use crate::value::Value;
use littletable_vfs::Micros;

/// One bound on a key prefix: the component values and whether the bound
/// is inclusive of the whole prefix subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixBound {
    /// Key component values (a prefix of the key columns, in key order).
    pub values: Vec<Value>,
    /// Inclusive?
    pub inclusive: bool,
}

/// One bound on the timestamp dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsBound {
    /// Bound value in micros.
    pub ts: Micros,
    /// Inclusive?
    pub inclusive: bool,
}

/// A query: key bounds × time bounds, direction, and limit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// Lower key-prefix bound, or `None` for unbounded.
    pub key_min: Option<PrefixBound>,
    /// Upper key-prefix bound, or `None` for unbounded.
    pub key_max: Option<PrefixBound>,
    /// Lower timestamp bound, or `None` for unbounded.
    pub ts_min: Option<TsBound>,
    /// Upper timestamp bound, or `None` for unbounded.
    pub ts_max: Option<TsBound>,
    /// Return rows in descending key order.
    pub descending: bool,
    /// Client-requested row limit.
    pub limit: Option<usize>,
}

impl Query {
    /// A query over the entire table.
    pub fn all() -> Self {
        Query::default()
    }

    /// Restricts to rows whose key starts with `prefix` (both bounds).
    pub fn with_prefix(mut self, prefix: Vec<Value>) -> Self {
        self.key_min = Some(PrefixBound {
            values: prefix.clone(),
            inclusive: true,
        });
        self.key_max = Some(PrefixBound {
            values: prefix,
            inclusive: true,
        });
        self
    }

    /// Sets an inclusive lower key-prefix bound.
    pub fn with_key_min(mut self, values: Vec<Value>, inclusive: bool) -> Self {
        self.key_min = Some(PrefixBound { values, inclusive });
        self
    }

    /// Sets an inclusive upper key-prefix bound.
    pub fn with_key_max(mut self, values: Vec<Value>, inclusive: bool) -> Self {
        self.key_max = Some(PrefixBound { values, inclusive });
        self
    }

    /// Restricts to rows with `ts_min ≤ ts < ts_max` (half-open, the most
    /// common shape).
    pub fn with_ts_range(mut self, min: Micros, max: Micros) -> Self {
        self.ts_min = Some(TsBound {
            ts: min,
            inclusive: true,
        });
        self.ts_max = Some(TsBound {
            ts: max,
            inclusive: false,
        });
        self
    }

    /// Sets the lower timestamp bound.
    pub fn with_ts_min(mut self, ts: Micros, inclusive: bool) -> Self {
        self.ts_min = Some(TsBound { ts, inclusive });
        self
    }

    /// Sets the upper timestamp bound.
    pub fn with_ts_max(mut self, ts: Micros, inclusive: bool) -> Self {
        self.ts_max = Some(TsBound { ts, inclusive });
        self
    }

    /// Returns rows in descending key order.
    pub fn descending(mut self) -> Self {
        self.descending = true;
        self
    }

    /// Caps the number of returned rows.
    pub fn with_limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// The timestamp bounds normalized to a closed interval
    /// `[min, max]` in micros. An exclusive bound past the end of the
    /// range (`ts > Micros::MAX`, `ts < Micros::MIN`) admits no
    /// timestamp at all: the interval comes back empty, `min > max`.
    pub fn ts_interval(&self) -> (Micros, Micros) {
        let lo = match self.ts_min {
            None => Some(Micros::MIN),
            Some(b) if b.inclusive => Some(b.ts),
            Some(b) => b.ts.checked_add(1),
        };
        let hi = match self.ts_max {
            None => Some(Micros::MAX),
            Some(b) if b.inclusive => Some(b.ts),
            Some(b) => b.ts.checked_sub(1),
        };
        match (lo, hi) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => (Micros::MAX, Micros::MIN),
        }
    }

    /// Encodes the key bounds into a byte range under `schema`.
    pub fn key_range(&self, schema: &Schema) -> Result<KeyRange> {
        let types = schema.key_types();
        let enc = |b: &PrefixBound| -> Result<(Vec<u8>, bool)> {
            Ok((encode_prefix(&b.values, &types)?, b.inclusive))
        };
        let min = self.key_min.as_ref().map(enc).transpose()?;
        let max = self.key_max.as_ref().map(enc).transpose()?;
        Ok(KeyRange::from_bounds(min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;

    fn schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("net", ColumnType::I64),
                ColumnDef::new("dev", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["net", "dev", "ts"],
        )
        .unwrap()
    }

    #[test]
    fn ts_interval_normalizes_bounds() {
        let q = Query::all().with_ts_range(100, 200);
        assert_eq!(q.ts_interval(), (100, 199));
        let q = Query::all().with_ts_min(100, false).with_ts_max(200, true);
        assert_eq!(q.ts_interval(), (101, 200));
        assert_eq!(Query::all().ts_interval(), (Micros::MIN, Micros::MAX));
        // Exclusive bounds past either end of the range admit nothing.
        let (lo, hi) = Query::all().with_ts_min(Micros::MAX, false).ts_interval();
        assert!(lo > hi);
        let (lo, hi) = Query::all().with_ts_max(Micros::MIN, false).ts_interval();
        assert!(lo > hi);
    }

    #[test]
    fn prefix_query_builds_subtree_range() {
        let s = schema();
        let q = Query::all().with_prefix(vec![Value::I64(7)]);
        let r = q.key_range(&s).unwrap();
        let full = crate::keyenc::encode_prefix(
            &[Value::I64(7), Value::I64(3), Value::Timestamp(9)],
            &s.key_types(),
        )
        .unwrap();
        assert!(r.contains(&full));
        let other = crate::keyenc::encode_prefix(
            &[Value::I64(8), Value::I64(0), Value::Timestamp(0)],
            &s.key_types(),
        )
        .unwrap();
        assert!(!r.contains(&other));
    }

    #[test]
    fn mistyped_prefix_fails() {
        let s = schema();
        let q = Query::all().with_prefix(vec![Value::Str("x".into())]);
        assert!(q.key_range(&s).is_err());
    }

    #[test]
    fn builder_chains() {
        let q = Query::all()
            .with_key_min(vec![Value::I64(1)], true)
            .with_key_max(vec![Value::I64(9)], false)
            .with_ts_range(0, 10)
            .descending()
            .with_limit(5);
        assert!(q.descending);
        assert_eq!(q.limit, Some(5));
        assert!(!q.key_max.as_ref().unwrap().inclusive);
    }
}
