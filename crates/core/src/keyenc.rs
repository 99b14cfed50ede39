//! Order-preserving (memcmp-comparable) primary-key encoding.
//!
//! Every tablet stores rows sorted by primary key, block indexes store
//! last-keys, and the merge cursor compares keys from many tablets — so the
//! engine encodes each key once into a byte string whose `memcmp` order
//! equals the typed tuple order:
//!
//! * integers and timestamps: 8 bytes big-endian with the sign bit flipped
//!   (`int32` key components are encoded at 64-bit width so widening a key
//!   column never reorders a table);
//! * strings and blobs: `0x00` bytes escaped as `0x00 0xFF`, terminated by
//!   `0x00 0x00` — so shorter strings sort before their extensions and the
//!   terminator sorts below every escaped byte;
//! * doubles are not permitted in keys (see schema validation).
//!
//! A *prefix* of key components encodes to a byte-prefix of every full key
//! that starts with those components, which is what makes the paper's
//! "query by network" / "query by network and device" patterns single
//! contiguous ranges.

use crate::error::{Error, Result};
use crate::value::{ColumnType, Value};
use std::ops::Bound;

/// Appends the order-preserving encoding of one key component.
pub fn encode_component(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::I32(x) => encode_int(out, *x as i64),
        Value::I64(x) => encode_int(out, *x),
        Value::Timestamp(x) => encode_int(out, *x),
        Value::Str(s) => encode_bytes(out, s.as_bytes()),
        Value::Blob(b) => encode_bytes(out, b),
        Value::F64(_) => return Err(Error::invalid("double values cannot be key components")),
    }
    Ok(())
}

/// Appends the encoding of an integer or timestamp key component.
#[inline]
pub fn encode_int(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&((v as u64) ^ (1u64 << 63)).to_be_bytes());
}

/// Appends the encoding of a string or blob key component.
#[inline]
pub fn encode_bytes(out: &mut Vec<u8>, b: &[u8]) {
    for &byte in b {
        if byte == 0 {
            out.push(0);
            out.push(0xFF);
        } else {
            out.push(byte);
        }
    }
    out.push(0);
    out.push(0);
}

/// Encodes a full key or key prefix: `values` must match a prefix of
/// `types` (the schema's key column types, trailing timestamp included).
pub fn encode_prefix(values: &[Value], types: &[ColumnType]) -> Result<Vec<u8>> {
    if values.len() > types.len() {
        return Err(Error::invalid(format!(
            "key prefix has {} components but the key has {}",
            values.len(),
            types.len()
        )));
    }
    let mut out = Vec::with_capacity(values.len() * 9);
    for (v, &ty) in values.iter().zip(types) {
        if !v.fits(ty) {
            return Err(Error::invalid(format!(
                "key component of type {} does not fit key column of type {}",
                v.column_type(),
                ty
            )));
        }
        encode_component(&mut out, v)?;
    }
    Ok(out)
}

/// Decodes a full key back into typed values, given the key column types.
pub fn decode_key(mut key: &[u8], types: &[ColumnType]) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(types.len());
    for &ty in types {
        let (v, rest) = decode_component(key, ty)?;
        out.push(v);
        key = rest;
    }
    if !key.is_empty() {
        return Err(Error::corrupt("trailing bytes after key"));
    }
    Ok(out)
}

fn decode_component(key: &[u8], ty: ColumnType) -> Result<(Value, &[u8])> {
    match ty {
        ColumnType::I32 | ColumnType::I64 | ColumnType::Timestamp => {
            if key.len() < 8 {
                return Err(Error::corrupt("key integer truncated"));
            }
            let raw = u64::from_be_bytes(key[..8].try_into().unwrap());
            let v = (raw ^ (1u64 << 63)) as i64;
            let value = match ty {
                ColumnType::I32 => {
                    let v32 =
                        i32::try_from(v).map_err(|_| Error::corrupt("i32 key out of range"))?;
                    Value::I32(v32)
                }
                ColumnType::I64 => Value::I64(v),
                _ => Value::Timestamp(v),
            };
            Ok((value, &key[8..]))
        }
        ColumnType::Str | ColumnType::Blob => {
            let mut bytes = Vec::new();
            let mut i = 0;
            loop {
                if i + 1 > key.len() && i >= key.len() {
                    return Err(Error::corrupt("key string unterminated"));
                }
                let b = *key
                    .get(i)
                    .ok_or_else(|| Error::corrupt("key string truncated"))?;
                if b == 0 {
                    let next = *key
                        .get(i + 1)
                        .ok_or_else(|| Error::corrupt("key escape truncated"))?;
                    if next == 0 {
                        i += 2;
                        break;
                    } else if next == 0xFF {
                        bytes.push(0);
                        i += 2;
                    } else {
                        return Err(Error::corrupt("bad key escape"));
                    }
                } else {
                    bytes.push(b);
                    i += 1;
                }
            }
            let value = match ty {
                ColumnType::Str => Value::Str(
                    String::from_utf8(bytes).map_err(|_| Error::corrupt("key string not UTF-8"))?,
                ),
                _ => Value::Blob(bytes),
            };
            Ok((value, &key[i..]))
        }
        ColumnType::F64 => Err(Error::corrupt("double in encoded key")),
    }
}

/// Returns the offset just past the key component of type `ty` that
/// starts at `start` inside an encoded key. Components self-delimit, so
/// walking a key with this yields the end of every key *prefix* — which
/// is how a tablet's Bloom filter comes to hold each prefix, so prefix
/// lookups can consult it.
pub fn component_end(key: &[u8], start: usize, ty: ColumnType) -> Result<usize> {
    let mut pos = start;
    match ty {
        ColumnType::I32 | ColumnType::I64 | ColumnType::Timestamp => {
            pos += 8;
            if pos > key.len() {
                return Err(Error::corrupt("key integer truncated"));
            }
        }
        ColumnType::Str | ColumnType::Blob => loop {
            let b = *key
                .get(pos)
                .ok_or_else(|| Error::corrupt("key string truncated"))?;
            pos += 1;
            if b == 0 {
                let n = *key
                    .get(pos)
                    .ok_or_else(|| Error::corrupt("key escape truncated"))?;
                pos += 1;
                if n == 0 {
                    break;
                }
                if n != 0xFF {
                    return Err(Error::corrupt("bad key escape"));
                }
            }
        },
        ColumnType::F64 => return Err(Error::corrupt("double in encoded key")),
    }
    Ok(pos)
}

/// The smallest byte string greater than every string with prefix `p`, or
/// `None` when `p` is all `0xFF` (no upper bound exists).
pub fn prefix_successor(mut p: Vec<u8>) -> Option<Vec<u8>> {
    while let Some(&last) = p.last() {
        if last == 0xFF {
            p.pop();
        } else {
            *p.last_mut().unwrap() += 1;
            return Some(p);
        }
    }
    None
}

/// An encoded-key range with inclusive/exclusive bounds, the key dimension
/// of the paper's two-dimensional query bounding box.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyRange {
    /// Lower bound on encoded keys.
    pub start: Bound<Vec<u8>>,
    /// Upper bound on encoded keys.
    pub end: Bound<Vec<u8>>,
}

impl KeyRange {
    /// The whole key space.
    pub fn all() -> Self {
        KeyRange {
            start: Bound::Unbounded,
            end: Bound::Unbounded,
        }
    }

    /// All keys beginning with the given encoded prefix.
    pub fn for_prefix(encoded: Vec<u8>) -> Self {
        let end = match prefix_successor(encoded.clone()) {
            Some(s) => Bound::Excluded(s),
            None => Bound::Unbounded,
        };
        KeyRange {
            start: Bound::Included(encoded),
            end,
        }
    }

    /// Builds a range from prefix bounds with subtree semantics: an
    /// inclusive bound includes every key extending the prefix, an
    /// exclusive bound excludes all of them.
    pub fn from_bounds(min: Option<(Vec<u8>, bool)>, max: Option<(Vec<u8>, bool)>) -> Self {
        let start = match min {
            None => Bound::Unbounded,
            Some((enc, true)) => Bound::Included(enc),
            Some((enc, false)) => match prefix_successor(enc) {
                Some(s) => Bound::Included(s),
                None => Bound::Excluded(vec![0xFF; 0]), // degenerate: nothing above
            },
        };
        let end = match max {
            None => Bound::Unbounded,
            Some((enc, true)) => match prefix_successor(enc) {
                Some(s) => Bound::Excluded(s),
                None => Bound::Unbounded,
            },
            Some((enc, false)) => Bound::Excluded(enc),
        };
        KeyRange { start, end }
    }

    /// True when `key` lies inside the range.
    pub fn contains(&self, key: &[u8]) -> bool {
        let lower_ok = match &self.start {
            Bound::Unbounded => true,
            Bound::Included(s) => key >= s.as_slice(),
            Bound::Excluded(s) => key > s.as_slice(),
        };
        let upper_ok = match &self.end {
            Bound::Unbounded => true,
            Bound::Included(e) => key <= e.as_slice(),
            Bound::Excluded(e) => key < e.as_slice(),
        };
        lower_ok && upper_ok
    }

    /// Whether a block whose largest key is `last` can hold a key at or
    /// past the range's lower bound. Decided from a tablet's block index,
    /// before the block is read.
    pub fn span_reaches_start(&self, last: &[u8]) -> bool {
        match &self.start {
            Bound::Unbounded => true,
            Bound::Included(s) => last >= s.as_slice(),
            Bound::Excluded(s) => last > s.as_slice(),
        }
    }

    /// Whether a block all of whose keys sort after `prev_last` (the
    /// largest key of the block before it, empty for a tablet's first
    /// block) can hold a key at or before the range's upper bound.
    pub fn span_reaches_end(&self, prev_last: &[u8]) -> bool {
        match &self.end {
            Bound::Unbounded => true,
            // Every key is > prev_last: once prev_last >= e, none can be
            // <= e (let alone < e).
            Bound::Included(e) | Bound::Excluded(e) => prev_last < e.as_slice(),
        }
    }

    /// Whether a block whose keys lie in `(prev_last, last]` lies entirely
    /// inside the range.
    pub fn contains_span(&self, prev_last: &[u8], last: &[u8]) -> bool {
        let start_ok = match &self.start {
            Bound::Unbounded => true,
            // Every key is > prev_last, so prev_last >= s proves every
            // key > s (which satisfies both bound kinds).
            Bound::Included(s) | Bound::Excluded(s) => prev_last >= s.as_slice(),
        };
        let end_ok = match &self.end {
            Bound::Unbounded => true,
            Bound::Included(e) => last <= e.as_slice(),
            Bound::Excluded(e) => last < e.as_slice(),
        };
        start_ok && end_ok
    }

    /// True when no key can satisfy the range.
    pub fn is_certainly_empty(&self) -> bool {
        match (&self.start, &self.end) {
            (Bound::Included(s), Bound::Excluded(e)) => s >= e,
            (Bound::Included(s), Bound::Included(e)) => s > e,
            (Bound::Excluded(s), Bound::Excluded(e)) => s >= e,
            (Bound::Excluded(s), Bound::Included(e)) => s > e,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn enc1(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_component(&mut out, v).unwrap();
        out
    }

    #[test]
    fn integers_sort_correctly() {
        let vals = [i64::MIN, -100, -1, 0, 1, 100, i64::MAX];
        for w in vals.windows(2) {
            assert!(
                enc1(&Value::I64(w[0])) < enc1(&Value::I64(w[1])),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn i32_and_i64_encode_identically() {
        assert_eq!(enc1(&Value::I32(-7)), enc1(&Value::I64(-7)));
        assert_eq!(
            enc1(&Value::I32(i32::MAX)),
            enc1(&Value::I64(i32::MAX as i64))
        );
    }

    #[test]
    fn strings_sort_with_prefix_rules() {
        let cases = [
            ("", "a"),
            ("a", "a\0"),
            ("a\0", "a\x01"),
            ("a\0", "ab"),
            ("ab", "b"),
            ("a", "aa"),
        ];
        for (lo, hi) in cases {
            assert!(
                enc1(&Value::Str(lo.into())) < enc1(&Value::Str(hi.into())),
                "{lo:?} !< {hi:?}"
            );
        }
    }

    #[test]
    fn doubles_are_rejected() {
        let mut out = Vec::new();
        assert!(encode_component(&mut out, &Value::F64(1.0)).is_err());
    }

    #[test]
    fn tuple_encoding_orders_lexicographically() {
        let types = [ColumnType::Str, ColumnType::I64, ColumnType::Timestamp];
        let k = |s: &str, d: i64, t: i64| {
            encode_prefix(
                &[Value::Str(s.into()), Value::I64(d), Value::Timestamp(t)],
                &types,
            )
            .unwrap()
        };
        assert!(k("net1", 1, 10) < k("net1", 1, 11));
        assert!(k("net1", 1, 999) < k("net1", 2, 0));
        assert!(k("net1", 99, 999) < k("net2", 0, 0));
    }

    #[test]
    fn prefix_is_byte_prefix_of_extensions() {
        let types = [ColumnType::Str, ColumnType::I64, ColumnType::Timestamp];
        let p = encode_prefix(&[Value::Str("net1".into())], &types).unwrap();
        let full = encode_prefix(
            &[
                Value::Str("net1".into()),
                Value::I64(5),
                Value::Timestamp(3),
            ],
            &types,
        )
        .unwrap();
        assert!(full.starts_with(&p));
    }

    #[test]
    fn prefix_too_long_or_mistyped_fails() {
        let types = [ColumnType::I64, ColumnType::Timestamp];
        assert!(
            encode_prefix(&[Value::I64(1), Value::Timestamp(2), Value::I64(3)], &types).is_err()
        );
        assert!(encode_prefix(&[Value::Str("x".into())], &types).is_err());
    }

    #[test]
    fn decode_key_round_trips() {
        let types = [
            ColumnType::Str,
            ColumnType::I32,
            ColumnType::Blob,
            ColumnType::Timestamp,
        ];
        let vals = vec![
            Value::Str("a\0b".into()),
            Value::I32(-9),
            Value::Blob(vec![0, 1, 0, 255]),
            Value::Timestamp(123_456),
        ];
        let enc = encode_prefix(&vals, &types).unwrap();
        assert_eq!(decode_key(&enc, &types).unwrap(), vals);
    }

    #[test]
    fn decode_rejects_garbage() {
        let types = [ColumnType::I64, ColumnType::Timestamp];
        assert!(decode_key(&[1, 2, 3], &types).is_err());
        // trailing bytes
        let mut enc = encode_prefix(&[Value::I64(1), Value::Timestamp(2)], &types).unwrap();
        enc.push(0);
        assert!(decode_key(&enc, &types).is_err());
    }

    #[test]
    fn component_ends_walk_every_prefix() {
        let types = [ColumnType::Str, ColumnType::I32, ColumnType::Timestamp];
        let vals = [
            Value::Str("a\0b".into()),
            Value::I32(-9),
            Value::Timestamp(7),
        ];
        let key = encode_prefix(&vals, &types).unwrap();
        let mut pos = 0;
        for (n, &ty) in types.iter().enumerate() {
            pos = component_end(&key, pos, ty).unwrap();
            assert_eq!(key[..pos], encode_prefix(&vals[..=n], &types).unwrap()[..]);
        }
        assert_eq!(pos, key.len());
        assert!(component_end(&key, pos, ColumnType::I64).is_err());
        assert!(component_end(&key[..3], 0, ColumnType::Str).is_err());
        assert!(component_end(b"a\0\x07", 0, ColumnType::Blob).is_err());
        assert!(component_end(&key, 0, ColumnType::F64).is_err());
    }

    #[test]
    fn prefix_successor_rules() {
        assert_eq!(prefix_successor(vec![1, 2, 3]), Some(vec![1, 2, 4]));
        assert_eq!(prefix_successor(vec![1, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_successor(vec![0xFF, 0xFF]), None);
        assert_eq!(prefix_successor(vec![]), None);
    }

    #[test]
    fn key_range_for_prefix_contains_exactly_subtree() {
        let types = [ColumnType::I64, ColumnType::I64, ColumnType::Timestamp];
        let p = encode_prefix(&[Value::I64(5)], &types).unwrap();
        let range = KeyRange::for_prefix(p);
        let inside =
            encode_prefix(&[Value::I64(5), Value::I64(0), Value::Timestamp(0)], &types).unwrap();
        let below =
            encode_prefix(&[Value::I64(4), Value::I64(9), Value::Timestamp(9)], &types).unwrap();
        let above =
            encode_prefix(&[Value::I64(6), Value::I64(0), Value::Timestamp(0)], &types).unwrap();
        assert!(range.contains(&inside));
        assert!(!range.contains(&below));
        assert!(!range.contains(&above));
    }

    #[test]
    fn from_bounds_subtree_semantics() {
        let types = [ColumnType::I64, ColumnType::Timestamp];
        let p5 = encode_prefix(&[Value::I64(5)], &types).unwrap();
        let p7 = encode_prefix(&[Value::I64(7)], &types).unwrap();
        let in5 = encode_prefix(&[Value::I64(5), Value::Timestamp(1)], &types).unwrap();
        let in7 = encode_prefix(&[Value::I64(7), Value::Timestamp(1)], &types).unwrap();
        let in6 = encode_prefix(&[Value::I64(6), Value::Timestamp(1)], &types).unwrap();

        // [5, 7] inclusive both: contains rows under 5, 6, and 7.
        let r = KeyRange::from_bounds(Some((p5.clone(), true)), Some((p7.clone(), true)));
        assert!(r.contains(&in5) && r.contains(&in6) && r.contains(&in7));

        // (5, 7) exclusive both: only rows under 6.
        let r = KeyRange::from_bounds(Some((p5.clone(), false)), Some((p7.clone(), false)));
        assert!(!r.contains(&in5) && r.contains(&in6) && !r.contains(&in7));
    }

    #[test]
    fn empty_range_detected() {
        let r = KeyRange::from_bounds(Some((vec![9], true)), Some((vec![3], false)));
        assert!(r.is_certainly_empty());
        assert!(!KeyRange::all().is_certainly_empty());
    }

    proptest! {
        #[test]
        fn prop_int_order_preserved(a in any::<i64>(), b in any::<i64>()) {
            let ea = enc1(&Value::I64(a));
            let eb = enc1(&Value::I64(b));
            prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
        }

        #[test]
        fn prop_string_order_preserved(a in ".*", b in ".*") {
            let ea = enc1(&Value::Str(a.clone()));
            let eb = enc1(&Value::Str(b.clone()));
            prop_assert_eq!(a.as_bytes().cmp(b.as_bytes()), ea.cmp(&eb));
        }

        #[test]
        fn prop_blob_order_preserved(
            a in proptest::collection::vec(any::<u8>(), 0..64),
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let ea = enc1(&Value::Blob(a.clone()));
            let eb = enc1(&Value::Blob(b.clone()));
            prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
        }

        #[test]
        fn prop_key_round_trip(
            s in ".*",
            n in any::<i64>(),
            t in any::<i64>(),
        ) {
            let types = [ColumnType::Str, ColumnType::I64, ColumnType::Timestamp];
            let vals = vec![Value::Str(s), Value::I64(n), Value::Timestamp(t)];
            let enc = encode_prefix(&vals, &types).unwrap();
            prop_assert_eq!(decode_key(&enc, &types).unwrap(), vals);
        }

        #[test]
        fn prop_successor_is_upper_bound(
            p in proptest::collection::vec(any::<u8>(), 1..16),
            ext in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            if let Some(s) = prefix_successor(p.clone()) {
                let mut extended = p.clone();
                extended.extend_from_slice(&ext);
                prop_assert!(extended < s);
                prop_assert!(p < s);
            }
        }
    }
}
