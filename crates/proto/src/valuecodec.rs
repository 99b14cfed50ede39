//! Tagged value, row, and query serialization shared by requests and
//! responses.

use littletable_core::error::{Error, Result};
use littletable_core::query::{PrefixBound, Query, TsBound};
use littletable_core::schema::{decode_value, encode_value};
use littletable_core::util::{put_varint, unzigzag, zigzag, Reader};
use littletable_core::value::{ColumnType, Value, ValueRef};
use littletable_core::RowRun;

/// Wire tag for an absent cell (NULL). The engine has no NULLs (§3.5);
/// this tag exists only in insert rows, where an absent timestamp means
/// "server, stamp this row with your current time" (§3.1). Disjoint from
/// every [`ColumnType::tag`].
pub const NULL_TAG: u8 = 0xFF;

/// Appends a type-tagged value: the one encoder of a cell on the wire,
/// whether the cell comes out of a [`Value`] ([`Value::as_ref`]) or out
/// of a column slice.
pub fn put_tagged_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    out.push(v.column_type().tag());
    encode_value(out, v);
}

/// Reads a type-tagged value. `from_tag` inlines to a range check on the
/// tag byte and `decode_value`'s match on it is the cell's one dispatch.
#[inline]
pub fn get_tagged_value(r: &mut Reader<'_>) -> Result<Value> {
    let ty = ColumnType::from_tag(r.u8()?)?;
    decode_value(r, ty)
}

/// Appends a possibly-absent cell: [`NULL_TAG`] for `None`, the tagged
/// value otherwise.
pub fn put_opt_tagged_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => out.push(NULL_TAG),
        Some(v) => put_tagged_value(out, v.as_ref()),
    }
}

/// Reads a possibly-absent cell written by [`put_opt_tagged_value`].
pub fn get_opt_tagged_value(r: &mut Reader<'_>) -> Result<Option<Value>> {
    let tag = r.u8()?;
    if tag == NULL_TAG {
        return Ok(None);
    }
    let ty = ColumnType::from_tag(tag)?;
    decode_value(r, ty).map(Some)
}

/// Appends a list of tagged values (one row or key prefix).
pub fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_varint(out, values.len() as u64);
    for v in values {
        put_tagged_value(out, v.as_ref());
    }
}

/// Reads a list of tagged values. A cell is at least a byte, so the
/// reservation is capped by what is left to read, whatever the count
/// claims.
pub fn get_values(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    let n = r.varint()? as usize;
    if n > 1 << 20 {
        return Err(Error::corrupt("implausible value count"));
    }
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(get_tagged_value(r)?);
    }
    Ok(out)
}

/// Appends a list of rows.
pub fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_varint(out, rows.len() as u64);
    for row in rows {
        put_values(out, row);
    }
}

/// Appends the rows of `run`, in its result order, exactly as
/// [`put_values`] would append each of them materialized — read in place
/// off the block's column slices instead. The caller writes the row
/// count ([`put_rows`]' prefix) for all of a response's runs together.
pub fn put_run(out: &mut Vec<u8>, run: &RowRun) {
    let block = &*run.block;
    let ncols = block.num_columns();
    for i in run.indices() {
        put_varint(out, ncols as u64);
        for c in 0..ncols {
            put_tagged_value(out, block.column(c).value_ref(i));
        }
    }
}

/// Reads a list of rows, reserving for no more rows than there are bytes
/// left (a row is at least its one-byte cell count).
pub fn get_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<Value>>> {
    let n = r.varint()? as usize;
    if n > 1 << 24 {
        return Err(Error::corrupt("implausible row count"));
    }
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(get_values(r)?);
    }
    Ok(out)
}

/// Appends insert rows, whose cells may be absent ([`NULL_TAG`]).
pub fn put_insert_rows(out: &mut Vec<u8>, rows: &[Vec<Option<Value>>]) {
    put_varint(out, rows.len() as u64);
    for row in rows {
        put_varint(out, row.len() as u64);
        for v in row {
            put_opt_tagged_value(out, v);
        }
    }
}

/// Reads insert rows written by [`put_insert_rows`].
pub fn get_insert_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<Option<Value>>>> {
    let n = r.varint()? as usize;
    if n > 1 << 24 {
        return Err(Error::corrupt("implausible row count"));
    }
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let m = r.varint()? as usize;
        if m > 1 << 20 {
            return Err(Error::corrupt("implausible value count"));
        }
        let mut row = Vec::with_capacity(m.min(1 << 16));
        for _ in 0..m {
            row.push(get_opt_tagged_value(r)?);
        }
        out.push(row);
    }
    Ok(out)
}

fn put_prefix_bound(out: &mut Vec<u8>, b: &Option<PrefixBound>) {
    match b {
        None => out.push(0),
        Some(pb) => {
            out.push(if pb.inclusive { 2 } else { 1 });
            put_values(out, &pb.values);
        }
    }
}

fn get_prefix_bound(r: &mut Reader<'_>) -> Result<Option<PrefixBound>> {
    match r.u8()? {
        0 => Ok(None),
        t @ (1 | 2) => Ok(Some(PrefixBound {
            inclusive: t == 2,
            values: get_values(r)?,
        })),
        t => Err(Error::corrupt(format!("bad prefix bound tag {t}"))),
    }
}

fn put_ts_bound(out: &mut Vec<u8>, b: &Option<TsBound>) {
    match b {
        None => out.push(0),
        Some(tb) => {
            out.push(if tb.inclusive { 2 } else { 1 });
            put_varint(out, zigzag(tb.ts));
        }
    }
}

fn get_ts_bound(r: &mut Reader<'_>) -> Result<Option<TsBound>> {
    match r.u8()? {
        0 => Ok(None),
        t @ (1 | 2) => Ok(Some(TsBound {
            inclusive: t == 2,
            ts: unzigzag(r.varint()?),
        })),
        t => Err(Error::corrupt(format!("bad ts bound tag {t}"))),
    }
}

/// Serializes a [`Query`].
pub fn put_query(out: &mut Vec<u8>, q: &Query) {
    put_prefix_bound(out, &q.key_min);
    put_prefix_bound(out, &q.key_max);
    put_ts_bound(out, &q.ts_min);
    put_ts_bound(out, &q.ts_max);
    out.push(q.descending as u8);
    match q.limit {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            put_varint(out, n as u64);
        }
    }
}

/// Deserializes a [`Query`].
pub fn get_query(r: &mut Reader<'_>) -> Result<Query> {
    let key_min = get_prefix_bound(r)?;
    let key_max = get_prefix_bound(r)?;
    let ts_min = get_ts_bound(r)?;
    let ts_max = get_ts_bound(r)?;
    let descending = r.u8()? != 0;
    let limit = match r.u8()? {
        0 => None,
        1 => Some(r.varint()? as usize),
        t => return Err(Error::corrupt(format!("bad limit tag {t}"))),
    };
    Ok(Query {
        key_min,
        key_max,
        ts_min,
        ts_max,
        descending,
        limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let vals = vec![
            Value::I32(-5),
            Value::I64(1 << 40),
            Value::F64(2.5),
            Value::Timestamp(1_700_000_000_000_000),
            Value::Str("net\0work".into()),
            Value::Blob(vec![0, 255, 7]),
        ];
        let mut buf = Vec::new();
        put_values(&mut buf, &vals);
        let mut r = Reader::new(&buf);
        assert_eq!(get_values(&mut r).unwrap(), vals);
        assert!(r.is_empty());
    }

    #[test]
    fn rows_round_trip() {
        let rows = vec![
            vec![Value::I64(1), Value::Timestamp(2)],
            vec![Value::I64(3), Value::Timestamp(4)],
        ];
        let mut buf = Vec::new();
        put_rows(&mut buf, &rows);
        assert_eq!(get_rows(&mut Reader::new(&buf)).unwrap(), rows);
    }

    #[test]
    fn queries_round_trip() {
        let q = Query::all()
            .with_key_min(vec![Value::I64(1)], true)
            .with_key_max(vec![Value::I64(9), Value::Str("x".into())], false)
            .with_ts_range(100, 200)
            .descending()
            .with_limit(42);
        let mut buf = Vec::new();
        put_query(&mut buf, &q);
        assert_eq!(get_query(&mut Reader::new(&buf)).unwrap(), q);
        // And the empty query.
        let mut buf = Vec::new();
        put_query(&mut buf, &Query::all());
        assert_eq!(get_query(&mut Reader::new(&buf)).unwrap(), Query::all());
    }

    #[test]
    fn insert_rows_with_null_cells_round_trip() {
        let rows: Vec<Vec<Option<Value>>> = vec![
            vec![Some(Value::I64(1)), None, Some(Value::Str("a".into()))],
            vec![
                Some(Value::I64(2)),
                Some(Value::Timestamp(7)),
                Some(Value::Str("b".into())),
            ],
            vec![None],
        ];
        let mut buf = Vec::new();
        put_insert_rows(&mut buf, &rows);
        let mut r = Reader::new(&buf);
        assert_eq!(get_insert_rows(&mut r).unwrap(), rows);
        assert!(r.is_empty());
    }

    #[test]
    fn corrupt_input_is_rejected() {
        let mut buf = Vec::new();
        put_values(&mut buf, &[Value::I64(5)]);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(get_values(&mut r).is_err() || cut == 0);
        }
    }

    #[test]
    fn hostile_counts_are_errors() {
        // The largest counts each reader accepts, over a few bytes.
        for (count, body) in [(1u64 << 24, &[1u8, 1, 0][..]), (1 << 20, &[1, 0])] {
            let mut buf = Vec::new();
            put_varint(&mut buf, count);
            buf.extend_from_slice(body);
            assert!(get_rows(&mut Reader::new(&buf)).is_err());
            assert!(get_values(&mut Reader::new(&buf)).is_err());
        }
        // One row claiming a million cells.
        let mut buf = vec![1];
        put_varint(&mut buf, 1 << 20);
        assert!(get_rows(&mut Reader::new(&buf)).is_err());
    }

    /// The decoder [`get_rows`] replaced — a type lookup, then a match
    /// on the type, per cell; a reservation of whatever count the input
    /// claims — kept as the reference it is held to.
    fn ref_get_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<Value>>> {
        use littletable_core::value::ColumnType;
        let ref_get_values = |r: &mut Reader<'_>| -> Result<Vec<Value>> {
            let n = r.varint()? as usize;
            if n > 1 << 20 {
                return Err(Error::corrupt("implausible value count"));
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(match ColumnType::from_tag(r.u8()?)? {
                    ColumnType::I32 => {
                        let v = unzigzag(r.varint()?);
                        let v32 =
                            i32::try_from(v).map_err(|_| Error::corrupt("i32 out of range"))?;
                        Value::I32(v32)
                    }
                    ColumnType::I64 => Value::I64(unzigzag(r.varint()?)),
                    ColumnType::F64 => Value::F64(r.f64()?),
                    ColumnType::Timestamp => Value::Timestamp(unzigzag(r.varint()?)),
                    ColumnType::Str => Value::Str(r.string()?),
                    ColumnType::Blob => Value::Blob(r.len_prefixed()?.to_vec()),
                });
            }
            Ok(out)
        };
        let n = r.varint()? as usize;
        if n > 1 << 24 {
            return Err(Error::corrupt("implausible row count"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(ref_get_values(r)?);
        }
        Ok(out)
    }

    /// The cell `(ty, r, width)` stands for: every type, with integers
    /// whose varints are 1 byte (`width` 0), 9 bytes (1) or 10 bytes (2).
    fn cell(ty: u8, r: u64, width: u8) -> Value {
        let int = match width {
            0 => (r % 128) as i64 - 64,
            1 => (r >> 4 | 1 << 59) as i64,
            _ => (r | 1 << 63) as i64,
        };
        match ty {
            0 => Value::I32(int as i32),
            1 => Value::I64(int),
            2 => Value::F64(f64::from_bits(r)),
            3 => Value::Timestamp(int),
            4 => Value::Str("ap-indoor".chars().cycle().take(r as usize % 20).collect()),
            _ => Value::Blob(r.to_le_bytes()[..r as usize % 9].to_vec()),
        }
    }

    /// Decodes `buf` and every truncation and single-bit flip of it with
    /// [`get_rows`] and the reference: the same rows (compared by their
    /// encoding, which NaN cells survive) and the same bytes left, or the
    /// same error.
    fn rows_same_as_reference(buf: &[u8]) {
        let decode = |data: &[u8], get: fn(&mut Reader<'_>) -> Result<Vec<Vec<Value>>>| {
            let mut r = Reader::new(data);
            match get(&mut r) {
                Ok(rows) => {
                    let mut enc = Vec::new();
                    put_rows(&mut enc, &rows);
                    Ok((enc, r.remaining()))
                }
                Err(e) => Err(e.to_string()),
            }
        };
        let check = |data: &[u8], what: &dyn Fn() -> String| {
            assert_eq!(
                decode(data, get_rows),
                decode(data, ref_get_rows),
                "{}",
                what()
            );
        };
        check(buf, &|| "intact".into());
        for cut in 0..buf.len() {
            check(&buf[..cut], &|| format!("cut at {cut}"));
        }
        let mut flipped = buf.to_vec();
        for bit in 0..buf.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &|| format!("bit {bit} flipped"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_get_rows_matches_reference(
            rows in proptest::collection::vec(
                proptest::collection::vec(
                    (0u8..6, proptest::prelude::any::<u64>(), 0u8..3),
                    0..6,
                ),
                0..6,
            ),
        ) {
            let rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|row| row.iter().map(|&(ty, r, width)| cell(ty, r, width)).collect())
                .collect();
            let mut buf = Vec::new();
            put_rows(&mut buf, &rows);
            rows_same_as_reference(&buf);
        }
    }
}
