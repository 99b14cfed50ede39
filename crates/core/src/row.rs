//! Rows, and the decoding of the row entries older tablets store.
//!
//! Tablets written before the columnar block layout store each row as its
//! order-preserving encoded primary key (see [`crate::keyenc`]) followed
//! by a compact varint/zigzag payload of the non-key columns; key column
//! values exist only inside the encoded key. [`decode_row`] reads such an
//! entry back. Nothing writes them any more.

use crate::error::{Error, Result};
use crate::keyenc;
use crate::schema::{decode_value, Schema};
use crate::util::Reader;
use crate::value::Value;
use littletable_vfs::Micros;

/// One table row: values in schema column order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Cell values, one per schema column, in declaration order.
    pub values: Vec<Value>,
}

impl Row {
    /// Wraps values into a row. Use [`Schema::check_row`] first when the
    /// values come from outside the engine.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The row's timestamp (the trailing primary-key column).
    pub fn ts(&self, schema: &Schema) -> Result<Micros> {
        self.values[schema.ts_index()].as_timestamp()
    }

    /// Encodes the primary key of this row.
    pub fn encode_key(&self, schema: &Schema) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(schema.key_len() * 9);
        for &i in schema.key_indices() {
            keyenc::encode_component(&mut out, &self.values[i])?;
        }
        Ok(out)
    }
}

/// Reassembles a full row from its encoded key and payload, under the
/// schema the block was written with.
pub fn decode_row(key: &[u8], payload: &[u8], schema: &Schema) -> Result<Row> {
    let key_vals = keyenc::decode_key(key, &schema.key_types())?;
    let mut values: Vec<Option<Value>> = vec![None; schema.num_columns()];
    for (slot, v) in schema.key_indices().iter().zip(key_vals) {
        values[*slot] = Some(v);
    }
    let mut r = Reader::new(payload);
    for (i, col) in schema.columns().iter().enumerate() {
        if values[i].is_none() {
            values[i] = Some(decode_value(&mut r, col.ty)?);
        }
    }
    if !r.is_empty() {
        return Err(Error::corrupt("trailing bytes after row payload"));
    }
    Ok(Row::new(values.into_iter().map(Option::unwrap).collect()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::{encode_value, ColumnDef};
    use crate::value::ColumnType;
    use proptest::prelude::*;

    /// The payload a row entry stores for `row`: its non-key values.
    pub(crate) fn payload_of(row: &Row, schema: &Schema) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, v) in row.values.iter().enumerate() {
            if !schema.key_indices().contains(&i) {
                encode_value(&mut out, v.as_ref());
            }
        }
        out
    }

    fn schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("network", ColumnType::Str),
                ColumnDef::new("device", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("bytes", ColumnType::I64),
                ColumnDef::new("rate", ColumnType::F64),
                ColumnDef::new("note", ColumnType::Str),
            ],
            &["network", "device", "ts"],
        )
        .unwrap()
    }

    fn sample_row() -> Row {
        Row::new(vec![
            Value::Str("net-1".into()),
            Value::I64(42),
            Value::Timestamp(1_700_000_000_000_000),
            Value::I64(4096),
            Value::F64(68.27),
            Value::Str("ok".into()),
        ])
    }

    #[test]
    fn ts_extracts_timestamp_column() {
        let s = schema();
        assert_eq!(sample_row().ts(&s).unwrap(), 1_700_000_000_000_000);
    }

    #[test]
    fn key_payload_round_trip() {
        let s = schema();
        let row = sample_row();
        let key = row.encode_key(&s).unwrap();
        let payload = payload_of(&row, &s);
        let back = decode_row(&key, &payload, &s).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn rows_sort_by_encoded_key() {
        let s = schema();
        let mut a = sample_row();
        let mut b = sample_row();
        a.values[1] = Value::I64(1);
        b.values[1] = Value::I64(2);
        assert!(a.encode_key(&s).unwrap() < b.encode_key(&s).unwrap());
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let s = schema();
        let row = sample_row();
        let key = row.encode_key(&s).unwrap();
        let payload = payload_of(&row, &s);
        assert!(decode_row(&key, &payload[..payload.len() - 1], &s).is_err());
        let mut extended = payload.clone();
        extended.push(7);
        assert!(decode_row(&key, &extended, &s).is_err());
    }

    proptest! {
        #[test]
        fn prop_row_round_trip(
            net in "[a-z0-9]{0,12}",
            dev in any::<i64>(),
            ts in any::<i64>(),
            bytes in any::<i64>(),
            rate in any::<f64>().prop_filter("finite", |f| f.is_finite()),
            note in ".{0,32}",
        ) {
            let s = schema();
            let row = Row::new(vec![
                Value::Str(net),
                Value::I64(dev),
                Value::Timestamp(ts),
                Value::I64(bytes),
                Value::F64(rate),
                Value::Str(note),
            ]);
            let key = row.encode_key(&s).unwrap();
            let payload = payload_of(&row, &s);
            prop_assert_eq!(decode_row(&key, &payload, &s).unwrap(), row);
        }
    }
}
