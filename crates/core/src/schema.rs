//! Table schemas and the supported schema evolutions.
//!
//! A schema is a list of typed, defaulted columns plus an ordered subset of
//! them forming the primary key. Per §3.1 of the paper, the final primary
//! key column must be a timestamp named `ts`; LittleTable clusters tables
//! by that column and sorts within clusters by the full key.
//!
//! Supported evolutions (§3.5): appending columns, widening an `int32`
//! column to `int64`, and changing the TTL (the TTL lives in the table
//! descriptor, not here). Old tablets are never rewritten; rows are
//! translated to the newest schema as they are read.

use crate::error::{Error, Result};
use crate::util::{put_string, put_varint, Reader};
use crate::value::{ColumnType, Value, ValueRef};
use std::fmt;
use std::sync::Arc;

/// The reserved name of the timestamp key column.
pub const TS_COLUMN: &str = "ts";

/// One column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name, unique within the table.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
    /// Value used when translating rows written before this column existed.
    pub default: Value,
}

impl ColumnDef {
    /// A column whose default is the type's zero value.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            default: ty.zero(),
        }
    }

    /// A column with an explicit default.
    pub fn with_default(name: impl Into<String>, ty: ColumnType, default: Value) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            default,
        }
    }
}

/// A table schema: columns plus the primary-key column indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    version: u32,
    columns: Vec<ColumnDef>,
    /// Indices into `columns`, in key order. The last one is the `ts`
    /// column.
    key: Vec<usize>,
}

impl Schema {
    /// Validates and builds a schema. `key` lists primary-key column
    /// *names* in order; the last must be the timestamp column `ts`.
    pub fn new(columns: Vec<ColumnDef>, key: &[&str]) -> Result<Self> {
        Self::with_version(1, columns, key)
    }

    /// As [`Schema::new`] with an explicit version, used when decoding.
    pub fn with_version(version: u32, columns: Vec<ColumnDef>, key: &[&str]) -> Result<Self> {
        if columns.is_empty() {
            return Err(Error::invalid("schema must have at least one column"));
        }
        for (i, c) in columns.iter().enumerate() {
            if c.name.is_empty() {
                return Err(Error::invalid("column names must be non-empty"));
            }
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(Error::invalid(format!(
                    "duplicate column name {:?}",
                    c.name
                )));
            }
            if !c.default.fits(c.ty) {
                return Err(Error::invalid(format!(
                    "default for column {:?} has wrong type",
                    c.name
                )));
            }
        }
        if key.is_empty() {
            return Err(Error::invalid("primary key must be non-empty"));
        }
        let mut key_idx = Vec::with_capacity(key.len());
        for name in key {
            let idx = columns
                .iter()
                .position(|c| c.name == *name)
                .ok_or_else(|| Error::invalid(format!("key column {name:?} not in schema")))?;
            if key_idx.contains(&idx) {
                return Err(Error::invalid(format!("key column {name:?} listed twice")));
            }
            key_idx.push(idx);
        }
        let last = &columns[*key_idx.last().unwrap()];
        if last.name != TS_COLUMN || last.ty != ColumnType::Timestamp {
            return Err(Error::invalid(
                "the final primary key column must be a timestamp named \"ts\"",
            ));
        }
        // Doubles make poor key components (NaN breaks total order) and the
        // paper's hierarchical keys are ints and strings; forbid them.
        for &i in &key_idx[..key_idx.len() - 1] {
            if columns[i].ty == ColumnType::F64 {
                return Err(Error::invalid("double columns cannot be key components"));
            }
        }
        Ok(Schema {
            version,
            columns,
            key: key_idx,
        })
    }

    /// Monotonically increasing schema version, bumped by every evolution.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// All columns, in declaration order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Indices of the primary-key columns, in key order.
    pub fn key_indices(&self) -> &[usize] {
        &self.key
    }

    /// Number of primary-key columns (including `ts`).
    pub fn key_len(&self) -> usize {
        self.key.len()
    }

    /// Index of the timestamp column within the row.
    pub fn ts_index(&self) -> usize {
        *self.key.last().unwrap()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The key column types in key order (including the trailing timestamp).
    pub fn key_types(&self) -> Vec<ColumnType> {
        self.key.iter().map(|&i| self.columns[i].ty).collect()
    }

    /// Validates a row against this schema, coercing I32 values into I64
    /// columns. Returns the normalized row values.
    pub fn check_row(&self, values: Vec<Value>) -> Result<Vec<Value>> {
        if values.len() != self.columns.len() {
            return Err(Error::invalid(format!(
                "row has {} values but schema has {} columns",
                values.len(),
                self.columns.len()
            )));
        }
        values
            .into_iter()
            .zip(&self.columns)
            .map(|(v, c)| v.coerce(c.ty))
            .collect()
    }

    // ---- evolution ----

    /// Appends a column (§3.5). Returns the evolved schema.
    pub fn add_column(&self, col: ColumnDef) -> Result<Schema> {
        if self.column_index(&col.name).is_some() {
            return Err(Error::SchemaChange(format!(
                "column {:?} already exists",
                col.name
            )));
        }
        if !col.default.fits(col.ty) {
            return Err(Error::SchemaChange("default has wrong type".into()));
        }
        let mut columns = self.columns.clone();
        columns.push(col);
        let names: Vec<String> = self.key.iter().map(|&i| columns[i].name.clone()).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Schema::with_version(self.version + 1, columns, &name_refs)
    }

    /// Widens an `int32` column to `int64` (§3.5).
    pub fn widen_column(&self, name: &str) -> Result<Schema> {
        let idx = self
            .column_index(name)
            .ok_or_else(|| Error::SchemaChange(format!("no column {name:?}")))?;
        if self.columns[idx].ty != ColumnType::I32 {
            return Err(Error::SchemaChange(format!(
                "column {name:?} is {}, only int32 can be widened",
                self.columns[idx].ty
            )));
        }
        let mut columns = self.columns.clone();
        columns[idx].ty = ColumnType::I64;
        columns[idx].default = columns[idx].default.clone().coerce(ColumnType::I64)?;
        let names: Vec<String> = self.key.iter().map(|&i| columns[i].name.clone()).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Schema::with_version(self.version + 1, columns, &name_refs)
    }

    /// Translates a row written under `self` into `newer`'s shape: missing
    /// trailing columns take their defaults and widened ints are converted.
    /// The key columns are assumed compatible — evolutions cannot change
    /// the key structure. The row-at-a-time reference
    /// [`crate::block::Block::translated`] is checked against; nothing
    /// outside tests moves rows between schema versions one by one.
    #[cfg(test)]
    pub fn translate_row(&self, newer: &Schema, mut values: Vec<Value>) -> Result<Vec<Value>> {
        debug_assert_eq!(values.len(), self.columns.len());
        for (i, v) in values.iter_mut().enumerate() {
            let want = newer.columns[i].ty;
            if !v.fits(want) {
                return Err(Error::corrupt(format!(
                    "cannot translate column {:?} from {} to {}",
                    self.columns[i].name,
                    v.column_type(),
                    want
                )));
            }
            if v.column_type() != want {
                let taken = std::mem::replace(v, Value::I32(0));
                *v = taken.coerce(want)?;
            }
        }
        for col in &newer.columns[values.len()..] {
            values.push(col.default.clone());
        }
        Ok(values)
    }

    // ---- serialization ----

    /// Serializes the schema into `out` (used in tablet footers and table
    /// descriptors).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.version as u64);
        put_varint(out, self.columns.len() as u64);
        for c in &self.columns {
            put_string(out, &c.name);
            out.push(c.ty.tag());
            encode_value(out, c.default.as_ref());
        }
        put_varint(out, self.key.len() as u64);
        for &i in &self.key {
            put_varint(out, i as u64);
        }
    }

    /// Decodes a schema previously written by [`Schema::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Schema> {
        let version = r.varint_u32("schema version")?;
        let ncols = r.varint()? as usize;
        if ncols == 0 || ncols > 4096 {
            return Err(Error::corrupt(format!("implausible column count {ncols}")));
        }
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = r.string()?;
            let ty = ColumnType::from_tag(r.u8()?)?;
            let default = decode_value(r, ty)?;
            columns.push(ColumnDef { name, ty, default });
        }
        let nkey = r.varint()? as usize;
        if nkey == 0 || nkey > ncols {
            return Err(Error::corrupt(format!("implausible key length {nkey}")));
        }
        let mut key = Vec::with_capacity(nkey);
        for _ in 0..nkey {
            let i = r.varint()? as usize;
            if i >= ncols {
                return Err(Error::corrupt("key index out of range"));
            }
            key.push(i);
        }
        let names: Vec<String> = key.iter().map(|&i| columns[i].name.clone()).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        Schema::with_version(version, columns, &names).map_err(|e| match e {
            Error::Invalid(m) => Error::Corrupt(m),
            e => e,
        })
    }
}

/// Encodes a single typed value: column defaults, zone maps, and every
/// cell on the wire — taken borrowed, so that a cell of a decoded column
/// slice is written from where it lies.
#[inline]
pub fn encode_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    use crate::util::zigzag;
    match v {
        ValueRef::I32(x) => put_varint(out, zigzag(x as i64)),
        ValueRef::I64(x) => put_varint(out, zigzag(x)),
        ValueRef::F64(x) => out.extend_from_slice(&x.to_le_bytes()),
        ValueRef::Timestamp(x) => put_varint(out, zigzag(x)),
        ValueRef::Str(s) => put_string(out, s),
        ValueRef::Blob(b) => crate::util::put_len_prefixed(out, b),
    }
}

/// Decodes a value of a known type written by [`encode_value`].
#[inline]
pub fn decode_value(r: &mut Reader<'_>, ty: ColumnType) -> Result<Value> {
    use crate::util::unzigzag;
    Ok(match ty {
        ColumnType::I32 => {
            let v = unzigzag(r.varint()?);
            let v32 = i32::try_from(v).map_err(|_| Error::corrupt("i32 out of range"))?;
            Value::I32(v32)
        }
        ColumnType::I64 => Value::I64(unzigzag(r.varint()?)),
        ColumnType::F64 => Value::F64(r.f64()?),
        ColumnType::Timestamp => Value::Timestamp(unzigzag(r.varint()?)),
        ColumnType::Str => Value::Str(r.string()?),
        ColumnType::Blob => Value::Blob(r.len_prefixed()?.to_vec()),
    })
}

/// Shared, immutable schema handle.
pub type SchemaRef = Arc<Schema>;

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}(", self.version)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ") key(")?;
        for (i, &k) in self.key.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.columns[k].name)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage_schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("network", ColumnType::I64),
                ColumnDef::new("device", ColumnType::I64),
                ColumnDef::new(TS_COLUMN, ColumnType::Timestamp),
                ColumnDef::new("bytes", ColumnType::I64),
                ColumnDef::new("rate", ColumnType::F64),
            ],
            &["network", "device", "ts"],
        )
        .unwrap()
    }

    #[test]
    fn builds_valid_schema() {
        let s = usage_schema();
        assert_eq!(s.key_len(), 3);
        assert_eq!(s.ts_index(), 2);
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn rejects_missing_ts_key() {
        let r = Schema::new(
            vec![
                ColumnDef::new("a", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["a"],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_ts_of_wrong_type() {
        let r = Schema::new(vec![ColumnDef::new("ts", ColumnType::I64)], &["ts"]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_duplicate_columns_and_keys() {
        assert!(Schema::new(
            vec![
                ColumnDef::new("a", ColumnType::I64),
                ColumnDef::new("a", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["a", "ts"],
        )
        .is_err());
        assert!(Schema::new(
            vec![
                ColumnDef::new("a", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["a", "a", "ts"],
        )
        .is_err());
    }

    #[test]
    fn rejects_double_key_component() {
        let r = Schema::new(
            vec![
                ColumnDef::new("x", ColumnType::F64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["x", "ts"],
        );
        assert!(r.is_err());
    }

    #[test]
    fn check_row_validates_and_coerces() {
        let s = usage_schema();
        let row = s
            .check_row(vec![
                Value::I32(1), // coerces into I64 column
                Value::I64(2),
                Value::Timestamp(100),
                Value::I64(4096),
                Value::F64(68.3),
            ])
            .unwrap();
        assert_eq!(row[0], Value::I64(1));
        assert!(s.check_row(vec![Value::I64(1)]).is_err());
        assert!(s
            .check_row(vec![
                Value::Str("no".into()),
                Value::I64(2),
                Value::Timestamp(100),
                Value::I64(4096),
                Value::F64(68.3),
            ])
            .is_err());
    }

    #[test]
    fn add_column_bumps_version_and_translates() {
        let s1 = usage_schema();
        let s2 = s1
            .add_column(ColumnDef::with_default(
                "packets",
                ColumnType::I64,
                Value::I64(-1),
            ))
            .unwrap();
        assert_eq!(s2.version(), 2);
        assert_eq!(s2.num_columns(), 6);
        let old_row = vec![
            Value::I64(1),
            Value::I64(2),
            Value::Timestamp(100),
            Value::I64(4096),
            Value::F64(68.3),
        ];
        let new_row = s1.translate_row(&s2, old_row).unwrap();
        assert_eq!(new_row[5], Value::I64(-1));
    }

    #[test]
    fn widen_column_translates_values() {
        let s1 = Schema::new(
            vec![
                ColumnDef::new("n", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("count", ColumnType::I32),
            ],
            &["n", "ts"],
        )
        .unwrap();
        let s2 = s1.widen_column("count").unwrap();
        assert_eq!(s2.columns()[2].ty, ColumnType::I64);
        let row = s1
            .translate_row(&s2, vec![Value::I64(1), Value::Timestamp(5), Value::I32(7)])
            .unwrap();
        assert_eq!(row[2], Value::I64(7));
        // Widening a non-I32 column fails.
        assert!(s2.widen_column("count").is_err());
        assert!(s2.widen_column("missing").is_err());
    }

    #[test]
    fn add_existing_column_fails() {
        let s = usage_schema();
        assert!(s
            .add_column(ColumnDef::new("bytes", ColumnType::I64))
            .is_err());
    }

    #[test]
    fn encode_decode_round_trips() {
        let s1 = usage_schema()
            .add_column(ColumnDef::with_default(
                "note",
                ColumnType::Str,
                Value::Str("n/a".into()),
            ))
            .unwrap();
        let mut buf = Vec::new();
        s1.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let s2 = Schema::decode(&mut r).unwrap();
        assert_eq!(s1, s2);
        assert!(r.is_empty());
    }

    #[test]
    fn decode_rejects_corrupt() {
        let mut buf = Vec::new();
        usage_schema().encode(&mut buf);
        for cut in [1usize, 3, 7, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Schema::decode(&mut r).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_a_version_past_u32() {
        let mut body = Vec::new();
        usage_schema().encode(&mut body);
        assert_eq!(body[0], 1, "version 1 is one varint byte");
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 32);
        buf.extend_from_slice(&body[1..]);
        let err = Schema::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }
}
