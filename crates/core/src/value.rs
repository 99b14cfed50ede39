//! Column types and cell values.
//!
//! LittleTable supports 32- and 64-bit integers, double-precision floats,
//! timestamps, variable-length strings, and byte arrays (§3.5 of the
//! paper). There are no NULLs; applications use sentinel values instead,
//! and every column carries a default.

use crate::error::{Error, Result};
use littletable_vfs::Micros;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// IEEE 754 double.
    F64,
    /// Microseconds since the Unix epoch.
    Timestamp,
    /// UTF-8 string.
    Str,
    /// Arbitrary bytes.
    Blob,
}

impl ColumnType {
    /// Stable single-byte tag used in serialized schemas.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            ColumnType::I32 => 0,
            ColumnType::I64 => 1,
            ColumnType::F64 => 2,
            ColumnType::Timestamp => 3,
            ColumnType::Str => 4,
            ColumnType::Blob => 5,
        }
    }

    /// Inverse of [`ColumnType::tag`].
    #[inline]
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => ColumnType::I32,
            1 => ColumnType::I64,
            2 => ColumnType::F64,
            3 => ColumnType::Timestamp,
            4 => ColumnType::Str,
            5 => ColumnType::Blob,
            t => return Err(Error::corrupt(format!("unknown column type tag {t}"))),
        })
    }

    /// The zero-ish default for the type, used when a schema does not
    /// specify an explicit column default.
    pub fn zero(self) -> Value {
        match self {
            ColumnType::I32 => Value::I32(0),
            ColumnType::I64 => Value::I64(0),
            ColumnType::F64 => Value::F64(0.0),
            ColumnType::Timestamp => Value::Timestamp(0),
            ColumnType::Str => Value::Str(String::new()),
            ColumnType::Blob => Value::Blob(Vec::new()),
        }
    }

    /// The part of [`Value::mem_size`] that every value of the type
    /// weighs: all of it for fixed-width types, everything but the
    /// payload bytes for strings and blobs.
    pub fn base_mem_size(self) -> usize {
        match self {
            ColumnType::I32 => 4,
            ColumnType::I64 | ColumnType::F64 | ColumnType::Timestamp => 8,
            ColumnType::Str | ColumnType::Blob => 16,
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::I32 => "int32",
            ColumnType::I64 => "int64",
            ColumnType::F64 => "double",
            ColumnType::Timestamp => "timestamp",
            ColumnType::Str => "string",
            ColumnType::Blob => "blob",
        };
        f.write_str(s)
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 32-bit signed integer.
    I32(i32),
    /// 64-bit signed integer.
    I64(i64),
    /// IEEE 754 double.
    F64(f64),
    /// Microseconds since the Unix epoch.
    Timestamp(Micros),
    /// UTF-8 string.
    Str(String),
    /// Arbitrary bytes.
    Blob(Vec<u8>),
}

impl Value {
    /// The type of this value.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::I32(_) => ColumnType::I32,
            Value::I64(_) => ColumnType::I64,
            Value::F64(_) => ColumnType::F64,
            Value::Timestamp(_) => ColumnType::Timestamp,
            Value::Str(_) => ColumnType::Str,
            Value::Blob(_) => ColumnType::Blob,
        }
    }

    /// True when this value may be stored in a column of type `ty`,
    /// including the I32 → I64 widening the engine performs when a column's
    /// precision has been increased.
    pub fn fits(&self, ty: ColumnType) -> bool {
        self.column_type() == ty || matches!((self, ty), (Value::I32(_), ColumnType::I64))
    }

    /// Converts this value to exactly `ty`, widening I32 to I64 when asked.
    pub fn coerce(self, ty: ColumnType) -> Result<Value> {
        if self.column_type() == ty {
            return Ok(self);
        }
        match (self, ty) {
            (Value::I32(v), ColumnType::I64) => Ok(Value::I64(v as i64)),
            (v, ty) => Err(Error::invalid(format!(
                "value of type {:?} does not fit column type {ty:?}",
                v.column_type()
            ))),
        }
    }

    /// The timestamp inside a `Timestamp` value.
    pub fn as_timestamp(&self) -> Result<Micros> {
        match self {
            Value::Timestamp(t) => Ok(*t),
            v => Err(Error::invalid(format!(
                "expected timestamp, got {:?}",
                v.column_type()
            ))),
        }
    }

    /// The value at the integer family's common width: `int32`, `int64`
    /// and timestamps compare (and sum) across widths as `i64`. `None`
    /// for every other type.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::I32(x) => Some(*x as i64),
            Value::I64(x) | Value::Timestamp(x) => Some(*x),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used for memtable size
    /// accounting.
    pub fn mem_size(&self) -> usize {
        let payload = match self {
            Value::Str(s) => s.len(),
            Value::Blob(b) => b.len(),
            _ => 0,
        };
        self.column_type().base_mem_size() + payload
    }
}

/// A cell value borrowed from wherever it lives — a [`Value`], or a row
/// of a decoded column slice — so that an encoder can take either
/// without a `String` being built for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// 32-bit signed integer.
    I32(i32),
    /// 64-bit signed integer.
    I64(i64),
    /// IEEE 754 double.
    F64(f64),
    /// Microseconds since the Unix epoch.
    Timestamp(Micros),
    /// UTF-8 string.
    Str(&'a str),
    /// Arbitrary bytes.
    Blob(&'a [u8]),
}

impl Value {
    /// The value, borrowed.
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::I32(v) => ValueRef::I32(*v),
            Value::I64(v) => ValueRef::I64(*v),
            Value::F64(v) => ValueRef::F64(*v),
            Value::Timestamp(v) => ValueRef::Timestamp(*v),
            Value::Str(s) => ValueRef::Str(s),
            Value::Blob(b) => ValueRef::Blob(b),
        }
    }
}

impl ValueRef<'_> {
    /// The type of this value.
    #[inline]
    pub fn column_type(&self) -> ColumnType {
        match self {
            ValueRef::I32(_) => ColumnType::I32,
            ValueRef::I64(_) => ColumnType::I64,
            ValueRef::F64(_) => ColumnType::F64,
            ValueRef::Timestamp(_) => ColumnType::Timestamp,
            ValueRef::Str(_) => ColumnType::Str,
            ValueRef::Blob(_) => ColumnType::Blob,
        }
    }

    /// The value, owned.
    pub fn to_value(&self) -> Value {
        match *self {
            ValueRef::I32(v) => Value::I32(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::F64(v) => Value::F64(v),
            ValueRef::Timestamp(v) => Value::Timestamp(v),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Blob(b) => Value::Blob(b.to_vec()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Timestamp(t) => write!(f, "ts:{t}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Blob(b) => write!(f, "x'{}'", hex(b)),
        }
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for ty in [
            ColumnType::I32,
            ColumnType::I64,
            ColumnType::F64,
            ColumnType::Timestamp,
            ColumnType::Str,
            ColumnType::Blob,
        ] {
            assert_eq!(ColumnType::from_tag(ty.tag()).unwrap(), ty);
        }
        assert!(ColumnType::from_tag(99).is_err());
    }

    #[test]
    fn i32_widens_to_i64() {
        assert!(Value::I32(5).fits(ColumnType::I64));
        assert_eq!(
            Value::I32(-3).coerce(ColumnType::I64).unwrap(),
            Value::I64(-3)
        );
        assert!(Value::I64(5).coerce(ColumnType::I32).is_err());
        assert!(Value::Str("x".into()).coerce(ColumnType::Blob).is_err());
    }

    #[test]
    fn timestamps_extract() {
        assert_eq!(Value::Timestamp(42).as_timestamp().unwrap(), 42);
        assert!(Value::I64(42).as_timestamp().is_err());
    }

    #[test]
    fn mem_size_tracks_payload() {
        assert_eq!(Value::I32(1).mem_size(), 4);
        assert!(Value::Str("hello".into()).mem_size() > 5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::I64(7).to_string(), "7");
        assert_eq!(Value::Blob(vec![0xab, 0x01]).to_string(), "x'ab01'");
    }
}
