//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal replacement exposing the subset of the serde API
//! the project uses: `#[derive(Serialize, Deserialize)]` on plain
//! structs and enums, driven through a small self-describing [`Value`]
//! model that `serde_json` (also vendored) renders and parses.
//!
//! The design intentionally differs from real serde (no visitor
//! machinery): `Serialize` maps a value *to* a [`Value`] tree and
//! `Deserialize` maps a [`Value`] tree back. Representations follow
//! serde's external tagging so the JSON output looks the same as real
//! serde's for the types in this workspace.
//!
//! # No `#[serde(...)]` attributes
//!
//! The derive implements none of serde's attributes. Ignoring one would
//! be worse than rejecting it — a `#[serde(skip)]` that does nothing
//! puts a wall-clock field into a report that is compared byte for
//! byte — so a field (or type, or variant) that carries one does not
//! compile, and the error names it:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Report {
//!     cycles: u64,
//!     #[serde(skip)]
//!     wall_clock_ns: u64,
//! }
//! ```
//!
//! The same type without the attribute derives as usual:
//!
//! ```
//! #[derive(serde::Serialize)]
//! struct Report {
//!     cycles: u64,
//!     /// Doc comments and other attributes are fine.
//!     wall_clock_ns: u64,
//! }
//! ```

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing value tree (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so `u64` survives round-trips).
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: what was expected, and a path hint.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialization into the [`Value`] model.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the tree does not match `Self`'s shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Fetches a required object field (used by derived code).
///
/// # Errors
///
/// Returns [`DeError`] if `v` is not an object or lacks `name`.
pub fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, DeError> {
    v.get(name).ok_or_else(|| DeError(format!("missing field `{name}`")))
}

/// Integers deserialize from any JSON number that is integral *and*
/// fits the target type; a value outside its range is an error, never a
/// silent narrowing (`4294968496` is not the `u32` 1200).
macro_rules! ser_integer {
    ($variant:ident($wide:ty): $($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::$variant(*self as $wide) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let fits = match *v {
                    Value::Int(n) => <$t>::try_from(n).ok(),
                    Value::UInt(n) => <$t>::try_from(n).ok(),
                    // `as i128` saturates, and every integer type here is
                    // narrower than that.
                    Value::Float(n) if n.fract() == 0.0 => <$t>::try_from(n as i128).ok(),
                    ref other => return Err(DeError(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other
                    ))),
                };
                fits.ok_or_else(|| DeError(format!(
                    concat!("{:?} out of range for ", stringify!($t)), v
                )))
            }
        }
    )*};
}

ser_integer!(Int(i64): i8, i16, i32, i64, isize);
ser_integer!(UInt(u64): u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Float(n) => Ok(n),
            Value::Int(n) => Ok(n as f64),
            Value::UInt(n) => Ok(n as f64),
            ref other => Err(DeError(format!("expected f64, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|n| n as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Bool(b) => Ok(b),
            ref other => Err(DeError(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Arr(xs) => xs.iter().map(T::from_value).collect(),
            other => Err(DeError(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Arr(xs) if xs.len() == N => {
                let mut out = [T::default(); N];
                for (slot, x) in out.iter_mut().zip(xs) {
                    *slot = T::from_value(x)?;
                }
                Ok(out)
            }
            other => Err(DeError(format!("expected array of {N}, got {other:?}"))),
        }
    }
}

macro_rules! ser_tuple {
    ($(($($t:ident : $i:tt),+) => $n:literal;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Arr(xs) if xs.len() == $n => {
                        Ok(($($t::from_value(&xs[$i])?,)+))
                    }
                    other => Err(DeError(format!(
                        "expected {}-tuple, got {other:?}", $n
                    ))),
                }
            }
        }
    )*};
}

ser_tuple! {
    (A: 0) => 1;
    (A: 0, B: 1) => 2;
    (A: 0, B: 1, C: 2) => 3;
    (A: 0, B: 1, C: 2, D: 3) => 4;
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort for deterministic output.
        let mut pairs: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(pairs)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Obj(pairs) => {
                pairs.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => Err(DeError(format!("expected object, got {other:?}"))),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Obj(pairs) => {
                pairs.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => Err(DeError(format!("expected object, got {other:?}"))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let xs = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&xs.to_value()).unwrap(), xs);
        let arr = [[1.5f64; 2]; 3];
        assert_eq!(<[[f64; 2]; 3]>::from_value(&arr.to_value()).unwrap(), arr);
    }

    #[test]
    fn out_of_range_unsigned_is_rejected_not_narrowed() {
        let err = |v: Value| u32::from_value(&v).unwrap_err().0;
        assert_eq!(err(Value::UInt((1 << 32) + 1200)), "UInt(4294968496) out of range for u32");
        assert_eq!(err(Value::Int(-1)), "Int(-1) out of range for u32");
        assert_eq!(err(Value::Float(1e10)), "Float(10000000000.0) out of range for u32");
        assert!(u64::from_value(&Value::Float(1.8446744073709552e19)).is_err(), "2^64");
        assert_eq!(u32::from_value(&Value::UInt(u32::MAX.into())).unwrap(), u32::MAX);
        assert_eq!(u8::from_value(&Value::Float(255.0)).unwrap(), 255);
        assert!(u8::from_value(&Value::Float(0.5)).unwrap_err().0.starts_with("expected u8"));
    }

    #[test]
    fn out_of_range_signed_is_rejected_not_narrowed() {
        let err = |v: Value| i32::from_value(&v).unwrap_err().0;
        assert_eq!(
            err(Value::Int(i64::from(i32::MIN) - 1)),
            "Int(-2147483649) out of range for i32"
        );
        assert_eq!(err(Value::UInt(1 << 31)), "UInt(2147483648) out of range for i32");
        assert!(i64::from_value(&Value::UInt(u64::MAX)).is_err());
        assert!(i8::from_value(&Value::Float(-129.0)).is_err());
        assert_eq!(i8::from_value(&Value::Int(-128)).unwrap(), -128);
        assert_eq!(i64::from_value(&Value::UInt(7)).unwrap(), 7);
    }

    #[test]
    fn option_null_round_trip() {
        let none: Option<u32> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_value(&Value::UInt(3)).unwrap(), Some(3));
    }

    #[test]
    fn missing_field_is_an_error() {
        let obj = Value::Obj(vec![("a".into(), Value::Int(1))]);
        assert!(field(&obj, "a").is_ok());
        assert!(field(&obj, "b").is_err());
    }
}
