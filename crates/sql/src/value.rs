//! Typed values with a total order suitable for index keys.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A typed SQL value.
///
/// Values have a *total* order (used for B+Tree index keys and ORDER BY):
/// values of different types order by type rank (`Null < Bool < numbers <
/// Str`); `Int` and `Float` compare numerically with each other; `NaN`
/// sorts above all other floats and equal to itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (also used for dates as days since epoch).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload, widening `Int` if needed.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL LIKE with `%` wildcards (multi-char) anywhere in the pattern.
    /// Non-`Str` values never match.
    pub fn like(&self, pattern: &str) -> bool {
        ValueRef::from(self).like(pattern)
    }
}

/// Greedy `%`-wildcard matcher (case-sensitive, `_` not supported — the
/// TPC-W search queries only use `%`).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let Some((first, tail)) = pattern.split_once('%') else { return s == pattern };
    // First segment must be a prefix, the last a suffix of what the
    // middle segments (matched greedily left to right) leave over.
    let Some(mut rest) = s.strip_prefix(first) else { return false };
    let (middle, last) = tail.rsplit_once('%').unwrap_or(("", tail));
    for seg in middle.split('%').filter(|seg| !seg.is_empty()) {
        match rest.find(seg) {
            Some(pos) => rest = &rest[pos + seg.len()..],
            None => return false,
        }
    }
    rest.ends_with(last)
}

/// A [`Value`] borrowed from wherever it lies: an owned `Value`, a query
/// literal, or the bytes of an encoded row on a page (see
/// [`crate::row::RowCursor`]). Comparing and matching a `ValueRef` never
/// allocates, and [`Value`]'s own ordering is defined through it, so
/// the two cannot disagree.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
}

impl<'a> ValueRef<'a> {
    /// Column `i` of `row`; a column the row does not have reads as NULL.
    pub fn at(row: &'a [Value], i: usize) -> Self {
        row.get(i).map_or(ValueRef::Null, ValueRef::from)
    }

    /// Type rank used for cross-type ordering.
    fn rank(&self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Bool(_) => 1,
            ValueRef::Int(_) | ValueRef::Float(_) => 2,
            ValueRef::Str(_) => 3,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// SQL LIKE with `%` wildcards; non-`Str` values never match.
    pub fn like(&self, pattern: &str) -> bool {
        matches!(self, ValueRef::Str(s) if like_match(s, pattern))
    }

    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    #[inline]
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        ValueRef::from(self).cmp(&ValueRef::from(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_rank_order() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(0));
        assert!(Value::Int(i64::MAX) < Value::Str(String::new()));
    }

    #[test]
    fn numeric_cross_compare() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_is_self_equal_and_max() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn hash_consistent_with_eq_for_numbers() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(42)), h(&Value::Float(42.0)));
    }

    #[test]
    fn like_exact() {
        assert!(Value::from("abc").like("abc"));
        assert!(!Value::from("abc").like("abd"));
        assert!(!Value::from("abc").like("ab"));
    }

    #[test]
    fn like_wildcards() {
        let v = Value::from("the quick brown fox");
        assert!(v.like("%quick%"));
        assert!(v.like("the%"));
        assert!(v.like("%fox"));
        assert!(v.like("the%fox"));
        assert!(v.like("%the quick brown fox%"));
        assert!(v.like("%"));
        assert!(!v.like("%cat%"));
        assert!(!v.like("fox%"));
    }

    #[test]
    fn like_multiple_middles() {
        assert!(like_match("abcdefg", "a%c%e%g"));
        assert!(!like_match("abcdefg", "a%e%c%g"));
        assert!(like_match("aaa", "a%a"));
        assert!(!like_match("a", "a%a"));
    }

    #[test]
    fn like_non_string_is_false() {
        assert!(!Value::Int(5).like("%5%"));
        assert!(!Value::Null.like("%"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from("x").as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("hi").to_string(), "'hi'");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[a-z]{0,8}".prop_map(Value::from),
        ]
    }

    proptest! {
        #[test]
        fn ordering_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
            let ab = a.cmp(&b);
            let ba = b.cmp(&a);
            prop_assert_eq!(ab, ba.reverse());
        }

        #[test]
        fn ordering_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
            let mut v = [a, b, c];
            v.sort();
            prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
        }

        #[test]
        fn eq_reflexive(a in arb_value()) {
            prop_assert_eq!(a.clone(), a);
        }
    }
}
