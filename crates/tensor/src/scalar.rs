//! Scalar values exchanged between samples and the query layer.

use serde::{Deserialize, Serialize};

/// A single scalar value, the result of fully reducing a sample or a literal
/// in a TQL expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scalar {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
    /// Missing / undefined.
    Null,
}

impl Scalar {
    /// Numeric view (bools map to 0/1; strings and null are `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(*i as f64),
            Scalar::Float(f) => Some(*f),
            Scalar::Bool(b) => Some(*b as u8 as f64),
            _ => None,
        }
    }

    /// Truthiness: non-zero numbers, `true`, non-empty strings.
    pub fn truthy(&self) -> bool {
        match self {
            Scalar::Int(i) => *i != 0,
            Scalar::Float(f) => *f != 0.0,
            Scalar::Bool(b) => *b,
            Scalar::Str(s) => !s.is_empty(),
            Scalar::Null => false,
        }
    }

    /// Ordering used by `ORDER BY`: null < numbers < strings, numbers
    /// compared numerically, NaN last.
    pub fn order_cmp(&self, other: &Scalar) -> std::cmp::Ordering {
        // two numbers — every key a similarity sort compares — first
        if let (Some(x), Some(y)) = (self.as_f64(), other.as_f64()) {
            // only a NaN has no partial order: it sorts after numbers
            return x
                .partial_cmp(&y)
                .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()));
        }
        fn class(s: &Scalar) -> u8 {
            match s {
                Scalar::Null => 0,
                Scalar::Int(_) | Scalar::Float(_) | Scalar::Bool(_) => 1,
                Scalar::Str(_) => 2,
            }
        }
        match (self, other) {
            (Scalar::Str(a), Scalar::Str(b)) => a.cmp(b),
            // Null against Null, or two classes
            (a, b) => class(a).cmp(&class(b)),
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int(v)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float(v)
    }
}
impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}
impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Str(v.to_string())
    }
}

impl std::fmt::Display for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scalar::Int(i) => write!(f, "{i}"),
            Scalar::Float(v) => write!(f, "{v}"),
            Scalar::Bool(b) => write!(f, "{b}"),
            Scalar::Str(s) => write!(f, "{s:?}"),
            Scalar::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Scalar::Int(3).as_f64(), Some(3.0));
        assert_eq!(Scalar::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Scalar::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Scalar::Str("x".into()).as_f64(), None);
        assert_eq!(Scalar::Null.as_f64(), None);
    }

    #[test]
    fn truthiness() {
        assert!(Scalar::Int(1).truthy());
        assert!(!Scalar::Int(0).truthy());
        assert!(!Scalar::Null.truthy());
        assert!(Scalar::Str("a".into()).truthy());
        assert!(!Scalar::Str("".into()).truthy());
    }

    #[test]
    fn ordering_classes() {
        assert_eq!(Scalar::Null.order_cmp(&Scalar::Int(0)), Ordering::Less);
        assert_eq!(
            Scalar::Int(5).order_cmp(&Scalar::Str("a".into())),
            Ordering::Less
        );
        assert_eq!(
            Scalar::Int(2).order_cmp(&Scalar::Float(1.5)),
            Ordering::Greater
        );
        assert_eq!(
            Scalar::Str("a".into()).order_cmp(&Scalar::Str("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn nan_sorts_last_among_numbers() {
        assert_eq!(
            Scalar::Float(f64::NAN).order_cmp(&Scalar::Float(1.0)),
            Ordering::Greater
        );
        assert_eq!(
            Scalar::Float(1.0).order_cmp(&Scalar::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Scalar::Float(f64::NAN).order_cmp(&Scalar::Float(f64::NAN)),
            Ordering::Equal
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(Scalar::from(3i64), Scalar::Int(3));
        assert_eq!(Scalar::from(true), Scalar::Bool(true));
        assert_eq!(Scalar::from("hi"), Scalar::Str("hi".into()));
    }
}
