//! NumPy-style element types.
//!
//! The paper (§3.2) models tensor elements after NumPy dtypes so that samples
//! round-trip losslessly between the storage format and deep learning
//! frameworks. We support the fixed-width numeric dtypes plus `bool`.

use serde::{Deserialize, Serialize};

use crate::error::TensorError;

/// Element type of a tensor, mirroring the NumPy dtype it round-trips with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Dtype {
    /// 8-bit unsigned integer (`uint8`). The default for image pixels.
    U8,
    /// 8-bit signed integer (`int8`).
    I8,
    /// 16-bit unsigned integer (`uint16`).
    U16,
    /// 16-bit signed integer (`int16`).
    I16,
    /// 32-bit unsigned integer (`uint32`).
    U32,
    /// 32-bit signed integer (`int32`). The default for class labels.
    I32,
    /// 64-bit unsigned integer (`uint64`).
    U64,
    /// 64-bit signed integer (`int64`).
    I64,
    /// 32-bit IEEE 754 float (`float32`). The default for bounding boxes
    /// and embeddings.
    F32,
    /// 64-bit IEEE 754 float (`float64`).
    F64,
    /// Boolean stored as one byte per element, as NumPy does.
    Bool,
}

impl Dtype {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            Dtype::U8 | Dtype::I8 | Dtype::Bool => 1,
            Dtype::U16 | Dtype::I16 => 2,
            Dtype::U32 | Dtype::I32 | Dtype::F32 => 4,
            Dtype::U64 | Dtype::I64 | Dtype::F64 => 8,
        }
    }

    /// Canonical NumPy-compatible name (`"uint8"`, `"float32"`, ...).
    pub const fn name(self) -> &'static str {
        match self {
            Dtype::U8 => "uint8",
            Dtype::I8 => "int8",
            Dtype::U16 => "uint16",
            Dtype::I16 => "int16",
            Dtype::U32 => "uint32",
            Dtype::I32 => "int32",
            Dtype::U64 => "uint64",
            Dtype::I64 => "int64",
            Dtype::F32 => "float32",
            Dtype::F64 => "float64",
            Dtype::Bool => "bool",
        }
    }

    /// Parse a NumPy-style dtype name.
    pub fn parse(name: &str) -> Result<Self, TensorError> {
        Ok(match name {
            "uint8" | "u8" => Dtype::U8,
            "int8" | "i8" => Dtype::I8,
            "uint16" | "u16" => Dtype::U16,
            "int16" | "i16" => Dtype::I16,
            "uint32" | "u32" => Dtype::U32,
            "int32" | "i32" => Dtype::I32,
            "uint64" | "u64" => Dtype::U64,
            "int64" | "i64" => Dtype::I64,
            "float32" | "f32" => Dtype::F32,
            "float64" | "f64" => Dtype::F64,
            "bool" => Dtype::Bool,
            other => return Err(TensorError::UnknownName(other.to_string())),
        })
    }

    /// Whether the dtype is a floating point type.
    #[inline]
    pub const fn is_float(self) -> bool {
        matches!(self, Dtype::F32 | Dtype::F64)
    }

    /// Whether the dtype is a signed integer type.
    #[inline]
    pub const fn is_signed_int(self) -> bool {
        matches!(self, Dtype::I8 | Dtype::I16 | Dtype::I32 | Dtype::I64)
    }

    /// Whether the dtype is an unsigned integer type.
    #[inline]
    pub const fn is_unsigned_int(self) -> bool {
        matches!(self, Dtype::U8 | Dtype::U16 | Dtype::U32 | Dtype::U64)
    }

    /// The dtype arithmetic on two operands promotes to, following NumPy's
    /// simplified promotion lattice: `bool < ints < floats`, with width
    /// promotion to the wider operand, and mixed signed/unsigned promoting
    /// to a signed type one step wider (capped at `int64`).
    pub fn promote(self, other: Dtype) -> Dtype {
        use Dtype::*;
        if self == other {
            return self;
        }
        // Bool promotes to the other operand.
        if self == Bool {
            return other;
        }
        if other == Bool {
            return self;
        }
        // Any float wins; wider float wins.
        match (self.is_float(), other.is_float()) {
            (true, true) => {
                return if self == F64 || other == F64 {
                    F64
                } else {
                    F32
                };
            }
            (true, false) => return self,
            (false, true) => return other,
            (false, false) => {}
        }
        let (a, b) = (self, other);
        let wider = |x: Dtype| x.size();
        if a.is_signed_int() == b.is_signed_int() {
            // Same signedness: wider wins.
            return if wider(a) >= wider(b) { a } else { b };
        }
        // Mixed signedness: promote to a signed type wider than the unsigned
        // operand, capped at I64.
        let unsigned = if a.is_unsigned_int() { a } else { b };
        let signed = if a.is_signed_int() { a } else { b };
        let needed = (unsigned.size() * 2).min(8);

        match needed.max(signed.size()) {
            1 => I8,
            2 => I16,
            4 => I32,
            _ => I64,
        }
    }

    /// All dtypes, useful for exhaustive tests.
    pub const ALL: [Dtype; 11] = [
        Dtype::U8,
        Dtype::I8,
        Dtype::U16,
        Dtype::I16,
        Dtype::U32,
        Dtype::I32,
        Dtype::U64,
        Dtype::I64,
        Dtype::F32,
        Dtype::F64,
        Dtype::Bool,
    ];
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Rust scalar types that can live inside a [`crate::Sample`].
///
/// The trait ties a Rust primitive to its [`Dtype`] and provides safe
/// little-endian (de)serialization used by the chunk layer.
pub trait Element: Copy + Default + PartialOrd + Send + Sync + 'static {
    /// The dtype this element maps to.
    const DTYPE: Dtype;

    /// Write the element into the (exactly sized) `out` in little-endian
    /// byte order.
    fn write_le(self, out: &mut [u8]);

    /// Read one element from the (exactly sized) little-endian byte slice.
    fn read_le(bytes: &[u8]) -> Self;

    /// Lossy conversion to `f64` used by aggregate functions in TQL.
    fn to_f64(self) -> f64;

    /// Lossy conversion from `f64` used when materializing computed values.
    fn from_f64(v: f64) -> Self;
}

macro_rules! impl_element {
    ($t:ty, $dtype:expr) => {
        impl Element for $t {
            const DTYPE: Dtype = $dtype;
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(bytes);
                <$t>::from_le_bytes(buf)
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
        }
    };
}

impl_element!(u8, Dtype::U8);
impl_element!(i8, Dtype::I8);
impl_element!(u16, Dtype::U16);
impl_element!(i16, Dtype::I16);
impl_element!(u32, Dtype::U32);
impl_element!(i32, Dtype::I32);
impl_element!(u64, Dtype::U64);
impl_element!(i64, Dtype::I64);
impl_element!(f32, Dtype::F32);
impl_element!(f64, Dtype::F64);

impl Element for bool {
    const DTYPE: Dtype = Dtype::Bool;
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[0] = self as u8;
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
    #[inline]
    fn to_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v != 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_names() {
        assert_eq!(Dtype::U8.size(), 1);
        assert_eq!(Dtype::I16.size(), 2);
        assert_eq!(Dtype::F32.size(), 4);
        assert_eq!(Dtype::F64.size(), 8);
        assert_eq!(Dtype::Bool.size(), 1);
    }

    #[test]
    fn parse_roundtrip_all() {
        for d in Dtype::ALL {
            assert_eq!(Dtype::parse(d.name()).unwrap(), d);
        }
    }

    #[test]
    fn parse_short_aliases() {
        assert_eq!(Dtype::parse("u8").unwrap(), Dtype::U8);
        assert_eq!(Dtype::parse("f32").unwrap(), Dtype::F32);
        assert!(Dtype::parse("complex128").is_err());
    }

    #[test]
    fn promotion_float_wins() {
        assert_eq!(Dtype::U8.promote(Dtype::F32), Dtype::F32);
        assert_eq!(Dtype::F32.promote(Dtype::F64), Dtype::F64);
        assert_eq!(Dtype::I64.promote(Dtype::F32), Dtype::F32);
    }

    #[test]
    fn promotion_same_sign_wider_wins() {
        assert_eq!(Dtype::U8.promote(Dtype::U32), Dtype::U32);
        assert_eq!(Dtype::I16.promote(Dtype::I64), Dtype::I64);
    }

    #[test]
    fn promotion_mixed_sign_goes_signed() {
        assert_eq!(Dtype::U8.promote(Dtype::I8), Dtype::I16);
        assert_eq!(Dtype::U32.promote(Dtype::I8), Dtype::I64);
        assert_eq!(Dtype::U64.promote(Dtype::I64), Dtype::I64);
    }

    #[test]
    fn promotion_bool_defers() {
        assert_eq!(Dtype::Bool.promote(Dtype::U8), Dtype::U8);
        assert_eq!(Dtype::F64.promote(Dtype::Bool), Dtype::F64);
        assert_eq!(Dtype::Bool.promote(Dtype::Bool), Dtype::Bool);
    }

    #[test]
    fn promotion_is_commutative() {
        for a in Dtype::ALL {
            for b in Dtype::ALL {
                assert_eq!(a.promote(b), b.promote(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn element_roundtrip() {
        let mut buf = [0u8; 4];
        42u32.write_le(&mut buf);
        assert_eq!(u32::read_le(&buf), 42);
        let mut buf = [0u8; 8];
        (-1.5f64).write_le(&mut buf);
        assert_eq!(f64::read_le(&buf), -1.5);
        let mut buf = [0u8; 1];
        true.write_le(&mut buf);
        assert!(bool::read_le(&buf));
    }
}
