//! [`Sample`]: one owned, dynamically shaped n-dimensional array.

use bytes::Bytes;

use crate::dtype::{Dtype, Element};
use crate::error::TensorError;
use crate::shape::Shape;

/// A single data point of a tensor: an n-dimensional array with a dtype and
/// its own shape, stored as contiguous row-major little-endian bytes.
///
/// `Sample` is the unit everything else trades in: appends into chunks,
/// reads out of the dataloader, operands inside TQL expressions. Cloning is
/// cheap (`Bytes` is reference counted).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    dtype: Dtype,
    shape: Shape,
    data: Bytes,
}

impl Sample {
    /// Construct from raw little-endian bytes, validating the length against
    /// `shape` and `dtype`.
    pub fn from_bytes(dtype: Dtype, shape: Shape, data: Bytes) -> Result<Self, TensorError> {
        // the shape may come from stored bytes: no product may overflow
        let expected = shape
            .checked_num_elements()
            .and_then(|n| n.checked_mul(dtype.size() as u64))
            .and_then(|n| usize::try_from(n).ok());
        if expected != Some(data.len()) {
            return Err(TensorError::LengthMismatch {
                expected: expected.unwrap_or(usize::MAX),
                actual: data.len(),
            });
        }
        Ok(Sample { dtype, shape, data })
    }

    /// Construct from a typed slice, copying the elements.
    pub fn from_slice<T: Element>(
        shape: impl Into<Shape>,
        values: &[T],
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.num_elements() as usize != values.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements() as usize * T::DTYPE.size(),
                actual: values.len() * T::DTYPE.size(),
            });
        }
        let mut buf = Vec::with_capacity(values.len() * T::DTYPE.size());
        for &v in values {
            v.write_le(&mut buf);
        }
        Ok(Sample {
            dtype: T::DTYPE,
            shape,
            data: Bytes::from(buf),
        })
    }

    /// A scalar sample holding a single value.
    pub fn scalar<T: Element>(value: T) -> Self {
        Sample::from_slice(Shape::scalar(), &[value]).expect("scalar construction is infallible")
    }

    /// A zero-filled sample of the given dtype and shape.
    pub fn zeros(dtype: Dtype, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.num_elements() as usize * dtype.size();
        Sample {
            dtype,
            shape,
            data: Bytes::from(vec![0u8; len]),
        }
    }

    /// An empty sample (shape `[0]`). Appending it keeps row counts aligned
    /// for tensors that have no value at some rows.
    pub fn empty(dtype: Dtype) -> Self {
        Sample {
            dtype,
            shape: Shape::from([0]),
            data: Bytes::new(),
        }
    }

    /// Encode a UTF-8 string as a rank-1 `u8` sample (the convention `text`
    /// htype uses).
    pub fn from_text(text: &str) -> Self {
        let bytes = text.as_bytes().to_vec();
        Sample {
            dtype: Dtype::U8,
            shape: Shape::from([bytes.len() as u64]),
            data: Bytes::from(bytes),
        }
    }

    /// Decode a `text`-convention sample back into a string, if valid UTF-8.
    pub fn to_text(&self) -> Option<String> {
        if self.dtype != Dtype::U8 || self.shape.rank() != 1 {
            return None;
        }
        String::from_utf8(self.data.to_vec()).ok()
    }

    /// Element dtype.
    #[inline]
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Sample shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Raw little-endian bytes.
    #[inline]
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Byte length of the payload.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len()
    }

    /// Number of elements.
    #[inline]
    pub fn num_elements(&self) -> u64 {
        self.shape.num_elements()
    }

    /// Whether the sample holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_elements() == 0
    }

    /// Read one element at a flat (row-major) offset as `f64`.
    pub fn get_f64(&self, flat: usize) -> Result<f64, TensorError> {
        let n = self.num_elements() as usize;
        if flat >= n {
            return Err(TensorError::IndexOutOfBounds {
                index: flat,
                axis: 0,
                len: n,
            });
        }
        let sz = self.dtype.size();
        let raw = &self.data[flat * sz..(flat + 1) * sz];
        Ok(read_f64(self.dtype, raw))
    }

    /// Read one element at a multi-dimensional index as `f64`.
    pub fn get_f64_at(&self, index: &[u64]) -> Result<f64, TensorError> {
        let flat = self.shape.linear_index(index)?;
        self.get_f64(flat as usize)
    }

    /// Borrow the payload as a typed slice. Fails if `T`'s dtype differs.
    ///
    /// This is a copy: alignments of `Bytes` buffers are not guaranteed, so
    /// we decode rather than transmute.
    pub fn to_vec<T: Element>(&self) -> Result<Vec<T>, TensorError> {
        if T::DTYPE != self.dtype {
            return Err(TensorError::DtypeMismatch {
                left: T::DTYPE,
                right: self.dtype,
            });
        }
        let sz = self.dtype.size();
        Ok(self.data.chunks_exact(sz).map(T::read_le).collect())
    }

    /// All elements converted to `f64`, in row-major order.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        let sz = self.dtype.size();
        self.data
            .chunks_exact(sz)
            .map(|c| read_f64(self.dtype, c))
            .collect()
    }

    /// Cast to another dtype, converting every element through `f64`.
    pub fn cast(&self, to: Dtype) -> Sample {
        if to == self.dtype {
            return self.clone();
        }
        let values = self.to_f64_vec();
        from_f64_values(to, self.shape.clone(), &values)
    }

    /// Mean of all elements (NaN for empty samples).
    pub fn mean(&self) -> f64 {
        let n = self.num_elements();
        if n == 0 {
            return f64::NAN;
        }
        self.to_f64_vec().iter().sum::<f64>() / n as f64
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.to_f64_vec().iter().sum()
    }

    /// Maximum element (NaN for empty samples).
    pub fn max(&self) -> f64 {
        self.to_f64_vec().into_iter().fold(f64::NAN, f64::max)
    }

    /// Minimum element (NaN for empty samples).
    pub fn min(&self) -> f64 {
        self.to_f64_vec().into_iter().fold(f64::NAN, f64::min)
    }

    /// Reinterpret the payload with a new shape of identical element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Sample, TensorError> {
        let shape = shape.into();
        if shape.num_elements() != self.num_elements() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.render(),
                right: shape.render(),
            });
        }
        Ok(Sample {
            dtype: self.dtype,
            shape,
            data: self.data.clone(),
        })
    }
}

/// Build a sample of dtype `to` from `f64` element values.
pub fn from_f64_values(to: Dtype, shape: Shape, values: &[f64]) -> Sample {
    let mut buf = Vec::with_capacity(values.len() * to.size());
    for &v in values {
        match to {
            Dtype::U8 => (v as u8).write_le(&mut buf),
            Dtype::I8 => (v as i8).write_le(&mut buf),
            Dtype::U16 => (v as u16).write_le(&mut buf),
            Dtype::I16 => (v as i16).write_le(&mut buf),
            Dtype::U32 => (v as u32).write_le(&mut buf),
            Dtype::I32 => (v as i32).write_le(&mut buf),
            Dtype::U64 => (v as u64).write_le(&mut buf),
            Dtype::I64 => (v as i64).write_le(&mut buf),
            Dtype::F32 => (v as f32).write_le(&mut buf),
            Dtype::F64 => v.write_le(&mut buf),
            Dtype::Bool => (v != 0.0).write_le(&mut buf),
        }
    }
    Sample::from_bytes(to, shape, Bytes::from(buf)).expect("length computed from values")
}

/// One little-endian element of `dtype` (exactly `dtype.size()` bytes) as
/// `f64` — the conversion [`Sample::get_f64`] applies, exposed so columnar
/// readers over raw chunk bytes produce bit-identical values.
#[inline]
pub fn read_f64(dtype: Dtype, raw: &[u8]) -> f64 {
    match dtype {
        Dtype::U8 => u8::read_le(raw) as f64,
        Dtype::I8 => i8::read_le(raw) as f64,
        Dtype::U16 => u16::read_le(raw) as f64,
        Dtype::I16 => i16::read_le(raw) as f64,
        Dtype::U32 => u32::read_le(raw) as f64,
        Dtype::I32 => i32::read_le(raw) as f64,
        Dtype::U64 => u64::read_le(raw) as f64,
        Dtype::I64 => i64::read_le(raw) as f64,
        Dtype::F32 => f32::read_le(raw) as f64,
        Dtype::F64 => f64::read_le(raw),
        Dtype::Bool => (raw[0] != 0) as u8 as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_and_back() {
        let s = Sample::from_slice([2, 3], &[1u16, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(s.dtype(), Dtype::U16);
        assert_eq!(s.shape(), &Shape::from([2, 3]));
        assert_eq!(s.to_vec::<u16>().unwrap(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(s.nbytes(), 12);
    }

    #[test]
    fn from_slice_rejects_wrong_length() {
        assert!(Sample::from_slice([2, 2], &[1u8, 2, 3]).is_err());
    }

    #[test]
    fn from_bytes_validates_length() {
        let ok = Sample::from_bytes(Dtype::U8, Shape::from([3]), Bytes::from_static(&[1, 2, 3]));
        assert!(ok.is_ok());
        let bad = Sample::from_bytes(Dtype::U32, Shape::from([3]), Bytes::from_static(&[1, 2, 3]));
        assert!(bad.is_err());
    }

    #[test]
    fn scalar_sample() {
        let s = Sample::scalar(7i64);
        assert_eq!(s.shape().rank(), 0);
        assert_eq!(s.get_f64(0).unwrap(), 7.0);
    }

    #[test]
    fn zeros_and_empty() {
        let z = Sample::zeros(Dtype::F32, [4]);
        assert_eq!(z.to_vec::<f32>().unwrap(), vec![0.0; 4]);
        let e = Sample::empty(Dtype::I32);
        assert!(e.is_empty());
        assert_eq!(e.nbytes(), 0);
    }

    #[test]
    fn text_roundtrip() {
        let s = Sample::from_text("hello deep lake");
        assert_eq!(s.to_text().unwrap(), "hello deep lake");
        let not_text = Sample::scalar(1.0f32);
        assert!(not_text.to_text().is_none());
    }

    #[test]
    fn typed_read_rejects_wrong_dtype() {
        let s = Sample::from_slice([2], &[1u8, 2]).unwrap();
        assert!(s.to_vec::<f32>().is_err());
    }

    #[test]
    fn get_f64_at_multi_index() {
        let s = Sample::from_slice([2, 2], &[10i32, 20, 30, 40]).unwrap();
        assert_eq!(s.get_f64_at(&[1, 0]).unwrap(), 30.0);
        assert!(s.get_f64_at(&[2, 0]).is_err());
    }

    #[test]
    fn aggregates() {
        let s = Sample::from_slice([4], &[1.0f64, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn aggregates_on_empty_are_nan() {
        let e = Sample::empty(Dtype::F64);
        assert!(e.mean().is_nan());
        assert!(e.max().is_nan());
    }

    #[test]
    fn cast_preserves_values() {
        let s = Sample::from_slice([3], &[1u8, 2, 250]).unwrap();
        let f = s.cast(Dtype::F32);
        assert_eq!(f.dtype(), Dtype::F32);
        assert_eq!(f.to_vec::<f32>().unwrap(), vec![1.0, 2.0, 250.0]);
        // identity cast is a cheap clone
        let same = s.cast(Dtype::U8);
        assert_eq!(same, s);
    }

    #[test]
    fn reshape_checks_element_count() {
        let s = Sample::from_slice([2, 3], &[0u8; 6]).unwrap();
        assert!(s.reshape([3, 2]).is_ok());
        assert!(s.reshape([4, 2]).is_err());
    }

    #[test]
    fn bool_sample() {
        let s = Sample::from_slice([3], &[true, false, true]).unwrap();
        assert_eq!(s.to_f64_vec(), vec![1.0, 0.0, 1.0]);
    }
}
