//! Shape arithmetic for dynamically shaped samples.

use serde::{Deserialize, Serialize};

use crate::error::TensorError;

/// The shape of one sample: the per-axis lengths of an n-dimensional array.
///
/// A scalar has the empty shape `[]`. Deep Lake tensors are *ragged*: each
/// sample carries its own `Shape`, so two rows of an `image` tensor can be
/// `600×800×3` and `1024×1024×3` without padding (§3.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Shape(pub Vec<u64>);

impl Shape {
    /// A scalar shape (`[]`, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Construct from any iterable of axis lengths.
    pub fn new(dims: impl Into<Vec<u64>>) -> Self {
        Shape(dims.into())
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of axis lengths; 1 for scalars).
    #[inline]
    pub fn num_elements(&self) -> u64 {
        self.0.iter().product()
    }

    /// [`num_elements`](Self::num_elements) for a shape read from bytes
    /// this program did not write: `None` when the product overflows.
    pub fn checked_num_elements(&self) -> Option<u64> {
        if self.0.contains(&0) {
            return Some(0);
        }
        self.0.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d))
    }

    /// Axis lengths as a slice.
    #[inline]
    pub fn dims(&self) -> &[u64] {
        &self.0
    }

    /// Length of axis `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> u64 {
        self.0[i]
    }

    /// Row-major ("C order") strides in *elements*.
    ///
    /// `strides()[i]` is the element distance between consecutive indices on
    /// axis `i`. Empty for scalars.
    pub fn strides(&self) -> Vec<u64> {
        let mut strides = vec![1u64; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flatten a multi-dimensional index into a row-major linear offset.
    pub fn linear_index(&self, index: &[u64]) -> Result<u64, TensorError> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: index.len(),
            });
        }
        let mut off = 0u64;
        let strides = self.strides();
        for (axis, (&i, &len)) in index.iter().zip(self.0.iter()).enumerate() {
            if i >= len {
                return Err(TensorError::IndexOutOfBounds {
                    index: i as usize,
                    axis,
                    len: len as usize,
                });
            }
            off += i * strides[axis];
        }
        Ok(off)
    }

    /// Widen to the elementwise maximum with `other`, padding the shorter
    /// shape with zeros on the right. Used to maintain the `max_shape`
    /// field of tensor metadata as ragged samples are appended; in place,
    /// so it allocates only when `other` has more axes.
    pub fn union_max_with(&mut self, other: &Shape) {
        self.union_with(other, u64::max);
    }

    /// Narrow to the elementwise minimum with `other`, padding the shorter
    /// shape with zeros (`min_shape`'s counterpart of
    /// [`union_max_with`](Self::union_max_with)).
    pub fn union_min_with(&mut self, other: &Shape) {
        self.union_with(other, u64::min);
    }

    fn union_with(&mut self, other: &Shape, pick: fn(u64, u64) -> u64) {
        if other.rank() > self.rank() {
            self.0.resize(other.rank(), 0);
        }
        for (i, d) in self.0.iter_mut().enumerate() {
            *d = pick(*d, other.0.get(i).copied().unwrap_or(0));
        }
    }

    /// Render as `[a, b, c]` for error messages.
    pub fn render(&self) -> String {
        format!("{:?}", self.0)
    }
}

impl From<Vec<u64>> for Shape {
    fn from(v: Vec<u64>) -> Self {
        Shape(v)
    }
}

impl From<&[u64]> for Shape {
    fn from(v: &[u64]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[u64; N]> for Shape {
    fn from(v: [u64; N]) -> Self {
        Shape(v.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn num_elements_product() {
        assert_eq!(Shape::from([2, 3, 4]).num_elements(), 24);
        assert_eq!(Shape::from([5]).num_elements(), 5);
        assert_eq!(Shape::from([0, 7]).num_elements(), 0);
        assert_eq!(Shape::from([2, 3, 4]).checked_num_elements(), Some(24));
        assert_eq!(Shape::scalar().checked_num_elements(), Some(1));
        let huge = u64::from(u32::MAX);
        assert_eq!(Shape::from([huge, huge, huge]).checked_num_elements(), None);
        assert_eq!(
            Shape::from([huge, huge, huge, 0]).checked_num_elements(),
            Some(0)
        );
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([7]).strides(), vec![1]);
    }

    #[test]
    fn linear_index_roundtrip() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.linear_index(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.linear_index(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.linear_index(&[1, 0, 2]).unwrap(), 14);
    }

    #[test]
    fn linear_index_bounds() {
        let s = Shape::from([2, 3]);
        assert!(matches!(
            s.linear_index(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { axis: 0, .. })
        ));
        assert!(matches!(
            s.linear_index(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn union_max_min_pad_with_zero() {
        let (a, b) = (Shape::from([2, 10]), Shape::from([5, 3, 7]));
        let mut max = a.clone();
        max.union_max_with(&b);
        assert_eq!(max, Shape::from([5, 10, 7]));
        let mut min = a.clone();
        min.union_min_with(&b);
        assert_eq!(min, Shape::from([2, 3, 0]));
        // the longer shape first: the shorter one is padded
        let mut long = b.clone();
        long.union_min_with(&a);
        assert_eq!(long, Shape::from([2, 3, 0]));
        long.union_max_with(&Shape::scalar());
        assert_eq!(long, Shape::from([2, 3, 0]));
    }

    #[test]
    fn display_renders_dims() {
        assert_eq!(Shape::from([1, 2]).to_string(), "[1, 2]");
    }
}
