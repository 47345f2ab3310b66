//! [`Row`]: one sample across parallel tensors (§3.1).

use std::fmt;
use std::sync::Arc;

use deeplake_tensor::Sample;

/// A dataset row: tensor name → sample. "A sample in a dataset represents a
/// single row indexed across parallel tensors" (§3.1); elements are
/// logically independent, so a row may carry any subset of tensors —
/// missing tensors are filled with empty samples on append.
///
/// The values are one `Vec` of `(name, sample)` pairs sorted by name, at
/// most one pair per name, and a name is an `Arc<str>`. A row holds a
/// handful of tensors, so a binary search finds one as fast as a map
/// would, and a clone is one allocation for the `Vec` plus one per
/// sample whose shape has axes: names and sample bytes are shared by
/// reference count, not copied.
#[derive(Clone, Default, PartialEq)]
pub struct Row {
    values: Vec<(Arc<str>, Sample)>,
}

impl Row {
    /// Empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, tensor: impl Into<String>, sample: Sample) -> Self {
        self.set(tensor, sample);
        self
    }

    /// Insert or replace a value.
    pub fn set(&mut self, tensor: impl Into<String>, sample: Sample) {
        let tensor = tensor.into();
        match self.find(&tensor) {
            Ok(i) => self.values[i].1 = sample,
            Err(i) => self.values.insert(i, (Arc::from(tensor), sample)),
        }
    }

    /// Value for a tensor, if present.
    pub fn get(&self, tensor: &str) -> Option<&Sample> {
        self.find(tensor).ok().map(|i| &self.values[i].1)
    }

    /// Remove and return a value.
    pub fn take(&mut self, tensor: &str) -> Option<Sample> {
        self.find(tensor).ok().map(|i| self.values.remove(i).1)
    }

    /// Tensor names present in this row.
    pub fn tensors(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|(k, _)| &**k)
    }

    /// Iterate `(tensor, sample)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Sample)> {
        self.values.iter().map(|(k, v)| (&**k, v))
    }

    /// Number of tensors in the row.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row carries no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total payload bytes across all samples.
    pub fn nbytes(&self) -> usize {
        self.values.iter().map(|(_, v)| v.nbytes()).sum()
    }

    /// An empty row with room for `n` values.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Row {
            values: Vec::with_capacity(n),
        }
    }

    /// [`set`](Self::set) under a name the caller already shares: a
    /// reader that builds many rows of the same tensors names them once.
    pub(crate) fn set_shared(&mut self, tensor: Arc<str>, sample: Sample) {
        match self.find(&tensor) {
            Ok(i) => self.values[i].1 = sample,
            Err(i) => self.values.insert(i, (tensor, sample)),
        }
    }

    /// The `(name, sample)` pairs, sorted by name.
    pub(crate) fn into_sorted(self) -> Vec<(Arc<str>, Sample)> {
        self.values
    }

    /// The row of `(name, sample)` pairs, a later pair replacing an
    /// earlier one of the same name.
    fn collect<K: Into<String>>(iter: impl IntoIterator<Item = (K, Sample)>) -> Self {
        let iter = iter.into_iter();
        let mut row = Row::with_capacity(iter.size_hint().0);
        iter.for_each(|(k, v)| row.set(k, v));
        row
    }

    /// Where `tensor` is, or where it would be inserted.
    fn find(&self, tensor: &str) -> Result<usize, usize> {
        self.values.binary_search_by(|(k, _)| (**k).cmp(tensor))
    }
}

/// Formats as a map, like the `BTreeMap` it behaves as.
impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values = fmt::from_fn(|f| f.debug_map().entries(self.iter()).finish());
        f.debug_struct("Row").field("values", &values).finish()
    }
}

/// A later pair replaces an earlier one of the same name.
impl FromIterator<(String, Sample)> for Row {
    fn from_iter<T: IntoIterator<Item = (String, Sample)>>(iter: T) -> Self {
        Row::collect(iter)
    }
}

/// A later pair replaces an earlier one of the same name.
impl<'a> FromIterator<(&'a str, Sample)> for Row {
    fn from_iter<T: IntoIterator<Item = (&'a str, Sample)>>(iter: T) -> Self {
        Row::collect(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_tensor::Dtype;

    #[test]
    fn builder_and_access() {
        let row = Row::new()
            .with("images", Sample::zeros(Dtype::U8, [2, 2, 3]))
            .with("labels", Sample::scalar(3i32));
        assert_eq!(row.len(), 2);
        assert!(row.get("images").is_some());
        assert!(row.get("boxes").is_none());
        assert_eq!(row.tensors().collect::<Vec<_>>(), vec!["images", "labels"]);
        assert_eq!(row.nbytes(), 12 + 4);
    }

    #[test]
    fn set_take() {
        let mut row = Row::new();
        assert!(row.is_empty());
        row.set("x", Sample::scalar(1u8));
        row.set("x", Sample::scalar(2u8));
        assert_eq!(row.len(), 1);
        let taken = row.take("x").unwrap();
        assert_eq!(taken.get_f64(0).unwrap(), 2.0);
        assert!(row.is_empty());
    }

    #[test]
    fn from_iterators() {
        let row: Row = vec![("a", Sample::scalar(1u8)), ("b", Sample::scalar(2u8))]
            .into_iter()
            .collect();
        assert_eq!(row.len(), 2);
    }
}
