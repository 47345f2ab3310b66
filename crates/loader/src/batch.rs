//! Batch collation.
//!
//! §4.6: the loader "collates before exposing them to the training loop
//! in deep learning native memory layout". Uniformly shaped samples stack
//! into one contiguous array with a leading batch axis (what a framework
//! would memcpy straight to the GPU); ragged tensors stay a list.
//!
//! Collation runs on the consumer thread and is timed per call into the
//! `loader.collate_ns` histogram — a collate-attributed
//! [`Bottleneck`](crate::Bottleneck) means this stacking, not the
//! workers, is the epoch's critical path.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::BytesMut;
use deeplake_core::Row;
use deeplake_tensor::{Sample, Shape};

/// One loaded row on its way from a worker to a batch: `samples[i]` is
/// the value of tensor `names[i]`. The rows of a task share one `names`,
/// so a row costs one allocation however many tensors it carries.
#[derive(Debug)]
pub(crate) struct LoadedRow {
    pub names: Arc<Vec<String>>,
    pub samples: Vec<Sample>,
}

impl LoadedRow {
    /// The [`Row`] a user transform takes.
    pub fn into_row(self) -> Row {
        self.names.iter().cloned().zip(self.samples).collect()
    }

    /// What a user transform returned. `shared` is the tensor set of the
    /// task's previous row, reused when this row carries the same one.
    pub fn from_row(mut row: Row, shared: &mut Arc<Vec<String>>) -> Self {
        if !row.tensors().eq(shared.iter().map(String::as_str)) {
            *shared = Arc::new(row.tensors().map(str::to_string).collect());
        }
        LoadedRow {
            samples: shared.iter().filter_map(|name| row.take(name)).collect(),
            names: shared.clone(),
        }
    }
}

/// One collated tensor column of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchColumn {
    /// All samples shared a shape: stacked into `[batch, ...shape]`.
    Stacked(Sample),
    /// Ragged samples: one entry per row.
    List(Vec<Sample>),
}

impl BatchColumn {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            BatchColumn::Stacked(s) => s.shape().dim(0) as usize,
            BatchColumn::List(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as an owned sample (slices the stacked array or clones the
    /// list entry).
    pub fn get(&self, i: usize) -> Option<Sample> {
        match self {
            BatchColumn::Stacked(s) => {
                if i >= s.shape().dim(0) as usize {
                    return None;
                }
                deeplake_tensor::ops::slice_sample(
                    s,
                    &[deeplake_tensor::SliceSpec::Index(i as i64)],
                )
                .ok()
            }
            BatchColumn::List(v) => v.get(i).cloned(),
        }
    }
}

/// A collated batch: tensor name → column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    columns: BTreeMap<String, BatchColumn>,
    len: usize,
}

impl Batch {
    /// Collate rows into a batch. Every row must carry the same tensor
    /// set (the loader guarantees this).
    pub fn collate(rows: Vec<Row>) -> Batch {
        let mut shared = Arc::new(Vec::new());
        let loaded: Vec<LoadedRow> = rows
            .into_iter()
            .map(|row| LoadedRow::from_row(row, &mut shared))
            .collect();
        Batch::collate_loaded(loaded.into_iter())
    }

    /// Collate rows into a batch, moving each sample into its column.
    /// The first row names the batch's tensors; a value a later row
    /// carries for any other tensor is dropped (rows differ only when a
    /// user transform makes them).
    pub(crate) fn collate_loaded(rows: impl ExactSizeIterator<Item = LoadedRow>) -> Batch {
        let len = rows.len();
        let mut rows = rows.peekable();
        let Some(first) = rows.peek() else {
            return Batch::default();
        };
        let names = first.names.clone();
        let mut columns: Vec<Vec<Sample>> = names.iter().map(|_| Vec::with_capacity(len)).collect();
        for row in rows {
            let same = Arc::ptr_eq(&row.names, &names);
            for (i, (name, sample)) in row.names.iter().zip(row.samples).enumerate() {
                let column = if same || names.get(i) == Some(name) {
                    Some(i)
                } else {
                    names.iter().position(|n| n == name)
                };
                if let Some(column) = column {
                    columns[column].push(sample);
                }
            }
        }
        Batch {
            columns: names
                .iter()
                .cloned()
                .zip(columns.into_iter().map(collate_column))
                .collect(),
            len,
        }
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column by tensor name.
    pub fn column(&self, name: &str) -> Option<&BatchColumn> {
        self.columns.get(name)
    }

    /// Tensor names in the batch.
    pub fn tensors(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }

    /// Total payload bytes.
    pub fn nbytes(&self) -> usize {
        self.columns
            .values()
            .map(|c| match c {
                BatchColumn::Stacked(s) => s.nbytes(),
                BatchColumn::List(v) => v.iter().map(Sample::nbytes).sum(),
            })
            .sum()
    }
}

fn collate_column(samples: Vec<Sample>) -> BatchColumn {
    if samples.is_empty() {
        return BatchColumn::List(samples);
    }
    let first_shape = samples[0].shape().clone();
    let uniform = samples
        .iter()
        .all(|s| s.shape() == &first_shape && s.dtype() == samples[0].dtype());
    if !uniform || first_shape.num_elements() == 0 {
        return BatchColumn::List(samples);
    }
    // stack: concatenate payloads under a [n, ...shape] shape
    let mut dims = vec![samples.len() as u64];
    dims.extend_from_slice(first_shape.dims());
    // written in the buffer the stacked sample keeps (a `Vec` would be
    // copied once more on its way into `Bytes`); uniform shape and dtype
    // make every payload `each` bytes, and a non-empty shape makes it > 0
    let each = samples[0].nbytes();
    let mut buf = BytesMut::zeroed(each * samples.len());
    for (slot, s) in buf.chunks_exact_mut(each).zip(&samples) {
        slot.copy_from_slice(s.bytes());
    }
    match Sample::from_bytes(samples[0].dtype(), Shape(dims), buf.freeze()) {
        Ok(stacked) => BatchColumn::Stacked(stacked),
        Err(_) => BatchColumn::List(samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_tensor::Dtype;

    fn row(label: i32, img_fill: u8, img_side: u64) -> Row {
        Row::new().with("labels", Sample::scalar(label)).with(
            "images",
            Sample::from_slice(
                [img_side, img_side],
                &vec![img_fill; (img_side * img_side) as usize],
            )
            .unwrap(),
        )
    }

    #[test]
    fn uniform_shapes_stack() {
        let batch = Batch::collate(vec![row(1, 10, 4), row(2, 20, 4), row(3, 30, 4)]);
        assert_eq!(batch.len(), 3);
        match batch.column("images").unwrap() {
            BatchColumn::Stacked(s) => {
                assert_eq!(s.shape().dims(), &[3, 4, 4]);
                assert_eq!(s.dtype(), Dtype::U8);
            }
            other => panic!("unexpected {other:?}"),
        }
        match batch.column("labels").unwrap() {
            BatchColumn::Stacked(s) => assert_eq!(s.shape().dims(), &[3]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ragged_shapes_stay_list() {
        let batch = Batch::collate(vec![row(1, 1, 4), row(2, 2, 8)]);
        match batch.column("images").unwrap() {
            BatchColumn::List(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[1].shape().dims(), &[8, 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn column_get_roundtrips() {
        let batch = Batch::collate(vec![row(1, 10, 4), row(2, 20, 4)]);
        let images = batch.column("images").unwrap();
        let second = images.get(1).unwrap();
        assert_eq!(second.to_vec::<u8>().unwrap(), vec![20u8; 16]);
        assert!(images.get(2).is_none());
        let labels = batch.column("labels").unwrap();
        assert_eq!(labels.get(0).unwrap().get_f64(0).unwrap(), 1.0);
    }

    #[test]
    fn empty_batch() {
        let b = Batch::collate(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.nbytes(), 0);
    }

    #[test]
    fn empty_marker_samples_stay_list() {
        let rows = vec![
            Row::new().with("x", Sample::empty(Dtype::U8)),
            Row::new().with("x", Sample::empty(Dtype::U8)),
        ];
        let b = Batch::collate(rows);
        assert!(matches!(b.column("x").unwrap(), BatchColumn::List(_)));
    }

    #[test]
    fn rows_with_other_tensor_sets_collate_by_name() {
        let batch = Batch::collate(vec![
            row(1, 10, 4),
            Row::new().with("labels", Sample::scalar(2)),
            Row::new()
                .with("extra", Sample::scalar(9))
                .with("labels", Sample::scalar(3)),
        ]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.tensors().collect::<Vec<_>>(), ["images", "labels"]);
        assert_eq!(batch.column("labels").unwrap().len(), 3);
        assert_eq!(batch.column("images").unwrap().len(), 1);
    }

    #[test]
    fn loaded_rows_roundtrip_through_row() {
        let names = Arc::new(vec!["images".to_string(), "labels".to_string()]);
        let loaded = LoadedRow {
            names: names.clone(),
            samples: vec![Sample::scalar(7u8), Sample::scalar(1i32)],
        };
        let mut shared = names.clone();
        let back = LoadedRow::from_row(loaded.into_row(), &mut shared);
        assert!(Arc::ptr_eq(&back.names, &names), "same tensor set: shared");
        assert_eq!(back.samples, [Sample::scalar(7u8), Sample::scalar(1i32)]);
    }

    #[test]
    fn nbytes_accounts_payload() {
        let batch = Batch::collate(vec![row(1, 0, 4), row(2, 0, 4)]);
        // 2 × (16 image bytes + 4 label bytes)
        assert_eq!(batch.nbytes(), 2 * 16 + 2 * 4);
    }
}
