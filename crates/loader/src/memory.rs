//! Memory consumption prediction (§4.6: "Efficient Resource Allocation:
//! predicting memory consumption to avoid breaking the training process
//! due to memory overfilling").
//!
//! The in-flight row budget this estimator produces is part of the
//! consumer's credit ([`scheduler`](crate::scheduler)): a task is issued
//! only while its first row lies within the budget, plus the epoch
//! plan's reach (under `buffer_rows` shuffled, 0 sequential) and one
//! block per worker, of the next row to deliver. So that sum bounds the
//! rows decoded ahead of the consumer, whatever the chunk size and
//! however slow one task is; a block is at most `block_rows +
//! block_rows / 2` rows (48 by default), so the last task issued may end
//! that far past the line. It is observable live as the
//! `loader.queue_depth` gauge (rows sent and not yet received) and
//! reported per epoch as
//! [`EpochReport::in_flight_rows`](crate::EpochReport::in_flight_rows).

use deeplake_core::Dataset;

/// Estimates per-row decoded bytes from tensor metadata and derives how
/// many rows may be in flight under a byte budget.
#[derive(Debug, Clone, Copy)]
pub struct MemoryEstimator {
    /// Estimated decoded bytes of one row (sum over streamed tensors of
    /// `max_shape · dtype size`).
    pub bytes_per_row: u64,
}

impl MemoryEstimator {
    /// Estimate from a dataset and the tensor subset being streamed
    /// (`None` = all visible).
    pub fn for_dataset(ds: &Dataset, tensors: Option<&[String]>) -> Self {
        let names: Vec<String> = match tensors {
            Some(t) => t.to_vec(),
            None => ds.tensors().into_iter().map(str::to_string).collect(),
        };
        let mut bytes = 0u64;
        for name in names {
            if let Ok(meta) = ds.tensor_meta(&name) {
                let elems = meta.max_shape.num_elements().max(1);
                bytes += elems * meta.dtype.size() as u64;
            }
        }
        MemoryEstimator {
            bytes_per_row: bytes.max(1),
        }
    }

    /// Rows allowed in flight under `budget` bytes (at least one batch's
    /// worth so progress is always possible).
    pub fn rows_in_flight(&self, budget: u64, batch_size: usize) -> usize {
        ((budget / self.bytes_per_row) as usize).max(batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_codec::Compression;
    use deeplake_core::dataset::TensorOptions;
    use deeplake_storage::MemoryProvider;
    use deeplake_tensor::{Htype, Sample};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "m").unwrap();
        ds.create_tensor_opts("images", {
            let mut o = TensorOptions::new(Htype::Image);
            o.sample_compression = Some(Compression::None);
            o
        })
        .unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        ds.append_row(vec![
            (
                "images",
                Sample::zeros(deeplake_tensor::Dtype::U8, [100, 100, 3]),
            ),
            ("labels", Sample::scalar(1i32)),
        ])
        .unwrap();
        ds
    }

    #[test]
    fn estimates_from_max_shape() {
        let ds = dataset();
        let est = MemoryEstimator::for_dataset(&ds, None);
        // 100*100*3 u8 + scalar i32
        assert_eq!(est.bytes_per_row, 30_000 + 4);
    }

    #[test]
    fn subset_estimation() {
        let ds = dataset();
        let est = MemoryEstimator::for_dataset(&ds, Some(&["labels".to_string()]));
        assert_eq!(est.bytes_per_row, 4);
    }

    #[test]
    fn rows_in_flight_floor_is_batch() {
        let est = MemoryEstimator {
            bytes_per_row: 1_000_000,
        };
        assert_eq!(est.rows_in_flight(10, 8), 8);
        assert_eq!(est.rows_in_flight(64_000_000, 8), 64);
    }
}
