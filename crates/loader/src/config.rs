//! Loader configuration.

use std::sync::Arc;

use deeplake_core::{Dataset, Row};

use crate::loader::DataLoader;
use crate::Result;

/// Shuffled-stream settings (§3.5): chunk-following block randomization
/// plus a sample-level shuffle buffer, avoiding a separate shuffle
/// cluster. Both are drawn into the epoch's plan before a row is fetched
/// (see [`shuffle::epoch_plan`](crate::shuffle::epoch_plan)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleConfig {
    /// Rows of the shuffle buffer the delivery order is drawn with: a
    /// row comes out at most `buffer_rows - 1` places before its epoch
    /// position, and the consumer holds at most this many rows
    /// (plus the in-flight budget and a block per worker) waiting for
    /// their turn.
    pub buffer_rows: usize,
    /// Target rows per block. Blocks are fetched in random order but stay
    /// contiguous inside, and hold this many rows give or take half: a
    /// block's end moves to where the chunk of the streamed tensor with
    /// the most chunks changes when that is within `block_rows / 2`, so
    /// chunks of up to this many rows are never split and smaller
    /// ones coalesce; larger chunks are cut every `block_rows` rows
    /// (see [`shuffle`](crate::shuffle)). Unshuffled epochs are cut the
    /// same way, with the default.
    pub block_rows: usize,
    /// RNG seed. The `e`-th epoch of a loader (from 0) is drawn from
    /// this seed and `e`: the same seed gives the same order for the
    /// same epoch at any worker count, and each epoch of one loader a
    /// different order.
    pub seed: u64,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig {
            buffer_rows: 512,
            block_rows: 32,
            seed: 0x5EED,
        }
    }
}

/// Per-row user transform applied inside worker threads.
pub type RowTransform = Arc<dyn Fn(Row) -> Row + Send + Sync>;

/// Full loader configuration.
#[derive(Clone)]
pub struct LoaderConfig {
    /// Rows per delivered batch. The knob for a collate-attributed
    /// [`Bottleneck`](crate::Bottleneck): fewer, larger collates.
    pub batch_size: usize,
    /// Worker threads fetching + decoding. The knob for fetch- or
    /// decode-attributed epochs (see the README's "Tuning the data
    /// loader" table).
    pub num_workers: usize,
    /// Shuffling, if any.
    pub shuffle: Option<ShuffleConfig>,
    /// Batches of rows to keep in flight ahead of the consumer. Raising
    /// it smooths fetch-latency spikes — watch `loader.queue_depth` to
    /// see whether the buffer actually fills.
    pub prefetch_batches: usize,
    /// Tensors to stream (`None` = all visible tensors). Partial reads are
    /// the point of columnar layout (§3.1).
    pub tensors: Option<Vec<String>>,
    /// User transform run in workers.
    pub transform: Option<RowTransform>,
    /// Drop a trailing partial batch.
    pub drop_last: bool,
    /// Upper bound on in-flight row bytes; overrides `prefetch_batches`
    /// when tighter (§4.6 "predicting memory consumption to avoid
    /// breaking the training process").
    pub memory_budget_bytes: Option<u64>,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig {
            batch_size: 32,
            num_workers: 4,
            shuffle: None,
            prefetch_batches: 2,
            tensors: None,
            transform: None,
            drop_last: false,
            memory_budget_bytes: None,
        }
    }
}

/// Fluent builder for [`DataLoader`].
pub struct LoaderBuilder {
    dataset: Arc<Dataset>,
    indices: Option<Vec<u64>>,
    config: LoaderConfig,
}

impl LoaderBuilder {
    pub(crate) fn new(dataset: Arc<Dataset>) -> Self {
        LoaderBuilder {
            dataset,
            indices: None,
            config: LoaderConfig::default(),
        }
    }

    /// Restrict to a view's row indices (e.g. a TQL result).
    pub fn indices(mut self, indices: Vec<u64>) -> Self {
        self.indices = Some(indices);
        self
    }

    /// Stream a [`DatasetView`](deeplake_core::DatasetView)'s rows — the
    /// §4.4–4.5 path where a (possibly chunk-pruned) query result feeds
    /// straight into training. Only the view's row indices are taken;
    /// the loader streams them from *its own* dataset handle, which must
    /// be positioned at the same version the view was computed at.
    pub fn view(self, view: &deeplake_core::DatasetView<'_>) -> Self {
        self.indices(view.indices().to_vec())
    }

    /// Rows per batch.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.config.batch_size = n.max(1);
        self
    }

    /// Worker threads.
    pub fn num_workers(mut self, n: usize) -> Self {
        self.config.num_workers = n.max(1);
        self
    }

    /// Enable shuffling with defaults.
    pub fn shuffle(mut self, seed: u64) -> Self {
        self.config.shuffle = Some(ShuffleConfig {
            seed,
            ..ShuffleConfig::default()
        });
        self
    }

    /// Enable shuffling with explicit settings.
    pub fn shuffle_with(mut self, cfg: ShuffleConfig) -> Self {
        self.config.shuffle = Some(cfg);
        self
    }

    /// Batches to prefetch.
    pub fn prefetch(mut self, batches: usize) -> Self {
        self.config.prefetch_batches = batches.max(1);
        self
    }

    /// Stream only these tensors.
    pub fn tensors(mut self, names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.config.tensors = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Per-row transform executed in workers.
    pub fn transform(mut self, f: impl Fn(Row) -> Row + Send + Sync + 'static) -> Self {
        self.config.transform = Some(Arc::new(f));
        self
    }

    /// Drop trailing partial batches.
    pub fn drop_last(mut self, yes: bool) -> Self {
        self.config.drop_last = yes;
        self
    }

    /// Cap in-flight memory.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.config.memory_budget_bytes = Some(bytes);
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<DataLoader> {
        DataLoader::from_parts(self.dataset, self.indices, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = LoaderConfig::default();
        assert_eq!(c.batch_size, 32);
        assert_eq!(c.num_workers, 4);
        assert!(c.shuffle.is_none());
        let s = ShuffleConfig::default();
        assert!(s.buffer_rows >= s.block_rows);
    }
}
