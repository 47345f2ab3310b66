//! A loader task is one block that follows the chunks: the cutter's
//! properties, what an epoch fetches, and what crosses the channel.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_loader::shuffle::{block_ends, block_shuffled_order};
use deeplake_loader::DataLoader;
use deeplake_storage::{DynProvider, MemoryProvider, StorageError, StorageProvider};
use deeplake_tensor::{Htype, Sample};
use proptest::prelude::*;

/// Chunk spans `(id, first row, rows)` for chunks of the given sizes.
fn spans_of(sizes: &[u64]) -> Vec<(Option<u64>, u64, u64)> {
    let mut start = 0;
    sizes
        .iter()
        .enumerate()
        .map(|(id, &rows)| {
            let span = (Some(id as u64), start, rows);
            start += rows;
            span
        })
        .collect()
}

/// The chunk each row of `indices` lives in.
fn chunks_of(indices: &[u64], spans: &[(Option<u64>, u64, u64)]) -> Vec<u64> {
    indices
        .iter()
        .map(|&row| {
            spans
                .iter()
                .find(|&&(_, start, rows)| (start..start + rows).contains(&row))
                .and_then(|s| s.0)
                .expect("a row of the tensor")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Over an ascending index list (all rows, or a filtered view): the
    /// epoch order is a permutation, block ends ascend to the list's
    /// length, every block holds `block_rows` rows give or take half
    /// (the last may be shorter), a block ends inside a chunk only when
    /// no chunk boundary was within that reach — so with no chunk run
    /// longer than `block_rows` no chunk appears in two blocks — and the
    /// seed decides the order.
    #[test]
    fn blocks_are_bounded_and_end_at_chunks_within_reach(
        sizes in proptest::collection::vec(1u64..80, 1..40),
        keep in 1u64..4,
        block_rows in 1usize..64,
        seed in any::<u64>(),
    ) {
        let spans = spans_of(&sizes);
        let total: u64 = sizes.iter().sum();
        // every row, or a view that keeps rows by a fixed pattern
        let indices: Vec<u64> = (0..total).filter(|r| keep == 1 || r % keep != 0).collect();
        let ends = block_ends(&indices, &spans, block_rows);
        prop_assert!(ends.windows(2).all(|w| w[0] < w[1]), "{:?}", ends);
        prop_assert_eq!(ends.last().copied().unwrap_or(0), indices.len());

        let chunks = chunks_of(&indices, &spans);
        let boundary = |pos: usize| pos == chunks.len() || chunks[pos - 1] != chunks[pos];
        let longest_run = chunks
            .chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap_or(0);
        let reach = block_rows / 2;
        let mut seen: HashSet<u64> = HashSet::new();
        let mut start = 0;
        for &end in &ends {
            let rows = end - start;
            prop_assert!(rows <= block_rows + reach, "{rows} rows, block_rows {block_rows}");
            if end < indices.len() {
                prop_assert!(rows >= block_rows - reach, "{rows} rows, block_rows {block_rows}");
            }
            if !boundary(end) {
                prop_assert_eq!(rows, block_rows);
                let near = (end - reach..=end + reach).find(|&p| boundary(p));
                prop_assert_eq!(near, None, "block end {} passed over a boundary", end);
            }
            let block: HashSet<u64> = chunks[start..end].iter().copied().collect();
            if longest_run <= block_rows {
                prop_assert!(block.is_disjoint(&seen), "a chunk spans two blocks");
            }
            seen.extend(block);
            start = end;
        }

        let (order, shuffled_ends) = block_shuffled_order(&indices, &ends, seed);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &indices);
        prop_assert_eq!(shuffled_ends.len(), ends.len());
        prop_assert_eq!(shuffled_ends.last().copied().unwrap_or(0), indices.len());
        prop_assert_eq!(
            block_shuffled_order(&indices, &ends, seed),
            (order, shuffled_ends)
        );
    }

    /// An index list that changes chunk at every position (a scattered
    /// view) gets plain `block_rows`-sized blocks.
    #[test]
    fn scattered_indices_get_fixed_blocks(
        rows in 1usize..300,
        per_chunk in 1u64..8,
        block_rows in 1usize..64,
    ) {
        let spans = spans_of(&vec![per_chunk; rows]);
        // one row of every chunk
        let indices: Vec<u64> = (0..rows as u64).map(|c| c * per_chunk).collect();
        let fixed: Vec<usize> = (1..=rows.div_ceil(block_rows))
            .map(|k| (k * block_rows).min(rows))
            .collect();
        prop_assert_eq!(block_ends(&indices, &spans, block_rows), fixed);
    }
}

/// A provider that logs the key of every object read.
struct GetLog {
    inner: MemoryProvider,
    gets: Mutex<Vec<String>>,
}

impl StorageProvider for GetLog {
    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        self.gets.lock().unwrap().push(key.to_string());
        self.inner.get(key)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes, StorageError> {
        self.gets.lock().unwrap().push(key.to_string());
        self.inner.get_range(key, start, end)
    }
    fn put(&self, key: &str, value: Bytes) -> Result<(), StorageError> {
        self.inner.put(key, value)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.inner.exists(key)
    }
    fn len_of(&self, key: &str) -> Result<u64, StorageError> {
        self.inner.len_of(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.inner.list(prefix)
    }
    fn describe(&self) -> String {
        format!("get-log({})", self.inner.describe())
    }
}

/// Bytes of one image row: chunks of 29 rows weigh about 136 KiB, so the
/// handle's memo (64 chunks once past 8 MiB) holds 64 of them.
const IMAGE_BYTES: usize = 40 * 40 * 3;

/// `rows` rows of images in chunks of about 29 rows — off the 32-row
/// grid, and far more chunks than a dataset handle memoizes — plus a
/// label per row, behind a [`GetLog`].
fn logged_dataset(rows: u64) -> (Arc<GetLog>, Arc<Dataset>) {
    let provider = Arc::new(GetLog {
        inner: MemoryProvider::new(),
        gets: Mutex::new(Vec::new()),
    });
    let mut ds = Dataset::create(provider.clone() as DynProvider, "blocks").unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(Compression::None);
        o.chunk_target_bytes = Some(29 * IMAGE_BYTES as u64);
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..rows {
        ds.append_row(vec![
            (
                "images",
                Sample::from_slice([40, 40, 3], &[(i % 251) as u8; IMAGE_BYTES]).unwrap(),
            ),
            ("labels", Sample::scalar(i as i32)),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    drop(ds);
    let ds = Arc::new(Dataset::open(provider.clone() as DynProvider).unwrap());
    provider.gets.lock().unwrap().clear();
    (provider, ds)
}

/// One worker, one shuffled epoch: every chunk of the primary tensor is
/// fetched exactly once. (With the fixed 32-row cut this test saw 192
/// fetches of its 143 chunks: a chunk split between two blocks was
/// fetched by both unless the handle's 64-chunk memo still held it.)
#[test]
fn a_shuffled_epoch_fetches_every_primary_chunk_once() {
    let (provider, ds) = logged_dataset(4000);
    let chunks = ds.chunk_spans("images").unwrap().len();
    assert!(chunks > 100, "{chunks} chunks");
    let loader = DataLoader::builder(ds)
        .batch_size(32)
        .num_workers(1)
        .shuffle(11)
        .build()
        .unwrap();
    let rows: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    assert_eq!(rows, 4000);

    let mut fetches: BTreeMap<String, usize> = BTreeMap::new();
    for key in provider.gets.lock().unwrap().iter() {
        if key.contains("images/chunks/") {
            *fetches.entry(key.clone()).or_default() += 1;
        }
    }
    assert_eq!(fetches.len(), chunks, "every chunk is read");
    let again: Vec<_> = fetches.iter().filter(|(_, &n)| n != 1).collect();
    assert!(again.is_empty(), "fetched more than once: {again:?}");
}

/// One message per task: the consumer's receives (one `queue_wait`
/// sample each) are the epoch's tasks plus the receive that finds the
/// channel closed — not one per row — shuffled or not, and the
/// queue-depth gauge, which stays in rows, is back at zero after a
/// full epoch and after one dropped part-way.
#[test]
fn one_message_per_task_and_the_gauge_settles() {
    for shuffle in [false, true] {
        let (_, ds) = logged_dataset(1200);
        let indices: Vec<u64> = (0..1200).collect();
        let blocks = block_ends(&indices, &ds.chunk_spans("images").unwrap(), 32).len() as u64;
        assert!((30..=45).contains(&blocks), "{blocks} blocks");
        let mut builder = DataLoader::builder(ds).batch_size(16).num_workers(2);
        if shuffle {
            builder = builder.shuffle(3);
        }
        let loader = builder.build().unwrap();

        let mut epoch = loader.epoch();
        let rows: usize = epoch.by_ref().map(|b| b.unwrap().len()).sum();
        assert_eq!(rows, 1200);
        let report = epoch.report();
        drop(epoch);
        assert_eq!(report.queue_wait.count, blocks + 1);
        assert_eq!(report.fetch.count, blocks);
        assert_eq!(report.workers.iter().map(|w| w.tasks).sum::<u64>(), blocks);
        assert_eq!(loader.metrics().gauge("loader.queue_depth"), Some(0));

        let mut epoch = loader.epoch();
        epoch.next().unwrap().unwrap();
        drop(epoch);
        assert_eq!(loader.metrics().gauge("loader.queue_depth"), Some(0));
    }
}
