//! Allocations of the write path: an appended row through
//! `Dataset::extend_rows`, a `Row` clone, and a pre-encoded append; and
//! of the image decode a read of one of those rows runs. Its
//! own test binary: the counting allocator is global, but it counts per
//! thread, so tests running beside each other do not disturb their
//! counts.

use std::sync::Arc;

use bytes::Bytes;
use deeplake_codec::Compression;
use deeplake_core::chunk_cache::ChunkCache;
use deeplake_core::dataset::TensorOptions;
use deeplake_core::tensor_store::TensorStore;
use deeplake_core::{Dataset, Row};
use deeplake_format::TensorMeta;
use deeplake_obs::alloc::{counted, Counting};
use deeplake_storage::{MemoryProvider, PrefixProvider};
use deeplake_tensor::{Dtype, Htype, Sample, Shape};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A smooth 32×32×3 image, a class label and a 32-d embedding.
fn row(i: u64) -> Row {
    let pixels: Vec<u8> = (0..32u64 * 32 * 3)
        .map(|p| ((p / 3 % 32) / 2 + (p / 96) / 3 + (p % 3) * 37 + i) as u8)
        .collect();
    let emb: Vec<f32> = (0..32).map(|d| ((i * 31 + d) % 97) as f32 / 97.0).collect();
    Row::new()
        .with(
            "images",
            Sample::from_bytes(Dtype::U8, Shape::from([32, 32, 3]), Bytes::from(pixels)).unwrap(),
        )
        .with("labels", Sample::scalar((i % 1000) as i32))
        .with("emb", Sample::from_slice([32], &emb).unwrap())
}

/// 4,096 such rows through `extend_rows` with a `flush` every 256 — the
/// shape of a benchmark ingest round — allocate a few times per row,
/// amortised over everything the flushes write: the `_ids` sample the
/// dataset makes for each row and the chunks, encoders and metadata of
/// each flush. No blob is built per sample, no shape bound per tensor,
/// no residual plane per image.
///
/// Measured by this test: 12.9 allocations per row when each sample was
/// encoded into a blob of its own, shape bounds were rebuilt per sample
/// and `Row` was a `BTreeMap`; 3.8 with samples encoded onto the open
/// chunk, two of them the `_ids` sample (its bytes built in a `Vec`, then
/// copied into a `Bytes`); 2.8 with every constructed `Sample` one
/// allocation.
#[test]
fn an_appended_row_allocates_a_few_times() {
    const ROWS: u64 = 4096;
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "allocs").unwrap();
    for (name, htype, target) in [
        ("images", Htype::Image, 256 << 10),
        ("labels", Htype::ClassLabel, 4 << 10),
        ("emb", Htype::Embedding, 64 << 10),
    ] {
        let mut opts = TensorOptions::new(htype);
        opts.chunk_target_bytes = Some(target);
        ds.create_tensor_opts(name, opts).unwrap();
    }
    let mut rows: Vec<Row> = (0..ROWS).map(row).collect();
    let ((), counts) = counted(|| {
        while !rows.is_empty() {
            let batch: Vec<Row> = rows.drain(..256).collect();
            ds.extend_rows(batch).unwrap();
            ds.flush().unwrap();
        }
    });
    assert_eq!(ds.len(), ROWS);
    let per_row = counts.allocations as f64 / ROWS as f64;
    assert!(per_row <= 3.0, "{per_row:.2} allocations per row");
}

/// A clone is the values' `Vec` plus one allocation per shape with axes
/// (the image's and the embedding's): names and bytes are shared. A
/// `BTreeMap<String, Sample>` row took 6.
#[test]
fn a_row_clone_allocates_for_its_vec_and_shapes() {
    let original = row(7);
    let (copy, counts) = counted(|| original.clone());
    assert_eq!(copy, original);
    assert_eq!(counts.allocations, 3);
}

/// A pre-encoded blob is validated and observed by its declared shape:
/// nothing the size of the decoded image is allocated for it (a
/// zero-filled stand-in sample made this 6.3 MB).
#[test]
fn an_encoded_append_does_not_allocate_its_decoded_size() {
    const DECODED: usize = 1024 * 1024 * 3;
    let mut meta = TensorMeta::new("images", Htype::Image, None);
    meta.chunk_target_bytes = 64 << 10;
    let codec = meta.sample_compression;
    let head = PrefixProvider::new(Arc::new(MemoryProvider::new()), "versions/v0/images");
    let mut store = TensorStore::create(meta, head, Arc::new(ChunkCache::default())).unwrap();
    let blob = codec
        .compress_image(&vec![128u8; DECODED], 1024, 1024, 3)
        .unwrap();
    assert!(
        blob.len() < 64 << 10,
        "the blob fits a chunk: {}",
        blob.len()
    );
    let (appended, counts) = counted(|| store.append_encoded(blob, Shape::from([1024, 1024, 3])));
    appended.unwrap();
    assert!(counts.bytes < DECODED, "{} bytes allocated", counts.bytes);
    assert_eq!(store.get(0).unwrap().shape(), &Shape::from([1024, 1024, 3]));
}

/// An image decode allocates its output and nothing else: a packed
/// plane is expanded inside the output, whatever the image's size, and a
/// one-residual-a-byte plane (8 bits) lands in it directly.
#[test]
fn an_image_decode_allocates_only_its_output() {
    for (side, bits) in [(32u32, 4u8), (32, 3), (32, 8), (512, 4)] {
        let n = (side * side * 3) as usize;
        let pixels: Vec<u8> = (0..n).map(|p| (p / 3 % 61 + p % 3 * 40) as u8).collect();
        let blob = Compression::SynthImg { bits }
            .compress_image(&pixels, side, side, 3)
            .unwrap();
        let (decoded, counts) = counted(|| Compression::decompress_image(&blob));
        assert_eq!(decoded.unwrap().0.len(), n);
        assert_eq!(
            (counts.allocations, counts.bytes),
            (1, n),
            "{side}x{side}x3 at {bits} bits"
        );
    }
}
