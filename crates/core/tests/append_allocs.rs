//! Allocations of the write path: an appended row through
//! `Dataset::extend_rows`, a `Row` clone, and a pre-encoded append. Its
//! own test binary: the counting allocator is global, but it counts per
//! thread, so tests running beside each other do not disturb their
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use deeplake_core::chunk_cache::ChunkCache;
use deeplake_core::dataset::TensorOptions;
use deeplake_core::tensor_store::TensorStore;
use deeplake_core::{Dataset, Row};
use deeplake_format::TensorMeta;
use deeplake_storage::{MemoryProvider, PrefixProvider};
use deeplake_tensor::{Dtype, Htype, Sample, Shape};

struct Counting;

thread_local! {
    // const-initialised and without a destructor: safe to touch from
    // inside the allocator
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `alloc` and `dealloc`
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes allocated)` on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (n0, b0) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (n1, b1) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    (out, n1 - n0, b1 - b0)
}

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
/// chunk, two of them the `_ids` sample.
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
    let ((), allocations, _) = counted(|| {
        while !rows.is_empty() {
            let batch: Vec<Row> = rows.drain(..256).collect();
            ds.extend_rows(batch).unwrap();
            ds.flush().unwrap();
        }
    });
    assert_eq!(ds.len(), ROWS);
    let per_row = allocations as f64 / ROWS as f64;
    assert!(per_row <= 5.0, "{per_row:.2} allocations per row");
}

/// A clone is the values' `Vec` plus one allocation per shape with axes
/// (the image's and the embedding's): names and bytes are shared. A
/// `BTreeMap<String, Sample>` row took 6.
#[test]
fn a_row_clone_allocates_for_its_vec_and_shapes() {
    let original = row(7);
    let (copy, allocations, _) = counted(|| original.clone());
    assert_eq!(copy, original);
    assert_eq!(allocations, 3);
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
    let (appended, _, bytes) = counted(|| store.append_encoded(blob, Shape::from([1024, 1024, 3])));
    appended.unwrap();
    assert!(bytes < DECODED, "{bytes} bytes allocated");
    assert_eq!(store.get(0).unwrap().shape(), &Shape::from([1024, 1024, 3]));
}
