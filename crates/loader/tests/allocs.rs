//! Allocations per delivered row, counted over every thread of an epoch
//! (workers, consumer, collate). Its own test binary: the counting
//! allocator is global.

use std::sync::Arc;

use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_loader::DataLoader;
use deeplake_obs::alloc::Counting;
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Htype, Sample};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A shuffled two-tensor epoch (uncompressed images, so a sample is a
/// view of its chunk, and labels) allocates a fixed handful of times per
/// delivered row: what reading the two samples out of their chunks
/// costs, plus the row's sample list — no `String` per cell, no map
/// node, no clone in collate. The per-task and per-batch allocations
/// (fetch plan, chunk parse, column buffers) are spread over 28–32 rows
/// each.
///
/// Measured by this test: 8.90 allocations per row when every row was
/// its own message carrying a `BTreeMap<String, Sample>` and collate
/// cloned each sample (the parent commit), 5.57 with one message per
/// task; the bound sits between the two.
#[test]
fn an_epoch_allocates_a_handful_of_times_per_row() {
    const ROWS: u64 = 4000;
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "allocs").unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(Compression::None);
        o.chunk_target_bytes = Some(29 * 192);
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..ROWS {
        ds.append_row(vec![
            (
                "images",
                Sample::from_slice([8, 8, 3], &[(i % 251) as u8; 192]).unwrap(),
            ),
            ("labels", Sample::scalar(i as i32)),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    let loader = DataLoader::builder(Arc::new(ds))
        .batch_size(32)
        .num_workers(1)
        .shuffle(5)
        .build()
        .unwrap();

    let before = Counting::total();
    let mut epoch = loader.epoch();
    let rows: usize = epoch.by_ref().map(|b| b.unwrap().len()).sum();
    drop(epoch); // joins the worker
    let per_row = Counting::total().since(before).allocations as f64 / ROWS as f64;
    assert_eq!(rows as u64, ROWS);
    eprintln!("{per_row:.2} allocations per delivered row");
    assert!(per_row <= 7.0, "{per_row:.2} allocations per delivered row");
}
