//! Cloud streaming (§5.1 / Fig. 9): train against simulated S3 and watch
//! GPU utilization stay high, then add an LRU cache tier (§3.6 provider
//! chaining) and watch the second epoch run at local speed.
//!
//! Loader workers read through the **batched read path**: every task
//! builds one `ReadPlan` covering all the chunks its rows touch and the
//! provider chain executes it as a single round trip — the LRU tier fills
//! all misses with one base batch, and the simulated S3 below charges one
//! amortized first-byte latency per batch instead of one per chunk (the
//! printed logical-reads / round-trips pair is that ratio).
//!
//! ```sh
//! cargo run --release --example cloud_streaming
//! ```

use std::sync::Arc;
use std::time::Instant;

use deeplake::prelude::*;
use deeplake::sim::datagen;
use deeplake::sim::gpu::GpuConsumer;

fn main() {
    // build a dataset on the backing store, then put a simulated S3 link
    // in front of it (20x faster than real time)
    let backing = Arc::new(MemoryProvider::new());
    let images = datagen::imagenet_like(400, 64, 1);
    {
        let mut ds = Dataset::create(backing.clone(), "cloud").unwrap();
        ds.create_tensor_opts("images", {
            let mut o = TensorOptions::new(Htype::Image);
            o.sample_compression = Some(Compression::JPEG_LIKE);
            o.chunk_target_bytes = Some(1 << 20);
            o
        })
        .unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for img in &images {
            let sample = Sample::from_bytes(
                Dtype::U8,
                Shape::from([img.h as u64, img.w as u64, img.c as u64]),
                img.pixels.clone(),
            )
            .unwrap();
            ds.append_row(vec![
                ("images", sample),
                ("labels", Sample::scalar(img.label)),
            ])
            .unwrap();
        }
        ds.flush().unwrap();
        ds.commit("ingested").unwrap();
    }

    let s3 = SimulatedCloudProvider::new("s3", backing, NetworkProfile::s3().scaled(0.05));
    let cached = Arc::new(LruCacheProvider::new(s3, 256 << 20));
    let ds = Arc::new(Dataset::open(cached.clone()).unwrap());

    let loader = DataLoader::builder(ds)
        .batch_size(32)
        .num_workers(8)
        .prefetch(4)
        .shuffle(7)
        .build()
        .unwrap();

    for epoch_no in 0..2 {
        let mut gpu = GpuConsumer::new(4_000.0, 1.0);
        let start = Instant::now();
        for batch in loader.epoch() {
            gpu.consume(batch.unwrap().len());
        }
        let report = gpu.report();
        let stats = cached.stats();
        println!(
            "epoch {epoch_no}: {:>5.2}s wall, {:>4.0} img/s, GPU util {:>3.0}%, cache hit {:>3.0}%, \
             {} chunk reads in {} batches",
            start.elapsed().as_secs_f64(),
            report.images_per_sec(),
            report.utilization() * 100.0,
            stats.hit_ratio() * 100.0,
            stats.logical_reads(),
            stats.batch_requests(),
        );
    }
    println!(
        "cache after two epochs: {} objects / {:.1} MB resident",
        cached.cached_objects(),
        cached.cached_bytes() as f64 / 1e6
    );
}
