//! Cross-crate integration over simulated cloud storage: request
//! accounting, cache chaining, tiling, and linked-tensor materialization
//! across providers.

use std::sync::Arc;

use deeplake::prelude::*;
use deeplake_core::link::{make_link, single_provider_registry};

fn seed_dataset(provider: DynProvider, rows: u64) {
    let mut ds = Dataset::create(provider, "cloud").unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(Compression::JPEG_LIKE);
        o.chunk_target_bytes = Some(64 << 10);
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..rows {
        let img = Sample::from_slice([24, 24, 3], &vec![(i % 251) as u8; 1728]).unwrap();
        ds.append_row(vec![
            ("images", img),
            ("labels", Sample::scalar((i % 7) as i32)),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
}

#[test]
fn chunked_reads_beat_per_sample_requests() {
    let backing = Arc::new(MemoryProvider::new());
    seed_dataset(backing.clone(), 100);
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds = Arc::new(Dataset::open(sim.clone()).unwrap());
    let opened = sim.stats().snapshot();

    let loader = DataLoader::builder(ds)
        .batch_size(25)
        .num_workers(4)
        .build()
        .unwrap();
    let rows: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    assert_eq!(rows, 100);
    // 100 samples must arrive in far fewer storage round trips than
    // samples — chunked layout (§3.5) plus batched task reads. With the
    // batched default the loader goes through `execute`, so the numbers
    // to watch are round_trips/logical_reads, not single-key requests().
    // round_trips counts both single-key reads and amortized batches
    let epoch = sim.stats().snapshot().delta_since(&opened);
    let round_trips = epoch.round_trips;
    assert!(
        round_trips > 0,
        "the epoch must have touched the provider at all"
    );
    assert!(
        round_trips < 50,
        "expected chunked, batched fetches, got {round_trips} round trips"
    );
    assert!(
        epoch.logical_reads < 100,
        "chunked layout must need fewer chunk reads than samples"
    );
}

#[test]
fn lru_cache_eliminates_second_epoch_traffic() {
    let backing = Arc::new(MemoryProvider::new());
    seed_dataset(backing.clone(), 60);
    let sim = SimulatedCloudProvider::new("s3", backing, NetworkProfile::instant());
    let cached = Arc::new(LruCacheProvider::new(sim, 512 << 20));
    let ds = Arc::new(Dataset::open(cached.clone()).unwrap());

    let loader = DataLoader::builder(ds)
        .batch_size(16)
        .num_workers(2)
        .build()
        .unwrap();
    let first: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    let miss_after_first = cached.stats().cache_misses();
    let second: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    assert_eq!(first, 60);
    assert_eq!(second, 60);
    assert_eq!(
        cached.stats().cache_misses(),
        miss_after_first,
        "second epoch must be served from cache"
    );
}

#[test]
fn oversized_samples_tile_across_cloud_chunks() {
    let backing = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(backing.clone(), "aerial").unwrap();
    ds.create_tensor_opts("scan", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(Compression::None);
        o.chunk_target_bytes = Some(32 << 10); // 32 KB chunks, 64 KB cap
        o
    })
    .unwrap();
    // a 300x300x3 = 270 KB sample must tile
    let n = 300 * 300 * 3;
    let data: Vec<u8> = (0..n).map(|i| (i % 249) as u8).collect();
    let big = Sample::from_slice([300, 300, 3], &data).unwrap();
    ds.append_row(vec![("scan", big.clone())]).unwrap();
    ds.flush().unwrap();
    assert!(ds.store("scan").unwrap().is_tiled(0));

    // reopen through a provider that counts traffic and reassemble
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds = Dataset::open(sim.clone()).unwrap();
    let back = ds.get("scan", 0).unwrap();
    assert_eq!(back, big);
    assert!(sim.stats().requests() > 3, "tiles fetched individually");
}

#[test]
fn linked_tensors_resolve_across_providers() {
    // two external providers, pointers mixed in one tensor (§4.5: "the
    // pointers within a single tensor can be connected to multiple storage
    // providers")
    let (mut registry, ext_a) = single_provider_registry("prov-a", MemoryProvider::new());
    let ext_b: DynProvider = Arc::new(MemoryProvider::new());
    registry.register("prov-b", ext_b.clone());
    for (store, key, fill) in [(&ext_a, "x.bin", 10u8), (&ext_b, "y.bin", 20u8)] {
        let pixels = vec![fill; 12 * 12 * 3];
        let blob = Compression::JPEG_LIKE
            .compress_image(&pixels, 12, 12, 3)
            .unwrap();
        store.put(key, bytes::Bytes::from(blob)).unwrap();
    }

    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "multi").unwrap();
    let mut opts = TensorOptions::new(Htype::parse("link[image]").unwrap());
    opts.dtype = Some(Dtype::U8);
    ds.create_tensor_opts("images", opts).unwrap();
    ds.append_row(vec![("images", make_link("prov-a", "x.bin"))])
        .unwrap();
    ds.append_row(vec![("images", make_link("prov-b", "y.bin"))])
        .unwrap();
    ds.flush().unwrap();

    let view = DatasetView::full(&ds);
    let (out, stats) = materialize(
        &view,
        Arc::new(MemoryProvider::new()),
        "inlined",
        Some(&registry),
    )
    .unwrap();
    assert_eq!(stats.links_resolved, 2);
    assert_eq!(out.tensor_meta("images").unwrap().htype, Htype::Image);
    assert_eq!(out.get("images", 0).unwrap().shape().dims(), &[12, 12, 3]);
    assert_eq!(out.get("images", 1).unwrap().shape().dims(), &[12, 12, 3]);
}

#[test]
fn branches_persist_across_reopen_on_cloud() {
    let backing = Arc::new(MemoryProvider::new());
    {
        let mut ds = Dataset::create(backing.clone(), "persisted").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..10 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.commit("base").unwrap();
        ds.checkout_new_branch("exp").unwrap();
        ds.update("labels", 0, &Sample::scalar(-5i32)).unwrap();
        ds.commit("exp edit").unwrap();
    }
    // reopen through a fresh simulated-cloud handle
    let sim: DynProvider = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let mut ds = Dataset::open(sim).unwrap();
    assert_eq!(ds.get("labels", 0).unwrap().get_f64(0).unwrap(), 0.0);
    ds.checkout("exp").unwrap();
    assert_eq!(ds.get("labels", 0).unwrap().get_f64(0).unwrap(), -5.0);
    assert_eq!(ds.branches().len(), 2);
}
