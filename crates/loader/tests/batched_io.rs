//! Integration: the batched scatter-gather read path must collapse
//! per-chunk round trips into per-task batches (§3.5/§4.6).

use std::sync::Arc;

use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_loader::DataLoader;
use deeplake_storage::{DynProvider, MemoryProvider, NetworkProfile, SimulatedCloudProvider};
use deeplake_tensor::{Htype, Sample};

/// 200 rows of 192-byte images over 1 KB chunks → ~5 rows per chunk, so
/// every 32-row loader task spans several chunks.
fn simulated_dataset() -> (
    Arc<SimulatedCloudProvider<Arc<MemoryProvider>>>,
    Arc<Dataset>,
) {
    let backing = Arc::new(MemoryProvider::new());
    {
        let mut ds = Dataset::create(backing.clone(), "batched").unwrap();
        ds.create_tensor_opts("images", {
            let mut o = TensorOptions::new(Htype::Image);
            o.sample_compression = Some(Compression::None);
            o.chunk_target_bytes = Some(1024);
            o
        })
        .unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..200u64 {
            ds.append_row(vec![
                (
                    "images",
                    Sample::from_slice([8, 8, 3], &[(i % 251) as u8; 192]).unwrap(),
                ),
                ("labels", Sample::scalar((i % 10) as i32)),
            ])
            .unwrap();
        }
        ds.flush().unwrap();
    }
    let charged = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds = Arc::new(Dataset::open(charged.clone() as DynProvider).unwrap());
    (charged, ds)
}

fn run_epoch(ds: Arc<Dataset>) -> u64 {
    let loader = DataLoader::builder(ds)
        .batch_size(32)
        .num_workers(4)
        .build()
        .unwrap();
    let mut rows = 0u64;
    for batch in loader.epoch() {
        rows += batch.unwrap().len() as u64;
    }
    rows
}

/// The reference the loader's batched tasks are compared against: every
/// sample read on its own through `Dataset::get`, one round trip per
/// chunk not yet decoded. Returns the labels in row order.
fn single_key_epoch(ds: &Dataset) -> Vec<i32> {
    (0..ds.len())
        .map(|row| {
            ds.get("images", row).unwrap();
            ds.get("labels", row).unwrap().get_f64(0).unwrap() as i32
        })
        .collect()
}

#[test]
fn epoch_round_trips_at_least_4x_below_logical_chunk_reads() {
    let (charged, ds) = simulated_dataset();
    let opened = charged.stats().snapshot(); // open()'s metadata traffic is not the epoch's
    assert_eq!(run_epoch(ds), 200);
    let stats = charged.stats().snapshot().delta_since(&opened);
    let logical = stats.logical_reads;
    let round_trips = stats.round_trips;
    assert!(round_trips > 0, "the epoch must reach the provider");
    eprintln!("batched epoch: {logical} logical chunk reads in {round_trips} round trips");
    assert!(
        round_trips * 4 <= logical,
        "batched epoch: {round_trips} round trips for {logical} logical chunk reads \
         (need ≥4× reduction)"
    );
    // every task-batch coalesced at least its own requests
    assert!(stats.batch_requests > 0);
    assert!(stats.coalesced_fetches <= logical);
}

#[test]
fn batched_epoch_issues_fewer_round_trips_than_single_key_epoch() {
    // each side opens the dataset itself so its chunk memo is COLD — on
    // a shared handle the second pass would be served from the memo and
    // measure nothing
    let (charged, ds) = simulated_dataset();
    let round_trips_of = |work: &dyn Fn()| {
        let before = charged.stats().snapshot();
        work();
        charged.stats().snapshot().delta_since(&before).round_trips
    };
    let single_key_rt = round_trips_of(&|| assert_eq!(single_key_epoch(&ds).len(), 200));
    // reopened outside the measured call: its metadata traffic is not the epoch's
    let reopened = Arc::new(Dataset::open(charged.clone() as DynProvider).unwrap());
    let batched_rt = round_trips_of(&|| assert_eq!(run_epoch(reopened.clone()), 200));
    assert!(batched_rt > 0, "cold batched epoch must reach the provider");
    assert!(
        batched_rt * 4 <= single_key_rt,
        "batched {batched_rt} vs single-key {single_key_rt} round trips"
    );
}

#[test]
fn batched_and_single_key_epochs_deliver_identical_data() {
    let (charged, ds) = simulated_dataset();
    let loader = DataLoader::builder(ds)
        .batch_size(16)
        .num_workers(4)
        .build()
        .unwrap();
    let batched: Vec<i32> = loader
        .epoch()
        .flat_map(|b| {
            let b = b.unwrap();
            let col = b.column("labels").unwrap();
            (0..col.len())
                .map(|i| col.get(i).unwrap().get_f64(0).unwrap() as i32)
                .collect::<Vec<_>>()
        })
        .collect();
    let cold = Dataset::open(charged as DynProvider).unwrap();
    assert_eq!(batched, single_key_epoch(&cold));
}
