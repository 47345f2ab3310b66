//! Query-view streaming: a chunk-pruned TQL result feeds the dataloader
//! (§4.4–4.5) and the workers still take the batched scatter-gather path.

use std::sync::Arc;

use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_loader::DataLoader;
use deeplake_storage::{MemoryProvider, NetworkProfile, SimulatedCloudProvider, StorageProvider};
use deeplake_tensor::{Htype, Sample};

fn seed(provider: std::sync::Arc<dyn StorageProvider>) {
    let mut ds = Dataset::create(provider, "views").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(64);
        o
    })
    .unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(deeplake_codec::Compression::None);
        o.chunk_target_bytes = Some(4 << 10);
        o
    })
    .unwrap();
    for i in 0..200u64 {
        ds.append_row(vec![
            ("labels", Sample::scalar((i / 20) as i32)), // sorted labels
            (
                "images",
                Sample::from_slice([8, 8, 3], &[(i % 251) as u8; 192]).unwrap(),
            ),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
}

#[test]
fn pruned_query_view_streams_batched() {
    let backing = Arc::new(MemoryProvider::new());
    seed(backing.clone());
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds = Arc::new(Dataset::open(sim.clone()).unwrap());

    // selective, pruned query -> view over 20 rows
    let result = deeplake_tql::query(&ds, "SELECT * FROM d WHERE labels = 4").unwrap();
    assert_eq!(result.len(), 20);
    assert!(result.stats.chunks_pruned > 0, "sorted labels must prune");
    let view = result.view(&ds);

    let before = sim.stats().snapshot();
    let loader = DataLoader::builder(ds.clone())
        .view(&view)
        .batch_size(8)
        .num_workers(2)
        .build()
        .unwrap();
    let mut labels = Vec::new();
    for batch in loader.epoch() {
        let b = batch.unwrap();
        let col = b.column("labels").unwrap();
        for i in 0..col.len() {
            labels.push(col.get(i).unwrap().get_f64(0).unwrap() as i32);
        }
    }
    assert_eq!(labels, vec![4; 20]);
    // the view's 20 rows cluster in a couple of chunks: batched worker
    // reads must need far fewer round trips than rows
    let round_trips = sim.stats().snapshot().delta_since(&before).round_trips;
    assert!(
        round_trips < 10,
        "view streaming should stay batched, got {round_trips} round trips"
    );
}

/// A top-k similarity result streams through `LoaderBuilder::view()` in
/// result (similarity) order — the §4.4–4.5 consumption path for the
/// vector search subsystem.
#[test]
fn top_k_query_view_streams_in_result_order() {
    let backing = Arc::new(MemoryProvider::new());
    {
        let mut ds = Dataset::create(backing.clone(), "topk").unwrap();
        ds.create_tensor_opts("emb", {
            let mut o = TensorOptions::new(deeplake_tensor::Htype::Embedding);
            o.chunk_target_bytes = Some(256);
            o
        })
        .unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..100u64 {
            // row i sits at distance |i - 40| from the query point
            let v = [i as f32, 0.0];
            ds.append_row(vec![
                ("emb", Sample::from_slice([2], &v).unwrap()),
                ("labels", Sample::scalar(i as i32)),
            ])
            .unwrap();
        }
        ds.flush().unwrap();
    }
    let ds = Arc::new(Dataset::open(backing).unwrap());
    let result = deeplake_tql::query(
        &ds,
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [40, 0]) LIMIT 5",
    )
    .unwrap();
    assert_eq!(result.indices, vec![40, 39, 41, 38, 42]);
    let view = result.view(&ds);

    let streamed: Vec<i32> = DataLoader::builder(ds.clone())
        .view(&view)
        .batch_size(2)
        .num_workers(2)
        .build()
        .unwrap()
        .epoch()
        .flat_map(|b| {
            let b = b.unwrap();
            let col = b.column("labels").unwrap();
            (0..col.len())
                .map(|i| col.get(i).unwrap().get_f64(0).unwrap() as i32)
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        streamed,
        vec![40, 39, 41, 38, 42],
        "loader preserves similarity order"
    );
}

#[test]
fn view_builder_matches_indices_builder() {
    let backing = Arc::new(MemoryProvider::new());
    seed(backing.clone());
    let ds = Arc::new(Dataset::open(backing).unwrap());
    let result = deeplake_tql::query(&ds, "SELECT * FROM d WHERE labels = 7").unwrap();
    let view = result.view(&ds);

    let via_view: Vec<u64> = DataLoader::builder(ds.clone())
        .view(&view)
        .batch_size(4)
        .build()
        .unwrap()
        .epoch()
        .flat_map(|b| {
            let b = b.unwrap();
            let col = b.column("labels").unwrap();
            (0..col.len())
                .map(|i| col.get(i).unwrap().get_f64(0).unwrap() as u64)
                .collect::<Vec<_>>()
        })
        .collect();
    let via_indices: Vec<u64> = DataLoader::builder(ds)
        .indices(result.indices.clone())
        .batch_size(4)
        .build()
        .unwrap()
        .epoch()
        .flat_map(|b| {
            let b = b.unwrap();
            let col = b.column("labels").unwrap();
            (0..col.len())
                .map(|i| col.get(i).unwrap().get_f64(0).unwrap() as u64)
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(via_view, via_indices);
    assert_eq!(via_view.len(), 20);
}
