//! Predicate pushdown over simulated S3: a selective `WHERE labels = k`
//! query must skip most label chunks (statistics pruning) and reach the
//! provider in far fewer round trips than the naive full scan — measured
//! with the provider-side `StorageStats` from the batched-I/O layer.

use std::sync::Arc;

use deeplake::prelude::*;
use deeplake_tql::{execute, parser, QueryOptions};

const ROWS: u64 = 400;

/// Rows with labels in sorted order (0..=9, 40 rows each) so label chunks
/// are homogeneous, plus an image payload. Tiny label chunks ensure the
/// query spans many of them.
fn seed(provider: DynProvider) {
    let mut ds = Dataset::create(provider, "pushdown").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(64);
        o
    })
    .unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(Compression::None);
        o.chunk_target_bytes = Some(8 << 10);
        o
    })
    .unwrap();
    for i in 0..ROWS {
        ds.append_row(vec![
            ("labels", Sample::scalar((i * 10 / ROWS) as i32)),
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
fn selective_query_prunes_chunks_and_round_trips() {
    let backing = Arc::new(MemoryProvider::new());
    seed(backing.clone());
    let q = parser::parse("SELECT * FROM d WHERE labels = 3").unwrap();

    // ---- pruned execution over a fresh simulated-cloud handle ----
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing.clone(),
        NetworkProfile::instant(),
    ));
    let ds = Dataset::open(sim.clone()).unwrap();
    let opened = sim.stats().snapshot();
    let pruned = execute(&ds, &q, &QueryOptions::default()).unwrap();
    let pruned_round_trips = sim.stats().snapshot().delta_since(&opened).round_trips;

    assert_eq!(pruned.len(), 40, "one of ten labels is selected");
    assert!(pruned.indices.iter().all(|&r| r / (ROWS / 10) == 3));

    let total_spans =
        pruned.stats.chunks_pruned + pruned.stats.chunks_matched + pruned.stats.chunks_scanned;
    assert!(
        total_spans > 10,
        "labels must span many chunks, got {total_spans}"
    );
    assert!(
        pruned.stats.chunks_pruned * 2 >= total_spans,
        "expected >= 50% of chunks pruned: pruned {} of {total_spans}",
        pruned.stats.chunks_pruned
    );
    assert!(
        pruned.stats.chunks_matched > 0,
        "homogeneous label-3 chunks should match whole without I/O"
    );
    // only undecided (boundary) spans may fetch
    assert!(
        pruned.stats.round_trips <= pruned.stats.chunks_scanned,
        "round trips ({}) must not exceed scanned spans ({})",
        pruned.stats.round_trips,
        pruned.stats.chunks_scanned
    );

    // ---- naive full scan over an equally fresh handle ----
    let sim_full = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds_full = Dataset::open(sim_full.clone()).unwrap();
    let opened_full = sim_full.stats().snapshot();
    let full = execute(
        &ds_full,
        &q,
        &QueryOptions {
            pruning: false,
            ..Default::default()
        },
    )
    .unwrap();
    let full_round_trips = sim_full
        .stats()
        .snapshot()
        .delta_since(&opened_full)
        .round_trips;

    // identical results...
    assert_eq!(full.indices, pruned.indices);
    assert_eq!(full.stats.chunks_pruned, 0, "naive path never prunes");
    // ...at a fraction of the storage traffic
    assert!(
        pruned_round_trips * 2 <= full_round_trips,
        "pruned execution must at least halve storage round trips: {pruned_round_trips} vs {full_round_trips}"
    );
}

#[test]
fn undecided_spans_batch_into_few_round_trips() {
    // interleaved labels: every chunk holds both matching and
    // non-matching rows, so statistics decide nothing and every span
    // must scan — the batched task path has to shine here, not pruning
    let backing = Arc::new(MemoryProvider::new());
    {
        let mut ds = Dataset::create(backing.clone(), "interleaved").unwrap();
        ds.create_tensor_opts("labels", {
            let mut o = TensorOptions::new(Htype::ClassLabel);
            o.chunk_target_bytes = Some(64);
            o
        })
        .unwrap();
        for i in 0..ROWS {
            ds.append_row(vec![("labels", Sample::scalar((i % 10) as i32))])
                .unwrap();
        }
        ds.flush().unwrap();
    }
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds = Dataset::open(sim.clone()).unwrap();
    let opened = sim.stats().snapshot();
    let r = deeplake_tql::query(&ds, "SELECT * FROM d WHERE labels = 3").unwrap();
    let round_trips = sim.stats().snapshot().delta_since(&opened).round_trips;
    assert_eq!(r.len(), 40);
    // interleaving defeats pruning for every full-cycle chunk (only a
    // trailing partial chunk may still decide)
    assert!(r.stats.chunks_pruned <= 1);
    assert!(r.stats.chunks_scanned > 10, "almost every span scans");
    // undecided spans share one batched fetch per worker task
    assert!(
        round_trips * 4 <= r.stats.chunks_scanned,
        "scanned spans must batch: {round_trips} round trips for {} spans",
        r.stats.chunks_scanned
    );
}

#[test]
fn unselective_query_still_matches_naive_traffic_shape() {
    let backing = Arc::new(MemoryProvider::new());
    seed(backing.clone());
    // every row matches: nothing can be pruned, everything decides whole
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds = Dataset::open(sim.clone()).unwrap();
    let opened = sim.stats().snapshot();
    let r = deeplake_tql::query(&ds, "SELECT * FROM d WHERE labels >= 0").unwrap();
    assert_eq!(r.len(), ROWS as usize);
    assert_eq!(r.stats.chunks_pruned, 0);
    assert!(
        r.stats.chunks_matched > 0,
        "statistics prove whole chunks match without fetching them"
    );
    assert_eq!(
        sim.stats().snapshot().delta_since(&opened).round_trips,
        0,
        "an all-match filter over scalar stats needs no chunk fetch at all"
    );
}
