//! Chunk-statistics predicate pushdown, end to end: write a dataset whose
//! scalar chunks carry min/max statistics, run selective queries over
//! simulated S3, and watch the executor skip chunks — and storage round
//! trips — the filter cannot match.
//!
//! ```sh
//! cargo run --example query_pruning
//! ```

use std::sync::Arc;

use deeplake::prelude::*;
use deeplake::tql::{execute, parser, QueryOptions};

fn main() {
    // ---- write: per-chunk statistics are recorded at append time ----
    //
    // Labels arrive roughly sorted (a common ingest pattern: per-class
    // folders), so each small label chunk covers a narrow value range —
    // exactly what interval pruning thrives on.
    let backing = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(backing.clone(), "animals").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(128); // tiny chunks for the demo
        o
    })
    .unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(Compression::None);
        o
    })
    .unwrap();
    let rows = 1000u64;
    for i in 0..rows {
        ds.append_row(vec![
            ("labels", Sample::scalar((i * 20 / rows) as i32)), // classes 0..20
            (
                "images",
                Sample::from_slice([16, 16, 3], &[(i % 251) as u8; 768]).unwrap(),
            ),
        ])
        .unwrap();
    }
    ds.flush().unwrap();

    // ---- query over simulated S3, counting storage round trips ----
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));

    for text in [
        "SELECT * FROM animals WHERE labels = 7",  // ~5% selective
        "SELECT * FROM animals WHERE labels < 3",  // ~15%
        "SELECT * FROM animals WHERE labels >= 0", // everything
        "SELECT * FROM animals WHERE CONTAINS(labels, 19)",
    ] {
        let q = parser::parse(text).unwrap();

        // fresh handles per run: each measurement starts cold, nothing
        // served from the previous query's parsed-chunk cache
        let ds = Dataset::open(sim.clone()).unwrap();
        let opened = sim.stats().snapshot();
        let pruned = execute(&ds, &q, &QueryOptions::default()).unwrap();
        let pruned_trips = sim.stats().snapshot().delta_since(&opened).round_trips;

        let ds = Dataset::open(sim.clone()).unwrap();
        let opened = sim.stats().snapshot();
        let full = execute(
            &ds,
            &q,
            &QueryOptions {
                pruning: false,
                ..Default::default()
            },
        )
        .unwrap();
        let full_trips = sim.stats().snapshot().delta_since(&opened).round_trips;
        assert_eq!(pruned.indices, full.indices, "pushdown is result-identical");

        let s = pruned.stats;
        println!("{text}");
        println!(
            "  {} rows | spans: {} pruned, {} matched whole, {} scanned | \
             round trips: {} pruned vs {} full-scan",
            pruned.len(),
            s.chunks_pruned,
            s.chunks_matched,
            s.chunks_scanned,
            pruned_trips,
            full_trips,
        );
    }

    // The pruned result is still just a view: stream it to training.
    let ds = Arc::new(Dataset::open(sim.clone()).unwrap());
    let result = query(&ds, "SELECT * FROM animals WHERE labels = 7").unwrap();
    let view = result.view(&ds);
    let loader = DataLoader::builder(ds.clone())
        .view(&view)
        .batch_size(16)
        .build()
        .unwrap();
    let streamed: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    println!("streamed {streamed} matching rows straight from the pruned view");
}
