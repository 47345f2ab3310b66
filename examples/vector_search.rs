//! Vector similarity search, end to end: store embeddings, build an IVF
//! index, run `ORDER BY <similarity> LIMIT k` queries both exactly and
//! approximately over simulated S3, and stream the top-k result to the
//! dataloader.
//!
//! ```sh
//! cargo run --example vector_search
//! ```

use std::sync::Arc;
use std::time::Instant;

use deeplake::prelude::*;
use deeplake::tql::{execute, parser};

const DIM: u64 = 32;
const CLUSTERS: u64 = 16;
const PER_CLUSTER: u64 = 250;

fn embedding(cluster: u64, i: u64) -> Sample {
    let mut v = vec![0.0f32; DIM as usize];
    v[0] = cluster as f32 * 20.0 + (i % 9) as f32 * 0.05;
    v[1] = cluster as f32 * 20.0 - (i % 5) as f32 * 0.05;
    v[DIM as usize - 1] = 1.0;
    Sample::from_slice([DIM], &v).unwrap()
}

fn main() {
    // ---- write: 4000 embeddings in 16 separable clusters ----
    let backing = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(backing.clone(), "gallery").unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(4 << 10); // small chunks for the demo
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..CLUSTERS * PER_CLUSTER {
        let c = i / PER_CLUSTER;
        ds.append_row(vec![
            ("emb", embedding(c, i)),
            ("labels", Sample::scalar(c as i32)),
        ])
        .unwrap();
    }
    ds.flush().unwrap();

    // ---- build the IVF index: k-means centroids + posting lists ----
    let report = ds
        .build_vector_index(
            "emb",
            &IndexSpec {
                nlist: Some(CLUSTERS as usize),
                ..IndexSpec::default()
            },
        )
        .unwrap();
    println!(
        "built {:?} index over {} rows (dim {}, {} clusters)\n",
        report.kind, report.rows, report.dim, report.clusters
    );
    ds.flush().unwrap();

    // ---- query over simulated S3: exact flat scan vs ANN probe ----
    let sim = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let mut target = vec![0.0f64; DIM as usize];
    target[0] = 140.0; // cluster 7's center
    target[1] = 140.0;
    target[DIM as usize - 1] = 1.0;
    let parts: Vec<String> = target.iter().map(|x| format!("{x}")).collect();
    let text = format!(
        "SELECT * FROM gallery ORDER BY L2_DISTANCE(emb, [{}]) LIMIT 10",
        parts.join(", ")
    );
    let q = parser::parse(&text).unwrap();

    let ds = Dataset::open(sim.clone()).unwrap();
    let opened = sim.stats().snapshot();
    let t0 = Instant::now();
    let exact = execute(&ds, &q, &QueryOptions::default()).unwrap();
    let exact_elapsed = t0.elapsed();
    let exact_trips = sim.stats().snapshot().delta_since(&opened).round_trips;

    let ds = Dataset::open(sim.clone()).unwrap();
    ds.vector_index("emb").expect("index resolves over S3");
    let opened = sim.stats().snapshot();
    let t0 = Instant::now();
    let ann = execute(
        &ds,
        &q,
        &QueryOptions {
            ann: true,
            nprobe: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let ann_elapsed = t0.elapsed();
    let ann_trips = sim.stats().snapshot().delta_since(&opened).round_trips;

    assert_eq!(
        exact.indices, ann.indices,
        "separable clusters: same top-10"
    );
    println!("query: 10 nearest neighbours of cluster 7's center");
    println!(
        "  exact flat scan: {} candidates re-ranked, {} round trips, {:?}",
        exact.stats.candidates_reranked, exact_trips, exact_elapsed
    );
    println!(
        "  IVF nprobe=2:    {} candidates re-ranked ({} clusters probed), \
         {} round trips, {:?}",
        ann.stats.candidates_reranked, ann.stats.clusters_probed, ann_trips, ann_elapsed
    );
    println!("  identical top-10: rows {:?}\n", ann.indices);

    // ---- consume: the top-k view streams straight into training ----
    let ds = Arc::new(Dataset::open(sim.clone()).unwrap());
    let result = query(&ds, &text).unwrap();
    let view = result.view(&ds);
    let loader = DataLoader::builder(ds.clone())
        .view(&view)
        .batch_size(4)
        .build()
        .unwrap();
    let streamed: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    println!("streamed {streamed} nearest-neighbour rows through the dataloader");
}
