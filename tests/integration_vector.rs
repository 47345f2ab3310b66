//! Vector index lifecycle across version control, IVF recall, and the
//! object-storage economics of index-assisted top-k queries.

use std::sync::Arc;

use deeplake::prelude::*;
use deeplake_tql::{execute, parser, QueryOptions};

const DIM: u64 = 8;

fn vector(cluster: u64, jitter: u64) -> Sample {
    let mut v = vec![0.0f32; DIM as usize];
    v[0] = cluster as f32 * 25.0 + (jitter % 5) as f32 * 0.1;
    v[1] = cluster as f32 * 25.0 - (jitter % 3) as f32 * 0.1;
    v[2] = (jitter % 7) as f32 * 0.05;
    v[DIM as usize - 1] = 1.0;
    Sample::from_slice([DIM], &v).unwrap()
}

/// `clusters × per` rows grouped by cluster, tiny chunks.
fn seed(provider: DynProvider, clusters: u64, per: u64) {
    let mut ds = Dataset::create(provider, "vectors").unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(1024);
        o
    })
    .unwrap();
    for i in 0..clusters * per {
        ds.append_row(vec![("emb", vector(i / per, i))]).unwrap();
    }
    ds.flush().unwrap();
}

fn center_query(cluster: u64, limit: u64) -> String {
    let c = cluster as f64 * 25.0;
    format!("SELECT * FROM d ORDER BY L2_DISTANCE(emb, [{c}, {c}, 0, 0, 0, 0, 0, 1]) LIMIT {limit}")
}

fn run(ds: &Dataset, text: &str, ann: bool, nprobe: usize) -> deeplake_tql::QueryResult {
    let q = parser::parse(text).unwrap();
    execute(
        ds,
        &q,
        &QueryOptions {
            ann,
            nprobe,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Build → commit → update → query on old and new versions: the
/// tombstoned index can never serve the updated rows, the committed
/// version keeps its index, and a rebuild restores the ANN path.
#[test]
fn index_lifecycle_across_versions() {
    let provider: DynProvider = Arc::new(MemoryProvider::new());
    seed(provider.clone(), 4, 40);
    let mut ds = Dataset::open(provider.clone()).unwrap();
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(4),
            ..IndexSpec::default()
        },
    )
    .unwrap();
    assert!(ds.vector_index("emb").is_some());
    let commit = ds.commit("indexed").unwrap();

    // the committed version keeps serving the index
    assert!(ds.vector_index("emb").is_some(), "commit keeps the index");
    let before = run(&ds, &center_query(1, 5), true, 1);
    assert!(before.stats.clusters_probed > 0, "ANN used the index");
    assert!(before.indices.iter().all(|&r| (40..80).contains(&r)));

    // move rows 0..5 from cluster 0 into cluster 3 — the index's posting
    // lists are now wrong for them
    for row in 0..5u64 {
        ds.update("emb", row, &vector(3, row)).unwrap();
    }
    ds.flush().unwrap();
    assert!(
        ds.vector_index("emb").is_none(),
        "update must invalidate the index"
    );

    // ANN on the updated version silently degrades to the exact scan and
    // finds the moved rows
    let text = center_query(3, 45);
    let after = run(&ds, &text, true, 1);
    assert_eq!(after.stats.clusters_probed, 0, "no index to probe");
    let exact = run(&ds, &text, false, 1);
    assert_eq!(after.indices, exact.indices);
    for row in 0..5 {
        assert!(
            after.indices.contains(&row),
            "moved row {row} belongs to cluster 3 now"
        );
    }

    // the sealed commit still answers with the *old* vectors and index
    let old = Dataset::open_at(provider.clone(), &commit).unwrap();
    assert!(old.vector_index("emb").is_some(), "history keeps its index");
    let old_ann = run(&old, &center_query(3, 40), true, 1);
    assert!(old_ann.stats.clusters_probed > 0);
    assert!(
        old_ann.indices.iter().all(|&r| (120..160).contains(&r)),
        "pre-update cluster 3 is rows 120..160"
    );

    // ... and AT VERSION routes through the same chain
    let q = parser::parse(&format!(
        "SELECT * FROM d AT VERSION \"{commit}\" ORDER BY \
         L2_DISTANCE(emb, [75, 75, 0, 0, 0, 0, 0, 1]) LIMIT 40"
    ))
    .unwrap();
    let versioned = execute(
        &ds,
        &q,
        &QueryOptions {
            ann: true,
            nprobe: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(versioned.indices.iter().all(|&r| (120..160).contains(&r)));

    // rebuilding on the updated version restores ANN with correct rows
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(4),
            ..IndexSpec::default()
        },
    )
    .unwrap();
    let rebuilt = run(&ds, &text, true, 1);
    assert!(rebuilt.stats.clusters_probed > 0, "rebuilt index probes");
    assert_eq!(rebuilt.indices, exact.indices);
}

/// Re-chunking invalidates conservatively even though values survive.
#[test]
fn rechunk_invalidates_index() {
    let provider: DynProvider = Arc::new(MemoryProvider::new());
    seed(provider.clone(), 4, 30);
    let mut ds = Dataset::open(provider).unwrap();
    ds.build_vector_index("emb", &IndexSpec::default()).unwrap();
    ds.commit("indexed").unwrap();
    // fragment the layout, then optimize
    for row in [3u64, 17, 31, 45, 59] {
        ds.update("emb", row, &vector(row / 30, row)).unwrap();
    }
    ds.optimize(1.0).unwrap();
    assert!(ds.vector_index("emb").is_none());
    // queries still correct through the flat path
    let r = run(&ds, &center_query(2, 10), true, 2);
    assert!(r.indices.iter().all(|&r| (60..90).contains(&r)));
}

/// Recall@10 of the IVF index at `nprobe = cluster_count` must be >= 0.9
/// (probing every cluster re-ranks every indexed row, so this holds with
/// recall exactly 1.0 — the bound the ANN contract promises).
#[test]
fn ivf_recall_at_full_probe() {
    let provider: DynProvider = Arc::new(MemoryProvider::new());
    // deliberately messy, non-separable vectors
    {
        let mut ds = Dataset::create(provider.clone(), "recall").unwrap();
        ds.create_tensor("emb", Htype::Embedding, None).unwrap();
        for i in 0..400u64 {
            let v: Vec<f32> = (0..DIM)
                .map(|d| (((i * 37 + d * 101) % 97) as f32) * 0.37 - 18.0)
                .collect();
            ds.append_row(vec![("emb", Sample::from_slice([DIM], &v).unwrap())])
                .unwrap();
        }
        ds.flush().unwrap();
    }
    let mut ds = Dataset::open(provider).unwrap();
    let report = ds
        .build_vector_index(
            "emb",
            &IndexSpec {
                nlist: Some(8),
                ..IndexSpec::default()
            },
        )
        .unwrap();
    assert_eq!(report.clusters, 8);

    let text = "SELECT * FROM d ORDER BY \
                L2_DISTANCE(emb, [1, -3, 7, 0, 2, -5, 4, 1]) LIMIT 10";
    let exact = run(&ds, text, false, 1);
    let ann = run(&ds, text, true, report.clusters);
    assert_eq!(ann.stats.clusters_probed, report.clusters as u64);
    let hits = exact
        .indices
        .iter()
        .filter(|r| ann.indices.contains(r))
        .count();
    let recall = hits as f64 / exact.indices.len() as f64;
    assert!(
        recall >= 0.9,
        "recall@10 at nprobe=cluster_count: {recall} < 0.9"
    );
}

/// The storage economics the subsystem exists for: over simulated S3, an
/// index-assisted top-k query probing ~10% of the clusters must reach
/// the provider in at least 2x fewer round trips than the exact flat
/// scan of every embedding chunk.
#[test]
fn index_assisted_query_halves_round_trips_on_sim_s3() {
    let backing = Arc::new(MemoryProvider::new());
    const CLUSTERS: u64 = 20;
    const PER: u64 = 400;
    seed(backing.clone(), CLUSTERS, PER);
    {
        let mut ds = Dataset::open(backing.clone()).unwrap();
        ds.build_vector_index(
            "emb",
            &IndexSpec {
                nlist: Some(CLUSTERS as usize),
                ..IndexSpec::default()
            },
        )
        .unwrap();
        ds.flush().unwrap();
    }
    let text = center_query(7, 10);

    // ---- exact flat scan over a fresh simulated-cloud handle ----
    let sim_flat = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing.clone(),
        NetworkProfile::instant(),
    ));
    let ds_flat = Dataset::open(sim_flat.clone()).unwrap();
    let opened_flat = sim_flat.stats().snapshot();
    let flat = run(&ds_flat, &text, false, 1);
    let flat_round_trips = sim_flat
        .stats()
        .snapshot()
        .delta_since(&opened_flat)
        .round_trips;
    assert_eq!(flat.stats.candidates_reranked, CLUSTERS * PER);

    // ---- ANN at 10% cluster probe, index warmed (steady state) ----
    let sim_ann = Arc::new(SimulatedCloudProvider::new(
        "s3",
        backing,
        NetworkProfile::instant(),
    ));
    let ds_ann = Dataset::open(sim_ann.clone()).unwrap();
    assert!(ds_ann.vector_index("emb").is_some(), "index loads over S3");
    let opened_ann = sim_ann.stats().snapshot();
    let nprobe = (CLUSTERS as usize) / 10;
    let ann = run(&ds_ann, &text, true, nprobe);
    let ann_round_trips = sim_ann
        .stats()
        .snapshot()
        .delta_since(&opened_ann)
        .round_trips;

    assert_eq!(ann.indices, flat.indices, "separable blobs: same top-10");
    assert_eq!(ann.stats.clusters_probed, nprobe as u64);
    assert!(
        ann.stats.candidates_reranked < CLUSTERS * PER / 4,
        "ANN re-ranked a fraction of the rows: {}",
        ann.stats.candidates_reranked
    );
    assert!(
        ann_round_trips * 2 <= flat_round_trips,
        "index-assisted query must at least halve round trips: \
         {ann_round_trips} vs {flat_round_trips}"
    );
}
