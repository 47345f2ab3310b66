//! End-to-end top-k similarity queries: the physical operator against
//! the naive reference, the ANN path against the exact one, and the
//! `LIMIT`-without-`ORDER BY` short-circuit.

use std::sync::Arc;

use bytes::Bytes;
use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_core::{Chunk, IndexSpec, Metric};
use deeplake_storage::{MemoryProvider, StorageProvider};
use deeplake_tensor::{Htype, Sample, Shape};
use deeplake_tql::{execute, parser, query, QueryOptions};

/// `n` rows of dim-4 embeddings in `clusters` well-separated blobs, rows
/// grouped by blob (row i belongs to blob `i / (n/clusters)`), plus a
/// scalar label column. Small chunks so queries span many of them.
fn embedding_dataset(n: u64, clusters: u64) -> Dataset {
    embedding_dataset_on(Arc::new(MemoryProvider::new()), n, clusters)
}

fn embedding_dataset_on(store: Arc<MemoryProvider>, n: u64, clusters: u64) -> Dataset {
    let mut ds = Dataset::create(store, "vec").unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(128); // a handful of vectors per chunk
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    let per = n / clusters;
    for i in 0..n {
        let c = (i / per).min(clusters - 1) as f32;
        let jitter = (i % 7) as f32 * 0.01;
        let v = [c * 10.0 + jitter, c * 10.0 - jitter, jitter, 1.0];
        ds.append_row(vec![
            ("emb", Sample::from_slice([4], &v).unwrap()),
            ("labels", Sample::scalar((i % 5) as i32)),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    ds
}

fn naive(ds: &Dataset, text: &str) -> Vec<u64> {
    let q = parser::parse(text).unwrap();
    execute(
        ds,
        &q,
        &QueryOptions {
            pruning: false,
            ..Default::default()
        },
    )
    .unwrap()
    .indices
}

#[test]
fn flat_top_k_equals_naive_order_by_limit() {
    let ds = embedding_dataset(120, 4);
    for text in [
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [10, 10, 0, 1]) DESC LIMIT 7",
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [20, 20, 0, 1]) LIMIT 9",
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [0, 0, 0, 1]) LIMIT 5 OFFSET 3",
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [30, 30, 0, 1]) LIMIT 4",
    ] {
        let r = query(&ds, text).unwrap();
        assert_eq!(r.indices, naive(&ds, text), "diverged for {text}");
        assert!(
            r.stats.candidates_reranked >= r.indices.len() as u64,
            "operator records its re-rank work"
        );
    }
}

#[test]
fn top_k_projection_rows_match_naive() {
    let ds = embedding_dataset(60, 3);
    let text = "SELECT COSINE_SIMILARITY(emb, [10, 10, 0, 1]) AS score, labels \
                FROM d ORDER BY COSINE_SIMILARITY(emb, [10, 10, 0, 1]) DESC LIMIT 6";
    let q = parser::parse(text).unwrap();
    let fast = execute(&ds, &q, &QueryOptions::default()).unwrap();
    let slow = execute(
        &ds,
        &q,
        &QueryOptions {
            pruning: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(fast.indices, slow.indices);
    assert_eq!(
        fast.columns,
        vec!["score".to_string(), "labels".to_string()]
    );
    assert_eq!(fast.rows, slow.rows);
}

#[test]
fn ann_probes_index_and_finds_nearest_cluster() {
    let mut ds = embedding_dataset(160, 4);
    let report = ds
        .build_vector_index(
            "emb",
            &IndexSpec {
                nlist: Some(4),
                ..IndexSpec::default()
            },
        )
        .unwrap();
    assert_eq!(report.rows, 160);
    assert_eq!(report.dim, 4);
    assert_eq!(report.clusters, 4);

    // query dead-center of blob 2 (rows 80..120)
    let text = "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [20, 20, 0, 1]) LIMIT 10";
    let q = parser::parse(text).unwrap();
    let ann = execute(
        &ds,
        &q,
        &QueryOptions {
            ann: true,
            nprobe: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let exact = query(&ds, text).unwrap();
    assert_eq!(ann.indices, exact.indices, "blob is separable at nprobe=1");
    assert_eq!(ann.stats.clusters_probed, 1);
    assert!(
        ann.stats.candidates_reranked < 160,
        "ANN re-ranked only the probed cluster, got {}",
        ann.stats.candidates_reranked
    );
    assert_eq!(exact.stats.clusters_probed, 0, "exact path never probes");
    assert_eq!(exact.stats.candidates_reranked, 160);
}

/// The index answers "nearest first" only: a direction asking for the
/// FARTHEST rows (L2 DESC, cosine ASC) must not probe — it would fetch
/// exactly the wrong clusters — and keeps the exact scan instead.
#[test]
fn ann_with_farthest_direction_keeps_exact_scan() {
    let mut ds = embedding_dataset(160, 4);
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(4),
            ..IndexSpec::default()
        },
    )
    .unwrap();
    for text in [
        // farthest-from-blob-0: the right answer lives in blob 3
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [0, 0, 0, 1]) DESC LIMIT 5",
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [1, -1, 0, 0]) LIMIT 5",
    ] {
        let q = parser::parse(text).unwrap();
        let ann = execute(
            &ds,
            &q,
            &QueryOptions {
                ann: true,
                nprobe: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ann.indices, naive(&ds, text), "diverged for {text}");
        assert_eq!(ann.stats.clusters_probed, 0, "must not probe for {text}");
        assert_eq!(ann.stats.candidates_reranked, 160);
    }
}

#[test]
fn ann_without_index_falls_back_to_flat() {
    let ds = embedding_dataset(80, 4);
    let text = "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [10, 10, 0, 1]) DESC LIMIT 5";
    let q = parser::parse(text).unwrap();
    let r = execute(
        &ds,
        &q,
        &QueryOptions {
            ann: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(r.indices, naive(&ds, text));
    assert_eq!(r.stats.clusters_probed, 0);
    assert_eq!(r.stats.candidates_reranked, 80, "fell back to every row");
}

#[test]
fn ann_with_mismatched_dimension_falls_back_to_flat() {
    let mut ds = embedding_dataset(80, 4);
    ds.build_vector_index("emb", &IndexSpec::default()).unwrap();
    // dim-2 query against a dim-4 index: probe impossible, exact scan
    // surfaces the same typed error the naive path raises
    let text = "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [1, 2]) LIMIT 3";
    let q = parser::parse(text).unwrap();
    let r = execute(
        &ds,
        &q,
        &QueryOptions {
            ann: true,
            ..Default::default()
        },
    );
    assert!(matches!(
        r,
        Err(deeplake_tql::TqlError::BadArguments { .. })
    ));
}

#[test]
fn top_k_on_unknown_column_errors_like_naive() {
    let ds = embedding_dataset(20, 2);
    let text = "SELECT * FROM d ORDER BY L2_DISTANCE(ghost, [1]) LIMIT 3";
    let q = parser::parse(text).unwrap();
    let fast = execute(&ds, &q, &QueryOptions::default());
    assert!(matches!(
        fast,
        Err(deeplake_tql::TqlError::UnknownColumn(_))
    ));
}

#[test]
fn appended_tail_after_build_is_still_searched_exactly() {
    let mut ds = embedding_dataset(100, 4);
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(4),
            ..IndexSpec::default()
        },
    )
    .unwrap();
    // append a row closer to the query than anything indexed
    ds.append_row(vec![
        (
            "emb",
            Sample::from_slice([4], &[100.0f32, 100.0, 0.0, 1.0]).unwrap(),
        ),
        ("labels", Sample::scalar(0i32)),
    ])
    .unwrap();
    ds.flush().unwrap();
    let text = "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [100, 100, 0, 1]) LIMIT 1";
    let q = parser::parse(text).unwrap();
    let r = execute(
        &ds,
        &q,
        &QueryOptions {
            ann: true,
            nprobe: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(r.indices, vec![100], "unindexed tail row must be found");
}

/// Hundreds of candidates tie at the k-th score, across more candidate
/// groups than one task takes: each task keeps its best rows by
/// selection, and the set it keeps — ties broken by row, the order
/// reversed whole for DESC — is the one the naive sort keeps.
#[test]
fn ties_at_the_kth_score_keep_the_naive_rows() {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "ties").unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(128);
        o
    })
    .unwrap();
    // three vectors, interleaved: every chunk holds all three
    let vectors = [
        [1f32, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
    ];
    for i in 0..600 {
        let v = Sample::from_slice([4], &vectors[i % 3]).unwrap();
        ds.append_row(vec![("emb", v)]).unwrap();
    }
    ds.flush().unwrap();
    for text in [
        // 200 rows at distance 0
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [1, 0, 0, 0]) LIMIT 10",
        // the k-th lands inside the 200 rows at distance 1
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [1, 0, 0, 0]) LIMIT 250",
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [1, 0, 0, 0]) DESC LIMIT 7 OFFSET 5",
        "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [1, 0, 0, 0]) DESC LIMIT 300",
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [1, 0, 0, 0]) DESC LIMIT 5",
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [1, 0, 0, 0]) DESC LIMIT 333",
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [0, 1, 0, 0]) LIMIT 9 OFFSET 2",
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [0, 1, 0, 0]) LIMIT 401",
    ] {
        let r = query(&ds, text).unwrap();
        assert_eq!(r.indices, naive(&ds, text), "diverged for {text}");
        assert_eq!(r.stats.rows_vectorized, 600);
        assert!(
            r.stats.chunks_scanned > 64,
            "more groups than one task takes"
        );
    }
}

// ---------------------------------------------------------------------
// the re-rank checks its candidates' records, not their chunks'
// ---------------------------------------------------------------------

const NEAR_BLOB_2: &str = "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [20, 20, 0, 1]) LIMIT 10";

fn ann_nprobe_1() -> QueryOptions {
    QueryOptions {
        ann: true,
        nprobe: 1,
        ..Default::default()
    }
}

/// What a caller observes of an execution: indices, or the error text.
fn observe(ds: &Dataset, text: &str, opts: &QueryOptions) -> Result<Vec<u64>, String> {
    let q = parser::parse(text).unwrap();
    execute(ds, &q, opts)
        .map(|r| r.indices)
        .map_err(|e| e.to_string())
}

/// An indexed `embedding_dataset(160, 4)` whose `emb` record `pick`
/// chooses is rewritten in storage as `forge` makes it — its chunk
/// re-serialized around it, every other record as it was — and reopened,
/// so nothing is decoded yet. `pick` sees the rows `NEAR_BLOB_2`'s
/// one-cluster probe returns and the chunk spans, and names a row.
/// Returns the dataset, the forged row, and how many probed rows share
/// its chunk.
fn with_forged_record(
    pick: impl Fn(&[u64], &[(Option<u64>, u64, u64)]) -> u64,
    forge: impl Fn(&Chunk, usize) -> (Vec<u8>, Shape),
) -> (Dataset, u64, u64) {
    let store = Arc::new(MemoryProvider::new());
    let mut ds = embedding_dataset_on(store.clone(), 160, 4);
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(4),
            ..IndexSpec::default()
        },
    )
    .unwrap();
    ds.flush().unwrap();
    let index = ds.vector_index("emb").unwrap();
    let probed = index.probe(&[20.0, 20.0, 0.0, 1.0], Metric::L2, 1).rows;
    let spans = ds.chunk_spans("emb").unwrap();
    let row = pick(&probed, &spans);
    let &(id, start, len) = spans
        .iter()
        .find(|&&(_, start, len)| (start..start + len).contains(&row))
        .unwrap();
    let sharing = probed
        .iter()
        .filter(|&&r| (start..start + len).contains(&r))
        .count() as u64;
    let suffix = format!("/emb/chunks/{:016x}", id.unwrap());
    let keys: Vec<String> = store
        .list("")
        .unwrap()
        .into_iter()
        .filter(|k| k.ends_with(&suffix))
        .collect();
    assert_eq!(keys.len(), 1, "one version: one key per chunk id");
    let chunk = Chunk::parse(store.get(&keys[0]).unwrap()).unwrap();
    let mut forged = Chunk::new(chunk.dtype());
    for i in 0..chunk.sample_count() {
        if i as u64 == row - start {
            let (blob, shape) = forge(&chunk, i);
            forged.append_blob(&blob, &shape);
        } else {
            forged.append_blob(chunk.blob(i).unwrap(), &chunk.shape(i).unwrap());
        }
    }
    store
        .put(&keys[0], Bytes::from(forged.serialize(Compression::None)))
        .unwrap();
    drop(ds);
    (Dataset::open(store).unwrap(), row, sharing)
}

/// The record's own values as one LZ4 sample frame: the row evaluator
/// reads it as before, a vector view does not.
fn lz4_frame(chunk: &Chunk, i: usize) -> (Vec<u8>, Shape) {
    let sample = chunk.sample(i).unwrap();
    (
        Compression::Lz4.compress(sample.bytes()),
        sample.shape().clone(),
    )
}

/// A chunk holding a probed row and, in `probed`'s gaps, a row the probe
/// did not return: that one.
fn unprobed_beside_a_probed_row(probed: &[u64], spans: &[(Option<u64>, u64, u64)]) -> u64 {
    spans
        .iter()
        .find_map(|&(_, start, len)| {
            let rows = start..start + len;
            let shares = probed.iter().any(|r| rows.contains(r));
            shares.then(|| rows.clone().find(|r| !probed.contains(r)))?
        })
        .expect("a chunk straddles the probed cluster's edge")
}

#[test]
fn a_refused_record_that_is_not_a_candidate_leaves_its_group_vectorized() {
    let (ds, odd, sharing) = with_forged_record(unprobed_beside_a_probed_row, lz4_frame);
    assert!(sharing > 0);
    let naive_opts = QueryOptions {
        pruning: false,
        ..Default::default()
    };
    assert_eq!(
        observe(&ds, NEAR_BLOB_2, &ann_nprobe_1()),
        observe(&ds, NEAR_BLOB_2, &naive_opts)
    );
    let q = parser::parse(NEAR_BLOB_2).unwrap();
    let stats = execute(&ds, &q, &ann_nprobe_1()).unwrap().stats;
    assert!(
        stats.candidates_reranked < 160,
        "row {odd} was not a candidate"
    );
    // every candidate scored by the kernel, the forged row's group too
    assert_eq!(stats.rows_vectorized, stats.candidates_reranked);
}

#[test]
fn a_refused_record_that_is_a_candidate_sends_its_group_to_the_row_evaluator() {
    let first_probed = |probed: &[u64], _: &[(Option<u64>, u64, u64)]| probed[0];
    let naive_opts = QueryOptions {
        pruning: false,
        ..Default::default()
    };
    // readable by the row evaluator: same indices, the group not vectorized
    let (ds, _, sharing) = with_forged_record(first_probed, lz4_frame);
    let fast = observe(&ds, NEAR_BLOB_2, &ann_nprobe_1());
    assert!(fast.is_ok());
    assert_eq!(fast, observe(&ds, NEAR_BLOB_2, &naive_opts));
    let q = parser::parse(NEAR_BLOB_2).unwrap();
    let stats = execute(&ds, &q, &ann_nprobe_1()).unwrap().stats;
    assert_eq!(stats.rows_vectorized, stats.candidates_reranked - sharing);
    // a wrong-length vector: the same error, word for word
    let five_long = |chunk: &Chunk, i: usize| {
        let mut values = chunk.sample(i).unwrap().to_vec::<f32>().unwrap();
        values.push(1.0);
        let sample = Sample::from_slice([5], &values).unwrap();
        (Compression::None.compress(sample.bytes()), Shape::from([5]))
    };
    let (ds, _, _) = with_forged_record(first_probed, five_long);
    let fast = observe(&ds, NEAR_BLOB_2, &ann_nprobe_1());
    assert!(fast.is_err());
    assert_eq!(fast, observe(&ds, NEAR_BLOB_2, &naive_opts));
}

// ---------------------------------------------------------------------
// LIMIT-without-ORDER-BY short-circuit
// ---------------------------------------------------------------------

/// Interleaved labels defeat statistics pruning (every chunk holds
/// matching and non-matching rows), so without the short-circuit every
/// span scans. With `LIMIT k` the scan must stop near the k-th match.
#[test]
fn limit_without_order_by_short_circuits_span_scan() {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "lim").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(64);
        o
    })
    .unwrap();
    for i in 0..400u64 {
        ds.append_row(vec![("labels", Sample::scalar((i % 10) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();

    let full = query(&ds, "SELECT * FROM d WHERE labels = 3").unwrap();
    assert_eq!(full.len(), 40);
    let total_spans = full.stats.chunks_scanned + full.stats.chunks_pruned;
    assert!(total_spans > 10, "labels span many chunks: {total_spans}");

    let limited = query(&ds, "SELECT * FROM d WHERE labels = 3 LIMIT 4").unwrap();
    assert_eq!(limited.indices, vec![3, 13, 23, 33]);
    assert!(
        limited.stats.chunks_scanned * 2 < full.stats.chunks_scanned,
        "LIMIT 4 must scan far fewer spans: {} vs {}",
        limited.stats.chunks_scanned,
        full.stats.chunks_scanned
    );

    // the naive reference is unaffected and returns the same rows
    let q = parser::parse("SELECT * FROM d WHERE labels = 3 LIMIT 4").unwrap();
    let slow = execute(
        &ds,
        &q,
        &QueryOptions {
            pruning: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(slow.indices, limited.indices);
}

/// LIMIT + OFFSET must keep scanning until offset+limit matches exist.
#[test]
fn limit_offset_short_circuit_is_result_identical() {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "limoff").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(64);
        o
    })
    .unwrap();
    for i in 0..300u64 {
        ds.append_row(vec![("labels", Sample::scalar((i % 7) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    for text in [
        "SELECT * FROM d WHERE labels = 2 LIMIT 5 OFFSET 6",
        "SELECT * FROM d WHERE labels = 2 LIMIT 1000",
        "SELECT * FROM d WHERE labels > 4 LIMIT 3",
    ] {
        let fast = query(&ds, text).unwrap();
        assert_eq!(fast.indices, naive(&ds, text), "diverged for {text}");
    }
}
