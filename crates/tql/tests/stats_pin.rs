//! Every counter of `QueryStats` pinned, query by query, on one fixed
//! dataset that has each shape the executor treats specially: a run split
//! by `update()`, a tiled row, rows still in the open chunk, a text
//! column and an IVF index. The executor's stages may be rearranged; what
//! they count may not move.

use std::sync::Arc;

use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_core::IndexSpec;
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Dtype, Htype, Sample};
use deeplake_tql::{execute, parser, QueryOptions, QueryStats};

/// Rows committed as `v1`; [`OPEN`] more follow on the head.
const COMMITTED: u64 = 200;
/// Rows appended after the commit and the index build.
const OPEN: u64 = 60;
/// The row of `big` that is tiled.
const TILED: u64 = 53;

fn generic(dtype: Dtype, target: u64) -> TensorOptions {
    let mut o = TensorOptions::new(Htype::Generic);
    o.dtype = Some(dtype);
    o.chunk_target_bytes = Some(target);
    o
}

fn append(ds: &mut Dataset, i: u64) {
    let big = match i {
        TILED => Sample::from_slice([600], &[7u8; 600]).unwrap(),
        _ => Sample::scalar((i % 7) as u8),
    };
    let c = (i / 50) as f32;
    let jitter = (i % 7) as f32 * 0.01;
    let emb = [c * 10.0 + jitter, c * 10.0 - jitter, jitter, 1.0];
    ds.append_row(vec![
        ("x", Sample::scalar(i as f32 / 10.0)),
        ("big", big),
        ("label", Sample::scalar((i % 5) as i32)),
        ("caption", Sample::from_text(&format!("item {}", i % 7))),
        ("emb", Sample::from_slice([4], &emb).unwrap()),
    ])
    .unwrap();
}

/// The fixed dataset, and the commit id of its first `COMMITTED` rows.
fn fixture() -> (Dataset, String) {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "pin").unwrap();
    ds.create_tensor_opts("x", generic(Dtype::F32, 16)).unwrap();
    ds.create_tensor_opts("big", generic(Dtype::U8, 16))
        .unwrap();
    ds.create_tensor_opts("label", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(32);
        o
    })
    .unwrap();
    ds.create_tensor("caption", Htype::Text, None).unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(64);
        o
    })
    .unwrap();
    for i in 0..COMMITTED {
        append(&mut ds, i);
        if i == 40 {
            // row 20's chunk has sealed: the rewrite splits its run
            ds.update("x", 20, &Sample::scalar(2.05f32)).unwrap();
        }
    }
    let commit = ds.commit("v1").unwrap();
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(4),
            ..IndexSpec::default()
        },
    )
    .unwrap();
    for i in COMMITTED..COMMITTED + OPEN {
        append(&mut ds, i);
    }
    (ds, commit)
}

/// The non-timing counters, in declaration order.
fn counters(s: &QueryStats) -> [u64; 7] {
    [
        s.chunks_scanned,
        s.chunks_pruned,
        s.chunks_matched,
        s.round_trips,
        s.clusters_probed,
        s.candidates_reranked,
        s.rows_vectorized,
    ]
}

#[test]
fn fixture_has_every_shape_the_executor_treats_apart() {
    let (ds, _) = fixture();
    assert!(ds.store("big").unwrap().is_tiled(TILED));
    let spans = ds.chunk_spans("x").unwrap();
    assert!(spans.iter().any(|&(_, start, len)| (start, len) == (20, 1)));
    assert!(spans.last().unwrap().0.is_none(), "the last rows are open");
    assert!(ds.vector_index("emb").is_some());
}

/// Runs `text` on a fresh [`fixture`] at `workers` threads (ANN with
/// `nprobe: 1` when `ann`) and returns its counters.
fn run(text: &str, ann: bool, workers: usize) -> [u64; 7] {
    let (ds, _) = fixture();
    let opts = QueryOptions {
        workers,
        ann,
        nprobe: 1,
        ..QueryOptions::default()
    };
    let q = parser::parse(text).unwrap();
    counters(&execute(&ds, &q, &opts).unwrap().stats)
}

#[test]
fn every_counter_of_each_query_is_pinned() {
    const TOP_K: &str = "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [10, 10, 0, 1]) LIMIT 5";
    let (_, commit) = fixture();
    let at_version = format!("SELECT * FROM d AT VERSION \"{commit}\" WHERE x < 5");
    // (query, ANN, counters at one worker, at four): chunks_scanned,
    // chunks_pruned, chunks_matched, round_trips, clusters_probed,
    // candidates_reranked, rows_vectorized
    #[rustfmt::skip]
    let cases: [(&str, bool, [u64; 7], [u64; 7]); 11] = [
        // a lone compare: spans pruned, matched and scanned
        ("SELECT * FROM d WHERE x < 5", false, [2, 69, 17, 1, 0, 0, 6], [2, 69, 17, 1, 0, 0, 6]),
        // a compound filter over two columns: some spans go row by row
        ("SELECT * FROM d WHERE x < 5 AND big < 4", false, [19, 69, 0, 1, 0, 0, 54], [19, 69, 0, 1, 0, 0, 54]),
        ("SELECT * FROM d WHERE caption = \"item 3\"", false, [2, 0, 0, 1, 0, 0, 0], [2, 0, 0, 1, 0, 0, 0]),
        // an opaque leaf: no kernel, two tasks
        ("SELECT * FROM d WHERE x * 2 < 9", false, [88, 0, 0, 2, 0, 0, 0], [88, 0, 0, 2, 0, 0, 0]),
        // the early exit: one worker stops a task before four do
        ("SELECT * FROM d WHERE label = 2 LIMIT 20", false, [24, 1, 0, 2, 0, 0, 144], [43, 1, 0, 3, 0, 0, 258]),
        ("SELECT * FROM d WHERE x >= 20 ORDER BY label DESC", false, [1, 68, 19, 1, 0, 0, 3], [1, 68, 19, 1, 0, 0, 3]),
        ("SELECT * FROM d WHERE x < 8 ARRANGE BY label", false, [2, 59, 27, 3, 0, 0, 6], [2, 59, 27, 3, 0, 0, 6]),
        ("SELECT x, label * 2 AS twice FROM d WHERE x > 22", false, [1, 75, 12, 1, 0, 0, 3], [1, 75, 12, 1, 0, 0, 3]),
        (TOP_K, false, [87, 0, 0, 1, 0, 260, 260], [87, 0, 0, 1, 0, 260, 260]),
        (TOP_K, true, [38, 0, 0, 1, 1, 110, 110], [38, 0, 0, 1, 1, 110, 110]),
        (&at_version, false, [1, 50, 17, 1, 0, 0, 3], [1, 50, 17, 1, 0, 0, 3]),
    ];
    for (text, ann, one, four) in cases {
        assert_eq!(run(text, ann, 1), one, "{text} (ann: {ann}) on one worker");
        assert_eq!(run(text, ann, 4), four, "{text} (ann: {ann}) on four");
    }
}
