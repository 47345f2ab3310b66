//! End-to-end TQL tests against real datasets.

use std::sync::Arc;

use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Htype, Sample};
use deeplake_tql::{query, query_opts, QueryOptions, Value};

/// 20 rows: labels 0..9 twice, 8×8×3 images filled with the row index,
/// boxes drifting right, and a parallel "training/boxes" tensor.
fn build_dataset() -> Dataset {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "tqltest").unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(Compression::None);
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    ds.create_tensor("boxes", Htype::BBox, None).unwrap();
    ds.create_tensor("training/boxes", Htype::BBox, None)
        .unwrap();
    for i in 0..20u64 {
        let img = Sample::from_slice([8, 8, 3], &[i as u8; 192]).unwrap();
        let b = Sample::from_slice([1, 4], &[i as f32, 0.0, 10.0, 10.0]).unwrap();
        let tb = Sample::from_slice([1, 4], &[0.0f32, 0.0, 10.0, 10.0]).unwrap();
        ds.append_row(vec![
            ("images", img),
            ("labels", Sample::scalar((i % 10) as i32)),
            ("boxes", b),
            ("training/boxes", tb),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    ds
}

#[test]
fn select_star_where_equals() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT * FROM dataset WHERE labels = 3").unwrap();
    assert_eq!(r.indices, vec![3, 13]);
    assert!(r.rows.is_none());
}

#[test]
fn where_range_and_logic() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT * FROM d WHERE labels >= 8 AND labels < 10").unwrap();
    assert_eq!(r.indices, vec![8, 9, 18, 19]);
    let r = query(&ds, "SELECT * FROM d WHERE labels = 0 OR labels = 9").unwrap();
    assert_eq!(r.indices, vec![0, 9, 10, 19]);
    let r = query(&ds, "SELECT * FROM d WHERE NOT labels < 9").unwrap();
    assert_eq!(r.indices, vec![9, 19]);
}

#[test]
fn order_by_expression_desc() {
    let ds = build_dataset();
    let r = query(
        &ds,
        "SELECT * FROM d WHERE labels < 3 ORDER BY MEAN(images) DESC",
    )
    .unwrap();
    // rows with labels <3: 0,1,2,10,11,12; ordered by image fill desc
    assert_eq!(r.indices, vec![12, 11, 10, 2, 1, 0]);
}

#[test]
fn paper_example_query_runs() {
    let ds = build_dataset();
    let r = query(
        &ds,
        r#"SELECT images[2:6, 2:6, 0:2] as crop,
                  NORMALIZE(boxes, [0, 0, 50, 50]) as box
           FROM dataset
           WHERE IOU(boxes, "training/boxes") > 0.5
           ORDER BY IOU(boxes, "training/boxes")
           ARRANGE BY labels"#,
    )
    .unwrap();
    // IOU of boxes (x=i) vs training (x=0): overlap (10-i)/ (10+i) > 0.5 for i <= 3
    assert_eq!(r.indices.len(), 4);
    assert_eq!(r.columns, vec!["crop", "box"]);
    let rows = r.rows.as_ref().unwrap();
    match &rows[0][0] {
        Value::Tensor(t) => assert_eq!(t.shape().dims(), &[4, 4, 2]),
        other => panic!("unexpected {other:?}"),
    }
    // ORDER BY ascending IOU then ARRANGE BY labels groups stay intact
    assert_eq!(rows.len(), 4);
}

#[test]
fn arrange_by_groups_by_first_appearance() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT * FROM d WHERE labels < 2 ARRANGE BY labels").unwrap();
    // rows 0,1,10,11 -> grouped: [0,10] (label 0) then [1,11] (label 1)
    assert_eq!(r.indices, vec![0, 10, 1, 11]);
}

#[test]
fn limit_offset_window() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT * FROM d LIMIT 5").unwrap();
    assert_eq!(r.indices, vec![0, 1, 2, 3, 4]);
    let r = query(&ds, "SELECT * FROM d LIMIT 5 OFFSET 18").unwrap();
    assert_eq!(r.indices, vec![18, 19]);
}

#[test]
fn projection_arithmetic() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT labels * 2 + 1 AS scaled FROM d LIMIT 3").unwrap();
    let rows = r.rows.unwrap();
    assert_eq!(rows[0][0], Value::Num(1.0));
    assert_eq!(rows[1][0], Value::Num(3.0));
    assert_eq!(rows[2][0], Value::Num(5.0));
}

#[test]
fn shape_fast_path() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT SHAPE(images) AS s FROM d LIMIT 1").unwrap();
    match &r.rows.unwrap()[0][0] {
        Value::Tensor(t) => assert_eq!(t.to_f64_vec(), vec![8.0, 8.0, 3.0]),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn order_by_random_is_reproducible_shuffle() {
    let ds = build_dataset();
    let a = query(&ds, "SELECT * FROM d ORDER BY RANDOM()").unwrap();
    let b = query(&ds, "SELECT * FROM d ORDER BY RANDOM()").unwrap();
    assert_eq!(a.indices, b.indices, "same query, same shuffle");
    assert_ne!(
        a.indices,
        (0..20).collect::<Vec<u64>>(),
        "order is shuffled"
    );
    let mut sorted = a.indices.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..20).collect::<Vec<u64>>(),
        "permutation covers all rows"
    );
}

#[test]
fn at_version_queries_history() {
    let mut ds = build_dataset();
    let commit = ds.commit("twenty rows").unwrap();
    // append 5 more with label 7
    for _ in 0..5 {
        ds.append_row(vec![("labels", Sample::scalar(7i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    // current sees 7 labels = 2 + 5
    let now = query(&ds, "SELECT * FROM d WHERE labels = 7").unwrap();
    assert_eq!(now.indices.len(), 7);
    // historical version sees only 2
    let q = format!("SELECT * FROM d AT VERSION \"{commit}\" WHERE labels = 7");
    let past = query(&ds, &q).unwrap();
    assert_eq!(past.indices.len(), 2);
    assert!(past.dataset.is_some());
    let view = past.view_versioned().unwrap();
    assert_eq!(view.len(), 2);
}

/// `AT VERSION` reopens on the handle's parsed chunks: the committed
/// chunk the head's query just read costs the historical one no round
/// trip.
#[test]
fn at_version_reads_the_chunks_the_head_parsed() {
    let mut ds = build_dataset();
    let commit = ds.commit("twenty rows").unwrap();
    let opts = QueryOptions::default();
    let head = query_opts(&ds, "SELECT * FROM d WHERE labels < 5", &opts).unwrap();
    assert_eq!(head.stats.round_trips, 1);
    let q = format!("SELECT * FROM d AT VERSION \"{commit}\" WHERE labels < 5");
    let past = query_opts(&ds, &q, &opts).unwrap();
    assert_eq!(past.indices, head.indices);
    assert_eq!(past.stats.round_trips, 0);
}

#[test]
fn result_views_stream_rows() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT * FROM d WHERE labels = 5").unwrap();
    let view = r.view(&ds);
    assert_eq!(view.len(), 2);
    let row = view.get_row(0).unwrap();
    assert_eq!(row.get("labels").unwrap().get_f64(0).unwrap(), 5.0);
}

#[test]
fn contains_filter() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT * FROM d WHERE CONTAINS(labels, 4)").unwrap();
    assert_eq!(r.indices, vec![4, 14]);
}

#[test]
fn unknown_column_and_function_error() {
    let ds = build_dataset();
    assert!(query(&ds, "SELECT * FROM d WHERE ghost = 1").is_err());
    assert!(query(&ds, "SELECT EXPLODE(labels) FROM d").is_err());
}

#[test]
fn empty_result_is_ok() {
    let ds = build_dataset();
    let r = query(&ds, "SELECT * FROM d WHERE labels > 100").unwrap();
    assert!(r.is_empty());
    assert_eq!(r.len(), 0);
}

#[test]
fn single_worker_matches_parallel() {
    let ds = build_dataset();
    let q =
        deeplake_tql::parser::parse("SELECT * FROM d WHERE labels % 2 = 0 ORDER BY labels DESC")
            .unwrap();
    let opts = |workers| deeplake_tql::QueryOptions {
        workers,
        ..Default::default()
    };
    let seq = deeplake_tql::execute(&ds, &q, &opts(1)).unwrap();
    let par = deeplake_tql::execute(&ds, &q, &opts(8)).unwrap();
    assert_eq!(seq.indices, par.indices);
}
