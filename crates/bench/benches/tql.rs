//! TQL query performance: filter, order, the paper's Fig. 5 query,
//! chunk-statistics pruning vs. the naive full scan across selectivities,
//! and the columnar kernels vs. the row evaluator on an unprunable scan
//! and a top-k re-rank.

use criterion::{criterion_group, criterion_main, Criterion};
use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Htype, Sample};
use deeplake_tql::{execute, parser, query, QueryOptions};
use std::sync::Arc;

fn dataset(rows: u64) -> Dataset {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "tql").unwrap();
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
    for i in 0..rows {
        ds.append_row(vec![
            (
                "images",
                Sample::from_slice([16, 16, 3], &vec![(i % 251) as u8; 768]).unwrap(),
            ),
            ("labels", Sample::scalar((i % 10) as i32)),
            (
                "boxes",
                Sample::from_slice([1, 4], &[(i % 8) as f32, 0.0, 10.0, 10.0]).unwrap(),
            ),
            (
                "training/boxes",
                Sample::from_slice([1, 4], &[0.0f32, 0.0, 10.0, 10.0]).unwrap(),
            ),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    ds
}

fn bench_tql(c: &mut Criterion) {
    let ds = dataset(2000);
    let mut group = c.benchmark_group("tql");
    group.sample_size(10);
    group.bench_function("filter_scalar", |b| {
        b.iter(|| {
            let r = query(&ds, "SELECT * FROM d WHERE labels = 3").unwrap();
            assert_eq!(r.len(), 200);
        })
    });
    group.bench_function("order_by_mean_image", |b| {
        b.iter(|| {
            let r = query(
                &ds,
                "SELECT * FROM d WHERE labels < 2 ORDER BY MEAN(images) DESC",
            )
            .unwrap();
            assert_eq!(r.len(), 400);
        })
    });
    group.bench_function("paper_fig5_query", |b| {
        b.iter(|| {
            let r = query(
                &ds,
                r#"SELECT images[2:10, 2:10, 0:2] AS crop,
                          NORMALIZE(boxes, [0, 0, 12, 12]) AS box
                   FROM d
                   WHERE IOU(boxes, "training/boxes") > 0.5
                   ORDER BY IOU(boxes, "training/boxes")
                   ARRANGE BY labels"#,
            )
            .unwrap();
            assert!(!r.is_empty());
        })
    });
    group.bench_function("shape_fast_path", |b| {
        b.iter(|| {
            let r = query(&ds, "SELECT SHAPE(images) AS s FROM d LIMIT 500").unwrap();
            assert_eq!(r.len(), 500);
        })
    });
    group.finish();
}

/// 4000 rows with *sorted* labels 0..100 over tiny label chunks, so
/// chunk statistics can decide most spans outright.
fn sorted_dataset(rows: u64) -> Dataset {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "tql-prune").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(128);
        o
    })
    .unwrap();
    for i in 0..rows {
        ds.append_row(vec![("labels", Sample::scalar((i * 100 / rows) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    ds
}

/// Pruned vs. full-scan filter at 1% / 10% / 90% selectivity. The pruned
/// path must win big on selective filters and stay competitive on
/// unselective ones (spans decide whole instead of per-row).
fn bench_pruning(c: &mut Criterion) {
    let rows = 4000u64;
    let ds = sorted_dataset(rows);
    let mut group = c.benchmark_group("tql_pruning");
    group.sample_size(10);
    for (name, percent) in [("sel_1pct", 1u64), ("sel_10pct", 10), ("sel_90pct", 90)] {
        let q = parser::parse(&format!("SELECT * FROM d WHERE labels < {percent}")).unwrap();
        let expect = (rows * percent / 100) as usize;
        group.bench_function(format!("pruned_{name}"), |b| {
            b.iter(|| {
                let r = execute(&ds, &q, &QueryOptions::default()).unwrap();
                assert_eq!(r.len(), expect);
                assert!(r.stats.chunks_pruned + r.stats.chunks_matched > 0);
            })
        });
        group.bench_function(format!("full_{name}"), |b| {
            b.iter(|| {
                let r = execute(
                    &ds,
                    &q,
                    &QueryOptions {
                        pruning: false,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(r.len(), expect);
                assert_eq!(r.stats.chunks_pruned, 0);
            })
        });
    }
    group.finish();
}

/// 50 000 rows written 256 to a flush (196 chunks a column): an `f32`
/// `score` no statistics can prune, and a 32-dimensional embedding.
fn scan_dataset(rows: u64) -> Dataset {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "tql-scan").unwrap();
    ds.create_tensor_opts("score", {
        let mut o = TensorOptions::new(Htype::Generic);
        o.dtype = Some(deeplake_tensor::Dtype::F32);
        o
    })
    .unwrap();
    ds.create_tensor("emb", Htype::Embedding, None).unwrap();
    for i in 0..rows {
        // a cheap hash: every chunk spans the whole [0, 1) range
        let u = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f32 / (1u64 << 24) as f32;
        let emb: Vec<f32> = (0..32).map(|d| ((i + d) % 17) as f32 - u).collect();
        ds.append_row(vec![
            ("score", Sample::scalar(u)),
            ("emb", Sample::from_slice([32], &emb).unwrap()),
        ])
        .unwrap();
        if i % 256 == 255 {
            ds.flush().unwrap();
        }
    }
    ds.flush().unwrap();
    ds
}

/// The two operators with a columnar kernel, each against
/// `pruning: false` — the row-at-a-time reference, which for the top-k
/// shape is the generic sort over every row.
fn bench_scan(c: &mut Criterion) {
    let rows = 50_000u64;
    let ds = scan_dataset(rows);
    let naive = QueryOptions {
        pruning: false,
        ..Default::default()
    };
    let mut group = c.benchmark_group("tql_scan");
    group.sample_size(10);

    let scan = parser::parse("SELECT * FROM d WHERE score > 0.96").unwrap();
    group.bench_function("scan_50k_kernel", |b| {
        b.iter(|| {
            let r = execute(&ds, &scan, &QueryOptions::default()).unwrap();
            assert_eq!(r.stats.rows_vectorized, rows);
            r.len()
        })
    });
    group.bench_function("scan_50k_rows", |b| {
        b.iter(|| {
            let r = execute(&ds, &scan, &naive).unwrap();
            assert_eq!(r.stats.rows_vectorized, 0);
            r.len()
        })
    });

    // the exact operator re-ranks every row: a 1000-row sibling dataset
    // is exactly 1000 candidates
    let small = scan_dataset(1000);
    let query_vector: Vec<String> = (0..32).map(|d| format!("{}.5", d % 7)).collect();
    let topk = parser::parse(&format!(
        "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [{}]) DESC LIMIT 10",
        query_vector.join(", ")
    ))
    .unwrap();
    group.bench_function("topk_1k_kernel", |b| {
        b.iter(|| {
            let r = execute(&small, &topk, &QueryOptions::default()).unwrap();
            assert_eq!(r.stats.candidates_reranked, 1000);
            assert_eq!(r.stats.rows_vectorized, 1000);
            r.len()
        })
    });
    group.bench_function("topk_1k_rows", |b| {
        b.iter(|| {
            let r = execute(&small, &topk, &naive).unwrap();
            assert_eq!(r.stats.rows_vectorized, 0);
            r.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tql, bench_pruning, bench_scan);
criterion_main!(benches);
