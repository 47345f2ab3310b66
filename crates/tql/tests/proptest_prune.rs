//! Property test: the default execution path — chunk-statistics pruning
//! plus the columnar filter kernels — is result-identical to the naive
//! row-at-a-time full scan (`pruning: false`): same indices, same order,
//! same projected rows, and the same error value when both fail — over
//! randomized datasets and generated queries.

use std::sync::Arc;

use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_storage::MemoryProvider;
use deeplake_tensor::sample::from_f64_values;
use deeplake_tensor::{Dtype, Htype, Sample, Shape};
use deeplake_tql::{execute, parser, QueryOptions, QueryResult, QueryStats};
use proptest::prelude::*;

/// Dataset with a scalar `labels` tensor (small chunks so queries span
/// many of them), a scalar `score` tensor, and a small image tensor —
/// flushed or not, optionally with in-place updates fragmenting runs.
fn build_dataset(labels: &[i32], updates: &[(usize, i32)], flush: bool) -> Dataset {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "prop").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(40); // a handful of rows per chunk
        o
    })
    .unwrap();
    ds.create_tensor_opts("score", {
        let mut o = TensorOptions::new(Htype::Generic);
        o.dtype = Some(deeplake_tensor::Dtype::F64);
        o.chunk_target_bytes = Some(64);
        o
    })
    .unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(deeplake_codec::Compression::None);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    for (i, &label) in labels.iter().enumerate() {
        ds.append_row(vec![
            ("labels", Sample::scalar(label)),
            ("score", Sample::scalar(label as f64 * 1.5 - i as f64 % 3.0)),
            (
                "images",
                Sample::from_slice([4, 4, 3], &[(i % 251) as u8; 48]).unwrap(),
            ),
        ])
        .unwrap();
    }
    for &(row, value) in updates {
        if (row as u64) < ds.len() {
            ds.update("labels", row as u64, &Sample::scalar(value))
                .unwrap();
        }
    }
    if flush {
        ds.flush().unwrap();
    }
    ds
}

/// Everything a caller can observe of an execution, as text: `Debug`
/// keeps NaN equal to itself and tells `-0.0` from `0.0`, and an error
/// is compared by what it says.
fn observe(result: deeplake_tql::Result<QueryResult>) -> Result<String, String> {
    result
        .map(|r| format!("{:?} {:?} {:?}", r.indices, r.columns, r.rows))
        .map_err(|e| e.to_string())
}

/// Run `text` both ways, assert they agree, and hand back the default
/// path's counters (when it succeeded).
fn assert_equivalent(ds: &Dataset, text: &str) -> Option<QueryStats> {
    let q = parser::parse(text).unwrap();
    let naive = execute(
        ds,
        &q,
        &QueryOptions {
            workers: 3,
            pruning: false,
            ..Default::default()
        },
    );
    if let Ok(r) = &naive {
        assert_eq!(
            r.stats.rows_vectorized, 0,
            "the reference never takes a kernel"
        );
    }
    let pruned = execute(
        ds,
        &q,
        &QueryOptions {
            workers: 3,
            pruning: true,
            ..Default::default()
        },
    );
    let stats = pruned.as_ref().ok().map(|r| r.stats);
    assert_eq!(observe(naive), observe(pruned), "diverged for {text:?}");
    stats
}

/// Values a float `score` column draws from: every comparison corner.
const SCORES: [f64; 8] = [
    f64::NAN,
    0.0,
    -0.0,
    1.0,
    -1.0,
    2.5,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// What one row of [`build_mixed`]'s `odd` and `big` columns holds
/// instead of a scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Oddity {
    /// Every row is a scalar.
    None,
    /// `odd` holds a two-element sample at the row.
    NonScalar,
    /// `big` holds a sample large enough to be tiled at the row.
    Tiled,
}

/// A dataset of scalar columns in every storage shape a filter can meet:
///
/// * `val` — scalars of `dtype` (any of the eleven), tiny chunks;
/// * `score` — `f32`/`f64` drawn from [`SCORES`];
/// * `packed` — `i32` scalars, every sample LZ4-compressed;
/// * `odd` — `f32` scalars, one row optionally a two-element sample;
/// * `big` — `u8` scalars, one row optionally large enough to be tiled.
///
/// `updates` rewrite `val` and `score` rows in place after the first half
/// of the rows is written (fragmenting their spans); without `flush` the
/// second half stays in the open chunks.
fn build_mixed(
    dtype: Dtype,
    wide_score: bool,
    values: &[(i32, usize)],
    updates: &[(usize, i32, usize)],
    oddity: (Oddity, usize),
    flush: bool,
) -> Dataset {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "mixed").unwrap();
    let column = |dtype: Dtype, target: u64, sample_compression: Option<Compression>| {
        let mut o = TensorOptions::new(Htype::Generic);
        o.dtype = Some(dtype);
        o.chunk_target_bytes = Some(target);
        o.sample_compression = sample_compression;
        o
    };
    let score_dtype = if wide_score { Dtype::F64 } else { Dtype::F32 };
    ds.create_tensor_opts("val", column(dtype, 40, None))
        .unwrap();
    ds.create_tensor_opts("score", column(score_dtype, 64, None))
        .unwrap();
    ds.create_tensor_opts("packed", column(Dtype::I32, 40, Some(Compression::Lz4)))
        .unwrap();
    ds.create_tensor_opts("odd", column(Dtype::F32, 48, None))
        .unwrap();
    ds.create_tensor_opts("big", column(Dtype::U8, 16, None))
        .unwrap();

    let scalar = |dtype: Dtype, v: f64| from_f64_values(dtype, Shape::scalar(), &[v]);
    let (kind, at) = (oddity.0, oddity.1 % values.len());
    let half = values.len() / 2;
    for (i, &(v, s)) in values.iter().enumerate() {
        if i == half {
            for &(row, v, s) in updates {
                let row = (row % values.len()) as u64;
                if row < ds.len() {
                    ds.update("val", row, &scalar(dtype, v as f64)).unwrap();
                    ds.update("score", row, &scalar(score_dtype, SCORES[s]))
                        .unwrap();
                }
            }
        }
        let odd = if (kind, at) == (Oddity::NonScalar, i) {
            Sample::from_slice([2], &[v as f32, 1.0]).unwrap()
        } else {
            Sample::scalar(v as f32)
        };
        let big = if (kind, at) == (Oddity::Tiled, i) {
            Sample::from_slice([600], &[v as u8; 600]).unwrap()
        } else {
            Sample::scalar(v as u8)
        };
        ds.append_row(vec![
            ("val", scalar(dtype, v as f64)),
            ("score", scalar(score_dtype, SCORES[s])),
            ("packed", Sample::scalar(v)),
            ("odd", odd),
            ("big", big),
        ])
        .unwrap();
    }
    if kind == Oddity::Tiled {
        assert!(ds.store("big").unwrap().is_tiled(at as u64));
    }
    if flush {
        ds.flush().unwrap();
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_equals_naive_over_random_queries(
        labels in proptest::collection::vec(0i32..10, 1..120),
        updates in proptest::collection::vec((0usize..120, 0i32..10), 0..4),
        flush in any::<bool>(),
        column in proptest::sample::select(vec!["labels", "score"]),
        op in proptest::sample::select(vec!["=", "!=", "<", "<=", ">", ">="]),
        threshold in 0i32..10,
        combine in proptest::sample::select(vec!["", "AND", "OR", "NOT"]),
        second_op in proptest::sample::select(vec!["<", ">="]),
        second_threshold in 0i32..10,
        order in proptest::sample::select(vec!["", "ORDER BY labels", "ORDER BY score DESC"]),
        limit in proptest::sample::select(vec!["", "LIMIT 5", "LIMIT 7 OFFSET 3"]),
    ) {
        let ds = build_dataset(&labels, &updates, flush);
        let clause = match combine {
            "AND" | "OR" => format!(
                "{column} {op} {threshold} {combine} labels {second_op} {second_threshold}"
            ),
            "NOT" => format!("NOT {column} {op} {threshold}"),
            _ => format!("{column} {op} {threshold}"),
        };
        let query = format!("SELECT * FROM d WHERE {clause} {order} {limit}");
        assert_equivalent(&ds, &query);
    }

    #[test]
    fn kernels_equal_naive_over_every_storage_shape(
        dtype in proptest::sample::select(Dtype::ALL.to_vec()),
        wide_score in any::<bool>(),
        values in proptest::collection::vec((-1i32..5, 0usize..SCORES.len()), 1..90),
        updates in proptest::collection::vec((0usize..90, -1i32..5, 0usize..SCORES.len()), 0..4),
        oddity in (
            proptest::sample::select(vec![Oddity::None, Oddity::NonScalar, Oddity::Tiled]),
            0usize..90,
        ),
        flush in any::<bool>(),
        column in proptest::sample::select(vec!["val", "score", "packed", "odd", "big"]),
        op in proptest::sample::select(vec!["=", "!=", "<", "<=", ">", ">="]),
        threshold in proptest::sample::select(vec!["-1", "0", "0.5", "1", "2", "3"]),
        shape in proptest::sample::select(vec!["plain", "flipped", "contains", "not", "and", "or"]),
        second in (
            proptest::sample::select(vec!["val", "score"]),
            proptest::sample::select(vec!["<", ">=", "!="]),
            -1i32..5,
        ),
        tail in proptest::sample::select(vec!["", "ORDER BY val", "ORDER BY score DESC LIMIT 6"]),
    ) {
        let ds = build_mixed(dtype, wide_score, &values, &updates, oddity, flush);
        let (second_column, second_op, second_threshold) = second;
        let first = format!("{column} {op} {threshold}");
        let clause = match shape {
            "flipped" => format!("{threshold} {op} {column}"),
            "contains" => format!("CONTAINS({column}, {threshold})"),
            "not" => format!("NOT {first}"),
            // at most one column of the pair can hold the odd row, so
            // which error a failing query reports does not depend on
            // which worker reaches it first
            "and" => format!("{first} AND {second_column} {second_op} {second_threshold}"),
            "or" => format!("{second_column} {second_op} {second_threshold} OR {first}"),
            _ => first,
        };
        assert_equivalent(&ds, &format!("SELECT * FROM d WHERE {clause} {tail}"));
        assert_equivalent(&ds, &format!("SELECT val, score FROM d WHERE {clause} {tail}"));
    }

    #[test]
    fn pruned_equals_naive_on_projections(
        labels in proptest::collection::vec(0i32..6, 1..60),
        threshold in 0i32..6,
    ) {
        let ds = build_dataset(&labels, &[], true);
        assert_equivalent(
            &ds,
            &format!("SELECT labels * 2 + 1 AS s FROM d WHERE labels < {threshold}"),
        );
        // opaque filters (function calls) must also agree
        assert_equivalent(
            &ds,
            &format!("SELECT labels AS l FROM d WHERE CONTAINS(labels, {threshold}) ORDER BY MEAN(images)"),
        );
    }

    #[test]
    fn pruned_equals_naive_at_version(
        labels in proptest::collection::vec(0i32..5, 2..40),
        extra in proptest::collection::vec(0i32..5, 1..10),
        threshold in 0i32..5,
    ) {
        let mut ds = build_dataset(&labels, &[], true);
        let commit = ds.commit("base").unwrap();
        for &l in &extra {
            ds.append_row(vec![("labels", Sample::scalar(l))]).unwrap();
        }
        ds.flush().unwrap();
        assert_equivalent(
            &ds,
            &format!("SELECT * FROM d AT VERSION \"{commit}\" WHERE labels = {threshold}"),
        );
    }
}

/// 200 rows whose `score` holds a NaN in every chunk (so no statistics,
/// so every span is scanned) and whose `val` cycles 0..5.
fn cycling_values() -> Vec<(i32, usize)> {
    (0..200)
        .map(|i| (i % 5, i as usize % SCORES.len()))
        .collect()
}

/// The kernels are not a silent no-op: where every chunk qualifies they
/// decide every scanned row — for every dtype, through in-place updates,
/// and for rows still in the open chunk.
#[test]
fn kernels_decide_every_scanned_row_of_clean_columns() {
    // NaN scores: the rewritten rows' single-row chunks get no statistics
    let updates = [(17, 3, 0), (150, 0, 0)];
    for dtype in Dtype::ALL {
        for flush in [true, false] {
            let ds = build_mixed(
                dtype,
                true,
                &cycling_values(),
                &updates,
                (Oddity::None, 0),
                flush,
            );
            let stats = assert_equivalent(
                &ds,
                "SELECT * FROM d WHERE score > 0.5 AND NOT val = 2 OR 1 <= val",
            )
            .expect("clean columns never error");
            assert_eq!(stats.chunks_pruned + stats.chunks_matched, 0);
            assert_eq!(stats.rows_vectorized, 200, "{dtype} flush={flush}");
        }
    }
}

/// Each shape a kernel must refuse sends exactly the affected spans to
/// the row evaluator — and the answer, error included, stays the
/// reference's.
#[test]
fn kernels_hand_unprovable_spans_to_the_row_evaluator() {
    // a sample-compressed column never qualifies
    let ds = build_mixed(
        Dtype::I32,
        true,
        &cycling_values(),
        &[],
        (Oddity::None, 0),
        true,
    );
    let stats = assert_equivalent(&ds, "SELECT * FROM d WHERE packed = 2").unwrap();
    assert!(stats.chunks_scanned > 0);
    assert_eq!(stats.rows_vectorized, 0);
    // one leaf on it disqualifies the spans of the whole filter
    let stats = assert_equivalent(&ds, "SELECT * FROM d WHERE val = 2 AND packed = 2").unwrap();
    assert_eq!(stats.rows_vectorized, 0);

    for (oddity, column) in [(Oddity::NonScalar, "odd"), (Oddity::Tiled, "big")] {
        // row 77 holds val = 2
        let ds = build_mixed(Dtype::I32, true, &cycling_values(), &[], (oddity, 77), true);
        // the row evaluator never reaches the odd row's right arm; the
        // kernel must not either — the spans over its chunk fall back,
        // the rest stay columnar
        let stats = assert_equivalent(
            &ds,
            &format!("SELECT * FROM d WHERE val = 0 AND {column} < 100"),
        )
        .expect("short-circuited past the odd row");
        assert!(
            (100..200).contains(&stats.rows_vectorized),
            "{column}: {} rows vectorized",
            stats.rows_vectorized
        );
        // reached, it raises — the same error both ways
        let q = parser::parse(&format!("SELECT * FROM d WHERE {column} < 100")).unwrap();
        let err = execute(&ds, &q, &QueryOptions::default()).unwrap_err();
        assert!(err.to_string().contains("not defined on"), "{err}");
        assert!(assert_equivalent(&ds, &format!("SELECT * FROM d WHERE {column} < 100")).is_none());
    }
}
