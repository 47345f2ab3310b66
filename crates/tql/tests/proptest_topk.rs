//! Property test: the physical top-k similarity operator — candidates
//! scored straight from chunk bytes where the column view allows, row by
//! row elsewhere — is result-identical to the naive `ORDER BY
//! <similarity> LIMIT k` pipeline: same indices, same order (including
//! ties), same projected rows, the same error value when both fail —
//! over randomized datasets and query shapes. Vector components draw
//! from a tiny pool so score ties are common and the stable/DESC
//! tie-breaking is genuinely exercised.

use std::sync::Arc;

use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_core::IndexSpec;
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Dtype, Htype, Sample};
use deeplake_tql::{execute, parser, QueryOptions, QueryResult, QueryStats};
use proptest::prelude::*;

fn build_dataset(rows: &[Vec<f64>], flush: bool) -> Dataset {
    let dim = rows[0].len() as u64;
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "prop").unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(64); // a few vectors per chunk
        o
    })
    .unwrap();
    for v in rows {
        let v32: Vec<f32> = v.iter().map(|&x| x as f32).collect();
        ds.append_row(vec![("emb", Sample::from_slice([dim], &v32).unwrap())])
            .unwrap();
    }
    if flush {
        ds.flush().unwrap();
    }
    ds
}

fn fmt_vec(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Everything a caller can observe of an execution, as text: `Debug`
/// keeps NaN equal to itself and tells `-0.0` from `0.0`, and an error
/// is compared by what it says.
fn observe(result: deeplake_tql::Result<QueryResult>) -> Result<String, String> {
    result
        .map(|r| format!("{:?} {:?} {:?}", r.indices, r.columns, r.rows))
        .map_err(|e| e.to_string())
}

/// Run `text` both ways, assert they agree, and hand back the top-k
/// path's counters (when it succeeded).
fn assert_equivalent(ds: &Dataset, text: &str, ann: bool) -> Option<QueryStats> {
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
    let fast = execute(
        ds,
        &q,
        &QueryOptions {
            workers: 3,
            pruning: true,
            ann,
            // full probe: ANN must equal exact when every cluster is read
            nprobe: usize::MAX,
        },
    );
    let stats = fast.as_ref().ok().map(|r| r.stats);
    assert_eq!(observe(naive), observe(fast), "diverged for {text:?}");
    stats
}

/// Components a vector draws from: few enough for ties, with the values
/// a similarity score can trip over (a zero vector's cosine is 0/0).
const COMPONENTS: [f64; 6] = [0.0, -0.0, 1.0, 2.0, -1.0, f64::NAN];

/// What one row of [`build_storage_shapes`]' `emb` column holds instead
/// of a `dim`-vector.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Oddity {
    /// Every row is a `dim`-vector.
    None,
    /// One row is a vector one element longer.
    WrongLength,
    /// One row is a vector long enough to be tiled.
    Tiled,
    /// One row is the empty marker.
    Empty,
}

/// An `emb` column of `dim`-vectors (components index [`COMPONENTS`]) in
/// every storage shape the re-rank can meet: `f32` or `f64` elements,
/// optionally LZ4 sample-compressed, rows rewritten in place after the
/// first half is written (fragmented spans), the second half left in the
/// open chunk without `flush`, and one odd row.
fn build_storage_shapes(
    dim: usize,
    wide: bool,
    packed: bool,
    rows: &[Vec<usize>],
    updates: &[(usize, Vec<usize>)],
    oddity: (Oddity, usize),
    flush: bool,
) -> Dataset {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "shapes").unwrap();
    ds.create_tensor_opts("emb", {
        // `Generic`: an embedding tensor of `f64` elements
        let mut o = TensorOptions::new(Htype::Generic);
        o.dtype = Some(if wide { Dtype::F64 } else { Dtype::F32 });
        o.chunk_target_bytes = Some(64);
        o.sample_compression = packed.then_some(Compression::Lz4);
        o
    })
    .unwrap();
    let vector = |components: &[usize], len: usize| {
        let values: Vec<f64> = (0..len)
            .map(|i| COMPONENTS[components[i % components.len()]])
            .collect();
        if wide {
            Sample::from_slice([len as u64], &values).unwrap()
        } else {
            let narrow: Vec<f32> = values.iter().map(|&v| v as f32).collect();
            Sample::from_slice([len as u64], &narrow).unwrap()
        }
    };
    let (kind, at) = (oddity.0, oddity.1 % rows.len());
    for (i, components) in rows.iter().enumerate() {
        if i == rows.len() / 2 {
            for (row, components) in updates {
                let row = (row % rows.len()) as u64;
                if row < ds.len() {
                    ds.update("emb", row, &vector(components, dim)).unwrap();
                }
            }
        }
        let sample = match kind {
            Oddity::WrongLength if i == at => vector(components, dim + 1),
            Oddity::Tiled if i == at => vector(components, 300),
            Oddity::Empty if i == at => Sample::empty(if wide { Dtype::F64 } else { Dtype::F32 }),
            _ => vector(components, dim),
        };
        ds.append_row(vec![("emb", sample)]).unwrap();
    }
    // (LZ4 shrinks the long row under the tiling bound, and an update
    // landing on it puts a plain vector back)
    let rewritten = updates.iter().any(|(row, _)| row % rows.len() == at);
    if kind == Oddity::Tiled && !packed && !rewritten {
        assert!(ds.store("emb").unwrap().is_tiled(at as u64));
    }
    if flush {
        ds.flush().unwrap();
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn flat_top_k_equals_naive(
        dim in 1usize..4,
        components in proptest::collection::vec(0i32..3, 1..180),
        qvec in proptest::collection::vec(-2i32..3, 3..=3),
        limit in 1u64..12,
        offset in 0u64..6,
        desc in any::<bool>(),
        cosine in any::<bool>(),
        flush in any::<bool>(),
    ) {
        // reshape the flat component pool into dim-sized vectors
        let rows: Vec<Vec<f64>> = components
            .chunks(dim)
            .filter(|c| c.len() == dim)
            .map(|c| c.iter().map(|&x| x as f64).collect())
            .collect();
        prop_assume!(!rows.is_empty());
        let ds = build_dataset(&rows, flush);

        let func = if cosine { "COSINE_SIMILARITY" } else { "L2_DISTANCE" };
        let dir = if desc { " DESC" } else { "" };
        let window = if offset > 0 {
            format!("LIMIT {limit} OFFSET {offset}")
        } else {
            format!("LIMIT {limit}")
        };
        let qvec: Vec<f64> = qvec.iter().map(|&x| x as f64).collect();
        let query_vector = fmt_vec(&qvec[..dim]);
        let text = format!(
            "SELECT * FROM d ORDER BY {func}(emb, {query_vector}){dir} {window}"
        );
        assert_equivalent(&ds, &text, false);

        // projections must match too
        let text = format!(
            "SELECT {func}(emb, {query_vector}) AS s FROM d \
             ORDER BY {func}(emb, {query_vector}){dir} {window}"
        );
        assert_equivalent(&ds, &text, false);
    }

    #[test]
    fn kernel_rerank_equals_naive_over_every_storage_shape(
        dim in 1usize..4,
        wide in any::<bool>(),
        packed in proptest::sample::select(vec![false, false, true]),
        rows in proptest::collection::vec(
            proptest::collection::vec(0usize..COMPONENTS.len(), 3..=3),
            1..70,
        ),
        updates in proptest::collection::vec(
            (0usize..70, proptest::collection::vec(0usize..COMPONENTS.len(), 3..=3)),
            0..3,
        ),
        oddity in (
            proptest::sample::select(vec![
                Oddity::None,
                Oddity::None,
                Oddity::WrongLength,
                Oddity::Tiled,
                Oddity::Empty,
            ]),
            0usize..70,
        ),
        flush in any::<bool>(),
        qvec in proptest::collection::vec(0usize..COMPONENTS.len() - 1, 3..=3),
        limit in 1u64..9,
        offset in 0u64..4,
        desc in any::<bool>(),
        cosine in any::<bool>(),
    ) {
        let ds = build_storage_shapes(dim, wide, packed, &rows, &updates, oddity, flush);
        let func = if cosine { "COSINE_SIMILARITY" } else { "L2_DISTANCE" };
        let dir = if desc { " DESC" } else { "" };
        // the literal cannot spell NaN; the column's vectors can hold it
        let query: Vec<f64> = qvec[..dim].iter().map(|&c| COMPONENTS[c]).collect();
        let key = format!("{func}(emb, {})", fmt_vec(&query));
        let window = format!("LIMIT {limit} OFFSET {offset}");
        let stats = assert_equivalent(
            &ds,
            &format!("SELECT * FROM d ORDER BY {key}{dir} {window}"),
            false,
        );
        if let Some(stats) = stats {
            // every row is a candidate on the exact path; an odd row's
            // chunk goes to the row evaluator, a packed column all of it
            prop_assert_eq!(stats.candidates_reranked, rows.len() as u64);
            if packed {
                prop_assert_eq!(stats.rows_vectorized, 0);
            } else if oddity.0 == Oddity::None {
                prop_assert_eq!(stats.rows_vectorized, rows.len() as u64);
            }
        }
        assert_equivalent(
            &ds,
            &format!("SELECT {key} AS s FROM d ORDER BY {key}{dir} {window}"),
            false,
        );
    }

    #[test]
    fn full_probe_ann_equals_naive(
        dim in 1usize..3,
        components in proptest::collection::vec(0i32..4, 8..120),
        qvec in proptest::collection::vec(-2i32..3, 2..=2),
        limit in 1u64..8,
        desc in any::<bool>(),
    ) {
        let rows: Vec<Vec<f64>> = components
            .chunks(dim)
            .filter(|c| c.len() == dim)
            .map(|c| c.iter().map(|&x| x as f64).collect())
            .collect();
        prop_assume!(rows.len() >= 4);
        let mut ds = build_dataset(&rows, true);
        ds.build_vector_index("emb", &IndexSpec::default()).unwrap();

        let dir = if desc { " DESC" } else { "" };
        let qvec: Vec<f64> = qvec.iter().map(|&x| x as f64).collect();
        let text = format!(
            "SELECT * FROM d ORDER BY L2_DISTANCE(emb, {}){dir} LIMIT {limit}",
            fmt_vec(&qvec[..dim])
        );
        // nprobe = MAX probes every cluster: the candidate set is every
        // indexed row, so ANN must agree with the naive path exactly
        assert_equivalent(&ds, &text, true);
    }
}
