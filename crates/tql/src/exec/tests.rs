use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, ThreadId};

use parking_lot::Mutex;

use super::tasks::run_tasks;
use crate::error::TqlError;
use crate::Result;

fn is_worker_panic(result: Result<()>) -> bool {
    matches!(result, Err(TqlError::Type(m)) if m == "query worker panicked")
}

#[test]
fn one_task_runs_on_the_caller() {
    let caller = thread::current().id();
    let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    for workers in [1, 2, 8] {
        run_tasks(workers, 1, |_| {
            ran_on.lock().push(thread::current().id());
            Ok(())
        })
        .unwrap();
    }
    // one worker runs every task on the caller too
    run_tasks(1, 5, |_| {
        ran_on.lock().push(thread::current().id());
        Ok(())
    })
    .unwrap();
    assert_eq!(*ran_on.lock(), [caller; 8]);
}

#[test]
fn every_task_runs_once_on_at_most_workers_threads() {
    let runs: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
    run_tasks(3, 40, |t| {
        runs.lock().push((t, thread::current().id()));
        Ok(())
    })
    .unwrap();
    let mut runs = runs.into_inner();
    runs.sort_unstable_by_key(|&(t, _)| t);
    assert_eq!(
        runs.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        (0..40).collect::<Vec<_>>()
    );
    let threads: std::collections::HashSet<ThreadId> = runs.iter().map(|&(_, id)| id).collect();
    assert!(threads.len() <= 3);
    run_tasks(4, 0, |_| panic!("no task to run")).unwrap();
}

#[test]
fn a_task_error_is_returned() {
    let r = run_tasks(2, 10, |t| match t {
        3 => Err(TqlError::UnknownColumn("x".into())),
        _ => Ok(()),
    });
    assert!(matches!(r, Err(TqlError::UnknownColumn(c)) if c == "x"));
}

#[test]
fn a_panic_on_the_caller_is_an_error_not_an_unwind() {
    // one task: no helper, the caller runs it
    assert!(is_worker_panic(run_tasks(4, 1, |_| panic!("task 0"))));
    // several tasks: the caller's own share panics, the helpers' do not.
    // A helper's task holds until the caller's has started, so with more
    // tasks than helpers the caller claims one however the threads are
    // scheduled
    let caller = thread::current().id();
    let caller_ran = AtomicBool::new(false);
    assert!(is_worker_panic(run_tasks(2, 6, |_| {
        if thread::current().id() == caller {
            caller_ran.store(true, Ordering::Release);
            panic!("the caller's task");
        }
        while !caller_ran.load(Ordering::Acquire) {
            thread::yield_now();
        }
        Ok(())
    })));
    assert!(caller_ran.into_inner());
}

#[test]
fn a_panic_on_a_helper_is_an_error_on_the_caller() {
    let caller = thread::current().id();
    let helper_ran = AtomicBool::new(false);
    let r = run_tasks(2, 8, |_| {
        if thread::current().id() != caller {
            helper_ran.store(true, Ordering::Release);
            panic!("a helper's task");
        }
        // hold the caller's task until the helper has taken one
        while !helper_ran.load(Ordering::Acquire) {
            thread::yield_now();
        }
        Ok(())
    });
    assert!(helper_ran.into_inner());
    assert!(is_worker_panic(r));
}

// ---------------------------------------------------------------------
// the kernels read records in place
// ---------------------------------------------------------------------

mod kernels {
    use std::sync::Arc;

    use deeplake_codec::Compression;
    use deeplake_core::dataset::TensorOptions;
    use deeplake_core::{Chunk, Metric};
    use deeplake_core::{ColumnRun, Dataset};
    use deeplake_storage::MemoryProvider;
    use deeplake_tensor::sample::from_f64_values;
    use deeplake_tensor::{Dtype, Htype, Sample, Shape};
    use proptest::prelude::*;

    use super::super::filter::{span_mask, Leaf};
    use super::super::walk::{contiguous, task_runs, Piece, Walk};
    use super::super::{eval, execute, QueryOptions, QueryStats};
    use crate::plan::{CmpOp, PruneExpr};

    /// Values a record draws from: every corner a compare or a score can
    /// trip over (integer dtypes take the truncated or saturated value).
    const VALUES: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.5,
        -3.25,
        100.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A chunk of uncompressed `dtype` records, one per entry of `records`.
    fn chunk_of(dtype: Dtype, shape: &[u64], records: &[Vec<f64>]) -> Chunk {
        let mut chunk = Chunk::new(dtype);
        for values in records {
            let sample = from_f64_values(dtype, Shape::new(shape), values);
            chunk.append_sample(&sample, Compression::None).unwrap();
        }
        chunk
    }

    /// A score's bits, every NaN as one: which NaN a sum of two NaNs
    /// keeps depends on the order the compiler puts an add's operands in,
    /// which Rust leaves open, and no caller can tell NaNs apart (a key
    /// orders by `is_nan`).
    fn bits(score: f64) -> u64 {
        if score.is_nan() {
            f64::NAN.to_bits()
        } else {
            score.to_bits()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn in_place_scores_are_metric_score_bit_for_bit(
            dtype in proptest::sample::select(vec![Dtype::F32, Dtype::F64, Dtype::I32, Dtype::U8]),
            dim in 1usize..=64,
            picks in proptest::collection::vec(
                ((0..VALUES.len(), any::<f64>()), (0..VALUES.len(), any::<f64>())),
                192..=192,
            ),
            corners in any::<bool>(),
            zero in proptest::sample::select(vec!["", "", "record", "query"]),
        ) {
            // full-width values, whose sums round, or half of them corners
            let value = |(i, x): (usize, f64)| match corners && i % 2 == 0 {
                true => VALUES[i],
                false => x,
            };
            let mut records: Vec<Vec<f64>> = picks
                .chunks(dim)
                .take(3)
                .map(|p| p.iter().map(|&(r, _)| value(r)).collect())
                .collect();
            let mut query: Vec<f64> = picks[..dim].iter().map(|&(_, q)| value(q)).collect();
            match zero {
                "record" => records[1].iter_mut().for_each(|v| *v = 0.0),
                "query" => query.iter_mut().for_each(|v| *v = 0.0),
                _ => {}
            }
            let chunk = chunk_of(dtype, &[dim as u64], &records);
            for metric in [Metric::Cosine, Metric::L2] {
                let prepared = metric.prepare(&query);
                for row in 0..records.len() {
                    let record = chunk.vector_at(row, dim).expect("a plain vector");
                    let mut decoded = Vec::new();
                    record.decode_rows(0..1, &mut decoded);
                    prop_assert_eq!(
                        bits(record.score_row(0, prepared)),
                        bits(metric.score(&decoded, &query)),
                        "{dtype} {metric:?} {decoded:?} {query:?}"
                    );
                }
            }
        }

        #[test]
        fn in_place_compare_keeps_the_rows_the_mask_keeps(
            dtype in proptest::sample::select(Dtype::ALL.to_vec()),
            picks in proptest::collection::vec(0..VALUES.len(), 1..80),
            value in proptest::sample::select(VALUES.to_vec()),
            flush in any::<bool>(),
            bounds in (0usize..80, 0usize..80),
        ) {
            // a column of tiny chunks: its rows lie in several runs, the
            // last ones in the open chunk unless flushed
            let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "cmp").unwrap();
            ds.create_tensor_opts("c", column(dtype, 24)).unwrap();
            for &i in &picks {
                let sample = from_f64_values(dtype, Shape::scalar(), &[VALUES[i]]);
                ds.append_row(vec![("c", sample)]).unwrap();
            }
            if flush {
                ds.flush().unwrap();
            }
            let len = picks.len() as u64;
            let end = (bounds.0.max(bounds.1) as u64).min(len);
            let start = (bounds.0.min(bounds.1) as u64).min(end);
            let whole = [(0, len)];
            let pinned = ds.prefetch_spans(&["c".to_string()], &whole).unwrap();
            let leaves = [Leaf {
                column: "c",
                runs: task_runs(&ds, &pinned, "c", &whole, &[]),
            }];
            // the mask path: the span's runs decoded into one buffer
            let mut values = Vec::new();
            for run in pinned.column_runs(&ds, "c", start, end).unwrap() {
                let view = run.chunk().scalar_column().unwrap();
                view.decode_rows(run.first..run.first + run.len, &mut values);
            }
            for op in OPS {
                let want_mask: Vec<bool> = values
                    .iter()
                    .map(|&a| match op {
                        CmpOp::Eq => a == value,
                        CmpOp::Ne => a != value,
                        CmpOp::Lt => a < value,
                        CmpOp::Le => a <= value,
                        CmpOp::Gt => a > value,
                        CmpOp::Ge => a >= value,
                    })
                    .collect();
                let want: Vec<u64> = (start..end)
                    .zip(&want_mask)
                    .filter_map(|(row, &keep)| keep.then_some(row))
                    .collect();
                // in place, matching rows pushed straight out
                let (mut got, mut row) = (Vec::new(), start);
                let ok = leaves[0].compare(start, end, op, value, |keep| {
                    if keep {
                        got.push(row);
                    }
                    row += 1;
                });
                prop_assert!(ok);
                prop_assert_eq!(&got, &want, "{dtype} {op:?} {value} over {values:?}");
                // in place, into a mask, and its negation
                let leaf = PruneExpr::Cmp { column: "c".into(), op, value };
                let (mut mask, mut spare) = (Vec::new(), Vec::new());
                prop_assert!(span_mask(&leaf, &leaves, start, end, &mut mask, &mut spare));
                prop_assert_eq!(&mask, &want_mask);
                let not = PruneExpr::Not(Box::new(leaf));
                prop_assert!(span_mask(&not, &leaves, start, end, &mut mask, &mut spare));
                prop_assert!(mask.iter().zip(&want_mask).all(|(a, b)| a != b));
            }
        }
    }

    /// Options for a `Generic` column of `dtype` in chunks of about
    /// `target` bytes.
    fn column(dtype: Dtype, target: u64) -> TensorOptions {
        let mut o = TensorOptions::new(Htype::Generic);
        o.dtype = Some(dtype);
        o.chunk_target_bytes = Some(target);
        o
    }

    /// Rows of [`split_and_open`].
    const ROWS: u64 = 100;
    /// The row of `big` that is tiled.
    const TILED: u64 = 53;

    /// `x` (f32 with a NaN every fourth row: no chunk of it has
    /// statistics, so the filter below decides no span without a scan)
    /// and `big` (u8 scalars, row [`TILED`] large enough to be tiled).
    /// `x`'s row 20 is rewritten by `update()` once its chunk has sealed,
    /// which splits that chunk's run, and the last rows stay in the open
    /// chunks.
    fn split_and_open() -> Dataset {
        let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "split").unwrap();
        ds.create_tensor_opts("x", column(Dtype::F32, 40)).unwrap();
        ds.create_tensor_opts("big", column(Dtype::U8, 16)).unwrap();
        for i in 0..ROWS {
            let x = if i % 4 == 0 { f32::NAN } else { (i % 5) as f32 };
            let big = match i {
                TILED => Sample::from_slice([600], &[7u8; 600]).unwrap(),
                _ => Sample::scalar((i % 7) as u8),
            };
            ds.append_row(vec![("x", Sample::scalar(x)), ("big", big)])
                .unwrap();
            if i == 40 {
                ds.update("x", 20, &Sample::scalar(f32::NAN)).unwrap();
            }
        }
        ds
    }

    #[test]
    fn a_task_resolves_a_split_run_and_open_rows_in_one_lookup_and_a_tiled_span_alone() {
        let ds = split_and_open();
        assert!(ds.store("big").unwrap().is_tiled(TILED));
        let spans = ds.chunk_spans("x").unwrap();
        assert!(
            spans.iter().any(|&(_, start, len)| (start, len) == (20, 1)),
            "row 20 is a span of its own: {spans:?}"
        );
        assert!(spans.last().unwrap().0.is_none(), "the last rows are open");
        let bounds: Vec<(u64, u64)> = spans.iter().map(|&(_, s, len)| (s, s + len)).collect();
        let whole = [(0, ROWS)];
        assert_eq!(contiguous(bounds.iter().copied()), whole);
        let pinned = ds
            .prefetch_spans(&["big".to_string(), "x".to_string()], &whole)
            .unwrap();
        let covered = |runs: &[(u64, ColumnRun<'_>)]| {
            contiguous(runs.iter().map(|(at, run)| (*at, at + run.len as u64)))
        };
        // `x`: given no spans to fall back to, everything came from the
        // one lookup over the task's whole range
        let x = task_runs(&ds, &pinned, "x", &whole, &[]);
        assert_eq!(covered(&x), whole);
        // `big`: the range holds a tiled row, so it resolves span by
        // span, every span but the one holding that row
        assert!(task_runs(&ds, &pinned, "big", &whole, &[]).is_empty());
        let big = task_runs(&ds, &pinned, "big", &whole, &bounds);
        let &(start, end) = bounds
            .iter()
            .find(|&&(s, e)| (s..e).contains(&TILED))
            .unwrap();
        assert_eq!(covered(&big), [(0, start), (end, ROWS)]);

        // the scan compares `x` in place everywhere and `big` beside the
        // tiled span; the row evaluator short-circuits past the tiled
        // row (its `x` is 3), and the answer is the reference's
        let naive = QueryOptions {
            pruning: false,
            ..Default::default()
        };
        for (text, vectorized) in [
            (
                "SELECT * FROM d WHERE x < 3 AND big < 100",
                ROWS - (end - start),
            ),
            ("SELECT * FROM d WHERE x >= 1", ROWS),
        ] {
            let q = crate::parser::parse(text).unwrap();
            let fast = execute(&ds, &q, &QueryOptions::default()).unwrap();
            assert_eq!(fast.indices, execute(&ds, &q, &naive).unwrap().indices);
            assert_eq!(fast.stats.chunks_scanned, spans.len() as u64, "{text}");
            assert_eq!(fast.stats.rows_vectorized, vectorized, "{text}");
        }
    }

    #[test]
    fn what_a_refused_kernel_pushed_is_dropped_and_its_piece_evaluated_row_by_row() {
        let ds = split_and_open();
        let filter = crate::parser::parse("SELECT * FROM d WHERE x < 3")
            .unwrap()
            .filter
            .unwrap();
        let spans = ds.chunk_spans("x").unwrap();
        let pieces: Vec<Piece> = (spans.iter())
            .map(|&(_, start, len)| Piece {
                span: (start, start + len),
                candidates: None,
            })
            .collect();
        let x = ["x".to_string()];
        let walk = Walk {
            ds: &ds,
            fetch: &x,
            text: &[],
            columns: &x,
            expr: &filter,
            clock: |stats| &mut stats.decode_ns,
        };
        // the kernel takes every other span whole and refuses the rest
        // after pushing a row no span holds
        let (mut stats, mut out, mut n) = (QueryStats::default(), Vec::new(), 0);
        let truthy = |value: crate::Value, row| value.truthy().then_some(row);
        let kernel = |piece: &Piece, _: &[Leaf], out: &mut Vec<u64>| {
            n += 1;
            match n % 2 {
                1 => out.extend(piece.span.0..piece.span.1),
                _ => out.push(u64::MAX),
            }
            n % 2 == 1
        };
        walk.task(&pieces, &mut stats, &mut out, truthy, kernel)
            .unwrap();
        let mut want = Vec::new();
        let mut vectorized = 0;
        for (i, &(_, start, len)) in spans.iter().enumerate() {
            if i % 2 == 0 {
                want.extend(start..start + len);
                vectorized += len;
            } else {
                let keep = |&row: &u64| eval(&filter, &ds, row).unwrap().truthy();
                want.extend((start..start + len).filter(keep));
            }
        }
        assert_eq!(out, want);
        assert_eq!(stats.chunks_scanned, spans.len() as u64);
        assert_eq!(stats.rows_vectorized, vectorized);
    }
}

// ---------------------------------------------------------------------
// ARRANGE BY groups as a first-fit scan does
// ---------------------------------------------------------------------

mod arrange {
    use std::cmp::Ordering;

    use deeplake_tensor::Scalar;
    use proptest::prelude::*;

    use super::super::arrange;

    /// The linear grouping `arrange` replaced: each row joins the first
    /// group whose key compares equal to its own, else opens a group.
    /// Quadratic in distinct keys.
    fn first_fit(keys: &[Scalar], rows: &[u64]) -> Vec<u64> {
        let mut groups: Vec<(&Scalar, Vec<u64>)> = Vec::new();
        for (key, &row) in keys.iter().zip(rows) {
            match groups
                .iter_mut()
                .find(|(k, _)| k.order_cmp(key) == Ordering::Equal)
            {
                Some((_, bucket)) => bucket.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        groups.into_iter().flat_map(|(_, rows)| rows).collect()
    }

    /// Keys that tie across variants: `Int(1)`, `Float(1.0)` and
    /// `Bool(true)` compare equal, as do `±0.0`, `Int(0)` and
    /// `Bool(false)`, every NaN, and two ints one f64 cannot tell apart.
    fn keys() -> Vec<Scalar> {
        let mut keys = vec![
            Scalar::Null,
            Scalar::Int(1 << 53),
            Scalar::Int((1 << 53) + 1),
        ];
        keys.extend((-2..3).map(Scalar::Int));
        keys.extend([-1.5, -0.0, 0.0, 1.0, 2.0, f64::NAN, f64::INFINITY].map(Scalar::Float));
        keys.extend([false, true].map(Scalar::Bool));
        keys.extend(["", "a", "b"].map(|s| Scalar::Str(s.into())));
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arrange_groups_as_the_first_fit_scan_does(
            keys in proptest::collection::vec(proptest::sample::select(keys()), 0..80),
        ) {
            let rows: Vec<u64> = (0..keys.len() as u64).map(|i| i * 7 + 3).collect();
            prop_assert_eq!(arrange(&keys, &rows), first_fit(&keys, &rows), "{:?}", keys);
        }
    }

    #[test]
    fn fifty_thousand_distinct_keys_arrange_in_n_log_n() {
        // the first-fit scan makes ~1.25e9 comparisons here
        let keys: Vec<Scalar> = (0..50_000).rev().map(Scalar::Int).collect();
        let rows: Vec<u64> = (0..50_000).collect();
        assert_eq!(arrange(&keys, &rows), rows);
    }
}
