//! The filter stage: spans decided from chunk statistics, the undecided
//! ones walked in tasks through the filter's columnar kernels.

use std::time::Instant;

use deeplake_core::tensor_store::TensorStore;
use deeplake_core::{ColumnRun, Dataset, PrefetchedChunks};

use super::eval::{eval_in, EvalCtx};
use super::tasks::{group_into_tasks, map_tasks};
use super::walk::{clamped_spans, first_run, seek, Piece, Walk};
use super::{lap, Columns, QueryOptions, QueryStats};
use crate::ast::Expr;
use crate::plan::{CmpOp, Plan, PruneExpr};
use crate::value::Value;
use crate::Result;

/// The filter stage. Two phases:
///
/// 1. every chunk-aligned span is decided from statistics alone (no
///    I/O): pruned, matched whole, or left undecided;
/// 2. undecided spans are grouped into worker tasks, each a [`Walk`]:
///    one batched fetch for *all* its spans' chunks, each chunk decoded
///    once, and the predicate evaluated across its rows — a lone
///    `column <op> number` pushing its matching rows straight out, a
///    compound filter combining per-leaf masks ([`span_mask`]), or row
///    by row where the kernels refuse a span.
///
/// `stop_after` (set for `LIMIT k` queries with no ORDER BY / ARRANGE
/// BY) short-circuits phase 2: spans are scanned **in row order**, in
/// smaller task increments, and scanning stops as soon as the decided
/// contiguous prefix of spans holds `k` matching rows — the window stage
/// truncates inside that prefix, so results are identical while the
/// spans past the k-th match never fetch. Like statistics pruning, the
/// skipped spans' storage faults or evaluation errors go unnoticed where
/// the naive scan would have surfaced them.
///
/// Returns kept row indices ascending.
pub(super) fn filter_stage(
    ds: &Dataset,
    filter: &Expr,
    plan: &Plan,
    cols: &Columns,
    opts: &QueryOptions,
    stop_after: Option<u64>,
    stats: &mut QueryStats,
) -> Result<Vec<u64>> {
    let (n, workers) = (ds.len(), opts.workers.max(1));
    // The driving column partitions the row space into chunk spans.
    // Prefer a column the prune predicate can bound (spans then align
    // with the statistics that decide them); otherwise any existing
    // filter column still buys batched chunk-at-a-time fetching.
    let mut prune_cols = Vec::new();
    plan.prune.columns(&mut prune_cols);
    let driving = prune_cols
        .iter()
        .chain(plan.filter_columns.iter())
        .find(|c| ds.tensor_meta(c).is_ok());

    let (Some(driving), true) = (driving, opts.pruning) else {
        // no resolvable column (the per-row path reports unknown-column
        // errors exactly as before), or pruning disabled: naive scan
        let t = Instant::now();
        let ctx = EvalCtx {
            ds,
            pinned: &PrefetchedChunks::default(),
            text: &cols.text,
        };
        // one task per block of 64 rows, every row through the row evaluator
        let blocks = map_tasks(workers, n.div_ceil(64) as usize, stats, |b, _| {
            let mut kept = Vec::new();
            for row in (b as u64 * 64..n).take(64) {
                if eval_in(&ctx, filter, row)?.truthy() {
                    kept.push(row);
                }
            }
            Ok(kept)
        })?;
        lap(&mut stats.decode_ns, t);
        return Ok(blocks.concat());
    };

    let spans = clamped_spans(ds, driving, n)?;

    // ---- phase 1: decide spans from statistics alone (no I/O) ----
    let t_prune = Instant::now();
    // each leaf column's store, resolved once per stage. Text-htype
    // columns report no statistics: their rows evaluate as *strings*, so
    // an interval over their raw scalar bytes would not describe what the
    // row evaluator compares
    let stores: Vec<(&String, Option<&TensorStore>)> = prune_cols
        .iter()
        .map(|c| (c, ds.store(c).ok().filter(|_| !cols.text.contains(c))))
        .collect();
    let span_stats = |column: &str, &(id, start, len): &(Option<u64>, u64, u64)| {
        let store = stores.iter().find(|(c, _)| *c == column)?.1?;
        // a span of the driving column is one run of one chunk: its
        // statistics are that chunk's, read by the id the span carries
        match column == driving {
            true => store.chunk_stats(id?),
            false => store.stats_for_rows(start, start + len),
        }
    };
    let verdicts: Vec<Option<bool>> = spans
        .iter()
        .map(|span| plan.prune.evaluate(&|col| span_stats(col, span)))
        .collect();
    // a pruned span keeps nothing; a matched one is taken whole below
    let count = |verdict| verdicts.iter().filter(|&&v| v == verdict).count() as u64;
    stats.chunks_pruned += count(Some(false));
    stats.chunks_matched += count(Some(true));
    let undecided: Vec<usize> = (0..spans.len())
        .filter(|&i| verdicts[i].is_none())
        .collect();
    lap(&mut stats.prune_ns, t_prune);

    // ---- phase 2: group undecided spans into worker tasks ----
    //
    // One batched storage call per task, not per span: fragmented runs
    // and small chunks amortize into a handful of round trips. The caps
    // bound a task's pinned-chunk working set.
    let pieces: Vec<Piece> = (undecided.iter())
        .map(|&i| Piece {
            span: (spans[i].1, spans[i].1 + spans[i].2),
            candidates: None,
        })
        .collect();
    // the filter as the program the kernels run, when it has no opaque
    // leaf — then its truth value per row IS the filter's — and compares
    // no text column (those compare as strings)
    let lowers = !plan.prune.has_opaque_leaf() && !prune_cols.iter().any(|c| cols.text.contains(c));
    let (program, columns) = match lowers {
        true => (&plan.prune, &prune_cols[..]),
        false => (&PruneExpr::Opaque, &[][..]),
    };
    let walk = Walk {
        ds,
        fetch: &cols.filter,
        text: &cols.text,
        columns,
        expr: filter,
        clock: |stats| &mut stats.decode_ns,
    };
    let sizes: Vec<u64> = pieces.iter().map(Piece::len).collect();
    let tasks = group_into_tasks(&sizes, stop_after.is_some());
    // one task's matching rows, ascending
    let scan = |t: usize, stats: &mut QueryStats| {
        let (mut kept, mut mask, mut spare) = (Vec::new(), Vec::new(), Vec::new());
        let kernel = |piece: &Piece, leaves: &[Leaf], kept: &mut Vec<u64>| {
            let (start, end) = piece.span;
            if let PruneExpr::Cmp { column, op, value } = program {
                let mut row = start;
                return find_leaf(leaves, column).compare(start, end, *op, *value, |keep| {
                    if keep {
                        kept.push(row);
                    }
                    row += 1;
                });
            }
            let ok = span_mask(program, leaves, start, end, &mut mask, &mut spare);
            if ok {
                let rows = (start..end).zip(&mask);
                kept.extend(rows.filter_map(|(row, &keep)| keep.then_some(row)));
            }
            ok
        };
        let truthy = |value: Value, row| value.truthy().then_some(row);
        walk.task(&pieces[tasks[t].clone()], stats, &mut kept, truthy, kernel)?;
        Ok(kept)
    };
    // each task's matching rows, ascending, for the tasks that ran
    let mut scanned: Vec<Vec<u64>> = Vec::with_capacity(tasks.len());
    match stop_after {
        None => scanned = map_tasks(workers, tasks.len(), stats, scan)?,
        Some(target) => {
            // Early-exit scan: tasks run in parallel waves that grow (1,
            // 2, 4, … up to `workers`), re-checking between waves whether
            // the decided contiguous prefix of spans already holds
            // `target` matching rows (later spans' rows would be
            // truncated by the window stage anyway). An early k-th match
            // fetches little past the frontier; a late or absent one
            // converges to the parallel full scan's batching and thread
            // usage.
            let mut kept: Vec<Option<u64>> = verdicts
                .iter()
                .zip(&spans)
                .map(|(v, &(_, _, len))| v.map(|all| if all { len } else { 0 }))
                .collect();
            let mut wave_len = 1;
            while scanned.len() < tasks.len() && kept.iter().map_while(|&k| k).sum::<u64>() < target
            {
                let wave = scanned.len()..(scanned.len() + wave_len).min(tasks.len());
                let rows = map_tasks(workers, wave.len(), stats, |w, stats| {
                    scan(wave.start + w, stats)
                })?;
                for (t, rows) in wave.zip(rows) {
                    let mut rest = &rows[..];
                    for &i in &undecided[tasks[t].clone()] {
                        let (_, start, len) = spans[i];
                        let count = rest.partition_point(|&r| r < start + len);
                        kept[i] = Some(count as u64);
                        rest = &rest[count..];
                    }
                    scanned.push(rows);
                }
                wave_len = (wave_len * 2).min(workers);
            }
        }
    }
    // spans ascend and are disjoint: walked in row order, each takes its
    // rows from where it was decided
    let mut scanned = scanned.into_iter().flatten().peekable();
    let mut rows = Vec::new();
    for (&(_, start, len), verdict) in spans.iter().zip(&verdicts) {
        match verdict {
            Some(true) => rows.extend(start..start + len),
            Some(false) => {}
            None => rows.extend(std::iter::from_fn(|| scanned.next_if(|&r| r < start + len))),
        }
    }
    Ok(rows)
}

/// A kernel column over one task's rows: its runs, as
/// [`task_runs`](super::walk::task_runs) resolved them.
pub(super) struct Leaf<'r> {
    pub column: &'r str,
    pub runs: Vec<(u64, ColumnRun<'r>)>,
}

impl Leaf<'_> {
    /// Compare rows `[start, end)` against `column <op> value` in place
    /// (`ColumnView::compare_rows`): `emit` gets one verdict per row, in
    /// order. `false` when a row lies in no run, or in a chunk without a
    /// scalar view — with the verdicts before it already emitted.
    pub(super) fn compare(
        &self,
        start: u64,
        end: u64,
        op: CmpOp,
        v: f64,
        emit: impl FnMut(bool),
    ) -> bool {
        // one monomorphic compare loop per operator
        match op {
            CmpOp::Eq => self.compare_with(start, end, move |a| a == v, emit),
            CmpOp::Ne => self.compare_with(start, end, move |a| a != v, emit),
            CmpOp::Lt => self.compare_with(start, end, move |a| a < v, emit),
            CmpOp::Le => self.compare_with(start, end, move |a| a <= v, emit),
            CmpOp::Gt => self.compare_with(start, end, move |a| a > v, emit),
            CmpOp::Ge => self.compare_with(start, end, move |a| a >= v, emit),
        }
    }

    fn compare_with(
        &self,
        start: u64,
        end: u64,
        keep: impl Fn(f64) -> bool + Copy,
        mut emit: impl FnMut(bool),
    ) -> bool {
        let (mut row, mut k) = (start, first_run(&self.runs, start));
        while row < end {
            let Some((run, at)) = seek(&self.runs, &mut k, row) else {
                return false;
            };
            let Some(view) = run.chunk().scalar_column() else {
                return false;
            };
            let to = end.min(at + run.len as u64);
            let from = run.first + (row - at) as usize;
            view.compare_rows(from..from + (to - row) as usize, keep, &mut emit);
            row = to;
        }
        true
    }
}

fn find_leaf<'l, 'r>(leaves: &'l [Leaf<'r>], column: &str) -> &'l Leaf<'r> {
    leaves
        .iter()
        .find(|leaf| leaf.column == column)
        .expect("a leaf per kernel column")
}

/// Evaluate a lowered filter over rows `[start, end)` column at a time:
/// each `Cmp` leaf compares its column's records in place
/// ([`Leaf::compare`]) into one `bool` per row in `mask`, and
/// `And`/`Or`/`Not` combine the masks — a right arm's in a buffer taken
/// from `spare` and put back after, so a task's spans reuse them.
///
/// `false` — evaluate the span row by row instead — unless every leaf's
/// column resolves `[start, end)` to decoded chunks that each yield a
/// scalar view: an undecoded chunk, a tiled row, a sample-compressed,
/// empty or multi-element record anywhere in a covering chunk all
/// refuse. On a span that passes, no row can raise (a scalar compare is
/// total; NaN compares false exactly as in the row evaluator), so
/// evaluating both arms of an `And`/`Or` instead of short-circuiting
/// changes nothing observable.
pub(super) fn span_mask(
    expr: &PruneExpr,
    leaves: &[Leaf<'_>],
    start: u64,
    end: u64,
    mask: &mut Vec<bool>,
    spare: &mut Vec<Vec<bool>>,
) -> bool {
    match expr {
        PruneExpr::Cmp { column, op, value } => {
            mask.clear();
            find_leaf(leaves, column).compare(start, end, *op, *value, |keep| mask.push(keep))
        }
        PruneExpr::And(l, r) | PruneExpr::Or(l, r) => {
            if !span_mask(l, leaves, start, end, mask, spare) {
                return false;
            }
            let mut right = spare.pop().unwrap_or_default();
            let ok = span_mask(r, leaves, start, end, &mut right, spare);
            let pairs = mask.iter_mut().zip(&right);
            if matches!(expr, PruneExpr::And(..)) {
                pairs.for_each(|(a, &b)| *a &= b);
            } else {
                pairs.for_each(|(a, &b)| *a |= b);
            }
            spare.push(right);
            ok
        }
        PruneExpr::Not(inner) => {
            let ok = span_mask(inner, leaves, start, end, mask, spare);
            mask.iter_mut().for_each(|a| *a = !*a);
            ok
        }
        PruneExpr::Opaque => false,
    }
}
