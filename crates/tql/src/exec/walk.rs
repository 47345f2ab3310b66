//! The walk of one task — a filter task's spans or a top-k task's
//! candidate groups — written once, and the rule of what evaluates how.
//!
//! # What evaluates how
//!
//! Two evaluators produce the same values. The **row evaluator**
//! ([`eval`](super::eval)) builds one `Sample` per referenced column per
//! row and walks the expression tree; it handles every expression and is
//! where every error message comes from. The **kernels** never build a
//! `Sample` and fill no buffer of decoded values: they borrow a parsed
//! chunk as a fixed-width column ([`deeplake_core::Chunk::scalar_column`]
//! / `vector_at`) and read each record in place through
//! [`ColumnView`](deeplake_core::ColumnView), with the conversion
//! `Sample::get_f64` uses. A task finds its rows' records once: each
//! column's runs are looked up once per contiguous row range of the task
//! ([`task_runs`]), and a cursor ([`first_run`], [`seek`]) walks rows and
//! runs together. Two operators have kernels:
//!
//! * **Scanned filter spans** (`filter.rs`) — when the filter lowers to a
//!   [`PruneExpr`](crate::plan::PruneExpr) with no `Opaque` leaf
//!   (conjunctions, disjunctions and negations of `column <op> number`,
//!   and `CONTAINS(column, number)`) and compares no text column, each
//!   leaf compares its column's records in place
//!   (`ColumnView::compare_rows`). A lone `column <op> number` pushes the
//!   matching row ids straight out; otherwise each leaf fills a mask and
//!   `And`/`Or`/`Not` combine the masks (`span_mask`), in buffers the
//!   task's spans reuse.
//! * **Top-k candidate scoring** (`topk.rs`, `score_group`) — each span's
//!   candidates are scored from the payload bytes with the arithmetic of
//!   the `Metric::score(column vector, query literal)` call the
//!   similarity functions make, in the same order
//!   (`ColumnView::score_row`; the query's norm is summed once per
//!   query). Only the candidates' own records are checked and read
//!   ([`deeplake_core::Chunk::vector_at`], O(1) a record), so a group of
//!   ~10 ANN candidates costs ~10 record checks, not one per record of
//!   its chunk. Each task keeps its best `LIMIT + OFFSET` by selection
//!   under the final order, not by sorting.
//!
//! A kernel takes a span (filter) or a span's candidate group (top-k)
//! only where no row of it *can* raise, and otherwise hands exactly that
//! span or group to the row evaluator, which reports what it always
//! reported:
//!
//! * every referenced column must resolve the rows to already-decoded
//!   chunks (each leaf by its own column's runs — after `update()` they
//!   need not line up with the driving column's), none of the rows
//!   tiled; rows still in the open chunk qualify through the builder's
//!   chunk. A task range that does not resolve is looked up again span
//!   by span (candidate group by group), so one tiled row or undecoded
//!   chunk costs only the spans holding it;
//! * each record the kernel reads must be one uncompressed frame of the
//!   expected length. A filter column reads every record of each such
//!   chunk, one element each: a sample-compressed blob, an empty tensor
//!   or a multi-element sample anywhere in the chunk refuses the whole
//!   chunk. The top-k kernel reads only the candidates' records, each
//!   of rank 1 and exactly the query vector's length: one refused
//!   candidate sends its whole group to the row evaluator, and a record
//!   that is not a candidate is never looked at;
//! * text columns never qualify (their rows compare as strings).
//!
//! On a span that qualifies a compare is total (NaN compares false, as
//! in the row evaluator), so evaluating both arms of an `AND` where the
//! row evaluator would short-circuit is unobservable; scores are the
//! same bits, so ties and the stable-sort/reverse merge are unchanged.
//! [`QueryStats::rows_vectorized`] counts the rows kernels decided.

use std::time::Instant;

use deeplake_core::{ColumnRun, Dataset, PrefetchedChunks};

use super::eval::{eval_in, EvalCtx};
use super::filter::Leaf;
use super::{lap, QueryStats};
use crate::ast::Expr;
use crate::value::Value;
use crate::Result;

/// The unit a kernel decides: a scanned filter span (every row of
/// `span`), or a top-k candidate group (its `candidates`, inside `span`).
pub(super) struct Piece<'a> {
    /// The chunk span the piece lies in, `[start, end)`.
    pub span: (u64, u64),
    /// The rows to decide, ascending, when they are not all of `span`.
    pub candidates: Option<&'a [u64]>,
}

impl Piece<'_> {
    /// The `[start, end)` range the piece's rows lie in.
    fn range(&self) -> (u64, u64) {
        match self.candidates {
            Some(rows) => (rows[0], rows[rows.len() - 1] + 1),
            None => self.span,
        }
    }

    /// The piece's rows, ascending.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (all, some) = match self.candidates {
            None => (self.span.0..self.span.1, &[][..]),
            Some(rows) => (0..0, rows),
        };
        all.chain(some.iter().copied())
    }

    /// How many rows the piece decides.
    pub fn len(&self) -> u64 {
        self.candidates
            .map_or(self.span.1 - self.span.0, |rows| rows.len() as u64)
    }
}

/// What every task of one stage walks with.
pub(super) struct Walk<'a> {
    pub ds: &'a Dataset,
    /// The columns a task fetches.
    pub fetch: &'a [String],
    /// The query's text columns (`Columns::text`).
    pub text: &'a [String],
    /// The columns whose runs the kernel reads, as the [`Leaf`]s it is
    /// handed in this order.
    pub columns: &'a [String],
    /// What the row evaluator evaluates for a row the kernel refused.
    pub expr: &'a Expr,
    /// The stage clock a task's walk is lapped into.
    pub clock: fn(&mut QueryStats) -> &mut u64,
}

impl<'a> Walk<'a> {
    /// Walk one task's pieces (ascending, disjoint): fetch every chunk
    /// their rows need in one batched call ([`Dataset::prefetch_spans`]),
    /// look each kernel column's runs up once per contiguous range of the
    /// pieces' spans ([`task_runs`]), then hand each piece to `kernel`.
    /// Where the kernel refuses a piece (`false`), what it pushed to
    /// `out` is dropped and every row of the piece goes through the row
    /// evaluator instead, `keep` turning each value into what `out`
    /// collects. Counts the
    /// pieces as `chunks_scanned` and the kernel's rows as
    /// `rows_vectorized`, and laps the evaluation into the stage clock.
    pub fn task<T>(
        &self,
        pieces: &[Piece<'_>],
        stats: &mut QueryStats,
        out: &mut Vec<T>,
        keep: impl Fn(Value, u64) -> Option<T>,
        mut kernel: impl FnMut(&Piece<'_>, &[Leaf<'a>], &mut Vec<T>) -> bool,
    ) -> Result<()> {
        let ds = self.ds;
        let rows: Vec<(u64, u64)> = pieces.iter().map(Piece::range).collect();
        let ranges = contiguous(rows.iter().copied());
        let prefetched = stats.prefetch(|| ds.prefetch_spans(self.fetch, &ranges))?;
        stats.chunks_scanned += pieces.len() as u64;
        let ctx = EvalCtx {
            ds,
            pinned: &prefetched,
            text: self.text,
        };
        let t = Instant::now();
        let spans = contiguous(pieces.iter().map(|piece| piece.span));
        let leaves: Vec<Leaf<'a>> = (self.columns.iter())
            .map(|c| Leaf {
                column: c,
                runs: task_runs(ds, &prefetched, c, &spans, &rows),
            })
            .collect();
        let mut vectorized = 0;
        for piece in pieces {
            let before = out.len();
            if kernel(piece, &leaves, out) {
                vectorized += piece.len();
                continue;
            }
            out.truncate(before);
            for row in piece.iter() {
                out.extend(keep(eval_in(&ctx, self.expr, row)?, row));
            }
        }
        stats.rows_vectorized += vectorized;
        lap((self.clock)(stats), t);
        Ok(())
    }
}

/// A column's chunk spans clamped to the dataset's `n` rows, with any
/// shortfall covered by an unprunable tail span (defensive; tensors
/// normally align exactly) — the span skeleton both walking stages cut
/// their pieces from.
pub(super) fn clamped_spans(
    ds: &Dataset,
    column: &str,
    n: u64,
) -> Result<Vec<(Option<u64>, u64, u64)>> {
    let mut spans = ds.chunk_spans(column)?;
    spans.retain(|&(_, start, _)| start < n);
    spans.iter_mut().for_each(|s| s.2 = s.2.min(n - s.1));
    let covered: u64 = spans.iter().map(|&(_, _, len)| len).sum();
    if covered < n {
        spans.push((None, covered, n - covered));
    }
    Ok(spans)
}

/// Ascending, disjoint `[start, end)` row ranges with the adjacent ones
/// merged.
pub(super) fn contiguous(ranges: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (start, end) in ranges {
        match out.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => out.push((start, end)),
        }
    }
    out
}

/// `column`'s rows over one task as runs inside decoded chunks, in row
/// order, each with the row it starts at: one
/// [`PrefetchedChunks::column_runs`] lookup per contiguous range of the
/// task. A range that does not resolve (a chunk not decoded, a tiled
/// row) is looked up again piece by piece — `pieces` are the task's own
/// units (spans, or candidate groups), ascending, each inside one range
/// — exactly as a lookup per piece would have been; a piece that does
/// not resolve either is left out, so a kernel sent there finds no run.
pub(super) fn task_runs<'d>(
    ds: &'d Dataset,
    pinned: &PrefetchedChunks,
    column: &str,
    ranges: &[(u64, u64)],
    pieces: &[(u64, u64)],
) -> Vec<(u64, ColumnRun<'d>)> {
    let mut out = Vec::new();
    let mut push = |mut at: u64, runs: Vec<ColumnRun<'d>>| {
        for run in runs {
            let len = run.len as u64;
            out.push((at, run));
            at += len;
        }
    };
    let mut p = 0;
    for &(start, end) in ranges {
        let from = p;
        while p < pieces.len() && pieces[p].1 <= end {
            p += 1;
        }
        match pinned.column_runs(ds, column, start, end) {
            Some(runs) => push(start, runs),
            None => {
                for &(start, end) in &pieces[from..p] {
                    if let Some(runs) = pinned.column_runs(ds, column, start, end) {
                        push(start, runs);
                    }
                }
            }
        }
    }
    out
}

/// Where a walk of `runs` (ascending, each with its first row) that
/// starts at `row` begins.
pub(super) fn first_run(runs: &[(u64, ColumnRun<'_>)], row: u64) -> usize {
    runs.partition_point(|(at, run)| at + run.len as u64 <= row)
}

/// Advance the walk `k` over `runs` to the run holding `row` (rows
/// ascend from one call to the next), and return that run with its first
/// row: `None` when no run holds `row`.
pub(super) fn seek<'a, 'r>(
    runs: &'a [(u64, ColumnRun<'r>)],
    k: &mut usize,
    row: u64,
) -> Option<(&'a ColumnRun<'r>, u64)> {
    while runs
        .get(*k)
        .is_some_and(|(at, run)| at + run.len as u64 <= row)
    {
        *k += 1;
    }
    let (at, run) = runs.get(*k).filter(|(at, _)| *at <= row)?;
    Some((run, *at))
}
