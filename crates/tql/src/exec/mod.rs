//! Query execution: a chunk-granular physical pipeline with statistics
//! pruning and columnar kernels.
//!
//! The embedded engine "runs along with the client" (§4.4) — no external
//! service. Execution consumes the physical [`Plan`] end to end:
//!
//! 1. **Filter** (`filter.rs`) — the row space is partitioned into
//!    chunk-aligned spans (one per run of the driving filter column's
//!    chunk encoder). Per span, the plan's [`PruneExpr`] is evaluated
//!    against per-chunk statistics *before any I/O*: a provably-empty span
//!    is skipped (pruned), a provably-full span passes whole, and the
//!    undecided remainder is grouped into worker tasks that fetch all
//!    their spans' chunks in one batched [`ReadPlan`] each (through
//!    [`Dataset::prefetch_spans`]), parse every chunk once, and evaluate
//!    the predicate over each span.
//! 2. **Order/Arrange** — sort keys evaluate in parallel over row
//!    blocks, each block prefetching the plan's sort columns in one
//!    batched call. `ORDER BY <similarity> LIMIT k` takes the physical
//!    top-k operator instead (`topk.rs`).
//! 3. **Window** then **Project** — projections evaluate over row blocks
//!    with the plan's project columns prefetched per block.
//!
//! A filter task and a top-k task are one walk (`walk.rs`, which also
//! says what a kernel decides and what the row evaluator of `eval.rs`
//! does): one batched fetch, one run lookup per column and contiguous
//! range, then each span or candidate group through the stage's kernel,
//! or row by row where the kernel refuses it.
//!
//! Every parallel stage runs its tasks through one scaffold
//! (`tasks.rs`) on [`QueryOptions::workers`] threads, the calling thread
//! counted among them: a stage of one task spawns nothing, and a panic in
//! a task is an error, whichever thread ran it. Each task counts its work
//! into a [`QueryStats`] of its own, and the stage sums them.
//!
//! `QueryOptions { pruning: false }` is the reference: a naive scan that
//! evaluates every row through the row evaluator alone — no statistics,
//! no batching, no top-k operator, no kernel. Results (indices, order,
//! rows, and errors) of the default path are identical to it on
//! readable datasets. The one caveat is inherent to pushdown: a span
//! decided from statistics alone is never fetched, so storage faults or
//! corrupt bytes *inside skipped chunks* go unnoticed where the naive
//! scan would have surfaced them. [`QueryResult::stats`] reports how
//! much work pruning saved.
//!
//! [`Dataset::prefetch_spans`]: deeplake_core::Dataset::prefetch_spans
//! [`ReadPlan`]: deeplake_storage::ReadPlan
//! [`PruneExpr`]: crate::plan::PruneExpr

mod eval;
mod filter;
mod tasks;
mod topk;
mod walk;

use std::cmp::Ordering;
use std::ops::AddAssign;
use std::time::Instant;

use deeplake_core::{Dataset, DatasetView, PrefetchedChunks};
use deeplake_tensor::Scalar;

use crate::ast::{Expr, Query, SortDir};
use crate::plan::{plan, Plan};
use crate::value::Value;
use crate::Result;

pub use eval::eval;
use eval::{eval_in, EvalCtx};
use tasks::map_tasks;

/// Execution options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryOptions {
    /// Threads a parallel stage runs on, the calling thread included:
    /// `workers: 2` spawns one helper, and a stage with a single task
    /// spawns none.
    pub workers: usize,
    /// Chunk-statistics predicate pushdown (on by default). Off forces
    /// the naive row-at-a-time full scan — kept as the reference
    /// implementation pruned execution must match exactly. Also gates
    /// the physical top-k similarity operator, the `LIMIT`
    /// short-circuit and the columnar kernels, so `pruning: false` is
    /// *the* naive reference for every optimized path.
    pub pruning: bool,
    /// Approximate nearest-neighbor execution for top-k similarity
    /// queries (off by default). On, the executor probes the column's
    /// IVF vector index for candidate rows and exact-re-ranks only
    /// those; recall is governed by `nprobe`. Silently falls back to
    /// the exact flat scan when no valid index exists (never built,
    /// invalidated by updates, dimension mismatch, or a dataset written
    /// before the index key family existed) and when the sort direction
    /// asks for the *farthest* rows, which an index probe cannot answer.
    pub ann: bool,
    /// Clusters to probe per ANN query; higher = better recall, more
    /// chunks fetched. `nprobe >= nlist` degrades to the exact scan's
    /// candidate set.
    pub nprobe: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            workers: 4,
            pruning: true,
            ann: false,
            nprobe: 4,
        }
    }
}

/// How much work the filter stage did vs. skipped, plus the batched
/// storage calls the whole query issued.
///
/// The `chunks_*` counters count **chunk-aligned spans** of the driving
/// filter column — runs of its chunk encoder. On a sequentially written
/// tensor spans and chunks coincide; after in-place updates one chunk
/// may back several spans, and a scanned span of a multi-column filter
/// may fetch one chunk per referenced column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Spans fetched, decoded and evaluated (by kernel or row by row).
    pub chunks_scanned: u64,
    /// Spans skipped because statistics prove no row can match.
    pub chunks_pruned: u64,
    /// Spans accepted whole because statistics prove every row matches
    /// (no fetch, no decode).
    pub chunks_matched: u64,
    /// Batched storage calls ([`deeplake_storage::ReadPlan`] executions)
    /// issued across all stages — undecided spans share one call per
    /// worker task, and spans served from already-decoded chunks cost
    /// none.
    pub round_trips: u64,
    /// IVF clusters probed by the top-k similarity operator (0 unless an
    /// ANN query actually used an index).
    pub clusters_probed: u64,
    /// Candidate rows the top-k operator exact-re-ranked — every row for
    /// the flat path, the probed clusters' union (plus any unindexed
    /// tail) for ANN.
    pub candidates_reranked: u64,
    /// Rows decided by a columnar kernel instead of the row evaluator:
    /// rows of scanned filter spans evaluated as bitmaps plus top-k
    /// candidates scored straight from chunk bytes.
    pub rows_vectorized: u64,
    /// Wall-clock nanoseconds deciding spans from chunk statistics alone
    /// (the no-I/O pruning phase). Single-threaded, so this is elapsed
    /// time.
    pub prune_ns: u64,
    /// Wall-clock nanoseconds inside the storage provider for the
    /// batched chunk fetches of all stages — I/O wait only — **summed
    /// over worker threads**: under parallelism this can exceed the
    /// query's elapsed time. A serving tier attributes a query's storage
    /// time from it.
    pub fetch_ns: u64,
    /// Wall-clock nanoseconds planning those fetches, parsing the
    /// fetched chunks and evaluating expressions over them (kernels and
    /// row evaluator alike), summed over worker threads. The naive
    /// (pruning-off) scan folds its unbatched fetches in here too.
    pub decode_ns: u64,
    /// Wall-clock nanoseconds the top-k operator spent scoring
    /// candidates and merging per-task survivors, summed over worker
    /// threads.
    pub rerank_ns: u64,
}

/// Field by field: how a stage folds its tasks' counts into the query's.
impl AddAssign for QueryStats {
    fn add_assign(&mut self, other: QueryStats) {
        self.chunks_scanned += other.chunks_scanned;
        self.chunks_pruned += other.chunks_pruned;
        self.chunks_matched += other.chunks_matched;
        self.round_trips += other.round_trips;
        self.clusters_probed += other.clusters_probed;
        self.candidates_reranked += other.candidates_reranked;
        self.rows_vectorized += other.rows_vectorized;
        self.prune_ns += other.prune_ns;
        self.fetch_ns += other.fetch_ns;
        self.decode_ns += other.decode_ns;
        self.rerank_ns += other.rerank_ns;
    }
}

impl QueryStats {
    /// One batched fetch ([`Dataset::prefetch_chunks`] or
    /// [`Dataset::prefetch_spans`]), accounted: the storage call's own
    /// time into `fetch_ns`, the rest of the prefetch (planning, chunk
    /// parsing) into `decode_ns`.
    fn prefetch(
        &mut self,
        fetch: impl FnOnce() -> deeplake_core::Result<PrefetchedChunks>,
    ) -> deeplake_core::Result<PrefetchedChunks> {
        let t = Instant::now();
        let prefetched = fetch()?;
        let elapsed = t.elapsed().as_nanos() as u64;
        let io = prefetched.fetch_ns().min(elapsed);
        self.fetch_ns += io;
        self.decode_ns += elapsed - io;
        self.round_trips += prefetched.round_trips();
        Ok(prefetched)
    }
}

/// Fold the time elapsed since `since` into a stage-nanos counter.
fn lap(ns: &mut u64, since: Instant) {
    *ns += since.elapsed().as_nanos() as u64;
}

/// The result of executing a query.
pub struct QueryResult {
    /// Row indices into the (possibly version-reopened) source dataset,
    /// in result order.
    pub indices: Vec<u64>,
    /// Output column names (empty for `SELECT *`).
    pub columns: Vec<String>,
    /// Materialized projection values per result row (None for
    /// `SELECT *`, which stays lazy as a view).
    pub rows: Option<Vec<Vec<Value>>>,
    /// When the query ran `AT VERSION`, the reopened read-only dataset the
    /// indices refer to.
    pub dataset: Option<Dataset>,
    /// Head node id of the dataset the indices refer to when that is
    /// *not* the handle the query was issued against (`AT VERSION`
    /// queries). Serializable where `dataset` is not — a query-offload
    /// client uses it to reopen the right version remotely.
    pub version: Option<String>,
    /// Pruning and I/O counters for this execution.
    pub stats: QueryStats,
}

impl std::fmt::Debug for QueryResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryResult")
            .field("indices", &self.indices)
            .field("columns", &self.columns)
            .field("rows", &self.rows)
            .field(
                "dataset",
                &self.dataset.as_ref().map(|d| d.name().to_string()),
            )
            .field("version", &self.version)
            .field("stats", &self.stats)
            .finish()
    }
}

impl QueryResult {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Build a streamable view over the result, bound to the dataset the
    /// query was executed against. For `AT VERSION` queries use
    /// [`QueryResult::view_versioned`] instead — the indices refer to the
    /// reopened historical dataset, not the caller's handle.
    pub fn view<'d>(&self, ds: &'d Dataset) -> DatasetView<'d> {
        DatasetView::new(ds, self.indices.clone())
    }

    /// View over the owned `AT VERSION` dataset, when present.
    pub fn view_versioned(&self) -> Option<DatasetView<'_>> {
        self.dataset
            .as_ref()
            .map(|ds| DatasetView::new(ds, self.indices.clone()))
    }
}

/// The plan's per-stage column sets as the slices the batched fetches
/// take, plus which of the referenced columns are text — resolved once
/// per query, not per stage, block or row.
struct Columns {
    filter: Vec<String>,
    sort: Vec<String>,
    project: Vec<String>,
    /// Referenced columns of [`Htype::Text`](deeplake_tensor::Htype::Text):
    /// they evaluate as strings, never as tensors.
    text: Vec<String>,
}

impl Columns {
    fn resolve(ds: &Dataset, plan: &Plan) -> Self {
        let text = plan
            .filter_columns
            .iter()
            .chain(&plan.sort_columns)
            .chain(&plan.project_columns)
            .filter(|c| is_text(ds, c))
            .cloned()
            .collect();
        Columns {
            filter: plan.filter_columns.iter().cloned().collect(),
            sort: plan.sort_columns.iter().cloned().collect(),
            project: plan.project_columns.iter().cloned().collect(),
            text,
        }
    }
}

fn is_text(ds: &Dataset, column: &str) -> bool {
    ds.tensor_meta(column)
        .is_ok_and(|meta| matches!(meta.htype.base(), deeplake_tensor::Htype::Text))
}

/// Execute a parsed query against a dataset.
pub fn execute(ds: &Dataset, query: &Query, opts: &QueryOptions) -> Result<QueryResult> {
    // AT VERSION: reopen at the requested ref and run there (§4.4), on
    // the same parsed chunks
    if let Some(version) = &query.version {
        let reopened = Dataset::open_shared(ds.provider(), version, ds.chunk_cache().clone())?;
        let mut stripped = query.clone();
        stripped.version = None;
        let mut result = execute(&reopened, &stripped, opts)?;
        result.version = Some(reopened.head_id().to_string());
        result.dataset = Some(reopened);
        return Ok(result);
    }

    let plan = plan(query);
    let cols = Columns::resolve(ds, &plan);
    let n = ds.len();
    let workers = opts.workers.max(1);
    let mut stats = QueryStats::default();

    // -------- physical top-k similarity operator --------
    //
    // `ORDER BY <similarity>(col, [..]) LIMIT k` (no filter/arrange)
    // bypasses the generic sort: candidates (index-probed under `ann`,
    // every row otherwise) are scored in chunk-span tasks with one
    // batched fetch each — straight from the chunk bytes where the
    // column view allows, through the row evaluator otherwise — and
    // only the best `LIMIT + OFFSET` survive. Gated on `pruning` so
    // `pruning: false` stays the byte-identical naive reference; an
    // unknown column falls through so the generic path reports the
    // error exactly as before.
    let top_k = plan
        .top_k
        .as_ref()
        .filter(|tk| opts.pruning && ds.tensor_meta(&tk.column).is_ok());

    let mut selected: Vec<u64>;
    if let Some(tk) = top_k {
        let (key_expr, dir) = query.order_by.as_ref().expect("top-k implies ORDER BY");
        selected = topk::topk_stage(ds, key_expr, *dir, tk, &cols, opts, &mut stats)?;
    } else {
        // -------- filter stage (parallel, chunk-granular) --------
        // `LIMIT k` with no ORDER BY / ARRANGE BY lets the span scan
        // stop at the k-th match instead of scanning everything
        let unordered = query.order_by.is_none() && query.arrange_by.is_none();
        let stop_after = (query.limit.filter(|_| unordered && opts.pruning))
            .map(|l| l.saturating_add(query.offset.unwrap_or(0)));
        selected = match &query.filter {
            None => (0..n).collect(),
            Some(filter) => {
                filter::filter_stage(ds, filter, &plan, &cols, opts, stop_after, &mut stats)?
            }
        };

        // -------- order stage --------
        if let Some((key_expr, dir)) = &query.order_by {
            let keys = eval_keys(ds, &selected, workers, key_expr, &cols, &mut stats)?;
            selected = sorted_rows(keys.into_iter().zip(selected).collect(), *dir);
        }

        // -------- arrange stage --------
        if let Some(key_expr) = &query.arrange_by {
            let keys = eval_keys(ds, &selected, workers, key_expr, &cols, &mut stats)?;
            selected = arrange(&keys, &selected);
        }
    }

    // -------- window stage --------
    let offset = query.offset.unwrap_or(0) as usize;
    if offset > 0 {
        selected = selected.split_off(offset.min(selected.len()));
    }
    if let Some(limit) = query.limit {
        selected.truncate(limit as usize);
    }

    // -------- projection stage (block-prefetched, on the caller) --------
    let (columns, rows) = if query.select_all {
        (Vec::new(), None)
    } else {
        let columns: Vec<String> = query.projections.iter().map(|p| p.name.clone()).collect();
        let blocks = selected.chunks(256);
        let rows = map_blocks(
            ds,
            blocks,
            &cols.project,
            &cols.text,
            1,
            &mut stats,
            |ctx, row| {
                let values = query.projections.iter().map(|p| eval_in(ctx, &p.expr, row));
                values.collect::<Result<Vec<Value>>>()
            },
        )?;
        (columns, Some(rows))
    };

    Ok(QueryResult {
        indices: selected,
        columns,
        rows,
        dataset: None,
        version: None,
        stats,
    })
}

/// Evaluate a key expression for each row in `rows` (parallel, preserving
/// order) over blocks of 64 rows.
fn eval_keys(
    ds: &Dataset,
    rows: &[u64],
    workers: usize,
    key: &Expr,
    cols: &Columns,
    stats: &mut QueryStats,
) -> Result<Vec<Scalar>> {
    let blocks = rows.chunks(64);
    map_blocks(
        ds,
        blocks,
        &cols.sort,
        &cols.text,
        workers,
        stats,
        |ctx, row| Ok(eval_in(ctx, key, row)?.to_scalar()),
    )
}

/// `f` for each row of `blocks`, in order — the key and projection
/// stages: one task per block on `workers` threads, each prefetching
/// `fetch` for its rows in one batched call, the evaluation (not the
/// fetch) lapped into `decode_ns`.
fn map_blocks<'r, T: Send>(
    ds: &Dataset,
    blocks: impl Iterator<Item = &'r [u64]>,
    fetch: &[String],
    text: &[String],
    workers: usize,
    stats: &mut QueryStats,
    f: impl Fn(&EvalCtx<'_>, u64) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let blocks: Vec<&[u64]> = blocks.collect();
    let values = map_tasks(workers, blocks.len(), stats, |b, stats| {
        let prefetched = stats.prefetch(|| ds.prefetch_chunks(fetch, blocks[b]))?;
        let ctx = EvalCtx {
            ds,
            pinned: &prefetched,
            text,
        };
        let t = Instant::now();
        let values = blocks[b]
            .iter()
            .map(|&row| f(&ctx, row))
            .collect::<Result<Vec<T>>>();
        lap(&mut stats.decode_ns, t);
        values
    })?;
    Ok(values.into_iter().flatten().collect())
}

/// The rows of `(key, row)` pairs (in row order) as the sort stage
/// orders them: a stable ascending sort by key, the whole list reversed
/// for DESC. The top-k operator orders its survivors by it too.
fn sorted_rows(mut paired: Vec<(Scalar, u64)>, dir: SortDir) -> Vec<u64> {
    paired.sort_by(|a, b| a.0.order_cmp(&b.0));
    if dir == SortDir::Desc {
        paired.reverse();
    }
    paired.into_iter().map(|(_, row)| row).collect()
}

/// The arrange stage: `rows` grouped by their `keys`, groups in order of
/// first appearance and rows in their order within each (Fig. 5's
/// `ARRANGE BY labels`). A stable sort of positions by key puts each
/// group's rows together in order, then the groups sort by their first
/// position: O(n log n), with the groups a first-fit scan would find
/// because [`Scalar::order_cmp`] is a total preorder.
fn arrange(keys: &[Scalar], rows: &[u64]) -> Vec<u64> {
    let mut by_key: Vec<usize> = (0..keys.len()).collect();
    by_key.sort_by(|&a, &b| keys[a].order_cmp(&keys[b]));
    let same = |&a: &usize, &b: &usize| keys[a].order_cmp(&keys[b]) == Ordering::Equal;
    let mut groups: Vec<&[usize]> = by_key.chunk_by(same).collect();
    groups.sort_unstable_by_key(|group| group[0]);
    groups.concat().into_iter().map(|i| rows[i]).collect()
}

#[cfg(test)]
mod tests;
