//! Query execution: a chunk-granular physical pipeline with statistics
//! pruning and columnar kernels.
//!
//! The embedded engine "runs along with the client" (§4.4) — no external
//! service. Execution consumes the physical [`Plan`] end to end:
//!
//! 1. **Filter** — the row space is partitioned into chunk-aligned spans
//!    (one per run of the driving filter column's chunk encoder). Per
//!    span, the plan's [`PruneExpr`] is evaluated against per-chunk
//!    statistics *before any I/O*: a provably-empty span is skipped
//!    (pruned), a provably-full span passes whole, and the undecided
//!    remainder is grouped into worker tasks that fetch all their spans'
//!    chunks in one batched [`ReadPlan`] each (through
//!    [`Dataset::prefetch_spans`]), parse every chunk once, and
//!    evaluate the predicate over each span.
//! 2. **Order/Arrange** — sort keys evaluate in parallel over row
//!    blocks, each block prefetching the plan's sort columns in one
//!    batched call. `ORDER BY <similarity> LIMIT k` takes the physical
//!    top-k operator instead (`topk_stage`).
//! 3. **Window** then **Project** — projections evaluate over row blocks
//!    with the plan's project columns prefetched per block.
//!
//! # What evaluates how
//!
//! Two evaluators produce the same values. The **row evaluator**
//! ([`eval`]) builds one `Sample` per referenced column per row and
//! walks the expression tree; it handles every expression and is where
//! every error message comes from. The **kernels** never build a
//! `Sample` and fill no buffer of decoded values: they borrow a parsed
//! chunk as a fixed-width column ([`deeplake_core::Chunk::scalar_column`]
//! / `vector_at`) and read each record in place through
//! [`ColumnView`], with the conversion `Sample::get_f64` uses. A task
//! finds its rows' records once: each column's runs are looked up once
//! per contiguous row range of the task (`task_runs`), and a cursor walks
//! rows and runs together. Two operators have kernels:
//!
//! * **Scanned filter spans** (`SpanScan::task`) — when the filter
//!   lowers to a [`PruneExpr`] with no `Opaque` leaf (conjunctions,
//!   disjunctions and negations of `column <op> number`, and
//!   `CONTAINS(column, number)`) and compares no text column, each leaf
//!   compares its column's records in place
//!   ([`ColumnView::compare_rows`]). A lone `column <op> number` pushes
//!   the matching row ids straight out; otherwise each leaf fills a mask
//!   and `And`/`Or`/`Not` combine the masks (`span_mask`), in buffers the
//!   task's spans reuse.
//! * **Top-k candidate scoring** (`score_group`) — each span's
//!   candidates are scored from the payload bytes with the arithmetic of
//!   the `Metric::score(column vector, query literal)` call the
//!   similarity functions make, in the same order
//!   ([`ColumnView::score_row`]; the query's norm is summed once per
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
//!
//! Every parallel stage runs its tasks through one scaffold
//! (`run_tasks`) on [`QueryOptions::workers`] threads, the calling
//! thread counted among them: a stage of one task spawns nothing, and a
//! panic in a task is an error, whichever thread ran it.
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

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use deeplake_core::tensor_store::TensorStore;
use deeplake_core::{ColumnRun, ColumnView, Dataset, DatasetView, PrefetchedChunks, VectorQuery};
use deeplake_tensor::ops::slice_sample;
use deeplake_tensor::Scalar;
use parking_lot::Mutex;

use crate::ast::{BinOp, Expr, Query, SortDir};
use crate::error::TqlError;
use crate::functions;
use crate::plan::{plan, CmpOp, Plan, PruneExpr, TopKPlan};
use crate::value::Value;
use crate::Result;

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

/// Shared mutable counters while a query runs.
#[derive(Default)]
struct StatsAcc {
    chunks_scanned: AtomicU64,
    chunks_pruned: AtomicU64,
    chunks_matched: AtomicU64,
    round_trips: AtomicU64,
    clusters_probed: AtomicU64,
    candidates_reranked: AtomicU64,
    rows_vectorized: AtomicU64,
    prune_ns: AtomicU64,
    fetch_ns: AtomicU64,
    decode_ns: AtomicU64,
    rerank_ns: AtomicU64,
}

impl StatsAcc {
    /// Fold the time elapsed since `since` into a stage-nanos counter.
    fn lap(dst: &AtomicU64, since: Instant) {
        dst.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// One task's batched fetch ([`Dataset::prefetch_chunks`] or
    /// [`Dataset::prefetch_spans`]), accounted: the storage call's own
    /// time into `fetch_ns`, the rest of the prefetch (planning, chunk
    /// parsing) into `decode_ns`.
    fn prefetch(
        &self,
        fetch: impl FnOnce() -> deeplake_core::Result<PrefetchedChunks>,
    ) -> deeplake_core::Result<PrefetchedChunks> {
        let t = Instant::now();
        let prefetched = fetch()?;
        let elapsed = t.elapsed().as_nanos() as u64;
        let io = prefetched.fetch_ns().min(elapsed);
        self.fetch_ns.fetch_add(io, Ordering::Relaxed);
        self.decode_ns.fetch_add(elapsed - io, Ordering::Relaxed);
        self.round_trips
            .fetch_add(prefetched.round_trips(), Ordering::Relaxed);
        Ok(prefetched)
    }

    fn snapshot(&self) -> QueryStats {
        QueryStats {
            chunks_scanned: self.chunks_scanned.load(Ordering::Relaxed),
            chunks_pruned: self.chunks_pruned.load(Ordering::Relaxed),
            chunks_matched: self.chunks_matched.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            clusters_probed: self.clusters_probed.load(Ordering::Relaxed),
            candidates_reranked: self.candidates_reranked.load(Ordering::Relaxed),
            rows_vectorized: self.rows_vectorized.load(Ordering::Relaxed),
            prune_ns: self.prune_ns.load(Ordering::Relaxed),
            fetch_ns: self.fetch_ns.load(Ordering::Relaxed),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            rerank_ns: self.rerank_ns.load(Ordering::Relaxed),
        }
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

/// Evaluation context: the dataset plus whatever chunks the current task
/// prefetched — the empty set on the naive path and for a lone
/// [`eval`]. Rows assemble from pinned chunks when possible and fall
/// back to the dataset's single-key path otherwise, so error semantics
/// match [`Dataset::get`] exactly.
struct EvalCtx<'a> {
    ds: &'a Dataset,
    pinned: &'a PrefetchedChunks,
    /// The query's text columns (see [`Columns::text`]).
    text: &'a [String],
}

impl EvalCtx<'_> {
    fn get(&self, tensor: &str, row: u64) -> deeplake_core::Result<deeplake_tensor::Sample> {
        self.pinned.get(self.ds, tensor, row)
    }
}

/// Execute a parsed query against a dataset.
pub fn execute(ds: &Dataset, query: &Query, opts: &QueryOptions) -> Result<QueryResult> {
    // AT VERSION: reopen at the requested ref and run there (§4.4)
    if let Some(version) = &query.version {
        let reopened = Dataset::open_at(ds.provider(), version)?;
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
    let stats = StatsAcc::default();

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
        selected = topk_stage(ds, key_expr, *dir, tk, &cols, opts, workers, &stats)?;
    } else {
        // -------- filter stage (parallel, chunk-granular) --------
        // `LIMIT k` with no ORDER BY / ARRANGE BY lets the span scan
        // stop at the k-th match instead of scanning everything
        let stop_after = if query.order_by.is_none() && query.arrange_by.is_none() && opts.pruning {
            query
                .limit
                .map(|l| l.saturating_add(query.offset.unwrap_or(0)))
        } else {
            None
        };
        selected = match &query.filter {
            None => (0..n).collect(),
            Some(filter) => filter_stage(
                ds,
                filter,
                &plan,
                &cols,
                n,
                workers,
                opts.pruning,
                stop_after,
                &stats,
            )?,
        };

        // -------- order stage --------
        if let Some((key_expr, dir)) = &query.order_by {
            let keys = eval_keys(ds, &selected, workers, key_expr, &cols, &stats)?;
            let mut paired: Vec<(Scalar, u64)> =
                keys.into_iter().zip(selected.iter().copied()).collect();
            paired.sort_by(|a, b| a.0.order_cmp(&b.0));
            if *dir == SortDir::Desc {
                paired.reverse();
            }
            selected = paired.into_iter().map(|(_, r)| r).collect();
        }

        // -------- arrange stage: group rows by key, groups ordered by
        // first appearance (Fig. 5's ARRANGE BY labels) --------
        if let Some(key_expr) = &query.arrange_by {
            let keys = eval_keys(ds, &selected, workers, key_expr, &cols, &stats)?;
            let mut groups: Vec<(Scalar, Vec<u64>)> = Vec::new();
            for (key, row) in keys.into_iter().zip(selected.iter().copied()) {
                match groups
                    .iter_mut()
                    .find(|(k, _)| k.order_cmp(&key) == std::cmp::Ordering::Equal)
                {
                    Some((_, bucket)) => bucket.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            selected = groups.into_iter().flat_map(|(_, rows)| rows).collect();
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

    // -------- projection stage (block-prefetched) --------
    let (columns, rows) = if query.select_all {
        (Vec::new(), None)
    } else {
        let columns: Vec<String> = query.projections.iter().map(|p| p.name.clone()).collect();
        let mut out = Vec::with_capacity(selected.len());
        const BLOCK: usize = 256;
        for block in selected.chunks(BLOCK.max(1)) {
            let prefetched = stats.prefetch(|| ds.prefetch_chunks(&cols.project, block))?;
            let ctx = EvalCtx {
                ds,
                pinned: &prefetched,
                text: &cols.text,
            };
            let t = Instant::now();
            for &row in block {
                let mut values = Vec::with_capacity(query.projections.len());
                for p in &query.projections {
                    values.push(eval_in(&ctx, &p.expr, row)?);
                }
                out.push(values);
            }
            StatsAcc::lap(&stats.decode_ns, t);
        }
        (columns, Some(out))
    };

    Ok(QueryResult {
        indices: selected,
        columns,
        rows,
        dataset: None,
        version: None,
        stats: stats.snapshot(),
    })
}

/// The filter stage. Two phases:
///
/// 1. every chunk-aligned span is decided from statistics alone (no
///    I/O): pruned, matched whole, or left undecided;
/// 2. undecided spans are grouped into worker tasks, each task fetching
///    *all* its spans' chunks through one batched call, decoding each
///    chunk once, and evaluating the predicate across its rows (see
///    [`SpanScan::task`]).
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
#[allow(clippy::too_many_arguments)]
fn filter_stage(
    ds: &Dataset,
    filter: &Expr,
    plan: &Plan,
    cols: &Columns,
    n: u64,
    workers: usize,
    pruning: bool,
    stop_after: Option<u64>,
    stats: &StatsAcc,
) -> Result<Vec<u64>> {
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

    let (Some(driving), true) = (driving, pruning) else {
        // no resolvable column (the per-row path reports unknown-column
        // errors exactly as before), or pruning disabled: naive scan
        let t = Instant::now();
        let ctx = EvalCtx {
            ds,
            pinned: &PrefetchedChunks::default(),
            text: &cols.text,
        };
        let keep = parallel_eval(n, workers, |row| Ok(eval_in(&ctx, filter, row)?.truthy()))?;
        StatsAcc::lap(&stats.decode_ns, t);
        return Ok((0..n).filter(|&r| keep[r as usize]).collect());
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
    for (verdict, counter) in [
        (Some(false), &stats.chunks_pruned),
        (Some(true), &stats.chunks_matched),
    ] {
        let count = verdicts.iter().filter(|&&v| v == verdict).count();
        counter.fetch_add(count as u64, Ordering::Relaxed);
    }
    let undecided: Vec<usize> = (0..spans.len())
        .filter(|&i| verdicts[i].is_none())
        .collect();
    StatsAcc::lap(&stats.prune_ns, t_prune);

    // ---- phase 2: group undecided spans into worker tasks ----
    //
    // One batched storage call per task, not per span: fragmented runs
    // and small chunks amortize into a handful of round trips. The caps
    // bound a task's pinned-chunk working set.
    let scan = SpanScan {
        ds,
        filter,
        kernel: filter_kernel(&plan.prune, &prune_cols, cols),
        cols,
        spans: &spans,
        stats,
    };
    let sizes: Vec<u64> = undecided.iter().map(|&i| spans[i].2).collect();
    let tasks = group_into_tasks(&sizes, stop_after.is_some());
    let task = |t: usize| &undecided[tasks[t].clone()];
    // each task's matching rows, ascending, for the tasks that ran
    let mut scanned: Vec<Vec<u64>> = Vec::with_capacity(tasks.len());
    match stop_after {
        None => scanned = map_tasks(workers, tasks.len(), |t| scan.task(task(t)))?,
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
                let rows = map_tasks(workers, wave.len(), |w| scan.task(task(wave.start + w)))?;
                for (t, rows) in wave.zip(rows) {
                    let mut rest = &rows[..];
                    for &i in task(t) {
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

/// A column's chunk spans clamped to the dataset's `n` rows, with any
/// shortfall covered by an unprunable tail span (defensive; tensors
/// normally align exactly) — the span skeleton both scan stages walk.
fn clamped_spans(ds: &Dataset, column: &str, n: u64) -> Result<Vec<(Option<u64>, u64, u64)>> {
    let mut spans = ds.chunk_spans(column)?;
    spans.retain(|&(_, start, _)| start < n);
    for s in &mut spans {
        if s.1 + s.2 > n {
            s.2 = n - s.1;
        }
    }
    let covered: u64 = spans.iter().map(|&(_, _, len)| len).sum();
    if covered < n {
        spans.push((None, covered, n - covered));
    }
    Ok(spans)
}

/// Run task indices `0..count` on `min(workers, count)` threads, the
/// caller being one of them — the one dispatch scaffold of every
/// parallel stage. The caller spawns `min(workers, count) − 1` scoped
/// helpers (none for a single task, so a one-span filter costs no thread)
/// and claims tasks alongside them. Claims stop at the first error, which
/// is returned.
///
/// A panicking task is caught on the thread that ran it and returned as
/// `TqlError::Type("query worker panicked")`: a hub pool worker calls
/// this with nothing above it to catch an unwind, and a helper's panic
/// would otherwise resume on the caller when the scope joins it.
fn run_tasks(workers: usize, count: usize, f: impl Fn(usize) -> Result<()> + Sync) -> Result<()> {
    let error: Mutex<Option<TqlError>> = Mutex::new(None);
    let panicked = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let work = || {
        let claims = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= count || error.lock().is_some() || panicked.load(Ordering::Relaxed) {
                break;
            }
            if let Err(e) = f(t) {
                *error.lock() = Some(e);
                break;
            }
        }));
        if claims.is_err() {
            panicked.store(true, Ordering::Relaxed);
        }
    };
    let helpers = workers.max(1).min(count).saturating_sub(1);
    if helpers == 0 {
        work();
    } else {
        crossbeam::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|_| work());
            }
            work();
        })
        .map_err(|_| worker_panicked())?;
    }
    if panicked.into_inner() {
        return Err(worker_panicked());
    }
    match error.into_inner() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn worker_panicked() -> TqlError {
    TqlError::Type("query worker panicked".into())
}

/// [`run_tasks`] for tasks that produce a value: each task's, in task
/// order.
fn map_tasks<T: Send>(
    workers: usize,
    count: usize,
    f: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let out: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    run_tasks(workers, count, |t| {
        *out[t].lock() = Some(f(t)?);
        Ok(())
    })?;
    // without an error, every task ran
    Ok(out.into_iter().filter_map(Mutex::into_inner).collect())
}

/// The scan stages' shared batching policy: walk per-span row counts in
/// order, accumulating spans into a task until it would exceed a row cap
/// or a span cap, then flush. The caps are 4096 rows and 64 spans;
/// `grow` (the early-exit scan) starts them at 512 and 8 and doubles
/// them at each flush, so the first tasks fetch little. Returns the
/// tasks as index ranges into `sizes`, in order.
fn group_into_tasks(sizes: &[u64], grow: bool) -> Vec<Range<usize>> {
    let (mut max_rows, mut max_spans) = if grow { (512, 8) } else { (4096, 64) };
    let mut tasks = Vec::new();
    let (mut from, mut rows) = (0, 0u64);
    for (i, &len) in sizes.iter().enumerate() {
        if i > from && (rows + len > max_rows || i - from >= max_spans) {
            tasks.push(from..i);
            (from, rows) = (i, 0);
            max_rows = (max_rows * 2).min(4096);
            max_spans = (max_spans * 2).min(64);
        }
        rows += len;
    }
    if from < sizes.len() {
        tasks.push(from..sizes.len());
    }
    tasks
}

/// Ascending, disjoint `[start, end)` row ranges with the adjacent ones
/// merged.
fn contiguous(ranges: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
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
fn task_runs<'d>(
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

/// What every scan task of one filter stage shares.
struct SpanScan<'a> {
    ds: &'a Dataset,
    filter: &'a Expr,
    /// The filter as columnar kernels and the columns their leaves
    /// compare, when it lowers to them (see [`filter_kernel`]).
    kernel: Option<(&'a PruneExpr, &'a [String])>,
    cols: &'a Columns,
    spans: &'a [(Option<u64>, u64, u64)],
    stats: &'a StatsAcc,
}

impl SpanScan<'_> {
    /// Scan one task's spans (ascending span indices). One batched fetch
    /// for every chunk its rows need across the filter columns; per
    /// kernel leaf column, one run lookup per contiguous row range of the
    /// task ([`task_runs`]); then each span through the kernels where it
    /// qualifies — a lone `column <op> number` pushing its matching rows
    /// straight out, a compound filter combining per-leaf masks
    /// ([`span_mask`]) — or row by row where it does not. Returns the
    /// task's matching rows, ascending.
    fn task(&self, task: &[usize]) -> Result<Vec<u64>> {
        let (ds, stats) = (self.ds, self.stats);
        let bounds: Vec<(u64, u64)> = task
            .iter()
            .map(|&i| (self.spans[i].1, self.spans[i].1 + self.spans[i].2))
            .collect();
        let ranges = contiguous(bounds.iter().copied());
        let prefetched = stats.prefetch(|| ds.prefetch_spans(&self.cols.filter, &ranges))?;
        stats
            .chunks_scanned
            .fetch_add(task.len() as u64, Ordering::Relaxed);
        let ctx = EvalCtx {
            ds,
            pinned: &prefetched,
            text: &self.cols.text,
        };
        let t = Instant::now();
        let opaque = PruneExpr::Opaque;
        let (kernel, columns) = self.kernel.unwrap_or((&opaque, &[]));
        let leaves: Vec<Leaf> = columns
            .iter()
            .map(|c| Leaf {
                column: c,
                runs: task_runs(ds, &prefetched, c, &ranges, &bounds),
            })
            .collect();
        let (mut kept, mut mask, mut spare) = (Vec::new(), Vec::new(), Vec::new());
        let mut vectorized = 0;
        for &(start, end) in &bounds {
            let decided = match kernel {
                PruneExpr::Cmp { column, op, value } => {
                    let (before, mut row) = (kept.len(), start);
                    let ok = find_leaf(&leaves, column).compare(start, end, *op, *value, |keep| {
                        if keep {
                            kept.push(row);
                        }
                        row += 1;
                    });
                    if !ok {
                        kept.truncate(before);
                    }
                    ok
                }
                expr => {
                    let ok = span_mask(expr, &leaves, start, end, &mut mask, &mut spare);
                    if ok {
                        let rows = (start..end).zip(&mask);
                        kept.extend(rows.filter_map(|(row, &keep)| keep.then_some(row)));
                    }
                    ok
                }
            };
            if decided {
                vectorized += end - start;
                continue;
            }
            for row in start..end {
                if eval_in(&ctx, self.filter, row)?.truthy() {
                    kept.push(row);
                }
            }
        }
        stats
            .rows_vectorized
            .fetch_add(vectorized, Ordering::Relaxed);
        StatsAcc::lap(&stats.decode_ns, t);
        Ok(kept)
    }
}

/// The lowered filter as the program the columnar kernels run, with the
/// columns its leaves compare: `Some` when it has no opaque leaf — then
/// its truth value per row IS the filter's — and compares no text column
/// (those compare as strings).
fn filter_kernel<'p>(
    prune: &'p PruneExpr,
    leaves: &'p [String],
    cols: &Columns,
) -> Option<(&'p PruneExpr, &'p [String])> {
    (!prune.has_opaque_leaf() && !leaves.iter().any(|c| cols.text.contains(c)))
        .then_some((prune, leaves))
}

/// A kernel leaf's column over one task's rows: its runs, as
/// [`task_runs`] resolved them.
struct Leaf<'r> {
    column: &'r str,
    runs: Vec<(u64, ColumnRun<'r>)>,
}

impl Leaf<'_> {
    /// Compare rows `[start, end)` against `column <op> value` in place
    /// ([`ColumnView::compare_rows`]): `emit` gets one verdict per row, in
    /// order. `false` when a row lies in no run, or in a chunk without a
    /// scalar view — with the verdicts before it already emitted.
    fn compare(&self, start: u64, end: u64, op: CmpOp, v: f64, emit: impl FnMut(bool)) -> bool {
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

/// Where a walk of `runs` (ascending, each with its first row) that
/// starts at `row` begins.
fn first_run(runs: &[(u64, ColumnRun<'_>)], row: u64) -> usize {
    runs.partition_point(|(at, run)| at + run.len as u64 <= row)
}

/// Advance the walk `k` over `runs` to the run holding `row` (rows
/// ascend from one call to the next), and return that run with its first
/// row: `None` when no run holds `row`.
fn seek<'a, 'r>(
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
/// total; NaN compares false exactly as in [`binary`]), so evaluating
/// both arms of an `And`/`Or` instead of short-circuiting changes
/// nothing observable.
fn span_mask(
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

/// The physical top-k similarity operator (index-probe → candidate chunk
/// spans → one batched read per worker task → exact re-rank).
///
/// Candidates are every row on the exact path, or — under `ann` with a
/// valid index of matching dimensionality — the probed IVF clusters'
/// posting-list union plus the exact-scanned unindexed tail (rows
/// appended after the index was built). Candidate rows group by chunk
/// span of the driving column (a group is an index range into the
/// candidates), and groups into worker tasks. A task fetches all its
/// chunks in one batched call, looks its runs up once per contiguous row
/// range ([`task_runs`]), and scores each group through [`score_group`] —
/// the same conversion and the same arithmetic as the `Metric::score`
/// call the similarity functions make, minus the `Sample` per row — or,
/// where a candidate's record refuses the vector check, evaluates the
/// *original* ORDER BY key expression through the shared row evaluator,
/// so scores, type errors, and tie-breaking are identical to the naive
/// sort stage. Each task keeps its best `LIMIT + OFFSET` by selection,
/// not sorting; the merged survivors order exactly like that stage
/// (stable ascending sort, whole list reversed for DESC) and truncate to
/// `LIMIT + OFFSET`.
#[allow(clippy::too_many_arguments)]
fn topk_stage(
    ds: &Dataset,
    key_expr: &Expr,
    dir: SortDir,
    tk: &TopKPlan,
    cols: &Columns,
    opts: &QueryOptions,
    workers: usize,
    stats: &StatsAcc,
) -> Result<Vec<u64>> {
    let n = ds.len();
    // a text column reaches the similarity function as a string (and
    // fails there): never score its bytes as a vector
    let vectorize = !cols.text.contains(&tk.column);

    // candidate rows: IVF probe under `ann`, every row otherwise. The
    // index only answers "nearest first" — a direction asking for the
    // FARTHEST rows (L2_DISTANCE DESC, COSINE_SIMILARITY ASC) would
    // probe exactly the wrong clusters, so it keeps the exact scan.
    let seeks_nearest = tk.metric.higher_is_closer() == (dir == SortDir::Desc);
    let mut candidates: Option<Vec<u64>> = None;
    if opts.ann && seeks_nearest {
        if let Some(index) = ds.vector_index(&tk.column) {
            // only a clustered index can narrow the candidate set; a
            // stored Flat marker is equivalent to the no-index fallback
            // (and probing it would just materialize every row id)
            if matches!(index.as_ref(), deeplake_core::VectorIndex::Ivf(_))
                && index.dim() == tk.query.len()
            {
                let probe = index.probe(&tk.query, tk.metric, opts.nprobe.max(1));
                let mut rows = probe.rows;
                rows.retain(|&r| r < n);
                // rows appended after the build are unindexed: exact-scan
                // them into the candidate set
                rows.extend(index.rows().min(n)..n);
                // an underfull probe (degenerate tiny clusters) cannot
                // fill the result: fall back to the exact scan rather
                // than silently return fewer than LIMIT rows
                if rows.len() as u64 >= tk.fetch.min(n) {
                    stats
                        .clusters_probed
                        .fetch_add(probe.clusters_probed as u64, Ordering::Relaxed);
                    candidates = Some(rows);
                }
            }
        }
    }
    let candidates = candidates.unwrap_or_else(|| (0..n).collect());
    stats
        .candidates_reranked
        .fetch_add(candidates.len() as u64, Ordering::Relaxed);
    if candidates.is_empty() {
        return Ok(Vec::new());
    }

    // per-span candidate groups (spans and candidates both ascend): the
    // span's candidates as a range of `candidates`, and the span's rows
    let mut groups: Vec<(Range<usize>, (u64, u64))> = Vec::new();
    let mut ci = 0usize;
    for &(_, start, len) in &clamped_spans(ds, &tk.column, n)? {
        let from = ci;
        while ci < candidates.len() && candidates[ci] < start + len {
            ci += 1;
        }
        if ci > from {
            groups.push((from..ci, (start, start + len)));
        }
    }

    let sizes: Vec<u64> = groups.iter().map(|(g, _)| g.len() as u64).collect();
    let tasks = group_into_tasks(&sizes, false);
    let query = tk.metric.prepare(&tk.query);
    let survivors = map_tasks(workers, tasks.len(), |t| {
        let task = &groups[tasks[t].clone()];
        // each group lies inside one chunk span: its candidates' row
        // range names the same chunks its rows do
        let ranges: Vec<(u64, u64)> = task
            .iter()
            .map(|(g, _)| (candidates[g.start], candidates[g.end - 1] + 1))
            .collect();
        let prefetched = stats.prefetch(|| ds.prefetch_spans(&cols.sort, &ranges))?;
        stats
            .chunks_scanned
            .fetch_add(task.len() as u64, Ordering::Relaxed);
        let ctx = EvalCtx {
            ds,
            pinned: &prefetched,
            text: &cols.text,
        };
        let t = Instant::now();
        let spans = contiguous(task.iter().map(|&(_, span)| span));
        let runs = task_runs(ds, &prefetched, &tk.column, &spans, &ranges);
        let mut scored: Vec<(Scalar, u64)> =
            Vec::with_capacity(task.iter().map(|(g, _)| g.len()).sum());
        let (mut views, mut vectorized) = (Vec::new(), 0);
        for (g, _) in task {
            let rows = &candidates[g.clone()];
            let dim = tk.query.len();
            if vectorize && score_group(&runs, query, dim, rows, &mut views, &mut scored) {
                vectorized += rows.len() as u64;
                continue;
            }
            for &row in rows {
                scored.push((eval_in(&ctx, key_expr, row)?.to_scalar(), row));
            }
        }
        stats
            .rows_vectorized
            .fetch_add(vectorized, Ordering::Relaxed);
        // bounded selection: keep only the task's best `fetch` under the
        // final total order (key then row, reversed whole for DESC) — a
        // strict order, so the kept set is the one a sort would keep, and
        // any row dropped here is provably outside the global top
        // `fetch`: the merge below stays byte-identical while memory is
        // O(tasks × fetch) instead of O(candidates)
        let fetch = tk.fetch as usize;
        if scored.len() > fetch {
            scored.select_nth_unstable_by(fetch, |a, b| {
                let o = a.0.order_cmp(&b.0).then(a.1.cmp(&b.1));
                if dir == SortDir::Desc {
                    o.reverse()
                } else {
                    o
                }
            });
            scored.truncate(fetch);
            // survivors back in ascending row order (scored ascends
            // already) so the merge's stable sort breaks ties exactly
            // like the naive stage
            scored.sort_unstable_by_key(|&(_, row)| row);
        }
        StatsAcc::lap(&stats.rerank_ns, t);
        Ok(scored)
    })?;

    // merge in row order, then order exactly like the naive sort stage:
    // stable ascending sort by key, whole list reversed for DESC
    let t = Instant::now();
    let mut paired: Vec<(Scalar, u64)> = survivors.into_iter().flatten().collect();
    paired.sort_by(|a, b| a.0.order_cmp(&b.0));
    if dir == SortDir::Desc {
        paired.reverse();
    }
    paired.truncate(tk.fetch as usize);
    StatsAcc::lap(&stats.rerank_ns, t);
    Ok(paired.into_iter().map(|(_, r)| r).collect())
}

/// Score one span's candidate rows (ascending, non-empty) in place,
/// walking them and the task's `runs` together. Every candidate's own
/// record is checked first ([`Chunk::vector_at`](deeplake_core::Chunk::vector_at):
/// shape `[dim]`, one uncompressed frame of exactly `dim` elements —
/// O(1) a record) into `views`, then each is scored from its bytes
/// ([`ColumnView::score_row`]: the conversion and the summation order of
/// the `Metric::score(column, query)` call `functions::call` makes), so
/// every score is the bit pattern the row evaluator would have produced.
/// Checking them all first also touches each record before any is
/// scored, so their loads overlap rather than each waiting on the
/// previous score. The chunks' other records are never read. All or
/// nothing: returns `false` with `scored` as it was — score the group
/// row by row — unless every candidate lies in a run and its record
/// passes, and then no candidate can raise.
fn score_group<'r>(
    runs: &'r [(u64, ColumnRun<'_>)],
    query: VectorQuery<'_>,
    dim: usize,
    rows: &[u64],
    views: &mut Vec<ColumnView<'r>>,
    scored: &mut Vec<(Scalar, u64)>,
) -> bool {
    views.clear();
    let mut k = first_run(runs, rows[0]);
    for &row in rows {
        let view = seek(runs, &mut k, row)
            .and_then(|(run, at)| run.chunk().vector_at(run.first + (row - at) as usize, dim));
        match view {
            Some(view) => views.push(view),
            None => return false,
        }
    }
    let scores = views
        .iter()
        .map(|view| Scalar::Float(view.score_row(0, query)));
    scored.extend(scores.zip(rows.iter().copied()));
    true
}

/// Evaluate `f` for rows `0..n` in parallel, preserving order — the
/// naive row-at-a-time reference path: one [`run_tasks`] task per block
/// of 64 rows.
fn parallel_eval(
    n: u64,
    workers: usize,
    f: impl Fn(u64) -> Result<bool> + Sync,
) -> Result<Vec<bool>> {
    const STRIDE: u64 = 64;
    let blocks = map_tasks(workers, n.div_ceil(STRIDE) as usize, |b| {
        let start = b as u64 * STRIDE;
        (start..(start + STRIDE).min(n))
            .map(&f)
            .collect::<Result<Vec<bool>>>()
    })?;
    Ok(blocks.concat())
}

/// Evaluate a key expression for each row in `rows` (parallel, preserving
/// order): one [`run_tasks`] task per block of 64 rows, each prefetching
/// the plan's sort columns for its block in one batched call.
fn eval_keys(
    ds: &Dataset,
    rows: &[u64],
    workers: usize,
    key: &Expr,
    cols: &Columns,
    stats: &StatsAcc,
) -> Result<Vec<Scalar>> {
    const STRIDE: usize = 64;
    let blocks: Vec<&[u64]> = rows.chunks(STRIDE).collect();
    let keys = map_tasks(workers, blocks.len(), |b| {
        let prefetched = stats.prefetch(|| ds.prefetch_chunks(&cols.sort, blocks[b]))?;
        let ctx = EvalCtx {
            ds,
            pinned: &prefetched,
            text: &cols.text,
        };
        let t = Instant::now();
        let keys = blocks[b]
            .iter()
            .map(|&row| Ok(eval_in(&ctx, key, row)?.to_scalar()))
            .collect::<Result<Vec<_>>>();
        StatsAcc::lap(&stats.decode_ns, t);
        keys
    })?;
    Ok(keys.into_iter().flatten().collect())
}

/// Evaluate an expression for one dataset row.
pub fn eval(expr: &Expr, ds: &Dataset, row: u64) -> Result<Value> {
    let mut text = Vec::new();
    expr.columns(&mut text);
    text.retain(|c| is_text(ds, c));
    let ctx = EvalCtx {
        ds,
        pinned: &PrefetchedChunks::default(),
        text: &text,
    };
    eval_in(&ctx, expr, row)
}

/// Evaluate an expression for one row through an evaluation context
/// (dataset + any chunks the current task has pinned).
fn eval_in(ctx: &EvalCtx<'_>, expr: &Expr, row: u64) -> Result<Value> {
    let ds = ctx.ds;
    match expr {
        Expr::Number(n) => Ok(Value::Num(*n)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Array(values) => Ok(Value::Tensor(deeplake_tensor::sample::from_f64_values(
            deeplake_tensor::Dtype::F64,
            deeplake_tensor::Shape::from([values.len() as u64]),
            values,
        ))),
        Expr::Column(name) => {
            let sample = ctx
                .get(name, row)
                .map_err(|_| TqlError::UnknownColumn(name.clone()))?;
            // text-htype columns are first-class strings: they compare and
            // sort lexicographically, not as byte tensors
            if ctx.text.contains(name) {
                if let Some(text) = sample.to_text() {
                    return Ok(Value::Str(text));
                }
            }
            Ok(Value::Tensor(sample))
        }
        Expr::Subscript { base, specs } => {
            let v = eval_in(ctx, base, row)?;
            match v {
                Value::Tensor(t) => Ok(Value::Tensor(slice_sample(&t, specs)?)),
                other => Err(TqlError::Type(format!("cannot subscript {other:?}"))),
            }
        }
        Expr::Call { name, args } => {
            // SHAPE(column) fast path: reads only the chunk directory, not
            // the payload (the paper's hidden-shape-tensor trick, §3.4)
            if name == "SHAPE" && args.len() == 1 {
                if let Expr::Column(col) = &args[0] {
                    let shape = ds
                        .get_shape(col, row)
                        .map_err(|_| TqlError::UnknownColumn(col.clone()))?;
                    let dims: Vec<f64> = shape.dims().iter().map(|&d| d as f64).collect();
                    return Ok(Value::Tensor(deeplake_tensor::sample::from_f64_values(
                        deeplake_tensor::Dtype::I64,
                        deeplake_tensor::Shape::from([dims.len() as u64]),
                        &dims,
                    )));
                }
            }
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                let v = eval_in(ctx, a, row)?;
                // IOU's string args are tensor references (paper Fig. 5:
                // IOU(boxes, "training/boxes"))
                let v = if name == "IOU" {
                    if let Value::Str(col) = &v {
                        Value::Tensor(
                            ctx.get(col, row)
                                .map_err(|_| TqlError::UnknownColumn(col.clone()))?,
                        )
                    } else {
                        v
                    }
                } else {
                    v
                };
                values.push(v);
            }
            functions::call(name, &values, row)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_in(ctx, left, row)?;
            if *op == BinOp::And {
                if !l.truthy() {
                    return Ok(Value::Bool(false));
                }
                return Ok(Value::Bool(eval_in(ctx, right, row)?.truthy()));
            }
            if *op == BinOp::Or {
                if l.truthy() {
                    return Ok(Value::Bool(true));
                }
                return Ok(Value::Bool(eval_in(ctx, right, row)?.truthy()));
            }
            let r = eval_in(ctx, right, row)?;
            binary(*op, &l, &r)
        }
        Expr::Neg(inner) => {
            let v = eval_in(ctx, inner, row)?;
            match v {
                Value::Num(n) => Ok(Value::Num(-n)),
                Value::Tensor(t) => Ok(Value::Tensor(deeplake_tensor::ops::elementwise_scalar(
                    &t,
                    0.0,
                    |x, _| -x,
                ))),
                other => Err(TqlError::Type(format!("cannot negate {other:?}"))),
            }
        }
        Expr::Not(inner) => Ok(Value::Bool(!eval_in(ctx, inner, row)?.truthy())),
    }
}

fn binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // string equality first
    if let (Value::Str(a), Value::Str(b)) = (l, r) {
        return match op {
            BinOp::Eq => Ok(Value::Bool(a == b)),
            BinOp::Ne => Ok(Value::Bool(a != b)),
            BinOp::Lt => Ok(Value::Bool(a < b)),
            BinOp::Le => Ok(Value::Bool(a <= b)),
            BinOp::Gt => Ok(Value::Bool(a > b)),
            BinOp::Ge => Ok(Value::Bool(a >= b)),
            _ => Err(TqlError::Type(format!(
                "operator {op:?} not defined on strings"
            ))),
        };
    }
    // text tensor vs string literal comparisons (`text_col = "dog"`)
    if let (Value::Tensor(t), Value::Str(s)) = (l, r) {
        if let Some(text) = t.to_text() {
            return binary(op, &Value::Str(text), &Value::Str(s.clone()));
        }
    }
    if let (Value::Str(s), Value::Tensor(t)) = (l, r) {
        if let Some(text) = t.to_text() {
            return binary(op, &Value::Str(s.clone()), &Value::Str(text));
        }
    }
    // tensor-tensor elementwise arithmetic
    if let (Value::Tensor(a), Value::Tensor(b)) = (l, r) {
        if matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        ) && a.num_elements() > 1
            && b.num_elements() > 1
        {
            let f = arith_fn(op);
            return Ok(Value::Tensor(deeplake_tensor::ops::elementwise(a, b, f)?));
        }
    }
    // tensor-scalar elementwise arithmetic
    if let (Value::Tensor(t), Some(s)) = (l, r.as_f64()) {
        if t.num_elements() > 1
            && matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
            )
        {
            let f = arith_fn(op);
            return Ok(Value::Tensor(deeplake_tensor::ops::elementwise_scalar(
                t, s, f,
            )));
        }
    }
    // scalar numeric
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(TqlError::Type(format!(
                "operator {op:?} not defined on {l:?} and {r:?}"
            )))
        }
    };
    Ok(match op {
        BinOp::Add => Value::Num(a + b),
        BinOp::Sub => Value::Num(a - b),
        BinOp::Mul => Value::Num(a * b),
        BinOp::Div => Value::Num(a / b),
        BinOp::Mod => Value::Num(a % b),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::Le => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::Ge => Value::Bool(a >= b),
        BinOp::And | BinOp::Or => unreachable!("handled short-circuit"),
    })
}

fn arith_fn(op: BinOp) -> fn(f64, f64) -> f64 {
    match op {
        BinOp::Add => |x, y| x + y,
        BinOp::Sub => |x, y| x - y,
        BinOp::Mul => |x, y| x * y,
        BinOp::Div => |x, y| x / y,
        BinOp::Mod => |x, y| x % y,
        _ => unreachable!("not an arithmetic operator"),
    }
}

#[cfg(test)]
mod tests;
