//! # deeplake-tql
//!
//! The Tensor Query Language (§4.4): an embedded SQL dialect extended with
//! NumPy-style multi-dimensional indexing and numeric array functions,
//! executed directly against Deep Lake datasets — no external query
//! engine. The paper's example:
//!
//! ```text
//! SELECT images[100:500, 100:500, 0:2] as crop,
//!        NORMALIZE(boxes, [100, 100, 400, 400]) as box
//! FROM dataset
//! WHERE IOU(boxes, "training/boxes") > 0.95
//! ORDER BY IOU(boxes, "training/boxes")
//! ARRANGE BY labels
//! ```
//!
//! Pipeline: [`lexer`] → [`parser`] → [`plan`] (a physical plan: per-stage
//! column sets plus the filter lowered onto chunk statistics) → [`exec`]
//! (a chunk-granular pipeline over worker threads). Query results are
//! index [`views`](deeplake_core::view) that stream to the dataloader or
//! materialize (§4.5); `AT VERSION` queries run against historical
//! commits (§4.4: "TQL allows querying data on specific versions").
//!
//! ## Predicate pushdown
//!
//! The write path records per-chunk min/max/count/constant statistics
//! for all-scalar tensors (class labels, numeric metadata). At query
//! time the filter is analyzed into a tri-state [`PruneExpr`]; the
//! executor walks the driving column's chunk spans and, per span,
//! decides from statistics alone whether the span can be **pruned** (no
//! row can match — zero I/O), **matched whole** (every row matches —
//! zero I/O), or must be **scanned** (one batched storage call fetches
//! the span's chunks, each parsed once). A scanned span of a filter that
//! lowered completely is evaluated column-at-a-time by typed kernels
//! over the chunk bytes wherever no row of it can raise; every other
//! span — and anything the analyzer cannot bound: arbitrary
//! expressions, text columns, stat-less legacy datasets — goes through
//! the row evaluator exactly like before (the rules are in [`exec`]),
//! so the default path is always result-identical, errors included, to
//! the naive full scan `QueryOptions { pruning: false }` keeps as the
//! reference. [`QueryResult::stats`] reports `chunks_pruned` /
//! `chunks_matched` / `chunks_scanned` / `round_trips` /
//! `rows_vectorized`:
//!
//! ```text
//! let r = query(&ds, "SELECT * FROM d WHERE labels = 3")?;
//! assert!(r.stats.chunks_pruned > 0);   // chunks skipped without I/O
//! assert!(r.stats.round_trips < r.stats.chunks_pruned
//!         + r.stats.chunks_scanned);    // batched fetches, not per-chunk
//! ```
//!
//! ## Vector similarity top-k
//!
//! `COSINE_SIMILARITY(col, [..])` / `L2_DISTANCE(col, [..])` score
//! embedding columns against a literal query vector, and the planner
//! lowers `ORDER BY <similarity> LIMIT k` (no filter/arrange) onto a
//! physical top-k operator: candidate rows → chunk spans → one batched
//! `ReadPlan` per worker task → exact re-rank, scored straight from the
//! chunk bytes with the call the similarity functions make (or through
//! the row evaluator where a candidate's record is not a plain vector of
//! the query's length), so results (order, ties, errors) are identical to
//! the naive sort stage. With [`QueryOptions::ann`] the operator probes the
//! column's IVF vector index ([`deeplake_index`](deeplake_core::VectorIndex))
//! for candidates — [`QueryOptions::nprobe`] trades recall for fetched
//! chunks — and silently falls back to the exact flat scan when no valid
//! index exists. [`QueryResult::stats`] reports `clusters_probed` and
//! `candidates_reranked`.
//!
//! `LIMIT k` without `ORDER BY` short-circuits the filter scan: spans
//! are scanned in row order and fetching stops at the k-th match.

pub mod ast;
pub mod canonical;
pub mod error;
pub mod exec;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod value;
pub mod wire;

pub use ast::{Expr, Query};
pub use canonical::canonical_text;
pub use error::TqlError;
pub use exec::{execute, QueryOptions, QueryResult, QueryStats};
pub use plan::{Plan, PruneExpr, TopKPlan};
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TqlError>;

/// Parse and execute a query against a dataset with default options.
pub fn query(ds: &deeplake_core::Dataset, text: &str) -> Result<QueryResult> {
    query_opts(ds, text, &QueryOptions::default())
}

/// Parse and execute a query with explicit options — the entry point a
/// serving tier calls to run an offloaded query text against its mounted
/// dataset (see [`wire`] for the serialized forms it ships back).
pub fn query_opts(
    ds: &deeplake_core::Dataset,
    text: &str,
    opts: &QueryOptions,
) -> Result<QueryResult> {
    let q = parser::parse(text)?;
    exec::execute(ds, &q, opts)
}
