//! The physical top-k similarity operator.

use std::time::Instant;

use deeplake_core::{ColumnRun, ColumnView, Dataset, VectorIndex, VectorQuery};
use deeplake_tensor::Scalar;

use super::tasks::{group_into_tasks, map_tasks};
use super::walk::{clamped_spans, first_run, seek, Piece, Walk};
use super::{lap, sorted_rows, Columns, QueryOptions, QueryStats};
use crate::ast::{Expr, SortDir};
use crate::plan::TopKPlan;
use crate::value::Value;
use crate::Result;

/// The physical top-k similarity operator (index-probe → candidate chunk
/// spans → one batched read per worker task → exact re-rank).
///
/// Candidates are every row on the exact path, or — under `ann` with a
/// valid index of matching dimensionality — the probed IVF clusters'
/// posting-list union plus the exact-scanned unindexed tail (rows
/// appended after the index was built). Candidate rows group by chunk
/// span of the driving column (a group is the candidates one span
/// holds), and groups into worker tasks. Each task is a [`Walk`] that
/// scores each group through [`score_group`] — the same conversion and
/// the same arithmetic as the `Metric::score` call the similarity
/// functions make, minus the `Sample` per row — or, where a candidate's
/// record refuses the vector check, evaluates the *original* ORDER BY key
/// expression through the row evaluator, so scores, type errors, and
/// tie-breaking are identical to the naive sort stage. Each task keeps
/// its best `LIMIT + OFFSET` by selection, not sorting; the merged
/// survivors order exactly like that stage (stable ascending sort, whole
/// list reversed for DESC) and truncate to `LIMIT + OFFSET`.
pub(super) fn topk_stage(
    ds: &Dataset,
    key_expr: &Expr,
    dir: SortDir,
    tk: &TopKPlan,
    cols: &Columns,
    opts: &QueryOptions,
    stats: &mut QueryStats,
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
            if matches!(index.as_ref(), VectorIndex::Ivf(_)) && index.dim() == tk.query.len() {
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
                    stats.clusters_probed += probe.clusters_probed as u64;
                    candidates = Some(rows);
                }
            }
        }
    }
    let candidates = candidates.unwrap_or_else(|| (0..n).collect());
    stats.candidates_reranked += candidates.len() as u64;
    if candidates.is_empty() {
        return Ok(Vec::new());
    }

    // per-span candidate groups (spans and candidates both ascend)
    let mut groups: Vec<Piece> = Vec::new();
    let mut ci = 0usize;
    for &(_, start, len) in &clamped_spans(ds, &tk.column, n)? {
        let from = ci;
        while ci < candidates.len() && candidates[ci] < start + len {
            ci += 1;
        }
        if ci > from {
            groups.push(Piece {
                span: (start, start + len),
                candidates: Some(&candidates[from..ci]),
            });
        }
    }

    let sizes: Vec<u64> = groups.iter().map(Piece::len).collect();
    let tasks = group_into_tasks(&sizes, false);
    let walk = Walk {
        ds,
        fetch: &cols.sort,
        text: &cols.text,
        columns: std::slice::from_ref(&tk.column),
        expr: key_expr,
        clock: |stats| &mut stats.rerank_ns,
    };
    let (query, dim) = (tk.metric.prepare(&tk.query), tk.query.len());
    let fetch = tk.fetch as usize;
    let survivors = map_tasks(opts.workers.max(1), tasks.len(), stats, |t, stats| {
        let task = &groups[tasks[t].clone()];
        let mut scored: Vec<(Scalar, u64)> =
            Vec::with_capacity(sizes[tasks[t].clone()].iter().sum::<u64>() as usize);
        let score = |value: Value, row| Some((value.to_scalar(), row));
        walk.task(task, stats, &mut scored, score, |group, leaves, scored| {
            let in_place = |rows| score_group(&leaves[0].runs, query, dim, rows, scored);
            vectorize && group.candidates.is_some_and(in_place)
        })?;
        // bounded selection: keep only the task's best `fetch` under the
        // final total order (key then row, reversed whole for DESC) — a
        // strict order, so the kept set is the one a sort would keep, and
        // any row dropped here is provably outside the global top
        // `fetch`: the merge below stays byte-identical while memory is
        // O(tasks × fetch) instead of O(candidates)
        let t = Instant::now();
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
        lap(&mut stats.rerank_ns, t);
        Ok(scored)
    })?;

    // merge in row order, then order exactly like the naive sort stage
    let t = Instant::now();
    let mut rows = sorted_rows(survivors.into_iter().flatten().collect(), dir);
    rows.truncate(fetch);
    lap(&mut stats.rerank_ns, t);
    Ok(rows)
}

/// Score one span's candidate rows (ascending, non-empty) in place,
/// walking them and the task's `runs` together. Every candidate's own
/// record is checked ([`Chunk::vector_at`](deeplake_core::Chunk::vector_at):
/// shape `[dim]`, one uncompressed frame of exactly `dim` elements —
/// O(1) a record), a batch of them at a time, then each is scored from its
/// bytes ([`ColumnView::score_row`]: the conversion and the summation
/// order of the `Metric::score(column, query)` call `functions::call`
/// makes), so every score is the bit pattern the row evaluator would have
/// produced. Checking a batch first also touches each record before any
/// is scored, so their loads overlap rather than each waiting on the
/// previous score. The chunks' other records are never read. All or
/// nothing: returns `false` — score the group row by row, the scores
/// pushed so far dropped by the walk — unless every candidate lies in a
/// run and its record passes, and then no candidate can raise.
fn score_group(
    runs: &[(u64, ColumnRun<'_>)],
    query: VectorQuery<'_>,
    dim: usize,
    rows: &[u64],
    scored: &mut Vec<(Scalar, u64)>,
) -> bool {
    const BATCH: usize = 16;
    let mut views: [Option<ColumnView<'_>>; BATCH] = [None; BATCH];
    let mut k = first_run(runs, rows[0]);
    for batch in rows.chunks(BATCH) {
        for (view, &row) in views.iter_mut().zip(batch) {
            *view = seek(runs, &mut k, row)
                .and_then(|(run, at)| run.chunk().vector_at(run.first + (row - at) as usize, dim));
            if view.is_none() {
                return false;
            }
        }
        let scores = views[..batch.len()]
            .iter()
            .flatten()
            .map(|view| Scalar::Float(view.score_row(0, query)));
        scored.extend(scores.zip(batch.iter().copied()));
    }
    true
}
