//! The one dispatch scaffold of every parallel stage, and the batching
//! policy the scan stages group their spans into tasks by.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use super::QueryStats;
use crate::error::TqlError;
use crate::Result;

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
pub(super) fn run_tasks(
    workers: usize,
    count: usize,
    f: impl Fn(usize) -> Result<()> + Sync,
) -> Result<()> {
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
/// order. Each task counts its work into a `QueryStats` of its own, and
/// their sum is added to `stats`.
pub(super) fn map_tasks<T: Send>(
    workers: usize,
    count: usize,
    stats: &mut QueryStats,
    f: impl Fn(usize, &mut QueryStats) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let out: Vec<Mutex<Option<(T, QueryStats)>>> = (0..count).map(|_| Mutex::new(None)).collect();
    run_tasks(workers, count, |t| {
        let mut own = QueryStats::default();
        let value = f(t, &mut own)?;
        *out[t].lock() = Some((value, own));
        Ok(())
    })?;
    // without an error, every task ran
    let mut values = Vec::with_capacity(count);
    for (value, own) in out.into_iter().filter_map(Mutex::into_inner) {
        *stats += own;
        values.push(value);
    }
    Ok(values)
}

/// The scan stages' shared batching policy: walk per-span row counts in
/// order, accumulating spans into a task until it would exceed a row cap
/// or a span cap, then flush. The caps are 4096 rows and 64 spans;
/// `grow` (the early-exit scan) starts them at 512 and 8 and doubles
/// them at each flush, so the first tasks fetch little. Returns the
/// tasks as index ranges into `sizes`, in order.
pub(super) fn group_into_tasks(sizes: &[u64], grow: bool) -> Vec<Range<usize>> {
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
