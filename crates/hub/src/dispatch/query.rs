//! Query serving: the result cache's two doors and the executor behind
//! them.
//!
//! **Owns:** the loop-side hit path ([`cached_answer`]), the worker-side
//! path ([`handle_query`]: canonicalize, probe, execute on a miss,
//! install), and what every answered query records — the latency window,
//! the error rate, the slow log.
//!
//! **May not touch:** a connection or a socket; and [`cached_answer`],
//! which runs on an event loop, may not parse or read storage.
//!
//! ## A cache hit never leaves the loop
//!
//! The first arrival of a query text goes to the pool: a worker parses
//! and canonicalizes it, looks the canonical key up (executing on a
//! miss), and records `raw text → canonical key` in the cache. From the
//! second arrival on, the loop answers those bytes itself: the mount's
//! memoized head for the reference, one probe of the raw text
//! ([`ResultCache::lookup_raw`](crate::ResultCache::lookup_raw)), and the
//! stored frame — shared, not copied — is deposited on the connection's
//! write queue. No TQL parse, no storage read, no job, no queue, no
//! worker, no wake-up, no in-flight slot (so never `Busy`); the loop
//! records the same `hub.cache_lookup_ns` / `hub.flush_ns` samples,
//! counters and slow-log check a worker would, but no `hub.queue_wait_ns`
//! sample — that histogram counts pool visits. Whatever makes the probe
//! fail — unknown text, no head memo, an entry evicted or invalidated
//! (its raw texts go with it) — sends the request to the pool, so the
//! loop never parses, never touches storage and never serves a frame an
//! invalidation has dropped.
//!
//! ## What a hit costs the loop
//!
//! Its bytes, not its bookkeeping. A warmed-up hit allocates nothing
//! (`allocs::a_warmed_up_loop_side_hit_allocates_nothing` counts): the
//! reference and text are borrowed from the frame
//! ([`proto::borrow_query`]; only a miss, which becomes a job, copies
//! them), the head is read under the memo lock
//! ([`Mounted::with_head_memo`]) instead of cloned, and the raw text's
//! one SipHash probe yields the handle that touches the canonical entry
//! without hashing its key again. The clock is read three times: as the
//! lookup starts, as it ends — closing `hub.cache_lookup_ns`, filing
//! `queries_rate` and `query_window` and opening the flush span — and
//! when the deposit is done, closing `hub.flush_ns` and filing
//! `bytes_out_rate` (the two spans are disjoint, so the ledger that sums
//! them counts nothing twice). The worker path keeps its own readings.

use std::sync::Arc;
use std::time::Instant;

use deeplake_core::Dataset;
use deeplake_obs::{next_id, sec_of, SlowQueryEntry, SpanRecord, SpanTimer};
use deeplake_remote::proto::{self, QueryRef};
use deeplake_storage::{DynProvider, StorageProvider};
use deeplake_tql::{canonical, parser, QueryOptions};

use super::JobCtx;
use crate::cache::{CacheKey, Frame};
use crate::hub::Shared;
use crate::registry::Mounted;

/// Push one slow-log entry: a fresh root span (`parent_span` = the
/// client's span from the trace envelope) with `stages` as its children
/// in order — except `storage`, which hangs under the `execute` stage
/// listed before it.
pub(super) fn log_slow(
    shared: &Shared,
    mount: &Mounted,
    ctx: &JobCtx,
    version: String,
    text: String,
    total_ns: u64,
    stages: &[(&str, u64)],
) {
    let (trace_id, client_span) = ctx.trace.unwrap_or((0, 0));
    let root_span = next_id();
    let mut execute_span = root_span;
    let spans = stages
        .iter()
        .map(|&(name, dur_ns)| {
            let span_id = next_id();
            let parent_span = if name == "storage" {
                execute_span
            } else {
                root_span
            };
            if name == "execute" {
                execute_span = span_id;
            }
            SpanRecord {
                name: name.into(),
                span_id,
                parent_span,
                dur_ns,
            }
        })
        .collect();
    shared.obs.slowlog.push(SlowQueryEntry {
        trace_id,
        root_span,
        parent_span: client_span,
        dataset: mount.name.clone(),
        version,
        text,
        total_ns,
        spans,
    });
}

/// Resolve `reference` to its head node id with ONE storage read (the
/// version tree), instead of a full `Dataset::open_at` — the difference
/// between a cache hit costing one round trip after a memo invalidation
/// and costing a whole re-execution.
fn resolve_reference(provider: &DynProvider, reference: &str) -> Result<String, String> {
    let raw = provider
        .get(deeplake_core::version::VERSION_INFO_KEY)
        .map_err(|e| e.to_string())?;
    let tree = deeplake_core::version::VersionTree::from_json(&raw).map_err(|e| e.to_string())?;
    tree.resolve(reference).map_err(|e| e.to_string())
}

/// The event loop's share of query serving: answer from the result
/// cache when a worker has already canonicalized this exact text against
/// the reference's memoized head. One head-memo probe and one raw-text
/// probe — no TQL parse, no storage read, no allocation. `None` (text
/// not seen yet, no head memo, entry evicted or invalidated) sends the
/// request to the pool, and nothing has been counted for it.
///
/// Two clock readings serve every instrument of the lookup: one as it
/// starts and one as it ends, which closes `hub.cache_lookup_ns`, files
/// the query in `queries_rate` and `query_window`, and opens the flush
/// span the returned timer carries to the deposit (whose one reading
/// closes it).
pub(super) fn cached_answer(
    shared: &Shared,
    mount: &Mounted,
    query: &QueryRef<'_>,
) -> Option<(Frame, SpanTimer)> {
    let start = Instant::now();
    // the head is read under the memo lock, the cache's taken inside it
    let probe = |head: &str| {
        shared
            .cache
            .lookup_raw(&mount.name, head, query.text, query.options)
    };
    let (key, frame) = mount.with_head_memo(query.reference, probe)??;
    let found = Instant::now();
    let sec = sec_of(found);
    let cache_lookup_ns =
        SpanTimer::started_at(start).record_until(found, &shared.obs.cache_lookup);
    shared.stats.queries.inc();
    shared.obs.queries_rate.add_at(1, sec);
    let ctx = JobCtx {
        queue_wait_ns: 0,
        trace: query.trace,
    };
    let stages = [
        ("queue_wait", 0),
        ("cache_lookup", cache_lookup_ns),
        ("execute", 0),
        ("storage", 0),
    ];
    account_query(
        shared,
        mount,
        &ctx,
        &frame,
        (cache_lookup_ns, sec),
        &stages,
        || (key.version.clone(), key.text.clone()),
    );
    Some((frame, SpanTimer::started_at(found)))
}

/// What every answered query records, on the loop or on a worker: the
/// rolling latency window (the query's `total_ns`, filed under second
/// `sec`), the error rate, and — over the threshold — a slow-log entry
/// whose `(version, text)` `describe` renders.
fn account_query(
    shared: &Shared,
    mount: &Mounted,
    ctx: &JobCtx,
    frame: &[u8],
    (total_ns, sec): (u64, u64),
    stages: &[(&str, u64)],
    describe: impl FnOnce() -> (String, String),
) {
    shared.obs.query_window.record_at(total_ns, sec);
    if frame.first() != Some(&proto::STATUS_OK) {
        shared.obs.errors_rate.inc();
    }
    if total_ns >= shared.opts.slow_query_threshold.as_nanos() as u64 {
        let (version, text) = describe();
        log_slow(shared, mount, ctx, version, text, total_ns, stages);
    }
}

/// Execute (or serve from cache) one offloaded query, on a pool worker.
///
/// Only a query the event loop could not answer by its raw text
/// ([`cached_answer`]) gets here: the first arrival of a text, or one
/// whose head memo or entry is gone. The fast path is `head memo →
/// canonical-text key → shared frame`, with **zero** storage round trips
/// and zero query planning (one round trip to re-resolve the head when
/// a write cleared the memo). The slow path executes exactly as PR 4's
/// server did, then installs the memo + cache entry — both gated on the
/// mount's invalidation epoch so a racing write can never trap a stale
/// result in the cache. Either way the raw text is then recorded against
/// the canonical key, so the next arrival of it never leaves the loop.
pub(super) fn handle_query(
    shared: &Shared,
    mount: &Arc<Mounted>,
    reference: &str,
    text: &str,
    options: QueryOptions,
    ctx: &JobCtx,
) -> Frame {
    shared.stats.queries.inc();
    shared.obs.queries_rate.inc();
    let total = SpanTimer::start();
    // per-query storage attribution: the nanoseconds this query kept the
    // mount's storage busy — head resolution and a dataset open when
    // they happen, then what the executor's batched chunk fetches took
    // (`QueryStats::fetch_ns`, summed over its scan threads). Reads made
    // on the mount's shared handle belong to no per-query wrapper, so
    // the executor's own ledger is what attributes them.
    let mut storage_ns = 0;
    let epoch = mount.epoch();
    // one parse serves canonicalization, cacheability analysis and (via
    // the canonical text) every whitespace/case variant of this query
    let parsed = parser::parse(text).ok();
    let text_key = parsed
        .as_ref()
        .and_then(|q| canonical::render_query(q).ok());
    let lookup = SpanTimer::start();
    let resolved = match mount.head_memo(reference) {
        Some(memo) => Some(memo),
        None => {
            let (head, ns) = mount.timed(|p| resolve_reference(p, reference));
            storage_ns += ns;
            match head {
                Ok(head) => {
                    mount.memoize_head(reference, head.clone(), epoch);
                    Some(head)
                }
                // let the dataset open below render the error (a hub can
                // be queried before any dataset exists under the mount)
                Err(_) => None,
            }
        }
    };
    let key = match (&text_key, &resolved) {
        (Some(tk), Some(head)) => Some(CacheKey {
            dataset: mount.name.clone(),
            version: head.clone(),
            text: tk.clone(),
            options,
        }),
        _ => None,
    };
    let hit = key.as_ref().and_then(|key| shared.cache.lookup(key));
    let cache_lookup_ns = lookup.record(&shared.obs.cache_lookup);
    let (frame, version, execute_ns) = match hit {
        // the stored frame itself
        Some(frame) => (frame, resolved, 0),
        None => {
            let exec = SpanTimer::start();
            let (frame, version, execute_storage_ns) = execute_query(
                shared, mount, reference, text, options, epoch, parsed, &text_key,
            );
            let execute_ns = exec.record(&shared.obs.execute);
            storage_ns += execute_storage_ns;
            // recorded per cache MISS only: hits cost zero (or one
            // memoized head re-resolution) storage nanoseconds, and on a
            // hot-cache workload those near-zero samples would drag
            // hub.storage_ns p50/p99 far below the real round-trip
            // latency the histogram exists to size
            shared.obs.storage.record(storage_ns);
            (frame, version, execute_ns)
        }
    };
    if let Some(key) = &key {
        // a no-op unless the entry is cached (errors, and results a
        // racing write refused, are not)
        shared.cache.alias(key, text);
    }
    let total_ns = ctx.queue_wait_ns + total.stop();
    let stages = [
        ("queue_wait", ctx.queue_wait_ns),
        ("cache_lookup", cache_lookup_ns),
        ("execute", execute_ns),
        ("storage", storage_ns),
    ];
    let sec = sec_of(Instant::now());
    account_query(shared, mount, ctx, &frame, (total_ns, sec), &stages, || {
        // the canonical rendering, never the raw client bytes
        let text = text_key.unwrap_or_else(|| "<unparseable>".into());
        (version.unwrap_or_default(), text)
    });
    frame
}

/// The cache-miss path: execute on the mount's shared handle for
/// `reference` (opening it when this epoch has none yet), install the
/// head memo and (when cacheable) the result-cache entry. Returns the
/// response frame, the head the query resolved to, and the storage
/// nanoseconds to attribute to the query.
#[allow(clippy::too_many_arguments)]
fn execute_query(
    shared: &Shared,
    mount: &Arc<Mounted>,
    reference: &str,
    text: &str,
    options: QueryOptions,
    epoch: u64,
    parsed: Option<deeplake_tql::ast::Query>,
    text_key: &Option<String>,
) -> (Frame, Option<String>, u64) {
    // one handle per reference per epoch: every write routed through the
    // hub, `HubHandle::invalidate` and unmount drop it with the head
    // memo, so it serves the storage's state as of the last write the
    // hub knows of — what the result cache serves, too. Reads are
    // `&self`: pool workers execute on it concurrently. Its parsed chunks
    // are in the hub's one pool, under the mount's numbering, which a put
    // keeps. (`AT VERSION` still reopens per query inside the executor,
    // on the same numbering.)
    let mut storage_ns = 0;
    let handle = mount.dataset(reference, epoch, || {
        shared.stats.dataset_opens.inc();
        let chunks = mount.chunk_cache();
        let (ds, ns) = mount.timed(|p| Dataset::open_shared(p.clone(), reference, chunks));
        storage_ns = ns;
        ds
    });
    let ds = match handle {
        Ok(ds) => ds,
        Err(e) => {
            return (
                proto::resp_query_err(&format!("open {reference:?}: {e}")).into(),
                None,
                storage_ns,
            )
        }
    };
    let head = ds.head_id().to_string();
    let outer_committed = ds.is_read_only();
    mount.memoize_head(reference, head.clone(), epoch);
    match deeplake_tql::query_opts(&ds, text, &options) {
        Ok(result) => {
            storage_ns += result.stats.fetch_ns;
            let frame: Frame = proto::resp_query(&result).into();
            if let (Some(tk), Some(q)) = (text_key, parsed) {
                // pinned = the result can never change: the version the
                // rows refer to is a committed (immutable) node — the
                // outer reference for plain queries, the reopened
                // AT-VERSION dataset otherwise
                let pinned = match q.version {
                    None => outer_committed,
                    Some(_) => result
                        .dataset
                        .as_ref()
                        .map(|d| d.is_read_only())
                        .unwrap_or(false),
                };
                let key = CacheKey {
                    dataset: mount.name.clone(),
                    version: head.clone(),
                    text: tk.clone(),
                    options,
                };
                shared
                    .cache
                    .insert_if(key, frame.clone(), pinned, || mount.epoch() == epoch);
            }
            (frame, Some(head), storage_ns)
        }
        Err(e) => (
            proto::resp_query_err(&e.to_string()).into(),
            Some(head),
            storage_ns,
        ),
    }
}
