//! # deeplake-obs
//!
//! The observability layer every serving-stack crate instruments
//! against: a lock-free metrics registry, wire-portable request
//! tracing, and a slow-query log — so tail latency and cache behaviour
//! are visible on a *live* process, not only post-hoc in `BENCH_*.json`
//! files.
//!
//! Three pieces:
//!
//! * **Instruments** — [`Counter`] and [`Gauge`] are single relaxed
//!   atomics; [`Histogram`] is a fixed array of atomic buckets on a
//!   log scale (4 sub-buckets per power of two, quantile estimates
//!   within one bucket width of the true sample — ≤ 25% relative
//!   error). Recording never allocates and never locks, so
//!   instruments sit on request hot paths. All three are cheap-clone
//!   handles over shared state: a [`MetricsRegistry`] hands the *same*
//!   instrument to every caller asking for a name, which is what makes
//!   per-thread recorders mergeable — they already share buckets.
//! * **Tracing** — [`TraceContext`] is a `(trace id, span id)` pair
//!   generated at the client and carried over the wire (see
//!   `deeplake-remote`'s `Traced` request wrapper); each hop derives
//!   child spans with [`TraceContext::child`], and a finished request
//!   decomposes into named [`SpanRecord`]s (queue-wait, execute,
//!   storage round-trips, …) that all point back to the client's root.
//! * **Slow-query log** — [`SlowQueryLog`] is a fixed-capacity ring of
//!   [`SlowQueryEntry`] values (canonical query text, dataset, version,
//!   span breakdown) for queries over a threshold; oldest entries are
//!   evicted first, and evictions are counted so a saturated ring is
//!   detectable.
//! * **Windowed rates** — [`RateWindow`] and [`WindowedHistogram`] are
//!   rings of per-second atomic slots giving recent throughput (q/s,
//!   error/s, bytes/s) and recent tail latency over the last
//!   1 s / 10 s / 60 s, where the monotonic instruments only give
//!   lifetime totals. Lock-free on the record path like everything
//!   else.
//! * **Flight recorder** — [`FlightRecorder`] is a fixed-capacity,
//!   always-on ring of notable [`FlightEvent`]s (connections cut, Busy
//!   rejections, node deaths, …) with wall-clock timestamps and trace
//!   ids — the "what happened in the last minute" answer histograms
//!   cannot give.
//! * **Allocation counts** — [`alloc::Counting`] is a global allocator
//!   that test and bench binaries install to count allocations and
//!   their bytes, per thread and in total.
//!
//! A [`MetricsRegistry::snapshot`] freezes everything into a
//! [`MetricsSnapshot`] — plain owned values, safe to serialize (the
//! hub's `Metrics` opcode ships one to remote clients). Snapshots
//! [`merge`](MetricsSnapshot::merge) per name, which is how a cluster
//! client folds every node's snapshot into one fleet view.
//!
//! ## Metric naming
//!
//! Dotted lowercase paths, `<subsystem>.<instrument>[_<unit>]`:
//! `hub.queue_wait_ns`, `hub.cache.hits`, `client.round_trip_ns`,
//! `storage.bytes_read`, `tql.prune_ns`. Histograms record
//! **nanoseconds**; counters count events or bytes (suffix `_bytes`).
//! Windowed instruments add two more conventions: a [`RateWindow`]
//! shadows the monotonic counter it windows with a `_rate` suffix
//! (`hub.queries_rate` beside `hub.queries`), and a
//! [`WindowedHistogram`] emits per-window snapshot entries under
//! `.w1` / `.w10` / `.w60` suffixes (`hub.query_ns.w10`).

pub mod alloc;
mod events;
mod hist;
mod registry;
mod slowlog;
mod trace;
mod window;

pub use events::{FlightEvent, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use slowlog::{SlowQueryEntry, SlowQueryLog};
pub use trace::{current_trace, next_id, with_current, SpanRecord, SpanTimer, TraceContext};
pub use window::{sec_of, window_name, RateSnapshot, RateWindow, WindowedHistogram, WINDOW_SECS};
