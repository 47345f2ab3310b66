//! Compact request tracing: a trace id minted at the client, one span
//! id per hop, and named duration records tying a request's stages back
//! to that root.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::hist::Histogram;

thread_local! {
    /// The ambient trace context of this thread, if any — set by
    /// [`with_current`], read by transports that want an outgoing
    /// request to join an enclosing span instead of rooting a fresh
    /// trace (a loader worker's fetch joining its training-step trace).
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The ambient [`TraceContext`] installed on this thread by the nearest
/// enclosing [`with_current`], or `None` outside any.
pub fn current_trace() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Run `f` with `ctx` as this thread's ambient trace context. Nested
/// calls shadow; the previous context is restored on exit (including
/// unwind, via the drop guard), so a transport deep in `f`'s call tree
/// can attribute its wire round trips to `ctx` without every layer in
/// between threading trace arguments.
pub fn with_current<R>(ctx: TraceContext, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<TraceContext>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(ctx))));
    f()
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh process-unique id, never 0 (`0` means "untraced" on the
/// wire). Ids mix a per-process seed (wall clock ⊕ pid) with a global
/// sequence, so concurrent processes on one host do not collide in
/// practice and ids within a process never repeat.
pub fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ ((std::process::id() as u64) << 32)
    });
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// The context one request carries: which trace it belongs to and which
/// span is the current hop. Generated at the client ([`root`]), carried
/// over the wire, extended per hop ([`child`]).
///
/// [`root`]: TraceContext::root
/// [`child`]: TraceContext::child
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifies the whole request tree across processes.
    pub trace_id: u64,
    /// Identifies this hop's span within the trace.
    pub span_id: u64,
}

impl TraceContext {
    /// Start a new trace (fresh trace id, fresh root span).
    pub fn root() -> Self {
        TraceContext {
            trace_id: next_id(),
            span_id: next_id(),
        }
    }

    /// A child hop: same trace, fresh span id. The child records this
    /// context's `span_id` as its parent.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_id(),
        }
    }
}

/// One finished, named span: `parent_span` links it into the trace tree
/// (`0` = the tree root for this process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`queue_wait`, `execute`, `storage`, …).
    pub name: String,
    /// This span's id.
    pub span_id: u64,
    /// The enclosing span's id (0 when this is a root).
    pub parent_span: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// A started stage clock. `stop` (or [`record`](SpanTimer::record))
/// returns elapsed nanoseconds; the struct is just an `Instant`, so
/// starting a timer costs one clock read.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Instant);

impl SpanTimer {
    /// Start the clock.
    pub fn start() -> Self {
        SpanTimer(Instant::now())
    }

    /// A timer that started at `at`, a clock reading the caller already
    /// holds.
    pub fn started_at(at: Instant) -> Self {
        SpanTimer(at)
    }

    /// Elapsed nanoseconds without consuming the timer.
    pub fn lap(&self) -> u64 {
        self.until(Instant::now())
    }

    /// Nanoseconds from the start to `end` (0 if `end` is earlier).
    fn until(&self, end: Instant) -> u64 {
        let ns = end.saturating_duration_since(self.0).as_nanos();
        ns.min(u64::MAX as u128) as u64
    }

    /// Stop and return elapsed nanoseconds.
    pub fn stop(self) -> u64 {
        self.lap()
    }

    /// Stop, record the elapsed nanoseconds into `hist`, and return
    /// them.
    pub fn record(self, hist: &Histogram) -> u64 {
        self.record_until(Instant::now(), hist)
    }

    /// Stop at `end`, a clock reading the caller already holds, record
    /// the nanoseconds since the start into `hist`, and return them: one
    /// reading can close one span and open the next.
    pub fn record_until(self, end: Instant, hist: &Histogram) -> u64 {
        let ns = self.until(end);
        hist.record(ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "id repeated");
        }
    }

    #[test]
    fn child_keeps_the_trace() {
        let root = TraceContext::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        assert_ne!(root.trace_id, 0);
        assert_ne!(root.span_id, 0);
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        assert_eq!(current_trace(), None);
        let outer = TraceContext::root();
        let inner = outer.child();
        with_current(outer, || {
            assert_eq!(current_trace(), Some(outer));
            with_current(inner, || {
                assert_eq!(current_trace(), Some(inner));
            });
            assert_eq!(current_trace(), Some(outer), "inner scope restored");
        });
        assert_eq!(current_trace(), None, "outer scope restored");
    }

    #[test]
    fn ambient_context_is_per_thread() {
        let ctx = TraceContext::root();
        with_current(ctx, || {
            let seen = std::thread::spawn(current_trace).join().unwrap();
            assert_eq!(seen, None, "other threads must not inherit the context");
            assert_eq!(current_trace(), Some(ctx));
        });
    }

    #[test]
    fn a_span_between_two_given_readings_records_their_distance() {
        let h = Histogram::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_nanos(1_500);
        assert_eq!(SpanTimer::started_at(t0).record_until(t1, &h), 1_500);
        assert_eq!(
            SpanTimer::started_at(t1).record_until(t0, &h),
            0,
            "never negative"
        );
        assert_eq!((h.count(), h.snapshot().sum), (2, 1_500));
    }

    #[test]
    fn span_timer_records() {
        let h = Histogram::new();
        let t = SpanTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = t.record(&h);
        assert!(ns >= 1_000_000, "slept 1ms but measured {ns}ns");
        assert_eq!(h.count(), 1);
    }
}
