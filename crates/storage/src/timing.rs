//! Wall-clock accounting for storage calls: [`TimingProvider`] wraps
//! any provider and accumulates the nanoseconds (and call count) spent
//! inside it.
//!
//! The hub wraps a batched read op's provider just before executing
//! it (the op's scatter-gather hits storage from several threads), and
//! afterwards the accumulated nanoseconds are the op's *storage
//! round-trip span* — attribution that thread-locals cannot provide
//! across a scoped worker pool. A mount keeps one for its lifetime, too:
//! the dataset handles its queries share are opened over it, and the
//! counter's advance across a head resolution or an open is that
//! step's storage time. The accumulator is a pair of shared counters,
//! so wrapping costs two `Arc` clones and each call adds two relaxed
//! atomic ops around the inner call.

use bytes::Bytes;
use deeplake_obs::{Counter, SpanTimer};

use crate::plan::{ReadPlan, ReadResult};
use crate::provider::StorageProvider;
use crate::{DynProvider, Result};

/// A [`StorageProvider`] that times every call into the wrapped
/// provider, accumulating nanoseconds and call count into shared
/// [`Counter`]s readable while calls are still in flight.
pub struct TimingProvider {
    inner: DynProvider,
    nanos: Counter,
    calls: Counter,
}

impl TimingProvider {
    /// Wrap `inner` with fresh accumulators.
    pub fn new(inner: DynProvider) -> Self {
        TimingProvider {
            inner,
            nanos: Counter::new(),
            calls: Counter::new(),
        }
    }

    /// Nanoseconds spent inside the wrapped provider so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }

    /// Calls that entered the wrapped provider so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Handle to the nanosecond accumulator (survives the wrapper).
    pub fn nanos_counter(&self) -> Counter {
        self.nanos.clone()
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &DynProvider {
        &self.inner
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = SpanTimer::start();
        let out = f();
        self.nanos.add(t.stop());
        self.calls.inc();
        out
    }
}

impl StorageProvider for TimingProvider {
    fn get(&self, key: &str) -> Result<Bytes> {
        self.timed(|| self.inner.get(key))
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        self.timed(|| self.inner.get_range(key, start, end))
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.timed(|| self.inner.put(key, value))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.timed(|| self.inner.delete(key))
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.timed(|| self.inner.exists(key))
    }

    fn len_of(&self, key: &str) -> Result<u64> {
        self.timed(|| self.inner.len_of(key))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.timed(|| self.inner.list(prefix))
    }

    fn describe(&self) -> String {
        format!("timed({})", self.inner.describe())
    }

    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        self.timed(|| self.inner.execute(plan))
    }

    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        self.timed(|| self.inner.delete_prefix(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryProvider;
    use std::sync::Arc;

    #[test]
    fn accumulates_time_and_calls() {
        let inner = MemoryProvider::new();
        inner.put("k", Bytes::from_static(b"v")).unwrap();
        let timed = TimingProvider::new(Arc::new(inner));
        assert_eq!(timed.calls(), 0);
        timed.get("k").unwrap();
        timed.get_range("k", 0, 1).unwrap();
        assert!(timed.exists("k").unwrap());
        assert_eq!(timed.calls(), 3);
        // wall clock is monotone; three calls took *some* time
        let after_reads = timed.nanos();
        timed.list("").unwrap();
        assert!(timed.nanos() >= after_reads);
        assert_eq!(timed.calls(), 4);
    }

    #[test]
    fn counter_handle_survives_wrapper() {
        let inner: DynProvider = Arc::new(MemoryProvider::new());
        inner.put("k", Bytes::from_static(b"v")).unwrap();
        let timed = TimingProvider::new(inner);
        let nanos = timed.nanos_counter();
        let shared: DynProvider = Arc::new(timed);
        shared.get("k").unwrap();
        drop(shared);
        assert!(nanos.get() > 0, "time recorded before the wrapper died");
    }

    #[test]
    fn errors_still_timed() {
        let timed = TimingProvider::new(Arc::new(MemoryProvider::new()));
        assert!(timed.get("missing").is_err());
        assert_eq!(timed.calls(), 1);
    }
}
